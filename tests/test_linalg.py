"""The in-repo matrix exponential against scipy.linalg.expm, which only the
tests import: the Pade route on dense inputs, the Taylor route on bordered
ones (its degree and squarings, its arithmetic and its memory)."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parstab import linalg
from parstab.lifting import LiftingContext
from parstab.simulation import CSV_COLUMNS, ClosedLoop, run
from parstab.spectral_basis import enumerate_eigenpairs
from parstab.synthesis import synthesize

from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, traced_peak


def relerr(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def degree_of(A):
    A2 = A @ A
    A4 = A2 @ A2
    return linalg.pade_degree(A, A2, A4, A4 @ A2)


@pytest.fixture(scope="module")
def base():
    # a dense non-normal matrix of unit 1-norm
    M = np.random.default_rng(7).standard_normal((12, 12))
    return M / np.linalg.norm(M, 1)


@pytest.mark.parametrize(
    "scale, degree, squarings",
    [(0.002, 3, 0), (0.1, 5, 0), (0.6, 7, 0), (2.0, 9, 0), (4.0, 13, 0), (40.0, 13, 3)],
)
def test_expm_matches_scipy_on_every_degree(base, scale, degree, squarings):
    A = scale * base
    assert degree_of(A) == (degree, squarings)
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) < 1e-14


def test_expm_with_many_squarings(base):
    A = 300.0 * base - 60.0 * np.eye(12)
    assert degree_of(A) == (13, 6)
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) < 1e-13


def test_pade_coefficients_are_highams():
    assert linalg.pade_coefficients(3) == [120.0, 60.0, 12.0, 1.0]
    b13 = linalg.pade_coefficients(13)
    assert b13[0] == 64764752532480000.0 and b13[12] == 182.0 and b13[13] == 1.0


def test_expm_of_zero_and_diagonal_inputs():
    assert np.array_equal(linalg.expm(np.zeros((4, 4))), np.eye(4))
    d = np.array([-3.0, 0.0, 0.5, -200.0])
    assert np.array_equal(linalg.expm(np.diag(d)), np.diag(np.exp(d)))
    assert np.array_equal(linalg.expm(np.diag(d)), scipy.linalg.expm(np.diag(d)))
    assert linalg.expm([[2.0]])[0, 0] == np.exp(2.0)


def test_expm_nilpotent_and_nonfinite():
    N = np.diag([1.0, 2.0, 3.0], k=1)
    assert relerr(linalg.expm(N), scipy.linalg.expm(N)) < 1e-15
    bad = np.eye(3)
    bad[0, 1] = np.inf
    assert np.all(np.isnan(linalg.expm(bad)))
    with pytest.raises(ValueError):
        linalg.expm(np.zeros((2, 3)))


@pytest.fixture(scope="module")
def strong_design(example_plant):
    # the strong-drift demo's design (N = 60) on enough modes for N_sim = 960
    ctx = LiftingContext(enumerate_eigenpairs(example_plant, 960), 3)
    return synthesize(ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 60, 0.5)


@pytest.mark.parametrize("n_sim, h", [(240, 2e-4), (960, 1e-3)])
def test_expm_matches_scipy_on_the_workload_loops(strong_design, n_sim, h):
    hA = ClosedLoop(strong_design, N_sim=n_sim).full_matrix * h
    assert hA.shape == (n_sim + 60, n_sim + 60)
    assert relerr(linalg.expm(hA), scipy.linalg.expm(hA)) <= 1e-13


def arrowhead(n, head, seed):
    """Diagonal plus dense rows and columns at `head`."""
    rng = np.random.default_rng(seed)
    A = np.diag(-rng.uniform(0.0, 3.0, n))
    A[head] = rng.standard_normal((len(head), n))
    A[:, head] = rng.standard_normal((n, len(head)))
    return A


def taylor_of(A):
    return linalg.taylor_degree(linalg.Border.of(A, linalg.border_indices(A)))


@pytest.mark.parametrize("n, head", [(64, [0, 1, 2]), (200, [5, 17, 120, 199])])
def test_border_product_equals_the_dense_product(n, head):
    A = arrowhead(n, head, n)
    B = linalg.Border.of(A, linalg.border_indices(A))
    M = np.random.default_rng(1).standard_normal((n, n))
    want = A @ M
    assert np.max(np.abs(B @ M - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(B @ M[:, 0] - want[:, 0])) <= 1e-13 * np.max(np.abs(want))
    # |A|' from the parts alone, as the Taylor bound uses it
    abs_want = np.abs(A).T @ M
    assert np.max(np.abs(B.abs_transpose() @ M - abs_want)) <= 1e-13 * np.max(np.abs(abs_want))
    # in place, as Horner's rule uses it
    B.matmul(M, out=M)
    assert np.max(np.abs(M - want)) <= 1e-13 * np.max(np.abs(want))


def test_border_detection(strong_design):
    loop = ClosedLoop(strong_design, N_sim=240)
    head = np.arange(240, 240 + strong_design.n0)
    assert np.array_equal(linalg.border_indices(loop.full_matrix), head)
    assert np.array_equal(linalg.border_indices(arrowhead(64, [3, 9], 0)), [3, 9])
    # dense, too wide a border, unstructured (tridiagonal), too small to pay
    dense = np.random.default_rng(2).standard_normal((64, 64))
    assert linalg.border_indices(dense) is None
    assert linalg.border_indices(arrowhead(64, list(range(5)), 0)) is None
    assert linalg.border_indices(np.eye(64) + np.eye(64, k=1) + np.eye(64, k=-1)) is None
    assert linalg.border_indices(arrowhead(15, [0], 0)) is None
    # a border that leaves one off-diagonal nonzero outside it
    stray = arrowhead(64, [3, 9], 0)
    stray[20, 30] = 1.0
    assert linalg.border_indices(stray) is None


@pytest.mark.parametrize(
    "scale, degree, squarings",
    [(0.001, 3, 0), (0.3, 5, 0), (3.0, 7, 0), (6.0, 9, 0), (14.0, 13, 0), (30.0, 13, 1), (300.0, 13, 4)],
)
def test_expm_of_arrowheads_matches_scipy_on_every_degree(scale, degree, squarings):
    A = arrowhead(64, [5, 17, 40], 64)
    A *= scale / np.linalg.norm(A, 1)
    # the Pade route would take this degree; the Taylor route squares as often
    assert degree_of(A) == (degree, squarings)
    m, s = taylor_of(A)
    assert s == squarings and m <= linalg.TAYLOR_MAX
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) < 1e-14


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=48, max_value=160),
    k=st.integers(min_value=1, max_value=3),
    log_norm=st.floats(min_value=-3.0, max_value=np.log10(300.0)),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_taylor_route_on_drawn_bordered_matrices(n, k, log_norm, seed):
    rng = np.random.default_rng(seed)
    head = np.sort(rng.choice(n, k, replace=False))
    A = arrowhead(n, head, seed)
    A *= 10.0**log_norm / np.linalg.norm(A, 1)
    assert np.array_equal(linalg.border_indices(A), head)
    m, s = taylor_of(A)
    assert 1 <= m <= linalg.TAYLOR_MAX
    # never more squarings than the Pade route, the O(n^3) part of either
    assert s <= degree_of(A)[1]
    # measured: at most 1.6e-13 over 900 such draws, where the Pade route
    # sits 1.5e-13 from scipy too (four squarings at 1-norm 300)
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) <= 5e-13


def test_border_route_makes_no_lu_solve(monkeypatch, strong_design):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    hA = ClosedLoop(strong_design, N_sim=240).full_matrix * 2e-4
    want = scipy.linalg.expm(hA)
    assert relerr(linalg.expm(hA), want) <= 1e-13
    A = arrowhead(64, [5, 17, 40], 64)
    A *= 300.0 / np.linalg.norm(A, 1)
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) < 1e-14
    with pytest.raises(AssertionError, match="solve called"):
        linalg.expm(np.random.default_rng(2).standard_normal((64, 64)))


def test_wide_loop_memory(strong_design):
    # the 1020-dim wide_sim loop: expm holds at most two arrays of n^2
    # doubles beyond its input, and run (assembly, expm, doubling squarings
    # and every block's diagnostics) at most three
    hA = ClosedLoop(strong_design, N_sim=960).full_matrix * 1e-3
    n2 = hA.size * hA.itemsize
    assert traced_peak(linalg.expm, hA) <= 2 * n2
    z0 = np.linspace(1.0, 0.5, 5)
    assert traced_peak(run, z0, 0.3, 1e-3, strong_design, N_sim=960) <= 3 * n2


def test_pipeline_loop_memory(strong_design):
    # the strong-drift pipeline's 300-dim loop over 100 001 rows: run holds
    # its output columns and at most 4 MB more for propagation, the
    # diagnostics and checks of a block and the rate fit
    z0 = np.linspace(1.0, 0.5, 5)
    columns = len(CSV_COLUMNS) * 100_001 * 8
    assert traced_peak(run, z0, 20.0, 2e-4, strong_design, N_sim=240) <= columns + 4e6
