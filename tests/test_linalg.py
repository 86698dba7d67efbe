"""The in-repo matrix exponential against scipy.linalg.expm, which only the
tests import."""

import numpy as np
import pytest
import scipy.linalg

from parstab import linalg
from parstab.lifting import LiftingContext
from parstab.simulation import ClosedLoop
from parstab.spectral_basis import enumerate_eigenpairs
from parstab.synthesis import synthesize

from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2


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


@pytest.mark.parametrize("n, head", [(64, [0, 1, 2]), (200, [5, 17, 120, 199])])
def test_border_product_equals_the_dense_product(n, head):
    A = arrowhead(n, head, n)
    B = linalg.Border(A, linalg.border_indices(A))
    M = np.random.default_rng(1).standard_normal((n, n))
    want = A @ M
    assert np.max(np.abs(B @ M - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(B @ M[:, 0] - want[:, 0])) <= 1e-13 * np.max(np.abs(want))
    # in place, as the Pade sums use it
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
    assert degree_of(A) == (degree, squarings)
    assert linalg.border_indices(A) is not None
    assert relerr(linalg.expm(A), scipy.linalg.expm(A)) < 1e-14
