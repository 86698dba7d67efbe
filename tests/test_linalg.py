"""The in-repo matrix exponential against scipy.linalg.expm, which only the
tests import. Every input is a `Border`: a dense matrix as the border of all
its indices, an arrowhead at its head, the closed loop from
`ClosedLoop.border`. The tests check the Taylor route's degree and
squarings, its arithmetic, the rank and accuracy of the factored powers that
the simulation propagates by, and its memory. Two oracles live here alone: the
Pade degree selection of Al-Mohy & Higham, SIAM J. Matrix Anal. Appl. 31(3),
2009, Algorithm 5.1, which the Taylor route never squares more often than,
and the dense assembly of the closed loop, which `ClosedLoop.border` matches
bit for bit."""

import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parstab import linalg, simulation
from parstab.simulation import CSV_COLUMNS, ClosedLoop, run

from conftest import traced_peak
from oracles import factored_array

# largest eta = max(||A^2k||^(1/2k), ...) at which the [m/m] Pade approximant
# is accurate to unit roundoff in double precision (Al-Mohy & Higham 2009,
# Table 3.1)
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068, 13: 4.25}


def _onenorm(M):
    return float(np.max(np.sum(np.abs(M), axis=0)))


def _ell(abs_t, norm, m, s=0):
    """Extra squarings ell(2^-s A, m) of Al-Mohy & Higham 2009, eq. (5.5).

    alpha = |c_(2m+1)| ||(|B|)^(2m+1)||_1 / ||B||_1 for B = 2^-s A, with the
    exact 1-norm of the power of |B|, the largest entry of (|B|')^(2m+1) 1.
    `abs_t` is |A|' and `norm` is ||A||_1.
    """
    scale = 2.0**-s
    norm = norm * scale
    if norm == 0.0:
        return 0
    v = np.ones(abs_t.shape[0])
    for _ in range(2 * m + 1):
        v = (abs_t @ v) * scale
    f = math.factorial
    # 1/|c_(2m+1)|, the leading backward-error coefficient of r_m
    c_recip = f(2 * m) * f(2 * m + 1) / f(m) ** 2
    alpha = float(np.max(v)) / (norm * c_recip)
    if alpha == 0.0:
        return 0
    return max(math.ceil(math.log2(alpha / linalg.UNIT_ROUNDOFF) / (2 * m)), 0)


def degree_of(A):
    """(m, s): the Pade degree and squarings of Al-Mohy & Higham 2009,
    Algorithm 5.1, with exact 1-norms of A^2, A^4 and A^6 and from them the
    product bounds on ||A^8|| and ||A^10||."""
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    abs_t = np.abs(A).T
    norm = _onenorm(A)
    n2, n4, n6 = _onenorm(A2), _onenorm(A4), _onenorm(A6)
    d4, d6 = n4 ** 0.25, n6 ** (1 / 6)
    eta1 = max(d4, d6)
    for m in (3, 5):
        if eta1 <= THETA[m] and _ell(abs_t, norm, m) == 0:
            return m, 0
    d8 = (n2 * n6) ** 0.125
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 <= THETA[m] and _ell(abs_t, norm, m) == 0:
            return m, 0
    d10 = (n4 * n6) ** 0.1
    eta5 = min(eta3, max(d8, d10))
    s = 0 if eta5 == 0.0 else max(math.ceil(math.log2(eta5 / THETA[13])), 0)
    return 13, s + _ell(abs_t, norm, 13, s)


def expm_array(B):
    """`linalg.expm` of the border B as an n x n array."""
    return factored_array(linalg.expm(B))


def relerr(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


def orthonormality_defect(F):
    """max |Q'Q - I| and |W'W - I| of a factored power's bases."""
    eye = np.eye(F.rank)
    return max(float(np.max(np.abs(F.Q.T @ F.Q - eye), initial=0.0)),
               float(np.max(np.abs(F.W.T @ F.W - eye), initial=0.0)))


def dense(A):
    """A square matrix as the border of all its indices."""
    A = np.asarray(A, dtype=float)
    return linalg.Border.of(A, np.arange(len(A)))


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
    # the cases of every Pade degree, as dense borders; the Taylor route
    # squares as often as the Pade route would
    A = scale * base
    assert degree_of(A) == (degree, squarings)
    assert linalg.taylor_degree(dense(A))[1] == squarings
    assert relerr(expm_array(dense(A)), scipy.linalg.expm(A)) < 1e-14


def test_expm_with_many_squarings(base):
    A = 300.0 * base - 60.0 * np.eye(12)
    assert degree_of(A) == (13, 6)
    assert linalg.taylor_degree(dense(A))[1] == 6
    assert relerr(expm_array(dense(A)), scipy.linalg.expm(A)) < 1e-13


def test_expm_of_zero_and_diagonal_inputs():
    assert np.array_equal(expm_array(dense(np.zeros((4, 4)))), np.eye(4))
    d = np.array([-3.0, 0.0, 0.5, -200.0])
    assert np.array_equal(expm_array(dense(np.diag(d))), np.diag(np.exp(d)))
    assert np.array_equal(expm_array(dense(np.diag(d))), scipy.linalg.expm(np.diag(d)))
    # a diagonal matrix held at a border of some of its indices
    assert np.array_equal(expm_array(linalg.Border.of(np.diag(d), [1, 2])), np.diag(np.exp(d)))
    assert expm_array(dense([[2.0]]))[0, 0] == np.exp(2.0)


def test_expm_nilpotent_and_nonfinite():
    N = np.diag([1.0, 2.0, 3.0], k=1)
    assert relerr(expm_array(dense(N)), scipy.linalg.expm(N)) < 1e-15
    bad = np.eye(3)
    bad[0, 1] = np.inf
    assert np.all(np.isnan(expm_array(dense(bad))))
    assert np.all(np.isnan(expm_array(linalg.Border.of(bad, [0]))))
    with pytest.raises(ValueError):
        dense(np.zeros((2, 3)))


def assemble(loop):
    """The closed loop's A as a dense array, += by += as it was assembled
    before `ClosedLoop.border` built the parts directly."""
    m = loop.artifacts
    N_sim, N, n0 = loop.N_sim, loop.N, loop.n0
    L = m.observer_gain
    n_tot = N_sim + N
    Acl = np.zeros((n_tot, n_tot))
    diag = np.arange(N_sim)
    Acl[diag, diag] = -loop.lams
    obs = slice(N_sim, n_tot)
    head = slice(N_sim, N_sim + n0)
    if not loop.open_loop:
        Acl[:N_sim, head] += loop.forcing
        Acl[head, head] += m.gain_block
        Acl[head, obs] += -L @ loop.C_N
        Acl[head, head] += L @ (loop.C_N @ loop.lift_all[:N]) - L @ (loop.C_sim @ loop.lift_all)
        Acl[head, :N_sim] += L @ loop.C_sim
        tail = slice(N_sim + n0, n_tot)
        Acl[tail, tail] += -np.diag(loop.lams[n0:N])
        Acl[tail, head] += loop.forcing[n0:N]
    return Acl


def test_loop_border_is_the_assembled_matrix(strong_design):
    for n_sim in (240, 960):
        for open_loop in (False, True):
            loop = ClosedLoop(strong_design, N_sim=n_sim, open_loop=open_loop)
            A = assemble(loop)
            head = np.arange(n_sim, n_sim + strong_design.n0)
            got, want = loop.border(), linalg.Border.of(A, head)
            assert np.array_equal(got.head, head)
            for part in ("diag", "rows", "cols"):
                assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
            assert loop.full_matrix.tobytes() == A.tobytes()
            if open_loop:
                # diagonal, so expm gives exp of its diagonal exactly
                E = factored_array(loop.exponential(1e-3))
                assert np.array_equal(E, np.diag(np.exp(1e-3 * np.diagonal(A))))


@pytest.mark.parametrize("n_sim, h", [(240, 2e-4), (960, 1e-3)])
def test_expm_matches_scipy_on_the_workload_loops(strong_design, n_sim, h):
    B = ClosedLoop(strong_design, N_sim=n_sim).border().scaled(h)
    hA = B.dense()
    assert hA.shape == (n_sim + 60, n_sim + 60)
    assert relerr(expm_array(B), scipy.linalg.expm(hA)) <= 1e-13


@pytest.mark.parametrize(
    "design, n_sim, h", [("strong_design", 240, 2e-4), ("strong_design", 960, 1e-3), ("quick_design", 32, 1e-3)]
)
def test_factored_powers_match_scipy_on_the_demo_loops(request, design, n_sim, h):
    # the pipeline's, wide_sim's and the quick demo's loops: E and the
    # squares that `run` propagates by, up to E^256, stay diagonal plus
    # factors of rank below n/4 and match scipy's exponential of 2^p h A
    B = ClosedLoop(request.getfixturevalue(design), N_sim=n_sim).border().scaled(h)
    hA = B.dense()
    E = linalg.expm(B)
    for p in range(9):
        assert E.plain is None and 4 * E.rank < len(hA)
        assert relerr(factored_array(E), scipy.linalg.expm(2**p * hA)) <= 1e-12
        assert orthonormality_defect(E) <= 1e-13
        E = E.squared()


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
    B = linalg.Border.of(A, head)
    assert np.array_equal(B.dense(), A)
    M = np.random.default_rng(1).standard_normal((n, n))
    want = A @ M
    assert np.max(np.abs(B @ M - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.max(np.abs(B @ M[:, 0] - want[:, 0])) <= 1e-13 * np.max(np.abs(want))
    # |A|' from the parts alone, as the Taylor bound uses it
    abs_want = np.abs(A).T @ M
    assert np.max(np.abs(B.abs_transpose() @ M - abs_want)) <= 1e-13 * np.max(np.abs(abs_want))


@pytest.mark.parametrize(
    "scale, degree, squarings",
    [(0.001, 3, 0), (0.3, 5, 0), (3.0, 7, 0), (6.0, 9, 0), (14.0, 13, 0), (30.0, 13, 1), (300.0, 13, 4)],
)
def test_expm_of_arrowheads_matches_scipy_on_every_degree(scale, degree, squarings):
    A = arrowhead(64, [5, 17, 40], 64)
    A *= scale / np.linalg.norm(A, 1)
    # the Pade route would take this degree; the Taylor route squares as often
    assert degree_of(A) == (degree, squarings)
    B = linalg.Border.of(A, [5, 17, 40])
    m, s = linalg.taylor_degree(B)
    assert s == squarings and m <= linalg.TAYLOR_MAX
    assert relerr(expm_array(B), scipy.linalg.expm(A)) < 1e-14


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
    B = linalg.Border.of(A, head)
    m, s = linalg.taylor_degree(B)
    assert 1 <= m <= linalg.TAYLOR_MAX
    # never more squarings than the Pade route, the O(n^3) part of either
    assert s <= degree_of(A)[1]
    # measured: at most 2.7e-14 over 900 such draws (1.6e-13 with the dense
    # Horner route before, where the Pade route sits 1.5e-13 from scipy too:
    # four squarings at 1-norm 300)
    assert relerr(expm_array(B), scipy.linalg.expm(A)) <= 5e-13


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=48, max_value=160),
    k=st.integers(min_value=1, max_value=3),
    log_norm=st.floats(min_value=-3.0, max_value=np.log10(300.0)),
    squarings=st.integers(min_value=1, max_value=8),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_squarings_of_drawn_bordered_matrices(n, k, log_norm, squarings, seed):
    # exp(A) of the drawn matrices above, as exp(2^-p A) squared p times:
    # every square keeps orthonormal bases and ends within the same bound
    rng = np.random.default_rng(seed)
    head = np.sort(rng.choice(n, k, replace=False))
    A = arrowhead(n, head, seed)
    A *= 10.0**log_norm / np.linalg.norm(A, 1)
    E = linalg.expm(linalg.Border.of(A / 2**squarings, head))
    for _ in range(squarings):
        E = E.squared()
        if E.plain is None:
            assert orthonormality_defect(E) <= 1e-13
    assert relerr(factored_array(E), scipy.linalg.expm(A)) <= 5e-13


@pytest.mark.parametrize("inside", [0, 2, 6])
@pytest.mark.parametrize("axes", [False, True])
def test_extended_basis_adds_only_the_new_directions(inside, axes):
    # [Q | B] = X R with X = [Q | Q2] orthonormal, where the first `inside`
    # columns of B lie in the span of Q. They add directions of rounding
    # weight at most; with Q the first coordinate axes they leave exact zeros,
    # whose QR columns fall inside Q and are dropped
    rng = np.random.default_rng(inside)
    n, r = 50, 6
    Q = np.eye(n)[:, :r] if axes else np.linalg.qr(rng.standard_normal((n, r)))[0]
    B = rng.standard_normal((n, r))
    B[:, :inside] = Q @ rng.standard_normal((r, inside))
    X, R = linalg._extended(Q, B)
    assert np.array_equal(X[:, :r], Q) and R.shape == (X.shape[1], 2 * r)
    assert np.max(np.abs(X.T @ X - np.eye(X.shape[1]))) <= 1e-14
    assert np.max(np.abs(X @ R - np.hstack([Q, B]))) <= 1e-14
    weights = np.linalg.svd(R[r:, r:], compute_uv=False)
    assert np.count_nonzero(weights > 1e-13) == r - inside
    if axes:
        assert X.shape[1] == 2 * r - inside


@pytest.mark.parametrize("n_sim, h", [(240, 2e-4), (960, 1e-3)])
def test_squarings_factor_blocks_of_r_columns(monkeypatch, strong_design, n_sim, h):
    # each squaring of a rank-r power makes QRs of n x r blocks only, the new
    # directions beside the carried bases, never of the n x 2r stacked factors
    E = linalg.expm(ClosedLoop(strong_design, N_sim=n_sim).border().scaled(h))
    widths = []
    qr = np.linalg.qr

    def recorded(M, *args, **kwargs):
        widths.append(M.shape[1])
        return qr(M, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    for _ in range(8):
        widths.clear()
        rank = E.rank
        E = E.squared()
        assert len(widths) == 2 and max(widths) <= rank


def test_border_route_makes_no_lu_solve(monkeypatch, strong_design):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg.solve called")

    monkeypatch.setattr(np.linalg, "solve", refuse)
    B = ClosedLoop(strong_design, N_sim=240).border().scaled(2e-4)
    assert relerr(expm_array(B), scipy.linalg.expm(B.dense())) <= 1e-13
    A = arrowhead(64, [5, 17, 40], 64)
    A *= 300.0 / np.linalg.norm(A, 1)
    assert relerr(expm_array(linalg.Border.of(A, [5, 17, 40])), scipy.linalg.expm(A)) < 1e-14
    # a dense matrix of 1-norm 62, as the border of all its indices
    D = np.random.default_rng(2).standard_normal((64, 64))
    assert relerr(expm_array(dense(D)), scipy.linalg.expm(D)) < 1e-14


def test_wide_loop_memory(strong_design, monkeypatch):
    # the 1020-dim wide_sim loop: the exponential holds its border parts, its
    # width-72 Taylor factors and their QR copies (0.37 n^2 doubles), and run
    # (expm, the squarings and every block's diagnostics; 0.84 n^2) less than
    # one array of n^2 doubles, so no n x n array is formed. On one usable
    # CPU no segment is forked, so tracemalloc sees all of run's work
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    loop = ClosedLoop(strong_design, N_sim=960)
    n2 = (loop.N_sim + loop.N) ** 2 * 8
    assert traced_peak(loop.exponential, 1e-3) <= 0.4 * n2
    z0 = np.linspace(1.0, 0.5, 5)
    assert traced_peak(run, z0, 0.3, 1e-3, strong_design, N_sim=960) <= 0.9 * n2


def test_pipeline_loop_memory(strong_design, monkeypatch):
    # the strong-drift pipeline's 300-dim loop over 100 001 rows: run holds
    # its output columns and at most 2.7 MB more for propagation, the
    # diagnostics and checks of a block and the rate fit. On one usable CPU
    # this process propagates both segments, one after the other
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    z0 = np.linspace(1.0, 0.5, 5)
    columns = len(CSV_COLUMNS) * 100_001 * 8
    assert traced_peak(run, z0, 20.0, 2e-4, strong_design, N_sim=240) <= columns + 2.7e6


def test_one_blas_thread_sets_one_thread_and_restores_the_count(monkeypatch):
    calls = linalg._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy bundles no OpenBLAS here")
    setter, getter = calls
    before = getter()
    setter(2)
    # 2, or fewer where OpenBLAS caps the count at the CPUs it found
    count = getter()
    try:
        with linalg.one_blas_thread():
            assert getter() == 1
        assert getter() == count
        with pytest.raises(ValueError), linalg.one_blas_thread():
            raise ValueError
        assert getter() == count
    finally:
        setter(before)
    # no OpenBLAS found: the body runs as it is
    monkeypatch.setattr(linalg, "_blas_thread_calls", lambda: None)
    with linalg.one_blas_thread():
        assert getter() == before
