"""Matrix exponential of a bordered matrix, on numpy alone.

A `Border` is a square matrix whose off-diagonal nonzeros all lie in a few
rows and the columns of the same indices, its head. The closed loop of
`parstab.simulation` is one: off its diagonal, only the rows and columns of
the observer head are nonzero, and `ClosedLoop.border` builds those parts
directly. Any square matrix is a border of all its indices
(`Border.of(A, np.arange(n))`). A product with a block of j columns is
formed from the diagonal, the border rows and the border columns in
O(n k j) for a border of k indices.

exp(A) is the truncated Taylor series T_m(2^-s A) squared s times (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33(2), 2011, truncate the Taylor series the same
way). `taylor_degree` picks m <= TAYLOR_MAX and s from a forward bound on the
truncation error built from the 1-norms of powers of |A|, which
matrix-vector products with the border parts of |A|' give, so no dense |A| is
formed. `expm` returns a `Factored`, diag(lam) + Q diag(sig) W' with thin
orthonormal bases Q and W: T_m(2^-s A) minus T_m of its diagonal telescopes
into factors of width k(m+1) made from 2m - 2 border products with n x k
blocks, which are cut to their numerical rank by QR and an SVD of the small
core. Each squaring keeps the form and carries the bases: only the r new
directions diag(lam) Q and diag(lam) W are orthogonalized against Q and W,
by block Gram-Schmidt run twice, so the QRs are of n x r blocks, not of the
n x 2r stacked factors, and an SVD of the core, at most 2r x 2r, cuts the
square again. On the closed loops the rank stays far below n (9 for E and 20
for the E^128 the simulation propagates by on the 300-dim strong-drift loop,
13 and 30 for E^64 on the 1020-dim one), so no n x n array is formed.
`expm` chooses the form once: if the Taylor polynomial has a rank r with
4r >= n, factored products cost more than dense ones, and the plain matrix
is held and squared instead. Squaring never changes the form. The plain
form is an accuracy path too: with every index in the head, as for a dense
input, lam is all ones and the low-rank part holds E - I, which cancels
against it. Kept factored there, `expm` of a dense matrix with many
squarings (n = 12, six) is 5.2e-7 from `scipy.linalg.expm`, against 3.9e-14
plain. No LU factorization is made.

`one_blas_thread` runs a block of code with BLAS on one thread, so that its
products and LAPACK calls give the same bytes at every thread count. It
covers the OpenBLAS that numpy's wheels bundle: `scipy_openblas` (numpy 2),
`openblas64_` (numpy 1.22-1.26) and a plain `openblas` build in the same
place. Under any other BLAS (a distribution's numpy, MKL, Accelerate) it
does nothing, and results may depend on the thread count there.

`trim_heap` hands the free pages of glibc's heap back to the system
(`malloc_trim`), so that what a process holds resident afterwards is what is
live, not the holes glibc's layout left. Without it, the strong-drift
pipeline's peak RSS read 47.7 or 48.6 MB for one source tree at different
checkout paths (2 vCPUs), since the path strings alone moved where glibc
placed the arrays the run frees. Without glibc it does nothing.
"""

from __future__ import annotations

import contextlib
import functools
import glob
import math
import os

import numpy as np

UNIT_ROUNDOFF = 2.0**-53
# highest Taylor degree. A degree costs two border products with n x k
# blocks, a squaring a product of factors and its QR, or O(n^3) once plain:
# with 30, 42 of 300 drawn bordered matrices squared more often than the
# rational scaling and squaring of Al-Mohy & Higham (SIAM J. Matrix Anal.
# Appl. 31(3), 2009) would; with 40, none of 2700 did
TAYLOR_MAX = 40
# Gram eigenvalues of unit vectors at most this are rounding error: the
# eigenvalues of a Gram matrix of columns of norm at most 1 carry an
# absolute error of a few unit roundoffs
GRAM_TOL = 32 * UNIT_ROUNDOFF
# (set, get) thread-count calls of the OpenBLAS builds numpy's wheels bundle
BLAS_THREAD_CALLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_set_num_threads64_", "openblas_get_num_threads64_"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _blas_thread_calls():
    """(set, get) of the OpenBLAS bundled with numpy, or None when there is none.

    numpy's wheels keep their OpenBLAS in `numpy.libs` beside the package
    (Linux, Windows) or in `numpy/.dylibs` (macOS); opening the library numpy
    has loaded gives the same handle, so the calls act on numpy's BLAS."""
    import ctypes

    root = os.path.dirname(np.__file__)
    paths = glob.glob(os.path.join(root, os.pardir, "numpy.libs", "*openblas*"))
    paths += glob.glob(os.path.join(root, ".dylibs", "*openblas*"))
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in BLAS_THREAD_CALLS:
            setter, getter = getattr(lib, set_name, None), getattr(lib, get_name, None)
            if setter is not None and getter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                return setter, getter
    return None


@functools.cache
def _malloc_trim():
    """glibc's malloc_trim, or None where the C library has none."""
    import ctypes

    try:
        return ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None


def trim_heap() -> None:
    """Hand the free pages of the C heap back to the system; a no-op
    without glibc."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@contextlib.contextmanager
def one_blas_thread():
    """Run the body with numpy's OpenBLAS on one thread, then restore its count.

    A product or LAPACK call split over threads sums in an order that
    depends on the thread count; on one thread its bytes do not. Does
    nothing when no OpenBLAS thread call is found. The count is global to
    the process, so no other thread may call BLAS meanwhile."""
    calls = _blas_thread_calls()
    if calls is None:
        yield
        return
    setter, getter = calls
    old = getter()
    setter(1)
    try:
        yield
    finally:
        setter(old)


class Border:
    """A square matrix whose off-diagonal nonzeros lie in the rows and columns `head`.

    It is held as three parts: the diagonal off the head, the full head rows
    and the head columns without their head entries. A product with an n x j
    block then costs O(n k j) for k head indices.
    """

    def __init__(self, head: np.ndarray, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.head = head
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.shape = (len(diag), len(diag))

    @classmethod
    def of(cls, A: np.ndarray, head) -> "Border":
        """The parts of square A, which must have its border at `head`."""
        A = np.asarray(A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"a border needs a square matrix, got shape {A.shape}")
        diag = np.diagonal(A).copy()
        diag[head] = 0.0
        cols = A[:, head]
        cols[head] = 0.0
        return cls(head, diag, A[head], cols)

    def dense(self) -> np.ndarray:
        """The n x n matrix of the parts."""
        A = np.diag(self.diag)
        A[:, self.head] = self.cols
        A[self.head] = self.rows
        return A

    def scaled(self, c: float) -> "Border":
        return Border(self.head, c * self.diag, c * self.rows, c * self.cols)

    def abs_transpose(self) -> "Border":
        """|A|' from the parts: its head rows are the head columns of |A|, and
        its head columns the head rows."""
        full_cols = self.cols.copy()
        full_cols[self.head] = self.rows[:, self.head]
        cols_t = np.abs(self.rows.T)
        cols_t[self.head] = 0.0
        return Border(self.head, np.abs(self.diag), np.abs(full_cols.T), cols_t)

    def __matmul__(self, M: np.ndarray) -> np.ndarray:
        """The product with a vector or an n x k block M."""
        out = self.cols @ M[self.head]
        out += (self.diag if M.ndim == 1 else self.diag[:, None]) * M
        out[self.head] = self.rows @ M
        return out


def taylor_degree(B: Border) -> tuple:
    """(m, s): degree m <= TAYLOR_MAX and squarings s for exp(A) = T_m(2^-s A)^(2^s).

    Since |A^j| <= |A|^j entrywise, ||exp(C) - T_m(C)||_1 <= sum_(j>m)
    p_j 2^(-sj) / j! for C = 2^-s A, with p_j = || |A|^j ||_1 the largest
    entry of (|A|')^j 1. The border B of A gives p_1 .. p_J for J =
    2 TAYLOR_MAX. Past J, p_(J+i) <= p_J p_i and (J+i)! >= (J+1) J! i! bound
    the remainder R by a (S + R), a = p_J 2^(-sJ) / (J+1)!, with S the sum of
    the first J terms, so R <= a S / (1 - a) when a < 1. The least s, then
    the least m, whose bound is at most the unit roundoff is taken. Once
    2^-s ||A||_1 <= 1, degree 18 meets it, so s never passes log2 ||A||_1.
    """
    abs_t = B.abs_transpose()
    terms = 2 * TAYLOR_MAX
    # log p_j, with v normalized to a largest entry of 1 after each product
    log_p = np.full(terms, -np.inf)
    v = np.ones(B.shape[0])
    acc = 0.0
    for i in range(terms):
        v = abs_t @ v
        top = float(np.max(v))
        if top == 0.0:
            break
        acc += math.log(top)
        log_p[i] = acc
        v /= top
    j = np.arange(1, terms + 1)
    log_fact = np.cumsum(np.log(j))
    for s in range(max(math.ceil(log_p[0] / math.log(2)), 0) + 1):
        log_terms = log_p - s * math.log(2) * j - log_fact
        log_a = log_terms[-1] - math.log(terms + 1)
        if log_a >= 0.0:
            continue
        a = math.exp(log_a)
        # a term too large for a double makes its bounds inf (or nan), which fit no m
        with np.errstate(over="ignore", invalid="ignore"):
            term = np.exp(log_terms)
            # bound[m] = sum_(j>m) p_j 2^(-sj) / j!, for m = 0 .. J-1
            bound = np.cumsum(term[::-1])[::-1] + a * np.sum(term) / (1.0 - a)
        fits = np.flatnonzero(bound[1 : TAYLOR_MAX + 1] <= UNIT_ROUNDOFF)
        if len(fits):
            return int(fits[0]) + 1, s
    raise AssertionError("unreachable: degree 18 fits once 2^-s ||A||_1 <= 1")


class Factored:
    """diag(lam) + Q diag(sig) W' with orthonormal n x r bases Q and W, or a
    plain n x n matrix.

    Q'Q = W'W = I is an invariant: `_cut` makes both bases from orthonormal
    ones, and `squared` extends them by block Gram-Schmidt. sig holds the
    singular values of the low-rank part, largest first. Where `expm` finds
    4r >= n, a product with the factors costs more than a dense one, and the
    matrix itself is held as `plain`, with lam, Q, sig and W None; `squared`
    keeps the form. `rank` is r, or n for a plain matrix.
    """

    def __init__(self, lam, Q, sig, W, plain=None):
        self.lam, self.Q, self.sig, self.W, self.plain = lam, Q, sig, W, plain
        self.rank = len(plain) if plain is not None else len(sig)

    def advance(self, X: np.ndarray, out=None) -> np.ndarray:
        """X @ M', written to `out` (not X): each row of X, or a vector X,
        times the matrix M."""
        if self.plain is not None:
            return np.matmul(X, self.plain.T, out=out)
        out = np.multiply(X, self.lam, out=out)
        out += ((X @ self.W) * self.sig) @ self.Q.T
        return out

    def squared(self) -> "Factored":
        """M @ M in the form of M: one product if plain, else in the carried bases.

        With L = diag(lam) and S = diag(sig),

            (L + Q S W')^2 = L^2 + [Q | L Q] C [W | L W]',  C = [[S (W'Q) S, S], [S, 0]].

        Only the new directions L Q and L W are orthogonalized, against Q and
        W (`_extended`), so each QR is of an n x r block; an SVD of the core,
        at most 2r x 2r, then cuts the result (`_cut`)."""
        if self.plain is not None:
            return Factored(None, None, None, None, plain=self.plain @ self.plain)
        lam, Q, sig, W = self.lam, self.Q, self.sig, self.W
        r = len(sig)
        if not r:
            return Factored(lam * lam, Q, sig, W)
        core = np.zeros((2 * r, 2 * r))
        core[:r, :r] = sig[:, None] * (W.T @ Q) * sig
        core[:r, r:] = core[r:, :r] = np.diag(sig)
        LQ, LW = lam[:, None] * Q, lam[:, None] * W
        Qx, Ru = _extended(Q, LQ)
        Wx, Rw = _extended(W, LW)
        return _cut(lam * lam, Qx, Ru @ core @ Rw.T, Wx)


def _extended(Q: np.ndarray, B: np.ndarray) -> tuple:
    """(X, R) with [Q | B] = X R and X = [Q | Q2] orthonormal, for orthonormal Q.

    Block Gram-Schmidt run twice ("twice is enough": Giraud, Langou &
    Rozloznik, Comput. Math. Appl. 50, 2005). B less its part Q Y in Q is
    factored by a QR of its r columns, Q2 R2. Where that remainder is
    nearly rank deficient, as it is once the span of Q holds directions
    that diag(lam) almost maps into itself, the columns of Q2 that carry
    its rounding error are not orthogonal to Q: overlaps reach 0.999 on the
    1020-dim `wide_sim` loop. So Q2 loses its part in Q too, and is made
    orthonormal again from the eigendecomposition of its r x r Gram matrix;
    a second pass follows when a kept eigenvalue is below 1/2, as Cholesky
    QR is repeated. A direction whose Gram eigenvalue is at rounding level
    lies inside Q, and R2 gives it weight at rounding level only; it is
    dropped, so Q2 may have fewer than r columns.
    """
    r = Q.shape[1]
    Y = Q.T @ B
    Q2, R2 = np.linalg.qr(B - Q @ Y)
    Z = Q.T @ Q2
    Q2 -= Q @ Z
    Y += Z @ R2
    for _ in range(2):
        d, V = np.linalg.eigh(Q2.T @ Q2)
        keep = d > GRAM_TOL
        root = np.sqrt(d[keep])
        Q2 = Q2 @ (V[:, keep] / root)
        R2 = (root[:, None] * V[:, keep].T) @ R2
        # one pass leaves an error of about the unit roundoff over the least
        # kept eigenvalue
        if np.all(d[keep] > 0.5):
            break
    R = np.zeros((r + len(R2), 2 * r))
    R[:r, :r] = np.eye(r)
    R[:r, r:] = Y
    R[r:, r:] = R2
    return np.hstack([Q, Q2]), R


def _all_nan(n: int) -> Factored:
    return Factored(np.full(n, np.nan), np.full((n, 1), np.nan), np.full(1, np.nan), np.full((n, 1), np.nan))


def _cut(lam: np.ndarray, Qu: np.ndarray, core: np.ndarray, Qv: np.ndarray) -> Factored:
    """diag(lam) + Qu core Qv' for orthonormal Qu and Qv, cut to its numerical rank r.

    The SVD of the small core gives the singular values; those at most the
    unit roundoff times max(max |lam|, the largest) are dropped. The result
    is factored whatever r is: only `expm` chooses the plain form. A
    non-finite core or lam gives an all-nan result.
    """
    if not (np.all(np.isfinite(core)) and np.all(np.isfinite(lam))):
        return _all_nan(len(lam))
    P, sig, Zt = np.linalg.svd(core)
    r = int(np.count_nonzero(sig > UNIT_ROUNDOFF * max(np.max(np.abs(lam)), sig[0])))
    return Factored(lam, Qu @ P[:, :r], sig[:r], Qv @ Zt[:r].T)


def _taylor_factors(C: Border, m: int) -> tuple:
    """(lam, U, V) with T_m(C) = diag(lam) + U V', U and V of width k(m+1).

    C = D + E R + K E' for its diagonal D (zero at the head), border rows R,
    head columns K and the identity columns E at the head. Since E' D = 0,
    telescoping C^j - D^j gives

        T_m(C) = T_m(D) + sum_(i<m) (C^i E)(R g_i(D)) + (sum_(i<m) C^i K / (i+1)!) E',

    g_i(x) = sum_(j=i+1..m) x^(j-1-i) / j!, so g_(m-1) = 1/m!, g_i = 1/(i+1)!
    + x g_(i+1) and T_m(x) = 1 + x g_0(x). The factors take 2m - 2 border
    products with n x k blocks.
    """
    n, k = C.shape[0], len(C.head)
    U = np.empty((n, k * (m + 1)))
    V = np.empty_like(U)
    head = np.zeros((n, k))
    head[C.head, np.arange(k)] = 1.0
    U[:, :k] = head
    for i in range(1, m):
        U[:, i * k : (i + 1) * k] = C @ U[:, (i - 1) * k : i * k]
    g = np.full(n, 1.0 / math.factorial(m))
    # Horner for sum_(i<m) C^i K / (i+1)!, beside g_i from i = m-1 down
    W = C.cols / math.factorial(m)
    for i in range(m - 1, -1, -1):
        V[:, i * k : (i + 1) * k] = C.rows.T * g[:, None]
        if i:
            g = 1.0 / math.factorial(i) + C.diag * g
            W = C.cols / math.factorial(i) + C @ W
    U[:, m * k :] = W
    V[:, m * k :] = head
    return 1.0 + C.diag * g, U, V


def expm(B: Border) -> Factored:
    """exp(A) of the matrix A whose parts B holds, as diag(lam) + U V'.

    When the parts hold no off-diagonal nonzero (1 x 1 included), exp of the
    diagonal is returned with empty factors. A non-finite entry gives an
    all-nan result, which the caller's finiteness checks report. Otherwise
    exp(A) = T_m(2^-s A)^(2^s): the Taylor polynomial from its factors
    (`_taylor_factors`), each dropped after its QR, cut to its rank r
    (`_cut`) and, the one choice of form, held plain from the uncut bases
    and core once 4r >= n; then s squarings in that form.
    """
    n = B.shape[0]
    if not all(np.all(np.isfinite(part)) for part in (B.diag, B.rows, B.cols)):
        return _all_nan(n)
    at_head = B.rows[np.arange(len(B.head)), B.head]
    if not np.any(B.cols) and np.count_nonzero(B.rows) == np.count_nonzero(at_head):
        diag = B.diag.copy()
        diag[B.head] = at_head
        return Factored(np.exp(diag), np.zeros((n, 0)), np.zeros(0), np.zeros((n, 0)))
    m, s = taylor_degree(B)
    lam, U, V = _taylor_factors(B.scaled(2.0**-s), m)
    Qu, Ru = np.linalg.qr(U)
    del U
    Qv, Rv = np.linalg.qr(V)
    del V
    core = Ru @ Rv.T
    E = _cut(lam, Qu, core, Qv)
    if 4 * E.rank >= n:
        M = (Qu @ core) @ Qv.T
        M.flat[:: n + 1] += lam
        E = Factored(None, None, None, None, plain=M)
    for _ in range(s):
        E = E.squared()
    return E
