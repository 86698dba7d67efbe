"""Matrix exponential by scaling and squaring, on numpy alone.

On a dense input `expm` follows Al-Mohy & Higham, "A new scaling and
squaring algorithm for the matrix exponential", SIAM J. Matrix Anal. Appl.
31(3), 2009, Algorithm 5.1: a diagonal [m/m] Pade approximant r_m of degree
3, 5, 7, 9 or 13 to exp(2^-s A), squared s times. Degree and scaling come
from the exact 1-norms of A^2, A^4 and A^6, the bounds
||A^8|| <= ||A^2|| ||A^6|| and ||A^10|| <= ||A^4|| ||A^6||, and the extra
squarings ell(A, m) that keep the backward error of r_m at unit roundoff.

The dense work arrays are filled in place, so a degree-13 step holds at most
seven n x n arrays at once, the input included.

A matrix whose off-diagonal nonzeros all lie in a few rows and the columns
of the same indices (its border; `border_indices`) takes the other route. The
closed loop of `parstab.simulation` is one: off its diagonal, only the rows
and columns of the observer head are nonzero. Each product A @ M is then
formed from the diagonal, the border rows and the border columns in
O(n^2 k) for a border of k indices (`Border`), not O(n^3), and exp(A) is the
truncated Taylor series T_m(2^-s A) evaluated by Horner's rule,
M <- I + (2^-s A / j) M for j = m, ..., 1, squared s times (Al-Mohy &
Higham, SIAM J. Sci. Comput. 33(2), 2011, truncate the Taylor series the
same way). `taylor_degree` picks m <= TAYLOR_MAX and s from a forward bound
on the truncation error built from the 1-norms of powers of |A|, which
matrix-vector products with the border parts of |A|' give, so no dense |A|
is formed. No LU solve is made, and the route holds one n x n array besides
its input until the squarings, which hold two.
"""

from __future__ import annotations

import math

import numpy as np

# largest eta = max(||A^2k||^(1/2k), ...) at which r_m is accurate to unit
# roundoff in double precision (Al-Mohy & Higham 2009, Table 3.1)
THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1, 7: 9.504178996162932e-1,
         9: 2.097847961257068, 13: 4.25}
UNIT_ROUNDOFF = 2.0**-53
# rows per slice when adding a multiple of one dense array to another
_ROWS = 64
# a border of more than n / BORDER_SHARE indices takes the dense route
BORDER_SHARE = 16
# highest Taylor degree of the border route. A Horner step costs O(n^2 k), a
# squaring O(n^3): with 30, 42 of 300 drawn bordered matrices squared more
# often than on the Pade route; with 40, none of 2700 did
TAYLOR_MAX = 40


def pade_coefficients(m: int) -> list:
    """b_0..b_m of the [m/m] Pade approximant to exp, scaled to b_m = 1.

    b_j = (2m - j)! / (j! (m - j)!), exact integers rounded once to double
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, eq. 2.2).
    """
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]


def _onenorm(M: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(M), axis=0)))


def _ell(abs_t, norm: float, m: int, s: int = 0) -> int:
    """Extra squarings ell(2^-s A, m) of Al-Mohy & Higham 2009, eq. (5.5).

    alpha = |c_(2m+1)| ||(|B|)^(2m+1)||_1 / ||B||_1 for B = 2^-s A, with the
    exact 1-norm of the power of |B|, the largest entry of (|B|')^(2m+1) 1.
    `abs_t` is |A|' and `norm` is ||A||_1. Scaling by a power of two is
    exact, so B itself is never formed.
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
    return max(math.ceil(math.log2(alpha / UNIT_ROUNDOFF) / (2 * m)), 0)


def pade_degree(A: np.ndarray, A2: np.ndarray, A4: np.ndarray, A6: np.ndarray) -> tuple:
    """(m, s): Pade degree and number of squarings for exp(A).

    Al-Mohy & Higham 2009, Algorithm 5.1, with exact 1-norms of A^2, A^4
    and A^6 and from them the product bounds on ||A^8|| and ||A^10||.
    """
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


def _combine(terms, out=None, add=False) -> np.ndarray:
    """sum of b * M over the (b, M) terms, written to `out` or added to it.

    One slice of rows at a time, so each M is read once and no full-size
    temporary is made.
    """
    if out is None:
        out = np.empty_like(terms[0][1])
    for i in range(0, len(out), _ROWS):
        rows = slice(i, i + _ROWS)
        acc = terms[0][0] * terms[0][1][rows]
        for b, M in terms[1:]:
            acc += b * M[rows]
        if add:
            out[rows] += acc
        else:
            out[rows] = acc
    return out


class Border:
    """A square matrix whose off-diagonal nonzeros lie in the rows and columns `head`.

    It is held as three parts: the diagonal off the head, the full head rows
    and the head columns without their head entries. A product with an n x n
    M then costs O(n^2 k) for k head indices.
    """

    def __init__(self, head: np.ndarray, diag: np.ndarray, rows: np.ndarray, cols: np.ndarray):
        self.head = head
        self.diag = diag
        self.rows = rows
        self.cols = cols
        self.shape = (len(diag), len(diag))

    @classmethod
    def of(cls, A: np.ndarray, head: np.ndarray) -> "Border":
        """The parts of A, which must have its border at `head`."""
        diag = np.diagonal(A).copy()
        diag[head] = 0.0
        cols = A[:, head]
        cols[head] = 0.0
        return cls(head, diag, A[head], cols)

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
        return self.matmul(M)

    def matmul(self, M: np.ndarray, out=None) -> np.ndarray:
        """The product with a vector or a matrix M, written to `out`, which may be M.

        A matrix goes one slice of rows at a time, like `_combine`, so no
        full-size temporary is made.
        """
        top = self.rows @ M
        at_head = M[self.head]
        diag = self.diag if M.ndim == 1 else self.diag[:, None]
        if out is None:
            out = np.empty_like(M)
        step = _ROWS if M.ndim == 2 else len(M)
        for i in range(0, len(M), step):
            part = slice(i, i + step)
            acc = self.cols[part] @ at_head
            acc += diag[part] * M[part]
            out[part] = acc
        out[self.head] = top
        return out


def border_indices(A: np.ndarray):
    """The indices of the border of square A, or None when it has none that pays.

    A border is a set of at most n / BORDER_SHARE indices whose rows and
    columns hold every off-diagonal nonzero of A. An index whose row or
    column holds more off-diagonal nonzeros than that bound must belong to
    it, so those indices are taken and checked to cover all of them.
    """
    most = len(A) // BORDER_SHARE
    if most == 0:
        return None
    off = A != 0
    np.fill_diagonal(off, False)
    in_row, in_col = off.sum(axis=1), off.sum(axis=0)
    head = np.flatnonzero((in_row > most) | (in_col > most))
    if not 0 < len(head) <= most:
        return None
    # nonzeros in the head rows or columns, the head block counted once
    covered = in_row[head].sum() + in_col[head].sum() - off[np.ix_(head, head)].sum()
    return head if covered == in_row.sum() else None


def _dense_sums(A: np.ndarray) -> tuple:
    """(m, s, inner_u, V) from dense products, the identity terms left out."""
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    m, s = pade_degree(A, A2, A4, A6)
    b = pade_coefficients(m)
    if m == 13:
        if s:
            A2 *= 2.0 ** (-2 * s)
            A4 *= 2.0 ** (-4 * s)
            A6 *= 2.0 ** (-6 * s)
        # U = A [A6 (b13 A6 + b11 A4 + b9 A2) + b7 A6 + b5 A4 + b3 A2 + b1 I]
        # V = A6 (b12 A6 + b10 A4 + b8 A2) + b6 A6 + b4 A4 + b2 A2 + b0 I
        W = _combine([(b[13], A6), (b[11], A4), (b[9], A2)])
        inner_u = A6 @ W
        _combine([(b[12], A6), (b[10], A4), (b[8], A2)], out=W)
        V = A6 @ W
        del W
        _combine([(b[7], A6), (b[5], A4), (b[3], A2)], out=inner_u, add=True)
        _combine([(b[6], A6), (b[4], A4), (b[2], A2)], out=V, add=True)
        return m, s, inner_u, V
    # inner_u = sum b_(2k+1) A^2k, V = sum b_2k A^2k over A^0 = I, A^2, ...
    powers = [A2, A4, A6][: m // 2]
    if m == 9:
        powers.append(A6 @ A2)
    inner_u = _combine([(b[2 * k + 3], P) for k, P in enumerate(powers)])
    V = _combine([(b[2 * k + 2], P) for k, P in enumerate(powers)])
    return m, s, inner_u, V


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


def _taylor(A: np.ndarray, head: np.ndarray) -> np.ndarray:
    """exp(A) = T_m(2^-s A)^(2^s) by Horner's rule on the border of A, then s squarings.

    Only the result is n x n until the squarings, each of which holds two.
    """
    B = Border.of(A, head)
    m, s = taylor_degree(B)
    n = len(A)
    X = np.eye(n)
    for j in range(m, 0, -1):
        B.scaled(2.0**-s / j).matmul(X, out=X)
        X.flat[:: n + 1] += 1.0
    del B
    for _ in range(s):
        X = X @ X
    return X


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix.

    A diagonal A gives exp of its diagonal directly; so does 1 x 1. A
    non-finite entry gives an all-nan result, which the caller's finiteness
    checks report. A matrix with a border (`border_indices`) takes the
    Taylor route on its border, any other the Pade route.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        return np.full((n, n), np.nan)
    if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
        return np.diag(np.exp(np.diagonal(A)))
    head = border_indices(A)
    if head is not None:
        return _taylor(A, head)
    m, s, inner_u, V = _dense_sums(A)
    b = pade_coefficients(m)
    inner_u.flat[:: n + 1] += b[1]
    V.flat[:: n + 1] += b[0]
    # U = (2^-s A) inner_u; scaling the product instead is exact and copies no A
    U = A @ inner_u
    if s:
        U *= 2.0**-s
    del inner_u
    # r_m = (V - U)^-1 (V + U)
    Q = V - U
    V += U
    del U
    X = np.linalg.solve(Q, V)
    del Q, V
    for _ in range(s):
        X = X @ X
    return X
