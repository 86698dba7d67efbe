"""Matrix exponential by scaling and squaring, on numpy alone.

`expm` follows Al-Mohy & Higham, "A new scaling and squaring algorithm for
the matrix exponential", SIAM J. Matrix Anal. Appl. 31(3), 2009, Algorithm
5.1: a diagonal [m/m] Pade approximant r_m of degree 3, 5, 7, 9 or 13 to
exp(2^-s A), squared s times. Degree and scaling come from the exact 1-norms
of A^2, A^4 and A^6, the bounds ||A^8|| <= ||A^2|| ||A^6|| and
||A^10|| <= ||A^4|| ||A^6||, and the extra squarings ell(A, m) that keep the
backward error of r_m at unit roundoff.

The dense work arrays are filled in place, so a degree-13 step holds at most
seven n x n arrays at once, the input included.

A matrix whose off-diagonal nonzeros all lie in a few rows and the columns
of the same indices (its border; `border_indices`) takes a second route. The
closed loop of `parstab.simulation` is one: off its diagonal, only the rows
and columns of the observer head are nonzero. Each product A @ M is then
formed from the diagonal, the border rows and the border columns in
O(n^2 k) for a border of k indices (`Border`), not O(n^3). The Pade sums are
built from the powers A^2, A^4, ..., A^12 of 2^-s A, each added as it is
formed and then overwritten by the next, so at most five n x n arrays are
held before the LU solve. Only the solve and the s squarings stay dense.
Rounding differs from the dense route in the last bits.
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
    `abs_t` is |A|' (an array or a `Border`) and `norm` is ||A||_1. Scaling by
    a power of two is exact, so B itself is never formed.
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


def pade_degree(A: np.ndarray, A2: np.ndarray, A4: np.ndarray, A6: np.ndarray, head=None) -> tuple:
    """(m, s): Pade degree and number of squarings for exp(A).

    Al-Mohy & Higham 2009, Algorithm 5.1, with exact 1-norms of A^2, A^4
    and A^6 and from them the product bounds on ||A^8|| and ||A^10||. With
    the border indices `head` of A, the products with |A|' of `_ell` are
    border products, since |A|' has its border at the same indices.
    """
    abs_t = np.abs(A).T
    if head is not None:
        abs_t = Border(abs_t, head)
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

    def __init__(self, A: np.ndarray, head: np.ndarray):
        self.head = head
        self.shape = A.shape
        self.diag = np.diagonal(A).copy()
        self.diag[head] = 0.0
        self.rows = A[head]
        self.cols = A[:, head]
        self.cols[head] = 0.0

    def scale(self, c: float) -> None:
        for part in (self.diag, self.rows, self.cols):
            part *= c

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


def _border_sums(A: np.ndarray, B: Border) -> tuple:
    """(m, s, inner_u, V) from border products, the identity terms left out.

    B holds the parts of A and is left scaled by 2^-s. Each even power of
    2^-s A is added to both sums as it is formed and then overwritten in
    place by the next one.
    """

    def times_a2(M, out):
        return B.matmul(B.matmul(M, out=out), out=out)

    A2 = B @ A
    A4 = times_a2(A2, out=np.empty_like(A2))
    A6 = times_a2(A4, out=np.empty_like(A4))
    m, s = pade_degree(A, A2, A4, A6, head=B.head)
    b = pade_coefficients(m)
    if s:
        B.scale(2.0**-s)
        A2 *= 2.0 ** (-2 * s)
        A4 *= 2.0 ** (-4 * s)
        A6 *= 2.0 ** (-6 * s)
    terms = m // 2  # the sums run over A^2, A^4, ..., A^(m-1)
    first = [A2, A4, A6][:terms]
    inner_u = _combine([(b[2 * k + 3], P) for k, P in enumerate(first)])
    V = _combine([(b[2 * k + 2], P) for k, P in enumerate(first)], out=A2)
    del first, A2, A4
    power = A6
    for k in range(4, terms + 1):
        times_a2(power, out=power)
        _combine([(b[2 * k + 1], power)], out=inner_u, add=True)
        _combine([(b[2 * k], power)], out=V, add=True)
    return m, s, inner_u, V


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix.

    A diagonal A gives exp of its diagonal directly; so does 1 x 1. A
    non-finite entry gives an all-nan result, which the caller's finiteness
    checks report. A matrix with a border (`border_indices`) forms its
    products from the border.
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
    if head is None:
        m, s, inner_u, V = _dense_sums(A)
    else:
        B = Border(A, head)
        m, s, inner_u, V = _border_sums(A, B)
    b = pade_coefficients(m)
    inner_u.flat[:: n + 1] += b[1]
    V.flat[:: n + 1] += b[0]
    if head is None:
        # U = (2^-s A) inner_u; scaling the product instead is exact and copies no A
        U = A @ inner_u
        if s:
            U *= 2.0**-s
    else:
        # B is already scaled by 2^-s
        U = B.matmul(inner_u, out=inner_u)
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
