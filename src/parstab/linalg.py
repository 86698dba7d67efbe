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


def pade_coefficients(m: int) -> list:
    """b_0..b_m of the [m/m] Pade approximant to exp, scaled to b_m = 1.

    b_j = (2m - j)! / (j! (m - j)!), exact integers rounded once to double
    (Higham, SIAM J. Matrix Anal. Appl. 26(4), 2005, eq. 2.2).
    """
    f = math.factorial
    return [float(f(2 * m - j) // (f(j) * f(m - j))) for j in range(m + 1)]


def _onenorm(M: np.ndarray) -> float:
    return float(np.max(np.sum(np.abs(M), axis=0)))


def _ell(A: np.ndarray, m: int, s: int = 0) -> int:
    """Extra squarings ell(2^-s A, m) of Al-Mohy & Higham 2009, eq. (5.5).

    alpha = |c_(2m+1)| ||(|B|)^(2m+1)||_1 / ||B||_1 for B = 2^-s A, with the
    exact 1-norm of the power of |B|, the largest entry of (|B|')^(2m+1) 1.
    Scaling by a power of two is exact, so B itself is never formed.
    """
    scale = 2.0**-s
    norm = _onenorm(A) * scale
    if norm == 0.0:
        return 0
    abs_t = np.abs(A).T
    v = np.ones(len(A))
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
    n2, n4, n6 = _onenorm(A2), _onenorm(A4), _onenorm(A6)
    d4, d6 = n4 ** 0.25, n6 ** (1 / 6)
    eta1 = max(d4, d6)
    for m in (3, 5):
        if eta1 <= THETA[m] and _ell(A, m) == 0:
            return m, 0
    d8 = (n2 * n6) ** 0.125
    eta3 = max(d6, d8)
    for m in (7, 9):
        if eta3 <= THETA[m] and _ell(A, m) == 0:
            return m, 0
    d10 = (n4 * n6) ** 0.1
    eta5 = min(eta3, max(d8, d10))
    s = 0 if eta5 == 0.0 else max(math.ceil(math.log2(eta5 / THETA[13])), 0)
    return 13, s + _ell(A, 13, s)


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


def expm(A) -> np.ndarray:
    """exp(A) of a real square matrix.

    A diagonal A gives exp of its diagonal directly; so does 1 x 1. A
    non-finite entry gives an all-nan result, which the caller's finiteness
    checks report.
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if A.ndim != 2 or A.shape[1] != n:
        raise ValueError(f"expm needs a square matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        return np.full((n, n), np.nan)
    if np.count_nonzero(A) == np.count_nonzero(np.diagonal(A)):
        return np.diag(np.exp(np.diagonal(A)))
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
    else:
        # inner_u = sum b_(2k+1) A^2k, V = sum b_2k A^2k over A^0 = I, A^2, ...
        powers = [A2, A4, A6][: m // 2]
        if m == 9:
            powers.append(A6 @ A2)
        inner_u = _combine([(b[2 * k + 3], P) for k, P in enumerate(powers)])
        V = _combine([(b[2 * k + 2], P) for k, P in enumerate(powers)])
        del powers
    del A2, A4, A6
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
