"""Matrix exponential of a bordered matrix, on numpy alone.

A `Border` is a square matrix whose off-diagonal nonzeros all lie in a few
rows and the columns of the same indices, its head. The closed loop of
`parstab.simulation` is one: off its diagonal, only the rows and columns of
the observer head are nonzero, and `ClosedLoop.border` builds those parts
directly. Any square matrix is a border of all its indices
(`Border.of(A, np.arange(n))`). Each product A @ M is formed from the
diagonal, the border rows and the border columns in O(n^2 k) for a border of
k indices, not O(n^3), and exp(A) is the truncated Taylor series T_m(2^-s A)
evaluated by Horner's rule, M <- I + (2^-s A / j) M for j = m, ..., 1,
squared s times (Al-Mohy & Higham, SIAM J. Sci. Comput. 33(2), 2011,
truncate the Taylor series the same way). `taylor_degree` picks
m <= TAYLOR_MAX and s from a forward bound on the truncation error built
from the 1-norms of powers of |A|, which matrix-vector products with the
border parts of |A|' give, so no dense |A| is formed. No LU factorization
is made, and `expm` holds one n x n array until the squarings, which hold two.
"""

from __future__ import annotations

import math

import numpy as np

UNIT_ROUNDOFF = 2.0**-53
# rows per slice of a border product
_ROWS = 64
# highest Taylor degree. A Horner step costs O(n^2 k), a squaring O(n^3):
# with 30, 42 of 300 drawn bordered matrices squared more often than the
# rational scaling and squaring of Al-Mohy & Higham (SIAM J. Matrix Anal.
# Appl. 31(3), 2009) would; with 40, none of 2700 did
TAYLOR_MAX = 40


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
        return self.matmul(M)

    def matmul(self, M: np.ndarray, out=None) -> np.ndarray:
        """The product with a vector or a matrix M, written to `out`, which may be M.

        A matrix goes one slice of rows at a time, so no full-size temporary
        is made.
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


def expm(B: Border) -> np.ndarray:
    """exp(A) of the matrix A whose parts B holds.

    When the parts hold no off-diagonal nonzero (1 x 1 included), exp of the
    diagonal is returned directly. A non-finite entry gives an all-nan
    result, which the caller's finiteness checks report. Otherwise
    exp(A) = T_m(2^-s A)^(2^s) by Horner's rule on the border, then s
    squarings; only the result is n x n until the squarings, each of which
    holds two.
    """
    n = B.shape[0]
    if not all(np.all(np.isfinite(part)) for part in (B.diag, B.rows, B.cols)):
        return np.full((n, n), np.nan)
    at_head = B.rows[np.arange(len(B.head)), B.head]
    if not np.any(B.cols) and np.count_nonzero(B.rows) == np.count_nonzero(at_head):
        diag = B.diag.copy()
        diag[B.head] = at_head
        return np.diag(np.exp(diag))
    m, s = taylor_degree(B)
    X = np.eye(n)
    for j in range(m, 0, -1):
        B.scaled(2.0**-s / j).matmul(X, out=X)
        X.flat[:: n + 1] += 1.0
    for _ in range(s):
        X = X @ X
    return X
