"""Modal boundary-lifting coefficients and face Gram matrices.

Dirichlet data on the control face enters the modal ODE system through two
ingredients computed here without ever solving an elliptic problem:

  * resolvent-like coefficients p_n(gamma) that turn a face inner product
    <v, trace_n> into the mode-n component of the lifted interior function,
  * Gram matrices of conormal traces over the control face, in closed form:
    a trace is a product over the in-face axes, so each face inner product
    is a product of 1-D integrals of e^{b s} sin sin (`trace_cross_gram`),
    and no face grid is built for them in any dimension.

The coefficient sign convention is load-bearing. For head modes (n <= N0)
the denominator is (gamma - lam_n - eta * [n == 2]) while for tail modes it
is (gamma + lam_n); both carry a leading minus sign. The split comes from the
frequency-shifted elliptic problems used on either side of N0.
`shift_denominators` is the one place that formula and its admissibility
check live; every lifting map in the package is built from it.

`build_projection_table`, `lifted_projection`, `gram_matrix` and
`boundary_inner` are per-mode and pairwise forms of what `LiftingContext`
computes in blocks. They are kept on purpose as the oracles the tests check
against closed forms and an independent elliptic solve; `gram_matrix` is the
tensor-grid form of the head Gram. The simulation's projection check sums
its own face inner products on a separate grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectral_basis import (
    ModeTable,
    Quadrature,
    face_quadrature,
    in_face_axes,
    max_wavenumber,
    trace_leads,
    trace_matrix,
)


class AdmissibilityError(ValueError):
    """A shift gamma collides with a (possibly eta-shifted) eigenvalue."""


# a lifting denominator at most this far from zero makes gamma inadmissible
ADMISSIBLE_TOL = 1e-9


def shift_denominators(gamma, lams, *, n0=0, eta=0.0, first=1, strict=True):
    """Lifting denominators of modes first, first+1, ... with eigenvalues lams.

    Head modes n <= n0 get gamma - lam_n - eta*[n == 2], tail modes
    gamma + lam_n. A denominator within ADMISSIBLE_TOL of zero raises
    AdmissibilityError naming the first such 1-based mode index, or with
    `strict=False` comes back as nan.
    """
    lams = np.asarray(lams, dtype=float)
    n = np.arange(first, first + len(lams))
    dens = np.where(n <= n0, gamma - lams, gamma + lams)
    if n0 >= 2:
        dens[n == 2] -= eta
    bad = np.abs(dens) <= ADMISSIBLE_TOL
    if strict and bad.any():
        i = int(np.argmax(bad))
        raise AdmissibilityError(
            f"gamma={gamma} hits eigenvalue index {first + i} "
            f"(denominator {dens[i]:.3e})"
        )
    dens[bad] = np.nan
    return dens


def trace_cross_gram(rows: ModeTable, cols: ModeTable) -> np.ndarray:
    """Face inner products <trace_n, trace_l> for modes n in rows, l in cols.

    A conormal trace is its lead (`trace_leads`) times one factor
    sqrt(2/l_i) e^{b_i s/2} sin(p pi s/l_i) per in-face axis i, so with
    p, q the two modes' indices on that axis

        <trace_n, trace_l> = lead_n lead_l prod_i (2/l_i) I_i,
        I_i = int_0^l e^{b s} sin(p w s) sin(q w s) ds,   w = pi/l.

    With J(m) = int_0^l e^{b s} cos(m w s) ds = b((-1)^m e^{bl} - 1)/(b^2 + (m w)^2),
    I = (J(|p-q|) - J(p+q))/2, written over one denominator so that large
    p, q do not cancel:

        p != q:  I = 2 b E p q w^2 / ((b^2 + (|p-q| w)^2)(b^2 + ((p+q) w)^2))
        p == q:  I = (expm1(bl)/(2b)) (2p w)^2 / (b^2 + (2p w)^2)

    where E = expm1(bl) if p - q is even and -(e^{bl} + 1) if odd; with b = 0,
    I is l/2 on p == q and 0 elsewhere. Entries are elementwise, so the
    result does not depend on how many modes are asked for at once, and a
    square block over one mode list is exactly symmetric. Returns a
    (len(rows), len(cols)) array; a non-finite entry (drift too strong for
    double precision) raises FloatingPointError.
    """
    plant = rows.plant
    kr, kc = rows.ks, cols.ks
    out = np.multiply.outer(trace_leads(plant, kr), trace_leads(plant, kc))
    for ax in in_face_axes(plant):
        b, length = plant.drift[ax], plant.lengths[ax]
        p = kr[:, ax, None]
        q = kc[None, :, ax]
        same = p == q
        if b == 0.0:
            out *= np.where(same, 1.0, 0.0)
            continue
        w = math.pi / length
        bl = b * length
        b2 = b * b
        om1 = (np.abs(p - q) * w) ** 2
        om2 = ((p + q) * w) ** 2
        # overflow and the unused p == q slots of `off` show up as inf or
        # nan, which the finiteness check below reports
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            E = np.where((p - q) % 2 == 0, np.expm1(bl), -(np.exp(bl) + 1.0))
            off = b * E * (4 * p * q) * (w * w) / (length * ((b2 + om1) * (b2 + om2)))
            on = (np.expm1(bl) / bl) * (om2 / (b2 + om2))
            out *= np.where(same, on, off)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("non-finite face inner products of the traces")
    return out


def lambda_gamma(gamma: float, eta: float, unstable_lambdas) -> np.ndarray:
    """Diagonal head-mode lifting matrix diag(1/(gamma - lam_n - eta*[n==2])).

    Raises AdmissibilityError when gamma hits a shifted head eigenvalue.
    """
    n0 = len(unstable_lambdas)
    return np.diag(1.0 / shift_denominators(gamma, unstable_lambdas, n0=n0, eta=eta))


@dataclass(frozen=True)
class LiftedProjectionTable:
    """Per-mode lifting coefficients p_n for one shift gamma.

    coeffs[i] holds p_{i+1}; valid[i] is False where the denominator was too
    close to zero to trust (the coefficient is set to nan there).
    """

    gamma: float
    eta: float
    n0: int
    coeffs: np.ndarray
    valid: np.ndarray


def build_projection_table(gamma: float, eta: float, eigs: ModeTable, n0: int) -> LiftedProjectionTable:
    dens = shift_denominators(gamma, eigs.lams, n0=n0, eta=eta, strict=False)
    valid = ~np.isnan(dens)
    return LiftedProjectionTable(gamma=gamma, eta=eta, n0=n0, coeffs=-1.0 / dens, valid=valid)


def lifted_projection(table: LiftedProjectionTable, boundary_inner_value: float, n: int) -> float:
    """Mode-n component p_n * <v, trace_n> of the lifted function; n is 1-based."""
    if not (1 <= n <= len(table.coeffs)):
        raise IndexError(f"mode index {n} outside table of size {len(table.coeffs)}")
    if not table.valid[n - 1]:
        raise AdmissibilityError(
            f"table invalid at mode {n}: gamma={table.gamma} too close to the "
            "shifted eigenvalue"
        )
    return float(table.coeffs[n - 1] * boundary_inner_value)


def check_gamma_admissible(gamma, eta, lams, n0, n_tail):
    """Raise unless gamma clears every shifted eigenvalue up to n_tail.

    The exact rule is an infinite family of non-collisions; modes beyond
    n_tail are covered in practice because the ladder values sit far below
    lam_{n_tail}. Checked indices are 1-based in the error message.
    """
    shift_denominators(gamma, np.asarray(lams)[:n_tail], n0=n0, eta=eta)


def boundary_inner(quad: Quadrature, f_samples, g_samples) -> float:
    """Face inner product of two sample vectors on a shared quadrature rule.

    For d=1 the rule is the single face point with unit weight, so this
    degenerates to a product of endpoint values.
    """
    f = np.asarray(f_samples, dtype=float)
    g = np.asarray(g_samples, dtype=float)
    if f.shape != quad.weights.shape or g.shape != quad.weights.shape:
        raise ValueError("sample vectors do not match the quadrature grid")
    return float(np.sum(quad.weights * f * g))


def _finite_traces(eigs, quad: Quadrature) -> np.ndarray:
    traces = trace_matrix(eigs, quad)
    if not np.all(np.isfinite(traces)):
        raise FloatingPointError("non-finite trace samples on the face grid")
    return traces


def gram_matrix(eigs: ModeTable, n0: int, quad: Quadrature = None) -> np.ndarray:
    """Head-mode trace Gram B[k][l] = <trace_k, trace_l> on the control face.

    Entries are computed once per unordered pair and mirrored, so the result
    is symmetric by construction rather than by accident of rounding.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    if quad is None:
        quad = face_quadrature(eigs.plant, max_wavenumber(eigs[:n0]), rows=n0)
    traces = _finite_traces(eigs[:n0], quad)
    out = np.empty((n0, n0))
    for k in range(n0):
        for l in range(k, n0):
            val = boundary_inner(quad, traces[k], traces[l])
            out[k, l] = val
            out[l, k] = val
    return out


class LiftingContext:
    """Trace Gram columns and eigenvalues for one mode table.

    Holds everything the certification sums need: the tall cross-Gram
    column block `cross_cols`, <trace_n, trace_l> for all enumerated n
    against head l, in closed form by `trace_cross_gram` (no face grid, so
    the work is O(M n0) in any dimension), its first n0 rows as the head
    Gram `head_gram`, and the eigenvalues. `quad` and `traces` are the head
    modes' traces sampled on a face rule sized to the head wavenumbers, for
    callers that want the control as a function on the face.
    """

    def __init__(self, eigs: ModeTable, n0: int):
        if n0 < 1 or n0 > len(eigs):
            raise ValueError("n0 out of range")
        self.eigs = eigs
        self.n0 = n0
        self.plant = eigs.plant
        self.lams = eigs.lams
        head = eigs[:n0]
        self.quad = face_quadrature(self.plant, max_wavenumber(head), rows=n0)
        self.traces = _finite_traces(head, self.quad)
        # (M, n0): row n, column l holds <trace_{n+1}, trace_{l+1}>
        self.cross_cols = trace_cross_gram(self.eigs, head)
        self.head_gram = self.cross_cols[:n0].copy()

    def residual_terms(self, gamma: float, l: int, N: int, N_tail: int) -> np.ndarray:
        """Per-mode squared terms (<trace_l, trace_n>/(gamma+lam_n))^2, n=N+1..N_tail."""
        if N_tail < N:
            raise ValueError(f"N_tail={N_tail} must be at least N={N}")
        if N_tail > len(self.eigs):
            raise ValueError(
                f"context holds {len(self.eigs)} modes, N_tail={N_tail} requested"
            )
        if not (1 <= l <= self.n0):
            raise ValueError(f"l={l} is not a head mode index")
        dens = shift_denominators(gamma, self.lams[N:N_tail], first=N + 1)
        return (self.cross_cols[N:N_tail, l - 1] / dens) ** 2

    def residual_norm_sq(self, gamma: float, l: int, N: int, N_tail: int) -> float:
        """Truncated squared tail norm of the lifted head trace l.

        Summation runs in ascending mode order for bit-stable results. An
        empty range (N_tail == N) returns exactly 0.
        """
        terms = self.residual_terms(gamma, l, N, N_tail)
        return float(np.add.reduce(terms))


def default_tail(N: int) -> int:
    return max(4 * N, 400)


def tail_cap(N: int) -> int:
    return max(16 * N, default_tail(N))
