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

`tests/oracles.py` holds the per-mode and tensor-grid forms of these maps
that the tests check `LiftingContext` against, beside closed forms and an
independent elliptic solve. The context also samples the head traces on a
face rule; the simulation's projection check sums their Gram there, against
the closed-form `head_gram` the design uses.
"""

from __future__ import annotations

import math

import numpy as np

from .spectral_basis import (
    ModeTable,
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


class LiftingContext:
    """Trace Gram columns and eigenvalues for one mode table.

    Holds everything the certification sums need: the tall cross-Gram
    column block `cross_cols`, <trace_n, trace_l> for all enumerated n
    against head l, in closed form by `trace_cross_gram` (no face grid, so
    the work is O(M n0) in any dimension), its first n0 rows as the head
    Gram `head_gram`, and the eigenvalues. `quad` and `traces` are the head
    modes' traces sampled on a face rule sized to the head wavenumbers, for
    the simulation's projection check; a non-finite sample raises
    FloatingPointError.
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
        self.traces = trace_matrix(head, self.quad)
        if not np.all(np.isfinite(self.traces)):
            raise FloatingPointError("non-finite trace samples on the face grid")
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


def default_tail(N: int) -> int:
    return max(4 * N, 400)


def tail_cap(N: int) -> int:
    return max(16 * N, default_tail(N))
