"""Modal boundary-lifting coefficients and face Gram matrices.

Dirichlet data on the control face enters the modal ODE system through two
ingredients computed here without ever solving an elliptic problem:

  * resolvent-like coefficients p_n(gamma) that turn a face inner product
    <v, trace_n> into the mode-n component of the lifted interior function,
  * Gram matrices of conormal traces over the control face.

The coefficient sign convention is load-bearing. For head modes (n <= N0)
the denominator is (gamma - lam_n - eta * [n == 2]) while for tail modes it
is (gamma + lam_n); both carry a leading minus sign. The split comes from the
frequency-shifted elliptic problems used on either side of N0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral_basis import (
    Quadrature,
    face_quadrature,
    max_wavenumber,
    trace_matrix,
)


# modes whose face traces are sampled at a time while filling cross_cols
TRACE_CHUNK = 256


class AdmissibilityError(ValueError):
    """A shift gamma collides with a (possibly eta-shifted) eigenvalue."""


def head_denominator(gamma: float, lam: float, position: int, eta: float) -> float:
    """Denominator for head mode at 1-based `position`; eta shifts position 2."""
    return gamma - lam - (eta if position == 2 else 0.0)


def lambda_gamma(gamma: float, eta: float, unstable_lambdas, tol: float = 1e-9) -> np.ndarray:
    """Diagonal head-mode lifting matrix diag(1/(gamma - lam_n - eta*[n==2])).

    Raises AdmissibilityError naming the first offending 1-based index when a
    denominator falls below `tol` in magnitude.
    """
    lams = np.asarray(unstable_lambdas, dtype=float)
    dens = np.array(
        [head_denominator(gamma, lam, i + 1, eta) for i, lam in enumerate(lams)]
    )
    bad = np.nonzero(np.abs(dens) <= tol)[0]
    if bad.size:
        raise AdmissibilityError(
            f"gamma={gamma} hits eigenvalue index {bad[0] + 1} "
            f"(denominator {dens[bad[0]]:.3e})"
        )
    return np.diag(1.0 / dens)


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


def build_projection_table(
    gamma: float, eta: float, eigs, n0: int, tol: float = 1e-9
) -> LiftedProjectionTable:
    lams = np.array([e.lam for e in eigs])
    dens = np.empty(len(eigs))
    for i, lam in enumerate(lams):
        if i < n0:
            dens[i] = head_denominator(gamma, lam, i + 1, eta)
        else:
            dens[i] = gamma + lam
    valid = np.abs(dens) > tol
    coeffs = np.full(len(eigs), np.nan)
    coeffs[valid] = -1.0 / dens[valid]
    return LiftedProjectionTable(gamma=gamma, eta=eta, n0=n0, coeffs=coeffs, valid=valid)


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


def check_gamma_admissible(gamma, eta, lams, n0, n_tail, tol: float = 1e-9):
    """Raise unless gamma clears every shifted eigenvalue up to n_tail.

    The exact rule is an infinite family of non-collisions; modes beyond
    n_tail are covered in practice because the ladder values sit far below
    lam_{n_tail}. Checked indices are 1-based in the error message.
    """
    lams = np.asarray(lams, dtype=float)[:n_tail]
    for i, lam in enumerate(lams):
        den = head_denominator(gamma, lam, i + 1, eta) if i < n0 else gamma + lam
        if abs(den) <= tol:
            raise AdmissibilityError(
                f"gamma={gamma} inadmissible at mode {i + 1} (denominator {den:.3e})"
            )


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


def gram_matrix(eigs, n0: int, quad: Quadrature = None) -> np.ndarray:
    """Head-mode trace Gram B[k][l] = <trace_k, trace_l> on the control face.

    Entries are computed once per unordered pair and mirrored, so the result
    is symmetric by construction rather than by accident of rounding.
    """
    if n0 < 1:
        raise ValueError("n0 must be at least 1")
    plant = eigs[0].plant
    if quad is None:
        quad = face_quadrature(plant, max_wavenumber(eigs[:n0]))
    traces = _finite_traces(eigs[:n0], quad)
    out = np.empty((n0, n0))
    for k in range(n0):
        for l in range(k, n0):
            val = boundary_inner(quad, traces[k], traces[l])
            out[k, l] = val
            out[l, k] = val
    return out


class LiftingContext:
    """Head trace samples and Gram columns for one mode list.

    Holds everything the certification sums need: the head Gram, the tall
    cross-Gram column block <trace_n, trace_l> for all enumerated n against
    head l, and eigenvalues. `traces` keeps only the n0 head rows; the other
    modes' traces are sampled TRACE_CHUNK modes at a time and dropped once
    their cross-Gram rows are filled. `extra_panels` offsets the panel count
    so a second context can serve as an independent-grid cross-check.
    """

    def __init__(self, eigs, n0: int, extra_panels: int = 0):
        if n0 < 1 or n0 > len(eigs):
            raise ValueError("n0 out of range")
        self.eigs = list(eigs)
        self.n0 = n0
        self.plant = eigs[0].plant
        self.lams = np.array([e.lam for e in self.eigs])
        self.quad = face_quadrature(self.plant, max_wavenumber(self.eigs), extra_panels)
        self.traces = _finite_traces(self.eigs[:n0], self.quad)
        # (M, n0): row n, column l holds <trace_{n+1}, trace_{l+1}>
        self.cross_cols = np.empty((len(self.eigs), n0))
        for start in range(0, len(self.eigs), TRACE_CHUNK):
            stop = start + TRACE_CHUNK
            rows = _finite_traces(self.eigs[start:stop], self.quad)
            self.cross_cols[start:stop] = (rows * self.quad.weights) @ self.traces.T
        self.head_gram = gram_matrix(self.eigs, n0, self.quad)

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
        sl = slice(N, N_tail)
        dens = gamma + self.lams[sl]
        if np.any(np.abs(dens) <= 1e-9):
            raise AdmissibilityError(f"gamma={gamma} hits a tail eigenvalue in the sum")
        return (self.cross_cols[sl, l - 1] / dens) ** 2

    def residual_norm_sq(self, gamma: float, l: int, N: int, N_tail: int) -> float:
        """Truncated squared tail norm of the lifted head trace l.

        Summation runs in ascending mode order for bit-stable results. An
        empty range (N_tail == N) returns exactly 0.
        """
        terms = self.residual_terms(gamma, l, N, N_tail)
        return float(np.add.reduce(terms))


def residual_norm_sq(context: LiftingContext, gamma: float, l: int, N: int, N_tail: int) -> float:
    return context.residual_norm_sq(gamma, l, N, N_tail)


def default_tail(N: int) -> int:
    return max(4 * N, 400)


def tail_cap(N: int) -> int:
    return max(16 * N, default_tail(N))
