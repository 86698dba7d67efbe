"""Lyapunov decay certificates for the synthesized closed loop.

A certificate at truncation size N consists of the solution P of the
shifted Lyapunov equation F'P + PF + 2*delta*P = -I together with three
tail sums (S1, S2, Sphi) that bound the influence of the modes the
controller never sees. Two scalar checks close the argument: the bordered
matrix Theta1 must be negative semidefinite and the tail decay bound Theta2
must be nonpositive. The certifier doubles N until both hold or a budget
runs out, returning an honest failure record in the latter case.

P comes from a block back-substitution on F's structure (a dense head of
2*N0 rows over a diagonal tail), in numpy alone. Every sum in P, and in the
P F product of Theta1, runs over the head rows only, so those bytes do not
depend on the BLAS thread count. The two dense LAPACK steps, the
eigenvalues of Theta1 and the 2-norm of P, run on one BLAS thread
(`linalg.one_blas_thread`), so `certificate.json` does not depend on it
either. A `Certificate` keeps P's 2-norm, not P;
`solve_lyapunov` gives P again from the design.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from . import lifting
from .linalg import one_blas_thread
from .spectral_basis import ModeTable, eval_phi, riesz_constants
from .synthesis import SynthesisArtifacts, abscissa

log = logging.getLogger(__name__)

NEG_SLACK = 1e-9  # absolute slack on "<= 0" checks
LYAP_RESIDUAL_TOL = 1e-8


class CertificationError(RuntimeError):
    pass


class NotYetCertifiable(CertificationError):
    """Precondition tied to N failed; a larger N may fix it."""


def solve_lyapunov(F: np.ndarray, delta: float, h: int) -> np.ndarray:
    """P solving F'P + PF + 2*delta*P = -I, symmetric positive definite.

    F is block upper triangular with a dense head of h rows (`assemble_F`
    gives h = 2*N0) and a diagonal tail D, so with F_s = F + delta*I =
    [[H, B], [0, D]] the equation splits by block back-substitution
    (Bartels & Stewart, Comm. ACM 15(9), 1972, with the triangular form given):
    - H'P11 + P11 H = -I, solved in its Kronecker form;
    - (H' + d_j I) P12[:, j] = -(P11 B)[:, j], one h x h solve per tail column;
    - P22 = -(I + B'P12 + P12'B) / (d_i + d_j), elementwise.
    The Kronecker system has h^2 unknowns; an h below F's head fails the
    residual check.
    """
    F = np.asarray(F, dtype=float)
    spectral = abscissa(F)
    if spectral >= -delta:
        raise CertificationError(
            f"F + {delta}*I is not Hurwitz (abscissa {spectral:.4f}), "
            "no certificate exists"
        )
    n = F.shape[0]
    shifted = F + delta * np.eye(n)
    H, B, d = shifted[:h, :h], shifted[:h, h:], np.diagonal(shifted)[h:]
    eye_h = np.eye(h)
    # row-major vec: vec(H'X) = (H' kron I) vec(X), vec(XH) = (I kron H') vec(X)
    kron = np.kron(H.T, eye_h) + np.kron(eye_h, H.T)
    P11 = np.linalg.solve(kron, -eye_h.ravel()).reshape(h, h)
    heads = H.T[None, :, :] + d[:, None, None] * eye_h
    P12 = np.linalg.solve(heads, -(P11 @ B).T[:, :, None])[:, :, 0].T
    cross = B.T @ P12
    P22 = -(np.eye(n - h) + cross + cross.T) / (d[:, None] + d[None, :])
    P = np.block([[P11, P12], [P12.T, P22]])
    P = 0.5 * (P + P.T)
    residual = F.T @ P + P @ F + 2.0 * delta * P + np.eye(n)
    res = float(np.max(np.abs(residual)))
    if res >= LYAP_RESIDUAL_TOL:
        raise CertificationError(f"Lyapunov residual {res:.3e} too large")
    if float(np.min(np.linalg.eigvalsh(P))) <= 0.0:
        raise CertificationError("Lyapunov solution not positive definite")
    return P


def tail_pair_sums(artifacts: SynthesisArtifacts, N: int, N_tail: int) -> list:
    """(gamma_k, lift_kl^2 |A_l|^2, sum over n = N+1..N_tail in that order of
    (<trace_l, trace_n>/(gamma_k + lam_n))^2) of each (k, l) pair of the S1/S2
    sums, in order k, then l; every term is formed on its own element."""
    m, ctx = artifacts, artifacts.context
    if N_tail < N:
        raise ValueError(f"N_tail={N_tail} must be at least N={N}")
    if N_tail > len(ctx.eigs):
        raise ValueError(f"context holds {len(ctx.eigs)} modes, N_tail={N_tail} requested")
    cols, A = ctx.cross_cols[N:N_tail], m.gram_inverse
    sums = []
    for k, gamma in enumerate(m.gammas):
        lift = m.head_lifts[k]
        dens = lifting.shift_denominators(gamma, ctx.lams[N:N_tail], first=N + 1)
        for l in range(m.n0):
            weight = lift[l] ** 2 * float(A[l] @ A[l])
            sums.append((gamma, weight, float(np.add.reduce((cols[:, l] / dens) ** 2))))
    return sums


def compute_S1(artifacts: SynthesisArtifacts, pair_sums: list) -> float:
    """Tail coupling sum: c1 times the `tail_pair_sums`, each weighted with gamma_k^2."""
    c1, _ = riesz_constants(artifacts.plant)
    return c1 * sum(w * gamma**2 * s for gamma, w, s in pair_sums)


def compute_S2(artifacts: SynthesisArtifacts, pair_sums: list) -> float:
    """Same sum as compute_S1 without the gamma_k^2 factor."""
    c1, _ = riesz_constants(artifacts.plant)
    return c1 * sum(w * s for _, w, s in pair_sums)


def sphi_terms(eigs: ModeTable, xi1, xi2, N: int, N_tail: int, nu: float) -> np.ndarray:
    """Per-mode sensor tail terms (phi_n(xi1)^2 + phi_n(xi2)^2)/(lam_n+nu)^2."""
    if N_tail < N:
        raise ValueError("N_tail must be at least N")
    if N_tail > len(eigs):
        raise ValueError(f"only {len(eigs)} modes available, N_tail={N_tail}")
    tail = eigs[N:N_tail]
    lams = tail.lams
    if np.any(lams + nu <= 0):
        raise ValueError("lam_n + nu must be positive beyond N")
    vals = eval_phi(tail, np.vstack([xi1, xi2]))
    return (vals[:, 0] ** 2 + vals[:, 1] ** 2) / (lams + nu) ** 2


def compute_Sphi(phi: np.ndarray) -> float:
    """Sensor tail sum: the sum of the per-mode terms `choose_tail` returns."""
    return float(np.add.reduce(phi))


def eta_cert_rule(S_phi: float, N: int) -> float:
    """Border weight 1/sqrt(Sphi), with N standing in when the tail is empty."""
    return float(N) if S_phi == 0.0 else 1.0 / math.sqrt(S_phi)


def _young_weight(n0: int) -> float:
    """eps = 2*N0^2, the one Young weight of the certificate (S1, S2, `check_psi`)."""
    return 2.0 * n0**2


def theta1_matrix(P, artifacts: SynthesisArtifacts, S1, S2, eta_cert) -> np.ndarray:
    """The bordered certificate matrix Theta1, symmetric; eps = 2*N0^2.

    Layout: state block of size n_F = 2*N0 + (N - N0) bordered by the two
    output channels. E1 picks the observer head out of the state; E2 is the
    head rows of the full loop including the input channel, the first N0
    rows of F beside those of G: [gain block, L C0, L C1t, L].
    """
    m = artifacts
    F, G, P = m.closed_loop, m.stacked_gain, np.asarray(P, dtype=float)
    n_F = F.shape[0]
    n0 = m.n0
    eps = _young_weight(n0)
    if P.shape != F.shape:
        raise ValueError("P and F dimensions differ")
    E1 = np.zeros((n0, n_F))
    E1[:, :n0] = np.eye(n0)
    E2 = np.hstack([F[:n0], G[:n0]])
    # P @ F from F's blocks (dense head of h = 2*N0 rows, diagonal tail):
    # every sum runs over the h head rows only, so its bytes do not depend
    # on how BLAS splits the work; F'P is its transpose, P being symmetric
    h = 2 * n0
    PF = np.empty_like(P)
    PF[:, :h] = P[:, :h] @ F[:h, :h]
    PF[:, h:] = P[:, :h] @ F[:h, h:] + P[:, h:] * np.diagonal(F)[h:]
    top = PF.T + PF + 2.0 * m.delta * P + eps * S1 * (E1.T @ E1)
    theta = np.zeros((n_F + 2, n_F + 2))
    theta[:n_F, :n_F] = top
    theta[:n_F, n_F:] = P @ G
    theta[n_F:, :n_F] = G.T @ P
    theta[n_F:, n_F:] = -eta_cert * np.eye(2)
    theta += eps * S2 * (E2.T @ E2)
    return 0.5 * (theta + theta.T)


def check_theta1(P, artifacts: SynthesisArtifacts, S1, S2, eta_cert) -> float:
    """Largest eigenvalue of the bordered certificate matrix `theta1_matrix`."""
    theta = theta1_matrix(P, artifacts, S1, S2, eta_cert)
    # on two threads the eigenvalues of a 245-dim Theta1 differ in the last bit
    with one_blas_thread():
        return float(np.max(np.linalg.eigvalsh(theta)))


def check_psi(lambda_next, nu, delta, eta_cert, S_phi) -> float:
    """Tail decay bound Theta2 = -lambda_{N+1}/2 + 3*nu/2 + 2*delta.

    Before returning, the per-mode slope -2*(1 - N0^2/eps) + eta_cert*S_phi
    must clear -1/2. With the certificate's eps = 2*N0^2 the slope is
    eta_cert*S_phi - 1, so the check is eta_cert*S_phi <= 1/2. Violation
    means N is not yet large enough.
    """
    if lambda_next <= 0:
        raise NotYetCertifiable(
            f"lambda_(N+1) = {lambda_next} not positive; N below the unstable range"
        )
    slope = eta_cert * S_phi - 1.0
    if slope > -0.5 + NEG_SLACK:
        raise NotYetCertifiable(
            f"tail slope {slope:.4f} exceeds -1/2 (eta_cert*S_phi = "
            f"{eta_cert * S_phi:.4f} > 1/2); increase N"
        )
    return -0.5 * lambda_next + 1.5 * nu + 2.0 * delta


@dataclass(frozen=True)
class Certificate:
    N: int
    nu: float
    delta: float
    epsilon: float
    eta_cert: float
    S1: float
    S2: float
    Sphi: float
    theta1_max: float
    psi_bound: float
    P_norm: float
    status: str
    N_tail: int
    # (N, N_tail, status) of every round run, in order; a failed status
    # names the check that blocked the round
    rounds: tuple

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json_dict(self) -> dict:
        """Every field, with `rounds` as dicts and a `schema_version`."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["rounds"] = [
            {"N": n, "N_tail": n_tail, "status": status} for n, n_tail, status in self.rounds
        ]
        return {"schema_version": 1, **out}


def choose_tail(artifacts: SynthesisArtifacts, N: int) -> tuple:
    """(N_tail, the `sphi_terms` over N+1..N_tail) for the certificate sums.

    N_tail is `lifting.tail_cap(N)`, or the modes held when fewer, which
    logs a warning.
    """
    m = artifacts
    cap = lifting.tail_cap(N)
    have = len(m.context.eigs)
    n_tail = min(cap, have)
    if n_tail < cap:
        log.warning("tail truncated to %d available modes (wanted %d)", have, cap)
    return n_tail, sphi_terms(m.eigs, *m.sensors, N, n_tail, m.plant.nu)


def certify_round(artifacts: SynthesisArtifacts) -> Certificate:
    """Run every certificate check at the size the artifacts were built for."""
    m = artifacts
    N, nu = m.N, m.plant.nu
    blocking = None
    P = None
    S1 = S2 = S_phi = float("nan")
    eta_cert = float("nan")
    theta1 = float("nan")
    psi = float("nan")
    n_tail = 0
    try:
        P = solve_lyapunov(m.closed_loop, m.delta, 2 * m.n0)
    except CertificationError as err:
        blocking = f"lyapunov: {err}"
    if P is not None:
        n_tail, phi = choose_tail(m, N)
        sums = tail_pair_sums(m, N, n_tail)
        S1 = compute_S1(m, sums)
        S2 = compute_S2(m, sums)
        S_phi = compute_Sphi(phi)
        eta_cert = eta_cert_rule(S_phi, N)
        lam_next = m.context.lams[N] if N < len(m.context.lams) else None
        if lam_next is None:
            blocking = "tail: no eigenvalue beyond N available"
        else:
            try:
                psi = check_psi(lam_next, nu, m.delta, eta_cert, S_phi)
            except NotYetCertifiable as err:
                blocking = f"psi precondition: {err}"
            theta1 = check_theta1(P, m, S1, S2, eta_cert)
            if blocking is None:
                if theta1 > NEG_SLACK:
                    blocking = f"theta1: largest eigenvalue {theta1:.4e} > 0"
                elif psi > NEG_SLACK:
                    blocking = f"psi: Theta2 = {psi:.4e} > 0"
    status = "certified" if blocking is None else f"failed: {blocking}"
    P_norm = float("nan")
    if P is not None:
        # an SVD, whose last bit depends on the BLAS thread count at N = 240
        with one_blas_thread():
            P_norm = float(np.linalg.norm(P, 2))
    return Certificate(
        N=N,
        nu=nu,
        delta=m.delta,
        epsilon=_young_weight(m.n0),
        eta_cert=eta_cert,
        S1=S1,
        S2=S2,
        Sphi=S_phi,
        theta1_max=theta1,
        psi_bound=psi,
        P_norm=P_norm,
        status=status,
        N_tail=n_tail,
        rounds=((N, n_tail, status),),
    )


def round_sizes(N_start: int, N_max: int) -> list:
    """The truncation sizes N_start * 2^k <= N_max that `certify` tries, in order."""
    if not 1 <= N_start <= N_max:
        raise ValueError(f"need 1 <= N_start <= N_max, got N_start={N_start}, N_max={N_max}")
    sizes = [N_start]
    while 2 * sizes[-1] <= N_max:
        sizes.append(2 * sizes[-1])
    return sizes


def certify(artifacts_builder, N_start: int, N_max: int) -> Certificate:
    """Search N in `round_sizes(N_start, N_max)` for a valid certificate.

    `artifacts_builder` maps N to SynthesisArtifacts (rebuilding the
    N-dependent blocks each round). Returns the first certified round, or the
    last round's failure record with the blocking check in its status. The
    Lyapunov solution norm is tracked across rounds; growth beyond 2x per
    doubling is logged since the decay argument quietly assumes it stays
    bounded.
    """
    rounds = []
    prev_norm = None
    for N in round_sizes(N_start, N_max):
        cert = certify_round(artifacts_builder(N))
        rounds.extend(cert.rounds)
        if prev_norm is not None and np.isfinite(cert.P_norm) and cert.P_norm > 2.0 * prev_norm:
            log.warning(
                "Lyapunov norm grew %.2fx across doubling to N=%d",
                cert.P_norm / prev_norm,
                N,
            )
        prev_norm = cert.P_norm if np.isfinite(cert.P_norm) else prev_norm
        if cert.certified:
            break
    return dataclasses.replace(cert, rounds=tuple(rounds))
