"""Lyapunov decay certificates for the synthesized closed loop.

A certificate at truncation size N consists of the solution P of the
shifted Lyapunov equation F'P + PF + 2*delta*P = -I together with three
tail sums (S1, S2, Sphi) that bound the influence of the modes the
controller never sees. Two scalar checks close the argument: the bordered
matrix Theta1 must be negative semidefinite and the tail decay bound Theta2
must be nonpositive. The certifier doubles N until both hold or a budget
runs out, returning an honest failure record in the latter case.

P comes from a block back-substitution on the blocks the design keeps of
F (a dense head of 2*N0 rows, its coupling to the tail, and the diagonal
tail), in numpy alone, and F's spectrum is read from the same blocks; no
n x n F is formed. Every sum in P, and in the P F product of the solve's
residual (`_times_loop`), runs over the head rows only, so those bytes do
not depend on the BLAS thread count. P is filled in place and the
elementwise n x n steps run ROW_BLOCK rows at a time, so a round holds at
most two n x n arrays at once (n = N + N0). Theta1 is never formed: its
state block is -I plus the residual R of the equation P solves and the rest
has rank at most k = 2*N0 + 4, so its largest eigenvalue comes from a k x k
matrix, within the bound on R's 2-norm that the solve returns and the round
adds before the sign test (`check_theta1`). `certify_round` runs on one
BLAS thread (`linalg.one_blas_thread`), so the eigenvalues of P, and with
them `certificate.json`, do not depend on it either, and no OpenBLAS
worker is left spinning after a threaded product. They decide whether P
is positive definite, and the largest is P's 2-norm. A `Certificate` keeps
that norm, not P; `solve_lyapunov` gives P again from the design.
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
# rows per block of the elementwise n x n steps of `solve_lyapunov` and
# `_times_loop`, whose temporaries stay ROW_BLOCK x n
ROW_BLOCK = 32


class CertificationError(RuntimeError):
    pass


class NotYetCertifiable(CertificationError):
    """Precondition tied to N failed; a larger N may fix it."""


def _row_blocks(n: int):
    """Slices of ROW_BLOCK rows covering range(n), in order."""
    return (slice(i, min(i + ROW_BLOCK, n)) for i in range(0, n, ROW_BLOCK))


def _times_loop(P, head, coupling, tail) -> np.ndarray:
    """P F in a new n x n array, from F's blocks: every sum runs over the h
    head rows only, so its bytes do not depend on how BLAS splits the work.
    The tail columns' diagonal terms are added ROW_BLOCK rows at a time."""
    h = len(head)
    out = np.empty_like(P)
    np.matmul(P[:, :h], head, out=out[:, :h])
    np.matmul(P[:, :h], coupling, out=out[:, h:])
    for rows in _row_blocks(len(P)):
        out[rows, h:] += P[rows, h:] * tail
    return out


def solve_lyapunov(head, coupling, tail, delta: float) -> tuple:
    """(P, r): P solving F'P + PF + 2*delta*P = -I, exactly symmetric, for
    the block upper triangular F = [[head, coupling], [0, diag(tail)]], and
    the largest absolute row sum r of the residual R = F'P + PF + 2*delta*P + I.

    With h head rows (2*N0 for a design) and F_s = F + delta*I =
    [[H, B], [0, D]], the equation splits by block back-substitution
    (Bartels & Stewart, Comm. ACM 15(9), 1972, with the triangular form given):
    - H'P11 + P11 H = -I, solved in its Kronecker form;
    - (H' + d_j I) P12[:, j] = -(P11 B)[:, j], one h x h solve per tail column;
    - P22 = -(I + B'P12 + P12'B) / (d_i + d_j), elementwise.
    The spectrum that must lie left of -delta is that of the head and the
    tail. The Kronecker system has h^2 unknowns. Whether P is positive
    definite is left to `certify_round`.

    P is filled in place and the residual is summed ROW_BLOCK rows at a
    time over P F formed from the blocks (`_times_loop`), so at most two
    n x n arrays are alive: P and B'P12, then P and P F. R is exactly
    symmetric, as P is, so r bounds its 2-norm; its largest entry must stay
    below LYAP_RESIDUAL_TOL.
    """
    h, n = len(head), len(head) + len(tail)
    spectral = max(abscissa(head), float(np.max(tail, initial=-np.inf)))
    if spectral >= -delta:
        raise CertificationError(
            f"F + {delta}*I is not Hurwitz (abscissa {spectral:.4f}), "
            "no certificate exists"
        )
    # the blocks of F + delta*I; + 0.0 turns a -0.0 of F into the 0.0 the sum gives
    H = head + delta * np.eye(h)
    B, d = coupling + 0.0, tail + delta
    eye_h = np.eye(h)
    # row-major vec: vec(H'X) = (H' kron I) vec(X), vec(XH) = (I kron H') vec(X)
    kron = np.kron(H.T, eye_h) + np.kron(eye_h, H.T)
    P11 = np.linalg.solve(kron, -eye_h.ravel()).reshape(h, h)
    heads = H.T[None, :, :] + d[:, None, None] * eye_h
    P12 = np.linalg.solve(heads, -(P11 @ B).T[:, :, None])[:, :, 0].T
    del heads
    P = np.empty((n, n))
    P[:h, :h] = 0.5 * (P11 + P11.T)
    P[:h, h:] = P12
    P[h:, :h] = P12.T
    # P22 = -((I + C) + C') / (d_i + d_j) with C = B'P12, summed in that
    # order: off the diagonal (C + 0.0) + C', on it (1 + c_ii) + c_ii. It is
    # exactly symmetric, as P is
    cross = B.T @ P12
    P22 = P[h:, h:]
    np.add(cross, 0.0, out=P22)
    P22 += cross.T
    np.fill_diagonal(P22, 1.0 + np.diagonal(cross) + np.diagonal(cross))
    del cross
    np.negative(P22, out=P22)
    for rows in _row_blocks(n - h):
        P22[rows] /= d[rows, None] + d[None, :]
    # F'P is the transpose of P F, P being exactly symmetric
    PF = _times_loop(P, head, coupling, tail)
    worst, row_sums = [], []
    for rows in _row_blocks(n):
        block = PF[rows] + PF[:, rows].T
        block += 2.0 * delta * P[rows]
        block.flat[rows.start :: n + 1] += 1.0
        np.abs(block, out=block)
        worst.append(np.max(block))
        row_sums.append(np.max(np.add.reduce(block, axis=1)))
    res = float(np.max(worst))
    if not res < LYAP_RESIDUAL_TOL:  # a NaN too, lest r be NaN in a verdict
        raise CertificationError(f"Lyapunov residual {res:.3e} too large")
    return P, float(np.max(row_sums))


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


def check_theta1(P, artifacts: SynthesisArtifacts, S1, S2, eta_cert) -> tuple:
    """(theta1, k, shares): the largest eigenvalue of the bordered matrix
    Theta1 less the Lyapunov residual R, decided on a k x k matrix, and the
    shares of that matrix's top eigenvector, mapped back to Theta1's rows,
    on its head estimate, head error, scaled tail error and two output rows.

    Theta1 is the state block F'P + PF + 2*delta*P (n x n) with eps*S1 on the
    head estimate's diagonal, bordered by P G and -eta_cert*I for the two
    outputs, plus eps*S2 E2'E2 with E2 the first N0 rows of [F, G]; eps =
    2*N0^2. By the equation P solves, Theta1 = -I + M + R with M's range in
    that of W = [e_1..e_N0 | [P G; 0] | e_(n+1), e_(n+2) | E2']. With Z the
    k = min(2*N0 + 4, n + 2) orthonormal columns of W's QR, -I + M has the
    eigenvalues of Z'MZ less 1, and -1 when k < n + 2. M Z costs O(n k).
    """
    m = artifacts
    G, n0 = m.stacked_gain, m.n0
    n = len(G)
    if P.shape != (n, n):
        raise ValueError("P and F dimensions differ")
    eps = _young_weight(n0)
    PG = P @ G
    E2 = np.hstack([m.loop_head[:n0], m.loop_coupling[:n0], G[:n0]])
    W = np.zeros((n + 2, 2 * n0 + 4))
    W[:n0, :n0] = np.eye(n0)
    W[:n, n0 : n0 + 2] = PG
    W[n:, n0 + 2 : n0 + 4] = np.eye(2)
    W[:, n0 + 4 :] = E2.T
    Z = np.linalg.qr(W)[0]
    MZ = E2.T @ (E2 @ Z)
    MZ *= eps * S2
    MZ[:n0] += eps * S1 * Z[:n0]
    MZ[:n] += PG @ Z[n:]
    MZ[n:] += PG.T @ Z[:n] + (1.0 - eta_cert) * Z[n:]
    K = Z.T @ MZ
    lam, vec = np.linalg.eigh(0.5 * (K + K.T))
    k = Z.shape[1]
    theta1 = float(lam[-1] if k == n + 2 else max(lam[-1], 0.0)) - 1.0
    top = Z @ vec[:, -1]
    cuts = (0, n0, 2 * n0, n, n + 2)
    blocks = ("head_estimate", "head_error", "tail_error", "outputs")
    return theta1, k, {b: float(top[i:j] @ top[i:j]) for b, i, j in zip(blocks, cuts, cuts[1:])}


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


ROUND_KEYS = ("N", "N_tail", "status", "k", "residual_bound", "theta1_shares")


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
    # ROUND_KEYS of every round run, in order: a failed status names the check
    # that blocked it; what the round did not reach is NaN (bound) or None
    rounds: tuple

    @property
    def certified(self) -> bool:
        return self.status == "certified"

    def to_json_dict(self) -> dict:
        """Every field, with `rounds` as dicts and a `schema_version`."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        out["rounds"] = [dict(zip(ROUND_KEYS, entry)) for entry in self.rounds]
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
    S1 = S2 = S_phi = eta_cert = theta1 = psi = P_norm = residual = float("nan")
    n_tail, k, shares = 0, None, None
    # the whole round on one BLAS thread: on two, the eigenvalues of P
    # differ in the last bit at N = 240, and an OpenBLAS worker left idle
    # after a threaded product spins
    with one_blas_thread():
        try:
            P, residual = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
        except CertificationError as err:
            blocking = f"lyapunov: {err}"
        else:
            # P's eigenvalues, ascending
            eig = np.linalg.eigvalsh(P)
            if eig[0] <= 0.0:
                blocking = "lyapunov: Lyapunov solution not positive definite"
        if blocking is None:
            # P is symmetric positive definite, so its largest eigenvalue is its 2-norm
            P_norm = float(eig[-1])
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
                theta1, k, shares = check_theta1(P, m, S1, S2, eta_cert)
                # so that the verdict covers the P computed, with its residual
                theta1 += residual
                if blocking is None:
                    if theta1 > NEG_SLACK:
                        blocking = f"theta1: largest eigenvalue {theta1:.4e} > 0"
                    elif psi > NEG_SLACK:
                        blocking = f"psi: Theta2 = {psi:.4e} > 0"
    status = "certified" if blocking is None else f"failed: {blocking}"
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
        rounds=((N, n_tail, status, k, residual, shares),),
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
