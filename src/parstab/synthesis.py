"""Controller and observer synthesis for the head/tail mode decomposition.

Given the eigenbasis and two interior point sensors, this module picks the
spectral split parameters (eta shift, shift ladder gamma_1 < ... <
gamma_N0), forms the boundary Gram family B_k = Lam_k B Lam_k and its
normalizer A = (sum B_k)^-1, places an observer gain L on the unstable head
block and assembles the closed-loop system matrix F together with the maps
needed later by certification and simulation.

The gain L comes from an in-repo port of the Yang-Tits ("YT") method of
`scipy.signal.place_poles`, reduced to what this design asks of it: distinct
real targets and two sensors. It keeps scipy's order of operations on
numpy's QR, so L is bit-equal to scipy's without importing scipy.

All Hurwitz claims are verified by dense eigenvalue computation at build
time; nothing is trusted from formulas alone.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import lifting
from .spectral_basis import DomainError, ModeTable, eval_phi
from .spectral_basis import conormal_trace  # noqa: F401  perfbench/spans.py wraps this name

log = logging.getLogger(__name__)


class SynthesisError(RuntimeError):
    """Ladder search or gain placement failed with diagnostics attached."""


class SensorPlacementError(ValueError):
    """Sensor locations fail a visibility or observability condition."""


def abscissa(M) -> float:
    """Largest real part over the spectrum of a dense matrix."""
    return float(np.max(np.linalg.eigvals(M).real))


def select_eta(unstable_lambdas) -> float:
    """Splitting shift for the repeated second eigenvalue.

    Half the smallest gap between lam_2 and the other distinct head
    eigenvalues (lam_1 and lam_4 onward), clamped to [0.1, 1]. With a single
    unstable mode no resonance constraint is active and the clamp floor is
    returned. The non-resonance condition lam_2 + eta != lam_j is asserted
    after clamping.
    """
    lams = [float(v) for v in unstable_lambdas]
    n0 = len(lams)
    if n0 < 1:
        raise ValueError("need at least one unstable eigenvalue")
    if n0 == 1:
        return 0.1
    others = [lams[0]] + lams[3:]
    gaps = [abs(l - lams[1]) for l in others]
    if not gaps or max(gaps) == 0.0:
        raise ValueError("degenerate head spectrum: no nonzero gap around lam_2")
    eta = min(1.0, max(0.1, 0.5 * min(g for g in gaps if g > 0)))
    shifted = lams[1] + eta
    if any(abs(shifted - l) < 1e-12 for l in others):
        raise ValueError(f"eta={eta} resonates with a head eigenvalue")
    return eta


def eta_shift_matrix(n0: int, eta: float) -> np.ndarray:
    xi = np.zeros((n0, n0))
    if n0 >= 2:
        xi[1, 1] = eta
    return xi


class GammaLadder(NamedTuple):
    """The accepted shift ladder and the head-block matrices built from it."""

    gammas: tuple
    head_lifts: list  # Lam_k
    shifted_grams: list  # B_k = Lam_k B Lam_k
    A: np.ndarray  # (sum B_k)^-1
    gain_block: np.ndarray  # -sum gamma_k B_k A + Xi
    margin: float  # spectral abscissa of gain_block


def select_gamma_ladder(
    context: lifting.LiftingContext,
    B: np.ndarray,
    eta: float,
    delta: float,
    c_ratio: float = 2.0,
    gamma_base: float = 10.0,
    cond_max: float = 1e12,
) -> GammaLadder:
    """Pick shifts gamma_k = base*(1 + (k-1)*rho), rho = (c_ratio-1)/(N0-1).

    The base doubles until (i) every shift clears the eigenvalue
    admissibility rule over the cached mode range, (ii) sum B_k is invertible
    with condition below `cond_max`, and (iii) the gain block
    -sum gamma_k B_k A + Xi has spectral abscissa below -delta.
    """
    if c_ratio <= 1.0:
        raise ValueError("c_ratio must exceed 1")
    n0 = context.n0
    lams = context.lams
    xi = eta_shift_matrix(n0, eta)
    rho = 0.0 if n0 == 1 else (c_ratio - 1.0) / (n0 - 1)
    base = float(gamma_base)
    cap = float(gamma_base) * 2.0**20
    last_diag = "no attempt made"
    while base <= cap:
        gammas = tuple(base * (1.0 + k * rho) for k in range(n0))
        try:
            # every cached mode; the ladder sits far below the eigenvalues
            # of the modes beyond them
            for g in gammas:
                lifting.shift_denominators(g, lams, n0=n0, eta=eta)
        except lifting.AdmissibilityError as err:
            last_diag = str(err)
            base *= 2.0
            continue
        lam_mats = [lifting.lambda_gamma(g, eta, lams[:n0]) for g in gammas]
        Bks = [L @ B @ L for L in lam_mats]
        S = sum(Bks)
        cond = np.linalg.cond(S)
        if not np.isfinite(cond) or cond >= cond_max:
            last_diag = f"cond(sum B_k) = {cond:.3e} at base {base}"
            base *= 2.0
            continue
        A = np.linalg.inv(S)
        gain_block = -sum(g * Bk for g, Bk in zip(gammas, Bks)) @ A + xi
        margin = abscissa(gain_block)
        if margin < -delta:
            log.debug("gamma ladder accepted at base %.6g (margin %.4f)", base, margin)
            return GammaLadder(gammas, lam_mats, Bks, A, gain_block, margin)
        last_diag = f"gain-block abscissa {margin:.4f} >= {-delta} at base {base}"
        base *= 2.0
    raise SynthesisError(
        f"no admissible gamma ladder up to base {cap:.3e}: {last_diag}"
    )


def sensor_rows(modes: ModeTable, xi1, xi2) -> np.ndarray:
    """Values phi_n(xi1) and phi_n(xi2) of the given modes, as two rows."""
    # a C-ordered copy: a transposed view changes the summation order of the
    # products taken with these rows, and with it their last bits
    return np.ascontiguousarray(eval_phi(modes, np.vstack([xi1, xi2])).T)


def validate_sensors(xi1, xi2, eigs: ModeTable, n0: int, tol: float = 1e-3) -> np.ndarray:
    """Check mode visibility at the two sensors and return C0 (2 x N0).

    Simple head modes need |phi_i(xi1)| + |phi_i(xi2)| > tol. A double pair
    (positions 2 and 3) needs the 2x2 determinant of its values at the two
    sensors to clear tol, which is the separability condition on sensor
    placement. The (A0, C0) pair must then be observable at full numerical
    rank.
    """
    plant = eigs.plant
    xi1 = np.asarray(xi1, dtype=float)
    xi2 = np.asarray(xi2, dtype=float)
    if np.allclose(xi1, xi2):
        raise SensorPlacementError("sensors coincide")
    for xi in (xi1, xi2):
        inside = np.all(xi > 0) and np.all(xi < np.asarray(plant.lengths))
        if not inside:
            raise DomainError("sensors must be interior points")
    head = eigs[:n0]
    C0 = sensor_rows(head, xi1, xi2)
    groups = {}
    for i, gid in enumerate(head.group_ids.tolist()):
        groups.setdefault(gid, []).append(i)
    for members in groups.values():
        if len(members) == 1:
            i = members[0]
            if abs(C0[0, i]) + abs(C0[1, i]) <= tol:
                raise SensorPlacementError(
                    f"head mode {i + 1} invisible at both sensors"
                )
        elif len(members) == 2:
            i, j = members
            det = C0[0, i] * C0[1, j] - C0[0, j] * C0[1, i]
            if abs(det) <= tol:
                raise SensorPlacementError(
                    f"double pair ({i + 1},{j + 1}) not separated: det {det:.3e}"
                )
        else:
            raise SensorPlacementError(
                f"multiplicity {len(members)} head group unsupported"
            )
    A0 = -np.diag(head.lams)
    obs = np.vstack([C0 @ np.linalg.matrix_power(A0, k) for k in range(n0)])
    rank = np.linalg.matrix_rank(obs, tol=1e-10 * max(1.0, np.linalg.norm(obs)))
    if rank < n0:
        raise SensorPlacementError(f"observability rank {rank} < {n0}")
    return C0


def _yt_order(n: int) -> list:
    """Tits-Yang update order (IEEE TAC 41(10), p. 1442) for n >= 3 real poles.

    Steps 1.a-3.a of scipy's `_YT_loop` with no complex pair; the steps that
    only matter for complex poles or a single real pole are left out.
    """
    h = n // 2
    order = [(n, 1)] + [(2 * r, 2 * r + 1) for r in range(1, h + n % 2)]
    order += [(2 * r - 1, 2 * r) for r in range(1, h + 1)]
    order += [(i, i + j) for j in range(2, h + n % 2) for i in range(1, h + 1)]
    order += [
        (i, i + j - n if i + j > n else i + j)
        for j in range(2, h + n % 2)
        for i in range(h + 1, n + 1)
    ]
    order += [(i, i + h) for i in range(1, h + 1)]
    return [(i - 1, j - 1) for i, j in order]


def _yt_real(ker, Q, X, i, j):
    """Rank-2 update of columns i, j of the transfer matrix X (YT section 6.1)."""
    u, v = Q[:, -2, np.newaxis], Q[:, -1, np.newaxis]
    m = np.dot(np.dot(ker[i].T, np.dot(u, v.T) - np.dot(v, u.T)), ker[j])
    um, sm, vm = np.linalg.svd(m)
    mu1, mu2 = um.T[:2, :, np.newaxis]
    nu1, nu2 = vm[:2, :, np.newaxis]
    xij = np.vstack((X[:, i, np.newaxis], X[:, j, np.newaxis]))
    if not np.allclose(sm[0], sm[1]):
        kmn = np.vstack((np.dot(ker[i], mu1), np.dot(ker[j], nu1)))
    else:
        zi, zj = np.zeros(ker[i].shape), np.zeros(ker[j].shape)
        kij = np.vstack((np.hstack((ker[i], zi)), np.hstack((zj, ker[j]))))
        kmn = np.dot(kij, np.vstack((np.hstack((mu1, mu2)), np.hstack((nu1, nu2)))))
    t = np.dot(np.dot(kmn, kmn.T), xij)
    t = np.sqrt(2) * t / np.linalg.norm(t) if not np.allclose(t, 0) else kmn
    n = X.shape[0]
    X[:, i] = t[:n, 0]
    X[:, j] = t[n:, 0]


def _qr(a):
    """Complete QR with Fortran-ordered factors, as `scipy.linalg.qr` returns
    them; the products that follow then sum in scipy's order."""
    q, r = np.linalg.qr(a, mode="complete")
    return np.asfortranarray(q), np.asfortranarray(r)


def _place_yt(A, B, poles) -> np.ndarray:
    """Gain K with spec(A - B K) = poles, for distinct real poles.

    A port of `scipy.signal.place_poles(A, B, poles).gain_matrix` (method
    "YT"; Kautsky, Nichols & Van Dooren, IJC 41(5), 1985; Tits & Yang, IEEE
    TAC 41(10), 1996) restricted to distinct real poles. Real poles never
    reach scipy's KNV0 step, so it is left out. The order of operations is
    scipy's, so K is bit-equal to scipy's, and so are its defaults: at most 30
    sweeps, stopping once |det X| moves by less than 1e-3 relative. A loop
    that has not converged keeps its last transfer matrix, as scipy does.
    """
    poles = np.sort(np.asarray(poles, dtype=float))
    n = A.shape[0]
    u, z = _qr(B)
    rank = np.linalg.matrix_rank(B)
    if n == rank:
        return np.real(-np.linalg.lstsq(B, np.diag(poles) - A, rcond=-1)[0])
    ker, cols = [], []
    for p in poles:
        space = np.dot(u[:, rank:].T, A - p * np.eye(n)).T
        Q, _ = _qr(space)
        ker.append(Q[:, space.shape[1] :])
        x = np.sum(ker[-1], axis=1)[:, np.newaxis]
        cols.append(x / np.linalg.norm(x))
    X = np.hstack(cols)
    floor = np.sqrt(np.spacing(1))
    sweeps = 30 if rank > 1 else 0  # one input column leaves nothing to optimise
    for _ in range(sweeps):
        det_before = np.abs(np.linalg.det(X))
        for i, j in _yt_order(n):
            Q, _ = _qr(np.delete(X, (i, j), axis=1))
            _yt_real(ker, Q, X, i, j)
        det = np.max((floor, np.abs(np.linalg.det(X))))
        if np.abs((det - det_before) / det) < 1e-3 and det > floor:
            break
    X = X.astype(complex)
    try:
        m = np.linalg.solve(X.T, np.dot(np.diag(poles), X.T)).T
        gain = np.linalg.solve(z[:rank, :], np.dot(u[:, :rank].T, m - A))
    except np.linalg.LinAlgError as err:
        raise SynthesisError(f"pole placement failed: {err}") from err
    return np.real(-gain)


def place_observer_gain(A0: np.ndarray, C0: np.ndarray, delta: float, spread: float) -> np.ndarray:
    """Gain L (N0 x 2) putting the spectrum of A0 - L C0 below -delta.

    Targets are the distinct reals -delta - spread*k. For a single head mode
    the minimum-norm row solving the scalar placement is used directly;
    otherwise the in-repo YT placement `_place_yt` runs on the transposed
    pair (two sensors, distinct real targets, bit-equal to
    `scipy.signal.place_poles`). Only the abscissa requirement is the
    contract, checked with a 1e-6 allowance.
    """
    A0 = np.atleast_2d(np.asarray(A0, dtype=float))
    C0 = np.atleast_2d(np.asarray(C0, dtype=float))
    n0 = A0.shape[0]
    targets = [-delta - spread * (k + 1) for k in range(n0)]
    if n0 == 1:
        ct = C0[:, 0]
        denom = float(ct @ ct)
        if denom <= 1e-14:
            raise SynthesisError("head mode invisible, cannot place observer pole")
        L = ((A0[0, 0] - targets[0]) / denom) * ct[None, :]
    else:
        L = _place_yt(A0.T, C0.T, targets).T
    got = abscissa(A0 - L @ C0)
    if got >= -delta + 1e-6:
        raise SynthesisError(
            f"observer abscissa {got:.6f} misses the -{delta} requirement"
        )
    return L


@dataclass(frozen=True)
class SynthesisArtifacts:
    """Everything the closed loop is made of, for one design size N."""

    plant: object
    eigs: ModeTable = field(repr=False)
    n0: int = 0
    N: int = 0
    delta: float = 0.0
    eta: float = 0.0
    gammas: tuple = ()
    head_lifts: list = field(default_factory=list, repr=False)  # Lam_k diagonals
    trace_gram: np.ndarray = None  # B
    shifted_grams: list = field(default_factory=list, repr=False)  # B_k
    gram_inverse: np.ndarray = None  # A
    gain_block: np.ndarray = None  # -sum gamma_k B_k A + Xi
    head_drift: np.ndarray = None  # A0
    sensor_head: np.ndarray = None  # C0
    sensor_tail_scaled: np.ndarray = None  # C1 with inverse tail eigenvalue columns
    observer_gain: np.ndarray = None  # L
    closed_loop: np.ndarray = None  # F
    stacked_gain: np.ndarray = None  # G
    sensors: tuple = ()
    margins: dict = field(default_factory=dict)
    context: lifting.LiftingContext = field(default=None, repr=False, compare=False)

    def lift_sum(self) -> np.ndarray:
        """sum_k Lam_{gamma_k}, the combined head lifting diagonal."""
        return sum(self.head_lifts)


def assemble_F(gain_block, A0, LC0, L, C1t, tail_lams):
    """Closed-loop matrix F and stacked gain G = (L; -L; 0).

    Block rows: observer head estimate, head estimation error, tail modes.
    The structure is block upper triangular, so the spectrum is the union of
    the three diagonal blocks.
    """
    n0 = A0.shape[0]
    nt = len(tail_lams)
    n = 2 * n0 + nt
    F = np.zeros((n, n))
    F[:n0, :n0] = gain_block
    F[:n0, n0 : 2 * n0] = LC0
    F[:n0, 2 * n0 :] = L @ C1t
    F[n0 : 2 * n0, n0 : 2 * n0] = A0 - LC0
    F[n0 : 2 * n0, 2 * n0 :] = -L @ C1t
    F[2 * n0 :, 2 * n0 :] = -np.diag(tail_lams)
    G = np.zeros((n, 2))
    G[:n0] = L
    G[n0 : 2 * n0] = -L
    return F, G


def synthesize(
    context: lifting.LiftingContext,
    xi1,
    xi2,
    N: int,
    delta: float,
    *,
    c_ratio: float = 2.0,
    gamma_base: float = 10.0,
    spread: float = None,
    sensor_tol: float = 1e-3,
    cond_max: float = 1e12,
) -> SynthesisArtifacts:
    """Full design pipeline at truncation size N."""
    eigs = context.eigs
    n0 = context.n0
    if N <= n0:
        raise ValueError(f"N={N} must exceed the unstable count {n0}")
    if N > len(eigs):
        raise ValueError(f"context holds {len(eigs)} modes, N={N} requested")
    head_lams = context.lams[:n0]
    tail_lams = context.lams[n0:N]
    if np.any(tail_lams <= delta):
        raise SynthesisError("tail eigenvalues must clear the decay target")
    eta = select_eta(head_lams)
    B = context.head_gram
    ladder = select_gamma_ladder(
        context, B, eta, delta, c_ratio=c_ratio, gamma_base=gamma_base, cond_max=cond_max
    )
    C0 = validate_sensors(xi1, xi2, eigs, n0, tol=sensor_tol)
    C1 = sensor_rows(eigs[n0:N], xi1, xi2)
    C1t = C1 / tail_lams[None, :]
    A0 = -np.diag(head_lams)
    if spread is None:
        spread = 0.5 * delta
    L = place_observer_gain(A0, C0, delta, spread)
    F, G = assemble_F(ladder.gain_block, A0, L @ C0, L, C1t, tail_lams)
    margins = {
        "gain_block_abscissa": ladder.margin,
        "observer_abscissa": abscissa(A0 - L @ C0),
        "F_abscissa": abscissa(F),
    }
    if margins["F_abscissa"] >= -delta:
        raise SynthesisError(
            f"closed-loop abscissa {margins['F_abscissa']:.4f} misses -{delta}"
        )
    return SynthesisArtifacts(
        plant=context.plant,
        eigs=eigs,
        n0=n0,
        N=N,
        delta=delta,
        eta=eta,
        gammas=ladder.gammas,
        head_lifts=ladder.head_lifts,
        trace_gram=B,
        shifted_grams=ladder.shifted_grams,
        gram_inverse=ladder.A,
        gain_block=ladder.gain_block,
        head_drift=A0,
        sensor_head=C0,
        sensor_tail_scaled=C1t,
        observer_gain=L,
        closed_loop=F,
        stacked_gain=G,
        sensors=(tuple(np.asarray(xi1, dtype=float)), tuple(np.asarray(xi2, dtype=float))),
        margins=margins,
        context=context,
    )


def report_dict(artifacts: SynthesisArtifacts) -> dict:
    """JSON-ready synthesis report with pinned field names."""
    m = artifacts
    return {
        "schema_version": 1,
        "eigenvalues": m.eigs.lams[: m.N].tolist(),
        "eta": m.eta,
        "gamma": list(m.gammas),
        "B": m.trace_gram.tolist(),
        "Bk": [b.tolist() for b in m.shifted_grams],
        "A": m.gram_inverse.tolist(),
        "L": m.observer_gain.tolist(),
        "C0": m.sensor_head.tolist(),
        "F_abscissa": m.margins["F_abscissa"],
        "gain_block_abscissa": m.margins["gain_block_abscissa"],
        "observer_abscissa": m.margins["observer_abscissa"],
        "sensors": [list(m.sensors[0]), list(m.sensors[1])],
        "N": m.N,
        "N0": m.n0,
        "delta": m.delta,
    }
