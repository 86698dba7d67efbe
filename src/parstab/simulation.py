"""Closed-loop time integration in modal coordinates.

The simulated plant carries N_sim modes, the observer exactly the N the
design was built for. Both evolve jointly as one linear time-invariant system
x' = A x, so x(t + h) = expm(h A) x(t) is exact at every output time. A is
diagonal except for the rows and columns of the n0 observer-head states.
`ClosedLoop.border` builds those parts directly, with no n x n A, and the
in-repo `linalg.expm` evaluates a Taylor polynomial in h A from them,
squared as often as its truncation bound needs, with no LU solve. It returns
E = expm(h A) as its diagonal plus a low-rank part in orthonormal bases
(`linalg.Factored`), of rank 9 on the 300-dim strong-drift loop. Rows are
propagated in blocks of B rows, B = `block_rows(n)` from the loop's width
n: at most BLOCK = 256 rows and BLOCK_DOUBLES = 2^16 doubles (512 KB), so
256 rows on the demo loops of 40 and 100 states, 128 on the 300-dim one
and 64 on `wide_sim`'s 1020-dim one. `run` squares E to E^B in factored
form, in the bases it carries, log2 B times, when there are more than B
output rows.

The blocks of rows are split into SEGMENTS = 2 contiguous time segments, a
constant rather than the CPU count, and one generator, `_rows`, gives every
segment its rows: x0 advanced to the segment's start by E^B, a vector
product per block, then the segment's first block by single-row steps of
E, then each later block as the one before times E^B', X * lam +
((X W) * sig) Q' into one of two alternating row buffers: about 4 B n r
flops a block for rank r, against 2 B n^2 for a dense E^B.
Propagation forms no n x n array. The output spacing h is no accuracy or
stability limit, but E^B may be: the first row of a segment's second
block, made by E^B, must lie within POWER_TOL of one step of E from the
row before it, or the run fails.
With `os.fork` and two or more usable CPUs, once E and E^B exist, a
forked child propagates each segment after the first, forms its columns and
checks, and streams their raw bytes back while this process propagates
segment 0; otherwise this process propagates every segment with the same
arithmetic. All of `run` runs on one BLAS thread (`linalg.one_blas_thread`):
its products are too small to gain from a second one. So the columns depend
on SEGMENTS, the row count and n, not on the machine's BLAS thread or CPU
count.

`ClosedLoop.diagnostics` forms every CSV column from a block of stacked
states in array operations, each norm over a row in one einsum pass that
forms no block-sized square; it is the one place the outputs, the control
norm and the energy proxies are formed. `ClosedLoop.projection_check`
bounds, for every row, how far the forcing the loop simulates departs from
the forcing the design built; the defect it multiplies is formed once per
loop. `run` keeps no state: it returns those columns, the output spacing h
and the largest projection-check bound. The per-state `ClosedLoop.step`
and `ClosedLoop.w` stay for the benchmark, and the tests keep their
certificate-energy helpers in `tests/oracles.py`.

`write_csv` writes each float in the bytes of its repr:
`_shortest.CsvText` finds the shortest round-trip digits of CSV_CHUNK_ROWS
rows at a time by Schubfach in numpy integer arrays, in a workspace
allocated once per call, so no temporary is made afresh per chunk for glibc
to trim from its heap and fault back in (`CSV_CHUNK_ROWS`). The rows are
split into `run`'s time segments, `_segment_bounds(n_rows, CSV_CHUNK_ROWS)`.
With `os.fork` and two or more usable CPUs, a forked child renders each
segment after the first while this process writes segment 0, then this
process copies the child's text into the file 64 KB at a time; otherwise
this process renders every segment. `run` has returned and reaped its
children by then, and the formatter makes no BLAS call. On the
strong-drift pipeline's 100 001 rows (2 vCPUs) it takes 0.090-0.095 s
(traced), against 0.15-0.16 s in one process and 0.56-0.62 s for repr on
one core. `run` and `write_csv` hand the C heap's free pages back to the
system before the propagation, the rate fit and the formatter
(`linalg.trim_heap`), so that the peak RSS they reach is set by the live
arrays, not by where glibc placed the freed ones.

Forcing enters the plant row n as minus the face inner product of the
control against trace_n, W = -cross_cols @ sum_k Lam_k @ A; the observer
head adds output injection L(y - yhat) and the observer tail rows are rows
N0+1..N of that same matrix W, which keeps the tail estimation error
autonomous. These sign conventions are the load-bearing part of this module.
"""

from __future__ import annotations

import contextlib
import functools
import logging
import math
import os
import pickle
import shutil
import signal
from dataclasses import dataclass

import numpy as np

from .lifting import LiftingContext, shift_denominators
from .linalg import Border, Factored, expm, one_blas_thread, trim_heap
from .spectral_basis import ModeTable, axis_rules, max_wavenumber
# perfbench/spans.py wraps these three names here; no stage of the program calls them
from .spectral_basis import eval_phi, face_quadrature, trace_matrix  # noqa: F401
from .synthesis import SynthesisArtifacts, sensor_rows

log = logging.getLogger(__name__)

# most output rows per propagation block: rows of block b+1 are rows of
# block b times E^B, one matrix product per block, for the loop's B of
# `block_rows`
BLOCK = 256
# most doubles a block of rows holds (512 KB): a wider loop takes fewer rows
BLOCK_DOUBLES = 1 << 16
# contiguous time segments the blocks are split into; a forked child
# propagates each but the first. A constant, not the CPU count, so that the
# bytes of a run depend on the row count and the loop's width alone
SEGMENTS = 2
# fewest BLOCK-row units a segment holds: its first block costs about one
# block's work in single-row steps, besides the fork
SEGMENT_MIN_BLOCKS = 4
# largest gap, in 2-norm relative to the stepped row, between the first row
# a segment advances by E^B and one step of E from the row before it
# (README, "Observation spillover", gives the gaps measured)
POWER_TOL = 1e-10
# T/h within this of an integer counts as an integer number of steps
STEP_RATIO_TOL = 1e-9
# largest deviation bound projection_check may give a row of a run
CHECK_TOL = 1e-8
CSV_COLUMNS = (
    "t",
    "l2_proxy",
    "h1_proxy",
    "y1",
    "y2",
    "u_l2_gamma1",
    "err_finite",
    "err_residual",
    "zeta1",
    "zeta2",
    "composite",
)
# rows formatted and written at a time by `write_csv`: about 0.12 MB of text
# from a 0.66 MB workspace that every ufunc writes into. Temporaries made
# afresh for each chunk would be trimmed from glibc's heap and faulted back
# in on every chunk: a prototype with 1024-row chunks and a fresh temporary
# per ufunc took about 95 000 minor page faults on the pipeline's CSV and
# 2.9 MB more peak RSS, against 510-550 with the workspace
CSV_CHUNK_ROWS = 512


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimState:
    """Plant coefficients z (length N_sim) and observer coefficients zhat (length N).

    `init_state` builds one and `ClosedLoop.step` maps one to the next;
    perfbench/reference.py builds one for `ClosedLoop.w`."""

    t: float
    z: np.ndarray
    zhat: np.ndarray


def default_n_sim(N: int) -> int:
    return max(4 * N, 200)


def default_step(lam_top: float) -> float:
    """Default output spacing min(0.5/lam_{N_sim}, 1e-2).

    The propagator is exact for every h, so h sets how finely the output
    rows resolve the fastest simulated mode and bounds no error; `run`
    refuses an h whose E^B (`block_rows`) has lost accuracy (POWER_TOL),
    and the gaps measured at h <= 2e-2 stay below 1e-13."""
    return min(0.5 / max(lam_top, 1e-12), 1e-2)


def init_state(z0_coeffs, N_sim: int, N: int) -> SimState:
    """Initial state: z0 padded or truncated to N_sim, observer at zero."""
    z0 = np.asarray(z0_coeffs, dtype=float).ravel()
    if N < 1 or N_sim < N:
        raise ValueError(f"need 1 <= N <= N_sim, got N={N}, N_sim={N_sim}")
    if not np.all(np.isfinite(z0)):
        raise ValueError("initial coefficients must be finite")
    z = np.zeros(N_sim)
    m = min(len(z0), N_sim)
    z[:m] = z0[:m]
    return SimState(t=0.0, z=z, zhat=np.zeros(N))


class ClosedLoop:
    """Coupled plant + observer matrices for one design at one N_sim.

    With x = (z, zhat), the dynamics are x' = A x with A (`border`, or dense
    `full_matrix`) the open-loop diagonal plus these coupling blocks:

      * plant rows get the control forcing W U with U = zhat[:N0],
      * observer head rows get the gain block plus L(y - yhat),
      * observer tail rows get rows N0+1..N of the plant forcing W.

    `open_loop` disables the controller entirely: `border` leaves out every
    coupling block, so the observer and U stay at zero and the plant reduces
    to pure modal decay/growth.
    """

    def __init__(
        self,
        artifacts: SynthesisArtifacts,
        N_sim: int,
        open_loop: bool = False,
    ):
        m = artifacts
        ctx: LiftingContext = m.context
        N = m.N
        n0 = m.n0
        if N_sim < N:
            raise ValueError(f"N_sim={N_sim} below design size N={N}")
        if N_sim > len(ctx.eigs):
            raise ValueError(
                f"context holds {len(ctx.eigs)} modes, N_sim={N_sim} requested"
            )
        self.artifacts = m
        self.N = N
        self.n0 = n0
        self.N_sim = N_sim
        self.nu = m.plant.nu
        self.open_loop = open_loop
        lams = ctx.lams[:N_sim]
        self.lams = lams
        A = m.gram_inverse
        cross = ctx.cross_cols[:N_sim]  # <trace_n, trace_l>, n <= N_sim

        # lifted projection maps: column l of the k-th term is d(gamma_k)_n
        # per unit U_l; head rows are -B_k A. A lift is the diagonal of
        # Lam_k, so scaling the columns of cross by it is cross @ Lam_k
        lift_all = 0
        for k, g in enumerate(m.gammas):
            Mk = np.zeros((N_sim, n0))
            Mk[:n0] = -m.shifted_grams[k] @ A
            den = shift_denominators(g, lams[n0:], first=n0 + 1)
            Mk[n0:] = -((cross[n0:] * m.head_lifts[k]) @ A) / den[:, None]
            lift_all = lift_all + Mk
        self.lift_all = lift_all

        # plant forcing -<u, trace_n> per unit U, u = sum_k <Lam_k A U, traces>
        lift_sum = m.lift_sum()
        self.forcing = (-cross * lift_sum) @ A

        self.C_sim = sensor_rows(ctx.eigs[:N_sim], *m.sensors)
        self.C_N = self.C_sim[:, :N]

        w = np.maximum(lams + self.nu, self.nu + lams[0] + 1.0)
        self.h1_weights = w
        # squared face L2 norm of the control as a quadratic form in U
        K = lift_sum[:, None] * A
        self.control_form = K.T @ m.trace_gram @ K
        # the gain of `projection_check`: the largest row sum of |Q_k - M_k|
        # over the shifts k, with Q_k = -diag(lam_k) G_q Lam_k A (G_q the head
        # Gram on the context's face samples, by einsum, no BLAS) and M_k = -B_k A
        gram_q = np.einsum("iq,jq,q->ij", ctx.traces, ctx.traces, ctx.quad.weights)
        gaps = [
            np.einsum("i,ij,jl->il", -lift, gram_q, lift[:, None] * A) - (-Bk @ A)
            for lift, Bk in zip(m.head_lifts, m.shifted_grams)
        ]
        self.check_gain = max(float(np.max(np.sum(np.abs(gap), axis=1))) for gap in gaps)

    def border(self) -> Border:
        """A in x' = A x as its parts: the diagonal, the n0 observer-head rows
        and the head columns."""
        m = self.artifacts
        N_sim, N, n0 = self.N_sim, self.N, self.n0
        n_tot = N_sim + N
        head = np.arange(N_sim, N_sim + n0)
        diag = np.zeros(n_tot)
        diag[:N_sim] = -self.lams
        rows = np.zeros((n0, n_tot))
        cols = np.zeros((n_tot, n0))
        if not self.open_loop:
            L = m.observer_gain
            at_head = slice(N_sim, N_sim + n0)
            cols[:N_sim] += self.forcing
            # head estimate: gain block plus output injection against
            # yhat = C_N (zhat - lift_head U) + C_sim lift_all U; the
            # injection -L C_N covers the head columns too
            rows[:, at_head] += m.gain_block
            rows[:, N_sim:] += -L @ self.C_N
            rows[:, at_head] += L @ (self.C_N @ self.lift_all[:N]) - L @ (
                self.C_sim @ self.lift_all
            )
            rows[:, :N_sim] += L @ self.C_sim
            diag[N_sim + n0 :] += -self.lams[n0:N]
            cols[N_sim + n0 :] += self.forcing[n0:N]
        return Border(head, diag, rows, cols)

    @property
    def full_matrix(self) -> np.ndarray:
        """A in x' = A x as a dense array, for oracles such as scipy's expm
        (perfbench/reference.py and the tests)."""
        return self.border().dense()

    # -- derived quantities ------------------------------------------------

    def w(self, state: SimState) -> np.ndarray:
        """The plant state less its lifted part, w = z - sum_k D_{gamma_k} u_k,
        for one state; perfbench/reference.py calls it, `diagnostics` is the
        batched form."""
        return state.z - self.lift_all @ state.zhat[: self.n0]

    def diagnostics(self, X: np.ndarray) -> dict:
        """Every CSV column but t, for states stacked as the rows of X; on
        the open loop zhat, and so U, stays zero.

        Each norm over a row is one einsum pass, which forms no block-sized
        square and makes no BLAS call: h1 sums the weights times wn*wn, and
        the sums of z*z over the modes the observer models and over the rest
        give err_residual and, together, l2_proxy. h1 is summed from wn
        itself, not expanded as a quadratic form in z and U: wn = z - lift U
        cancels as the loop decays (h1 near 4e-5 at the end of the
        strong-drift pipeline, against 7.9 at t = 0), and the expanded form
        loses those digits."""
        N_sim, N, n0 = self.N_sim, self.N, self.n0
        z, zhat = X[:, :N_sim], X[:, N_sim:]
        U = zhat[:, :n0]
        wn = z - U @ self.lift_all.T
        y = z @ self.C_sim.T
        # sensor contribution of the modes the observer never models
        zeta = wn[:, N:] @ self.C_sim[:, N:].T
        h1 = np.sqrt(np.einsum("ij,ij,j->i", wn, wn, self.h1_weights))
        head_sq = np.einsum("ij,ij->i", z[:, :N], z[:, :N])
        tail_sq = np.einsum("ij,ij->i", z[:, N:], z[:, N:])
        err = z[:, :N] - zhat
        # the control form is singular to rounding (eigenvalues 1e-14, 2.3
        # and 23 on the strong-drift design), so u^2 cancels terms up to 1e5
        # times its size; any other summation order moves it by 1e-11
        u_sq = np.sum((U @ self.control_form) * U, axis=1)
        return {
            "l2_proxy": np.sqrt(head_sq + tail_sq),
            "h1_proxy": h1,
            "y1": y[:, 0],
            "y2": y[:, 1],
            "u_l2_gamma1": np.sqrt(np.maximum(u_sq, 0.0)),
            "err_finite": np.sqrt(np.einsum("ij,ij->i", err, err)),
            "err_residual": np.sqrt(tail_sq),
            "zeta1": zeta[:, 0],
            "zeta2": zeta[:, 1],
            "composite": h1 + np.sum(np.abs(U), axis=1),
        }

    # -- integration -------------------------------------------------------

    def exponential(self, h: float) -> Factored:
        """A fresh E = expm(h A), the exact step of length h, as the diagonal
        plus thin factors; nothing is kept."""
        if h <= 0:
            raise ValueError("step size must be positive")
        return expm(self.border().scaled(h))

    def step(self, state: SimState, h: float) -> SimState:
        """One exact step: x(t + h) = expm(h A) x(t). No command calls it;
        perfbench/spans.py wraps it, and `run` propagates whole blocks."""
        y = self.exponential(h).advance(np.concatenate([state.z, state.zhat]))
        return SimState(t=state.t + h, z=y[: self.N_sim], zhat=y[self.N_sim :])

    # -- consistency check -------------------------------------------------

    def projection_check(self, U: np.ndarray) -> np.ndarray:
        """Bound on the dual-route deviation of the head lifted projections,
        for each row of U.

        U stacks head controls as rows (n0 columns; closed loop, `zhat[:n0]`).
        Per shift k, the quadrature route U Q_k' (head Gram summed on the
        context's face samples) departs from the matrix route U M_k'
        (closed-form head Gram) by U (Q_k - M_k)', at most max|U| times the
        largest row sum of |Q_k - M_k|. Returns, per row, max|U| times
        `check_gain`, that row sum's maximum over k.
        """
        return np.max(np.abs(U), axis=1) * self.check_gain


@dataclass(frozen=True)
class SimulationRun:
    """What `run` gives its readers: the CSV columns (`records`, with t also
    as `times`), the fitted decay rate, the output spacing h and the largest
    projection-check bound over the rows (0 on the open loop)."""

    times: np.ndarray
    records: dict
    rate: float
    h: float
    projection_check_max: float


def estimate_decay_rate(times, values, t_skip: float) -> float:
    """Least-squares slope of log(values) vs time on [t_skip, end].

    Values are floored at 1e-300 before the log so exact zeros do not poison
    the fit. At least 10 samples must survive the skip.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    mask = times >= t_skip
    if int(mask.sum()) < 10:
        raise ValueError("need at least 10 samples after t_skip")
    # the closed-form slope on centred data, in place, so the fit holds one
    # array of the kept length, the logs; the kept times are centred 8192 at
    # a time, in the products and sums of the whole-array form. np.polyfit
    # would build a Vandermonde matrix and an lstsq workspace for the same
    # number
    t_mean = times[mask].mean()
    logs = values[mask]
    np.maximum(logs, 1e-300, out=logs)
    np.log(logs, out=logs)
    logs -= logs.mean()

    def centred():
        """(rows of logs, their centred times), 8192 times at a time."""
        done, step = 0, 8192
        for s in range(0, len(times), step):
            t = times[s : s + step][mask[s : s + step]]
            t -= t_mean
            yield slice(done, done + len(t)), t
            done += len(t)

    for rows, t in centred():
        logs[rows] *= t
    cross = np.sum(logs)
    for rows, t in centred():
        np.multiply(t, t, out=logs[rows])
    return float(cross / np.sum(logs))


def _step_count(T: float, h: float) -> tuple:
    """(n, r): n whole steps of h, then a last partial step r < h to reach T.

    r is 0 when T/h lies within STEP_RATIO_TOL of a positive integer n; an
    infinite T/h raises MemoryError, as `run` allocating too many rows does."""
    ratio = T / h
    if math.isinf(ratio):
        raise MemoryError(f"T/h = {ratio} output rows")
    n = round(ratio)
    if n >= 1 and abs(ratio - n) <= STEP_RATIO_TOL:
        return n, 0.0
    n = math.floor(ratio)
    return n, T - n * h


def block_rows(n: int) -> int:
    """B, the rows per propagation block and the power of E that advances a
    block, for a loop of n states: the largest power of two at most BLOCK
    with B n <= BLOCK_DOUBLES, and at least 1. 256 on the 40- and 100-dim
    demo loops, 128 on the 300-dim strong-drift one, 64 on `wide_sim`'s
    1020-dim one. A power of two, since E^B is E squared log2 B times."""
    return min(BLOCK, 1 << (max(1, BLOCK_DOUBLES // n).bit_length() - 1))


def _rows(E: Factored, power: Factored, B: int, x0: np.ndarray, start: int, stop: int):
    """Yield (s, rows) covering rows [start, stop) of x0, E x0, E^2 x0, ...,
    in blocks of B rows, for start a multiple of B and power = E^B, which
    rows [0, stop) with stop <= B do not read.

    x0 advanced by power start/B times, one vector at a time, then each
    row the one before times E', fill the first block; each later block of
    up to B rows is the one before times power'. A vector advance costs
    n r flops for rank r. A further square of E^B would reach the start
    in fewer products, but squares keep only absolute accuracy, which is
    lost once a power decays far below 1. A yielded block is overwritten two
    blocks later, so a caller that keeps one copies it."""
    v = x0
    for _ in range(start // B):
        v = power.advance(v)
    block = np.empty((min(B, stop - start), len(x0)))
    block[0] = v
    for j in range(1, len(block)):
        E.advance(block[j - 1], out=block[j])
    yield start, block
    # later blocks alternate between two buffers: with a fresh array per
    # block glibc trims its heap and faults the pages back in on every block
    # (about 90 000 minor faults on the 300-dim pipeline loop)
    other = np.empty_like(block)
    for s in range(start + len(block), stop, B):
        rows = min(B, stop - s)
        power.advance(block[:rows], out=other[:rows])
        block, other = other[:rows], block
        yield s, block


def _segment_bounds(n_rows: int, B: int) -> list:
    """Row bounds [0, ..., n_rows] of the time segments of n_rows rows in
    blocks of B rows: `run`'s propagated rows, and `write_csv`'s rows in
    chunks of B = CSV_CHUNK_ROWS.

    There is one segment per SEGMENT_MIN_BLOCKS started BLOCK-row units, at
    least one and at most SEGMENTS, so whether `run` or `write_csv` forks
    depends on the row count alone (two segments from 1793 rows on); the
    cuts fall at whole blocks of B rows, as evenly as those allow."""
    count = max(1, min(SEGMENTS, -(-n_rows // BLOCK) // SEGMENT_MIN_BLOCKS))
    blocks = -(-n_rows // B)
    return [B * (blocks * i // count) for i in range(count)] + [n_rows]


def run(
    z0_coeffs,
    T: float,
    h: float,
    artifacts: SynthesisArtifacts,
    *,
    N_sim: int,
    open_loop: bool = False,
    t_skip: float = 2.0,
) -> SimulationRun:
    """Propagate the loop over [0, T] and collect the standard diagnostics.

    Rows sit at t = 0, h, 2h, ... and, when T is not a whole number of steps,
    one last row at t = T. On every row of a closed-loop run the bound on how
    far the head lifted projections of the quadrature route depart from the
    matrix route must stay within CHECK_TOL (`ClosedLoop.projection_check`,
    one call per block); a larger bound is a hard failure naming the t of the
    first such row, since the simulated forcing may then not be the designed
    forcing. No option turns the check off. A non-finite state raises
    SimulationError.

    The rows are propagated in blocks of B = `block_rows(n)` rows for the
    loop's n states, in the time segments of `_segment_bounds`, each by
    `_rows`, after log2 B squarings of E to E^B. A segment whose second
    block's first row departs from one step of E by more than POWER_TOL
    raises SimulationError naming E^B, h and the t of that row: E^B has
    lost accuracy. This process propagates segment 0. With `os.fork` and
    more than one usable CPU, a forked child
    propagates each later segment, forms its columns and checks, and sends
    back its largest check bound, its last state and its columns' rows;
    otherwise this process propagates every segment the same way. The
    columns are the same bytes on every path, and all of `run` runs on one
    BLAS thread (`linalg.one_blas_thread`), so they do not depend on the
    thread count either. A failure in a segment is raised
    here after every earlier segment passed, so the first failing row names
    the error.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    # hand back the pages the design freed before the propagation takes its own
    trim_heap()
    system = ClosedLoop(artifacts, N_sim=N_sim, open_loop=open_loop)
    if h is None:
        h = default_step(system.lams[-1])
    state = init_state(z0_coeffs, system.N_sim, system.N)
    x0 = np.concatenate([state.z, state.zhat])
    n_steps, rest = _step_count(T, h)
    n_rows = n_steps + 1 + (rest > 0)
    times = np.arange(n_rows) * h
    if rest > 0:
        times[-1] = T
    cols = {name: np.empty(n_rows) for name in CSV_COLUMNS}
    cols["t"] = times

    def record(start: int, X: np.ndarray) -> float:
        """Fill the columns of the rows from `start` with those of the states
        X; return their largest projection-check bound."""
        stop = start + len(X)
        if not np.all(np.isfinite(X)):
            raise SimulationError(f"state non-finite by t={times[stop - 1]:.3f}")
        for name, col in system.diagnostics(X).items():
            cols[name][start:stop] = col
        if open_loop:
            return 0.0
        devs = system.projection_check(X[:, system.N_sim : system.N_sim + system.n0])
        bad = np.flatnonzero(devs > CHECK_TOL)
        if len(bad):
            raise SimulationError(
                f"lifted-projection routes disagree by up to {devs[bad[0]]:.3e} "
                f"at t={times[start + bad[0]]:.3f}"
            )
        return float(devs.max())

    with one_blas_thread(), np.errstate(over="ignore", invalid="ignore"):
        E = system.exponential(h)
        log.info("E = expm(h A) of the %d-dim loop is diagonal plus rank %d", len(x0), E.rank)
        B = block_rows(len(x0))
        power = E
        if n_steps + 1 > B:
            for _ in range(B.bit_length() - 1):
                power = power.squared()
            log.info("E^%d is diagonal plus rank %d", B, power.rank)
        bounds = _segment_bounds(n_steps + 1, B)
        later = range(1, len(bounds) - 1)

        def segment(i: int) -> tuple:
            """(largest check bound, last state) of segment i, its rows
            recorded and its first power-made row checked against a step of
            E from the row before, still in the first block's buffer."""
            start, stop = bounds[i], bounds[i + 1]
            check = 0.0
            for s, X in _rows(E, power, B, x0, start, stop):
                if s == start + B:
                    stepped = E.advance(previous[-1])
                    gap, scale = np.linalg.norm(X[0] - stepped), np.linalg.norm(stepped)
                    if gap > POWER_TOL * scale:
                        raise SimulationError(
                            f"E^{B} at h={h:g} has lost accuracy: its row at t={times[s]:.3f} "
                            f"is {gap / scale:.3e} (relative) from a step of E; take a smaller h"
                        )
                check = max(check, record(s, X))
                previous = X
            return check, X[-1].copy()

        def sent(i: int, check: np.ndarray, last: np.ndarray) -> list:
            """What a child sends of segment i, in order: its check bound, its
            last state and the rows of its columns."""
            return [check, last] + [cols[name][bounds[i] : bounds[i + 1]] for name in CSV_COLUMNS[1:]]

        def child(i: int) -> list:
            check, last = segment(i)
            return sent(i, np.array([check]), last)

        forking = hasattr(os, "fork") and _usable_cpus() > 1
        with _forked([functools.partial(child, i) for i in later] if forking else []) as pipes:
            check_max, last = segment(0)
            for i in later:
                if not forking:
                    check, last = segment(i)
                else:
                    pipe = pipes[i - 1]
                    _received(pipe)
                    check, last = np.empty(1), np.empty(len(x0))
                    for buf in sent(i, check, last):
                        _read_into(pipe, buf)
                    check = float(check[0])
                check_max = max(check_max, check)
        if rest > 0:
            check_max = max(check_max, record(n_rows - 1, system.exponential(rest).advance(last)[None]))
    series = cols["composite"] if not open_loop else cols["l2_proxy"]
    # hand back the pages the propagation freed before the fit takes its own
    trim_heap()
    try:
        rate = estimate_decay_rate(cols["t"], series, t_skip)
    except ValueError:
        rate = float("nan")
    if not open_loop and rate >= 0.0:
        log.warning(
            "the simulated loop grows: fitted rate %+.3g at N = %d, N_sim = %d; "
            "see README, 'Observation spillover'",
            rate,
            system.N,
            system.N_sim,
        )
    return SimulationRun(times=cols["t"], records=cols, rate=rate, h=h, projection_check_max=check_max)


def _usable_cpus() -> int:
    """CPUs this process may run on: `run` and `write_csv` fork for their
    later segments when there are two or more."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextlib.contextmanager
def _forked(jobs):
    """Fork one child per job; yield one pipe from each, in order; reap them
    all. `run` and `write_csv` fork their later segments through it; nothing
    else forks.

    A child calls its job, which returns the bytes-like buffers to send,
    before it writes any, so it never waits on its pipe while the caller is
    still working. It then sends a zero byte and the buffers, or a one byte
    and its pickled exception, and exits without running any cleanup of the
    process it was forked from; a child that can send neither exits with
    status 1 and sends nothing. `_received` reads the status byte. If the
    body raises, every child is killed. Every child is reaped before this
    returns or raises, and a child that ended with a nonzero wait status
    fails the caller. Forking is safe only while no other thread of this
    process is inside a BLAS call: OpenBLAS stops its thread pool around
    fork, and a sweep that ran its entries on threads hung in most runs (a
    thread spinning, the BLAS worker gone)."""
    children = []
    statuses = []
    try:
        for job in jobs:
            read_fd, write_fd = os.pipe()
            pid = os.fork()
            if not pid:
                _send(job, read_fd, write_fd)
            os.close(write_fd)
            children.append((pid, os.fdopen(read_fd, "rb")))
        yield [pipe for _, pipe in children]
    except BaseException:
        for pid, _ in children:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    if any(statuses):
        raise SimulationError(f"forked children ended with wait statuses {statuses}")


def _send(job, read_fd: int, write_fd: int) -> None:
    """The body of a `_forked` child: run `job` and send its buffers or its
    exception; never returns."""
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                buffers = job()
            except BaseException as err:  # noqa: BLE001  raised again by the caller
                pipe.write(b"\1" + pickle.dumps(err))
            else:
                pipe.write(b"\0")
                pipe.writelines(buffers)
        code = 0
    finally:
        os._exit(code)


def _received(pipe) -> None:
    """Read the status byte of a `_forked` child from its pipe; raise the
    child's exception when it sent one."""
    status = pipe.read(1)
    if status == b"\1":
        raise pickle.loads(pipe.read())
    if status != b"\0":
        raise SimulationError("a forked child ended without output")


def _read_into(pipe, buf: np.ndarray) -> None:
    """Fill `buf` with its size in bytes from `pipe`."""
    if pipe.readinto(buf) != buf.nbytes:
        raise SimulationError("a forked child ended before the end of its output")


def write_csv(run_result: SimulationRun, path) -> None:
    """Header, then one line per record in CSV_COLUMNS order, each float in
    the bytes of its repr.

    The rows are split into the time segments `run` uses,
    `_segment_bounds(n_rows, CSV_CHUNK_ROWS)`. Each segment's rows are
    stacked CSV_CHUNK_ROWS at a time into one table, and `_shortest.CsvText`
    renders its lines, the digits by Schubfach in numpy integer arrays; the
    table and every array the formatter works in are allocated once per
    call. This process writes segment 0. With `os.fork` and more than one
    usable CPU, a forked child renders each later segment whole and sends
    its text back, which this process copies into the file 64 KB at a time
    once segment 0 is written; otherwise this process renders every segment
    the same way. Formatting is a pure function of each float, so the bytes
    do not depend on the path. A child's exception is raised here, and a
    child that dies raises SimulationError.
    """
    # imported here, so that a command that writes no CSV neither compiles
    # the formatter at start-up (about 2 ms with no bytecode cache) nor
    # keeps it in memory
    from ._shortest import CsvText

    # hand back the pages the rate fit freed before the formatter takes its own
    trim_heap()
    cols = [run_result.records[name] for name in CSV_COLUMNS]
    n_rows = len(cols[0])
    rows = min(CSV_CHUNK_ROWS, n_rows)
    text = CsvText(rows, len(cols))
    table = np.empty((rows, len(cols)))
    bounds = _segment_bounds(n_rows, CSV_CHUNK_ROWS)
    later = range(1, len(bounds) - 1)

    def lines(i: int):
        """The text of segment i's rows, in pieces, one chunk at a time."""
        for s in range(bounds[i], bounds[i + 1], CSV_CHUNK_ROWS):
            chunk = [c[s : s + CSV_CHUNK_ROWS] for c in cols]
            yield from text.lines(np.stack(chunk, axis=1, out=table[: len(chunk[0])]))

    def child(i: int) -> list:
        return list(lines(i))

    forking = hasattr(os, "fork") and _usable_cpus() > 1
    jobs = [functools.partial(child, i) for i in later] if forking else []
    with _forked(jobs) as pipes, open(path, "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode())
        fh.writelines(lines(0))
        for i in later:
            if not forking:
                fh.writelines(lines(i))
            else:
                _received(pipes[i - 1])
                shutil.copyfileobj(pipes[i - 1], fh)


def project_bump(plant, eigs: ModeTable, center, width: float, amplitude: float, count: int) -> np.ndarray:
    """Coefficients <bump, psi_n> of a Gaussian bump, as products of 1-D integrals.

    The bump, the weight mu and phi_n all factor over the axes, so

        <bump, psi_n> = amplitude norm_n prod_i int_0^{l_i} g_i(x) sin(k_i pi x / l_i) dx,
        g_i(x) = exp(-(x - c_i)^2 / (2 width^2)) e^{b_i x / 2},

    each integral on the per-axis rule of `axis_rules`.
    No tensor grid is built.
    """
    center = np.asarray(center, dtype=float)
    if center.shape != (plant.dim,):
        raise ValueError(f"bump center needs {plant.dim} coordinates")
    modes = eigs[:count]
    ks = modes.ks
    out = amplitude * np.full(len(modes), modes.norm)
    for ax, (x, w) in enumerate(axis_rules(plant, max_wavenumber(modes))):
        g = w * np.exp(-((x - center[ax]) ** 2) / (2.0 * width**2) + 0.5 * plant.drift[ax] * x)
        wavenumbers, which = np.unique(ks[:, ax], return_inverse=True)
        sines = np.sin(np.multiply.outer(wavenumbers * math.pi / plant.lengths[ax], x))
        # a row sum, not a BLAS product, so the bytes do not depend on threads
        out *= np.sum(sines * g, axis=1)[which]
    return out
