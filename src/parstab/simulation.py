"""Closed-loop time integration in modal coordinates.

The simulated plant carries N_sim modes, the observer exactly the N the
design was built for. Both evolve jointly as one linear time-invariant system
x' = A x, so x(t + h) = expm(h A) x(t) is exact at every output time. A is
diagonal except for the rows and columns of the n0 observer-head states.
`ClosedLoop.border` builds those parts directly, with no n x n A, and the
in-repo `linalg.expm` evaluates a Taylor polynomial in h A from them,
squared as often as its truncation bound needs, with no LU solve. `run`
computes E = expm(h A) once and keeps no copy of it, fills the first BLOCK
output rows by doubling (rows [0, k) times (E^k)' give rows [k, 2k)),
squaring into one spare array and E's own in turn, and advances each later
block of rows with one matrix product against E^BLOCK, the last of those
squares, into one of two alternating row buffers. Propagation so holds at
most two arrays of the loop's size. The output spacing h is no accuracy or
stability limit.

`ClosedLoop.diagnostics` forms every CSV column from a block of stacked
states in array operations; it is the one place the outputs, the control
norm and the energy proxies are formed. The per-state `ClosedLoop.step` and
`ClosedLoop.w` stay for the benchmark, and the tests keep their
certificate-energy helpers in `tests/oracles.py`.

Forcing enters the plant row n as minus the face inner product of the
control against trace_n, W = -cross_cols @ sum_k Lam_k @ A; the observer
head adds output injection L(y - yhat) and the observer tail rows are rows
N0+1..N of that same matrix W, which keeps the tail estimation error
autonomous. These sign conventions are the load-bearing part of this module.
"""

from __future__ import annotations

import logging
import math
import os
import pickle
import signal
from dataclasses import dataclass, field

import numpy as np

from .lifting import LiftingContext, shift_denominators
from .linalg import Border, expm
from .spectral_basis import ModeTable, axis_rules, max_wavenumber
# perfbench/spans.py wraps these three names here; no stage of the program calls them
from .spectral_basis import eval_phi, face_quadrature, trace_matrix  # noqa: F401
from .synthesis import SynthesisArtifacts, sensor_rows

log = logging.getLogger(__name__)

# output rows per propagation block: rows of block b+1 are rows of block b
# times E^BLOCK, one matrix product per block; a power of two, since the
# first block is filled by doubling
BLOCK = 256
# T/h within this of an integer counts as an integer number of steps
STEP_RATIO_TOL = 1e-9
# largest deviation projection_check may find during a run
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
# one line of the CSV: every column formatted by repr
_CSV_LINE = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
# rows formatted and written at a time by `write_csv`: about 0.25 MB of text
CSV_CHUNK_ROWS = 1024


class SimulationError(RuntimeError):
    pass


@dataclass(frozen=True)
class SimState:
    """Plant coefficients z (length N_sim) and observer coefficients zhat (length N).

    `run` returns the final state as one; perfbench/reference.py builds one
    for `ClosedLoop.w`."""

    t: float
    z: np.ndarray
    zhat: np.ndarray


def default_n_sim(N: int) -> int:
    return max(4 * N, 200)


def default_step(lam_top: float) -> float:
    """Default output spacing min(0.5/lam_{N_sim}, 1e-2).

    The propagator is exact for every h, so h sets only how finely the
    output rows resolve the fastest simulated mode; it bounds no error."""
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
        N_sim: int = None,
        open_loop: bool = False,
    ):
        m = artifacts
        ctx: LiftingContext = m.context
        N = m.N
        n0 = m.n0
        if N_sim is None:
            N_sim = default_n_sim(N)
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
        # per unit U_l; head rows are -B_k A
        lift_all = 0
        for k, g in enumerate(m.gammas):
            Mk = np.zeros((N_sim, n0))
            Mk[:n0] = -m.shifted_grams[k] @ A
            den = shift_denominators(g, lams[n0:], n0=n0, first=n0 + 1)
            Mk[n0:] = -(cross[n0:] @ m.head_lifts[k] @ A) / den[:, None]
            lift_all = lift_all + Mk
        self.lift_all = lift_all

        # plant forcing -<u, trace_n> per unit U, u = sum_k <Lam_k A U, traces>
        self.forcing = -cross @ m.lift_sum() @ A

        self.C_sim = sensor_rows(ctx.eigs[:N_sim], *m.sensors)
        self.C_N = self.C_sim[:, :N]

        w = np.maximum(lams + self.nu, self.nu + lams[0] + 1.0)
        self.h1_weights = w
        # squared face L2 norm of the control as a quadratic form in U
        K = m.lift_sum() @ A
        self.control_form = K.T @ m.trace_gram @ K
        # (Q_k, M_k) of `projection_check`: -diag(lam_k) G_q Lam_k A, with G_q
        # the head Gram on the context's face samples (einsum, no BLAS), and -B_k A
        gram_q = np.einsum("iq,jq,q->ij", ctx.traces, ctx.traces, ctx.quad.weights)
        self.check_maps = [
            (np.einsum("i,ij,jl->il", -np.diag(lift), gram_q, lift @ A), -Bk @ A)
            for lift, Bk in zip(m.head_lifts, m.shifted_grams)
        ]

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
        the open loop zhat, and so U, stays zero."""
        N_sim, N, n0 = self.N_sim, self.N, self.n0
        z, zhat = X[:, :N_sim], X[:, N_sim:]
        U = zhat[:, :n0]
        wn = z - U @ self.lift_all.T
        y = z @ self.C_sim.T
        # sensor contribution of the modes the observer never models
        zeta = wn[:, N:] @ self.C_sim[:, N:].T
        h1 = np.sqrt(wn**2 @ self.h1_weights)
        u_sq = np.sum((U @ self.control_form) * U, axis=1)
        return {
            "l2_proxy": np.linalg.norm(z, axis=1),
            "h1_proxy": h1,
            "y1": y[:, 0],
            "y2": y[:, 1],
            "u_l2_gamma1": np.sqrt(np.maximum(u_sq, 0.0)),
            "err_finite": np.linalg.norm(z[:, :N] - zhat, axis=1),
            "err_residual": np.linalg.norm(z[:, N:], axis=1),
            "zeta1": zeta[:, 0],
            "zeta2": zeta[:, 1],
            "composite": h1 + np.sum(np.abs(zhat[:, :n0]), axis=1),
        }

    # -- integration -------------------------------------------------------

    def exponential(self, h: float) -> np.ndarray:
        """A fresh E = expm(h A), the exact step of length h; nothing is kept."""
        if h <= 0:
            raise ValueError("step size must be positive")
        return expm(self.border().scaled(h))

    def step(self, state: SimState, h: float) -> SimState:
        """One exact step: x(t + h) = expm(h A) x(t). No command calls it;
        perfbench/spans.py wraps it, and `run` propagates whole blocks."""
        y = self.exponential(h) @ np.concatenate([state.z, state.zhat])
        return SimState(t=state.t + h, z=y[: self.N_sim], zhat=y[self.N_sim :])

    # -- consistency check -------------------------------------------------

    def projection_check(self, U: np.ndarray) -> np.ndarray:
        """Dual-route check of the head lifted projections for each row of U.

        U stacks head controls as rows (n0 columns; closed loop, `zhat[:n0]`).
        Per shift k, the quadrature route U Q_k' (head Gram summed on the
        context's face samples) against the matrix route U M_k' (closed-form
        head Gram), with `check_maps` (Q_k, M_k) built with the loop. Returns,
        per row, the max absolute deviation over k and the head modes; the
        products are einsums, so no grid-sized array and no BLAS call.
        """
        worst = np.zeros(len(U))
        for to_quad, to_matrix in self.check_maps:
            route_quad = np.einsum("rj,ij->ri", U, to_quad)
            route_matrix = np.einsum("rj,ij->ri", U, to_matrix)
            np.maximum(worst, np.max(np.abs(route_quad - route_matrix), axis=1), out=worst)
        return worst


@dataclass(frozen=True)
class SimulationRun:
    times: np.ndarray
    records: dict
    rate: float
    final_state: SimState
    diagnostics: dict = field(default_factory=dict)
    states: np.ndarray = field(default=None, repr=False)

    def column(self, name: str) -> np.ndarray:
        return self.records[name]


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
    # the closed-form slope on centred data, in place, so the fit holds two
    # arrays of the kept length; np.polyfit would build a Vandermonde matrix
    # and an lstsq workspace for the same number
    t = times[mask]
    t -= t.mean()
    logs = values[mask]
    np.maximum(logs, 1e-300, out=logs)
    np.log(logs, out=logs)
    logs -= logs.mean()
    logs *= t
    t *= t
    return float(np.sum(logs) / np.sum(t))


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


def _blocks(power: np.ndarray, x0: np.ndarray, n_rows: int):
    """Yield (start, rows) covering x0, E x0, ..., E^(n_rows-1) x0 for E = `power`.

    The first BLOCK rows come by doubling: with rows [0, k) filled, rows
    [k, 2k) are those rows times (E^k)', and E^k is squared to E^2k. The
    squares go into one spare array and E's own, in turn, so E is
    overwritten and at most two n x n arrays are held. They end at
    E^BLOCK, the same products as `np.linalg.matrix_power(E, BLOCK)`; each
    later block is the previous one times E^BLOCK. A yielded block is
    overwritten two blocks later, so a caller that keeps one copies it."""
    block = np.empty((min(BLOCK, n_rows), len(x0)))
    block[0] = x0
    spare = None
    filled = 1  # power is E^filled
    while filled < len(block):
        count = min(filled, len(block) - filled)
        block[filled : filled + count] = block[:count] @ power.T
        filled += count
        if filled < n_rows:
            if spare is None:
                spare = np.empty_like(power)
            np.matmul(power, power, out=spare)
            power, spare = spare, power
    spare = None  # the later blocks need E^BLOCK alone
    yield 0, block
    # later blocks alternate between two buffers: with a fresh array per
    # block glibc trims its heap and faults the pages back in on every block
    # (about 90 000 minor faults on the 300-dim pipeline loop)
    other = np.empty_like(block)
    for start in range(BLOCK, n_rows, BLOCK):
        rows = min(BLOCK, n_rows - start)
        np.matmul(block[:rows], power.T, out=other[:rows])
        block, other = other[:rows], block
        yield start, block


def run(
    z0_coeffs,
    T: float,
    h: float,
    artifacts: SynthesisArtifacts,
    *,
    N_sim: int = None,
    open_loop: bool = False,
    t_skip: float = 2.0,
    check_every: int = 100,
    keep_states: bool = False,
) -> SimulationRun:
    """Propagate the loop over [0, T] and collect the standard diagnostics.

    Rows sit at t = 0, h, 2h, ... and, when T is not a whole number of steps,
    one last row at t = T. On every `check_every`-th row of a closed-loop
    run the head lifted projections of the quadrature route must agree with
    the matrix route to CHECK_TOL (`ClosedLoop.projection_check`);
    disagreement is a hard failure since it means the simulated forcing is
    not the designed forcing. A non-finite state raises SimulationError.
    """
    if T <= 0:
        raise ValueError("T must be positive")
    if check_every < 0:
        raise ValueError("check_every must be non-negative")
    system = ClosedLoop(artifacts, N_sim=N_sim, open_loop=open_loop)
    if h is None:
        h = default_step(system.lams[-1])
    state = init_state(z0_coeffs, system.N_sim, system.N)
    x = np.concatenate([state.z, state.zhat])
    n_steps, rest = _step_count(T, h)
    n_rows = n_steps + 1 + (rest > 0)
    times = np.arange(n_rows) * h
    if rest > 0:
        times[-1] = T
    cols = {name: np.empty(n_rows) for name in CSV_COLUMNS}
    cols["t"] = times
    states = np.empty((n_rows, len(x))) if keep_states else None
    checking = not open_loop and check_every
    check_max = 0.0

    def record(start: int, X: np.ndarray) -> None:
        nonlocal check_max
        stop = start + len(X)
        if not np.all(np.isfinite(X)):
            raise SimulationError(f"state non-finite by t={times[stop - 1]:.3f}")
        for name, col in system.diagnostics(X).items():
            cols[name][start:stop] = col
        if keep_states:
            states[start:stop] = X
        if not checking:
            return
        rows = np.arange(max(1, -(-start // check_every)) * check_every, stop, check_every)
        if not len(rows):
            return
        head = slice(system.N_sim, system.N_sim + system.n0)
        devs = system.projection_check(X[rows - start, head])
        check_max = max(check_max, float(devs.max()))
        bad = np.flatnonzero(devs > CHECK_TOL)
        if len(bad):
            raise SimulationError(
                f"lifted-projection routes disagree by {devs[bad[0]]:.3e} "
                f"at t={times[rows[bad[0]]]:.3f}"
            )

    with np.errstate(over="ignore", invalid="ignore"):
        # E goes to _blocks unnamed here: its squares overwrite it
        for start, X in _blocks(system.exponential(h), x, n_steps + 1):
            record(start, X)
        # a copy, so the final state keeps no block buffer alive
        x = X[-1].copy()
        del X
        if rest > 0:
            x = system.exponential(rest) @ x
            record(n_rows - 1, x[None])
    state = SimState(t=float(times[-1]), z=x[: system.N_sim], zhat=x[system.N_sim :])
    series = cols["composite"] if not open_loop else cols["l2_proxy"]
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
    return SimulationRun(
        times=cols["t"],
        records=cols,
        rate=rate,
        final_state=state,
        diagnostics={
            "projection_check_max": check_max,
            "h": h,
            "N_sim": system.N_sim,
            "open_loop": open_loop,
        },
        states=states,
    )


def _usable_cpus() -> int:
    """CPUs this process may run on; `write_csv` splits its rows into as many slices."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _format_rows(chunk: np.ndarray) -> str:
    """CSV lines of the rows of `chunk`, each float by repr so it round-trips."""
    return "".join([_CSV_LINE % row for row in map(tuple, chunk.tolist())])


def _formatted(cols, start: int, stop: int):
    """Encoded CSV lines of rows [start, stop), one CSV_CHUNK_ROWS chunk at a time."""
    for s in range(start, stop, CSV_CHUNK_ROWS):
        chunk = np.column_stack([c[s : min(s + CSV_CHUNK_ROWS, stop)] for c in cols])
        yield _format_rows(chunk).encode()


def _fork_formatter(cols, start: int, stop: int) -> tuple:
    """(pid, pipe) of a forked child that formats rows [start, stop).

    The child formats all its rows before it writes any, so it never waits
    on the pipe while the caller is still formatting. It then sends a zero
    byte and the lines, or a one byte and its pickled exception, and exits
    without running any cleanup of the process it was forked from. A child
    that cannot send either exits with status 1 and sends nothing."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid:
        os.close(write_fd)
        return pid, os.fdopen(read_fd, "rb")
    code = 1
    try:
        os.close(read_fd)
        with os.fdopen(write_fd, "wb") as pipe:
            try:
                lines = list(_formatted(cols, start, stop))
            except BaseException as err:  # noqa: BLE001  raised again by the caller
                pipe.write(b"\1" + pickle.dumps(err))
            else:
                pipe.write(b"\0")
                pipe.writelines(lines)
        code = 0
    finally:
        os._exit(code)


def _copy_child(pipe, fh) -> None:
    """Append the lines a `_fork_formatter` child sends to `fh`, or raise its exception."""
    status = pipe.read(1)
    if status == b"\1":
        raise pickle.loads(pipe.read())
    if status != b"\0":
        raise SimulationError("a CSV formatter ended without output")
    # about one chunk's text at a time, so copying holds no more than
    # formatting a chunk does
    while data := pipe.read(1 << 18):
        fh.write(data)


def write_csv(run_result: SimulationRun, path) -> None:
    """Header, then one line per record in CSV_COLUMNS order.

    The rows are split into one contiguous slice per usable CPU, at most one
    per CSV_CHUNK_ROWS chunk, since the repr of each float is most of the
    cost. This process formats slice 0 and writes it one chunk at a time;
    a child forked by `_fork_formatter` formats each other slice and streams
    it back over a pipe, and the slices are written in order. Without
    `os.fork` this process formats every slice. The bytes are the same
    either way. An exception raised in a child is raised here, and every
    child is reaped before this returns or raises. Children only format
    strings and never call BLAS. Forking is safe only while no other thread
    of this process is inside a BLAS call: OpenBLAS stops its thread pool
    around fork, and a sweep that ran its entries on threads hung in most
    runs once its CSVs spanned several chunks (a thread spinning, the BLAS
    worker gone).
    """
    cols = [run_result.records[name] for name in CSV_COLUMNS]
    n_rows = len(cols[0])
    slices = 1
    if hasattr(os, "fork"):
        slices = max(1, min(_usable_cpus(), -(-n_rows // CSV_CHUNK_ROWS)))
    bounds = [n_rows * i // slices for i in range(slices + 1)]
    children = []
    statuses = []
    with open(path, "wb") as fh:
        fh.write((",".join(CSV_COLUMNS) + "\n").encode())
        try:
            for i in range(1, slices):
                children.append(_fork_formatter(cols, bounds[i], bounds[i + 1]))
            fh.writelines(_formatted(cols, 0, bounds[1]))
            for _, pipe in children:
                _copy_child(pipe, fh)
        except BaseException:
            for pid, _ in children:
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            for pid, pipe in children:
                pipe.close()
                statuses.append(os.waitpid(pid, 0)[1])
    if any(statuses):
        raise SimulationError(f"CSV formatters ended with wait statuses {statuses}")


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
