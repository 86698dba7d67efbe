import copy
import csv
import dataclasses
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from parstab import simulation
from parstab.certification import solve_lyapunov
from parstab.simulation import (
    CSV_CHUNK_ROWS,
    CSV_COLUMNS,
    ClosedLoop,
    SimState,
    SimulationError,
    SimulationRun,
    default_n_sim,
    default_step,
    estimate_decay_rate,
    init_state,
    project_bump,
    run,
    write_csv,
)
from parstab.spectral_basis import (
    PlantConfig,
    axis_rules,
    enumerate_eigenpairs,
    eval_phi,
    face_quadrature,
    gauss_panels,
    max_wavenumber,
    trace_matrix,
)

from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, traced_peak
from oracles import certificate_energy


def test_defaults():
    assert default_n_sim(60) == 240
    assert default_n_sim(30) == 200
    assert default_step(50.0) == pytest.approx(1e-2)
    assert default_step(1000.0) == pytest.approx(5e-4)


def test_init_state_pads_and_truncates():
    s = init_state([1.0, 2.0], 6, 3)
    assert np.array_equal(s.z, [1, 2, 0, 0, 0, 0])
    assert np.array_equal(s.zhat, np.zeros(3))
    assert s.t == 0.0
    long = init_state(np.ones(100), 6, 3)
    assert np.array_equal(long.z, np.ones(6))


def test_init_state_rejects_bad_input():
    with pytest.raises(ValueError):
        init_state([1.0], 3, 6)
    with pytest.raises(ValueError):
        init_state([np.nan], 6, 3)


def test_bump_projection_against_simpson(example_plant, example_eigs):
    coeffs = project_bump(example_plant, example_eigs, (1.2, 2.0), 0.4, 2.0, 5)
    xs = np.linspace(0.0, np.pi, 801)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    bump = 2.0 * np.exp(-((X - 1.2) ** 2 + (Y - 2.0) ** 2) / (2 * 0.4**2))
    mu = np.exp(3.0 * (X + Y))
    for n, (i, j) in enumerate(example_eigs.ks[:5].tolist()):
        phi = (
            (2 / np.pi)
            * np.exp(-1.5 * (X + Y))
            * np.sin(i * X)
            * np.sin(j * Y)
        )
        want = simpson(simpson(bump * mu * phi, x=xs, axis=1), x=xs)
        assert coeffs[n] == pytest.approx(want, rel=1e-8, abs=1e-12)


def _bump_on_tensor_grid(plant, eigs, center, width, amplitude, count, rules):
    """<bump, psi_n> summed over the tensor product of the per-axis rules."""
    grids = np.meshgrid(*[x for x, _ in rules], indexing="ij")
    pts = np.column_stack([g.ravel() for g in grids])
    w = rules[0][1]
    for _, wa in rules[1:]:
        w = np.multiply.outer(w, wa)
    bump = amplitude * np.exp(-np.sum((pts - center) ** 2, axis=1) / (2.0 * width**2))
    return eval_phi(eigs[:count], pts) @ (np.ravel(w) * plant.mu(pts) * bump)


@pytest.mark.parametrize(
    "plant, center, count, panels",
    [
        (PlantConfig(dim=2, drift=(3.0, 3.0), reaction=10.0), (1.2, 2.0), 40, None),
        (PlantConfig(dim=2, lengths=(1.0, 2.5), drift=(-1.0, 0.5)), (0.3, 1.9), 16, None),
        (PlantConfig(dim=3, drift=(0.5, -0.3, 0.2), reaction=2.0), (1.0, 1.7, 2.0), 10, 4),
    ],
)
def test_bump_projection_matches_the_tensor_grid(plant, center, count, panels):
    eigs = enumerate_eigenpairs(plant, count + 1)
    if panels is None:  # the 1-D rules whose tensor product is the oracles' interior rule
        rules = axis_rules(plant, max_wavenumber(eigs[:count]))
    else:  # 64^3 points; the full-size 3-D rule would not fit in memory
        rules = [gauss_panels(l, panels) for l in plant.lengths]
    want = _bump_on_tensor_grid(plant, eigs, np.array(center), 0.35, 1.3, count, rules)
    got = project_bump(plant, eigs, center, 0.35, 1.3, count)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_bump_projection_at_240_modes_needs_no_grid(example_plant):
    eigs = enumerate_eigenpairs(example_plant, 241)
    tracemalloc.start()
    try:
        coeffs = project_bump(example_plant, eigs, (1.2, 2.0), 0.4, 2.0, 240)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the tensor interior rule for these modes was estimated at about 10 GB
    assert peak < 5e6
    # two of the highest modes against Simpson's rule on a fine 2-D grid
    xs = np.linspace(0.0, np.pi, 801)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    bump_mu = 2.0 * np.exp(-((X - 1.2) ** 2 + (Y - 2.0) ** 2) / (2 * 0.4**2) + 3.0 * (X + Y))
    for n in (200, 239):
        phi = eval_phi(eigs[n : n + 1], pts).reshape(X.shape)
        want = simpson(simpson(bump_mu * phi, x=xs, axis=1), x=xs)
        assert coeffs[n] == pytest.approx(want, rel=1e-6, abs=1e-9 * np.max(np.abs(coeffs)))


def test_bump_center_needs_one_coordinate_per_axis(example_plant, example_eigs):
    with pytest.raises(ValueError, match="2 coordinates"):
        project_bump(example_plant, example_eigs, (1.0, 1.0, 1.0), 0.3, 1.0, 5)


def test_open_loop_step_is_exact_modal_decay(example_art30):
    system = ClosedLoop(example_art30, N_sim=60, open_loop=True)
    state = init_state(np.ones(60), 60, 30)
    h = 1e-3
    out = system.step(state, h)
    assert np.allclose(out.z, np.exp(-system.lams * h), rtol=1e-13)
    assert not np.any(out.zhat)


def test_outputs_and_controls_at_start(example_art30):
    system = ClosedLoop(example_art30, N_sim=60)
    state = init_state([1.0], 60, 30)
    x = np.concatenate([state.z, state.zhat])
    diag = system.diagnostics(x[None])
    first = example_art30.eigs[:1]
    assert diag["y1"][0] == pytest.approx(float(eval_phi(first, EXAMPLE_SENSOR_1)[0, 0]))
    assert diag["y2"][0] == pytest.approx(float(eval_phi(first, EXAMPLE_SENSOR_2)[0, 0]))
    # observer starts at zero, so no control authority yet
    assert diag["u_l2_gamma1"][0] == 0.0
    assert not np.any(x[60 : 60 + system.n0])


def test_step_linearity(example_art30):
    system = ClosedLoop(example_art30, N_sim=60)
    rng = np.random.default_rng(3)
    x = rng.standard_normal(60)
    zh = rng.standard_normal(30)
    a = SimState(t=0.0, z=x, zhat=zh)
    b = SimState(t=0.0, z=3.7 * x, zhat=3.7 * zh)
    sa = system.step(a, 1e-3)
    sb = system.step(b, 1e-3)
    assert np.allclose(3.7 * sa.z, sb.z, rtol=1e-10, atol=1e-12)
    assert np.allclose(3.7 * sa.zhat, sb.zhat, rtol=1e-10, atol=1e-12)


def test_zero_state_stays_zero(example_art30):
    result = run(np.zeros(5), 0.2, 1e-3, example_art30, N_sim=60, check_every=50)
    for name in CSV_COLUMNS:
        if name == "t":
            continue
        assert not np.any(result.column(name))


def test_tail_error_is_autonomous(example_art30):
    # modes between N0 and N receive the same forcing in plant and observer,
    # so their error decays exactly modally even while the loop is active
    system = ClosedLoop(example_art30, N_sim=60)
    state = init_state(np.ones(10), 60, 30)
    n0, N = 3, 30
    e0 = system.lams[n0:N] * (state.z[n0:N] - state.zhat[n0:N])
    h, t_end = 2e-4, 1.0
    result = run(np.ones(10), t_end, h, example_art30, N_sim=60, keep_states=True)
    assert len(result.times) == int(round(t_end / h)) + 1
    x = result.states[-1]
    et = system.lams[n0:N] * (x[n0:N] - x[60 + n0 : 60 + N])
    want = e0 * np.exp(-system.lams[n0:N] * t_end)
    assert np.max(np.abs(et - want)) < 1e-7


def test_forcing_is_minus_the_face_inner_product(example_art60, example_ctx):
    m = example_art60
    system = ClosedLoop(m, N_sim=240)
    U = np.array([0.4, -1.1, 0.7])
    # a rule sized to all 240 modes; the context's own covers the head only
    quad = face_quadrature(m.plant, max_wavenumber(example_ctx.eigs[:240]))
    traces = trace_matrix(example_ctx.eigs[:240], quad)
    u = (m.lift_sum() @ m.gram_inverse @ U) @ traces[: m.n0]
    want = -traces @ (quad.weights * u)
    got = system.forcing @ U
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(got))
    # the observer tail is forced by the plant's own rows N0+1..N
    obs_tail = system.full_matrix[240 + m.n0 : 240 + m.N, 240 : 240 + m.n0]
    assert np.array_equal(obs_tail, system.forcing[m.n0 : m.N])


def test_projection_check_consistency(example_art30):
    system = ClosedLoop(example_art30, N_sim=60)
    U = np.vstack([np.ones(3), np.zeros(3), np.random.default_rng(4).standard_normal((3, 3))])
    devs = system.projection_check(U)
    assert devs.shape == (5,)
    assert np.all(devs < 1e-8) and devs[1] == 0.0
    # a matrix route off by 1 % is caught in every row but the zero one
    system.check_maps = [(quad, 1.01 * matrix) for quad, matrix in system.check_maps]
    devs = system.projection_check(U)
    assert devs[1] == 0.0 and np.all(np.delete(devs, 1) > 1e-3)


def test_projection_check_catches_a_quadrature_route_error(example_art30):
    # context traces scaled by sqrt(1.01) put the face-rule Gram off by 1 %
    ctx = copy.copy(example_art30.context)
    ctx.traces = ctx.traces * math.sqrt(1.01)
    art = dataclasses.replace(example_art30, context=ctx)
    U = np.vstack([np.ones(3), np.zeros(3), np.random.default_rng(4).standard_normal((3, 3))])
    devs = ClosedLoop(art, N_sim=60).projection_check(U)
    assert devs[1] == 0.0 and np.all(np.delete(devs, 1) > 1e-3)
    # rows 50, 100, ...: the first check row fails the run
    with pytest.raises(SimulationError, match=r"disagree by .* at t=0\.050$"):
        run(np.ones(5), 0.6, 1e-3, art, N_sim=60, check_every=50)


def test_projection_checks_run_once_per_block(example_art30, monkeypatch):
    check = ClosedLoop.projection_check
    calls = []

    def counted(self, U):
        calls.append(len(U))
        return check(self, U)

    monkeypatch.setattr(ClosedLoop, "projection_check", counted)
    result = run(np.ones(5), 0.6, 1e-3, example_art30, N_sim=60, check_every=50)
    # rows 50, 100, ..., 600 in blocks [0, 256), [256, 512) and [512, 601)
    assert calls == [5, 5, 2]
    assert 0.0 < result.diagnostics["projection_check_max"] < 1e-8

    def failing_from_second_row(self, U):
        devs = check(self, U)
        devs[1:] = 1.0
        return devs

    monkeypatch.setattr(ClosedLoop, "projection_check", failing_from_second_row)
    with pytest.raises(SimulationError, match=r"disagree by 1\.000e\+00 at t=0\.100$"):
        run(np.ones(5), 0.6, 1e-3, example_art30, N_sim=60, check_every=50)


def test_run_bookkeeping(example_art30):
    result = run(np.ones(5), 0.25, 1e-3, example_art30, N_sim=60, check_every=50)
    assert len(result.times) == 251
    assert result.times[0] == 0.0
    assert np.allclose(np.diff(result.times), 1e-3)
    assert math.isnan(result.rate)  # nothing survives the default 2 s skip
    assert result.diagnostics["N_sim"] == 60
    assert result.diagnostics["open_loop"] is False
    assert 0.0 <= result.diagnostics["projection_check_max"] < 1e-8


def test_composite_column_definition(example_art30):
    result = run(
        np.ones(5), 0.1, 1e-3, example_art30, N_sim=60, check_every=0, keep_states=True
    )
    system = ClosedLoop(example_art30, N_sim=60)
    last = SimState(t=result.times[-1], z=result.states[-1, :60], zhat=result.states[-1, 60:])
    wn = system.w(last)
    h1 = math.sqrt(float(np.add.reduce(system.h1_weights * wn**2)))
    head = float(np.add.reduce(np.abs(last.zhat[:3])))
    assert result.column("composite")[-1] == pytest.approx(h1 + head, rel=1e-12)
    assert result.column("h1_proxy")[-1] == pytest.approx(h1, rel=1e-12)


def test_certificate_energy_decays_on_certified_design(mild_art30):
    P = solve_lyapunov(mild_art30.closed_loop, mild_art30.delta)
    h = 1e-3
    result = run(
        np.ones(8), 3.0, h, mild_art30, N_sim=200, check_every=200, keep_states=True
    )
    system = ClosedLoop(mild_art30, N_sim=200)
    decay = math.exp(-2.0 * mild_art30.delta * h)
    values = certificate_energy(system, result.states, P)
    ratios = values[1:] / (values[:-1] * decay)
    assert np.max(ratios) < 1.0 + 1e-3


def test_run_gives_up_on_non_finite(example_art30):
    with pytest.raises(SimulationError, match="non-finite"):
        run(np.full(5, 1e308), 0.5, 1e-3, example_art30, N_sim=60)


def test_run_rows_match_matrix_exponential(example_art30):
    # rows on both sides of the first block boundary and the last row
    h = 1e-3
    z0 = np.linspace(1.0, -1.0, 8)
    result = run(z0, 0.3, h, example_art30, N_sim=60, keep_states=True)
    assert len(result.times) == 301
    A = ClosedLoop(example_art30, N_sim=60).full_matrix
    s0 = init_state(z0, 60, 30)
    x0 = np.concatenate([s0.z, s0.zhat])
    for i in (0, 1, 255, 256, 257, 300):
        want = expm(result.times[i] * A) @ x0
        assert np.linalg.norm(result.states[i] - want) <= 1e-10 * np.linalg.norm(want)
    # the final state is a copy of the last row, not a view into a block buffer
    final = result.final_state
    assert final.z.base.size == 60 + 30 and final.zhat.base is final.z.base
    assert np.array_equal(np.concatenate([final.z, final.zhat]), result.states[-1])


@pytest.fixture(scope="module")
def contraction():
    # a dense non-normal E of spectral radius about 0.999, so 800 powers stay finite
    rng = np.random.default_rng(3)
    E = rng.standard_normal((7, 7))
    E *= 0.999 / np.max(np.abs(np.linalg.eigvals(E)))
    return E, rng.standard_normal(7)


@pytest.mark.parametrize(
    "n_rows",
    [1, 2, 3, simulation.BLOCK - 1, simulation.BLOCK, simulation.BLOCK + 1, 3 * simulation.BLOCK + 5],
)
def test_blocks_match_explicit_powers(contraction, n_rows):
    E, x0 = contraction
    # _blocks squares into E's own buffer, so it gets a copy, and reuses its
    # block buffers, so each block is copied
    blocks = [(start, rows.copy()) for start, rows in simulation._blocks(E.copy(), x0, n_rows)]
    assert [start for start, _ in blocks] == list(range(0, n_rows, simulation.BLOCK))
    got = np.concatenate([rows for _, rows in blocks])
    assert got.shape == (n_rows, len(x0))
    assert np.array_equal(got[0], x0)
    want = np.empty_like(got)
    want[0] = x0
    for k in range(1, n_rows):
        want[k] = E @ want[k - 1]
    scale = np.linalg.norm(want, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * scale)


def test_blocks_advance_by_matrix_power(contraction):
    E, x0 = contraction
    (_, first), (_, second) = simulation._blocks(E.copy(), x0, 2 * simulation.BLOCK)
    E_block = np.linalg.matrix_power(E, simulation.BLOCK)
    assert np.array_equal(second, first @ E_block.T)


def test_run_ends_at_T_with_a_partial_step(example_art30):
    z0 = np.ones(5)
    result = run(z0, 0.25, 0.1, example_art30, N_sim=60, check_every=1, keep_states=True)
    assert np.allclose(result.times, [0.0, 0.1, 0.2, 0.25], rtol=0, atol=1e-15)
    assert result.times[-1] == 0.25
    assert result.final_state.t == 0.25
    A = ClosedLoop(example_art30, N_sim=60).full_matrix
    s0 = init_state(z0, 60, 30)
    want = expm(0.25 * A) @ np.concatenate([s0.z, s0.zhat])
    got = np.concatenate([result.final_state.z, result.final_state.zhat])
    assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)
    assert np.array_equal(result.states[-1], got)
    # 0.3 / 0.1 is 2.9999999999999996 in floating point: three whole steps
    assert len(run(z0, 0.3, 0.1, example_art30, N_sim=60).times) == 4


def test_step_rejects_nonpositive_h(example_art30):
    system = ClosedLoop(example_art30, N_sim=60)
    with pytest.raises(ValueError):
        system.step(init_state([1.0], 60, 30), 0.0)


def test_n_sim_bounds(example_art30):
    with pytest.raises(ValueError):
        ClosedLoop(example_art30, N_sim=20)
    with pytest.raises(ValueError):
        ClosedLoop(example_art30, N_sim=10_000)


def test_estimate_decay_rate_cases():
    t = np.linspace(0.0, 10.0, 1001)
    assert estimate_decay_rate(t, np.exp(-2.0 * t), 2.0) == pytest.approx(-2.0, abs=1e-9)
    wobble = np.exp(-2.0 * t) * (2.0 + np.cos(5.0 * t))
    assert -2.2 < estimate_decay_rate(t, wobble, 2.0) < -1.8
    assert estimate_decay_rate(t, np.full_like(t, 3.0), 2.0) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        estimate_decay_rate(t[:5], np.exp(-t[:5]), 0.0)


@settings(max_examples=25, deadline=None)
@given(rate=st.floats(min_value=-5.0, max_value=5.0, allow_nan=False))
def test_estimate_decay_rate_recovers_pure_exponentials(rate):
    t = np.linspace(0.0, 10.0, 501)
    got = estimate_decay_rate(t, np.exp(rate * t), 2.0)
    assert got == pytest.approx(rate, abs=1e-6)


@settings(max_examples=60, deadline=None)
@given(
    rate=st.floats(min_value=-5.0, max_value=5.0),
    noise=st.floats(min_value=0.0, max_value=1.0),
    kept=st.integers(min_value=10, max_value=500),
    skipped=st.integers(min_value=0, max_value=300),
    zeros=st.integers(min_value=0, max_value=3),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_estimate_decay_rate_matches_polyfit(rate, noise, kept, skipped, zeros, seed):
    # noisy exponentials at unsorted times, a few exact zeros hitting the
    # floor, and a t_skip that keeps `kept` samples
    rng = np.random.default_rng(seed)
    t = np.sort(rng.uniform(0.0, 20.0, kept + skipped))
    t_skip = t[skipped]
    v = np.exp(rate * t + noise * rng.standard_normal(len(t)))
    v[rng.choice(len(t), zeros, replace=False)] = 0.0
    order = rng.permutation(len(t))
    t, v = t[order], v[order]
    m = t >= t_skip
    assert int(m.sum()) == kept
    want = np.polyfit(t[m], np.log(np.maximum(v[m], 1e-300)), 1)[0]
    got = estimate_decay_rate(t, v, t_skip)
    assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
    # the out-of-place closed form, to the bit: the same products and sums
    tc = t[m] - t[m].mean()
    logs = np.log(np.maximum(v[m], 1e-300))
    logs -= logs.mean()
    assert got == float(np.sum(tc * logs) / np.sum(tc * tc))


def test_csv_round_trip(tmp_path, example_art30):
    result = run(np.ones(5), 0.05, 1e-3, example_art30, N_sim=60, check_every=0)
    path = tmp_path / "series.csv"
    write_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(result.times) + 1
    for j, name in enumerate(CSV_COLUMNS):
        col = result.column(name)
        for i, row in enumerate(rows[1:]):
            assert float(row[j]) == col[i]


def _reference_csv(records, path) -> None:
    """The writer before chunking: every column to a list, one format per row."""
    cols = [records[name].tolist() for name in CSV_COLUMNS]
    line = ",".join(["%r"] * len(CSV_COLUMNS)) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        fh.writelines(line % row for row in zip(*cols))


def _records(n_rows: int) -> dict:
    """Columns of mixed magnitude with -0.0, 1e-05, 1e16, 5e-324, nan and
    both infinities spread over the table, first and last cell included."""
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, len(CSV_COLUMNS)))
    table *= 10.0 ** rng.integers(-30, 30, size=table.shape)
    specials = [-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, -np.inf]
    cells = np.linspace(0, table.size - 1, min(table.size, 3 * len(specials))).astype(int)
    table.ravel()[cells] = np.resize(specials, len(cells))
    return {name: table[:, j].copy() for j, name in enumerate(CSV_COLUMNS)}


def _sim_run(records: dict) -> SimulationRun:
    return SimulationRun(times=records["t"], records=records, rate=0.0, final_state=None)


def _pid_rows(chunk) -> str:
    return f"{os.getpid()}\n"


def _refuse_rows(chunk) -> str:
    raise ValueError("chunk refused")


def _refuse_rows_in_children(caller: int):
    def fmt(chunk) -> str:
        if os.getpid() != caller:
            raise ValueError("chunk refused in a child")
        return ""

    return fmt


def _exit_in_children(caller: int):
    def fmt(chunk) -> str:
        if os.getpid() != caller:
            os._exit(3)
        return ""

    return fmt


def _assert_no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize(
    "n_rows",
    # at and around one chunk and eight, and slices of many chunks
    [
        1,
        CSV_CHUNK_ROWS - 1,
        CSV_CHUNK_ROWS,
        CSV_CHUNK_ROWS + 1,
        8 * CSV_CHUNK_ROWS - 1,
        8 * CSV_CHUNK_ROWS,
        8 * CSV_CHUNK_ROWS + 1,
        2 * 5 * CSV_CHUNK_ROWS + 7,
        24 * CSV_CHUNK_ROWS + 5,
    ],
)
def test_csv_bytes_match_the_one_format_per_row_writer(tmp_path, monkeypatch, n_rows, workers):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    records = _records(n_rows)
    _reference_csv(records, tmp_path / "want.csv")
    write_csv(_sim_run(records), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    _assert_no_children_left()


@pytest.mark.parametrize("workers, n_rows", [(1, 20_001), (2, 100_001)], ids=["serial", "fork"])
def test_csv_writer_holds_about_one_chunk_of_text(tmp_path, monkeypatch, workers, n_rows):
    # the caller holds one chunk's lines and one read from a child's pipe at
    # a time, however many rows there are (the pipeline writes 100 001)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    records = _sim_run(_records(n_rows))
    assert traced_peak(write_csv, records, tmp_path / "big.csv") <= 3e6
    _assert_no_children_left()


@pytest.mark.parametrize("cpus", [2, 3])
def test_csv_caller_formats_slice_zero_and_children_the_rest(tmp_path, monkeypatch, cpus):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulation, "_format_rows", _pid_rows)
    write_csv(_sim_run(_records(2 * cpus * CSV_CHUNK_ROWS)), tmp_path / "pids.csv")
    pids = (tmp_path / "pids.csv").read_text().splitlines()[1:]
    # one line per chunk: two chunks per slice, slices in order
    assert len(pids) == 2 * cpus
    assert pids[:2] == [str(os.getpid())] * 2
    children = pids[2::2]
    assert pids[3::2] == children
    assert len(set(children)) == cpus - 1 and str(os.getpid()) not in children
    _assert_no_children_left()


def test_csv_error_in_the_caller_kills_and_reaps_every_child(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simulation, "_format_rows", _refuse_rows)
    with pytest.raises(ValueError, match="chunk refused"):
        write_csv(_sim_run(_records(3 * CSV_CHUNK_ROWS)), tmp_path / "never.csv")
    _assert_no_children_left()


def test_csv_worker_error_reaches_the_caller(tmp_path, monkeypatch):
    # both children fail; the first one's exception is raised, the other child is killed
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(simulation, "_format_rows", _refuse_rows_in_children(os.getpid()))
    with pytest.raises(ValueError, match="chunk refused in a child"):
        write_csv(_sim_run(_records(3 * CSV_CHUNK_ROWS)), tmp_path / "never.csv")
    _assert_no_children_left()


def test_csv_child_that_dies_fails_the_write(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_format_rows", _exit_in_children(os.getpid()))
    with pytest.raises(SimulationError, match="without output"):
        write_csv(_sim_run(_records(2 * CSV_CHUNK_ROWS)), tmp_path / "never.csv")
    _assert_no_children_left()


def test_csv_without_fork_formats_every_slice_in_the_caller(tmp_path, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(simulation, "_format_rows", _pid_rows)
    monkeypatch.delattr(os, "fork")
    write_csv(_sim_run(_records(2 * CSV_CHUNK_ROWS)), tmp_path / "pids.csv")
    assert (tmp_path / "pids.csv").read_text().splitlines()[1:] == [str(os.getpid())] * 2
