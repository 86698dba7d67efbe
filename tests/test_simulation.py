import copy
import csv
import dataclasses
import errno
import json
import logging
import math
import mmap
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import simpson
from scipy.linalg import expm

from parstab import _shortest, lifting, simulation
from parstab.certification import solve_lyapunov
from parstab.cli import main
from parstab.linalg import Border, Factored
from parstab.linalg import expm as expm_border
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
from oracles import (
    certificate_energy,
    diagnostics_reference,
    factored_array,
    loop_states,
    projection_defects,
    projection_deviations,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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
    result = run(np.zeros(5), 0.2, 1e-3, example_art30, N_sim=60)
    for name in CSV_COLUMNS:
        if name == "t":
            continue
        assert not np.any(result.records[name])


def test_tail_error_is_autonomous(example_art30):
    # modes between N0 and N receive the same forcing in plant and observer,
    # so their error decays exactly modally even while the loop is active
    system = ClosedLoop(example_art30, N_sim=60)
    state = init_state(np.ones(10), 60, 30)
    n0, N = 3, 30
    e0 = system.lams[n0:N] * (state.z[n0:N] - state.zhat[n0:N])
    h, t_end = 2e-4, 1.0
    n_rows = int(round(t_end / h)) + 1
    assert len(run(np.ones(10), t_end, h, example_art30, N_sim=60).times) == n_rows
    x = loop_states(system.exponential(h), np.concatenate([state.z, state.zhat]), 0, n_rows)[-1]
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
    u = (m.lift_sum() * (m.gram_inverse @ U)) @ traces[: m.n0]
    want = -traces @ (quad.weights * u)
    got = system.forcing @ U
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(got))
    # the observer tail is forced by the plant's own rows N0+1..N
    obs_tail = system.full_matrix[240 + m.n0 : 240 + m.N, 240 : 240 + m.n0]
    assert np.array_equal(obs_tail, system.forcing[m.n0 : m.N])


def _with_scaled_traces(art, factor):
    """`art` on a copy of its context whose head trace samples are scaled
    by `factor`, so that the face-rule Gram is off by factor^2."""
    ctx = copy.copy(art.context)
    ctx.traces = ctx.traces * factor
    return dataclasses.replace(art, context=ctx)


def test_projection_check_consistency(example_art30):
    gain = ClosedLoop(example_art30, N_sim=60).projection_check()
    assert isinstance(gain, float) and 0.0 < gain < 1e-8
    # a matrix route off by 1 % is caught
    art = dataclasses.replace(example_art30, shifted_grams=[1.01 * Bk for Bk in example_art30.shifted_grams])
    assert ClosedLoop(art, N_sim=60).projection_check() > 1e-3


@pytest.mark.parametrize("factor", [1.0, math.sqrt(1.01)], ids=["design", "gram_off_1pc"])
def test_projection_check_bounds_each_rows_deviation(example_art30, factor):
    art = _with_scaled_traces(example_art30, factor)
    gain = ClosedLoop(art, N_sim=60).projection_check()
    # random rows, and rows with the signs of each row of each Q_k - M_k,
    # on which the bound max|U| * gain is attained
    defects = projection_defects(art)
    tight = np.vstack([np.sign(D) for D in defects])
    U = np.vstack([np.random.default_rng(5).standard_normal((40, 3)), tight])
    devs = np.max(np.abs(U), axis=1) * gain
    want = projection_deviations(art, U)
    assert np.all(want > 0)
    assert np.all(devs >= want * (1 - 1e-12))
    assert np.max(want[40:] / devs[40:]) == pytest.approx(1.0, rel=1e-12)


def test_projection_check_catches_a_quadrature_route_error(example_art30, tmp_path, monkeypatch, capsys):
    # context traces scaled by sqrt(1.01) put the face-rule Gram off by 1 %
    art = _with_scaled_traces(example_art30, math.sqrt(1.01))
    assert ClosedLoop(art, N_sim=60).projection_check() > 1e-3
    # refused before any row is propagated
    calls = _counted_blocks(monkeypatch)
    with pytest.raises(SimulationError, match=r"disagree by up to .* per unit of head control$"):
        run(np.ones(5), 0.6, 1e-3, art, N_sim=60)
    assert calls == []
    # through the CLI: exit 4 and nothing written
    _trace_matrix_off_by_one_percent(monkeypatch)
    config = os.path.join(ROOT, "demos", "quick_certify.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
    assert "lifted-projection routes disagree" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


def _trace_matrix_off_by_one_percent(monkeypatch) -> None:
    """`lifting.trace_matrix` scaled by sqrt(1.01): every context's face-rule
    Gram is off by 1 %."""
    exact = lifting.trace_matrix

    def off_by_one_percent(eigs, quad):
        return exact(eigs, quad) * math.sqrt(1.01)

    monkeypatch.setattr(lifting, "trace_matrix", off_by_one_percent)


def _demo_with_z0_scaled(tmp_path, demo: str, scale: float) -> str:
    """The path of a copy of demos/`demo` with its z0 coeffs times `scale`
    and T = 0.2, past t = 0.163, where the strong-drift loop at z0 x 1e4
    used to be refused."""
    with open(os.path.join(ROOT, "demos", demo)) as fh:
        cfg = json.load(fh)
    z0 = cfg["simulation"]["z0"]
    z0["coeffs"] = [scale * c for c in z0["coeffs"]]
    cfg["simulation"]["T"] = 0.2
    path = tmp_path / f"{scale:g}_{demo}"
    path.write_text(json.dumps(cfg))
    return str(path)


# the check takes the loop's gain, not the size of its trajectory: a bound
# of max|U| times the gain on every row refused this loop at z0 x 1e4 and
# passed the 1 % fault below at z0 x 1e-6
def test_the_correct_strong_drift_loop_passes_the_check_at_a_large_z0(tmp_path):
    config = _demo_with_z0_scaled(tmp_path, "strong_drift_pipeline.json", 1e4)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    with open(tmp_path / "o" / "summary.json") as fh:
        assert 0.0 < json.load(fh)["projection_check_max"] < 1e-8


# z0 x 1 is `test_projection_check_catches_a_quadrature_route_error`
def test_a_quadrature_route_error_is_refused_at_a_small_z0(tmp_path, monkeypatch, capsys):
    config = _demo_with_z0_scaled(tmp_path, "quick_certify.json", 1e-6)
    _trace_matrix_off_by_one_percent(monkeypatch)
    calls = _counted_blocks(monkeypatch)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
    assert "lifted-projection routes disagree" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "o").exists()


_DIAGNOSTICS = ClosedLoop.diagnostics


def _counted_blocks(monkeypatch, fail_in_call=None, fail_from_row=0):
    """Record the row count of each `ClosedLoop.diagnostics` call, one per
    recorded block; call number `fail_in_call` (from 1) of this process
    raises SimulationError naming row `fail_from_row` of its block.

    A block's first row is the one `simulation._rows` gave it; the partial
    last row at T follows on from the last block this process recorded. A
    forked child counts its own calls, so its failure names a row of its
    segment, not of segment 0."""
    calls = []
    first = [0]
    real = simulation._rows

    def marking(E, power, B, x0, start, stop):
        for s, X in real(E, power, B, x0, start, stop):
            first[0] = s
            yield s, X

    def counted(self, X):
        calls.append(len(X))
        row, first[0] = first[0], first[0] + len(X)
        if len(calls) == fail_in_call:
            raise SimulationError(f"injected failure at row {row + fail_from_row}")
        return _DIAGNOSTICS(self, X)

    monkeypatch.setattr(simulation, "_rows", marking)
    monkeypatch.setattr(ClosedLoop, "diagnostics", counted)
    return calls


def test_projection_checks_run_once_per_block(example_art30, monkeypatch):
    # one check per run, before any block is recorded, then one
    # diagnostics call per block
    calls = _counted_blocks(monkeypatch)
    checks = []
    check = ClosedLoop.projection_check

    def counted(self):
        checks.append(len(calls))
        return check(self)

    monkeypatch.setattr(ClosedLoop, "projection_check", counted)
    result = run(np.ones(5), 0.6, 1e-3, example_art30, N_sim=60)
    assert checks == [0]
    # every one of the 601 rows, in blocks [0, 256), [256, 512) and [512, 601)
    assert calls == [256, 256, 89]
    assert result.projection_check_max == check(ClosedLoop(example_art30, N_sim=60))
    assert 0.0 < result.projection_check_max < 1e-8
    # an open loop is not checked
    assert run(np.ones(5), 0.6, 1e-3, example_art30, N_sim=60, open_loop=True).projection_check_max == 0.0
    assert checks == [0]
    # a failing block fails the run: row 256 + 7
    _counted_blocks(monkeypatch, fail_in_call=2, fail_from_row=7)
    with pytest.raises(SimulationError, match=r"injected failure at row 263$"):
        run(np.ones(5), 0.6, 1e-3, example_art30, N_sim=60)


def test_the_partial_last_row_is_checked(example_art30, monkeypatch):
    # T = 250.7 h: rows at 0, h, ..., 250 h in one block, then the row at T
    calls = _counted_blocks(monkeypatch)
    run(np.ones(5), 0.2507, 1e-3, example_art30, N_sim=60)
    assert calls == [251, 1]
    _counted_blocks(monkeypatch, fail_in_call=2)
    with pytest.raises(SimulationError, match=r"injected failure at row 251$"):
        run(np.ones(5), 0.2507, 1e-3, example_art30, N_sim=60)


def test_run_bookkeeping(example_art30):
    result = run(np.ones(5), 0.25, 1e-3, example_art30, N_sim=60)
    assert len(result.times) == 251
    assert result.times[0] == 0.0
    assert np.allclose(np.diff(result.times), 1e-3)
    assert math.isnan(result.rate)  # nothing survives the default 2 s skip
    assert result.h == 1e-3
    assert 0.0 <= result.projection_check_max < 1e-8
    assert run(np.ones(5), 0.25, None, example_art30, N_sim=60).h == default_step(example_art30.eigs.lams[59])


def test_composite_column_definition(example_art30):
    system = ClosedLoop(example_art30, N_sim=60)
    s0 = init_state(np.ones(5), 60, 30)
    x = expm(0.1 * system.full_matrix) @ np.concatenate([s0.z, s0.zhat])
    last = SimState(t=0.1, z=x[:60], zhat=x[60:])
    wn = system.w(last)
    h1 = math.sqrt(float(np.add.reduce(system.h1_weights * wn**2)))
    head = float(np.add.reduce(np.abs(last.zhat[:3])))
    cols = system.diagnostics(x[None])
    assert cols["composite"][0] == pytest.approx(h1 + head, rel=1e-12)
    assert cols["h1_proxy"][0] == pytest.approx(h1, rel=1e-12)


@pytest.mark.parametrize(
    "design, n_sim, h",
    [("quick_design", 32, 1e-3), ("strong_design", 240, 2e-4), ("strong_design", 960, 1e-3)],
)
def test_diagnostics_match_the_whole_array_norms(request, design, n_sim, h):
    # the quick demo's, the pipeline's and wide_sim's loops: a block of rows
    # as `run` propagates them, and the exact states at t = 5 and 20; at 20,
    # h1 has decayed to about 1e-5 (the strong-drift loops) or below, and
    # wn = z - lift U cancels most of z
    system = ClosedLoop(request.getfixturevalue(design), N_sim=n_sim)
    x0 = np.zeros(n_sim + system.N)
    x0[:5] = np.linspace(1.0, 0.5, 5)
    A = system.full_matrix
    block = simulation.block_rows(len(x0))
    X = np.vstack([loop_states(system.exponential(h), x0, 0, block)] + [expm(t * A) @ x0 for t in (5.0, 20.0)])
    want = diagnostics_reference(system, X)
    assert np.min(want["h1_proxy"]) < 1e-4
    got = system.diagnostics(X)
    assert got.keys() == want.keys()
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=1e-13, atol=0.0, err_msg=name)


def test_certificate_energy_decays_on_certified_design(mild_art30):
    m = mild_art30
    P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
    h = 1e-3
    system = ClosedLoop(mild_art30, N_sim=200)
    s0 = init_state(np.ones(8), 200, 30)
    states = loop_states(system.exponential(h), np.concatenate([s0.z, s0.zhat]), 0, 3001)
    decay = math.exp(-2.0 * mild_art30.delta * h)
    values = certificate_energy(system, states, P)
    ratios = values[1:] / (values[:-1] * decay)
    assert np.max(ratios) < 1.0 + 1e-3


def test_run_gives_up_on_non_finite(example_art30):
    with pytest.raises(SimulationError, match="non-finite"):
        run(np.full(5, 1e308), 0.5, 1e-3, example_art30, N_sim=60)


def assert_rows_are_exact(result, rows, system, z0):
    """Each CSV column of `result` at `rows`, and at rows 1 and 128 where
    the run has them, within 1e-10 of its largest magnitude there from
    `ClosedLoop.diagnostics` of the exact states expm(t A) x0 at those rows'
    times."""
    rows = sorted(set(rows) | {i for i in (1, 128) if i < len(result.times)})
    s0 = init_state(z0, system.N_sim, system.N)
    x0 = np.concatenate([s0.z, s0.zhat])
    A = system.full_matrix
    want = system.diagnostics(np.stack([expm(result.times[i] * A) @ x0 for i in rows]))
    for name, col in want.items():
        got = result.records[name][rows]
        assert np.max(np.abs(got - col)) <= 1e-10 * np.max(np.abs(col)), name


def test_run_rows_match_matrix_exponential(example_art30):
    # rows on both sides of the first block boundary and the last row
    h = 1e-3
    z0 = np.linspace(1.0, -1.0, 8)
    result = run(z0, 0.3, h, example_art30, N_sim=60)
    assert len(result.times) == 301
    assert_rows_are_exact(result, (0, 1, 255, 256, 257, 300), ClosedLoop(example_art30, N_sim=60), z0)


@pytest.fixture(scope="module")
def contraction():
    # a dense non-normal E of spectral radius about 0.999, so 800 powers stay finite
    rng = np.random.default_rng(3)
    E = rng.standard_normal((7, 7))
    E *= 0.999 / np.max(np.abs(np.linalg.eigvals(E)))
    return E, rng.standard_normal(7)


def explicit_rows(E, x0, n_rows):
    """x0, E x0, ..., E^(n_rows-1) x0, one product at a time."""
    want = np.empty((n_rows, len(x0)))
    want[0] = x0
    for k in range(1, n_rows):
        want[k] = E @ want[k - 1]
    return want


# the rows per block of the 1020-, 300- and 40-dim loops (`block_rows`)
BLOCKS = (64, 128, 256)


def _start_and_rows():
    # each row count from each block start, for each block size; the id
    # names the start when it is not 0 and the block size when it is not
    # BLOCK
    for B in BLOCKS:
        for start in (0, B, 3 * B):
            for n_rows in (1, 2, 3, B - 1, B, B + 1, 3 * B + 5):
                name = f"{n_rows}" + (f"-from{start}" if start else "") + (f"-B{B}" if B != simulation.BLOCK else "")
                yield pytest.param(B, start, n_rows, id=name)


@pytest.mark.parametrize("B, start, n_rows", _start_and_rows())
def test_blocks_match_explicit_powers(contraction, B, start, n_rows):
    E, x0 = contraction
    got = loop_states(Factored(None, None, None, None, plain=E), x0, start, start + n_rows, B)
    assert got.shape == (n_rows, len(x0))
    if not start:
        assert np.array_equal(got[0], x0)
    want = explicit_rows(E, x0, start + n_rows)[start:]
    scale = np.linalg.norm(want, axis=1)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * scale)


def test_blocks_advance_by_matrix_power(contraction):
    # `run`'s log2 B squares of E are the products of np.linalg.matrix_power
    E, x0 = contraction
    for B in BLOCKS:
        rows = loop_states(Factored(None, None, None, None, plain=E), x0, 0, 2 * B, B)
        first, second = rows[:B], rows[B:]
        E_block = np.linalg.matrix_power(E, B)
        assert np.array_equal(second, first @ E_block.T), B


def test_block_rows_fit_the_loop_width():
    # the quick, cube, strong-drift and wide_sim loops
    assert [simulation.block_rows(n) for n in (40, 100, 300, 1020)] == [256, 256, 128, 64]
    for n in range(1, 5000):
        B = simulation.block_rows(n)
        assert B & (B - 1) == 0 and 1 <= B <= simulation.BLOCK, n
        if n > simulation.BLOCK:
            # the largest such power of two: twice B would not fit
            assert B * n <= simulation.BLOCK_DOUBLES < 2 * B * n, n
    assert simulation.block_rows(1 << 17) == 1


def test_blocks_of_a_factored_power():
    # E = exp of a 48-dim arrowhead with one border index, a small loop in
    # miniature: E^B stays factored, at a rank below n/4
    rng = np.random.default_rng(48)
    n = 48
    A = np.diag(-rng.uniform(0.0, 3.0, n) - np.linspace(0.0, 40.0, n))
    A[0] = rng.standard_normal(n)
    A[:, 0] = rng.standard_normal(n)
    power = expm_border(Border.of(0.05 * A / np.linalg.norm(A, 1), [0]))
    E = factored_array(power)
    x0 = rng.standard_normal(n)
    B = simulation.block_rows(n)
    n_rows = 3 * B + 5
    got = loop_states(power, x0, 0, n_rows)
    want = explicit_rows(E, x0, n_rows)
    assert np.all(np.linalg.norm(got - want, axis=1) <= 1e-12 * np.linalg.norm(want, axis=1))
    E_block = power
    for _ in range(B.bit_length() - 1):
        E_block = E_block.squared()
    assert E_block.plain is None and 4 * E_block.rank < n
    want_block = np.linalg.matrix_power(E, B)
    got_block = factored_array(E_block)
    assert np.max(np.abs(got_block - want_block)) <= 1e-12 * np.max(np.abs(want_block))


def test_run_ends_at_T_with_a_partial_step(example_art30):
    z0 = np.ones(5)
    result = run(z0, 0.25, 0.1, example_art30, N_sim=60)
    assert np.allclose(result.times, [0.0, 0.1, 0.2, 0.25], rtol=0, atol=1e-15)
    assert result.times[-1] == 0.25
    assert_rows_are_exact(result, (3,), ClosedLoop(example_art30, N_sim=60), z0)
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


@pytest.mark.parametrize("n, shuffled", [(8192, False), (8193, True), (30_001, True), (100_001, False)])
def test_estimate_decay_rate_holds_one_kept_array_and_keeps_its_bits(n, shuffled):
    # the pipeline's 100 001 rows keep 90 001 past t = 2; the kept times are
    # centred 8192 at a time, so the result is still the whole-array form
    rng = np.random.default_rng(n)
    t = np.linspace(0.0, 20.0, n)
    v = np.exp(-0.7 * t + 0.3 * rng.standard_normal(n))
    v[::997] = 0.0
    if shuffled:
        order = rng.permutation(n)
        t, v = t[order], v[order]
    m = t >= 2.0
    tc = t[m] - t[m].mean()
    logs = np.log(np.maximum(v[m], 1e-300))
    logs -= logs.mean()
    assert estimate_decay_rate(t, v, 2.0) == float(np.sum(tc * logs) / np.sum(tc * tc))
    # one kept-length array at a time (the kept times for their mean, then
    # the logs), the mask and a chunk of times, not two kept-length arrays
    assert traced_peak(estimate_decay_rate, t, v, 2.0) <= 8 * m.sum() + n + 2e5


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
    result = run(np.ones(5), 0.05, 1e-3, example_art30, N_sim=60)
    path = tmp_path / "series.csv"
    write_csv(result, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == len(result.times) + 1
    for j, name in enumerate(CSV_COLUMNS):
        col = result.records[name]
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
    both infinities spread over the table, first and last cell included.
    When `write_csv` cuts the rows in two, the cells `CsvText` leaves to
    repr also fill the last row before the cut and the first after it, so
    the later segment's text starts on a repr piece."""
    rng = np.random.default_rng(n_rows)
    table = rng.standard_normal((n_rows, len(CSV_COLUMNS)))
    table *= 10.0 ** rng.integers(-30, 30, size=table.shape)
    specials = [-0.0, 1e-05, 1e16, 5e-324, np.nan, np.inf, -np.inf]
    cells = np.linspace(0, table.size - 1, min(table.size, 3 * len(specials))).astype(int)
    table.ravel()[cells] = np.resize(specials, len(cells))
    cuts = simulation._segment_bounds(n_rows, CSV_CHUNK_ROWS)[1:-1]
    if cuts:
        odd = [-0.0, 5e-324, np.nan, np.inf, -np.inf]
        table[cuts[0] - 1] = np.resize(odd, len(CSV_COLUMNS))
        table[cuts[0]] = np.resize(odd[::-1], len(CSV_COLUMNS))
    return {name: table[:, j].copy() for j, name in enumerate(CSV_COLUMNS)}


def _sim_run(records: dict) -> SimulationRun:
    return SimulationRun(times=records["t"], records=records, rate=0.0, h=1.0, projection_check_max=0.0)


def _assert_no_children_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# one and two usable CPUs: on two, `run` and the CSV writer fork a child for
# each later time segment (the writer's from 1793 rows on)
@pytest.mark.parametrize("workers", [1, 2], ids=["serial", "pool"])
@pytest.mark.parametrize(
    "n_rows",
    # at and around one chunk, two and sixteen, either side of the writer's
    # first cut (four chunks at 1793 rows, each side of the cut holding
    # repr's cells), and many chunks with a partial last one
    [
        1,
        CSV_CHUNK_ROWS - 1,
        CSV_CHUNK_ROWS,
        CSV_CHUNK_ROWS + 1,
        2 * CSV_CHUNK_ROWS - 1,
        2 * CSV_CHUNK_ROWS,
        2 * CSV_CHUNK_ROWS + 1,
        1792,
        1793,
        2048,
        16 * CSV_CHUNK_ROWS - 1,
        16 * CSV_CHUNK_ROWS,
        16 * CSV_CHUNK_ROWS + 1,
        4 * 5 * CSV_CHUNK_ROWS + 7,
        48 * CSV_CHUNK_ROWS + 5,
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
    # one chunk's table, text and formatter workspace at a time (0.99 MB),
    # however many rows there are (the pipeline writes 100 001); with a
    # forked child, its text is copied in 64 KB pieces, never read whole
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    records = _sim_run(_records(n_rows))
    # the formatter's tables, built once per process at first use, are not
    # the writer's to hold per call
    _shortest._tables()
    assert traced_peak(write_csv, records, tmp_path / "big.csv") <= 1.2e6
    _assert_no_children_left()


@pytest.mark.parametrize("workers, n_rows", [(1, 1793), (2, 1792)])
def test_csv_writer_forks_nothing_on_one_cpu_or_for_one_segment(tmp_path, monkeypatch, workers, n_rows):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: workers)
    forks = _counted_forks(monkeypatch)
    records = _records(n_rows)
    _reference_csv(records, tmp_path / "want.csv")
    write_csv(_sim_run(records), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert not forks
    _assert_no_children_left()


@pytest.mark.parametrize("n_rows", [1793, 100_001])
def test_csv_writer_forks_one_child_for_the_later_segment(tmp_path, monkeypatch, n_rows):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    records = _records(n_rows)
    _reference_csv(records, tmp_path / "want.csv")
    write_csv(_sim_run(records), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert len(forks) == 1
    _assert_no_children_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_csv_bytes_through_three_segments(tmp_path, monkeypatch, cpus):
    # 10 247 rows in three segments: two children on two CPUs, none on one
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulation, "SEGMENTS", 3)
    n_rows = 4 * 5 * CSV_CHUNK_ROWS + 7
    assert len(simulation._segment_bounds(n_rows, CSV_CHUNK_ROWS)) == 4
    forks = _counted_forks(monkeypatch)
    records = _records(n_rows)
    _reference_csv(records, tmp_path / "want.csv")
    write_csv(_sim_run(records), tmp_path / "got.csv")
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert len(forks) == (2 if cpus > 1 else 0)
    _assert_no_children_left()


def _failing_forks(monkeypatch) -> list:
    """Two usable CPUs, and `os.fork` raising EAGAIN, as under a pids limit;
    returns the descriptors of every pipe made from then on."""
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    fds = []
    pipe = os.pipe

    def pipes():
        fds.extend(pipe())
        return tuple(fds[-2:])

    def fork():
        raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "pipe", pipes)
    monkeypatch.setattr(os, "fork", fork)
    return fds


def _fork_warnings(caplog) -> list:
    return [r for r in caplog.records if r.levelno == logging.WARNING and "cannot fork" in r.getMessage()]


def test_a_failing_fork_runs_every_segment_here(tmp_path, example_art30, monkeypatch, caplog):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    want = run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    records = _records(4001)
    _reference_csv(records, tmp_path / "want.csv")
    fds = _failing_forks(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="parstab.simulation"):
        got = run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
        write_csv(_sim_run(records), tmp_path / "got.csv")
    # one pipe for each, both ends closed
    assert len(fds) == 4
    for fd in fds:
        with pytest.raises(OSError):
            os.fstat(fd)
    assert len(_fork_warnings(caplog)) == 2
    for name in CSV_COLUMNS:
        assert got.records[name].tobytes() == want.records[name].tobytes(), name
    assert (got.projection_check_max, got.rate) == (want.projection_check_max, want.rate)
    assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    _assert_no_children_left()


def test_simulate_with_a_failing_fork_exits_0_with_the_serial_bytes(tmp_path, monkeypatch, caplog):
    # the quick demo's 4001 rows: two segments for `run` and for the CSV
    config = os.path.join(ROOT, "demos", "quick_certify.json")
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 1)
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "serial")]) == 0
    _failing_forks(monkeypatch)
    with caplog.at_level(logging.WARNING, logger="parstab.simulation"):
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert len(_fork_warnings(caplog)) == 2
    for name in ("summary.json", "simulation.csv"):
        assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes(), name
    _assert_no_children_left()


def _csv_lines_failing(monkeypatch, in_child: bool, fail) -> None:
    """`CsvText.lines` calls `fail()` in a forked child, or in the caller,
    and renders as before in the other."""
    caller = os.getpid()
    real = _shortest.CsvText.lines

    def lines(self, table):
        if (os.getpid() != caller) == in_child:
            fail()
        return real(self, table)

    monkeypatch.setattr(_shortest.CsvText, "lines", lines)


def _raise_value_error():
    raise ValueError("formatter failed")


@pytest.mark.parametrize("in_child", [True, False], ids=["child", "caller"])
def test_a_csv_formatting_error_is_raised_and_the_child_reaped(tmp_path, monkeypatch, in_child):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    _csv_lines_failing(monkeypatch, in_child, _raise_value_error)
    with pytest.raises(ValueError, match="formatter failed"):
        write_csv(_sim_run(_records(4001)), tmp_path / "got.csv")
    assert len(forks) == 1
    _assert_no_children_left()


# 2501 rows at h = 1e-3: segments of blocks [0, 5) and [5, 10), the last
# block 197 rows long
SEGMENTED_T = 2.5


def _counted_forks(monkeypatch) -> list:
    forks = []
    fork = os.fork

    def counted():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return forks


def test_segments_split_the_later_blocks_by_the_row_count_alone():
    # the cut of the one later segment, by block size: for the pipeline's
    # 100 001 rows, 391 blocks of 256 rows, 195 and 196 in the segments;
    # 782 of 128, 391 each; 1563 of 64, 781 and 782
    cuts = {
        256: {1793: 4 * 256, 2501: 5 * 256, 100_001: 195 * 256},
        128: {1793: 7 * 128, 2501: 10 * 128, 100_001: 391 * 128},
        64: {1793: 14 * 64, 2501: 20 * 64, 100_001: 781 * 64},
    }
    # fewer than SEGMENT_MIN_BLOCKS units of BLOCK rows per segment: one
    # segment, whatever the block
    short = (simulation.SEGMENTS * simulation.SEGMENT_MIN_BLOCKS - 1) * simulation.BLOCK
    assert short + 1 == 1793
    for B in BLOCKS:
        assert simulation._segment_bounds(1, B) == [0, 1]
        assert simulation._segment_bounds(257, B) == [0, 257]
        assert simulation._segment_bounds(short, B) == [0, short]
        for n_rows, cut in cuts[B].items():
            assert simulation._segment_bounds(n_rows, B) == [0, cut, n_rows]


def test_run_columns_do_not_depend_on_the_usable_cpus(example_art30, monkeypatch):
    forks = _counted_forks(monkeypatch)
    results = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
        results.append(run(np.ones(5), SEGMENTED_T + 5e-4, 1e-3, example_art30, N_sim=60))
        _assert_no_children_left()
    # one child for the one later segment, whatever the CPU count past one
    assert len(forks) == 2
    first = results[0]
    assert len(first.times) == 2502
    for other in results[1:]:
        for name in CSV_COLUMNS:
            assert first.records[name].tobytes() == other.records[name].tobytes(), name
        assert other.projection_check_max == first.projection_check_max
        assert other.rate == first.rate
    # the rows of each segment, its start included, are exact
    rows = (0, 255, 256, 1279, 1280, 1281, 1535, 1536, 2500, 2501)
    assert_rows_are_exact(first, rows, ClosedLoop(example_art30, N_sim=60), np.ones(5))


def test_a_run_child_sends_its_last_state_alone(example_art30, monkeypatch, tmp_path):
    # the child writes its rows into the caller's shared columns, so down
    # the pipe goes its last state alone: n doubles, n = N_sim + N
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    real = simulation._send
    sent = tmp_path / "sent"

    def counting(job, read_fd, write_fd):
        def counted():
            buffers = job()
            sent.write_text(str(sum(memoryview(b).nbytes for b in buffers)))
            return buffers

        real(counted, read_fd, write_fd)

    monkeypatch.setattr(simulation, "_send", counting)
    run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    _assert_no_children_left()
    assert int(sent.read_text()) == (60 + example_art30.N) * 8


@pytest.mark.parametrize("cpus", [1, 2])
def test_run_columns_are_read_only(example_art30, monkeypatch, cpus):
    # the columns and times are read-only, so no process forked later, such
    # as the CSV writer's child, writes pages the caller shares
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    got = run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    for column in [got.times, *got.records.values()]:
        with pytest.raises(ValueError, match="read-only"):
            column[-1] = 0.0
    assert set(got.records) == set(CSV_COLUMNS)


def test_a_mapping_refused_for_memory_exits_4(tmp_path, monkeypatch, capsys):
    # the ten shared columns of the quick demo's 4001 rows cannot be mapped
    def refused(*args):
        raise OSError(errno.ENOMEM, os.strerror(errno.ENOMEM))

    monkeypatch.setattr(mmap, "mmap", refused)
    config = os.path.join(ROOT, "demos", "quick_certify.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: cannot map 4001 output rows: ")
    assert os.strerror(errno.ENOMEM) in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


def _blocks_fail_in_later_segments(monkeypatch, from_row: int) -> None:
    """`ClosedLoop.diagnostics` raises SimulationError naming row `from_row`
    of its block in every block propagated after a segment past segment 0
    began its rows in this process: in a forked child, or in the caller past
    segment 0."""
    starts = []
    real = simulation._rows

    def marking(E, power, B, x0, start, stop):
        for s, X in real(E, power, B, x0, start, stop):
            if start:
                starts.append(s)
            yield s, X

    def failing(self, X):
        if starts:
            raise SimulationError(f"injected failure at row {starts[-1] + from_row}")
        return _DIAGNOSTICS(self, X)

    monkeypatch.setattr(simulation, "_rows", marking)
    monkeypatch.setattr(ClosedLoop, "diagnostics", failing)


@pytest.mark.parametrize("segments, later_starts", [(2, [2048]), (3, [1280, 2560])])
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_check_failing_in_a_later_segment_names_its_first_row(
    example_art30, monkeypatch, cpus, segments, later_starts
):
    # 4001 rows: with three segments both later ones fail, and the error
    # names row 7 of the first of them
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulation, "SEGMENTS", segments)
    loop = ClosedLoop(example_art30, N_sim=60)
    assert simulation._segment_bounds(4001, simulation.block_rows(loop.N_sim + loop.N))[1:-1] == later_starts
    forks = _counted_forks(monkeypatch)
    _blocks_fail_in_later_segments(monkeypatch, from_row=7)
    with pytest.raises(SimulationError, match=rf"injected failure at row {later_starts[0] + 7}$"):
        run(np.ones(5), 4.0, 1e-3, example_art30, N_sim=60)
    assert len(forks) == (segments - 1 if cpus > 1 else 0)
    _assert_no_children_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_a_state_non_finite_in_a_later_segment_fails_the_run(example_art30, monkeypatch, cpus):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: cpus)
    real = simulation._rows

    def overflowing(E, power, B, x0, start, stop):
        blocks = real(E, power, B, x0, start, stop)
        s, block = next(blocks)
        if start:
            block[3, 0] = np.inf
        yield s, block
        yield from blocks

    monkeypatch.setattr(simulation, "_rows", overflowing)
    # reported at the last row of the segment's first block, row 1280 + 255
    with pytest.raises(SimulationError, match=r"state non-finite by t=1\.535$"):
        run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    _assert_no_children_left()


def test_a_check_failing_in_segment_zero_kills_and_reaps_the_child(example_art30, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    forks = _counted_forks(monkeypatch)
    # call 2 fails in both processes: here at row 256 + 7, in the child,
    # whose segment starts at row 1280, at row 1536 + 7; segment 0's wins
    _counted_blocks(monkeypatch, fail_in_call=2, fail_from_row=7)
    with pytest.raises(SimulationError, match=r"injected failure at row 263$"):
        run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    assert len(forks) == 1
    _assert_no_children_left()


def test_a_segment_child_that_dies_fails_the_run(example_art30, monkeypatch):
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    caller = os.getpid()

    def exiting(self, X):
        if os.getpid() != caller:
            os._exit(3)
        return _DIAGNOSTICS(self, X)

    monkeypatch.setattr(ClosedLoop, "diagnostics", exiting)
    with pytest.raises(SimulationError, match="without output"):
        run(np.ones(5), SEGMENTED_T, 1e-3, example_art30, N_sim=60)
    _assert_no_children_left()


def test_a_later_segment_failure_exits_4_and_writes_nothing(tmp_path, monkeypatch, capsys):
    # the quick demo: 4001 rows, segments [0, 2048) and [2048, 4001)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    _blocks_fail_in_later_segments(monkeypatch, from_row=0)
    config = os.path.join(ROOT, "demos", "quick_certify.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
    assert "simulation failed: injected failure at row 2048" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    _assert_no_children_left()


def test_a_csv_child_that_dies_exits_4_and_leaves_no_csv(tmp_path, monkeypatch, capsys):
    # the quick demo's 4001 rows: CSV segments [0, 2048) and [2048, 4001)
    monkeypatch.setattr(simulation, "_usable_cpus", lambda: 2)
    _csv_lines_failing(monkeypatch, True, lambda: os._exit(3))
    config = os.path.join(ROOT, "demos", "quick_certify.json")
    assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
    assert "simulation failed: a forked child ended without output" in capsys.readouterr().err
    assert os.listdir(tmp_path / "o") == []
    _assert_no_children_left()
