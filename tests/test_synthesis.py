import dataclasses
import json
import math
import os
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from parstab import cli, lifting, synthesis
from parstab.spectral_basis import (
    DomainError,
    PlantConfig,
    count_unstable,
    enumerate_eigenpairs,
    face_quadrature,
    max_wavenumber,
    trace_matrix,
)
from parstab.synthesis import (
    SensorPlacementError,
    SynthesisError,
    abscissa,
    assemble_F,
    design_head,
    eta_shift_matrix,
    place_observer_gain,
    report_dict,
    select_eta,
    select_gamma_ladder,
    synthesize,
    validate_sensors,
)

from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, mild_synthesize, traced_peak
from oracles import control_trace, dense_loop, head_drift, sensor_tail_scaled

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_select_eta_values():
    assert select_eta((-3.5, -0.5, -0.5)) == pytest.approx(1.0)
    assert select_eta((-2.0, -1.0, -1.0)) == pytest.approx(0.5)
    assert select_eta((-1.0,)) == pytest.approx(0.1)


def test_select_eta_degenerate_head():
    with pytest.raises(ValueError):
        select_eta(())
    with pytest.raises(ValueError):
        select_eta((-1.0, -1.0))


def test_eta_shift_matrix():
    assert np.array_equal(eta_shift_matrix(1, 0.1), np.zeros((1, 1)))
    xi = eta_shift_matrix(3, 1.0)
    want = np.zeros((3, 3))
    want[1, 1] = 1.0
    assert np.array_equal(xi, want)


def test_gamma_ladder_example(example_ctx):
    ladder = select_gamma_ladder(example_ctx, 1.0, 0.5)
    gammas, A = ladder.gammas, ladder.A
    assert gammas == pytest.approx((10.0, 15.0, 20.0))
    assert gammas[-1] == pytest.approx(2.0 * gammas[0])
    assert ladder.margin == pytest.approx(-5.1371, abs=1e-3)
    assert np.min(np.linalg.eigvalsh(0.5 * (A + A.T))) > 0


def test_gamma_ladder_single_mode(mild_ctx):
    ladder = select_gamma_ladder(mild_ctx, 0.1, 1.5, gamma_base=2.0)
    assert ladder.gammas == pytest.approx((2.0,))
    # with one mode the gain block is exactly -gamma
    assert ladder.margin == pytest.approx(-2.0, abs=1e-12)


def test_gamma_ladder_doubles_until_margin(example_ctx):
    ladder = select_gamma_ladder(example_ctx, 1.0, 100.0)
    assert ladder.gammas[0] > 10.0
    assert ladder.margin < -100.0


@pytest.mark.parametrize("base", [0.0, -2.0])
def test_gamma_ladder_refuses_a_non_positive_base(example_ctx, base):
    # doubling a base of 0 leaves it at 0, and the search never ended
    with pytest.raises(ValueError, match="gamma_base"):
        select_gamma_ladder(example_ctx, 1.0, 0.5, gamma_base=base)


def test_gamma_ladder_gives_up(example_ctx):
    with pytest.raises(SynthesisError):
        select_gamma_ladder(example_ctx, 1.0, 0.5, cond_max=1.0)


def test_gamma_ladder_doubles_past_a_head_eigenvalue(mild_ctx):
    # gamma = 1.5 hits lam_1 = 1.5: the head denominator vanishes and the
    # base doubles
    assert mild_ctx.lams[0] == 1.5
    ladder = select_gamma_ladder(mild_ctx, 0.1, 1.5, gamma_base=1.5)
    assert ladder.gammas == (3.0,)
    assert ladder.margin == -3.0


@pytest.mark.parametrize("demo", ["quick_certify", "strong_drift_pipeline", "cube_3d", "sweep_quick"])
def test_tail_denominators_of_the_demo_designs_exceed_delta(demo):
    # why the ladder tests only the head denominators: gamma_k > 0 and every
    # tail eigenvalue exceeds delta, over all the modes the command holds
    cfg = cli.parse_config(os.path.join(ROOT, "demos", demo + ".json"))
    art = cli._design_source(cfg)(cfg.synthesis["N"])
    ctx = art.context
    assert len(ctx.lams) >= lifting.tail_cap(cfg.certification["N_max"])
    for g in art.gammas:
        dens = lifting.shift_denominators(g, ctx.lams[ctx.n0 :], first=ctx.n0 + 1)
        assert np.all(dens > art.delta)


@pytest.mark.parametrize("reaction, n0", [(42.0, 10), (60.0, 14)])
def test_a_head_of_ten_or_more_simple_modes_synthesizes(reaction, n0):
    # on the diagonal head the per-eigenvalue sensor tests are the
    # observability test at any head size; a Krylov rank test of (A0, C0)
    # loses rank in floating point here
    lengths = (math.pi, 0.4 * math.pi)
    plant = PlantConfig(dim=2, lengths=lengths, reaction=reaction, delta=0.5)
    eigs = enumerate_eigenpairs(plant, 40)
    assert count_unstable(eigs, 0.5)[0] == n0
    ctx = lifting.LiftingContext(eigs, n0)
    xi1 = tuple(0.37 * l for l in lengths)
    xi2 = tuple(0.61 * l for l in lengths)
    art = synthesize(ctx, xi1, xi2, 20, 0.5, gamma_base=2.0)
    assert art.n0 == n0
    assert art.margins["F_abscissa"] < -0.5


def test_validate_sensors_returns_head_values(example_eigs):
    from parstab.spectral_basis import eval_phi

    C0 = validate_sensors(EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, example_eigs, 3)
    assert C0.shape == (2, 3)
    for j in range(3):
        mode = example_eigs[j : j + 1]
        assert C0[0, j] == pytest.approx(float(eval_phi(mode, EXAMPLE_SENSOR_1)[0, 0]))
        assert C0[1, j] == pytest.approx(float(eval_phi(mode, EXAMPLE_SENSOR_2)[0, 0]))
    det = C0[0, 1] * C0[1, 2] - C0[0, 2] * C0[1, 1]
    assert abs(det) > 1e-3


def test_synthesize_evaluates_each_sensor_row_once(example_ctx, monkeypatch):
    # count (mode, sensor) evaluations; eval_phi takes a batch of modes
    evals = Counter()
    real = synthesis.eval_phi

    def counted(modes, x):
        for k in modes.ks.tolist():
            for p in np.atleast_2d(x):
                evals[tuple(k), tuple(p.tolist())] += 1
        return real(modes, x)

    monkeypatch.setattr(synthesis, "eval_phi", counted)
    synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 30, 0.5)
    assert sum(evals.values()) == 2 * 30
    assert evals == Counter(
        (tuple(k), xi) for k in example_ctx.eigs.ks[:30].tolist() for xi in (EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2)
    )


def _same_bytes(a, b) -> bool:
    """a and b hold the same values, arrays compared byte for byte."""
    if isinstance(a, np.ndarray):
        return isinstance(b, np.ndarray) and a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(_same_bytes, a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same_bytes(a[k], b[k]) for k in a)
    return a is b or a == b


@pytest.mark.parametrize("N", [30, 60, 120, 240])
def test_a_given_head_gives_the_design_synthesize_builds(example_ctx, N):
    head = design_head(
        example_ctx,
        EXAMPLE_SENSOR_1,
        EXAMPLE_SENSOR_2,
        0.5,
        c_ratio=2.0,
        gamma_base=10.0,
        spread=None,
        sensor_tol=1e-3,
        cond_max=1e12,
    )
    plain = synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, N, 0.5)
    given = synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, N, 0.5, head=head)
    for f in dataclasses.fields(synthesis.SynthesisArtifacts):
        assert _same_bytes(getattr(plain, f.name), getattr(given, f.name)), f.name


def test_a_command_designs_the_head_once(tmp_path, monkeypatch):
    calls = []

    def recorded(name):
        real = getattr(synthesis, name)

        def wrapper(*args, **kwargs):
            calls.append((name, args))
            return real(*args, **kwargs)

        return wrapper

    for name in ("place_observer_gain", "select_gamma_ladder", "synthesize"):
        monkeypatch.setattr(synthesis, name, recorded(name))
    cfg = {
        "plant": {"d": 2, "b": [3.0, 3.0], "c": 10.0, "delta": 0.5},
        "sensors": {"xi1": list(EXAMPLE_SENSOR_1), "xi2": list(EXAMPLE_SENSOR_2)},
        "synthesis": {"N": 60},
        "certification": {"N_start": 30, "N_max": 240},
    }
    path = tmp_path / "strong.json"
    path.write_text(json.dumps(cfg))
    # the strong design fails theta1 at every size, so all four rounds run
    assert cli.main(["certify", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert Counter(name for name, _ in calls) == {"place_observer_gain": 1, "select_gamma_ladder": 1, "synthesize": 4}
    assert [args[3] for name, args in calls if name == "synthesize"] == [30, 60, 120, 240]


def test_validate_sensors_rejections(example_eigs):
    with pytest.raises(SensorPlacementError, match="coincide"):
        validate_sensors((0.5, 0.5), (0.5, 0.5), example_eigs, 3)
    with pytest.raises(DomainError):
        validate_sensors((0.0, 0.5), (0.5, 0.5), example_eigs, 3)
    # on the diagonal the double pair is symmetric and the 2x2 determinant
    # vanishes identically
    with pytest.raises(SensorPlacementError, match="not separated"):
        validate_sensors((0.7, 0.7), (0.9, 0.9), example_eigs, 3)


def test_place_observer_gain_scalar_formula():
    L = place_observer_gain([[2.0]], [[0.5], [0.0]], 1.0, 0.5)
    assert L == pytest.approx(np.array([[7.0, 0.0]]))
    assert abscissa([[2.0]] - L @ [[0.5], [0.0]]) == pytest.approx(-1.5)


def test_place_observer_gain_invisible_mode():
    with pytest.raises(SynthesisError):
        place_observer_gain([[2.0]], [[0.0], [0.0]], 1.0, 0.5)


@pytest.mark.parametrize("N", [8, 60, 240])
def test_F_abscissa_is_the_dense_abscissa_bit_for_bit(example_ctx, mild_ctx, N):
    # synthesize reads F's abscissa from its 2 n0 head block and its tail
    # diagonal; synthesis.json must hold the bits of an eigvals of all of F
    designs = (
        synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, N, 0.5),
        mild_synthesize(mild_ctx, N),
    )
    for art in designs:
        assert art.margins["F_abscissa"] == abscissa(dense_loop(art))


def test_a_design_at_240_holds_no_n_by_n_array(strong_design):
    # F is kept as its blocks: the 2 n0 head, the 2 n0 x (N - n0) coupling
    # and the tail diagonal of the mode table. A dense F reads 1 n^2 doubles
    ctx = strong_design.context
    head = design_head(
        ctx,
        EXAMPLE_SENSOR_1,
        EXAMPLE_SENSOR_2,
        0.5,
        c_ratio=2.0,
        gamma_base=10.0,
        spread=None,
        sensor_tol=1e-3,
        cond_max=1e12,
    )
    n = 240 + ctx.n0
    assert n == 243
    peak = traced_peak(synthesize, ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 240, 0.5, head=head)
    assert peak <= 0.25 * 8 * n * n


def test_example_design_numbers(example_art60):
    m = example_art60
    assert m.n0 == 3
    assert m.N == 60
    assert m.eta == pytest.approx(1.0)
    assert m.gammas == pytest.approx((10.0, 15.0, 20.0))
    assert m.margins["gain_block_abscissa"] == pytest.approx(-5.1371, abs=1e-3)
    assert m.margins["observer_abscissa"] == pytest.approx(-0.75, abs=1e-6)
    assert m.margins["F_abscissa"] == pytest.approx(-0.75, abs=1e-6)
    assert np.linalg.norm(m.observer_gain, 2) == pytest.approx(182.621, abs=1e-2)
    poles = np.sort(np.linalg.eigvals(head_drift(m) - m.observer_gain @ m.sensor_head).real)
    assert poles == pytest.approx([-1.25, -1.0, -0.75], abs=1e-6)


def test_shifted_gram_identity(example_art60):
    m = example_art60
    total = sum(m.shifted_grams) @ m.gram_inverse
    assert np.max(np.abs(total - np.eye(3))) < 1e-10
    # a head lift is the diagonal of Lam_k, and B_k = Lam_k B Lam_k to the bit
    for lift, Bk in zip(m.head_lifts, m.shifted_grams):
        assert lift.shape == (3,)
        assert np.array_equal(Bk, np.diag(lift) @ m.trace_gram @ np.diag(lift))


def test_closed_loop_spectrum_is_block_union(example_art60):
    m = example_art60
    tail = m.eigs.lams[m.n0 : m.N]
    parts = np.concatenate(
        [
            np.linalg.eigvals(m.gain_block),
            np.linalg.eigvals(head_drift(m) - m.observer_gain @ m.sensor_head),
            -tail,
        ]
    )
    full = np.linalg.eigvals(dense_loop(m))
    assert np.allclose(np.sort_complex(full), np.sort_complex(parts), atol=1e-8)


def test_stacked_gain_layout(example_art60):
    m = example_art60
    G = m.stacked_gain
    assert G.shape == (m.N + m.n0, 2)
    assert np.array_equal(G[: m.n0], m.observer_gain)
    assert np.array_equal(G[m.n0 : 2 * m.n0], -m.observer_gain)
    assert not np.any(G[2 * m.n0 :])


def test_assemble_F_rejects_nothing_but_builds_shape(example_art60):
    m = example_art60
    n0, L, A0 = m.n0, m.observer_gain, head_drift(m)
    LC0, LC1t = L @ m.sensor_head, L @ sensor_tail_scaled(m)
    head, coupling, G = assemble_F(m.gain_block, A0, LC0, L, sensor_tail_scaled(m))
    assert head.shape == (2 * n0, 2 * n0)
    assert coupling.shape == (2 * n0, m.N - n0)
    assert np.array_equal(head, np.block([[m.gain_block, LC0], [np.zeros((n0, n0)), A0 - LC0]]))
    assert np.array_equal(coupling, np.vstack([LC1t, -LC1t]))
    assert np.array_equal(head, m.loop_head)
    assert np.array_equal(coupling, m.loop_coupling)
    assert np.array_equal(G, m.stacked_gain)
    assert np.array_equal(m.loop_tail(), -m.eigs.lams[n0 : m.N])


def test_control_trace_zero_and_quadrature_consistency(example_art60, example_ctx):
    m = example_art60
    # the context's own rule is sized to the head modes only
    quad = face_quadrature(m.plant, max_wavenumber(example_ctx.eigs[:40]))
    pts = quad.points
    assert not np.any(control_trace(m, np.zeros(3), pts))

    U = np.array([0.4, -1.1, 0.7])
    u = control_trace(m, U, pts)
    coeff = m.lift_sum() * (m.gram_inverse @ U)
    for n in (1, 5, 40):
        trace_n = trace_matrix(example_ctx.eigs[n - 1 : n], quad)[0]
        inner = float(np.dot(quad.weights * u, trace_n))
        want = float(example_ctx.cross_cols[n - 1] @ coeff)
        assert inner == pytest.approx(want, rel=1e-8)


def test_control_trace_rejects_bad_U(example_art60):
    with pytest.raises(ValueError):
        control_trace(example_art60, np.zeros(2), np.array([[0.5, 0.0]]))


def test_synthesize_argument_errors(example_ctx):
    with pytest.raises(ValueError):
        synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 3, 0.5)
    with pytest.raises(ValueError):
        synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 1000, 0.5)


def test_report_round_trips_through_json(example_art30):
    report = report_dict(example_art30)
    back = json.loads(json.dumps(report))
    assert back["eta"] == report["eta"]
    assert back["gamma"] == list(report["gamma"])
    assert np.array_equal(np.array(back["A"]), example_art30.gram_inverse)
    assert np.array_equal(np.array(back["L"]), example_art30.observer_gain)
    assert back["N"] == 30 and back["N0"] == 3
    assert back["schema_version"] == 1


# ---------------------------------------------------------------------------
# The in-repo YT placement against scipy.signal.place_poles, which is
# imported by these tests only.


def scipy_gain(A0, C0, targets):
    from scipy.signal import place_poles

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # convergence warnings; the gain is still returned
        return place_poles(A0.T, C0.T, targets).gain_matrix.T


def test_observer_gain_is_scipys_on_the_strong_drift_head(example_art60):
    m = example_art60
    targets = [-0.5 - 0.25 * (k + 1) for k in range(3)]
    assert np.array_equal(m.observer_gain, scipy_gain(head_drift(m), m.sensor_head, targets))


def test_observer_gain_is_scipys_on_a_single_mode_head(mild_art30):
    # N0 = 1, the quick demo's plant: rank(C0) = n0, scipy's least-squares branch
    m = mild_art30
    assert m.n0 == 1
    targets = [-m.delta - 0.5 * m.delta]
    assert np.array_equal(m.observer_gain, scipy_gain(head_drift(m), m.sensor_head, targets))


def test_observer_gain_is_scipys_when_two_sensors_see_two_modes(d1_eigs):
    # n0 == rank(C0): scipy's least-squares branch
    C0 = synthesis.sensor_rows(d1_eigs[:2], (0.7,), (2.1,))
    A0 = -np.diag(d1_eigs.lams[:2])
    L = place_observer_gain(A0, C0, 0.5, 0.25)
    assert np.array_equal(L, scipy_gain(A0, C0, [-0.75, -1.0]))


def test_rank_one_sensor_rows_skip_the_update_loop():
    A0 = -np.diag([-3.0, -1.0, 2.0])
    c = np.array([[0.9, -0.4, 0.6]])
    targets = [-1.0, -1.5, -2.0]
    # one input column: kernel start vectors only, no rank-2 updates
    got = synthesis._place_yt(A0.T, c.T, targets).T
    assert np.array_equal(got, scipy_gain(A0, c, targets))
    # two proportional sensor rows leave the final solve non-square, which
    # scipy reports as a ValueError and the port as a SynthesisError
    C0 = np.vstack([c, 2.0 * c])
    with pytest.raises(ValueError):
        scipy_gain(A0, C0, targets)
    with pytest.raises(SynthesisError, match="pole placement failed"):
        place_observer_gain(A0, C0, 0.5, 0.5)


def test_singular_transfer_matrix_is_a_synthesis_error():
    # the third mode is invisible to both sensors: every pole has the same
    # kernel, so the rank-2 updates take their equal-singular-value branch
    A0 = -np.diag([1.0, 2.0, 3.0])
    C0 = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    with pytest.raises(ValueError):
        scipy_gain(A0, C0, [-4.0, -5.0, -6.0])
    with pytest.raises(SynthesisError, match="pole placement failed: Singular matrix"):
        place_observer_gain(A0, C0, 3.0, 1.0)


@settings(max_examples=60, deadline=None)
@given(
    data=st.data(),
    n0=st.integers(min_value=2, max_value=6),
    delta=st.floats(min_value=0.1, max_value=3.0),
    spread=st.floats(min_value=0.05, max_value=2.0),
)
def test_yt_placement_is_scipys_on_observable_pairs(data, n0, delta, spread):
    entries = st.floats(min_value=-5.0, max_value=5.0)
    A0 = np.array(data.draw(st.lists(entries, min_size=n0 * n0, max_size=n0 * n0))).reshape(n0, n0)
    C0 = np.array(data.draw(st.lists(entries, min_size=2 * n0, max_size=2 * n0))).reshape(2, n0)
    obs = np.vstack([C0 @ np.linalg.matrix_power(A0, k) for k in range(n0)])
    assume(np.linalg.matrix_rank(C0) == 2 and np.linalg.matrix_rank(obs) == n0)
    targets = [-delta - spread * (k + 1) for k in range(n0)]
    try:
        want = scipy_gain(A0, C0, targets)
    except ValueError:
        with pytest.raises(SynthesisError):
            synthesis._place_yt(A0.T, C0.T, targets)
        return
    assert np.array_equal(synthesis._place_yt(A0.T, C0.T, targets).T, want)
