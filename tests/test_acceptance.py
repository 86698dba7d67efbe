"""End-to-end acceptance checks with pinned tolerances and wall-clock budgets.

`test_terminal_energy_insensitive_to_resolution_doubling` runs on the mild
design, whose Lyapunov certificate closes at N = 30. The certificate is the
package's statement that the full infinite-dimensional loop is covered, so
that is where a resolution-converged terminal energy can be asked for. Each
run is also held against the exact propagator expm(T A) x0, so the 1% budget
measures truncation only, not time error.

The strong-drift design at N = 60 fails that certificate (theta1 about
3.4e5), and its simulated loop is not resolution-converged: the exact
terminal `h1_proxy` changes by 110% from N_sim = 240 to 480, and by 26% and
76% over the next two doublings. See README.md for the numbers.
The cause is observation spillover (Balas, IEEE TAC 23(4), 1978). The plant
forcing rows W_n = -<u, trace_n> grow with the control-axis wavenumber, and
the sensor rows phi_n(xi) do not decay. So each unmodelled mode's share of
the observer innovation falls off only like 1/k, a conditionally convergent
series, and the observer gain (|L| about 199) amplifies that tail. This is
the slow point-value convergence of a Galerkin model under Dirichlet
boundary input, not a time-integration error.
"""

import json
import math
import os
import time

import numpy as np
import pytest
from scipy.linalg import expm

from parstab.certification import certify, certify_round, solve_lyapunov
from parstab.cli import main
from parstab.simulation import ClosedLoop, SimState, init_state, run
from parstab.spectral_basis import (
    PlantConfig,
    conormal_trace,
    enumerate_eigenpairs,
    eval_phi,
)
from parstab import synthesis

import conftest
from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2
from oracles import (
    biorthonormality_defect,
    build_projection_table,
    dense_loop,
    finite_part,
    lifted_projection,
    loop_states,
)

DECAY_T = 20.0
DECAY_H = 2e-4
DECAY_N_SIM = 240


def decay_z0(eigs, n_sim):
    z0 = np.zeros(n_sim)
    for mode in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3)]:
        z0[conftest.mode_index(eigs, mode)] = 1.0
    return z0


@pytest.fixture(scope="module")
def decay_run(example_art60, example_eigs):
    z0 = decay_z0(example_eigs, DECAY_N_SIM)
    t0 = time.perf_counter()
    result = run(z0, DECAY_T, DECAY_H, example_art60, N_sim=DECAY_N_SIM)
    return result, time.perf_counter() - t0


def test_biorthonormality_of_the_mode_pairing():
    t0 = time.perf_counter()
    plant = PlantConfig(dim=2, drift=(3.0, 3.0), reaction=10.0, delta=0.5)
    eigs = enumerate_eigenpairs(plant, 30)
    defect = biorthonormality_defect(eigs)
    elapsed = time.perf_counter() - t0
    assert defect < 1e-8
    assert elapsed < 10.0


def test_weighted_eigen_pde_residual(example_plant, example_eigs):
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    pts = rng.uniform(0.05, np.pi - 0.05, size=(20, 2))
    b = example_plant.drift
    c = example_plant.reaction
    worst = 0.0
    phis = eval_phi(example_eigs[:10], pts)
    for k, lam, phi in zip(example_eigs.ks[:10].tolist(), example_eigs.lams[:10], phis):
        lap = np.zeros(len(pts))
        drift = np.zeros(len(pts))
        for axis in range(2):
            other = 1 - axis
            x = pts[:, axis]
            fa = math.sqrt(2 / np.pi) * np.exp(-b[axis] * x / 2)
            s, co = np.sin(k[axis] * x), np.cos(k[axis] * x)
            f = fa * s
            fp = fa * (k[axis] * co - (b[axis] / 2) * s)
            fpp = fa * ((b[axis] ** 2 / 4 - k[axis] ** 2) * s - b[axis] * k[axis] * co)
            xo = pts[:, other]
            g = (
                math.sqrt(2 / np.pi)
                * np.exp(-b[other] * xo / 2)
                * np.sin(k[other] * xo)
            )
            lap += fpp * g
            drift += b[axis] * fp * g
        mu = np.exp(b[0] * pts[:, 0] + b[1] * pts[:, 1])
        residual = mu * (-lap - drift - c * phi - lam * phi)
        worst = max(worst, float(np.max(np.abs(residual))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 1.0


def test_lifting_formula_against_elliptic_solve_line(d1_plant, d1_eigs):
    t0 = time.perf_counter()
    n0 = 2
    eta = synthesis.select_eta(d1_eigs.lams[:n0])
    assert eta == pytest.approx(1.0)
    M = 2000
    xg = np.linspace(0.0, np.pi, M)
    hg = xg[1] - xg[0]
    mu = np.exp(3.0 * xg)
    quadw = np.full(M, hg)
    quadw[0] *= 0.5
    quadw[-1] *= 0.5
    phi_all = np.array(
        [math.sqrt(2 / np.pi) * np.exp(-1.5 * xg) * np.sin(k * xg) for k in range(1, 8)]
    )
    for gamma in (10.0, 50.0):
        n_int = M - 2
        lhs = np.zeros((n_int, n_int))
        idx = np.arange(n_int)
        lhs[idx, idx] = 2.0 / hg**2 - 10.0 + gamma
        lhs[idx[1:], idx[1:] - 1] = -1.0 / hg**2 + 3.0 / (2 * hg)
        lhs[idx[:-1], idx[:-1] + 1] = -1.0 / hg**2 - 3.0 / (2 * hg)
        rhs = np.zeros(n_int)
        rhs[0] = -(-1.0 / hg**2 + 3.0 / (2 * hg))  # boundary value 1 at x = 0
        for i_mode in range(n0):
            lam_i = d1_eigs.lams[i_mode]
            psi = mu * phi_all[i_mode]
            coefficient = -2.0 * lam_i - (eta if i_mode == 1 else 0.0)
            lhs += coefficient * np.outer(phi_all[i_mode][1:-1], psi[1:-1] * quadw[1:-1])
            rhs -= coefficient * phi_all[i_mode][1:-1] * (psi[0] * quadw[0])
        solution = np.concatenate([[1.0], np.linalg.solve(lhs, rhs), [0.0]])
        table = build_projection_table(gamma, eta, d1_eigs, n0)
        for k in range(1, 7):
            fd_coeff = float(np.sum(solution * mu * phi_all[k - 1] * quadw))
            trace_at_zero = float(conormal_trace(d1_eigs[k - 1 : k], np.array([[0.0]]))[0, 0])
            predicted = lifted_projection(table, trace_at_zero, k)
            assert abs(fd_coeff - predicted) / abs(predicted) < 1e-3
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0


def test_design_margins_and_gram_partition(example_ctx):
    t0 = time.perf_counter()
    m = synthesis.synthesize(example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, 60, 0.5)
    elapsed = time.perf_counter() - t0
    assert m.margins["gain_block_abscissa"] < -0.5
    assert m.margins["observer_abscissa"] < -0.5
    assert m.margins["F_abscissa"] < -0.5
    total = sum(m.shifted_grams) @ m.gram_inverse
    assert np.max(np.abs(total - np.eye(m.n0))) < 1e-10
    assert elapsed < 5.0


def test_certificate_closes_and_tail_sums_shrink(mild_ctx):
    t0 = time.perf_counter()
    cert = certify(lambda n: conftest.mild_synthesize(mild_ctx, n), 30, 200)
    assert cert.certified
    assert cert.N <= 200
    art = conftest.mild_synthesize(mild_ctx, cert.N)
    P = solve_lyapunov(art.loop_head, art.loop_coupling, art.loop_tail(), art.delta)
    assert cert.P_norm == pytest.approx(np.linalg.norm(P, 2), rel=1e-12)
    F = dense_loop(art)
    residual = F.T @ P + P @ F + 2 * art.delta * P + np.eye(F.shape[0])
    assert np.max(np.abs(residual)) < 1e-8
    assert np.min(np.linalg.eigvalsh(P)) > 0
    assert cert.theta1_max <= 0.0
    assert cert.psi_bound < 0

    sweep = [certify_round(conftest.mild_synthesize(mild_ctx, n)) for n in (30, 60, 120)]
    for a, b in zip(sweep, sweep[1:]):
        assert b.S1 < a.S1
        assert b.S2 < a.S2
        assert b.Sphi < a.Sphi
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0


def test_closed_loop_decay(decay_run):
    result, elapsed = decay_run
    composite = result.records["composite"]
    assert result.rate <= -0.5
    assert composite[-1] < 1e-3 * composite[0]
    assert elapsed < 30.0


def test_open_loop_growth(example_art60, example_eigs):
    t0 = time.perf_counter()
    z0 = decay_z0(example_eigs, 120)
    result = run(z0, 10.0, 1e-3, example_art60, N_sim=120, open_loop=True)
    elapsed = time.perf_counter() - t0
    # measured 3.4999999077: the slower growing modes' share, not the fit,
    # which returns the rate of a pure exponential on this grid exactly
    assert result.rate == pytest.approx(3.5, abs=1e-5)
    assert elapsed < 10.0


def test_reduced_subspace_matches_matrix_exponential(example_art30):
    t0 = time.perf_counter()
    system = ClosedLoop(example_art30, N_sim=30)
    state = init_state(np.ones(5), 30, 30)
    X0 = finite_part(system, np.concatenate([state.z, state.zhat])[None])[0]
    F = dense_loop(example_art30)
    h = 2.5e-4
    states = loop_states(system.exponential(h), np.concatenate([state.z, state.zhat]), 0, round(5.0 / h) + 1)
    for t_target in (1.0, 5.0):
        got = finite_part(system, states[round(t_target / h)][None])[0]
        want = expm(F * t_target) @ X0
        rel = np.linalg.norm(got - want) / np.linalg.norm(want)
        # measured 2.4e-13 (t = 1) and 6.6e-11 (t = 5)
        assert rel <= 1e-8
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0


def test_projection_identity_sampled_during_decay(decay_run):
    result, _ = decay_run
    assert result.projection_check_max <= 1e-8


def exact_terminal_h1(artifacts, z0, T, n_sim):
    """Terminal h1_proxy of the loop propagated exactly by expm(T A)."""
    system = ClosedLoop(artifacts, N_sim=n_sim)
    state = init_state(z0, n_sim, system.N)
    x = expm(T * system.full_matrix) @ np.concatenate([state.z, state.zhat])
    wn = system.w(SimState(t=T, z=x[:n_sim], zhat=x[n_sim:]))
    return float(np.sqrt(np.add.reduce(system.h1_weights * wn**2)))


def test_terminal_energy_insensitive_to_resolution_doubling(mild_ctx, mild_art30):
    cert = certify(lambda n: conftest.mild_synthesize(mild_ctx, n), 30, 30)
    assert cert.certified
    assert cert.N == 30
    h1 = {}
    for n_sim in (DECAY_N_SIM, 2 * DECAY_N_SIM):
        z0 = decay_z0(mild_ctx.eigs, n_sim)
        t0 = time.perf_counter()
        result = run(z0, DECAY_T, DECAY_H, mild_art30, N_sim=n_sim)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60.0
        h1[n_sim] = result.records["h1_proxy"][-1]
        exact = exact_terminal_h1(mild_art30, z0, DECAY_T, n_sim)
        # measured 1.3e-14 (N_sim = 240) and 1.3e-12 (480)
        assert abs(h1[n_sim] - exact) / exact < 1e-10
    h1_base = h1[DECAY_N_SIM]
    h1_doubled = h1[2 * DECAY_N_SIM]
    assert abs(h1_doubled - h1_base) / h1_base < 0.01


def test_cube_demo_certifies_in_3d(tmp_path):
    # the face integrals are closed-form, so a 3-D certify costs about what
    # a 2-D one does (0.1 s for the three rounds below on 2 vCPUs)
    demo = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "demos", "cube_3d.json")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = main(["certify", "--config", demo, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert math.isfinite(cert["theta1_max"]) and cert["theta1_max"] <= 0.0
    assert cert["status"] == "certified"
    assert [r["N"] for r in cert["rounds"]] == [10, 20, cert["N"]]
    assert cert["rounds"][-1] == {"N": cert["N"], "N_tail": cert["N_tail"], "status": "certified"}
    assert elapsed < 20.0


def test_pipeline_determinism(tmp_path):
    cfg = {
        "plant": {"d": 2, "b": [3.0, 3.0], "c": 10.0, "delta": 0.5},
        "sensors": {"xi1": [0.53, 1.05], "xi2": [1.05, 0.53]},
        "synthesis": {"N": 30},
        "certification": {"N_start": 30, "N_max": 30},
        "simulation": {
            "z0": {"modes": [[1, 1], [1, 2], [2, 1]], "coeffs": [1.0, 1.0, 1.0]},
            "T": 2.0,
            "h": 1e-3,
            "N_sim": 120,
            "t_skip": 0.5,
        },
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    out1, out2, out3 = tmp_path / "run1", tmp_path / "run2", tmp_path / "stages"
    assert main(["pipeline", "--config", str(path), "--out", str(out1)]) == 0
    assert main(["pipeline", "--config", str(path), "--out", str(out2)]) == 0
    # each stage alone, on its own design source, writes the pipeline's bytes
    assert main(["synthesize", "--config", str(path), "--out", str(out3)]) == 0
    assert main(["certify", "--config", str(path), "--out", str(out3)]) == 3
    assert main(["simulate", "--config", str(path), "--out", str(out3)]) == 0
    for name in ("synthesis.json", "certificate.json", "summary.json", "simulation.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        assert (out3 / name).read_bytes() == (out1 / name).read_bytes(), name
