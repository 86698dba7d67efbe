import dataclasses
import json
import logging
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from parstab import certification, cli, lifting, linalg
from parstab.certification import (
    CertificationError,
    NotYetCertifiable,
    certify,
    certify_round,
    check_psi,
    check_theta1,
    choose_tail,
    compute_S1,
    compute_S2,
    compute_Sphi,
    eta_cert_rule,
    round_sizes,
    solve_lyapunov,
    sphi_terms,
    tail_pair_sums,
    theta1_matrix,
)
from parstab.lifting import AdmissibilityError
from parstab.spectral_basis import PlantConfig, enumerate_eigenpairs

from conftest import EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, MILD_SENSOR_1, MILD_SENSOR_2
import conftest
import oracles


NO_TAIL = (np.zeros((1, 0)), np.zeros(0))


def test_solve_lyapunov_scalars():
    assert solve_lyapunov(np.array([[-1.0]]), *NO_TAIL, 0.0)[0, 0] == pytest.approx(0.5)
    assert solve_lyapunov(np.array([[-2.0]]), *NO_TAIL, 1.0)[0, 0] == pytest.approx(0.5)


def test_solve_lyapunov_rejects_shifted_unstable():
    with pytest.raises(CertificationError):
        solve_lyapunov(np.array([[-0.5]]), *NO_TAIL, 1.0)
    # a tail eigenvalue right of -delta is refused too
    with pytest.raises(CertificationError, match="not Hurwitz"):
        solve_lyapunov(np.array([[-2.0]]), np.ones((1, 1)), np.array([-0.5]), 1.0)


def block_loop(rng, n0, n_tail, margin):
    """The blocks of a loop as a design holds them: a dense 2*n0 head, its
    coupling to the tail and the tail diagonal, with every eigenvalue's
    real part at or below -margin."""
    h = 2 * n0
    H = rng.standard_normal((h, h)) * rng.uniform(0.1, 5.0)
    H -= (np.max(np.linalg.eigvals(H).real) + margin) * np.eye(h)
    coupling = rng.standard_normal((h, n_tail)) * rng.uniform(0.1, 10.0)
    return H, coupling, -rng.uniform(margin, 200.0, n_tail)


@settings(max_examples=60, deadline=None)
@given(
    n0=st.integers(min_value=1, max_value=4),
    n_tail=st.integers(min_value=0, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    margin=st.floats(min_value=0.2, max_value=5.0),
)
def test_block_lyapunov_solve_is_scipys(n0, n_tail, seed, margin):
    head, coupling, tail = block_loop(np.random.default_rng(seed), n0, n_tail, margin)
    delta = 0.5 * margin
    P = solve_lyapunov(head, coupling, tail, delta)
    F = np.block([[head, coupling], [np.zeros((n_tail, 2 * n0)), np.diag(tail)]])
    want = scipy.linalg.solve_continuous_lyapunov((F + delta * np.eye(len(F))).T, -np.eye(len(F)))
    assert np.array_equal(P, P.T)
    assert np.max(np.abs(P - want)) <= 1e-12 * np.max(np.abs(want))


def test_solve_lyapunov_example_loop(example_art30):
    m = example_art30
    F = oracles.dense_loop(m)
    P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), 0.5)
    residual = F.T @ P + P @ F + 2 * 0.5 * P + np.eye(F.shape[0])
    assert np.max(np.abs(residual)) < 1e-8
    assert np.min(np.linalg.eigvalsh(P)) > 0
    assert np.array_equal(P, P.T)


def s_sums(m, N, N_tail):
    sums = tail_pair_sums(m, N, N_tail)
    return compute_S1(m, sums), compute_S2(m, sums)


def test_s_sums_empty_tail(example_art60):
    assert s_sums(example_art60, 60, 60) == (0.0, 0.0)


def test_s_sums_scale_with_gamma_ladder(example_art60):
    S1, S2 = s_sums(example_art60, 60, 400)
    assert S1 > 0 and S2 > 0
    gmin, gmax = min(example_art60.gammas), max(example_art60.gammas)
    assert gmin**2 * S2 <= S1 <= gmax**2 * S2


def test_s_sums_shrink_when_truncation_grows(example_art60):
    at60, at30 = s_sums(example_art60, 60, 400), s_sums(example_art60, 30, 400)
    assert at60[0] < at30[0]
    assert at60[1] < at30[1]


def pair_sums(m, N, N_tail):
    return np.array([s for _, _, s in tail_pair_sums(m, N, N_tail)])


def test_pair_sums_empty_and_monotone(example_art30):
    m = example_art30
    assert pair_sums(m, 100, 100).tolist() == [0.0] * m.n0**2
    r400 = pair_sums(m, 100, 400)
    r480 = pair_sums(m, 100, 480)
    assert np.all(r400 >= 0.0) and np.all(r400 <= r480)


def test_pair_sums_decay_with_truncation(example_art30):
    # tail terms fall off slowly (roughly n^-1.4 here), so doubling N only
    # roughly halves each pair's sum; strict decrease is the guaranteed part
    r100 = pair_sums(example_art30, 100, 480)
    r200 = pair_sums(example_art30, 200, 480)
    assert np.all(r200 < r100)
    assert np.all(r100 / r200 > 1.5)


def test_pair_sums_argument_errors(example_art30):
    m = example_art30
    with pytest.raises(ValueError):
        tail_pair_sums(m, 100, 99)
    with pytest.raises(ValueError):
        tail_pair_sums(m, 100, len(m.context.eigs) + 1)
    hit = dataclasses.replace(m, gammas=(-m.context.lams[150],) + m.gammas[1:])
    with pytest.raises(AdmissibilityError):
        tail_pair_sums(hit, 100, 400)


def sphi(eigs, xi1, xi2, N, N_tail, nu):
    return compute_Sphi(sphi_terms(eigs, xi1, xi2, N, N_tail, nu))


def test_sphi_monotone_and_blocks_flatten(example_eigs):
    args = (example_eigs, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2)
    assert sphi(*args, 100, 100, 11.0) == 0.0
    full = sphi(*args, 100, 400, 11.0)
    tail = sphi(*args, 200, 400, 11.0)
    assert 0 < tail < full
    # Cauchy blocks of the sensor series shrink as the window doubles
    b1 = sphi(*args, 100, 200, 11.0)
    b2 = sphi(*args, 200, 400, 11.0)
    assert b2 < b1


def test_sphi_line_bound():
    plant = PlantConfig(dim=1, nu=1.0, delta=0.5)
    eigs = enumerate_eigenpairs(plant, 200)
    got = sphi(eigs, (1.0,), (2.0,), 50, 200, 1.0)
    # |phi_n|^2 <= 2/pi per sensor
    bound = (4 / np.pi) * sum(1.0 / (n**2 + 1.0) ** 2 for n in range(51, 201))
    assert 0 < got <= bound


def test_eta_cert_rule():
    assert eta_cert_rule(0.0, 60) == 60.0
    assert eta_cert_rule(0.25, 60) == pytest.approx(2.0)


def test_check_psi_values():
    assert check_psi(10.0, 1.0, 0.5, 1.0, 0.0) == pytest.approx(-2.5)
    assert check_psi(5.0, 1.0, 0.5, 1.0, 0.0) == pytest.approx(0.0)


def test_check_psi_rejections():
    with pytest.raises(NotYetCertifiable):
        check_psi(-1.0, 1.0, 0.5, 1.0, 0.0)
    with pytest.raises(NotYetCertifiable):
        check_psi(10.0, 1.0, 0.5, 100.0, 1.0)


def test_theta1_border_threshold(mild_art30):
    m = mild_art30
    P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
    threshold = np.linalg.norm(P @ m.stacked_gain, 2) ** 2
    assert check_theta1(P, m, 0.0, 0.0, 1.1 * threshold) < 0
    assert check_theta1(P, m, 0.0, 0.0, 0.9 * threshold) > 0
    assert check_theta1(P, m, 0.0, 0.0, 0.0) >= 0


def test_theta1_dimension_guard(mild_art30):
    with pytest.raises(ValueError):
        check_theta1(np.eye(3), mild_art30, 0.0, 0.0, 1.0)


@pytest.mark.parametrize("design", ["example_art30", "mild_art30"])
def test_theta1_E2_is_the_head_rows_of_F_and_G(design, request):
    m = request.getfixturevalue(design)
    L = m.observer_gain
    E2 = np.hstack([m.gain_block, L @ m.sensor_head, L @ oracles.sensor_tail_scaled(m), L])
    F = oracles.dense_loop(m)
    assert np.array_equal(np.hstack([F[: m.n0], m.stacked_gain[: m.n0]]), E2)
    # with P, S1 and eta_cert zero and S2 one, Theta1 is eps E2'E2, symmetrised
    gram = 2.0 * m.n0**2 * (E2.T @ E2)
    theta = theta1_matrix(np.zeros_like(F), m, 0.0, 1.0, 0.0)
    assert np.array_equal(theta, 0.5 * (gram + gram.T))


def test_choose_tail_hits_cap(example_art30, mild_art30):
    assert choose_tail(example_art30, 30)[0] == 480
    assert choose_tail(mild_art30, 30)[0] == 480


@pytest.mark.parametrize("design", ["example_art30", "example_art60", "mild_art30"])
def test_round_tail_is_the_per_pair_forms(design, request):
    m = request.getfixturevalue(design)
    cert = certify_round(m)
    assert cert.N_tail == min(lifting.tail_cap(m.N), len(m.context.eigs))
    assert cert.S1 == oracles.tail_sum(m, m.N, cert.N_tail, True)
    assert cert.S2 == oracles.tail_sum(m, m.N, cert.N_tail, False)
    assert cert.Sphi == oracles.sphi_sum(m, m.N, cert.N_tail)


@settings(max_examples=40, deadline=None)
@given(
    mild=st.booleans(),
    N=st.integers(min_value=3, max_value=480),
    cap_over=st.integers(min_value=0, max_value=2000),
)
def test_tail_is_the_per_pair_forms_at_drawn_sizes(example_art30, mild_art30, mild, N, cap_over):
    # the cap is drawn too, so that it falls both below and beyond the modes held
    m = mild_art30 if mild else example_art30
    cap = N + cap_over
    with mock.patch.object(lifting, "tail_cap", lambda n: cap):
        n_tail, phi = choose_tail(m, N)
    assert n_tail == min(cap, len(m.context.eigs))
    sums = tail_pair_sums(m, N, n_tail)
    assert compute_S1(m, sums) == oracles.tail_sum(m, N, n_tail, True)
    assert compute_S2(m, sums) == oracles.tail_sum(m, N, n_tail, False)
    assert compute_Sphi(phi) == oracles.sphi_sum(m, N, n_tail)


def test_a_round_forms_its_tail_terms_once(example_art30, monkeypatch):
    # the Sphi terms come from one eval_phi call and the pair terms from one
    # shift_denominators call per shift
    calls = {"eval_phi": 0, "shift_denominators": 0}

    def counted(owner, name):
        fn = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(certification, "eval_phi")
    counted(lifting, "shift_denominators")
    cert = certify_round(example_art30)
    assert cert.N_tail == 480
    assert calls["eval_phi"] == 1
    assert calls["shift_denominators"] == len(example_art30.gammas)


def test_a_round_short_of_modes_warns_and_sums_what_is_held(example_art60, caplog):
    # the example context holds 481 modes, below the N = 60 cap of 960
    assert len(example_art60.context.eigs) == 481 < lifting.tail_cap(60) == 960
    with caplog.at_level(logging.WARNING, logger="parstab.certification"):
        cert = certify_round(example_art60)
    assert cert.N_tail == 481
    warnings = [r for r in caplog.records if r.levelno >= logging.WARNING]
    assert len(warnings) == 1
    assert "tail truncated to 481 available modes (wanted 960)" in warnings[0].getMessage()


def test_certify_round_mild_design(mild_art30):
    cert = certify_round(mild_art30)
    assert cert.certified
    assert cert.status == "certified"
    assert cert.N == 30
    assert cert.N_tail == 480
    assert cert.epsilon == 2.0
    assert cert.theta1_max == pytest.approx(-0.5408, abs=5e-3)
    assert cert.psi_bound == pytest.approx(-19.5, abs=0.5)
    assert cert.eta_cert == pytest.approx(17.242, abs=5e-2)
    assert cert.S1 == pytest.approx(0.1087, abs=2e-3)
    assert cert.S2 == pytest.approx(0.0272, abs=1e-3)
    assert cert.Sphi == pytest.approx(3.36e-3, abs=1e-4)
    assert cert.P_norm == pytest.approx(1.748, abs=1e-2)
    assert cert.theta1_max <= 1e-9
    assert cert.psi_bound < 0
    m = mild_art30
    P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
    assert np.min(np.linalg.eigvalsh(P)) > 0
    assert cert.P_norm == pytest.approx(np.linalg.norm(P, 2), rel=1e-12)


@pytest.fixture(scope="module")
def strong_art240():
    """The strong-drift design at N = 240 on the modes its top round needs."""
    cfg = cli._validated(
        {
            "plant": {"d": 2, "b": [3.0, 3.0], "c": 10.0, "delta": 0.5},
            "sensors": {"xi1": list(EXAMPLE_SENSOR_1), "xi2": list(EXAMPLE_SENSOR_2)},
            "synthesis": {"N": 60},
            "certification": {"N_start": 240, "N_max": 240},
        }
    )
    return cli._design_source(cfg)(240)


def test_P_norm_is_the_2_norm_of_P_on_the_strong_design_at_240(strong_art240):
    m = strong_art240
    cert = certify_round(m)
    assert cert.N_tail == lifting.tail_cap(240)
    P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
    assert np.min(np.linalg.eigvalsh(P)) > 0
    assert cert.P_norm == pytest.approx(np.linalg.norm(P, 2), rel=1e-12)


def test_a_round_at_240_stays_within_its_n2_budget(strong_art240):
    # the solve holds P and B'P12, then P and P F, beside ROW_BLOCK-row
    # temporaries; the round then P, Theta1 and one work array. The
    # whole-matrix forms read 6.15 and 6.10 n^2 doubles
    m = strong_art240
    n = len(m.stacked_gain)
    assert n == 243
    n2 = 8 * n * n
    assert conftest.traced_peak(certify_round, m) <= 4.5 * n2
    loop = (m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
    assert conftest.traced_peak(solve_lyapunov, *loop) <= 3.5 * n2


def test_a_round_runs_on_one_blas_thread(mild_art30, monkeypatch):
    # the solve and Theta1 run inside the round's pin, whatever the count outside
    calls = linalg._blas_thread_calls()
    if calls is None:
        pytest.skip("no OpenBLAS thread call in numpy's BLAS")
    setter, getter = calls
    seen = []

    def counted(fn):
        def wrapper(*args):
            seen.append((fn.__name__, getter()))
            return fn(*args)

        return wrapper

    for name in ("solve_lyapunov", "theta1_matrix"):
        monkeypatch.setattr(certification, name, counted(getattr(certification, name)))
    old = getter()
    setter(2)
    try:
        cert = certify_round(mild_art30)
        assert getter() == 2
    finally:
        setter(old)
    assert cert.certified
    assert seen == [("solve_lyapunov", 1), ("theta1_matrix", 1)]


def test_certify_stops_at_first_passing_round(mild_ctx):
    cert = certify(lambda n: conftest.mild_synthesize(mild_ctx, n), 30, 120)
    assert cert.certified
    assert cert.N == 30
    assert len(cert.rounds) == 1


def test_certify_reports_failure_with_reason(example_ctx):
    from parstab import synthesis

    def builder(n):
        return synthesis.synthesize(
            example_ctx, EXAMPLE_SENSOR_1, EXAMPLE_SENSOR_2, n, 0.5
        )

    cert = certify(builder, 30, 30)
    assert not cert.certified
    assert cert.status.startswith("failed")
    assert "theta1" in cert.status
    assert cert.theta1_max > 0
    assert len(cert.rounds) == 1


def test_certify_argument_order(mild_ctx):
    with pytest.raises(ValueError):
        certify(lambda n: conftest.mild_synthesize(mild_ctx, n), 60, 30)


def test_round_sizes_double_from_N_start():
    assert round_sizes(30, 60) == [30, 60]
    assert round_sizes(8, 63) == [8, 16, 32]
    assert round_sizes(30, 30) == [30]
    # N_start = 0 would double to 0 forever
    with pytest.raises(ValueError):
        round_sizes(0, 30)


def test_certificate_json_shape(mild_art30):
    cert = certify_round(mild_art30)
    payload = cert.to_json_dict()
    assert set(payload) == {
        "schema_version",
        "N",
        "nu",
        "delta",
        "epsilon",
        "eta_cert",
        "S1",
        "S2",
        "Sphi",
        "theta1_max",
        "psi_bound",
        "P_norm",
        "status",
        "N_tail",
        "rounds",
    }
    back = json.loads(json.dumps(payload))
    assert back["status"] == "certified"
    assert back["N_tail"] == 480
    assert back["rounds"] == [{"N": 30, "N_tail": 480, "status": "certified"}]
    assert back["theta1_max"] == cert.theta1_max


# P and the bordered Theta1 of the demo designs: the strong-drift one at
# N = 30 to 240, the quick one at 8 and the cube at 40. Each must have the
# bytes of the whole-matrix forms in `oracles`; prints a digest of them all
THETA_DIGEST = """
import hashlib, json, os, sys
import oracles
from parstab import cli
from parstab.certification import solve_lyapunov, theta1_matrix

digest = hashlib.sha256()
for demo, sizes in (
    ("strong_drift_pipeline.json", (30, 60, 120, 240)),
    ("quick_certify.json", (8,)),
    ("cube_3d.json", (40,)),
):
    with open(os.path.join(sys.argv[1], demo)) as fh:
        raw = json.load(fh)
    raw["certification"].update(N_start=sizes[0], N_max=sizes[-1])
    source = cli._design_source(cli._validated(raw))
    for N in sizes:
        m = source(N)
        P = solve_lyapunov(m.loop_head, m.loop_coupling, m.loop_tail(), m.delta)
        theta = theta1_matrix(P, m, 1.0, 1.0, 10.0)
        dense = oracles.lyapunov_dense(oracles.dense_loop(m), m.delta, 2 * m.n0)
        assert P.tobytes() == dense.tobytes(), (demo, N)
        assert theta.tobytes() == oracles.theta1_dense(P, m, 1.0, 1.0, 10.0).tobytes(), (demo, N)
        digest.update(P.tobytes() + theta.tobytes())
print(digest.hexdigest())
"""


def test_lyapunov_and_theta1_bytes_do_not_depend_on_blas_threads():
    # the eigenvalues of a 245-dim Theta1 and the 2-norm of P would not
    # without the one-thread pin; tests/test_cli.py holds those certificate
    # bytes at N = 240
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    digests = set()
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), here, env.get("PYTHONPATH", "")])
        proc = subprocess.run(
            [sys.executable, "-c", THETA_DIGEST, os.path.join(root, "demos")],
            capture_output=True,
            text=True,
            env=env,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        digests.add(proc.stdout)
    assert len(digests) == 1
