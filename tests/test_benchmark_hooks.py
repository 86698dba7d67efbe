"""The benchmark's tracer (`perfbench/spans.py`) wraps `parstab` functions
by module attribute from outside the package. A refactor that drops or
renames one of those names, or stops calling it through its module global,
fails here rather than only in a traced benchmark run.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")

CONFIG = {
    "plant": {"d": 2, "c": 0.5, "nu": 1.5, "delta": 1.5},
    "sensors": {"xi1": [math.pi / 2, math.pi / 2], "xi2": [1.2, 1.9]},
    "synthesis": {"N": 8, "gamma_base": 2.0},
    "certification": {"N_start": 8, "N_max": 8},
    "simulation": {
        "z0": {"modes": [[1, 1]], "coeffs": [1.0]},
        "T": 0.5,
        "h": 1e-3,
        "N_sim": 16,
        "t_skip": 0.1,
    },
}

# instrument, run one traced CLI call and print its exit code and metrics
SCRIPT = """
import json, sys
import spans
from parstab import cli
tracer = spans.Tracer()
spans.instrument(tracer)
code = tracer.wrap("cli.main", cli.main)(sys.argv[1:])
print(json.dumps({"code": code, "metrics": spans.layer_metrics(tracer.spans)}))
"""


def test_benchmark_tracer_instruments_a_pipeline(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    before = sorted(os.listdir(PERFBENCH))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH]))
    # -B: importing spans must leave no __pycache__ in perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, "pipeline", "--config", str(cfg), "--out", str(tmp_path / "out")],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(PERFBENCH)) == before
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["code"] == 0
    m = out["metrics"]
    # one context and one N = 8 design shared by the three stages, one
    # certificate round, T/h + 1 rows from a loop checked once before its
    # propagation; one batched
    # eval_phi call per sensor-row block: the design's head and tail rows,
    # the round's Sphi terms and C_sim
    assert m["spectral_basis.enumerate_calls"] == 1
    assert m["lifting.context_builds"] == 1
    assert m["synthesis.calls"] == 1
    assert m["certification.rounds"] == 1
    assert m["simulation.rows"] == 501
    assert m["simulation.checks"] == 1
    assert m["spectral_basis.point_evals"] == 4
    assert m["spectral_basis.trace_rows"] > 0
