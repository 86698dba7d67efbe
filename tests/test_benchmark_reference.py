"""The benchmark's second hook into the package: `perfbench/reference.py`
rebuilds a design through the public API, iterates the mode table to place
z0, and reads the exact terminal state through `SimState` and
`ClosedLoop.w`. A change that breaks any of these fails here rather than only
in a benchmark run.
"""

import json
import os
import subprocess
import sys

from parstab.cli import main

from test_benchmark_hooks import CONFIG, PERFBENCH, ROOT

# exact_terminal(config, cache_dir, source_hash), printed as JSON
SCRIPT = """
import json, sys
import reference
print(json.dumps(reference.exact_terminal(sys.argv[1], sys.argv[2], "tests")))
"""


def test_exact_reference_matches_the_simulated_terminal_state(tmp_path):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps(CONFIG))
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    simulated = json.loads((tmp_path / "out" / "summary.json").read_text())["terminal_h1"]

    before = sorted(os.listdir(PERFBENCH))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), PERFBENCH]))
    cache = tmp_path / "cache"
    # -B: importing reference must leave no __pycache__ in perfbench/
    proc = subprocess.run(
        [sys.executable, "-B", "-c", SCRIPT, str(cfg), str(cache)],
        capture_output=True,
        text=True,
        env=env,
        cwd=tmp_path,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert sorted(os.listdir(PERFBENCH)) == before
    exact = json.loads(proc.stdout.splitlines()[-1])["h1_proxy"]
    # the simulation propagates with expm of the same loop, so only rounding
    # separates the two
    assert abs(simulated - exact) <= 1e-9 * abs(exact)
    assert len(os.listdir(cache)) == 1
