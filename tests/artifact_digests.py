"""sha256 of every artifact the demos and the benchmark's seed-1 ops write.

    python3 tests/artifact_digests.py [--src DIR]

Runs `parstab pipeline` on the three demos, `sweep` on
demos/sweep_quick.json and each op of the three workloads of
perfbench/workloads.py at seed 1, one after another in this process, each
into a fresh directory. For each run it prints `# RUN exit CODE`, then one
line `SHA256  RUN/FILE` per file the run wrote, in sorted order. `--src`
names the directory holding the `parstab` package (this tree's `src` by
default); the demos and the workload configs always come from this tree.

The artifacts must not depend on the BLAS thread count, nor change with a
change that claims to keep them, so either check is a diff of two outputs:

    OPENBLAS_NUM_THREADS=1 python3 tests/artifact_digests.py > one.txt
    OPENBLAS_NUM_THREADS=2 python3 tests/artifact_digests.py > two.txt
    diff one.txt two.txt
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = ("quick_certify", "strong_drift_pipeline", "cube_3d")
SEED = 1


def runs(scratch: str) -> dict:
    """{run name: (command, config path)} of every run, in order; the
    workload configs are written under `scratch`."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import workloads

    out = {name: ("pipeline", os.path.join(ROOT, "demos", f"{name}.json")) for name in DEMOS}
    out["sweep_quick"] = ("sweep", os.path.join(ROOT, "demos", "sweep_quick.json"))
    for workload, ops in workloads.WORKLOADS.items():
        for op in ops(SEED):
            name = f"{workload}.{op.label}"
            path = os.path.join(scratch, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(op.config, fh)
            out[name] = (op.command, path)
    return out


def digests(directory: str, name: str):
    """`SHA256  name/FILE` for each file under `directory`, by path."""
    found = sorted(
        os.path.relpath(os.path.join(here, file), directory)
        for here, _, files in os.walk(directory)
        for file in files
    )
    for rel in found:
        with open(os.path.join(directory, rel), "rb") as fh:
            yield f"{hashlib.sha256(fh.read()).hexdigest()}  {name}/{rel}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=os.path.join(ROOT, "src"), help="directory holding parstab")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    from parstab import cli

    with tempfile.TemporaryDirectory() as scratch:
        for name, (command, config) in runs(scratch).items():
            out = os.path.join(scratch, "out", name)
            os.makedirs(out)
            # the command's own messages are not artifacts
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main([command, "--config", config, "--out", out])
            print(f"# {name} exit {code}")
            for line in digests(out, name):
                print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
