"""parstab benchmark: runs one workload through the `parstab` CLI, checks every
output and prints the metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the program is imported from ./src. Each CLI
invocation (an "op") runs in a fresh process (perfbench/op.py). One
iteration runs the workload's ops once; a run makes the number of iterations
whose total time comes closest to --seconds. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are the end-to-end ones (median over iterations); with --trace 1
iterations alternate traced and untraced and the metrics are the per-layer
ones from the traced iterations, plus the tracing overhead. Working files go
to ./.perfbench_work.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import reference  # noqa: E402
import spans  # noqa: E402
from workloads import REFERENCE_RTOL, WORKLOADS  # noqa: E402

SETUP_PROBES = 2  # extra import-and-parse processes per run, for setup_s
OP_TIMEOUT_S = 150
PROJECTION_CHECK_MAX = 1e-8
# the simulation.csv schema the gate expects; a change to it fails the gate
CSV_COLUMNS = "t,l2_proxy,h1_proxy,y1,y2,u_l2_gamma1,err_finite,err_residual,zeta1,zeta2,composite"


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def source_hash(src: str) -> str:
    h = hashlib.sha256()
    pkg = os.path.join(src, "parstab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def environment(root: str, src_hash: str, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = got.stdout.strip() or None
    return {
        "nproc": threads,
        "blas": blas.get("name"),
        "blas_config": blas.get("openblas configuration"),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
        "source_sha256": src_hash,
    }


class Runner:
    """Spawns the op processes of one benchmark run."""

    def __init__(self, run_dir: str, src: str, child_env: dict):
        self.run_dir = run_dir
        self.src = src
        self.env = child_env
        self.count = 0

    def spawn(self, config: str, argv=None, traced=False):
        """Run perfbench/op.py once; its result dict, or None if it failed."""
        self.count += 1
        tag = os.path.join(self.run_dir, f"op{self.count:03d}")
        spec = {
            "src": self.src,
            "config": config,
            "argv": argv,
            "trace": traced,
            "setup_only": argv is None,
            "result": tag + ".result.json",
        }
        with open(tag + ".spec.json", "w") as fh:
            json.dump(spec, fh)
        with open(tag + ".log", "w") as log:
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "op.py"), tag + ".spec.json", repr(_now())],
                    env=self.env,
                    stdout=log,
                    stderr=log,
                    timeout=OP_TIMEOUT_S,
                )
            except subprocess.TimeoutExpired:
                return None
        if proc.returncode != 0 or not os.path.exists(spec["result"]):
            return None
        with open(spec["result"]) as fh:
            return json.load(fh)


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def check_op(op, out_dir: str, result, exact) -> tuple:
    """(problems, relerr) for one op's outputs; relerr is None unless it simulates."""
    if result is None:
        return ["op process failed (see its .log)"], None
    problems = []
    if result["exit_code"] != op.expect_exit:
        problems.append(f"exit code {result['exit_code']}, expected {op.expect_exit}")
    missing = [a for a in op.artifacts if not os.path.exists(os.path.join(out_dir, a))]
    if missing:
        return problems + [f"missing artifacts {missing}"], None
    delta = float(op.config["plant"]["delta"])

    def load(name):
        with open(os.path.join(out_dir, name)) as fh:
            return json.load(fh)

    def pinned(doc, ref, what):
        for key, want in (ref or {}).items():
            if not _close(float(doc[key]), want, REFERENCE_RTOL):
                problems.append(f"{what} {key} = {doc[key]!r}, reference {want!r}")

    if "synthesis.json" in op.artifacts:
        syn = load("synthesis.json")
        if not syn["F_abscissa"] <= -delta:
            problems.append(f"F_abscissa {syn['F_abscissa']} > -delta")
        pinned(syn, op.synthesis_ref, "synthesis.json")
    if "certificate.json" in op.artifacts:
        cert = load("certificate.json")
        if not cert["status"].startswith(op.status_prefix):
            problems.append(f"certificate status {cert['status']!r}, expected {op.status_prefix!r}...")
        if cert["N"] != op.cert_N:
            problems.append(f"certificate N = {cert['N']}, expected {op.cert_N}")
        if cert["status"] == "certified" and not (cert["theta1_max"] <= 0 and cert["psi_bound"] <= 0):
            problems.append("certified with a positive theta1 or psi bound")
        pinned(cert, op.certificate_ref, "certificate.json")
    if not op.simulates:
        return problems, None

    sim = op.config["simulation"]
    summ = load("summary.json")
    if not summ["decay_rate"] <= -delta:
        problems.append(f"decay_rate {summ['decay_rate']} > -delta")
    if not summ["projection_check_max"] < PROJECTION_CHECK_MAX:
        problems.append(f"projection_check_max {summ['projection_check_max']}")
    for key in ("N_sim", "T", "h"):
        if summ[key] != sim[key]:
            problems.append(f"summary {key} = {summ[key]}, config {sim[key]}")
    with open(os.path.join(out_dir, "simulation.csv")) as fh:
        header = fh.readline().strip()
        rows = 0
        last = header
        for line in fh:
            rows += 1
            last = line
    if header != CSV_COLUMNS:
        problems.append(f"CSV header {header!r}")
        return problems, None
    want_rows = round(sim["T"] / sim["h"]) + 1
    if rows != want_rows:
        problems.append(f"CSV has {rows} rows, expected {want_rows}")
    final = dict(zip(header.split(","), map(float, last.split(","))))
    if final["h1_proxy"] != summ["terminal_h1"]:
        problems.append("CSV terminal h1_proxy differs from summary.json")
    relerr = abs(final["h1_proxy"] - exact["h1_proxy"]) / exact["h1_proxy"]
    if not relerr <= op.relerr_max:
        problems.append(f"terminal h1_proxy off expm by {relerr:.3e} > {op.relerr_max:.1e}")
    return problems, relerr


def artifact_hash(op, out_dir: str) -> str:
    h = hashlib.sha256()
    for name in op.artifacts:
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            h.update(name.encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


class Tally:
    """What the iterations of one run produced, and what went wrong."""

    def __init__(self, ops):
        self.iterations = []
        self.setup = []  # setup_s samples: probes and every op
        self.relerrs = []
        self.problems = []
        self.failed = set()  # (iteration, op label)
        self.hashes = {op.label: None for op in ops}

    def fail(self, iteration: int, label: str, found) -> None:
        self.problems += [f"iteration {iteration} {label}: {p}" for p in found]
        self.failed.add((iteration, label))

    def iterate(self, ops, configs, exact, runner: Runner, traced: bool) -> None:
        """Run every op of the workload once and check its outputs."""
        n = len(self.iterations)
        it = {"traced": traced, "wall_s": 0.0, "peak_rss_mb": 0.0, "spans": []}
        for op, cfg, ref in zip(ops, configs, exact):
            out_dir = os.path.join(runner.run_dir, f"it{n}-{op.label}")
            os.makedirs(out_dir)  # `parstab simulate` does not create --out itself
            res = runner.spawn(cfg, [op.command, "--config", cfg, "--out", out_dir], traced)
            found, relerr = check_op(op, out_dir, res, ref)
            digest = artifact_hash(op, out_dir)
            shutil.rmtree(out_dir)
            if self.hashes[op.label] is None:
                self.hashes[op.label] = digest
            elif digest != self.hashes[op.label]:
                found.append("artifacts differ from the first iteration of this run")
            if found:
                self.fail(n, op.label, found)
            if relerr is not None:
                self.relerrs.append(relerr)
            if res is None:
                continue
            self.setup.append(res["setup_s"])
            it["wall_s"] += res["wall_s"]
            it["peak_rss_mb"] = max(it["peak_rss_mb"], res["peak_rss_mb"])
            it["blas_threads"] = res["blas_threads"]
            base = len(it["spans"])  # span ids restart in every op process
            for s in res.get("spans", ()):
                it["spans"].append([s[0] + base, s[1] + base if s[1] >= 0 else -1] + s[2:])
        self.iterations.append(it)

    def check_across_runs(self, path: str) -> None:
        """Artifacts of one seed must match across runs of one source tree."""
        if not os.path.exists(path):
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "w") as fh:
                json.dump(self.hashes, fh)
            return
        with open(path) as fh:
            seen = json.load(fh)
        for label, digest in self.hashes.items():
            if digest != seen.get(label, digest):
                for i in range(len(self.iterations)):
                    self.fail(i, label, ["artifacts differ from an earlier run of this seed"])

    def end_to_end(self) -> dict:
        plain = [i for i in self.iterations if not i["traced"]]
        return {
            "wall_s": (statistics.median(i["wall_s"] for i in plain), "s"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (statistics.median(i["peak_rss_mb"] for i in plain), "MB"),
        }

    def per_layer(self, untraced_wall: float) -> dict:
        runs = []
        for i in self.iterations:
            if i["traced"]:
                m = spans.layer_metrics(i["spans"])
                m["trace.wall_s"] = i["wall_s"]
                m["trace.unaccounted_s"] = i["wall_s"] - sum(m[f"{l}.self_s"] for l in spans.LAYERS)
                runs.append(m)
        out = {k: statistics.median(m[k] for m in runs) for k in runs[0]}
        out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
        out["simulation.relerr"] = statistics.median(self.relerrs) if self.relerrs else 0.0
        return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("relerr"):
        return "1"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "parstab", "cli.py")):
        print("perfbench: ./src/parstab not found; run from the repository root", file=sys.stderr)
        return 2
    # SIGTERM unwinds through subprocess.run, which kills and reaps the op
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    threads = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    sys.path.insert(0, src)

    workload = args.workload
    ops = WORKLOADS[workload](args.seed)
    work = os.path.join(root, ".perfbench_work")
    run_dir = os.path.join(work, "runs", f"{workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    src_hash = source_hash(src)
    env = environment(root, src_hash, threads)
    configs = []
    for op in ops:
        configs.append(os.path.join(run_dir, f"{op.label}.config.json"))
        with open(configs[-1], "w") as fh:
            json.dump(op.config, fh, indent=2)

    exact = [
        reference.exact_terminal(cfg, os.path.join(work, "reference"), src_hash) if op.simulates else None
        for op, cfg in zip(ops, configs)
    ]
    runner = Runner(run_dir, src, dict(os.environ))
    tally = Tally(ops)
    for _ in range(SETUP_PROBES):
        probe = runner.spawn(configs[0])
        if probe is not None:
            tally.setup.append(probe["setup_s"])
    probes = runner.count

    t_start = _now()
    while True:
        tally.iterate(ops, configs, exact, runner, bool(args.trace) and len(tally.iterations) % 2 == 0)
        # make the number of iterations whose total comes closest to --seconds;
        # a traced run also needs one untraced iteration, for the overhead
        n = len(tally.iterations)
        elapsed = _now() - t_start
        if (n >= 2 or not args.trace) and elapsed * (1 + 0.5 / n) >= args.seconds:
            break
    tally.check_across_runs(os.path.join(work, "hashes", src_hash[:16], f"{workload}-s{args.seed}.json"))

    attempted = runner.count - probes
    failed = len(tally.failed)
    env["blas_threads"] = tally.iterations[-1].get("blas_threads")
    e2e = tally.end_to_end()
    walls = [i["wall_s"] for i in tally.iterations if not i["traced"]]
    q1, q3 = _quartiles(walls)
    print(f"perfbench {workload} seed={args.seed} trace={args.trace} "
          f"iterations={len(tally.iterations)} ops={attempted}")
    print("env " + json.dumps(env, sort_keys=True))
    print(f"  wall_s       {e2e['wall_s'][0]:.4f} s   (median of {len(walls)}; q1 {q1:.4f}, q3 {q3:.4f})")
    print(f"  setup_s      {e2e['setup_s'][0]:.4f} s   (median of {len(tally.setup)})")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb'][0]:.1f} MB")
    print(f"  fail_rate    {failed / attempted:.4f} 1   ({failed}/{attempted} ops)")
    if tally.relerrs:
        print(f"  sim_relerr   {statistics.median(tally.relerrs):.4e} 1   (terminal h1_proxy vs expm)")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    if args.trace:
        layers = tally.per_layer(e2e["wall_s"][0])
        for key in sorted(layers):
            print(f"  {key:34s} {layers[key]:.6g}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()}
        with open(os.path.join(run_dir, "spans.json"), "w") as fh:
            json.dump([i["spans"] for i in tally.iterations if i["traced"]], fh)
    for p in tally.problems:
        print("  FAILED " + p)

    results = os.path.join(work, "results")
    os.makedirs(results, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    with open(os.path.join(results, f"{workload}-s{args.seed}-t{args.trace}-{stamp}.json"), "w") as fh:
        json.dump(
            {
                "workload": workload,
                "seed": args.seed,
                "trace": args.trace,
                "seconds": args.seconds,
                "env": env,
                "iterations": [{k: v for k, v in i.items() if k != "spans"} for i in tally.iterations],
                "setup_samples": tally.setup,
                "sim_relerr": tally.relerrs,
                "problems": tally.problems,
                "metrics": metrics,
            },
            fh,
            indent=1,
        )
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
