"""Summarise benchmark result files into one baseline entry.

    python3 perfbench/summarize.py [RESULTS_DIR] > entry.json

Reads every result perfbench/run.py wrote (default
./.perfbench_work/results) and prints, per workload and per mode (untraced
metrics, traced per-layer metrics), the median and quartiles of each metric
over runs, the environment, and every run's values.
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys


def summarize(results_dir: str) -> dict:
    records = []
    for path in sorted(glob.glob(os.path.join(results_dir, "*.json"))):
        with open(path) as fh:
            records.append(json.load(fh))
    workloads = {}
    for rec in records:
        mode = "per_layer" if rec["trace"] else "end_to_end"
        slot = workloads.setdefault(rec["workload"], {}).setdefault(mode, {"runs": []})
        slot["runs"].append(
            {
                "seed": rec["seed"],
                "correct": not rec["problems"],
                "iterations": len(rec["iterations"]),
                "metrics": {k: v["value"] for k, v in rec["metrics"].items()},
            }
        )
    for modes in workloads.values():
        for slot in modes.values():
            runs = slot["runs"]
            stats = {}
            for key in runs[0]["metrics"]:
                values = [r["metrics"][key] for r in runs]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
                stats[key] = {
                    "median": med,
                    "q1": q1,
                    "q3": q3,
                    "spread": (q3 - q1) / med if med else None,
                }
            slot["n"] = len(runs)
            slot["stats"] = stats
    envs = {json.dumps(r["env"], sort_keys=True) for r in records}
    return {"env": [json.loads(e) for e in sorted(envs)], "workloads": workloads}


if __name__ == "__main__":
    where = sys.argv[1] if len(sys.argv) > 1 else os.path.join(".perfbench_work", "results")
    json.dump(summarize(where), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
