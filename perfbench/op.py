"""One benchmark operation in a fresh process: import `parstab`, parse the
config, then (unless --setup-only) call `parstab.cli.main` once, optionally
under spans, and write what it cost to a JSON file.

    python3 perfbench/op.py SPEC.json SPAWNED

SPAWNED is CLOCK_MONOTONIC when the parent started this process. SPEC holds
src (directory holding the `parstab` package), config, argv for `main`,
trace (bool), setup_only (bool) and result (path to write).
"""

from __future__ import annotations

import ctypes
import glob
import json
import os
import sys
import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads():
    """Thread count OpenBLAS reports from inside this process, or None."""
    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process image (VmHWM).

    Not ru_maxrss: Linux carries the parent's peak into it across fork and
    exec, so it would report the memory of run.py, not of the op.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError("no VmHWM in /proc/self/status")


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from parstab import cli

    cli.parse_config(spec["config"])
    setup_s = _now() - float(sys.argv[2])
    src_pkg = os.path.join(os.path.realpath(spec["src"]), "parstab")
    if os.path.dirname(os.path.realpath(cli.__file__)) != src_pkg:
        print(f"parstab imported from {cli.__file__}, not {src_pkg}", file=sys.stderr)
        return 1
    out = {"setup_s": setup_s}
    if not spec["setup_only"]:
        entry = cli.main
        tracer = None
        if spec["trace"]:
            import spans

            tracer = spans.Tracer()
            spans.instrument(tracer)
            entry = tracer.wrap("cli.main", cli.main)
        t0 = time.perf_counter()
        code = entry(spec["argv"])
        out["wall_s"] = time.perf_counter() - t0
        out["exit_code"] = code
        out["peak_rss_mb"] = peak_rss_mb()
        out["blas_threads"] = blas_threads()
        if tracer is not None:
            out["spans"] = tracer.spans
    with open(spec["result"], "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
