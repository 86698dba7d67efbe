"""Spans around calls into each `parstab` module, recorded from outside the
package, and the per-layer metrics derived from them.

`instrument` replaces module attributes (and a few class methods) in the
running process with timing wrappers; nothing in `src/parstab` is edited.
A function is wrapped under the name each consumer module imported it by,
because `from .spectral_basis import eval_phi` binds a separate name in
every importer. A span's name is `<layer>.<function>`, and the layer is the
`parstab` module the function belongs to.
"""

from __future__ import annotations

import functools
import math
import os
import time

LAYERS = ("spectral_basis", "lifting", "synthesis", "certification", "simulation", "cli")


class Tracer:
    """Single-threaded span recorder; spans stay in memory until written.

    Each span is [id, parent_id, name, start, end, attrs]; parent_id is -1 at
    the root and attrs is None or a dict of counts taken from the call.
    """

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, name: str, fn, note=None):
        """`fn` with a span around each call; `note(args, kwargs, result)`
        returns the span's attrs."""
        spans, stack, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [len(spans), stack[-1] if stack else -1, name, clock(), 0.0, None]
            spans.append(rec)
            stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                stack.pop()
            if note is not None:
                rec[5] = note(args, kwargs, result)
            return result

        return traced


def instrument(tracer: Tracer) -> None:
    """Wrap the public functions each layer's callers use."""
    from parstab import certification, cli, lifting, simulation, synthesis

    def patch(owner, attr, span, note=None):
        setattr(owner, attr, tracer.wrap(span, getattr(owner, attr), note))

    patch(cli, "parse_config", "cli.parse_config")
    for stage in ("synthesize", "certify", "simulate", "pipeline"):
        patch(cli, f"cmd_{stage}", f"cli.{stage}")

    patch(cli, "enumerate_eigenpairs", "spectral_basis.enumerate",
          lambda a, kw, r: {"modes": len(r)})
    patch(cli, "count_unstable", "spectral_basis.count_unstable")
    for mod in (synthesis, certification, simulation):
        patch(mod, "eval_phi", "spectral_basis.eval_phi")
    patch(synthesis, "conormal_trace", "spectral_basis.conormal_trace")
    for mod in (lifting, simulation):
        patch(mod, "trace_matrix", "spectral_basis.trace_matrix",
              lambda a, kw, r: {"rows": len(r)})
        patch(mod, "face_quadrature", "spectral_basis.face_quadrature")

    patch(lifting.LiftingContext, "__init__", "lifting.context",
          lambda a, kw, r: {"trace_bytes": a[0].traces.nbytes})

    patch(synthesis, "synthesize", "synthesis.synthesize",
          lambda a, kw, r: {"doublings": math.log2(r.gammas[0] / kw.get("gamma_base", 10.0))})

    patch(certification, "certify", "certification.certify")
    patch(certification, "certify_round", "certification.round",
          lambda a, kw, r: {"tail_modes": r.N_tail})
    patch(certification, "solve_lyapunov", "certification.lyapunov")
    for fn in ("choose_tail", "compute_S1", "compute_S2", "compute_Sphi"):
        patch(certification, fn, f"certification.tail.{fn}")
    patch(certification, "check_theta1", "certification.theta1")

    patch(simulation, "run", "simulation.run", lambda a, kw, r: {"rows": len(r.times)})
    patch(simulation, "write_csv", "simulation.csv",
          lambda a, kw, r: {"csv_bytes": os.path.getsize(a[1])})
    patch(simulation.ClosedLoop, "__init__", "simulation.assembly",
          lambda a, kw, r: {"state_dim": a[0].N_sim + a[0].N})
    patch(simulation.ClosedLoop, "step", "simulation.step")
    patch(simulation.ClosedLoop, "projection_check", "simulation.check")


def layer_metrics(spans) -> dict:
    """Per-layer sums over one traced run (one or more `main()` calls).

    Times are summed over calls. A span's self time is its duration minus the
    durations of its direct children, which nest inside it because the
    program is single-threaded; per layer, self times plus `cli.self_s` add
    up to the time of the root `cli.main` spans.
    """
    dur = [s[4] - s[3] for s in spans]
    self_t = list(dur)
    for s, d in zip(spans, dur):
        if s[1] >= 0:
            self_t[s[1]] -= d

    def total(*names):
        return sum(d for s, d in zip(spans, dur) if s[2] in names)

    def count(*names):
        return sum(1 for s in spans if s[2] in names)

    def attr(name, key, agg=sum):
        return agg([s[5][key] for s in spans if s[2] == name] or [0])

    def self_of(prefix):
        return sum(t for s, t in zip(spans, self_t) if s[2].startswith(prefix))

    tail = tuple(f"certification.tail.{f}" for f in ("choose_tail", "compute_S1", "compute_S2", "compute_Sphi"))
    out = {
        "spectral_basis.enumerate_s": total("spectral_basis.enumerate"),
        "spectral_basis.enumerate_calls": count("spectral_basis.enumerate"),
        "spectral_basis.modes": attr("spectral_basis.enumerate", "modes"),
        "spectral_basis.point_evals": count("spectral_basis.eval_phi", "spectral_basis.conormal_trace"),
        "spectral_basis.trace_rows": attr("spectral_basis.trace_matrix", "rows"),
        "lifting.context_s": total("lifting.context"),
        "lifting.context_builds": count("lifting.context"),
        "lifting.trace_table_mb": attr("lifting.context", "trace_bytes", max) / 1e6,
        "synthesis.synthesize_s": total("synthesis.synthesize"),
        "synthesis.calls": count("synthesis.synthesize"),
        "synthesis.ladder_doublings": attr("synthesis.synthesize", "doublings"),
        "certification.round_s": total("certification.round"),
        "certification.rounds": count("certification.round"),
        "certification.lyapunov_s": total("certification.lyapunov"),
        "certification.tail_sums_s": total(*tail),
        "certification.theta1_s": total("certification.theta1"),
        "certification.tail_modes": attr("certification.round", "tail_modes", max),
        "simulation.assembly_s": total("simulation.assembly"),
        "simulation.step_s": total("simulation.step"),
        "simulation.steps": count("simulation.step"),
        "simulation.state_dim": attr("simulation.assembly", "state_dim", max),
        "simulation.check_s": total("simulation.check"),
        "simulation.checks": count("simulation.check"),
        "simulation.diagnostics_s": sum(t for s, t in zip(spans, self_t) if s[2] == "simulation.run"),
        "simulation.rows": attr("simulation.run", "rows"),
        "simulation.csv_s": total("simulation.csv"),
        "simulation.csv_mb": attr("simulation.csv", "csv_bytes") / 1e6,
        "cli.synthesize_s": total("cli.synthesize"),
        "cli.certify_s": total("cli.certify"),
        "cli.simulate_s": total("cli.simulate"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = self_of(layer + ".")
    out["trace.spans"] = len(spans)
    return out
