"""Command-line front end.

Subcommands: synthesize, certify, simulate, pipeline, sweep. Every command
takes --config pointing at a JSON file; reports are JSON, time series CSV.
All outputs are deterministic for a fixed config (fixed summation orders,
repr float formatting, sorted JSON keys), so reruns are byte-identical.

Exit codes: 0 success, 2 synthesis or configuration failure, 3 certification
failure, 4 simulation failure.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import copy
import dataclasses
import functools
import json
import logging
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import certification, lifting, simulation, synthesis
from .spectral_basis import (
    FaceId,
    PlantConfig,
    SearchRadiusError,
    count_unstable,
    enumerate_eigenpairs,
)

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_SYNTHESIS = 2
EXIT_CERTIFICATION = 3
EXIT_SIMULATION = 4


class ConfigError(ValueError):
    """Invalid configuration; message carries a JSON-pointer to the key."""


# what building a design can raise: config, domain, pattern, sensor
# placement and admissibility errors are all ValueErrors; trace integrals
# that overflow under strong in-face drift raise FloatingPointError
DESIGN_ERRORS = (ValueError, SearchRadiusError, synthesis.SynthesisError, FloatingPointError)


def _abort(what: str, err: Exception) -> int:
    print(f"{what}: {err}", file=sys.stderr)
    return EXIT_SYNTHESIS


_REQUIRED = object()

# schema tree: leaves are defaults (_REQUIRED must be present), dict nodes recurse
SCHEMA = {
    "plant": {
        "d": _REQUIRED,
        "lengths": None,
        "b": None,
        "c": 0.0,
        "face": {"axis": None, "side": "low"},
        "nu": None,
        "delta": 0.5,
    },
    "sensors": {"xi1": _REQUIRED, "xi2": _REQUIRED},
    "synthesis": {
        "N": 30,
        "c_ratio": 2.0,
        "gamma_base": 10.0,
        "spread": None,
        "sensor_tol": 1e-3,
        "cond_max": 1e12,
    },
    "certification": {
        "required": False,
        "N_start": 30,
        "N_max": 200,
    },
    "simulation": {
        "z0": {"modes": None, "coeffs": None, "bump": None},
        "T": 20.0,
        "h": None,
        "N_sim": None,
        "t_skip": 2.0,
        "check_every": 100,
        "open_loop": False,
    },
    "sweep": None,
}


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'")
        seen.add(key)
    return dict(pairs)


def _merge(schema: dict, data: dict, pointer: str) -> dict:
    out = {}
    for key, value in data.items():
        if key not in schema:
            raise ConfigError(f"{pointer}/{key}: unknown key")
    for key, default in schema.items():
        here = f"{pointer}/{key}"
        if key in data:
            value = data[key]
            if isinstance(default, dict) and value is not None:
                if not isinstance(value, dict):
                    raise ConfigError(f"{here}: expected an object")
                out[key] = _merge(default, value, here)
            else:
                out[key] = value
        elif default is _REQUIRED:
            raise ConfigError(f"{here}: required key missing")
        else:
            out[key] = copy.deepcopy(default) if isinstance(default, dict) else default
    return out


def _is_int(value) -> bool:
    """A JSON integer (bool is not one)."""
    return isinstance(value, int) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunConfig:
    plant: dict
    sensors: dict
    synthesis: dict
    certification: dict
    simulation: dict
    sweep: list


def _validated(raw: dict) -> RunConfig:
    merged = _merge(SCHEMA, raw, "")
    p = merged["plant"]
    if p["d"] not in (1, 2, 3):
        raise ConfigError("/plant/d: must be 1, 2 or 3")
    d = p["d"]
    lengths = p["lengths"] or [float(np.pi)] * d
    if len(lengths) != d:
        raise ConfigError("/plant/lengths: wrong number of entries")
    for key in ("xi1", "xi2"):
        xi = merged["sensors"][key]
        if not isinstance(xi, (list, tuple)) or len(xi) != d:
            raise ConfigError(f"/sensors/{key}: expected {d} coordinates")
        if not all(0.0 < float(v) < float(l) for v, l in zip(xi, lengths)):
            raise ConfigError(f"/sensors/{key}: sensor must be an interior point")
    c = merged["certification"]
    if c["N_start"] < 1:
        raise ConfigError("/certification/N_start: must be at least 1")
    if c["N_max"] < c["N_start"]:
        raise ConfigError("/certification/N_max: below N_start")
    sim = merged["simulation"]
    if not _is_int(sim["check_every"]) or sim["check_every"] < 0:
        raise ConfigError("/simulation/check_every: must be a non-negative integer")
    z0 = sim["z0"]
    if isinstance(z0, dict) and z0.get("modes") is not None:
        if z0.get("coeffs") is None:
            raise ConfigError("/simulation/z0/modes: needs matching coeffs")
        modes = z0["modes"]
        if not isinstance(modes, list) or not all(
            isinstance(m, list) and all(_is_int(v) for v in m) for m in modes
        ):
            raise ConfigError("/simulation/z0/modes: expected an array of integer multi-indices")
    sweep = merged["sweep"]
    if sweep is not None and not isinstance(sweep, list):
        raise ConfigError("/sweep: expected an array of override objects")
    return RunConfig(
        plant=merged["plant"],
        sensors=merged["sensors"],
        synthesis=merged["synthesis"],
        certification=merged["certification"],
        simulation=merged["simulation"],
        sweep=sweep or [],
    )


def parse_config(path) -> RunConfig:
    """Load, default-fill and validate a config file."""
    try:
        with open(path) as fh:
            raw = json.load(fh, object_pairs_hook=_no_duplicates)
    except OSError as err:
        raise ConfigError(f"cannot read config: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"invalid JSON: {err}") from err
    if not isinstance(raw, dict):
        raise ConfigError("top level must be a JSON object")
    return _validated(raw)


def build_plant(cfg: RunConfig) -> PlantConfig:
    p = cfg.plant
    face = p["face"] or {}
    axis = face.get("axis")
    side = {"low": 0, "high": 1}.get(face.get("side", "low"))
    if side is None:
        raise ConfigError("/plant/face/side: must be 'low' or 'high'")
    return PlantConfig(
        dim=p["d"],
        lengths=tuple(p["lengths"] or ()),
        drift=tuple(p["b"] or ()),
        reaction=float(p["c"]),
        control_face=FaceId(axis=p["d"] - 1 if axis is None else int(axis), side=side),
        nu=p["nu"],
        delta=float(p["delta"]),
    )


def _write_json(obj: dict, path) -> None:
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _resolve_z0(cfg: RunConfig, plant, eigs, n_sim: int) -> np.ndarray:
    z0 = cfg.simulation["z0"]
    if z0.get("coeffs") is None and z0.get("bump") is None:
        raise ConfigError("/simulation/z0: give coeffs (optionally with modes) or bump")
    if z0.get("bump") is not None:
        b = z0["bump"]
        return simulation.project_bump(
            plant,
            eigs,
            b.get("center", [0.5 * l for l in plant.lengths]),
            float(b.get("width", 0.2)),
            float(b.get("amplitude", 1.0)),
            n_sim,
        )
    coeffs = [float(v) for v in z0["coeffs"]]
    if z0.get("modes") is None:
        out = np.zeros(n_sim)
        out[: min(len(coeffs), n_sim)] = coeffs[:n_sim]
        return out
    modes = z0["modes"]
    if len(modes) != len(coeffs):
        raise ConfigError("/simulation/z0: modes and coeffs lengths differ")
    ks = eigs.ks[:n_sim]
    out = np.zeros(n_sim)
    for m, cval in zip(modes, coeffs):
        rows = np.flatnonzero(np.all(ks == m, axis=1)) if len(m) == plant.dim else ()
        if not len(rows):
            raise ConfigError(f"/simulation/z0/modes: mode {list(m)} not within N_sim")
        out[rows[0]] = cval
    return out


def _certify_rounds_max(cfg: RunConfig) -> int:
    n = int(cfg.certification["N_start"])
    top = n
    while n <= int(cfg.certification["N_max"]):
        top = n
        n *= 2
    return top


def _n_sim(cfg: RunConfig) -> int:
    n_sim = cfg.simulation["N_sim"]
    return simulation.default_n_sim(int(cfg.synthesis["N"])) if n_sim is None else int(n_sim)


def _design_source(cfg: RunConfig):
    """N -> SynthesisArtifacts for one command, each N synthesized once.

    One LiftingContext, built on first use so that its errors reach the
    calling stage, serves every stage: it holds the synthesis tail, the top
    certificate round's tail cap and the simulated modes. Enumeration is
    prefix-stable and context rows do not depend on the context's length,
    so each stage reads what a context sized for it alone would give. The
    stages only read a design, so one object serves them all.
    """

    @functools.cache
    def context() -> lifting.LiftingContext:
        plant = build_plant(cfg)
        count = max(
            lifting.default_tail(int(cfg.synthesis["N"])),
            lifting.tail_cap(_certify_rounds_max(cfg)),
            _n_sim(cfg),
        )
        eigs = enumerate_eigenpairs(plant, count)
        n0, _ = count_unstable(eigs, plant.delta)
        return lifting.LiftingContext(eigs, n0)

    @functools.cache
    def design(N: int) -> synthesis.SynthesisArtifacts:
        ctx, s = context(), cfg.synthesis
        return synthesis.synthesize(
            ctx,
            cfg.sensors["xi1"],
            cfg.sensors["xi2"],
            N,
            ctx.plant.delta,
            c_ratio=float(s["c_ratio"]),
            gamma_base=float(s["gamma_base"]),
            spread=None if s["spread"] is None else float(s["spread"]),
            sensor_tol=float(s["sensor_tol"]),
            cond_max=float(s["cond_max"]),
        )

    return design


def cmd_synthesize(cfg: RunConfig, designs, out_dir: str) -> int:
    try:
        art = designs(int(cfg.synthesis["N"]))
    except DESIGN_ERRORS as err:
        return _abort("synthesis failed", err)
    _write_json(synthesis.report_dict(art), os.path.join(out_dir, "synthesis.json"))
    return EXIT_OK


def cmd_certify(cfg: RunConfig, designs, out_dir: str) -> int:
    try:
        cert = certification.certify(
            designs,
            int(cfg.certification["N_start"]),
            int(cfg.certification["N_max"]),
            build_plant(cfg).nu,
        )
    except DESIGN_ERRORS as err:
        return _abort("certification aborted in synthesis", err)
    _write_json(cert.to_json_dict(), os.path.join(out_dir, "certificate.json"))
    if not cert.certified:
        print(f"certification failed: {cert.status}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, designs, out_dir: str) -> int:
    N = int(cfg.synthesis["N"])
    sim = cfg.simulation
    try:
        art = designs(N)
    except DESIGN_ERRORS as err:
        return _abort("synthesis failed", err)
    n_sim = _n_sim(cfg)
    plant = art.plant
    try:
        z0 = _resolve_z0(cfg, plant, art.eigs, n_sim)
        result = simulation.run(
            z0,
            float(sim["T"]),
            None if sim["h"] is None else float(sim["h"]),
            art,
            N_sim=n_sim,
            open_loop=bool(sim["open_loop"]),
            t_skip=float(sim["t_skip"]),
            check_every=int(sim["check_every"]),
        )
    except ValueError as err:
        return _abort("simulation config invalid", err)
    except simulation.SimulationError as err:
        print(f"simulation failed: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    os.makedirs(out_dir, exist_ok=True)
    simulation.write_csv(result, os.path.join(out_dir, "simulation.csv"))
    summary = {
        "schema_version": 1,
        "decay_rate": result.rate,
        "delta": plant.delta,
        "T": float(sim["T"]),
        "h": result.diagnostics["h"],
        "N": N,
        "N_sim": n_sim,
        "open_loop": bool(sim["open_loop"]),
        "initial_composite": float(result.column("composite")[0]),
        "terminal_composite": float(result.column("composite")[-1]),
        "terminal_h1": float(result.column("h1_proxy")[-1]),
        "projection_check_max": result.diagnostics["projection_check_max"],
    }
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return EXIT_OK


def cmd_pipeline(cfg: RunConfig, designs, out_dir: str) -> int:
    """synthesize, certify, simulate on one design source; certification
    failure only fails the pipeline when the config marks it required."""
    code = cmd_synthesize(cfg, designs, out_dir)
    if code != EXIT_OK:
        return code
    cert_code = cmd_certify(cfg, designs, out_dir)
    if cert_code == EXIT_SYNTHESIS:
        return cert_code
    sim_code = cmd_simulate(cfg, designs, out_dir)
    if sim_code != EXIT_OK:
        return sim_code
    if cert_code != EXIT_OK and bool(cfg.certification["required"]):
        return EXIT_CERTIFICATION
    return EXIT_OK


def _deep_merge(base: dict, override: dict) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _deep_merge(out[key], value)
        else:
            out[key] = copy.deepcopy(value)
    return out


def cmd_sweep(cfg: RunConfig, out_dir: str) -> int:
    """Run the pipeline once per sweep entry, each with overrides applied."""
    if not cfg.sweep:
        print("sweep requested but config has no sweep entries", file=sys.stderr)
        return EXIT_SYNTHESIS
    base = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "sweep"}
    workers = os.environ.get("PARSTAB_THREADS")
    try:
        workers = max(1, int(workers)) if workers else min(4, len(cfg.sweep))
    except ValueError:
        workers = min(4, len(cfg.sweep))

    def one(i_entry):
        i, entry = i_entry
        sub_dir = os.path.join(out_dir, f"sweep_{i:03d}")
        try:
            sub_cfg = _validated(_deep_merge(base, entry))
        except ConfigError as err:
            print(f"sweep entry {i}: {err}", file=sys.stderr)
            return i, EXIT_SYNTHESIS
        return i, cmd_pipeline(sub_cfg, _design_source(sub_cfg), sub_dir)

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        results = dict(pool.map(one, enumerate(cfg.sweep)))
    index = {
        "schema_version": 1,
        "runs": [
            {"index": i, "out": f"sweep_{i:03d}", "exit_code": results[i]}
            for i in sorted(results)
        ],
    }
    _write_json(index, os.path.join(out_dir, "sweep_index.json"))
    return max(results.values(), default=EXIT_OK)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="parstab",
        description="observer-based boundary stabilization toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("synthesize", "certify", "simulate", "pipeline", "sweep"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        cfg = parse_config(args.config)
    except ConfigError as err:
        return _abort("config error", err)
    if args.command == "sweep":
        return cmd_sweep(cfg, args.out)
    handler = {
        "synthesize": cmd_synthesize,
        "certify": cmd_certify,
        "simulate": cmd_simulate,
        "pipeline": cmd_pipeline,
    }[args.command]
    return handler(cfg, _design_source(cfg), args.out)


if __name__ == "__main__":
    sys.exit(main())
