"""Command-line front end.

Subcommands: synthesize, certify, simulate, pipeline, sweep. Every command
takes --config pointing at a JSON file; reports are JSON, time series CSV.
All outputs are deterministic for a fixed config (fixed summation orders,
repr float formatting, sorted JSON keys), so reruns are byte-identical.

Exit codes: 0 success, 2 synthesis or configuration failure (a design too
large for memory included), 3 certification failure, 4 simulation failure.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import functools
import json
import logging
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import certification, lifting, simulation, synthesis
from .linalg import trim_heap
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
# that overflow under strong in-face drift raise FloatingPointError, and a
# design too large for memory (F is dense, (N + N0)^2) raises MemoryError
DESIGN_ERRORS = (ValueError, SearchRadiusError, synthesis.SynthesisError, FloatingPointError, MemoryError)


def _abort(what: str, err: Exception) -> int:
    print(f"{what}: {err}", file=sys.stderr)
    return EXIT_SYNTHESIS


_REQUIRED = object()

# The schema tree. A dict node is a section: always present, its keys filled
# with their defaults. A leaf is (kind, default), the default _REQUIRED for a
# key that must be given. A kind is int, float, bool or str, [kind] for an
# array of that kind, or a schema dict for an optional object. `null` is
# allowed only where the default is None, and means the same as leaving the
# key out.
SCHEMA = {
    "plant": {
        "d": (int, _REQUIRED),
        "lengths": ([float], None),
        "b": ([float], None),
        "c": (float, 0.0),
        "face": {"axis": (int, None), "side": (str, "low")},
        "nu": (float, None),
        "delta": (float, 0.5),
    },
    "sensors": {"xi1": ([float], _REQUIRED), "xi2": ([float], _REQUIRED)},
    "synthesis": {
        "N": (int, 30),
        "c_ratio": (float, 2.0),
        "gamma_base": (float, 10.0),
        "spread": (float, None),
        "sensor_tol": (float, 1e-3),
        "cond_max": (float, 1e12),
    },
    "certification": {
        "required": (bool, False),
        "N_start": (int, 30),
        "N_max": (int, 200),
    },
    "simulation": {
        "z0": {
            "modes": ([[int]], None),
            "coeffs": ([float], None),
            "bump": (
                {"center": ([float], None), "width": (float, 0.2), "amplitude": (float, 1.0)},
                None,
            ),
        },
        "T": (float, 20.0),
        "h": (float, None),
        "N_sim": (int, None),
        "t_skip": (float, 2.0),
        "open_loop": (bool, False),
    },
    "sweep": ([dict], None),
}

_KIND_NAMES = {
    int: "an integer",
    float: "a number",
    bool: "true or false",
    str: "a string",
    dict: "an object",
}


def _no_duplicates(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise ConfigError(f"duplicate key '{key}'")
        seen.add(key)
    return dict(pairs)


def _typed(kind, value, pointer: str):
    """`value` checked against a schema kind; a float kind gives a finite float."""
    if isinstance(kind, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{pointer}: expected an object")
        return _merge(kind, value, pointer)
    if isinstance(kind, list):
        if not isinstance(value, list):
            raise ConfigError(f"{pointer}: expected an array")
        return [_typed(kind[0], v, f"{pointer}/{i}") for i, v in enumerate(value)]
    if kind is float and type(value) is int:
        # an integer too large for a float counts as infinite
        value = float(value) if abs(value) <= sys.float_info.max else math.inf
    if type(value) is not kind:  # so a bool is not an int
        raise ConfigError(f"{pointer}: expected {_KIND_NAMES[kind]}")
    # JSON 1e400 parses to inf, and Python's json reads Infinity and NaN
    if kind is float and not math.isfinite(value):
        raise ConfigError(f"{pointer}: expected a finite number")
    return value


def _merge(schema: dict, data: dict, pointer: str) -> dict:
    """`data` checked against `schema`, with every absent key at its default."""
    for key in data:
        if key not in schema:
            raise ConfigError(f"{pointer}/{key}: unknown key")
    out = {}
    for key, node in schema.items():
        here = f"{pointer}/{key}"
        kind, default = (node, {}) if isinstance(node, dict) else node
        value = data[key] if key in data else default
        if value is _REQUIRED:
            raise ConfigError(f"{here}: required key missing")
        out[key] = None if value is None and default is None else _typed(kind, value, here)
    return out


@dataclass(frozen=True)
class RunConfig:
    plant: dict
    sensors: dict
    synthesis: dict
    certification: dict
    simulation: dict
    sweep: list


def _validated(raw: dict) -> RunConfig:
    """Types from SCHEMA, then the checks that relate values to each other."""
    merged = _merge(SCHEMA, raw, "")
    p = merged["plant"]
    d = p["d"]
    if d not in (1, 2, 3):
        raise ConfigError("/plant/d: must be 1, 2 or 3")
    lengths = p["lengths"] or [math.pi] * d
    if len(lengths) != d:
        raise ConfigError("/plant/lengths: wrong number of entries")
    for i, length in enumerate(lengths):
        if not length > 0:
            raise ConfigError(f"/plant/lengths/{i}: must be positive")
    if p["face"]["side"] not in ("low", "high"):
        raise ConfigError("/plant/face/side: must be 'low' or 'high'")
    for key in ("xi1", "xi2"):
        xi = merged["sensors"][key]
        if len(xi) != d:
            raise ConfigError(f"/sensors/{key}: expected {d} coordinates")
        if not all(0.0 < v < l for v, l in zip(xi, lengths)):
            raise ConfigError(f"/sensors/{key}: sensor must be an interior point")
    syn = merged["synthesis"]
    for key in ("gamma_base", "sensor_tol"):
        if not syn[key] > 0:
            raise ConfigError(f"/synthesis/{key}: must be positive")
    # a condition number is at least 1, and the shifts gamma_base (1 + (k-1)
    # rho), rho = (c_ratio - 1) / (N0 - 1), are distinct only for c_ratio > 1
    for key in ("cond_max", "c_ratio"):
        if not syn[key] > 1:
            raise ConfigError(f"/synthesis/{key}: must exceed 1")
    # spread <= 0 would place the observer poles at or right of -delta
    if syn["spread"] is not None and not syn["spread"] > 0:
        raise ConfigError("/synthesis/spread: must be positive")
    c = merged["certification"]
    if c["N_start"] < 1:
        raise ConfigError("/certification/N_start: must be at least 1")
    if c["N_max"] < c["N_start"]:
        raise ConfigError("/certification/N_max: below N_start")
    sim = merged["simulation"]
    # `not x > 0` refuses a NaN too
    if not sim["T"] > 0:
        raise ConfigError("/simulation/T: T must be positive")
    if sim["h"] is not None and not sim["h"] > 0:
        raise ConfigError("/simulation/h: h must be positive")
    if sim["N_sim"] is not None and sim["N_sim"] < merged["synthesis"]["N"]:
        raise ConfigError("/simulation/N_sim: below synthesis.N")
    z0 = sim["z0"]
    if z0["bump"] is not None:
        if not z0["bump"]["width"] > 0:
            raise ConfigError("/simulation/z0/bump/width: width must be positive")
        if z0["bump"]["center"] is not None and len(z0["bump"]["center"]) != d:
            raise ConfigError(f"/simulation/z0/bump/center: expected {d} coordinates")
    if z0["modes"] is not None:
        if z0["coeffs"] is None:
            raise ConfigError("/simulation/z0/modes: needs matching coeffs")
        if len(z0["modes"]) != len(z0["coeffs"]):
            raise ConfigError("/simulation/z0: modes and coeffs lengths differ")
        seen = set()
        for i, m in enumerate(z0["modes"]):
            if len(m) != d:
                raise ConfigError(f"/simulation/z0/modes/{i}: expected {d} indices")
            for j, k in enumerate(m):
                if k < 1:
                    raise ConfigError(f"/simulation/z0/modes/{i}/{j}: mode indices start at 1")
            if tuple(m) in seen:
                raise ConfigError(f"/simulation/z0/modes/{i}: mode {m} given twice")
            seen.add(tuple(m))
    return RunConfig(**{**merged, "sweep": merged["sweep"] or []})


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
    p, face = cfg.plant, cfg.plant["face"]
    return PlantConfig(
        dim=p["d"],
        lengths=p["lengths"] or (),
        drift=p["b"] or (),
        reaction=p["c"],
        control_face=FaceId(
            axis=p["d"] - 1 if face["axis"] is None else face["axis"],
            side=("low", "high").index(face["side"]),
        ),
        nu=p["nu"],
        delta=p["delta"],
    )


def _json_ready(obj):
    """obj with every non-finite float (an undefined rate or bound) as None, JSON null."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _json_ready(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(value) for value in obj]
    return obj


def _write_json(obj: dict, path) -> None:
    """obj as RFC 8259 JSON: NaN and infinities are written as null."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w") as fh:
        json.dump(_json_ready(obj), fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _z0(cfg: RunConfig, art: synthesis.SynthesisArtifacts) -> np.ndarray:
    """simulation.z0 as the N_sim plant coefficients of the design `art`.

    Raises ConfigError at its pointer when z0 gives neither coeffs nor bump,
    or lists a mode that is not among the N_sim modes. `simulate` and
    `pipeline` resolve it once their design exists and before they write
    anything, so synthesis errors still come first. `_validated` cannot
    refuse these: synthesize and certify need no z0, and which modes lie
    within N_sim only the design's mode table tells."""
    z0, n_sim = cfg.simulation["z0"], _n_sim(cfg)
    bump, coeffs = z0["bump"], z0["coeffs"]
    if bump is not None:
        center = bump["center"]
        if center is None:
            center = [0.5 * l for l in art.plant.lengths]
        return simulation.project_bump(art.plant, art.eigs, center, bump["width"], bump["amplitude"], n_sim)
    if coeffs is None:
        raise ConfigError("/simulation/z0: give coeffs (optionally with modes) or bump")
    out = np.zeros(n_sim)
    if z0["modes"] is None:
        out[: min(len(coeffs), n_sim)] = coeffs[:n_sim]
        return out
    ks = art.eigs.ks[:n_sim]
    for i, (m, cval) in enumerate(zip(z0["modes"], coeffs)):
        rows = np.flatnonzero(np.all(ks == m, axis=1))
        if not len(rows):
            raise ConfigError(f"/simulation/z0/modes/{i}: mode {list(m)} not within N_sim")
        out[rows[0]] = cval
    return out


def _n_sim(cfg: RunConfig) -> int:
    n_sim = cfg.simulation["N_sim"]
    return simulation.default_n_sim(cfg.synthesis["N"]) if n_sim is None else n_sim


def _design_source(cfg: RunConfig):
    """N -> SynthesisArtifacts for one command, each N synthesized once.

    One LiftingContext, built on first use so that its errors reach the
    calling stage, serves every stage: it holds the top certificate round's
    tail cap and the simulated modes, and with them the N modes of every
    design. Enumeration is prefix-stable and context rows do not depend on
    the context's length, so each stage reads what a context sized for it
    alone would give. The stages only read a design, so one object serves
    them all.
    """

    @functools.cache
    def context() -> lifting.LiftingContext:
        plant = build_plant(cfg)
        c = cfg.certification
        top = certification.round_sizes(c["N_start"], c["N_max"])[-1]
        count = max(lifting.tail_cap(top), _n_sim(cfg))
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
            c_ratio=s["c_ratio"],
            gamma_base=s["gamma_base"],
            spread=s["spread"],
            sensor_tol=s["sensor_tol"],
            cond_max=s["cond_max"],
        )

    return design


def cmd_synthesize(cfg: RunConfig, designs, out_dir: str, needs_z0: bool = False) -> int:
    """Write synthesis.json; with `needs_z0` (the first stage of a pipeline)
    a simulation.z0 that `_z0` refuses is refused before the write."""
    try:
        art = designs(cfg.synthesis["N"])
    except DESIGN_ERRORS as err:
        return _abort("synthesis failed", err)
    if needs_z0:
        try:
            _z0(cfg, art)
        except ConfigError as err:
            return _abort("config error", err)
    _write_json(synthesis.report_dict(art), os.path.join(out_dir, "synthesis.json"))
    return EXIT_OK


def cmd_certify(cfg: RunConfig, designs, out_dir: str) -> int:
    try:
        c = cfg.certification
        cert = certification.certify(designs, c["N_start"], c["N_max"])
    except DESIGN_ERRORS as err:
        return _abort("certification aborted in synthesis", err)
    _write_json(cert.to_json_dict(), os.path.join(out_dir, "certificate.json"))
    if not cert.certified:
        print(f"certification failed: {cert.status}", file=sys.stderr)
        return EXIT_CERTIFICATION
    return EXIT_OK


def cmd_simulate(cfg: RunConfig, designs, out_dir: str) -> int:
    N = cfg.synthesis["N"]
    sim = cfg.simulation
    try:
        art = designs(N)
    except DESIGN_ERRORS as err:
        return _abort("synthesis failed", err)
    try:
        z0 = _z0(cfg, art)
    except ConfigError as err:
        return _abort("config error", err)
    n_sim = _n_sim(cfg)
    plant = art.plant
    try:
        result = simulation.run(
            z0,
            sim["T"],
            sim["h"],
            art,
            N_sim=n_sim,
            open_loop=sim["open_loop"],
            t_skip=sim["t_skip"],
        )
    except ValueError as err:
        return _abort("simulation config invalid", err)
    except (simulation.SimulationError, MemoryError) as err:
        # a MemoryError: more output rows (T/h) than memory holds
        print(f"simulation failed: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "simulation.csv")
    try:
        simulation.write_csv(result, csv_path)
    except simulation.SimulationError as err:
        # a forked formatter died: its segment is missing from the file
        os.remove(csv_path)
        print(f"simulation failed: {err}", file=sys.stderr)
        return EXIT_SIMULATION
    summary = {
        "schema_version": 1,
        "decay_rate": result.rate,
        "delta": plant.delta,
        "T": sim["T"],
        "h": result.h,
        "N": N,
        "N_sim": n_sim,
        "open_loop": sim["open_loop"],
        "initial_composite": float(result.records["composite"][0]),
        "terminal_composite": float(result.records["composite"][-1]),
        "terminal_h1": float(result.records["h1_proxy"][-1]),
        "projection_check_max": result.projection_check_max,
    }
    _write_json(summary, os.path.join(out_dir, "summary.json"))
    return EXIT_OK


def cmd_pipeline(cfg: RunConfig, designs, out_dir: str) -> int:
    """synthesize, certify, simulate on one design source; certification
    failure only fails the pipeline when the config marks it required."""
    code = cmd_synthesize(cfg, designs, out_dir, needs_z0=True)
    if code != EXIT_OK:
        return code
    cert_code = cmd_certify(cfg, designs, out_dir)
    if cert_code == EXIT_SYNTHESIS:
        return cert_code
    sim_code = cmd_simulate(cfg, designs, out_dir)
    if sim_code != EXIT_OK:
        return sim_code
    if cert_code != EXIT_OK and cfg.certification["required"]:
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
    """Run the pipeline once per sweep entry, in order, each with its overrides applied."""
    if not cfg.sweep:
        print("sweep requested but config has no sweep entries", file=sys.stderr)
        return EXIT_SYNTHESIS
    base = {k: v for k, v in dataclasses.asdict(cfg).items() if k != "sweep"}
    runs = []
    for i, entry in enumerate(cfg.sweep):
        name = f"sweep_{i:03d}"
        try:
            sub_cfg = _validated(_deep_merge(base, entry))
        except ConfigError as err:
            print(f"sweep entry {i}: {err}", file=sys.stderr)
            code = EXIT_SYNTHESIS
        else:
            code = cmd_pipeline(sub_cfg, _design_source(sub_cfg), os.path.join(out_dir, name))
        runs.append({"index": i, "out": name, "exit_code": code})
    _write_json({"schema_version": 1, "runs": runs}, os.path.join(out_dir, "sweep_index.json"))
    return max(run["exit_code"] for run in runs)


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
    # hand back what the imports' compiles and the parse freed, so that a
    # command's peak RSS is what it holds live
    trim_heap()
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
