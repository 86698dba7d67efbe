import json
import logging
import math
import os
import subprocess
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from parstab import certification, cli, lifting, simulation, synthesis
from parstab.cli import (
    ConfigError,
    build_plant,
    main,
    parse_config,
)
from parstab.simulation import CSV_CHUNK_ROWS, project_bump
from parstab.spectral_basis import FaceId, ModeTable, enumerate_eigenpairs

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MILD = {
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

EXAMPLE = {
    "plant": {"d": 2, "b": [3.0, 3.0], "c": 10.0, "delta": 0.5},
    "sensors": {"xi1": [0.53, 1.05], "xi2": [1.05, 0.53]},
}


def write_cfg(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def run_python(args, threads=None, timeout=300):
    """A fresh interpreter on ./src, optionally with a fixed BLAS thread count."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), env.get("PYTHONPATH", "")])
    if threads is not None:
        env.update(OPENBLAS_NUM_THREADS=str(threads), OMP_NUM_THREADS=str(threads))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=timeout
    )


def test_parse_fills_defaults(tmp_path):
    cfg = parse_config(write_cfg(tmp_path, EXAMPLE))
    assert cfg.synthesis["N"] == 30
    assert cfg.synthesis["c_ratio"] == 2.0
    assert cfg.certification["required"] is False
    assert cfg.certification["N_start"] == 30
    assert cfg.simulation["T"] == 20.0
    assert cfg.simulation["z0"]["coeffs"] is None
    assert cfg.sweep == []


def test_parse_rejects_unknown_key(tmp_path):
    bad = {**EXAMPLE, "synthesis": {"N": 8, "gamma_ladder_x": 1}}
    with pytest.raises(ConfigError, match="/synthesis/gamma_ladder_x"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_duplicate_key(tmp_path):
    text = '{"plant": {"d": 2, "c": 1.0, "c": 2.0}, "sensors": {"xi1": [1, 1], "xi2": [2, 2]}}'
    path = tmp_path / "dup.json"
    path.write_text(text)
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config(str(path))


def test_parse_rejects_boundary_sensor(tmp_path):
    bad = {**EXAMPLE, "sensors": {"xi1": [0.0, 1.0], "xi2": [1.0, 0.5]}}
    with pytest.raises(ConfigError, match="interior"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_wrong_sensor_arity(tmp_path):
    bad = {**EXAMPLE, "sensors": {"xi1": [0.5], "xi2": [1.0, 0.5]}}
    with pytest.raises(ConfigError, match="/sensors/xi1"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_certification_window(tmp_path):
    bad = {**EXAMPLE, "certification": {"N_start": 60, "N_max": 30}}
    with pytest.raises(ConfigError, match="N_max"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_nonpositive_n_start(tmp_path):
    # N_start = 0 would double to 0 forever in the certificate search
    bad = {**EXAMPLE, "certification": {"N_start": 0, "N_max": 30}}
    with pytest.raises(ConfigError, match="/certification/N_start"):
        parse_config(write_cfg(tmp_path, bad))


def test_parse_rejects_modes_without_coeffs(tmp_path):
    bad = {**EXAMPLE, "simulation": {"z0": {"modes": [[1, 1]]}}}
    with pytest.raises(ConfigError, match="coeffs"):
        parse_config(write_cfg(tmp_path, bad))


def test_build_plant_face_mapping(tmp_path):
    cfg = parse_config(
        write_cfg(
            tmp_path,
            {
                "plant": {"d": 1, "b": [3.0], "c": 10.0, "face": {"axis": 0, "side": "high"}},
                "sensors": {"xi1": [1.0], "xi2": [2.0]},
            },
        )
    )
    plant = build_plant(cfg)
    assert plant.control_face == FaceId(axis=0, side=1)
    assert plant.lengths == (math.pi,)
    assert plant.nu == 11.0


def test_certify_mild_design_exits_clean(tmp_path):
    out = tmp_path / "out"
    code = main(["certify", "--config", write_cfg(tmp_path, MILD), "--out", str(out)])
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"] == "certified"
    assert cert["N"] == 8
    assert cert["theta1_max"] < 0


def test_pipeline_writes_all_artifacts(tmp_path):
    out = tmp_path / "out"
    code = main(["pipeline", "--config", write_cfg(tmp_path, MILD), "--out", str(out)])
    assert code == 0
    names = sorted(os.listdir(out))
    assert names == ["certificate.json", "simulation.csv", "summary.json", "synthesis.json"]
    synth = json.loads((out / "synthesis.json").read_text())
    assert set(synth) == {
        "schema_version",
        "eigenvalues",
        "eta",
        "gamma",
        "B",
        "Bk",
        "A",
        "L",
        "C0",
        "F_abscissa",
        "gain_block_abscissa",
        "observer_abscissa",
        "sensors",
        "N",
        "N0",
        "delta",
    }
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) == {
        "schema_version",
        "decay_rate",
        "delta",
        "T",
        "h",
        "N",
        "N_sim",
        "open_loop",
        "initial_composite",
        "terminal_composite",
        "terminal_h1",
        "projection_check_max",
    }
    assert summary["N"] == 8 and summary["N_sim"] == 16


def test_certify_failure_exit_code(tmp_path, capsys):
    cfg = {**EXAMPLE, "synthesis": {"N": 10}, "certification": {"N_start": 10, "N_max": 10}}
    out = tmp_path / "out"
    code = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 3
    assert "theta1" in capsys.readouterr().err
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["status"].startswith("failed")


def test_unseparated_sensors_exit_code(tmp_path, capsys):
    cfg = {**EXAMPLE, "sensors": {"xi1": [0.7, 0.7], "xi2": [0.9, 0.9]}}
    code = main(["synthesize", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not separated" in capsys.readouterr().err


def test_certify_unseparated_sensors_exit_code(tmp_path, capsys):
    cfg = {
        **EXAMPLE,
        "sensors": {"xi1": [0.7, 0.7], "xi2": [0.9, 0.9]},
        "certification": {"N_start": 10, "N_max": 10},
    }
    code = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "certification aborted in synthesis" in err
    assert "not separated" in err


@pytest.mark.parametrize("command", ["synthesize", "certify", "simulate", "pipeline"])
def test_overflowing_trace_integrals_exit_code(tmp_path, capsys, command):
    # e^{b l} with b l = 400 pi along the face overflows the trace Gram
    cfg = {
        "plant": {"d": 2, "b": [400.0, 0.0], "c": 40002.0, "delta": 0.5},
        "sensors": {"xi1": [0.53, 1.05], "xi2": [1.05, 0.53]},
        "synthesis": {"N": 20},
    }
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "non-finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["synthesize", "certify", "simulate", "pipeline"])
def test_design_too_large_for_memory_exit_code(tmp_path, capsys, monkeypatch, command):
    # F is dense, (N + N0)^2; a real N = 100 000 asks numpy for 74.5 GiB
    def no_memory(*args):
        raise MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001)")

    monkeypatch.setattr(synthesis, "assemble_F", no_memory)
    out = tmp_path / "o"
    code = main([command, "--config", write_cfg(tmp_path, MILD), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "synthesis" in err and "74.5 GiB" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_block_frac_is_not_a_config_key(tmp_path, capsys):
    cfg = {**MILD, "certification": {"N_start": 8, "N_max": 8, "block_frac": 0.5}}
    code = main(["certify", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/certification/block_frac: unknown key" in capsys.readouterr().err


def test_config_error_exit_code(tmp_path, capsys):
    cfg = {**EXAMPLE, "sensors": {"xi1": [0.0, 1.0], "xi2": [1.0, 0.5]}}
    code = main(["synthesize", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_unknown_mode_exit_code(tmp_path, capsys):
    cfg = {
        **EXAMPLE,
        "synthesis": {"N": 4},
        "simulation": {"z0": {"modes": [[9, 9]], "coeffs": [1.0]}, "T": 0.5, "h": 1e-3, "N_sim": 4},
    }
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "not within N_sim" in capsys.readouterr().err


def _quick_with(simulation_overrides):
    with open(os.path.join(ROOT, "demos", "quick_certify.json")) as fh:
        cfg = json.load(fh)
    cfg["simulation"].update(simulation_overrides)
    return cfg


def test_check_every_is_not_a_config_key(tmp_path, capsys):
    # every closed-loop run checks every row; no config key can thin the
    # check out or turn it off
    cfg = _quick_with({"check_every": 100})
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/simulation/check_every: unknown key" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_pipeline_refuses_n_sim_below_n_before_writing(tmp_path, capsys):
    out = tmp_path / "o"
    cfg = _quick_with({"N_sim": 4})
    code = main(["pipeline", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert "/simulation/N_sim: below synthesis.N" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "pointer, value",
    [
        pytest.param("/simulation/open_loop", "false", id="open_loop"),
        pytest.param("/certification/required", "no", id="required"),
        pytest.param("/synthesis/N", 8.7, id="N"),
        pytest.param("/simulation/N_sim", 32.9, id="N_sim"),
        pytest.param("/certification/N_start", "30", id="N_start"),
        pytest.param("/synthesis/c_ratio", None, id="c_ratio"),
        pytest.param("/simulation/T", None, id="T"),
        pytest.param("/plant/d", 2.0, id="d"),
        # reported at the misspelt key, /simulation/z0/bump/widht
        pytest.param("/simulation/z0/bump", {"widht": 0.05}, id="bump"),
        # reported at the entry, /sweep/1
        pytest.param("/sweep", [{"synthesis": {"N": 12}}, 12], id="sweep"),
        pytest.param("/simulation/z0/modes/0/0", 1.5, id="modes_1.5"),
        pytest.param("/simulation/z0/modes/0/0", "1", id="modes_1"),
        pytest.param("/simulation/z0/modes/0", [1], id="modes_arity"),
        # values the types allow but a run cannot use
        pytest.param("/simulation/h", 0, id="h_0"),
        pytest.param("/simulation/h", -0.01, id="h_negative"),
        pytest.param("/simulation/T", 0, id="T_0"),
        pytest.param("/simulation/T", -1.0, id="T_negative"),
        pytest.param("/simulation/z0/bump/width", 0, id="width_0"),
        pytest.param("/simulation/z0/bump/width", -0.2, id="width_negative"),
        pytest.param("/synthesis/sensor_tol", 0, id="sensor_tol_0"),
        pytest.param("/synthesis/sensor_tol", -1.0, id="sensor_tol_negative"),
        # no sum of Gram blocks has a condition number below 1
        pytest.param("/synthesis/cond_max", 0, id="cond_max_0"),
        pytest.param("/synthesis/cond_max", 1.0, id="cond_max_1"),
        pytest.param("/synthesis/spread", 0, id="spread_0"),
        pytest.param("/synthesis/spread", -0.5, id="spread_negative"),
        pytest.param("/synthesis/c_ratio", 1.0, id="c_ratio_1"),
        pytest.param("/synthesis/c_ratio", 0.5, id="c_ratio_below_1"),
        # reported at the entry, /plant/lengths/1, not as an exterior sensor
        pytest.param("/plant/lengths", [math.pi, 0.0], id="lengths_0"),
        pytest.param("/plant/lengths", [-1.0, math.pi], id="lengths_negative"),
        # the demo's z0 modes are [[1, 1], [2, 1]]
        pytest.param("/simulation/z0/modes/1", [1, 1], id="modes_repeated"),
        # non-finite numbers: json.dumps writes Infinity and NaN, which parse
        # as a JSON 1e400 does, and no float holds the integer 10**400
        pytest.param("/simulation/T", math.inf, id="T_inf"),
        pytest.param("/simulation/h", math.inf, id="h_inf"),
        pytest.param("/simulation/h", 10**400, id="h_huge_int"),
        pytest.param("/simulation/z0/coeffs/0", math.nan, id="coeffs_nan"),
    ],
)
def test_pipeline_rejects_mistyped_config(tmp_path, capsys, pointer, value):
    with open(os.path.join(ROOT, "demos", "quick_certify.json")) as fh:
        cfg = json.load(fh)
    *path, last = [int(k) if k.isdigit() else k for k in pointer.split("/")[1:]]
    node = cfg
    for key in path:
        node = node.setdefault(key, {}) if isinstance(node, dict) else node[key]
    node[last] = value
    code = main(["pipeline", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {pointer}")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "T, h, message",
    [
        # 1e15 rows of 8 bytes (7.1 PiB) exceed the user address space of a
        # 64-bit Linux process, so nothing is mapped whatever the overcommit
        # setting
        pytest.param(1e12, 1e-3, "Unable to allocate", id="rows_1e15"),
        pytest.param(1e300, 1e-300, "T/h = inf", id="rows_inf"),
    ],
)
def test_simulate_fails_cleanly_when_the_rows_do_not_fit(tmp_path, capsys, T, h, message):
    cfg = _quick_with({"T": T, "h": h})
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    err = capsys.readouterr().err
    assert err.startswith("simulation failed: ") and message in err
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["simulate", "pipeline"])
def test_one_face_rule_and_trace_table_per_command(tmp_path, monkeypatch, command):
    # the context samples the head traces once; the projection check reads
    # them from it and builds no rule of its own
    calls = {"face_quadrature": 0, "trace_matrix": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for module in (lifting, simulation):
        for name in calls:
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    cfg = write_cfg(tmp_path, MILD)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert calls == {"face_quadrature": 1, "trace_matrix": 1}


@pytest.mark.parametrize("command", ["pipeline", "simulate"])
def test_simulating_commands_refuse_an_empty_z0_before_writing(tmp_path, capsys, command):
    with open(os.path.join(ROOT, "demos", "quick_certify.json")) as fh:
        cfg = json.load(fh)
    cfg["simulation"]["z0"] = {}
    code = main([command, "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: /simulation/z0: give coeffs")
    assert "Traceback" not in err
    assert not (tmp_path / "o").exists()
    # synthesize and certify need no z0
    assert main(["synthesize", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "s")]) == 0


@pytest.mark.parametrize(
    "z0, pointer",
    [
        pytest.param({"bump": {"center": [1.0]}}, "/simulation/z0/bump/center", id="bump_center"),
        # mode [9, 9] is not among the demo's N_sim = 32 modes
        pytest.param({"modes": [[1, 1], [9, 9]], "coeffs": [1.0, 0.5]}, "/simulation/z0/modes/1", id="beyond_n_sim"),
        pytest.param({"modes": [[1, 1], [2, 0]], "coeffs": [1.0, 0.5]}, "/simulation/z0/modes/1/1", id="index_0"),
    ],
)
def test_pipeline_refuses_an_unusable_z0_before_writing(tmp_path, capsys, z0, pointer):
    cfg = _quick_with({"z0": z0})
    out = tmp_path / "o"
    code = main(["pipeline", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {pointer}: ")
    assert "Traceback" not in err
    assert not out.exists()


def test_the_mode_table_holds_the_top_certificate_tail_and_n_sim(monkeypatch):
    # synthesis reads only the N modes of its design, so N = 200 adds no
    # tail of its own: the top round N = 40 caps its tail at 640 modes,
    # more than N_sim = 200
    cfg = cli._validated(
        {
            **EXAMPLE,
            "synthesis": {"N": 200},
            "certification": {"N_start": 10, "N_max": 40},
            "simulation": {"T": 2.0, "h": 1e-3, "N_sim": 200},
        }
    )
    counts = []

    def counted(plant, count):
        counts.append(count)
        return enumerate_eigenpairs(plant, count)

    monkeypatch.setattr(cli, "enumerate_eigenpairs", counted)
    art = cli._design_source(cfg)(200)
    assert counts == [640]
    assert len(art.context.eigs) == 640


def test_importing_the_cli_loads_no_multiprocessing():
    code = "import sys, parstab.cli; print('multiprocessing' in sys.modules)"
    out = run_python(["-c", code])
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_config_numbers_are_floats_and_null_means_absent(tmp_path):
    cfg = {
        **EXAMPLE,
        "plant": {**EXAMPLE["plant"], "nu": 11, "lengths": None, "face": {"axis": None}},
        "synthesis": {"N": 8, "spread": None, "gamma_base": 3},
        "simulation": {"z0": {"bump": {"width": 1}}, "T": 2, "h": None},
    }
    parsed = parse_config(write_cfg(tmp_path, cfg))
    assert type(parsed.plant["nu"]) is float and parsed.plant["lengths"] is None
    assert parsed.plant["face"] == {"axis": None, "side": "low"}
    assert type(parsed.synthesis["gamma_base"]) is float and parsed.synthesis["spread"] is None
    assert parsed.simulation["z0"]["bump"] == {"center": None, "width": 1.0, "amplitude": 1.0}
    assert type(parsed.simulation["T"]) is float and parsed.simulation["h"] is None


def test_pipeline_reads_modes_as_arrays(tmp_path, monkeypatch):
    # no stage takes one mode out of the table: integer keys raise
    table_getitem = ModeTable.__getitem__

    def slices_only(self, key):
        if not isinstance(key, slice):
            raise AssertionError(f"ModeTable indexed by {key!r}")
        return table_getitem(self, key)

    monkeypatch.setattr(ModeTable, "__getitem__", slices_only)
    cfg = os.path.join(ROOT, "demos", "quick_certify.json")
    assert main(["pipeline", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    for name in ("synthesis.json", "certificate.json", "summary.json", "simulation.csv"):
        assert (tmp_path / "o" / name).exists()


def test_simulate_rejects_nonpositive_T(tmp_path, capsys):
    cfg = {**MILD, "simulation": {**MILD["simulation"], "T": 0.0}}
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "T must be positive" in capsys.readouterr().err


def test_simulate_3d_bump_runs(tmp_path):
    # the bump is projected by per-axis 1-D integrals, so 3-D needs no grid
    with open(os.path.join(ROOT, "demos", "cube_3d.json")) as fh:
        cfg = json.load(fh)
    cfg["simulation"]["z0"] = {"bump": {"width": 0.3}}
    path = write_cfg(tmp_path, cfg)
    tracemalloc.start()
    try:
        code = main(["simulate", "--config", path, "--out", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 50e6
    with open(tmp_path / "o" / "simulation.csv") as fh:
        first = dict(zip(fh.readline().strip().split(","), fh.readline().split(",")))
    plant = build_plant(parse_config(path))
    n_sim = cfg["simulation"]["N_sim"]
    z0 = project_bump(plant, enumerate_eigenpairs(plant, n_sim), [0.5 * math.pi] * 3, 0.3, 1.0, n_sim)
    assert float(first["l2_proxy"]) == pytest.approx(np.linalg.norm(z0), rel=1e-12)
    assert np.linalg.norm(z0) > 0.1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_simulation_overflow_exit_code(tmp_path, capsys):
    cfg = {
        **EXAMPLE,
        "synthesis": {"N": 4},
        "simulation": {
            "z0": {"modes": [[1, 1]], "coeffs": [1e300]},
            "T": 10.0,
            "h": 1e-3,
            "N_sim": 4,
            "open_loop": True,
            "t_skip": 0.1,
        },
    }
    code = main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 4
    assert "simulation failed" in capsys.readouterr().err


def test_sweep_runs_every_entry(tmp_path, monkeypatch):
    on_main_thread = []
    pipeline = cli.cmd_pipeline

    def recording(*args):
        on_main_thread.append(threading.current_thread() is threading.main_thread())
        return pipeline(*args)

    monkeypatch.setattr(cli, "cmd_pipeline", recording)
    cfg = {**MILD, "sweep": [{"synthesis": {"N": 8}}, {"synthesis": {"N": 10}}]}
    out = tmp_path / "sweep"
    code = main(["sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    # the entries run in order on the calling thread, never beside a fork
    assert on_main_thread == [True, True]
    index = json.loads((out / "sweep_index.json").read_text())
    assert [r["exit_code"] for r in index["runs"]] == [0, 0]
    for i in range(2):
        assert (out / f"sweep_{i:03d}" / "summary.json").exists()
    n_values = [
        json.loads((out / f"sweep_{i:03d}" / "synthesis.json").read_text())["N"]
        for i in range(2)
    ]
    assert n_values == [8, 10]


def _overridden(base, override):
    out = dict(base)
    for key, value in override.items():
        out[key] = _overridden(base[key], value) if isinstance(value, dict) else value
    return out


def test_sweep_demo_finishes_and_matches_standalone_pipelines(tmp_path):
    # every entry writes a multi-chunk CSV through the forked writer; run
    # beside other sweep entries in threads, such a sweep used to hang
    demo = os.path.join(ROOT, "demos", "sweep_quick.json")
    out = tmp_path / "sweep"
    proc = run_python(["-m", "parstab", "sweep", "--config", demo, "--out", str(out)], timeout=60)
    assert proc.returncode == 0, proc.stderr
    with open(demo) as fh:
        cfg = json.load(fh)
    entries = cfg.pop("sweep")
    index = json.loads((out / "sweep_index.json").read_text())
    assert index["runs"] == [
        {"index": i, "out": f"sweep_{i:03d}", "exit_code": 0} for i in range(len(entries))
    ]
    names = ("synthesis.json", "certificate.json", "summary.json", "simulation.csv")
    for i, entry in enumerate(entries):
        alone = tmp_path / f"alone_{i}"
        path = write_cfg(tmp_path, _overridden(cfg, entry), f"entry_{i}.json")
        assert main(["pipeline", "--config", path, "--out", str(alone)]) == 0
        for name in names:
            assert (out / f"sweep_{i:03d}" / name).read_bytes() == (alone / name).read_bytes()
        with open(alone / "simulation.csv") as fh:
            assert sum(1 for _ in fh) - 1 > CSV_CHUNK_ROWS


@pytest.mark.parametrize("base", [0, -2])
def test_non_positive_gamma_base_is_refused(tmp_path, base):
    # a base of 0 used to double to 0 forever, so the run has a timeout
    cfg = demo_config("quick_certify.json")
    cfg["synthesis"]["gamma_base"] = base
    out = tmp_path / "o"
    args = ["-m", "parstab", "synthesize", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    proc = run_python(args, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error: /synthesis/gamma_base")
    assert not out.exists()


def test_sweep_entry_with_gamma_base_0_exits_2(tmp_path):
    cfg = {**MILD, "sweep": [{"synthesis": {"gamma_base": 0}}]}
    out = tmp_path / "sweep"
    args = ["-m", "parstab", "sweep", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]
    proc = run_python(args, timeout=60)
    assert proc.returncode == 2
    assert "sweep entry 0: /synthesis/gamma_base" in proc.stderr
    index = json.loads((out / "sweep_index.json").read_text())
    assert index["runs"] == [{"index": 0, "out": "sweep_000", "exit_code": 2}]
    assert not (out / "sweep_000").exists()


def test_sweep_without_entries_fails(tmp_path, capsys):
    code = main(["sweep", "--config", write_cfg(tmp_path, MILD), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "no sweep entries" in capsys.readouterr().err


def test_simulate_creates_missing_out_dir(tmp_path):
    out = tmp_path / "not" / "yet"
    code = main(["simulate", "--config", write_cfg(tmp_path, MILD), "--out", str(out)])
    assert code == 0
    assert (out / "simulation.csv").exists()
    assert (out / "summary.json").exists()


def test_missing_config_flag_is_an_argparse_error():
    with pytest.raises(SystemExit):
        main(["synthesize"])


def test_synthesis_report_round_trips_exactly(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    cfg = write_cfg(tmp_path, MILD)
    assert main(["synthesize", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["synthesize", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "synthesis.json").read_bytes() == (out2 / "synthesis.json").read_bytes()
    report = json.loads((out1 / "synthesis.json").read_text())
    assert np.array(report["A"]).shape == (1, 1)


def test_walkthrough_demo_runs():
    proc = run_python([os.path.join(ROOT, "demos", "walkthrough.py")])
    assert proc.returncode == 0, proc.stderr
    assert "closed-loop decay rate" in proc.stdout


@pytest.mark.parametrize("module", ["parstab", "parstab.cli"])
def test_python_m_runs_without_warnings(module):
    proc = run_python(["-W", "error", "-m", module, "--help"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: parstab")


# Runs parstab commands with every scipy import refused. argv[1] is a JSON
# list of [config, command, out] triples; prints the exit codes and the
# scipy modules anything tried to import.
NO_SCIPY = """
import json, sys

tried = []

class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            tried.append(name)
            raise ImportError(f"{name} is refused")
        return None

sys.meta_path.insert(0, RefuseScipy())
from parstab import certification, cli

codes = [cli.main([cmd, "--config", cfg, "--out", out]) for cfg, cmd, out in json.loads(sys.argv[1])]
print(json.dumps({"codes": codes, "tried": tried}))
"""


def test_cli_runs_without_scipy(tmp_path):
    quick = os.path.join(ROOT, "demos", "quick_certify.json")
    strong = os.path.join(ROOT, "demos", "strong_drift_pipeline.json")
    runs = [[quick, cmd, str(tmp_path / cmd)] for cmd in ("synthesize", "certify", "simulate", "pipeline")]
    # N0 = 3 on the strong demo, so the YT update loop and its QR steps run
    runs.append([strong, "synthesize", str(tmp_path / "strong")])
    proc = run_python(["-c", NO_SCIPY, json.dumps(runs)])
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {"codes": [0] * 5, "tried": []}
    assert json.loads((tmp_path / "strong" / "synthesis.json").read_text())["N0"] == 3
    for name in ("synthesis.json", "certificate.json", "summary.json", "simulation.csv"):
        assert (tmp_path / "pipeline" / name).exists()


@pytest.mark.parametrize(
    "cfg, code",
    [
        # n0 = 1, one round at N = 120
        (dict(MILD, certification={"N_start": 120, "N_max": 120}), 0),
        # n0 = 3, rounds at N = 30, 60 and 120, all failing theta1
        (dict(EXAMPLE, synthesis={"N": 60}, certification={"N_start": 30, "N_max": 120}), 3),
        # the certify_search workload's strong certify at benchmark seed 1:
        # rounds up to N = 240, where the eigenvalues of the 245-dim Theta1
        # and the 2-norm of P differ in the last bit between thread counts
        # unless they run on one thread
        (
            dict(
                EXAMPLE,
                sensors={
                    "xi1": [0.5080618546467441, 1.070846024216234],
                    "xi2": [1.0658264771385968, 0.5153041415443653],
                },
                synthesis={"N": 60},
                certification={"N_start": 30, "N_max": 240},
            ),
            3,
        ),
    ],
)
def test_certificate_bytes_do_not_depend_on_blas_threads(tmp_path, cfg, code):
    path = write_cfg(tmp_path, cfg)
    certs = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        proc = run_python(["-m", "parstab", "certify", "--config", path, "--out", str(out)], threads)
        assert proc.returncode == code, proc.stderr
        # the mode table is sized for the deepest round, so no round is cut short
        assert "tail truncated" not in proc.stderr
        certs.append((out / "certificate.json").read_bytes())
    assert certs[0] == certs[1]
    rounds = json.loads(certs[0])["rounds"]
    assert [r["N_tail"] for r in rounds] == [lifting.tail_cap(r["N"]) for r in rounds]


def test_quick_simulation_bytes_do_not_depend_on_blas_threads(tmp_path):
    # `run` propagates on one BLAS thread at every thread count: the quick
    # demo's 40-dim loop, the cube demo's 100-dim one and the strong demo's
    # 300-dim one, shortened to 2501 rows, which still make two segments
    strong = demo_config("strong_drift_pipeline.json")
    strong["simulation"]["T"] = 0.5
    assert len(simulation._segment_bounds(2501)) == 3
    demos = [os.path.join(ROOT, "demos", name) for name in ("quick_certify.json", "cube_3d.json")]
    for demo in demos + [write_cfg(tmp_path, strong, "strong.json")]:
        name = os.path.basename(demo)
        outputs = []
        for threads in (1, 2):
            out = tmp_path / f"{name}-threads{threads}"
            proc = run_python(["-m", "parstab", "simulate", "--config", demo, "--out", str(out)], threads)
            assert proc.returncode == 0, proc.stderr
            outputs.append([(out / f).read_bytes() for f in ("summary.json", "simulation.csv")])
        assert outputs[0] == outputs[1], name


def strict_json(path):
    """The file parsed as RFC 8259 JSON, which has no NaN or Infinity."""

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(path.read_text(), parse_constant=refuse)


def demo_config(name):
    with open(os.path.join(ROOT, "demos", name)) as fh:
        return json.load(fh)


def test_undefined_values_are_written_as_null(tmp_path, monkeypatch):
    # finite values keep their bytes; NaN and infinities at any depth become null
    path = tmp_path / "values.json"
    cli._write_json({"x": [0.1, float("nan")], "y": {"z": -math.inf}, "w": (1e-300, math.inf)}, path)
    want = {"x": [0.1, None], "y": {"z": None}, "w": [1e-300, None]}
    assert path.read_text() == json.dumps(want, indent=2, sort_keys=True) + "\n"
    # T = 1 leaves no row after t_skip = 2: the decay rate is undefined
    cfg = demo_config("quick_certify.json")
    cfg["simulation"]["T"] = 1.0
    out = tmp_path / "simulate"
    assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert strict_json(out / "summary.json")["decay_rate"] is None
    # a round whose Lyapunov solve fails has no bounds

    def fail(F, delta, h):
        raise certification.CertificationError("forced failure")

    monkeypatch.setattr(certification, "solve_lyapunov", fail)
    out = tmp_path / "certify"
    assert main(["certify", "--config", write_cfg(tmp_path, MILD), "--out", str(out)]) == 3
    cert = strict_json(out / "certificate.json")
    assert "lyapunov" in cert["status"]
    for key in ("S1", "S2", "Sphi", "eta_cert", "theta1_max", "psi_bound", "P_norm"):
        assert cert[key] is None, key


@pytest.mark.parametrize("n_sim, grows", [(70, True), (240, False)])
def test_simulate_warns_when_the_simulated_loop_grows(tmp_path, caplog, n_sim, grows):
    # the strong-drift design at N = 60: its simulated loop is unstable at
    # N_sim = 70 (README, Observation spillover) and decays at 240
    cfg = demo_config("strong_drift_pipeline.json")
    cfg["simulation"].update(N_sim=n_sim, h=2e-3, T=20.0)
    out = tmp_path / "out"
    with caplog.at_level(logging.WARNING, logger="parstab"):
        assert main(["simulate", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    rate = strict_json(out / "summary.json")["decay_rate"]
    warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
    if not grows:
        assert rate < 0 and warnings == []
        return
    assert rate >= 0 and len(warnings) == 1
    assert f"rate {rate:+.3g} at N = 60, N_sim = {n_sim}" in warnings[0]
    assert "'Observation spillover'" in warnings[0]
    with open(os.path.join(ROOT, "README.md")) as fh:
        assert "\n### Observation spillover\n" in fh.read()
