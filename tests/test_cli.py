import argparse
import json
import math
import os
import re
import subprocess
import sys
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
import yaml

from aggdiff import analysis, cli, drift, grid, solver


TINY_SIMULATE = """
kernel: neg_abs
dimension: 1
epsilon: [0.2]
initial: {type: gaussian, mass: 1.0, width: 0.1}
scale: 2.0
t_end: auto
grid: {dr: 0.01, r_max: 2.0}
solver: {record_samples: 20, store_snapshots: true}
"""


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "{kernel: neg_abs, dimension: 1, epsilon: [0.1]}"))
    assert cfg["solver"]["dt_max"] == "auto"
    assert cfg["grid"]["dr"] == "auto"
    assert "slack" not in cfg["analysis"] and analysis.MOMENT_SLACK == 0.01
    assert cfg["epsilon"] == [0.1]


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config(_write(tmp_path, "{kernel: neg_abs, epsilonn: [0.1]}"))
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config(_write(tmp_path, "{solver: {cfll: 0.5}}"))


@pytest.mark.parametrize("key, value", [
    ("solver.diffusion_mode", "explicit"),
    ("analysis.scan_objective", "level"),
    ("solver.cfl", "0.5"),
    ("solver.boundary_loss_tolerance", "1.0e-6"),
    ("analysis.safety_factor", "1.5"),
    ("analysis.t_star", "auto"),
    ("analysis.ball_factor", "0.5"),
    ("analysis.slack", "0.01"),
    ("analysis.h1_coefficient", "null"),  # as an old config.resolved holds it
])
def test_retired_key_exits_2(tmp_path, capsys, key, value):
    # Options that were removed: an old config (or config.resolved) that
    # still sets one, even at its old default, exits 2 and names it.
    section, name = key.split(".")
    config = _write(tmp_path, f"{{{section}: {{{name}: {value}}}}}")
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    assert f"unknown config key: {key}" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_yaml_exits_2_naming_the_file(tmp_path, capsys):
    config = _write(tmp_path, "kernel: neg_abs\nepsilon: [0.1, 0.05\n")
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: config file {config} is not valid YAML: ")
    assert err.count("\n") == 1


def test_parse_rejects_unsupported_dimension(tmp_path):
    with pytest.raises(cli.ConfigError, match="dimension"):
        cli.parse_config(_write(tmp_path, "{dimension: 4}"))


def test_parse_rejects_inconsistent_combos(tmp_path):
    with pytest.raises(cli.ConfigError, match="kernel_table"):
        cli.parse_config(_write(tmp_path, "{kernel: tabulated}"))
    with pytest.raises(cli.ConfigError, match="epsilon"):
        cli.parse_config(_write(tmp_path, "{epsilon: [-0.1]}"))
    for key, value in (
        ("grid.dr_max", ".nan"), ("grid.dr_max", "-0.01"), ("grid.dr_max", "abc"),
        ("grid.dr_max", "true"), ("initial.mass", "true"),
        ("solver.record_samples", ".inf"), ("solver.record_samples", "2.9"),
        ("solver.record_samples", "1"), ("solver.record_samples", "true"),
        ("sweep.jobs", "1.7"), ("sweep.jobs", "0"), ("sweep.jobs", "-2"), ("sweep.jobs", ".nan"),
        ("solver.store_snapshots", "auto"), ("solver.store_snapshots", "1"),
    ):
        section, name = key.split(".")
        with pytest.raises(cli.ConfigError, match=key):
            cli.parse_config(_write(tmp_path, f"{{{section}: {{{name}: {value}}}}}"))
    # Booleans are not numbers, and r_inner is parsed like every other length.
    for text, key in (
        ("{epsilon: true}", "epsilon"),
        ("{epsilon: [0.1, yes]}", "epsilon"),
        ("{initial: {type: annulus, r_inner: abc}}", "initial.r_inner"),
        ("{initial: {type: annulus, r_inner: yes}}", "initial.r_inner"),
        ("{initial: {type: annulus, r_inner: -0.1}}", "initial.r_inner"),
    ):
        with pytest.raises(cli.ConfigError, match=key):
            cli.parse_config(_write(tmp_path, text))
    for value in ("true", "2.5", "0", "4", ".inf"):
        with pytest.raises(cli.ConfigError, match="dimension"):
            cli.parse_config(_write(tmp_path, f"{{dimension: {value}}}"))
    # Integral numbers in any spelling are stored as ints. PyYAML reads
    # 5e-3 (no dot) as a string; the parser must still give a float.
    cfg = cli.parse_config(
        _write(tmp_path, "{dimension: 2.0, solver: {record_samples: 1e3}, grid: {dr_max: 5e-3}, sweep: {jobs: 2.0}}")
    )
    counts = (cfg["dimension"], cfg["solver"]["record_samples"], cfg["sweep"]["jobs"])
    assert counts == (2, 1000, 2) and all(type(v) is int for v in counts)
    assert cfg["grid"]["dr_max"] == 5e-3 and type(cfg["grid"]["dr_max"]) is float
    annulus = cli.parse_config(_write(tmp_path, "{initial: {type: annulus, r_inner: 0}}"))
    assert annulus["initial"]["r_inner"] == 0.0


def test_config_echo_round_trips(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, TINY_SIMULATE))
    out = cli.start_output(argparse.Namespace(out=tmp_path / "out", command="simulate", config="c.yaml"), cfg)
    reparsed = cli.parse_config(out / cli.RESOLVED_NAME)
    assert reparsed == cfg


def test_scalar_epsilon_promoted_to_list(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "{epsilon: 0.05}"))
    assert cfg["epsilon"] == [0.05]


def test_simulate_end_to_end_and_determinism(tmp_path):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    names = [
        "manifest.json", "config.resolved", "run.json",
        "trajectory.csv", "snapshots.csv", "verdicts.txt",
    ]
    assert sorted(path.name for path in out.iterdir()) == sorted(names)
    first = {n: (out / n).read_bytes() for n in names}
    code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], f"{n} not byte-identical"


def test_trajectory_round_trip_exact(tmp_path):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    traj, constants, meta = cli.load_run(out)
    cols = cli.read_csv_columns(out / "trajectory.csv")
    assert np.array_equal(cols["t"], traj.times)
    # re-serialising the loaded record reproduces the file byte-for-byte
    cli.write_trajectory_csv(traj, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == (out / "trajectory.csv").read_bytes()
    assert constants is not None and constants.scale == traj.scale


def test_empty_trajectory_written_as_header_only(tmp_path):
    traj = solver.TrajectoryRecord(
        grid=grid.RadialGrid(2, 0.01, 5), epsilon=0.1, scale=1.0, kernel_name="zero",
        times=np.zeros(0), mass=np.zeros(0), truncated_moment=np.zeros(0),
        concentration=np.zeros(0), outflow_cumulative=np.zeros(0),
        lp={1.0: np.zeros(0), 2.0: np.zeros(0), math.inf: np.zeros(0)},
    )
    path = tmp_path / "empty.csv"
    cli.write_trajectory_csv(traj, path)
    lines = path.read_text().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("t,mass,")


def test_check_reverifies_and_detects_tampering(tmp_path):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    assert cli.main(["check", "--traj", str(out)]) == 0
    # tamper: inflate one recorded mass -> conservation defect at that row
    # (a uniform rescaling would cancel out of the relative defect)
    rows = (out / "trajectory.csv").read_text().splitlines()
    header = rows[0].split(",")
    idx = header.index("mass")
    parts = rows[len(rows) // 2].split(",")
    parts[idx] = repr(float(parts[idx]) * 1.01)
    rows[len(rows) // 2] = ",".join(parts)
    (out / "trajectory.csv").write_text("\n".join(rows) + "\n")
    assert cli.main(["check", "--traj", str(out)]) == 1


@pytest.mark.parametrize("key", ["scale", "constants.horizon"])
def test_check_of_a_run_json_without_a_key_it_reads_exits_2(tmp_path, capsys, key):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    *section, name = key.split(".")
    del (meta[section[0]] if section else meta)[name]
    (out / "run.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    err = capsys.readouterr().err
    if section:
        assert err.startswith(f"error: {out / 'run.json'}: constants: ")
        assert repr(name) in err and err.count("\n") == 1
    else:
        assert err == f"error: {out}: run.json or trajectory.csv has no {key!r}\n"


@pytest.mark.parametrize("key", ["grid.dr", "grid.n", "epsilon"])
def test_check_of_a_run_json_with_a_null_number_exits_2(tmp_path, capsys, key):
    # Exit 1 is a FAIL verdict; a value check cannot read is an input error.
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    *section, name = key.split(".")
    (meta[section[0]] if section else meta)[name] = None
    (out / "run.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out}: run.json has no number at {key!r}\n"


def test_check_fails_the_moment_inequality_on_nan_samples(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    column = lines[0].split(",").index("concentration")
    for k in (10, 11, 12):
        cells = lines[k].split(",")
        cells[column] = "nan"
        lines[k] = ",".join(cells)
    (out / "trajectory.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 1
    verdict = next(line for line in capsys.readouterr().out.splitlines() if "moment_inequality" in line)
    assert verdict.startswith("FAIL") and verdict.endswith("3 violations")


def test_check_of_a_run_json_with_an_unknown_constant_exits_2(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    meta["constants"]["width"] = 1.0
    (out / "run.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {out / 'run.json'}: constants: ")
    assert "'width'" in err and err.count("\n") == 1


@pytest.mark.parametrize("null", [True, False], ids=["null", "deleted"])
def test_check_of_an_attractive_run_without_constants_exits_2(tmp_path, capsys, null):
    # Without constants only mass_conservation and boundary_loss would be
    # judged, and check would pass on partial data.
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    meta = json.loads((out / "run.json").read_text())
    if null:
        meta["constants"] = None
    else:
        del meta["constants"]
    (out / "run.json").write_text(json.dumps(meta))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out / 'run.json'}: constants: missing for kernel 'neg_abs'\n"


def test_check_of_a_zero_kernel_run_needs_no_constants(tmp_path):
    text = TINY_SIMULATE.replace("kernel: neg_abs", "kernel: zero").replace("t_end: auto", "t_end: 0.05")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 0
    assert json.loads((out / "run.json").read_text())["constants"] is None
    assert cli.main(["check", "--traj", str(out)]) == 0


def test_check_of_a_series_column_without_an_exponent_exits_2(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    text = (out / "trajectory.csv").read_text()
    (out / "trajectory.csv").write_text(text.replace(",lp2,", ",lpx,", 1))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    assert capsys.readouterr().err == f"error: {out / 'trajectory.csv'}: column 'lpx' names no exponent\n"


def _drop_last_cell(text):
    return "\n".join(line.rsplit(",", 1)[0] for line in text.splitlines()) + "\n"


def _add_cell(text, line):
    lines = text.splitlines()
    lines[line - 1] += ",0.5"
    return "\n".join(lines) + "\n"


def _first_cell(text, line, value):
    lines = text.splitlines()
    lines[line - 1] = value + "," + lines[line - 1].split(",", 1)[1]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("name, tamper, message", [
    ("trajectory.csv", lambda text: _first_cell(text, 4, "abc"), "line 4: could not convert string to float: 'abc'"),
    ("trajectory.csv", lambda text: _add_cell(text, 3), "line 3 has 10 cells, the header 9"),
    ("snapshots.csv", lambda text: _first_cell(text, 7, "abc"), "line 7: could not convert string to float: 'abc'"),
    ("snapshots.csv", lambda text: _add_cell(text, 5), "line 5 has 23 cells, the header 22"),
    ("snapshots.csv", _drop_last_cell, "header is not r,u0..u20 for the 21 rows of trajectory.csv"),
    ("snapshots.csv", lambda text: _first_cell(text, 2, "0.5"), "column r is not a prefix of the grid's cell centres"),
], ids=["traj-cell", "traj-row", "snap-cell", "snap-row", "snap-column", "snap-radius"])
def test_check_of_a_malformed_table_exits_2_naming_the_file(tmp_path, capsys, name, tamper, message):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    (out / name).write_text(tamper((out / name).read_text()))
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {out / name}: {message}\n"


def test_check_of_a_run_without_its_snapshots_exits_2(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    (out / "snapshots.csv").unlink()
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out / "snapshots.csv") in err and err.count("\n") == 1


def test_load_run_returns_the_snapshots_simulate_computed(tmp_path, monkeypatch):
    written = []
    emit_run = cli.emit_run
    monkeypatch.setattr(cli, "emit_run", lambda traj, *args: written.append(traj) or emit_run(traj, *args))
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    traj, _, _ = cli.load_run(out)
    assert traj.snapshots.shape == written[0].snapshots.shape == (len(traj.times), traj.grid.n)
    assert traj.snapshots.tobytes() == written[0].snapshots.tobytes()


def test_write_verdicts_returns_the_exit_code(tmp_path, capsys):
    passing = analysis.Verdict.bound("below", 1.0, 2.0, "")
    failing = analysis.Verdict.bound("above", 3.0, 2.0, "")
    assert cli.write_verdicts([passing], tmp_path / "v.txt") == 0
    assert cli.write_verdicts([passing, failing], tmp_path / "v.txt") == 1
    assert cli.write_verdicts([], tmp_path / "v.txt") == 0


def test_check_reports_the_ball_mass_of_a_run_that_stored_every_cell(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    traj, _, _ = cli.load_run(out)
    assert traj.snapshots.shape == (len(traj.times), traj.grid.n)
    capsys.readouterr()
    assert cli.main(["check", "--traj", str(out)]) == 0
    assert "INFO  ball_mass_integral           value=" in capsys.readouterr().out


def test_verdicts_file_format(tmp_path):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    cli.main(["simulate", "--config", str(config), "--out", str(out)])
    lines = (out / "verdicts.txt").read_text().splitlines()
    assert lines, "verdicts.txt must not be empty"
    for line in lines:
        assert line.startswith(("PASS", "FAIL"))
        assert "margin=" in line
    assert any("mass_conservation" in line for line in lines)


def test_simulate_that_ends_before_the_horizon_fails_the_weighted_bound(tmp_path):
    # TINY_SIMULATE's horizon is 0.448; a run to 0.2 has only part of the
    # weighted integral, so the bound fails instead of going missing.
    config = _write(tmp_path, TINY_SIMULATE.replace("t_end: auto", "t_end: 0.2"))
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 1
    lines = (out / "verdicts.txt").read_text().splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "mass_conservation"], ["PASS", "boundary_loss"],
        ["PASS", "moment_inequality"], ["FAIL", "weighted_lower_bound"],
    ]
    assert lines[-1].endswith("margin=+nan  run ends at t = 0.2, before the horizon 0.4482")
    assert cli.main(["check", "--traj", str(out)]) == 1


def test_simulate_to_the_horizon_prints_the_ratio_verdict(tmp_path, capsys):
    config = _write(tmp_path, TINY_SIMULATE)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    traj, constants, _ = cli.load_run(out)
    ratio = analysis.weighted_concentration_integral(traj, constants).ratio
    violations = len(analysis.check_moment_inequality(traj, constants))
    cli.write_verdicts(
        analysis.trajectory_verdicts([traj.mass_error()], [traj.boundary_loss()], [violations], [ratio]),
        tmp_path / "expected.txt",
    )
    assert (out / "verdicts.txt").read_bytes() == (tmp_path / "expected.txt").read_bytes()
    assert f"min integral/threshold ratio {ratio:.3f}" in capsys.readouterr().out


BASELINE_CONFIG = """
kernel: zero
dimension: 1
epsilon: [0.2]
initial: {type: gaussian, mass: 1.0, width: 0.15}
t_end: 0.5
grid: {dr: 0.005, r_max: 4.0}
solver: {dt_max: 0.002, record_samples: 10}
"""


def test_baseline_matches_exact_heat_norms(tmp_path):
    config = _write(tmp_path, BASELINE_CONFIG)
    out = tmp_path / "base"
    assert cli.main(["baseline", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "baseline.json").read_text())
    for key in ("1", "2", "inf"):
        assert payload["norms"][key]["rel_error"] < 0.01


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def test_shipped_configs_parse_and_the_baseline_passes(tmp_path):
    # Each shipped config is named after its command, parses under it and,
    # but for the sweep (the acceptance fixtures run that ladder), runs to
    # exit 0; its config.resolved parses to the same config. The
    # baseline's dt_max keeps first-order backward Euler within the 1%
    # tolerance of every heat_norm verdict.
    paths = sorted(CONFIGS.glob("*.yaml"))
    assert [path.stem for path in paths] == ["baseline", "simulate", "sweep"]
    for path in paths:
        cfg = cli.parse_config(path, path.stem)
        if path.stem == "sweep":
            continue
        out = tmp_path / path.stem
        assert cli.main([path.stem, "--config", str(path), "--out", str(out)]) == 0
        assert cli.parse_config(out / cli.RESOLVED_NAME, path.stem) == cfg
    verdicts = (tmp_path / "baseline" / "verdicts.txt").read_text().splitlines()
    assert [line.split()[:2] for line in verdicts] == [
        ["PASS", "heat_norm_p1"], ["PASS", "heat_norm_p2"], ["PASS", "heat_norm_pinf"],
    ]


def test_baseline_requires_gaussian_and_t_end(tmp_path, capsys):
    bad = _write(tmp_path, "{initial: {type: annulus, r_outer: 1.0}, t_end: 0.5}", "b1.yaml")
    assert cli.main(["baseline", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    capsys.readouterr()
    bad2 = _write(tmp_path, BASELINE_CONFIG.replace("t_end: 0.5", "t_end: auto"), "b2.yaml")
    assert cli.main(["baseline", "--config", str(bad2), "--out", str(tmp_path / "y")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: t_end ") and err.count("\n") == 1
    assert not (tmp_path / "y").exists()
    # Without a step limit backward Euler's time error alone fails the norms.
    capsys.readouterr()
    bad3 = _write(tmp_path, BASELINE_CONFIG.replace("dt_max: 0.002, ", ""), "b3.yaml")
    assert cli.main(["baseline", "--config", str(bad3), "--out", str(tmp_path / "z")]) == 2
    assert "solver.dt_max" in capsys.readouterr().err
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("kernel", ["neg_abs", "exponential"])
def test_baseline_rejects_a_kernel_it_would_ignore(tmp_path, capsys, kernel):
    # baseline always runs pure diffusion, whatever the config's kernel.
    config = _write(tmp_path, BASELINE_CONFIG.replace("kernel: zero", f"kernel: {kernel}"))
    out = tmp_path / "base"
    assert cli.main(["baseline", "--config", str(config), "--out", str(out)]) == 2
    assert "kernel: zero" in capsys.readouterr().err
    assert not out.exists()


RUN_KEYS = """
t_end: 0.3
grid: {dr: 0.02, r_max: 3.0}
solver: {record_samples: 10, dt_max: 0.01}
"""


@pytest.mark.parametrize("command, head", [
    ("simulate", "kernel: neg_abs\nepsilon: [0.2]"),
    ("baseline", "kernel: zero\nepsilon: [0.2]"),
])
def test_commands_run_with_the_configs_run_keys(tmp_path, monkeypatch, command, head):
    seen = []
    run = analysis.run

    def recording_run(u0, kernel, config, scale):
        seen.append((u0.grid, config))
        return run(u0, kernel, config, scale)

    monkeypatch.setattr(analysis, "run", recording_run)
    config = _write(tmp_path, head + RUN_KEYS)
    assert cli.main([command, "--config", str(config), "--out", str(tmp_path / "o")]) in (0, 1)
    assert seen
    for g, cfg in seen:
        assert (g.dr, g.r_max) == (0.02, pytest.approx(3.0))
        assert (cfg.t_end, cfg.record_interval, cfg.dt_max) == (0.3, 0.03, 0.01)
    if command == "simulate":
        # The rim-loss tolerance judges the run; it does not act on it.
        meta = json.loads((tmp_path / "o" / "run.json").read_text())
        assert meta["boundary_loss_tolerance"] == analysis.BOUNDARY_LOSS_TOLERANCE


def test_calibrate_is_not_a_command(tmp_path, capsys):
    # The sweep calibrates the H^1 coefficient on its own rows; no command
    # computes one to feed back in.
    config = _write(tmp_path, "{epsilon: [0.1, 0.05, 0.02]}")
    with pytest.raises(SystemExit) as exc:
        cli.main(["calibrate", "--config", str(config), "--out", str(tmp_path / "c")])
    assert exc.value.code == 2
    assert "invalid choice: 'calibrate'" in capsys.readouterr().err
    assert not (tmp_path / "c").exists()


def test_sweep_rejects_insufficient_epsilons(tmp_path):
    config = _write(tmp_path, "{kernel: neg_abs, epsilon: [0.1, 0.05, 0.02]}")
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "s")]) == 2


# Keys every sweep row runs with, mapped to their RunSettings field.
SWEEP_HONOURED = {"grid.dr": "dr", "grid.r_max": "r_max", "solver.dt_max": "dt_max"}


@pytest.mark.parametrize("key, value", [
    ("t_end", "2.0"),
    ("grid.dr", "0.01"),
    ("grid.r_max", "3.0"),
    ("solver.dt_max", "1.0e-9"),
    ("solver.boundary_loss_tolerance", "1.0e-80"),  # retired: refused as an unknown key
    ("solver.store_snapshots", "true"),
])
def test_sweep_rejects_keys_it_would_ignore(tmp_path, key, value, capsys):
    # Each sweep row runs to its own horizon and always stores snapshots,
    # so those keys would be echoed into config.resolved without acting on
    # the run. The grid and step keys do act on every row, so sweep keeps
    # them and hands them to the row settings.
    *section, name = key.split(".")
    entry = f"{name}: {value}" if not section else f"{section[0]}: {{{name}: {value}}}"
    config = _write(tmp_path, f"{{kernel: neg_abs, epsilon: [0.2, 0.1, 0.05, 0.02], {entry}}}")
    if key in SWEEP_HONOURED:
        cfg = cli.parse_config(config, "sweep")
        assert getattr(cli.run_settings(cfg), SWEEP_HONOURED[key]) == float(value)
        return
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_sweep_accepts_those_keys_at_their_defaults(tmp_path):
    text = "{t_end: auto, solver: {store_snapshots: false}}"
    cli.parse_config(_write(tmp_path, text), "sweep")


# Keys a command does not read with the kernel and initial type it runs.
UNREAD_KEYS = [
    ("simulate", "kernel_table", "kernel_table: /nonexistent"),
    ("simulate", "initial.r_outer", "initial: {type: gaussian, r_outer: 7}"),
    ("simulate", "initial.path", "initial: {type: gaussian, path: /nope}"),
    ("simulate", "initial.width", "initial: {type: annulus, width: 0.5}"),
    ("baseline", "solver.store_snapshots", "solver: {store_snapshots: true}"),
    ("baseline", "sweep.jobs", "sweep: {jobs: 3}"),
    ("baseline", "scale", "scale: 2.0"),
    # plan_grid reads dr_max and dr_divisor only while grid.dr is auto.
    ("simulate", "grid.dr_max", "grid: {dr: 0.01, r_max: 2.0, dr_max: 0.5, dr_divisor: 99}"),
    ("sweep", "grid.dr_divisor", "grid: {dr: 0.01, dr_divisor: 99}"),
]


@pytest.mark.parametrize("command, key, entry", UNREAD_KEYS, ids=[f"{c}-{k}" for c, k, _ in UNREAD_KEYS])
def test_a_key_the_command_does_not_read_exits_2(tmp_path, capsys, command, key, entry):
    # A setting that acts on nothing would be echoed into config.resolved
    # as if it had. The key is refused before any check of the command.
    config = _write(tmp_path, entry + "\n")
    out = tmp_path / "o"
    assert cli.main([command, "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} is not read by {command} ") and err.count("\n") == 1
    assert not out.exists()


def _default(name):
    """The default of the dotted config key ``name``; KeyError if it has none."""
    value = cli.DEFAULTS
    for part in name.split("."):
        value = value[part]
    return value


def test_every_key_with_restricted_readers_is_a_config_key():
    for name in cli._READERS:
        assert not isinstance(_default(name), dict), name


README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_names_the_cli_commands_and_config_keys(capsys):
    # The README's CLI block lists exactly the subcommands of the parser,
    # and each key of its "Keys of note" table is a config key or section.
    text = README.read_text()
    block = text.split("## CLI\n\n```\n", 1)[1].split("```", 1)[0]
    documented = [line.split()[1] for line in block.splitlines() if line.startswith("aggdiff ")]
    with pytest.raises(SystemExit) as exc:
        cli.main(["-h"])
    assert exc.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    assert documented == re.search(r"\{([\w,]+)\}", usage).group(1).split(",")
    table = text.split("Keys of note:", 1)[1].split("\n## ", 1)[0]
    keys = re.findall(r"^\| `([\w.]+)` \|", table, flags=re.MULTILINE)
    assert len(keys) >= 5
    for key in keys:
        _default(key)


TINY_SWEEP = """
kernel: neg_abs
epsilon: [0.4, 0.2, 0.1, 0.04]
initial: {type: gaussian, mass: 1.0, width: 0.25}
grid: {dr_max: 0.02, dr_divisor: 8}
solver: {record_samples: 40}
"""


@pytest.mark.parametrize("command", ["simulate", "sweep", "baseline"])
def test_readme_output_formats_name_every_file_a_command_writes(tmp_path, command):
    section = README.read_text().split("## Output formats\n", 1)[1].split("\n## ", 1)[0]
    text = {"simulate": TINY_SIMULATE, "sweep": TINY_SWEEP, "baseline": BASELINE_CONFIG}[command]
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)]) in (0, 1)
    written = sorted(path.name for path in out.iterdir())
    assert len(written) >= 4
    assert [name for name in written if f"`{name}`" not in section] == []


# Mass 1e154 still has an admissible scale, and its first step overflows.
OVERFLOWING_SWEEP = """
kernel: neg_abs
epsilon: [0.2, 0.1, 0.05, 0.02]
initial: {type: gaussian, mass: 1.0e+154, width: 0.25}
grid: {dr_max: 0.02, dr_divisor: 8}
solver: {record_samples: 10}
"""


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_run_that_fails_exits_2_with_one_error_line(tmp_path, command):
    # The density overflows in the first step. The run raised a
    # NonFiniteError traceback and exited 1, the code of a FAIL verdict,
    # after NumPy's overflow warnings; the sweep's rows fail in two
    # spawned workers, which printed those warnings too.
    text = {
        "simulate": TINY_SIMULATE.replace("mass: 1.0", "mass: 1.0e+300").replace("t_end: auto", "t_end: 0.5"),
        "sweep": OVERFLOWING_SWEEP,
    }[command]
    out = tmp_path / "run"
    args = [command, "--config", str(_write(tmp_path, text)), "--out", str(out)]
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "aggdiff.cli", *args] + (["--jobs", "2"] if command == "sweep" else []),
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.startswith("error: non-finite state at step 1, t = ")
    assert done.stderr.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("error", [
    solver.NegativityError("negative density -1e-300"),
    solver.NonFiniteError(0.5, 7),
    drift.QuadratureError("order 64 did not converge"),
    BrokenProcessPool("a worker died"),
], ids=["negative", "non-finite", "quadrature", "dead-worker"])
def test_a_sweep_whose_row_raises_exits_2_with_one_error_line(tmp_path, capsys, monkeypatch, error):
    def failing_advance(*args):
        raise error

    monkeypatch.setattr(solver, "advance", failing_advance)
    out = tmp_path / "sweep"
    code = cli.main(["sweep", "--config", str(_write(tmp_path, SWEEP_CONFIG)), "--out", str(out), "--jobs", "1"])
    assert code == 2
    assert capsys.readouterr().err == f"error: {error}\n"
    assert not out.exists()


SWEEP_RUN_KEYS = """
kernel: neg_abs
epsilon: [0.4, 0.2, 0.1, 0.04]
grid: {dr: 0.01, r_max: 3.0}
solver: {dt_max: 0.01}
"""


def test_sweep_runs_with_the_configs_run_keys(tmp_path, monkeypatch):
    seen = []
    run = analysis.run

    def recording_run(u0, kernel, config, scale):
        seen.append((u0.grid, config))
        return run(u0, kernel, config, scale)

    monkeypatch.setattr(analysis, "run", recording_run)
    config = _write(tmp_path, SWEEP_RUN_KEYS)
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) in (0, 1)
    assert len(seen) == 4
    for g, cfg in seen:
        assert (g.dr, g.r_max) == (0.01, pytest.approx(3.0))
        assert cfg.dt_max == 0.01
    payload = json.loads((out / "sweep.json").read_text())
    tol = analysis.BOUNDARY_LOSS_TOLERANCE
    worst = max(row["boundary_loss"] for row in payload["rows"])
    loss = payload["verdicts"][1]
    assert loss["name"] == "boundary_loss" and loss["margin"] == tol - worst


SWEEP_CONFIG = """
kernel: neg_abs
dimension: 1
epsilon: [0.1, 0.05, 0.02, 0.01]
initial: {type: gaussian, mass: 1.0, width: 0.25}
solver: {record_samples: 100}
sweep: {jobs: 2}
"""


def test_sweep_end_to_end(tmp_path):
    config = _write(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "sweep.json").read_text())
    assert [row["epsilon"] for row in payload["rows"]] == [0.1, 0.05, 0.02, 0.01]
    assert payload["epsilon_star"] == 0.1
    assert all(v["passed"] for v in payload["verdicts"])
    csv_lines = (out / "sweep.csv").read_text().splitlines()
    assert len(csv_lines) == 5 and csv_lines[0].startswith("epsilon,")
    # --jobs overrides sweep.jobs without changing results
    out2 = tmp_path / "sweep2"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out2), "--jobs", "1"]) == 0
    assert (out2 / "sweep.json").read_bytes() == (out / "sweep.json").read_bytes()


def test_sweep_rejects_fewer_than_one_job(tmp_path, capsys):
    config = _write(tmp_path, SWEEP_CONFIG)
    out = tmp_path / "sweep"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out), "--jobs", "0"]) == 2
    assert "--jobs must be an integer >= 1" in capsys.readouterr().err
    assert not out.exists()


def test_zero_kernel_simulate_needs_numeric_t_end(tmp_path):
    config = _write(tmp_path, "{kernel: zero, epsilon: [0.1]}")
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "z")]) == 2


@pytest.mark.parametrize("bad", ["inf", "nan"])
def test_simulate_refuses_a_kernel_table_with_a_non_finite_sample(tmp_path, capsys, bad):
    # The run never reads k'(20) on [0, 2]. Yet an infinite sample made
    # |k'|_sup and the moment rate infinite, so the moment inequality
    # passed vacuously, and a NaN one crashed the drift bound check.
    s = np.linspace(0.01, 20.0, 400)
    rows = [f"{si!r} {-math.exp(-si)!r}" for si in s[:-1].tolist()] + [f"20.0 {bad}"]
    (tmp_path / "kernel.txt").write_text("\n".join(rows) + "\n")
    text = TINY_SIMULATE.replace("kernel: neg_abs", f"kernel: tabulated\nkernel_table: {tmp_path / 'kernel.txt'}")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    assert f"k'(s) = {bad}" in capsys.readouterr().err
    assert not out.exists()


def _tabulated_initial(text, path):
    """``text`` with its gaussian initial data replaced by the profile at
    ``path``; the gaussian's width goes, as a tabulated profile reads none."""
    return text.replace("type: gaussian", f"type: tabulated, path: {path}").replace(", width: 0.1}", "}")


@pytest.mark.parametrize("rows", ["0 1\n0.5 nan\n1 0\n", "0 1\n0.5 0.5\n0.3 0.2\n1 0\n"], ids=["nan", "unsorted"])
def test_simulate_refuses_a_bad_profile_file(tmp_path, capsys, rows):
    profile = tmp_path / "profile.txt"
    profile.write_text(rows)
    text = _tabulated_initial(TINY_SIMULATE, profile)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {profile}: samples must ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_profile_with_a_negative_density_exits_2(tmp_path, capsys, command):
    profile = tmp_path / "profile.txt"
    profile.write_text("0 1\n0.25 -0.5\n0.5 1\n1 0\n")
    text = {"simulate": TINY_SIMULATE, "sweep": SWEEP_CONFIG}[command]
    text = _tabulated_initial(text, profile)
    out = tmp_path / "run"
    assert cli.main([command, "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: {profile}: samples must be nonnegative; got r = 0.25, u = -0.5\n"
    assert not out.exists()


def test_a_grid_too_large_to_allocate_exits_2(tmp_path, capsys):
    # 2e17 cells: no 64-bit address space holds the 1.6e18 bytes of one
    # array, so NumPy refuses at once and nothing is allocated. It raised
    # MemoryError, which exited 1, the code of a FAIL verdict.
    text = TINY_SIMULATE.replace("grid: {dr: 0.01, r_max: 2.0}", "grid: {dr: 1.0e-17, r_max: 2.0}")
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(_write(tmp_path, text)), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("entry", ["config", "kernel_table", "initial.path"])
def test_an_input_path_that_is_a_directory_exits_2(tmp_path, capsys, entry):
    folder = tmp_path / "folder"
    folder.mkdir()
    text = {
        "config": None,
        "kernel_table": TINY_SIMULATE.replace("kernel: neg_abs", f"kernel: tabulated\nkernel_table: {folder}"),
        "initial.path": _tabulated_initial(TINY_SIMULATE, folder),
    }[entry]
    config = folder if text is None else _write(tmp_path, text)
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(folder) in err and err.count("\n") == 1
    assert not out.exists()


def test_missing_config_reports_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
