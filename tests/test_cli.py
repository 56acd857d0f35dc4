import json
import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from aggdiff import analysis, cli, solver


TINY_SIMULATE = """
kernel: neg_abs
dimension: 1
epsilon: [0.2]
initial: {type: gaussian, mass: 1.0, width: 0.1}
scale: 2.0
t_end: 0.2
grid: {dr: 0.01, r_max: 2.0}
solver: {record_samples: 20, store_snapshots: true}
"""


def _write(tmp_path, text, name="config.yaml"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_parse_minimal_config_fills_defaults(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, "{kernel: neg_abs, dimension: 1, epsilon: [0.1]}"))
    assert cfg["solver"]["diffusion_mode"] == "implicit"
    assert cfg["grid"]["dr"] == "auto"
    assert cfg["analysis"]["ball_factor"] == 0.5
    assert cfg["epsilon"] == [0.1]


def test_parse_rejects_unknown_keys(tmp_path):
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config(_write(tmp_path, "{kernel: neg_abs, epsilonn: [0.1]}"))
    with pytest.raises(cli.ConfigError, match="unknown config key"):
        cli.parse_config(_write(tmp_path, "{solver: {cfll: 0.5}}"))


def test_parse_rejects_unsupported_dimension(tmp_path):
    with pytest.raises(cli.ConfigError, match="dimension"):
        cli.parse_config(_write(tmp_path, "{dimension: 4}"))


def test_parse_rejects_inconsistent_combos(tmp_path):
    with pytest.raises(cli.ConfigError, match="kernel_table"):
        cli.parse_config(_write(tmp_path, "{kernel: tabulated}"))
    with pytest.raises(cli.ConfigError, match="dimension 1"):
        cli.parse_config(_write(tmp_path, "{dimension: 2, analysis: {h1_coefficient: 0.5}}"))
    with pytest.raises(cli.ConfigError, match="epsilon"):
        cli.parse_config(_write(tmp_path, "{epsilon: [-0.1]}"))
    for key, value in (
        ("analysis.slack", ".nan"), ("analysis.slack", "-0.01"), ("analysis.slack", "abc"),
        ("analysis.safety_factor", "-1"), ("analysis.safety_factor", "abc"),
        ("solver.boundary_loss_tolerance", "-1.0e-6"), ("solver.boundary_loss_tolerance", "abc"),
    ):
        section, name = key.split(".")
        with pytest.raises(cli.ConfigError, match=key):
            cli.parse_config(_write(tmp_path, f"{{{section}: {{{name}: {value}}}}}"))
    # PyYAML reads 1e-6 (no dot) as a string; the parser must still give a float.
    cfg = cli.parse_config(_write(tmp_path, "{solver: {boundary_loss_tolerance: 1e-6}}"))
    assert type(cfg["solver"]["boundary_loss_tolerance"]) is float
    assert cfg["solver"]["boundary_loss_tolerance"] == 1e-6
    assert cli.parse_config(_write(tmp_path, "{analysis: {slack: 0}}"))["analysis"]["slack"] == 0.0


def test_config_echo_round_trips(tmp_path):
    cfg = cli.parse_config(_write(tmp_path, TINY_SIMULATE))
    out = tmp_path / "out"
    out.mkdir()
    cli.echo_config(cfg, out)
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
        "trajectory.csv", "verdicts.txt",
    ]
    first = {n: (out / n).read_bytes() for n in names}
    snaps = sorted((out / "snapshots").glob("snap_*.csv"))
    assert len(snaps) >= 20
    first_snap = snaps[0].read_bytes()
    code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    assert code == 0
    for n in names:
        assert (out / n).read_bytes() == first[n], f"{n} not byte-identical"
    assert snaps[0].read_bytes() == first_snap


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
        dimension=2, epsilon=0.1, scale=1.0, kernel_name="zero",
        diffusion_mode="implicit", grid_dr=0.01, grid_n=5,
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


BASELINE_CONFIG = """
kernel: zero
dimension: 1
epsilon: [0.2]
initial: {type: gaussian, mass: 1.0, width: 0.15}
t_end: 0.5
grid: {dr: 0.005, r_max: 4.0}
solver: {diffusion_mode: explicit, record_samples: 10}
"""


def test_baseline_matches_exact_heat_norms(tmp_path):
    config = _write(tmp_path, BASELINE_CONFIG)
    out = tmp_path / "base"
    assert cli.main(["baseline", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "baseline.json").read_text())
    for key in ("1", "2", "inf"):
        assert payload["norms"][key]["rel_error"] < 0.01


def test_baseline_requires_gaussian_and_t_end(tmp_path):
    bad = _write(tmp_path, "{initial: {type: annulus, r_outer: 1.0}, t_end: 0.5}", "b1.yaml")
    assert cli.main(["baseline", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2
    bad2 = _write(tmp_path, "{kernel: zero}", "b2.yaml")
    assert cli.main(["baseline", "--config", str(bad2), "--out", str(tmp_path / "y")]) == 2


@pytest.mark.parametrize("kernel", ["neg_abs", "exponential"])
def test_baseline_rejects_a_kernel_it_would_ignore(tmp_path, capsys, kernel):
    # baseline always runs pure diffusion, whatever the config's kernel.
    config = _write(tmp_path, BASELINE_CONFIG.replace("kernel: zero", f"kernel: {kernel}"))
    out = tmp_path / "base"
    assert cli.main(["baseline", "--config", str(config), "--out", str(out)]) == 2
    assert "kernel: zero" in capsys.readouterr().err
    assert not out.exists()


CALIBRATE_CONFIG = """
kernel: neg_abs
dimension: 1
epsilon: [0.2, 0.15, 0.1]
initial: {type: gaussian, mass: 1.0, width: 0.25}
grid: {dr_max: 0.02, dr_divisor: 8.0}
solver: {record_samples: 50}
"""


def test_calibrate_writes_coefficient(tmp_path):
    config = _write(tmp_path, CALIBRATE_CONFIG)
    out = tmp_path / "cal"
    assert cli.main(["calibrate", "--config", str(config), "--out", str(out)]) == 0
    payload = json.loads((out / "calibration.json").read_text())
    assert payload["h1_coefficient"] > 0.0
    assert len(payload["probes"]) == 3


RUN_KEYS = """
t_end: 0.3
grid: {dr: 0.02, r_max: 3.0}
solver: {cfl: 0.4, diffusion_mode: explicit, record_samples: 10, dt_max: 0.01,
         boundary_loss_tolerance: 1.0e-5}
"""


@pytest.mark.parametrize("command, head", [
    ("simulate", "kernel: neg_abs\nepsilon: [0.2]"),
    ("baseline", "kernel: zero\nepsilon: [0.2]"),
    ("calibrate", "kernel: neg_abs\nepsilon: [0.2, 0.15, 0.1]"),
])
def test_commands_run_with_the_configs_run_keys(tmp_path, monkeypatch, command, head):
    # calibrate used to run every probe to the horizon on the automatic grid.
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
        assert (cfg.cfl_number, cfg.diffusion_mode, cfg.boundary_loss_tolerance) == (0.4, "explicit", 1e-5)


def test_calibrate_needs_three_probes(tmp_path):
    config = _write(tmp_path, "{kernel: neg_abs, epsilon: [0.1, 0.05]}")
    assert cli.main(["calibrate", "--config", str(config), "--out", str(tmp_path / "c")]) == 2


def test_sweep_rejects_insufficient_epsilons(tmp_path):
    config = _write(tmp_path, "{kernel: neg_abs, epsilon: [0.1, 0.05, 0.02]}")
    assert cli.main(["sweep", "--config", str(config), "--out", str(tmp_path / "s")]) == 2


@pytest.mark.parametrize("key, value", [
    ("t_end", "2.0"),
    ("grid.dr", "0.01"),
    ("grid.r_max", "3.0"),
    ("solver.dt_max", "1.0e-9"),
    ("solver.boundary_loss_tolerance", "1.0e-80"),
    ("solver.store_snapshots", "false"),
])
def test_sweep_rejects_keys_it_would_ignore(tmp_path, key, value, capsys):
    # Each sweep row plans its own grid, horizon and step cap and always
    # stores snapshots, so these keys would be echoed into config.resolved
    # without acting on the run.
    *section, name = key.split(".")
    entry = f"{name}: {value}" if not section else f"{section[0]}: {{{name}: {value}}}"
    config = _write(tmp_path, f"{{kernel: neg_abs, epsilon: [0.2, 0.1, 0.05, 0.02], {entry}}}")
    out = tmp_path / "s"
    assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_sweep_accepts_those_keys_at_their_defaults(tmp_path):
    text = (
        "{t_end: auto, grid: {dr: auto, r_max: auto},"
        " solver: {dt_max: auto, boundary_loss_tolerance: 1e-6, store_snapshots: auto}}"
    )
    cli._reject_sweep_ignored(cli.parse_config(_write(tmp_path, text)))


SWEEP_CONFIG = """
kernel: neg_abs
dimension: 1
epsilon: [0.1, 0.05, 0.02, 0.01]
initial: {type: gaussian, mass: 1.0, width: 0.25}
grid: {dr_divisor: 8.0}      # coarse policy for speed; slack loosened to match
solver: {record_samples: 100}
analysis: {slack: 0.02}
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


def test_zero_kernel_simulate_needs_numeric_t_end(tmp_path):
    config = _write(tmp_path, "{kernel: zero, epsilon: [0.1]}")
    assert cli.main(["simulate", "--config", str(config), "--out", str(tmp_path / "z")]) == 2


def test_missing_config_reports_error(tmp_path):
    assert cli.main(["simulate", "--config", str(tmp_path / "nope.yaml"), "--out", str(tmp_path)]) == 2
