"""The benchmark's traced child still runs a sweep through every layer hook.

``perfbench/layers.py`` patches aggdiff functions by name from outside
``src/``; a renamed or re-signed function would break ``--trace`` runs,
which no other test makes. These tests only read ``perfbench/``.
"""

import csv
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

# The 1-D benchmark ladder: every verdict passes, in about a second.
CONFIG = """
kernel: neg_abs
dimension: 1
epsilon: [0.2, 0.1, 0.05, 0.02]
initial: {type: gaussian, mass: 1.5, width: 0.25}
grid: {dr_divisor: 14, dr_max: 0.01}
"""

# The 2-D benchmark ladder with dr capped at 0.05 instead of 0.01: grids
# of 601 to 1898 cells, every verdict passes, in about two seconds.
CONFIG_2D = """
kernel: neg_abs
dimension: 2
epsilon: [0.2, 0.1, 0.05, 0.02]
initial: {type: gaussian, mass: 1.5, width: 0.25}
grid: {dr_divisor: 8, dr_max: 0.05}
"""


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _traced_sweep(tmp_path, config_text):
    # (exit code, report, verdict lines, sweep.csv rows) of one traced child.
    config = tmp_path / "config.yaml"
    config.write_text(config_text)
    report_path, out = tmp_path / "report.json", tmp_path / "sweep"
    command = [
        sys.executable, str(PERFBENCH / "child.py"), str(report_path), "--trace", "--",
        "sweep", "--config", str(config), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    report = json.loads(report_path.read_text())
    assert done.returncode == report["exit"], done.stderr
    with open(out / "sweep.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    return done.returncode, report, (out / "verdicts.txt").read_text().splitlines(), rows


def _verdicts_exit_code(verdicts):
    return 0 if all(line.startswith("PASS") for line in verdicts) else 1


def test_traced_child_reports_every_layer_and_the_verdicts_exit_code(tmp_path):
    code, report, verdicts, _ = _traced_sweep(tmp_path, CONFIG)
    instrumentation = _perfbench_module("layers").Instrumentation(_perfbench_module("tracer").Tracer())
    assert set(instrumentation.metrics()) <= set(report["layers"])
    assert report["layers"]["solver.run.calls"] == 4
    assert report["layers"]["analysis.trajectory_checks.s"] > 0.0
    assert len(verdicts) == 16
    assert code == _verdicts_exit_code(verdicts)


def test_traced_2d_child_reports_the_drift_build_of_each_grid(tmp_path):
    # The tracer reads ``grid.n`` and ``quadrature_order`` from whatever
    # ``build_interaction_matrix`` returns; in 2-D that is the neg_abs
    # operator of each grid, which holds only its rim row.
    code, report, verdicts, rows = _traced_sweep(tmp_path, CONFIG_2D)
    layers = report["layers"]
    assert layers["solver.run.calls"] == layers["drift.build_interaction_matrix.calls"] == 4
    assert layers["drift.quadrature_order"] == 0
    largest = max(int(row["n_cells"]) for row in rows)
    assert layers["drift.matrix_mb"] == 8.0 * largest * largest / 1e6
    assert len(verdicts) == 15
    assert code == _verdicts_exit_code(verdicts)
