"""The benchmark's traced child still runs a sweep through every layer hook,
and its outputs still pass the benchmark's checks.

``perfbench/layers.py`` patches aggdiff functions by name from outside
``src/``; a renamed or re-signed function would break ``--trace`` runs,
which no other test makes. Each test runs a workload's seed-0 config and
checks its outputs against ``perfbench/reference/seed0.json``, so an
output drift fails here before the benchmark runs, and tracing is shown to
leave the outputs unchanged. These tests only read ``perfbench/``.
"""

import json
import subprocess
import sys
from pathlib import Path

import yaml

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _traced_sweep(tmp_path, name):
    # The traced child's report and the outputs that ``checks.collect``
    # reads, after asserting that ``checks.check`` finds no problem in them.
    config = workloads.make_config(name, 0)
    config_path = tmp_path / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))
    report_path, out = tmp_path / "report.json", tmp_path / "sweep"
    command = [
        sys.executable, str(PERFBENCH / "child.py"), str(report_path), "--trace", "--",
        "sweep", "--config", str(config_path), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    report = json.loads(report_path.read_text())
    assert done.returncode == report["exit"], done.stderr
    # setup_s ends at the child's one-shot hook on solver.advance.
    assert report["first_step_at"] is not None
    assert report["first_step_at"] < report["end_at"]
    # The tracer files each step under one of three dt limits. The record
    # grid sets one step per record: 200 in each of the sweep's four rows.
    metrics = report["layers"]
    limits = ("cfl", "positivity", "cap")
    assert sum(metrics[f"solver.dt_limit.{name}"] for name in limits) == metrics["solver.advance.calls"]
    assert metrics["solver.dt_limit.cap"] == 4 * 200
    outputs = checks.collect(out, done.returncode, done.stdout)
    reference = json.loads((PERFBENCH / "reference" / "seed0.json").read_text())[name]
    assert checks.check(name, config, outputs, reference)["problems"] == []
    return report, outputs


def test_traced_child_reports_every_layer_and_the_verdicts_exit_code(tmp_path):
    report, _ = _traced_sweep(tmp_path, "sweep_1d")
    instrumentation = layers.Instrumentation(tracer.Tracer())
    assert set(instrumentation.metrics()) <= set(report["layers"])
    assert report["layers"]["solver.run.calls"] == 4
    assert report["layers"]["analysis.trajectory_checks.s"] > 0.0


def test_traced_2d_child_reports_the_drift_build_of_each_grid(tmp_path):
    # The tracer reads ``grid.n`` and ``quadrature_order`` from whatever
    # ``build_interaction_matrix`` returns; in 2-D that is the neg_abs
    # operator of each grid, which holds only its rim row.
    report, outputs = _traced_sweep(tmp_path, "sweep_2d")
    metrics = report["layers"]
    assert metrics["solver.run.calls"] == metrics["drift.build_interaction_matrix.calls"] == 4
    assert metrics["drift.quadrature_order"] == 0
    largest = max(outputs["sweep.csv"]["n_cells"])
    assert metrics["drift.matrix_mb"] == 8.0 * largest * largest / 1e6
