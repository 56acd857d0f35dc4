"""The benchmark's traced child still runs a sweep through every layer hook.

``perfbench/layers.py`` patches aggdiff functions by name from outside
``src/``; a renamed or re-signed function would break ``--trace`` runs,
which no other test makes. This test only reads ``perfbench/``.
"""

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


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_child_reports_every_layer_and_the_verdicts_exit_code(tmp_path):
    config = tmp_path / "config.yaml"
    config.write_text(CONFIG)
    report_path, out = tmp_path / "report.json", tmp_path / "sweep"
    command = [
        sys.executable, str(PERFBENCH / "child.py"), str(report_path), "--trace", "--",
        "sweep", "--config", str(config), "--out", str(out),
    ]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=600)
    report = json.loads(report_path.read_text())

    instrumentation = _perfbench_module("layers").Instrumentation(_perfbench_module("tracer").Tracer())
    assert set(instrumentation.metrics()) <= set(report["layers"])
    assert report["layers"]["solver.run.calls"] == 4
    assert report["layers"]["analysis.trajectory_checks.s"] > 0.0

    verdicts = (out / "verdicts.txt").read_text().splitlines()
    assert len(verdicts) == 16
    expected = 0 if all(line.startswith("PASS") for line in verdicts) else 1
    assert done.returncode == report["exit"] == expected, done.stderr
