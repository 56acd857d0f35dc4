"""aggdiff verdict-pipeline benchmark.

usage: python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Each workload is one real ``aggdiff
sweep`` command (see ``workloads.py``) on one job, in its own Python
process started from this one. An execution of a workload is repeated,
one at a time, until ``--seconds`` are used up (at least MIN_REPS times),
and every execution's outputs are checked (``checks.py``).

``--trace 0`` reports the end-to-end metrics, medians over executions:

* ``wall_s``: launch of the command to its exit;
* ``setup_s``: launch to the first ``solver.advance`` call (imports,
  config parsing, constants, grid, initial data and the first drift
  build);
* ``peak_rss_mb``: the peak resident set of the command.

``--trace 1`` also runs the command once with every layer boundary
traced (``layers.py``) and reports the per-layer metrics of that pass,
with ``trace.overhead_s`` = traced wall minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Per-run details,
the machine block and the generated config go to
``.perfbench_out/results/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

import yaml

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import machine  # noqa: E402
from workloads import WORKLOADS, command_args, make_config  # noqa: E402

OUT_DIR = ".perfbench_out"
MIN_REPS = 3
HARD_LIMIT_S = 150.0  # never start an execution expected to end later than this
COMMAND_TIMEOUT_S = 160.0
REFERENCE_DIR = HERE / "reference"

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("AGGDIFF_WORKERS", None)  # it would override the single sweep job
    return env


def launch(root: Path, report: Path, cli_args: list, log: Path, traced: bool) -> dict:
    """An aggdiff command in a child process: wall, set-up, peak RSS, exit."""
    cmd = [sys.executable, str(HERE / "child.py"), str(report)] + (["--trace"] if traced else [])
    cmd += ["--"] + cli_args
    with open(log, "w") as out:
        started = perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(COMMAND_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        ended = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    info = json.loads(report.read_text()) if report.exists() else {}
    first_step = info.get("first_step_at")
    return {
        "exit": proc.returncode,
        "wall_s": ended - started,
        "traced_wall_s": info.get("end_at", ended) - started,
        "setup_s": None if first_step is None else first_step - started,
        "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6,
        "stdout": log.read_text(),
        "layers": info.get("layers"),
        "root_s": info.get("root_s", 0.0),
    }


def run_once(root: Path, config_path: Path, workdir: Path, traced: bool) -> tuple:
    """Run the workload's command once; return the launch and its outputs."""
    outdir = workdir / "out"
    shutil.rmtree(outdir, ignore_errors=True)
    report = workdir / "cmd.json"
    report.unlink(missing_ok=True)
    part = launch(root, report, command_args(str(config_path), str(outdir)), workdir / "cmd.log", traced)
    outputs = checks.collect(outdir, part["exit"], part["stdout"])
    shutil.rmtree(outdir, ignore_errors=True)
    return part, outputs


def execute(root: Path, name: str, config: dict, reference, config_path: Path, workdir: Path,
            traced: bool) -> dict:
    """Run a workload once and check its outputs."""
    part, outputs = run_once(root, config_path, workdir, traced)
    verdict = checks.check(name, config, outputs, reference)
    sample = {
        "wall_s": part["wall_s"],
        "setup_s": part["setup_s"],
        "peak_rss_mb": part["peak_rss_mb"],
        "exit_code": part["exit"],
        "problems": verdict["problems"],
        "ref_rel_gap": verdict["ref_rel_gap"],
        "ref_values": verdict["ref_values"],
    }
    if sample["setup_s"] is None:
        sample["problems"].append("the command never called solver.advance")
    if traced:
        sample["traced_wall_s"] = part["traced_wall_s"]
        sample["layers"] = part["layers"] or {}
        sample["root_s"] = part["root_s"]
    return sample


def load_reference(seed: int, name: str):
    path = REFERENCE_DIR / f"seed{seed}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text()).get(name)


def prepare(root: Path, name: str, seed: int, tag: str) -> tuple:
    """A fresh work directory holding the generated config of a workload."""
    workdir = root / OUT_DIR / f"{name}-seed{seed}-{tag}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    config = make_config(name, seed)
    config_path = workdir / "config.yaml"
    config_path.write_text(yaml.safe_dump(config, sort_keys=True))
    return workdir, config, config_path


def run_workload(root: Path, name: str, seed: int, seconds: float, trace: bool) -> dict:
    workdir, config, config_path = prepare(root, name, seed, f"trace{int(trace)}")
    reference = load_reference(seed, name)

    began = perf_counter()
    traced = execute(root, name, config, reference, config_path, workdir, True) if trace else None
    samples = []
    while True:
        samples.append(execute(root, name, config, reference, config_path, workdir, False))
        elapsed = perf_counter() - began
        mean = elapsed / (len(samples) + (1 if trace else 0))
        if elapsed + mean > HARD_LIMIT_S:
            break
        if len(samples) >= (1 if trace else MIN_REPS) and elapsed + mean > seconds:
            break

    executed = samples + ([traced] if traced else [])
    failed = sum(1 for s in executed if s["problems"])
    ok = [s for s in samples if not s["problems"]] or samples
    metrics = {}
    if trace:
        layer = dict(traced["layers"])
        wall = traced["traced_wall_s"]
        layer["analysis.ref_rel_gap"] = traced["ref_rel_gap"]
        layer["analysis.ref_values"] = traced["ref_values"]
        layer["trace.wall_s"] = wall
        layer["trace.unattributed_s"] = wall - traced["root_s"]
        layer["trace.overhead_s"] = wall - statistics.median(s["wall_s"] for s in ok)
        metrics = {key: {"value": layer.get(key, 0), "unit": unit} for key, unit in layers.UNITS.items()}
    else:
        for key, unit in END_TO_END.items():
            values = [s[key] for s in ok if s[key] is not None]
            metrics[key] = {"value": statistics.median(values) if values else 0.0, "unit": unit}

    result = {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "seconds": seconds,
        "config": config,
        "reference": reference is not None,
        "machine": machine.describe(root / "src"),
        "samples": samples,
        "traced": traced,
        "correct": failed == 0,
        "attempted": len(executed),
        "failed": failed,
        "metrics": metrics,
    }
    results = root / OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(result, indent=1))
    return result


def print_result(result: dict) -> None:
    name = result["workload"]
    for key, metric in result["metrics"].items():
        print(f"{name}  {key} = {metric['value']:.6g} {metric['unit']}")
    print(f"{name}  failed/attempted = {result['failed']}/{result['attempted']}")
    for sample in result["samples"] + ([result["traced"]] if result["traced"] else []):
        for problem in sample["problems"]:
            print(f"{name}  FAILED CHECK: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "aggdiff" / "cli.py").is_file():
        print(f"error: {root} holds no aggdiff source tree (src/aggdiff); run from a checkout root",
              file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = [run_workload(root, n, args.seed, args.seconds, bool(args.trace)) for n in names]
    for result in results:
        print_result(result)
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
