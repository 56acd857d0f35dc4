"""Run-to-run spread of the benchmark over several seeds.

usage: python3 perfbench/spread.py --seeds 0-9 [--workload NAME ...] [--trace 0|1] [--out FILE]

Run from the root of a checkout. Runs ``perfbench/run.py`` once per
workload and seed, one run at a time, with the ``run_seconds`` of
BENCHMARK.json, and prints for each end-to-end metric the median, the
quartiles (``statistics.quantiles(n=4)``) and the interquartile distance
as a share of the median, next to a third of the metric's bound. With
``--out`` it also writes every run's result line, the summary and the
machine block to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import machine
from workloads import WORKLOADS


def seed_list(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    root = Path.cwd()
    bench = json.loads((root / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs, summary = [], {}
    for name in args.workload or list(WORKLOADS):
        values = {}
        for seed in seed_list(args.seeds):
            cmd = bench["command"] + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace),
            ]
            proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, check=False)
            line = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append({"workload": name, "seed": seed, "exit": proc.returncode, "result": line})
            print(f"{name} seed {seed}: correct={line['correct']} "
                  f"failed/attempted={line['failed']}/{line['attempted']} "
                  + " ".join(f"{k}={line['metrics'][k]['value']:.5g}" for k in bounds
                             if k in line["metrics"]),
                  flush=True)
            for key, metric in line["metrics"].items():
                values.setdefault(key, []).append(metric["value"])
        summary[name] = {}
        for key, series in values.items():
            if len(series) < 2:
                continue
            q1, median, q3 = statistics.quantiles(series, n=4)
            share = (q3 - q1) / median if median else 0.0
            summary[name][key] = {"median": median, "q1": q1, "q3": q3, "iqr_share": share}
            if key in bounds:
                flag = "ok" if share < bounds[key] / 3 else "WIDE"
                print(f"  {name} {key}: median {median:.5g} IQR/median {share:.4f} "
                      f"(bound/3 {bounds[key] / 3:.4f}) {flag}")
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"machine": machine.describe(root / "src"), "run_seconds": bench["run_seconds"],
             "trace": args.trace, "summary": summary, "runs": runs},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
