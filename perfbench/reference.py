"""Store the reference outputs of the workloads for some seeds.

usage: python3 perfbench/reference.py SEED [SEED ...]

Run from the root of a checkout. Runs each workload once per seed and
writes its exit status, verdict table and ``sweep.csv`` to
``perfbench/reference/seed<SEED>.json``, which ``run.py`` compares every
later execution with. An execution that breaks a seed-independent
invariant is refused, not stored.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import checks
from run import REFERENCE_DIR, prepare, run_once
from workloads import WORKLOADS


def main(argv) -> int:
    root = Path.cwd()
    REFERENCE_DIR.mkdir(exist_ok=True)
    for seed in (int(s) for s in argv):
        stored = {}
        for name in WORKLOADS:
            workdir, config, config_path = prepare(root, name, seed, "reference")
            _, outputs = run_once(root, config_path, workdir, False)
            problems = checks.check(name, config, outputs, None)["problems"]
            if problems:
                print(f"seed {seed} {name}: not stored: {problems}", file=sys.stderr)
                return 1
            stored[name] = outputs
            print(f"seed {seed} {name}: exit {outputs['exit_code']}")
        path = REFERENCE_DIR / f"seed{seed}.json"
        path.write_text(json.dumps(stored, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
