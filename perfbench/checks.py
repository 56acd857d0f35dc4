"""Correctness checks on the outputs of one workload execution.

``collect`` reads what ``aggdiff sweep`` left behind into plain data;
``check`` returns the list of problems found (empty when the execution
is correct) and the largest relative gap from the stored reference.

Seed-independent invariants, checked on every execution:

* the exit status is 0 if every verdict passes, else 1;
* the verdict table is complete: the expected names, in order;
* every value in ``sweep.csv`` is finite, whatever the verdicts say;
* mass bookkeeping holds to MASS_TOL in every row.

With a stored reference for the seed, the exit status and the verdict
table (name plus PASS/FAIL) must equal it, and every value in
``sweep.csv`` must lie within REL_TOL of it. The roundoff-level defect
columns are left out of that comparison; the mass invariant covers them.
"""

from __future__ import annotations

import re
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

REL_TOL = 1e-6
MASS_TOL = 1e-6
ROUNDOFF_COLUMNS = ("mass_error", "boundary_loss")

_VERDICT_LINE = re.compile(r"^(PASS|FAIL)  (\S+)\s+margin=(\S+)  (.*)$")


def parse_verdicts(stdout: str) -> list:
    """[status, name] for each verdict line, in order."""
    return [list(m.groups()[:2]) for m in map(_VERDICT_LINE.match, stdout.splitlines()) if m]


def read_csv(path) -> dict:
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = [[float(x) for x in line.split(",")] for line in fh if line.strip()]
    data = np.array(rows, dtype=np.float64).reshape(len(rows), len(names))
    return {name: data[:, i].tolist() for i, name in enumerate(names)}


def collect(outdir, exit_code: int, stdout: str) -> dict:
    """Exit status, verdict table and ``sweep.csv`` of one execution."""
    path = Path(outdir) / "sweep.csv"
    return {
        "exit_code": exit_code,
        "verdicts": parse_verdicts(stdout),
        "sweep.csv": read_csv(path) if path.exists() else None,
    }


def _invariants(name: str, config: dict, outputs: dict) -> list:
    problems = []
    names = tuple(v[1] for v in outputs["verdicts"])
    if names != WORKLOADS[name].verdicts:
        problems.append(f"verdict table {names} is not the expected {WORKLOADS[name].verdicts}")
    all_pass = all(v[0] == "PASS" for v in outputs["verdicts"])
    if outputs["exit_code"] != (0 if all_pass else 1):
        problems.append(f"exit status {outputs['exit_code']} does not match the verdicts")
    if outputs["sweep.csv"] is None:
        return problems + ["sweep.csv missing"]
    cols = {key: np.asarray(values, dtype=np.float64) for key, values in outputs["sweep.csv"].items()}
    for key, values in cols.items():
        if key == "sup_h1" and config["dimension"] != 1:
            continue  # written as nan by design: no H^1 series outside N = 1
        if not np.all(np.isfinite(values)):
            problems.append(f"sweep.csv: non-finite value in column {key}")
    defect = float(np.max(cols["mass_error"]))
    if not defect <= MASS_TOL:
        problems.append(f"mass bookkeeping defect {defect!r} > {MASS_TOL}")
    return problems


def _compare(outputs: dict, reference: dict) -> tuple:
    problems = []
    if outputs["exit_code"] != reference["exit_code"]:
        problems.append(f"exit status {outputs['exit_code']} != reference {reference['exit_code']}")
    if outputs["verdicts"] != reference["verdicts"]:
        problems.append("verdict table differs from the reference")
    gap, compared = 0.0, 0
    cols = outputs["sweep.csv"] or {}
    for key, ref_values in reference["sweep.csv"].items():
        if key in ROUNDOFF_COLUMNS:
            continue
        got = np.asarray(cols.get(key, []), dtype=np.float64)
        ref = np.asarray(ref_values, dtype=np.float64)
        if got.shape != ref.shape:
            problems.append(f"sweep.csv:{key} has {got.size} values, reference {ref.size}")
            continue
        both_nan = np.isnan(got) & np.isnan(ref)
        diff = np.where(both_nan, 0.0, np.abs(got - ref))
        scale = np.abs(ref)
        rel = np.where(diff == 0.0, 0.0, diff / np.where(scale > 0.0, scale, 1e-300))
        rel = np.where(np.isnan(rel), np.inf, rel)
        compared += ref.size
        gap = max(gap, float(np.max(rel)))
    if gap > REL_TOL:
        problems.append(f"sweep.csv differs from the reference by {gap:.3g} > {REL_TOL}")
    return problems, gap, compared


def check(name: str, config: dict, outputs: dict, reference) -> dict:
    """Problems found (empty if correct) and the reference gap of one execution."""
    problems = _invariants(name, config, outputs)
    gap, compared = 0.0, 0
    if reference is not None:
        more, gap, compared = _compare(outputs, reference)
        problems += more
    return {"problems": problems, "ref_rel_gap": gap, "ref_values": compared}
