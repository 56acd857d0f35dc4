"""Configuration parsing, run orchestration, and plot-ready output files.

All outputs are plain CSV/JSON/YAML with floats at 17 significant digits,
so identical invocations produce byte-identical files (no RNG is used
anywhere, and no timestamps are written); ``write_csv`` writes every
table and ``read_csv_columns`` reads it back. Subcommands:

    aggdiff simulate --config F --out D
    aggdiff sweep    --config F --out D [--jobs K]
    aggdiff check    --traj D
    aggdiff baseline --config F --out D

Every verdict is built in ``analysis`` by ``Verdict.bound``, which passes
a value only when its margin to the limit is finite and >= 0: ``simulate``
and ``check`` write ``analysis.run_verdicts`` of the run, ``sweep`` the
verdicts of ``analysis.epsilon_sweep``, and ``baseline`` one
``heat_norm_p*`` verdict per norm. ``write_verdicts`` writes them and
returns the exit code: 0 iff every verdict passes; a bad config, input
file or run directory, a grid too large to allocate, or a run that fails
exits 2 with one ``error:`` line. A run directory is bad, among other
ways, when its ``run.json`` holds no constants for a kernel other than
zero (its verdicts would be partial), a ``trajectory.csv`` series
column names no exponent, a table cell is not a number, or
``snapshots.csv`` does not match ``trajectory.csv`` and the grid. A
config key that the command does not read (``_READERS``), or a grid key
that a numeric ``grid.dr`` makes moot, must keep its default. The sweep
worker count is ``--jobs`` if given, else the config's ``sweep.jobs``.
Every command that runs the solver runs it through ``analysis.run_case`` with
the settings of ``run_settings``; the one-run commands take constants,
scale and t_end from ``_resolve_run``. The step fraction ``solver.CFL``
and the analysis constants (rim-loss tolerance, moment slack, safety
factor, ball factor) are not config keys; ``run.json`` and ``sweep.json``
echo the ones they use. The sweep calibrates the barrier coefficients
itself (``analysis.epsilon_sweep``), so no coefficient is a config key
either.
"""

from __future__ import annotations

import argparse
import copy
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np
import yaml

from . import analysis, grid as gridmod, kernels, solver

MANIFEST_NAME = "manifest.json"
RESOLVED_NAME = "config.resolved"


class ConfigError(ValueError):
    pass


_RUN = analysis.RunSettings()
DEFAULTS = {
    "kernel": "neg_abs",
    "kernel_table": None,
    "dimension": 1,
    "epsilon": [0.1],
    "initial": {
        "type": "gaussian",
        "mass": 1.0,
        "width": 0.25,
        "r_inner": 0.0,
        "r_outer": 1.0,
        "path": None,
    },
    "scale": "auto",
    "t_end": "auto",
    "grid": {"dr": "auto", "dr_max": _RUN.dr_max, "dr_divisor": _RUN.dr_divisor, "r_max": "auto"},
    "solver": {"record_samples": _RUN.record_samples, "dt_max": "auto", "store_snapshots": False},
    # No analysis key is left; the empty section refuses each retired one by name.
    "analysis": {},
    "sweep": {"jobs": 1},
}

_KERNEL_NAMES = ("neg_abs", "exponential", "zero", "tabulated")
_INITIAL_TYPES = ("gaussian", "annulus", "tabulated")

# The commands, kernels and initial types (None: every one) under which a
# run reads each key that not every run reads; every other key is read by
# every command. Off those, a key must keep its default.
_READERS = {
    "kernel_table": (None, ("tabulated",), None),
    "initial.width": (None, None, ("gaussian",)),
    "initial.r_inner": (None, None, ("annulus",)),
    "initial.r_outer": (None, None, ("annulus",)),
    "initial.path": (None, None, ("tabulated",)),
    "scale": (("simulate", "sweep"), None, None),
    "t_end": (("simulate", "baseline"), None, None),  # each sweep row sets its own
    "solver.store_snapshots": (("simulate",), None, None),
    "sweep.jobs": (("sweep",), None, None),
}


def _merge_section(defaults, user, path):
    out = copy.deepcopy(defaults)
    for key, value in user.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {path}{key}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"{path}{key} must be a mapping")
            out[key] = _merge_section(defaults[key], value, f"{path}{key}.")
        else:
            out[key] = value
    return out


def _as_positive(value, name, allow_zero=False):
    """``value`` as a finite float > 0 (or >= 0 with ``allow_zero``); not a bool."""
    requirement = "a finite number >= 0" if allow_zero else "a positive number"
    error = ConfigError(f"{name} must be {requirement}")
    if isinstance(value, bool):
        raise error
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise error from None
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        raise error
    return value


def _as_int(value, name, low, high=None):
    """``value`` as an int in [low, high]: a finite, integral number, not a bool.

    Integral floats and numeric strings count (PyYAML reads 1e3 as a
    string), so 2.0 and 1e3 give 2 and 1000; 2.9, .inf and true do not.
    """
    requirement = f"an integer >= {low}" if high is None else f"an integer from {low} to {high}"
    error = ConfigError(f"{name} must be {requirement}")
    if isinstance(value, bool):
        raise error
    if not isinstance(value, int):
        try:
            number = float(value)
        except (TypeError, ValueError):
            raise error from None
        if not number.is_integer():
            raise error
        value = int(number)
    if value < low or (high is not None and value > high):
        raise error
    return value


def _auto_or_positive(value, name):
    if value == "auto":
        return "auto"
    return _as_positive(value, name)


def parse_config(path, command=None) -> dict:
    """Load a YAML/JSON config, fill defaults, and validate every key; with
    a ``command``, refuse a key off its default that the run does not read."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            user = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            detail = " ".join(str(exc).split())
            raise ConfigError(f"config file {path} is not valid YAML: {detail}") from None
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError("config root must be a mapping")
    cfg = _merge_section(DEFAULTS, user, "")

    if cfg["kernel"] not in _KERNEL_NAMES:
        raise ConfigError(f"kernel must be one of {_KERNEL_NAMES}")
    if cfg["kernel"] == "tabulated" and not cfg["kernel_table"]:
        raise ConfigError("tabulated kernel requires kernel_table: <path>")
    cfg["dimension"] = _as_int(cfg["dimension"], "dimension", 1, 3)
    eps = cfg["epsilon"]
    if not isinstance(eps, (list, tuple)):
        eps = [eps]
    cfg["epsilon"] = [_as_positive(e, "epsilon") for e in eps]

    init = cfg["initial"]
    if init["type"] not in _INITIAL_TYPES:
        raise ConfigError(f"initial.type must be one of {_INITIAL_TYPES}")
    init["mass"] = _as_positive(init["mass"], "initial.mass")
    if init["type"] == "gaussian":
        init["width"] = _as_positive(init["width"], "initial.width")
    if init["type"] == "annulus":
        init["r_outer"] = _as_positive(init["r_outer"], "initial.r_outer")
        init["r_inner"] = _as_positive(init["r_inner"], "initial.r_inner", allow_zero=True)
        if not init["r_inner"] < init["r_outer"]:
            raise ConfigError("initial annulus needs 0 <= r_inner < r_outer")
    if init["type"] == "tabulated" and not init["path"]:
        raise ConfigError("tabulated initial data requires initial.path")

    cfg["scale"] = _auto_or_positive(cfg["scale"], "scale")
    cfg["t_end"] = _auto_or_positive(cfg["t_end"], "t_end")
    g = cfg["grid"]
    g["dr"] = _auto_or_positive(g["dr"], "grid.dr")
    g["dr_max"] = _as_positive(g["dr_max"], "grid.dr_max")
    g["dr_divisor"] = _as_positive(g["dr_divisor"], "grid.dr_divisor")
    if g["dr_divisor"] < 8.0:
        raise ConfigError("grid.dr_divisor must be >= 8 (dr <= epsilon/8)")
    g["r_max"] = _auto_or_positive(g["r_max"], "grid.r_max")
    s = cfg["solver"]
    s["record_samples"] = _as_int(s["record_samples"], "solver.record_samples", 2)
    s["dt_max"] = _auto_or_positive(s["dt_max"], "solver.dt_max")
    if not isinstance(s["store_snapshots"], bool):
        raise ConfigError("solver.store_snapshots must be true or false")
    cfg["sweep"]["jobs"] = _as_int(cfg["sweep"]["jobs"], "sweep.jobs", 1)
    if command is not None:
        _refuse_unread(cfg, command)
    return cfg


def _refuse_unread(cfg, command) -> None:
    """Raise ConfigError naming a key off its default that ``command`` does
    not read under the config's kernel and initial type (``_READERS``), or
    a grid key that a numeric ``grid.dr`` makes moot."""
    run = (command, cfg["kernel"], cfg["initial"]["type"])
    for name, readers in _READERS.items():
        if all(allowed is None or have in allowed for have, allowed in zip(run, readers)):
            continue
        *section, key = name.split(".")
        value, default = cfg, DEFAULTS
        for part in section:
            value, default = value[part], default[part]
        if value[key] != default[key]:
            raise ConfigError(
                f"{name} is not read by {command} with kernel {run[1]} and initial type {run[2]}; remove it"
            )
    # plan_grid reads dr_max and dr_divisor only to choose an automatic dr.
    grid = cfg["grid"]
    for key in ("dr_max", "dr_divisor"):
        if grid["dr"] != "auto" and grid[key] != DEFAULTS["grid"][key]:
            raise ConfigError(f"grid.{key} is not read by {command} with a numeric grid.dr; remove it")


def _auto(value):
    """None for "auto", else the value."""
    return None if value == "auto" else value


def run_settings(cfg) -> analysis.RunSettings:
    """The per-run ``grid`` and ``solver`` keys of a parsed config."""
    g, s = cfg["grid"], cfg["solver"]
    return analysis.RunSettings(
        dr_max=g["dr_max"],
        dr_divisor=g["dr_divisor"],
        record_samples=s["record_samples"],
        dr=_auto(g["dr"]),
        r_max=_auto(g["r_max"]),
        dt_max=_auto(s["dt_max"]),
    )


def kernel_from_config(cfg) -> kernels.KernelSpec:
    name = cfg["kernel"]
    if name == "neg_abs":
        return kernels.neg_abs_kernel()
    if name == "exponential":
        return kernels.exponential_kernel()
    if name == "zero":
        return kernels.zero_kernel()
    return kernels.load_tabulated_kernel(cfg["kernel_table"])


def init_from_config(cfg):
    init = cfg["initial"]
    if init["type"] == "gaussian":
        return gridmod.GaussianBump(init["mass"], init["width"])
    if init["type"] == "annulus":
        return gridmod.AnnulusBump(init["mass"], init["r_inner"], init["r_outer"])
    return gridmod.TabulatedProfile.from_file(init["path"], init["mass"])


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x) -> str:
    return f"{float(x):.17g}"


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        value = float(obj)
        return "inf" if math.isinf(value) else value
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    return obj


def _write_json(payload, path):
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")


def write_csv(names, rows, path) -> None:
    """A header of ``names``, then one line per row, each value ``_fmt``-ed."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for row in rows:
            fh.write(",".join(map(_fmt, row)) + "\n")


def read_csv_columns(path) -> dict:
    """Each column of a ``write_csv`` table by name; ValueError naming the
    file and line of a row of the wrong length or a cell that is no number."""
    with open(path) as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        body = [(k, line.strip().split(",")) for k, line in enumerate(fh, 2) if line.strip()]
    data = np.empty((len(body), len(names)))
    for row, (k, cells) in zip(data, body):
        if len(cells) != len(names):
            raise ValueError(f"{path}: line {k} has {len(cells)} cells, the header {len(names)}")
        try:
            row[:] = cells
        except ValueError as exc:
            raise ValueError(f"{path}: line {k}: {exc}") from None
    return {name: data[:, i] for i, name in enumerate(names)}


def write_trajectory_csv(traj: solver.TrajectoryRecord, path) -> None:
    lp = {("lpinf" if p == math.inf else f"lp{p:g}"): traj.lp[p] for p in sorted(traj.lp)}
    table = {
        "t": traj.times, "mass": traj.mass, "truncated_moment": traj.truncated_moment,
        "concentration": traj.concentration, **lp, "outflow_cumulative": traj.outflow_cumulative,
    }
    if traj.h1 is not None:
        table["h1"] = traj.h1
    write_csv(list(table), zip(*table.values()), path)


def emit_run(traj, constants, outdir: Path) -> None:
    """Write ``trajectory.csv``, ``run.json`` and, with snapshots,
    ``snapshots.csv``: the stored cells' centres ``r``, then ``u<k>``,
    their densities at row k of ``trajectory.csv``, one line per cell."""
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    meta = {
        "dimension": traj.grid.dimension,
        "epsilon": traj.epsilon,
        "scale": traj.scale,
        "kernel": traj.kernel_name,
        "grid": {"dr": traj.grid.dr, "n": traj.grid.n},
        "initial_mass": traj.initial_mass,
        "clipped_cells": traj.clipped_cells,
        "full_grid_solves": traj.full_grid_solves,
        "boundary_loss_tolerance": analysis.BOUNDARY_LOSS_TOLERANCE,
        "slack": analysis.MOMENT_SLACK,
        "ball_factor": analysis.BALL_FACTOR,
        "constants": asdict(constants) if constants is not None else None,
        "has_snapshots": traj.snapshots is not None,
    }
    _write_json(meta, outdir / "run.json")
    if traj.snapshots is not None:
        cells = traj.grid.r_centers[: traj.snapshots.shape[1]]
        names = ["r"] + [f"u{k}" for k in range(len(traj.snapshots))]
        write_csv(names, np.column_stack([cells, traj.snapshots.T]).tolist(), outdir / "snapshots.csv")


def _run_value(meta, convert, *keys):
    """``convert`` of run.json's value at the nested ``keys``; KeyError if
    one is missing, TypeError naming them ("grid.dr") if it fails."""
    try:
        value = meta
        for key in keys:
            value = value[key]
        return convert(value)
    except (TypeError, ValueError):
        raise TypeError(".".join(keys)) from None


def load_run(outdir: Path):
    """(trajectory, constants, run.json) of an ``emit_run`` directory; an
    unreadable table or value raises naming its file."""
    with open(outdir / "run.json") as fh:
        meta = json.load(fh)
    cols = read_csv_columns(outdir / "trajectory.csv")
    lp = {}
    for name, values in cols.items():
        if name == "lpinf":
            lp[math.inf] = values
        elif name.startswith("lp"):
            try:
                lp[float(name[2:])] = values
            except ValueError:
                raise ValueError(f"{outdir / 'trajectory.csv'}: column {name!r} names no exponent") from None
    grid = gridmod.RadialGrid(
        _run_value(meta, int, "dimension"),
        _run_value(meta, float, "grid", "dr"),
        _run_value(meta, int, "grid", "n"),
    )
    snapshots = None
    if meta.get("has_snapshots"):
        path, n = outdir / "snapshots.csv", len(cols["t"])
        table = read_csv_columns(path)
        if list(table) != ["r"] + [f"u{k}" for k in range(n)]:
            raise ValueError(f"{path}: header is not r,u0..u{n - 1} for the {n} rows of trajectory.csv")
        r = table.pop("r")
        if not np.array_equal(r, grid.r_centers[: len(r)]):
            raise ValueError(f"{path}: column r is not a prefix of the grid's cell centres")
        snapshots = np.array(list(table.values())).reshape(n, len(r))
    traj = solver.TrajectoryRecord(
        grid=grid,
        epsilon=_run_value(meta, float, "epsilon"),
        scale=_run_value(meta, float, "scale"),
        kernel_name=meta["kernel"],
        times=cols["t"],
        mass=cols["mass"],
        truncated_moment=cols["truncated_moment"],
        concentration=cols["concentration"],
        outflow_cumulative=cols["outflow_cumulative"],
        lp=lp,
        h1=cols.get("h1"),
        snapshots=snapshots,
        clipped_cells=_run_value(meta, int, "clipped_cells"),
        full_grid_solves=_run_value(meta, int, "full_grid_solves"),
    )
    constants = None
    if meta.get("constants") is not None:
        try:
            constants = analysis.ConcentrationConstants(**meta["constants"])
        except TypeError as exc:
            raise ValueError(f"{outdir / 'run.json'}: constants: {exc}") from None
    elif traj.kernel_name != "zero":
        # simulate writes null constants only for the zero kernel.
        raise ValueError(f"{outdir / 'run.json'}: constants: missing for kernel {traj.kernel_name!r}")
    return traj, constants, meta


def write_verdicts(verdicts, path) -> int:
    """Write and print the verdict table; return 0 iff every verdict passes, else 1."""
    lines = [
        f"{'PASS' if v.passed else 'FAIL'}  {v.name:<28s} margin={v.margin:+.6g}  {v.detail}"
        for v in verdicts
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    for line in lines:
        print(line)
    return 0 if all(v.passed for v in verdicts) else 1


def start_output(args, cfg) -> Path:
    """Create the command's output directory with its manifest and resolved config."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    _write_json(
        {"command": args.command, "config_path": str(args.config), "output_dir": str(outdir), "seed_free": True},
        outdir / MANIFEST_NAME,
    )
    with open(outdir / RESOLVED_NAME, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True, default_flow_style=False)
    return outdir


def _resolve_run(cfg, kernel, init):
    """(constants, scale, t_end) of a one-run command; the zero kernel has no
    constants, its scale defaults to 10 support radii and t_end must be set."""
    if cfg["kernel"] == "zero":
        if cfg["t_end"] == "auto":
            raise ConfigError("t_end must be numeric for the zero kernel (no intrinsic horizon)")
        scale = cfg["scale"] if cfg["scale"] != "auto" else 10.0 * init.support_radius
        return None, scale, cfg["t_end"]
    constants = analysis.reference_constants(kernel, init, cfg["dimension"], _auto(cfg["scale"]))
    if cfg["t_end"] != "auto":
        return constants, constants.scale, cfg["t_end"]
    if not constants.admissible or not math.isfinite(constants.horizon):
        raise ConfigError("t_end: auto requires admissible data (no finite horizon available)")
    return constants, constants.scale, constants.horizon


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config, args.command)
    if len(cfg["epsilon"]) != 1:
        raise ConfigError("simulate expects exactly one epsilon; use sweep for several")
    epsilon = cfg["epsilon"][0]
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    constants, scale, t_end = _resolve_run(cfg, kernel, init)
    traj = analysis.run_case(
        kernel, init, cfg["dimension"], epsilon, scale, t_end, run_settings(cfg),
        snapshot_radius=math.inf if cfg["solver"]["store_snapshots"] else None,
    )
    outdir = start_output(args, cfg)
    emit_run(traj, constants, outdir)
    verdicts = analysis.run_verdicts(traj, constants)
    return write_verdicts(verdicts, outdir / "verdicts.txt")


def _sweep_jobs(cfg, args) -> int:
    if args.jobs is None:
        return cfg["sweep"]["jobs"]
    return _as_int(args.jobs, "--jobs", 1)


def sweep_report_payload(report) -> dict:
    return {
        "kernel": report.kernel_name,
        "dimension": report.dimension,
        "constants": asdict(report.constants),
        "ball_factor": analysis.BALL_FACTOR,
        "t_star": report.t_star,
        "rows": [asdict(row) for row in report.rows],
        "fitted_exponents": report.fitted_exponents,
        "fit_quality": report.fit_quality,
        "calibrated": report.calibrated,
        "verdicts": [asdict(v) for v in report.verdicts],
        "epsilon_star": report.epsilon_star,
    }


def write_sweep_csv(report, path) -> None:
    cols = [
        "epsilon", "dr", "n_cells", "sup_lp2", "sup_lpinf", "sup_h1",
        "mass_error", "boundary_loss", "moment_violations",
        "weighted_integral", "weighted_threshold", "weighted_ratio",
        "ball_mass_integral", "ball_p2_integral", "full_grid_solves",
    ]
    rows = [
        [
            row.epsilon, row.dr, row.n_cells, row.sup_lp[2.0], row.sup_lp[math.inf],
            row.sup_h1 if row.sup_h1 is not None else math.nan,
            row.mass_error, row.boundary_loss, row.moment_violations,
            row.weighted_integral, row.weighted_threshold, row.weighted_ratio,
            row.ball_mass_integral, row.ball_p2_integral, row.full_grid_solves,
        ]
        for row in report.rows
    ]
    write_csv(cols, rows, path)


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config, args.command)
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    settings = analysis.SweepSettings(
        dimension=cfg["dimension"],
        epsilons=tuple(cfg["epsilon"]),
        scale=_auto(cfg["scale"]),
        run=run_settings(cfg),
        jobs=_sweep_jobs(cfg, args),
    )
    report = analysis.epsilon_sweep(kernel, init, settings)
    outdir = start_output(args, cfg)
    _write_json(sweep_report_payload(report), outdir / "sweep.json")
    write_sweep_csv(report, outdir / "sweep.csv")
    return write_verdicts(report.verdicts, outdir / "verdicts.txt")


def cmd_check(args) -> int:
    outdir = Path(args.traj)
    try:
        traj, constants, _ = load_run(outdir)
    except KeyError as exc:
        raise ValueError(f"{outdir}: run.json or trajectory.csv has no {exc.args[0]!r}") from None
    except TypeError as exc:
        raise ValueError(f"{outdir}: run.json has no number at {exc.args[0]!r}") from None
    verdicts = analysis.run_verdicts(traj, constants)
    if traj.snapshots is not None and constants is not None:
        try:
            integral = analysis.ball_mass_integral(traj, min(constants.horizon, traj.times[-1]))
            print(f"INFO  ball_mass_integral           value={integral:.6g}")
        except ValueError as exc:
            print(f"INFO  ball_mass_integral           skipped: {exc}")
    return write_verdicts(verdicts, outdir / "verdicts.txt")


def cmd_baseline(args) -> int:
    cfg = parse_config(args.config, args.command)
    if cfg["kernel"] != "zero":
        raise ConfigError("baseline runs pure diffusion and requires kernel: zero")
    if cfg["initial"]["type"] != "gaussian":
        raise ConfigError("baseline requires gaussian initial data (closed-form reference)")
    if cfg["solver"]["dt_max"] == "auto":
        raise ConfigError("baseline requires a numeric solver.dt_max: backward Euler is first order in time")
    if len(cfg["epsilon"]) != 1:
        raise ConfigError("baseline expects exactly one epsilon")
    epsilon = cfg["epsilon"][0]
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    _, scale, t_end = _resolve_run(cfg, kernel, init)
    traj = analysis.run_case(
        kernel, init, cfg["dimension"], epsilon, scale, t_end, run_settings(cfg),
    )
    # A gaussian of this width is the spreading profile at offset time t0,
    # so the exact reference at clock time t is the profile at t + t0.
    t0 = init.width ** 2 / (2.0 * epsilon)
    t_eff = t_end + t0
    mass0 = traj.initial_mass
    verdicts = []
    results = {}
    for p in (1.0, 2.0, math.inf):
        expected = analysis.heat_kernel_norm(epsilon, t_eff, p, mass0, cfg["dimension"])
        got = float(traj.lp[p][-1])
        rel = abs(got - expected) / expected
        key = "inf" if p == math.inf else f"{p:g}"
        results[key] = {"computed": got, "expected": expected, "rel_error": rel}
        verdicts.append(analysis.Verdict.bound(
            f"heat_norm_p{key}", rel, 0.01, f"computed {got:.6g} vs exact {expected:.6g} (rel {rel:.2e})",
        ))
    outdir = start_output(args, cfg)
    _write_json(
        {"epsilon": epsilon, "t_end": t_end, "t_offset": t0, "norms": results},
        outdir / "baseline.json",
    )
    return write_verdicts(verdicts, outdir / "verdicts.txt")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="aggdiff",
        description="Radially symmetric aggregation-diffusion solver and verification harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one trajectory and its checks")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="run the diffusivity sweep battery")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--jobs", type=int, default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser("check", help="re-verify a persisted trajectory")
    p_check.add_argument("--traj", required=True)
    p_check.set_defaults(func=cmd_check)

    p_base = sub.add_parser("baseline", help="zero-kernel run against the exact heat profile")
    p_base.add_argument("--config", required=True)
    p_base.add_argument("--out", required=True)
    p_base.set_defaults(func=cmd_baseline)

    args = parser.parse_args(argv)
    # Every failure a run raises on purpose is a RuntimeError. Its checks
    # name each non-finite state, so NumPy's warnings would only repeat them.
    try:
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OSError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
