"""Configuration parsing, run orchestration, and plot-ready output files.

All outputs are plain CSV/JSON/YAML with floats at 17 significant digits,
so identical invocations produce byte-identical files (no RNG is used
anywhere, and no timestamps are written). Subcommands:

    aggdiff simulate  --config F --out D
    aggdiff sweep     --config F --out D [--jobs K]
    aggdiff check     --traj D
    aggdiff baseline  --config F --out D
    aggdiff calibrate --config F --out D

Exit code 0 iff every verdict passes. The sweep worker count is
``--jobs`` if given, else the config's ``sweep.jobs``. Every command that
runs the solver runs it through ``analysis.run_case`` with the settings of
``run_settings``.
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
    "grid": {"dr": "auto", "dr_max": 0.005, "dr_divisor": 16.0, "r_max": "auto"},
    "solver": {
        "cfl": 0.5,
        "diffusion_mode": "implicit",
        "record_samples": 200,
        "boundary_loss_tolerance": 1.0e-6,
        "dt_max": "auto",
        "store_snapshots": "auto",
    },
    "analysis": {
        "slack": 0.01,
        "ball_factor": 0.5,
        "t_star": "auto",
        "h1_coefficient": None,
        "safety_factor": 1.5,
        "scan_objective": "level_per_time",
    },
    "sweep": {"jobs": 1},
}

_KERNEL_NAMES = ("neg_abs", "exponential", "zero", "tabulated")
_INITIAL_TYPES = ("gaussian", "annulus", "tabulated")


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
    """``value`` as a finite float > 0 (or >= 0 with ``allow_zero``)."""
    requirement = "a finite number >= 0" if allow_zero else "a positive number"
    try:
        value = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{name} must be {requirement}") from None
    if not math.isfinite(value) or value < 0.0 or (value == 0.0 and not allow_zero):
        raise ConfigError(f"{name} must be {requirement}")
    return value


def _auto_or_positive(value, name):
    if value == "auto":
        return "auto"
    return _as_positive(value, name)


def parse_config(path) -> dict:
    """Load a YAML/JSON config, fill defaults, and validate every key."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        user = yaml.safe_load(fh)
    if user is None:
        user = {}
    if not isinstance(user, dict):
        raise ConfigError("config root must be a mapping")
    cfg = _merge_section(DEFAULTS, user, "")

    if cfg["kernel"] not in _KERNEL_NAMES:
        raise ConfigError(f"kernel must be one of {_KERNEL_NAMES}")
    if cfg["kernel"] == "tabulated" and not cfg["kernel_table"]:
        raise ConfigError("tabulated kernel requires kernel_table: <path>")
    if cfg["dimension"] not in (1, 2, 3):
        raise ConfigError("dimension must be 1, 2 or 3 (unsupported dimension)")
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
        init["r_inner"] = float(init["r_inner"])
        if not 0.0 <= init["r_inner"] < init["r_outer"]:
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
    if s["diffusion_mode"] not in ("explicit", "implicit"):
        raise ConfigError("solver.diffusion_mode must be explicit or implicit")
    if not (0.0 < float(s["cfl"]) <= 1.0):
        raise ConfigError("solver.cfl must lie in (0, 1]")
    s["record_samples"] = int(s["record_samples"])
    if s["record_samples"] < 2:
        raise ConfigError("solver.record_samples must be >= 2")
    s["dt_max"] = _auto_or_positive(s["dt_max"], "solver.dt_max")
    s["boundary_loss_tolerance"] = _as_positive(
        s["boundary_loss_tolerance"], "solver.boundary_loss_tolerance"
    )
    if s["store_snapshots"] not in ("auto", True, False):
        raise ConfigError("solver.store_snapshots must be auto, true or false")
    a = cfg["analysis"]
    a["slack"] = _as_positive(a["slack"], "analysis.slack", allow_zero=True)
    a["safety_factor"] = _as_positive(a["safety_factor"], "analysis.safety_factor")
    a["ball_factor"] = _as_positive(a["ball_factor"], "analysis.ball_factor")
    a["t_star"] = _auto_or_positive(a["t_star"], "analysis.t_star")
    if a["scan_objective"] not in ("level_per_time", "level"):
        raise ConfigError("analysis.scan_objective must be level_per_time or level")
    if a["h1_coefficient"] is not None:
        a["h1_coefficient"] = _as_positive(a["h1_coefficient"], "analysis.h1_coefficient")
        if cfg["dimension"] != 1:
            raise ConfigError("analysis.h1_coefficient applies to dimension 1 only")
    cfg["sweep"]["jobs"] = int(cfg["sweep"]["jobs"])
    return cfg


def _auto(value):
    """None for "auto", else the value."""
    return None if value == "auto" else value


def run_settings(cfg) -> analysis.RunSettings:
    """The per-run ``grid`` and ``solver`` keys of a parsed config."""
    g, s = cfg["grid"], cfg["solver"]
    return analysis.RunSettings(
        diffusion_mode=s["diffusion_mode"],
        cfl_number=float(s["cfl"]),
        dr_max=g["dr_max"],
        dr_divisor=g["dr_divisor"],
        record_samples=s["record_samples"],
        dr=_auto(g["dr"]),
        r_max=_auto(g["r_max"]),
        dt_max=_auto(s["dt_max"]),
        boundary_loss_tolerance=s["boundary_loss_tolerance"],
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


def write_trajectory_csv(traj: solver.TrajectoryRecord, path) -> None:
    cols = ["t", "mass", "truncated_moment", "concentration"]
    series = [traj.times, traj.mass, traj.truncated_moment, traj.concentration]
    for p in sorted(traj.lp, key=lambda q: math.inf if q == math.inf else float(q)):
        cols.append("lpinf" if p == math.inf else f"lp{p:g}")
        series.append(traj.lp[p])
    cols.append("outflow_cumulative")
    series.append(traj.outflow_cumulative)
    if traj.h1 is not None:
        cols.append("h1")
        series.append(traj.h1)
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(len(traj.times)):
            fh.write(",".join(_fmt(col[k]) for col in series) + "\n")


def read_csv_columns(path) -> dict:
    with open(path) as fh:
        header = fh.readline().strip()
        names = header.split(",") if header else []
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array(rows, dtype=np.float64) if rows else np.zeros((0, len(names)))
    return {name: data[:, i] for i, name in enumerate(names)}


def write_field_csv(r, u, path) -> None:
    with open(path, "w") as fh:
        fh.write("r,u\n")
        for ri, ui in zip(r, u):
            fh.write(f"{_fmt(ri)},{_fmt(ui)}\n")


def emit_run(traj, constants, cfg, outdir: Path, extras=None) -> None:
    outdir.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, outdir / "trajectory.csv")
    meta = {
        "dimension": traj.dimension,
        "epsilon": traj.epsilon,
        "scale": traj.scale,
        "kernel": traj.kernel_name,
        "diffusion_mode": traj.diffusion_mode,
        "grid": {"dr": traj.grid_dr, "n": traj.grid_n},
        "initial_mass": traj.initial_mass,
        "clipped_cells": traj.clipped_cells,
        "domain_adequate": traj.domain_adequate,
        "boundary_loss_tolerance": cfg["solver"]["boundary_loss_tolerance"],
        "slack": cfg["analysis"]["slack"],
        "ball_factor": cfg["analysis"]["ball_factor"],
        "constants": asdict(constants) if constants is not None else None,
        "has_snapshots": traj.snapshots is not None,
    }
    if extras:
        meta.update(extras)
    _write_json(meta, outdir / "run.json")
    if traj.snapshots is not None:
        snapdir = outdir / "snapshots"
        snapdir.mkdir(exist_ok=True)
        g = gridmod.RadialGrid(traj.dimension, traj.grid_dr, traj.grid_n)
        times = []
        for k, t in enumerate(traj.snapshot_times):
            write_field_csv(g.r_centers, traj.snapshots[k], snapdir / f"snap_{k:05d}.csv")
            times.append(float(t))
        _write_json({"times": times}, snapdir / "index.json")


def load_run(outdir: Path):
    with open(outdir / "run.json") as fh:
        meta = json.load(fh)
    cols = read_csv_columns(outdir / "trajectory.csv")
    lp = {}
    for name, values in cols.items():
        if name == "lpinf":
            lp[math.inf] = values
        elif name.startswith("lp"):
            lp[float(name[2:])] = values
    snapshots = snapshot_times = None
    snapdir = outdir / "snapshots"
    if meta.get("has_snapshots") and (snapdir / "index.json").exists():
        with open(snapdir / "index.json") as fh:
            snapshot_times = np.asarray(json.load(fh)["times"])
        snaps = []
        for k in range(len(snapshot_times)):
            snaps.append(read_csv_columns(snapdir / f"snap_{k:05d}.csv")["u"])
        snapshots = np.asarray(snaps)
    traj = solver.TrajectoryRecord(
        dimension=int(meta["dimension"]),
        epsilon=float(meta["epsilon"]),
        scale=float(meta["scale"]),
        kernel_name=meta["kernel"],
        diffusion_mode=meta["diffusion_mode"],
        grid_dr=float(meta["grid"]["dr"]),
        grid_n=int(meta["grid"]["n"]),
        times=cols["t"],
        mass=cols["mass"],
        truncated_moment=cols["truncated_moment"],
        concentration=cols["concentration"],
        outflow_cumulative=cols["outflow_cumulative"],
        lp=lp,
        h1=cols.get("h1"),
        snapshot_times=snapshot_times,
        snapshots=snapshots,
        clipped_cells=int(meta["clipped_cells"]),
        domain_adequate=bool(meta["domain_adequate"]),
    )
    constants = None
    if meta.get("constants") is not None:
        constants = analysis.ConcentrationConstants(**meta["constants"])
    return traj, constants, meta


def write_verdicts(verdicts, path) -> None:
    lines = [
        f"{'PASS' if v.passed else 'FAIL'}  {v.name:<28s} margin={v.margin:+.6g}  {v.detail}"
        for v in verdicts
    ]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + ("\n" if lines else ""))
    for line in lines:
        print(line)


def write_manifest(command, config_path, outdir: Path) -> None:
    _write_json(
        {
            "command": command,
            "config_path": str(config_path),
            "output_dir": str(outdir),
            "seed_free": True,
        },
        outdir / MANIFEST_NAME,
    )


def echo_config(cfg, outdir: Path) -> None:
    with open(outdir / RESOLVED_NAME, "w") as fh:
        yaml.safe_dump(cfg, fh, sort_keys=True, default_flow_style=False)


def start_output(args, cfg) -> Path:
    """Create the command's output directory with its manifest and resolved config."""
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    write_manifest(args.command, args.config, outdir)
    echo_config(cfg, outdir)
    return outdir


# ---------------------------------------------------------------------------
# per-run verdicts (simulate / check)
# ---------------------------------------------------------------------------

def run_verdicts(traj, constants, slack, loss_tol) -> list:
    loss = float(traj.outflow_cumulative[-1] / traj.initial_mass)
    verdicts = analysis.bookkeeping_verdicts([traj.mass_error()], [loss], loss_tol)
    if constants is not None and constants.attraction > 0.0:
        violations = analysis.check_moment_inequality(traj, constants, slack)
        verdicts.append(
            analysis.Verdict(
                "moment_inequality",
                len(violations) == 0,
                -float(len(violations)),
                f"{len(violations)} violations at slack {slack:g}",
            )
        )
        if constants.admissible and traj.times[-1] >= constants.horizon * (1 - 1e-9):
            wb = analysis.weighted_concentration_integral(traj, constants)
            verdicts.append(
                analysis.Verdict(
                    "weighted_lower_bound",
                    wb.passed,
                    wb.ratio - 1.0,
                    f"integral/threshold ratio {wb.ratio:.4f}",
                )
            )
    return verdicts


def _diagnostics_scale(cfg, init) -> float:
    """Scale of the moment and concentration series when no constants pick one."""
    return cfg["scale"] if cfg["scale"] != "auto" else 10.0 * init.support_radius


def _resolve_scale_and_constants(cfg, kernel, init):
    """Constants (or None for non-attractive kernels) plus the diagnostics scale."""
    if cfg["kernel"] == "zero":
        if cfg["t_end"] == "auto":
            raise ConfigError("t_end must be numeric for the zero kernel (no intrinsic horizon)")
        return None, _diagnostics_scale(cfg, init)
    constants = analysis.reference_constants(
        kernel,
        init,
        cfg["dimension"],
        _auto(cfg["scale"]),
        cfg["analysis"]["scan_objective"],
        cfg["analysis"]["h1_coefficient"],
    )
    return constants, constants.scale


def _resolve_t_end(cfg, constants):
    if cfg["t_end"] != "auto":
        return cfg["t_end"]
    if constants is None or not constants.admissible or not math.isfinite(constants.horizon):
        raise ConfigError("t_end: auto requires admissible data (no finite horizon available)")
    return constants.horizon


def cmd_simulate(args) -> int:
    cfg = parse_config(args.config)
    if len(cfg["epsilon"]) != 1:
        raise ConfigError("simulate expects exactly one epsilon; use sweep for several")
    epsilon = cfg["epsilon"][0]
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    constants, scale = _resolve_scale_and_constants(cfg, kernel, init)
    t_end = _resolve_t_end(cfg, constants)
    traj = analysis.run_case(
        kernel, init, cfg["dimension"], epsilon, scale, t_end, run_settings(cfg),
        store_snapshots=cfg["solver"]["store_snapshots"] is True,
    )
    outdir = start_output(args, cfg)
    emit_run(traj, constants, cfg, outdir)
    verdicts = run_verdicts(
        traj, constants, cfg["analysis"]["slack"], cfg["solver"]["boundary_loss_tolerance"]
    )
    write_verdicts(verdicts, outdir / "verdicts.txt")
    return 0 if all(v.passed for v in verdicts) else 1


def _sweep_jobs(cfg, args) -> int:
    return max(1, args.jobs if args.jobs is not None else cfg["sweep"]["jobs"])


def sweep_report_payload(report) -> dict:
    return {
        "kernel": report.kernel_name,
        "dimension": report.dimension,
        "constants": asdict(report.constants),
        "ball_factor": report.ball_factor,
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
        "ball_mass_integral", "ball_p2_integral",
    ]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for row in report.rows:
            values = [
                row.epsilon, row.dr, row.n_cells, row.sup_lp[2.0], row.sup_lp[math.inf],
                row.sup_h1 if row.sup_h1 is not None else math.nan,
                row.mass_error, row.boundary_loss, row.moment_violations,
                row.weighted_integral, row.weighted_threshold, row.weighted_ratio,
                row.ball_mass_integral, row.ball_p2_integral,
            ]
            fh.write(",".join(_fmt(v) for v in values) + "\n")


# Keys a sweep refuses unless at their defaults: each row plans its own
# grid, horizon and step cap from its diffusivity, judges its rim loss by
# the default tolerance, and stores the snapshots its ball integrals need.
_SWEEP_IGNORED = (
    ("t_end",), ("grid", "dr"), ("grid", "r_max"),
    ("solver", "dt_max"), ("solver", "boundary_loss_tolerance"), ("solver", "store_snapshots"),
)


def _reject_sweep_ignored(cfg) -> None:
    """Raise ConfigError when a key ``sweep`` would ignore is not at its default."""
    for path in _SWEEP_IGNORED:
        value, default = cfg, DEFAULTS
        for key in path:
            value, default = value[key], default[key]
        if value != default:
            name = ".".join(path)
            raise ConfigError(f"{name} is not used by sweep (each row sets its own); remove it")


def cmd_sweep(args) -> int:
    cfg = parse_config(args.config)
    _reject_sweep_ignored(cfg)
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    settings = analysis.SweepSettings(
        dimension=cfg["dimension"],
        epsilons=tuple(cfg["epsilon"]),
        scale=_auto(cfg["scale"]),
        run=run_settings(cfg),
        slack=cfg["analysis"]["slack"],
        ball_factor=cfg["analysis"]["ball_factor"],
        t_star=_auto(cfg["analysis"]["t_star"]),
        safety=cfg["analysis"]["safety_factor"],
        h1_coefficient=cfg["analysis"]["h1_coefficient"],
        scan_objective=cfg["analysis"]["scan_objective"],
        jobs=_sweep_jobs(cfg, args),
    )
    report = analysis.epsilon_sweep(kernel, init, settings)
    outdir = start_output(args, cfg)
    _write_json(sweep_report_payload(report), outdir / "sweep.json")
    write_sweep_csv(report, outdir / "sweep.csv")
    write_verdicts(report.verdicts, outdir / "verdicts.txt")
    return 0 if report.all_passed else 1


def cmd_check(args) -> int:
    outdir = Path(args.traj)
    traj, constants, meta = load_run(outdir)
    verdicts = run_verdicts(
        traj, constants, float(meta["slack"]), float(meta["boundary_loss_tolerance"])
    )
    if traj.snapshots is not None and constants is not None:
        try:
            integral = analysis.ball_mass_integral(
                traj, float(meta["ball_factor"]), min(constants.horizon, traj.times[-1])
            )
            print(f"INFO  ball_mass_integral           value={integral:.6g}")
        except ValueError as exc:
            print(f"INFO  ball_mass_integral           skipped: {exc}")
    write_verdicts(verdicts, outdir / "verdicts.txt")
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_baseline(args) -> int:
    cfg = parse_config(args.config)
    if cfg["kernel"] != "zero":
        raise ConfigError("baseline runs pure diffusion and requires kernel: zero")
    if cfg["initial"]["type"] != "gaussian":
        raise ConfigError("baseline requires gaussian initial data (closed-form reference)")
    if cfg["t_end"] == "auto":
        raise ConfigError("baseline requires a numeric t_end")
    if len(cfg["epsilon"]) != 1:
        raise ConfigError("baseline expects exactly one epsilon")
    epsilon = cfg["epsilon"][0]
    t_end = cfg["t_end"]
    init = init_from_config(cfg)
    traj = analysis.run_case(
        kernels.zero_kernel(), init, cfg["dimension"], epsilon,
        _diagnostics_scale(cfg, init), t_end, run_settings(cfg),
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
        verdicts.append(
            analysis.Verdict(
                f"heat_norm_p{key}", rel <= 0.01, 0.01 - rel,
                f"computed {got:.6g} vs exact {expected:.6g} (rel {rel:.2e})",
            )
        )
    outdir = start_output(args, cfg)
    _write_json(
        {"epsilon": epsilon, "t_end": t_end, "t_offset": t0, "norms": results},
        outdir / "baseline.json",
    )
    write_verdicts(verdicts, outdir / "verdicts.txt")
    return 0 if all(v.passed for v in verdicts) else 1


def cmd_calibrate(args) -> int:
    cfg = parse_config(args.config)
    if cfg["dimension"] != 1:
        raise ConfigError("calibrate fits the H^1 coefficient, which is one-dimensional")
    if len(cfg["epsilon"]) < 3:
        raise ConfigError("calibrate needs at least 3 probe diffusivities")
    kernel = kernel_from_config(cfg)
    init = init_from_config(cfg)
    constants, _ = _resolve_scale_and_constants(cfg, kernel, init)
    if constants is None:
        raise ConfigError("calibrate requires an attractive kernel")
    t_end = _resolve_t_end(cfg, constants)
    settings = run_settings(cfg)
    runs = [analysis.run_case(kernel, init, 1, e, constants.scale, t_end, settings) for e in cfg["epsilon"]]
    coefficient = analysis.calibrate_h1_coefficient(runs, cfg["analysis"]["safety_factor"])
    outdir = start_output(args, cfg)
    _write_json(
        {
            "h1_coefficient": coefficient,
            "safety_factor": cfg["analysis"]["safety_factor"],
            "probes": [
                {"epsilon": traj.epsilon, "sup_h1": float(np.max(traj.h1))} for traj in runs
            ],
            "scale": constants.scale,
        },
        outdir / "calibration.json",
    )
    print(f"h1_coefficient = {coefficient:.17g}")
    return 0


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

    p_cal = sub.add_parser("calibrate", help="calibrate the H^1 barrier coefficient")
    p_cal.add_argument("--config", required=True)
    p_cal.add_argument("--out", required=True)
    p_cal.set_defaults(func=cmd_calibrate)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
