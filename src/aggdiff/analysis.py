"""Concentration constants, inequality checks, and diffusivity sweeps.

Implements the verification harness around the solver:

* explicit constants attached to admissible initial data (attraction
  floor, moment growth rate, guaranteed level, time horizon, ball factor)
  and their algebraic self-consistency;
* the truncated-moment differential inequality checked pointwise along a
  recorded trajectory;
* the weighted concentration lower bound over the time horizon;
* time-integrated mass (and L^p content) of shrinking balls of radius
  proportional to the diffusivity;
* diffusivity sweeps with log-log exponent fits, empirically calibrated
  upper barriers tested on held-out diffusivities, and a verdict table.

Unnamed constants in the upper bounds are treated empirically: calibrated
as maxima over probe runs times a safety factor, then frozen and checked
on runs not used for calibration.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .grid import (
    DensityField,
    RadialGrid,
    capped_first_moment,
    make_initial_condition,
    mass,
    truncated_moment,
)
from .kernels import KernelSpec, min_attraction
from .solver import SolverConfig, TrajectoryRecord, run

FIT_MIN_POINTS = 4
MIN_BALL_SAMPLES = 20
DR_DIVISOR = 16.0


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationConstants:
    """Explicit constants for the concentration bounds of one data set.

    ``admissible`` records the smallness condition on the capped first
    moment; ``bound_level`` and ``horizon`` are only meaningful (positive)
    for admissible data. ``ball_factor`` scales the diffusivity into a
    ball radius; in one dimension it needs a calibrated H^1 coefficient
    and is None until one is supplied.
    """

    dimension: int
    scale: float
    total_mass: float
    capped_moment: float
    initial_moment: float
    attraction: float
    kprime_sup_norm: float
    moment_rate: float
    bound_level: float
    horizon: float
    admissible: bool
    ball_factor: Optional[float] = None
    h1_coefficient: Optional[float] = None


def compute_constants(
    u0: DensityField,
    kernel: KernelSpec,
    scale: float,
    h1_coefficient: Optional[float] = None,
) -> ConcentrationConstants:
    """Evaluate the explicit constants for initial data at a given scale.

    Requires a kernel that is genuinely attractive below the scale;
    inadmissible data (bound level <= 0) is reported, not raised.
    """
    est = min_attraction(kernel, scale)
    if not est.attractive:
        raise ValueError("kernel is not attractive below this scale; constants undefined")
    kappa = est.value
    sup = kernel.kprime_sup_norm
    m0 = mass(u0)
    mu = capped_first_moment(u0, scale)
    moment0 = truncated_moment(u0, scale)
    rate = 2.0 * m0 * (kappa + 2.0 * sup)
    level = 0.5 * (kappa * m0 * m0 / (2.0 * rate) - moment0)
    admissible = mu < kappa * m0 * scale / (4.0 * (kappa + 2.0 * sup))
    if level > 0.0:
        horizon = (scale / rate) * math.log(kappa * m0 * m0 / (2.0 * rate * level))
    else:
        horizon = math.nan
    ball = None
    if level > 0.0 and horizon > 0.0:
        if u0.grid.dimension >= 2:
            ball = 2.0 * (u0.grid.dimension - 1) * m0 * horizon / (scale * level)
        elif h1_coefficient is not None:
            ball = (scale * level / (4.0 * h1_coefficient * m0 ** 2.5 * horizon)) ** 2
    return ConcentrationConstants(
        dimension=u0.grid.dimension,
        scale=scale,
        total_mass=m0,
        capped_moment=mu,
        initial_moment=moment0,
        attraction=kappa,
        kprime_sup_norm=sup,
        moment_rate=rate,
        bound_level=level,
        horizon=horizon,
        admissible=admissible,
        ball_factor=ball,
        h1_coefficient=h1_coefficient,
    )


def consistency_residual(constants: ConcentrationConstants) -> float:
    """Relative defect of the closed-form identity defining the horizon.

    Substituting the horizon into kappa M^2/(2 rate) (1 - exp(-rate T /
    scale)) - I(0) must reproduce the bound level exactly.
    """
    c = constants
    lhs = (
        c.attraction * c.total_mass ** 2 / (2.0 * c.moment_rate)
        * (1.0 - math.exp(-c.moment_rate * c.horizon / c.scale))
        - c.initial_moment
    )
    return abs(lhs - c.bound_level) / abs(c.bound_level)


def field_support_radius(field: DensityField, rel_threshold: float = 1e-12) -> float:
    """Largest radius carrying density above a relative threshold."""
    u = field.values
    peak = float(np.max(u))
    if peak <= 0.0:
        raise ValueError("empty field has no support radius")
    idx = np.nonzero(u > rel_threshold * peak)[0]
    return float(field.grid.r_centers[idx[-1]])


def select_scale(
    u0: DensityField,
    kernel: KernelSpec,
    objective: str = "level_per_time",
    num: int = 61,
    h1_coefficient: Optional[float] = None,
) -> ConcentrationConstants:
    """Scan scales over a log grid and keep the best admissible one.

    The grid spans [1e-2, 1e2] times the support radius of the data. The
    default objective maximises bound_level / horizon, which keeps the
    simulated window short; ``objective="level"`` maximises the bound
    level alone.
    """
    if objective not in ("level_per_time", "level"):
        raise ValueError("objective must be 'level_per_time' or 'level'")
    support = field_support_radius(u0)
    scales = np.logspace(math.log10(0.01 * support), math.log10(100.0 * support), num)
    best = None
    best_score = -math.inf
    for scale in scales:
        try:
            c = compute_constants(u0, kernel, float(scale), h1_coefficient)
        except ValueError:
            continue
        if not (c.admissible and c.bound_level > 0.0 and c.horizon > 0.0):
            continue
        score = c.bound_level / c.horizon if objective == "level_per_time" else c.bound_level
        if score > best_score:
            best, best_score = c, score
    if best is None:
        raise ValueError("no admissible scale found for this data/kernel pair")
    return best


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

class MomentViolation(NamedTuple):
    time: float
    lhs: float
    rhs: float
    excess: float


def check_moment_inequality(
    traj: TrajectoryRecord,
    constants: ConcentrationConstants,
    slack: float = 0.01,
) -> list:
    """Pointwise check of the truncated-moment differential inequality.

    scale * dI/dt <= eps * D - kappa M^2 / 2 + rate * I at interior
    samples, with centred differences for dI/dt. Exceedances beyond
    slack * kappa M^2 / 2 are returned as violations; an unattractive
    kernel (zero attraction floor) is refused.
    """
    if constants.attraction <= 0.0:
        raise ValueError("moment inequality applies to attractive kernels only")
    if abs(traj.scale - constants.scale) > 1e-12 * constants.scale:
        raise ValueError("trajectory was recorded at a different scale")
    m0 = traj.initial_mass
    drop = constants.attraction * m0 * m0 / 2.0
    tol = slack * drop
    t = traj.times
    moment = traj.truncated_moment
    violations = []
    for k in range(1, len(t) - 1):
        lhs = constants.scale * (moment[k + 1] - moment[k - 1]) / (t[k + 1] - t[k - 1])
        rhs = traj.epsilon * traj.concentration[k] - drop + constants.moment_rate * moment[k]
        if lhs - rhs > tol:
            violations.append(MomentViolation(float(t[k]), float(lhs), float(rhs), float(lhs - rhs)))
    return violations


class WeightedBound(NamedTuple):
    integral: float
    threshold: float
    ratio: float
    passed: bool


def _series_to(times, values, t_stop):
    """Series restricted to [0, t_stop] with an interpolated endpoint."""
    if times[-1] < t_stop * (1.0 - 1e-9):
        raise ValueError(f"trajectory ends at {times[-1]:g}, before {t_stop:g}")
    inside = times <= t_stop * (1.0 + 1e-12)
    ts = times[inside]
    vs = values[inside]
    if ts[-1] < t_stop * (1.0 - 1e-12):
        v_end = np.interp(t_stop, times, values)
        ts = np.append(ts, t_stop)
        vs = np.append(vs, v_end)
    return ts, vs


def weighted_concentration_integral(
    traj: TrajectoryRecord,
    constants: ConcentrationConstants,
) -> WeightedBound:
    """Damped time integral of the concentration functional vs its bound.

    Trapezoid quadrature of D(t) exp(-rate t / scale) over the horizon,
    compared against scale * level / eps.
    """
    if not constants.admissible or constants.bound_level <= 0.0:
        raise ValueError("weighted bound requires admissible constants")
    ts, ds = _series_to(traj.times, traj.concentration, constants.horizon)
    integrand = ds * np.exp(-constants.moment_rate * ts / constants.scale)
    integral = float(np.trapezoid(integrand, ts))
    threshold = constants.scale * constants.bound_level / traj.epsilon
    ratio = integral / threshold
    return WeightedBound(integral, threshold, ratio, bool(integral >= threshold))


def _ball_integral(traj: TrajectoryRecord, ball_factor: float, t_star: float, content) -> float:
    """Time integral over [0, t_star] of content(snapshots, cell volumes)
    on the cells of the ball of radius ball_factor * eps; refuses
    unresolved balls (radius < 2 dr) and too few snapshots in the window."""
    radius = ball_factor * traj.epsilon
    if radius < 2.0 * traj.grid_dr:
        raise ValueError(
            f"ball radius {radius:g} unresolved by dr = {traj.grid_dr:g}; refine the grid"
        )
    if traj.snapshots is None or traj.snapshot_times is None:
        raise ValueError("trajectory was recorded without snapshots")
    window = traj.snapshot_times <= t_star * (1.0 + 1e-9)
    if int(np.count_nonzero(window)) < MIN_BALL_SAMPLES:
        raise ValueError(f"need at least {MIN_BALL_SAMPLES} snapshots inside the window")
    grid = RadialGrid(traj.dimension, traj.grid_dr, traj.grid_n)
    inside = grid.r_centers < radius
    series = content(traj.snapshots[:, inside], grid.cell_volumes[inside])
    ts, vs = _series_to(traj.snapshot_times, series, t_star)
    return float(np.trapezoid(vs, ts))


def ball_mass_integral(traj: TrajectoryRecord, ball_factor: float, t_star: float) -> float:
    """Time integral over [0, t_star] of the mass in the ball of radius
    ball_factor * eps; refuses unresolved balls (radius < 2 dr)."""
    return _ball_integral(traj, ball_factor, t_star, lambda snaps, vols: snaps @ vols)


def ball_lp_integral(traj: TrajectoryRecord, ball_factor: float, p: float, t_star: float) -> float:
    """Time integral of (integral of u^p over the eps-ball)^(1/p)."""
    return _ball_integral(
        traj, ball_factor, t_star, lambda snaps, vols: (snaps ** p @ vols) ** (1.0 / p)
    )


# ---------------------------------------------------------------------------
# heat baseline and barriers
# ---------------------------------------------------------------------------

def heat_kernel_norm(epsilon: float, t: float, p, total_mass: float, dimension: int) -> float:
    """Exact L^p norm of the heat kernel of the given mass at time t.

    mass * (4 pi eps t)^(-N(p-1)/(2p)) * p^(-N/(2p)); p = inf collapses to
    mass * (4 pi eps t)^(-N/2) and p = 1 to the mass itself.
    """
    if epsilon <= 0.0 or t <= 0.0:
        raise ValueError("epsilon and t must be positive")
    spread = 4.0 * math.pi * epsilon * t
    if p == math.inf or p == "inf":
        return total_mass * spread ** (-dimension / 2.0)
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be >= 1")
    return total_mass * spread ** (-dimension * (p - 1.0) / (2.0 * p)) * p ** (-dimension / (2.0 * p))


def _lp_exponents(p, dimension) -> tuple:
    """Exponents (a, b) of the L^p scaling M^a eps^-b.

    a = (N(p-1)+p)/p and b = N(p-1)/p, taken in the limit for p = inf
    (a = N+1, b = N).
    """
    if p == math.inf or p == "inf":
        return dimension + 1.0, float(dimension)
    p = float(p)
    return (dimension * (p - 1.0) + p) / p, dimension * (p - 1.0) / p


def lp_barrier(p, total_mass, u0_norm, coefficient, epsilon, dimension) -> float:
    """Empirical sup-norm barrier max(M, |u0|, C M^a eps^-b) for L^p, with
    (a, b) from ``_lp_exponents``; NaN when any term is NaN."""
    a, b = _lp_exponents(p, dimension)
    return float(np.max([total_mass, u0_norm, coefficient * total_mass ** a * epsilon ** (-b)]))


def h1_barrier(total_mass, u0_h1, coefficient, epsilon) -> float:
    """Empirical H^1 barrier max(|u0|_H1, C M^(5/2) eps^(-3/2)); NaN when any term is NaN."""
    return float(np.max([u0_h1, coefficient * total_mass ** 2.5 * epsilon ** -1.5]))


def calibrate_h1_coefficient(probe_runs: Sequence[TrajectoryRecord], safety: float = 1.5) -> float:
    """H^1 barrier coefficient from probe runs (one dimension only).

    The max over runs of sup_t |u|_H1 * eps^(3/2) / M^(5/2), times a
    safety factor; NaN when any run's value is not finite. At least three
    distinct diffusivities are required.
    """
    runs = list(probe_runs)
    if len(runs) < 3:
        raise ValueError("need at least 3 probe runs to calibrate the H^1 coefficient")
    if any(traj.h1 is None for traj in runs):
        raise ValueError("probe runs must carry the H^1 series (dimension 1)")
    ratios = [float(np.max(traj.h1)) * traj.epsilon ** 1.5 / traj.initial_mass ** 2.5 for traj in runs]
    return safety * _worst(ratios, np.max)


class FitResult(NamedTuple):
    slope: float
    intercept: float
    r_squared: float


def loglog_fit(x, y) -> FitResult:
    """Ordinary least squares on (log x, log y)."""
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2:
        raise ValueError("need at least two points to fit")
    design = np.vstack([lx, np.ones_like(lx)]).T
    coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum((ly - np.mean(ly)) ** 2))
    # A constant series fits exactly; a non-finite point leaves ss_tot NaN,
    # and R^2 must then stay NaN so that no fit-quality gate passes.
    r2 = 1.0 - ss_res / ss_tot if ss_tot != 0.0 else 1.0
    return FitResult(float(coef[0]), float(coef[1]), r2)


# ---------------------------------------------------------------------------
# diffusivity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepSettings:
    dimension: int
    epsilons: tuple
    scale: Optional[float] = None
    diffusion_mode: str = "implicit"
    cfl_number: float = 0.5
    dr_max: float = 5e-3
    dr_divisor: float = DR_DIVISOR
    record_samples: int = 200
    slack: float = 0.01
    ball_factor: float = 0.5
    t_star: Optional[float] = None
    safety: float = 1.5
    h1_coefficient: Optional[float] = None
    scan_objective: str = "level_per_time"
    jobs: int = 1


@dataclass
class SweepRow:
    epsilon: float
    dr: float
    n_cells: int
    sup_lp: dict
    u0_lp: dict
    sup_h1: Optional[float]
    u0_h1: Optional[float]
    mass_error: float
    boundary_loss: float
    domain_adequate: bool
    moment_violations: int
    weighted_integral: float
    weighted_threshold: float
    weighted_ratio: float
    ball_mass_integral: float
    ball_p2_integral: float


@dataclass
class Verdict:
    name: str
    passed: bool
    margin: float
    detail: str


@dataclass
class SweepReport:
    kernel_name: str
    dimension: int
    constants: ConcentrationConstants
    ball_factor: float
    t_star: float
    rows: list
    fitted_exponents: dict
    fit_quality: dict
    calibrated: dict
    verdicts: list
    epsilon_star: Optional[float]
    # wall-clock seconds per row; diagnostics only, never serialized
    row_seconds: dict = None

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def plan_grid(dimension, epsilon, t_end, support_radius, dr_max=5e-3, dr=None, r_max=None,
              dr_divisor=DR_DIVISOR) -> RadialGrid:
    """Per-run grid policy: dr resolves the diffusive scale (eps/16, capped
    at dr_max) and r_max = max(10 support, 20 sqrt(eps t_end)).

    eps/16 rather than the minimal eps/8: the first-order upwind bias
    lowers the equilibrium spike by about 2 (dr/eps) kappa M^2 / 2, and
    the stricter divisor keeps that deficit safely inside the 1% slack of
    the moment-inequality check at the smallest swept diffusivities.
    """
    if dr is None:
        dr = min(dr_max, epsilon / dr_divisor)
    if r_max is None:
        r_max = max(10.0 * support_radius, 20.0 * math.sqrt(epsilon * max(t_end, 0.0)))
    return RadialGrid.make(dimension, r_max, dr)


def reference_constants(
    kernel: KernelSpec,
    init,
    dimension: int,
    scale=None,
    scan_objective: str = "level_per_time",
    h1_coefficient=None,
) -> ConcentrationConstants:
    """Constants evaluated on a fine reference grid of the initial data."""
    support = init.support_radius
    grid = RadialGrid.make(dimension, 10.0 * support, support / 400.0)
    u0 = make_initial_condition(init, grid)
    if scale is not None:
        return compute_constants(u0, kernel, float(scale), h1_coefficient)
    return select_scale(u0, kernel, scan_objective, h1_coefficient=h1_coefficient)


def run_case(
    kernel: KernelSpec,
    init,
    dimension: int,
    epsilon: float,
    constants: ConcentrationConstants,
    *,
    diffusion_mode: str = "implicit",
    cfl_number: float = 0.5,
    dr_max: float = 5e-3,
    dr_divisor: float = DR_DIVISOR,
    record_samples: int = 200,
    store_snapshots: bool = True,
    t_end: Optional[float] = None,
) -> TrajectoryRecord:
    """One policy-driven run of the given data at the given diffusivity."""
    horizon = constants.horizon if t_end is None else t_end
    grid = plan_grid(dimension, epsilon, horizon, init.support_radius, dr_max, dr_divisor=dr_divisor)
    u0 = make_initial_condition(init, grid)
    config = SolverConfig(
        epsilon=epsilon,
        t_end=horizon,
        cfl_number=cfl_number,
        diffusion_mode=diffusion_mode,
        record_interval=horizon / record_samples,
        store_snapshots=store_snapshots,
    )
    return run(u0, kernel, config, constants.scale)


def _sweep_case(payload):
    kernel, init, settings, constants, epsilon, t_star = payload
    started = time.monotonic()
    traj = run_case(
        kernel,
        init,
        settings.dimension,
        epsilon,
        constants,
        diffusion_mode=settings.diffusion_mode,
        cfl_number=settings.cfl_number,
        dr_max=settings.dr_max,
        dr_divisor=settings.dr_divisor,
        record_samples=settings.record_samples,
        store_snapshots=True,
        t_end=max(constants.horizon, t_star),
    )
    violations = check_moment_inequality(traj, constants, settings.slack)
    bound = weighted_concentration_integral(traj, constants)
    conc_mass = ball_mass_integral(traj, settings.ball_factor, t_star)
    conc_p2 = ball_lp_integral(traj, settings.ball_factor, 2.0, t_star)
    row = SweepRow(
        epsilon=epsilon,
        dr=traj.grid_dr,
        n_cells=traj.grid_n,
        sup_lp={p: float(np.max(v)) for p, v in traj.lp.items()},
        u0_lp={p: float(v[0]) for p, v in traj.lp.items()},
        sup_h1=float(np.max(traj.h1)) if traj.h1 is not None else None,
        u0_h1=float(traj.h1[0]) if traj.h1 is not None else None,
        mass_error=traj.mass_error(),
        boundary_loss=float(traj.outflow_cumulative[-1] / traj.initial_mass),
        domain_adequate=traj.domain_adequate,
        moment_violations=len(violations),
        weighted_integral=bound.integral,
        weighted_threshold=bound.threshold,
        weighted_ratio=bound.ratio,
        ball_mass_integral=conc_mass,
        ball_p2_integral=conc_p2,
    )
    return row, time.monotonic() - started


def _main_script_importable() -> bool:
    """Whether spawned workers can re-run ``__main__``: it has no path or an existing one."""
    path = getattr(sys.modules["__main__"], "__file__", None)
    return path is None or os.path.isfile(path)


def epsilon_sweep(kernel: KernelSpec, init, settings: SweepSettings) -> SweepReport:
    """Run the verification battery over a set of diffusivities.

    Requires at least four diffusivities spanning a decade. Rows are
    reported in decreasing diffusivity. Barrier coefficients are
    calibrated on every other row (starting with the largest diffusivity)
    and checked on all rows, so the held-out rows genuinely test the
    frozen constants. An exception in any row aborts the whole sweep and
    propagates to the caller. With ``jobs > 1`` the rows run in spawned
    worker processes: forking a process whose numeric libraries already
    run threads (OpenMP, BLAS) can deadlock or crash the pool. A spawned
    worker re-runs the main script, so when that script is no file (one
    read from standard input) the rows run in this process instead.
    """
    epsilons = sorted(set(float(e) for e in settings.epsilons), reverse=True)
    if len(epsilons) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} diffusivities")
    if epsilons[0] / epsilons[-1] < 10.0 * (1.0 - 1e-12):
        raise ValueError("diffusivities must span at least one decade")
    constants = reference_constants(
        kernel, init, settings.dimension, settings.scale,
        settings.scan_objective, settings.h1_coefficient,
    )
    if not constants.admissible:
        raise ValueError("initial data is not admissible at the selected scale")
    # Twice the horizon by default: the shrinking-ball integrals are then
    # dominated by the concentrated plateau rather than the collapse
    # transient, which would otherwise flatten the fitted exponents at the
    # large-diffusivity end.
    t_star = settings.t_star if settings.t_star is not None else 2.0 * constants.horizon
    payloads = [(kernel, init, settings, constants, e, t_star) for e in epsilons]
    if settings.jobs > 1 and _main_script_importable():
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=settings.jobs, mp_context=spawn) as pool:
            outcomes = list(pool.map(_sweep_case, payloads))
    else:
        outcomes = [_sweep_case(p) for p in payloads]
    rows = [row for row, _ in outcomes]
    row_seconds = {row.epsilon: seconds for row, seconds in outcomes}

    eps_arr = np.array([row.epsilon for row in rows])
    dim = settings.dimension
    fits, quality = {}, {}
    for p, target in ((2.0, -dim / 2.0), (math.inf, -float(dim))):
        fit = loglog_fit(eps_arr, [row.sup_lp[p] for row in rows])
        key = "inf" if p == math.inf else f"{p:g}"
        fits[key] = fit.slope
        quality[key] = fit.r_squared
    ball_fit = loglog_fit(eps_arr, [row.ball_p2_integral for row in rows])
    fits["ball_p2"] = ball_fit.slope
    quality["ball_p2"] = ball_fit.r_squared

    calibration_rows = rows[::2]
    calibrated = {
        "lp_2": calibrate_lp_coefficient_rows(calibration_rows, 2.0, dim, settings.safety),
        "lp_inf": calibrate_lp_coefficient_rows(calibration_rows, math.inf, dim, settings.safety),
    }
    if dim == 1:
        if settings.h1_coefficient is not None:
            calibrated["h1"] = settings.h1_coefficient
        else:
            ratios = [row.sup_h1 * row.epsilon ** 1.5 / constants.total_mass ** 2.5 for row in calibration_rows]
            calibrated["h1"] = settings.safety * _worst(ratios, np.max)

    verdicts = _sweep_verdicts(rows, fits, quality, calibrated, constants, dim)
    epsilon_star = None
    for row in rows:
        ok = (
            row.moment_violations == 0
            and row.weighted_ratio >= 1.0
            and row.mass_error <= 1e-6
            and row.domain_adequate
        )
        if ok:
            epsilon_star = row.epsilon
            break
    return SweepReport(
        kernel_name=kernel.name(),
        dimension=dim,
        constants=constants,
        ball_factor=settings.ball_factor,
        t_star=t_star,
        rows=rows,
        fitted_exponents=fits,
        fit_quality=quality,
        calibrated=calibrated,
        verdicts=verdicts,
        epsilon_star=epsilon_star,
        row_seconds=row_seconds,
    )


def calibrate_lp_coefficient_rows(rows, p, dimension, safety) -> float:
    """L^p barrier coefficient: safety times the max over sweep rows of
    sup_t |u|_p * eps^b / M^a; NaN when any row's value is not finite."""
    a, b = _lp_exponents(p, dimension)
    return safety * _worst([row.sup_lp[p] * row.epsilon ** b / row.u0_lp[1.0] ** a for row in rows], np.max)


def _worst(values, reduce) -> float:
    """``reduce`` over per-row values, or NaN when any value is not finite.

    Every verdict compares its worst value with a threshold, and each such
    comparison is False for NaN, so a non-finite row fails the verdict.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(reduce(values)) if np.all(np.isfinite(values)) else math.nan


def bookkeeping_verdicts(mass_errors, losses, loss_tol) -> list:
    """The mass_conservation and boundary_loss verdicts over one or more runs.

    The worst per-run mass defect must be <= 1e-6 and the worst relative
    rim loss <= ``loss_tol``; a non-finite value fails its verdict.
    """
    worst_mass = _worst(mass_errors, np.max)
    worst_loss = _worst(losses, np.max)
    return [
        Verdict("mass_conservation", worst_mass <= 1e-6, 1e-6 - worst_mass, f"max defect {worst_mass:.3e}"),
        Verdict(
            "boundary_loss", worst_loss <= loss_tol, loss_tol - worst_loss,
            f"relative rim loss {worst_loss:.3e}",
        ),
    ]


def _sweep_verdicts(rows, fits, quality, calibrated, constants, dim) -> list:
    # The rows ran with run_case's SolverConfig, so its default tolerance
    # is the one their rim losses were judged by.
    verdicts = bookkeeping_verdicts(
        [row.mass_error for row in rows],
        [row.boundary_loss for row in rows],
        SolverConfig.boundary_loss_tolerance,
    )

    def add(name, passed, margin, detail):
        verdicts.append(Verdict(name, bool(passed), float(margin), detail))

    total_viol = sum(row.moment_violations for row in rows)
    add("moment_inequality", total_viol == 0, -float(total_viol), f"{total_viol} violations")
    worst_ratio = _worst([row.weighted_ratio for row in rows], np.min)
    add(
        "weighted_lower_bound",
        worst_ratio >= 1.0,
        worst_ratio - 1.0,
        f"min integral/threshold ratio {worst_ratio:.3f}",
    )

    slope_targets = {"2": -dim / 2.0, "inf": -float(dim), "ball_p2": -dim / 2.0}
    for key, target in slope_targets.items():
        slope = fits[key]
        rel = abs(slope - target) / abs(target)
        add(
            f"scaling_slope_{key}",
            rel <= 0.15,
            0.15 - rel,
            f"slope {slope:.4f} vs target {target:g}",
        )
        r2 = quality[key]
        add(f"fit_quality_{key}", r2 >= 0.98, r2 - 0.98, f"R^2 = {r2:.5f}")

    for p, ckey in ((2.0, "lp_2"), (math.inf, "lp_inf")):
        coef = calibrated[ckey]
        ratios = [
            row.sup_lp[p]
            / lp_barrier(p, constants.total_mass, row.u0_lp[max(2.0, p) if p != math.inf else p],
                         coef, row.epsilon, dim)
            for row in rows
        ]
        worst = _worst(ratios, np.max)
        add(
            f"upper_barrier_{ckey}",
            worst <= 1.0,
            1.0 - worst,
            f"max sup/barrier ratio {worst:.3f}",
        )
    smallest = rows[-1]
    coef = calibrated["lp_2"]
    barrier_small = lp_barrier(2.0, constants.total_mass, smallest.u0_lp[2.0], coef, smallest.epsilon, dim)
    sup_small = smallest.sup_lp[2.0]
    saturation = barrier_small / sup_small if math.isfinite(sup_small) else math.nan
    add(
        "barrier_saturation",
        saturation <= 10.0,
        10.0 - saturation,
        f"barrier/sup = {saturation:.2f} at eps = {smallest.epsilon:g}",
    )
    if dim == 1 and "h1" in calibrated:
        ratios = [
            row.sup_h1 / h1_barrier(constants.total_mass, row.u0_h1, calibrated["h1"], row.epsilon)
            for row in rows
        ]
        worst = _worst(ratios, np.max)
        add("upper_barrier_h1", worst <= 1.0, 1.0 - worst, f"max sup/barrier ratio {worst:.3f}")

    conc = [row.ball_mass_integral for row in rows]
    c_star = _worst(conc, np.min)
    add("concentration_positive", c_star > 0.0, c_star, f"empirical uniform constant {c_star:.4g}")
    decay = conc[-1] / conc[0] if conc[0] > 0.0 else 0.0
    add(
        "concentration_no_decay",
        0.5 <= decay < math.inf,
        decay - 0.5,
        f"smallest-eps / largest-eps integral ratio {decay:.3f}",
    )
    return verdicts
