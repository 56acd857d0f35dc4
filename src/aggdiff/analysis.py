"""Concentration constants, inequality checks, and diffusivity sweeps.

Implements the verification harness around the solver:

* explicit constants attached to admissible initial data (attraction
  floor, moment growth rate, guaranteed level, time horizon);
* the truncated-moment differential inequality checked pointwise along a
  recorded trajectory;
* the weighted concentration lower bound over the time horizon;
* time-integrated mass (and L^p content) of shrinking balls of radius
  proportional to the diffusivity;
* diffusivity sweeps with log-log exponent fits, empirically calibrated
  upper barriers tested on held-out diffusivities, and a verdict table.

Every verdict of the package is built here, by ``Verdict.bound``: its
margin is limit - value (value - limit for a lower limit), and it passes
only when that margin is finite and >= 0, so a NaN or infinite value
fails (``concentration_positive`` also needs a margin above 0).
``trajectory_verdicts`` judges one run or many at the worst run:
``run_verdicts`` applies it to one recorded run, ``epsilon_star`` to each
sweep row and ``epsilon_sweep`` to all rows, before the sweep's fit,
barrier and concentration verdicts.

Unnamed constants in the upper bounds are treated empirically: calibrated
as maxima over probe runs times a safety factor, then frozen and checked
on runs not used for calibration.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional

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
from .solver import RECORD_SAMPLES, SolverConfig, TrajectoryRecord, run

FIT_MIN_POINTS = 4
MIN_BALL_SAMPLES = 20
# Density above this fraction of the peak counts as support.
SUPPORT_THRESHOLD = 1e-12
# Log-spaced scales tried by select_scale.
SCALE_SCAN_POINTS = 61
# Largest relative mass defect and rim loss a run may show.
MASS_TOLERANCE = 1e-6
BOUNDARY_LOSS_TOLERANCE = 1e-6
# Moment-inequality excess allowed, as a fraction of kappa M^2 / 2.
MOMENT_SLACK = 0.01
# Calibrated barrier coefficients are the worst probe value times this.
SAFETY_FACTOR = 1.5
# Radius of the shrinking balls, in units of eps.
BALL_FACTOR = 0.5


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConcentrationConstants:
    """Explicit constants for the concentration bounds of one data set.

    ``admissible`` records the smallness condition on the capped first
    moment; ``bound_level`` and ``horizon`` are only meaningful (positive)
    for admissible data.
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


def compute_constants(
    u0: DensityField,
    kernel: KernelSpec,
    scale: float,
) -> ConcentrationConstants:
    """Evaluate the explicit constants for initial data at a given scale.

    Requires a kernel that is genuinely attractive below the scale;
    inadmissible data (bound level <= 0) is reported, not raised.
    """
    kappa = min_attraction(kernel, scale)
    if not kappa > 0.0:
        raise ValueError("kernel is not attractive below this scale; constants undefined")
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
    )


def field_support_radius(field: DensityField) -> float:
    """Largest radius carrying density above SUPPORT_THRESHOLD times the peak."""
    u = field.values
    peak = float(np.max(u))
    if peak <= 0.0:
        raise ValueError("empty field has no support radius")
    idx = np.nonzero(u > SUPPORT_THRESHOLD * peak)[0]
    return float(field.grid.r_centers[idx[-1]])


def select_scale(u0: DensityField, kernel: KernelSpec) -> ConcentrationConstants:
    """Scan scales over a log grid and keep the best admissible one.

    The SCALE_SCAN_POINTS scales span [1e-2, 1e2] times the support
    radius of the data. The best scale maximises bound_level / horizon,
    which keeps the simulated window short.
    """
    support = field_support_radius(u0)
    scales = np.logspace(math.log10(0.01 * support), math.log10(100.0 * support), SCALE_SCAN_POINTS)
    best = None
    best_score = -math.inf
    for scale in scales:
        try:
            c = compute_constants(u0, kernel, float(scale))
        except ValueError:
            continue
        if not (c.admissible and c.bound_level > 0.0 and c.horizon > 0.0):
            continue
        score = c.bound_level / c.horizon
        if score > best_score:
            best, best_score = c, score
    if best is None:
        raise ValueError("no admissible scale found for this data/kernel pair")
    return best


# ---------------------------------------------------------------------------
# trajectory checks
# ---------------------------------------------------------------------------

def check_moment_inequality(
    traj: TrajectoryRecord,
    constants: ConcentrationConstants,
) -> list:
    """Pointwise check of the truncated-moment differential inequality.

    scale * dI/dt <= eps * D - kappa M^2 / 2 + rate * I at interior
    samples, with centred differences for dI/dt. The times of the
    samples that exceed it by more than MOMENT_SLACK * kappa M^2 / 2, or where
    either side is NaN, are returned; an unattractive kernel (zero
    attraction floor) is refused.
    """
    if constants.attraction <= 0.0:
        raise ValueError("moment inequality applies to attractive kernels only")
    if traj.scale != constants.scale:
        raise ValueError("trajectory was recorded at a different scale")
    m0 = traj.initial_mass
    drop = constants.attraction * m0 * m0 / 2.0
    tol = MOMENT_SLACK * drop
    t = traj.times
    moment = traj.truncated_moment
    violations = []
    for k in range(1, len(t) - 1):
        lhs = constants.scale * (moment[k + 1] - moment[k - 1]) / (t[k + 1] - t[k - 1])
        rhs = traj.epsilon * traj.concentration[k] - drop + constants.moment_rate * moment[k]
        if not lhs - rhs <= tol:
            violations.append(float(t[k]))
    return violations


class WeightedBound(NamedTuple):
    integral: float
    threshold: float
    ratio: float


def _series_to(times, values, t_stop):
    """Series restricted to [0, t_stop] with an interpolated endpoint."""
    if times[-1] < t_stop:
        raise ValueError(f"trajectory ends at {times[-1]:g}, before {t_stop:g}")
    inside = times <= t_stop
    ts = times[inside]
    vs = values[inside]
    if ts[-1] < t_stop:
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
    compared against scale * level / eps; the verdict reads their ratio.
    """
    if not constants.admissible or constants.bound_level <= 0.0:
        raise ValueError("weighted bound requires admissible constants")
    ts, ds = _series_to(traj.times, traj.concentration, constants.horizon)
    integrand = ds * np.exp(-constants.moment_rate * ts / constants.scale)
    integral = float(np.trapezoid(integrand, ts))
    threshold = constants.scale * constants.bound_level / traj.epsilon
    return WeightedBound(integral, threshold, integral / threshold)


def _ball_integral(traj: TrajectoryRecord, t_star: float, content) -> float:
    """Time integral over [0, t_star] of content(snapshots, cell volumes)
    on the cells of the ball of radius BALL_FACTOR * eps; refuses
    unresolved balls (radius < 2 dr), snapshots narrower than the ball and
    too few snapshots in the window."""
    radius = BALL_FACTOR * traj.epsilon
    grid = traj.grid
    if radius < 2.0 * grid.dr:
        raise ValueError(
            f"ball radius {radius:g} unresolved by dr = {grid.dr:g}; refine the grid"
        )
    if traj.snapshots is None:
        raise ValueError("trajectory was recorded without snapshots")
    window = traj.times <= t_star
    if int(np.count_nonzero(window)) < MIN_BALL_SAMPLES:
        raise ValueError(f"need at least {MIN_BALL_SAMPLES} snapshots inside the window")
    inside = grid.r_centers < radius
    width = traj.snapshots.shape[1]
    cells = int(np.count_nonzero(inside))
    if cells > width:
        raise ValueError(
            f"snapshots hold {width} cells but the ball of radius {radius:g} has {cells}"
        )
    # The cells inside are a prefix, so the same mask selects them from
    # snapshots of any width that covers the ball.
    series = content(traj.snapshots[:, inside[:width]], grid.cell_volumes[inside])
    ts, vs = _series_to(traj.times, series, t_star)
    return float(np.trapezoid(vs, ts))


def ball_mass_integral(traj: TrajectoryRecord, t_star: float) -> float:
    """Time integral over [0, t_star] of the mass in the ball of radius
    BALL_FACTOR * eps; refuses unresolved balls (radius < 2 dr)."""
    return _ball_integral(traj, t_star, lambda snaps, vols: snaps @ vols)


def ball_lp_integral(traj: TrajectoryRecord, p: float, t_star: float) -> float:
    """Time integral of (integral of u^p over the eps-ball)^(1/p)."""
    return _ball_integral(traj, t_star, lambda snaps, vols: (snaps ** p @ vols) ** (1.0 / p))


# ---------------------------------------------------------------------------
# heat baseline and barriers
# ---------------------------------------------------------------------------

def heat_kernel_norm(epsilon: float, t: float, p, total_mass: float, dimension: int) -> float:
    """Exact L^p norm of the heat kernel of the given mass at time t.

    mass * (4 pi eps t)^(-b/2) * p^(-N/(2p)), with the exponent
    b = N(p-1)/p of ``scaling_exponents``; p = inf collapses to
    mass * (4 pi eps t)^(-N/2) and p = 1 to the mass itself.
    """
    if epsilon <= 0.0 or t <= 0.0:
        raise ValueError("epsilon and t must be positive")
    if not p >= 1.0:
        raise ValueError("p must be >= 1")
    _, b = scaling_exponents(p, dimension)
    norm = total_mass * (4.0 * math.pi * epsilon * t) ** (-b / 2.0)
    return norm if p == math.inf else norm * p ** (-dimension / (2.0 * p))


def scaling_exponents(norm, dimension) -> tuple:
    """Exponents (a, b) of the scaling law sup_t |u| <= C M^a eps^-b.

    For the L^p norm (``norm`` = p in [1, inf]) a = (N(p-1)+p)/p and
    b = N(p-1)/p, taken in the limit for p = inf (a = N+1, b = N); for
    ``"h1"``, the one-dimensional H^1 seminorm, a = 5/2 and b = 3/2.
    """
    if norm == "h1":
        return 2.5, 1.5
    if norm == math.inf:
        return dimension + 1.0, float(dimension)
    p = float(norm)
    return (dimension * (p - 1.0) + p) / p, dimension * (p - 1.0) / p


def calibrate_coefficient(samples, norm, dimension) -> float:
    """Barrier coefficient of ``norm``: SAFETY_FACTOR times the max over
    (sup, eps, M) samples of sup * eps^b / M^a, with (a, b) from
    ``scaling_exponents``; NaN when any sample's value is not finite."""
    a, b = scaling_exponents(norm, dimension)
    return SAFETY_FACTOR * _worst([sup * eps ** b / m ** a for sup, eps, m in samples], np.max)


def barrier(norm, dimension, coefficient, total_mass, epsilon, *floors) -> float:
    """Empirical barrier max(floors, C M^a eps^-b), with (a, b) from
    ``scaling_exponents``; NaN when any term is NaN."""
    a, b = scaling_exponents(norm, dimension)
    return float(np.max([*floors, coefficient * total_mass ** a * epsilon ** (-b)]))


class FitResult(NamedTuple):
    slope: float
    r_squared: float


def loglog_fit(x, y) -> FitResult:
    """Slope and R^2 of ordinary least squares on (log x, log y).

    Closed form from the centred sums: with dx and dy the deviations of
    log x and log y from their means, slope = sum(dx dy) / sum(dx^2) and
    the intercept is mean(log y) - slope mean(log x); R^2 = 1 - SS_res /
    SS_tot, 1.0 for a constant log y. A non-finite log gives NaN, and when
    every x is equal no line is determined, so slope and R^2 are both NaN.
    No LAPACK routine runs: ``numpy.linalg.lstsq`` would page in about
    1 MB of it for this one fit per series.
    """
    lx = np.log(np.asarray(x, dtype=np.float64))
    ly = np.log(np.asarray(y, dtype=np.float64))
    if lx.size < 2:
        raise ValueError("need at least two points to fit")
    # Tested on the values: the centred sum of equal logs need not be 0.
    if lx.min() == lx.max():
        return FitResult(math.nan, math.nan)
    mean_x, mean_y = float(np.mean(lx)), float(np.mean(ly))
    dx, dy = lx - mean_x, ly - mean_y
    slope = float(np.dot(dx, dy)) / float(np.dot(dx, dx))
    fitted = slope * lx + (mean_y - slope * mean_x)
    ss_res = float(np.sum((ly - fitted) ** 2))
    ss_tot = float(np.sum(dy ** 2))
    # A constant series fits exactly; a non-finite point leaves ss_tot NaN,
    # and R^2 must then stay NaN so that no fit-quality gate passes.
    r2 = 1.0 - ss_res / ss_tot if ss_tot != 0.0 else 1.0
    return FitResult(slope, r2)


# ---------------------------------------------------------------------------
# diffusivity sweep
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunSettings:
    """How one run is gridded and stepped; None means "auto" (see
    ``plan_grid`` for dr and r_max, ``SolverConfig`` for dt_max). Its
    defaults are the config's defaults (``cli.DEFAULTS`` reads them)."""

    dr_max: float = 5e-3
    dr_divisor: float = 16.0
    record_samples: int = RECORD_SAMPLES
    dr: Optional[float] = None
    r_max: Optional[float] = None
    dt_max: Optional[float] = None


@dataclass(frozen=True)
class SweepSettings:
    dimension: int
    epsilons: tuple
    scale: Optional[float] = None
    run: RunSettings = RunSettings()
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
    moment_violations: int
    weighted_integral: float
    weighted_threshold: float
    weighted_ratio: float
    ball_mass_integral: float
    ball_p2_integral: float
    full_grid_solves: int


@dataclass
class Verdict:
    name: str
    passed: bool
    margin: float
    detail: str

    @classmethod
    def bound(cls, name, value, limit, detail, lower=False) -> "Verdict":
        """``value`` against an upper ``limit`` (a lower one with ``lower``).

        The margin is limit - value (value - limit for a lower limit), and
        the verdict passes only when the margin is finite and >= 0: a NaN
        or infinite value fails whichever side its limit is on.
        """
        margin = float(value - limit if lower else limit - value)
        return cls(name, math.isfinite(margin) and margin >= 0.0, margin, detail)


@dataclass
class SweepReport:
    kernel_name: str
    dimension: int
    constants: ConcentrationConstants
    t_star: float
    rows: list
    fitted_exponents: dict
    fit_quality: dict
    calibrated: dict
    verdicts: list
    epsilon_star: Optional[float]


def plan_grid(dimension, epsilon, t_end, support_radius, settings=RunSettings()) -> RadialGrid:
    """Per-run grid policy: unless ``settings`` fixes them, dr resolves the
    diffusive scale (eps/dr_divisor, capped at dr_max) and r_max =
    max(10 support, 20 sqrt(eps t_end)).

    eps/16 rather than the minimal eps/8: the first-order upwind bias
    lowers the equilibrium spike by about 2 (dr/eps) kappa M^2 / 2. For
    eps >= 0.01 that deficit stays inside the MOMENT_SLACK (1%) of the
    moment-inequality check; at eps = 0.002 it does not (1-D excess 1.57%).
    """
    dr, r_max = settings.dr, settings.r_max
    if dr is None:
        dr = min(settings.dr_max, epsilon / settings.dr_divisor)
    if r_max is None:
        r_max = max(10.0 * support_radius, 20.0 * math.sqrt(epsilon * max(t_end, 0.0)))
    return RadialGrid.make(dimension, r_max, dr)


def reference_constants(kernel: KernelSpec, init, dimension: int, scale=None) -> ConcentrationConstants:
    """Constants evaluated on a fine reference grid of the initial data."""
    support = init.support_radius
    grid = RadialGrid.make(dimension, 10.0 * support, support / 400.0)
    u0 = make_initial_condition(init, grid)
    if scale is not None:
        return compute_constants(u0, kernel, float(scale))
    return select_scale(u0, kernel)


def run_case(
    kernel: KernelSpec,
    init,
    dimension: int,
    epsilon: float,
    scale: float,
    t_end: float,
    settings: RunSettings = RunSettings(),
    snapshot_radius: Optional[float] = None,
) -> TrajectoryRecord:
    """One run of the given data at the given diffusivity to ``t_end``: grid
    from ``plan_grid``, record grid from ``settings.record_samples``, moment
    and concentration series at ``scale``, and the snapshots that
    ``snapshot_radius`` selects (see ``SolverConfig``)."""
    grid = plan_grid(dimension, epsilon, t_end, init.support_radius, settings)
    u0 = make_initial_condition(init, grid)
    config = SolverConfig(
        epsilon=epsilon,
        t_end=t_end,
        record_samples=settings.record_samples,
        dt_max=settings.dt_max,
        snapshot_radius=snapshot_radius,
    )
    return run(u0, kernel, config, scale)


def _sweep_case(payload):
    kernel, init, settings, constants, epsilon, t_star = payload
    traj = run_case(
        kernel, init, settings.dimension, epsilon, constants.scale,
        t_star, settings.run, snapshot_radius=BALL_FACTOR * epsilon,
    )
    violations = check_moment_inequality(traj, constants)
    bound = weighted_concentration_integral(traj, constants)
    conc_mass = ball_mass_integral(traj, t_star)
    conc_p2 = ball_lp_integral(traj, 2.0, t_star)
    return SweepRow(
        epsilon=epsilon,
        dr=traj.grid.dr,
        n_cells=traj.grid.n,
        sup_lp={p: float(np.max(v)) for p, v in traj.lp.items()},
        u0_lp={p: float(v[0]) for p, v in traj.lp.items()},
        sup_h1=float(np.max(traj.h1)) if traj.h1 is not None else None,
        u0_h1=float(traj.h1[0]) if traj.h1 is not None else None,
        mass_error=traj.mass_error(),
        boundary_loss=traj.boundary_loss(),
        moment_violations=len(violations),
        weighted_integral=bound.integral,
        weighted_threshold=bound.threshold,
        weighted_ratio=bound.ratio,
        ball_mass_integral=conc_mass,
        ball_p2_integral=conc_p2,
        full_grid_solves=traj.full_grid_solves,
    )


def _main_script_importable() -> bool:
    """Whether spawned workers can re-run ``__main__``: it has no path or an existing one."""
    path = getattr(sys.modules["__main__"], "__file__", None)
    return path is None or os.path.isfile(path)


def epsilon_sweep(kernel: KernelSpec, init, settings: SweepSettings) -> SweepReport:
    """Run the verification battery over a set of diffusivities.

    Requires at least four diffusivities spanning a decade. Rows are
    reported in decreasing diffusivity. Barrier coefficients (the L^2,
    L^inf and, in one dimension, H^1 ones) are calibrated on every other
    row (starting with the largest diffusivity) and checked on all rows,
    so the held-out rows genuinely test the frozen constants; this is
    the one place that calibrates them. An exception in any row aborts
    the whole sweep and propagates to the caller. With ``jobs > 1`` the rows run in spawned
    worker processes: forking a process whose numeric libraries already
    run threads (OpenMP, BLAS) can deadlock or crash the pool. A spawned
    worker re-runs the main script, so when that script is no file (one
    read from standard input) the rows run in this process instead.
    Workers inherit the package's one-thread OpenBLAS default (see
    ``aggdiff``), so ``jobs = 2`` on two cores runs two BLAS threads, not
    four.
    """
    epsilons = sorted(set(float(e) for e in settings.epsilons), reverse=True)
    if len(epsilons) < FIT_MIN_POINTS:
        raise ValueError(f"need at least {FIT_MIN_POINTS} diffusivities")
    if epsilons[0] / epsilons[-1] < 10.0 * (1.0 - 1e-12):
        raise ValueError("diffusivities must span at least one decade")
    constants = reference_constants(kernel, init, settings.dimension, settings.scale)
    if not constants.admissible:
        raise ValueError("initial data is not admissible at the selected scale")
    # Each row runs to twice the horizon: the shrinking-ball integrals are
    # then dominated by the concentrated plateau rather than the collapse
    # transient, which would otherwise flatten the fitted exponents at the
    # large-diffusivity end.
    t_star = 2.0 * constants.horizon
    payloads = [(kernel, init, settings, constants, e, t_star) for e in epsilons]
    if settings.jobs > 1 and _main_script_importable():
        # Imported here: a serial sweep never loads the pool (about 20 ms).
        import functools
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        spawn = multiprocessing.get_context("spawn")
        # Workers handle floating-point errors as this process does.
        errors = functools.partial(np.seterr, **np.geterr())
        with ProcessPoolExecutor(max_workers=settings.jobs, mp_context=spawn, initializer=errors) as pool:
            rows = list(pool.map(_sweep_case, payloads))
    else:
        rows = [_sweep_case(p) for p in payloads]

    eps_arr = np.array([row.epsilon for row in rows])
    dim = settings.dimension
    series = {
        "2": [row.sup_lp[2.0] for row in rows],
        "inf": [row.sup_lp[math.inf] for row in rows],
        "ball_p2": [row.ball_p2_integral for row in rows],
    }
    fits, quality = {}, {}
    for key, values in series.items():
        fit = loglog_fit(eps_arr, values)
        fits[key], quality[key] = fit.slope, fit.r_squared

    calibration_rows = rows[::2]
    calibrated = {}
    for key, p in (("lp_2", 2.0), ("lp_inf", math.inf)):
        samples = [(row.sup_lp[p], row.epsilon, row.u0_lp[1.0]) for row in calibration_rows]
        calibrated[key] = calibrate_coefficient(samples, p, dim)
    if dim == 1:
        samples = [(row.sup_h1, row.epsilon, constants.total_mass) for row in calibration_rows]
        calibrated["h1"] = calibrate_coefficient(samples, "h1", dim)

    verdicts = _sweep_verdicts(rows, fits, quality, calibrated, constants, settings)
    return SweepReport(
        kernel_name=kernel.name(),
        dimension=dim,
        constants=constants,
        t_star=t_star,
        rows=rows,
        fitted_exponents=fits,
        fit_quality=quality,
        calibrated=calibrated,
        verdicts=verdicts,
        epsilon_star=epsilon_star(rows),
    )


def _worst(values, reduce) -> float:
    """``reduce`` over per-row values, or NaN when any value is not finite.

    Every verdict judges its worst value, and ``Verdict.bound`` fails a
    NaN, so a non-finite row fails the verdict.
    """
    values = np.asarray(values, dtype=np.float64)
    return float(reduce(values)) if np.all(np.isfinite(values)) else math.nan


def trajectory_verdicts(mass_errors, losses, violations=(), ratios=()) -> list:
    """The verdicts on one or more runs, each judged at its worst run.

    ``mass_conservation`` (mass defect <= MASS_TOLERANCE) and
    ``boundary_loss`` (relative rim loss <= BOUNDARY_LOSS_TOLERANCE)
    always; ``moment_inequality`` (no violation) when per-run violation
    counts are given, and ``weighted_lower_bound`` (integral/threshold
    ratio >= 1) when per-run ratios are. A non-finite value fails its
    verdict.
    """
    worst_mass = _worst(mass_errors, np.max)
    worst_loss = _worst(losses, np.max)
    verdicts = [
        Verdict.bound("mass_conservation", worst_mass, MASS_TOLERANCE, f"max defect {worst_mass:.3e}"),
        Verdict.bound("boundary_loss", worst_loss, BOUNDARY_LOSS_TOLERANCE, f"relative rim loss {worst_loss:.3e}"),
    ]
    if len(violations):
        total = sum(violations)
        verdicts.append(Verdict.bound("moment_inequality", float(total), 0.0, f"{total} violations"))
    if len(ratios):
        worst = _worst(ratios, np.min)
        detail = f"min integral/threshold ratio {worst:.3f}"
        verdicts.append(Verdict.bound("weighted_lower_bound", worst, 1.0, detail, lower=True))
    return verdicts


def run_verdicts(traj: TrajectoryRecord, constants) -> list:
    """``trajectory_verdicts`` of one recorded run: the moment inequality
    (at MOMENT_SLACK) needs an attractive kernel (``constants`` not None,
    attraction > 0), and the weighted bound admissible constants too; it
    fails a run that ends before their horizon, whose integral is partial."""
    violations, ratios, partial = (), (), []
    if constants is not None and constants.attraction > 0.0:
        violations = [len(check_moment_inequality(traj, constants))]
        if constants.admissible and not traj.times[-1] >= constants.horizon:
            end = f"run ends at t = {traj.times[-1]:.4g}, before the horizon {constants.horizon:.4g}"
            partial = [Verdict.bound("weighted_lower_bound", math.nan, 1.0, end, lower=True)]
        elif constants.admissible:
            ratios = [weighted_concentration_integral(traj, constants).ratio]
    return trajectory_verdicts([traj.mass_error()], [traj.boundary_loss()], violations, ratios) + partial


def _row_verdicts(rows) -> list:
    """``trajectory_verdicts`` over sweep rows."""
    return trajectory_verdicts(
        [row.mass_error for row in rows],
        [row.boundary_loss for row in rows],
        [row.moment_violations for row in rows],
        [row.weighted_ratio for row in rows],
    )


def epsilon_star(rows) -> Optional[float]:
    """Diffusivity of the first row whose own trajectory verdicts all pass, or None."""
    for row in rows:
        if all(v.passed for v in _row_verdicts([row])):
            return row.epsilon
    return None


def _sweep_verdicts(rows, fits, quality, calibrated, constants, settings) -> list:
    dim = settings.dimension
    verdicts = _row_verdicts(rows)

    for key, p in (("2", 2.0), ("inf", math.inf), ("ball_p2", 2.0)):
        target = -scaling_exponents(p, dim)[1]
        slope, r2 = fits[key], quality[key]
        rel = abs(slope - target) / abs(target)
        verdicts += [
            Verdict.bound(f"scaling_slope_{key}", rel, 0.15, f"slope {slope:.4f} vs target {target:g}"),
            Verdict.bound(f"fit_quality_{key}", r2, 0.98, f"R^2 = {r2:.5f}", lower=True),
        ]

    m = constants.total_mass

    def sup_and_barrier(row, key, norm):
        if norm == "h1":
            return row.sup_h1, barrier(norm, dim, calibrated[key], m, row.epsilon, row.u0_h1)
        return row.sup_lp[norm], barrier(norm, dim, calibrated[key], m, row.epsilon, m, row.u0_lp[norm])

    def upper_barrier(key, norm):
        worst = _worst([sup / bar for sup, bar in (sup_and_barrier(row, key, norm) for row in rows)], np.max)
        return Verdict.bound(f"upper_barrier_{key}", worst, 1.0, f"max sup/barrier ratio {worst:.3f}")

    verdicts += [upper_barrier("lp_2", 2.0), upper_barrier("lp_inf", math.inf)]
    sup_small, barrier_small = sup_and_barrier(rows[-1], "lp_2", 2.0)
    # An infinite sup would make the ratio 0, which passes: it must be NaN.
    saturation = barrier_small / sup_small if math.isfinite(sup_small) else math.nan
    detail = f"barrier/sup = {saturation:.2f} at eps = {rows[-1].epsilon:g}"
    verdicts.append(Verdict.bound("barrier_saturation", saturation, 10.0, detail))
    if "h1" in calibrated:
        verdicts.append(upper_barrier("h1", "h1"))

    conc = [row.ball_mass_integral for row in rows]
    c_star = _worst(conc, np.min)
    detail = f"empirical uniform constant {c_star:.4g}"
    positive = Verdict.bound("concentration_positive", c_star, 0.0, detail, lower=True)
    # The one strict limit: a constant of 0 concentrates no mass at all.
    positive.passed = positive.passed and c_star > 0.0
    decay = conc[-1] / conc[0] if conc[0] > 0.0 else 0.0
    detail = f"smallest-eps / largest-eps integral ratio {decay:.3f}"
    verdicts += [positive, Verdict.bound("concentration_no_decay", decay, 0.5, detail, lower=True)]
    return verdicts
