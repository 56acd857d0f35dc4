"""Mass-conservative, positivity-preserving time stepper.

Advances u_t = r^{1-N} d_r ( r^{N-1} ( eps u_r - u V ) ) with first-order
upwind drift fluxes, centred diffusive fluxes, zero flux at the origin,
and a monitored outflow face at r_max (ghost value zero). Every unit of
mass that leaves through the rim is added to the recorded outflow, so

    mass(t) + cumulative_outflow(t) == mass(0)

holds to roundoff at every step in both diffusion modes. Diffusion is
either explicit (stable under the parabolic CFL) or backward-Euler
implicit. The implicit system is solved in its volume-weighted form, row i

    (vol_i + c (a_i + a_{i+1})) u_i - c a_{i+1} u_{i+1} - c a_i u_{i-1} = vol_i u*_i

with c = eps dt / dr, face areas a, no origin term a_0 and the rim face a_n
on the last row. That matrix is symmetric and strictly diagonally dominant
with a positive diagonal, hence positive definite, and LAPACK ``ptsv``
solves it. The drift velocity is refreshed from the drift operator every
step and lags the update by one step. A step that produces a NaN or
infinite state or outflow raises NonFiniteError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel
from .drift import apply_drift, build_interaction_matrix
from .grid import (
    DensityField,
    concentration_functional,
    h1_seminorm,
    lp_norm,
    mass,
    truncated_moment,
)
from .kernels import KernelFamily, KernelSpec

# Exponents of the recorded L^p norm series.
LP_VALUES = (1.0, 2.0, math.inf)


class NegativityError(RuntimeError):
    """Update produced negative densities beyond the clip threshold."""


class NonFiniteError(RuntimeError):
    """A step produced a NaN or infinite density or outflow.

    ``time`` is the time the step was advancing to; ``step`` counts the
    steps of the run from 1 (None when the step was taken outside ``run``).
    """

    def __init__(self, time: float, step: Optional[int] = None):
        super().__init__(time, step)
        self.time = time
        self.step = step

    def __str__(self):
        where = f"t = {self.time!r}" if self.step is None else f"step {self.step}, t = {self.time!r}"
        return f"non-finite state at {where}"


@dataclass(frozen=True)
class SolverConfig:
    epsilon: float
    t_end: float
    cfl_number: float = 0.5
    diffusion_mode: str = "implicit"
    record_interval: Optional[float] = None
    boundary_loss_tolerance: float = 1e-6
    dt_max: Optional[float] = None
    store_snapshots: bool = False

    def __post_init__(self):
        if self.epsilon <= 0.0:
            raise ValueError("diffusivity must be positive; the solver refuses epsilon = 0")
        if self.t_end < 0.0:
            raise ValueError("t_end must be nonnegative")
        if not (0.0 < self.cfl_number <= 1.0):
            raise ValueError("cfl_number must lie in (0, 1]")
        if self.diffusion_mode not in ("explicit", "implicit"):
            raise ValueError("diffusion_mode must be 'explicit' or 'implicit'")


@dataclass
class TrajectoryRecord:
    """Diagnostics series sampled along a run.

    ``outflow_cumulative`` tracks the mass lost through the outer rim;
    ``lp`` maps the exponent (inf included) to the norm series.
    """

    dimension: int
    epsilon: float
    scale: float
    kernel_name: str
    diffusion_mode: str
    grid_dr: float
    grid_n: int
    times: np.ndarray
    mass: np.ndarray
    truncated_moment: np.ndarray
    concentration: np.ndarray
    outflow_cumulative: np.ndarray
    lp: dict
    h1: Optional[np.ndarray] = None
    snapshot_times: Optional[np.ndarray] = None
    snapshots: Optional[np.ndarray] = None
    clipped_cells: int = 0
    domain_adequate: bool = True

    @property
    def initial_mass(self) -> float:
        return float(self.mass[0])

    def mass_error(self) -> float:
        """Max relative defect of mass(t) + outflow(t) - mass(0)."""
        defect = np.abs(self.mass + self.outflow_cumulative - self.mass[0])
        return float(np.max(defect) / self.mass[0])


def stated_cfl_bound(grid, epsilon, velocity, cfl_number, diffusion_mode) -> float:
    """The advertised step bounds: advective cfl*dr/max|V| and, in
    explicit mode, the parabolic cfl*dr^2/(2 N eps)."""
    bound = math.inf
    vmax = float(np.max(np.abs(velocity))) if velocity.size else 0.0
    if vmax > 0.0:
        bound = cfl_number * grid.dr / vmax
    if diffusion_mode == "explicit":
        bound = min(bound, cfl_number * grid.dr ** 2 / (2.0 * grid.dimension * epsilon))
    return bound


def positivity_bound(grid, epsilon, velocity, cfl_number, diffusion_mode) -> float:
    """Exact convex-combination bound: dt such that every cell's outflow
    coefficient stays below cfl * volume. Sharper than the stated bounds
    near the origin where face-area/volume ratios peak."""
    area = grid.face_areas
    vol = grid.cell_volumes
    n = grid.n
    vf = 0.5 * (velocity[:-1] + velocity[1:])
    # out[i] sums cell i's outflow coefficients: rightward through face
    # i+1, leftward through face i, and (last cell) out through the rim.
    right = area[1:-1] * np.maximum(vf, 0.0)
    left = area[1:-1] * np.maximum(-vf, 0.0)
    out = np.empty(n)
    out[0] = right[0]
    np.add(right[1:], left[:-1], out=out[1:-1])
    out[-1] = left[-1] + area[-1] * max(float(velocity[-1]), 0.0)
    if diffusion_mode == "explicit":
        diffusive = epsilon * area[1:-1] / grid.dr
        out[:-1] += diffusive
        out[1:] += diffusive
        out[-1] += epsilon * area[-1] / grid.dr
    ratio = np.divide(vol, out, out=np.full(n, math.inf), where=out > 0.0)
    return float(cfl_number * ratio.min())


def _implicit_diffusion(u_star, grid, epsilon, dt):
    """Backward-Euler diffusion of ``u_star`` over dt; returns (u, rim outflow).

    Solves row i of (V + c A) u = V u*, the volume-weighted form
    (vol_i + c (a_i + a_{i+1})) u_i - c a_{i+1} u_{i+1} - c a_i u_{i-1} =
    vol_i u*_i with c = eps dt / dr: no flux through the origin face, and
    the ghost value outside the rim held at zero, which adds c a_n to the
    last diagonal entry. The diagonal is c times the grid's ``face_sums``
    plus the volumes; both off-diagonals are -c a over the interior faces.
    """
    area = grid.face_areas
    vol = grid.cell_volumes
    c = epsilon * dt / grid.dr
    diag = c * grid.face_sums
    diag += vol
    u_new = _accel.thomas_solve(diag, -c * area[1:-1], vol * u_star)
    rim_flux_mass = epsilon * dt * area[-1] * u_new[-1] / grid.dr
    return u_new, rim_flux_mass


def advance(field: DensityField, velocity: np.ndarray, config: SolverConfig, dt: float):
    """One conservative update; returns (new field, outflow mass, clipped cells).

    Raises NonFiniteError when the new state or the outflow is not finite,
    and NegativityError when a density falls below the clip threshold.
    """
    grid = field.grid
    explicit = config.diffusion_mode == "explicit"
    u_new, outflux = _accel.explicit_update(
        field.values, velocity, grid.right_ratios, grid.left_ratios, grid.face_areas[-1],
        grid.dr, config.epsilon, dt, explicit,
    )
    if not explicit:
        u_new, rim = _implicit_diffusion(u_new, grid, config.epsilon, dt)
        outflux += rim
    # min and max propagate NaN, so they check the final state in both
    # modes; the negativity floor and the clip scale need them anyway.
    floor, top = float(u_new.min()), float(u_new.max())
    if not (math.isfinite(floor) and math.isfinite(top) and math.isfinite(outflux)):
        raise NonFiniteError(field.time + dt)
    clipped = 0
    if floor < 0.0:
        scale = max(top, float(np.max(field.values)), 1.0)
        if floor < -1e-8 * scale:
            raise NegativityError(f"negative density {floor:g} beyond the clip threshold")
        clipped = int(np.count_nonzero(u_new < -1e-14))
        u_new = np.maximum(u_new, 0.0)
    return field.with_values(u_new, field.time + dt), float(outflux), clipped


def run(u0: DensityField, kernel: KernelSpec, config: SolverConfig, scale: float) -> TrajectoryRecord:
    """Advance to t_end with adaptive dt, recording diagnostics.

    ``scale`` parametrises the truncated-moment and concentration series.
    The step size honours the advertised CFL bounds, the exact positivity
    bound, dt_max, and lands exactly on the record grid, so repeated runs
    are bit-reproducible. Raises NonFiniteError, carrying the step number
    and time, at the first step that produces a non-finite state.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    grid = u0.grid
    drift = None
    if kernel.family is not KernelFamily.ZERO:
        drift = build_interaction_matrix(grid, kernel)
    record_dt = config.record_interval
    if record_dt is None:
        record_dt = config.t_end / 200.0 if config.t_end > 0.0 else 1.0
    if record_dt <= 0.0:
        raise ValueError("record_interval must be positive")
    dt_cap = config.dt_max if config.dt_max is not None else record_dt

    times = [0.0]
    masses = [mass(u0)]
    moments = [truncated_moment(u0, scale)]
    concentrations = [concentration_functional(u0, scale)]
    outflows = [0.0]
    lp_series = {p: [lp_norm(u0, p)] for p in LP_VALUES}
    h1_series = [h1_seminorm(u0)] if grid.dimension == 1 else None
    snap_times = [0.0] if config.store_snapshots else None
    snaps = [u0.values.copy()] if config.store_snapshots else None

    current = u0
    t = 0.0
    outflow_total = 0.0
    clipped_total = 0
    steps = 0
    next_record = record_dt
    vol = grid.cell_volumes
    tiny = 1e-12 * max(config.t_end, record_dt)

    def sample(fld, t_now):
        times.append(t_now)
        masses.append(float(np.dot(fld.values, vol)))
        moments.append(truncated_moment(fld, scale))
        concentrations.append(concentration_functional(fld, scale))
        outflows.append(outflow_total)
        for p in LP_VALUES:
            lp_series[p].append(lp_norm(fld, p))
        if h1_series is not None:
            h1_series.append(h1_seminorm(fld))
        if snaps is not None:
            snap_times.append(t_now)
            snaps.append(fld.values.copy())

    while t < config.t_end - tiny:
        if drift is not None:
            velocity = apply_drift(drift, current)
        else:
            velocity = np.zeros(grid.n)
        dt = min(
            stated_cfl_bound(grid, config.epsilon, velocity, config.cfl_number, config.diffusion_mode),
            positivity_bound(grid, config.epsilon, velocity, config.cfl_number, config.diffusion_mode),
            dt_cap,
            next_record - t,
            config.t_end - t,
        )
        if not math.isfinite(dt) or dt <= 0.0:
            raise RuntimeError(f"degenerate step size {dt!r} at t = {t!r}")
        steps += 1
        try:
            current, outflux, clipped = advance(current, velocity, config, dt)
        except NonFiniteError as exc:
            exc.step = steps
            raise
        t = current.time
        outflow_total += outflux
        clipped_total += clipped
        if t >= next_record - tiny:
            sample(current, t)
            next_record += record_dt
    if t > times[-1] + tiny:
        sample(current, t)

    loss = outflow_total / masses[0]
    return TrajectoryRecord(
        dimension=grid.dimension,
        epsilon=config.epsilon,
        scale=scale,
        kernel_name=kernel.name(),
        diffusion_mode=config.diffusion_mode,
        grid_dr=grid.dr,
        grid_n=grid.n,
        times=np.asarray(times),
        mass=np.asarray(masses),
        truncated_moment=np.asarray(moments),
        concentration=np.asarray(concentrations),
        outflow_cumulative=np.asarray(outflows),
        lp={p: np.asarray(v) for p, v in lp_series.items()},
        h1=np.asarray(h1_series) if h1_series is not None else None,
        snapshot_times=np.asarray(snap_times) if snap_times is not None else None,
        snapshots=np.asarray(snaps) if snaps is not None else None,
        clipped_cells=clipped_total,
        domain_adequate=bool(loss <= config.boundary_loss_tolerance),
    )
