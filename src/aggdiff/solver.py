"""Mass-conservative, positivity-preserving time stepper.

Advances u_t = r^{1-N} d_r ( r^{N-1} ( eps u_r - u V ) ) with first-order
upwind drift fluxes, centred diffusive fluxes, zero flux at the origin,
and a monitored outflow face at r_max (ghost value zero). Every unit of
mass that leaves through the rim is added to the recorded outflow, so

    mass(t) + cumulative_outflow(t) == mass(0)

holds to roundoff at every step. Each step is an explicit upwind
transport update followed by one backward-Euler diffusion solve, which is
first order in time: a heat run needs a stated dt_max to match its exact
profile. The implicit system is solved in its volume-weighted form, row i

    (vol_i + c (a_i + a_{i+1})) u_i - c a_{i+1} u_{i+1} - c a_i u_{i-1} = vol_i u*_i

with c = eps dt / dr, face areas a, no origin term a_0 and the rim face a_n
on the last row. That matrix is symmetric and strictly diagonally dominant
with a positive diagonal, hence positive definite, and LAPACK ``ptsv``
solves it. The drift velocity is refreshed from the drift operator every
step and lags the update by one step. No step at dt <= ``positivity_bound``
goes negative: upwind removes at most CFL = 1/2 of each cell's content and
adds only nonnegative inflow, and with nonpositive off-diagonals each update
of the LDL^T solve of that right-hand side adds nonnegative terms. A
negative density raises NegativityError, a NaN or infinite state or
outflow NonFiniteError.

Each step works on a window of cells that carry mass. From the cell
masses and their sum M, summed once per step, J is one past the last
cell with mass above eps M / n (``drift.mass_window``, eps the machine
epsilon) and W = min(n, J + _PAD). The drift product reads the cells
below J and returns V on the cells below W, with the largest |V| over
every cell, which sets the stated CFL bound. The face velocities, the
positivity bound, the upwind update and the implicit solve cover the
cells below W only. When W < n, face W is closed: no transport or
diffusion flux crosses it, the cells beyond keep their values and the
step has no outflow, so mass still telescopes exactly. When W = n the
step is the full-grid step with the rim outflow face. The diffusion solve
can carry mass past the pad in one step; when the last window cell ends
the step with mass above eps / n times the window's mass, that step's
diffusion is solved again on the whole grid, and the run counts it.

A run keeps one density buffer, a copy of the initial values taken
once, and the cell masses of its cells. ``advance`` returns the new
values of the step's window (of all n cells after a whole-grid re-solve)
and leaves the field it reads untouched; ``run`` writes those values into
its buffer and refreshes the cell masses of the same cells only, so the
cells past the window are never copied.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _accel
from .drift import build_interaction_matrix, mass_window
from .grid import (
    DensityField,
    RadialGrid,
    concentration_functional,
    h1_seminorm,
    lp_norm,
    mass,
    truncated_moment,
)
from .kernels import KernelSpec

_EPS = float(np.finfo(np.float64).eps)
# Exponents of the recorded L^p norm series.
LP_VALUES = (1.0, 2.0, math.inf)
# Records of a run without a record interval: one every t_end / RECORD_SAMPLES.
RECORD_SAMPLES = 200
# Cells a step keeps beyond the mass window J. Upwind transport moves mass
# one cell per step, so one cell lets the window grow. The implicit
# diffusion solve spreads further, and a pad too short for it costs a
# second, full-grid solve: on the benchmark's seed-0 sweeps (6800 steps
# each) pads of 1 and 4 cells needed about 1400 and 8 of them, a pad of 8
# none. 32 keeps a factor of 4 over that for about 1.5% of n more cells
# per step.
_PAD = 32
# Fraction of each dt bound a step takes.
CFL = 0.5


class NegativityError(RuntimeError):
    """A step produced a negative density."""


class NonFiniteError(RuntimeError):
    """A step produced a NaN or infinite density or outflow, or started
    from densities whose cell-mass sum overflows.

    ``time`` is the time the step was advancing to (started from, for an
    overflowed sum); ``step`` counts the steps of the run from 1. A step
    taken outside ``run`` has step None and time dt, the step's own end.
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
    """Settings of one run.

    ``snapshot_radius`` selects the density snapshots kept at every record
    time: None keeps none, a radius r keeps the prefix of cells whose
    centres lie below r, and ``math.inf`` keeps every cell. A setting out
    of range, NaN included, raises ValueError naming it on construction.
    """

    epsilon: float
    t_end: float
    record_interval: Optional[float] = None
    dt_max: Optional[float] = None
    snapshot_radius: Optional[float] = None

    def __post_init__(self):
        # Each test is written so that NaN fails it.
        if not 0.0 < self.epsilon < math.inf:
            raise ValueError("epsilon (the diffusivity) must be finite and positive")
        if not 0.0 <= self.t_end < math.inf:
            raise ValueError("t_end must be finite and nonnegative")
        for name in ("record_interval", "dt_max"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive when given")
        if self.snapshot_radius is not None and not self.snapshot_radius >= 0.0:
            raise ValueError("snapshot_radius must be nonnegative when given")


@dataclass
class TrajectoryRecord:
    """Diagnostics series sampled along a run on ``grid``.

    ``outflow_cumulative`` tracks the mass lost through the outer rim;
    ``lp`` maps the exponent (inf included) to the norm series.
    ``snapshots`` holds one row per entry of ``times``: the densities of
    the innermost cells, as many as the run's ``snapshot_radius``
    selected (every cell for ``math.inf``).
    ``full_grid_solves`` counts the steps whose implicit solve outgrew the
    step's window and was redone on the whole grid.
    """

    grid: RadialGrid
    epsilon: float
    scale: float
    kernel_name: str
    times: np.ndarray
    mass: np.ndarray
    truncated_moment: np.ndarray
    concentration: np.ndarray
    outflow_cumulative: np.ndarray
    lp: dict
    h1: Optional[np.ndarray] = None
    snapshots: Optional[np.ndarray] = None
    clipped_cells: int = 0
    full_grid_solves: int = 0

    @property
    def initial_mass(self) -> float:
        return float(self.mass[0])

    def mass_error(self) -> float:
        """Max relative defect of mass(t) + outflow(t) - mass(0)."""
        defect = np.abs(self.mass + self.outflow_cumulative - self.mass[0])
        return float(np.max(defect) / self.mass[0])

    def boundary_loss(self) -> float:
        """Mass lost through the outer rim by the end, relative to mass(0)."""
        return float(self.outflow_cumulative[-1] / self.initial_mass)


def face_velocities(velocity: np.ndarray, cells: int, n: int) -> np.ndarray:
    """Face velocities F on the window of the first ``cells`` cells of a
    grid of n cells, 2 <= cells <= n, from the cell velocities V on at
    least those cells: cells + 1 entries.

    Indexed like ``grid.face_areas``: F[0] = 0 at the origin face and
    F[f] = (V[f-1] + V[f]) / 2 on the faces 1..cells-1 between window
    cells. The last entry is F[n] = V[n-1] at the rim when the window is
    the whole grid (cells == n), and 0 at the closed face ``cells``
    otherwise. The positivity bound and the transport update both read F,
    so each step averages the cells once.
    """
    faces = np.empty(cells + 1)
    faces[0] = 0.0
    inner = faces[1:-1]
    np.add(velocity[: cells - 1], velocity[1:cells], out=inner)
    inner *= 0.5
    faces[-1] = velocity[n - 1] if cells == n else 0.0
    return faces


def _window(grid, faces) -> int:
    """The cell count W of a window's face velocities (W + 1 entries).

    W is n, or 2 <= W < n with a closed last face, whose velocity is 0.
    Anything else, cell velocities included, raises ValueError.
    """
    cells = faces.shape[0] - 1
    if cells == grid.n or (2 <= cells < grid.n and faces[-1] == 0.0):
        return cells
    raise ValueError(
        f"expected the face velocities of a window of at most {grid.n} cells, "
        f"closed when shorter; got {faces.shape[0]} entries"
    )


def stated_cfl_bound(grid, vmax) -> float:
    """The advertised advective step bound CFL*dr/vmax for the largest
    cell speed ``vmax`` = max |V| over every cell, as the drift's
    ``velocity`` returns it; infinite when nothing moves."""
    return CFL * grid.dr / vmax if vmax > 0.0 else math.inf


def positivity_bound(grid, faces) -> float:
    """Exact convex-combination bound CFL / (largest outflow rate per unit volume).

    ``faces`` are the face velocities of ``face_velocities`` on a window of
    W cells (W + 1 entries); only those cells are bounded. Cell i loses
    a_{i+1} max(F_{i+1}, 0) / vol_i through its right face (the rim for the
    last cell of the grid, nothing through a closed face) and
    a_i max(-F_i, 0) / vol_i through its left face: the coefficient of u_i
    that the upwind update subtracts per unit dt. Sharper than the stated
    bound near the origin, where the face-area to volume ratios peak.
    Infinite when no cell has outflow.
    """
    cells = _window(grid, faces)
    rate = np.maximum(faces[1:], 0.0)
    rate *= grid.right_ratios[:cells]
    # Subtracting a_i min(F_i, 0) / vol_i adds exactly a_i max(-F_i, 0) / vol_i
    # and saves negating the faces into another temporary.
    left = np.minimum(faces[1:-1], 0.0)
    left *= grid.left_ratios[: cells - 1]
    rate[1:] -= left
    top = float(rate.max())
    return CFL / top if top > 0.0 else math.inf


def _implicit_diffusion(u_star, grid, epsilon, dt):
    """Backward-Euler diffusion of ``u_star`` over dt; returns (u, rim outflow).

    ``u_star`` holds the first W cells. Solves row i of (V + c A) u = V u*,
    the volume-weighted form (vol_i + c (a_i + a_{i+1})) u_i -
    c a_{i+1} u_{i+1} - c a_i u_{i-1} = vol_i u*_i with c = eps dt / dr: no
    flux through the origin face. When W = n the ghost value outside the
    rim is held at zero, which adds c a_n to the last diagonal entry; when
    W < n face W is closed, the last row has no a_W term and the outflow
    is 0. The diagonal is c times the grid's ``face_sums`` plus the
    volumes; both off-diagonals are -c a over the faces between cells.
    """
    cells = u_star.shape[0]
    area = grid.face_areas
    vol = grid.cell_volumes[:cells]
    c = epsilon * dt / grid.dr
    diag = c * grid.face_sums[:cells]
    if cells < grid.n:
        diag[-1] = c * area[cells - 1]
    diag += vol
    u_new = _accel.thomas_solve(diag, -c * area[1:cells], vol * u_star)
    if cells < grid.n:
        return u_new, 0.0
    rim_flux_mass = epsilon * dt * area[-1] * u_new[-1] / grid.dr
    return u_new, rim_flux_mass


def advance(field: DensityField, faces: np.ndarray, config: SolverConfig, dt: float):
    """One conservative update; returns (new values, outflow mass, whether
    the diffusion was solved again on the whole grid).

    ``faces`` are the face velocities of ``face_velocities`` on a window of
    W cells (W + 1 entries). The step covers those cells, with the closed
    face and the whole-grid re-solve of the module docstring. It returns
    the new values of the W window cells (of all n after a re-solve) in a
    fresh array and leaves the field as it was. Raises NonFiniteError when
    the new values or the outflow are not finite, and NegativityError when
    a density is negative.
    """
    grid = field.grid
    cells = _window(grid, faces)
    u_star, outflux = _accel.explicit_update(
        field.values[:cells], faces, grid.right_ratios[:cells], grid.left_ratios[: cells - 1],
        grid.face_areas[-1] if cells == grid.n else 0.0, dt,
    )
    u_new, rim = _implicit_diffusion(u_star, grid, config.epsilon, dt)
    resolved = False
    if cells < grid.n:
        vol = grid.cell_volumes[:cells]
        if u_new[-1] * vol[-1] > _EPS * float(np.dot(u_new, vol)) / grid.n:
            u_star = np.concatenate((u_star, field.values[cells:]))
            u_new, rim = _implicit_diffusion(u_star, grid, config.epsilon, dt)
            resolved = True
    outflux += rim
    # min and max propagate NaN: one pass checks finiteness and sign.
    floor, top = float(u_new.min()), float(u_new.max())
    if not (math.isfinite(floor) and math.isfinite(top) and math.isfinite(outflux)):
        raise NonFiniteError(dt)
    if floor < 0.0:
        raise NegativityError(f"negative density {floor:g}")
    return u_new, float(outflux), resolved


def run(u0: DensityField, kernel: KernelSpec, config: SolverConfig, scale: float) -> TrajectoryRecord:
    """Advance to t_end with adaptive dt, recording diagnostics.

    ``scale`` parametrises the truncated-moment and concentration series.
    The step size honours the advertised CFL bound, the exact positivity
    bound of the step's window, dt_max, and lands exactly on the record
    grid, so repeated runs are bit-reproducible. Raises NonFiniteError,
    carrying the step number and time, at the first step that produces a
    non-finite state or starts from a state whose cell-mass sum overflows.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    grid = u0.grid
    drift = build_interaction_matrix(grid, kernel)
    record_dt = config.record_interval
    if record_dt is None:
        record_dt = config.t_end / RECORD_SAMPLES if config.t_end > 0.0 else 1.0
    dt_cap = config.dt_max if config.dt_max is not None else record_dt

    # The run's one density buffer, as a field that advance and the
    # diagnostics read; the loop keeps the time t. Each step
    # writes the values advance returns, and the cell masses of the same
    # cells, over the previous ones.
    state = DensityField(grid, u0.values.copy())
    values = state.values
    vol = grid.cell_volumes
    cell_mass = values * vol
    t = 0.0
    outflow_total = 0.0
    full_grid_solves = 0
    steps = 0
    next_record = record_dt
    tiny = 1e-12 * max(config.t_end, record_dt)

    times, masses, moments, concentrations, outflows = [], [], [], [], []
    # The L^1 norm is the mass: its series is the mass series.
    lp_series = {p: [] for p in LP_VALUES if p != 1.0}
    h1_series = [] if grid.dimension == 1 else None
    snaps = None
    if config.snapshot_radius is not None:
        # r_centers increase, so the cells below the radius are a prefix.
        snap_cells = int(np.searchsorted(grid.r_centers, config.snapshot_radius))
        snaps = []

    def sample(t_now):
        times.append(t_now)
        masses.append(mass(state))
        moments.append(truncated_moment(state, scale))
        concentrations.append(concentration_functional(state, scale))
        outflows.append(outflow_total)
        for p, series in lp_series.items():
            series.append(lp_norm(state, p))
        if h1_series is not None:
            h1_series.append(h1_seminorm(state))
        if snaps is not None:
            snaps.append(values[:snap_cells].copy())

    sample(t)
    while t < config.t_end - tiny:
        total = float(cell_mass.sum())
        if not math.isfinite(total):
            raise NonFiniteError(t, steps + 1)
        window = mass_window(cell_mass, total)
        cells = min(grid.n, window + _PAD)
        velocity, vmax = drift.velocity(cell_mass, total, window, cells)
        faces = face_velocities(velocity, cells, grid.n)
        dt = min(
            stated_cfl_bound(grid, vmax),
            positivity_bound(grid, faces),
            dt_cap,
            next_record - t,
            config.t_end - t,
        )
        if not math.isfinite(dt) or dt <= 0.0:
            raise RuntimeError(f"degenerate step size {dt!r} at t = {t!r}")
        steps += 1
        try:
            new, outflux, resolved = advance(state, faces, config, dt)
        except NonFiniteError as exc:
            exc.time, exc.step = t + dt, steps
            raise
        changed = new.shape[0]
        values[:changed] = new
        np.multiply(new, vol[:changed], out=cell_mass[:changed])
        t += dt
        outflow_total += outflux
        full_grid_solves += resolved
        if t >= next_record - tiny:
            sample(t)
            next_record += record_dt
    if t > times[-1] + tiny:
        sample(t)

    mass_series = np.asarray(masses)
    return TrajectoryRecord(
        grid=grid,
        epsilon=config.epsilon,
        scale=scale,
        kernel_name=kernel.name(),
        times=np.asarray(times),
        mass=mass_series,
        truncated_moment=np.asarray(moments),
        concentration=np.asarray(concentrations),
        outflow_cumulative=np.asarray(outflows),
        lp={1.0: mass_series, **{p: np.asarray(v) for p, v in lp_series.items()}},
        h1=np.asarray(h1_series) if h1_series is not None else None,
        snapshots=np.asarray(snaps) if snaps is not None else None,
        full_grid_solves=full_grid_solves,
    )
