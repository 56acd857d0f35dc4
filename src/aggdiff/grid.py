"""Radial mesh, density fields, and static functionals of a density.

The mesh is cell-centered with no node at the origin: cell i spans
[i*dr, (i+1)*dr) with center (i+1/2)*dr. Cell volumes are the exact
annular volumes sigma_N * (r_out^N - r_in^N) / N, so the discrete mass of
a field is the exact integral of its piecewise-constant representative
and telescopes to the volume of the truncated ball. In one dimension the
grid represents the positive half of an even density on the whole line
(sigma_1 = 2 accounts for both sides).
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np


def sphere_area(dimension: int) -> float:
    """Surface area of the unit sphere: 2 pi^{N/2} / Gamma(N/2)."""
    return 2.0 * math.pi ** (dimension / 2.0) / math.gamma(dimension / 2.0)


def _derived():
    # An array computed from (dimension, dr, n): left out of __init__, repr,
    # equality and hash, so grids compare and hash by those three numbers.
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform cell-centred radial mesh and the constants the step reuses.

    Besides the cell centres, face areas a_f and cell volumes vol_i, it holds
    ``face_sums`` (a_i + a_{i+1}, without the origin face a_0 and with the
    rim face a_n: the faces through which cell i diffuses), ``right_ratios``
    (a_{i+1}/vol_i, the last entry the rim ratio a_n/vol_{n-1}) and
    ``left_ratios`` (a_i/vol_i for i >= 1).
    """

    dimension: int
    dr: float
    n: int
    r_centers: np.ndarray = _derived()
    face_areas: np.ndarray = _derived()
    cell_volumes: np.ndarray = _derived()
    face_sums: np.ndarray = _derived()
    right_ratios: np.ndarray = _derived()
    left_ratios: np.ndarray = _derived()

    def __post_init__(self):
        if self.dimension not in (1, 2, 3):
            raise ValueError("dimension must be 1, 2 or 3")
        # Written so that NaN fails it.
        if not 0.0 < self.dr < math.inf or self.n < 3:
            raise ValueError("need a finite dr > 0 and at least 3 cells")
        sigma = sphere_area(self.dimension)
        faces = np.arange(self.n + 1, dtype=np.float64) * self.dr
        centers = (np.arange(self.n, dtype=np.float64) + 0.5) * self.dr
        volumes = sigma * np.diff(faces ** self.dimension) / self.dimension
        areas = sigma * faces ** (self.dimension - 1)
        sums = areas[1:].copy()
        sums[1:] += areas[1:-1]
        object.__setattr__(self, "r_centers", centers)
        object.__setattr__(self, "face_areas", areas)
        object.__setattr__(self, "cell_volumes", volumes)
        object.__setattr__(self, "face_sums", sums)
        object.__setattr__(self, "right_ratios", areas[1:] / volumes)
        object.__setattr__(self, "left_ratios", areas[1:-1] / volumes[1:])

    @classmethod
    def make(cls, dimension: int, r_max: float, dr: float) -> "RadialGrid":
        """Grid covering [0, r_max] with spacing dr (r_max rounded up to a face)."""
        n = max(3, int(math.ceil(r_max / dr - 1e-12)))
        return cls(dimension, dr, n)

    @property
    def r_max(self) -> float:
        return self.n * self.dr


@dataclass(frozen=True)
class DensityField:
    """Finite, nonnegative cell-averaged densities on a grid."""

    grid: RadialGrid
    values: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        if values.shape != (self.grid.n,):
            raise ValueError("values length must match the grid")
        # min and max propagate NaN, so these two reductions see every
        # non-finite value (a sum could overflow on finite data).
        low, high = float(values.min()), float(values.max())
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValueError("density values must be finite")
        if low < 0.0:
            raise ValueError("density values must be nonnegative")
        object.__setattr__(self, "values", values)


# ---------------------------------------------------------------------------
# functionals
# ---------------------------------------------------------------------------

def mass(field: DensityField) -> float:
    return float(np.dot(field.values, field.grid.cell_volumes))


def lp_norm(field: DensityField, p) -> float:
    """L^p norm for p in [1, inf]; p = inf is the cell maximum."""
    if p == np.inf:
        return float(np.max(field.values)) if field.values.size else 0.0
    p = float(p)
    if p < 1.0:
        raise ValueError("p must be >= 1")
    if p == 1.0:
        return mass(field)
    return float(np.dot(field.values ** p, field.grid.cell_volumes) ** (1.0 / p))


def h1_seminorm(field: DensityField) -> float:
    """Discrete H^1 seminorm of the even extension over the whole line.

    One-dimensional fields only: forward differences on the mirrored
    grid, including the jump onto the zero-padding beyond r_max. The
    across-origin difference of the even extension vanishes.
    """
    if field.grid.dimension != 1:
        raise ValueError("the H^1 seminorm is defined for dimension 1 only")
    dr = field.grid.dr
    u = field.values
    interior = np.diff(u) / dr
    rim = u[-1] / dr
    half = np.dot(interior, interior) * dr + rim * rim * dr
    return float(math.sqrt(2.0 * half))


def value_at_origin(field: DensityField) -> float:
    """Density at r = 0 by quadratic extrapolation in r^2 (even in r).

    Fitting a + b r^2 + c r^4 through the first three cell centers gives
    grid-independent weights 75/64, -25/128, 3/128; negative roundoff is
    clamped to zero.
    """
    u = field.values
    val = (75.0 / 64.0) * u[0] - (25.0 / 128.0) * u[1] + (3.0 / 128.0) * u[2]
    return max(float(val), 0.0)


def cutoff_profile(s):
    """Concave moment cutoff: s below 1/2, then 1 - (3/2 - s)^2 / 2, then 1.

    Satisfies 0 <= value <= min(s, 1) and slope in [0, 1]; the clamp makes
    the bounds exact against floating-point roundoff at the branch joins.
    """
    s = np.asarray(s, dtype=np.float64)
    mid = 1.0 - 0.5 * (1.5 - s) ** 2
    out = np.where(s <= 0.5, s, np.where(s >= 1.5, 1.0, mid))
    out = np.minimum(out, np.minimum(np.maximum(s, 0.0), 1.0))
    return float(out) if out.ndim == 0 else out


@functools.lru_cache(maxsize=1)
def _scale_weights(grid: RadialGrid, scale: float):
    """(cutoff(r / scale) on the cell centres, number of cells whose centre
    lies below 3 scale / 2), computed once per (grid, scale): a run samples
    the moment and the concentration at its one grid and scale hundreds of
    times. More entries would only keep the arrays of finished runs."""
    weights = cutoff_profile(grid.r_centers / scale)
    weights.flags.writeable = False
    return weights, int(np.searchsorted(grid.r_centers, 1.5 * scale))


def truncated_moment(field: DensityField, scale: float) -> float:
    """Scale-capped first moment: integral of cutoff(r/scale) * u.

    Uses the same quadrature as mass(), so the bound by the total mass
    holds discretely, not merely in the limit.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    w = _scale_weights(field.grid, scale)[0]
    return float(np.dot(w * field.values, field.grid.cell_volumes))


def capped_first_moment(field: DensityField, cap: float) -> float:
    """Integral of min(r, cap) * u, the admissibility moment."""
    if cap <= 0.0:
        raise ValueError("cap must be positive")
    w = np.minimum(field.grid.r_centers, cap)
    return float(np.dot(w * field.values, field.grid.cell_volumes))


def concentration_functional(field: DensityField, scale: float) -> float:
    """Origin-concentration functional.

    2 u(0) in one dimension; (N-1) * integral of u/|x| over the ball of
    radius 3*scale/2 for N >= 2, cells included when their center lies
    inside the ball.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    grid = field.grid
    if grid.dimension == 1:
        return 2.0 * value_at_origin(field)
    inside = _scale_weights(grid, scale)[1]  # r_centers increase: the ball is a prefix
    contrib = field.values[:inside] / grid.r_centers[:inside] * grid.cell_volumes[:inside]
    return float((grid.dimension - 1) * np.sum(contrib))


# ---------------------------------------------------------------------------
# initial conditions
# ---------------------------------------------------------------------------

def check_samples(x, y, names, what) -> None:
    """Raise ValueError unless every sample is finite and x strictly increases;
    ``names`` label x and y in the message, ``what`` is its subject."""
    finite = np.isfinite(x) & np.isfinite(y)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"{what} must be finite; got {names[0]} = {x[i]:g}, {names[1]} = {y[i]:g}")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError(f"{what} must have strictly increasing {names[0]}")


def read_samples(path, names):
    """(x, y) from a two-column whitespace text file with '#' comments: at
    least two samples, checked by ``check_samples``; every error names the
    file."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # an empty table: refused below
        data = np.loadtxt(path, comments="#", dtype=np.float64, ndmin=2)
    if data.shape[0] < 2:
        raise ValueError(f"{path}: expected at least two samples ({names[0]}, {names[1]}); got {data.shape[0]}")
    if data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns ({names[0]}, {names[1]})")
    check_samples(data[:, 0], data[:, 1], names, f"{path}: samples")
    return data[:, 0], data[:, 1]


@dataclass(frozen=True)
class GaussianBump:
    """Radial Gaussian exp(-r^2 / (2 width^2)), rescaled to the given mass."""

    mass: float
    width: float

    @property
    def support_radius(self) -> float:
        # Scale parameter of the bump; mass beyond 10 widths is < 1e-21.
        return self.width

    def profile(self, r: np.ndarray) -> np.ndarray:
        return np.exp(-0.5 * (r / self.width) ** 2)


@dataclass(frozen=True)
class AnnulusBump:
    """Indicator of the annulus r_inner <= r < r_outer, rescaled to mass."""

    mass: float
    r_inner: float
    r_outer: float

    @property
    def support_radius(self) -> float:
        return self.r_outer

    def profile(self, r: np.ndarray) -> np.ndarray:
        return ((r >= self.r_inner) & (r < self.r_outer)).astype(np.float64)


@dataclass(frozen=True)
class TabulatedProfile:
    """Radial profile sampled as (r, u(r)), linearly interpolated."""

    mass: float
    r_nodes: np.ndarray
    u_nodes: np.ndarray

    @classmethod
    def from_file(cls, path, mass: float) -> "TabulatedProfile":
        """Read (r, u(r)) samples with ``read_samples``; r and u must be
        nonnegative, as every density is."""
        r, u = read_samples(path, ("r", "u"))
        negative = (r < 0.0) | (u < 0.0)
        if negative.any():
            i = int(np.argmax(negative))
            raise ValueError(f"{path}: samples must be nonnegative; got r = {r[i]:g}, u = {u[i]:g}")
        return cls(mass, r, u)

    @property
    def support_radius(self) -> float:
        """Where the interpolant reaches 0 for good: the node after the last
        positive sample, or the last node if that sample is the last."""
        positive = np.flatnonzero(self.u_nodes > 0.0)
        last = positive[-1] + 1 if positive.size else self.r_nodes.size
        return float(self.r_nodes[min(last, self.r_nodes.size - 1)])

    def profile(self, r: np.ndarray) -> np.ndarray:
        # np.interp's slope form can land an ulp below 0 just short of a
        # zero sample; the clamp keeps the samples' sign.
        return np.maximum(np.interp(r, self.r_nodes, self.u_nodes, left=0.0, right=0.0), 0.0)


def make_initial_condition(spec, grid: RadialGrid) -> DensityField:
    """Sample a profile on the grid and rescale to the requested mass
    exactly; a negative sample fails in ``DensityField``."""
    if spec.mass <= 0.0:
        raise ValueError("initial data must have positive mass")
    values = np.asarray(spec.profile(grid.r_centers), dtype=np.float64)
    raw = float(np.dot(values, grid.cell_volumes))
    if raw <= 0.0:
        raise ValueError("initial profile has zero mass on this grid")
    return DensityField(grid, values * (spec.mass / raw))
