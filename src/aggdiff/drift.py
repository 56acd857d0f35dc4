"""Radial drift velocity induced by the interaction kernel.

The drift is a linear operator on the cell masses m_j = u_j vol_j:
V_i = sum_j W_ij m_j. ``build_interaction_matrix`` returns it as a
``DriftOperator`` whose ``apply(masses)`` computes V and post-checks the
convolution bound |V| <= |k'|_sup * mass.

For N >= 2, W_ij is the angular average over the unit sphere of
k'(d) (r - rho cos t)/d with d the chord distance to a source at radius
rho. The angular integral uses Gauss-Legendre nodes on [0, pi]; no special
diagonal split is needed: at r = rho the integrand reduces to
k'(2 r sin(t/2)) sin(t/2) sin^{N-2} t, which is smooth for smooth k'; the
chord distance is floored at 1e-12 only to protect the 0/0 ratio. W is
never formed. The operator is a HODLR matrix (hierarchical off-diagonal low
rank): the index range is halved recursively down to dense diagonal leaves,
and each off-diagonal block is stored as U Vt, found by adaptive cross
approximation from single sampled rows and columns. The quadrature order
doubles until the compressed operator's velocity on a fixed smooth
reference bump changes by less than a relative tolerance, and a probe at
the end of the build compares one exactly computed row per dense leaf with
the operator.

In one dimension the convolution over the mirrored line is exact for even
data, and on the uniform cell-centred grid W_ij =
(k'(|r_i - r_j|) sign(r_i - r_j) + k'(r_i + r_j))/2 is Toeplitz in i - j
plus Hankel in i + j. It is never formed either. A constant gradient
k' = c (``neg_abs``, and the zero kernel) gives V = c (cumsum(m) - m/2) in
O(n); any other kernel goes through FFT convolutions with spectra computed
once per grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .grid import DensityField, RadialGrid
from .kernels import KernelFamily, KernelSpec, kdoubleprime, min_attraction_limit

# Every entry of W is at most |k'|_sup in size, so an entrywise error e
# gives |V_H - W m| <= e * mass. The cross approximation stops at an
# entrywise residual of _ACA_TOL |k'|_sup; the build-time probe enforces
# the apply error _APPLY_TOL |k'|_sup * mass, with room for the residual
# left outside the sampled rows and columns.
_ACA_TOL = 1e-12
_APPLY_TOL = 1e-10
# Largest dense diagonal block of the hierarchical operator.
_LEAF = 128
# Rank at which an off-diagonal block is given up as incompressible; the
# blocks of neg_abs and exponential reach 22 at n = 8000 (N = 2).
_MAX_RANK = 48
# Gauss-Legendre order doubling: first order, last order allowed, and the
# relative change of the reference velocity that counts as converged.
_START_ORDER = 16
_MAX_ORDER = 2048
_ORDER_REL_TOL = 1e-6


class QuadratureError(RuntimeError):
    """Angular quadrature failed to converge under order doubling."""


class CompressionError(RuntimeError):
    """The compressed N >= 2 drift operator missed its accuracy bound."""


@dataclass(frozen=True)
class DriftOperator:
    """Linear map from cell masses to the radial drift velocity."""

    grid: RadialGrid
    kernel_name: str
    kprime_sup_norm: float
    quadrature_order: int

    def apply(self, masses: np.ndarray) -> np.ndarray:
        """V_i = sum_j W_ij masses_j, post-checked against |V| <= |k'|_sup * mass.

        A non-finite V fails the check.
        """
        v = self._product(masses)
        bound = self.kprime_sup_norm * float(np.sum(masses))
        vmax = max(float(v.max()), -float(v.min()))
        if not vmax <= bound * (1.0 + 1e-9) + 1e-13:
            raise RuntimeError(f"drift bound violated: |V| = {vmax:g} > {bound:g}")
        return v

    def _product(self, masses: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class HierarchicalDrift(DriftOperator):
    """N >= 2 drift as a HODLR matrix on indices padded to ``leaf * 2**depth``.

    The padded range is halved ``depth`` times. ``leaves`` (2**depth, leaf,
    leaf) holds the dense diagonal blocks. ``levels[l]`` is (U, Vt) of
    shapes (2**l, 2, h, k) and (2**l, 2, k, h), h the half size at level
    l: [p, s] is the off-diagonal block of node p that reads half s and
    writes half 1 - s, approximated by U @ Vt (zero-padded to the level's
    largest rank k). ``dense`` holds (row start, row stop, column start,
    column stop, block) for any off-diagonal block that did not compress;
    its (U, Vt) slot is zero. Padded rows and columns are zero.
    """

    leaves: np.ndarray = field(repr=False)
    levels: tuple = field(repr=False)
    dense: tuple = field(repr=False)

    def _product(self, masses):
        count, leaf = self.leaves.shape[:2]
        x = np.zeros(count * leaf)
        x[: masses.shape[0]] = masses
        v = np.matmul(self.leaves, x.reshape(count, leaf, 1)).reshape(-1)
        for u, vt in self.levels:
            halves = x.reshape(u.shape[0], 2, u.shape[2], 1)
            v.reshape(u.shape[0], 2, u.shape[2])[:, ::-1] += (u @ (vt @ halves))[..., 0]
        v = v[: masses.shape[0]]
        for r0, r1, c0, c1, block in self.dense:
            v[r0:r1] += block @ masses[c0:c1]
        return v


@dataclass(frozen=True)
class ConstantGradientDrift(DriftOperator):
    """1-D drift of a kernel with k' = ``kprime`` everywhere: O(n) prefix sums.

    W_ij = kprime for j < i, kprime/2 for j = i and 0 for j > i. With
    kprime = 0 it is the zero drift of the zero kernel in every dimension.
    """

    kprime: float

    def _product(self, masses):
        return self.kprime * (np.cumsum(masses) - 0.5 * masses)


@dataclass(frozen=True)
class SpectralDrift(DriftOperator):
    """1-D drift of a general kernel as two FFT convolutions.

    With r_i = (i + 1/2) dr, the near part is the convolution of m with
    a_k = k'(|k| dr) sign(k), k = -(n-1)..n-1, and the mirrored part is the
    convolution of reversed m with b_s = k'((s + 1) dr), s = 0..2n-2; both
    are read off at output indices n-1..2n-2, which a cyclic length of at
    least 2n - 1 leaves free of wrap-around.
    """

    near_spectrum: np.ndarray = field(repr=False)
    mirror_spectrum: np.ndarray = field(repr=False)
    size: int

    def _product(self, masses):
        n = masses.shape[0]
        spectrum = (
            self.near_spectrum * np.fft.rfft(masses, self.size)
            + self.mirror_spectrum * np.fft.rfft(masses[::-1], self.size)
        )
        return 0.5 * np.fft.irfft(spectrum, self.size)[n - 1 : 2 * n - 1]


def _spectral_drift(grid: RadialGrid, kernel: KernelSpec) -> SpectralDrift:
    n, dr = grid.n, grid.dr
    size = 1 << (2 * n - 2).bit_length()  # power of two >= 2n - 1
    offsets = np.arange(-(n - 1), n, dtype=np.float64)
    sums = np.arange(1, 2 * n, dtype=np.float64)
    near = _accel.kprime_array(kernel.code, np.abs(offsets) * dr, kernel.s_nodes, kernel.kprime_nodes)
    mirror = _accel.kprime_array(kernel.code, sums * dr, kernel.s_nodes, kernel.kprime_nodes)
    return SpectralDrift(
        grid, kernel.name(), kernel.kprime_sup_norm, 0,
        np.fft.rfft(near * np.sign(offsets), size), np.fft.rfft(mirror, size), size,
    )


def _angular_nodes(dimension: int, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * np.pi * (x + 1.0)
    glw = 0.5 * np.pi * w
    wts = np.sin(theta) ** (dimension - 2) * glw
    return np.cos(theta), wts, float(np.sum(wts))


def _check_tabulated_range(kernel: KernelSpec, grid: RadialGrid):
    if kernel.is_tabulated and kernel.s_nodes[-1] < 2.0 * grid.r_max:
        raise ValueError(
            "tabulated kernel samples must reach twice the grid radius "
            f"({2.0 * grid.r_max:g}); last sample at {kernel.s_nodes[-1]:g}"
        )


def _entry_sampler(dimension: int, kernel: KernelSpec, order: int):
    """entries(r_rows, rho_cols) -> W at those radii, at a quadrature order."""
    cos_t, wts, wsum = _angular_nodes(dimension, order)

    def entries(r_rows, rho_cols):
        return _accel.entries_nd(r_rows, rho_cols, kernel.code, kernel.s_nodes, kernel.kprime_nodes, cos_t, wts, wsum)

    return entries


def _cross_approximation(entries, r_rows, rho_cols, tol):
    """(U, Vt) with entries(r_rows, rho_cols) ~ U @ Vt: ACA with partial pivoting.

    Each step samples one residual row, pivots on its largest entry and
    samples that column; the next row is the unused one where the column
    residual is largest. It stops once a sampled row and column both have
    a residual of at most ``tol`` in every entry. A row whose residual is
    already that small adds no term. Returns None once the rank reaches
    _MAX_RANK or mn / (2 (m + n)), where U and Vt would cost half as much
    as the dense block: such a block (a tabulated k' with kinks, say) is
    stored dense.
    """
    m, n = r_rows.size, rho_cols.size
    max_rank = min(_MAX_RANK, m * n // (2 * (m + n)))
    us, vs = [], []
    unused = np.ones(m, dtype=bool)
    i = 0
    while True:
        if len(us) >= max_rank:
            return None
        unused[i] = False
        row = entries(r_rows[i : i + 1], rho_cols)[0]
        if us:
            row -= np.array([u[i] for u in us]) @ np.array(vs)
        j = int(np.argmax(np.abs(row)))
        col = entries(r_rows, rho_cols[j : j + 1])[:, 0]
        if us:
            col -= np.array(us).T @ np.array([v[j] for v in vs])
        if np.max(np.abs(col)) <= tol:  # |row[j]| = max |row| <= max |col|
            break
        if abs(row[j]) > tol:
            us.append(col)
            vs.append(row / row[j])
        candidates = np.where(unused, np.abs(col), -1.0)
        i = int(np.argmax(candidates))
        if candidates[i] < 0.0:
            break
    return np.array(us).reshape(-1, m).T, np.array(vs).reshape(-1, n)


def _hierarchical_drift(grid: RadialGrid, kernel: KernelSpec, order: int) -> HierarchicalDrift:
    """The HODLR operator of W at a quadrature order, from sampled entries only."""
    entries = _entry_sampler(grid.dimension, kernel, order)
    r, n = grid.r_centers, grid.n
    tol = _ACA_TOL * kernel.kprime_sup_norm
    depth = 0
    while -(-n // 2**depth) > _LEAF:
        depth += 1
    leaf = -(-n // 2**depth)
    size = leaf << depth

    def span(start, length):  # the real (unpadded) indices of a padded range
        return min(n, start), min(n, start + length)

    leaves = np.zeros((2**depth, leaf, leaf))
    for p in range(2**depth):
        a, b = span(p * leaf, leaf)
        leaves[p, : b - a, : b - a] = entries(r[a:b], r[a:b])
    levels, dense = [], []
    for level in range(depth):
        half = size >> (level + 1)
        factors = {}
        for p in range(2**level):
            for s in (0, 1):
                rows = span((2 * p + 1 - s) * half, half)
                cols = span((2 * p + s) * half, half)
                if rows[0] == rows[1] or cols[0] == cols[1]:
                    continue
                uv = _cross_approximation(entries, r[slice(*rows)], r[slice(*cols)], tol)
                if uv is None:
                    dense.append(rows + cols + (entries(r[slice(*rows)], r[slice(*cols)]),))
                else:
                    factors[p, s] = uv
        rank = max((u.shape[1] for u, _ in factors.values()), default=0)
        u_all = np.zeros((2**level, 2, half, rank))
        vt_all = np.zeros((2**level, 2, rank, half))
        for (p, s), (u, vt) in factors.items():
            u_all[p, s, : u.shape[0], : u.shape[1]] = u
            vt_all[p, s, : vt.shape[0], : vt.shape[1]] = vt
        levels.append((u_all, vt_all))
    return HierarchicalDrift(
        grid, kernel.name(), kernel.kprime_sup_norm, order, leaves, tuple(levels), tuple(dense)
    )


def _probe(op: HierarchicalDrift, kernel: KernelSpec) -> None:
    """Compare exactly computed rows of W with the operator on positive masses.

    One row from the middle of each leaf, so every block of the operator
    meets a probe row. The masses are positive with a fixed pseudo-random
    spread, so that block errors cannot cancel by symmetry. Raises
    CompressionError when the gap exceeds _APPLY_TOL |k'|_sup * mass.
    """
    grid = op.grid
    r = grid.r_centers
    count, leaf = op.leaves.shape[:2]
    rows = np.unique(np.minimum(np.arange(leaf // 2, count * leaf, leaf), grid.n - 1))
    masses = grid.cell_volumes * np.random.default_rng(0).uniform(0.5, 1.5, grid.n)
    exact = _entry_sampler(grid.dimension, kernel, op.quadrature_order)(r[rows], r) @ masses
    gap = float(np.max(np.abs(op.apply(masses)[rows] - exact)))
    bound = _APPLY_TOL * op.kprime_sup_norm * float(np.sum(masses))
    if not gap <= bound:
        raise CompressionError(
            f"compressed drift operator off by {gap:g} on the probe rows (allowed {bound:g})"
        )


def build_interaction_matrix(
    grid: RadialGrid,
    kernel: KernelSpec,
    quadrature_order: int | None = None,
) -> DriftOperator:
    """Build the drift operator for a grid/kernel pair.

    In one dimension the operator is matrix-free and the quadrature
    arguments are ignored (the reported order is 0); so is the zero
    kernel's in every dimension. For N >= 2 it is a HODLR matrix whose
    Gauss-Legendre order doubles from ``_START_ORDER`` until the velocity
    it induces on a fixed smooth reference bump changes by less than
    ``_ORDER_REL_TOL`` (sup norm, relative); pass ``quadrature_order`` to
    pin the order instead. Raises QuadratureError when ``_MAX_ORDER`` is
    reached without convergence, and CompressionError when the final
    operator misses exactly computed rows of W by more than
    1e-10 |k'|_sup * mass.
    """
    _check_tabulated_range(kernel, grid)
    if kernel.family is KernelFamily.ZERO:
        return ConstantGradientDrift(grid, kernel.name(), 0.0, 0, 0.0)
    if grid.dimension == 1:
        if kernel.family is KernelFamily.NEG_ABS:
            return ConstantGradientDrift(grid, kernel.name(), kernel.kprime_sup_norm, 0, -1.0)
        return _spectral_drift(grid, kernel)
    if quadrature_order is not None:
        op = _hierarchical_drift(grid, kernel, quadrature_order)
    else:
        u_ref = np.exp(-((grid.r_centers / (0.25 * grid.r_max)) ** 2)) * grid.cell_volumes
        order = _START_ORDER
        op = _hierarchical_drift(grid, kernel, order)
        v_prev = op.apply(u_ref)
        while True:
            if order * 2 > _MAX_ORDER:
                raise QuadratureError(f"angular quadrature not converged at order {_MAX_ORDER}")
            order *= 2
            op = _hierarchical_drift(grid, kernel, order)
            v_cur = op.apply(u_ref)
            change = float(np.max(np.abs(v_cur - v_prev)))
            if change <= _ORDER_REL_TOL * max(float(np.max(np.abs(v_cur))), 1e-30):
                break
            v_prev = v_cur
    _probe(op, kernel)
    return op


def apply_drift(operator: DriftOperator, field: DensityField) -> np.ndarray:
    """Radial drift velocity of a field, V = operator.apply(u * vol)."""
    if field.grid != operator.grid:
        raise ValueError("field and drift operator live on different grids")
    return operator.apply(field.values * field.grid.cell_volumes)


# ---------------------------------------------------------------------------
# gradient-jump identity (dimension 1)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JumpIdentityResult:
    residual: float
    sign: int
    attraction_limit: float


def jump_identity_residual(kernel: KernelSpec, v: DensityField) -> JumpIdentityResult:
    """Residual of d/dx (K' * v) = s * 2 kappa * v + k''(|.|) * v, s in {+1,-1}.

    K'(x) = k'(|x|) sign(x) jumps at the origin by twice the small-scale
    attraction limit kappa; the identity is checked on the even extension
    of ``v`` with the sign chosen to minimise the sup-norm residual, and
    both the residual and the selected sign are reported.
    """
    if v.grid.dimension != 1:
        raise ValueError("the jump identity is one-dimensional")
    _check_tabulated_range(kernel, v.grid)
    grid = v.grid
    dr = grid.dr
    m = 2 * grid.n
    vals = np.concatenate([v.values[::-1], v.values])
    offsets = np.arange(-(m - 1), m, dtype=np.float64) * dr
    kp_line = np.where(
        offsets == 0.0,
        0.0,
        _accel.kprime_array(kernel.code, np.abs(offsets), kernel.s_nodes, kernel.kprime_nodes)
        * np.sign(offsets),
    )
    kpp_line = kdoubleprime(kernel, np.maximum(np.abs(offsets), 1e-300))
    conv_kp = np.convolve(vals, kp_line, mode="full")[m - 1 : 2 * m - 1] * dr
    conv_kpp = np.convolve(vals, kpp_line, mode="full")[m - 1 : 2 * m - 1] * dr
    deriv = (conv_kp[2:] - conv_kp[:-2]) / (2.0 * dr)
    kappa = min_attraction_limit(kernel).value
    best = None
    for sign in (1, -1):
        candidate = sign * 2.0 * kappa * vals[1:-1] + conv_kpp[1:-1]
        residual = float(np.max(np.abs(deriv - candidate)))
        if best is None or residual < best[0]:
            best = (residual, sign)
    return JumpIdentityResult(best[0], best[1], kappa)
