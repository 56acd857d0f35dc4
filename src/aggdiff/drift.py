"""Radial drift velocity induced by the interaction kernel.

The drift is a linear operator on the cell masses m_j = u_j vol_j:
V_i = sum_j W_ij m_j. ``build_interaction_matrix`` returns it as a
``DriftOperator``. ``velocity(masses, total, window, cells)`` returns V on
the first ``cells`` cells and the largest |V| over every cell, post-checked
against the convolution bound |V| <= |k'|_sup * mass; ``apply(masses)``
returns every row. W is never formed.

For N >= 2, W_ij is the angular average over the unit sphere of
k'(d) (r - rho cos t)/d with d the chord distance to a source at radius
rho. For the paper's kernel K = -|x| (k' = -1, ``neg_abs``) that average
has a closed form in every dimension, and no quadrature is used:

- N = 3: W = -(1 - rho^2/(3 r^2)) for rho < r, -2 r/(3 rho) for rho > r
  and -2/3 on the diagonal. Each side of the diagonal is a sum of
  products of a function of r and one of rho, so V is three prefix sums,
  O(n) per apply with no build (``ShellDrift``).
- N = 2: W = -((r + rho) E(m) + (r - rho) K(m))/(pi r), m = 4 r rho/(r +
  rho)^2, with the complete elliptic integrals computed by a fixed number
  of arithmetic-geometric mean steps (``_accel.entries_neg_abs_2d``).
  W depends on r/rho only, and on a uniform cell-centred grid r_i/rho_j =
  (i + 1/2)/(j + 1/2) whatever dr is, so W of an n-cell grid is the
  leading n x n block of W on the index grid r_i = i + 1/2. A grid's
  operator holds only its rim row W[n - 1] (``_neg_abs_2d``). Its products
  read one operator shared by every grid: the HODLR matrix on the index
  grid of a size class, the smallest ``_LEAF * 2**k`` cells that cover the
  rows a product reads, max(cells, window) (``_index_class``). The class
  is built on demand and grows when a product needs more rows; it never
  shrinks within a process.

For the other kernels the angular integral uses Gauss-Legendre nodes on
[0, pi]; no special diagonal split is needed: at r = rho the integrand
reduces to k'(2 r sin(t/2)) sin(t/2) sin^{N-2} t, which is smooth for
smooth k'; the chord distance is floored at 1e-12 only to protect the 0/0
ratio. The quadrature order doubles until the compressed operator's
velocity on a fixed smooth reference bump changes by less than a relative
tolerance.

Every N >= 2 operator other than ``ShellDrift`` is a HODLR matrix
(hierarchical off-diagonal low rank): the index range is halved
recursively down to dense diagonal leaves, and each off-diagonal block is
stored as U Vt, found by adaptive cross approximation from single sampled
rows and columns, whether the entries come from quadrature or from the
closed form. A probe at the end of the build compares one row per dense
leaf, computed from the same entries, with the operator. Each apply is windowed to the cells
that carry mass (``mass_window``): cells past the last one with mass above
eps M / n (eps the machine epsilon, M the mass sum) are dropped, which
moves V by at most eps |k'|_sup M, and only the blocks that meet the
remaining cells are read. The other kernels compute every row.

The constant-gradient, shell and 2-D ``neg_abs`` operators compute only
the rows below max(cells, window), from the masses below them. For
r > rho, |W(r, rho)| is constant in 1-D and grows with r in 3-D (as
1 - rho^2/(3 r^2)) and in 2-D (from 2/pi to 1), so no row past the
masses exceeds |V| at the last cell, which the stored rim row W[n - 1]
gives exactly. The masses past the window, at most eps M together, are
left out of that bound.

In one dimension the convolution over the mirrored line is exact for even
data, and on the uniform cell-centred grid W_ij =
(k'(|r_i - r_j|) sign(r_i - r_j) + k'(r_i + r_j))/2 is Toeplitz in i - j
plus Hankel in i + j. A constant gradient k' = c (``neg_abs``, and the
zero kernel) gives V = c (cumsum(m) - m/2) in O(n); any other kernel goes
through FFT convolutions with spectra computed once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .grid import RadialGrid
from .kernels import KernelFamily, KernelSpec, neg_abs_kernel

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
_EPS = float(np.finfo(np.float64).eps)
_GOLDEN = 0.5 * (1.0 + math.sqrt(5.0))


class QuadratureError(RuntimeError):
    """Angular quadrature failed to converge under order doubling."""


class CompressionError(RuntimeError):
    """The compressed N >= 2 drift operator missed its accuracy bound."""


def mass_window(masses: np.ndarray, total: float) -> int:
    """One past the last cell whose mass exceeds eps * total / n.

    eps is the float64 machine epsilon and n the cell count. The cells
    from the window on carry at most eps * total together. A total that
    is not finite (an overflowed or NaN mass sum) gives n: nothing can be
    dropped then. A zero total gives 0.
    """
    n = masses.shape[0]
    if not math.isfinite(total):
        return n
    above = masses[::-1] > _EPS * total / n  # from the last cell inwards
    tail = int(above.argmax())
    return n - tail if above[tail] else 0


@dataclass(frozen=True)
class DriftOperator:
    """Linear map from cell masses to the radial drift velocity."""

    grid: RadialGrid
    kprime_sup_norm: float
    quadrature_order: int
    rim = None  # row n - 1 of W where only the rows asked for are computed

    def apply(self, masses: np.ndarray) -> np.ndarray:
        """V_i = sum_j W_ij masses_j on every cell; see ``velocity``."""
        total = float(masses.sum())
        return self.velocity(masses, total, mass_window(masses, total), self.grid.n)[0]

    def velocity(self, masses: np.ndarray, total: float, window: int, cells: int):
        """(V on the first ``cells`` cells, max |V| over every cell).

        ``masses`` are nonnegative, ``total`` is their sum and ``window``
        their ``mass_window``, which the solver computes once per step.
        With a ``rim`` row only the rows below max(cells, window) are
        computed, and |V| at the last cell, rim . masses, bounds every row
        past them; otherwise every row is. Those |V| are post-checked
        against |k'|_sup * total. Masses of another length than the grid
        raise ValueError; a NaN or infinite mass sum raises before the
        product, and a non-finite V fails the check.
        """
        n = self.grid.n
        if masses.shape != (n,):
            raise ValueError("masses and drift operator live on different grids")
        if not math.isfinite(total):
            raise RuntimeError(f"drift bound violated: the mass sum is {total:g}")
        rows = n if self.rim is None else max(cells, window)
        v = self._product(masses, window, rows)
        vmax = max(float(v.max()), -float(v.min()))  # NaN when V has one
        if rows < n:
            vmax = max(vmax, abs(float(self.rim[:window] @ masses[:window])))
        bound = self.kprime_sup_norm * total
        if not vmax <= bound * (1.0 + 1e-9) + 1e-13:
            raise RuntimeError(f"drift bound violated: |V| = {vmax:g} > {bound:g}")
        return v[:cells], vmax

    def _product(self, masses: np.ndarray, window: int, cells: int) -> np.ndarray:
        """V on at least the first ``cells`` cells, from the masses below ``window``."""
        raise NotImplementedError


@dataclass(frozen=True)
class HierarchicalDrift(DriftOperator):
    """N >= 2 drift as a HODLR matrix on indices padded to ``leaf * 2**depth``.

    The padded range is halved ``depth`` times. ``leaves`` (2**depth, leaf,
    leaf) holds the dense diagonal blocks. ``levels[l]`` is (U, Vt) of
    shapes (2**l, 2, h, k) and (2**l, 2, k, h), h the half size at level
    l. The off-diagonal block of node p that reads half s and writes half
    1 - s is approximated by U[p, 1 - s] @ Vt[p, s] (zero-padded to the
    level's largest rank k): U is stored under the half it writes and Vt
    under the half it reads, so each level adds to one contiguous prefix
    of V. ``dense`` holds (row start, row stop, column start, column stop,
    block) for any off-diagonal block that did not compress; its U and Vt
    slots are zero. Padded rows and columns are zero. The masses may be
    shorter than the operator (a grid that reads the shared 2-D
    ``neg_abs`` class, ``_index_class``) as long as they reach ``window``.

    The product is windowed to the cells that carry mass. The window J is
    passed in (``mass_window``: one past the last cell whose mass exceeds
    eps M / n), and the cells from J on are dropped. Their mass sums to at
    most eps M, so V moves by at most eps |k'|_sup M, roundoff of the
    bound |V| <= |k'|_sup M. Only the leaves, the level blocks and the
    dense-block columns that read [0, J) are used, and of those only the
    blocks that write rows below the row bound.
    """

    leaves: np.ndarray = field(repr=False)
    levels: tuple = field(repr=False)
    dense: tuple = field(repr=False)

    def _product(self, masses, window, cells):
        count, leaf = self.leaves.shape[:2]
        v = np.zeros(count * leaf)
        if window == 0:
            return v[:cells]
        x = np.zeros(count * leaf)
        x[:window] = masses[:window]
        stop = -(-window // leaf) * leaf
        np.matmul(self.leaves[: stop // leaf], x[:stop].reshape(-1, leaf, 1), out=v[:stop].reshape(-1, leaf, 1))
        for u, vt in self.levels:
            half = u.shape[2]
            reads = -(-window // half)  # halves that meet [0, J)
            full = reads // 2  # nodes whose two halves both do
            if full:
                halves = x[: full * 2 * half].reshape(full, 2, half, 1)
                v[: full * 2 * half] += (u[:full] @ (vt[:full] @ halves)[:, ::-1]).reshape(-1)
            start = reads * half
            if reads % 2 and start < cells:
                # Node ``full`` has mass in its first half only: one block,
                # which writes its second half from ``start``.
                rows = min(half, cells - start)
                v[start : start + rows] += u[full, 1, :rows] @ (vt[full, 0] @ x[start - half : start])
        v = v[:cells]
        for r0, r1, c0, c1, block in self.dense:
            if c0 < window and r0 < cells:
                r1, c1 = min(r1, cells), min(c1, window)
                v[r0:r1] += block[: r1 - r0, : c1 - c0] @ masses[c0:c1]
        return v


@dataclass(frozen=True)
class ConstantGradientDrift(DriftOperator):
    """1-D drift of a kernel with k' = ``kprime`` everywhere: O(n) prefix sums.

    W_ij = kprime for j < i, kprime/2 for j = i and 0 for j > i. With
    kprime = 0 it is the zero drift of the zero kernel in every dimension.
    ``rim`` is W[n - 1]: kprime in every column, kprime/2 in the last.
    """

    kprime: float
    rim: np.ndarray = field(repr=False)

    def _product(self, masses, window, cells):
        m = masses[:cells]
        return self.kprime * (np.cumsum(m) - 0.5 * m)


@dataclass(frozen=True)
class ShellDrift(DriftOperator):
    """3-D drift of K = -|x| (k' = -1): O(n) prefix sums.

    W(r, rho) = -(1 - rho^2/(3 r^2)) for rho < r, -2 r/(3 rho) for rho > r
    and -2/3 at rho = r, so V_i = -(A_i - B_i/(3 r_i^2)) - 2 (m_i + r_i C_i)/3
    with A_i and B_i the sums of m_j and rho_j^2 m_j over the cells inside
    cell i and C_i the sum of m_j/rho_j over the cells outside it, here
    only those below ``cells`` (the rest lie past the window). ``rim`` is
    W[n - 1].
    """

    rim: np.ndarray = field(repr=False)

    def _product(self, masses, window, cells):
        r = self.grid.r_centers[:cells]
        m = masses[:cells]
        second = m * (r * r)
        reciprocal = m / r
        inside = np.cumsum(m) - m
        inside -= (np.cumsum(second) - second) / (3.0 * r * r)
        outside = np.cumsum(reciprocal[::-1])[::-1] - reciprocal
        return -inside - (2.0 / 3.0) * (m + r * outside)


@dataclass(frozen=True)
class IndexGridDrift(DriftOperator):
    """2-D ``neg_abs`` drift of one grid, which holds only W[n - 1] (``rim``).

    Each product reads the shared class operator (``_index_class``).
    """

    rim: np.ndarray = field(repr=False)

    def _product(self, masses, window, cells):
        return _index_class(cells)._product(masses, window, cells)


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

    def _product(self, masses, window, cells):
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
    near = kernel.kprime(np.abs(offsets) * dr)
    mirror = kernel.kprime(sums * dr)
    return SpectralDrift(
        grid, kernel.kprime_sup_norm, 0,
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


def _entry_sampler(grid: RadialGrid, kernel: KernelSpec, order: int):
    """entries(rows, cols) -> W on the cells r[rows] x r[cols].

    ``rows`` is a slice or an index array and ``cols`` a slice. For
    ``neg_abs`` (N = 2) the entries are the closed form with the AGM step
    count of the grid's closest pair of cells, and ``order`` is not read.
    Otherwise they are Gauss-Legendre quadrature of that order, and the
    columns' chord geometry is formed once, here.
    """
    r = grid.r_centers
    if kernel.family is KernelFamily.NEG_ABS:
        steps = _accel.agm_steps(float(np.min(np.diff(r) / (r[1:] + r[:-1]))))

        def entries(rows, cols):
            return _accel.entries_neg_abs_2d(r[rows], r[cols], steps)

        return entries

    cos_t, wts, wsum = _angular_nodes(grid.dimension, order)
    along, across = _accel.chord_geometry(r, cos_t)
    weights = wts / wsum

    def entries(rows, cols):
        return _accel.entries_nd(r[rows], along[:, cols], across[:, cols], kernel.kprime, weights)

    return entries


def _cross_approximation(entries, rows, cols, tol):
    """(U, Vt) with entries(rows, cols) ~ U @ Vt: ACA with partial pivoting.

    ``rows`` and ``cols`` are (start, stop) cell ranges.

    Each step samples one residual row, pivots on its largest entry and
    samples that column; the next row is the unused one where the column
    residual is largest. It stops once a sampled row and column both have
    a residual of at most ``tol`` in every entry. A row whose residual is
    already that small adds no term. Returns None once the rank reaches
    _MAX_RANK or mn / (2 (m + n)), where U and Vt would cost half as much
    as the dense block: such a block (a tabulated k' with kinks, say) is
    stored dense. The factors are written into arrays preallocated at
    that largest rank.
    """
    (r0, r1), (c0, c1) = rows, cols
    m, n = r1 - r0, c1 - c0
    max_rank = min(_MAX_RANK, m * n // (2 * (m + n)))
    us = np.empty((max_rank, m))  # the columns of U, one per row
    vs = np.empty((max_rank, n))
    rank = 0
    unused = np.ones(m, dtype=bool)
    i = 0
    while True:
        if rank >= max_rank:
            return None
        unused[i] = False
        row = entries(slice(r0 + i, r0 + i + 1), slice(c0, c1))[0]
        if rank:
            row -= us[:rank, i] @ vs[:rank]
        j = int(np.argmax(np.abs(row)))
        col = entries(slice(r0, r1), slice(c0 + j, c0 + j + 1))[:, 0]
        if rank:
            col -= us[:rank].T @ vs[:rank, j]
        if np.max(np.abs(col)) <= tol:  # |row[j]| = max |row| <= max |col|
            break
        if abs(row[j]) > tol:
            us[rank] = col
            np.divide(row, row[j], out=vs[rank])
            rank += 1
        candidates = np.where(unused, np.abs(col), -1.0)
        i = int(np.argmax(candidates))
        if candidates[i] < 0.0:
            break
    return us[:rank].T, vs[:rank]


def _hierarchical_drift(grid: RadialGrid, kernel: KernelSpec, order: int) -> HierarchicalDrift:
    """The HODLR operator of W from sampled entries only.

    ``order`` is the quadrature order of the entries, 0 for the closed form
    of ``neg_abs`` (see ``_entry_sampler``); the operator reports it.
    """
    entries = _entry_sampler(grid, kernel, order)
    n = grid.n
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
        leaves[p, : b - a, : b - a] = entries(slice(a, b), slice(a, b))
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
                uv = _cross_approximation(entries, rows, cols, tol)
                if uv is None:
                    dense.append(rows + cols + (entries(slice(*rows), slice(*cols)),))
                else:
                    factors[p, s] = uv
        rank = max((u.shape[1] for u, _ in factors.values()), default=0)
        u_all = np.zeros((2**level, 2, half, rank))
        vt_all = np.zeros((2**level, 2, rank, half))
        for (p, s), (u, vt) in factors.items():
            u_all[p, 1 - s, : u.shape[0], : u.shape[1]] = u
            vt_all[p, s, : vt.shape[0], : vt.shape[1]] = vt
        levels.append((u_all, vt_all))
    return HierarchicalDrift(grid, kernel.kprime_sup_norm, order, leaves, tuple(levels), tuple(dense))


def _probe(op: HierarchicalDrift, kernel: KernelSpec) -> None:
    """Compare exactly computed rows of W with the operator on positive masses.

    The rows come from the same entry sampler as the operator: the closed
    form for ``neg_abs``, quadrature at the operator's order for the other
    kernels. So the probe checks the compression, not the quadrature. One
    row from the middle of each leaf, so every block of the operator meets
    a probe row. The masses are positive with a fixed irregular
    spread in [0.5, 1.5), 0.5 + frac(i phi) with phi the golden ratio, so
    that block errors cannot cancel by symmetry. Raises CompressionError
    when the gap exceeds _APPLY_TOL |k'|_sup * mass.
    """
    grid = op.grid
    count, leaf = op.leaves.shape[:2]
    rows = np.minimum(np.arange(leaf // 2, count * leaf, leaf), grid.n - 1)
    # The rows do not decrease and only the clipped tail repeats; np.unique
    # would load numpy.ma (8 ms) for this one call.
    rows = rows[: np.searchsorted(rows, grid.n - 1) + 1]
    spread = 0.5 + np.modf(np.arange(grid.n) * _GOLDEN)[0]
    masses = grid.cell_volumes * spread
    exact = _entry_sampler(grid, kernel, op.quadrature_order)(rows, slice(None)) @ masses
    gap = float(np.max(np.abs(op.apply(masses)[rows] - exact)))
    bound = _APPLY_TOL * op.kprime_sup_norm * float(np.sum(masses))
    if not gap <= bound:
        raise CompressionError(
            f"compressed drift operator off by {gap:g} on the probe rows (allowed {bound:g})"
        )


# The 2-D neg_abs operator of the largest size class a product has read
# (``_index_class``).
_shared = None


def _index_class(rows: int) -> HierarchicalDrift:
    """The shared 2-D ``neg_abs`` operator, grown to cover ``rows`` cells.

    The held class is reused when it has at least ``rows`` cells, so it
    never shrinks. Otherwise the smallest ``_LEAF * 2**k`` at least
    ``rows`` is built and probed on the index grid r_i = i + 1/2 of that
    many cells, so every build has leaves of exactly ``_LEAF`` cells. A
    build drops the held class first.
    """
    global _shared
    if _shared is None or _shared.grid.n < rows:
        size = _LEAF
        while size < rows:
            size *= 2
        _shared = None  # no reference to the old class outlives this line
        kernel = neg_abs_kernel()
        op = _hierarchical_drift(RadialGrid(2, 1.0, size), kernel, 0)
        _probe(op, kernel)
        _shared = op
    return _shared


def _neg_abs_2d(grid: RadialGrid, kernel: KernelSpec) -> IndexGridDrift:
    """The 2-D ``neg_abs`` operator of ``grid``: its rim row, no build.

    W depends on r/rho only, so the grid's W is the leading n x n block of
    W on the index grid r_i = i + 1/2, and ``rim`` is W[n - 1] on the radii
    i + 1/2, i < n. A product computes the rows below max(cells, window)
    only, from the masses below the window, and reads them from the
    shared operator of the size class that covers them (``_index_class``).
    ``apply`` asks for all n rows and so grows the class to cover n.
    """
    n = grid.n
    rim = _entry_sampler(RadialGrid(2, 1.0, n), kernel, 0)(slice(n - 1, n), slice(None))[0]
    return IndexGridDrift(grid, kernel.kprime_sup_norm, 0, rim)


def _constant_gradient(grid: RadialGrid, kprime: float, sup_norm: float) -> ConstantGradientDrift:
    rim = np.full(grid.n, kprime)
    rim[-1] = 0.5 * kprime
    return ConstantGradientDrift(grid, sup_norm, 0, kprime, rim)


def _shell_drift(grid: RadialGrid, kernel: KernelSpec) -> ShellDrift:
    rho = grid.r_centers
    rim = -(1.0 - rho * rho / (3.0 * rho[-1] * rho[-1]))
    rim[-1] = -2.0 / 3.0
    return ShellDrift(grid, kernel.kprime_sup_norm, 0, rim)


def build_interaction_matrix(grid: RadialGrid, kernel: KernelSpec) -> DriftOperator:
    """Build the drift operator for a grid/kernel pair.

    No quadrature is used and the reported order is 0 for the zero kernel
    and for ``neg_abs`` in every dimension, and for every kernel in one
    dimension. ``neg_abs`` is exact: prefix sums in one and three
    dimensions, and in two a rim row whose products read a HODLR matrix
    compressed from closed-form entries, shared by every grid and sized by
    the rows the products read (``_neg_abs_2d``). Every
    other kernel in N >= 2 is a HODLR matrix of Gauss-Legendre
    quadrature whose order doubles from ``_START_ORDER``
    until the velocity it induces on a fixed smooth reference bump changes
    by less than ``_ORDER_REL_TOL`` (sup norm, relative). Raises
    QuadratureError when ``_MAX_ORDER`` is reached without convergence.
    Every HODLR operator is probed, the shared 2-D ``neg_abs`` one when a
    product first needs it: CompressionError when it misses rows
    of W computed from the same entries it was compressed from by more
    than 1e-10 |k'|_sup * mass. For ``neg_abs`` those rows are the exact
    W. For the exponential and tabulated kernels they are quadrature at
    the chosen order, so the probe checks the compression and not the
    quadrature, whose near-diagonal error the bump test does not see
    either: at N = 2, n = 2599 the exponential kernel gets order 64, and
    its V on uniform random masses is 7.6e-8 |k'|_sup M off order-1024
    quadrature.
    """
    _check_tabulated_range(kernel, grid)
    if kernel.family is KernelFamily.ZERO:
        return _constant_gradient(grid, 0.0, 0.0)
    if kernel.family is KernelFamily.NEG_ABS:
        if grid.dimension == 1:
            return _constant_gradient(grid, -1.0, kernel.kprime_sup_norm)
        if grid.dimension == 3:
            return _shell_drift(grid, kernel)
        return _neg_abs_2d(grid, kernel)
    elif grid.dimension == 1:
        return _spectral_drift(grid, kernel)
    else:
        u_ref = np.exp(-((grid.r_centers / (0.25 * grid.r_max)) ** 2)) * grid.cell_volumes
        # Each order's operator is dropped before the next one is built:
        # only its reference velocity is compared.
        order = _START_ORDER
        v_prev = _hierarchical_drift(grid, kernel, order).apply(u_ref)
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
            del op
    _probe(op, kernel)
    return op
