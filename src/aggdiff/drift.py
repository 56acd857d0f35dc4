"""Radial drift velocity induced by the interaction kernel.

The drift is a linear operator on the cell masses m_j = u_j vol_j:
V_i = sum_j W_ij m_j. ``build_interaction_matrix`` returns it as a
``DriftOperator`` whose ``apply(masses)`` computes V and post-checks the
convolution bound |V| <= |k'|_sup * mass.

For N >= 2, W_ij is the angular average over the unit sphere of
k'(d) (r - rho cos t)/d with d the chord distance to a source at radius
rho, and the operator holds W as a dense matrix. The angular integral uses
Gauss-Legendre nodes on [0, pi] with order doubling until the induced
velocity on a smooth reference bump changes by less than a relative
tolerance. No special diagonal split is needed: at r = rho the integrand
reduces to k'(2 r sin(t/2)) sin(t/2) sin^{N-2} t, which is smooth for
smooth k'; the chord distance is floored at 1e-12 only to protect the 0/0
ratio.

In one dimension the convolution over the mirrored line is exact for even
data, and on the uniform cell-centred grid W_ij =
(k'(|r_i - r_j|) sign(r_i - r_j) + k'(r_i + r_j))/2 is Toeplitz in i - j
plus Hankel in i + j. It is never formed. A constant gradient k' = c
(``neg_abs``, and the zero kernel) gives V = c (cumsum(m) - m/2) in O(n);
any other kernel goes through FFT convolutions with spectra computed once
per grid. Only the dense N >= 2 matrices can go to the binary disk cache.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field

import numpy as np

from . import _accel
from .grid import DensityField, RadialGrid
from .kernels import KernelFamily, KernelSpec, kdoubleprime, min_attraction_limit

MAGIC = b"AGDM"
FORMAT_VERSION = 1

# k' of the kernels with a constant gradient, which have an O(n) 1-D drift.
_CONSTANT_KPRIME = {KernelFamily.NEG_ABS: -1.0, KernelFamily.ZERO: 0.0}


class QuadratureError(RuntimeError):
    """Angular quadrature failed to converge under order doubling."""


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
        vmax = float(np.max(np.abs(v))) if v.size else 0.0
        if not vmax <= bound * (1.0 + 1e-9) + 1e-13:
            raise RuntimeError(f"drift bound violated: |V| = {vmax:g} > {bound:g}")
        return v

    def _product(self, masses: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class InteractionMatrix(DriftOperator):
    """Dense drift matrix (N >= 2)."""

    weights: np.ndarray = field(repr=False)

    def _product(self, masses):
        return self.weights @ masses


@dataclass(frozen=True)
class ConstantGradientDrift(DriftOperator):
    """1-D drift of a kernel with k' = ``kprime`` everywhere: O(n) prefix sums.

    W_ij = kprime for j < i, kprime/2 for j = i and 0 for j > i.
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


def _build_weights(grid: RadialGrid, kernel: KernelSpec, order: int) -> np.ndarray:
    r = grid.r_centers
    cos_t, wts, wsum = _angular_nodes(grid.dimension, order)
    return _accel.build_matrix_nd(r, kernel.code, kernel.s_nodes, kernel.kprime_nodes, cos_t, wts, wsum)


def build_interaction_matrix(
    grid: RadialGrid,
    kernel: KernelSpec,
    rel_tol: float = 1e-6,
    start_order: int = 16,
    max_order: int = 2048,
    quadrature_order: int | None = None,
) -> DriftOperator:
    """Build the drift operator for a grid/kernel pair.

    In one dimension the operator is matrix-free and the quadrature
    arguments are ignored (the reported order is 0). For N >= 2 it holds
    the dense matrix: the Gauss-Legendre order doubles from
    ``start_order`` until the velocity induced on a fixed smooth reference
    bump changes by less than ``rel_tol`` (sup norm, relative); pass
    ``quadrature_order`` to pin the order instead. Raises QuadratureError
    when ``max_order`` is reached without convergence.
    """
    _check_tabulated_range(kernel, grid)
    if grid.dimension == 1:
        if kernel.family in _CONSTANT_KPRIME:
            return ConstantGradientDrift(
                grid, kernel.name(), kernel.kprime_sup_norm, 0, _CONSTANT_KPRIME[kernel.family]
            )
        return _spectral_drift(grid, kernel)
    if kernel.family is KernelFamily.ZERO:
        weights = np.zeros((grid.n, grid.n))
        return InteractionMatrix(grid, kernel.name(), 0.0, 0, weights)
    if quadrature_order is not None:
        weights = _build_weights(grid, kernel, quadrature_order)
        return InteractionMatrix(grid, kernel.name(), kernel.kprime_sup_norm, quadrature_order, weights)

    u_ref = np.exp(-((grid.r_centers / (0.25 * grid.r_max)) ** 2)) * grid.cell_volumes
    order = start_order
    weights = _build_weights(grid, kernel, order)
    v_prev = weights @ u_ref
    while order * 2 <= max_order:
        order *= 2
        weights = _build_weights(grid, kernel, order)
        v_cur = weights @ u_ref
        change = float(np.max(np.abs(v_cur - v_prev)))
        if change <= rel_tol * max(float(np.max(np.abs(v_cur))), 1e-30):
            return InteractionMatrix(grid, kernel.name(), kernel.kprime_sup_norm, order, weights)
        v_prev = v_cur
    raise QuadratureError(f"angular quadrature not converged at order {max_order}")


def apply_drift(operator: DriftOperator, field: DensityField) -> np.ndarray:
    """Radial drift velocity of a field, V = operator.apply(u * vol)."""
    if field.grid is not operator.grid and field.grid.key() != operator.grid.key():
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


# ---------------------------------------------------------------------------
# binary matrix cache
# ---------------------------------------------------------------------------

def matrix_cache_key(matrix: InteractionMatrix) -> str:
    return json.dumps(
        {
            "grid": matrix.grid.key(),
            "kernel": matrix.kernel_name,
            "order": matrix.quadrature_order,
            "sup": matrix.kprime_sup_norm,
        },
        sort_keys=True,
    )


def save_interaction_matrix(matrix: InteractionMatrix, path) -> None:
    """Write header (magic, version, key) + row-major float64 weights.

    Only dense (N >= 2) matrices can be cached; a matrix-free 1-D operator
    is rejected with ValueError.
    """
    if not isinstance(matrix, InteractionMatrix):
        raise ValueError(
            "only dense N >= 2 interaction matrices can be cached; "
            f"the {matrix.grid.dimension}-D drift operator is matrix-free"
        )
    key = matrix_cache_key(matrix).encode()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", FORMAT_VERSION, len(key)))
        fh.write(key)
        fh.write(struct.pack("<I", matrix.grid.n))
        fh.write(np.ascontiguousarray(matrix.weights).tobytes())


def load_interaction_matrix(path, grid: RadialGrid, kernel: KernelSpec) -> InteractionMatrix:
    """Load a cached matrix, verifying it matches the grid/kernel pair."""
    with open(path, "rb") as fh:
        if fh.read(4) != MAGIC:
            raise ValueError(f"{path}: not an interaction-matrix cache file")
        version, key_len = struct.unpack("<II", fh.read(8))
        if version != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported cache version {version}")
        key = json.loads(fh.read(key_len).decode())
        (n,) = struct.unpack("<I", fh.read(4))
        data = np.frombuffer(fh.read(n * n * 8), dtype=np.float64).reshape(n, n).copy()
    if key["grid"] != grid.key() or key["kernel"] != kernel.name():
        raise ValueError(f"{path}: cache key does not match the requested grid/kernel")
    return InteractionMatrix(grid, key["kernel"], key["sup"], key["order"], data)
