"""Radial interaction kernels K(x) = k(|x|) and their attraction floors.

The concentration results assume a bounded gradient k' that is genuinely
attractive at small scales. The product enforces both where they act: a
tabulated kernel with a non-finite sample is refused when it is read, and
``analysis.compute_constants`` refuses a kernel whose attraction floor
-sup k' on (0, scale) is not positive.

Built-in families: k(s) = -s (constant unit attraction), k(s) = exp(-s),
the zero kernel (pure diffusion baseline; it has no attraction floor),
and tabulated kernels given by sampled k' values with linear
interpolation in between. ``KernelSpec.kprime`` evaluates k' for every
family; the drift builders and evaluators take it from there.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .grid import check_samples, read_samples


class KernelFamily(enum.Enum):
    NEG_ABS = "neg_abs"
    EXPONENTIAL = "exponential"
    ZERO = "zero"
    TABULATED = "tabulated"


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of an interaction kernel.

    ``kprime`` evaluates k'(s). ``s_nodes`` and ``kprime_nodes`` hold the
    samples of a tabulated kernel and are None for the analytic families.
    ``kprime_sup_norm`` is the exact sup of |k'| for every family. For a
    tabulated kernel it is the largest |k'| sample: ``kprime`` interpolates
    linearly between samples and clamps to the end samples outside them,
    so |k'| never exceeds it.
    """

    family: KernelFamily
    s_nodes: np.ndarray = field(default=None, repr=False)
    kprime_nodes: np.ndarray = field(default=None, repr=False)
    kprime_sup_norm: float = 0.0

    @property
    def is_tabulated(self) -> bool:
        return self.family is KernelFamily.TABULATED

    def kprime(self, s) -> np.ndarray:
        """Vectorised k'(s) at the distances ``s``.

        A tabulated kernel is clamped to its end samples outside them (k' is
        continuous at 0+ for admissible kernels); checking the grid against
        the last sample is the drift builder's job.
        """
        s = np.asarray(s, dtype=np.float64)
        if self.family is KernelFamily.NEG_ABS:
            return np.full(s.shape, -1.0)
        if self.family is KernelFamily.EXPONENTIAL:
            return -np.exp(-s)
        if self.family is KernelFamily.ZERO:
            return np.zeros(s.shape)
        return np.interp(s, self.s_nodes, self.kprime_nodes)

    def name(self) -> str:
        """Stable identifier written to run and sweep outputs; a tabulated kernel
        is named by a digest of its table, which imports ``hashlib`` on first use."""
        if not self.is_tabulated:
            return self.family.value
        import hashlib  # loads OpenSSL's libcrypto: about 3.4 MB resident per process

        digest = hashlib.sha256()
        digest.update(self.s_nodes.tobytes())
        digest.update(self.kprime_nodes.tobytes())
        return f"tabulated:{digest.hexdigest()[:16]}"


def neg_abs_kernel() -> KernelSpec:
    return KernelSpec(KernelFamily.NEG_ABS, kprime_sup_norm=1.0)


def exponential_kernel() -> KernelSpec:
    # |k'| = exp(-s) < 1 with sup approached at s -> 0.
    return KernelSpec(KernelFamily.EXPONENTIAL, kprime_sup_norm=1.0)


def zero_kernel() -> KernelSpec:
    return KernelSpec(KernelFamily.ZERO)


def tabulated_kernel(s_nodes, kprime_nodes) -> KernelSpec:
    s_nodes = np.ascontiguousarray(s_nodes, dtype=np.float64)
    kprime_nodes = np.ascontiguousarray(kprime_nodes, dtype=np.float64)
    if s_nodes.ndim != 1 or s_nodes.shape != kprime_nodes.shape or s_nodes.size < 2:
        raise ValueError("tabulated kernel needs matching 1-d sample arrays with >= 2 points")
    check_samples(s_nodes, kprime_nodes, ("s", "k'(s)"), "tabulated kernel samples")
    if s_nodes[0] <= 0.0:
        raise ValueError("tabulated kernel samples must have strictly increasing s > 0")
    sup = float(np.max(np.abs(kprime_nodes)))
    return KernelSpec(KernelFamily.TABULATED, s_nodes, kprime_nodes, sup)


def load_tabulated_kernel(path) -> KernelSpec:
    """Read (s, k'(s)) samples with ``grid.read_samples``: every sample
    finite, s strictly increasing (and s > 0)."""
    return tabulated_kernel(*read_samples(path, ("s", "k'(s)")))


def min_attraction(kernel: KernelSpec, scale: float) -> float:
    """-sup of k' on (0, scale): the attraction floor below the given scale,
    positive when the small-scale attraction hypothesis holds.

    Closed form for the built-in families. For tabulated kernels it is
    the sup of the piecewise-linear interpolant on [s_0, scale]; scales
    beyond the last sample are clamped onto it.
    """
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if kernel.family is KernelFamily.NEG_ABS:
        value = 1.0
    elif kernel.family is KernelFamily.EXPONENTIAL:
        value = np.exp(-scale)  # k' increasing, sup approached at s -> scale
    elif kernel.family is KernelFamily.ZERO:
        value = 0.0
    else:
        value = -_tabulated_sup(kernel, scale)
    return float(value)


def _tabulated_sup(kernel: KernelSpec, scale: float) -> float:
    """Max of the interpolated k' on [s_0, hi], hi = min(scale, s_last).

    A linear piece takes its maximum at an end, so the max is the largest
    sample with s <= hi or the interpolated value at hi.
    """
    s, kprime = kernel.s_nodes, kernel.kprime_nodes
    hi = min(scale, float(s[-1]))
    if hi <= s[0]:
        raise ValueError("scale lies below the tabulated sample range")
    return max(float(np.max(kprime[s <= hi])), float(np.interp(hi, s, kprime)))
