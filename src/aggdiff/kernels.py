"""Radial interaction kernels K(x) = k(|x|) and their attraction constants.

A kernel is admissible for the concentration checks when its gradient is
bounded and genuinely attractive at small scales: k' bounded, and
the minimal attraction -sup k' on (0, scale) positive for every scale,
with a positive limit as the scale shrinks to zero. In one dimension the
checks additionally require k'' integrable on (0, inf).

Built-in families: k(s) = -s (constant unit attraction), k(s) = exp(-s),
the zero kernel (pure diffusion baseline; deliberately fails the
attraction hypotheses), and tabulated kernels given by sampled k' values
with linear interpolation in between.
"""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from . import _accel


class KernelFamily(enum.Enum):
    NEG_ABS = "neg_abs"
    EXPONENTIAL = "exponential"
    ZERO = "zero"
    TABULATED = "tabulated"


_FAMILY_CODE = {
    KernelFamily.NEG_ABS: _accel.FAMILY_NEG_ABS,
    KernelFamily.EXPONENTIAL: _accel.FAMILY_EXPONENTIAL,
    KernelFamily.ZERO: _accel.FAMILY_ZERO,
    KernelFamily.TABULATED: _accel.FAMILY_TABULATED,
}

# Attraction-probe scales used by validate_hypotheses. The hypotheses only
# quantify over all scales; this probe set is an artifact choice.
PROBE_SCALES = (0.1, 1.0, 10.0)


@dataclass(frozen=True)
class KernelSpec:
    """Immutable description of an interaction kernel.

    ``kprime_sup_norm`` is exact for the built-in families and the sample
    maximum (a lower estimate) for tabulated kernels. ``kdoubleprime_l1``
    is the L1 norm of k'' on (0, inf); for tabulated kernels it is the
    total variation of the sampled gradient.
    """

    family: KernelFamily
    s_nodes: np.ndarray = field(default=None, repr=False)
    kprime_nodes: np.ndarray = field(default=None, repr=False)
    kprime_sup_norm: float = 0.0
    kdoubleprime_l1: float = 0.0

    @property
    def code(self) -> int:
        return _FAMILY_CODE[self.family]

    @property
    def is_tabulated(self) -> bool:
        return self.family is KernelFamily.TABULATED

    def name(self) -> str:
        """Stable identifier written to run and sweep outputs; a tabulated kernel
        is named by a digest of its table."""
        if not self.is_tabulated:
            return self.family.value
        digest = hashlib.sha256()
        digest.update(self.s_nodes.tobytes())
        digest.update(self.kprime_nodes.tobytes())
        return f"tabulated:{digest.hexdigest()[:16]}"


def neg_abs_kernel() -> KernelSpec:
    return KernelSpec(KernelFamily.NEG_ABS, _accel._EMPTY, _accel._EMPTY, 1.0, 0.0)


def exponential_kernel() -> KernelSpec:
    # |k'| = exp(-s) < 1 with sup approached at s -> 0; ||k''||_1 = 1.
    return KernelSpec(KernelFamily.EXPONENTIAL, _accel._EMPTY, _accel._EMPTY, 1.0, 1.0)


def zero_kernel() -> KernelSpec:
    return KernelSpec(KernelFamily.ZERO, _accel._EMPTY, _accel._EMPTY, 0.0, 0.0)


def tabulated_kernel(s_nodes, kprime_nodes) -> KernelSpec:
    s_nodes = np.ascontiguousarray(s_nodes, dtype=np.float64)
    kprime_nodes = np.ascontiguousarray(kprime_nodes, dtype=np.float64)
    if s_nodes.ndim != 1 or s_nodes.shape != kprime_nodes.shape or s_nodes.size < 2:
        raise ValueError("tabulated kernel needs matching 1-d sample arrays with >= 2 points")
    if s_nodes[0] <= 0.0 or np.any(np.diff(s_nodes) <= 0.0):
        raise ValueError("tabulated kernel samples must have strictly increasing s > 0")
    sup = float(np.max(np.abs(kprime_nodes)))
    tv = float(np.sum(np.abs(np.diff(kprime_nodes))))
    return KernelSpec(KernelFamily.TABULATED, s_nodes, kprime_nodes, sup, tv)


def load_tabulated_kernel(path) -> KernelSpec:
    """Read (s, k'(s)) samples from a two-column whitespace text file.

    Lines starting with '#' are ignored; s must be strictly increasing.
    """
    data = np.loadtxt(path, comments="#", dtype=np.float64)
    if data.ndim != 2 or data.shape[1] != 2:
        raise ValueError(f"{path}: expected two columns (s, k'(s))")
    return tabulated_kernel(data[:, 0], data[:, 1])


def kprime(kernel: KernelSpec, s):
    """Evaluate k'(s) for s > 0 (scalar or array).

    Tabulated kernels reject queries outside their sample range.
    """
    arr = np.asarray(s, dtype=np.float64)
    if np.any(arr <= 0.0):
        raise ValueError("k' is defined for s > 0 only")
    if kernel.is_tabulated:
        if np.any(arr < kernel.s_nodes[0]) or np.any(arr > kernel.s_nodes[-1]):
            raise ValueError("tabulated kernel queried outside its sample range")
    out = _accel.kprime_array(kernel.code, arr, kernel.s_nodes, kernel.kprime_nodes)
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


def kdoubleprime(kernel: KernelSpec, s):
    """Evaluate k''(s); piecewise-constant slopes for tabulated kernels."""
    arr = np.asarray(s, dtype=np.float64)
    if kernel.family is KernelFamily.NEG_ABS or kernel.family is KernelFamily.ZERO:
        out = np.zeros(arr.shape)
    elif kernel.family is KernelFamily.EXPONENTIAL:
        out = np.exp(-arr)
    else:
        slopes = np.diff(kernel.kprime_nodes) / np.diff(kernel.s_nodes)
        idx = np.clip(np.searchsorted(kernel.s_nodes, arr, side="right") - 1, 0, slopes.size - 1)
        out = slopes[idx]
    return float(out) if np.isscalar(s) or arr.ndim == 0 else out


class AttractionEstimate(NamedTuple):
    """Minimal attraction strength with its hypothesis verdicts.

    ``value`` is -sup k' over the probed range; ``attractive`` records
    whether the small-scale attraction hypothesis holds (value > 0);
    ``converged`` is False when a tabulated limit estimate failed to
    settle.
    """

    value: float
    attractive: bool
    converged: bool = True


def min_attraction(kernel: KernelSpec, scale: float, rel_tol: float = 1e-6) -> AttractionEstimate:
    """-sup of k' on (0, scale): the attraction floor below the given scale.

    Closed form for the built-in families. For tabulated kernels the sup
    of the piecewise-linear interpolant is taken over probe grids refined
    until two successive refinements agree within ``rel_tol``; scales
    outside the sample range are clamped onto it.
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
        value = -_tabulated_sup(kernel, scale, rel_tol)
    return AttractionEstimate(float(value), bool(value > 0.0))


def _tabulated_sup(kernel: KernelSpec, scale: float, rel_tol: float) -> float:
    lo = kernel.s_nodes[0]
    hi = min(scale, float(kernel.s_nodes[-1]))
    if hi <= lo:
        raise ValueError("scale lies below the tabulated sample range")
    inside = kernel.kprime_nodes[(kernel.s_nodes >= lo) & (kernel.s_nodes <= hi)]
    best = float(np.max(inside)) if inside.size else -np.inf
    m = 256
    prev = None
    for _ in range(16):
        probes = np.linspace(lo, hi, m)
        cur = max(best, float(np.max(np.interp(probes, kernel.s_nodes, kernel.kprime_nodes))))
        if prev is not None and abs(cur - prev) <= rel_tol * max(abs(cur), 1e-30):
            return cur
        prev = cur
        m *= 2
    return prev


def min_attraction_limit(kernel: KernelSpec, rel_tol: float = 1e-4) -> AttractionEstimate:
    """Small-scale limit of the attraction floor (scale -> 0).

    Closed form for built-ins; for tabulated kernels a Richardson
    extrapolation to zero from probe scales {1e-1, 1e-2, 1e-3}, flagged
    as non-converged when the last two tableau estimates disagree by more
    than ``rel_tol`` relative.
    """
    if kernel.family is KernelFamily.NEG_ABS:
        return AttractionEstimate(1.0, True)
    if kernel.family is KernelFamily.EXPONENTIAL:
        return AttractionEstimate(1.0, True)
    if kernel.family is KernelFamily.ZERO:
        return AttractionEstimate(0.0, False)
    scales = [s for s in (1e-1, 1e-2, 1e-3) if s > kernel.s_nodes[0]]
    if len(scales) < 2:
        value = min_attraction(kernel, max(2.0 * float(kernel.s_nodes[0]), 1e-3)).value
        return AttractionEstimate(value, bool(value > 0.0), False)
    # Richardson tableau with scale ratio 10; converged when the last two
    # column estimates agree.
    row = [min_attraction(kernel, s).value for s in scales]
    estimates = []
    for j in range(1, len(row)):
        row = [
            row[i] + (row[i] - row[i - 1]) / (10.0 ** j - 1.0)
            for i in range(1, len(row))
        ]
        estimates.append(row[-1])
    value = estimates[-1]
    converged = len(estimates) > 1 and abs(estimates[-1] - estimates[-2]) <= rel_tol * max(
        abs(estimates[-1]), 1e-30
    )
    return AttractionEstimate(float(value), bool(value > 0.0), bool(converged))


@dataclass(frozen=True)
class HypothesisCheck:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    kernel_name: str
    dimension: int
    checks: tuple

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def validate_hypotheses(kernel: KernelSpec, dimension: int) -> ValidationReport:
    """Check the admissibility hypotheses; failures are report entries."""
    if dimension not in (1, 2, 3):
        raise ValueError("dimension must be 1, 2 or 3")
    checks = [
        HypothesisCheck(
            "gradient_bounded",
            np.isfinite(kernel.kprime_sup_norm),
            f"|k'| <= {kernel.kprime_sup_norm:g}",
        )
    ]
    for scale in PROBE_SCALES:
        try:
            est = min_attraction(kernel, scale)
            checks.append(
                HypothesisCheck(
                    f"attractive_below_{scale:g}",
                    est.attractive,
                    f"min attraction {est.value:.6g}",
                )
            )
        except ValueError as exc:
            checks.append(HypothesisCheck(f"attractive_below_{scale:g}", False, str(exc)))
    limit = min_attraction_limit(kernel)
    detail = f"limit {limit.value:.6g}" + ("" if limit.converged else " (not converged)")
    checks.append(HypothesisCheck("attractive_at_origin", limit.attractive and limit.converged, detail))
    if dimension == 1:
        finite = kernel.kdoubleprime_l1 is not None and np.isfinite(kernel.kdoubleprime_l1)
        checks.append(
            HypothesisCheck("kdoubleprime_integrable", finite, f"||k''||_1 = {kernel.kdoubleprime_l1:g}")
        )
    return ValidationReport(kernel.name(), dimension, tuple(checks))
