"""Hot numeric kernels: numba-compiled loops with a pure-NumPy fallback.

The backend is chosen once at import time from the environment variable
``AGGDIFF_NUMBA`` ("1" by default). Set ``AGGDIFF_NUMBA=0`` to force the
NumPy path, e.g. on machines without a working numba install or when
benchmarking (see benchmarks/bench_backends.py).

Every public name here is backend-agnostic; the two implementations of a
kernel agree to floating-point roundoff (they are compared in the test
suite). Kernel-family codes used by the scalar evaluators:

    0 = gradient -1 everywhere          (K = -|x|)
    1 = gradient -exp(-s)               (K = exp(-|x|))
    2 = zero kernel
    3 = tabulated, piecewise-linear k'(s) on (s_nodes, kp_nodes)

Tabulated evaluation below the first node is clamped to the first sample
(k' is continuous at 0+ for admissible kernels); range checking against
the last node is the caller's job.
"""

from __future__ import annotations

import os

import numpy as np


def _numba_requested() -> bool:
    value = os.environ.get("AGGDIFF_NUMBA", "1").strip().lower()
    return value not in ("0", "false", "off", "no")


NUMBA_ENABLED = False
if _numba_requested():
    try:
        from numba import njit, prange

        NUMBA_ENABLED = True
    except ImportError:  # pragma: no cover - exercised only without numba
        NUMBA_ENABLED = False

BACKEND = "numba" if NUMBA_ENABLED else "numpy"

FAMILY_NEG_ABS = 0
FAMILY_EXPONENTIAL = 1
FAMILY_ZERO = 2
FAMILY_TABULATED = 3

_EMPTY = np.empty(0, dtype=np.float64)
_D_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# kernel gradient evaluation
# ---------------------------------------------------------------------------

def kprime_array(kind: int, s: np.ndarray, s_nodes: np.ndarray, kp_nodes: np.ndarray) -> np.ndarray:
    """Vectorised k'(s) for a kernel-family code (NumPy path)."""
    s = np.asarray(s, dtype=np.float64)
    if kind == FAMILY_NEG_ABS:
        return np.full(s.shape, -1.0)
    if kind == FAMILY_EXPONENTIAL:
        return -np.exp(-s)
    if kind == FAMILY_ZERO:
        return np.zeros(s.shape)
    return np.interp(s, s_nodes, kp_nodes)


def _kprime_scalar_py(kind, s, s_nodes, kp_nodes):
    if kind == FAMILY_NEG_ABS:
        return -1.0
    if kind == FAMILY_EXPONENTIAL:
        return -np.exp(-s)
    if kind == FAMILY_ZERO:
        return 0.0
    m = s_nodes.shape[0]
    if s <= s_nodes[0]:
        return kp_nodes[0]
    if s >= s_nodes[m - 1]:
        return kp_nodes[m - 1]
    lo = 0
    hi = m - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if s_nodes[mid] <= s:
            lo = mid
        else:
            hi = mid
    w = (s - s_nodes[lo]) / (s_nodes[lo + 1] - s_nodes[lo])
    return kp_nodes[lo] + w * (kp_nodes[lo + 1] - kp_nodes[lo])


# ---------------------------------------------------------------------------
# finite-volume update (upwind advection + centred diffusion)
# ---------------------------------------------------------------------------
#
# Face indexing: face f sits between cells f-1 and f; face 0 is the origin
# (zero flux by radial symmetry), face n is the outer rim where mass may
# leave through a ghost cell held at zero. The returned outflux is the mass
# that left through face n during the step, so total mass telescopes
# exactly: sum(u_new * vol) = sum(u * vol) - outflux.

def _explicit_update_np(u, cell_v, area, vol, dr, eps, dt, include_diffusion):
    n = u.shape[0]
    flux = np.zeros(n + 1)
    vf = 0.5 * (cell_v[:-1] + cell_v[1:])
    upwind = np.where(vf >= 0.0, u[:-1], u[1:])
    inner = vf * upwind
    if include_diffusion:
        inner = inner - eps * np.diff(u) / dr
    flux[1:n] = area[1:n] * inner
    v_out = cell_v[n - 1]
    rim = v_out * u[n - 1] if v_out >= 0.0 else 0.0
    if include_diffusion:
        rim += eps * u[n - 1] / dr
    flux[n] = area[n] * rim
    u_new = u - dt * np.diff(flux) / vol
    return u_new, dt * flux[n]


def _thomas_np(sub, diag, sup, rhs):
    import scipy.linalg

    n = diag.shape[0]
    ab = np.zeros((3, n))
    ab[0, 1:] = sup[:-1]
    ab[1, :] = diag
    ab[2, :-1] = sub[1:]
    return scipy.linalg.solve_banded((1, 1), ab, rhs)


def _explicit_update_nb_impl(u, cell_v, area, vol, dr, eps, dt, include_diffusion):
    n = u.shape[0]
    flux = np.zeros(n + 1)
    for f in range(1, n):
        vf = 0.5 * (cell_v[f - 1] + cell_v[f])
        upwind = u[f - 1] if vf >= 0.0 else u[f]
        inner = vf * upwind
        if include_diffusion:
            inner -= eps * (u[f] - u[f - 1]) / dr
        flux[f] = area[f] * inner
    v_out = cell_v[n - 1]
    rim = v_out * u[n - 1] if v_out >= 0.0 else 0.0
    if include_diffusion:
        rim += eps * u[n - 1] / dr
    flux[n] = area[n] * rim
    u_new = np.empty(n)
    for i in range(n):
        u_new[i] = u[i] - dt * (flux[i + 1] - flux[i]) / vol[i]
    return u_new, dt * flux[n]


def _thomas_nb_impl(sub, diag, sup, rhs):
    n = diag.shape[0]
    cp = np.empty(n)
    dp = np.empty(n)
    cp[0] = sup[0] / diag[0]
    dp[0] = rhs[0] / diag[0]
    for i in range(1, n):
        denom = diag[i] - sub[i] * cp[i - 1]
        cp[i] = sup[i] / denom
        dp[i] = (rhs[i] - sub[i] * dp[i - 1]) / denom
    x = np.empty(n)
    x[n - 1] = dp[n - 1]
    for i in range(n - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
    return x


# ---------------------------------------------------------------------------
# interaction matrix builds
# ---------------------------------------------------------------------------

def _build_matrix_1d_np(r, kind, s_nodes, kp_nodes):
    # Full-line convolution of an even density, folded onto the half line:
    # W_ij = (k'(|r_i-r_j|) sign(r_i-r_j) + k'(r_i+r_j)) / 2, with the
    # principal-value diagonal sign(0) = 0. The solver never forms this
    # matrix (drift applies it matrix-free); it is the tests' reference.
    diff = r[:, None] - r[None, :]
    sgn = np.sign(diff)
    near = kprime_array(kind, np.abs(diff), s_nodes, kp_nodes)
    mirror = kprime_array(kind, r[:, None] + r[None, :], s_nodes, kp_nodes)
    return 0.5 * (near * sgn + mirror)


def _build_matrix_1d_nb_impl(r, kind, s_nodes, kp_nodes):
    n = r.shape[0]
    W = np.empty((n, n))
    for i in prange(n):
        ri = r[i]
        for j in range(n):
            d = ri - r[j]
            if d > 0.0:
                near = _kprime_scalar(kind, d, s_nodes, kp_nodes)
            elif d < 0.0:
                near = -_kprime_scalar(kind, -d, s_nodes, kp_nodes)
            else:
                near = 0.0
            W[i, j] = 0.5 * (near + _kprime_scalar(kind, ri + r[j], s_nodes, kp_nodes))
    return W


def entries_nd(r_rows, rho_cols, kind, s_nodes, kp_nodes, cos_t, wts, wsum):
    """N >= 2 drift-matrix entries W(r_i, rho_j), shape (len(r_rows), len(rho_cols)).

    W(r, rho) is the angular average over the sphere of k'(d) (r - rho cos t)/d
    on the quadrature nodes ``cos_t`` with weights ``wts`` summing to ``wsum``;
    the chord length d = sqrt((r - rho cos t)^2 + (rho sin t)^2) is a sum of
    squares, so it needs no clamp at zero. The quadrature axis comes first so
    that the innermost loops run over the longer axes, and rows are chunked
    so that the (q, rows, cols) temporaries stay in cache.
    """
    m, n, q = r_rows.shape[0], rho_cols.shape[0], cos_t.shape[0]
    W = np.empty((m, n))
    chunk = max(1, 65536 // max(1, n * q))
    c = cos_t[:, None, None]
    rho = rho_cols[None, None, :]
    along = c * rho
    across = (1.0 - c * c) * (rho * rho)
    weights = wts / wsum
    for a in range(0, m, chunk):
        b = min(m, a + chunk)
        t = r_rows[None, a:b, None] - along
        d = t * t
        d += across
        np.sqrt(d, out=d)
        np.maximum(d, _D_FLOOR, out=d)
        t /= d
        t *= kprime_array(kind, d, s_nodes, kp_nodes)
        W[a:b] = (weights @ t.reshape(q, -1)).reshape(b - a, n)
    return W


def _build_matrix_nd_np(r, kind, s_nodes, kp_nodes, cos_t, wts, wsum):
    # The full square matrix. The solver never forms it (drift compresses
    # it from single entries); it is the tests' reference.
    return entries_nd(r, r, kind, s_nodes, kp_nodes, cos_t, wts, wsum)


def _build_matrix_nd_nb_impl(r, kind, s_nodes, kp_nodes, cos_t, wts, wsum):
    n = r.shape[0]
    q = cos_t.shape[0]
    W = np.empty((n, n))
    for i in prange(n):
        ri = r[i]
        for j in range(n):
            rj = r[j]
            acc = 0.0
            for k in range(q):
                c = cos_t[k]
                d2 = ri * ri + rj * rj - 2.0 * ri * rj * c
                d = np.sqrt(d2) if d2 > 0.0 else 0.0
                if d < _D_FLOOR:
                    d = _D_FLOOR
                kp = _kprime_scalar(kind, d, s_nodes, kp_nodes)
                acc += kp * (ri - rj * c) / d * wts[k]
            W[i, j] = acc / wsum
    return W


# ---------------------------------------------------------------------------
# backend selection
# ---------------------------------------------------------------------------

if NUMBA_ENABLED:
    _kprime_scalar = njit(cache=True, inline="always")(_kprime_scalar_py)
    explicit_update = njit(cache=True)(_explicit_update_nb_impl)
    thomas_solve = njit(cache=True)(_thomas_nb_impl)
    build_matrix_1d = njit(cache=True, parallel=True)(_build_matrix_1d_nb_impl)
    build_matrix_nd = njit(cache=True, parallel=True)(_build_matrix_nd_nb_impl)
else:
    _kprime_scalar = _kprime_scalar_py
    explicit_update = _explicit_update_np
    thomas_solve = _thomas_np
    build_matrix_1d = _build_matrix_1d_np
    build_matrix_nd = _build_matrix_nd_np
