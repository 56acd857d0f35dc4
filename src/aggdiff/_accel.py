"""Hot numeric kernels in NumPy, plus LAPACK's symmetric tridiagonal solver.

The finite-volume update runs on every step of every run, and the
tridiagonal solve (LAPACK ``ptsv``, an LDL^T factorisation of a symmetric
positive definite matrix, reached through SciPy on the first implicit
step) on every implicit step; ``entries_nd``
samples the N >= 2 drift matrix for its compressed operator.
``build_matrix_1d`` and ``build_matrix_nd`` form the full drift matrices,
which the solver never does: they are the tests' dense oracles.
Kernel-family codes used by the evaluators:

    0 = gradient -1 everywhere          (K = -|x|)
    1 = gradient -exp(-s)               (K = exp(-|x|))
    2 = zero kernel
    3 = tabulated, piecewise-linear k'(s) on (s_nodes, kp_nodes)

Tabulated evaluation is clamped to the end samples outside the nodes
(k' is continuous at 0+ for admissible kernels); range checking against
the last node is the caller's job.
"""

from __future__ import annotations

import functools

import numpy as np

# Reported in the benchmark's machine block (perfbench/machine.py reads it).
BACKEND = "numpy"

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
    """Vectorised k'(s) for a kernel-family code."""
    s = np.asarray(s, dtype=np.float64)
    if kind == FAMILY_NEG_ABS:
        return np.full(s.shape, -1.0)
    if kind == FAMILY_EXPONENTIAL:
        return -np.exp(-s)
    if kind == FAMILY_ZERO:
        return np.zeros(s.shape)
    return np.interp(s, s_nodes, kp_nodes)


# ---------------------------------------------------------------------------
# finite-volume update (upwind advection + centred diffusion)
# ---------------------------------------------------------------------------
#
# Face indexing: face f sits between cells f-1 and f; face 0 is the origin
# (zero flux by radial symmetry), face n is the outer rim where mass may
# leave through a ghost cell held at zero. The returned outflux is the mass
# that left through face n during the step. Each interior flux leaves one
# cell and enters its neighbour, so total mass telescopes to roundoff:
# sum(u_new * vol) = sum(u * vol) - outflux.

def explicit_update(u, cell_v, right, left, rim_area, dr, eps, dt, include_diffusion):
    """One upwind (plus, if asked, centred diffusion) step; returns (u_new, outflux).

    ``right`` holds a_{i+1}/vol_i (n entries, the last one the rim ratio
    a_n/vol_{n-1}) and ``left`` holds a_i/vol_i for i >= 1 (n - 1 entries):
    the grid's ``right_ratios`` and ``left_ratios``. ``rim_area`` is a_n.
    """
    vf = cell_v[:-1] + cell_v[1:]
    vf *= 0.5
    inner = np.where(vf >= 0.0, u[:-1], u[1:])
    inner *= vf
    if include_diffusion:
        inner -= eps * np.diff(u) / dr
    v_out = cell_v[-1]
    rim = v_out * u[-1] if v_out >= 0.0 else 0.0
    if include_diffusion:
        rim += eps * u[-1] / dr
    du = np.empty(u.shape[0])
    np.multiply(right[:-1], inner, out=du[:-1])
    du[-1] = right[-1] * rim
    du[1:] -= left * inner
    du *= dt
    return u - du, dt * (rim_area * rim)


@functools.cache
def _ptsv():
    # Imported on first use: scipy.linalg takes about 0.2 s to import, and
    # explicit-diffusion runs never need it.
    from scipy.linalg import lapack

    return lapack.dptsv


def thomas_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system with diagonal ``diag`` (n) and
    off-diagonal ``off`` (n-1) for the right-hand side ``rhs`` (n), n >= 2.

    The matrix must be positive definite. This is LAPACK ``ptsv``: an
    LDL^T factorisation without pivoting, called without SciPy's
    finiteness checks. It overwrites all three arguments (f2py works in
    place on contiguous float64 arrays) and returns the solution in the
    storage of ``rhs``. A matrix that is not positive definite raises
    ``numpy.linalg.LinAlgError``. (The Thomas algorithm is the same
    elimination; the name is kept because ``perfbench`` times the solve
    under it.)
    """
    _, _, x, info = _ptsv()(diag, off, rhs, True, True, True)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal matrix not positive definite: pivot {info} is not positive"
        )
    return x


# ---------------------------------------------------------------------------
# interaction matrix builds
# ---------------------------------------------------------------------------

def build_matrix_1d(r, kind, s_nodes, kp_nodes):
    # Full-line convolution of an even density, folded onto the half line:
    # W_ij = (k'(|r_i-r_j|) sign(r_i-r_j) + k'(r_i+r_j)) / 2, with the
    # principal-value diagonal sign(0) = 0. The solver never forms this
    # matrix (drift applies it matrix-free); it is the tests' reference.
    diff = r[:, None] - r[None, :]
    sgn = np.sign(diff)
    near = kprime_array(kind, np.abs(diff), s_nodes, kp_nodes)
    mirror = kprime_array(kind, r[:, None] + r[None, :], s_nodes, kp_nodes)
    return 0.5 * (near * sgn + mirror)


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


def build_matrix_nd(r, kind, s_nodes, kp_nodes, cos_t, wts, wsum):
    # The full square matrix. The solver never forms it (drift compresses
    # it from single entries); it is the tests' reference.
    return entries_nd(r, r, kind, s_nodes, kp_nodes, cos_t, wts, wsum)
