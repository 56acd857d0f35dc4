"""Hot numeric kernels in NumPy, plus LAPACK's symmetric tridiagonal solver.

The upwind transport update and the diffusion's tridiagonal solve (LAPACK
``ptsv``, an LDL^T factorisation of a symmetric positive definite matrix)
run on every step of every run. ``ptsv`` is called through ``ctypes`` from
the OpenBLAS that NumPy loaded at import, which exports it as
``scipy_dptsv_64_`` (64-bit integers), so a process maps one BLAS. Where
NumPy's LAPACK lacks that symbol, ``ptsv`` comes from SciPy's compiled
wrappers, ``scipy.linalg._flapack``, loaded on their own; ``scipy.linalg``
is never imported.
``entries_nd`` samples the N >= 2 drift matrix for its compressed operator
by angular quadrature, from the per-build column geometry of
``chord_geometry``; ``entries_neg_abs_2d`` samples the closed form of
K = -|x| in two dimensions, and ``agm_steps`` sets its step count.
``build_matrix_1d`` and ``build_matrix_nd`` form the full drift matrices,
which the solver never does: they are the tests' dense oracles.
The kernel enters the evaluators as ``kprime``, a vectorised callable
s -> k'(s), the kernel's ``KernelSpec.kprime``; no kernel family is named
here.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import math
import os

import numpy as np

# Reported in the benchmark's machine block (perfbench/machine.py reads it).
BACKEND = "numpy"

_EPS = float(np.finfo(np.float64).eps)
_D_FLOOR = 1e-12
# Largest (quadrature, rows, columns) temporary of one entries_nd chunk.
_CHUNK = 65536


# ---------------------------------------------------------------------------
# finite-volume transport update (first-order upwind)
# ---------------------------------------------------------------------------
#
# Face indexing: face f sits between cells f-1 and f; face 0 is the origin
# (zero flux by radial symmetry), face n is the outer rim where mass may
# leave through a ghost cell held at zero. Face velocities (``faces``, n + 1
# entries) and ``grid.face_areas`` share this indexing. The update may also
# cover the first W < n cells only, with face W closed. The returned
# outflux is the mass that left through the last face during the step.
# Each interior flux leaves one cell and enters its neighbour, so total
# mass telescopes to roundoff: sum(u_new * vol) = sum(u * vol) - outflux.

def explicit_update(u, faces, right, left, rim_area, dt):
    """One upwind transport step; returns (u_new, outflux).

    ``faces`` holds the face velocities (n + 1 entries, the solver's
    ``face_velocities``): ``faces[1:-1]`` on the interior faces and
    ``faces[-1]`` at the rim; the origin entry is not read. ``right``
    holds a_{i+1}/vol_i (n entries, the last one the rim ratio
    a_n/vol_{n-1}) and ``left`` holds a_i/vol_i for i >= 1 (n - 1
    entries): the grid's ``right_ratios`` and ``left_ratios``.
    ``rim_area`` is a_n. For a window of the first n cells of a larger
    grid, ``rim_area`` is 0.0 and ``faces[-1]`` is 0: the last face is
    closed, and no mass crosses it.
    """
    vf = faces[1:-1]
    inner = np.where(vf >= 0.0, u[:-1], u[1:])
    inner *= vf
    v_out = faces[-1]
    rim = v_out * u[-1] if v_out >= 0.0 else 0.0
    du = np.empty(u.shape[0])
    np.multiply(right[:-1], inner, out=du[:-1])
    du[-1] = right[-1] * rim
    du[1:] -= left * inner
    du *= dt
    return u - du, dt * (rim_area * rim)


# NumPy's OpenBLAS names its LAPACK routines with this prefix and the
# ILP64 suffix: every integer argument is 64 bits wide.
_PTSV_SYMBOL = "scipy_dptsv_64_"
_FLAPACK = "scipy.linalg._flapack"


def _flapack_ptsv():
    # For a NumPy whose LAPACK does not export _PTSV_SYMBOL (older wheels,
    # conda and system builds, Windows). The extension is loaded alone:
    # importing scipy.linalg takes 0.25-0.3 s and 26 MB (its array-API
    # layer imports numpy.testing, numpy.f2py, unittest and email), the
    # extension about 10 ms and 3 MB, plus a second OpenBLAS. This is the
    # module that scipy.linalg.lapack re-exports, so the routine is the
    # same.
    scipy_spec = importlib.util.find_spec("scipy")
    linalg = []
    if scipy_spec is not None:
        linalg = [os.path.join(path, "linalg") for path in scipy_spec.submodule_search_locations]
    spec = importlib.machinery.PathFinder.find_spec(_FLAPACK, linalg)
    if spec is None:
        raise ImportError(f"cannot find the LAPACK wrappers {_FLAPACK}", name=_FLAPACK)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    dptsv = module.dptsv

    def ptsv(diag, off, rhs):
        _, _, x, info = dptsv(diag, off, rhs, True, True, True)
        return x, info

    return ptsv


@functools.cache
def _ptsv():
    """LAPACK ``dptsv`` as (diag, off, rhs) -> (solution, info), found on first use.

    dlsym on the handle of NumPy's linalg extension searches the libraries
    it links, so it reaches the OpenBLAS NumPy already mapped; where that
    fails, the routine comes from ``_flapack_ptsv``.
    """
    try:
        routine = getattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), _PTSV_SYMBOL)
    except (AttributeError, OSError):
        return _flapack_ptsv()
    integer, real = ctypes.POINTER(ctypes.c_int64), ctypes.POINTER(ctypes.c_double)
    routine.argtypes = (integer, integer, real, real, real, integer, integer)
    routine.restype = None
    one, buffer = ctypes.c_int64(1), ctypes.c_double.from_buffer

    def ptsv(diag, off, rhs):
        # DPTSV(N, NRHS, D, E, B, LDB, INFO), solving in place.
        n, info = ctypes.c_int64(diag.shape[0]), ctypes.c_int64()
        routine(n, one, buffer(diag), buffer(off), buffer(rhs), n, info)
        return rhs, info.value

    return ptsv


_FLOAT64 = np.dtype(np.float64)


def _solvable(a, n):
    # flags.carray: C-contiguous, aligned and writable.
    return type(a) is np.ndarray and a.dtype == _FLOAT64 and a.shape == (n,) and a.flags.carray


def thomas_solve(diag, off, rhs):
    """Solve the symmetric tridiagonal system with diagonal ``diag`` (n) and
    off-diagonal ``off`` (n-1) for the right-hand side ``rhs`` (n), n >= 2.

    The matrix must be positive definite. This is LAPACK ``ptsv``: an
    LDL^T factorisation without pivoting, without SciPy's finiteness
    checks. It overwrites all three arguments and returns the solution in
    the storage of ``rhs``. All three must be C-contiguous, aligned,
    writable float64 arrays of those lengths, since LAPACK reads and writes
    their memory directly; anything else raises ValueError before it runs. A
    matrix that is not positive definite raises
    ``numpy.linalg.LinAlgError``. (The Thomas algorithm is the same
    elimination; the name is kept because ``perfbench`` times the solve
    under it.)
    """
    n = getattr(diag, "size", 0)
    if n < 2 or not (_solvable(diag, n) and _solvable(off, n - 1) and _solvable(rhs, n)):
        raise ValueError(
            "ptsv needs C-contiguous, aligned, writable float64 arrays of lengths "
            "n, n - 1 and n, n >= 2"
        )
    x, info = _ptsv()(diag, off, rhs)
    if info > 0:
        raise np.linalg.LinAlgError(
            f"tridiagonal matrix not positive definite: pivot {info} is not positive"
        )
    return x


# ---------------------------------------------------------------------------
# interaction matrix builds
# ---------------------------------------------------------------------------

def build_matrix_1d(r, kprime):
    # Full-line convolution of an even density, folded onto the half line:
    # W_ij = (k'(|r_i-r_j|) sign(r_i-r_j) + k'(r_i+r_j)) / 2, with the
    # principal-value diagonal sign(0) = 0. The solver never forms this
    # matrix (drift applies it matrix-free); it is the tests' reference.
    diff = r[:, None] - r[None, :]
    sgn = np.sign(diff)
    near = kprime(np.abs(diff))
    mirror = kprime(r[:, None] + r[None, :])
    return 0.5 * (near * sgn + mirror)


def chord_geometry(rho, cos_t):
    """The column parts of the chord, (c rho, (1 - c^2) rho^2), shape (q, len(rho)).

    With c = cos t on the quadrature nodes ``cos_t``, the squared chord from
    radius r to a source at rho is (r - c rho)^2 + (1 - c^2) rho^2. A build
    forms these once for every cell and slices them per sampled block.
    """
    c = cos_t[:, None]
    return c * rho, (1.0 - c * c) * (rho * rho)


def entries_nd(r_rows, along, across, kprime, weights):
    """N >= 2 drift-matrix entries W(r_i, rho_j), shape (len(r_rows), along.shape[1]).

    W(r, rho) is the angular average over the sphere of k'(d) (r - rho cos t)/d
    on q quadrature nodes with normalised ``weights`` (summing to 1).
    ``along`` and ``across`` are the columns' ``chord_geometry``; the chord
    length d = sqrt((r - rho cos t)^2 + (rho sin t)^2) is a sum of squares,
    so it needs no clamp at zero. The quadrature axis comes first so that
    the innermost loops run over the longer axes, and the (q, rows, cols)
    temporaries are chunked to at most _CHUNK entries, by rows and, for a
    row longer than that, by columns.
    """
    m, (q, n) = r_rows.shape[0], along.shape
    W = np.empty((m, n))
    rows = max(1, _CHUNK // max(1, n * q))
    cols = max(1, n if n * q <= _CHUNK else _CHUNK // q)
    for a in range(0, m, rows):
        b = min(m, a + rows)
        for c0 in range(0, n, cols):
            c1 = min(n, c0 + cols)
            t = r_rows[None, a:b, None] - along[:, None, c0:c1]
            d = t * t
            d += across[:, None, c0:c1]
            np.sqrt(d, out=d)
            np.maximum(d, _D_FLOOR, out=d)
            t /= d
            t *= kprime(d)
            W[a:b, c0:c1] = (weights @ t.reshape(q, -1)).reshape(b - a, c1 - c0)
    return W


def agm_steps(q):
    """AGM steps after which |a - b| <= eps a for AGM(1, q), 0 < q <= 1.

    eps is the float64 machine epsilon. From there a is the mean to
    roundoff, and the next term of the E sum, 2^k ((a - b)/2)^2, is below
    eps^2. The AGM converges faster for larger q, so the step count of
    the smallest q of a grid serves all its entries.
    """
    a, b, steps = 1.0, float(q), 0
    while abs(a - b) > _EPS * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
        steps += 1
    return steps


def entries_neg_abs_2d(r_rows, rho, steps):
    """N = 2 drift-matrix entries W(r_i, rho_j) of K = -|x| in closed form.

    The angular average of -(r - rho cos t)/d over the circle is
    W = -((r + rho) E(m) + (r - rho) K(m)) / (pi r), m = 4 r rho/(r + rho)^2,
    with K and E the complete elliptic integrals of the first and second
    kind (parameter m). Both come from the arithmetic-geometric mean of
    1 and |q|, q = (r - rho)/(r + rho) = 2x - 1 with x = r/(r + rho):
    K = pi/(2 a_k) and E = K (1 - sum_{n >= 0} 2^(n-1) c_n^2), c_0^2 = m
    and c_n = (a_{n-1} - b_{n-1})/2 (Abramowitz & Stegun 17.6). The
    first step is taken in closed form, c_1 = min(x, 1 - x), a_1 =
    1 - c_1, and the two leading terms are merged:
    W = -(2 x^2 - sum_{n >= 1} 2^(n-1) c_n^2) / (2 x a_k). That sum stays
    free of cancellation when rho >> r, where the formula with E and K
    subtracts terms of size rho/r. ``steps`` AGM steps are taken in all
    (``agm_steps`` of the smallest |q| sampled), with no convergence test.
    At rho = r, where K is infinite and x = 1/2 exactly, E(1) = 1 and the
    (r - rho) K term vanishes: W = -2/pi. Temporaries are chunked by rows
    to at most _CHUNK entries.
    """
    m, n = r_rows.shape[0], rho.shape[0]
    W = np.empty((m, n))
    rows = max(1, _CHUNK // max(1, n))
    for i0 in range(0, m, rows):
        i1 = min(m, i0 + rows)
        r = r_rows[i0:i1, None]
        x = r + rho
        np.divide(r, x, out=x)
        c = np.subtract(1.0, x)
        np.minimum(c, x, out=c)
        a = np.subtract(1.0, c)
        b = np.add(x, x)
        b -= 1.0
        np.abs(b, out=b)
        np.sqrt(b, out=b)
        total = W[i0:i1]
        np.multiply(x, x, out=total)
        total += total
        term = c * c
        total -= term
        weight = 1.0
        for _ in range(steps - 1):
            np.subtract(a, b, out=c)
            c *= 0.5
            b *= a
            np.sqrt(b, out=b)
            a -= c
            weight *= 2.0
            np.multiply(c, c, out=term)
            term *= weight
            total -= term
        a *= x
        a *= -2.0
        total /= a
        total[x == 0.5] = -2.0 / math.pi
    return W


def build_matrix_nd(r, kprime, cos_t, wts, wsum):
    # The full square matrix. The solver never forms it (drift compresses
    # it from single entries); it is the tests' reference.
    along, across = chord_geometry(r, cos_t)
    return entries_nd(r, along, across, kprime, wts / wsum)
