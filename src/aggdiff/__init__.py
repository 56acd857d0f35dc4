"""Radially symmetric aggregation-diffusion solver and verification harness.

Simulates u_t = eps * Laplace(u) - div(u grad(K * u)) for radial data with
mildly singular attractive kernels, and checks the explicit concentration
inequalities and small-diffusivity scaling laws on the computed
trajectories. See the README for the CLI and the acceptance suite.

Importing the package sets ``OPENBLAS_NUM_THREADS=1`` unless one of
``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS`` is
already set, which stays the override. It does so before any module here
imports NumPy, so the OpenBLAS that NumPy loads starts no worker pool:
every BLAS call aggdiff makes is a matrix-vector or dot product, or the
sequential LAPACK ``ptsv``. On 2 cores a fresh ``import numpy`` took
126-163 ms with OpenBLAS's default of one thread per core and 64-104 ms
with one. Processes started from this one, such as the spawned workers
of a ``jobs > 1`` sweep, inherit the setting.
"""

import os

if not any(key in os.environ for key in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

__version__ = "0.1.0"
