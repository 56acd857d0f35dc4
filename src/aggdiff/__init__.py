"""Radially symmetric aggregation-diffusion solver and verification harness.

Simulates u_t = eps * Laplace(u) - div(u grad(K * u)) for radial data with
mildly singular attractive kernels, and checks the explicit concentration
inequalities and small-diffusivity scaling laws on the computed
trajectories. See the README for the CLI and the acceptance suite.
"""

__version__ = "0.1.0"
