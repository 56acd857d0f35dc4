"""The discrete stationary state as a test oracle.

A stationary state of u_t - eps Lap u + div(u grad K*u) = 0 carries no
flux: eps grad u = u V with V = grad K*u, so u = M exp(Phi/eps)/Z with
Phi' = V and Z fixing the mass M. ``stationary_state`` solves that
fixed point on a grid with the package's own drift operator, so it is an
exact reference in every dimension and for every kernel.
"""

import math

import numpy as np
import pytest

from aggdiff import drift, grid, kernels

NEG_ABS = kernels.neg_abs_kernel()


def stationary_state(g, kernel, eps, mass):
    """Cell values of the discrete stationary state of mass ``mass``.

    A Picard iteration on Phi, damped by 1/2: Phi_i - Phi_{i-1} =
    dr (V_{i-1} + V_i)/2 with V from ``DriftOperator.apply``, and each pass
    sets u = M exp(Phi/eps)/Z. It stops when u changes by at most 1e-13 of
    its sup.
    """
    op = drift.build_interaction_matrix(g, kernel)
    phi = np.zeros(g.n)
    u = None
    for _ in range(500):
        weights = np.exp((phi - phi.max()) / eps)
        new = mass * weights / (weights @ g.cell_volumes)
        if u is not None and np.max(np.abs(new - u)) <= 1e-13 * np.max(new):
            return new
        u = new
        v = op.apply(u * g.cell_volumes)
        target = np.concatenate(([0.0], np.cumsum(0.5 * g.dr * (v[:-1] + v[1:]))))
        phi = 0.5 * (phi + target)
    raise RuntimeError("no stationary state after 500 iterations")


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_stationary_sup_is_self_similar_at_fixed_dr_over_eps(dimension):
    # K = -|x| is homogeneous of degree 1, so x = eps y, u = eps^-N w(y)
    # maps the stationary state of one eps onto another's. On dr = eps/16
    # with n fixed the cell masses, V and Phi/eps are the same at every
    # eps, and so is sup u * eps^N.
    sups = []
    for eps in (0.1, 0.03, 0.01):
        g = grid.RadialGrid(dimension, eps / 16.0, 640)
        u = stationary_state(g, NEG_ABS, eps, 1.0)
        assert u[-1] < 1e-14 * u.max()  # the domain holds the whole state
        sups.append(u.max() * eps ** dimension)
    assert max(sups) - min(sups) <= 1e-9 * max(sups)


def test_1d_stationary_sup_converges_to_sech2_peak_at_second_order():
    # On the line the stationary state of K = -|x| is
    # M^2/(4 eps) sech^2(M x/(2 eps)), with peak M^2/(4 eps).
    eps, mass = 0.1, 1.0
    peak = mass ** 2 / (4.0 * eps)
    gaps = []
    for divisor in (16, 32, 64):
        g = grid.RadialGrid(1, eps / divisor, 40 * divisor)
        gaps.append(abs(stationary_state(g, NEG_ABS, eps, mass).max() - peak) / peak)
    assert gaps[0] == pytest.approx(4.07e-4, rel=0.01)
    orders = [math.log2(coarse / fine) for coarse, fine in zip(gaps, gaps[1:])]
    assert all(abs(order - 2.0) < 0.02 for order in orders), orders
