import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from aggdiff import _accel, drift, grid, kernels


def _field(g, values):
    return grid.DensityField(g, values)


def test_zero_kernel_gives_zero_matrix():
    g = grid.RadialGrid.make(2, 1.0, 0.05)
    m = drift.build_interaction_matrix(g, kernels.zero_kernel())
    assert np.all(m.apply(np.ones(g.n)) == 0.0)
    assert m.quadrature_order == 0


def test_1d_point_mass_drifts_inward_at_unit_speed():
    # A concentrated bump under constant unit attraction pulls with the
    # full mass from everywhere: V(r) = -M away from the bump.
    g = grid.RadialGrid.make(1, 4.0, 0.005)
    mass_total = 0.7
    u = np.zeros(g.n)
    u[:4] = mass_total / (4 * g.cell_volumes[0])
    f = _field(g, u)
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    v = drift.apply_drift(m, f)
    far = g.r_centers > 0.1
    assert np.max(np.abs(v[far] + mass_total)) < 1e-12


def test_1d_matrix_matches_direct_mirrored_convolution():
    # Independent oracle: explicit double sum over the mirrored line.
    g = grid.RadialGrid.make(1, 2.0, 0.02)
    rng = np.random.default_rng(3)
    u = rng.uniform(0.0, 1.0, g.n)
    f = _field(g, u)
    kern = kernels.exponential_kernel()
    m = drift.build_interaction_matrix(g, kern)
    v = drift.apply_drift(m, f)

    x = np.concatenate([-g.r_centers[::-1], g.r_centers])
    w = np.concatenate([u[::-1], u])
    oracle = np.zeros(g.n)
    for i, xi in enumerate(g.r_centers):
        dx = xi - x
        vals = np.where(
            dx == 0.0, 0.0, -np.exp(-np.abs(dx)) * np.sign(dx)
        )
        oracle[i] = float(np.sum(vals * w) * g.dr)
    assert np.max(np.abs(v - oracle)) < 1e-12


def _oracle_kernels(g):
    s = np.linspace(1e-3, 2.0 * g.r_max + 0.1, 400)
    tabulated = kernels.tabulated_kernel(s, -np.exp(-s) * (1.0 + 0.2 * np.sin(3.0 * s)))
    return [kernels.neg_abs_kernel(), kernels.exponential_kernel(), tabulated]


@pytest.mark.parametrize("n", [3, 101, 2001])
def test_1d_operator_matches_dense_matrix(n):
    # The dense 1-D builder stays as the oracle for the matrix-free paths.
    g = grid.RadialGrid(1, 0.01, n)
    masses = np.random.default_rng(n).uniform(0.0, 1.0, n) * g.cell_volumes
    for kern in _oracle_kernels(g):
        op = drift.build_interaction_matrix(g, kern)
        dense = _accel.build_matrix_1d(g.r_centers, kern.code, kern.s_nodes, kern.kprime_nodes)
        expected = dense @ masses
        gap = np.max(np.abs(op.apply(masses) - expected)) / np.max(np.abs(expected))
        assert gap <= 1e-13, (kern.name(), gap)


def _held_bytes(value):
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, tuple):
        return sum(_held_bytes(v) for v in value)
    return 0


def test_1d_operator_holds_no_square_array():
    g = grid.RadialGrid(1, 0.001, 2001)
    for kern in _oracle_kernels(g) + [kernels.zero_kernel()]:
        op = drift.build_interaction_matrix(g, kern)
        arrays = [getattr(op, f.name) for f in dataclasses.fields(op)]
        held = sum(a.nbytes for a in arrays if isinstance(a, np.ndarray))
        assert held <= 64 * g.n, (kern.name(), held)


def test_nd_operator_holds_no_square_array():
    # Dense leaves of at most 128 columns plus rank <= 22 factors on four
    # levels: about 300 doubles per cell, where the dense matrix has n.
    g = grid.RadialGrid(2, 0.0015, 2001)
    for kern in (kernels.neg_abs_kernel(), kernels.exponential_kernel(), kernels.zero_kernel()):
        op = drift.build_interaction_matrix(g, kern)
        held = sum(_held_bytes(getattr(op, f.name)) for f in dataclasses.fields(op))
        assert held <= 8 * 400 * g.n, (kern.name(), held)


def _dense_order_rule(g, kern, rel_tol=1e-6):
    # The order-doubling rule of build_interaction_matrix, on dense matrices.
    r = g.r_centers
    u_ref = np.exp(-((r / (0.25 * g.r_max)) ** 2)) * g.cell_volumes
    order, v_prev = 16, None
    while True:
        cos_t, wts, wsum = drift._angular_nodes(g.dimension, order)
        dense = _accel.build_matrix_nd(r, kern.code, kern.s_nodes, kern.kprime_nodes, cos_t, wts, wsum)
        v = dense @ u_ref
        if v_prev is not None and np.max(np.abs(v - v_prev)) <= rel_tol * np.max(np.abs(v)):
            return order, dense
        v_prev = v
        order *= 2


@pytest.mark.parametrize("dim, n", [(2, 300), (3, 300), (2, 2048), (3, 1100)])
def test_nd_operator_matches_dense_matrix(dim, n):
    # The dense N >= 2 builder stays as the oracle for the compressed operator.
    g = grid.RadialGrid(dim, 3.0 / n, n)
    for kern in _oracle_kernels(g):
        op = drift.build_interaction_matrix(g, kern)
        order, dense = _dense_order_rule(g, kern)
        assert op.quadrature_order == order, kern.name()
        for seed in range(3):
            masses = np.random.default_rng(seed).uniform(0.0, 1.0, n) * g.cell_volumes
            gap = np.max(np.abs(op.apply(masses) - dense @ masses))
            assert gap <= 1e-10 * kern.kprime_sup_norm * np.sum(masses), (kern.name(), gap)


def test_compression_probe_rejects_loose_tolerance(monkeypatch):
    monkeypatch.setattr(drift, "_ACA_TOL", 1e-3)
    g = grid.RadialGrid(2, 3.0 / 600, 600)
    with pytest.raises(drift.CompressionError):
        drift.build_interaction_matrix(g, kernels.exponential_kernel(), quadrature_order=32)


def test_1d_zero_kernel_gives_zero_velocity():
    g = grid.RadialGrid.make(1, 1.0, 0.05)
    m = drift.build_interaction_matrix(g, kernels.zero_kernel())
    assert np.all(drift.apply_drift(m, _field(g, np.ones(g.n))) == 0.0)


def test_apply_rejects_non_finite_velocity():
    g = grid.RadialGrid.make(1, 1.0, 0.05)
    masses = np.ones(g.n)
    masses[3] = np.nan
    for kern in (kernels.neg_abs_kernel(), kernels.exponential_kernel()):
        with pytest.raises(RuntimeError, match="drift bound"):
            drift.build_interaction_matrix(g, kern).apply(masses)


def test_2d_disc_matches_direct_quadrature():
    # u = indicator(B_1)/pi; compare against adaptive 2-d quadrature over
    # the disc (independent of the angular-reduction implementation).
    dr = 1.0 / 200
    g = grid.RadialGrid.make(2, 3.0, dr)
    f = _field(g, np.where(g.r_centers < 1.0, 1.0 / math.pi, 0.0))
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    v = drift.apply_drift(m, f)
    i = int(np.argmin(np.abs(g.r_centers - 2.0)))
    r_eval = float(g.r_centers[i])

    def integrand(alpha, rho):
        d = math.hypot(r_eval - rho * math.cos(alpha), rho * math.sin(alpha))
        return -(r_eval - rho * math.cos(alpha)) / d * rho / math.pi

    oracle, _ = integrate.dblquad(integrand, 0.0, 1.0, 0.0, 2 * math.pi,
                                  epsabs=1e-10, epsrel=1e-10)
    assert abs(v[i] - oracle) < 1e-4


def test_apply_zero_field_gives_zero_velocity():
    g = grid.RadialGrid.make(2, 1.0, 0.02)
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    v = drift.apply_drift(m, _field(g, np.zeros(g.n)))
    assert np.all(v == 0.0)


@given(st.integers(min_value=0, max_value=5000), st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_velocity_bound_random_fields(seed, dim):
    rng = np.random.default_rng(seed)
    g = grid.RadialGrid.make(dim, 1.0, 0.05)
    kern = kernels.exponential_kernel() if seed % 2 else kernels.neg_abs_kernel()
    m = drift.build_interaction_matrix(g, kern, quadrature_order=64)
    u = rng.uniform(0.0, 2.0, g.n)
    f = _field(g, u)
    v = drift.apply_drift(m, f)
    total = grid.mass(f)
    assert np.max(np.abs(v)) <= kern.kprime_sup_norm * total * (1 + 1e-12)


@given(st.integers(min_value=0, max_value=5000), st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_drift_points_inward(seed, dim):
    # Constant-gradient attraction pulls inward for every field (each
    # matrix entry is nonpositive); a decaying gradient does so only for
    # radially non-increasing profiles, where a near outer ring can no
    # longer outpull the mass inside.
    rng = np.random.default_rng(seed)
    g = grid.RadialGrid.make(dim, 1.0, 0.05)
    m_const = drift.build_interaction_matrix(g, kernels.neg_abs_kernel(), quadrature_order=64)
    f_any = _field(g, rng.uniform(0.0, 2.0, g.n))
    assert np.all(drift.apply_drift(m_const, f_any) <= 1e-12)
    m_exp = drift.build_interaction_matrix(g, kernels.exponential_kernel(), quadrature_order=64)
    decreasing = np.sort(rng.uniform(0.0, 2.0, g.n))[::-1].copy()
    assert np.all(drift.apply_drift(m_exp, _field(g, decreasing)) <= 1e-12)


def test_apply_rejects_grid_mismatch():
    g1 = grid.RadialGrid.make(1, 1.0, 0.05)
    g2 = grid.RadialGrid.make(1, 1.0, 0.04)
    m = drift.build_interaction_matrix(g1, kernels.neg_abs_kernel())
    with pytest.raises(ValueError):
        drift.apply_drift(m, _field(g2, np.zeros(g2.n)))


def test_quadrature_order_doubling_converges():
    g = grid.RadialGrid.make(2, 1.5, 0.01)
    f = grid.make_initial_condition(grid.GaussianBump(1.0, 0.3), g)
    m_lo = drift.build_interaction_matrix(g, kernels.exponential_kernel(), quadrature_order=64)
    m_hi = drift.build_interaction_matrix(g, kernels.exponential_kernel(), quadrature_order=128)
    v_lo = drift.apply_drift(m_lo, f)
    v_hi = drift.apply_drift(m_hi, f)
    change = np.max(np.abs(v_hi - v_lo)) / np.max(np.abs(v_hi))
    assert change < 1e-6
    auto = drift.build_interaction_matrix(g, kernels.exponential_kernel())
    assert auto.quadrature_order >= 32


def test_entries_depend_only_on_radii():
    # The same (r_i, rho_j) pair must produce the same weight regardless of
    # the rest of the grid.
    kern = kernels.exponential_kernel()
    small = grid.RadialGrid.make(2, 1.0, 0.05)
    large = grid.RadialGrid.make(2, 2.0, 0.05)
    m_small = drift.build_interaction_matrix(small, kern, quadrature_order=64)
    m_large = drift.build_interaction_matrix(large, kern, quadrature_order=64)
    n = small.n
    unit = np.zeros(large.n)
    unit[:n] = 1.0
    assert np.allclose(m_small.apply(np.ones(n)), m_large.apply(unit)[:n], rtol=0, atol=1e-13)


def test_tabulated_kernel_range_enforced_in_build():
    g = grid.RadialGrid.make(1, 2.0, 0.05)
    s = np.linspace(0.01, 1.0, 50)  # reaches only 1.0 < 2 * r_max
    tab = kernels.tabulated_kernel(s, -np.exp(-s))
    with pytest.raises(ValueError):
        drift.build_interaction_matrix(g, tab)


def test_jump_identity_zero_field():
    g = grid.RadialGrid.make(1, 3.0, 0.01)
    res = drift.jump_identity_residual(kernels.neg_abs_kernel(), _field(g, np.zeros(g.n)))
    assert res.residual == 0.0


def test_jump_identity_selects_negative_sign():
    g = grid.RadialGrid.make(1, 8.0, 0.01)
    v = grid.make_initial_condition(grid.GaussianBump(1.0, 1.0), g)
    for kern in (kernels.neg_abs_kernel(), kernels.exponential_kernel()):
        res = drift.jump_identity_residual(kern, v)
        assert res.sign == -1
        assert res.residual < 5e-5
        assert res.attraction_limit == pytest.approx(1.0)
