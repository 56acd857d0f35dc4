import math
import pickle

import numpy as np
import pytest

from aggdiff import analysis, drift, grid, kernels, solver


def _gaussian_field(g, width=0.25, mass=1.0):
    return grid.make_initial_condition(grid.GaussianBump(mass, width), g)


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.1, t_end=-1.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.1, t_end=1.0, cfl_number=1.5)
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.1, t_end=1.0, diffusion_mode="magic")


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_single_step_mass_telescopes_exactly(mode):
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    rng = np.random.default_rng(7)
    f = grid.DensityField(g, rng.uniform(0.0, 1.0, g.n))
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    v = drift.apply_drift(m, f)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=1.0, diffusion_mode=mode)
    dt = 0.25 * solver.stated_cfl_bound(g, cfg.epsilon, v, cfg.cfl_number, mode)
    new, outflux, _ = solver.advance(f, v, cfg, dt)
    before = float(np.dot(f.values, g.cell_volumes))
    after = float(np.dot(new.values, g.cell_volumes))
    assert after + outflux == pytest.approx(before, rel=1e-13)


def test_constant_interior_unchanged_without_drift():
    g = grid.RadialGrid.make(2, 1.0, 0.02)
    f = grid.DensityField(g, np.ones(g.n))
    cfg = solver.SolverConfig(epsilon=0.1, t_end=1.0, diffusion_mode="explicit")
    v = np.zeros(g.n)
    dt = 0.5 * solver.stated_cfl_bound(g, cfg.epsilon, v, cfg.cfl_number, "explicit")
    new, _, _ = solver.advance(f, v, cfg, dt)
    # all interior fluxes vanish for constant data; only the rim cell loses
    assert np.max(np.abs(new.values[:-1] - 1.0)) == 0.0
    assert new.values[-1] < 1.0


def test_step_enforces_stated_cfl():
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    f = _gaussian_field(g)
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    cfg = solver.SolverConfig(epsilon=0.05, t_end=1.0, diffusion_mode="explicit")
    with pytest.raises(solver.CFLError):
        solver.step(f, m, cfg, dt=1.0)
    v = drift.apply_drift(m, f)
    dt = 0.9 * solver.stated_cfl_bound(g, cfg.epsilon, v, cfg.cfl_number, "explicit")
    stepped = solver.step(f, m, cfg, dt)
    assert stepped.time == pytest.approx(dt)


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_run_preserves_positivity_and_mass(mode):
    g = grid.RadialGrid.make(1, 2.5, 0.005)
    f = _gaussian_field(g)
    cfg = solver.SolverConfig(
        epsilon=0.05, t_end=0.3, diffusion_mode=mode, record_interval=0.03
    )
    traj = solver.run(f, kernels.neg_abs_kernel(), cfg, scale=5.0)
    assert traj.mass_error() <= 1e-6
    assert traj.clipped_cells == 0
    assert np.all(traj.mass > 0.0)


def test_run_records_initial_sample_only_for_zero_t_end():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.0, record_interval=0.1)
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0


def test_run_snapshot_storage():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(
        epsilon=0.1, t_end=0.1, record_interval=0.01, store_snapshots=True
    )
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert traj.snapshots.shape == (len(traj.times), g.n)
    assert np.array_equal(traj.snapshots[0], f.values)


def test_heat_profile_quick_check():
    # Zero-kernel run against the exact spreading profile (coarse grid).
    eps, width, t_end = 0.1, 0.2, 0.5
    g = grid.RadialGrid.make(1, 5.0, 0.01)
    f = _gaussian_field(g, width=width)
    cfg = solver.SolverConfig(
        epsilon=eps, t_end=t_end, diffusion_mode="explicit", record_interval=0.05,
        store_snapshots=True,
    )
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    t_eff = t_end + width**2 / (2 * eps)
    exact = np.exp(-g.r_centers**2 / (4 * eps * t_eff)) / math.sqrt(4 * math.pi * eps * t_eff)
    err = float(np.dot(np.abs(traj.snapshots[-1] - exact), g.cell_volumes))
    assert err < 5e-3


def test_grid_convergence_under_refinement():
    # L1 error against a fine reference shrinks by >= 1.8 per dr halving.
    eps, t_end = 0.05, 0.1
    kern = kernels.neg_abs_kernel()

    def final_values(dr):
        g = grid.RadialGrid.make(1, 2.0, dr)
        f = _gaussian_field(g, width=0.3)
        cfg = solver.SolverConfig(
            epsilon=eps, t_end=t_end, record_interval=t_end, store_snapshots=True
        )
        traj = solver.run(f, kern, cfg, scale=2.0)
        return g, traj.snapshots[-1]

    g_ref, u_ref = final_values(1e-3)

    def l1_error(dr):
        g, u = final_values(dr)
        factor = round(dr / 1e-3)
        coarse_ref = u_ref.reshape(-1, factor).mean(axis=1)
        return float(np.dot(np.abs(u - coarse_ref), g.cell_volumes))

    e_coarse = l1_error(8e-3)
    e_fine = l1_error(4e-3)
    assert e_coarse / e_fine >= 1.8


def test_boundary_outflow_is_recorded_not_lost():
    # A field pushed against the rim keeps mass + outflow constant.
    g = grid.RadialGrid.make(1, 0.5, 0.01)
    f = _gaussian_field(g, width=0.2)
    cfg = solver.SolverConfig(epsilon=0.2, t_end=0.5, record_interval=0.05)
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert traj.outflow_cumulative[-1] > 1e-3  # rim genuinely leaks here
    assert traj.mass_error() <= 1e-9
    assert not traj.domain_adequate


def test_run_rejects_nonpositive_scale():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.1)
    with pytest.raises(ValueError):
        solver.run(f, kernels.zero_kernel(), cfg, scale=0.0)


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_run_stops_at_first_non_finite_step(mode):
    # Finite but huge densities overflow the upwind flux in the first step.
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = grid.DensityField(g, np.full(g.n, 1e200))
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.1, diffusion_mode=mode)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(solver.NonFiniteError) as info:
            solver.run(f, kernels.neg_abs_kernel(), cfg, scale=1.0)
    err = info.value
    assert err.step == 1
    assert 0.0 < err.time < cfg.t_end
    assert "step 1" in str(err)
    # Sweep workers send exceptions back pickled.
    copy = pickle.loads(pickle.dumps(err))
    assert (copy.time, copy.step, str(copy)) == (err.time, err.step, str(err))
