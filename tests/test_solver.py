import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from aggdiff import _accel, analysis, drift, grid, kernels, solver


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


@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_run_steps_within_stated_cfl_bound(mode, monkeypatch):
    # Every step run takes honours the advertised bound for the velocity it
    # advances with; the bound is active, not merely far above the steps.
    ratios = []
    advance = solver.advance

    def checked_advance(field, velocity, config, dt):
        bound = solver.stated_cfl_bound(field.grid, config.epsilon, velocity, config.cfl_number, mode)
        ratios.append(dt / bound)
        return advance(field, velocity, config, dt)

    monkeypatch.setattr(solver, "advance", checked_advance)
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=0.2, diffusion_mode=mode, record_interval=0.05)
    solver.run(_gaussian_field(g), kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert ratios and max(ratios) <= 1.0 + 1e-12
    assert max(ratios) >= 0.5


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


@pytest.mark.parametrize("n", [3, 50, 2000])
def test_thomas_solve_matches_dense_solve(n):
    rng = np.random.default_rng(n)
    lower = rng.uniform(-1.0, 1.0, n - 1)
    upper = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.0 + rng.uniform(0.0, 1.0, n)  # strictly diagonally dominant
    rhs = rng.uniform(-1.0, 1.0, n)
    dense = np.diag(diag) + np.diag(lower, -1) + np.diag(upper, 1)
    expected = np.linalg.solve(dense, rhs)
    x = _accel.thomas_solve(lower.copy(), diag.copy(), upper.copy(), rhs.copy())
    assert x.shape == (n,)
    assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_thomas_solve_raises_on_zero_pivot():
    with pytest.raises(np.linalg.LinAlgError, match="pivot"):
        _accel.thomas_solve(np.zeros(3), np.zeros(4), np.zeros(3), np.ones(4))


def _positivity_bound_oracle(grid, epsilon, velocity, cfl_number, diffusion_mode):
    # The bound by boolean gathers: accumulate onto zeros, divide the positive entries.
    area = grid.face_areas
    vol = grid.cell_volumes
    vf = 0.5 * (velocity[:-1] + velocity[1:])
    out = np.zeros(grid.n)
    out[:-1] += area[1:-1] * np.maximum(vf, 0.0)
    out[1:] += area[1:-1] * np.maximum(-vf, 0.0)
    out[-1] += area[-1] * max(float(velocity[-1]), 0.0)
    if diffusion_mode == "explicit":
        out[:-1] += epsilon * area[1:-1] / grid.dr
        out[1:] += epsilon * area[1:-1] / grid.dr
        out[-1] += epsilon * area[-1] / grid.dr
    positive = out > 0.0
    if not np.any(positive):
        return math.inf
    return float(cfl_number * np.min(vol[positive] / out[positive]))


@pytest.mark.parametrize("dimension", [1, 2, 3])
@pytest.mark.parametrize("mode", ["explicit", "implicit"])
def test_positivity_bound_matches_gather_formula_bitwise(dimension, mode):
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    rng = np.random.default_rng(dimension)
    for trial in range(20):
        velocity = rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=g.n)
        if trial % 4 == 1:
            velocity = np.abs(velocity)  # every face flows outward
        elif trial % 4 == 2:
            velocity = -np.abs(velocity)  # every face flows inward, none out at the rim
        elif trial % 4 == 3:
            velocity[rng.uniform(size=g.n) < 0.5] = 0.0
        got = solver.positivity_bound(g, 0.03, velocity, 0.5, mode)
        assert got == _positivity_bound_oracle(g, 0.03, velocity, 0.5, mode)


def test_positivity_bound_is_infinite_without_outflow():
    g = grid.RadialGrid.make(2, 1.0, 0.01)
    assert solver.positivity_bound(g, 0.1, np.zeros(g.n), 0.5, "implicit") == math.inf


def test_import_leaves_scipy_linalg_unloaded():
    # The benchmark's setup_s runs from launch to the first step, so the
    # scipy.linalg import (about 0.2 s) belongs to the first implicit solve.
    src = Path(solver.__file__).resolve().parents[1]
    code = "import sys, aggdiff.cli; print('scipy.linalg' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.stdout.strip() == "False"


def test_run_calls_module_advance_once_per_implicit_solve(monkeypatch):
    # The benchmark hooks solver.advance and _accel.thomas_solve by name.
    calls = {"advance": 0, "solve": 0}
    advance, thomas_solve = solver.advance, _accel.thomas_solve

    def counted_advance(*args, **kwargs):
        calls["advance"] += 1
        return advance(*args, **kwargs)

    def counted_solve(*args, **kwargs):
        calls["solve"] += 1
        return thomas_solve(*args, **kwargs)

    monkeypatch.setattr(solver, "advance", counted_advance)
    monkeypatch.setattr(_accel, "thomas_solve", counted_solve)
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=0.05, record_interval=0.01)
    solver.run(_gaussian_field(g, width=0.1), kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert calls["advance"] >= 1
    assert calls["advance"] == calls["solve"]
