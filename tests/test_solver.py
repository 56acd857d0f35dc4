import ctypes
import functools
import math
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from aggdiff import _accel, analysis, drift, grid, kernels, solver


def _gaussian_field(g, width=0.25, mass=1.0):
    return grid.make_initial_condition(grid.GaussianBump(mass, width), g)


# Case ids keep the names these tests had while the solver also offered an
# explicit-diffusion scheme; every step now diffuses by backward Euler.
IMPLICIT_IDS = ["implicit-1", "implicit-2", "implicit-3"]


def test_config_validation():
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.0, t_end=1.0)
    with pytest.raises(ValueError):
        solver.SolverConfig(epsilon=0.1, t_end=-1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("epsilon", math.nan),
        ("epsilon", math.inf),
        ("epsilon", -0.1),
        ("t_end", math.nan),
        ("t_end", math.inf),
        ("record_samples", 0),
        ("record_samples", -1),
        ("record_samples", 2.5),
        ("record_samples", math.nan),
        ("record_samples", True),
        ("dt_max", math.nan),
        ("dt_max", math.inf),
        ("dt_max", 0.0),
        ("dt_max", -1.0),
        ("snapshot_radius", math.nan),
        ("snapshot_radius", -1.0),
    ],
)
def test_config_rejects_non_finite_and_nonpositive_settings(field, value):
    # Each bad setting fails on construction, before any drift build, with
    # a ValueError that names it; t_end = inf fails with a sample count
    # too, where it used to run no step at all.
    settings = {"epsilon": 0.1, "t_end": 1.0, "record_samples": 10, field: value}
    with pytest.raises(ValueError, match=field):
        solver.SolverConfig(**settings)


@pytest.mark.parametrize("radius", [None, 0.0, math.inf])
def test_config_accepts_no_empty_and_every_snapshot(radius):
    assert solver.SolverConfig(epsilon=0.1, t_end=1.0, snapshot_radius=radius).snapshot_radius == radius


@pytest.mark.parametrize("epsilon", [0.05], ids=["implicit"])
def test_single_step_mass_telescopes_exactly(epsilon):
    for dimension in (1, 2, 3):
        g = grid.RadialGrid.make(dimension, 2.0, 0.01)
        rng = np.random.default_rng(7)
        f = grid.DensityField(g, rng.uniform(0.0, 1.0, g.n))
        m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
        v = m.apply(f.values * g.cell_volumes)
        cfg = solver.SolverConfig(epsilon=epsilon, t_end=1.0)
        dt = 0.25 * solver.stated_cfl_bound(g, np.max(np.abs(v)))
        new, outflux, _ = solver.advance(f, solver.face_velocities(v, g.n, g.n), cfg, dt)
        assert outflux > 0.0
        before = float(np.dot(f.values, g.cell_volumes))
        after = float(np.dot(new, g.cell_volumes))
        assert after + outflux == pytest.approx(before, rel=1e-13)


# The ids name the update without diffusion, as when it also had an
# explicit-diffusion branch.
@pytest.mark.parametrize("dimension", [1, 2, 3], ids=["False-1", "False-2", "False-3"])
def test_explicit_update_matches_flux_difference_formula(dimension):
    # Oracle: face fluxes F_f (zero at the origin), u - dt (a_{f+1} F_{f+1} - a_f F_f) / vol.
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    rng = np.random.default_rng(dimension)
    u = rng.uniform(0.0, 1.0, g.n)
    for velocity in (rng.normal(size=g.n), -np.abs(rng.normal(size=g.n))):
        dt = 1e-4
        vf = 0.5 * (velocity[:-1] + velocity[1:])
        flux = np.zeros(g.n + 1)
        flux[1:-1] = vf * np.where(vf >= 0.0, u[:-1], u[1:])
        flux[-1] = max(velocity[-1], 0.0) * u[-1]
        flux *= g.face_areas
        expected = u - dt * np.diff(flux) / g.cell_volumes
        faces = solver.face_velocities(velocity, g.n, g.n)
        got, outflux = _accel.explicit_update(u, faces, g.right_ratios, g.left_ratios, g.face_areas[-1], dt)
        assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
        assert outflux == dt * flux[-1]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_implicit_diffusion_matches_row_scaled_dense_solve(dimension):
    # Oracle: (I + c V^-1 A) u = u* with c = eps dt / dr, A the face-area
    # diffusion matrix (no origin face, ghost zero beyond the rim).
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    eps, dt = 0.05, 2e-3
    u_star = np.random.default_rng(dimension).uniform(0.0, 1.0, g.n)
    a, vol, n = g.face_areas, g.cell_volumes, g.n
    c = eps * dt / g.dr
    A = np.zeros((n, n))
    for f in range(1, n):  # interior face f between cells f-1 and f
        A[f - 1, f - 1] += a[f]
        A[f, f] += a[f]
        A[f - 1, f] -= a[f]
        A[f, f - 1] -= a[f]
    A[n - 1, n - 1] += a[n]
    expected = np.linalg.solve(np.eye(n) + c * A / vol[:, None], u_star)
    got, rim = solver._implicit_diffusion(u_star, g, eps, dt)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert rim == pytest.approx(eps * dt * a[n] * expected[-1] / g.dr, rel=1e-13)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_implicit_diffusion_on_a_window_matches_closed_dense_solve(dimension):
    # Oracle: the dense solve on the first W cells with no flux through
    # face W; the window's mass is conserved and nothing flows out.
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    eps, dt, n = 0.05, 2e-3, 120
    u_star = np.random.default_rng(dimension).uniform(0.5, 1.5, n)
    a, vol = g.face_areas, g.cell_volumes[:n]
    c = eps * dt / g.dr
    A = np.zeros((n, n))
    for f in range(1, n):
        A[f - 1, f - 1] += a[f]
        A[f, f] += a[f]
        A[f - 1, f] -= a[f]
        A[f, f - 1] -= a[f]
    expected = np.linalg.solve(np.diag(vol) + c * A, vol * u_star)
    got, rim = solver._implicit_diffusion(u_star, g, eps, dt)
    assert rim == 0.0
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))
    assert float(np.dot(got, vol)) == pytest.approx(float(np.dot(u_star, vol)), rel=1e-13)


def test_constant_interior_unchanged_without_drift():
    # All interior fluxes vanish for constant data: mass leaves through the
    # rim only. The backward-Euler solve spreads that loss inward, shrinking
    # by a factor of about 40 per cell here, so the inner half of the cells
    # keeps 1 to roundoff and the deficit grows towards the rim.
    g = grid.RadialGrid.make(2, 1.0, 0.02)
    f = grid.DensityField(g, np.ones(g.n))
    cfg = solver.SolverConfig(epsilon=0.1, t_end=1.0)
    v = np.zeros(g.n)
    new, outflux, _ = solver.advance(f, solver.face_velocities(v, g.n, g.n), cfg, 1e-4)
    deficit = 1.0 - new
    assert np.max(np.abs(deficit[: g.n // 2])) <= 1e-15
    assert np.all(np.diff(deficit[-8:]) > 0.0) and deficit[-1] > 0.0
    assert float(np.dot(deficit, g.cell_volumes)) == pytest.approx(outflux, rel=1e-10)


def _check_steps_within_stated_cfl_bound(monkeypatch, g, rel, epsilon):
    # Every step run takes honours the advertised bound for the velocity it
    # advances with; the bound is active, not merely far above the steps.
    # The step's |V|max and faces are those of the field's drift velocity,
    # to ``rel`` times |V|max.
    ratios = []
    speeds = []
    advance, stated_cfl_bound = solver.advance, solver.stated_cfl_bound
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())

    def seen_cfl_bound(grid, vmax):
        speeds.append(vmax)
        return stated_cfl_bound(grid, vmax)

    def checked_advance(field, faces, config, dt):
        velocity = op.apply(field.values * g.cell_volumes)
        vmax = np.max(np.abs(velocity))
        assert abs(speeds[-1] - vmax) <= rel * vmax
        expected = solver.face_velocities(velocity, faces.shape[0] - 1, g.n)
        assert np.max(np.abs(faces - expected)) <= rel * vmax
        bound = stated_cfl_bound(field.grid, speeds[-1])
        ratios.append(dt / bound)
        return advance(field, faces, config, dt)

    monkeypatch.setattr(solver, "stated_cfl_bound", seen_cfl_bound)
    monkeypatch.setattr(solver, "advance", checked_advance)
    cfg = solver.SolverConfig(epsilon=epsilon, t_end=0.2, record_samples=4)
    solver.run(_gaussian_field(g), kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert ratios and max(ratios) <= 1.0 + 1e-12
    assert max(ratios) >= 0.5


@pytest.mark.parametrize("epsilon", [0.05], ids=["implicit"])
def test_run_steps_within_stated_cfl_bound(monkeypatch, epsilon):
    _check_steps_within_stated_cfl_bound(monkeypatch, grid.RadialGrid.make(1, 2.0, 0.01), 0.0, epsilon)


@pytest.mark.parametrize("epsilon", [0.05], ids=["implicit"])
def test_2d_run_steps_within_stated_cfl_bound(monkeypatch, epsilon):
    # The 2-D drift computes V on the step's window only and |V|max from
    # the rim row: both agree with the whole-grid product to roundoff.
    g = grid.RadialGrid.make(2, 4.0, 0.02)
    masses = _gaussian_field(g).values * g.cell_volumes
    assert drift.mass_window(masses, float(np.sum(masses))) + solver._PAD < g.n
    _check_steps_within_stated_cfl_bound(monkeypatch, g, 1e-12, epsilon)


@pytest.mark.parametrize("epsilon", [0.05], ids=["implicit"])
def test_run_preserves_positivity_and_mass(epsilon):
    g = grid.RadialGrid.make(1, 2.5, 0.005)
    f = _gaussian_field(g)
    cfg = solver.SolverConfig(epsilon=epsilon, t_end=0.3, record_samples=10)
    traj = solver.run(f, kernels.neg_abs_kernel(), cfg, scale=5.0)
    assert traj.mass_error() <= 1e-6
    assert traj.clipped_cells == 0
    assert np.all(traj.mass > 0.0)


def test_run_records_initial_sample_only_for_zero_t_end():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.0, record_samples=10)
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert len(traj.times) == 1
    assert traj.times[0] == 0.0


def test_run_snapshot_storage(monkeypatch):
    # A zero-kernel run has no CFL or positivity bound and no dt_max: the
    # record times t_end * (k / K) alone cap its steps, and it samples each
    # of them, k = 0..K, the last one t_end.
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    t_end, samples = 0.1, 10
    dts = []
    advance = solver.advance

    def recorded_advance(field, faces, config, dt):
        dts.append(dt)
        return advance(field, faces, config, dt)

    monkeypatch.setattr(solver, "advance", recorded_advance)
    cfg = solver.SolverConfig(
        epsilon=0.1, t_end=t_end, record_samples=samples, snapshot_radius=math.inf
    )
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert traj.snapshots.shape == (len(traj.times), g.n)
    assert np.array_equal(traj.snapshots[0], f.values)
    assert np.array_equal(traj.times, solver.record_times(t_end, samples))
    assert traj.times[-1] == t_end
    assert max(dts) <= t_end / samples * (1 + 1e-12)


@pytest.mark.parametrize("samples, t_end", [(7, 0.05), (10, 0.1)])
def test_run_records_at_t_end_times_k_over_k_bit_for_bit(samples, t_end):
    # Record k is t_end * (k / K), computed from k. Running sums of t_end / K
    # end off it in the last bits (0.09999999999999999 for K = 10) and, past
    # K of about 9000, add a sliver step and a K + 2nd sample.
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    assert g.n == 10
    cfg = solver.SolverConfig(epsilon=0.1, t_end=t_end, record_samples=samples)
    traj = solver.run(_gaussian_field(g), kernels.zero_kernel(), cfg, scale=1.0)
    assert traj.times.tolist() == [t_end * (k / samples) for k in range(samples + 1)]


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_heat_profile_quick_check(dimension):
    # Zero-kernel run against the exact spreading profile
    # (4 pi eps t)^(-N/2) exp(-r^2 / (4 eps t)) on a coarse grid; the
    # Gaussian of this width is that profile at t0 = width^2 / (2 eps).
    # Backward Euler is first order in time, so dt is capped: in 1-D, steps
    # of the record grid's spacing (0.05) miss the profile by 1.7e-2 in L1. With
    # the cap the L1 errors are 1.8e-3, 3.3e-3 and 4.6e-3 for N = 1, 2, 3.
    eps, width, t_end = 0.1, 0.2, 0.5
    g = grid.RadialGrid.make(dimension, 5.0, 0.01)
    f = _gaussian_field(g, width=width)
    cfg = solver.SolverConfig(
        epsilon=eps, t_end=t_end, record_samples=10, dt_max=0.005, snapshot_radius=math.inf,
    )
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    t_eff = t_end + width**2 / (2 * eps)
    exact = np.exp(-g.r_centers**2 / (4 * eps * t_eff)) * (4 * math.pi * eps * t_eff) ** (-dimension / 2)
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
            epsilon=eps, t_end=t_end, record_samples=1, snapshot_radius=math.inf
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
    cfg = solver.SolverConfig(epsilon=0.2, t_end=0.5, record_samples=10)
    traj = solver.run(f, kernels.zero_kernel(), cfg, scale=1.0)
    assert traj.outflow_cumulative[-1] > 1e-3  # rim genuinely leaks here
    assert traj.mass_error() <= 1e-9
    assert traj.boundary_loss() == traj.outflow_cumulative[-1] / traj.mass[0]
    assert traj.boundary_loss() > analysis.BOUNDARY_LOSS_TOLERANCE


def test_run_rejects_nonpositive_scale():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.1)
    with pytest.raises(ValueError):
        solver.run(f, kernels.zero_kernel(), cfg, scale=0.0)


@pytest.mark.parametrize("epsilon", [0.1], ids=["implicit"])
def test_run_stops_at_first_non_finite_step(epsilon):
    # Finite but huge densities overflow the upwind flux in the first step.
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = grid.DensityField(g, np.full(g.n, 1e200))
    cfg = solver.SolverConfig(epsilon=epsilon, t_end=0.1)
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


@pytest.mark.parametrize("dimension", [2, 3])
def test_run_stops_when_the_cell_mass_sum_overflows(dimension):
    # Every density and cell mass is finite, but their sum is not: the run
    # names the step instead of failing in the drift's bound check.
    g = grid.RadialGrid.make(dimension, 10.0, 0.1)
    f = grid.DensityField(g, np.full(g.n, 0.5 * np.finfo(float).max / g.cell_volumes[-1]))
    assert np.all(np.isfinite(f.values * g.cell_volumes))
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.1)
    with np.errstate(over="ignore"):
        with pytest.raises(solver.NonFiniteError) as info:
            solver.run(f, kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert (info.value.step, info.value.time) == (1, 0.0)


def test_run_stops_when_the_volume_weighted_solve_overflows():
    # Transport leaves u = 1e307 finite without drift; vol * u on the
    # right-hand side of the implicit solve overflows near the rim, where
    # this N = 3 grid's volumes reach 124. ``run`` cannot get here: it
    # stops first when the cell-mass sum overflows, and upwind transport
    # keeps every vol * u* at or below that finite sum. So the step is
    # taken directly, outside any run.
    g = grid.RadialGrid.make(3, 10.0, 0.1)
    f = grid.DensityField(g, np.full(g.n, 1e307))
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.1)
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(f.values * g.cell_volumes).all()
        with pytest.raises(solver.NonFiniteError) as info:
            solver.advance(f, np.zeros(g.n + 1), cfg, 1e-3)
    assert info.value.step is None
    assert info.value.time == 1e-3


def _spd_systems(n):
    # Symmetric positive definite systems (diag, off, rhs): a random
    # diagonally dominant one and the implicit step's vol + c A on an N = 3
    # grid, whose diagonal spans decades (vol grows like r^2).
    rng = np.random.default_rng(n)
    off = rng.uniform(-1.0, 1.0, n - 1)
    diag = 2.0 + rng.uniform(0.0, 1.0, n)
    g = grid.RadialGrid(3, 0.01, n)
    c = 0.05 * 2e-3 / g.dr
    systems = [(diag, off), (g.cell_volumes + c * g.face_sums, -c * g.face_areas[1:-1])]
    return [(diag, off, rng.uniform(-1.0, 1.0, n)) for diag, off in systems]


def _numpy_exports_ptsv():
    try:
        return hasattr(ctypes.CDLL(np.linalg._umath_linalg.__file__), _accel._PTSV_SYMBOL)
    except (AttributeError, OSError):
        return False


@pytest.mark.parametrize("n", [3, 50, 2000])
def test_thomas_solve_matches_dense_solve(n):
    for diag, off, rhs in _spd_systems(n):
        dense = np.diag(diag) + np.diag(off, -1) + np.diag(off, 1)
        expected = np.linalg.solve(dense, rhs)
        x = _accel.thomas_solve(diag.copy(), off.copy(), rhs.copy())
        assert x.shape == (n,)
        assert np.max(np.abs(x - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("n", [3, 50, 2000])
def test_thomas_solve_is_scipy_ptsv_bitwise(n):
    from scipy.linalg import lapack

    for diag, off, rhs in _spd_systems(n):
        expected = lapack.dptsv(diag, off, rhs)[2]
        x = _accel.thomas_solve(diag.copy(), off.copy(), rhs.copy())
        assert x.tobytes() == expected.tobytes()


@pytest.fixture
def flapack_ptsv(monkeypatch):
    # ptsv as a NumPy whose LAPACK lacks the symbol gets it.
    monkeypatch.setattr(_accel, "_PTSV_SYMBOL", "no_such_routine_")
    _accel._ptsv.cache_clear()
    yield
    _accel._ptsv.cache_clear()


def test_flapack_fallback_gives_the_same_bits(flapack_ptsv):
    from scipy.linalg import lapack

    assert _accel._ptsv().__qualname__.startswith("_flapack_ptsv")
    for n in (3, 50, 2000):
        for diag, off, rhs in _spd_systems(n):
            x = _accel.thomas_solve(diag.copy(), off.copy(), rhs.copy())
            assert x.tobytes() == lapack.dptsv(diag, off, rhs)[2].tobytes()
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        _accel.thomas_solve(np.zeros(4), np.zeros(3), np.ones(4))


def _read_only(n):
    a = np.ones(n)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize(
    "diag, off, rhs",
    [
        (np.full(4, 3.0, dtype=np.float32), np.ones(3), np.ones(4)),
        (np.full(4, 3.0), np.ones(3, dtype=np.float32), np.ones(4)),
        (np.full(4, 3.0), np.ones(3), np.arange(4)),
        (np.full(8, 3.0)[::2], np.ones(3), np.ones(4)),
        (np.full(4, 3.0), np.ones(6)[::2], np.ones(4)),
        (np.full(4, 3.0), np.ones(3), np.ones(8)[::2]),
        (np.full(4, 3.0), np.ones(3), _read_only(4)),
        (np.full(4, 3.0), _read_only(3), np.ones(4)),
        (np.full(4, 3.0), np.ones(3), np.frombuffer(bytearray(33), offset=1)),
        (np.full(4, 3.0), np.ones(2), np.ones(4)),
        (np.full(4, 3.0), np.ones(3), np.ones(3)),
        (np.full(4, 3.0), np.ones(4), np.ones(4)),
        (np.full(1, 3.0), np.ones(0), np.ones(1)),
        (np.full((2, 2), 3.0), np.ones(3), np.ones(4)),
        ([3.0, 3.0], [1.0], [1.0, 1.0]),
    ],
    ids=[
        "float32-diag", "float32-off", "integer-rhs", "strided-diag", "strided-off",
        "strided-rhs", "read-only-rhs", "read-only-off", "misaligned-rhs", "short-off", "short-rhs",
        "long-off", "n-1", "2d-diag", "lists",
    ],
)
def test_thomas_solve_refuses_what_lapack_cannot_take(diag, off, rhs):
    # LAPACK reads and writes the arrays' memory as n, n - 1 and n float64
    # values: a float32 array would be reinterpreted and a short one
    # overrun, so nothing reaches it unchecked.
    before = [np.array(a, copy=True) for a in (diag, off, rhs)]
    with pytest.raises(ValueError, match="float64"):
        _accel.thomas_solve(diag, off, rhs)
    for a, b in zip((diag, off, rhs), before):
        assert np.array_equal(a, b)


def test_thomas_solve_raises_on_zero_pivot():
    # ptsv factors without pivoting and needs a positive definite matrix.
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        _accel.thomas_solve(np.zeros(4), np.zeros(3), np.ones(4))
    with pytest.raises(np.linalg.LinAlgError, match="positive definite"):
        _accel.thomas_solve(np.array([1.0, 1.0, 1.0]), np.array([2.0, 0.0]), np.ones(3))


def _positivity_bound_oracle(grid, faces):
    # The rate form by boolean gathers: each cell's outflow rate per unit
    # volume accumulated onto zeros, right face first, then the largest.
    cells = faces.shape[0] - 1
    area, vol = grid.face_areas[: cells + 1], grid.cell_volumes[:cells]
    rate = np.zeros(cells)
    out_right = faces[1:] > 0.0
    rate[out_right] += area[1:][out_right] / vol[out_right] * faces[1:][out_right]
    out_left = faces[1:-1] < 0.0
    rate[1:][out_left] += area[1:-1][out_left] / vol[1:][out_left] * -faces[1:-1][out_left]
    top = rate.max()
    return solver.CFL / top if top > 0.0 else math.inf


def _volume_over_outflow_bound(grid, velocity):
    # The bound as CFL * min(vol / out), out summing each cell's outflow
    # coefficients (area times face velocity), by boolean gathers.
    area = grid.face_areas
    vol = grid.cell_volumes
    vf = 0.5 * (velocity[:-1] + velocity[1:])
    out = np.zeros(grid.n)
    out[:-1] += area[1:-1] * np.maximum(vf, 0.0)
    out[1:] += area[1:-1] * np.maximum(-vf, 0.0)
    out[-1] += area[-1] * max(float(velocity[-1]), 0.0)
    positive = out > 0.0
    if not np.any(positive):
        return math.inf
    return float(solver.CFL * np.min(vol[positive] / out[positive]))


def _velocity_patterns(g, rng, trials=20):
    """Cell velocities over five decades: mixed signs, all outward, all
    inward (none out at the rim), and mixed with half the cells at rest."""
    for trial in range(trials):
        velocity = rng.normal(scale=10.0 ** rng.uniform(-3, 2), size=g.n)
        if trial % 4 == 1:
            velocity = np.abs(velocity)
        elif trial % 4 == 2:
            velocity = -np.abs(velocity)
        elif trial % 4 == 3:
            velocity[rng.uniform(size=g.n) < 0.5] = 0.0
        yield velocity


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_positivity_bound_matches_gather_formula_bitwise(dimension):
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    for velocity in _velocity_patterns(g, np.random.default_rng(dimension)):
        faces = solver.face_velocities(velocity, g.n, g.n)
        assert solver.positivity_bound(g, faces) == _positivity_bound_oracle(g, faces)


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_positivity_bound_on_a_window_matches_gather_formula_bitwise(dimension):
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    for velocity in _velocity_patterns(g, np.random.default_rng(20 + dimension)):
        for cells in (2, 37, g.n - 1):
            faces = solver.face_velocities(velocity, cells, g.n)
            assert solver.positivity_bound(g, faces) == _positivity_bound_oracle(g, faces)


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_positivity_bound_agrees_with_volume_over_outflow_form(dimension):
    # CFL / max(out / vol) and CFL * min(vol / out) differ by roundoff only.
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    for velocity in _velocity_patterns(g, np.random.default_rng(10 + dimension)):
        got = solver.positivity_bound(g, solver.face_velocities(velocity, g.n, g.n))
        expected = _volume_over_outflow_bound(g, velocity)
        assert abs(got - expected) <= 1e-15 * expected


def test_positivity_bound_is_infinite_without_outflow():
    g = grid.RadialGrid.make(2, 1.0, 0.01)
    assert solver.positivity_bound(g, np.zeros(g.n + 1)) == math.inf


def test_face_velocities_average_the_cells():
    velocity = np.array([1.0, -3.0, 2.0, 4.0])
    assert solver.face_velocities(velocity, 4, 4).tolist() == [0.0, -1.0, -0.5, 3.0, 4.0]
    # A shorter window ends at a closed face, whether V covers the grid or
    # only the window.
    assert solver.face_velocities(velocity, 3, 4).tolist() == [0.0, -1.0, -0.5, 0.0]
    assert solver.face_velocities(velocity[:3], 3, 4).tolist() == [0.0, -1.0, -0.5, 0.0]


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_step_at_the_positivity_bound_stays_nonnegative(dimension):
    # Cell velocities (-1)^i m_i with m increasing give face velocities of
    # alternating sign, so every other cell loses mass through both faces.
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    rng = np.random.default_rng(dimension)
    cfg = solver.SolverConfig(epsilon=0.03, t_end=1.0)
    for scale in (1e-2, 1.0, 1e2):
        sign = np.where(np.arange(g.n) % 2 == 0, 1.0, -1.0)
        velocity = scale * sign * np.cumsum(rng.uniform(0.5, 1.5, g.n))
        faces = solver.face_velocities(velocity, g.n, g.n)
        assert np.all(faces[2:-1:2] > 0.0) and np.all(faces[1:-1:2] < 0.0)
        u = rng.uniform(0.0, 1.0, g.n)
        # The exact limit: dividing by CFL = 0.5 is exact in binary.
        dt = solver.positivity_bound(g, faces) / solver.CFL
        transported, _ = _accel.explicit_update(u, faces, g.right_ratios, g.left_ratios, g.face_areas[-1], dt)
        assert transported.min() >= -1e-14 * u.max()
        solver.advance(grid.DensityField(g, u), faces, cfg, dt)


def test_cell_velocities_are_rejected_where_faces_are_expected():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    velocity = np.linspace(-1.0, 1.0, g.n)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=1.0)
    with pytest.raises(ValueError):
        solver.positivity_bound(g, velocity)
    with pytest.raises(ValueError):
        solver.advance(_gaussian_field(g), velocity, cfg, 1e-4)


def _probe(code, *args) -> str:
    """stdout of ``code`` run by a fresh interpreter on this checkout's package."""
    src = Path(solver.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    return result.stdout


# Prints whether any mapping of the process names SciPy's bundled
# libraries or its LAPACK wrappers (None without /proc/self/maps).
_SCIPY_MAPPED = """
try:
    with open('/proc/self/maps') as fh:
        print('scipy_mapped', any('scipy.libs' in line or '_flapack' in line for line in fh))
except FileNotFoundError:
    print('scipy_mapped', None)
"""

_LAPACK_PROBE = """
import sys
import numpy as np
import aggdiff.cli
from aggdiff import _accel, grid, kernels, solver

print('scipy.linalg_at_import', 'scipy.linalg' in sys.modules)
g = grid.RadialGrid.make(1, 1.0, 0.05)
u0 = grid.DensityField(g, np.exp(-g.r_centers ** 2 / 0.02))
cfg = solver.SolverConfig(epsilon=0.1, t_end=0.01)
solver.run(u0, kernels.neg_abs_kernel(), cfg, scale=1.0)
print('scipy.linalg', 'scipy.linalg' in sys.modules)
""" + _SCIPY_MAPPED + """
from scipy.linalg import lapack

rng = np.random.default_rng(7)
diag, off, rhs = 3.0 + rng.uniform(0.0, 1.0, 40), rng.uniform(-1.0, 1.0, 39), rng.uniform(size=40)
ours = _accel.thomas_solve(diag.copy(), off.copy(), rhs.copy())
theirs = lapack.dptsv(diag, off, rhs)[2]
print('same_bits', ours.tobytes() == theirs.tobytes())
"""


@functools.cache
def _probe_lines(code) -> dict:
    """The ``name value`` lines ``code`` prints, run once per session."""
    return dict(line.split() for line in _probe(code).splitlines())


def test_import_leaves_scipy_linalg_unloaded():
    # The benchmark's setup_s runs from launch to the first step, and the
    # first step finds LAPACK's ptsv without importing scipy.linalg,
    # which costs 0.25-0.3 s and 26 MB. A later import of scipy.linalg
    # still works and solves with the same bits.
    loaded = _probe_lines(_LAPACK_PROBE)
    assert loaded["scipy.linalg_at_import"] == loaded["scipy.linalg"] == "False"
    assert loaded["same_bits"] == "True"


_SERIAL_SWEEP_PROBE = """
import sys
import aggdiff.cli
from aggdiff import analysis, grid, kernels

run = analysis.RunSettings(dr_max=0.02, dr_divisor=4.0, record_samples=20)
settings = analysis.SweepSettings(dimension=2, epsilons=(0.2, 0.1, 0.05, 0.02), run=run, jobs=1)
analysis.epsilon_sweep(kernels.neg_abs_kernel(), grid.GaussianBump(1.0, 0.25), settings)
for name in ('numpy.random', 'multiprocessing', 'concurrent.futures', 'scipy.linalg', 'hashlib', '_hashlib'):
    print(name, name in sys.modules)
""" + _SCIPY_MAPPED


def test_serial_2d_sweep_leaves_pool_and_random_unloaded():
    # A serial sweep never starts the pool, the drift probe draws no
    # random numbers and no analytic kernel is hashed: importing
    # multiprocessing and concurrent.futures costs about 20 ms per process,
    # numpy.random 16 ms and 6 MB, hashlib (OpenSSL's libcrypto) 3.4 MB.
    loaded = dict(_probe_lines(_SERIAL_SWEEP_PROBE))
    del loaded["scipy_mapped"]
    assert loaded == {
        "numpy.random": "False", "multiprocessing": "False",
        "concurrent.futures": "False", "scipy.linalg": "False",
        "hashlib": "False", "_hashlib": "False",
    }


@pytest.mark.parametrize("probe", [_LAPACK_PROBE, _SERIAL_SWEEP_PROBE], ids=["run", "serial-2d-sweep"])
def test_a_run_maps_no_scipy_library(probe):
    # ptsv comes from the OpenBLAS NumPy loaded at import, so no step maps
    # SciPy's second OpenBLAS (1624 kB resident) or its LAPACK wrappers.
    if not Path("/proc/self/maps").exists():
        pytest.skip("no /proc/self/maps to list the libraries a process maps")
    if not _numpy_exports_ptsv():
        pytest.skip(f"NumPy's LAPACK does not export {_accel._PTSV_SYMBOL}: ptsv comes from _flapack")
    assert _probe_lines(probe)["scipy_mapped"] == "False"


_SIMULATE_PROBE = """
import sys
import numpy as np
from aggdiff import cli, kernels

cli.main([sys.argv[3], "--config", sys.argv[1], "--out", sys.argv[2]])
print('hashlib' in sys.modules, '_hashlib' in sys.modules)
kernels.tabulated_kernel(np.array([0.5, 1.0]), np.array([-1.0, -1.0])).name()
print('hashlib' in sys.modules, '_hashlib' in sys.modules)
"""

TINY_NEG_ABS_1D = """
kernel: neg_abs
dimension: 1
epsilon: [0.2]
initial: {type: gaussian, mass: 1.0, width: 0.1}
scale: 2.0
t_end: 0.05
grid: {dr: 0.02, r_max: 2.0}
solver: {record_samples: 5}
"""

TINY_SWEEP = """
kernel: neg_abs
epsilon: [0.4, 0.2, 0.1, 0.04]
initial: {type: gaussian, mass: 1.0, width: 0.25}
grid: {dr_max: 0.02, dr_divisor: 8}
solver: {record_samples: 40}
"""


def test_cli_simulate_loads_hashlib_only_to_name_a_tabulated_kernel(tmp_path):
    # The benchmark runs aggdiff sweep through cli.main; only a tabulated
    # kernel's name is a digest there. simulate hashes the run it writes.
    config = tmp_path / "config.yaml"
    for command, text, loaded in (("sweep", TINY_SWEEP, "False False"), ("simulate", TINY_NEG_ABS_1D, "True True")):
        config.write_text(text)
        lines = _probe(_SIMULATE_PROBE, str(config), str(tmp_path / command), command).splitlines()
        assert lines[-2:] == [loaded, "True True"]


def test_run_calls_module_advance_once_per_implicit_solve(monkeypatch):
    # The benchmark hooks solver.stated_cfl_bound, solver.positivity_bound,
    # solver.advance and _accel.thomas_solve by name, and tells which bound
    # limited a step by comparing advance's fourth positional argument, dt,
    # with the two bounds of that step.
    events = []
    solves = []
    wrapped = {name: getattr(solver, name) for name in ("stated_cfl_bound", "positivity_bound")}
    advance, thomas_solve = solver.advance, _accel.thomas_solve

    def recorded(name):
        def bound(*args, **kwargs):
            value = wrapped[name](*args, **kwargs)
            events.append((name, value))
            return value

        return bound

    def recorded_advance(*args, **kwargs):
        assert len(args) == 4 and not kwargs
        events.append(("advance", args[3]))
        return advance(*args)

    def counted_solve(*args, **kwargs):
        solves.append(1)
        return thomas_solve(*args, **kwargs)

    for name in wrapped:
        monkeypatch.setattr(solver, name, recorded(name))
    monkeypatch.setattr(solver, "advance", recorded_advance)
    monkeypatch.setattr(_accel, "thomas_solve", counted_solve)
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    # Seven records of 0.05 make each of the three limits set some step.
    cfg = solver.SolverConfig(epsilon=0.05, t_end=0.05, record_samples=7)
    solver.run(_gaussian_field(g, width=0.1), kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert events and len(events) % 3 == 0
    limits = set()
    for k in range(0, len(events), 3):
        (n1, cfl), (n2, positivity), (n3, dt) = events[k:k + 3]
        assert (n1, n2, n3) == ("stated_cfl_bound", "positivity_bound", "advance")
        if dt == cfl:
            limits.add("cfl")
        elif dt == positivity:
            limits.add("positivity")
        else:
            assert dt < min(cfl, positivity)
            limits.add("cap")
    assert limits == {"cfl", "positivity", "cap"}
    assert len(solves) == len(events) // 3


def test_benchmark_hooks_reach_run_and_loglog_fit(monkeypatch):
    # The benchmark times setup_s through the module lookup of
    # solver.advance and traces advance, the two dt bounds and the four
    # grid diagnostics where run finds them, in aggdiff.solver's globals;
    # it reads dt as advance's fourth positional argument. The sweep's
    # exponent fits must run without numpy.linalg.lstsq.
    counts = {}
    dts = []
    lp_exponents = set()
    advance = solver.advance

    def counted(name):
        original = getattr(solver, name)

        def hook(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            if name == "lp_norm":
                lp_exponents.add(args[1])
            return original(*args, **kwargs)

        return hook

    def counted_advance(*args, **kwargs):
        assert len(args) == 4 and not kwargs
        dts.append(args[3])
        return advance(*args)

    names = (
        "stated_cfl_bound", "positivity_bound", "truncated_moment",
        "concentration_functional", "lp_norm", "h1_seminorm",
    )
    for name in names:
        monkeypatch.setattr(solver, name, counted(name))
    monkeypatch.setattr(solver, "advance", counted_advance)
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=0.05, record_samples=5)
    traj = solver.run(_gaussian_field(g, width=0.1), kernels.neg_abs_kernel(), cfg, scale=1.0)
    samples = len(traj.times)
    # One advance per step, and each step takes both dt bounds once.
    assert len(dts) == counts["stated_cfl_bound"] == counts["positivity_bound"] > samples
    assert math.fsum(dts) == pytest.approx(traj.times[-1], rel=1e-12)
    for name in ("truncated_moment", "concentration_functional", "h1_seminorm"):
        assert counts[name] == samples
    # The L^1 series is the mass series; the other exponents are sampled.
    assert counts["lp_norm"] == (len(solver.LP_VALUES) - 1) * samples
    assert lp_exponents == set(solver.LP_VALUES) - {1.0}
    assert traj.lp[1.0] is traj.mass

    def no_lstsq(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", no_lstsq)
    x = np.array([0.2, 0.1, 0.05, 0.02])
    fit = analysis.loglog_fit(x, 3.0 * x ** -1.5)
    assert fit.slope == pytest.approx(-1.5, rel=1e-12)
    assert fit.r_squared == pytest.approx(1.0, rel=1e-12)


def test_run_and_advance_leave_their_inputs_unchanged(monkeypatch):
    # run steps its own copy of u0, and advance returns the new values
    # without writing to the field it reads: on a windowed step, after a
    # whole-grid re-solve, and when it refuses a negative density.
    g = grid.RadialGrid.make(1, 4.0, 0.01)
    u0 = _gaussian_field(g, width=0.1, mass=0.01)
    initial = u0.values.copy()
    resolves = []
    advance = solver.advance

    def checked_advance(field, faces, config, dt):
        before = field.values.copy()
        new, outflux, resolved = advance(field, faces, config, dt)
        assert field.values.tobytes() == before.tobytes()
        resolves.append(resolved)
        return new, outflux, resolved

    monkeypatch.setattr(solver, "advance", checked_advance)
    # A weak drift leaves steps long enough for the diffusion to outgrow
    # the pad once, and moves every window's values before the re-solve.
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.5, dt_max=0.1, record_samples=5)
    solver.run(u0, kernels.neg_abs_kernel(), cfg, scale=1.0)
    assert any(resolves) and not all(resolves)
    assert u0.values.tobytes() == initial.tobytes()

    # Cell k holds 1e-12 and loses twice its content through its right
    # face in one step, four times the positivity bound; with a negligible
    # diffusivity it ends at -1e-12, which advance refuses.
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    k = 40
    u = np.zeros(g.n)
    u[k] = 1e-12
    faces = np.zeros(g.n + 1)
    faces[k + 1] = 1.0
    field = grid.DensityField(g, u.copy())
    cfg = solver.SolverConfig(epsilon=1e-20, t_end=1.0)
    dt = 2.0 / g.right_ratios[k]
    assert dt == 4.0 * solver.positivity_bound(g, faces)
    with pytest.raises(solver.NegativityError, match="negative density -1e-12"):
        advance(field, faces, cfg, dt)
    assert field.values.tobytes() == u.tobytes() and field.values[k] == 1e-12


# A density of each kind a run meets: empty cells, the smallest normal
# scale, and ordinary values.
DENSITIES = st.one_of(
    st.just(0.0), st.just(1e-300), st.floats(1e-10, 1e2, allow_nan=False, allow_infinity=False)
)
# Cell velocities of either sign with magnitudes from 1e-3 to 1e3.
SPEEDS = st.builds(lambda sign, power: sign * 10.0 ** power, st.sampled_from([-1.0, 1.0]), st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(dimension=st.integers(1, 3), epsilon=st.floats(1e-6, 1.0), data=st.data())
def test_a_step_at_the_positivity_bound_stays_nonnegative(dimension, epsilon, data):
    # Positivity is an invariant of the step, not a repair: upwind at the
    # positivity bound removes at most half of a cell's content, and the
    # ptsv solve maps a nonnegative right-hand side to a nonnegative state.
    n = data.draw(st.integers(3, 24), label="n")
    g = grid.RadialGrid(dimension, 0.05, n)
    u = np.array(data.draw(st.lists(DENSITIES, min_size=n, max_size=n), label="u"))
    velocity = np.array(data.draw(st.lists(SPEEDS, min_size=n, max_size=n), label="V"))
    cells = data.draw(st.sampled_from([n, data.draw(st.integers(2, n - 1), label="W")]), label="cells")
    faces = solver.face_velocities(velocity, cells, n)
    dt = solver.positivity_bound(g, faces)
    assume(math.isfinite(dt))
    field = grid.DensityField(g, u.copy())
    cfg = solver.SolverConfig(epsilon=epsilon, t_end=1.0)
    new, outflux, resolved = solver.advance(field, faces, cfg, dt)
    assert new.min() >= 0.0 and outflux >= 0.0
    assert new.shape[0] == (n if resolved else cells)
    vol = g.cell_volumes
    before = float(np.dot(u, vol))
    after = float(np.dot(new, vol[: new.shape[0]])) + float(np.dot(u[new.shape[0]:], vol[new.shape[0]:]))
    assert after + outflux == pytest.approx(before, rel=1e-12, abs=1e-300)
    assert field.values.tobytes() == u.tobytes()


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_windowed_step_closes_its_last_face(dimension):
    # The run's window (mass window J plus the pad) on a Gaussian: the
    # cells beyond the window keep their bits and nothing crosses the
    # closed face.
    g = grid.RadialGrid.make(dimension, 2.0, 0.01)
    vol = g.cell_volumes
    f = _gaussian_field(g, width=0.1)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=1.0)
    masses = f.values * vol
    cells = drift.mass_window(masses, float(np.sum(masses))) + solver._PAD
    assert cells < g.n
    velocity = drift.build_interaction_matrix(g, kernels.neg_abs_kernel()).apply(masses)
    faces = solver.face_velocities(velocity, cells, g.n)
    assert faces.shape == (cells + 1,) and faces[-1] == 0.0
    dt = min(
        solver.stated_cfl_bound(g, np.max(np.abs(velocity))),
        solver.positivity_bound(g, faces),
    )
    before = f.values.copy()
    new, outflux, resolved = solver.advance(f, faces, cfg, dt)
    assert outflux == 0.0 and not resolved
    # Only the window's values come back; the field keeps the old state.
    assert new.shape == (cells,)
    assert f.values.tobytes() == before.tobytes()
    assert float(np.dot(new, vol[:cells])) == pytest.approx(
        float(np.dot(f.values[:cells], vol[:cells])), rel=1e-13
    )
    state = np.concatenate((new, f.values[cells:]))
    assert float(np.dot(state, vol)) == pytest.approx(float(np.dot(f.values, vol)), rel=1e-13)


@pytest.mark.parametrize("dimension", [1, 2, 3], ids=IMPLICIT_IDS)
def test_whole_grid_window_is_the_full_grid_step_bitwise(dimension):
    # A window of every cell ends at the rim: the step is the upwind update
    # and ptsv solve over the whole grid with the ghost-zero outflow face.
    g = grid.RadialGrid.make(dimension, 1.0, 0.01)
    f = _gaussian_field(g, width=0.3)
    masses = f.values * g.cell_volumes
    assert drift.mass_window(masses, float(np.sum(masses))) == g.n
    velocity = drift.build_interaction_matrix(g, kernels.neg_abs_kernel()).apply(masses)
    faces = solver.face_velocities(velocity, g.n, g.n)
    cfg = solver.SolverConfig(epsilon=0.05, t_end=1.0)
    eps = cfg.epsilon
    dt = 0.5 * solver.positivity_bound(g, faces)
    expected, outflux = _accel.explicit_update(
        f.values, faces, g.right_ratios, g.left_ratios, g.face_areas[-1], dt
    )
    c = eps * dt / g.dr
    expected = _accel.thomas_solve(
        c * g.face_sums + g.cell_volumes, -c * g.face_areas[1:-1], g.cell_volumes * expected
    )
    outflux += eps * dt * g.face_areas[-1] * expected[-1] / g.dr
    new, got_outflux, resolved = solver.advance(f, faces, cfg, dt)
    assert new.tobytes() == expected.tobytes()
    assert got_outflux == outflux > 0.0
    assert not resolved


def test_implicit_support_outgrowing_the_pad_matches_the_full_grid_run(monkeypatch):
    # Zero kernel, steps of 0.1 at eps = 0.1: each backward-Euler solve
    # spreads the bump by about 10 cells per e-fold, so its support (cells
    # with mass above eps M / n) grows by far more than the pad per step.
    g = grid.RadialGrid.make(1, 4.0, 0.01)
    cfg = solver.SolverConfig(
        epsilon=0.1, t_end=1.0, dt_max=0.1, record_samples=10, snapshot_radius=math.inf
    )
    steps = []
    advance = solver.advance

    def recorded_advance(field, faces, config, dt):
        new, outflux, resolved = advance(field, faces, config, dt)
        state = np.concatenate((new, field.values[new.shape[0]:]))
        masses = state * g.cell_volumes
        steps.append((faces.shape[0] - 1, drift.mass_window(masses, float(np.sum(masses))), resolved))
        return new, outflux, resolved

    monkeypatch.setattr(solver, "advance", recorded_advance)
    windowed = solver.run(_gaussian_field(g, width=0.1), kernels.zero_kernel(), cfg, scale=1.0)
    assert any(window < g.n and grown > window for window, grown, _ in steps)
    # Every step that redid its solve on the whole grid is counted.
    assert windowed.full_grid_solves == sum(resolved for _, _, resolved in steps) > 0
    monkeypatch.setattr(solver, "_PAD", g.n)  # every window is the whole grid
    full = solver.run(_gaussian_field(g, width=0.1), kernels.zero_kernel(), cfg, scale=1.0)
    assert full.full_grid_solves == 0
    m0 = full.initial_mass
    assert np.array_equal(windowed.times, full.times)
    gaps = np.abs(windowed.snapshots - full.snapshots) @ g.cell_volumes
    assert np.max(gaps) <= 1e-12 * m0
    assert np.max(np.abs(windowed.outflow_cumulative - full.outflow_cumulative)) <= 1e-12 * m0


def test_run_with_mass_at_the_rim_records_outflow_and_fails_boundary_loss(monkeypatch):
    g = grid.RadialGrid.make(2, 1.0, 0.01)
    f = grid.make_initial_condition(grid.AnnulusBump(1.0, 0.7, 1.0), g)
    windows = []
    advance = solver.advance

    def recorded_advance(field, faces, config, dt):
        windows.append(faces.shape[0] - 1)
        return advance(field, faces, config, dt)

    monkeypatch.setattr(solver, "advance", recorded_advance)
    cfg = solver.SolverConfig(epsilon=0.1, t_end=0.05, record_samples=5)
    traj = solver.run(f, kernels.neg_abs_kernel(), cfg, scale=0.5)
    assert windows[0] == g.n
    loss = traj.boundary_loss()
    assert loss > analysis.BOUNDARY_LOSS_TOLERANCE
    assert traj.mass_error() <= 1e-12
    verdicts = {v.name: v.passed for v in analysis.trajectory_verdicts([traj.mass_error()], [loss])}
    assert verdicts == {"mass_conservation": True, "boundary_loss": False}


def test_2d_benchmark_like_row_needs_no_full_grid_solve():
    # The first row of the benchmark's 2-D sweep (mass 1.5, width 0.25,
    # eps 0.2, dr = eps / 8 capped at 0.01): the implicit solve never
    # outgrows the 32-cell pad.
    bump = grid.GaussianBump(1.5, 0.25)
    settings = analysis.RunSettings(dr_divisor=8.0, dr_max=0.01)
    constants = analysis.reference_constants(kernels.neg_abs_kernel(), bump, 2)
    traj = analysis.run_case(
        kernels.neg_abs_kernel(), bump, 2, 0.2, constants.scale, constants.horizon, settings
    )
    assert len(traj.times) > 100
    assert traj.full_grid_solves == 0
