import math
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from aggdiff import analysis, grid, kernels, solver


NEG_ABS = kernels.neg_abs_kernel()


def _u0(dim=1, width=0.25, mass=1.0, r_max=2.5, dr=0.005):
    g = grid.RadialGrid.make(dim, r_max, dr)
    return grid.make_initial_condition(grid.GaussianBump(mass, width), g)


def _quick_traj(eps=0.05, constants=None, **kwargs):
    init = grid.GaussianBump(1.0, 0.25)
    if constants is None:
        constants = analysis.reference_constants(NEG_ABS, init, 1)
    defaults = dict(dr_max=0.01, dr_divisor=8.0, record_samples=80, store_snapshots=True)
    defaults.update(kwargs)
    return analysis.run_case(NEG_ABS, init, 1, eps, constants, **defaults), constants


def test_moment_rate_is_six_times_mass_for_unit_attraction():
    for m0 in (1.0, 0.3, 7.5):
        u0 = _u0(mass=m0)
        c = analysis.compute_constants(u0, NEG_ABS, 5.0)
        assert c.moment_rate == pytest.approx(6.0 * m0, rel=1e-12)


def test_constants_self_consistency_machine_precision():
    u0 = _u0()
    for scale in (3.0, 5.0, 12.0):
        c = analysis.compute_constants(u0, NEG_ABS, scale)
        assert c.admissible
        assert analysis.consistency_residual(c) <= 1e-12


def test_inadmissible_data_reported_not_raised():
    # A wide bump at a too-small scale has an overweight capped moment.
    u0 = _u0(width=0.5, r_max=5.0)
    c = analysis.compute_constants(u0, NEG_ABS, 0.5)
    assert not c.admissible
    assert c.bound_level <= 0.0
    assert math.isnan(c.horizon)


def test_constants_refuse_non_attractive_kernel():
    u0 = _u0()
    with pytest.raises(ValueError):
        analysis.compute_constants(u0, kernels.zero_kernel(), 1.0)


def test_ball_factor_requires_h1_coefficient_in_1d():
    u0 = _u0()
    c = analysis.compute_constants(u0, NEG_ABS, 5.0)
    assert c.ball_factor is None
    c1 = analysis.compute_constants(u0, NEG_ABS, 5.0, h1_coefficient=0.75)
    expected = (c1.scale * c1.bound_level / (4 * 0.75 * c1.horizon)) ** 2
    assert c1.ball_factor == pytest.approx(expected, rel=1e-12)


def test_ball_factor_closed_form_2d():
    u0 = _u0(dim=2)
    c = analysis.compute_constants(u0, NEG_ABS, 5.0)
    assert c.ball_factor == pytest.approx(
        2.0 * c.total_mass * c.horizon / (c.scale * c.bound_level), rel=1e-12
    )


def test_select_scale_returns_admissible_feasible_constants():
    u0 = _u0()
    c = analysis.select_scale(u0, NEG_ABS)
    assert c.admissible and c.bound_level > 0 and c.horizon > 0
    best_level = analysis.select_scale(u0, NEG_ABS, objective="level")
    assert best_level.bound_level >= c.bound_level - 1e-12


def test_heat_kernel_norm_closed_forms():
    assert analysis.heat_kernel_norm(0.3, 2.0, 1.0, 1.7, 3) == pytest.approx(1.7)
    # eps * t = 1/(4 pi) collapses the sup-norm prefactor to the mass
    t = 1.0 / math.sqrt(4.0 * math.pi)
    assert analysis.heat_kernel_norm(t, t, math.inf, 0.9, 1) == pytest.approx(0.9)
    # p = 2 value against direct quadrature of the gaussian profile
    eps, tt, m0 = 0.05, 0.7, 1.3
    g = grid.RadialGrid.make(1, 8.0, 0.002)
    profile = m0 * np.exp(-g.r_centers**2 / (4 * eps * tt)) / math.sqrt(4 * math.pi * eps * tt)
    direct = math.sqrt(float(np.dot(profile**2, g.cell_volumes)))
    assert analysis.heat_kernel_norm(eps, tt, 2.0, m0, 1) == pytest.approx(direct, rel=1e-9)


def test_loglog_fit_recovers_exact_power_law():
    x = np.array([0.1, 0.05, 0.02, 0.01])
    y = 3.0 * x ** -0.5
    fit = analysis.loglog_fit(x, y)
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r_squared == pytest.approx(1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0])
def test_loglog_fit_quality_is_nan_for_non_finite_logs(bad):
    x = np.array([0.1, 0.05, 0.02, 0.01])
    y = 3.0 * x ** -0.5
    y[2] = bad
    with np.errstate(divide="ignore", invalid="ignore"):
        fit = analysis.loglog_fit(x, y)
    assert not fit.r_squared >= 0.98


def test_moment_inequality_clean_run_and_injected_fault():
    traj, c = _quick_traj()
    assert analysis.check_moment_inequality(traj, c, slack=0.01) == []
    # Inflate one interior sample by 10%: the centred difference just
    # before it then overshoots the bound. (A uniform rescaling would be
    # nearly invariant here since it also inflates the growth term.)
    moments = traj.truncated_moment.copy()
    k = len(moments) // 2
    moments[k] *= 1.1
    corrupted = replace(traj, truncated_moment=moments)
    violations = analysis.check_moment_inequality(corrupted, c, slack=0.01)
    assert violations and any(abs(v.time - traj.times[k - 1]) < 1e-12 for v in violations)


def test_moment_inequality_rejects_scale_mismatch():
    traj, c = _quick_traj()
    wrong = replace(traj, scale=traj.scale * 2.0)
    with pytest.raises(ValueError):
        analysis.check_moment_inequality(wrong, c)


def test_weighted_bound_zero_concentration_fails():
    traj, c = _quick_traj()
    flat = replace(traj, concentration=np.zeros_like(traj.concentration))
    wb = analysis.weighted_concentration_integral(flat, c)
    assert wb.integral == 0.0 and not wb.passed


def test_weighted_bound_requires_full_horizon():
    traj, c = _quick_traj()
    short = replace(
        traj,
        times=traj.times[:10],
        concentration=traj.concentration[:10],
    )
    with pytest.raises(ValueError):
        analysis.weighted_concentration_integral(short, c)


def test_weighted_bound_quadrature_consistency():
    traj_a, c = _quick_traj(record_samples=80)
    traj_b, _ = _quick_traj(record_samples=160, constants=c)
    wa = analysis.weighted_concentration_integral(traj_a, c)
    wb = analysis.weighted_concentration_integral(traj_b, c)
    assert wa.integral == pytest.approx(wb.integral, rel=1e-3)


def test_ball_integrals_on_synthetic_trajectories():
    g = grid.RadialGrid.make(1, 1.0, 0.001)
    u = np.where(g.r_centers < 0.04, 2.0, 0.0)
    times = np.linspace(0.0, 1.0, 21)
    snaps = np.tile(u, (21, 1))
    traj = solver.TrajectoryRecord(
        dimension=1, epsilon=0.1, scale=1.0, kernel_name="neg_abs",
        diffusion_mode="implicit", grid_dr=g.dr, grid_n=g.n,
        times=times, mass=np.full(21, 1.0), truncated_moment=np.zeros(21),
        concentration=np.zeros(21), outflow_cumulative=np.zeros(21),
        lp={}, snapshot_times=times, snapshots=snaps,
    )
    ball_mass = float(np.dot(u[g.r_centers < 0.05], g.cell_volumes[g.r_centers < 0.05]))
    # stationary field: integral = mass-in-ball * T_star
    assert analysis.ball_mass_integral(traj, 0.5, 1.0) == pytest.approx(ball_mass)
    zero = replace(traj, snapshots=np.zeros_like(snaps))
    assert analysis.ball_mass_integral(zero, 0.5, 1.0) == 0.0
    lp_val = float(np.dot(u[g.r_centers < 0.05] ** 2, g.cell_volumes[g.r_centers < 0.05])) ** 0.5
    assert analysis.ball_lp_integral(traj, 0.5, 2.0, 1.0) == pytest.approx(lp_val)


def test_ball_integral_refuses_unresolved_ball():
    g = grid.RadialGrid.make(1, 1.0, 0.05)
    times = np.linspace(0.0, 1.0, 21)
    snaps = np.ones((21, g.n))
    traj = solver.TrajectoryRecord(
        dimension=1, epsilon=0.1, scale=1.0, kernel_name="neg_abs",
        diffusion_mode="implicit", grid_dr=g.dr, grid_n=g.n,
        times=times, mass=np.ones(21), truncated_moment=np.zeros(21),
        concentration=np.zeros(21), outflow_cumulative=np.zeros(21),
        lp={}, snapshot_times=times, snapshots=snaps,
    )
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(traj, 0.5, 1.0)  # radius 0.05 < 2 dr
    sparse = replace(traj, snapshot_times=times[:5], snapshots=snaps[:5])
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(sparse, 40.0, 1.0)
    missing = replace(traj, snapshot_times=None, snapshots=None)
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(missing, 40.0, 1.0)


def _fake_run(eps, sup_h1, m0=1.0):
    n = 5
    return solver.TrajectoryRecord(
        dimension=1, epsilon=eps, scale=1.0, kernel_name="neg_abs",
        diffusion_mode="implicit", grid_dr=0.01, grid_n=10,
        times=np.linspace(0, 1, n), mass=np.full(n, m0),
        truncated_moment=np.zeros(n), concentration=np.zeros(n),
        outflow_cumulative=np.zeros(n),
        lp={2.0: np.full(n, 1.0)}, h1=np.full(n, sup_h1),
    )


def test_calibrate_h1_coefficient_semantics():
    runs = [_fake_run(0.1, 10.0), _fake_run(0.05, 30.0), _fake_run(0.02, 120.0)]
    c1 = analysis.calibrate_h1_coefficient(runs, safety=1.5)
    expected = 1.5 * max(10.0 * 0.1**1.5, 30.0 * 0.05**1.5, 120.0 * 0.02**1.5)
    assert c1 == pytest.approx(expected)
    # idempotent under duplication
    assert analysis.calibrate_h1_coefficient(runs + runs, safety=1.5) == pytest.approx(c1)
    # adding a weaker run cannot raise the coefficient
    weaker = runs + [_fake_run(0.03, 1.0)]
    assert analysis.calibrate_h1_coefficient(weaker, safety=1.5) == pytest.approx(c1)
    with pytest.raises(ValueError):
        analysis.calibrate_h1_coefficient(runs[:2])


def test_barrier_forms():
    assert analysis.lp_barrier(2.0, 1.0, 0.5, 0.6, 0.01, 1) == pytest.approx(0.6 * 0.01**-0.5)
    assert analysis.lp_barrier(math.inf, 1.0, 0.5, 0.4, 0.1, 2) == pytest.approx(0.4 * 0.1**-2.0)
    big_start = analysis.lp_barrier(2.0, 1.0, 50.0, 0.6, 0.1, 1)
    assert big_start == 50.0
    assert analysis.h1_barrier(1.0, 3.0, 0.7, 0.01) == pytest.approx(0.7 * 0.01**-1.5)


def test_sweep_input_validation():
    init = grid.GaussianBump(1.0, 0.25)
    with pytest.raises(ValueError):
        analysis.epsilon_sweep(NEG_ABS, init, analysis.SweepSettings(1, (0.1, 0.05, 0.02)))
    with pytest.raises(ValueError):
        analysis.epsilon_sweep(
            NEG_ABS, init, analysis.SweepSettings(1, (0.1, 0.08, 0.06, 0.04))
        )


def test_plan_grid_policy():
    g = analysis.plan_grid(1, 0.02, 1.0, 0.25)
    assert g.dr == pytest.approx(0.02 / 16)
    assert g.r_max >= max(2.5, 20 * math.sqrt(0.02))
    fixed = analysis.plan_grid(2, 0.1, 1.0, 0.25, dr=0.01, r_max=3.0)
    assert fixed.dr == 0.01 and fixed.r_max == pytest.approx(3.0)


def _synthetic_rows():
    # Four rows that pass every verdict: sup ~ eps^(-1/2) (L^2) and eps^(-1)
    # (sup norm), concentration integrals that do not decay.
    rows = []
    for eps in (0.1, 0.05, 0.02, 0.01):
        rows.append(analysis.SweepRow(
            epsilon=eps, dr=eps / 16, n_cells=100,
            sup_lp={2.0: eps ** -0.5, math.inf: 1.0 / eps, 1.0: 1.0},
            u0_lp={2.0: 0.1, math.inf: 0.1, 1.0: 1.0},
            sup_h1=eps ** -1.5, u0_h1=0.1,
            mass_error=1e-12, boundary_loss=0.0, domain_adequate=True,
            moment_violations=0, weighted_integral=2.0, weighted_threshold=1.0,
            weighted_ratio=2.0, ball_mass_integral=0.5, ball_p2_integral=eps ** -0.5,
        ))
    return rows


def _verdicts(rows):
    fits = {"2": -0.5, "inf": -1.0, "ball_p2": -0.5}
    quality = {key: 1.0 for key in fits}
    calibrated = {"lp_2": 1.5, "lp_inf": 1.5, "h1": 1.5}
    constants = SimpleNamespace(total_mass=1.0)
    return {v.name: v for v in analysis._sweep_verdicts(rows, fits, quality, calibrated, constants, 1)}


@pytest.mark.parametrize(
    "attribute, verdict",
    [
        ("mass_error", "mass_conservation"),
        ("boundary_loss", "boundary_loss"),
        ("weighted_ratio", "weighted_lower_bound"),
        ("sup_h1", "upper_barrier_h1"),
        ("ball_mass_integral", "concentration_positive"),
        ("sup_lp_2", "upper_barrier_lp_2"),
        ("sup_lp_inf", "upper_barrier_lp_inf"),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sweep_verdicts_fail_on_non_finite_row(attribute, verdict, bad):
    assert all(v.passed for v in _verdicts(_synthetic_rows()).values())
    for index in (1, 3):  # never only the first row: max([x, nan]) == x
        rows = _synthetic_rows()
        if attribute.startswith("sup_lp_"):
            p = math.inf if attribute.endswith("inf") else 2.0
            rows[index].sup_lp[p] = bad
        else:
            setattr(rows[index], attribute, bad)
        assert not _verdicts(rows)[verdict].passed, (attribute, index)


def test_bookkeeping_verdicts_judge_the_worst_run():
    verdicts = {v.name: v for v in analysis.bookkeeping_verdicts([1e-12, 1e-9], [0.0, 2e-6], 1e-6)}
    assert verdicts["mass_conservation"].passed
    assert not verdicts["boundary_loss"].passed
    assert verdicts["boundary_loss"].margin == pytest.approx(-1e-6)
    assert all(v.passed for v in analysis.bookkeeping_verdicts([1e-9], [2e-6], 1e-5))
    # A sweep row over the solver's default tolerance fails, as a run would.
    rows = _synthetic_rows()
    rows[2].boundary_loss = 2e-6
    assert not _verdicts(rows)["boundary_loss"].passed


def test_sweep_verdicts_fail_on_non_finite_last_row_ratios():
    rows = _synthetic_rows()
    rows[-1].ball_mass_integral = math.inf
    rows[-1].sup_lp[2.0] = math.inf
    verdicts = _verdicts(rows)
    assert not verdicts["concentration_no_decay"].passed
    assert not verdicts["barrier_saturation"].passed


def test_parallel_sweep_uses_spawned_workers(monkeypatch):
    # Forking after OpenMP or BLAS threads start can crash the pool; the
    # workers must be spawned, and the rows must not depend on the jobs.
    contexts = []

    class Recording(analysis.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            contexts.append(kwargs.get("mp_context"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(analysis, "ProcessPoolExecutor", Recording)
    settings = analysis.SweepSettings(
        dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02), dr_max=0.02, dr_divisor=4.0, record_samples=20,
    )
    init = grid.GaussianBump(1.0, 0.25)
    serial = analysis.epsilon_sweep(NEG_ABS, init, settings)
    parallel = analysis.epsilon_sweep(NEG_ABS, init, replace(settings, jobs=2))
    assert [c.get_start_method() for c in contexts] == ["spawn"]
    assert parallel.rows == serial.rows
    assert [(v.name, v.passed, v.margin) for v in parallel.verdicts] == [
        (v.name, v.passed, v.margin) for v in serial.verdicts
    ]


def test_calibration_is_nan_when_a_row_is_nan():
    # A Python max drops NaN: max(0.0, 3.0, nan, 5.0) == 5.0.
    def rows(sups):
        return [
            SimpleNamespace(epsilon=eps, sup_lp={2.0: sup}, u0_lp={1.0: 1.0}, sup_h1=sup)
            for eps, sup in zip((0.2, 0.05, 0.02), sups)
        ]

    clean = analysis.calibrate_lp_coefficient_rows(rows((3.0, 4.0, 5.0)), 2.0, 1, 1.5)
    assert clean == pytest.approx(1.5 * max(3.0 * 0.2**0.5, 4.0 * 0.05**0.5, 5.0 * 0.02**0.5))
    assert math.isnan(analysis.calibrate_lp_coefficient_rows(rows((3.0, math.nan, 5.0)), 2.0, 1, 1.5))
    runs = [
        SimpleNamespace(epsilon=row.epsilon, h1=np.array([1.0, row.sup_h1]), initial_mass=1.0)
        for row in rows((3.0, math.nan, 5.0))
    ]
    assert math.isnan(analysis.calibrate_h1_coefficient(runs))
    # A NaN coefficient must not fall back to max(M, |u0|) in the barriers.
    assert math.isnan(analysis.lp_barrier(2.0, 1.0, 0.5, math.nan, 0.01, 1))
    assert math.isnan(analysis.h1_barrier(1.0, 0.5, math.nan, 0.01))


def test_parallel_sweep_from_stdin_script_runs_in_process():
    # Spawned workers re-run the main script, which a script read from
    # standard input does not have on disk.
    script = (
        "import pickle, sys\n"
        "from aggdiff import analysis, grid, kernels\n"
        "settings = analysis.SweepSettings(dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02),\n"
        "    dr_max=0.02, dr_divisor=4.0, record_samples=20, jobs=2)\n"
        "report = analysis.epsilon_sweep(kernels.neg_abs_kernel(), grid.GaussianBump(1.0, 0.25), settings)\n"
        "sys.stdout.write(pickle.dumps(report.rows).hex())\n"
    )
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-"], input=script, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    settings = analysis.SweepSettings(
        dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02), dr_max=0.02, dr_divisor=4.0, record_samples=20,
    )
    serial = analysis.epsilon_sweep(NEG_ABS, grid.GaussianBump(1.0, 0.25), settings)
    assert pickle.loads(bytes.fromhex(out.stdout)) == serial.rows
