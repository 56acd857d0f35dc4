import concurrent.futures
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
# A coarse grid and few samples: sweeps in seconds, for tests of the sweep machinery.
COARSE = analysis.RunSettings(dr_max=0.02, dr_divisor=4.0, record_samples=20)


def _u0(dim=1, width=0.25, mass=1.0, r_max=2.5, dr=0.005):
    g = grid.RadialGrid.make(dim, r_max, dr)
    return grid.make_initial_condition(grid.GaussianBump(mass, width), g)


def _quick_traj(eps=0.05, constants=None, record_samples=80):
    init = grid.GaussianBump(1.0, 0.25)
    if constants is None:
        constants = analysis.reference_constants(NEG_ABS, init, 1)
    settings = analysis.RunSettings(dr_max=0.01, dr_divisor=8.0, record_samples=record_samples)
    traj = analysis.run_case(
        NEG_ABS, init, 1, eps, constants.scale, constants.horizon, settings,
        snapshot_radius=math.inf,
    )
    return traj, constants


def test_moment_rate_is_six_times_mass_for_unit_attraction():
    for m0 in (1.0, 0.3, 7.5):
        u0 = _u0(mass=m0)
        c = analysis.compute_constants(u0, NEG_ABS, 5.0)
        assert c.moment_rate == pytest.approx(6.0 * m0, rel=1e-12)


def consistency_residual(c):
    """Relative defect of the closed-form identity defining the horizon.

    Substituting the horizon into kappa M^2/(2 rate) (1 - exp(-rate T /
    scale)) - I(0) must reproduce the bound level exactly.
    """
    lhs = (
        c.attraction * c.total_mass ** 2 / (2.0 * c.moment_rate)
        * (1.0 - math.exp(-c.moment_rate * c.horizon / c.scale))
        - c.initial_moment
    )
    return abs(lhs - c.bound_level) / abs(c.bound_level)


def test_constants_self_consistency_machine_precision():
    u0 = _u0()
    for scale in (3.0, 5.0, 12.0):
        c = analysis.compute_constants(u0, NEG_ABS, scale)
        assert c.admissible
        assert consistency_residual(c) <= 1e-12


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
    # The 1-D factor needs the H^1 bound's constant, which the paper does
    # not compute; no verdict reads the factor (the balls are BALL_FACTOR eps).
    c = analysis.compute_constants(_u0(), NEG_ABS, 5.0)
    assert c.admissible and c.horizon > 0.0
    assert c.ball_factor is None


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


def test_loglog_fit_matches_lstsq_on_random_power_laws():
    # The closed form against NumPy's least-squares solver on noisy power
    # laws like the sweep's series: 3 to 9 diffusivities, slopes from -3
    # to -0.5.
    rng = np.random.default_rng(11)
    for _ in range(200):
        n = int(rng.integers(3, 10))
        x = rng.uniform(0.01, 0.2, n)
        y = rng.uniform(0.5, 2.0) * x ** rng.uniform(-3.0, -0.5) * np.exp(0.1 * rng.normal(size=n))
        lx, ly = np.log(x), np.log(y)
        design = np.vstack([lx, np.ones_like(lx)]).T
        coef, *_ = np.linalg.lstsq(design, ly, rcond=None)
        r2 = 1.0 - np.sum((ly - design @ coef) ** 2) / np.sum((ly - np.mean(ly)) ** 2)
        fit = analysis.loglog_fit(x, y)
        assert fit.slope == pytest.approx(coef[0], rel=1e-12)
        assert fit.r_squared == pytest.approx(r2, rel=1e-12)


def test_loglog_fit_of_equal_x_is_nan():
    # No line is determined; a least-squares solver would return its
    # minimum-norm answer (slope -0.253, R^2 = 1.0 here), which a
    # fit-quality gate would pass.
    fit = analysis.loglog_fit([0.1] * 4, [2.0] * 4)
    assert math.isnan(fit.slope) and math.isnan(fit.r_squared)
    fit = analysis.loglog_fit([0.1] * 4, [1.0, 2.0, 3.0, 4.0])
    assert math.isnan(fit.slope) and math.isnan(fit.r_squared)


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
    assert analysis.check_moment_inequality(traj, c) == []
    # Inflate one interior sample by 10%: the centred difference just
    # before it then overshoots the bound. (A uniform rescaling would be
    # nearly invariant here since it also inflates the growth term.)
    moments = traj.truncated_moment.copy()
    k = len(moments) // 2
    moments[k] *= 1.1
    corrupted = replace(traj, truncated_moment=moments)
    violations = analysis.check_moment_inequality(corrupted, c)
    assert violations and any(abs(time - traj.times[k - 1]) < 1e-12 for time in violations)


@pytest.mark.parametrize("column", ["concentration", "truncated_moment"])
def test_moment_inequality_counts_a_nan_sample_as_a_violation(column):
    # A NaN compares false both ways: a sample counts unless it provably
    # meets the bound. The concentration enters the bound at its own
    # sample, the moment also the centred differences of its neighbours.
    traj, c = _quick_traj()
    values = getattr(traj, column).copy()
    k = len(values) // 2
    values[k] = math.nan
    violations = analysis.check_moment_inequality(replace(traj, **{column: values}), c)
    hit = [k] if column == "concentration" else [k - 1, k, k + 1]
    assert violations == [float(traj.times[i]) for i in hit]


def test_moment_inequality_rejects_scale_mismatch():
    traj, c = _quick_traj()
    wrong = replace(traj, scale=traj.scale * 2.0)
    with pytest.raises(ValueError):
        analysis.check_moment_inequality(wrong, c)


def test_weighted_bound_zero_concentration_fails():
    traj, c = _quick_traj()
    flat = replace(traj, concentration=np.zeros_like(traj.concentration))
    wb = analysis.weighted_concentration_integral(flat, c)
    assert wb.integral == 0.0 and wb.ratio == 0.0
    verdicts = analysis.trajectory_verdicts([0.0], [0.0], ratios=[wb.ratio])
    assert verdicts[-1].name == "weighted_lower_bound" and not verdicts[-1].passed


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
        grid=g, epsilon=0.1, scale=1.0, kernel_name="neg_abs",
        times=times, mass=np.full(21, 1.0), truncated_moment=np.zeros(21),
        concentration=np.zeros(21), outflow_cumulative=np.zeros(21),
        lp={}, snapshots=snaps,
    )
    ball_mass = float(np.dot(u[g.r_centers < 0.05], g.cell_volumes[g.r_centers < 0.05]))
    # stationary field: integral = mass-in-ball * T_star
    assert analysis.ball_mass_integral(traj, 1.0) == pytest.approx(ball_mass)
    zero = replace(traj, snapshots=np.zeros_like(snaps))
    assert analysis.ball_mass_integral(zero, 1.0) == 0.0
    lp_val = float(np.dot(u[g.r_centers < 0.05] ** 2, g.cell_volumes[g.r_centers < 0.05])) ** 0.5
    assert analysis.ball_lp_integral(traj, 2.0, 1.0) == pytest.approx(lp_val)


def test_ball_integral_refuses_unresolved_ball():
    g = grid.RadialGrid.make(1, 1.0, 0.05)
    times = np.linspace(0.0, 1.0, 21)
    snaps = np.ones((21, g.n))
    traj = solver.TrajectoryRecord(
        grid=g, epsilon=0.1, scale=1.0, kernel_name="neg_abs",
        times=times, mass=np.ones(21), truncated_moment=np.zeros(21),
        concentration=np.zeros(21), outflow_cumulative=np.zeros(21),
        lp={}, snapshots=snaps,
    )
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(traj, 1.0)  # radius 0.05 < 2 dr
    wide = replace(traj, epsilon=8.0)  # a ball of radius 4 covers every cell
    sparse = replace(wide, times=times[:5], snapshots=snaps[:5])
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(sparse, 1.0)
    missing = replace(wide, snapshots=None)
    with pytest.raises(ValueError):
        analysis.ball_mass_integral(missing, 1.0)
    narrow = replace(wide, snapshots=snaps[:, :3])
    with pytest.raises(ValueError, match="snapshots hold 3 cells"):
        analysis.ball_mass_integral(narrow, 1.0)


@pytest.mark.parametrize("dimension", [1, 2])
def test_ball_radius_snapshots_give_the_full_grid_integrals_bitwise(dimension):
    init = grid.GaussianBump(1.0, 0.25)
    eps, t_end = 0.1, 0.2
    full, ball = (
        analysis.run_case(NEG_ABS, init, dimension, eps, 1.0, t_end, COARSE, snapshot_radius=radius)
        for radius in (math.inf, analysis.BALL_FACTOR * eps)
    )
    width = ball.snapshots.shape[1]
    assert full.snapshots.shape[1] == full.grid.n > width
    assert np.array_equal(ball.snapshots, full.snapshots[:, :width])
    for integral in (
        lambda traj: analysis.ball_mass_integral(traj, t_end),
        lambda traj: analysis.ball_lp_integral(traj, 2.0, t_end),
    ):
        assert integral(ball) == integral(full)


def test_sweep_rows_keep_only_the_ball_cells(monkeypatch):
    kept = []

    def recording_run(u0, kernel, config, scale):
        traj = solver.run(u0, kernel, config, scale)
        ball = int(np.count_nonzero(u0.grid.r_centers < 0.5 * config.epsilon))
        kept.append((traj.snapshots.shape[1], ball))
        return traj

    monkeypatch.setattr(analysis, "run", recording_run)
    settings = analysis.SweepSettings(dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02), run=COARSE)
    analysis.epsilon_sweep(NEG_ABS, grid.GaussianBump(1.0, 0.25), settings)
    assert len(kept) == 4
    assert all(width == ball for width, ball in kept)


def test_calibrate_h1_coefficient_semantics():
    samples = [(10.0, 0.1, 1.0), (30.0, 0.05, 1.0), (120.0, 0.02, 1.0)]
    c1 = analysis.calibrate_coefficient(samples, "h1", 1)
    expected = 1.5 * max(10.0 * 0.1**1.5, 30.0 * 0.05**1.5, 120.0 * 0.02**1.5)
    assert c1 == pytest.approx(expected)
    # idempotent under duplication
    assert analysis.calibrate_coefficient(samples + samples, "h1", 1) == pytest.approx(c1)
    # adding a weaker sample cannot raise the coefficient
    weaker = samples + [(1.0, 0.03, 1.0)]
    assert analysis.calibrate_coefficient(weaker, "h1", 1) == pytest.approx(c1)


def test_sweep_calibrates_h1_on_every_other_row_and_judges_every_row(monkeypatch):
    # The sweep is the one place the H^1 coefficient comes from. A held-out
    # row three times as high as the calibration rows fails the barrier.
    rows = {row.epsilon: row for row in _synthetic_rows()}
    rows[0.01].sup_h1 *= 3.0
    monkeypatch.setattr(analysis, "_sweep_case", lambda payload: rows[payload[4]])
    settings = analysis.SweepSettings(dimension=1, epsilons=tuple(rows))
    report = analysis.epsilon_sweep(NEG_ABS, grid.GaussianBump(1.0, 0.25), settings)
    m = report.constants.total_mass
    samples = [(row.sup_h1, row.epsilon, m) for row in report.rows[::2]]
    assert [row.epsilon for row in report.rows[::2]] == [0.1, 0.02]
    assert report.calibrated["h1"] == analysis.calibrate_coefficient(samples, "h1", 1)
    ratios = [
        row.sup_h1 / analysis.barrier("h1", 1, report.calibrated["h1"], m, row.epsilon, row.u0_h1)
        for row in report.rows
    ]
    assert max(ratios[::2]) == pytest.approx(1.0 / analysis.SAFETY_FACTOR)
    verdict = {v.name: v for v in report.verdicts}["upper_barrier_h1"]
    assert verdict.margin == 1.0 - max(ratios) == pytest.approx(1.0 - 3.0 / analysis.SAFETY_FACTOR)
    assert not verdict.passed


def test_barrier_forms():
    assert analysis.barrier(2.0, 1, 0.6, 1.0, 0.01, 1.0, 0.5) == pytest.approx(0.6 * 0.01**-0.5)
    assert analysis.barrier(math.inf, 2, 0.4, 1.0, 0.1, 1.0, 0.5) == pytest.approx(0.4 * 0.1**-2.0)
    big_start = analysis.barrier(2.0, 1, 0.6, 1.0, 0.1, 1.0, 50.0)
    assert big_start == 50.0
    assert analysis.barrier("h1", 1, 0.7, 1.0, 0.01, 3.0) == pytest.approx(0.7 * 0.01**-1.5)


@pytest.mark.parametrize("dimension", [1, 2, 3])
def test_scaling_exponents(dimension):
    # sup_t |u|_p <~ C M^a eps^-b: b = N(p-1)/p, a = b + 1, and the sweep's
    # slope targets are -b.
    n = float(dimension)
    assert analysis.scaling_exponents(1.0, dimension) == (1.0, 0.0)
    assert analysis.scaling_exponents(2.0, dimension) == (n / 2.0 + 1.0, n / 2.0)
    assert analysis.scaling_exponents(math.inf, dimension) == (n + 1.0, n)
    assert analysis.scaling_exponents("h1", 1) == (2.5, 1.5)


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
    fixed = analysis.plan_grid(2, 0.1, 1.0, 0.25, analysis.RunSettings(dr=0.01, r_max=3.0))
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
            mass_error=1e-12, boundary_loss=0.0,
            moment_violations=0, weighted_integral=2.0, weighted_threshold=1.0,
            weighted_ratio=2.0, ball_mass_integral=0.5, ball_p2_integral=eps ** -0.5,
            full_grid_solves=0,
        ))
    return rows


def _verdicts(rows):
    fits = {"2": -0.5, "inf": -1.0, "ball_p2": -0.5}
    quality = {key: 1.0 for key in fits}
    calibrated = {"lp_2": 1.5, "lp_inf": 1.5, "h1": 1.5}
    constants = SimpleNamespace(total_mass=1.0)
    settings = analysis.SweepSettings(1, ())
    return {v.name: v for v in analysis._sweep_verdicts(rows, fits, quality, calibrated, constants, settings)}


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
    verdicts = {v.name: v for v in analysis.trajectory_verdicts([1e-12, 1e-9], [0.0, 2e-6])}
    assert verdicts["mass_conservation"].passed
    assert not verdicts["boundary_loss"].passed
    assert verdicts["boundary_loss"].margin == pytest.approx(-1e-6)
    limit = analysis.BOUNDARY_LOSS_TOLERANCE
    assert all(v.passed for v in analysis.trajectory_verdicts([1e-9], [limit]))
    # A sweep row over the tolerance fails, as a run would.
    rows = _synthetic_rows()
    rows[2].boundary_loss = 2e-6
    assert not _verdicts(rows)["boundary_loss"].passed
    rows[2].boundary_loss = limit
    assert _verdicts(rows)["boundary_loss"].passed


@pytest.mark.parametrize("lower", [False, True])
def test_verdict_bound_fails_non_finite_values_and_passes_at_the_limit(lower):
    for bad in (math.nan, math.inf, -math.inf):
        verdict = analysis.Verdict.bound("v", bad, 1.0, "", lower=lower)
        assert not verdict.passed, bad
    at_limit = analysis.Verdict.bound("v", 1.0, 1.0, "", lower=lower)
    assert at_limit.passed and at_limit.margin == 0.0
    inside = analysis.Verdict.bound("v", 2.0 if lower else 0.5, 1.0, "", lower=lower)
    outside = analysis.Verdict.bound("v", 0.5 if lower else 2.0, 1.0, "", lower=lower)
    assert (inside.passed, inside.margin) == (True, 1.0 if lower else 0.5)
    assert (outside.passed, outside.margin) == (False, -0.5 if lower else -1.0)


def test_concentration_positive_fails_at_zero():
    rows = _synthetic_rows()
    rows[1].ball_mass_integral = 0.0
    verdict = _verdicts(rows)["concentration_positive"]
    assert not verdict.passed and verdict.margin == 0.0


def test_concentration_no_decay_fails_an_infinite_ratio():
    rows = _synthetic_rows()
    rows[0].ball_mass_integral = 1e-300
    rows[-1].ball_mass_integral = 1e300
    verdicts = _verdicts(rows)
    assert verdicts["concentration_positive"].passed
    assert verdicts["concentration_no_decay"].margin == math.inf
    assert not verdicts["concentration_no_decay"].passed


def test_epsilon_star_skips_a_row_that_fails_only_boundary_loss():
    rows = _synthetic_rows()
    assert analysis.epsilon_star(rows) == 0.1
    rows[0].boundary_loss = 2e-6
    first = rows[0]
    verdicts = analysis.trajectory_verdicts(
        [first.mass_error], [first.boundary_loss], [first.moment_violations], [first.weighted_ratio],
    )
    assert [v.name for v in verdicts if not v.passed] == ["boundary_loss"]
    assert analysis.epsilon_star(rows) == 0.05
    for row in rows:
        row.moment_violations = 1
    assert analysis.epsilon_star(rows) is None


def test_run_verdicts_on_a_zero_kernel_run_are_the_bookkeeping_verdicts():
    traj = analysis.run_case(kernels.zero_kernel(), grid.GaussianBump(1.0, 0.25), 1, 0.1, 1.0, 0.2, COARSE)
    for constants in (None, SimpleNamespace(attraction=0.0)):
        verdicts = analysis.run_verdicts(traj, constants)
        assert [(v.name, v.passed) for v in verdicts] == [("mass_conservation", True), ("boundary_loss", True)]


def test_run_verdicts_fail_the_weighted_bound_of_a_run_that_ends_before_the_horizon():
    init = grid.GaussianBump(1.0, 0.25)
    constants = analysis.reference_constants(NEG_ABS, init, 1)
    traj = analysis.run_case(NEG_ABS, init, 1, 0.1, constants.scale, 0.1, COARSE)
    verdicts = analysis.run_verdicts(traj, constants)
    assert [(v.name, v.passed) for v in verdicts] == [
        ("mass_conservation", True), ("boundary_loss", True),
        ("moment_inequality", True), ("weighted_lower_bound", False),
    ]
    assert math.isnan(verdicts[-1].margin)
    assert verdicts[-1].detail == f"run ends at t = 0.1, before the horizon {constants.horizon:.4g}"
    # The bound does not apply to inadmissible constants, so the line is omitted.
    inadmissible = analysis.run_verdicts(traj, replace(constants, admissible=False))
    assert [v.name for v in inadmissible] == ["mass_conservation", "boundary_loss", "moment_inequality"]


def test_sweep_verdicts_fail_on_non_finite_last_row_ratios():
    rows = _synthetic_rows()
    rows[-1].ball_mass_integral = math.inf
    rows[-1].sup_lp[2.0] = math.inf
    verdicts = _verdicts(rows)
    assert not verdicts["concentration_no_decay"].passed
    assert not verdicts["barrier_saturation"].passed


@pytest.mark.parametrize("dimension", [1, 2])
def test_parallel_sweep_uses_spawned_workers(monkeypatch, dimension):
    # Forking after OpenMP or BLAS threads start can crash the pool; the
    # workers must be spawned, and the rows must not depend on the jobs.
    # In two dimensions the rows (n = 919, 650, 735 and 1163) fall in two
    # size classes of the shared neg_abs operator, which each worker
    # builds for itself in its own order.
    contexts = []

    class Recording(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            contexts.append(kwargs.get("mp_context"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    settings = analysis.SweepSettings(dimension=dimension, epsilons=(0.2, 0.1, 0.05, 0.02), run=COARSE)
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

    def lp_samples(sups):
        return [(row.sup_lp[2.0], row.epsilon, row.u0_lp[1.0]) for row in rows(sups)]

    clean = analysis.calibrate_coefficient(lp_samples((3.0, 4.0, 5.0)), 2.0, 1)
    assert clean == pytest.approx(1.5 * max(3.0 * 0.2**0.5, 4.0 * 0.05**0.5, 5.0 * 0.02**0.5))
    assert math.isnan(analysis.calibrate_coefficient(lp_samples((3.0, math.nan, 5.0)), 2.0, 1))
    samples = [(row.sup_h1, row.epsilon, 1.0) for row in rows((3.0, math.nan, 5.0))]
    assert math.isnan(analysis.calibrate_coefficient(samples, "h1", 1))
    # A NaN coefficient must not fall back to max(M, |u0|) in the barriers.
    assert math.isnan(analysis.barrier(2.0, 1, math.nan, 1.0, 0.01, 1.0, 0.5))
    assert math.isnan(analysis.barrier("h1", 1, math.nan, 1.0, 0.01, 0.5))


def test_parallel_sweep_from_stdin_script_runs_in_process():
    # Spawned workers re-run the main script, which a script read from
    # standard input does not have on disk.
    script = (
        "import pickle, sys\n"
        "from aggdiff import analysis, grid, kernels\n"
        "settings = analysis.SweepSettings(dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02), jobs=2,\n"
        "    run=analysis.RunSettings(dr_max=0.02, dr_divisor=4.0, record_samples=20))\n"
        "report = analysis.epsilon_sweep(kernels.neg_abs_kernel(), grid.GaussianBump(1.0, 0.25), settings)\n"
        "sys.stdout.write(pickle.dumps(report.rows).hex())\n"
    )
    src = str(Path(analysis.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-"], input=script, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    settings = analysis.SweepSettings(dimension=1, epsilons=(0.2, 0.1, 0.05, 0.02), run=COARSE)
    serial = analysis.epsilon_sweep(NEG_ABS, grid.GaussianBump(1.0, 0.25), settings)
    assert pickle.loads(bytes.fromhex(out.stdout)) == serial.rows


def test_an_annulus_run_plans_its_grid_from_the_outer_radius():
    # plan_grid reaches 10 support radii, and an annulus's support radius
    # is its outer radius: every cell of the annulus lies inside the grid.
    bump = grid.AnnulusBump(1.0, 0.2, 0.5)
    settings = analysis.RunSettings(dr_max=0.02, record_samples=4)
    traj = analysis.run_case(kernels.neg_abs_kernel(), bump, 2, 0.1, 1.0, 1e-3, settings)
    assert bump.support_radius == 0.5
    assert traj.grid.r_max == pytest.approx(10.0 * bump.support_radius)
    assert traj.initial_mass == pytest.approx(1.0, rel=1e-14)
    # A table's interpolant stays positive up to the node after its last
    # positive sample; a grid planned from that sample held 38% of this mass.
    table = grid.TabulatedProfile(1.0, np.array([0.0, 0.05, 3.0]), np.array([1.0, 1.0, 0.0]))
    fixed = analysis.RunSettings(dr=0.05, record_samples=4)
    traj = analysis.run_case(kernels.zero_kernel(), table, 1, 0.1, 1.0, 0.01, fixed)
    assert table.support_radius == 3.0
    assert traj.grid.r_max >= 30.0
