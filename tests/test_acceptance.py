"""Acceptance battery: one test per criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s`. The two diffusivity
sweeps (dimensions 1 and 2) are shared session fixtures; everything else
is computed per test. Tests 01 and 05 also assert their wall-clock
budgets (60 s and 600 s).
"""

import math
import os
import time

import numpy as np
import pytest

from aggdiff import analysis, cli, grid, kernels, solver
from test_analysis import consistency_residual
from test_drift import jump_identity_residual
from test_grid import cutoff_profile_slope

NEG_ABS = kernels.neg_abs_kernel()
BUMP = grid.GaussianBump(1.0, 0.25)
SWEEP_EPSILONS = (0.1, 0.05, 0.02, 0.01)
MOMENT_EPSILONS = (0.1, 0.05, 0.02)
JOBS = max(1, min(2, os.cpu_count() or 1))


def _report(number, ok, text):
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'}: {text}")
    return ok


@pytest.fixture(scope="session")
def sweep_1d():
    settings = analysis.SweepSettings(dimension=1, epsilons=SWEEP_EPSILONS, jobs=JOBS)
    started = time.monotonic()
    report = analysis.epsilon_sweep(NEG_ABS, BUMP, settings)
    report.wall_seconds = time.monotonic() - started
    return report


@pytest.fixture(scope="session")
def sweep_2d():
    settings = analysis.SweepSettings(dimension=2, epsilons=SWEEP_EPSILONS, jobs=JOBS)
    started = time.monotonic()
    report = analysis.epsilon_sweep(NEG_ABS, BUMP, settings)
    report.wall_seconds = time.monotonic() - started
    return report


def test_01_mass_conservation_2048_cells(sweep_1d, sweep_2d):
    # n = 2048 cells, attractive run: the recorded mass plus the rim
    # outflow reproduces the initial mass to 1e-6 relative at every sample.
    constants = analysis.reference_constants(NEG_ABS, BUMP, 1)
    g = grid.RadialGrid(1, 2.5e-3, 2048)
    u0 = grid.make_initial_condition(BUMP, g)
    config = solver.SolverConfig(
        epsilon=0.05, t_end=constants.horizon, record_samples=200,
    )
    started = time.monotonic()
    traj = solver.run(u0, NEG_ABS, config, constants.scale)
    elapsed = time.monotonic() - started
    defect = traj.mass_error()
    sweep_defect = max(
        row.mass_error for row in sweep_1d.rows + sweep_2d.rows
    )
    ok = traj.grid.n == 2048 and defect <= 1e-6 and sweep_defect <= 1e-6 and elapsed < 60.0
    assert _report(
        1, ok,
        f"mass defect {defect:.2e} on n=2048 in {elapsed:.1f}s; "
        f"worst sweep defect {sweep_defect:.2e} (tol 1e-6)",
    )


def test_02_heat_kernel_oracle():
    # Zero kernel, N=1, eps=0.1, dr=2.5e-3, dt <= 0.002: the run starting
    # from a gaussian (the exact spreading profile at offset
    # t0 = w^2/(2 eps)) matches the closed form at t + t0 in L1 within
    # 1e-3, and the L2 norm matches (4 pi eps t)^(-1/4) 2^(-1/4) M within
    # 0.5%. Backward-Euler diffusion is first order in time: doubling the
    # step to 0.004 doubles the L1 error, to within a factor in [1.8, 2.2].
    eps, width, t_end, dr = 0.1, 0.2, 1.0, 2.5e-3
    g = analysis.plan_grid(1, eps, t_end, width, analysis.RunSettings(dr=dr))
    u0 = grid.make_initial_condition(grid.GaussianBump(1.0, width), g)
    t_eff = t_end + width**2 / (2 * eps)
    exact = np.exp(-g.r_centers**2 / (4 * eps * t_eff)) / math.sqrt(4 * math.pi * eps * t_eff)

    def heat_run(dt_max):
        config = solver.SolverConfig(
            epsilon=eps, t_end=t_end, dt_max=dt_max,
            record_samples=20, snapshot_radius=math.inf,
        )
        traj = solver.run(u0, kernels.zero_kernel(), config, scale=1.0)
        return traj, float(np.dot(np.abs(traj.snapshots[-1] - exact), g.cell_volumes))

    traj, l1_error = heat_run(0.002)
    _, l1_coarse = heat_run(0.004)
    ratio = l1_coarse / l1_error
    l2_expected = (4 * math.pi * eps * t_eff) ** -0.25 * 2.0 ** -0.25
    l2_rel = abs(traj.lp[2.0][-1] - l2_expected) / l2_expected
    ok = l1_error <= 1e-3 and l2_rel <= 5e-3 and 1.8 <= ratio <= 2.2
    assert _report(
        2, ok, f"heat profile L1 error {l1_error:.2e} (tol 1e-3), "
        f"L2 rel error {l2_rel:.2e} (tol 5e-3), L1 ratio at 2 dt {ratio:.3f} (1.8-2.2)",
    )


def test_03_jump_identity_convergence():
    # The sign-selected gradient-jump identity converges at order >= 1.8
    # under dr halving for both built-in kernels; the selected sign is -1.
    lines = []
    ok = True
    for kern, name in ((NEG_ABS, "neg_abs"), (kernels.exponential_kernel(), "exponential")):
        residuals, signs = [], []
        for dr in (1e-2, 5e-3, 2.5e-3):
            g = grid.RadialGrid.make(1, 10.0, dr)
            v = grid.make_initial_condition(grid.GaussianBump(1.0, 1.0), g)
            res = jump_identity_residual(kern, v)
            residuals.append(res.residual)
            signs.append(res.sign)
        orders = [math.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
        ok = ok and min(orders) >= 1.8 and all(s == -1 for s in signs)
        lines.append(f"{name}: orders {orders[0]:.2f}/{orders[1]:.2f}, sign {signs[0]:+d}")
    assert _report(3, ok, "; ".join(lines))


def test_04_cutoff_profile_properties():
    # 1e5 random arguments: 0 <= value <= min(s, 1) and slope in [0, 1],
    # exactly.
    rng = np.random.default_rng(0)
    s = np.concatenate([
        rng.uniform(0.0, 3.0, 60_000),
        rng.uniform(0.0, 0.6, 20_000),
        rng.uniform(1.4, 1.6, 19_996),
        np.array([0.0, 0.5, 1.5, 1e9]),
    ])
    value = grid.cutoff_profile(s)
    slope = cutoff_profile_slope(s)
    ok = (
        s.size == 100_000
        and bool(np.all(value >= 0.0))
        and bool(np.all(value <= np.minimum(s, 1.0)))
        and bool(np.all(slope >= 0.0))
        and bool(np.all(slope <= 1.0))
    )
    assert _report(4, ok, "cutoff bounds exact on 100000 samples")


def test_05_moment_inequality_zero_violations(sweep_1d, sweep_2d):
    # NegAbs, N in {1,2}, admissible gaussian data, eps in {0.1,0.05,0.02}:
    # no violations at slack 1e-2 * (kappa M^2 / 2); set runtime < 10 min.
    counts = {}
    for dim, report in ((1, sweep_1d), (2, sweep_2d)):
        for row in report.rows:
            if row.epsilon in MOMENT_EPSILONS:
                counts[(dim, row.epsilon)] = row.moment_violations
    total = sum(counts.values())
    # The budget is the two sweeps' wall time, their eps = 0.01 rows included.
    seconds = sweep_1d.wall_seconds + sweep_2d.wall_seconds
    ok = len(counts) == 6 and total == 0 and seconds < 600.0
    assert _report(
        5, ok, f"{total} violations over {len(counts)} runs "
        f"(N=1,2 x eps {MOMENT_EPSILONS}), {seconds:.0f}s for both sweeps",
    )


def test_06_weighted_concentration_bound(sweep_1d, sweep_2d):
    # The damped concentration integral exceeds scale*level/eps at every
    # swept diffusivity; the ratio integral*eps/(scale*level) is reported.
    ratios = {}
    for dim, report in ((1, sweep_1d), (2, sweep_2d)):
        for row in report.rows:
            ratios[(dim, row.epsilon)] = row.weighted_ratio
    ok = all(r >= 1.0 for r in ratios.values())
    pretty = ", ".join(f"N={d} eps={e:g}: {r:.2f}" for (d, e), r in sorted(ratios.items()))
    assert _report(6, ok, f"integral/threshold ratios {pretty}")


def test_07_concentration_uniformity(sweep_1d):
    # Mass in the ball of radius (ball factor * eps), integrated in time,
    # stays uniformly positive across the sweep and does not decay toward
    # zero at small diffusivity.
    values = [row.ball_mass_integral for row in sweep_1d.rows]
    c_star = min(values)
    ratio = values[-1] / values[0]
    dr_ok = all(row.dr <= row.epsilon / 8.0 + 1e-15 for row in sweep_1d.rows)
    ok = c_star > 0.0 and ratio >= 0.5 and dr_ok
    assert _report(
        7, ok, f"empirical uniform constant {c_star:.4f}, "
        f"smallest/largest-eps ratio {ratio:.3f} (needs >= 0.5)",
    )


def test_08_lp_scaling_exponents(sweep_1d, sweep_2d):
    # sup-norm slopes: -1/2 for the L2 norm in N=1 and -1 in N=2 (within
    # 15%, R^2 >= 0.98); the localized ball-L2 integral in N=1 scales like
    # -1/2 as well.
    s1 = sweep_1d.fitted_exponents["2"]
    s2 = sweep_2d.fitted_exponents["2"]
    sb = sweep_1d.fitted_exponents["ball_p2"]
    r1 = sweep_1d.fit_quality["2"]
    r2 = sweep_2d.fit_quality["2"]
    rb = sweep_1d.fit_quality["ball_p2"]
    ok = (
        abs(s1 + 0.5) <= 0.15 * 0.5 and r1 >= 0.98
        and abs(s2 + 1.0) <= 0.15 and r2 >= 0.98
        and abs(sb + 0.5) <= 0.15 * 0.5 and rb >= 0.98
    )
    assert _report(
        8, ok,
        f"slopes: N=1 L2 {s1:.3f} (target -0.5, R2 {r1:.4f}); "
        f"N=2 L2 {s2:.3f} (target -1, R2 {r2:.4f}); "
        f"N=1 ball-L2 {sb:.3f} (target -0.5, R2 {rb:.4f})",
    )


def test_09_h1_barrier_on_held_out_diffusivities():
    # Calibrate the H^1 coefficient on eps in {0.1, 0.05, 0.02} and verify
    # the barrier on held-out eps in {0.07, 0.03, 0.015}.
    constants = analysis.reference_constants(NEG_ABS, BUMP, 1)

    def probe(eps):
        return analysis.run_case(
            NEG_ABS, BUMP, 1, eps, constants.scale, constants.horizon,
            analysis.RunSettings(record_samples=100),
        )

    calibration = [probe(e) for e in (0.1, 0.05, 0.02)]
    coefficient = analysis.calibrate_coefficient(
        [(float(np.max(traj.h1)), traj.epsilon, traj.initial_mass) for traj in calibration], "h1", 1
    )
    held_out = [probe(e) for e in (0.07, 0.03, 0.015)]
    ratios = []
    for traj in held_out:
        barrier = analysis.barrier(
            "h1", 1, coefficient, traj.initial_mass, traj.epsilon, float(traj.h1[0])
        )
        ratios.append(float(np.max(traj.h1)) / barrier)
    worst = max(ratios)
    ok = worst <= 1.0
    assert _report(
        9, ok, f"calibrated coefficient {coefficient:.4f}; "
        f"worst held-out sup/barrier ratio {worst:.3f} (needs <= 1)",
    )


def test_10_constants_self_consistency():
    # Substituting the horizon into its defining identity reproduces the
    # bound level to 1e-12 relative; the moment rate equals 6M for the
    # constant-gradient kernel at any mass.
    worst = 0.0
    rate_ok = True
    for mass_total in (1.0, 0.37, 4.2):
        g = grid.RadialGrid.make(1, 2.5, 0.005)
        u0 = grid.make_initial_condition(grid.GaussianBump(mass_total, 0.25), g)
        for scale in (3.0, 7.0, 20.0):
            c = analysis.compute_constants(u0, NEG_ABS, scale)
            if c.admissible:
                worst = max(worst, consistency_residual(c))
            rate_ok = rate_ok and c.moment_rate == pytest.approx(6.0 * mass_total, rel=1e-13)
    ok = worst <= 1e-12 and rate_ok
    assert _report(
        10, ok, f"worst horizon identity residual {worst:.2e} (tol 1e-12); "
        f"moment rate equals 6M",
    )


def test_11_determinism_byte_identical(tmp_path):
    # Two identical CLI invocations produce byte-identical CSV/JSON files.
    config = tmp_path / "config.yaml"
    config.write_text(
        "kernel: neg_abs\ndimension: 1\nepsilon: [0.2]\n"
        "initial: {type: gaussian, mass: 1.0, width: 0.1}\n"
        "scale: 2.0\nt_end: auto\ngrid: {dr: 0.01, r_max: 2.0}\n"
        "solver: {record_samples: 20, store_snapshots: true}\n"
    )
    out = tmp_path / "run"
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    files = sorted(p for p in out.rglob("*") if p.is_file())
    first = {p: p.read_bytes() for p in files}
    assert cli.main(["simulate", "--config", str(config), "--out", str(out)]) == 0
    mismatched = [str(p) for p in files if p.read_bytes() != first[p]]
    ok = not mismatched and len(files) == 7  # snapshots.csv and run.sha256 among them
    assert _report(
        11, ok, f"{len(files)} output files byte-identical across invocations"
        + (f"; mismatches: {mismatched}" if mismatched else ""),
    )
