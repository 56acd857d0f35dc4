import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggdiff import grid


def test_cell_volumes_sum_to_ball_volume():
    for dim, ball in ((1, lambda r: 2 * r), (2, lambda r: math.pi * r**2),
                      (3, lambda r: 4 * math.pi * r**3 / 3)):
        g = grid.RadialGrid.make(dim, 2.0, 0.01)
        assert g.cell_volumes.sum() == pytest.approx(ball(g.r_max), rel=1e-13)


def test_first_cell_abuts_origin():
    g = grid.RadialGrid.make(2, 1.0, 0.05)
    assert g.r_centers[0] == pytest.approx(0.025)
    assert g.r_faces[0] == 0.0


def test_mass_rectangle_1d():
    # u = 1/2 on [-1, 1] of the mirrored line.
    g = grid.RadialGrid.make(1, 5.0, 1.0 / 400)
    u = np.where(g.r_centers < 1.0, 0.5, 0.0)
    f = grid.DensityField(g, u)
    assert grid.mass(f) == pytest.approx(1.0, rel=1e-13)


def test_mass_disc_2d():
    g = grid.RadialGrid.make(2, 2.0, 1.0 / 500)
    f = grid.DensityField(g, np.where(g.r_centers < 1.0, 1.0, 0.0))
    assert grid.mass(f) == pytest.approx(math.pi, rel=1e-13)
    coarse = grid.RadialGrid.make(2, 2.0, 0.003)
    fc = grid.DensityField(coarse, np.where(coarse.r_centers < 1.0, 1.0, 0.0))
    assert grid.mass(fc) == pytest.approx(math.pi, abs=5 * 0.003)


def test_mass_scales_linearly():
    g = grid.RadialGrid.make(3, 1.0, 0.01)
    f = grid.DensityField(g, np.exp(-g.r_centers**2))
    assert grid.mass(f.scaled(2.0)) == pytest.approx(2 * grid.mass(f), rel=1e-14)


def test_lp_norm_constant_field():
    g = grid.RadialGrid.make(2, 1.0, 1.0 / 200)
    f = grid.DensityField(g, np.full(g.n, 3.0))
    volume = g.cell_volumes.sum()
    assert grid.lp_norm(f, 2) == pytest.approx(3.0 * volume**0.5, rel=1e-13)
    assert grid.lp_norm(f, 1) == pytest.approx(grid.mass(f), rel=1e-13)
    assert grid.lp_norm(f, math.inf) == 3.0


def test_lp_norm_disc_indicator_sup():
    g = grid.RadialGrid.make(2, 2.0, 0.01)
    f = grid.DensityField(g, np.where(g.r_centers < 1.0, 1.0, 0.0))
    assert grid.lp_norm(f, math.inf) == 1.0


@pytest.mark.parametrize("bad", [-1.0, math.nan, math.inf, -math.inf])
def test_density_field_rejects_negative_and_non_finite_values(bad):
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    values = np.ones(g.n)
    values[4] = bad
    with pytest.raises(ValueError, match="nonnegative" if bad == -1.0 else "finite"):
        grid.DensityField(g, values)


def test_density_field_rejects_all_nan_values():
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    with pytest.raises(ValueError, match="finite"):
        grid.DensityField(g, np.full(g.n, math.nan))


def test_grids_compare_and_hash_by_dimension_spacing_and_size():
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    same = grid.RadialGrid.make(1, 1.0, 0.1)
    assert g == same and hash(g) == hash(same)
    assert len({g, same}) == 1
    for other in (grid.RadialGrid(2, g.dr, g.n), grid.RadialGrid(1, 0.05, g.n), grid.RadialGrid(1, g.dr, g.n + 1)):
        assert g != other
        assert len({g, other}) == 2


def test_lp_norm_rejects_p_below_one():
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    f = grid.DensityField(g, np.ones(g.n))
    with pytest.raises(ValueError):
        grid.lp_norm(f, 0.5)


def test_h1_seminorm_constant_is_zero():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    f = grid.DensityField(g, np.full(g.n, 2.0))
    # Only the outer jump onto the zero padding contributes.
    expected = math.sqrt(2.0 * (2.0 / g.dr) ** 2 * g.dr)
    assert grid.h1_seminorm(f) == pytest.approx(expected, rel=1e-12)
    interior = grid.DensityField(g, np.zeros(g.n))
    assert grid.h1_seminorm(interior) == 0.0


def test_h1_seminorm_ramp_against_direct_summation():
    # Independent oracle: explicit forward-difference sum over the even
    # extension including the outer jump.
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    slope, cells = 3.0, 40
    u = np.zeros(g.n)
    u[:cells] = slope * g.r_centers[:cells]
    f = grid.DensityField(g, u)
    full = np.concatenate([u[::-1], u])
    diffs = np.diff(np.concatenate([[0.0], full, [0.0]])) / g.dr
    # Drop the two padding jumps at the array ends? No: the zero padding is
    # part of the definition; keep every difference.
    oracle = math.sqrt(float(np.sum(diffs[1:] ** 2) * g.dr))
    assert grid.h1_seminorm(f) == pytest.approx(oracle, rel=1e-12)
    assert grid.h1_seminorm(f.scaled(2.0)) == pytest.approx(2 * grid.h1_seminorm(f), rel=1e-12)


def test_h1_seminorm_rejected_beyond_1d():
    g = grid.RadialGrid.make(2, 1.0, 0.05)
    with pytest.raises(ValueError):
        grid.h1_seminorm(grid.DensityField(g, np.ones(g.n)))


def test_cutoff_profile_pinned_values():
    assert grid.cutoff_profile(0.25) == 0.25
    assert grid.cutoff_profile(1.0) == pytest.approx(0.875)
    assert grid.cutoff_profile(2.0) == 1.0
    assert grid.cutoff_profile_slope(1.0) == pytest.approx(0.5)
    assert grid.cutoff_profile_slope(0.3) == 1.0
    assert grid.cutoff_profile_slope(7.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_cutoff_profile_bounds_exact(s):
    value = grid.cutoff_profile(s)
    slope = grid.cutoff_profile_slope(s)
    assert 0.0 <= value <= min(s, 1.0)
    assert 0.0 <= slope <= 1.0


@given(st.integers(min_value=0, max_value=10_000), st.floats(min_value=0.05, max_value=20.0))
@settings(max_examples=40, deadline=None)
def test_truncated_moment_bounded_by_mass(seed, scale):
    rng = np.random.default_rng(seed)
    g = grid.RadialGrid.make(2, 2.0, 0.02)
    f = grid.DensityField(g, rng.uniform(0.0, 1.0, g.n))
    moment = grid.truncated_moment(f, scale)
    assert 0.0 <= moment <= grid.mass(f) + 1e-14


def test_truncated_moment_far_support_equals_mass():
    g = grid.RadialGrid.make(1, 4.0, 0.01)
    u = np.where(g.r_centers > 2.0, 1.0, 0.0)
    f = grid.DensityField(g, u)
    assert grid.truncated_moment(f, 1.0) == pytest.approx(grid.mass(f), rel=1e-13)


def test_truncated_moment_rectangle_closed_form():
    # u = 1/2 on [-1, 1], scale 2: integral of (|x|/2) u = 1/4 exactly
    # (midpoint quadrature is exact for the linear branch).
    g = grid.RadialGrid.make(1, 5.0, 1.0 / 400)
    f = grid.DensityField(g, np.where(g.r_centers < 1.0, 0.5, 0.0))
    assert grid.truncated_moment(f, 2.0) == pytest.approx(0.25, rel=1e-13)


def test_capped_first_moment_closed_forms():
    g = grid.RadialGrid.make(1, 5.0, 1.0 / 400)
    f = grid.DensityField(g, np.where(g.r_centers < 1.0, 0.5, 0.0))
    assert grid.capped_first_moment(f, 2.0) == pytest.approx(0.5, rel=1e-13)
    assert grid.capped_first_moment(f, 0.5) == pytest.approx(0.375, rel=1e-13)
    far = grid.DensityField(g, np.where(g.r_centers >= 1.0, 1.0, 0.0))
    assert grid.capped_first_moment(far, 1.0) == pytest.approx(grid.mass(far), rel=1e-13)


@given(st.floats(min_value=0.05, max_value=2.0), st.floats(min_value=0.05, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_capped_first_moment_monotone(c1, c2):
    g = grid.RadialGrid.make(1, 3.0, 0.01)
    f = grid.DensityField(g, np.exp(-g.r_centers))
    lo, hi = min(c1, c2), max(c1, c2)
    m_lo = grid.capped_first_moment(f, lo)
    m_hi = grid.capped_first_moment(f, hi)
    assert m_lo <= m_hi + 1e-14
    assert m_hi <= hi * grid.mass(f) + 1e-14


def test_concentration_functional_disc_2d():
    # (N-1) * integral of 1/|x| over the unit disc = 2 pi; the annular
    # quadrature is exact because (r+^2 - r-^2)/2 = r_center * dr.
    g = grid.RadialGrid.make(2, 2.0, 1.0 / 500)
    f = grid.DensityField(g, np.where(g.r_centers < 1.0, 1.0, 0.0))
    assert grid.concentration_functional(f, 1.0) == pytest.approx(2 * math.pi, rel=1e-12)


def test_concentration_functional_1d_extrapolates_center():
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    f = grid.DensityField(g, np.exp(-g.r_centers**2 / 0.08))
    assert grid.concentration_functional(f, 1.0) == pytest.approx(2.0, rel=1e-6)
    zero = grid.DensityField(g, np.zeros(g.n))
    assert grid.concentration_functional(zero, 1.0) == 0.0


def test_concentration_functional_homogeneous():
    g = grid.RadialGrid.make(2, 2.0, 0.01)
    f = grid.DensityField(g, np.exp(-g.r_centers))
    assert grid.concentration_functional(f.scaled(3.0), 0.7) == pytest.approx(
        3.0 * grid.concentration_functional(f, 0.7), rel=1e-13
    )


def test_density_field_rejects_negative_values():
    g = grid.RadialGrid.make(1, 1.0, 0.1)
    with pytest.raises(ValueError):
        grid.DensityField(g, np.full(g.n, -1.0))


def test_make_initial_condition_gaussian_exact_mass():
    g = grid.RadialGrid.make(2, 3.0, 0.01)
    f = grid.make_initial_condition(grid.GaussianBump(1.0, 0.2), g)
    assert grid.mass(f) == pytest.approx(1.0, rel=1e-14)


def test_make_initial_condition_disc_value():
    g = grid.RadialGrid.make(2, 2.0, 1.0 / 500)
    f = grid.make_initial_condition(grid.AnnulusBump(1.0, 0.0, 1.0), g)
    assert f.values[0] == pytest.approx(1.0 / math.pi, rel=1e-12)


def test_make_initial_condition_rejects_zero_mass():
    g = grid.RadialGrid.make(1, 1.0, 0.01)
    with pytest.raises(ValueError):
        grid.make_initial_condition(grid.GaussianBump(0.0, 0.1), g)
    with pytest.raises(ValueError):
        grid.make_initial_condition(grid.AnnulusBump(1.0, 5.0, 6.0), g)


def test_tabulated_profile_from_file(tmp_path):
    path = tmp_path / "profile.txt"
    r = np.linspace(0.0, 1.0, 30)
    u = 1.0 - r
    path.write_text("# r u\n" + "\n".join(f"{a} {b}" for a, b in zip(r, u)))
    spec = grid.TabulatedProfile.from_file(path, mass=2.5)
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    f = grid.make_initial_condition(spec, g)
    assert grid.mass(f) == pytest.approx(2.5, rel=1e-14)
    assert spec.support_radius == pytest.approx(1.0, abs=0.05)
