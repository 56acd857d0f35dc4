import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggdiff import grid


def scaled(field, factor):
    """The field with every density multiplied by ``factor``."""
    return grid.DensityField(field.grid, field.values * factor)


def cutoff_profile_slope(s):
    """Derivative of the moment cutoff: 1, then 3/2 - s, then 0."""
    s = np.asarray(s, dtype=np.float64)
    out = np.where(s <= 0.5, 1.0, np.where(s >= 1.5, 0.0, 1.5 - s))
    out = np.clip(out, 0.0, 1.0)
    return float(out) if out.ndim == 0 else out


def test_cell_volumes_sum_to_ball_volume():
    for dim, ball in ((1, lambda r: 2 * r), (2, lambda r: math.pi * r**2),
                      (3, lambda r: 4 * math.pi * r**3 / 3)):
        g = grid.RadialGrid.make(dim, 2.0, 0.01)
        assert g.cell_volumes.sum() == pytest.approx(ball(g.r_max), rel=1e-13)


def test_first_cell_abuts_origin():
    g = grid.RadialGrid.make(2, 1.0, 0.05)
    # The first cell is the disc of radius dr around the origin.
    assert g.r_centers[0] == pytest.approx(0.025)
    assert g.cell_volumes[0] == pytest.approx(math.pi * 0.05**2, rel=1e-14)


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
    assert grid.mass(scaled(f, 2.0)) == pytest.approx(2 * grid.mass(f), rel=1e-14)


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


@pytest.mark.parametrize("dr", [math.nan, math.inf, 0.0, -0.1])
def test_grid_rejects_a_spacing_that_is_not_finite_and_positive(dr):
    # run.json's dr reaches the grid unchecked, so NaN and inf must fail here.
    with pytest.raises(ValueError, match="finite dr"):
        grid.RadialGrid(1, dr, 10)


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
    assert grid.h1_seminorm(scaled(f, 2.0)) == pytest.approx(2 * grid.h1_seminorm(f), rel=1e-12)


def test_h1_seminorm_rejected_beyond_1d():
    g = grid.RadialGrid.make(2, 1.0, 0.05)
    with pytest.raises(ValueError):
        grid.h1_seminorm(grid.DensityField(g, np.ones(g.n)))


def test_cutoff_profile_pinned_values():
    assert grid.cutoff_profile(0.25) == 0.25
    assert grid.cutoff_profile(1.0) == pytest.approx(0.875)
    assert grid.cutoff_profile(2.0) == 1.0
    assert cutoff_profile_slope(1.0) == pytest.approx(0.5)
    assert cutoff_profile_slope(0.3) == 1.0
    assert cutoff_profile_slope(7.0) == 0.0


@given(st.floats(min_value=0.0, max_value=1e6, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_cutoff_profile_bounds_exact(s):
    value = grid.cutoff_profile(s)
    slope = cutoff_profile_slope(s)
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
    assert grid.concentration_functional(scaled(f, 3.0), 0.7) == pytest.approx(
        3.0 * grid.concentration_functional(f, 0.7), rel=1e-13
    )


def test_scale_diagnostics_match_their_direct_formulas_bitwise():
    # The weights and the ball are cached per (grid, scale): alternating
    # grids and scales must still give the formulas' bits.
    rng = np.random.default_rng(5)
    fields = [
        grid.DensityField(g, rng.uniform(0.0, 1.0, g.n))
        for g in (grid.RadialGrid.make(2, 2.0, 0.01), grid.RadialGrid.make(2, 2.0, 0.02))
    ]
    for _ in range(2):
        for f in fields:
            r, vol = f.grid.r_centers, f.grid.cell_volumes
            for scale in (0.3, 0.7):
                moment = float(np.dot(grid.cutoff_profile(r / scale) * f.values, vol))
                inside = r < 1.5 * scale
                ball = float(np.sum(f.values[inside] / r[inside] * vol[inside]))
                assert grid.truncated_moment(f, scale) == moment
                assert grid.concentration_functional(f, scale) == ball


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


def test_tabulated_profile_next_to_a_zero_sample_stays_nonnegative(tmp_path):
    # A cell centre one ulp short of the node where the profile reaches 0:
    # np.interp's slope form gives -5.6e-17 there, which DensityField
    # refuses as a negative density.
    g = grid.RadialGrid.make(1, 2.0, 0.01)
    node = float(np.nextafter(g.r_centers[9], np.inf))
    assert np.interp(g.r_centers[9], [0.025, node], [0.3, 0.0]) < 0.0
    path = tmp_path / "profile.txt"
    path.write_text(f"0.025 0.3\n{node!r} 0\n2.0 0\n")
    f = grid.make_initial_condition(grid.TabulatedProfile.from_file(path, mass=1.0), g)
    assert f.values.min() == 0.0 and f.values[9] == 0.0


@pytest.mark.parametrize("rows, problem", [
    ("0 1\n0.5 nan\n1 0\n", "samples must be finite; got r = 0.5, u = nan"),
    # Unsorted, np.interp read 0.75 at r = 0.25 and the support radius was 0.3.
    ("0 1\n0.5 0.5\n0.3 0.2\n1 0\n", "samples must have strictly increasing r"),
    # Clipped at 0, this table started at exactly 0 on r in [0.17, 0.33].
    ("0 1\n0.25 -0.5\n0.5 1\n1 0\n", "samples must be nonnegative; got r = 0.25, u = -0.5"),
    ("-0.1 1\n0.5 1\n1 0\n", "samples must be nonnegative; got r = -0.1, u = 1"),
    # One row has two columns, but one sample is too few to interpolate.
    ("# r u\n0 1\n", "expected at least two samples (r, u); got 1"),
    ("# r u\n", "expected at least two samples (r, u); got 0"),
], ids=["nan", "unsorted", "negative-u", "negative-r", "one-row", "empty"])
def test_tabulated_profile_refuses_bad_samples(tmp_path, rows, problem):
    path = tmp_path / "profile.txt"
    path.write_text(rows)
    # The error is the one line the CLI prints: NumPy's warning on an empty
    # table would come first.
    with warnings.catch_warnings(), pytest.raises(ValueError) as info:
        warnings.simplefilter("error")
        grid.TabulatedProfile.from_file(path, mass=1.0)
    assert str(info.value) == f"{path}: {problem}"
