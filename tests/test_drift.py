import dataclasses
import math
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from aggdiff import _accel, drift, grid, kernels


def _field(g, values):
    return grid.DensityField(g, values)


def _velocity(op, f):
    return op.apply(f.values * f.grid.cell_volumes)


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
    v = _velocity(m, f)
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
    v = _velocity(m, f)

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
        dense = _accel.build_matrix_1d(g.r_centers, kern.kprime)
        expected = dense @ masses
        gap = np.max(np.abs(op.apply(masses) - expected)) / np.max(np.abs(expected))
        assert gap <= 1e-13, (kern.name(), gap)


def _at_order(g, kern, order):
    # The N >= 2 quadrature operator at a pinned order, probed as a build is.
    op = drift._hierarchical_drift(g, kern, order)
    drift._probe(op, kern)
    return op


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


def test_2d_neg_abs_grid_holds_its_rim_and_apply_a_class_within_the_bound(monkeypatch):
    # A grid's operator holds only its rim row and builds nothing. n = 1025
    # is one cell past the class of 1024, so ``apply``, which reads all n
    # rows, grows the shared class to 2048 index cells: the worst fill of a
    # class. It holds at most the per-cell bound above times its size.
    monkeypatch.setattr(drift, "_shared", None)
    g = grid.RadialGrid(2, 0.003, 1025)
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    assert sum(_held_bytes(getattr(op, f.name)) for f in dataclasses.fields(op)) == 8 * g.n
    assert drift._shared is None
    op.apply(np.ones(g.n))
    shared = drift._shared
    assert shared.grid.n == shared.leaves.shape[0] * shared.leaves.shape[1] == 2048
    held = sum(_held_bytes(getattr(shared, f.name)) for f in dataclasses.fields(shared))
    assert held <= 8 * 400 * 2048, held


def _dense_order_rule(g, kern, rel_tol=1e-6):
    # The order-doubling rule of build_interaction_matrix, on dense matrices.
    r = g.r_centers
    u_ref = np.exp(-((r / (0.25 * g.r_max)) ** 2)) * g.cell_volumes
    order, v_prev = 16, None
    while True:
        cos_t, wts, wsum = drift._angular_nodes(g.dimension, order)
        dense = _accel.build_matrix_nd(r, kern.kprime, cos_t, wts, wsum)
        v = dense @ u_ref
        if v_prev is not None and np.max(np.abs(v - v_prev)) <= rel_tol * np.max(np.abs(v)):
            return order, dense
        v_prev = v
        order *= 2


def _neg_abs_dense(g):
    # The dense W of K = -|x| in closed form, independent of the AGM in
    # aggdiff: N = 2 from SciPy's complete elliptic integrals (K through
    # ellipkm1, which takes 1 - m and stays accurate near the diagonal),
    # N = 3 from the shell sums.
    r = g.r_centers[:, None]
    rho = g.r_centers[None, :]
    if g.dimension == 3:
        w = np.where(rho < r, -(1.0 - rho**2 / (3.0 * r**2)), -2.0 * r / (3.0 * rho))
        np.fill_diagonal(w, -2.0 / 3.0)
        return w
    p = ((r - rho) / (r + rho)) ** 2
    with np.errstate(invalid="ignore"):
        w = -((r + rho) * special.ellipe(1.0 - p) + (r - rho) * special.ellipkm1(p)) / (np.pi * r)
    np.fill_diagonal(w, -2.0 / np.pi)
    return w


def _is_neg_abs(kern):
    return kern.family is kernels.KernelFamily.NEG_ABS


@pytest.mark.parametrize("dim, n", [(2, 300), (3, 300), (2, 2048), (3, 1100)])
def test_nd_operator_matches_dense_matrix(dim, n):
    # neg_abs is exact and checked against its dense closed form; the other
    # kernels against the dense quadrature matrix under the same order
    # doubling as the compressed operator.
    g = grid.RadialGrid(dim, 3.0 / n, n)
    for kern in _oracle_kernels(g):
        op = drift.build_interaction_matrix(g, kern)
        if _is_neg_abs(kern):
            assert op.quadrature_order == 0
            dense = _neg_abs_dense(g)
        else:
            order, dense = _dense_order_rule(g, kern)
            assert op.quadrature_order == order, kern.name()
        for seed in range(3):
            masses = np.random.default_rng(seed).uniform(0.0, 1.0, n) * g.cell_volumes
            gap = np.max(np.abs(op.apply(masses) - dense @ masses))
            assert gap <= 1e-10 * kern.kprime_sup_norm * np.sum(masses), (kern.name(), gap)


def _quadrature_rows(g, rows, order):
    # neg_abs rows of W by Gauss-Legendre quadrature at a high order.
    r = g.r_centers
    cos_t, wts, wsum = drift._angular_nodes(g.dimension, order)
    along, across = _accel.chord_geometry(r, cos_t)
    return _accel.entries_nd(r[rows], along, across, kernels.neg_abs_kernel().kprime, wts / wsum)


@pytest.mark.parametrize("dim", [2, 3])
def test_neg_abs_closed_forms_match_high_order_quadrature(dim):
    # The first rows, the middle and the rows at the rim, each over every
    # column: the diagonal, the first off-diagonals, where N = 2 has its
    # smallest (r - rho)/(r + rho), and the far pairs.
    n = 2048
    g = grid.RadialGrid(dim, 3.0 / n, n)
    rows = np.array([0, 1, 2, n // 2 - 1, n // 2, n - 3, n - 2, n - 1])
    quadrature = _quadrature_rows(g, rows, 1024)
    if dim == 2:
        closed = drift._entry_sampler(g, kernels.neg_abs_kernel(), 0)(rows, slice(None))
        assert np.max(np.abs(closed - _neg_abs_dense(g)[rows])) <= 1e-12
    else:
        closed = _neg_abs_dense(g)[rows]
    assert np.max(np.abs(closed - quadrature)) <= 1e-12
    diagonal = -2.0 / np.pi if dim == 2 else -2.0 / 3.0
    assert np.all(closed[np.arange(rows.size), rows] == diagonal)


def _random_masses(g, seed):
    return np.random.default_rng(seed).uniform(0.0, 1.0, g.n) * g.cell_volumes


def _one_class_grids():
    # Three grids of the size class of 1024 cells, with different dr and n.
    return [grid.RadialGrid(2, dr, n) for n, dr in ((700, 0.004), (1000, 0.0015), (1024, 3.0 / 1024))]


def test_2d_neg_abs_grids_of_one_size_class_share_one_operator(monkeypatch):
    # W(r, rho) depends on r/rho only, so the products of every grid of a
    # class read one operator built on the index grid r_i = i + 1/2. Each
    # grid's V is exact: within 1e-10 M of the dense closed form (measured:
    # at most 1.4e-13 M), and its rim row within 4 eps of the dense row
    # n - 1 (measured: 3.5 eps).
    monkeypatch.setattr(drift, "_shared", None)
    kern = kernels.neg_abs_kernel()
    read = []
    for g in _one_class_grids():
        op = drift.build_interaction_matrix(g, kern)
        dense = _neg_abs_dense(g)
        for seed in range(3):
            masses = _random_masses(g, seed)
            gap = np.max(np.abs(op.apply(masses) - dense @ masses))
            assert gap <= 1e-10 * np.sum(masses), (g.n, gap / np.sum(masses))
        read.append(drift._shared)
        assert np.max(np.abs(op.rim - dense[-1])) <= 4.0 * np.finfo(float).eps, g.n
    assert read[0].grid.n == 1024 and all(shared is read[0] for shared in read)


def _counted_class_builds(monkeypatch):
    # The sizes of the shared 2-D neg_abs classes built from here on.
    calls = []
    build = drift._hierarchical_drift

    def counted(g, kern, order):
        calls.append(g.n)
        return build(g, kern, order)

    monkeypatch.setattr(drift, "_hierarchical_drift", counted)
    monkeypatch.setattr(drift, "_shared", None)
    return calls


def test_2d_neg_abs_builds_once_per_size_class(monkeypatch):
    # One held operator: building a grid's operator builds no class, the
    # products of a class's grids build it once, a grid of a larger class
    # grows it, and coming back builds nothing: the larger class gives
    # the same bits.
    calls = _counted_class_builds(monkeypatch)
    kern = kernels.neg_abs_kernel()
    grids = _one_class_grids()
    ops = [drift.build_interaction_matrix(g, kern) for g in grids]
    assert calls == []
    before = [op.apply(_random_masses(op.grid, 7)) for op in ops]
    assert calls == [1024]
    large = grid.RadialGrid(2, 0.002, 1500)
    drift.build_interaction_matrix(large, kern).apply(_random_masses(large, 7))
    assert calls == [1024, 2048]
    for g, v in zip(grids, before):
        after = drift.build_interaction_matrix(g, kern).apply(_random_masses(g, 7))
        assert after.tobytes() == v.tobytes(), g.n
    assert calls == [1024, 2048]


def test_2d_neg_abs_class_covers_the_rows_read_not_the_grid(monkeypatch):
    # The largest grid of the seed-0 2-D benchmark sweep has n = 1898, and
    # no product of that sweep reads more than 940 rows. Products that read
    # up to 972 hold the class of 1024, not the 2048 that covers the grid.
    # V on those rows is within 1e-10 M of
    # the grid's dense closed form, which for rows below ``cells`` and
    # columns below the window is the dense W of the first ``cells`` cells.
    monkeypatch.setattr(drift, "_shared", None)
    n = 1898
    g = grid.RadialGrid(2, 3.0 / n, n)
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    for window in (100, 500, 940):
        masses = _confined_masses(g, window)["random"]
        total = float(np.sum(masses))
        cells = window + 32
        v, _ = op.velocity(masses, total, window, cells)
        dense = _neg_abs_dense(grid.RadialGrid(2, g.dr, cells))[:, :window]
        assert np.max(np.abs(v - dense @ masses[:window])) <= 1e-10 * total, window
    assert drift._shared.grid.n == 1024


def test_2d_neg_abs_products_grow_the_class_and_never_shrink_it(monkeypatch):
    # Products that read 300 and then 900 rows build the classes of 512 and
    # 1024 cells; a later, smaller grid reads the held class and builds
    # nothing, neither on a window nor in ``apply``.
    calls = _counted_class_builds(monkeypatch)
    kern = kernels.neg_abs_kernel()
    g = grid.RadialGrid(2, 3.0 / 1500, 1500)
    op = drift.build_interaction_matrix(g, kern)
    for rows in (300, 900):
        masses = _confined_masses(g, rows - 32)["narrow Gaussian"]
        op.velocity(masses, float(np.sum(masses)), rows - 32, rows)
    assert calls == [512, 1024]
    small = grid.RadialGrid(2, 3.0 / 700, 700)
    op = drift.build_interaction_matrix(small, kern)
    masses = _confined_masses(small, 200)["random"]
    op.velocity(masses, float(np.sum(masses)), 200, 232)
    op.apply(_random_masses(small, 1))
    assert calls == [512, 1024]


def test_2d_neg_abs_apply_grows_the_class_to_cover_the_grid(monkeypatch):
    # A product that reads 232 rows holds the class of 256 cells; ``apply``
    # on n = 600 reads every row and grows it to 1024. V stays within
    # 1e-10 M of the dense closed form.
    monkeypatch.setattr(drift, "_shared", None)
    n = 600
    g = grid.RadialGrid(2, 3.0 / n, n)
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    masses = _confined_masses(g, 200)["random"]
    op.velocity(masses, float(np.sum(masses)), 200, 232)
    assert drift._shared.grid.n == 256
    dense = _neg_abs_dense(g)
    for masses in (_random_masses(g, 3), _confined_masses(g, 200)["narrow Gaussian"]):
        gap = np.max(np.abs(op.apply(masses) - dense @ masses))
        assert gap <= 1e-10 * np.sum(masses), gap / np.sum(masses)
    assert drift._shared.grid.n == 1024


def test_agm_step_count_is_converged_at_fine_grids():
    # The step count comes from the grid's closest pair of cells. At
    # n = 1e5 four more AGM steps change no entry, and two fewer do.
    n = 10**5
    g = grid.RadialGrid(2, 3.0 / n, n)
    r = g.r_centers
    steps = _accel.agm_steps(float(np.min(np.diff(r) / (r[1:] + r[:-1]))))
    assert steps == 7
    rows = np.array([0, 1, n // 2, n - 2, n - 1])
    sampled = drift._entry_sampler(g, kernels.neg_abs_kernel(), 0)(rows, slice(None))
    converged = _accel.entries_neg_abs_2d(r[rows], r, steps + 4)
    assert np.max(np.abs(sampled - converged)) <= 4.0 * np.finfo(float).eps
    short = _accel.entries_neg_abs_2d(r[rows], r, steps - 2)
    assert np.max(np.abs(short - converged)) > 1e-10


@pytest.mark.parametrize("n", [3, 300, 1100])
def test_3d_prefix_sums_match_dense_closed_form(n):
    # Random masses, a point mass at the origin and one at the rim, and a
    # mass past a gap of empty cells.
    g = grid.RadialGrid(3, 3.0 / n, n)
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    assert isinstance(op, drift.ShellDrift) and op.quadrature_order == 0
    dense = _neg_abs_dense(g)
    rng = np.random.default_rng(n)
    first, last, gap = np.zeros(n), np.zeros(n), np.zeros(n)
    first[0], last[-1] = 1.0, 1.0
    gap[0], gap[-1] = 0.5, 0.5
    for masses in (rng.uniform(0.0, 1.0, n) * g.cell_volumes, first, last, gap):
        total = np.sum(masses)
        assert np.max(np.abs(op.apply(masses) - dense @ masses)) <= 1e-13 * total


def _unwindowed_product(op, masses):
    # The HODLR product over every cell, in the operator's arithmetic: the
    # U factor of the block that reads half s is stored in slot 1 - s.
    n = masses.shape[0]
    count, leaf = op.leaves.shape[:2]
    x = np.zeros(count * leaf)
    x[:n] = masses
    v = np.matmul(op.leaves, x.reshape(count, leaf, 1)).reshape(-1)
    for u, vt in op.levels:
        halves = x.reshape(u.shape[0], 2, u.shape[2], 1)
        v += (u @ (vt @ halves)[:, ::-1]).reshape(-1)
    v = v[:n]
    for r0, r1, c0, c1, block in op.dense:
        v[r0:r1] += block @ masses[c0:c1]
    return v


@pytest.mark.parametrize("dim, n", [(2, 700), (3, 700), (2, 300), (3, 300)])
def test_windowed_apply_matches_dense_and_unwindowed_products(dim, n, monkeypatch):
    # The apply reads only the cells up to the last one with mass above
    # eps * M / n. At n = 300 the tabulated kernel stores every off-diagonal
    # block dense, so the trimmed dense blocks run; at n = 700 the
    # exponential operator, and the shared neg_abs class of 1024 cells that
    # the 2-D neg_abs apply reads, have three levels of low-rank blocks.
    monkeypatch.setattr(drift, "_shared", None)
    g = grid.RadialGrid(dim, 3.0 / n, n)
    r = g.r_centers
    kerns = [k for k in _oracle_kernels(g) if k.is_tabulated == (n == 300)]
    if dim == 3:  # neg_abs has no HODLR operator in three dimensions
        kerns = [k for k in kerns if not _is_neg_abs(k)]
    for kern in kerns:
        op = drift.build_interaction_matrix(g, kern)
        hodlr = drift._index_class(n) if _is_neg_abs(kern) else op
        count, leaf = hodlr.leaves.shape[:2]
        if n == 300:
            assert hodlr.dense
        else:
            assert len(hodlr.levels) == 3 and not hodlr.dense
        if _is_neg_abs(kern):
            dense = _neg_abs_dense(g)
        else:
            cos_t, wts, wsum = drift._angular_nodes(dim, op.quadrature_order)
            dense = _accel.build_matrix_nd(r, kern.kprime, cos_t, wts, wsum)
        spread = np.random.default_rng(n).uniform(0.5, 1.5, n) * g.cell_volumes
        point = np.zeros(n)
        point[0] = 1.0
        cases = {
            "point mass in cell 0": point,
            "narrow Gaussian": np.exp(-((r / 0.1) ** 2)) * g.cell_volumes,
            "zero inside a leaf": np.where(np.arange(n) < leaf + leaf // 2, spread, 0.0),
            "zero past a quarter": np.where(np.arange(n) < count * leaf // 4, spread, 0.0),
            "zero past the top half": np.where(np.arange(n) < count * leaf // 2, spread, 0.0),
            "full support": spread,
        }
        for name, masses in cases.items():
            scale = kern.kprime_sup_norm * np.sum(masses)
            v = op.apply(masses)
            assert np.max(np.abs(v - dense @ masses)) <= 1e-10 * scale, (kern.name(), name)
            gap = np.max(np.abs(v - _unwindowed_product(hodlr, masses)))
            assert gap <= 4.0 * np.finfo(float).eps * scale, (kern.name(), name, gap / scale)
        assert np.all(op.apply(np.zeros(n)) == 0.0)


def test_compression_probe_rejects_loose_tolerance(monkeypatch):
    monkeypatch.setattr(drift, "_ACA_TOL", 1e-3)
    g = grid.RadialGrid(2, 3.0 / 600, 600)
    with pytest.raises(drift.CompressionError):
        _at_order(g, kernels.exponential_kernel(), 32)


def test_1d_zero_kernel_gives_zero_velocity():
    g = grid.RadialGrid.make(1, 1.0, 0.05)
    m = drift.build_interaction_matrix(g, kernels.zero_kernel())
    assert np.all(_velocity(m, _field(g, np.ones(g.n))) == 0.0)


def test_apply_rejects_non_finite_velocity():
    # A NaN or infinite mass fails in every dimension, also in the last
    # cell behind cells of zero mass, which the N >= 2 window drops.
    for dim in (1, 2, 3):
        g = grid.RadialGrid.make(dim, 1.0, 0.05)
        for kern in (kernels.neg_abs_kernel(), kernels.exponential_kernel()):
            op = drift.build_interaction_matrix(g, kern)
            for bad in (np.nan, np.inf):
                for cell in (3, g.n - 1):
                    masses = np.where(np.arange(g.n) < 5, 1.0, 0.0)
                    masses[cell] = bad
                    with pytest.raises(RuntimeError, match="drift bound"):
                        op.apply(masses)


def test_apply_rejects_a_finite_velocity_beyond_the_kernel_bound():
    # A kernel that understates sup |k'| gives finite velocities above
    # |k'|_sup M in every dimension, and the post-check names the bound;
    # the N >= 2 builds apply their operator to choose the quadrature order.
    understated = dataclasses.replace(kernels.exponential_kernel(), kprime_sup_norm=0.25)
    for dim in (1, 2, 3):
        g = grid.RadialGrid.make(dim, 1.0, 0.05)
        masses = np.where(np.arange(g.n) < 5, 1.0, 0.0)
        with pytest.raises(RuntimeError, match=r"drift bound violated: \|V\| = \S+ > \S+$"):
            drift.build_interaction_matrix(g, understated).apply(masses)


def test_2d_disc_matches_direct_quadrature():
    # u = indicator(B_1)/pi; compare against adaptive 2-d quadrature over
    # the disc (independent of the angular-reduction implementation).
    dr = 1.0 / 200
    g = grid.RadialGrid.make(2, 3.0, dr)
    f = _field(g, np.where(g.r_centers < 1.0, 1.0 / math.pi, 0.0))
    m = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    v = _velocity(m, f)
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
    v = _velocity(m, _field(g, np.zeros(g.n)))
    assert np.all(v == 0.0)


@given(st.integers(min_value=0, max_value=5000), st.sampled_from([1, 2]))
@settings(max_examples=25, deadline=None)
def test_velocity_bound_random_fields(seed, dim):
    rng = np.random.default_rng(seed)
    g = grid.RadialGrid.make(dim, 1.0, 0.05)
    kern = kernels.exponential_kernel() if seed % 2 else kernels.neg_abs_kernel()
    m = drift.build_interaction_matrix(g, kern)
    u = rng.uniform(0.0, 2.0, g.n)
    f = _field(g, u)
    v = _velocity(m, f)
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
    m_const = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    f_any = _field(g, rng.uniform(0.0, 2.0, g.n))
    assert np.all(_velocity(m_const, f_any) <= 1e-12)
    m_exp = drift.build_interaction_matrix(g, kernels.exponential_kernel())
    decreasing = np.sort(rng.uniform(0.0, 2.0, g.n))[::-1].copy()
    assert np.all(_velocity(m_exp, _field(g, decreasing)) <= 1e-12)


def test_apply_rejects_grid_mismatch():
    g1 = grid.RadialGrid.make(1, 1.0, 0.05)
    g2 = grid.RadialGrid.make(1, 1.0, 0.04)
    m = drift.build_interaction_matrix(g1, kernels.neg_abs_kernel())
    with pytest.raises(ValueError):
        _velocity(m, _field(g2, np.zeros(g2.n)))


def test_quadrature_order_doubling_converges():
    g = grid.RadialGrid.make(2, 1.5, 0.01)
    f = grid.make_initial_condition(grid.GaussianBump(1.0, 0.3), g)
    m_lo = _at_order(g, kernels.exponential_kernel(), 64)
    m_hi = _at_order(g, kernels.exponential_kernel(), 128)
    v_lo = _velocity(m_lo, f)
    v_hi = _velocity(m_hi, f)
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
    m_small = _at_order(small, kern, 64)
    m_large = _at_order(large, kern, 64)
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


# ---------------------------------------------------------------------------
# gradient-jump identity (dimension 1)
# ---------------------------------------------------------------------------

def kdoubleprime(kernel, s):
    """k''(s) of the neg_abs and exponential kernels."""
    if kernel.family is kernels.KernelFamily.EXPONENTIAL:
        return np.exp(-s)
    assert kernel.family is kernels.KernelFamily.NEG_ABS
    return np.zeros(np.shape(s))


class JumpIdentityResult(NamedTuple):
    residual: float
    sign: int


def jump_identity_residual(kernel, v):
    """Residual of d/dx (K' * v) = s * 2 kappa * v + k''(|.|) * v, s in {+1,-1}.

    K'(x) = k'(|x|) sign(x) jumps at the origin by twice the small-scale
    attraction limit kappa, which is 1 for neg_abs and exponential. The
    identity is checked on the even extension of the 1-D field ``v`` with
    the sign chosen to minimise the sup-norm residual; both the residual
    and the selected sign are returned.
    """
    dr = v.grid.dr
    m = 2 * v.grid.n
    vals = np.concatenate([v.values[::-1], v.values])
    offsets = np.arange(-(m - 1), m, dtype=np.float64) * dr
    kp_line = np.where(
        offsets == 0.0,
        0.0,
        kernel.kprime(np.abs(offsets)) * np.sign(offsets),
    )
    kpp_line = kdoubleprime(kernel, np.abs(offsets))
    conv_kp = np.convolve(vals, kp_line, mode="full")[m - 1 : 2 * m - 1] * dr
    conv_kpp = np.convolve(vals, kpp_line, mode="full")[m - 1 : 2 * m - 1] * dr
    deriv = (conv_kp[2:] - conv_kp[:-2]) / (2.0 * dr)
    best = None
    for sign in (1, -1):
        candidate = sign * 2.0 * vals[1:-1] + conv_kpp[1:-1]
        residual = float(np.max(np.abs(deriv - candidate)))
        if best is None or residual < best.residual:
            best = JumpIdentityResult(residual, sign)
    return best


def test_jump_identity_zero_field():
    g = grid.RadialGrid.make(1, 3.0, 0.01)
    res = jump_identity_residual(kernels.neg_abs_kernel(), _field(g, np.zeros(g.n)))
    assert res.residual == 0.0


def test_jump_identity_selects_negative_sign():
    g = grid.RadialGrid.make(1, 8.0, 0.01)
    v = grid.make_initial_condition(grid.GaussianBump(1.0, 1.0), g)
    for kern in (kernels.neg_abs_kernel(), kernels.exponential_kernel()):
        res = jump_identity_residual(kern, v)
        assert res.sign == -1
        assert res.residual < 5e-5


def test_mass_window_is_one_past_the_last_cell_above_the_threshold():
    n = 10
    masses = np.zeros(n)
    assert drift.mass_window(masses, 0.0) == 0
    masses[:4] = 1.0
    threshold = np.finfo(float).eps * 4.0 / n
    masses[6] = threshold  # not above it
    assert drift.mass_window(masses, float(np.sum(masses))) == 4
    masses[7] = 2.0 * threshold
    assert drift.mass_window(masses, float(np.sum(masses))) == 8
    # An overflowed or NaN sum drops nothing.
    for total in (math.inf, math.nan):
        assert drift.mass_window(masses, total) == n


def _confined_masses(g, window):
    # Random masses, a point mass in the last cell, and a narrow Gaussian,
    # each zero from cell ``window`` on.
    r = g.r_centers
    inside = np.arange(g.n) < window
    point = np.zeros(g.n)
    point[window - 1] = 1.0
    return {
        "random": np.where(inside, np.random.default_rng(window).uniform(0.0, 1.0, g.n), 0.0),
        "point mass": point,
        "narrow Gaussian": np.where(inside, np.exp(-((r / (0.25 * r[window])) ** 2)), 0.0),
    }


@pytest.mark.parametrize("window", [40, 333, 1200])
def test_2d_neg_abs_rows_past_the_masses_peak_at_the_rim(window):
    # For r > rho, |W(r, rho)| grows strictly with r (dense closed form from
    # SciPy), so with masses below the window |V| grows from the window on
    # and its largest value there is |V| at the last cell.
    n = 1500
    g = grid.RadialGrid(2, 3.0 / n, n)
    dense = _neg_abs_dense(g)
    assert np.all(np.diff(np.abs(np.tril(dense, -1)), axis=0)[window:, :window] > 0.0)
    for name, masses in _confined_masses(g, window).items():
        far = np.abs(dense @ masses)[window:]
        assert np.all(np.diff(far) > 0.0), name
        assert np.max(far) == far[-1], name


def _check_window_velocities(op, windows, bitwise):
    # V and |V|max on each window against ``apply``: V within 4 eps M (the
    # bits of ``apply`` when ``bitwise``), |V|max within 1e-13 M.
    n = op.grid.n
    for window in windows:
        for name, masses in _confined_masses(op.grid, window).items():
            total = float(np.sum(masses))
            assert drift.mass_window(masses, total) == window
            products = [(cells, *op.velocity(masses, total, window, cells))
                        for cells in sorted({window, min(n, window + 32), n})]
            full = op.apply(masses)
            for cells, v, vmax in products:
                assert v.shape == (cells,)
                gap = np.max(np.abs(v - full[:cells]))
                assert gap <= 4.0 * np.finfo(float).eps * total, (window, cells, name, gap)
                assert not bitwise or v.tobytes() == full[:cells].tobytes(), (window, cells, name)
                assert abs(vmax - np.max(np.abs(full))) <= 1e-13 * total, (window, cells, name)


def test_2d_neg_abs_velocity_on_the_window_matches_apply(monkeypatch):
    # n = 1000. Each window starts from no class, so its products on
    # ``window`` and ``window + 32`` rows read the smallest classes that
    # cover them, before the products on all n rows grow the class to 1024
    # (leaves of 128 cells, halves of 512, 256 and 128). The masses
    # end inside the first leaf (at 110 the class of 256 cells has one
    # level, and the row bound 142 cuts its second half short), in an even
    # (0) and an odd (1) half of the top level, and next to the rim.
    n = 1000
    g = grid.RadialGrid(2, 3.0 / n, n)
    op = drift.build_interaction_matrix(g, kernels.neg_abs_kernel())
    assert op.rim.shape == (n,)
    for window in (50, 110, 400, 600, n - 10):
        monkeypatch.setattr(drift, "_shared", None)
        _check_window_velocities(op, [window], bitwise=False)
    assert drift._shared.grid.n == 1024


@pytest.mark.parametrize("dim", [1, 3])
def test_prefix_sum_velocity_on_the_window_matches_apply(dim):
    # The constant-gradient (1-D neg_abs, the zero kernel) and shell (3-D
    # neg_abs) operators compute only the rows below max(cells, window)
    # and take |V|max past them from the rim row, W[n - 1] of the dense
    # closed form: exactly in 1-D, within 4 eps in 3-D. In 1-D V on the
    # rows is a prefix of ``apply``'s cumulative sum, so it keeps its bits.
    n = 1000
    g = grid.RadialGrid(dim, 3.0 / n, n)
    kern = kernels.neg_abs_kernel()
    op = drift.build_interaction_matrix(g, kern)
    if dim == 1:
        assert np.all(op.rim == _accel.build_matrix_1d(g.r_centers, kern.kprime)[-1])
    else:
        assert np.max(np.abs(op.rim - _neg_abs_dense(g)[-1])) <= 4.0 * np.finfo(float).eps
    _check_window_velocities(op, (50, 400, n - 10), bitwise=dim == 1)
    zero = drift.build_interaction_matrix(g, kernels.zero_kernel())
    assert np.all(zero.rim == 0.0)
    _check_window_velocities(zero, (50, n - 10), bitwise=True)


def test_operators_without_a_rim_row_compute_every_row_bitwise():
    # The exponential and tabulated operators compute every row in every
    # dimension, so V and |V|max on a window are the bits of ``apply``.
    cases = []
    for dim in (1, 2, 3):
        g = grid.RadialGrid(dim, 3.0 / 300, 300)
        cases += [(g, kern) for kern in _oracle_kernels(g) if not _is_neg_abs(kern)]
    for g, kern in cases:
        op = drift.build_interaction_matrix(g, kern)
        assert op.rim is None, (g.dimension, kern.name())
        for window in (40, 200):
            masses = _confined_masses(g, window)["random"]
            total = float(np.sum(masses))
            full = op.apply(masses)
            v, vmax = op.velocity(masses, total, window, window + 32)
            assert v.tobytes() == full[: window + 32].tobytes(), (g.dimension, kern.name())
            assert vmax == np.max(np.abs(full)), (g.dimension, kern.name())


def test_2d_exponential_velocity_past_the_masses_does_not_peak_at_the_rim():
    # The exponential kernel's pull decays with distance: past a concentrated
    # mass |V| is largest next to it, so this operator keeps every row.
    n = 700
    g = grid.RadialGrid(2, 3.0 / n, n)
    op = drift.build_interaction_matrix(g, kernels.exponential_kernel())
    assert op.rim is None
    window = 50
    far = np.abs(op.apply(_confined_masses(g, window)["narrow Gaussian"]))[window:]
    assert np.argmax(far) < far.size // 4 and far[-1] < 0.5 * np.max(far)
