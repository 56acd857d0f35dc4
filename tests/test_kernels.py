import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aggdiff import kernels


ALL_FAMILIES = [
    kernels.neg_abs_kernel(),
    kernels.exponential_kernel(),
    kernels.zero_kernel(),
]


def _kprime(kernel, s):
    return kernel.kprime(np.array([s]))[0]


def test_kprime_closed_forms():
    assert _kprime(kernels.neg_abs_kernel(), 0.7) == -1.0
    assert _kprime(kernels.exponential_kernel(), 1.0) == pytest.approx(-math.exp(-1))
    assert _kprime(kernels.zero_kernel(), 3.2) == 0.0


def test_min_attraction_values():
    assert kernels.min_attraction(kernels.neg_abs_kernel(), 5.0) == 1.0
    assert kernels.min_attraction(kernels.exponential_kernel(), 1.0) == pytest.approx(math.exp(-1))
    assert kernels.min_attraction(kernels.zero_kernel(), 1.0) == 0.0


@given(
    st.sampled_from(range(len(ALL_FAMILIES))),
    st.floats(min_value=0.01, max_value=50.0),
    st.floats(min_value=0.01, max_value=50.0),
)
@settings(max_examples=60, deadline=None)
def test_min_attraction_monotone_in_scale(idx, a, b):
    # The sup over a larger interval can only grow, so the negated value shrinks.
    kernel = ALL_FAMILIES[idx]
    lo, hi = min(a, b), max(a, b)
    k_lo = kernels.min_attraction(kernel, lo)
    k_hi = kernels.min_attraction(kernel, hi)
    assert k_hi <= k_lo + 1e-12
    assert k_hi <= kernel.kprime_sup_norm + 1e-12


def _exponential_table(n=10_000, s_max=12.0):
    s = np.linspace(1e-4, s_max, n)
    return kernels.tabulated_kernel(s, -np.exp(-s))


def test_tabulated_matches_exponential():
    tab = _exponential_table()
    assert kernels.min_attraction(tab, 1.0) == pytest.approx(math.exp(-1), abs=1e-4)


@pytest.mark.parametrize("scale, at", [(0.45, "node"), (0.48, "scale"), (9.0, "last node")])
def test_tabulated_sup_matches_a_dense_probe(scale, at):
    # Largest sample at the interior node s = 0.2; past s = 0.4 k' rises to
    # -0.2 at the last node, so from about s = 0.475 on the interpolant at
    # the scale (between the nodes 0.4 and 0.5) is larger.
    s = np.array([0.1, 0.2, 0.3, 0.4, 0.5])
    tab = kernels.tabulated_kernel(s, [-1.0, -0.4, -0.8, -0.9, -0.2])
    probes = np.linspace(s[0], min(scale, s[-1]), 400_001)
    dense = float(np.max(np.interp(probes, s, tab.kprime_nodes)))
    sup = kernels._tabulated_sup(tab, scale)
    # The probes miss the sup by at most the steepest slope (7) times their spacing.
    assert dense <= sup <= dense + 7.0 * (probes[1] - probes[0])
    assert sup == {"node": -0.4, "scale": float(np.interp(0.48, s, tab.kprime_nodes)), "last node": -0.2}[at]
    assert kernels.min_attraction(tab, scale) == -sup


def test_tabulated_rejects_out_of_range():
    tab = _exponential_table(n=100, s_max=2.0)
    with pytest.raises(ValueError):
        kernels.min_attraction(tab, 1e-6)


def test_tabulated_requires_increasing_samples():
    with pytest.raises(ValueError):
        kernels.tabulated_kernel([1.0, 1.0, 2.0], [-1.0, -1.0, -1.0])
    with pytest.raises(ValueError):
        kernels.tabulated_kernel([0.0, 1.0], [-1.0, -1.0])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tabulated_rejects_non_finite_samples(tmp_path, bad):
    # A sample the drift never reads still poisons |k'|_sup, and with it
    # the moment rate and the drift bound.
    with pytest.raises(ValueError, match=f"k'\\(s\\) = {bad:g}"):
        kernels.tabulated_kernel([1.0, 2.0, 20.0], [-1.0, -0.5, bad])
    with pytest.raises(ValueError, match=f"s = {bad:g}"):
        kernels.tabulated_kernel([1.0, bad], [-1.0, -0.5])
    path = tmp_path / "kernel.txt"
    path.write_text(f"1.0 -1.0\n20.0 {bad}\n")
    with pytest.raises(ValueError, match="finite"):
        kernels.load_tabulated_kernel(path)


def test_tabulated_file_refuses_one_sample(tmp_path):
    path = tmp_path / "kernel.txt"
    path.write_text("# s kprime\n1.0 -1.0\n")
    with pytest.raises(ValueError) as info:
        kernels.load_tabulated_kernel(path)
    assert str(info.value) == f"{path}: expected at least two samples (s, k'(s)); got 1"


def test_tabulated_file_round_trip(tmp_path):
    path = tmp_path / "kernel.txt"
    s = np.linspace(0.01, 4.0, 50)
    lines = ["# sampled gradient", "# s kprime"]
    lines += [f"{si} {-math.exp(-si)}" for si in s]
    path.write_text("\n".join(lines) + "\n")
    tab = kernels.load_tabulated_kernel(path)
    assert tab.kprime_sup_norm == pytest.approx(math.exp(-0.01))
    assert _kprime(tab, 1.0) == pytest.approx(-math.exp(-1), abs=1e-3)
    # Outside the samples k' is clamped to the end samples.
    assert _kprime(tab, 0.001) == tab.kprime_nodes[0]
    assert _kprime(tab, 9.0) == tab.kprime_nodes[-1]


def test_kernel_names_stable():
    assert kernels.neg_abs_kernel().name() == "neg_abs"
    tab = _exponential_table(n=100, s_max=2.0)
    assert tab.name() == _exponential_table(n=100, s_max=2.0).name()
    assert tab.name() != _exponential_table(n=101, s_max=2.0).name()
    # The name is written to run.json and sweep.json: pin its digest.
    assert tab.name() == "tabulated:dd53cba7f514c56d"
