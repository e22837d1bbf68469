import json
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import FIXTURE_SPECS, element_order, get_classes, get_group, get_table
from tqrgroups import (build_chain, build_group, compute_char_table,
                       decompose, mixing_experiment, distances_to_stationary,
                       mixing_time, plancherel, stationarity_residual,
                       support_measure_frac, t_step_distribution)
from tqrgroups import markov
from tqrgroups.cli import parse_group_spec
from tqrgroups.classfuncs import character_of, rep_from_selector


def _rep(T, support):
    return np.isin(np.arange(T.num_irreps), support)


def direct_t_step_distribution(T, V, lam, t):
    """The t-step distribution from one decomposition of
    lam (x) reduced(V)^(x t), instead of iterating the kernel."""
    vals = T.values[lam] * character_of(T, T.dims * V) ** t
    weights = decompose(T, vals) * T.dims
    return weights / weights.sum()


def kernel_row_by_row(T, V):
    """The transition kernel with one decomposition per row."""
    red_char = character_of(T, T.dims * V)
    dim_red = int(np.sum(T.dims[V] ** 2))
    dims = T.dims.astype(np.float64)
    kernel = np.zeros((T.num_irreps, T.num_irreps))
    for lam in range(T.num_irreps):
        kernel[lam] = decompose(T, T.values[lam] * red_char) * dims / (dims[lam] * dim_red)
    return kernel


def test_s3_kernel_rows():
    T = get_table("S3")
    V = _rep(T, [2])
    K = build_chain(T, V)
    assert np.allclose(K[0], [0, 0, 1])
    assert np.allclose(K[1], [0, 0, 1])
    assert np.allclose(K[2], [0.25, 0.25, 0.5])
    assert V.tolist() == [False, False, True]
    assert (T.dims * V) @ T.dims == 4     # reduced V: 2 copies of the 2-dim irrep
    assert K.dtype == np.float64 and K.shape == (3, 3) and not K.flags.writeable


def test_regular_driver_reaches_plancherel_in_one_step():
    for name in ["S4", "Q8", "aff5"]:
        T = get_table(name)
        K = build_chain(T, rep_from_selector(T, "all"))
        pi = plancherel(T)
        for lam in range(len(K)):
            assert np.allclose(K[lam], pi, atol=1e-10)


def test_trivial_group_chain():
    G = build_group({"family": "cyclic", "params": {"n": 1}})
    T = compute_char_table(G)
    K = build_chain(T, rep_from_selector(T, "all"))
    assert K.tolist() == [[1.0]]


def test_empty_driver_rejected():
    T = get_table("S3")
    with pytest.raises(ValueError):
        build_chain(T, np.zeros(3, dtype=bool))


def test_t_step_examples():
    T = get_table("S3")
    K = build_chain(T, _rep(T, [2]))
    assert np.allclose(t_step_distribution(K, 0, 0), [1, 0, 0])
    assert np.allclose(t_step_distribution(K, 0, 2), [0.25, 0.25, 0.5])
    assert np.allclose(t_step_distribution(K, 0, 3), [0.125, 0.125, 0.75])


@pytest.mark.parametrize("name", ["S3", "S5", "Q8", "D5", "aff7", "ES3", "C12"])
def test_kernel_power_matches_direct_decomposition(name):
    T = get_table(name)
    rng = np.random.default_rng(31)
    for _ in range(3):
        mask = rng.integers(0, 2, T.num_irreps)
        if not mask.any():
            mask[0] = 1
        K = build_chain(T, mask > 0)
        for lam in [0, T.num_irreps - 1]:
            for t in range(5):
                a = t_step_distribution(K, lam, t)
                b = direct_t_step_distribution(T, mask > 0, lam, t)
                assert np.max(np.abs(a - b)) < 1e-8


@pytest.mark.parametrize("name", ["S4", "A5", "Q8", "aff11", "C64", "ES5"])
def test_plancherel_stationary(name):
    T = get_table(name)
    rng = np.random.default_rng(37)
    for _ in range(5):
        mask = rng.integers(0, 2, T.num_irreps)
        if not mask.any():
            mask[rng.integers(T.num_irreps)] = 1
        K = build_chain(T, mask > 0)
        assert stationarity_residual(T, K) < 1e-8


def test_mixing_time_regular_driver_is_one():
    T = get_table("S4")
    K = build_chain(T, rep_from_selector(T, "all"))
    rep = mixing_time(T, K, "uniform", 0.01, t_max=4)
    assert rep["mixing_time"] == 1
    assert rep["mixing_times"]["tv_half_l1"] == 1


def test_mixing_time_s3_std():
    T = get_table("S3")
    K = build_chain(T, _rep(T, [2]))
    rep = mixing_time(T, K, "tv", 0.25, t_max=16)
    assert rep["mixing_time"] is not None and rep["mixing_time"] <= 4
    uni = mixing_time(T, K, "uniform", 0.25, t_max=16)
    assert uni["mixing_time"] is not None
    assert uni["mixing_time"] >= rep["mixing_time"]


def test_cyclic_deterministic_walk_never_mixes():
    T = get_table("C6")
    K = build_chain(T, _rep(T, [1]))
    rep = mixing_time(T, K, "tv", 0.25, t_max=32)
    assert rep["mixing_time"] is None
    assert rep["mixing_times"]["uniform"] is None
    # every step is a point mass
    for t in range(5):
        d = t_step_distribution(K, 0, t)
        assert sorted(d.tolist())[-1] == 1.0


def test_distance_relations_along_curve():
    T = get_table("S5")
    K = build_chain(T, _rep(T, [4]))
    rep = mixing_time(T, K, "uniform", 0.1, t_max=12)
    for row in rep["curve"]:
        assert row["tv_half_l1"] <= row["uniform"] / 2 + 1e-9
        assert row["tv_max"] <= 2 * row["tv_half_l1"] + 1e-9


def test_mixing_metric_validation():
    T = get_table("S3")
    K = build_chain(T, _rep(T, [2]))
    with pytest.raises(ValueError):
        mixing_time(T, K, "bogus", 0.1)
    with pytest.raises(ValueError):
        mixing_time(T, K, "tv", 0.0)


def test_mixing_experiment_affine11():
    T = get_table("aff11")
    V = _rep(T, [T.num_irreps - 1])
    out = mixing_experiment(T, V, build_chain(T, V), 0.25, 3)
    assert out["c"] == 10
    assert out["measure"] == pytest.approx(100 / 110)
    assert out["uniform_distance_t3"] <= out["hoelder_bound_t3"]
    assert out["within_bound_t3"]
    assert out["stationarity_residual"] < 1e-10


def test_nonmixing_negative_direction_quotient_pullback():
    # C2 x S4 driven by the pullback of the regular representation of S4:
    # irreducibles nontrivial on the C2 factor stay unreachable forever
    G, C, T = get_group("C2xS4"), get_classes("C2xS4"), get_table("C2xS4")
    z = 24  # element index of (generator of C2, identity of S4)
    assert element_order(G, z) == 2
    zc = C.class_of[z]
    trivial_on_c2 = [lam for lam in range(T.num_irreps)
                     if abs(T.values[lam, zc] - T.dims[lam]) < 1e-9]
    V = _rep(T, trivial_on_c2)
    assert support_measure_frac(T, V) == Fraction(1, 2)
    K = build_chain(T, V)
    nontrivial = [lam for lam in range(T.num_irreps) if lam not in trivial_on_c2]
    mass = float(sum(plancherel(T)[nontrivial]))
    assert mass == pytest.approx(0.5)
    dist = np.zeros(T.num_irreps)
    dist[0] = 1.0
    for t in range(1, 65):
        dist = dist @ K
        assert np.all(dist[nontrivial] == 0.0)   # exactly inaccessible
        d = distances_to_stationary(T, dist)
        assert d["tv_half_l1"] >= mass - 1e-8
    out = mixing_experiment(T, V, K, 0.25, 8)
    assert out["inaccessible_mass_after_m"] >= 0.5 - 1e-12
    assert out["tv_half_l1_after_m_from_trivial"] >= 0.25


def test_mixing_experiment_full_driver_mixes_immediately():
    T = get_table("S4")
    V = rep_from_selector(T, "all")
    out = mixing_experiment(T, V, build_chain(T, V), 0.25, 1)
    assert out["uniform_distance_t3"] == pytest.approx(0.0, abs=1e-10)
    assert out["within_epsilon_t3"]
    assert out["inaccessible_mass_after_m"] == pytest.approx(0.0, abs=1e-12)
    assert out["tv_half_l1_after_m_from_trivial"] == pytest.approx(0.0, abs=1e-10)


@pytest.mark.parametrize("name", ["S5", "A5", "aff7", "aff13"])
def test_section4_inequality_chain(name):
    # |(reduced V)_0^3 tensor (reduced lam)_0|_1 <= M(lam) c^{-1/2}
    T = get_table(name)
    c = T.classes.min_nontrivial_size
    rng = np.random.default_rng(41)
    for _ in range(20):
        mask = rng.integers(0, 2, T.num_irreps)
        if not mask.any():
            continue
        f = oracle.reduced_character(T, mask > 0)
        _, f0 = oracle.split_off_identity(f)
        for lam in range(T.num_irreps):
            g = oracle.reduced_character(T, _rep(T, [lam]))
            _, g0 = oracle.split_off_identity(g)
            m_lam = float(support_measure_frac(T, _rep(T, [lam])))
            assert oracle.lp_norm(T.classes, f0 ** 3 * g0, 1) <= m_lam * c ** -0.5 + 1e-8


def test_uniform_distance_decreases_along_affine_family():
    dists = []
    for name in ["aff5", "aff7", "aff11", "aff13"]:
        T = get_table(name)
        V = _rep(T, [T.num_irreps - 1])
        K = build_chain(T, V)
        worst = max(distances_to_stationary(T, t_step_distribution(K, lam, 3))["uniform"]
                    for lam in range(len(K)))
        dists.append(worst)
    assert all(a > b for a, b in zip(dists, dists[1:]))


def _driving_reps(T):
    yield rep_from_selector(T, "all")
    yield _rep(T, [T.num_irreps - 1])
    if T.dims.max() >= 2:
        yield rep_from_selector(T, "dim>=2")


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_kernel_matches_row_by_row_oracle(name):
    T = get_table(name)
    for V in _driving_reps(T):
        assert np.array_equal(build_chain(T, V), kernel_row_by_row(T, V))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_mixing_report_matches_per_start_oracle(name):
    # the stacked curve must equal the per-start loop to the last bit, since
    # the CLI writes these floats with repr
    T = get_table(name)
    for V in _driving_reps(T):
        K = build_chain(T, V)
        for start in (None, T.num_irreps - 1):
            got = mixing_time(T, K, "tv", 0.25, start=start)
            want = oracle.mixing_report_per_start(T, K, "tv_max", 0.25, 64, start)
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True))


def test_start_outside_the_irreducibles_is_refused():
    T = get_table("S3")
    K = build_chain(T, _rep(T, [2]))
    for bad in (-1, 3):
        with pytest.raises(ValueError):
            mixing_time(T, K, "tv", 0.25, t_max=4, start=bad)
        with pytest.raises(ValueError):
            t_step_distribution(K, bad, 2)
    with pytest.raises(ValueError):
        mixing_time(T, K, "tv", 0.25, t_max=-1)
    with pytest.raises(ValueError, match="^t must be non-negative$"):
        t_step_distribution(K, 0, -1)


def test_distances_take_the_worst_row():
    T = get_table("S4")
    K = build_chain(T, _rep(T, [T.num_irreps - 1]))
    stack = np.array([t_step_distribution(K, lam, 2) for lam in range(len(K))])
    rows = [distances_to_stationary(T, d) for d in stack]
    assert distances_to_stationary(T, stack) == {
        m: max(r[m] for r in rows) for m in rows[0]}


@pytest.mark.parametrize("group, selector, metric, t_max", [
    ("extraspecial:5", "dim>=2", "tv", 64),
    ("dihedral:30", "irrep:5", "tv", 64),
    ("cyclic:120", "irrep:1", "tv", 64),
    ("affine:11", "irrep:10", "uniform", 12)])
def test_stacked_step_keeps_the_row_loop_bits(group, selector, metric, t_max):
    # the benchmark's Markov commands and the suite's aff11 chain: one stacked
    # product per step rounds exactly as `row @ K` per start row
    G = build_group(parse_group_spec(group))
    T = compute_char_table(G)
    K = build_chain(T, rep_from_selector(T, selector))
    got = mixing_time(T, K, metric, 0.25, t_max=t_max)
    want = oracle.mixing_report_per_start(T, K, got["metric"], 0.25, t_max, None)
    assert np.array_equal([list(c.values()) for c in got["curve"]],
                          [list(c.values()) for c in want["curve"]])
    assert got["mixing_times"] == want["mixing_times"]


class _CountingKernel(np.ndarray):
    """A kernel that counts the products taken with it and computes each on
    the plain array, so the bits are those of the plain kernel."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.products += 1
        return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)


def _chain(group, selector):
    """(T, V, kernel) of the chain of `selector` on `group`."""
    G = build_group(parse_group_spec(group))
    T = compute_char_table(G)
    V = rep_from_selector(T, selector)
    return T, V, build_chain(T, V)


def _counted(K):
    counting = K.view(_CountingKernel)
    counting.products = 0
    return counting


@pytest.mark.parametrize("group, selector, stops", [
    # an involution: stack 4 repeats stack 2
    ("cyclic:120", "irrep:1", (4, 4)),
    # fixed from t = 28: stack 33 repeats stack 32
    ("extraspecial:5", "dim>=2", (33, 33)),
    # the stack has period 2 from t = 25; the last row alone is fixed from t = 24
    ("alternating:5", "irrep:4", (34, 33))])
def test_mixing_time_stops_at_a_repeat_and_keeps_the_loop_bits(group, selector, stops):
    T, _, K = _chain(group, selector)
    for start, stop in zip((None, len(K) - 1), stops):
        counting = _counted(K)
        got = mixing_time(T, counting, "tv", 0.25, t_max=200, start=start)
        # one product per step up to the repeated stack, not 200
        assert counting.products == stop
        want = oracle.mixing_report_per_start(T, K, "tv_max", 0.25, 200, start)
        assert (json.dumps(got, sort_keys=True)
                == json.dumps(want, sort_keys=True))


_BENCH_CHAINS = [("dihedral:30", "irrep:5"), ("extraspecial:5", "dim>=2"),
                 ("cyclic:120", "irrep:1"), ("alternating:5", "irrep:4")]


@pytest.mark.parametrize("group, selector", _BENCH_CHAINS)
def test_stacks_scored_in_any_block_keep_the_per_start_bits(group, selector, monkeypatch):
    # 1 and 7 cells score one stack a block; 1000 cells score several, with a
    # shorter last block
    T, _, K = _chain(group, selector)
    for t_max in (64, 200):
        for start in (None, len(K) - 1):
            want = json.dumps(oracle.mixing_report_per_start(T, K, "tv_max", 0.25, t_max, start),
                              sort_keys=True)
            for cells in (1, 7, 1000):
                monkeypatch.setattr(markov, "_BLOCK_CELLS", cells)
                got = mixing_time(T, K, "tv", 0.25, t_max=t_max, start=start)
                assert json.dumps(got, sort_keys=True) == want


@pytest.mark.parametrize("group, selector", [*_BENCH_CHAINS, ("affine:11", "irrep:10")])
def test_mixing_experiment_reads_t3_off_the_report_it_is_given(group, selector, monkeypatch):
    T, V, K = _chain(group, selector)
    want = json.dumps(mixing_experiment(T, V, K, 0.25, 3))
    report = mixing_time(T, K, "tv_half_l1", 0.1)
    walked = []
    monkeypatch.setattr(markov, "mixing_time",
                        lambda *args, **kwargs: walked.append(args) or mixing_time(*args, **kwargs))
    assert json.dumps(mixing_experiment(T, V, K, 0.25, 3, report)) == want
    assert walked == []
    # a report from one start, or one that stops before t = 3, is walked again
    for other in (mixing_time(T, K, "tv", 0.25, start=len(K) - 1),
                  mixing_time(T, K, "tv", 0.25, t_max=2)):
        assert json.dumps(mixing_experiment(T, V, K, 0.25, 3, other)) == want
    assert len(walked) == 2


def _row_loop(K, lam, t):
    dist = np.eye(len(K))[lam]
    for _ in range(t):
        dist = dist @ K
    return dist


def test_t_step_distribution_past_a_long_period_keeps_the_loop_bits():
    # the rows of dihedral:30 driven by irrep:5 first repeat at t = 1544
    _, _, K = _chain("dihedral:30", "irrep:5")
    for m in (1543, 1544, 1545, 3001):
        got = t_step_distribution(K, 0, m)
        assert np.array_equal(got.view(np.uint64), _row_loop(K, 0, m).view(np.uint64))


def test_t_step_distribution_of_a_huge_m_is_the_point_mass_of_m_mod_n():
    # a linear character of order 120 permutes the irreducibles of cyclic:120
    _, _, K = _chain("cyclic:120", "irrep:7")
    m = 10 ** 9
    counting = _counted(K)
    got = t_step_distribution(counting, 0, m)
    assert counting.products < 400
    want = _row_loop(K, 0, m % 120)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert sorted(got.tolist())[-1] == 1.0 and got.sum() == 1.0
