import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import (FIXTURE_SPECS, get_classes, get_group, get_table, mask_row,
                      row_mask)
from tqrgroups import (DecompositionError, character_of, decompose,
                       support_measure_frac)
from tqrgroups.classfuncs import power_support_mask, rep_from_selector, tensor_support_mask


def _rep(T, support):
    return np.isin(np.arange(T.num_irreps), support)


def test_plancherel_examples():
    T = get_table("S3")
    assert float(support_measure_frac(T, _rep(T, [2]))) == pytest.approx(4 / 6)
    assert float(support_measure_frac(T, rep_from_selector(T, "all"))) == pytest.approx(1.0)
    assert float(support_measure_frac(T, _rep(T, [0]))) == pytest.approx(1 / 6)
    assert support_measure_frac(T, _rep(T, [2])) == Fraction(2, 3)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_plancherel_sums_to_one(name):
    T = get_table(name)
    fracs = [support_measure_frac(T, _rep(T, [lam])) for lam in range(T.num_irreps)]
    assert sum(fracs, Fraction(0)) == 1
    assert abs(sum(float(f) for f in fracs) - 1) < 1e-12
    assert all(f > 0 for f in fracs)


def test_reduced_character_examples():
    T = get_table("S3")
    full = oracle.reduced_character(T, rep_from_selector(T, "all"))
    assert np.allclose(full, [1, 0, 0])
    std = oracle.reduced_character(T, _rep(T, [2]))
    assert np.allclose(std, [2 / 3, 0, -1 / 3])
    zero = oracle.reduced_character(T, np.zeros(3, dtype=bool))
    assert np.allclose(zero, 0)


def test_reduced_character_depends_on_support_only():
    T = get_table("S4")
    a = oracle.reduced_character(T, np.array([0, 2, 0, 1, 0]) > 0)
    b = oracle.reduced_character(T, np.array([0, 7, 0, 3, 0]) > 0)
    assert np.allclose(a, b)


def test_split_off_identity():
    T = get_table("S3")
    head, rest = oracle.split_off_identity(np.array([1, 0, 0]))
    assert head == 1 and np.allclose(rest, 0)
    std = oracle.reduced_character(T, _rep(T, [2]))
    head, rest = oracle.split_off_identity(std)
    assert head == pytest.approx(2 / 3)
    assert np.allclose(rest, [0, 0, -1 / 3])
    const = np.array([1, 1, 1])
    head, rest = oracle.split_off_identity(const)
    assert head == 1 and np.allclose(rest, [0, 1, 1])
    assert const.tolist() == [1, 1, 1]      # the input is not written


def test_lp_norm_examples():
    T = get_table("S3")
    _, f0 = oracle.split_off_identity(oracle.reduced_character(T, _rep(T, [2])))
    assert oracle.lp_norm(T.classes, f0, math.inf) == pytest.approx(1 / 3)
    assert oracle.lp_norm(T.classes, f0, 1) == pytest.approx(2 / 3)
    full = oracle.reduced_character(T, rep_from_selector(T, "all"))
    assert oracle.lp_norm(T.classes, full, 2) == pytest.approx(1.0)


@pytest.mark.parametrize("name", ["S3", "S5", "Q8", "aff7", "ES3"])
def test_l2_norm_is_sqrt_measure(name):
    T = get_table(name)
    rng = np.random.default_rng(5)
    for _ in range(20):
        mask = rng.integers(0, 2, T.num_irreps)
        if not mask.any():
            continue
        V = mask > 0
        f = oracle.reduced_character(T, V)
        measure = float(support_measure_frac(T, V))
        assert oracle.lp_norm(T.classes, f, 2) == pytest.approx(math.sqrt(measure))
        assert f[0] == pytest.approx(measure)
        _, f0 = oracle.split_off_identity(f)
        assert oracle.lp_norm(T.classes, f0, 2) <= 1 + 1e-12


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "A5", "Q8", "D4", "D5",
                                  "aff5", "aff7", "aff11", "ES3", "C12"])
def test_linf_bound_exhaustive(name):
    # sup-norm of the off-identity reduced character is at most c(G)^(-1/2)
    T = get_table(name)
    r = T.num_irreps
    if r > 12:
        pytest.skip("exhaustive over supports kept to <= 12 irreps")
    c = T.classes.min_nontrivial_size
    bound = c ** -0.5 + 1e-8
    dims = T.dims.astype(float)
    for mask in range(1, 1 << r):
        sel = np.array([(mask >> i) & 1 for i in range(r)], dtype=float)
        vals = ((sel * dims) @ T.values) / T.group.order
        assert np.max(np.abs(vals[1:])) <= bound


def test_decompose_examples():
    T = get_table("S3")
    std = T.values[2]
    sq = std * std
    assert np.allclose(sq, [4, 0, 1])
    assert decompose(T, sq).tolist() == [1, 1, 1]
    reg = np.array([6, 0, 0])
    assert decompose(T, reg).tolist() == [1, 1, 2]
    bad = np.array([1, 1, -1])
    with pytest.raises(DecompositionError):
        decompose(T, bad)


def test_decompose_rejects_negative_multiplicity():
    T = get_table("S3")
    f = T.values[0] - T.values[2]
    with pytest.raises(DecompositionError):
        decompose(T, f)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
@given(data=st.data())
def test_decompose_stack_matches_rows(name, data):
    T = get_table(name)
    mults = data.draw(st.lists(
        st.lists(st.integers(0, 3), min_size=T.num_irreps,
                 max_size=T.num_irreps), min_size=1, max_size=6))
    stack = np.array(mults, dtype=np.int64) @ T.values
    got = decompose(T, stack)
    assert got.dtype == np.int64 and got.shape == (len(mults), T.num_irreps)
    rows = [decompose(T, row) for row in stack]
    assert np.array_equal(got, np.array(rows))
    assert got.tolist() == mults


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_decompose_of_one_class_function_is_its_stack_row(name):
    # one (r,) row of values gives the (r,) int64 row the one-row stack gives
    T = get_table(name)
    f = (np.arange(T.num_irreps) % 3) @ T.values
    got = decompose(T, f)
    assert isinstance(got, np.ndarray) and got.dtype == np.int64
    assert got.shape == (T.num_irreps,)
    assert np.array_equal(got, decompose(T, f[None])[0])


@pytest.mark.parametrize("bad", ["fraction", "negative", "nan"])
@pytest.mark.parametrize("where", [1, 3])
def test_decompose_stack_rejects_any_bad_row(bad, where):
    # one bad row anywhere in the stack fails the whole call; a NaN row fails
    # as a non-integer, not by the sign of its cast
    T = get_table("S4")
    stack = np.array([T.values[0] * (k + 1) for k in range(4)])
    assert decompose(T, stack).shape == (4, T.num_irreps)
    stack[where] = {"fraction": 0.5 * T.values[1],
                    "negative": T.values[0] - T.values[2],
                    "nan": np.full_like(T.values[0], np.nan)}[bad]
    message = "negative multiplicity" if bad == "negative" else "not integers"
    with pytest.raises(DecompositionError, match=message):
        decompose(T, stack)


def test_decompose_stack_shapes():
    T = get_table("S3")
    assert decompose(T, np.zeros((0, 3))).shape == (0, 3)
    one = decompose(T, np.zeros(3))
    assert one.dtype == np.int64 and one.tolist() == [0, 0, 0]
    for wrong in (np.zeros(()), np.zeros(4), np.zeros((2, 4)), np.zeros((1, 2, 3))):
        with pytest.raises(ValueError, match="must have shape"):
            decompose(T, wrong)
    # S4 values against the S3 table: refused by shape
    with pytest.raises(ValueError, match="must have shape"):
        decompose(T, get_table("S4").values[0])


def test_reduce_examples():
    # the reduced representation of a support takes each chi in it chi(1) times
    T = get_table("S3")
    assert (T.dims * rep_from_selector(T, "all")).tolist() == T.dims.tolist()
    two_std = T.dims * _rep(T, [2])
    assert two_std.dtype == np.int64 and two_std.tolist() == [0, 0, 2]
    assert (T.dims * _rep(T, [0])).tolist() == [1, 0, 0]
    assert (T.dims * (two_std > 0)).tolist() == two_std.tolist()
    assert np.allclose(character_of(T, two_std), [4, 0, -2])


@pytest.mark.parametrize("name", ["S4", "A5", "Q8", "aff7", "C12", "ES3"])
def test_decompose_round_trip(name):
    T = get_table(name)
    rng = np.random.default_rng(17)
    for _ in range(25):
        mult = rng.integers(0, 4, T.num_irreps)
        back = decompose(T, character_of(T, mult))
        assert back.tolist() == mult.tolist()


@given(st.sampled_from(["S3", "S4", "Q8", "D4", "C6"]),
       st.lists(st.integers(min_value=0, max_value=3), min_size=1, max_size=12))
def test_decompose_round_trip_hypothesis(name, raw):
    T = get_table(name)
    mult = np.array((raw * T.num_irreps)[: T.num_irreps], dtype=int)
    assert decompose(T, character_of(T, mult)).tolist() == mult.tolist()


def test_rep_selectors():
    # a selector gives a support: a boolean (r,) mask over the irreducibles
    T = get_table("aff5")
    for selector, support in [("all", [0, 1, 2, 3, 4]), ("trivial", [0]), ("irrep:4", [4]),
                              ("IRREP:2", [2]), ("dim>=2", [4]), ("dim>=1", [0, 1, 2, 3, 4]),
                              ("dim>=5", [])]:
        got = rep_from_selector(T, selector)
        assert got.dtype == bool and got.shape == (T.num_irreps,)
        assert np.flatnonzero(got).tolist() == support
    with pytest.raises(ValueError):
        rep_from_selector(T, "irrep:9")
    with pytest.raises(ValueError):
        rep_from_selector(T, "nonsense")


def test_support_mask_arithmetic():
    T = get_table("S3")
    m_std = _rep(T, [2])
    assert tensor_support_mask(T, m_std, m_std).tolist() == [True, True, True]
    trivial = np.array([True, False, False])
    assert power_support_mask(T, trivial, 5).tolist() == [True, False, False]
    assert support_measure_frac(T, np.ones(3, dtype=bool)) == 1
    assert support_measure_frac(T, np.array([False, False, True])) == Fraction(2, 3)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
@settings(deadline=None)  # the first example fills the oracle's pair cache
@given(data=st.data())
def test_support_masks_match_pairwise_oracle(name, data):
    T = get_table(name)
    masks = st.sets(st.integers(0, T.num_irreps - 1)).map(
        lambda s: sum(1 << i for i in s))
    m1, m2 = data.draw(masks), data.draw(masks)
    m = data.draw(st.integers(1, 4))
    r1, r2 = mask_row(m1, T.num_irreps), mask_row(m2, T.num_irreps)
    want = oracle.pairwise_tensor_support(T, m1, m2)
    assert row_mask(tensor_support_mask(T, r1, r2)) == want
    assert row_mask(power_support_mask(T, r1, m)) == oracle.pairwise_power_support(T, m1, m)
    # a (b, r) stack is taken row by row
    stacked = tensor_support_mask(T, np.stack([r1, r2]), np.stack([r2, r1]))
    assert [row_mask(row) for row in stacked] == [want, want]


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
@given(data=st.data())
def test_support_measure_matches_fraction_sum_oracle(name, data):
    T = get_table(name)
    mask = data.draw(st.integers(0, (1 << T.num_irreps) - 1))
    assert (support_measure_frac(T, mask_row(mask, T.num_irreps))
            == oracle.fraction_sum_measure(T, mask))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_power_support_matches_stepwise_oracle(name):
    # binary powering against m - 1 steps, on a (b, r) stack: every single
    # irreducible and three random supports
    T = get_table(name)
    r = T.num_irreps
    rng = np.random.default_rng(r)
    stack = np.concatenate([np.eye(r, dtype=bool), rng.random((3, r)) < 0.3])
    for m in range(1, 13):
        assert np.array_equal(power_support_mask(T, stack, m),
                              oracle.stepwise_power_support(T, stack, m))
    assert np.array_equal(power_support_mask(T, stack[r], 7),
                          oracle.stepwise_power_support(T, stack[r], 7))


def test_power_support_of_a_cycling_row():
    # the sign irreducible of S3 squares to the trivial one, so its powers
    # alternate and never stall in size; a billion is even
    T = get_table("S3")
    sign = np.array([False, True, False])
    trivial = np.array([True, False, False])
    for m in range(1, 13):
        assert np.array_equal(power_support_mask(T, sign, m),
                              oracle.stepwise_power_support(T, sign, m))
    assert np.array_equal(power_support_mask(T, sign, 10 ** 9), trivial)
    assert np.array_equal(power_support_mask(T, sign, 10 ** 9 + 1), sign)
