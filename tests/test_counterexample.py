import hashlib
import json
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import FIXTURE_SPECS, get_classes, get_group, get_table
from tqrgroups import (AbelianGroup, AutAction, GroupError, build_group,
                       build_counterexample_rep, center, compute_char_table,
                       conjugacy_classes, decompose, default_epsilon, dual_action,
                       induce_character, invariant_small_doubling_set,
                       m_fold_sumset, normal_subgroups, support_measure_frac,
                       translate_cover)
from tqrgroups import config, counterexample, groups
from tqrgroups.counterexample import (_m_fold, _mask, _partition_check,
                                     conjugation_action_on_center)
from tqrgroups.groups import center_of_subset, subgroup_from_members


def _tuples(K, A):
    """A mask or index array over K as the set of its exponent tuples."""
    return {tuple(t) for t in K.coords[A].tolist()}


def _elements(K):
    return [tuple(t) for t in K.coords.tolist()]


def _m_fold_mask(K, A, m):
    """The m-fold sumset of a mask A over K, as a mask."""
    return _mask(K, _m_fold(K, K.coords[A], m))


def _set(rows):
    """A set of rows as a set of tuples."""
    return {tuple(t) for t in rows.tolist()}


def _rotation(K):
    """(x1, x2) -> (x2, -x1) on Z_d x Z_d, as an index permutation."""
    return K.index(K.coords[:, ::-1] * [1, -1])


# ---------------------------------------------------------------------------
# abelian structures


def test_abelian_group_basics():
    K = AbelianGroup((2, 4))
    assert K.order == 8
    with pytest.raises(ValueError):
        AbelianGroup((4, 2))   # not a divisibility chain


def _invariant_factors(G, members):
    # the one route the package takes to the structure of a commuting set
    return groups._invariant_factors(G, groups._member_array(G, members))


def test_abelian_structure_cyclic12():
    G = get_group("C12")
    K, to_parent = _invariant_factors(G, range(12))
    assert K.factors == (12,)
    assert len(to_parent) == 12


def test_abelian_structure_q8_center():
    G = get_group("Q8")
    K, to_parent = _invariant_factors(G, center(G))
    assert K.factors == (2,)
    assert to_parent[K.index((0,))] == 0 and to_parent[K.index((1,))] == 1


def test_abelian_structure_klein_and_mixed():
    V4 = build_group({"family": "dihedral", "params": {"n": 2}})
    K, _ = _invariant_factors(V4, range(4))
    assert K.factors == (2, 2)
    C2xC4 = build_group({"family": "product",
                         "params": {"left": {"family": "cyclic", "params": {"n": 2}},
                                    "right": {"family": "cyclic", "params": {"n": 4}}}})
    K2, _ = _invariant_factors(C2xC4, range(8))
    assert K2.factors == (2, 4)
    C6xC15 = build_group({"family": "product",
                          "params": {"left": {"family": "cyclic", "params": {"n": 6}},
                                     "right": {"family": "cyclic", "params": {"n": 15}}}})
    K3, _ = _invariant_factors(C6xC15, range(90))
    assert K3.factors == (3, 30)


def test_abelian_structure_of_one_element():
    # the identity alone is the trivial group; any other single element is
    # not a subgroup, though it once came back as the trivial group too
    G = get_group("C6")
    K, to_parent = _invariant_factors(G, [G.identity])
    assert K.factors == () and to_parent.tolist() == [G.identity]
    with pytest.raises(GroupError, match="does not enumerate"):
        _invariant_factors(G, [3])


def test_character_values_are_roots_of_unity():
    K = AbelianGroup((3, 6))
    for v in K.characters(np.arange(K.order)).ravel():
        assert abs(abs(v) - 1) < 1e-12
    # multiplicativity
    v1, v2, v12 = AbelianGroup((12,)).characters([5])[0, [3, 4, 7]]
    assert abs(v1 * v2 - v12) < 1e-12


@pytest.mark.parametrize("factors", [(2,), (12,), (2, 4), (3, 6), (2, 2, 2),
                                     (5, 5), (3, 30)])
def test_character_values_match_fraction_oracle(factors):
    # bit for bit: k/e is the same correctly rounded float as the Fraction
    K = AbelianGroup(factors)
    values = K.characters(np.arange(K.order))
    elements = _elements(K)
    for i, theta in enumerate(elements):
        assert values[i].tolist() == [oracle.character_value(factors, theta, x)
                                      for x in elements]


def test_dual_action_is_adjoint():
    K = AbelianGroup((5, 5))
    act = AutAction(K, [_rotation(K)])
    assert len(act) == 4
    dual = dual_action(act)
    chars = K.characters(np.arange(K.order))    # chars[theta, x]
    for p, q in zip(act.perms, dual.perms):
        # (q . theta)(x) = theta(p(x)) for every theta and x
        assert np.abs(chars[q] - chars[:, p]).max() < 1e-10


def _assert_dual_matches_oracle(action):
    K = action.group
    elements = _elements(K)
    maps = [{elements[x]: elements[y] for x, y in enumerate(p)} for p in action.perms]
    expect = oracle.fraction_dual_action(K.factors, maps)
    dual = dual_action(action)
    assert len(dual) == len(action)
    for q, want in zip(dual.perms, expect):
        assert {elements[t]: elements[y] for t, y in enumerate(q)} == want


@pytest.mark.parametrize("factors", [(5, 5), (13, 13), (4, 4)])
def test_dual_action_of_rotations_matches_fraction_oracle(factors):
    K = AbelianGroup(factors)
    _assert_dual_matches_oracle(AutAction(K, [_rotation(K)]))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_dual_action_of_conjugation_matches_fraction_oracle(name):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    for N in normal_subgroups(T):
        K_members = center_of_subset(G, N)
        if len(K_members) > 1:
            K, to_parent = _invariant_factors(G, K_members)
            _assert_dual_matches_oracle(conjugation_action_on_center(G, K, to_parent))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_conjugation_by_generators_is_the_per_coset_action(name):
    # N acts trivially on Z(N), so the closure of the generators' maps is
    # the set of the conjugations by one representative of each coset of N
    G, C, T = get_group(name), get_classes(name), get_table(name)
    for N in normal_subgroups(T):
        K_members = center_of_subset(G, N)
        if len(K_members) > 1:
            K, to_parent = _invariant_factors(G, K_members)
            action = conjugation_action_on_center(G, K, to_parent)
            want = {tuple(p) for p in oracle.per_coset_conjugation_maps(G, N, to_parent)}
            assert len(action) == len(want)
            assert {tuple(p) for p in action.perms.tolist()} == want


def _swap(K):
    """(x1, x2) -> (x2, x1) on Z_d x Z_d."""
    return K.index(K.coords[:, ::-1])


def _shear(K):
    """(x1, x2) -> (x1 + x2, x2) on Z_d x Z_d."""
    return K.index(K.coords + K.coords[:, 1:] * [1, 0])


@pytest.mark.parametrize("fill_cells", [1, 1 << 15])
@pytest.mark.parametrize("factors", [(3, 3), (4, 4), (5, 5)])
def test_aut_action_closes_generators_in_queue_order(factors, fill_cells, monkeypatch):
    # one product row per slab, or every row at once: the same order as a
    # closure that takes one element at a time
    monkeypatch.setattr(groups, "_FILL_CELLS", fill_cells)
    K = AbelianGroup(factors)
    for given in ([_rotation(K)], [_rotation(K), _swap(K), _rotation(K)],
                  [_shear(K), np.arange(K.order), _swap(K)]):
        act = AutAction(K, given)
        assert np.array_equal(act.perms, oracle.queue_closure(np.array(given)))
        # a closed input keeps its order
        closed = act.perms[::-1]
        assert np.array_equal(AutAction(K, closed).perms, closed)


def test_aut_action_closure_past_max_order_raises(monkeypatch):
    K = AbelianGroup((5, 5))
    monkeypatch.setattr(config, "MAX_ORDER", 4)
    assert len(AutAction(K, [_rotation(K)])) == 4
    monkeypatch.setattr(config, "MAX_ORDER", 3)
    with pytest.raises(GroupError, match="^generator closure exceeds MAX_ORDER=3$"):
        AutAction(K, [_rotation(K)])


def test_aut_action_refuses_a_linear_bijection_that_is_not_a_homomorphism():
    # on Z2 x Z4, (x1, x2) -> (x2 mod 2, x1 + x2 mod 4) is sum_i x_i p(e_i)
    # with p(e1) = (0, 1), p(e2) = (1, 1), and a bijection, but
    # 2 p(e1) = (0, 2) is not 0
    K = AbelianGroup((2, 4))
    x1, x2 = K.coords.T
    p = K.index(np.stack([x2, x1 + x2], axis=1))
    assert sorted(p.tolist()) == list(range(8))
    with pytest.raises(ValueError, match="not an automorphism"):
        AutAction(K, [p])
    with pytest.raises(ValueError, match="not a bijection"):
        AutAction(K, [np.zeros(8, dtype=np.int64)])


# ---------------------------------------------------------------------------
# sumsets and covers


def test_m_fold_sumset_examples():
    K = AbelianGroup((12,))
    assert _set(m_fold_sumset(K, [(0,)], 5)) == {(0,)}
    S = _set(m_fold_sumset(K, [(0,), (1,), (2,)], 2))
    assert S == {(0,), (1,), (2,), (3,), (4,)}
    full = _set(m_fold_sumset(K, _elements(K), 2))
    assert full == set(_elements(K))


def _assert_sorted_rows(rows, want):
    assert rows.dtype == np.int64 and rows.tolist() == sorted(map(list, want))


@pytest.mark.parametrize("factors", [(12,), (2, 4), (3, 6), (2, 2, 2), (5, 5)])
def test_mask_sumsets_match_tuple_sumsets(factors):
    K = AbelianGroup(factors)
    rng = np.random.default_rng(sum(factors))
    for _ in range(6):
        A = rng.random(K.order) < 0.2
        A[0] = True
        for m in range(1, 13):
            want = oracle.tuple_m_fold_sumset(factors, _tuples(K, A), m)
            assert _tuples(K, _m_fold_mask(K, A, m)) == want
            _assert_sorted_rows(m_fold_sumset(K, _tuples(K, A), m), want)


@pytest.mark.parametrize("rank", [1, 2, 3])
def test_lattice_sumsets_match_tuple_sumsets(rank):
    rng = np.random.default_rng(rank)
    sets = [[(0,) * rank], [(-3,) * rank]]
    sets += [[tuple(int(v) for v in rng.integers(-4, 5, rank)) for _ in range(size)]
             for size in (2, 3, 4)]
    for A in sets:
        for m in range(1, 13 if rank < 3 else 7):
            _assert_sorted_rows(m_fold_sumset(None, A, m),
                                oracle.tuple_m_fold_sumset(None, A, m))


def test_lattice_sumset_of_one_point_is_its_multiple():
    assert m_fold_sumset(None, [(5, -7)], 10 ** 12).tolist() == \
        [[5 * 10 ** 12, -7 * 10 ** 12]]
    top = 2 ** 62 - 1
    assert m_fold_sumset(None, [(top,), (-top,)], 2).tolist() == \
        [[-2 * top], [0], [2 * top]]


@pytest.mark.parametrize("A, m", [([(2 ** 62,)], 2), ([(0,), (-2 ** 62,)], 2),
                                  ([(10 ** 19,)], 1), ([(0,)], 2 ** 63)])
def test_lattice_sumset_refuses_multiples_beyond_int64(A, m):
    with pytest.raises(ValueError, match="lattice coordinates are int64"):
        m_fold_sumset(None, A, m)


@pytest.mark.parametrize("factors", [(12,), (2, 4), (3, 6), (2, 2, 2), (5, 5), (4, 8)])
def test_m_fold_mask_matches_stepwise_oracle(factors):
    # sparse and dense random sets, a lone element (every sumset one
    # translate of it) and a coset of a subgroup
    K = AbelianGroup(factors)
    rng = np.random.default_rng(K.order)
    sets = [rng.random(K.order) < q for q in (0.05, 0.1, 0.3)]
    sets += [np.arange(K.order) == K.order - 1, np.arange(K.order) % 2 == 1]
    for A in sets:
        for m in range(1, 13):
            assert np.array_equal(_m_fold_mask(K, A, m),
                                  oracle.stepwise_m_fold_mask(factors, A, m))


def test_m_fold_mask_of_a_huge_m_is_a_translate():
    # every k-fold sumset stalls by k = |K|, after which mA depends only on
    # m modulo the exponent
    K = AbelianGroup((3, 6))
    rng = np.random.default_rng(7)
    for A in (np.arange(K.order) == 5, rng.random(K.order) < 0.15):
        for m in (10 ** 18, 10 ** 18 + 1, 2 ** 63 + 5):
            small = K.order + 1 + (m - K.order - 1) % K.exponent
            assert np.array_equal(_m_fold_mask(K, A, m),
                                  oracle.stepwise_m_fold_mask(K.factors, A, small))


def test_translate_cover_interval():
    tc = translate_cover([(0,), (1,)], 2, 3)
    assert tc["count"] == 3
    assert tc["bound"] == 30
    assert tc["mn_set_size"] == 7


def test_translate_cover_m_equals_one():
    tc = translate_cover([(0,), (1,), (5,)], 4, 1)
    assert tc["count"] == 1


def test_translate_cover_rank2():
    tc = translate_cover([(0, 0), (1, 0), (0, 1)], 4, 2)
    assert tc["count"] <= (10 * 2 * 2) ** 2
    assert tc["mn_set_size"] == len(m_fold_sumset(None, [(0, 0), (1, 0), (0, 1)], 8))


def _cover_instance(rng, kind, k):
    """k+1 distinct points as in the seeded batch: in the lattice box
    [-4, 4]^k, or in a random AbelianGroup of rank k."""
    if kind == "lattice":
        pts = set()
        while len(pts) < k + 1:
            pts.add(tuple(int(v) for v in rng.integers(-4, 5, k)))
        return sorted(pts), None
    factors = tuple(sorted(int(f) for f in rng.choice([2, 3, 4, 6, 12], k)))
    factors = tuple(int(np.lcm.reduce(factors[:i + 1])) for i in range(k))
    K = AbelianGroup(factors)
    pts = set()
    while len(pts) < k + 1:       # |K| >= 2^k > k
        pts.add(tuple(K.coords[int(rng.integers(K.order))].tolist()))
    return sorted(pts), K


@pytest.mark.parametrize("kind", ["lattice", "group"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_translate_cover_matches_tuple_oracle_on_a_grid(kind, k):
    # 2 kinds x 3 ranks x 4 m x 6 n x 3 seeds = 432 covers
    rng = np.random.default_rng([k, kind == "group"])
    for m in range(1, 5):
        for n in range(1, 7):
            for _ in range(3):
                B, K = _cover_instance(rng, kind, k)
                got = translate_cover(B, n, m, group=K)
                assert got == oracle.tuple_translate_cover(
                    B, n, m, None if K is None else K.factors), (B, n, m, K)
                assert json.dumps(got)


def test_translate_cover_of_a_huge_m_in_a_group():
    # a multiple matters only modulo the exponent: at most |K| candidates
    K = AbelianGroup((12,))
    tc = translate_cover([(0,), (1,)], 10 ** 9, 10 ** 9, group=K)
    assert tc["translates"] == [[x] for x in range(12)]
    assert ([tc[key] for key in ("count", "bound", "n_set_size", "mn_set_size")]
            == [12, 10 ** 10, 12, 12])
    # every sumset has stalled by m = 12, and 10^12 = 12 modulo the exponent 4
    got = translate_cover([(1, 3), (0, 2)], 7, 10 ** 12, group=AbelianGroup((2, 4)))
    want = oracle.tuple_translate_cover([(1, 3), (0, 2)], 7, 12, (2, 4))
    assert got == want | {"bound": 10 ** 13}


def test_translate_cover_seeded_batch():
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(40):
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            pts = {tuple(int(v) for v in rng.integers(-4, 5, k))
                   for _ in range(k + 1)}
            while len(pts) < k + 1:
                pts.add(tuple(int(v) for v in rng.integers(-4, 5, k)))
            tc = translate_cover(sorted(pts), n, m)
        else:
            factors = tuple(sorted(int(f) for f in rng.choice([2, 3, 4, 6, 12], k)))
            factors = tuple(int(np.lcm.reduce(factors[:i + 1])) for i in range(k))
            K = AbelianGroup(factors)
            pts = set()
            while len(pts) < k + 1:
                pts.add(tuple(K.coords[int(rng.integers(K.order))].tolist()))
            tc = translate_cover(sorted(pts), n, m, group=K)
        assert tc["count"] <= tc["bound"]
        checked += 1
    assert checked == 40


# ---------------------------------------------------------------------------
# the small-doubling algorithm


def test_small_doubling_z12_interval():
    K = AbelianGroup((12,))
    L = AutAction(K, [])
    A, diag = invariant_small_doubling_set(K, L, 2, epsilon=Fraction(1, 4))
    assert _tuples(K, A) == {(0,), (1,), (2,)}
    assert diag["m_fold_size"] == 5
    assert diag["m_fold_size"] <= 6


def test_small_doubling_small_group_branch():
    K = AbelianGroup((2,))
    L = AutAction(K, [])
    A, diag = invariant_small_doubling_set(K, L, 3)
    assert _tuples(K, A) == {(0,)}
    assert diag["small_branch"]


def test_small_doubling_default_epsilon():
    assert default_epsilon(1, 2) == Fraction(1, 2 * 20 ** 2)
    K = AbelianGroup((12,))
    L = AutAction(K, [])
    A, diag = invariant_small_doubling_set(K, L, 2)
    assert _tuples(K, A) == {(0,)}   # 12 <= 1/epsilon puts us in the small branch


def test_small_doubling_invariant_under_rotation_small_branch():
    # |K| = 25 sits below 1/epsilon for any epsilon meeting the proof bound,
    # so the output is {0}: invariant, and trivially |2A| <= 12
    K = AbelianGroup((5, 5))
    L = AutAction(K, [_rotation(K)])
    assert len(L) == 4
    A, diag = invariant_small_doubling_set(K, L, 2)
    assert _tuples(K, A) == {(0, 0)} and diag["small_branch"]
    assert len(m_fold_sumset(K, _tuples(K, A), 2)) <= 12
    A = set(np.flatnonzero(A).tolist())
    for p in L.perms:
        assert {p[x] for x in A} == A


def test_small_doubling_invariant_under_rotation_nontrivial():
    K = AbelianGroup((13, 13))
    L = AutAction(K, [_rotation(K)])
    A, diag = invariant_small_doubling_set(K, L, 2, epsilon=Fraction(2, 169))
    assert 2 * len(m_fold_sumset(K, _tuples(K, A), 2)) <= K.order
    A = set(np.flatnonzero(A).tolist())
    assert len(A) >= 2
    for p in L.perms:
        assert {p[x] for x in A} == A


def test_small_doubling_rejects_overridden_epsilon_that_breaks_contract():
    K = AbelianGroup((4,))
    L = AutAction(K, [])
    with pytest.raises(RuntimeError):
        invariant_small_doubling_set(K, L, 2, epsilon=Fraction(9, 10))


# ---------------------------------------------------------------------------
# the induced-representation construction


def test_counterexample_cyclic12():
    G, C, T = get_group("C12"), get_classes("C12"), get_table("C12")
    N = [s for s in normal_subgroups(T) if len(s) == 12][0]
    V, rep = build_counterexample_rep(T, N, 2, epsilon=Fraction(1, 4))
    assert rep["set_size"] == 3
    assert V.dtype == np.int64 and V.shape == (T.num_irreps,)
    assert support_measure_frac(T, V > 0) == Fraction(1, 4)
    assert rep["measure_identity_ok"]
    assert rep["power_measure_at_most_half"]
    assert Fraction(*rep["measure_v_exact"]) == Fraction(1, 4)
    # the tensor-square support sits inside the sumset of character exponents
    assert rep["measure_v_power_m"] <= rep["m_fold_set_size"] / 12


def test_counterexample_q8_small_branch():
    G, C, T = get_group("Q8"), get_classes("Q8"), get_table("Q8")
    N = [s for s in normal_subgroups(T) if len(s) == 8][0]
    V, rep = build_counterexample_rep(T, N, 3)
    assert rep["algorithm"]["small_branch"]
    assert rep["set_size"] == 1
    # induced from the trivial central character: the four 1-dim irreps
    assert np.flatnonzero(V).tolist() == [0, 1, 2, 3]
    assert support_measure_frac(T, V > 0) == Fraction(1, 2)
    assert rep["power_measure_at_most_half"]


def test_counterexample_c2xs3():
    G, C, T = get_group("C2xS3"), get_classes("C2xS3"), get_table("C2xS3")
    N = [s for s in normal_subgroups(T) if len(s) == 12][0]
    V, rep = build_counterexample_rep(T, N, 4, epsilon=Fraction(1, 2))
    assert rep["center_order"] == 2
    assert support_measure_frac(T, V > 0) == Fraction(1, 2)
    # V is pulled back from the quotient by C2, so every tensor power keeps
    # the C2 factor acting trivially
    assert rep["measure_v_power_m"] == 0.5


def test_counterexample_orbit_blocks_partition():
    # D4 over its rotation subgroup: the dual orbits {0},{2},{1,3} of the
    # C4 characters induce blocks partitioning the five irreducibles with
    # measures 1/4, 1/4, 1/2
    G, C, T = get_group("D4"), get_classes("D4"), get_table("D4")
    N = [s for s in normal_subgroups(T)
         if len(s) == 4 and set(s.tolist()) == {0, 1, 2, 3}][0]
    V, rep = build_counterexample_rep(T, N, 2, epsilon=Fraction(1, 4))
    assert rep["orbit_partition_ok"] and rep["orbit_measures_ok"]
    assert sorted(b["orbit_size"] for b in rep["orbit_blocks"]) == [1, 1, 2]
    assert sorted(b["measure"] for b in rep["orbit_blocks"]) == [0.25, 0.25, 0.5]


def test_counterexample_requires_nontrivial_center():
    G, C, T = get_group("S3"), get_classes("S3"), get_table("S3")
    N = [s for s in normal_subgroups(T) if len(s) == 6][0]
    with pytest.raises(Exception, match="center"):
        build_counterexample_rep(T, N, 2)


def test_counterexample_refuses_a_subgroup_that_is_not_normal():
    T = get_table("S3")   # elements 0 and 1 are the identity and a transposition
    for N in ([0, 1], subgroup_from_members(T.group, [0, 1])):
        with pytest.raises(GroupError, match="^N must be normal$"):
            build_counterexample_rep(T, N, 2)


@pytest.mark.parametrize("name,n_order", [("Q8", 8), ("D4", 8), ("ES3", 27),
                                          ("D4", 4)])
def test_induced_block_matches_orbit_sum_formula(name, n_order):
    # character of Ind_K^G(theta): zero off K and
    # (|N|/|K|) * sum over cosets of theta composed with conjugation on K
    G, C, T = get_group(name), get_classes(name), get_table(name)
    N = [s for s in normal_subgroups(T) if len(s) == n_order]
    N = [s for s in N if len(center_of_subset(G, s)) > 1][0]
    K_members = center_of_subset(G, N)
    K, to_parent = _invariant_factors(G, K_members)
    action = conjugation_action_on_center(G, K, to_parent)
    kk = len(K_members)
    coset_count = G.order // len(N)
    elements = _elements(K)
    to_parent = to_parent.tolist()
    from_parent = {g: t for t, g in enumerate(to_parent)}
    for theta in elements:
        values = {to_parent[t]: oracle.character_value(K.factors, theta, x)
                  for t, x in enumerate(elements)}
        ind = induce_character(G, sorted(values),
                               [values[e] for e in sorted(values)])
        # orbit-sum formula, assembled from the coset automorphisms; the
        # induction here goes K -> G so the prefactor is |G|/(|K| |G/N|)
        for cid, rep_el in enumerate(C.representatives):
            rep_el = int(rep_el)
            if rep_el in values:
                t = from_parent[rep_el]
                expect = (len(N) / kk) * sum(
                    oracle.character_value(K.factors, theta, elements[p[t]])
                    for p in action.perms) * (coset_count / len(action))
                assert abs(ind[cid] - expect) < 1e-9
            else:
                assert abs(ind[cid]) < 1e-9


def test_induced_blocks_orthogonal_iff_distinct_orbit():
    # D4 with N = the rotation subgroup: the reflection flips the characters
    # of C4, giving dual orbits {0}, {2}, {1,3}
    G, C, T = get_group("D4"), get_classes("D4"), get_table("D4")
    N = [s for s in normal_subgroups(T)
         if len(s) == 4 and set(s.tolist()) == {0, 1, 2, 3}][0]
    K_members = center_of_subset(G, N)
    assert len(K_members) == 4
    K, to_parent = _invariant_factors(G, K_members)
    action = conjugation_action_on_center(G, K, to_parent)
    dual = dual_action(action)
    elements = _elements(K)
    to_parent = to_parent.tolist()
    chars = {}
    for i, theta in enumerate(elements):
        values = {to_parent[t]: oracle.character_value(K.factors, theta, x)
                  for t, x in enumerate(elements)}
        chars[i] = induce_character(G, sorted(values),
                                    [values[e] for e in sorted(values)])
    for t1 in range(len(elements)):
        for t2 in range(len(elements)):
            same_orbit = t2 in dual.orbit(t1)
            ip = np.sum(C.sizes * chars[t1] * np.conj(chars[t2])) / G.order
            if same_orbit:
                assert np.allclose(chars[t1], chars[t2])
            else:
                assert abs(ip) < 1e-9


def _central_blocks(T, N):
    # N central: conjugation fixes Z(N) = N, so each dual orbit is one
    # character theta, and the report's blocks are the V_theta partition
    _, rep = build_counterexample_rep(T, N, 2)
    assert rep["orbit_partition_ok"] and rep["orbit_measures_ok"]
    assert {b["orbit_size"] for b in rep["orbit_blocks"]} == {1}
    want = oracle.verify_vtheta_partition(T, N)
    assert want["partition_ok"] and want["measures_exact"]
    blocks = [{k: b[k] for k in ("support", "measure")} for b in rep["orbit_blocks"]]
    assert blocks == [{k: b[k] for k in ("support", "measure")} for b in want["blocks"]]
    return blocks


def test_vtheta_partition_q8_d4():
    for name in ["Q8", "D4"]:
        blocks = _central_blocks(get_table(name), center(get_group(name)))
        assert [b["measure"] for b in blocks] == [0.5, 0.5]
    q8 = _central_blocks(get_table("Q8"), center(get_group("Q8")))
    assert q8[0]["support"] == [0, 1, 2, 3]
    assert q8[1]["support"] == [4]


def test_vtheta_partition_abelian_self_dual():
    T = get_table("C6")
    blocks = _central_blocks(T, normal_subgroups(T)[-1])   # all of C6
    assert len(blocks) == 6 and all(len(b["support"]) == 1 for b in blocks)


def test_partition_check_flags_overlaps_gaps_and_measures():
    T = get_table("S3")  # dims 1, 1, 2; measures 1/6, 1/6, 2/3
    chi = list(T.values)
    both = chi[1] + chi[2]

    def mult(*fs):
        return decompose(T, np.array(fs))

    blocks, partition, measures = _partition_check(
        T, mult(chi[0], both), [Fraction(1, 6), Fraction(5, 6)])
    assert blocks == [{"support": [0], "measure": 1 / 6},
                      {"support": [1, 2], "measure": 5 / 6}]
    assert partition and measures
    overlap = chi[0] + chi[2]
    _, partition, measures = _partition_check(
        T, mult(overlap, both), [Fraction(5, 6), Fraction(5, 6)])
    assert not partition and measures
    _, partition, measures = _partition_check(
        T, mult(chi[0], chi[1]), [Fraction(1, 6), Fraction(1, 3)])
    assert not partition and not measures


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}


# sha256 of the JSON of every construction on the grid below, error
# messages included, as the tuple, dict and Fraction implementation gave it
_GRID_DIGEST = "414d3439978408026e82f9276e5cd1d20d80b9a8096b9f204cbe8ed562149f76"


def test_constructions_are_unchanged_on_the_fixture_grid():
    # every fixture group x every normal subgroup with a nontrivial centre x
    # m in {1, 2, 3} x epsilon in {default, 1/4, 1/2}, and the central
    # partition of each group
    out = []
    for name in FIXTURE_SPECS:
        G, C, T = get_group(name), get_classes(name), get_table(name)
        for N in normal_subgroups(T):
            if len(center_of_subset(G, N)) <= 1:
                continue
            for m in (1, 2, 3):
                for eps in (None, Fraction(1, 4), Fraction(1, 2)):
                    def build():
                        V, rep = build_counterexample_rep(T, N, m, eps)
                        return {"rep": {"mult": V.tolist()}, "construction": rep}
                    out.append({"group": name, "normal": N.tolist(), "m": m,
                                "eps": None if eps is None else str(eps),
                                "result": _outcome(build)})
        out.append({"group": name, "vtheta": _outcome(
            lambda: oracle.verify_vtheta_partition(T, center(G)))})
    assert len(out) == 669
    blob = json.dumps(out, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == _GRID_DIGEST


@pytest.mark.parametrize("name", ["Q8", "ES3", "C2xS4", "C12"])
def test_the_counterexample_proves_the_centre_abelian_once(name, monkeypatch):
    # center_of_subset proves Z(N) commutative, once per construction, and
    # the invariant factors are read off it with no second commutation check
    G, C, T = get_group(name), get_classes(name), get_table(name)
    calls = []

    def counted(*args):
        calls.append(args)
        return center_of_subset(*args)

    monkeypatch.setattr(counterexample, "center_of_subset", counted)
    for N in normal_subgroups(T):
        if len(center_of_subset(G, N)) > 1:
            calls.clear()
            build_counterexample_rep(T, N, 2)
            assert len(calls) == 1
