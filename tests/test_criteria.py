import dataclasses
import importlib.util
import itertools
import math
import tracemalloc
from fractions import Fraction
from pathlib import Path

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import oracle
from conftest import (FIXTURE_SPECS, element_order, get_classes, get_group,
                      get_table, get_table_for_spec, row_mask)
from tqrgroups import (build_group, check_qr, check_tqr, compute_char_table,
                       conjugacy_classes, decompose, multiplicity_profile, quotient,
                       subgroup_from_members, three_factor_cover, two_factor_cover)
from tqrgroups.classfuncs import power_support_mask, rep_from_selector
from tqrgroups import config, criteria, groups
from tqrgroups.chartable import CharTable
from tqrgroups.criteria import CriteriaParams, CriterionReport, _minimal_supports
from tqrgroups.groups import ClassData, GroupTable


def _rep(T, support):
    return np.isin(np.arange(T.num_irreps), support)


def conjugation_action_on_class(G, C, cid):
    """Permutation action of G on one conjugacy class, with its kernel.

    Returns (perms, kernel) where perms[g] is the tuple of positions the
    sorted class elements map to under x -> g x g^-1.
    """
    cls = np.flatnonzero(C.class_of == cid).tolist()
    pos = {x: i for i, x in enumerate(cls)}
    perms = [tuple(pos[oracle.conjugate(G, g, x)] for x in cls) for g in range(G.order)]
    idn = tuple(range(len(cls)))
    kernel = [g for g in range(G.order) if perms[g] == idn]
    return perms, subgroup_from_members(G, kernel)


# ---------------------------------------------------------------------------
# covering lemma: |f(e)| above the l1 mass of f off the identity, for f in the
# span of a support's characters, forces the support to be all of Irrep(G)


def _covering_lemma_holds(T, f):
    head, rest = oracle.split_off_identity(f)
    return abs(head) > oracle.lp_norm(T.classes, rest, 1)


def test_covering_lemma_indicator_true():
    T = get_table("S3")
    f = np.array([1, 0, 0])
    assert _covering_lemma_holds(T, f)
    # ... and the regular representation indeed covers
    reg = np.array([6, 0, 0])
    assert np.flatnonzero(decompose(T, reg)).tolist() == [0, 1, 2]


def test_covering_lemma_trivial_char_false():
    # the lemma's hypothesis fails for the trivial character, whose tensor
    # powers indeed stay on the trivial irreducible
    T = get_table("S3")
    assert not _covering_lemma_holds(T, T.values[0])
    assert power_support_mask(T, _rep(T, [0]), 3).tolist() == [True, False, False]


def test_covering_lemma_std_cube():
    # the lemma holds for the cube of the standard representation's reduced
    # character, and its third tensor power indeed covers
    T = get_table("S3")
    f = oracle.reduced_character(T, _rep(T, [2]))
    cube = f ** 3
    head, rest = oracle.split_off_identity(cube)
    assert abs(head) == pytest.approx((2 / 3) ** 3)
    assert oracle.lp_norm(T.classes, rest, 1) == pytest.approx(2 / 27)
    assert _covering_lemma_holds(T, cube)
    assert power_support_mask(T, _rep(T, [2]), 3).all()


# ---------------------------------------------------------------------------
# two- and three-factor covering


def test_two_factor_s3_std():
    T = get_table("S3")
    rep = two_factor_cover(T, _rep(T, [2]), _rep(T, [2]))
    assert rep["guaranteed"] and rep["covered"] and rep["missing"] == []


def test_two_factor_trivial_pair():
    T = get_table("S3")
    rep = two_factor_cover(T, _rep(T, [0]), _rep(T, [0]))
    assert not rep["guaranteed"] and not rep["covered"]
    assert rep["missing"] == [1, 2]


def test_two_factor_full_plus_trivial():
    T = get_table("Q8")
    rep = two_factor_cover(T, rep_from_selector(T, "all"), _rep(T, [0]))
    assert rep["guaranteed"] and rep["covered"]


def test_three_factor_affine5_worked_instance():
    T = get_table("aff5")
    rho = _rep(T, [4])
    rep = three_factor_cover(T, rho, rho, rho)
    assert rep["guaranteed"]                    # 0.512 > 1/2 exactly
    assert rep["covered"]
    assert rep["threshold"] == pytest.approx(0.5)
    prof = multiplicity_profile(T, rho, rho, rho)
    assert prof["multiplicities"] == [192, 192, 192, 192, 832]


def test_three_factor_boundary_is_exact():
    # affine(5): product measure 0.512 vs bound 0.5 must use exact arithmetic
    T = get_table("aff5")
    rho = _rep(T, [4])
    m = Fraction(4, 5) ** 3
    assert m * m * T.classes.min_nontrivial_size > 1   # (0.512)^2 * 4 > 1
    ones = _rep(T, [0, 1, 2, 3])
    rep = three_factor_cover(T, ones, ones, ones)
    # measure 1/5 each: (1/5)^3 = 0.008 < 0.5, no guarantee, and 1-dims
    # close under tensor product so the big irrep is missed
    assert not rep["guaranteed"] and not rep["covered"] and rep["missing"] == [4]


def test_three_factor_q8_never_guaranteed():
    T = get_table("Q8")
    for sup in [[0], [4], [0, 1, 2, 3], [0, 1, 2, 3, 4]]:
        rep = three_factor_cover(T, _rep(T, sup), _rep(T, sup), _rep(T, sup))
        assert not rep["guaranteed"]   # c(Q8) = 1 makes the bound unreachable


def test_three_factor_full_supports_guaranteed():
    T = get_table("S3")
    full = rep_from_selector(T, "all")
    rep = three_factor_cover(T, full, full, full)
    assert rep["guaranteed"] and rep["covered"]


@pytest.mark.parametrize("name", ["S4", "A5", "aff7", "D5"])
def test_guarantees_sound_on_random_supports(name):
    T = get_table(name)
    rng = np.random.default_rng(23)
    c = T.classes.min_nontrivial_size
    for _ in range(300):
        masks = rng.random((3, T.num_irreps)) < rng.uniform(0.3, 1.0)
        reps = list(masks)
        if all(r.any() for r in reps[:2]):
            two = two_factor_cover(T, reps[0], reps[1])
            if two["guaranteed"]:
                assert two["covered"]
        if c >= 2 and all(r.any() for r in reps):
            three = three_factor_cover(T, *reps)
            if three["guaranteed"]:
                assert three["covered"]


def test_multiplicity_profile_regular_cube():
    for name in ["S3", "D4"]:
        T = get_table(name)
        full = rep_from_selector(T, "all")
        prof = multiplicity_profile(T, full, full, full)
        n = T.group.order
        assert prof["multiplicities"] == [n * n * int(d) for d in T.dims]
        assert prof["max_deviation"] == pytest.approx(0.0, abs=1e-9)


def test_multiplicity_profile_deviation_bounded():
    T = get_table("aff5")
    rho = _rep(T, [4])
    prof = multiplicity_profile(T, rho, rho, rho)
    for dev, bound in zip(prof["deviations"], prof["deviation_bounds"]):
        assert dev <= bound + 1e-9


def test_multiplicity_profile_zero_rep():
    T = get_table("S3")
    z = np.zeros(3, dtype=bool)
    prof = multiplicity_profile(T, z, z, z)
    assert prof["multiplicities"] == [0, 0, 0]
    assert prof["deviations"] is None


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "A5", "aff5", "aff11"])
def test_hoelder_chain(name):
    T = get_table(name)
    c = T.classes.min_nontrivial_size
    assert c >= 2
    rng = np.random.default_rng(29)
    for _ in range(50):
        masks = rng.random((3, T.num_irreps)) < 0.6
        if not all(m.any() for m in masks):
            continue
        fs = [oracle.reduced_character(T, m) for m in masks]
        f0s = [oracle.split_off_identity(f)[1] for f in fs]
        lhs = oracle.lp_norm(T.classes, f0s[0] * f0s[1] * f0s[2], 1)
        mid = (oracle.lp_norm(T.classes, f0s[0], 2) * oracle.lp_norm(T.classes, f0s[1], 2)
               * oracle.lp_norm(T.classes, f0s[2], math.inf))
        assert lhs <= mid + 1e-8
        assert mid <= c ** -0.5 + 1e-8


# ---------------------------------------------------------------------------
# TQR criteria


def test_a_report_holds_exactly_when_it_has_no_witness():
    params = CriteriaParams(k=2)
    assert CriterionReport("tqr1", params).holds is True
    failed = CriterionReport("tqr1", params, witness={"class_index": 1})
    assert failed.holds is False
    doc = failed.to_json_dict()
    assert list(doc) == ["criterion", "holds", "mode", "parameters", "witness", "details",
                         "error"]
    assert (doc["holds"], doc["parameters"], doc["error"]) == (False, params.to_json_dict(), None)
    # the echo cannot change once the report is built
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.k = 5


def test_core_types_take_only_what_they_cannot_compute():
    def init(cls):
        return [f.name for f in dataclasses.fields(cls) if f.init]

    assert init(GroupTable) == ["mul", "labels", "generators"]
    assert init(ClassData) == ["sizes", "class_of", "representatives"]
    assert init(CharTable) == ["group", "values", "quality", "source"]
    assert init(CriterionReport) == ["criterion", "params", "witness", "mode", "details"]


def test_tqr_q8():
    T = get_table("Q8")
    reports = {r.criterion: r for r in check_tqr(T)}
    r1 = reports["tqr1"]
    assert r1.holds is False
    assert r1.witness["class_size"] == 1
    assert r1.witness["labels"] == ["-1"]
    r4 = reports["tqr4"]
    assert r4.holds is False
    assert r4.witness is not None
    # Q8 violates both clauses: its center is a small normal subgroup and the
    # whole group is a bounded-index normal subgroup with nontrivial center
    assert r4.witness["kind"] in ("small_normal_subgroup",
                                  "small_index_with_center")


def test_tqr_a5_all_hold_at_density_point2():
    T = get_table("A5")
    params = CriteriaParams(k=5, density=0.2, power=3)
    reports = check_tqr(T, params)
    assert all(r.holds for r in reports)


def test_tqr2_a5_fails_at_density_point1_with_verified_witness():
    # the two 3-dim irreducibles: 3 (x) 3 (x) 3' misses the trivial rep even
    # though each factor has Plancherel measure 0.15
    G, C, T = get_group("A5"), get_classes("A5"), get_table("A5")
    params = CriteriaParams(k=5, density=0.1, power=3)
    reports = {r.criterion: r for r in check_tqr(T, params)}
    assert reports["tqr1"].holds and reports["tqr3"].holds and reports["tqr4"].holds
    r2 = reports["tqr2"]
    assert r2.holds is False
    sup1, sup2, sup3 = r2.witness["supports"]
    f = (T.values[sup1].sum(axis=0) * T.values[sup2].sum(axis=0)
         * T.values[sup3].sum(axis=0))
    mult = decompose(T, f)
    for missing in r2.witness["missing"]:
        assert mult[missing] == 0


def test_tqr1_affine7_threshold():
    C, T = get_classes("aff7"), get_table("aff7")
    assert C.min_nontrivial_size == 6
    below = check_tqr(T, CriteriaParams(k=5))[0]
    assert below.holds
    at = check_tqr(T, CriteriaParams(k=6))[0]
    assert at.holds is False


def test_tqr3_affine5_witness():
    T = get_table("aff5")
    reports = {r.criterion: r for r in check_tqr(T)}
    r3 = reports["tqr3"]
    assert r3.holds is False
    # 1-dim characters multiply among themselves: power support stays small
    assert r3.witness["power_measure"] <= 0.5
    assert 4 not in r3.witness["power_support"]


def test_tqr_trivial_group():
    G = build_group({"family": "cyclic", "params": {"n": 1}})
    C = conjugacy_classes(G)
    from tqrgroups import compute_char_table
    T = compute_char_table(G, C)
    reports = check_tqr(T)
    assert reports[0].holds  # no nontrivial classes at all


# ---------------------------------------------------------------------------
# QR criteria


def test_qr_affine5():
    T = get_table("aff5")
    reports = {r.criterion: r for r in check_qr(T)}
    r4 = reports["qr4"]
    assert r4.holds is False
    assert r4.witness["kind"] == "abelian_quotient"
    assert r4.witness["quotient_order"] == 4     # the multiplicative group F5*
    assert r4.witness["kernel_order"] == 5       # the translations
    assert reports["qr1"].holds is False         # 1-dim nontrivial irreps


@pytest.mark.parametrize("spec, reads", [
    ({"family": "extraspecial", "params": {"p": 7}}, False),
    ({"family": "product", "params": {"left": {"family": "alternating", "params": {"n": 5}},
                                      "right": {"family": "symmetric", "params": {"n": 3}}}},
     False),
    ({"family": "alternating", "params": {"n": 5}}, True)], ids=["ES7", "A5xS3", "A5"])
def test_qr4_reads_the_normal_subgroup_lattice_only_for_a_perfect_group(spec, reads):
    # a proper derived subgroup is the witness, so only a perfect G scans
    # the lattice for a small quotient; each table is fresh
    T = compute_char_table(build_group(spec))
    check_qr(T, CriteriaParams(), ["qr4"])
    assert ("normal_subgroups" in T.__dict__) is reads


def test_qr1_a5_threshold():
    T = get_table("A5")
    low = check_qr(T, CriteriaParams(k=2))[0]
    assert low.holds and low.details["min_nontrivial_dim"] == 3
    high = check_qr(T, CriteriaParams(k=3))[0]
    assert high.holds is False


def test_qr1_cyclic_fails():
    T = get_table("C6")
    assert check_qr(T)[0].holds is False


# PSL(2,7) on the projective line over F_7 (point 7 is infinity), generated
# by x -> x + 1 and x -> -1/x
PSL27 = {"type": "permutation", "degree": 8,
         "generators": [[1, 2, 3, 4, 5, 6, 0, 7], [7, 6, 3, 2, 5, 4, 1, 0]]}
_DECIDED_BY = {"full_density", "gowers_bound", "pigeonhole", "power_one",
               "normal_subgroup", "linear_character", "normaliser"}
_QR23 = ("qr2", "qr3")
_TQR_DECIDED_BY = {"quotient", "central_grading"}


@pytest.mark.parametrize("spec, density, power, names, holds, decided_by, product_size", [
    # 42^3 * 3 = 222,264 > 60^3 = 216,000
    (FIXTURE_SPECS["A5"], 0.7, 3, _QR23, True, "gowers_bound", None),
    (FIXTURE_SPECS["A5"], 0.7, 1, ("qr3",), False, "power_one", 42),
    # N(C3), the normaliser of a 3-cycle's centraliser, is S3, whose three
    # smallest members are C3, of ceil(0.05 * 60) = 3 elements
    (FIXTURE_SPECS["A5"], 0.05, 3, _QR23, False, "normaliser", 3),
    # A4 = N(V4), and 7:3 = N(C7) in PSL(2,7), are in no smaller rule
    (FIXTURE_SPECS["A5"], 0.2, 3, _QR23, False, "normaliser", 12),
    (PSL27, 0.1, 3, _QR23, False, "normaliser", 21),
    # the 12 smallest members of A5 form a subgroup A4
    (FIXTURE_SPECS["S5"], 0.1, 3, _QR23, False, "normal_subgroup", 12),
    # image order 11: the preimage of {1, zeta} has 242 >= 134 elements
    ({"family": "extraspecial", "params": {"p": 11}}, 0.1, 3, _QR23, False,
     "linear_character", 484),
    # 2 * 33 > 60, though 33^3 * 3 < 60^3: AA = G by pigeonhole
    (FIXTURE_SPECS["A5"], 0.55, 2, _QR23, True, "pigeonhole", None),
])
def test_qr23_exact_verdicts(spec, density, power, names, holds, decided_by,
                             product_size):
    G, _, T = get_table_for_spec(json.dumps(spec))
    params = CriteriaParams(density=density, power=power)
    size = criteria._density_floor(G.order, params.density_frac())
    for rep in check_qr(T, params, names=names):
        assert (rep.holds, rep.mode) == (holds, "exact")
        assert rep.details == {"subset_size": size, "decided_by": decided_by}
        if product_size is not None:
            assert rep.witness["product_size"] == product_size
            subsets = rep.witness["subsets"]
            assert subsets == [subsets[0]] * (3 if rep.criterion == "qr2" else 1)


@pytest.mark.parametrize("spec", [*FIXTURE_SPECS.values(),
                                  {"family": "alternating", "params": {"n": 6}},
                                  {"family": "symmetric", "params": {"n": 6}}, PSL27],
                         ids=[*FIXTURE_SPECS, "A6", "S6", "PSL27"])
def test_normaliser_proposals_match_brute_force_oracle(spec):
    # one proposal per non-central class whose N_G(C_G(z)) is proper, in class order
    G, C, T = get_table_for_spec(json.dumps(spec))
    want = []
    for z in C.representatives[C.sizes > 1].tolist():
        N = oracle.brute_normaliser(G, [g for g in range(G.order)
                                        if oracle.conjugate(G, g, z) == z])
        if len(N) < G.order:
            want.append(N)
    got = [N.tolist() for rule, N in
           criteria._qr23_candidates(T, Fraction(1, G.order), 1, True, 3)
           if rule == "normaliser"]
    assert got == want


def test_qr23_sampling():
    # a singleton is the trivial subgroup, so every product has one element
    T = get_table("C12")
    params = CriteriaParams(density=1 / 12, trials=5, power=3)
    reports = {r.criterion: r for r in check_qr(T, params)}
    for name in ("qr2", "qr3"):
        assert (reports[name].holds, reports[name].mode) == (False, "exact")
        assert reports[name].details == {"subset_size": 1, "decided_by": "normal_subgroup"}
    assert reports["qr2"].witness == {"subsets": [[0], [0], [0]], "product_size": 1}
    assert reports["qr3"].witness == {"subsets": [[0]], "product_size": 1}
    # full-density subsets are G itself
    full = CriteriaParams(density=1.0, trials=3)
    reports = {r.criterion: r for r in check_qr(T, full)}
    for name in ("qr2", "qr3"):
        assert (reports[name].holds, reports[name].mode) == (True, "exact")
        assert reports[name].details == {"subset_size": 12, "decided_by": "full_density"}
    # A5 at 0.5: 30^3 * 3 < 60^3, and no proper subgroup holds 30 elements,
    # so only sampling is left, and a pass is evidence
    T = get_table("A5")
    reports = {r.criterion: r for r in check_qr(T, CriteriaParams(density=0.5, trials=5))}
    for name in ("qr2", "qr3"):
        assert reports[name].mode == "randomized" and reports[name].holds
        assert "evidence" in reports[name].details["note"]


@pytest.mark.parametrize("spec, density", [(FIXTURE_SPECS["A5"], 0.5), (PSL27, 0.2)])
def test_qr23_gap_reports_match_per_trial_oracle(spec, density):
    G, _, T = get_table_for_spec(json.dumps(spec))
    params = CriteriaParams(density=density, seed=7, trials=200)
    for rep in check_qr(T, params, names=_QR23):
        want = oracle.per_trial_qr23_report(G, params, rep.criterion == "qr2")
        assert json.dumps(rep.to_json_dict()) == json.dumps(want)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_qr23_exact_verdicts_match_brute_force_oracle(name):
    # the oracles try every subset (QR3, |G| <= 12) or pair of subsets
    # (QR2, |G| <= 8); every witness is rechecked on all groups
    G, T = get_group(name), get_table(name)
    for density, power in itertools.product((0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1.0),
                                            (1, 2, 3)):
        params = CriteriaParams(density=density, power=power, trials=1)
        size = criteria._density_floor(G.order, params.density_frac())
        for rep in check_qr(T, params, names=_QR23):
            if rep.mode != "exact":
                continue
            assert rep.details["decided_by"] in _DECIDED_BY
            triple = rep.criterion == "qr2"
            if rep.witness is not None:
                subsets = rep.witness["subsets"]
                assert len(subsets) == (3 if triple else 1)
                assert all(len(set(S)) == len(S) == size for S in subsets)
                product = oracle.product_set(G, subsets if triple else subsets * power)
                assert len(product) == rep.witness["product_size"] < G.order
            if triple and G.order <= 8:
                assert rep.holds is not oracle.brute_force_qr2_fails(G, size)
            if not triple and G.order <= 12:
                assert rep.holds is not oracle.brute_force_qr3_fails(G, size, power)


def _sampled(evaluate, T, params, *args) -> dict:
    """The report of criteria._tqr2, _tqr3 or _qr23 decided by the last stage
    of the decide path alone, the seeded sampler, so that no proof, complete
    search or table witness decides first."""
    decide = criteria._decide
    with pytest.MonkeyPatch.context() as m:
        m.setattr(criteria, "_decide", lambda check, stages: decide(check, stages[-1:]))
        return evaluate(T, params, *args).to_json_dict()


def _qr23_json(T, params, triple):
    return json.dumps(_sampled(criteria._qr23, T, params, triple))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_qr23_blocks_match_per_trial_oracle(name):
    # density 1 covers G with no product step; 20 trials span one block or, on
    # the larger groups at the higher densities, up to twenty
    G, T = get_group(name), get_table(name)
    for density, seed, power, trials in itertools.product(
            (0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1.0), (0, 1, 2), (1, 2, 3, 5), (1, 20)):
        params = CriteriaParams(density=density, seed=seed, power=power, trials=trials)
        for triple in (True, False):
            want = oracle.per_trial_qr23_report(G, params, triple)
            assert _qr23_json(T, params, triple) == json.dumps(want), (density, seed,
                                                                       power, trials, triple)


@pytest.mark.parametrize("name, density, seed, triple, first_miss", [
    ("aff11", 0.1, 10, False, 16),   # the second block, trials 13..25
    ("ES5", 0.1, 26, False, 30),     # the fourth block, trials 30..39
])
def test_qr23_witness_in_a_later_block(name, density, seed, triple, first_miss):
    G, T = get_group(name), get_table(name)
    params = CriteriaParams(density=density, seed=seed, trials=40)
    before = CriteriaParams(density=density, seed=seed, trials=first_miss)
    assert oracle.per_trial_qr23_report(G, before, triple)["holds"]
    want = oracle.per_trial_qr23_report(G, params, triple)
    assert want["holds"] is False
    assert _qr23_json(T, params, triple) == json.dumps(want)


def test_qr23_subset_size_is_exact():
    # 0.14 * 50 is 7.000000000000001 in floats; the first power is the set
    G, _, T = get_table_for_spec(json.dumps({"family": "dihedral", "params": {"n": 25}}))
    params = CriteriaParams(density=0.14, power=1, trials=1)
    rep = _sampled(criteria._qr23, T, params, False)
    assert rep["details"]["subset_size"] == 7
    assert len(rep["witness"]["subsets"][0]) == 7
    assert _qr23_json(T, params, False) == json.dumps(
        oracle.per_trial_qr23_report(G, params, False))


@pytest.mark.parametrize("name, density, seed", [
    ("Q8", 0.1, 0),      # a singleton: every power has one element
    ("A5", 0.02, 0),     # stalls at 12 elements
    ("S4", 0.05, 2),     # stalls at 4 elements
    ("S5", 0.02, 1),     # stalls at 20 elements
    ("S5", 0.02, 3),     # alternates between A5 and its coset, 60 each
    ("A5", 0.2, 0),      # every power covers A5
])
def test_qr3_stall_rule_answers_a_huge_power(name, density, seed):
    # 10**19 is past the C ssize_t range
    G, T = get_group(name), get_table(name)
    at_order = CriteriaParams(density=density, seed=seed, power=G.order, trials=5)
    want = oracle.per_trial_qr23_report(G, at_order, False)
    for power in (10 ** 9, 10 ** 19):
        huge = CriteriaParams(density=density, seed=seed, power=power, trials=5)
        rep = _sampled(criteria._qr23, T, huge, False)
        assert (rep["holds"], rep["witness"], rep["details"]) == (
            want["holds"], want["witness"], want["details"]), power


def test_qr_a5_no_abelian_quotient():
    T = get_table("A5")
    reports = {r.criterion: r for r in check_qr(T)}
    assert reports["qr4"].holds


# ---------------------------------------------------------------------------
# structural consequences used by the theory


@pytest.mark.parametrize("name", ["S3", "S4", "S5", "A4", "A5", "aff5", "aff7"])
def test_small_class_gives_conjugation_homomorphism(name):
    # center-free group with a class of size s > 1: conjugation on that class
    # is a nontrivial homomorphism to S_s whose kernel is normal of index <= s!
    G, C = get_group(name), get_classes(name)
    from tqrgroups import center
    assert len(center(G)) == 1
    cid = 1 + int(np.argmin(C.sizes[1:]))
    s = int(C.sizes[cid])
    assert s > 1
    perms, kernel = conjugation_action_on_class(G, C, cid)
    rng = np.random.default_rng(7)
    for _ in range(100):
        g, h = int(rng.integers(G.order)), int(rng.integers(G.order))
        gh = int(G.mul[g, h])
        composed = tuple(perms[g][perms[h][i]] for i in range(s))
        assert perms[gh] == composed
    # quotient refuses a kernel that is not normal
    assert quotient(G, kernel).order == G.order // len(kernel) <= math.factorial(s)
    idn = tuple(range(s))
    assert any(p != idn for p in perms)


@pytest.mark.parametrize("p", [5, 7, 11])
def test_affine_family_structure(p):
    spec = {"family": "affine", "params": {"p": p}}
    G = build_group(spec)
    C = conjugacy_classes(G)
    assert C.min_nontrivial_size == p - 1
    # every nontrivial proper quotient is abelian
    from tqrgroups import compute_char_table, normal_subgroups
    for N in normal_subgroups(compute_char_table(G, C)):
        if 1 < len(N) < G.order:
            assert quotient(G, N).is_abelian()
    # every nontrivial subgroup has a nontrivial abelian quotient: its image
    # under the linear-part projection is nontrivial, or it is abelian already
    if p <= 7:
        for H in oracle.brute_all_subgroups(G, max_order=G.order):
            if len(H) == 1:
                continue
            linear_parts = {h // p for h in H}
            block = G.mul[np.ix_(sorted(H), sorted(H))]
            is_abelian = np.array_equal(block, block.T)
            assert len(linear_parts) > 1 or is_abelian


# ---------------------------------------------------------------------------
# minimal supports


def _densities(n):
    """Exact measure boundaries k/n, the floats just either side of them as
    the CLI reads them, and short decimals."""
    k = st.integers(1, n)
    return st.one_of(
        k.map(lambda k: Fraction(k, n)),
        st.tuples(k, st.sampled_from([-1e-13, 1e-13])).map(
            lambda t: Fraction(str(t[0] / n + t[1]))),
        st.integers(1, 1000).map(lambda v: Fraction(v, 1000)))


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIXTURE_SPECS) if get_table(n).num_irreps <= 14])
@settings(deadline=None)  # the first example fills the oracle's mask sums
@given(data=st.data())
def test_minimal_supports_match_brute_force_oracle(name, data):
    T = get_table(name)
    dens = data.draw(_densities(T.group.order))
    rows = _minimal_supports(T, dens)
    assert [row_mask(row) for row in rows] == oracle.brute_force_minimal_supports(T, dens)


def test_minimal_supports_are_exact_just_above_a_measure_boundary():
    # On D30 (|G| = 60) a linear character weighs 1/60 and a 2-dim one 4/60.
    # Just above 6/60 the minimal supports are {2, 2} (91 of them) and
    # {2, 1, 1, 1} (56): dropping a linear character from the latter leaves
    # exactly 6/60, below the density by less than 1e-12.
    spec = {"family": "dihedral", "params": {"n": 30}}
    _, _, T = get_table_for_spec(json.dumps(spec))
    dens = Fraction("0.1000000000001")
    found = _minimal_supports(T, dens)
    assert len(found) == 147
    assert [row_mask(row) for row in found] == oracle.brute_force_minimal_supports(T, dens)


def test_minimal_supports_past_bit_63_are_every_68_of_70_in_mask_order():
    # cyclic:70 at 0.97 needs 68 of its 70 linear characters, so the minimal
    # supports are the C(70, 68) subsets of size 68, and most of their masks
    # set bits above 63; r is above the default cap, so the search is called
    # directly
    T = compute_char_table(build_group({"family": "cyclic", "params": {"n": 70}}))
    rows = _minimal_supports(T, Fraction("0.97"))
    want = sorted(sum(1 << i for i in c) for c in itertools.combinations(range(70), 68))
    assert len(want) == math.comb(70, 68) == 2415
    assert rows.shape == (2415, 70)
    assert [row_mask(row) for row in rows] == want


@pytest.mark.parametrize("name, density", [
    ("A5", 0.1), ("A5", 0.3), ("S4", 0.4), ("S5", 0.3), ("C6", 0.4),
    ("C2xS3", 0.4), ("C2xS3", 0.5), ("D8", 0.4), ("D8", 0.5)])
def test_tqr2_exhaustive_search_matches_triple_oracle(name, density):
    # below the cap no random phase runs, so the count and the witness are
    # the exhaustive search's own; the witnesses here sit at every position
    # of a pair's row
    T = get_table(name)
    params = CriteriaParams(density=density)
    rep, = check_tqr(T, params, names=("tqr2",))
    minimal = oracle.brute_force_minimal_supports(T, params.density_frac())
    checked, triple, prod = oracle.brute_force_tqr2_search(T, minimal)
    assert rep.details["triples_checked"] == checked
    if triple is None:
        assert rep.holds and rep.witness is None
    else:
        bits = [[i for i in range(T.num_irreps) if m >> i & 1]
                for m in (*triple, ~prod)]
        assert rep.witness["supports"] == bits[:3]
        assert rep.witness["missing"] == bits[3]


@pytest.mark.parametrize("field, value, least", [
    ("power", 0, 1), ("trials", 0, 1), ("trials", -5, 1), ("seed", -1, 0),
    ("seed", -1500, 0), ("k", -1, 0)])
def test_criteria_params_refuse_counts_below_their_floor(field, value, least):
    with pytest.raises(ValueError, match=f"^{field} must be >= {least}, got {value}$"):
        CriteriaParams(**{field: value})
    CriteriaParams(**{field: least})  # the floor itself is legal


@pytest.mark.parametrize("check, name", [(check_tqr, "tqr9"), (check_qr, "qr9")])
def test_unknown_criteria_are_refused(check, name):
    with pytest.raises(ValueError, match=rf"^unknown criteria \['{name}'\]$"):
        check(get_table("S3"), names=[name])


def test_criteria_params_refuse_a_seed_whose_streams_pass_2_to_the_64():
    # QR3 draws from stream seed + 5001, the largest offset; it must stay
    # below 2^64, or a large seed would wrap onto a small seed's streams
    top = 2 ** 64 - 5001
    for seed in (top, 2 ** 64, 2 ** 70):
        with pytest.raises(ValueError, match=f"^seed must be < {top}, got {seed}$"):
            CriteriaParams(seed=seed)
    CriteriaParams(seed=top - 1)  # the last legal seed


def test_criteria_params_echo_each_threshold_by_name():
    # one k stands for the five small-structure thresholds, and the TQR3
    # cutoff and the TQR2/TQR3 draws are fixed; reports still echo all twelve
    assert [f.name for f in dataclasses.fields(CriteriaParams)] == [
        "k", "density", "power", "seed", "trials"]
    assert list(CriteriaParams(k=6, density=0.25, seed=9).to_json_dict().items()) == [
        ("class_threshold", 6), ("dim_threshold", 6), ("density", 0.25), ("power", 3),
        ("power_measure_threshold", 0.5), ("normal_size", 6), ("normal_index", 6),
        ("quotient_size", 6), ("seed", 9), ("trials", 1000), ("support_trials", 200),
        ("exhaustive_cap", 20)]


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIXTURE_SPECS) if get_table(n).num_irreps <= 12])
@settings(deadline=None, max_examples=15,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_tqr2_pair_search_matches_triple_oracle_on_random_densities(name, data):
    # the whole report of the exhaustive search, count and witness, against
    # the oracle's walk over every ordered triple of minimal supports
    T = get_table(name)
    dens = data.draw(_densities(T.group.order).filter(lambda d: d <= 1))
    params = CriteriaParams(density=float(dens))
    minimal = oracle.brute_force_minimal_supports(T, params.density_frac())
    assume(len(minimal) <= 40)  # the oracle walks up to len(minimal)**3 triples
    rep, = check_tqr(T, params, names=("tqr2",))
    checked, triple, prod = oracle.brute_force_tqr2_search(T, minimal)
    witness = None
    if triple is not None:
        bits = [[i for i in range(T.num_irreps) if m >> i & 1]
                for m in (*triple, ~prod)]
        witness = {"supports": bits[:3],
                   "measures": [float(oracle.fraction_sum_measure(T, m)) for m in triple],
                   "missing": bits[3]}
    assert rep.to_json_dict() == {
        "criterion": "tqr2", "holds": triple is None,
        "mode": "exhaustive-minimal+randomized", "parameters": params.to_json_dict(),
        "witness": witness, "details": {"triples_checked": checked}, "error": None}


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIXTURE_SPECS) if get_table(n).num_irreps <= 12])
@pytest.mark.parametrize("power", [1, 2, 3, 4])
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_tqr3_exhaustive_search_matches_power_oracle(name, power, data):
    # the whole report of the exhaustive phase, count and witness, against
    # the oracle's walk over the minimal supports in order
    T = get_table(name)
    dens = data.draw(_densities(T.group.order).filter(lambda d: d <= 1))
    params = CriteriaParams(density=float(dens), power=power)
    minimal = oracle.brute_force_minimal_supports(T, params.density_frac())
    rep, = check_tqr(T, params, names=("tqr3",))
    checked, support, pw = oracle.brute_force_tqr3_search(
        T, minimal, power, oracle.POWER_MEASURE_THRESHOLD)
    witness = None
    if support is not None:
        witness = {"support": [i for i in range(T.num_irreps) if support >> i & 1],
                   "measure": float(oracle.fraction_sum_measure(T, support)),
                   "power_support": [i for i in range(T.num_irreps) if pw >> i & 1],
                   "power_measure": float(oracle.fraction_sum_measure(T, pw))}
    assert json.dumps(rep.to_json_dict()) == json.dumps({
        "criterion": "tqr3", "holds": support is None,
        "mode": "exhaustive-minimal+randomized", "parameters": params.to_json_dict(),
        "witness": witness, "details": {"supports_checked": checked}, "error": None})


@pytest.mark.parametrize("name", ["S4", "A5", "D8", "C12", "ES3", "aff7", "aff13",
                                  "C2xS4", "C3xD4", "ES5"])
@pytest.mark.parametrize("density", [0.1, 0.3, 0.6, 0.9])
@pytest.mark.parametrize("criterion", ["tqr2", "tqr3"])
def test_random_phase_matches_scalar_oracle(name, density, criterion, monkeypatch):
    # block-drawn supports and one stacked decompose give the report of the
    # scalar loop, draw for draw; seed 0 and 5 at every density, seed 1 at two.
    # Above the cap check_tqr samples only where no table witness refutes,
    # and then its report is the sampler's.
    T = get_table(name)
    evaluate = criteria._tqr2 if criterion == "tqr2" else criteria._tqr3
    monkeypatch.setattr(config, "EXHAUSTIVE_CAP", 0)
    for seed in (0, 5) if density in (0.3, 0.9) else (0, 1, 5):
        params = CriteriaParams(density=density, seed=seed)
        want = json.dumps(oracle.scalar_random_tqr_report(T, params, criterion))
        assert json.dumps(_sampled(evaluate, T, params)) == want
        rep, = check_tqr(T, params, names=(criterion,))
        if rep.mode == "exact":
            assert rep.holds is False and rep.details["decided_by"] in _TQR_DECIDED_BY
        else:
            assert json.dumps(rep.to_json_dict()) == want


def test_random_support_rows_continue_one_sequence(monkeypatch):
    # orders drawn one small stack at a time continue one sequence: the
    # sampled reports, refutations and passes, are those of large chunks
    cases = [(criteria._tqr2, "A5", 0.9, ()), (criteria._tqr3, "C12", 0.1, ()),
             (criteria._tqr2, "ES3", 0.1, ()), (criteria._qr23, "S4", 0.3, (True,)),
             (criteria._qr23, "A4", 0.3, (False,))]
    want = [_sampled(evaluate, get_table(name), CriteriaParams(density=density, seed=4), *args)
            for evaluate, name, density, args in cases]
    assert {rep["holds"] for rep in want} == {True, False}
    monkeypatch.setattr(groups, "_SLAB_CELLS", 7)
    monkeypatch.setattr(criteria, "_KEY_CELLS", 7)
    monkeypatch.setattr(criteria, "_STACK_ROWS", 3)
    monkeypatch.setattr(criteria, "_QR_BLOCK_ENTRIES", 1)
    assert [_sampled(evaluate, get_table(name), CriteriaParams(density=density, seed=4), *args)
            for evaluate, name, density, args in cases] == want


def test_sampler_keys_are_splitmix64_outputs():
    # the first three outputs of SplitMix64 seeded with 0, as published with
    # the reference implementation, and the oracle's Python-int keys at the
    # top of the seed range, where seed + (i + 1) * gamma wraps mod 2^64
    assert criteria._keys(0, 0, 3).tolist() == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
    seed = 2 ** 64 - 1
    assert criteria._keys(seed, 5, 9).tolist() == [
        oracle.splitmix64_key(seed, i) for i in range(5, 9)]


def test_random_stacks_match_the_scalar_oracle_at_any_block(monkeypatch):
    # every set is a pure function of (seed, row): blocks of 1, 7 and
    # _STACK_ROWS draws, and slabs of one stack, of 100 cells and of
    # _KEY_CELLS, give the oracle's sets, row t of the stream holding draw
    # t // width, set t % width
    rng = np.random.default_rng(43)
    layouts = list(itertools.product((1, 7, criteria._STACK_ROWS),
                                     (1, 100, criteria._KEY_CELLS)))
    for case in range(60):
        items, count, width = (int(x) for x in rng.integers(1, (41, 31, 4)))
        # every third case weighs its items alike, as QR2/QR3 do
        weight = rng.integers(1, 30, 1 if case % 3 == 0 else items).repeat(
            items if case % 3 == 0 else 1)
        need = int(rng.integers(1, weight.sum() + 1))
        seed = int(rng.integers(0, 2 ** 63)) * 2 + case % 2
        want = [oracle.scalar_prefix_draw(seed, t, weight.tolist(), need)
                for t in range(width * count)]
        for block, slab in layouts:
            monkeypatch.setattr(criteria, "_KEY_CELLS", slab)
            stacks = [stack for _, stack in criteria._random_stacks(
                seed, weight, need, count, width, block)]
            assert all(stack.shape[1:] == (width, items) and len(stack) <= block
                       for stack in stacks)
            got = [np.flatnonzero(row).tolist()
                   for row in np.concatenate(stacks).reshape(-1, items)]
            assert got == want, (case, block, slab)


@pytest.mark.parametrize("spec, criterion, density", [
    ({"family": "dihedral", "params": {"n": 40}}, "tqr2", 0.1),
    ({"family": "cyclic", "params": {"n": 24}}, "tqr2", 0.1),
    ({"family": "extraspecial", "params": {"p": 5}}, "tqr3", 0.2),
    ({"family": "cyclic", "params": {"n": 30}}, "tqr3", 0.05),
])
def test_the_sampler_alone_refutes_at_the_density_floor(spec, criterion, density):
    # each has more irreducibles than the cap; a support cut at the floor,
    # not one of measure about 1/2, finds the refutation within 200 draws
    _, _, T = get_table_for_spec(json.dumps(spec))
    assert T.num_irreps > config.EXHAUSTIVE_CAP
    evaluate = criteria._tqr2 if criterion == "tqr2" else criteria._tqr3
    for seed in range(5):
        rep = _sampled(evaluate, T, CriteriaParams(density=density, seed=seed))
        assert (rep["holds"], rep["mode"]) == (False, "randomized"), seed


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_random_supports_lie_within_one_irreducible_of_the_floor(name):
    # every drawn support reaches the floor, and dropping its heaviest
    # member falls below it
    T = get_table(name)
    sq = T.dims.astype(np.int64) ** 2
    for seed, density in enumerate((0.05, 0.1, 0.3, 0.6, 1.0)):
        need = criteria._density_floor(T.group.order, Fraction(str(density)))
        draws = [stack for _, stack in criteria._random_stacks(seed, sq, need, 50, 3, 16)]
        assert [len(stack) for stack in draws] == [16, 16, 16, 2]
        rows = np.concatenate(draws).reshape(-1, T.num_irreps)
        weight = rows @ sq
        assert (weight >= need).all()
        assert (weight - np.where(rows, sq, 0).max(axis=1) < need).all()


_ROADMAP_WITNESSES = [
    ({"family": "dihedral", "params": {"n": 30}}, 0.1),
    ({"family": "product", "params": {"left": {"family": "symmetric", "params": {"n": 4}},
                                      "right": {"family": "symmetric", "params": {"n": 3}}}}, 0.1),
    ({"family": "product", "params": {"left": {"family": "alternating", "params": {"n": 5}},
                                      "right": {"family": "alternating", "params": {"n": 4}}}}, 0.1),
    ({"family": "dihedral", "params": {"n": 30}}, 0.3),
    ({"family": "dihedral", "params": {"n": 30}}, 0.4),
    ({"family": "dihedral", "params": {"n": 30}}, 0.5),
]


@pytest.mark.parametrize("spec, density", _ROADMAP_WITNESSES)
def test_tqr2_finds_witness_where_the_triple_cap_truncated(spec, density):
    # each of these has more than 125 minimal supports, so the old triple
    # cap skipped the exhaustive phase and 200 random triples said "holds";
    # D30 at 0.4 and 0.5 (23,595 minimal supports at 0.5) still said "holds"
    # after a walk over pairs stopped at a budget of 2M decomposed rows
    _, _, T = get_table_for_spec(json.dumps(spec))
    params = CriteriaParams(density=density)
    rep, = check_tqr(T, params, names=("tqr2",))
    assert rep.holds is False and rep.mode == "exhaustive-minimal+randomized"
    masks = [sum(1 << i for i in s) for s in rep.witness["supports"]]
    assert all(oracle.fraction_sum_measure(T, m) >= params.density_frac() for m in masks)
    assert rep.witness["measures"] == [float(oracle.fraction_sum_measure(T, m))
                                       for m in masks]
    prod = oracle.pairwise_tensor_support(
        T, oracle.pairwise_tensor_support(T, masks[0], masks[1]), masks[2])
    missing = [i for i in range(T.num_irreps) if not prod >> i & 1]
    assert missing and rep.witness["missing"] == missing


# (name, density) of every fixture group with r <= 20 at five densities; the
# oracle walks up to s(s+1)/2 pairs one at a time, so cases with more than
# 200 minimal supports are left to the regression tests below
_PAIR_WALK_CASES = [
    (name, density) for name in sorted(FIXTURE_SPECS) for density in (0.1, 0.3, 0.5, 0.7, 0.9)
    if get_table(name).num_irreps <= 20
    and len(_minimal_supports(get_table(name), Fraction(str(density)))) <= 200]


# the complete search below the cap draws nothing, so no seed changes a report
# beyond its parameters
@pytest.mark.parametrize("seed", [0, 200])
@pytest.mark.parametrize("name, density", _PAIR_WALK_CASES)
def test_tqr2_search_matches_pair_walk_oracle(name, density, seed):
    T = get_table(name)
    params = CriteriaParams(density=density, seed=seed)
    rep, = check_tqr(T, params, names=("tqr2",))
    assert json.dumps(rep.to_json_dict()) == json.dumps(oracle.pair_walk_tqr2_report(T, params))


@pytest.mark.parametrize("spec, density", [
    ({"family": "product", "params": {"left": {"family": "cyclic", "params": {"n": 3}},
                                      "right": {"family": "dihedral", "params": {"n": 4}}}}, 0.6),
    ({"family": "product", "params": {"left": {"family": "symmetric", "params": {"n": 4}},
                                      "right": {"family": "symmetric", "params": {"n": 3}}}}, 0.5)])
def test_tqr2_holds_after_every_triple_of_minimal_supports(spec, density):
    # a proof: every one of the s^3 triples, and no random ones after it
    _, _, T = get_table_for_spec(json.dumps(spec))
    params = CriteriaParams(density=density)
    s = len(_minimal_supports(T, params.density_frac()))
    rep, = check_tqr(T, params, names=("tqr2",))
    assert rep.holds and rep.mode == "exhaustive-minimal+randomized"
    assert rep.details["triples_checked"] == s ** 3


def test_support_search_past_one_word_of_irreducibles(monkeypatch):
    # cyclic:64 has r = 64 irreducibles, more than a 62-bit word holds; at
    # density 63/64 every minimal support drops exactly one irreducible
    T = get_table("C64")
    monkeypatch.setattr(config, "EXHAUSTIVE_CAP", 64)
    params = CriteriaParams(density=0.984375)
    rows = _minimal_supports(T, params.density_frac())
    assert rows.shape == (64, 64)
    for k, row in enumerate(rows):
        assert np.flatnonzero(~row).tolist() == [63 - k]
    tqr2, tqr3 = check_tqr(T, params, names=("tqr2", "tqr3"))
    assert tqr2.holds and tqr2.details["triples_checked"] == 262144
    assert tqr3.holds and tqr3.details["supports_checked"] == 64


def test_the_complete_search_cap_is_read_off_config(monkeypatch):
    # affine:23 has r = 23 > 20 irreducibles and, at density 0.2, one minimal
    # support (the 22-dimensional irreducible); with config.EXHAUSTIVE_CAP
    # raised to 23 both reports are its complete search, and echo the cap
    _, _, T = get_table_for_spec(json.dumps({"family": "affine", "params": {"p": 23}}))
    params = CriteriaParams(density=0.2)
    assert [rep.mode for rep in check_tqr(T, params, names=("tqr2", "tqr3"))] == [
        "randomized", "randomized"]
    monkeypatch.setattr(config, "EXHAUSTIVE_CAP", 23)
    tqr2, tqr3 = check_tqr(T, params, names=("tqr2", "tqr3"))
    for rep, key in ((tqr2, "triples_checked"), (tqr3, "supports_checked")):
        assert rep.holds and rep.mode == "exhaustive-minimal+randomized"
        assert rep.details == {key: 1}
        assert rep.to_json_dict()["parameters"]["exhaustive_cap"] == 23


@pytest.mark.parametrize(
    "name", [n for n in sorted(FIXTURE_SPECS) if get_table(n).num_irreps <= 20])
def test_minimal_supports_within_the_cap_obey_the_sperner_bound(name):
    # the minimal supports are an antichain, so at most C(r, r // 2) of them
    T = get_table(name)
    r = T.num_irreps
    cap = config.EXHAUSTIVE_CAP
    for density in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5):
        s = len(_minimal_supports(T, Fraction(str(density))))
        assert s <= math.comb(r, r // 2) <= math.comb(cap, cap // 2), density


# ---------------------------------------------------------------------------
# TQR2/TQR3 table witnesses above the exhaustive cap


def _assert_tqr_witness(T, rep):
    """Re-verify a tqr2 or tqr3 witness with the oracle's pairwise products
    and exact measures."""
    params = rep.params.to_json_dict()
    dens = Fraction(str(params["density"]))
    w = rep.witness
    if rep.criterion == "tqr2":
        masks = [sum(1 << i for i in S) for S in w["supports"]]
        assert all(oracle.fraction_sum_measure(T, m) >= dens for m in masks)
        assert w["measures"] == [float(oracle.fraction_sum_measure(T, m)) for m in masks]
        prod = oracle.pairwise_tensor_support(
            T, oracle.pairwise_tensor_support(T, masks[0], masks[1]), masks[2])
        missing = [i for i in range(T.num_irreps) if not prod >> i & 1]
        assert missing and w["missing"] == missing
    else:
        mask = sum(1 << i for i in w["support"])
        assert oracle.fraction_sum_measure(T, mask) >= dens
        pw = oracle.pairwise_power_support(T, mask, params["power"])
        assert w["power_support"] == [i for i in range(T.num_irreps) if pw >> i & 1]
        assert (oracle.fraction_sum_measure(T, pw)
                <= Fraction(params["power_measure_threshold"]))


_TQR_RULE_CASES = [("tqr2", 3), ("tqr3", 1), ("tqr3", 2), ("tqr3", 3)]


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_tqr_rule_refutations_match_exhaustive_search(name, monkeypatch):
    # with the cap at 0 every report above is a rule's or the sampler's; a
    # rule's refutation must re-verify and agree with the exhaustive search
    # with the cap lifted (r <= 20, every fixture group but C64 and ES5) and,
    # on abelian groups, with the Eliahou-Kervaire-Plagne minimum, which the
    # exhaustive search confirms on C6 and C12 (C64 is past its reach)
    T = get_table(name)
    r = T.num_irreps
    abelian = r == T.group.order
    for density in (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.5):
        for criterion, power in _TQR_RULE_CASES:
            params = CriteriaParams(density=density, power=power)
            monkeypatch.setattr(config, "EXHAUSTIVE_CAP", 0)
            rep, = check_tqr(T, params, names=(criterion,))
            exact = None
            if r <= 20:
                monkeypatch.setattr(config, "EXHAUSTIVE_CAP", r)
                full, = check_tqr(T, params, names=(criterion,))
                assert full.mode == "exhaustive-minimal+randomized"
                exact = not full.holds
            if abelian:
                ekp = oracle.ekp_tqr_fails(T, params, criterion)
                assert exact in (None, ekp), (density, criterion, power)
                exact = ekp
                # every failing case on an abelian group has a table witness
                assert rep.mode == "exact" or not exact, (density, criterion, power)
            if rep.mode != "exact":
                assert rep.mode == "randomized"
                continue
            assert rep.holds is False and exact in (None, True)
            assert rep.details["decided_by"] in _TQR_DECIDED_BY
            _assert_tqr_witness(T, rep)


_ES5 = {"family": "extraspecial", "params": {"p": 5}}


@pytest.mark.parametrize("spec, density, power, names, decided_by, measure", [
    # Irr(G/N) for the least normal N != 1, of measure exactly 1/|N|
    ({"family": "cyclic", "params": {"n": 40}}, 0.1, 3, ("tqr2", "tqr3"), "quotient",
     Fraction(1, 2)),
    ({"family": "dihedral", "params": {"n": 60}}, 0.5, 3, ("tqr2", "tqr3"), "quotient",
     Fraction(1, 2)),
    ({"family": "cyclic", "params": {"n": 120}}, 0.3, 3, ("tqr2", "tqr3"), "quotient",
     Fraction(1, 2)),
    (_ES5, 0.1, 3, ("tqr2", "tqr3"), "quotient", Fraction(1, 5)),
    # 38 * 5 > 125 rules out Irr(G/Z); for z of order 5, t = ceil(0.3 * 5) = 2
    # fibres of measure 1/5 take 3t - 2 = 4 < 5 values in a triple product
    (_ES5, 0.3, 3, ("tqr2",), "central_grading", Fraction(2, 5)),
    # at power 1 the two fibres are their own power: 2/5 <= 1/2
    (_ES5, 0.25, 1, ("tqr3",), "central_grading", Fraction(2, 5)),
    # one decompose of the cube of Irr(G/N) misses the integers here by a
    # residual of 2e-8; the support of the product is built pairwise
    ({"family": "dihedral", "params": {"n": 150}}, 0.3, 3, ("tqr2", "tqr3"), "quotient",
     Fraction(1, 2)),
])
def test_tqr_table_witnesses_above_the_cap(spec, density, power, names, decided_by,
                                           measure):
    _, _, T = get_table_for_spec(json.dumps(spec))
    assert T.num_irreps > config.EXHAUSTIVE_CAP
    params = CriteriaParams(density=density, power=power)
    for rep in check_tqr(T, params, names=names):
        key = "triples_checked" if rep.criterion == "tqr2" else "supports_checked"
        assert (rep.holds, rep.mode) == (False, "exact")
        assert rep.details == {key: 1, "decided_by": decided_by}
        supports = rep.witness["supports"] if rep.criterion == "tqr2" else [rep.witness["support"]]
        for S in supports:
            assert oracle.fraction_sum_measure(T, sum(1 << i for i in S)) == measure
        _assert_tqr_witness(T, rep)


def test_central_grading_takes_the_fibres_below_t():
    # ES5: the 25 linear characters are Irr(G/Z), the fibre of omega(z) = 1,
    # and each 5-dimensional irreducible is a fibre of its own; t = 2 fibres
    # are the linear characters and the 5-dimensional one with omega(z) = zeta
    _, _, T = get_table_for_spec(json.dumps(_ES5))
    rep, = check_tqr(T, CriteriaParams(density=0.3), names=("tqr2",))
    C = T.classes
    z = int(np.flatnonzero(C.sizes == 1)[1])
    omega = T.values[:, z] / T.dims
    zeta = np.exp(2j * np.pi / element_order(T.group, int(C.representatives[z])))
    want = np.flatnonzero(np.isclose(omega, 1) | np.isclose(omega, zeta)).tolist()
    assert len(want) == 26 and rep.witness["supports"] == [want] * 3


@pytest.mark.parametrize("criterion, density, measure, power_measure", [
    # Irr(G/Z) over a central z of order 7 leaves j = t - 1 = 2 grades, whose
    # cube reaches all 7; with M of order 49, j = ceil((3/10 - 1/49) * 7) = 2
    # grades and the 7 linear characters of G/M have measure 15/49 >= 3/10,
    # and their cube stays in 3j = 6 grades plus Irr(G/M): 43/49
    ("tqr2", 0.3, Fraction(15, 49), Fraction(43, 49)),
    # j = ceil((3/20 - 1/49) * 7) = 1: measure 8/49, cube 3/7 + 1/49 <= 1/2
    ("tqr3", 0.15, Fraction(8, 49), Fraction(22, 49)),
])
def test_central_grading_over_a_larger_normal_subgroup(criterion, density, measure,
                                                       power_measure):
    # extraspecial:7 passed both of these when sampled
    _, _, T = get_table_for_spec(json.dumps({"family": "extraspecial", "params": {"p": 7}}))
    params = CriteriaParams(density=density)
    rep, = check_tqr(T, params, names=(criterion,))
    key = "triples_checked" if criterion == "tqr2" else "supports_checked"
    assert (rep.holds, rep.mode) == (False, "exact")
    assert rep.details == {key: 1, "decided_by": "central_grading"}
    S = rep.witness["supports"][0] if criterion == "tqr2" else rep.witness["support"]
    mask = sum(1 << i for i in S)
    assert oracle.fraction_sum_measure(T, mask) == measure >= params.density_frac()
    cube = oracle.pairwise_power_support(T, mask, 3)
    assert oracle.fraction_sum_measure(T, cube) == power_measure
    bits = [i for i in range(T.num_irreps) if cube >> i & 1]
    if criterion == "tqr2":
        assert rep.witness["supports"] == [S] * 3
        assert rep.witness["missing"] == sorted(set(range(T.num_irreps)) - set(bits))
    else:
        assert rep.witness["power_support"] == bits
        assert power_measure <= oracle.POWER_MEASURE_THRESHOLD


@pytest.mark.parametrize("criterion, density", [("tqr3", 0.7), ("tqr3", 0.51), ("tqr2", 1.0)])
def test_no_table_witness_is_sought_where_none_can_pass(criterion, density, monkeypatch):
    # every table witness has a power bound of at least the density, so
    # above the threshold (TQR3) or at density 1 (TQR2) none can refute,
    # and neither the element orders nor the lattice are computed; each
    # table is fresh, with no lattice cached
    T, fresh, low = (compute_char_table(build_group({"family": "cyclic", "params": {"n": 120}}))
                     for _ in range(3))
    params = CriteriaParams(density=density)
    want, = check_tqr(T, params, names=(criterion,))

    def refused(*args):
        raise AssertionError("computed")

    monkeypatch.setattr(groups, "element_orders", refused)
    monkeypatch.setattr(groups, "normal_subgroups", refused)
    got, = check_tqr(fresh, params, names=(criterion,))
    assert got.to_json_dict() == want.to_json_dict()
    # at density 0.3 the quotient rule reads the lattice
    with pytest.raises(AssertionError, match="computed"):
        check_tqr(low, CriteriaParams(density=0.3), names=(criterion,))


def test_tqr2_reads_no_element_order_where_no_order_of_z_can_grade(monkeypatch):
    # on cyclic:600 at TQR2 density 0.6, no divisor q of |Z(G)| = 600 has
    # 3 (ceil(0.6 q) - 1) < q or 3 max(1, ceil(0.6 q - 1/2)) < q, so no
    # central grading is tried and no element order is found; the report
    # is the one that reads them
    T, fresh = (compute_char_table(build_group({"family": "cyclic", "params": {"n": 600}}))
                for _ in range(2))
    params = CriteriaParams(density=0.6)
    want, = check_tqr(T, params, names=("tqr2",))

    def refused(*args):
        raise AssertionError("element orders computed")

    monkeypatch.setattr(groups, "element_orders", refused)
    got, = check_tqr(fresh, params, names=("tqr2",))
    assert got.to_json_dict() == want.to_json_dict()
    assert (got.holds, got.mode, got.details) == (True, "randomized", {"triples_checked": 200})
    assert "class_orders" not in vars(fresh.group)


def test_central_columns_no_grading_can_use_form_no_omega():
    # TQR2 at 0.6 on C24 x C24: every central order q divides 24, and for
    # each 3 (ceil(0.6 q) - 1) >= q (no set over <z>) and
    # 3 max(1, ceil(0.6 q - 1/2)) >= q (no normal subgroup above <z> is
    # tried), so every column is dropped before the (r, |Z|) complex omega
    # (5.3 MB here) is formed; the element orders take a few hundred kB
    G = build_group({"family": "product", "params": {
        "left": {"family": "cyclic", "params": {"n": 24}},
        "right": {"family": "cyclic", "params": {"n": 24}}}})
    T = compute_char_table(G)
    tracemalloc.start()
    try:
        found = list(criteria._tqr_candidates(T, Fraction(3, 5), 3, lambda m: m < 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == []
    assert peak < T.num_irreps * (G.order - 1) * np.dtype(complex).itemsize / 8


def test_every_traced_name_exists():
    # bench/tracing.py wraps these by name and only notes a missing one, so
    # a rename would silently leave its layer at zero; the two misses are
    # stale targets: _closure moved to tests/oracle.py, and the abelian
    # structure of a centre is groups._invariant_factors
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [f"{mod}.{name}" for mod, names in tracing.TARGETS.items() for name in names
               if not hasattr(importlib.import_module(f"tqrgroups.{mod}"), name)]
    assert missing == ["groups._closure", "counterexample.abelian_structure"]
