import ast
import hashlib
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracle
from conftest import FIXTURE_SPECS, element_order, get_classes, get_group, get_table
from tqrgroups import (CharTable, CharTableError, GroupError, build_group, center,
                       center_free_quotient_chain, compute_char_table,
                       conjugacy_classes, derived_subgroup, normal_subgroups,
                       quotient, subgroup_from_members)
from tqrgroups import cli, config, groups
from tqrgroups.groups import center_of_subset


def test_family_orders():
    assert get_group("S3").order == 6
    assert get_group("Q8").order == 8
    assert build_group({"family": "affine", "params": {"p": 5}}).order == 20
    assert build_group({"family": "alternating", "params": {"n": 4}}).order == 12
    assert build_group({"family": "extraspecial", "params": {"p": 3}}).order == 27
    assert get_group("C2xS4").order == 48


def test_affine_elements_enumerate_all_pairs():
    G = build_group({"family": "affine", "params": {"p": 5}})
    assert G.order == 5 * 4
    assert G.labels[0] == "x->1x+0"
    assert G.identity == 0


def test_affine_requires_prime():
    with pytest.raises(GroupError):
        build_group({"family": "affine", "params": {"p": 6}})
    with pytest.raises(GroupError):
        build_group({"family": "extraspecial", "params": {"p": 4}})


def test_cayley_rejects_non_associative():
    table = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]  # broken on purpose
    with pytest.raises(GroupError):
        build_group({"type": "cayley", "table": table})


def test_cayley_accepts_klein_four():
    table = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]
    G = build_group({"type": "cayley", "table": table})
    assert G.order == 4 and G.is_abelian()


def test_permutation_closure_s3():
    G = build_group({"type": "permutation", "degree": 3,
                     "generators": [[1, 0, 2], [1, 2, 0]]})
    assert G.order == 6
    C = conjugacy_classes(G)
    assert C.sizes.tolist() == [1, 3, 2]


def test_permutation_closure_cap(monkeypatch):
    from tqrgroups import config
    monkeypatch.setattr(config, "MAX_ORDER", 10)
    with pytest.raises(GroupError, match="closure exceeds"):
        build_group({"type": "permutation", "degree": 4,
                     "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]})


def test_conjugacy_classes_s3():
    C = get_classes("S3")
    assert C.sizes.tolist() == [1, 3, 2]
    assert C.min_nontrivial_size == 2


def test_conjugacy_classes_q8():
    C = get_classes("Q8")
    assert C.sizes.tolist() == [1, 1, 2, 2, 2]
    assert C.min_nontrivial_size == 1


def test_conjugacy_classes_affine5():
    C = get_classes("aff5")
    assert C.sizes.tolist() == [1, 4, 5, 5, 5]
    assert C.min_nontrivial_size == 4


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_classes_match_brute_force(name):
    G = get_group(name)
    if G.order > 64:
        pytest.skip("brute oracle kept small")
    C = get_classes(name)
    expect = oracle.brute_conjugacy_classes(G)
    got = [c.tolist() for c in oracle.class_members(C)]
    assert got == expect


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_class_structure_invariants(name):
    G, C = get_group(name), get_classes(name)
    # partition, identity first, sizes divide |G|
    assert C.sizes.sum() == G.order
    assert np.flatnonzero(C.class_of == 0).tolist() == [G.identity]
    for s in C.sizes.tolist():
        assert G.order % s == 0
    # class_of consistent under conjugation on a seeded sample
    rng = np.random.default_rng(3)
    for _ in range(200):
        g = int(rng.integers(G.order))
        x = int(rng.integers(G.order))
        assert C.class_of[oracle.conjugate(G, g, x)] == C.class_of[x]


def _relabelled(G, seed):
    """G as cayley input under a seeded relabelling that puts its identity
    at the last index."""
    perm = np.random.default_rng(seed).permutation(G.order)   # old -> new index
    last = int(np.argmax(perm))
    perm[[G.identity, last]] = perm[[last, G.identity]]
    mul = np.empty_like(G.mul)
    mul[np.ix_(perm, perm)] = perm[G.mul]
    return build_group(_cayley(mul))


def _with_normal_quotients_and_subgroups(G):
    """G, then for each normal subgroup N its quotient G/N and N's subgroup table."""
    T = compute_char_table(G, conjugacy_classes(G))
    out = [G]
    for N in T.normal_subgroups:
        out += [quotient(G, N), oracle.subgroup_table(G, N)[0]]
    return out


def _family(name, **params):
    return {"family": name, "params": params}


_CLASS_CASES = {
    **{f"relabelled-{name}": (lambda name=name, seed=seed: _with_normal_quotients_and_subgroups(
        _relabelled(get_group(name), seed)))
       for seed, name in enumerate(["S4", "Q8", "aff7", "C3xD4", "ES3", "C12", "A5"])},
    **{f"normal-{name}": (lambda name=name: _with_normal_quotients_and_subgroups(
        build_group(FIXTURE_SPECS[name])))
       for name in ["S4", "D8", "ES5", "C2xS4", "aff13", "C64"]},
    "products": lambda: [build_group(FIXTURE_SPECS[name]) for name in
                         ["C2xS3", "C2xS4", "C3xD4"]] + [
        build_group(_family("product", left=_family("quaternion8"),
                            right=_family("affine", p=5))),
        build_group(_family("product", left=_cayley(_relabelled(get_group("D5"), 9).mul),
                            right=_family("dihedral", n=1)))],
    "large": lambda: [build_group(_family("cyclic", n=2000)),
                      build_group(_family("affine", p=97)),
                      build_group(_family("extraspecial", p=11))],
    "families": lambda: [build_group(spec) for spec in FIXTURE_SPECS.values()] + [
        build_group(_family(name, n=1)) for name in ("cyclic", "dihedral", "symmetric")],
    "permutation": lambda: [build_group({"type": "permutation", "degree": d, "generators": g})
                            for d, g in [(0, []), (3, [[1, 0, 2], [1, 2, 0]]),
                                         (8, [[1, 2, 3, 4, 5, 6, 0, 7],
                                              [7, 6, 3, 2, 5, 4, 1, 0]])]],
    "quotient-chains": lambda: [Q for name in ["Q8", "ES3", "C3xD4", "D8"]
                                for Q in center_free_quotient_chain(get_group(name))],
}


@pytest.mark.parametrize("case", sorted(_CLASS_CASES))
def test_classes_match_the_per_class_loop_field_for_field(case):
    # every way a table is built: family, product, cayley, permutation spec,
    # quotient, and a subgroup's cayley table; each holds its classes from
    # construction
    for G in _CLASS_CASES[case]():
        assert conjugacy_classes(G) is G.classes
        got, want = G.classes, oracle.per_class_conjugacy_classes(G)
        assert got.num_classes == want.num_classes
        orbits = oracle.per_class_orbits(G)
        assert len(orbits) == got.num_classes
        for a, b in zip(oracle.class_members(got), orbits):
            assert a.dtype == b.dtype and np.array_equal(a, b)
        for name in ("sizes", "class_of", "representatives"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        assert got.min_nontrivial_size == want.min_nontrivial_size
        assert np.flatnonzero(got.class_of == 0).tolist() == [G.identity]


def test_quotients_inherit_the_cosets_of_the_generators():
    # the set handed to G/N holds no identity, generates G/N and gives the
    # classes and center that a searched set gives; relabelled cayley input
    # puts the identity coset at another rank than 0
    groups_ = [build_group(spec) for spec in FIXTURE_SPECS.values()]
    groups_ += [_relabelled(get_group(name), seed) for seed, name in enumerate(["S4", "C3xD4"])]
    uncarried = []
    for G in groups_:
        T = compute_char_table(G, conjugacy_classes(G))
        for N in T.normal_subgroups:
            Q = quotient(G, N)
            if Q.generators is None:
                uncarried.append((repr(G), Q.order))
                continue
            assert Q.identity not in Q.generators
            assert oracle._closure(Q, Q.generators) == frozenset(range(Q.order))
            searched = groups.GroupTable(Q.mul)
            got, want = conjugacy_classes(Q), conjugacy_classes(searched)
            for name in ("sizes", "class_of", "representatives"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), name
            assert np.array_equal(center(Q), center(searched))
    # A4's two generators and those of ES3 fall into two distinct cosets of
    # a normal subgroup of index 3, more than floor(log2 3), and are handed
    # over all the same
    assert uncarried == []


def _count_searches(monkeypatch) -> list:
    """The Cayley tables (each a GroupTable's own mul) that search for a
    greedy generating set from now on, in order."""
    searched = []
    greedy = groups._greedy_generators

    def counted(mul, identity):
        searched.append(mul)
        return greedy(mul, identity)

    monkeypatch.setattr(groups, "_greedy_generators", counted)
    return searched


def test_no_quotient_chain_of_a_fixture_group_searches(monkeypatch):
    searched = _count_searches(monkeypatch)
    for spec in FIXTURE_SPECS.values():
        for Q in center_free_quotient_chain(build_group(spec)):
            conjugacy_classes(Q)
            Q.is_abelian()
    assert searched == []


def test_the_closure_search_runs_once_for_cayley_input_and_never_otherwise(
        monkeypatch, tmp_path, capsys):
    searched = _count_searches(monkeypatch)
    perm = tmp_path / "psl27.json"
    perm.write_text(json.dumps({"type": "permutation", "degree": 8, "generators": [
        [1, 2, 3, 4, 5, 6, 0, 7], [7, 6, 3, 2, 5, 4, 1, 0]]}))
    for text in ["cyclic:1", "cyclic:12", "dihedral:1", "dihedral:6", "symmetric:4",
                 "alternating:5", "quaternion8", "extraspecial:3", "affine:7",
                 "product(dihedral(4),cyclic(3))", f"@{perm}"]:
        # the quotient chain and the normal subgroups included
        assert cli.main(["group", "--group", text, "--normal-subgroups"]) == 0, text
    # a quotient table inherits the cosets of its parent's generators, so
    # the center-free quotients of dihedral:6, quaternion8, extraspecial:3
    # and D4 x C3 search no more than the groups themselves
    assert searched == []
    tables = _with_normal_quotients_and_subgroups(build_group(FIXTURE_SPECS["C2xS4"]))
    for G in tables:
        conjugacy_classes(G)
        center_free_quotient_chain(G)   # center and quotients
        G.is_abelian()
    # every subgroup table, a cayley table as the oracle builds it (each
    # even entry after the group), and no other, searches exactly once; the
    # quotients, and the quotients of their chains, carry a set
    assert {id(mul) for mul in searched} == {id(G.mul) for G in tables[2::2]}
    assert len({id(mul) for mul in searched}) == len(searched)
    searched.clear()
    cayley = tmp_path / "s4.json"
    cayley.write_text(json.dumps(_cayley(get_group("S4").mul)))
    assert cli.main(["group", "--group", f"@{cayley}", "--normal-subgroups"]) == 0
    assert [mul.shape[0] for mul in searched] == [24]   # the cayley table alone
    capsys.readouterr()


def _is_subgroup_array(members) -> bool:
    """Whether members is a subgroup as the package returns one: a
    read-only, ascending int64 array of element indices."""
    return (isinstance(members, np.ndarray) and members.dtype == np.int64
            and members.ndim == 1 and not members.flags.writeable
            and bool(np.all(members[1:] > members[:-1])))


def _is_normal(G, members) -> bool:
    """Whether quotient takes the members as a normal subgroup of G."""
    try:
        quotient(G, members)
    except GroupError as e:
        if str(e) != "quotient requires a normal subgroup":
            raise
        return False
    return True


def test_center_q8_s3_c7():
    assert len(center(get_group("Q8"))) == 2
    assert sorted(center(get_group("Q8")).tolist()) == [0, 1]  # 1 and -1
    assert len(center(get_group("S3"))) == 1
    C7 = build_group({"family": "cyclic", "params": {"n": 7}})
    assert len(center(C7)) == 7


def test_normal_subgroups_s3():
    G, subs = get_group("S3"), normal_subgroups(get_table("S3"))
    assert [len(s) for s in subs] == [1, 3, 6]
    a3 = subs[1]
    assert _is_normal(G, a3) and G.order // len(a3) == 2


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_normal_subgroups_are_read_only_ascending_int64_arrays(name):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    subs = T.normal_subgroups
    assert isinstance(subs, tuple) and all(map(_is_subgroup_array, subs))
    # the oracle's normal subgroups, in (order, members) order
    assert [s.tolist() for s in subs] == \
        [sorted(N) for N in oracle.closure_join_normal_subgroups(G, C)]


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_every_subgroup_the_package_returns_is_a_read_only_ascending_int64_array(name):
    G, T = get_group(name), get_table(name)
    assert _is_subgroup_array(center(G))
    assert all(map(_is_subgroup_array, groups.upper_central_series(G)))
    assert _is_subgroup_array(derived_subgroup(T))
    for N in T.normal_subgroups:
        # handed in reversed, as a list and as a tuple
        assert _is_subgroup_array(subgroup_from_members(G, N[::-1].tolist()))
        assert _is_subgroup_array(center_of_subset(G, tuple(N[::-1].tolist())))
    assert _is_subgroup_array(center_of_subset(G, [G.identity]))


def test_quotient_refuses_a_set_that_is_not_a_normal_subgroup():
    G = get_group("S3")
    # not a class union; empty; no identity; the transpositions, a class without it
    for members in ([0, 1], [], [1, 2, 3, 4, 5], [1, 2, 5]):
        with pytest.raises(GroupError, match="^quotient requires a normal subgroup$"):
            quotient(G, members)
    # S3's classes are [0 1 1 2 2 1]: the identity with the transpositions is
    # a class union holding the identity, and no subgroup, so its closure is
    # checked at the class representatives before the quotient table is built
    with pytest.raises(GroupError, match="^member set is not closed under multiplication$"):
        quotient(G, [0, 1, 2, 5])


def test_check_all_reads_the_lattice_once_per_table(monkeypatch):
    from tqrgroups.criteria import (QR_CRITERIA, TQR_CRITERIA, CriteriaParams,
                                    check_qr, check_tqr)
    calls = []

    def counted(T):
        calls.append(T)
        return normal_subgroups(T)

    monkeypatch.setattr(groups, "normal_subgroups", counted)
    G, C = get_group("S4"), get_classes("S4")
    T = CharTable(G, get_table("S4").values)
    params = CriteriaParams(density=0.2, trials=5)
    check_tqr(T, params, list(TQR_CRITERIA))
    check_qr(T, params, list(QR_CRITERIA))
    assert calls == [T]
    assert [N.tolist() for N in T.normal_subgroups] == \
        [N.tolist() for N in normal_subgroups(get_table("S4"))]
    assert isinstance(T.normal_subgroups, tuple)


def test_normal_subgroups_cyclic6():
    assert [len(s) for s in normal_subgroups(get_table("C6"))] == [1, 2, 3, 6]


def test_normal_subgroups_a5_simple():
    assert [len(s) for s in normal_subgroups(get_table("A5"))] == [1, 60]


@pytest.mark.parametrize("name", ["S3", "S4", "A4", "Q8", "D4", "C12", "C2xS3"])
def test_normal_subgroups_match_brute_force(name):
    G = get_group(name)
    got = {frozenset(s.tolist()) for s in normal_subgroups(get_table(name))}
    expect = set(oracle.brute_normal_subgroups(G))
    assert got == expect


@pytest.mark.parametrize("name", ["ES5", "aff11", "aff13", "S5", "A5", "C64",
                                  "C2xS4", "C3xD4"])
def test_character_kernels_match_closure_join_oracle(name):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    subs = normal_subgroups(T)
    assert [frozenset(s.tolist()) for s in subs] == \
        oracle.closure_join_normal_subgroups(G, C)
    assert all(_is_normal(G, s) for s in subs)
    assert frozenset(derived_subgroup(T).tolist()) == \
        oracle.closure_derived_subgroup(G, C)


@pytest.mark.parametrize("spec", ["cyclic:120", "extraspecial:7", "dihedral:300"])
def test_kernel_masks_equal_the_bit_sum_past_64_classes(spec):
    # the lattice closure packs each row into one int, and unpacks the bit
    # sums from their bytes: masks wider than a machine word
    T = compute_char_table(build_group(cli.parse_group_spec(spec)))
    inside = np.abs(T.values - T.dims[:, None]) <= config.TOL * T.dims[:, None]
    assert T.kernel_masks.dtype == bool and not T.kernel_masks.flags.writeable
    assert np.array_equal(T.kernel_masks, inside)
    bit_sums = [sum(1 << int(c) for c in np.flatnonzero(row)) for row in inside]
    assert max(bit_sums) < 1 << T.classes.num_classes
    assert np.array_equal(groups._unpack_masks(bit_sums, T.classes.num_classes), inside)


def test_uncertified_kernel_value_raises():
    T = get_table("S3")
    values = T.values.copy()
    # the sign character is -1 on the transpositions; 1 - 1e-4 is neither
    # within tolerance of chi(1) nor at least 1 - cos(2 pi / 2) below it
    assert values[1, 1].real == pytest.approx(-1.0)
    values[1, 1] = 1 - 1e-4
    nudged = CharTable(T.group, values)
    with pytest.raises(CharTableError, match="not certified"):
        normal_subgroups(nudged)
    with pytest.raises(CharTableError, match="not certified"):
        derived_subgroup(nudged)


@pytest.mark.parametrize("name", ["S3", "S4", "Q8", "D4", "A4"])
def test_normal_iff_class_union(name):
    G, C = get_group(name), get_classes(name)
    class_sets = [set(c.tolist()) for c in oracle.class_members(C)]
    for H in oracle.brute_all_subgroups(G):
        is_union = all(cs <= H or not (cs & H) for cs in class_sets)
        sub = subgroup_from_members(G, H)
        assert _is_normal(G, sub) == is_union


def test_quotient_orders_and_identity():
    G = get_group("S3")
    subs = normal_subgroups(get_table("S3"))
    for N in subs:
        Q = quotient(G, N)
        assert Q.order * len(N) == G.order
    trivial = subs[0]
    Q = quotient(G, trivial)
    assert np.array_equal(Q.mul, G.mul)


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_center_is_the_validated_union_of_singleton_classes(name):
    G, C = get_group(name), get_classes(name)
    members = [int(cls[0]) for cls in oracle.class_members(C) if len(cls) == 1]
    assert np.array_equal(center(G), subgroup_from_members(G, members))


def _class_union(C, mask):
    members = oracle.class_members(C)
    return np.concatenate([members[c] for c in range(C.num_classes) if mask >> c & 1])


def _witness_mismatches(G, C, masks):
    """The class masks (each holding the identity class) on which
    subgroup_from_members accepts or refuses differently from the all-pairs
    oracle, or center_of_subset differs from the oracle's centre."""
    bad = []
    for mask in masks:
        members = _class_union(C, mask)
        try:
            accepted = _is_normal(G, subgroup_from_members(G, members))
        except GroupError:
            accepted = False
        if (accepted != oracle.all_pairs_closed(G, members)
                or tuple(center_of_subset(G, members).tolist())
                != oracle.all_pairs_center(G, members)):
            bad.append(mask)
    return bad


def _every_union(C):
    return range(1, 1 << C.num_classes, 2)


def _lattice_and_random_unions(T, seed=0, draws=200):
    C, members = T.classes, oracle.class_members(T.classes)
    kernels = [sum(1 << c for c in range(C.num_classes)
                   if set(members[c].tolist()) <= set(N.tolist()))
               for N in normal_subgroups(T)]
    rng = np.random.default_rng(seed)
    drawn = rng.integers(0, 2, size=(draws, C.num_classes - 1))
    return kernels + [1 + 2 * int(sum(int(b) << i for i, b in enumerate(row)))
                      for row in drawn]


@pytest.mark.parametrize("name", sorted(n for n in FIXTURE_SPECS
                                        if get_classes(n).num_classes <= 13))
def test_every_class_union_is_checked_as_the_all_pairs_oracle_checks_it(name):
    # at the class representatives: x*hgh^-1 = h*(h^-1 x h)*g*h^-1
    G, C = get_group(name), get_classes(name)
    assert _witness_mismatches(G, C, _every_union(C)) == []


@pytest.mark.parametrize("name", ["ES3", "ES5", "C64", "C3xD4"])
def test_kernel_lattice_and_random_class_unions_match_the_all_pairs_oracle(name):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    assert _witness_mismatches(G, C, _lattice_and_random_unions(T)) == []


@pytest.mark.parametrize("name, classes, message", [
    ("S4", (0, 1), "not closed"),          # the identity and the transpositions
    ("S4", (1, 2), "contain the identity"),
    ("A5", (0, 1), "not closed"),
    ("D8", (0, 2, 3), "not closed")])
def test_a_class_union_that_is_no_subgroup_is_refused(name, classes, message):
    T = get_table(name)
    by_class = oracle.class_members(T.classes)
    members = np.concatenate([by_class[c] for c in classes])
    with pytest.raises(GroupError, match=message):
        subgroup_from_members(T.group, members)
    with pytest.raises(GroupError, match=message):
        groups._class_union(T.group, np.isin(np.arange(T.classes.num_classes), classes))


@pytest.mark.parametrize("name", ["S4", "D8", "aff7", "ES5", "C3xD4"])
def test_a_class_mask_is_checked_as_its_member_set_is(name):
    # _class_union reads the union off its class mask, with no member set's
    # witnesses: it accepts what the all-pairs oracle finds closed and
    # returns what subgroup_from_members returns
    G, C, T = get_group(name), get_classes(name), get_table(name)
    masks = (_every_union(C) if C.num_classes <= 13
             else _lattice_and_random_unions(T))
    for mask in masks:
        members = _class_union(C, mask)
        chosen = (mask >> np.arange(C.num_classes)) & 1 == 1
        if oracle.all_pairs_closed(G, members):
            assert np.array_equal(groups._class_union(G, chosen),
                                  subgroup_from_members(G, members))
        else:
            with pytest.raises(GroupError, match="not closed"):
                groups._class_union(G, chosen)


@pytest.mark.parametrize("name", ["S4", "A5", "aff11", "C3xD4"])
def test_a_helper_that_drops_a_representative_is_caught(name, monkeypatch):
    # the class of the largest representative stands on the identity,
    # which is always closed against and commutes with everything
    G, C, T = get_group(name), get_classes(name), get_table(name)
    witnesses = groups._witnesses

    def drop_one(G, members):
        arr, owner, union = witnesses(G, members)
        if union:
            owner = np.where(owner == owner.max(), G.identity, owner)
        return arr, owner, union

    monkeypatch.setattr(groups, "_witnesses", drop_one)
    masks = (_every_union(C) if C.num_classes <= 13
             else _lattice_and_random_unions(T))
    assert _witness_mismatches(G, C, masks) != []


def test_a_set_that_is_not_a_class_union_takes_the_all_pairs_path():
    G, C = get_group("S3"), get_classes("S3")
    assert G.labels[:3] == ["012", "021", "102"]  # the identity and two transpositions
    arr, owner, union = groups._witnesses(G, [0, 1])
    assert owner.tolist() == arr.tolist() == [0, 1] and not union
    H = subgroup_from_members(G, [0, 1])
    assert (H.tolist(), _is_normal(G, H), G.order // len(H)) == ([0, 1], False, 3)
    assert center_of_subset(G, [0, 1]).tolist() == [0, 1]
    assert tuple(center_of_subset(G, [0, 1, 2]).tolist()) == \
        oracle.all_pairs_center(G, [0, 1, 2]) == (0,)
    with pytest.raises(GroupError, match="not closed"):
        subgroup_from_members(G, [0, 1, 2])
    # a union of classes stands on its representatives
    arr, owner, union = groups._witnesses(G, range(6))
    assert sorted(set(owner.tolist())) == C.representatives.tolist() and union


@pytest.mark.parametrize("call", [
    lambda G, C: subgroup_from_members(G, [0, -1]),
    lambda G, C: subgroup_from_members(G, [0, 6]),
    lambda G, C: center_of_subset(G, (0, -1)),
    lambda G, C: center_of_subset(G, (0, 6)),
    lambda G, C: oracle.subgroup_table(G, [0, 3, -3]),
    lambda G, C: oracle.subgroup_table(G, [0, 6]),
    lambda G, C: groups._invariant_factors(G, groups._member_array(G, [0, -1])),
    lambda G, C: groups._invariant_factors(G, groups._member_array(G, [0, 6])),
], ids=["member-minus-one", "member-order", "center-minus-one", "center-order",
        "table-minus-three", "table-order", "abelian-minus-one", "abelian-order"])
def test_member_indices_outside_the_group_are_refused(call):
    # -1 used to wrap to element 5 of S3, and 6 raised a bare IndexError;
    # subgroup_table, now an oracle, wrapped -3 to element 3, and the invariant
    # factors of [0, -1], which the counterexample reads off a member set
    # checked by _member_array, were once a basis that does not enumerate it
    G, C = get_group("S3"), get_classes("S3")
    with pytest.raises(GroupError, match=r"0\.\.5"):
        call(G, C)


@pytest.mark.parametrize("members, message", [
    ([0, 3, 3], None),
    ([3, 0, 0, 3], None),
    ([], "must contain the identity"),
    ([3], "not closed"),
], ids=["repeated-member", "repeated-identity", "empty", "identity-free"])
def test_subgroup_table_reads_a_member_set(members, message):
    # repeats used to leave a row without the identity, and the empty set
    # raised a bare numpy ValueError; a nonempty set without the identity
    # is never closed
    G = build_group({"family": "cyclic", "params": {"n": 6}})
    if message is not None:
        with pytest.raises(GroupError, match=message):
            oracle.subgroup_table(G, members)
        return
    H, elems = oracle.subgroup_table(G, members)
    ref, ref_elems = oracle.subgroup_table(G, [0, 3])
    assert elems == ref_elems == [0, 3]
    assert np.array_equal(H.mul, ref.mul) and H.order == 2


def test_quotient_q8_center_is_klein_four():
    G = get_group("Q8")
    Q = quotient(G, center(G))
    assert Q.order == 4 and Q.is_abelian()
    assert all(element_order(Q, x) <= 2 for x in range(4))


def test_quotient_requires_normal():
    G = get_group("S3")
    C = get_classes("S3")
    H = subgroup_from_members(G, [0, 1])  # <transposition>, not normal
    assert _is_subgroup_array(H)
    with pytest.raises(GroupError, match="^quotient requires a normal subgroup$"):
        quotient(G, H)


@pytest.mark.parametrize("name", ["C12", "S4", "relabelled-Q8"])
def test_the_quotient_by_g_is_the_one_element_group(name):
    G = _relabelled(get_group("Q8"), 3) if name == "relabelled-Q8" else get_group(name)
    N = subgroup_from_members(G, range(G.order))
    Q = quotient(G, N)
    assert Q.order == 1 and Q.mul.tolist() == [[0]] and Q.generators == ()
    assert Q.labels == [f"[{G.label(0)}]"]   # the coset G named by its least element


def test_center_free_quotient_chain():
    chain_q8 = center_free_quotient_chain(get_group("Q8"))
    assert [g.order for g in chain_q8] == [8, 4, 1]
    chain_s3 = center_free_quotient_chain(get_group("S3"))
    assert [g.order for g in chain_s3] == [6]
    C5 = build_group({"family": "cyclic", "params": {"n": 5}})
    assert [g.order for g in center_free_quotient_chain(C5)] == [5, 1]


_SERIES_CASES = {
    **{name: (lambda name=name: get_group(name)) for name in FIXTURE_SPECS},
    **{text: (lambda text=text: build_group(cli.parse_group_spec(text)))
       for text in ["extraspecial:7", "extraspecial:13", "dihedral:64", "cyclic:1"]},
    "relabelled-ES3": lambda: _relabelled(get_group("ES3"), 5),
}


@pytest.mark.parametrize("case", sorted(_SERIES_CASES))
def test_the_upper_central_series_gives_the_nested_quotient_chain(case):
    # each G/Z_i is gathered straight from G: the same tables, inverses and
    # generators as the quotient of each quotient by its center
    G = _SERIES_CASES[case]()
    series, want = groups.upper_central_series(G), oracle.nested_center_free_quotient_chain(G)
    assert [G.order] + [G.order // len(Z) for Z in series] == [Q.order for Q in want]
    assert [Z.tolist() for Z in series[:1]] == \
        ([center(G).tolist()] if len(center(G)) > 1 else [])
    assert all(np.array_equal(subgroup_from_members(G, Z), Z) and _is_subgroup_array(Z)
               for Z in series)
    assert all(set(Z.tolist()) < set(W.tolist()) for Z, W in zip(series, series[1:]))
    got = center_free_quotient_chain(G)
    assert got[0] is G and len(got) == len(want)
    for Q, R in zip(got, want):
        assert np.array_equal(Q.mul, R.mul) and np.array_equal(Q.inv, R.inv)
        assert Q.generators == R.generators


def test_derived_subgroup():
    # [S3, S3] = A3; affine(5) derived = translations
    D = derived_subgroup(get_table("S3"))
    assert len(D) == 3
    Da = derived_subgroup(get_table("aff5"))
    assert len(Da) == 5
    assert len(derived_subgroup(get_table("A5"))) == 60


def test_subgroup_table_affine_translations():
    G = get_group("aff5")
    members = [b for b in range(5)]  # (1, b) have indices 0..4
    H, elems = oracle.subgroup_table(G, members)
    assert H.order == 5 and H.is_abelian()
    assert elems == members
    assert all(element_order(H, x) in (1, 5) for x in range(5))


# permutation specs from generators their families do not use: S4 from all
# six transpositions (more than floor(log2 24) = 4, so none is handed over
# and GroupTable finds the greedy set), A7 from (0 1 2) and (2 3 4 5 6), and S2 from
# a list holding the identity and a repeated generator
_PERM_SPECS = {
    "S4-transpositions": {"type": "permutation", "degree": 4, "generators": [
        [1, 0, 2, 3], [2, 1, 0, 3], [3, 1, 2, 0], [0, 2, 1, 3], [0, 3, 2, 1], [0, 1, 3, 2]]},
    "A7-3-cycle-5-cycle": {"type": "permutation", "degree": 7,
                           "generators": [[1, 2, 0, 3, 4, 5, 6], [0, 1, 3, 4, 5, 6, 2]]},
    "S2-identity-repeated": {"type": "permutation", "degree": 3,
                             "generators": [[0, 1, 2], [1, 0, 2], [1, 0, 2]]}}


def _assert_generators_center_and_abelian(H):
    """The invariant of test_center_and_abelian_from_generators_match_full_table_compare,
    on a table that may have been handed no set and found the greedy one."""
    gens = H.generators
    assert isinstance(gens, tuple) and H.identity not in gens
    assert len(gens) <= H.order.bit_length() - 1   # floor(log2 |H|)
    assert oracle._closure(H, gens) == frozenset(range(H.order))
    commutes_with_all = np.all(H.mul == H.mul.T, axis=1)
    assert center(H).tolist() == np.flatnonzero(commutes_with_all).tolist()
    assert H.is_abelian() is bool(commutes_with_all.all())


_ENUMERATED_SPECS = (
    [{"family": f, "params": {"n": n}} for f in ("symmetric", "alternating")
     for n in (1, 2, 3, 4, 5)]
    + [{"family": "alternating", "params": {"n": 6}},
       {"family": "quaternion8", "params": {}}]
    + [{"family": "extraspecial", "params": {"p": p}} for p in (2, 3, 5, 11)]
    + [{"family": "affine", "params": {"p": p}} for p in (2, 3, 5, 7, 13, 97)]
    + [{"type": "permutation", "degree": 0, "generators": []},
       {"type": "permutation", "degree": 4,
        "generators": [[1, 0, 3, 2], [2, 3, 0, 1]]},
       *_PERM_SPECS.values(),
       # x -> 3x and x -> x + 1 on F_17: the affine group of order 272
       {"type": "permutation", "degree": 17,
        "generators": [[3 * x % 17 for x in range(17)],
                       [(x + 1) % 17 for x in range(17)]]}])
# the fixture groups not listed above (cyclic, dihedral, products, aff11) and
# a product of products
_ENUMERATED_SPECS += (
    [spec for spec in FIXTURE_SPECS.values() if spec not in _ENUMERATED_SPECS]
    + [_family("product", left=_family("dihedral", n=3),
               right=_family("product", left=_family("quaternion8"),
                             right=_family("cyclic", n=2)))])


# the whole dict table of affine:97 (order 9312) is 87 million lookups, about
# 40 s and a gigabyte of Python ints; above this order the oracle builds 128
# rows spread evenly over the table, and the identity's row
_DICT_ORACLE_CAP = 2000


def _oracle_rows(order):
    """The rows of a table of this order the dict oracle builds."""
    if order <= _DICT_ORACLE_CAP:
        return np.arange(order)
    return np.unique(np.linspace(0, order - 1, 128).astype(np.int64))


@pytest.mark.parametrize("spec", _ENUMERATED_SPECS, ids=str)
def test_enumerated_tables_match_dict_oracle(spec):
    G = build_group(spec)
    elems, compose, labels = oracle.enumerated_group(spec)
    assert G.mul.dtype == np.int16 and G.labels == labels
    if spec in _PERM_SPECS.values():
        _assert_generators_center_and_abelian(G)
    if G.order <= _DICT_ORACLE_CAP:
        mul = oracle.dict_cayley_table(elems, compose)
        assert mul.dtype == np.int64 and np.array_equal(G.mul, mul)
        assert np.array_equal(G.inv, oracle.table_inverses(mul))
        return
    rows = _oracle_rows(G.order)
    mul = oracle.dict_cayley_table(elems, compose, rows)
    assert mul.dtype == np.int64 and np.array_equal(G.mul[rows], mul)
    identity_row = oracle.dict_cayley_table(elems, compose, [G.identity])[0]
    assert np.array_equal(identity_row, np.arange(G.order))
    assert [row.tolist().index(G.identity) for row in mul] == G.inv[rows].tolist()


def test_degree_zero_permutation_spec_is_trivial():
    for generators in ([], [[]]):
        G = build_group({"type": "permutation", "degree": 0, "generators": generators})
        assert G.order == 1 and G.identity == 0 and G.mul.tolist() == [[0]]
        assert G.labels == [""] and G.generators == ()


def test_degree_eleven_spec_is_labelled_by_tuples():
    # one digit per point up to degree 10; from 11 on a label is str(tuple)
    G = build_group({"type": "permutation", "degree": 11, "generators": [[*range(1, 11), 0]]})
    assert G.labels == [str(tuple((i + k) % 11 for i in range(11))) for k in range(11)]


# 8!/2 = 20160 exceeds the default MAX_ORDER, so n = 7 is the last degree
@pytest.mark.parametrize("n", range(1, 8))
@pytest.mark.parametrize("family", ["symmetric", "alternating"])
def test_permutation_families_match_the_itertools_enumeration(family, n):
    # S_n and A_n are closures of two generators; their tables, field by
    # field, are those of every permutation, or every even one, enumerated
    G = build_group({"family": family, "params": {"n": n}})
    want = oracle.itertools_perm_family(n, family == "alternating")
    assert G.mul.dtype == want.mul.dtype and G.mul.tobytes() == want.mul.tobytes()
    assert np.array_equal(G.inv, want.inv) and G.identity == want.identity
    assert G.labels == want.labels
    # the handed-over set generates G and holds no identity
    assert G.identity not in G.generators
    assert oracle._closure(G, G.generators) == frozenset(range(G.order))


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS) + sorted(_PERM_SPECS))
def test_quotient_and_subgroup_tables_match_dict_oracle(name):
    if name in FIXTURE_SPECS:
        G, T = get_group(name), get_table(name)
    else:
        # A7: 9 classes * 2520 elements = 22,680 cells, inside TABLE_CELLS
        G = build_group(_PERM_SPECS[name])
        T = compute_char_table(G, conjugacy_classes(G))
    for N in normal_subgroups(T):
        Q = quotient(G, N)
        rows = _oracle_rows(Q.order)
        mul, reps = oracle.dict_quotient_table(G, N, rows)
        assert Q.mul.dtype == np.int16 and mul.dtype == np.int64
        assert np.array_equal(Q.mul[rows], mul)
        assert Q.labels == [f"[{G.label(r)}]" for r in reps]
        H, elems = oracle.subgroup_table(G, N)
        rows = _oracle_rows(H.order)
        assert elems == N.tolist() and H.mul.dtype == np.int16
        assert np.array_equal(
            H.mul[rows], oracle.dict_cayley_table(elems, lambda a, b: int(G.mul[a, b]), rows))
        if name in _PERM_SPECS:
            _assert_generators_center_and_abelian(Q)
            _assert_generators_center_and_abelian(H)


def test_the_table_type_is_int16_up_to_order_32768():
    # decided from the order alone: no table of that size is built
    assert groups.table_dtype(1) == np.int16
    assert groups.table_dtype(32768) == np.int16
    assert groups.table_dtype(32769) == np.int32


@pytest.mark.parametrize("text", [
    "cyclic:2000", "dihedral:1000", "symmetric:6", "symmetric:7", "affine:31",
    "extraspecial:11",
    "product(cyclic(40),symmetric(4))", "product(dihedral(30),cyclic(20))",
    '{"type": "permutation", "degree": 6, "generators": [[1, 0, 2, 3, 4, 5], [1, 2, 3, 4, 5, 0]]}'])
def test_building_a_table_allocates_no_int64_square(text):
    spec = json.loads(text) if text.startswith("{") else cli.parse_group_spec(text)
    tracemalloc.start()
    try:
        G = build_group(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the int16 table is n^2 * 2 bytes; an int64 square would be n^2 * 8
    assert G.mul.nbytes == 2 * G.order ** 2 and peak < 4 * G.order ** 2, peak


@pytest.mark.parametrize("text", ["cyclic:1500", "product(cyclic(40),cyclic(50))"])
def test_the_centre_of_an_abelian_member_set_forms_no_commutation_rows(text):
    # every class has one element, so every member is central in G: the
    # (|G|, |G|) comparison of members took 10.8 MB on cyclic:1500
    G = build_group(cli.parse_group_spec(text))
    C = conjugacy_classes(G)
    tracemalloc.start()
    try:
        got = center_of_subset(G, range(G.order))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000, peak
    assert tuple(got.tolist()) == oracle.all_pairs_center(G, range(G.order))


@pytest.mark.parametrize("row, col", [(1, 2), (3, 0), (0, 0)])
def test_an_entry_raised_by_65536_is_refused_not_wrapped(row, col, tmp_path, capsys):
    # the entry would wrap back to its true value in an int16 table, so the
    # range is checked before the table is narrowed
    table = get_group("C6").mul.tolist()
    table[row][col] += 65536
    with pytest.raises(GroupError, match="out of range"):
        build_group(_cayley(table))
    path = tmp_path / "wrapped.json"
    path.write_text(json.dumps(_cayley(table)))
    assert cli.main(["group", "--group", f"@{path}"]) == 2
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("table, bad", [
    ([[0, 1, 2], [1, 1, 2], [2, 2, 0]], 1),   # row 1 never reaches the identity
    ([[0, 1, 2], [1, 0, 0], [2, 0, 1]], 1),   # row 1 reaches it twice
    ([[0, 1, 2], [1, 2, 0], [2, 2, 0]], 1),   # 1*2 is the identity, 2*1 is not
    ([[0, 1, 2], [1, 0, 2], [2, 1, 1]], 2)])  # rows 0 and 1 are fine
@pytest.mark.parametrize("slab_cells", [1 << 20, 3])   # one slab, or one row a slab
def test_a_missing_inverse_names_the_first_failing_element(table, bad, slab_cells,
                                                            monkeypatch):
    monkeypatch.setattr(groups, "_SLAB_CELLS", slab_cells)
    with pytest.raises(GroupError, match=f"element {bad} has no two-sided inverse"):
        groups._check_group_axioms(np.array(table))


def test_a_cayley_source_shares_the_narrow_table():
    G = build_group(_cayley(get_group("S4").mul.tolist()))
    assert G.mul.dtype == np.int16


def test_subgroup_table_rejects_non_closed_members():
    G = get_group("S3")
    assert G.labels[:3] == ["012", "021", "102"]  # the identity and two transpositions
    with pytest.raises(GroupError, match="not closed"):
        oracle.subgroup_table(G, [0, 1, 2])


@pytest.mark.parametrize("text", [
    "affine:2", "affine:3", "affine:31", "extraspecial:2",
    "extraspecial:7", "quaternion8", "cyclic:12", "dihedral:6",
    "product(affine(5),quaternion8)"])
def test_closed_form_families_write_their_table_without_ranking_rows(text):
    G = build_group(cli.parse_group_spec(text))
    # the handed-over set generates G, and none of it is the identity
    assert G.identity not in G.generators
    assert oracle._closure(G, G.generators) == frozenset(range(G.order))


@settings(deadline=None)  # the first example of each group builds its table
@given(st.sampled_from(sorted(FIXTURE_SPECS)),
       st.lists(st.integers(min_value=0, max_value=10 ** 6), min_size=1, max_size=3),
       st.sampled_from(["drawn", "generated", "generated+1", "generated-1"]))
def test_subgroup_table_raises_exactly_when_members_are_not_closed(name, picks, shape):
    G = get_group(name)
    members = {p % G.order for p in picks}
    if shape != "drawn":
        members = set(oracle._closure(G, members))
        outside = sorted(set(range(G.order)) - members)
        if shape == "generated+1" and outside:
            members.add(outside[len(picks) % len(outside)])
        if shape == "generated-1" and len(members) > 1:
            members.remove(max(members))
    closed = all(int(G.mul[a, b]) in members for a in members for b in members)
    if not closed:
        with pytest.raises(GroupError, match="not closed"):
            oracle.subgroup_table(G, members)
        return
    H, elems = oracle.subgroup_table(G, members)
    assert elems == sorted(members)
    assert np.array_equal(
        H.mul, oracle.dict_cayley_table(elems, lambda a, b: int(G.mul[a, b])))


@pytest.mark.parametrize("family, order, num_classes", [
    ("symmetric", 5040, 15), ("alternating", 2520, 9)])
def test_degree_seven_tables_compose_their_permutation_labels(family, order,
                                                              num_classes):
    G = build_group({"family": family, "params": {"n": 7}})
    assert G.order == order
    assert conjugacy_classes(G).num_classes == num_classes
    perms = np.array([[int(c) for c in label] for label in G.labels])
    rng = np.random.default_rng(7)
    a, b = rng.integers(0, order, (2, 10_000))
    # mul[a, b] is the permutation k -> p[q[k]] for p = perms[a], q = perms[b]
    assert np.array_equal(perms[G.mul[a, b]],
                          np.take_along_axis(perms[a], perms[b], axis=1))


@given(st.integers(min_value=1, max_value=40))
def test_cyclic_props(n):
    G = build_group({"family": "cyclic", "params": {"n": n}})
    C = conjugacy_classes(G)
    assert C.num_classes == n
    assert len(center(G)) == n


@given(st.integers(min_value=1, max_value=12), st.integers(min_value=1, max_value=12))
def test_product_order_multiplies(a, b):
    G = build_group({"family": "product",
                     "params": {"left": {"family": "cyclic", "params": {"n": a}},
                                "right": {"family": "dihedral", "params": {"n": b}}}})
    assert G.order == a * 2 * b
    for s in conjugacy_classes(G).sizes.tolist():
        assert G.order % s == 0


@given(st.integers(min_value=1, max_value=10))
def test_dihedral_center(n):
    G = build_group({"family": "dihedral", "params": {"n": n}})
    z = len(center(G))
    if n <= 2:
        assert z == 2 * n       # abelian
    else:
        assert z == (2 if n % 2 == 0 else 1)


_DEGREE_SEVEN = {"S7": {"family": "symmetric", "params": {"n": 7}},
                 "A7": {"family": "alternating", "params": {"n": 7}}}


_SMALL_FAMILIES = {"C1": _family("cyclic", n=1), "D1": _family("dihedral", n=1),
                   "D2": _family("dihedral", n=2),
                   "D1xC1": _family("product", left=_family("dihedral", n=1),
                                    right=_family("cyclic", n=1)),
                   "D6xQ8": _family("product", left=_family("dihedral", n=6),
                                    right=_family("quaternion8")),
                   "aff2": _family("affine", p=2), "ES2": _family("extraspecial", p=2)}


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS) + sorted(_DEGREE_SEVEN)
                         + sorted(_SMALL_FAMILIES))
def test_center_and_abelian_from_generators_match_full_table_compare(name, monkeypatch):
    spec = {**FIXTURE_SPECS, **_DEGREE_SEVEN, **_SMALL_FAMILIES}[name]
    searched = _count_searches(monkeypatch)
    G = build_group(spec)
    assert searched == []   # handed over by the constructor
    # and the quotient and subgroup tables of every normal subgroup
    tables = [G] if name in _DEGREE_SEVEN else _with_normal_quotients_and_subgroups(G)
    for i, H in enumerate(tables):
        gens = H.generators
        assert isinstance(gens, tuple) and H.identity not in gens
        # floor(log2 |H|), or for a quotient (each odd entry), whose set is
        # the cosets of G's, floor(log2 |G|)
        bound = G.order if i % 2 else H.order
        assert len(gens) <= bound.bit_length() - 1
        if H.order <= 1000:  # the oracle's closure is quadratic in the order
            assert oracle._closure(H, gens) == frozenset(range(H.order))
        # the old tests: every row of mul against its column
        commutes_with_all = np.all(H.mul == H.mul.T, axis=1)
        assert center(H).tolist() == np.flatnonzero(commutes_with_all).tolist()
        assert H.is_abelian() is bool(commutes_with_all.all())


# ---------------------------------------------------------------------------
# Associativity: Light's test on cayley input


def _cayley(mul, **extra):
    return {"type": "cayley", "table": np.asarray(mul).tolist(), **extra}


def _flip_intercalate(mul, a, b, t):
    """mul with the intercalate on rows a, a*t and columns b, t*b flipped.

    For an involution t the four cells hold a*b at (a, b) and (a*t, t*b) and
    a*t*b at the other two, so swapping the two values keeps a Latin square.
    """
    out = np.array(mul)
    at, tb = out[a, t], out[t, b]
    out[a, b], out[a, tb] = out[a, tb], out[a, b]
    out[at, b], out[at, tb] = out[at, tb], out[at, b]
    return out


def _z2000_loop(a, b):
    i = np.arange(2000)
    return _flip_intercalate((i[:, None] + i) % 2000, a, b, 1000)


@pytest.mark.parametrize("a, b", [(7, 11), (13, 17), (19, 23), (29, 31), (37, 41)])
def test_non_associative_order_2000_loops_are_refused(a, b):
    # a sampled check of 100k triples accepted each of these
    mul = _z2000_loop(a, b)
    z = np.arange(2000)
    assert int((mul[mul[a, b], z] != mul[a, mul[b, z]]).sum()) == 1998
    with pytest.raises(GroupError, match="not associative"):
        build_group(_cayley(mul))


def test_a_greedy_generator_that_fails_to_double_is_refused():
    # a loop of order 6: generator 1 reaches {0, 1, 4, 5}, and adding the
    # generator 2 reaches 6 < 8 elements, which no group allows
    table = [[0, 1, 2, 3, 4, 5], [1, 5, 3, 2, 0, 4], [2, 3, 5, 4, 1, 0],
             [3, 2, 4, 0, 5, 1], [4, 0, 1, 5, 3, 2], [5, 4, 0, 1, 2, 3]]
    with pytest.raises(GroupError, match="does not double"):
        groups.GroupTable(np.array(table))
    with pytest.raises(GroupError, match="does not double"):
        build_group(_cayley(table))
    assert not oracle.brute_force_is_associative(np.array(table))


def test_a_group_table_finds_its_order_identity_and_inverses():
    # none of them is handed over, so none can disagree with the table, as
    # an identity 1 handed over with Z3's table once did
    G = groups.GroupTable(build_group({"family": "cyclic", "params": {"n": 3}}).mul)
    assert (G.order, G.identity, G.inv.tolist()) == (3, 0, [0, 2, 1])
    assert not G.inv.flags.writeable
    # Z3 relabelled by x -> x + 1 has the identity 1 and 0 <-> 2 swapped
    relabelled = (np.add.outer(np.arange(3), np.arange(3)) + 2) % 3
    H = groups.GroupTable(relabelled)
    assert (H.identity, H.inv.tolist(), H.generators) == (1, [2, 1, 0], (0,))


@pytest.mark.parametrize("table, message", [
    ([[0, 0], [0, 0]], "no identity element"),
    ([[0, 1, 2], [1, 2, 1], [2, 1, 2]], "element 1 has no two-sided inverse"),
    ([[0, 1], [1, 2]], "table entries out of range"),
    ([[0, 1], [1, -1]], "table entries out of range"),
    ([[0, 1, 2], [1, 2, 0]], "not a nonempty square"),
    (np.zeros((0, 0), dtype=np.int64), "not a nonempty square"),
    (5, "not a nonempty square"),
], ids=["identity", "inverse", "above", "negative", "shape", "empty", "scalar"])
def test_a_bare_group_table_checks_its_own_axioms(table, message):
    with pytest.raises(GroupError, match=message):
        groups.GroupTable(np.array(table))


_SMALL_GROUPS = (
    [("cyclic", n) for n in range(1, 25)]
    + [("dihedral", n) for n in range(1, 13)]
    + [(name, None) for name in sorted(FIXTURE_SPECS)])


@settings(deadline=None)
@given(st.sampled_from(_SMALL_GROUPS), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6), st.integers(0, 10 ** 6), st.booleans())
def test_light_test_agrees_with_the_brute_force_oracle(group, a, b, t, flip):
    family, n = group
    G = (get_group(family) if n is None
         else build_group({"family": family, "params": {"n": n}}))
    mul = G.mul
    involutions = np.flatnonzero(mul[np.arange(G.order), np.arange(G.order)]
                                 == G.identity)
    involutions = involutions[involutions != G.identity]
    if flip and involutions.size:
        mul = _flip_intercalate(mul, a % G.order, b % G.order,
                                int(involutions[t % involutions.size]))
    try:
        groups._check_group_axioms(mul)
    except GroupError:
        # the flip put the identity into the intercalate; not a loop
        with pytest.raises(GroupError):
            build_group(_cayley(mul))
        return
    if oracle.brute_force_is_associative(mul):
        assert np.array_equal(build_group(_cayley(mul)).mul, mul)
    else:
        with pytest.raises(GroupError, match="not associative"):
            build_group(_cayley(mul))


# sha256 prefixes of the mul and inv arrays of each group's center-free
# quotient chain and of the quotient and subgroup tables of its normal
# subgroups (for S7 and A7, of the table of the even permutations), as
# built before Light's test replaced the exhaustive and sampled checks
_TABLE_DIGESTS = {
    "A4": "68bbb88527c7e5d1", "A5": "d077d64ac3fc6995", "A7": "7ee0d92ca0f7ed67",
    "C12": "b692e579a27f837e", "C2xS3": "e5e3c4281297954c",
    "C2xS4": "b3011dd55b261328", "C3xD4": "5e2cf2e6fde8e6ea",
    "C6": "e42153a8efcd5995", "C64": "dfe6ffb1662883c7", "D4": "0a1e669023e3ddcd",
    "D5": "4707b0e984aa694f", "D8": "4044477e9f153ec6", "ES3": "a49febf22639295a",
    "ES5": "bd8318af697814df", "Q8": "d5b9c38754dc6651", "S3": "39742ec45d716a1b",
    "S4": "caf33a7676b8a8c2", "S5": "81a4ce2935efb57b", "S7": "aeb66b6be51ff516",
    "aff11": "34a7572069fb8b88", "aff13": "1548a16fe5c0bb26",
    "aff5": "4e2850aebbfcab71", "aff7": "6a0845177854fa82"}


@pytest.mark.parametrize("name", sorted(_TABLE_DIGESTS))
def test_constructed_tables_pass_light_test_and_are_unchanged(name):
    G = (build_group(_DEGREE_SEVEN[name]) if name in _DEGREE_SEVEN
         else get_group(name))
    tables = center_free_quotient_chain(G)
    if name in _DEGREE_SEVEN:
        even = [x for x, label in enumerate(G.labels)
                if sum(p > q for i, p in enumerate(label) for q in label[i + 1:]) % 2 == 0]
        tables.append(oracle.subgroup_table(G, even)[0])
    else:
        for N in normal_subgroups(get_table(name)):
            tables += [quotient(G, N), oracle.subgroup_table(G, N)[0]]
    digest = hashlib.sha256()
    for H in tables:
        groups._check_associative(H)
        digest.update(H.mul.astype("<i8").tobytes())
        digest.update(H.inv.astype("<i8").tobytes())
    assert digest.hexdigest()[:16] == _TABLE_DIGESTS[name]


# ---------------------------------------------------------------------------
# Group-spec validation


@pytest.mark.parametrize("spec, message", [
    ({"type": "cayley", "table": 5}, "square array of integers"),
    ({"type": "cayley", "table": []}, "square array of integers"),
    ({"type": "cayley", "table": [[0.5]]}, "square array of integers"),
    ({"type": "cayley", "table": [[0.0]]}, "square array of integers"),
    ({"type": "cayley", "table": [[False]]}, "square array of integers"),
    ({"type": "cayley", "table": [[0, True], [True, 0]]}, "square array of integers"),
    ({"type": "cayley", "table": [["0"]]}, "square array of integers"),
    ({"type": "cayley", "table": [[0, 1], [1]]}, "square array of integers"),
    ({"type": "cayley", "table": [[0, 1], [1, 2 ** 70]]}, "out of range"),
    ({"type": "cayley", "table": [[0, 1], [1, 2]]}, "out of range"),
    ({"type": "cayley", "table": [[0, 1], [1, 0]], "labels": ["a"]}, "2 strings"),
    ({"type": "cayley", "table": [[0, 1], [1, 0]], "labels": ["a", 1]}, "2 strings"),
    ({"type": "cayley", "table": [[0, 1], [1, 0]], "labels": "ab"}, "2 strings"),
    ({"type": "permutation", "degree": -1, "generators": []}, "degree must be >= 0"),
    ({"type": "permutation", "degree": 2.5, "generators": []}, "must be an integer"),
    ({"family": "cyclic", "params": {"n": 2.5}}, "must be an integer"),
    ({"family": "cyclic", "params": {"n": "12"}}, "must be an integer"),
    ({"family": "dihedral", "params": {"n": True}}, "must be an integer"),
    ({"type": "permutation", "degree": 2, "generators": 5}, "integer lists"),
    ({"type": "permutation", "degree": 2, "generators": [5]}, "integer lists"),
    ({"type": "permutation", "degree": 2, "generators": [[1.0, 0.0]]}, "integer lists"),
    ({"type": "permutation", "degree": 2, "generators": [[True, False]]},
     "integer lists"),
    ({"family": "symmetric", "params": {"n": 0}}, "degree must be >= 1"),
    ({"family": "alternating", "params": {"n": 0}}, "degree must be >= 1"),
    ({"family": "extraspecial", "params": {"p": 1}}, "extraspecial parameter must be prime"),
    ({"family": "affine", "params": {"p": 1}}, "affine parameter must be prime"),
], ids=str)
def test_malformed_group_specs_are_refused(spec, message):
    with pytest.raises(GroupError, match=message):
        build_group(spec)


def test_cayley_labels_are_kept():
    G = build_group(_cayley([[0, 1], [1, 0]], labels=["e", "s"]))
    assert G.labels == ["e", "s"] and G.label(1) == "s"


@pytest.mark.parametrize("dtype", [np.int16, np.int64, np.intp])
def test_sorted_unique_equals_np_unique(dtype):
    # random, empty, constant and two-dimensional (flattened) input, with
    # and without counts, value for value and in the input's dtype
    rng = np.random.default_rng(3)
    cases = [rng.integers(-50, 50, size=n).astype(dtype) for n in (1, 2, 17, 930)]
    cases += [np.array([], dtype=dtype), np.full(9, 7, dtype=dtype),
              rng.integers(0, 6, size=(5, 4)).astype(dtype)]
    for values in cases:
        got = groups.sorted_unique(values)
        want = np.unique(values)
        assert got.dtype == want.dtype and np.array_equal(got, want)
        got, counts = groups.sorted_unique(values, return_counts=True)
        want, want_counts = np.unique(values, return_counts=True)
        assert np.array_equal(got, want) and np.array_equal(counts, want_counts)
        assert counts.dtype == want_counts.dtype


_ORDER_SPECS = ([("fixture", spec) for spec in FIXTURE_SPECS.values()]
                + [("abelian", spec) for _, spec in oracle.abelian_group_specs_up_to(64)]
                + [("S7", {"family": "symmetric", "params": {"n": 7}}),
                   ("C2000", {"family": "cyclic", "params": {"n": 2000}})])


def test_element_orders_by_doubling_match_the_power_walk():
    for name, spec in _ORDER_SPECS:
        G = build_group(spec)
        elems = np.arange(G.order)
        mul_fn = lambda a, b: G.mul[a, b]   # noqa: E731
        assert np.array_equal(groups.element_orders(mul_fn, G.identity, elems, G.order),
                              oracle.power_walk_element_orders(mul_fn, G.identity, elems)), spec


@pytest.mark.parametrize("spec", [{"family": "cyclic", "params": {"n": 2000}},
                                  {"family": "symmetric", "params": {"n": 7}},
                                  FIXTURE_SPECS["Q8"]], ids=["C2000", "S7", "Q8"])
def test_element_orders_keep_the_power_block_within_the_slab(spec, monkeypatch):
    # 2^12 cells: elements of order 2000 double to 2048 powers, one column
    # at a time; every block the doubling makes has twice the cells of the
    # product that extends it
    G = build_group(spec)
    monkeypatch.setattr(groups, "_SLAB_CELLS", 1 << 12)
    largest = []

    def mul_fn(a, b):
        out = G.mul[a, b]
        largest.append(2 * out.size)
        return out

    elems = np.arange(G.order)
    orders = groups.element_orders(mul_fn, G.identity, elems, G.order)
    assert max(largest) <= 1 << 12
    assert np.array_equal(orders, oracle.power_walk_element_orders(
        lambda a, b: G.mul[a, b], G.identity, elems))


def test_only_groups_reads_the_cayley_table():
    # the modules above groups reach elements through its functions
    # (conjugates, class_matrix, product_sizes, ...), so the
    # table's layout is known in one module
    src = Path(groups.__file__).parent
    reads = [f"{name}.py:{node.lineno}"
             for name in ("chartable", "classfuncs", "criteria", "counterexample", "markov", "cli")
             for node in ast.walk(ast.parse((src / f"{name}.py").read_text()))
             if isinstance(node, ast.Attribute) and node.attr in ("mul", "inv")]
    assert reads == []


@pytest.mark.parametrize("name", ["S4", "Q8", "D5", "C6"])
def test_conjugates_are_the_scalar_conjugates(name):
    G = get_group(name)
    want = [[oracle.conjugate(G, g, x) for x in range(G.order)] for g in range(G.order)]
    assert groups.conjugates(G, range(G.order)).tolist() == want
    xs = np.arange(0, G.order, 3)
    assert groups.conjugates(G, [1, 0], xs).tolist() == [[want[g][x] for x in xs]
                                                         for g in (1, 0)]
    assert groups.conjugates(G, [], xs).shape == (0, len(xs))


@pytest.mark.parametrize("name", ["S4", "Q8", "ES3", "C12"])
def test_class_orders_are_read_once_off_the_group(name, monkeypatch):
    G = build_group(FIXTURE_SPECS[name])
    assert "class_orders" not in vars(G)
    orders = G.class_orders
    assert orders.tolist() == [element_order(G, int(x)) for x in G.classes.representatives]

    def refused(*args):
        raise AssertionError("element orders computed again")

    monkeypatch.setattr(groups, "element_orders", refused)
    assert G.class_orders is orders


# tied to a file under bench/: bench/tracing.py traces it by name, so it
# goes together with its trace target (ROADMAP item 27 step 2)
_UNCALLED_BY_BENCH = ["center_free_quotient_chain"]


def test_every_public_name_is_used_in_the_package():
    # an export, or a public method of a core type, that no module of the
    # package reads is API that only its tests keep alive
    import tqrgroups
    trees = [ast.parse(path.read_text()) for path in Path(groups.__file__).parent.glob("*.py")
             if path.name != "__init__.py"]
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    methods = [item.name for tree in trees for node in tree.body
               if isinstance(node, ast.ClassDef)
               and node.name in ("GroupTable", "CharTable")
               for item in node.body
               if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
    unused = sorted(name for name in [*tqrgroups.__all__, *methods] if name not in used)
    assert unused == _UNCALLED_BY_BENCH
