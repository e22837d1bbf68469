import json

import numpy as np
import pytest

import oracle
from conftest import (FIXTURE_SPECS, get_classes, get_group, get_table,
                      get_table_for_spec)
from tqrgroups import (CharTable, CharTableError, GroupError, build_group, center,
                       chartable, compute_char_table, config, conjugacy_classes,
                       decompose, dumps_interchange, from_interchange, groups,
                       induce_character, normal_subgroups)
from tqrgroups.chartable import (_canonical_irrep_order, _certified_table, _eigen_table,
                                  _orthogonality_residuals)

# Groups above the fixtures' orders on which the class matrix is checked:
# up to 930 elements, and classes of up to 144 elements.
LARGER_SPECS = {
    "S6": {"family": "symmetric", "params": {"n": 6}},
    "A6": {"family": "alternating", "params": {"n": 6}},
    "aff23": {"family": "affine", "params": {"p": 23}},
    "aff31": {"family": "affine", "params": {"p": 31}},
    "ES7": {"family": "extraspecial", "params": {"p": 7}},
    "A5xS3": {"family": "product", "params": {
        "left": {"family": "alternating", "params": {"n": 5}},
        "right": {"family": "symmetric", "params": {"n": 3}}}},
}


def _group_and_classes(name):
    if name in FIXTURE_SPECS:
        return get_group(name), get_classes(name)
    G, C, _ = get_table_for_spec(json.dumps(LARGER_SPECS[name], sort_keys=True))
    return G, C


def _sorted_chars(values, dims):
    rows = []
    for lam in range(len(dims)):
        rows.append((int(dims[lam]),
                     tuple((round(v.real, 6), round(v.imag, 6)) for v in values[lam])))
    return sorted(rows)


def test_s3_table():
    T = get_table("S3")
    assert T.dims.tolist() == [1, 1, 2]
    assert np.allclose(T.values[0], 1)
    assert np.allclose(T.values[2], [2, 0, -1])


def test_q8_and_affine_dims():
    assert get_table("Q8").dims.tolist() == [1, 1, 1, 1, 2]
    assert get_table("aff5").dims.tolist() == [1, 1, 1, 1, 4]


def test_trivial_group_table():
    G = build_group({"family": "cyclic", "params": {"n": 1}})
    T = compute_char_table(G)
    assert T.dims.tolist() == [1]
    assert np.allclose(T.values, 1)


def test_class_multiplication_matrix_s3():
    G, C = get_group("S3"), get_classes("S3")
    M0 = oracle.class_multiplication_matrix(G, C, 0)
    assert np.array_equal(M0, np.eye(3, dtype=int))
    # transpositions times transpositions: 3 ways to reach the identity
    Mt = oracle.class_multiplication_matrix(G, C, 1)
    assert Mt[1][0] == 3
    # row sums: |C_i| * |C_j| products distribute over classes
    for j in range(3):
        assert (Mt[j] * C.sizes).sum() == C.sizes[1] * C.sizes[j]


def test_class_matrices_abelian_are_permutations():
    G = build_group({"family": "cyclic", "params": {"n": 4}})
    C = conjugacy_classes(G)
    for i in range(4):
        M = oracle.class_multiplication_matrix(G, C, i)
        assert np.array_equal(M.sum(axis=0), np.ones(4, dtype=int))
        assert np.array_equal(M.sum(axis=1), np.ones(4, dtype=int))


@pytest.mark.parametrize("name", [*sorted(FIXTURE_SPECS), "S6", "aff31", "ES7"])
def test_combined_class_matrix_matches_oracle(name):
    # the solver's gather at the class representatives equals
    # sum_i coeffs[i] * M_i built from the oracle's class-by-class product counts
    G, C = _group_and_classes(name)
    coeffs = np.random.default_rng(23).uniform(1.0, 2.0, C.num_classes)
    expected = sum(c * oracle.class_multiplication_matrix(G, C, i)
                   for i, c in enumerate(coeffs))
    assert np.allclose(groups.class_matrix(G, coeffs), expected,
                       rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["C64", "S5", "aff13"])
def test_combined_class_matrix_is_the_same_in_small_slabs(name, monkeypatch):
    # 300 cells: 4 representatives per slab on C64, 2 on S5 (the last slab
    # holds one), 1 on aff13
    G, C = _group_and_classes(name)
    coeffs = np.random.default_rng(5).uniform(1.0, 2.0, C.num_classes)
    whole = groups.class_matrix(G, coeffs)
    monkeypatch.setattr(groups, "_SLAB_CELLS", 300)
    slabbed = groups.class_matrix(G, coeffs)
    assert np.array_equal(slabbed, whole)
    assert np.allclose(slabbed, oracle.combined_class_matrix_loop(G, C, coeffs),
                       rtol=1e-12, atol=1e-12)


def _assert_table_as_from_the_loop(G, C, monkeypatch):
    # the gather only reorders the float sums of the loop's matrix: dims,
    # irrep order and eigen attempts stay, values move in the last bits; the
    # eigen path is called directly, since abelian groups no longer reach it
    T = _eigen_table(G)
    with monkeypatch.context() as m:
        m.setattr(groups, "class_matrix",
                  lambda G, coeffs: oracle.combined_class_matrix_loop(G, C, coeffs))
        ref = _eigen_table(G)
    assert T.dims.tolist() == ref.dims.tolist()
    assert T.quality["attempts"] == ref.quality["attempts"]
    assert np.max(np.abs(T.values - ref.values)) <= 1e-9


@pytest.mark.parametrize("name", [*sorted(FIXTURE_SPECS), *LARGER_SPECS])
def test_table_from_the_gather_matches_the_loop(name, monkeypatch):
    _assert_table_as_from_the_loop(*_group_and_classes(name), monkeypatch)


def test_abelian_tables_from_the_gather_match_the_loop(monkeypatch):
    for _, spec in oracle.abelian_group_specs_up_to(64):
        G = build_group(spec)
        _assert_table_as_from_the_loop(G, conjugacy_classes(G), monkeypatch)


def _cyclic_product(*orders):
    spec = {"family": "cyclic", "params": {"n": orders[0]}}
    for n in orders[1:]:
        spec = {"family": "product",
                "params": {"left": spec, "right": {"family": "cyclic", "params": {"n": n}}}}
    return spec


_ABELIAN_SPECS = [spec for _, spec in oracle.abelian_group_specs_up_to(64)] + [
    _cyclic_product(1), _cyclic_product(120), _cyclic_product(6, 10),
    _cyclic_product(2, 2, 2, 2, 2, 2)]


def test_abelian_tables_match_the_eigen_reference():
    # the table read off the invariant-factor basis has the eigen-solve's
    # dims, class order and irrep order, and values within its round-off
    for spec in _ABELIAN_SPECS:
        G = build_group(spec)
        C = conjugacy_classes(G)
        T, ref = compute_char_table(G, C), _eigen_table(G)
        assert T.classes is C and T.dims.tolist() == ref.dims.tolist(), spec
        assert np.max(np.abs(T.values - ref.values)) <= 1e-9, spec
        assert T.quality["attempts"] == 0 and T.quality["seed"] is None, spec
        assert T.quality["dim_roundoff"] == 0.0, spec
        assert max(T.quality["row_residual"], T.quality["col_residual"]) <= 1e-13, spec
        # the residuals are the stated root-rounding bound, and it holds
        # for the Gram products recomputed on the table
        bound = 2 * chartable._ROOT_ERROR + chartable._ROOT_ERROR ** 2
        assert T.quality["row_residual"] == T.quality["col_residual"] == bound, spec
        assert bound >= max(_orthogonality_residuals(T.values, C.sizes, G.order)), spec


@pytest.mark.parametrize("spec", [_cyclic_product(1), _cyclic_product(12),
                                  _cyclic_product(2, 4)], ids=["C1", "C12", "C2xC4"])
def test_abelian_tables_skip_the_eigen_solve(spec, monkeypatch):
    def refuse(*args):
        raise AssertionError("an abelian table reached the eigen-solve")

    monkeypatch.setattr(groups, "class_matrix", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(chartable, "_orthogonality_residuals", refuse)
    monkeypatch.setattr(chartable, "_canonical_irrep_order", refuse)
    G = build_group(spec)
    assert compute_char_table(G).dims.tolist() == [1] * G.order


@pytest.mark.parametrize("spec", [_cyclic_product(12), _cyclic_product(2, 4),
                                  _cyclic_product(2000), _cyclic_product(40, 50)],
                         ids=["C12", "C2xC4", "C2000", "C40xC50"])
def test_abelian_rows_are_in_the_rounded_tuple_order(spec):
    # the integer exponent rows give the order of the rounded-value key; the
    # eigen reference is too slow to compare with at order 2000
    T = compute_char_table(build_group(spec))
    assert oracle.rounded_tuple_irrep_order(T.values, T.dims) == list(range(T.num_irreps))


def test_a_basis_that_is_not_an_isomorphism_is_refused(monkeypatch):
    # 1 and 2 enumerate Z_4 as 1^a 2^b, a, b in {0, 1}, but 1 has order 4,
    # not 2: the bijection alone would pass Z_2 x Z_2's characters off as
    # Z_4's, and their Gram products are orthonormal all the same
    monkeypatch.setattr(groups, "_abelian_basis",
                        lambda mul_fn, identity, elems: [(1, 2), (2, 2)])
    with pytest.raises(GroupError, match="order dividing 2"):
        compute_char_table(build_group(_cyclic_product(4)))


@pytest.mark.parametrize("name", sorted(set(FIXTURE_SPECS) - {"C6", "C12", "C64"}))
def test_nonabelian_tables_are_the_eigen_tables(name):
    G, C = get_group(name), get_classes(name)
    assert C.num_classes < G.order
    T, ref = compute_char_table(G, C), _eigen_table(G)
    assert np.array_equal(T.values, ref.values) and np.array_equal(T.dims, ref.dims)
    assert T.quality == ref.quality


@pytest.mark.parametrize("name", ["S3", "S4", "D4", "Q8"])
def test_table_matches_regular_rep_oracle(name):
    G = get_group(name)
    T = get_table(name)
    chars = oracle.regular_rep_char_table(G)
    dims = [round(c[0].real) for c in chars]
    assert _sorted_chars(T.values, T.dims) == _sorted_chars(np.array(chars), dims)


def test_table_matches_oracle_all_abelian_up_to_64():
    for factors, spec in oracle.abelian_group_specs_up_to(64):
        G = build_group(spec)
        C = conjugacy_classes(G)
        T = compute_char_table(G, C)
        assert T.dims.tolist() == [1] * G.order, factors
        chars = oracle.regular_rep_char_table(G)
        assert _sorted_chars(T.values, T.dims) == \
            _sorted_chars(np.array(chars), [1] * G.order), factors


def test_induce_trivial_subgroup_gives_regular_character():
    G, C = get_group("S3"), get_classes("S3")
    f = induce_character(G, [G.identity], [1.0])
    assert f.shape == (3,) and np.allclose(f, [6, 0, 0])
    mult = decompose(get_table("S3"), f)
    assert mult.tolist() == get_table("S3").dims.tolist()


def test_induce_from_q8_center():
    G, C, T = get_group("Q8"), get_classes("Q8"), get_table("Q8")
    K = center(G)
    # nontrivial character of the order-2 center: 1 -> 1, -1 -> -1
    theta = [1.0, -1.0]     # on the members 0 and 1
    f = induce_character(G, K, theta)
    # (|G|/|K|) * theta on K, zero off K
    assert np.allclose(f, [4, -4, 0, 0, 0])
    assert decompose(T, f).tolist() == [0, 0, 0, 0, 2]


def test_induce_from_affine_translations():
    G, C, T = get_group("aff5"), get_classes("aff5"), get_table("aff5")
    members = list(range(5))  # the translations x -> x + b
    theta = np.exp(2j * np.pi * np.array(members) / 5)
    f = induce_character(G, members, theta)
    assert np.allclose(f, [4, -1, 0, 0, 0])
    assert decompose(T, f).tolist() == [0, 0, 0, 0, 1]


@pytest.mark.parametrize("name,members", [
    ("Q8", None),            # center
    ("S4", [0, 1]),          # an order-2 subgroup
    ("aff5", list(range(5))),  # translations
    ("D4", None),
])
def test_frobenius_reciprocity(name, members):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    if members is None:
        members = center(G).tolist()
    H, elems = oracle.subgroup_table(G, members)
    CH = conjugacy_classes(H)
    TH = compute_char_table(H, CH)
    for t in range(TH.num_irreps):
        theta = {elems[x]: complex(TH.values[t, CH.class_of[x]])
                 for x in range(H.order)}
        ind = induce_character(G, elems, [theta[e] for e in elems])
        for lam in range(T.num_irreps):
            lhs = np.sum(C.sizes * ind * np.conj(T.values[lam])) / G.order
            res = oracle.restrict_character(C, T.values[lam], elems)
            rhs = sum(theta[e] * np.conj(res[e]) for e in elems) / len(elems)
            assert abs(lhs - rhs) < 1e-8


@pytest.mark.parametrize("name", ["S4", "D4", "Q8", "aff5", "ES3", "C2xS3"])
def test_stacked_induction_matches_conjugation_sums(name):
    # every normal subgroup and the cyclic subgroup of each class
    # representative, against the per-class conjugation sum; the sums run in
    # another order, so they agree to a few ulps of |G|
    G, C, T = get_group(name), get_classes(name), get_table(name)
    subgroups = [N.tolist() for N in normal_subgroups(T)]
    for x in C.representatives.tolist():
        powers = [G.identity]
        while int(G.mul[powers[-1], x]) != G.identity:
            powers.append(int(G.mul[powers[-1], x]))
        subgroups.append(powers)
    rng = np.random.default_rng(G.order)
    for members in subgroups:
        elems = sorted(members)
        stack = rng.normal(size=(3, len(elems))) + 1j * rng.normal(size=(3, len(elems)))
        got = induce_character(G, members, stack)
        assert got.shape == (3, C.num_classes)
        for row, values in zip(got, stack):
            want = oracle.conjugation_sum_induce(G, C, elems, dict(zip(elems, values)))
            assert np.abs(row - want).max() <= 1e-12 * G.order
        single = induce_character(G, members, stack[0])
        assert single.shape == (C.num_classes,)
        assert np.abs(single - got[0]).max() <= 1e-12 * G.order
        for wrong in (np.zeros((3, len(elems) + 1)), stack[:, :, None]):
            with pytest.raises(GroupError, match="theta length"):
                induce_character(G, members, wrong)


@pytest.mark.parametrize("name", ["Q8", "ES3"])
def test_central_inductions_sum_to_regular(name):
    G, C, T = get_group(name), get_classes(name), get_table(name)
    K = center(G)
    HK, elems = oracle.subgroup_table(G, K)
    CK = conjugacy_classes(HK)
    TK = compute_char_table(HK, CK)
    total = np.zeros(C.num_classes, dtype=complex)
    for t in range(TK.num_irreps):
        total += induce_character(G, elems, TK.values[t, CK.class_of])
    regular = np.zeros(C.num_classes)
    regular[0] = G.order
    assert np.allclose(total, regular, atol=1e-8)


def test_a_table_is_computed_on_the_group_own_classes_only():
    # an equal partition held in another object, or another group's, is
    # refused rather than paired with G
    G = build_group(FIXTURE_SPECS["S4"])
    assert compute_char_table(G, G.classes).classes is G.classes
    assert compute_char_table(G).classes is conjugacy_classes(G) is G.classes
    for C in (oracle.per_class_conjugacy_classes(G), get_classes("S4"), get_classes("A4")):
        with pytest.raises(ValueError, match="G.classes"):
            compute_char_table(G, C)


@pytest.mark.parametrize("name,members", [
    ("S4", [0, 1]),   # an order-2 subgroup, not normal
    ("S4", 4),        # the normal subgroup of order 4, the Klein four-group
    ("Q8", 2),        # the centre
    ("aff5", 5),      # the translations
])
def test_induction_decomposes_against_a_table_computed_apart(name, members):
    # the table and the induced character come from separate calls on a
    # fresh G, and meet on G.classes
    G = build_group(FIXTURE_SPECS[name])
    if isinstance(members, int):
        members, = [N.tolist() for N in get_table(name).normal_subgroups if len(N) == members]
    H, elems = oracle.subgroup_table(G, members)
    TH = compute_char_table(H)
    want_classes = oracle.per_class_conjugacy_classes(G)
    for t in range(TH.num_irreps):
        theta = {elems[x]: complex(TH.values[t, H.classes.class_of[x]]) for x in range(H.order)}
        T = compute_char_table(G)
        got = decompose(T, induce_character(G, members, [theta[e] for e in elems]))
        want = oracle.conjugation_sum_induce(G, want_classes, elems, theta)
        assert got.tolist() == oracle._stacked_multiplicities(T, want[None])[0].tolist()


def test_inner_products_round_to_integers():
    # <chi_a, chi_b> = (1/|G|) sum over classes of |class| chi_a conj(chi_b)
    T = get_table("S5")
    gram = (T.classes.sizes * T.values) @ T.values.conj().T / T.group.order
    assert np.abs(gram - np.rint(gram.real)).max() < 1e-8
    assert np.array_equal(np.rint(gram.real), np.eye(T.num_irreps))


@pytest.mark.parametrize("case", [*sorted(FIXTURE_SPECS), "quotient", "subgroup",
                                  "unlabelled-subgroup", "C1", "S3-negative-zero"])
def test_interchange_round_trip_bit_exact(case):
    # the values block is formatted from the array, yet the document is
    # json.dumps's to the byte; the floats come back bit for bit
    if case in FIXTURE_SPECS:
        T, spec = get_table(case), FIXTURE_SPECS[case]
    elif case == "C1":
        spec = {"family": "cyclic", "params": {"n": 1}}
        T = compute_char_table(build_group(spec))
    elif case == "S3-negative-zero":
        # no fixture table holds both -0.0 and 0.0, so only this case tells
        # a writer keyed on bit patterns from one keyed on values
        S3 = get_table("S3")
        floats = S3.values.view(np.float64).copy()
        floats.flat[np.flatnonzero(floats == 0)[0]] = -0.0
        zeros = np.signbit(floats[floats == 0])
        assert zeros.any() and not zeros.all()
        T, spec = CharTable(S3.group, floats.view(np.complex128)), FIXTURE_SPECS["S3"]
    else:
        cases = ["quotient", "subgroup", "unlabelled-subgroup"]
        G = _quotient_and_subgroup_tables()[cases.index(case)]
        T, spec = compute_char_table(G), oracle.cayley_spec(G)
    text = dumps_interchange(T, spec)
    assert text == json.dumps(oracle.to_interchange(T, spec), indent=2)
    T2 = from_interchange(json.loads(text))
    assert dumps_interchange(T2, spec) == text
    assert T2.dims.tolist() == T.dims.tolist()
    assert np.array_equal(T2.values, T.values)
    assert T2.source == "imported"


def test_cayley_interchange_keeps_one_table_and_writes_lists():
    table = get_group("S3").mul.tolist()
    spec = {"type": "cayley", "table": table}
    G = build_group(spec)
    T = compute_char_table(G, conjugacy_classes(G))
    text = dumps_interchange(T, spec)
    assert json.loads(text)["group"] == {"type": "cayley", "table": table}
    assert dumps_interchange(from_interchange(json.loads(text)), spec) == text


def _quotient_and_subgroup_tables():
    D6, S4 = build_group({"family": "dihedral", "params": {"n": 6}}), get_group("S4")
    unlabelled = build_group({"type": "cayley", "table": D6.mul.tolist()})
    A4 = normal_subgroups(get_table("S4"))[2]
    assert len(A4) == 12
    return [groups.quotient(D6, center(D6)), oracle.subgroup_table(S4, A4)[0],
            oracle.subgroup_table(unlabelled, center(unlabelled))[0]]


@pytest.mark.parametrize("case", range(3))
def test_quotient_and_subgroup_tables_round_trip(case):
    # no spec builds a quotient or subgroup table, so its document carries
    # its cayley spec: the table, and the labels where there are any
    G = _quotient_and_subgroup_tables()[case]
    T = compute_char_table(G)
    text = dumps_interchange(T, oracle.cayley_spec(G))
    spec = json.loads(text)["group"]
    assert spec["type"] == "cayley" and spec["table"] == G.mul.tolist()
    assert spec.get("labels") == G.labels
    assert ("labels" in spec) == (G.labels is not None)
    T2 = from_interchange(json.loads(text))
    assert np.array_equal(T2.group.mul, G.mul) and T2.group.labels == G.labels
    assert dumps_interchange(T2, spec) == text
    assert T2.dims.tolist() == T.dims.tolist()
    assert np.array_equal(T2.values, T.values)
    assert T2.classes.sizes.tolist() == T.classes.sizes.tolist()
    assert T2.classes.representatives.tolist() == T.classes.representatives.tolist()
    assert T2.classes.class_of.tolist() == T.classes.class_of.tolist()


def test_interchange_rejects_tampering():
    T = get_table("S3")
    doc = json.loads(dumps_interchange(T, FIXTURE_SPECS["S3"]))
    doc["values"][2][0][0] = 3.0   # break chi(e) of the 2-dim irrep
    with pytest.raises(CharTableError):
        from_interchange(doc)
    doc2 = json.loads(dumps_interchange(T, FIXTURE_SPECS["S3"]))
    doc2["dims"] = [1, 1, 3]
    with pytest.raises(CharTableError):
        from_interchange(doc2)
    doc3 = json.loads(dumps_interchange(T, FIXTURE_SPECS["S3"]))
    doc3["dims"] = [1, 1, 1]      # the identity column agrees; 1 + 1 + 1 != 6
    doc3["values"][2][0] = [1.0, 0.0]
    with pytest.raises(CharTableError, match="^dims violate sum of squares$"):
        from_interchange(doc3)


def test_interchange_rejects_dims_contradicting_identity_column():
    doc = json.loads(dumps_interchange(get_table("S3"), FIXTURE_SPECS["S3"]))
    assert doc["dims"] == [1, 1, 2]
    doc["dims"] = [1, 2, 1]      # squares still sum to |G|
    with pytest.raises(CharTableError, match="identity column"):
        from_interchange(doc)


def test_interchange_rejects_nontrivial_first_row():
    doc = json.loads(dumps_interchange(get_table("S3"), FIXTURE_SPECS["S3"]))
    doc["values"][0], doc["values"][1] = doc["values"][1], doc["values"][0]
    with pytest.raises(CharTableError, match="trivial character"):
        from_interchange(doc)


def test_interchange_computes_column_residual():
    T = get_table("aff7")
    T2 = from_interchange(json.loads(dumps_interchange(T, FIXTURE_SPECS["aff7"])))
    # the values round-trip bit for bit, so both residuals are recomputed
    # from the same numbers as the computed table's
    assert T2.quality["row_residual"] == T.quality["row_residual"]
    assert T2.quality["col_residual"] == T.quality["col_residual"]
    doc = json.loads(dumps_interchange(T, FIXTURE_SPECS["aff7"]))
    doc["values"][1][1][0] += 1e-3
    with pytest.raises(CharTableError, match="orthogonality"):
        from_interchange(doc)


@pytest.mark.parametrize("spec", [*FIXTURE_SPECS.values(),
                                  {"family": "cyclic", "params": {"n": 120}},
                                  {"family": "extraspecial", "params": {"p": 7}},
                                  {"family": "affine", "params": {"p": 31}}])
def test_canonical_irrep_order_matches_rounded_tuple_key(spec):
    # the finished table is already in canonical order, so shuffle its rows
    G = build_group(spec)
    T = compute_char_table(G)
    rng = np.random.default_rng(T.num_irreps)
    for _ in range(3):
        shuffle = rng.permutation(T.num_irreps)
        chars, dims = T.values[shuffle], T.dims[shuffle]
        order = _canonical_irrep_order(chars, dims)
        assert order.tolist() == oracle.rounded_tuple_irrep_order(chars, dims)
        assert np.array_equal(chars[order], T.values)


def test_a_table_holding_nan_is_not_certified():
    # a NaN residual compares false with TOL either way round
    T = get_table("S3")
    chars = T.values.copy()
    chars[2, 1] = np.nan
    with pytest.raises(CharTableError, match="orthogonality residual"):
        _certified_table(T.group, chars)


def test_quality_metrics_present():
    T = get_table("A5")
    assert T.quality["row_residual"] < 1e-10
    assert T.quality["col_residual"] < 1e-10
    assert T.quality["attempts"] >= 1


def test_quality_seed_is_the_seed_of_the_certified_attempt(monkeypatch):
    # attempt k draws its recombination from random.Random(k)
    certify, calls = chartable._certified_table, []

    def fail_once(*args, **kwargs):
        calls.append(kwargs["seed"])
        if len(calls) == 1:
            raise CharTableError("refused once")
        return certify(*args, **kwargs)

    monkeypatch.setattr(chartable, "_certified_table", fail_once)
    G, C = get_group("S4"), get_classes("S4")
    T = compute_char_table(G, C)
    assert calls == [0, 1]
    assert T.quality["attempts"] == 2 and T.quality["seed"] == 1


def _toeplitz(r):
    """1 / (1 + |i - j|): eigenvalue gaps above 0.06 and eigenvectors at
    least 0.2 at the identity class on S4, but normalized dims 3.42, 4.05,
    ..., none an integer."""
    k = np.arange(r)
    return 1.0 / (1 + np.abs(np.subtract.outer(k, k)))


# a class matrix that fails each check of _eigen_table's attempt, and the
# reason that attempt records
_FAILED_SOLVES = pytest.mark.parametrize("bad, reason", [
    (np.eye, "eigenvalue collision"),
    (lambda r: np.diag(np.arange(1.0, r + 1)), "degenerate eigenvector at identity class"),
    (_toeplitz, "dimension certification failed"),
], ids=["collision", "unit-eigenvectors", "non-integral-dims"])


@_FAILED_SOLVES
def test_a_failed_eigen_solve_retries_with_the_next_seed(bad, reason, monkeypatch):
    class_matrix, calls = groups.class_matrix, []

    def fail_once(G, coeffs):
        calls.append(coeffs)
        return bad(len(coeffs)) if len(calls) == 1 else class_matrix(G, coeffs)

    monkeypatch.setattr(groups, "class_matrix", fail_once)
    T = compute_char_table(get_group("S4"))
    assert len(calls) == 2
    assert T.quality["attempts"] == 2 and T.quality["seed"] == 1
    assert T.dims.tolist() == get_table("S4").dims.tolist()
    assert np.abs(T.values - get_table("S4").values).max() < config.TOL


@_FAILED_SOLVES
def test_an_eigen_solve_that_always_fails_gives_up(bad, reason, monkeypatch):
    monkeypatch.setattr(groups, "class_matrix", lambda G, coeffs: bad(len(coeffs)))
    with pytest.raises(CharTableError, match=f"not certified after "
                                             f"{config.MAX_EIG_ATTEMPTS} attempts: {reason}"):
        compute_char_table(get_group("S4"))


def test_a_char_table_reads_its_dims_off_the_identity_column():
    # dims are not handed over, so they cannot disagree with the values
    T = get_table("S4")
    values = T.values.copy()
    values[:, 0] += 1e-9
    nudged = CharTable(T.group, values)
    assert nudged.dims.tolist() == np.rint(values[:, 0].real).tolist() == [1, 1, 2, 3, 3]
    assert nudged.dims.dtype == np.int64 and not nudged.dims.flags.writeable


@pytest.mark.parametrize("spec, cells", [
    ({"family": "alternating", "params": {"n": 7}}, 9 * 2520),
    ({"family": "symmetric", "params": {"n": 7}}, 15 * 5040),
    ({"family": "product", "params": {"left": {"family": "alternating", "params": {"n": 5}},
                                      "right": {"family": "alternating", "params": {"n": 5}}}},
     25 * 3600),
    ({"family": "extraspecial", "params": {"p": 13}}, 181 * 2197)],
    ids=["A7", "S7", "A5xA5", "ES13"])
def test_tables_above_order_2000_are_gated_on_cells(spec, cells):
    # orders past 2000 whose r * |G| is inside TABLE_CELLS
    G = build_group(spec)
    T = compute_char_table(G)
    assert T.num_irreps * G.order == cells <= config.TABLE_CELLS
    assert int(np.sum(T.dims ** 2)) == G.order


@pytest.mark.parametrize("name", sorted(FIXTURE_SPECS))
def test_orthogonality_and_dims(name):
    G, T = get_group(name), get_table(name)
    r = T.num_irreps
    w = T.classes.sizes / G.order
    gram = (T.values * w) @ T.values.conj().T
    assert np.max(np.abs(gram - np.eye(r))) < 1e-8
    assert int(np.sum(T.dims ** 2)) == G.order
    assert np.allclose(T.values[:, 0].real, T.dims)
    assert np.allclose(T.values[0], 1.0)


_C2 = {"group": {"family": "cyclic", "params": {"n": 2}}, "class_sizes": [1, 1],
       "class_reps": [0, 1], "dims": [1, 1],
       "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 0.0]]]}


@pytest.mark.parametrize("doc, message", [
    ({}, "'class_sizes' must be"),
    ([1, 2], "JSON object"),
    (None, "JSON object"),
    ({**_C2, "values": [[1, 1], [1, -1]]}, "'values' must be"),
    ({**_C2, "values": [[[1, 0, 0], [1, 0]], [[1, 0], [-1, 0]]]}, "'values' must be"),
    ({**_C2, "values": [[[True, 0], [1, 0]], [[1, 0], [-1, 0]]]}, "'values' must be"),
    ({**_C2, "values": 7}, "'values' must be"),
    ({**_C2, "dims": [1, 1.0]}, "'dims' must be"),
    ({**_C2, "dims": 2}, "'dims' must be"),
    ({**_C2, "class_reps": [0, "1"]}, "'class_reps' must be"),
    ({**_C2, "group": None}, "group spec"),
    ({**_C2, "group": {"family": "cyclic", "params": {"n": 0}}}, "group spec"),
    ({**_C2, "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0]]]}, "wrong shape"),
    ({**_C2, "dims": [1, 2 ** 70]}, "out of range"),
    # orthogonal, with squares summing to |G|, but a character of degree -1
    ({**_C2, "dims": [1, -1], "values": [[[1.0, 0.0], [1.0, 0.0]],
                                         [[-1.0, 0.0], [1.0, 0.0]]]}, "positive"),
    ({**_C2, "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [2 ** 1100, 0]]]},
     "out of range"),
    ({**_C2, "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [float("nan"), 0]]]},
     "finite"),
    # finite, but past sqrt(|G|), the bound on a character's values
    ({**_C2, "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [1e308, 0]]]},
     "exceeds sqrt"),
    ({**_C2, "values": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [-1.0, 1.5]]]},
     "exceeds sqrt"),
], ids=lambda v: v if isinstance(v, str) else json.dumps(v)[-40:])
def test_interchange_rejects_malformed_documents(doc, message):
    assert from_interchange(_C2).dims.tolist() == [1, 1]
    with pytest.raises(CharTableError, match=message):
        from_interchange(doc)
