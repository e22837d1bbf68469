"""Acceptance suite: one test per shipped criterion, each at its stated
tolerance, printing a PASS line when it completes.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.
"""

import functools
import json
import math
import os
from fractions import Fraction

import numpy as np
import pytest

import oracle
from conftest import element_order
from tqrgroups import (build_chain, build_counterexample_rep, build_group,
                       center, center_free_quotient_chain, check_qr, check_tqr,
                       compute_char_table, conjugacy_classes, decompose,
                       normal_subgroups, plancherel, quotient, support_measure_frac,
                       t_step_distribution, translate_cover)
from tqrgroups.classfuncs import character_of
from tqrgroups.criteria import CriteriaParams
from tqrgroups.markov import distances_to_stationary
from tqrgroups import cli

TOL = 1e-8


def _passline(num, name):
    print(f"\nACCEPTANCE {num:02d} {name}: PASS", flush=True)


def _spec(name):
    fam, _, arg = name.partition(":")
    if fam == "product":
        left, right = arg.split("|")
        return {"family": "product", "params": {"left": _spec(left),
                                                "right": _spec(right)}}
    if fam == "quaternion8":
        return {"family": "quaternion8", "params": {}}
    key = "p" if fam in ("affine", "extraspecial") else "n"
    return {"family": fam, "params": {key: int(arg)}}


ACCEPTANCE_FIXTURES = (
    [f"cyclic:{n}" for n in range(1, 65)]
    + [f"dihedral:{n}" for n in range(1, 17)]
    + ["symmetric:3", "symmetric:4", "symmetric:5",
       "alternating:4", "alternating:5", "quaternion8",
       "extraspecial:3", "extraspecial:5",
       "affine:5", "affine:7", "affine:11", "affine:13",
       "product:cyclic:2|symmetric:4", "product:cyclic:2|symmetric:3",
       "product:cyclic:3|dihedral:4"]
)


@functools.lru_cache(maxsize=None)
def table_of(name):
    G = build_group(_spec(name))
    C = conjugacy_classes(G)
    return G, C, compute_char_table(G, C)


def _measure_array(T):
    return T.dims.astype(np.float64) ** 2 / T.group.order


def _random_support(rng, probs, p_include):
    mask = rng.random(len(probs)) < p_include
    return mask


def _reduced_char_values(T, mask):
    dims = T.dims.astype(np.float64)
    return ((mask * dims) @ T.values) / T.group.order


def _covering_mult(T, masks):
    """Multiplicities of the tensor product of the reduced reps with the
    given support masks, by one certified decomposition."""
    dims = T.dims.astype(np.float64)
    vals = np.ones(T.num_irreps, dtype=np.complex128)
    for m in masks:
        vals = vals * ((m * dims) @ T.values)
    return decompose(T, vals)


def test_c01_character_table_validity():
    for name in ACCEPTANCE_FIXTURES:
        G, C, T = table_of(name)
        r = T.num_irreps
        w = C.sizes / G.order
        gram = (T.values * w) @ T.values.conj().T
        row_res = float(np.max(np.abs(gram - np.eye(r))))
        col = T.values.conj().T @ T.values
        col_res = float(np.max(np.abs((col - np.diag(G.order / C.sizes))
                                      * (C.sizes / G.order))))
        assert row_res < TOL, name
        assert col_res < TOL, name
        assert int(np.sum(T.dims ** 2)) == G.order, name
    _passline(1, "character-table validity")


def test_c02_two_factor_covering_soundness():
    quota = math.ceil(10_000 / len(ACCEPTANCE_FIXTURES))
    total = 0
    for name in ACCEPTANCE_FIXTURES:
        G, C, T = table_of(name)
        probs = _measure_array(T)
        fracs = [Fraction(int(d) ** 2, G.order) for d in T.dims]
        rng = np.random.default_rng(202)
        accepted = 0
        tries = 0
        while accepted < quota and tries < 200 * quota:
            tries += 1
            q = (0.5, 0.7, 0.9, 1.0)[tries % 4]
            m1 = _random_support(rng, probs, q)
            m2 = _random_support(rng, probs, q)
            if not (m1.any() and m2.any()):
                continue
            s1 = sum((f for f, b in zip(fracs, m1) if b), Fraction(0))
            s2 = sum((f for f, b in zip(fracs, m2) if b), Fraction(0))
            if s1 + s2 <= 1:
                continue
            mult = _covering_mult(T, [m1, m2])
            assert np.all(mult > 0), (name, m1, m2)
            accepted += 1
        assert accepted >= quota, name
        total += accepted
    assert total >= 10_000
    _passline(2, f"two-factor covering sound on {total} guaranteed pairs")


def test_c03_three_factor_covering_soundness():
    eligible = []
    for name in ACCEPTANCE_FIXTURES:
        G, C, T = table_of(name)
        c = C.min_nontrivial_size
        if c is not None and c >= 2:
            eligible.append(name)
    quota = math.ceil(10_000 / len(eligible))
    total = 0
    for name in eligible:
        G, C, T = table_of(name)
        c = C.min_nontrivial_size
        probs = _measure_array(T)
        fracs = [Fraction(int(d) ** 2, G.order) for d in T.dims]
        rng = np.random.default_rng(303)
        accepted = 0
        tries = 0
        while accepted < quota and tries < 400 * quota:
            tries += 1
            q = (0.8, 0.9, 1.0)[tries % 3]
            masks = [_random_support(rng, probs, q) for _ in range(3)]
            if not all(m.any() for m in masks):
                continue
            ms = [sum((f for f, b in zip(fracs, m) if b), Fraction(0))
                  for m in masks]
            prod = ms[0] * ms[1] * ms[2]
            if prod * prod * c <= 1:
                continue
            mult = _covering_mult(T, masks)
            assert np.all(mult > 0), (name, masks)
            accepted += 1
        assert accepted >= quota, name
        total += accepted
    assert total >= 10_000

    # the worked instance: the 4-dim irreducible of the affine group of F_5
    G, C, T = table_of("affine:5")
    rho = np.arange(T.num_irreps) == 4
    m = support_measure_frac(T, rho)
    assert m ** 3 == Fraction(64, 125)            #0.512 > 0.5
    assert (m ** 3) ** 2 * C.min_nontrivial_size > 1
    cube = T.values[4] ** 3
    assert decompose(T, cube).tolist() == [3, 3, 3, 3, 13]
    # cross-check against the hand-assembled table of the affine group
    reps_o, sizes_o, chars_o = oracle.affine_char_table_by_hand(5)
    assert sizes_o == C.sizes.tolist()
    assert [int(r) for r in C.representatives] == reps_o
    rho_o = chars_o[-1]
    cube_o = rho_o ** 3
    w = np.asarray(sizes_o) / G.order
    mult_o = [int(round(np.sum(w * cube_o * np.conj(ch)).real))
              for ch in sorted(chars_o, key=lambda c: (round(c[0].real),
                                                       tuple(np.round(c.real, 6))))]
    assert sorted(mult_o) == [3, 3, 3, 3, 13]
    _passline(3, f"three-factor covering sound on {total} guaranteed triples "
                 "+ affine(5) instance")


def test_c04_offidentity_sup_norm_bound():
    checked = 0
    for name in ACCEPTANCE_FIXTURES:
        G, C, T = table_of(name)
        r = T.num_irreps
        c = C.min_nontrivial_size
        if r > 12 or c is None:
            continue
        bound = c ** -0.5 + TOL
        bits = ((np.arange(1 << r)[:, None] >> np.arange(r)) & 1).astype(float)
        weighted = T.dims[:, None] * T.values / G.order
        all_vals = bits @ weighted          # (2^r, r) reduced characters
        off_identity = np.abs(all_vals[1:, 1:]) if r > 1 else np.zeros((0, 0))
        if off_identity.size:
            assert float(off_identity.max()) <= bound, name
        checked += 1
    assert checked >= 30
    _passline(4, f"off-identity sup-norm bound exhaustive on {checked} fixtures")


def test_c05_markov_stationarity_and_identity():
    for name in ACCEPTANCE_FIXTURES:
        G, C, T = table_of(name)
        r = T.num_irreps
        rng = np.random.default_rng(505)
        dims = T.dims.astype(np.float64)
        w = C.sizes / G.order
        for _ in range(3):
            mask = rng.integers(0, 2, r)
            if not mask.any():
                mask[int(rng.integers(r))] = 1
            V = mask > 0
            kernel = build_chain(T, V)
            pi = plancherel(T)
            assert np.max(np.abs(pi @ kernel - pi)) < TOL, name
            red_vals = character_of(T, T.dims * V)
            dim_red = float(sum(dims[i] ** 2 for i in np.flatnonzero(V)))
            P_t = np.eye(r)
            for t in range(5):
                if t > 0:
                    P_t = P_t @ kernel
                prod = T.values * red_vals[None, :] ** t
                mult = (prod * w[None, :]) @ T.values.conj().T
                direct = mult.real * dims[None, :] / (dims[:, None] * dim_red ** t)
                assert np.max(np.abs(P_t - direct)) < TOL, (name, t)
    _passline(5, "markov stationarity and t-step identity (t <= 4)")


def test_c06_constant_time_mixing_positive():
    distances = []
    for p in (5, 7, 11, 13):
        G, C, T = table_of(f"affine:{p}")
        V = np.arange(T.num_irreps) == T.num_irreps - 1
        kernel = build_chain(T, V)
        worst = max(
            distances_to_stationary(T, t_step_distribution(kernel, lam, 3))["uniform"]
            for lam in range(T.num_irreps))
        c = C.min_nontrivial_size
        mv = float(support_measure_frac(T, V))
        bound = c ** -0.5 / mv ** 3
        assert worst <= bound, p
        distances.append(worst)
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    _passline(6, f"uniform distance at t=3 within proof bound, decreasing: "
                 f"{[round(d, 6) for d in distances]}")


def test_c07_nonmixing_negative_direction():
    G, C, T = table_of("product:cyclic:2|symmetric:4")
    # the unique central involution generates the direct C2 factor
    zs = [x for x in center(G).tolist() if element_order(G, x) == 2]
    assert len(zs) == 1
    zc = int(C.class_of[zs[0]])
    trivial_on_c2 = [lam for lam in range(T.num_irreps)
                     if abs(T.values[lam, zc] - T.dims[lam]) < 1e-9]
    V = np.isin(np.arange(T.num_irreps), trivial_on_c2)
    assert support_measure_frac(T, V) == Fraction(1, 2)
    kernel = build_chain(T, V)
    inaccessible = [lam for lam in range(T.num_irreps)
                    if lam not in trivial_on_c2]
    mass = float(sum(plancherel(T)[inaccessible]))
    dist = np.zeros(T.num_irreps)
    dist[0] = 1.0
    for t in range(1, 65):
        dist = dist @ kernel
        assert np.all(dist[inaccessible] == 0.0), t
        d = distances_to_stationary(T, dist)
        assert d["tv_half_l1"] >= mass - TOL, t
    _passline(7, "pullback driver leaves half of Irrep inaccessible for 64 steps")


def test_c08_translate_cover_batch():
    from tqrgroups import AbelianGroup
    rng = np.random.default_rng(808)
    count = 0
    while count < 100:
        k = int(rng.integers(1, 4))
        m = int(rng.integers(1, 5))
        n = int(rng.integers(1, 7))
        if rng.random() < 0.5:
            pts = set()
            while len(pts) < k + 1:
                pts.add(tuple(int(v) for v in rng.integers(-5, 6, k)))
            tc = translate_cover(sorted(pts), n, m)
        else:
            factors = []
            d = 1
            for _ in range(k):
                d *= int(rng.choice([2, 3]))
                factors.append(d)
            K = AbelianGroup(tuple(factors))
            pts = set()
            while len(pts) < min(k + 1, K.order):
                pts.add(tuple(K.coords[int(rng.integers(K.order))].tolist()))
            if len(pts) < k + 1:
                continue
            tc = translate_cover(sorted(pts), n, m, group=K)
        # the constructor itself verifies exhaustive membership; re-check count
        assert tc["count"] <= tc["bound"]
        count += 1
    _passline(8, f"translate covers verified on {count} seeded instances")


def test_c09_small_doubling_counterexample_and_partition():
    G, C, T = table_of("cyclic:12")
    N = [s for s in normal_subgroups(T) if len(s) == 12][0]
    V, rep = build_counterexample_rep(T, N, 2, epsilon=Fraction(1, 4))
    assert support_measure_frac(T, V > 0) >= Fraction(1, 4)
    support_mv = Fraction(*rep["measure_v_exact"])
    assert support_mv == support_measure_frac(T, V > 0)
    from tqrgroups.classfuncs import power_support_mask
    pw = power_support_mask(T, V > 0, 2)
    assert support_measure_frac(T, pw) <= Fraction(1, 2)
    for name in ("quaternion8", "dihedral:4"):
        Gn, Cn, Tn = table_of(name)
        # N = Z(G) is central, so each dual orbit is one character theta of
        # it, and the orbit blocks are the partition by the V_theta
        _, out = build_counterexample_rep(Tn, center(Gn), 2)
        assert out["orbit_partition_ok"] and out["orbit_measures_ok"]
        assert [b["measure"] for b in out["orbit_blocks"]] == [0.5, 0.5]
    _passline(9, "cyclic(12) construction exact; central partitions exact on "
                 "Q8 and D4")


def test_c10_affine_family_and_quotient_chains():
    for p in (5, 7, 11):
        G, C, T = table_of(f"affine:{p}")
        assert C.min_nontrivial_size == p - 1
        params = CriteriaParams(k=p - 2)
        tqr1 = check_tqr(T, params)[0]
        assert tqr1.holds and tqr1.details["c"] == p - 1
        qr4 = {r.criterion: r for r in check_qr(T)}["qr4"]
        assert qr4.holds is False
        assert qr4.witness["kind"] == "abelian_quotient"
        assert qr4.witness["quotient_order"] == p - 1
        for N in normal_subgroups(T):
            if 1 < len(N) < G.order:
                assert quotient(G, N).is_abelian()
    chain_a5 = center_free_quotient_chain(build_group(_spec("alternating:5")))
    assert len(chain_a5) == 1 and chain_a5[-1].order == 60
    assert len(center(chain_a5[-1])) == 1
    chain_q8 = center_free_quotient_chain(build_group(_spec("quaternion8")))
    assert chain_q8[-1].order == 1
    _passline(10, "affine family reproduction and quotient chains")


def test_c11_suite_determinism(tmp_path):
    cfg = os.path.join(os.path.dirname(__file__), "..", "suites",
                       "acceptance.json")
    cfg = os.path.abspath(cfg)
    blobs = []
    for sub in ("run1", "run2"):
        outdir = tmp_path / sub
        code = cli.main(["suite", "--config", cfg, "--outdir", str(outdir)])
        assert code == 0
        files = {}
        for fn in sorted(os.listdir(outdir)):
            files[fn] = (outdir / fn).read_bytes()
        blobs.append(files)
    assert sorted(blobs[0]) == sorted(blobs[1])
    for fn in blobs[0]:
        assert blobs[0][fn] == blobs[1][fn], f"{fn} differs between runs"
    summary = json.loads(blobs[0]["summary.json"].decode())
    statuses = [e["status"] for e in summary["experiments"]]
    assert statuses == ["ok"] * len(statuses)
    _passline(11, f"suite of {len(statuses)} experiments byte-identical "
                  "across reruns, all green")
