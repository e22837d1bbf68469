"""Finite, parameterized versions of the covering inequalities and the four
tensor-quasi-randomness criteria, plus their product-set counterparts.

Asymptotic "O(1)" thresholds from the theory become explicit parameters here;
every failed criterion carries a concrete, checkable witness.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .chartable import CharTable
from .classfuncs import (character_of, decompose, power_support_mask,
                         support_measure_frac, tensor_support_mask)
from . import config, groups
from .groups import GroupError, GroupTable, derived_subgroup, center_of_subset

TQR_CRITERIA = ("tqr1", "tqr2", "tqr3", "tqr4")
QR_CRITERIA = ("qr1", "qr2", "qr3", "qr4")

# Class-function rows per stacked decompose in the support searches.
_STACK_ROWS = 4096
# Index entries (trials * |G| * subset size) one block of QR2/QR3 trials may
# gather from the Cayley table per product step.
_QR_BLOCK_ENTRIES = 1 << 14
# The mode of a TQR2/TQR3 report decided by the complete search over the
# minimal supports, a proof either way. "+randomized" names no phase that runs;
# bench/checker.py compares verdicts with its reference only under this string.
_SEARCH_MODE = "exhaustive-minimal+randomized"
# TQR3 fails for a support whose power has measure at most this.
_POWER_MEASURE_THRESHOLD = Fraction(1, 2)
# TQR2/TQR3 sampler: draws above exhaustive_cap when no table witness refutes.
_SUPPORT_TRIALS = 200
# SplitMix64's state increment and finalizer multipliers (see _keys).
_GOLDEN_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
# Key cells per slab of the sampler: 512 KB of uint64 keys, which a QR draw
# over A6 at 0.5 (1000 x 3 x 360 keys) walks in 17 slabs, not one of 8 MB.
_KEY_CELLS = 1 << 16
# Seeds below this keep seed + 5001, the largest stream offset, below 2^64, so
# two (seed, criterion) pairs never share a stream.
_SEED_LIMIT = 2 ** 64 - 5001


@dataclass
class CriteriaParams:
    """Explicit stand-ins for the theory's O(1) constants."""

    k: int = 4                          # the small-structure bound of TQR1, QR1, TQR4, QR4
    density: float = 0.1                # measure / density floor "a"
    power: int = 3                      # tensor / product power "m"
    seed: int = 0
    trials: int = 1000                  # QR2/QR3 sampler: draws when no rule decides
    exhaustive_cap: int = 20            # max #irreps for exhaustive support search

    def __post_init__(self):
        if not 0 < self.density <= 1:  # also refuses nan
            raise ValueError(f"density must be in (0, 1], got {self.density!r}")
        for name, least in (("power", 1), ("trials", 1), ("exhaustive_cap", 0),
                            ("seed", 0), ("k", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}, "
                                 f"got {getattr(self, name)!r}")
        if self.seed >= _SEED_LIMIT:
            raise ValueError(f"seed must be < {_SEED_LIMIT}, got {self.seed!r}")

    def density_frac(self) -> Fraction:
        return Fraction(str(self.density))

    def to_json_dict(self) -> dict:
        """The parameters as every report echoes them, each threshold by its
        own name: k is TQR1's class_threshold, QR1's dim_threshold, TQR4's
        normal_size and normal_index, and QR4's quotient_size."""
        return {"class_threshold": self.k, "dim_threshold": self.k,
                "density": self.density, "power": self.power,
                "power_measure_threshold": float(_POWER_MEASURE_THRESHOLD),
                "normal_size": self.k, "normal_index": self.k, "quotient_size": self.k,
                "seed": self.seed, "trials": self.trials,
                "support_trials": _SUPPORT_TRIALS, "exhaustive_cap": self.exhaustive_cap}


@dataclass
class CriterionReport:
    criterion: str
    holds: bool | None
    parameters: dict
    witness: dict | None = None
    mode: str = "exact"
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {"criterion": self.criterion, "holds": self.holds,
                "mode": self.mode, "parameters": self.parameters,
                "witness": self.witness, "details": self.details,
                "error": None}     # a key of the report format; no criterion sets it


@dataclass
class CoverReport:
    kind: str
    measures: list[float]
    guaranteed: bool
    covered: bool
    missing: tuple[int, ...]
    threshold: float | None = None

    def to_json_dict(self) -> dict:
        return {**vars(self), "missing": list(self.missing)}


# ---------------------------------------------------------------------------
# Covering checks


def two_factor_cover(T: CharTable, V1: np.ndarray, V2: np.ndarray) -> CoverReport:
    """Guarantee M(V1)+M(V2) > 1 versus the exact covering status of V1 (x) V2,
    for supports V1, V2."""
    m1, m2 = support_measure_frac(T, V1), support_measure_frac(T, V2)
    guaranteed = (m1 + m2) > 1
    prod = tensor_support_mask(T, V1, V2)
    return CoverReport("two_factor", [float(m1), float(m2)], bool(guaranteed),
                       bool(prod.all()), tuple(np.flatnonzero(~prod).tolist()))


def three_factor_cover(T: CharTable, V1: np.ndarray, V2: np.ndarray,
                       V3: np.ndarray) -> CoverReport:
    """Guarantee M1*M2*M3 > c(G)^(-1/2) versus exact covering of the triple."""
    if T.group.order <= 1:
        raise GroupError("three-factor bound needs a nontrivial group")
    c = T.classes.min_nontrivial_size
    ms = [support_measure_frac(T, V) for V in (V1, V2, V3)]
    prod_m = ms[0] * ms[1] * ms[2]
    # exact comparison: (M1 M2 M3)^2 * c > 1 avoids the irrational sqrt
    guaranteed = prod_m > 0 and (prod_m * prod_m * c) > 1
    prod = tensor_support_mask(T, tensor_support_mask(T, V1, V2), V3)
    return CoverReport("three_factor", [float(m) for m in ms], bool(guaranteed),
                       bool(prod.all()), tuple(np.flatnonzero(~prod).tolist()),
                       threshold=c ** -0.5)


def multiplicity_profile(T: CharTable, V1: np.ndarray, V2: np.ndarray,
                         V3: np.ndarray) -> dict:
    """Exact multiplicities of each irreducible in the tensor product of the
    three reduced representations (each chi in a support taken chi(1) times),
    with deviation from proportionality to dim.
    """
    n = T.group.order
    a = [float(support_measure_frac(T, V)) for V in (V1, V2, V3)]
    if not all(V.any() for V in (V1, V2, V3)):
        return {"multiplicities": [0] * T.num_irreps, "deviations": None,
                "measures": a, "max_deviation": None, "deviation_bounds": None}
    chars = [character_of(T, T.dims * V) for V in (V1, V2, V3)]
    mult = decompose(T, chars[0] * chars[1] * chars[2])
    base = n * n * a[0] * a[1] * a[2] * T.dims.astype(np.float64)
    dev = np.abs(mult / base - 1.0)
    c = T.classes.min_nontrivial_size
    bounds = None
    if c is not None:
        bounds = (c ** -0.5 / (a[0] * a[1] * a[2] * T.dims.astype(np.float64))).tolist()
    return {"multiplicities": mult.tolist(), "deviations": dev.tolist(),
            "measures": a, "max_deviation": float(dev.max()),
            "deviation_bounds": bounds}


# ---------------------------------------------------------------------------
# Support search machinery


def _minimal_supports(T: CharTable, dens: Fraction) -> np.ndarray:
    """All supports of measure >= dens minimal under element removal, as the
    rows of an (s, r) boolean array in ascending order of sum 2^i.

    Covering failure is preserved by shrinking supports, so exhaustive search
    over these supports is exhaustive over all supports of measure >= dens.
    Exact integer depth-first search by descending dim over int masks (bit i
    for irreducible i): a branch is emitted once its sum of dim^2 reaches
    _density_floor, so its last and lightest member took it over and every
    removal falls below; it is cut once the weights left cannot reach that.
    The sorted masks, unpacked from their little-endian bytes, are the rows.
    """
    r = T.num_irreps
    order = sorted(range(r), key=lambda i: (-int(T.dims[i]), i))
    weight = [int(T.dims[i]) ** 2 for i in order]
    need = _density_floor(T.group.order, dens)
    rest = list(itertools.accumulate(reversed(weight), initial=0))[::-1]
    found, branches = [], [(0, 0, 0)]   # (next position, weight sum, member mask)
    while branches:
        start, total, mask = branches.pop()
        for j in range(start, r):
            if total + rest[j] < need:
                break
            t, m = total + weight[j], mask | 1 << order[j]
            if t >= need:
                found.append(m)
            else:
                branches.append((j + 1, t, m))
    width = (r + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in sorted(found)), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=r, bitorder="little").view(bool)


def _density_floor(order: int, dens: Fraction) -> int:
    """The least count m with m / order >= dens, exactly: the least sum of
    dim^2 of a support of measure >= dens, and the least size of a subset of
    density >= dens."""
    return -(-dens.numerator * order // dens.denominator)


def _keys(seed, lo, hi):
    """The sampler's keys at stream indices lo..hi-1 of the stream `seed`:
    SplitMix64's finalizer of seed + (i + 1) * _GOLDEN_GAMMA (Steele, Lea
    and Flood, Fast splittable pseudorandom number generators, OOPSLA 2014),
    the (i + 1)-th output of SplitMix64 seeded with `seed`, mod 2^64."""
    z = np.arange(lo + 1, hi + 1, dtype=np.uint64)
    z *= _GOLDEN_GAMMA
    z += np.uint64(seed)
    z ^= z >> 30
    z *= _MIX_1
    z ^= z >> 27
    z *= _MIX_2
    z ^= z >> 31
    return z


def _random_stacks(seed, weight, need, count, width, block):
    """(None, stack) pairs of `count` seeded draws of `width` sets of items,
    in (b, width, items) boolean stacks of at most `block` draws.

    A set is the items in the order of their keys, cut after the first prefix
    whose weight reaches `need`: so it meets the floor, and its last member
    took it over. Item j of row t (draw t // width, set t % width) has key
    _keys at stream index t * items + j. The finalizer is a bijection of
    distinct states, so no two keys tie, each set is the items whose keys are
    at most its last member's, and each is a pure function of (seed, row).
    Rows are keyed as many stacks at a time as fit in _KEY_CELLS cells (at
    least one).
    """
    items, rows = len(weight), width * block
    # no cut prefix is longer than the lightest items that reach need
    longest = int(np.searchsorted(np.cumsum(np.sort(weight)), need)) + 1
    step = rows * max(1, _KEY_CELLS // (items * rows))
    for lo in range(0, width * count, step):
        hi = min(lo + step, width * count)
        keys = _keys(seed, lo * items, hi * items).reshape(hi - lo, items)
        order = keys.argsort(axis=1)[:, :longest]
        cut = (np.cumsum(weight[order], axis=1) < need).sum(axis=1)
        t = np.arange(hi - lo)
        sets = keys <= keys[t, order[t, cut]][:, None]
        for b in range(0, len(sets), rows):
            yield None, sets[b:b + rows].reshape(-1, width, items)


def _decide(check, stages):
    """(mode, checked, rule, witness) of the first of `stages` that decides.

    A stage is (mode, final, batches), with batches (rule, stack) pairs;
    check(stack) gives the place and witness of the first row that passes
    the measure or size floor and whose product or power fails, or None. A
    stage decides at its first refuted row, counting its rows up to it, and
    a final stage (a complete search, a proof, the sampler, always last)
    also when its rows run out, with the last rule and no witness.
    """
    for mode, final, batches in stages:
        checked, rule = 0, None
        for rule, stack in batches:
            found = check(stack)
            if found is not None:
                return mode, checked + found[0] + 1, rule, found[1]
            checked += len(stack)
        if final:
            return mode, checked, rule, None


# ---------------------------------------------------------------------------
# TQR criteria


def check_tqr(T: CharTable, params: CriteriaParams | None = None,
              names=TQR_CRITERIA) -> list[CriterionReport]:
    """Evaluate the named tensor-quasi-randomness criteria (all four by
    default) with explicit thresholds; failed criteria carry concrete
    witnesses."""
    params = params or CriteriaParams()
    pjson = params.to_json_dict()
    return _evaluate(names, {"tqr1": lambda: _tqr1(T, params, pjson),
                             "tqr2": lambda: _tqr2(T, params, pjson),
                             "tqr3": lambda: _tqr3(T, params, pjson),
                             "tqr4": lambda: _tqr4(T, params, pjson)})


def _evaluate(names, evaluators: dict) -> list[CriterionReport]:
    unknown = [n for n in names if n not in evaluators]
    if unknown:
        raise ValueError(f"unknown criteria {unknown}")
    return [evaluators[n]() for n in names]


def _tqr1(T, params, pjson) -> CriterionReport:
    G, C = T.group, T.classes
    c = C.min_nontrivial_size
    if c is None:
        return CriterionReport("tqr1", True, pjson,
                               details={"c": None, "note": "trivial group"})
    holds = c > params.k
    witness = None
    if not holds:
        cid = 1 + int(np.argmin(C.sizes[1:]))
        members = np.flatnonzero(C.class_of == cid).tolist()
        witness = {"class_index": cid, "class_size": int(C.sizes[cid]),
                   "class_elements": members,
                   "labels": [G.label(x) for x in members]}
    return CriterionReport("tqr1", holds, pjson, witness=witness,
                           details={"c": c})


def _tqr2(T, params, pjson) -> CriterionReport:
    """TQR2 (does S1 (x) S2 (x) S3 contain every irreducible for all supports
    of measure >= a?). Up to exhaustive_cap irreducibles _tqr2_search decides
    alone; above it the stages of _tqr_stages go through one check, the
    support of (S1 (x) S2) (x) S3 by two stacked two-factor steps (one
    decompose of chi_S1 chi_S2 chi_S3 loses the integers on dihedral:150)."""
    dens = params.density_frac()
    need = _density_floor(T.group.order, dens)
    sq = T.dims.astype(np.int64) ** 2

    def check(triples):
        pair = tensor_support_mask(T, triples[:, 0], triples[:, 1])
        product = tensor_support_mask(T, pair, triples[:, 2])
        short = np.flatnonzero((triples @ sq >= need).all(axis=1) & ~product.all(axis=1))
        if short.size:
            t = int(short[0])
            return t, _support_witness(T, triples[t], product[t])

    if T.num_irreps <= params.exhaustive_cap:
        checked, witness = _tqr2_search(T, _minimal_supports(T, dens), dens)
        return _tqr_report("tqr2", pjson, _SEARCH_MODE, checked, None, witness)
    return _tqr_report("tqr2", pjson, *_decide(check, _tqr_stages(
        T, params, 3, 3, lambda m: m < 1, params.seed + 2001)))


def _tqr_stages(T, params, width, factors, small, seed) -> list:
    """The stages above exhaustive_cap: the table witnesses of
    _tqr_candidates, each taken `width` times, then the sampler."""
    dens = params.density_frac()
    rules = ((rule, np.tile(S, (1, width, 1)))
             for rule, S in _tqr_candidates(T, dens, factors, small))
    return [("exact", False, rules), ("randomized", True, _random_stacks(
        seed, T.dims.astype(np.int64) ** 2, _density_floor(T.group.order, dens),
        _SUPPORT_TRIALS, width, _STACK_ROWS))]


def _tqr_report(name, pjson, mode, checked, rule, witness) -> CriterionReport:
    key = "triples_checked" if name == "tqr2" else "supports_checked"
    return CriterionReport(name, witness is None, pjson, witness=witness, mode=mode, details=(
        {key: checked} if rule is None else {key: checked, "decided_by": rule}))


def _tqr_candidates(T, dens, factors, small):
    """(rule, support) of supports of measure >= dens whose `factors`-fold
    tensor power is bounded, by the table, to a measure m with small(m), in
    the order tried:

    - quotient: Irr(G/N), the irreducibles whose kernel contains N, for the
      least normal N != 1 with ceil(dens*|G|)*|N| <= |G| and small(1/|N|).
      It has measure exactly 1/|N| and is closed under (x). No N can
      qualify, and the lattice is not computed, when no divisor d of |G|
      has 1 < d <= |G| // ceil(dens*|G|).
    - central_grading: for a central z of order q, each chi has
      omega_chi(z) = chi(z)/chi(1) = zeta_q^k_chi, k adds mod q under (x),
      and each fibre k_chi = i has measure exactly 1/q. For a normal M
      containing z, Irr(G/M) lies in fibre 0 and is closed under (x), so
      S = {chi : 1 <= k_chi <= j} + Irr(G/M), j = ceil((dens - 1/|M|)*q),
      has measure j/q + 1/|M| >= dens; when factors*j < q no grade sum of
      its power wraps, so the power lies in Irr(G/M) and factors*j fibres.
      M = <z> gives {chi : k_chi < ceil(dens*q)}; then the least normal M
      strictly above <z> is tried. By Lagrange |M| >= 2q, so the lattice is
      not computed when factors*max(1, ceil(dens*q - 1/2)) >= q. A z with an
      omega_chi(z) off a q-th root of unity by more than TOL is passed over.

    A rule only proposes a set; the caller's check recomputes it. Each bound
    is >= dens (j >= 0) and small is monotone: none passes unless small(dens).
    """
    if not small(dens):
        return
    C, n = T.classes, T.group.order
    size = _density_floor(n, dens)
    if any(n % d == 0 for d in range(2, n // size + 1)):
        for N in T.normal_subgroups[1:]:
            if size * N.order > n:
                break
            if small(Fraction(1, N.order)):
                yield "quotient", _quotient_support(T, N)
                break
    central = np.flatnonzero(C.sizes == 1)[1:]
    # per order q > 1 of a central z, a divisor of |Z(G)|: can <z>, or M above z, give a set?
    tries = {qz: (factors * (math.ceil(dens * qz) - 1) < qz,
                  factors * max(1, math.ceil(dens * qz - Fraction(1, 2))) < qz)
             for qz in range(2, central.size + 2) if (central.size + 1) % qz == 0}
    if any(map(any, tries.values())):
        q = T.group.class_orders[central]
        keep = [any(tries[qz]) for qz in q.tolist()]
        central, q = central[keep], q[keep]
        omega = T.values[:, central] / T.dims[:, None]
        k = np.rint(np.angle(omega) * q / (2 * np.pi)).astype(np.int64) % q
        exact = (np.abs(omega - np.exp(2j * np.pi * k / q)) <= config.TOL).all(axis=0)
        lattice = None
        for col in np.flatnonzero(exact):
            qz, grade = int(q[col]), k[:, col]
            above = []
            if tries[qz][1]:
                lattice = lattice or [(M, set(M.members)) for M in T.normal_subgroups]
                z = int(C.representatives[central[col]])
                above = [M for M, members in lattice if M.order > qz and z in members][:1]
            for M in [None, *above]:
                m = qz if M is None else M.order
                j = math.ceil((dens - Fraction(1, m)) * qz)
                if factors * j < qz and small(Fraction(factors * j, qz) + Fraction(1, m)):
                    inside = grade == 0 if M is None else _quotient_support(T, M)
                    yield "central_grading", (grade >= 1) & (grade <= j) | inside


def _quotient_support(T, N) -> np.ndarray:
    """Irr(G/N) as a support: the irreducibles whose kernel contains N."""
    inside = sum(1 << c for c in set(T.classes.class_of[list(N.members)].tolist()))
    return np.array([k & inside == inside for k in T.kernel_masks])


def _tqr2_search(T, minimal, dens):
    """Exhaustive TQR2 search over triples of the given supports. Returns
    the number of triples checked and the witness of the first triple, in
    lexicographic order, whose product misses an irreducible, or None.

    nu is in the support of chi1 chi2 chi3 iff S3 meets
    D_nu = {mu : nu in supp(chi1 chi2 chi_mu)}, so a pair (S1, S2) ends a
    triple that misses nu iff Irrep minus D_nu has measure >= dens. Supports
    of products depend only on the supports of the factors, so D follows
    from the supports F of the r^2 products chi_a chi_b by two 0/1 matrix
    products. The first S1 = minimal[i] for which _pairs_fail finds an S2 is
    also the first of any failing triple (permuting a triple changes no
    product), so only its pairs (i, j >= i) are walked: the first j and
    third support k avoiding some D_nu give the witness and the count
    (i*s + j)*s + k + 1. The walk's 0/1 products are in floats, for BLAS,
    and exact: counts are at most r and dim^2 sums at most |G|.
    """
    r, s = T.num_irreps, len(minimal)
    sq = T.dims.astype(np.int64) ** 2
    need = _density_floor(T.group.order, dens)
    eye = np.eye(r, dtype=bool)    # F[a, (b, c)]: c in chi_a chi_b
    F = tensor_support_mask(T, eye[:, None], eye).reshape(r, r * r).astype(np.float32)
    order = sorted(range(r), key=lambda i: (-int(T.dims[i]), i))
    minimal_f, sq_f = minimal.astype(np.float32), sq.astype(np.float64)
    for i, row in enumerate(minimal):
        pair = (row @ F).reshape(r, r) @ F > 0     # pair[b, (mu, nu)]: D of (S_i, {b})
        if not _pairs_fail(pair[order].reshape(r, r, r), sq[order], sq, need):
            continue
        step = max(1, _STACK_ROWS // r)
        for lo in range(i, s, step):
            D = (minimal_f[lo:lo + step] @ pair).reshape(-1, r, r) > 0
            found = np.flatnonzero((sq_f @ ~D >= need).any(axis=1))
            if found.size:
                j = lo + int(found[0])
                product = minimal_f @ D[found[0]] > 0    # supp of (S_i, S_j, S_k)
                k = int(np.flatnonzero(~product.all(axis=1))[0])
                witness = _support_witness(T, minimal[[i, j, k]], product[k])
                return (i * s + j) * s + k + 1, witness
        raise AssertionError("the pair walk missed a failing pair")
    return s ** 3, None


def _pairs_fail(pair, weight, sq, need) -> bool:
    """Whether some S2 of dim^2 sum >= need leaves some nu a dim^2 sum >=
    need outside D, the OR of pair[b] over b in S2, by a depth-first search
    over S2 adding one b at a time in the order of pair and weight. D only
    grows, so a branch is cut once no nu is left enough or once the b left
    cannot reach need."""
    rest = np.cumsum(weight[::-1])[::-1]   # rest[j]: weight[j:] summed
    branches = [(0, 0, np.zeros(pair.shape[1:], dtype=bool))]
    while branches:
        start, total, D = branches.pop()
        grown = D | pair[start:]
        open_ = (sq @ ~grown >= need).any(axis=1)
        totals = total + weight[start:]
        if (open_ & (totals >= need)).any():
            return True
        reach = total + rest[start:] >= need
        for c in np.flatnonzero(open_ & reach)[::-1]:
            branches.append((start + c + 1, totals[c], grown[c]))
    return False


def _support_witness(T, supports, product) -> dict:
    return {"supports": [np.flatnonzero(row).tolist() for row in supports],
            "measures": [float(support_measure_frac(T, row)) for row in supports],
            "missing": np.flatnonzero(~product).tolist()}


def _tqr3(T, params, pjson) -> CriterionReport:
    """TQR3 (does every support of measure >= a have a power-fold tensor
    power of measure above the threshold?). The minimal supports up to
    exhaustive_cap, else the stages of _tqr_stages, go through one check,
    power_support_mask against the threshold."""
    dens = params.density_frac()
    need = _density_floor(T.group.order, dens)
    sq = T.dims.astype(np.int64) ** 2
    # the largest sum of dim^2 at or below the measure cutoff
    bound = math.floor(_POWER_MEASURE_THRESHOLD * T.group.order)

    def check(stack):
        rows = stack[:, 0]
        power = power_support_mask(T, rows, params.power)
        small = np.flatnonzero((rows @ sq >= need) & (power @ sq <= bound))
        if small.size:
            t = int(small[0])
            return t, {"support": np.flatnonzero(rows[t]).tolist(),
                       "measure": float(support_measure_frac(T, rows[t])),
                       "power_support": np.flatnonzero(power[t]).tolist(),
                       "power_measure": float(support_measure_frac(T, power[t]))}

    if T.num_irreps <= params.exhaustive_cap:
        minimal = _minimal_supports(T, dens)[:, None]
        stages = [(_SEARCH_MODE, True, ((None, minimal[lo:lo + _STACK_ROWS])
                                        for lo in range(0, len(minimal), _STACK_ROWS)))]
    else:
        stages = _tqr_stages(T, params, 1, params.power,
                             lambda m: m <= _POWER_MEASURE_THRESHOLD, params.seed + 3001)
    return _tqr_report("tqr3", pjson, *_decide(check, stages))


def _tqr4(T, params, pjson) -> CriterionReport:
    G = T.group
    subs = T.normal_subgroups
    witness = None
    for N in subs:
        if 1 < N.order <= params.k:
            witness = {"kind": "small_normal_subgroup", "order": N.order,
                       "members": list(N.members)}
            break
    if witness is None:
        for N in subs:
            if N.index <= params.k:
                zen = center_of_subset(G, N.members)
                if len(zen) > 1:
                    witness = {"kind": "small_index_with_center",
                               "order": N.order, "index": N.index,
                               "center_order": len(zen),
                               "center_members": list(zen)}
                    break
    return CriterionReport("tqr4", witness is None, pjson, witness=witness,
                           details={"normal_subgroup_orders":
                                    [int(s.order) for s in subs]})


# ---------------------------------------------------------------------------
# Product-set (quasi-randomness) criteria


def check_qr(T: CharTable, params: CriteriaParams | None = None,
             names=QR_CRITERIA) -> list[CriterionReport]:
    """Evaluate the named product-set quasi-randomness criteria (all four by
    default)."""
    params = params or CriteriaParams()
    pjson = params.to_json_dict()
    return _evaluate(names, {"qr1": lambda: _qr1(T, params, pjson),
                             "qr2": lambda: _qr23(T, params, pjson, triple=True),
                             "qr3": lambda: _qr23(T, params, pjson, triple=False),
                             "qr4": lambda: _qr4(T, params, pjson)})


def _qr1(T, params, pjson) -> CriterionReport:
    if T.num_irreps == 1:
        return CriterionReport("qr1", True, pjson,
                               details={"min_nontrivial_dim": None})
    dims = T.dims[1:]
    mind = int(dims.min())
    holds = mind > params.k
    witness = None
    if not holds:
        lam = 1 + int(np.argmin(dims))
        witness = {"irrep": lam, "dim": mind}
    return CriterionReport("qr1", holds, pjson, witness=witness,
                           details={"min_nontrivial_dim": mind})


def _qr23(T, params, pjson, triple: bool) -> CriterionReport:
    """QR2 (is ABC = G for all A, B, C of size s = ceil(a*|G|)?) or QR3 (is
    A^power = G for all such A?): a proof, else the s smallest members of
    each set _qr23_candidates proposes, as A = B = C, else the sampler, all
    in (b, k, s) stacks through one check, groups.product_sizes.

    Proofs: s = |G| leaves only A = G. Gowers (Quasirandom groups, CPC 17,
    2008) gives ABC = G once |A||B||C| > |G|^3 / m, m the least nontrivial
    dimension; with three sizes s that is s^3 m > |G|^3, which proves QR2,
    and QR3 at power >= 3 since A^k = A^(k-3) A^3. By pigeonhole AB = G once
    |A| + |B| > |G|, as A then meets g B^-1 for every g; 2s > |G| proves QR2,
    and QR3 at power >= 2 since A^k = A^(k-2) A^2.
    """
    G = T.group
    n = G.order
    dens = params.density_frac()
    size = _density_floor(n, dens)
    width = 3 if triple else 1

    def check(sets):    # each row holds s distinct members of each set: the size floor
        sizes = groups.product_sizes(G, sets, triple, params.power)
        short = np.flatnonzero(sizes < n)
        if short.size:
            t = int(short[0])
            return t, {"subsets": sets[t].tolist(), "product_size": int(sizes[t])}

    proof = ("full_density" if size == n else "gowers_bound"
             if (triple or params.power >= 3) and size ** 3 * int(T.dims[1:].min()) > n ** 3
             else "pigeonhole" if (triple or params.power >= 2) and 2 * size > n
             else None)
    exact = [(proof, np.empty((0, width, size), dtype=np.int64))] if proof else (
        (rule, np.tile(members[:size], (1, width, 1)))
        for rule, members in _qr23_candidates(T, dens, size, triple, params.power)
        if len(members) >= size)
    sampled = ((None, np.nonzero(sets)[-1].reshape(len(sets), width, size))
               for _, sets in _random_stacks(params.seed + (4001 if triple else 5001),
                                             np.ones(n, dtype=np.int64), size, params.trials,
                                             width, max(1, _QR_BLOCK_ENTRIES // (n * size))))
    mode, _, rule, witness = _decide(check, [("exact", proof is not None, exact),
                                             ("randomized", True, sampled)])
    details = {"subset_size": size, "decided_by": rule} if mode == "exact" else {
        "trials": params.trials, "subset_size": size,
        "note": "sampled search; absence of a witness is evidence, not proof"}
    return CriterionReport("qr2" if triple else "qr3", witness is None, pjson,
                           witness=witness, mode=mode, details=details)


def _qr23_candidates(T, dens, size, triple, power):
    """(rule, sorted members) of sets whose QR2 (triple) or QR3 product
    misses G, in the order tried, for subsets of size ceil(dens*|G|) < |G|:

    - power_one: for QR3 at power 1 any s-subset, since A^1 = A;
    - normal_subgroup: a proper normal subgroup N with |N| >= s;
    - linear_character: for chi of image order q the preimage of
      {zeta^0, ..., zeta^(t-1)}, t = ceil(dens*q), of t*|G|/q >= s elements,
      whose products take (factors)*(t-1)+1 < q values;
    - centraliser: C_G(z) of a non-central class representative z, of order
      |G|/|class| >= s;
    - normaliser: N_G(C_G(z)) for the same z, when proper.

    A proper subgroup has at most |G|/2 elements, so the subgroup rules are
    skipped above that.
    """
    G, C = T.group, T.classes
    n = G.order
    subgroups = 2 * size <= n
    if not triple and power == 1:
        yield "power_one", np.arange(size)
    if subgroups:
        for N in T.normal_subgroups:
            if size <= N.order < n:
                yield "normal_subgroup", np.array(N.members)
    linear = np.flatnonzero(T.dims == 1)[1:]
    if linear.size:
        # chi = exp(2 pi i K/n) on each class with K an integer, and the image
        # is the subgroup of Z_n generated by the K: of order q = n / gcd
        K = np.rint(np.angle(T.values[linear]) * n / (2 * np.pi)).astype(np.int64) % n
        steps = np.gcd(np.gcd.reduce(K, axis=1), n)
        for k, step in zip(K, steps.tolist()):
            q = n // step
            t = _density_floor(q, dens)
            if (3 if triple else power) * (t - 1) + 1 < q:
                yield "linear_character", np.flatnonzero(k[C.class_of] // step < t)
    if subgroups:
        z = C.representatives[C.sizes > 1]
        cents = [np.flatnonzero(groups.conjugates(G, np.arange(n), [x])[:, 0] == x) for x in z]
        for H in cents:
            if len(H) >= size:
                yield "centraliser", H
        for H in cents:
            N = _normaliser(G, H)
            if len(N) < n:
                yield "normaliser", N


def _normaliser(G: GroupTable, H: np.ndarray) -> np.ndarray:
    """N_G(H) = {g : g H g^-1 = H} for a subgroup H given by its sorted
    members, as sorted members; the conjugates are gathered in slabs of at
    most groups._SLAB_CELLS cells."""
    inside = np.zeros(G.order, dtype=bool)
    inside[H] = True
    slab = max(1, groups._SLAB_CELLS // len(H))
    keep = np.empty(G.order, dtype=bool)
    for lo in range(0, G.order, slab):
        g = np.arange(lo, min(lo + slab, G.order))
        keep[g] = inside[groups.conjugates(G, g, H)].all(axis=1)
    return np.flatnonzero(keep)


def _qr4(T, params, pjson) -> CriterionReport:
    G = T.group
    D = derived_subgroup(T)
    witness = None
    if D.order < G.order:
        # the maximal abelian quotient, G / [G, G]
        witness = {"kind": "abelian_quotient",
                   "quotient_order": G.order // D.order,
                   "kernel_order": D.order,
                   "kernel_members": list(D.members)}
    if witness is None:
        # G is perfect: the one case that needs the lattice
        for N in T.normal_subgroups:
            if 1 < N.index <= params.k:
                witness = {"kind": "small_quotient", "quotient_order": N.index,
                           "kernel_order": N.order}
                break
    return CriterionReport("qr4", witness is None, pjson, witness=witness,
                           details={"derived_subgroup_index": G.order // D.order})
