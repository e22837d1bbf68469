"""Independent brute-force oracles used to validate the library.

Nothing here touches the class-matrix solver or the library's decomposition:
the character-table oracle decomposes the regular representation by explicit
matrix arithmetic, conjugacy classes come from a double loop, class
classes also from one np.unique conjugation orbit per class, class
multiplication matrices from counting the products of one class at a time,
their recombination from one scattered add per element, restrictions from
reading a class function element by element, induced characters from a
conjugation sum per class, subgroups from
exhaustive closure search, normal and derived subgroups from element-level
closures, subgroup closure and centres of member sets from every pairwise
product, centre-free quotient chains from a quotient of each quotient by
its own centre, tensor supports from one product of irreducibles at a time,
tensor powers and sumsets from one factor at a time, sumsets and translate
covers also on Python tuple sets, the exhaustive TQR2
search from a walk over every pair of minimal supports, minimal supports
from a scan of every mask, the canonical irreducible order from one sort key
of rounded tuples per row, random supports and subsets from one sort
by Python-int SplitMix64 keys per set walked to the floor, sampled product
sets from one np.unique per trial and product, QR2 and QR3 verdicts from every subset or pair of subsets of the
subset size, Cayley tables from a dict lookup of every pairwise
product, symmetric and alternating groups from every itertools permutation
and an inversion count with their products ranked by a base-n key,
permutation closures one element at a time,
associativity from every triple, abelian characters and their
dual actions from one Fraction per value, the automorphisms of the centre of
a normal subgroup from conjugation by each coset's least element, mixing curves from one
vector-matrix step per start row, and the affine-group table is
assembled from its known structure. Conjugates come one pair at a time,
subgroup tables from one lookup per pair of members, reduced characters
and lp norms one irreducible or class at a time, the interchange
document from one complex() per value, and the V_theta partition of a
central subgroup from a conjugation sum per class and the weighted inner
products.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
from fractions import Fraction

import numpy as np

# The TQR2/TQR3 sampler's draws, and the TQR3 cutoff on a power's measure.
SUPPORT_TRIALS = 200
POWER_MEASURE_THRESHOLD = Fraction(1, 2)


def brute_conjugacy_classes(G):
    """Classes by scanning elements in index order, pure python."""
    n = G.order
    seen = [False] * n
    classes = []
    for x in [G.identity] + [v for v in range(n) if v != G.identity]:
        if seen[x]:
            continue
        orbit = set()
        for g in range(n):
            orbit.add(int(G.mul[int(G.mul[g, x]), int(G.inv[g])]))
        for y in orbit:
            seen[y] = True
        classes.append(sorted(orbit))
    return classes


def per_class_orbits(G):
    """The classes in the canonical order, one np.unique of the orbit
    {g x g^-1 : g in G} per class, each seeded by the least element not yet
    classed (after the identity). Orbits are int64 whatever the table's
    entry type."""
    seen = np.zeros(G.order, dtype=bool)
    orbits = []
    for x in [G.identity] + [x for x in range(G.order) if x != G.identity]:
        if seen[x]:
            continue
        orbit = np.unique(G.mul[G.mul[:, x], G.inv]).astype(np.int64)
        seen[orbit] = True
        orbits.append(orbit)
    return orbits


def per_class_conjugacy_classes(G):
    """ClassData assembled from per_class_orbits, one class at a time."""
    from tqrgroups.groups import ClassData
    orbits = per_class_orbits(G)
    class_of = np.full(G.order, -1, dtype=np.int64)
    for c, orbit in enumerate(orbits):
        class_of[orbit] = c
    sizes = np.array([len(c) for c in orbits], dtype=np.int64)
    reps = np.array([int(c.min()) for c in orbits], dtype=np.int64)
    return ClassData(sizes=sizes, class_of=class_of, representatives=reps,
                     min_nontrivial_size=int(sizes[1:].min()) if len(orbits) > 1 else None)


def class_members(C):
    """The ascending element indices of each class, one scan of class_of per
    class."""
    return [np.flatnonzero(C.class_of == c) for c in range(C.num_classes)]


def brute_all_subgroups(G, max_order=48):
    """Every subgroup of G by breadth-first closure extension."""
    assert G.order <= max_order
    id_group = frozenset([G.identity])

    def closure(seed):
        members = set(seed) | {G.identity}
        frontier = list(members)
        while frontier:
            x = frontier.pop()
            for y in list(members):
                for z in (int(G.mul[x, y]), int(G.mul[y, x])):
                    if z not in members:
                        members.add(z)
                        frontier.append(z)
            xi = int(G.inv[x])
            if xi not in members:
                members.add(xi)
                frontier.append(xi)
        return frozenset(members)

    found = {id_group}
    frontier = [id_group]
    while frontier:
        H = frontier.pop()
        for g in range(G.order):
            if g in H:
                continue
            H2 = closure(H | {g})
            if H2 not in found:
                found.add(H2)
                frontier.append(H2)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def brute_normal_subgroups(G, max_order=48):
    subs = brute_all_subgroups(G, max_order)
    out = []
    for H in subs:
        if all(int(G.mul[int(G.mul[g, h]), int(G.inv[g])]) in H
               for g in range(G.order) for h in H):
            out.append(H)
    return out


def _closure(G, seed):
    """Subgroup generated by `seed`, as a frozenset of element indices: the
    identity closed under right multiplication by the seed, one level of
    products at a time, which in a finite group is the subgroup generated."""
    seed = np.array(sorted({int(s) for s in seed}), dtype=np.int64)
    members = {G.identity}
    frontier = [G.identity]
    while frontier:
        frontier = list(set(G.mul[np.ix_(frontier, seed)].ravel().tolist()) - members)
        members.update(frontier)
    return frozenset(members)


def all_pairs_closed(G, members) -> bool:
    """True iff the member set holds the identity and every pairwise
    product of members."""
    arr = np.array(sorted(set(int(x) for x in members)), dtype=np.int64)
    return G.identity in arr and bool(np.isin(G.mul[np.ix_(arr, arr)], arr).all())


def all_pairs_center(G, members) -> tuple[int, ...]:
    """Members commuting with every member, each pair compared."""
    arr = np.array(sorted(set(int(x) for x in members)), dtype=np.int64)
    block = G.mul[np.ix_(arr, arr)]
    return tuple(arr[np.all(block == block.T, axis=1)].tolist())


def closure_join_normal_subgroups(G, C):
    """All normal subgroups by element-level search, sorted by (order, members).

    Every normal subgroup is a union of conjugacy classes closed under
    multiplication, hence the join of the normal closures of its classes;
    the search closes the class closures under join.
    """
    found = {frozenset([G.identity])}
    found |= {_closure(G, (int(x) for x in cls)) for cls in class_members(C)}
    worklist = list(found)
    while worklist:
        cur = worklist.pop()
        for other in list(found):
            join = cur | other
            if join in found:
                continue
            join = _closure(G, join)
            if join not in found:
                found.add(join)
                worklist.append(join)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def closure_derived_subgroup(G, C):
    """[G, G] as the closure of the commutators [g, x] over class representatives."""
    comms = set()
    for rep in C.representatives:
        x = int(rep)
        conj = G.mul[G.mul[:, x], G.inv]
        comms.update(int(v) for v in np.unique(G.mul[conj, G.inv[x]]))
    return _closure(G, comms)


def dict_cayley_table(elems, compose, rows=None):
    """Cayley table by indexing the elements in a dict and looking up every
    pairwise product compose(x, y), pure python; KeyError if not closed.
    Only the given row indices are built when `rows` is set."""
    index = {e: k for k, e in enumerate(elems)}
    xs = elems if rows is None else [elems[r] for r in rows]
    return np.array([[index[compose(x, y)] for y in elems] for x in xs],
                    dtype=np.int64).reshape(len(xs), len(elems))


def brute_force_is_associative(mul):
    """(a*b)*c == a*(b*c) for every triple, one pair (a, b) at a time with
    every c at once: n^3 lookups, no appeal to generators."""
    n = len(mul)
    return all(np.array_equal(mul[mul[a, b]], mul[a][mul[b]])
               for a in range(n) for b in range(n))


def table_inverses(mul):
    """inv[a] = the b with a*b the identity, by scanning rows."""
    n = len(mul)
    e = next(x for x in range(n) if list(mul[x]) == list(range(n)))
    return np.array([list(mul[a]).index(e) for a in range(n)], dtype=np.int64)


def _compose_perms(p, q):
    return tuple(p[q[k]] for k in range(len(p)))


def _perm_is_even(p):
    return sum(p[a] > p[b] for a in range(len(p)) for b in range(a + 1, len(p))) % 2 == 0


def _quaternion_mult(a, b):
    units = {("1", u): ("+", u) for u in "1ijk"}
    units.update({(u, "1"): ("+", u) for u in "ijk"})
    units.update({(u, u): ("-", "1") for u in "ijk"})
    for u, v, w in (("i", "j", "k"), ("j", "k", "i"), ("k", "i", "j")):
        units[(u, v)] = ("+", w)
        units[(v, u)] = ("-", w)
    sa, ua = ("-", a[1:]) if a.startswith("-") else ("+", a)
    sb, ub = ("-", b[1:]) if b.startswith("-") else ("+", b)
    sc, uc = units[(ua, ub)]
    return ("-" if [sa, sb, sc].count("-") % 2 else "") + uc


def enumerated_group(spec):
    """(elements, compose, labels) of a family (a product of families
    included) or permutation spec, in the element order the library's
    constructors use."""
    if spec.get("type") == "permutation":
        degree, gens = spec["degree"], [tuple(g) for g in spec["generators"]]
        seen = {tuple(range(degree))}
        frontier = list(seen)
        while frontier:
            frontier = [q for q in {_compose_perms(p, g) for p in frontier for g in gens}
                        if q not in seen]
            seen.update(frontier)
        elems = sorted(seen)
        labels = ["".join(map(str, p)) if degree <= 10 else str(p) for p in elems]
        return elems, _compose_perms, labels
    family, params = spec["family"], spec["params"]
    if family == "product":
        (ea, ca, la), (eb, cb, lb) = map(enumerated_group, (params["left"], params["right"]))
        return ([(x, y) for x in ea for y in eb],
                lambda u, v: (ca(u[0], v[0]), cb(u[1], v[1])),
                [f"({x},{y})" for x in la for y in lb])
    if family == "cyclic":
        n = params["n"]
        return list(range(n)), lambda x, y: (x + y) % n, [str(k) for k in range(n)]
    if family == "dihedral":
        # (f, k) is element f*n + k; a flag f = 1 negates the rotation after it
        n = params["n"]
        elems = [(f, k) for f in range(2) for k in range(n)]
        return (elems, lambda x, y: ((x[0] + y[0]) % 2, (x[1] + (-1) ** x[0] * y[1]) % n),
                [f"{'s·' * f}r{k}" for f, k in elems])
    if family in ("symmetric", "alternating"):
        elems = [p for p in itertools.permutations(range(params["n"]))
                 if family == "symmetric" or _perm_is_even(p)]
        return elems, _compose_perms, ["".join(map(str, p)) for p in elems]
    if family == "quaternion8":
        names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
        return names, _quaternion_mult, names
    p = params["p"]
    if family == "extraspecial":
        elems = list(itertools.product(range(p), repeat=3))
        return (elems,
                lambda x, y: ((x[0] + y[0]) % p, (x[1] + y[1]) % p,
                              (x[2] + y[2] + x[0] * y[1]) % p),
                [f"({a},{b},{c})" for a, b, c in elems])
    assert family == "affine"
    elems = [(a, b) for a in range(1, p) for b in range(p)]
    return (elems, lambda x, y: (x[0] * y[0] % p, (x[0] * y[1] + x[1]) % p),
            [f"x->{a}x+{b}" for a, b in elems])


def itertools_perm_family(n, even_only):
    """S_n, or A_n when `even_only`: every permutation from
    itertools.permutations in lexicographic order, the even ones picked by
    their inversion count, and each label the digits of the permutation.
    Every product p∘q (k -> p[q[k]]) is ranked by its base-n key among the
    elements' keys, which ascend with the rows, a slab of rows at a time
    (n <= 7, so every key is below 7^7). No generating set is handed over."""
    from tqrgroups import groups

    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64).reshape(-1, n)
    if even_only:
        inversions = sum((perms[:, [i]] > perms[:, i + 1:]).sum(axis=1) for i in range(n))
        perms = perms[inversions % 2 == 0]
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)
    keys = perms @ weights
    m = len(perms)
    mul = np.empty((m, m), dtype=np.int16)
    slab = max(1, (1 << 20) // (m * n))
    for lo in range(0, m, slab):
        products = perms[lo:lo + slab][:, perms] @ weights   # [i, j]: key of p_i∘p_j
        rank = np.searchsorted(keys, products)
        assert np.array_equal(keys[np.minimum(rank, m - 1)], products), "not closed"
        mul[lo:lo + slab] = rank
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    family = "alternating" if even_only else "symmetric"
    return groups._finalize(mul, labels, {"family": family, "params": {"n": n}})


def queue_closure(perms):
    """The closure of permutation rows under composition, one element at a
    time: the distinct rows in order, then the identity unless it is one of
    them, then p[g] for each found p in order and each distinct row g."""
    found = {p.tobytes(): p for p in perms}
    gens = list(found.values())
    degree = perms.shape[1]
    found.setdefault(np.arange(degree).tobytes(), np.arange(degree))
    queue = list(found.values())
    for p in queue:
        for g in gens:
            q = p[g]
            if found.setdefault(q.tobytes(), q) is q:
                queue.append(q)
    return np.array(queue)


def dict_quotient_table(G, members, rows=None):
    """Cayley table of G/N on the sorted minimal coset representatives; only
    the given row indices when `rows` is set."""
    coset_rep = {}
    for g in range(G.order):
        if g not in coset_rep:   # the cosets partition G: each is read once
            coset = {int(G.mul[g, n]) for n in members}
            coset_rep.update(dict.fromkeys(coset, min(coset)))
    reps = sorted(set(coset_rep.values()))
    return dict_cayley_table(reps, lambda a, b: coset_rep[int(G.mul[a, b])], rows), reps


def nested_center_free_quotient_chain(G):
    """G, G/Z(G), ... as a quotient of each quotient by its own center, until
    the first center-free (possibly trivial) group."""
    from tqrgroups import groups
    chain = [G]
    while (Z := groups.center(chain[-1])).order > 1:
        chain.append(groups.quotient(chain[-1], Z))
    return chain


def class_multiplication_matrix(G, C, i):
    """M_i[j][k] = #{(x, y) in C_i x C_j : x*y = z} for a fixed z in C_k.

    The count is checked to be independent of the chosen z.
    """
    r, members = C.num_classes, class_members(C)
    per_z = np.zeros((r, G.order), dtype=np.int64)
    for x in members[i]:
        np.add.at(per_z, (C.class_of, G.mul[x]), 1)
    M = np.zeros((r, r), dtype=np.int64)
    for k in range(r):
        block = per_z[:, members[k]]
        assert np.all(block == block[:, :1]), "class product count depends on z"
        M[:, k] = block[:, 0]
    return M


def combined_class_matrix_loop(G, C, coeffs):
    """sum_i coeffs[i] * M_i by one scattered add of |G| entries per element
    x: the pair (y, x*y) adds coeffs[class(x)] at (class(y), class(x*y)),
    and each column k is then divided by |C_k|."""
    r = C.num_classes
    cl = C.class_of
    acc = np.zeros((r, r), dtype=np.float64)
    w = coeffs[cl]
    for x in range(G.order):
        np.add.at(acc, (cl, cl[G.mul[x]]), w[x])
    return acc / C.sizes[None, :]


def restrict_character(C, f, subgroup_members):
    """Restriction of a class function, its (r,) values, to a subgroup,
    element by element."""
    return {int(m): complex(f[C.class_of[int(m)]])
            for m in subgroup_members}


def conjugation_sum_induce(G, C, subgroup_members, theta):
    """Ind_H^G of {element: value} on H, one class at a time:
    (1/|H|) sum over g in G of theta0(g x g^-1) at each representative x."""
    by_elem = np.zeros(G.order, dtype=np.complex128)
    for m, v in theta.items():
        by_elem[int(m)] = v
    out = np.zeros(C.num_classes, dtype=np.complex128)
    for c, rep in enumerate(C.representatives):
        conj = G.mul[G.mul[:, int(rep)], G.inv]
        out[c] = by_elem[conj].sum() / len(subgroup_members)
    return out


@functools.lru_cache(maxsize=None)
def _pair_multiplicities(T, a, b):
    """<chi_a chi_b, chi_c> for every c, checked to be non-negative integers."""
    w = T.classes.sizes / T.group.order
    raw = (w * T.values[a] * T.values[b]) @ T.values.conj().T
    mult = np.rint(raw.real).astype(np.int64)
    assert np.max(np.abs(raw - mult)) < 1e-8 and mult.min() >= 0
    return mult


@functools.lru_cache(maxsize=None)
def pairwise_tensor_support(T, mask1, mask2):
    """Support of S1 (x) S2 as the union of supp(chi_a chi_b) over every pair."""
    out = 0
    for a in range(T.num_irreps):
        for b in range(T.num_irreps):
            if mask1 >> a & 1 and mask2 >> b & 1:
                for c in np.flatnonzero(_pair_multiplicities(T, a, b)):
                    out |= 1 << int(c)
    return out


def pairwise_power_support(T, mask, m):
    """Support of the m-fold tensor power, one pairwise product at a time."""
    out = mask
    for _ in range(m - 1):
        out = pairwise_tensor_support(T, out, mask)
    return out


def brute_force_tqr2_search(T, minimal):
    """Every triple of the given supports in lexicographic order, its product
    support built pairwise. Returns the number of triples checked and the
    first triple whose product misses an irreducible, with that product
    support, or None for both."""
    full = (1 << T.num_irreps) - 1
    for checked, triple in enumerate(itertools.product(minimal, repeat=3), 1):
        prod = pairwise_tensor_support(
            T, pairwise_tensor_support(T, triple[0], triple[1]), triple[2])
        if prod != full:
            return checked, triple, prod
    return len(minimal) ** 3, None, None


def brute_force_tqr3_search(T, minimal, power, threshold):
    """Every given support in order, its power support built pairwise.
    Returns the number of supports checked and the first support whose
    power-fold tensor power has measure <= threshold, with that power
    support, or None for both."""
    for checked, mask in enumerate(minimal, 1):
        pw = pairwise_power_support(T, mask, power)
        if fraction_sum_measure(T, pw) <= threshold:
            return checked, mask, pw
    return len(minimal), None, None


def _stacked_multiplicities(T, values):
    """<f, chi_c> for every row f of a (b, classes) stack and every c, by
    the weighted inner products, checked to be non-negative integers."""
    w = T.classes.sizes / T.group.order
    raw = (w * values) @ T.values.conj().T
    mult = np.rint(raw.real).astype(np.int64)
    assert np.max(np.abs(raw - mult), initial=0.0) < 1e-8 and mult.min(initial=0) >= 0
    return mult


def stepwise_power_support(T, mask, m):
    """Support of the m-fold tensor power of a support row, or of each row
    of a (b, r) stack, by m - 1 two-factor steps."""
    out = mask
    for _ in range(m - 1):
        chars = (out @ T.values) * (mask @ T.values)
        out = _stacked_multiplicities(T, chars.reshape(-1, chars.shape[-1])
                                      ).reshape(out.shape) > 0
    return out


def stepwise_m_fold_mask(factors, A, m):
    """The m-fold sumset of a mask A over Z_{d1} x ... x Z_{dr}, elements in
    lexicographic order of their exponent tuples, by m - 1 sumsets."""
    coords = np.indices(factors).reshape(len(factors), -1).T
    out = A
    for _ in range(m - 1):
        sums = (coords[out][:, None] + coords[A]) % factors
        out = np.zeros(len(A), dtype=bool)
        out[np.ravel_multi_index(sums.reshape(-1, len(factors)).T, factors)] = True
    return out


def pair_walk_tqr2_search(T, minimal, dens):
    """Every pair i <= j of the given support rows, in lexicographic order.
    A pair ends a triple missing nu iff the irreducibles outside
    D_nu = supp(conj(chi_i chi_j) chi_nu) have measure >= dens; the first such
    pair and its first third support k avoiding some D_nu are the first
    failing triple of all, counted (i*s + j)*s + k + 1. Returns the count
    and the witness dict, or s^3 and None."""
    r, s = T.num_irreps, len(minimal)
    n = T.group.order
    sq = T.dims.astype(np.int64) ** 2
    for i, j in itertools.combinations_with_replacement(range(s), 2):
        dual = np.conj((minimal[i] @ T.values) * (minimal[j] @ T.values))
        hit = _stacked_multiplicities(T, dual * T.values) > 0   # hit[nu, mu]
        if not any(Fraction(int(sq[~row].sum()), n) >= dens for row in hit):
            continue
        k = next(k for k, row in enumerate(minimal)
                 if not (row @ hit.T).all())
        triple = minimal[[i, j, k]]
        chars = triple @ T.values
        product = _stacked_multiplicities(T, (chars[0] * chars[1] * chars[2])[None])[0] > 0
        witness = {"supports": [np.flatnonzero(row).tolist() for row in triple],
                   "measures": [float(Fraction(int(row @ sq), n)) for row in triple],
                   "missing": np.flatnonzero(~product).tolist()}
        return (i * s + j) * s + k + 1, witness
    return s ** 3, None


def pair_walk_tqr2_report(T, params):
    """The tqr2 report of an exhaustive search over the minimal supports of
    brute_force_minimal_supports, walked by pair_walk_tqr2_search. The walk
    is complete, so nothing random follows it."""
    dens = params.density_frac()
    r = T.num_irreps
    minimal = np.array([[m >> i & 1 for i in range(r)]
                        for m in brute_force_minimal_supports(T, dens)], dtype=bool)
    checked, witness = pair_walk_tqr2_search(T, minimal, dens)
    return {"criterion": "tqr2", "holds": witness is None,
            "mode": "exhaustive-minimal+randomized",
            "parameters": params.to_json_dict(), "witness": witness,
            "details": {"triples_checked": checked}, "error": None}


def fraction_sum_measure(T, mask):
    """Plancherel measure of a support as a sum of one Fraction per member."""
    n = T.group.order
    return sum((Fraction(int(T.dims[i]) ** 2, n) for i in range(T.num_irreps)
                if mask >> i & 1), Fraction(0))


def splitmix64_key(seed, index):
    """The index-th key of the stream `seed`: SplitMix64's finalizer of
    seed + (index + 1) * 0x9E3779B97F4A7C15, in Python ints mod 2^64."""
    mask = (1 << 64) - 1
    z = (seed + (index + 1) * 0x9E3779B97F4A7C15) & mask
    z = ((z ^ z >> 30) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ z >> 27) * 0x94D049BB133111EB) & mask
    return z ^ z >> 31


def scalar_prefix_draw(seed, row, weights, need):
    """Row `row` of the sampler's rule on stream `seed`: the items sorted by
    their keys at stream indices row * len(weights) + item, taken one at a
    time until their weight first reaches need; sorted."""
    items = len(weights)
    taken, total = [], 0
    for i in sorted(range(items), key=lambda j: splitmix64_key(seed, row * items + j)):
        taken.append(i)
        total += weights[i]
        if total >= need:
            return sorted(taken)
    raise AssertionError("the items weigh less than need")


def _bits(mask, r):
    return [i for i in range(r) if mask >> i & 1]


def scalar_random_tqr_report(T, params, criterion):
    """The tqr2 or tqr3 report of a search with the exhaustive phase off:
    SUPPORT_TRIALS random triples (tqr2) or supports (tqr3), drawn and
    checked one at a time, product supports built pairwise. A support is a
    bitmask, one prefix draw over the dim^2 cut at ceil(dens*|G|)."""
    r = T.num_irreps
    full = (1 << r) - 1
    seed = params.seed + (2001 if criterion == "tqr2" else 3001)
    weights = [int(d) ** 2 for d in T.dims]
    need = math.ceil(params.density_frac() * T.group.order)
    rows = itertools.count()

    def support():
        return sum(1 << i for i in scalar_prefix_draw(seed, next(rows), weights, need))

    checked, witness = 0, None
    for _ in range(SUPPORT_TRIALS):
        checked += 1
        if criterion == "tqr2":
            ms = [support() for _ in range(3)]
            prod = pairwise_tensor_support(
                T, pairwise_tensor_support(T, ms[0], ms[1]), ms[2])
            if prod != full:
                witness = {"supports": [_bits(m, r) for m in ms],
                           "measures": [float(fraction_sum_measure(T, m)) for m in ms],
                           "missing": _bits(full & ~prod, r)}
        else:
            m = support()
            pw = pairwise_power_support(T, m, params.power)
            if fraction_sum_measure(T, pw) <= POWER_MEASURE_THRESHOLD:
                witness = {"support": _bits(m, r),
                           "measure": float(fraction_sum_measure(T, m)),
                           "power_support": _bits(pw, r),
                           "power_measure": float(fraction_sum_measure(T, pw))}
        if witness:
            break
    key = "triples_checked" if criterion == "tqr2" else "supports_checked"
    return {"criterion": criterion, "holds": witness is None, "mode": "randomized",
            "parameters": params.to_json_dict(), "witness": witness,
            "details": {key: checked}, "error": None}


def ekp_min_power_size(n, s, k):
    """The least |A_1 + ... + A_k| over subsets of size s of an abelian group
    of order n, min over d | n of (k*ceil(s/d) - k + 1)*d (Eliahou, Kervaire
    and Plagne, J. Number Theory 101, 2003); one set taken k times attains
    it, as a union of cosets of a subgroup of order d."""
    return min((k * -(-s // d) - k + 1) * d for d in range(1, n + 1) if n % d == 0)


def ekp_tqr_fails(T, params, criterion):
    """The exact TQR2 or TQR3 verdict on an abelian group, whose dual is a
    group of the same order with (x) as its law: TQR2 fails iff some A + B
    misses s points, room for a third set of size s to avoid; TQR3 fails iff
    some A of size s has power-fold sumset at most the threshold."""
    n = T.group.order
    dens = params.density_frac()
    s = -(-dens.numerator * n // dens.denominator)
    if criterion == "tqr2":
        return ekp_min_power_size(n, s, 2) <= n - s
    return Fraction(ekp_min_power_size(n, s, params.power), n) <= POWER_MEASURE_THRESHOLD


def per_trial_qr23_report(G, params, triple):
    """The qr2 (triple) or qr3 report of params.trials random trials checked
    one at a time: each subset one scalar prefix draw of the exact size
    ceil(p*|G|/q) for the density p/q, and each product set one np.unique
    over a pairwise product table, power - 1 of them for qr3."""
    dens = params.density_frac()
    size = -(-dens.numerator * G.order // dens.denominator)
    seed = params.seed + (4001 if triple else 5001)
    rows, witness = itertools.count(), None
    for _ in range(params.trials):
        sets = [np.array(scalar_prefix_draw(seed, next(rows), [1] * G.order, size))
                for _ in range(3 if triple else 1)]
        if triple:
            prod = np.unique(G.mul[np.ix_(sets[0], sets[1])])
            prod = np.unique(G.mul[np.ix_(prod, sets[2])])
        else:
            prod = sets[0]
            for _ in range(params.power - 1):
                prod = np.unique(G.mul[np.ix_(prod, sets[0])])
        if len(prod) != G.order:
            witness = {"subsets": [s.tolist() for s in sets],
                       "product_size": len(prod)}
            break
    details = {"trials": params.trials, "subset_size": size,
               "note": "sampled search; absence of a witness is evidence, not proof"}
    return {"criterion": "qr2" if triple else "qr3", "holds": witness is None,
            "mode": "randomized", "parameters": params.to_json_dict(),
            "witness": witness, "details": details, "error": None}


def product_set(G, subsets):
    """S0 S1 ... of a list of subsets, one np.unique per product."""
    prod = np.unique(subsets[0])
    for S in subsets[1:]:
        prod = np.unique(G.mul[np.ix_(prod, S)])
    return prod


def brute_force_qr3_fails(G, size, power) -> bool:
    """Whether some subset A of `size` elements has A^power != G, trying
    every such subset."""
    return any(len(product_set(G, [A] * power)) < G.order
               for A in itertools.combinations(range(G.order), size))


def brute_force_qr2_fails(G, size) -> bool:
    """Whether some A, B, C of `size` elements have ABC != G. ABC misses g
    exactly when C avoids (AB)^-1 g, which a C of that size can iff
    |AB| <= |G| - size, so every pair (A, B) is tried."""
    subsets = list(itertools.combinations(range(G.order), size))
    return any(len(product_set(G, [A, B])) <= G.order - size
               for A in subsets for B in subsets)


@functools.lru_cache(maxsize=None)
def _mask_dim_square_sums(T):
    """sum of dim^2 over every one of the 2^r masks, indexed by mask."""
    sq = [int(d) ** 2 for d in T.dims]
    sums = [0] * (1 << len(sq))
    for m in range(1, len(sums)):
        low = m & -m
        sums[m] = sums[m ^ low] + sq[low.bit_length() - 1]
    return sums


def brute_force_minimal_supports(T, dens):
    """Every mask of measure >= dens whose one-element removals all fall below
    dens, by scanning all 2^r masks with exact Fraction comparisons."""
    n = T.group.order
    reaches = [Fraction(s, n) >= dens for s in _mask_dim_square_sums(T)]
    return [m for m in range(1, len(reaches)) if reaches[m]
            and not any(reaches[m & ~(1 << i)] for i in range(T.num_irreps)
                        if m >> i & 1)]


def power_walk_element_orders(mul_fn, identity, elems):
    """Order of each element of an index array by walking its powers one
    masked product at a time, as many steps as the largest order."""
    orders = np.ones(len(elems), dtype=np.int64)
    y = np.array(elems, dtype=np.int64)
    live = y != identity
    while live.any():
        y[live] = mul_fn(y[live], elems[live])
        orders += live
        live &= y != identity
    return orders


def rounded_tuple_irrep_order(chars, dims):
    """Row order of a character table by the key (nontrivial, dim, the
    tuple of (re, im) pairs each rounded by Python's round to 8 places).
    Two rows are compared lazily, rounding their pairs class by class up to
    the first that differs, so an order-2000 table sorts in well under a
    second."""
    def head(lam):
        is_trivial = all(abs(v - 1.0) < 1e-6 for v in chars[lam])
        return (0 if is_trivial else 1, int(dims[lam]))

    def rounded(lam, c):
        v = chars[lam][c]
        return (round(float(v.real), 8), round(float(v.imag), 8))

    heads = [head(lam) for lam in range(len(dims))]

    def compare(a, b):
        keys = itertools.chain([(heads[a], heads[b])],
                               ((rounded(a, c), rounded(b, c)) for c in range(len(chars[a]))))
        for ka, kb in keys:
            if ka != kb:
                return -1 if ka < kb else 1
        return 0
    return sorted(range(len(dims)), key=functools.cmp_to_key(compare))


def regular_rep_char_table(G, seed=11, tol=1e-7, attempts=8):
    """All irreducible characters from the regular representation.

    Averages a random hermitian matrix over the group action to get an
    equivariant operator; generically its eigenspaces are single irreducible
    subrepresentations, read off by traces. Entirely independent of the
    class-algebra route.
    """
    n = G.order
    left = np.asarray(G.mul)
    classes = brute_conjugacy_classes(G)
    reps = [cls[0] for cls in classes]
    sizes = np.asarray([len(c) for c in classes], dtype=float)
    for att in range(attempts):
        rng = np.random.default_rng(seed + att)
        Y = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        X = (Y + Y.conj().T) / 2
        T = np.zeros((n, n), dtype=np.complex128)
        for g in range(n):
            # (R_g X R_g^-1)[a, b] = X[g^-1 a, g^-1 b]
            perm = left[int(G.inv[g])]
            T += X[np.ix_(perm, perm)]
        T /= n
        evals, evecs = np.linalg.eigh(T)
        clusters = []
        start = 0
        for i in range(1, n + 1):
            if i == n or evals[i] - evals[i - 1] > tol:
                clusters.append((start, i))
                start = i
        chars = []
        ok = True
        for a, b in clusters:
            U = evecs[:, a:b]
            chi = []
            for rep in reps:
                # (R_rep u)[a] = u[rep^-1 a]
                RU = U[left[int(G.inv[rep])], :]
                chi.append(np.einsum("ij,ij->", U.conj(), RU))
            chi = np.asarray(chi)
            norm = np.sum(sizes * chi * np.conj(chi)) / n
            if abs(norm - 1) > 1e-6:
                ok = False
                break
            chars.append(chi)
        if not ok:
            continue
        uniq = []
        for chi in chars:
            if not any(np.allclose(chi, u, atol=1e-6) for u in uniq):
                uniq.append(chi)
        if sum(round(c[0].real) ** 2 for c in uniq) == n:
            return uniq
    raise RuntimeError("regular-representation oracle failed to separate")


def affine_char_table_by_hand(p):
    """Character table of the affine group of F_p from its known structure.

    Elements are (a, b) with index (a-1)*p + b, matching the family
    constructor. Returns (class_reps, class_sizes, characters) where the
    characters are the p-2 pulled-back multiplicative characters plus the
    trivial one and the (p-1)-dimensional permutation-minus-trivial character.
    """
    # multiplicative group structure
    gen = _primitive_root(p)
    dlog = {}
    v = 1
    for k in range(p - 1):
        dlog[v] = k
        v = v * gen % p

    def idx(a, b):
        return (a - 1) * p + b

    class_reps = [idx(1, 0), idx(1, 1)] + [idx(a, 0) for a in range(2, p)]
    class_sizes = [1, p - 1] + [p] * (p - 2)

    chars = []
    # 1-dim: psi_j(a,b) = exp(2 pi i j dlog(a) / (p-1))
    for j in range(p - 1):
        vals = []
        for rep in class_reps:
            a = rep // p + 1
            vals.append(np.exp(2j * np.pi * j * dlog[a] / (p - 1)))
        chars.append(np.asarray(vals))
    # (p-1)-dim: permutation character on F_p minus the trivial character
    vals = []
    for rep in class_reps:
        a, b = rep // p + 1, rep % p
        fixed = sum(1 for x in range(p) if (a * x + b) % p == x)
        vals.append(fixed - 1)
    chars.append(np.asarray(vals, dtype=complex))
    return class_reps, class_sizes, chars


def _primitive_root(p):
    for g in range(2, p):
        seen = set()
        v = 1
        for _ in range(p - 1):
            v = v * g % p
            seen.add(v)
        if len(seen) == p - 1:
            return g
    raise ValueError(f"no primitive root mod {p}")


def character_value(factors, theta, x) -> complex:
    """The character with exponent tuple theta at element x, through one
    exact Fraction angle per value."""
    angle = sum(Fraction(t * e, d) for t, e, d in zip(theta, x, factors))
    frac = angle - math.floor(angle)
    return cmath.exp(2j * cmath.pi * float(frac))


def fraction_dual_action(factors, maps):
    """The dual of each automorphism map {x: alpha(x)} of Z_{d1} x ... x Z_{dr}
    on exponent tuples, one Fraction per coordinate: theta' = theta o alpha."""
    rank = len(factors)
    units = [tuple(int(i == j) for j in range(rank)) for i in range(rank)]
    out = []
    for p in maps:
        images = [p[u] for u in units]
        q = {}
        for theta in p:
            t_new = []
            for i, d_i in enumerate(factors):
                angle = sum(Fraction(theta[j] * images[i][j], factors[j])
                            for j in range(rank))
                val = angle * d_i
                if val.denominator != 1:
                    raise ValueError("dual action produced a non-integer exponent")
                t_new.append(val.numerator % d_i)
            q[theta] = tuple(t_new)
        out.append(q)
    return out


def per_coset_conjugation_maps(G, N, to_parent):
    """The automorphisms of Z(N), listed as to_parent, induced by conjugation
    by the least element of each coset of N, as index permutations of
    to_parent."""
    reps = np.unique(G.mul[:, list(N.members)].min(axis=1))
    position = {int(x): i for i, x in enumerate(to_parent)}
    return [[position[conjugate(G, int(g), int(x))] for x in to_parent] for g in reps]


def _tuple_group_ops(factors):
    """zero, add and neg on exponent tuples of Z_{d1} x ... x Z_{dr}."""
    zero = tuple(0 for _ in factors)

    def add(x, y):
        return tuple((a + b) % d for a, b, d in zip(x, y, factors))

    def neg(x):
        return tuple((-a) % d for a, d in zip(x, factors))

    return zero, add, neg


def _tuple_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _tuple_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


def tuple_m_fold_sumset(factors, A, m):
    """A + A + ... + A (m times) as a set of tuples, by m - 1 set
    comprehensions; factors=None is the integer lattice."""
    if m < 1:
        raise ValueError("m must be >= 1")
    add = _tuple_group_ops(factors)[1] if factors is not None else _tuple_add
    A = {tuple(a) for a in A}
    out = set(A)
    for _ in range(m - 1):
        out = {add(x, a) for x in out for a in A}
    return out


def tuple_translate_cover(B, n, m, factors=None):
    """The JSON dict of a translate cover, built on tuples: every candidate
    (m-1)n b0 + sum_i c_i j g_i by repeated addition, each cell a set."""
    B = sorted({tuple(b) for b in B})
    if not B:
        raise ValueError("B must be nonempty")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    k = len(B) - 1
    if factors is not None:
        zero, add, neg = _tuple_group_ops(factors)
        base = B[0]
        shifted = [add(b, neg(base)) for b in B]
    else:
        zero, add = tuple(0 for _ in B[0]), _tuple_add
        base = B[0]
        shifted = [_tuple_sub(b, base) for b in B]
    # shifted[0] == 0; psi maps the j-th standard basis vector to shifted[j]
    gens = shifted[1:]
    nB = tuple_m_fold_sumset(factors, B, n)
    mnB = tuple_m_fold_sumset(factors, B, m * n)
    bound = (10 * k * m) ** k if k > 0 else 1

    if m == 1 or k == 0:
        # mnB equals nB (or B is a single point): the zero translate suffices
        cover = [_scale(zero, base, (m - 1) * n, add)]
    else:
        j = 1 + n // k
        big = m * n + 1
        q = -(-big // j)  # ceil
        cover = []
        base_shift = _scale(zero, base, (m - 1) * n, add)
        for a in itertools.product(range(q), repeat=k):
            acc = base_shift
            for coord, gen in zip(a, gens):
                acc = _accumulate(acc, gen, j * coord, add)
            cover.append(acc)
        cover = sorted(set(cover))

    kept = []
    covered = set()
    for t in cover:
        cell = {add(t, x) for x in nB}
        hit = cell & mnB
        if hit:
            kept.append(t)
            covered |= hit
    if covered != mnB:
        raise RuntimeError("translate cover failed exhaustive verification")
    if len(kept) > bound:
        raise RuntimeError(
            f"translate count {len(kept)} exceeds bound {bound}")
    return {"translates": [list(t) for t in kept], "count": len(kept),
            "bound": bound, "n_set_size": len(nB), "mn_set_size": len(mnB)}


def _scale(zero, x, times, add):
    acc = zero
    for _ in range(times):
        acc = add(acc, x)
    return acc


def _accumulate(acc, gen, times, add):
    for _ in range(times):
        acc = add(acc, gen)
    return acc

def naive_sumset(add_fn, A, B):
    return {add_fn(x, y) for x in A for y in B}


def abelian_group_specs_up_to(n_max):
    """Group-spec dicts for every isomorphism type of abelian group of
    order 2..n_max, as nested direct products of cyclic factors."""
    specs = []
    for n in range(2, n_max + 1):
        for factors in _abelian_types(n):
            spec = {"family": "cyclic", "params": {"n": factors[0]}}
            for f in factors[1:]:
                spec = {"family": "product",
                        "params": {"left": spec,
                                   "right": {"family": "cyclic", "params": {"n": f}}}}
            specs.append((factors, spec))
    return specs


def _abelian_types(n):
    """All multisets of prime-power cyclic factors with product n."""
    fact = {}
    m = n
    d = 2
    while d * d <= m:
        while m % d == 0:
            fact[d] = fact.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fact[m] = fact.get(m, 0) + 1
    per_prime = []
    for p, e in sorted(fact.items()):
        per_prime.append([[p ** part for part in parts]
                          for parts in _partitions(e)])
    out = []
    for combo in itertools.product(*per_prime):
        factors = tuple(sorted(f for group in combo for f in group))
        out.append(factors)
    return out


def _partitions(n):
    if n == 0:
        yield []
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield [first] + rest


def mixing_report_per_start(M, metric, epsilon, t_max, start):
    """The mixing report with one distribution and one distance per start,
    each stepped by the vector-matrix product `row @ kernel`."""
    pi = M.stationary()
    starts = range(M.num_states) if start is None else [start]
    dists = {lam: np.eye(M.num_states)[lam] for lam in starts}
    names = ("uniform", "tv_max", "tv_half_l1")
    curve, times = [], {m: None for m in names}
    for t in range(t_max + 1):
        worst = {m: 0.0 for m in names}
        for lam in starts:
            d = dists[lam]
            row = {"uniform": float(np.max(np.abs(d / pi - 1.0))),
                   "tv_max": float(np.max(np.abs(d - pi))),
                   "tv_half_l1": float(0.5 * np.sum(np.abs(d - pi)))}
            worst = {m: max(worst[m], row[m]) for m in names}
        curve.append({"t": t, **worst})
        for m in names:
            if times[m] is None and worst[m] <= epsilon:
                times[m] = t
        if t < t_max:
            for lam in starts:
                dists[lam] = dists[lam] @ M.kernel
    return {"start": start, "metric": metric, "epsilon": epsilon,
            "mixing_time": times[metric], "t_max": t_max,
            "mixing_times": times, "curve": curve}


def conjugate(G, g, x) -> int:
    """g x g^-1, one pair at a time."""
    return int(G.mul[G.mul[g, x], G.inv[g]])


def subgroup_table(G, members):
    """A subgroup as a GroupTable of its own, from one lookup of G's table per
    pair of members, with the list mapping its indices to G's: the distinct
    members, ascending, so index 0 need not be G's identity. Its source is
    its cayley spec, which build_group rebuilds."""
    from tqrgroups.groups import GroupError, _finalize, _member_array, cayley_spec
    elems = _member_array(G, members).tolist()
    if not elems:   # any other set without the identity is not closed
        raise GroupError("subgroup must contain the identity")
    rank = np.full(G.order, -1, dtype=np.int64)   # -1 outside the members
    rank[elems] = np.arange(len(elems))
    mul = rank[G.mul[np.ix_(elems, elems)]]
    if (mul < 0).any():
        raise GroupError("member set is not closed under multiplication")
    H = _finalize(mul, [G.label(e) for e in elems] if G.labels is not None else None, {})
    H.source = cayley_spec(H)
    return H, elems


def reduced_character(T, V):
    """(1/|G|) sum over the support V (a boolean mask) of dim(lam) chi_lam,
    one row at a time, as its (r,) values; its value at the identity is the
    Plancherel measure."""
    vals = sum((int(T.dims[lam]) * T.values[lam] for lam in np.flatnonzero(V)),
               np.zeros(T.num_irreps, dtype=np.complex128))
    return vals / T.group.order


def split_off_identity(f):
    """f = f(e) 1_{g=e} + f0, with f0 vanishing on the identity class; f and
    f0 are (r,) class-function values."""
    rest = np.array(f, dtype=np.complex128)
    head = complex(rest[0])
    rest[0] = 0.0
    return head, rest


def lp_norm(C, f, p) -> float:
    """The lp norm of a class function, its (r,) values on the classes C,
    with counting measure on the elements, for p = 1, 2 or math.inf: each
    class value weighted by its class size."""
    mags = np.abs(f)
    if p == math.inf:
        return float(mags.max(initial=0.0))
    return float(np.sum(C.sizes * mags ** p) ** (1 / p))


def to_interchange(T):
    """T's interchange document as a dict, for json.dumps: the header, and
    `values` as rows of [re, im] float pairs from one complex() per entry."""
    from tqrgroups.chartable import _interchange_header
    return {**_interchange_header(T),
            "values": [[[complex(v).real, complex(v).imag] for v in row] for row in T.values]}


def verify_vtheta_partition(T, K_members):
    """For a central K of N = T.group, the support of Ind_K^N(theta) for each
    character theta of K, in the order of K's exponent tuples, from one
    conjugation sum per class and the weighted inner products; whether the
    supports partition Irrep(N), and whether each has measure 1/|K|, one
    Fraction per member."""
    from tqrgroups import groups
    N = T.group
    K_members = sorted(int(x) for x in K_members)
    if not all(int(N.mul[k, g]) == int(N.mul[g, k]) for k in K_members for g in range(N.order)):
        raise groups.GroupError("K must be central in N")
    dec = groups._invariant_factors(N, np.array(K_members, dtype=np.int64))
    K = dec.group
    blocks, masks = [], []
    for theta in K.coords.tolist():
        values = {int(g): character_value(K.factors, theta, x)
                  for g, x in zip(dec.to_parent, K.coords.tolist())}
        ind = conjugation_sum_induce(N, T.classes, K_members, values)
        mult = _stacked_multiplicities(T, ind[None])[0]
        mask = sum(1 << int(lam) for lam in np.flatnonzero(mult))
        masks.append(mask)
        blocks.append({"theta": theta, "support": [lam for lam in range(T.num_irreps)
                                                   if mask >> lam & 1],
                       "measure": fraction_sum_measure(T, mask)})
    return {"blocks": [{**b, "measure": float(b["measure"])} for b in blocks],
            "partition_ok": all(sum(m >> lam & 1 for m in masks) == 1
                                for lam in range(T.num_irreps)),
            "measures_exact": [b["measure"] for b in blocks] == [Fraction(1, K.order)] * K.order,
            "center_order": K.order}
