"""Constructive small-tensor-power counterexamples: translate coverings of
iterated sumsets, the invariant small-doubling set algorithm on a dual group,
and the induced representation built from it whose m-th tensor power misses
at least half of Irrep(G) in Plancherel measure.

Characters of an abelian group are exponent tuples against its invariant
factor decomposition, so all sumset arithmetic is exact integer arithmetic;
complex values appear only at evaluation boundaries.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartable import CharTable, ClassFunction, induce_character
from .classfuncs import (RepMultiset, decompose, plancherel_frac,
                         power_support_mask, support_measure_frac)
from .groups import (ClassData, GroupError, GroupTable, Subgroup, _check_order,
                     _is_prime, center_of_subset)


# ---------------------------------------------------------------------------
# Abelian groups as exponent tuples


@dataclass(eq=False)
class AbelianGroup:
    """Z_{d1} x ... x Z_{dr} with d1 | d2 | ... | dr; elements are tuples."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.factors):
            raise ValueError(f"factors must be >= 1, got {list(self.factors)}")
        _check_order(math.prod(self.factors))
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError("factors must form a divisibility chain")
        self.elements = [tuple(t) for t in
                         itertools.product(*(range(d) for d in self.factors))]
        self.index = {t: i for i, t in enumerate(self.elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.factors))

    def __repr__(self):
        return f"AbelianGroup{self.factors}"


@dataclass(eq=False)
class AutAction:
    """A finite group of automorphisms of an AbelianGroup, stored as element
    permutations. The given maps are validated as automorphisms and closed
    under composition (so generators may be passed)."""

    group: AbelianGroup
    perms: list[dict]

    def __post_init__(self):
        K = self.group
        # dedupe preserving the given order, so each distinct map is validated
        # once, then close under composition so that an already-closed input
        # keeps its indexing
        ordered = []
        seen = set()
        for p in self.perms:
            k = self._key(p)
            if k not in seen:
                seen.add(k)
                ordered.append(p)
        for p in ordered:
            if sorted(p.values()) != sorted(K.elements):
                raise ValueError("action map is not a bijection")
            for x in K.elements:
                for y in K.elements:
                    if p[K.add(x, y)] != K.add(p[x], p[y]):
                        raise ValueError("action map is not an automorphism")
        idn = {t: t for t in K.elements}
        if self._key(idn) not in seen:
            seen.add(self._key(idn))
            ordered.append(idn)
        frontier = list(ordered)
        while frontier:
            p = frontier.pop(0)
            for q in list(ordered):
                for comp in ({t: p[q[t]] for t in K.elements},
                             {t: q[p[t]] for t in K.elements}):
                    k = self._key(comp)
                    if k not in seen:
                        seen.add(k)
                        ordered.append(comp)
                        frontier.append(comp)
        self.perms = ordered

    @staticmethod
    def _key(p):
        return tuple(sorted(p.items()))

    def __len__(self):
        return len(self.perms)

    def orbit(self, x) -> set:
        return {p[x] for p in self.perms}


def character_value(factors, theta, x) -> complex:
    """Evaluate the character with exponent tuple theta at element x."""
    angle = sum(Fraction(t * e, d) for t, e, d in zip(theta, x, factors))
    frac = angle - math.floor(angle)
    return cmath.exp(2j * cmath.pi * float(frac))


def dual_action(action: AutAction) -> AutAction:
    """Push an action on K forward to K^*: (alpha . theta)(x) = theta(alpha(x)).

    The dual group is identified with K via exponent tuples against the same
    invariant factors, so this returns an action on the same AbelianGroup.
    """
    K = action.group
    factors = K.factors
    units = []
    for i in range(len(factors)):
        u = [0] * len(factors)
        u[i] = 1
        units.append(tuple(u))
    perms = []
    for p in action.perms:
        images = [p[u] for u in units]  # coordinates of alpha(b_i)
        q = {}
        for theta in K.elements:
            t_new = []
            for i, d_i in enumerate(factors):
                angle = sum(Fraction(theta[j] * images[i][j], factors[j])
                            for j in range(len(factors)))
                val = angle * d_i
                if val.denominator != 1:
                    raise ValueError("dual action produced a non-integer exponent")
                t_new.append(val.numerator % d_i)
            q[theta] = tuple(t_new)
        perms.append(q)
    return AutAction(K, perms)


# ---------------------------------------------------------------------------
# Structure of an abelian subgroup of a GroupTable


@dataclass(eq=False)
class AbelianStructure:
    group: AbelianGroup
    to_parent: dict            # tuple -> parent element index
    from_parent: dict          # parent element index -> tuple


def abelian_structure(G: GroupTable, members) -> AbelianStructure:
    """Invariant factor decomposition of an abelian subgroup of G."""
    elems = sorted(int(m) for m in members)
    arr = np.fromiter(elems, dtype=np.int64)
    block = G.mul[np.ix_(arr, arr)]
    if not np.array_equal(block, block.T):
        raise GroupError("subgroup is not abelian")
    if len(elems) == 1:
        KA = AbelianGroup(())
        return AbelianStructure(KA, {(): G.identity}, {G.identity: ()})

    def mul_fn(x, y):
        return int(G.mul[x, y])

    basis = _abelian_basis(mul_fn, G.identity, elems)
    basis = _merge_invariant_factors(mul_fn, G.identity, basis)
    factors = tuple(d for _, d in basis)
    KA = AbelianGroup(factors)
    to_parent = {}
    for t in KA.elements:
        g = G.identity
        for e, (gen, _) in zip(t, basis):
            for _ in range(e):
                g = mul_fn(g, gen)
        to_parent[t] = g
    if sorted(to_parent.values()) != elems:
        raise GroupError("abelian basis does not enumerate the subgroup")
    from_parent = {g: t for t, g in to_parent.items()}
    return AbelianStructure(KA, to_parent, from_parent)


def _elem_order(mul_fn, identity, x) -> int:
    n, y = 1, x
    while y != identity:
        y = mul_fn(y, x)
        n += 1
    return n


def _abelian_basis(mul_fn, identity, elems) -> list[tuple[int, int]]:
    """Primary decomposition + per-prime basis; returns [(generator, order)]."""
    orders = {x: _elem_order(mul_fn, identity, x) for x in elems}
    n = len(elems)
    primes = sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)})
    basis = []
    for p in primes:
        primary = [x for x in elems if _is_prime_power(orders[x], p)]
        basis.extend(_p_group_basis(mul_fn, identity, primary, p))
    return basis


def _is_prime_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _p_group_basis(mul_fn, identity, elems, p) -> list[tuple[int, int]]:
    """Basis of an abelian p-group given as explicit elements.

    Splits off a maximal-order cyclic subgroup, recurses on the quotient, and
    lifts quotient generators to genuine direct-sum generators.
    """
    if len(elems) == 1:
        return []

    orders = {x: _elem_order(mul_fn, identity, x) for x in elems}
    a1 = min(elems, key=lambda x: (-orders[x], x))
    d1 = orders[a1]
    pow_list = [identity]
    for _ in range(d1 - 1):
        pow_list.append(mul_fn(pow_list[-1], a1))
    log_a1 = {y: s for s, y in enumerate(pow_list)}
    if d1 == len(elems):
        return [(a1, d1)]

    rep_of = {}
    reps = []
    for x in sorted(elems):
        if x in rep_of:
            continue
        coset = sorted(mul_fn(x, a) for a in pow_list)
        for c in coset:
            rep_of[c] = coset[0]
        reps.append(coset[0])

    def q_mul(x, y):
        return rep_of[mul_fn(x, y)]

    out = [(a1, d1)]
    for gbar, mord in _p_group_basis(q_mul, rep_of[identity], reps, p):
        gm = identity
        for _ in range(mord):
            gm = mul_fn(gm, gbar)
        s = log_a1[gm]
        if s % mord:
            raise GroupError("p-group basis lifting failed")  # impossible by theory
        t = (-(s // mord)) % d1
        g = mul_fn(gbar, pow_list[t])
        out.append((g, mord))
    return out


def _merge_invariant_factors(mul_fn, identity, basis) -> list[tuple[int, int]]:
    """Combine primary cyclic factors into invariant factors d1 | d2 | ... ."""
    by_prime: dict[int, list[tuple[int, int]]] = {}
    for gen, order in basis:
        p = _smallest_prime_factor(order)
        by_prime.setdefault(p, []).append((gen, order))
    for lst in by_prime.values():
        lst.sort(key=lambda t: -t[1])
    merged = []
    while any(by_prime.values()):
        gen, order = identity, 1
        for p in sorted(by_prime):
            if by_prime[p]:
                g, d = by_prime[p].pop(0)
                # coprime orders: the product generates a cyclic group of order*d
                gen = mul_fn(gen, g)
                order *= d
        merged.append((gen, order))
    merged.sort(key=lambda t: t[1])
    return merged


def _smallest_prime_factor(n):
    for p in range(2, n + 1):
        if n % p == 0:
            return p
    return n


# ---------------------------------------------------------------------------
# Sumsets and translate covers


def m_fold_sumset(group: AbelianGroup | None, A, m: int) -> set:
    """A + A + ... + A (m times), exactly."""
    if m < 1:
        raise ValueError("m must be >= 1")
    add = group.add if group is not None else _tuple_add
    A = {tuple(a) for a in A}
    out = set(A)
    for _ in range(m - 1):
        out = {add(x, a) for x in out for a in A}
    return out


def _tuple_add(x, y):
    return tuple(a + b for a, b in zip(x, y))


def _tuple_sub(x, y):
    return tuple(a - b for a, b in zip(x, y))


@dataclass
class TranslateCover:
    translates: list[tuple]
    count: int
    bound: int
    n_set_size: int
    mn_set_size: int

    def to_json_dict(self) -> dict:
        return {"translates": [list(t) for t in self.translates],
                "count": self.count, "bound": self.bound,
                "n_set_size": self.n_set_size, "mn_set_size": self.mn_set_size}


def translate_cover(B, n: int, m: int,
                    group: AbelianGroup | None = None) -> TranslateCover:
    """Cover the (mn)-fold sumset of B by at most (10km)^k translates of the
    n-fold sumset, where |B| = k+1.

    B lives either in an AbelianGroup (tuples mod factors) or, with
    group=None, in the integer lattice. The produced cover is verified by
    exhaustive membership before returning.
    """
    B = sorted({tuple(b) for b in B})
    if not B:
        raise ValueError("B must be nonempty")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    k = len(B) - 1
    add = group.add if group is not None else _tuple_add
    if group is not None:
        base = B[0]
        shifted = [group.add(b, group.neg(base)) for b in B]
    else:
        base = B[0]
        shifted = [_tuple_sub(b, base) for b in B]
    # shifted[0] == 0; psi maps the j-th standard basis vector to shifted[j]
    gens = shifted[1:]
    nB = m_fold_sumset(group, B, n)
    mnB = m_fold_sumset(group, B, m * n)
    bound = (10 * k * m) ** k if k > 0 else 1

    if m == 1 or k == 0:
        # mnB equals nB (or B is a single point): the zero translate suffices
        cover = [_scale(group, base, (m - 1) * n, add)]
    else:
        j = 1 + n // k
        big = m * n + 1
        q = -(-big // j)  # ceil
        cover = []
        base_shift = _scale(group, base, (m - 1) * n, add)
        for a in itertools.product(range(q), repeat=k):
            acc = base_shift
            for coord, gen in zip(a, gens):
                acc = _accumulate(group, acc, gen, j * coord, add)
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
    return TranslateCover(translates=kept, count=len(kept), bound=bound,
                          n_set_size=len(nB), mn_set_size=len(mnB))


def _scale(group, x, times, add):
    zero = group.zero if group is not None else tuple(0 for _ in x)
    acc = zero
    for _ in range(times):
        acc = add(acc, x)
    return acc


def _accumulate(group, acc, gen, times, add):
    for _ in range(times):
        acc = add(acc, gen)
    return acc


# ---------------------------------------------------------------------------
# Invariant small-doubling sets


class EpsilonError(ValueError, RuntimeError):
    """A caller's epsilon override is too large for the m-fold sumset of the
    grown set to miss half of K. It is bad input, so a ValueError; it is also
    a RuntimeError, like the other failed checks of the construction."""


def default_epsilon(k: int, m: int) -> Fraction:
    """Half the proof-bound 1/(10km)^(k+1); any value below the bound works."""
    return Fraction(1, 2 * (10 * k * m) ** (k + 1))


def invariant_small_doubling_set(K: AbelianGroup, L: AutAction, m: int,
                                 epsilon: Fraction | float | None = None
                                 ) -> tuple[set, dict]:
    """Grow an L-invariant subset A of K with |A| >= epsilon |K| whose m-fold
    sumset still misses at least half of K.

    Iteratively absorbs orbit translates A + L.a, switching to the smallest
    element outside A whenever the current one stabilizes; terminates the
    first time |A| reaches epsilon |K|. With |K| <= 1/epsilon this returns
    {0} immediately. The m-fold sumset bound is re-verified exactly.
    """
    if m < 1:  # before default_epsilon, which divides by a power of m
        raise ValueError("m must be >= 1")
    if K.order <= 1:
        raise ValueError("K must be nontrivial")
    if L.group is not K:
        raise ValueError("action does not act on K")
    k = len(L)
    overridden = epsilon is not None
    if not overridden:
        epsilon = default_epsilon(k, m)
    epsilon = Fraction(str(epsilon)) if not isinstance(epsilon, Fraction) else epsilon
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")

    ratio_bound = (10 * k * m) ** k
    A = {K.zero}
    a = min(t for t in K.elements if t != K.zero)
    iterations = 0
    growth = []
    small_branch = Fraction(len(A)) >= epsilon * K.order
    while Fraction(len(A)) < epsilon * K.order:
        orbit = L.orbit(a)
        new = A | {K.add(x, y) for x in A for y in orbit}
        if new == A:
            rest = [t for t in K.elements if t not in A]
            if not rest:
                break
            a = min(rest)
            continue
        iterations += 1
        growth.append({"size": len(new), "grew_by": len(new) / len(A)})
        A = new
        mA = m_fold_sumset(K, A, m)
        if len(mA) > ratio_bound * len(A):
            raise RuntimeError("iterative sumset ratio bound violated")

    mA = m_fold_sumset(K, A, m)
    for p in L.perms:
        if {p[x] for x in A} != A:
            raise RuntimeError("output set is not action-invariant")
    if 2 * len(mA) > K.order:
        msg = f"m-fold sumset too large (|mA|={len(mA)}, |K|={K.order})"
        if overridden:
            raise EpsilonError(f"{msg}; epsilon override too aggressive")
        raise RuntimeError(msg)
    diag = {"epsilon": float(epsilon), "k": k, "m": m,
            "small_branch": small_branch, "iterations": iterations,
            "set_size": len(A), "m_fold_size": len(mA),
            "m_fold_ratio": len(mA) / K.order, "growth": growth}
    return A, diag


# ---------------------------------------------------------------------------
# The induced-representation counterexample


def conjugation_action_on_center(G: GroupTable, N: Subgroup,
                                 dec: AbelianStructure) -> AutAction:
    """Automorphisms of K = Z(N) induced by conjugation, one per coset of N."""
    K = dec.group
    members = set(dec.from_parent)
    seen_cosets = set()
    perms = []
    nset = np.fromiter(N.members, dtype=np.int64)
    for g in range(G.order):
        coset = frozenset(int(v) for v in G.mul[g, nset])
        if coset in seen_cosets:
            continue
        seen_cosets.add(coset)
        p = {}
        for t, x in dec.to_parent.items():
            y = G.conjugate(g, x)
            if y not in members:
                raise GroupError("conjugation does not preserve the center of N")
            p[t] = dec.from_parent[y]
        perms.append(p)
    return AutAction(K, perms)


def central_induced_character(G: GroupTable, C: ClassData, dec: AbelianStructure,
                              theta: tuple) -> ClassFunction:
    """Character of the representation induced from one character of K."""
    values = {dec.to_parent[t]: character_value(dec.group.factors, theta, t)
              for t in dec.group.elements}
    return induce_character(G, C, sorted(values), [values[e] for e in sorted(values)])


def build_counterexample_rep(G: GroupTable, C: ClassData, T: CharTable,
                             N: Subgroup, m: int,
                             epsilon: Fraction | float | None = None
                             ) -> tuple[RepMultiset, dict]:
    """Construct V = sum over theta in A of Ind_K^G(theta) for an invariant
    small-doubling set A of characters of K = Z(N), and verify that the m-th
    tensor power of V has Plancherel measure at most 1/2.
    """
    if not N.is_normal:
        raise GroupError("N must be normal")
    K_members = center_of_subset(G, N.members)
    if len(K_members) <= 1:
        raise GroupError("the center of N is trivial")
    dec = abelian_structure(G, K_members)
    action = conjugation_action_on_center(G, N, dec)
    dual = dual_action(action)
    A, diag = invariant_small_doubling_set(dec.group, dual, m, epsilon)

    thetas = sorted(A)
    chi = None
    for theta in thetas:
        f = central_induced_character(G, C, dec, theta)
        chi = f if chi is None else chi.copy_with(chi.values + f.values)
    V = decompose(T, chi)

    kk = len(K_members)
    mv = plancherel_frac(T, V)
    pw_mask = power_support_mask(T, V.support_mask(), m)
    m_pw = support_measure_frac(T, pw_mask)
    mA = m_fold_sumset(dec.group, A, m)

    # the dual orbits index blocks that partition Irrep(G), each of
    # Plancherel measure (orbit size)/|K|
    orbits = _dual_orbits(dual)
    blocks, orbit_partition_ok, measures_ok = _partition_check(
        T, [central_induced_character(G, C, dec, orb[0]) for orb in orbits],
        [Fraction(len(orb), kk) for orb in orbits])
    blocks = [{"orbit_size": len(orb), **b} for orb, b in zip(orbits, blocks)]

    report = {
        "set_size": len(A),
        "set": [list(t) for t in thetas],
        "center_order": kk,
        "num_coset_automorphisms": len(action),
        "measure_v": float(mv),
        "measure_v_exact": [mv.numerator, mv.denominator],
        "measure_identity_ok": mv == Fraction(len(A), kk),
        "m": m,
        "measure_v_power_m": float(m_pw),
        "power_measure_at_most_half": m_pw <= Fraction(1, 2),
        "m_fold_set_size": len(mA),
        "m_fold_mass_bound_ok": m_pw <= Fraction(len(mA), kk),
        "support": list(V.support()),
        "power_support": np.flatnonzero(pw_mask).tolist(),
        "orbit_blocks": blocks,
        "orbit_partition_ok": orbit_partition_ok,
        "orbit_measures_ok": measures_ok,
        "algorithm": diag,
    }
    return V, report


def _dual_orbits(dual: AutAction) -> list[list[tuple]]:
    K = dual.group
    seen = set()
    orbits = []
    for t in K.elements:
        if t in seen:
            continue
        orb = sorted(dual.orbit(t))
        seen.update(orb)
        orbits.append(orb)
    return orbits


def verify_vtheta_partition(N_table: GroupTable, C_N: ClassData, T_N: CharTable,
                            K_members) -> dict:
    """Induce every character of a central subgroup K up to N and check that
    the supports partition Irrep(N) with Plancherel measure exactly 1/|K| each.
    """
    central = set(center_of_subset(N_table, tuple(range(N_table.order))))
    if not set(int(x) for x in K_members) <= central:
        raise GroupError("K must be central in N")
    dec = abelian_structure(N_table, K_members)
    kk = dec.group.order
    thetas = dec.group.elements
    blocks, partition_ok, measures_exact = _partition_check(
        T_N, [central_induced_character(N_table, C_N, dec, t) for t in thetas],
        [Fraction(1, kk)] * kk)
    blocks = [{"theta": list(t), **b} for t, b in zip(thetas, blocks)]
    return {"blocks": blocks, "partition_ok": partition_ok,
            "measures_exact": measures_exact, "center_order": kk}


def _partition_check(T: CharTable, chars: list[ClassFunction],
                     measures: list[Fraction]) -> tuple[list[dict], bool, bool]:
    """Decompose the characters in one stacked call. Returns one block per
    character (its support and Plancherel measure), whether the supports
    partition Irrep(G), and whether each block has its expected measure."""
    mult = decompose(T, np.array([f.values for f in chars]))
    reps = [RepMultiset(T, row) for row in mult]
    got = [plancherel_frac(T, W) for W in reps]
    blocks = [{"support": list(W.support()), "measure": float(m)}
              for W, m in zip(reps, got)]
    partition_ok = bool(np.all(np.count_nonzero(mult, axis=0) == 1))
    return blocks, partition_ok, got == measures
