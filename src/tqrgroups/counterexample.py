"""Constructive small-tensor-power counterexamples: translate coverings of
iterated sumsets, the invariant small-doubling set algorithm on a dual group,
and the induced representation built from it whose m-th tensor power misses
at least half of Irrep(G) in Plancherel measure.

An abelian group's elements are integer indices into its exponent tuples,
subsets are boolean masks, automorphisms are index permutations, and a
character is an exponent row against the invariant factors, so all sumset
arithmetic is exact integer arithmetic; complex values appear only where a
character is evaluated.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .chartable import CharTable, induce_character
from .classfuncs import (RepMultiset, decompose, plancherel_frac,
                         power_support_mask, support_measure_frac)
from .groups import (ClassData, GroupError, GroupTable, Subgroup, _check_order,
                     _is_prime, center_of_subset)


# ---------------------------------------------------------------------------
# Abelian groups on integer indices


@dataclass(eq=False)
class AbelianGroup:
    """Z_{d1} x ... x Z_{dr} with d1 | d2 | ... | dr.

    Element i is the i-th exponent tuple in lexicographic order, coords[i];
    a subset is a boolean mask over the elements, and the character with
    exponent row theta is x -> exp(2 pi i sum_j theta_j x_j / d_j). The
    tuple add/neg/zero serve the sumsets and translate covers of `tqr sumset`.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if any(d < 1 for d in self.factors):
            raise ValueError(f"factors must be >= 1, got {list(self.factors)}")
        _check_order(math.prod(self.factors))
        for a, b in zip(self.factors, self.factors[1:]):
            if b % a:
                raise ValueError("factors must form a divisibility chain")
        rank = len(self.factors)
        self._moduli = np.array(self.factors, dtype=np.int64)
        self._strides = np.array([math.prod(self.factors[i + 1:]) for i in range(rank)],
                                 dtype=np.int64)
        self.coords = np.indices(self.factors).reshape(rank, self.order).T

    @property
    def order(self) -> int:
        return math.prod(self.factors)

    @property
    def exponent(self) -> int:
        return self.factors[-1] if self.factors else 1

    def index(self, coords) -> np.ndarray:
        """Element indices of coordinate rows (..., rank), reduced mod the
        factors."""
        return (np.asarray(coords) % self._moduli) @ self._strides

    def characters(self, thetas) -> np.ndarray:
        """The (b, order) values of the characters with exponent rows
        coords[thetas]: theta(x) = roots[sum_j theta_j x_j (e/d_j) mod e]
        for the exponent e, with roots[k] = exp(2 pi i k/e)."""
        e = self.exponent
        roots = np.array([cmath.exp(2j * cmath.pi * (k / e)) for k in range(e)])
        return roots[(self.coords[thetas] * (e // self._moduli)) @ self.coords.T % e]

    @property
    def zero(self) -> tuple[int, ...]:
        return tuple(0 for _ in self.factors)

    def add(self, x, y) -> tuple[int, ...]:
        return tuple((a + b) % d for a, b, d in zip(x, y, self.factors))

    def neg(self, x) -> tuple[int, ...]:
        return tuple((-a) % d for a, d in zip(x, self.factors))

    def __repr__(self):
        return f"AbelianGroup{self.factors}"


def _unit_images(K: AbelianGroup, perms: np.ndarray) -> np.ndarray:
    """(k, rank, rank) coordinates of each map's images of the unit vectors."""
    return K.coords[perms[:, K.index(np.eye(len(K.factors), dtype=np.int64))]]


@dataclass(eq=False)
class AutAction:
    """A finite group of automorphisms of an AbelianGroup, as a (k, |K|)
    array of element permutations. The given maps are validated as
    automorphisms and closed under composition (so generators may be passed);
    an already closed input keeps its order."""

    group: AbelianGroup
    perms: np.ndarray

    def __post_init__(self):
        K = self.group
        n = K.order
        given = np.asarray(self.perms, dtype=np.int64).reshape(-1, n)
        if not np.array_equal(np.sort(given, axis=1),
                              np.broadcast_to(np.arange(n), given.shape)):
            raise ValueError("action map is not a bijection")
        # p is a homomorphism iff d_i p(e_i) = 0 for every unit e_i and
        # p(x) = sum_i x_i p(e_i) for every x
        images = _unit_images(K, given)
        d = K._moduli
        if (np.any(d[:, None] * images % d) or not np.array_equal(
                K.index(np.einsum("xi,pij->pxj", K.coords, images)), given)):
            raise ValueError("action map is not an automorphism")
        found = {p.tobytes(): p for p in given}
        gens = list(found.values())
        found.setdefault(np.arange(n).tobytes(), np.arange(n))
        queue = list(found.values())
        for p in queue:
            for g in gens:
                q = p[g]
                if found.setdefault(q.tobytes(), q) is q:
                    queue.append(q)
        self.perms = np.array(queue)

    def __len__(self):
        return len(self.perms)

    def orbit(self, x) -> np.ndarray:
        return np.unique(self.perms[:, x])


def dual_action(action: AutAction) -> AutAction:
    """Push an action on K forward to K^*: (alpha . theta)(x) = theta(alpha(x)).

    The dual group is identified with K via exponent rows against the same
    invariant factors, so this returns an action on the same AbelianGroup.
    With U the coordinates of alpha(e_i), the new exponents are
    theta'_i = d_i sum_j theta_j U_ij / d_j mod d_i, taken as numerators
    over the exponent e of K.
    """
    K = action.group
    d, e = K._moduli, K.exponent
    num = np.einsum("tj,pij->pti", K.coords * (e // d), _unit_images(K, action.perms)) % e
    if np.any(num * d % e):
        raise ValueError("dual action produced a non-integer exponent")
    return AutAction(K, K.index(num * d // e))


# ---------------------------------------------------------------------------
# Structure of an abelian subgroup of a GroupTable


@dataclass(eq=False)
class AbelianStructure:
    group: AbelianGroup
    to_parent: np.ndarray      # element index of group -> parent element index


def abelian_structure(G: GroupTable, members) -> AbelianStructure:
    """Invariant factor decomposition of an abelian subgroup of G."""
    arr = np.unique(np.fromiter(members, dtype=np.int64))
    block = G.mul[np.ix_(arr, arr)]
    if not np.array_equal(block, block.T):
        raise GroupError("subgroup is not abelian")
    if len(arr) == 1:
        return AbelianStructure(AbelianGroup(()), np.array([G.identity]))

    def mul_fn(x, y):
        return G.mul[x, y]

    basis = _abelian_basis(mul_fn, G.identity, arr)
    basis = _merge_invariant_factors(mul_fn, G.identity, basis)
    to_parent = np.array([G.identity])
    for gen, d in basis:
        to_parent = G.mul[to_parent[:, None], _powers(mul_fn, G.identity, gen, d)].ravel()
    if not np.array_equal(np.sort(to_parent), arr):
        raise GroupError("abelian basis does not enumerate the subgroup")
    return AbelianStructure(AbelianGroup(tuple(d for _, d in basis)), to_parent)


def _orders(mul_fn, identity, elems) -> np.ndarray:
    """Order of each element of an index array, all powers taken at once."""
    orders = np.ones(len(elems), dtype=np.int64)
    y = elems.copy()
    live = y != identity
    while live.any():
        y[live] = mul_fn(y[live], elems[live])
        orders += live
        live &= y != identity
    return orders


def _powers(mul_fn, identity, g, d) -> np.ndarray:
    """g^0, ..., g^(d-1)."""
    out = [identity]
    for _ in range(d - 1):
        out.append(mul_fn(out[-1], g))
    return np.array(out, dtype=np.int64)


def _abelian_basis(mul_fn, identity, elems) -> list[tuple[int, int]]:
    """Primary decomposition + per-prime basis; returns [(generator, order)].

    `mul_fn` multiplies element indices elementwise, on ints or arrays."""
    orders = _orders(mul_fn, identity, elems)
    n = len(elems)
    primes = sorted({p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)})
    basis = []
    for p in primes:
        primary = elems[[_is_prime_power(int(o), p) for o in orders]]
        basis.extend(_p_group_basis(mul_fn, identity, primary, p))
    return basis


def _is_prime_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


def _p_group_basis(mul_fn, identity, elems, p) -> list[tuple[int, int]]:
    """Basis of an abelian p-group given as a sorted index array.

    Splits off a maximal-order cyclic subgroup, recurses on the quotient, and
    lifts quotient generators to genuine direct-sum generators.
    """
    if len(elems) == 1:
        return []

    orders = _orders(mul_fn, identity, elems)
    a1 = int(elems[np.argmax(orders)])    # the least element of maximal order
    d1 = int(orders.max())
    pow_list = _powers(mul_fn, identity, a1, d1)
    log_a1 = {int(y): s for s, y in enumerate(pow_list)}
    if d1 == len(elems):
        return [(a1, d1)]

    # each coset of <a1> is represented by its least element
    rep_of = np.zeros(int(elems.max()) + 1, dtype=np.int64)
    rep_of[elems] = mul_fn(elems[:, None], pow_list).min(axis=1)

    def q_mul(x, y):
        return rep_of[mul_fn(x, y)]

    out = [(a1, d1)]
    for gbar, mord in _p_group_basis(q_mul, int(rep_of[identity]),
                                     np.unique(rep_of[elems]), p):
        s = log_a1[int(_powers(mul_fn, identity, gbar, mord + 1)[-1])]
        if s % mord:
            raise GroupError("p-group basis lifting failed")  # impossible by theory
        t = (-(s // mord)) % d1
        out.append((int(mul_fn(gbar, pow_list[t])), mord))
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


def _sumset_mask(K: AbelianGroup, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """The mask of A + B for a mask A and an index array B over K."""
    out = np.zeros(K.order, dtype=bool)
    out[K.index(K.coords[A][:, None] + K.coords[B])] = True
    return out


def m_fold_mask(K: AbelianGroup, A: np.ndarray, m: int) -> np.ndarray:
    """A + A + ... + A (m times) for a mask A over K.

    Once |kA| = |(k+1)A|, (k+1)A = kA + a for every a in A, so every later
    sumset is a translate: mA = (k+1)A + (m-k-1)a. The multiple m-k-1 is
    reduced modulo the exponent of K first, so no coordinate product
    overflows.
    """
    members = np.flatnonzero(A)
    out, size = A, len(members)           # out = kA
    for k in range(1, m):
        out, last = _sumset_mask(K, out, members), size
        size = int(np.count_nonzero(out))
        if size == last:
            shift = (m - k - 1) % K.exponent
            return _sumset_mask(K, out, K.index(shift * K.coords[members[:1]]))
    return out


def invariant_small_doubling_set(K: AbelianGroup, L: AutAction, m: int,
                                 epsilon: Fraction | float | None = None
                                 ) -> tuple[np.ndarray, dict]:
    """Grow an L-invariant subset A of K with |A| >= epsilon |K| whose m-fold
    sumset still misses at least half of K; A is returned as a mask.

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

    ratio_bound = (10 * k * m) ** k      # a Python int: it outgrows int64
    A = np.arange(K.order) == 0
    size = 1
    mA = A                               # the m-fold sumset of {0}
    a = 1
    iterations = 0
    growth = []
    small_branch = Fraction(size) >= epsilon * K.order
    while Fraction(size) < epsilon * K.order:
        new = A | _sumset_mask(K, A, L.orbit(a))
        grown = int(np.count_nonzero(new))
        if grown == size:
            if A.all():
                break
            a = int(np.argmin(A))
            continue
        iterations += 1
        growth.append({"size": grown, "grew_by": grown / size})
        A, size = new, grown
        mA = m_fold_mask(K, A, m)
        if int(np.count_nonzero(mA)) > ratio_bound * size:
            raise RuntimeError("iterative sumset ratio bound violated")

    if np.any(A[L.perms] != A):
        raise RuntimeError("output set is not action-invariant")
    m_size = int(np.count_nonzero(mA))
    if 2 * m_size > K.order:
        msg = f"m-fold sumset too large (|mA|={m_size}, |K|={K.order})"
        if overridden:
            raise EpsilonError(f"{msg}; epsilon override too aggressive")
        raise RuntimeError(msg)
    diag = {"epsilon": float(epsilon), "k": k, "m": m,
            "small_branch": small_branch, "iterations": iterations,
            "set_size": size, "m_fold_size": m_size,
            "m_fold_ratio": m_size / K.order, "growth": growth}
    return A, diag


# ---------------------------------------------------------------------------
# The induced-representation counterexample


def conjugation_action_on_center(G: GroupTable, N: Subgroup,
                                 dec: AbelianStructure) -> AutAction:
    """Automorphisms of K = Z(N) induced by conjugation, one per coset of N
    (by its least element)."""
    reps = np.unique(G.mul[:, np.fromiter(N.members, dtype=np.int64)].min(axis=1))
    conj = G.mul[G.mul[reps[:, None], dec.to_parent], G.inv[reps][:, None]]
    position = np.full(G.order, -1)
    position[dec.to_parent] = np.arange(dec.group.order)
    perms = position[conj]
    if np.any(perms < 0):
        raise GroupError("conjugation does not preserve the center of N")
    return AutAction(dec.group, perms)


def _induced_characters(G: GroupTable, C: ClassData, dec: AbelianStructure,
                        thetas: np.ndarray) -> np.ndarray:
    """(b, num_classes) values of Ind_K^G of the characters coords[thetas]."""
    order = np.argsort(dec.to_parent)
    return induce_character(G, C, dec.to_parent[order],
                            dec.group.characters(thetas)[:, order])


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
    K = dec.group
    action = conjugation_action_on_center(G, N, dec)
    dual = dual_action(action)
    A, diag = invariant_small_doubling_set(K, dual, m, epsilon)

    # the dual orbits, each named by its least element, index blocks that
    # partition Irrep(G), each of Plancherel measure (orbit size)/|K|
    orbits, orbit_sizes = np.unique(dual.perms.min(axis=0), return_counts=True)
    thetas = np.flatnonzero(A)
    mult = decompose(T, _induced_characters(G, C, dec,
                                            np.concatenate([thetas, orbits])))
    V = RepMultiset(T, mult[:len(thetas)].sum(axis=0))

    kk = K.order
    mv = plancherel_frac(T, V)
    pw_mask = power_support_mask(T, V.support_mask(), m)
    m_pw = support_measure_frac(T, pw_mask)
    m_fold_size = diag["m_fold_size"]

    blocks, orbit_partition_ok, measures_ok = _partition_check(
        T, mult[len(thetas):], [Fraction(int(s), kk) for s in orbit_sizes])
    blocks = [{"orbit_size": int(s), **b} for s, b in zip(orbit_sizes, blocks)]

    report = {
        "set_size": len(thetas),
        "set": K.coords[thetas].tolist(),
        "center_order": kk,
        "num_coset_automorphisms": len(action),
        "measure_v": float(mv),
        "measure_v_exact": [mv.numerator, mv.denominator],
        "measure_identity_ok": mv == Fraction(len(thetas), kk),
        "m": m,
        "measure_v_power_m": float(m_pw),
        "power_measure_at_most_half": m_pw <= Fraction(1, 2),
        "m_fold_set_size": m_fold_size,
        "m_fold_mass_bound_ok": m_pw <= Fraction(m_fold_size, kk),
        "support": list(V.support()),
        "power_support": np.flatnonzero(pw_mask).tolist(),
        "orbit_blocks": blocks,
        "orbit_partition_ok": orbit_partition_ok,
        "orbit_measures_ok": measures_ok,
        "algorithm": diag,
    }
    return V, report


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
    thetas = np.arange(kk)
    blocks, partition_ok, measures_exact = _partition_check(
        T_N, decompose(T_N, _induced_characters(N_table, C_N, dec, thetas)),
        [Fraction(1, kk)] * kk)
    blocks = [{"theta": t, **b} for t, b in zip(dec.group.coords.tolist(), blocks)]
    return {"blocks": blocks, "partition_ok": partition_ok,
            "measures_exact": measures_exact, "center_order": kk}


def _partition_check(T: CharTable, mult: np.ndarray,
                     measures: list[Fraction]) -> tuple[list[dict], bool, bool]:
    """For a (b, r) stack of multiplicities: one block per row (its support
    and Plancherel measure), whether the supports partition Irrep(G), and
    whether each block has its expected measure."""
    masks = mult > 0
    got = [support_measure_frac(T, row) for row in masks]
    blocks = [{"support": np.flatnonzero(row).tolist(), "measure": float(m)}
              for row, m in zip(masks, got)]
    partition_ok = bool(np.all(np.count_nonzero(mult, axis=0) == 1))
    return blocks, partition_ok, got == measures
