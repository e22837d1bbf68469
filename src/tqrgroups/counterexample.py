"""Constructive small-tensor-power counterexamples: translate coverings of
iterated sumsets, the invariant small-doubling set algorithm on a dual group,
and the induced representation built from it whose m-th tensor power misses
at least half of Irrep(G) in Plancherel measure.

Abelian groups are groups.AbelianGroup, whose basis compute_char_table also
reads abelian tables off: elements are integer indices into exponent tuples,
subsets are boolean masks, automorphisms are index permutations, a character
is an exponent row against the invariant factors, so all sumset arithmetic is
exact integer arithmetic; complex values appear only where one is evaluated.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import groups
from .chartable import CharTable, induce_character
from .classfuncs import decompose, power_support_mask, support_measure_frac
from .groups import (AbelianGroup, GroupError, GroupTable, center_of_subset,
                     permutation_closure, sorted_unique)


def _unit_images(K: AbelianGroup, perms: np.ndarray) -> np.ndarray:
    """(k, rank, rank) coordinates of each map's images of the unit vectors."""
    return K.coords[perms[:, K.index(np.eye(len(K.factors), dtype=np.int64))]]


@dataclass(eq=False)
class AutAction:
    """A finite group of automorphisms of an AbelianGroup, as a (k, |K|)
    array of element permutations. The given maps are validated as
    automorphisms and closed by groups.permutation_closure, so generators may
    be passed and an already closed input keeps its order."""

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
        self.perms = permutation_closure(given)[0]

    def __len__(self):
        return len(self.perms)

    def orbit(self, x) -> np.ndarray:
        return sorted_unique(self.perms[:, x])


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
# Sumsets and translate covers
#
# Besides masks, a set of elements is an array of distinct int64 coordinate
# rows in lexicographic order, reduced mod the factors in an AbelianGroup and
# exact in the integer lattice (group=None).


def _mask(K: AbelianGroup, coords) -> np.ndarray:
    """The mask over K of coordinate rows (..., rank), reduced mod the factors."""
    out = np.zeros(K.order, dtype=bool)
    out[K.index(coords)] = True
    return out


def _set(group: AbelianGroup | None, rows: np.ndarray) -> np.ndarray:
    """The distinct elements of coordinate rows (..., rank) as a set of rows:
    through their mask in a group, by a lexicographic sort in the lattice."""
    if group is not None:
        return group.coords[_mask(group, rows)]
    rows = rows.reshape(-1, rows.shape[-1])
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.ones(len(rows), dtype=bool)
    keep[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    return rows[keep]


def _element_rows(group: AbelianGroup | None, A, times: int) -> np.ndarray:
    """The elements A as a set of rows. In the lattice, A is refused unless
    `times` times its largest coordinate (and `times` itself) fits in int64."""
    A = [[int(x) for x in a] for a in A]
    if group is None:
        top = max(abs(x) for a in A for x in a)
        if max(top, 1) * times > np.iinfo(np.int64).max:
            raise ValueError(f"lattice coordinates are int64, and {times} times "
                             f"the coordinate {top} leaves that range")
    return _set(group, np.array(A, dtype=np.int64))


def _m_fold(group: AbelianGroup | None, A: np.ndarray, m: int) -> np.ndarray:
    """A + A + ... + A (m times) for a set of rows A.

    Once |kA| = |(k+1)A|, (k+1)A = kA + a for every a in A, so every later
    sumset is a translate: mA = (k+1)A + (m-k-1)a. In a group the multiple
    m-k-1 is reduced modulo the exponent first, so no coordinate product
    overflows; in the lattice only a lone point stalls, and mA = m a.
    """
    out = A                               # out = kA
    for k in range(1, m):
        last = len(out)
        out = _set(group, out[:, None] + A)
        if len(out) == last:
            shift = m - k - 1 if group is None else (m - k - 1) % group.exponent
            return _set(group, out + shift * A[:1])
    return out


def _keys(group: AbelianGroup | None, rows: np.ndarray) -> np.ndarray:
    """A key per coordinate row (..., rank), equal iff the elements are: the
    element index in a group, the row's bytes in the lattice."""
    if group is not None:
        return group.index(rows)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, 8 * rows.shape[-1])))[..., 0]


def m_fold_sumset(group: AbelianGroup | None, A, m: int) -> np.ndarray:
    """A + A + ... + A (m times), exactly, as a set of rows."""
    if m < 1:
        raise ValueError("m must be >= 1")
    return _m_fold(group, _element_rows(group, A, m), m)


def translate_cover(B, n: int, m: int,
                    group: AbelianGroup | None = None) -> dict:
    """Cover the (mn)-fold sumset of B by at most (10km)^k translates of the
    n-fold sumset, where |B| = k+1, in an AbelianGroup or the lattice.

    With b0 the least element and g_i = b_i - b0, the candidates are the
    iterated sumset (m-1)n b0 + sum_i {0, j g_i, ..., (q-1) j g_i}, where
    j = 1 + n//k and q = ceil((mn+1)/j); in a group a multiple matters only
    modulo the exponent, so there are at most |K|. Those whose translate of
    nB meets mnB are kept, and the cover is verified by exhaustive membership.
    Returns the translates as a list of rows, their count and bound, and
    the sizes of nB and mnB.
    """
    B = list(B)
    if not B:
        raise ValueError("B must be nonempty")
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    # no coordinate below reaches (2k+1)mn times the largest one of B
    B = _element_rows(group, B, 2 * len(B) * m * n)
    k = len(B) - 1
    nB = m_fold_sumset(group, B, n)
    mnB = m_fold_sumset(group, B, m * n)
    bound = (10 * k * m) ** k if k > 0 else 1

    mod = (lambda c: c % group.exponent) if group is not None else (lambda c: c)
    cover = _set(group, mod((m - 1) * n) * B[:1])
    if m > 1 and k > 0:    # otherwise mnB = nB + (m-1)n b0 already
        j = 1 + n // k
        q = -(-(m * n + 1) // j)  # ceil
        steps = mod(np.arange(q if group is None else min(q, group.exponent)) * mod(j))
        for g in B[1:] - B[0]:
            cover = _set(group, cover[:, None] + steps[:, None] * g)

    mn_keys = _keys(group, mnB)
    kept = np.zeros(len(cover), dtype=bool)
    covered = np.zeros(len(mnB), dtype=bool)
    block = max(1, len(mnB) // len(nB))    # about |mnB| sums at a time
    for i in range(0, len(cover), block):
        keys = _keys(group, cover[i:i + block, None] + nB)
        hit = np.isin(keys, mn_keys)
        kept[i:i + block] = hit.any(axis=1)
        covered |= np.isin(mn_keys, keys[hit])
    if not covered.all():
        raise RuntimeError("translate cover failed exhaustive verification")
    translates = cover[kept]
    if len(translates) > bound:
        raise RuntimeError(f"translate count {len(translates)} exceeds bound {bound}")
    return {"translates": translates.tolist(), "count": len(translates), "bound": bound,
            "n_set_size": len(nB), "mn_set_size": len(mnB)}


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
    size = m_size = 1                    # {0} and its m-fold sumset
    a = 1
    iterations = 0
    growth = []
    small_branch = Fraction(size) >= epsilon * K.order
    while Fraction(size) < epsilon * K.order:
        new = A | _mask(K, K.coords[A][:, None] + K.coords[L.orbit(a)])
        grown = int(np.count_nonzero(new))
        if grown == size:
            if A.all():
                break
            a = int(np.argmin(A))
            continue
        iterations += 1
        growth.append({"size": grown, "grew_by": grown / size})
        A, size = new, grown
        m_size = len(_m_fold(K, K.coords[A], m))
        if m_size > ratio_bound * size:
            raise RuntimeError("iterative sumset ratio bound violated")

    if np.any(A[L.perms] != A):
        raise RuntimeError("output set is not action-invariant")
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


def conjugation_action_on_center(G: GroupTable, K: AbelianGroup,
                                 to_parent: np.ndarray) -> AutAction:
    """Automorphisms of K = Z(N), for a normal N, induced by conjugation, closed
    by AutAction from G's generators: N centralises K, so one per coset of N.
    K and to_parent are groups._invariant_factors' pair."""
    conj = groups.conjugates(G, G.generators, to_parent)
    position = np.full(G.order, -1)
    position[to_parent] = np.arange(K.order)
    perms = position[conj]
    if np.any(perms < 0):
        raise GroupError("conjugation does not preserve the center of N")
    return AutAction(K, perms)


def _induced_characters(G: GroupTable, K: AbelianGroup, to_parent: np.ndarray,
                        thetas: np.ndarray) -> np.ndarray:
    """(b, num_classes) values of Ind_K^G of the characters coords[thetas]."""
    order = np.argsort(to_parent)
    return induce_character(G, to_parent[order], K.characters(thetas)[:, order])


def build_counterexample_rep(T: CharTable, N, m: int,
                             epsilon: Fraction | float | None = None
                             ) -> tuple[np.ndarray, dict]:
    """Construct V = sum over theta in A of Ind_K^G(theta) for an invariant
    small-doubling set A of characters of K = Z(N), and verify that the m-th
    tensor power of V has Plancherel measure at most 1/2, for N the members
    of a normal subgroup of G = T.group; V is its (num_irreps,) int64 multiplicities.
    """
    G = T.group
    members, _, union = groups._witnesses(G, N)
    if not (union and G.identity in members):
        raise GroupError("N must be normal")
    K_members = center_of_subset(G, groups.subgroup_from_members(G, members))
    if len(K_members) <= 1:
        raise GroupError("the center of N is trivial")
    # center_of_subset proved K commutative, and gives its members ascending
    K, to_parent = groups._invariant_factors(G, K_members)
    action = conjugation_action_on_center(G, K, to_parent)
    dual = dual_action(action)
    A, diag = invariant_small_doubling_set(K, dual, m, epsilon)

    # the dual orbits, each named by its least element, index blocks that
    # partition Irrep(G), each of Plancherel measure (orbit size)/|K|;
    # conjugate characters of K induce the same character, and A is a union
    # of orbits, so each orbit is induced once and V counts it |orbit| times
    orbits, orbit_sizes = sorted_unique(dual.perms.min(axis=0), return_counts=True)
    thetas = np.flatnonzero(A)
    mult = decompose(T, _induced_characters(G, K, to_parent, orbits))
    V = (orbit_sizes * A[orbits]) @ mult
    support = V > 0

    kk = K.order
    mv = support_measure_frac(T, support)
    pw_mask = power_support_mask(T, support, m)
    m_pw = support_measure_frac(T, pw_mask)
    m_fold_size = diag["m_fold_size"]

    blocks, orbit_partition_ok, measures_ok = _partition_check(
        T, mult, [Fraction(int(s), kk) for s in orbit_sizes])
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
        "support": np.flatnonzero(V).tolist(),
        "power_support": np.flatnonzero(pw_mask).tolist(),
        "orbit_blocks": blocks,
        "orbit_partition_ok": orbit_partition_ok,
        "orbit_measures_ok": measures_ok,
        "algorithm": diag,
    }
    return V, report


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
