"""Finite groups as dense index tables, plus the structural data everything
else consumes: classes, centers, normal subgroups, quotients, invariant factors.
A subgroup is the read-only, ascending int64 array of its members' indices.

All structures are immutable after construction and safe to share between
threads.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import config

if TYPE_CHECKING:
    from .chartable import CharTable


class GroupError(ValueError):
    """Raised for invalid group specifications or broken group axioms."""


# ---------------------------------------------------------------------------
# Core table type


@dataclass(eq=False)
class GroupTable:
    """A finite group on element indices 0..order-1 with a full Cayley table,
    whose identity and inverses _check_group_axioms finds and checks as given,
    before the table is narrowed; it holds the generators handed over (else
    those _greedy_generators finds), its classes, and class_orders once read."""

    mul: np.ndarray          # shape (order, order), mul[a, b] = index of a*b, table_dtype(order)
    labels: list[str] | None = None
    source: dict = field(default_factory=dict)
    generators: tuple[int, ...] = None
    order: int = field(init=False)
    identity: int = field(init=False)
    inv: np.ndarray = field(init=False)   # shape (order,), int64
    classes: ClassData = field(init=False, repr=False)

    def __post_init__(self):
        self.identity, self.inv = _check_group_axioms(np.asarray(self.mul))
        self.order = len(self.inv)
        self.mul = np.ascontiguousarray(self.mul, dtype=table_dtype(self.order))
        self.mul.setflags(write=False)
        self.inv.setflags(write=False)
        self.generators = tuple(_greedy_generators(self.mul, self.identity)
                                if self.generators is None else self.generators)
        self.classes = conjugacy_classes(self)

    def __repr__(self):
        name = self.source.get("family", self.source.get("type", "group"))
        return f"GroupTable({name}, order={self.order})"

    def is_abelian(self) -> bool:
        """True iff every class has one element."""
        return self.classes.num_classes == self.order

    @functools.cached_property
    def class_orders(self) -> np.ndarray:
        """The order of the elements of each class, that of its representative."""
        return element_orders(lambda a, b: self.mul[a, b], self.identity,
                              self.classes.representatives)

    def label(self, x: int) -> str:
        if self.labels is not None:
            return self.labels[x]
        return str(x)


def table_dtype(order: int) -> np.dtype:
    """The Cayley table's entry type: int16 while every index 0..order-1 fits
    (order <= 32768), else int32. Values read off a table are only indices;
    arithmetic on them is done in int64."""
    return np.dtype(np.int16 if order <= 1 << 15 else np.int32)


def element_orders(mul_fn, identity, elems) -> np.ndarray:
    """Order of each element of an index array: the first row of its powers
    x^1, x^2, ... that holds the identity, plus 1. `mul_fn` multiplies index
    arrays elementwise, with broadcasting; the block of powers is doubled by
    _doubled, log2(largest order) products in all."""
    return _orders_of_powers(mul_fn, identity, np.asarray(elems, dtype=np.int64)[None])


def _orders_of_powers(mul_fn, identity, pw) -> np.ndarray:
    """The orders of the columns of pw, which holds x^1..x^m of each column
    x. The block stays within _SLAB_CELLS cells while 2 * (largest order)
    does: before a doubling would pass it, the columns still without the
    identity go on in slabs narrow enough to double."""
    while True:
        hit = pw == identity
        found = hit.any(axis=0)
        if found.all():
            return hit.argmax(axis=0) + 1
        m, w = pw.shape
        width = max(1, _SLAB_CELLS // (2 * m))
        if w > width:
            orders = hit.argmax(axis=0) + 1
            rest = np.flatnonzero(~found)
            for lo in range(0, len(rest), width):
                cols = rest[lo:lo + width]
                orders[cols] = _orders_of_powers(mul_fn, identity, pw[:, cols])
            return orders
        pw = _doubled(mul_fn, pw)


def _doubled(mul_fn, pw) -> np.ndarray:
    """The powers x^1..x^m along the first axis of pw, extended to
    x^1..x^(2m) by one product x^m * (x^1..x^m)."""
    return np.concatenate([pw, mul_fn(pw[-1], pw)])


def sorted_unique(values, return_counts=False):
    """np.unique of an array, flattened: its distinct values, ascending and
    in its dtype (and how often each occurs), by one sort and a neighbour
    mask. np.unique hashes, which on the small index arrays of this package
    is about ten times slower than the sort."""
    ordered = np.sort(values, axis=None)
    first = np.empty(ordered.shape, dtype=bool)   # the first entry of each run
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    if not return_counts:
        return ordered[first]
    starts = np.flatnonzero(first)
    return ordered[starts], np.diff(starts, append=ordered.size)


def _least_in_orbit(maps, low) -> np.ndarray:
    """Each label, at first `low` (an element of its orbit no greater than it),
    takes the least label of its images under the permutation rows of `maps`
    and its own, then its label's label, until nothing moves: its orbit's least."""
    n, prev = len(low), None
    while not np.array_equal(low, prev):
        prev, low = low, np.minimum(low, low[maps].min(axis=0, initial=n))
        low = low[low]
    return low


def _greedy_generators(mul: np.ndarray, identity: int) -> list[int]:
    """In index order, each element outside the subgroup generated so far, the
    orbit of the identity under x -> x*s and its inverse for the set's s (a
    bijection in a group; Light's test proves it of cayley input), joins the
    set. Each at least doubles it (Lagrange), so there are at most floor(log2
    |G|); one that does not shows the table is not associative: GroupError."""
    low, rows, gens = np.arange(mul.shape[0]), [], []
    while not (reached := low == low[identity]).all():
        gens.append(int(np.argmin(reached)))
        right = mul[:, gens[-1]].astype(np.intp)   # x -> x*s
        rows += [right, np.argsort(right)]          # and its inverse
        low = _least_in_orbit(np.array(rows), low)
        if np.count_nonzero(low == low[identity]) < 2 * np.count_nonzero(reached):
            raise GroupError("table is not associative: a generator does not double")
    return gens


@dataclass(eq=False)
class ClassData:
    """Conjugacy classes in canonical order: identity class first, then by
    minimal element index."""

    sizes: np.ndarray                # int, per class
    class_of: np.ndarray             # element index -> class index
    representatives: np.ndarray      # minimal element index per class

    def __post_init__(self):
        self.sizes = np.ascontiguousarray(self.sizes, dtype=np.int64)
        self.class_of = np.ascontiguousarray(self.class_of, dtype=np.int64)
        self.representatives = np.ascontiguousarray(self.representatives, dtype=np.int64)
        for arr in (self.sizes, self.class_of, self.representatives):
            arr.setflags(write=False)

    @property
    def num_classes(self) -> int:
        return len(self.sizes)

    @property
    def min_nontrivial_size(self) -> int | None:
        """c(G), the least size of a class but the identity's; None for the trivial group."""
        return int(self.sizes[1:].min()) if len(self.sizes) > 1 else None

    def __repr__(self):
        return f"ClassData(sizes={self.sizes.tolist()}, c={self.min_nontrivial_size})"


# ---------------------------------------------------------------------------
# Validation


_SLAB_CELLS = 1 << 20   # table cells per slab in the inverse and associativity scans
_FILL_CELLS = 1 << 15   # cells per slab of table rows filled or gathered, or of closure products


def _check_group_axioms(mul: np.ndarray) -> tuple[int, np.ndarray]:
    """Verify the range, identity and inverse laws; returns (identity, inv).
    Associativity is checked by _check_associative, on cayley input only."""
    n = len(mul) if mul.ndim else 0
    if not n or mul.shape != (n, n):
        raise GroupError("multiplication table is not a nonempty square")
    if mul.min() < 0 or mul.max() >= n:
        raise GroupError("table entries out of range")

    idx = np.arange(n)
    identity = None
    for e in range(n):
        if np.array_equal(mul[e], idx) and np.array_equal(mul[:, e], idx):
            identity = e
            break
    if identity is None:
        raise GroupError("no identity element")

    # a*b == identity for exactly one b per row a, and b*a == identity too;
    # scanned in slabs of rows so the mask stays O(slab * n)
    inv = np.empty(n, dtype=np.int64)
    slab = max(1, _SLAB_CELLS // n)
    for lo in range(0, n, slab):
        hit = mul[lo:lo + slab] == identity
        rows = np.arange(hit.shape[0])
        first = hit.argmax(axis=1)
        inv[lo:lo + len(rows)] = first
        # one hit per row: a hit at each row's argmax and no more hits than
        # rows; the per-row sum is taken only to name a failing row
        if not (np.count_nonzero(hit) == len(rows) and hit[rows, first].all()
                and (mul[first, lo + rows] == identity).all()):
            bad = (hit.sum(axis=1) != 1) | (mul[first, lo + rows] != identity)
            raise GroupError(f"element {lo + int(bad.argmax())} has no two-sided inverse")
    return identity, inv


def _check_associative(G: GroupTable) -> None:
    """Light's test (Clifford-Preston I, 1.2): the s with (x*s)*y == x*(s*y) for
    all x, y hold e and are closed under products, so the generators suffice."""
    slab = max(1, _SLAB_CELLS // G.order)
    for s in G.generators:
        for lo in range(0, G.order, slab):
            rows = G.mul[lo:lo + slab]
            if not np.array_equal(np.take(G.mul, rows[:, s], axis=0),
                                  np.take(rows, G.mul[s], axis=1)):
                raise GroupError("multiplication table is not associative")


# ---------------------------------------------------------------------------
# Family constructors


def _fill_circulant(out: np.ndarray, sign: int) -> None:
    """out[a, b] = (a + sign*b) mod n on an (n, n) block of a table, sign =
    +1 or -1. Row a is n consecutive entries of one 2n-entry row r,
    read forwards from r[a] or backwards from r[n-1+a], so no n^2 array of
    sums is formed; every read lies in r[0 .. 2n-2]."""
    n = out.shape[0]
    r = (np.arange(2 * n) + (sign < 0)) % n
    step = r.strides[0]
    out[:] = as_strided(r[0 if sign > 0 else n - 1:], (n, n), (step, sign * step))


def _cyclic(n: int) -> GroupTable:
    if n < 1:
        raise GroupError("cyclic order must be >= 1")
    mul = np.empty((n, n), dtype=table_dtype(n))
    _fill_circulant(mul, 1)
    return GroupTable(mul, [str(k) for k in range(n)],
                      {"family": "cyclic", "params": {"n": n}}, [1] if n > 1 else [])


def _dihedral(n: int) -> GroupTable:
    """Symmetries of the regular n-gon, order 2n; indices 0..n-1 are rotations."""
    if n < 1:
        raise GroupError("dihedral parameter must be >= 1")
    m = 2 * n
    mul = np.empty((m, m), dtype=table_dtype(m))
    _fill_circulant(mul[:n, :n], 1)
    _fill_circulant(mul[n:, n:], -1)
    # below m, so in range of the table's type
    np.add(mul[:n, :n], n, out=mul[:n, n:])
    np.add(mul[n:, n:], n, out=mul[n:, :n])
    labels = [f"r{k}" for k in range(n)] + [f"s·r{k}" for k in range(n)]
    # generated by the rotation r1 and the reflection s = s·r0
    return GroupTable(mul, labels, {"family": "dihedral", "params": {"n": n}}, sorted({1, n}))


def _perm_family(n: int, family: str) -> GroupTable:
    """S_n, the closure of (0 1) and (0 1 ... n-1), or A_n, the closure of
    (0 1 2) and whichever of (0 1 ... n-1) and (1 ... n-1) is even."""
    if n < 1:
        raise GroupError("degree must be >= 1")
    if family == "symmetric":
        gens = [[1, 0, *range(2, n)], [*range(1, n), 0]] if n > 1 else []
    else:
        gens = [[1, 2, 0, *range(3, n)],
                [*range(1, n), 0] if n % 2 else [0, *range(2, n), 1]] if n > 2 else []
    return _perm_group(n, gens, {"family": family, "params": {"n": n}})


def permutation_closure(gens: np.ndarray) -> tuple[np.ndarray, Callable]:
    """The group the permutation rows `gens` generate (row p maps k -> p[k]),
    in their dtype: the distinct generators in order, then the identity, then
    each new p∘g (k -> p[g[k]]) breadth first; more than MAX_ORDER elements
    raise GroupError. Also returns position(rows), each row's place in it.
    Rows are multiplied out in slabs of about _FILL_CELLS entries, each keyed
    by one np.void view, not by a numpy call an element."""
    gens = np.ascontiguousarray(gens)
    degree = gens.shape[1]
    key = np.dtype((np.void, degree * gens.itemsize))
    index: dict[bytes, int] = {}

    def fresh(rows):   # the C-ordered rows not indexed before, in order, now indexed
        new = [k for k in dict.fromkeys(rows.view(key).ravel().tolist()) if k not in index]
        index.update(zip(new, itertools.count(len(index))))
        if len(index) > config.MAX_ORDER:
            raise GroupError(f"generator closure exceeds MAX_ORDER={config.MAX_ORDER}")
        return np.frombuffer(b"".join(new), gens.dtype).reshape(-1, degree)

    def position(rows):   # of C-ordered rows in gens.dtype
        return np.fromiter(map(index.__getitem__, rows.view(key).ravel().tolist()), np.intp)

    gens = fresh(gens)
    found = [gens, fresh(np.arange(degree, dtype=gens.dtype)[None])]
    slab = max(1, _FILL_CELLS // max(1, gens.size))
    for rows in found:   # breadth first: `found` grows as it is read
        for lo in range(0, len(rows), slab):
            found.append(fresh(rows[lo:lo + slab].take(gens, axis=1).reshape(-1, degree)))
    return np.concatenate(found), position


def _perm_group(degree: int, gens, source: dict) -> GroupTable:
    """The closure of `gens` on its rows in lexicographic order, labelled by
    their digits up to degree 10 and by str(tuple) above. Each distinct
    non-identity generator's row is looked up in the closure; the rest are
    filled breadth first from the identity's, row g∘y = np.take(row g, row y).
    The distinct generators are handed over if at most floor(log2 m), the
    bound of a greedy set; a spec may list any number."""
    if degree == 0:   # the one empty permutation, which no void key holds
        return GroupTable(np.zeros((1, 1), dtype=np.int64), [""], source, [])
    gens = np.array(gens, dtype=np.int64).reshape(-1, degree)
    found, position = permutation_closure(gens)
    m = len(found)
    order = np.lexsort(found.T[::-1])
    perms = found[order]
    rank = np.argsort(order)   # closure position -> lexicographic position
    # the distinct generators in the order given, less the identity (row 0)
    rows = [g for g in dict.fromkeys(rank[position(gens)].tolist()) if g]
    products = [rank[position(perms[g][perms])] for g in rows]   # g∘p, k -> g[p[k]]
    del found, position   # the closure's index of row keys goes before the table comes

    mul = np.empty((m, m), dtype=table_dtype(m))
    mul[0] = np.arange(m)   # the identity, lexicographically first
    for g, row in zip(rows, products):
        mul[g] = row
    filled = np.arange(m) == 0
    frontier = np.zeros(1, dtype=np.intp)
    slab = max(1, _FILL_CELLS // m)
    while rows and frontier.size:
        reached = []
        for g in rows:
            # row g is a permutation, so the fresh targets are distinct;
            # cast once to intp, as they index three times below
            targets = mul[g, frontier].astype(np.intp)
            fresh = ~filled[targets]
            ys, zs = frontier[fresh], targets[fresh]
            for lo in range(0, len(ys), slab):
                mul[zs[lo:lo + slab]] = np.take(mul[g], mul[ys[lo:lo + slab]])
            filled[zs] = True
            reached.append(zs)
        frontier = np.concatenate(reached)
    labels = ([str(tuple(p)) for p in perms.tolist()] if degree > 10 else np.frombuffer(
        (perms + 48).astype(np.uint8).tobytes(), f"S{degree}").astype(str).tolist())
    return GroupTable(mul, labels, source, rows if len(rows) < m.bit_length() else None)


def _quaternion8() -> GroupTable:
    # (u, s) is (-1)^s u for the units u = 1, i, j, k, at index 2u + s, which
    # lists the elements as 1, -1, i, -i, j, -j, k, -k; the unit part of u*v
    # is u xor v and NEG[u, v] is its sign (i*i = -1, i*j = k, j*i = -k, ...),
    # so (u, s).(v, t) has index 2 (u xor v) + (s + t + NEG[u, v]) mod 2,
    # written on the axes [u, s, v, t]
    dt = table_dtype(8)
    NEG = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=dt)
    u, s = np.arange(4, dtype=dt), np.arange(2, dtype=dt)
    mul = (2 * (u[:, None, None, None] ^ u[:, None])
           + (s[:, None, None] + s + NEG[:, None, :, None]) % 2).reshape(8, 8)
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    # generated by i and j
    return GroupTable(mul, names, {"family": "quaternion8", "params": {}}, [2, 4])


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p ** 0.5) + 1))


def _extraspecial(p: int) -> GroupTable:
    """Upper unitriangular 3x3 matrices over F_p; order p^3, center of order p."""
    if not _is_prime(p):
        raise GroupError("extraspecial parameter must be prime")
    m, dt = p ** 3, table_dtype(p ** 3)
    # (a, b, c) has index a p^2 + b p + c, and (a, b, c).(d, e, f) is
    # (a + d, b + e, c + f + a e); the index of the product is head[a, b, d, e]
    # + tail[a, c, e, f], both p^4 arrays summed straight into the table
    r = np.arange(p)
    add = (r[:, None] + r) % p
    head = (add[:, None, :, None] * p ** 2 + add[None, :, None, :] * p).astype(dt)
    tail = ((r[:, None, None] + r + np.multiply.outer(r, r)[:, None, :, None]) % p).astype(dt)
    mul = np.empty((p, p, p, p, p, p), dtype=dt)
    np.add(head[:, :, None, :, :, None], tail[:, None, :, None, :, :], out=mul)
    labels = [f"({a},{b},{c})" for a, b, c in itertools.product(range(p), repeat=3)]
    # generated by (0, 1, 0) and (1, 0, 0), whose commutator is (0, 0, 1)
    return GroupTable(mul.reshape(m, m), labels,
                      {"family": "extraspecial", "params": {"p": p}}, [p, p * p])


def _primitive_root(p: int) -> int:
    """The least generator of the multiplicative group of F_p, p prime."""
    primes = [q for q in range(2, p) if (p - 1) % q == 0 and _is_prime(q)]
    return next(r for r in range(1, p) if all(pow(r, (p - 1) // q, p) != 1 for q in primes))


def _affine(p: int) -> GroupTable:
    """Invertible affine maps x -> a x + b of F_p; order p(p-1)."""
    if not _is_prime(p):
        raise GroupError("affine parameter must be prime")
    m, dt = p * (p - 1), table_dtype(p * (p - 1))
    # (a, b) has index (a - 1) p + b, and (a, b).(a2, b2), first x -> a2 x + b2
    # and then x -> a x + b, is (a a2, a b2 + b); the index of the product is
    # high[a, a2] + low[a, b, b2], summed straight into the table
    labels = [f"x->{a}x+{b}" for a in range(1, p) for b in range(p)]
    a, b = np.arange(1, p), np.arange(p)
    high = ((np.multiply.outer(a, a) % p - 1) * p).astype(dt)
    low = ((a[:, None, None] * b + b[:, None]) % p).astype(dt)
    mul = np.empty((p - 1, p, p - 1, p), dtype=dt)
    np.add(high[:, None, :, None], low[:, :, None, :], out=mul)
    # generated by the translation x -> x + 1 and x -> r x for a primitive root r
    gens = [1] if p == 2 else [1, (_primitive_root(p) - 1) * p]
    return GroupTable(mul.reshape(m, m), labels, {"family": "affine", "params": {"p": p}}, gens)


def _direct_product(left: GroupTable, right: GroupTable, source: dict) -> GroupTable:
    na, nb = left.order, right.order
    _check_order(na * nb)
    # (a, b)(c, d) has index ac*nb + bd, summed in int64 and written straight
    # into the narrow table, with no (na*nb)^2 int64 array in between
    mul = np.empty((na, nb, na, nb), dtype=table_dtype(na * nb))
    np.add((left.mul * np.int64(nb))[:, None, :, None], right.mul[None, :, None, :],
           out=mul, casting="unsafe")
    mul = mul.reshape(na * nb, na * nb)
    labels = None
    if left.labels is not None and right.labels is not None:
        labels = [f"({la},{lb})" for la in left.labels for lb in right.labels]
    # (g, e) and (e, h) for the generators g of the left factor and h of the right
    gens = ([g * nb + right.identity for g in left.generators]
            + [left.identity * nb + h for h in right.generators])
    return GroupTable(mul, labels, source, gens)


def _field(spec: dict, key: str):
    """spec[key], with a missing key reported as a bad group spec."""
    try:
        return spec[key]
    except KeyError:
        raise GroupError(f"group spec is missing {key!r} (in {spec!r})") from None


def _int_field(spec: dict, key: str) -> int:
    """spec[key] as an integer; a float, string or bool is refused."""
    value = _field(spec, key)
    if isinstance(value, bool) or not hasattr(value, "__index__"):
        raise GroupError(f"group spec field {key!r} must be an integer, not {value!r}")
    return operator.index(value)


def _check_order(order: int) -> None:
    """Refuse a group above MAX_ORDER before its Cayley table is allocated."""
    if order > config.MAX_ORDER:
        raise GroupError(f"order {order} exceeds MAX_ORDER={config.MAX_ORDER}")


# family -> (parameter name, order from the parameter alone, constructor);
# a degree above 20 is not multiplied out (21! > 2^64), so it costs nothing
_FAMILIES = {
    "cyclic": ("n", lambda n: n, _cyclic),
    "dihedral": ("n", lambda n: 2 * n, _dihedral),
    "symmetric": ("n", lambda n: math.factorial(max(n, 0)) if n <= 20 else math.inf,
                  lambda n: _perm_family(n, "symmetric")),
    "alternating": ("n", lambda n: max(1, math.factorial(max(n, 0)) // 2) if n <= 20
                    else math.inf, lambda n: _perm_family(n, "alternating")),
    "extraspecial": ("p", lambda p: p ** 3, _extraspecial),
    "affine": ("p", lambda p: p * (p - 1), _affine),
}

# Most products on one path of a spec: without a trivial factor, one nested d
# deep has order >= 2^(d+1) > MAX_ORDER once d >= 14. build_group recurses per level
_MAX_PRODUCT_DEPTH = 64


def build_group(spec: dict, _depth: int = 0) -> GroupTable:
    """Construct a validated GroupTable from a group-spec descriptor.

    Accepted shapes:
      {"family": name, "params": {...}}      named family
      {"type": "cayley", "table": [[int]]}   explicit table, 0-based indices
      {"type": "permutation", "degree": d, "generators": [[int]]}
    """
    if not isinstance(spec, dict):
        raise GroupError(f"group spec must be a JSON object, not {spec!r}")
    if "family" in spec:
        name = spec["family"]
        params = spec.get("params", {})
        if not isinstance(params, dict):
            raise GroupError(f"group spec params must be a JSON object, not {params!r}")
        if not isinstance(name, str):
            raise GroupError(f"group spec family must be a string, not {name!r}")
        if name in ("product", "direct_product"):
            if _depth == _MAX_PRODUCT_DEPTH:
                raise GroupError(f"products nest more than {_MAX_PRODUCT_DEPTH} deep")
            left = build_group(_field(params, "left"), _depth + 1)
            right = build_group(_field(params, "right"), _depth + 1)
            return _direct_product(left, right,
                                   {"family": "product",
                                    "params": {"left": left.source, "right": right.source}})
        if name == "quaternion8":
            return _quaternion8()
        if name not in _FAMILIES:
            raise GroupError(f"unknown family {name!r}")
        key, order, construct = _FAMILIES[name]
        k = _int_field(params, key)
        _check_order(order(k))
        return construct(k)
    kind = spec.get("type")
    if kind == "cayley":
        table = _cayley_table(_field(spec, "table"))
        labels = spec.get("labels")
        if labels is not None and not (
                isinstance(labels, list) and len(labels) == len(table)
                and all(isinstance(x, str) for x in labels)):
            raise GroupError(f"cayley labels must be a list of {len(table)} strings")
        # GroupTable checks the range and axioms on the int64 array, so no
        # entry wraps into range when it is narrowed
        G = GroupTable(table, labels)
        G.source = cayley_spec(G)
        _check_associative(G)
        return G
    if kind == "permutation":
        degree = _int_field(spec, "degree")
        if degree < 0:
            raise GroupError(f"permutation degree must be >= 0, not {degree}")
        # Cayley's theorem: a group of order at most MAX_ORDER acts
        # faithfully on that many points, so no larger degree is needed, and
        # none is allocated
        if degree > config.MAX_ORDER:
            raise GroupError(f"permutation degree {degree} exceeds MAX_ORDER={config.MAX_ORDER}")
        gens = _field(spec, "generators")
        if not (isinstance(gens, list) and all(is_list_of(g, int) for g in gens)):
            raise GroupError("permutation generators must be a list of integer lists")
        for g in gens:
            if sorted(g) != list(range(degree)):
                raise GroupError(f"{tuple(g)} is not a permutation of 0..{degree - 1}")
        return _perm_group(degree, gens, {"type": "permutation", "degree": degree,
                                          "generators": [list(g) for g in gens]})
    raise GroupError(f"unrecognized group spec: {spec!r}")


def cayley_spec(G: GroupTable) -> dict:
    """G as a cayley spec, sharing its read-only mul; the JSON writers make it lists."""
    labels = {} if G.labels is None else {"labels": G.labels}
    return {"type": "cayley", "table": G.mul, **labels}


def is_list_of(items, kind) -> bool:
    """True for a list whose members are all of type `kind` exactly (a bool
    is not an int here)."""
    return isinstance(items, list) and set(map(type, items)) <= {kind}


def _cayley_table(table) -> np.ndarray:
    """The table of a cayley spec, n >= 1 lists of n JSON integers, as an
    (n, n) array; _check_group_axioms checks that they lie in 0..n-1."""
    n = len(table) if isinstance(table, list) else 0
    _check_order(n)
    if not (n and all(is_list_of(row, int) and len(row) == n for row in table)):
        raise GroupError("cayley table must be a square array of integers")
    try:
        return np.array(table, dtype=np.int64)
    except OverflowError:
        raise GroupError("table entries out of range") from None


# ---------------------------------------------------------------------------
# Structure computations


def conjugates(G: GroupTable, gs, xs=None) -> np.ndarray:
    """The (len(gs), len(xs)) indices of g x g^-1 for g in gs and x in xs,
    over all of G when xs is None, in the table's dtype."""
    gs = np.asarray(gs, dtype=np.int64)
    return G.mul[G.mul[gs] if xs is None else G.mul[gs[:, None], xs], G.inv[gs][:, None]]


def conjugacy_classes(G: GroupTable) -> ClassData:
    """Orbit partition of G under conjugation.

    Canonical order: the identity class first, then ascending minimal element
    index. With the family constructors' element enumerations this puts, e.g.,
    the transpositions of a symmetric group before the 3-cycles. A class is
    an orbit under conjugation by the generators and their inverses, and
    _least_in_orbit labels it by its least element. A GroupTable computes
    its classes as it is built, so this returns G.classes once G holds them.
    """
    if hasattr(G, "classes"):
        return G.classes
    e = G.identity
    gens = np.array(G.generators, dtype=np.int64)
    both = np.concatenate([gens, G.inv[gens]])
    # row i: x -> s x s^-1, as intp so the loop indexes with it uncast
    maps = conjugates(G, both).astype(np.intp)
    low = _least_in_orbit(maps, np.arange(G.order))
    # the identity class first, then by least element
    low = np.where(low == e, -1, low)
    reps = sorted_unique(low)
    class_of = np.searchsorted(reps, low)
    reps[0] = e
    sizes = np.bincount(class_of)
    return ClassData(sizes=sizes, class_of=class_of, representatives=reps)


def class_matrix(G: GroupTable, coeffs: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * M_i at the class representatives z_k: entry (j, k) is the
    sum over y in C_j of coeffs[class(z_k*y^-1)], from one gather of mul and one
    bincount per slab of at most _SLAB_CELLS cells, with no loop over G."""
    C = G.classes
    r, cl = C.num_classes, C.class_of
    slab = max(1, _SLAB_CELLS // G.order)
    out = np.empty((r, r))
    for lo in range(0, r, slab):
        z = C.representatives[lo:lo + slab]
        bins = cl + r * np.arange(len(z))[:, None]   # (k in the slab, class of y)
        sums = np.bincount(bins.ravel(), coeffs[cl[G.mul[z[:, None], G.inv]]].ravel(), r * len(z))
        out[:, lo:lo + len(z)] = sums.reshape(len(z), r).T
    return out


def _member_array(G: GroupTable, members) -> np.ndarray:
    """The distinct members, ascending, as int64; an index outside
    0..|G|-1 is refused, not wrapped or left to raise IndexError."""
    # an array is taken whole: fromiter would step through it element by element
    arr = sorted_unique(np.asarray(members, dtype=np.int64) if isinstance(members, np.ndarray)
                        else np.fromiter(members, dtype=np.int64))
    if arr.size and (arr[0] < 0 or arr[-1] >= G.order):
        raise GroupError(f"member indices must lie in 0..{G.order - 1}")
    return arr


def _witnesses(G: GroupTable, members):
    """(sorted members, each one's witness, whether they are a union of
    classes N). N's witnesses are its class representatives: x*hgh^-1 =
    h*(h^-1 x h)*g*h^-1 puts N*(class of g) in N once N*g is, and x commutes
    with N iff its representative does. Other sets are their own witnesses."""
    C, arr = G.classes, _member_array(G, members)
    cls = C.class_of[arr]
    union = bool(C.sizes[sorted_unique(cls)].sum() == arr.size)
    return arr, (C.representatives[cls] if union else arr), union


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def subgroup_from_members(G: GroupTable, members) -> np.ndarray:
    """The distinct members, ascending, once validated as a subgroup of G."""
    arr, owner, _ = _witnesses(G, members)
    inside = np.bincount(arr, minlength=G.order)  # 1 on the members, else 0
    return _validated(G, arr, inside, sorted_unique(owner))


def _validated(G: GroupTable, arr, inside, owners) -> np.ndarray:
    """Sorted members arr, with indicator `inside` over G, read-only once
    they hold the identity, arr * owners lies inside and |arr| divides |G|."""
    if not inside[G.identity]:
        raise GroupError("subgroup must contain the identity")
    if not inside[G.mul[arr[:, None], owners]].all():
        raise GroupError("member set is not closed under multiplication")
    if G.order % arr.size:
        raise GroupError("subgroup order does not divide group order")
    return _read_only(arr)


def center(G: GroupTable) -> np.ndarray:
    """The union of the classes of G with one element."""
    return _read_only(np.flatnonzero(G.classes.sizes[G.classes.class_of] == 1))


def upper_central_series(G: GroupTable) -> list[np.ndarray]:
    """Z(G) = Z_1 < Z_2 < ... to the hypercentre (none if Z(G) = 1), in G's table: x is in Z_(i+1)
    iff s x s^-1 x^-1 is in Z_i for each generator s, as their images generate G/Z_i."""
    commutators = G.mul[conjugates(G, G.generators), G.inv]   # row s: x -> s x s^-1 x^-1
    series, inside = [], G.classes.sizes[G.classes.class_of] == 1
    while len(members := np.flatnonzero(inside)) > (len(series[-1]) if series else 1):
        series.append(_read_only(members))
        inside = inside[commutators].all(axis=0)
    return series


def _class_union(G: GroupTable, chosen: np.ndarray) -> np.ndarray:
    """The union of the classes marked in the bool class mask `chosen`, validated as a subgroup."""
    inside = chosen[G.classes.class_of]
    return _validated(G, np.flatnonzero(inside), inside, G.classes.representatives[chosen])


def _unpack_masks(masks, r: int) -> np.ndarray:
    """Int bitmasks, bit i for index i < r, as the rows of an (s, r) bool array."""
    width = (r + 7) // 8
    packed = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), np.uint8)
    return np.unpackbits(packed.reshape(-1, width), axis=1, count=r, bitorder="little").view(bool)


def normal_subgroups(T: CharTable) -> tuple[np.ndarray, ...]:
    """All normal subgroups, read off the character table.

    Every normal subgroup is an intersection of kernels of irreducible
    characters (Isaacs, Character Theory of Finite Groups, ch. 2), so the
    lattice is the closure of the kernels' class masks, plus the full mask,
    under intersection, taken on the masks packed into ints. Each mask is
    still verified against the Cayley table at its class representatives.
    Callers holding the table read it once through CharTable.normal_subgroups.
    """
    r = T.classes.num_classes
    found = {(1 << r) - 1}
    for row in np.packbits(T.kernel_masks, axis=1, bitorder="little"):
        kernel = int.from_bytes(row, "little")
        found |= {m & kernel for m in found}
    return tuple(sorted((_class_union(T.group, c) for c in _unpack_masks(found, r)),
                        key=lambda s: (len(s), s.tolist())))


def quotient(G: GroupTable, N) -> GroupTable:
    """Quotient group on the cosets of a normal subgroup's members N, handed
    the distinct non-identity cosets of G's generators, no more than G carries."""
    members, _, union = _witnesses(G, N)
    if not (union and G.identity in members):
        raise GroupError("quotient requires a normal subgroup")
    members = subgroup_from_members(G, members)
    source = {"type": "quotient", "parent": G.source, "kernel_order": len(members)}
    if len(members) == G.order:   # one coset, named by its least element 0
        return GroupTable(np.zeros((1, 1), dtype=np.int64), [f"[{G.label(0)}]"], source, [])
    coset_rep = G.mul[:, members].min(axis=1)  # minimal element of gN
    reps = sorted_unique(coset_rep)
    coset = np.searchsorted(reps, coset_rep).astype(table_dtype(len(reps)))   # x -> rank of xN
    labels = [f"[{G.label(r)}]" for r in reps.tolist()]
    # N itself is the identity coset, which need not have rank 0 (cayley input)
    gens = [c for c in dict.fromkeys(coset[list(G.generators)].tolist())
            if c != coset[G.identity]]
    # the table coset[x*y] over the representatives, in slabs of _FILL_CELLS cells
    m = len(reps)
    mul = np.empty((m, m), dtype=coset.dtype)
    slab = max(1, _FILL_CELLS // m)
    for lo in range(0, m, slab):
        mul[lo:lo + slab] = coset[G.mul[reps[lo:lo + slab, None], reps]]
    return GroupTable(mul, labels, source, gens)


def center_free_quotient_chain(G: GroupTable) -> list[GroupTable]:
    """G and each G/Z_i of its upper central series, gathered from G; the last is center-free."""
    return [G, *(quotient(G, Z) for Z in upper_central_series(G))]


def derived_subgroup(T: CharTable) -> np.ndarray:
    """Commutator subgroup, the intersection of the kernels of the linear
    characters; the smallest normal subgroup with abelian quotient."""
    return _class_union(T.group, T.kernel_masks[T.dims == 1].all(axis=0))


def center_of_subset(G: GroupTable, members) -> np.ndarray:
    """Elements of `members` commuting with every element of `members`. A
    witness whose class in G has one element is central in G, so only the
    others are tested against the members."""
    arr, owner, _ = _witnesses(G, members)
    central = G.classes.sizes[G.classes.class_of] == 1
    wit = sorted_unique(owner[~central[owner]])
    central[wit] = (G.mul[wit[:, None], arr] == G.mul[arr, wit[:, None]]).all(axis=1)
    return _read_only(arr[central[owner]])


def product_sizes(G: GroupTable, sets, triple, power) -> np.ndarray:
    """|S0 S1 S2| (triple) or |S0^power| for each row of a (b, k, size) stack
    of subsets, as (b, |G|) masks each multiplied by a subset in one scatter
    through the Cayley table. A row stops once it is all of G or, for a
    power, once its size stalls: |A^(k+1)| = |A^k| gives A^(k+1) = A^k a for
    each a in A, so A^(k+2) = A^(k+1) a has that size too."""
    b, _, size = sets.shape
    n = G.order
    rows = np.arange(b)
    mask = np.zeros((b, n), dtype=bool)
    mask[rows[:, None], sets[:, 0]] = True
    sizes = np.full(b, size)
    live = rows[sizes < n]
    factors = (sets[:, 1], sets[:, 2]) if triple else (sets[:, 0] for _ in range(power - 1))
    for factor in factors:
        if not live.size:
            break
        t, x = np.nonzero(mask[live])
        step = np.zeros((len(live), n), dtype=bool)
        step[t[:, None], G.mul[x[:, None], factor[live][t]]] = True
        grown = step.sum(axis=1)
        mask[live] = step
        keep = grown < n if triple else (grown < n) & (grown > sizes[live])
        sizes[live] = grown
        live = live[keep]
    return sizes


# ---------------------------------------------------------------------------
# Abelian groups on integer indices, and abelian subgroups of a GroupTable


@dataclass(eq=False)
class AbelianGroup:
    """Z_{d1} x ... x Z_{dr} with d1 | d2 | ... | dr.

    Element i is the i-th exponent tuple in lexicographic order, coords[i];
    a subset is a boolean mask over the elements, and the character with
    exponent row theta is x -> exp(2 pi i sum_j theta_j x_j / d_j).
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

    def roots(self) -> np.ndarray:
        """roots[k] = exp(2 pi i k/e) for the exponent e, k = 0..e-1."""
        e = self.exponent
        return np.array([cmath.exp(2j * cmath.pi * (k / e)) for k in range(e)])

    def exponents(self, thetas, xs) -> np.ndarray:
        """The (b, c) integers sum_j theta_j x_j (e/d_j) mod e for the
        exponent rows theta in coords[thetas] and the elements x in
        coords[xs]: theta(x) = roots()[that integer]."""
        e = self.exponent
        return (self.coords[thetas] * (e // self._moduli)) @ self.coords[xs].T % e

    def characters(self, thetas) -> np.ndarray:
        """The (b, order) values of the characters with exponent rows
        coords[thetas]."""
        return self.roots()[self.exponents(thetas, slice(None))]

    def __repr__(self):
        return f"AbelianGroup{self.factors}"


def _invariant_factors(G: GroupTable, arr: np.ndarray) -> tuple[AbelianGroup, np.ndarray]:
    """Invariant factor decomposition of sorted members known to commute, as
    the pair (K, to_parent): K = Z_{d1} x ... x Z_{dr} and the parent element
    of each element index of K. It is checked exactly: each basis element g_j
    has g_j^(d_j) = 1, and to_parent is a bijection onto the members. Then
    (a_1, ..., a_r) -> g_1^a_1 ... g_r^a_r is a well-defined homomorphism
    that is bijective, an isomorphism from K. On members that do not
    commute, the basis search may raise KeyError or misread them."""

    def mul_fn(x, y):
        return G.mul[x, y]

    basis = _abelian_basis(mul_fn, G.identity, arr)
    to_parent = np.array([G.identity])
    for gen, d in basis:
        powers = _powers(mul_fn, G.identity, gen, d)
        if G.mul[powers[-1], gen] != G.identity:
            raise GroupError(f"abelian basis element {gen} does not have order dividing {d}")
        to_parent = G.mul[to_parent[:, None], powers].ravel()
    if not np.array_equal(np.sort(to_parent), arr):
        raise GroupError("abelian basis does not enumerate the subgroup")
    return AbelianGroup(tuple(d for _, d in basis)), to_parent


def _powers(mul_fn, identity, g, d) -> np.ndarray:
    """g^0, ..., g^(d-1), by doubling the block g^1..g^m."""
    pw = np.array([g], dtype=np.int64)
    while len(pw) < d - 1:
        pw = _doubled(mul_fn, pw)
    return np.concatenate([[identity], pw[:d - 1]])


def _abelian_basis(mul_fn, identity, elems) -> list[tuple[int, int]]:
    """Invariant factors d1 | d2 | ... of an abelian group given as a sorted
    index array, as [(generator, d)]. The i-th is the product of each
    prime's i-th largest cyclic factor of the primary decomposition: their
    orders are coprime, so it generates a cyclic group of their product.

    `mul_fn` multiplies element indices elementwise, on ints or arrays."""
    orders = element_orders(mul_fn, identity, elems)
    n = len(elems)
    per_prime = []
    for p in (p for p in range(2, n + 1) if n % p == 0 and _is_prime(p)):
        # an order divides n, so it is a power of p iff it divides the p-part
        primary = elems[math.gcd(n, p ** n.bit_length()) % orders == 0]
        per_prime.append(sorted(_p_group_basis(mul_fn, identity, primary), key=lambda t: -t[1]))
    rows = itertools.zip_longest(*per_prime, fillvalue=(identity, 1))
    basis = [(functools.reduce(mul_fn, (g for g, _ in row), identity),
              math.prod(d for _, d in row)) for row in rows]
    return sorted(basis, key=lambda t: t[1])


def _p_group_basis(mul_fn, identity, elems) -> list[tuple[int, int]]:
    """Basis of an abelian p-group given as a sorted index array.

    Splits off a maximal-order cyclic subgroup, recurses on the quotient, and
    lifts quotient generators to genuine direct-sum generators.
    """
    orders = element_orders(mul_fn, identity, elems)
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
                                     sorted_unique(rep_of[elems])):
        s = log_a1[int(_powers(mul_fn, identity, gbar, mord + 1)[-1])]
        if s % mord:
            raise GroupError("p-group basis lifting failed")  # impossible by theory
        t = (-(s // mord)) % d1
        out.append((int(mul_fn(gbar, pow_list[t])), mord))
    return out
