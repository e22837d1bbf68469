"""Complex character tables, read off the invariant-factor basis of an abelian
group or by simultaneous diagonalization of the class multiplication matrices,
plus induced characters and a JSON interchange format for cross-checking
against external systems."""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import config, groups
from .groups import ClassData, GroupTable, GroupError, build_group, is_list_of


class CharTableError(RuntimeError):
    """Raised when a character table cannot be computed or certified."""


@dataclass(eq=False)
class CharTable:
    """Irreducible characters of a finite group.

    Rows are irreducibles in canonical order (trivial first, then by
    dimension, then lexicographically on the values rounded to 8 places);
    columns follow the canonical conjugacy-class order. values[l, c] =
    chi_l on class c. An abelian table reaches that order from its integer
    exponent rows (_abelian_table), any other by _canonical_irrep_order.
    """

    group: GroupTable
    values: np.ndarray
    quality: dict = field(default_factory=dict)
    source: str = "computed"
    dims: np.ndarray = field(init=False)   # the identity column, rounded
    classes: ClassData = field(init=False, repr=False)

    def __post_init__(self):
        self.classes = self.group.classes
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        self.dims = np.rint(self.values[:, 0].real).astype(np.int64)
        self.dims.setflags(write=False)
        self.values.setflags(write=False)

    @property
    def num_irreps(self) -> int:
        return len(self.dims)

    @functools.cached_property
    def kernel_masks(self) -> np.ndarray:
        """Read-only (r, r) bool array whose row lam marks the classes of
        ker chi_lam = {g : chi_lam(g) = chi_lam(1)}.

        chi(c) is a sum of chi(1) roots of unity whose orders divide the
        order o(c) of the class's elements, so off the kernel
        d = chi(1) - Re chi(c) is at least 1 - cos(2 pi / o(c)). A class is
        in the kernel when d <= TOL*chi(1) and outside it when d is within
        TOL*chi(1) of that bound or above; anything else is not certified.
        """
        orders = self.group.class_orders
        slack = config.TOL * self.dims[:, None]
        d = self.dims[:, None] - self.values.real
        inside = d <= slack
        outside = (d >= 1.0 - np.cos(2 * np.pi / orders) - slack) & (orders > 1)
        unsure = np.argwhere(inside == outside)
        if len(unsure):
            lam, c = (int(v) for v in unsure[0])
            raise CharTableError(
                f"kernel membership of class {c} in irreducible {lam} is not "
                f"certified (chi(1) - Re chi = {d[lam, c]:.3e})")
        return groups._read_only(inside)

    @functools.cached_property
    def normal_subgroups(self) -> tuple[np.ndarray, ...]:
        """groups.normal_subgroups of this table, computed once: dims and
        values are read-only, so neither can go stale."""
        return groups.normal_subgroups(self)

    def __repr__(self):
        return f"CharTable(order={self.group.order}, dims={self.dims.tolist()})"


# ---------------------------------------------------------------------------
# Character tables


def compute_char_table(G: GroupTable, C: ClassData | None = None) -> CharTable:
    """The character table of G. G is abelian exactly when every class has
    one element; its table is then _abelian_table, certified by exact checks
    on its invariant-factor basis, with no eigen-solve and no retry. Any
    other group's table comes from _eigen_table, certified by exact integer
    dimensions and orthogonality. Either is refused past
    config.TABLE_CELLS cells r * |G|. C, if given, must be G.classes."""
    if C is not None and C is not G.classes:
        raise ValueError("C is not the group's own classes, G.classes")
    C = G.classes
    if C.num_classes * G.order > config.TABLE_CELLS:
        raise CharTableError(
            f"order {G.order} times {C.num_classes} classes is "
            f"{C.num_classes * G.order} cells, above TABLE_CELLS={config.TABLE_CELLS}")
    if C.num_classes < G.order:
        return _eigen_table(G)
    return _abelian_table(G)


# A bound on |fl(exp(2 pi i k/e)) - exp(2 pi i k/e)| for the roots of
# AbelianGroup.roots, derived in _abelian_table
_ROOT_ERROR = 6.02 * math.pi * 2.0 ** -53 + math.sqrt(2) * 2.0 ** -52


def _abelian_table(G: GroupTable) -> CharTable:
    """The table of an abelian G, exact by construction. Every class has one
    element, which proves G abelian, so groups._invariant_factors certifies
    the rest: that phi: Z_{d1} x ... x Z_{dr} -> G is an isomorphism. The
    characters x -> roots[a[theta, x]] of the integer exponent matrix a are
    then exactly Irr(G), and only the roots are rounded.

    Root error u. The argument 2j*cmath.pi*(k/e) is 2 pi (k/e) (1 + r1)
    (1 + r2) (1 + r3), with |r_i| <= 2^-53 from rounding k/e, pi and the one
    product (2j*pi is exact and the real part is 0); it lies below 2 pi, so
    it is off by less than 2 pi * 3.01 * 2^-53. cmath.exp of a purely
    imaginary t is cos t + i sin t times exp(0) = 1, and libm's cos and sin
    are within one ulp, at most 2^-52 on [-1, 1]. So
    u = 6.02 pi 2^-53 + sqrt(2) 2^-52 < 2.5e-15 (_ROOT_ERROR).

    Residual. A stored value is zeta + delta with |delta| <= u, so each term
    of a Gram entry, v conj(v'), is off by at most 2u + u^2 from the exact
    one, and so are both averaged Gram matrices, row and column (every class
    has one element). That bound, not a Gram product, is the quality's
    row_residual and col_residual.

    Row order. Each value is a root, so ranking the roots densely by their
    (re, im) pair rounded to 8 places and lexsorting the rows of rank[a] is
    the comparison _canonical_irrep_order makes on the values: the same
    order, trivial (all-zero) row first."""
    K, to_parent = groups._invariant_factors(G, np.arange(G.order))
    n = G.order
    elem_of_class = np.empty(n, dtype=np.intp)
    elem_of_class[G.classes.class_of[to_parent]] = np.arange(n)
    a = K.exponents(np.arange(n), elem_of_class)
    roots = K.roots()
    re, im = np.round(roots.real, 8), np.round(roots.imag, 8)
    by = np.lexsort((im, re))
    step = (re[by][1:] != re[by][:-1]) | (im[by][1:] != im[by][:-1])
    rank = np.empty(len(roots), dtype=np.min_scalar_type(len(roots)))
    rank[by] = np.concatenate([[0], np.cumsum(step)])
    # row 0 is theta = 0, the trivial character, and the only one
    order = np.concatenate([[0], 1 + np.lexsort(rank[a[1:]].T[::-1])])
    bound = 2 * _ROOT_ERROR + _ROOT_ERROR ** 2
    quality = {"row_residual": bound, "col_residual": bound, "dim_roundoff": 0.0,
               "attempts": 0, "seed": None}
    return CharTable(group=G, values=roots[a[order]], quality=quality)


def _eigen_table(G: GroupTable) -> CharTable:
    """Burnside's method: a random real recombination of the class multiplication
    matrices, groups.class_matrix, is diagonalized; each eigenvector, scaled
    to 1 on the identity class, is the vector of normalized class sums of one
    irreducible. The coefficients lie in [1, 2), drawn by the standard
    library's random.Random(attempt), not numpy's 6 MB generator module.
    An eigenvalue collision or a failed certification retries with the next
    seed, up to config.MAX_EIG_ATTEMPTS; quality.seed is the attempt."""
    r, n = G.classes.num_classes, G.order
    sizes = G.classes.sizes.astype(np.float64)
    last_error = None
    for attempt in range(config.MAX_EIG_ATTEMPTS):
        rng = random.Random(attempt)
        coeffs = 1.0 + np.array([rng.random() for _ in range(r)])
        eigvals, eigvecs = np.linalg.eig(groups.class_matrix(G, coeffs))
        diff = np.abs(eigvals[:, None] - eigvals[None, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() < config.EIG_COLLISION:
            last_error = f"eigenvalue collision (gap {diff.min():.2e})"
            continue
        if np.any(np.abs(eigvecs[0]) < 1e-12):
            last_error = "degenerate eigenvector at identity class"
            continue
        vecs = eigvecs / eigvecs[0]
        norms = np.sum(np.abs(vecs) ** 2 / sizes[:, None], axis=0)
        chars = (np.sqrt(n / norms)[None, :] * vecs / sizes[:, None]).T  # rows = irreps
        dims_f = chars[:, 0].real
        dims = np.rint(dims_f).astype(np.int64)
        dim_err = float(np.max(np.abs(dims_f - dims) / np.maximum(1.0, dims_f)))
        if not (dim_err <= config.TOL) or np.any(dims < 1):   # NaN fails too
            last_error = f"dimension certification failed (err {dim_err:.2e})"
            continue
        key = _canonical_irrep_order(chars, dims)
        try:
            return _certified_table(G, chars[key], dim_roundoff=dim_err,
                                    attempts=attempt + 1, seed=attempt)
        except CharTableError as exc:
            last_error = str(exc)
    raise CharTableError(
        f"character table not certified after {config.MAX_EIG_ATTEMPTS} attempts: {last_error}")


def _certified_table(G: GroupTable, chars: np.ndarray, source: str = "computed",
                     **quality) -> CharTable:
    """The table with rows `chars` and `quality` beside its residuals, once
    the squares of its dims sum to |G| and both orthogonality residuals are
    within TOL (a NaN residual is not), else CharTableError; computed and
    imported alike."""
    T = CharTable(G, chars, source=source)
    if int(np.sum(T.dims ** 2)) != G.order:
        raise CharTableError("dims violate sum of squares")
    row_res, col_res = _orthogonality_residuals(chars, G.classes.sizes, G.order)
    if not (row_res <= config.TOL and col_res <= config.TOL):
        raise CharTableError(
            f"orthogonality residual too large ({row_res:.2e}/{col_res:.2e})")
    T.quality.update(row_residual=row_res, col_residual=col_res, **quality)
    return T


def _orthogonality_residuals(chars: np.ndarray, sizes: np.ndarray,
                             n: int) -> tuple[float, float]:
    """Largest deviations from row and (size-weighted) column orthonormality."""
    weights = sizes / n
    gram = (chars * weights[None, :]) @ chars.conj().T
    row_res = float(np.max(np.abs(gram - np.eye(len(sizes)))))
    col = chars.conj().T @ chars
    col_res = float(np.max(np.abs((col - np.diag(n / sizes)) * weights[None, :])))
    return row_res, col_res


def _canonical_irrep_order(chars: np.ndarray, dims: np.ndarray) -> np.ndarray:
    """Row order: the trivial character first, then by dimension, then
    lexicographically on the values rounded to 8 decimals, the real and
    imaginary part of each class in turn."""
    trivial = np.all(np.abs(chars - 1.0) < 1e-6, axis=1)
    rounded = np.stack((np.round(chars.real, 8), np.round(chars.imag, 8)), axis=2)
    keys = rounded.reshape(len(dims), -1).T[::-1]
    return np.lexsort((*keys, dims, ~trivial))


# ---------------------------------------------------------------------------
# Induction


def induce_character(G: GroupTable, subgroup_members, theta) -> np.ndarray:
    """Induce class functions from a subgroup H up to G.

    `theta` holds values on H aligned with sorted(subgroup_members): one
    (|H|,) row, giving the (num_classes,) induced values, or a (b, |H|)
    stack, giving the (b, num_classes) induced values, as `decompose` takes
    them. On a class c, Ind theta(c) = |G| / (|H| |c|) * (sum of theta over
    H ∩ c).
    """
    C, members = G.classes, groups.subgroup_from_members(G, subgroup_members)
    values = np.asarray(theta, dtype=np.complex128)
    if values.ndim not in (1, 2) or values.shape[-1] != len(members):
        raise GroupError("theta length does not match subgroup order")
    sums = np.zeros((C.num_classes, *values.shape[:-1]), dtype=np.complex128)
    np.add.at(sums, C.class_of[members], values.T)    # theta summed over H ∩ c
    out = sums.T
    out *= G.order / (len(members) * C.sizes)
    return out


# ---------------------------------------------------------------------------
# Interchange format


def _interchange_header(T: CharTable) -> dict:
    """Every field of T's interchange document but `values`. A cayley group
    spec in it holds its table as an array; a quotient table, whose source
    build_group cannot rebuild, is written as one."""
    G, spec = T.group, T.group.source
    if spec.get("type") == "quotient":
        spec = groups.cayley_spec(G)
    return {
        "group": spec,
        "class_sizes": T.classes.sizes.tolist(),
        "class_reps": T.classes.representatives.tolist(),
        "dims": T.dims.tolist(),
    }


def from_interchange(doc: dict) -> CharTable:
    """Rebuild a CharTable from its interchange form, revalidating everything:
    the document here, and its table by _certified_table, as a computed one.

    A document that is not of the interchange shape, including one whose
    group spec build_group refuses, raises CharTableError.
    """
    if not isinstance(doc, dict):
        raise CharTableError("interchange document must be a JSON object")
    for key in ("class_sizes", "class_reps", "dims"):
        if not is_list_of(doc.get(key), int):
            raise CharTableError(f"interchange field {key!r} must be a list of integers")
    rows = doc.get("values")
    # rows of [re, im] pairs of JSON numbers, in one flat pass; the types are
    # checked before np.array, which would read a bool as a number
    pairs = list(itertools.chain.from_iterable(rows)) if is_list_of(rows, list) else None
    if not (is_list_of(pairs, list) and set(map(len, pairs)) <= {2}
            and set(map(type, itertools.chain.from_iterable(pairs))) <= {int, float}):
        raise CharTableError("interchange field 'values' must be rows of "
                             "[re, im] number pairs")
    try:
        G = build_group(doc.get("group"))
    except GroupError as exc:
        raise CharTableError(f"interchange group spec: {exc}") from None
    C = G.classes
    if C.sizes.tolist() != doc["class_sizes"]:
        raise CharTableError("imported class sizes disagree with canonical order")
    if C.representatives.tolist() != doc["class_reps"]:
        raise CharTableError("imported class representatives disagree")
    r = C.num_classes
    if len(doc["dims"]) != r or len(rows) != r or any(len(row) != r for row in rows):
        raise CharTableError("imported table has wrong shape")
    if min(doc["dims"]) < 1:
        raise CharTableError("imported dims must be positive")
    try:
        dims = np.array(doc["dims"], dtype=np.int64)
        values = np.array(rows, dtype=np.float64).view(np.complex128)[..., 0]
    except OverflowError:
        raise CharTableError("imported numbers out of range") from None
    if not np.isfinite(values).all():
        raise CharTableError("imported values must be finite")
    # |chi(g)| <= chi(1) <= sqrt(|G|) for a character; refusing a larger value
    # here keeps it out of the orthogonality products, where it would overflow
    if float(np.max(np.abs(values))) > math.sqrt(G.order) + config.TOL:
        raise CharTableError("imported value exceeds sqrt(|G|), the bound on a character")
    if not np.array_equal(dims, np.rint(values[:, 0].real)):
        raise CharTableError("imported dims disagree with the identity column")
    if float(np.max(np.abs(values[0] - 1.0))) > config.TOL:
        raise CharTableError("imported first row is not the trivial character")
    return _certified_table(G, values, source="imported",
                            dim_roundoff=0.0, attempts=0, seed=None)


_PAIR = "\n      [\n        %s,\n        %s\n      ]"


def dumps_interchange(T: CharTable) -> str:
    """T's interchange document as json.dumps(doc, indent=2) writes it: the
    header, a cayley table as lists, and `values` as rows of [re, im] pairs.
    The header goes through json.dumps; `values` is formatted from the array
    in blocks of whole rows, at most groups._FILL_CELLS floats a block (or one
    row). Each distinct bit pattern of a block goes once through
    float.__repr__ (what json writes for a finite float; a certified table is
    finite), keyed on bits so that -0.0 stays apart from 0.0, and each row's
    2r strings fill one template of the indent=2 separators. CPython extends
    a string that one name holds in place, so the peak is the document plus
    one block."""
    r = T.num_irreps
    head = json.dumps(_interchange_header(T), indent=2, default=np.ndarray.tolist)
    row = "\n    [" + ",".join([_PAIR] * r) + "\n    ]"
    text = head[:-2] + ',\n  "values": ['          # head without its closing "\n}"
    floats = T.values.view(np.float64)
    step = max(1, groups._FILL_CELLS // (2 * r))
    for lo in range(0, r, step):
        bits, at = np.unique(floats[lo:lo + step].view(np.uint64), return_inverse=True)
        strs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
        for i, cells in enumerate(strs[at.reshape(-1, 2 * r)].tolist(), lo):
            text += ("," if i else "") + row % tuple(cells)
    text += "\n  ]\n}"
    return text


def loads_interchange(text: str) -> CharTable:
    return from_interchange(json.loads(text))
