"""Measure-theoretic vocabulary on representations: Plancherel measure, and
exact decomposition of characters into irreducible multiplicities.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .chartable import CharTable, ClassFunction


class DecompositionError(ValueError):
    """Input was not a genuine character (non-integer or negative weights)."""


@dataclass(eq=False)
class RepMultiset:
    """A representation as multiplicities over the irreducibles of a table."""

    table: CharTable
    mult: np.ndarray

    def __post_init__(self):
        self.mult = np.ascontiguousarray(self.mult, dtype=np.int64)
        if self.mult.shape != (self.table.num_irreps,):
            raise ValueError("multiplicity vector has wrong length")
        if self.mult.min(initial=0) < 0:
            raise ValueError("multiplicities must be non-negative")

    @property
    def is_zero(self) -> bool:
        return not self.mult.any()

    def support(self) -> tuple[int, ...]:
        return tuple(int(i) for i in np.flatnonzero(self.mult))

    def support_mask(self) -> np.ndarray:
        return self.mult > 0

    def to_json_dict(self) -> dict:
        return {"mult": self.mult.tolist()}

    @classmethod
    def from_support(cls, table: CharTable, support) -> "RepMultiset":
        mult = np.zeros(table.num_irreps, dtype=np.int64)
        for i in support:
            mult[int(i)] = 1
        return cls(table, mult)


def plancherel_frac(T: CharTable, V: RepMultiset) -> Fraction:
    """Exact Plancherel measure of the support of V."""
    return support_measure_frac(T, V.support_mask())


def character_of(T: CharTable, V: RepMultiset) -> ClassFunction:
    """Ordinary character sum mult(lam) * chi_lam."""
    return ClassFunction(T.group, V.mult.astype(np.complex128) @ T.values)


def reduce_rep(V: RepMultiset) -> RepMultiset:
    """Replace each irreducible in the support by dim(lam) copies of itself."""
    mult = np.zeros_like(V.mult)
    sup = list(V.support())
    mult[sup] = V.table.dims[sup]
    return RepMultiset(V.table, mult)


def decompose(T: CharTable, f):
    """Multiplicities <f, chi_lam>, certified to round to non-negative integers.

    f is one ClassFunction, giving a RepMultiset, or a (b, num_classes) stack
    of class-function values on T.classes, giving the (b, num_irreps) int64
    multiplicities of every row from one matrix product. Raises
    DecompositionError when any input is not a genuine character of the group.
    """
    if isinstance(f, ClassFunction):
        if f.classes is not T.classes:
            raise ValueError("class function does not match the table's group")
        values = f.values
    else:
        values = np.asarray(f)
        if values.ndim != 2 or values.shape[1] != T.classes.num_classes:
            raise ValueError("a stack of class functions must have shape "
                             "(b, number of classes)")
    w = T.classes.sizes / T.group.order
    raw = (w * values) @ T.values.conj().T
    rounded = np.rint(raw.real)
    scale = np.maximum(1.0, np.abs(raw))
    err = np.max(np.abs(raw - rounded) / scale, initial=0.0)
    if not (err <= config.TOL):               # a NaN or inf value fails too
        raise DecompositionError(
            f"inner products are not integers (residual {float(err):.2e})")
    mult = rounded.astype(np.int64)
    if mult.min(initial=0) < 0:
        raise DecompositionError("negative multiplicity: not a character")
    return RepMultiset(T, mult) if values.ndim == 1 else mult


# ---------------------------------------------------------------------------
# Support ("fusion") arithmetic, integer-exact


def tensor_support_mask(T: CharTable, mask1: np.ndarray, mask2: np.ndarray) -> np.ndarray:
    """Support of the tensor product of two supports.

    A support is a boolean mask over the irreducibles: one (r,) row, or a
    (b, r) stack of them taken row by row. Tensor multiplicities are
    non-negative integers, so nothing cancels: the support of
    (sum_{a in S1} chi_a)(sum_{b in S2} chi_b) is the union of the supports
    of the chi_a chi_b, and one stacked decomposition gives every row.
    """
    chars = (mask1 @ T.values) * (mask2 @ T.values)
    mult = decompose(T, chars.reshape(-1, T.classes.num_classes))
    return mult.reshape(chars.shape[:-1] + (T.num_irreps,)) > 0


def power_support_mask(T: CharTable, mask: np.ndarray, m: int) -> np.ndarray:
    """Support of the m-fold tensor power of a support (or of each row).

    The support of a tensor product depends only on the supports of its
    factors, so supp(S^(a+b)) = supp(S^a (x) S^b), and binary powering takes
    at most 2 log2(m) stacked two-factor steps.
    """
    if m < 1:
        raise ValueError("tensor power must be >= 1")
    out, square = None, mask            # square = supp(S^(2^t))
    while True:
        if m & 1:
            out = square if out is None else tensor_support_mask(T, out, square)
        m >>= 1
        if not m:
            return out
        square = tensor_support_mask(T, square, square)


def support_measure_frac(T: CharTable, mask: np.ndarray) -> Fraction:
    """Exact Plancherel measure of a support: sum of dim^2 over |G|."""
    return Fraction(int(mask @ T.dims.astype(np.int64) ** 2), T.group.order)


# ---------------------------------------------------------------------------
# CLI selectors


def rep_from_selector(T: CharTable, selector: str) -> RepMultiset:
    """Parse "all", "trivial", "irrep:<k>" or "dim>=<d>" into a RepMultiset."""
    s = selector.strip().lower()
    if s == "all":
        return RepMultiset(T, np.ones(T.num_irreps, dtype=np.int64))
    if s == "trivial":
        return RepMultiset.from_support(T, [0])
    if s.startswith("irrep:"):
        k = int(s.split(":", 1)[1])
        if not 0 <= k < T.num_irreps:
            raise ValueError(f"irrep index {k} out of range")
        return RepMultiset.from_support(T, [k])
    if s.startswith("dim>="):
        d = int(s[5:])
        return RepMultiset.from_support(
            T, [i for i in range(T.num_irreps) if T.dims[i] >= d])
    raise ValueError(f"unrecognized representation selector {selector!r}")
