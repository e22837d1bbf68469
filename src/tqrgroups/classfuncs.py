"""Measure-theoretic vocabulary on representations: Plancherel measure, and
exact decomposition of characters into irreducible multiplicities.

Covering and the tensor-product chain depend on a representation only through
its support, so a representation goes in as a boolean mask over Irr(G).
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import config
from .chartable import CharTable


class DecompositionError(ValueError):
    """Input was not a genuine character (non-integer or negative weights)."""


def character_of(T: CharTable, mult: np.ndarray) -> np.ndarray:
    """(num_classes,) values of the character sum mult(lam) * chi_lam of an
    integer multiplicity vector."""
    return mult.astype(np.complex128) @ T.values


def decompose(T: CharTable, values) -> np.ndarray:
    """Multiplicities <f, chi_lam> of class functions f, certified to round
    to non-negative integers.

    values is one f on T.classes, a (num_classes,) row, giving
    its (num_irreps,) int64 multiplicities, or a (b, num_classes) stack,
    giving the (b, num_irreps) int64 multiplicities of every row from one
    matrix product. Raises DecompositionError when any input is not a
    genuine character of the group.
    """
    values = np.asarray(values)
    if values.ndim not in (1, 2) or values.shape[-1] != T.classes.num_classes:
        raise ValueError("class-function values must have shape "
                         "(number of classes,) or (b, number of classes)")
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
    return mult


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


def plancherel(T: CharTable) -> np.ndarray:
    """The Plancherel measure dim^2 / |G| of each irreducible, as float64."""
    return T.dims.astype(np.float64) ** 2 / T.group.order


def support_measure_frac(T: CharTable, mask: np.ndarray) -> Fraction:
    """Exact Plancherel measure of a support: sum of dim^2 over |G|."""
    return Fraction(int(mask @ T.dims ** 2), T.group.order)


# ---------------------------------------------------------------------------
# CLI selectors


def rep_from_selector(T: CharTable, selector: str) -> np.ndarray:
    """Parse "all", "trivial", "irrep:<k>" or "dim>=<d>" into a support: a
    boolean mask over the irreducibles."""
    s = selector.strip().lower()
    index = np.arange(T.num_irreps)
    if s == "all":
        return index >= 0
    if s == "trivial":
        return index == 0
    if s.startswith("irrep:"):
        k = int(s.split(":", 1)[1])
        if not 0 <= k < T.num_irreps:
            raise ValueError(f"irrep index {k} out of range")
        return index == k
    if s.startswith("dim>="):
        return T.dims >= int(s[5:])
    raise ValueError(f"unrecognized representation selector {selector!r}")
