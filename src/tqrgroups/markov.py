"""The tensor-product Markov chain on Irrep(G): from an irreducible, tensor
with a fixed reduced representation and sample an irreducible constituent
weighted by multiplicity times dimension. The kernel is computed exactly from
characters, with one certified decomposition for all of its rows.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import config
from .chartable import CharTable
from .classfuncs import (character_of, decompose, power_support_mask,
                         support_measure_frac)

# Cells per block of stacks scored at once. At 2^15 cells (256 KB a
# temporary), freeing a block's temporaries passed glibc's 128 KB heap-trim
# threshold, and every block faulted its pages in again.
_BLOCK_CELLS = 1 << 13

# Longest mixing curve: a report holds all t_max + 1 rows, at about 1.2 KB of
# memory each, so 100,000 steps cost about 120 MB.
MAX_T_MAX = 100_000


def check_t_max(t_max: int) -> None:
    """Refuse a curve length outside 0..MAX_T_MAX (ValueError)."""
    if not 0 <= t_max <= MAX_T_MAX:
        raise ValueError(f"t_max must lie in 0..{MAX_T_MAX}, got {t_max}")


@dataclass(eq=False)
class ChainModel:
    """Exact transition kernel of the chain `tensor with reduced V`, for the
    support `rep` of V."""

    table: CharTable
    rep: np.ndarray
    kernel: np.ndarray

    def __post_init__(self):
        self.kernel = np.ascontiguousarray(self.kernel, dtype=np.float64)
        self.kernel.setflags(write=False)

    @property
    def num_states(self) -> int:
        return self.table.num_irreps

    def stationary(self) -> np.ndarray:
        return self.table.dims.astype(np.float64) ** 2 / self.table.group.order


@dataclass
class MixingReport:
    start: int | None
    metric: str
    epsilon: float
    mixing_time: int | None
    t_max: int
    mixing_times: dict
    curve: list[dict]

    def to_json_dict(self) -> dict:
        # the fields in order; dataclasses.asdict would deep-copy every curve value
        return dict(vars(self))


def build_chain(T: CharTable, V: np.ndarray) -> ChainModel:
    """p(lam, mu) = mult(mu in lam (x) reduced(V)) * dim(mu) / (dim(lam) * dim(reduced V)),
    where reduced(V) takes each chi in the support V chi(1) times."""
    if not V.any():
        raise ValueError("the driving representation must be nonzero")
    red = T.dims * V
    dim_red = int(red @ T.dims)
    dims = T.dims.astype(np.float64)
    mult = decompose(T, T.values * character_of(T, red))
    kernel = mult * dims / (dims[:, None] * dim_red)
    row_err = np.max(np.abs(kernel.sum(axis=1) - 1.0))
    if row_err > config.TOL:
        raise RuntimeError(f"kernel rows do not sum to 1 (residual {row_err:.2e})")
    return ChainModel(table=T, rep=V, kernel=kernel)


class _Walk:
    """The stacks x_0 = dists, x_1, ..., x_t_max of the chain, each row
    stepped as `row @ K`, up to the first that repeats an earlier one.

    The repeat is found by Brent's cycle search (Brent, BIT 20, 1980): one
    stack is kept and moved to each power-of-two step. Once x_s has the bits
    of the kept x_mu, x_u = x_{mu + (u - mu) % period} for every u >= mu,
    with period = s - mu, and the walk ends without yielding x_s. Bits are
    compared, not values, so 0.0 never stands in for -0.0.
    """

    def __init__(self, M: ChainModel, dists: np.ndarray, t_max: int):
        self.kernel, self.saved, self.t_max = M.kernel, dists, t_max
        self.mu, self.period = 0, None

    def __iter__(self):
        x = self.saved
        yield x
        for s in range(1, self.t_max + 1):
            # 1 x r rows, not one D @ K: each rounds as `row @ K` does, bit for bit
            x = (x[:, None, :] @ self.kernel)[:, 0, :]
            if np.array_equal(x.view(np.uint64), self.saved.view(np.uint64)):
                self.period = s - self.mu
                return
            if s & (s - 1) == 0:
                self.mu, self.saved = s, x
            yield x


def t_step_distribution(M: ChainModel, lam: int, t: int) -> np.ndarray:
    """Distribution after t steps started from the point mass at lam.

    The row is walked until it repeats bit for bit, then from the saved
    step mu for (t - mu) mod period steps, too few to repeat.
    """
    if t < 0:
        raise ValueError("t must be non-negative")
    _check_start(M, lam)
    walk = _Walk(M, np.eye(M.num_states)[[lam]], t)
    for dist in walk:
        pass
    if walk.period is not None:
        for dist in _Walk(M, walk.saved, (t - walk.mu) % walk.period):
            pass
    return dist[0]


def _check_start(M: ChainModel, lam: int) -> None:
    if not 0 <= lam < M.num_states:
        raise ValueError(f"start {lam} is not an irreducible index "
                         f"(0..{M.num_states - 1})")


_METRICS = ("uniform", "tv_max", "tv_half_l1")


def _distances(dists: np.ndarray, pi: np.ndarray) -> np.ndarray:
    """The _METRICS of each (s, r) stack in dists (..., s, r), each the
    worst over the stack's rows, along a new first axis."""
    dev, rel = dists - pi, dists / pi
    rel -= 1.0
    np.abs(rel, out=rel)
    np.abs(dev, out=dev)
    return np.stack([rel.max(axis=(-2, -1)), dev.max(axis=(-2, -1)),
                     (0.5 * dev.sum(axis=-1)).max(axis=-1)])


def distances_to_stationary(M: ChainModel, dists: np.ndarray) -> dict:
    """All implemented distances to Plancherel, each the worst over the rows
    of a stack of distributions (or of the one distribution given)."""
    return dict(zip(_METRICS, _distances(np.atleast_2d(dists), M.stationary()).tolist()))


def mixing_time(M: ChainModel, metric: str, epsilon: float, t_max: int = 64,
                start: int | None = None) -> MixingReport:
    """First t at which the requested distance drops to epsilon.

    `tv_max` is the max over pairs of |p_t - pi(mu)|; `tv_half_l1` is the
    conventional total variation distance; `uniform` is the relative
    (l-infinity) distance. With start=None the distances maximize over all
    starting irreducibles, matching the usual mixing-time definitions.

    The stack of distributions is stepped until it repeats bit for bit; the
    rest of the curve then repeats the steps already measured, so it is
    copied by period and no metric first reaches epsilon there. The stacks
    are scored in blocks of at most _BLOCK_CELLS cells.
    """
    if metric == "tv":
        metric = "tv_max"
    if metric not in _METRICS:
        raise ValueError(f"metric must be one of {_METRICS} (or 'tv')")
    if not 0 < epsilon < math.inf:  # also refuses nan
        raise ValueError(f"epsilon must be positive and finite, got {epsilon!r}")
    check_t_max(t_max)
    dists = np.eye(M.num_states)
    if start is not None:
        _check_start(M, start)
        dists = dists[[start]]
    walk, pi = _Walk(M, dists, t_max), M.stationary()
    stacks = iter(walk)
    blocks = iter(lambda: list(itertools.islice(stacks, max(1, _BLOCK_CELLS // dists.size))), [])
    scores = np.concatenate([_distances(b[0][None] if len(b) == 1 else np.stack(b), pi)
                             for b in blocks], axis=1)
    curve = [{"t": t, **dict(zip(_METRICS, row))} for t, row in enumerate(scores.T.tolist())]
    mixing_times = {m: next(iter(np.flatnonzero(row <= epsilon).tolist()), None)
                    for m, row in zip(_METRICS, scores)}
    for t in range(len(curve), t_max + 1):
        src = walk.mu + (t - walk.mu) % walk.period
        curve.append({**curve[src], "t": t})
    return MixingReport(start=start, metric=metric, epsilon=epsilon,
                        mixing_time=mixing_times[metric], t_max=t_max,
                        curve=curve, mixing_times=mixing_times)


def stationarity_residual(M: ChainModel) -> float:
    pi = M.stationary()
    return float(np.max(np.abs(pi @ M.kernel - pi)))


def mixing_experiment(chain: ChainModel, epsilon: float, m: int,
                      report: MixingReport | None = None) -> dict:
    """Both directions of the constant-time mixing phenomenon on one chain.

    Positive side: the uniform distance at t=3 against the Hoelder bound
    c(G)^(-1/2) / M(V)^3, read off `report` (a mixing_time report of this
    chain over every start) when it reaches t=3, else from a walk to t=3.
    Negative side: total variation from Plancherel after m steps started at
    the trivial irreducible, with the exactly inaccessible Plancherel mass.
    """
    T, V = chain.table, chain.rep
    c = T.classes.min_nontrivial_size
    mv = support_measure_frac(T, V)

    if report is None or report.start is not None or report.t_max < 3:
        report = mixing_time(chain, "uniform", epsilon, t_max=3)
    worst3 = report.curve[3]["uniform"]
    bound = float(c ** -0.5 / float(mv) ** 3) if (c is not None and mv > 0) else None

    neg = distances_to_stationary(chain, t_step_distribution(chain, 0, m))
    reach_mask = power_support_mask(T, V, m)
    inaccessible = 1 - support_measure_frac(T, reach_mask)

    return {
        "measure": float(mv),
        "c": c,
        "epsilon": epsilon,
        "m": m,
        "uniform_distance_t3": worst3,
        "hoelder_bound_t3": bound,
        "within_epsilon_t3": worst3 <= epsilon,
        "within_bound_t3": None if bound is None else worst3 <= bound + config.TOL,
        "tv_half_l1_after_m_from_trivial": neg["tv_half_l1"],
        "tv_max_after_m_from_trivial": neg["tv_max"],
        "inaccessible_mass_after_m": float(inaccessible),
        "stationarity_residual": stationarity_residual(chain),
    }
