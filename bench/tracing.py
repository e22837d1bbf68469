"""Traced runs: spans and counts at the package's layer boundaries.

Nothing under src/ is changed. For a traced pass the benchmark replaces
module-level functions of tqrgroups with wrappers, in every module that holds
a binding to them (criteria imports tensor_support_mask by name, markov
imports decompose, the CLI keeps its runners in a dict), and restores the
originals afterwards. Each wrapper records a span (name, start, end, parent,
command id); a few also record counts read off the arguments or the result.

fusion_multiplicities runs about 10^6 times per irreps pass, so it is only
counted, never timed: a span per call would distort the times it sits in.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent, command]
        self.counts: Counter = Counter()
        self.maxima: dict[str, float] = {}
        self.command_id = None
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.command_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def command(self, command_id):
        """The root span of one command; spans opened inside share its id."""
        self.command_id = command_id
        idx = self.begin("cli.main")
        try:
            yield
        finally:
            self.end(idx)
            self.command_id = None

    def peak(self, name: str, value: float):
        self.maxima[name] = max(self.maxima.get(name, value), value)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time covered by its child spans.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, covered)]


def outer_totals(spans: list[list]) -> Counter:
    """Total duration per span name, counting a recursive call only once."""
    totals: Counter = Counter()
    for name, start, end, parent, _ in spans:
        p = parent
        while p is not None and spans[p][0] != name:
            p = spans[p][3]
        if p is None:
            totals[name] += end - start
    return totals


# ---------------------------------------------------------------------------
# What is wrapped, and the counts each wrapper records


def _normal_subgroups(t, args, result):
    t.counts["groups.normal_subgroups_found"] += len(result)


def _char_table(t, args, result):
    t.counts["chartable.eig_attempts"] += result.quality["attempts"]
    t.peak("chartable.max_row_residual", result.quality["row_residual"])
    t.peak("chartable.max_col_residual", result.quality["col_residual"])


def _minimal_supports(t, args, result):
    # The search enumerates every nonzero mask over the table's irreducibles.
    t.counts["criteria.masks_scanned"] += (1 << args[0].num_irreps) - 1
    t.counts["criteria.minimal_supports_found"] += len(result)


def _tqr2(t, args, result):
    t.counts["criteria.triples_checked"] += result.details["triples_checked"]
    t.counts["criteria.truncated_searches"] += "exhaustive-truncated" in result.mode


def _tqr3(t, args, result):
    t.counts["criteria.supports_checked"] += result.details["supports_checked"]


def _criteria_computed(t, args, result):
    t.counts["criteria.computed"] += len(result)


def _stationarity(t, args, result):
    t.peak("markov.max_stationarity_residual", result)


def _run_check(t, args, result):
    t.counts["criteria.requested"] += 8 if args[0].get("criterion", "all") == "all" else 1


def _atomic_write(t, args, result):
    t.counts["cli.bytes_written"] += len(args[1].encode())


def _parser(t, args, parser):
    parser.parse_args = _spanned(t, "cli.parse_args", parser.parse_args, None)


TARGETS = {
    "groups": {"build_group": None, "_check_group_axioms": None,
               "conjugacy_classes": None, "normal_subgroups": _normal_subgroups,
               "_closure": None, "center_free_quotient_chain": None},
    "chartable": {"compute_char_table": _char_table, "from_interchange": None,
                  "induce_character": None},
    "classfuncs": {"decompose": None, "tensor_support_mask": None,
                   "power_support_mask": None},
    "criteria": {"check_tqr": _criteria_computed, "check_qr": _criteria_computed,
                 "_tqr2": _tqr2, "_tqr3": _tqr3, "_tqr4": None, "_qr23": None,
                 "_qr4": None, "_minimal_supports": _minimal_supports,
                 "two_factor_cover": None, "three_factor_cover": None,
                 "multiplicity_profile": None},
    "markov": {"build_chain": None, "mixing_time": None, "mixing_experiment": None,
               "stationarity_residual": _stationarity},
    "counterexample": {"build_counterexample_rep": None, "abelian_structure": None,
                       "invariant_small_doubling_set": None, "m_fold_sumset": None},
    "cli": {"_build_parser": _parser, "parse_group_spec": None, "_emit": None,
            "_atomic_write": _atomic_write, "run_group": None,
            "run_chartable": None, "run_check": _run_check, "run_cover": None,
            "run_markov": None, "run_counterexample": None, "run_sumset": None,
            "run_suite": None},
}


def _spanned(tracer: Tracer, name: str, fn, hook):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        idx = tracer.begin(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end(idx)
        if hook is not None:
            hook(tracer, args, result)
        return result
    return wrapper


def _counted_fusion(tracer: Tracer, fn):
    counts = tracer.counts

    @functools.wraps(fn)
    def wrapper(T, lam, mu):
        before = len(getattr(T, "_fusion_cache", ()))
        result = fn(T, lam, mu)
        counts["classfuncs.fusion_calls"] += 1
        counts["classfuncs.fusion_computed"] += len(getattr(T, "_fusion_cache", ())) - before
        return result
    return wrapper


@contextmanager
def installed(tracer: Tracer):
    """Route every binding of each target through the tracer, then restore."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "tqrgroups" or name.startswith("tqrgroups.")}
    namespaces = []
    for m in mods.values():
        ns = vars(m)
        namespaces.append(ns)
        namespaces += [v for k, v in ns.items()
                       if isinstance(v, dict) and not k.startswith("__")]
    wrappers = {}
    for modname, attrs in TARGETS.items():
        mod = mods.get(f"tqrgroups.{modname}")
        for attr, hook in attrs.items():
            fn = getattr(mod, attr, None)
            if fn is None:
                print(f"trace: tqrgroups.{modname}.{attr} not found; not traced",
                      file=sys.stderr)
                continue
            wrappers[id(fn)] = (fn, _spanned(tracer, f"{modname}.{attr}", fn, hook))
    fusion = getattr(mods.get("tqrgroups.classfuncs"), "fusion_multiplicities", None)
    if fusion is not None:
        wrappers[id(fusion)] = (fusion, _counted_fusion(tracer, fusion))
    undo = []
    for ns in namespaces:
        for key, value in list(ns.items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                ns[key] = hit[1]
                undo.append((ns, key, value))
    try:
        yield
    finally:
        for ns, key, value in reversed(undo):
            ns[key] = value


# ---------------------------------------------------------------------------
# Per-layer metrics


TIME_METRICS = {
    "groups.build_s": ["groups.build_group"],
    "groups.axioms_s": ["groups._check_group_axioms"],
    "groups.classes_s": ["groups.conjugacy_classes"],
    "groups.normal_subgroups_s": ["groups.normal_subgroups"],
    "groups.quotient_chain_s": ["groups.center_free_quotient_chain"],
    "chartable.compute_s": ["chartable.compute_char_table"],
    "chartable.import_s": ["chartable.from_interchange"],
    "chartable.induce_s": ["chartable.induce_character"],
    "classfuncs.decompose_s": ["classfuncs.decompose"],
    "classfuncs.tensor_support_s": ["classfuncs.tensor_support_mask"],
    "classfuncs.power_support_s": ["classfuncs.power_support_mask"],
    "criteria.tqr2_s": ["criteria._tqr2"],
    "criteria.tqr3_s": ["criteria._tqr3"],
    "criteria.minimal_supports_s": ["criteria._minimal_supports"],
    "criteria.cover_s": ["criteria.two_factor_cover", "criteria.three_factor_cover",
                         "criteria.multiplicity_profile"],
    "criteria.tqr4_s": ["criteria._tqr4"],
    "criteria.qr23_s": ["criteria._qr23"],
    "criteria.qr4_s": ["criteria._qr4"],
    "markov.build_chain_s": ["markov.build_chain"],
    "markov.mixing_time_s": ["markov.mixing_time"],
    "markov.experiment_s": ["markov.mixing_experiment"],
    "counterexample.build_s": ["counterexample.build_counterexample_rep"],
    "counterexample.abelian_structure_s": ["counterexample.abelian_structure"],
    "counterexample.small_doubling_s": ["counterexample.invariant_small_doubling_set"],
    "counterexample.sumset_s": ["counterexample.m_fold_sumset"],
    "cli.parse_s": ["cli._build_parser", "cli.parse_args", "cli.parse_group_spec"],
    "cli.emit_s": ["cli._emit"],
}
SPAN_COUNTS = {
    "groups.closure_calls": "groups._closure",
    "classfuncs.decompose_calls": "classfuncs.decompose",
    "classfuncs.tensor_support_calls": "classfuncs.tensor_support_mask",
}
COUNTS = ("groups.normal_subgroups_found", "chartable.eig_attempts",
          "classfuncs.fusion_calls", "classfuncs.fusion_computed",
          "criteria.masks_scanned", "criteria.minimal_supports_found",
          "criteria.triples_checked", "criteria.supports_checked",
          "criteria.truncated_searches", "cli.bytes_written")
MAXIMA = ("chartable.max_row_residual", "chartable.max_col_residual",
          "markov.max_stationarity_residual")
RATIOS = ("classfuncs.fusion_hit_ratio", "criteria.requested_ratio")
UNITS = {**{k: "s" for k in TIME_METRICS}, **{k: "count" for k in SPAN_COUNTS},
         **{k: "count" for k in COUNTS}, **{k: "abs" for k in MAXIMA},
         **{k: "ratio" for k in RATIOS}, "cli.bytes_written": "bytes",
         "cli.runner_self_s": "s", "trace.overhead_s": "s"}


def pass_metrics(tracer: Tracer, stdout_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    totals = outer_totals(tracer.spans)
    out = {k: sum(totals[n] for n in names) for k, names in TIME_METRICS.items()}
    names = Counter(s[0] for s in tracer.spans)
    out.update({k: names[n] for k, n in SPAN_COUNTS.items()})
    out.update({k: tracer.counts[k] for k in COUNTS})
    out["cli.bytes_written"] += stdout_bytes
    out.update({k: tracer.maxima.get(k, 0.0) for k in MAXIMA})
    calls = tracer.counts["classfuncs.fusion_calls"]
    out["classfuncs.fusion_hit_ratio"] = (
        1 - tracer.counts["classfuncs.fusion_computed"] / calls if calls else 0.0)
    computed = tracer.counts["criteria.computed"]
    out["criteria.requested_ratio"] = (
        tracer.counts["criteria.requested"] / computed if computed else 0.0)
    out["cli.runner_self_s"] = sum(
        st for s, st in zip(tracer.spans, self_times(tracer.spans))
        if s[0].startswith("cli.run_"))
    return out


def combine(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Medians of times and counts over traced passes; maxima of residuals."""
    return {k: (max(p[k] for p in per_pass) if k in MAXIMA
                else statistics.median(p[k] for p in per_pass))
            for k in per_pass[0]}
