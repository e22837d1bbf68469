"""Command-line frontend.

Subcommands: group, chartable, check, cover, markov, counterexample, sumset,
suite. Reports are JSON (one experiment each) with distance curves written as
CSV; outputs embed the group spec, parameters, seed and package version so a
rerun with the same seed reproduces the report byte for byte.

Exit codes: 0 success, 1 a verified failure (a covering guarantee violated or
a stationarity check broken, which would falsify the implementation), 2 bad
input (usage errors, malformed specs, out-of-range parameters, groups above a
size cap).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__, config
from .chartable import (CharTableError, compute_char_table, dumps_interchange,
                        from_interchange)
from .classfuncs import plancherel, rep_from_selector
from .counterexample import build_counterexample_rep, m_fold_sumset, translate_cover
from .criteria import (QR_CRITERIA, TQR_CRITERIA, CriteriaParams, check_qr,
                       check_tqr, multiplicity_profile, three_factor_cover,
                       two_factor_cover)
from .groups import _FAMILIES, AbelianGroup, build_group, center, upper_central_series
from .markov import (build_chain, check_t_max, mixing_experiment, mixing_time,
                     stationarity_residual)


class UsageError(Exception):
    pass


# ---------------------------------------------------------------------------
# Spec parsing


def parse_group_spec(text: str) -> dict:
    """Parse '@file.json', 'family:affine:5', 'cyclic:12' or nested
    'product(cyclic(2),symmetric(4))' into a group-spec dict."""
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:]) as fh:
            return json.load(fh)
    if text.startswith("family:"):
        text = text[len("family:"):]
    return _parse_compact(text)


def _split_top(s: str) -> list[str]:
    """The arguments of `s`, split at depth-0 commas, empty ones too; none if `s` is empty."""
    out, depth, cur = [], 0, []
    for ch in s:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            out.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    out.append("".join(cur))
    return out if s else []


def _parse_compact(s: str) -> dict:
    s = s.strip()
    if "(" in s:
        name, rest = s.split("(", 1)
        if not rest.endswith(")"):
            raise UsageError(f"unbalanced parentheses in group spec {s!r}")
        args = _split_top(rest[:-1])
    else:
        name, *args = s.split(":")
    name = name.strip().lower()
    if name in ("product", "direct_product"):
        if len(args) != 2:
            raise UsageError("product takes exactly two factor specs")
        return {"family": "product",
                "params": {"left": _parse_compact(args[0]),
                           "right": _parse_compact(args[1])}}
    if name == "quaternion8":
        if args:
            raise UsageError("quaternion8 takes no parameter")
        return {"family": name, "params": {}}
    if name in _FAMILIES:
        key = _FAMILIES[name][0]
        if len(args) != 1:
            raise UsageError(f"{name} takes one parameter {key}")
        return {"family": name, "params": {key: int(args[0])}}
    raise UsageError(f"unknown group family {name!r}")


def _load_table(spec: dict):
    return compute_char_table(build_group(spec))


# ---------------------------------------------------------------------------
# Output helpers


_WRITE_CHUNK = 1 << 20


def _atomic_write(path: str, text: str):
    """Write `text` and a final newline to `path` through a renamed temporary
    file. The text is encoded a chunk at a time and the newline written on
    its own, so a large export is never held twice."""
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        for start in range(0, len(text), _WRITE_CHUNK):
            fh.write(text[start:start + _WRITE_CHUNK])
        fh.write("\n")
    os.replace(tmp, path)


def _dumps(doc) -> str:
    """json.dumps(doc, indent=2, allow_nan=False), byte for byte. With an
    indent, json runs its generator-based pure-Python encoder; this joins each
    container's items at once and formats each leaf with the function json
    uses for it. Any value but a str, an int, a finite float, a bool, None, a
    list, a tuple or a dict with str keys, each of exactly that type, sends
    the whole document to json.dumps, so every error is json.dumps's own."""
    try:
        return _indented(doc, "\n")
    except (ValueError, RecursionError):   # a cycle recurses until json finds it
        return json.dumps(doc, indent=2, allow_nan=False)


def _indented(v, ind: str) -> str:
    """`v` as _dumps writes it, at the depth where `ind` is the line break and
    indent before its closing bracket; ValueError if _dumps must hand it on."""
    t = type(v)
    if t is str:
        return encode_basestring_ascii(v)
    if t is int:
        return int.__repr__(v)
    if t is float and v - v == 0.0:   # NaN and ±inf fail the test
        return float.__repr__(v)
    if v is None or t is bool:
        return "null" if v is None else "true" if v else "false"
    inner = ind + "  "
    if t is dict:
        parts = []
        for k, x in v.items():
            if type(k) is not str:
                raise ValueError
            parts.append(f"{encode_basestring_ascii(k)}: " + (
                encode_basestring_ascii(x) if (t := type(x)) is str else int.__repr__(x)
                if t is int else float.__repr__(x) if t is float and x - x == 0.0
                else _indented(x, inner)))
        return f"{{{inner}{(',' + inner).join(parts)}{ind}}}" if parts else "{}"
    if t is not list and t is not tuple:
        raise ValueError
    parts = [encode_basestring_ascii(x) if (t := type(x)) is str else int.__repr__(x)
             if t is int else float.__repr__(x) if t is float and x - x == 0.0
             else _indented(x, inner) for x in v]
    return f"[{inner}{(',' + inner).join(parts)}{ind}]" if parts else "[]"


def _emit(doc: dict, out: str | None):
    # NaN and Infinity are not JSON: a report holding one is refused
    text = _dumps(doc)
    if out:
        _atomic_write(out, text)
    else:
        print(text)


def _envelope(command: str, group_spec, params: dict, payload: dict,
              seed: int | None = None) -> dict:
    return {"version": __version__, "command": command,
            "group_spec": _echo_spec(group_spec), "seed": seed, "params": params,
            "report": payload}


def _echo_spec(spec):
    """A group spec as reports echo it: each cayley table, here or in a
    product factor, becomes its order and the sha256 of its compact JSON
    (separators "," and ":"), so a report does not grow with |G|^2."""
    if not isinstance(spec, dict):
        return spec
    if spec.get("type") == "cayley":
        import hashlib   # only here: a cayley spec is the one thing hashed
        rows = np.asarray(spec["table"]).tolist()
        text = json.dumps(rows, separators=(",", ":"))
        return {"type": "cayley", "order": len(rows),
                "sha256": hashlib.sha256(text.encode()).hexdigest()}
    return {key: _echo_spec(value) for key, value in spec.items()}


# ---------------------------------------------------------------------------
# Subcommand implementations (shared by the suite runner)


def run_group(args: dict) -> tuple[dict, int]:
    spec = parse_group_spec(args["group"])
    G = build_group(spec)
    C = G.classes
    series = upper_central_series(G)   # G/Z_i has order |G|/|Z_i|: no quotient is built
    payload = {
        "order": G.order,
        "num_classes": C.num_classes,
        "class_sizes": C.sizes.tolist(),
        "class_representatives": [G.label(int(r)) for r in C.representatives],
        "min_nontrivial_class": C.min_nontrivial_size,
        "abelian": G.is_abelian(),
        "center_order": len(series[0]) if series else 1,
        "quotient_chain_orders": [G.order] + [G.order // len(Z) for Z in series],
    }
    if args["normal_subgroups"]:
        T = compute_char_table(G)
        payload["normal_subgroup_orders"] = [len(s) for s in T.normal_subgroups]
    return _envelope("group", spec, {}, payload), 0


def _side_path(args: dict, rel: str) -> str:
    """`rel` on the command line; inside the output directory in a suite."""
    base, norm = args.get("_filedir"), os.path.normpath(rel)
    if base and (os.path.isabs(norm) or norm.split(os.sep)[0] == os.pardir):
        raise UsageError(f"side file {rel!r} is outside the suite's output directory")
    return os.path.join(base, norm) if base else rel


def run_chartable(args: dict) -> tuple[dict, int]:
    if bool(args["import_path"]) == bool(args["group"]):
        raise UsageError("chartable takes exactly one of --group and --import")
    if args["import_path"]:   # in a suite, relative to the output directory
        with open(os.path.join(args.get("_filedir", ""), args["import_path"])) as fh:
            doc = json.load(fh)
        T = from_interchange(doc)
        spec = doc["group"]
    else:
        spec = parse_group_spec(args["group"])
        T = _load_table(spec)
    if args["export"]:
        _atomic_write(_side_path(args, args["export"]), dumps_interchange(T, spec))
    payload = {"dims": T.dims.tolist(), "quality": T.quality,
               "num_irreps": T.num_irreps, "source": T.source,
               "exported_to": args["export"]}
    return _envelope("chartable", spec, {}, payload), 0


def _criteria_params(args: dict) -> CriteriaParams:
    """CriteriaParams from check options; an omitted option keeps the
    dataclass default."""
    return CriteriaParams(**{key: args[key] for key in (
        "k", "density", "power", "seed", "trials") if args[key] is not None})


def run_check(args: dict) -> tuple[dict, int]:
    spec = parse_group_spec(args["group"])
    params = _criteria_params(args)
    T = _load_table(spec)
    which = args["criterion"]
    names = (*TQR_CRITERIA, *QR_CRITERIA) if which == "all" else (which,)
    reports = (check_tqr(T, params, [n for n in names if n in TQR_CRITERIA])
               + check_qr(T, params, [n for n in names if n in QR_CRITERIA]))
    payload = {"criteria": [r.to_json_dict() for r in reports]}
    return (_envelope("check", spec, params.to_json_dict(), payload,
                      seed=params.seed), 0)


def run_cover(args: dict) -> tuple[dict, int]:
    if args["profile"] and not args["v3"]:
        raise UsageError("--profile needs --v3: it profiles the three-factor cover")
    spec = parse_group_spec(args["group"])
    T = _load_table(spec)
    v1 = rep_from_selector(T, args["v1"])
    v2 = rep_from_selector(T, args["v2"])
    if args["v3"]:
        v3 = rep_from_selector(T, args["v3"])
        payload = three_factor_cover(T, v1, v2, v3)
        if args["profile"]:
            payload["multiplicity_profile"] = multiplicity_profile(T, v1, v2, v3)
    else:
        payload = two_factor_cover(T, v1, v2)
    violated = payload["guaranteed"] and not payload["covered"]
    payload["guarantee_violated"] = violated
    return (_envelope("cover", spec,
                      {"v1": args["v1"], "v2": args["v2"], "v3": args["v3"]}, payload),
            1 if violated else 0)


def run_markov(args: dict) -> tuple[dict, int]:
    t_max, experiment = args["tmax"], args["experiment"]
    check_t_max(t_max)
    if experiment is not None and experiment < 1:
        raise UsageError(f"--experiment must be at least 1, got {experiment}")
    spec = parse_group_spec(args["group"])
    T = _load_table(spec)
    V = rep_from_selector(T, args["rep"])
    kernel = build_chain(T, V)
    metric, epsilon, start = args["metric"], args["epsilon"], None
    if args["start"] is not None:
        chosen = rep_from_selector(T, args["start"])
        if not chosen.any():
            raise UsageError(f"start selector {args['start']!r} selects no irreducible")
        start = int(np.flatnonzero(chosen)[0])
    payload = mixing_time(T, kernel, metric, epsilon, t_max=t_max, start=start)
    resid = stationarity_residual(T, kernel)
    payload["stationarity_residual"] = resid
    payload["plancherel"] = plancherel(T).tolist()
    if experiment is not None:
        payload["mixing_experiment"] = mixing_experiment(T, V, kernel, epsilon, experiment, payload)
    if args["csv"]:
        lines = ["t,uniform,tv_max,tv_half_l1"]
        for row in payload["curve"]:
            lines.append(f"{row['t']},{row['uniform']!r},{row['tv_max']!r},"
                         f"{row['tv_half_l1']!r}")
        _atomic_write(_side_path(args, args["csv"]), "\n".join(lines))
        payload["csv"] = args["csv"]
    violated = resid > config.TOL
    return (_envelope("markov", spec,
                      {"rep": args["rep"], "metric": metric, "epsilon": epsilon,
                       "tmax": t_max, "start": args["start"]}, payload),
            1 if violated else 0)


def _pick_normal(T, selector: str):
    s = selector.strip().lower()
    if s == "group":   # G itself, the lattice's last entry, without the lattice
        return np.arange(T.group.order)
    if s == "center":
        return center(T.group)
    key, _, value = s.partition(":")
    if key in ("order", "index"):
        want, n = int(value), T.group.order
        hits = [N for N in T.normal_subgroups
                if (len(N) if key == "order" else n // len(N)) == want]
        if len(hits) != 1:
            raise UsageError(
                f"{len(hits)} normal subgroups of {key} {want}; need exactly 1")
        return hits[0]
    raise UsageError(f"unknown normal-subgroup selector {selector!r}")


def run_counterexample(args: dict) -> tuple[dict, int]:
    spec = parse_group_spec(args["group"])
    T = _load_table(spec)
    N = _pick_normal(T, args["normal"])
    eps = args["epsilon"]
    if eps is not None:
        try:
            eps = Fraction(eps)
        except ZeroDivisionError:
            raise UsageError(f"epsilon {eps} has a zero denominator") from None
    mult, report = build_counterexample_rep(T, N, args["m"], epsilon=eps)
    payload = {"rep": {"mult": mult.tolist()}, "normal_order": len(N),
               "construction": report}
    violated = not report["power_measure_at_most_half"]
    return (_envelope("counterexample", spec,
                      {"normal": args["normal"], "m": args["m"],
                       "epsilon": None if eps is None else str(eps)}, payload),
            1 if violated else 0)


def _parse_tuples(text: str, rank: int | None) -> list[tuple]:
    """The ';'-separated elements of `text`, each of `rank` coordinates, or
    where rank is None of as many as the first element has."""
    chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    if not chunks:
        raise UsageError("empty element set")
    rank = rank or len(chunks[0].split(","))
    for chunk in chunks:
        if len(chunk.split(",")) != rank:
            raise UsageError(f"element {chunk!r} does not have rank {rank}")
    return [tuple(int(v) for v in chunk.split(",")) for chunk in chunks]


def run_sumset(args: dict) -> tuple[dict, int]:
    m, n = args["m"], args["n"]
    factors = tuple(int(v) for v in args["factors"].split(",")) if args["factors"] else None
    group = AbelianGroup(factors) if factors else None
    elems = _parse_tuples(args["set"], len(factors) if factors else None)
    if factors:
        for e in elems:
            if not all(0 <= x < d for x, d in zip(e, factors)):
                raise UsageError(f"element {','.join(map(str, e))} is outside the "
                                 f"group: need 0 <= x_i < d_i for factors {list(factors)}")
    params = {"factors": list(factors) if factors else None, "rank": len(elems[0]),
              "set": [list(e) for e in elems], "m": m}
    if args["cover"]:
        params["n"] = n
        payload = translate_cover(elems, n, m, group=group)
    else:
        S = m_fold_sumset(group, elems, m)
        payload = {"sumset": S.tolist(), "size": len(S)}
    return _envelope("sumset", None, params, payload), 0


_RUNNERS = {
    "group": run_group,
    "chartable": run_chartable,
    "check": run_check,
    "cover": run_cover,
    "markov": run_markov,
    "counterexample": run_counterexample,
    "sumset": run_sumset,
}
_PARSER = [None, None]   # [the _build_parser that built it, its parser]


def _parser() -> argparse.ArgumentParser:
    """main's parser, built again whenever _build_parser is replaced (by a trace)."""
    if _PARSER[0] is not _build_parser:
        _PARSER[:] = _build_parser, _build_parser()
    return _PARSER[1]


def _options(command: str) -> list[argparse.Action]:
    """The options of tqr `command` as its parser holds them, less --help and --out."""
    sub, = (a for a in _parser()._actions if isinstance(a, argparse._SubParsersAction))
    return [a for a in sub.choices[command]._actions if a.dest not in ("help", "out")]


def _suite_args(command: str, given: dict) -> dict:
    """The namespace argparse would give tqr `command`: an omitted or null option
    takes its default, a text option takes a number as its text, and a value outside
    its choices, a bool for a number, a non-integral int or non-text is refused."""
    args = {}
    for a in _options(command):
        value = given.get(a.dest)
        if value is None:
            value = a.default
        elif a.choices is not None and value not in a.choices:
            raise UsageError(f"unknown {a.dest} {value!r}")
        elif a.type in (int, float):
            if isinstance(value, bool) or (a.type is int and isinstance(value, float)
                                           and not value.is_integer()):
                kind = "an integer" if a.type is int else "a number"
                raise UsageError(f"{a.dest} must be {kind}, not {value!r}")
            value = a.type(value)
        elif a.type is None and a.nargs is None:
            if isinstance(value, (bool, list, dict)):
                raise UsageError(f"{a.dest} must be a string, not {value!r}")
            value = str(value)
        args[a.dest] = value
    return args


def _check_suite_config(cfg, outdir: str, summary_path: str) -> None:
    """Refuse a config unless it is {"experiments": [{id, command, args}, ...]}
    with string commands, args objects whose keys are the command's argument
    names, whose flags are true or false and whose required options are
    strings, ids that are new plain file names, not the summary's, and no
    export or csv in the output directory at the summary or any <id>.json."""
    if not isinstance(cfg, dict):
        raise UsageError("suite config must be a JSON object")
    exps = cfg.get("experiments", [])
    if not isinstance(exps, list) or not all(isinstance(e, dict) for e in exps):
        raise UsageError("suite experiments must be a list of objects")
    ids = [exp.get("id") for exp in exps]
    summary = os.path.realpath(summary_path)
    reports = {summary, *(os.path.realpath(os.path.join(outdir, f"{i}.json"))
                          for i in ids if isinstance(i, str))}
    for i, (exp_id, exp) in enumerate(zip(ids, exps)):
        if (not isinstance(exp_id, str) or exp_id in ids[:i] or exp_id in ("", ".", "..")
                or "/" in exp_id or os.sep in exp_id):
            raise UsageError(f"suite experiment id {exp_id!r} is not a new plain file name")
        if os.path.realpath(os.path.join(outdir, f"{exp_id}.json")) == summary:
            raise UsageError(f"suite experiment {exp_id!r} would overwrite the summary")
        if not (isinstance(exp.get("command"), str)
                and isinstance(exp.get("args", {}), dict)):
            raise UsageError(f"suite experiment {exp_id!r} needs a string command "
                             f"and, if it has args, an args object")
        if exp["command"] in _RUNNERS:   # an unknown one is run_suite's error
            actions, given = _options(exp["command"]), exp.get("args", {})
            unknown = set(given).difference(a.dest for a in actions)
            if unknown:
                raise UsageError(f"suite experiment {exp_id!r}: {min(unknown)!r} is not "
                                 f"an option of tqr {exp['command']}")
            for a in actions:   # a flag: "false" and 0 must not switch it on
                if a.nargs == 0 and not isinstance(given.get(a.dest, False), bool):
                    raise UsageError(f"suite experiment {exp_id!r}: {a.dest!r} is a flag "
                                     f"and takes only true or false")
                if a.required and not isinstance(given.get(a.dest), str):
                    raise UsageError(f"suite experiment {exp_id!r}: {a.dest!r} is required "
                                     f"by tqr {exp['command']} and takes a string")
                side = given.get(a.dest) if a.dest in ("export", "csv") else None
                if (isinstance(side, str)
                        and os.path.realpath(os.path.join(outdir, side)) in reports):
                    raise UsageError(f"suite experiment {exp_id!r}: {a.dest} {side!r} "
                                     f"would overwrite a report")


def run_suite(args: dict, summary_path: str) -> tuple[dict, int]:
    with open(args["config"]) as fh:
        cfg = json.load(fh)
    outdir = args["outdir"]
    _check_suite_config(cfg, outdir, summary_path)
    os.makedirs(outdir, exist_ok=True)
    summary = {"version": __version__, "config": args["config"],
               "experiments": []}
    worst = 0
    for exp in cfg.get("experiments", []):
        exp_id, command = exp["id"], exp["command"]
        entry = {"id": exp_id, "command": command}
        try:
            if command not in _RUNNERS:
                raise UsageError(f"unknown suite command {command!r}")
            exp_args = {**_suite_args(command, exp.get("args", {})), "_filedir": outdir}
            doc, code = _RUNNERS[command](exp_args)
            _emit(doc, os.path.join(outdir, f"{exp_id}.json"))
            entry["status"] = "ok" if code == 0 else "violation"
            entry["path"] = f"{exp_id}.json"
            worst = max(worst, code)
        except Exception as exc:  # member errors are recorded, suite continues
            entry["status"] = "error"
            entry["error"] = f"{type(exc).__name__}: {exc}"
        summary["experiments"].append(entry)
    return summary, worst


# ---------------------------------------------------------------------------
# Argument parsing


# each subcommand's help line and (flag, argparse keywords); each also takes --out
_COMMANDS = {
    "group": ("construct a group and report structure", [
        ("--group", {"required": True}), ("--normal-subgroups", {"action": "store_true"})]),
    "chartable": ("compute or import a character table", [
        ("--group", {}), ("--import", {"dest": "import_path"}), ("--export", {})]),
    # omitted options fall back to the CriteriaParams defaults
    "check": ("evaluate TQR / QR criteria", [
        ("--group", {"required": True}),
        ("--criterion", {"default": "all", "choices": ["all", *TQR_CRITERIA, *QR_CRITERIA]}),
        ("--k", {"type": int}), ("--density", {"type": float}), ("--power", {"type": int}),
        ("--seed", {"type": int}), ("--trials", {"type": int})]),
    "cover": ("two/three-factor covering check", [
        ("--group", {"required": True}), ("--v1", {"required": True}),
        ("--v2", {"required": True}), ("--v3", {}), ("--profile", {"action": "store_true"})]),
    "markov": ("tensor-product Markov chain analysis", [
        ("--group", {"required": True}), ("--rep", {"required": True}),
        ("--metric", {"default": "tv", "choices": ["tv", "tv_max", "uniform", "tv_half_l1"]}),
        ("--epsilon", {"type": float, "default": 0.25}), ("--tmax", {"type": int, "default": 64}),
        ("--start", {}),
        ("--experiment", {"type": int, "help": "also run the constant-time mixing "
                                               "experiment with this m"}),
        ("--csv", {})]),
    "counterexample": ("build the induced small-tensor-power rep", [
        ("--group", {"required": True}), ("--normal", {"default": "group"}),
        ("--m", {"type": int, "default": 3}), ("--epsilon", {})]),
    "sumset": ("abelian sumsets and translate covers", [
        ("--factors", {"help": "comma-separated cyclic factors; omit for lattice"}),
        ("--set", {"required": True}), ("--m", {"type": int, "default": 2}),
        ("--cover", {"action": "store_true"}), ("--n", {"type": int, "default": 1})]),
    "suite": ("run a batch of experiments from JSON config", [
        ("--config", {"required": True}), ("--outdir", {"default": "."})]),
}


class _CommandParser(argparse.ArgumentParser):
    """A subcommand's parser. It refuses an argument it does not know itself,
    where argparse would hand it back to tqr's parser, so the error shows the
    usage of the subcommand that was meant."""

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="tqr", allow_abbrev=False,
        description="Tensor quasi-randomness of finite groups: structure, "
                    "character tables, covering criteria, Markov mixing, "
                    "counterexample constructions.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True, parser_class=_CommandParser)
    for command, (help_line, options) in _COMMANDS.items():
        s = sub.add_parser(command, help=help_line, allow_abbrev=False)
        for flag, keywords in (*options, ("--out", {})):
            s.add_argument(flag, **keywords)
    return p


def main(argv: list[str] | None = None) -> int:
    try:
        ns = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    args = vars(ns)
    command, out = args.pop("command"), args.pop("out")
    side = args.get("export") or args.get("csv")
    try:
        if out and side and os.path.realpath(side) == os.path.realpath(out):
            raise UsageError(f"side file {side!r} would overwrite the report --out")
        if command == "suite":
            out = out or os.path.join(args["outdir"], "summary.json")
            doc, code = run_suite(args, out)
        else:
            doc, code = _RUNNERS[command](args)
        _emit(doc, out)
        return code
    except (UsageError, OSError, CharTableError, ValueError) as exc:
        # GroupError and json.JSONDecodeError are ValueErrors; OSError covers
        # a missing or unreadable file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        # only the parsers of nested input recurse without a bound: json and
        # the compact product syntax; build_group bounds a product's depth
        print("error: input nested too deeply", file=sys.stderr)
        return 2
