"""Output checks for every benchmark command.

A command passes when it exits with code 0 and its report survives checks
that do not reuse the code path that produced it:

- character tables: sum of dim^2 equals |G|, dims agree with the identity
  column, row and column orthogonality residuals are at most TQR_TOL;
- an export followed by an import and re-export is bit-exact;
- every witness is re-verified. Support witnesses are recomputed by
  decomposing products of characters, product-set witnesses with the Cayley
  table, normal-subgroup witnesses by closure and conjugation;
- verdicts of exact computations and of completed exhaustive searches match
  reference.json. Truncated and randomized verdicts are not compared;
- Markov reports: the stationarity residual, recomputed from the exact kernel;
- counterexamples: the measure, partition and power-measure flags, with the
  power support recomputed;
- `suite` reruns reproduce the previous pass byte for byte.

The checker builds groups and character tables with the package itself, but
only to obtain the characters it decomposes against; it validates each table
it builds before using it.
"""

from __future__ import annotations

import json
import os
from fractions import Fraction

import numpy as np

from tqrgroups import config
from tqrgroups.chartable import compute_char_table
from tqrgroups.cli import parse_group_spec
from tqrgroups.groups import build_group, conjugacy_classes

EXACT_CRITERIA = ("tqr1", "tqr4", "qr1", "qr4")
COMPLETE_SEARCH = "exhaustive-minimal+randomized"


class CheckError(Exception):
    pass


def _require(cond, message):
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Character tables


def table_problems(doc: dict) -> list[str]:
    """Problems with a table in interchange form; empty when it is sound."""
    sizes = np.asarray(doc["class_sizes"], dtype=np.int64)
    dims = np.asarray(doc["dims"], dtype=np.int64)
    values = np.array([[complex(re, im) for re, im in row] for row in doc["values"]])
    n = int(sizes.sum())
    r = len(sizes)
    problems = []
    if values.shape != (r, r) or dims.shape != (r,):
        return [f"table shape {values.shape} with {len(dims)} dims for {r} classes"]
    if int(np.sum(dims ** 2)) != n:
        problems.append(f"sum of dim^2 is {int(np.sum(dims ** 2))}, |G| = {n}")
    if np.max(np.abs(values[:, 0] - dims)) > config.TOL:
        problems.append("dims disagree with the identity column")
    w = sizes / n
    row = np.max(np.abs((values * w) @ values.conj().T - np.eye(r)))
    col = np.max(np.abs((values.conj().T @ values) * w[None, :] - np.eye(r)))
    if row > config.TOL or col > config.TOL:
        problems.append(f"orthogonality residuals {row:.2e} (rows), {col:.2e} (columns)")
    return problems


class GroupData:
    """A group, its classes and a validated character table, for checking."""

    def __init__(self, spec: str):
        self.G = build_group(parse_group_spec(spec))
        self.C = conjugacy_classes(self.G)
        self.T = compute_char_table(self.G, self.C)
        self.n = self.G.order
        self.dims = self.T.dims.astype(np.int64)
        self.w = self.C.sizes / self.n
        doc = {"class_sizes": self.C.sizes.tolist(), "dims": self.dims.tolist(),
               "values": [[[v.real, v.imag] for v in row] for row in self.T.values]}
        problems = table_problems(doc)
        if problems:
            raise CheckError(f"checker table for {spec}: {'; '.join(problems)}")

    def measure(self, support) -> Fraction:
        return sum((Fraction(int(self.dims[i]) ** 2, self.n) for i in support),
                   Fraction(0))

    def char(self, support, weights=None) -> np.ndarray:
        """Sum of weights[i] * chi_i over the support (weights default to 1)."""
        coeff = np.zeros(len(self.dims))
        for i in support:
            coeff[int(i)] = 1 if weights is None else weights[int(i)]
        return coeff @ self.T.values

    def multiplicities(self, values: np.ndarray) -> np.ndarray:
        raw = (self.w * values) @ self.T.values.conj().T
        mult = np.rint(raw.real).astype(np.int64)
        err = np.max(np.abs(raw - mult) / np.maximum(1.0, np.abs(raw)))
        _require(err <= config.TOL and mult.min() >= 0,
                 f"product is not a character (residual {err:.2e})")
        return mult

    def support_of(self, values: np.ndarray) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.multiplicities(values))]

    def selector(self, text: str) -> list[int]:
        s = text.strip().lower()
        if s == "all":
            return list(range(len(self.dims)))
        if s.startswith("irrep:"):
            return [int(s[6:])]
        if s.startswith("dim>="):
            return [i for i, d in enumerate(self.dims) if d >= int(s[5:])]
        raise CheckError(f"checker does not know selector {text!r}")

    def product_set(self, *subsets) -> np.ndarray:
        prod = np.asarray(subsets[0], dtype=np.int64)
        for s in subsets[1:]:
            prod = np.unique(self.G.mul[np.ix_(prod, np.asarray(s, dtype=np.int64))])
        return prod

    def is_normal_subgroup(self, members) -> bool:
        K = np.asarray(sorted(members), dtype=np.int64)
        inside = np.zeros(self.n, dtype=bool)
        inside[K] = True
        if not inside[self.G.identity] or self.n % len(K):
            return False
        if not inside[self.G.mul[np.ix_(K, K)]].all():
            return False
        conj = self.G.mul[self.G.mul[:, K], self.G.inv[:, None]]
        return bool(inside[conj].all())


# ---------------------------------------------------------------------------
# Verdicts compared against the reference


def verdicts(kind: str, report: dict) -> dict:
    """The exact, seed-independent part of a report."""
    if kind == "group":
        keys = ("order", "num_classes", "class_sizes", "center_order",
                "quotient_chain_orders", "normal_subgroup_orders")
        return {k: report.get(k) for k in keys}
    if kind == "chartable":
        return {"dims": report["dims"]}
    if kind == "check":
        out = {}
        for c in report["criteria"]:
            if c["criterion"] in EXACT_CRITERIA or c["mode"] == COMPLETE_SEARCH:
                out[c["criterion"]] = c["holds"]
        return out
    if kind == "cover":
        prof = report.get("multiplicity_profile") or {}
        return {"covered": report["covered"], "missing": report["missing"],
                "guaranteed": report["guaranteed"],
                "multiplicities": prof.get("multiplicities")}
    if kind == "counterexample":
        c = report["construction"]
        return {"support": c["support"], "power_support": c["power_support"],
                "measure_v_exact": c["measure_v_exact"], "set_size": c["set_size"]}
    if kind == "sumset":
        return report
    return {}


# ---------------------------------------------------------------------------
# The checker


class Checker:
    """Checks one command's outcome; keeps the state that spans passes."""

    def __init__(self, reference: dict):
        self.reference = reference
        self._groups: dict[str, GroupData] = {}
        self._suite_prev: dict[str, bytes] | None = None

    def group(self, spec: str) -> GroupData:
        if spec not in self._groups:
            self._groups[spec] = GroupData(spec)
        return self._groups[spec]

    def check(self, cmd, code, stdout: str, error: str | None = None) -> list[str]:
        """Problems with one command's outcome; empty when it passed."""
        if error is not None:
            return [f"{cmd.key}: raised {error}"]
        if code != 0:
            return [f"{cmd.key}: exit code {code}"]
        try:
            if cmd.kind == "suite":
                self._check_suite(cmd)
            else:
                doc = json.loads(stdout)
                _require(doc.get("command") == cmd.kind,
                         f"report is for command {doc.get('command')!r}")
                self._check_doc(cmd.key, cmd.kind, doc, cmd.info)
        except CheckError as exc:
            return [f"{cmd.key}: {exc}"]
        except (KeyError, TypeError, ValueError, IndexError, AttributeError,
                OSError) as exc:
            return [f"{cmd.key}: malformed output ({type(exc).__name__}: {exc})"]
        return []

    # -- shared by single commands and suite members

    def _check_doc(self, key: str, kind: str, doc: dict, info: dict,
                   filedir: str = "."):
        report = doc["report"]
        getattr(self, f"_check_{kind}")(report, doc, info, filedir)
        ref = self.reference.get(key)
        if ref is not None:
            got = verdicts(kind, report)
            diff = sorted(k for k in ref if k in got and got[k] != ref[k])
            _require(not diff, f"differs from reference in {diff}")

    def _check_group(self, report, doc, info, filedir):
        n = report["order"]
        _require(sum(report["class_sizes"]) == n, "class sizes do not sum to |G|")
        orders = report.get("normal_subgroup_orders")
        if orders is not None:
            _require(orders == sorted(orders) and orders[0] == 1 and orders[-1] == n,
                     "normal subgroup orders must run from 1 to |G|")
            _require(all(n % k == 0 for k in orders),
                     "a normal subgroup order does not divide |G|")

    def _check_chartable(self, report, doc, info, filedir):
        q = report["quality"]
        _require(q["row_residual"] <= config.TOL and q["col_residual"] <= config.TOL,
                 "reported residuals exceed TQR_TOL")
        if not info.get("export"):
            g = self.group(info["group"])
            _require(report["dims"] == g.dims.tolist(),
                     "reported dims differ from the checker's table")
            return
        path = os.path.join(filedir, info["export"])
        with open(path) as fh:
            table = json.load(fh)
        problems = table_problems(table)
        _require(not problems, "; ".join(problems))
        _require(report["dims"] == table["dims"], "reported dims differ from the file")
        if info.get("import"):
            with open(os.path.join(filedir, info["import"]), "rb") as fh:
                original = fh.read()
            with open(path, "rb") as fh:
                _require(fh.read() == original, "export -> import is not bit-exact")

    def _check_check(self, report, doc, info, filedir):
        g = self.group(info["group"])
        names = [c["criterion"] for c in report["criteria"]]
        want = info.get("criterion", "all")
        expected = (["tqr1", "tqr2", "tqr3", "tqr4", "qr1", "qr2", "qr3", "qr4"]
                    if want == "all" else [want])
        _require(names == expected, f"criteria {names}, expected {expected}")
        for c in report["criteria"]:
            w = c["witness"]
            if c["error"] is not None:
                raise CheckError(f"{c['criterion']} reported error {c['error']}")
            _require(c["holds"] is (w is None),
                     f"{c['criterion']}: holds={c['holds']} with witness {w is not None}")
            if w is not None:
                _WITNESS[c["criterion"]](g, w, c["parameters"])
            elif c["criterion"] in ("tqr2", "tqr3"):
                key = "triples_checked" if c["criterion"] == "tqr2" else "supports_checked"
                _require(c["details"][key] > 0, f"{c['criterion']} checked nothing")

    def _check_cover(self, report, doc, info, filedir):
        g = self.group(info["group"])
        p = doc["params"]
        sels = [p["v1"], p["v2"]] + ([p["v3"]] if p.get("v3") else [])
        sups = [g.selector(s) for s in sels]
        prod = np.prod([g.char(s) for s in sups], axis=0)
        covered_by = set(g.support_of(prod))
        missing = sorted(set(range(len(g.dims))) - covered_by)
        _require(report["missing"] == missing and report["covered"] == (not missing),
                 f"recomputed missing irreps {missing}, reported {report['missing']}")
        _require(report["measures"] == [float(g.measure(s)) for s in sups],
                 "Plancherel measures differ")
        _require(report["guarantee_violated"] is False, "covering guarantee violated")
        prof = report.get("multiplicity_profile")
        if prof is not None:
            reduced = np.prod([g.char(s, g.dims) for s in sups], axis=0)
            _require(prof["multiplicities"] == g.multiplicities(reduced).tolist(),
                     "multiplicity profile differs from the decomposed product")

    def _check_markov(self, report, doc, info, filedir):
        g = self.group(info["group"])
        sup = g.selector(doc["params"]["rep"])
        red = g.char(sup, g.dims)
        dim_red = int(np.sum(g.dims[sup] ** 2))
        dims = g.dims.astype(np.float64)
        kernel = np.array([g.multiplicities(g.T.values[lam] * red) * dims
                           / (dims[lam] * dim_red) for lam in range(len(dims))])
        pi = dims ** 2 / g.n
        resid = float(np.max(np.abs(pi @ kernel - pi)))
        _require(resid <= config.TOL, f"recomputed stationarity residual {resid:.2e}")
        _require(report["stationarity_residual"] <= config.TOL,
                 f"reported stationarity residual {report['stationarity_residual']:.2e}")
        _require(np.max(np.abs(np.asarray(report["plancherel"]) - pi)) <= 1e-15,
                 "reported Plancherel measure differs")
        exp = report.get("mixing_experiment")
        if exp is not None:
            _require(exp["stationarity_residual"] <= config.TOL,
                     "experiment stationarity residual exceeds TQR_TOL")

    def _check_counterexample(self, report, doc, info, filedir):
        g = self.group(info["group"])
        c = report["construction"]
        for flag in ("power_measure_at_most_half", "orbit_partition_ok",
                     "measure_identity_ok", "orbit_measures_ok",
                     "m_fold_mass_bound_ok"):
            _require(c[flag] is True, f"{flag} is {c[flag]}")
        mult = report["rep"]["mult"]
        sup = [i for i, k in enumerate(mult) if k]
        _require(sup == c["support"], "support differs from the multiplicities")
        mv = g.measure(sup)
        _require([mv.numerator, mv.denominator] == c["measure_v_exact"],
                 "measure of V differs")
        power = g.support_of(g.char(sup) ** c["m"])
        _require(power == c["power_support"],
                 "recomputed power support differs")
        _require(g.measure(power) <= Fraction(1, 2),
                 "power support has measure above 1/2")

    def _check_sumset(self, report, doc, info, filedir):
        if "sumset" in report:
            _require(report["size"] == len(report["sumset"]), "sumset size differs")

    # -- suite

    def _check_suite(self, cmd):
        outdir = cmd.info["outdir"]
        with open(cmd.info["config"]) as fh:
            args = {e["id"]: e.get("args", {}) for e in json.load(fh)["experiments"]}
        with open(os.path.join(outdir, "summary.json")) as fh:
            summary = json.load(fh)
        _require([e["id"] for e in summary["experiments"]] == list(args),
                 "summary does not list the configured experiments")
        for exp in summary["experiments"]:
            _require(exp["status"] == "ok", f"{exp['id']} has status {exp['status']}")
            with open(os.path.join(outdir, exp["path"])) as fh:
                doc = json.load(fh)
            _require(doc.get("command") == exp["command"],
                     f"{exp['id']} report is for command {doc.get('command')!r}")
            self._check_doc(f"suite/{exp['id']}", exp["command"], doc,
                            args[exp["id"]], outdir)
        files = {}
        for name in sorted(os.listdir(outdir)):
            with open(os.path.join(outdir, name), "rb") as fh:
                files[name] = fh.read()
        prev, self._suite_prev = self._suite_prev, files
        if prev is not None:
            changed = sorted(k for k in files.keys() | prev.keys()
                             if files.get(k) != prev.get(k))
            _require(not changed, f"rerun is not byte-identical: {changed}")


# ---------------------------------------------------------------------------
# Witness re-verification, one function per criterion


def _tqr1(g: GroupData, w, params):
    x = w["class_elements"][0]
    orbit = np.unique(g.G.mul[g.G.mul[:, x], g.G.inv]).tolist()
    _require(orbit == w["class_elements"] and len(orbit) == w["class_size"],
             "tqr1 witness is not a conjugacy class")
    _require(len(orbit) <= params["class_threshold"] and len(orbit) < g.n,
             "tqr1 witness class is not small")


def _tqr2(g: GroupData, w, params):
    dens = Fraction(str(params["density"]))
    for s in w["supports"]:
        _require(g.measure(s) >= dens, "tqr2 witness support below the density")
    prod = np.prod([g.char(s) for s in w["supports"]], axis=0)
    missing = sorted(set(range(len(g.dims))) - set(g.support_of(prod)))
    _require(missing and missing == w["missing"],
             f"tqr2 witness misses {missing}, reported {w['missing']}")


def _tqr3(g: GroupData, w, params):
    dens = Fraction(str(params["density"]))
    _require(g.measure(w["support"]) >= dens, "tqr3 witness support below the density")
    power = g.support_of(g.char(w["support"]) ** params["power"])
    _require(power == w["power_support"], "tqr3 power support differs")
    _require(g.measure(power) <= Fraction(params["power_measure_threshold"]),
             "tqr3 power support is not small")


def _tqr4(g: GroupData, w, params):
    if w["kind"] == "small_normal_subgroup":
        _require(g.is_normal_subgroup(w["members"]), "tqr4 witness is not normal")
        _require(1 < len(w["members"]) == w["order"] <= params["normal_size"],
                 "tqr4 witness subgroup is not small")
    else:
        z = np.asarray(w["center_members"], dtype=np.int64)
        block = g.G.mul[np.ix_(z, z)]
        _require(len(z) > 1 and np.array_equal(block, block.T),
                 "tqr4 witness center is not abelian")


def _qr1(g: GroupData, w, params):
    _require(int(g.dims[w["irrep"]]) == w["dim"] <= params["dim_threshold"],
             "qr1 witness dimension differs")


def _qr2(g: GroupData, w, params):
    size = len(g.product_set(*w["subsets"]))
    _require(size == w["product_size"] < g.n, f"qr2 product has {size} elements")


def _qr3(g: GroupData, w, params):
    size = len(g.product_set(*w["subsets"] * params["power"]))
    _require(size == w["product_size"] < g.n, f"qr3 product has {size} elements")


def _qr4(g: GroupData, w, params):
    if w["kind"] == "abelian_quotient":
        K = w["kernel_members"]
        _require(len(K) == w["kernel_order"], "qr4 kernel order differs")
        _require(g.is_normal_subgroup(K), "qr4 kernel is not a normal subgroup")
        mul, inv = g.G.mul, g.G.inv
        comm = mul[mul, inv[mul.T]]          # (xy)(yx)^-1 = [x, y]
        _require(np.isin(comm, K).all(), "qr4 quotient is not abelian")
        _require(w["quotient_order"] * len(K) == g.n, "qr4 quotient order differs")
    else:
        _require(1 < w["quotient_order"] <= params["quotient_size"],
                 "qr4 quotient is not small")


_WITNESS = {"tqr1": _tqr1, "tqr2": _tqr2, "tqr3": _tqr3, "tqr4": _tqr4,
            "qr1": _qr1, "qr2": _qr2, "qr3": _qr3, "qr4": _qr4}
