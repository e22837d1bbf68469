"""A census of TQR2, TQR3, QR2 and QR3 verdicts on a fixed grid of groups
and densities, with default CriteriaParams otherwise.

census.json pins each report as "group/density/criterion" -> [holds, mode,
decided_by], one key per line. The census detects changes; it is not an
oracle. It pins today's sampled passes too, so a rule that decides one shows
up here as a named flip. A change that moves an entry rewrites the file with
`PYTHONPATH=src:tests python3 -c "import test_census; test_census.write()"`
and names every changed key.

The tier-1 test leaves A7 out: its 24 reports take about 90 s, most of it in
the sampled QR reports. CI checks them with `test_census.check(["A7"])`.
"""
import json
from pathlib import Path

from conftest import FIXTURE_SPECS
from tqrgroups import build_group, check_qr, check_tqr, compute_char_table
from tqrgroups.criteria import CriteriaParams

CENSUS = Path(__file__).with_name("census.json")
DENSITIES = (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)


def _family(name, **params):
    return {"family": name, "params": params}


GROUPS = {
    **FIXTURE_SPECS,
    "A6": _family("alternating", n=6),
    # PSL(2,7) on the projective line over F_7 (point 7 is infinity)
    "PSL27": {"type": "permutation", "degree": 8,
              "generators": [[1, 2, 3, 4, 5, 6, 0, 7], [7, 6, 3, 2, 5, 4, 1, 0]]},
    "ES7": _family("extraspecial", p=7),
    "aff19": _family("affine", p=19),
    "D30": _family("dihedral", n=30),
    "C97": _family("cyclic", n=97),
    "D101": _family("dihedral", n=101),
    "D151": _family("dihedral", n=151),
    "C7xC7": _family("product", left=_family("cyclic", n=7), right=_family("cyclic", n=7)),
    "A7": _family("alternating", n=7),
}


def census(names) -> dict:
    """The census entries of the named groups; each group is built once."""
    entries = {}
    for name in names:
        T = compute_char_table(build_group(GROUPS[name]))
        for density in DENSITIES:
            params = CriteriaParams(density=density)
            for rep in (check_tqr(T, params, names=("tqr2", "tqr3"))
                        + check_qr(T, params, names=("qr2", "qr3"))):
                entries[f"{name}/{density}/{rep.criterion}"] = [
                    rep.holds, rep.mode, rep.details.get("decided_by")]
    return entries


def write() -> None:
    """Rewrite census.json from the whole grid, A7 included."""
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in census(GROUPS).items()]
    CENSUS.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def check(names) -> None:
    """Assert that the named groups' entries match census.json."""
    pinned = json.loads(CENSUS.read_text())
    want = {k: v for k, v in pinned.items() if k.split("/")[0] in names}
    got = census(names)
    changed = [k for k in sorted(set(want) | set(got)) if want.get(k) != got.get(k)]
    assert not changed, "census entries changed:\n" + "\n".join(
        f"{k}: {want.get(k)} -> {got.get(k)}" for k in changed)


def test_census_matches_committed_file():
    check([name for name in GROUPS if name != "A7"])
