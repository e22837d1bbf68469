"""Self-tests of the benchmark: checker, span arithmetic, count determinism.

    python3 -m pytest -q bench/test_bench.py
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

from checker import Checker, table_problems  # noqa: E402
from tqrgroups import cli  # noqa: E402
from tracing import outer_totals, self_times  # noqa: E402
from workloads import Command  # noqa: E402


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("criterion", ["tqr2", "qr4"])
def test_checker_rejects_tampered_witness(criterion):
    cmd = Command("q8", ("check",), "check",
                  {"group": "quaternion8", "criterion": criterion})
    code, out = _run(["check", "--group", "quaternion8", "--criterion", criterion])
    assert Checker({}).check(cmd, code, out) == []
    doc = json.loads(out)
    witness = doc["report"]["criteria"][0]["witness"]
    if criterion == "tqr2":
        witness["missing"] = witness["missing"][1:]
    else:
        witness["kernel_members"] = [0, 2]     # {1, i} is not closed in Q8
    problems = Checker({}).check(cmd, code, json.dumps(doc))
    assert len(problems) == 1 and criterion in problems[0]


def test_checker_rejects_changed_verdict():
    cmd = Command("q8", ("check",), "check",
                  {"group": "quaternion8", "criterion": "qr4"})
    code, out = _run(["check", "--group", "quaternion8", "--criterion", "qr4"])
    assert Checker({"q8": {"qr4": False}}).check(cmd, code, out) == []
    assert Checker({"q8": {"qr4": True}}).check(cmd, code, out)


def test_checker_rejects_corrupted_dims(tmp_path):
    path = tmp_path / "s3.json"
    code, _ = _run(["chartable", "--group", "symmetric:3", "--export", str(path)])
    assert code == 0
    table = json.loads(path.read_text())
    assert table_problems(table) == []
    assert table["dims"] == [1, 1, 2]
    table["dims"] = [1, 2, 1]            # still sums to |G| in squares
    assert table_problems(table) == ["dims disagree with the identity column"]
    table["dims"] = [1, 1, 1]
    assert len(table_problems(table)) == 2


def test_checker_counts_exit_code_and_exception():
    cmd = Command("x", ("group",), "group", {"group": "cyclic:4"})
    assert Checker({}).check(cmd, 2, "") == ["x: exit code 2"]
    assert Checker({}).check(cmd, None, "", "RuntimeError: boom") == [
        "x: raised RuntimeError: boom"]


def test_self_time_on_nested_spans():
    spans = [["root", 0.0, 10.0, None, 0],
             ["a", 1.0, 4.0, 0, 0],
             ["b", 2.0, 3.0, 1, 0],
             ["a", 5.0, 9.0, 0, 0],
             ["a", 6.0, 8.5, 3, 0]]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.5, 2.5])
    totals = outer_totals(spans)
    assert totals["a"] == pytest.approx(7.0)     # the nested "a" is not added
    assert totals["b"] == pytest.approx(1.0)


def _traced_counts(workload, seed):
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"], proc.stdout
    return {k: m["value"] for k, m in result["metrics"].items()
            if m["unit"] in ("count", "bytes", "ratio")}


@pytest.mark.parametrize("workload", ["suite", "irreps"])
def test_counts_repeat_for_a_seed(workload):
    first = _traced_counts(workload, 5)
    assert first["classfuncs.decompose_calls"] > 0
    assert _traced_counts(workload, 5) == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "suite",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
