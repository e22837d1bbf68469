"""A seeded fuzz of the exit-code contract: 0 is success, 1 a verified
failure, 2 bad input. Command lines, group-spec files, interchange documents
and suite configs are drawn from one random.Random, over groups of order at
most 64, and each goes through cli.main in process under a time budget."""

import copy
import json
import random
import signal

import pytest

from tqrgroups import cli

_SEED = 25
_BUDGET_S = 20


class _OverBudget(BaseException):
    """Raised by the alarm; no handler in cli.main catches a BaseException."""


_GROUPS = ["cyclic:1", "cyclic:7", "cyclic:12", "dihedral:5", "symmetric:3",
           "symmetric:4", "alternating:4", "alternating:5", "quaternion8",
           "extraspecial:3", "affine:5", "affine:7", "product(cyclic(2),symmetric(3))",
           "family:product(cyclic(3),dihedral(4))"]
_BAD_GROUPS = ["", "cyclic:0", "cyclic:-3", "cyclic:x", "nosuch:4", "quaternion8:5",
               "product(", "product(cyclic(2))", "symmetric:30", "cyclic:30001",
               "@missing.json", "cyclic:1e3", "product(cyclic(2),nosuch(3))"]
# odd values of an int or float option; one in ten options takes one
_BAD_NUMBERS = ["-1", "x", "", "1.5", "nan", "-inf", "100000000000000000000000"]
_SELECTORS = ["all", "trivial", "irrep:0", "irrep:1", "dim>=2"]
_BAD_SELECTORS = ["irrep:99", "irrep:-1", "irrep:x", "dim>=x", "bogus", ""]
_SPECS = [{"family": "cyclic", "params": {"n": 6}},
          {"family": "product", "params": {"left": {"family": "cyclic", "params": {"n": 2}},
                                           "right": {"family": "dihedral", "params": {"n": 3}}}},
          {"type": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]]},
          {"type": "permutation", "degree": 4, "generators": [[1, 0, 2, 3], [1, 2, 3, 0]]}]
_ODD = [None, True, -1, 0, 2.5, 1e308, "x", "", [], {}, [[0]], {"n": 3}, "cyclic"]


def _pick(rng, good, bad):
    return rng.choice(bad if rng.random() < 0.1 else good)


def _selector(rng):
    return _pick(rng, _SELECTORS, _BAD_SELECTORS)


def _opts(rng, options):
    """Each (flag, good, bad) option, present with probability 1/2; a flag
    without a value has good None."""
    argv = []
    for flag, good, bad in options:
        if rng.random() < 0.5:
            argv += [flag] if good is None else [flag, _pick(rng, good, bad)]
    return argv


def _command_line(rng):
    """A command line from the grammar of every subcommand but suite, less --out."""
    command = rng.choice(["group", "chartable", "check", "cover", "markov",
                          "counterexample", "sumset"])
    group = ["--group", _pick(rng, _GROUPS, _BAD_GROUPS)]
    if command == "group":
        return ["group", *group, *_opts(rng, [("--normal-subgroups", None, None)])]
    if command == "chartable":
        source = rng.choice([group, ["--import", "doc.json"], [], [*group, "--import", "doc.json"],
                             ["--import", "missing.json"]])
        return ["chartable", *source,
                *_opts(rng, [("--export", ["table.json"], ["../table.json", ""])])]
    if command == "check":
        # few trials: a sampler that no rule stops makes every draw
        return ["check", *group, *_opts(rng, [
            ("--criterion", ["all", "tqr1", "tqr2", "tqr3", "tqr4", "qr1", "qr2", "qr3", "qr4"],
             ["qr5", ""]),
            ("--k", ["0", "2", "4", "100"], _BAD_NUMBERS),
            ("--density", ["0.05", "0.1", "0.3", "0.5", "1", "1e-300"], _BAD_NUMBERS + ["0"]),
            ("--power", ["1", "2", "3", "1000000000"], _BAD_NUMBERS + ["0"]),
            ("--seed", ["0", "7", "100000000000000000000000"], _BAD_NUMBERS[:-1]),
            ("--trials", ["1", "7", "40"], _BAD_NUMBERS + ["0"])])]
    if command == "cover":
        return ["cover", *group, "--v1", _selector(rng), "--v2", _selector(rng),
                *_opts(rng, [("--v3", _SELECTORS, _BAD_SELECTORS), ("--profile", None, None)])]
    if command == "markov":
        return ["markov", *group, "--rep", _selector(rng), *_opts(rng, [
            ("--metric", ["tv", "tv_max", "uniform", "tv_half_l1"], ["l2"]),
            ("--epsilon", ["0.01", "0.25", "0.9"], _BAD_NUMBERS + ["0", "inf"]),
            ("--tmax", ["0", "1", "64"], _BAD_NUMBERS),
            ("--start", _SELECTORS, _BAD_SELECTORS),
            ("--experiment", ["1", "3", "1000000000"], _BAD_NUMBERS + ["0"]),
            ("--csv", ["curve.csv"], ["../curve.csv", ""])])]
    if command == "counterexample":
        return ["counterexample", *group, *_opts(rng, [
            ("--normal", ["group", "center", "order:2", "index:2"],
             ["order:1", "index:x", "bogus", ""]),
            ("--m", ["1", "2", "3", "1000000000"], _BAD_NUMBERS + ["0"]),
            ("--epsilon", ["1/1000000", "1e-9", "1/100"], ["1/2", "1/0", "0", "-1", "x"])])]
    # a lattice sumset of two or more points never stalls, so m stays small there
    factors = _pick(rng, [None, "12", "2,4", "3,6", "64"], ["0", "-3", "4,2", "x", ""])
    rank = 1 if factors is None else len(factors.split(","))
    points = [",".join(str(rng.randrange(0, 8)) for _ in range(_pick(rng, [rank], [rank + 1])))
              for _ in range(_pick(rng, [1, 2, 3], [0]))]
    huge = ["1000000000"] if factors is not None else []
    return ["sumset", "--set", ";".join(points), *(["--factors", factors] if factors else []),
            *_opts(rng, [("--m", ["1", "2", "5", *huge], _BAD_NUMBERS[:-1] + ["0"]),
                         ("--cover", None, None),
                         ("--n", ["1", "2", *huge], _BAD_NUMBERS[:-1] + ["0"])])]


def _mutate(rng, doc):
    """A copy of a JSON document with one entry deleted or replaced, or its
    text cut short."""
    doc = copy.deepcopy(doc)
    places = []

    def walk(node):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, value in items:
            places.append((node, key))
            if isinstance(value, (dict, list)):
                walk(value)

    walk(doc)
    roll = rng.random()
    if roll < 0.15 or not places:
        text = json.dumps(doc)
        return text[:rng.randrange(len(text))]
    node, key = rng.choice(places)
    if roll < 0.4 and isinstance(node, dict):
        del node[key]
    else:
        node[key] = rng.choice(_ODD)
    return json.dumps(doc)


def _suite_config(rng):
    """A config of up to three experiments, their args from drawn command lines
    with values given as text or numbers, now and then of the wrong type."""
    experiments = []
    for i in range(rng.randrange(0, 4)):
        argv = _command_line(rng)
        args, it = {}, iter(argv[1:])
        for flag in it:
            value = True if flag in ("--normal-subgroups", "--profile", "--cover") else next(it)
            if rng.random() < 0.05:
                value = rng.choice(_ODD)
            elif isinstance(value, str) and value.lstrip("-").isdigit():
                value = int(value)
            name = flag[2:].replace("-", "_")
            args["import_path" if name == "import" else name] = value
        experiments.append({"id": _pick(rng, [f"e{i}"], ["e0", "summary", "a/b", "", 7]),
                            "command": _pick(rng, [argv[0]], ["suite", "nosuch", 3]),
                            "args": args})
    return _pick(rng, [{"experiments": experiments}], _ODD)


def _run(argv, capsys):
    def expire(signum, frame):
        raise _OverBudget(f"{argv} ran past {_BUDGET_S} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(_BUDGET_S)
    try:
        code = cli.main(argv)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    out = capsys.readouterr().out
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out == "", argv
    return code


def _assert_contract(argv, out_path, capsys):
    code = _run([*argv, "--out", str(out_path)], capsys)
    if code == 2:
        assert not out_path.exists(), argv
    out_path.unlink(missing_ok=True)
    return code


@pytest.fixture
def fuzz_dir(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert cli.main(["chartable", "--group", "dihedral:4", "--export", "doc.json"]) == 0
    capsys.readouterr()
    return tmp_path


def test_command_lines_keep_the_exit_code_contract(fuzz_dir, capsys):
    rng = random.Random(_SEED)
    codes = [_assert_contract(_command_line(rng), fuzz_dir / "report.json", capsys)
             for _ in range(1000)]
    assert {0, 2} <= set(codes)


def test_spec_files_and_documents_keep_the_exit_code_contract(fuzz_dir, capsys):
    rng = random.Random(_SEED + 1)
    doc = json.loads((fuzz_dir / "doc.json").read_text())
    codes = []
    for i in range(400):
        if i % 2:
            (fuzz_dir / "spec.json").write_text(_mutate(rng, rng.choice(_SPECS)))
            argv = rng.choice([["group", "--normal-subgroups"], ["check", "--criterion", "tqr1"],
                               ["chartable"], ["markov", "--rep", "all"],
                               ["counterexample"]])
            argv = [argv[0], "--group", "@spec.json", *argv[1:]]
        else:
            (fuzz_dir / "bad.json").write_text(_mutate(rng, doc))
            argv = ["chartable", "--import", "bad.json"]
        codes.append(_assert_contract(argv, fuzz_dir / "report.json", capsys))
    assert {0, 2} <= set(codes)


def test_suite_configs_keep_the_exit_code_contract(fuzz_dir, capsys):
    rng = random.Random(_SEED + 2)
    codes = []
    for i in range(150):
        cfg = _suite_config(rng)
        (fuzz_dir / "suite.json").write_text(json.dumps(cfg))
        outdir = fuzz_dir / f"suite-{i}"
        summary = outdir / "summary.json"
        code = _run(["suite", "--config", "suite.json", "--outdir", str(outdir)], capsys)
        codes.append(code)
        if code == 2:
            assert not summary.exists(), cfg
            continue
        got = json.loads(summary.read_text())["experiments"]
        assert [e["id"] for e in got] == [e["id"] for e in cfg.get("experiments", [])], cfg
        assert {e["status"] for e in got} <= {"ok", "violation", "error"}, cfg
    assert {0, 2} <= set(codes)
