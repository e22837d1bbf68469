import argparse
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc

import pytest

import oracle
from tqrgroups import cli, groups
from tqrgroups.criteria import QR_CRITERIA, TQR_CRITERIA


def _run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_parse_group_specs():
    assert cli.parse_group_spec("cyclic:12") == \
        {"family": "cyclic", "params": {"n": 12}}
    assert cli.parse_group_spec("family:affine:5") == \
        {"family": "affine", "params": {"p": 5}}
    assert cli.parse_group_spec("quaternion8")["family"] == "quaternion8"
    nested = cli.parse_group_spec("product(cyclic(2),symmetric(4))")
    assert nested["params"]["left"] == {"family": "cyclic", "params": {"n": 2}}
    assert nested["params"]["right"] == {"family": "symmetric", "params": {"n": 4}}


@pytest.mark.parametrize("text, message", [
    ("cyclic:1:2", "cyclic takes one parameter n"),
    ("symmetric", "symmetric takes one parameter n"),
    ("affine(5,7)", "affine takes one parameter p"),
    ("extraspecial", "extraspecial takes one parameter p"),
    ("nosuch:3", "unknown group family 'nosuch'"),
    ("quaternion8:99", "quaternion8 takes no parameter"),
    ("quaternion8(1,2,3)", "quaternion8 takes no parameter"),
])
def test_parse_group_spec_errors(text, message):
    with pytest.raises(cli.UsageError, match=f"^{message}$"):
        cli.parse_group_spec(text)


def test_parse_group_spec_reads_every_family_and_its_key():
    for name, (key, _, _) in groups._FAMILIES.items():
        assert cli.parse_group_spec(f"{name}:5") == {"family": name, "params": {key: 5}}


def test_parse_group_spec_from_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"family": "dihedral", "params": {"n": 4}}))
    assert cli.parse_group_spec(f"@{path}") == \
        {"family": "dihedral", "params": {"n": 4}}


def test_group_subcommand(capsys):
    code, doc = _run(["group", "--group", "quaternion8", "--normal-subgroups"],
                     capsys)
    assert code == 0
    rep = doc["report"]
    assert rep["order"] == 8
    assert rep["class_sizes"] == [1, 1, 2, 2, 2]
    assert rep["center_order"] == 2
    assert rep["quotient_chain_orders"] == [8, 4, 1]
    assert rep["normal_subgroup_orders"] == [1, 2, 4, 4, 4, 8]


def test_check_subcommand_q8(capsys):
    code, doc = _run(["check", "--group", "family:quaternion8",
                      "--criterion", "all"], capsys)
    assert code == 0
    by_id = {r["criterion"]: r for r in doc["report"]["criteria"]}
    assert by_id["tqr1"]["holds"] is False
    assert by_id["tqr1"]["witness"]["labels"] == ["-1"]
    assert by_id["tqr4"]["holds"] is False
    assert doc["version"]


def test_cover_subcommand_affine5(capsys):
    code, doc = _run(["cover", "--group", "family:affine:5", "--v1", "irrep:4",
                      "--v2", "irrep:4", "--v3", "irrep:4", "--profile"], capsys)
    assert code == 0
    rep = doc["report"]
    assert rep["guaranteed"] and rep["covered"]
    assert rep["multiplicity_profile"]["multiplicities"] == [192, 192, 192, 192, 832]


def test_cover_exit_code_on_violation(monkeypatch, capsys):
    from tqrgroups.criteria import CoverReport

    def fake(T, v1, v2):
        return CoverReport("two_factor", [1.0, 1.0], True, False, (0,))
    monkeypatch.setattr(cli, "two_factor_cover", fake)
    code, doc = _run(["cover", "--group", "symmetric:3", "--v1", "all",
                      "--v2", "all"], capsys)
    assert code == 1
    assert doc["report"]["guarantee_violated"]


def test_markov_subcommand(tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    out = tmp_path / "markov.json"
    code = cli.main(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                     "--metric", "tv", "--epsilon", "0.25",
                     "--tmax", "8", "--csv", str(csv), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["report"]["mixing_time"] is not None
    lines = csv.read_text().splitlines()
    assert lines[0] == "t,uniform,tv_max,tv_half_l1"
    assert len(lines) == 10


def test_markov_takes_the_tv_max_metric_by_name(capsys):
    # "tv" is its alias; mixing_time and suites took "tv_max" already
    code, doc = _run(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                      "--metric", "tv_max", "--tmax", "8"], capsys)
    assert code == 0
    assert doc["params"]["metric"] == doc["report"]["metric"] == "tv_max"
    code, alias = _run(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                        "--metric", "tv", "--tmax", "8"], capsys)
    assert alias["report"] == doc["report"]


def test_counterexample_subcommand(capsys):
    code, doc = _run(["counterexample", "--group", "cyclic:12",
                      "--normal", "group", "--m", "2", "--epsilon", "1/4"],
                     capsys)
    assert code == 0
    rep = doc["report"]["construction"]
    assert rep["set_size"] == 3
    assert rep["power_measure_at_most_half"]
    assert doc["report"]["rep"]["mult"]


def test_counterexample_normal_selectors(capsys):
    code, doc = _run(["counterexample", "--group", "quaternion8",
                      "--normal", "order:8", "--m", "3"], capsys)
    assert code == 0
    code2, doc2 = _run(["counterexample", "--group", "quaternion8",
                        "--normal", "center", "--m", "3"], capsys)
    assert code2 == 0
    assert doc2["report"]["normal_order"] == 2


@pytest.mark.parametrize("text", ["cyclic:12", "cyclic:60", "quaternion8", "extraspecial:3",
                                  "product(dihedral(3),cyclic(2))"])
def test_normal_group_is_g_itself_without_the_lattice(text, capsys):
    T = cli._load_table(cli.parse_group_spec(text))
    G = T.group
    N = cli._pick_normal(T, "group")
    assert "kernel_masks" not in vars(T) and "normal_subgroups" not in vars(T)
    assert N == T.normal_subgroups[-1] == cli._pick_normal(T, "index:1")
    assert N.order == G.order
    reports = [_run(["counterexample", "--group", text, "--normal", sel, "--m", "2"],
                    capsys)[1]["report"] for sel in ("group", "index:1")]
    assert reports[0] == reports[1]


@pytest.mark.parametrize("text", ["quaternion8", "dihedral:4", "extraspecial:3",
                                  "extraspecial:7"])
def test_normal_center_is_z_of_g_without_the_lattice(text, capsys):
    T = cli._load_table(cli.parse_group_spec(text))
    G = T.group
    N = cli._pick_normal(T, "center")
    assert "kernel_masks" not in vars(T) and "normal_subgroups" not in vars(T)
    assert N == cli._pick_normal(T, f"order:{N.order}")
    assert N.members == tuple(oracle.all_pairs_center(G, range(G.order)))
    reports = [_run(["counterexample", "--group", text, "--normal", sel, "--m", "2"],
                    capsys)[1]["report"] for sel in ("center", f"order:{N.order}")]
    assert reports[0] == reports[1]


def test_sumset_subcommand(capsys):
    code, doc = _run(["sumset", "--factors", "12", "--set", "0;1;2", "--m", "2"],
                     capsys)
    assert code == 0
    assert doc["report"]["size"] == 5
    code, doc = _run(["sumset", "--set", "0;1", "--m", "3", "--n", "2",
                      "--cover"], capsys)
    assert code == 0
    assert doc["report"]["count"] == 3


def test_chartable_export_import(tmp_path, capsys):
    table = tmp_path / "t.json"
    code = cli.main(["chartable", "--group", "dihedral:4",
                     "--export", str(table), "--out", os.devnull])
    assert code == 0
    code2, doc = _run(["chartable", "--import", str(table)], capsys)
    assert code2 == 0
    assert doc["report"]["source"] == "imported"
    assert doc["report"]["dims"] == [1, 1, 1, 1, 2]


def test_reports_echo_a_cayley_table_as_its_order_and_sha256(tmp_path, capsys):
    # Z_6, alone, as a product factor, and imported from an exported table
    rows = [[(i + j) % 6 for j in range(6)] for i in range(6)]
    cayley = {"type": "cayley", "table": rows, "labels": list("abcdef")}
    echo = {"type": "cayley", "order": 6, "sha256": hashlib.sha256(
        json.dumps(rows, separators=(",", ":")).encode()).hexdigest()}
    alone, product = tmp_path / "z6.json", tmp_path / "z6xz2.json"
    alone.write_text(json.dumps(cayley))
    product.write_text(json.dumps({"family": "product", "params": {
        "left": cayley, "right": {"family": "cyclic", "params": {"n": 2}}}}))
    _, doc = _run(["group", "--group", f"@{alone}"], capsys)
    assert doc["group_spec"] == echo
    _, doc = _run(["group", "--group", f"@{product}"], capsys)
    assert doc["group_spec"] == {"family": "product", "params": {
        "left": echo, "right": {"family": "cyclic", "params": {"n": 2}}}}
    table = tmp_path / "t.json"
    assert cli.main(["chartable", "--group", f"@{alone}", "--export", str(table),
                     "--out", os.devnull]) == 0
    assert json.loads(table.read_text())["group"]["table"] == rows
    _, doc = _run(["chartable", "--import", str(table)], capsys)
    assert doc["group_spec"] == echo


def test_usage_errors(capsys):
    assert cli.main(["check", "--group", "nosuchfamily:3"]) == 2
    assert cli.main(["group", "--group", "affine:6"]) == 2
    assert cli.main(["counterexample", "--group", "symmetric:4",
                     "--normal", "order:99"]) == 2
    assert cli.main(["chartable"]) == 2
    capsys.readouterr()


def test_markov_start_selector(capsys):
    code, doc = _run(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                      "--start", "trivial", "--tmax", "4"], capsys)
    assert code == 0
    assert doc["report"]["start"] == 0
    # from the trivial irrep the first step is deterministic, so t=1 already
    # has all mass on the 2-dim irrep
    assert doc["report"]["curve"][1]["tv_half_l1"] == pytest.approx(1 / 3)


@pytest.mark.parametrize("extra", [["--start", "dim>=99"], ["--tmax", "-1"],
                                   ["--tmax", "100001"], ["--epsilon", "nan"]])
def test_markov_bad_start_tmax_or_epsilon_is_bad_input(extra, tmp_path, capsys):
    csv = tmp_path / "curve.csv"
    code = cli.main(["markov", "--group", "symmetric:3", "--rep", "all",
                     "--csv", str(csv), *extra])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and not csv.exists()
    assert err.startswith("error: ") and err.count("\n") == 1


def test_markov_tmax_above_the_cap_is_refused_before_any_table(monkeypatch, capsys):
    # a curve holds t_max + 1 rows, so the length is refused before the group,
    # its character table or the chain is built
    def unexpected(*args):
        raise AssertionError("built a table for a refused --tmax")

    monkeypatch.setattr(cli, "_load_table", unexpected)
    monkeypatch.setattr(cli, "build_chain", unexpected)
    code = cli.main(["markov", "--group", "symmetric:3", "--rep", "all",
                     "--tmax", "10000000"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: t_max must lie in 0..100000, got 10000000\n"


@pytest.mark.parametrize("epsilon", ["inf", "1e999"])
def test_markov_non_finite_epsilon_is_bad_input(epsilon, capsys):
    # "Infinity" is not JSON: the report must be refused, not written
    code = cli.main(["markov", "--group", "symmetric:3", "--rep", "all",
                     "--epsilon", epsilon, "--experiment", "2"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == "" and err.startswith("error: epsilon must be positive and finite")


def test_reports_never_carry_nan_or_infinity(tmp_path):
    path = tmp_path / "report.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            cli._emit({"report": {"value": bad}}, str(path))
        assert not path.exists()


def test_suite_runs_and_is_deterministic(tmp_path, capsys):
    config = {"experiments": [
        {"id": "q8", "command": "check",
         "args": {"group": "quaternion8", "criterion": "tqr1", "seed": 3}},
        {"id": "cover", "command": "cover",
         "args": {"group": "affine:5", "v1": "irrep:4", "v2": "irrep:4"}},
        {"id": "bad", "command": "group", "args": {"group": "affine:9"}},
        {"id": "walk", "command": "markov",
         "args": {"group": "symmetric:3", "rep": "irrep:2", "tmax": 6,
                  "csv": "walk.csv"}},
    ]}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    outs = []
    for sub in ("one", "two"):
        outdir = tmp_path / sub
        code = cli.main(["suite", "--config", str(cfg), "--outdir", str(outdir)])
        assert code == 0
        capsys.readouterr()
        blobs = {}
        for fn in sorted(os.listdir(outdir)):
            blobs[fn] = (outdir / fn).read_bytes()
        outs.append(blobs)
    assert sorted(outs[0]) == sorted(outs[1])
    for fn in outs[0]:
        assert outs[0][fn] == outs[1][fn], fn
    summary = json.loads((tmp_path / "one" / "summary.json").read_text())
    statuses = {e["id"]: e["status"] for e in summary["experiments"]}
    assert statuses == {"q8": "ok", "cover": "ok", "bad": "error", "walk": "ok"}


@pytest.mark.parametrize("command, args", [
    ("chartable", {"group": "cyclic:2", "export": "../esc.json"}),
    ("chartable", {"group": "cyclic:2", "export": "in/../../esc.json"}),
    ("chartable", {"group": "cyclic:2", "export": "ABS"}),
    ("markov", {"group": "symmetric:3", "rep": "irrep:2", "tmax": 2,
                "csv": "../esc.json"}),
], ids=["parent", "normalised", "absolute", "markov-csv"])
def test_suite_side_files_stay_inside_the_output_directory(command, args, tmp_path,
                                                           capsys):
    args = {k: str(tmp_path / "esc.json") if v == "ABS" else v for k, v in args.items()}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps({"experiments": [
        {"id": "t", "command": command, "args": args},
        {"id": "ok", "command": "chartable",
         "args": {"group": "cyclic:2", "export": "sub/../in.json"}}]}))
    outdir = tmp_path / "o"
    assert cli.main(["suite", "--config", str(cfg), "--outdir", str(outdir)]) == 0
    capsys.readouterr()
    entries = json.loads((outdir / "summary.json").read_text())["experiments"]
    assert [e["status"] for e in entries] == ["error", "ok"]
    assert "outside the suite's output directory" in entries[0]["error"]
    assert not (tmp_path / "esc.json").exists()
    assert sorted(os.listdir(outdir)) == ["in.json", "ok.json", "summary.json"]


def test_command_line_side_files_take_any_path(tmp_path, monkeypatch, capsys):
    (tmp_path / "cwd").mkdir()
    monkeypatch.chdir(tmp_path / "cwd")
    assert cli.main(["chartable", "--group", "cyclic:2", "--export", "../t.json",
                     "--out", os.devnull]) == 0
    assert cli.main(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                     "--tmax", "2", "--csv", str(tmp_path / "c.csv"),
                     "--out", os.devnull]) == 0
    assert (tmp_path / "t.json").exists() and (tmp_path / "c.csv").exists()


@pytest.mark.parametrize("factors, message", [
    ("0", "factors must be >= 1, got [0]"),
    ("-3", "factors must be >= 1, got [-3]"),
    ("20001", "order 20001 exceeds MAX_ORDER=20000")])
def test_sumset_bad_factors_are_bad_input(factors, message, capsys):
    # the order is refused before any element is enumerated
    assert cli.main(["sumset", "--factors", factors, "--set", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("factors, elements, m, shown", [
    ("12", "13", "1", "13"), ("12", "-1", "1", "-1"), ("12", "13", "2", "13"),
    ("2,4", "0,0;1,4", "1", "1,4"), ("2,4", "0,1;-1,0", "1", "-1,0")])
@pytest.mark.parametrize("cover", [False, True])
def test_sumset_elements_outside_the_group_are_bad_input(factors, elements, m,
                                                         shown, cover, capsys):
    argv = ["sumset", "--factors", factors, "--set", elements, "--m", m]
    assert cli.main(argv + ["--cover"] * cover) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: element {shown} is outside the group: need "
                            f"0 <= x_i < d_i for factors [{factors.replace(',', ', ')}]\n")


def test_sumset_lattice_elements_are_unbounded(capsys):
    code, doc = _run(["sumset", "--set", "13;-1", "--m", "1"], capsys)
    assert code == 0
    assert doc["report"]["sumset"] == [[-1], [13]]


@pytest.mark.parametrize("argv, key, want", [
    (["--factors", "12", "--set", "0;1", "--m", "1000000000"],
     "sumset", [[x] for x in range(12)]),
    (["--factors", "12", "--set", "0;1", "--m", "1000000000", "--n", "1000000000",
      "--cover"], "translates", [[x] for x in range(12)]),
    (["--set", "5", "--m", "1000000000000"], "sumset", [[5000000000000]])])
def test_sumset_of_a_huge_m_returns_at_once(argv, key, want, capsys):
    code, doc = _run(["sumset", *argv], capsys)
    assert code == 0
    assert doc["report"][key] == want


def test_sumset_lattice_multiples_up_to_int64_are_exact(capsys):
    code, doc = _run(["sumset", "--set", "4611686018427387903", "--m", "2"], capsys)
    assert code == 0
    assert doc["report"]["sumset"] == [[9223372036854775806]]


@pytest.mark.parametrize("argv, times, top", [
    (["--set", "9223372036854775807", "--m", "2"], 2, 9223372036854775807),
    (["--set", "10000000000000000000", "--m", "1"], 1, 10 ** 19),
    (["--set", "0,-10000000000000000000", "--m", "1"], 1, 10 ** 19),
    (["--set", "0;1152921504606846976", "--m", "2", "--n", "2", "--cover"],
     16, 2 ** 60)])
def test_sumset_lattice_beyond_int64_is_bad_input(argv, times, top, capsys):
    # lattice coordinates are int64: refused, never wrapped
    assert cli.main(["sumset", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: lattice coordinates are int64, and {times} "
                            f"times the coordinate {top} leaves that range\n")


def test_sumset_infers_the_rank_from_the_elements(tmp_path, capsys):
    code, doc = _run(["sumset", "--set", "0,0;1,2", "--m", "2"], capsys)
    assert code == 0
    assert doc["params"]["rank"] == 2
    assert doc["report"]["sumset"] == [[0, 0], [1, 2], [2, 4]]
    assert cli.main(["sumset", "--rank", "2", "--set", "0,0;1,2", "--m", "2"]) == 2
    assert "unrecognized arguments: --rank" in capsys.readouterr().err
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": "sumset", "args": {"set": "0,0;1,2", "rank": 2}}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 2
    assert "'rank' is not an option of tqr sumset" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["group", "--group", "@{tmp}"],
    ["chartable", "--import", "{tmp}"],
    ["suite", "--config", "{tmp}", "--outdir", "{tmp}/out"],
    ["counterexample", "--group", "cyclic:12", "--epsilon", "1/0"]],
    ids=["group-spec-directory", "import-directory", "suite-config-directory",
         "epsilon-zero-denominator"])
def test_unreadable_file_or_zero_denominator_is_bad_input(argv, tmp_path, capsys):
    assert cli.main([a.format(tmp=tmp_path) for a in argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


_GROUP = {"command": "group", "args": {"group": "cyclic:2"}}


@pytest.mark.parametrize("cfg", [
    5, [1], {"experiments": 5}, {"experiments": [1]},
    {"experiments": [_GROUP]},
    {"experiments": [{"id": "a", "command": 5}]},
    {"experiments": [{"id": "a", "command": "group", "args": [1]}]},
    {"experiments": [{"id": 7, **_GROUP}]},
    {"experiments": [{"id": "a", **_GROUP}, {"id": "../x", **_GROUP}]},
    {"experiments": [{"id": "a", **_GROUP}, {"id": "..", **_GROUP}]},
    {"experiments": [{"id": "a", **_GROUP}, {"id": "", **_GROUP}]},
    {"experiments": [{"id": "a", **_GROUP}, {"id": "a", **_GROUP}]},
], ids=str)
def test_malformed_suite_config_is_refused_before_anything_runs(cfg, tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("exp_id, out", [("summary", None), ("x", "x.json"),
                                         ("x", "../out/x.json")])
def test_a_report_at_the_summary_path_is_refused_before_anything_runs(exp_id, out, tmp_path,
                                                                       capsys):
    # the summary, written last, would replace the experiment's report
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"id": exp_id, **_GROUP}]}))
    outdir = tmp_path / "out"
    argv = ["suite", "--config", str(path), "--outdir", str(outdir)]
    assert cli.main(argv + (["--out", str(outdir / out)] if out else [])) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: suite experiment {exp_id!r} would overwrite")
    assert not outdir.exists()


def test_suite_config_without_experiments_runs_nothing(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text("{}")
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "summary.json").read_text())["experiments"] == []


@pytest.mark.parametrize("m", ["0", "-2"])
def test_counterexample_m_below_one_is_bad_input(m, capsys):
    assert cli.main(["counterexample", "--group", "cyclic:12", "--m", m]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: m must be >= 1\n"


def test_overridden_epsilon_too_large_is_bad_input(capsys):
    code = cli.main(["counterexample", "--group", "cyclic:12", "--m", "2",
                     "--epsilon", "1/2"])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_spec_file_missing_parameter_is_bad_input(tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({"family": "cyclic"}))
    assert cli.main(["group", "--group", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'n'" in err


def test_normal_subgroups_above_chartable_cap_is_bad_input(monkeypatch, capsys):
    from tqrgroups import config
    monkeypatch.setattr(config, "TABLE_CELLS", 100)   # S4: 5 classes * 24 = 120
    assert cli.main(["group", "--group", "symmetric:4", "--normal-subgroups"]) == 2
    assert capsys.readouterr().err == (
        "error: order 24 times 5 classes is 120 cells, above TABLE_CELLS=100\n")
    # without the lattice, the group report needs no character table
    code, doc = _run(["group", "--group", "symmetric:4"], capsys)
    assert code == 0 and "normal_subgroup_orders" not in doc["report"]


@pytest.mark.parametrize("spec, order, classes", [
    ("cyclic:2001", 2001, 2001), ("dihedral:1999", 3998, 1001)])
def test_chartable_above_table_cells_is_bad_input(spec, order, classes, capsys):
    # the least abelian and dihedral groups past 2000 * 2000 cells r * |G|
    assert cli.main(["chartable", "--group", spec]) == 2
    assert capsys.readouterr().err == (
        f"error: order {order} times {classes} classes is {order * classes} cells, "
        "above TABLE_CELLS=4000000\n")


def test_a7_qr2_is_sampled_at_the_default_table_gate(capsys):
    # 9 classes * 2520 elements = 22,680 cells: A7's table needs no setting lifted
    code, doc = _run(["check", "--group", "alternating:7", "--criterion", "qr2",
                      "--density", "0.1", "--trials", "50"], capsys)
    assert code in (0, 1)
    assert doc["report"]["criteria"][0]["mode"] == "randomized"


def test_check_evaluates_only_the_requested_criterion(monkeypatch, capsys):
    from tqrgroups import criteria

    def not_requested(*args):
        raise AssertionError("tqr3 evaluated for --criterion tqr2")

    monkeypatch.setattr(criteria, "_tqr3", not_requested)
    code, doc = _run(["check", "--group", "quaternion8", "--criterion", "tqr2"],
                     capsys)
    assert code == 0
    assert [r["criterion"] for r in doc["report"]["criteria"]] == ["tqr2"]


def test_check_params_default_to_criteria_params(capsys):
    from tqrgroups.criteria import CriteriaParams
    _, doc = _run(["check", "--group", "quaternion8", "--criterion", "tqr1"], capsys)
    assert doc["params"] == CriteriaParams().to_json_dict()
    _, doc = _run(["check", "--group", "quaternion8", "--criterion", "tqr1",
                   "--k", "6", "--density", "0.25", "--seed", "9"], capsys)
    assert doc["params"] == CriteriaParams(k=6, density=0.25, seed=9).to_json_dict()


@pytest.mark.parametrize("spec", ["symmetric:13", "cyclic:20001",
                                  "extraspecial:29", "affine:149"])
def test_family_above_max_order_is_refused_before_building(spec, monkeypatch,
                                                           capsys):
    from tqrgroups import config
    monkeypatch.setattr(config, "MAX_ORDER", 20000)
    assert cli.main(["group", "--group", spec]) == 2
    assert "exceeds MAX_ORDER=20000" in capsys.readouterr().err


_BAD_CHECK_OPTIONS = (
    [pytest.param("--density", d, "density must be in (0, 1]", id=d)
     for d in ("0", "-0.5", "1.5", "nan")]
    + [pytest.param(flag, value, message, id=f"{flag[2:]}={value}")
       for flag, value, message in (
           ("--trials", "-5", "trials must be >= 1, got -5"),
           ("--trials", "0", "trials must be >= 1, got 0"),
           ("--power", "0", "power must be >= 1, got 0"),
           ("--exhaustive-cap", "-1", "exhaustive_cap must be >= 0, got -1"),
           ("--k", "-1", "k must be >= 0, got -1"),
           # the samplers seed numpy with the seed plus 2001 to 5001, so
           # -1500 and -5000 would be negative for none or some of them
           ("--seed", "-1", "seed must be >= 0, got -1"),
           ("--seed", "-1500", "seed must be >= 0, got -1500"),
           ("--seed", "-5000", "seed must be >= 0, got -5000"))])


@pytest.mark.parametrize("criterion", ["all", *TQR_CRITERIA, *QR_CRITERIA])
@pytest.mark.parametrize("flag, value, message", _BAD_CHECK_OPTIONS)
def test_density_outside_the_unit_interval_is_bad_input(criterion, flag, value,
                                                        message, capsys):
    assert cli.main(["check", "--group", "quaternion8", "--criterion", criterion,
                     flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.count("\n") == 1


def test_suite_records_a_bad_density_as_an_error(tmp_path, capsys):
    config = {"experiments": [
        {"id": "bad", "command": "check",
         "args": {"group": "quaternion8", "criterion": "tqr2", "density": 1.5}},
        {"id": "q8", "command": "check",
         "args": {"group": "quaternion8", "criterion": "tqr1"}},
    ]}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["suite", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [e["status"] for e in entries] == ["error", "ok"]
    assert entries[0]["error"].startswith("ValueError: density must be in (0, 1]")
    assert not (tmp_path / "bad.json").exists()


def test_chartable_takes_exactly_one_of_group_and_import(tmp_path, capsys):
    # --import used to win silently over --group: S4 reported C3's dims
    c3 = tmp_path / "c3.json"
    assert cli.main(["chartable", "--group", "cyclic:3", "--export", str(c3)]) == 0
    capsys.readouterr()
    for argv in (["--group", "symmetric:4", "--import", str(c3)], []):
        assert cli.main(["chartable", *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: chartable takes exactly one of --group and --import\n"
    # a suite passes its args to the runner, past argparse, and meets the same check
    config = {"experiments": [
        {"id": "both", "command": "chartable",
         "args": {"group": "symmetric:4", "import_path": str(c3)}},
        {"id": "imported", "command": "chartable", "args": {"import_path": str(c3)}},
    ]}
    cfg = tmp_path / "suite.json"
    cfg.write_text(json.dumps(config))
    assert cli.main(["suite", "--config", str(cfg), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [e["status"] for e in entries] == ["error", "ok"]
    assert entries[0]["error"] == \
        "UsageError: chartable takes exactly one of --group and --import"
    assert not (tmp_path / "both.json").exists()
    assert json.loads((tmp_path / "imported.json").read_text())["report"]["dims"] == [1, 1, 1]


# every option of each subcommand but --out (and --import, which --group
# excludes), under the names the suite passes to its runner
_EVERY_OPTION = {
    "group": {"group": "quaternion8", "normal_subgroups": True},
    "chartable": {"group": "symmetric:3", "export": "s3.json"},
    "check": {"group": "quaternion8", "criterion": "tqr1", "k": 4, "density": 0.2,
              "power": 2, "seed": 1, "trials": 5, "exhaustive_cap": 10},
    "cover": {"group": "affine:5", "v1": "irrep:4", "v2": "irrep:4", "v3": "irrep:4",
              "profile": True},
    "markov": {"group": "symmetric:3", "rep": "irrep:2", "metric": "uniform",
               "epsilon": 0.25, "tmax": 6, "start": "irrep:1", "experiment": 2,
               "csv": "walk.csv"},
    "counterexample": {"group": "cyclic:12", "normal": "group", "m": 2, "epsilon": "1/4"},
    "sumset": {"factors": "12", "set": "0;1", "m": 2, "cover": True, "n": 1},
}


@pytest.mark.parametrize("command", sorted(_EVERY_OPTION))
def test_suite_takes_every_option_of_each_command(command, tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": command, "args": _EVERY_OPTION[command]}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [e["status"] for e in entries] == ["ok"]


def test_a_misspelled_suite_argument_is_refused_before_anything_runs(tmp_path, capsys):
    # so is a required option left out or given as other than a string
    path = tmp_path / "suite.json"
    out = tmp_path / "out"
    for command, args, error in [
            ("check", {"group": "cyclic:12", "criterion": "tqr2", "denisty": 0.5},
             "'denisty' is not an option of tqr check"),
            ("group", {}, "'group' is required by tqr group and takes a string"),
            ("group", {"group": 5}, "'group' is required by tqr group and takes a string"),
            ("sumset", {"set": [0, 1]}, "'set' is required by tqr sumset and takes a string")]:
        path.write_text(json.dumps({"experiments": [
            {"id": "q8", "command": "check", "args": {"group": "quaternion8"}},
            {"id": "typo", "command": command, "args": args}]}))
        assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: suite experiment 'typo': {error}\n"
        assert not out.exists()


@pytest.mark.parametrize("value", ["false", 0], ids=["string-false", "zero"])
@pytest.mark.parametrize("command, args, flag", [
    ("group", {"group": "cyclic:6"}, "normal_subgroups"),
    ("cover", {"group": "affine:5", "v1": "irrep:4", "v2": "irrep:4"}, "profile"),
    ("sumset", {"set": "0;1", "m": 3, "n": 2}, "cover"),
])
def test_a_suite_flag_takes_only_true_or_false(command, args, flag, value, tmp_path,
                                               capsys):
    # "false" is truthy: it would switch the flag on, so it is refused
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": command, "args": {**args, flag: value}}]}))
    out = tmp_path / "out"
    assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: suite experiment 'x': {flag!r} is a flag and "
                            f"takes only true or false\n")
    assert not out.exists()
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": command, "args": {**args, flag: False}}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 0
    capsys.readouterr()


def test_an_unknown_suite_command_is_recorded_as_an_error(tmp_path, capsys):
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": "nosuch", "args": {"anything": 1}}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [(e["status"], e["error"]) for e in entries] == [
        ("error", "UsageError: unknown suite command 'nosuch'")]


@pytest.mark.parametrize("spec", [
    {"type": "cayley", "table": 5},
    {"type": "cayley", "table": [[0.5]]},
    {"type": "cayley", "table": [[0, 1], [1, 0]], "labels": ["a"]},
    {"type": "cayley", "table": [[0, 1, 2], [1, 2, 0], [2, 1, 0]]},
    {"type": "permutation", "degree": -1, "generators": []},
    {"type": "permutation", "degree": 3, "generators": 5},
], ids=str)
def test_malformed_group_spec_file_is_bad_input(spec, tmp_path, capsys):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["group", "--group", f"@{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("doc", [
    {}, [1, 2],
    {"group": {"family": "cyclic", "params": {"n": 2}}, "class_sizes": [1, 1],
     "class_reps": [0, 1], "dims": [1, 1], "values": [[1, 1], [1, -1]]},
], ids=["empty", "list", "bare-numbers"])
def test_malformed_interchange_document_is_bad_input(doc, tmp_path, capsys):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["chartable", "--import", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_non_finite_interchange_values_are_bad_input(tmp_path, capsys):
    table = tmp_path / "t.json"
    assert cli.main(["chartable", "--group", "symmetric:3", "--export", str(table),
                     "--out", os.devnull]) == 0
    doc = json.loads(table.read_text())
    doc["values"][1][1][0] = float("nan")   # json writes NaN, and reads it back
    table.write_text(json.dumps(doc))
    assert cli.main(["chartable", "--import", str(table)]) == 2
    assert capsys.readouterr().err == "error: imported values must be finite\n"


def test_huge_interchange_value_is_refused_before_the_orthogonality_products(
        tmp_path, capsys):
    # |chi(g)| <= sqrt(|G|); 1e308 overflowed the products, which printed
    # numpy RuntimeWarnings before the error line
    table = tmp_path / "d4.json"
    assert cli.main(["chartable", "--group", "dihedral:4", "--export", str(table),
                     "--out", os.devnull]) == 0
    doc = json.loads(table.read_text())
    doc["values"][1][1][0] = 1e308
    table.write_text(json.dumps(doc))
    assert cli.main(["chartable", "--import", str(table)]) == 2
    assert capsys.readouterr().err == \
        "error: imported value exceeds sqrt(|G|), the bound on a character\n"


_SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def _python(args, **env):
    """A fresh interpreter on this checkout's src/, with extra environment."""
    path = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **env, "PYTHONPATH": path}, timeout=120)


def test_the_tolerance_is_not_read_from_the_environment():
    # at 0.4, decompose would round a residual of 0.39 to an integer; the
    # size caps are constants too, so cyclic:30 is built and its table computed
    probe = ("from tqrgroups import build_group, compute_char_table, config; "
             "T = compute_char_table(build_group({'family': 'cyclic', 'params': {'n': 30}})); "
             "print(config.TOL, T.num_irreps)")
    done = _python(["-c", probe], TQR_TOL="0.4", TQR_MAX_ORDER="20",
                   TQR_CHARTABLE_CAP="10")
    assert done.returncode == 0 and done.stdout == "1e-08 30\n"


_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_PROBE = f"""
import json, os, sys
from tqrgroups.__main__ import main
numpy_before = "numpy" in sys.modules
main(["group", "--group", "cyclic:3"])
print(json.dumps({{"numpy_before": numpy_before,
                  **{{v: os.environ.get(v) for v in {_BLAS_VARS!r}}}}}))
"""


@pytest.mark.parametrize("given, want", [
    ({}, ["1", "1", "1"]),
    ({"OPENBLAS_NUM_THREADS": "2"}, ["2", "1", "1"])])
def test_entry_point_pins_blas_to_one_thread_unless_set(given, want, monkeypatch):
    for var in _BLAS_VARS:
        monkeypatch.delenv(var, raising=False)
    done = _python(["-c", _BLAS_PROBE], **given)
    assert done.returncode == 0, done.stderr
    seen = json.loads(done.stdout.splitlines()[-1])
    assert seen["numpy_before"] is False   # set before numpy reads them
    assert [seen[v] for v in _BLAS_VARS] == want


_RANDOM_PROBE = """
import contextlib, io, sys
from tqrgroups.__main__ import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv, loaded", [
    (["suite", "--config", os.path.join(os.path.dirname(__file__), os.pardir, "suites",
                                        "acceptance.json")], False),
    (["chartable", "--group", "symmetric:6"], False),
    (["group", "--group", "extraspecial:7", "--normal-subgroups"], False),
    # extraspecial:5 at 0.5 reaches the sampler, criteria._random_stacks
    (["check", "--group", "extraspecial:5", "--criterion", "tqr2", "--density", "0.5"],
     True)], ids=["suite", "chartable-s6", "group-es7", "check-es5-sampled"])
def test_only_a_sampling_command_loads_numpy_random(argv, loaded, tmp_path):
    # the eigen solve draws its recombination from the standard library's
    # random.Random, so a table alone does not import numpy.random (6 MB)
    if argv[0] == "suite":
        argv = [*argv, "--outdir", str(tmp_path / "suite")]
    done = _python(["-c", _RANDOM_PROBE, *argv])
    assert done.returncode == 0, done.stderr
    assert done.stdout == f"0 {loaded}\n"


def test_main_builds_the_parser_once(monkeypatch, capsys):
    built, build = [], cli._build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_build_parser", counting)
    for _ in range(3):
        assert _run(["group", "--group", "cyclic:3"], capsys)[0] == 0
    assert cli.main(["check", "--group", "nosuch:3"]) == 2
    assert len(built) == 1


@pytest.mark.parametrize("flagged, plain", [
    (["group", "--group", "quaternion8", "--normal-subgroups"],
     ["group", "--group", "quaternion8"]),
    (["cover", "--group", "affine:5", "--v1", "all", "--v2", "all", "--v3", "all",
      "--profile"],
     ["cover", "--group", "affine:5", "--v1", "all", "--v2", "all", "--v3", "all"])])
def test_a_flag_does_not_leak_into_the_next_command(flagged, plain, monkeypatch, capsys):
    monkeypatch.setattr(cli, "_PARSER", [None, None])
    want = _run(plain, capsys)
    assert _run(flagged, capsys) != want
    assert _run(plain, capsys) == want


def test_permutation_degree_above_max_order_is_refused_before_allocating(
        tmp_path, monkeypatch, capsys):
    # a spec of a few bytes once asked np.arange for 8 bytes per point; every
    # group of order <= MAX_ORDER acts faithfully on that many points
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"type": "permutation", "degree": 10 ** 9,
                                "generators": []}))
    tracemalloc.start()
    try:
        code = cli.main(["group", "--group", f"@{path}"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2 and peak < 1 << 20, peak
    assert "exceeds MAX_ORDER" in capsys.readouterr().err
    from tqrgroups import config
    monkeypatch.setattr(config, "MAX_ORDER", 50)
    for degree, want in ((50, 0), (51, 2)):
        path.write_text(json.dumps({"type": "permutation", "degree": degree,
                                    "generators": [[*range(1, degree), 0]]}))
        assert cli.main(["group", "--group", f"@{path}"]) == want
    capsys.readouterr()


@pytest.mark.parametrize("command, key, value", [
    ("check", "power", 2.5), ("check", "seed", True), ("check", "trials", 1.5),
    ("check", "exhaustive_cap", False), ("check", "k", 4.2), ("markov", "tmax", 3.9),
    ("markov", "experiment", True), ("counterexample", "m", 2.7), ("sumset", "m", True),
    ("sumset", "n", 2.5)])
def test_suite_records_a_non_integral_integer_option_as_an_error(command, key, value,
                                                                  tmp_path, capsys):
    # each ran with status ok and echoed the truncated value; on the command
    # line, argparse refuses --power 2.5 with exit code 2
    args = {**_EVERY_OPTION[command], key: value}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"id": "x", "command": command, "args": args}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [(e["status"], e["error"]) for e in entries] == [
        ("error", f"UsageError: {key} must be an integer, not {value!r}")]
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("command, key, value", [
    ("check", "density", True), ("markov", "epsilon", True), ("markov", "epsilon", False)])
def test_suite_records_a_bool_float_option_as_an_error(command, key, value, tmp_path, capsys):
    # "density": true ran at 1.0 with status ok, as "power": true is refused
    args = {**_EVERY_OPTION[command], key: value}
    path = tmp_path / "suite.json"
    path.write_text(json.dumps({"experiments": [{"id": "x", "command": command, "args": args}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(tmp_path)]) == 0
    capsys.readouterr()
    entries = json.loads((tmp_path / "summary.json").read_text())["experiments"]
    assert [(e["status"], e["error"]) for e in entries] == [
        ("error", f"UsageError: {key} must be a number, not {value!r}")]
    assert not (tmp_path / "x.json").exists()


# each command with its required options only (chartable needs one of --group
# and --import), under the names the suite passes to its runner
_REQUIRED_ONLY = {
    "group": {"group": "quaternion8"},
    "chartable": {"group": "symmetric:3"},
    "check": {"group": "quaternion8"},
    "cover": {"group": "affine:5", "v1": "irrep:4", "v2": "irrep:4"},
    "markov": {"group": "symmetric:3", "rep": "irrep:2"},
    "counterexample": {"group": "cyclic:12"},
    "sumset": {"set": "0;1;2"},
}


def _suite_reports(experiments, tmp_path, capsys) -> dict:
    """Run `experiments` ({id: (command, args)}) as one suite and return each
    report's bytes by id, or its error for an experiment that did not run."""
    path, out = tmp_path / "suite.json", tmp_path / "suite-out"
    path.write_text(json.dumps({"experiments": [
        {"id": exp_id, "command": command, "args": args}
        for exp_id, (command, args) in experiments.items()]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 0
    capsys.readouterr()
    entries = json.loads((out / "summary.json").read_text())["experiments"]
    return {e["id"]: (out / e["path"]).read_bytes() if e["status"] == "ok" else e["error"]
            for e in entries}


@pytest.mark.parametrize("command", sorted(_REQUIRED_ONLY))
def test_a_suite_experiment_writes_the_command_line_report(command, tmp_path, capsys):
    args = _REQUIRED_ONLY[command]
    argv = [command]
    for key, value in args.items():
        argv += [f"--{key}", value]
    assert cli.main([*argv, "--out", str(tmp_path / "cli.json")]) == 0
    reports = _suite_reports({"x": (command, args)}, tmp_path, capsys)
    assert reports == {"x": (tmp_path / "cli.json").read_bytes()}


@pytest.mark.parametrize("command", sorted(_REQUIRED_ONLY))
def test_a_null_suite_option_is_the_option_left_out(command, tmp_path, capsys):
    # "normal", "metric" and "criterion" given as null were errors, not defaults;
    # out is not a suite option (a suite writes <outdir>/<id>.json)
    base = _REQUIRED_ONLY[command]
    sub, = (a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction))
    nulls = [a.dest for a in sub.choices[command]._actions
             if a.nargs != 0 and a.dest not in (*base, "out")]
    reports = _suite_reports({"base": (command, base),
                              **{key: (command, {**base, key: None}) for key in nulls}},
                             tmp_path, capsys)
    assert isinstance(reports["base"], bytes)
    assert {key: reports[key] for key in nulls} == dict.fromkeys(nulls, reports["base"])


@pytest.mark.parametrize("value", ["0", "-1"])
def test_a_markov_experiment_below_one_is_refused_up_front(value, tmp_path, capsys):
    # it exited 2 only after the table, the chain and the walk, with "t must be
    # non-negative" or "tensor power must be >= 1"; an unbuildable group shows
    # that nothing is built before the refusal
    message = f"--experiment must be at least 1, got {value}"
    for group in ("cyclic:6", "nosuch:6"):
        assert cli.main(["markov", "--group", group, "--rep", "irrep:1",
                         "--experiment", value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
    reports = _suite_reports(
        {"x": ("markov", {"group": "cyclic:6", "rep": "irrep:1", "experiment": int(value)})},
        tmp_path, capsys)
    assert reports == {"x": f"UsageError: {message}"}


def test_a_suite_value_outside_the_choices_is_refused_before_anything_is_built(
        tmp_path, capsys):
    # a metric outside the parser's choices was a ValueError of mixing_time,
    # raised after the table and the chain were built
    reports = _suite_reports({
        "c": ("check", {"group": "nosuch:6", "criterion": "qr9"}),
        "m": ("markov", {"group": "nosuch:6", "rep": "irrep:1", "metric": "l2"})},
        tmp_path, capsys)
    assert reports == {"c": "UsageError: unknown criterion 'qr9'",
                       "m": "UsageError: unknown metric 'l2'"}


def test_a_suite_string_option_reads_a_number_as_its_text(tmp_path, capsys):
    # "normal": 5 and "start": 1 reached .strip() after the table was built,
    # as AttributeError: 'int' object has no attribute 'strip'; a bool, list
    # or object is refused, and a number keeps the report of its text
    counter, walk = _REQUIRED_ONLY["counterexample"], _REQUIRED_ONLY["markov"]
    reports = _suite_reports({
        "normal-5": ("counterexample", {**counter, "normal": 5}),
        "normal-true": ("counterexample", {**counter, "normal": True}),
        "normal-list": ("counterexample", {**counter, "normal": ["group"]}),
        "start-1": ("markov", {**walk, "start": 1}),
        "v3-object": ("cover", {**_REQUIRED_ONLY["cover"], "v3": {"irrep": 4}}),
        "epsilon-number": ("counterexample", {**counter, "epsilon": 0.1}),
        "epsilon-text": ("counterexample", {**counter, "epsilon": "0.1"}),
        "factors-number": ("sumset", {"factors": 12, "set": "0;1"}),
        "factors-text": ("sumset", {"factors": "12", "set": "0;1"})}, tmp_path, capsys)
    assert cli.main(["counterexample", "--group", "cyclic:12", "--normal", "5"]) == 2
    assert cli.main(["markov", "--group", "symmetric:3", "--rep", "irrep:2",
                     "--start", "1"]) == 2
    errors = capsys.readouterr().err.splitlines()
    assert [reports[key].split(": ", 1)[1] for key in ("normal-5", "start-1")] == [
        line.removeprefix("error: ") for line in errors]
    assert reports["normal-true"] == "UsageError: normal must be a string, not True"
    assert reports["normal-list"] == "UsageError: normal must be a string, not ['group']"
    assert reports["v3-object"] == "UsageError: v3 must be a string, not {'irrep': 4}"
    assert reports["epsilon-number"] == reports["epsilon-text"]
    assert reports["factors-number"] == reports["factors-text"]
    assert isinstance(reports["epsilon-text"], bytes) and isinstance(reports["factors-text"], bytes)


def test_a_suite_experiment_out_is_refused_before_anything_runs(tmp_path, capsys):
    # it was accepted and ignored: only <id>.json was written
    path, out = tmp_path / "suite.json", tmp_path / "out"
    path.write_text(json.dumps({"experiments": [
        {"id": "x", "command": "group", "args": {"group": "cyclic:6", "out": "elsewhere.json"}}]}))
    assert cli.main(["suite", "--config", str(path), "--outdir", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: suite experiment 'x': 'out' is not an option of tqr group\n"
    assert not out.exists()


def test_tqr_group_builds_one_group_table(monkeypatch, capsys):
    # the center and the quotient chain's orders are read off the upper central
    # series in G's own table; each quotient G, G/Z, G/Z_2 was a table of its own
    built = []
    post_init = groups.GroupTable.__post_init__

    def counted(self):
        built.append(self.order)
        post_init(self)

    monkeypatch.setattr(groups.GroupTable, "__post_init__", counted)
    assert cli.main(["group", "--group", "extraspecial:13", "--normal-subgroups"]) == 0
    report = json.loads(capsys.readouterr().out)["report"]
    assert built == [2197]
    assert (report["center_order"], report["quotient_chain_orders"]) == (13, [2197, 169, 1])


def _nested_product(depth, family="cyclic"):
    """The JSON text of a product nested `depth` deep, written out by hand:
    json.dumps would itself recurse once per level."""
    inner = json.dumps({"family": family, "params": {"n": 2}})
    return ('{"family": "product", "params": {"left": ' * depth + inner
            + ', "right": {"family": "cyclic", "params": {"n": 1}}}}' * depth)


def _route(route, spec_text, tmp_path, capsys):
    """argv handing a group spec's JSON text to the CLI by `route`: an @file
    spec, or the group of an imported interchange document."""
    if route == "file":
        path = tmp_path / "spec.json"
        path.write_text(spec_text)
        return ["group", "--group", f"@{path}"]
    c2 = tmp_path / "c2.json"
    assert cli.main(["chartable", "--group", "cyclic:2", "--export", str(c2)]) == 0
    capsys.readouterr()
    rest = json.dumps({k: v for k, v in json.loads(c2.read_text()).items() if k != "group"})
    doc = tmp_path / "doc.json"
    doc.write_text('{"group": ' + spec_text + ", " + rest[1:])
    return ["chartable", "--import", str(doc)]


def _assert_bad_input(argv, capsys):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("family", [{}, ["cyclic"], 3, None], ids=str)
@pytest.mark.parametrize("route", ["file", "product", "import"])
def test_a_family_that_is_not_a_string_is_bad_input(family, route, tmp_path, capsys):
    # `family not in _FAMILIES` raised TypeError: unhashable type for a dict
    # or a list, and the CLI exited 1 with a traceback
    spec = {"family": family, "params": {"n": 3}}
    if route == "product":
        spec = {"family": "product", "params": {"left": {"family": "cyclic", "params": {"n": 2}},
                                                "right": spec}}
    _assert_bad_input(_route("import" if route == "import" else "file", json.dumps(spec),
                             tmp_path, capsys), capsys)


@pytest.mark.parametrize("route", ["compact", "file", "import"])
def test_a_product_nested_1200_deep_is_bad_input(route, tmp_path, capsys):
    # the compact parser and json recursed into RecursionError, exit 1 with a
    # traceback; the product has order 2, and only its nesting is refused
    if route == "compact":
        argv = ["group", "--group", "product(" * 1200 + "cyclic(2)" + ",cyclic(1))" * 1200]
    else:
        argv = _route(route, _nested_product(1200), tmp_path, capsys)
    _assert_bad_input(argv, capsys)


@pytest.mark.parametrize("route", ["compact", "file", "import"])
def test_products_nest_at_most_64_deep(route, tmp_path, capsys):
    # a product 64 deep builds and reports; build_group refuses one 65 deep
    # with the same message whatever the stack above it, where a few hundred
    # levels used to overflow it while the report was written
    for depth in (64, 65):
        if route == "compact":
            argv = ["group", "--group", "product(" * depth + "cyclic(2)" + ",cyclic(1))" * depth]
        else:
            argv = _route(route, _nested_product(depth), tmp_path, capsys)
        if depth == 64:
            assert _run(argv, capsys)[0] == 0
        else:
            _assert_bad_input(argv, capsys)
            assert cli.main(argv) == 2
            assert "products nest more than 64 deep" in capsys.readouterr().err
