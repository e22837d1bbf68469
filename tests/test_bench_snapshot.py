import hashlib
import importlib.util
from pathlib import Path

from tqrgroups import cli

ROOT = Path(__file__).resolve().parents[1]


def _snapshot_module():
    path = ROOT / "scripts" / "bench_snapshot.py"
    spec = importlib.util.spec_from_file_location("bench_snapshot", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_one_command_ladder_records_each_field(tmp_path, capsys):
    # the ladder alone, in a child interpreter; the benchmark is not run
    snapshot = _snapshot_module()
    argv = ("group", "--group", "quaternion8")
    step, = snapshot.ladder(ROOT, [("group-q8", argv)], tmp_path)
    assert cli.main(list(argv)) == 0
    out = capsys.readouterr().out.encode()
    assert step == {"name": "group-q8", "argv": list(argv), "exit_code": 0,
                    "wall_s": step["wall_s"], "cpu_s": step["cpu_s"],
                    "maxrss_mb": step["maxrss_mb"], "stdout_bytes": len(out),
                    "stdout_sha256": hashlib.sha256(out).hexdigest()}
    assert step["wall_s"] > 0 and step["cpu_s"] > 0 and step["maxrss_mb"] > 10
    assert list(tmp_path.iterdir()) == []


def test_a_failed_ladder_command_keeps_its_exit_code(tmp_path):
    step, = _snapshot_module().ladder(ROOT, [("bad", ("group", "--group", "nosuch:3"))],
                                      tmp_path)
    assert step["exit_code"] == 2 and step["stdout_bytes"] == 0


def test_the_ladder_names_are_distinct_and_every_command_parses():
    ladder = _snapshot_module().LADDER
    assert len({name for name, _ in ladder}) == len(ladder)
    for _, argv in ladder:
        cli._parser().parse_args(list(argv))


def test_a_two_label_file_names_the_ladder_commands_whose_stdout_differs():
    snapshot = _snapshot_module()

    def labelled(label, digests):
        return {"label": label, "ladder": [{"name": name, "stdout_sha256": digest}
                                           for name, digest in digests.items()]}

    parent = labelled("parent", {"a": "0" * 64, "b": "1" * 64, "c": "2" * 64})
    same = labelled("change", {"a": "0" * 64, "b": "1" * 64, "c": "2" * 64})
    assert snapshot.stdout_differences([parent], same) == []
    # a command the other snapshot did not run is not a difference
    changed = labelled("change", {"a": "0" * 64, "b": "f" * 64, "c": "e" * 64, "d": "3" * 64})
    assert snapshot.stdout_differences([parent], changed) == [("b", "parent"), ("c", "parent")]
    assert snapshot.stdout_differences([], changed) == []
