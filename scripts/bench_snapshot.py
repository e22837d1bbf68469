#!/usr/bin/env python3
"""A performance snapshot for BENCH_<pr>.json: the benchmark and a ladder of
slow commands.

    python3 scripts/bench_snapshot.py --pr N --label NAME [--checkout DIR]

Measures the checkout DIR (by default the one this script is in):
- runs its bench/run.py once per workload at seed 3001 and --seconds 30, with
  the trace off and on, and keeps the metrics and provenance of each result
  file that run.py leaves in DIR/.bench_out/;
- runs each LADDER command in its own child interpreter on DIR/src, and keeps
  its wall time, CPU time, peak RSS, exit code and the sha256 of its standard
  output. The peak RSS is the child's own ru_maxrss, read with os.wait4:
  RUSAGE_CHILDREN holds only the largest over all children.

The snapshot is stored under NAME in BENCH_<pr>.json at the root of the
repository this script is in, beside the snapshots of other names already
there, so that one file holds a change and its parent: run the script once
with --checkout on a copy of the parent and once on the change. It then names
each ladder command whose standard output differs, by sha256, from that of the
same command in another snapshot of the file, and names none when all match.
Standard library only.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("suite", "structure", "irreps")
SEED = 3001
SECONDS = 30
TIMEOUT_S = 300

# Commands outside the benchmark's workloads that take 0.1 s to seconds or
# hundreds of MB; about 7 s in all on a 2-CPU x86-64 box.
LADDER = (
    ("check-tqr4-affine43", ("check", "--group", "affine:43", "--criterion", "tqr4")),
    ("check-qr2-a6-0.2", ("check", "--group", "alternating:6", "--criterion", "qr2",
                          "--density", "0.2")),
    ("check-qr2-a7-0.1", ("check", "--group", "alternating:7", "--criterion", "qr2",
                          "--density", "0.1")),
    ("check-qr2-c2000-0.6", ("check", "--group", "cyclic:2000", "--criterion", "qr2",
                             "--density", "0.6")),
    ("check-tqr2-d151-0.15", ("check", "--group", "dihedral:151", "--criterion", "tqr2",
                              "--density", "0.15")),
    ("check-tqr2-d30-0.5", ("check", "--group", "dihedral:30", "--criterion", "tqr2",
                            "--density", "0.5")),
    ("check-tqr2-d60-0.5", ("check", "--group", "dihedral:60", "--criterion", "tqr2",
                            "--density", "0.5")),
    ("check-tqr2-c2000-0.6", ("check", "--group", "cyclic:2000", "--criterion", "tqr2",
                              "--density", "0.6")),
    ("check-all-es7-0.3", ("check", "--group", "extraspecial:7", "--criterion", "all",
                           "--density", "0.3")),
    ("check-all-a5xa4", ("check", "--group", "product(alternating(5),alternating(4))",
                         "--criterion", "all")),
    ("chartable-s5xs5", ("chartable", "--group", "product(symmetric(5),symmetric(5))")),
    ("group-normal-s7", ("group", "--group", "symmetric:7", "--normal-subgroups")),
    ("markov-c120-100000", ("markov", "--group", "cyclic:120", "--rep", "irrep:1",
                            "--tmax", "100000")),
)


def bench(checkout: Path) -> tuple[dict, dict]:
    """The provenance of the checkout's bench runs, and per workload and trace
    setting the verdict, metrics and sample counts of its result file."""
    provenance, runs = {}, {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            result = checkout / ".bench_out" / f"result-{workload}-seed{SEED}-trace{trace}.json"
            result.unlink(missing_ok=True)
            subprocess.run([sys.executable, "bench/run.py", "--workload", workload,
                            "--seed", str(SEED), "--seconds", str(SECONDS),
                            "--trace", str(trace)],
                           cwd=checkout, stdout=subprocess.DEVNULL, check=True,
                           timeout=30 * TIMEOUT_S)
            detail = json.loads(result.read_text())
            provenance = {k: v for k, v in detail["provenance"].items()
                          if k not in ("workload", "trace")}
            runs.setdefault(workload, {})[f"trace{trace}"] = {
                "correct": detail["correct"], "attempted": detail["attempted"],
                "failed": detail["failed"],
                "metrics": {k: m["value"] for k, m in detail["metrics"].items()},
                "samples": detail["samples"]}
    return provenance, runs


def time_command(checkout: Path, argv, cwd: Path) -> dict:
    """Run `tqr argv` from the checkout's sources in a child interpreter in
    `cwd`, its standard output to a file there, and measure it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(checkout / "src"), env.get("PYTHONPATH")) if p)
    stdout = Path(cwd) / "stdout.txt"
    with open(stdout, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tqrgroups", *argv], cwd=cwd,
                                env=env, stdout=fh)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)   # reaped here, not by Popen
    text = stdout.read_bytes()
    stdout.unlink()
    return {"argv": list(argv), "exit_code": proc.returncode, "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_mb": usage.ru_maxrss / 1024, "stdout_bytes": len(text),
            "stdout_sha256": hashlib.sha256(text).hexdigest()}


def ladder(checkout: Path, commands, cwd: Path) -> list[dict]:
    """time_command of each (name, argv) in `commands`, in order."""
    return [{"name": name, **time_command(checkout, argv, cwd)} for name, argv in commands]


def stdout_differences(others, snapshot) -> list[tuple[str, str]]:
    """(command, label) of each ladder command of `snapshot` whose
    stdout_sha256 differs from that of the same command in the snapshot of
    that label among `others`."""
    found = []
    for other in others:
        theirs = {step["name"]: step["stdout_sha256"] for step in other["ladder"]}
        found += [(step["name"], other["label"]) for step in snapshot["ladder"]
                  if theirs.get(step["name"], step["stdout_sha256"]) != step["stdout_sha256"]]
    return found


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--label", required=True, help="the name this snapshot is stored under")
    ap.add_argument("--checkout", type=Path, default=ROOT,
                    help="the checkout to measure (default: this one)")
    args = ap.parse_args(argv)
    checkout = args.checkout.resolve()
    provenance, runs = bench(checkout)
    with tempfile.TemporaryDirectory() as tmp:
        steps = ladder(checkout, LADDER, Path(tmp))
    snapshot = {"label": args.label, "commit": provenance["git_commit"],
                "nproc": provenance["nproc"], "provenance": provenance,
                "bench": {"seed": SEED, "seconds": SECONDS, **runs}, "ladder": steps}
    path = ROOT / f"BENCH_{args.pr}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"pr": args.pr, "snapshots": []}
    others = [s for s in doc["snapshots"] if s["label"] != args.label]
    doc["snapshots"] = others + [snapshot]
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"{path}: {args.label} at {snapshot['commit']}")
    for step in steps:
        print(f"  {step['name']:24s} {step['wall_s']:8.3f} s {step['maxrss_mb']:8.1f} MB "
              f"exit {step['exit_code']}")
    for name, label in stdout_differences(others, snapshot):
        print(f"  {name}: stdout differs from {label}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
