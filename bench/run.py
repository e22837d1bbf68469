#!/usr/bin/env python3
"""Benchmark for tqrgroups: closed-loop `tqr` command mixes, checked outputs.

    python3 bench/run.py --workload suite|structure|irreps|all \
        [--seed N] [--seconds S] [--trace 0|1]

One client sends a workload's commands through `tqrgroups.cli.main`, in this
process, issuing the next when the previous returns. Every outcome is checked
(see checker.py); a command that raises, exits with another code than 0 or
fails a check counts as failed and the run goes on.

--trace 0 reports the end-to-end metrics; --trace 1 alternates untraced and
traced passes and reports the per-layer metrics with the tracing overhead.
The last line of standard output is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A result file with provenance and sample
counts, and for traced runs the spans as JSON lines, go to .bench_out/.
`--workload all` runs each workload in its own process and prints every
metric with its unit, its sample count and the layer predictions.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import glob
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

# Single-threaded BLAS for the benchmark and its child interpreters. The
# program's matrices are at most 120 x 120; on a shared 2-CPU machine a second
# BLAS thread made one 120 x 120 eigensolve take anywhere from 0.2 s to 1.1 s
# and doubled the CPU time it was charged. An explicit setting is kept.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_STARTS = 9
PROBE_ROUNDS = 4
PROBE_KEYS = 10_000
PROBE_REF_S = 0.01
SETUP_CODE = "import tqrgroups.cli as cli; cli._build_parser()"

import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "cmd_p50_s": "s", "cmd_tail_s": "s",
             "peak_rss_mb": "MB"}


@dataclass
class Outcome:
    cmd: object
    code: int | None
    stdout: str
    error: str | None
    latency: float      # seconds, as measured
    scaled: float       # seconds at the reference speed (see probe)


# ---------------------------------------------------------------------------
# Measurements


def probe() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's current speed.

    On a shared 2-CPU virtual machine the same work ran 1.5 to 1.9 times
    slower for tens of seconds to minutes at a time, so runs of the same code
    differed by up to a third. Every timing is therefore also reported scaled
    by PROBE_REF_S over the mean of the probes taken just before and just
    after it: seconds on a machine where the probe takes PROBE_REF_S. The
    probe runs between commands, never inside them, with the collector off so
    that the program's heap does not change its time.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(PROBE_ROUNDS):
            table = {}
            for i in range(PROBE_KEYS):
                table[(i, i & 7)] = i * 3 % 11
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def scale(seconds: float, before: float, after: float) -> float:
    return seconds * 2 * PROBE_REF_S / (before + after)


def child_env() -> dict:
    """The environment of a set-up start: the sources under src/ first, and
    bytecode caching on, as an installed package has it."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def measure_setup() -> tuple[list[float], list[float]]:
    """Wall times, as measured and scaled, of fresh interpreters that import
    tqrgroups and build the CLI parser, after one untimed start that fills
    the bytecode cache.

    The wait blocks in waitpid; a wait with a timeout polls in steps of up to
    50 ms, which would show in the times. A timer kills a hung child instead.
    """
    times, scaled = [], []
    before = probe()
    for i in range(SETUP_STARTS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                                env=child_env(), stdout=subprocess.DEVNULL)
        timer = threading.Timer(60, proc.kill)
        timer.start()
        try:
            code = proc.wait()
        finally:
            timer.cancel()
        elapsed = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"set-up interpreter exited with code {code}")
        after = probe()
        if i:
            times.append(elapsed)
            scaled.append(scale(elapsed, before, after))
        before = after
    return times, scaled


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with at least ten samples above it, and its rank;
    the maximum when there are too few samples for that."""
    xs = sorted(samples)
    if len(xs) < 11:
        return xs[-1], 100
    k = len(xs) - 11
    return xs[k], 100 * (k + 1) // len(xs)


def run_pass(cli, cmds, tracer=None) -> list[Outcome]:
    """Send the commands one after another, each when the previous returns."""
    outcomes = []
    before = probe()
    for i, cmd in enumerate(cmds):
        out, err = io.StringIO(), io.StringIO()
        error = None
        code = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                if tracer is None:
                    code = cli.main(list(cmd.argv))
                else:
                    with tracer.command(i):
                        code = cli.main(list(cmd.argv))
        except Exception as exc:  # a leaked exception is a failed command
            error = f"{type(exc).__name__}: {exc}"
        latency = time.perf_counter() - t0
        after = probe()
        outcomes.append(Outcome(cmd, code, out.getvalue(), error, latency,
                                scale(latency, before, after)))
        before = after
    return outcomes


# ---------------------------------------------------------------------------
# Provenance


def blas_threads():
    import ctypes
    import numpy
    libdir = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(args) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__, "blas_threads": blas_threads(),
            "git_commit": git_commit(), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace}


# ---------------------------------------------------------------------------
# One workload


def run_workload(args) -> int:
    if not (ROOT / "src" / "tqrgroups" / "__init__.py").is_file() or \
            not (ROOT / "suites" / "acceptance.json").is_file():
        print(f"error: no tqrgroups sources or suites under {ROOT}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    setup, setup_scaled = measure_setup()

    from checker import Checker
    from tqrgroups import cli
    if Path(cli.__file__).resolve().parent != ROOT / "src" / "tqrgroups":
        print(f"error: imported tqrgroups from {cli.__file__}", file=sys.stderr)
        return 2

    reference = json.loads((BENCH / "reference.json").read_text())
    checker = Checker(reference)
    workload = Workload(args.workload, args.seed)
    n_passes = workload.passes(args.seconds)
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    walls = {False: [], True: []}       # scaled, untraced and traced passes
    latencies, problems, per_pass, spans = [], [], [], []
    raw_walls, raw_latencies = [], []
    by_command: dict[str, list[float]] = {}
    attempted = failed = 0
    try:
        os.chdir(workdir)
        for p in range(n_passes):
            cmds = workload.pass_commands(p, p // 2 if args.trace else p)
            for cmd in cmds:
                if cmd.kind == "suite":
                    shutil.rmtree(cmd.info["outdir"], ignore_errors=True)
            gc.collect()
            traced = bool(args.trace) and p % 2 == 1
            if traced:
                tracer = tracing.Tracer()
                with tracing.installed(tracer):
                    outcomes = run_pass(cli, cmds, tracer)
                stdout_bytes = sum(len(o.stdout.encode()) for o in outcomes)
                per_pass.append(tracing.pass_metrics(tracer, stdout_bytes))
                spans.append(tracer.spans)
            else:
                outcomes = run_pass(cli, cmds)
                latencies += [o.scaled for o in outcomes]
                raw_latencies += [o.latency for o in outcomes]
                raw_walls.append(sum(o.latency for o in outcomes))
                for o in outcomes:
                    by_command.setdefault(o.cmd.key, []).append(o.latency)
            walls[traced].append(sum(o.scaled for o in outcomes))
            for o in outcomes:
                attempted += 1
                found = checker.check(o.cmd, o.code, o.stdout, o.error)
                failed += bool(found)
                problems += [f"pass {p}: {msg}" for msg in found]
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)

    measured = {}
    if args.trace:
        metrics = tracing.combine(per_pass)
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        units = tracing.UNITS
        samples = {k: len(per_pass) for k in metrics}
        write_spans(args, spans)
    else:
        tail_s, tail_pct = tail(latencies)
        measured = {"setup_s": statistics.median(setup),
                    "wall_s": statistics.median(raw_walls),
                    "cmd_p50_s": statistics.median(raw_latencies),
                    "cmd_tail_s": tail(raw_latencies)[0]}
        metrics = {"setup_s": statistics.median(setup_scaled),
                   "wall_s": statistics.median(walls[False]),
                   "cmd_p50_s": statistics.median(latencies),
                   "cmd_tail_s": tail_s,
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = E2E_UNITS
        samples = {"setup_s": len(setup), "wall_s": len(walls[False]),
                   "cmd_p50_s": len(latencies), "cmd_tail_s": len(latencies),
                   "peak_rss_mb": 1}
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    detail = {"provenance": provenance(args), **result, "samples": samples,
              "failed_frac": failed / attempted, "problems": problems,
              "probe_ref_s": PROBE_REF_S, "as_measured": measured,
              "pass_walls_s": walls[False], "traced_pass_walls_s": walls[True],
              "setup_starts_s": setup, "setup_starts_scaled_s": setup_scaled,
              "command_latencies_s": by_command}
    if not args.trace:
        detail["cmd_tail_percentile"] = tail_pct
    (OUT / result_name(args.workload, args.seed, args.trace)).write_text(
        json.dumps(detail, indent=2) + "\n")

    for msg in problems:
        print(f"FAILED {msg}")
    print(f"# {args.workload} seed={args.seed} passes={n_passes} "
          f"failed_frac={failed}/{attempted}")
    for k, v in metrics.items():
        note = f" p{tail_pct}" if k == "cmd_tail_s" else ""
        if k in measured:
            note += f" (as measured: {measured[k]:.6g})"
        print(f"{k:38s} {_fmt(v)} {units[k]:6s} n={samples[k]}{note}")
    print(json.dumps(result))
    return 0


def _fmt(v) -> str:
    return f"{v:14d}" if isinstance(v, int) else f"{v:14.6g}"


def result_name(workload: str, seed: int, trace: int) -> str:
    return f"result-{workload}-seed{seed}-trace{trace}.json"


def write_spans(args, passes: list[list[list]]):
    with open(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
        for p, spans in enumerate(passes):
            for i, ((name, start, end, parent, cmd), own) in enumerate(
                    zip(spans, tracing.self_times(spans))):
                fh.write(json.dumps({"pass": p, "id": i, "name": name,
                                     "start": start, "end": end, "parent": parent,
                                     "command": cmd, "self": own}) + "\n")


# ---------------------------------------------------------------------------
# All workloads


def run_all(args) -> int:
    rows, setup, problems = [], [], []
    total = {"attempted": 0, "failed": 0}
    for w in WORKLOADS:
        proc = subprocess.run([sys.executable, __file__, "--workload", w,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, timeout=900)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        detail = json.loads((OUT / result_name(w, args.seed, args.trace)).read_text())
        setup += detail["setup_starts_scaled_s"]
        problems += [f"{w}: {p}" for p in detail["problems"]]
        total["attempted"] += detail["attempted"]
        total["failed"] += detail["failed"]
        for k, m in detail["metrics"].items():
            if k == "setup_s":
                continue
            note = f" p{detail['cmd_tail_percentile']}" if k == "cmd_tail_s" else ""
            if k in detail["as_measured"]:
                note += f" (as measured: {detail['as_measured'][k]:.6g})"
            rows.append((w, k, m["value"], m["unit"], f"n={detail['samples'][k]}{note}"))
        rows.append((w, "failed_frac", detail["failed_frac"], "ratio",
                     f"{detail['failed']}/{detail['attempted']}"))
    print(f"{'workload':10s} {'metric':38s} {'value':>14s} unit   samples")
    if not args.trace:
        print(f"{'(all)':10s} {'setup_s':38s} {statistics.median(setup):14.6g} s      "
              f"n={len(setup)}")
    for w, k, v, unit, note in rows:
        print(f"{w:10s} {k:38s} {_fmt(v)} {unit:6s} {note}")
    for msg in problems:
        print(f"FAILED {msg}")
    print_predictions()
    print(json.dumps({"correct": total["failed"] == 0, **total,
                      "metrics": {f"{w}.{k}": {"value": v, "unit": u}
                                  for w, k, v, u, _ in rows}}))
    return 0


def print_predictions():
    doc = json.loads((BENCH / "predictions.json").read_text())
    print("\nPredicted effect of each layer (per-layer metric -> end-to-end metric, workload):")
    for p in doc["predictions"]:
        print(f"  {', '.join(p['metrics'])}\n      -> {p['moves']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
