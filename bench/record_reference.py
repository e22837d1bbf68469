#!/usr/bin/env python3
"""Write bench/reference.json: the exact verdicts of one pass of every workload.

    python3 bench/record_reference.py

The file pins what the checker compares: exact structure and table data,
exact criteria, completed exhaustive searches, covering results and
counterexample supports (see checker.verdicts). Record it once on a commit
whose outputs are trusted; a change that alters a verdict must justify the
new file on its own.
"""

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import WORKLOADS, Workload

sys.path.insert(0, str(run.ROOT / "src"))
from checker import verdicts  # noqa: E402
from tqrgroups import cli  # noqa: E402


def main() -> int:
    os.chdir(run.ROOT)
    run.OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=run.OUT)
    reference = {}
    try:
        os.chdir(workdir)
        for name in WORKLOADS:
            outcomes = run.run_pass(cli, Workload(name, 0).pass_commands(0, 0))
            for o in outcomes:
                if o.error is not None or o.code != 0:
                    raise SystemExit(f"{o.cmd.key} failed: {o.error or o.code}")
                if o.cmd.kind != "suite":
                    reference[o.cmd.key] = verdicts(o.cmd.kind, json.loads(o.stdout)["report"])
                    continue
                outdir = o.cmd.info["outdir"]
                with open(os.path.join(outdir, "summary.json")) as fh:
                    for exp in json.load(fh)["experiments"]:
                        with open(os.path.join(outdir, exp["path"])) as fh2:
                            doc = json.load(fh2)
                        reference[f"suite/{exp['id']}"] = verdicts(exp["command"],
                                                                   doc["report"])
    finally:
        os.chdir(run.ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    reference = {k: v for k, v in reference.items() if v}
    (run.BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
