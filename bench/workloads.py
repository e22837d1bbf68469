"""The benchmark's command mixes.

Each workload is a fixed list of `tqr` command lines, grouped into units whose
commands must run in order (an export before its import). The workload seed
sets `--seed` on every randomized command and shuffles the order of the units
in every pass; the program only ever sees the command lines.

Paths in the command lines are relative: the client runs every command from a
fresh per-run work directory two levels below the repository root, so reports
and byte counts do not depend on where the checkout lives.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

# Passes per run at --seconds 30; other run lengths scale it, with at least
# two passes. At the seed commit on a 2-CPU x86-64 box a suite pass took about
# 0.42 s, a structure pass 15 s and an irreps pass 11 s. Three passes is the
# fewest for which the pooled median and tail latencies of the 11 structure
# and 13 irreps commands fall on the middle sample of one command. Every
# commit run with the same --seconds does the same work.
PASSES_AT_30S = {"suite": 71, "structure": 3, "irreps": 3}

WORKLOADS = tuple(PASSES_AT_30S)

SUITE_CONFIG = "../../suites/acceptance.json"


@dataclass(frozen=True)
class Command:
    key: str                  # stable name, also the key into reference.json
    argv: tuple[str, ...]
    kind: str                 # the tqr subcommand
    info: dict = field(default_factory=dict, compare=False)


def _check(key, group, criterion, seed, *extra):
    return Command(key, ("check", "--group", group, "--criterion", criterion,
                         "--seed", str(seed), *extra), "check",
                   {"group": group, "criterion": criterion})


def _structure_units(rng: random.Random) -> list[list[Command]]:
    units = []
    for name, group in (("s6", "symmetric:6"), ("a6", "alternating:6"),
                        ("aff31", "affine:31"), ("es7", "extraspecial:7")):
        units.append([Command(f"structure/group-{name}",
                              ("group", "--group", group, "--normal-subgroups"),
                              "group", {"group": group})])
    for name, group in (("aff23", "affine:23"), ("s6", "symmetric:6")):
        exported, reexported = f"{name}-table.json", f"{name}-reimport.json"
        units.append([
            Command(f"structure/chartable-{name}-export",
                    ("chartable", "--group", group, "--export", exported),
                    "chartable", {"group": group, "export": exported}),
            Command(f"structure/chartable-{name}-import",
                    ("chartable", "--import", exported, "--export", reexported),
                    "chartable", {"group": group, "export": reexported,
                                  "import": exported}),
        ])
    for name, group in (("es7", "extraspecial:7"),
                        ("a5s3", "product(alternating(5),symmetric(3))")):
        units.append([_check(f"structure/qr4-{name}", group, "qr4",
                             rng.randrange(2 ** 31), "--trials", "100")])
    units.append([Command("structure/counterexample-es7-center",
                          ("counterexample", "--group", "extraspecial:7",
                           "--normal", "center", "--m", "3"),
                          "counterexample", {"group": "extraspecial:7"})])
    return units


def _irreps_units(rng: random.Random) -> list[list[Command]]:
    units = []
    # extraspecial:5 runs at density 0.5, where tqr2 holds and the randomized
    # search always spends its full budget of triples. At the default density
    # a witness turns up after 1 to 200 triples depending on the seed, which
    # moved this command across the latency percentiles of the mix.
    for name, group, density in (("d30", "dihedral:30", "0.1"),
                                 ("aff19", "affine:19", "0.1"),
                                 ("s4s3", "product(symmetric(4),symmetric(3))", "0.1"),
                                 ("es5", "extraspecial:5", "0.5"),
                                 ("c40", "cyclic:40", "0.1")):
        units.append([_check(f"irreps/tqr2-{name}", group, "tqr2",
                             rng.randrange(2 ** 31), "--density", density)])
    for name, group, sel in (("es7", "extraspecial:7", "dim>=2"),
                             ("aff19", "affine:19", "irrep:18")):
        units.append([Command(f"irreps/cover-{name}",
                              ("cover", "--group", group, "--v1", sel, "--v2", sel,
                               "--v3", sel, "--profile"),
                              "cover", {"group": group})])
    for name, group, sel in (("es5", "extraspecial:5", "dim>=2"),
                             ("d30", "dihedral:30", "irrep:5"),
                             ("c120", "cyclic:120", "irrep:1")):
        units.append([Command(f"irreps/markov-{name}",
                              ("markov", "--group", group, "--rep", sel,
                               "--experiment", "3"),
                              "markov", {"group": group})])
    # A bare table of cyclic:120 (120 irreducibles) isolates the table
    # computation the markov command on the same group also pays. It also
    # makes the command count odd, so the pooled median latency falls on the
    # samples of one command rather than between two.
    units.append([Command("irreps/chartable-c120", ("chartable", "--group", "cyclic:120"),
                          "chartable", {"group": "cyclic:120"})])
    units.append([Command("irreps/counterexample-c60",
                          ("counterexample", "--group", "cyclic:60", "--normal",
                           "group", "--epsilon", "1/8"),
                          "counterexample", {"group": "cyclic:60"})])
    units.append([Command("irreps/counterexample-c2s4",
                          ("counterexample", "--group",
                           "product(cyclic(2),symmetric(4))", "--normal",
                           "order:2", "--m", "4"),
                          "counterexample",
                          {"group": "product(cyclic(2),symmetric(4))"})])
    return units


class Workload:
    """One workload's commands for a run, pass by pass."""

    def __init__(self, name: str, seed: int):
        if name not in PASSES_AT_30S:
            raise ValueError(f"unknown workload {name!r}")
        self.name = name
        self.seed = seed
        self._order = random.Random(f"{name}:{seed}")

    def passes(self, seconds: float) -> int:
        return max(2, round(PASSES_AT_30S[self.name] * seconds / 30))

    def pass_commands(self, index: int, draw: int) -> list[Command]:
        """The commands of pass `index`, in this pass's shuffled order.

        `draw` picks the --seed values of the randomized commands. A timed run
        takes a new draw every pass, so a run averages over several draws; a
        traced run repeats a draw in each untraced/traced pair of passes.
        """
        if self.name == "suite":
            # Two output directories, alternating, so each pass can be
            # compared byte for byte with the one before it.
            outdir = f"suite-{'ab'[index % 2]}"
            return [Command("suite", ("suite", "--config", SUITE_CONFIG,
                                      "--outdir", outdir),
                            "suite", {"outdir": outdir, "config": SUITE_CONFIG})]
        make = _structure_units if self.name == "structure" else _irreps_units
        units = make(random.Random(f"{self.name}:{self.seed}:{draw}"))
        self._order.shuffle(units)
        return [cmd for unit in units for cmd in unit]
