"""Workload definitions shared by the benchmark client, its worker and the
digest recorder.

A workload is a fixed list of CLI invocations (one *pass*).  The client
repeats passes in a closed loop; the seed sets the order of the ops inside
each pass and the `--seed` each op hands to the CLI.  Every input is a
committed algebra from `algebras.json`, so inputs never depend on how the
library enumerates monoids.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ALGEBRAS_FILE = HERE / "algebras.json"
DIGESTS_FILE = HERE / "digests.json"

WORKLOADS = ("bar2_z2", "em1_klein", "em1_swap", "strict_cli")

# classify workloads: input algebra and the classify arguments
CLASSIFY = {
    "bar2_z2": ("group_z2", ["--iterate", "2", "--dim", "4", "--homology", "2"]),
    "em1_klein": ("group_klein", ["--dim", "5", "--homology", "4"]),
    "em1_swap": ("action_z2_swap_on_klein", ["--dim", "5", "--homology", "4"]),
}
CLASSIFY_INPUT_LEVELS = 3   # presheaf file handed to classify, as in the README
STRICT_LEVELS = 5           # levels built, checked and round-tripped in strict_cli
STRICT_PREFIXES = ("monoid_", "action_")
OUT_FILE = "out.json"


@dataclass(frozen=True)
class Op:
    id: str            # stable across seeds; keys the recorded digests
    argv: tuple        # CLI arguments, without --seed and --out
    expected_exit: int


def load_algebras() -> dict:
    return json.loads(ALGEBRAS_FILE.read_text())


def algebra_file(name: str) -> str:
    return f"{name}.json"


def presheaf_file(name: str) -> str:
    return f"{name}.presheaf.json"


def inputs(workload: str, algebras: dict) -> list[tuple[str, int]]:
    """(algebra name, levels) of every presheaf file the worker builds in set-up."""
    if workload in CLASSIFY:
        return [(CLASSIFY[workload][0], CLASSIFY_INPUT_LEVELS)]
    return [(name, STRICT_LEVELS) for name in sorted(algebras) if name.startswith(STRICT_PREFIXES)]


def is_group(algebra: dict) -> bool:
    """Every element has an inverse in the Cayley table; action files are
    judged by their monoid.  Independent of the library under test."""
    monoid = algebra.get("monoid", algebra)
    unit = monoid["unit"]
    return all(unit in row for row in monoid["table"])


def base_ops(workload: str, algebras: dict) -> list[Op]:
    """The ops of one pass, in a fixed canonical order."""
    if workload in CLASSIFY:
        name, extra = CLASSIFY[workload]
        return [Op(f"classify:{name}", ("classify", "--input", presheaf_file(name), *extra), 0)]
    if workload != "strict_cli":
        raise ValueError(f"unknown workload {workload!r}")
    levels = str(STRICT_LEVELS)
    ops = []
    for name, _ in inputs(workload, algebras):
        # the strict Bousfield condition holds exactly for groups
        bousfield_exit = 0 if is_group(algebras[name]) else 1
        ops += [
            Op(f"build:{name}", ("build", "--input", algebra_file(name), "--levels", levels), 0),
            Op(f"segal:{name}", ("check", "--input", presheaf_file(name), "--segal", "--upto", levels), 0),
            Op(f"bousfield:{name}", ("check", "--input", presheaf_file(name), "--bousfield",
                                     "--upto", levels), bousfield_exit),
            Op(f"roundtrip:{name}", ("roundtrip", "--input", algebra_file(name), "--levels", levels), 0),
        ]
    return ops


def passes(workload: str, algebras: dict, seed: int):
    """Endless sequence of passes: each a shuffled copy of the op list, each
    op paired with the full argv (CLI seed and output file added)."""
    rng = random.Random(seed)
    ops = base_ops(workload, algebras)
    while True:
        order = ops[:]
        rng.shuffle(order)
        yield [(op, [*op.argv, "--seed", str(rng.randrange(2 ** 31)), "--out", OUT_FILE])
               for op in order]
