"""Record the benchmark's reference data from the current source tree.

    python3 perfbench/record.py     # rewrite digests.json

`algebras.json` holds every input algebra: the 27 abelian monoids of order
at most 4, the three group actions of `fixtures/`, and the groups Z/2 and
Klein four.  It is committed data and this script never rewrites it.  It
was written once from the library, as `Algebra.to_json()` of
`algebra.cyclic(2)`, `algebra.klein_four()`, the three actions
(`trivial_action(cyclic(2), cyclic_group(2))`, `inversion_action(cyclic(3))`,
`swap_action()`) and `enumerate_abelian_monoids(n)` for n = 1..4, the i-th
monoid of order n keyed `monoid_o<n>_<i:02d>`.

`digests.json` holds, for every op of every workload, the exit code and the
sha256 of the report without its `meta` section.  An op is recorded only if
its exit code is the expected one and every oracle comparison in its report
holds.  Run with the code whose outputs are known
good; the benchmark compares every later run against these digests.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

import workloads
from worker import call_cli, oracle_comparisons_hold, report_digest, set_up


def record_digests() -> dict:
    algebras = workloads.load_algebras()
    workdir = workloads.HERE.parent / ".perfbench_work" / "record"
    digests = {}
    home = os.getcwd()
    try:
        for workload in workloads.WORKLOADS:
            shutil.rmtree(workdir, ignore_errors=True)
            workdir.mkdir(parents=True)
            main = set_up(workload, workdir)
            for op in workloads.base_ops(workload, algebras):
                code, error = call_cli(main, [*op.argv, "--out", workloads.OUT_FILE])
                with open(workloads.OUT_FILE) as fh:
                    report = json.load(fh)
                if code != op.expected_exit or error or not oracle_comparisons_hold(report):
                    raise SystemExit(f"{op.id}: exit {code}, error {error}; not recording")
                digests[op.id] = {"exit": code, "sha256": report_digest(report)}
            os.chdir(home)
    finally:
        os.chdir(home)
        shutil.rmtree(workdir, ignore_errors=True)
    return digests


def main() -> None:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args()
    digests = record_digests()
    workloads.DIGESTS_FILE.write_text(json.dumps(digests, sort_keys=True, indent=1) + "\n")
    print(f"recorded {len(digests)} op digests", file=sys.stderr)


if __name__ == "__main__":
    main()
