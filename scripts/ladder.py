#!/usr/bin/env python3
"""Run the classify ladder: the rungs of ROADMAP.md's state table, each as
one CLI subprocess, and print its wall time, CPU time, peak RSS and report
digest.

    python3 scripts/ladder.py                 # every rung, in table order
    python3 scripts/ladder.py z2_k2_h2 ...    # the named rungs only

The script first builds the `--levels 3` presheaf file of each fixture it
needs in a temporary directory.  Each rung then runs
`python -m gammaspaces.cli classify` on such a file, with the package taken
from this checkout's `src/`, no bytecode written (`-B`) and a 3 GB address
space (RLIMIT_AS).  The wall time includes interpreter start; the CPU time
is the child's own user plus system time and the peak RSS its own
ru_maxrss; the digest is the sha256 of the report without its `meta`
section, as the benchmark computes it.  The first line, `baseline`, gives
the same figures for a child under the same settings that only imports
`gammaspaces.cli`.  A rung that fails or runs past TIMEOUT seconds prints
its exit code (or DNF) and the last line of its stderr in place of a
digest; one whose report has an oracle comparison with match false prints
the first such degree.  Either makes the script exit 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import resource
import subprocess
import sys
import tempfile
import threading
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
ADDRESS_SPACE = 3 << 30
TIMEOUT = 600  # seconds per child
CLI = ["-m", "gammaspaces.cli"]
# name: (fixture, classify arguments), in the state table's order
RUNGS = {
    "z2_k2_h2": ("z2", ["--iterate", "2", "--dim", "4", "--homology", "2"]),
    "klein_k1_h4": ("klein", ["--dim", "5", "--homology", "4"]),
    "z2_k2_h3": ("z2", ["--iterate", "2", "--dim", "4", "--homology", "3"]),
    "z3_k2_h2": ("z3", ["--iterate", "2", "--dim", "3", "--homology", "2"]),
    "z2_inversion_on_z3_k2_h2": ("z2_inversion_on_z3", ["--iterate", "2", "--dim", "3",
                                                        "--homology", "2"]),
    "klein_k2_h2": ("klein", ["--iterate", "2", "--dim", "3", "--homology", "2"]),
    "z4_k2_h2": ("z4", ["--iterate", "2", "--dim", "3", "--homology", "2"]),
    "z2_swap_on_klein_k2_h2": ("z2_swap_on_klein", ["--iterate", "2", "--dim", "3",
                                                    "--homology", "2"]),
}


def child(args: list[str], cwd: str):
    """Run `python -B *args` in a child with a capped address space; return
    its exit code (None past the timeout), wall and CPU seconds, peak RSS in
    MB and stderr."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-B", *args], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=err,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (ADDRESS_SPACE, ADDRESS_SPACE)))
        killed = []
        timer = threading.Timer(TIMEOUT, lambda: killed.append(proc.kill()))
        timer.start()
        _, status, usage = os.wait4(proc.pid, 0)  # reaped here, for the child's own rusage
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
        timer.join()
        code = None if killed else proc.returncode
        err.seek(0)
        return (code, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                err.read().decode())


def verdict(report: dict) -> tuple[bool, str]:
    """Whether a classify report passes its oracle comparisons, and the
    line that says so: the report's digest, or the first degree whose
    comparison has match false."""
    for entry in report["delooping"]["oracle_comparisons"]:
        if entry["match"] is False:
            return False, f"oracle mismatch in degree {entry['degree']}"
    body = json.dumps({k: v for k, v in report.items() if k != "meta"}, sort_keys=True)
    return True, f"sha256 {hashlib.sha256(body.encode()).hexdigest()}"


def line(name: str, wall: float, cpu: float, rss: float, result: str) -> str:
    return f"{name:26s} {wall:8.3f} s {cpu:8.3f} s CPU {rss:8.1f} MB  {result}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rungs", nargs="*", metavar="RUNG",
                        help=f"rungs to run (default all): {', '.join(RUNGS)}")
    args = parser.parse_args()
    for name in args.rungs:
        if name not in RUNGS:
            parser.error(f"unknown rung {name!r}")
    failed = False
    with tempfile.TemporaryDirectory() as work:
        code, wall, cpu, rss, err = child(["-c", "import gammaspaces.cli"], work)
        if code != 0:
            raise SystemExit(f"baseline: exit {code}: {err.strip()}")
        print(line("baseline", wall, cpu, rss, "import gammaspaces.cli"), flush=True)
        for fixture in dict.fromkeys(RUNGS[name][0] for name in args.rungs or RUNGS):
            code, *_, err = child([*CLI, "build", "--input",
                                   str(ROOT / "fixtures" / f"{fixture}.json"),
                                   "--levels", "3", "--out", f"{fixture}.json"], work)
            if code != 0:
                raise SystemExit(f"build {fixture}: exit {code}: {err.strip()}")
        for name in args.rungs or RUNGS:
            fixture, extra = RUNGS[name]
            out = pathlib.Path(work, f"{name}.out.json")
            out.unlink(missing_ok=True)
            code, wall, cpu, rss, err = child([*CLI, "classify", "--input", f"{fixture}.json",
                                               *extra, "--out", out.name], work)
            if code == 0:
                passed, result = verdict(json.loads(out.read_text()))
                failed |= not passed
            else:
                failed = True
                last = err.strip().rpartition("\n")[2]
                result = "DNF" if code is None else f"exit {code}: {last}"
            print(line(name, wall, cpu, rss, result), flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
