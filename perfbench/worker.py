"""Benchmark worker: one fresh process per set-up.

Usage (started by run.py, not by hand):
    python3 perfbench/worker.py --workload NAME --workdir DIR
    python3 perfbench/worker.py --calibrator

Set-up imports the package from `src/`, writes the workload's algebra files
into DIR and builds their presheaf files with the CLI, then prints
`{"ready": true}`.  A calibrator does no set-up and imports nothing of the
package; it only answers `calibrate` and `quit`.  After that it reads one JSON request per line on stdin
and answers each with one JSON line:

    {"cmd": "op", "id": ..., "argv": [...], "trace": bool}
        runs `gammaspaces.cli.main(argv)` and replies with the exit code, the
        wall time of the call, the report size and digest, whether every
        oracle comparison in the report holds and, when traced, the per-op
        span totals;
    {"cmd": "calibrate"}
        runs the calibration block (see `calibration_block`) and replies with
        its wall time; run.py sends it to the calibrator only, so that the
        block's memory never shows in a worker's peak RSS;
    {"cmd": "quit", "spans": PATH or null}
        replies with the peak RSS, writes the recorded spans to PATH and exits.

The reply channel is a duplicate of the original stdout; fd 1 itself is
pointed at stderr so that nothing the package prints can corrupt it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402


def report_digest(report: dict) -> str:
    """sha256 of the report's result sections: everything but `meta`."""
    body = {k: v for k, v in report.items() if k != "meta"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode()).hexdigest()


def oracle_comparisons_hold(node) -> bool:
    """Every `oracle_comparisons` entry anywhere in the report has match true."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "oracle_comparisons":
                if not all(entry.get("match") is True for entry in value):
                    return False
            elif not oracle_comparisons_hold(value):
                return False
    elif isinstance(node, list):
        return all(oracle_comparisons_hold(v) for v in node)
    return True


def call_cli(main, argv) -> tuple[int | None, str | None]:
    """Exit code of one CLI call; an escaping exception is an error, not a code."""
    try:
        return main(list(argv)), None
    except SystemExit as exc:     # argparse rejects its arguments this way
        return (exc.code if isinstance(exc.code, int) else 2), None
    except Exception as exc:  # noqa: BLE001 - any traceback is a failed op
        return None, f"{type(exc).__name__}: {exc}"


def calibration_block(rounds: int = 150, items: int = 2000, table_items: int = 60000) -> float:
    """Wall time of a fixed piece of pure-Python work that does not touch the
    package, made of what the package's own loops do: small dicts with tuple
    keys and short lists, then one dict of 60,000 tuple keys that outgrows the
    CPU caches, as a bar level does.  The client divides op times by it to take
    out how fast the host happens to run this process at the moment."""
    start = time.perf_counter()
    for _ in range(rounds):
        table = {}
        rows = []
        for i in range(items):
            key = (i & 63, i >> 6, i % 7)
            table[key] = table.get(key, 0) + len(rows) % 5
            if i % 16 == 0:
                rows.append([table[key], key])
        rows.sort()
    table = {}
    for i in range(table_items):
        key = (i & 255, i >> 8 & 255, i % 3)
        table[key] = [i, key]
    hits = 0
    for i in range(0, table_items, 3):
        hits += (i * 7 & 255, i * 13 >> 8 & 255, i % 3) in table
    return time.perf_counter() - start


def set_up(workload: str, workdir: Path):
    """Write the inputs and build their presheaf files; returns cli.main."""
    from gammaspaces import cli

    algebras = workloads.load_algebras()
    os.chdir(workdir)
    for name, levels in workloads.inputs(workload, algebras):
        Path(workloads.algebra_file(name)).write_text(json.dumps(algebras[name], indent=2))
        code, error = call_cli(cli.main, ["build", "--input", workloads.algebra_file(name),
                                          "--levels", str(levels),
                                          "--out", workloads.presheaf_file(name)])
        if code != 0:
            raise RuntimeError(f"set-up build of {name} failed: exit {code} {error or ''}")
    return cli.main


def run_op(main, request: dict, tracer) -> dict:
    out = Path(workloads.OUT_FILE)
    if out.exists():
        out.unlink()
    if tracer is not None:
        tracer.op = request["id"]
    start = time.perf_counter()
    code, error = call_cli(main, request["argv"])
    wall = time.perf_counter() - start
    reply = {"exit": code, "error": error, "wall_s": wall, "digest": None,
             "oracle_ok": None, "report_bytes": 0}
    if out.exists():
        raw = out.read_bytes()
        reply["report_bytes"] = len(raw)
        try:
            report = json.loads(raw)
        except ValueError:
            report = None
        if isinstance(report, dict):
            reply["digest"] = report_digest(report)
            reply["oracle_ok"] = oracle_comparisons_hold(report)
    if tracer is not None:
        reply["trace"] = tracer.take_op()
        # argument parsing, dispatch and anything else outside every span
        reply["trace"]["uncovered_s"] = wall - reply["trace"]["covered_s"]
    return reply


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--workdir")
    parser.add_argument("--calibrator", action="store_true")
    args = parser.parse_args()
    if not args.calibrator and not (args.workload and args.workdir):
        parser.error("--workload and --workdir are required unless --calibrator is given")

    replies = os.fdopen(os.dup(1), "w", buffering=1)
    os.dup2(2, 1)
    if args.calibrator:
        main_fn = None
        calibration_block()     # warm-up: the first block in a fresh process runs cold
    else:
        main_fn = set_up(args.workload, Path(args.workdir))
    replies.write(json.dumps({"ready": True}) + "\n")

    tracer = Tracer()
    for line in sys.stdin:
        request = json.loads(line)
        if request["cmd"] == "quit":
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            if request.get("spans"):
                tracer.write(request["spans"])
            replies.write(json.dumps({"peak_rss_mb": peak_kb / 1024}) + "\n")
            break
        if request["cmd"] == "calibrate":
            replies.write(json.dumps({"cal_s": calibration_block()}) + "\n")
            continue
        if request["trace"] and not tracer.installed:
            tracer.install()
        elif not request["trace"] and tracer.installed:
            tracer.uninstall()
        replies.write(json.dumps(run_op(main_fn, request, tracer if request["trace"] else None))
                      + "\n")
    replies.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
