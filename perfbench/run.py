"""End-to-end and per-layer benchmark of the gammaspaces verification CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client (this process) drives `gammaspaces.cli.main(argv)` in a closed
loop inside one fresh worker process (worker.py): it sends an op, waits for
the reply, checks it, and only then sends the next.  Each workload is a fixed
op list (a *pass*, see workloads.py); passes repeat until S seconds have
been measured, and the pass in flight is finished.  Set-up time is taken
from process start to ready (import plus building the input files) for the
worker that runs the ops and, in timed runs, for further fresh workers
started one at a time between passes (7 to 21 set-ups in all, about 4 s of
them), spread evenly over the window so that set-up samples the same machine
conditions as the ops.

Host speed: on a shared host the speed at which this process runs can move
by a third and more for minutes at a time, and it moves every workload and
set-up alike (on a 2-core shared VM, the median pass of five 28 s bar2_z2
runs took 1.44-2.40 s of wall time; scaled as below, twenty such runs gave
1.25-1.45 s).  So the worker also times a fixed
calibration block (worker.calibration_block, pure Python that does not touch
the package) in a calibrator process of its own before and after every pass
and right after every set-up, with every process of the run on one CPU.  Every reported time is a wall time divided by the
calibration time measured next to it and multiplied by REF_CAL_S, the
block's time on a quiet host: seconds at a fixed host speed.  A change to
the package moves these times as it moves wall times; a change of host
speed moves the calibration too and cancels.  The raw wall medians and the
host speed are printed on stderr.

Correctness gate: an op fails when it raises, when its exit code is not the
expected one (`check --bousfield` passes exactly for groups), when its
report without `meta` differs from the digest in digests.json, or when an
`oracle_comparisons` entry in its report is not true.

--trace 0 prints the end-to-end metrics: run_s (median seconds of one
pass), op_s_p50 (median over the ops of a pass of each op's median seconds;
`attempted` gives the op count),
peak_rss_mb (worker ru_maxrss) and setup_s (median set-up time), times
scaled to the reference host speed as above.  The failed fraction is
`failed`/`attempted` of the result line.

--trace 1 alternates untraced and traced passes and prints the per-layer
metrics of the traced passes (medians over passes, values per pass), the
tracing overhead (traced minus untraced run_s, both scaled), and writes
every span to .perfbench_out/spans-<workload>-seed<N>.jsonl.  Span times
are wall times, not scaled.

--smoke runs one traced op of every workload and exits non-zero unless all
of them pass the gate.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics; a readable summary goes to stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
SPANS_ROOT = ROOT / ".perfbench_out"
# timed runs sample set-up about SETUP_BUDGET_S seconds' worth of times, as
# judged by the first set-up, and at least MIN_SETUPS and at most MAX_SETUPS times
SETUP_BUDGET_S = 4.0
MIN_SETUPS, MAX_SETUPS = 7, 21
# time of worker.calibration_block on a quiet host (a 2.1 GHz Xeon core of a
# shared VM at its fastest); reported times are scaled to this host speed
REF_CAL_S = 0.1
DEADLINE_S = 170    # the whole run, set-ups included, must end before this


class WorkerTimeout(Exception):
    pass


class Worker:
    """One worker process and its working directory; with workload None, a
    calibrator, which has neither."""

    def __init__(self, workload: str | None, deadline: float, tag: str):
        self.workdir = None
        args = ["--calibrator"]
        if workload is not None:
            self.workdir = WORK_ROOT / f"{workload}-{os.getpid()}-{tag}"
            shutil.rmtree(self.workdir, ignore_errors=True)
            self.workdir.mkdir(parents=True)
            args = ["--workload", workload, "--workdir", str(self.workdir)]
        self.deadline = deadline
        self._buf = b""
        start = time.perf_counter()
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *args],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        try:
            self._read()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start

    def _read(self) -> dict:
        fd = self.proc.stdout.fileno()
        while b"\n" not in self._buf:
            remaining = self.deadline - time.monotonic()
            if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
                raise WorkerTimeout("worker did not answer before the deadline")
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                raise EOFError(f"worker exited with code {self.proc.wait()}")
            self._buf += chunk
        line, _, self._buf = self._buf.partition(b"\n")
        return json.loads(line)

    def request(self, message: dict) -> dict:
        self.proc.stdin.write((json.dumps(message) + "\n").encode())
        self.proc.stdin.flush()
        return self._read()

    def calibrate(self) -> float:
        return self.request({"cmd": "calibrate"})["cal_s"]

    def close(self, spans: Path | None = None) -> dict:
        try:
            reply = self.request({"cmd": "quit", "spans": str(spans) if spans else None})
            self.proc.stdin.close()
            self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            return reply
        finally:
            self.kill()

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        for stream in (self.proc.stdin, self.proc.stdout):
            if not stream.closed:
                stream.close()
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


def check_reply(op: workloads.Op, reply: dict, digests: dict) -> str | None:
    """Why the op failed the correctness gate, or None if it passed."""
    if reply.get("error"):
        return f"raised {reply['error']}"
    if reply["exit"] != op.expected_exit:
        return f"exit {reply['exit']}, expected {op.expected_exit}"
    recorded = digests.get(op.id)
    if recorded is None:
        return "no recorded digest"
    if reply["exit"] != recorded["exit"] or reply["digest"] != recorded["sha256"]:
        return "report differs from the recorded digest"
    if reply["oracle_ok"] is not True:
        return "an oracle comparison does not hold"
    return None


# -- per-layer metrics --------------------------------------------------------

def _sum_traces(traces: list[dict]) -> dict:
    """Totals of one traced pass from the per-op trace summaries."""
    total = {"layer_self_s": defaultdict(float), "total_s": defaultdict(float),
             "self_s": defaultdict(float), "counts": defaultdict(int),
             "spans": 0, "uncovered_s": 0.0, "report_bytes": 0}
    for trace in traces:
        for key in ("layer_self_s", "total_s", "self_s", "counts"):
            for name, value in trace[key].items():
                total[key][name] += value
        total["spans"] += trace["spans"]
        total["uncovered_s"] += trace["uncovered_s"]
        total["report_bytes"] += trace["report_bytes"]
    return total


def _hit_ratio(t: dict) -> float:
    calls = t["counts"]["presheaves.table_hits"] + t["counts"]["presheaves.table_misses"]
    return t["counts"]["presheaves.table_hits"] / calls if calls else 0.0


# name -> (unit, value from the totals of one traced pass)
LAYER_METRICS = {
    "presheaves.action_table_s": ("s", lambda t: t["total_s"]["presheaves.action_table"]),
    "presheaves.table_entries": ("count", lambda t: t["counts"]["presheaves.table_entries"]),
    "presheaves.table_hit_ratio": ("ratio", _hit_ratio),
    "presheaves.level_s": ("s", lambda t: t["total_s"]["presheaves.level"]),
    "presheaves.check_s": ("s", lambda t: t["total_s"]["presheaves.check"]),
    "presheaves.json_s": ("s", lambda t: t["total_s"]["presheaves.json"]),
    "presheaves.self_s": ("s", lambda t: t["layer_self_s"]["presheaves"]),
    "simplicial.validate_s": ("s", lambda t: t["total_s"]["simplicial.validate"]),
    "simplicial.identity_checks": ("count", lambda t: t["counts"]["simplicial.identity_checks"]),
    "simplicial.simplices": ("count", lambda t: t["counts"]["simplicial.simplices"]),
    "simplicial.self_s": ("s", lambda t: t["layer_self_s"]["simplicial"]),
    "classifying.bar_self_s": ("s", lambda t: t["self_s"]["classifying.bar"]),
    "classifying.g_action_s": ("s", lambda t: t["total_s"]["classifying.g_action"]),
    "classifying.structure_map_self_s": ("s", lambda t: t["self_s"]["classifying.structure_map"]),
    "classifying.self_s": ("s", lambda t: t["layer_self_s"]["classifying"]),
    "homology.chain_s": ("s", lambda t: t["total_s"]["homology.chain"]),
    "homology.boundary_cells": ("count", lambda t: t["counts"]["homology.boundary_cells"]),
    "homology.boundary_nnz": ("count", lambda t: t["counts"]["homology.boundary_nnz"]),
    "homology.presentation_self_s": ("s", lambda t: t["self_s"]["homology.presentation"]),
    "homology.snf_calls": ("count", lambda t: t["counts"]["homology.snf_calls"]),
    "homology.snf_cells": ("count", lambda t: t["counts"]["homology.snf_cells"]),
    "homology.snf_s": ("s", lambda t: t["total_s"]["homology.snf"]),
    "homology.solve_calls": ("count", lambda t: t["counts"]["homology.solve_calls"]),
    "homology.induced_s": ("s", lambda t: t["total_s"]["homology.induced"]),
    "homology.invert_s": ("s", lambda t: t["total_s"]["homology.invert"]),
    "homology.self_s": ("s", lambda t: t["layer_self_s"]["homology"]),
    "cli.self_s": ("s", lambda t: t["layer_self_s"]["cli"]),
    "cli.report_bytes": ("bytes", lambda t: t["report_bytes"]),
    "trace.uncovered_s": ("s", lambda t: t["uncovered_s"]),
    "trace.spans": ("count", lambda t: t["spans"]),
}
# counts that must repeat exactly from pass to pass; simplicial.identity_checks is
# left out because it is derived from the level sizes (see tracing._identity_checks)
EXACT_COUNTS = ("presheaves.table_entries", "simplicial.simplices",
                "homology.boundary_cells", "homology.boundary_nnz", "homology.snf_calls",
                "homology.snf_cells", "homology.solve_calls")
LAYERS = ("cli", "presheaves", "simplicial", "classifying", "homology")


def scaled(wall_s: float, cal_s: float) -> float:
    """Wall seconds scaled to the reference host speed."""
    return wall_s * REF_CAL_S / cal_s


def pass_s(record: dict) -> float:
    return scaled(record["wall_s"], record["cal_s"])


def op_s_p50(passes: list[dict]) -> float:
    """Median over the ops of a pass of each op's median scaled time."""
    per_op = defaultdict(list)
    for record in passes:
        for op_id, wall in record["op_walls"].items():
            per_op[op_id].append(scaled(wall, record["cal_s"]))
    return statistics.median(statistics.median(times) for times in per_op.values())


def layer_metrics(traced_passes: list[dict], run_s_untraced: float) -> dict:
    totals = [_sum_traces(p["traces"]) for p in traced_passes]
    metrics = {}
    for name, (unit, fn) in LAYER_METRICS.items():
        value = statistics.median(fn(t) for t in totals)
        if unit in ("count", "bytes") and value == int(value):
            value = int(value)
        metrics[name] = {"value": value, "unit": unit}
    run_s_traced = statistics.median(pass_s(p) for p in traced_passes)
    metrics["trace.run_s"] = {"value": run_s_traced, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": run_s_traced - run_s_untraced, "unit": "s"}
    for name in EXACT_COUNTS:
        seen = {LAYER_METRICS[name][1](t) for t in totals}
        if len(seen) > 1:
            print(f"warning: {name} differs between traced passes: {sorted(seen)}",
                  file=sys.stderr)
    return metrics


# -- runs ---------------------------------------------------------------------

def _sample_setup(workload: str, deadline: float, calibrator: Worker,
                  setups: list[tuple]) -> None:
    """Appends (set-up seconds, calibration seconds) of one fresh worker."""
    worker = Worker(workload, deadline, f"setup{len(setups)}")
    worker.close()
    setups.append((worker.setup_s, calibrator.calibrate()))


def _run_pass(worker: Worker, ops: list, traced: bool, digests: dict) -> dict:
    record = {"traced": traced, "wall_s": 0.0, "op_walls": {}, "traces": [], "failures": []}
    for op, argv in ops:
        reply = worker.request({"cmd": "op", "id": op.id, "argv": argv, "trace": traced})
        reason = check_reply(op, reply, digests)
        if reason:
            record["failures"].append(f"{op.id}: {reason}")
        record["wall_s"] += reply["wall_s"]
        record["op_walls"][op.id] = reply["wall_s"]
        if traced:
            reply["trace"]["report_bytes"] = reply["report_bytes"]
            record["traces"].append(reply["trace"])
    return record


def measure(workload: str, seed: int, seconds: int, trace: bool, deadline: float) -> dict:
    algebras = workloads.load_algebras()
    digests = json.loads(workloads.DIGESTS_FILE.read_text())
    if hasattr(os, "sched_setaffinity"):
        # every process of the run (this client, the worker, the calibrator
        # and the set-up workers inherit it) on one CPU, so that the
        # calibration sees the same CPU as the ops
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    calibrator = Worker(None, deadline, "calibrator")
    try:
        worker = Worker(workload, deadline, "run")
    except BaseException:
        calibrator.kill()
        raise
    spans = None
    try:
        cal_s = calibrator.calibrate()
        setup_samples = [(worker.setup_s, cal_s)]
        setups = 1 if trace else max(MIN_SETUPS, min(
            MAX_SETUPS, round(SETUP_BUDGET_S / (worker.setup_s + cal_s))))
        records = []
        pass_iter = workloads.passes(workload, algebras, seed)
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if len(setup_samples) < setups and elapsed >= seconds * len(setup_samples) / setups:
                _sample_setup(workload, deadline, calibrator, setup_samples)
                continue
            kinds = {r["traced"] for r in records}
            if elapsed >= seconds and kinds == ({False, True} if trace else {False}):
                break
            traced = trace and bool(records) and not records[-1]["traced"]
            record = _run_pass(worker, next(pass_iter), traced, digests)
            cal_after = calibrator.calibrate()
            record["cal_s"] = (cal_s + cal_after) / 2
            cal_s = cal_after
            records.append(record)
        while len(setup_samples) < setups:
            _sample_setup(workload, deadline, calibrator, setup_samples)
        if trace:
            SPANS_ROOT.mkdir(exist_ok=True)
            spans = SPANS_ROOT / f"spans-{workload}-seed{seed}.jsonl"
        final = worker.close(spans)
        calibrator.close()
    finally:
        worker.kill()
        calibrator.kill()
    failures = [f for r in records for f in r["failures"]]
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    untraced = [r for r in records if not r["traced"]]
    run_s = statistics.median(pass_s(r) for r in untraced)
    if trace:
        metrics = layer_metrics([r for r in records if r["traced"]], run_s)
    else:
        metrics = {
            "run_s": {"value": run_s, "unit": "s"},
            "op_s_p50": {"value": op_s_p50(untraced), "unit": "s"},
            "peak_rss_mb": {"value": final["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(scaled(*sample) for sample in setup_samples),
                        "unit": "s"},
        }
    attempted = sum(len(r["op_walls"]) for r in records)
    summary = (f"{workload} seed {seed}: {len(records)} passes, {attempted} ops, "
               f"{len(failures)} failed (failed_frac {len(failures) / attempted:.4f})")
    print(summary, file=sys.stderr)
    cals = [r["cal_s"] for r in records]
    print(f"  unscaled: run_s {statistics.median(r['wall_s'] for r in untraced):.6g} s, "
          f"setup_s {statistics.median(s for s, _ in setup_samples):.6g} s; host speed "
          f"{REF_CAL_S / statistics.median(cals):.3f} of the reference "
          f"(calibration {min(cals):.4g}-{max(cals):.4g} s)", file=sys.stderr)
    for name, metric in metrics.items():
        value = metric["value"]
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"  {name:36s} {shown} {metric['unit']}", file=sys.stderr)
    if trace:
        parts = {layer: metrics[f"{layer}.self_s"]["value"] for layer in LAYERS}
        parts["uncovered"] = metrics["trace.uncovered_s"]["value"]
        op_s = sum(parts.values())
        shares = ", ".join(f"{part} {value / op_s:.1%}" for part, value in parts.items())
        print(f"  self-time shares: {shares}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "metrics": metrics}


def smoke(deadline: float) -> dict:
    """One traced op per workload through set-up, worker, gate and tracer."""
    algebras = workloads.load_algebras()
    digests = json.loads(workloads.DIGESTS_FILE.read_text())
    results = {}
    for workload in workloads.WORKLOADS:
        worker = Worker(workload, deadline, "smoke")
        try:
            ops = next(workloads.passes(workload, algebras, 0))[:1]
            record = _run_pass(worker, ops, True, digests)
            worker.close()
        finally:
            worker.kill()
        totals = _sum_traces(record["traces"])
        results[workload] = {"op": ops[0][0].id, "failures": record["failures"],
                             "wall_s": record["wall_s"],
                             "uncovered_s": totals["uncovered_s"],
                             "layer_self_s": dict(totals["layer_self_s"]),
                             "spans": totals["spans"]}
        print(f"smoke {workload}: {results[workload]}", file=sys.stderr)
    failed = sum(len(r["failures"]) for r in results.values())
    return {"correct": failed == 0, "attempted": len(results), "failed": failed,
            "workloads": results}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gammaspaces CLI benchmark")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 1:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "gammaspaces" / "cli.py").is_file():
        print(f"no gammaspaces sources under {ROOT / 'src'}; run from a full checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.smoke:
            result = smoke(deadline)
        else:
            result = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (WorkerTimeout, EOFError) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 3
    finally:
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0 if result["correct"] or not args.smoke else 1


if __name__ == "__main__":
    sys.exit(main())
