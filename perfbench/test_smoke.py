"""Checks of the benchmark harness itself.

    python -m pytest perfbench/test_smoke.py -q

The smoke run drives one traced op of every workload through set-up, the
worker, the correctness gate and the tracer (about 10 s).
"""

import json
import subprocess
import sys
import types
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

HERE = Path(__file__).resolve().parent
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())
CLASSIFY_LAYERS = {"cli", "presheaves", "simplicial", "classifying", "homology"}


def test_smoke_run_passes_the_gate():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == len(workloads.WORKLOADS)
    for workload, summary in result["workloads"].items():
        assert summary["spans"] > 1, workload
        layers = {layer for layer, s in summary["layer_self_s"].items() if s > 0}
        if workload in workloads.CLASSIFY:
            assert layers == CLASSIFY_LAYERS, workload
        else:
            assert layers == {"cli", "presheaves"}, workload
        # the module spans cover the op; argument parsing and dispatch are left
        assert 0 < summary["uncovered_s"] < 0.05 * summary["wall_s"], workload


def test_timed_run_prints_the_end_to_end_metrics():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "bar2_z2",
                           "--seed", "3", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert {name: m["unit"] for name, m in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_calibrator_times_its_block_and_times_scale_with_it():
    import time
    calibrator = run.Worker(None, time.monotonic() + 60, "test")
    try:
        assert calibrator.workdir is None
        assert 0 < calibrator.calibrate() < 10
        calibrator.close()
    finally:
        calibrator.kill()
    assert calibrator.proc.returncode == 0
    # a host running at half speed doubles wall time and calibration alike
    assert run.scaled(4.0, 2 * run.REF_CAL_S) == run.scaled(2.0, run.REF_CAL_S) == 2.0


def test_tracer_wraps_every_entry_point_and_restores_them():
    sys.path.insert(0, str(HERE.parent / "src"))
    from gammaspaces import cli, homology

    originals = (cli.cmd_classify, homology.smith_normal_form)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.cmd_classify is not originals[0]
        assert homology.smith_normal_form is not originals[1]
    finally:
        tracer.uninstall()
    assert (cli.cmd_classify, homology.smith_normal_form) == originals


def test_tracer_refuses_a_missing_entry_point():
    # a renamed entry point must fail the traced run, not read as zero time
    tracer = Tracer()
    with pytest.raises(AttributeError):
        tracer._rebind(types.ModuleType("renamed"), "smith_normal_form", "homology.snf",
                       "homology")
    with pytest.raises(AttributeError):
        tracer._rebind_method([type("Renamed", (), {})], "action_table",
                              "presheaves.action_table", "presheaves")


def test_gate_rejects_wrong_exit_digest_oracle_and_errors():
    op = workloads.Op("bousfield:x", ("check",), 1)
    digests = {"bousfield:x": {"exit": 1, "sha256": "abc"}}
    good = {"error": None, "exit": 1, "digest": "abc", "oracle_ok": True}
    assert run.check_reply(op, good, digests) is None
    assert run.check_reply(op, {**good, "exit": 0}, digests)
    assert run.check_reply(op, {**good, "digest": "abd"}, digests)
    assert run.check_reply(op, {**good, "oracle_ok": False}, digests)
    assert run.check_reply(op, {**good, "error": "KeyError: 'group'"}, digests)
    assert run.check_reply(op, good, {})


def test_every_op_has_a_digest_and_bousfield_expects_groups_only():
    algebras = workloads.load_algebras()
    digests = json.loads(workloads.DIGESTS_FILE.read_text())
    ops = [op for w in workloads.WORKLOADS for op in workloads.base_ops(w, algebras)]
    assert len(workloads.base_ops("strict_cli", algebras)) == 120
    assert {op.id for op in ops} == set(digests)
    passing = {op.id for op in ops if op.id.startswith("bousfield:") and op.expected_exit == 0}
    assert len(passing) == 8     # Z/1, Z/2, Z/3, Z/4, Klein four and the three actions


def test_seed_fixes_op_order_and_cli_seeds():
    algebras = workloads.load_algebras()

    def first_passes(seed):
        passes = workloads.passes("strict_cli", algebras, seed)
        return [[(op.id, argv) for op, argv in next(passes)] for _ in range(2)]

    assert first_passes(7) == first_passes(7)
    assert first_passes(7) != first_passes(8)


def test_metric_names_match_benchmark_json():
    assert {m["name"] for m in BENCHMARK["per_layer"]} == \
        set(run.LAYER_METRICS) | {"trace.run_s", "trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]
            if m["name"] in run.LAYER_METRICS} == \
        {name: unit for name, (unit, _) in run.LAYER_METRICS.items()}
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    plan = json.loads((HERE / "plan.json").read_text())
    predicted = {name for row in plan["predictions"] for name in row["metrics"]}
    assert predicted <= {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(plan["workloads"]) == set(workloads.WORKLOADS)
