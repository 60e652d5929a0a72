"""The shipped scripts run end to end against the library."""

import hashlib
import importlib.util
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_ladder_runs_its_fastest_rung():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ladder.py"), "klein_k1_h4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    figures = r" +\d+\.\d{3} s +\d+\.\d{3} s CPU +\d+\.\d MB  "
    match = re.fullmatch(f"baseline{figures}import gammaspaces.cli\n"
                         f"klein_k1_h4{figures}sha256 ([0-9a-f]{{64}})\n", proc.stdout)
    assert match, proc.stdout
    # the benchmark's em1_klein op classifies the same presheaf the same way
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert match[1] == digests["classify:group_klein"]["sha256"]


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines the script's names; main() is not called
    return module


def test_ladder_fails_a_report_that_misses_its_oracle():
    verdict = load_script("ladder").verdict
    comparisons = [{"degree": 0, "match": True}, {"degree": 1, "match": None},
                   {"degree": 2, "match": False}, {"degree": 3, "match": False}]
    report = {"meta": {"seed": 0}, "delooping": {"oracle_comparisons": comparisons}}
    assert verdict(report) == (False, "oracle mismatch in degree 2")
    # a degree with no expected group is no mismatch, and `meta` is not digested
    comparisons[2:] = []
    body = json.dumps({"delooping": {"oracle_comparisons": comparisons}}, sort_keys=True)
    assert verdict(report) == (True, f"sha256 {hashlib.sha256(body.encode()).hexdigest()}")
    assert verdict({**report, "meta": {}}) == verdict(report)


def test_committed_fixtures_match_build_fixtures():
    module = load_script("build_fixtures")  # main() would write the files
    committed = sorted(path.name for path in (ROOT / "fixtures").iterdir())
    assert committed == sorted(module.FIXTURES)
    for name, algebra in module.FIXTURES.items():
        expected = json.dumps(algebra.to_json(), sort_keys=True, indent=2) + "\n"
        assert (ROOT / "fixtures" / name).read_text() == expected, name
