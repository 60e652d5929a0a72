"""The shipped scripts run end to end against the library."""

import importlib.util
import json
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_delooping_survey():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "delooping_survey.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    flags = re.findall(r"expected-match \[(.*)\]", proc.stdout)
    assert len(flags) == 4
    assert not any("!" in f for f in flags)
    assert "'1': [[1, 0], [1, 1]]" in proc.stdout


def test_second_delooping():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "second_delooping.py")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert re.match(r"imported: peak RSS \d+\.\d MB\n"
                    r"levels: \[1, 2, 16, 512, 65536\]  \(bar \d+\.\d+s, homology \d+\.\d+s, "
                    r"peak RSS \d+\.\d MB\)\n", proc.stdout)
    assert "MISMATCH" not in proc.stdout


def test_ladder_runs_its_fastest_rung():
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "ladder.py"), "klein_k1_h4"],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    match = re.fullmatch(r"klein_k1_h4 +\d+\.\d\d s +\d+\.\d MB  sha256 ([0-9a-f]{64})\n",
                         proc.stdout)
    assert match, proc.stdout
    # the benchmark's em1_klein op classifies the same presheaf the same way
    digests = json.loads((ROOT / "perfbench" / "digests.json").read_text())
    assert match[1] == digests["classify:group_klein"]["sha256"]


def test_committed_fixtures_match_build_fixtures():
    spec = importlib.util.spec_from_file_location("build_fixtures",
                                                  ROOT / "scripts" / "build_fixtures.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # defines FIXTURES; main() would write the files
    committed = sorted(path.name for path in (ROOT / "fixtures").iterdir())
    assert committed == sorted(module.FIXTURES)
    for name, algebra in module.FIXTURES.items():
        expected = json.dumps(algebra.to_json(), sort_keys=True, indent=2) + "\n"
        assert (ROOT / "fixtures" / name).read_text() == expected, name
