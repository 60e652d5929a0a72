"""The shipped scripts run end to end against the library."""

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
    assert "levels: [1, 2, 16, 512, 65536]" in proc.stdout
    assert "MISMATCH" not in proc.stdout
