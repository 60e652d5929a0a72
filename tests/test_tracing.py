"""The benchmark's tracer can still wrap every entry point it names.

`perfbench/tracing.py` rebinds package functions and methods by name and
refuses a missing one, so a renamed entry point would otherwise show up
only when the benchmark runs.
"""

import importlib.util
import pathlib

from gammaspaces import classifying, simplicial

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_tracer_installs_and_uninstalls():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    validate, check = classifying.validate, simplicial.SimplicialMap.check
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.installed
        assert classifying.validate is not validate
        assert simplicial.SimplicialMap.check is not check
    finally:
        tracer.uninstall()
    assert not tracer.installed
    assert classifying.validate is validate
    assert simplicial.SimplicialMap.check is check
