"""The benchmark's tracer self-test, run by the test suite as well as by
`perfbench/run.py --trace 1`.

It fails when a change removes a function the tracer wraps, binds one where
the tracer cannot rebind it, or changes the default probe sweep's transform
count.
"""

import importlib.util
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_run(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its sibling workloads.py
    monkeypatch.delitem(sys.modules, "workloads", raising=False)
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_selftest_passes(tmp_path, monkeypatch):
    # every wrapped function is bound, traced transforms equal the fft calls,
    # and the default probe sweep makes exactly SELFTEST_TRANSFORMS of them
    assert _load_run(monkeypatch).tracer_selftest(tmp_path) == []
