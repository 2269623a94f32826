"""The benchmark's tracer self-test, run by the test suite as well as by
`perfbench/run.py --trace 1`, and a check that the benchmark's command
configs use only keys the CLI declares.

The self-test fails when a change removes a function the tracer wraps, binds
one where the tracer cannot rebind it, or changes the default probe sweep's
transform count.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from riesz import cli

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


def _load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", range(5))
def test_workload_configs_resolve_against_the_key_tables(tmp_path, seed):
    # every generated command, flags included, resolves without computing anything
    for workload in _load_workloads().WORKLOADS.values():
        for command in workload.make(seed):
            path = tmp_path / f"{command.out}.toml"
            path.write_text(command.config)
            args = cli._arg_parser().parse_args(
                [command.subcommand, "--config", str(path), *command.flags])
            config = cli.resolve_config(args)
            assert list(config) == list(cli.COMMANDS[command.subcommand][1])
