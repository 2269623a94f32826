"""The benchmark's tracer self-test, run by the test suite as well as by
`perfbench/run.py --trace 1`, a check that the benchmark's command configs
use only keys the CLI declares, and a check that every seed's probe config
runs its cells on the same grids.

The self-test fails when a change removes a function the tracer wraps, binds
one where the tracer cannot rebind it, or changes the default probe sweep's
transform count.  A second test traces one small config of every subcommand
and fails when any of them makes an fftn/ifftn call that is not a traced
transform.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from riesz import cli, probes

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


NORMS = '["lp(p=1)","weighted(p=2,a=0.5)","herz(alpha=0.5,p=2,q=1)",' \
        '"besov(alpha=0,p=2,q=2,levels=3)","triebel(alpha=0,p=2,q=2,levels=3)","ap(a=0.5,p=2)"]'

# One small config of every subcommand, in order: norms reads apply's dump.
TRACED_COMMANDS = (
    ("spectrum-map", "re=[-0.5,1.5,3]", "im=[-1.0,1.0,3]", "p=1.0", "ns=[8,16]"),
    ("probe", "lambdas=[0.5]", "ps=[1.0,2.0]", "ns=[4,5,6,8]"),
    ("resolvent-verify", "direction=both", "grid_size=256", "grid_half_width=20.0",
     "op_fields=1"),
    ("kernel-decay", "grid_size=512", "grid_half_width=32.0", "n_min=20", "n_max=24"),
    ("mikhlin", "symbol=bochner(delta=1)", "base_points=64", "refinements=1"),
    ("apply", "symbol=bochner(delta=1)", "field=random(band=2)", "grid_dim=2",
     "grid_size=64", "grid_half_width=6.0"),
    ("norms", "field=apply/fields/output", f"norms={NORMS}"),
)


def test_the_tracer_sees_every_transform_of_every_subcommand(tmp_path, monkeypatch):
    # a transform made outside the two traced functions would show here as
    # more fftn/ifftn calls than traced transforms
    run = _load_run(monkeypatch)
    transforms = {}
    for command, *settings in TRACED_COMMANDS:
        out = command.split("-")[0]
        argv = [sys.executable, str(run.TRACER), f"{out}.spans.json", "--", command,
                "--out", out, "--workers", "1",
                *(arg for text in settings for arg in ("--set", text))]
        if command == "apply":
            argv.append("--dump-field")
        proc = run.Proc(argv, tmp_path, run.child_env(), tmp_path / f"{out}.log")
        assert proc.exit == 0, (tmp_path / f"{out}.log").read_text()
        process = json.loads((tmp_path / f"{out}.spans.json").read_text())
        assert run.tracer_problems([process]) == []
        transforms[command] = process["fft_calls"]
    # every subcommand but the Mikhlin screen transforms something
    assert [c for c, n in transforms.items() if n == 0] == ["mikhlin"]


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


def test_the_benchmark_probe_runs_the_same_grids_for_every_seed(tmp_path):
    # the seeded rho in [0.5, 0.55) moves no cell's grid, so every seed does
    # equal work; the sizes come from the config alone, with no sweep run
    sizes = []
    for seed in range(10):
        (command,) = _load_workloads().make_probe(seed)
        path = tmp_path / "probe.toml"
        path.write_text(command.config)
        cfg = cli.resolve_config(cli._arg_parser().parse_args(["probe", "--config", str(path)]))
        grid = probes.probe_grid(max(cfg["ns"]), cfg["rho"], dim=cfg["grid_dim"])
        sizes.append((grid.size, cli._baseband_sizes(grid, cfg["ns"], cfg["rho"], cfg["ps"],
                                                     cfg["weight_a"])))
    assert sizes == [(1024, {1.0: {4: 1024, 5: 1024, 6: 1024, 8: 512},
                             2.0: {4: 64, 5: 64, 6: 64, 8: 32},
                             4.0: {4: 128, 5: 128, 6: 128, 8: 64}})] * 10
