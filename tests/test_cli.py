import csv
import json
import os
import re
import resource
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz import cli
from riesz.cli import (
    COMMANDS,
    UsageError,
    _int,
    main,
    parse_config_text,
    parse_field_spec,
    parse_symbol_spec,
)
from riesz.fieldio import load_field
from riesz.grid import GridSpec, random_band_limited
from riesz.multiplier import apply as apply_op
from riesz.multiplier import convolve
from riesz.neumann import (
    apply_forward,
    apply_reverse,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
)
from riesz.norms import build_lp_family, lp_norm
from riesz.probes import baseband_grid, probe_grid, spectrum_map
from riesz.symbols import Symbol, mikhlin_check
from test_perfbench import TRACED_COMMANDS  # one small config of every subcommand


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


def manifest_checks(out):
    """The manifest's check records by name, each checked to be a measured
    value against its bound with passed = value <= bound."""
    records = json.loads((out / "manifest.json").read_text())["checks"]
    for record in records:
        assert sorted(record) == ["bound", "name", "passed", "value"]
        assert isinstance(record["bound"], float)
        value = record["value"]
        assert isinstance(value, float) or value in ("nan", "inf")  # non-finite as str()
        assert record["passed"] == (float(value) <= record["bound"])
    return {record["name"]: record for record in records}


# -- config parsing ----------------------------------------------------------

def test_parse_config_values():
    text = """
    # a comment
    delta = 1.5
    n = 42
    name = "probe"
    flag = true
    ns = [8, 16, 32]
    """
    table = {"delta": (float, None), "n": (_int, None), "name": (str, None),
             "flag": (cli._bool, None), "ns": (cli._tuple_of(_int), None)}
    cfg = cli._resolve(table, parse_config_text(text), "test key")
    assert cfg == {"delta": 1.5, "n": 42, "name": "probe", "flag": True, "ns": (8, 16, 32)}
    assert isinstance(cfg["n"], int) and all(isinstance(n, int) for n in cfg["ns"])


def test_parse_config_diagnostics_carry_line_numbers():
    with pytest.raises(UsageError) as err:
        parse_config_text("good = 1\nbad value\n")
    assert "line 2" in str(err.value)
    # a value stays text until its key's parser reads it, so the key names a bad one
    with pytest.raises(UsageError) as err:
        cli._resolve(COMMANDS["kernel-decay"][1], parse_config_text("delta = {}\n"),
                     "kernel-decay config key")
    assert str(err.value).startswith("kernel-decay config key 'delta': ")
    # a repeated key would silently keep its last value
    with pytest.raises(UsageError) as err:
        parse_config_text("rho = 2.0\n# the second one\nrho = 0.5\n")
    assert str(err.value) == "config line 3: key 'rho' is already set on line 1"


_SMALL_GRID = "grid_size = 64\ngrid_half_width = 8\n"


@pytest.mark.parametrize("command, config, overrides, expected", [
    # a comment after a quoted value was read as part of the value
    ("apply", 'symbol = "bochner(delta=1)"  # the ball\n' + _SMALL_GRID, (),
     {"symbol": "bochner(delta=1)"}),
    # a bare string and a complex number ran from --set but not from a file
    ("apply", "symbol = bochner(delta=1)\n" + _SMALL_GRID, (), {"symbol": "bochner(delta=1)"}),
    ("kernel-decay", "z = 2+0j\nn_min = 20\nn_max = 22\n", (), {"z": {"re": 2.0, "im": 0.0}}),
    # true ran as the number 1
    ("resolvent-verify", "delta = true\n", (),
     "riesz: resolvent-verify config key 'delta': could not convert string to float: 'true'"),
    ("resolvent-verify", "op_fields = true\n", (),
     "riesz: resolvent-verify config key 'op_fields': could not convert string to float: 'true'"),
    ("probe", "", ("lambdas=[true]",),
     "riesz: probe config key 'lambdas': could not convert string to float: 'true'"),
    # a comma inside a quoted list item split the item; now the whole spec is named
    ("norms", 'field = "nowhere"\nnorms = ["lp(p=2)", "x,y"]\n', (),
     "riesz: norms: expected name(arg, ...), got 'x,y'"),
], ids=["comment-after-quotes", "bare-string", "complex", "true-as-float", "true-as-int",
        "true-in-list", "comma-in-quotes"])
def test_every_value_is_text_until_its_parser_reads_it(tmp_path, capsys, command, config,
                                                       overrides, expected):
    path = tmp_path / "run.toml"
    path.write_text(config)
    sets = [arg for pair in overrides for arg in ("--set", pair)]
    code, out = run_cli(tmp_path, command, "--config", str(path), *sets)
    stderr = capsys.readouterr().err
    if isinstance(expected, str):  # a usage error
        assert (code, stderr) == (1, expected + "\n")
        return
    assert (code, stderr) == (0, "")
    resolved = json.loads((out / "manifest.json").read_text())["config"]
    assert {key: resolved[key] for key in expected} == expected


# The benchmark's value of each key whose default is unset, and a sample value
# of each such key the benchmark leaves unset.
_UNSET_KEY_TEXT = {
    ("apply", "symbol"): '"bochner(delta=1)"', ("apply", "assert_output_l2_max"): "1e3",
    ("mikhlin", "symbol"): '"resolvent(z=2+0j,delta=1)"', ("mikhlin", "refinements"): "2",
    ("norms", "field"): '"apply/fields/output"', ("resolvent-verify", "r0"): "0.25",
    ("resolvent-verify", "truncation"): "12", ("kernel-decay", "r0"): "0.25",
    ("probe", "weight_a"): "0.5", ("probe", "assert_max_halving"): "0.75",
}


def _default_text(value):
    """A resolved default written as config text."""
    if isinstance(value, tuple):
        return "[" + ", ".join(map(_default_text, value)) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, complex):
        return str(value).strip("()")
    return json.dumps(value) if isinstance(value, str) else repr(value)


def _value_text(command, key, parse, default):
    """Config text for key: _UNSET_KEY_TEXT's value, or its default written out."""
    if (command, key) in _UNSET_KEY_TEXT:
        return _UNSET_KEY_TEXT[command, key]
    if parse is cli._linspace:
        return f"[{default[0]!r}, {default[-1]!r}, {len(default)}]"
    return _default_text(default)


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_file_and_set_resolve_alike(tmp_path, command):
    table = COMMANDS[command][1]
    texts = {key: _value_text(command, key, parse, default)
             for key, (parse, default) in table.items()}
    path = tmp_path / "all.toml"
    path.write_text("".join(f"{key} = {text}\n" for key, text in texts.items()))
    parser = cli._arg_parser()
    from_file = cli.resolve_config(parser.parse_args([command, "--config", str(path)]))
    sets = [arg for key, text in texts.items() for arg in ("--set", f"{key}={text}")]
    from_set = cli.resolve_config(parser.parse_args([command, *sets]))
    assert from_file == from_set
    for key, (_, default) in table.items():
        if (command, key) not in _UNSET_KEY_TEXT:
            assert from_file[key] == default and type(from_file[key]) is type(default)


def test_symbol_dsl():
    sym = parse_symbol_spec("product(bochner(delta=1),cutoff2(r0=0.25))")
    g_vals = sym.evaluate((np.array([0.0, 1.0, 1.5]),))
    assert g_vals[0] == 0.0  # cutoff2 vanishes at the origin
    assert g_vals[2] == 0.0
    scaled = parse_symbol_spec("scale(2.0, bochner(delta=1))")
    assert scaled.evaluate((np.array([0.0]),))[0] == pytest.approx(2.0)
    with pytest.raises(UsageError):
        parse_symbol_spec("warp(q=1)")
    with pytest.raises(UsageError):
        parse_symbol_spec("bochner(delta=)")


def _readme_key_tables():
    """Each subcommand's key column under README's "Config keys", in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n### Config keys\n", 1)[1].split("\n### ", 1)[0]
    tables, command = {}, None
    for line in section.splitlines():
        heading = re.fullmatch(r"`([a-z-]+)`( \(.*\))?", line)
        if heading:
            command = tables.setdefault(heading.group(1), [])
        elif command is not None and line.startswith("| `"):
            command.append(line.split("`")[1])
    return tables


def test_readme_lists_each_subcommands_keys_in_order():
    tables = _readme_key_tables()
    assert list(tables) == list(COMMANDS)
    for command, (_, keys) in COMMANDS.items():
        assert tables[command] == list(keys), command


# -- exit codes --------------------------------------------------------------

def test_missing_config_is_usage_error(tmp_path):
    code, out = run_cli(tmp_path, "probe", "--config", str(tmp_path / "nope.toml"))
    assert code == 1
    assert not (out / "probe.csv").exists()


def test_malformed_sweep_is_usage_error(tmp_path):
    cfg = tmp_path / "bad.toml"
    cfg.write_text("ns = [8]\n")
    code, out = run_cli(tmp_path, "probe", "--config", str(cfg))
    assert code == 1
    assert not (out / "probe.csv").exists()


def test_precondition_violation_is_usage_error(tmp_path):
    code, out = run_cli(tmp_path, "resolvent-verify", "--set", "z=0.5+0j")
    assert code == 1


@pytest.mark.parametrize("args", [
    ("kernel-decay", "--set", "delta=abc"),
    ("resolvent-verify", "--set", "band=abc"),
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=random(band=abc)"),
    ("kernel-decay", "--set", "alpha0=9"),  # seminorm order beyond dim + 1
    ("resolvent-verify", "--set", "grid_size=32", "--set", "grid_half_width=64"),  # xi_max < 1
    ("spectrum-map", "--set", "re=[0,1,0]"),
    ("spectrum-map", "--set", "im=[0,1,0]"),
    ("spectrum-map", "--set", "ns=[0,1]"),
    ("spectrum-map", "--set", "ns=[]"),
    ("spectrum-map", "--set", "p=0.5"),
    ("spectrum-map", "--set", "delta=-1"),
    ("spectrum-map", "--set", "pole_margin=-1"),
    ("spectrum-map", "--set", "rho=0"),
    ("probe", "--set", "lambdas=[nan]"),
    ("probe", "--set", "grid_dim=3"),
    ("probe", "--set", "ns=[1,2,3,4]", "--workers", "1"),  # below the plateau scale
    ("probe", "--set", "ns=[1,2,3,4]", "--workers", "2"),
    ("probe", "--set", "weight_a=5"),  # outside the A_p range
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=bump(radius=-1)"),
    ("apply", "--set", "symbol=bochner()"),
    # the finest level of a 3D screen would be 2049^3 points
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "grid_dim=3"),
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "base_points=0"),
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "refinements=-1"),
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "xi_max=-1"),
    ("resolvent-verify", "--set", "op_fields=0"),  # would pass the operator check vacuously
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=gaussian(width=0)"),
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=random(band=-1)"),
    ("spectrum-map", "--set", "ns=[1.5,2]"),
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=1024.7",
     "--set", "grid_half_width=16"),
    ("kernel-decay", "--set", "n_min=20.9"),
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "refinements=1.7"),
    ("spectrum-map", "--set", "re=[0,1,2.5]"),
    # rho**2 underflows to 0: the bump would be all zeros
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=bump(radius=1e-200)"),
    ("mikhlin", "--set", "symbol=bump(rho=1e-200)"),
    ("mikhlin", "--set", "symbol=bump(rho=1e200)"),  # rho**2 overflows
    # rho**2 is positive but the 2D normalising scale overflows
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_dim=2",
     "--set", "grid_size=64", "--set", "grid_half_width=8", "--set", "field=bump(radius=1e-155)"),
    # a 1D bump far inside one grid spacing: one huge sample and l2 = inf
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
     "--set", "grid_half_width=8", "--set", "field=bump(radius=1e-155)"),
    # width**2 underflows to 0: 0/0 at the origin and nan norms
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=gaussian(width=1e-200)"),
    ("norms", "--set", "field=TRUNCATED_DUMP"),
    ("kernel-decay", "--workers", "0"),
    ("kernel-decay", "--workers", "-3"),
    # resolvent-verify runs serially at any --workers and rejects the grid alike
    ("resolvent-verify", "--set", "grid_size=32", "--set", "grid_half_width=64",
     "--workers", "2"),
    # a grid key without grid_size would run on the default grid
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_dim=2",
     "--set", "grid_half_width=8"),
    ("kernel-decay", "--set", "grid_half_width=32"),
    # probe and spectrum-map size their own grid and would ignore these keys
    ("spectrum-map", "--set", "grid_dim=2"),
    ("spectrum-map", "--set", "grid_size=64"),
    ("spectrum-map", "--set", "grid_half_width=8"),
    ("probe", "--set", "grid_size=64"),
    ("probe", "--set", "grid_half_width=8"),
    # a spec argument the kind does not take would be dropped, and its default run
    ("apply", "--set", "symbol=bochner(delta=1,detla=3)"),
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=gaussian(widht=0.001)"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[besov(alpha=0,p=2,q=2,level=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[ap(a=0.5,p=2,levels=1)]"),
    ("apply", "--set", "symbol=bochner(delta=1,delta=3)"),
    # booleans are true or false, not truthy text
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
     "--set", "grid_half_width=8", "--set", "dump_fields=no"),
    ("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "assert_not_flagged=no"),
    # only apply writes field dumps
    ("kernel-decay", "--dump-field"),
    # a key repeated in one config file would silently keep its last value
    ("spectrum-map", "--config", "REPEATED_KEY_CONFIG"),
    # the tail tolerance: a traceback, a silent n0 + 1 truncation, and a
    # truncation that only underflow ends
    ("resolvent-verify", "--set", "tail_tol=-1"),
    ("resolvent-verify", "--set", "tail_tol=nan"),
    ("resolvent-verify", "--set", "tail_tol=0"),
    # a reverse ratio q/(1 - q) just below 1 needs over 100000 terms
    ("resolvent-verify", "--set", "direction=reverse", "--set", "r0=0.49999"),
    # an empty sweep or norm list would write only a CSV header and exit 0
    ("probe", "--set", "lambdas=[]"),
    ("probe", "--set", "ps=[]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[]"),
    # every point a pole: no probe is built, but p and delta are still checked
    ("spectrum-map", "--set", "delta=-1", "--set", "pole_margin=100"),
    ("spectrum-map", "--set", "p=0.5", "--set", "re=[0.5,0.5,1]", "--set", "im=[0,0,1]"),
    # a NaN bound is a bad input, not a failed check
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "assert_output_l2_max=nan"),
    ("resolvent-verify", "--set", "tol_operator=nan"),
    ("probe", "--set", "assert_zero_lambda_tol=nan"),
    ("probe", "--set", "assert_max_halving=nan"),
    # a halving bound with no lambda in (0, 1] would pass with nothing checked
    ("probe", "--set", "lambdas=[2.0]", "--set", "ps=[2.0]", "--set", "ns=[8,16,32,64]",
     "--set", "assert_max_halving=0.01"),
    # a negative A_p level: a traceback at -1, no cube and a value of 0 at -12
    ("norms", "--set", "field=DUMP", "--set", "norms=[ap(a=0.5,p=2,level=-1)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[ap(a=0.5,p=2,level=-12)]"),
    # a large A_p level: 2^52 quadrature nodes per cube, a 32-PiB request
    ("norms", "--set", "field=DUMP", "--set", "norms=[ap(a=0.5,p=2,level=40)]"),
    # block and Herz exponents: q = 0 divided by zero, the rest gave a meaningless value
    ("norms", "--set", "field=DUMP", "--set", "norms=[besov(alpha=0,p=2,q=0,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[triebel(alpha=0,p=2,q=0,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[besov(alpha=0,p=2,q=-1,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[triebel(alpha=0,p=2,q=-2,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[besov(alpha=0,p=2,q=inf,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[besov(alpha=nan,p=2,q=2,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[triebel(alpha=inf,p=2,q=2,levels=3)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[herz(alpha=0.5,p=inf,q=1)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[herz(alpha=0.5,p=2,q=inf)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[herz(alpha=inf,p=2,q=1)]"),
    # an empty item ran a different sweep, or built a spec, without a word
    ("probe", "--set", "ns=[8,,16,32,64]"),
    ("probe", "--set", "lambdas=[,0.5]"),
    ("probe", "--set", "ps=[2,,]"),
    ("probe", "--set", "ps=[,]"),
    ("spectrum-map", "--set", "re=[0.5,,2,3]"),
    ("apply", "--set", "symbol=bochner(,delta=1,)"),
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=random(band=2,,)"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[lp(p=2),,lp(p=1)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[lp(,p=2)]"),
    # a given r0 skips choose_r0, so the plan itself must reject z on [0, 1]
    ("resolvent-verify", "--set", "z=0.5+0j", "--set", "r0=0.05"),
    ("resolvent-verify", "--set", "z=1", "--set", "r0=0.1"),
    ("resolvent-verify", "--set", "z=0", "--set", "r0=0.1"),
    ("kernel-decay", "--set", "z=0.5", "--set", "r0=0.05"),
    # a non-finite number: NaN norms, a NaN output or NaN rows with exit 0, or
    # a message about something else
    ("apply", "--set", "symbol=resolvent(z=2,delta=1)", "--set", "field=random(band=2)",
     "--set", "grid_size=64", "--set", "grid_half_width=inf"),
    ("kernel-decay", "--set", "delta=inf"),
    ("spectrum-map", "--set", "delta=inf"),
    ("mikhlin", "--set", "symbol=bochner(delta=inf)"),
    ("mikhlin", "--set", "symbol=resolvent(z=2+nanj,delta=1)"),
    ("mikhlin", "--set", "symbol=resolvent(z=infj,delta=1)"),
    ("apply", "--set", "symbol=scale(nan,bochner(delta=1))"),
    ("spectrum-map", "--set", "im=[0.5,nan,2]"),
    ("resolvent-verify", "--set", "z=2+nanj"),
    ("apply", "--set", "symbol=resolvent(z=nan,delta=1)"),
    ("spectrum-map", "--set", "re=[nan,1,3]"),
    ("probe", "--set", "rho=inf"),
    # a finite value whose grid spacing, its square or the square of rho
    # overflows or underflows: NaN norms with exit 0, or a traceback
    ("apply", "--set", "symbol=resolvent(z=2,delta=1)", "--set", "field=random(band=2)",
     "--set", "grid_size=64", "--set", "grid_half_width=1e308"),
    ("apply", "--set", "symbol=resolvent(z=2,delta=1)", "--set", "field=random(band=2)",
     "--set", "grid_size=64", "--set", "grid_half_width=1e-320"),
    ("apply", "--set", "symbol=resolvent(z=2,delta=1)", "--set", "field=random(band=2)",
     "--set", "grid_dim=2", "--set", "grid_size=64", "--set", "grid_half_width=1e200"),
    ("apply", "--set", "symbol=resolvent(z=2,delta=1)", "--set", "field=random(band=2)",
     "--set", "grid_dim=2", "--set", "grid_size=64", "--set", "grid_half_width=1e-200"),
    ("probe", "--set", "rho=1e308"),
    # |f|^p at a huge finite exponent underflows on every cell: a division by
    # the zero norm, or a norm of 0 with exit 0
    ("probe", "--set", "ps=[1e300]", "--set", "lambdas=[0.5]", "--set", "ns=[4,5,6,8]",
     "--workers", "1"),
    ("probe", "--set", "ps=[1e300]", "--set", "lambdas=[0.5]", "--set", "ns=[4,5,6,8]",
     "--workers", "2"),
    ("spectrum-map", "--set", "p=1e300"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[lp(p=1e300)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[herz(alpha=0.5,p=1e300,q=1)]"),
    ("norms", "--set", "field=DUMP", "--set", "norms=[weighted(p=1e300,a=0.5)]"),
    # a series that cannot be summed: 10^8 ball samples, a loop of n0 ~ 2e20
    # terms, or a ZeroDivisionError where q/(1 - q) rounds to 1
    ("resolvent-verify", "--set", "truncation=100000000"),
    ("resolvent-verify", "--set", "delta=1e-20"),
    ("resolvent-verify", "--set", "delta=1e-20", "--set", "direction=reverse"),
    # xi0 rounds onto the unit sphere, so the localizer plateau has radius 0:
    # a ZeroDivisionError traceback in the plateau rule's message
    ("probe", "--set", "lambdas=[1e-17]", "--set", "ps=[2.0]", "--set", "ns=[8,16,32,64]"),
    ("probe", "--set", "delta=1e-300", "--set", "lambdas=[0.5]", "--set", "ps=[2.0]",
     "--set", "ns=[8,16,32,64]"),
    # width**2 overflows: an OverflowError traceback
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=gaussian(width=1e200)"),
    # |xi|^2 overflows on the screen's grid: nan sups and growths with exit 0
    ("mikhlin", "--set", "symbol=scalar(1)", "--set", "xi_max=1e300"),
], ids=["delta", "band", "random-band", "alpha0", "grid-window", "map-re-steps",
        "map-im-steps", "map-scale-zero", "map-no-scales", "map-p", "map-delta",
        "map-pole-margin", "map-rho", "probe-nan-lambda", "probe-grid-dim",
        "probe-scales-serial", "probe-scales-pool", "probe-weight", "bump-radius",
        "bochner-no-delta", "mikhlin-dim", "mikhlin-base-points", "mikhlin-refinements",
        "mikhlin-xi-max", "op-fields", "gaussian-width", "random-band-negative",
        "map-fractional-scale", "fractional-grid-size", "fractional-n-min",
        "fractional-refinements", "map-fractional-steps", "bump-radius-underflow",
        "bump-rho-underflow", "bump-rho-overflow", "bump-radius-2d-scale",
        "bump-radius-cells", "gaussian-width-cells", "norms-truncated-dump", "workers-zero",
        "workers-negative", "grid-window-pool", "grid-dim-no-size",
        "grid-half-width-no-size", "map-grid-dim", "map-grid-size", "map-grid-half-width",
        "probe-grid-size", "probe-grid-half-width", "symbol-unknown-argument",
        "field-unknown-argument", "besov-unknown-argument", "ap-unknown-argument",
        "symbol-argument-twice", "dump-fields-not-bool", "assert-not-flagged-not-bool",
        "dump-field-flag-not-apply", "config-repeated-key", "tail-tol-negative",
        "tail-tol-nan", "tail-tol-zero", "tail-tol-unreachable", "probe-no-lambdas",
        "probe-no-ps", "norms-empty", "map-delta-all-poles", "map-p-all-poles",
        "output-l2-max-nan", "tol-operator-nan", "zero-lambda-tol-nan", "max-halving-nan",
        "max-halving-no-lambda", "ap-level-negative", "ap-level-no-cube", "ap-level-large",
        "besov-q-zero", "triebel-q-zero", "besov-q-negative", "triebel-q-negative",
        "besov-q-inf", "besov-alpha-nan", "triebel-alpha-inf", "herz-p-inf", "herz-q-inf",
        "herz-alpha-inf", "empty-item-ns", "empty-item-lambdas", "empty-item-two-trailing",
        "empty-item-comma-only", "empty-item-linspace", "empty-item-symbol",
        "empty-item-field", "empty-item-norms", "empty-item-norm-argument",
        "plan-z-on-segment", "plan-z-at-one", "plan-z-at-zero",
        "kernel-decay-z-on-segment", "grid-half-width-inf", "kernel-decay-delta-inf",
        "map-delta-inf", "bochner-delta-inf", "resolvent-z-nan-imag", "resolvent-z-inf-imag",
        "scale-nan", "map-im-nan", "plan-z-nan", "resolvent-z-nan", "map-re-nan",
        "probe-rho-inf", "grid-half-width-overflow", "grid-half-width-underflow",
        "grid-half-width-2d-overflow", "grid-half-width-2d-underflow", "probe-rho-overflow",
        "probe-p-underflow-serial", "probe-p-underflow-pool", "map-p-underflow",
        "lp-p-underflow", "herz-p-underflow", "weighted-p-underflow",
        "truncation-past-term-bound", "delta-tiny-forward", "delta-tiny-reverse",
        "plateau-empty-tiny-lambda", "plateau-empty-tiny-delta", "gaussian-width-overflow",
        "mikhlin-xi-max-overflow"])
def test_bad_value_is_one_line_usage_error(tmp_path, capsys, args):
    if any(a.endswith("DUMP") for a in args):
        base = tmp_path / "dump" / "fields" / "output"
        # 256 points keep the besov blocks inside the frequency window
        assert main(["apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=256",
                     "--set", "grid_half_width=8", "--dump-field",
                     "--out", str(tmp_path / "dump")]) == 0
        if "field=TRUNCATED_DUMP" in args:
            csv_path = base.with_suffix(".csv")
            csv_path.write_text("".join(csv_path.read_text().splitlines(True)[:40]))
        args = tuple(a.replace("TRUNCATED_DUMP", str(base)).replace("DUMP", str(base))
                     for a in args)
        capsys.readouterr()
    if "REPEATED_KEY_CONFIG" in args:
        config = tmp_path / "repeated.toml"
        config.write_text("rho = 2.0\nrho = 0.5\n")
        args = tuple(str(config) if a == "REPEATED_KEY_CONFIG" else a for a in args)
    code, out = run_cli(tmp_path, *args)
    assert code == 1
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith("riesz: ")
    assert not (out / f"{args[0]}.csv").exists()
    assert not (out / "fields").exists()


def test_a_tiny_delta_sums_no_series_in_kernel_decay(tmp_path):
    # n0 ~ 2e300 there, but kernel-decay sums only its n_min..n_max rows
    code, out = run_cli(tmp_path, "kernel-decay", "--set", "delta=1e-300")
    assert code == 0
    assert len((out / "kernel-decay.csv").read_text().splitlines()) == 1 + 41


@pytest.mark.parametrize("args, path", [
    (("resolvent-verify",), "out"),
    (("apply", "--set", "symbol=bochner(delta=1)", "--dump-field"), "out/fields"),
], ids=["out", "dump-fields"])
def test_an_output_path_that_is_a_file_is_a_usage_error(tmp_path, capsys, transforms, args, path):
    (tmp_path / path).parent.mkdir(exist_ok=True)
    (tmp_path / path).write_text("kept\n")
    code, out = run_cli(tmp_path, *args)
    assert code == 1
    assert capsys.readouterr().err == (
        f"riesz: output directory {str(tmp_path / path)!r}: File exists\n")
    assert (tmp_path / path).read_text() == "kept\n"
    assert len(transforms) == 0  # before any compute
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("command, setting", [
    # probe and spectrum-map size their own grid
    ("spectrum-map", "grid_dim=2"),
    ("spectrum-map", "grid_size=64"),
    ("spectrum-map", "grid_half_width=8"),
    ("probe", "grid_size=64"),
    ("probe", "grid_half_width=8"),
    # misspelt keys
    ("spectrum-map", "nss=3"),
    ("probe", "lamdbas=[1]"),
    ("kernel-decay", "asert_ratio_bound=false"),
    ("mikhlin", "assert_not_flaged=true"),
], ids=lambda v: v.partition("=")[0])
def test_unknown_key_names_command_and_key(tmp_path, capsys, command, setting):
    code, out = run_cli(tmp_path, command, "--set", setting)
    assert code == 1
    key = setting.partition("=")[0]
    known = ", ".join(COMMANDS[command][1])
    assert capsys.readouterr().err == (
        f"riesz: {command} config key {key!r} is unknown (known: {known})\n")
    assert not (out / f"{command}.csv").exists()


def test_manifest_records_the_resolved_config(tmp_path):
    code, out = run_cli(tmp_path, "kernel-decay", "--set", "z=2+0.5j",
                        "--set", "n_min=20", "--set", "n_max=22")
    assert code == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert list(config) == list(COMMANDS["kernel-decay"][1])  # every key, defaults included
    assert config["z"] == {"re": 2.0, "im": 0.5}
    assert config["n_max"] == 22 and config["delta"] == 1.0 and config["grid_size"] == 4096
    assert config["r0"] is None and config["assert_ratio_bound"] is True


@pytest.mark.parametrize("value", [2, 2.0, "2", "2.0", " 2 "])
def test_integer_values_pass_whole(value):
    assert _int(value) == 2 and isinstance(_int(value), int)


@pytest.mark.parametrize("value", [2.7, "2.7", float("inf"), float("nan"), "abc", [2]])
def test_integer_values_are_not_truncated(value):
    with pytest.raises((TypeError, ValueError)):
        _int(value)


def test_missing_symbol_argument_is_named(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "apply", "--set", "symbol=bochner()")
    assert code == 1
    assert capsys.readouterr().err == "riesz: symbol: bochner argument 'delta' is required\n"


_DSL_TOKENS = st.sampled_from([
    "bochner", "resolvent", "cutoff1", "cutoff2", "bump", "scalar", "product", "sum",
    "scale", "gaussian", "random", "delta", "z", "r0", "rho", "width", "radius", "band",
    "(", ")", "[", "]", ",", "=", " ", '"', "#", "\n", "0", "1", "-1", "0.25", "2+1j",
    "1e400", "nan", "inf", "true", "abc",
])
_TEXT = st.one_of(st.text(max_size=40), st.lists(_DSL_TOKENS, max_size=24).map("".join))


@settings(max_examples=300, deadline=None)
@given(_TEXT)
def test_parsers_raise_only_value_errors(text):
    # every bad input must reach main's ValueError handler, never a traceback
    grid = GridSpec(1, 64, 8.0)
    for parse in (parse_config_text, parse_symbol_spec,
                  lambda t: parse_field_spec(t, grid, np.random.default_rng(0))):
        try:
            parse(text)
        except ValueError:
            pass


def test_spectrum_map_passes_rho_to_the_probes(tmp_path):
    code, out = run_cli(
        tmp_path, "spectrum-map", "--set", "re=[2,2,1]", "--set", "im=[0.5,0.5,1]",
        "--set", "ns=[8,16]", "--set", "rho=2.0",
    )
    assert code == 0
    with open(out / "spectrum-map.csv", newline="") as handle:
        (row,) = csv.DictReader(handle)
    (expected,) = spectrum_map([2 + 0.5j], 2.0, 1.0, n_values=(8, 16), rho=2.0)
    assert float(row["lower_bound"]) == expected["lower_bound"]


def test_probe_zero_level_run(tmp_path):
    cfg = tmp_path / "probe.toml"
    cfg.write_text('lambdas = [0.0]\nps = [2.0]\nns = [8, 16, 32, 64]\n')
    code, out = run_cli(tmp_path, "probe", "--config", str(cfg))
    assert code == 0
    lines = (out / "probe.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    ratios = [float(line.split(",")[header.index("ratio")]) for line in lines[1:]]
    assert len(ratios) == 4
    assert max(ratios) <= 1e-12
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "probe"
    assert manifest_checks(out)["zero_lambda_annihilation"]["passed"]


def test_the_default_probe_sweep_runs_each_cell_on_its_baseband(tmp_path, transforms):
    # 3 lambdas at each (p, N) make 3 cells of 3 transforms, all on the
    # (p, N)-th baseband, never the sweep grid's 16384 points: p = 1 from
    # 8192 points at N = 8 down to 512 at N = 128; the exact even-p grids
    # are 16 times smaller at p = 2 and 8 times at p = 4
    code, out = run_cli(tmp_path, "probe", "--workers", "1")
    assert code == 0
    assert Counter(transforms) == {(8192,): 9, (4096,): 9, (2048,): 9, (1024,): 18,
                                   (512,): 27, (256,): 18, (128,): 18, (64,): 18, (32,): 9}
    assert len(transforms) == 135  # perfbench's SELFTEST_TRANSFORMS
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["extras"]["grid"]["size"] == 16384
    assert manifest["extras"]["baseband_sizes"] == {
        "1.0": {"8": 8192, "16": 4096, "32": 2048, "64": 1024, "128": 512},
        "2.0": {"8": 512, "16": 256, "32": 128, "64": 64, "128": 32},
        "4.0": {"8": 1024, "16": 512, "32": 256, "64": 128, "128": 64}}


def test_the_benchmark_probe_shrinks_its_n8_cells(tmp_path, transforms):
    # the benchmark's 2D sweep grid is 1024^2 at this rho; its p = 1 cells
    # keep it at N = 4, 5, 6 and run on 512^2 at N = 8, while the exact
    # even-p grids are 64^2 and 32^2 at p = 2, 128^2 and 64^2 at p = 4
    code, out = run_cli(tmp_path, "probe", "--workers", "1", "--set", "grid_dim=2",
                        "--set", "lambdas=[0.5,1.0]", "--set", "ps=[1.0,2.0,4.0]",
                        "--set", "ns=[4,5,6,8]", "--set", "rho=0.5190510344997886")
    assert code == 0
    assert Counter(transforms) == {(1024, 1024): 18, (512, 512): 6, (128, 128): 18,
                                   (64, 64): 24, (32, 32): 6}
    assert json.loads((out / "manifest.json").read_text())["extras"]["baseband_sizes"] == {
        "1.0": {"4": 1024, "5": 1024, "6": 1024, "8": 512},
        "2.0": {"4": 64, "5": 64, "6": 64, "8": 32},
        "4.0": {"4": 128, "5": 128, "6": 128, "8": 64}}


@pytest.mark.parametrize("workers", ["1", "2"])
def test_a_zero_probe_scale_is_a_usage_error(tmp_path, capsys, transforms, workers):
    # N = 0 used to divide rho in the plateau check: a ZeroDivisionError traceback
    code, out = run_cli(tmp_path, "probe", "--set", "ns=[0,8,16,32]", "--workers", workers)
    assert code == 1
    assert capsys.readouterr().err == (
        "riesz: probe scales must be integers >= 1, got [0, 8, 16, 32]\n")
    assert transforms == [] and not (out / "probe.csv").exists()


def test_resolvent_verify_run_and_csv_schema(tmp_path):
    code, out = run_cli(
        tmp_path, "resolvent-verify", "--set", "z=2+0j", "--set", "direction=forward"
    )
    assert code == 0
    lines = (out / "resolvent-verify.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header == ["direction", "n", "seminorm", "certified_tail",
                      "reconstruction_error", "contraction_sup", "operator_rel_err"]
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    assert all(row["direction"] == "forward" for row in rows)
    # one row per truncated tail index, seminorms decaying along it
    seminorms = [float(row["seminorm"]) for row in rows]
    assert all(b < a for a, b in zip(seminorms, seminorms[1:]))
    first = rows[0]
    assert float(first["reconstruction_error"]) <= float(first["certified_tail"]) + 1e-10
    assert float(first["operator_rel_err"]) <= 1e-8
    checks = manifest_checks(out)
    assert sorted(checks) == ["forward_operator", "forward_reconstruction"]
    assert checks["forward_operator"]["value"] == float(first["operator_rel_err"])
    assert checks["forward_reconstruction"]["bound"] == float(first["certified_tail"]) + 1e-10
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["grid"] == {"dim": 1, "size": 2048, "half_width": 40.0}
    plan = extras["forward_plan"]
    assert sorted(plan) == ["n0", "q", "r0", "tail_series_bound", "truncation"]
    assert isinstance(plan["n0"], int) and isinstance(plan["truncation"], int)
    assert isinstance(plan["q"], float) and 0 < plan["tail_series_bound"] < 1


# resolvent-verify's header is pinned above and spectrum-map's in test_spectrum_map_run
@pytest.mark.parametrize("args, header", [
    (("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
      "--set", "grid_half_width=8"), "quantity,l1,l2,sup"),
    (("kernel-decay", "--set", "n_min=20", "--set", "n_max=22"), "n,seminorm,ratio,ratio_bound"),
    (("probe", "--set", "lambdas=[0.5]", "--set", "ps=[2]", "--set", "ns=[8,16,32,64]"),
     "lambda,lambda_achieved,xi0,p,delta,n,ratio,slope"),
    (("norms", "--set", "norms=[lp(p=2)]"), "kind,spec,value"),
    (("mikhlin", "--set", "symbol=bochner(delta=1)", "--set", "kmax=1"),
     "k,level,points,sup,growth,flagged"),
], ids=["apply", "kernel-decay", "probe", "norms", "mikhlin"])
def test_csv_header_is_the_rows_keys(tmp_path, args, header):
    if args[0] == "norms":
        dump = tmp_path / "dump"
        assert main(["apply", "--set", "symbol=bochner(delta=1)", "--dump-field",
                     "--out", str(dump)]) == 0
        args = (*args, "--set", f"field={dump / 'fields' / 'output'}")
    code, out = run_cli(tmp_path, *args)
    assert code == 0
    assert (out / f"{args[0]}.csv").read_text().splitlines()[0] == header


def _finite_number_keys():
    """(command, key) of every declared config key whose parser reads a real or complex number."""
    return [(command, key) for command, (_, table) in COMMANDS.items()
            for key, (parse, _) in table.items() if parse in (cli._real, cli._complex)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("command, key", _finite_number_keys())
def test_non_finite_number_is_rejected_before_any_compute(tmp_path, capsys, command, key, value):
    settings = {"apply": ["symbol=bochner(delta=1)"], "mikhlin": ["symbol=bochner(delta=1)"]}
    settings = settings.get(command, []) + (["grid_size=64"] if key == "grid_half_width" else [])
    args = [arg for setting in settings for arg in ("--set", setting)]
    code, out = run_cli(tmp_path, command, *args, "--set", f"{key}={value}")
    assert code == 1
    assert capsys.readouterr().err == (
        f"riesz: {command} config key {key!r}: must be finite, got {value!r}\n")
    assert not out.exists()  # rejected as the config resolves, before the output directory


@pytest.mark.parametrize("key, text, item", [("re", "[nan,1,3]", "nan"),
                                             ("im", "[0.5,nan,2]", "nan"),
                                             ("re", "[0,inf,3]", "inf")])
def test_non_finite_linspace_end_is_rejected_before_any_compute(tmp_path, capsys, key, text,
                                                                item):
    code, out = run_cli(tmp_path, "spectrum-map", "--set", f"{key}={text}")
    assert code == 1
    assert capsys.readouterr().err == (
        f"riesz: spectrum-map config key {key!r}: must be finite, got {item!r}\n")
    assert not out.exists()


def test_linspace_whose_span_overflows_is_rejected_before_any_compute(tmp_path, capsys):
    code, out = run_cli(tmp_path, "spectrum-map", "--set", "re=[-1e308,1e308,3]")
    assert code == 1
    assert capsys.readouterr().err == (
        "riesz: spectrum-map config key 're': the span from -1e+308 to 1e+308 overflows\n")
    assert not out.exists()


def test_non_finite_dump_sample_is_named(tmp_path, capsys):
    dump = tmp_path / "dump"
    assert main(["apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
                 "--set", "grid_half_width=8", "--dump-field", "--out", str(dump)]) == 0
    csv_path = dump / "fields" / "output.csv"
    lines = csv_path.read_text().splitlines(True)
    lines[6] = "5,nan," + lines[6].split(",")[2]  # line 0 is the header
    csv_path.write_text("".join(lines))
    capsys.readouterr()
    code, out = run_cli(tmp_path, "norms", "--set", f"field={dump / 'fields' / 'output'}")
    assert code == 1
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1
    assert stderr[0].startswith(f"riesz: {csv_path}: the sample at index 5 is (nan")
    assert not (out / "norms.csv").exists() and not (out / "norms.json").exists()


_SPEC_TABLES = {"symbol": cli.SYMBOL_ARGS, "field": cli.FIELD_ARGS, "norms": cli.NORM_ARGS}
# a valid value of every spec argument, so that only the one set to nan or inf is rejected
_VALID_ARGS = {"delta": "1", "z": "2", "r0": "0.1", "rho": "1", "width": "1", "radius": "1",
               "band": "2", "p": "2", "a": "0.5", "alpha": "0", "q": "2", "levels": "3",
               "level": "0"}


def _finite_spec_arguments():
    """(where, kind, argument) of every spec argument whose parser reads a real or complex number."""
    return [(where, kind, arg) for where, kinds in _SPEC_TABLES.items()
            for kind, table in kinds.items()
            for arg, (parse, _) in table.items() if parse in (cli._real, cli._complex)]


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("where, kind, arg", _finite_spec_arguments())
def test_non_finite_spec_argument_is_one_line_usage_error(tmp_path, capsys, where, kind, arg,
                                                          value):
    spec = f"{kind}(" + ",".join(f"{name}={value if name == arg else _VALID_ARGS[name]}"
                                 for name in _SPEC_TABLES[where][kind]) + ")"
    # norms resolves its specs before it reads the dump, so no dump is made
    command, settings = {"symbol": ("apply", [f"symbol={spec}"]),
                         "field": ("apply", ["symbol=bochner(delta=1)", f"field={spec}"]),
                         "norms": ("norms", ["field=unread", f"norms=[{spec}]"])}[where]
    code, out = run_cli(tmp_path, command, *[a for s in settings for a in ("--set", s)])
    assert code == 1
    assert capsys.readouterr().err == (
        f"riesz: {where}: {kind} argument {arg!r}: must be finite, got {value!r}\n")
    assert not (out / f"{command}.csv").exists()


RESOLVENT_2D = ("resolvent-verify", "--set", "direction=both", "--set", "grid_dim=2",
                "--set", "grid_size=256", "--set", "grid_half_width=40.0")


def test_resolvent_verify_checks_operators_on_the_spectrum(tmp_path, transforms):
    # the operator check composes on each drawn spectrum and takes a
    # Parseval ratio; only the seminorm rows transform, one term each
    code, out = run_cli(tmp_path, *RESOLVENT_2D)
    assert code == 0
    rows = list(csv.DictReader((out / "resolvent-verify.csv").read_text().splitlines()))
    assert len(transforms) == len(rows) == 29


def test_resolvent_verify_operator_error_matches_the_spatial_composite(tmp_path):
    # a short truncation fails both operator checks; each error is the
    # largest relative L^2 error of the spatial composite over the same fields
    code, out = run_cli(tmp_path, *RESOLVENT_2D, "--set", "truncation=5", "--seed", "4")
    assert code == 2
    failed = {name for name, c in manifest_checks(out).items() if not c["passed"]}
    assert failed == {"forward_operator", "reverse_operator"}
    measured = {row["direction"]: float(row["operator_rel_err"])
                for row in csv.DictReader((out / "resolvent-verify.csv").read_text().splitlines())}
    grid = GridSpec(2, 256, 40.0)
    rng = np.random.default_rng(4)
    for direction, decompose, compose in (("forward", forward_decomposition, apply_forward),
                                          ("reverse", reverse_decomposition, apply_reverse)):
        dec = decompose(make_plan(2 + 0j, 1.0, direction=direction, grid=grid, truncation=5))
        fields = [random_band_limited(grid, 3.0, rng) for _ in range(5)]
        spatial = max(lp_norm(compose(dec, f) - convolve(dec.target, f), 2) / lp_norm(f, 2)
                      for f in fields)
        assert measured[direction] > 1e-8
        assert measured[direction] == pytest.approx(spatial, rel=1e-8), direction


def test_assertion_failure_exits_two_with_outputs(tmp_path, capsys):
    # impossible tolerance: outputs still written, exit code 2
    code, out = run_cli(
        tmp_path, "resolvent-verify", "--set", "z=2+0j", "--set", "tol_operator=1e-30"
    )
    assert code == 2
    assert (out / "resolvent-verify.csv").exists()
    checks = manifest_checks(out)
    failed = [checks[name] for name in ("forward_operator", "reverse_operator")]
    assert not any(c["passed"] for c in failed)
    assert checks["forward_reconstruction"]["passed"] and checks["reverse_reconstruction"]["passed"]
    # the stderr line names each failed check with its value and bound
    assert capsys.readouterr().err == "riesz: assertion failed: " + ", ".join(
        f"{c['name']} ({c['value']:.2g} > 1e-30)" for c in failed) + "\n"


def test_check_passes_at_its_bound(tmp_path):
    args = ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
            "--set", "grid_half_width=8")
    code, out = run_cli(tmp_path, *args)
    assert code == 0
    with open(out / "apply.csv", newline="") as handle:
        l2 = [row["l2"] for row in csv.DictReader(handle) if row["quantity"] == "output"][0]
    code, out = run_cli(tmp_path, *args, "--set", f"assert_output_l2_max={l2}")
    check = manifest_checks(out)["output_l2_max"]
    assert code == 0 and check["passed"] and check["value"] == check["bound"] == float(l2)


def test_nan_seminorm_fails_kernel_decay(tmp_path, capsys, monkeypatch):
    measured = cli.seminorm_table

    def with_nan(plan, n_values):
        table = list(measured(plan, n_values))
        table[2] = (table[2][0], float("nan"))
        return table

    monkeypatch.setattr(cli, "seminorm_table", with_nan)
    code, out = run_cli(tmp_path, "kernel-decay", "--set", "n_min=20", "--set", "n_max=24")
    # a NaN seminorm has no log and no slope: a bad table, not a failed check
    assert code == 1
    assert capsys.readouterr().err == "riesz: seminorm at n=22 is nan, not positive and finite\n"
    assert not (out / "kernel-decay.csv").exists()


@pytest.mark.parametrize("assert_ratio_bound", ["true", "false"])
def test_underflowed_seminorms_fail_kernel_decay(tmp_path, capsys, assert_ratio_bound):
    # at delta = 40 every seminorm underflows to 0.0, which passed the ratio check at 0 <= 0
    code, out = run_cli(tmp_path, "kernel-decay", "--set", "delta=40",
                        "--set", f"assert_ratio_bound={assert_ratio_bound}")
    assert code == 1
    assert capsys.readouterr().err == "riesz: seminorm at n=20 is 0.0, not positive and finite\n"
    assert not (out / "kernel-decay.csv").exists()


def test_nan_halving_factor_fails_halving(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "halving_factors", lambda rows: [0.5, float("nan"), 0.25])
    code, out = run_cli(tmp_path, "probe", "--set", "lambdas=[0.5]", "--set", "ps=[2.0]",
                        "--set", "ns=[8,16,32,64]", "--set", "assert_max_halving=0.85")
    assert code == 2
    check = manifest_checks(out)["halving"]
    assert check["value"] == "nan" and not check["passed"]
    assert capsys.readouterr().err == "riesz: assertion failed: halving (nan > 0.85)\n"


@pytest.mark.parametrize("symbol, flagged", [("bochner(delta=0.5)", True),
                                             ("resolvent(z=2+0j,delta=1)", False)])
def test_not_flagged_is_the_mikhlin_report_verdict(tmp_path, symbol, flagged):
    code, out = run_cli(tmp_path, "mikhlin", "--set", f"symbol={symbol}", "--set", "kmax=1",
                        "--set", "assert_not_flagged=true")
    report = mikhlin_check(parse_symbol_spec(symbol), 1)
    assert report.any_flagged == flagged
    check = manifest_checks(out)["not_flagged"]
    assert check["passed"] == (not report.any_flagged)
    assert code == (2 if report.any_flagged else 0)
    assert check["bound"] == report.threshold
    assert float(check["value"]) == max(report.growth)


@pytest.mark.parametrize("factor", ["1e200", "1e-200", "1e306"])
def test_a_mikhlin_symbol_far_from_unit_scale_is_screened(tmp_path, factor):
    # the squares of a 1e200 symbol overflow and those of 1e-200 underflow,
    # and the difference quotients of a 1e306 one overflow; the screen's sups
    # scale with the symbol and its growth does not
    rows = {}
    for spec in ("bochner(delta=1)", f"scale({factor},bochner(delta=1))"):
        code, out = run_cli(tmp_path / spec, "mikhlin", "--set", f"symbol={spec}")
        assert code == 0
        with open(out / "mikhlin.csv", newline="") as handle:
            rows[spec] = list(csv.DictReader(handle))
    base, scaled = rows.values()
    assert len(base) == len(scaled)
    for a, b in zip(base, scaled):
        assert float(b["sup"]) == pytest.approx(float(factor) * float(a["sup"]), rel=1e-12)
        assert float(b["growth"]) == pytest.approx(float(a["growth"]), rel=1e-12)
        assert b["flagged"] == a["flagged"]


def test_a_mikhlin_sup_beyond_the_float_range_is_one_line(tmp_path, capsys):
    # |xi| |grad m| of a 1e308 symbol is finite in units of a power of two but
    # not as a float
    code, out = run_cli(tmp_path, "mikhlin", "--set", "symbol=scale(1e308,bochner(delta=1))")
    assert code == 1
    assert capsys.readouterr().err == (
        "riesz: the order-1 Mikhlin sup of this symbol leaves the float range\n")


def test_reproducible_csv_bodies(tmp_path):
    cfg = tmp_path / "probe.toml"
    cfg.write_text('lambdas = [0.5]\nps = [2.0]\nns = [8, 16, 32, 64]\n')
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["probe", "--config", str(cfg), "--out", str(out1), "--seed", "5"]) == 0
    assert main(["probe", "--config", str(cfg), "--out", str(out2), "--seed", "5"]) == 0
    assert (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()


def test_workers_do_not_change_output(tmp_path):
    cfg = tmp_path / "probe.toml"
    cfg.write_text('lambdas = [0.25, 0.5]\nps = [1.0, 2.0]\nns = [8, 16, 32, 64]\n')
    small_2d = ("--set", "grid_dim=2", "--set", "grid_size=64", "--set", "grid_half_width=8")
    runs = [
        (("probe", "--config", str(cfg)), ["probe.csv"], "4"),
        # 2D sweep on 512^2: one forked process per (lambda, p) sweep
        (("probe", "--set", "grid_dim=2", "--set", "lambdas=[0.0,1.0]",
          "--set", "ps=[1.0,2.0]", "--set", "ns=[1,2,3,4]"), ["probe.csv"], "2"),
        # one forked process per dump
        (("apply", "--set", "symbol=bochner(delta=1)", "--set", "field=random(band=2)",
          *small_2d, "--dump-field"),
         ["apply.csv", "fields/input.csv", "fields/input.json", "fields/output.csv",
          "fields/output.json"], "2"),
        # runs serially at any --workers
        (("resolvent-verify", "--set", "direction=both", "--set", "grid_size=512",
          "--set", "grid_half_width=20"), ["resolvent-verify.csv"], "2"),
    ]
    for args, files, workers in runs:
        out1 = tmp_path / args[0] / "serial"
        out2 = tmp_path / args[0] / "pool"
        assert main([*args, "--out", str(out1), "--seed", "3"]) == 0
        assert main([*args, "--out", str(out2), "--seed", "3", "--workers", workers]) == 0
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_fork_pool_is_capped_at_the_item_count(tmp_path, monkeypatch):
    from concurrent.futures import process

    asked = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor and runs its calls in this process."""

        def __init__(self, max_workers, mp_context):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(process, "ProcessPoolExecutor", SerialPool)
    code, out = run_cli(tmp_path, "apply", "--set", "symbol=bochner(delta=1)",
                        "--set", "grid_size=64", "--set", "grid_half_width=8",
                        "--dump-field", "--workers", "8")
    assert code == 0 and asked == [2]
    assert (out / "fields" / "input.csv").exists() and (out / "fields" / "output.csv").exists()
    # probe forks one process per (lambda, p) sweep
    code, out = run_cli(tmp_path, "probe", "--set", "lambdas=[0.25,0.5]", "--set", "ps=[1.0,2.0]",
                        "--set", "ns=[8,16,32,64]", "--workers", "8")
    assert code == 0 and asked == [2, 4]
    assert len((out / "probe.csv").read_text().splitlines()) == 1 + 2 * 2 * 4


def test_import_loads_no_process_pool():
    # the pool modules cost 16-28 ms of start-up; only a forked run should load them
    probe = ("import sys, riesz.cli; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures', "
             "'concurrent.futures.process') if m in sys.modules))")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert result.stdout.strip() == "[]"


def import_riesz_in_a_fresh_interpreter(openblas_threads):
    """OPENBLAS_NUM_THREADS after `import riesz.cli` in a new interpreter, and
    that process's OS thread count (None without /proc/self/task). This
    process may have loaded numpy before riesz, so the child gets its own env."""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    if openblas_threads is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas_threads
    probe = ("import os, riesz.cli; tasks = '/proc/self/task'; "
             "print(os.environ.get('OPENBLAS_NUM_THREADS'), "
             "len(os.listdir(tasks)) if os.path.isdir(tasks) else None)")
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            check=True, env=env)
    value, threads = result.stdout.split()
    return value, None if threads == "None" else int(threads)


def test_importing_riesz_starts_no_blas_threads():
    # an idle OpenBLAS pool busy-waits for about 0.13 s of CPU per process
    value, threads = import_riesz_in_a_fresh_interpreter(None)
    assert value == "1"
    if threads is not None:
        assert threads == 1


def test_a_blas_thread_count_the_user_set_is_kept():
    assert import_riesz_in_a_fresh_interpreter("3")[0] == "3"


@pytest.mark.parametrize("args", [
    ("apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
     "--set", "grid_half_width=8"),  # draws its field from the rng
    ("kernel-decay",),  # draws nothing, and recorded the seed
], ids=["apply", "kernel-decay"])
def test_a_negative_seed_is_a_usage_error(tmp_path, capsys, args):
    code, out = run_cli(tmp_path, *args, "--seed", "-3")
    assert code == 1
    assert capsys.readouterr().err == "riesz: --seed must be at least 0, got -3\n"
    assert not out.exists()


def test_apply_dump_and_norms_pipeline(tmp_path):
    code, out = run_cli(
        tmp_path, "apply", "--set", "symbol=bochner(delta=1)", "--set", "dump_fields=true"
    )
    assert code == 0
    base = out / "fields" / "output"
    assert base.with_suffix(".csv").exists()
    code2 = main([
        "norms",
        "--set", f"field={base}",
        "--set", 'norms=["lp(p=2)", "herz(alpha=0.5,p=2,q=1)"]',
        "--out", str(tmp_path / "norms-out"),
    ])
    assert code2 == 0
    record = json.loads((tmp_path / "norms-out" / "norms.json").read_text())
    assert set(record) == {"lp(p=2)", "herz(alpha=0.5,p=2,q=1)"}
    assert all(v > 0 for v in record.values())
    # spec strings with commas survive a CSV round trip
    with open(tmp_path / "norms-out" / "norms.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["spec"] for row in rows] == ["lp(p=2)", "herz(alpha=0.5,p=2,q=1)"]


@pytest.fixture(scope="module")
def band_dump(tmp_path_factory):
    """Base path of the 1024-point random(band=2) output dump of apply at seed 41."""
    out = tmp_path_factory.mktemp("band-dump")
    assert main(["apply", "--set", "symbol=bochner(delta=1)", "--set", "field=random(band=2)",
                 "--seed", "41", "--dump-field", "--out", str(out)]) == 0
    return out / "fields" / "output"


@pytest.mark.parametrize("spec, alpha, q", [
    ("herz(alpha=1e300,p=2,q=1)", "1e+300", "1.0"),
    ("besov(alpha=1e300,p=2,q=2,levels=3)", "1e+300", "2.0"),
    ("triebel(alpha=0.1,p=2,q=0.001)", "0.1", "0.001"),
], ids=["herz-alpha-huge", "besov-alpha-huge", "triebel-q-small"])
def test_a_level_sum_out_of_the_float_range_is_one_line(tmp_path, capsys, band_dump,
                                                        spec, alpha, q):
    # 2.0 ** (ell alpha q) and norm ** q raised an OverflowError (a traceback),
    # and triebel's stack ** (p / q) overflowed into Infinity in norms.json
    capsys.readouterr()
    code, out = run_cli(tmp_path, "norms", "--set", f"field={band_dump}",
                        "--set", f"norms=[{spec}]")
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [
        f"riesz: the weighted l^q sum over levels leaves the float range at alpha={alpha}, q={q}"]
    assert not (out / "norms.json").exists()


def test_a_level_sum_whose_powers_overflow_is_scaled(tmp_path, band_dump):
    # 2^(ell alpha q) overflows at alpha = 1, q = 700, which was one riesz:
    # line; the scaled sum M (sum (2^(ell alpha) n_ell / M)^q)^(1/q) has a
    # value, between M and 4^(1/q) M for the 4 levels past the base term
    spec = "besov(alpha=1,p=2,q=700)"
    code, out = run_cli(tmp_path, "norms", "--set", f"field={band_dump}",
                        "--set", f"norms=[{spec}]")
    assert code == 0
    value = json.loads((out / "norms.json").read_text())[spec]
    f, family = load_field(band_dump), build_lp_family(4)
    base = lp_norm(apply_op(family.base, f), 2)
    top = max(2.0**ell * lp_norm(apply_op(family.level_symbol(ell), f), 2) for ell in range(1, 5))
    assert base + top * (1 - 1e-12) <= value <= base + top * 4 ** (1 / 700) * (1 + 1e-12)


def test_no_subcommand_reads_the_sample_cache(tmp_path, monkeypatch):
    # every symbol sample is a fresh array: the cached Symbol.sample has no caller
    def cached_sample(self, grid):
        raise AssertionError("Symbol.sample called")

    monkeypatch.setattr(Symbol, "sample", cached_sample)
    monkeypatch.chdir(tmp_path)
    for command, *settings in TRACED_COMMANDS:
        flags = ["--dump-field"] if command == "apply" else []
        argv = [command, "--out", command.split("-")[0], "--workers", "1", *flags,
                *(arg for text in settings for arg in ("--set", text))]
        assert main(argv) == 0, command


def test_every_probe_symbol_value_comes_from_the_one_sampler(tmp_path, monkeypatch):
    # the probe spectra and the ball on every probe lattice: each outermost
    # Symbol.evaluate of a probe or spectrum-map run is made by Symbol._strips
    callers, depth, evaluate = Counter(), [0], Symbol.evaluate

    def recorded(self, coords):
        if not depth[0]:
            callers[sys._getframe(1).f_code.co_qualname] += 1
        depth[0] += 1
        try:
            return evaluate(self, coords)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Symbol, "evaluate", recorded)
    monkeypatch.chdir(tmp_path)
    for p in ("1.0", "2.0"):
        # lambda = 0 puts xi0 at 2, off the lattice's centre
        runs = [("probe", "grid_dim=2", "lambdas=[0.0,1.0]", f"ps=[{p}]", "ns=[1,2,3,4]"),
                ("spectrum-map", "re=[-0.5,1.5,3]", "im=[-1.0,1.0,3]", f"p={p}", "ns=[8,16]")]
        for command, *settings in runs:
            argv = [command, "--out", f"{command}-{p}", "--workers", "1",
                    *(arg for text in settings for arg in ("--set", text))]
            assert main(argv) == 0, command
    assert set(callers) == {"Symbol._strips.<locals>.strips"}


def test_manifest_records_peak_rss(tmp_path):
    code, out = run_cli(tmp_path, "apply", "--set", "symbol=bochner(delta=1)",
                        "--set", "grid_size=64", "--set", "grid_half_width=8", "--dump-field")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["peak_rss_mib"], float) and manifest["peak_rss_mib"] > 0


def test_manifest_counts_worker_cost(tmp_path):
    def total_cpu():
        own, reaped = (resource.getrusage(who)
                       for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
        return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime

    before = total_cpu()
    code, out = run_cli(tmp_path, "apply", "--set", "symbol=bochner(delta=1)",
                        "--set", "grid_size=64", "--set", "grid_half_width=8",
                        "--dump-field", "--workers", "2")
    after = total_cpu()
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    # cpu_s is this process's time plus that of its reaped workers
    assert isinstance(manifest["cpu_s"], float) and before <= manifest["cpu_s"] <= after
    # the CPU spent before main is part of cpu_s
    assert isinstance(manifest["startup_cpu_s"], float)
    assert 0 < manifest["startup_cpu_s"] <= manifest["cpu_s"]
    workers_peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    assert manifest["peak_rss_mib"] >= workers_peak > 0


def test_one_trailing_comma_is_allowed():
    # as in TOML; any other empty item is a usage error (see the empty-item cases)
    table = {"ns": (cli._tuple_of(_int), None), "norms": (cli._tuple_of(str), None)}
    text = "ns = [8, 16, ]\nnorms = [lp(p=2,), herz(alpha=0.5,p=2,q=1),]"
    assert cli._resolve(table, parse_config_text(text), "test key") == {
        "ns": (8, 16), "norms": ("lp(p=2,)", "herz(alpha=0.5,p=2,q=1)")}
    assert cli._parse_call("lp(p=2,)", "norms") == ("lp", ["p=2"])
    assert cli._parse_call("lp()", "norms") == ("lp", [])


def test_norms_list_items_need_no_quotes(tmp_path):
    text = 'field = dump\nnorms = [lp(p=2), "lp(p=1)", herz(alpha=0.5,p=2,q=1)]'
    assert cli._resolve(COMMANDS["norms"][1], parse_config_text(text), "norms config key") == {
        "field": "dump", "norms": ("lp(p=2)", "lp(p=1)", "herz(alpha=0.5,p=2,q=1)")}
    code, out = run_cli(tmp_path, "apply", "--set", "symbol=bochner(delta=1)",
                        "--set", "dump_fields=true")
    assert code == 0
    bodies = []
    for i, value in enumerate(['["lp(p=2)","herz(alpha=0.5,p=2,q=1)"]',
                               "[lp(p=2),herz(alpha=0.5,p=2,q=1)]"]):
        norms_out = tmp_path / f"norms-{i}"
        code = main(["norms", "--set", f"field={out / 'fields' / 'output'}",
                     "--set", f"norms={value}", "--out", str(norms_out)])
        assert code == 0
        bodies.append((norms_out / "norms.csv").read_text())
    assert bodies[0] == bodies[1]
    assert bodies[0].splitlines()[1:] and "herz" in bodies[0]


def test_spectrum_map_run(tmp_path):
    code, out = run_cli(
        tmp_path,
        "spectrum-map",
        "--set", "re=[0.5, 2.0, 2]",
        "--set", "im=[0.0, 0.5, 2]",
        "--set", "ns=[8, 16, 32]",
    )
    assert code == 0
    lines = (out / "spectrum-map.csv").read_text().strip().splitlines()
    assert lines[0] == "re_z,im_z,pole,lower_bound,oracle_p2"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    pole_row = [r for r in rows if r[0] == "0.5" and r[1] == "0.0"][0]
    assert pole_row[2] == "true"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["re"] == [0.5, 2.0] and manifest["config"]["ns"] == [8, 16, 32]
    extras = manifest["extras"]
    grid = probe_grid(32, 0.5)
    assert extras["grid"] == {"dim": 1, "size": grid.size, "half_width": grid.half_width}
    # keyed by the map's one p, then N; p = 2 sizes its grids by the exact even-p rule
    assert extras["baseband_sizes"] == {
        "2.0": {str(n): baseband_grid(grid, n, 0.5, 2.0).size for n in (8, 16, 32)}}
    assert extras["baseband_sizes"]["2.0"] == {"8": 128, "16": 64, "32": 32}
    assert extras["baseband_below_rule"] == []


@pytest.mark.parametrize("args, below", [
    (("spectrum-map", "--set", "ns=[1]", "--set", "p=1.0"), [{"p": 1.0, "n": 1, "c": 8.0}]),
    # on the 1024-point sweep grid (xi_max = 4) p = 1 needs 32 rho / N: N = 4
    # meets it exactly, and every p = 2 cell meets its rule 2 rho / N
    (("probe", "--set", "lambdas=[1.0]", "--set", "ps=[1.0,2.0]", "--set", "ns=[1,2,4,8]"),
     [{"p": 1.0, "n": 1, "c": 8.0}, {"p": 1.0, "n": 2, "c": 16.0}]),
    (("probe",), []), (("spectrum-map",), [])], ids=["map-n1", "probe-small-n", "probe", "map"])
def test_the_manifest_names_each_cell_below_its_resolution_rule(tmp_path, args, below):
    code, out = run_cli(tmp_path, *args)
    assert code == 0
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["baseband_below_rule"] == below


def test_the_two_csv_sentinels(tmp_path):
    # a pole row of the map has no bound: -1.0 in lower_bound and oracle_p2
    code, out = run_cli(tmp_path / "map", "spectrum-map", "--set", "re=[0.5,0.5,1]",
                        "--set", "im=[-1.0,1.0,3]", "--set", "ns=[8,16]")
    assert code == 0
    with open(out / "spectrum-map.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["pole"] for row in rows] == ["false", "true", "false"]
    assert (rows[1]["lower_bound"], rows[1]["oracle_p2"]) == ("-1.0", "-1.0")
    assert all(float(row["lower_bound"]) > 0 for row in (rows[0], rows[2]))
    # a zero ratio has no logarithm: the probe's slope is -inf
    code, out = run_cli(tmp_path / "probe", "probe", "--set", "lambdas=[0.0]",
                        "--set", "ps=[2.0]", "--set", "ns=[8,16,32,64]")
    assert code == 0
    with open(out / "probe.csv", newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["ratio"] for row in rows] == ["0.0"] * 4
    assert [row["slope"] for row in rows] == ["-inf"] * 4


def test_spectrum_map_is_reproducible_across_runs_and_workers(tmp_path):
    args = ["spectrum-map", "--set", "re=[-0.5, 1.5, 5]", "--set", "im=[-1.0, 1.0, 5]",
            "--set", "p=1.0"]
    bodies = []
    for name, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / name
        assert main([*args, "--out", str(out), "--workers", workers]) == 0
        bodies.append((out / "spectrum-map.csv").read_bytes())
    assert bodies[0] == bodies[1] == bodies[2]
    assert len(bodies[0].splitlines()) == 1 + 25


def test_mikhlin_run_flags_rough_symbol(tmp_path):
    code, out = run_cli(
        tmp_path,
        "mikhlin",
        "--set", "symbol=bochner(delta=0.5)",
        "--set", "kmax=1",
        "--set", "assert_not_flagged=true",
    )
    assert code == 2  # flagged symbol fails the in-config assertion
    assert not manifest_checks(out)["not_flagged"]["passed"]
    lines = (out / "mikhlin.csv").read_text().strip().splitlines()
    flagged = [line.split(",")[-1] for line in lines[1:]]
    assert "true" in flagged


def test_kernel_decay_run(tmp_path):
    code, out = run_cli(
        tmp_path, "kernel-decay", "--set", "n_min=20", "--set", "n_max=26"
    )
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert float(manifest["extras"]["slope"]) < 0
    assert manifest_checks(out)["seminorm_ratios"]["passed"]


def test_resolvent_verify_seed_reproducibility(tmp_path):
    # the randomized operator check is seed-deterministic
    args = ["resolvent-verify", "--set", "z=2+0j", "--set", "direction=forward"]
    outs = [tmp_path / "r1", tmp_path / "r2", tmp_path / "r3"]
    assert main([*args, "--out", str(outs[0]), "--seed", "9"]) == 0
    assert main([*args, "--out", str(outs[1]), "--seed", "9"]) == 0
    assert main([*args, "--out", str(outs[2]), "--seed", "10"]) == 0
    body = [(o / "resolvent-verify.csv").read_bytes() for o in outs]
    assert body[0] == body[1]
    assert body[0] != body[2]


def test_probe_run_with_weight(tmp_path):
    cfg = tmp_path / "probe.toml"
    cfg.write_text(
        'lambdas = [0.5]\nps = [2.0]\nns = [8, 16, 32, 64]\n'
        'weight_a = 0.5\nassert_max_halving = 0.85\n'
    )
    code, out = run_cli(tmp_path, "probe", "--config", str(cfg))
    assert code == 0
    assert manifest_checks(out)["halving"]["passed"]
