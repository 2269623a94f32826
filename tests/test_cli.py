import csv
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz.cli import (
    UsageError,
    _int,
    main,
    parse_config_text,
    parse_field_spec,
    parse_symbol_spec,
)
from riesz.grid import GridSpec
from riesz.probes import baseband_grid, probe_grid, spectrum_map


def run_cli(tmp_path, *args):
    out = tmp_path / "out"
    code = main([*args, "--out", str(out)])
    return code, out


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
    cfg = parse_config_text(text)
    assert cfg == {"delta": 1.5, "n": 42, "name": "probe", "flag": True, "ns": [8, 16, 32]}


def test_parse_config_diagnostics_carry_line_numbers():
    with pytest.raises(UsageError) as err:
        parse_config_text("good = 1\nbad value\n")
    assert "line 2" in str(err.value)
    with pytest.raises(UsageError) as err:
        parse_config_text("x = {}\n")
    assert "line 1" in str(err.value)


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
], ids=["delta", "band", "random-band", "alpha0", "grid-window", "map-re-steps",
        "map-im-steps", "map-scale-zero", "map-no-scales", "map-p", "map-delta",
        "map-pole-margin", "map-rho", "probe-nan-lambda", "probe-grid-dim",
        "probe-scales-serial", "probe-scales-pool", "probe-weight", "bump-radius",
        "bochner-no-delta", "mikhlin-dim", "mikhlin-base-points", "mikhlin-refinements",
        "mikhlin-xi-max", "op-fields", "gaussian-width", "random-band-negative",
        "map-fractional-scale", "fractional-grid-size", "fractional-n-min",
        "fractional-refinements", "map-fractional-steps", "bump-radius-underflow",
        "bump-rho-underflow", "bump-rho-overflow", "bump-radius-2d-scale",
        "bump-radius-cells", "gaussian-width-cells", "norms-truncated-dump"])
def test_bad_value_is_one_line_usage_error(tmp_path, capsys, args):
    if "field=TRUNCATED_DUMP" in args:
        base = tmp_path / "dump" / "fields" / "output"
        assert main(["apply", "--set", "symbol=bochner(delta=1)", "--set", "grid_size=64",
                     "--set", "grid_half_width=8", "--dump-field",
                     "--out", str(tmp_path / "dump")]) == 0
        csv_path = base.with_suffix(".csv")
        csv_path.write_text("".join(csv_path.read_text().splitlines(True)[:40]))
        args = tuple(a.replace("TRUNCATED_DUMP", str(base)) for a in args)
        capsys.readouterr()
    code, out = run_cli(tmp_path, *args)
    assert code == 1
    stderr = capsys.readouterr().err.splitlines()
    assert len(stderr) == 1 and stderr[0].startswith("riesz: ")
    assert not (out / f"{args[0]}.csv").exists()


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
    assert manifest["checks"][0]["passed"]


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
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    assert extras["grid"] == {"dim": 1, "size": 2048, "half_width": 40.0}
    plan = extras["forward_plan"]
    assert sorted(plan) == ["n0", "q", "r0", "tail_series_bound", "truncation"]
    assert isinstance(plan["n0"], int) and isinstance(plan["truncation"], int)
    assert isinstance(plan["q"], float) and 0 < plan["tail_series_bound"] < 1


def test_assertion_failure_exits_two_with_outputs(tmp_path):
    # impossible tolerance: outputs still written, exit code 2
    code, out = run_cli(
        tmp_path, "resolvent-verify", "--set", "z=2+0j", "--set", "tol_operator=1e-30"
    )
    assert code == 2
    assert (out / "resolvent-verify.csv").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(not c["passed"] for c in manifest["checks"])


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
    out1 = tmp_path / "serial"
    out2 = tmp_path / "pool"
    assert main(["probe", "--config", str(cfg), "--out", str(out1)]) == 0
    assert main(["probe", "--config", str(cfg), "--out", str(out2), "--workers", "4"]) == 0
    assert (out1 / "probe.csv").read_bytes() == (out2 / "probe.csv").read_bytes()


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


def test_manifest_records_peak_rss(tmp_path):
    code, out = run_cli(tmp_path, "apply", "--set", "symbol=bochner(delta=1)",
                        "--set", "grid_size=64", "--set", "grid_half_width=8", "--dump-field")
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert isinstance(manifest["peak_rss_mib"], float) and manifest["peak_rss_mib"] > 0


def test_norms_list_items_need_no_quotes(tmp_path):
    assert parse_config_text('norms = [lp(p=2), "lp(p=1)", [herz(alpha=0.5,p=2,q=1)]]') == {
        "norms": ["lp(p=2)", "lp(p=1)", ["herz(alpha=0.5,p=2,q=1)"]]}
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
    extras = json.loads((out / "manifest.json").read_text())["extras"]
    grid = probe_grid(32, 0.5)
    assert extras["grid"] == {"dim": 1, "size": grid.size, "half_width": grid.half_width}
    assert extras["baseband_sizes"] == {
        str(n): baseband_grid(grid, n, 0.5).size for n in (8, 16, 32)
    }


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
    manifest = json.loads((out / "manifest.json").read_text())
    assert any(c["name"] == "halving" and c["passed"] for c in manifest["checks"])
