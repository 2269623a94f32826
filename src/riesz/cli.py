"""Batch experiment driver.

    riesz <subcommand> --config PATH [--set key=value]... [--out DIR]
          [--workers N] [--seed S] [--dump-field]

Subcommands: apply, resolvent-verify, kernel-decay, probe, spectrum-map,
norms, mikhlin.  Each run writes manifest.json plus <subcommand>.csv into the
output directory, atomically.  Exit status: 0 when every in-config assertion
holds, 2 when one fails, 1 on a usage error (bad flags, unparseable config,
parameters outside module preconditions).  Every ValueError a module raises
for a bad input reaches the user through the one handler in main, as a single
"riesz: <message>" line on stderr.

Configs are flat key = value text (a TOML-compatible subset): numbers,
true/false, double-quoted strings, and [comma, separated, lists]; # starts a
comment.  A list item shaped name(...), such as a norm spec, may go unquoted.
--set overrides win over the file and accept bare strings.
"""

import argparse
import csv
import functools
import io
import json
import os
import resource
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import __version__
from .fieldio import atomic_write_text, dump_field, load_field
from .grid import Field, GridSpec, random_band_limited
from .multiplier import apply as apply_op
from .neumann import (
    apply_forward,
    apply_reverse,
    decay_slope,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
    seminorm_table,
    tail_kernel_bound,
    tail_term_seminorms,
)
from .norms import (
    HerzParams,
    WeightSpec,
    ap_constant_estimate,
    besov_norm,
    build_lp_family,
    default_cube_family,
    herz_norm,
    lp_norm,
    triebel_norm,
    weighted_lp_norm,
)
from .probes import (
    ProbeSpec,
    baseband_grid,
    decay_curve,
    halving_factors,
    probe_grid,
    spectrum_map,
)
from .symbols import (
    bochner_symbol,
    bump_phi0,
    cutoff_pair,
    mikhlin_check,
    resolvent_symbol,
    scalar_symbol,
)

CSV_SCHEMA_VERSION = 1


class UsageError(ValueError):
    """A bad input; main reports it, like any ValueError, as one line and exit 1."""


# ---------------------------------------------------------------------------
# config parsing

def _parse_value(text, where):
    text = text.strip()
    if not text:
        raise UsageError(f"{where}: empty value")
    if text.startswith("[") and text.endswith("]"):
        inner = text[1:-1].strip()
        if not inner:
            return []
        # an unquoted name(...) item, e.g. a norm spec, stays a string
        return [part if _is_call(part) else _parse_value(part, where)
                for part in _split_top(inner)]
    if text == "true":
        return True
    if text == "false":
        return False
    if text.startswith('"') and text.endswith('"') and len(text) >= 2:
        return text[1:-1]
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    raise UsageError(f"{where}: cannot parse value {text!r}")


def _is_call(text):
    name, paren, _ = text.partition("(")
    return bool(paren) and text.endswith(")") and name.strip().isidentifier()


def _split_top(text):
    parts, depth, start = [], 0, 0
    for i, ch in enumerate(text):
        if ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == "," and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return [p for p in (part.strip() for part in parts) if p]


def parse_config_text(text):
    config = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw
        if '"' not in line:
            line = line.split("#", 1)[0]
        elif line.lstrip().startswith("#"):
            line = ""
        line = line.strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"config line {lineno}: missing key")
        config[key] = _parse_value(value, f"config line {lineno} ({key})")
    return config


def apply_overrides(config, pairs):
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            config[key.strip()] = _parse_value(value, f"--set {key}")
        except UsageError:
            config[key.strip()] = value.strip()
    return config


# ---------------------------------------------------------------------------
# mini-DSL for symbols and input fields

def _parse_call(text, where):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise UsageError(f"{where}: expected name(arg, ...), got {text!r}")
    name, _, inner = text.partition("(")
    return name.strip(), _split_top(inner[:-1])


def _scalar(text, where):
    try:
        return complex(text)
    except ValueError as exc:
        raise UsageError(f"{where}: bad number {text!r}") from exc


def _kwargs(parts, where):
    """key=value call arguments as a getter: arg(key, kind=float, default)."""
    out = {}
    for part in parts:
        if "=" not in part:
            raise UsageError(f"{where}: expected key=value, got {part!r}")
        key, _, value = part.partition("=")
        out[key.strip()] = value.strip()
    return functools.partial(_get, out, where=f"{where} argument")


def parse_symbol_spec(text, where="symbol"):
    """Symbol DSL: bochner(delta=), resolvent(z=,delta=), cutoff1(r0=),
    cutoff2(r0=), bump(rho=), scalar(c), product(s,...), sum(s,...),
    scale(c, s)."""
    name, parts = _parse_call(text, where)
    if name in ("product", "sum"):
        if not parts:
            raise UsageError(f"{where}: {name} needs at least one component")
        symbols = [parse_symbol_spec(p, where) for p in parts]
        out = symbols[0]
        for sym in symbols[1:]:
            out = out * sym if name == "product" else out + sym
        return out
    if name == "scale":
        if len(parts) != 2:
            raise UsageError(f"{where}: scale needs (number, symbol)")
        return _scalar(parts[0], where) * parse_symbol_spec(parts[1], where)
    if name == "scalar":
        if len(parts) != 1:
            raise UsageError(f"{where}: scalar needs one number")
        return scalar_symbol(_scalar(parts[0], where))
    arg = _kwargs(parts, f"{where}: {name}")
    if name == "bochner":
        return bochner_symbol(arg("delta"))
    if name == "resolvent":
        return resolvent_symbol(arg("z", complex), arg("delta"))
    if name == "cutoff1":
        return cutoff_pair(arg("r0"))[0]
    if name == "cutoff2":
        return cutoff_pair(arg("r0"))[1]
    if name == "bump":
        return bump_phi0(arg("rho"))
    raise UsageError(f"{where}: unknown symbol kind {name!r}")


def _check_resolved(where, what, length, grid):
    """A field's length scale must span at least 4 grid spacings."""
    if length < 4.0 * grid.h:
        raise UsageError(f"{where}: {what} {length} spans fewer than 4 grid "
                         f"spacings (h={grid.h:.3g})")


def parse_field_spec(text, grid, rng, where="field"):
    """Field DSL: gaussian(width=), bump(radius=), random(band=)."""
    name, parts = _parse_call(text, where)
    arg = _kwargs(parts, f"{where}: {name}")
    if name == "gaussian":
        width = arg("width", float, 1.0)
        if not 0 < width < np.inf:
            raise UsageError(f"{where}: gaussian width must be positive and finite, got {width}")
        _check_resolved(where, "gaussian width", width, grid)
        r = grid.x_radius()
        return Field.spatial(grid, np.exp(-(r**2) / (2.0 * width**2)))
    if name == "bump":
        radius = arg("radius", float, 1.0)
        spec = bump_phi0(radius)
        _check_resolved(where, "bump radius", radius, grid)
        return Field.spatial(grid, spec.evaluate(grid.x_mesh()))
    if name == "random":
        return random_band_limited(grid, arg("band", float, 2.0), rng)
    raise UsageError(f"{where}: unknown field kind {name!r}")


# ---------------------------------------------------------------------------
# output helpers

def _format_cell(value):
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path, columns, rows):
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow(_format_cell(row[c]) for c in columns)
    atomic_write_text(path, text.getvalue())


_REQUIRED = object()


def _get(config, key, kind=float, default=_REQUIRED, where="config key"):
    """config[key] converted by kind, or default when the key is absent.

    A missing required key, or a value that kind rejects, is a UsageError.
    """
    if key not in config:
        if default is _REQUIRED:
            raise UsageError(f"{where} {key!r} is required")
        return default
    try:
        return kind(config[key])
    except (TypeError, ValueError) as exc:
        raise UsageError(f"{where} {key!r}: {exc}")


def _int(value):
    """An integer value: 2, 2.0 and "2.0" pass, 2.7 is rejected rather than truncated."""
    if isinstance(value, str):  # a DSL argument
        value = float(value)
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"must be an integer, got {value!r}")
    return int(value)


def _int_tuple(values):
    return tuple(_int(v) for v in values)


def _float_tuple(values):
    return tuple(float(v) for v in values)


def _linspace(spec):
    if not (isinstance(spec, list) and len(spec) == 3):
        raise ValueError("must be [min, max, steps]")
    if _int(spec[2]) < 1:
        raise ValueError(f"needs at least one step, got {spec[2]}")
    return np.linspace(float(spec[0]), float(spec[1]), _int(spec[2]))


def _grid_from_config(config, default=None):
    if "grid_size" not in config and default is not None:
        return default
    dim = _get(config, "grid_dim", _int, 1)
    size = _get(config, "grid_size", _int)
    return GridSpec(dim, size, _get(config, "grid_half_width"))


def _json_value(value):
    """value as JSON: a grid as its fields, numbers and containers as
    themselves, anything else (a non-finite float too) as its str()."""
    if isinstance(value, GridSpec):
        value = {"dim": value.dim, "size": value.size, "half_width": value.half_width}
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and np.isfinite(value):
        return float(value)
    return str(value)


# ---------------------------------------------------------------------------
# subcommands

def run_apply(config, out_dir, seed, workers):
    grid = _grid_from_config(config, GridSpec(1, 1024, 16.0))
    symbol = parse_symbol_spec(_get(config, "symbol", str))
    rng = np.random.default_rng(seed)
    f = parse_field_spec(_get(config, "field", str, "gaussian(width=1)"), grid, rng)
    out = apply_op(symbol, f)
    rows = [
        {
            "quantity": "input",
            "l1": lp_norm(f, 1),
            "l2": lp_norm(f, 2),
            "sup": float(np.max(np.abs(f.samples))),
        },
        {
            "quantity": "output",
            "l1": lp_norm(out, 1),
            "l2": lp_norm(out, 2),
            "sup": float(np.max(np.abs(out.samples))),
        },
    ]
    checks = []
    if "assert_output_l2_max" in config:
        bound = _get(config, "assert_output_l2_max")
        checks.append(("output_l2_max", lp_norm(out, 2) <= bound,
                       f"{lp_norm(out, 2)} <= {bound}"))
    extras = {"grid": grid}
    if config.get("dump_fields", False):
        base_in = f"{out_dir}/fields/input"
        base_out = f"{out_dir}/fields/output"
        os.makedirs(f"{out_dir}/fields", exist_ok=True)
        dump_field(f, base_in)
        dump_field(out, base_out)
        extras["field_dumps"] = [base_in, base_out]
    return rows, ["quantity", "l1", "l2", "sup"], checks, extras


def run_resolvent_verify(config, out_dir, seed, workers):
    z = _get(config, "z", complex, 2.0 + 0.0j)
    delta = _get(config, "delta", float, 1.0)
    direction = _get(config, "direction", str, "both")
    if direction not in ("forward", "reverse", "both"):
        raise UsageError(f"direction must be forward, reverse or both, got {direction}")
    grid = _grid_from_config(config, GridSpec(1, 2048, 40.0))
    tail_tol = _get(config, "tail_tol", float, 1e-10)
    op_fields = _get(config, "op_fields", _int, 5)
    if op_fields < 1:
        raise UsageError(f"op_fields must be at least 1, got {op_fields}")
    band = _get(config, "band", float, 3.0)
    tol_operator = _get(config, "tol_operator", float, 1e-8)
    r0 = _get(config, "r0", float, None)
    truncation = _get(config, "truncation", _int, None)
    rng = np.random.default_rng(seed)

    rows, checks, extras = [], [], {"grid": grid}
    directions = ("forward", "reverse") if direction == "both" else (direction,)
    for direc in directions:
        plan = make_plan(z, delta, direction=direc, grid=grid, tail_tol=tail_tol,
                         r0=r0, truncation=truncation)
        forward = direc == "forward"
        dec = (forward_decomposition if forward else reverse_decomposition)(plan)
        compose = apply_forward if forward else apply_reverse
        op_err = 0.0
        for _ in range(op_fields):
            f = random_band_limited(grid, band, rng)
            err = lp_norm(compose(dec, f) - apply_op(dec.target, f), 2) / lp_norm(f, 2)
            op_err = max(op_err, err)
        contraction = dec.contraction_sup if dec.contraction_sup is not None else 0.0
        for n, seminorm in tail_term_seminorms(plan):
            rows.append(
                {
                    "direction": direc,
                    "n": n,
                    "seminorm": seminorm,
                    "certified_tail": dec.certified_tail,
                    "reconstruction_error": dec.reconstruction_error,
                    "contraction_sup": contraction,
                    "operator_rel_err": op_err,
                }
            )
        extras[f"{direc}_plan"] = {
            "r0": plan.r0,
            "n0": plan.n0,
            "truncation": plan.truncation,
            "q": plan.q,
            "tail_series_bound": tail_kernel_bound(plan),
        }
        checks.append(
            (f"{direc}_reconstruction",
             dec.reconstruction_error <= dec.certified_tail + 1e-10,
             f"{dec.reconstruction_error} <= {dec.certified_tail} + 1e-10")
        )
        checks.append(
            (f"{direc}_operator", op_err <= tol_operator, f"{op_err} <= {tol_operator}")
        )
    columns = ["direction", "n", "seminorm", "certified_tail",
               "reconstruction_error", "contraction_sup", "operator_rel_err"]
    return rows, columns, checks, extras


def run_kernel_decay(config, out_dir, seed, workers):
    z = _get(config, "z", complex, 2.0 + 0.0j)
    delta = _get(config, "delta", float, 1.0)
    grid = _grid_from_config(config, GridSpec(1, 4096, 64.0))
    alpha0 = _get(config, "alpha0", _int, 2)
    beta0 = _get(config, "beta0", _int, 0)
    n_min = _get(config, "n_min", _int, 20)
    n_max = _get(config, "n_max", _int, 60)
    if n_min < 1 or n_max <= n_min:
        raise UsageError(f"need 1 <= n_min < n_max, got {n_min}, {n_max}")
    plan = make_plan(z, delta, grid=grid, alpha0=alpha0, beta0=beta0,
                     r0=_get(config, "r0", float, None))
    table = seminorm_table(plan, range(n_min, n_max + 1))
    slope = decay_slope(table)
    ratio_cap = (2.0 * plan.r0) ** delta
    rows, checks = [], []
    previous = None
    ratio_ok = True
    for n, value in table:
        ratio = value / previous if previous else 0.0
        bound = ratio_cap * (n / (n - 1)) ** alpha0 * 1.1 if previous else 0.0
        if previous and ratio > bound:
            ratio_ok = False
        rows.append({"n": n, "seminorm": value, "ratio": ratio, "ratio_bound": bound})
        previous = value
    if config.get("assert_ratio_bound", True):
        checks.append(("seminorm_ratios", ratio_ok, f"ratios within {ratio_cap} * growth * 1.1"))
    return rows, ["n", "seminorm", "ratio", "ratio_bound"], checks, {"slope": slope, "grid": grid}


def _probe_spec_rows(args):
    spec, grid = args
    curve = decay_curve(spec, grid)
    rows = []
    for row in curve.rows:
        rows.append({**row, "slope": curve.slope})
    return rows


def run_probe(config, out_dir, seed, workers):
    lambdas = _get(config, "lambdas", _float_tuple, (0.25, 0.5, 1.0))
    ps = _get(config, "ps", _float_tuple, (1.0, 2.0, 4.0))
    ns = _get(config, "ns", _int_tuple, (8, 16, 32, 64, 128))
    delta = _get(config, "delta", float, 1.0)
    rho = _get(config, "rho", float, 0.5)
    weight_a = _get(config, "weight_a", float, None)
    if len(ns) < 4:
        raise UsageError("probe sweeps need at least 4 scale values")
    specs = [ProbeSpec(lam, p, delta, rho=rho, n_values=ns, weight_a=weight_a)
             for lam in lambdas for p in ps]
    grid = probe_grid(max(ns), rho, dim=_get(config, "grid_dim", _int, 1))
    jobs = [(spec, grid) for spec in specs]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            grouped = list(pool.map(_probe_spec_rows, jobs))
    else:
        grouped = [_probe_spec_rows(job) for job in jobs]
    rows = [row for group in grouped for row in group]
    rows.sort(key=lambda r: (r["lambda"], r["p"], r["n"]))
    checks = []
    zero_tol = _get(config, "assert_zero_lambda_tol", float, 1e-12)
    zero_rows = [r for r in rows if r["lambda"] == 0.0]
    if zero_rows:
        worst = max(r["ratio"] for r in zero_rows)
        checks.append(("zero_lambda_annihilation", worst <= zero_tol,
                       f"{worst} <= {zero_tol}"))
    if "assert_max_halving" in config:
        cap = _get(config, "assert_max_halving")
        ok, worst = True, 0.0
        for spec in specs:
            if not 0 < spec.lam <= 1:
                continue
            group = [r for r in rows if r["lambda"] == spec.lam and r["p"] == spec.p]
            for factor in halving_factors(group):
                worst = max(worst, factor)
                ok = ok and factor <= cap
        checks.append(("halving", ok, f"max factor {worst} <= {cap}"))
    columns = ["lambda", "lambda_achieved", "xi0", "p", "delta", "n", "ratio", "slope"]
    return rows, columns, checks, {"grid": grid}


def run_spectrum_map(config, out_dir, seed, workers):
    re_values = _get(config, "re", _linspace, _linspace([-0.5, 1.5, 9]))
    im_values = _get(config, "im", _linspace, _linspace([-1.0, 1.0, 9]))
    p = _get(config, "p", float, 2.0)
    delta = _get(config, "delta", float, 1.0)
    ns = _get(config, "ns", _int_tuple, (32, 64, 128))
    pole_margin = _get(config, "pole_margin", float, 1e-3)
    rho = _get(config, "rho", float, 0.5)
    if not ns:
        raise UsageError("ns must list at least one probe scale")
    zs = [complex(a, b) for a in re_values for b in im_values]
    grid = probe_grid(max(ns), rho)
    rows = spectrum_map(zs, p, delta, grid=grid, n_values=ns, rho=rho, pole_margin=pole_margin)
    rows.sort(key=lambda r: (r["re_z"], r["im_z"]))
    for row in rows:
        if not np.isfinite(row["lower_bound"]):
            row["lower_bound"] = -1.0
            row["oracle_p2"] = -1.0
    extras = {"grid": grid, "baseband_sizes": {n: baseband_grid(grid, n, rho).size for n in ns}}
    return rows, ["re_z", "im_z", "pole", "lower_bound", "oracle_p2"], [], extras


def _parse_norm_spec(text, field, where="norms"):
    name, parts = _parse_call(text, where)
    arg = _kwargs(parts, f"{where}: {name}")
    if name == "lp":
        return name, text, lp_norm(field, arg("p"))
    if name == "weighted":
        p = arg("p")
        return name, text, weighted_lp_norm(field, p, WeightSpec(arg("a"), p))
    if name == "herz":
        return name, text, herz_norm(field, HerzParams(arg("alpha"), arg("p"), arg("q")))
    if name in ("besov", "triebel"):
        family = build_lp_family(arg("levels", _int, 4))
        fn = besov_norm if name == "besov" else triebel_norm
        return name, text, fn(field, arg("alpha"), arg("p"), arg("q"), family)
    if name == "ap":
        w = WeightSpec(arg("a"), arg("p"))
        family = default_cube_family(field.grid.half_width, field.grid.dim,
                                     arg("level", _int, 0))
        return name, text, ap_constant_estimate(w, family, field.grid.dim)
    raise UsageError(f"{where}: unknown norm kind {name!r}")


def run_norms(config, out_dir, seed, workers):
    base = _get(config, "field", str)
    try:
        field = load_field(base)
    except OSError as exc:
        raise UsageError(f"cannot read field dump {base!r}: {exc}")
    specs = config.get("norms", ['lp(p=2)'])
    if not isinstance(specs, list):
        raise UsageError("norms must be a list of norm specs")
    rows = []
    for spec_text in specs:
        kind, text, value = _parse_norm_spec(str(spec_text), field)
        rows.append({"kind": kind, "spec": text, "value": value})
    record = {row["spec"]: row["value"] for row in rows}
    atomic_write_text(f"{out_dir}/norms.json", json.dumps(record, indent=2) + "\n")
    return rows, ["kind", "spec", "value"], [], {"grid": field.grid}


def run_mikhlin(config, out_dir, seed, workers):
    symbol = parse_symbol_spec(_get(config, "symbol", str))
    kmax = _get(config, "kmax", _int, 2)
    report = mikhlin_check(
        symbol,
        kmax,
        dim=_get(config, "grid_dim", _int, 1),
        xi_max=_get(config, "xi_max", float, 4.0),
        base_points=_get(config, "base_points", _int, 256),
        refinements=_get(config, "refinements", _int, None),
    )
    rows = []
    for k in range(report.kmax + 1):
        for level, points in enumerate(report.points):
            rows.append(
                {
                    "k": k,
                    "level": level,
                    "points": points,
                    "sup": report.sups[level][k],
                    "growth": report.growth[k],
                    "flagged": report.flagged[k],
                }
            )
    checks = []
    if "assert_not_flagged" in config and config["assert_not_flagged"]:
        checks.append(("not_flagged", not report.any_flagged,
                       f"flags: {report.flagged}"))
    return rows, ["k", "level", "points", "sup", "growth", "flagged"], checks, {}


COMMANDS = {
    "apply": run_apply,
    "resolvent-verify": run_resolvent_verify,
    "kernel-decay": run_kernel_decay,
    "probe": run_probe,
    "spectrum-map": run_spectrum_map,
    "norms": run_norms,
    "mikhlin": run_mikhlin,
}


def main(argv=None):
    parser = argparse.ArgumentParser(prog="riesz", description=__doc__)
    parser.add_argument("command", choices=sorted(COMMANDS))
    parser.add_argument("--config", required=False)
    parser.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE")
    parser.add_argument("--out", default="riesz-out")
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--dump-field", action="store_true",
                        help="write input/output field dumps (apply subcommand)")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    started = time.time()
    try:
        config = {}
        if args.config:
            try:
                with open(args.config) as handle:
                    text = handle.read()
            except OSError as exc:
                raise UsageError(f"cannot read config {args.config!r}: {exc}")
            config = parse_config_text(text)
        apply_overrides(config, args.overrides)
        if args.dump_field:
            config["dump_fields"] = True

        os.makedirs(args.out, exist_ok=True)
        rows, columns, checks, extras = COMMANDS[args.command](
            config, args.out, args.seed, max(1, args.workers)
        )
    except ValueError as exc:  # UsageError and every module precondition
        print(f"riesz: {exc}", file=sys.stderr)
        return 1

    csv_path = f"{args.out}/{args.command}.csv"
    write_csv(csv_path, columns, rows)
    manifest = {
        "command": args.command,
        "config": {k: (str(v) if isinstance(v, complex) else v) for k, v in config.items()},
        "seed": args.seed,
        "workers": args.workers,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "checks": [{"name": n, "passed": bool(ok), "detail": d} for n, ok, d in checks],
        "extras": _json_value(extras),
        "wall_time_s": time.time() - started,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "outputs": [csv_path],
    }
    atomic_write_text(f"{args.out}/manifest.json", json.dumps(manifest, indent=2) + "\n")
    failed = [name for name, ok, _ in checks if not ok]
    if failed:
        print(f"riesz: assertion failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
