"""Batch experiment driver.

    riesz <subcommand> --config PATH [--set key=value]... [--out DIR]
          [--workers N] [--seed S] [--dump-field]

Subcommands: apply, resolvent-verify, kernel-decay, probe, spectrum-map,
norms, mikhlin.  Each run writes manifest.json plus <subcommand>.csv into the
output directory, atomically.  Exit status: 0 when every in-config check
holds, 2 when one fails, 1 on a usage error (bad flags, unparseable config,
parameters outside module preconditions).  Every ValueError a module raises
for a bad input reaches the user through the one handler in main, as a single
"riesz: <message>" line on stderr.

Each in-config check is a (name, value, bound) triple from its run_* function.
main alone decides passed = value <= bound (a NaN value fails), records
{"name", "value", "bound", "passed"} in manifest.json, and names each failed
check with its numbers on stderr, e.g. "riesz: assertion failed:
forward_operator (7.2e-07 > 1e-08)".

Each subcommand declares its config keys once, as a table of key -> (parser,
default) on its run_* function; main resolves the whole table before any
compute.  An undeclared key, a value its parser rejects, and an argument a
symbol, field or norm spec does not take are usage errors naming the command
or spec and the key.  Booleans are true or false only; --dump-field is for
apply only.  manifest.json's "config" is the resolved table, defaults
included, as typed JSON: a complex number as {"re", "im"}, a linspace as its
list, an unset optional key as null.

--workers N (at least 1) runs independent items in up to N forked processes,
at most one per item: probe's (lambda, p) sweeps and apply --dump-field's two
dumps.  The other subcommands accept it and run serially.  Output is
byte-identical for any N, and the work runs serially where the platform cannot
fork.  manifest.json counts the workers' CPU time and peak RSS with the
process's own.

Configs are flat key = value text (a TOML-compatible subset): numbers,
true/false, strings, and [comma, separated, lists]; a # outside quotes and
brackets starts a comment.  A key appears at most once per file, and --set
overrides win over the file.  A value from a file or --set, a list item and a
spec argument all stay text, less one pair of surrounding double quotes, until
their key's parser reads them, once; so a string or list item may go unquoted.
"""

import argparse
import csv
import io
import json
import os
import resource
import sys
import time

import numpy as np

from . import __version__
from .fieldio import atomic_write_text, dump_field, load_field
from .grid import Field, GridSpec, band_spectrum, random_band_limited
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
    spectrum_lp_norm,
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

def _split_top(text, sep=","):
    """text's stripped parts between the seps outside brackets, parentheses and quotes."""
    parts, depth, start, quoted = [], 0, 0, False
    for i, ch in enumerate(text):
        if ch == '"':
            quoted = not quoted
        elif quoted:
            continue
        elif ch in "([":
            depth += 1
        elif ch in ")]":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i].strip())
            start = i + 1
    parts.append(text[start:].strip())
    return parts


def _listed(text):
    """The comma-separated items of text, the inside of a [list] or name(call).

    No text is no item, and one trailing comma is allowed, as TOML allows it;
    any other empty item is a mistyped list, rejected rather than dropped.
    """
    parts = _split_top(text)
    if parts == [""]:
        return []
    if len(parts) > 1 and not parts[-1]:
        parts.pop()
    if "" in parts:
        raise ValueError(f"empty item in {text!r}")
    return parts


def _text(value):
    """value without surrounding blanks and one pair of surrounding double quotes."""
    value = value.strip()
    if len(value) >= 2 and value[0] == value[-1] == '"':
        return value[1:-1]
    return value


def parse_config_text(text):
    """{key: value text} of a config file; its key's parser types each value."""
    config, key_lines = {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _split_top(raw, "#")[0]
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise UsageError(f"config line {lineno}: missing key")
        if key in key_lines:
            raise UsageError(f"config line {lineno}: key {key!r} is already set on line "
                             f"{key_lines[key]}")
        key_lines[key] = lineno
        config[key] = value
    return config


def apply_overrides(config, pairs):
    for pair in pairs:
        if "=" not in pair:
            raise UsageError(f"--set needs key=value, got {pair!r}")
        key, _, value = pair.partition("=")
        config[key.strip()] = value


# ---------------------------------------------------------------------------
# declared keys: one resolver for config keys and spec arguments

_REQUIRED = object()


def _resolve(table, given, where):
    """{key: parser(_text(given[key])), or default when given lacks key} over
    table's key -> (parser, default) entries.  An undeclared key, a missing required
    key, or a value its parser rejects is a UsageError naming where and the key."""
    for key in given:
        if key not in table:
            raise UsageError(f"{where} {key!r} is unknown (known: {', '.join(table)})")
    resolved = {}
    for key, (parse, default) in table.items():
        if key not in given:
            if default is _REQUIRED:
                raise UsageError(f"{where} {key!r} is required")
            resolved[key] = default
            continue
        try:
            resolved[key] = parse(_text(given[key]))
        except (TypeError, ValueError) as exc:
            raise UsageError(f"{where} {key!r}: {exc}")
    return resolved


def _int(text):
    """An integer: 2 and 2.0 pass, 2.7 is rejected rather than truncated."""
    number = float(text)
    if not number.is_integer():
        raise ValueError(f"must be an integer, got {text!r}")
    return int(number)


def _bool(text):
    """true or false; any other text, such as no, is rejected, not read as truthy."""
    if text not in ("true", "false"):
        raise ValueError(f"must be true or false, got {text!r}")
    return text == "true"


def _items(text):
    """The unquoted items of a [comma, separated] list; none when text is not one."""
    if not (text.startswith("[") and text.endswith("]")):
        return []
    return [_text(item) for item in _listed(text[1:-1])]


def _finite(kind):
    """A parser of a finite number of kind, float or complex: inf and nan are rejected."""
    def parse(text):
        number = kind(text)
        if not np.isfinite(number):
            raise ValueError(f"must be finite, got {text!r}")
        return number
    return parse


_real, _complex = _finite(float), _finite(complex)


def _tuple_of(kind):
    """A parser of a non-empty [list] whose items kind converts."""
    def parse(text):
        items = _items(text)
        if not items:
            raise ValueError(f"must be a non-empty [list], got {text!r}")
        return tuple(kind(item) for item in items)
    return parse


def _bound(text):
    """A check's bound: any number but NaN, which no measured value could pass."""
    bound = float(text)
    if np.isnan(bound):
        raise ValueError(f"must be a number, got {text!r}")
    return bound


def _linspace(text):
    items = _items(text)
    if len(items) != 3:
        raise ValueError("must be [min, max, steps]")
    if _int(items[2]) < 1:
        raise ValueError(f"needs at least one step, got {items[2]}")
    start, stop = _real(items[0]), _real(items[1])
    if not np.isfinite(stop - start):
        raise ValueError(f"the span from {start!r} to {stop!r} overflows")
    return tuple(float(v) for v in np.linspace(start, stop, _int(items[2])))


def _grid_keys(dim, size, half_width):
    """The grid keys of a command whose default grid is GridSpec(dim, size, half_width)."""
    return {"grid_dim": (_int, dim), "grid_size": (_int, size),
            "grid_half_width": (_real, half_width)}


def _grid(cfg):
    return GridSpec(cfg["grid_dim"], cfg["grid_size"], cfg["grid_half_width"])


# ---------------------------------------------------------------------------
# mini-DSL for symbols and input fields

def _parse_call(text, where):
    text = text.strip()
    if "(" not in text or not text.endswith(")"):
        raise UsageError(f"{where}: expected name(arg, ...), got {text!r}")
    name, _, inner = text.partition("(")
    try:
        return name.strip(), _listed(inner[:-1])
    except ValueError as exc:
        raise UsageError(f"{where}: {exc}") from exc


def _scalar(text, where):
    try:
        return _complex(text)
    except ValueError as exc:
        raise UsageError(f"{where}: bad number {text!r}") from exc


# The key=value arguments of each spec kind, declared like a command's keys.
_NUMBER = (_real, _REQUIRED)
SYMBOL_ARGS = {"bochner": {"delta": _NUMBER},
               "resolvent": {"z": (_complex, _REQUIRED), "delta": _NUMBER},
               "cutoff1": {"r0": _NUMBER}, "cutoff2": {"r0": _NUMBER}, "bump": {"rho": _NUMBER}}
FIELD_ARGS = {"gaussian": {"width": (_real, 1.0)}, "bump": {"radius": (_real, 1.0)},
              "random": {"band": (_real, 2.0)}}
_BLOCK_NORM_ARGS = {"alpha": _NUMBER, "p": _NUMBER, "q": _NUMBER, "levels": (_int, 4)}
NORM_ARGS = {"lp": {"p": _NUMBER}, "weighted": {"p": _NUMBER, "a": _NUMBER},
             "herz": {"alpha": _NUMBER, "p": _NUMBER, "q": _NUMBER},
             "besov": _BLOCK_NORM_ARGS, "triebel": _BLOCK_NORM_ARGS,
             "ap": {"a": _NUMBER, "p": _NUMBER, "level": (_int, 0)}}


def _spec_args(name, parts, kinds, where):
    """The resolved key=value arguments of spec kind name, whose table is kinds[name]."""
    if name not in kinds:
        raise UsageError(f"{where}: unknown kind {name!r}")
    given = {}
    for part in parts:
        key, eq, value = part.partition("=")
        key = key.strip()
        if not eq:
            raise UsageError(f"{where}: expected key=value, got {part!r}")
        if key in given:
            raise UsageError(f"{where}: {name} argument {key!r} is given twice")
        given[key] = value
    return _resolve(kinds[name], given, f"{where}: {name} argument")


def parse_symbol_spec(text, where="symbol"):
    """Symbol DSL: a SYMBOL_ARGS kind, scalar(c), product(s,...), sum(s,...), scale(c, s)."""
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
    arg = _spec_args(name, parts, SYMBOL_ARGS, where)
    if name == "bochner":
        return bochner_symbol(arg["delta"])
    if name == "resolvent":
        return resolvent_symbol(arg["z"], arg["delta"])
    if name == "cutoff1":
        return cutoff_pair(arg["r0"])[0]
    if name == "cutoff2":
        return cutoff_pair(arg["r0"])[1]
    return bump_phi0(arg["rho"])


def _check_resolved(where, what, length, grid):
    """A field's length scale must span at least 4 grid spacings."""
    if length < 4.0 * grid.h:
        raise UsageError(f"{where}: {what} {length} spans fewer than 4 grid "
                         f"spacings (h={grid.h:.3g})")


def parse_field_spec(text, grid, rng, where="field"):
    """Field DSL: a FIELD_ARGS kind, gaussian(width=), bump(radius=) or random(band=)."""
    name, parts = _parse_call(text, where)
    arg = _spec_args(name, parts, FIELD_ARGS, where)
    if name == "gaussian":
        width = arg["width"]
        if not 0 < width < np.inf:
            raise UsageError(f"{where}: gaussian width must be positive and finite, got {width}")
        _check_resolved(where, "gaussian width", width, grid)
        r = grid.x_radius()
        return Field.spatial(grid, np.exp(-(r**2) / (2.0 * width**2)))
    if name == "bump":
        radius = arg["radius"]
        spec = bump_phi0(radius)
        _check_resolved(where, "bump radius", radius, grid)
        return Field.spatial(grid, spec.evaluate(grid.x_mesh()))
    return random_band_limited(grid, arg["band"], rng)


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


def write_csv(path, rows):
    """Write rows, dicts with one set of keys, as CSV headed by the first row's keys."""
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(rows[0])
    for row in rows:
        writer.writerow(_format_cell(row[key]) for key in rows[0])
    atomic_write_text(path, text.getvalue())


def _json_value(value):
    """value as JSON: a grid as its fields, a complex number as {re, im},
    numbers, None and containers as themselves, anything else (a non-finite
    float too) as its str()."""
    if isinstance(value, GridSpec):
        value = {"dim": value.dim, "size": value.size, "half_width": value.half_width}
    if isinstance(value, complex):
        value = {"re": value.real, "im": value.imag}
    if isinstance(value, dict):
        return {str(k): _json_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_value(v) for v in value]
    if value is None or isinstance(value, (str, bool)):
        return value
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)) and np.isfinite(value):
        return float(value)
    return str(value)


# ---------------------------------------------------------------------------
# forked workers

# (fn, items) of the running _fork_map; forked workers inherit it, so items
# are never pickled.
_FORK_JOB = None


def _fork_item(index):
    fn, items = _FORK_JOB
    return fn(items[index])


def _fork_map(fn, items, workers):
    """[fn(x) for x in items], computed in up to `workers` forked processes.

    Serial and in-process when workers == 1, for a single item, or where the
    platform cannot fork.  Otherwise min(workers, len(items)) processes
    inherit fn and items by fork and receive only an index; only fn's
    results, which must pickle, come back, in item order.  An exception fn
    raises in a worker is raised here.  The pool modules are imported only
    when a pool is made, so importing this module stays cheap.
    """
    global _FORK_JOB
    if workers > 1 and len(items) > 1:
        import multiprocessing
        from concurrent.futures import process

        if "fork" in multiprocessing.get_all_start_methods():
            sys.stdout.flush()  # a forked child must not write buffered output again
            sys.stderr.flush()
            _FORK_JOB = (fn, items)
            try:
                with process.ProcessPoolExecutor(
                        max_workers=min(workers, len(items)),
                        mp_context=multiprocessing.get_context("fork")) as pool:
                    return list(pool.map(_fork_item, range(len(items))))
            finally:
                _FORK_JOB = None
    return [fn(x) for x in items]


# ---------------------------------------------------------------------------
# subcommands

COMMANDS = {}  # subcommand -> (run function, its declared config keys)


def _command(name, keys):
    """Register the decorated run function as subcommand name, with keys as its key table."""
    def register(run):
        COMMANDS[name] = (run, keys)
        return run
    return register


@_command("apply", {
    **_grid_keys(1, 1024, 16.0), "symbol": (str, _REQUIRED), "field": (str, "gaussian(width=1)"),
    "assert_output_l2_max": (_bound, None), "dump_fields": (_bool, False)})
def run_apply(cfg, out_dir, seed, workers):
    grid = _grid(cfg)
    symbol = parse_symbol_spec(cfg["symbol"])
    rng = np.random.default_rng(seed)
    f = parse_field_spec(cfg["field"], grid, rng)
    out = apply_op(symbol, f)
    rows = [{"quantity": quantity, "l1": lp_norm(g, 1), "l2": lp_norm(g, 2),
             "sup": float(np.max(np.abs(g.samples)))}
            for quantity, g in (("input", f), ("output", out))]
    bound = cfg["assert_output_l2_max"]
    checks = [] if bound is None else [("output_l2_max", rows[1]["l2"], bound)]
    extras = {"grid": grid}
    if cfg["dump_fields"]:
        bases = [f"{out_dir}/fields/input", f"{out_dir}/fields/output"]
        os.makedirs(f"{out_dir}/fields", exist_ok=True)
        _fork_map(lambda job: dump_field(*job), list(zip((f, out), bases)), workers)
        extras["field_dumps"] = bases
    return rows, checks, extras


def _verify_direction(cfg, grid, direc, rng):
    """CSV rows, checks and manifest extras of one resolvent-verify direction.

    Each operator-check field is drawn from rng as a spectrum on |xi| <= band.
    The composite is checked against the target symbol on that spectrum, and
    its relative L^2 error is a Parseval ratio, so the check makes no
    transform.
    """
    plan = make_plan(cfg["z"], cfg["delta"], direction=direc, grid=grid,
                     tail_tol=cfg["tail_tol"], r0=cfg["r0"], truncation=cfg["truncation"])
    forward = direc == "forward"
    dec = (forward_decomposition if forward else reverse_decomposition)(plan)
    compose = apply_forward if forward else apply_reverse
    target = dec.target.samples
    band = cfg["band"]
    errors = []
    for _ in range(cfg["op_fields"]):
        spec = band_spectrum(grid, band, rng)
        error = Field.frequency(grid, compose(dec, spec).samples - target * spec.samples)
        errors.append(spectrum_lp_norm(error, 2) / spectrum_lp_norm(spec, 2))
    op_err = float(np.max(errors))  # a NaN error stays NaN and fails its check
    contraction = dec.contraction_sup if dec.contraction_sup is not None else 0.0
    rows = [{"direction": direc, "n": n, "seminorm": seminorm,
             "certified_tail": dec.certified_tail,
             "reconstruction_error": dec.reconstruction_error,
             "contraction_sup": contraction, "operator_rel_err": op_err}
            for n, seminorm in tail_term_seminorms(dec)]
    extras = {f"{direc}_plan": {"r0": plan.r0, "n0": plan.n0, "truncation": plan.truncation,
                                "q": plan.q, "tail_series_bound": tail_kernel_bound(plan)}}
    checks = [(f"{direc}_reconstruction", dec.reconstruction_error, dec.certified_tail + 1e-10),
              (f"{direc}_operator", op_err, cfg["tol_operator"])]
    return rows, checks, extras


@_command("resolvent-verify", {
    "z": (_complex, 2.0 + 0.0j), "delta": (_real, 1.0), "direction": (str, "both"),
    **_grid_keys(1, 2048, 40.0), "tail_tol": (_real, 1e-10), "op_fields": (_int, 5),
    "band": (_real, 3.0), "tol_operator": (_bound, 1e-8), "r0": (_real, None),
    "truncation": (_int, None)})
def run_resolvent_verify(cfg, out_dir, seed, workers):
    grid = _grid(cfg)
    op_fields = cfg["op_fields"]
    if op_fields < 1:
        raise UsageError(f"op_fields must be at least 1, got {op_fields}")
    direction = cfg["direction"]
    if direction not in ("forward", "reverse", "both"):
        raise UsageError(f"direction must be forward, reverse or both, got {direction}")
    rng = np.random.default_rng(seed)
    directions = ("forward", "reverse") if direction == "both" else (direction,)
    rows, checks, extras = [], [], {"grid": grid}
    for direc in directions:
        direc_rows, direc_checks, direc_extras = _verify_direction(cfg, grid, direc, rng)
        rows += direc_rows
        checks += direc_checks
        extras.update(direc_extras)
    return rows, checks, extras


@_command("kernel-decay", {
    "z": (_complex, 2.0 + 0.0j), "delta": (_real, 1.0), **_grid_keys(1, 4096, 64.0),
    "alpha0": (_int, 2), "beta0": (_int, 0), "n_min": (_int, 20), "n_max": (_int, 60),
    "r0": (_real, None), "assert_ratio_bound": (_bool, True)})
def run_kernel_decay(cfg, out_dir, seed, workers):
    delta, alpha0 = cfg["delta"], cfg["alpha0"]
    n_min, n_max = cfg["n_min"], cfg["n_max"]
    if n_min < 1 or n_max <= n_min:
        raise UsageError(f"need 1 <= n_min < n_max, got {n_min}, {n_max}")
    grid = _grid(cfg)
    plan = make_plan(cfg["z"], delta, grid=grid, alpha0=alpha0, beta0=cfg["beta0"], r0=cfg["r0"])
    table = seminorm_table(plan, range(n_min, n_max + 1))
    slope = decay_slope(table)
    ratio_cap = (2.0 * plan.r0) ** delta
    rows, previous = [], None
    for n, value in table:
        ratio = value / previous if previous else 0.0
        bound = ratio_cap * (n / (n - 1)) ** alpha0 * 1.1 if previous else 0.0
        rows.append({"n": n, "seminorm": value, "ratio": ratio, "ratio_bound": bound})
        previous = value
    checks = []
    if cfg["assert_ratio_bound"]:
        # ratio - bound > 0 exactly when ratio > bound; the first row has no ratio
        excess = float(np.max([r["ratio"] - r["ratio_bound"] for r in rows[1:]]))
        checks.append(("seminorm_ratios", excess, 0.0))
    return rows, checks, {"slope": slope, "grid": grid}


# probe sizes its own grid from ns and rho, so grid_size and grid_half_width are unknown keys
@_command("probe", {
    "lambdas": (_tuple_of(_real), (0.25, 0.5, 1.0)), "ps": (_tuple_of(_real), (1.0, 2.0, 4.0)),
    "ns": (_tuple_of(_int), (8, 16, 32, 64, 128)), "delta": (_real, 1.0), "rho": (_real, 0.5),
    "weight_a": (_real, None), "grid_dim": (_int, 1), "assert_zero_lambda_tol": (_bound, 1e-12),
    "assert_max_halving": (_bound, None)})
def run_probe(cfg, out_dir, seed, workers):
    ns, rho = cfg["ns"], cfg["rho"]
    if cfg["assert_max_halving"] is not None and not any(0 < lam <= 1 for lam in cfg["lambdas"]):
        raise UsageError("assert_max_halving needs a lambda in (0, 1] to check")
    specs = [ProbeSpec(lam, p, cfg["delta"], rho=rho, n_values=ns, weight_a=cfg["weight_a"])
             for lam in cfg["lambdas"] for p in cfg["ps"]]
    grid = probe_grid(max(ns), rho, dim=cfg["grid_dim"])
    curves = _fork_map(lambda spec: decay_curve(spec, grid), specs, workers)
    rows = [{**row, "slope": curve.slope} for curve in curves for row in curve.rows]
    rows.sort(key=lambda r: (r["lambda"], r["p"], r["n"]))
    checks = []
    zero_ratios = [r["ratio"] for r in rows if r["lambda"] == 0.0]
    if zero_ratios:
        checks.append(("zero_lambda_annihilation", float(np.max(zero_ratios)),
                       cfg["assert_zero_lambda_tol"]))
    if cfg["assert_max_halving"] is not None:
        factors = [factor for spec in specs if 0 < spec.lam <= 1
                   for factor in halving_factors([r for r in rows if r["lambda"] == spec.lam
                                                  and r["p"] == spec.p])]
        checks.append(("halving", float(np.max(factors, initial=0.0)),
                       cfg["assert_max_halving"]))
    return rows, checks, {"grid": grid}


# spectrum-map sizes its own grid from ns and rho, so it has no grid key
@_command("spectrum-map", {
    "re": (_linspace, _linspace("[-0.5, 1.5, 9]")), "im": (_linspace, _linspace("[-1.0, 1.0, 9]")),
    "p": (_real, 2.0), "delta": (_real, 1.0), "ns": (_tuple_of(_int), (32, 64, 128)),
    "pole_margin": (_real, 1e-3), "rho": (_real, 0.5)})
def run_spectrum_map(cfg, out_dir, seed, workers):
    ns, rho = cfg["ns"], cfg["rho"]
    zs = [complex(a, b) for a in cfg["re"] for b in cfg["im"]]
    grid = probe_grid(max(ns), rho)
    rows = spectrum_map(zs, cfg["p"], cfg["delta"], grid=grid, n_values=ns, rho=rho,
                        pole_margin=cfg["pole_margin"])
    rows.sort(key=lambda r: (r["re_z"], r["im_z"]))
    for row in rows:
        if not np.isfinite(row["lower_bound"]):
            row["lower_bound"] = -1.0
            row["oracle_p2"] = -1.0
    extras = {"grid": grid, "baseband_sizes": {n: baseband_grid(grid, n, rho).size for n in ns}}
    return rows, [], extras


def _norm_value(field, name, arg):
    if name == "lp":
        return lp_norm(field, arg["p"])
    if name == "weighted":
        return weighted_lp_norm(field, WeightSpec(arg["a"], arg["p"]))
    if name == "herz":
        return herz_norm(field, HerzParams(arg["alpha"], arg["p"], arg["q"]))
    if name == "ap":
        w = WeightSpec(arg["a"], arg["p"])
        family = default_cube_family(field.grid.half_width, field.grid.dim, arg["level"])
        return ap_constant_estimate(w, family, field.grid.dim)
    family = build_lp_family(arg["levels"])
    fn = besov_norm if name == "besov" else triebel_norm
    return fn(field, arg["alpha"], arg["p"], arg["q"], family)


@_command("norms", {"field": (str, _REQUIRED), "norms": (_tuple_of(str), ("lp(p=2)",))})
def run_norms(cfg, out_dir, seed, workers):
    # every spec is resolved before the dump is read
    calls = [_parse_call(text, "norms") for text in cfg["norms"]]
    specs = [(name, _spec_args(name, parts, NORM_ARGS, "norms")) for name, parts in calls]
    base = cfg["field"]
    try:
        field = load_field(base)
    except OSError as exc:
        raise UsageError(f"cannot read field dump {base!r}: {exc}")
    rows = [{"kind": name, "spec": text, "value": _norm_value(field, name, arg)}
            for text, (name, arg) in zip(cfg["norms"], specs)]
    record = {row["spec"]: row["value"] for row in rows}
    atomic_write_text(f"{out_dir}/norms.json", json.dumps(record, indent=2) + "\n")
    return rows, [], {"grid": field.grid}


@_command("mikhlin", {
    "symbol": (str, _REQUIRED), "kmax": (_int, 2), "grid_dim": (_int, 1), "xi_max": (_real, 4.0),
    "base_points": (_int, 256), "refinements": (_int, None), "assert_not_flagged": (_bool, False)})
def run_mikhlin(cfg, out_dir, seed, workers):
    symbol = parse_symbol_spec(cfg["symbol"])
    report = mikhlin_check(symbol, cfg["kmax"], dim=cfg["grid_dim"], xi_max=cfg["xi_max"],
                           base_points=cfg["base_points"], refinements=cfg["refinements"])
    rows = [{"k": k, "level": level, "points": points, "sup": report.sups[level][k],
             "growth": report.growth[k], "flagged": report.flagged[k]}
            for k in range(report.kmax + 1) for level, points in enumerate(report.points)]
    # the largest growth passes its threshold exactly when no order is flagged
    checks = ([("not_flagged", float(np.max(report.growth)), report.threshold)]
              if cfg["assert_not_flagged"] else [])
    return rows, checks, {}


def _arg_parser():
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
    return parser


def resolve_config(args):
    """Every key of args.command's table, from --set, --config or the default;
    computes nothing.  Also a UsageError: a grid key without both grid_size and
    grid_half_width, and --dump-field on a command that writes no dumps."""
    config = {}
    if args.config:
        try:
            with open(args.config) as handle:
                text = handle.read()
        except OSError as exc:
            raise UsageError(f"cannot read config {args.config!r}: {exc}")
        config = parse_config_text(text)
    apply_overrides(config, args.overrides)
    table = COMMANDS[args.command][1]
    grid_keys = config.keys() & {"grid_dim", "grid_size", "grid_half_width"}
    if "grid_size" in table and grid_keys and not {"grid_size", "grid_half_width"} <= grid_keys:
        raise UsageError(f"{args.command}: a grid key needs both grid_size and grid_half_width")
    cfg = _resolve(table, config, f"{args.command} config key")
    if args.dump_field:
        if "dump_fields" not in cfg:
            raise UsageError(f"--dump-field is for apply; {args.command} writes no field dumps")
        cfg["dump_fields"] = True
    return cfg


def main(argv=None):
    try:
        args = _arg_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1

    started = time.time()
    try:
        if args.workers < 1:
            raise UsageError(f"--workers must be at least 1, got {args.workers}")
        cfg = resolve_config(args)
        os.makedirs(args.out, exist_ok=True)
        rows, checks, extras = COMMANDS[args.command][0](cfg, args.out, args.seed, args.workers)
    except ValueError as exc:  # UsageError and every module precondition
        print(f"riesz: {exc}", file=sys.stderr)
        return 1

    csv_path = f"{args.out}/{args.command}.csv"
    write_csv(csv_path, rows)
    verdicts = [{"name": name, "value": value, "bound": bound, "passed": bool(value <= bound)}
                for name, value, bound in checks]
    # Worker processes have been reaped by now, so RUSAGE_CHILDREN holds their cost.
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    manifest = {
        "command": args.command,
        "config": _json_value(cfg),
        "seed": args.seed,
        "workers": args.workers,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "package_version": __version__,
        "numpy_version": np.__version__,
        "checks": _json_value(verdicts),
        "extras": _json_value(extras),
        "wall_time_s": time.time() - started,
        "cpu_s": own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime,
        "peak_rss_mib": max(own.ru_maxrss, reaped.ru_maxrss) / 1024,
        "outputs": [csv_path],
    }
    atomic_write_text(f"{args.out}/manifest.json", json.dumps(manifest, indent=2) + "\n")
    failed = [f"{c['name']} ({c['value']:.2g} > {c['bound']:.2g})"
              for c in verdicts if not c["passed"]]
    if failed:
        print(f"riesz: assertion failed: {', '.join(failed)}", file=sys.stderr)
        return 2
    return 0


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()
