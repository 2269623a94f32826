"""Span tracer for the riesz layers, installed from outside the package.

Run as a script, it traces one CLI invocation in a fresh interpreter and
writes the spans as JSON when the command ends:

    PYTHONPATH=src python3 perfbench/tracer.py SPANS.json -- probe --workers 1

Each wrapped public function records a span [name, start, end, parent,
extra], kept in memory until exit.  Spans nest through a single stack, so
tracing needs `--workers 1`.  The package binds names with
`from .grid import ...`, so a wrapper replaces the function in every riesz
module that holds it, not only in the module that defines it.
"""

import functools
import importlib
import json
import os
import sys
import time

import numpy as np

# Public functions timed per layer; the layer is the defining module.
LAYERS = {
    "grid": ("forward_transform", "inverse_transform"),
    "symbols": ("Symbol.sample", "mikhlin_check"),
    "multiplier": ("apply", "kernel_of", "convolve", "schwartz_seminorm"),
    "neumann": ("forward_decomposition", "reverse_decomposition", "apply_forward",
                "apply_reverse", "tail_term_seminorms", "seminorm_table"),
    "probes": ("spectrum_map", "decay_curve", "probe_field", "probe_ratio",
               "probe_lower_bound", "resolvent_norm_oracle"),
    "norms": ("lp_norm", "weighted_lp_norm", "herz_norm", "besov_norm", "triebel_norm",
              "ap_constant_estimate", "build_lp_family"),
    "fieldio": ("dump_field", "load_field"),
}

MODULES = ("riesz", *(f"riesz.{name}" for name in (*LAYERS, "cli")))


def _points(args, result):
    return int(args[0].samples.size)


def _sample_hit(args):
    symbol, grid = args[0], args[1]
    return int(grid in symbol._cache)


def _bytes_read(args):
    base = args[0]
    return os.path.getsize(f"{base}.csv") + os.path.getsize(f"{base}.json")


def _bytes_written(args, result):
    return sum(os.path.getsize(path) for path in result)


# Extra value recorded per span: (hook before the call, hook after it).
EXTRAS = {
    "grid.forward_transform": (None, _points),
    "grid.inverse_transform": (None, _points),
    "symbols.Symbol.sample": (_sample_hit, None),
    "fieldio.load_field": (_bytes_read, None),
    "fieldio.dump_field": (None, _bytes_written),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack = self.spans, self._stack
        before, after = EXTRAS.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            if before is not None:
                record[4] = before(args)
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if after is not None:
                record[4] = after(args, result)
            return result

        return traced


def _riesz_modules():
    return [importlib.import_module(name) for name in MODULES]


def install(tracer):
    """Wrap every function in LAYERS wherever a riesz module binds it.

    Returns ({span name: [modules rebound]}, [original functions]) so a
    caller can show coverage and look for bindings the scan missed.
    """
    wrapped = {}
    rebound = {}
    for layer, names in LAYERS.items():
        module = importlib.import_module(f"riesz.{layer}")
        for name in names:
            span = f"{layer}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, tracer.wrap(span, getattr(cls, method)))
                rebound[span] = [f"{module.__name__}.{cls_name}"]
                continue
            original = getattr(module, name)
            wrapped[id(original)] = (span, tracer.wrap(span, original), original)
            rebound[span] = []
    for module in _riesz_modules():
        for attr, value in list(vars(module).items()):
            hit = wrapped.get(id(value))
            if hit is not None:
                setattr(module, attr, hit[1])
                rebound[hit[0]].append(module.__name__)
    return rebound, [hit[2] for hit in wrapped.values()]


def unwrapped_bindings(originals):
    """Names in riesz modules still bound to an original (unwrapped) function."""
    ids = {id(fn) for fn in originals}
    return sorted(f"{module.__name__}.{attr}" for module in _riesz_modules()
                  for attr, value in vars(module).items() if id(value) in ids)


class FFTCounter:
    """Counts numpy.fft.fftn/ifftn calls, independently of the span wrappers."""

    def __init__(self):
        self.calls = 0
        for name in ("fftn", "ifftn"):
            setattr(np.fft, name, self._counted(getattr(np.fft, name)))

    def _counted(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.calls += 1
            return fn(*args, **kwargs)

        return counted


def _workers(argv):
    for i, arg in enumerate(argv):
        if arg == "--workers" and i + 1 < len(argv):
            return argv[i + 1]
        if arg.startswith("--workers="):
            return arg.partition("=")[2]
    return "1"


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <riesz arguments>", file=sys.stderr)
        return 1
    out_path, cli_argv = argv[0], argv[2:]
    if _workers(cli_argv) != "1":
        print("tracer.py: spans nest on one stack; pass --workers 1", file=sys.stderr)
        return 1
    import riesz.cli

    tracer = Tracer()
    rebound, originals = install(tracer)
    counter = FFTCounter()
    start = time.perf_counter()
    code = riesz.cli.main(cli_argv)
    main_s = time.perf_counter() - start
    record = {
        "argv": cli_argv,
        "exit": code,
        "main_s": main_s,
        "fft_calls": counter.calls,
        "rebound": rebound,
        "unwrapped": unwrapped_bindings(originals),
        "spans": tracer.spans,
    }
    with open(out_path, "w") as handle:
        json.dump(record, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
