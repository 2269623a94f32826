"""No public operation writes into an array it did not make.

Transforms may overwrite their input's samples when the caller made that
array and gives it up.  These tests run every caller of that path, and the
ones that must not take it, and check that afterwards every Field they were
given holds the same bits and is still read-only.  No package path samples
a symbol through the cached, read-only `Symbol.sample`: every sample is a
new array of the caller's own.
"""

import numpy as np
import pytest

from riesz.grid import GridSpec, forward_transform, random_band_limited
from riesz.multiplier import apply, convolve, kernel_of
from riesz.neumann import (
    apply_forward,
    apply_reverse,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
    seminorm_table,
    tail_term_seminorms,
)
from riesz.norms import besov_norm, build_lp_family, triebel_norm
from riesz.probes import (
    ProbeSpec,
    decay_rows,
    probe_ratio,
    resolvent_norm_grid_sup,
    spectrum_map,
)
from riesz.symbols import Symbol, bochner_symbol


@pytest.fixture
def watched(monkeypatch):
    """Snapshots of given arrays that must not change; also checks that no
    `Symbol.sample` call happens while the test runs."""
    arrays, cached_samples = [], []
    original = Symbol.sample
    monkeypatch.setattr(Symbol, "sample",
                        lambda self, grid: cached_samples.append(self) or original(self, grid))

    def watch(*fields):
        arrays.extend((f.samples, f.samples.copy()) for f in fields)
        return fields

    yield watch
    assert not cached_samples
    for arr, copy in arrays:
        assert not arr.flags.writeable
        assert arr.tobytes() == copy.tobytes()


def _field_and_spectrum(grid, band, seed):
    f = random_band_limited(grid, band, np.random.default_rng(seed))
    return f, forward_transform(f)


@pytest.mark.parametrize("dim,size", [(1, 256), (2, 32)])
def test_multipliers_leave_their_inputs_alone(watched, dim, size):
    g = GridSpec(dim, size, 8.0)
    f, spec = watched(*_field_and_spectrum(g, 2.0, 1))
    m = bochner_symbol(1.0)
    (kernel,) = watched(kernel_of(m, g))
    (kernel_spec,) = watched(forward_transform(kernel))
    for given in (f, spec):
        apply(m, given)
        convolve(kernel, given)
        convolve(kernel_spec, given)


@pytest.mark.parametrize("direction", ["forward", "reverse"])
def test_neumann_compositions_leave_their_inputs_alone(watched, direction):
    g = GridSpec(1, 256, 20.0)
    plan = make_plan(2.0, 1.0, direction=direction, grid=g)
    build = forward_decomposition if direction == "forward" else reverse_decomposition
    compose = apply_forward if direction == "forward" else apply_reverse
    dec = build(plan)
    watched(*(v for v in vars(dec).values() if hasattr(v, "samples")))
    f, spec = watched(*_field_and_spectrum(g, 2.0, 2))
    compose(dec, f)
    compose(dec, spec)
    tail_term_seminorms(dec)
    seminorm_table(plan, [2, 3])


@pytest.mark.parametrize("weight_a", [None, 0.0])
def test_probes_take_no_cached_sample(watched, weight_a):
    # a probe is built, transformed and inverted in arrays of its own
    spec = ProbeSpec(0.5, 1.0, 1.0, n_values=(4, 8), weight_a=weight_a)
    grid = spec.default_grid()
    decay_rows(spec, grid)
    probe_ratio(spec, 8, grid)
    spectrum_map([0.5 + 0.5j, -0.5 + 0.25j], 1.0, 1.0, n_values=(8, 16))
    resolvent_norm_grid_sup(2.0, 1.0, grid)


def test_norm_blocks_leave_their_input_alone(watched):
    g = GridSpec(2, 64, 6.0)  # xi_max 16.8 covers the top block's support 16
    (f,) = watched(random_band_limited(g, 2.0, np.random.default_rng(3)))
    family = build_lp_family(3)
    besov_norm(f, 0.5, 2.0, 2.0, family)
    triebel_norm(f, 0.5, 2.0, 2.0, family)
