import dataclasses

import numpy as np
import pytest

from riesz import symbols

from riesz.grid import Field, GridSpec, inverse_transform
from riesz.symbols import (
    BumpProfile,
    Symbol,
    bochner_symbol,
    bump_phi0,
    critical_delta,
    cutoff_pair,
    dist_to_unit_interval,
    mikhlin_check,
    resolvent_symbol,
    scalar_symbol,
    smoothstep,
)


def ev1(symbol, xs):
    return symbol.evaluate((np.asarray(xs, dtype=float),))


def test_smoothstep_endpoints_and_range():
    s = np.linspace(-0.5, 1.5, 201)
    vals = smoothstep(s)
    assert vals.min() >= 0.0 and vals.max() <= 1.0
    assert smoothstep(0.0) == 0.0
    assert smoothstep(1.0) == 1.0


def test_bump_profile_plateau_and_support():
    prof = BumpProfile(1.0, 2.0)
    assert prof(0.3) == 1.0
    assert prof(-1.0) == 1.0
    assert prof(2.0) == 0.0
    assert prof(5.0) == 0.0
    mid = prof(1.5)
    assert 0.0 < mid < 1.0
    with pytest.raises(ValueError):
        BumpProfile(2.0, 1.0)


# -- ball multiplier symbol --------------------------------------------------

def test_bochner_values():
    b = bochner_symbol(1.0)
    assert ev1(b, [0.0])[0] == pytest.approx(1.0)
    assert ev1(b, [0.5])[0] == pytest.approx(0.75)
    b2 = bochner_symbol(0.5)
    assert ev1(b2, [0.0])[0] == pytest.approx(1.0)


def test_bochner_vanishes_outside_ball():
    b = bochner_symbol(0.7)
    vals = ev1(b, [1.0, 1.0001, 1.5, 30.0])
    assert np.all(vals == 0.0)


def test_bochner_rejects_bad_delta():
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            bochner_symbol(bad)


def test_bochner_radial_monotone():
    b = bochner_symbol(1.3)
    r = np.linspace(0.0, 1.0, 400)
    vals = ev1(b, r).real
    assert np.all(np.diff(vals) <= 1e-15)


def test_bochner_radial_symmetry_2d():
    b = bochner_symbol(0.8)
    x = np.array([0.3]), np.array([0.4])
    swapped = np.array([0.4]), np.array([0.3])
    reflected = np.array([-0.3]), np.array([0.4])
    v = b.evaluate(x)[0]
    assert b.evaluate(swapped)[0] == pytest.approx(v, rel=1e-14)
    assert b.evaluate(reflected)[0] == pytest.approx(v, rel=1e-14)


# -- resolvent symbol --------------------------------------------------------

def test_resolvent_values():
    r = resolvent_symbol(2.0, 1.0)
    assert ev1(r, [0.0])[0] == pytest.approx(1.0)
    assert ev1(r, [1.0, 2.0, 7.0]) == pytest.approx([0.5, 0.5, 0.5])


def test_resolvent_rejects_pole():
    for z in (0.5, 0.0, 1.0, 0.25 + 1e-13j):
        with pytest.raises(ValueError):
            resolvent_symbol(z, 1.0)


def test_dist_to_unit_interval():
    assert dist_to_unit_interval(2.0) == pytest.approx(1.0)
    assert dist_to_unit_interval(-1.0) == pytest.approx(1.0)
    assert dist_to_unit_interval(1 + 1j) == pytest.approx(1.0)
    assert dist_to_unit_interval(0.5 + 0.25j) == pytest.approx(0.25)


def test_resolvent_sup_bounded_by_distance():
    g = GridSpec(1, 512, 16.0)
    rng = np.random.default_rng(2)
    for _ in range(20):
        z = complex(rng.uniform(-2, 3), rng.uniform(-2, 2))
        if dist_to_unit_interval(z) < 1e-3:
            continue
        sym = resolvent_symbol(z, 1.0)
        sup = np.max(np.abs(sym.sample(g)))
        assert sup <= 1.0 / dist_to_unit_interval(z) + 1e-12


# -- cutoffs -----------------------------------------------------------------

def test_cutoff_pair_levels():
    psi1, psi2 = cutoff_pair(0.25)
    assert ev1(psi1, [0.0])[0] == 1.0
    # partition holds exactly on the unit sphere
    s1 = ev1(psi1, [1.0])[0]
    s2 = ev1(psi2, [1.0])[0]
    assert s1 + s2 == pytest.approx(1.0, abs=0.0)
    assert ev1(psi2, [1.5])[0] == 0.0


def test_cutoff_pair_partition_on_grid_ball():
    psi1, psi2 = cutoff_pair(0.3)
    g = GridSpec(1, 1024, 64.0)
    xi = g.xi_axis()
    total = psi1.sample(g) + psi2.sample(g)
    ball = np.abs(xi) <= 1.0 + 0.3 / 2.0
    assert np.max(np.abs(total[ball] - 1.0)) == 0.0


def test_cutoff_pair_supports():
    r0 = 0.2
    psi1, psi2 = cutoff_pair(r0)
    assert np.all(ev1(psi1, [1 - r0 / 2, 1.0, 2.0]) == 0.0)
    assert np.all(ev1(psi2, [0.0, 1 - r0, 0.5]) == 0.0)
    inside = ev1(psi2, [1.0, 1 + r0 / 2])
    assert np.all(inside.real > 0.0)


def test_cutoff_pair_range_validation():
    for bad in (0.0, 0.5, 0.7, -0.1):
        with pytest.raises(ValueError):
            cutoff_pair(bad)


# -- probe bump --------------------------------------------------------------

def test_bump_support_and_positivity():
    phi = bump_phi0(0.5)
    assert ev1(phi, [0.55, 0.5, 5.0]).max() == 0.0
    assert ev1(phi, [0.0])[0].real > 0.0
    assert ev1(phi, [0.49])[0].real > 0.0


def test_bump_normalization_spatial_value():
    # independent oracle: plain Riemann sum of the bump over a dense lattice
    phi = bump_phi0(1.0)
    dense = np.linspace(-1.0, 1.0, 2**16 + 1)
    riemann = np.trapezoid(ev1(phi, dense).real, dense) / (2.0 * np.pi)
    assert riemann == pytest.approx(1.0, abs=1e-10)
    # the transform path reproduces the same value at x = 0
    g = GridSpec(1, 2560, 160.0)
    spatial = inverse_transform(Field.frequency(g, phi.sample(g)))
    assert abs(spatial.samples[g.size // 2] - 1.0) < 1e-8


def test_bump_normalization_2d():
    phi = bump_phi0(1.0)
    g = GridSpec(2, 512, 160.0)
    spatial = inverse_transform(Field.frequency(g, phi.sample(g)))
    assert abs(spatial.samples[g.size // 2, g.size // 2] - 1.0) < 1e-8


def test_unit_bump_mass_is_the_trapezoid_bit_for_bit():
    s = np.linspace(0.0, 1.0, 2**20 + 1)
    vals = symbols._flat_exp(1.0 - s**2)
    assert symbols._unit_bump_mass(1) == 2.0 * np.trapezoid(vals, s)
    assert symbols._unit_bump_mass(2) == 2.0 * np.pi * np.trapezoid(vals * s, s)
    with pytest.raises(ValueError, match="unsupported dimension"):
        symbols._unit_bump_mass(3)


@pytest.mark.parametrize("rho", [1e-200, 1e200, -1.0, 0.0, np.inf, np.nan])
def test_bump_rejects_a_radius_it_cannot_normalise(rho):
    with pytest.raises(ValueError):
        bump_phi0(rho)


def test_bump_rejects_a_radius_without_a_finite_2d_scale():
    phi = bump_phi0(1e-155)  # rho**2 > 0, but (2 pi)^2 / (rho^2 mass) overflows
    assert ev1(phi, [0.0])[0].real > 0.0
    with pytest.raises(ValueError):
        phi.evaluate((np.zeros(1), np.zeros(1)))


# -- critical exponent -------------------------------------------------------

@pytest.mark.parametrize(
    "p,d,expected",
    [(2.0, 1, 0.0), (2.0, 2, 0.0), (1.0, 2, 0.5), (1.0, 1, 0.0), (4.0, 2, 0.0), (1.0, 3, 1.0)],
)
def test_critical_delta(p, d, expected):
    assert critical_delta(p, d) == pytest.approx(expected)


def test_critical_delta_validation():
    with pytest.raises(ValueError):
        critical_delta(0.5, 1)


# -- symbol algebra ----------------------------------------------------------

def test_support_radius_enforced_exactly():
    raw = Symbol(lambda c: np.ones(np.broadcast(*c).shape, dtype=complex), 1.0)
    vals = ev1(raw, [0.5, 1.0, 1.0001, 3.0])
    assert list(vals.real) == [1.0, 1.0, 0.0, 0.0]


def test_sample_cache_returns_readonly():
    g = GridSpec(1, 64, 4.0)
    b = bochner_symbol(1.0)
    first = b.sample(g)
    assert b.sample(g) is first
    with pytest.raises(ValueError):
        first[0] = 5.0


def _unit_rule(coords):
    return np.ones(np.broadcast(*coords).shape, dtype=complex)


def _on_lattice(grid, k):
    """The lattice coordinate k cells from the origin, as sample computes it."""
    return float(grid.xi_axis()[grid.size // 2 + k])


_BOX_SYMBOLS = {
    "bochner": lambda g: bochner_symbol(1.0),
    "bochner-half": lambda g: bochner_symbol(0.5),
    "resolvent": lambda g: resolvent_symbol(2.0 + 0.5j, 1.0),
    "cutoff1": lambda g: cutoff_pair(0.2)[0],
    "cutoff2": lambda g: cutoff_pair(0.2)[1],
    "bump": lambda g: bump_phi0(0.3),
    "scalar": lambda g: scalar_symbol(1.5 - 0.5j),
    "shifted": lambda g: bochner_symbol(1.0).shifted(0.5),
    "shifted-vector": lambda g: bump_phi0(0.4).dilated(2.0).shifted((0.7, -0.3)),
    "dilated": lambda g: bochner_symbol(1.0).dilated(2.5),
    "sum": lambda g: bochner_symbol(1.0) + cutoff_pair(0.3)[1],
    "difference": lambda g: scalar_symbol(0.5) - bochner_symbol(2.0),
    "product": lambda g: bochner_symbol(1.0) * cutoff_pair(0.3)[0],
    "scalar-multiple": lambda g: 3.0 * bump_phi0(0.6),
    "beyond-window": lambda g: bump_phi0(2.0 * g.xi_max),
    "at-window": lambda g: Symbol(_unit_rule, _on_lattice(g, g.size // 2 - 1)),
    "on-lattice": lambda g: Symbol(_unit_rule, _on_lattice(g, 3)),
    "ulp-above-lattice": lambda g: Symbol(_unit_rule, np.nextafter(_on_lattice(g, 3), np.inf)),
    "ulp-below-lattice": lambda g: Symbol(_unit_rule, np.nextafter(_on_lattice(g, 3), 0.0)),
    "zero-support": lambda g: Symbol(_unit_rule, 0.0),
}


@pytest.mark.parametrize("grid", [GridSpec(1, 256, 16.0), GridSpec(2, 64, 8.0),
                                  GridSpec(2, 8, 16.0)], ids=["1d", "2d", "2d-narrow"])
@pytest.mark.parametrize("make", list(_BOX_SYMBOLS.values()), ids=list(_BOX_SYMBOLS))
def test_box_sample_equals_masked_full_lattice(grid, make):
    symbol = make(grid)
    full = np.broadcast_to(symbol.evaluate(grid.xi_mesh()), grid.shape)
    assert np.array_equal(symbol.sample(grid), full)


def test_box_sample_keeps_a_support_on_the_lattice():
    g = GridSpec(1, 64, 8.0)
    edge = _on_lattice(g, 3)
    counts = [np.count_nonzero(Symbol(_unit_rule, r).sample(g))
              for r in (np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf))]
    assert counts == [5, 7, 7]


def test_box_sample_evaluates_only_the_box():
    g = GridSpec(2, 64, 8.0)  # dxi = pi/8, so |xi| <= 1 spans cells -2..2 per axis
    shapes = []

    def rule(coords):
        shapes.append(np.broadcast(*coords).shape)
        return _unit_rule(coords)

    Symbol(rule, 1.0).sample(g)
    assert shapes == [(5, 5)]


def test_support_radius_must_be_a_nonnegative_number():
    for bad in (-1.0, np.nan):
        with pytest.raises(ValueError, match="support radius"):
            Symbol(_unit_rule, bad)


def test_product_and_shift_combinators():
    g = GridSpec(1, 256, 16.0)
    b = bochner_symbol(1.0)
    two = scalar_symbol(2.0)
    prod = two * b
    assert np.max(np.abs(prod.sample(g) - 2.0 * b.sample(g))) < 1e-15
    shift = b.shifted(0.5)
    xi = g.xi_axis()
    direct = np.clip(1.0 - (xi - 0.5) ** 2, 0.0, None)
    assert np.max(np.abs(shift.sample(g) - direct)) < 1e-14
    dil = b.dilated(2.0)
    assert dil.support_radius == pytest.approx(0.5)
    assert ev1(dil, [0.3])[0] == pytest.approx(1.0 - 0.36)


def _bookkeeping(m):
    return m.support_radius, m.nonsmooth_radii


def test_algebra_carries_support_and_nonsmooth_radii():
    ball, resolvent = bochner_symbol(1.0), resolvent_symbol(2.0, 1.0)
    psi1, psi2 = cutoff_pair(0.25)  # supports 0.875 and 1.25, both smooth
    assert _bookkeeping(scalar_symbol(3.0)) == (np.inf, ())
    assert _bookkeeping(2.0 * ball) == _bookkeeping(ball * 2.0) == (1.0, (1.0,))
    assert _bookkeeping(-ball) == (1.0, (1.0,))
    # a product lives on the smaller support, a sum on the larger; radii unite
    assert _bookkeeping(ball * psi2) == (1.0, (1.0,))
    assert _bookkeeping(psi1 * psi2) == (0.875, ())
    assert _bookkeeping(psi1 + psi2) == (1.25, ())
    assert _bookkeeping(psi2 - ball) == (1.25, (1.0,))
    assert _bookkeeping(resolvent - ball) == (np.inf, (1.0,))
    assert _bookkeeping(ball.dilated(2.0) + ball) == (1.0, (0.5, 1.0))
    # dilation by 2 halves the support and every radius
    assert _bookkeeping((ball * psi2).dilated(2.0)) == (0.5, (0.5,))
    # a shift widens a finite support by |xi0| and drops the off-center spheres
    assert _bookkeeping(ball.shifted(0.5)) == (1.5, ())
    assert _bookkeeping(ball.shifted([0.3, 0.4])) == (1.5, ())
    assert _bookkeeping(resolvent.shifted(0.5)) == (np.inf, ())


def test_a_symbol_is_frozen_to_its_rule_support_and_radii():
    assert [f.name for f in dataclasses.fields(Symbol)] == [
        "fn", "support_radius", "nonsmooth_radii", "_cache"]
    ball = bochner_symbol(1.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ball.support_radius = 2.0
    assert ball.support_radius == 1.0


# -- derivative screen -------------------------------------------------------

def test_mikhlin_constant_symbol():
    report = mikhlin_check(scalar_symbol(1.0), 3, refinements=2)
    assert report.sups[-1][0] == pytest.approx(1.0)
    assert all(s == 0.0 for s in report.sups[-1][1:])
    assert not report.any_flagged


def test_mikhlin_resolvent_refinement_stable():
    # smooth away from the sphere: sups settle under refinement at every order
    report = mikhlin_check(resolvent_symbol(2.0, 1.0), 3)
    assert not report.any_flagged
    assert all(np.isfinite(g) and g < 2.0 for g in report.growth)


def test_mikhlin_flags_square_root_ball():
    # (1 - |xi|^2)^(1/2) has an unbounded gradient at the sphere: the k = 1
    # sup keeps growing across the refinement ladder
    report = mikhlin_check(bochner_symbol(0.5), 1)
    assert report.flagged[1]
    assert report.growth[1] > report.threshold == symbols.MIKHLIN_GROWTH_THRESHOLD
    sups = [level[1] for level in report.sups]
    assert all(b > a for a, b in zip(sups, sups[1:]))


def test_mikhlin_smooth_ball_power_not_flagged():
    report = mikhlin_check(bochner_symbol(1.0), 1)
    assert not report.any_flagged


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("symbol", [bochner_symbol(0.5), resolvent_symbol(2.0, 1.0),
                                    scalar_symbol(1.0)], ids=["bochner", "resolvent", "scalar"])
def test_mikhlin_sups_do_not_depend_on_the_strip(monkeypatch, dim, symbol):
    # levels of 17, 33, 65 points per axis (2D) or 65, 129, 257 (1D); budgets of
    # one row, of 5 rows of the middle level (odd counts, several strips with
    # halos) and of the whole level
    base = 16 if dim == 2 else 64
    for kmax in range(4):
        reprs = set()
        for budget in (1, 5 * (2 * base + 1) ** (dim - 1), 10**9):
            monkeypatch.setattr(symbols, "_STRIP_POINTS", budget)
            report = mikhlin_check(symbol, kmax, dim=dim, base_points=base, refinements=2)
            reprs.add(repr(report.sups))
        assert len(reprs) == 1, (kmax, reprs)


def test_mikhlin_memory_is_bounded_by_the_strip(traced_peak):
    # the 2D default's finest level is 2049^2 points; holding it whole with its
    # k <= 2 derivative tensors made tracemalloc peak near 680 MiB, and strips
    # holding every order-k tensor at once near 19 MiB
    _, peak = traced_peak(mikhlin_check, resolvent_symbol(2.0, 1.0), 2, dim=2)
    assert peak < 12.5 * 2**20


def test_mikhlin_streams_the_orders_of_the_benchmark_config(traced_peak):
    # the benchmark's screen: 2D, kmax = 2, two refinements.  A strip of
    # 2^17 points holds one order-1 tensor not yet differentiated, the one
    # being differentiated, the gradient being made and one real running
    # sum of squares; the dim^2 order-2 tensors are never held together
    # (holding them traced 18.8 MiB)
    report, peak = traced_peak(mikhlin_check, resolvent_symbol(2.0, 1.0), 2, dim=2,
                               refinements=2)
    assert peak < 12 * 2**20
    assert not report.any_flagged


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("factor", [2.0**600, 2.0**-600], ids=["2^600", "2^-600"])
def test_mikhlin_sums_of_squares_keep_a_power_of_two_scale(dim, factor):
    # 2^600 squared overflows and 2^-600 squared underflows; a power of two
    # scales the values and differences exactly, so the sups scale by it too
    base = mikhlin_check(bochner_symbol(1.0), 2, dim=dim, refinements=2)
    report = mikhlin_check(factor * bochner_symbol(1.0), 2, dim=dim, refinements=2)
    assert report.sups == [[factor * s for s in level] for level in base.sups]
    assert report.growth == base.growth and report.flagged == base.flagged


def test_mikhlin_rejects_large_order():
    with pytest.raises(ValueError):
        mikhlin_check(scalar_symbol(1.0), 4)
