import tracemalloc

import numpy as np
import pytest

from riesz.grid import Field, GridSpec, forward_transform, inverse_transform, random_band_limited
from riesz.multiplier import apply, kernel_of, schwartz_seminorm
from riesz.neumann import (
    MAX_TERMS,
    NeumannPlan,
    apply_forward,
    apply_reverse,
    choose_r0,
    contraction_ratio,
    decay_slope,
    forward_decomposition,
    make_plan,
    reverse_decomposition,
    seminorm_table,
    tail_kernel_bound,
    tail_term_seminorms,
)
from riesz.norms import lp_norm
from riesz.symbols import (
    Symbol,
    bochner_symbol,
    cutoff_pair,
    dist_to_unit_interval,
    resolvent_symbol,
)


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 2048, 40.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(123)


# -- r0 policy ---------------------------------------------------------------

def test_choose_r0_examples():
    # admissible interval for z = 2, delta = 1 is (0, 0.5); policy sits at 1/4
    assert choose_r0(2.0, 1.0) == pytest.approx(0.25)
    assert choose_r0(-1.0, 1.0) == pytest.approx(0.125)


def test_choose_r0_inside_admissible_interval():
    rng = np.random.default_rng(9)
    for _ in range(50):
        z = complex(rng.uniform(-3, 4), rng.uniform(-2, 2))
        if dist_to_unit_interval(z) < 1e-6:
            continue
        delta = rng.uniform(0.2, 3.0)
        r0 = choose_r0(z, delta)
        sup = min(abs(z / 2.0) ** (1.0 / delta), 1.0) / 2.0
        assert 0 < r0 < sup
        assert contraction_ratio(z, delta, r0) < 1.0


def test_choose_r0_rejects_segment():
    with pytest.raises(ValueError):
        choose_r0(0.5, 1.0)


def test_plan_validation(grid):
    with pytest.raises(ValueError):
        NeumannPlan(2.0, 1.0, 0.6, 3, 10, 2, 0, "forward", grid)  # r0 too big
    with pytest.raises(ValueError):
        NeumannPlan(2.0, 1.0, 0.25, 2, 10, 2, 0, "forward", grid)  # n0 <= alpha0/delta
    with pytest.raises(ValueError):
        NeumannPlan(2.0, 1.0, 0.25, 3, 3, 2, 0, "forward", grid)  # truncation too short
    with pytest.raises(ValueError):
        NeumannPlan(2.0, 1.0, 0.25, 3, 10, 2, 0, "sideways", grid)
    with pytest.raises(ValueError, match="segment"):
        NeumannPlan(0.5, 1.0, 0.05, 3, 10, 2, 0, "forward", grid)  # z on [0, 1]
    for z, r0 in ((0.5, 0.05), (1.0, 0.1), (0.0, 0.1)):  # a given r0 still checks z
        with pytest.raises(ValueError, match="segment"):
            make_plan(z, 1.0, grid=grid, r0=r0)


def test_make_plan_tolerance_driven(grid):
    plan = make_plan(2.0, 1.0, grid=grid, tail_tol=1e-10)
    assert plan.q == pytest.approx(0.25)
    assert plan.n0 > plan.alpha0 / plan.delta
    tail = plan.q ** (plan.truncation + 1) / (1 - plan.q) / abs(plan.z)
    shorter = plan.q**plan.truncation / (1 - plan.q) / abs(plan.z)
    assert tail <= 1e-10 < shorter


# -- forward direction -------------------------------------------------------

def test_forward_reconstruction_certificate(grid):
    plan = make_plan(2.0, 1.0, grid=grid, r0=0.25, truncation=40)
    dec = forward_decomposition(plan)
    # geometric tail in closed form: sum_{n>40} 2^-(n+1) 0.5^n
    assert dec.certified_tail == pytest.approx(0.25**41 / 0.75 / 2.0)
    assert dec.certified_tail < 1e-12
    assert dec.reconstruction_error <= dec.certified_tail + 1e-10


def _one(grid):
    """The constant spectrum 1 on grid: a composite of it is its own symbol."""
    return Field.frequency(grid, np.ones(grid.shape, dtype=complex))


def test_forward_region_bookkeeping(grid):
    plan = make_plan(2.0, 1.0, grid=grid)
    dec = forward_decomposition(plan)
    xi = np.abs(grid.xi_axis())
    composite = apply_forward(dec, _one(grid)).samples
    # inside psi1's plateau m1 matches alone: the section, the tail and the
    # far field vanish there
    inner = xi <= 1.0 - plan.r0
    assert np.array_equal(composite[inner], dec.target.samples[inner])
    # beyond psi2's support only the far field z^(-1) is left
    outer = xi > 1.0 + plan.r0
    assert np.all(composite[outer] == 1.0 / plan.z)


@pytest.mark.parametrize("z", [2.0, -1.0, 1.0 + 1.0j])
def test_forward_operator_equivalence(grid, rng, z):
    plan = make_plan(z, 1.0, grid=grid)
    dec = forward_decomposition(plan)
    target = resolvent_symbol(z, 1.0)
    for _ in range(5):
        f = random_band_limited(grid, 3.0, rng)
        composite = apply_forward(dec, f)
        direct = apply(target, f)
        rel = lp_norm(composite - direct, 2) / lp_norm(f, 2)
        bound = dec.certified_tail / dist_to_unit_interval(z) + 1e-9
        assert rel <= bound


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_forward_certificate_across_orders(grid, delta):
    # the geometric certificate holds for every power of the base symbol
    plan = make_plan(2.0, delta, grid=grid)
    dec = forward_decomposition(plan)
    assert dec.certified_tail <= 1e-10
    assert dec.reconstruction_error <= dec.certified_tail + 1e-10


@pytest.mark.parametrize("delta", [0.5, 2.0])
def test_reverse_certificate_across_orders(grid, delta):
    plan = make_plan(2.0, delta, direction="reverse", grid=grid)
    dec = reverse_decomposition(plan)
    q = plan.q
    assert dec.contraction_sup <= q / (1.0 - q) + 1e-10
    assert dec.reconstruction_error <= dec.certified_tail + 1e-10


def test_forward_gives_resolvent_identity(grid, rng):
    # (z I - B) applied to the composite returns the input
    plan = make_plan(2.0, 1.0, grid=grid)
    dec = forward_decomposition(plan)
    b = bochner_symbol(1.0)
    for _ in range(3):
        f = random_band_limited(grid, 3.0, rng)
        rf = apply_forward(dec, f)
        back = plan.z * rf - apply(b, rf)
        assert lp_norm(back - f, 2) / lp_norm(f, 2) < 1e-9


def test_transform_counts(grid, rng, transforms):
    # The tail kernel is kept as its spectrum, so neither building it nor
    # measuring the reconstruction error transforms anything.
    for direction, decompose in (("forward", forward_decomposition),
                                 ("reverse", reverse_decomposition)):
        for truncation in (10, 40):
            plan = make_plan(2.0, 1.0, direction=direction, grid=grid, truncation=truncation)
            before = len(transforms)
            decompose(plan)
            assert len(transforms) - before == 0
    # apply_forward composes on the spectrum: one forward transform of f and
    # one inverse of the composite's spectrum.
    dec = forward_decomposition(make_plan(2.0, 1.0, grid=grid))
    f = random_band_limited(grid, 3.0, rng)
    before = len(transforms)
    apply_forward(dec, f)
    assert len(transforms) - before == 2


def test_apply_reverse_transforms_its_input_once(grid, rng, transforms):
    # one forward transform of f and one inverse of the composite's spectrum
    dec = reverse_decomposition(make_plan(2.0, 1.0, direction="reverse", grid=grid))
    f = random_band_limited(grid, 3.0, rng)
    before = len(transforms)
    apply_reverse(dec, f)
    assert len(transforms) - before == 2


def test_compositions_stay_on_the_spectrum(grid, rng, transforms):
    # spectrum in, spectrum out with no transform; a spatial field is the
    # inverse transform of its spectrum's composite, bit for bit
    f = random_band_limited(grid, 3.0, rng)
    spec = forward_transform(f)
    for direction, decompose, compose in (("forward", forward_decomposition, apply_forward),
                                          ("reverse", reverse_decomposition, apply_reverse)):
        dec = decompose(make_plan(2.0, 1.0, direction=direction, grid=grid))
        before = len(transforms)
        out = compose(dec, spec)
        assert len(transforms) - before == 0, direction
        assert out.domain == "frequency"
        spatial = compose(dec, f)
        assert spatial.domain == "spatial"
        assert inverse_transform(out).samples.tobytes() == spatial.samples.tobytes(), direction


def test_compositions_reject_a_field_on_another_grid():
    grid = GridSpec(1, 256, 40.0)
    dec = forward_decomposition(make_plan(2.0, 1.0, grid=grid))
    other = random_band_limited(GridSpec(1, 512, 40.0), 1.0, np.random.default_rng(1))
    with pytest.raises(ValueError, match="different grids"):
        apply_forward(dec, other)


DECOMPOSITIONS = (("forward", forward_decomposition), ("reverse", reverse_decomposition))


@pytest.fixture
def sampled_symbols(monkeypatch):
    """The symbols sampled during a test, one entry per Symbol.fresh_sample call."""
    sampled = []
    sample = Symbol.fresh_sample
    monkeypatch.setattr(Symbol, "fresh_sample",
                        lambda self, grid: sampled.append(self) or sample(self, grid))
    return sampled


def test_components_are_frequency_fields(grid):
    for direction, decompose in DECOMPOSITIONS:
        dec = decompose(make_plan(2.0, 1.0, direction=direction, grid=grid))
        parts = [dec.ball, dec.psi2, dec.tail_kernel, dec.target]
        if direction == "forward":
            parts.append(dec.psi1)
        else:
            assert dec.psi1 is None
        for part in parts:
            assert isinstance(part, Field), direction
            assert part.domain == "frequency" and part.grid == grid, direction
        # the rest of the split is summed into the reconstruction error only
        for name in ("smooth_part", "series_part", "far_part"):
            assert not hasattr(dec, name), (direction, name)


def test_decompositions_hold_only_what_their_composites_read():
    # on the 2D 256^2 grid one complex array is 1 MiB: forward keeps the ball,
    # psi1, psi2, the tail kernel and the target; reverse all but psi1
    grid = GridSpec(2, 256, 40.0)
    array = np.dtype(complex).itemsize * 256**2
    for (direction, decompose), bound in zip(DECOMPOSITIONS, (5.05, 4.05)):
        plan = make_plan(2.0, 1.0, direction=direction, grid=grid)
        tracemalloc.start()
        try:
            dec = decompose(plan)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held / array <= bound, direction
        del dec


@pytest.mark.parametrize("grid_2d", [False, True], ids=["1d", "2d"])
@pytest.mark.parametrize("z, delta", [(2.0, 1.0), (-1.0 + 0.5j, 0.5), (1.2, 2.0)])
def test_ball_sample_gives_the_resolvent_bit_for_bit(grid, grid_2d, z, delta):
    # the forward target and the reverse composite's resolvent, 1/(z - b)
    on = GridSpec(2, 256, 40.0) if grid_2d else grid
    expected = resolvent_symbol(z, delta).fresh_sample(on).tobytes()
    forward, reverse = (decompose(make_plan(z, delta, direction=direction, grid=on))
                        for direction, decompose in DECOMPOSITIONS)
    assert forward.target.samples.tobytes() == expected
    assert (1.0 / (z - reverse.ball.samples)).tobytes() == expected


def test_builds_sample_once_each_and_compositions_none(grid, rng, sampled_symbols):
    f = random_band_limited(grid, 3.0, rng)
    # forward samples the ball, psi1, psi2 and one ball power per tail term;
    # reverse samples the ball and psi2 and forms its powers from them; the
    # forward tail-term seminorms sample each ball power again, the reverse
    # ones nothing
    for direction, decompose in DECOMPOSITIONS:
        dec = decompose(make_plan(2.0, 1.0, direction=direction, grid=grid))
        terms = dec.plan.truncation - dec.plan.n0
        count = 3 + terms if direction == "forward" else 2
        assert len(sampled_symbols) == count, direction
        compose = apply_forward if direction == "forward" else apply_reverse
        compose(dec, f)
        compose(dec, forward_transform(f))
        assert len(sampled_symbols) == count, direction
        rows = tail_term_seminorms(dec)
        assert len(sampled_symbols) == count + (terms if direction == "forward" else 0)
        assert [n for n, _ in rows] == list(range(dec.plan.n0 + 1, dec.plan.truncation + 1))
        if direction == "forward":  # the same rows as the sampling table, bit for bit
            assert rows == seminorm_table(dec.plan, [n for n, _ in rows])
        sampled_symbols.clear()


def test_decompositions_check_psi2_support_at_build():
    # 1 < xi_max < 1 + r0: every series term fits, psi2 does not
    narrow = GridSpec(1, 70, 100.0)
    assert 1.0 < narrow.xi_max < 1.0 + choose_r0(2.0, 1.0)
    for direction, decompose in DECOMPOSITIONS:
        with pytest.raises(ValueError, match="window"):
            decompose(make_plan(2.0, 1.0, direction=direction, grid=narrow))
    seminorm_table(make_plan(2.0, 1.0, grid=narrow), [5])  # s_5 lives in |xi| <= 1


def test_series_terms_need_the_unit_ball_in_the_window():
    small = GridSpec(1, 32, 64.0)  # xi_max = pi/4
    with pytest.raises(ValueError, match="window"):
        forward_decomposition(make_plan(2.0, 1.0, grid=small))
    with pytest.raises(ValueError, match="window"):
        reverse_decomposition(make_plan(2.0, 1.0, direction="reverse", grid=small))
    with pytest.raises(ValueError, match="window"):
        seminorm_table(make_plan(2.0, 1.0, grid=small), [5])


def test_forward_direction_guard(grid):
    plan = make_plan(2.0, 1.0, direction="reverse", grid=grid)
    with pytest.raises(ValueError):
        forward_decomposition(plan)


# -- reverse direction -------------------------------------------------------

def test_reverse_contraction_bound(grid):
    plan = make_plan(2.0, 1.0, direction="reverse", grid=grid, truncation=60)
    dec = reverse_decomposition(plan)
    q = plan.q
    assert dec.contraction_sup <= q / (1.0 - q) + 1e-10
    assert dec.reconstruction_error <= 1e-8
    assert dec.reconstruction_error <= dec.certified_tail + 1e-10


def test_reverse_vanishes_at_origin(grid):
    plan = make_plan(2.0, 1.0, direction="reverse", grid=grid)
    dec = reverse_decomposition(plan)
    # psi2 vanishes at the origin, so the composite's symbol b psi2 does too
    assert apply_reverse(dec, _one(grid)).samples[grid.size // 2] == 0.0


def test_reverse_operator_equivalence(grid, rng):
    plan = make_plan(2.0, 1.0, direction="reverse", grid=grid)
    dec = reverse_decomposition(plan)
    for _ in range(5):
        f = random_band_limited(grid, 3.0, rng)
        reference = apply(bochner_symbol(1.0) * cutoff_pair(plan.r0)[1], f)
        rel = lp_norm(apply_reverse(dec, f) - reference, 2) / lp_norm(f, 2)
        assert rel <= dec.certified_tail + 1e-9


# -- reconstruction through the composite ------------------------------------

@pytest.mark.parametrize("grid_2d, z", [(False, 2.0), (False, -1.0 + 0.5j), (True, 2.0)],
                         ids=["1d-2", "1d-off-axis", "2d-2"])
def test_reconstruction_error_is_measured_through_the_composite(grid, grid_2d, z):
    # the composite of the constant spectrum 1 is the symbol the operator
    # multiplies by, so the certificate is checked against the code that runs
    on = GridSpec(2, 64, 20.0) if grid_2d else grid
    for direction, decompose in DECOMPOSITIONS:
        dec = decompose(make_plan(z, 1.0, direction=direction, grid=on))
        compose = apply_forward if direction == "forward" else apply_reverse
        symbol = compose(dec, _one(on)).samples
        measured = float(np.max(np.abs(symbol - dec.target.samples)))
        assert dec.reconstruction_error == measured, direction
        assert dec.reconstruction_error <= dec.certified_tail + 1e-10, direction


# -- series that cannot be summed --------------------------------------------

def _peak_of_rejection(fn, *args, match):
    """Peak bytes traced while fn(*args) raises a ValueError matching match."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=match):
            fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# on the 2D 256^2 grid one complex array is 1 MiB and one real sample 0.5 MiB
_WIDE = GridSpec(2, 256, 40.0)


@pytest.mark.parametrize("direction, decompose", DECOMPOSITIONS)
def test_a_truncation_past_the_term_bound_stops_before_sampling(sampled_symbols, direction,
                                                                decompose):
    plan = make_plan(2.0, 1.0, direction=direction, grid=_WIDE, truncation=10**8)
    peak = _peak_of_rejection(decompose, plan, match=f"truncation=100000000 .*{MAX_TERMS}")
    assert peak < 64 * 1024
    assert sampled_symbols == []


def test_a_tiny_delta_stops_before_sampling(sampled_symbols):
    # n0 ~ alpha0/delta = 3e20 forward: the plan's truncation passes the bound
    plan = make_plan(2.0, 1e-20, grid=_WIDE)
    assert plan.truncation > MAX_TERMS
    assert _peak_of_rejection(forward_decomposition, plan, match="truncation=") < 64 * 1024
    # reverse: q rounds to 1/2, so the ratio q/(1 - q) is 1 and sums nothing
    assert _peak_of_rejection(make_plan, 2.0, 1e-20, "reverse", _WIDE,
                              match="reverse contraction ratio 1.0 is not below 1") < 64 * 1024
    assert sampled_symbols == []


# -- kernel sequence ---------------------------------------------------------

@pytest.fixture(scope="module")
def decay_plan():
    return make_plan(2.0, 1.0, grid=GridSpec(1, 4096, 64.0), alpha0=2, beta0=0, r0=0.25)


def test_kernel_sequence_real(decay_plan):
    # a table row is the seminorm of the kernel of b^n psi2, a real kernel
    grid, delta = decay_plan.grid, decay_plan.delta
    k = kernel_of(bochner_symbol(25 * delta) * cutoff_pair(decay_plan.r0)[1], grid)
    assert np.max(np.abs(k.samples.imag)) < 1e-10
    s = schwartz_seminorm(k, decay_plan.alpha0, decay_plan.beta0)
    assert s > 0
    assert seminorm_table(decay_plan, [25]) == [(25, s)]


def test_kernel_sequence_ratio_majorant(decay_plan):
    # consecutive seminorms shrink at least as fast as the geometric majorant
    table = seminorm_table(decay_plan, range(20, 41))
    values = dict(table)
    for n in range(20, 40):
        ratio = values[n + 1] / values[n]
        cap = (2 * decay_plan.r0) ** decay_plan.delta * ((n + 1) / n) ** decay_plan.alpha0 * 1.1
        assert ratio <= cap


def test_kernel_sequence_slope_is_steady(decay_plan):
    # the log-seminorm decays linearly; the fitted slope is reproducible and
    # at least as steep as the geometric majorant's rate
    table = seminorm_table(decay_plan, range(20, 41))
    slope = decay_slope(table)
    assert slope < np.log((2 * decay_plan.r0) ** decay_plan.delta)
    half = decay_slope(table[:11])
    assert slope == pytest.approx(half, rel=0.05)


def test_seminorm_table_index_validation(decay_plan):
    with pytest.raises(ValueError, match="series index"):
        seminorm_table(decay_plan, [0])


# -- tail bound --------------------------------------------------------------

def test_tail_bound_pure_geometric(grid):
    plan = make_plan(2.0, 1.0, grid=grid, alpha0=0, beta0=0, n0=1, truncation=40, r0=0.25)
    assert tail_kernel_bound(plan) == pytest.approx(0.25**41 / 0.75, rel=1e-12)


def test_tail_bound_monotone_in_truncation(grid):
    bounds = [
        tail_kernel_bound(make_plan(2.0, 1.0, grid=grid, truncation=t)) for t in (10, 20, 40)
    ]
    assert bounds[0] > bounds[1] > bounds[2]


def test_tail_bound_grows_with_alpha0(grid):
    small = tail_kernel_bound(make_plan(2.0, 1.0, grid=grid, alpha0=0, n0=4, truncation=12))
    large = tail_kernel_bound(make_plan(2.0, 1.0, grid=grid, alpha0=2, n0=4, truncation=12))
    assert large >= small
