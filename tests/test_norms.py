import itertools
import math

import numpy as np
import pytest

from riesz.grid import Field, GridSpec, forward_transform, random_band_limited
from riesz.multiplier import kernel_of
from riesz.norms import (
    CubeFamily,
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
    weight_samples,
    weighted_lp_norm,
)
from riesz.symbols import _STRIP_POINTS


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 4096, 64.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(77)


# -- L^p ----------------------------------------------------------------------

def test_lp_box_mass(grid):
    # box aligned with the half-open grid cells carries its exact measure
    x = grid.x_axis()
    f = Field.spatial(grid, np.where((x >= -2.0) & (x < 2.0), 1.0, 0.0))
    assert lp_norm(f, 1) == pytest.approx(4.0, abs=1e-3)


def test_lp_homogeneity(grid, rng):
    f = random_band_limited(grid, 2.0, rng)
    scaled = Field.spatial(grid, -3.7j * f.samples)
    for p in (1.0, 2.0, 3.5):
        assert lp_norm(scaled, p) == pytest.approx(3.7 * lp_norm(f, p), rel=1e-14)


def test_lp_gaussian_closed_form():
    g = GridSpec(1, 1024, 16.0)
    f = Field.spatial(g, np.exp(-g.x_axis() ** 2 / 2.0))
    assert lp_norm(f, 2) == pytest.approx(np.pi**0.25, abs=1e-8)


def test_lp_triangle(grid, rng):
    for p in (1.0, 2.0, 4.0):
        f = random_band_limited(grid, 2.0, rng)
        g_f = random_band_limited(grid, 2.0, rng)
        assert lp_norm(f + g_f, p) <= lp_norm(f, p) + lp_norm(g_f, p) + 1e-12


# -- weighted L^p --------------------------------------------------------------

def test_lp_norm_holds_one_real_array(rng, traced_peak):
    # |f| is raised to p in place: half the bytes of the complex samples
    f = random_band_limited(GridSpec(2, 256, 20.0), 2.0, rng)
    for p in (1, 1.5, 2, 4):
        value, peak = traced_peak(lp_norm, f, p)
        assert peak <= 0.55 * f.samples.nbytes, p
        assert value == float(np.sum(np.abs(f.samples) ** p) ** (1.0 / p)
                              * f.grid.h ** (f.grid.dim / p))


@pytest.mark.parametrize("peak, constant, problem", [
    (1e-2, False, "underflows to 0"), (10.0, False, "overflows"),
    (10 ** (306 / 400), True, "overflows"),
], ids=["underflow", "overflow", "sum-overflow"])
def test_a_power_sum_out_of_range_names_p(rng, peak, constant, problem):
    # at p = 400, 1e-2^p underflows on every cell, 10^p overflows on one, and
    # 1e306 is finite on each cell but not summed over them: the norm would be
    # a silent 0 or inf
    g = GridSpec(2, 64, 8.0)
    f = np.ones(g.shape, dtype=complex) if constant else random_band_limited(g, 2.0, rng).samples
    f = Field.spatial(g, peak / np.max(np.abs(f)) * f)
    norms = {"lp": lambda: lp_norm(f, 400.0),
             "weighted": lambda: weighted_lp_norm(f, WeightSpec(0.5, 400.0)),
             "herz": lambda: herz_norm(f, HerzParams(0.5, 400.0, 1.0))}
    for name, norm in norms.items():
        with pytest.raises(ValueError, match=f"{problem} at p=400.0"):
            norm()
    spec = Field.frequency(g, np.full(g.shape, 1e-170 if peak < 1 else 1e160, dtype=complex))
    with pytest.raises(ValueError, match=f"{problem} at p=2"):
        spectrum_lp_norm(spec, 2)


def test_a_zero_power_sum_of_a_zero_field_is_no_error():
    g = GridSpec(2, 64, 8.0)
    zero = Field.spatial(g, np.zeros(g.shape, dtype=complex))
    assert lp_norm(zero, 1e300) == 0.0
    assert weighted_lp_norm(zero, WeightSpec(0.5, 1e300)) == 0.0
    # Herz blocks reach |x| <= 8: a field on the corners beyond has norm 0
    corners = Field.spatial(g, np.where(g.x_radius() > 8.0, 1.0, 0.0).astype(complex))
    assert herz_norm(corners, HerzParams(0.5, 2.0, 1.0)) == 0.0


def test_spectrum_lp_norm_matches_the_spatial_norm(grid, rng):
    f = random_band_limited(grid, 3.0, rng)
    spec = forward_transform(f)
    # Parseval at p = 2, one inverse transform otherwise
    assert spectrum_lp_norm(spec, 2) == pytest.approx(lp_norm(f, 2), rel=1e-12)
    for p in (1, 3):
        assert spectrum_lp_norm(spec, p) == pytest.approx(lp_norm(f, p), rel=1e-10)
    with pytest.raises(ValueError):
        spectrum_lp_norm(f, 2)


def test_weighted_zero_exponent_matches_plain(grid, rng):
    f = random_band_limited(grid, 2.0, rng)
    w = WeightSpec(0.0, 2.0)
    assert weighted_lp_norm(f, w) == lp_norm(f, 2)


def test_weight_admissibility():
    WeightSpec(0.5, 2.0).validate_for_dim(1)
    with pytest.raises(ValueError):
        WeightSpec(1.0, 2.0).validate_for_dim(1)  # a = d(p-1) excluded
    with pytest.raises(ValueError):
        WeightSpec(-1.0, 2.0).validate_for_dim(1)
    with pytest.raises(ValueError):
        WeightSpec(0.5, 1.0).validate_for_dim(1)  # A_1 needs a <= 0
    WeightSpec(-0.5, 1.0).validate_for_dim(1)


def test_weighted_monotone_in_exponent(grid):
    # f supported in |x| >= 1, where larger a means a larger weight
    samples = np.where(np.abs(grid.x_axis()) >= 1.0, np.exp(-np.abs(grid.x_axis())), 0.0)
    f = Field.spatial(grid, samples)
    norms = [weighted_lp_norm(f, WeightSpec(a, 2.0)) for a in (0.0, 0.25, 0.5, 0.75)]
    assert all(b > a for a, b in zip(norms, norms[1:]))


def test_weighted_translation_noninvariance(grid):
    samples = np.exp(-((grid.x_axis() - 0.0) ** 2))
    shifted = np.exp(-((grid.x_axis() - 8.0) ** 2))
    w = WeightSpec(0.5, 2.0)
    n0 = weighted_lp_norm(Field.spatial(grid, samples), w)
    n1 = weighted_lp_norm(Field.spatial(grid, shifted), w)
    assert abs(n0 - n1) > 0.1 * n0


def test_weight_samples_are_shared_and_read_only(grid):
    first = weight_samples(grid, 0.5)
    assert weight_samples(grid, 0.5) is first
    assert not first.flags.writeable


def test_weight_center_cell_average(grid):
    vals = weight_samples(grid, -0.5)
    center = grid.size // 2
    # cell average of |x|^a over [-h/2, h/2] is (h/2)^a / (a + 1)
    expected = (grid.h / 2.0) ** (-0.5) / 0.5
    assert vals[center] == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(vals).all()


# -- Muckenhoupt screen --------------------------------------------------------

def test_ap_constant_is_one_iff_flat():
    family = default_cube_family(16.0, 1)
    assert ap_constant_estimate(WeightSpec(0.0, 2.0), family) == 1.0
    for a in (0.25, 0.5, 0.75):
        assert ap_constant_estimate(WeightSpec(a, 2.0), family) > 1.0 + 1e-10


def test_ap_constant_stable_under_refinement():
    w = WeightSpec(0.5, 2.0)
    coarse = ap_constant_estimate(w, default_cube_family(16.0, 1, level=0))
    fine = ap_constant_estimate(w, default_cube_family(16.0, 1, level=1))
    assert abs(fine - coarse) <= 0.05 * coarse


def test_ap_constant_grows_towards_range_boundary():
    family = default_cube_family(16.0, 1)
    sweep = [ap_constant_estimate(WeightSpec(a, 2.0), family) for a in (0.0, 0.25, 0.5, 0.75, 0.9)]
    assert all(b > a - 1e-12 for a, b in zip(sweep, sweep[1:]))


def test_ap_constant_p1_form():
    family = default_cube_family(16.0, 1)
    value = ap_constant_estimate(WeightSpec(-0.5, 1.0), family)
    assert np.isfinite(value) and value > 1.0


def test_cube_family_level_and_emptiness():
    with pytest.raises(ValueError, match="level"):
        default_cube_family(16.0, 1, level=-1)
    with pytest.raises(ValueError, match="level"):
        default_cube_family(16.0, 1, level=0.5)
    empty = default_cube_family(0.01, 1)  # the side 1/8 does not fit
    assert empty.cubes == ()
    for a in (0.0, 0.5):
        with pytest.raises(ValueError, match="empty"):
            ap_constant_estimate(WeightSpec(a, 2.0), empty)


def test_cube_family_level_is_capped_at_one_strip_per_cube():
    # level 6 would give one cube 2^18 nodes; level 40, 2^52 (a 32-PiB request)
    for level in (6, 40):
        with pytest.raises(ValueError, match="level"):
            default_cube_family(16.0, 1, level=level)
    family = default_cube_family(16.0, 1, level=5)
    assert family.quad_points == _STRIP_POINTS
    value = ap_constant_estimate(WeightSpec(0.5, 2.0), family)
    assert np.isfinite(value) and value > 1.0


def _all_sides_family(half_width, dim, level):
    """Every dyadic side 2^(-3-level) .. 8 within half_width, each on its half-side lattice."""
    cubes = []
    for k in range(-3 - level, 4):
        side = 2.0**k
        offsets = [0.5 * j * side for j in range(-8, 9)
                   if side <= half_width and abs(0.5 * j * side) + side / 2.0 <= half_width]
        cubes += [(side, center) for center in itertools.product(offsets, repeat=dim)]
    return CubeFamily(tuple(cubes), 4096 * 2**level)


@pytest.mark.parametrize("a, p, dim, half_width", [
    (0.5, 2.0, 2, 40.0), (0.5, 2.0, 1, 16.0), (-0.5, 1.0, 1, 1.0), (-0.4, 2.0, 2, 0.75)])
def test_smallest_side_reaches_the_sup_of_every_side(a, p, dim, half_width):
    # power-weight products depend only on the center-to-side ratio
    w = WeightSpec(a, p)
    every = _all_sides_family(half_width, dim, 0)
    assert len({side for side, _ in every.cubes}) > 1
    single = ap_constant_estimate(w, default_cube_family(half_width, dim), dim)
    assert ap_constant_estimate(w, every, dim) == pytest.approx(single, rel=1e-14, abs=0)
    assert ap_constant_estimate(w, every, dim) == _ap_constant_loop(w, every, dim)


def _ap_constant_loop(w, family, dim):
    """Reference: the A_p estimate one cube at a time."""
    npts = family.quad_points if dim == 1 else max(64, math.isqrt(family.quad_points))
    worst = 0.0
    for side, center in family.cubes:
        axes = [c - side / 2.0 + (np.arange(npts) + 0.5) * (side / npts) for c in center]
        if dim == 1:
            r = np.abs(axes[0])
        else:
            xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
            r = np.hypot(xx, yy)
        wvals = r**w.a
        if w.p > 1:
            product = wvals.mean() * (wvals ** (-1.0 / (w.p - 1))).mean() ** (w.p - 1)
        else:
            product = wvals.mean() / wvals.min()
        worst = max(worst, float(product))
    return worst


@pytest.mark.parametrize("a, p, dim, half_width, level", [
    (0.5, 2.0, 2, 40.0, 0),  # the benchmark's ap(a=0.5,p=2) on its 2D dump
    (-0.5, 1.0, 2, 40.0, 0),
    (-0.4, 2.0, 2, 16.0, 1),  # 90 x 90 nodes per cube
    (0.5, 2.0, 1, 16.0, 0),
    (-0.5, 1.0, 1, 16.0, 1),
])
def test_ap_constant_matches_cube_loop(a, p, dim, half_width, level):
    w, family = WeightSpec(a, p), default_cube_family(half_width, dim, level)
    assert ap_constant_estimate(w, family, dim) == _ap_constant_loop(w, family, dim)


# -- Herz ----------------------------------------------------------------------

def test_herz_ball_supported_equals_lp(grid):
    samples = np.where(np.abs(grid.x_axis()) <= 1.0, np.exp(-grid.x_axis() ** 2), 0.0)
    f = Field.spatial(grid, samples)
    params = HerzParams(0.7, 2.0, 1.5)
    assert herz_norm(f, params) == pytest.approx(lp_norm(f, 2), rel=1e-14)


def test_herz_regrouping_bounds(grid, rng):
    # alpha = 0, q = p: the blocks regroup the p-th power mass
    f = random_band_limited(grid, 2.0, rng)
    for p in (1.0, 2.0):
        herz_p = herz_norm(f, HerzParams(0.0, p, p)) ** p
        lp_p = lp_norm(f, p) ** p
        assert lp_p <= herz_p * (1 + 1e-12)
        assert herz_p <= 2.0 * lp_p * (1 + 1e-12)


def test_herz_homogeneity(grid, rng):
    f = random_band_limited(grid, 2.0, rng)
    params = HerzParams(0.5, 2.0, 1.0)
    doubled = herz_norm(Field.spatial(grid, 2.0 * f.samples), params)
    assert doubled == pytest.approx(2.0 * herz_norm(f, params), rel=1e-12)


def test_herz_alpha_range_guard(grid, rng):
    f = random_band_limited(grid, 2.0, rng)
    with pytest.raises(ValueError):
        herz_norm(f, HerzParams(-1.5, 1.0, 1.0))


# -- dyadic frequency family -----------------------------------------------------

def test_family_partition_residual():
    family = build_lp_family(5)
    r = np.linspace(0.0, family.valid_band, 2001)
    total = family.base.evaluate((r,)).real.copy()
    for ell in range(1, family.ell_max + 1):
        total += family.level_symbol(ell).evaluate((r,)).real
    assert np.max(np.abs(total - 1.0)) <= 1e-12


def test_annular_symbol_band():
    family = build_lp_family(3)
    r = np.array([0.0, 0.25, 0.5, 2.0, 2.5, 10.0])
    vals = family.annular.evaluate((r,)).real
    assert np.all(vals[:3] == 0.0)
    assert vals[3] == 0.0 or vals[3] < 1e-15
    assert np.all(vals[4:] == 0.0)
    inside = family.annular.evaluate((np.array([0.75, 1.0, 1.5]),)).real
    assert np.all(inside > 0.0)


def test_block_kernels_dilation_invariant_l1():
    # psi_l = 2^(ld) psi(2^l .): sampling level l on the grid dilated by 2^-l
    # reproduces the same Riemann sums, so the L^1 norms agree exactly
    family = build_lp_family(4)
    values = []
    for ell in range(1, 5):
        g = GridSpec(1, 4096, 64.0 / 2.0**ell)
        values.append(lp_norm(kernel_of(family.level_symbol(ell), g), 1))
    assert max(values) - min(values) < 1e-10


def test_besov_triebel_on_low_band(grid, rng):
    # spectrum inside |xi| <= 1/2: only the base term survives
    family = build_lp_family(4)
    f = random_band_limited(grid, 0.5, rng)
    for norm in (besov_norm, triebel_norm):
        value = norm(f, 0.7, 2.0, 1.5, family)
        assert value == pytest.approx(lp_norm(f, 2), rel=1e-10)


def test_besov_equals_triebel_at_p_eq_q(grid, rng):
    family = build_lp_family(4)
    f = random_band_limited(grid, 4.0, rng)
    b = besov_norm(f, 0.0, 2.0, 2.0, family)
    t = triebel_norm(f, 0.0, 2.0, 2.0, family)
    assert abs(b - t) < 1e-10 * max(b, 1.0)


def test_besov_alpha_reweighting(grid, rng):
    # raising alpha scales each block weight by exactly 2^(l dalpha q)
    family = build_lp_family(4)
    f = random_band_limited(grid, 4.0, rng)
    from riesz.multiplier import apply

    base = lp_norm(apply(family.base, f), 2)
    blocks = [lp_norm(apply(family.level_symbol(l), f), 2) for l in range(1, 5)]
    for alpha in (0.0, 0.5):
        direct = besov_norm(f, alpha, 2.0, 2.0, family)
        rebuilt = base + sum(
            2.0 ** (l * alpha * 2.0) * b**2 for l, b in enumerate(blocks, start=1)
        ) ** 0.5
        assert abs(direct - rebuilt) < 1e-10


def test_besov_triebel_order_inequalities(grid, rng):
    # Minkowski: summing block norms dominates the norm of the pointwise
    # l^q stack when q <= p, and the order flips for p <= q
    family = build_lp_family(4)
    for _ in range(3):
        f = random_band_limited(grid, 4.0, rng)
        assert triebel_norm(f, 0.3, 4.0, 2.0, family) <= besov_norm(f, 0.3, 4.0, 2.0, family) * (1 + 1e-10)
        assert besov_norm(f, 0.3, 2.0, 4.0, family) <= triebel_norm(f, 0.3, 2.0, 4.0, family) * (1 + 1e-10)


def test_block_norms_transform_once(grid, rng, transforms):
    # one forward transform of f (which also checks the band), then one
    # inverse for the base and one for each level
    family = build_lp_family(4)
    f = random_band_limited(grid, 4.0, rng)
    for norm in (besov_norm, triebel_norm):
        before = len(transforms)
        norm(f, 0.3, 2.0, 1.5, family)
        assert len(transforms) - before == 2 + family.ell_max


def test_dyadic_norms_hold_one_block_at_a_time(traced_peak):
    # the level blocks are made and folded one by one, and each is dropped
    # before the next is made, so adding a level adds no memory; a 512^2
    # block is 4 MiB.  The spectrum stays for the blocks to come: besov holds
    # it, one block and that block's real moduli, and triebel its real stack
    # of wt |block|^q and the one term being folded into it in place
    g = GridSpec(2, 512, 16.0)
    f = random_band_limited(g, 2.0, np.random.default_rng(8))
    values = {}
    for norm, arrays in ((besov_norm, 2.55), (triebel_norm, 3.05)):
        peaks = [traced_peak(norm, f, 0.5, 3.0, 1.5, build_lp_family(levels))
                 for levels in (2, 3)]
        assert peaks[1][1] - peaks[0][1] <= 2**20, norm.__name__
        assert peaks[1][1] <= arrays * 16 * g.size**2, norm.__name__
        values[norm.__name__] = peaks[1][0]
    # levels = 3 gives the values the list-of-blocks implementation gave, bit for bit
    assert values == {"besov_norm": 0.4296055689712979, "triebel_norm": 0.42960556897129787}


def test_dyadic_norms_of_a_benchmark_sized_field_are_bounded(traced_peak):
    # the benchmark's norms run on a 512^2 field with L = 40, where the level-3
    # box covers most of the grid; its symbol is evaluated in row strips, so
    # its rule's temporaries stay far below one grid array (whole-box
    # evaluation traced 5.18 and 5.68 grid arrays here)
    g = GridSpec(2, 512, 40.0)
    f = random_band_limited(g, 4.0, np.random.default_rng(41))
    family = build_lp_family(3)
    besov, besov_peak = traced_peak(besov_norm, f, 0.5, 3.0, 1.5, family)
    triebel, triebel_peak = traced_peak(triebel_norm, f, 0.5, 3.0, 1.5, family)
    assert besov_peak <= 2.55 * 16 * g.size**2
    assert triebel_peak <= 3.05 * 16 * g.size**2
    # the values whole-box evaluation gave, bit for bit
    assert (besov, triebel) == (0.8018004707792029, 0.763800106192514)


def test_band_limit_guard(grid, rng):
    family = build_lp_family(2)  # valid band |xi| <= 2
    f = random_band_limited(grid, 4.0, rng)
    with pytest.raises(ValueError):
        besov_norm(f, 0.0, 2.0, 2.0, family)


@pytest.mark.parametrize("alpha, p, q", [
    (0.0, 2.0, 0.0), (0.0, 2.0, -1.0), (0.0, 2.0, -2.0), (0.0, 2.0, np.inf),
    (np.nan, 2.0, 2.0), (np.inf, 2.0, 2.0), (0.0, np.nan, 2.0), (0.0, 2.0, np.nan),
])
def test_block_norms_reject_bad_exponents_before_any_transform(grid, rng, transforms,
                                                               alpha, p, q):
    # q = 0 divided by zero; the rest gave a value with no meaning
    family = build_lp_family(3)
    f = random_band_limited(grid, 2.0, rng)
    before = len(transforms)
    for norm in (besov_norm, triebel_norm):
        with pytest.raises(ValueError, match="finite alpha, p, q and q > 0"):
            norm(f, alpha, p, q, family)
    assert len(transforms) == before


@pytest.mark.parametrize("alpha, p, q", [
    (np.inf, 2.0, 1.0), (np.nan, 2.0, 1.0), (0.5, np.inf, 1.0), (0.5, 2.0, np.inf),
    (0.5, np.nan, 1.0), (0.5, 2.0, np.nan),
])
def test_herz_params_reject_non_finite_exponents(alpha, p, q):
    with pytest.raises(ValueError, match="finite"):
        HerzParams(alpha, p, q)


def test_norm_triangle_inequalities(grid, rng):
    family = build_lp_family(4)
    fa = random_band_limited(grid, 3.0, rng)
    fb = random_band_limited(grid, 3.0, rng)
    both = fa + fb
    for norm in (
        lambda f: herz_norm(f, HerzParams(0.5, 2.0, 1.0)),
        lambda f: weighted_lp_norm(f, WeightSpec(0.5, 2.0)),
        lambda f: besov_norm(f, 0.3, 2.0, 1.0, family),
        lambda f: triebel_norm(f, 0.3, 2.0, 1.0, family),
    ):
        assert norm(both) <= norm(fa) + norm(fb) + 1e-10
