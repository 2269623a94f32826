import numpy as np
import pytest

from riesz import probes
from riesz.grid import (
    Field,
    GridSpec,
    forward_transform,
    inverse_transform,
    lattice_offset,
    snap_to_lattice,
)
from riesz.multiplier import apply
from riesz.norms import lp_norm, spectrum_lp_norm
from riesz.probes import (
    ProbeSpec,
    decay_curve,
    halving_factors,
    half_peak_radius,
    lambda_to_xi0,
    probe_field,
    probe_grid,
    probe_lower_bound,
    probe_ratio,
    resolvent_norm_grid_sup,
    resolvent_norm_oracle,
    spectrum_map,
    weighted_probe_report,
)
from riesz.symbols import (
    BumpProfile,
    bochner_symbol,
    bump_phi0,
    dist_to_unit_interval,
    radial_symbol,
    resolvent_symbol,
    scalar_symbol,
)


def modulate(f, xi0):
    """f times the plane wave exp(i x.xi0), the shift the probes are built by."""
    phase = sum(c * v for c, v in zip(f.grid.x_mesh(), np.atleast_1d(xi0)))
    return Field.spatial(f.grid, f.samples * np.exp(1j * phase))


def baseband_xi(grid, xi0, small):
    """The absolute lattice frequencies of a baseband grid, xi0 + k dxi per
    axis with -M/2 <= k < M/2, as a sparse mesh, built here and not by the
    package's sampler."""
    k = np.arange(small.size) - small.size // 2
    axes = [(k0 + k) * grid.dxi for k0 in lattice_offset(grid, xi0)]
    return tuple(np.meshgrid(*axes, indexing="ij", sparse=True))


@pytest.fixture(scope="module")
def grid():
    # shared sweep grid sized for N up to 64
    return probe_grid(64, 0.5)


# -- level selection ---------------------------------------------------------

def test_lambda_to_xi0_closed_forms():
    assert lambda_to_xi0(1.0, 1.0) == pytest.approx(0.0)
    assert lambda_to_xi0(0.75, 1.0) == pytest.approx(0.5)
    assert lambda_to_xi0(0.25, 2.0) == pytest.approx(np.sqrt(1.0 - 0.5))
    assert lambda_to_xi0(0.0, 1.0) == 2.0


def test_lambda_to_xi0_achieves_level():
    for lam in (0.1, 0.35, 0.8, 1.0):
        for delta in (0.5, 1.0, 2.0):
            x = lambda_to_xi0(lam, delta)
            assert (1.0 - x**2) ** delta == pytest.approx(lam, abs=1e-12)


# -- probe construction ------------------------------------------------------

def test_probe_is_modulated_baseband(grid):
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    f = probe_field(xi0, 16, grid)
    base = probe_field(np.zeros(1), 16, grid)
    assert np.max(np.abs(f.samples - modulate(base, xi0).samples)) < 1e-12


def test_probe_norm_scaling(grid):
    # || f_N ||_2 ~ N^(-1/2): the rescaled norms agree across the sweep
    vals = [lp_norm(probe_field(np.zeros(1), n, grid), 2) * np.sqrt(n) for n in (8, 16, 32, 64)]
    assert max(vals) / min(vals) - 1.0 < 0.02


def test_probe_spectrum_confined(grid):
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    n = 16
    xi = grid.xi_axis()
    outside = np.abs(xi - xi0[0]) > 0.5 / n
    # the constructed spectrum vanishes outside the bump exactly
    constructed = bump_phi0(0.5).dilated(n).shifted(xi0).sample(grid)
    assert np.max(np.abs(constructed[outside])) == 0.0
    # and the spatial round trip only adds rounding noise there
    spec = forward_transform(probe_field(xi0, n, grid))
    peak = np.max(np.abs(spec.samples))
    assert np.max(np.abs(spec.samples[outside])) < 1e-13 * peak


def test_probe_rejects_off_lattice(grid):
    with pytest.raises(ValueError):
        probe_field(np.asarray([0.5 * grid.dxi]), 8, grid)


def test_probe_resolution_guard_names_required_width():
    tiny = GridSpec(1, 512, 16.0)
    with pytest.raises(ValueError) as err:
        probe_field(np.zeros(1), 64, tiny, rho=0.5)
    assert "half-width" in str(err.value)


# -- defect ratios -----------------------------------------------------------

def test_zero_level_annihilation(grid):
    spec = ProbeSpec(0.0, 2.0, 1.0, n_values=(8, 16, 32, 64))
    for n in spec.n_values:
        assert probe_ratio(spec, n, grid) <= 1e-12


def test_plancherel_envelope(grid):
    # at p = 2 the ratio never exceeds the sup of |lambda - b| on the bump
    spec = ProbeSpec(0.5, 2.0, 1.0)
    n = 32
    ratio = probe_ratio(spec, n, grid)
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    level = (1.0 - xi0[0] ** 2) ** 1.0
    xi = grid.xi_axis()
    on_bump = np.abs(xi - xi0[0]) <= 0.5 / n
    envelope = np.max(np.abs(level - np.clip(1 - xi[on_bump] ** 2, 0.0, None)))
    assert ratio <= envelope + 1e-10


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_ratios_halve_with_scale(grid, p):
    spec = ProbeSpec(0.5, p, 1.0, n_values=(8, 16, 32, 64))
    curve = decay_curve(spec, grid)
    for factor in halving_factors(curve.rows):
        assert factor <= 0.8
    assert curve.slope <= -0.9


def test_quadratic_decay_at_top_level(grid):
    curve = decay_curve(ProbeSpec(1.0, 2.0, 1.0, n_values=(8, 16, 32, 64)), grid)
    assert curve.slope <= -1.8


def test_scale_below_localizer_plateau_rejected(grid):
    spec = ProbeSpec(0.25, 2.0, 1.0)
    assert spec.min_scale() == 8
    with pytest.raises(ValueError):
        probe_ratio(spec, 4, grid)
    with pytest.raises(ValueError, match="plateau"):
        weighted_probe_report(ProbeSpec(0.25, 2.0, 1.0, weight_a=0.5), 4, grid)


def test_ratio_invariant_under_profile_scaling(grid):
    spec = ProbeSpec(0.5, 2.0, 1.0)
    base = probe_ratio(spec, 16, grid)
    scaled = probe_ratio(spec, 16, grid, profile=17.3 * bump_phi0(0.5))
    assert abs(base - scaled) < 1e-12


def localized_defect_ratio(spec, n_scale, grid):
    """The defect ratio through the localized symbol (lambda - b) psi(. - xi0).

    psi is 1 on the plateau containing the probe support, so this equals the
    direct measurement and cross-validates the construction.
    """
    xi0, level = probes._achieved_level(spec, grid)
    plateau = (1.0 - abs(xi0[0])) / 2.0
    localizer = radial_symbol(BumpProfile(plateau, 2.0 * plateau), 2.0 * plateau).shifted(xi0)
    m_loc = (scalar_symbol(level) - bochner_symbol(spec.delta)) * localizer
    f = probe_field(xi0, n_scale, grid, rho=spec.rho)
    return spec._norm(apply(m_loc, f)) / spec._norm(f)


def test_localized_symbol_cross_validation(grid):
    spec = ProbeSpec(0.5, 2.0, 1.0)
    direct = probe_ratio(spec, 16, grid)
    localized = localized_defect_ratio(spec, 16, grid)
    assert abs(direct - localized) < 1e-12


def test_custom_profile_radius_drives_the_cell_check(grid):
    # bump_phi0(0.05) at N = 64 has radius 7.8e-4, 0.8 cells of this grid
    spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64))
    with pytest.raises(ValueError, match="fewer than 4 cells"):
        probe_ratio(spec, 64, probe_grid(64, 0.5), profile=bump_phi0(0.05))


def test_custom_profile_radius_drives_the_plateau_check(grid):
    # rho = 0.5 fits the lam = 0.5 plateau at N = 8, a radius-2 profile does not
    spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64))
    probe_ratio(spec, 8, grid)
    with pytest.raises(ValueError, match="plateau; need N >= 14"):
        probe_ratio(spec, 8, grid, profile=bump_phi0(2.0))


@pytest.mark.parametrize("lam,delta", [(1e-17, 1.0), (0.5, 1e-300)])
def test_an_empty_plateau_admits_no_scale(grid, lam, delta):
    # xi0 rounds onto the unit sphere, so the plateau has radius 0: the rule
    # and its message divided by it, a ZeroDivisionError
    spec = ProbeSpec(lam, 2.0, delta, n_values=(8, 16, 32, 64))
    assert lambda_to_xi0(lam, delta) == 1.0 and spec.localizer_radius() == 0
    message = (f"no scale keeps the bump inside the localizer plateau at lambda={lam}, "
               f"delta={delta}: xi0 rounds onto the unit sphere")
    for run in (spec.min_scale, lambda: probe_ratio(spec, 8, grid)):
        with pytest.raises(ValueError) as error:
            run()
        assert str(error.value) == message


def spatial_defect_ratio(spec, n_scale, grid):
    """The defect ratio with the defect formed in space, level f - B f, from
    the cell's own baseband probe on its baseband grid.

    B f is the inverse transform of b F, with b evaluated on the whole
    shifted lattice of the baseband grid, not on the ball's box in strips.
    """
    xi0, level = probes._achieved_level(spec, grid)
    spectrum = probes._baseband_probe(grid, xi0, n_scale, spec.rho, p=spec.p,
                                      weight_a=spec.weight_a)
    f = inverse_transform(spectrum)
    xi = baseband_xi(grid, xi0, f.grid)
    image = bochner_symbol(spec.delta).evaluate(xi) * forward_transform(f).samples
    defect = level * f - inverse_transform(Field.frequency(f.grid, image))
    return spec._norm(defect) / spec._norm(f)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("lam", [0.0, 0.5, 1.0, 1.5])
def test_spectral_defect_matches_the_spatial_defect(grid, dim, lam):
    # at lam = 1 the spatial f - B f cancels, so the relative term carries it
    sweep = grid if dim == 1 else GridSpec(2, 512, 128.0)
    ns = (8, 16, 32, 64) if dim == 1 else (4,)
    for p in (1.0, 2.0, 4.0):
        spec = ProbeSpec(lam, p, 1.0, n_values=ns)
        for n in ns:
            old = spatial_defect_ratio(spec, n, sweep)
            new = probe_ratio(spec, n, sweep)
            assert abs(new - old) <= 1e-14 + 1e-12 * old, (p, n, new, old)


def sweep_grid_fields(spec, n_scale, grid):
    """The probe f and its defect level f - B f as fields of the whole sweep grid."""
    xi0, level = probes._achieved_level(spec, grid)
    f = probe_field(xi0, n_scale, grid, rho=spec.rho)
    return f, level * f - apply(bochner_symbol(spec.delta), f)


@pytest.mark.parametrize("dim", [1, 2])
def test_the_baseband_cell_matches_the_sweep_grid_cell(grid, dim):
    # p = 2 is Parseval on the same spectrum samples; any other p is a
    # Riemann sum with a coarser spatial step, converged to 1e-4 relative by
    # the BASEBAND_OVERSAMPLING rule
    sweep = grid if dim == 1 else GridSpec(2, 1024, 128.0)
    ns = (8, 16, 32, 64) if dim == 1 else (4, 5)
    assert all(probes.baseband_grid(sweep, n, 0.5).size < sweep.size for n in ns)
    for lam in ((0.0, 0.5, 1.0, 1.5) if dim == 1 else (0.5, 1.0)):
        for n in ns:
            f, defect = sweep_grid_fields(ProbeSpec(lam, 2.0, 1.0, n_values=ns), n, sweep)
            for p, tol in ((1.0, 1e-4), (2.0, 1e-12), (4.0, 1e-4)):
                old = lp_norm(defect, p) / lp_norm(f, p)
                new = probe_ratio(ProbeSpec(lam, p, 1.0, n_values=ns), n, sweep)
                assert abs(new - old) <= 1e-14 + tol * old, (lam, n, p, new, old)


def test_probe_rejects_a_grid_narrower_than_the_ball():
    narrow = GridSpec(1, 64, 128.0)  # xi_max = pi / 4
    with pytest.raises(ValueError, match="exceeds the grid frequency window"):
        probe_ratio(ProbeSpec(1.5, 2.0, 1.0, n_values=(4,)), 4, narrow)


def test_a_probe_holds_at_most_one_and_a_half_arrays_of_the_grid(traced_peak):
    # the probe is built, transformed and inverted in one array of its
    # baseband grid, so a 2D probe peaks while a norm is taken: that array
    # and lp_norm's strip of 2^17 real moduli, a quarter of a 512^2 array and
    # 1/16 of a 1024^2 one.  On 1024^2 at L = 128 the baseband is 512^2; at
    # L = 387.36 it is the whole grid, the benchmark's N = 4 cell.  p = 1
    # cells are the large ones (an even p runs on a grid 8 or 16 times
    # smaller per axis), and no untraced call comes first, so the ball's
    # box and the bump's normalisation are traced too.
    spec = ProbeSpec(0.5, 1.0, 1.0, n_values=(4,))
    for size, half_width, baseband, bound in ((512, 128.0, 512, 1.3),
                                              (1024, 128.0, 512, 1.3),
                                              (1024, 387.36, 1024, 1.15)):
        g = GridSpec(2, size, half_width)
        assert probes.baseband_grid(g, 4, spec.rho).size == baseband
        norms, peak = traced_peak(probes._probe_norms, spec, 4, g)
        assert norms == probes._probe_norms(spec, 4, g)
        assert peak <= bound * 16 * baseband**2, (size, half_width)


def test_modulation_covariance(grid):
    # (lambda I - B) M_xi0 g = M_xi0 T_s g with s = lambda - b(. + xi0)
    from riesz.grid import random_band_limited

    rng = np.random.default_rng(4)
    g_field = random_band_limited(grid, 0.25, rng)
    xi0 = snap_to_lattice(grid, 0.6)
    lam = 0.5
    b = bochner_symbol(1.0)
    lhs = lam * modulate(g_field, xi0) - apply(b, modulate(g_field, xi0))
    shifted = scalar_symbol(lam) - b.shifted(-xi0[0])
    rhs = modulate(apply(shifted, g_field), xi0)
    scale = np.max(np.abs(lhs.samples))
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-12 * max(scale, 1.0)


def test_off_spectrum_ratios_stay_bounded_below(grid):
    for lam in (1.5, -0.5):
        for p in (1.0, 2.0, 4.0):
            spec = ProbeSpec(lam, p, 1.0, n_values=(8, 16, 32, 64))
            rows = decay_curve(spec, grid).rows
            assert min(row["ratio"] for row in rows) >= 0.45


# -- weighted ratios ---------------------------------------------------------

def test_weighted_reduces_to_plain_at_zero_exponent(grid):
    plain = ProbeSpec(0.5, 2.0, 1.0)
    weighted = ProbeSpec(0.5, 2.0, 1.0, weight_a=0.0)
    for n in (8, 32):
        r_plain = probe_ratio(plain, n, grid)
        r_weighted = weighted_probe_report(weighted, n, grid)["ratio"]
        assert r_plain == r_weighted


def test_weighted_ratio_halving(grid):
    spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64), weight_a=0.5)
    reports = [weighted_probe_report(spec, n, grid) for n in spec.n_values]
    ratios = [r["ratio"] for r in reports]
    for a, b in zip(ratios, ratios[1:]):
        assert b / a <= 0.85


def test_weighted_report_envelope_bounded(grid):
    spec = ProbeSpec(0.5, 2.0, 1.0, n_values=(8, 16, 32, 64), weight_a=0.5)
    reports = [weighted_probe_report(spec, n, grid) for n in spec.n_values]
    envelopes = [r["constant_envelope"] for r in reports]
    assert max(envelopes) <= 1.0  # measured ratio^p stays under the proof terms
    for a, b in zip(envelopes, envelopes[1:]):
        assert b <= a * 1.05
    # the lower envelope tracks the probe norm up to an N-independent constant
    tracking = [r["lower_envelope"] / r["probe_norm_p"] for r in reports]
    assert max(tracking) <= 2.0
    assert max(tracking) / min(tracking) <= 1.05


def test_half_peak_radius_positive(grid):
    eps0 = half_peak_radius(grid, 0.5)
    assert eps0 > 0


# -- resolvent norm maps -----------------------------------------------------

def test_oracle_at_reference_points():
    assert resolvent_norm_oracle(2.0, 1.0) == pytest.approx(1.0, rel=1e-6)
    for eps in (0.1, 0.05, 0.025):
        oracle = resolvent_norm_oracle(0.5 + 1j * eps, 1.0)
        assert oracle == pytest.approx(1.0 / eps, rel=0.01)


@pytest.mark.parametrize("delta", [0.5, 1.0, 2.0])
def test_oracle_is_reciprocal_distance(delta):
    # left of, right of, above and below the segment [0, 1]
    for z in (-0.5 + 0.2j, -1.0, 1.7 - 0.3j, 2.0, 0.4 + 0.25j, 0.6 - 0.1j):
        assert resolvent_norm_oracle(z, delta) == 1.0 / dist_to_unit_interval(z)
    for bad in (0.0, -1.0):
        with pytest.raises(ValueError):
            resolvent_norm_oracle(2.0, bad)


def test_grid_sup_estimator_matches_distance():
    g = GridSpec(1, 1024, 1000.0)
    for z in (2.0, -1.0, 1 + 1j, 0.5 + 0.25j):
        est = resolvent_norm_grid_sup(z, 1.0, g)
        assert est == pytest.approx(1.0 / dist_to_unit_interval(z), rel=1e-4)


def test_oracle_monotone_towards_segment():
    values = [resolvent_norm_oracle(0.3 + 1j * eps, 1.0) for eps in (0.4, 0.2, 0.1, 0.05)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_spectrum_map_rows(grid):
    zs = [2.0 + 0.0j, 0.5 + 0.1j, 0.5 + 1e-5j]
    rows = spectrum_map(zs, 2.0, 1.0, grid=grid, n_values=(16, 32, 64))
    by_z = {(row["re_z"], row["im_z"]): row for row in rows}
    far = by_z[(2.0, 0.0)]
    assert not far["pole"]
    assert far["oracle_p2"] == pytest.approx(1.0, rel=1e-6)
    assert far["lower_bound"] <= far["oracle_p2"] * (1 + 1e-9)
    assert far["lower_bound"] >= 0.9
    near = by_z[(0.5, 0.1)]
    assert near["lower_bound"] >= 0.8 / 0.1
    assert by_z[(0.5, 1e-5)]["pole"]


def test_spectrum_map_transforms_each_probe_once(grid, transforms):
    # levels: 1 at z = 2, 1/2 at z = 1/2 + i/10, 0 at z = -1 + i/2, plus the
    # extras 1/4 and 3/4; five levels of three scales make 15 distinct probes
    zs = [2.0, 0.5 + 0.1j, 0.5 + 1e-5j, -1.0 + 0.5j]
    rows = spectrum_map(zs, 2.0, 1.0, grid=grid, n_values=(16, 32, 64))
    assert sum(row["pole"] for row in rows) == 1
    # p = 2 is Parseval on the probe spectra: no transform at all
    assert len(transforms) == 0
    spectrum_map(zs, 1.0, 1.0, grid=grid, n_values=(16, 32, 64))
    # 1 per distinct probe (its L^1 norm) and 1 per (non-pole z, probe)
    assert len(transforms) == 15 + 3 * 9


def _full_grid_probes(z, grid, n_values, rho=0.5):
    """The map's probes for z as spatial fields on the sweep grid, with L^2 norms."""
    pairs = []
    for lam in sorted({min(max(z.real, 0.0), 1.0), *probes.MAP_EXTRA_LEVELS}):
        xi0 = snap_to_lattice(grid, lambda_to_xi0(lam, 1.0))
        for n in n_values:
            f = probe_field(xi0, n, grid, rho=rho)
            pairs.append((f, lp_norm(f, 2)))
    return pairs


@pytest.mark.parametrize("z", [2.0, 0.5 + 0.1j, -1.0 + 0.5j, 1.2 - 0.3j])
def test_baseband_map_matches_full_grid_probes_at_p2(grid, z):
    # Re z <= 0 is where the bound meets the oracle 1/dist(z, [0, 1])
    ns = (16, 32, 64)
    (row,) = spectrum_map([z], 2.0, 1.0, grid=grid, n_values=ns)
    full = probe_lower_bound(z, 1.0, 2.0, grid, _full_grid_probes(complex(z), grid, ns))
    assert row["lower_bound"] == pytest.approx(full, rel=1e-12, abs=0)
    assert row["lower_bound"] <= row["oracle_p2"] * (1 + 1e-12)


def test_baseband_map_matches_full_grid_probes_at_p2_2d():
    # a 2D sweep grid: N = 4 takes the whole grid, N = 8 half of each axis
    grid2 = GridSpec(2, 1024, 128.0)
    ns = (4, 8)
    assert [probes.baseband_grid(grid2, n, 1.0).size for n in ns] == [1024, 512]
    z = 0.5 + 0.1j
    (row,) = spectrum_map([z], 2.0, 1.0, grid=grid2, n_values=ns, rho=1.0)
    expected = probe_lower_bound(z, 1.0, 2.0, grid2, _full_grid_probes(z, grid2, ns, rho=1.0))
    assert row["lower_bound"] == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_the_map_samples_the_ball_once_per_probe_and_keeps_every_bit(grid, p):
    # each non-pole z forms 1 / (z - b) * F from the probe's ball samples b:
    # the bits of the resolvent symbol sampled afresh for every (z, probe)
    zs = [2.0, 0.5 + 0.1j, -1.0 + 0.5j, 1.2 - 0.3j]
    ns = (16, 32, 64)
    rows = spectrum_map(zs, p, 1.0, grid=grid, n_values=ns)
    for z, row in zip(zs, rows):
        res, expected = resolvent_symbol(z, 1.0), 0.0
        for lam in sorted({min(max(complex(z).real, 0.0), 1.0), *probes.MAP_EXTRA_LEVELS}):
            xi0 = snap_to_lattice(grid, lambda_to_xi0(lam, 1.0))
            for n in ns:
                spec = probes._baseband_probe(grid, xi0, n, p=p)
                xi = baseband_xi(grid, xi0, spec.grid)
                image = Field.frequency(spec.grid, res.evaluate(xi) * spec.samples)
                ratio = spectrum_lp_norm(image, p) / spectrum_lp_norm(spec, p)
                expected = max(expected, ratio)
        assert row["lower_bound"] == expected, z


def test_a_p1_map_inverts_fresh_images_and_keeps_its_probes(grid, monkeypatch):
    # each resolvent image is inverted in place; the map's rows over several
    # z, which share its cached probes, are those of one-z maps on fresh
    # probes, and the cached spectra keep their bits and stay read-only
    zs = [2.0, 0.5 + 0.1j, 0.5 + 0.02j, -1.0 + 0.5j, 1.2 - 0.3j]
    ns = (16, 32, 64)
    built, make = [], probes._baseband_probe

    def recorded(*args, **kwargs):
        spec = make(*args, **kwargs)
        built.append((spec.samples, spec.samples.tobytes()))
        return spec

    monkeypatch.setattr(probes, "_baseband_probe", recorded)
    rows = spectrum_map(zs, 1.0, 1.0, grid=grid, n_values=ns)
    # levels 0, 1/4, 1/2, 3/4 and 1, three scales each
    assert len(built) == 15
    for samples, bits in built:
        assert samples.tobytes() == bits and not samples.flags.writeable
    for z, row in zip(zs, rows):
        assert [row] == spectrum_map([z], 1.0, 1.0, grid=grid, n_values=ns), z


def test_p1_map_is_converged_in_the_oversampling(grid, monkeypatch):
    zs = [2.0, 0.5 + 0.1j, 0.5 + 0.02j, 0.3 - 0.05j, -1.0 + 0.5j, 1.2 - 0.3j]
    ns = (16, 32, 64)
    base = [row["lower_bound"] for row in spectrum_map(zs, 1.0, 1.0, grid=grid, n_values=ns)]
    monkeypatch.setattr(probes, "BASEBAND_OVERSAMPLING", 2 * probes.BASEBAND_OVERSAMPLING)
    finer = [row["lower_bound"] for row in spectrum_map(zs, 1.0, 1.0, grid=grid, n_values=ns)]
    assert finer == pytest.approx(base, rel=1e-4, abs=0)


def test_baseband_grid_divides_the_sweep_grid():
    ns, rho = (32, 64, 128), 0.5
    sweep = probe_grid(max(ns), rho)
    for p in (None, 1.0, 2.0, 4.0):
        for n in range(1, max(ns) + 1):
            small = probes.baseband_grid(sweep, n, rho, p)
            assert small.size <= sweep.size and sweep.size % small.size == 0
            assert small.half_width == sweep.half_width and small.dim == sweep.dim
            need = probes.baseband_oversampling(p) * rho / n
            assert small.xi_max >= need or small == sweep
            # the fewest points: half as many would miss the window
            assert small.size == 2 or np.pi * small.size / 4.0 / sweep.half_width < need


def test_only_an_even_p_on_an_unweighted_norm_leaves_the_p1_oversampling():
    c = probes.BASEBAND_OVERSAMPLING
    assert [probes.baseband_oversampling(p) for p in (2.0, 4.0, 6, 30.0)] == [2.0, 4.0, 6, 30.0]
    assert probes.baseband_oversampling(2.0, 0.0) == probes.baseband_oversampling(4, 0) / 2 == 2
    # a converging Riemann sum: odd or fractional p, a weight |x|^a with
    # a != 0, or no p at all; an even p of 32 or more needs no fewer points
    for p, weight_a in ((None, None), (1.0, None), (2.5, None), (3.0, None), (2.0, 0.5),
                        (4.0, -0.5), (1.0, 0.0), (32.0, None), (64.0, None), (128.0, 0.0)):
        assert probes.baseband_oversampling(p, weight_a) == c, (p, weight_a)
    sweep = probe_grid(128, 0.5)
    for n in (8, 32, 128):
        assert probes.baseband_grid(sweep, n, 0.5, 64.0) == probes.baseband_grid(sweep, n, 0.5)
        assert probes.baseband_grid(sweep, n, 0.5, 2.0, 0.5) == probes.baseband_grid(sweep, n, 0.5)
        assert probes.baseband_grid(sweep, n, 0.5, 2.0).size * 16 == \
            probes.baseband_grid(sweep, n, 0.5).size


def _oversampled(monkeypatch, c, fn, *args, **kwargs):
    """fn(*args, **kwargs) with every baseband grid sized at c = c(p)."""
    with monkeypatch.context() as patch:
        patch.setattr(probes, "baseband_oversampling", lambda p=None, weight_a=None: c(p))
        return fn(*args, **kwargs)


def _rule_cases(dim):
    """A sweep grid, its scales and the cells that test the even-p rule:
    (lam, weight_a, profile) each."""
    if dim == 1:
        sweep, ns = probe_grid(64, 0.5), (8, 32)
    else:
        sweep, ns = GridSpec(2, 512, 128.0), (4,)
    custom = radial_symbol(BumpProfile(0.1, 0.45), 0.45)
    return sweep, ns, ((0.5, None, None), (1.0, None, None), (0.5, 0.0, None),
                       (1.0, None, custom))


def _cell_and_map_ratios(sweep, ns, p, cases):
    cells = [probe_ratio(ProbeSpec(lam, p, 1.0, n_values=ns, weight_a=a), n, sweep,
                         profile=profile)
             for lam, a, profile in cases for n in ns]
    zs = [2.0, 0.5 + 0.1j, -1.0 + 0.5j]
    bounds = [row["lower_bound"] for row in spectrum_map(zs, p, 1.0, grid=sweep, n_values=ns)]
    return np.array(cells + bounds)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("p", [2.0, 4.0])
def test_even_p_cells_and_maps_are_exact_at_c_p_and_at_c_half_p(monkeypatch, dim, p):
    # |f|^p is a trigonometric polynomial of degree pK per axis, so an
    # M-point Riemann sum over the period is exact once M > pK, c > p / 2:
    # c = p (the rule) and c = p / 2 give the c = 32 value to rounding
    sweep, ns, cases = _rule_cases(dim)
    reference = _oversampled(monkeypatch, lambda _: probes.BASEBAND_OVERSAMPLING,
                             _cell_and_map_ratios, sweep, ns, p, cases)
    assert probes.baseband_grid(sweep, ns[0], 0.5, p).size < \
        probes.baseband_grid(sweep, ns[0], 0.5).size
    for c in (lambda q: q, lambda q: q / 2):
        ratios = _oversampled(monkeypatch, c, _cell_and_map_ratios, sweep, ns, p, cases)
        np.testing.assert_allclose(ratios, reference, rtol=1e-14, atol=0)
    # and the rule itself is c = p
    np.testing.assert_array_equal(_cell_and_map_ratios(sweep, ns, p, cases),
                                  _oversampled(monkeypatch, lambda q: q,
                                               _cell_and_map_ratios, sweep, ns, p, cases))


def test_below_half_p_the_riemann_sum_aliases(monkeypatch, grid):
    # the margin exists: at c = 1 < p / 2 a p = 4 cell is off by more than 1e-3
    spec = ProbeSpec(0.5, 4.0, 1.0, n_values=(16,))
    exact = probe_ratio(spec, 16, grid)
    coarse = _oversampled(monkeypatch, lambda _: 1.0, probe_ratio, spec, 16, grid)
    assert abs(coarse - exact) > 1e-3 * exact


def test_probe_scales_are_integers_at_least_one(grid):
    for ns in ((0, 8, 16, 32), (), (8, 2.5), (-1,), (8, np.inf)):
        with pytest.raises(ValueError, match=r"probe scales must be integers >= 1, got \["):
            ProbeSpec(0.5, 2.0, 1.0, n_values=ns)
    # a cell checks its scale before it divides rho by it
    spec = ProbeSpec(0.5, 2.0, 1.0)
    for n in (0, -1, np.nan):
        with pytest.raises(ValueError, match="scale must be >= 1"):
            probe_ratio(spec, n, grid)
        with pytest.raises(ValueError, match="scale must be >= 1"):
            probes.baseband_grid(grid, n, 0.5)


def test_baseband_probe_is_the_demodulated_full_grid_probe(grid):
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    (k0,) = lattice_offset(grid, xi0)
    ball = bochner_symbol(1.0)
    for n in (16, 64):
        spec = probes._baseband_probe(grid, xi0, n, 0.5)
        small = spec.grid
        m = small.size
        window = slice(grid.size // 2 + k0 - m // 2, grid.size // 2 + k0 + m // 2)
        # the sweep grid's frequencies, spectrum and ball samples, bit for bit
        assert np.array_equal(baseband_xi(grid, xi0, small)[0], grid.xi_axis()[window])
        full_spec = bump_phi0(0.5).dilated(n).shifted(xi0).sample(grid)
        assert np.array_equal(spec.samples, full_spec[window])
        assert np.array_equal(ball.fresh_sample(small, (k0,)), ball.fresh_sample(grid)[window])
        # the sweep grid's field, demodulated, at every (size / m)-th point
        f = inverse_transform(spec).samples
        full = probe_field(xi0, n, grid).samples[:: grid.size // m]
        assert np.max(np.abs(np.abs(f) - np.abs(full))) < 1e-12 * np.max(np.abs(full))


def test_probe_lower_bound_never_exceeds_p2_oracle(grid):
    z = 0.5 + 0.1j
    xi0 = snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0))
    probes = []
    for n in (16, 32, 64):
        f = probe_field(xi0, n, grid)
        probes.append((f, lp_norm(f, 2)))
    lower = probe_lower_bound(z, 1.0, 2.0, grid, probes)
    assert lower <= resolvent_norm_oracle(z, 1.0) * (1 + 1e-9)


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_probe_lower_bound_is_the_resolvent_sample_times_the_spectrum(grid, p):
    # the best ratio over the probes of R F, the resolvent symbol's fresh
    # sample on grid times the probe's spectrum, bit for bit
    z, delta = 0.5 + 0.1j, 1.0
    res = resolvent_symbol(z, delta).fresh_sample(grid)
    pairs, expected = [], 0.0
    for lam in (0.25, 0.5, 0.75):
        for n in (16, 64):
            f = probe_field(snap_to_lattice(grid, lambda_to_xi0(lam, delta)), n, grid)
            f_norm = lp_norm(f, p)
            image = Field.frequency(grid, res * forward_transform(f).samples)
            norm = spectrum_lp_norm(image, p) if p == 2 else lp_norm(inverse_transform(image), p)
            expected = max(expected, norm / f_norm)
            pairs.append((f, f_norm))
    assert probe_lower_bound(z, delta, p, grid, pairs) == expected


def test_probe_lower_bound_rejects_a_frequency_side_probe(grid):
    # a probe is a spatial field; a spectrum is not
    f = probe_field(snap_to_lattice(grid, lambda_to_xi0(0.5, 1.0)), 16, grid)
    with pytest.raises(ValueError, match="spatial"):
        probe_lower_bound(0.5 + 0.1j, 1.0, 2.0, grid, [(forward_transform(f), lp_norm(f, 2))])


def test_probe_lower_bound_rejects_a_probe_on_another_grid(grid):
    # the probe's spectrum lives on its own lattice, not on grid's
    other = probe_grid(32, 0.5)
    f = probe_field(snap_to_lattice(other, lambda_to_xi0(0.5, 1.0)), 16, other)
    assert other != grid
    with pytest.raises(ValueError, match="every probe must be on the bound's grid"):
        probe_lower_bound(0.5 + 0.1j, 1.0, 2.0, grid, [(f, lp_norm(f, 2))])


# -- two dimensions ----------------------------------------------------------

def test_probe_ratios_decay_2d():
    # top-level probe in the plane: the defect shrinks by about 4x per
    # doubling of the scale, same as on the line
    grid2 = probe_grid(8, 1.0, dim=2)
    spec = ProbeSpec(1.0, 2.0, 1.0, rho=1.0, n_values=(2, 4, 8))
    ratios = [probe_ratio(spec, n, grid2) for n in spec.n_values]
    assert all(b < 0.35 * a for a, b in zip(ratios, ratios[1:]))
    mid = ProbeSpec(0.75, 2.0, 1.0, rho=1.0, n_values=(4, 8))
    mid_ratios = [probe_ratio(mid, n, grid2) for n in mid.n_values]
    assert mid_ratios[1] < 0.65 * mid_ratios[0]
