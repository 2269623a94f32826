"""Approximate-eigenfunction probes and resolvent-norm lower bounds.

A probe at frequency xi0 and scale N is the spatial field whose transform is
phi0(N(xi - xi0)): a bump of radius rho/N around xi0.  The defect ratio

    R = ||(lambda I - B) f_{N,xi0}|| / ||f_{N,xi0}||

measured across an N sweep exhibits lambda in [0, 1] as approximate point
spectrum; the same probes pushed through resolvent symbols give certified
lower bounds on resolvent norms over the complex plane.

Each probe runs on its baseband grid (`baseband_grid`): the sweep grid's
half-width and frequency lattice, with only as many points as its radius
rho/N needs.  By modulation its norms do not depend on xi0, so its spectrum
F is the bump at k dxi, exactly symmetric (the map builds one per scale),
and xi0 is only the cell offset of the lattice xi0 + k dxi where the ball b
is sampled.  The defect is built as (lambda - b) F.  Every probe spectrum and
ball comes from the one symbol sampler (`Symbol._strips`), on its support
box only; a probe lives in one array of its own and its norms are strip
sums, so it holds one array of its baseband grid plus strips.  `probe_field`
is the full-grid probe, the same bump at (k - k0) dxi, xi0 = k0 dxi.

How many points a baseband grid needs depends on the norm
(`baseband_oversampling`).  A norm of even order p with no weight (or the
weight |x|^0) is exact on a small grid: if the spectrum lives on the lattice
cells |k| <= K of each axis, |f|^p = (f conj(f))^(p/2) is a trigonometric
polynomial of degree pK per axis, and its M-point Riemann sum over the
period is its integral once M > pK.  Such a cell runs at c = min(p, 32); c = p
is twice the margin exactness needs and gives the value of any larger grid
to rounding.  Every other norm is a converging Riemann sum and runs at
c = 32.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .grid import (
    Field,
    GridSpec,
    forward_transform,
    inverse_transform,
    lattice_offset,
    snap_to_lattice,
)
from .multiplier import _check_window
from .norms import WeightSpec, _square_mass, lp_norm, spectrum_lp_norm, weighted_lp_norm
from .symbols import bochner_symbol, bump_phi0, dist_to_unit_interval, resolvent_symbol


def lambda_to_xi0(lam, delta):
    """First-axis frequency whose symbol value is lam.

    For lam in (0, 1] this inverts (1 - x^2)^delta = lam on the first axis;
    lam = 0 sits strictly outside the closed unit ball (x = 2) where the
    ball multiplier annihilates.  Off-spectrum controls extend the map with
    the nearest attainable point: x = 0 for lam > 1, x = 2 for lam < 0.
    """
    bochner_symbol(delta)  # rejects delta <= 0
    if lam > 1.0:
        return 0.0
    if lam <= 0.0:
        return 2.0
    return float(np.sqrt(max(1.0 - lam ** (1.0 / delta), 0.0)))


def probe_grid(n_max, rho, dim=1, spread_factor=16.0, cells_per_bump=8.0):
    """Grid sized for an N sweep: the spatial window holds spread_factor
    periods of the widest probe and the frequency spacing puts at least
    cells_per_bump cells across the narrowest bump radius rho/n_max."""
    bump_phi0(rho)  # rho must be positive with a finite nonzero square
    half_width = max(
        spread_factor * n_max * max(1.0, rho) / rho,
        cells_per_bump * np.pi * n_max / rho,
    )
    size = 2 ** int(np.ceil(np.log2(8.0 * half_width / np.pi)))
    return GridSpec(dim, size, half_width)


def _check_scale(n_scale):
    if not n_scale >= 1:
        raise ValueError(f"scale must be >= 1, got {n_scale}")


def _check_scales(n_values):
    """A sweep's scales: a non-empty list of integers >= 1."""
    if not (len(n_values) and all(n >= 1 and float(n).is_integer() for n in n_values)):
        raise ValueError(f"probe scales must be integers >= 1, got {list(n_values)}")


def _probe_spectrum(n_scale, grid, rho=0.5, profile=None):
    """Spectrum symbol of a probe about xi0 = 0: the profile (or bump_phi0(rho))
    dilated by n_scale, after the check that it spans 4 cells of grid."""
    _check_scale(n_scale)
    if profile is None:
        profile = bump_phi0(rho)
    radius = profile.support_radius
    if radius / n_scale < 4.0 * grid.dxi - 1e-12:
        need = 4.0 * np.pi * n_scale / radius
        raise ValueError(
            f"bump radius {radius / n_scale:.3g} spans fewer than 4 cells "
            f"(dxi={grid.dxi:.3g}); use a grid with half-width >= {need:.4g}"
        )
    return profile.dilated(n_scale)


def probe_field(xi0, n_scale, grid, rho=0.5, profile=None):
    """Spatial probe whose transform is profile(n_scale * (xi - xi0)).

    xi0 must sit on the frequency lattice (so modulation identities are
    exact) and the bump must span at least 4 frequency cells.  The bump is
    sampled at (k - k0) dxi, xi0 = k0 dxi.
    """
    bump = _probe_spectrum(n_scale, grid, rho, profile)
    cells = lattice_offset(grid, xi0)
    if cells is None:
        raise ValueError(
            f"xi0={xi0} is off the frequency lattice; nearest is {snap_to_lattice(grid, xi0)}"
        )
    spec = bump.fresh_sample(grid, tuple(-k for k in cells))
    return inverse_transform(Field.frequency(grid, spec), overwrite=True)


BASEBAND_OVERSAMPLING = 32
"""Frequency half-width of a probe's baseband grid, in units of its bump radius.

A probe of scale N and radius rho/N runs on `baseband_grid`: the sweep grid's
half-width L with M_N points per axis, where M_N is the smallest power of two
dividing the sweep grid's size with eta_max = pi M_N / (2L) >= c rho / N, or
the sweep grid's size if none is.  c is `baseband_oversampling(p, weight_a)`:
this constant, except for an even p on an unweighted (or a = 0) norm, which
takes c = min(p, this constant).  Such a norm is exact at c > p / 2: the
spectrum lives on the lattice cells |k| <= K = (rho/N) / dxi of each axis,
|f|^p = (f conj(f))^(p/2) is a trigonometric polynomial of degree pK per
axis, and a Riemann sum of M > pK points over its period is its integral.
c = p doubles that margin.  Any other norm is a Riemann sum of |f|^p with the
spatial step pi / eta_max, so it converges as c grows.  The rule for this
constant: the smallest power of two at which doubling it moves no p = 1 bound
by 1e-4 relative or more.  On the 15 x 15 map over [-0.5, 1.5] x [-1, 1] with
ns = (32, 64, 128) and rho = 0.5, doubling 16 moves them by up to 1.8e-4 and
doubling 32 by up to 3.4e-5.
"""


def baseband_oversampling(p=None, weight_a=None):
    """c of `baseband_grid` for the norm of order p with the weight |x|^weight_a
    (None: no weight); p = None asks for the rule of every other norm."""
    if p is not None and p % 2 == 0 and weight_a in (None, 0):
        return min(p, BASEBAND_OVERSAMPLING)
    return BASEBAND_OVERSAMPLING


def baseband_grid(grid, n_scale, rho, p=None, weight_a=None):
    """Grid of a probe of scale n_scale measured in the norm of order p
    (weighted by |x|^weight_a): grid's half-width, so grid's frequency
    lattice, with the fewest points `baseband_oversampling` allows."""
    _check_scale(n_scale)
    need = baseband_oversampling(p, weight_a) * rho / n_scale
    size = 2
    while np.pi * size / (2.0 * grid.half_width) < need and grid.size % (2 * size) == 0:
        size *= 2
    small = GridSpec(grid.dim, size, grid.half_width)
    return small if small.xi_max >= need else grid


def _baseband_probe(grid, n_scale, rho=0.5, profile=None, p=None, weight_a=None):
    """Spectrum of a probe of scale n_scale: `_probe_spectrum`'s bump at k dxi
    per axis, -M/2 <= k < M/2, from `Symbol.fresh_sample`, exactly symmetric,
    as a frequency Field in a new array the caller owns.  The bump's radius
    (rho, or the profile's support radius) and the norm (order p, weight
    |x|^weight_a) size the baseband grid.  The probe about xi0 has this
    spectrum on the lattice shifted by xi0's cells, where a symbol takes its
    values with `fresh_sample(field.grid, lattice_offset(grid, xi0))`.
    """
    bump = _probe_spectrum(n_scale, grid, rho, profile)
    small = baseband_grid(grid, n_scale, rho if profile is None else profile.support_radius,
                          p, weight_a)
    return Field.frequency(small, bump.fresh_sample(small))


@dataclass(frozen=True)
class ProbeSpec:
    """One approximate-eigenfunction experiment.

    lam is the requested symbol level; probes report the level actually
    achieved after snapping xi0 to the lattice.  weight_a switches the norm
    to the power-weighted one.
    """

    lam: float
    p: float
    delta: float
    rho: float = 0.5
    n_values: tuple = (8, 16, 32, 64, 128)
    weight_a: float = None

    def __post_init__(self):
        if not np.isfinite(self.lam):
            raise ValueError(f"lam must be finite, got {self.lam}")
        if not 1 <= self.p < np.inf:
            raise ValueError(f"p must lie in [1, inf), got {self.p}")
        bochner_symbol(self.delta)  # rejects delta <= 0
        bump_phi0(self.rho)  # rho must be positive with a finite nonzero square
        _check_scales(self.n_values)

    def localizer_radius(self):
        xi0 = lambda_to_xi0(self.lam, self.delta)
        return (1.0 - abs(xi0)) / 2.0

    def default_grid(self, dim=1):
        return probe_grid(max(self.n_values), self.rho, dim=dim)

    def _norm(self, f):
        if self.weight_a is None:
            return lp_norm(f, self.p)
        return weighted_lp_norm(f, WeightSpec(self.weight_a, self.p))


def _achieved_level(spec, grid):
    """Snapped xi0 and the symbol level it actually attains."""
    xi0 = snap_to_lattice(grid, lambda_to_xi0(spec.lam, spec.delta))
    if 0 < spec.lam <= 1:
        level = float(np.clip(1.0 - float(np.dot(xi0, xi0)), 0.0, None) ** spec.delta)
    else:
        # Off-spectrum controls measure distance to the requested level.
        level = float(spec.lam)
    return xi0, level


def _probe_norms(spec, n_scale, grid, profile=None):
    """spec's norms of the probe f at the achieved (xi0, level) of
    `_achieved_level` and of its defect (level - B) f, on the probe's
    baseband grid.

    N must keep the bump (radius spec.rho, or the profile's support radius)
    inside the localizer plateau, N >= radius / plateau; no N does when xi0
    rounds onto the unit sphere and the plateau is empty.  The probe is
    `_baseband_probe`'s: the sweep grid's half-width and lattice with M_N
    points per axis (BASEBAND_OVERSAMPLING), its bump sampled at k dxi; f is
    the probe about xi0 demodulated, so the ball b is sampled at xi0 + k dxi.
    The array is inverted in place into f and ||f|| is taken; then it is
    transformed in place into F, scaled by level outside the support box of b
    and set to (level - b) F on it, one row strip of b at a time, and
    inverted in place.  Each norm takes f's moduli one strip at a time
    (norms._abs_power_sum), and each transform swaps its halves through one
    strip.  So a probe holds one array of its baseband grid plus strips: 1.07
    arrays traced on 2D 1024^2.
    """
    _check_scale(n_scale)
    rho = spec.rho if profile is None else profile.support_radius
    plateau = spec.localizer_radius()
    if 0 < spec.lam <= 1 and rho / n_scale > plateau + 1e-12:
        if plateau == 0:
            raise ValueError(
                f"no scale keeps the bump inside the localizer plateau at "
                f"lambda={spec.lam}, delta={spec.delta}: xi0 rounds onto the unit sphere"
            )
        raise ValueError(f"N={n_scale} puts the bump outside the localizer plateau; "
                         f"need N >= {np.ceil(rho / plateau):.0f}")
    ball = bochner_symbol(spec.delta)
    _check_window(ball, grid)
    xi0, level = _achieved_level(spec, grid)
    spectrum = _baseband_probe(grid, n_scale, spec.rho, profile, spec.p, spec.weight_a)
    f = inverse_transform(spectrum, overwrite=True)
    f_norm = spec._norm(f)
    defect = forward_transform(f, overwrite=True).samples
    defect.setflags(write=True)  # f's own array; f is not read again
    off, strips = ball._strips(f.grid, lattice_offset(grid, xi0))
    for index in off:
        defect[index] *= level
    for index, b in strips:
        np.subtract(level, b, out=b)
        b *= defect[index]
        defect[index] = b
    defect = inverse_transform(Field.frequency(f.grid, defect), overwrite=True)
    return f_norm, spec._norm(defect)


def probe_ratio(spec, n_scale, grid=None, profile=None):
    """Defect ratio ||(lambda I - B) f_{N,xi0}|| / ||f_{N,xi0}||."""
    if grid is None:
        grid = spec.default_grid()
    f_norm, defect_norm = _probe_norms(spec, n_scale, grid, profile)
    return defect_norm / f_norm


def decay_rows(spec, grid=None, profile=None):
    """Probe table across the N sweep with the achieved level recorded."""
    if grid is None:
        grid = spec.default_grid()
    xi0, level = _achieved_level(spec, grid)
    return [{"lambda": spec.lam, "lambda_achieved": level, "xi0": float(xi0[0]), "p": spec.p,
             "delta": spec.delta, "n": int(n), "ratio": probe_ratio(spec, n, grid, profile)}
            for n in spec.n_values]


@dataclass(frozen=True)
class DecayCurve:
    rows: tuple
    slope: float


def decay_curve(spec, grid=None, profile=None):
    """Rows plus the least-squares slope of log ratio against log N."""
    if len(spec.n_values) < 4:
        raise ValueError("slope fit needs at least 4 sweep points")
    rows = decay_rows(spec, grid, profile=profile)
    ns = np.array([row["n"] for row in rows], dtype=float)
    ratios = np.array([row["ratio"] for row in rows], dtype=float)
    if np.any(ratios <= 0):
        slope = -np.inf
    else:
        slope = float(np.polyfit(np.log(ns), np.log(ratios), 1)[0])
    return DecayCurve(tuple(rows), slope)


def halving_factors(rows):
    """Successive ratios R(2N)/R(N) along a dyadic sweep."""
    ratios = [row["ratio"] for row in rows]
    return [b / a for a, b in zip(ratios, ratios[1:]) if a > 0]


@functools.lru_cache(maxsize=8)
def half_peak_radius(grid, rho):
    """Largest radius where the baseband probe keeps half its peak height."""
    f = probe_field(0.0, 1, grid, rho=rho)
    if grid.dim == 1:
        profile = np.abs(f.samples[grid.size // 2 :])
    else:
        profile = np.abs(f.samples[grid.size // 2 :, grid.size // 2])
    axis = grid.x_axis()[grid.size // 2 :]
    below = np.nonzero(profile < profile[0] / 2.0)[0]
    return float(axis[below[0] - 1]) if below.size and below[0] > 0 else float(axis[-1])


def weighted_probe_report(spec, n_scale, grid=None):
    """Weighted defect ratio plus the bounding quantities of the estimate.

    Reports N^(-p/2), the tail term N^(-(d+1/2)p) w([-N, N]^d), the lower
    envelope N^(-dp) w([-eps0 N, eps0 N]^d), and the constant the measured
    ratio^p needs against term_half + term_tail / ||f||^p.
    """
    if spec.weight_a is None:
        raise ValueError("weighted probe needs a weight exponent")
    if grid is None:
        grid = spec.default_grid()
    d = grid.dim
    p = spec.p
    f_norm, defect_norm = _probe_norms(spec, n_scale, grid)
    ratio = defect_norm / f_norm
    n = float(n_scale)
    eps0 = half_peak_radius(grid, spec.rho)
    term_half = n ** (-p / 2.0)
    term_tail = n ** (-(d + 0.5) * p) * _square_mass(spec.weight_a, n, d)
    lower_env = n ** (-d * p) * _square_mass(spec.weight_a, eps0 * n, d)
    envelope = ratio**p / (term_half + term_tail / f_norm**p)
    return {
        "n": int(n_scale),
        "ratio": ratio,
        "term_half": term_half,
        "term_tail": term_tail,
        "lower_envelope": lower_env,
        "probe_norm_p": f_norm**p,
        "constant_envelope": envelope,
    }


def resolvent_norm_oracle(z, delta):
    """Exact p = 2 resolvent norm sup 1/|z - b(xi)| = 1/dist(z, [0, 1]).

    b = (1 - |xi|^2)_+^delta takes every value in [0, 1] for any delta > 0.
    """
    bochner_symbol(delta)  # rejects delta <= 0
    return 1.0 / dist_to_unit_interval(z)


def resolvent_norm_grid_sup(z, delta, grid):
    """Sup of the resolvent symbol over the grid frequency lattice."""
    return float(np.max(np.abs(resolvent_symbol(z, delta).fresh_sample(grid))))


def _resolvent_bound(z, delta, p, probes):
    """Best ||R F||_p / ||f||_p over (b, F, ||f||_p) triples: F a probe
    spectrum, b the ball's fresh sample on F's lattice and R F = 1 / (z - b) F,
    the resolvent symbol's samples times F bit for bit.  At p = 2 the norm is
    a Parseval sum; otherwise each fresh image is inverted in place."""
    resolvent_symbol(z, delta)  # z must stay off [0, 1]
    best = 0.0
    for b, spectrum, f_norm in probes:
        image = Field.frequency(spectrum.grid, 1.0 / (z - b) * spectrum.samples)
        norm = (spectrum_lp_norm(image, p) if p == 2
                else lp_norm(inverse_transform(image, overwrite=True), p))
        best = max(best, norm / f_norm)
    return best


def probe_lower_bound(z, delta, p, grid, probes):
    """Best resolvent-norm lower bound ||R f||_p / ||f||_p from (probe, ||f||_p) pairs.

    A probe is a spatial field on grid, whose spectrum takes one forward
    transform; a probe on another grid or a frequency field is a ValueError.
    The ball is sampled once on grid's lattice; ||R f||_2 is a Parseval sum
    with no transform, and any other p takes one inverse transform per probe.
    """
    probes = list(probes)
    if any(probe.grid != grid for probe, _ in probes):
        raise ValueError(f"every probe must be on the bound's grid {grid}")
    ball = bochner_symbol(delta).fresh_sample(grid)
    return _resolvent_bound(complex(z), delta, p, ((ball, forward_transform(probe), f_norm)
                                                   for probe, f_norm in probes))


MAP_EXTRA_LEVELS = (0.25, 0.75)
"""Probe levels that `spectrum_map` adds at every point, next to its real part."""


def spectrum_map(z_values, p, delta, grid=None, n_values=(32, 64, 128, 256),
                 rho=0.5, pole_margin=1e-3):
    """Resolvent-norm lower bounds over a set of complex points.

    Points closer than pole_margin to [0, 1] are marked as poles and skipped.
    Probe levels follow each point's real part (clamped to [0, 1]) plus
    MAP_EXTRA_LEVELS; the p = 2 column carries the closed-form oracle
    1/dist(z, [0, 1]).

    Each scale's probe lives on its own baseband grid (`baseband_grid`): the
    sweep grid's half-width, so its frequency lattice, snapped xi0 and 4-cell
    rule, with only as many points as `baseband_oversampling(p)` asks for the
    probe's radius rho/N (c = 32 at p = 1, c = min(p, 32) at an even p).  Its
    spectrum F, the bump at k dxi, depends on (N, p) only, so the map builds
    it and its ||f||_p once per scale, at the first non-pole z.  The ball b
    (a `fresh_sample`) is sampled once per (level, scale), on F's lattice
    shifted by xi0's cells, where it equals the sweep grid's samples; each
    non-pole z forms R F = 1 / (z - b) * F from them.  At p = 2 the bound is
    the Parseval ratio sqrt(sum |R F|^2 / sum |F|^2) and the map makes no
    transform; otherwise it makes one inverse transform per scale, for
    ||f||_p, and one per (non-pole z, level, scale), all on baseband grids.
    """
    _check_scales(n_values)
    # checked here, not only where a probe is built, so an all-pole map rejects them too
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    ball = bochner_symbol(delta)  # rejects delta <= 0
    if not pole_margin > 0:
        raise ValueError(f"pole margin must be positive, got {pole_margin}")
    if grid is None:
        grid = probe_grid(max(n_values), rho)
    spectra, probe_cache = [], {}

    def probes_for(lam):
        if not spectra:
            spectra.extend((s, spectrum_lp_norm(s, p))
                           for s in (_baseband_probe(grid, n, rho, p=p) for n in n_values))
        key = lattice_offset(grid, snap_to_lattice(grid, lambda_to_xi0(lam, delta)))
        if key not in probe_cache:
            probe_cache[key] = [(ball.fresh_sample(s.grid, key), s, f_norm)
                                for s, f_norm in spectra]
        return probe_cache[key]

    rows = []
    for z in z_values:
        z = complex(z)
        row = {"re_z": z.real, "im_z": z.imag}
        if dist_to_unit_interval(z) < pole_margin:
            row.update(pole=True, lower_bound=np.inf, oracle_p2=np.inf)
        else:
            lams = {min(max(z.real, 0.0), 1.0), *MAP_EXTRA_LEVELS}
            probes = [probe for lam in sorted(lams) for probe in probes_for(lam)]
            row.update(
                pole=False,
                lower_bound=_resolvent_bound(z, delta, p, probes),
                oracle_p2=resolvent_norm_oracle(z, delta),
            )
        rows.append(row)
    return rows
