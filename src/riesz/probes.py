"""Approximate-eigenfunction probes and resolvent-norm lower bounds.

A probe at frequency xi0 and scale N is the spatial field whose transform is
phi0(N(xi - xi0)): a bump of radius rho/N around xi0.  The defect ratio

    R = ||(lambda I - B) f_{N,xi0}|| / ||f_{N,xi0}||

measured across an N sweep exhibits lambda in [0, 1] as approximate point
spectrum; the same probes pushed through resolvent symbols give certified
lower bounds on resolvent norms over the complex plane.

lambda - b is a multiplier, so the defect is built on the probe's spectrum
F as (lambda - b) F, with the ball b evaluated only on its support box; a
full-grid probe lives in one array of its own and peaks at one and a half.
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
from .norms import WeightSpec, _square_mass, lp_norm, spectrum_lp_norm, weighted_lp_norm
from .symbols import bochner_symbol, bump_phi0, dist_to_unit_interval, resolvent_symbol


def lambda_to_xi0(lam, delta):
    """First-axis frequency whose symbol value is lam.

    For lam in (0, 1] this inverts (1 - x^2)^delta = lam on the first axis;
    lam = 0 sits strictly outside the closed unit ball (x = 2) where the
    ball multiplier annihilates.  Off-spectrum controls extend the map with
    the nearest attainable point: x = 0 for lam > 1, x = 2 for lam < 0.
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if lam > 1.0:
        return 0.0
    if lam <= 0.0:
        return 2.0
    return float(np.sqrt(max(1.0 - lam ** (1.0 / delta), 0.0)))


def probe_grid(n_max, rho, dim=1, spread_factor=16.0, cells_per_bump=8.0):
    """Grid sized for an N sweep: the spatial window holds spread_factor
    periods of the widest probe and the frequency spacing puts at least
    cells_per_bump cells across the narrowest bump radius rho/n_max."""
    if not rho > 0:
        raise ValueError(f"bump radius must be positive, got {rho}")
    half_width = max(
        spread_factor * n_max * max(1.0, rho) / rho,
        cells_per_bump * np.pi * n_max / rho,
    )
    size = 2 ** int(np.ceil(np.log2(8.0 * half_width / np.pi)))
    return GridSpec(dim, size, half_width)


def _probe_spectrum(xi0, n_scale, grid, rho=0.5, profile=None):
    """Spectrum symbol of `probe_field`, after its lattice and 4-cell checks.

    The bump radius is rho, or the support radius of a given profile.
    """
    if n_scale < 1:
        raise ValueError(f"scale must be >= 1, got {n_scale}")
    snapped = snap_to_lattice(grid, xi0)
    request = np.atleast_1d(np.asarray(xi0, dtype=float))
    if np.max(np.abs(snapped[: request.size] - request)) > 1e-9 * grid.dxi:
        raise ValueError(
            f"xi0={xi0} is off the frequency lattice; nearest is {snapped}"
        )
    if profile is None:
        profile = bump_phi0(rho)
    radius = profile.support_radius
    if radius / n_scale < 4.0 * grid.dxi - 1e-12:
        need = 4.0 * np.pi * n_scale / radius
        raise ValueError(
            f"bump radius {radius / n_scale:.3g} spans fewer than 4 cells "
            f"(dxi={grid.dxi:.3g}); use a grid with half-width >= {need:.4g}"
        )
    return profile.dilated(n_scale).shifted(snapped)


def probe_field(xi0, n_scale, grid, rho=0.5, profile=None):
    """Spatial probe whose transform is profile(n_scale * (xi - xi0)).

    xi0 must sit on the frequency lattice (so modulation identities are
    exact) and the bump must span at least 4 frequency cells.
    """
    spec = _probe_spectrum(xi0, n_scale, grid, rho, profile).fresh_sample(grid)
    return inverse_transform(Field.frequency(grid, spec), overwrite=True)


BASEBAND_OVERSAMPLING = 32
"""Frequency half-width of a probe's baseband grid, in units of its bump radius.

A probe of scale N and radius rho/N runs on `baseband_grid`: the sweep grid's
half-width L with M_N points per axis, where M_N is the smallest power of two
dividing the sweep grid's size with eta_max = pi M_N / (2L) >= c rho / N
(c is this constant), or the sweep grid's size if none is.  p = 2 bounds do
not depend on c (Parseval).  A p != 2 norm is a Riemann sum of |f|^p with the
spatial step pi / eta_max, so it converges as c grows.  The rule: c is the
smallest power of two at which doubling it moves no p = 1 bound by 1e-4
relative or more.  On the 15 x 15 map over [-0.5, 1.5] x [-1, 1] with
ns = (32, 64, 128) and rho = 0.5, doubling 16 moves them by up to 1.8e-4 and
doubling 32 by up to 3.4e-5.
"""


def baseband_grid(grid, n_scale, rho):
    """Grid of a probe of scale n_scale: grid's half-width, so grid's frequency
    lattice, with the fewest points BASEBAND_OVERSAMPLING allows."""
    need = BASEBAND_OVERSAMPLING * rho / n_scale
    size = 2
    while np.pi * size / (2.0 * grid.half_width) < need and grid.size % (2 * size) == 0:
        size *= 2
    small = GridSpec(grid.dim, size, grid.half_width)
    return small if small.xi_max >= need else grid


def _baseband_probe(grid, xi0, n_scale, rho):
    """Probe of scale n_scale at the lattice frequency xi0, on its baseband grid.

    Returns the absolute lattice frequencies of the baseband grid, xi0 + k dxi
    per axis with -M/2 <= k < M/2, as a sparse mesh, and the probe spectrum
    sampled there as a frequency Field on the baseband grid.  Those samples
    equal the sweep grid's on the probe's support, and the field's spatial
    samples are the sweep grid's field, demodulated by xi0, at every
    (size / M)-th point.
    """
    spec = _probe_spectrum(xi0, n_scale, grid, rho)
    small = baseband_grid(grid, n_scale, rho)
    k = np.arange(small.size) - small.size // 2
    axes = [(k0 + k) * grid.dxi for k0 in lattice_offset(grid, xi0)]
    xi = tuple(np.meshgrid(*axes, indexing="ij", sparse=True))
    return xi, Field.frequency(small, np.broadcast_to(spec.evaluate(xi), small.shape))


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
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")
        if not self.rho > 0:
            raise ValueError(f"bump radius must be positive, got {self.rho}")

    def localizer_radius(self):
        xi0 = lambda_to_xi0(self.lam, self.delta)
        return (1.0 - abs(xi0)) / 2.0

    def min_scale(self):
        """Smallest N keeping the bump inside the localizer plateau."""
        if not 0 < self.lam <= 1:
            return 1
        return int(np.ceil(self.rho / self.localizer_radius()))

    def default_grid(self, dim=1):
        return probe_grid(max(self.n_values), self.rho, dim=dim)

    def _norm(self, f):
        if self.weight_a is None:
            return lp_norm(f, self.p)
        return weighted_lp_norm(f, self.p, WeightSpec(self.weight_a, self.p))


def _achieved_level(spec, grid):
    """Snapped xi0 and the symbol level it actually attains."""
    xi0 = snap_to_lattice(grid, lambda_to_xi0(spec.lam, spec.delta))
    if 0 < spec.lam <= 1:
        level = float(np.clip(1.0 - float(np.dot(xi0, xi0)), 0.0, None) ** spec.delta)
    else:
        # Off-spectrum controls measure distance to the requested level.
        level = float(spec.lam)
    return xi0, level


def _probe_norms(spec, n_scale, grid, achieved, profile=None):
    """spec's norms of the full-grid probe f at the achieved (xi0, level) and
    of its defect (level - B) f.

    N must keep the bump (radius spec.rho, or the profile's support radius)
    inside the localizer plateau.  ||f|| is taken first; then f's array is
    transformed in place into F, scaled by level outside the support box of
    the ball b (where b alone is evaluated) and set to (level - b) F on it,
    and inverted in place.  So a probe holds one grid array, plus lp_norm's
    real moduli while a norm is taken: one and a half grid arrays.
    """
    rho = spec.rho if profile is None else profile.support_radius
    if 0 < spec.lam <= 1 and rho / n_scale > spec.localizer_radius() + 1e-12:
        raise ValueError(
            f"N={n_scale} puts the bump outside the localizer plateau; "
            f"need N >= {np.ceil(rho / spec.localizer_radius()):.0f}"
        )
    ball = bochner_symbol(spec.delta)
    if not grid.covers_support(ball.support_radius):
        raise ValueError(f"the ball |xi| <= 1 exceeds the grid frequency window {grid.xi_max}")
    xi0, level = achieved
    f = probe_field(xi0, n_scale, grid, rho=spec.rho, profile=profile)
    f_norm = spec._norm(f)
    defect = forward_transform(f, overwrite=True).samples
    defect.setflags(write=True)  # f's own array; f is not read again
    box, b = ball._on_support_box(grid)
    edge = (level - b) * defect[box]
    defect *= level
    defect[box] = edge
    del b, edge
    defect = inverse_transform(Field.frequency(grid, defect), overwrite=True)
    return f_norm, spec._norm(defect)


def probe_ratio(spec, n_scale, grid=None, profile=None):
    """Defect ratio ||(lambda I - B) f_{N,xi0}|| / ||f_{N,xi0}||."""
    if grid is None:
        grid = spec.default_grid()
    f_norm, defect_norm = _probe_norms(spec, n_scale, grid, _achieved_level(spec, grid), profile)
    return defect_norm / f_norm


def decay_rows(spec, grid=None, profile=None):
    """Probe table across the N sweep with the achieved level recorded."""
    if grid is None:
        grid = spec.default_grid()
    xi0, level = _achieved_level(spec, grid)
    rows = []
    for n in spec.n_values:
        f_norm, defect_norm = _probe_norms(spec, n, grid, (xi0, level), profile)
        rows.append(
            {
                "lambda": spec.lam,
                "lambda_achieved": level,
                "xi0": float(xi0[0]),
                "p": spec.p,
                "delta": spec.delta,
                "n": int(n),
                "ratio": defect_norm / f_norm,
            }
        )
    return rows


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
    WeightSpec(spec.weight_a, p).validate_for_dim(d)
    f_norm, defect_norm = _probe_norms(spec, n_scale, grid, _achieved_level(spec, grid))
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
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return 1.0 / dist_to_unit_interval(z)


def resolvent_norm_grid_sup(z, delta, grid):
    """Sup of the resolvent symbol over the grid frequency lattice."""
    return float(np.max(np.abs(resolvent_symbol(z, delta).fresh_sample(grid))))


def probe_lower_bound(z, delta, p, grid, probes):
    """Best resolvent-norm lower bound ||R f||_p / ||f||_p from (probe, ||f||_p) pairs.

    A probe is a field on grid, spatial or given by its spectrum (which saves
    its forward transform), or a baseband pair (xi, spectrum) from
    `_baseband_probe`: a spectrum on a small grid of grid's half-width with
    its absolute lattice frequencies xi.  The resolvent is sampled at the
    probe's frequencies; ||R f||_2 is a Parseval sum with no transform, and
    any other p takes one inverse transform per probe on the probe's grid.
    """
    res = resolvent_symbol(z, delta)
    best = 0.0
    for probe, f_norm in probes:
        if isinstance(probe, Field):
            spectrum = probe if probe.domain == "frequency" else forward_transform(probe)
            xi = probe.grid.xi_mesh()
        else:
            xi, spectrum = probe
        image = Field.frequency(spectrum.grid, res.evaluate(xi) * spectrum.samples)
        best = max(best, spectrum_lp_norm(image, p) / f_norm)
    return best


MAP_EXTRA_LEVELS = (0.25, 0.75)
"""Probe levels that `spectrum_map` adds at every point, next to its real part."""


def spectrum_map(z_values, p, delta, grid=None, n_values=(32, 64, 128, 256),
                 rho=0.5, pole_margin=1e-3):
    """Resolvent-norm lower bounds over a set of complex points.

    Points closer than pole_margin to [0, 1] are marked as poles and skipped.
    Probe levels follow each point's real part (clamped to [0, 1]) plus
    MAP_EXTRA_LEVELS; the p = 2 column carries the closed-form oracle
    1/dist(z, [0, 1]).

    Each distinct probe lives on its own baseband grid (`baseband_grid`): the
    sweep grid's half-width, so its frequency lattice, snapped xi0 and 4-cell
    rule, with only as many points as BASEBAND_OVERSAMPLING asks for the
    probe's radius rho/N.  Its spectrum and the resolvent are sampled at the
    absolute lattice frequencies around xi0, where they equal the sweep
    grid's samples.  At p = 2 the bound is the Parseval ratio
    sqrt(sum |R F|^2 / sum |F|^2) and the map makes no transform; otherwise it
    makes one inverse transform per distinct probe, for ||f||_p, and one per
    (non-pole z, probe), all on baseband grids.
    """
    if not (n_values and min(n_values) >= 1):
        raise ValueError(f"probe scales must be integers >= 1, got {list(n_values)}")
    # checked here, not only where a probe is built, so an all-pole map rejects them too
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    if not pole_margin > 0:
        raise ValueError(f"pole margin must be positive, got {pole_margin}")
    if grid is None:
        grid = probe_grid(max(n_values), rho)
    probe_cache = {}

    def probes_for(lam):
        xi0 = snap_to_lattice(grid, lambda_to_xi0(lam, delta))
        key = lattice_offset(grid, xi0)
        if key not in probe_cache:
            bands = (_baseband_probe(grid, xi0, n, rho) for n in n_values)
            probe_cache[key] = [((xi, spec), spectrum_lp_norm(spec, p)) for xi, spec in bands]
        return probe_cache[key]

    rows = []
    for z in z_values:
        z = complex(z)
        row = {"re_z": z.real, "im_z": z.imag}
        if dist_to_unit_interval(z) < pole_margin:
            row.update(pole=True, lower_bound=np.inf, oracle_p2=np.inf)
        else:
            lams = {min(max(z.real, 0.0), 1.0), *MAP_EXTRA_LEVELS}
            probes = [pair for lam in sorted(lams) for pair in probes_for(lam)]
            row.update(
                pole=False,
                lower_bound=probe_lower_bound(z, delta, p, grid, probes),
                oracle_p2=resolvent_norm_oracle(z, delta),
            )
        rows.append(row)
    return rows
