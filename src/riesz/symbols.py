"""Frequency-side symbols: ball multipliers, resolvents, cutoffs, bumps.

A Symbol is an evaluation rule on frequency vectors together with a declared
support radius and the origin-centered spheres where it may fail to be
smooth.  Rules act on tuples of per-axis coordinate arrays so one symbol
serves any grid dimension.  Every rule is pointwise: its value at a point
depends only on that point's coordinates, so evaluating on a sub-box of the
lattice gives exactly the full lattice's values there.
`Symbol._on_support_box`, the one sampler, relies on this: it evaluates only
on the box of lattice cells within the support radius on every axis, so a
sample costs in proportion to its support box, not to the grid.  Products are
formed on that box; `Symbol.fresh_sample` writes it into a new grid array
with exact zeros elsewhere.  The cached `Symbol.sample` has no package caller.
"""

import math
from dataclasses import dataclass, field

import numpy as np

_STRIP_POINTS = 2**17  # mikhlin_check's strip size; the 1D default's levels are one strip
MIKHLIN_GROWTH_THRESHOLD = 10.0  # finest/coarsest sup ratio above which mikhlin_check flags


def _radius2(coords):
    return sum(np.asarray(c, dtype=float) ** 2 for c in coords)


def _flat_exp(t):
    """exp(-1/t) for t > 0, identically 0 for t <= 0."""
    t = np.asarray(t, dtype=float)
    out = np.zeros_like(t)
    pos = t > 0
    out[pos] = np.exp(-1.0 / t[pos])
    return out


def smoothstep(s):
    """Monotone C-infinity step: 0 at s <= 0, 1 at s >= 1."""
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    rise = _flat_exp(s)
    fall = _flat_exp(1.0 - s)
    return rise / (rise + fall)


@dataclass(frozen=True)
class BumpProfile:
    """Radial profile equal to 1 on |t| <= inner and 0 on |t| >= outer.

    The transition uses the standard exp(-1/t) smoothstep, so the profile is
    infinitely differentiable in exact arithmetic and takes values in [0, 1].
    """

    inner: float
    outer: float

    def __post_init__(self):
        if not 0 <= self.inner < self.outer:
            raise ValueError(f"need 0 <= inner < outer, got {self.inner}, {self.outer}")

    def __call__(self, t):
        r = np.abs(np.asarray(t, dtype=float))
        width = self.outer - self.inner
        return np.where(
            r <= self.inner,
            1.0,
            np.where(r >= self.outer, 0.0, smoothstep((self.outer - r) / width)),
        )


@dataclass(frozen=True, eq=False)
class Symbol:
    """Complex-valued frequency symbol with a declared support.

    fn              : pointwise rule mapping a tuple of coordinate arrays to
                      a new array of their broadcast shape (the value at a
                      point depends on that point's coordinates alone;
                      `_on_support_box` relies on it)
    support_radius  : values are identically 0 beyond this radius (inf allowed)
    nonsmooth_radii : radii of origin-centered spheres where derivatives may
                      fail to exist (finite-difference screens avoid them)

    Frozen, so the per-grid sample cache stays true to fn and support_radius.
    """

    fn: object
    support_radius: float = np.inf
    nonsmooth_radii: tuple = ()
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not self.support_radius >= 0:
            raise ValueError(f"support radius must be >= 0, got {self.support_radius}")

    def evaluate(self, coords):
        """Evaluate on coordinate arrays, enforcing the support radius exactly."""
        vals = np.asarray(self.fn(coords), dtype=np.complex128)
        if np.isfinite(self.support_radius):
            vals = np.where(_radius2(coords) <= self.support_radius**2, vals, 0.0)
        return vals

    def sample(self, grid):
        """`fresh_sample(grid)`, cached per GridSpec in `_cache` (read-only).

        No package path calls it; it and `_cache` stay only for the benchmark
        tracer, which wraps it and reads the cache.
        """
        hit = self._cache.get(grid)
        if hit is None:
            hit = self.fresh_sample(grid)
            hit.setflags(write=False)
            self._cache[grid] = hit
        return hit

    def fresh_sample(self, grid):
        """Values on the grid frequency lattice, in a new array the caller owns.

        The rule runs only on the box of cells whose every coordinate passes
        xi_axis**2 <= support_radius**2, the comparison `evaluate` masks with,
        so no cell `evaluate` keeps lies outside it; the rest are exact zeros.
        The result equals the masked full-lattice evaluation bit for bit.
        """
        box, values = self._on_support_box(grid)
        out = np.zeros(grid.shape, complex)
        out[box] = values
        return out

    def _on_support_box(self, grid):
        """Index of the support box on grid's lattice and, in a new array, the values there.

        The box holds the cells whose every coordinate passes
        xi_axis**2 <= support_radius**2, so no cell `evaluate` keeps lies
        outside it; it is never empty, because 0 is on every axis.
        """
        axis = grid.xi_axis()
        kept = np.flatnonzero(axis**2 <= self.support_radius**2)
        box = (slice(kept[0], kept[-1] + 1),) * grid.dim
        coords = np.meshgrid(*(axis[b] for b in box), indexing="ij", sparse=True)
        return box, self.evaluate(tuple(coords))

    def __mul__(self, other):
        if np.isscalar(other):
            return Symbol(
                lambda c, s=self, a=other: a * s.evaluate(c),
                self.support_radius,
                self.nonsmooth_radii,
            )
        return Symbol(
            lambda c, s=self, o=other: s.evaluate(c) * o.evaluate(c),
            min(self.support_radius, other.support_radius),
            tuple(sorted(set(self.nonsmooth_radii) | set(other.nonsmooth_radii))),
        )

    __rmul__ = __mul__

    def __add__(self, other):
        return Symbol(
            lambda c, s=self, o=other: s.evaluate(c) + o.evaluate(c),
            max(self.support_radius, other.support_radius),
            tuple(sorted(set(self.nonsmooth_radii) | set(other.nonsmooth_radii))),
        )

    def __sub__(self, other):
        return self + (-1.0) * other

    def __neg__(self):
        return (-1.0) * self

    def shifted(self, xi0):
        """Symbol xi -> value(xi - xi0); xi0 is a scalar (first axis) or vector."""
        vec = np.atleast_1d(np.asarray(xi0, dtype=float))
        support = self.support_radius
        if np.isfinite(support):
            support = support + float(np.linalg.norm(vec))
        def fn(coords, s=self, v=vec):
            comps = list(v) + [0.0] * (len(coords) - len(v))
            return s.evaluate(tuple(c - w for c, w in zip(coords, comps)))
        # Off-center spheres are not tracked; derivative screens apply to the
        # unshifted symbol.
        return Symbol(fn, support)

    def dilated(self, factor):
        """Symbol xi -> value(factor * xi)."""
        if not factor > 0:
            raise ValueError("dilation factor must be positive")
        return Symbol(
            lambda c, s=self, a=factor: s.evaluate(tuple(a * ci for ci in c)),
            self.support_radius / factor,
            tuple(r / factor for r in self.nonsmooth_radii),
        )


def scalar_symbol(value):
    """Constant symbol."""
    def fn(coords):
        return np.full(np.broadcast(*coords).shape, complex(value))
    return Symbol(fn)


def radial_symbol(profile, support_radius, nonsmooth_radii=()):
    """Symbol depending on |xi| only."""
    return Symbol(lambda c: profile(np.sqrt(_radius2(c))), support_radius, nonsmooth_radii)


def ball_power_profile(delta):
    """Radial rule r -> (1 - r^2)_+^delta."""
    def profile(r):
        base = np.clip(1.0 - np.asarray(r, dtype=float) ** 2, 0.0, None)
        return base**delta
    return profile


def bochner_symbol(delta):
    """Ball multiplier symbol (1 - |xi|^2)_+^delta."""
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return radial_symbol(ball_power_profile(delta), 1.0, (1.0,))


def dist_to_unit_interval(z):
    """Distance from a complex number to the segment [0, 1]."""
    z = complex(z)
    dx = max(0.0, -z.real, z.real - 1.0)
    return math.hypot(dx, z.imag)


def resolvent_symbol(z, delta):
    """Symbol (z - (1 - |xi|^2)_+^delta)^(-1); z must stay off [0, 1].

    Its modulus is bounded by 1/dist(z, [0, 1]) because the base symbol's
    range is exactly [0, 1].
    """
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    z = complex(z)
    if dist_to_unit_interval(z) <= 1e-12:
        raise ValueError(f"z={z} is within 1e-12 of the segment [0, 1] (pole)")
    base = ball_power_profile(delta)
    return radial_symbol(lambda r: 1.0 / (z - base(r)), np.inf, (1.0,))


def cutoff_pair(r0):
    """Inner/outer cutoffs (psi1, psi2) around the unit sphere.

    psi1 = 1 on |xi| <= 1 - r0 and 0 on |xi| >= 1 - r0/2; psi2 = 1 - psi1 on
    |xi| <= 1 + r0/2 and 0 beyond |xi| > 1 + r0, so psi1 + psi2 = 1 on the
    whole ball |xi| <= 1 + r0/2 and psi2 is supported on the annulus
    1 - r0 <= |xi| <= 1 + r0.
    """
    if not 0 < r0 < 0.5:
        raise ValueError(f"r0 must lie in (0, 1/2), got {r0}")
    inner = BumpProfile(1.0 - r0, 1.0 - r0 / 2.0)
    outer = BumpProfile(1.0 + r0 / 2.0, 1.0 + r0)
    psi1 = radial_symbol(inner, 1.0 - r0 / 2.0)
    psi2 = radial_symbol(lambda r: (1.0 - inner(r)) * outer(r), 1.0 + r0)
    return psi1, psi2


_UNIT_BUMP_MASS = {1: np.float64(0.4439938161680795), 2: np.float64(0.4665123931781548)}


def _unit_bump_mass(dim):
    """Integral of exp(-1/(1-|s|^2)) over the unit ball in R^dim.

    The constants are the trapezoid rule on 2^20 equal intervals of the
    radius s in [0, 1]: 2 * trapezoid(exp(-1/(1-s^2))) in 1D and
    2 pi * trapezoid(exp(-1/(1-s^2)) s) in 2D, with the integrand 0 at
    s = 1.  The tests recompute them bit for bit.
    """
    if dim not in _UNIT_BUMP_MASS:
        raise ValueError(f"unsupported dimension {dim}")
    return _UNIT_BUMP_MASS[dim]


def bump_phi0(rho):
    """Smooth radial bump supported in |xi| <= rho, positive inside.

    Scaled so that the spatial side takes the value 1 at the origin, i.e.
    (2 pi)^(-d) integral = 1 in every supported dimension.
    """
    if not (0 < rho < np.inf and 0 < rho * rho < np.inf):
        raise ValueError(f"radius must be positive with a finite nonzero square, got {rho}")

    def fn(coords):
        dim = len(coords)
        with np.errstate(over="ignore"):  # an infinite scale is rejected below
            scale = (2.0 * np.pi) ** dim / (rho**dim * _unit_bump_mass(dim))
        if not 0 < scale < np.inf:
            raise ValueError(f"radius {rho} has no finite {dim}D normalisation")
        r2 = _radius2(coords) / rho**2
        return scale * _flat_exp(1.0 - r2)

    return Symbol(fn, rho)


def critical_delta(p, d):
    """Reference exponent (d |1/p - 1/2| - 1/2)_+ for the L^p window."""
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    if d < 1:
        raise ValueError(f"dimension must be >= 1, got {d}")
    return max(d * abs(1.0 / p - 0.5) - 0.5, 0.0)


@dataclass
class MikhlinReport:
    """Finite-difference screen of |xi|^k |grad^k m(xi)| over a refinement ladder.

    sups[level][k] holds the masked sup at each refinement level; growth[k]
    compares the finest level against the coarsest, and a symbol is flagged
    "unbounded-suspect" at order k when that growth exceeds the threshold
    (MIKHLIN_GROWTH_THRESHOLD, recorded here).
    """

    kmax: int
    dim: int
    xi_max: float
    points: list
    sups: list
    growth: list
    flagged: list
    threshold: float

    @property
    def any_flagged(self):
        return any(self.flagged)


def _directional_gradients(tensors, spacing):
    return [np.gradient(t, spacing, axis=axis) for t in tensors for axis in range(t.ndim)]


def mikhlin_check(m, kmax, dim=1, xi_max=4.0, base_points=256, refinements=None):
    """Numerical screen for boundedness of |xi|^k |grad^k m|, k <= kmax.

    Derivatives are central finite differences on [-xi_max, xi_max]^dim,
    evaluated on a ladder of dyadic refinements.  Points within max(2, k)
    cells of a declared non-smooth sphere, and the k-cell frame of one-sided
    stencils, are excluded.  Each level runs in row strips of _STRIP_POINTS
    points along the first axis, with a kmax-row halo so the strip's own edge
    stencils never reach a kept row: the sups equal those of the whole mesh,
    in O(strip x row) memory per level.  This is a report-only screen.
    """
    if not 0 <= kmax <= 3:
        raise ValueError(f"kmax must lie in [0, 3], got {kmax}")
    if dim not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {dim}")
    if not 0 < xi_max < np.inf:
        raise ValueError(f"xi_max must be positive and finite, got {xi_max}")
    if base_points < 2:
        raise ValueError(f"base_points must be at least 2, got {base_points}")
    if refinements is None:
        refinements = 8 if dim == 1 else 3
    if refinements < 0:
        raise ValueError(f"refinements must be >= 0, got {refinements}")
    points, sups = [], []
    for level in range(refinements + 1):
        n = base_points * 2**level + 1
        axis = np.linspace(-xi_max, xi_max, n)
        spacing = axis[1] - axis[0]
        rows = max(1, _STRIP_POINTS // n ** (dim - 1))
        level_sups = [0.0] * (kmax + 1)
        for start in range(0, n, rows):
            stop = min(start + rows, n)
            lo, hi = max(start - kmax, 0), min(stop + kmax, n)
            coords = tuple(np.meshgrid(axis[lo:hi], *([axis] * (dim - 1)), indexing="ij"))
            radius = np.sqrt(_radius2(coords))
            tensors = [m.evaluate(coords)]
            for k in range(kmax + 1):
                if k > 0:
                    tensors = _directional_gradients(tensors, spacing)
                # global rows and columns k..n-k-1: the frame's stencils are one-sided
                row0, row1 = max(start, k) - lo, min(stop, n - k) - lo
                if row0 >= row1:
                    continue
                inner = (slice(row0, row1),) + (slice(k, n - k),) * (dim - 1)
                r = radius[inner]
                keep = np.all([np.abs(r - r_ns) > max(2, k) * spacing
                               for r_ns in m.nonsmooth_radii], axis=0)
                mag = np.sqrt(sum(np.abs(t[inner]) ** 2 for t in tensors))
                level_sups[k] = float(np.max(r**k * mag, where=keep, initial=level_sups[k]))
        points.append(n)
        sups.append(level_sups)
    growth, flagged = [], []
    for k in range(kmax + 1):
        first, last = sups[0][k], sups[-1][k]
        if first < 1e-300 and last < 1e-300:
            g = 1.0
        elif first < 1e-300:
            g = np.inf
        else:
            g = last / first
        growth.append(g)
        flagged.append(bool(not np.isfinite(g) or g > MIKHLIN_GROWTH_THRESHOLD))
    return MikhlinReport(kmax, dim, xi_max, points, sups, growth, flagged,
                         MIKHLIN_GROWTH_THRESHOLD)
