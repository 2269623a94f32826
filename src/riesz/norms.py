"""Norms: L^p, power-weighted L^p with an A_p screen, Herz, Besov, Triebel.

All spatial quadrature is the plain Riemann sum h^d * sum over the grid.
Weights are restricted to |x|^a, the family whose Muckenhoupt ranges are
known in closed form; the value at the origin cell is replaced by the cell
average so negative exponents stay integrable.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .grid import forward_transform, inverse_transform
from .multiplier import apply
from .symbols import _STRIP_POINTS, BumpProfile, Symbol, radial_symbol


def _abs_power_sum(samples, p, weight=None):
    """sum |samples|^p (times weight), raising one real array of moduli to p in place.

    Only the sum is checked, by _checked_sum: an entry may overflow or
    underflow, and the grid is read again only when the sum is 0.
    """
    a = np.abs(samples)
    with np.errstate(over="ignore"):
        a **= p
        if weight is not None:
            a *= weight
        total = np.sum(a)
    return _checked_sum(total, p, lambda: np.any(samples))


def _checked_sum(total, p, nonzero):
    """total, a sum of |f|^p terms, when its p-th root is the norm it stands for.

    An overflowed sum, or one that underflowed to 0 where nonzero() says f is
    not 0, has none: a ValueError naming p.
    """
    if not np.isfinite(total):
        raise ValueError(f"the sum of |f|^p overflows at p={p}")
    if total == 0 and nonzero():
        raise ValueError(f"the sum of |f|^p underflows to 0 at p={p} on a nonzero field")
    return total


def lp_norm(f, p):
    """(sum |f|^p h^d)^(1/p) over the spatial grid."""
    if f.domain != "spatial":
        raise ValueError("lp_norm expects a spatial field")
    if not 1 <= p < np.inf:
        raise ValueError(f"p must lie in [1, inf), got {p}")
    g = f.grid
    return float(_abs_power_sum(f.samples, p) ** (1.0 / p) * g.h ** (g.dim / p))


def spectrum_lp_norm(spectrum, p):
    """L^p norm of the field with this spectrum: Parseval at p = 2, with no
    transform; one inverse transform otherwise."""
    if spectrum.domain != "frequency":
        raise ValueError("spectrum_lp_norm expects a frequency field")
    if p == 2:
        g = spectrum.grid
        mass = _abs_power_sum(spectrum.samples, 2) * (g.dxi / (2.0 * np.pi)) ** g.dim
        return float(np.sqrt(mass))
    return lp_norm(inverse_transform(spectrum), p)


@dataclass(frozen=True)
class WeightSpec:
    """Power weight w(x) = |x|^a paired with the exponent p it serves."""

    a: float
    p: float

    def validate_for_dim(self, dim):
        if self.p > 1:
            if not -dim < self.a < dim * (self.p - 1):
                raise ValueError(
                    f"a={self.a} outside the A_p range (-{dim}, {dim * (self.p - 1)}) "
                    f"for p={self.p}"
                )
        elif self.p == 1:
            if not -dim < self.a <= 0:
                raise ValueError(f"a={self.a} outside the A_1 range (-{dim}, 0]")
        else:
            raise ValueError(f"p must be >= 1, got {self.p}")


def _square_mass(a, half_side, dim):
    """Integral of |x|^a over [-R, R]^dim."""
    if a <= -dim:
        raise ValueError(f"|x|^{a} is not integrable in dimension {dim}")
    if dim == 1:
        return 2.0 * half_side ** (a + 1) / (a + 1)
    # Split the square into eight wedges; each reduces to a 1-d integral.
    theta = np.linspace(0.0, np.pi / 4.0, 20001)
    integrand = np.cos(theta) ** (-(a + 2.0))
    return 8.0 * half_side ** (a + 2) / (a + 2) * float(np.trapezoid(integrand, theta))


@functools.lru_cache(maxsize=8)
def weight_samples(grid, a):
    """|x|^a on the grid with the origin cell replaced by its cell average.

    Read-only, and shared by every caller asking for the same (grid, a).
    """
    if a == 0:
        w = np.ones(grid.shape)
    else:
        r = grid.x_radius()
        with np.errstate(divide="ignore"):
            w = np.where(r > 0, r, 1.0) ** a
        center = (grid.size // 2,) * grid.dim
        w[center] = _square_mass(a, grid.h / 2.0, grid.dim) / grid.h**grid.dim
    w.setflags(write=False)
    return w


def weighted_lp_norm(f, w):
    """(sum |f|^p w h^d)^(1/p) at the exponent p = w.p the weight serves, with
    the admissibility of w for that p enforced."""
    if f.domain != "spatial":
        raise ValueError("weighted_lp_norm expects a spatial field")
    w.validate_for_dim(f.grid.dim)
    if w.a == 0:
        return lp_norm(f, w.p)
    g = f.grid
    total = _abs_power_sum(f.samples, w.p, weight_samples(g, w.a)) * g.h**g.dim
    return float(total ** (1.0 / w.p))


@dataclass(frozen=True)
class CubeFamily:
    """Axis-aligned cubes as (side, center) pairs with a quadrature budget."""

    cubes: tuple
    quad_points: int


def default_cube_family(half_width, dim, level=0):
    """Cubes of side s = 2^(-3-level), centered on a half-side lattice including the origin.

    Centers sit at multiples of s/2 up to 4 s from the origin.  Power-weight
    products depend only on a cube's center-to-side ratio, and the smallest
    side admits every ratio a larger one inside [-half_width, half_width]
    admits, so this one side reaches the sup of every dyadic side.  `level`
    refines the side and the quadrature, which is how stability of the
    estimate is probed; it must be an integer in [0, 5]: at level 5 one
    cube's 4096 * 2^5 nodes (362^2 in 2D) fill one _STRIP_POINTS strip.
    """
    if not (isinstance(level, (int, np.integer)) and 0 <= level <= 5):
        raise ValueError(f"cube family level must be an integer in [0, 5], got {level}")
    side = 2.0 ** (-3 - level)
    relative = [0.5 * j for j in range(-8, 9)] if side <= half_width else []
    offsets = [r * side for r in relative if abs(r * side) + side / 2.0 <= half_width]
    cubes = tuple((side, center) for center in itertools.product(offsets, repeat=dim))
    return CubeFamily(cubes, quad_points=4096 * 2**level)


def _cube_midpoints(centers, side, npts):
    """Per-axis midpoint nodes of each cube of one side: dim arrays of shape (cubes, npts)."""
    offsets = (np.arange(npts) + 0.5) * (side / npts)
    return [(centers[:, i] - side / 2.0)[:, None] + offsets for i in range(centers.shape[1])]


def ap_constant_estimate(w, family, dim=1):
    """Largest averaged Muckenhoupt product over the cube family.

    For p > 1 this is avg_Q(w) * avg_Q(w^(-1/(p-1)))^(p-1); for p = 1 it is
    avg_Q(w) / min_Q(w).  Cube averages use midpoint quadrature, which never
    evaluates the weight at the origin.  Consecutive cubes of one side are
    evaluated together, at most _STRIP_POINTS nodes at a time; each cube's
    nodes stay one contiguous row, so its averages are the same sums as for
    that cube alone.
    """
    w.validate_for_dim(dim)
    if not family.cubes:
        raise ValueError("the cube family is empty: no cube fits the window")
    if w.a == 0:
        return 1.0
    if any(len(center) != dim for _, center in family.cubes):
        raise ValueError("cube center dimension does not match")
    npts = family.quad_points if dim == 1 else max(64, int(math.isqrt(family.quad_points)))
    per_chunk = max(1, _STRIP_POINTS // npts**dim)
    worst = 0.0
    for side, group in itertools.groupby(family.cubes, key=lambda cube: cube[0]):
        centers = np.array([center for _, center in group], dtype=float)
        for start in range(0, len(centers), per_chunk):
            axes = _cube_midpoints(centers[start:start + per_chunk], side, npts)
            if dim == 1:
                r = np.abs(axes[0])
            else:
                r = np.hypot(axes[0][:, :, None], axes[1][:, None, :]).reshape(len(axes[0]), -1)
            wvals = r**w.a
            if w.p > 1:
                products = (wvals.mean(axis=1)
                            * (wvals ** (-1.0 / (w.p - 1))).mean(axis=1) ** (w.p - 1))
            else:
                products = wvals.mean(axis=1) / wvals.min(axis=1)
            worst = max(worst, *products.tolist())
    return worst


@dataclass(frozen=True)
class HerzParams:
    alpha: float
    p: float
    q: float

    def __post_init__(self):
        finite = all(map(math.isfinite, (self.alpha, self.p, self.q)))
        if not (finite and min(self.p, self.q) >= 1):
            raise ValueError("Herz exponents alpha, p, q must be finite, with p, q >= 1")

    def validate_for_dim(self, dim):
        if not self.alpha > -dim / self.p:
            raise ValueError(f"alpha must exceed -d/p = {-dim / self.p}")


def herz_norm(f, params):
    """Ball term plus dyadic-annulus blocks weighted by 2^(l alpha q).

    Annuli 2^(l-1) < |x| <= 2^l are used up to the largest 2^l <= L.
    """
    if f.domain != "spatial":
        raise ValueError("herz_norm expects a spatial field")
    g = f.grid
    params.validate_for_dim(g.dim)
    r = g.x_radius()
    ell_max = int(np.floor(np.log2(g.half_width)))
    with np.errstate(over="ignore"):  # only the sum over the regions is checked
        pieces = np.abs(f.samples) ** params.p * g.h**g.dim
        sums = [np.sum(pieces[r <= 1.0])]
        for ell in range(1, ell_max + 1):
            sums.append(np.sum(pieces[(r > 2.0 ** (ell - 1)) & (r <= 2.0**ell)]))
        _checked_sum(sum(sums), params.p, lambda: np.any(f.samples[r <= 2.0**ell_max]))
    ball = float(sums[0] ** (1.0 / params.p))
    blocks = 0.0
    for ell, block_sum in enumerate(sums[1:], 1):
        block_norm = float(block_sum ** (1.0 / params.p))
        blocks += 2.0 ** (ell * params.alpha * params.q) * block_norm**params.q
    return ball + blocks ** (1.0 / params.q)


@dataclass(eq=False)
class LPFamily:
    """Dyadic frequency partition built by telescoping one bump.

    base is 1 on |xi| <= 1 and 0 beyond |xi| >= 2; the annular piece is
    base(xi) - base(2 xi), so base + sum of its dyadic dilates telescopes to
    an exact partition of unity on |xi| <= 2^(ell_max - 1) and the annular
    symbol vanishes outside 1/2 <= |xi| <= 2.
    """

    base: Symbol
    annular: Symbol
    ell_max: int

    def level_symbol(self, ell):
        """Symbol of the ell-th block, xi -> annular(2^(-ell) xi)."""
        if not 1 <= ell <= self.ell_max:
            raise ValueError(f"level must lie in [1, {self.ell_max}]")
        return self.annular.dilated(2.0 ** (-ell))

    @property
    def valid_band(self):
        return 2.0 ** (self.ell_max - 1)


def build_lp_family(ell_max):
    """Construct the telescoping partition and verify it on a dense sample."""
    if ell_max < 1:
        raise ValueError("need at least one annular level")
    base = radial_symbol(BumpProfile(1.0, 2.0), 2.0)
    family = LPFamily(base, base - base.dilated(2.0), int(ell_max))
    r = np.linspace(0.0, family.valid_band, 4097)
    total = base.evaluate((r,)).real.copy()
    for ell in range(1, ell_max + 1):
        total += family.level_symbol(ell).evaluate((r,)).real
    residual = float(np.max(np.abs(total - 1.0)))
    if residual > 1e-12:
        raise RuntimeError(f"partition residual {residual} exceeds 1e-12")
    return family


def _block_fields(f, alpha, p, q, family):
    """L^p norm of f's base block and a generator of its weighted level blocks.

    Non-finite exponents and q <= 0 are rejected before the one transform.
    Its spectrum is checked against the band at once, on one real array of
    moduli, and the base block is reduced to its norm before any level block
    2^(ell alpha q), apply(level_symbol(ell), spec) is made, each only when
    the caller asks; a caller that folds them in one pass holds one at a time.
    """
    if not (all(map(math.isfinite, (alpha, p, q))) and q > 0):
        raise ValueError(f"need finite alpha, p, q and q > 0, got {alpha}, {p}, {q}")
    spec = forward_transform(f)
    moduli = np.abs(spec.samples)
    peak = float(np.max(moduli))
    moduli[f.grid.xi_radius() <= family.valid_band] = 0.0
    leak = float(np.max(moduli))
    del moduli
    if leak > 1e-9 * max(peak, 1e-300):
        raise ValueError(
            f"field has frequency content beyond the family band "
            f"{family.valid_band} (leak {leak:.2e})"
        )
    blocks = (
        (2.0 ** (ell * alpha * q), apply(family.level_symbol(ell), spec))
        for ell in range(1, family.ell_max + 1)
    )
    return lp_norm(apply(family.base, spec), p), blocks


def besov_norm(f, alpha, p, q, family):
    """Base L^p term plus the weighted l^q sum of block L^p norms."""
    base_norm, blocks = _block_fields(f, alpha, p, q, family)
    tail = 0.0
    for wt, blk in blocks:
        tail += wt * lp_norm(blk, p) ** q
        del blk  # dropped before the next block is made
    return base_norm + tail ** (1.0 / q)


def triebel_norm(f, alpha, p, q, family):
    """Base L^p term plus the L^p norm of the pointwise weighted l^q sum.

    The stack of wt |block|^q is one real array, accumulated in place.
    """
    base_norm, blocks = _block_fields(f, alpha, p, q, family)
    stack = 0.0
    for wt, blk in blocks:
        term = np.abs(blk.samples)
        term **= q
        term *= wt
        stack += term
        del blk, term  # neither is held while the next block is made
    g = f.grid
    inner = float(np.sum(stack ** (p / q)) ** (1.0 / p) * g.h ** (g.dim / p))
    return base_norm + inner
