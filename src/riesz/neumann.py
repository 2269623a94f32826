"""Cutoff/Neumann decompositions of resolvent symbols with certified tails.

Two executable directions:

* forward: split the resolvent symbol (z - b)^(-1) into a smooth inner part
  m1, a finite Neumann section m21, a truncated tail kernel, and the constant
  far field z^(-1)(1 - psi1 - psi2).  On the support of psi2 the base symbol
  b = (1 - |xi|^2)_+^delta is at most (2 r0)^delta, so the discarded terms
  are dominated by the geometric series with ratio q = |z|^(-1) (2 r0)^delta
  and the truncation error carries a closed-form certificate.

* reverse: rebuild b * psi2 from powers of 1 - z0 (z0 - b)^(-1), whose
  modulus on supp psi2 is at most q/(1 - q) < 1; the tail certificate uses
  the measured grid sup of that contraction.

One private generator makes every series-term spectrum s_n (b^n psi2 forward,
w^n psi2 reverse).  The tail kernel is kept as its spectrum sum c_n s_n, a
frequency-side Field that the check and the compositions read directly; each
seminorm row inverse-transforms one s_n and drops its kernel afterwards.

apply_forward and apply_reverse compose the decomposition on the spectrum:
spectrum in, spectrum out.  Given a frequency Field they return the
composite's spectrum and make no transform; given a spatial Field they make
one forward and one inverse transform.  Every multiplier they apply is
checked against the grid's frequency window, as `apply` would check it.

Both Decompositions store the certified tail bound next to the measured
sup-norm reconstruction error so callers can assert one against the other.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, forward_transform, inverse_transform
from .multiplier import _check_window, schwartz_seminorm
from .symbols import (
    Symbol,
    ball_power_profile,
    bochner_symbol,
    cutoff_pair,
    dist_to_unit_interval,
    radial_symbol,
    resolvent_symbol,
)


def choose_r0(z, delta):
    """Quarter of the admissible sup min(|z/2|^(1/delta), 1): a point strictly
    inside the interval (0, min(|z/2|^(1/delta), 1)/2) that keeps the Neumann
    ratio q = |z|^(-1) (2 r0)^delta at most 2^(-delta-1)."""
    z = complex(z)
    if dist_to_unit_interval(z) <= 1e-12:
        raise ValueError(f"z={z} lies on (or hugs) the segment [0, 1]")
    if not delta > 0:
        raise ValueError(f"delta must be positive, got {delta}")
    return min(abs(z / 2.0) ** (1.0 / delta), 1.0) / 4.0


def contraction_ratio(z, delta, r0):
    """q = |z|^(-1) (2 r0)^delta, the geometric ratio of the Neumann series."""
    return (2.0 * r0) ** delta / abs(complex(z))


@dataclass(frozen=True)
class NeumannPlan:
    """Complete parameter set of one decomposition run."""

    z: complex
    delta: float
    r0: float
    n0: int
    truncation: int
    alpha0: int
    beta0: int
    direction: str
    grid: GridSpec

    def __post_init__(self):
        if self.direction not in ("forward", "reverse"):
            raise ValueError(f"direction must be forward or reverse, got {self.direction}")
        sup = min(abs(complex(self.z) / 2.0) ** (1.0 / self.delta), 1.0) / 2.0
        if not 0 < self.r0 < sup:
            raise ValueError(f"r0={self.r0} outside the admissible interval (0, {sup})")
        if not self.n0 > self.alpha0 / self.delta:
            raise ValueError(f"n0={self.n0} must exceed alpha0/delta={self.alpha0 / self.delta}")
        if self.truncation < self.n0 + 1:
            raise ValueError("truncation must reach past n0")
        if not contraction_ratio(self.z, self.delta, self.r0) < 1:
            raise ValueError("contraction ratio is not below 1")

    @property
    def q(self):
        return contraction_ratio(self.z, self.delta, self.r0)


def _forward_tail_certificate(z, q, truncation):
    # |z|^(-1) sum_{n > T} q^n for the discarded forward terms.
    return q ** (truncation + 1) / (1.0 - q) / abs(complex(z))


def _reverse_tail_certificate(z, ratio, truncation):
    # |z| sum_{n > T} ratio^n with the (measured) contraction value.
    return abs(complex(z)) * ratio ** (truncation + 1) / (1.0 - ratio)


def make_plan(z, delta, direction="forward", grid=None, alpha0=None, beta0=0,
              r0=None, n0=None, truncation=None, tail_tol=1e-10):
    """Fill in a NeumannPlan with the default policies.

    r0 comes from choose_r0, n0 is the smallest integer above alpha0/delta,
    and the truncation length is the shortest one whose certified tail drops
    below tail_tol (using the a-priori ratio q/(1-q) for the reverse
    direction, which dominates the measured one).  tail_tol must be positive
    and finite.
    """
    if not 0 < tail_tol < np.inf:
        raise ValueError(f"tail_tol must be positive and finite, got {tail_tol}")
    if grid is None:
        grid = GridSpec(1, 2048, 40.0)
    if alpha0 is None:
        alpha0 = grid.dim + 1
    if r0 is None:
        r0 = choose_r0(z, delta)
    if n0 is None:
        n0 = int(np.floor(alpha0 / delta)) + 1
    q = contraction_ratio(z, delta, r0)
    if truncation is None:
        if direction == "forward":
            ratio, certificate = q, _forward_tail_certificate
        else:
            ratio, certificate = q / (1.0 - q), _reverse_tail_certificate
        truncation = n0 + 1
        while certificate(z, ratio, truncation) > tail_tol:
            truncation += 1
            if truncation > 100000:
                raise ValueError(f"tail_tol={tail_tol} is unreachable within 100000 terms")
    return NeumannPlan(complex(z), float(delta), float(r0), int(n0), int(truncation),
                       int(alpha0), int(beta0), direction, grid)


@dataclass(eq=False)
class Decomposition:
    """Built components of one direction plus its error certificates.

    tail_kernel is the frequency-side Field of the truncated terms.
    reconstruction_error is the grid sup of |built - target| and is bounded
    by certified_tail plus rounding whenever the construction is sound.
    """

    plan: NeumannPlan
    psi1: Symbol
    psi2: Symbol
    smooth_part: Symbol
    series_symbol: Symbol
    far_symbol: Symbol
    tail_kernel: Field
    target: Symbol
    certified_tail: float
    reconstruction_error: float
    contraction_sup: float = None


def _contraction_profile(z0, delta):
    """Radial rule r -> w = 1 - z0 (z0 - b)^(-1) = -b / (z0 - b), b = (1 - r^2)_+^delta."""
    base = ball_power_profile(delta)
    return lambda r: -base(r) / (z0 - base(r))


def _power_sum(x, first, last):
    """sum_{k=first}^{last} x^k, summed term by term."""
    term = acc = x**first
    for _ in range(first, last):
        term = term * x
        acc = acc + term
    return acc


def _series_terms(plan, ns, direction):
    """Yield (n, s_n), the unscaled series-term spectra on the plan's grid.

    forward: s_n = (1 - |xi|^2)_+^(n delta) psi2, for any indices n >= 1;
    reverse: s_n = w^n psi2 for the range ns, through w^n = w^(n-1) w.
    psi2 and the radius are sampled once; each s_n is a fresh array.
    """
    grid = plan.grid
    if not grid.covers_support(1.0):  # every s_n vanishes outside the unit ball
        raise ValueError(f"symbol support radius 1.0 exceeds the grid frequency "
                         f"window {grid.xi_max}")
    psi2 = cutoff_pair(plan.r0)[1].sample(grid)
    r = grid.xi_radius()
    if direction == "forward":
        base = np.clip(1.0 - r**2, 0.0, None)
        for n in ns:
            if n < 1:
                raise ValueError(f"series index must be >= 1, got {n}")
            yield n, base ** (n * plan.delta) * psi2
        return
    w = _contraction_profile(plan.z, plan.delta)(r)
    w_pow = w ** (ns[0] - 1)
    for n in ns:
        w_pow = w_pow * w
        yield n, w_pow * psi2


def _tail_kernel(plan, coefficient):
    """Spectrum of the tail kernel, sum_{n0 < n <= T} coefficient(n) s_n, as a Field."""
    ns = range(plan.n0 + 1, plan.truncation + 1)
    spectrum = sum(coefficient(n) * s_n for n, s_n in _series_terms(plan, ns, plan.direction))
    return Field.frequency(plan.grid, spectrum)


def _seminorm_rows(plan, ns, direction):
    """(n, seminorm of the kernel of s_n); each kernel is dropped after its row."""
    return [(int(n), schwartz_seminorm(inverse_transform(Field.frequency(plan.grid, s_n)),
                                       plan.alpha0, plan.beta0))
            for n, s_n in _series_terms(plan, ns, direction)]


def forward_decomposition(plan):
    """Split the resolvent symbol; certify what truncation discards.

    Components: m1 = (z - b)^(-1) psi1, the Neumann section m21, the kernel
    of the terms n0 < n <= T (kept as its spectrum), and the far field
    z^(-1)(1 - psi1 - psi2).
    The sum reproduces the resolvent symbol up to the certified tail.
    """
    if plan.direction != "forward":
        raise ValueError("plan direction must be forward")
    z, delta, grid = plan.z, plan.delta, plan.grid
    psi1, psi2 = cutoff_pair(plan.r0)
    target = resolvent_symbol(z, delta)
    smooth_part = target * psi1
    base = ball_power_profile(delta)
    # m21 = z^(-1) sum_{n=0}^{n0} (b/z)^n psi2
    series_symbol = radial_symbol(lambda r: _power_sum(base(r) / z, 0, plan.n0) / z,
                                  np.inf, "piecewise-smooth", (1.0,),
                                  label=f"neumann-section(n0={plan.n0})") * psi2
    far_symbol = Symbol(
        lambda c: (1.0 - psi1.evaluate(c) - psi2.evaluate(c)) / z,
        np.inf,
        "cinf-compact",
        label="far-field",
    )
    tail_kernel = _tail_kernel(plan, lambda n: z ** (-(n + 1)))

    certified = _forward_tail_certificate(z, plan.q, plan.truncation)
    built = (smooth_part.sample(grid) + series_symbol.sample(grid)
             + tail_kernel.samples + far_symbol.sample(grid))
    err = float(np.max(np.abs(built - target.sample(grid))))
    return Decomposition(plan, psi1, psi2, smooth_part, series_symbol, far_symbol,
                         tail_kernel, target, certified, err)


def _compose(dec, f, symbols, spectrum_of):
    """Composite of f: spectrum_of(F, *sampled symbols) on f's spectrum F.

    Each symbol is checked against the grid's window and sampled there.  A
    frequency-side f gets the composite's spectrum back with no transform; a
    spatial f is transformed once each way.
    """
    grid = f.grid
    if grid != dec.plan.grid:
        raise ValueError("field and decomposition live on different grids")
    for m in symbols:
        _check_window(m, grid)
    spatial = f.domain == "spatial"
    spec = (forward_transform(f) if spatial else f).samples
    out = Field.frequency(grid, spectrum_of(spec, *(m.sample(grid) for m in symbols)))
    return inverse_transform(out) if spatial else out


def apply_forward(dec, f):
    """Forward composite acting on f, a spatial field or a spectrum.

    Powers of the ball multiplier on psi2-localized data for the Neumann
    section, the tail kernel as a convolution, and the identity for the far
    field, mirroring how the decomposition is proved bounded.
    """
    z, n0 = dec.plan.z, dec.plan.n0
    tail = dec.tail_kernel.samples

    def spectrum_of(spec, psi1, psi2, smooth, ball):
        g = psi2 * spec
        acc = (1.0 / z) * g
        current = g
        for n in range(1, n0 + 1):
            current = ball * current
            acc = acc + z ** (-(n + 1)) * current
        far = (1.0 / z) * (spec - psi1 * spec - g)
        return smooth * spec + acc + tail * spec + far

    symbols = (dec.psi1, dec.psi2, dec.smooth_part, bochner_symbol(dec.plan.delta))
    return _compose(dec, f, symbols, spectrum_of)


def reverse_decomposition(plan):
    """Rebuild b * psi2 from resolvent powers; certify the discarded tail.

    The contraction w = 1 - z0 (z0 - b)^(-1) satisfies |w| <= q/(1-q) on
    supp psi2; the certificate uses the measured grid sup of |w| there.
    """
    if plan.direction != "reverse":
        raise ValueError("plan direction must be reverse")
    z0, delta, grid = plan.z, plan.delta, plan.grid
    psi1, psi2 = cutoff_pair(plan.r0)
    w = _contraction_profile(z0, delta)

    on_support = np.abs(psi2.sample(grid)) > 0
    w_grid = w(grid.xi_radius())
    contraction_sup = float(np.max(np.abs(w_grid[on_support]))) if on_support.any() else 0.0
    series_symbol = radial_symbol(lambda r: -z0 * _power_sum(w(r), 1, plan.n0),
                                  np.inf, "piecewise-smooth", (1.0,),
                                  label=f"reverse-section(n0={plan.n0})") * psi2
    tail_kernel = _tail_kernel(plan, lambda n: -z0)

    target = bochner_symbol(delta) * psi2
    certified = _reverse_tail_certificate(z0, contraction_sup, plan.truncation)
    built = series_symbol.sample(grid) + tail_kernel.samples
    err = float(np.max(np.abs(built - target.sample(grid))))
    return Decomposition(plan, psi1, psi2, None, series_symbol, None, tail_kernel,
                         target, certified, err, contraction_sup=contraction_sup)


def apply_reverse(dec, f):
    """Reverse composite acting on f, a spatial field or a spectrum:
    resolvent powers plus the tail kernel."""
    z0, n0 = dec.plan.z, dec.plan.n0
    tail = dec.tail_kernel.samples

    def spectrum_of(spec, psi2, res):
        acc = None
        current = psi2 * spec
        for _ in range(n0):
            current = current - z0 * (res * current)
            acc = current if acc is None else acc + current
        return (-z0) * acc + tail * spec

    symbols = (dec.psi2, resolvent_symbol(z0, dec.plan.delta))
    return _compose(dec, f, symbols, spectrum_of)


def kernel_sequence(plan, n):
    """Spatial kernel (a Field) of (1 - |xi|^2)_+^(n delta) psi2 and its seminorm."""
    [(_, s_n)] = _series_terms(plan, [n], "forward")
    k_n = inverse_transform(Field.frequency(plan.grid, s_n))
    return k_n, schwartz_seminorm(k_n, plan.alpha0, plan.beta0)


def seminorm_table(plan, n_values):
    """Seminorm of the kernel sequence at each requested index."""
    return _seminorm_rows(plan, n_values, "forward")


def tail_term_seminorms(plan):
    """Per-term kernel seminorms for the truncated range n0 < n <= T.

    Forward terms are the ball-power kernels; reverse terms use powers of
    the contraction symbol.
    """
    return _seminorm_rows(plan, range(plan.n0 + 1, plan.truncation + 1), plan.direction)


def decay_slope(table):
    """Least-squares slope of log seminorm against the series index."""
    ns = np.array([row[0] for row in table], dtype=float)
    vals = np.array([row[1] for row in table], dtype=float)
    return float(np.polyfit(ns, np.log(vals), 1)[0])


def tail_kernel_bound(plan):
    """Upper bound sum_{n > T} n^alpha0 (2 r0)^(n delta) |z|^(-n).

    Summed term by term; once the term ratio q ((n+1)/n)^alpha0 drops below
    one it only decreases, so the geometric remainder estimate it gives is a
    true bound and summation stops when that remainder is below 1e-15.
    """
    q = plan.q
    if not q < 1:
        raise ValueError("contraction ratio must be below 1")
    total = 0.0
    n = plan.truncation + 1
    while True:
        term = n**plan.alpha0 * q**n
        total += term
        ratio = q * ((n + 1.0) / n) ** plan.alpha0
        if ratio < 1.0 and term * ratio / (1.0 - ratio) < 1e-15:
            return total
        n += 1
        if n > plan.truncation + 100000:
            raise RuntimeError("tail bound summation failed to converge")
