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

A Decomposition keeps only the spectra its composites read, each a
frequency-side Field on the plan's grid: fresh samples (`Symbol.fresh_sample`)
of the ball b, psi1 (forward only) and psi2, the tail kernel and the target.
The build checks psi2's support 1 + r0, the widest finite support of any
component, against the grid's frequency window, and rejects a truncation
past MAX_TERMS before it samples anything.
One private generator makes every series-term spectrum s_n: b^n psi2
forward, with b^n a fresh sample of the ball of exponent n delta, and
w^n psi2 reverse.  The tail kernel is kept as its spectrum sum c_n s_n;
each seminorm row inverse-transforms one s_n and drops its kernel afterwards.

apply_forward and apply_reverse compose the decomposition on the spectrum
from its arrays alone, sampling no symbol: spectrum in, spectrum out.  Given
a frequency Field they return the composite's spectrum and make no
transform; given a spatial Field they make one forward and one inverse
transform.

Each direction's series is written once, in its composite.  The build
applies that composite to the constant spectrum 1, the symbol the operator
multiplies by, and stores the grid sup of its distance to the target as
reconstruction_error next to the certified tail, so callers assert one
against the other on the code that runs.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Field, GridSpec, forward_transform, inverse_transform
from .multiplier import _check_window, schwartz_seminorm
from .symbols import bochner_symbol, cutoff_pair, dist_to_unit_interval

MAX_TERMS = 100000  # the longest series a plan's search, a build or a tail bound sums


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
        sup = 2.0 * choose_r0(self.z, self.delta)  # rejects z on [0, 1] and delta <= 0
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
    if not ratio < 1:
        raise ValueError(f"reverse contraction ratio {ratio} is not below 1")
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
    default_r0 = choose_r0(z, delta)  # rejects z on [0, 1] before q divides by |z|
    r0 = default_r0 if r0 is None else r0
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
            if truncation > MAX_TERMS:
                raise ValueError(f"tail_tol={tail_tol} is unreachable within {MAX_TERMS} terms")
    return NeumannPlan(complex(z), float(delta), float(r0), int(n0), int(truncation),
                       int(alpha0), int(beta0), direction, grid)


@dataclass(eq=False)
class Decomposition:
    """The spectra one direction's composite reads, plus its error certificates.

    Every part is a frequency-side Field on plan.grid; the reverse direction
    has no psi1 (None).  tail_kernel is the spectrum of the truncated terms
    and target the symbol the split rebuilds: (z - b)^(-1) forward, b psi2
    reverse.  reconstruction_error is the grid sup of |composite(1) - target|,
    composite(1) being the symbol the direction's apply multiplies by, and is
    bounded by certified_tail plus rounding whenever the construction is sound.
    """

    plan: NeumannPlan
    ball: Field
    psi1: Field
    psi2: Field
    tail_kernel: Field
    target: Field
    certified_tail: float
    reconstruction_error: float
    contraction_sup: float = None


def _built(spectrum_of, plan, samples, tail_kernel, certified, contraction_sup=None):
    """The Decomposition of the ball, psi1, psi2 and target samples (psi1 None in
    reverse), with reconstruction_error max |spectrum_of(dec, 1.0) - target|: the
    scalar 1.0 broadcasts through the composite, so no array of ones is made."""
    ball, psi1, psi2, target = (s if s is None else Field.frequency(plan.grid, s) for s in samples)
    dec = Decomposition(plan, ball, psi1, psi2, tail_kernel, target, certified, None,
                        contraction_sup)
    dec.reconstruction_error = float(np.max(np.abs(spectrum_of(dec, 1.0) - target.samples)))
    return dec


def _series_terms(plan, ns, psi2, w=None):
    """Yield (n, s_n), the unscaled series-term spectra on the plan's grid.

    psi2 and w are sample arrays on that grid.  Forward (w is None):
    s_n = (1 - |xi|^2)_+^(n delta) psi2, for any indices n >= 1, each ball
    power a fresh sample of the ball symbol, evaluated on the unit box only;
    reverse: s_n = w^n psi2 for the range ns, through w^n = w^(n-1) w.  Each
    s_n is a fresh array.
    """
    # every s_n vanishes outside the unit ball, the ball's support
    _check_window(bochner_symbol(plan.delta), plan.grid)
    if w is None:
        for n in ns:
            if n < 1:
                raise ValueError(f"series index must be >= 1, got {n}")
            yield n, bochner_symbol(n * plan.delta).fresh_sample(plan.grid) * psi2
        return
    w_pow = w ** (ns[0] - 1)
    for n in ns:
        w_pow = w_pow * w
        yield n, w_pow * psi2


def _tail_kernel(plan, coefficient, psi2, w=None):
    """Spectrum of the tail kernel, sum_{n0 < n <= T} coefficient(n) s_n, as a Field."""
    ns = range(plan.n0 + 1, plan.truncation + 1)
    spectrum = sum(coefficient(n) * s_n for n, s_n in _series_terms(plan, ns, psi2, w))
    return Field.frequency(plan.grid, spectrum)


def _contraction(z0, b):
    """w = 1 - z0 (z0 - b)^(-1) = -b / (z0 - b), the reverse series ratio."""
    return -b / (z0 - b)


def _seminorm_rows(plan, ns, psi2, w=None):
    """(n, seminorm of the kernel of s_n); each kernel is dropped after its row.

    psi2 and w are sample arrays on the plan's grid, as in _series_terms.
    Each s_n is a fresh array, so its kernel is inverted in place.
    """
    kernels = ((n, inverse_transform(Field.frequency(plan.grid, s_n), overwrite=True))
               for n, s_n in _series_terms(plan, ns, psi2, w))
    return [(int(n), schwartz_seminorm(k, plan.alpha0, plan.beta0)) for n, k in kernels]


def _samples(plan, direction):
    """The ball b and psi2 sampled on the grid of a plan for direction.

    A plan for another direction or a truncation past MAX_TERMS is a
    ValueError.  psi2's support 1 + r0 is the widest finite support of any
    component, so it alone is checked against the grid's frequency window.
    """
    if plan.direction != direction:
        raise ValueError(f"plan direction must be {direction}")
    if plan.truncation > MAX_TERMS:
        raise ValueError(f"truncation={plan.truncation} passes the {MAX_TERMS}-term bound "
                         "on a Neumann series")
    psi2 = cutoff_pair(plan.r0)[1]
    _check_window(psi2, plan.grid)
    return bochner_symbol(plan.delta).fresh_sample(plan.grid), psi2.fresh_sample(plan.grid)


def forward_decomposition(plan):
    """Split the resolvent symbol; certify what truncation discards.

    Components: m1 = (z - b)^(-1) psi1, the Neumann section
    m21 = z^(-1) sum_{n=0}^{n0} (b/z)^n psi2, the kernel of the terms
    n0 < n <= T (kept as its spectrum), and the far field
    z^(-1)(1 - psi1 - psi2).
    The sum reproduces the resolvent symbol up to the certified tail.
    """
    z = plan.z
    b, psi2 = _samples(plan, "forward")
    psi1 = cutoff_pair(plan.r0)[0].fresh_sample(plan.grid)
    tail_kernel = _tail_kernel(plan, lambda n: z ** (-(n + 1)), psi2)
    return _built(_forward_spectrum, plan, (b, psi1, psi2, 1.0 / (z - b)), tail_kernel,
                  _forward_tail_certificate(z, plan.q, plan.truncation))


def _compose(dec, f, spectrum_of):
    """Composite of f: spectrum_of(dec, F) on f's spectrum F.

    A frequency-side f gets the composite's spectrum back with no transform;
    a spatial f is transformed once each way, the inverse in place in the new
    array that spectrum_of returns.
    """
    grid = f.grid
    if grid != dec.plan.grid:
        raise ValueError("field and decomposition live on different grids")
    spatial = f.domain == "spatial"
    spec = (forward_transform(f) if spatial else f).samples
    out = Field.frequency(grid, spectrum_of(dec, spec))
    return inverse_transform(out, overwrite=True) if spatial else out


def _forward_spectrum(dec, spec):
    """The forward composite's spectrum on spec: m1 spec, the Neumann section
    as ball powers on psi2 spec, the tail kernel and the far field."""
    z, n0 = dec.plan.z, dec.plan.n0
    ball, psi1, psi2 = dec.ball.samples, dec.psi1.samples, dec.psi2.samples
    g = psi2 * spec
    acc = (1.0 / z) * g
    current = g
    for n in range(1, n0 + 1):
        current = ball * current
        acc = acc + z ** (-(n + 1)) * current
    far = (1.0 / z) * (spec - psi1 * spec - g)
    return dec.target.samples * psi1 * spec + acc + dec.tail_kernel.samples * spec + far


def apply_forward(dec, f):
    """Forward composite acting on f, a spatial field or a spectrum.

    Powers of the ball multiplier on psi2-localized data for the Neumann
    section, the tail kernel as a convolution, and the identity for the far
    field, mirroring how the decomposition is proved bounded.
    """
    return _compose(dec, f, _forward_spectrum)


def reverse_decomposition(plan):
    """Rebuild b * psi2 from resolvent powers; certify the discarded tail.

    The contraction w = 1 - z0 (z0 - b)^(-1) = -b / (z0 - b) satisfies
    |w| <= q/(1-q) on supp psi2; the certificate uses the measured grid sup
    of |w| there.
    """
    z0 = plan.z
    b, psi2 = _samples(plan, "reverse")
    w = _contraction(z0, b)
    contraction_sup = float(np.max(np.abs(w[psi2 != 0]), initial=0.0))  # on supp psi2
    tail_kernel = _tail_kernel(plan, lambda n: -z0, psi2, w)
    return _built(_reverse_spectrum, plan, (b, None, psi2, b * psi2), tail_kernel,
                  _reverse_tail_certificate(z0, contraction_sup, plan.truncation),
                  contraction_sup)


def _reverse_spectrum(dec, spec):
    """The reverse composite's spectrum on spec: -z0 times the resolvent
    powers sum_{n=1}^{n0} w^n on psi2 spec, plus the tail kernel."""
    z0 = dec.plan.z
    res = 1.0 / (z0 - dec.ball.samples)
    acc = None
    current = dec.psi2.samples * spec
    for _ in range(dec.plan.n0):
        current = current - z0 * (res * current)
        acc = current if acc is None else acc + current
    return (-z0) * acc + dec.tail_kernel.samples * spec


def apply_reverse(dec, f):
    """Reverse composite acting on f, a spatial field or a spectrum:
    resolvent powers plus the tail kernel."""
    return _compose(dec, f, _reverse_spectrum)


def seminorm_table(plan, n_values):
    """Seminorm of the kernel sequence at each requested index."""
    return _seminorm_rows(plan, n_values, cutoff_pair(plan.r0)[1].fresh_sample(plan.grid))


def tail_term_seminorms(dec):
    """Per-term kernel seminorms for a decomposition's truncated range n0 < n <= T.

    Forward terms are the ball-power kernels; reverse terms use powers of
    the contraction symbol.  Both come from the decomposition's own psi2 and
    ball samples, so no symbol is sampled again.
    """
    plan = dec.plan
    w = _contraction(plan.z, dec.ball.samples) if plan.direction == "reverse" else None
    return _seminorm_rows(plan, range(plan.n0 + 1, plan.truncation + 1), dec.psi2.samples, w)


def decay_slope(table):
    """Least-squares slope of log seminorm against the index; each must be positive, finite."""
    for n, value in table:
        if not 0 < value < np.inf:  # zero, as when it underflowed, has no log
            raise ValueError(f"seminorm at n={n} is {value}, not positive and finite")
    ns, vals = np.array(table, dtype=float).T
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
        if n > plan.truncation + MAX_TERMS:
            raise RuntimeError("tail bound summation failed to converge")
