"""Sampled functions on centered grids and the discrete Fourier transform pair.

The transform convention is

    f_hat(xi) = integral f(x) exp(-i x.xi) dx,
    f(x)      = (2 pi)^(-d) integral f_hat(xi) exp(i x.xi) dxi,

realized as Riemann sums on a uniform grid over [-L, L)^d.  Spatial samples
sit at x_j = (j - M/2) h with h = 2L/M, frequency samples at
xi_k = (k - M/2) dxi with dxi = pi/L, so h * dxi = 2 pi / M and the two
lattices are exactly dual: the forward map is h^d times the centered DFT and
the round trip is exact to rounding.

Every grid size is even, so centering is a swap of halves on every axis.
Each transform copies its input into one scratch array with the halves
swapped, transforms it in place and swaps it back through a temporary of
half (1D) or a quarter (2D) of the grid; it makes no other grid-sized array.
With overwrite=True (scipy.fft's overwrite_x) it skips the scratch array:
the halves of the input's own samples are swapped in place, transformed and
swapped back, and that array, bit for bit the same result, is returned.  The
caller must have made the array and must not use the input afterwards.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform centered grid on [-L, L)^d with its dual frequency lattice.

    dim        : spatial dimension, 1 or 2
    size       : points per axis M, even
    half_width : spatial half-width L
    """

    dim: int
    size: int
    half_width: float

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.dim}")
        if self.size < 2 or self.size % 2 != 0:
            raise ValueError(f"points per axis must be even and >= 2, got {self.size}")
        if not self.half_width > 0:
            raise ValueError(f"half-width must be positive, got {self.half_width}")

    @property
    def h(self):
        """Spatial spacing 2L/M."""
        return 2.0 * self.half_width / self.size

    @property
    def dxi(self):
        """Frequency spacing pi/L."""
        return np.pi / self.half_width

    @property
    def xi_max(self):
        """Frequency half-width pi M / (2 L)."""
        return np.pi * self.size / (2.0 * self.half_width)

    @property
    def shape(self):
        return (self.size,) * self.dim

    def x_axis(self):
        return (np.arange(self.size) - self.size // 2) * self.h

    def xi_axis(self):
        return (np.arange(self.size) - self.size // 2) * self.dxi

    def x_mesh(self):
        """Per-axis spatial coordinate arrays, broadcastable to `shape`."""
        return tuple(np.meshgrid(*([self.x_axis()] * self.dim), indexing="ij", sparse=True))

    def xi_mesh(self):
        """Per-axis frequency coordinate arrays, broadcastable to `shape`."""
        return tuple(np.meshgrid(*([self.xi_axis()] * self.dim), indexing="ij", sparse=True))

    def x_radius(self):
        return np.sqrt(sum(np.broadcast_to(c * c, self.shape) for c in self.x_mesh()))

    def xi_radius(self):
        return np.sqrt(sum(np.broadcast_to(c * c, self.shape) for c in self.xi_mesh()))

    def covers_support(self, radius):
        """Whether a symbol supported in |xi| <= radius fits in the window."""
        return (not np.isfinite(radius)) or radius <= self.xi_max + 1e-12


@dataclass(frozen=True)
class Field:
    """Immutable complex samples of a function on one side of the transform.

    `domain` is "spatial" or "frequency"; samples have shape grid.shape and
    are indexed by lattice point in ascending coordinate order.
    """

    grid: GridSpec
    domain: str
    samples: np.ndarray

    def __post_init__(self):
        if self.domain not in ("spatial", "frequency"):
            raise ValueError(f"unknown domain tag {self.domain!r}")
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"sample shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    @staticmethod
    def spatial(grid, samples):
        return Field(grid, "spatial", samples)

    @staticmethod
    def frequency(grid, samples):
        return Field(grid, "frequency", samples)

    def _check_compatible(self, other):
        if self.grid != other.grid:
            raise ValueError("fields live on different grids")
        if self.domain != other.domain:
            raise ValueError("fields live on different domains")

    def __add__(self, other):
        self._check_compatible(other)
        return Field(self.grid, self.domain, self.samples + other.samples)

    def __sub__(self, other):
        self._check_compatible(other)
        return Field(self.grid, self.domain, self.samples - other.samples)

    def __mul__(self, scalar):
        return Field(self.grid, self.domain, self.samples * scalar)

    __rmul__ = __mul__

    def __neg__(self):
        return Field(self.grid, self.domain, -self.samples)


def _half_blocks(shape):
    """Index of each half (1D) or quadrant (2D) of an array with even sides.

    Block i and block -1 - i trade places under fftshift, which equals
    ifftshift at even sizes.
    """
    half = shape[0] // 2
    return list(product((slice(None, half), slice(half, None)), repeat=len(shape)))


def _swap_halves(work, blocks, spare):
    """Swap block i with block -1 - i of work in place, through spare."""
    for a, b in zip(blocks[: len(blocks) // 2], reversed(blocks)):
        spare[...] = work[a]
        work[a] = work[b]
        work[b] = spare


def _centered(transform, samples, overwrite):
    """fftshift(transform(ifftshift(samples))) in one grid-sized array.

    Every grid size is even, so both shifts are the same swap of halves on
    every axis.  Without overwrite the input is copied into a scratch array
    already swapped; with it, samples itself is swapped in place and becomes
    the result.  Either way the array is transformed in place and swapped
    back through a temporary of one block, so a call holds that array plus
    half of one (1D) or a quarter of one (2D).
    """
    blocks = _half_blocks(samples.shape)
    spare = np.empty_like(samples[blocks[0]])
    if overwrite:
        work = samples
        work.setflags(write=True)
        _swap_halves(work, blocks, spare)
    else:
        work = np.empty_like(samples)
        for dst, src in zip(blocks, reversed(blocks)):
            work[dst] = samples[src]
    transform(work, out=work)
    _swap_halves(work, blocks, spare)
    return work


def forward_transform(f, overwrite=False):
    """Riemann-sum Fourier transform of a spatial field.

    Equals h^d times the centered DFT of the samples, which approximates
    integral f(x) exp(-i x.xi) dx at every lattice frequency.  The result is
    fftshift(fftn(ifftshift(samples))) * h^d bit for bit, computed in one
    scratch array, with a temporary of half (1D) or a quarter (2D) of it, and
    scaled in place; f is left unchanged.

    overwrite=True, as scipy.fft's overwrite_x, computes the same bits in f's
    own sample array and returns it as the result, so no scratch array is
    made.  Only a caller that made that array and gives f up may pass it:
    f holds the spectrum afterwards.
    """
    if f.domain != "spatial":
        raise ValueError("forward_transform expects a spatial field")
    g = f.grid
    spec = _centered(np.fft.fftn, f.samples, overwrite)
    spec *= g.h**g.dim
    return Field.frequency(g, spec)


def inverse_transform(big_f, overwrite=False):
    """Inverse of forward_transform, carrying the (2 pi)^(-d) normalization.

    Bit for bit fftshift(ifftn(ifftshift(samples))) / h^d, computed like
    forward_transform in one scratch array and a half or quarter temporary,
    or, with overwrite=True, in big_f's own sample array, on the same terms
    as forward_transform's.
    """
    if big_f.domain != "frequency":
        raise ValueError("inverse_transform expects a frequency field")
    g = big_f.grid
    # (2 pi)^(-d) dxi^d M^d collapses to h^(-d) because M h dxi = 2 pi.
    samp = _centered(np.fft.ifftn, big_f.samples, overwrite)
    samp /= g.h**g.dim
    return Field.spatial(g, samp)


def band_spectrum(grid, band, rng):
    """Frequency field of iid complex Gaussian coefficients on |xi| <= band, zero elsewhere.

    The coefficients fill the band's lattice cells in lattice order, all real
    parts drawn before all imaginary parts, so a seeded generator gives the
    same spectrum on every run.
    """
    if not band > 0:
        raise ValueError(f"band must be positive, got {band}")
    inside = grid.xi_radius() <= band
    count = int(np.count_nonzero(inside))
    spec = np.zeros(grid.shape, dtype=complex)
    spec[inside] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
    return Field.frequency(grid, spec)


def random_band_limited(grid, band, rng):
    """Spatial field whose spectrum is band_spectrum(grid, band, rng)."""
    return inverse_transform(band_spectrum(grid, band, rng), overwrite=True)


def _as_vector(xi0, dim):
    vec = np.atleast_1d(np.asarray(xi0, dtype=float))
    if vec.size == 1 and dim > 1:
        vec = np.concatenate([vec, np.zeros(dim - 1)])
    if vec.size != dim:
        raise ValueError(f"frequency vector has {vec.size} components, grid has {dim}")
    return vec


def modulate(f, xi0):
    """Multiply a spatial field by the plane wave exp(i x.xi0).

    When xi0 lies on the frequency lattice the spectrum shifts by a whole
    number of cells and the shift identity is exact; off-lattice xi0 is
    allowed but the shifted spectrum then straddles lattice cells.
    """
    if f.domain != "spatial":
        raise ValueError("modulate expects a spatial field")
    vec = _as_vector(xi0, f.grid.dim)
    phase = sum(c * v for c, v in zip(f.grid.x_mesh(), vec))
    return Field.spatial(f.grid, f.samples * np.exp(1j * phase))


def lattice_offset(grid, xi0):
    """Integer lattice cells corresponding to xi0, or None if off-lattice."""
    vec = _as_vector(xi0, grid.dim)
    cells = vec / grid.dxi
    rounded = np.rint(cells)
    if np.max(np.abs(cells - rounded)) > 1e-9:
        return None
    return tuple(int(k) for k in rounded)


def snap_to_lattice(grid, xi0):
    """Nearest frequency-lattice vector to xi0."""
    vec = _as_vector(xi0, grid.dim)
    return np.rint(vec / grid.dxi) * grid.dxi
