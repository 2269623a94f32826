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
A transform works in one array it owns: the input's own sample array with
overwrite=True (scipy.fft's overwrite_x), a copy of it otherwise.  It swaps
that array's halves in place a strip of rows at a time through a spare of
one strip (_SAMPLE_STRIP_POINTS points), transforms it in place and swaps
it back.  In 1D the transform is one fftn call.  In 2D it runs fftn's two
1D passes on rows: fft along the last axis, skipping the rows at both ends
of the centered input that are zero in every bit (the swap before it skips
them too); an in-place transpose through a spare tile (_TRANSPOSE_TILE^2
points); the pass along the first axis as one contiguous fftn call along
the last axis; and one tiled pass that transposes back and swaps the halves
together.  Each line goes through the FFT it goes through in fftn, so the
bits are fftn's, and a transform holds one grid array plus a strip or a
tile and makes no other grid-sized array.  The inverse scales by
multiplying by 1 / h^d, which gives the bits of a division by h^d except
the sign of an exact zero component.  With overwrite=True that array, bit
for bit the same result, is returned: the caller must have made the input's
array and must not use the input afterwards.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

# Points in one row strip: symbols evaluate a support box, and the transforms
# swap their halves, this many points at a time (whole rows, at least one).
_SAMPLE_STRIP_POINTS = 2**14

# Side of the square tiles through which a 2D transform transposes its array.
_TRANSPOSE_TILE = 64


def _radius2(coords):
    """|x|^2 at per-axis coordinate arrays, summed in axis order (so a sub-box gets its bits)."""
    return sum(np.asarray(c, dtype=float) ** 2 for c in coords)


def _box_radius(axes):
    """|x| on the box of points whose coordinates run over the given per-axis arrays."""
    return np.sqrt(_radius2(np.meshgrid(*axes, indexing="ij", sparse=True)))


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
        if not (self.half_width > 0 and all(0 < s * s < np.inf for s in (self.h, self.dxi))):
            raise ValueError(f"half-width {self.half_width}: need L > 0, h^2 and dxi^2 in (0, inf)")

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
        return _box_radius([self.x_axis()] * self.dim)

    def xi_radius(self):
        return _box_radius([self.xi_axis()] * self.dim)

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


def _swap_halves(work, blocks, live=None):
    """Swap block i with block -1 - i of work in place.

    Each pair trades a strip of rows at a time, about _SAMPLE_STRIP_POINTS
    points, through one spare strip.  Only copies are made, so every bit is
    the same as a swap of whole blocks.  In 2D a strip of rows r trades with
    the rows r + m/2, and given live, a flag per row that is False only on
    rows of zeros, it skips the strips whose rows on both sides are zeros.
    """
    half = work.shape[0] // 2
    rows = min(half, max(1, _SAMPLE_STRIP_POINTS // half ** (work.ndim - 1)))
    spare = np.empty((rows,) + (half,) * (work.ndim - 1), work.dtype)
    for a, b in zip(blocks[: len(blocks) // 2], reversed(blocks)):
        block_a, block_b = work[a], work[b]
        for start in range(0, half, rows):
            if live is not None and not (live[start:start + rows].any()
                                         or live[half + start:half + start + rows].any()):
                continue
            strip = spare[: min(rows, half - start)]
            strip[...] = block_a[start:start + rows]
            block_a[start:start + rows] = block_b[start:start + rows]
            block_b[start:start + rows] = strip


def _zero_rows(rows):
    """How many leading rows of rows are zero in every bit (-0.0 is not).

    The first row is checked alone and the rest a strip of rows at a time,
    so the scan reads at most one strip past the rows it counts, and a row
    that is not zero ends it at once.
    """
    bits = rows.view(np.uint64)  # two words per complex point; rows may run backwards
    strip = max(1, _SAMPLE_STRIP_POINTS // bits.shape[1])
    count, step = 0, 1
    while count < len(bits):
        nonzero = bits[count:count + step].any(axis=1)
        if nonzero.any():
            return count + int(nonzero.argmax())
        count, step = count + step, strip
    return count


def _tiles(half):
    """Slices that cut each half of an axis at multiples of _TRANSPOSE_TILE."""
    return [slice(start + cut, start + min(cut + _TRANSPOSE_TILE, half))
            for start in (0, half) for cut in range(0, half, _TRANSPOSE_TILE)]


def _transpose(work, swap, live=None):
    """work[i, j] <- work[j, i] in place, or with swap, and h = m/2,
    work[i, j] <- work[(j + h) % m, (i + h) % m]: the transpose of work with
    its halves swapped.

    The map is its own inverse, so each tile trades places with one partner
    tile (itself on the diagonal it fixes), through one spare tile.  The
    tiles cut both halves alike, so a shift by h maps tiles onto tiles.
    Given live, a flag per row that is False only on rows of zeros, a tile
    and its partner that both lie in such rows are left as they are.
    """
    tiles = _tiles(work.shape[0] // 2)
    n = len(tiles)
    turn = n // 2 if swap else 0
    busy = [True] * n if live is None else [live[rows].any() for rows in tiles]
    spare = np.empty((_TRANSPOSE_TILE, _TRANSPOSE_TILE), work.dtype)
    for a, rows in enumerate(tiles):
        for b, cols in enumerate(tiles):
            partner = ((b + turn) % n, (a + turn) % n)
            if partner < (a, b) or not (busy[a] or busy[partner[0]]):
                continue  # traded from the partner's side, or zeros on both
            tile = spare[: rows.stop - rows.start, : cols.stop - cols.start]
            tile[...] = work[rows, cols]
            other = (tiles[partner[0]], tiles[partner[1]])
            if partner != (a, b):
                work[rows, cols] = work[other].T
            work[other] = tile.T


def _centered(samples, overwrite, inverse):
    """fftshift(fftn(ifftshift(samples))), or with ifftn, in one grid-sized array.

    The array is the one the transform owns: samples itself with overwrite,
    which becomes the result, or a copy of it.  Every grid size is even, so
    both shifts are the same swap of halves on every axis, made in place
    through a spare strip (_swap_halves).  In 1D the array is swapped,
    transformed in place and swapped back.

    In 2D fftn is a 1D pass along the last axis and then one along the first.
    Here the first pass runs fft (or ifft) in place on the rows, skipping
    the rows at both ends of the centered input that are zero in every bit
    (they transform to zeros); the swap before it and the transpose after it
    leave rows of zeros where they are.  The array is transposed in place a
    tile at a time, so the second pass is one contiguous fftn call along the
    last axis, and one more tiled pass transposes back and swaps the halves.
    Every line goes through the FFT that fftn gives it and the rest only
    moves values, so the bits are fftn's.  A call holds the array plus one
    strip or one tile.
    """
    transform = np.fft.ifftn if inverse else np.fft.fftn
    blocks = _half_blocks(samples.shape)
    work = samples if overwrite else samples.copy()
    work.setflags(write=True)
    if work.ndim == 1:
        _swap_halves(work, blocks)
        transform(work, out=work)
        _swap_halves(work, blocks)
        return work
    # the centered input's rows that are not zero in every bit: [first, stop)
    size, half = len(work), len(work) // 2
    first = _zero_rows(work)
    stop = size - _zero_rows(work[::-1]) if first < size else size
    # the same rows once the halves are swapped; a swap trades rows r and
    # r + half, so the swap may read the flags in either order
    live = np.zeros(size, bool)
    live[(np.arange(first, stop) + half) % size] = True
    _swap_halves(work, blocks, live)
    line = np.fft.ifft if inverse else np.fft.fft
    # centered rows [lo, hi) within one half are the work rows [lo, hi) moved by half
    for lo, hi in ((first, min(stop, half)), (max(first, half), stop)):
        if lo < hi:
            move = half if lo < half else -half
            rows = work[lo + move:hi + move]
            line(rows, out=rows)
    _transpose(work, False, live)
    transform(work, axes=(1,), out=work)
    _transpose(work, True)
    return work


def forward_transform(f, overwrite=False):
    """Riemann-sum Fourier transform of a spatial field.

    Equals h^d times the centered DFT of the samples, which approximates
    integral f(x) exp(-i x.xi) dx at every lattice frequency.  The result is
    fftshift(fftn(ifftshift(samples))) * h^d bit for bit, computed and scaled
    in place in one array the transform owns, plus a strip or, in 2D, a tile
    (see _centered: the 2D passes run on rows and skip the rows of zeros at
    both ends).  That array is a copy of f's samples, so f is left unchanged,
    or with overwrite=True (scipy.fft's overwrite_x) f's own sample array,
    which is returned as the result.  Only a caller that made that array and
    gives f up may pass it: f holds the spectrum afterwards.
    """
    if f.domain != "spatial":
        raise ValueError("forward_transform expects a spatial field")
    g = f.grid
    spec = _centered(f.samples, overwrite, inverse=False)
    spec *= g.h**g.dim
    return Field.frequency(g, spec)


def inverse_transform(big_f, overwrite=False):
    """Inverse of forward_transform, carrying the (2 pi)^(-d) normalization.

    Bit for bit fftshift(ifftn(ifftshift(samples))) * (1 / h^d), computed
    like forward_transform in one array it owns plus a strip or a tile: a
    copy of big_f's samples, or with overwrite=True big_f's own sample array,
    on the same terms as forward_transform's.  numpy divides a complex array
    by a real scalar by multiplying by its reciprocal, so this is the
    division's result too, except the sign of an exact zero component:
    (-0 + 1j) / c has real part +0, (-0 + 1j) * (1 / c) has -0.
    """
    if big_f.domain != "frequency":
        raise ValueError("inverse_transform expects a frequency field")
    g = big_f.grid
    # (2 pi)^(-d) dxi^d M^d collapses to h^(-d) because M h dxi = 2 pi.
    samp = _centered(big_f.samples, overwrite, inverse=True)
    samp *= 1.0 / g.h**g.dim
    return Field.spatial(g, samp)


def band_spectrum(grid, band, rng):
    """Frequency field of iid complex Gaussian coefficients on |xi| <= band, zero elsewhere.

    The coefficients fill the band's lattice cells in lattice order, all real
    parts drawn before all imaginary parts, so a seeded generator gives the
    same spectrum on every run.  The band is masked on its box only: the
    cells whose every coordinate is within band, where the radii are
    xi_radius()'s and their lattice order is the grid's.
    """
    if not band > 0:
        raise ValueError(f"band must be positive, got {band}")
    axis = grid.xi_axis()
    kept = np.flatnonzero(_box_radius([axis]) <= band)  # 0 is on the axis
    box = (slice(int(kept[0]), int(kept[-1]) + 1),) * grid.dim
    inside = _box_radius([axis[box[0]]] * grid.dim) <= band
    count = int(np.count_nonzero(inside))
    spec = np.zeros(grid.shape, dtype=complex)
    spec[box][inside] = rng.standard_normal(count) + 1j * rng.standard_normal(count)
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
