"""Multiplier operators, convolution kernels, and Schwartz-type seminorms.

A symbol m acts on a spatial field as (m f_hat)^vee.  On the grid this is an
exact circular convolution, so `apply`, `kernel_of` and `convolve` agree to
rounding, and `dense_oracle` materializes the same operator as an explicit
circulant matrix for brute-force comparison on small grids.

A kernel is a `Field`.  `apply` and `convolve` take either side of the
transform for the field, and `convolve` for the kernel too, so a caller that
applies several operators to one field transforms it once, and a kernel kept
as its spectrum is never transformed at all.  Symbols are sampled fresh,
never from a cache, and `apply` forms its product on the symbol's support
box only, one row strip at a time (`Symbol._strips`), so a symbol's rule
never makes a grid-sized temporary, whatever its support.  `apply`,
`kernel_of` and `convolve` invert an array they made in place
(`inverse_transform(..., overwrite=True)`), so `apply` and `kernel_of` hold
one grid array plus strips: the symbol's row strip, and the transform's
spare strip while it is transformed.
"""

from itertools import product

import numpy as np

from .grid import Field, forward_transform, inverse_transform


def _check_window(m, grid):
    if not grid.covers_support(m.support_radius):
        raise ValueError(
            f"symbol support radius {m.support_radius} exceeds the grid frequency "
            f"window {grid.xi_max}"
        )


def _spectrum(f):
    """Spectrum samples of f: a frequency-side field is its own spectrum."""
    return (f if f.domain == "frequency" else forward_transform(f)).samples


def apply(m, f):
    """Apply the multiplier with symbol m: inverse(m * forward(f)); f may be a spectrum.

    The product is formed in f's fresh spectrum (a copy of a spectrum f):
    each row strip of m's support box is multiplied in as it is sampled,
    the rest is set to exact zeros, and the array is inverted in place.
    """
    _check_window(m, f.grid)
    off, strips = m._strips(f.grid)
    if f.domain == "frequency":
        spec = f.samples.copy()
    else:
        spec = forward_transform(f).samples
        spec.setflags(write=True)  # f's fresh spectrum, made by this call alone
    for index in off:
        spec[index] = 0.0
    for index, values in strips:
        values *= spec[index]
        spec[index] = values
        del values  # not held while the next strip is evaluated
    return inverse_transform(Field.frequency(f.grid, spec), overwrite=True)


def kernel_of(m, grid):
    """Kernel of a compactly supported symbol on the grid, as a spatial Field."""
    if not np.isfinite(m.support_radius):
        raise ValueError("kernel extraction needs a compactly supported symbol")
    _check_window(m, grid)
    return inverse_transform(Field.frequency(grid, m.fresh_sample(grid)), overwrite=True)


def convolve(kernel, f):
    """Periodic convolution K * f through the transform domain; K and f may be spectra."""
    if kernel.grid != f.grid:
        raise ValueError("kernel and field live on different grids")
    product = _spectrum(kernel) * _spectrum(f)
    return inverse_transform(Field.frequency(f.grid, product), overwrite=True)


def multi_indices(dim, max_total):
    """All multi-indices in dim variables with total order <= max_total."""
    out = []
    for combo in product(range(max_total + 1), repeat=dim):
        if sum(combo) <= max_total:
            out.append(combo)
    return out


def _central_diff(arr, axis, spacing, out):
    """Periodic central difference (arr[i + 1] - arr[i - 1]) / (2 spacing) along
    axis, written into out."""
    def along(lo, hi):
        index = [slice(None)] * arr.ndim
        index[axis] = slice(lo, hi)
        return tuple(index)

    np.subtract(arr[along(2, None)], arr[along(None, -2)], out=out[along(1, -1)])
    np.subtract(arr[along(1, 2)], arr[along(-1, None)], out=out[along(None, 1)])
    np.subtract(arr[along(0, 1)], arr[along(-2, -1)], out=out[along(-1, None)])
    out /= 2.0 * spacing
    return out


def schwartz_seminorm(kernel, alpha0, beta0):
    """Sum over |alpha| <= alpha0, |beta| <= beta0 of sup |x^alpha D^beta K|.

    Derivatives are periodic central differences; weights use the grid
    coordinates.  The kernel is a spatial Field.  Supported orders: beta0 <= 2
    and alpha0 <= dim + 1.  Each |x^alpha D^beta K| is written into buffers
    made once per call: two complex arrays, which hold a derivative and its
    weighted copy, and one real array for a 2D weight and then the modulus.
    """
    if kernel.domain != "spatial":
        raise ValueError("schwartz_seminorm expects a spatial kernel")
    grid = kernel.grid
    if not (isinstance(alpha0, (int, np.integer)) and isinstance(beta0, (int, np.integer))):
        raise ValueError("seminorm orders must be integers")
    if beta0 < 0 or beta0 > 2:
        raise ValueError(f"beta0 must lie in [0, 2], got {beta0}")
    if alpha0 < 0 or alpha0 > grid.dim + 1:
        raise ValueError(f"alpha0 must lie in [0, dim + 1], got {alpha0}")
    mesh = grid.x_mesh()
    buffers = (np.empty(grid.shape, complex), np.empty(grid.shape, complex))
    modulus = np.empty(grid.shape)
    total = 0.0
    def spare(deriv):
        return buffers[1] if deriv is buffers[0] else buffers[0]

    for beta in multi_indices(grid.dim, beta0):
        deriv = kernel.samples
        for axis, order in enumerate(beta):
            for _ in range(order):
                deriv = _central_diff(deriv, axis, grid.h, out=spare(deriv))
        weighted = spare(deriv)
        for alpha in multi_indices(grid.dim, alpha0):
            factors = [mesh[axis] ** order for axis, order in enumerate(alpha) if order]
            if len(factors) == 2:  # the one full-grid weight is made in the modulus buffer
                weight = np.multiply(*factors, out=modulus)
            else:
                weight = factors[0] if factors else 1.0
            np.multiply(weight, deriv, out=weighted)
            total += float(np.max(np.abs(weighted, out=modulus)))
    return total


def dense_oracle(m, grid):
    """Explicit matrix of the multiplier operator, column by column.

    A[:, j] is the operator applied to the j-th coordinate basis field
    (flattened in C order), so A @ f.ravel() reproduces apply(m, f) for
    every field on the grid.  Capped at size**dim <= 4096.
    """
    n = grid.size**grid.dim
    if n > 4096:
        raise ValueError(f"dense oracle capped at 4096 points, grid has {n}")
    matrix = np.empty((n, n), dtype=np.complex128)
    for j in range(n):
        basis = np.zeros(n, dtype=np.complex128)
        basis[j] = 1.0
        col = apply(m, Field.spatial(grid, basis.reshape(grid.shape)))
        matrix[:, j] = col.samples.ravel()
    return matrix
