"""Multiplier operators, convolution kernels, and Schwartz-type seminorms.

A symbol m acts on a spatial field as (m f_hat)^vee.  On the grid this is an
exact circular convolution, so `apply`, `kernel_of` and `convolve` agree to
rounding, and `dense_oracle` materializes the same operator as an explicit
circulant matrix for brute-force comparison on small grids.

`apply` and `convolve` also take a field's spectrum in place of the field, so
a caller that applies several operators to one field transforms it once.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

from .grid import Field, forward_transform, inverse_transform


@dataclass(eq=False)
class Kernel:
    """Spatial convolution kernel with a record of the symbol it came from."""

    grid: object
    samples: np.ndarray
    provenance: object = None

    def __post_init__(self):
        arr = np.ascontiguousarray(self.samples, dtype=np.complex128)
        if arr.shape != self.grid.shape:
            raise ValueError(
                f"kernel shape {arr.shape} does not match grid shape {self.grid.shape}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def symbol_samples(self):
        """Frequency-side values of the kernel (forward transform)."""
        return forward_transform(Field.spatial(self.grid, self.samples)).samples


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
    """Apply the multiplier with symbol m: inverse(m * forward(f)); f may be a spectrum."""
    _check_window(m, f.grid)
    return inverse_transform(Field.frequency(f.grid, m.sample(f.grid) * _spectrum(f)))


def kernel_of(m, grid):
    """Spatial kernel of a compactly supported symbol on the given grid."""
    if not np.isfinite(m.support_radius):
        raise ValueError("kernel extraction needs a compactly supported symbol")
    _check_window(m, grid)
    samp = inverse_transform(Field.frequency(grid, m.sample(grid))).samples
    return Kernel(grid, samp, provenance=m)


def convolve(kernel, f):
    """Periodic convolution K * f through the transform domain; f may be a spectrum."""
    if kernel.grid != f.grid:
        raise ValueError("kernel and field live on different grids")
    return inverse_transform(Field.frequency(f.grid, kernel.symbol_samples() * _spectrum(f)))


def multi_indices(dim, max_total):
    """All multi-indices in dim variables with total order <= max_total."""
    out = []
    for combo in product(range(max_total + 1), repeat=dim):
        if sum(combo) <= max_total:
            out.append(combo)
    return out


def _central_diff(arr, axis, spacing):
    return (np.roll(arr, -1, axis=axis) - np.roll(arr, 1, axis=axis)) / (2.0 * spacing)


def schwartz_seminorm(kernel, alpha0, beta0):
    """Sum over |alpha| <= alpha0, |beta| <= beta0 of sup |x^alpha D^beta K|.

    Derivatives are periodic central differences; weights use the grid
    coordinates.  Supported orders: beta0 <= 2 and alpha0 <= dim + 1.
    """
    grid = kernel.grid
    if not (isinstance(alpha0, (int, np.integer)) and isinstance(beta0, (int, np.integer))):
        raise ValueError("seminorm orders must be integers")
    if beta0 < 0 or beta0 > 2:
        raise ValueError(f"beta0 must lie in [0, 2], got {beta0}")
    if alpha0 < 0 or alpha0 > grid.dim + 1:
        raise ValueError(f"alpha0 must lie in [0, dim + 1], got {alpha0}")
    mesh = grid.x_mesh()
    total = 0.0
    for beta in multi_indices(grid.dim, beta0):
        deriv = kernel.samples
        for axis, order in enumerate(beta):
            for _ in range(order):
                deriv = _central_diff(deriv, axis, grid.h)
        for alpha in multi_indices(grid.dim, alpha0):
            weight = 1.0
            for axis, order in enumerate(alpha):
                if order:
                    weight = weight * mesh[axis] ** order
            total += float(np.max(np.abs(weight * deriv)))
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
