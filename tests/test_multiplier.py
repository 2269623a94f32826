import tracemalloc

import numpy as np
import pytest

from riesz.grid import Field, GridSpec, forward_transform, random_band_limited
from riesz.multiplier import (
    apply,
    convolve,
    dense_oracle,
    kernel_of,
    multi_indices,
    schwartz_seminorm,
)
from riesz.norms import lp_norm
from riesz.symbols import bochner_symbol, bump_phi0, cutoff_pair, resolvent_symbol, scalar_symbol


@pytest.fixture(scope="module")
def grid():
    return GridSpec(1, 512, 16.0)


@pytest.fixture(scope="module")
def rng():
    return np.random.default_rng(42)


def test_identity_symbol_is_identity(grid, rng):
    f = random_band_limited(grid, 3.0, rng)
    out = apply(scalar_symbol(1.0), f)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-12


def test_ball_symbol_annihilates_disjoint_spectrum(grid):
    # spectrum placed on-lattice beyond the ball
    spec = np.zeros(grid.shape, dtype=complex)
    xi = grid.xi_axis()
    spec[np.abs(xi) >= 1.2] = 1.0 + 0.5j
    from riesz.grid import inverse_transform

    f = inverse_transform(Field.frequency(grid, spec))
    out = apply(bochner_symbol(0.8), f)
    assert np.max(np.abs(out.samples)) < 1e-12


def test_ball_operator_is_l2_contraction(grid, rng):
    gaussian = Field.spatial(grid, np.exp(-grid.x_radius() ** 2 / 2.0))
    fields = [gaussian] + [random_band_limited(grid, 4.0, rng) for _ in range(5)]
    for f in fields:
        out = apply(bochner_symbol(1.0), f)
        assert lp_norm(out, 2) <= lp_norm(f, 2) * (1 + 1e-12)


def test_apply_rejects_support_beyond_window():
    g = GridSpec(1, 32, 64.0)  # xi_max = pi/4, too narrow for the unit ball
    f = Field.spatial(g, np.ones(g.shape))
    psi1, _ = cutoff_pair(0.25)
    with pytest.raises(ValueError):
        apply(psi1, f)
    with pytest.raises(ValueError):
        kernel_of(psi1, g)


def test_output_spectrum_confined_to_ball(grid, rng):
    f = random_band_limited(grid, 4.0, rng)
    out_spec = forward_transform(apply(bochner_symbol(1.0), f))
    outside = np.abs(grid.xi_axis()) > 1.0
    assert np.max(np.abs(out_spec.samples[outside])) < 1e-12


def test_multiplier_composition_commutes(grid, rng):
    f = random_band_limited(grid, 4.0, rng)
    m1 = bochner_symbol(1.0)
    m2 = resolvent_symbol(2.0, 1.0)
    lhs = apply(m1, apply(m2, f))
    rhs = apply(m1 * m2, f)
    assert np.max(np.abs(lhs.samples - rhs.samples)) < 1e-10
    sym = apply(m2, apply(m1, f))
    assert np.max(np.abs(lhs.samples - sym.samples)) < 1e-10


# -- kernels -----------------------------------------------------------------

def test_bump_kernel_real_even_peaked(grid):
    k = kernel_of(bump_phi0(0.5), grid)
    assert isinstance(k, Field) and k.domain == "spatial"
    assert np.max(np.abs(k.samples.imag)) < 1e-10
    vals = k.samples.real
    flipped = vals[1:][::-1]  # x -> -x on the centered lattice
    assert np.max(np.abs(vals[1:] - flipped)) < 1e-12
    assert np.argmax(np.abs(vals)) == grid.size // 2


def test_kernel_requires_compact_support(grid):
    with pytest.raises(ValueError):
        kernel_of(resolvent_symbol(2.0, 1.0), grid)


def test_convolution_matches_apply(grid, rng):
    psi1, psi2 = cutoff_pair(0.25)
    for sym in (bump_phi0(0.5), psi2, bochner_symbol(1.0)):
        k = kernel_of(sym, grid)
        f = random_band_limited(grid, 4.0, rng)
        direct = apply(sym, f)
        via_kernel = convolve(k, f)
        assert np.max(np.abs(direct.samples - via_kernel.samples)) < 1e-10


@pytest.mark.parametrize("g", [GridSpec(1, 512, 16.0), GridSpec(2, 64, 8.0)],
                         ids=["1d", "2d"])
def test_spectrum_input_matches_spatial_input(g):
    # a frequency-side field is its own spectrum: same samples, bit for bit
    f = random_band_limited(g, 1.5, np.random.default_rng(5))
    spec = forward_transform(f)
    sym = bochner_symbol(1.0)
    k = kernel_of(sym, g)
    assert np.array_equal(apply(sym, spec).samples, apply(sym, f).samples)
    assert np.array_equal(convolve(k, spec).samples, convolve(k, f).samples)
    # so is a kernel's
    assert np.array_equal(convolve(forward_transform(k), f).samples, convolve(k, f).samples)


def test_ball_kernel_quadratic_decay():
    # |K(x)| (1 + |x|)^2 stays bounded for the d = 1 unit-power ball symbol;
    # the bound is the grid max computed here, stable across window sizes
    values = []
    for size, half_width in ((2048, 64.0), (4096, 128.0)):
        g = GridSpec(1, size, half_width)
        k = kernel_of(bochner_symbol(1.0), g)
        weighted = np.abs(k.samples) * (1.0 + np.abs(g.x_axis())) ** 2
        values.append(weighted.max())
    assert values[0] == pytest.approx(values[1], rel=1e-3)
    assert values[0] < 1.4


def test_delta_kernel_is_convolution_identity(grid, rng):
    samples = np.zeros(grid.shape, dtype=complex)
    samples[grid.size // 2] = 1.0 / grid.h
    delta = Field.spatial(grid, samples)
    f = random_band_limited(grid, 4.0, rng)
    out = convolve(delta, f)
    assert np.max(np.abs(out.samples - f.samples)) < 1e-10


def test_convolution_commutes_with_translation(grid, rng):
    k = kernel_of(bump_phi0(0.5), grid)
    f = random_band_limited(grid, 4.0, rng)
    shifted_first = convolve(k, Field.spatial(grid, np.roll(f.samples, 1)))
    shifted_last = np.roll(convolve(k, f).samples, 1)
    assert np.max(np.abs(shifted_first.samples - shifted_last)) < 1e-12


def test_young_inequality(grid, rng):
    for _ in range(5):
        k = Field.spatial(grid, rng.standard_normal(grid.shape)
                          + 1j * rng.standard_normal(grid.shape))
        f = random_band_limited(grid, 4.0, rng)
        lhs = lp_norm(convolve(k, f), 1)
        rhs = lp_norm(k, 1) * lp_norm(f, 1)
        assert lhs <= rhs * (1 + 1e-12)


# -- seminorms ---------------------------------------------------------------

def test_multi_indices():
    assert multi_indices(1, 2) == [(0,), (1,), (2,)]
    assert set(multi_indices(2, 1)) == {(0, 0), (0, 1), (1, 0)}


def test_seminorm_gaussian_peak(grid):
    x = grid.x_axis()
    k = Field.spatial(grid, np.exp(-(x**2) / 2.0))
    assert schwartz_seminorm(k, 0, 0) == pytest.approx(1.0, abs=1e-10)


def test_seminorm_homogeneous_and_subadditive(grid, rng):
    k1 = kernel_of(bump_phi0(0.5), grid)
    noise = rng.standard_normal(grid.shape) * np.exp(-np.abs(grid.x_axis()))
    k2 = Field.spatial(grid, noise)
    s1 = schwartz_seminorm(k1, 2, 1)
    assert schwartz_seminorm(-2.5 * k1, 2, 1) == pytest.approx(2.5 * s1)
    both = k1 + k2
    assert schwartz_seminorm(both, 2, 1) <= s1 + schwartz_seminorm(k2, 2, 1) + 1e-12


def test_seminorm_order_validation(grid):
    k = kernel_of(bump_phi0(0.5), grid)
    with pytest.raises(ValueError):
        schwartz_seminorm(k, 1, 3)
    with pytest.raises(ValueError):
        schwartz_seminorm(k, 3, 0)
    with pytest.raises(ValueError, match="spatial"):
        schwartz_seminorm(forward_transform(k), 1, 0)


def test_seminorm_controls_convolution_norm(grid, rng):
    # discrete shadow of the kernel-seminorm bound: ||K * f||_p is at most
    # c_grid * seminorm(K, d + 1, 0) * ||f||_p with the quadrature constant
    # c_grid = sum (1 + |x|)^(-d-1) h^d
    c_grid = np.sum((1.0 + np.abs(grid.x_axis())) ** (-2.0)) * grid.h
    psi1, psi2 = cutoff_pair(0.25)
    for sym in (bump_phi0(0.5), psi2, bochner_symbol(2.0)):
        k = kernel_of(sym, grid)
        bound = c_grid * schwartz_seminorm(k, grid.dim + 1, 0)
        for p in (1.0, 2.0, 4.0):
            f = random_band_limited(grid, 4.0, rng)
            assert lp_norm(convolve(k, f), p) <= bound * lp_norm(f, p) * (1 + 1e-10)


def rolled_seminorm(kernel, alpha0, beta0):
    """schwartz_seminorm with np.roll differences and fresh arrays per term."""
    grid = kernel.grid
    mesh = grid.x_mesh()
    total = 0.0
    for beta in multi_indices(grid.dim, beta0):
        deriv = kernel.samples
        for axis, order in enumerate(beta):
            for _ in range(order):
                deriv = (np.roll(deriv, -1, axis=axis) - np.roll(deriv, 1, axis=axis)) / (
                    2.0 * grid.h
                )
        for alpha in multi_indices(grid.dim, alpha0):
            weight = 1.0
            for axis, order in enumerate(alpha):
                if order:
                    weight = weight * mesh[axis] ** order
            total += float(np.max(np.abs(weight * deriv)))
    return total


@pytest.mark.parametrize("dim,size", [(1, 2), (1, 6), (1, 512), (2, 2), (2, 6), (2, 64)])
def test_seminorm_equals_the_rolled_reference(dim, size, rng):
    g = GridSpec(dim, size, size / 4.0)  # xi_max = 2 pi covers the ball
    noise = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    for k in (kernel_of(bochner_symbol(1.0), g), Field.spatial(g, noise)):
        for alpha0 in range(dim + 2):
            for beta0 in range(3):
                assert schwartz_seminorm(k, alpha0, beta0) == rolled_seminorm(k, alpha0, beta0)


@pytest.mark.parametrize("domain", ["spatial", "frequency"])
def test_apply_holds_one_array_of_the_grid(domain):
    # the product is formed on the symbol's support box, written into f's
    # fresh spectrum (or one new array for a spectrum) and inverted in place:
    # that array and a quarter of one, with no full-grid symbol sample
    g = GridSpec(2, 512, 40.0)
    m = bochner_symbol(1.0)
    f = Field(g, domain, np.random.default_rng(25).standard_normal(g.shape) + 0j)
    tracemalloc.start()
    try:
        out = apply(m, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    spectrum = f.samples if domain == "frequency" else forward_transform(f).samples
    expected = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(m.fresh_sample(g) * spectrum)))
    assert out.samples.tobytes() == (expected / g.h**2).tobytes()
    assert peak <= 1.3 * 16 * g.size**2


def test_kernel_of_holds_one_array_of_the_grid():
    # a fresh sample of the symbol, inverted in place: that array and a quarter of one
    g = GridSpec(2, 512, 40.0)
    m = bochner_symbol(1.0)
    tracemalloc.start()
    try:
        kernel = kernel_of(m, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    expected = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(m.fresh_sample(g))))
    assert kernel.samples.tobytes() == (expected / g.h**2).tobytes()
    assert peak <= 1.3 * 16 * g.size**2


def test_seminorm_memory_is_bounded():
    # two complex buffers and a real one; the 2D weight is made in the real one
    g = GridSpec(2, 256, 40.0)
    k = kernel_of(bochner_symbol(1.0), g)
    tracemalloc.start()
    try:
        value = schwartz_seminorm(k, 3, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == rolled_seminorm(k, 3, 2)
    assert peak <= 3.02 * 16 * g.size**2


# -- dense oracle ------------------------------------------------------------

@pytest.fixture(scope="module")
def small_grid():
    return GridSpec(1, 128, 16.0)


def test_dense_oracle_identity(small_grid):
    matrix = dense_oracle(scalar_symbol(1.0), small_grid)
    assert np.max(np.abs(matrix - np.eye(small_grid.size))) < 1e-12


def test_dense_oracle_matches_apply(small_grid, rng):
    psi1, psi2 = cutoff_pair(0.25)
    for sym in (bochner_symbol(1.0), resolvent_symbol(2.0, 1.0), psi2):
        matrix = dense_oracle(sym, small_grid)
        for _ in range(3):
            f = random_band_limited(small_grid, 4.0, rng)
            direct = apply(sym, f).samples
            assert np.max(np.abs(matrix @ f.samples - direct)) < 1e-10


def test_dense_oracle_is_circulant(small_grid):
    matrix = dense_oracle(bochner_symbol(1.0), small_grid)
    rolled = np.roll(np.roll(matrix, 1, axis=0), 1, axis=1)
    assert np.max(np.abs(matrix - rolled)) < 1e-10


def test_dense_oracle_size_cap():
    with pytest.raises(ValueError):
        dense_oracle(scalar_symbol(1.0), GridSpec(1, 8192, 16.0))
    with pytest.raises(ValueError):
        dense_oracle(scalar_symbol(1.0), GridSpec(2, 128, 16.0))


def test_dense_oracle_matches_apply_2d():
    g = GridSpec(2, 16, 2.0)
    rng = np.random.default_rng(33)
    matrix = dense_oracle(bochner_symbol(1.0), g)
    for _ in range(3):
        f = random_band_limited(g, 2.0, rng)
        direct = apply(bochner_symbol(1.0), f).samples.ravel()
        assert np.max(np.abs(matrix @ f.samples.ravel() - direct)) < 1e-10


# -- two dimensions ----------------------------------------------------------

def test_apply_and_convolve_2d():
    g = GridSpec(2, 64, 8.0)
    rng = np.random.default_rng(21)
    f = random_band_limited(g, 1.5, rng)
    sym = bochner_symbol(1.0)
    direct = apply(sym, f)
    via_kernel = convolve(kernel_of(sym, g), f)
    assert np.max(np.abs(direct.samples - via_kernel.samples)) < 1e-10
    assert lp_norm(direct, 2) <= lp_norm(f, 2) * (1 + 1e-12)


def test_seminorm_2d_gaussian():
    g = GridSpec(2, 64, 8.0)
    r = g.x_radius()
    k = Field.spatial(g, np.exp(-(r**2) / 2.0))
    assert schwartz_seminorm(k, 0, 0) == pytest.approx(1.0, abs=1e-10)
    assert schwartz_seminorm(k, g.dim + 1, 0) > 1.0
