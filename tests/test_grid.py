import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from riesz.grid import (
    Field,
    GridSpec,
    band_spectrum,
    forward_transform,
    inverse_transform,
    lattice_offset,
    random_band_limited,
    snap_to_lattice,
)
from riesz.symbols import bump_phi0


def shifted_sample(symbol, xi0, grid):
    """symbol at xi - xi0 on grid's whole frequency lattice: a probe about
    xi0 built here, not by the package's sampler."""
    return symbol.evaluate(tuple(c - w for c, w in zip(grid.xi_mesh(), xi0)))


def gaussian_field(grid, width=1.0):
    r = grid.x_radius()
    return Field.spatial(grid, np.exp(-(r**2) / (2.0 * width**2)))


def test_spec_duality():
    g = GridSpec(1, 256, 10.0)
    assert g.h * g.dxi == pytest.approx(2.0 * np.pi / g.size, rel=1e-15)
    assert g.xi_max == pytest.approx(np.pi * g.size / (2 * g.half_width))


@pytest.mark.parametrize("dim,size,half_width", [(3, 64, 8.0), (1, 255, 8.0), (1, 64, 0.0), (1, 64, -2.0)])
def test_spec_validation(dim, size, half_width):
    with pytest.raises(ValueError):
        GridSpec(dim, size, half_width)


def test_field_shape_and_tag_validation():
    g = GridSpec(1, 64, 4.0)
    with pytest.raises(ValueError):
        Field.spatial(g, np.zeros(65))
    with pytest.raises(ValueError):
        Field(g, "fourier", np.zeros(64))


def test_gaussian_forward_closed_form():
    # hat(exp(-x^2/2)) = sqrt(2 pi) exp(-xi^2/2) under this convention
    g = GridSpec(1, 256, 10.0)
    spec = forward_transform(gaussian_field(g))
    xi = g.xi_axis()
    exact = np.sqrt(2.0 * np.pi) * np.exp(-(xi**2) / 2.0)
    assert np.max(np.abs(spec.samples - exact)) < 1e-8


def test_gaussian_inverse_closed_form():
    g = GridSpec(1, 256, 10.0)
    xi = g.xi_axis()
    spec = Field.frequency(g, np.sqrt(2.0 * np.pi) * np.exp(-(xi**2) / 2.0))
    back = inverse_transform(spec)
    x = g.x_axis()
    assert np.max(np.abs(back.samples - np.exp(-(x**2) / 2.0))) < 1e-8


@pytest.mark.parametrize("dim,size,half_width", [(1, 256, 10.0), (2, 64, 6.0)])
def test_round_trip(dim, size, half_width):
    g = GridSpec(dim, size, half_width)
    rng = np.random.default_rng(7)
    samples = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    f = Field.spatial(g, samples)
    back = inverse_transform(forward_transform(f))
    assert np.max(np.abs(back.samples - f.samples)) < 1e-12 * np.max(np.abs(f.samples))


@settings(max_examples=60, deadline=None)
@given(dim=st.sampled_from([1, 2]), half_size=st.integers(1, 32),
       half_width=st.floats(1e-3, 1e3), seed=st.integers(0, 2**32 - 1))
def test_round_trip_property(dim, half_size, half_width, seed):
    g = GridSpec(dim, 2 * half_size, half_width)
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    spec = forward_transform(Field.spatial(g, samples))
    assert spec.domain == "frequency" and spec.samples.shape == g.shape
    back = inverse_transform(spec)
    assert back.domain == "spatial"
    assert np.max(np.abs(back.samples - samples)) < 1e-12 * np.max(np.abs(samples))


def test_inverse_linearity():
    g = GridSpec(1, 128, 8.0)
    rng = np.random.default_rng(3)
    fa = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    fb = rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)
    a, b = 0.7 - 0.2j, -1.3 + 0.4j
    lhs = inverse_transform(Field.frequency(g, a * fa + b * fb)).samples
    rhs = a * inverse_transform(Field.frequency(g, fa)).samples \
        + b * inverse_transform(Field.frequency(g, fb)).samples
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_domain_tag_mismatch():
    g = GridSpec(1, 64, 4.0)
    f = gaussian_field(g)
    spec = forward_transform(f)
    with pytest.raises(ValueError):
        forward_transform(spec)
    with pytest.raises(ValueError):
        inverse_transform(f)


def test_modulation_shifts_spectrum_exactly():
    # on-lattice modulation rolls the spectrum by whole cells
    g = GridSpec(1, 256, 10.0)
    f = gaussian_field(g)
    k = 9
    shifted = forward_transform(Field.spatial(g, f.samples * np.exp(1j * k * g.dxi * g.x_axis())))
    rolled = np.roll(forward_transform(f).samples, k)
    assert np.max(np.abs(shifted.samples - rolled)) < 1e-12 * np.max(np.abs(rolled))


def test_modulated_gaussian_forward_closed_form():
    g = GridSpec(1, 256, 10.0)
    k = 14
    f = Field.spatial(g, gaussian_field(g).samples * np.exp(1j * k * g.dxi * g.x_axis()))
    spec = forward_transform(f)
    xi = g.xi_axis()
    exact = np.sqrt(2.0 * np.pi) * np.exp(-((xi - k * g.dxi) ** 2) / 2.0)
    assert np.max(np.abs(spec.samples - exact)) < 1e-8


@pytest.mark.parametrize("dim,size,half_width,band", [(1, 512, 16.0, 4.0), (2, 64, 8.0, 1.5)])
def test_parseval(dim, size, half_width, band):
    g = GridSpec(dim, size, half_width)
    f = random_band_limited(g, band, np.random.default_rng(5))
    spec = forward_transform(f)
    lhs = np.sum(np.abs(f.samples) ** 2) * g.h**g.dim
    rhs = np.sum(np.abs(spec.samples) ** 2) * (g.dxi / (2 * np.pi)) ** g.dim
    assert abs(lhs - rhs) < 1e-10 * lhs


def test_refinement_consistency():
    # doubling M at fixed L only refines the quadrature of a fixed smooth
    # compactly supported function, so shared frequencies barely move
    from riesz.symbols import BumpProfile

    prof = BumpProfile(2.0, 5.0)
    coarse = GridSpec(1, 1024, 16.0)
    fine = GridSpec(1, 2048, 16.0)
    vals = []
    for g in (coarse, fine):
        f = Field.spatial(g, prof(g.x_radius()))
        vals.append(forward_transform(f).samples)
    stride_lo = coarse.size // 2
    shared_in_fine = vals[1][fine.size // 2 - stride_lo : fine.size // 2 + stride_lo]
    assert np.max(np.abs(vals[0] - shared_in_fine)) < 1e-8


def test_lattice_snapping_helpers():
    g = GridSpec(1, 128, 8.0)
    assert lattice_offset(g, 3 * g.dxi) == (3,)
    assert lattice_offset(g, 3.5 * g.dxi) is None
    snapped = snap_to_lattice(g, 3.4 * g.dxi)
    assert snapped[0] == pytest.approx(3 * g.dxi)


def test_fields_are_immutable():
    g = GridSpec(1, 64, 4.0)
    f = gaussian_field(g)
    with pytest.raises(ValueError):
        f.samples[0] = 1.0


def test_window_helpers():
    g = GridSpec(1, 256, 16.0)  # xi_max = 8 pi
    assert g.covers_support(2.0)
    assert g.covers_support(np.inf)
    assert not g.covers_support(100.0)


def _row_patterns(x):
    """Samples x, all zeros, all -0.0 (not zero in every bit, so no row of it
    may be skipped), and in 2D the row patterns the first pass skips or
    keeps: zero rows at both ends, a block touching the first or the last
    row, and end rows of -0.0."""
    yield "dense", x
    yield "zero", np.zeros_like(x)
    yield "all -0.0", np.full_like(x, complex(-0.0, -0.0))
    if x.ndim == 1:
        return
    m = len(x)
    for name, rows in (("box", slice(m // 4, m - m // 4)), ("first", slice(None, m // 2 + 1)),
                       ("last", slice(m // 2 - 1, None))):
        y = np.zeros_like(x)
        y[rows, m // 4:m - m // 4] = x[rows, m // 4:m - m // 4]
        yield name, y
    y = np.zeros_like(x)
    y[0] = y[-1] = complex(-0.0, -0.0)
    yield "signed zero rows", y
    y = np.zeros_like(x)
    y[m // 4:m - m // 4] = x[m // 4:m - m // 4]
    y[0].real = -0.0
    yield "box under a signed zero row", y


@pytest.mark.parametrize("dim,size,half_width", [
    (1, 2, 1.0), (1, 6, 3.0), (1, 10, 4.0), (1, 1024, 12.0), (1, 40000, 64.0),
    (2, 2, 1.0), (2, 6, 3.0), (2, 10, 4.0), (2, 64, 8.0), (2, 200, 10.0), (2, 768, 24.0),
    (2, 1024, 32.0),
])
def test_transforms_match_the_shift_expression_bit_for_bit(dim, size, half_width):
    # sizes 2, 6 and 10 put one or an odd number of points in each half;
    # 1D 40000 and 2D 768 swap their halves in strips of 16384 points and
    # 42 rows, which divide neither a half (20000) nor a quadrant (384 rows);
    # 2D halves of 1, 3, 5 and 32 rows are below a transpose tile of 64,
    # 100 is not a multiple of one, and 384 and 512 are
    g = GridSpec(dim, size, half_width)
    rng = np.random.default_rng(21)
    for name, x in _row_patterns(rng.standard_normal(g.shape) + 1j * rng.standard_normal(g.shape)):
        f = Field.spatial(g, x)
        spec = Field.frequency(g, x)
        forward = np.fft.fftshift(np.fft.fftn(np.fft.ifftshift(x))) * g.h**g.dim
        # the inverse scales by multiplying by 1 / h^d: the bits of a division
        # by h^d except the sign of a zero component ("all -0.0" has some)
        inverse = np.fft.fftshift(np.fft.ifftn(np.fft.ifftshift(x))) * (1.0 / g.h**g.dim)
        assert forward_transform(f).samples.tobytes() == forward.tobytes(), name
        assert inverse_transform(spec).samples.tobytes() == inverse.tobytes(), name
        # the inputs are left as they were
        assert f.samples.tobytes() == x.tobytes() and spec.samples.tobytes() == x.tobytes()
        # overwrite gives the same bits in the input's own array
        for transform, make, expected in ((forward_transform, Field.spatial, forward),
                                          (inverse_transform, Field.frequency, inverse)):
            given = make(g, x.copy())
            out = transform(given, overwrite=True)
            assert out.samples is given.samples and not out.samples.flags.writeable
            assert out.samples.tobytes() == expected.tobytes(), (name, transform.__name__)


def test_a_2d_transform_passes_over_the_nonzero_rows_then_once_over_the_grid(
        monkeypatch, transforms):
    # a probe spectrum on 1024^2: the 1D pass along the last axis transforms
    # only the rows of its support box, in two blocks where the box crosses
    # the middle row, and the pass along the first axis is one call on the grid
    g = GridSpec(2, 1024, 128.0)
    half = g.size // 2
    lines = []
    for name in ("fft", "ifft"):
        original = getattr(np.fft, name)
        monkeypatch.setattr(np.fft, name,
                            lambda a, *r, _fn=original, **k: lines.append(np.shape(a))
                            or _fn(a, *r, **k))
    for xi0, blocks in (((0.0, 0.25), lambda rows: [half - rows[0], rows[-1] + 1 - half]),
                        ((0.5, 0.25), lambda rows: [rows.size])):
        del lines[:], transforms[:]
        spectrum = shifted_sample(bump_phi0(0.5).dilated(4), xi0, g)
        rows = np.flatnonzero(np.any(spectrum != 0, axis=1))
        assert 0 < rows.size == rows[-1] + 1 - rows[0] < g.size // 16
        f = inverse_transform(Field.frequency(g, spectrum), overwrite=True)
        assert lines == [(count, g.size) for count in blocks(rows)], xi0
        assert transforms == [g.shape]
        # a dense array has all its rows transformed
        del lines[:]
        forward_transform(f, overwrite=True)
        assert lines == [(half, g.size), (half, g.size)]
        assert transforms == [g.shape, g.shape]


@pytest.mark.parametrize("dim,size,bound", [
    (2, 256, 1.3), (1, 16384, 1.55), (2, 512, 1.07), (2, 1024, 1.07), (1, 2**17, 1.13),
])
def test_a_transform_holds_one_array_of_the_grid(dim, size, bound, traced_peak):
    # a transform works in one array it owns, a copy of the input or with
    # overwrite the input's own, and swaps its halves in place through a
    # spare strip of 2^14 points: a whole half of 16384 points, but 1/8 of
    # 2^17, and a whole quadrant of 256^2 but 1/16 of 512^2 and 1/64 of
    # 1024^2.  In 2D the passes along rows run in place and the transposes
    # go through a spare tile of 64^2 points.  Overwrite makes no copy, so
    # it holds the spare alone
    g = GridSpec(dim, size, 20.0)
    x = np.random.default_rng(22).standard_normal(g.shape) + 0j
    for overwrite, limit in ((False, bound), (True, bound - 1.0)):
        for transform, make in ((forward_transform, Field.spatial),
                                (inverse_transform, Field.frequency)):
            _, peak = traced_peak(transform, make(g, x.copy()), overwrite=overwrite)
            assert peak <= limit * x.nbytes, (transform.__name__, overwrite)


def test_transforms_make_no_roll_or_shift_call(monkeypatch):
    g = GridSpec(2, 16, 4.0)
    x = np.random.default_rng(24).standard_normal(g.shape) + 0j
    f, spec = Field.spatial(g, x), Field.frequency(g, x)

    def refuse(*args, **kwargs):
        raise AssertionError("the transform pair calls a full-array shift")

    with monkeypatch.context() as patch:
        for owner, name in ((np, "roll"), (np.fft, "fftshift"), (np.fft, "ifftshift")):
            patch.setattr(owner, name, refuse)
        forward_transform(f)
        inverse_transform(spec)
        forward_transform(Field.spatial(g, x.copy()), overwrite=True)
        inverse_transform(Field.frequency(g, x.copy()), overwrite=True)


def test_band_limited_field_is_the_inverse_of_its_band_spectrum():
    g = GridSpec(2, 64, 8.0)
    spec = band_spectrum(g, 2.0, np.random.default_rng(23))
    # its coefficients, rebuilt from a twin generator: all real parts, then all imaginary
    twin = np.random.default_rng(23)
    count = int(np.count_nonzero(g.xi_radius() <= 2.0))
    coeffs = twin.standard_normal(count) + 1j * twin.standard_normal(count)
    assert spec.domain == "frequency"
    assert np.count_nonzero(spec.samples) == coeffs.size
    assert np.array_equal(spec.samples[g.xi_radius() <= 2.0], coeffs)
    # random_band_limited draws the same coefficients from a twin generator
    field = random_band_limited(g, 2.0, np.random.default_rng(23))
    assert field.samples.tobytes() == inverse_transform(spec).samples.tobytes()
