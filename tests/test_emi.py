import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (AngularDensity, ArrayLayout, NumericalError,
                     corr_directional, corr_isotropic,
                     emi_quadratic_form, los_channel, make_layout, psd_project, wave_vector)
from emilink.emi import (_leggauss, _mass, _weighted_grid, corr_matvec, directional_kernel,
                         gather, isotropic_kernel, plane_wave_form, plane_wave_lattice)
from conftest import gram_oracle, random_unit_diag_psd, run_concurrently

LAM = 0.1


def test_corr_isotropic_unit_diagonal():
    lay = make_layout(25, LAM)
    r = corr_isotropic(lay)
    assert_allclose(np.diag(r), 1.0, atol=1e-15)
    assert_allclose(r, r.T, atol=1e-15)
    # real, so the sweeps take corr_matvec's real-arithmetic products
    assert r.dtype == np.float64


def test_corr_isotropic_adjacent_zero():
    # neighbours sit half a wavelength apart: sinc(1) = 0
    lay = make_layout(16, LAM)
    r = corr_isotropic(lay)
    assert r[0, 1] == pytest.approx(0.0, abs=1e-15)


def test_corr_isotropic_diagonal_neighbour():
    # diagonal separation lambda/sqrt(2): sin(pi sqrt 2)/(pi sqrt 2)
    lay = make_layout(16, LAM)
    expected = math.sin(math.pi * math.sqrt(2)) / (math.pi * math.sqrt(2))
    assert r_entry_for_offset(lay, (0.0, LAM / 2, LAM / 2)) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(-0.2169, abs=2e-4)


def r_entry_for_offset(lay, offset):
    r = corr_isotropic(lay)
    target = np.asarray(offset)
    pos = lay.positions
    for n in range(lay.n_elements):
        for m in range(lay.n_elements):
            if np.allclose(pos[n] - pos[m], target, atol=1e-12):
                return r[n, m]
    raise AssertionError("offset not present in layout")


def test_corr_isotropic_matches_distance_oracle():
    # sinc(2 |u_n - u_m| / lambda) over the element positions, shifted off the
    # origin; the worst deviation seen was 1.4e-14, most of it the shift's round-off
    for n in (1, 7, 23, 75, 80, 400, 1225):
        lay = make_layout(n, LAM)
        pos = lay.positions + np.array([0.3, -1.2, 7.0])
        dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
        assert_allclose(corr_isotropic(lay), np.sinc(2.0 * dist / LAM), rtol=0, atol=3e-14)


def test_corr_directional_single_element():
    lay = make_layout(1, LAM)
    r = corr_directional(lay, AngularDensity.isotropic(), 64)
    assert_allclose(r, [[1.0]], atol=1e-15)


def test_corr_directional_matches_closed_form():
    # the quadrature convention is pinned by the sinc closed form
    lay = make_layout(25, LAM)
    r = corr_directional(lay, AngularDensity.isotropic(), nodes=64)
    assert np.abs(r - corr_isotropic(lay)).max() < 1e-3


def test_corr_directional_hermitian_unit_diagonal():
    lay = make_layout(12, LAM)
    dens = AngularDensity(0.4, -0.1, math.radians(10), math.radians(10))
    r = corr_directional(lay, density=dens, nodes=64)
    assert_allclose(r, r.conj().T, atol=1e-14)
    assert_allclose(np.diag(r), 1.0, atol=1e-14)


def test_corr_directional_narrow_gaussian_is_rank_one():
    # a 0.1 degree spread collapses onto the steering outer product
    lay = make_layout(36, LAM)
    az, el = 0.35, -0.15
    sig = math.radians(0.1)
    r = corr_directional(lay, density=AngularDensity(az, el, sig, sig), nodes=64)
    vals, vecs = np.linalg.eigh(r)
    assert vals[-1] >= 0.99 * lay.n_elements
    steering = los_channel(1.0, az, el, lay)
    overlap = abs(vecs[:, -1].conj() @ steering) / np.linalg.norm(steering)
    assert overlap > 0.999


def test_corr_directional_refinement_bound():
    # doubling the nodes again changes the matrix no more than the last
    # doubling did (criterion 1's refinement clause, for a gaussian density)
    lay = make_layout(16, LAM)
    dens = AngularDensity(-0.5, 0.2, math.radians(10), math.radians(10))
    r32, r64, r128 = (corr_directional(lay, density=dens, nodes=n) for n in (32, 64, 128))
    assert np.abs(r128 - r64).max() <= max(np.abs(r64 - r32).max(), 1e-12)


@pytest.mark.parametrize("n", [1, 7, 12, 23, 80, 400])
@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity(0.0, 0.0, math.radians(10), math.radians(10)),
    AngularDensity(0.6, -0.3, math.radians(8), math.radians(15)),
], ids=["isotropic", "gauss_broadside", "gauss_off_broadside"])
def test_corr_directional_matches_gram_oracle(n, density):
    lay = make_layout(n, LAM)
    r = corr_directional(lay, density=density, nodes=64)
    assert np.abs(r - gram_oracle(lay.positions, lay.wavelength, density)).max() <= 1e-12
    assert np.array_equal(r, r.conj().T)
    assert np.array_equal(np.diag(r), np.ones(n))


def test_corr_directional_unresolvable_density_raises():
    lay = make_layout(4, LAM)
    spiky = AngularDensity(0.0, 0.0, 1e-7, 1e-7)
    with pytest.raises(NumericalError):
        corr_directional(lay, density=spiky, nodes=3)


@pytest.mark.parametrize("n", [64, 128])
def test_stored_gauss_legendre_rules_hold_their_definition(n):
    # emi stores the sweeps' two rules rather than solving numpy's eigenproblem
    # for them; each must be a symmetric n-node Gauss rule, exact to degree
    # 2n - 1.  numpy's 128-node weights, which are stored, put 1.17e-14 on x^14
    # even when summed in long double (numpy tests leggauss to degree 100 only)
    x, w = _leggauss(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0)
    assert np.array_equal(x, -x[::-1]) and np.array_equal(w, w[::-1])
    for k in range(2 * n):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(np.sum(w * x ** k) - exact) <= {64: 1e-14, 128: 2e-14}[n], k
    # numpy's own rule, within 2 ulp (the same bits on the machine that stored it)
    x_np, w_np = np.polynomial.legendre.leggauss(n)
    assert np.all(np.abs(x - x_np) <= 2 * np.spacing(np.abs(x_np)))
    assert np.all(np.abs(w - w_np) <= 2 * np.spacing(w_np))
    # any other count is numpy's
    for got, want in zip(_leggauss(32), np.polynomial.legendre.leggauss(32)):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity(0.0, 0.0, math.radians(10), math.radians(10)),
    AngularDensity(1.3, -1.2, math.radians(10), math.radians(8)),
    AngularDensity(-0.4, 0.5, 0.6, 0.9),
], ids=["isotropic", "gauss_broadside", "gauss_clipped_on_one_side", "gauss_clipped_on_both"])
def test_mass_check_is_the_tensor_sum(density):
    # the node-doubling check takes the 128-node mass as a product of one-axis
    # sums; it must be the sum of the 128 x 128 weights up to round-off
    tensor = float(np.sum(_weighted_grid(density, 128)[2]))
    assert abs(_mass(density, 128) - tensor) <= 1e-14 * tensor


def test_psd_project_leaves_psd_untouched():
    rng = np.random.default_rng(5)
    m = random_unit_diag_psd(rng, 8)
    assert_allclose(psd_project(m), m, atol=1e-12)


def test_psd_project_clips_small_negative():
    m = np.diag([1.0, -1e-9])
    assert_allclose(psd_project(m), np.diag([1.0, 0.0]), atol=1e-15)


def test_psd_project_known_spectrum():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    q, _ = np.linalg.qr(a)
    spectrum = np.array([-2.0, -0.5, 0.0, 0.3, 1.0, 4.0])
    m = (q * spectrum) @ q.conj().T
    m = 0.5 * (m + m.conj().T)
    projected = psd_project(m)
    assert_allclose(np.linalg.eigvalsh(projected), np.maximum(spectrum, 0.0), atol=1e-12)
    worst = abs(spectrum.min())
    assert np.linalg.norm(projected - m) <= worst * math.sqrt(6) + 1e-12


def test_psd_project_rejects_non_hermitian():
    with pytest.raises(ValueError):
        psd_project(np.array([[1.0, 2.0], [0.0, 1.0]]))


def test_quadratic_form_identity():
    rng = np.random.default_rng(2)
    v = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    assert emi_quadratic_form(v, np.eye(6)) == pytest.approx(np.linalg.norm(v) ** 2)
    assert emi_quadratic_form(np.zeros(6), np.eye(6)) == 0.0


def test_quadratic_form_hand_value():
    r = np.array([[1.0, 0.5], [0.5, 1.0]])
    assert emi_quadratic_form(np.array([1.0, 1.0]), r) == pytest.approx(3.0)


def test_quadratic_form_matches_sqrt_factorization():
    rng = np.random.default_rng(4)
    for _ in range(20):
        r = random_unit_diag_psd(rng, 5)
        v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        vals, vecs = np.linalg.eigh(r)
        root = (vecs * np.sqrt(np.maximum(vals, 0.0))) @ vecs.conj().T
        expected = np.linalg.norm(v @ root) ** 2
        assert emi_quadratic_form(v, r) == pytest.approx(expected, rel=1e-10)
        assert emi_quadratic_form(v, r) >= 0.0


def test_quadratic_form_rejects_mismatch():
    with pytest.raises(ValueError):
        emi_quadratic_form(np.ones(3), np.eye(4))


def test_corr_matvec_real_matches_complex_product():
    # a real R takes one two-column product with x seen as (N, 2) floats, so a
    # strided or real x is first copied into a contiguous complex vector
    rng = np.random.default_rng(5)
    for n in (1, 75, 80, 400):
        r = corr_isotropic(make_layout(n, LAM))
        x = rng.standard_normal(2 * n) + 1j * rng.standard_normal(2 * n)
        for vec in (x[:n], x[::2], x[:n].real):
            assert_allclose(corr_matvec(r, vec), r.astype(complex) @ vec, rtol=0.0,
                            atol=1e-13 * np.abs(vec).sum())
    directional = corr_directional(make_layout(80, LAM), AngularDensity(
        0.6, -0.3, math.radians(10), math.radians(10)), nodes=64)
    x = rng.standard_normal(80) + 1j * rng.standard_normal(80)
    assert np.array_equal(corr_matvec(directional, x), directional @ x)


@pytest.mark.parametrize("n", [1, 7, 75, 400])
def test_quadratic_form_real_correlation_matches_complex_cast(n):
    rng = np.random.default_rng(n)
    r = corr_isotropic(make_layout(n, LAM))
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    expected = float(np.real(v @ r.astype(complex) @ v.conj()))
    assert emi_quadratic_form(v, r) == pytest.approx(expected, rel=1e-13)


def test_quadratic_form_complex_correlation_is_unchanged():
    # a directional (complex) R keeps the product v @ R @ conj(v) bit for bit
    rng = np.random.default_rng(6)
    density = AngularDensity(0.6, -0.3, math.radians(10), math.radians(10))
    for n in (7, 75):
        r = corr_directional(make_layout(n, LAM), density, nodes=64)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert emi_quadratic_form(v, r) == max(float(np.real(v @ r @ v.conj())), 0.0)


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quadratic_form_does_not_copy_a_real_correlation():
    # R @ complex would first copy R to complex: one N x N complex matrix, 2.56 MB
    n = 400
    r = corr_isotropic(make_layout(n, LAM))
    v = np.exp(1j * np.arange(n, dtype=float))
    assert _peak_bytes(emi_quadratic_form, v, r) < n * n * np.dtype(complex).itemsize
    assert _peak_bytes(corr_matvec, r, v) < n * n * np.dtype(complex).itemsize


def test_corr_isotropic_builds_no_distance_tensor():
    # the (N, N, 3) difference tensor alone would be 3 N^2 floats; the sinc is
    # taken per offset, so the peak is the result and the small offset lattice
    n = 400
    assert _peak_bytes(corr_isotropic, make_layout(n, LAM)) < 4 * n * n * 8


def test_corr_directional_allocates_little_beyond_its_result():
    # a correlation on a fresh layout allocates little beyond its result: the
    # kernel is taken per offset and gathered with no per-pair index
    n = 400
    dens = AngularDensity(0.6, -0.3, math.radians(10), math.radians(10))
    assert _peak_bytes(corr_directional, make_layout(n, LAM), dens, 64) < 1.5 * n * n * 16


def test_concurrent_corr_directional_gives_the_serial_bits():
    # Four threads build one density's correlations at once, each through its
    # own interleaved share of the 1 x M lines.  Each matrix must keep the bits
    # of a serial call.
    density = AngularDensity(0.3, -0.2, math.radians(10), math.radians(10))
    widths = range(31, 80)
    serial = {m: corr_directional(ArrayLayout(1, m, LAM), density, 64).tobytes()
              for m in widths}

    def job(share):
        return [(m, corr_directional(ArrayLayout(1, m, LAM), density, 64).tobytes())
                for m in share]

    shares = [widths[k::4] for k in range(4)]
    for _ in range(16):
        for results in run_concurrently([lambda s=s: job(s) for s in shares]):
            for m, corr in results:
                assert corr == serial[m], m


FIG8_LAYOUTS = [make_layout(m, LAM) for m in range(1, 81)] + [ArrayLayout(5, 15, LAM)]


@pytest.mark.parametrize("extent, layouts", [
    ((8, 79), FIG8_LAYOUTS),
    ((20, 79), [ArrayLayout(20, 20, LAM)]),
], ids=["fig8_relays_and_surface", "large_surface_20x20"])
@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity(0.6, -0.3, math.radians(10), math.radians(10)),
    AngularDensity(1.45, 0.2, math.radians(10), math.radians(10)),
    None,
], ids=["isotropic", "off_broadside_gaussian", "near_endfire_gaussian", "sinc"])
def test_gathered_kernel_equals_the_layouts_own_correlation(extent, layouts, density):
    # no kernel entry depends on the kernel's extent, so a figure may build one
    # kernel over its largest rows and columns and gather every array from it;
    # density None stands for the sinc, the closed form of the isotropic density
    envelope = ArrayLayout(*extent, LAM)
    if density is None:
        kernel, own = isotropic_kernel(envelope), corr_isotropic
    else:
        kernel = directional_kernel(density, 64, envelope)
        own = lambda lay: corr_directional(lay, density, 64)
    assert kernel.shape == (2 * extent[0] - 1, 2 * extent[1] - 1)
    for lay in layouts:
        assert gather(kernel, lay).tobytes() == own(lay).tobytes(), lay
    with pytest.raises(ValueError, match="does not span"):
        gather(kernel, ArrayLayout(extent[0] + 1, 1, LAM))


@pytest.mark.parametrize("extent, layouts", [
    ((8, 79), FIG8_LAYOUTS),
    ((20, 20), [ArrayLayout(20, 20, LAM)]),
], ids=["fig8_relays_and_surface", "large_surface_20x20"])
@pytest.mark.parametrize("lattice_of", [
    isotropic_kernel,
    lambda lay: directional_kernel(AngularDensity(0.0, 0.0, math.radians(10),
                                                  math.radians(10)), 64, lay),
], ids=["sinc", "broadside_gaussian"])
def test_plane_wave_form_is_the_dense_form(extent, layouts, lattice_of):
    # u^H R u summed over the offset lattice, against the dense form of the gathered
    # matrix, for the paper's source direction (whose case-2 forms cancel, down to
    # 0.17 at M = 61) and two others; worst seen 3.0e-13 relative.  No bit depends
    # on the extent of the kernel or of the wave's lattice.
    envelope = ArrayLayout(*extent, LAM)
    kernel = lattice_of(envelope)
    for lay in layouts:
        own = lattice_of(lay)
        for azimuth, elevation in ((-1.4056476493802699, 0.0), (0.6, -0.3), (0.0, 0.0)):
            wave = wave_vector(azimuth, elevation, LAM)
            form = plane_wave_form(kernel, lay, plane_wave_lattice(envelope, wave))
            assert form == plane_wave_form(own, lay, plane_wave_lattice(lay, wave)), lay
            u = np.exp(1j * (lay.positions @ wave))
            dense = emi_quadratic_form(u.conj(), gather(own, lay))
            assert abs(form - dense) <= 1e-12 * dense, (lay, azimuth, form, dense)


@pytest.mark.parametrize("n", [7, 23, 80, 400])
@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity(0.6, -0.3, math.radians(10), math.radians(10)),
], ids=["isotropic", "off_broadside_gaussian"])
def test_quadrature_correlation_is_psd_by_construction(n, density):
    lay = make_layout(n, LAM)
    r = corr_directional(lay, density=density, nodes=64)
    vals = np.linalg.eigvalsh(r)
    assert vals[0] >= -1e-13 * vals[-1]


@pytest.mark.parametrize("n", [7, 23, 80, 400, 1600])
def test_sinc_correlation_is_psd_as_built(n):
    # sin(kd)/(kd) is positive definite on R^3 (Bochner), so only round-off
    # can push an eigenvalue below zero: -3.1e-16 of the largest at n = 1600 with
    # one BLAS thread, -3.3e-16 with two
    vals = np.linalg.eigvalsh(corr_isotropic(make_layout(n, LAM)))
    assert vals[0] >= -1e-13 * vals[-1]


def test_density_validation():
    with pytest.raises(ValueError):
        AngularDensity(0.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        AngularDensity(0.0, 0.0, math.nan, math.nan)
    # a non-finite mean is named at construction, not met later as a quadrature failure
    with pytest.raises(ValueError, match="finite mean"):
        AngularDensity(math.nan, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match="finite mean"):
        AngularDensity(math.inf, 0.0, 0.1, 0.1)


@pytest.mark.parametrize("mean", [3.0, 10.0, -3.0])
def test_density_outside_the_half_space_is_rejected(mean):
    # its +-8 sigma window would clip to an empty interval and a negative mass
    with pytest.raises(ValueError, match=f"mean {mean!r}"):
        AngularDensity(mean, 0.0, 0.1, 0.1)
    with pytest.raises(ValueError, match=f"mean {mean!r}"):
        AngularDensity(0.0, mean, 0.1, 0.1)
    # a spread wide enough to reach the half-space keeps the density
    assert AngularDensity(mean, 0.0, abs(mean), 0.1).mean_azimuth == mean
