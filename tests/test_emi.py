import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (AngularDensity, EmiModel, NumericalError, build_emi_model,
                     corr_directional, corr_directional_error, corr_isotropic,
                     emi_quadratic_form, los_channel, make_layout, psd_project)
from conftest import random_unit_diag_psd

LAM = 0.1


def test_corr_isotropic_unit_diagonal():
    lay = make_layout(25, LAM)
    r = corr_isotropic(lay)
    assert_allclose(np.diag(r), 1.0, atol=1e-15)
    assert_allclose(r, r.T, atol=1e-15)


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


def test_corr_isotropic_translation_invariant():
    lay = make_layout(12, LAM)
    shifted = make_layout(12, LAM)
    object.__setattr__(shifted, "positions", lay.positions + np.array([0.3, -1.2, 7.0]))
    assert_allclose(corr_isotropic(lay), corr_isotropic(shifted), atol=1e-13)


def test_corr_directional_single_element():
    lay = make_layout(1, LAM)
    r = corr_directional(lay)
    assert_allclose(r, [[1.0]], atol=1e-15)


def test_corr_directional_matches_closed_form():
    # the quadrature convention is pinned by the sinc closed form
    lay = make_layout(25, LAM)
    r = corr_directional(lay, nodes=64)
    assert np.abs(r - corr_isotropic(lay)).max() < 1e-3


def test_corr_directional_hermitian_unit_diagonal():
    lay = make_layout(12, LAM)
    dens = AngularDensity.gaussian(0.4, -0.1, math.radians(10), math.radians(10))
    r = corr_directional(lay, density=dens)
    assert_allclose(r, r.conj().T, atol=1e-14)
    assert_allclose(np.diag(r), 1.0, atol=1e-14)


def test_corr_directional_narrow_gaussian_is_rank_one():
    # a 0.1 degree spread collapses onto the steering outer product
    lay = make_layout(36, LAM)
    az, el = 0.35, -0.15
    sig = math.radians(0.1)
    r = corr_directional(lay, density=AngularDensity.gaussian(az, el, sig, sig))
    vals, vecs = np.linalg.eigh(r)
    assert vals[-1] >= 0.99 * lay.n_elements
    steering = los_channel(1.0, az, el, lay).coefficients
    overlap = abs(vecs[:, -1].conj() @ steering) / np.linalg.norm(steering)
    assert overlap > 0.999


def test_corr_directional_refinement_bound():
    lay = make_layout(16, LAM)
    dens = AngularDensity.gaussian(-0.5, 0.2, math.radians(10), math.radians(10))
    r32, err_est = corr_directional_error(lay, density=dens, nodes=32)
    r64 = corr_directional(lay, density=dens, nodes=64)
    assert np.abs(r64 - r32).max() <= err_est + 1e-12


def gram_oracle(layout, density, nodes=64):
    """The quadrature as a Gram product S diag(w f / mass) S^H over every node.

    Builds its own density window, density values, tensor Gauss-Legendre
    rule and steering matrix from the element positions.
    """
    half = math.pi / 2
    if density.kind == "isotropic":
        window = (-half, half, -half, half)
    else:
        spread_a, spread_e = 8 * density.std_azimuth, 8 * density.std_elevation
        window = (max(-half, density.mean_azimuth - spread_a),
                  min(half, density.mean_azimuth + spread_a),
                  max(-half, density.mean_elevation - spread_e),
                  min(half, density.mean_elevation + spread_e))
    x, w = np.polynomial.legendre.leggauss(nodes)
    phi_lo, phi_hi, th_lo, th_hi = window
    phi = 0.5 * (phi_hi + phi_lo) + 0.5 * (phi_hi - phi_lo) * x
    th = 0.5 * (th_hi + th_lo) + 0.5 * (th_hi - th_lo) * x
    pp, tt = (a.ravel() for a in np.meshgrid(phi, th, indexing="ij"))
    weights = np.outer(0.5 * (phi_hi - phi_lo) * w, 0.5 * (th_hi - th_lo) * w).ravel()
    f = np.cos(tt)
    if density.kind == "gaussian":
        f = f * np.exp(-0.5 * ((pp - density.mean_azimuth) / density.std_azimuth) ** 2
                       - 0.5 * ((tt - density.mean_elevation) / density.std_elevation) ** 2)
    wf = weights * f / np.sum(weights * f)
    k = (2 * np.pi / layout.wavelength) * np.stack(
        [np.cos(tt) * np.cos(pp), np.cos(tt) * np.sin(pp), np.sin(tt)])
    steering = np.exp(1j * (layout.positions @ k))
    return (steering * wf) @ steering.conj().T


@pytest.mark.parametrize("n", [1, 7, 12, 23, 80, 400])
@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity.gaussian(0.0, 0.0, math.radians(10), math.radians(10)),
    AngularDensity.gaussian(0.6, -0.3, math.radians(8), math.radians(15)),
], ids=["isotropic", "gauss_broadside", "gauss_off_broadside"])
def test_corr_directional_matches_gram_oracle(n, density):
    lay = make_layout(n, LAM)
    r = corr_directional(lay, density=density)
    assert np.abs(r - gram_oracle(lay, density)).max() <= 1e-12
    assert np.array_equal(r, r.conj().T)
    assert np.array_equal(np.diag(r), np.ones(n))


def test_corr_directional_unresolvable_density_raises():
    lay = make_layout(4, LAM)
    spiky = AngularDensity.gaussian(0.0, 0.0, 1e-7, 1e-7)
    with pytest.raises(NumericalError):
        corr_directional(lay, density=spiky, nodes=3)


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


def test_build_emi_model_dispatch():
    lay = make_layout(9, LAM)
    iso = build_emi_model(lay, 1e-12, AngularDensity.isotropic())
    assert_allclose(iso.correlation, psd_project(corr_isotropic(lay)), atol=1e-14)
    dens = AngularDensity.gaussian(0.2, 0.0, math.radians(10), math.radians(10))
    gauss = build_emi_model(lay, 1e-12, dens, nodes=48)
    assert gauss.n_elements == 9
    assert np.linalg.eigvalsh(gauss.correlation)[0] >= -1e-12


@pytest.mark.parametrize("n", [7, 23, 80, 400])
@pytest.mark.parametrize("density", [
    AngularDensity.isotropic(),
    AngularDensity.gaussian(0.6, -0.3, math.radians(10), math.radians(10)),
], ids=["isotropic", "off_broadside_gaussian"])
def test_quadrature_correlation_is_psd_by_construction(n, density):
    lay = make_layout(n, LAM)
    r = corr_directional(lay, density=density)
    vals = np.linalg.eigvalsh(r)
    assert vals[0] >= -1e-13 * vals[-1]
    model = build_emi_model(lay, 1e-12, density)
    if density.kind == "isotropic":
        assert np.array_equal(model.correlation, psd_project(corr_isotropic(lay)))
    else:
        assert np.array_equal(model.correlation, r)


def test_density_validation():
    with pytest.raises(ValueError):
        AngularDensity("weird")
    with pytest.raises(ValueError):
        AngularDensity.gaussian(0.0, 0.0, 0.0, 0.1)
    with pytest.raises(ValueError):
        EmiModel(-1.0, AngularDensity.isotropic(), np.eye(2))
