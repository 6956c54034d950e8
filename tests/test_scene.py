import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (LinkBudget, Vec3, angles_between, db_to_linear, dbm_to_watt,
                     linear_to_db, los_channel, make_layout, pathloss_umi,
                     watt_to_dbm, wave_vector)
from emilink.scene import DEFAULT_ORIENTATION


def test_wave_vector_broadside():
    k = wave_vector(0.0, 0.0, 0.1)
    assert_allclose([k.x, k.y, k.z], [2 * math.pi / 0.1, 0.0, 0.0], atol=1e-12)


def test_wave_vector_axis_aligned():
    k = wave_vector(math.pi / 2, 0.0, 0.1)
    assert_allclose([k.x, k.y, k.z], [0.0, 2 * math.pi / 0.1, 0.0], atol=1e-12)


def test_wave_vector_components():
    k = wave_vector(math.pi / 4, math.pi / 6, 0.1)
    scale = 2 * math.pi / 0.1
    expected = [scale * math.cos(math.pi / 6) * math.cos(math.pi / 4),
                scale * math.cos(math.pi / 6) * math.sin(math.pi / 4),
                scale * math.sin(math.pi / 6)]
    assert_allclose([k.x, k.y, k.z], expected, rtol=1e-14)


def test_wave_vector_norm_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        az = rng.uniform(-math.pi, math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        lam = rng.uniform(0.01, 1.0)
        k = wave_vector(az, el, lam)
        assert_allclose(np.linalg.norm(k.as_array()), 2 * math.pi / lam, rtol=1e-12)


def test_wave_vector_rejects_bad_wavelength():
    with pytest.raises(ValueError):
        wave_vector(0.0, 0.0, 0.0)


def test_make_layout_perfect_square():
    lay = make_layout(100, 0.1)
    assert (lay.rows, lay.cols) == (10, 10)
    assert lay.spacing == pytest.approx(0.05)


def test_make_layout_nearest_square():
    # factor pairs of 75: 1x75, 3x25, 5x15 -> 5x15 minimizes cols - rows
    lay = make_layout(75, 0.1)
    assert (lay.rows, lay.cols) == (5, 15)
    lay50 = make_layout(50, 0.1)
    assert (lay50.rows, lay50.cols) == (5, 10)


def test_make_layout_single_element():
    lay = make_layout(1, 0.1)
    assert_allclose(lay.positions, [[0.0, 0.0, 0.0]], atol=1e-15)


def test_make_layout_grid_geometry():
    lay = make_layout(12, 0.2, rows_override=3)
    assert (lay.rows, lay.cols) == (3, 4)
    # centroid at the origin, row-major ordering at half-wavelength pitch
    assert_allclose(lay.positions.mean(axis=0), [0, 0, 0], atol=1e-15)
    assert_allclose(lay.positions[1] - lay.positions[0], [0.0, 0.1, 0.0], atol=1e-15)
    assert_allclose(lay.positions[4] - lay.positions[0], [0.0, 0.0, 0.1], atol=1e-15)


def test_make_layout_rejects_bad_args():
    with pytest.raises(ValueError):
        make_layout(0, 0.1)
    with pytest.raises(ValueError):
        make_layout(10, 0.1, rows_override=3)


def test_angles_between_identity_axis():
    az, el = angles_between(Vec3(0, 0, 0), Vec3(1, 0, 0), np.eye(3))
    assert az == pytest.approx(0.0)
    assert el == pytest.approx(0.0)


def test_angles_between_pole_tiebreak():
    az, el = angles_between(Vec3(0, 0, 0), Vec3(0, 0, 1), np.eye(3))
    assert el == pytest.approx(math.pi / 2)
    assert az == 0.0


def test_angles_between_roundtrip_default_orientation():
    origin = Vec3(60.0, 10.0, 0.0)
    target = Vec3(0.0, 0.0, 0.0)
    az, el = angles_between(origin, target)
    local = np.array([math.cos(el) * math.cos(az),
                      math.cos(el) * math.sin(az),
                      math.sin(el)])
    rebuilt = DEFAULT_ORIENTATION @ local
    expected = (target.as_array() - origin.as_array())
    expected /= np.linalg.norm(expected)
    assert_allclose(rebuilt, expected, atol=1e-12)


def test_angles_between_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        if abs(d[2]) > 0.999:
            continue
        az, el = angles_between(Vec3(0, 0, 0), Vec3(*d))
        local = np.array([math.cos(el) * math.cos(az),
                          math.cos(el) * math.sin(az),
                          math.sin(el)])
        assert_allclose(DEFAULT_ORIENTATION @ local, d, atol=1e-10)


def test_angles_between_rejects_coincident():
    with pytest.raises(ValueError):
        angles_between(Vec3(1, 2, 3), Vec3(1, 2, 3))


def test_los_channel_single_element():
    lay = make_layout(1, 0.1)
    ch = los_channel(4.0, 0.3, -0.2, lay)
    assert ch.coefficients[0] == pytest.approx(2.0 + 0.0j)


def test_los_channel_unit_modulus():
    lay = make_layout(24, 0.1)
    ch = los_channel(2.5, 0.7, 0.1, lay)
    assert_allclose(np.abs(ch.coefficients), math.sqrt(2.5), rtol=1e-12)
    assert np.linalg.norm(ch.coefficients) ** 2 == pytest.approx(24 * 2.5)


def test_los_channel_two_element_phase():
    # elements at the origin and lambda/2 along y; azimuth pi/2 gives
    # k^T u = (2 pi / lambda)(lambda / 2) = pi on the second element
    from emilink import ArrayLayout
    lam = 0.1
    lay = ArrayLayout(np.array([[0.0, 0.0, 0.0], [0.0, lam / 2, 0.0]]),
                      rows=1, cols=2, spacing=lam / 2, wavelength=lam,
                      orientation=np.eye(3))
    ch = los_channel(1.0, math.pi / 2, 0.0, lay)
    assert_allclose(np.angle(ch.coefficients), [0.0, math.pi], atol=1e-12)


@pytest.mark.parametrize("bad", [
    np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.05]]),      # a column where a row is declared
    np.array([[0.0, 0.05, 0.0], [0.0, 0.0, 0.0]]),      # columns out of order
    np.array([[0.0, 0.0, 0.0], [0.0, 0.06, 0.0]]),      # pitch differs from the spacing
    np.array([[0.0, 0.0, 0.0], [0.01, 0.05, 0.0]]),     # off the local y-z plane
    np.array([[0.0, 0.0, 0.0], [0.0, np.nan, 0.0]]),
])
def test_array_layout_rejects_non_grid_positions(bad):
    from emilink import ArrayLayout
    with pytest.raises(ValueError, match="row-major 1x2 grid"):
        ArrayLayout(bad, rows=1, cols=2, spacing=0.05, wavelength=0.1)


def test_array_layout_accepts_translated_grid():
    from emilink import ArrayLayout
    lay = make_layout(12, 0.1)
    moved = ArrayLayout(lay.positions + np.array([0.3, -1.2, 7.0]), lay.rows, lay.cols,
                        lay.spacing, lay.wavelength)
    assert moved.n_elements == 12


def test_los_channel_rejects_negative_gain():
    with pytest.raises(ValueError):
        los_channel(-1.0, 0.0, 0.0, make_layout(4, 0.1))


def test_pathloss_umi_reference_value(budget):
    # 22 log10(60) + 28 + 20 log10(3) = 76.66 dB, minus 5 dBi node gain
    pl_db = 22.0 * math.log10(60.0) + 28.0 + 20.0 * math.log10(3.0)
    expected = 10 ** (-(pl_db - 5.0) / 10.0)
    assert pathloss_umi(60.0, budget) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(6.82e-8, rel=1e-3)


def test_pathloss_umi_distance_slope(budget):
    ratio = pathloss_umi(100.0, budget) / pathloss_umi(10.0, budget)
    assert 10 * math.log10(ratio) == pytest.approx(-22.0, abs=1e-12)


def test_pathloss_umi_formula_constants():
    b = LinkBudget(carrier_frequency_ghz=1.0, gain_node_dbi=0.0, gain_endpoint_dbi=0.0)
    assert pathloss_umi(1.0, b) == pytest.approx(10 ** -2.8, rel=1e-12)


def test_pathloss_umi_monotone(budget):
    d = np.linspace(1.0, 500.0, 200)
    beta = np.array([pathloss_umi(x, budget) for x in d])
    assert np.all(np.diff(beta) < 0)
    assert np.all((beta > 0) & (beta < 1))


def test_pathloss_umi_rejects_below_validity(budget):
    with pytest.raises(ValueError):
        pathloss_umi(0.5, budget)


def test_unit_conversions():
    assert db_to_linear(0.0) == pytest.approx(1.0)
    assert db_to_linear(25.0) == pytest.approx(316.23, rel=1e-4)
    assert dbm_to_watt(-94.0) == pytest.approx(3.981e-13, rel=1e-3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-120, 60, 50):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)
        assert watt_to_dbm(dbm_to_watt(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_link_budget_wavelength():
    assert LinkBudget().wavelength == pytest.approx(299792458.0 / 3e9, rel=1e-15)


def test_vec3_rejects_nonfinite():
    with pytest.raises(ValueError):
        Vec3(math.nan, 0.0, 0.0)
