import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (ArrayLayout, LinkBudget, angles_between, dbm_to_watt,
                     los_channel, make_layout, pathloss_umi, watt_to_dbm, wave_vector)
from emilink.bench import Scenario, _facing_orientation
from emilink.emi import gather


def test_wave_vector_broadside():
    k = wave_vector(0.0, 0.0, 0.1)
    assert_allclose(k, [2 * math.pi / 0.1, 0.0, 0.0], atol=1e-12)


def test_wave_vector_axis_aligned():
    k = wave_vector(math.pi / 2, 0.0, 0.1)
    assert_allclose(k, [0.0, 2 * math.pi / 0.1, 0.0], atol=1e-12)


def test_wave_vector_components():
    k = wave_vector(math.pi / 4, math.pi / 6, 0.1)
    scale = 2 * math.pi / 0.1
    expected = [scale * math.cos(math.pi / 6) * math.cos(math.pi / 4),
                scale * math.cos(math.pi / 6) * math.sin(math.pi / 4),
                scale * math.sin(math.pi / 6)]
    assert_allclose(k, expected, rtol=1e-14)


def test_wave_vector_norm_invariant():
    rng = np.random.default_rng(7)
    for _ in range(50):
        az = rng.uniform(-math.pi, math.pi)
        el = rng.uniform(-math.pi / 2, math.pi / 2)
        lam = rng.uniform(0.01, 1.0)
        k = wave_vector(az, el, lam)
        assert_allclose(np.linalg.norm(k), 2 * math.pi / lam, rtol=1e-12)


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
    lay = ArrayLayout(3, 4, 0.2)
    assert lay.n_elements == 12
    # centroid at the origin, row-major ordering at half-wavelength pitch
    assert_allclose(lay.positions.mean(axis=0), [0, 0, 0], atol=1e-15)
    assert_allclose(lay.positions[1] - lay.positions[0], [0.0, 0.1, 0.0], atol=1e-15)
    assert_allclose(lay.positions[4] - lay.positions[0], [0.0, 0.0, 0.1], atol=1e-15)


@pytest.mark.parametrize("rows, cols", [(1, 5), (2, 3), (3, 23), (5, 15), (1, 1), (1, 7), (7, 1)])
def test_offset_index_matches_per_pair_index(rows, cols):
    lay = ArrayLayout(rows, cols, 0.1)
    # a lattice centred on offset (0, 0) and larger than the layout's offsets, whose
    # entries are their own flat indices: the gathered entry of elements n and m
    # (row-major, as the layout indexes them) names the lattice cell of their offset
    # (r_n - r_m, c_n - c_m)
    shape = (2 * rows + 1, 2 * cols + 3)
    cells = [(n // cols, n % cols) for n in range(rows * cols)]
    expected = [[(rn - rm + rows) * shape[1] + cn - cm + cols + 1
                 for rm, cm in cells] for rn, cn in cells]
    for dtype in (float, complex):
        lattice = np.arange(shape[0] * shape[1], dtype=dtype).reshape(shape)
        gathered = gather(lattice, lay)
        assert gathered.tolist() == expected
        # a new array, never a view of the lattice, whatever the layout's shape
        assert gathered.flags.c_contiguous and gathered.flags.writeable
        assert not np.shares_memory(gathered, lattice)


def test_make_layout_rejects_bad_args():
    with pytest.raises(ValueError):
        make_layout(0, 0.1)
    for rows, cols, wavelength in ((0, 4, 0.1), (3, 0, 0.1), (2.5, 2, 0.1), (3, 4, math.nan)):
        with pytest.raises(ValueError):
            ArrayLayout(rows, cols, wavelength)


def test_angles_between_identity_axis():
    az, el = angles_between((0, 0, 0), (1, 0, 0), np.eye(3))
    assert az == pytest.approx(0.0)
    assert el == pytest.approx(0.0)


def test_angles_between_pole_tiebreak():
    az, el = angles_between((0, 0, 0), (0, 0, 1), np.eye(3))
    assert el == pytest.approx(math.pi / 2)
    assert az == 0.0


def test_angles_between_roundtrip_default_orientation():
    origin = (60.0, 10.0, 0.0)
    target = (0.0, 0.0, 0.0)
    az, el = angles_between(origin, target, _facing_orientation(Scenario()))
    local = np.array([math.cos(el) * math.cos(az),
                      math.cos(el) * math.sin(az),
                      math.sin(el)])
    rebuilt = _facing_orientation(Scenario()) @ local
    expected = (np.array(target) - np.array(origin))
    expected /= np.linalg.norm(expected)
    assert_allclose(rebuilt, expected, atol=1e-12)


def test_angles_between_roundtrip_random():
    rng = np.random.default_rng(3)
    for _ in range(100):
        d = rng.standard_normal(3)
        d /= np.linalg.norm(d)
        if abs(d[2]) > 0.999:
            continue
        az, el = angles_between((0, 0, 0), d, _facing_orientation(Scenario()))
        local = np.array([math.cos(el) * math.cos(az),
                          math.cos(el) * math.sin(az),
                          math.sin(el)])
        assert_allclose(_facing_orientation(Scenario()) @ local, d, atol=1e-10)


def test_angles_between_rejects_coincident():
    with pytest.raises(ValueError):
        angles_between((1, 2, 3), (1, 2, 3), np.eye(3))


def test_los_channel_single_element():
    lay = make_layout(1, 0.1)
    ch = los_channel(4.0, 0.3, -0.2, lay)
    assert ch[0] == pytest.approx(2.0 + 0.0j)


def test_los_channel_unit_modulus():
    lay = make_layout(24, 0.1)
    ch = los_channel(2.5, 0.7, 0.1, lay)
    assert_allclose(np.abs(ch), math.sqrt(2.5), rtol=1e-12)
    assert np.linalg.norm(ch) ** 2 == pytest.approx(24 * 2.5)


def test_los_channel_two_element_phase():
    # two elements lambda/2 apart along y; azimuth pi/2 gives a phase step of
    # k^T (u_1 - u_0) = (2 pi / lambda)(lambda / 2) = pi between them
    lam = 0.1
    lay = ArrayLayout(1, 2, lam)
    ch = los_channel(1.0, math.pi / 2, 0.0, lay)
    step = np.angle(ch[1] / ch[0])
    assert abs(step) == pytest.approx(math.pi, abs=1e-12)


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
    assert dbm_to_watt(-94.0) == pytest.approx(3.981e-13, rel=1e-3)
    rng = np.random.default_rng(11)
    for x in rng.uniform(-120, 60, 50):
        assert watt_to_dbm(dbm_to_watt(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_link_budget_wavelength():
    assert LinkBudget().wavelength == pytest.approx(299792458.0 / 3e9, rel=1e-15)


def test_angles_between_rejects_nonfinite():
    # unchecked, a NaN would clamp silently to an elevation of -pi/2
    for origin, target in (((math.nan, 0.0, 0.0), (1.0, 0.0, 0.0)),
                           ((0.0, 0.0, 0.0), np.array([1.0, math.nan, 0.0])),
                           ((0.0, 0.0, 0.0), (math.inf, 0.0, 0.0))):
        with pytest.raises(ValueError, match="must be finite"):
            angles_between(origin, target, np.eye(3))
