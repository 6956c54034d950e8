import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

import emilink.irs
from emilink import (IrsLink, corr_isotropic,
                     irs_min_power_emi_aware, irs_power_and_rate, irs_rate,
                     irs_required_power, irs_sinr, irs_sinr_gradient, los_channel,
                     make_layout, phases_emi_aware, phases_noise_only)
from conftest import random_complex, random_unit_diag_psd

NOISE = 10.0 ** ((-94.0 - 30.0) / 10.0)


def random_link(rng, n, rho_db=10.0, correlated=True):
    h_sr = random_complex(rng, n, 1e-4)
    h_rd = random_complex(rng, n, 1e-3)
    corr = random_unit_diag_psd(rng, n) if correlated else np.eye(n)
    variance = 10 ** (rho_db / 10.0) * NOISE
    return IrsLink(h_sr, h_rd, variance, corr, NOISE)


def reference_link(n=75, d=60.0, rho_db=25.0):
    from emilink import Scenario, angles_between, pathloss_umi
    from emilink.bench import _facing_orientation
    sc = Scenario()
    lay = make_layout(n, sc.budget.wavelength)
    az_sr, el_sr = angles_between(sc.node_pos, sc.source_pos, _facing_orientation(sc))
    dest = np.array([d, 0.0, 0.0])
    az_rd, el_rd = angles_between(sc.node_pos, (d, 0.0, 0.0), _facing_orientation(sc))
    b_sr = pathloss_umi(float(np.linalg.norm(np.array(sc.node_pos))), sc.budget)
    b_rd = pathloss_umi(float(np.linalg.norm(dest - np.array(sc.node_pos))), sc.budget)
    h_sr = los_channel(b_sr, az_sr, el_sr, lay)
    h_rd = los_channel(b_rd, az_rd, el_rd, lay)
    variance = 10 ** (rho_db / 10.0) * NOISE
    return IrsLink(h_sr, h_rd, variance, corr_isotropic(lay), NOISE)


def grid_best_magnitude(h_sr, h_rd, steps=720):
    """Brute-force |h_rd^T Phi h_sr| maximum over a 2-d phase grid."""
    phases = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    a = h_sr * h_rd
    grid = np.abs(a[0] * np.exp(1j * phases)[:, None] + a[1] * np.exp(1j * phases)[None, :])
    return grid.max()


def test_phases_noise_only_real_positive_channels():
    lay = make_layout(4, 0.1)
    h = los_channel(1.0, 0.0, 0.0, lay)
    cfg = phases_noise_only(h, h)
    # broadside coefficients are already real positive at every element
    assert_allclose(np.minimum(cfg, 2 * np.pi - cfg), 0.0, atol=1e-12)


def test_phases_noise_only_coherent_gain():
    rng = np.random.default_rng(0)
    lay = make_layout(16, 0.1)
    h_sr = los_channel(4e-8, rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), lay)
    h_rd = los_channel(9e-7, rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), lay)
    cfg = phases_noise_only(h_sr, h_rd)
    cascade = np.sum(h_rd * np.exp(1j * cfg) * h_sr)
    assert cascade.imag == pytest.approx(0.0, abs=1e-20)
    assert abs(cascade) ** 2 == pytest.approx(16 ** 2 * 4e-8 * 9e-7, rel=1e-10)


def test_phases_noise_only_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        h_sr = random_complex(rng, 2)
        h_rd = random_complex(rng, 2)
        cfg = phases_noise_only(h_sr, h_rd)
        best = abs(np.sum(h_rd * np.exp(1j * cfg) * h_sr))
        grid = grid_best_magnitude(h_sr, h_rd)
        assert grid <= best + 1e-12
        assert best - grid <= 1e-4 * best


def test_phases_noise_only_rejects_zero_coefficient():
    bad = np.array([1.0 + 0j, 0.0 + 0j])
    with pytest.raises(ValueError):
        phases_noise_only(bad, bad)


def test_irs_sinr_zero_power():
    rng = np.random.default_rng(1)
    link = random_link(rng, 8)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    assert irs_sinr(0.0, link, cfg) == 0.0


def test_irs_sinr_no_emi_closed_form():
    link = reference_link(n=16, rho_db=25.0)
    quiet = IrsLink(link.h_sr, link.h_rd, 0.0, link.correlation, NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    expected = 0.01 * 16 ** 2 * np.abs(link.h_sr[0]) ** 2 * np.abs(link.h_rd[0]) ** 2 / NOISE
    assert irs_sinr(0.01, quiet, cfg) == pytest.approx(expected, rel=1e-12)


def test_irs_sinr_identity_correlation_denominator():
    rng = np.random.default_rng(3)
    n = 12
    link = random_link(rng, n, correlated=False)
    link = IrsLink(link.h_sr, link.h_rd, link.emi_variance, link.correlation, NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    cascade_sq = abs(np.sum(link.h_rd * np.exp(1j * cfg)
                            * link.h_sr)) ** 2
    norm_rd = np.linalg.norm(link.h_rd) ** 2
    expected = 0.5 * cascade_sq / (link.emi_variance * norm_rd + NOISE)
    assert irs_sinr(0.5, link, cfg) == pytest.approx(expected, rel=1e-12)


def test_irs_rate_values():
    rng = np.random.default_rng(4)
    link = random_link(rng, 6)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    p1 = irs_required_power(1.0, link, cfg)
    assert irs_sinr(p1, link, cfg) == pytest.approx(1.0, rel=1e-12)
    p6 = irs_required_power(6.0, link, cfg)
    assert irs_sinr(p6, link, cfg) == pytest.approx(63.0, rel=1e-12)


def test_required_power_round_trip():
    rng = np.random.default_rng(5)
    for _ in range(50):
        n = int(rng.integers(2, 24))
        link = random_link(rng, n, rho_db=rng.uniform(-10, 30))
        cfg = rng.uniform(0, 2 * np.pi, n)
        target = rng.uniform(0.5, 8.0)
        p = irs_required_power(target, link, cfg)
        assert irs_rate(p, link, cfg) == pytest.approx(target, rel=1e-10)


def test_required_power_no_emi_closed_form():
    link = reference_link(n=50, rho_db=0.0)
    quiet = IrsLink(link.h_sr, link.h_rd, 0.0, link.correlation, NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    expected = 63.0 * NOISE / (50 ** 2 * np.abs(link.h_sr[0]) ** 2 * np.abs(link.h_rd[0]) ** 2)
    assert irs_required_power(6.0, quiet, cfg) == pytest.approx(expected, rel=1e-12)


def test_required_power_array_gain_scaling():
    # doubling the element count quarters the no-EMI power (+6.02 dB)
    powers = {}
    for n in (50, 100):
        link = reference_link(n=n)
        quiet = IrsLink(link.h_sr, link.h_rd, 0.0, link.correlation, NOISE)
        cfg = phases_noise_only(link.h_sr, link.h_rd)
        powers[n] = irs_required_power(6.0, quiet, cfg)
    assert powers[50] / powers[100] == pytest.approx(4.0, rel=1e-12)


def test_required_power_monotone_in_rate_and_emi():
    rng = np.random.default_rng(6)
    link = random_link(rng, 10)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    rates = np.linspace(0.5, 8, 12)
    powers = [irs_required_power(r, link, cfg) for r in rates]
    assert np.all(np.diff(powers) > 0)
    stronger = IrsLink(link.h_sr, link.h_rd, 2 * link.emi_variance, link.correlation, NOISE)
    assert irs_required_power(4.0, stronger, cfg) > irs_required_power(4.0, link, cfg)


@pytest.mark.filterwarnings("error")
def test_required_power_infeasible_zero_channel():
    # the reflections cancel at phases 0, so no power reaches the rate: the power
    # is inf and the rate nan, values rather than an exception.  The gains are
    # numpy floats, so a division by zero would warn, an error here.
    h = np.array([1.0 + 0j, -1.0 + 0j])
    g = np.array([1.0 + 0j, 1.0 + 0j])
    link = IrsLink(h, g, 0.0, np.eye(2), NOISE)
    assert irs_required_power(6.0, link, np.zeros(2)) == math.inf
    power, rate = irs_power_and_rate(6.0, link, np.zeros(2))
    assert power == math.inf and math.isnan(rate)
    gain, denominator = np.float64(0.0), np.float64(NOISE)
    power, rate = emilink.irs.power_and_rate(6.0, gain, denominator)
    assert power == math.inf and math.isnan(rate)
    with pytest.raises(ValueError, match="target rate"):  # the rate is checked first
        emilink.irs.power_and_rate(0.0, gain, denominator)


def test_global_phase_offset_invariance():
    rng = np.random.default_rng(7)
    link = random_link(rng, 9)
    cfg = rng.uniform(0, 2 * np.pi, 9)
    shifted = cfg + 1.234
    assert irs_sinr(1e-3, link, shifted) == pytest.approx(irs_sinr(1e-3, link, cfg), rel=1e-12)


def test_cascade_bounded_by_coherent_gain():
    rng = np.random.default_rng(8)
    link = random_link(rng, 8)
    best = np.sum(np.abs(link.h_sr * link.h_rd))
    for _ in range(50):
        cfg = rng.uniform(0, 2 * np.pi, 8)
        cascade = abs(np.sum(link.h_rd * np.exp(1j * cfg)
                             * link.h_sr))
        assert cascade <= best + 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(9)
    link = random_link(rng, 16, rho_db=20.0)
    for _ in range(10):
        phases = rng.uniform(0, 2 * np.pi, 16)
        grad = irs_sinr_gradient(1e-3, link, phases)
        step = 1e-6
        fd = np.zeros(16)
        for i in range(16):
            delta = np.zeros(16)
            delta[i] = step
            fd[i] = (irs_sinr(1e-3, link, phases + delta)
                     - irs_sinr(1e-3, link, phases - delta)) / (2 * step)
        assert np.abs(grad - fd).max() <= 1e-4 * np.abs(fd).max()


def test_emi_aware_reduces_to_heuristic_without_emi():
    link = reference_link(n=25)
    quiet = IrsLink(link.h_sr, link.h_rd, 0.0, link.correlation, NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    tuned = phases_emi_aware(quiet, None)[0]
    assert irs_rate(0.01, quiet, tuned) == pytest.approx(irs_rate(0.01, quiet, heur), rel=1e-9)


def test_emi_aware_beats_heuristic_on_rank_one_emi():
    # interference steered exactly at the destination's direction can be
    # rejected almost entirely, unlike under the aligned heuristic
    link = reference_link(n=16)
    steering = link.h_rd / np.abs(link.h_rd[0])
    rank_one = np.outer(steering, steering.conj())
    spiked = IrsLink(link.h_sr, link.h_rd, link.emi_variance, rank_one, NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    power = irs_required_power(6.0, spiked, heur)
    tuned = phases_emi_aware(spiked, None)[0]
    assert irs_rate(power, spiked, tuned) > irs_rate(power, spiked, heur) + 1e-6


def test_emi_aware_matches_grid_oracle_n2():
    rng = np.random.default_rng(10)
    steps = 720
    phases = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    for _ in range(5):
        link = random_link(rng, 2, rho_db=10.0)
        tuned = phases_emi_aware(link, None)[0]
        achieved = irs_sinr(1e-3, link, tuned)
        a = link.h_sr * link.h_rd
        e1 = np.exp(1j * phases)[:, None]
        e2 = np.exp(1j * phases)[None, :]
        num = np.abs(a[0] * e1 + a[1] * e2) ** 2
        r = link.correlation
        v0 = link.h_rd[0] * e1
        v1 = link.h_rd[1] * e2
        quad = (np.abs(v0) ** 2 * r[0, 0].real + np.abs(v1) ** 2 * r[1, 1].real
                + 2 * np.real(v0 * r[0, 1] * np.conj(v1)))
        grid_best = (1e-3 * num / (link.emi_variance * quad + NOISE)).max()
        assert achieved >= grid_best - 1e-4 * grid_best


def test_emi_aware_never_worse_than_init():
    rng = np.random.default_rng(11)
    for _ in range(10):
        link = random_link(rng, 8, rho_db=25.0)
        heur = phases_noise_only(link.h_sr, link.h_rd)
        tuned = phases_emi_aware(link, None)[0]
        assert (irs_sinr(1e-3, link, tuned)
                >= irs_sinr(1e-3, link, heur) * (1 - 1e-12))


def test_emi_aware_iteration_limit_warns(monkeypatch):
    rng = np.random.default_rng(12)
    link = random_link(rng, 8, rho_db=25.0)
    monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", 1)
    monkeypatch.setattr(emilink.irs, "MM_TOL", 0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phases_emi_aware(link, None)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_min_power_no_emi_equals_heuristic_power():
    link = reference_link(n=25)
    quiet = IrsLink(link.h_sr, link.h_rd, 0.0, link.correlation, NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    direct = irs_required_power(6.0, quiet, heur)
    power, _, _, _, converged = irs_min_power_emi_aware(6.0, quiet, None)
    assert power == pytest.approx(direct, rel=1e-9)
    assert converged


def test_min_power_never_exceeds_heuristic():
    link = reference_link(n=75, rho_db=25.0)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    p_heur = irs_required_power(6.0, link, heur)
    power, _, phases, _, _ = irs_min_power_emi_aware(6.0, link, None)
    assert power <= p_heur
    assert irs_rate(power, link, phases) == pytest.approx(6.0, rel=1e-9)


def test_min_power_strict_improvement_on_rank_one():
    # at 45 dB interference-to-noise the rank-one term dominates the
    # denominator, so rejecting it buys a substantial power saving
    link = reference_link(n=16, rho_db=45.0)
    steering = link.h_rd / np.abs(link.h_rd[0])
    spiked = IrsLink(link.h_sr, link.h_rd, link.emi_variance,
                     np.outer(steering, steering.conj()), NOISE)
    heur_power = irs_required_power(6.0, spiked,
                                    phases_noise_only(link.h_sr, link.h_rd))
    power = irs_min_power_emi_aware(6.0, spiked, None)[0]
    assert power < heur_power * 0.99
    link25 = reference_link(n=16, rho_db=25.0)
    spiked25 = IrsLink(link25.h_sr, link25.h_rd, link25.emi_variance,
                       np.outer(steering, steering.conj()), NOISE)
    heur25 = irs_required_power(6.0, spiked25,
                                phases_noise_only(link25.h_sr, link25.h_rd))
    assert irs_min_power_emi_aware(6.0, spiked25, None)[0] < heur25 * (1 - 1e-7)


def relaxation_bound_power(target, link):
    """(2^R - 1) / a^H B^-1 a: the required power with unit modulus relaxed to |z|^2 = N."""
    d = link.h_rd
    a = link.h_sr * d
    b = (link.emi_variance * d[:, None] * link.correlation * d.conj()[None, :]
         + link.noise_power_w / d.size * np.eye(d.size))
    return (2.0 ** target - 1.0) / np.real(a.conj() @ np.linalg.solve(b, a))


@pytest.mark.parametrize("n", [16, 75])
@pytest.mark.parametrize("rho_db", [-10.0, 10.0, 25.0, 40.0])
def test_min_power_between_relaxation_bound_and_heuristic(n, rho_db):
    link = reference_link(n=n, rho_db=rho_db)
    p_heur = irs_required_power(6.0, link, phases_noise_only(link.h_sr, link.h_rd))
    power = irs_min_power_emi_aware(6.0, link, None)[0]
    assert relaxation_bound_power(6.0, link) * (1 - 1e-9) <= power <= p_heur


def plain_mm_phases(link, phases, tol=1e-12, max_iters=10_000):
    """The MM step of phases_emi_aware's docstring without extrapolation, from
    ``phases``: lam doubles on a rejected step, and it stops when a step
    changes g by at most ``tol`` (relative)."""
    d = link.h_rd
    a = link.h_sr * d
    floor = link.noise_power_w / d.size

    def gain(z):
        bz = link.emi_variance * d * (link.correlation @ (d.conj() * z)) + floor * z
        return abs(np.vdot(a, z)) ** 2 / np.vdot(z, bz).real, bz

    z = np.exp(-1j * np.asarray(phases))
    g, bz = gain(z)
    lam = np.vdot(z, bz).real / d.size
    for _ in range(max_iters):
        candidate = np.exp(1j * np.angle(a * np.vdot(a, z) + g * (lam * z - bz)))
        g_new, b_candidate = gain(candidate)
        done = abs(g_new - g) <= tol * g
        if g_new > g:
            z, bz, g = candidate, b_candidate, g_new
        else:
            lam *= 2.0
        if done:
            return -np.angle(z)
    raise AssertionError("plain MM did not converge")


@pytest.mark.parametrize("n, rho_db, worst_gap_db", [
    (16, 38.0, 1e-9), (16, 40.0, 1e-9), (75, 38.0, 0.002), (75, 40.0, 0.04)])
def test_emi_aware_gap_to_the_best_of_64_starts(n, rho_db, worst_gap_db):
    """How far the optimizer's g lies below the best stationary point found by
    plain MM from 64 random phase vectors.  Seen: under 1e-10 dB on 16
    elements, 0.0014 dB (38 dB) and 0.0325 dB (40 dB) on 75.  From the
    noise-only start, plain MM reaches the optimizer's g, so the gap is
    another stationary point, not early stopping."""
    link = reference_link(n=n, rho_db=rho_db)
    rng = np.random.default_rng(0)
    best = max(irs_sinr(1.0, link, plain_mm_phases(link, rng.uniform(0.0, 2 * np.pi, n)))
               for _ in range(64))
    found = irs_sinr(1.0, link, phases_emi_aware(link, None)[0])
    assert 10 * np.log10(best / found) <= worst_gap_db
    from_heuristic = irs_sinr(1.0, link, plain_mm_phases(
        link, phases_noise_only(link.h_sr, link.h_rd)))
    assert abs(10 * np.log10(from_heuristic / found)) <= 1e-5


def test_emi_aware_sinr_non_decreasing_in_iterations(monkeypatch):
    rng = np.random.default_rng(13)
    link = random_link(rng, 24, rho_db=30.0)
    monkeypatch.setattr(emilink.irs, "MM_TOL", 0.0)
    sinrs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(1, 21):
            monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", k)
            sinrs.append(irs_sinr(1e-3, link, phases_emi_aware(link, None)[0]))
    assert all(later >= earlier * (1 - 1e-12) for earlier, later in zip(sinrs, sinrs[1:]))
    assert sinrs[-1] > sinrs[0]


def test_emi_aware_phases_are_stationary():
    # first-order optimality on the torus, read off the analytic gradient
    rng = np.random.default_rng(14)
    links = [reference_link(n=75, rho_db=40.0), reference_link(n=75, rho_db=25.0),
             reference_link(n=16, rho_db=40.0)]
    links += [random_link(rng, 24, rho_db=30.0) for _ in range(3)]
    for link in links:
        start = phases_noise_only(link.h_sr, link.h_rd)
        tuned = phases_emi_aware(link, None)[0]
        assert (np.linalg.norm(irs_sinr_gradient(1.0, link, tuned))
                <= 5e-3 * np.linalg.norm(irs_sinr_gradient(1.0, link, start)))


@pytest.mark.parametrize("n", [75, 400])
def test_emi_aware_real_and_complex_correlation_agree(n):
    # the real sinc R is applied in real arithmetic; its complex copy takes the
    # complex product, and both must take the same steps to the same gain
    link = reference_link(n=n, rho_db=40.0)
    cast = replace(link, correlation=link.correlation.astype(complex))
    phases, iterations, converged = phases_emi_aware(link, None)
    phases_c, iterations_c, converged_c = phases_emi_aware(cast, None)
    assert (iterations, converged) == (iterations_c, converged_c)
    assert converged
    assert irs_sinr(1.0, link, phases) == pytest.approx(irs_sinr(1.0, cast, phases_c), rel=1e-12)


def test_emi_aware_converges_where_interference_dominates():
    # the 38 dB row of a 400-element fig5: plain MM alone runs into the step limit here
    link = reference_link(n=400, rho_db=38.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, iterations, converged = phases_emi_aware(link, None)
    assert converged
    assert iterations <= emilink.irs.MM_MAX_ITERS // 2


def test_emi_aware_sinr_non_decreasing_in_products_on_a_large_surface(monkeypatch):
    # every third product is an extrapolation here; the 27th is the first that lowers g
    # and must be rejected
    link = reference_link(n=400, rho_db=38.0)
    monkeypatch.setattr(emilink.irs, "MM_TOL", 0.0)
    sinrs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(1, 31):
            monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", k)
            sinrs.append(irs_sinr(1.0, link, phases_emi_aware(link, None)[0]))
    assert all(later >= earlier * (1 - 1e-12) for earlier, later in zip(sinrs, sinrs[1:]))
    assert sinrs[-1] > sinrs[0]


def test_emi_aware_random_links_converge_above_their_start():
    rng = np.random.default_rng(16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for k in range(200):
            n, rho_db = int(rng.integers(2, 25)), float(rng.uniform(0.0, 45.0))
            link = random_link(rng, n, rho_db=rho_db, correlated=k % 4 != 0)
            start = irs_sinr(1.0, link, phases_noise_only(link.h_sr, link.h_rd))
            phases, _, converged = phases_emi_aware(link, None)
            assert converged, (k, n, rho_db)
            assert irs_sinr(1.0, link, phases) >= start * (1 - 1e-12), (k, n, rho_db)


def counting_products(monkeypatch):
    """The products with R that emilink.irs takes from now on, as a list that grows."""
    original, calls = emilink.irs.corr_matvec, []
    monkeypatch.setattr(emilink.irs, "corr_matvec",
                        lambda *args: calls.append(args) or original(*args))
    return calls


def test_start_of_the_wrong_length_is_rejected_before_any_product(monkeypatch):
    link = random_link(np.random.default_rng(18), 4, rho_db=25.0)
    products = counting_products(monkeypatch)
    for start in (np.zeros(3), np.zeros(5), np.zeros((4, 1)), 0.0):
        with pytest.raises(ValueError, match="4 finite start phases"):
            phases_emi_aware(link, start)
        with pytest.raises(ValueError, match="4 finite start phases"):
            irs_min_power_emi_aware(6.0, link, start)
    assert products == []


def test_non_finite_start_is_rejected_before_any_product(monkeypatch):
    link = random_link(np.random.default_rng(19), 4, rho_db=25.0)
    products = counting_products(monkeypatch)
    for bad in (math.nan, math.inf, -math.inf):
        start = phases_noise_only(link.h_sr, link.h_rd)
        start[2] = bad
        with pytest.raises(ValueError, match="4 finite start phases"):
            phases_emi_aware(link, start)
        with pytest.raises(ValueError, match="4 finite start phases"):
            irs_min_power_emi_aware(6.0, link, start)
    assert products == []


def test_noise_only_start_is_bit_identical_to_a_cold_start():
    rng = np.random.default_rng(20)
    links = [reference_link(n=75, rho_db=40.0), reference_link(n=16, rho_db=25.0)]
    links += [random_link(rng, 12, rho_db=30.0) for _ in range(3)]
    for link in links:
        heuristic = phases_noise_only(link.h_sr, link.h_rd)
        cold, warm = phases_emi_aware(link, None), phases_emi_aware(link, heuristic)
        assert cold[0].tobytes() == warm[0].tobytes()
        assert cold[1:] == warm[1:]
        assert ([float.hex(float(x)) for x in irs_min_power_emi_aware(6.0, link, None)[:2]]
                == [float.hex(float(x)) for x in irs_min_power_emi_aware(6.0, link, heuristic)[:2]])


def test_a_bad_start_keeps_the_noise_only_gain(monkeypatch):
    # pi on every other element undoes half the coherent sum, so the start loses
    # to the noise-only phases and the solve runs cold: bit for bit, and above the
    # noise-only g even when the iteration limit stops it after one product
    rng = np.random.default_rng(21)
    links = [reference_link(n=75, rho_db=40.0), reference_link(n=400, rho_db=25.0)]
    links += [random_link(rng, 12, rho_db=30.0) for _ in range(3)]
    for link in links:
        heuristic = phases_noise_only(link.h_sr, link.h_rd)
        bad = heuristic + np.where(np.arange(heuristic.size) % 2, np.pi, 0.0)
        assert irs_sinr(1.0, link, bad) < irs_sinr(1.0, link, heuristic)
        phases, iterations, converged = phases_emi_aware(link, bad)
        assert converged
        assert irs_sinr(1.0, link, phases) >= irs_sinr(1.0, link, heuristic)
        cold = phases_emi_aware(link, None)
        assert (phases.tobytes(), iterations) == (cold[0].tobytes(), cold[1])
        power = irs_min_power_emi_aware(6.0, link, bad)[0]
        assert power <= irs_required_power(6.0, link, heuristic)
    monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", 1)
    for link in links:
        heuristic = phases_noise_only(link.h_sr, link.h_rd)
        bad = heuristic + np.where(np.arange(heuristic.size) % 2, np.pi, 0.0)
        with pytest.warns(RuntimeWarning, match="iteration limit"):
            phases = phases_emi_aware(link, bad)[0]
        assert irs_sinr(1.0, link, phases) >= irs_sinr(1.0, link, heuristic)


def test_a_better_start_is_taken_for_one_uncounted_product(monkeypatch):
    # from a cold optimum the solve starts there, takes no more products than the cold
    # solve and reaches at least its g; comparing the start with the noise-only phases
    # is one product with R that ``iterations`` leaves out, like the first g
    link = reference_link(n=75, rho_db=40.0)
    cold, cold_iterations, _ = phases_emi_aware(link, None)
    products = counting_products(monkeypatch)
    phases, iterations, converged = phases_emi_aware(link, cold)
    assert converged
    assert len(products) == iterations + 2
    assert iterations <= cold_iterations
    assert irs_sinr(1.0, link, phases) >= irs_sinr(1.0, link, cold)
    products.clear()
    iterations = phases_emi_aware(link, None)[1]
    assert len(products) == iterations + 1


def test_emi_aware_step_does_not_copy_a_real_correlation(monkeypatch):
    # R @ complex would copy R to complex on every step: one N x N complex matrix, 2.56 MB
    n = 400
    link = reference_link(n=n, rho_db=25.0)
    monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", 5)
    tracemalloc.start()
    try:
        with pytest.warns(RuntimeWarning, match="iteration limit"):
            _, iterations, _ = phases_emi_aware(link, None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert iterations == 5
    assert peak < n * n * np.dtype(complex).itemsize


def test_min_power_iteration_limit_reported(monkeypatch):
    rng = np.random.default_rng(12)
    link = random_link(rng, 8, rho_db=25.0)
    monkeypatch.setattr(emilink.irs, "MM_MAX_ITERS", 1)
    monkeypatch.setattr(emilink.irs, "MM_TOL", 0.0)
    with pytest.warns(RuntimeWarning, match="iteration limit"):
        _, _, _, iterations, converged = irs_min_power_emi_aware(6.0, link, None)
    assert converged is False
    assert iterations == 1


def test_phases_are_wrapped():
    # -arg(.) lies in (-pi, pi]; the producers wrap it into [0, 2 pi) (np.mod gives 2 pi
    # itself only for a phase a rounding error below 0, which random channels avoid)
    rng = np.random.default_rng(15)
    for _ in range(5):
        link = random_link(rng, 12, rho_db=25.0)
        for phases in (phases_noise_only(link.h_sr, link.h_rd), phases_emi_aware(link, None)[0],
                       irs_min_power_emi_aware(6.0, link, None)[2]):
            assert phases.shape == (12,) and phases.dtype == float
            assert np.all((phases >= 0) & (phases < 2 * np.pi))


def test_sinr_and_power_reject_wrong_phase_count():
    # one phase on a 4-element link used to be broadcast to every element
    link = random_link(np.random.default_rng(16), 4)
    for phases in (np.zeros(1), np.zeros(5), np.zeros((4, 1)), 0.0):
        with pytest.raises(ValueError, match="4 phases"):
            irs_sinr(1e-3, link, phases)
        with pytest.raises(ValueError, match="4 phases"):
            irs_required_power(6.0, link, phases)
        with pytest.raises(ValueError, match="4 phases"):
            irs_sinr_gradient(1e-3, link, phases)


def test_irs_link_validation():
    link = random_link(np.random.default_rng(17), 4)
    h_sr, h_rd, corr = link.h_sr, link.h_rd, link.correlation
    assert IrsLink(h_sr, h_rd, 0.0, corr, NOISE).emi_variance == 0.0
    for variance in (-1.0, -1e-30, math.nan):
        with pytest.raises(ValueError, match="variance"):
            IrsLink(h_sr, h_rd, variance, corr, NOISE)
    for bad in (np.eye(3), np.eye(5), np.ones(4), np.ones((4, 16)), np.ones((2, 4, 4))):
        with pytest.raises(ValueError, match="dimensions"):
            IrsLink(h_sr, h_rd, 1e-12, bad, NOISE)
    with pytest.raises(ValueError, match="noise"):
        IrsLink(h_sr, h_rd, 1e-12, corr, 0.0)
    with pytest.raises(ValueError, match="noise"):
        IrsLink(h_sr, h_rd, 1e-12, corr, math.nan)
    for bad_sr, bad_rd in ((h_sr[:, None], h_rd[:, None]), (h_sr[:3], h_rd), (h_sr, h_rd[:3])):
        with pytest.raises(ValueError, match="1-d channels of equal length"):
            IrsLink(bad_sr, bad_rd, 1e-12, corr, NOISE)
