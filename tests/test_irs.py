import math
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (AngularDensity, EmiModel, InfeasibleError, IrsLink, LosChannel,
                     PhaseConfig, irs_min_power_emi_aware, irs_rate,
                     irs_required_power, irs_sinr, irs_sinr_gradient, los_channel,
                     make_layout, phases_emi_aware, phases_noise_only)
from conftest import random_complex, random_unit_diag_psd

NOISE = 10.0 ** ((-94.0 - 30.0) / 10.0)


def random_link(rng, n, rho_db=10.0, correlated=True):
    h_sr = LosChannel(1e-8, 0.0, 0.0, random_complex(rng, n, 1e-4))
    h_rd = LosChannel(1e-6, 0.0, 0.0, random_complex(rng, n, 1e-3))
    corr = random_unit_diag_psd(rng, n) if correlated else np.eye(n)
    variance = 10 ** (rho_db / 10.0) * NOISE
    return IrsLink(h_sr, h_rd, EmiModel(variance, AngularDensity.isotropic(), corr), NOISE)


def reference_link(n=75, d=60.0, rho_db=25.0, density=None):
    from emilink import Scenario, angles_between, pathloss_umi, build_emi_model
    sc = Scenario()
    lay = make_layout(n, sc.budget.wavelength)
    az_sr, el_sr = angles_between(sc.node_pos, sc.source_pos)
    dest = np.array([d, 0.0, 0.0])
    az_rd, el_rd = angles_between(sc.node_pos, (d, 0.0, 0.0))
    b_sr = pathloss_umi(float(np.linalg.norm(sc.node_pos.as_array())), sc.budget)
    b_rd = pathloss_umi(float(np.linalg.norm(dest - sc.node_pos.as_array())), sc.budget)
    h_sr = los_channel(b_sr, az_sr, el_sr, lay)
    h_rd = los_channel(b_rd, az_rd, el_rd, lay)
    variance = 10 ** (rho_db / 10.0) * NOISE
    model = build_emi_model(lay, variance, density or AngularDensity.isotropic())
    return IrsLink(h_sr, h_rd, model, NOISE)


def grid_best_magnitude(h_sr, h_rd, steps=720):
    """Brute-force |h_rd^T Phi h_sr| maximum over a 2-d phase grid."""
    phases = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    a = h_sr.coefficients * h_rd.coefficients
    grid = np.abs(a[0] * np.exp(1j * phases)[:, None] + a[1] * np.exp(1j * phases)[None, :])
    return grid.max()


def test_phases_noise_only_real_positive_channels():
    lay = make_layout(4, 0.1)
    h = los_channel(1.0, 0.0, 0.0, lay)
    cfg = phases_noise_only(h, h)
    # broadside coefficients are already real positive at every element
    assert_allclose(np.minimum(cfg.phases, 2 * np.pi - cfg.phases), 0.0, atol=1e-12)


def test_phases_noise_only_coherent_gain():
    rng = np.random.default_rng(0)
    lay = make_layout(16, 0.1)
    h_sr = los_channel(4e-8, rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), lay)
    h_rd = los_channel(9e-7, rng.uniform(-1, 1), rng.uniform(-0.5, 0.5), lay)
    cfg = phases_noise_only(h_sr, h_rd)
    cascade = np.sum(h_rd.coefficients * np.exp(1j * cfg.phases) * h_sr.coefficients)
    assert cascade.imag == pytest.approx(0.0, abs=1e-20)
    assert abs(cascade) ** 2 == pytest.approx(16 ** 2 * 4e-8 * 9e-7, rel=1e-10)


def test_phases_noise_only_matches_grid_oracle():
    rng = np.random.default_rng(42)
    for _ in range(5):
        h_sr = LosChannel(1.0, 0.0, 0.0, random_complex(rng, 2))
        h_rd = LosChannel(1.0, 0.0, 0.0, random_complex(rng, 2))
        cfg = phases_noise_only(h_sr, h_rd)
        best = abs(np.sum(h_rd.coefficients * np.exp(1j * cfg.phases) * h_sr.coefficients))
        grid = grid_best_magnitude(h_sr, h_rd)
        assert grid <= best + 1e-12
        assert best - grid <= 1e-4 * best


def test_phases_noise_only_rejects_zero_coefficient():
    bad = LosChannel(1.0, 0.0, 0.0, np.array([1.0 + 0j, 0.0 + 0j]))
    with pytest.raises(ValueError):
        phases_noise_only(bad, bad)


def test_irs_sinr_zero_power():
    rng = np.random.default_rng(1)
    link = random_link(rng, 8)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    assert irs_sinr(0.0, link, cfg) == 0.0


def test_irs_sinr_no_emi_closed_form():
    link = reference_link(n=16, rho_db=25.0)
    quiet = IrsLink(link.h_sr, link.h_rd,
                    EmiModel(0.0, AngularDensity.isotropic(), link.emi.correlation), NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    expected = 0.01 * 16 ** 2 * link.h_sr.gain * link.h_rd.gain / NOISE
    assert irs_sinr(0.01, quiet, cfg) == pytest.approx(expected, rel=1e-12)


def test_irs_sinr_identity_correlation_denominator():
    rng = np.random.default_rng(3)
    n = 12
    link = random_link(rng, n, correlated=False)
    link = IrsLink(link.h_sr, link.h_rd, link.emi, NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    cascade_sq = abs(np.sum(link.h_rd.coefficients * np.exp(1j * cfg.phases)
                            * link.h_sr.coefficients)) ** 2
    norm_rd = np.linalg.norm(link.h_rd.coefficients) ** 2
    expected = 0.5 * cascade_sq / (link.emi.variance * norm_rd + NOISE)
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
        cfg = PhaseConfig(rng.uniform(0, 2 * np.pi, n))
        target = rng.uniform(0.5, 8.0)
        p = irs_required_power(target, link, cfg)
        assert irs_rate(p, link, cfg) == pytest.approx(target, rel=1e-10)


def test_required_power_no_emi_closed_form():
    link = reference_link(n=50, rho_db=0.0)
    quiet = IrsLink(link.h_sr, link.h_rd,
                    EmiModel(0.0, AngularDensity.isotropic(), link.emi.correlation), NOISE)
    cfg = phases_noise_only(link.h_sr, link.h_rd)
    expected = 63.0 * NOISE / (50 ** 2 * link.h_sr.gain * link.h_rd.gain)
    assert irs_required_power(6.0, quiet, cfg) == pytest.approx(expected, rel=1e-12)


def test_required_power_array_gain_scaling():
    # doubling the element count quarters the no-EMI power (+6.02 dB)
    powers = {}
    for n in (50, 100):
        link = reference_link(n=n)
        quiet = IrsLink(link.h_sr, link.h_rd,
                        EmiModel(0.0, AngularDensity.isotropic(), link.emi.correlation), NOISE)
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
    stronger = IrsLink(link.h_sr, link.h_rd,
                       EmiModel(2 * link.emi.variance, link.emi.density,
                                link.emi.correlation), NOISE)
    assert irs_required_power(4.0, stronger, cfg) > irs_required_power(4.0, link, cfg)


def test_required_power_infeasible_zero_channel():
    h = LosChannel(1.0, 0.0, 0.0, np.array([1.0 + 0j, -1.0 + 0j]))
    g = LosChannel(1.0, 0.0, 0.0, np.array([1.0 + 0j, 1.0 + 0j]))
    link = IrsLink(h, g, EmiModel(0.0, AngularDensity.isotropic(), np.eye(2)), NOISE)
    with pytest.raises(InfeasibleError):
        irs_required_power(6.0, link, PhaseConfig(np.zeros(2)))


def test_global_phase_offset_invariance():
    rng = np.random.default_rng(7)
    link = random_link(rng, 9)
    cfg = PhaseConfig(rng.uniform(0, 2 * np.pi, 9))
    shifted = PhaseConfig(cfg.phases + 1.234)
    assert irs_sinr(1e-3, link, shifted) == pytest.approx(irs_sinr(1e-3, link, cfg), rel=1e-12)


def test_cascade_bounded_by_coherent_gain():
    rng = np.random.default_rng(8)
    link = random_link(rng, 8)
    best = np.sum(np.abs(link.h_sr.coefficients * link.h_rd.coefficients))
    for _ in range(50):
        cfg = PhaseConfig(rng.uniform(0, 2 * np.pi, 8))
        cascade = abs(np.sum(link.h_rd.coefficients * np.exp(1j * cfg.phases)
                             * link.h_sr.coefficients))
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
            fd[i] = (irs_sinr(1e-3, link, PhaseConfig(phases + delta))
                     - irs_sinr(1e-3, link, PhaseConfig(phases - delta))) / (2 * step)
        assert np.abs(grad - fd).max() <= 1e-4 * np.abs(fd).max()


def test_emi_aware_reduces_to_heuristic_without_emi():
    link = reference_link(n=25)
    quiet = IrsLink(link.h_sr, link.h_rd,
                    EmiModel(0.0, AngularDensity.isotropic(), link.emi.correlation), NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    tuned = phases_emi_aware(quiet)
    assert irs_rate(0.01, quiet, tuned) == pytest.approx(irs_rate(0.01, quiet, heur), rel=1e-9)


def test_emi_aware_beats_heuristic_on_rank_one_emi():
    # interference steered exactly at the destination's direction can be
    # rejected almost entirely, unlike under the aligned heuristic
    link = reference_link(n=16)
    steering = link.h_rd.coefficients / math.sqrt(link.h_rd.gain)
    rank_one = np.outer(steering, steering.conj())
    emi = EmiModel(link.emi.variance, AngularDensity.isotropic(), rank_one)
    spiked = IrsLink(link.h_sr, link.h_rd, emi, NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    power = irs_required_power(6.0, spiked, heur)
    tuned = phases_emi_aware(spiked)
    assert irs_rate(power, spiked, tuned) > irs_rate(power, spiked, heur) + 1e-6


def test_emi_aware_matches_grid_oracle_n2():
    rng = np.random.default_rng(10)
    steps = 720
    phases = np.linspace(0.0, 2 * np.pi, steps, endpoint=False)
    for _ in range(5):
        link = random_link(rng, 2, rho_db=10.0)
        tuned = phases_emi_aware(link)
        achieved = irs_sinr(1e-3, link, tuned)
        a = link.h_sr.coefficients * link.h_rd.coefficients
        e1 = np.exp(1j * phases)[:, None]
        e2 = np.exp(1j * phases)[None, :]
        num = np.abs(a[0] * e1 + a[1] * e2) ** 2
        r = link.emi.correlation
        v0 = link.h_rd.coefficients[0] * e1
        v1 = link.h_rd.coefficients[1] * e2
        quad = (np.abs(v0) ** 2 * r[0, 0].real + np.abs(v1) ** 2 * r[1, 1].real
                + 2 * np.real(v0 * r[0, 1] * np.conj(v1)))
        grid_best = (1e-3 * num / (link.emi.variance * quad + NOISE)).max()
        assert achieved >= grid_best - 1e-4 * grid_best


def test_emi_aware_never_worse_than_init():
    rng = np.random.default_rng(11)
    for _ in range(10):
        link = random_link(rng, 8, rho_db=25.0)
        heur = phases_noise_only(link.h_sr, link.h_rd)
        tuned = phases_emi_aware(link)
        assert (irs_sinr(1e-3, link, tuned)
                >= irs_sinr(1e-3, link, heur) * (1 - 1e-12))


def test_emi_aware_iteration_limit_warns():
    rng = np.random.default_rng(12)
    link = random_link(rng, 8, rho_db=25.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        phases_emi_aware(link, max_iters=1, tol=0.0)
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_min_power_no_emi_equals_heuristic_power():
    link = reference_link(n=25)
    quiet = IrsLink(link.h_sr, link.h_rd,
                    EmiModel(0.0, AngularDensity.isotropic(), link.emi.correlation), NOISE)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    direct = irs_required_power(6.0, quiet, heur)
    sol = irs_min_power_emi_aware(6.0, quiet)
    assert sol.power_w == pytest.approx(direct, rel=1e-9)
    assert sol.converged


def test_min_power_never_exceeds_heuristic():
    link = reference_link(n=75, rho_db=25.0)
    heur = phases_noise_only(link.h_sr, link.h_rd)
    p_heur = irs_required_power(6.0, link, heur)
    sol = irs_min_power_emi_aware(6.0, link)
    assert sol.power_w <= p_heur
    assert irs_rate(sol.power_w, link, sol.phases) == pytest.approx(6.0, rel=1e-9)


def test_min_power_strict_improvement_on_rank_one():
    # at 45 dB interference-to-noise the rank-one term dominates the
    # denominator, so rejecting it buys a substantial power saving
    link = reference_link(n=16, rho_db=45.0)
    steering = link.h_rd.coefficients / math.sqrt(link.h_rd.gain)
    emi = EmiModel(link.emi.variance, AngularDensity.isotropic(),
                   np.outer(steering, steering.conj()))
    spiked = IrsLink(link.h_sr, link.h_rd, emi, NOISE)
    heur_power = irs_required_power(6.0, spiked,
                                    phases_noise_only(link.h_sr, link.h_rd))
    sol = irs_min_power_emi_aware(6.0, spiked)
    assert sol.power_w < heur_power * 0.99
    link25 = reference_link(n=16, rho_db=25.0)
    spiked25 = IrsLink(link25.h_sr, link25.h_rd,
                       EmiModel(link25.emi.variance, AngularDensity.isotropic(),
                                np.outer(steering, steering.conj())), NOISE)
    heur25 = irs_required_power(6.0, spiked25,
                                phases_noise_only(link25.h_sr, link25.h_rd))
    assert irs_min_power_emi_aware(6.0, spiked25).power_w < heur25 * (1 - 1e-7)


def relaxation_bound_power(target, link):
    """(2^R - 1) / a^H B^-1 a: the required power with unit modulus relaxed to |z|^2 = N."""
    d = link.h_rd.coefficients
    a = link.h_sr.coefficients * d
    b = (link.emi.variance * d[:, None] * link.emi.correlation * d.conj()[None, :]
         + link.noise_power_w / d.size * np.eye(d.size))
    return (2.0 ** target - 1.0) / np.real(a.conj() @ np.linalg.solve(b, a))


@pytest.mark.parametrize("n", [16, 75])
@pytest.mark.parametrize("rho_db", [-10.0, 10.0, 25.0, 40.0])
def test_min_power_between_relaxation_bound_and_heuristic(n, rho_db):
    link = reference_link(n=n, rho_db=rho_db)
    p_heur = irs_required_power(6.0, link, phases_noise_only(link.h_sr, link.h_rd))
    sol = irs_min_power_emi_aware(6.0, link)
    assert relaxation_bound_power(6.0, link) * (1 - 1e-9) <= sol.power_w <= p_heur


def test_emi_aware_sinr_non_decreasing_in_iterations():
    rng = np.random.default_rng(13)
    link = random_link(rng, 24, rho_db=30.0)
    sinrs = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for k in range(1, 21):
            sinrs.append(irs_sinr(1e-3, link, phases_emi_aware(link, max_iters=k, tol=0.0)))
    assert all(later >= earlier * (1 - 1e-12) for earlier, later in zip(sinrs, sinrs[1:]))
    assert sinrs[-1] > sinrs[0]


def test_emi_aware_phases_are_stationary():
    # first-order optimality on the torus, read off the analytic gradient
    rng = np.random.default_rng(14)
    links = [reference_link(n=75, rho_db=40.0), reference_link(n=75, rho_db=25.0),
             reference_link(n=16, rho_db=40.0)]
    links += [random_link(rng, 24, rho_db=30.0) for _ in range(3)]
    for link in links:
        start = phases_noise_only(link.h_sr, link.h_rd).phases
        tuned = phases_emi_aware(link).phases
        assert (np.linalg.norm(irs_sinr_gradient(1.0, link, tuned))
                <= 5e-3 * np.linalg.norm(irs_sinr_gradient(1.0, link, start)))


def test_min_power_iteration_limit_reported():
    rng = np.random.default_rng(12)
    link = random_link(rng, 8, rho_db=25.0)
    with pytest.warns(RuntimeWarning, match="iteration limit"):
        sol = irs_min_power_emi_aware(6.0, link, max_iters=1, tol=0.0)
    assert sol.converged is False
    assert sol.iterations == 1


def test_phase_config_wraps():
    cfg = PhaseConfig(np.array([-0.5, 7.0]))
    assert np.all((cfg.phases >= 0) & (cfg.phases < 2 * np.pi))
