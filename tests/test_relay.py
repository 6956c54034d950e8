import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from emilink import (ArrayLayout, CombinerKind, EffectiveGains, IrsLink,
                     NumericalError, Scenario, df_inner_max_rate, df_min_power,
                     df_min_power_batch, df_rate, effective_gain_first_phase,
                     effective_gain_second_phase, effective_gains_single, irs_required_power,
                     irs_sinr, los_channel, make_layout, phases_noise_only,
                     repetition_required_power, run_fig5, run_fig6, run_fig8)
from emilink import bench, relay
from emilink.errors import POWER_UPPER_W
from conftest import random_complex, random_unit_diag_psd

NOISE = 10.0 ** ((-94.0 - 30.0) / 10.0)

# reference setup at d = 60 m: hop gains and the repetition-coded power at
# rho = 25 dB, frozen from the first validated run for regression
BETA_SR = 6.618134576643674e-08
BETA_RD = 3.51364184463153e-06
GOLDEN_REPETITION_DBM = 35.91885294842741


def brute_force_inner(budget, gains, grid=400):
    """Exhaustive (tau1, power-split) grid for the budgeted max-min rate."""
    taus = np.linspace(1e-4, 1 - 1e-4, grid)[:, None]
    fracs = np.linspace(0.0, 1.0, grid)[None, :]
    p1 = fracs * budget / taus
    p2 = (1.0 - fracs) * budget / (1.0 - taus)
    r1 = taus * np.log2(1.0 + p1 * gains.alpha1)
    r2 = (1.0 - taus) * np.log2(1.0 + p2 * gains.alpha2)
    return np.minimum(r1, r2).max()


def test_df_rate_zero_power():
    gains = EffectiveGains(1.0, 1.0)
    assert df_rate(0.5, 0.0, 1.0, gains) == 0.0


def test_df_rate_equalized_split():
    gains = EffectiveGains(2.0, 4.0)
    # p1 alpha1 = p2 alpha2 = 8 at the even split
    assert df_rate(0.5, 4.0, 2.0, gains) == pytest.approx(0.5 * math.log2(9.0))


def test_df_rate_direct_arithmetic():
    gains = EffectiveGains(7.0, 3.0)
    assert df_rate(0.3, 1.0, 1.0, gains) == pytest.approx(0.9)


def test_df_rate_rejects_bad_tau():
    with pytest.raises(ValueError):
        df_rate(0.0, 1.0, 1.0, EffectiveGains(1.0, 1.0))
    with pytest.raises(ValueError):
        df_rate(1.0, 1.0, 1.0, EffectiveGains(1.0, 1.0))


def test_effective_gains_single():
    g0 = effective_gains_single(1e-7, 2e-7, 0.0, NOISE)
    assert g0.alpha1 == pytest.approx(1e-7 / NOISE)
    g1 = effective_gains_single(1e-7, 2e-7, NOISE, NOISE)
    assert g1.alpha1 == pytest.approx(0.5 * g0.alpha1)
    assert g1.alpha2 == g0.alpha2  # interference only enters phase one
    rho = 10 ** 2.5
    g2 = effective_gains_single(1e-7, 1e-7, rho * NOISE, NOISE)
    assert g2.alpha1 == pytest.approx(1e-7 / ((rho + 1.0) * NOISE), rel=1e-12)


def test_repetition_round_trip():
    rng = np.random.default_rng(0)
    for _ in range(50):
        b_sr = 10 ** rng.uniform(-10, -6)
        b_rd = 10 ** rng.uniform(-10, -6)
        variance = 10 ** rng.uniform(-1, 3) * NOISE
        target = rng.uniform(0.5, 8.0)
        p = repetition_required_power(target, b_sr, b_rd, variance, NOISE)
        gains = effective_gains_single(b_sr, b_rd, variance, NOISE)
        snr = 2.0 * p * gains.alpha1 * gains.alpha2 / (gains.alpha1 + gains.alpha2)
        rate = df_rate(0.5, snr / gains.alpha1, snr / gains.alpha2, gains)
        assert rate == pytest.approx(target, rel=1e-10)


def test_repetition_no_emi_reduction_exact():
    # zero interference must reduce bit-exactly to the formula with the
    # interference term deleted
    p = repetition_required_power(6.0, 1.3e-7, 2.7e-7, 0.0, NOISE)
    expected = (2.0 ** 12 - 1.0) * (1.3e-7 * NOISE + 2.7e-7 * NOISE) / (2.0 * 2.7e-7 * 1.3e-7)
    assert p == expected
    sym = repetition_required_power(6.0, 1e-7, 1e-7, 0.0, NOISE)
    assert sym == pytest.approx((2.0 ** 12 - 1.0) * NOISE / 1e-7, rel=1e-14)


def test_repetition_reference_golden():
    rho = 10 ** 2.5
    p = repetition_required_power(6.0, BETA_SR, BETA_RD, rho * NOISE, NOISE)
    assert 10 * math.log10(p) + 30 == pytest.approx(GOLDEN_REPETITION_DBM, abs=1e-9)


def test_inner_max_rate_symmetric():
    gains = EffectiveGains(3.0, 3.0)
    rate, tau1, p1, p2 = df_inner_max_rate(2.0, gains)
    assert tau1 == pytest.approx(0.5, abs=1e-6)
    assert p1 == pytest.approx(2.0, rel=1e-6)
    assert p2 == pytest.approx(2.0, rel=1e-6)
    assert rate == pytest.approx(0.5 * math.log2(7.0), rel=1e-9)


def test_inner_max_rate_budget_binds_and_equalizes():
    rng = np.random.default_rng(1)
    for _ in range(20):
        gains = EffectiveGains(10 ** rng.uniform(2, 7), 10 ** rng.uniform(2, 7))
        budget = 10 ** rng.uniform(-3, 1)
        rate, tau1, p1, p2 = df_inner_max_rate(budget, gains)
        assert tau1 * p1 + (1 - tau1) * p2 == pytest.approx(budget, rel=1e-9)
        r1 = tau1 * math.log2(1 + p1 * gains.alpha1)
        r2 = (1 - tau1) * math.log2(1 + p2 * gains.alpha2)
        assert abs(r1 - r2) <= 1e-9 * max(r1, 1.0)
        assert rate >= 0.5 * math.log2(
            1.0 + 2 * budget * gains.alpha1 * gains.alpha2
            / (gains.alpha1 + gains.alpha2)) - 1e-9


def test_inner_max_rate_matches_brute_force():
    rng = np.random.default_rng(2)
    for _ in range(10):
        gains = EffectiveGains(10 ** rng.uniform(3, 7), 10 ** rng.uniform(3, 7))
        budget = 10 ** rng.uniform(-3, 0)
        solver_rate = df_inner_max_rate(budget, gains)[0]
        grid_rate = brute_force_inner(budget, gains)
        assert solver_rate >= grid_rate - 1e-9
        assert solver_rate - grid_rate <= 2e-3 * solver_rate


def test_min_power_symmetric_closed_form():
    gains = EffectiveGains(1e5, 1e5)
    power, tau1, p1, p2, _ = df_min_power(6.0, gains)
    assert tau1 == pytest.approx(0.5, abs=1e-5)
    assert p1 == pytest.approx(p2, rel=1e-5)
    assert power == pytest.approx((2.0 ** 12 - 1) / 1e5, rel=1e-5)
    assert df_rate(tau1, p1, p2, gains) == pytest.approx(6.0, rel=1e-6)


def test_min_power_dominates_repetition():
    rng = np.random.default_rng(3)
    for _ in range(25):
        b_sr = 10 ** rng.uniform(-9, -6)
        b_rd = 10 ** rng.uniform(-9, -6)
        variance = 10 ** rng.uniform(-1, 3) * NOISE
        target = rng.uniform(1.0, 8.0)
        gains = effective_gains_single(b_sr, b_rd, variance, NOISE)
        p_rep = repetition_required_power(target, b_sr, b_rd, variance, NOISE)
        power, tau1, p1, p2, _ = df_min_power(target, gains)
        assert power <= p_rep * (1 + 1e-5)
        assert df_rate(tau1, p1, p2, gains) == pytest.approx(target, rel=1e-6)
        assert power == pytest.approx(tau1 * p1 + (1 - tau1) * p2, rel=1e-12)


def test_min_power_sandwich_at_reference_point():
    rho = 10 ** 2.5
    gains_emi = effective_gains_single(BETA_SR, BETA_RD, rho * NOISE, NOISE)
    gains_clean = effective_gains_single(BETA_SR, BETA_RD, 0.0, NOISE)
    p_clean = df_min_power(6.0, gains_clean)[0]
    p_emi = df_min_power(6.0, gains_emi)[0]
    p_rep_emi = repetition_required_power(6.0, BETA_SR, BETA_RD, rho * NOISE, NOISE)
    assert p_clean < p_emi < p_rep_emi


def test_min_power_monotone_in_gains_and_rate():
    base = EffectiveGains(1e5, 1e6)
    p_base = df_min_power(6.0, base)[0]
    assert df_min_power(6.0, EffectiveGains(2e5, 1e6))[0] < p_base
    assert df_min_power(6.0, EffectiveGains(1e5, 2e6))[0] < p_base
    assert df_min_power(7.0, base)[0] > p_base


def test_min_power_inverse_consistency():
    gains = EffectiveGains(3e4, 8e6)
    power = df_min_power(6.0, gains)[0]
    rate, *_ = df_inner_max_rate(power, gains)
    assert rate == pytest.approx(6.0, rel=1e-6)


def df_row(rate, gains):
    """The sweep row that ``bench._solve_df`` makes of a DF row pending at ``rate``."""
    return bench._solve_df(rate, [(rate, "df", "optimized_iso", gains)])[0]


def is_sentinel(row):
    return row.power_dbm == math.inf and math.isnan(row.rate_bps_hz) and row.solver_iters == 0


def test_min_power_infeasible():
    # the solve returns the power it needs, beyond the cap; the row is the sentinel
    gains = EffectiveGains(1e-9, 1e-9)
    assert df_min_power(6.0, gains)[0] > POWER_UPPER_W
    assert is_sentinel(df_row(6.0, gains))


def closed_form_power(tau, rate, gains):
    """P(tau) = tau (2^(R/tau) - 1)/alpha1 + (1 - tau)(2^(R/(1 - tau)) - 1)/alpha2."""
    with np.errstate(over="ignore"):
        return (tau * np.expm1(rate / tau * math.log(2.0)) / gains.alpha1
                + (1.0 - tau) * np.expm1(rate / (1.0 - tau) * math.log(2.0)) / gains.alpha2)


def test_min_power_matches_dense_tau_grid():
    # draws from acceptance criterion 4's gain and rate ranges
    rng = np.random.default_rng(6)
    taus = np.linspace(0.0, 1.0, 200_001)[1:-1]
    for _ in range(200):
        b_sr = 10 ** rng.uniform(-9, -6)
        b_rd = 10 ** rng.uniform(-9, -6)
        variance = 10 ** rng.uniform(-2, 3) * NOISE
        target = rng.uniform(0.5, 8.0)
        gains = effective_gains_single(b_sr, b_rd, variance, NOISE)
        power, tau1, p1, p2, _ = df_min_power(target, gains)
        assert power <= closed_form_power(taus, target, gains).min() * (1 + 1e-9)
        assert power == pytest.approx(closed_form_power(tau1, target, gains), rel=1e-12)
        r1 = tau1 * math.log2(1.0 + p1 * gains.alpha1)
        r2 = (1.0 - tau1) * math.log2(1.0 + p2 * gains.alpha2)
        assert r1 == pytest.approx(target, rel=1e-12)
        assert r2 == pytest.approx(target, rel=1e-12)
        assert power == tau1 * p1 + (1 - tau1) * p2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [40.0, 2000.0, 1e6, math.inf])
def test_min_power_far_beyond_the_cap_is_infeasible(rate):
    for gains in (EffectiveGains(1e5, 1e6), EffectiveGains(1e2, 1e7),
                  EffectiveGains(1e12, 1e12), EffectiveGains(1e-9, 1e-9)):
        assert df_min_power(rate, gains)[0] > POWER_UPPER_W
        assert is_sentinel(df_row(rate, gains))
    # within the gain bound, but the optimum overflows a float
    gains = EffectiveGains(1e300, 1e300)
    assert df_min_power(1000.0, gains)[0] == math.inf
    assert is_sentinel(df_row(1000.0, gains))


@pytest.mark.filterwarnings("error")
def test_min_power_batch_equals_the_scalar_solver(monkeypatch):
    """The batch solve gives df_min_power's power, tau1, p1, p2 and step count bit
    for bit: on every DF solve that fig5, fig6 and fig8 make at three target
    rates, and on gains far beyond the power cap, where neither caps the power."""
    cases = {}  # target rate -> gain pairs
    scalar, batch = relay.df_min_power, relay.df_min_power_batch

    def spy_scalar(rate, gains):
        cases.setdefault(rate, []).append((gains.alpha1, gains.alpha2))
        return scalar(rate, gains)

    def spy_batch(rate, alpha1, alpha2):
        cases.setdefault(rate, []).extend(zip(alpha1, alpha2))
        return batch(rate, alpha1, alpha2)

    monkeypatch.setattr(relay, "df_min_power", spy_scalar)
    monkeypatch.setattr(relay, "df_min_power_batch", spy_batch)
    for rate in (0.5, 6.0, 20.0):
        for run in (run_fig5, run_fig6, run_fig8):
            run(Scenario(target_rate=rate))
    monkeypatch.undo()
    assert {rate: len(pairs) for rate, pairs in cases.items()} == {
        0.5: 452, 6.0: 452, 20.0: 452}  # 26 + 26 + 5 x 80
    beyond = [(1e5, 1e6), (1e2, 1e7), (1e12, 1e12), (1e-9, 1e-9)]
    for rate in (40.0, 2000.0, 1e6, math.inf):
        cases[rate] = beyond
    cases[1000.0] = [(1e-9, 1e-9), (1e300, 1e300)]

    def bits(values):
        return [float(x).hex() for x in values]

    infeasible = 0
    for rate, pairs in cases.items():
        solutions = df_min_power_batch(rate, *zip(*pairs))
        for (a1, a2), solution in zip(pairs, solutions, strict=True):
            expected = df_min_power(rate, EffectiveGains(a1, a2))
            assert bits(solution) == bits(expected), (rate, a1, a2)
            infeasible += not expected[0] <= POWER_UPPER_W
    assert infeasible >= 4 * len(beyond) + 2


@pytest.mark.filterwarnings("error")
def test_min_power_cap_is_the_feasibility_boundary():
    for gains in (EffectiveGains(3e4, 8e6), EffectiveGains(1e2, 1e2), EffectiveGains(1e7, 1e3)):
        edge = df_inner_max_rate(POWER_UPPER_W, gains)[0]
        assert df_min_power(edge * (1 - 1e-9), gains)[0] <= POWER_UPPER_W
        assert df_row(edge * (1 - 1e-9), gains).feasible
        assert df_min_power(edge * (1 + 1e-9), gains)[0] > POWER_UPPER_W
        assert is_sentinel(df_row(edge * (1 + 1e-9), gains))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gains", [EffectiveGains(1e2, 1e7), EffectiveGains(1e7, 1e2),
                                   EffectiveGains(1e5, 1e5), EffectiveGains(1e-3, 1e9)])
def test_inner_max_rate_over_extreme_budgets(gains):
    previous = 0.0
    for budget in 10.0 ** np.arange(-12, 13):
        rate, tau1, p1, p2 = df_inner_max_rate(budget, gains)
        assert math.isfinite(rate) and rate > previous
        assert 0.0 < tau1 < 1.0
        assert tau1 * p1 + (1 - tau1) * p2 == pytest.approx(budget, rel=1e-9)
        assert df_rate(tau1, p1, p2, gains) == pytest.approx(rate, rel=1e-9)
        if budget <= POWER_UPPER_W:
            assert df_min_power(rate, gains)[0] == pytest.approx(budget, rel=1e-9)
        previous = rate


def test_first_phase_hand_value():
    h = np.array([1.0 + 0j, 1.0 + 0j])
    cov = np.diag([1.0, 4.0])
    assert effective_gain_first_phase(h, cov, CombinerKind.MMSE) == pytest.approx(1.25)
    assert effective_gain_first_phase(h, cov, CombinerKind.MR) == pytest.approx(0.8)
    # a singular covariance fails the MMSE solve; a zero one leaves MR no denominator
    with pytest.raises(NumericalError, match="singular"):
        effective_gain_first_phase(h, np.ones((2, 2)), CombinerKind.MMSE)
    with pytest.raises(NumericalError, match="positive definite"):
        effective_gain_first_phase(h, np.zeros((2, 2)), CombinerKind.MR)


def test_first_phase_white_noise_equality():
    rng = np.random.default_rng(4)
    h = random_complex(rng, 6)
    cov = 2.5 * np.eye(6)
    expected = np.linalg.norm(h) ** 2 / 2.5
    assert effective_gain_first_phase(h, cov, CombinerKind.MR) == pytest.approx(expected)
    assert effective_gain_first_phase(h, cov, CombinerKind.MMSE) == pytest.approx(expected)


def test_first_phase_orthogonal_rank_one_interference():
    # half-wavelength line array: steering vectors whose sine-azimuths
    # differ by 2/M are exactly orthogonal
    lam = 0.1
    lay = ArrayLayout(1, 8, lam)
    h = los_channel(1.0, 0.0, 0.0, lay)
    a = los_channel(1.0, math.asin(2.0 / 8.0), 0.0, lay)
    assert abs(h.conj() @ a) < 1e-10
    clean = effective_gain_first_phase(h, NOISE * np.eye(8), CombinerKind.MMSE)
    for variance in (1e2 * NOISE, 1e6 * NOISE):
        cov = variance * np.outer(a, a.conj()) + NOISE * np.eye(8)
        mmse = effective_gain_first_phase(h, cov, CombinerKind.MMSE)
        assert mmse == pytest.approx(clean, rel=1e-9)
    # a nearly aligned interferer degrades MR but barely touches MMSE
    near = los_channel(1.0, math.asin(2.0 / 8.0) + 0.02, 0.0, lay)
    cov = 1e6 * NOISE * np.outer(near, near.conj()) + NOISE * np.eye(8)
    mr = effective_gain_first_phase(h, cov, CombinerKind.MR)
    mmse = effective_gain_first_phase(h, cov, CombinerKind.MMSE)
    assert mr < 0.5 * clean
    assert mmse > 0.9 * clean


def test_first_phase_mmse_dominates_mr():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 10))
        h = random_complex(rng, m)
        corr = random_unit_diag_psd(rng, m)
        variance = 10 ** rng.uniform(-2, 3)
        cov = variance * corr + np.eye(m)
        mr = effective_gain_first_phase(h, cov, CombinerKind.MR)
        mmse = effective_gain_first_phase(h, cov, CombinerKind.MMSE)
        assert mmse >= mr * (1 - 1e-12)


def test_first_phase_single_antenna_matches_scalar():
    variance = 5.0 * NOISE
    h = np.array([math.sqrt(1e-7) + 0j])
    cov = np.array([[variance + NOISE]])
    expected = effective_gains_single(1e-7, 1e-7, variance, NOISE).alpha1
    for kind in CombinerKind:
        assert effective_gain_first_phase(h, cov, kind) == pytest.approx(expected, rel=1e-12)


def test_second_phase_gain():
    assert effective_gain_second_phase(np.array([2.0 + 0j]), NOISE) == pytest.approx(4.0 / NOISE)
    lay = make_layout(16, 0.1)
    h = los_channel(1e-7, 0.4, 0.1, lay)
    assert effective_gain_second_phase(h, NOISE) == pytest.approx(16e-7 / NOISE, rel=1e-12)
    lay2 = make_layout(32, 0.1)
    h2 = los_channel(1e-7, 0.4, 0.1, lay2)
    ratio = (effective_gain_second_phase(h2, NOISE)
             / effective_gain_second_phase(h, NOISE))
    assert ratio == pytest.approx(2.0, rel=1e-12)


@pytest.mark.filterwarnings("error")
def test_second_phase_rejects_zero_channel():
    # the zero channel's gain is 0.0, a value, and EffectiveGains rejects it as
    # it does any gain <= 0
    alpha2 = effective_gain_second_phase(np.zeros(4, dtype=complex), NOISE)
    assert alpha2 == 0.0 and type(alpha2) is float
    with pytest.raises(ValueError, match="effective gains must be positive"):
        EffectiveGains(1.0, alpha2)


def _unit_link(n=4, noise=NOISE):
    return IrsLink(np.ones(n, complex), np.ones(n, complex), 0.0, np.eye(n), noise)


@pytest.mark.parametrize("call", [
    pytest.param(lambda: EffectiveGains(math.nan, 1.0), id="gains-alpha1"),
    pytest.param(lambda: EffectiveGains(1.0, math.nan), id="gains-alpha2"),
    pytest.param(lambda: effective_gains_single(BETA_SR, BETA_RD, 0.0, math.nan),
                 id="gains-single-noise"),
    pytest.param(lambda: effective_gain_second_phase(np.ones(2), math.nan),
                 id="second-phase-noise"),
    pytest.param(lambda: repetition_required_power(6.0, BETA_SR, BETA_RD, math.nan, NOISE),
                 id="repetition-variance"),
    pytest.param(lambda: repetition_required_power(6.0, BETA_SR, BETA_RD, 0.0, math.nan),
                 id="repetition-noise"),
    pytest.param(lambda: repetition_required_power(6.0, math.nan, BETA_RD, 0.0, NOISE),
                 id="repetition-gain"),
    # one rate rule, errors.pow2m1: NaN, and a rate whose 2^R - 1 rounds to 0
    pytest.param(lambda: repetition_required_power(math.nan, BETA_SR, BETA_RD, 0.0, NOISE),
                 id="repetition-rate"),
    pytest.param(lambda: repetition_required_power(1e-300, BETA_SR, BETA_RD, 0.0, NOISE),
                 id="repetition-tiny-rate"),
    pytest.param(lambda: irs_required_power(1e-300, _unit_link(), np.zeros(4)),
                 id="irs-required-power-tiny-rate"),
    pytest.param(lambda: df_min_power_batch(math.nan, [1.0], [1.0]), id="df-batch-rate"),
    pytest.param(lambda: df_min_power_batch(6.0, [1.0, math.nan], [1.0, 1.0]),
                 id="df-batch-gain"),
    pytest.param(lambda: df_min_power_batch(6.0, [1.0, 2.0], [1.0]), id="df-batch-lengths"),
    pytest.param(lambda: df_min_power_batch(6.0, [[1.0]], [[1.0]]), id="df-batch-2d"),
    pytest.param(lambda: df_rate(0.5, math.nan, 1.0, EffectiveGains(1.0, 1.0)), id="df-rate-p1"),
    pytest.param(lambda: df_rate(0.5, 1.0, math.nan, EffectiveGains(1.0, 1.0)), id="df-rate-p2"),
    # a combiner kind given by its value, or not at all, is not taken for MMSE
    pytest.param(lambda: effective_gain_first_phase(np.ones(2), np.eye(2), "mr"),
                 id="first-phase-kind-string"),
    pytest.param(lambda: effective_gain_first_phase(np.ones(2), np.eye(2), None),
                 id="first-phase-kind-none"),
    pytest.param(lambda: _unit_link(noise=math.nan), id="irs-link-noise"),
    pytest.param(lambda: los_channel(math.nan, 0.0, 0.0, make_layout(4, 0.1)), id="los-gain"),
    pytest.param(lambda: irs_sinr(math.nan, _unit_link(), np.zeros(4)), id="irs-sinr-power"),
    pytest.param(lambda: irs_required_power(math.nan, _unit_link(), np.zeros(4)),
                 id="irs-required-power-rate"),
    pytest.param(lambda: phases_noise_only(np.ones(1, complex), np.ones(4, complex)),
                 id="phases-lengths"),
    pytest.param(lambda: phases_noise_only(np.ones((4, 1), complex), np.ones((4, 1), complex)),
                 id="phases-2d"),
])
def test_inputs_reject_nan_and_mismatched_shapes(call):
    """Checks written as ``not x > 0`` catch NaN, which ``x <= 0`` lets through."""
    with pytest.raises(ValueError):
        call()
