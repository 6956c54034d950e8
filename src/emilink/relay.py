"""Half-duplex decode-and-forward relaying: rates and power optimization.

The two-phase protocol splits the channel uses into fractions tau1 and
1 - tau1 with per-phase powers p1, p2, giving the achievable rate

    min{tau1 log2(1 + p1 alpha1), (1 - tau1) log2(1 + p2 alpha2)}

with effective gains alpha1 (source->relay, interference plus noise) and
alpha2 (relay->destination, noise only).  At the minimum average power
tau1 p1 + (1 - tau1) p2 both phase rates equal the target R, so

    P(tau) = tau (2^(R/tau) - 1)/alpha1 + (1 - tau)(2^(R/(1 - tau)) - 1)/alpha2.

Each term is the perspective of the convex function 2^R - 1 (Boyd and
Vandenberghe, Convex Optimization, sec. 3.2.6), so P'(tau) is increasing and
one bisection on its sign finds the global minimum.  The maximum rate under
a power budget is the inverse of that minimum, found by bisection on R.

``df_min_power_batch`` runs the bisections of many gain pairs at one rate
together on numpy arrays (every optimized DF row of a figure), with the
scalar predicate, REL_TOL and stopping rule applied to each entry.  Its
predicate reads numpy's exp/expm1 instead of math's; a last-bit difference
that flipped the sign of P' at a midpoint would move tau1 by at most REL_TOL.
p1, p2 and the power come per entry through math.expm1, as in the scalar
solve, beyond POWER_UPPER_W too: neither solve caps the power.  The scalar
``df_min_power`` is the batch's bit-for-bit reference, and its minimizer is
the inner solve of ``df_inner_max_rate``.

The MR gain of ``effective_gain_first_phase`` on a plane wave h = sqrt(beta) u
(|u_n| = 1) is beta M^2 / (variance u^H R u + noise M); the sweeps take it in
that closed form, with this dense product as its oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericalError, pow2m1

LN2 = math.log(2.0)
REL_TOL = 1e-13  # relative width at which a bisection stops
EXP_LIMIT = 700.0  # e^700 is finite; larger exponents are scaled down first


class CombinerKind(Enum):
    MR = "mr"
    MMSE = "mmse"


@dataclass(frozen=True)
class EffectiveGains:
    """Per-phase SNR per unit transmit power, in 1/W."""

    alpha1: float
    alpha2: float

    def __post_init__(self):
        if not (self.alpha1 > 0 and self.alpha2 > 0):
            raise ValueError("effective gains must be positive")


def df_rate(tau1: float, p1: float, p2: float, gains: EffectiveGains) -> float:
    """Achievable decode-and-forward rate for the given split and powers."""
    if not 0.0 < tau1 < 1.0:
        raise ValueError("tau1 must lie strictly between 0 and 1")
    if not (p1 >= 0 and p2 >= 0):
        raise ValueError("powers must be nonnegative")
    r1 = tau1 * math.log2(1.0 + p1 * gains.alpha1)
    r2 = (1.0 - tau1) * math.log2(1.0 + p2 * gains.alpha2)
    return min(r1, r2)


def effective_gains_single(beta_sr: float, beta_rd: float,
                           emi_variance: float, noise_power_w: float) -> EffectiveGains:
    """Single-antenna gains: interference degrades only the first phase."""
    if not noise_power_w > 0:
        raise ValueError("noise power must be positive")
    return EffectiveGains(beta_sr / (emi_variance + noise_power_w),
                          beta_rd / noise_power_w)


def repetition_required_power(target_rate: float, beta_sr: float, beta_rd: float,
                              emi_variance: float, noise_power_w: float) -> float:
    """Average power of repetition coding (tau1 = 1/2, equalized phase rates)."""
    if not (beta_sr > 0 and beta_rd > 0 and emi_variance >= 0 and noise_power_w > 0):
        raise ValueError("channel gains and noise must be positive, the EMI variance nonnegative")
    return (pow2m1(2.0 * target_rate)
            * (beta_sr * noise_power_w + beta_rd * (emi_variance + noise_power_w))
            / (2.0 * beta_rd * beta_sr))


def _exp2m1(x: float) -> float:
    """2^x - 1, or inf where that overflows a float.  Unlike ``errors.pow2m1``
    it goes through expm1, so small per-phase rates keep full precision."""
    return math.expm1(x * LN2) if x < 1024.0 else math.inf


def _bisect(rising: Callable[[float], bool], lo: float,
            hi: float) -> tuple[float, float, int]:
    """Bracket the root of a monotone predicate (False below it, True above).

    Halves [lo, hi] until it is REL_TOL * hi wide or no float lies inside;
    returns the final (lo, hi) and the number of halvings.
    """
    steps = 0
    while hi - lo > REL_TOL * hi and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if rising(mid):
            hi = mid
        else:
            lo = mid
        steps += 1
    return lo, hi, steps


def _scaled_f(u: float, shift: float) -> float:
    """e^-shift * (e^u (1 - u) - 1), finite and without cancellation at small u."""
    grown = math.expm1(u) if shift == 0.0 else math.exp(u - shift) - math.exp(-shift)
    return grown * (1.0 - u) - u * math.exp(-shift)


def _min_power_at(rate: float, gains: EffectiveGains) -> tuple[float, float, float, float, int]:
    """Minimizer of P(tau) at ``rate``: (tau1, p1, p2, P, bisection steps).

    P'(tau) = f(R ln2 / tau)/alpha1 - f(R ln2 / (1 - tau))/alpha2 with
    f(u) = e^u (1 - u) - 1 rises from -inf to +inf over (0, 1).  Its sign is
    read after scaling by e^-shift, which keeps every exponential finite.
    """
    a1, a2 = gains.alpha1, gains.alpha2
    c = rate * LN2

    def rising(tau):
        u1, u2 = c / tau, c / (1.0 - tau)
        shift = max(u1, u2, EXP_LIMIT) - EXP_LIMIT
        return _scaled_f(u1, shift) / a1 >= _scaled_f(u2, shift) / a2

    lo, hi, steps = _bisect(rising, 0.0, 1.0)
    tau1 = 0.5 * (lo + hi)
    return tau1, *_phase_powers(rate, tau1, a1, a2), steps


def _phase_powers(rate: float, tau1: float, a1: float, a2: float) -> tuple[float, float, float]:
    """(p1, p2, P) that pin both phase rates at ``rate`` for the split tau1."""
    p1 = _exp2m1(rate / tau1) / a1
    p2 = _exp2m1(rate / (1.0 - tau1)) / a2
    return p1, p2, tau1 * p1 + (1.0 - tau1) * p2


def df_inner_max_rate(budget: float, gains: EffectiveGains) -> tuple[float, float, float, float]:
    """Maximum achievable rate under an average-power budget.

    The inverse of the minimum power P*(R), which is increasing in R: a
    bisection on R from 0 up to the rate at which the lower bound
    (2^R - 1)(1/alpha1 + 1/alpha2) <= P*(R) reaches the budget.  It keeps the
    highest rate found within the budget.  Returns (rate, tau1, p1, p2).
    """
    if not budget > 0:
        raise ValueError("power budget must be positive")
    hi = math.log1p(budget * (1.0 / (1.0 / gains.alpha1 + 1.0 / gains.alpha2))) / LN2
    rate, _, _ = _bisect(lambda r: _min_power_at(r, gains)[3] > budget, 0.0, hi)
    tau1, p1, p2, _, _ = _min_power_at(rate, gains)
    return rate, tau1, p1, p2


def df_min_power(target_rate: float,
                 gains: EffectiveGains) -> tuple[float, float, float, float, int]:
    """Minimum average power reaching ``target_rate``, with both phase rates
    pinned at it: (power_w, tau1, p1, p2, bisection steps).

    The power is returned however large, for the caller to hold against
    POWER_UPPER_W; one that overflows a float reads as inf.
    """
    if not target_rate > 0:
        raise ValueError("target rate must be positive")
    tau1, p1, p2, power, steps = _min_power_at(target_rate, gains)
    return power, tau1, p1, p2, steps


def _scaled_f_batch(u: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``_scaled_f`` on arrays; expm1 only reads the entries where shift is 0."""
    scaled = shift != 0.0
    grown = np.where(scaled, np.exp(u - shift) - np.exp(-shift),
                     np.expm1(np.where(scaled, 0.0, u)))
    return grown * (1.0 - u) - u * np.exp(-shift)


def df_min_power_batch(target_rate: float, alpha1,
                       alpha2) -> list[tuple[float, float, float, float, int]]:
    """``df_min_power`` for each gain pair (alpha1[i], alpha2[i]) at one rate,
    as one bisection on numpy arrays (see the module docstring).

    Returns one (power_w, tau1, p1, p2, bisection steps) per entry, each equal
    to ``df_min_power``'s bit for bit, the power uncapped as there.
    """
    if not target_rate > 0:
        raise ValueError("target rate must be positive")
    a1, a2 = np.asarray(alpha1, dtype=float), np.asarray(alpha2, dtype=float)
    if a1.ndim != 1 or a1.shape != a2.shape:
        raise ValueError("alpha1 and alpha2 must be 1-d and of equal length")
    if not (np.all(a1 > 0) and np.all(a2 > 0)):
        raise ValueError("effective gains must be positive")
    c = target_rate * LN2
    lo, hi, steps = np.zeros(a1.size), np.ones(a1.size), np.zeros(a1.size, dtype=int)
    # Overflow is silent here (to inf, and inf - inf to nan), as with Python floats, so
    # far-out gains compare as in the scalar solve; stopped entries (mid 0 or 1) are dropped.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while True:
            mid = 0.5 * (lo + hi)
            going = (hi - lo > REL_TOL * hi) & (lo < mid) & (mid < hi)
            if not going.any():
                break
            u1, u2 = c / mid, c / (1.0 - mid)
            shift = np.maximum(np.maximum(u1, u2), EXP_LIMIT) - EXP_LIMIT
            rising = _scaled_f_batch(u1, shift) / a1 >= _scaled_f_batch(u2, shift) / a2
            hi, lo = np.where(going & rising, mid, hi), np.where(going & ~rising, mid, lo)
            steps += going
    solutions = []
    for tau1, g1, g2, n in zip((0.5 * (lo + hi)).tolist(), a1.tolist(), a2.tolist(),
                               steps.tolist()):
        p1, p2, power = _phase_powers(target_rate, tau1, g1, g2)
        solutions.append((power, tau1, p1, p2, n))
    return solutions


def effective_gain_first_phase(h_sr: np.ndarray, covariance: np.ndarray,
                               kind: CombinerKind) -> float:
    """First-phase effective gain |g^H h|^2 / (g^H C g) for the combiner.

    MR takes g = h; MMSE takes g = C^{-1} h, whose value is the generalized
    Rayleigh maximum h^H C^{-1} h and always dominates MR.
    """
    h = np.asarray(h_sr)
    cov = np.asarray(covariance)
    if h.ndim != 1 or cov.shape != (h.size, h.size):
        raise ValueError("channel/covariance dimensions disagree")
    if kind is CombinerKind.MR:
        denom = float(np.real(h.conj() @ cov @ h))
        if denom <= 0:
            raise NumericalError("covariance is not positive definite")
        return float(np.abs(h.conj() @ h) ** 2) / denom
    if kind is not CombinerKind.MMSE:
        raise ValueError(f"unknown combiner kind: {kind!r}")
    try:
        solved = np.linalg.solve(cov, h)
    except np.linalg.LinAlgError as exc:
        raise NumericalError("covariance is singular") from exc
    return float(np.real(h.conj() @ solved))


def effective_gain_second_phase(h_rd: np.ndarray, noise_power_w: float) -> float:
    """Second-phase gain ||h_rd||^2 / noise under unit-norm MR precoding: 0.0 for a
    zero channel, which ``EffectiveGains`` rejects as it does any gain <= 0."""
    if not noise_power_w > 0:
        raise ValueError("noise power must be positive")
    h = np.asarray(h_rd)
    return float(np.real(h.conj() @ h)) / noise_power_w
