"""Reflecting-surface link: rate, required power and phase optimization.

The end-to-end SINR with transmit power p and reflection phases phi_n is

    p |h_rd^T Phi h_sr|^2 / (variance * ||h_rd^T Phi R^(1/2)||^2 + noise)

where Phi = diag(exp(j phi_n)).  An ``IrsLink`` holds exactly what it
reads: the two channels (equal-length 1-d complex arrays), the EMI variance
and correlation R, and the noise.
Phases are plain float arrays, one entry per element, wrapped by np.mod
where they are produced; a vector of the wrong length is rejected.  The
SINR is p times a power-free gain g(phi), so the best phases do not depend
on p: they are optimized once and the required power follows in closed
form.  Closing the phases on the channel product
(phi_n = -arg(h_sr_n h_rd_n)) maximizes the numerator and is optimal
without interference.  On plane-wave channels sqrt(beta) u, |u_n| = 1, it
leaves the row vector sqrt(beta_rd) conj(u_sr) whatever the destination, so
the SINR is p beta_sr beta_rd N^2 / (variance beta_rd u_sr^H R u_sr + noise):
the sweeps take those rows in that closed form (``power_and_rate``), and
``irs_power_and_rate`` on these phases is its dense oracle.
The interference-aware optimizer starts from these phases, or from a given
start where that has the larger g, and maximizes g by
minorization-maximization on the unit-modulus torus (Sun, Babu and
Palomar, IEEE Trans. Signal Process. 65(3), 2017): each step is a
phase alignment costing one product with R (``emi.corr_matvec``, which
reads a real R once, as one two-column real product), and a step size 1/lam
that halves whenever a step fails to raise g keeps g from ever falling
without an eigendecomposition of R.  Every two accepted steps in a row are
followed by one SQUAREM extrapolation of the phase angles (Varadhan and
Roland, Scand. J. Stat. 35(2), 2008), kept only if it raises g, which cuts
the slow linear convergence where interference dominates.  An extrapolation
also costs one product with R, so the iteration count is the number of
products with R taken after the start is chosen.  It stops when a plain step
changes g by at most MM_TOL (relative), or after MM_MAX_ITERS products.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .emi import corr_matvec, emi_quadratic_form
from .errors import pow2m1

TWO_PI = 2.0 * np.pi
MM_TOL = 1e-8  # relative change of g at which the phase optimizer stops
MM_MAX_ITERS = 1000  # products with R after which it warns and returns its best iterate


@dataclass(frozen=True)
class IrsLink:
    """Source->surface and surface->destination channels, the EMI variance (W)
    and correlation R at the surface, and the thermal noise power (W)."""

    h_sr: np.ndarray
    h_rd: np.ndarray
    emi_variance: float
    correlation: np.ndarray
    noise_power_w: float

    def __post_init__(self):
        n = _check_channels(self.h_sr, self.h_rd)
        if np.shape(self.correlation) != (n, n):
            raise ValueError("channel and correlation dimensions disagree")
        if not self.emi_variance >= 0:
            raise ValueError("EMI variance must be nonnegative")
        if not self.noise_power_w > 0:
            raise ValueError("noise power must be positive")


def _check_channels(h_sr: np.ndarray, h_rd: np.ndarray) -> int:
    """Element count of two 1-d channels of equal length; ValueError otherwise."""
    if np.ndim(h_sr) != 1 or np.shape(h_sr) != np.shape(h_rd):
        raise ValueError("need two 1-d channels of equal length")
    return len(h_sr)


def phases_noise_only(h_sr: np.ndarray, h_rd: np.ndarray) -> np.ndarray:
    """Phases that align the cascaded channel: phi_n = -arg(h_sr_n h_rd_n),
    wrapped by np.mod into [0, 2 pi) (2 pi itself for a phase just below 0)."""
    _check_channels(h_sr, h_rd)
    prod = h_sr * h_rd
    if np.any(prod == 0):
        raise ValueError("phase alignment undefined for zero channel coefficients")
    return np.mod(-np.angle(prod), TWO_PI)


def _combined(link: IrsLink, phases: np.ndarray):
    """Row channel v = h_rd * exp(j phi) and the cascaded scalar v . h_sr."""
    phases = np.asarray(phases)
    if phases.shape != link.h_rd.shape:
        raise ValueError(f"need {link.h_rd.size} phases, got shape {phases.shape}")
    v = link.h_rd * np.exp(1j * phases)
    return v, np.sum(v * link.h_sr)


def _gain_and_denominator(link: IrsLink, phases: np.ndarray) -> tuple[float, float]:
    """|v . h_sr|^2 and the SINR denominator, with no quadratic form when there is no EMI."""
    v, cascade = _combined(link, phases)
    quad = emi_quadratic_form(v, link.correlation) if link.emi_variance else 0.0
    return abs(cascade) ** 2, link.emi_variance * quad + link.noise_power_w


def irs_sinr(power_w: float, link: IrsLink, phases: np.ndarray) -> float:
    if not power_w >= 0:
        raise ValueError("power must be nonnegative")
    gain, denominator = _gain_and_denominator(link, phases)
    return power_w * gain / denominator


def irs_rate(power_w: float, link: IrsLink, phases: np.ndarray) -> float:
    """End-to-end information rate log2(1 + SINR) in bit/s/Hz."""
    return float(np.log2(1.0 + irs_sinr(power_w, link, phases)))


def irs_required_power(target_rate: float, link: IrsLink, phases: np.ndarray) -> float:
    """Transmit power that achieves ``target_rate`` with fixed phases (inf for a zero cascade)."""
    return irs_power_and_rate(target_rate, link, phases)[0]


def power_and_rate(target_rate: float, gain: float, denominator: float):
    """The power that reaches ``target_rate`` at SINR p gain / denominator, and the rate
    at it; (inf, nan) for a zero gain, which no power makes up."""
    snr = pow2m1(target_rate)  # checks the rate before the channel
    if gain == 0.0:
        return np.inf, np.nan
    power = snr * denominator / gain
    return power, float(np.log2(1.0 + power * gain / denominator))


def irs_power_and_rate(target_rate: float, link: IrsLink, phases: np.ndarray):
    """``irs_required_power`` and ``irs_rate`` at it, bit for bit, in one evaluation."""
    return power_and_rate(target_rate, *_gain_and_denominator(link, phases))


def irs_sinr_gradient(power_w: float, link: IrsLink, phases: np.ndarray) -> np.ndarray:
    """Analytic gradient of the SINR with respect to the phase vector."""
    v, cascade = _combined(link, phases)
    corr_v = corr_matvec(link.correlation, v.conj())
    quad = max(float(np.real(v @ corr_v)), 0.0)
    denom = link.emi_variance * quad + link.noise_power_w
    d_num = -2.0 * np.imag(np.conj(cascade) * link.h_sr * v)
    d_quad = -2.0 * np.imag(v * corr_v)
    return power_w * (d_num * denom - abs(cascade) ** 2 * link.emi_variance * d_quad) / denom ** 2


def phases_emi_aware(link: IrsLink, start) -> tuple[np.ndarray, int, bool]:
    """Phases that maximize the power-free gain g = SINR / p, by MM.

    With z = exp(-j phi), a = h_rd * h_sr and B = variance D R D^H + (noise/N) I
    (D = diag(h_rd)), g(z) = |a^H z|^2 / z^H B z on the unit-modulus torus.
    Each step maximizes the linear minorizer of the Dinkelbach surrogate
    z^H (a a^H + g (lam I - B)) z, which is a phase alignment:
    z <- exp(j arg(a (a^H z) + g (lam z - B z))), one product with R.  The
    surrogate is convex, so the step cannot lower g, once lam >= lambda_max(B);
    lam starts at the Rayleigh quotient z^H B z / N and doubles whenever a step
    fails to raise g, so no eigendecomposition is needed and g never falls.

    After three iterates z0, z1, z2 of consecutive accepted plain steps, one
    SQUAREM step extrapolates the angles: r = arg(z1 conj(z0)),
    v = arg(z2 conj(z1)) - r, alpha = min(-||r|| / ||v||, -1) and
    theta = arg(z0) - 2 alpha r + alpha^2 v.  exp(j theta) replaces z only if
    it raises g.  The trail of iterates restarts from the current one after
    each extrapolation and after each rejected plain step; ||v|| = 0 skips the
    extrapolation.

    ``start`` is None (cold) or a phase array, such as the optimum of a
    nearby link (continuation along a sweep).  Iterates from the noise-only
    phases or, where its g is larger, from ``start``: comparing the two costs
    one product with R, which ``iterations`` does not count, and keeps g at
    least the noise-only g.  A start of the wrong length or with a non-finite
    entry raises ValueError before any product.  Stops when a plain step
    changes g by at most MM_TOL (relative); warns instead of failing when
    MM_MAX_ITERS products with R (plain steps and extrapolations alike) run
    out.  Returns ``(phases, iterations, converged)``: the phases wrapped into
    [0, 2 pi), the products with R taken and whether MM_TOL was met.
    """
    d = link.h_rd
    a = link.h_sr * d
    corr, variance = link.correlation, link.emi_variance
    floor = link.noise_power_w / d.size

    def gain(z):
        bz = variance * d * corr_matvec(corr, d.conj() * z) + floor * z
        return float(abs(np.vdot(a, z)) ** 2 / np.vdot(z, bz).real), bz

    if start is not None:
        start = np.asarray(start, dtype=float)
        if start.shape != d.shape or not np.all(np.isfinite(start)):
            raise ValueError(f"need {d.size} finite start phases, got shape {start.shape}")
    phases = phases_noise_only(link.h_sr, link.h_rd)
    z = np.exp(-1j * phases)
    g, bz = gain(z)
    if start is not None:
        z_start = np.exp(-1j * start)
        g_start, b_start = gain(z_start)
        if g_start > g:
            z, bz, g, phases = z_start, b_start, g_start, start
    lam = np.vdot(z, bz).real / d.size
    converged = False
    iterations = 0
    trail = [z]  # iterates of consecutive accepted plain steps
    while iterations < MM_MAX_ITERS and not converged:
        iterations += 1
        if len(trail) == 3:
            z0, z1, z2 = trail
            trail = [z]
            r = np.angle(z1 * z0.conj())
            v = np.angle(z2 * z1.conj()) - r
            # squared norms by np.sum: np.linalg.norm here added ~0.09 MiB to the
            # peak RSS of a paper-size run
            v_sq = np.sum(v * v)
            if v_sq > 0:
                alpha = min(-np.sqrt(np.sum(r * r) / v_sq), -1.0)
                theta = np.angle(z0) - 2.0 * alpha * r + alpha ** 2 * v
                candidate = np.exp(1j * theta)
                g_new, b_candidate = gain(candidate)
                if g_new > g:
                    z, bz, g, phases = candidate, b_candidate, g_new, -theta
                    trail = [z]
                continue
        angle = np.angle(a * np.vdot(a, z) + g * (lam * z - bz))
        candidate = np.exp(1j * angle)
        g_new, b_candidate = gain(candidate)
        converged = abs(g_new - g) <= MM_TOL * g
        if g_new > g:
            z, bz, g, phases = candidate, b_candidate, g_new, -angle
            trail.append(z)
        else:
            lam *= 2.0
            trail = [z]
    if not converged:
        warnings.warn("phase optimization hit the iteration limit; returning best iterate",
                      RuntimeWarning, stacklevel=2)
    return np.mod(phases, TWO_PI), iterations, converged


def irs_min_power_emi_aware(target_rate: float, link: IrsLink,
                            start) -> tuple[float, float, np.ndarray, int, bool]:
    """Minimum power to reach ``target_rate`` with interference-aware phases.

    SINR = p g(phi), so the best phases do not depend on the power: they are
    found once by ``phases_emi_aware`` from ``start`` (None, or a phase array
    it uses where that beats the noise-only phases; stopping at MM_TOL or
    MM_MAX_ITERS) and the power follows in closed form.  Returns
    ``(power_w, rate, phases, iterations, converged)``,
    ``irs_power_and_rate``'s pair followed by the optimizer's triple.  The power
    never exceeds the noise-only-phases power.  It is returned however large, for
    the caller to hold against POWER_UPPER_W.
    """
    phases, iterations, converged = phases_emi_aware(link, start)
    return *irs_power_and_rate(target_rate, link, phases), phases, iterations, converged
