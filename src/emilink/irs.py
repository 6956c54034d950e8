"""Reflecting-surface link: rate, required power and phase optimization.

The end-to-end SINR with transmit power p and reflection phases phi_n is

    p |h_rd^T Phi h_sr|^2 / (variance * ||h_rd^T Phi R^(1/2)||^2 + noise)

where Phi = diag(exp(j phi_n)).  It is p times a power-free gain g(phi), so
the best phases do not depend on p: they are optimized once and the
required power follows in closed form.  Closing the phases on the channel
product (phi_n = -arg(h_sr_n h_rd_n)) maximizes the numerator and is optimal
without interference.  The interference-aware optimizer starts there and
maximizes g by minorization-maximization on the unit-modulus torus (Sun,
Babu and Palomar, IEEE Trans. Signal Process. 65(3), 2017): each step is a
phase alignment costing one product with R, and a step size 1/lam that
halves whenever a step fails to raise g keeps g from ever falling without
an eigendecomposition of R.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .emi import EmiModel, emi_quadratic_form
from .errors import InfeasibleError, capped_power, pow2m1
from .scene import LosChannel

TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class PhaseConfig:
    """Per-element reflection phases, wrapped into [0, 2*pi)."""

    phases: np.ndarray

    def __post_init__(self):
        ph = np.mod(np.asarray(self.phases, dtype=float), TWO_PI)
        if ph.ndim != 1 or ph.size == 0:
            raise ValueError("phases must be a non-empty 1-d array")
        object.__setattr__(self, "phases", ph)

    @property
    def n_elements(self) -> int:
        return self.phases.size


@dataclass(frozen=True)
class IrsLink:
    """Source->surface and surface->destination channels plus noise terms."""

    h_sr: LosChannel
    h_rd: LosChannel
    emi: EmiModel
    noise_power_w: float

    def __post_init__(self):
        n = self.h_sr.n_elements
        if self.h_rd.n_elements != n or self.emi.n_elements != n:
            raise ValueError("channel and correlation dimensions disagree")
        if self.noise_power_w <= 0:
            raise ValueError("noise power must be positive")


@dataclass(frozen=True)
class OptimizedPhases(PhaseConfig):
    """Phases from ``phases_emi_aware`` plus its iteration count and whether
    it met its tolerance."""

    iterations: int
    converged: bool


@dataclass(frozen=True)
class IrsSolution:
    """Required power and phase configuration from the EMI-aware optimizer."""

    power_w: float
    phases: PhaseConfig
    iterations: int
    converged: bool = True


def phases_noise_only(h_sr: LosChannel, h_rd: LosChannel) -> PhaseConfig:
    """Phases that align the cascaded channel: phi_n = -arg(h_sr_n h_rd_n)."""
    prod = h_sr.coefficients * h_rd.coefficients
    if np.any(prod == 0):
        raise ValueError("phase alignment undefined for zero channel coefficients")
    return PhaseConfig(-np.angle(prod))


def _combined(link: IrsLink, config: PhaseConfig):
    """Row channel v = h_rd * exp(j phi) and the cascaded scalar v . h_sr."""
    v = link.h_rd.coefficients * np.exp(1j * config.phases)
    return v, np.sum(v * link.h_sr.coefficients)


def irs_sinr(power_w: float, link: IrsLink, config: PhaseConfig) -> float:
    if power_w < 0:
        raise ValueError("power must be nonnegative")
    v, cascade = _combined(link, config)
    interference = link.emi.variance * emi_quadratic_form(v, link.emi.correlation)
    return power_w * abs(cascade) ** 2 / (interference + link.noise_power_w)


def irs_rate(power_w: float, link: IrsLink, config: PhaseConfig) -> float:
    """End-to-end information rate log2(1 + SINR) in bit/s/Hz."""
    return float(np.log2(1.0 + irs_sinr(power_w, link, config)))


def irs_required_power(target_rate: float, link: IrsLink, config: PhaseConfig) -> float:
    """Transmit power that achieves ``target_rate`` with fixed phases."""
    if target_rate <= 0:
        raise ValueError("target rate must be positive")
    v, cascade = _combined(link, config)
    gain = abs(cascade) ** 2
    if gain == 0.0:
        raise InfeasibleError("cascaded channel is zero; no power achieves the rate")
    interference = link.emi.variance * emi_quadratic_form(v, link.emi.correlation)
    return pow2m1(target_rate) * (interference + link.noise_power_w) / gain


def irs_sinr_gradient(power_w: float, link: IrsLink, phases: np.ndarray) -> np.ndarray:
    """Analytic gradient of the SINR with respect to the phase vector."""
    v = link.h_rd.coefficients * np.exp(1j * np.asarray(phases))
    cascade = np.sum(v * link.h_sr.coefficients)
    corr_v = link.emi.correlation @ v.conj()
    quad = max(float(np.real(v @ corr_v)), 0.0)
    denom = link.emi.variance * quad + link.noise_power_w
    d_num = -2.0 * np.imag(np.conj(cascade) * link.h_sr.coefficients * v)
    d_quad = -2.0 * np.imag(v * corr_v)
    return power_w * (d_num * denom - abs(cascade) ** 2 * link.emi.variance * d_quad) / denom ** 2


def phases_emi_aware(link: IrsLink, *, tol: float = 1e-8,
                     max_iters: int = 1000) -> OptimizedPhases:
    """Phases that maximize the power-free gain g = SINR / p, by MM.

    With z = exp(-j phi), a = h_rd * h_sr and B = variance D R D^H + (noise/N) I
    (D = diag(h_rd)), g(z) = |a^H z|^2 / z^H B z on the unit-modulus torus.
    Each step maximizes the linear minorizer of the Dinkelbach surrogate
    z^H (a a^H + g (lam I - B)) z, which is a phase alignment:
    z <- exp(j arg(a (a^H z) + g (lam z - B z))), one product with R.  The
    surrogate is convex, so the step cannot lower g, once lam >= lambda_max(B);
    lam starts at the Rayleigh quotient z^H B z / N and doubles whenever a step
    fails to raise g, so no eigendecomposition is needed and g never falls.
    Starts from the noise-only phases and stops when g changes by at most
    ``tol`` (relative) in a step; warns instead of failing when ``max_iters``
    steps run out.
    """
    d = link.h_rd.coefficients
    a = link.h_sr.coefficients * d
    corr, variance = link.emi.correlation, link.emi.variance
    floor = link.noise_power_w / d.size

    def gain(z):
        bz = variance * d * (corr @ (d.conj() * z)) + floor * z
        return float(abs(np.vdot(a, z)) ** 2 / np.vdot(z, bz).real), bz

    phases = phases_noise_only(link.h_sr, link.h_rd).phases
    z = np.exp(-1j * phases)
    g, bz = gain(z)
    lam = np.vdot(z, bz).real / d.size
    converged = False
    iterations = 0
    while iterations < max_iters and not converged:
        iterations += 1
        angle = np.angle(a * np.vdot(a, z) + g * (lam * z - bz))
        candidate = np.exp(1j * angle)
        g_new, b_candidate = gain(candidate)
        converged = abs(g_new - g) <= tol * g
        if g_new > g:
            z, bz, g, phases = candidate, b_candidate, g_new, -angle
        else:
            lam *= 2.0
    if not converged:
        warnings.warn("phase optimization hit the iteration limit; returning best iterate",
                      RuntimeWarning, stacklevel=2)
    return OptimizedPhases(phases, iterations, converged)


def irs_min_power_emi_aware(target_rate: float, link: IrsLink, *,
                            tol: float = 1e-8, max_iters: int = 1000) -> IrsSolution:
    """Minimum power to reach ``target_rate`` with interference-aware phases.

    SINR = p g(phi), so the best phases do not depend on the power: they are
    found once by ``phases_emi_aware`` (``tol`` and ``max_iters`` are its
    own) and the power follows in closed form.  The result never exceeds the
    noise-only-phases power.  Raises InfeasibleError when it exceeds
    POWER_UPPER_W.
    """
    config = phases_emi_aware(link, tol=tol, max_iters=max_iters)
    power = capped_power(irs_required_power(target_rate, link, config), target_rate)
    return IrsSolution(power, config, config.iterations, config.converged)
