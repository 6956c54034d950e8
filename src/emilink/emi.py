"""Spatial correlation of electromagnetic interference across an array.

The interference field at the surface is zero-mean complex Gaussian with
covariance ``variance * R``.  For an isotropic angular power density the
correlation has the closed form ``R[n, m] = sinc(2 |u_n - u_m| / lambda)``;
for a general density it is the double integral of
``exp(j k(phi, theta)^T (u_n - u_m)) f(phi, theta)`` over the front
half-space of the array, evaluated here by tensor Gauss-Legendre
quadrature.  The isotropic density over that half-space is
``cos(theta) / (2 pi)``, which reproduces the sinc kernel for in-plane
element separations (the quadrature/closed-form agreement is checked by
the test suite).

The quadrature works on the element-offset lattice.  An ``ArrayLayout`` is
a rows x cols grid at pitch ``s`` in the local y-z plane, indexed row by
row (``ArrayLayout`` rejects anything else), so ``R[n, m]`` depends only on
the offset ``(r_n - r_m, c_n - c_m)``.  The kernel is evaluated once on
the (2 rows - 1) x (2 cols - 1) offsets and gathered into the N x N
matrix; the y (column) phase is summed over azimuth first and the z (row)
phase over elevation after it.  The closed form ``corr_isotropic`` keeps
its direct distance evaluation, so its output bytes do not move.

``build_emi_model`` projects only the sinc closed form onto the PSD cone
(``psd_project``, one eigendecomposition per layout in the sweeps).  The
quadrature matrix is a positively weighted sum of outer products, PSD by
construction, and is used as it is.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import NumericalError
from .scene import ArrayLayout

HALF_PI = np.pi / 2.0

# Gaussian densities are integrated over +-GAUSS_WINDOW_SIGMAS standard
# deviations (clipped to the front half-space) so that narrow densities
# remain resolved by the default node count.
GAUSS_WINDOW_SIGMAS = 8.0


@dataclass(frozen=True)
class AngularDensity:
    """Power angular density of the interference.

    ``kind`` is "isotropic" or "gaussian"; the gaussian form concentrates
    around (mean_azimuth, mean_elevation) with the given angular standard
    deviations and is normalized numerically over the front half-space.
    """

    kind: str
    mean_azimuth: float = 0.0
    mean_elevation: float = 0.0
    std_azimuth: float = 0.0
    std_elevation: float = 0.0

    def __post_init__(self):
        if self.kind not in ("isotropic", "gaussian"):
            raise ValueError(f"unknown density kind: {self.kind!r}")
        if self.kind == "gaussian" and (self.std_azimuth <= 0 or self.std_elevation <= 0):
            raise ValueError("gaussian density needs positive angular spreads")

    @staticmethod
    def isotropic() -> "AngularDensity":
        return AngularDensity("isotropic")

    @staticmethod
    def gaussian(mean_azimuth, mean_elevation, std_azimuth, std_elevation) -> "AngularDensity":
        return AngularDensity("gaussian", mean_azimuth, mean_elevation,
                              std_azimuth, std_elevation)


@dataclass(frozen=True)
class EmiModel:
    """Interference variance (W) plus its spatial correlation matrix."""

    variance: float
    density: AngularDensity
    correlation: np.ndarray

    def __post_init__(self):
        if self.variance < 0:
            raise ValueError("variance must be nonnegative")
        corr = np.asarray(self.correlation)
        if corr.ndim != 2 or corr.shape[0] != corr.shape[1]:
            raise ValueError("correlation must be a square matrix")
        object.__setattr__(self, "correlation", corr)

    @property
    def n_elements(self) -> int:
        return self.correlation.shape[0]


def corr_isotropic(layout: ArrayLayout, wavelength: float | None = None) -> np.ndarray:
    """Closed-form isotropic correlation sinc(2 d_nm / lambda)."""
    if wavelength is None:
        wavelength = layout.wavelength
    pos = layout.positions
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    return np.sinc(2.0 * dist / wavelength)


def _density_window(density: AngularDensity) -> tuple[float, float, float, float]:
    if density.kind == "isotropic":
        return -HALF_PI, HALF_PI, -HALF_PI, HALF_PI
    w_phi = GAUSS_WINDOW_SIGMAS * density.std_azimuth
    w_th = GAUSS_WINDOW_SIGMAS * density.std_elevation
    return (max(-HALF_PI, density.mean_azimuth - w_phi),
            min(HALF_PI, density.mean_azimuth + w_phi),
            max(-HALF_PI, density.mean_elevation - w_th),
            min(HALF_PI, density.mean_elevation + w_th))


@cache
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _quad_nodes(nodes: int, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    x, w = _leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _density_values(density: AngularDensity, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    # Unnormalized: the cos(theta) factor is the solid-angle Jacobian, so the
    # isotropic case is the uniform distribution over the front hemisphere.
    if density.kind == "isotropic":
        return np.cos(theta) / (2.0 * np.pi)
    return (np.exp(-0.5 * ((phi - density.mean_azimuth) / density.std_azimuth) ** 2)
            * np.exp(-0.5 * ((theta - density.mean_elevation) / density.std_elevation) ** 2)
            * np.cos(theta))


def _weighted_grid(density: AngularDensity, nodes: int):
    """Tensor rule nodes phi (P,), theta (T,) and unnormalized weights (P, T)."""
    phi_lo, phi_hi, th_lo, th_hi = _density_window(density)
    phi, w_phi = _quad_nodes(nodes, phi_lo, phi_hi)
    th, w_th = _quad_nodes(nodes, th_lo, th_hi)
    return phi, th, np.outer(w_phi, w_th) * _density_values(density, phi[:, None], th[None, :])


@cache
def _density_mass(density: AngularDensity, nodes: int) -> float:
    return float(np.sum(_weighted_grid(density, nodes)[2]))


def _corr_quadrature(layout: ArrayLayout, wavelength: float,
                     density: AngularDensity, nodes: int, mass: float) -> np.ndarray:
    phi, th, weight = _weighted_grid(density, nodes)
    ks = 2.0 * np.pi * layout.spacing / wavelength
    rows, cols = layout.rows, layout.cols
    # g[dc, t] = sum_p W[p, t] exp(j dc ks cos(theta_t) sin(phi_p)) for dc >= 0,
    # the exponential advanced by a running product over dc
    col_step = np.exp(1j * ks * np.outer(np.sin(phi), np.cos(th)))        # (P, T)
    g = np.empty((cols, th.size), dtype=complex)
    term = (weight / mass).astype(complex)
    for dc in range(cols):
        g[dc] = term.sum(axis=0)
        term *= col_step
    # kappa[dr, dc] = sum_t exp(j dr ks sin(theta_t)) g[dc, t], dr = -(rows-1)..rows-1
    dr = np.arange(1 - rows, rows)
    kappa = np.exp(1j * ks * np.outer(dr, np.sin(th))) @ g.T              # (2r-1, c)
    # kappa(-d) = conj kappa(d): the dc = 0 column is mirrored from dr >= 0 and
    # the origin pinned to 1, so the gathered matrix is exactly Hermitian.
    kappa[:rows - 1, 0] = kappa[:rows - 1:-1, 0].conj()
    kappa[rows - 1, 0] = 1.0
    lattice = np.concatenate([kappa[::-1, :0:-1].conj(), kappa], axis=1)  # (2r-1, 2c-1)
    r_idx, c_idx = np.divmod(np.arange(rows * cols), cols)
    return lattice[r_idx[:, None] - r_idx[None, :] + rows - 1,
                   c_idx[:, None] - c_idx[None, :] + cols - 1]


def corr_directional(layout: ArrayLayout, wavelength: float | None = None,
                     density: AngularDensity = AngularDensity.isotropic(),
                     nodes: int = 64) -> np.ndarray:
    """Correlation matrix for an arbitrary angular density by quadrature.

    The layout must be the row-major grid that ``ArrayLayout`` enforces:
    the kernel kappa(dr, dc) is built once per element offset, as
    sum_t exp(j dr ks sin(theta_t)) sum_p W[p, t] exp(j dc ks cos(theta_t) sin(phi_p))
    with ks = 2 pi spacing / wavelength and W the normalized tensor weights,
    for dc >= 0 only; kappa(-d) = conj kappa(d) fills the rest, so the
    result is exactly Hermitian.  The density is normalized to unit mass on
    its quadrature window, and the diagonal is exactly 1.  Raises
    NumericalError when the mass estimate has not converged to 1e-6
    (relative) under node doubling.
    """
    if layout.n_elements == 0:
        raise ValueError("layout must be non-empty")
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    if wavelength is None:
        wavelength = layout.wavelength

    mass = _density_mass(density, nodes)
    mass_fine = _density_mass(density, 2 * nodes)
    if mass <= 0 or not np.isfinite(mass) or abs(mass - mass_fine) > 1e-6 * abs(mass_fine):
        raise NumericalError(
            f"density normalization did not converge ({mass!r} vs {mass_fine!r}); "
            "increase the quadrature nodes")
    return _corr_quadrature(layout, wavelength, density, nodes, mass)


def corr_directional_error(layout: ArrayLayout, wavelength: float | None = None,
                           density: AngularDensity = AngularDensity.isotropic(),
                           nodes: int = 64) -> tuple[np.ndarray, float]:
    """corr_directional plus a conservative quadrature-error estimate.

    The estimate is the entrywise change from the half-resolution companion
    rule (which skips the convergence gate); for this spectrally convergent
    quadrature it upper-bounds the change a further node doubling can make.
    """
    fine = corr_directional(layout, wavelength, density, nodes)
    if wavelength is None:
        wavelength = layout.wavelength
    coarse_nodes = max(2, nodes // 2)
    coarse = _corr_quadrature(layout, wavelength, density, coarse_nodes,
                              _density_mass(density, coarse_nodes))
    return fine, float(np.abs(fine - coarse).max())


def psd_project(matrix: np.ndarray) -> np.ndarray:
    """Clip negative eigenvalues of a Hermitian matrix at zero."""
    m = np.asarray(matrix)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError("matrix must be square")
    if not np.allclose(m, m.conj().T, rtol=0.0, atol=1e-10 * max(1.0, np.abs(m).max())):
        raise ValueError("matrix must be Hermitian")
    vals, vecs = np.linalg.eigh(m)
    if vals.size and vals[0] >= 0.0:
        return m
    clipped = (vecs * np.maximum(vals, 0.0)) @ vecs.conj().T
    return 0.5 * (clipped + clipped.conj().T)


def emi_quadratic_form(v: np.ndarray, corr: np.ndarray) -> float:
    """||v^T R^(1/2)||^2 for a row vector v, computed as v^T R conj(v).

    Equals the interference power picked up by the combined row channel v;
    nonnegative for PSD R (tiny negative round-off is clipped to zero).
    """
    v = np.asarray(v)
    corr = np.asarray(corr)
    if v.ndim != 1 or corr.shape != (v.size, v.size):
        raise ValueError("dimension mismatch between vector and matrix")
    value = float(np.real(v @ corr @ v.conj()))
    return max(value, 0.0)


def build_emi_model(layout: ArrayLayout, variance: float,
                    density: AngularDensity, nodes: int = 64) -> EmiModel:
    """Assemble the correlation matrix for ``density`` and wrap it up.

    Isotropic densities use the sinc closed form, projected onto the PSD
    cone: sampled at arbitrary element distances the sinc kernel need not
    be PSD in floating point.  Anything else goes through the quadrature and
    is returned as it is: a sum of s s^H outer products with positive
    weights is PSD by construction, and projecting it would only move
    round-off at the cost of a full eigendecomposition.
    """
    if density.kind == "isotropic":
        return EmiModel(variance, density, psd_project(corr_isotropic(layout)))
    return EmiModel(variance, density, corr_directional(layout, density=density, nodes=nodes))
