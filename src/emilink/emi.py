"""Spatial correlation of electromagnetic interference across an array.

The interference field at the surface is zero-mean complex Gaussian with
covariance ``variance * R``.  The correlation R is returned as a plain
array and the variance stays with its user: the surface link ``IrsLink``
holds both, and the relay sweep forms ``variance * R + noise * I``.  For
an isotropic angular power density the correlation has the closed form
``R[n, m] = sinc(2 |u_n - u_m| / lambda)``; for a general density it is
the double integral of ``exp(j k(phi, theta)^T (u_n - u_m)) f(phi, theta)``
over the front half-space of the array, evaluated here by tensor
Gauss-Legendre quadrature.

Both correlations are built on the element-offset lattice.  An
``ArrayLayout`` is a rows x cols grid at half-wavelength pitch, indexed row
by row, so ``R[n, m]`` depends only on the offset (r_n - r_m, c_n - c_m),
and the sinc only on the offset's length, counted in half wavelengths.  A
kernel is evaluated once per offset of a lattice centred on (0, 0), and
``gather`` copies a layout's matrix out of a strided window on it, so only
emi knows the lattice's format.  No entry of either kernel depends on the
lattice's extent: the sinc is taken offset by offset, and the quadrature
kernel sums the column phase over azimuth by a running product over the
column offset and the row phase over elevation by an einsum, not a BLAS
product, whose rounding would change with the shape.  So one kernel over a
figure's largest rows and columns, sinc or quadrature, gives every array of
the figure its own ``corr_isotropic`` or ``corr_directional``, bit for bit.
The interference u^H R u that a plane wave u picks up (a surface with the
noise-only phases, an MR relay) is one sum over the same window of the
kernel and of the wave's own lattice of phases, ``plane_wave_form``: O(N)
work and no N x N array.  emi keeps no memo besides the read-only
Gauss-Legendre rules.

Both correlations are used as built, with no projection onto the PSD cone.
The quadrature matrix is a positively weighted sum of outer products.  The
sinc kernel sin(kd)/(kd) is a positive-definite function on R^3 (Bochner's
theorem: it is the Fourier transform of the uniform measure on the
sphere), so the sampled matrix is PSD in exact arithmetic.  On the
half-wavelength grids its smallest eigenvalue stays >= 6e-11 of the
largest for every N up to 400; round-off pushes it below zero on far
larger grids (-1.4e-16 of the largest at N = 1225, -3.1e-16 at 1600).
Every consumer tolerates round-off of that size: both forms clip at 0,
and the MMSE covariance and the surface optimizer's MM matrix both add a
positive noise term.  ``psd_project`` stays available as a standalone
utility; no sweep calls it.

The sinc correlation is real (float64) and the quadrature one complex.
``corr_matvec`` multiplies a real R by a complex vector in real arithmetic,
as one two-column real product that reads R once, because numpy would
otherwise copy all of R to complex for every product; the quadratic form
and the surface optimizer take their products with R through it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import NumericalError
from .scene import ArrayLayout

HALF_PI = np.pi / 2.0

# Gaussian densities are integrated over +-GAUSS_WINDOW_SIGMAS standard
# deviations (clipped to the front half-space), so that a narrow density is
# resolved in angle.  That says nothing of the phase across the array: the
# QUADRATURE_NODES per axis that the sweeps use under-resolve grids with many
# columns, fig8's 1 x M, 2 x M/2 and 3 x 23 relays (see the strict xfail
# test_acceptance.py::test_fig8_case2_relay_rows_are_resolved_by_the_quadrature).
GAUSS_WINDOW_SIGMAS = 8.0
QUADRATURE_NODES = 64


@dataclass(frozen=True)
class AngularDensity:
    """Power angular density of the interference.

    A gaussian around (mean_azimuth, mean_elevation) with the given angular
    standard deviations, normalized numerically over the front half-space.
    Infinite spreads give the isotropic density (``isotropic()``): the
    window is then the whole half-space and the exponent exactly 0.  A mean
    whose +-GAUSS_WINDOW_SIGMAS window misses the half-space is rejected.
    """

    mean_azimuth: float
    mean_elevation: float
    std_azimuth: float
    std_elevation: float

    def __post_init__(self):
        if not (np.isfinite(self.mean_azimuth) and np.isfinite(self.mean_elevation)):
            raise ValueError("angular density needs a finite mean azimuth and elevation, got "
                             f"{self.mean_azimuth!r} and {self.mean_elevation!r}")
        if not (self.std_azimuth > 0 and self.std_elevation > 0):
            raise ValueError("angular density needs positive angular spreads")
        for mean, std in ((self.mean_azimuth, self.std_azimuth),
                          (self.mean_elevation, self.std_elevation)):
            if abs(mean) - GAUSS_WINDOW_SIGMAS * std >= HALF_PI:
                raise ValueError(f"angular density mean {mean!r} lies more than "
                                 f"{GAUSS_WINDOW_SIGMAS:g} spreads outside the front "
                                 "half-space [-pi/2, pi/2]")

    @staticmethod
    def isotropic() -> "AngularDensity":
        return AngularDensity(0.0, 0.0, np.inf, np.inf)


def isotropic_kernel(layout: ArrayLayout) -> np.ndarray:
    """The sinc on the offset lattice of ``layout``, as ``directional_kernel`` lays it out."""
    dr, dc = np.arange(1 - layout.rows, layout.rows), np.arange(1 - layout.cols, layout.cols)
    return np.sinc(np.hypot(dr[:, None], dc[None, :]))


def corr_isotropic(layout: ArrayLayout) -> np.ndarray:
    """Closed-form isotropic correlation sinc(2 d_nm / lambda), one sinc per offset."""
    return gather(isotropic_kernel(layout), layout)


@cache
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per count."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _axis_rule(mean: float, std: float, nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on mean +- GAUSS_WINDOW_SIGMAS std,
    clipped to the front half-space [-pi/2, pi/2]."""
    width = GAUSS_WINDOW_SIGMAS * std
    lo, hi = max(-HALF_PI, mean - width), min(HALF_PI, mean + width)
    x, w = _leggauss(nodes)
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    return mid + half * x, half * w


def _weighted_grid(density: AngularDensity, nodes: int):
    """Tensor rule nodes phi (P,), theta (T,) and unnormalized weights (P, T); the
    cos(theta) solid-angle Jacobian makes infinite spreads uniform on the hemisphere."""
    phi, w_phi = _axis_rule(density.mean_azimuth, density.std_azimuth, nodes)
    th, w_th = _axis_rule(density.mean_elevation, density.std_elevation, nodes)
    z_phi = (phi[:, None] - density.mean_azimuth) / density.std_azimuth
    z_th = (th[None, :] - density.mean_elevation) / density.std_elevation
    values = np.exp(-0.5 * z_phi ** 2) * np.exp(-0.5 * z_th ** 2) * np.cos(th[None, :])
    return phi, th, np.outer(w_phi, w_th) * values


def directional_kernel(density: AngularDensity, nodes: int, layout: ArrayLayout) -> np.ndarray:
    """Quadrature kernel on the (2 rows - 1) x (2 cols - 1) offset lattice of
    ``layout``, which ``gather`` reads for that layout or any grid it contains:
    kappa(dr, dc) = sum_t exp(j dr ks sin(theta_t)) g[dc, t] with column sums
    g[dc, t] = sum_p W[p, t] exp(j dc ks cos(theta_t) sin(phi_p)), ks = 2 pi
    spacing / wavelength and W the tensor weights normalized to unit mass on
    the density's window.  It is taken for dc >= 0 only; kappa(-d) = conj
    kappa(d) fills the rest and the origin is exactly 1.  Raises NumericalError
    when the mass has not converged to 1e-6 (relative) under node doubling.
    """
    rows, cols = layout.rows, layout.cols
    ks = 2.0 * np.pi * layout.spacing / layout.wavelength
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes per axis")
    mass_fine = float(np.sum(_weighted_grid(density, 2 * nodes)[2]))
    phi, theta, weight = _weighted_grid(density, nodes)
    mass = float(np.sum(weight))
    if mass <= 0 or not np.isfinite(mass) or abs(mass - mass_fine) > 1e-6 * abs(mass_fine):
        raise NumericalError(
            f"density normalization did not converge ({mass!r} vs {mass_fine!r}); "
            "increase the quadrature nodes")
    step = np.exp(1j * ks * np.outer(np.sin(phi), np.cos(theta)))  # (P, T)
    term, g = (weight / mass).astype(complex), np.empty((cols, theta.size), complex)
    for dc in range(cols):
        g[dc] = term.sum(axis=0)
        term *= step
    row_phase = np.exp(1j * ks * np.outer(np.arange(1 - rows, rows), np.sin(theta)))
    kappa = np.einsum("rt,ct->rc", row_phase, g)  # (2 rows - 1, cols), dc >= 0
    # the dc = 0 column is mirrored from dr >= 0 and the origin pinned to 1, so a
    # gathered matrix is exactly Hermitian
    kappa[:rows - 1, 0] = kappa[:rows - 1:-1, 0].conj()
    kappa[rows - 1, 0] = 1.0
    return np.concatenate([kappa[::-1, :0:-1].conj(), kappa], axis=1)


def _window(lattice: np.ndarray, layout: ArrayLayout) -> np.ndarray:
    """The view of a lattice centred on offset (0, 0) that holds the layout's offsets."""
    rows, cols = layout.rows, layout.cols
    r0, c0 = (lattice.shape[0] + 1) // 2 - rows, (lattice.shape[1] + 1) // 2 - cols
    if r0 < 0 or c0 < 0:
        raise ValueError(f"a {lattice.shape} lattice does not span the offsets of a "
                         f"{rows} x {cols} layout")
    return lattice[r0:r0 + 2 * rows - 1, c0:c0 + 2 * cols - 1]


def gather(lattice: np.ndarray, layout: ArrayLayout) -> np.ndarray:
    """The layout's correlation matrix, a new array, from a kernel lattice centred
    on offset (0, 0) that spans at least the layout's offsets: the window entry
    (r_n, c_n, r_m, c_m) steps from offset (0, 0) to (r_n - r_m, c_n - c_m)."""
    rows, cols = layout.rows, layout.cols
    origin = _window(lattice, layout)[rows - 1:, cols - 1:]
    s0, s1 = origin.strides
    window = as_strided(origin, (rows, cols, rows, cols), (s0, s1, -s0, -s1), writeable=False)
    # copied before the reshape: a 1-row or 1-column window would reshape to a
    # read-only, negatively strided view of the lattice
    return window.copy().reshape(layout.n_elements, layout.n_elements)


def plane_wave_lattice(layout: ArrayLayout, wave: np.ndarray) -> np.ndarray:
    """exp(-j s (wave_z dr + wave_y dc)) on the offset lattice of ``layout``, s the
    spacing and wave in the layout's frame (``scene.wave_vector``), which
    ``plane_wave_form`` reads for that layout or any grid it contains.  Each axis's
    phase is reduced exactly before it is rounded: s wave / pi, in half turns, splits
    into a head on a 2^-40 grid, whose products with the offsets (fewer than 2^12 a
    side) are exact, and a small tail.  Rounding s wave d itself put up to 1e-14 rad
    on a phase, 5e-12 of a form whose terms cancel (1 x 61 relay, case-2 EMI)."""
    phases = []
    for count, half_turns in ((layout.rows, layout.spacing * wave[2] / np.pi),
                              (layout.cols, layout.spacing * wave[1] / np.pi)):
        d = np.arange(1 - count, count)
        head = np.round(half_turns * 2.0 ** 40) / 2.0 ** 40
        turns = head * d - 2.0 * np.round(head * d / 2.0) + (half_turns - head) * d
        phases.append(np.exp(-1j * np.pi * turns))
    return phases[0][:, None] * phases[1]


def plane_wave_form(lattice: np.ndarray, layout: ArrayLayout, wave_lattice: np.ndarray) -> float:
    """u^H R u, R = gather(lattice, layout), for the plane wave u_n = exp(j wave^T p_n)
    at the element positions p_n, given its ``plane_wave_lattice``, with no N x N
    array: the (rows - |dr|)(cols - |dc|) pairs at offset (dr, dc) share its kernel
    value and its phase.  Clipped at 0, as ``emi_quadratic_form`` is."""
    rows, cols = layout.rows, layout.cols
    pairs = np.outer(rows - np.abs(np.arange(1 - rows, rows)),
                     cols - np.abs(np.arange(1 - cols, cols)))
    terms = pairs * _window(lattice, layout) * _window(wave_lattice, layout)
    return max(float(terms.sum().real), 0.0)


def corr_directional(layout: ArrayLayout, density: AngularDensity, nodes: int) -> np.ndarray:
    """Correlation matrix for an arbitrary angular density by quadrature, exactly
    Hermitian with a unit diagonal: ``directional_kernel`` over the layout's
    offsets, gathered, bit for bit as if gathered from any larger kernel."""
    return gather(directional_kernel(density, nodes, layout), layout)


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


def corr_matvec(corr: np.ndarray, x: np.ndarray) -> np.ndarray:
    """R x for a complex vector x.

    A complex R takes ``corr @ x``.  A real R (the isotropic sinc) is applied
    in real arithmetic, by one two-column real product with x viewed as an
    (N, 2) array of real and imaginary parts, which reads R once:
    ``corr @ x`` would first copy all of R to complex.
    """
    if np.iscomplexobj(corr):
        return corr @ x
    parts = np.ascontiguousarray(x, dtype=complex).view(float).reshape(-1, 2)
    return (corr @ parts).view(complex).ravel()


def emi_quadratic_form(v: np.ndarray, corr: np.ndarray) -> float:
    """||v^T R^(1/2)||^2 for a row vector v, computed as v^T R conj(v).

    Equals the interference power picked up by the combined row channel v;
    nonnegative for PSD R (tiny negative round-off is clipped to zero).  A
    real R is applied by ``corr_matvec`` in real arithmetic.
    """
    v, corr = np.asarray(v), np.asarray(corr)
    if v.ndim != 1 or corr.shape != (v.size, v.size):
        raise ValueError("dimension mismatch between vector and matrix")
    # a complex R keeps (v @ R) @ conj(v); R @ conj(v) first would round differently
    value = v @ corr @ v.conj() if np.iscomplexobj(corr) else v @ corr_matvec(corr, v.conj())
    return max(float(np.real(value)), 0.0)
