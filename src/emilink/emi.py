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
Gauss-Legendre rules.  The two that the sweeps use, 64 nodes and the mass
check's 128, are stored in the module as numpy's own bits, so a figure run
imports no numpy.polynomial and solves no eigenproblem for them.

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


# The Gauss-Legendre rules of the two counts that the sweeps use,
# QUADRATURE_NODES and the mass check's doubling: the nonnegative halves of
# numpy.polynomial.legendre.leggauss(n), n/2 nodes ascending and then their
# weights, as little-endian float64 in hex (a table of float literals costs
# more memory to compile).
_STORED_RULES = {
    64: ("32bc8c7a48ef983fd05ae95eadafb23f268a8ef42f18bf3f0fc0d58ae8b6c53f3bc89eb789d4cb3f"
         "9ce4566ca2f0d03fcb766cc4b6ecd33fff0f62f0b1dcd63f9d2c2755cbbed93fc58f89c54291dc3f"
         "a1c357926152df3f340f60ca3d00e13f7f482519f84ce23fc3b3e7ac958ee33f12b4683c53c4e43f"
         "832f53b474ede53fc4126fa94509e73f8ec62ec61917e83fe22554334d16e93fb88d6dfb4406ea3f"
         "c6dbee686fe6ea3f2caead5e44b6eb3fad0d8caa4575ec3f8a282152ff22ed3fafa535d907bfed3f"
         "1b89f2810049ee3faa8fb58695c0ee3fbcaab54d7e25ef3fdafa6c977d77ef3fa9858cac61b6ef3f"
         "cc4e27ab04e2ef3f33751f914efaef3f5d2eee6705eea83fdc2c1938e2dea83fc0767609a5c0a83f"
         "b9e37f386093a83f3db5fb412f57a83f21dd4bb2360ca83fe2cd3c0fa4b2a73fb94f61bcad4aa73f"
         "10250cda92d4a63ffc8dfb1e9b50a63f31f4cdac16bfa53fe2365adf5d20a53f30280917d174a43f"
         "1ede507ed8bca33fe37475cae3f8a23fbdc8b5f76929a23fe3920d01e94ea13f6823b993e569a03f"
         "b8b4537dd5f59e3f46f93a3c13059d3f760c1c07b2029b3f12466834eaef983f6ea3bb10fecd963f"
         "3c14d21b399e943fd6a2a740ef61923fd9985c0a7c1a903fd9f85db383928b3fea4de84d52df863f"
         "3cd30901401e823fa35a14246ba47a3f553bacc37afc703fdfda45189f375d3f"),
    128: ("240b2d1abd08893f3ef150ae98c5a23f5e6ca6cb2246af3f61c8f6f4f1e0b53fe891fb87791bbc3f"
          "82f5b412da28c13f42491f3e5741c43f34ac9204bb56c73ffd27ca9d8c68ca3fe7ed60cd5376cd3f"
          "fdfa9b7acc3fd03f4fb3e193f2c1d13fdf7b1e1d6141d33f6d445c6bddbdd43fd1120c472d37d63f"
          "005deef416add73fdd5de83e611fd93fcd0ac57cd38dda3f3d53e09c35f8db3f7756bb2c505edd3f"
          "d13f7861ecbfde3f693e1e106a0ee03f82023c0369bae03f873708b9d863e13fa849b7449f0ae23f"
          "2bc0b621a3aee23f54c59437cb4fe33feb22d7ddfeede33f0f1dc1df2589e43f8b9707802821e53f"
          "91f4727cefb5e53fa71e6e116447e63f4d3282fd6fd5e63f0b3fbe84fd5fe73f6c9a0a74f7e6e73f"
          "be426724496ae83f81d2147edee9e83fd388a7fba365e93f66ee03ad86dde93f26a2443a7451ea3f"
          "0bdc88e65ac1ea3f5e38ab92292deb3f3261e0bfcf94eb3fb82f3d923df8eb3ff1e223d36357ec3f"
          "200d98f333b2ec3f91dd780ea008ed3fb370a1ea9a5aed3ffed4eefc17a8ed3f7a782b6a0bf1ed3f"
          "c0b8df086a35ee3f235707632975ee3fb39dabb73fb0ee3f961362fca3e6ee3f60bfafde4d18ef3f"
          "703751c53545ef3f385468d1546def3f9eca91dfa490ef3fb204e98820afef3f1ba00d24c3c8ef3f"
          "370b70c688ddef3f374f1f476eedef3f28c1184b71f8ef3fa6b66ec390feef3fc6fdd1616b08993f"
          "4f980fd99604993faa2b925deefc983fbe7f511b73f1983f74e007d426e2983f074eedde0bcf983f"
          "83cd5b2825b8983f14e85c31769d983f646a200f037f983f74785c6ad05c983fce0f977ee336983f"
          "13125919420d983f6af94a99f2df973f9b573bedfbae973f04470f93657a973fb2f79c963742973f"
          "0a8370907a06973fac397ba437c7963fc19bad807884963fe6347c5b473e963f25944ff2aef4953f"
          "0c9fdf87baa7953ff87c7ae27557953fcb62374aed03953f3f8015872dad943f815e07df4353943f"
          "25f5ea133ef6933fc9cd6e612a96933fe980e47a1733933f79e6008914cd923f49508a273164923f"
          "7128f5627df8913fd754efb5098a913f87b9da06e718913fb34537a526a5903f8ce7fc46da2e903f"
          "65adcb0b286c8f3f333153b9cc758e3fcd675248c87a8d3f50f41921417b8c3f82bca85c5e778b3f"
          "2495b0be476f8a3f15dc80af2563893f34fad7352153883fd9b39cf0633f873f4e6080101828863f"
          "71188b51680d853f74d892f47fef833f54fb9eb88ace823f6a5739d4b4aa813fcbabaeee2a84803f"
          "716e813234b67e3f968f9a905f5f7c3f8d38e09833047a3f971355970ca5773f241351754742753f"
          "f91eb5ac41dc723fabc0eb3c5973703f8861274ad90f6c3f73fdaeddb534673ff91e85f30756623f"
          "eea3eb2f28e95a3fe7325ad07422513f9e3426875c733d3f"),
}


@cache
def _leggauss(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [-1, 1], built once per count.  The
    64- and 128-node rules are ``_STORED_RULES`` mirrored about 0: numpy's rules
    are exactly symmetric, so these are numpy's bits, read with no import of
    numpy.polynomial and no eigenproblem.  Any other count is numpy's ``leggauss``."""
    if nodes in _STORED_RULES:
        x, w = np.frombuffer(bytes.fromhex(_STORED_RULES[nodes]), "<f8").reshape(2, -1)
        x, w = np.concatenate([-x[::-1], x]), np.concatenate([w[::-1], w])
    else:
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


def _axes(density: AngularDensity, nodes: int):
    """(nodes, weights, gaussian factor exp(-z^2 / 2)) on the azimuth axis, then on
    the elevation axis, of the tensor rule with ``nodes`` per axis."""
    axes = []
    for mean, std in ((density.mean_azimuth, density.std_azimuth),
                      (density.mean_elevation, density.std_elevation)):
        x, w = _axis_rule(mean, std, nodes)
        axes.append((x, w, np.exp(-0.5 * ((x - mean) / std) ** 2)))
    return axes


def _weighted_grid(density: AngularDensity, nodes: int):
    """Tensor rule nodes phi (P,), theta (T,) and unnormalized weights (P, T); the
    cos(theta) solid-angle Jacobian makes infinite spreads uniform on the hemisphere."""
    (phi, w_phi, g_phi), (th, w_th, g_th) = _axes(density, nodes)
    return phi, th, np.outer(w_phi, w_th) * (g_phi[:, None] * g_th * np.cos(th))


def _mass(density: AngularDensity, nodes: int) -> float:
    """The sum of ``_weighted_grid``'s weights, taken as the product of its two
    one-axis sums, with no (P, T) grid; it differs from that sum by round-off."""
    (_, w_phi, g_phi), (th, w_th, g_th) = _axes(density, nodes)
    return float(np.sum(w_phi * g_phi) * np.sum(w_th * g_th * np.cos(th)))


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
    mass_fine = _mass(density, 2 * nodes)
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
