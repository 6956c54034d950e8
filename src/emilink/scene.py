"""Geometry, planar array layouts, LoS channels and link-budget arithmetic.

Conventions used throughout the package:

* azimuth phi is measured in the array's local horizontal plane, elevation
  theta from the horizontal plane, so a unit propagation direction is
  (cos(theta)cos(phi), cos(theta)sin(phi), sin(theta)) and local broadside
  is phi = theta = 0 (the local +x axis).
* an array layout is a rows x cols grid in the local y-z plane (columns
  along y, rows along z) at half-wavelength pitch; its element positions
  follow from the grid, with the centroid at the local origin.  The 3x3
  rotation taking local coordinates to global ones (the orientation)
  belongs to the caller, who passes it to ``angles_between``; the layout
  does not hold it.
* a position is three finite coordinates in metres, a tuple of floats in
  ``Scenario``; the helpers here take any array-like of three.
* a channel is a plain 1-d complex array, one coefficient per element.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s


@dataclass(frozen=True)
class ArrayLayout:
    """Rectangular rows x cols grid of array elements in the local y-z plane,
    at half-wavelength pitch, indexed row by row: element n sits in row and
    column ``(r, c) = divmod(n, cols)``.  The cached ``positions`` are the
    (N, 3) local element centres, ``(0, c, r) * spacing`` shifted so that the
    centroid is the local origin.
    """

    rows: int
    cols: int
    wavelength: float

    def __post_init__(self):
        if not all(isinstance(n, (int, np.integer)) and n >= 1 for n in (self.rows, self.cols)):
            raise ValueError("rows and cols must be whole numbers >= 1")
        if not 0.0 < self.spacing < math.inf:
            raise ValueError(f"wavelength {self.wavelength!r} gives a half-wavelength spacing "
                             f"that is not finite and positive")

    @property
    def spacing(self) -> float:
        return self.wavelength / 2.0

    @cached_property
    def positions(self) -> np.ndarray:
        r, c = np.divmod(np.arange(self.n_elements), self.cols)
        y = (c + 0.5 - self.cols / 2.0) * self.spacing
        z = (r + 0.5 - self.rows / 2.0) * self.spacing
        return np.column_stack([np.zeros_like(y), y, z])

    @property
    def n_elements(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class LinkBudget:
    """Carrier, noise and antenna-gain bookkeeping.

    ``noise_power_w`` is the thermal noise power in watts; antenna gains are
    in dBi, split between the IRS/relay node side and the terminal side.
    """

    carrier_frequency_ghz: float = 3.0
    noise_power_w: float = 10.0 ** ((-94.0 - 30.0) / 10.0)
    gain_node_dbi: float = 5.0
    gain_endpoint_dbi: float = 0.0

    def __post_init__(self):
        for name in ("carrier_frequency_ghz", "noise_power_w", "gain_node_dbi",
                     "gain_endpoint_dbi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.carrier_frequency_ghz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.noise_power_w <= 0:
            raise ValueError("noise power must be positive")
        if not (0.0 < self.wavelength < math.inf and 0.0 < self.wavelength / 2.0 < math.inf):
            raise ValueError(f"carrier_frequency_ghz {self.carrier_frequency_ghz!r} gives a "
                             f"wavelength or half-wavelength spacing that is not finite and "
                             f"positive ({self.wavelength!r} m)")
        gain_db = self.gain_node_dbi + self.gain_endpoint_dbi
        try:
            gain = 10.0 ** (gain_db / 10.0)
        except OverflowError:
            gain = math.inf
        if not 0.0 < gain < math.inf:
            raise ValueError(f"gain_node_dbi + gain_endpoint_dbi = {gain_db!r} dBi gives a "
                             f"linear antenna gain that is not finite and nonzero")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / (self.carrier_frequency_ghz * 1e9)


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(x_w: float) -> float:
    return 10.0 * math.log10(x_w) + 30.0


def wave_vector(azimuth: float, elevation: float, wavelength: float) -> np.ndarray:
    """Wave vector k(phi, theta) with norm 2*pi/wavelength, in rad/m."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    k = 2.0 * math.pi / wavelength
    ct = math.cos(elevation)
    return np.array([k * ct * math.cos(azimuth), k * ct * math.sin(azimuth),
                     k * math.sin(elevation)])


def make_layout(n_elements: int, wavelength: float) -> ArrayLayout:
    """Build a half-wavelength rectangular grid with n_elements elements.

    The rows x cols factorization is the exact factor pair closest to a
    square (rows <= cols, cols - rows minimal); build ``ArrayLayout``
    directly for any other shape.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    rows = int(math.isqrt(n_elements))
    while n_elements % rows:
        rows -= 1
    return ArrayLayout(rows, n_elements // rows, wavelength)


def angles_between(origin, target, orientation: np.ndarray) -> tuple[float, float]:
    """Azimuth/elevation of ``target`` as seen from ``origin``.

    The global direction is rotated into the local frame of the 3x3
    ``orientation`` (local to global) before the angles are read off; phi
    falls in (-pi, pi], theta in [-pi/2, pi/2], with phi = 0 at the poles.
    """
    d = np.asarray(target, dtype=float) - np.asarray(origin, dtype=float)
    if not np.isfinite(d).all():
        raise ValueError("origin and target positions must be finite")
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("origin and target coincide")
    local = np.asarray(orientation).T @ (d / norm)
    elevation = math.asin(min(1.0, max(-1.0, local[2])))
    azimuth = math.atan2(local[1], local[0])
    if abs(abs(elevation) - math.pi / 2.0) < 1e-15:
        azimuth = 0.0
    return azimuth, elevation


def los_channel(gain: float, azimuth: float, elevation: float, layout: ArrayLayout) -> np.ndarray:
    """LoS channel sqrt(gain) * exp(j k^T u_n) over the layout, a complex array."""
    if not gain >= 0:
        raise ValueError("channel gain must be nonnegative")
    k = wave_vector(azimuth, elevation, layout.wavelength)
    return math.sqrt(gain) * np.exp(1j * (layout.positions @ k))


def pathloss_umi(distance: float, budget: LinkBudget) -> float:
    """Linear channel gain of one hop under the urban-micro LoS model.

    PL[dB] = 22 log10(d) + 28 + 20 log10(f_GHz), reduced by the node and
    endpoint antenna gains.  Valid for distances of at least 1 m.
    """
    if distance < 1.0:
        raise ValueError("distance below model validity (< 1 m)")
    pl_db = (22.0 * math.log10(distance) + 28.0
             + 20.0 * math.log10(budget.carrier_frequency_ghz))
    return 10.0 ** (-(pl_db - budget.gain_node_dbi - budget.gain_endpoint_dbi) / 10.0)
