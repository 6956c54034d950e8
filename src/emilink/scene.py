"""Geometry, planar array layouts, LoS channels and link-budget arithmetic.

Conventions used throughout the package:

* azimuth phi is measured in the array's local horizontal plane, elevation
  theta from the horizontal plane, so a unit propagation direction is
  (cos(theta)cos(phi), cos(theta)sin(phi), sin(theta)) and local broadside
  is phi = theta = 0 (the local +x axis).
* array layouts live in the local y-z plane (grid columns along y, rows
  along z) with the centroid at the local origin; ``orientation`` is the
  3x3 rotation taking local coordinates to global ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s

# Default surface orientation: local broadside (+x) points along global -y,
# local y along global +x, local z stays vertical.  With the node placed at
# (60, 10, 0) this faces the surface toward the source-destination line.
DEFAULT_ORIENTATION = np.array([
    [0.0, 1.0, 0.0],
    [-1.0, 0.0, 0.0],
    [0.0, 0.0, 1.0],
])


@dataclass(frozen=True)
class Vec3:
    """A 3-d position or direction in metres (rad/m when a wave vector)."""

    x: float
    y: float
    z: float

    def __post_init__(self):
        if not all(math.isfinite(c) for c in (self.x, self.y, self.z)):
            raise ValueError("Vec3 components must be finite")

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])

    @staticmethod
    def of(value) -> "Vec3":
        if isinstance(value, Vec3):
            return value
        x, y, z = value
        return Vec3(float(x), float(y), float(z))


@dataclass(frozen=True)
class ArrayLayout:
    """Rectangular grid of array elements in the local y-z plane.

    ``positions`` is an (N, 3) array of local element centres indexed
    row-by-row: element ``n = r * cols + c`` sits at ``(0, c, r) * spacing``
    up to a translation common to all elements (checked to 1e-9 spacing).
    ``orientation`` maps local to global coordinates.
    """

    positions: np.ndarray
    rows: int
    cols: int
    spacing: float
    wavelength: float
    orientation: np.ndarray = field(default_factory=lambda: DEFAULT_ORIENTATION.copy())

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] == 0:
            raise ValueError("positions must be a non-empty (N, 3) array")
        if self.rows * self.cols != pos.shape[0]:
            raise ValueError("rows * cols must equal the number of elements")
        if self.wavelength <= 0:
            raise ValueError("wavelength must be positive")
        if not self.spacing > 0:
            raise ValueError("spacing must be positive")
        r_idx, c_idx = np.divmod(np.arange(pos.shape[0]), self.cols)
        offsets = np.column_stack([np.zeros(pos.shape[0]), c_idx, r_idx]) * self.spacing
        if not np.abs(pos - pos[0] - offsets).max() <= 1e-9 * self.spacing:
            raise ValueError(f"positions must be the row-major {self.rows}x{self.cols} grid "
                             f"at spacing {self.spacing!r} in the local y-z plane")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "orientation", np.asarray(self.orientation, dtype=float))

    @property
    def n_elements(self) -> int:
        return self.positions.shape[0]


@dataclass(frozen=True)
class LosChannel:
    """Single-path line-of-sight channel toward a planar array.

    ``coefficients[n] = sqrt(gain) * exp(j k(azimuth, elevation)^T u_n)``
    so every coefficient has modulus sqrt(gain).
    """

    gain: float
    azimuth: float
    elevation: float
    coefficients: np.ndarray

    @property
    def n_elements(self) -> int:
        return self.coefficients.shape[0]


@dataclass(frozen=True)
class LinkBudget:
    """Carrier, bandwidth, noise and antenna-gain bookkeeping.

    ``noise_power_w`` is the thermal noise power in watts; antenna gains are
    in dBi, split between the IRS/relay node side and the terminal side.
    """

    carrier_frequency_ghz: float = 3.0
    bandwidth_hz: float = 10e6
    noise_power_w: float = 10.0 ** ((-94.0 - 30.0) / 10.0)
    gain_node_dbi: float = 5.0
    gain_endpoint_dbi: float = 0.0

    def __post_init__(self):
        if self.carrier_frequency_ghz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.noise_power_w <= 0:
            raise ValueError("noise power must be positive")

    @property
    def wavelength(self) -> float:
        return SPEED_OF_LIGHT / (self.carrier_frequency_ghz * 1e9)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


def dbm_to_watt(x_dbm: float) -> float:
    return 10.0 ** ((x_dbm - 30.0) / 10.0)


def watt_to_dbm(x_w: float) -> float:
    return 10.0 * math.log10(x_w) + 30.0


def wave_vector(azimuth: float, elevation: float, wavelength: float) -> Vec3:
    """Wave vector k(phi, theta) with norm 2*pi/wavelength, in rad/m."""
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    k = 2.0 * math.pi / wavelength
    ct = math.cos(elevation)
    return Vec3(k * ct * math.cos(azimuth), k * ct * math.sin(azimuth), k * math.sin(elevation))


def make_layout(n_elements: int, wavelength: float, rows_override: int | None = None,
                orientation: np.ndarray | None = None) -> ArrayLayout:
    """Build a half-wavelength rectangular grid with n_elements elements.

    The rows x cols factorization is the exact factor pair closest to a
    square (rows <= cols, cols - rows minimal); pass ``rows_override`` to
    force a specific row count.  Element centres are spaced wavelength/2
    apart and shifted so the centroid sits at the local origin.
    """
    if n_elements < 1:
        raise ValueError("need at least one element")
    if wavelength <= 0:
        raise ValueError("wavelength must be positive")
    if rows_override is not None:
        if rows_override < 1 or n_elements % rows_override:
            raise ValueError("rows_override must divide the element count")
        rows = rows_override
    else:
        rows = int(math.isqrt(n_elements))
        while n_elements % rows:
            rows -= 1
    cols = n_elements // rows
    spacing = wavelength / 2.0
    r_idx, c_idx = np.meshgrid(np.arange(1, rows + 1), np.arange(1, cols + 1), indexing="ij")
    y = (c_idx.ravel() - 0.5 - cols / 2.0) * spacing
    z = (r_idx.ravel() - 0.5 - rows / 2.0) * spacing
    positions = np.column_stack([np.zeros_like(y), y, z])
    if orientation is None:
        orientation = DEFAULT_ORIENTATION.copy()
    return ArrayLayout(positions, rows, cols, spacing, wavelength, orientation)


def angles_between(origin, target, orientation: np.ndarray | None = None) -> tuple[float, float]:
    """Azimuth/elevation of ``target`` as seen from ``origin``.

    The global direction is rotated into the array's local frame before the
    angles are read off; phi falls in (-pi, pi], theta in [-pi/2, pi/2],
    with phi = 0 at the poles.
    """
    o = Vec3.of(origin).as_array()
    t = Vec3.of(target).as_array()
    d = t - o
    norm = np.linalg.norm(d)
    if norm == 0.0:
        raise ValueError("origin and target coincide")
    if orientation is None:
        orientation = DEFAULT_ORIENTATION
    local = np.asarray(orientation).T @ (d / norm)
    elevation = math.asin(min(1.0, max(-1.0, local[2])))
    azimuth = math.atan2(local[1], local[0])
    if abs(abs(elevation) - math.pi / 2.0) < 1e-15:
        azimuth = 0.0
    return azimuth, elevation


def los_channel(gain: float, azimuth: float, elevation: float, layout: ArrayLayout) -> LosChannel:
    """LoS channel vector sqrt(gain) * exp(j k^T u_n) over the layout."""
    if gain < 0:
        raise ValueError("channel gain must be nonnegative")
    k = wave_vector(azimuth, elevation, layout.wavelength).as_array()
    coeff = math.sqrt(gain) * np.exp(1j * (layout.positions @ k))
    return LosChannel(gain, azimuth, elevation, coeff)


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
