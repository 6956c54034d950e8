"""Sweep orchestration reproducing the distance / interference-strength /
antenna-count experiments, with CSV and SVG output.

A ``Scenario`` collects geometry, link budget and sweep grids (defaults
follow the reference setup: source at the origin, surface/relay at
(60, 10, 0) m, destination on the x-axis, 3 GHz carrier, -94 dBm noise,
6 bit/s/Hz target).  Each ``run_figN(scenario)`` returns a ``SweepResult``
whose rows carry the minimum transmit power per technology and mode;
``emit`` serializes results byte-stably.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import emi as emi_mod
from . import irs as irs_mod
from . import relay as relay_mod
from .errors import InfeasibleError, capped_power
from .scene import (LinkBudget, LosChannel, Vec3, angles_between, dbm_to_watt, los_channel,
                    make_layout, pathloss_umi, watt_to_dbm)

CSV_HEADER = "sweep_var,technology,mode,power_dbm,rate_bps_hz,solver_iters"
CONFIG_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one experiment family.  The field defaults
    are the reference setup; a config file keeps them for the keys it omits."""

    source_pos: Vec3 = Vec3(0.0, 0.0, 0.0)
    node_pos: Vec3 = Vec3(60.0, 10.0, 0.0)
    dest_pos: Vec3 = Vec3(60.0, 0.0, 0.0)
    budget: LinkBudget = field(default_factory=LinkBudget)
    target_rate: float = 6.0
    rho_db: float = 25.0
    emi_spread_deg: float = 10.0
    irs_elements: tuple[int, ...] = (50, 75, 100)
    irs_reference_elements: int = 75
    relay_antennas: tuple[int, ...] = tuple(range(1, 81))
    distance_sweep: tuple[float, float, int] = (20.0, 120.0, 26)
    rho_sweep: tuple[float, float, int] = (-10.0, 40.0, 26)
    quadrature_nodes: int = 64

    def __post_init__(self):
        if not self.target_rate > 0:
            raise ValueError(f"target rate must be positive, got {self.target_rate!r}")
        if not math.isfinite(self.rho_db):
            raise ValueError(f"rho_db must be finite, got {self.rho_db!r}")
        if not 0.0 < self.emi_spread_deg < math.inf:
            raise ValueError(f"emi_spread_deg must be finite and > 0, got {self.emi_spread_deg!r}")
        for name in ("distance_sweep", "rho_sweep"):
            lo, hi, steps = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} end points must be finite, got {lo!r} and {hi!r}")
            if not (float(steps).is_integer() and steps >= 1):
                raise ValueError(f"{name} needs a whole number of steps >= 1, got {steps!r}")
        counts = (*self.irs_elements, self.irs_reference_elements, *self.relay_antennas)
        if not (self.irs_elements and self.relay_antennas
                and all(float(n).is_integer() and n >= 1 for n in counts)):
            raise ValueError("element and antenna counts must be non-empty whole numbers >= 1")
        if not (float(self.quadrature_nodes).is_integer() and self.quadrature_nodes >= 2):
            raise ValueError("need a whole number of at least 2 quadrature nodes per axis")
        # whole floats such as 75.0 are stored as ints
        for name in ("irs_elements", "relay_antennas"):
            object.__setattr__(self, name, tuple(int(n) for n in getattr(self, name)))
        for name in ("irs_reference_elements", "quadrature_nodes"):
            object.__setattr__(self, name, int(getattr(self, name)))
        if len({self.source_pos, self.node_pos, self.dest_pos}) < 3:
            raise ValueError("source, node and destination positions must be distinct")
        _facing_orientation(self)  # raises when the array broadside is undefined
        ends = [self.source_pos.as_array(), self.dest_pos.as_array(), *self.sweep_destinations()]
        if np.linalg.norm(np.array(ends) - self.node_pos.as_array(), axis=1).min() < 1.0:
            raise ValueError("every hop to or from the node, swept destinations included, "
                             "must be at least 1 m long (path loss model validity)")

    @property
    def emi_variance(self) -> float:
        return 10.0 ** (self.rho_db / 10.0) * self.budget.noise_power_w

    def distances(self) -> np.ndarray:
        lo, hi, steps = self.distance_sweep
        return np.linspace(lo, hi, int(steps))

    def rhos_db(self) -> np.ndarray:
        lo, hi, steps = self.rho_sweep
        return np.linspace(lo, hi, int(steps))

    def sweep_destinations(self) -> np.ndarray:
        """Destinations d metres from the source toward dest_pos, one row per d of distances."""
        source = self.source_pos.as_array()
        axis = self.dest_pos.as_array() - source
        return source + self.distances()[:, None] * axis / np.linalg.norm(axis)


@dataclass(frozen=True)
class SweepRow:
    sweep_var: float
    technology: str
    mode: str
    power_dbm: float
    rate_bps_hz: float
    solver_iters: int

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.power_dbm)


@dataclass(frozen=True)
class SweepResult:
    sweep_variable: str
    rows: tuple[SweepRow, ...]

    def select(self, technology: str | None = None, mode: str | None = None):
        return [r for r in self.rows
                if (technology is None or r.technology == technology)
                and (mode is None or r.mode == mode)]


# ---------------------------------------------------------------------------
# configuration file handling

def _antenna_counts(value) -> tuple:
    """A list of relay antenna counts, or a count M meaning 1..M (passed on
    as it is, for Scenario to reject, when M is not whole)."""
    if isinstance(value, list):
        return tuple(value)
    return tuple(range(1, int(value) + 1)) if float(value).is_integer() else (value,)


# Each config key maps to the field it sets ("budget." for a LinkBudget field)
# and the conversion of its value.  None marks the version, checked on its own,
# and three keys that enter no computation but keep version-1 files loading:
# budget.bandwidth_hz, relay.combiner and optimization.emi_aware.
_CONFIG_KEYS = {
    "version": None,
    "geometry": {"source_m": ("source_pos", Vec3.of), "node_m": ("node_pos", Vec3.of),
                 "destination_m": ("dest_pos", Vec3.of)},
    "budget": {"carrier_frequency_ghz": ("budget.carrier_frequency_ghz", float),
               "bandwidth_hz": None,
               "noise_dbm": ("budget.noise_power_w", dbm_to_watt),
               "node_gain_dbi": ("budget.gain_node_dbi", float),
               "endpoint_gain_dbi": ("budget.gain_endpoint_dbi", float)},
    "target_rate_bps_hz": ("target_rate", float),
    "emi": {"rho_db": ("rho_db", float), "spread_deg": ("emi_spread_deg", float)},
    "irs": {"elements": ("irs_elements", lambda n: tuple(n) if isinstance(n, list) else (n,)),
            "reference_elements": ("irs_reference_elements", float)},
    "relay": {"antennas": ("relay_antennas", _antenna_counts), "combiner": None},
    "sweeps": {"distance_m": ("distance_sweep", tuple), "rho_db": ("rho_sweep", tuple)},
    "optimization": {"emi_aware": None},
    "quadrature_nodes": ("quadrature_nodes", float),
}


def _config_fields(raw: dict, keys: dict, path: str) -> dict:
    """Field values set by the config object ``raw``, which may use only ``keys``."""
    fields = {}
    for key, value in raw.items():
        if key not in keys:
            raise ValueError(f"unknown config key: {path}{key}")
        if isinstance(keys[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {path}{key} must be an object")
            fields.update(_config_fields(value, keys[key], f"{path}{key}."))
        elif keys[key] is not None:
            name, convert = keys[key]
            fields[name] = convert(value)
    return fields


def scenario_from_config(raw: dict) -> Scenario:
    """Build a Scenario from a parsed config document (strict keys)."""
    if not isinstance(raw, dict):
        raise ValueError(f"a config document must be an object, got {type(raw).__name__}")
    if raw.get("version", CONFIG_VERSION) != CONFIG_VERSION:
        raise ValueError(f"unsupported config version: {raw['version']!r}")
    fields = _config_fields(raw, _CONFIG_KEYS, "")
    budget = {name.removeprefix("budget."): fields.pop(name)
              for name in list(fields) if name.startswith("budget.")}
    return Scenario(budget=LinkBudget(**budget), **fields)


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_config(json.load(fh))


# ---------------------------------------------------------------------------
# shared sweep plumbing

def _facing_orientation(scenario: Scenario) -> np.ndarray:
    """Rotation of a vertical array whose broadside faces the source-destination axis.

    Broadside (local +x) is the horizontal direction from the node to the
    nearest point of that axis, local y is horizontal and local z vertical.
    Raises ValueError when no such direction exists (the node lies on the
    axis, or vertically above or below it).
    """
    source, node, dest = (p.as_array() for p in
                          (scenario.source_pos, scenario.node_pos, scenario.dest_pos))
    axis = (dest - source) / np.linalg.norm(dest - source)
    toward = source + np.dot(node - source, axis) * axis - node
    reach = math.hypot(toward[0], toward[1])
    if reach <= 1e-9 * np.linalg.norm(node - source):
        raise ValueError("the node lies on, or vertically above or below, the "
                         "source-destination axis, so the array broadside is undefined")
    bx, by = toward[0] / reach, toward[1] / reach
    return np.array([[bx, -by, 0.0], [by, bx, 0.0], [0.0, 0.0, 1.0]])


def _hop_gain(scenario: Scenario, a: Vec3, b: Vec3) -> float:
    return pathloss_umi(float(np.linalg.norm(b.as_array() - a.as_array())), scenario.budget)


class _NodeLink:
    """Channels and interference models at the surface/relay for one layout."""

    def __init__(self, scenario: Scenario, n_elements: int):
        self.scenario = scenario
        self.layout = make_layout(n_elements, scenario.budget.wavelength,
                                  orientation=_facing_orientation(scenario))
        self.source_angles = angles_between(scenario.node_pos, scenario.source_pos,
                                            self.layout.orientation)
        self.h_sr = los_channel(_hop_gain(scenario, scenario.source_pos, scenario.node_pos),
                                *self.source_angles, self.layout)
        # models are built with variance 0; emi_model sets the variance of each use
        self.iso = emi_mod.build_emi_model(self.layout, 0.0, emi_mod.AngularDensity.isotropic())
        self._h_rd: dict[Vec3, LosChannel] = {}

    def toward(self, dest: Vec3) -> LosChannel:
        """Node-to-destination channel, built once per destination."""
        if dest not in self._h_rd:
            az, el = angles_between(self.scenario.node_pos, dest, self.layout.orientation)
            self._h_rd[dest] = los_channel(_hop_gain(self.scenario, self.scenario.node_pos, dest),
                                           az, el, self.layout)
        return self._h_rd[dest]

    def _gaussian(self, azimuth: float, elevation: float) -> emi_mod.EmiModel:
        spread = math.radians(self.scenario.emi_spread_deg)
        density = emi_mod.AngularDensity.gaussian(azimuth, elevation, spread, spread)
        return emi_mod.build_emi_model(self.layout, 0.0, density, self.scenario.quadrature_nodes)

    @cached_property
    def case1(self) -> emi_mod.EmiModel:
        return self._gaussian(*self.source_angles)

    def emi_model(self, emi: str, variance: float, h_rd: LosChannel) -> emi_mod.EmiModel:
        """EMI named none (variance 0), iso, case1 (gaussian centred on the
        source direction) or case2 (centred on the direction of ``h_rd``)."""
        if emi in ("none", "iso"):
            model = self.iso
        elif emi == "case1":
            model = self.case1
        else:
            model = self._gaussian(h_rd.azimuth, h_rd.elevation)
        return replace(model, variance=0.0 if emi == "none" else variance)


def _irs_heuristic(target_rate, link):
    phases = irs_mod.phases_noise_only(link.h_sr, link.h_rd)
    power = capped_power(irs_mod.irs_required_power(target_rate, link, phases), target_rate)
    return power, irs_mod.irs_rate(power, link, phases), 0


def _irs_optimized(target_rate, link):
    sol = irs_mod.irs_min_power_emi_aware(target_rate, link)
    return sol.power_w, irs_mod.irs_rate(sol.power_w, link, sol.phases), sol.iterations


def _df_repetition(target_rate, beta_sr, beta_rd, variance, noise):
    power = capped_power(relay_mod.repetition_required_power(
        target_rate, beta_sr, beta_rd, variance, noise), target_rate)
    gains = relay_mod.effective_gains_single(beta_sr, beta_rd, variance, noise)
    snr = 2.0 * power * gains.alpha1 * gains.alpha2 / (gains.alpha1 + gains.alpha2)
    return power, relay_mod.df_rate(0.5, snr / gains.alpha1, snr / gains.alpha2, gains), 0


def _df_optimized(target_rate, gains):
    sol = relay_mod.df_min_power(target_rate, gains)
    return sol.average_power, sol.achieved_rate, sol.iterations


_IRS_SOLVERS = {"heuristic": _irs_heuristic, "optimized": _irs_optimized}
# on a single-antenna relay, from (target rate, beta_sr, beta_rd, EMI variance, noise)
_DF_SOLVERS = {"repetition": _df_repetition,
               "optimized": lambda rate, *link: _df_optimized(
                   rate, relay_mod.effective_gains_single(*link))}


def _row(sweep_var, tech, mode, solve, *args) -> SweepRow:
    """Row of ``solve(*args)`` -> (power W, rate, iterations); infeasible
    targets give the inf/nan/0 sentinel row."""
    try:
        power, rate, iterations = solve(*args)
    except InfeasibleError:
        return SweepRow(sweep_var, tech, mode, math.inf, math.nan, 0)
    return SweepRow(sweep_var, tech, mode, watt_to_dbm(power), rate, iterations)


def _sweep(scenario: Scenario, variable: str, sizes, irs_modes, df_modes) -> SweepResult:
    """Rows over the distance (``distance_m``) or EMI-to-noise (``rho_db``) sweep.

    At each point: every surface mode on a surface of each size in ``sizes``
    (a repeated size runs once), then every relay mode on a single-antenna
    relay.  A mode is ``<solver>_<emi>``, the solver ``heuristic`` or
    ``optimized`` for the surface and ``repetition`` or ``optimized`` for the
    relay, the EMI one of ``_NodeLink.emi_model``'s.
    """
    noise, target = scenario.budget.noise_power_w, scenario.target_rate
    nodes = [_NodeLink(scenario, n) for n in dict.fromkeys(sizes)]
    if variable == "rho_db":
        points = [(float(rho), scenario.dest_pos, 10.0 ** (rho / 10.0) * noise)
                  for rho in scenario.rhos_db()]
    else:
        points = [(float(d), Vec3.of(dest), scenario.emi_variance)
                  for d, dest in zip(scenario.distances(), scenario.sweep_destinations())]
    beta_sr = _hop_gain(scenario, scenario.source_pos, scenario.node_pos)
    rows = []
    for x, dest, variance in points:
        for node in nodes:
            h_rd = node.toward(dest)
            for mode in irs_modes:
                solver, emi = mode.split("_")
                link = irs_mod.IrsLink(node.h_sr, h_rd, node.emi_model(emi, variance, h_rd), noise)
                rows.append(_row(x, f"irs_n{node.layout.n_elements}", mode,
                                 _IRS_SOLVERS[solver], target, link))
        beta_rd = _hop_gain(scenario, scenario.node_pos, dest)
        for mode in df_modes:
            solver, emi = mode.split("_")
            rows.append(_row(x, "df", mode, _DF_SOLVERS[solver], target, beta_sr, beta_rd,
                             0.0 if emi == "none" else variance, noise))
    return SweepResult(variable, tuple(rows))


# ---------------------------------------------------------------------------
# figure runners

def run_fig3(scenario: Scenario) -> SweepResult:
    """Required power vs distance, no optimization against the interference.

    Surface rows use the noise-only phase heuristic; relay rows use
    repetition coding.  Each appears with and without isotropic EMI.
    """
    return _sweep(scenario, "distance_m", scenario.irs_elements,
                  ("heuristic_none", "heuristic_iso"), ("repetition_none", "repetition_iso"))


def run_fig4(scenario: Scenario) -> SweepResult:
    """Required power vs interference-to-noise ratio, no optimization."""
    return _sweep(scenario, "rho_db", (scenario.irs_reference_elements,),
                  ("heuristic_iso",), ("repetition_iso",))


def run_fig5(scenario: Scenario) -> SweepResult:
    """As run_fig4 but with both technologies optimized against EMI."""
    return _sweep(scenario, "rho_db", (scenario.irs_reference_elements,),
                  ("optimized_iso",), ("optimized_iso",))


def run_fig6(scenario: Scenario) -> SweepResult:
    """Required power vs distance with EMI-aware optimization.

    Non-optimized rows are included so that the optimization gain can be
    read off row-wise.
    """
    return _sweep(scenario, "distance_m", scenario.irs_elements,
                  ("heuristic_iso", "optimized_iso"), ("repetition_iso", "optimized_iso"))


def run_fig7(scenario: Scenario) -> SweepResult:
    """Surface power vs distance under different interference distributions.

    Modes: no EMI, isotropic, gaussian centred on the source direction
    (case 1) and on the destination direction (case 2).
    """
    return _sweep(scenario, "distance_m", (scenario.irs_reference_elements,),
                  ("heuristic_none", "heuristic_iso", "heuristic_case1", "heuristic_case2"), ())


def run_fig8(scenario: Scenario) -> SweepResult:
    """Relay power vs antenna count with MR/MMSE combining.

    Covers isotropic EMI and the destination-centred gaussian (case 2) at
    the configured rho, plus a no-EMI relay reference and the optimized
    surface reference at every antenna count.
    """
    noise = scenario.budget.noise_power_w
    variance = scenario.emi_variance
    target = scenario.target_rate
    surface = _NodeLink(scenario, scenario.irs_reference_elements)
    h_rd = surface.toward(scenario.dest_pos)
    refs = []
    for emi in ("iso", "case2"):
        link = irs_mod.IrsLink(surface.h_sr, h_rd, surface.emi_model(emi, variance, h_rd), noise)
        refs.append(_row(0.0, f"irs_n{surface.layout.n_elements}", f"optimized_{emi}",
                         _irs_optimized, target, link))
    rows = []
    for m in scenario.relay_antennas:
        relay = _NodeLink(scenario, m)
        h_rd = relay.toward(scenario.dest_pos)
        alpha2 = relay_mod.effective_gain_second_phase(h_rd.coefficients, noise)
        h_sr = relay.h_sr.coefficients
        for emi in ("iso", "case2"):
            model = relay.emi_model(emi, variance, h_rd)
            cov = model.variance * model.correlation + noise * np.eye(m)
            for kind in (relay_mod.CombinerKind.MMSE, relay_mod.CombinerKind.MR):
                alpha1 = relay_mod.effective_gain_first_phase(h_sr, cov, kind)
                rows.append(_row(float(m), f"df_{kind.value}", f"optimized_{emi}", _df_optimized,
                                 target, relay_mod.EffectiveGains(alpha1, alpha2)))
        alpha1_clean = relay_mod.effective_gain_first_phase(
            h_sr, noise * np.eye(m), relay_mod.CombinerKind.MR)
        rows.append(_row(float(m), "df", "optimized_none", _df_optimized, target,
                         relay_mod.EffectiveGains(alpha1_clean, alpha2)))
        rows.extend(replace(ref, sweep_var=float(m)) for ref in refs)
    return SweepResult("antennas", tuple(rows))


RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
}


def correlations(figure: str, scenario: Scenario) -> dict[str, np.ndarray]:
    """EMI correlation matrices of ``figure``, keyed ``<figure>_<emi>``: fig7's
    reference surface under iso, case1 and case2, fig8's largest relay under
    iso and case2, each toward the configured destination; none otherwise."""
    if figure == "fig7":
        emis, size = ("iso", "case1", "case2"), scenario.irs_reference_elements
    elif figure == "fig8":
        emis, size = ("iso", "case2"), max(scenario.relay_antennas)
    else:
        return {}
    node = _NodeLink(scenario, size)
    h_rd = node.toward(scenario.dest_pos)
    return {f"{figure}_{emi}": node.emi_model(emi, 0.0, h_rd).correlation for emi in emis}


# ---------------------------------------------------------------------------
# output

def format_csv(result: SweepResult) -> str:
    if not result.rows:
        raise ValueError("refusing to emit an empty result")
    lines = [CSV_HEADER]
    for r in result.rows:
        lines.append(f"{float(r.sweep_var)!r},{r.technology},{r.mode},"
                     f"{float(r.power_dbm)!r},{float(r.rate_bps_hz)!r},{int(r.solver_iters)}")
    return "\n".join(lines) + "\n"


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def format_svg(result: SweepResult) -> str:
    """Minimal deterministic line plot (power in dBm against the sweep)."""
    if not result.rows:
        raise ValueError("refusing to emit an empty result")
    title = f"minimum transmit power vs {result.sweep_variable}"
    series: dict[tuple[str, str], list[SweepRow]] = {}
    for row in result.rows:
        if row.feasible:
            series.setdefault((row.technology, row.mode), []).append(row)
    width, height = 860.0, 520.0
    left, right, top, bottom = 70.0, 250.0, 40.0, 50.0
    xs = [r.sweep_var for rows in series.values() for r in rows]
    ys = [r.power_dbm for rows in series.values() for r in rows]
    if not xs:
        xs, ys = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = min(ys), max(ys)
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return left + (x - x_lo) / (x_hi - x_lo) * (width - left - right)

    def sy(y):
        return height - bottom - (y - y_lo) / (y_hi - y_lo) * (height - top - bottom)

    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
             f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
             f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
             f'<text x="{left:.1f}" y="24" font-family="sans-serif" font-size="15">'
             f'{title}</text>']
    for i in range(6):
        frac = i / 5.0
        gx = x_lo + frac * (x_hi - x_lo)
        gy = y_lo + frac * (y_hi - y_lo)
        parts.append(f'<line x1="{sx(gx):.2f}" y1="{sy(y_lo):.2f}" x2="{sx(gx):.2f}" '
                     f'y2="{sy(y_hi):.2f}" stroke="#dddddd"/>')
        parts.append(f'<line x1="{sx(x_lo):.2f}" y1="{sy(gy):.2f}" x2="{sx(x_hi):.2f}" '
                     f'y2="{sy(gy):.2f}" stroke="#dddddd"/>')
        parts.append(f'<text x="{sx(gx):.2f}" y="{height - bottom + 18:.2f}" '
                     f'font-family="sans-serif" font-size="11" text-anchor="middle">'
                     f'{gx:.4g}</text>')
        parts.append(f'<text x="{left - 8:.2f}" y="{sy(gy) + 4:.2f}" '
                     f'font-family="sans-serif" font-size="11" text-anchor="end">'
                     f'{gy:.4g}</text>')
    parts.append(f'<text x="{(left + width - right) / 2:.1f}" y="{height - 10:.1f}" '
                 f'font-family="sans-serif" font-size="13" text-anchor="middle">'
                 f'{result.sweep_variable}</text>')
    parts.append(f'<text x="16" y="{(top + height - bottom) / 2:.1f}" '
                 f'font-family="sans-serif" font-size="13" '
                 f'transform="rotate(-90 16 {(top + height - bottom) / 2:.1f})" '
                 f'text-anchor="middle">required power [dBm]</text>')
    for idx, ((tech, mode), rows) in enumerate(sorted(series.items())):
        color = _SVG_PALETTE[idx % len(_SVG_PALETTE)]
        pts = " ".join(f"{sx(r.sweep_var):.2f},{sy(r.power_dbm):.2f}" for r in rows)
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                     f'stroke-width="1.8"/>')
        ly = top + 16 * idx
        parts.append(f'<line x1="{width - right + 10:.1f}" y1="{ly + 10:.1f}" '
                     f'x2="{width - right + 34:.1f}" y2="{ly + 10:.1f}" '
                     f'stroke="{color}" stroke-width="1.8"/>')
        parts.append(f'<text x="{width - right + 40:.1f}" y="{ly + 14:.1f}" '
                     f'font-family="sans-serif" font-size="11">{tech} {mode}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit(result: SweepResult, fmt: str, path) -> None:
    """Write a sweep result to ``path`` as CSV or an SVG plot."""
    if fmt == "csv":
        payload = format_csv(result)
    elif fmt == "svg":
        payload = format_svg(result)
    else:
        raise ValueError(f"unknown output format: {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(payload)


def dump_matrix_csv(matrix: np.ndarray, path) -> None:
    """Row-major CSV dump of a complex matrix, entries formatted re+imj."""
    matrix = np.asarray(matrix, dtype=complex)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        for row in matrix:
            fh.write(",".join(f"{float(z.real)!r}{float(z.imag):+}j" for z in row))
            fh.write("\n")
