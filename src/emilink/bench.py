"""Sweep orchestration reproducing the distance / interference-strength /
antenna-count experiments, with CSV and SVG output.

A ``Scenario`` collects geometry, link budget and sweep grids (defaults
follow the reference setup: source at the origin, surface/relay at
(60, 10, 0) m, destination on the x-axis, 3 GHz carrier, -94 dBm noise,
6 bit/s/Hz target).  Each ``run_fig*`` function returns a ``SweepResult``
whose rows carry the minimum transmit power per technology and mode;
``emit`` serializes results byte-stably.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import emi as emi_mod
from . import irs as irs_mod
from . import relay as relay_mod
from .errors import InfeasibleError, capped_power
from .scene import (LinkBudget, Vec3, angles_between, dbm_to_watt, los_channel,
                    make_layout, pathloss_umi, watt_to_dbm)

CSV_HEADER = "sweep_var,technology,mode,power_dbm,rate_bps_hz,solver_iters"
CONFIG_VERSION = 1


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one experiment family."""

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
    combiner: relay_mod.CombinerKind = relay_mod.CombinerKind.MMSE
    distance_sweep: tuple[float, float, int] = (20.0, 120.0, 26)
    rho_sweep: tuple[float, float, int] = (-10.0, 40.0, 26)
    emi_aware: bool = False
    quadrature_nodes: int = 64

    def __post_init__(self):
        if not self.target_rate > 0:
            raise ValueError(f"target rate must be positive, got {self.target_rate!r}")
        for name in ("distance_sweep", "rho_sweep"):
            steps = getattr(self, name)[2]
            if not (float(steps).is_integer() and steps >= 1):
                raise ValueError(f"{name} needs a whole number of steps >= 1, got {steps!r}")
        counts = (*self.irs_elements, self.irs_reference_elements, *self.relay_antennas)
        if not self.irs_elements or not self.relay_antennas or min(counts) < 1:
            raise ValueError("element and antenna counts must be non-empty and >= 1")
        if self.quadrature_nodes < 2:
            raise ValueError("need at least 2 quadrature nodes per axis")
        if len({self.source_pos, self.node_pos, self.dest_pos}) < 3:
            raise ValueError("source, node and destination positions must be distinct")
        _facing_orientation(self)  # raises when the array broadside is undefined

    @property
    def emi_variance(self) -> float:
        return 10.0 ** (self.rho_db / 10.0) * self.budget.noise_power_w

    def distances(self) -> np.ndarray:
        lo, hi, steps = self.distance_sweep
        return np.linspace(lo, hi, int(steps))

    def rhos_db(self) -> np.ndarray:
        lo, hi, steps = self.rho_sweep
        return np.linspace(lo, hi, int(steps))


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

_CONFIG_DEFAULTS = {
    "version": CONFIG_VERSION,
    "geometry": {
        "source_m": [0.0, 0.0, 0.0],
        "node_m": [60.0, 10.0, 0.0],
        "destination_m": [60.0, 0.0, 0.0],
    },
    "budget": {
        "carrier_frequency_ghz": 3.0,
        "bandwidth_hz": 10e6,
        "noise_dbm": -94.0,
        "node_gain_dbi": 5.0,
        "endpoint_gain_dbi": 0.0,
    },
    "target_rate_bps_hz": 6.0,
    "emi": {"rho_db": 25.0, "spread_deg": 10.0},
    "irs": {"elements": [50, 75, 100], "reference_elements": 75},
    "relay": {"antennas": 80, "combiner": "mmse"},
    "sweeps": {"distance_m": [20.0, 120.0, 26], "rho_db": [-10.0, 40.0, 26]},
    "optimization": {"emi_aware": False},
    "quadrature_nodes": 64,
}


def _merge_strict(defaults: dict, overrides: dict, path: str = "") -> dict:
    merged = dict(defaults)
    for key, value in overrides.items():
        if key not in defaults:
            raise ValueError(f"unknown config key: {path}{key}")
        if isinstance(defaults[key], dict):
            if not isinstance(value, dict):
                raise ValueError(f"config key {path}{key} must be an object")
            merged[key] = _merge_strict(defaults[key], value, f"{path}{key}.")
        else:
            merged[key] = value
    return merged


def scenario_from_config(raw: dict) -> Scenario:
    """Build a Scenario from a parsed config document (strict keys)."""
    cfg = _merge_strict(_CONFIG_DEFAULTS, raw)
    if cfg["version"] != CONFIG_VERSION:
        raise ValueError(f"unsupported config version: {cfg['version']!r}")
    budget = LinkBudget(
        carrier_frequency_ghz=float(cfg["budget"]["carrier_frequency_ghz"]),
        bandwidth_hz=float(cfg["budget"]["bandwidth_hz"]),
        noise_power_w=dbm_to_watt(float(cfg["budget"]["noise_dbm"])),
        gain_node_dbi=float(cfg["budget"]["node_gain_dbi"]),
        gain_endpoint_dbi=float(cfg["budget"]["endpoint_gain_dbi"]),
    )
    antennas = cfg["relay"]["antennas"]
    if isinstance(antennas, int):
        antennas = list(range(1, antennas + 1))
    elements = cfg["irs"]["elements"]
    if isinstance(elements, int):
        elements = [elements]
    return Scenario(
        source_pos=Vec3.of(cfg["geometry"]["source_m"]),
        node_pos=Vec3.of(cfg["geometry"]["node_m"]),
        dest_pos=Vec3.of(cfg["geometry"]["destination_m"]),
        budget=budget,
        target_rate=float(cfg["target_rate_bps_hz"]),
        rho_db=float(cfg["emi"]["rho_db"]),
        emi_spread_deg=float(cfg["emi"]["spread_deg"]),
        irs_elements=tuple(int(n) for n in elements),
        irs_reference_elements=int(cfg["irs"]["reference_elements"]),
        relay_antennas=tuple(int(m) for m in antennas),
        combiner=relay_mod.CombinerKind(cfg["relay"]["combiner"]),
        distance_sweep=tuple(cfg["sweeps"]["distance_m"]),
        rho_sweep=tuple(cfg["sweeps"]["rho_db"]),
        emi_aware=bool(cfg["optimization"]["emi_aware"]),
        quadrature_nodes=int(cfg["quadrature_nodes"]),
    )


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


class _NodeLink:
    """Channels and interference models at the surface/relay for one layout."""

    def __init__(self, scenario: Scenario, n_elements: int):
        self.scenario = scenario
        self.layout = make_layout(n_elements, scenario.budget.wavelength,
                                  orientation=_facing_orientation(scenario))
        self.corr_iso = emi_mod.psd_project(emi_mod.corr_isotropic(self.layout))
        src_az, src_el = angles_between(scenario.node_pos, scenario.source_pos,
                                        self.layout.orientation)
        self.source_angles = (src_az, src_el)
        self.beta_sr = pathloss_umi(
            float(np.linalg.norm(scenario.node_pos.as_array() - scenario.source_pos.as_array())),
            scenario.budget)
        self.h_sr = los_channel(self.beta_sr, src_az, src_el, self.layout)

    def toward(self, dest: Vec3):
        """Destination-side channel quantities for one sweep point."""
        sc = self.scenario
        az, el = angles_between(sc.node_pos, dest, self.layout.orientation)
        beta_rd = pathloss_umi(
            float(np.linalg.norm(dest.as_array() - sc.node_pos.as_array())), sc.budget)
        return az, el, beta_rd, los_channel(beta_rd, az, el, self.layout)

    def emi_model(self, variance: float, density: emi_mod.AngularDensity) -> emi_mod.EmiModel:
        if density.kind == "isotropic":
            return emi_mod.EmiModel(variance, density, self.corr_iso)
        return emi_mod.build_emi_model(self.layout, variance, density,
                                       self.scenario.quadrature_nodes)


def _dest_at(scenario: Scenario, distance: float) -> Vec3:
    """Destination ``distance`` metres from the source along the source-destination axis."""
    source = scenario.source_pos.as_array()
    axis = scenario.dest_pos.as_array() - source
    return Vec3.of(source + float(distance) * axis / np.linalg.norm(axis))


def _gaussian_at(scenario: Scenario, azimuth: float, elevation: float) -> emi_mod.AngularDensity:
    spread = math.radians(scenario.emi_spread_deg)
    return emi_mod.AngularDensity.gaussian(azimuth, elevation, spread, spread)


def _irs_heuristic_row(sweep_var, link, target_rate, tech, mode) -> SweepRow:
    try:
        phases = irs_mod.phases_noise_only(link.h_sr, link.h_rd)
        power = capped_power(irs_mod.irs_required_power(target_rate, link, phases), target_rate)
        rate = irs_mod.irs_rate(power, link, phases)
    except InfeasibleError:
        return SweepRow(sweep_var, tech, mode, math.inf, math.nan, 0)
    return SweepRow(sweep_var, tech, mode, watt_to_dbm(power), rate, 0)


def _irs_optimized_row(sweep_var, link, target_rate, tech, mode) -> SweepRow:
    try:
        sol = irs_mod.irs_min_power_emi_aware(target_rate, link)
        rate = irs_mod.irs_rate(sol.power_w, link, sol.phases)
    except InfeasibleError:
        return SweepRow(sweep_var, tech, mode, math.inf, math.nan, 0)
    return SweepRow(sweep_var, tech, mode, watt_to_dbm(sol.power_w), rate, sol.iterations)


def _df_repetition_row(sweep_var, beta_sr, beta_rd, variance, noise, target_rate,
                       mode) -> SweepRow:
    try:
        power = capped_power(relay_mod.repetition_required_power(
            target_rate, beta_sr, beta_rd, variance, noise), target_rate)
    except InfeasibleError:
        return SweepRow(sweep_var, "df", mode, math.inf, math.nan, 0)
    gains = relay_mod.effective_gains_single(beta_sr, beta_rd, variance, noise)
    snr = 2.0 * power * gains.alpha1 * gains.alpha2 / (gains.alpha1 + gains.alpha2)
    rate = relay_mod.df_rate(0.5, snr / gains.alpha1, snr / gains.alpha2, gains)
    return SweepRow(sweep_var, "df", mode, watt_to_dbm(power), rate, 0)


def _df_optimized_row(sweep_var, gains, target_rate, tech, mode) -> SweepRow:
    try:
        sol = relay_mod.df_min_power(target_rate, gains)
    except InfeasibleError:
        return SweepRow(sweep_var, tech, mode, math.inf, math.nan, 0)
    return SweepRow(sweep_var, tech, mode, watt_to_dbm(sol.average_power),
                    sol.achieved_rate, sol.iterations)


# ---------------------------------------------------------------------------
# figure runners

def run_fig3(scenario: Scenario) -> SweepResult:
    """Required power vs distance, no optimization against the interference.

    Surface rows use the noise-only phase heuristic; relay rows use
    repetition coding.  Each appears with and without isotropic EMI.
    """
    noise = scenario.budget.noise_power_w
    rows = []
    nodes = {n: _NodeLink(scenario, n) for n in scenario.irs_elements}
    iso = emi_mod.AngularDensity.isotropic()
    for d in scenario.distances():
        dest = _dest_at(scenario, d)
        for n, node in nodes.items():
            h_rd = node.toward(dest)[3]
            for mode, variance in (("heuristic_none", 0.0),
                                   ("heuristic_iso", scenario.emi_variance)):
                link = irs_mod.IrsLink(node.h_sr, h_rd, node.emi_model(variance, iso), noise)
                rows.append(_irs_heuristic_row(float(d), link, scenario.target_rate,
                                               f"irs_n{n}", mode))
        any_node = next(iter(nodes.values()))
        beta_rd = any_node.toward(dest)[2]
        for mode, variance in (("repetition_none", 0.0),
                               ("repetition_iso", scenario.emi_variance)):
            rows.append(_df_repetition_row(float(d), any_node.beta_sr, beta_rd, variance,
                                           noise, scenario.target_rate, mode))
    return SweepResult("distance_m", tuple(rows))


def run_fig4(scenario: Scenario) -> SweepResult:
    """Required power vs interference-to-noise ratio, no optimization."""
    noise = scenario.budget.noise_power_w
    node = _NodeLink(scenario, scenario.irs_reference_elements)
    _, _, beta_rd, h_rd = node.toward(scenario.dest_pos)
    iso = emi_mod.AngularDensity.isotropic()
    rows = []
    for rho_db in scenario.rhos_db():
        variance = 10.0 ** (rho_db / 10.0) * noise
        link = irs_mod.IrsLink(node.h_sr, h_rd, node.emi_model(variance, iso), noise)
        rows.append(_irs_heuristic_row(float(rho_db), link, scenario.target_rate,
                                       f"irs_n{node.layout.n_elements}", "heuristic_iso"))
        rows.append(_df_repetition_row(float(rho_db), node.beta_sr, beta_rd, variance,
                                       noise, scenario.target_rate, "repetition_iso"))
    return SweepResult("rho_db", tuple(rows))


def run_fig5(scenario: Scenario) -> SweepResult:
    """As run_fig4 but with both technologies optimized against EMI."""
    noise = scenario.budget.noise_power_w
    node = _NodeLink(scenario, scenario.irs_reference_elements)
    _, _, beta_rd, h_rd = node.toward(scenario.dest_pos)
    iso = emi_mod.AngularDensity.isotropic()
    rows = []
    for rho_db in scenario.rhos_db():
        variance = 10.0 ** (rho_db / 10.0) * noise
        link = irs_mod.IrsLink(node.h_sr, h_rd, node.emi_model(variance, iso), noise)
        rows.append(_irs_optimized_row(float(rho_db), link, scenario.target_rate,
                                       f"irs_n{node.layout.n_elements}", "optimized_iso"))
        gains = relay_mod.effective_gains_single(node.beta_sr, beta_rd, variance, noise)
        rows.append(_df_optimized_row(float(rho_db), gains, scenario.target_rate,
                                      "df", "optimized_iso"))
    return SweepResult("rho_db", tuple(rows))


def run_fig6(scenario: Scenario) -> SweepResult:
    """Required power vs distance with EMI-aware optimization.

    Non-optimized rows are included so that the optimization gain can be
    read off row-wise.
    """
    noise = scenario.budget.noise_power_w
    variance = scenario.emi_variance
    nodes = {n: _NodeLink(scenario, n) for n in scenario.irs_elements}
    iso = emi_mod.AngularDensity.isotropic()
    rows = []
    for d in scenario.distances():
        dest = _dest_at(scenario, d)
        for n, node in nodes.items():
            h_rd = node.toward(dest)[3]
            link = irs_mod.IrsLink(node.h_sr, h_rd, node.emi_model(variance, iso), noise)
            rows.append(_irs_heuristic_row(float(d), link, scenario.target_rate,
                                           f"irs_n{n}", "heuristic_iso"))
            rows.append(_irs_optimized_row(float(d), link, scenario.target_rate,
                                           f"irs_n{n}", "optimized_iso"))
        any_node = next(iter(nodes.values()))
        beta_rd = any_node.toward(dest)[2]
        rows.append(_df_repetition_row(float(d), any_node.beta_sr, beta_rd, variance,
                                       noise, scenario.target_rate, "repetition_iso"))
        gains = relay_mod.effective_gains_single(any_node.beta_sr, beta_rd, variance, noise)
        rows.append(_df_optimized_row(float(d), gains, scenario.target_rate,
                                      "df", "optimized_iso"))
    return SweepResult("distance_m", tuple(rows))


def run_fig7(scenario: Scenario, corr_out: dict | None = None) -> SweepResult:
    """Surface power vs distance under different interference distributions.

    Modes: no EMI, isotropic, gaussian centred on the source direction
    (case 1) and on the destination direction (case 2).
    """
    noise = scenario.budget.noise_power_w
    variance = scenario.emi_variance
    node = _NodeLink(scenario, scenario.irs_reference_elements)
    tech = f"irs_n{node.layout.n_elements}"
    iso = emi_mod.AngularDensity.isotropic()
    case1 = node.emi_model(variance, _gaussian_at(scenario, *node.source_angles))
    if corr_out is not None:
        corr_out["fig7_iso"] = node.corr_iso
        corr_out["fig7_case1"] = case1.correlation
    dest_distance = float(np.linalg.norm(scenario.dest_pos.as_array()
                                         - scenario.source_pos.as_array()))
    rows = []
    for d in scenario.distances():
        dest = _dest_at(scenario, d)
        az, el, beta_rd, h_rd = node.toward(dest)
        case2 = node.emi_model(variance, _gaussian_at(scenario, az, el))
        if corr_out is not None and math.isclose(d, dest_distance):
            corr_out["fig7_case2"] = case2.correlation
        for mode, model in (
                ("heuristic_none", node.emi_model(0.0, iso)),
                ("heuristic_iso", node.emi_model(variance, iso)),
                ("heuristic_case1", case1),
                ("heuristic_case2", case2)):
            link = irs_mod.IrsLink(node.h_sr, h_rd, model, noise)
            rows.append(_irs_heuristic_row(float(d), link, scenario.target_rate, tech, mode))
    return SweepResult("distance_m", tuple(rows))


def run_fig8(scenario: Scenario, corr_out: dict | None = None) -> SweepResult:
    """Relay power vs antenna count with MR/MMSE combining.

    Covers isotropic EMI and the destination-centred gaussian (case 2) at
    the configured rho, plus a no-EMI relay reference and the optimized
    surface reference at every antenna count.
    """
    noise = scenario.budget.noise_power_w
    variance = scenario.emi_variance
    target = scenario.target_rate

    irs_node = _NodeLink(scenario, scenario.irs_reference_elements)
    dest_az, dest_el, _, h_rd_irs = irs_node.toward(scenario.dest_pos)
    case2_density = _gaussian_at(scenario, dest_az, dest_el)
    irs_refs = {}
    for emi_name, model in (("iso", irs_node.emi_model(variance, emi_mod.AngularDensity.isotropic())),
                            ("case2", irs_node.emi_model(variance, case2_density))):
        link = irs_mod.IrsLink(irs_node.h_sr, h_rd_irs, model, noise)
        irs_refs[emi_name] = _irs_optimized_row(0.0, link, target,
                                                f"irs_n{irs_node.layout.n_elements}",
                                                f"optimized_{emi_name}")
    rows = []
    for m in scenario.relay_antennas:
        relay_node = _NodeLink(scenario, m)
        _, _, _, h_rd = relay_node.toward(scenario.dest_pos)
        alpha2 = relay_mod.effective_gain_second_phase(h_rd.coefficients, noise)
        h_sr = relay_node.h_sr.coefficients
        models = {
            "iso": relay_node.emi_model(variance, emi_mod.AngularDensity.isotropic()),
            "case2": relay_node.emi_model(variance, case2_density),
        }
        if corr_out is not None and m == max(scenario.relay_antennas):
            corr_out["fig8_iso"] = models["iso"].correlation
            corr_out["fig8_case2"] = models["case2"].correlation
        for emi_name, model in models.items():
            cov = model.variance * model.correlation + noise * np.eye(m)
            for kind in (relay_mod.CombinerKind.MMSE, relay_mod.CombinerKind.MR):
                alpha1 = relay_mod.effective_gain_first_phase(h_sr, cov, kind)
                gains = relay_mod.EffectiveGains(alpha1, alpha2)
                rows.append(_df_optimized_row(float(m), gains, target,
                                              f"df_{kind.value}", f"optimized_{emi_name}"))
        alpha1_clean = relay_mod.effective_gain_first_phase(
            h_sr, noise * np.eye(m), relay_mod.CombinerKind.MR)
        rows.append(_df_optimized_row(float(m), relay_mod.EffectiveGains(alpha1_clean, alpha2),
                                      target, "df", "optimized_none"))
        for emi_name in ("iso", "case2"):
            ref = irs_refs[emi_name]
            rows.append(replace(ref, sweep_var=float(m)))
    return SweepResult("antennas", tuple(rows))


RUNNERS = {
    "fig3": run_fig3,
    "fig4": run_fig4,
    "fig5": run_fig5,
    "fig6": run_fig6,
    "fig7": run_fig7,
    "fig8": run_fig8,
}


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


def parse_csv(text: str, sweep_variable: str = "") -> SweepResult:
    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for ln in lines[1:]:
        sweep, tech, mode, power, rate, iters = ln.split(",")
        rows.append(SweepRow(float(sweep), tech, mode, float(power),
                             float(rate), int(iters)))
    return SweepResult(sweep_variable, tuple(rows))


_SVG_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#ff7f0e", "#9467bd",
                "#8c564b", "#e377c2", "#7f7f7f", "#bcbd22", "#17becf")


def format_svg(result: SweepResult, title: str | None = None) -> str:
    """Minimal deterministic line plot (power in dBm against the sweep)."""
    if not result.rows:
        raise ValueError("refusing to emit an empty result")
    if title is None:
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
