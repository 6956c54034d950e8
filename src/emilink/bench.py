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

import numpy as np

from . import emi as emi_mod
from . import irs as irs_mod
from . import relay as relay_mod
from .errors import POWER_UPPER_W, pow2m1
from .scene import (ArrayLayout, LinkBudget, angles_between, dbm_to_watt, los_channel, make_layout,
                    pathloss_umi, watt_to_dbm, wave_vector)

CSV_HEADER = "sweep_var,technology,mode,power_dbm,rate_bps_hz,solver_iters"
CONFIG_VERSION = 1


def _emi_variance(rho_db, noise: float):
    return 10.0 ** (rho_db / 10.0) * noise


@dataclass(frozen=True)
class Scenario:
    """Declarative description of one experiment family.  The field defaults
    are the reference setup; a config file keeps them for the keys it omits."""

    source_pos: tuple[float, float, float] = (0.0, 0.0, 0.0)
    node_pos: tuple[float, float, float] = (60.0, 10.0, 0.0)
    dest_pos: tuple[float, float, float] = (60.0, 0.0, 0.0)
    budget: LinkBudget = field(default_factory=LinkBudget)
    target_rate: float = 6.0
    rho_db: float = 25.0
    emi_spread_deg: float = 10.0
    irs_elements: tuple[int, ...] = (50, 75, 100)
    irs_reference_elements: int = 75
    relay_antennas: tuple[int, ...] = tuple(range(1, 81))
    distance_sweep: tuple[float, float, int] = (20.0, 120.0, 26)
    rho_sweep: tuple[float, float, int] = (-10.0, 40.0, 26)

    def __post_init__(self):
        pow2m1(self.target_rate)  # raises, naming the target rate, unless 2^R - 1 > 0
        if not 0.0 < self.emi_spread_deg < math.inf:
            raise ValueError(f"emi_spread_deg must be finite and > 0, got {self.emi_spread_deg!r}")
        for name in ("distance_sweep", "rho_sweep"):
            lo, hi, steps = getattr(self, name)
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"{name} end points must be finite, got {lo!r} and {hi!r}")
            if not (float(steps).is_integer() and steps >= 1):
                raise ValueError(f"{name} needs a whole number of steps >= 1, got {steps!r}")
        for name, rho in (("rho_db", self.rho_db), ("rho_sweep", max(self.rho_sweep[:2]))):
            try:
                variance = _emi_variance(float(rho), self.budget.noise_power_w)
            except OverflowError:
                variance = math.inf
            if not (math.isfinite(rho) and math.isfinite(variance)):
                raise ValueError(f"{name} must be finite with a finite EMI variance, got {rho!r}")
        counts = (*self.irs_elements, self.irs_reference_elements, *self.relay_antennas)
        if not (self.irs_elements and self.relay_antennas
                and all(float(n).is_integer() and n >= 1 for n in counts)):
            raise ValueError("element and antenna counts must be non-empty whole numbers >= 1")
        # whole floats such as 75.0 are stored as ints
        for name in ("irs_elements", "relay_antennas"):
            object.__setattr__(self, name, tuple(int(n) for n in getattr(self, name)))
        object.__setattr__(self, "irs_reference_elements", int(self.irs_reference_elements))
        for name in ("source_pos", "node_pos", "dest_pos"):  # lists and arrays become tuples
            pos = tuple(float(c) for c in getattr(self, name))
            if len(pos) != 3 or not all(map(math.isfinite, pos)):
                raise ValueError(f"{name} must be three finite numbers, got {pos!r}")
            object.__setattr__(self, name, pos)
        if len({self.source_pos, self.node_pos, self.dest_pos}) < 3:
            raise ValueError("source, node and destination positions must be distinct")
        _facing_orientation(self)  # raises when the array broadside is undefined
        ends = [self.source_pos, self.dest_pos, *self.sweep_destinations()]
        hops = np.linalg.norm(np.array(ends) - self.node_pos, axis=1)
        if hops.min() < 1.0:
            raise ValueError("every hop to or from the node, swept destinations included, "
                             "must be at least 1 m long (path loss model validity)")
        # each hop's SNR per watt, and the largest surface's cascaded one N^2 b_sr b_rd / N0
        noise, n_max = self.budget.noise_power_w, max(*self.irs_elements,
                                                       self.irs_reference_elements)
        try:
            beta_sr, *betas_rd = (pathloss_umi(d, self.budget) for d in hops)
            snrs = [beta_sr / noise, *(b / noise for b in betas_rd),
                    *(n_max ** 2 * beta_sr * b / noise for b in betas_rd)]
        except OverflowError:
            snrs = [math.inf]
        if not all(0.0 < snr < math.inf for snr in snrs):
            raise ValueError("the link budget (carrier_frequency_ghz, gain_node_dbi, "
                             "gain_endpoint_dbi, noise_power_w) gives a hop or cascaded surface "
                             "SNR per watt that is not finite and nonzero")

    @property
    def emi_variance(self) -> float:
        return _emi_variance(self.rho_db, self.budget.noise_power_w)

    def distances(self) -> np.ndarray:
        lo, hi, steps = self.distance_sweep
        return np.linspace(lo, hi, int(steps))

    def rhos_db(self) -> np.ndarray:
        lo, hi, steps = self.rho_sweep
        return np.linspace(lo, hi, int(steps))

    def sweep_destinations(self) -> np.ndarray:
        """Destinations d metres from the source toward dest_pos, one row per d of distances."""
        source = np.array(self.source_pos)
        axis = np.array(self.dest_pos) - source
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

    def select(self, technology: str, mode: str):
        return [r for r in self.rows if r.technology == technology and r.mode == mode]


# ---------------------------------------------------------------------------
# configuration file handling

def _antenna_counts(value) -> tuple:
    """A list of relay antenna counts, or a count M meaning 1..M (passed on
    as it is, for Scenario to reject, when M is not whole)."""
    if isinstance(value, list):
        return tuple(value)
    return tuple(range(1, int(value) + 1)) if float(value).is_integer() else (value,)


# Each config key maps to the field it sets ("budget." for a LinkBudget field)
# and the conversion of its value.
_CONFIG_KEYS = {
    "geometry": {"source_m": ("source_pos", tuple), "node_m": ("node_pos", tuple),
                 "destination_m": ("dest_pos", tuple)},
    "budget": {"carrier_frequency_ghz": ("budget.carrier_frequency_ghz", float),
               "noise_dbm": ("budget.noise_power_w", dbm_to_watt),
               "node_gain_dbi": ("budget.gain_node_dbi", float),
               "endpoint_gain_dbi": ("budget.gain_endpoint_dbi", float)},
    "target_rate_bps_hz": ("target_rate", float),
    "emi": {"rho_db": ("rho_db", float), "spread_deg": ("emi_spread_deg", float)},
    "irs": {"elements": ("irs_elements", lambda n: tuple(n) if isinstance(n, list) else (n,)),
            "reference_elements": ("irs_reference_elements", float)},
    "relay": {"antennas": ("relay_antennas", _antenna_counts)},
    "sweeps": {"distance_m": ("distance_sweep", tuple), "rho_db": ("rho_sweep", tuple)},
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
        else:
            name, convert = keys[key]
            numbers = value if isinstance(value, list) else [value]
            if (not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in numbers)
                    or path in ("geometry.", "sweeps.") and len(numbers) != 3):
                raise ValueError(f"config key {path}{key} must be a number or a list of numbers "
                                 f"(3 for a position or a sweep), got {value!r}")
            try:
                fields[name] = convert(value)
            except TypeError:  # a list where one number belongs
                raise ValueError(f"config key {path}{key} must be a number") from None
            except OverflowError:  # a dB value whose power overflows a float
                raise ValueError(f"config key {path}{key} is out of range: {value!r}") from None
    return fields


def scenario_from_config(raw: dict) -> Scenario:
    """Build a Scenario from a parsed config document (strict keys)."""
    if not isinstance(raw, dict):
        raise ValueError(f"a config document must be an object, got {type(raw).__name__}")
    version = raw.get("version", CONFIG_VERSION)
    if isinstance(version, bool) or version != CONFIG_VERSION:
        raise ValueError(f"unsupported config version: {version!r}")
    fields = _config_fields({k: v for k, v in raw.items() if k != "version"}, _CONFIG_KEYS, "")
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
    source, node, dest = np.array([scenario.source_pos, scenario.node_pos, scenario.dest_pos])
    axis = (dest - source) / np.linalg.norm(dest - source)
    toward = source + np.dot(node - source, axis) * axis - node
    reach = math.hypot(toward[0], toward[1])
    if reach <= 1e-9 * np.linalg.norm(node - source):
        raise ValueError("the node lies on, or vertically above or below, the "
                         "source-destination axis, so the array broadside is undefined")
    bx, by = toward[0] / reach, toward[1] / reach
    return np.array([[bx, -by, 0.0], [by, bx, 0.0], [0.0, 0.0, 1.0]])


class _Frame:
    """One figure run's geometry and EMI: the node's facing frame and the endpoints'
    sights in it, one layout per array size, and over the layouts' ``envelope``
    the source wave's phase lattice and one lattice per EMI name, the only EMI
    source from which every array of the figure reads its correlation and its form.
    It caches one lattice per EMI and nothing per array."""

    def __init__(self, scenario: Scenario, sizes):
        self.scenario, self.orientation = scenario, _facing_orientation(scenario)
        self.source_angles, self.beta_sr = self.sight(scenario.source_pos)
        wavelength = scenario.budget.wavelength
        self.layouts = {n: make_layout(n, wavelength) for n in dict.fromkeys(sizes)}
        self.envelope = ArrayLayout(max(g.rows for g in self.layouts.values()),
                                    max(g.cols for g in self.layouts.values()), wavelength)
        self.source_phases = emi_mod.plane_wave_lattice(
            self.envelope, wave_vector(*self.source_angles, wavelength))
        self.lattices = {"iso": (None, emi_mod.isotropic_kernel(self.envelope)),
                         "none": (None, None)}

    def sight(self, pos: tuple) -> tuple[tuple[float, float], float]:
        """Angles of ``pos`` seen from the node and the gain of the hop between them."""
        node = self.scenario.node_pos
        return (angles_between(node, pos, self.orientation),
                pathloss_umi(float(np.linalg.norm(np.subtract(pos, node))), self.scenario.budget))

    def lattice(self, emi: str, angles: tuple[float, float]):
        """Lattice of the EMI named iso (the sinc), case1 (a gaussian kernel centred
        on the source's direction) or case2 (on ``angles``), or None for none; one
        per name, rebuilt only when its centre moves."""
        centre = angles if emi == "case2" else self.source_angles if emi == "case1" else None
        entry = self.lattices.get(emi)
        if entry is None or entry[0] != centre:
            spread = math.radians(self.scenario.emi_spread_deg)
            density = emi_mod.AngularDensity(*centre, spread, spread)
            entry = self.lattices[emi] = centre, emi_mod.directional_kernel(
                density, emi_mod.QUADRATURE_NODES, self.envelope)
        return entry[1]

    def form(self, n: int, emi: str, angles: tuple[float, float]) -> float:
        """u^H R u for the source's unit plane wave u on the ``n``-element array under
        the EMI named as in ``lattice`` (0 for none), with no N x N array."""
        lattice = self.lattice(emi, angles)
        return 0.0 if lattice is None else emi_mod.plane_wave_form(
            lattice, self.layouts[n], self.source_phases)

    def correlation(self, n: int, emi: str, angles: tuple[float, float]) -> np.ndarray:
        """Correlation matrix of the ``n``-element array under the EMI named as in ``lattice``."""
        return emi_mod.gather(self.lattice(emi, angles), self.layouts[n])


def _df_repetition(target_rate, beta_sr, beta_rd, variance, noise):
    power = relay_mod.repetition_required_power(target_rate, beta_sr, beta_rd, variance, noise)
    gains = relay_mod.effective_gains_single(beta_sr, beta_rd, variance, noise)
    snr = 2.0 * power * gains.alpha1 * gains.alpha2 / (gains.alpha1 + gains.alpha2)
    return power, relay_mod.df_rate(0.5, snr / gains.alpha1, snr / gains.alpha2, gains), 0


def _row(sweep_var, tech, mode, power, rate, iterations) -> SweepRow:
    """Row of a solver's power (W), rate and iterations.  The one feasibility test: a
    power not <= POWER_UPPER_W (inf and NaN too) gives the inf/nan/0 row."""
    if not power <= POWER_UPPER_W:
        return SweepRow(sweep_var, tech, mode, math.inf, math.nan, 0)
    return SweepRow(sweep_var, tech, mode, watt_to_dbm(power), rate, iterations)


def _solve_df(target_rate, rows) -> tuple[SweepRow, ...]:
    """``rows`` in order, each pending (sweep_var, technology, mode, EffectiveGains)
    entry made a row of its DF minimum power; one batch solves every pending entry."""
    pending = [row for row in rows if not isinstance(row, SweepRow)]
    if not pending:
        return tuple(rows)
    solutions = relay_mod.df_min_power_batch(
        target_rate, [g.alpha1 for *_, g in pending], [g.alpha2 for *_, g in pending])
    solved = (_row(x, tech, mode, power, relay_mod.df_rate(tau1, p1, p2, gains), iterations)
              for (x, tech, mode, gains), (power, tau1, p1, p2, iterations)
              in zip(pending, solutions))
    return tuple(row if isinstance(row, SweepRow) else next(solved) for row in rows)


def _surface_rows(frame: _Frame, sizes, points, modes) -> list[list]:
    """Each point's surface rows: at each (sweep value, ``_Frame.sight``, EMI variance)
    point, the ``_row`` of an ``irs_n<size>`` surface per size in ``sizes`` (a
    repeated size runs once) and mode ``<solver>_<emi>`` in ``modes``: ``heuristic``
    under an EMI named as in ``_Frame.lattice`` or none (variance 0), a closed form
    of ``_Frame.form`` (see irs), or ``optimized`` under iso, case1 or case2.

    The rows are taken size by size, mode by mode, point by point.  Each run keeps
    its last lattice and that lattice's read (the form, or the ``_Frame.correlation``
    of an optimized row) as loop variables, and reads again only when a point's
    lattice is another object.  A size's one channel h_sr is built on its first
    optimized mode.  An optimized row solves the link toward sqrt(beta_rd / beta_sr)
    conj(h_sr), with its real link's g at shifted phases (see irs on plane waves);
    it starts from the run's last phases if the two sights are equal, else cold.
    """
    noise, target = frame.scenario.budget.noise_power_w, frame.scenario.target_rate
    rows = [[] for _ in points]
    for n in dict.fromkeys(sizes):
        h_sr = None
        for mode in modes:
            solver, emi = mode.split("_")
            if solver == "optimized" and h_sr is None:
                h_sr = los_channel(frame.beta_sr, *frame.source_angles, frame.layouts[n])
            phases, last, read, previous = None, None, 0.0, None  # none never reads: its form is 0
            for (x, (angles, beta_rd), variance), point_rows in zip(points, rows):
                variance = 0.0 if emi == "none" else variance
                lattice = frame.lattice(emi, angles)
                # the lattice itself, not its id(): a rebuilt kernel can reuse a freed address
                if lattice is not last:
                    last, read = lattice, (frame.form if solver == "heuristic"
                                           else frame.correlation)(n, emi, angles)
                if solver == "heuristic":
                    power, rate = irs_mod.power_and_rate(
                        target, frame.beta_sr * beta_rd * n ** 2, variance * beta_rd * read + noise)
                    iterations = 0
                else:
                    link = irs_mod.IrsLink(h_sr, math.sqrt(beta_rd / frame.beta_sr) * h_sr.conj(),
                                           variance, read, noise)
                    power, rate, phases, iterations, _ = irs_mod.irs_min_power_emi_aware(
                        target, link, phases if (angles, beta_rd) == previous else None)
                    previous = angles, beta_rd
                point_rows.append(_row(x, f"irs_n{n}", mode, power, rate, iterations))
    return rows


def _sweep(scenario: Scenario, variable: str, sizes, irs_modes, df_modes) -> SweepResult:
    """Rows over the distance (``distance_m``) or EMI-to-noise (``rho_db``) sweep,
    on a ``_Frame`` of its own over ``sizes``.

    At each point: the ``_surface_rows`` of ``sizes`` and ``irs_modes``, then
    every relay mode on a single-antenna relay, each row ``_row`` of its
    solver's power, rate and iterations.  A relay mode is ``<solver>_<emi>``,
    the solver ``repetition`` or ``optimized`` and the EMI none (variance 0) or
    iso.  A rho sweep's points share one sight, so its surface rows continue
    (see ``_surface_rows``).  Optimized relay rows wait for ``_solve_df``.
    """
    frame = _Frame(scenario, sizes)
    noise, target = scenario.budget.noise_power_w, scenario.target_rate
    if variable == "rho_db":
        sight = frame.sight(scenario.dest_pos)
        points = [(float(rho), sight, _emi_variance(rho, noise)) for rho in scenario.rhos_db()]
    else:
        points = [(float(d), frame.sight(tuple(dest.tolist())), scenario.emi_variance)
                  for d, dest in zip(scenario.distances(), scenario.sweep_destinations())]
    rows = _surface_rows(frame, sizes, points, irs_modes)
    for (x, (_, beta_rd), variance), point_rows in zip(points, rows):
        for mode in df_modes:
            inputs = (frame.beta_sr, beta_rd, 0.0 if mode.endswith("_none") else variance, noise)
            point_rows.append((x, "df", mode, relay_mod.effective_gains_single(*inputs))
                              if mode.startswith("optimized")
                              else _row(x, "df", mode, *_df_repetition(target, *inputs)))
    return SweepResult(variable, _solve_df(target, [row for r in rows for row in r]))


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
    """As run_fig4 but with both technologies optimized against EMI; each
    surface row's optimizer continues from the previous rho's phases."""
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
    (case 1) and on the destination direction (case 2).  Each direction's
    kernel is built once: case 1's and one case 2 kernel per distance.
    """
    return _sweep(scenario, "distance_m", (scenario.irs_reference_elements,),
                  ("heuristic_none", "heuristic_iso", "heuristic_case1", "heuristic_case2"), ())


def run_fig8(scenario: Scenario) -> SweepResult:
    """Relay power vs antenna count with MR/MMSE combining.

    Covers isotropic EMI and the destination-centred gaussian (case 2) at the
    configured rho (covariance v R + N0 I), a no-EMI relay reference (N0 I),
    and at every antenna count the surface reference: fig5's surface at that
    rho, iso and case 2, the ``_surface_rows`` of one point (so cold solves),
    relabelled per count.  One case-2 kernel spans the largest rows and columns
    of the relays and the surface, and every array reads its EMI from it.  Per
    antenna count, each MMSE gain solves its covariance and each MR gain is the
    closed form beta_sr M^2 / (v q + N0 M) of q = ``_Frame.form`` (see relay);
    the relay rows wait for ``_solve_df``, as optimized DF rows do.
    """
    noise, variance = scenario.budget.noise_power_w, scenario.emi_variance
    n_ref = scenario.irs_reference_elements
    frame = _Frame(scenario, (n_ref, *scenario.relay_antennas))
    angles, beta_rd = sight = frame.sight(scenario.dest_pos)
    (refs,) = _surface_rows(frame, (n_ref,), [(scenario.rho_db, sight, variance)],
                            ("optimized_iso", "optimized_case2"))
    rows, mmse = [], relay_mod.CombinerKind.MMSE
    for m in scenario.relay_antennas:
        layout = frame.layouts[m]
        h_sr = los_channel(frame.beta_sr, *frame.source_angles, layout)
        alpha2 = relay_mod.effective_gain_second_phase(
            los_channel(beta_rd, *angles, layout), noise)
        for emi in ("iso", "case2", "none"):  # the form of none is 0
            gains = {}
            if emi != "none":
                cov = variance * frame.correlation(m, emi, angles) + noise * np.eye(m)
                gains["df_mmse"] = relay_mod.effective_gain_first_phase(h_sr, cov, mmse)
            gains["df" if emi == "none" else "df_mr"] = frame.beta_sr * m ** 2 / (
                variance * frame.form(m, emi, angles) + noise * m)
            rows.extend((float(m), tech, f"optimized_{emi}", relay_mod.EffectiveGains(
                alpha1, alpha2)) for tech, alpha1 in gains.items())
        rows.extend(replace(ref, sweep_var=float(m)) for ref in refs)
    return SweepResult("antennas", _solve_df(scenario.target_rate, rows))


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
    frame = _Frame(scenario, (size,))
    angles = frame.sight(scenario.dest_pos)[0]
    return {f"{figure}_{emi}": frame.correlation(size, emi, angles) for emi in emis}


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
