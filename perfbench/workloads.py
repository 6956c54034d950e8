"""Benchmark workloads and the seeded scenario-config generator.

A workload is a fixed list of figures plus config overrides.  The program
never sees the seed: each pass hands it one generated JSON config file.
Seed 0 is the paper scenario exactly (plus the workload's overrides); any
other seed redraws the relay/surface position (unless the workload keeps
it) and the interference strength and spread.  Sweep grids never depend on the seed, so every
workload writes the same number of rows, with the same keys, on every seed.
"""

from __future__ import annotations

import copy
import json
import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_VERSION = 1
TARGET_RATE_BPS_HZ = 6.0  # the paper's target; the gate checks every row against it


@dataclass(frozen=True)
class Workload:
    name: str
    figures: tuple[str, ...]
    why: str
    overrides: dict = field(default_factory=dict)
    seed_moves_node: bool = True


WORKLOADS = {w.name: w for w in (
    # fig8 is the paper's heaviest figure and the only multi-antenna path:
    # the DF min-power solver dominates (~84%), and the directional
    # correlation is rebuilt for 81 small, growing layouts with two
    # densities each.  The surface optimizer runs only twice, so an irs
    # change should read "no change" here.
    Workload("antenna_sweep", ("fig8",),
             "fig8, relay antennas M=1..80: DF solver and many small directional "
             "correlations",
             {"relay": {"antennas": 80}}),
    # fig5 and fig7 on a 20x20 surface: one large layout with 27 densities,
    # so directional quadrature plus PSD projection dominate (~60%) and the
    # EMI-aware surface optimizer takes most of the rest.  The relay layer
    # is nearly bypassed (26 scalar DF solves), the opposite emi usage to
    # antenna_sweep.  The node stays at the paper position on every seed:
    # at this size the optimizer hits its 1000-iteration limit on 1 to 4 of
    # fig5's 26 rows depending on where the node is drawn (fig5 took 4.5 to
    # 8.4 s on a 2-CPU machine), which spread wall_s by 0.19 of its median
    # over ten seeds.  At
    # the paper position it hits the limit on the same 2 rows every time,
    # so that regime stays measured.
    Workload("large_surface", ("fig5", "fig7"),
             "fig5+fig7 on a 400-element surface: one large correlation, many "
             "densities, EMI-aware IRS optimizer incl. its iteration limit",
             {"irs": {"elements": [400], "reference_elements": 400}},
             seed_moves_node=False),
    # fig3, fig4 and fig6 at paper sizes: hundreds of closed-form heuristic
    # and repetition rows, the small-N optimizer and 26 single-antenna DF
    # solves, and no directional quadrature at all.  An emi change must
    # read "no change" here; per-row plumbing and per-call overhead show.
    Workload("paper_rows", ("fig3", "fig4", "fig6"),
             "fig3+fig4+fig6 at paper sizes: many closed-form rows, no "
             "directional quadrature"),
)}


def _merge(base: dict, extra: dict) -> dict:
    merged = copy.deepcopy(base)
    for key, value in extra.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            merged[key] = _merge(merged[key], value)
        else:
            merged[key] = copy.deepcopy(value)
    return merged


def make_config(workload: Workload, seed: int) -> dict:
    """Scenario config for one pass of ``workload`` at ``seed``."""
    config = _merge({"version": CONFIG_VERSION, "target_rate_bps_hz": TARGET_RATE_BPS_HZ},
                    workload.overrides)
    if seed != 0:
        rng = random.Random(seed)
        node = [rng.uniform(55.0, 65.0), rng.uniform(8.0, 12.0), 0.0]
        drawn = {"emi": {"rho_db": rng.uniform(22.0, 28.0),
                         "spread_deg": rng.uniform(8.0, 12.0)}}
        if workload.seed_moves_node:
            drawn["geometry"] = {"node_m": node}
        config = _merge(config, drawn)
    return config


def write_config(workload: Workload, seed: int, path: Path) -> Path:
    path.write_text(json.dumps(make_config(workload, seed), indent=1, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
