"""Correctness gate for the figure CSVs a benchmark pass writes.

Against the seed-0 reference CSVs (``reference/<workload>/<fig>.csv``):

* keys (sweep value, technology, mode) and row order match exactly on
  every seed, because the sweep grids do not depend on the seed;
* feasibility matches on every seed: the drawn scenarios stay close to
  the paper point, so a solver that gives up on a row the reference
  solves has failed that row rather than made it cheaper;
* at seed 0 only, ``heuristic_*`` and ``repetition_*`` rows stay within
  1e-9 dB, DF optimized rows within 1e-3 dB, and IRS optimized rows may
  not exceed the reference by more than 1e-3 dB (a better surface
  optimizer may go lower).

Invariants on every seed:

* every feasible row reaches the target: |rate - target| <= 1e-5 * target;
* an optimized row needs no more power than the heuristic (surface) or
  repetition (relay) row at the same point;
* in fig8, MMSE combining needs no more power than MR.

The last two allow 1e-4 dB of slack.  A row counts as failed once, however
many checks it breaks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

HEADER = "sweep_var,technology,mode,power_dbm,rate_bps_hz,solver_iters"
CLOSED_FORM_TOL_DB = 1e-9
DF_OPTIMIZED_TOL_DB = 1e-3
IRS_OPTIMIZED_TOL_DB = 1e-3
RATE_REL_TOL = 1e-5
DOMINANCE_SLACK_DB = 1e-4


@dataclass(frozen=True)
class Row:
    sweep_var: float
    technology: str
    mode: str
    power_dbm: float
    rate: float
    solver_iters: int = 0

    @property
    def key(self):
        return (self.sweep_var, self.technology, self.mode)

    @property
    def feasible(self) -> bool:
        return math.isfinite(self.power_dbm)


def parse_csv(text: str) -> list[Row]:
    lines = text.splitlines()
    if not lines or lines[0] != HEADER:
        raise ValueError("unrecognized CSV header")
    rows = []
    for line in lines[1:]:
        sweep, tech, mode, power, rate, iters = line.split(",")
        rows.append(Row(float(sweep), tech, mode, float(power), float(rate), int(iters)))
    return rows


def _reference_problem(row: Row, ref: Row, compare_values: bool) -> str | None:
    if row.feasible != ref.feasible:
        return "feasibility differs from the reference"
    if not (compare_values and row.feasible):
        return None
    diff = row.power_dbm - ref.power_dbm
    if row.mode.startswith(("heuristic_", "repetition_")):
        if abs(diff) > CLOSED_FORM_TOL_DB:
            return f"closed-form power moved by {diff:.3g} dB"
    elif row.technology.startswith("df"):
        if abs(diff) > DF_OPTIMIZED_TOL_DB:
            return f"DF optimized power moved by {diff:.3g} dB"
    elif diff > IRS_OPTIMIZED_TOL_DB:
        return f"IRS optimized power rose by {diff:.3g} dB"
    return None


def _baseline_mode(row: Row) -> str | None:
    """Mode of the non-optimized row the optimized ``row`` must not exceed."""
    if not row.mode.startswith("optimized_"):
        return None
    emi = row.mode[len("optimized_"):]
    if row.technology.startswith("irs_"):
        return f"heuristic_{emi}"
    if row.technology == "df":
        return f"repetition_{emi}"
    return None


def check_figure(figure: str, rows: list[Row], reference: list[Row], target_rate: float,
                 compare_values: bool) -> list[str]:
    """Problems found in one figure's rows, one message per failed row."""
    if [r.key for r in rows] != [r.key for r in reference]:
        return [f"{figure}: row keys or order differ from the reference"] * max(
            len(rows), len(reference))
    problems = []
    by_key = {r.key: r for r in rows}
    for row, ref in zip(rows, reference):
        found = _reference_problem(row, ref, compare_values)
        if found is None and row.feasible and not abs(row.rate - target_rate) <= RATE_REL_TOL * target_rate:
            found = f"rate {row.rate!r} misses the target {target_rate!r}"
        baseline = _baseline_mode(row)
        other = by_key.get((row.sweep_var, row.technology, baseline)) if baseline else None
        if found is None and other is not None and not (
                row.power_dbm <= other.power_dbm + DOMINANCE_SLACK_DB):
            found = f"optimized power exceeds {baseline}"
        if found is None and figure == "fig8" and row.technology == "df_mmse":
            mr = by_key[(row.sweep_var, "df_mr", row.mode)]
            if not row.power_dbm <= mr.power_dbm + DOMINANCE_SLACK_DB:
                found = "MMSE power exceeds MR"
        if found is not None:
            problems.append(f"{figure} {row.key}: {found}")
    return problems
