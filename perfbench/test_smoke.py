"""Smoke test of the benchmark harness on a shrunk generated scenario.

Run from the repository root: ``python3 -m pytest -q perfbench/test_smoke.py``.
The figures use 3-point sweeps, relay antennas M=1..4 and a 16-element
surface, so the whole file takes seconds rather than minutes.
"""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import run  # noqa: E402
from record_reference import record  # noqa: E402
from workloads import WORKLOADS, Workload, make_config  # noqa: E402

SMOKE = Workload(
    "smoke", tuple(f"fig{n}" for n in range(3, 9)), "every figure at toy sizes",
    {"sweeps": {"distance_m": [20.0, 120.0, 3], "rho_db": [-10.0, 40.0, 3]},
     "relay": {"antennas": 4}, "irs": {"elements": [16], "reference_elements": 16}})


def benchmark_metric_names(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec[section]}


@pytest.fixture(scope="module")
def reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    record(SMOKE, out)
    return out


@pytest.mark.parametrize("seed,trace", [(0, False), (1, True)])
def test_every_metric_is_emitted_and_the_gate_passes(reference, tmp_path, seed, trace):
    harness = run.Harness(ROOT, SMOKE, seed, tmp_path, reference)
    result, record_ = run.measure(harness, seconds=0, trace=trace)

    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == sum(len(gate.parse_csv((reference / f"{f}.csv").read_text()))
                                      for f in SMOKE.figures) * len(record_["passes"])
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == benchmark_metric_names(section)
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if trace:
        metrics = {k: v["value"] for k, v in result["metrics"].items()}
        # bench imports these by name; a missed rebinding would read zero.
        assert metrics["scene.make_layout.calls"] > 0
        assert metrics["scene.los_channel.calls"] > 0
        assert any(span[0] == "emi.emi_quadratic_form" for span in record_["spans"])
        assert metrics["emi.leggauss.calls"] > 0
        assert metrics["relay.inner_calls_per_solve"] > 1
        assert metrics["bench.rows"] == record_["meta"]["rows_per_pass"]
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_gate_rejects_a_moved_closed_form_row():
    reference = gate.parse_csv((HERE / "reference" / "paper_rows" / "fig4.csv").read_text())
    assert gate.check_figure("fig4", reference, reference, 6.0, compare_values=True) == []
    moved = list(reference)
    row = moved[0]
    moved[0] = gate.Row(row.sweep_var, row.technology, row.mode, row.power_dbm + 1e-6, row.rate)
    assert len(gate.check_figure("fig4", moved, reference, 6.0, compare_values=True)) == 1
    # Away from seed 0 only the invariants apply, and the moved row still meets them.
    assert gate.check_figure("fig4", moved, reference, 6.0, compare_values=False) == []

    # A DF solver that gives up everywhere fails on every seed: its rows read
    # inf, which the rate check skips and MMSE <= MR would let through.
    fig8 = gate.parse_csv((HERE / "reference" / "antenna_sweep" / "fig8.csv").read_text())
    given_up = [gate.Row(r.sweep_var, r.technology, r.mode, math.inf, r.rate)
                if r.technology.startswith("df") else r for r in fig8]
    df_rows = sum(r.technology.startswith("df") for r in fig8)
    for compare_values in (True, False):
        problems = gate.check_figure("fig8", given_up, fig8, 6.0, compare_values)
        assert len(problems) == df_rows
        assert all("feasibility" in p for p in problems)


@pytest.mark.parametrize("name", ["paper_rows", "antenna_sweep"])
def test_seed_zero_is_the_paper_scenario(name):
    from emilink.bench import Scenario, scenario_from_config

    assert scenario_from_config(make_config(WORKLOADS[name], 0)) == Scenario()
    assert scenario_from_config(make_config(WORKLOADS[name], 1)) != Scenario()
