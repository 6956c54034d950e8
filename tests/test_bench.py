import importlib
import importlib.util
import inspect
import json
import math
import pathlib
from dataclasses import replace

import numpy as np
import pytest

from emilink import (LinkBudget, Scenario, SweepResult, SweepRow, Vec3, format_csv,
                     format_svg, pathloss_umi, run_fig3, run_fig4,
                     run_fig5, run_fig6, run_fig7, run_fig8,
                     repetition_required_power, scenario_from_config, watt_to_dbm)
from emilink.bench import CSV_HEADER, RUNNERS, correlations, dump_matrix_csv
from emilink import cli

SMALL = Scenario(distance_sweep=(20.0, 120.0, 6), rho_sweep=(-10.0, 40.0, 6),
                 irs_elements=(16,), irs_reference_elements=16,
                 relay_antennas=(1, 2, 3, 4))


def powers_by(result, technology, mode):
    rows = result.select(technology, mode)
    return {r.sweep_var: r.power_dbm for r in rows}


def test_scenario_defaults_match_reference_setup():
    sc = Scenario()
    assert sc.source_pos.as_array().tolist() == [0.0, 0.0, 0.0]
    assert sc.node_pos.as_array().tolist() == [60.0, 10.0, 0.0]
    assert sc.dest_pos.as_array().tolist() == [60.0, 0.0, 0.0]
    assert sc.budget.carrier_frequency_ghz == 3.0
    assert watt_to_dbm(sc.budget.noise_power_w) == pytest.approx(-94.0)
    assert sc.budget.gain_node_dbi == 5.0
    assert sc.budget.gain_endpoint_dbi == 0.0
    assert sc.target_rate == 6.0
    assert sc.rho_db == 25.0
    assert sc.irs_elements == (50, 75, 100)
    assert sc.relay_antennas == tuple(range(1, 81))


def test_scenario_from_config_roundtrip_defaults():
    assert scenario_from_config({}) == Scenario()


def test_scenario_from_config_overrides():
    sc = scenario_from_config({
        "emi": {"rho_db": 10.0},
        "irs": {"elements": 32, "reference_elements": 32},
        "relay": {"antennas": [2, 4]},
        "sweeps": {"distance_m": [30.0, 90.0, 4]},
    })
    assert sc.rho_db == 10.0
    assert sc.irs_elements == (32,)
    assert sc.relay_antennas == (2, 4)
    assert sc.distances().tolist() == [30.0, 50.0, 70.0, 90.0]


def test_scenario_from_config_ignores_legacy_keys():
    # keys of version-1 files that enter no computation
    assert scenario_from_config({"budget": {"bandwidth_hz": 20e6},
                                 "relay": {"combiner": "mr"},
                                 "optimization": {"emi_aware": True}}) == Scenario()


def test_scenario_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key: nonsense"):
        scenario_from_config({"nonsense": 1})
    with pytest.raises(ValueError, match="unknown config key: emi.rho"):
        scenario_from_config({"emi": {"rho": 3}})
    with pytest.raises(ValueError, match="version"):
        scenario_from_config({"version": 99})


@pytest.mark.parametrize("raw,message", [
    ({"sweeps": {"rho_db": [-10.0, 40.0, 0]}}, "rho_sweep"),
    ({"sweeps": {"distance_m": [20.0, 120.0, 2.5]}}, "distance_sweep"),
    ({"target_rate_bps_hz": 0.0}, "target rate"),
    ({"irs": {"elements": []}}, "counts"),
    ({"irs": {"reference_elements": 0}}, "counts"),
    ({"relay": {"antennas": 0}}, "counts"),
    ({"quadrature_nodes": 1}, "quadrature"),
    ({"geometry": {"node_m": [0.0, 0.0, 0.0]}}, "distinct"),
    ({"geometry": {"node_m": [30.0, 0.0, 5.0]}}, "axis"),
    ({"emi": {"rho_db": math.nan}}, "rho_db"),
    ({"emi": {"spread_deg": 0.0}}, "spread"),
    ({"emi": {"spread_deg": -5.0}}, "spread"),
    ({"emi": {"spread_deg": math.nan}}, "spread"),
    ({"budget": {"noise_dbm": math.nan}}, "noise_power_w"),
    ({"budget": {"node_gain_dbi": math.nan}}, "gain_node_dbi"),
    ({"budget": {"endpoint_gain_dbi": math.nan}}, "gain_endpoint_dbi"),
    ({"budget": {"carrier_frequency_ghz": math.nan}}, "carrier_frequency_ghz"),
    ({"sweeps": {"rho_db": [-10.0, math.nan, 26]}}, "rho_sweep"),
    ({"sweeps": {"distance_m": [math.nan, 120.0, 26]}}, "distance_sweep"),
    ({"irs": {"elements": [2.5]}}, "counts"),
    ({"irs": {"reference_elements": 9.9}}, "counts"),
    ({"relay": {"antennas": 3.5}}, "counts"),
    ({"relay": {"antennas": [2, 3.5]}}, "counts"),
    ({"quadrature_nodes": 64.7}, "quadrature"),
    ([{"version": 1}], "must be an object"),
    ("fig3", "must be an object"),
    # hops under 1 m: node to destination, source to node, node to the
    # destination of the 28 m sweep point
    ({"geometry": {"node_m": [60.0, 0.5, 0.0]}}, "1 m"),
    ({"geometry": {"node_m": [0.5, 0.3, 0.0]}}, "1 m"),
    ({"geometry": {"node_m": [28.0, 0.5, 0.0]}}, "1 m"),
])
def test_scenario_from_config_rejects_bad_values(raw, message):
    # rejected while the Scenario is built, before any sweep work
    with pytest.raises(ValueError, match=message):
        scenario_from_config(raw)


@pytest.mark.parametrize("kwargs,message", [
    ({"irs_elements": (2.5,)}, "counts"),
    ({"irs_reference_elements": 9.9}, "counts"),
    ({"relay_antennas": (1, 3.5)}, "counts"),
    ({"quadrature_nodes": 64.7}, "quadrature"),
])
def test_scenario_rejects_fractional_counts(kwargs, message):
    # built directly, without the config loader in front
    with pytest.raises(ValueError, match=message):
        Scenario(**kwargs)


def test_whole_float_counts_load_as_ints():
    sc = scenario_from_config({"irs": {"elements": [50.0, 75, 100.0], "reference_elements": 75.0},
                               "relay": {"antennas": 80.0}, "quadrature_nodes": 64.0})
    assert sc == Scenario()
    counts = (*sc.irs_elements, sc.irs_reference_elements, *sc.relay_antennas,
              sc.quadrature_nodes)
    assert all(type(n) is int for n in counts)


def test_readme_config_block_is_the_default_scenario():
    # the README's example config and the Scenario defaults must not drift apart
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert scenario_from_config(json.loads(block)) == Scenario()


def test_csv_round_trip_and_header():
    result = run_fig4(SMALL)
    text = format_csv(result)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == len(result.rows) + 1
    for line, row in zip(lines[1:], result.rows):
        sweep, tech, mode, power, rate, iters = line.split(",")
        assert SweepRow(float(sweep), tech, mode, float(power), float(rate), int(iters)) == row


def test_csv_deterministic():
    a = format_csv(run_fig4(SMALL))
    b = format_csv(run_fig4(SMALL))
    assert a == b


def test_emit_rejects_empty():
    with pytest.raises(ValueError):
        format_csv(SweepResult("x", ()))
    with pytest.raises(ValueError):
        format_svg(SweepResult("x", ()))


def test_emit_unwritable_path(tmp_path):
    from emilink import emit
    result = run_fig4(SMALL)
    with pytest.raises(OSError):
        emit(result, "csv", tmp_path / "missing" / "out.csv")


def test_golden_fixture_csv():
    import pathlib
    sc = Scenario(irs_elements=(9,), irs_reference_elements=9, rho_sweep=(0.0, 30.0, 4))
    golden = pathlib.Path(__file__).parent / "data" / "golden_fig4.csv"
    assert format_csv(run_fig4(sc)) == golden.read_text()


# Unsorted surface sizes with a repeat: rows follow first appearance and a
# repeated size is evaluated once.  The distance sweep hits the destination
# distance (60 m), so fig7 dumps its case-2 correlation.
GOLDEN_CONFIG = {
    "irs": {"elements": [16, 9, 16], "reference_elements": 16},
    "relay": {"antennas": 4},
    "sweeps": {"distance_m": [20.0, 120.0, 6], "rho_db": [-10.0, 40.0, 6]},
}
GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"


@pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"])
def test_cli_output_matches_golden_bytes(fig, tmp_path):
    # goldens written by the CLI before the sweeps were folded into one path
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "out"
    assert cli.main([fig, "--config", str(cfg), "--out", str(out), "--dump-corr"]) == 0
    written = sorted(p.name for p in out.iterdir())
    assert written == sorted(p.name for p in GOLDEN_DIR.glob(f"{fig}[._]*"))
    for name in written:
        assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), name


def test_svg_output():
    result = run_fig4(SMALL)
    svg = format_svg(result)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert format_svg(run_fig4(SMALL)) == svg


def test_dump_matrix_csv(tmp_path):
    m = np.array([[1.0 + 0.5j, -0.25 - 1e-3j], [0.0 + 0j, 2.0 - 2.0j]])
    path = tmp_path / "m.csv"
    dump_matrix_csv(m, path)
    rows = path.read_text().strip().splitlines()
    parsed = np.array([[complex(cell) for cell in row.split(",")] for row in rows])
    assert np.array_equal(parsed, m)


def test_fig3_no_emi_rows_match_closed_forms():
    result = run_fig3(SMALL)
    sc = SMALL
    noise = sc.budget.noise_power_w
    b_sr = pathloss_umi(float(np.linalg.norm(sc.node_pos.as_array())), sc.budget)
    for d, power in powers_by(result, "df", "repetition_none").items():
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - sc.node_pos.as_array())), sc.budget)
        expected = repetition_required_power(6.0, b_sr, b_rd, 0.0, noise)
        assert power == pytest.approx(watt_to_dbm(expected), abs=1e-9)
    for d, power in powers_by(result, "irs_n16", "heuristic_none").items():
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - sc.node_pos.as_array())), sc.budget)
        expected = watt_to_dbm(63.0 * noise / (16 ** 2 * b_sr * b_rd))
        assert power == pytest.approx(expected, abs=1e-9)


def test_fig3_emi_penalties():
    result = run_fig3(SMALL)
    df_clean = powers_by(result, "df", "repetition_none")
    df_emi = powers_by(result, "df", "repetition_iso")
    for d in df_clean:
        assert df_emi[d] - df_clean[d] > 15.0
    irs_clean = powers_by(result, "irs_n16", "heuristic_none")
    irs_emi = powers_by(result, "irs_n16", "heuristic_iso")
    for d in irs_clean:
        assert 0.0 <= irs_emi[d] - irs_clean[d] < 5.0


def test_fig3_distance_sweep_follows_the_source_destination_axis():
    # the paper scene mirrored onto the y axis keeps every distance and the
    # isotropic EMI, so each row keeps its power
    mirrored = Scenario(source_pos=Vec3(0.0, 0.0, 0.0), node_pos=Vec3(10.0, 60.0, 0.0),
                        dest_pos=Vec3(0.0, 60.0, 0.0))
    paper, other = run_fig3(Scenario()), run_fig3(mirrored)
    assert [(r.sweep_var, r.technology, r.mode) for r in paper.rows] == \
        [(r.sweep_var, r.technology, r.mode) for r in other.rows]
    shift = max(abs(a.power_dbm - b.power_dbm) for a, b in zip(paper.rows, other.rows))
    assert shift <= 1e-9, f"worst row shift {shift:.2e} dB"


def test_fig4_monotone_in_rho():
    result = run_fig4(SMALL)
    df = powers_by(result, "df", "repetition_iso")
    irs = powers_by(result, "irs_n16", "heuristic_iso")
    df_curve = [df[r] for r in sorted(df)]
    irs_curve = [irs[r] for r in sorted(irs)]
    assert all(b >= a - 1e-12 for a, b in zip(df_curve, df_curve[1:]))
    assert all(b >= a - 1e-12 for a, b in zip(irs_curve, irs_curve[1:]))


def test_fig5_optimization_dominates_fig4():
    plain = run_fig4(SMALL)
    tuned = run_fig5(SMALL)
    df_plain = powers_by(plain, "df", "repetition_iso")
    df_tuned = powers_by(tuned, "df", "optimized_iso")
    irs_plain = powers_by(plain, "irs_n16", "heuristic_iso")
    irs_tuned = powers_by(tuned, "irs_n16", "optimized_iso")
    for rho in df_plain:
        assert df_tuned[rho] <= df_plain[rho] + 1e-6
        assert irs_tuned[rho] <= irs_plain[rho] + 1e-6


def test_fig6_row_wise_dominance():
    result = run_fig6(SMALL)
    irs_heur = powers_by(result, "irs_n16", "heuristic_iso")
    irs_opt = powers_by(result, "irs_n16", "optimized_iso")
    df_rep = powers_by(result, "df", "repetition_iso")
    df_opt = powers_by(result, "df", "optimized_iso")
    for d in irs_heur:
        assert irs_opt[d] <= irs_heur[d] + 1e-6
        assert df_opt[d] <= df_rep[d] + 1e-6
        df_gain = df_rep[d] - df_opt[d]
        irs_gain = irs_heur[d] - irs_opt[d]
        assert df_gain > irs_gain


def test_fig6_reference_size_optimization_gain():
    # at 75 elements the phase optimization buys very little; bound of
    # 2 dB plus 1 dB slack
    sc = Scenario(irs_elements=(75,), irs_reference_elements=75,
                  distance_sweep=(20.0, 120.0, 6), relay_antennas=(1,))
    result = run_fig6(sc)
    heur = powers_by(result, "irs_n75", "heuristic_iso")
    opt = powers_by(result, "irs_n75", "optimized_iso")
    for d in heur:
        assert 0.0 - 1e-9 <= heur[d] - opt[d] < 3.0


def test_fig7_case_ordering():
    result = run_fig7(SMALL)
    clean = powers_by(result, "irs_n16", "heuristic_none")
    iso = powers_by(result, "irs_n16", "heuristic_iso")
    case1 = powers_by(result, "irs_n16", "heuristic_case1")
    case2 = powers_by(result, "irs_n16", "heuristic_case2")
    sc = SMALL
    noise = sc.budget.noise_power_w
    b_sr = pathloss_umi(float(np.linalg.norm(sc.node_pos.as_array())), sc.budget)
    for d in clean:
        assert case1[d] >= case2[d] - 1e-9
        assert case2[d] - clean[d] < 3.0
        assert iso[d] >= clean[d] - 1e-12
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - sc.node_pos.as_array())), sc.budget)
        assert clean[d] == pytest.approx(
            watt_to_dbm(63.0 * noise / (16 ** 2 * b_sr * b_rd)), abs=1e-9)


def test_fig8_structure_and_dominance():
    result = run_fig8(SMALL)
    for emi_name in ("iso", "case2"):
        mmse = powers_by(result, "df_mmse", f"optimized_{emi_name}")
        mr = powers_by(result, "df_mr", f"optimized_{emi_name}")
        clean = powers_by(result, "df", "optimized_none")
        irs_ref = powers_by(result, "irs_n16", f"optimized_{emi_name}")
        assert set(mmse) == {1.0, 2.0, 3.0, 4.0}
        assert len(set(irs_ref.values())) == 1  # constant reference line
        for m in mmse:
            assert mmse[m] <= mr[m] + 1e-6
            assert clean[m] <= mmse[m] + 1e-6


def test_all_rows_achieve_target_rate():
    for runner in (run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8):
        result = runner(SMALL)
        for row in result.rows:
            if row.feasible:
                assert row.rate_bps_hz == pytest.approx(6.0, rel=2e-5), (runner, row)


def test_power_cap_applies_to_every_technology():
    # 40 bit/s/Hz needs ~116 dBm through the surface, beyond the 80 dBm cap
    scenario = Scenario(target_rate=40.0)
    fig8 = run_fig8(scenario).rows
    rows = run_fig4(scenario).rows + tuple(
        r for r in fig8 if r.technology == "irs_n75" or r.technology.startswith("df"))
    assert {r.technology for r in rows} >= {"irs_n75", "df", "df_mmse", "df_mr"}
    for row in rows:
        assert math.isinf(row.power_dbm) and math.isnan(row.rate_bps_hz), row
        assert row.solver_iters == 0


def test_cli_writes_csv(tmp_path):
    out = tmp_path / "results"
    code = cli.main(["fig4", "--out", str(out)])
    assert code == 0
    target = out / "fig4.csv"
    assert target.exists()
    assert len(target.read_text().splitlines()) == 53


def test_cli_config_and_svg(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "irs": {"elements": [9], "reference_elements": 9},
        "sweeps": {"rho_db": [0.0, 10.0, 3]},
    }))
    out = tmp_path / "o"
    code = cli.main(["fig4", "--config", str(cfg), "--out", str(out),
                     "--format", "svg"])
    assert code == 0
    assert (out / "fig4.svg").read_text().startswith("<svg ")


def test_cli_dump_corr(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "irs": {"elements": [9], "reference_elements": 9},
        "relay": {"antennas": [2, 3]},
    }))
    out = tmp_path / "o"
    code = cli.main(["fig8", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    assert not list(out.glob("*_corr.csv"))
    code = cli.main(["fig8", "--config", str(cfg), "--out", str(out), "--dump-corr"])
    assert code == 0
    assert sorted(p.name for p in out.glob("*_corr.csv")) == [
        "fig8_case2_corr.csv", "fig8_iso_corr.csv"]


def test_cli_dump_corr_fig7_sweep_missing_destination(tmp_path):
    # 25..115 m in 7 steps never lands on the 60 m destination distance;
    # the case-2 dump is still taken toward the configured destination
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "geometry": {"source_m": [0, 0, 0], "node_m": [10, 60, 0],
                     "destination_m": [0, 60, 0]},
        "irs": {"elements": [9], "reference_elements": 9},
        "sweeps": {"distance_m": [25.0, 115.0, 7]},
    }))
    out = tmp_path / "o"
    assert cli.main(["fig7", "--config", str(cfg), "--out", str(out), "--dump-corr"]) == 0
    assert sorted(p.name for p in out.glob("*_corr.csv")) == [
        "fig7_case1_corr.csv", "fig7_case2_corr.csv", "fig7_iso_corr.csv"]


def test_every_runner_takes_only_a_scenario():
    for name, runner in RUNNERS.items():
        assert list(inspect.signature(runner).parameters) == ["scenario"], name


def test_correlations_by_figure():
    assert {fig: sorted(correlations(fig, SMALL)) for fig in RUNNERS} == {
        "fig3": [], "fig4": [], "fig5": [], "fig6": [],
        "fig7": ["fig7_case1", "fig7_case2", "fig7_iso"], "fig8": ["fig8_case2", "fig8_iso"]}
    assert correlations("fig7", SMALL)["fig7_iso"].shape == (16, 16)
    assert correlations("fig8", SMALL)["fig8_case2"].shape == (4, 4)


def test_cli_error_exit_code(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"bogus": True}))
    assert cli.main(["fig4", "--config", str(cfg), "--out", str(tmp_path)]) == 1


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("rate", [600.0, math.inf])
def test_huge_target_rate_gives_infeasible_rows(rate):
    # 2^600 and 2^1200 overflow a float: every row is infeasible, none raises
    scenario = replace(SMALL, target_rate=rate)
    for runner in (run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8):
        for row in runner(scenario).rows:
            assert math.isinf(row.power_dbm) and math.isnan(row.rate_bps_hz), (runner, row)
            assert row.solver_iters == 0


def test_cli_huge_target_rate_exits_infeasible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_rate_bps_hz": 600, "irs": {"elements": [9]}}))
    assert cli.main(["fig3", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_tracer_targets_resolve():
    # the benchmark tracer wraps these names; a refactor must keep them
    spec = importlib.util.spec_from_file_location(
        "tracer", pathlib.Path(__file__).parents[1] / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    for module, attr, _ in tracer.TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_cli_infeasible_exit_code(tmp_path, monkeypatch):
    sentinel = SweepResult("x", (SweepRow(1.0, "df", "optimized_iso",
                                          math.inf, math.nan, 0),))
    monkeypatch.setitem(cli.bench.RUNNERS, "fig5", lambda sc: sentinel)
    assert cli.main(["fig5", "--out", str(tmp_path)]) == 2
