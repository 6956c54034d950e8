import ast
import collections
import dataclasses
import importlib
import importlib.util
import inspect
import json
import math
import os
import pathlib
import pickle
import subprocess
import sys
import tempfile
import tracemalloc
import warnings
from dataclasses import replace
from itertools import pairwise

import numpy as np
import pytest

from emilink import (LinkBudget, Scenario, SweepResult, SweepRow, format_csv,
                     format_svg, los_channel, pathloss_umi, run_fig3, run_fig4,
                     run_fig5, run_fig6, run_fig7, run_fig8,
                     repetition_required_power, scenario_from_config, watt_to_dbm)
from emilink.bench import CSV_HEADER, RUNNERS, correlations, dump_matrix_csv
from emilink import bench, cli, irs, relay
from emilink.errors import POWER_UPPER_W
from conftest import run_concurrently

SMALL = Scenario(distance_sweep=(20.0, 120.0, 6), rho_sweep=(-10.0, 40.0, 6),
                 irs_elements=(16,), irs_reference_elements=16,
                 relay_antennas=(1, 2, 3, 4))


def powers_by(result, technology, mode):
    rows = result.select(technology, mode)
    return {r.sweep_var: r.power_dbm for r in rows}


def test_scenario_defaults_match_reference_setup():
    sc = Scenario()
    assert np.array(sc.source_pos).tolist() == [0.0, 0.0, 0.0]
    assert np.array(sc.node_pos).tolist() == [60.0, 10.0, 0.0]
    assert np.array(sc.dest_pos).tolist() == [60.0, 0.0, 0.0]
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


def test_scenario_from_config_rejects_unknown_keys():
    with pytest.raises(ValueError, match="unknown config key: nonsense"):
        scenario_from_config({"nonsense": 1})
    with pytest.raises(ValueError, match="unknown config key: emi.rho"):
        scenario_from_config({"emi": {"rho": 3}})
    # keys that set no field: the combiner is an output of fig8, not a setting,
    # and the quadrature node count is emi.QUADRATURE_NODES
    for raw, key in [({"budget": {"bandwidth_hz": 20e6}}, "budget.bandwidth_hz"),
                     ({"relay": {"combiner": "mr"}}, "relay.combiner"),
                     ({"quadrature_nodes": 64}, "quadrature_nodes"),
                     ({"optimization": {"emi_aware": True}}, "optimization")]:
        with pytest.raises(ValueError, match=f"unknown config key: {key}$"):
            scenario_from_config(raw)
    with pytest.raises(ValueError, match="version"):
        scenario_from_config({"version": 99})


@pytest.mark.parametrize("raw,message", [
    ({"sweeps": {"rho_db": [-10.0, 40.0, 0]}}, "rho_sweep"),
    ({"sweeps": {"distance_m": [20.0, 120.0, 2.5]}}, "distance_sweep"),
    ({"target_rate_bps_hz": 0.0}, "target rate"),
    ({"irs": {"elements": []}}, "counts"),
    ({"irs": {"reference_elements": 0}}, "counts"),
    ({"relay": {"antennas": 0}}, "counts"),
    ({"relay": {"antennas": [2, 0]}}, "counts"),
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
    ({"relay": {"antennas": -3}}, "counts"),  # 1..M is empty
    ([{"version": 1}], "must be an object"),
    ("fig3", "must be an object"),
    # hops under 1 m: node to destination, source to node, node to the
    # destination of the 28 m sweep point
    ({"geometry": {"node_m": [60.0, 0.5, 0.0]}}, "1 m"),
    ({"geometry": {"node_m": [0.5, 0.3, 0.0]}}, "1 m"),
    ({"geometry": {"node_m": [28.0, 0.5, 0.0]}}, "1 m"),
    # JSON values of the wrong type or length, each named by its key
    ({"relay": {"antennas": "80"}}, "relay.antennas"),
    ({"relay": {"antennas": True}}, "relay.antennas"),
    ({"version": True}, "version"),
    ({"irs": {"reference_elements": "75"}}, "irs.reference_elements"),
    ({"emi": {"rho_db": "25"}}, "emi.rho_db"),
    ({"sweeps": {"rho_db": [-10.0, "40", 26]}}, "sweeps.rho_db"),
    ({"target_rate_bps_hz": "6"}, "target_rate_bps_hz"),
    ({"irs": {"elements": "75"}}, "irs.elements"),
    ({"irs": {"elements": [True, 4]}}, "irs.elements"),
    ({"budget": {"noise_dbm": "-94"}}, "budget.noise_dbm"),
    ({"emi": {"spread_deg": None}}, "emi.spread_deg"),
    ({"geometry": {"node_m": [60.0, 10.0]}}, "geometry.node_m"),
    ({"geometry": {"source_m": 0.0}}, "geometry.source_m"),
    ({"sweeps": {"rho_db": [-10.0, 40.0]}}, "sweeps.rho_db"),
    ({"sweeps": {"distance_m": [20.0, 120.0, 26, 1]}}, "sweeps.distance_m"),
    ({"target_rate_bps_hz": [6.0]}, "target_rate_bps_hz"),
    ({"budget": {"node_gain_dbi": [5.0]}}, "budget.node_gain_dbi"),
    # non-finite positions (a JSON file may carry NaN or Infinity)
    ({"geometry": {"node_m": [60.0, math.nan, 0.0]}}, "node_pos"),
    ({"geometry": {"destination_m": [math.inf, 0.0, 0.0]}}, "dest_pos"),
    ({"geometry": {"source_m": [0.0, 0.0, -math.inf]}}, "source_pos"),
    # an EMI variance 10^(rho/10) N0, or a noise power, that overflows a float
    ({"emi": {"rho_db": 4000.0}}, "rho_db"),
    ({"sweeps": {"rho_db": [-10.0, 4000.0, 26]}}, "rho_sweep"),
    ({"budget": {"noise_dbm": 4000.0}}, "budget.noise_dbm"),
    # a wavelength, or a linear antenna gain, outside the float range
    ({"budget": {"carrier_frequency_ghz": 1e-310}}, "carrier_frequency_ghz"),
    ({"budget": {"carrier_frequency_ghz": 1e300}}, "carrier_frequency_ghz"),
    ({"budget": {"node_gain_dbi": 4000.0}}, "gain_node_dbi"),
    ({"budget": {"endpoint_gain_dbi": -4000.0}}, "gain_endpoint_dbi"),
    # a hop gain, or the largest surface's cascaded SNR per watt, outside the float range
    ({"budget": {"endpoint_gain_dbi": -3200.0}}, "gain_endpoint_dbi"),
    ({"budget": {"node_gain_dbi": 3070.0}}, "gain_node_dbi"),
    ({"budget": {"carrier_frequency_ghz": 1e-300}}, "carrier_frequency_ghz"),
    # a config table given as a number
    ({"geometry": 5}, "geometry must be an object"),
    # a target rate so small that 2^R - 1 rounds to 0, or none at all
    ({"target_rate_bps_hz": 1e-300}, "target rate"),
    ({"target_rate_bps_hz": math.nan}, "target rate"),
])
def test_scenario_from_config_rejects_bad_values(raw, message):
    # rejected while the Scenario is built, before any sweep work
    with pytest.raises(ValueError, match=message):
        scenario_from_config(raw)


def test_scenario_accepts_emi_below_the_float_limit():
    # at the default noise the EMI variance overflows a float near 3083 dB
    assert math.isfinite(Scenario(rho_db=3080.0, rho_sweep=(-10.0, 3080.0, 26)).emi_variance)


@pytest.mark.parametrize("kwargs,message", [
    ({"irs_elements": (2.5,)}, "counts"),
    ({"irs_reference_elements": 9.9}, "counts"),
    ({"relay_antennas": (1, 3.5)}, "counts"),
])
def test_scenario_rejects_fractional_counts(kwargs, message):
    # built directly, without the config loader in front
    with pytest.raises(ValueError, match=message):
        Scenario(**kwargs)


def test_positions_are_stored_as_float_tuples():
    # a list or an array builds the same Scenario, equal and hash-equal
    default = Scenario()
    for make in (list, np.array):
        sc = Scenario(source_pos=make([0, 0, 0]), node_pos=make([60, 10, 0]),
                      dest_pos=make([60.0, 0.0, 0.0]))
        assert sc == default and hash(sc) == hash(default)
        for pos in (sc.source_pos, sc.node_pos, sc.dest_pos):
            assert type(pos) is tuple and all(type(c) is float for c in pos)


@pytest.mark.parametrize("name", ["source_pos", "node_pos", "dest_pos"])
@pytest.mark.parametrize("bad", [(1.0, 2.0), (1.0, 2.0, 3.0, 4.0), (math.nan, 0.0, 0.0),
                                 (0.0, math.inf, 0.0)])
def test_scenario_rejects_bad_positions(name, bad):
    with pytest.raises(ValueError, match=name):
        Scenario(**{name: bad})


def test_whole_float_counts_load_as_ints():
    sc = scenario_from_config({"irs": {"elements": [50.0, 75, 100.0], "reference_elements": 75.0},
                               "relay": {"antennas": 80.0}})
    assert sc == Scenario()
    counts = (*sc.irs_elements, sc.irs_reference_elements, *sc.relay_antennas)
    assert all(type(n) is int for n in counts)


def test_readme_config_block_is_the_default_scenario():
    # the README's example config and the Scenario defaults must not drift apart
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("```json\n", 1)[1].split("```", 1)[0]
    assert scenario_from_config(json.loads(block)) == Scenario()


def test_readme_library_block_runs(tmp_path, monkeypatch, capsys):
    # the README's "Library use" example must keep running as exports change
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(tmp_path)
    exec(compile(block, "README.md", "exec"), {})
    assert (tmp_path / "fig5.csv").read_text(encoding="utf-8").startswith(CSV_HEADER + "\n")
    assert len(capsys.readouterr().out.splitlines()) == Scenario().rho_sweep[2]


def test_readme_usage_line_is_the_help_usage(capsys):
    readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    assert cli.main(["--help"]) == 0
    assert "usage: " + block.strip() == capsys.readouterr().out.splitlines()[0]


# Imports emilink and runs the CLI with the given arguments, then prints the
# top-level names of the modules it loaded from site-packages.
_SITE_PACKAGES_PROBE = """
import os, site, sys, sysconfig
before = set(sys.modules)
from emilink import cli
assert cli.main(sys.argv[1:]) == 0
roots = {os.path.realpath(p) for p in (*site.getsitepackages(), site.getusersitepackages(),
                                       sysconfig.get_path("purelib"), sysconfig.get_path("platlib"))}
loaded = {name.partition(".")[0] for name in set(sys.modules) - before
          if any(os.path.realpath(getattr(sys.modules[name], "__file__", None) or "")
                 .startswith(root + os.sep) for root in roots)}
print(" ".join(sorted(loaded)))
"""


def test_runs_on_numpy_alone(tmp_path):
    # numpy is the only dependency; scipy and pytest plugins may be installed but
    # must not be needed.  emilink counts too, in case it is installed there.
    cfg = tmp_path / "small.json"
    cfg.write_text(json.dumps({"irs": {"elements": 16, "reference_elements": 16},
                               "relay": {"antennas": 4}}))
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _SITE_PACKAGES_PROBE, "fig8",
                           "--dump-corr", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, check=False, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "numpy" in loaded and loaded <= {"numpy", "emilink"}, loaded


def package_imports(path):
    """Names of the emilink modules that the source file ``path`` imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found.update([node.module] if node.module else [a.name for a in node.names])
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("emilink."):
            found.add(node.module.removeprefix("emilink."))
        elif isinstance(node, ast.Import):
            found.update(a.name.removeprefix("emilink.") for a in node.names
                         if a.name.startswith("emilink."))
    return {name.split(".")[0] for name in found}


def test_only_the_cli_takes_a_default():
    # every parameter default is an option that tests and benchmarks must cover,
    # so adding one is a deliberate edit of this set
    package = pathlib.Path(cli.__file__).parent
    defaults = set()
    for path in package.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                positional = args.posonlyargs + args.args
                named = positional[len(positional) - len(args.defaults):]
                named += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
                defaults.update((path.stem, getattr(node, "name", "<lambda>"), a.arg)
                                for a in named)
    assert defaults == {("cli", "main", "argv")}


def test_only_the_config_classes_have_field_defaults():
    # a dataclass field default is an option too: only Scenario, whose defaults
    # are the reference setup, and its LinkBudget have them
    package = pathlib.Path(cli.__file__).parent
    defaults = set()
    for path in package.glob("*.py"):
        module = importlib.import_module(f"emilink.{path.stem}")
        for cls in vars(module).values():
            if (inspect.isclass(cls) and dataclasses.is_dataclass(cls)
                    and cls.__module__ == module.__name__):
                defaults.update((cls.__name__, f.name) for f in dataclasses.fields(cls)
                                if f.default is not dataclasses.MISSING
                                or f.default_factory is not dataclasses.MISSING)
    expected = {("Scenario", f.name) for f in dataclasses.fields(Scenario)}
    expected |= {("LinkBudget", f.name) for f in dataclasses.fields(LinkBudget)}
    assert len(expected) == 12 + 4
    assert defaults == expected


def test_the_package_keeps_only_these_memos():
    # a memo is state that every caller in the process shares, and the README
    # promises that concurrent calls are safe, so adding one is a deliberate
    # edit of this set; each use of a memo name must decorate one of these
    memo_names, memos, uses = {"cache", "lru_cache", "cached_property"}, set(), 0

    def is_memo(node):
        node = node.func if isinstance(node, ast.Call) else node
        return getattr(node, "id", getattr(node, "attr", None)) in memo_names

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                memos.update((module, prefix + child.name)
                             for d in child.decorator_list if is_memo(d))
                visit(child, module, f"{prefix}{child.name}.")
            else:
                visit(child, module, prefix)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        visit(tree, path.stem, "")
        uses += sum(isinstance(n, (ast.Name, ast.Attribute)) and is_memo(n)
                    for n in ast.walk(tree))
    assert memos == {("emi", "_leggauss"), ("scene", "ArrayLayout.positions")}
    assert uses == len(memos)


def test_only_bench_row_reads_the_power_cap():
    # infeasibility means one thing for every technology, so one function decides
    # it: every power function returns the power it computes, and _row alone
    # holds it against POWER_UPPER_W
    readers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, (ast.Name, ast.Attribute)) and isinstance(child.ctx, ast.Load)
                    and getattr(child, "id", getattr(child, "attr", None)) == "POWER_UPPER_W"):
                readers.add((module, scope))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{scope}.{child.name}".lstrip(".") if named else scope)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert "capped_power" not in source, path.name
        visit(ast.parse(source), path.stem, "")
    assert readers == {("bench", "_row")}


def package_callers(*names):
    """(module, scope, callee) of every call under ``src/emilink`` of a function
    named in ``names``, the scope a dotted path of the enclosing defs."""
    callers = set()

    def visit(node, module, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Call) and getattr(
                    child.func, "id", getattr(child.func, "attr", None)) in names:
                callers.add((module, scope, ast.unparse(child.func)))
            named = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, module, f"{scope}.{child.name}".lstrip(".") if named else scope)

    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return callers


def test_every_optimized_df_row_takes_one_batch_solve(monkeypatch):
    # one DF min-power path: fig5, fig6 and fig8 hand all their optimized DF rows
    # to one df_min_power_batch call, the other figures make none, and no figure
    # calls the scalar solve
    calls = {"df_min_power": [], "df_min_power_batch": []}
    for name, seen in calls.items():
        monkeypatch.setattr(relay, name, lambda *args, seen=seen, fn=getattr(relay, name):
                            seen.append(args) or fn(*args))
    batches = {}
    for runner in (run_fig3, run_fig4, run_fig5, run_fig6, run_fig7, run_fig8):
        calls["df_min_power_batch"].clear()
        rows = runner(SMALL).rows
        optimized = [r for r in rows if r.technology.startswith("df")
                     and r.mode.startswith("optimized")]
        batches[runner.__name__] = [len(alpha1) for _, alpha1, _ in calls["df_min_power_batch"]]
        assert batches[runner.__name__] == ([len(optimized)] if optimized else []), runner
    monkeypatch.undo()
    assert calls["df_min_power"] == []
    assert batches == {"run_fig3": [], "run_fig4": [], "run_fig5": [6], "run_fig6": [6],
                       "run_fig7": [], "run_fig8": [5 * len(SMALL.relay_antennas)]}

    # and in the source, bench._solve_df is the one caller of either solve
    assert package_callers("df_min_power", "df_min_power_batch") == {
        ("bench", "_solve_df", "relay_mod.df_min_power_batch")}


def test_one_function_makes_every_surface_row():
    # fig8's references and every sweep's surface rows come from bench._surface_rows,
    # the one caller of the surface optimizer and of the closed-form power
    assert package_callers("irs_min_power_emi_aware") == {
        ("bench", "_surface_rows", "irs_mod.irs_min_power_emi_aware")}
    assert package_callers("power_and_rate") == {
        ("bench", "_surface_rows", "irs_mod.power_and_rate"),
        ("irs", "irs_power_and_rate", "power_and_rate")}


def test_solve_df_keeps_every_row_in_place(monkeypatch):
    # finished rows come back unchanged, each pending entry becomes the row of its
    # DF minimum power where it stood, one beyond the power cap the inf/nan/0 row
    first = SweepRow(1.0, "irs_n16", "optimized_iso", 30.0, 6.0, 7)
    last = SweepRow(2.0, "df", "repetition_iso", 40.0, 6.0, 0)
    feasible = relay.EffectiveGains(1e5, 1e6)
    rows = bench._solve_df(6.0, [first, (1.0, "df", "optimized_iso", relay.EffectiveGains(
        1e-9, 1e-9)), (2.0, "df", "optimized_none", feasible), last])
    assert len(rows) == 4 and rows[0] is first and rows[3] is last
    beyond = rows[1]
    assert (beyond.sweep_var, beyond.technology, beyond.mode) == (1.0, "df", "optimized_iso")
    assert (beyond.power_dbm, beyond.solver_iters) == (math.inf, 0)
    assert math.isnan(beyond.rate_bps_hz)
    assert rows[2].feasible
    power, tau1, p1, p2, iterations = relay.df_min_power(6.0, feasible)
    assert repr(rows[2]) == repr(bench._row(2.0, "df", "optimized_none", power,
                                            relay.df_rate(tau1, p1, p2, feasible), iterations))
    # nothing pending, no solve
    monkeypatch.setattr(relay, "df_min_power_batch", None)
    assert bench._solve_df(6.0, [first, last]) == (first, last)


def test_each_config_key_sets_a_distinct_field():
    # one leaf key per Scenario field, with budget split into its LinkBudget fields
    from emilink.bench import _CONFIG_KEYS

    def leaves(keys):
        for value in keys.values():
            yield from leaves(value) if isinstance(value, dict) else [value[0]]

    targets = list(leaves(_CONFIG_KEYS))
    expected = {f.name for f in dataclasses.fields(Scenario) if f.name != "budget"}
    expected |= {f"budget.{f.name}" for f in dataclasses.fields(LinkBudget)}
    assert len(targets) == len(set(targets)) == 15
    assert set(targets) == expected


def test_layer_graph():
    # each layer imports only the layers below it, as the README table describes
    package = pathlib.Path(cli.__file__).parent
    graph = {path.stem: package_imports(path) for path in package.glob("*.py")}
    assert {name: graph[name] for name in ("errors", "scene", "emi", "irs", "relay", "cli")} == {
        "errors": set(), "scene": set(), "emi": {"errors", "scene"}, "irs": {"emi", "errors"},
        "relay": {"errors"}, "cli": {"bench"}}


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


def test_emit_rejects_unknown_format_before_writing(tmp_path):
    from emilink import emit
    path = tmp_path / "out.png"
    with pytest.raises(ValueError, match="unknown output format"):
        emit(run_fig4(SMALL), "png", path)
    assert not path.exists()


def test_golden_fixture_csv():
    import pathlib
    sc = Scenario(irs_elements=(9,), irs_reference_elements=9, rho_sweep=(0.0, 30.0, 4))
    golden = pathlib.Path(__file__).parent / "data" / "golden_fig4.csv"
    assert format_csv(run_fig4(sc)) == golden.read_text(), dispatch_note()


# Unsorted surface sizes with a repeat: rows follow first appearance and a
# repeated size is evaluated once.  The distance sweep hits the destination
# distance (60 m), so fig7 dumps its case-2 correlation.
GOLDEN_CONFIG = {
    "irs": {"elements": [16, 9, 16], "reference_elements": 16},
    "relay": {"antennas": 4},
    "sweeps": {"distance_m": [20.0, 120.0, 6], "rho_db": [-10.0, 40.0, 6]},
}
GOLDEN_DIR = pathlib.Path(__file__).parent / "data" / "golden"
GOLDEN_DISPATCH = GOLDEN_DIR.with_name("golden_dispatch.json")


def numpy_dispatch() -> dict[str, str]:
    """What the byte goldens depend on besides the program: the numpy version, the
    CPU target of each float64 and complex128 loop of sin, cos, exp, arctan2 and
    hypot ("baseline" for a loop numpy does not dispatch, "unknown" on numpy < 2),
    numpy's BLAS configuration and OPENBLAS_CORETYPE.  GOLDEN_DISPATCH records it
    as it was when the goldens were written; ``PYTHONPATH=src python
    tests/test_bench.py``, run from the repository root, rewrites both."""
    try:
        from numpy.lib.introspect import opt_func_info
        targets = opt_func_info(func_name="^(sin|cos|exp|arctan2|hypot)$")
    except ImportError:  # numpy < 2
        targets = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = blas.get("openblas configuration", f"{blas['name']} {blas['version']}")
    except (TypeError, KeyError):  # numpy < 1.26 prints its configuration only
        blas = "unknown"
    record = {"numpy": np.__version__, "blas": blas,
              "OPENBLAS_CORETYPE": os.environ.get("OPENBLAS_CORETYPE", "unset")}
    for func in ("sin", "cos", "exp", "arctan2", "hypot"):
        ufunc = getattr(np, func)
        for dtype in ("float64", "complex128"):
            char = np.dtype(dtype).char
            if f"{char * ufunc.nin}->{char}" in ufunc.types:
                record[f"{func} {dtype}"] = "unknown" if targets is None else targets.get(
                    func, {}).get(char * ufunc.nargs, {}).get("current", "baseline")
    return record


def dispatch_note() -> str:
    """The recorded dispatch next to the running one, for a failing golden check."""
    recorded = json.loads(GOLDEN_DISPATCH.read_text(encoding="utf-8"))
    running = numpy_dispatch()
    return "goldens written under (recorded / running, * where they differ):\n" + "\n".join(
        f"{'*' if recorded.get(key) != running.get(key) else ' '} {key}: "
        f"{recorded.get(key)} / {running.get(key)}" for key in recorded | running)


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
        assert (out / name).read_bytes() == (GOLDEN_DIR / name).read_bytes(), (
            f"{name}\n{dispatch_note()}")


PERFBENCH_DIR = pathlib.Path(__file__).parents[1] / "perfbench"


def _perfbench_module(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH_DIR / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # dataclasses look a module's string annotations up in sys.modules
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def perfbench():
    return _perfbench_module("gate"), _perfbench_module("workloads")


def _workload_run(workloads, name, seed):
    """The scenario of one benchmark pass and the CSV text of each of its figures."""
    workload = workloads.WORKLOADS[name]
    scenario = scenario_from_config(workloads.make_config(workload, seed))
    return scenario, {fig: format_csv(RUNNERS[fig](scenario)) for fig in workload.figures}


@pytest.fixture(scope="module")
def seed0_runs(perfbench):
    _, workloads = perfbench
    return {name: _workload_run(workloads, name, 0) for name in workloads.WORKLOADS}


@pytest.mark.parametrize("seed", [0, 1])
def test_benchmark_gate_passes_in_process(perfbench, seed0_runs, seed):
    # the benchmark's correctness gate, on every workload's figures run in-process
    gate, workloads = perfbench
    for name in workloads.WORKLOADS:
        _, csvs = seed0_runs[name] if seed == 0 else _workload_run(workloads, name, seed)
        for fig, text in csvs.items():
            reference = gate.parse_csv((PERFBENCH_DIR / "reference" / name / f"{fig}.csv")
                                       .read_text(encoding="utf-8"))
            assert gate.check_figure(fig, gate.parse_csv(text), reference,
                                     workloads.TARGET_RATE_BPS_HZ,
                                     compare_values=seed == 0) == [], (name, fig)


DRAWN_SEEDS = range(8)  # ~0.12 s per seed (both runs, 2-CPU machine)


@pytest.mark.filterwarnings("error")
def test_every_figure_holds_on_drawn_paper_size_configs(perfbench):
    """fig3..fig8 on the benchmark's paper_rows configs of seeds 0..7 (node, rho
    and spread drawn by ``make_config``), with warnings as errors.  Every row
    meets the gate's invariants: the target rate, an optimized row at or below
    its heuristic or repetition row, MMSE at or below MR.  A second run gives
    the same bytes.  The run's own rows are the gate's reference, so the key
    and feasibility checks hold by construction."""
    gate, workloads = perfbench
    for seed in DRAWN_SEEDS:
        scenario = scenario_from_config(workloads.make_config(
            workloads.WORKLOADS["paper_rows"], seed))
        for fig, runner in RUNNERS.items():
            text = format_csv(runner(scenario))
            rows = gate.parse_csv(text)
            assert gate.check_figure(fig, rows, rows, workloads.TARGET_RATE_BPS_HZ,
                                     compare_values=False) == [], (seed, fig)
            assert format_csv(runner(scenario)) == text, (seed, fig)


@pytest.mark.xfail(strict=True, reason=(
    "known defect (ROADMAP item 5): on the large_surface seed-1 config the surface "
    "optimizer takes MM_MAX_ITERS products and warns on fig8's 400-element case-2 "
    "reference (7 for its iso reference; 19 and 30 at seeds 0 and 2)"))
def test_fig8_large_surface_case2_reference_converges(perfbench):
    _, workloads = perfbench
    scenario = replace(scenario_from_config(workloads.make_config(
        workloads.WORKLOADS["large_surface"], 1)), relay_antennas=(1,))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rows = run_fig8(scenario).rows
    [row] = [r for r in rows if (r.technology, r.mode) == ("irs_n400", "optimized_case2")]
    limit = [str(w.message) for w in caught if "iteration limit" in str(w.message)]
    assert row.solver_iters < irs.MM_MAX_ITERS and not limit, (row, limit)


N400 = replace(Scenario(), irs_elements=(400,), irs_reference_elements=400)
# golden file -> (scenario, figure, benchmark workload whose seed-0 pass runs it)
PAPER_GOLDENS = {
    "fig3.csv": (Scenario(), "fig3", "paper_rows"),
    "fig4.csv": (Scenario(), "fig4", "paper_rows"),
    "fig5.csv": (Scenario(), "fig5", None),
    "fig6.csv": (Scenario(), "fig6", "paper_rows"),
    "fig7.csv": (Scenario(), "fig7", None),
    "fig8.csv": (Scenario(), "fig8", "antenna_sweep"),
    "fig5_n400.csv": (N400, "fig5", "large_surface"),
    "fig7_n400.csv": (N400, "fig7", "large_surface"),
}


@pytest.mark.parametrize("name", list(PAPER_GOLDENS))
def test_paper_size_output_matches_golden_bytes(name, seed0_runs):
    """Figures at the paper's sizes, byte for byte.

    ``numpy_dispatch`` says how to regenerate them.  A golden that belongs to a
    benchmark workload reuses its seed-0 pass.  The files do not depend on the
    BLAS thread count: they come out byte-identical with ``OPENBLAS_NUM_THREADS``
    set to 1 and to 2.
    """
    scenario, fig, workload = PAPER_GOLDENS[name]
    if workload is None:
        text = format_csv(RUNNERS[fig](scenario))
    else:
        run_scenario, csvs = seed0_runs[workload]
        assert run_scenario == scenario
        text = csvs[fig]
    assert text.encode() == (GOLDEN_DIR / "paper" / name).read_bytes(), dispatch_note()


_GOLDEN_CHILD = """
import json, pickle, sys
from emilink import RUNNERS, format_csv
print(json.dumps({name: format_csv(RUNNERS[fig](scenario))
                  for name, (scenario, fig) in pickle.load(sys.stdin.buffer).items()}))
"""


def test_paper_size_goldens_hold_at_one_blas_thread():
    """The paper-size goldens, byte for byte, in a child process at one BLAS thread.

    The other golden tests run in-process, at the BLAS library's default
    thread count (one per CPU unless OPENBLAS_NUM_THREADS says otherwise);
    the benchmark runs its figures at one thread.  A product whose blocking
    depended on the thread count would pass one of them and fail the other.
    The goldens still depend on the OpenBLAS build and the CPU kernel it
    selects (DYNAMIC_ARCH), which no test here varies.
    """
    jobs = {name: (scenario, fig) for name, (scenario, fig, _) in PAPER_GOLDENS.items()}
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1", "PYTHONPATH": os.pathsep.join(
               filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _GOLDEN_CHILD],
                          input=pickle.dumps(jobs), capture_output=True, check=False, env=env)
    assert proc.returncode == 0, proc.stderr.decode()
    texts = json.loads(proc.stdout)
    assert texts.keys() == PAPER_GOLDENS.keys()
    in_process = os.environ.get("OPENBLAS_NUM_THREADS", f"the default ({os.cpu_count()} CPUs)")
    for name, text in texts.items():
        assert text.encode() == (GOLDEN_DIR / "paper" / name).read_bytes(), (
            f"{name} at 1 BLAS thread differs from the golden, which in-process runs "
            f"at OPENBLAS_NUM_THREADS={in_process} match\n{dispatch_note()}")


def test_svg_output():
    result = run_fig4(SMALL)
    svg = format_svg(result)
    assert svg.startswith("<svg ")
    assert svg.rstrip().endswith("</svg>")
    assert "polyline" in svg
    assert format_svg(run_fig4(SMALL)) == svg
    # every row infeasible: placeholder axes and no series
    infeasible = run_fig4(replace(SMALL, target_rate=600.0))
    assert not any(r.feasible for r in infeasible.rows)
    svg = format_svg(infeasible)
    assert svg.startswith("<svg ") and "<polyline" not in svg
    # one sweep point: a degenerate x range is widened rather than divided by
    single = format_svg(run_fig4(replace(SMALL, rho_sweep=(10.0, 10.0, 1))))
    assert single.count("<polyline") == 2 and "nan" not in single


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
    b_sr = pathloss_umi(float(np.linalg.norm(np.array(sc.node_pos))), sc.budget)
    for d, power in powers_by(result, "df", "repetition_none").items():
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - np.array(sc.node_pos))), sc.budget)
        expected = repetition_required_power(6.0, b_sr, b_rd, 0.0, noise)
        assert power == pytest.approx(watt_to_dbm(expected), abs=1e-9)
    for d, power in powers_by(result, "irs_n16", "heuristic_none").items():
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - np.array(sc.node_pos))), sc.budget)
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
    mirrored = Scenario(source_pos=(0.0, 0.0, 0.0), node_pos=(10.0, 60.0, 0.0),
                        dest_pos=(0.0, 60.0, 0.0))
    paper, other = run_fig3(Scenario()), run_fig3(mirrored)
    assert [(r.sweep_var, r.technology, r.mode) for r in paper.rows] == \
        [(r.sweep_var, r.technology, r.mode) for r in other.rows]
    shift = max(abs(a.power_dbm - b.power_dbm) for a, b in zip(paper.rows, other.rows))
    assert shift <= 1e-9, f"worst row shift {shift:.2e} dB"


@pytest.mark.parametrize("fig", ["fig3", "fig4", "fig5", "fig6", "fig7", "fig8"])
def test_metamorphic_translation_and_noise_scaling(fig):
    """Relations that hold for every row of every figure.

    Translating all three points moves no row: the array faces the
    source-destination axis wherever it lies.  Rotating them about the
    vertical axis keeps every distance and every angle seen from the array,
    so the powers agree to round-off.  Scaling the noise by k scales the
    EMI variance with it, so every required power shifts by 10 log10(k) dB.
    Both keep the feasibility and the iteration counts (the solvers are
    scale-free).  Worst seen: 0.0 for the translation, 3.6e-15 dB for the
    90 degree and 7.3e-13 dB for the 37 degree rotation (fig8), and 5.0e-13
    dB for the noise (fig8, k = 1e-4); at k = 1000 fig4 rows cross the
    power cap, so feasibility changes, as it should.

    Raising the target rate R never makes a row feasible and raises every
    feasible power.  The surface phases do not depend on R, so a surface
    row keeps its iteration count and shifts by exactly
    10 log10((2^R' - 1) / (2^R - 1)) dB.  Worst seen: 5.3e-15 dB.
    """
    sc, run = Scenario(), RUNNERS[fig]
    shift = (5.0, -3.0, 2.0)
    moved = replace(sc, **{name: tuple(a + b for a, b in zip(getattr(sc, name), shift))
                           for name in ("source_pos", "node_pos", "dest_pos")})
    base = run(sc).rows
    assert [repr(r) for r in run(moved).rows] == [repr(r) for r in base]

    def keys(rows):
        return [(r.sweep_var, r.technology, r.mode, r.feasible, r.solver_iters) for r in rows]

    def turned(degrees):
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        return replace(sc, **{name: (c * x - s * y, s * x + c * y, z)
                              for name in ("source_pos", "node_pos", "dest_pos")
                              for x, y, z in [getattr(sc, name)]})

    variants = [(turned(90.0), 0.0), (turned(37.0), 0.0)]
    noise = sc.budget.noise_power_w
    variants += [(replace(sc, budget=replace(sc.budget, noise_power_w=k * noise)),
                  10.0 * math.log10(k)) for k in (10.0, 0.1, 1e-4)]
    for scenario, expected_db in variants:
        rows = run(scenario).rows
        assert keys(rows) == keys(base)
        shift_db = [b.power_dbm - a.power_dbm for a, b in zip(base, rows) if a.feasible]
        assert shift_db, "no feasible row"
        worst = max(abs(d - expected_db) for d in shift_db)
        assert worst <= 1e-12, f"worst deviation from {expected_db:+} dB: {worst:.2e} dB"

    rates = (3.0, sc.target_rate, 9.0)
    runs = [run(replace(sc, target_rate=3.0)).rows, base, run(replace(sc, target_rate=9.0)).rows]
    for (rate, rows), (higher_rate, higher) in pairwise(zip(rates, runs)):
        assert [k[:3] for k in keys(higher)] == [k[:3] for k in keys(rows)]
        snr_db = 10.0 * math.log10((2.0 ** higher_rate - 1.0) / (2.0 ** rate - 1.0))
        for a, b in zip(rows, higher):
            assert a.feasible or not b.feasible, (a, b)
            assert not b.feasible or b.power_dbm > a.power_dbm, (a, b)
            if a.technology.startswith("irs_") and b.feasible:
                assert b.solver_iters == a.solver_iters, (a, b)
                assert abs(b.power_dbm - a.power_dbm - snr_db) <= 1e-13, (a, b)


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


def spy_surface_solves(monkeypatch):
    """(link, start, result) of every ``irs_min_power_emi_aware`` call from now on."""
    optimize, solves = irs.irs_min_power_emi_aware, []
    monkeypatch.setattr(irs, "irs_min_power_emi_aware", lambda rate, link, start: solves.append(
        (link, start, optimize(rate, link, start))) or solves[-1][2])
    return solves


@pytest.mark.parametrize("scenario", [
    pytest.param(SMALL, id="small"), pytest.param(Scenario(), id="paper"),
    pytest.param(N400, id="n400")])
def test_fig5_continuation_matches_cold_solves(monkeypatch, scenario):
    """Each optimized fig5 surface row starts from the previous rho's phases; against
    a cold solve of its own link it may end higher by no more than 1e-6 dB, and its g
    is never below the noise-only g.  Seen: at most 2.6e-7 dB higher (400 elements,
    34 dB) and 0.0106 dB lower (400 elements, 40 dB); 834 -> 556 products on 400
    elements (828 cold on the real links), 197 -> 137 on 75."""
    solves = spy_surface_solves(monkeypatch)
    rows = [r for r in run_fig5(scenario).rows if r.technology.startswith("irs")]
    monkeypatch.undo()
    assert len(solves) == len(rows) == len(scenario.rhos_db())
    assert solves[0][1] is None
    assert all(start is previous[2] for (_, start, _), (_, _, previous)
               in zip(solves[1:], solves))
    cold_products = 0
    for row, (link, _, (power, _, phases, iterations, _)) in zip(rows, solves):
        assert (row.power_dbm, row.solver_iters) == (watt_to_dbm(power), iterations)
        cold_power, _, _, cold_iterations, _ = irs.irs_min_power_emi_aware(
            scenario.target_rate, link, None)
        cold_products += cold_iterations
        assert row.power_dbm <= watt_to_dbm(cold_power) + 1e-6, row
        heuristic = irs.phases_noise_only(link.h_sr, link.h_rd)
        assert irs.irs_sinr(1.0, link, phases) >= irs.irs_sinr(1.0, link, heuristic), row
    assert sum(r.solver_iters for r in rows) <= cold_products


def test_descending_rho_sweep_stays_below_the_heuristic():
    scenario = replace(Scenario(), rho_sweep=(40.0, -10.0, 26))
    heuristic = powers_by(run_fig4(scenario), "irs_n75", "heuristic_iso")
    rows = run_fig5(scenario).select("irs_n75", "optimized_iso")
    assert [r.sweep_var for r in rows] == list(scenario.rhos_db())
    for r in rows:
        assert r.rate_bps_hz == pytest.approx(scenario.target_rate, rel=1e-12), r
        assert r.power_dbm <= heuristic[r.sweep_var], r


def test_only_rho_sweeps_continue_the_surface_optimizer(monkeypatch):
    # a distance step moves beta_rd, so it starts cold, and fig8 solves its iso and
    # case-2 surface references each from a cold start
    solves = spy_surface_solves(monkeypatch)
    for runner, count in ((run_fig6, 6), (run_fig8, 2)):
        solves.clear()
        runner(SMALL)
        assert [start for _, start, _ in solves] == [None] * count, runner


def test_each_size_continues_its_own_surface_solves(monkeypatch):
    # along a rho sweep over two sizes, each size's optimizer starts cold at the
    # first point and then from that size's previous phases, and so does a
    # distance sweep whose points coincide; a distance sweep that moves starts
    # every solve of every size cold
    solves, coinciding = spy_surface_solves(monkeypatch), replace(SMALL, distance_sweep=(60, 60, 3))
    for variable, scenario, continues in (("rho_db", SMALL, True), ("distance_m", SMALL, False),
                                          ("distance_m", coinciding, True)):
        solves.clear()
        bench._sweep(scenario, variable, (16, 9), ("optimized_iso",), ())
        by_size = {}
        for link, start, result in solves:
            by_size.setdefault(link.h_sr.size, []).append((start, result))
        steps = len(scenario.rhos_db() if variable == "rho_db" else scenario.distances())
        assert {n: len(seen) for n, seen in by_size.items()} == {16: steps, 9: steps}, scenario
        for seen in by_size.values():
            starts = [start for start, _ in seen]
            if not continues:
                assert starts == [None] * len(seen)
                continue
            assert starts[0] is None
            assert all(start is previous[2] for start, (_, previous) in zip(starts[1:], seen))


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
    b_sr = pathloss_umi(float(np.linalg.norm(np.array(sc.node_pos))), sc.budget)
    for d in clean:
        assert case1[d] >= case2[d] - 1e-9
        assert case2[d] - clean[d] < 3.0
        assert iso[d] >= clean[d] - 1e-12
        b_rd = pathloss_umi(
            float(np.linalg.norm(np.array([d, 0.0, 0.0]) - np.array(sc.node_pos))), sc.budget)
        assert clean[d] == pytest.approx(
            watt_to_dbm(63.0 * noise / (16 ** 2 * b_sr * b_rd)), abs=1e-9)


def dense_surface_links(scenario, result, solver="heuristic"):
    """(row, IrsLink) for each ``solver`` (heuristic or optimized) surface row of
    ``result``, a run of ``scenario``: the row's real channels toward its
    destination and its correlation matrix, for the dense path
    (``irs_power_and_rate``) that checks the sweeps' closed form and the phases
    of their virtual links.  A fig8 result's rows lie at the configured rho and
    destination."""
    noise = scenario.budget.noise_power_w
    rows = [r for r in result.rows if r.technology.startswith("irs_n")
            and r.mode.startswith(f"{solver}_")]
    sizes = sorted({int(r.technology.removeprefix("irs_n")) for r in rows})
    frame = bench._Frame(scenario, sizes)
    dests = dict(zip(scenario.distances().tolist(), scenario.sweep_destinations().tolist()))
    links = []
    for row in rows:
        emi = row.mode.removeprefix(f"{solver}_")
        dest, variance = scenario.dest_pos, scenario.emi_variance
        if result.sweep_variable == "rho_db":
            variance = bench._emi_variance(row.sweep_var, noise)
        elif result.sweep_variable == "distance_m":
            dest = tuple(dests[row.sweep_var])
        angles, beta_rd = frame.sight(dest)
        n = int(row.technology.removeprefix("irs_n"))
        layout = frame.layouts[n]
        links.append((row, irs.IrsLink(
            los_channel(frame.beta_sr, *frame.source_angles, layout),
            los_channel(beta_rd, *angles, layout), 0.0 if emi == "none" else variance,
            frame.correlation(n, "iso" if emi == "none" else emi, angles), noise)))
    return links


def test_only_optimized_surface_rows_take_a_quadratic_form(monkeypatch):
    # one interference evaluation gives an optimized surface row its power and its
    # rate (the optimizer's own products with R go through corr_matvec); heuristic
    # rows take theirs in closed form from emi.plane_wave_form, with no quadratic form
    original, calls = irs.emi_quadratic_form, []
    monkeypatch.setattr(irs, "emi_quadratic_form",
                        lambda *args: calls.append(args) or original(*args))
    optimize, optimized = irs.irs_min_power_emi_aware, []
    monkeypatch.setattr(irs, "irs_min_power_emi_aware", lambda rate, link, start: optimized.append(
        (link, optimize(rate, link, start))) or optimized[-1][1])
    for runner in (run_fig3, run_fig5, run_fig6, run_fig7):
        calls.clear()
        rows = [r for r in runner(SMALL).rows if r.technology.startswith("irs")]
        assert len(calls) == sum(r.mode.startswith("optimized") for r in rows), runner
    monkeypatch.undo()
    # fig5's and fig6's optimized rows, six each, rate as irs_rate gives it
    assert len(optimized) == 6 + 6
    for link, (power, rate, phases, _, _) in optimized:
        assert float.hex(rate) == float.hex(irs.irs_rate(power, link, phases))

    # the dense pair is the required power and the rate at it, bit for bit, on
    # every heuristic link of the paper's figures; the rate at 6 bit/s/Hz rounds
    # to 6.0 whatever the last bits of the power, so two other targets check it
    links = [link for runner in (run_fig3, run_fig4, run_fig7)
             for _, link in dense_surface_links(Scenario(), runner(Scenario()))]
    assert len(links) == 26 * (3 * 2 + 1 + 4)
    for link in links:
        phases = irs.phases_noise_only(link.h_sr, link.h_rd)
        for rate in (6.0, 0.3, 13.7):
            power, achieved = irs.irs_power_and_rate(rate, link, phases)
            expected = irs.irs_required_power(rate, link, phases)
            assert float.hex(power) == float.hex(expected)
            assert float.hex(achieved) == float.hex(irs.irs_rate(expected, link, phases))


@pytest.mark.parametrize("scenario, figures", [
    pytest.param(Scenario(), ("fig3", "fig4", "fig6", "fig7"), id="paper"),
    pytest.param(N400, ("fig7",), id="n400"),
])
def test_heuristic_surface_rows_match_the_dense_path(scenario, figures):
    """Every heuristic surface row, taken in closed form from u^H R u on the
    offset lattice, against the dense path: ``irs_power_and_rate`` with the
    noise-only phases on the row's own channels and correlation matrix.

    Worst seen: 7.1e-15 dB (one unit in the last place of the dBm values) on
    every figure, and no rate moved; the tolerance is the closed-form
    oracles' 1e-13 dB.
    """
    for fig in figures:
        links = dense_surface_links(scenario, RUNNERS[fig](scenario))
        assert links, fig
        for row, link in links:
            phases = irs.phases_noise_only(link.h_sr, link.h_rd)
            power, rate = irs.irs_power_and_rate(scenario.target_rate, link, phases)
            if not row.feasible:
                assert power > POWER_UPPER_W, (fig, row)
                continue
            assert abs(row.power_dbm - watt_to_dbm(power)) <= 1e-13, (fig, row, power)
            assert abs(row.rate_bps_hz - rate) <= 1e-15, (fig, row, rate)


@pytest.mark.parametrize("scenario", [pytest.param(Scenario(), id="paper"),
                                      pytest.param(N400, id="n400")])
def test_optimized_surface_rows_hold_on_their_real_links(monkeypatch, scenario):
    """Every optimized surface row of fig5 and fig6, and fig8's two references,
    solves the virtual link of its size's one channel.  Its phases phi, moved onto
    the row's real channels as phi + arg h_rd,virtual - arg h_rd,real, give the
    row's power on the dense path within 1e-12 relative, and no row ends more than
    1e-6 dB above a cold solve of its real link.

    Worst seen: 7.6e-16 relative, and 2.62e-7 dB above a cold solve (fig5 at 34 dB
    on 400 elements, the rise its continuation shows against cold virtual solves).
    """
    solves = spy_surface_solves(monkeypatch)
    results = [run_fig5(scenario), run_fig6(scenario),
               run_fig8(replace(scenario, relay_antennas=(1,)))]
    monkeypatch.undo()
    spied, checked = iter(solves), 0
    for result in results:
        links = dense_surface_links(scenario, result, "optimized")
        # the solves run size by size, mode by mode, point by point
        runs = list(dict.fromkeys((row.technology, row.mode) for row, _ in links))
        for row, real in sorted(links, key=lambda pair: runs.index(
                (pair[0].technology, pair[0].mode))):
            virtual, _, (power, _, phases, _, _) = next(spied)
            assert row.power_dbm == watt_to_dbm(power), row
            moved = phases + np.angle(virtual.h_rd) - np.angle(real.h_rd)
            dense, _ = irs.irs_power_and_rate(scenario.target_rate, real, moved)
            assert abs(dense - power) <= 1e-12 * power, (row, dense, power)
            cold = irs.irs_min_power_emi_aware(scenario.target_rate, real, None)[0]
            assert row.power_dbm <= watt_to_dbm(cold) + 1e-6, (row, cold)
            checked += 1
    assert next(spied, None) is None
    assert checked == 26 * (1 + len(scenario.irs_elements)) + 2


def test_fig8_mr_gains_match_the_dense_path(monkeypatch):
    """Every MR gain of fig8 (df_mr under iso and case-2 EMI, df with none),
    taken in closed form, against ``effective_gain_first_phase(h, v R + N0 I,
    MR)`` on the relay's own channel and correlation matrix.

    Worst seen: 1.0e-13 relative, on the case-2 gains, whose forms cancel
    (u^H R u = 0.17 at M = 61); the tolerance is 3e-13.
    """
    scenario, batches = Scenario(), []
    solve = relay.df_min_power_batch
    monkeypatch.setattr(relay, "df_min_power_batch", lambda rate, alpha1, alpha2: batches.append(
        alpha1) or solve(rate, alpha1, alpha2))
    result = run_fig8(scenario)
    monkeypatch.undo()
    pending = [r for r in result.rows if r.technology.startswith("df")]
    (alpha1,) = batches
    assert len(alpha1) == len(pending) == 5 * len(scenario.relay_antennas)
    frame, noise = bench._Frame(scenario, scenario.relay_antennas), scenario.budget.noise_power_w
    angles = frame.sight(scenario.dest_pos)[0]
    checked = 0
    for row, gain in zip(pending, alpha1):
        if row.technology == "df_mmse":
            continue
        m, emi = int(row.sweep_var), row.mode.removeprefix("optimized_")
        cov = noise * np.eye(m)
        if emi != "none":
            cov = scenario.emi_variance * frame.correlation(m, emi, angles) + cov
        h_sr = los_channel(frame.beta_sr, *frame.source_angles, frame.layouts[m])
        dense = relay.effective_gain_first_phase(h_sr, cov, relay.CombinerKind.MR)
        assert abs(gain - dense) <= 3e-13 * dense, row
        checked += 1
    assert checked == 3 * len(scenario.relay_antennas)


def test_noise_only_figures_build_no_matrix(monkeypatch):
    """fig3, fig4 and fig7 take every row in closed form, so they gather no
    correlation matrix, and fig7 on a 400-element surface peaks, under
    tracemalloc, below one real 400 x 400 array (1.22 MiB; 0.50 MiB seen,
    6.37 MiB when every heuristic row took a dense form).  The runs before it
    have cached the process-wide Gauss-Legendre rules, which emi mirrors from
    its stored tables (0.8 MiB when numpy built them)."""
    gathered = []
    for name in ("gather", "corr_isotropic"):
        monkeypatch.setattr(bench.emi_mod, name, lambda *args, name=name, fn=getattr(
            bench.emi_mod, name): gathered.append(name) or fn(*args))
    for runner in (run_fig3, run_fig4, run_fig7):
        runner(Scenario())
    assert gathered == []
    monkeypatch.undo()
    tracemalloc.start()
    try:
        run_fig7(N400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 400 * 400 * 8, f"peak {peak / 2 ** 20:.2f} MiB"


def test_frame_keeps_one_kernel_per_emi(monkeypatch):
    # case 1 and case 2 each keep their own kernel, so asking for them in turn,
    # as fig7 does at every distance, rebuilds neither; a new case-2 direction
    # rebuilds case 2 alone
    frame, built = bench._Frame(SMALL, SMALL.irs_elements), []
    kernel = bench.emi_mod.directional_kernel
    monkeypatch.setattr(bench.emi_mod, "directional_kernel",
                        lambda *args: built.append(args[0]) or kernel(*args))
    a, b = frame.sight(SMALL.dest_pos)[0], frame.sight((30.0, 0.0, 0.0))[0]
    lattices = [frame.lattice(emi, angles) for emi, angles in (
        ("case1", a), ("case2", a), ("case1", a), ("case2", a), ("case2", b))]
    assert [(d.mean_azimuth, d.mean_elevation) for d in built] == [frame.source_angles, a, b]
    assert lattices[0] is lattices[2] and lattices[1] is lattices[3]


_FIG8_CHILD = """
import json, pathlib, sys
from emilink import emit, run_fig8, scenario_from_config
for seed, config in json.loads(sys.stdin.read()).items():
    emit(run_fig8(scenario_from_config(config)), "csv", pathlib.Path(sys.argv[1]) / f"{seed}.csv")
"""


def test_fig8_does_not_depend_on_the_blas_thread_count(perfbench, tmp_path):
    """fig8 on the benchmark's antenna_sweep configs of seeds 1-5, byte for
    byte at one and at two BLAS threads, each in a child process.  With the MR
    denominators taken as dense products h^H C h, 6 df_mr rows differed."""
    _, workloads = perfbench
    configs = {seed: workloads.make_config(workloads.WORKLOADS["antenna_sweep"], seed)
               for seed in range(1, 6)}
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    children = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                   filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
        children[out] = subprocess.Popen(
            [sys.executable, "-W", "error", "-c", _FIG8_CHILD, str(out)], env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    for child in children.values():
        _, stderr = child.communicate(json.dumps(configs).encode(), timeout=120)
        assert child.returncode == 0, stderr.decode()
    one, two = children
    for seed in configs:
        assert (one / f"{seed}.csv").read_bytes() == (two / f"{seed}.csv").read_bytes(), seed


_NO_POLYNOMIAL_CHILD = """
import sys
from emilink import cli
for figure in ("fig7", "fig8"):
    assert cli.main([figure, *sys.argv[1:]]) == 0
assert "numpy.polynomial" not in sys.modules
"""


def test_figure_runs_import_no_polynomial_module(tmp_path):
    """fig7 and fig8, dumps included, take their Gauss-Legendre rules from emi's
    stored tables, so a child process that runs them imports no numpy.polynomial
    (and solves no eigenproblem for a rule)."""
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _NO_POLYNOMIAL_CHILD,
                           "--dump-corr", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, check=False, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


_NO_ARGPARSE_CHILD = """
import sys
from emilink import cli
for figure in ("fig3", "fig8"):
    assert cli.main([figure, *sys.argv[1:]]) == 0
loaded = {"argparse", "gettext", "locale"} & set(sys.modules)
assert not loaded, loaded
"""


def test_figure_runs_import_no_argparse_gettext_or_locale(tmp_path):
    """The CLI reads its options without argparse, so a child process that runs
    fig3 and fig8 never imports argparse, gettext (for argparse's translated
    help titles) or the locale module that gettext imports."""
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    package_root = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-W", "error", "-c", _NO_ARGPARSE_CHILD,
                           "--dump-corr", "--config", str(cfg), "--out", str(tmp_path / "out")],
                          capture_output=True, text=True, check=False, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


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
    # the no-EMI covariance is built as N0 I; 0 R + N0 I gives the same MR gain bits
    sc = Scenario()
    frame, noise = bench._Frame(sc, sc.relay_antennas), sc.budget.noise_power_w
    gain, mr_kind = relay.effective_gain_first_phase, relay.CombinerKind.MR
    for m in sc.relay_antennas:
        h_sr = los_channel(frame.beta_sr, *frame.source_angles, frame.layouts[m])
        white = noise * np.eye(m)
        assert float.hex(gain(h_sr, white, mr_kind)) == float.hex(
            gain(h_sr, 0.0 * frame.correlation(m, "iso", None) + white, mr_kind)), m


def test_fig8_builds_one_quadrature_per_array(monkeypatch):
    # one case-2 kernel and one sinc lattice for the figure, over the largest rows
    # and columns of the relays and the surface reference, from which every array
    # gathers; fig7 builds case 1's and one case-2 kernel per distance.  Each of
    # the two MMSE gains per count comes from effective_gain_first_phase (the
    # three MR gains are closed forms), and every DF row from one batch solve.
    calls = {}
    for module, name in ((bench.emi_mod, "directional_kernel"),
                         (bench.emi_mod, "isotropic_kernel"),
                         (bench.emi_mod, "corr_isotropic"),
                         (bench.relay_mod, "effective_gain_first_phase"),
                         (bench.relay_mod, "df_min_power_batch")):
        monkeypatch.setattr(module, name, lambda *args, name=name, fn=getattr(module, name):
                            calls.setdefault(name, []).append(args) or fn(*args))
    run_fig8(SMALL)
    arrays = len(SMALL.relay_antennas)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "directional_kernel": 1, "isotropic_kernel": 1,
        "effective_gain_first_phase": 2 * arrays, "df_min_power_batch": 1}
    calls.clear()
    run_fig7(SMALL)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "directional_kernel": 1 + len(SMALL.distances()), "isotropic_kernel": 1}
    # every figure reads its sinc from its frame's one lattice
    for runner in (run_fig3, run_fig4, run_fig5, run_fig6):
        calls.clear()
        runner(SMALL)
        assert (len(calls["isotropic_kernel"]), "corr_isotropic" in calls) == (1, False), runner
    monkeypatch.undo()

    # the orientation and the endpoints' angles are taken once for the figure
    def geometry_calls(antennas):
        scenario = replace(SMALL, relay_antennas=antennas)
        spied = {name: [] for name in ("_facing_orientation", "angles_between")}
        with monkeypatch.context() as patch:
            for name, seen in spied.items():
                patch.setattr(bench, name, lambda *args, seen=seen, fn=getattr(bench, name):
                              seen.append(args) or fn(*args))
            run_fig8(scenario)
        return {name: len(seen) for name, seen in spied.items()}

    assert geometry_calls(tuple(range(1, 5))) == geometry_calls(tuple(range(1, 25)))

    # Each count gathers its case-2 correlation from a kernel whose extent the
    # set of counts decides.  Whatever the order or the set of the antenna
    # counts, each count's rows keep every bit.
    def rows_by_count(antennas):
        rows = run_fig8(replace(SMALL, relay_antennas=antennas)).rows
        return {m: [repr(r) for r in rows if r.sweep_var == m] for m in antennas}

    counts = tuple(range(1, 25))
    ascending = rows_by_count(counts)
    assert rows_by_count(counts[::-1]) == ascending
    assert rows_by_count(tuple(np.random.default_rng(8).permutation(counts).tolist())) == ascending
    for m in counts:
        assert rows_by_count((m,)) == {m: ascending[m]}


def test_a_figure_makes_one_layout_per_array_size(monkeypatch):
    # the frame makes each size's layout once, and the kernel's extent and every
    # array's links read that one layout
    made = []
    monkeypatch.setattr(bench, "make_layout", lambda *args, fn=bench.make_layout:
                        made.append(args) or fn(*args))
    run_fig8(SMALL)
    assert len(made) == len({SMALL.irs_reference_elements, *SMALL.relay_antennas}) == 5


def test_each_figure_does_a_fixed_amount_of_work(monkeypatch):
    # calls of (plane_wave_form, gather, directional_kernel, los_channel) per figure
    # on Scenario(): a form per array, EMI and centre (none takes none); a gather
    # per array and kernel an optimized surface row or an MMSE gain reads; a
    # kernel per case-1 figure and per case-2 direction; one channel per surface
    # size that an optimized row reads, and a source and a destination channel
    # per relay
    names = ("plane_wave_form", "gather", "directional_kernel", "los_channel")
    calls = collections.Counter()
    for module, name in zip((bench.emi_mod,) * 3 + (bench,), names):
        monkeypatch.setattr(module, name, lambda *args, name=name, fn=getattr(module, name):
                            calls.update([name]) or fn(*args))
    for runner, counts in ((run_fig3, (3, 0, 0, 0)), (run_fig4, (1, 0, 0, 0)),
                           (run_fig5, (0, 1, 0, 1)), (run_fig6, (3, 3, 0, 3)),
                           (run_fig7, (28, 0, 27, 0)), (run_fig8, (160, 162, 1, 161))):
        calls.clear()
        runner(Scenario())
        assert tuple(calls[name] for name in names) == counts, runner


def test_fig8_holds_one_relay_matrix_at_a_time():
    """fig8 peaks, under tracemalloc, below the bytes of every relay's sinc matrix
    held at once, 8 m^2 summed over m = 1..80 (1.33 MiB; 0.80 MiB seen, 2.12 MiB
    when the frame kept each size's matrix).  The run before it has cached the
    process-wide Gauss-Legendre rules, which emi mirrors from its stored tables
    (a first run peaks at 0.73 MiB, 1.41 MiB when numpy built the rules)."""
    scenario = Scenario()
    run_fig8(scenario)
    tracemalloc.start()
    try:
        run_fig8(scenario)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < sum(8 * m * m for m in scenario.relay_antennas), f"peak {peak / 2 ** 20:.2f} MiB"


def test_concurrent_figures_give_the_serial_rows():
    # three fig8 runs and a fig7 run at once, each building its own kernels;
    # each run must keep the rows of a serial run
    scenario = Scenario(relay_antennas=tuple(range(1, 41)))
    runners = (run_fig8, run_fig8, run_fig8, run_fig7)
    serial = {runner: [repr(row) for row in runner(scenario).rows]
              for runner in (run_fig8, run_fig7)}
    for _ in range(6):
        results = run_concurrently([lambda r=r: r(scenario) for r in runners])
        for runner, result in zip(runners, results):
            assert [repr(row) for row in result.rows] == serial[runner], runner.__name__


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


@pytest.mark.filterwarnings("error")
def test_row_is_the_one_feasibility_test():
    # solver results as values: a power at the cap gives a finite row; one above
    # it, inf, NaN or a zero channel's (inf, nan) gives the inf/nan/0 sentinel,
    # whatever the iterations
    row = bench._row(1.0, "df", "optimized_iso", POWER_UPPER_W, 6.0, 7)
    assert row == SweepRow(1.0, "df", "optimized_iso", watt_to_dbm(POWER_UPPER_W), 6.0, 7)
    assert row.feasible
    zero_channel = irs.power_and_rate(6.0, np.float64(0.0), np.float64(1.0))
    for power, rate, iterations in ((math.nextafter(POWER_UPPER_W, math.inf), 6.0, 7),
                                    (1e6, 6.0, 7), (math.inf, 6.0, 7), (math.nan, 6.0, 7),
                                    (*zero_channel, 7), (*zero_channel, 0)):
        row = bench._row(1.0, "df", "optimized_iso", power, rate, iterations)
        assert repr(row) == repr(SweepRow(1.0, "df", "optimized_iso", math.inf, math.nan, 0))
        assert not row.feasible


def test_only_value_and_numerical_errors_are_raised():
    # infeasibility is a value: every raise in the package is a ValueError or a
    # NumericalError (possibly raised from another exception), and errors defines
    # only NumericalError
    raised = set()
    for path in pathlib.Path(cli.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc) if exc is not None else "bare raise")
    assert raised == {"ValueError", "NumericalError"}
    errors = importlib.import_module("emilink.errors")
    assert [name for name, value in vars(errors).items()
            if isinstance(value, type) and issubclass(value, BaseException)] == ["NumericalError"]


def test_cli_huge_target_rate_exits_infeasible(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"target_rate_bps_hz": 600, "irs": {"elements": [9]}}))
    assert cli.main(["fig3", "--config", str(cfg), "--out", str(tmp_path)]) == 2


def test_tracer_targets_resolve():
    # the benchmark tracer wraps these names; a refactor must keep them
    for module, attr, _ in _perfbench_module("tracer").TARGETS:
        assert callable(getattr(importlib.import_module(module), attr, None)), (module, attr)


def test_cli_infeasible_exit_code(tmp_path, monkeypatch):
    sentinel = SweepResult("x", (SweepRow(1.0, "df", "optimized_iso",
                                          math.inf, math.nan, 0),))
    monkeypatch.setitem(cli.bench.RUNNERS, "fig5", lambda sc: sentinel)
    assert cli.main(["fig5", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("argv", [["fig9"], ["fig3", "--bogus"], ["--dump", "fig3"],
                                  ["fig3", "--config"], ["fig3", "--out", "--dump-corr"],
                                  ["fig3", "--format", "pdf"], ["--format=pdf", "fig3"],
                                  [], ["--dump-corr"]],
                         ids=["unknown-figure", "unknown-option", "prefix-option",
                              "no-value", "option-as-value", "pdf", "pdf-equals",
                              "nothing", "no-figure"])
def test_cli_usage_error_exits_1_and_writes_nothing(argv, tmp_path, capsys):
    # a usage error is an error (1), not "no feasible row" (2), and no figure runs
    assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 1
    assert not (tmp_path / "o").exists()
    captured = capsys.readouterr()
    assert captured.out == ""
    usage, error = captured.err.splitlines()
    assert usage == cli.USAGE and error.startswith("error: ")


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["fig3", "--help"]])
def test_cli_help_exits_0_and_prints_the_usage(argv, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == cli.USAGE and captured.err == ""
    assert not list(tmp_path.iterdir())


def test_cli_all_writes_the_bytes_of_six_single_figure_runs(tmp_path, capsys):
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    single = tmp_path / "single"
    for fig in RUNNERS:
        assert cli.main([fig, "--config", str(cfg), "--out", str(single), "--dump-corr"]) == 0
    capsys.readouterr()
    together = tmp_path / "all"
    assert cli.main(["all", "--config", str(cfg), "--out", str(together), "--dump-corr"]) == 0
    printed = capsys.readouterr().out.splitlines()
    written = sorted(p.name for p in together.iterdir())
    assert written == sorted(p.name for p in single.iterdir()) == sorted(
        p.name for p in GOLDEN_DIR.iterdir() if p.is_file())
    assert sorted(pathlib.Path(line).name for line in printed) == written
    assert [pathlib.Path(line).name for line in printed if not line.endswith("_corr.csv")] == [
        f"{fig}.csv" for fig in RUNNERS]
    for name in written:
        assert (together / name).read_bytes() == (single / name).read_bytes(), name


def test_cli_svg_for_two_figures_either_option_spelling(tmp_path):
    cfg = tmp_path / "golden.json"
    cfg.write_text(json.dumps(GOLDEN_CONFIG))
    out = tmp_path / "o"
    assert cli.main(["--format=svg", f"--out={out}", "fig4", "fig3",
                     "--config", str(cfg)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["fig3.svg", "fig4.svg"]
    for fig in ("fig3", "fig4"):
        assert (out / f"{fig}.svg").read_text() == format_svg(
            RUNNERS[fig](scenario_from_config(GOLDEN_CONFIG)))


def test_cli_exit_code_precedence(tmp_path, monkeypatch, capsys):
    # 1 on any error, else 2 when any figure has no feasible row, else 0; a
    # figure's file is written before a later figure fails
    infeasible = SweepResult("x", (SweepRow(1.0, "df", "optimized_iso", math.inf, math.nan, 0),))
    feasible = SweepResult("x", (SweepRow(1.0, "df", "optimized_iso", 0.0, 6.0, 0),))

    def broken(scenario):
        raise ValueError("broken figure")

    monkeypatch.setitem(cli.bench.RUNNERS, "fig3", lambda sc: infeasible)
    monkeypatch.setitem(cli.bench.RUNNERS, "fig4", lambda sc: feasible)
    monkeypatch.setitem(cli.bench.RUNNERS, "fig5", broken)
    assert cli.main(["fig4", "--out", str(tmp_path / "a")]) == 0
    assert cli.main(["fig3", "fig4", "--out", str(tmp_path / "b")]) == 2
    assert cli.main(["fig4", "fig3", "--out", str(tmp_path / "c")]) == 2
    capsys.readouterr()
    assert cli.main(["fig3", "fig5", "fig4", "--out", str(tmp_path / "d")]) == 1
    assert sorted(p.name for p in (tmp_path / "d").iterdir()) == ["fig3.csv"]
    assert capsys.readouterr().err == "error: broken figure\n"


def test_cli_runs_a_repeated_figure_once(tmp_path, monkeypatch, capsys):
    calls = []
    monkeypatch.setitem(cli.bench.RUNNERS, "fig4",
                        lambda sc, run=RUNNERS["fig4"]: calls.append(sc) or run(sc))
    assert cli.main(["fig4", "fig4", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert capsys.readouterr().out.splitlines() == [str(tmp_path / "fig4.csv")]
    calls.clear()
    assert cli.main(["fig4", "all", "fig4", "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    assert [pathlib.Path(line).stem for line in capsys.readouterr().out.splitlines()] == [
        "fig4", "fig3", "fig5", "fig6", "fig7", "fig8"]


if __name__ == "__main__":
    # rewrite every byte golden from GOLDEN_CONFIG and PAPER_GOLDENS, and the
    # dispatch they are written under
    with tempfile.TemporaryDirectory() as tmp:
        config = pathlib.Path(tmp) / "config.json"
        config.write_text(json.dumps(GOLDEN_CONFIG), encoding="utf-8")
        for fig in RUNNERS:
            if cli.main([fig, "--config", str(config), "--out", str(GOLDEN_DIR), "--dump-corr"]):
                sys.exit(f"emilink {fig} failed; the goldens are partly rewritten")
    for name, (scenario, fig, _) in PAPER_GOLDENS.items():
        (GOLDEN_DIR / "paper" / name).write_bytes(format_csv(RUNNERS[fig](scenario)).encode())
    GOLDEN_DISPATCH.write_text(json.dumps(numpy_dispatch(), indent=1) + "\n", encoding="utf-8")
