"""Benchmark the emilink figure sweeps the way users run them.

Usage (from the repository root):

    python3 perfbench/run.py --workload paper_rows --seed 0 --seconds 10 --trace 0

Each figure of a pass is one ``emilink.cli.main([figN, "--config", cfg,
"--out", dir])`` call in a fresh interpreter with BLAS pinned to one thread
(on a 2-CPU machine, threaded BLAS more than doubled the run-to-run spread
of ``paper_rows``).  A run makes the number of passes whose total time is
nearest to ``--seconds`` (at least one), so its length hardly depends on
how long a pass takes; every pass is checked by the correctness gate
(``gate.py``).

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (mean time of a
pass after set-up), ``setup_s`` (median, per pass, of interpreter start +
``import emilink`` + loading the config, over every pass and over extra
set-up-only passes run before and after the timed ones) and
``peak_rss_mib`` (median over passes of the largest child's peak resident
memory).  ``wall_s`` is a mean because a shared 2-CPU machine switches
between a fast and a slow phase every few seconds: the ~1.2 s passes of
``paper_rows`` split into two clusters about 1.7x apart, and a median over
them jumps between the clusters from run to run.  ``--trace 1`` runs the same
untraced passes, then one traced pass, and reports per-layer metrics named
``<layer>.<function>.<stat>`` plus ``trace.overhead_s``.

The last stdout line is ``{"correct", "attempted", "failed", "metrics"}``:
``attempted`` is the number of rows written and checked, ``failed`` the
rows the gate rejected (a figure whose CLI call fails counts all its rows).
Run metadata, per-pass figures and, when traced, every span are written to
``perfbench/.work/<workload>-seed<seed>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import WORKLOADS, make_config, write_config  # noqa: E402

# Set-up-only interpreters per untraced run, half before the timed passes and
# half after, so that set-up is sampled across the whole run even when one
# pass fills it (antenna_sweep).  The speed of a shared 2-CPU machine drifts
# by tens of percent over seconds, and each sample is only a fraction of a
# second.
SETUP_INTERPRETERS = 16
CHILD_TIMEOUT_S = 170
BLAS_THREADS = "1"
PINNED_ENV = {name: BLAS_THREADS for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

# (span name, statistic) reported by the traced run.
SPAN_STATS = (
    ("scene.make_layout", "calls"), ("scene.make_layout", "self_s"),
    ("scene.los_channel", "calls"), ("scene.los_channel", "self_s"),
    ("emi.corr_isotropic", "calls"), ("emi.corr_isotropic", "self_s"),
    ("emi.corr_directional", "calls"), ("emi.corr_directional", "self_s"),
    ("emi.psd_project", "calls"), ("emi.psd_project", "self_s"),
    ("emi.leggauss", "calls"),
    ("irs.irs_min_power_emi_aware", "calls"), ("irs.irs_min_power_emi_aware", "total_s"),
    ("irs.phases_emi_aware", "calls"), ("irs.phases_emi_aware", "self_s"),
    ("irs.irs_sinr", "calls"), ("irs.irs_sinr_gradient", "calls"),
    ("relay.df_min_power", "calls"), ("relay.df_min_power", "self_s"),
    ("relay.df_min_power", "total_s"),
    ("relay.df_inner_max_rate", "calls"), ("relay.df_inner_max_rate", "self_s"),
    ("relay.effective_gain_first_phase", "calls"),
    ("relay.effective_gain_first_phase", "self_s"),
    *((f"bench.run_fig{n}", "total_s") for n in range(3, 9)),
    ("bench.format_csv", "total_s"), ("bench.emit", "total_s"),
    ("cli.main", "self_s"),
)


class Harness:
    """Runs passes of one workload at one seed inside a scratch directory."""

    def __init__(self, root: Path, workload, seed: int, work: Path, reference_dir: Path):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = {**os.environ, **PINNED_ENV, "PYTHONPATH": str(root / "src")}
        self.meta: dict = {}
        self.target_rate = make_config(workload, seed)["target_rate_bps_hz"]
        self.references = {fig: gate.parse_csv((reference_dir / f"{fig}.csv").read_text())
                           for fig in workload.figures}
        self._passes = 0

    def _child(self, config: Path, figure: str, out: Path, pass_id: int, mode: str) -> dict:
        result = out / f"{figure}.{mode}.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(self.root), str(config), figure,
               str(out), str(result), str(pass_id), mode]
        spawned = time.monotonic()
        proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result.is_file():
            raise RuntimeError(f"{figure} ({mode}) exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        report = json.loads(result.read_text(encoding="utf-8"))
        report["setup_s"] = report.pop("setup_end") - spawned
        self.meta = report.pop("meta")
        return report

    def _new_pass(self) -> tuple[int, Path, Path]:
        pass_id = self._passes
        self._passes += 1
        out = self.work / f"pass{pass_id}"
        out.mkdir()
        config = write_config(self.workload, self.seed, out / "config.json")
        return pass_id, out, config

    def setup_probe(self) -> float:
        """Set-up time of one pass, measured by set-up-only interpreters."""
        pass_id, out, config = self._new_pass()
        return sum(self._child(config, fig, out, pass_id, "setup")["setup_s"]
                   for fig in self.workload.figures)

    def run_pass(self, traced: bool = False) -> dict:
        pass_id, out, config = self._new_pass()
        summary = {"pass_id": pass_id, "wall_s": 0.0, "setup_s": 0.0, "peak_rss_kib": 0,
                   "rows": 0, "failed": 0, "problems": [], "spans": [],
                   "iter_limit_warnings": 0, "irs_outer_iters": 0}
        for fig in self.workload.figures:
            report = self._child(config, fig, out, pass_id, "trace" if traced else "run")
            summary["wall_s"] += report["wall_s"]
            summary["setup_s"] += report["setup_s"]
            summary["peak_rss_kib"] = max(summary["peak_rss_kib"], report["peak_rss_kib"])
            offset = len(summary["spans"])
            for span in report.get("spans", []):
                if span[3] >= 0:
                    span[3] += offset
                summary["spans"].append(span)
            summary["iter_limit_warnings"] += report.get("iter_limit_warnings", 0)
            rows, problems = self._check(fig, report["exit_code"], out / f"{fig}.csv")
            summary["rows"] += max(len(rows), len(self.references[fig]))
            summary["irs_outer_iters"] += sum(
                r.solver_iters for r in rows
                if r.technology.startswith("irs_") and r.mode.startswith("optimized_"))
            summary["failed"] += len(problems)
            summary["problems"] += problems
        return summary

    def _check(self, fig: str, exit_code: int, csv: Path) -> tuple[list[gate.Row], list[str]]:
        """Rows the figure wrote and the gate's problems with them."""
        reference = self.references[fig]
        if exit_code != 0 or not csv.is_file():
            return [], [f"{fig}: CLI exit code {exit_code}"] * len(reference)
        try:
            rows = gate.parse_csv(csv.read_text(encoding="utf-8"))
        except ValueError as exc:
            return [], [f"{fig}: unreadable CSV ({exc})"] * len(reference)
        return rows, gate.check_figure(fig, rows, reference, self.target_rate,
                                       compare_values=self.seed == 0)


def layer_metrics(traced: dict, untraced_wall: float) -> dict:
    spans = traced["spans"]
    stats = tracer.summarize(spans)
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "notes": []}
    metrics = {}
    for name, stat in SPAN_STATS:
        metrics[f"{name}.{stat}"] = (stats.get(name, empty)[stat],
                                     "count" if stat == "calls" else "s")

    def count(name):
        return stats.get(name, empty)["calls"]

    steps = tracer.children_of(spans, "irs.irs_sinr_gradient", "irs.phases_emi_aware")
    trials = (tracer.children_of(spans, "irs.irs_sinr", "irs.phases_emi_aware")
              - count("irs.phases_emi_aware"))
    solves = count("relay.df_min_power")
    inner = tracer.children_of(spans, "relay.df_inner_max_rate", "relay.df_min_power")
    metrics.update({
        "irs.sinr_evals_per_step": (trials / steps if steps else 0.0, "ratio"),
        "irs.outer_iters": (traced["irs_outer_iters"], "count"),
        "irs.iter_limit_warnings": (traced["iter_limit_warnings"], "count"),
        "relay.inner_calls_per_solve": (inner / solves if solves else 0.0, "ratio"),
        "relay.infeasible": (stats.get("relay.df_min_power", empty)["notes"].count(
            "InfeasibleError"), "count"),
        "bench.rows": (traced["rows"], "count"),
        "trace.overhead_s": (traced["wall_s"] - untraced_wall, "s"),
    })
    return metrics


def git_head(root: Path) -> str | None:
    """Commit the checkout was taken from, or None outside a git repository."""
    try:
        proc = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(harness: Harness, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (result line, record written to the work log)."""
    figures = len(harness.workload.figures)
    probes = 0 if trace else -(-SETUP_INTERPRETERS // figures)
    setups = [harness.setup_probe() for _ in range(probes // 2)]
    passes = []
    start = last = time.monotonic()
    while True:
        passes.append(harness.run_pass())
        now = time.monotonic()
        if now - start + (now - last) / 2 >= seconds:
            break
        last = now
    wall = statistics.mean(p["wall_s"] for p in passes)
    setups += [harness.setup_probe() for _ in range(probes - probes // 2)]
    if trace:
        passes.append(harness.run_pass(traced=True))
        metrics = layer_metrics(passes[-1], wall)
    else:
        setups += [p["setup_s"] for p in passes]
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mib": (statistics.median(p["peak_rss_kib"] for p in passes) / 1024.0,
                             "MiB"),
        }
    attempted = sum(p["rows"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    record = {
        "meta": {**harness.meta, "blas_threads": BLAS_THREADS,
                 "nproc": len(os.sched_getaffinity(0)), "git_head": git_head(harness.root),
                 "workload": harness.workload.name, "figures": list(harness.workload.figures),
                 "seed": harness.seed, "rows_per_pass": passes[0]["rows"],
                 "seconds": seconds, "trace": trace},
        "setup_samples_s": setups,
        "passes": [{k: p[k] for k in ("pass_id", "wall_s", "setup_s", "peak_rss_kib",
                                      "rows", "failed", "problems")} for p in passes],
        "spans": passes[-1]["spans"] if trace else [],
    }
    return result, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = HERE.parent
    if not (root / "src" / "emilink" / "cli.py").is_file():
        print(f"error: no emilink sources under {root / 'src'}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    logs = HERE / ".work"
    logs.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=logs))
    try:
        harness = Harness(root, workload, args.seed, work, HERE / "reference" / workload.name)
        result, record = measure(harness, args.seconds, bool(args.trace))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    log = logs / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    log.write_text(json.dumps(record) + "\n", encoding="utf-8")

    print("meta " + json.dumps(record["meta"], sort_keys=True))
    for problem in [p for run in record["passes"] for p in run["problems"]][:20]:
        print("gate: " + problem)
    print(f"rows_failed_frac {result['failed'] / max(result['attempted'], 1)!r} "
          f"({result['failed']} of {result['attempted']} rows)")
    for name, m in result["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
