"""One figure in a fresh interpreter: set up, run ``emilink.cli.main``, report.

Usage: child.py ROOT CONFIG FIGURE OUT_DIR RESULT_JSON PASS_ID MODE
where MODE is ``setup`` (set up and exit), ``run`` or ``trace``.

Set-up is everything before the figure starts: interpreter start, import
of emilink, and loading the config.  The harness reads the start time
from its own clock, so this process reports only when set-up ended
(``time.monotonic`` is one system-wide clock on Linux).  The result JSON
also carries the peak resident memory of this process and, in ``trace``
mode, every span recorded.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    root, config, figure, out_dir, result_path, pass_id, mode = argv
    src = Path(root) / "src"
    sys.path.insert(0, str(src))
    import emilink
    from emilink import bench, cli

    if Path(emilink.__file__).resolve().parent != (src / "emilink").resolve():
        print(f"error: imported emilink from {emilink.__file__}, not from {src}", file=sys.stderr)
        return 3
    bench.load_scenario(config)
    report = {"setup_end": time.monotonic()}

    if mode != "setup":
        tracer = None
        if mode == "trace":
            import warnings

            sys.path.insert(0, str(Path(__file__).resolve().parent))
            from tracer import Tracer

            tracer = Tracer(int(pass_id))
            tracer.install()
        start = time.perf_counter()
        if tracer is None:
            code = cli.main([figure, "--config", config, "--out", out_dir])
        else:
            # Solver RuntimeWarnings become a count instead of stderr noise.
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always", RuntimeWarning)
                code = cli.main([figure, "--config", config, "--out", out_dir])
            report["spans"] = tracer.spans
            report["iter_limit_warnings"] = sum(
                1 for w in caught if "iteration limit" in str(w.message))
        report["wall_s"] = time.perf_counter() - start
        report["exit_code"] = code

    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    report["meta"] = {"python": sys.version.split()[0], "numpy": numpy.__version__,
                      "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}
    report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
