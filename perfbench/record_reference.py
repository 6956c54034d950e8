"""Write the seed-0 reference CSVs the correctness gate compares against.

Run once from the repository root, on the commit the references should
describe:

    python3 perfbench/record_reference.py [WORKLOAD ...]

Each figure of each workload is run by the ``emilink`` CLI on the seed-0
config into ``perfbench/reference/<workload>/<fig>.csv``.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, write_config  # noqa: E402


def record(workload, out: Path) -> None:
    """Run every figure of ``workload`` at seed 0, writing CSVs into ``out``."""
    env = {**os.environ, "PYTHONPATH": str(HERE.parent / "src")}
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out) as tmp:
        config = write_config(workload, 0, Path(tmp) / "config.json")
        for fig in workload.figures:
            subprocess.run([sys.executable, "-m", "emilink.cli", fig, "--config", str(config),
                            "--out", str(out)], env=env, check=True, stdout=subprocess.DEVNULL)


def main(names: list[str]) -> int:
    for name in names or sorted(WORKLOADS):
        record(WORKLOADS[name], HERE / "reference" / name)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
