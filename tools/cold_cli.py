"""Cold latency of ``seblocks test``: each call in a fresh process.

    python3 tools/cold_cli.py [--checkout DIR]

Writes a comparison and a reference sample of ``SIZE`` standard normal
rows with ``P`` columns (seed 0) to a temporary directory.  Then runs
``python -m seblocks.cli test`` on them ``CALLS`` times per test in
``TESTS``, with the checkout's ``src`` first on ``PYTHONPATH``; each
round makes one call per test, in that order.  Prints one line per
test: the median wall time from process start to exit, with the
fastest and slowest call.  A call that exits nonzero stops the script
with its error output.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]
SIZE = 200
P = 3
CALLS = 5
TESTS = ("wilcoxon", "terry_hoeffding")


def write_samples(folder: Path) -> tuple[str, str]:
    rng = np.random.default_rng(0)
    paths = []
    for name in ("x", "y"):
        path = folder / f"{name}.csv"
        np.savetxt(path, rng.standard_normal((SIZE, P)), delimiter=",", fmt="%.17g")
        paths.append(str(path))
    return paths[0], paths[1]


def time_call(argv: list, env: dict) -> float:
    start = time.perf_counter()
    proc = subprocess.run(argv, env=env, capture_output=True, text=True)
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr.strip()}")
    return wall


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=HERE, help="repository to time")
    checkout = parser.parse_args(argv).checkout
    if not (checkout / "src" / "seblocks" / "cli.py").is_file():
        parser.error(f"{checkout}: no src/seblocks/cli.py")
    path = [str((checkout / "src").resolve()), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    walls = {test: [] for test in TESTS}
    with tempfile.TemporaryDirectory() as folder:
        x, y = write_samples(Path(folder))
        for _ in range(CALLS):
            for test in TESTS:
                argv = [sys.executable, "-m", "seblocks.cli", "test", "--x", x, "--y", y,
                        "--test", test]
                walls[test].append(time_call(argv, env))
    for test, times in walls.items():
        print(f"{test} m=n={SIZE} p={P}: median {statistics.median(times):.3f} s "
              f"over {CALLS} calls [{min(times):.3f}, {max(times):.3f}]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
