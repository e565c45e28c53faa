"""Alternating-pair comparison of two checkouts on the seblocks benchmark.

    python3 tools/bench_pairs.py --parent DIR --change DIR --seed N [--seed M ...]
        --out BENCH_<n>.json

Runs ``perfbench/run.py`` in each checkout, one process at a time, for
every seed and every workload of the change's ``BENCHMARK.json``:
``PAIRS`` pairs, the parent first in even pairs and the change first in
odd ones, each run for that file's ``run_seconds`` with tracing off.
The result file holds, per seed, workload and end-to-end metric, each
side's runs, median and quartiles, the number of pairs each side won
(ties count for neither), and ``regressed``: whether the change's
median is worse than the parent's by more than the metric's ``bound``
times the parent's median.  It is rewritten after every workload, and
a one-line summary per workload and metric goes to stdout, ending in
``REGRESSED`` for such a metric.  Per seed and workload it also holds
each side's ``outcome``: the share of its operations that failed, over
all its runs, and whether every run was correct; the summary lines end
in ``INCORRECT`` when a run of the change was not correct, and in
``MORE FAILED`` when the change failed a larger share.  After the
pairs, each side makes ``TRACED_RUNS`` ``--trace 1`` runs per seed and
workload, again alternating which goes first, recorded as ``traced``:
per side, every run's ``correct`` (its checks include the coverage gate
where a workload has one) and ``trace.coverage_frac``, and the median
coverage; a traced run of the change that is not correct also ends the
summary lines in ``INCORRECT``.  One traced run per side would decide
by chance where a gate sits inside the run-to-run spread.  It also names
the code of each side: the checkout's HEAD and, when the checkout
differs from it, the SHA-256 of ``git diff HEAD --binary`` followed by
each untracked file's path and bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10
# traced runs per side, seed and workload
TRACED_RUNS = 3


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """The result line of one ``perfbench/run.py`` call in ``checkout``."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{checkout}: {' '.join(cmd[1:])} exited {proc.returncode}: {proc.stderr.strip()}"
        )
    return json.loads(lines[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def compare(parent_runs: list, change_runs: list, metrics: dict) -> dict:
    """Per metric: each side's summary, pair wins, and whether the
    change's median regressed beyond the metric's bound."""
    out = {}
    for name, spec in metrics.items():
        before = [r["metrics"][name]["value"] for r in parent_runs]
        after = [r["metrics"][name]["value"] for r in change_runs]
        sign = 1 if spec["better"] == "lower" else -1
        parent, change = summary(before), summary(after)
        loss = sign * (change["median"] - parent["median"])
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": parent,
            "change": change,
            "change_wins": sum(sign * (b - a) > 0 for b, a in zip(before, after)),
            "parent_wins": sum(sign * (a - b) > 0 for b, a in zip(before, after)),
            "regressed": loss > spec["bound"] * abs(parent["median"]),
        }
    return out


def traced_summary(runs: list) -> dict:
    """One side's traced runs: each run's correctness and coverage, and
    the median coverage."""
    coverage = [r["metrics"]["trace.coverage_frac"]["value"] for r in runs]
    return {"runs": [{"correct": r["correct"], "coverage_frac": c} for r, c in zip(runs, coverage)],
            "coverage_median": statistics.median(coverage)}


def outcome(runs: list) -> dict:
    """One side's failed share of the operations of its runs, and
    whether every run was correct."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    return {"failed_share": failed / attempted if attempted else 0.0,
            "all_correct": all(r["correct"] for r in runs)}


def _git(checkout: Path, *args: str) -> bytes:
    return subprocess.run(["git", *args], cwd=checkout, capture_output=True, check=True).stdout


def code_identity(checkout: Path) -> dict:
    """The checkout's HEAD, and a digest of how its files differ from
    HEAD (None when they do not); both None outside a git checkout."""
    try:
        head = _git(checkout, "rev-parse", "HEAD").decode().strip()
        diff = _git(checkout, "diff", "HEAD", "--binary")
        untracked = _git(checkout, "ls-files", "--others", "--exclude-standard", "-z")
    except (OSError, subprocess.CalledProcessError):
        return {"head": None, "diff_sha256": None}
    digest = hashlib.sha256(diff)
    names = sorted(name for name in untracked.split(b"\0") if name)
    for name in names:
        digest.update(name + b"\0" + (checkout / name.decode()).read_bytes())
    return {"head": head, "diff_sha256": digest.hexdigest() if diff or names else None}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--seed", type=int, action="append", required=True)
    parser.add_argument("--out", type=Path, required=True, help="result JSON file")
    args = parser.parse_args(argv)
    for side in (args.parent, args.change):
        if not (side / "perfbench" / "run.py").is_file():
            parser.error(f"{side}: no perfbench/run.py")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    result = {
        "seconds": seconds, "pairs": PAIRS, "traced_runs": TRACED_RUNS,
        "code": {name: code_identity(path) for name, path in sides.items()},
        "seeds": {},
    }
    workloads = [w["name"] for w in spec["workloads"]]
    for seed, workload in [(seed, w) for seed in args.seed for w in workloads]:
        runs = {"parent": [], "change": []}
        traced_runs = {"parent": [], "change": []}
        for count, trace, out in ((PAIRS, 0, runs), (TRACED_RUNS, 1, traced_runs)):
            for pair in range(count):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for name in order:
                    out[name].append(run_bench(sides[name], workload, seed, seconds, trace))
        traced = {name: traced_summary(rs) for name, rs in traced_runs.items()}
        table = compare(runs["parent"], runs["change"], metrics)
        outcomes = {name: outcome(rs) for name, rs in runs.items()}
        incorrect = not (outcomes["change"]["all_correct"]
                         and all(r["correct"] for r in traced_runs["change"]))
        flags = " INCORRECT" * incorrect + " MORE FAILED" * (
            outcomes["change"]["failed_share"] > outcomes["parent"]["failed_share"]
        )
        result["seeds"].setdefault(str(seed), {})[workload] = {
            "correct": {name: [r["correct"] for r in rs] for name, rs in runs.items()},
            "failed": {name: [r["failed"] for r in rs] for name, rs in runs.items()},
            "attempted": {name: [r["attempted"] for r in rs] for name, rs in runs.items()},
            "outcome": outcomes,
            "traced": traced,
            "metrics": table,
        }
        for name, row in table.items():
            before, after = row["parent"], row["change"]
            print(f"seed {seed} {workload} {name}: parent {before['median']:.6g} "
                  f"[{before['q1']:.6g}, {before['q3']:.6g}] -> change {after['median']:.6g} "
                  f"[{after['q1']:.6g}, {after['q3']:.6g}] {row['unit']}; change wins "
                  f"{row['change_wins']}/{PAIRS}{' REGRESSED' if row['regressed'] else ''}{flags}",
                  flush=True)
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
