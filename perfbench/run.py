"""seblocks benchmark: one workload per call, result as the last stdout line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--smoke]

Run from the repository root; the package is imported from ``src/``.
``--trace 0`` reports the end-to-end metrics, measured with tracing
off.  ``--trace 1`` reports the per-layer metrics of a traced run plus
the tracing overhead against an untraced run on the same seed.
``--smoke`` shrinks every workload to a tiny size, for a check in
seconds.  See README.md for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORK = ROOT / ".perfbench-work"
# fresh interpreters per run; each sets up and times a share of the
# run, so setup_s is a median of three and op_ms pools three processes
SETUPS = 3
BUDGET_S = 170.0  # every run ends within 180 s

# share of the timed part the layer spans must cover where a workload
# asks for the check (power-all-100)
COVERAGE_MIN = 0.9


def metric_units(kind: str) -> dict:
    """Metric name -> unit of the ``end_to_end`` or ``per_layer`` list
    in BENCHMARK.json, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


class BenchError(Exception):
    """The program or the benchmark could not produce a measurement."""


class Runner:
    """Runs child processes one at a time under the run's time budget."""

    def __init__(self, budget_s: float):
        self.deadline = time.monotonic() + budget_s
        self.env = None

    def run(self, cmd: list) -> tuple[int, str, float]:
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=self.env, capture_output=True, text=True, timeout=remaining
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"timed out: {' '.join(cmd[:6])}") from exc
        wall = time.perf_counter() - start
        if proc.stderr.strip():
            sys.stderr.write(proc.stderr)
        return proc.returncode, proc.stdout, wall

    def json(self, cmd: list) -> dict:
        code, stdout, _ = self.run(cmd)
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"child failed with exit code {code}: {' '.join(cmd[2:6])}")
        return json.loads(lines[-1])


def child_env() -> dict:
    import os

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"  # one string-hash layout for every child
    return env


def children_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def layer_metrics(layers: dict, counters: dict, *, import_s: float, overhead: float,
                  covered: float, replicates: int, retries: int) -> dict:
    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    out = {}
    for name in ("partition.fit", "partition.assign"):
        c, s = calls(name), self_s(name)
        out.update({f"{name}.calls": c, f"{name}.self_s": s,
                    f"{name}.us_per_call": s / c * 1e6 if c else 0.0})
    out["partition.tie_retries"] = retries
    out["partition.useful_frac"] = replicates / (replicates + retries) if replicates else 1.0
    for name in ("simulate.generate", "nulldist.exact", "nulldist.mc", "nulldist.to_pmf",
                 "nulldist.pvalue", "twosample.scores", "twosample.rule", "twosample.decide",
                 "twosample.randomized_decision", "cli.read_csv"):
        out[f"{name}.calls"] = calls(name)
        out[f"{name}.self_s"] = self_s(name)
    out["simulate.loop.self_s"] = self_s("simulate.loop")
    for key in ("nulldist.exact.atoms", "nulldist.mc.draws", "nulldist.to_pmf.atoms",
                "twosample.rule.atoms", "simulate.rule_cache.hits", "simulate.rule_cache.misses",
                "twosample.scores_cache.hits", "twosample.scores_cache.misses"):
        out[key] = counters.get(key, 0)
    out["cli.import_s"] = import_s
    out["trace_overhead_frac"] = overhead
    out["trace.coverage_frac"] = covered
    return {name: out[name] for name in metric_units("per_layer")}


def _merge_layers(traces: list) -> tuple[dict, dict]:
    layers, counters = {}, {}
    for t in traces:
        for name, (c, s) in t["layers"].items():
            prev = layers.get(name, (0, 0.0))
            layers[name] = (prev[0] + c, prev[1] + s)
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
    return layers, counters


def _coverage_check(name: str, covered: float) -> dict:
    from perfbench.workloads import check

    return check(f"trace.coverage[{name}]", covered >= COVERAGE_MIN,
                 f"spans cover {covered:.3f} of the timed part, below {COVERAGE_MIN}")


def run_inproc(args, runner: Runner, cfg: dict) -> tuple[dict, int, int, list, dict]:
    trace_file = WORK / f"trace-{args.workload}-{args.seed}.json"
    extra = ["--smoke"] if args.smoke else []

    def child(mode, seconds, once=False):
        return runner.json([
            sys.executable, str(ROOT / "perfbench" / "child.py"), "inproc", args.workload,
            str(args.seed), str(seconds), mode, str(trace_file), *extra,
            *(["--once"] if once else []),
        ])

    detail = {}
    if not args.trace:
        results = [child("run", args.seconds / SETUPS, once=i == 0) for i in range(SETUPS)]
        metrics = {
            "setup_s": statistics.median(r["setup_ref_s"] for r in results),
            "op_ms": statistics.median(r["op_ref_ms"] for r in results),
            "peak_rss_mb": children_peak_rss_mb(),
        }
        detail["setup_samples_s"] = [r["setup_s"] for r in results]
    else:
        plain = child("run", args.seconds, once=True)
        traced = child("traced", args.seconds)
        results = [plain, traced]
        layers, counters = _merge_layers([traced])
        retries = counters.get("tie_retries")
        if retries is None:  # uniformity: a tied reference sample is refitted
            retries = layers.get("partition.fit", (0, 0.0))[0] - counters["replicates"]
        metrics = layer_metrics(
            layers, counters, import_s=traced["import_s"],
            overhead=traced["op_ref_ms"] / plain["op_ref_ms"] - 1.0, covered=traced["covered"],
            replicates=counters["replicates"], retries=retries,
        )
        if cfg.get("coverage_check"):
            traced["checks"].append(_coverage_check(args.workload, traced["covered"]))
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
    checks = [c for r in results for c in r["checks"]]
    attempted = sum(r["ops"] for r in results) + len(checks)
    failed = sum(not c["ok"] for c in checks)
    detail.update(batches=[r["batches"] for r in results], raw_op_ms=[r["op_ms"] for r in results],
                  calibration_ms=[r["calibration_ms"] for r in results],
                  referenced=results[0]["referenced"], provenance=results[0]["provenance"])
    return metrics, attempted, failed, checks, detail


def run_cli(args, runner: Runner) -> tuple[dict, int, int, list, dict]:
    from perfbench import workloads

    cfg = workloads.config(args.workload, args.smoke)
    workdir = WORK / f"{args.workload}-{args.seed}"
    workdir.mkdir(exist_ok=True)
    calls = workloads.cli_inputs(cfg, args.seed, workdir)
    records = {name: [] for name in workloads.CLI_CALLS}  # (payload or None, wall)
    checks, failed_ops, attempted = [], 0, 0

    def record(name, code, stdout, wall):
        nonlocal failed_ops, attempted
        ok, payload, call_checks = workloads.cli_call_checks(name, code, stdout, calls[name])
        attempted += 1
        failed_ops += not ok
        checks.extend(call_checks)
        records[name].append((payload, wall))

    def call(name, mode="cli"):
        """One cold call in a fresh child: (its output, wall time without
        the calibration samples, the call's time at the reference speed)."""
        trace_file = WORK / f"trace-{args.workload}-{args.seed}-{name}.json"
        code, stdout, wall = runner.run([
            sys.executable, str(ROOT / "perfbench" / "child.py"), mode,
            json.dumps(calls[name]), str(trace_file),
        ])
        lines = stdout.strip().splitlines()
        if code != 0 or not lines:
            raise BenchError(f"{mode} call {name} failed with exit code {code}")
        out = json.loads(lines[-1])
        wall -= out["calibration_s"]
        record(name, out["code"], out["stdout"], wall)
        return out, wall, out["ref_s"]

    detail = {}
    if not args.trace:
        setups = [call("floor")[2] for _ in range(SETUPS)]
        rounds = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            rounds.append(call("wilcoxon")[2] + call("terry_hoeffding")[2])
        metrics = {"setup_s": statistics.median(setups), "op_ms": statistics.median(rounds) * 1e3,
                   "peak_rss_mb": children_peak_rss_mb()}
        detail["ref_round_s"] = rounds
    else:
        untraced = sum(call(name)[1] for name in workloads.CLI_CALLS)
        traces = [call(name, "cli-traced") for name in workloads.CLI_CALLS]
        traced = sum(wall for _, wall, _ in traces)
        layers, counters = _merge_layers([out for out, _, _ in traces])
        covered = statistics.mean(out["covered"] for out, _, _ in traces)
        metrics = layer_metrics(
            layers, counters, import_s=statistics.median(out["import_s"] for out, _, _ in traces),
            overhead=traced / untraced - 1.0, covered=covered,
            replicates=layers.get("partition.fit", (0, 0.0))[0], retries=0,
        )

    payloads = {name: [p for p, _ in recs if p is not None] for name, recs in records.items()}
    for name, seen in payloads.items():
        if seen:
            same = all(workloads.normal_json(p) == workloads.normal_json(seen[0]) for p in seen)
            checks.append(workloads.check(f"{name}.deterministic", same, "repeated calls differ"))
    ref = workloads.load_reference(args.workload, args.smoke, args.seed)
    if ref is not None and all(payloads.values()):
        checks += workloads.cli_compare({n: p[0] for n, p in payloads.items()}, ref)
    detail["referenced"] = ref is not None
    detail["provenance"] = workloads.provenance(ROOT)
    detail["call_s"] = {name: [wall for _, wall in recs] for name, recs in records.items()}
    attempted += len(checks)
    failed = failed_ops + sum(not c["ok"] for c in checks)
    return metrics, attempted, failed, checks, detail


def parse_args(argv=None):
    from perfbench.workloads import CONFIGS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CONFIGS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for a check in seconds")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def main(argv=None) -> int:
    if not (ROOT / "src" / "seblocks" / "__init__.py").is_file():
        print(f"perfbench: no seblocks sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    args = parse_args(argv)
    WORK.mkdir(exist_ok=True)
    runner = Runner(BUDGET_S)
    runner.env = child_env()
    from perfbench.workloads import config

    cfg = config(args.workload, args.smoke)
    try:
        if cfg["kind"] == "cli":
            metrics, attempted, failed, checks, detail = run_cli(args, runner)
        else:
            metrics, attempted, failed, checks, detail = run_inproc(args, runner, cfg)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    units = metric_units("per_layer" if args.trace else "end_to_end")
    detail.update(
        workload=args.workload, seed=args.seed, trace=args.trace, smoke=args.smoke,
        checks=len(checks), failed_checks=[c for c in checks if not c["ok"]],
    )
    print(json.dumps({"perfbench": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
