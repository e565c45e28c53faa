"""Fresh-interpreter side of the benchmark; ``run.py`` starts it.

    child.py inproc WORKLOAD SEED SECONDS MODE TRACE_PATH [--smoke] [--once]
        MODE run: import and set up, time batches for SECONDS, check
        MODE traced: as run, with every layer wrapped by the tracer
        --once: also make the checks one child per run makes (untimed)
    child.py cli|cli-traced JSON_ARGV TRACE_PATH
        one cold ``seblocks.cli.main`` call, calibrated or traced

Prints one JSON object on its last stdout line.
"""

import time

T0 = time.perf_counter()

import io  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT))

from perfbench import calibrate  # noqa: E402
from perfbench import tracer as tracing  # noqa: E402

# calibration kernels timed after every batch
CALIBRATION_REPEATS = 2


def _import_package():
    import seblocks
    import seblocks.cli  # noqa: F401

    where = Path(seblocks.__file__).resolve()
    if ROOT / "src" not in where.parents:
        raise SystemExit(f"seblocks imported from {where}, not from {ROOT / 'src'}")
    return time.perf_counter()


def _cache_counters() -> dict:
    from seblocks import simulate, twosample

    rule = simulate._cached_rule.cache_info()
    scores = twosample.expected_normal_order_scores.cache_info()
    return {
        "simulate.rule_cache.hits": rule.hits,
        "simulate.rule_cache.misses": rule.misses,
        "twosample.scores_cache.hits": scores.hits,
        "twosample.scores_cache.misses": scores.misses,
    }


def _trace_summary(tracer, root: str) -> dict:
    return {
        "layers": tracer.self_times(),
        "counters": dict(tracer.counters),
        "covered": tracer.covered_fraction(root, "simulate.loop"),
    }


def inproc(workload: str, seed: int, seconds: float, mode: str, smoke: bool, once: bool,
           trace_path: str):
    from perfbench import workloads

    tracer = tracing.Tracer() if mode == "traced" else None
    restore = None
    sampler = calibrate.Sampler()

    def span(name):
        return tracer.span(name) if tracer else nullcontext()

    with nullcontext() if tracer else sampler:
        imported = _import_package()
        if tracer:
            tracer.spans.append(("cli.import", T0, imported, -1))
            restore = tracing.install(tracer)
        wl = workloads.make(workload, smoke)
        with span("bench.setup"):
            wl.setup(seed)
        setup_s = time.perf_counter() - T0

    if tracer:
        tracer.phase = "loop"
    times, cal, ops, batch_outputs = [], [], 0, []
    deadline = time.perf_counter() + seconds
    while True:
        with span("bench.loop"):
            start = time.perf_counter()
            n_ops, result = wl.batch(len(times))
            end = time.perf_counter()
        times.append((end - start) / n_ops)
        cal.append(calibrate.sample_ms(CALIBRATION_REPEATS))
        ops += n_ops
        batch_outputs.append(result)
        if end >= deadline and len(times) >= workloads.MIN_BATCHES:
            break
    if restore:
        restore()

    outputs, checks = wl.outputs(batch_outputs)
    if once:
        checks += wl.once_checks()
    ref = workloads.load_reference(workload, smoke, seed)
    if ref is not None:
        checks += wl.compare(outputs, ref)
    op_ms = statistics.median(times) * 1000.0
    out = dict(
        setup_s=setup_s - sampler.spent_s,
        setup_ref_s=sampler.corrected(setup_s),
        import_s=imported - T0,
        op_ms=op_ms,
        op_ref_ms=op_ms * calibrate.speed(cal),
        calibration_ms=statistics.median(cal),
        batches=len(times),
        ops=ops,
        checks=checks,
        referenced=ref is not None,
        provenance=workloads.provenance(ROOT),
    )
    if tracer:
        out.update(_trace_summary(tracer, "bench.loop"))
        out["counters"].update(_cache_counters())
        out["counters"].update(wl.layer_counters())
        tracer.dump(trace_path)
    return out


def cli_call(argv: list, trace_path: str, traced: bool):
    """One cold ``cli.main(argv)`` call.  Untraced, the calibration
    kernel is sampled during the call, so its time can be put at the
    reference speed; traced, every layer is wrapped instead."""
    tracer = tracing.Tracer() if traced else None
    sampler = calibrate.Sampler()
    buf = io.StringIO()
    with nullcontext() if tracer else sampler:
        imported = _import_package()
        from seblocks import cli

        if tracer:
            tracer.spans.append(("cli.import", T0, imported, -1))
            tracing.install(tracer)
        with tracer.span("bench.call") if tracer else nullcontext(), redirect_stdout(buf):
            try:
                code = cli.main(argv)
            except Exception:  # the call fails as the CLI process would: exit code 1
                traceback.print_exc()
                code = 1
        wall = time.perf_counter() - T0
    out = {"code": code, "stdout": buf.getvalue(), "import_s": imported - T0,
           "calibration_s": sampler.spent_s, "ref_s": sampler.corrected(wall)}
    if tracer:
        out.update(_trace_summary(tracer, "bench.call"))
        out["counters"].update(_cache_counters())
        tracer.dump(trace_path)
    return out


def main(argv):
    if argv[0] == "inproc":
        workload, seed, seconds, mode, trace_path = argv[1:6]
        out = inproc(workload, int(seed), float(seconds), mode, "--smoke" in argv,
                     "--once" in argv, trace_path)
    else:
        out = cli_call(json.loads(argv[1]), argv[2], argv[0] == "cli-traced")
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
