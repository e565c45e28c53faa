import importlib.util
import json
import subprocess
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

# a stand-in for perfbench/run.py: logs its side and arguments, and
# reports op_ms, rate and its operation counts from the side's file
FAKE_RUN = """import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
values = json.loads((here / "values.json").read_text())
print(json.dumps({"perfbench": {}}))
metrics = {"op_ms": {"value": values["op_ms"], "unit": "ms"},
           "rate": {"value": values["rate"], "unit": "1/s"}}
if sys.argv[-1] == "1":  # --trace 1
    metrics = {"trace.coverage_frac": {"value": 0.95, "unit": "frac"}}
print(json.dumps({"correct": values["correct"], "attempted": 5, "failed": values["failed"],
                  "metrics": metrics}))
"""
BENCHMARK = {
    "run_seconds": 3,
    "workloads": [{"name": "w1"}, {"name": "w2"}],
    "end_to_end": [
        {"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1},
    ],
}


def _checkout(root: Path, name: str, op_ms: float, rate: float, failed: int = 0) -> Path:
    side = root / name
    (side / "perfbench").mkdir(parents=True)
    (side / "perfbench" / "run.py").write_text(FAKE_RUN)
    values = {"op_ms": op_ms, "rate": rate, "failed": failed, "correct": not failed}
    (side / "values.json").write_text(json.dumps(values))
    (side / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    return side


def test_pairs_alternate_and_count_wins_per_metric(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", op_ms=2.0, rate=10.0)
    change = _checkout(tmp_path, "change", op_ms=1.0, rate=10.0)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "4", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    runs = (tmp_path / "order.log").read_text().splitlines()
    # per workload, 10 pairs and then 3 alternating pairs of traced runs
    assert len(runs) == 2 * 2 * (10 + 3)
    assert [line.split()[0] for line in runs[:4]] == ["parent", "change", "change", "parent"]
    assert runs[0].split()[1:] == ["--workload", "w1", "--seed", "4", "--seconds", "3", "--trace", "0"]
    assert [line.split()[0] for line in runs[20:26]] == [
        "parent", "change", "change", "parent", "parent", "change",
    ]
    assert {line.split()[-1] for line in runs[:20]} == {"0"}
    assert {line.split()[-1] for line in runs[20:26]} == {"1"}
    assert runs[26].split()[1:] == ["--workload", "w2", "--seed", "4", "--seconds", "3", "--trace", "0"]
    result = json.loads(out.read_text())
    assert result["traced_runs"] == 3
    side = {"runs": [{"correct": True, "coverage_frac": 0.95}] * 3, "coverage_median": 0.95}
    assert result["seeds"]["4"]["w1"]["traced"] == {"parent": side, "change": side}
    assert set(result["seeds"]["4"]) == {"w1", "w2"}
    table = result["seeds"]["4"]["w2"]["metrics"]
    assert table["op_ms"]["change_wins"] == 10 and table["op_ms"]["parent_wins"] == 0
    assert table["op_ms"]["parent"]["median"] == 2.0 and table["op_ms"]["change"]["q3"] == 1.0
    # equal values are ties, which count for neither side
    assert table["rate"]["change_wins"] == 0 and table["rate"]["parent_wins"] == 0
    assert "seed 4 w2 op_ms: parent 2 [2, 2] -> change 1 [1, 1] ms" in capsys.readouterr().out


def test_compare_follows_the_metric_direction():
    def run(rate):
        return {"metrics": {"rate": {"value": rate, "unit": "1/s"}}}

    metrics = {"rate": {"unit": "1/s", "better": "higher", "bound": 0.1}}
    table = bench_pairs.compare([run(1.0), run(3.0)], [run(2.0), run(2.0)], metrics)
    assert (table["rate"]["change_wins"], table["rate"]["parent_wins"]) == (1, 1)


def test_a_median_worse_beyond_its_bound_is_regressed(tmp_path, capsys):
    def run(**values):
        return {"metrics": {k: {"value": v, "unit": ""} for k, v in values.items()}}

    metrics = {"op_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
               "rate": {"unit": "1/s", "better": "higher", "bound": 0.1}}
    parent = [run(op_ms=4.0, rate=10.0)] * 3

    def regressed(**values):
        table = bench_pairs.compare(parent, [run(**values)] * 3, metrics)
        return table["op_ms"]["regressed"], table["rate"]["regressed"]

    # exactly at the bound is still inside it, on either side of better
    assert regressed(op_ms=5.0, rate=9.0) == (False, False)
    assert regressed(op_ms=5.01, rate=8.99) == (True, True)
    # a better median never regresses, however far it moves
    assert regressed(op_ms=1.0, rate=100.0) == (False, False)

    # the summary line marks a regressed metric
    slow = _checkout(tmp_path, "slow", op_ms=3.0, rate=8.0)
    fast = _checkout(tmp_path, "fast", op_ms=2.0, rate=10.0)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(fast), "--change", str(slow), "--seed", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith("change wins 0/10 REGRESSED") and lines[0].startswith("seed 1 w1 op_ms")
    assert lines[1].endswith("change wins 0/10 REGRESSED") and lines[1].startswith("seed 1 w1 rate")
    table = json.loads(out.read_text())["seeds"]["1"]["w2"]["metrics"]
    assert table["op_ms"]["regressed"] is True and table["rate"]["regressed"] is True


def test_an_incorrect_run_or_a_larger_failed_share_is_flagged(tmp_path, capsys):
    parent = _checkout(tmp_path, "parent", op_ms=2.0, rate=10.0, failed=1)
    change = _checkout(tmp_path, "change", op_ms=2.0, rate=10.0, failed=2)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith(" INCORRECT MORE FAILED") for line in lines)
    entry = json.loads(out.read_text())["seeds"]["2"]["w1"]
    # 1 and 2 failed of 5 operations in every run
    assert entry["outcome"] == {
        "parent": {"failed_share": 0.2, "all_correct": False},
        "change": {"failed_share": 0.4, "all_correct": False},
    }

    # the parent failing more flags nothing; every run of the change is correct
    argv = ["--parent", str(change), "--change", str(_checkout(tmp_path, "clean", 2.0, 10.0)),
            "--seed", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert all(line.endswith("change wins 0/10") for line in capsys.readouterr().out.splitlines())
    assert json.loads(out.read_text())["seeds"]["2"]["w2"]["outcome"]["change"] == {
        "failed_share": 0.0, "all_correct": True,
    }


def test_a_traced_run_of_the_change_that_fails_is_incorrect(tmp_path, capsys, monkeypatch):
    # every untraced run is correct; only the change's second traced run
    # of each workload fails, as a coverage gate below its bound would
    traced = []

    def run_bench(checkout, workload, seed, seconds, trace=0):
        if trace:
            traced.append(checkout.name)
        correct = not (trace and checkout.name == "change" and traced.count("change") % 3 == 2)
        metrics = {"op_ms": {"value": 2.0, "unit": "ms"}, "rate": {"value": 10.0, "unit": "1/s"}}
        if trace:
            coverage = 0.88 if not correct else 0.91 if checkout.name == "change" else 0.95
            metrics = {"trace.coverage_frac": {"value": coverage, "unit": "frac"}}
        return {"correct": correct, "attempted": 5, "failed": int(not correct), "metrics": metrics}

    monkeypatch.setattr(bench_pairs, "run_bench", run_bench)
    parent = _checkout(tmp_path, "parent", op_ms=2.0, rate=10.0)
    change = _checkout(tmp_path, "change", op_ms=2.0, rate=10.0)
    out = tmp_path / "BENCH.json"
    argv = ["--parent", str(parent), "--change", str(change), "--seed", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith("change wins 0/10 INCORRECT") for line in lines)
    entry = json.loads(out.read_text())["seeds"]["3"]["w2"]
    assert entry["traced"] == {
        "parent": {"runs": [{"correct": True, "coverage_frac": 0.95}] * 3, "coverage_median": 0.95},
        "change": {
            "runs": [{"correct": True, "coverage_frac": 0.91}, {"correct": False, "coverage_frac": 0.88},
                     {"correct": True, "coverage_frac": 0.91}],
            "coverage_median": 0.91,
        },
    }
    # the traced runs stay out of the untraced outcome and metrics
    assert entry["outcome"]["change"] == {"failed_share": 0.0, "all_correct": True}
    assert entry["metrics"]["op_ms"]["change"]["runs"] == [2.0] * 10

    # a parent whose traced run fails flags nothing
    argv = ["--parent", str(change), "--change", str(parent), "--seed", "3", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert all(line.endswith("change wins 0/10") for line in capsys.readouterr().out.splitlines())


def _git(repo: Path, *args: str):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", *args], cwd=repo,
                   check=True, capture_output=True)


def test_code_identity_names_uncommitted_code(tmp_path):
    assert bench_pairs.code_identity(tmp_path) == {"head": None, "diff_sha256": None}
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    _git(tmp_path, "add", "a.py")
    _git(tmp_path, "commit", "-q", "-m", "a")
    clean = bench_pairs.code_identity(tmp_path)
    assert len(clean["head"]) == 40 and clean["diff_sha256"] is None
    (tmp_path / "a.py").write_text("x = 2\n")
    edited = bench_pairs.code_identity(tmp_path)
    assert edited["head"] == clean["head"] and edited["diff_sha256"] is not None
    # an untracked file is part of the code too
    (tmp_path / "b.py").write_text("y = 1\n")
    assert bench_pairs.code_identity(tmp_path)["diff_sha256"] != edited["diff_sha256"]
