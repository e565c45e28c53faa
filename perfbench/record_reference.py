"""Record the benchmark's correctness reference from the current commit.

    python3 perfbench/record_reference.py

For every workload and seed (SEEDS, and SMOKE_SEEDS at ``--smoke``
sizes) this computes, without timing, the outputs the benchmark's
checks compare against (first-batch rejection counts, probe statistics
and exact p-values, first-batch uniformity tallies, CLI payloads) and
writes them to ``perfbench/reference.json``.  Record only from a commit
whose outputs are known to be right; the reference-free checks run
here too, and any failure is printed.
"""

from __future__ import annotations

import io
import json
import multiprocessing
import sys
from contextlib import redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(64)
SMOKE_SEEDS = range(20)
WORKERS = 2


def record_one(task: tuple) -> tuple:
    workload, smoke, seed = task
    if str(ROOT) not in sys.path:
        sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    cfg = workloads.config(workload, smoke)
    if cfg["kind"] == "cli":
        from seblocks import cli

        workdir = ROOT / ".perfbench-work" / f"record-{workload}-{int(smoke)}-{seed}"
        workdir.mkdir(parents=True, exist_ok=True)
        calls = workloads.cli_inputs(cfg, seed, workdir)
        payloads, failed = {}, []
        for name in workloads.CLI_CALLS:
            buf = io.StringIO()
            with redirect_stdout(buf):
                code = cli.main(calls[name])
            ok, payload, checks = workloads.cli_call_checks(name, code, buf.getvalue(), calls[name])
            if not ok:
                failed.append(f"{name}: exit code {code}")
            failed += [c["name"] for c in checks if not c["ok"]]
            payloads[name] = payload
        done = all(p is not None for p in payloads.values())
        out = workloads.normal_json(workloads.cli_reference_outputs(payloads)) if done else None
        return workload, smoke, seed, out, failed

    wl = workloads.make(workload, smoke)
    wl.setup(seed)
    batches = [wl.batch(i)[1] for i in range(workloads.MIN_BATCHES if cfg["kind"] == "uniformity" else 1)]
    out, checks = wl.outputs(batches)
    checks += wl.once_checks()
    failed = [c["name"] + ": " + c["detail"] for c in checks if not c["ok"]]
    return workload, smoke, seed, workloads.normal_json(out), failed


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    tasks = [(w, True, s) for w in workloads.CONFIGS for s in SMOKE_SEEDS]
    tasks += [(w, False, s) for w in workloads.CONFIGS for s in SEEDS]
    table: dict = {}
    bad = 0
    ctx = multiprocessing.get_context("spawn")
    with ctx.Pool(WORKERS) as pool:
        for workload, smoke, seed, out, failed in pool.imap_unordered(record_one, tasks):
            if failed:
                bad += 1
                print(f"{workload} smoke={smoke} seed={seed}: failed {failed}", file=sys.stderr)
            if out is not None:
                key = workloads.reference_key(workload, smoke)
                table.setdefault(key, {})[str(seed)] = out
    for key in table:
        table[key] = dict(sorted(table[key].items(), key=lambda kv: int(kv[0])))
    # one line per seed keeps the file small and its diffs readable
    lines = ['{"recorded_from": ' + json.dumps(workloads.provenance(ROOT)) + ',', ' "workloads": {']
    for i, (key, seeds) in enumerate(sorted(table.items())):
        lines.append(f"  {json.dumps(key)}: {{")
        entries = [f"   {json.dumps(seed)}: {json.dumps(out)}" for seed, out in seeds.items()]
        lines.append(",\n".join(entries))
        lines.append("  }" + ("," if i < len(table) - 1 else ""))
    lines.append(" }}")
    workloads.REFERENCE_PATH.write_text("\n".join(lines) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH.relative_to(ROOT)}: {len(tasks)} entries, "
          f"{bad} with failed checks", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
