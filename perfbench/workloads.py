"""Workload settings, timed batches and correctness checks.

Every input is generated from the workload seed.  Checks come in two
kinds:

* reference-free: block counts from an independent pure-Python
  partition, statistics from their textbook formulas, exact closed-form
  p-values, determinism across batches, and the statistical size and
  uniformity checks;
* reference: values recorded from the seed commit in ``reference.json``
  (``record_reference.py``).  Values fixed by exact arithmetic and the
  ``(seed, r, attempt)`` substreams must be bit-equal; values that
  depend on Monte Carlo null draws must agree within a binomial
  tolerance.  Seeds without a recorded entry skip these checks and say
  so in the run's detail line.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from pathlib import Path

ALPHA = 0.05
SIZE_TESTS = (
    "wilcoxon", "van_der_waerden", "terry_hoeffding", "mood", "klotz",
    "siegel_tukey", "precedence", "maximal_block", "empty_block", "dixon_c2",
)
# columns whose rules come from exact nulls (dixon_c2 too under the cap)
EXACT_TESTS = ("wilcoxon", "precedence", "maximal_block", "empty_block")
GENERATORS = ("normal", "cauchy")
MIN_BATCHES = 3
# replicates of the untimed size study on power-size-50: enough that a
# column stuck at 0 rejections fails (2 * 0.95**300 * 20 < FAMILY_ALPHA)
SIZE_REPS = 300
# The statistical checks test many counts on every run of every seed.
# A 4-SE rule per count fails about one correct run in a hundred here
# (seeds 9 and 50 of 0-63 on power-size-50), so a count fails only when
# its exact two-sided binomial tail, times the number of counts tested
# together, is below FAMILY_ALPHA.
FAMILY_ALPHA = 1e-4

CONFIGS = {
    # the published ALL study at half the published size: scenario 3
    # (scale c = 2), p = 3, the twelve ALL columns
    "power-all-100": {
        "kind": "power", "scenario": 3, "c": 2.0, "p": 3, "m": 100,
        "tests": "ALL", "draws": 20_000, "batch": 50, "coverage_check": True,
    },
    # the size sweep of acceptance test 05 at p = 3
    "power-size-50": {
        "kind": "power", "scenario": 0, "c": 0.0, "p": 3, "m": 50,
        "tests": "SIZE", "draws": 20_000, "batch": 100, "size_check": True,
    },
    # acceptance test 08: m = n = 3, p = 2, spiral, normal and Cauchy
    "uniformity-3": {"kind": "uniformity", "m": 3, "n": 3, "p": 2, "plan": "spiral", "batch": 500},
    # cold CLI calls: floor and exact Wilcoxon at m = n = 200,
    # Terry-Hoeffding (auto resolves to Monte Carlo) at m = n = 50
    "cli-test": {"kind": "cli", "p": 3, "m_big": 200, "m_small": 50, "draws": 200_000},
}
SMOKE = {
    # at m = 12 statistic evaluation is a large share of a replicate
    "power-all-100": {"m": 12, "draws": 2_000, "batch": 20, "coverage_check": False},
    "power-size-50": {"m": 8, "draws": 2_000, "batch": 100},
    "uniformity-3": {"batch": 200},
    "cli-test": {"m_big": 20, "m_small": 16, "draws": 2_000},
}
REFERENCE_PATH = Path(__file__).with_name("reference.json")


def config(workload: str, smoke: bool) -> dict:
    cfg = dict(CONFIGS[workload])
    if smoke:
        cfg.update(SMOKE[workload])
    return cfg


def reference_key(workload: str, smoke: bool) -> str:
    return workload + (":smoke" if smoke else "")


def load_reference(workload: str, smoke: bool, seed: int):
    if not REFERENCE_PATH.is_file():
        return None
    table = json.loads(REFERENCE_PATH.read_text())["workloads"]
    return table.get(reference_key(workload, smoke), {}).get(str(seed))


def check(name: str, ok: bool, detail="") -> dict:
    return {"name": name, "ok": bool(ok), "detail": "" if ok else str(detail)}


def binomial_check(name: str, k: int, n: int, p: float, family: int) -> dict:
    from scipy.stats import binom

    tail = min(1.0, 2.0 * min(binom.cdf(k, n, p), binom.sf(k - 1, n, p)))
    return check(name, tail * family >= FAMILY_ALPHA,
                 f"{k} of {n} at p={p}: two-sided tail {tail:.2e} x {family} counts "
                 f"< {FAMILY_ALPHA}")


def mc_tolerance(ref_rate: float, n: int) -> float:
    """Four standard errors of the difference of two independent
    binomial counts out of ``n`` (variance floored at alpha(1-alpha)),
    plus one count."""
    var = max(ref_rate * (1.0 - ref_rate), ALPHA * (1.0 - ALPHA))
    return 4.0 * math.sqrt(2.0 * n * var) + 1.0


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read without starting git; 'unknown' when
    the checkout is not a git repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(root: Path) -> dict:
    import os
    import platform

    import numpy
    import scipy

    import seblocks

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seblocks": seblocks.__version__,
        "commit": git_commit(root),
    }


# --- independent oracles ------------------------------------------------------


def oracle_counts(plan, y, x) -> list:
    """Block counts by the definition: each cut takes the extreme of the
    remaining reference projections and closes every comparison point
    that satisfies its inequality and escaped the earlier cuts."""
    cuts = [(rule.component - 1, rule.direction.value == "min") for rule in plan.cuts]
    ys = [list(map(float, row)) for row in y]
    alive = list(range(len(ys)))
    thresholds = []
    for col, is_min in cuts:
        pick = (min if is_min else max)(alive, key=lambda i: ys[i][col])
        thresholds.append(ys[pick][col])
        alive.remove(pick)
    counts = [0] * (len(cuts) + 1)
    for row in x:
        for k, (col, is_min) in enumerate(cuts):
            v = float(row[col])
            if (v <= thresholds[k]) if is_min else (v >= thresholds[k]):
                counts[k] += 1
                break
        else:
            counts[-1] += 1
    return counts


def oracle_statistics(counts, m: int, n: int) -> dict:
    """Exact block statistics from their formulas."""
    total = m + n
    zero_pos, pos = [], 0
    for k in range(n):
        pos += counts[k]
        zero_pos.append(pos + k)
    j = max(1, (n + 1) // 2)
    return {
        "wilcoxon": total * (total + 1) // 2 - sum(z + 1 for z in zero_pos),
        "precedence": sum(counts[:j]),
        "maximal_block": max(counts),
        "empty_block": counts.count(0),
        "dixon_c2": Fraction(
            sum((m - (n + 1) * r) ** 2 for r in counts), (m * (n + 1)) ** 2
        ),
    }


def empty_block_p_upper(s: int, m: int, n: int) -> float:
    """P(S0 >= s) from C(n+1, t) C(m-1, n-t) / C(m+n, n)."""

    def choose(a, b):
        return math.comb(a, b) if 0 <= b <= a else 0

    num = sum(choose(n + 1, t) * choose(m - 1, n - t) for t in range(s, n + 2))
    return float(Fraction(num, math.comb(m + n, n)))


# --- power studies ---------------------------------------------------------------


class PowerWorkload:
    """``run_power_study`` batches of ``batch`` replicates with the
    workload seed as base seed, so every batch reuses the rules built
    in set-up and repeats the same replicates."""

    def __init__(self, cfg: dict):
        from seblocks import cli, simulate

        self.cfg = cfg
        self.spec = simulate.ScenarioSpec(
            scenario=cfg["scenario"], c=cfg["c"], p=cfg["p"], m=cfg["m"], n=cfg["m"]
        )
        if cfg["tests"] == "ALL":
            pairs = [(t["test"], t["plan"]) for t in cli._ALL_TESTS]
        else:
            pairs = [(t, plan) for plan in ("spiral", "stairstep") for t in SIZE_TESTS]
        self.tests = [simulate.TestConfig(t, plan) for t, plan in pairs]
        self.replicates = 0
        self.tie_retries = 0

    def _study(self, reps: int, seed: int) -> dict:
        from seblocks import simulate

        est = simulate.run_power_study(
            self.spec, self.tests, ALPHA, reps, seed,
            workers=1, n_null_draws=self.cfg["draws"],
        )
        self.replicates += reps
        self.tie_retries += est[0].tie_retries
        return {
            "rejections": {f"{e.test}[{e.plan}]": e.rejections for e in est},
            "tie_retries": est[0].tie_retries,
        }

    def setup(self, seed: int):
        self.seed = seed
        self._study(1, seed)

    def batch(self, index: int) -> tuple[int, dict]:
        return self.cfg["batch"], self._study(self.cfg["batch"], self.seed)

    def _exact_column(self, label: str) -> bool:
        from seblocks import nulldist

        test = label.split("[")[0]
        m = self.cfg["m"]
        return test in EXACT_TESTS or (
            test == "dixon_c2" and math.comb(2 * m, m) <= nulldist.enumeration_cap()
        )

    def probe(self):
        """Replicate 0's first draw through the public test functions:
        block counts, statistics and exact-null p-values per plan."""
        import numpy as np
        from seblocks import partition, simulate, twosample

        x, y = simulate.generate_scenario(self.spec, np.random.default_rng((self.seed, 0, 0)))
        m, n = x.shape[0], y.shape[0]
        out, checks = {}, []
        for plan_name in sorted({t.plan for t in self.tests}):
            plan = partition.make_plan(plan_name, self.spec.p, n)
            freqs = partition.block_frequencies(partition.fit_partition(plan, y), x)
            counts = list(freqs.counts)
            expect = oracle_counts(plan, y, x)
            checks.append(check(f"probe.counts[{plan_name}]", counts == expect,
                                f"{counts} != oracle {expect}"))
            formulas = oracle_statistics(expect, m, n)
            results = {
                "wilcoxon": twosample.linear_rank_test(
                    freqs, twosample.make_scores("wilcoxon", m, n), "two-sided", "exact"
                ),
                "precedence": twosample.precedence_test(freqs),
                "maximal_block": twosample.maximal_block_test(freqs),
                "empty_block": twosample.empty_block_test(freqs),
            }
            entry = {}
            for name, res in results.items():
                checks.append(check(
                    f"probe.statistic[{name}][{plan_name}]", res.statistic == formulas[name],
                    f"{res.statistic!r} != formula {formulas[name]!r}",
                ))
                entry[name] = [res.statistic, repr(res.p_lower), repr(res.p_upper)]
            if any(t.test == "dixon_c2" for t in self.tests):
                from seblocks import nulldist

                stat = nulldist.dixon_statistic(freqs.counts, m, n)
                checks.append(check(f"probe.statistic[dixon_c2][{plan_name}]",
                                    stat == formulas["dixon_c2"], f"{stat} != {formulas['dixon_c2']}"))
                entry["dixon_c2"] = str(stat)
            out[plan_name] = entry
        return out, checks

    def outputs(self, batch_outputs: list) -> tuple[dict, list]:
        probe, checks = self.probe()
        first = batch_outputs[0]
        checks.append(check("batches.deterministic", all(b == first for b in batch_outputs),
                            "batches of the same replicates disagree"))
        return {"batch": first, "probe": probe}, checks

    def once_checks(self) -> list:
        """Checks one child of a run makes after its timed part: on the
        size sweep, every column's rejections in an untimed study of
        SIZE_REPS replicates against Binomial(SIZE_REPS, alpha)."""
        if not self.cfg.get("size_check"):
            return []
        rejections = self._study(SIZE_REPS, self.seed)["rejections"]
        return [
            binomial_check(f"size[{label}]", rej, SIZE_REPS, ALPHA, len(rejections))
            for label, rej in rejections.items()
        ]

    def compare(self, out: dict, ref: dict) -> list:
        reps = self.cfg["batch"]
        checks = []
        for label, rej in out["batch"]["rejections"].items():
            want = ref["batch"]["rejections"][label]
            if self._exact_column(label):
                checks.append(check(f"ref.rejections[{label}]", rej == want, f"{rej} != {want}"))
            else:
                tol = mc_tolerance(want / reps, reps)
                checks.append(check(f"ref.rejections[{label}]", abs(rej - want) <= tol,
                                    f"|{rej} - {want}| > {tol:.1f}"))
        checks.append(check("ref.tie_retries", out["batch"]["tie_retries"] == ref["batch"]["tie_retries"],
                            f"{out['batch']['tie_retries']} != {ref['batch']['tie_retries']}"))
        checks.append(check("ref.probe", normal_json(out["probe"]) == ref["probe"],
                            "statistics or exact p-values differ"))
        return checks

    def layer_counters(self) -> dict:
        return {"replicates": self.replicates, "tie_retries": self.tie_retries}


# --- uniformity -------------------------------------------------------------------


class UniformityWorkload:
    """``frequency_uniformity_check`` batches, one call per generator;
    batch b draws from seed (workload seed, b, generator index), so the
    batches add up to one larger study."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.replicates = 0

    def _run(self, reps: int, seed):
        from seblocks import simulate

        c = self.cfg
        out = {}
        for gi, gen in enumerate(GENERATORS):
            report = simulate.frequency_uniformity_check(
                c["m"], c["n"], c["p"], c["plan"], reps, seed=(*seed, gi), generator=gen
            )
            out[gen] = report
        self.replicates += reps * len(GENERATORS)
        return out

    def setup(self, seed: int):
        self.seed = seed
        for report in self._run(1, (seed, 0)).values():
            report.max_se_deviation  # enumerates the C(m+n, n) vectors once

    def batch(self, index: int) -> tuple[int, dict]:
        reports = self._run(self.cfg["batch"], (self.seed, index + 1))
        return self.cfg["batch"] * len(GENERATORS), {g: r.counts for g, r in reports.items()}

    def outputs(self, batch_outputs: list) -> tuple[dict, list]:
        import numpy as np
        from seblocks import nulldist, partition

        c = self.cfg
        checks = []
        vectors = nulldist.enumerate_frequency_vectors(c["m"], c["n"]).vectors
        reps = c["batch"] * MIN_BATCHES
        for gen in GENERATORS:
            tally: dict = {}
            for b in batch_outputs[:MIN_BATCHES]:
                for vec, k in b[gen].items():
                    tally[vec] = tally.get(vec, 0) + k
            checks.append(check(f"uniform.all_seen[{gen}]", len(tally) == len(vectors),
                                f"{len(tally)} of {len(vectors)} vectors seen"))
            checks += [
                binomial_check(f"uniform[{gen}][{vec}]", tally.get(vec, 0), reps,
                               1 / len(vectors), len(vectors) * len(GENERATORS))
                for vec in vectors
            ]
        rng = np.random.default_rng((self.seed, 0, len(GENERATORS)))
        x = rng.standard_normal((c["m"], c["p"]))
        y = rng.standard_normal((c["n"], c["p"]))
        plan = partition.make_plan(c["plan"], c["p"], c["n"])
        counts = list(partition.block_frequencies(partition.fit_partition(plan, y), x).counts)
        expect = oracle_counts(plan, y, x)
        checks.append(check("probe.counts", counts == expect, f"{counts} != oracle {expect}"))
        first = {g: _tally_json(batch_outputs[0][g]) for g in GENERATORS}
        return {"tallies": first}, checks

    def once_checks(self) -> list:
        return []

    def compare(self, out: dict, ref: dict) -> list:
        return [check("ref.tallies", out["tallies"] == ref["tallies"],
                      "first-batch tallies differ")]

    def layer_counters(self) -> dict:
        return {"replicates": self.replicates}


def _tally_json(counts: dict) -> dict:
    return {",".join(map(str, vec)): int(k) for vec, k in sorted(counts.items())}


def normal_json(value):
    """JSON-normal form, so outputs compare equal to a stored reference."""
    return json.loads(json.dumps(value))


def make(workload: str, smoke: bool):
    cfg = config(workload, smoke)
    kind = cfg["kind"]
    if kind == "power":
        return PowerWorkload(cfg)
    if kind == "uniformity":
        return UniformityWorkload(cfg)
    raise ValueError(f"{workload} is not an in-process workload")


# --- CLI ----------------------------------------------------------------------------

CLI_CALLS = ("floor", "wilcoxon", "terry_hoeffding")
CLI_EXACT_CALLS = ("floor", "wilcoxon")


def cli_inputs(cfg: dict, seed: int, workdir: Path) -> dict:
    """Seeded CSVs through ``generate_scenario`` and
    ``write_sample_csv``; returns call name -> argv for ``seblocks``."""
    import numpy as np
    from seblocks import cli, simulate
    from seblocks.partition import Sample

    paths = {}
    for k, (tag, size) in enumerate((("big", cfg["m_big"]), ("small", cfg["m_small"]))):
        spec = simulate.ScenarioSpec(scenario=0, p=cfg["p"], m=size, n=size)
        x, y = simulate.generate_scenario(spec, np.random.default_rng((seed, k)))
        for name, arr in (("x", x), ("y", y)):
            path = workdir / f"{tag}_{name}.csv"
            cli.write_sample_csv(str(path), Sample(arr))
            paths[(tag, name)] = str(path)

    def argv(tag, *extra):
        return ["test", "--x", paths[(tag, "x")], "--y", paths[(tag, "y")], "--plan", "spiral",
                *extra, "--decide", "--seed", str(seed)]

    return {
        "floor": argv("big", "--test", "empty_block"),
        "wilcoxon": argv("big", "--test", "wilcoxon", "--method", "exact"),
        "terry_hoeffding": argv("small", "--test", "terry_hoeffding", "--draws", str(cfg["draws"])),
    }


def cli_call_checks(name: str, code: int, stdout: str, argv: list) -> tuple[bool, dict | None, list]:
    """(operation ok, payload, reference-free checks) for one call."""
    if code not in (0, 2):
        return False, None, []
    try:
        payload = json.loads(stdout)
    except json.JSONDecodeError:
        return False, None, []
    checks = [check(f"{name}.exit_code", (code == 2) == bool(payload.get("reject")),
                    f"exit {code} but reject={payload.get('reject')}")]
    if name in CLI_EXACT_CALLS:
        import numpy as np
        from seblocks import partition

        x = np.loadtxt(argv[argv.index("--x") + 1], delimiter=",", ndmin=2)
        y = np.loadtxt(argv[argv.index("--y") + 1], delimiter=",", ndmin=2)
        m, n = x.shape[0], y.shape[0]
        counts = oracle_counts(partition.make_plan("spiral", x.shape[1], n), y, x)
        stats = oracle_statistics(counts, m, n)
        if name == "floor":
            checks.append(check("floor.statistic", payload["statistic"] == stats["empty_block"],
                                f"{payload['statistic']} != oracle {stats['empty_block']}"))
            want = empty_block_p_upper(stats["empty_block"], m, n)
            checks.append(check("floor.p_upper", payload["p_upper"] == want,
                                f"{payload['p_upper']!r} != closed form {want!r}"))
        else:
            checks.append(check("wilcoxon.statistic", payload["statistic"] == stats["wilcoxon"],
                                f"{payload['statistic']} != oracle {stats['wilcoxon']}"))
    return True, payload, checks


# payload fields fixed by exact arithmetic and the seeded decision
CLI_EXACT_KEYS = ("statistic", "p_lower", "p_upper", "p_two_sided", "null_atoms", "reject", "gamma")


def cli_reference_outputs(payloads: dict) -> dict:
    out = {name: {k: payloads[name][k] for k in CLI_EXACT_KEYS} for name in CLI_EXACT_CALLS}
    th = payloads["terry_hoeffding"]
    out["terry_hoeffding"] = {k: th[k] for k in ("statistic", "p_lower", "p_upper", "null_draws")}
    return out


def cli_compare(payloads: dict, ref: dict) -> list:
    checks = [
        check(f"ref.{name}", {k: payloads[name].get(k) for k in CLI_EXACT_KEYS} == ref[name],
              "payload differs")
        for name in CLI_EXACT_CALLS
    ]
    th, want = payloads["terry_hoeffding"], ref["terry_hoeffding"]
    checks.append(check("ref.terry_hoeffding.statistic",
                        math.isclose(th["statistic"], want["statistic"], rel_tol=1e-9, abs_tol=1e-9),
                        f"{th['statistic']!r} != {want['statistic']!r}"))
    draws = want["null_draws"]
    for key in ("p_lower", "p_upper"):
        p = want[key]
        tol = 4.0 * math.sqrt(p * (1 - p) / draws) + 2.0 / draws
        checks.append(check(f"ref.terry_hoeffding.{key}", abs(th[key] - p) <= tol,
                            f"|{th[key]} - {p}| > {tol:.2e}"))
    return checks
