"""Command-line interface: run tests on CSV samples, print exact null
distributions, and drive the power-study harness.

Exit codes: 0 on success, 1 on any error, 2 when --decide is passed and
the test rejects at the requested level.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from fractions import Fraction
from importlib import resources
from pathlib import Path

import numpy as np

from . import nulldist, simulate, twosample
from .nulldist import CapacityError, EmpiricalNull, NormalNull, Pmf
from .partition import (
    PLAN_NAMES,
    Sample,
    TieError,
    block_frequencies,
    fit_partition,
    make_plan,
)
from .simulate import ScenarioSpec, TestConfig
from .twosample import make_scores  # noqa: F401  (a module attribute perfbench/tracer.py wraps)

_DIST_STATISTICS = tuple(twosample.STATISTICS)


class CliError(Exception):
    """User-facing error: printed as a one-line diagnostic, exit 1."""


def read_sample_csv(path: str) -> Sample:
    """Read one observation per row, one coordinate per column.

    Blank rows are skipped.  The first other row is taken as a header and
    skipped when any of its cells is not numeric.  A UTF-8 byte-order
    mark is dropped, and an error names the row by its line in the file.
    """
    rows, first_row = [], True
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            reader = csv.reader(handle)
            for row in reader:
                if not any(cell.strip() for cell in row):
                    continue
                try:
                    rows.append([float(cell) for cell in row])
                except ValueError:
                    if not first_row:
                        raise CliError(
                            f"{path}: row {reader.line_num} has a non-numeric cell: {row!r}"
                        ) from None
                first_row = False
    except OSError as exc:
        raise CliError(f"{path}: {exc.strerror or exc}") from exc
    if not rows:
        raise CliError(f"{path}: no data rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise CliError(f"{path}: rows have inconsistent column counts {sorted(widths)}")
    try:
        return Sample(np.array(rows))
    except ValueError as exc:
        raise CliError(f"{path}: {exc}") from exc


def write_sample_csv(path: str, sample: Sample):
    """Write a sample so that re-reading reproduces it bit-exactly."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        for row in sample.points:
            writer.writerow([repr(float(v)) for v in row])


def _null_summary(null) -> dict:
    # a Monte Carlo law is a Pmf too, so it is tested first
    if isinstance(null, EmpiricalNull):
        return {"null": "monte_carlo", "null_draws": null.n_draws}
    if isinstance(null, Pmf):
        return {"null": "exact", "null_atoms": len(null.support)}
    return {"null": "normal", "null_mean": null.mean, "null_variance": null.variance}


def _emit_result(payload: dict, fmt: str, out=None):
    out = out if out is not None else sys.stdout
    if fmt == "json":
        json.dump(payload, out, indent=2)
        out.write("\n")
    elif fmt == "table":
        width = max(len(k) for k in payload)
        for key, value in payload.items():
            out.write(f"{key:<{width}}  {value}\n")
    elif fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(payload.keys())
        writer.writerow(payload.values())
    else:  # pragma: no cover
        raise CliError(f"unknown output format {fmt!r}")


def cmd_test(args) -> int:
    x = read_sample_csv(args.x)
    y = read_sample_csv(args.y)
    if x.p != y.p:
        raise CliError(f"column-count mismatch: {args.x} has {x.p}, {args.y} has {y.p}")
    if args.partition_sample == "x":
        tested, partitioner = y, x
    else:
        tested, partitioner = x, y
    m, n = tested.size, partitioner.size
    if m < n:
        print(
            f"warning: tested sample ({m}) is smaller than the partitioning sample "
            f"({n}); labeling the smaller sample as the partitioner keeps the "
            "rejection region nondegenerate",
            file=sys.stderr,
        )

    column = TestConfig(args.test, args.plan, args.j, args.alternative)
    plan = make_plan(column.fitted_plan, x.p, n)
    try:
        fitted = fit_partition(plan, partitioner, on_ties=args.on_ties, seed=args.seed)
        freqs = block_frequencies(fitted, tested)
        if freqs.boundary_ties and column.test == "runs":
            raise TieError("cross-sample tied values; the runs count is undefined")
    except TieError as exc:
        raise CliError(f"tie-error: {exc}") from exc
    if freqs.boundary_ties == m:
        raise CliError(
            "tie-error: every tested point (row 1 onward) ties a partition "
            "threshold; the samples share their values"
        )
    if freqs.boundary_ties:
        print(
            f"warning: {freqs.boundary_ties} tested point(s) tie a partition "
            "threshold; counted by the half-open convention",
            file=sys.stderr,
        )
    meta = {"m": m, "n": n, "p": x.p, "seed": args.seed}
    if column.test != "runs":
        meta["plan"] = column.fitted_plan
    result = twosample.block_test(
        column.test, freqs, column.alternative, args.method,
        j=column.j, scores=args.scores or None, n_draws=args.draws, seed=args.seed,
    )

    payload = result.to_json_dict()
    payload.update(meta)
    payload.update(_null_summary(result.null_reference))
    exit_code = 0
    if args.decide:
        decision = twosample.randomized_decision(result, args.alpha, seed=(args.seed, 1))
        payload["alpha"] = args.alpha
        payload["reject"] = decision.reject
        payload["gamma"] = decision.gamma
        exit_code = 2 if decision.reject else 0
    _emit_result(payload, args.output)
    return exit_code


def _check_oracle(args, entry, params, null) -> int:
    """Cross-check an exact null against the brute-force law of the
    table statistic over all equally likely frequency vectors."""
    if isinstance(null, (EmpiricalNull, NormalNull)):
        raise CliError("--oracle needs an exact pmf; use --method exact")
    m, n = args.m, args.n
    law = nulldist._arrangement_law(
        lambda b: entry.statistic(nulldist._counts_from_bars(b, m + n), m, n, params),
        m, n, "exact", None, None, args.statistic, lambda v: entry.value(v, m, n, params),
    )
    # the same statistic labels both sides, so even float atoms match exactly
    if (law.support, law.counts) != (null.support, null.counts):
        raise CliError("oracle cross-check FAILED: closed form disagrees with enumeration")
    print(f"oracle cross-check passed over {law.total} frequency vectors", file=sys.stderr)
    return 0


def cmd_dist(args) -> int:
    if args.m < 1 or args.n < 1:
        raise CliError("m and n must be >= 1")
    entry = twosample.STATISTICS.get(args.statistic)
    if entry is None:
        raise CliError(f"unknown statistic {args.statistic!r}; known: {_DIST_STATISTICS}")
    params = entry.params(args.m, args.n, args.j, args.scores or None)
    method = twosample.null_method(entry, args.m, args.n, params, args.method)
    null = entry.null(args.m, args.n, params, method=method, n_draws=args.draws, seed=args.seed)
    if args.oracle:
        _check_oracle(args, entry, params, null)

    if args.output == "table" and not isinstance(null, NormalNull):
        raise CliError("--output table is for the normal approximation; use csv or json for a pmf")
    out = open(args.out, "w", newline="") if args.out else sys.stdout
    try:
        if isinstance(null, NormalNull):
            _emit_result(
                {"mean": null.mean, "variance": null.variance, "m": args.m, "n": args.n},
                args.output,
                out,
            )
            return 0
        # a Fraction value shows as its float; a pair (joint law) fills two columns
        rows = [
            ([float(v) if isinstance(v, Fraction) else v for v in value], num, den, prob)
            for *value, num, den, prob in null.csv_rows()
        ]
        if args.output == "json":
            keys = ("value", "numerator", "denominator", "probability")
            atoms = [dict(zip(keys, (v if len(v) > 1 else v[0], *rest))) for v, *rest in rows]
            json.dump(atoms, out, indent=2)
            out.write("\n")
            return 0
        header = ["s0_in", "s0_ex"] if isinstance(null, nulldist.JointPmf) else ["value"]
        writer = csv.writer(out)
        writer.writerow([*header, "numerator", "denominator", "probability"])
        for value, num, den, prob in rows:
            shown = [repr(v) if isinstance(v, float) else v for v in value]
            writer.writerow([*shown, num, den, repr(prob)])
    finally:
        if args.out:
            out.close()
    return 0


def _shipped_config(name: str) -> str | None:
    base = resources.files("seblocks").joinpath("configs", f"{name}.json")
    if base.is_file():
        return base.read_text()
    return None


# the keys a power config may set: at the top level, in a run entry, and
# in a test entry of a run's list
_CONFIG_KEYS = ("m", "n", "p", "alpha", "replicates", "seed", "null_draws", "workers", "runs")
_RUN_KEYS = ("scenario", "c", "tests")
_TEST_KEYS = ("test", "plan", "j", "alternative")
# the JSON types each key's value may take, and their description; a
# bool is not a number
_KEY_TYPES = {
    **dict.fromkeys(
        ("m", "n", "p", "replicates", "seed", "null_draws", "workers", "scenario"),
        ((int,), "an integer"),
    ),
    **dict.fromkeys(("alpha", "c"), ((int, float), "a number")),
    **dict.fromkeys(("test", "plan"), ((str,), "a string")),
    "j": ((int, type(None)), "an integer or null"),
    "alternative": ((str, type(None)), "a string or null"),
}


def _check_keys(entry: dict, known: tuple, where: str):
    """Refuse a key outside ``known`` and a value of the wrong JSON type."""
    for key, value in entry.items():
        if key not in known:
            raise CliError(f"{where}: unknown key {key!r}; known: {' '.join(known)}")
        if key in _KEY_TYPES and type(value) not in _KEY_TYPES[key][0]:
            raise CliError(f"{where}: {key!r} must be {_KEY_TYPES[key][1]}, got {value!r}")


def _load_power_config(path: str) -> dict:
    if Path(path).is_file():
        text = Path(path).read_text()
        origin = path
    else:
        text = _shipped_config(path)
        origin = f"shipped config {path!r}"
        if text is None:
            raise CliError(f"{path}: not a file and not a shipped config name")
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliError(f"{origin}: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise CliError(f"{origin}: the top level must be a JSON object")
    for key in ("replicates", "seed", "runs"):
        if key not in cfg:
            raise CliError(f"{origin}: missing required key {key!r}")
    runs = cfg["runs"]
    if not isinstance(runs, list) or not runs or not all(isinstance(b, dict) for b in runs):
        raise CliError(f"{origin}: 'runs' must be a non-empty list of objects")
    _check_keys(cfg, _CONFIG_KEYS, f"{origin}: top level")
    for i, block in enumerate(runs):
        where = f"{origin}: runs[{i}]"
        _check_keys(block, _RUN_KEYS, where)
        if "tests" not in block:
            raise CliError(f"{where}: missing required key 'tests'")
        tests = block["tests"]
        if tests != "ALL" and not (
            isinstance(tests, list) and tests and all(isinstance(t, dict) for t in tests)
        ):
            raise CliError(f"{where}: 'tests' must be \"ALL\" or a non-empty list of objects")
        for k, t in enumerate(tests if tests != "ALL" else ()):
            _check_keys(t, _TEST_KEYS, f"{where}.tests[{k}]")
            if "test" not in t:
                raise CliError(f"{where}.tests[{k}]: missing required key 'test'")
    for key, least in (("replicates", 1), ("seed", 0), ("null_draws", 1), ("workers", 1)):
        if cfg.get(key, least) < least:
            raise CliError(f"{origin}: {key} must be >= {least}")
    return cfg


# the twelve published columns: six block tests under both constructions
_ALL_TESTS = [
    {"test": test, "plan": plan}
    for plan in ("spiral", "stairstep")
    for test in (
        "wilcoxon",
        "van_der_waerden",
        "terry_hoeffding",
        "precedence",
        "maximal_block",
        "empty_block",
    )
]


# the columns of a result row, in order: PowerEstimate attributes
_ROW_KEYS = (
    "scenario", "c", "test", "plan", "alpha", "replicates", "rejections",
    "rejection_rate", "std_error", "seed", "tie_retries",
)


def _power_rows(cfg: dict, workers: int) -> list[dict]:
    # sizes and null draws the config leaves out take the library's defaults
    sizes = {key: cfg[key] for key in ("m", "n", "p") if key in cfg}
    draws = {"n_null_draws": cfg["null_draws"]} if "null_draws" in cfg else {}
    rows = []
    for block in cfg["runs"]:
        try:
            spec = ScenarioSpec(block.get("scenario", 0), float(block.get("c", 0.0)), **sizes)
            entries = block["tests"]
            if entries == "ALL":
                entries = _ALL_TESTS
            tests = [TestConfig(**entry) for entry in entries]
        except (ValueError, TypeError) as exc:
            raise CliError(f"bad run entry {block!r}: {exc}") from exc
        estimates = simulate.run_power_study(
            spec,
            tests,
            float(cfg.get("alpha", 0.05)),
            cfg["replicates"],
            cfg["seed"],
            workers=workers,
            **draws,
        )
        rows.extend({key: getattr(est, key) for key in _ROW_KEYS} for est in estimates)
    return rows


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    for row in rows:
        writer.writerow(
            {
                k: (repr(v) if isinstance(v, float) else v)
                for k, v in row.items()
            }
        )
    return buf.getvalue()


def cmd_power(args) -> int:
    cfg = _load_power_config(args.config)
    if args.out and not Path(args.out).parent.is_dir():
        raise CliError(f"{args.out}: the output directory does not exist")
    rows = _power_rows(cfg, cfg.get("workers", 1) if args.workers is None else args.workers)
    csv_text = _rows_to_csv(rows)
    json_text = json.dumps({"config": cfg, "results": rows}, indent=2) + "\n"
    if args.out:
        Path(args.out + ".csv").write_text(csv_text)
        Path(args.out + ".json").write_text(json_text)
        print(f"wrote {args.out}.csv and {args.out}.json", file=sys.stderr)
    else:
        sys.stdout.write(json_text if args.output == "json" else csv_text)
    return 0


def _at_least(least: int):
    """An argparse type: an integer no smaller than ``least``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be >= {least}, got {value}")
        return value

    return parse


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``CliError``: one line, exit 1."""

    def error(self, message):
        raise CliError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="seblocks",
        description="Distribution-free two-sample tests via statistically equivalent blocks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    t = sub.add_parser("test", help="run a two-sample test on two CSV samples")
    t.add_argument("--x", required=True, help="comparison sample CSV (one row per observation)")
    t.add_argument("--y", required=True, help="reference sample CSV (partitions by default)")
    t.add_argument("--test", default="wilcoxon", help=f"one of {twosample.KNOWN_TESTS}")
    t.add_argument("--plan", default="spiral", help=f"one of {PLAN_NAMES} or an alias")
    t.add_argument("--scores", default=None, help="score family override for rank tests")
    t.add_argument("--j", type=int, default=None, help="block count for precedence/maximal tests")
    t.add_argument("--alternative", default=None, choices=["lower", "upper", "two-sided"])
    t.add_argument("--alpha", type=float, default=0.05)
    t.add_argument(
        "--method", default="auto", choices=["auto", "exact", "monte_carlo", "normal"]
    )
    t.add_argument(
        "--draws", type=_at_least(1), default=nulldist.DEFAULT_DRAWS, help="Monte Carlo null draws"
    )
    t.add_argument("--seed", type=_at_least(0), default=0)
    t.add_argument("--decide", action="store_true", help="exit 2 on rejection at --alpha")
    t.add_argument("--output", default="json", choices=["json", "table", "csv"])
    t.add_argument("--partition-sample", default="y", choices=["y", "x"])
    t.add_argument("--on-ties", default="error", choices=["error", "perturb"])
    t.set_defaults(func=cmd_test)

    d = sub.add_parser("dist", help="print a null distribution as CSV or JSON")
    d.add_argument("--statistic", required=True, help=f"one of {_DIST_STATISTICS}")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--j", type=int, default=None)
    d.add_argument("--scores", default=None)
    d.add_argument("--method", default="auto", choices=["auto", "exact", "monte_carlo", "normal"])
    d.add_argument("--draws", type=_at_least(1), default=nulldist.DEFAULT_DRAWS)
    d.add_argument("--seed", type=_at_least(0), default=0)
    d.add_argument("--oracle", action="store_true", help="cross-check against enumeration")
    d.add_argument("--output", default="csv", choices=["csv", "json", "table"])
    d.add_argument("--out", default=None, help="write to a file instead of stdout")
    d.set_defaults(func=cmd_dist)

    p = sub.add_parser("power", help="run a configured power study")
    p.add_argument("--config", required=True, help="config file path or shipped config name")
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None, help="output file prefix (.csv and .json)")
    p.add_argument("--output", default="csv", choices=["csv", "json"])
    p.set_defaults(func=cmd_power)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (CliError, TieError, CapacityError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
