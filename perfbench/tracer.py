"""Outside-in span recorder for seblocks.

The package is not instrumented.  ``install`` replaces public functions
at the names their callers look up (``seblocks.simulate.fit_partition``,
``seblocks.nulldist.linear_rank_null``, ``EmpiricalNull.to_pmf``, ...)
with wrappers that record one span per call: name, start, end, parent.
Spans stay in memory until ``self_times`` folds them into per-layer
totals and ``dump`` writes them out.  The bench's own phases are spans
too: ``bench.setup``, ``bench.loop`` and ``bench.call``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or -1)
        self._stack = [-1]
        self.counters: dict = defaultdict(int)
        self.phase = "setup"

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float):
        end = time.perf_counter()
        self._stack.pop()
        self.spans[idx] = (name, start, end, self._stack[-1])

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` so each call is a span.  ``name`` is a string or
        a function of (args, kwargs); ``count(tracer, name, result,
        args, kwargs)`` adds counters read from the call's public
        inputs and outputs."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if isinstance(name, str) else name(self, args, kwargs)
            idx = self._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, label, start)
            if count is not None:
                count(self, label, result, args, kwargs)
            return result

        return traced

    def self_times(self) -> dict:
        """name -> [calls, total self seconds]; self time is a span's
        duration minus the part its direct children cover."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = defaultdict(lambda: [0, 0.0])
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name][0] += 1
            out[name][1] += end - start - child[i]
        return dict(out)

    def covered_fraction(self, root: str, shell: str) -> float:
        """Share of the ``root`` spans' time spent in spans below the
        ``shell`` spans (the study call that only wraps the layers):
        1 - (self time of root + self time of shell) / total of root."""
        total = sum(end - start for name, start, end, _ in self.spans if name == root)
        if total == 0:
            return 0.0
        own = self.self_times()
        uncovered = sum(own.get(name, [0, 0.0])[1] for name in (root, shell))
        return 1.0 - uncovered / total

    def dump(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": names,
                    "spans": [[index[n], a, b, p] for n, a, b, p in self.spans],
                },
                handle,
            )


def _pmf_atoms(result) -> int:
    support = getattr(result, "support", None)
    return len(support) if support is not None else 0


def _count_atoms(tracer, label, result, args, kwargs):
    tracer.counters[label + ".atoms"] += _pmf_atoms(result)


def _count_null(tracer, label, result, args, kwargs):
    if label == "nulldist.mc":
        tracer.counters["nulldist.mc.draws"] += int(kwargs.get("n_draws", 200_000))
    else:
        tracer.counters[label + ".atoms"] += _pmf_atoms(result)


def _count_rule(tracer, label, result, args, kwargs):
    pmf = args[0] if args else kwargs["pmf"]
    tracer.counters["twosample.rule.atoms"] += _pmf_atoms(pmf)


def _null_method(position: int):
    """Span name of a null builder whose ``method`` argument sits at
    ``position`` (default 'exact')."""

    def name(tracer, args, kwargs):
        method = args[position] if len(args) > position else kwargs.get("method", "exact")
        method = str(method).lower()
        return {"exact": "nulldist.exact", "monte_carlo": "nulldist.mc"}.get(
            method, "nulldist." + method
        )

    return name


def _study_name(tracer, args, kwargs):
    return "simulate.loop" if tracer.phase == "loop" else "simulate.setup"


def install(tracer: Tracer):
    """Wrap the public entry points of every layer; returns a function
    that restores the originals."""
    from seblocks import cli, nulldist, partition, simulate, twosample

    saved = []

    def patch(owner, attr, name, count=None):
        original = getattr(owner, attr)
        saved.append((owner, attr, original))
        setattr(owner, attr, tracer.wrap(original, name, count))

    for mod in (partition, simulate, cli):
        patch(mod, "fit_partition", "partition.fit")
        patch(mod, "block_frequencies", "partition.assign")
    patch(simulate, "generate_scenario", "simulate.generate")
    patch(simulate, "run_power_study", _study_name)
    patch(simulate, "frequency_uniformity_check", _study_name)

    patch(nulldist, "linear_rank_null", _null_method(3), _count_null)
    patch(nulldist, "dixon_c2_null", _null_method(2), _count_null)
    for fn in (
        "precedence_pmf",
        "empty_block_pmf",
        "maximal_block_pmf",
        "runs_pmf",
        "interior_exterior_empty_pmf",
        "enumerate_frequency_vectors",
    ):
        patch(nulldist, fn, "nulldist.exact", _count_atoms)
    patch(nulldist.EmpiricalNull, "to_pmf", "nulldist.to_pmf", _count_atoms)
    for cls in (nulldist.Pmf, nulldist.EmpiricalNull, nulldist.NormalNull):
        patch(cls, "p_lower", "nulldist.pvalue")
        patch(cls, "p_upper", "nulldist.pvalue")

    for mod in (twosample, simulate, cli):
        patch(mod, "make_scores", "twosample.scores")
    for mod in (twosample, simulate):
        patch(mod, "build_rejection_rule", "twosample.rule", _count_rule)
    patch(twosample.RejectionRule, "decide", "twosample.decide")
    patch(twosample, "randomized_decision", "twosample.randomized_decision")

    patch(cli, "read_sample_csv", "cli.read_csv")

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)

    return restore
