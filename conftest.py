"""Marks the benchmark smoke tests ``perf``, so that
``pytest -m "not slow and not perf"`` runs the quick part of the suite."""

from pathlib import Path

import pytest

PERF_TESTS = Path(__file__).resolve().parent / "perfbench" / "test_perfbench_smoke.py"


def pytest_collection_modifyitems(items):
    for item in items:
        if Path(str(item.fspath)) == PERF_TESTS:
            item.add_marker(pytest.mark.perf)
