import importlib.util
import re
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "cold_cli.py"
spec = importlib.util.spec_from_file_location("cold_cli", TOOL)
cold_cli = importlib.util.module_from_spec(spec)
spec.loader.exec_module(cold_cli)


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(cold_cli, "SIZE", 6)
    monkeypatch.setattr(cold_cli, "P", 2)
    monkeypatch.setattr(cold_cli, "CALLS", 2)


def test_each_test_gets_one_median_line(tiny, capsys):
    assert cold_cli.main([]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["wilcoxon", "terry_hoeffding"]
    pattern = r"\S+ m=n=6 p=2: median (\d+\.\d{3}) s over 2 calls \[(\d+\.\d{3}), (\d+\.\d{3})\]"
    for line in lines:
        median, fastest, slowest = map(float, re.fullmatch(pattern, line).groups())
        assert 0 < fastest <= median <= slowest


def test_a_failing_call_stops_the_script(tiny, monkeypatch):
    monkeypatch.setattr(cold_cli, "TESTS", ("no_such_test",))
    with pytest.raises(SystemExit, match="unknown test 'no_such_test'"):
        cold_cli.main([])
