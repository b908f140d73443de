"""The pair runner's summary: medians, quartiles and pair wins per metric."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pair.py"
_SPEC = importlib.util.spec_from_file_location("bench_pair", _PATH)
bench_pair = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pair)

METRICS = [{"name": "ms", "unit": "ms", "better": "lower"},
           {"name": "rate", "unit": "1/s", "better": "higher"}]


def _pair(base_ms, head_ms, base_rate, head_rate):
    return {"base": {"metrics": {"ms": base_ms, "rate": base_rate}},
            "head": {"metrics": {"ms": head_ms, "rate": head_rate}}}


def test_summary_counts_wins_in_each_metric_direction():
    pairs = [_pair(4.0, 3.0, 10.0, 9.0),
             _pair(5.0, 3.5, 10.0, 12.0),
             _pair(3.0, 3.2, 10.0, 11.0)]
    summary = bench_pair.summarise(pairs, METRICS)
    assert summary["ms"]["head_wins"] == 2  # lower is better: pairs 1 and 2
    assert summary["rate"]["head_wins"] == 2  # higher is better: pairs 2 and 3
    assert summary["ms"]["pairs"] == 3
    assert summary["ms"]["base"]["median"] == 4.0
    assert summary["ms"]["base"]["q1"] == 3.5 and summary["ms"]["base"]["q3"] == 4.5
    assert summary["ms"]["base"]["iqr"] == 1.0
    assert summary["ms"]["change"] == pytest.approx(3.2 / 4.0 - 1.0)


def test_ties_are_not_wins():
    pairs = [_pair(1.0, 1.0, 2.0, 2.0)] * 2
    summary = bench_pair.summarise(pairs, METRICS)
    assert summary["ms"]["head_wins"] == 0 and summary["rate"]["head_wins"] == 0


def test_plan_needs_at_least_two_pairs():
    assert bench_pair._parse_plan(["decode-toy:10", "train-toy:3"]) == [
        ("decode-toy", 10), ("train-toy", 3)]
    for bad in ("decode-toy", "decode-toy:1", "decode-toy:x"):
        with pytest.raises(SystemExit):
            bench_pair._parse_plan([bad])
