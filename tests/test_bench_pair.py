"""The pair runner: its summary (medians, quartiles and pair wins per metric),
and how it handles its scratch directory and a failed run."""

import importlib.util
import json
import subprocess
import types
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


def _fake_perfbench(fail_side=None):
    """A stand-in for ``subprocess.run`` of perfbench: every run prints a
    passing result with each end-to-end metric at 1.0, except runs on
    ``fail_side``, which report an exception the way perfbench does."""
    names = [m["name"] for m in json.loads((bench_pair.ROOT / "BENCHMARK.json").read_text())
             ["end_to_end"]]

    def run(cmd, cwd, **kwargs):
        if Path(cwd).name == fail_side:
            record = {"error": "Traceback ...\nValueError: planted failure\n"}
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            stderr, code = record["error"], 1
        else:
            record = {"checks": [{"name": "finite", "ok": True}], "env": {"nproc": 2}}
            result = {"correct": True, "attempted": 1, "failed": 0,
                      "metrics": {name: {"value": 1.0} for name in names}}
            stderr, code = "", 0
        stdout = json.dumps(record) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, code, stdout, stderr)

    return run


def _stub(monkeypatch, fail_side=None):
    """Exports that copy nothing, and the perfbench stand-in."""
    monkeypatch.setattr(bench_pair, "_export_rev", lambda rev, dest: {"rev": rev, "commit": "0"})
    monkeypatch.setattr(bench_pair, "_export_worktree", lambda dest: {"rev": "wt", "commit": "0"})
    monkeypatch.setattr(bench_pair, "subprocess",
                        types.SimpleNamespace(run=_fake_perfbench(fail_side)))


def test_scratch_directory_is_created_with_its_parents(monkeypatch, tmp_path):
    _stub(monkeypatch)
    scratch = tmp_path / "not" / "yet"
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(scratch),
                            "w:2"]) == 0
    assert scratch.is_dir() and not any(scratch.iterdir())  # the exports are removed
    summary = json.loads(out.read_text())["workloads"]["w"]["summary"]
    assert summary["setup_s"]["pairs"] == 2


@pytest.mark.parametrize("side", bench_pair.SIDES)
def test_a_run_without_metrics_stops_with_its_workload_seed_side_and_stderr(
        monkeypatch, tmp_path, side):
    _stub(monkeypatch, fail_side=side)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                         "w:2"])
    message = str(exc.value.code)
    for part in ("w seed 41", f"the {side} side", "exited 1", "ValueError: planted failure"):
        assert part in message
    assert not out.exists()
