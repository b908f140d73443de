"""The pair runner: its summary (medians, quartiles and pair wins per metric),
its traced runs, and how it handles its scratch directory and a failed run."""

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


def _fake_perfbench(calls, fail_side=None, fail_traced_only=False):
    """A stand-in for ``subprocess.run`` of perfbench that appends each run's
    (side, seed, trace flag) to ``calls``. An untraced run prints a passing
    result with each end-to-end metric at 1.0; a traced run prints each
    per-layer metric at 2.0 and fails its step-time accounting check. Runs on
    ``fail_side`` (its traced runs only, with ``fail_traced_only``) report an
    exception the way perfbench does."""
    spec = json.loads((bench_pair.ROOT / "BENCHMARK.json").read_text())

    def run(cmd, cwd, **kwargs):
        side, traced = Path(cwd).name, cmd[cmd.index("--trace") + 1] == "1"
        calls.append((side, int(cmd[cmd.index("--seed") + 1]), traced))
        if side == fail_side and (traced or not fail_traced_only):
            record = {"error": "Traceback ...\nValueError: planted failure\n"}
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            stderr, code = record["error"], 1
        else:
            checks = [{"name": "finite", "ok": True}]
            if traced:
                checks.append({"name": "trace_accounts_for_step_time", "ok": False})
            record = {"checks": checks, "env": {"nproc": 2}}
            names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            result = {"correct": not traced, "attempted": 1, "failed": int(traced),
                      "metrics": {name: {"value": 2.0 if traced else 1.0} for name in names}}
            stderr, code = "", int(traced)
        stdout = json.dumps(record) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, code, stdout, stderr)

    return run


def _stub(monkeypatch, fail_side=None, fail_traced_only=False):
    """Exports that copy nothing, and the perfbench stand-in; returns the
    list its runs are logged to."""
    calls = []
    monkeypatch.setattr(bench_pair, "_export_rev", lambda rev, dest: {"rev": rev, "commit": "0"})
    monkeypatch.setattr(bench_pair, "_export_worktree", lambda dest: {"rev": "wt", "commit": "0"})
    monkeypatch.setattr(bench_pair, "subprocess", types.SimpleNamespace(
        run=_fake_perfbench(calls, fail_side, fail_traced_only)))
    return calls


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


def test_each_workload_ends_with_one_traced_run_per_side_at_seed_3(monkeypatch, tmp_path):
    calls = _stub(monkeypatch)
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                            "w:2", "v:3"]) == 0
    w_pairs = [("base", 41, False), ("head", 41, False), ("head", 42, False), ("base", 42, False)]
    v_pairs = w_pairs + [("base", 43, False), ("head", 43, False)]
    traced = [("base", 3, True), ("head", 3, True)]
    assert calls == w_pairs + traced + v_pairs + traced
    workloads = json.loads(out.read_text())["workloads"]
    for name in ("w", "v"):
        trace = workloads[name]["traced"]
        assert trace["seed"] == 3
        for side in bench_pair.SIDES:
            assert trace[side]["metrics"]["tape.nodes_per_utt"] == 2.0
            assert trace[side]["failed_checks"] == ["trace_accounts_for_step_time"]
            assert not trace[side]["correct"]
        # the traced runs stay out of the end-to-end summary
        assert workloads[name]["summary"]["setup_s"]["base"]["median"] == 1.0


@pytest.mark.parametrize("side", bench_pair.SIDES)
def test_a_traced_run_without_metrics_stops_and_is_named_as_traced(monkeypatch, tmp_path, side):
    _stub(monkeypatch, fail_side=side, fail_traced_only=True)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                         "w:2"])
    message = str(exc.value.code)
    for part in ("traced w seed 3", f"the {side} side", "exited 1",
                 "ValueError: planted failure"):
        assert part in message
    assert not out.exists()
