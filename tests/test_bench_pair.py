"""The pair runner: its summary (medians, quartiles and pair wins per metric),
its traced runs, its step-level pairs, and how it handles its scratch
directory and a failed run."""

import importlib.util
import json
import subprocess
import sys
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


STEP_SECTION = {"rounds": 2, "utts_per_step": 4, "workloads": {"w": {"sum": {"ratio": 0.9}}}}


def _fake_perfbench(calls, fail_side=None, fail_traced_only=False, fail_steps=False,
                    failing=()):
    """A stand-in for ``subprocess.run`` of perfbench that appends each run's
    (side, seed, trace flag) to ``calls``. An untraced run prints a passing
    result with each end-to-end metric at 1.0; a traced run prints each
    per-layer metric at 2.0. The runs listed by (side, seed, trace flag) in
    ``failing`` print their metrics but fail one check (a traced run its
    step-time accounting) and exit 1. Runs on ``fail_side`` (its traced runs
    only, with ``fail_traced_only``) report an exception the way perfbench
    does. The step-level child logs ("steps", base src, head src) and prints
    ``STEP_SECTION``, or fails with ``fail_steps``."""
    spec = json.loads((bench_pair.ROOT / "BENCHMARK.json").read_text())

    def run(cmd, **kwargs):
        if cmd[1] == "-c":
            calls.append(("steps", Path(cmd[-2]).parent.name, Path(cmd[-1]).parent.name))
            if fail_steps:
                return subprocess.CompletedProcess(cmd, 1, "", "MemoryError: planted\n")
            return subprocess.CompletedProcess(cmd, 0, json.dumps(STEP_SECTION) + "\n", "")
        cwd = kwargs["cwd"]
        side, traced = Path(cwd).name, cmd[cmd.index("--trace") + 1] == "1"
        calls.append((side, int(cmd[cmd.index("--seed") + 1]), traced))
        fails = calls[-1] in failing
        if side == fail_side and (traced or not fail_traced_only):
            record = {"error": "Traceback ...\nValueError: planted failure\n"}
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
            stderr, code = record["error"], 1
        else:
            checks = [{"name": "finite", "ok": not fails or traced}]
            if traced:
                checks.append({"name": "trace_accounts_for_step_time", "ok": not fails})
            record = {"checks": checks, "env": {"nproc": 2}}
            names = [m["name"] for m in spec["per_layer" if traced else "end_to_end"]]
            result = {"correct": not fails, "attempted": 1, "failed": int(fails),
                      "metrics": {name: {"value": 2.0 if traced else 1.0} for name in names}}
            stderr, code = "", int(fails)
        stdout = json.dumps(record) + "\n" + json.dumps(result) + "\n"
        return subprocess.CompletedProcess(cmd, code, stdout, stderr)

    return run


def _stub(monkeypatch, fail_side=None, fail_traced_only=False, fail_steps=False, failing=()):
    """Exports that copy nothing, and the perfbench stand-in; returns the
    list its runs are logged to."""
    calls = []
    monkeypatch.setattr(bench_pair, "_export_rev", lambda rev, dest: {"rev": rev, "commit": "0"})
    monkeypatch.setattr(bench_pair, "_export_worktree", lambda dest: {"rev": "wt", "commit": "0"})
    monkeypatch.setattr(bench_pair, "subprocess", types.SimpleNamespace(
        run=_fake_perfbench(calls, fail_side, fail_traced_only, fail_steps, failing)))
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


def test_each_workload_ends_with_one_traced_run_per_side_at_seed_3(monkeypatch, tmp_path,
                                                                   capsys):
    traced = [("base", 3, True), ("head", 3, True)]
    calls = _stub(monkeypatch, failing=traced)
    out = tmp_path / "BENCH.json"
    # the traced runs fail their accounting check: written, then exit 1
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                            "w:2", "v:3"]) == 1
    w_pairs = [("base", 41, False), ("head", 41, False), ("head", 42, False), ("base", 42, False)]
    v_pairs = w_pairs + [("base", 43, False), ("head", 43, False)]
    assert calls == w_pairs + traced + v_pairs + traced + [("steps", "base", "head")]
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
    named = [line for line in capsys.readouterr().err.splitlines() if "not correct" in line]
    assert named == [f"bench_pair: traced {w} seed 3 on the {side} side is not correct: "
                     "failed checks [trace_accounts_for_step_time], 1 of 1 operations failed"
                     for w in ("w", "v") for side in bench_pair.SIDES]


def test_an_untraced_run_that_fails_a_check_is_written_then_exits_1(monkeypatch, tmp_path,
                                                                   capsys):
    _stub(monkeypatch, failing=[("head", 42, False)])
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                            "w:2"]) == 1
    pairs = json.loads(out.read_text())["workloads"]["w"]["pairs"]
    assert pairs[1]["head"]["failed_checks"] == ["finite"] and not pairs[1]["head"]["correct"]
    assert pairs[1]["base"]["correct"] and pairs[0]["head"]["correct"]
    named = [line for line in capsys.readouterr().err.splitlines() if "not correct" in line]
    assert named == ["bench_pair: untraced w seed 42 on the head side is not correct: "
                     "failed checks [finite], 1 of 1 operations failed"]


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


def test_step_pairs_run_once_after_every_workload_and_land_in_the_output(monkeypatch, tmp_path):
    calls = _stub(monkeypatch)
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                            "w:2"]) == 0
    assert [c for c in calls if c[0] == "steps"] == [("steps", "base", "head")]
    assert calls[-1][0] == "steps"
    assert json.loads(out.read_text())["steps"] == STEP_SECTION


def test_a_step_cell_above_1_02_is_measured_again_in_a_fresh_child(monkeypatch, tmp_path,
                                                                   capsys):
    calls = _stub(monkeypatch)
    perfbench = bench_pair.subprocess.run
    again = json.dumps({"w": ["sum", "depth"]})
    sections = {
        "null": {"workloads": {"w": {"sum": {"ratio": 1.03}, "csgu": {"ratio": 1.02},
                                     "depth": {"ratio": 1.05}}}},
        again: {"workloads": {"w": {"sum": {"ratio": 0.99}, "depth": {"ratio": 1.04}}}},
    }

    def run(cmd, **kwargs):
        if cmd[1] != "-c":
            return perfbench(cmd, **kwargs)
        calls.append(("steps", cmd[4]))
        return subprocess.CompletedProcess(cmd, 0, json.dumps(sections[cmd[4]]) + "\n", "")

    monkeypatch.setattr(bench_pair, "subprocess", types.SimpleNamespace(run=run))
    out = tmp_path / "BENCH.json"
    assert bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                            "w:2"]) == 0
    assert [c for c in calls if c[0] == "steps"] == [("steps", "null"), ("steps", again)]
    cells = json.loads(out.read_text())["steps"]["workloads"]["w"]
    assert cells["sum"] == {"ratio": 1.03, "rerun": {"ratio": 0.99}}
    assert cells["depth"] == {"ratio": 1.05, "rerun": {"ratio": 1.04}}
    assert cells["csgu"] == {"ratio": 1.02}  # at the bound, not above it
    named = [line for line in capsys.readouterr().err.splitlines() if "twice" in line]
    assert named == ["bench_pair: step cell w depth is above 1.02 twice: 1.050, then 1.040 "
                     "in a fresh child"]


def test_failed_step_pairs_stop_with_their_stderr_and_write_nothing(monkeypatch, tmp_path):
    _stub(monkeypatch, fail_steps=True)
    out = tmp_path / "BENCH.json"
    with pytest.raises(SystemExit) as exc:
        bench_pair.main(["--base", "HEAD", "--out", str(out), "--scratch", str(tmp_path / "s"),
                         "w:2"])
    message = str(exc.value.code)
    assert "step-level pairs exited 1" in message and "MemoryError: planted" in message
    assert not out.exists()


def test_alternate_warms_both_sides_then_swaps_the_first_side_each_round():
    log, now = [], [0.0]

    def clock():
        return now[0]

    def work(side, cost):
        def run(round_):
            log.append((side, round_))
            now[0] += cost
        return run

    times = bench_pair.alternate({"base": work("base", 2.0), "head": work("head", 1.0)}, 3,
                                 clock=clock)
    assert log == [("base", 0), ("head", 0),  # the untimed warm-up
                   ("base", 1), ("head", 1), ("head", 2), ("base", 2), ("base", 3), ("head", 3)]
    assert times == {"base": [2.0] * 3, "head": [1.0] * 3}
    summary = bench_pair.summarise_steps(times)
    assert summary["ratio"] == 0.5 and summary["head_wins"] == 3 and summary["rounds"] == 3


def test_sign_interval_takes_the_order_statistics_of_the_binomial_tail():
    # n = 40: P(X <= 14) = 0.040 <= 0.05 < P(X <= 15) = 0.077, so the 90%
    # interval runs from the 15th smallest to the 15th largest ratio
    ratios = [float(i) for i in range(1, 41)][::-1]
    assert bench_pair.sign_interval(ratios) == (15.0, 26.0)
    assert bench_pair.sign_interval([1.0, 3.0, 2.0]) == (1.0, 3.0)  # too few: the range


def test_step_ratios_load_two_trees_under_two_names():
    src = bench_pair.ROOT / "src"
    section = bench_pair.step_ratios(src, src, rounds=2, variants=bench_pair.VARIANTS[:1],
                                     workloads=("train-toy", "decode-toy"))
    assert section["rounds"] == 2 and section["utts_per_step"] == bench_pair.STEP_UTTS
    for workload in ("train-toy", "decode-toy"):
        cell = section["workloads"][workload]["sum"]
        assert cell["rounds"] == 2 and 0 <= cell["head_wins"] <= 2
        assert cell["ci90"][0] <= cell["ratio"] <= cell["ci90"][1]
    base, head = sys.modules["bench_base"], sys.modules["bench_head"]
    assert base is not head and base.Tensor is not head.Tensor
    assert base.layers.__name__ == "bench_base.layers"


def test_step_ratios_measure_only_the_named_cells():
    src = bench_pair.ROOT / "src"
    section = bench_pair.step_ratios(src, src, rounds=2, variants=bench_pair.VARIANTS[:2],
                                     workloads=("train-toy", "decode-toy"),
                                     only={"train-toy": [], "decode-toy": ["weighted"]})
    assert list(section["workloads"]) == ["decode-toy"]
    assert list(section["workloads"]["decode-toy"]) == ["weighted"]
