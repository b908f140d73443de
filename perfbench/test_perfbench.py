"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import math
import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from multiconv import training  # noqa: E402

from calibrate import REFERENCE_S, NoSpeed, Speed  # noqa: E402
from measure import (END_TO_END_UNITS, WORKLOADS, _in_fresh_process, per_layer,  # noqa: E402
                     per_layer_units)
from probe import Probe, Tracer  # noqa: E402
from session import SessionResult, VariantRun, Workload, decode_set, run_session  # noqa: E402
from stats import tail_percentile  # noqa: E402

TINY = Workload(
    name="tiny", kernels=(3, 5),
    corpus={"vocab": 4, "n_train": 12, "n_dev": 4, "n_test": 12, "min_tokens": 2,
            "max_tokens": 4, "frames_per_token": 8, "n_mels": 20},
    train_steps=3, eval_every=2, to_target=False, dev_utts=4,
    decode_per_length=1)


def test_tail_percentile_keeps_p99_when_supported():
    values = list(range(1, 1001))
    used, value = tail_percentile(values, 99.0)
    assert used == 99.0
    assert value == 990.0
    assert sum(v > value for v in values) == 10


def test_tail_percentile_falls_back_to_ten_beyond():
    values = [float(v) for v in range(48, 0, -1)]
    used, value = tail_percentile(values, 99.0)
    assert value == 38.0
    assert used == pytest.approx(100.0 * 38 / 48)
    assert sum(v > value for v in values) == 10


@pytest.mark.parametrize("n", range(11, 1200, 37))
def test_tail_percentile_always_leaves_ten_beyond(n):
    values = list(range(n))
    used, value = tail_percentile(values, 99.0)
    assert sum(v > value for v in values) >= 10
    assert used <= 99.0


def test_tail_percentile_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        tail_percentile(range(10))


def test_decode_set_takes_a_fixed_histogram_of_lengths():
    class Utt:
        def __init__(self, n):
            self.tokens = [1] * n

    utts = [Utt(n) for n in (3, 5, 3, 4, 3, 5, 4, 4, 6)]
    chosen = decode_set(utts, range(3, 6), 2)
    assert [len(u.tokens) for u in chosen] == [3, 3, 4, 4, 5, 5]
    assert chosen[0] is utts[0] and chosen[1] is utts[2]


def test_training_rate_weights_every_variant_alike():
    res = SessionResult()
    # 10 utterances at 0.1 s each, and 30 at 0.3 s each plus a 1 s stall
    res.variants["fast"] = VariantRun(utts=10, job_s=1.0)
    res.variants["slow"] = VariantRun(utts=30, job_s=10.0, stall_s=1.0)
    assert res.utt_per_s(stalls=False) == pytest.approx(2 / (0.1 + 0.3))
    assert res.utt_per_s(stalls=True) == pytest.approx(2 / (0.1 + 10.0 / 30))
    # the same per-utterance costs in another mix give the same rate
    res.variants["slow"] = VariantRun(utts=3, job_s=1.0, stall_s=0.1)
    assert res.utt_per_s(stalls=False) == pytest.approx(2 / (0.1 + 0.3))


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_units()


def test_fresh_process_returns_its_result_and_is_gone(tmp_path):
    child = _in_fresh_process(os.getpid, scratch=tmp_path)
    assert child != os.getpid()
    with pytest.raises(ChildProcessError):  # already waited for: nothing left to reap
        os.waitpid(child, os.WNOHANG)


def test_speed_scales_a_span_by_the_samples_around_it():
    speed = Speed()
    speed.at = [0.0, 1.0, 2.0, 3.0, 4.0]
    speed.kernel_s = [k * REFERENCE_S for k in (1.0, 2.0, 2.0, 4.0, 1.0)]
    # (1.5, 2.5) holds the sample at 2.0; the nearest outside are at 1.0 and 3.0
    assert speed.scale(1.5, 2.5) == pytest.approx(3 / 8)
    assert speed.scale(-1.0, 0.5) == pytest.approx(2 / 3)  # nothing before: 0.0 and 1.0
    assert NoSpeed().scale(0.0, 1.0) == 1.0


def test_probe_restores_what_it_patched():
    original = training.ctc_loss, training.evaluate, training.backward
    with Tracer():
        assert training.backward is not original[2]
    assert (training.ctc_loss, training.evaluate, training.backward) == original


def test_traced_session_trains_bit_identically(tmp_path):
    speed = Speed()  # sampling the machine's speed must not change training either
    with Probe() as probe:
        plain = run_session(TINY, 5, tmp_path, probe, speed)
    assert speed.kernel_s and all(v.scale > 0 for v in plain.variants.values())
    assert len(plain.decode_ms) == len(plain.decode_ms_raw) > 0
    with Tracer() as tracer:
        traced = run_session(TINY, 5, tmp_path, tracer)
    assert all(ok for _, ok, _ in plain.checks + traced.checks)
    for name, run in plain.variants.items():
        assert run.losses, name
        assert traced.variants[name].losses == run.losses, name
    metrics, detail = per_layer(tracer, traced)
    assert set(metrics) == set(per_layer_units())
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["tape.nodes_per_utt"] > 0
    assert detail["rerun_s"] > 0
    assert tracer.step_count[True] > 0 and tracer.step_count[False] > 0
