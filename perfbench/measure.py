"""Workloads, metric computation and the run record."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import scipy

from calibrate import Speed
from probe import Probe, Tracer
from session import SETUP_REPEATS, VARIANTS, SessionResult, Workload, run_session
from statistics import median

from stats import tail_percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NOMINAL_SECONDS = 15.0  # the run length the fixed-size work below is sized for
ACCOUNTING_TOLERANCE = 0.10  # per-layer table vs untraced step time
REFERENCE_STEPS = 10
FRESH_PROCESS_TIMEOUT_S = 120  # subprocess.run kills and reaps the child past this

# Each workload's reason ("why") is kept once, in BENCHMARK.json; the run
# record copies it from there.
WORKLOADS = {wl.name: wl for wl in (
    Workload(
        name="train-toy",
        corpus={},
        kernels=(3, 7, 11, 15),
        train_steps=200, eval_every=10, to_target=True, dev_utts=24,
        decode_per_length=8),
    Workload(
        name="train-long",
        corpus={"n_train": 192, "n_dev": 8, "n_test": 192, "min_tokens": 8,
                "max_tokens": 16, "frames_per_token": 48, "n_mels": 20},
        kernels=(7, 15, 23, 31),
        train_steps=8, eval_every=8, to_target=False, dev_utts=4,
        decode_per_length=2),
    Workload(
        name="decode-toy",
        corpus={},
        kernels=(3, 7, 11, 15),
        train_steps=20, eval_every=10, to_target=False, dev_utts=8,
        decode_per_length=8),
)}


def benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


END_TO_END_UNITS = {
    "setup_s": "s",
    "train_utt_per_s": "1/s",
    "job_utt_per_s": "1/s",
    "decode_utt_per_s": "1/s",
    "decode_ms_p50": "ms",
    "decode_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"subsampler.fwd_ms_per_utt": "ms", "subsampler.bwd_ms_per_utt": "ms"}
    for name, _, _ in VARIANTS:
        units[f"conv.{name}.fwd_ms_per_utt"] = "ms"
        units[f"conv.{name}.bwd_ms_per_utt"] = "ms"
        units[f"conv.{name}.tape_nodes"] = "count"
    units.update({
        "attention.fwd_ms_per_utt": "ms", "attention.bwd_ms_per_utt": "ms",
        "ffn.fwd_ms_per_utt": "ms", "ffn.bwd_ms_per_utt": "ms",
        "head.fwd_ms_per_utt": "ms",
        "tape.nodes_per_utt": "count", "tape.backward_ms_per_utt": "ms",
        "ctc.ms_per_utt": "ms", "ctc.feasible_ratio": "ratio",
        "adam.ms_per_step": "ms", "clip.ms_per_step": "ms",
        "eval.ms_per_call": "ms", "checkpoint.save_ms": "ms", "checkpoint.load_ms": "ms",
        "decode.greedy_ms_per_utt": "ms",
        "data.generate_s": "s", "data.load_s": "s",
        "other.ms_per_utt": "ms", "trace.step_ratio": "ratio",
    })
    return units


# ---------------------------------------------------------------------------
# metrics

def _timings(res: SessionResult, scaled: bool) -> tuple[float, dict]:
    decode_ms = res.decode_ms if scaled else res.decode_ms_raw
    p_used, p_tail = tail_percentile(decode_ms, 99.0)
    setup = [s * (f if scaled else 1.0) for s, f in zip(res.setup_s, res.setup_scale)]
    return p_used, {
        "setup_s": median(setup),
        "train_utt_per_s": res.utt_per_s(stalls=False, scaled=scaled),
        "job_utt_per_s": res.utt_per_s(stalls=True, scaled=scaled),
        "decode_utt_per_s": 1e3 * len(decode_ms) / sum(decode_ms),
        "decode_ms_p50": median(decode_ms),
        "decode_ms_p99": p_tail,
    }


def end_to_end(res: SessionResult, speed: Speed) -> tuple[dict, dict]:
    """The end-to-end metrics, timings scaled to the reference speed; the
    unscaled timings and the speed samples go into the run record."""
    p_used, values = _timings(res, scaled=True)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    kernel_ms = [1e3 * k for k in speed.kernel_s]
    samples = {"unscaled": _timings(res, scaled=False)[1],
               "speed_samples": len(kernel_ms),
               "kernel_ms_min_median_max": [min(kernel_ms), median(kernel_ms), max(kernel_ms)],
               "decodes": res.decodes, "decode_latency_samples": len(res.decode_ms),
               "decode_tail_percentile": p_used,
               "train_utts": res.train_utts,
               "time_to_target_s": res.job_s,
               "steps_to_target": sum(v.steps for v in res.variants.values()),
               "steps_by_variant": {k: v.steps for k, v in res.variants.items()},
               "best_dev_ter_by_variant": {k: v.best_dev_ter for k, v in res.variants.items()}}
    return values, samples


class _SpanIndex:
    """Span durations grouped by (name, phase) and (name, phase, variant)."""

    def __init__(self, spans):
        self.total: dict[tuple, float] = {}
        self.calls: dict[tuple, list[float]] = {}
        for name, start, end, _parent, _utt, phase, variant in spans:
            for key in ((name, phase), (name, phase, variant)):
                self.total[key] = self.total.get(key, 0.0) + (end - start)
                self.calls.setdefault(key, []).append(end - start)

    def seconds(self, *key) -> float:
        return self.total.get(key, 0.0)

    def mean_ms(self, *key) -> float:
        calls = self.calls.get(key)
        if not calls:
            raise ValueError(f"no spans recorded for {key}")
        return 1e3 * sum(calls) / len(calls)


def per_layer(tracer: Tracer, traced: SessionResult) -> tuple[dict, dict]:
    """Per-layer metrics of a traced session, plus the accounting check.

    Every number comes from the traced training steps, which alternate with
    untraced ones. A layer's backward per utterance is the mean of its
    sampled re-runs times its calls per utterance. ``other`` is the traced
    step time less every traced span in it, so the table (forward, re-run
    backward, CTC, clip, Adam and other) differs from the traced step by how
    far the re-runs miss the real backward. The table is checked against the
    untraced steps per input frame, which takes out most of the difference
    in utterance length between the two sets of steps.
    """
    spans = _SpanIndex(tracer.rows())
    utts = {name: len(spans.calls[("model", "train", name)]) for name, _, _ in VARIANTS}
    n_utt = sum(utts.values())
    steps = len(spans.calls[("adam", "train")])

    def calls(layer, variant):
        return len(tracer.counts.get((layer + ".nodes", variant), ()))

    def bwd_seconds(layer, variant):
        samples = tracer.reruns.get((layer, variant))
        if not samples:
            return 0.0
        return sum(samples) / len(samples) * calls(layer, variant)

    m: dict[str, float] = {}
    fwd_total = 0.0
    bwd_total = 0.0
    for layer in ("subsampler", "attention", "ffn"):
        fwd = spans.seconds(layer, "train")
        bwd = sum(bwd_seconds(layer, v) for v in utts)
        m[f"{layer}.fwd_ms_per_utt"] = 1e3 * fwd / n_utt
        m[f"{layer}.bwd_ms_per_utt"] = 1e3 * bwd / n_utt
        fwd_total += fwd
        bwd_total += bwd
    for v in utts:
        layer = f"conv.{v}"
        fwd = spans.seconds(layer, "train", v)
        bwd = bwd_seconds(layer, v)
        m[f"{layer}.fwd_ms_per_utt"] = 1e3 * fwd / utts[v]
        m[f"{layer}.bwd_ms_per_utt"] = 1e3 * bwd / utts[v]
        m[f"{layer}.tape_nodes"] = sum(tracer.counts[(layer + ".nodes", v)]) / utts[v]
        fwd_total += fwd
        bwd_total += bwd
    head = spans.seconds("head", "train")
    m["head.fwd_ms_per_utt"] = 1e3 * head / n_utt
    fwd_total += head

    nodes = [n for v in utts for n in tracer.counts[("tape.nodes", v)]]
    m["tape.nodes_per_utt"] = sum(nodes) / len(nodes)
    backward = spans.seconds("tape.backward", "train")
    m["tape.backward_ms_per_utt"] = 1e3 * backward / n_utt
    ctc_s = spans.seconds("ctc", "train")
    m["ctc.ms_per_utt"] = 1e3 * ctc_s / n_utt
    outcomes = [ok for v in traced.variants.values() for _, ok in v.losses]
    m["ctc.feasible_ratio"] = sum(outcomes) / len(outcomes)
    adam = spans.seconds("adam", "train")
    clip = spans.seconds("clip", "train")
    m["adam.ms_per_step"] = 1e3 * adam / steps
    m["clip.ms_per_step"] = 1e3 * clip / steps
    m["eval.ms_per_call"] = spans.mean_ms("eval", "eval")
    m["checkpoint.save_ms"] = spans.mean_ms("checkpoint.save", "checkpoint")
    m["checkpoint.load_ms"] = spans.mean_ms("checkpoint.load", "check")
    m["decode.greedy_ms_per_utt"] = spans.mean_ms("decode.greedy", "decode")
    m["data.generate_s"] = median(spans.calls[("data.generate", "setup")])
    m["data.load_s"] = spans.seconds("data.load", "setup") / SETUP_REPEATS

    busy, frames = tracer.step_s, tracer.step_frames
    inside = fwd_total + backward + ctc_s + adam + clip
    m["other.ms_per_utt"] = 1e3 * (busy[True] - inside) / n_utt
    traced_per_frame = busy[True] / frames[True]
    plain_per_frame = busy[False] / frames[False]
    m["trace.step_ratio"] = traced_per_frame / plain_per_frame
    table_per_frame = (busy[True] - backward + bwd_total) / frames[True]
    detail = {"traced_step_ms_per_utt": 1e3 * busy[True] / n_utt,
              "untraced_step_ms_per_utt": 1e3 * busy[False] / tracer.step_utts[False],
              "table_us_per_frame": 1e6 * table_per_frame,
              "untraced_us_per_frame": 1e6 * plain_per_frame,
              "steps_traced_untraced": [steps, tracer.step_count[False]],
              "rerun_s": tracer.rerun_s,
              "accounting_error": abs(table_per_frame - plain_per_frame) / plain_per_frame}
    return m, detail


# ---------------------------------------------------------------------------
# run record

def _openblas_version() -> str:
    try:
        config = np.show_config(mode="dicts")
        return config["Build Dependencies"]["blas"].get("version", "unknown")
    except (TypeError, KeyError):
        return "unknown"


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_rev() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10, check=True)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def environment() -> dict:
    return {
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas_version(),
        "git_rev": _git_rev(),
        "src_sha256": _source_digest(),
        "machine": platform.machine(),
    }


def _write_trace(out_dir: Path, wl: Workload, seed: int, tracer: Tracer) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"trace-{wl.name}-seed{seed}.json"
    body = {"columns": tracer.columns}
    path.write_text(json.dumps(body))
    return path


def untraced_session(wl: Workload, seed: int, scratch: Path,
                     speed: Speed | None = None) -> SessionResult:
    with Probe() as probe:
        return run_session(wl, seed, scratch, probe, speed)


# Loads (fn, args) from the file named by argv[1] and writes fn(*args) back to it.
_CHILD = ("import pickle, sys; sys.path[:0] = sys.argv[2:]; "
          "fn, args = pickle.loads(open(sys.argv[1], 'rb').read()); "
          "result = fn(*args); open(sys.argv[1], 'wb').write(pickle.dumps(result))")


def _in_fresh_process(fn, *args, scratch: Path):
    """Run ``fn(*args)`` in a new interpreter and wait for it to end.

    A plain child process, not a ``multiprocessing`` pool: a spawned pool
    also starts a resource tracker that outlives the pool. The child
    inherits the BLAS thread settings through the environment, and its
    standard output goes to standard error, so the result line stays last.
    """
    job = scratch / "fresh-process.pkl"
    job.write_bytes(pickle.dumps((fn, args)))
    subprocess.run([sys.executable, "-c", _CHILD, str(job), str(ROOT / "src"), str(HERE)],
                   stdout=sys.stderr, check=True, timeout=FRESH_PROCESS_TIMEOUT_S)
    return pickle.loads(job.read_bytes())


def run_workload(name: str, seed: int, seconds: float, trace: bool, out_dir: Path):
    """Run one workload; returns (run record, result line)."""
    if name not in WORKLOADS:
        raise SystemExit(f"perfbench: unknown workload {name!r}; choose from {sorted(WORKLOADS)}")
    if seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    wl = WORKLOADS[name].scaled(seconds, NOMINAL_SECONDS)
    why = {w["name"]: w["why"] for w in benchmark_spec()["workloads"]}.get(name)
    record = {"env": environment(), "workload": wl.describe(), "why": why, "seed": seed,
              "seconds": seconds, "trace": trace}
    out_dir.mkdir(parents=True, exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="work-", dir=out_dir))
    try:
        if trace:
            # The untraced reference trains REFERENCE_STEPS per variant, to
            # compare losses bit for bit. It runs in a fresh interpreter, so
            # the traced session starts on a cold heap, as an untraced run
            # does: a second session in one process skips the page faults of
            # growing the heap and runs several percent faster.
            reference = dataclasses.replace(
                wl, train_steps=min(wl.train_steps, REFERENCE_STEPS), to_target=False)
            plain = _in_fresh_process(untraced_session, reference, seed, scratch,
                                      scratch=scratch)
            with Tracer() as tracer:
                traced = run_session(wl, seed, scratch, tracer)
            metrics, detail = per_layer(tracer, traced)
            units = per_layer_units()
            prefixes = [(traced.variants[v].losses, run.losses)
                        for v, run in plain.variants.items()]
            compared = sum(min(len(a), len(b)) for a, b in prefixes)
            same = compared > 0 and all(a[:len(b)] == b[:len(a)] for a, b in prefixes)
            checks = plain.checks + [(f"traced.{n}", ok, d) for n, ok, d in traced.checks] + [
                ("traced_losses_bit_identical", same,
                 f"first {compared} training losses of both sessions"),
                ("trace_accounts_for_step_time",
                 detail["accounting_error"] <= ACCOUNTING_TOLERANCE,
                 f"table {detail['table_us_per_frame']:.2f} us vs untraced steps "
                 f"{detail['untraced_us_per_frame']:.2f} us per input frame")]
            detail["trace_file"] = str(_write_trace(out_dir, wl, seed, tracer).relative_to(ROOT))
            attempted_res = traced
        else:
            speed = Speed()
            plain = untraced_session(wl, seed, scratch, speed)
            metrics, detail = end_to_end(plain, speed)
            units = END_TO_END_UNITS
            checks = plain.checks
            attempted_res = plain
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = sum(1 for _, ok, _ in checks if not ok)
    attempted = attempted_res.train_utts + attempted_res.decodes + len(checks)
    record["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    record["detail"] = detail
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(metrics[k]), "unit": u} for k, u in units.items()},
    }
    return record, result
