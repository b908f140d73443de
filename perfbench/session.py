"""One benchmark session: set up, train the six variants, decode.

Every workload runs the same three phases, so every run can report every
end-to-end metric; the workload decides the corpus, the kernel widths and
how much work each phase gets.

1. **Set-up.** Render the corpus from the seed with ``generate_dataset``,
   read the three splits back with ``load_split`` and build the six models.
   This repeats ``SETUP_REPEATS`` times; the median is ``setup_s``.
2. **Training job.** For each variant in turn: ``train_model`` from the
   seed-initialised weights, with evaluation on a dev subset and the
   best-dev checkpoint written to a scratch directory. The job stops at the
   variant's criterion-6 dev TER threshold when the workload trains to
   target, else after a fixed step count. The checkpoint is then loaded into
   a fresh model, which the checks evaluate.
3. **Decode job.** Closed loop, one utterance at a time: ``model(Tensor(x))``
   then ``greedy_decode``, with six seed-initialised models over a fixed
   number of test utterances of each token count, so every seed decodes the
   same histogram of lengths. Each (model, utterance) pair is decoded three
   times; the work is spread in chunks before and between the training
   jobs, and a pair's latency is the fastest of its three decodes.

Every timed segment is also kept scaled to a reference machine speed
(``calibrate.py``); the session gets a ``NoSpeed`` when nothing is to be
scaled. Checks run outside the timed regions, and a failed one fails the run.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from multiconv import checkpoint, ctc, data, training
from multiconv.autodiff import Tensor
from multiconv.config import DataSpec, EncoderConfig, TrainConfig
from multiconv.encoder import build_model

from calibrate import NoSpeed, Speed
from probe import Probe, clock

SETUP_REPEATS = 5
GEOMETRY = {"dim": 64, "layers": 2, "heads": 4, "d_inter": 384}
# (variant name, conv_block, fusion): the six models of acceptance criterion 6
VARIANTS = (
    ("sum", "multiconv", "sum"),
    ("weighted", "multiconv", "weighted"),
    ("concat", "multiconv", "concat"),
    ("depth", "multiconv", "depth"),
    ("csgu", "csgu", "depth"),
    ("conformer", "conformer", "depth"),
)
BATCH_SIZE = 4
LR = 3e-3
DECODE_PASSES = 3
REPEAT_STEPS = 8  # steps the repeat check trains again: all of train-long's fixed job
LOGIT_TOLERANCE = 1e-3  # float32 vs float64 logits, relative to max(1, |logits|)
# acceptance criterion 6: best dev TER of depth <= 0.05, of every variant <= 0.10.
# A job that trains to target stops at its variant's threshold.
TARGET_TER = {"depth": 0.05}
TARGET_TER_OTHERS = 0.10


def target_ter(variant: str) -> float:
    return TARGET_TER.get(variant, TARGET_TER_OTHERS)


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: dict            # DataSpec fields; the seed comes from the run
    kernels: tuple[int, ...]
    train_steps: int        # step count per variant, or the cap under a target
    eval_every: int
    to_target: bool         # stop at the criterion-6 threshold, capped at train_steps
    dev_utts: int
    decode_per_length: int  # decoded test utterances of each token count

    def scaled(self, seconds: float, nominal: float) -> "Workload":
        """Scale the fixed-size work with the run length.

        A training job that runs to its target is not scaled. A fixed job
        keeps at least two steps, so a traced run has an untraced step.
        """
        factor = seconds / nominal
        steps = self.train_steps
        if not self.to_target:
            steps = max(2, round(steps * factor))
        per_length = max(1, round(self.decode_per_length * factor))
        return dataclasses.replace(self, train_steps=steps, decode_per_length=per_length)

    def encoder_config(self, conv_block: str, fusion: str, seed: int) -> EncoderConfig:
        return EncoderConfig(conv_block=conv_block, fusion=fusion, kernels=self.kernels,
                             n_mels=self.corpus.get("n_mels", DataSpec.n_mels),
                             vocab=self.corpus.get("vocab", DataSpec.vocab),
                             seed=seed, **GEOMETRY)

    def describe(self) -> dict:
        return {**dataclasses.asdict(self), **GEOMETRY, "batch_size": BATCH_SIZE, "lr": LR,
                "decode_passes": DECODE_PASSES}


@dataclass
class VariantRun:
    steps: int = 0
    utts: int = 0
    job_s: float = 0.0      # without the speed samples taken inside the job
    stall_s: float = 0.0
    scale: float = 1.0      # reference speed over the machine's during the job
    best_dev_ter: float = math.inf
    losses: list = field(default_factory=list)


@dataclass
class SessionResult:
    setup_s: list[float] = field(default_factory=list)
    setup_scale: list[float] = field(default_factory=list)
    variants: dict[str, VariantRun] = field(default_factory=dict)
    decode_ms: list[float] = field(default_factory=list)      # scaled
    decode_ms_raw: list[float] = field(default_factory=list)
    decodes: int = 0
    checks: list[tuple[str, bool, str]] = field(default_factory=list)

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.checks.append((name, bool(ok), detail))

    @property
    def train_utts(self) -> int:
        return sum(v.utts for v in self.variants.values())

    @property
    def job_s(self) -> float:
        """Wall time of the training jobs, evaluations and checkpoints included."""
        return sum(v.job_s for v in self.variants.values())

    def utt_per_s(self, stalls: bool, scaled: bool = True) -> float:
        """Trained utterances per second, every variant weighted alike.

        This is the rate of training the same number of utterances on each
        variant: ``len(variants) / sum(seconds_v / utterances_v)``. A plain
        total would move with the seed, because on a job that trains to
        target the seed sets how many steps each variant takes, and a
        ``depth`` step costs far more than a ``conformer`` one. ``stalls``
        says whether the evaluation and checkpoint time counts.
        """
        runs = self.variants.values()
        return len(runs) / sum((v.job_s - (0.0 if stalls else v.stall_s))
                               * (v.scale if scaled else 1.0) / v.utts for v in runs)


def _set_up(wl: Workload, seed: int, work: Path, probe: Probe):
    probe.phase = "setup"
    spec = DataSpec(seed=seed, **wl.corpus)
    t0 = clock()
    data.generate_dataset(spec, work)
    splits = {name: data.load_split(work, name) for name in data.SPLITS}
    models = {name: build_model(wl.encoder_config(block, fusion, seed))
              for name, block, fusion in VARIANTS}
    return (t0, clock()), splits, models


def _train_config(wl: Workload, seed: int, index: int, steps: int) -> TrainConfig:
    """Each variant gets its own shuffle and dropout stream, so a run trains
    on six batches of utterances, not one, and its numbers depend less on
    which utterances the seed happened to draw."""
    return TrainConfig(seed=seed * len(VARIANTS) + index, steps=steps,
                       batch_size=BATCH_SIZE, lr=LR,
                       eval_every=min(wl.eval_every, steps),
                       target_ter=target_ter(VARIANTS[index][0]) if wl.to_target else -1.0)


def _train_variant(wl, seed, index, name, model, train, dev, out_dir, probe,
                   speed: Speed) -> VariantRun:
    run = VariantRun()
    probe.begin_job(name, run.losses)
    t0 = clock()
    result = training.train_model(model, train, dev,
                                  _train_config(wl, seed, index, wl.train_steps), out_dir=out_dir)
    t1 = clock()
    run.stall_s = probe.end_job()
    run.job_s = t1 - t0 - probe.speed_s
    run.scale = speed.scale(t0, t1)
    run.steps = result.steps_run
    run.utts = result.steps_run * BATCH_SIZE
    run.best_dev_ter = result.best_dev_ter
    return run


def _check_variant(res, wl, seed, index, run, served, splits, dev, out_dir, probe):
    """Output checks for one trained variant; nothing here is timed."""
    name, block, fusion = VARIANTS[index]
    feasible = [loss for loss, ok in run.losses if ok]
    res.check(f"{name}.losses_finite", feasible and all(math.isfinite(x) for x in feasible),
              f"{len(feasible)} feasible losses")
    rows = (out_dir / "metrics.jsonl").read_text().splitlines()
    ter = training.evaluate(served, dev).ter
    res.check(f"{name}.checkpoint_reproduces_best", rows and ter == run.best_dev_ter,
              f"reloaded dev TER {ter} vs best {run.best_dev_ter}, {len(rows)} metric rows")

    # a second run of the first steps from the same seed gives the same
    # losses; past step 1 they depend on clipping and the Adam updates
    steps = min(run.steps, REPEAT_STEPS)
    repeat: list = []
    fresh = build_model(wl.encoder_config(block, fusion, seed))
    probe.begin_job(name, repeat, phase="repeat")
    training.train_model(fresh, splits["train"], dev, _train_config(wl, seed, index, steps))
    probe.end_job()
    first = run.losses[:len(repeat)]
    res.check(f"{name}.step_losses_bit_identical", repeat == first and len(repeat) > 0,
              f"{len(repeat)} losses of steps 1-{steps} compared")

    # the float32 model against a float64 copy of the same weights
    wide = build_model(wl.encoder_config(block, fusion, seed), dtype=np.float64)
    narrow_params = dict(served.named_parameters())
    for pname, tensor in wide.named_parameters():
        tensor.data = narrow_params[pname].data.astype(np.float64)
    feats = splits["test"][0].feats
    l32 = served(Tensor(feats)).data.astype(np.float64)
    l64 = wide(Tensor(feats.astype(np.float64))).data
    err = float(np.abs(l32 - l64).max()) / max(1.0, float(np.abs(l64).max()))
    res.check(f"{name}.float64_logits", err <= LOGIT_TOLERANCE,
              f"relative max error {err:.2e} (tolerance {LOGIT_TOLERANCE:g})")


def decode_set(utts, tokens: range, per_length: int) -> list:
    """``per_length`` utterances of every token count in ``tokens``, in split
    order, so every seed decodes the same histogram of lengths."""
    buckets: dict[int, list] = {n: [] for n in tokens}
    for utt in utts:
        bucket = buckets.get(len(utt.tokens))
        if bucket is not None and len(bucket) < per_length:
            bucket.append(utt)
    return [utt for n in tokens for utt in buckets[n]]


class _DecodeJob:
    """The decode work, cut into one chunk per slot of the session.

    Each (model, utterance) pair is decoded ``DECODE_PASSES`` times. That
    work list is cut into ``slots`` contiguous chunks, which the session runs
    before the first training job and after each one. The shared machine
    this runs on changes speed for seconds at a time, so a pair's decodes
    land at different moments, and its latency is the fastest of them: a
    neighbour's load only ever adds time. The median would let a slow
    phase over two of a pair's three decodes set the pair's latency.
    """

    def __init__(self, decoders: dict, utts: list, slots: int):
        self.pairs = [(name, model, utt) for name, model in decoders.items() for utt in utts]
        # each pass visits the pairs in its own fixed shuffled order, so a
        # slow phase lands on scattered pairs, not on a run of one model's
        # longest utterances, and rarely on all of one pair's decodes
        work = [int(k) for p in range(DECODE_PASSES)
                for k in np.random.default_rng(p).permutation(len(self.pairs))]
        cuts = [round(j * len(work) / slots) for j in range(slots + 1)]
        self.chunks = [work[a:b] for a, b in zip(cuts, cuts[1:])]
        self.ms: list[list[float]] = [[] for _ in self.pairs]
        self.scales: list[list[float]] = [[] for _ in self.pairs]
        self.hyps: list[list] = [[] for _ in self.pairs]

    def run_chunk(self, probe: Probe, speed: Speed) -> None:
        probe.phase = "decode"
        chunk = self.chunks.pop(0)
        speed.sample()
        start = clock()
        for k in chunk:
            name, model, utt = self.pairs[k]
            probe.variant = name
            t0 = clock()
            hyp = ctc.greedy_decode(model(Tensor(utt.feats)).data)
            self.ms[k].append(1e3 * (clock() - t0))
            self.hyps[k].append(hyp)
        end = clock()
        speed.sample()
        scale = speed.scale(start, end)
        for k in chunk:
            self.scales[k].append(scale)
        probe.phase = "check"

    def record(self, res: SessionResult) -> None:
        res.decodes = sum(len(ms) for ms in self.ms)
        res.decode_ms_raw = [min(ms) for ms in self.ms]
        res.decode_ms = [min(m * f for m, f in zip(ms, fs))
                         for ms, fs in zip(self.ms, self.scales)]
        res.check("decode.hypotheses_identical_across_passes",
                  all(h == hyps[0] for hyps in self.hyps for h in hyps),
                  f"{DECODE_PASSES} decodes of each of {len(self.pairs)} (model, utterance) pairs")


def run_session(wl: Workload, seed: int, scratch: Path, probe: Probe,
                speed: Speed | None = None) -> SessionResult:
    """Run all three phases of ``wl`` under ``probe`` (already installed),
    sampling the machine's speed with ``speed`` if one is given."""
    res = SessionResult()
    speed = speed or NoSpeed()
    probe.speed = speed
    tmp = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=scratch))
    try:
        speed.sample()
        for i in range(SETUP_REPEATS):
            (t0, t1), splits, models = _set_up(wl, seed, tmp / f"corpus{i}", probe)
            speed.sample()
            res.setup_s.append(t1 - t0)
            res.setup_scale.append(speed.scale(t0, t1))
        spec = DataSpec(**wl.corpus)
        tokens = range(spec.min_tokens, spec.max_tokens + 1)
        utts = decode_set(splits["test"], tokens, wl.decode_per_length)
        per_length = wl.decode_per_length
        res.check("decode.length_histogram", len(utts) == len(tokens) * per_length,
                  f"{len(utts)} utterances, {per_length} of each of {len(tokens)} lengths")
        decoders = {name: build_model(wl.encoder_config(block, fusion, seed))
                    for name, block, fusion in VARIANTS}
        instrument = getattr(probe, "instrument", None)
        if instrument is not None:
            for model in (*models.values(), *decoders.values()):
                instrument(model)
        dev = splits["dev"][:wl.dev_utts]
        decode = _DecodeJob(decoders, utts, slots=len(VARIANTS) + 1)
        decode.run_chunk(probe, speed)
        for index, (name, block, fusion) in enumerate(VARIANTS):
            out_dir = tmp / f"run-{name}"
            run = _train_variant(wl, seed, index, name, models[name], splits["train"], dev,
                                 out_dir, probe, speed)
            res.variants[name] = run
            probe.variant = name
            served = build_model(wl.encoder_config(block, fusion, seed))
            if instrument is not None:
                instrument(served)
            checkpoint.load_model(out_dir / "model.mckpt", served)
            _check_variant(res, wl, seed, index, run, served, splits, dev, out_dir, probe)
            decode.run_chunk(probe, speed)
        decode.record(res)
        if wl.to_target:
            ters = {name: run.best_dev_ter for name, run in res.variants.items()}
            res.check("criterion6_thresholds",
                      all(ter <= target_ter(name) for name, ter in ters.items()),
                      "best dev TER " + ", ".join(f"{k} {v:.3f}" for k, v in ters.items()))
    finally:
        probe.speed = None
        shutil.rmtree(tmp, ignore_errors=True)
    return res
