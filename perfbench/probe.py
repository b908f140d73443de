"""Hooks the benchmark installs around the package's public entry points.

Nothing under ``src/`` is edited: each hook replaces a module attribute or a
class's ``__call__`` for the duration of a session and restores it after.

:class:`Probe` is what every run installs. It records the training CTC
losses (for the bit-identity checks) and times the evaluation and
checkpoint stalls inside ``train_model``, so throughput can exclude them.
Its cost is a Python call per utterance.

:class:`Tracer` adds spans at every layer boundary named in the benchmark's
per-layer metrics. A span holds its name, start, end, parent span, the
utterance it belongs to, the session phase and the model variant. Spans
stay in memory and are written out once, when the run ends. Training steps
alternate between traced and untraced, so the tracing overhead is measured
within one process, under the same machine load and heap. Each traced
layer's backward is timed from outside: on a sample of its training calls
the tracer re-runs the layer alone on its real input on a fresh ``Tape``,
and times ``backward`` of a fixed random projection of the output. The
re-run leaves parameters, gradients and random streams as they were, so a
traced session trains bit-identically to an untraced one; its wall time is
subtracted from the step time.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import numpy as np

from multiconv import (attention, autodiff, checkpoint, conv_blocks, ctc, data, encoder, layers,
                       training)

clock = time.perf_counter
SPAN_FIELDS = ("name", "start", "end", "parent", "utt", "phase", "variant")
RERUN_STRIDE = 8
SPEED_EVERY_S = 0.5  # least time between two machine-speed samples in a training job


class Probe:
    """Loss recorder and stall timer; every run installs one."""

    def __init__(self) -> None:
        self.phase = "setup"
        self.variant = ""
        self.sink: list[tuple[float, bool]] | None = None
        self.stall_s = 0.0
        # a machine-speed sampler (calibrate.Speed) to call between the
        # utterances of a training job, and the seconds its samples took
        self.speed = None
        self.speed_s = 0.0
        self._sampled_at = 0.0
        self._patches: list[tuple[object, str, object]] = []

    def _patch(self, owner, attr: str, make) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def install(self) -> None:
        self._patch(training, "ctc_loss", self._ctc_hook)
        self._patch(training, "evaluate", lambda f: self._stall_hook(f, "eval", "eval"))
        self._patch(training, "save_model",
                    lambda f: self._stall_hook(f, "checkpoint", "checkpoint.save"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Probe":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def begin_job(self, variant: str, sink: list, phase: str = "train") -> None:
        """Start recording one ``train_model`` call's losses into ``sink``."""
        self.variant = variant
        self.sink = sink
        self.stall_s = 0.0
        self.speed_s = 0.0
        self.phase = phase

    def end_job(self) -> float:
        """Stop recording; returns the job's evaluation and checkpoint seconds."""
        self.phase = "check"
        self.sink = None
        return self.stall_s

    @contextmanager
    def span(self, name: str):
        yield

    def _ctc_hook(self, original):
        def ctc_loss(logits, labels):
            with self.span("ctc"):
                loss, feasible = original(logits, labels)
            if self.sink is not None and self.phase in ("train", "repeat"):
                self.sink.append((loss.item(), feasible))
            if (self.phase == "train" and self.speed is not None
                    and clock() - self._sampled_at >= SPEED_EVERY_S):
                self.speed_s += self.speed.sample()
                self._sampled_at = clock()
            return loss, feasible
        return ctc_loss

    def _stall_hook(self, original, phase: str, name: str):
        def hooked(*args, **kwargs):
            outer = self.phase
            self.phase = phase
            t0 = clock()
            try:
                with self.span(name):
                    return original(*args, **kwargs)
            finally:
                if outer in ("train", "repeat"):
                    self.stall_s += clock() - t0
                self.phase = outer
        return hooked


class Tracer(Probe):
    """Span recorder for the per-layer metrics.

    Every ``RERUN_STRIDE``-th traced training call of each (layer, variant)
    pair, starting with the first, gets a backward re-run; the mean of the
    sampled re-runs stands for every call.
    """

    def __init__(self) -> None:
        super().__init__()
        # one list per span field; only strings, floats and ints go in, which
        # the cyclic garbage collector does not track, so tracing does not
        # make it collect the tapes' reference cycles any sooner
        self.columns: dict[str, list] = {name: [] for name in SPAN_FIELDS}
        self.counts: dict[tuple[str, str], list[float]] = {}
        self.reruns: dict[tuple[str, str], list[float]] = {}
        self.rerun_s = 0.0
        # training steps alternate between traced and untraced; busy seconds
        # and utterances of each kind, keyed by whether the step was traced
        self.active = True
        self.step_s = {True: 0.0, False: 0.0}
        self.step_utts = {True: 0, False: 0}
        self.step_frames = {True: 0, False: 0}
        self.step_count = {True: 0, False: 0}
        self._mark: tuple[float, float, float] | None = None
        self._step_utts = 0
        self._step_frames = 0
        self._stack: list[int] = []
        self._utt = -1
        self._proj: dict[tuple, np.ndarray] = {}
        self._swapped: list[tuple[object, type]] = []

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        if not self.active and self.phase == "train":
            yield
            return
        cols = self.columns
        index = len(cols["name"])
        for field, value in (("name", name), ("end", 0.0),
                             ("parent", self._stack[-1] if self._stack else -1),
                             ("utt", self._utt), ("phase", self.phase),
                             ("variant", self.variant)):
            cols[field].append(value)
        self._stack.append(index)
        cols["start"].append(clock())
        try:
            yield
        finally:
            cols["end"][index] = clock()
            self._stack.pop()

    def rows(self):
        """Spans as tuples in ``SPAN_FIELDS`` order."""
        return zip(*(self.columns[name] for name in SPAN_FIELDS))

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault((name, self.variant), []).append(value)

    def begin_job(self, variant: str, sink: list, phase: str = "train") -> None:
        super().begin_job(variant, sink, phase)
        self.active = True
        self._mark = (clock(), self.stall_s, self.rerun_s)
        self._step_utts = 0
        self._step_frames = 0

    def end_job(self) -> float:
        self.active = True
        self._mark = None
        return super().end_job()

    def _end_step(self) -> None:
        """Close a training step and flip tracing for the next one.

        A step's busy time runs from the end of the previous optimizer step
        (or the job's start) to the end of this one, less the evaluation,
        checkpoint and re-run time inside it.
        """
        now = clock()
        t0, stall0, rerun0 = self._mark
        busy = (now - t0) - (self.stall_s - stall0) - (self.rerun_s - rerun0)
        self.step_s[self.active] += busy
        self.step_utts[self.active] += self._step_utts
        self.step_frames[self.active] += self._step_frames
        self.step_count[self.active] += 1
        self._mark = (now, self.stall_s, self.rerun_s)
        self._step_utts = 0
        self._step_frames = 0
        self.active = not self.active

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        super().install()
        for cls, name in ((layers.Subsampler, "subsampler"),
                          (layers.FeedForward, "ffn"),
                          (attention.MultiHeadAttention, "attention")):
            self._patch(cls, "__call__", lambda f, n=name: self._layer_hook(f, lambda: n))
        for cls in (conv_blocks.MultiConvBlock, conv_blocks.CsguBlock,
                    conv_blocks.ConformerConvBlock):
            self._patch(cls, "__call__",
                        lambda f: self._layer_hook(f, lambda: f"conv.{self.variant}"))
        self._patch(encoder.CtcModel, "__call__", self._model_hook)
        self._patch(training, "backward", self._backward_hook)
        self._patch(training, "clip_gradients", lambda f: self._plain_hook(f, "clip"))
        self._patch(training.Adam, "step", self._adam_hook)
        for owner in (ctc, training):
            self._patch(owner, "greedy_decode", lambda f: self._plain_hook(f, "decode.greedy"))
        self._patch(checkpoint, "load_model", lambda f: self._plain_hook(f, "checkpoint.load"))
        self._patch(data, "generate_dataset", lambda f: self._plain_hook(f, "data.generate"))
        self._patch(data, "load_split", lambda f: self._plain_hook(f, "data.load"))

    def uninstall(self) -> None:
        super().uninstall()
        while self._swapped:
            obj, cls = self._swapped.pop()
            obj.__class__ = cls

    def instrument(self, model) -> None:
        """Give this model's output head its own span.

        ``Linear`` is used inside other layers too, so the head is traced by
        swapping the class of this one instance; parameter names are kept.
        """
        head = model.head
        base = type(head)
        tracer = self

        class TracedHead(base):
            def __call__(self, x):
                with tracer.span("head"):
                    return base.__call__(self, x)

        self._swapped.append((head, base))
        head.__class__ = TracedHead

    # -- hooks -------------------------------------------------------------

    def _plain_hook(self, original, name: str):
        def hooked(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)
        return hooked

    def _model_hook(self, original):
        def model_call(model, feats, *args, **kwargs):
            self._utt += 1
            if self.phase == "train":
                self._step_utts += 1
                self._step_frames += feats.shape[0]
            with self.span("model"):
                return original(model, feats, *args, **kwargs)
        return model_call

    def _adam_hook(self, original):
        def step(opt):
            with self.span("adam"):
                original(opt)
            if self.phase == "train":
                self._end_step()
        return step

    def _backward_hook(self, original):
        def backward(loss):
            if self.active and self.phase == "train":
                self.count("tape.nodes", len(loss.tape))
            with self.span("tape.backward"):
                return original(loss)
        return backward

    def _layer_hook(self, original, key):
        def layer_call(module, x, *args, **kwargs):
            name = key()
            tape = autodiff.Tape.active()
            before = len(tape) if tape is not None else 0
            with self.span(name):
                out = original(module, x, *args, **kwargs)
            if tape is not None and self.phase == "train" and self.active:
                self.count(name + ".nodes", len(tape) - before)
                if len(self.counts[(name + ".nodes", self.variant)]) % RERUN_STRIDE == 1:
                    t0 = clock()
                    sample = self._rerun_backward(module, original, x)
                    self.reruns.setdefault((name, self.variant), []).append(sample)
                    self.rerun_s += clock() - t0
            return out
        return layer_call

    def _projection(self, shape, dtype) -> np.ndarray:
        key = (shape, np.dtype(dtype).str)
        if key not in self._proj:
            rng = np.random.default_rng(len(self._proj))
            self._proj[key] = rng.standard_normal(shape).astype(dtype)
        return self._proj[key]

    def _rerun_backward(self, module, original, x) -> float:
        """Seconds of ``backward`` through ``module`` alone, on input ``x``."""
        params = module.parameters()
        saved = [p.grad for p in params]
        for p in params:
            p.grad = None
        try:
            leaf = autodiff.Tensor(x.data, requires_grad=x.requires_grad)
            with autodiff.Tape() as tape:
                out = original(module, leaf)
                proj = autodiff.Tensor(self._projection(out.shape, out.dtype))
                loss = autodiff.tsum(autodiff.mul(out, proj))
            t0 = clock()
            autodiff.backward(loss)
            seconds = clock() - t0
            tape.reset()  # break the tape's cycles, so refcounting frees it now
            return seconds
        finally:
            for p, g in zip(params, saved):
                p.grad = g
