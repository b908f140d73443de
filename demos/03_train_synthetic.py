"""End-to-end training on the synthetic utterance task.

Generates a small corpus (each vocabulary token owns a frozen feature
template, rendered with Gaussian noise), trains a miniature encoder with
the CTC loss, and scores the held-out splits. Finishes in well under a
minute on a laptop CPU.

The command line gives the same pipeline:

  multiconv gen-data --out /tmp/corpus --vocab 5 --n-train 96
  multiconv train    --data /tmp/corpus --out /tmp/run --dim 16 ...
  multiconv eval     --data /tmp/corpus --model /tmp/run --split test

Run it with:  python3 demos/03_train_synthetic.py
"""

import tempfile
from pathlib import Path

from multiconv import (
    DataSpec,
    EncoderConfig,
    TrainConfig,
    Tensor,
    build_model,
    evaluate,
    generate_dataset,
    greedy_decode,
    load_split,
    train_model,
)

workdir = Path(tempfile.mkdtemp(prefix="multiconv-demo-"))

# 1. a corpus small enough to learn in seconds
spec = DataSpec(vocab=5, n_train=96, n_dev=24, n_test=24,
                min_tokens=2, max_tokens=5, frames_per_token=8,
                n_mels=20, noise_std=0.3, seed=11)
generate_dataset(spec, workdir / "corpus")
train = load_split(workdir / "corpus", "train")
dev = load_split(workdir / "corpus", "dev")
test = load_split(workdir / "corpus", "test")
print(f"corpus: {len(train)} train / {len(dev)} dev / {len(test)} test "
      f"utterances, vocab {spec.vocab}")

# 2. a miniature encoder; early stopping fires once dev TER reaches 5%
cfg = EncoderConfig(dim=16, layers=1, heads=2, d_inter=64, d_ffn=32,
                    conv_block="multiconv", fusion="depth", kernels=(3, 7),
                    n_mels=spec.n_mels, vocab=spec.vocab, dropout=0.0, seed=0)
tcfg = TrainConfig(seed=0, steps=400, batch_size=8, lr=3e-3,
                   eval_every=20, target_ter=0.05)
model = build_model(cfg)
# writes the run directory that `multiconv eval --model` loads
result = train_model(model, train, dev, tcfg, out_dir=workdir / "run", log=print)
stop = "early stop" if result.stopped_early else "step budget"
print(f"finished after {result.steps_run} steps ({stop}); best dev TER "
      f"{result.best_dev_ter:.3f} at step {result.best_step}")

# 3. score the split the model never saw
held_out = evaluate(model, test)
print(f"test TER {held_out.ter:.3f} over {held_out.n_utterances} utterances")

# 4. look at one decode next to its reference
utt = test[0]
hyp = greedy_decode(model(Tensor(utt.feats)).data)
print(f"reference  {utt.tokens}")
print(f"decoded    {hyp}")
print(f"artifacts in {workdir}/run: model.mckpt (best dev), metrics.jsonl, configs")
