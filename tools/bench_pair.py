"""Paired benchmark runs of a revision and the working tree, written to a
``BENCH_<n>.json``.

    python3 tools/bench_pair.py --base HEAD --out BENCH_1.json \\
        decode-toy:10 train-toy:3 train-long:3

Each side is exported into its own directory under ``--scratch``: ``--base``
with ``git archive`` (committed files only, as the benchmark checks them
out), the measured side as a copy of the working tree's tracked and
untracked, not-ignored files. For every ``WORKLOAD:PAIRS`` argument the two
sides then take turns running ``perfbench/run.py --trace 0`` from their own
directory, one pair per seed from 41 upwards, each run as long as
``BENCHMARK.json``'s ``run_seconds``. The side that runs first alternates
from pair to pair, so a drift in machine speed falls on both. After its
pairs, each workload gets one traced run per side (``--trace 1``, seed 3),
which gives the per-layer metrics and runs the tracer's own checks. The
directories are removed at the end.

The output holds both revisions, the environment of the runs (``nproc``,
BLAS thread settings, numpy and scipy versions), and for each workload every
run's metrics and failed checks. For every end-to-end metric of
``BENCHMARK.json`` it gives each side's median and interquartile range and
the number of pairs in which the head side was better. A run that prints no
metrics, traced or not, stops the comparison and writes nothing. A run that
prints metrics but is not ``correct`` (a failed check or operation, exit 1)
is kept in the output; after writing it the tool names each such run on
stderr and exits 1.

Step-level pairs follow the end-to-end ones, under the output's ``steps``
key. One child process loads the two exported ``src/`` trees side by side
under two package names (``bench_base`` and ``bench_head``; every import
inside ``multiconv`` is relative). For each of the six criterion-6 variants
it builds the same seeded float32 model on both sides and alternates
identical work between them, ``STEP_ROUNDS`` rounds after one untimed
warm-up, with the side that runs first alternating from round to round:

- ``train-toy`` and ``train-long``: one training step of ``STEP_UTTS``
  utterances at that workload's corpus geometry and kernels (forward, CTC,
  backward, clipping and an Adam step);
- ``decode-toy``: forward plus greedy decode of the same toy utterances.

Each cell gives the median of the per-round time ratios head / base, a
distribution-free 90% interval for it from the sign test, the rounds the
head side was faster and the round count. The alternation cancels drift in
machine speed, which end-to-end pairs cannot resolve below ~10%. Each
interval holds for its own cell: with 18 cells, one or two of them miss 1.0
by a few percent even when both sides run the same tree. In an A/A run
(one tree as both sides, 2 CPUs, one BLAS thread, 40 rounds) the 18
medians read 0.994-1.012 and the widest interval was [0.978, 1.033], in
``train-toy`` ``conformer``, the shortest step. The same cell, on a
change that barely touched its path, read 1.023 in ``BENCH_10.json`` and
0.984 when run again minutes later. So a cell whose median is above
``STEP_REPEAT`` (1.02) is measured once more in a fresh child and the
result kept as the cell's ``rerun``; each cell above 1.02 both times is
named on stderr. The exit status does not change. Limits: both sides
share one allocator and one BLAS, so a change to the state of either
(memory held, BLAS threads) is not isolated; each side has its own module
globals; eval, checkpoint writes and set-up are seen only in the
end-to-end pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import json
import math
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import Callable

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
FIRST_SEED = 41
TRACE_SEED = 3
STEP_ROUNDS = 40
STEP_UTTS = 4
STEP_LR = 3e-3
STEP_REPEAT = 1.02  # a step cell whose ratio is above this is measured once more
# (DataSpec fields, kernels) of each step-level cell, as perfbench's workloads
STEP_WORKLOADS = {
    "train-toy": ({}, (3, 7, 11, 15)),
    "train-long": ({"min_tokens": 8, "max_tokens": 16, "frames_per_token": 48, "n_mels": 20},
                   (7, 15, 23, 31)),
    "decode-toy": ({}, (3, 7, 11, 15)),
}
# (name, conv_block, fusion): the six models of acceptance criterion 6
VARIANTS = (
    ("sum", "multiconv", "sum"),
    ("weighted", "multiconv", "weighted"),
    ("concat", "multiconv", "concat"),
    ("depth", "multiconv", "depth"),
    ("csgu", "csgu", "depth"),
    ("conformer", "conformer", "depth"),
)


def _git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def _export_rev(rev: str, dest: Path) -> dict:
    sha = _git("rev-parse", "--verify", f"{rev}^{{commit}}")
    archive = dest.with_suffix(".tar")
    _git("archive", "--format=tar", f"--output={archive}", sha)
    with tarfile.open(archive) as tar:
        tar.extractall(dest, filter="data")
    archive.unlink()
    return {"rev": rev, "commit": sha}


def _export_worktree(dest: Path) -> dict:
    listed = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in filter(None, listed.split("\0")):
        src = ROOT / name
        if src.is_file():  # a tracked file deleted in the working tree is skipped
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / name)
    return {"rev": "working tree", "commit": _git("rev-parse", "HEAD")}


def _src_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(path.relative_to(checkout).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _run(checkout: Path, side: str, workload: str, seed: int, seconds: float,
         traced: bool = False) -> dict:
    """One perfbench run; its result line plus the parts of its record that
    a comparison needs. A run that printed no metrics (it raised, or printed
    no result) stops the whole comparison."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(int(traced))],
        cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if len(lines) >= 2 else {"metrics": {}}
    if not result["metrics"]:
        kind = "traced " if traced else ""
        raise SystemExit(f"bench_pair: {kind}{workload} seed {seed} on the {side} side exited "
                         f"{proc.returncode} with no metrics; its stderr ends:\n"
                         f"{proc.stderr[-2000:]}")
    record = json.loads(lines[-2])
    detail = record.get("detail", {})
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
        "failed_checks": [c["name"] for c in record.get("checks", []) if not c["ok"]],
        "steps_by_variant": detail.get("steps_by_variant"),
        "best_dev_ter_by_variant": detail.get("best_dev_ter_by_variant"),
        "env": record.get("env", {}),
    }


def _spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric: each side's median and IQR, and the pairs the head won."""
    out = {}
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        values = {side: [p[side]["metrics"][name] for p in pairs] for side in SIDES}
        wins = sum((h < b) if lower else (h > b) for b, h in zip(values["base"], values["head"]))
        base, head = _spread(values["base"]), _spread(values["head"])
        out[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "base": base,
            "head": head,
            "change": head["median"] / base["median"] - 1.0 if base["median"] else None,
            "head_wins": wins,
            "pairs": len(pairs),
        }
    return out


def sign_interval(ratios: list[float]) -> tuple[float, float]:
    """Distribution-free 90% interval for the median of ``ratios`` from the
    sign test: the j-th smallest and j-th largest values, with j the largest
    rank whose binomial(n, 1/2) tail stays within 5%."""
    n = len(ratios)
    ordered = sorted(ratios)
    tail, j = 0.0, 0
    while j < n // 2:
        tail += math.comb(n, j) / 2.0 ** n
        if tail > 0.05:
            break
        j += 1
    j = max(j, 1)
    return ordered[j - 1], ordered[n - j]


def summarise_steps(times: dict[str, list[float]]) -> dict:
    """Per-round head / base time ratios: median, sign-test 90% interval,
    the rounds the head side was faster and the round count."""
    ratios = [h / b for b, h in zip(times["base"], times["head"])]
    return {
        "ratio": statistics.median(ratios),
        "ci90": list(sign_interval(ratios)),
        "head_wins": sum(r < 1.0 for r in ratios),
        "rounds": len(ratios),
        "base_ms": statistics.median(times["base"]) * 1e3,
        "head_ms": statistics.median(times["head"]) * 1e3,
    }


def _load_tree(name: str, src: Path):
    """The ``multiconv`` package under ``src`` imported as ``name``."""
    pkg = Path(src) / "multiconv"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def _side_work(mc, workload: str, cfg_fields: dict, utts) -> Callable[[int], None]:
    """One timed unit of ``workload`` for package ``mc``: a training step over
    ``utts`` (its model and optimizer persist across calls) or a decode pass."""
    model = mc.build_model(mc.EncoderConfig(**cfg_fields), np.float32)
    if workload.startswith("decode"):
        def decode(_round: int) -> None:
            for utt in utts:
                mc.greedy_decode(model(mc.Tensor(utt.feats)).data)
        return decode
    opt = mc.Adam(model.parameters(), lr=STEP_LR)
    scale = importlib.import_module(mc.__name__ + ".autodiff").scale
    clip_norm = mc.TrainConfig().clip_norm

    def step(round_: int) -> None:
        model.zero_grad()
        rng = np.random.default_rng(round_)  # the same dropout masks on both sides
        for utt in utts:
            with mc.Tape(rng):
                loss, feasible = mc.ctc_loss(model(mc.Tensor(utt.feats)), utt.tokens)
                if feasible:
                    mc.backward(scale(loss, 1.0 / len(utts)))
        mc.clip_gradients(opt.params, clip_norm)
        opt.step()
    return step


def alternate(work: dict, rounds: int, clock=time.perf_counter) -> dict[str, list[float]]:
    """Seconds per round of ``work[side](round)`` for each side, after an
    untimed warm-up round 0; base runs first in odd rounds, head in even ones."""
    for side in SIDES:
        work[side](0)
    times = {side: [] for side in SIDES}
    for r in range(1, rounds + 1):
        for side in (SIDES if r % 2 else SIDES[::-1]):
            started = clock()
            work[side](r)
            times[side].append(clock() - started)
    return times


def step_ratios(base_src, head_src, rounds: int = STEP_ROUNDS, variants=VARIANTS,
                workloads=tuple(STEP_WORKLOADS), only: dict | None = None) -> dict:
    """The step-level section: ``{workload: {variant: summary}}``, with the
    two trees loaded into this process; with ``only`` ({workload: [variant
    name, ...]}), just those cells. Run it in a fresh interpreter."""
    trees = {"base": _load_tree("bench_base", base_src), "head": _load_tree("bench_head", head_src)}
    base = trees["base"]  # renders and reads the corpus both sides run on
    out = {"rounds": rounds, "utts_per_step": STEP_UTTS, "workloads": {}}
    with tempfile.TemporaryDirectory() as tmp:
        for workload in workloads:
            chosen = [v for v in variants if only is None or v[0] in only.get(workload, ())]
            if not chosen:
                continue
            corpus, kernels = STEP_WORKLOADS[workload]
            data_dir = Path(tmp) / workload
            base.generate_dataset(base.DataSpec(n_train=STEP_UTTS, n_dev=1, n_test=1, seed=0,
                                                **corpus), data_dir)
            utts = base.load_split(data_dir, "train")
            cells = out["workloads"][workload] = {}
            for name, block, fusion in chosen:
                cfg = {"conv_block": block, "fusion": fusion, "kernels": kernels, "dim": 64,
                       "layers": 2, "heads": 4, "d_inter": 384, "n_mels": utts[0].feats.shape[1],
                       "seed": 0}
                work = {side: _side_work(trees[side], workload, cfg, utts) for side in SIDES}
                cells[name] = summarise_steps(alternate(work, rounds))
    return out


STEP_CHILD = ("import importlib.util, json, sys; "
              "spec = importlib.util.spec_from_file_location('bench_pair', sys.argv[1]); "
              "tool = importlib.util.module_from_spec(spec); spec.loader.exec_module(tool); "
              "print(json.dumps(tool.step_ratios(sys.argv[3], sys.argv[4], "
              "only=json.loads(sys.argv[2]))))")


def _run_steps(dirs: dict, only: dict | None = None) -> dict:
    """The step-level section (just the cells in ``only``, when given),
    measured in a child process of its own."""
    proc = subprocess.run([sys.executable, "-c", STEP_CHILD, str(Path(__file__).resolve()),
                           json.dumps(only), str(dirs["base"] / "src"), str(dirs["head"] / "src")],
                          capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_pair: the step-level pairs exited {proc.returncode}; "
                         f"their stderr ends:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def _parse_plan(specs: list[str]) -> list[tuple[str, int]]:
    plan = []
    for spec in specs:
        workload, _, count = spec.partition(":")
        if not count.isdigit() or int(count) < 2:
            raise SystemExit(f"bench_pair: expected WORKLOAD:PAIRS with PAIRS >= 2, got {spec!r}")
        plan.append((workload, int(count)))
    return plan


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD:PAIRS")
    parser.add_argument("--base", required=True, help="revision of the reference side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--scratch", type=Path, default=None,
                        help="directory for the two exports (default: a temp dir)")
    args = parser.parse_args(argv)
    plan = _parse_plan(args.plan)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]

    if args.scratch is not None:
        args.scratch.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="bench_pair-", dir=args.scratch))
    try:
        dirs = {side: work / side for side in SIDES}
        for d in dirs.values():
            d.mkdir()
        revs = {"base": _export_rev(args.base, dirs["base"]),
                "head": _export_worktree(dirs["head"])}
        for side in SIDES:
            revs[side]["src_sha256"] = _src_digest(dirs[side])

        workloads = {}
        env = None

        def run(pair: dict, side: str, workload: str, traced: bool = False) -> None:
            nonlocal env
            started = time.perf_counter()
            pair[side] = _run(dirs[side], side, workload, pair["seed"], seconds, traced)
            env = env or pair[side]["env"]
            del pair[side]["env"]
            print(f"{'traced ' if traced else ''}{workload} seed {pair['seed']} {side}: "
                  f"{time.perf_counter() - started:.0f} s, correct={pair[side]['correct']}",
                  file=sys.stderr)

        for workload, count in plan:
            pairs = []
            for i in range(count):
                order = SIDES if i % 2 == 0 else SIDES[::-1]
                pair = {"seed": FIRST_SEED + i, "first": order[0]}
                for side in order:
                    run(pair, side, workload)
                pairs.append(pair)
            trace = {"seed": TRACE_SEED, "first": SIDES[0]}
            for side in SIDES:
                run(trace, side, workload, traced=True)
            workloads[workload] = {
                "seconds": seconds,
                "summary": summarise(pairs, bench["end_to_end"]),
                "pairs": pairs,
                "traced": trace,
            }
        started = time.perf_counter()
        steps = _run_steps(dirs)
        slow = {workload: [name for name, cell in cells.items() if cell["ratio"] > STEP_REPEAT]
                for workload, cells in steps["workloads"].items()}
        if any(slow.values()):
            for workload, cells in _run_steps(dirs, slow)["workloads"].items():
                for name, cell in cells.items():
                    steps["workloads"][workload][name]["rerun"] = cell
                    if cell["ratio"] > STEP_REPEAT:
                        print(f"bench_pair: step cell {workload} {name} is above {STEP_REPEAT} "
                              f"twice: {steps['workloads'][workload][name]['ratio']:.3f}, then "
                              f"{cell['ratio']:.3f} in a fresh child", file=sys.stderr)
        print(f"step-level pairs: {time.perf_counter() - started:.0f} s", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "base": revs["base"],
        "head": revs["head"],
        "env": {k: v for k, v in env.items() if k not in ("git_rev", "src_sha256")},
        "workloads": workloads,
        "steps": steps,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    failed = [(workload, pair, side, traced)
              for workload, entry in workloads.items()
              for traced, pairs in ((False, entry["pairs"]), (True, [entry["traced"]]))
              for pair in pairs for side in SIDES if not pair[side]["correct"]]
    for workload, pair, side, traced in failed:
        run = pair[side]
        print(f"bench_pair: {'traced' if traced else 'untraced'} {workload} seed {pair['seed']} "
              f"on the {side} side is not correct: failed checks "
              f"[{', '.join(run['failed_checks'])}], {run['failed']} of {run['attempted']} "
              "operations failed", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
