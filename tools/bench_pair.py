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
metrics, traced or not, stops the comparison and writes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("base", "head")
FIRST_SEED = 41
TRACE_SEED = 3


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
    finally:
        shutil.rmtree(work, ignore_errors=True)

    out = {
        "base": revs["base"],
        "head": revs["head"],
        "env": {k: v for k, v in env.items() if k not in ("git_rev", "src_sha256")},
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
