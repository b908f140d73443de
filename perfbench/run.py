"""Benchmark entry point.

    python3 perfbench/run.py --workload train-toy --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. The last line printed is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` gives
the end-to-end metrics of an untraced session. ``--trace 1`` runs the same
session untraced and then traced, reports the per-layer metrics, checks that
both trained bit-identically and that the per-layer table accounts for the
untraced step time, and writes the spans to ``perfbench/out/``. The line
before the result records the environment, the geometry, the checks and the
sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from pathlib import Path

BLAS_THREADS = 1  # ROADMAP item 1 measured one BLAS thread as faster than the default
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _import_package():
    """Import ``multiconv`` from this checkout's ``src/`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))
    try:
        import multiconv
    except ImportError as exc:
        raise SystemExit(f"perfbench: cannot import multiconv from {src}: {exc}")
    if Path(multiconv.__file__).resolve().parent != (src / "multiconv").resolve():
        raise SystemExit(f"perfbench: multiconv resolved to {multiconv.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_package()
    from measure import run_workload  # imports numpy, after the thread pinning

    try:
        record, result = run_workload(args.workload, args.seed, args.seconds,
                                      bool(args.trace), HERE / "out")
    except Exception:  # an exception is a failed attempt: report it as a result
        traceback.print_exc()
        record = {"error": traceback.format_exc()}
        result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
