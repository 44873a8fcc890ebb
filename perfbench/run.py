"""Run one benchmark workload and print its metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload wide-decode --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: end-to-end metrics
with ``--trace 0``, per-layer metrics with ``--trace 1``.  The exit code is
0 only when every session passed its correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # one BLAS thread, set before numpy loads, so timings do not depend on
    # how many cores the host lends the run
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    src = ROOT / "src"
    # the program under test is the checkout's own source, never an installed copy
    if not (src / "commonkv" / "__init__.py").is_file():
        print(f"perfbench: no program at {src / 'commonkv'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    try:
        from perfbench import harness
        from perfbench.workloads import WORKLOADS
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    result, lines = harness.run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds,
                                          bool(args.trace), ROOT / ".perfbench")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
