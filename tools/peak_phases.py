"""Tracemalloc peak and live bytes of each session phase at a perfbench workload's shape.

Usage, from the repository root:

    python3 tools/peak_phases.py --workload wide-prefill --seed 1

The model, factorization, Fisher weights and token stream are perfbench's
own (``perfbench.workloads`` and ``harness.set_up``, read, not changed): the
stream is the first one, which perfbench's memory pass also runs.  One
session per mode then runs under ``tracemalloc`` and the script prints one
JSON line:

    {"workload": ..., "seed": ...,
     "baseline": {"prefill": {...}, "decode": {...}},
     "commonkv": {"prefill": {...}, "merge": {...}, "decode": {...}}}

Each phase gives ``peak_bytes``, the highest traced total while it ran, and
``live_bytes``, what was still allocated when it ended, both counted from
just before the session was built.  ``decode`` is the decode step with the
highest peak, numbered from 0 in ``step``.  Unlike perfbench's memory pass,
the script keeps no logits: the prompt's logits count in the prefill peak
and are dropped before its live bytes are read.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from commonkv.latent_cache import LatentSession  # noqa: E402
from commonkv.model import BaselineSession  # noqa: E402
from perfbench import harness, workloads  # noqa: E402


def session_phases(mode: str, setup, workload, stream) -> dict:
    """One session of ``mode`` over ``stream``: each phase's peak and live bytes."""
    P, D = workload.prompt_len, workload.decode_len
    phases = {}
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]

        def phase(run):
            tracemalloc.reset_peak()
            run()
            live, peak = tracemalloc.get_traced_memory()
            return {"peak_bytes": peak - before, "live_bytes": live - before}

        if mode == "baseline":
            session = BaselineSession(setup.weights)
        else:
            session = LatentSession(setup.weights, setup.fact)
        phases["prefill"] = phase(lambda: session.prefill(stream[:P]))
        if mode != "baseline":
            phases["merge"] = phase(lambda: session.plan_and_merge(
                workload.target_ratio, workload.strategy, setup.fisher))
        # only the worst step is kept: every kept record would count as live bytes
        for step, token in enumerate(stream[P:P + D]):
            measured = phase(lambda: session.decode(int(token)))
            if step == 0 or measured["peak_bytes"] > phases["decode"]["peak_bytes"]:
                phases["decode"] = {**measured, "step": step}
    finally:
        tracemalloc.stop()
    return phases


def measure(workload, seed: int) -> dict:
    """Every mode's phases for ``workload`` at perfbench seed ``seed``."""
    seeds = workloads.derive_seeds(seed)
    setup = harness.set_up(workload, seeds, calibrate=workload.strategy == "fisher")
    stream = workloads.token_stream(seeds.streams, 0, workload.stream_len)
    out = {"workload": workload.name, "seed": seed}
    for mode in harness.MODES:
        out[mode] = session_phases(mode, setup, workload, stream)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(measure(workloads.WORKLOADS[args.workload], args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
