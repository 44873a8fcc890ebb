"""SHA-256 digests of every logit a perfbench workload's sessions compute.

Usage, from the repository root:

    python3 tools/logit_digest.py --workload wide-decode --seed 7

The model, factorization, Fisher weights and token stream are perfbench's
own (``perfbench.workloads`` and ``harness.set_up``, read, not changed): the
stream is the first one, which perfbench's memory pass also runs.  One
session per mode runs it as perfbench does (prefill the prompt, plan and
merge for commonkv, then one teacher-forced decode step per input token),
and the script prints one JSON line:

    {"workload": ..., "seed": ...,
     "baseline": {"prefill": <sha256>, "decode": <sha256>},
     "commonkv": {"prefill": <sha256>, "decode": <sha256>}}

``prefill`` hashes the prompt's (P, vocab) float32 logits and ``decode``
every decode step's logit row, in order, so equal lines mean bit-identical
logits.  This checkout's ``src`` goes on the import path after whatever is
already there, so ``PYTHONPATH=other/src python3 tools/logit_digest.py ...``
digests another version of ``commonkv`` against the same workloads.

A change that moves rounding can say by how much: ``--save FILE.npz`` writes
every logit of the run, and a run of another version with ``--against
FILE.npz`` (same workload and seed, else exit 2) adds to its line

    "max_abs_diff": {"baseline": {"prefill": <float>, "decode": <float>},
                     "commonkv": {"prefill": <float>, "decode": <float>}}

the largest |logit difference| of each mode and phase, taken in float64.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.append(str(path))

from commonkv.latent_cache import LatentSession  # noqa: E402
from commonkv.model import BaselineSession  # noqa: E402
from perfbench import harness, workloads  # noqa: E402


def session_logits(mode: str, setup, workload, stream) -> dict[str, np.ndarray]:
    """One session of ``mode`` over ``stream``: its prefill logits and the
    (decode_len, vocab) logit rows of its decode steps."""
    P, D = workload.prompt_len, workload.decode_len
    if mode == "baseline":
        session = BaselineSession(setup.weights)
    else:
        session = LatentSession(setup.weights, setup.fact)
    prefill = session.prefill(stream[:P])
    if mode != "baseline":
        session.plan_and_merge(workload.target_ratio, workload.strategy, setup.fisher)
    return {"prefill": prefill,
            "decode": np.stack([session.decode(int(token)) for token in stream[P:P + D]])}


def workload_logits(workload, seed: int) -> dict[str, dict[str, np.ndarray]]:
    """Every mode's logits for ``workload`` at perfbench seed ``seed``."""
    seeds = workloads.derive_seeds(seed)
    setup = harness.set_up(workload, seeds, calibrate=workload.strategy == "fisher")
    stream = workloads.token_stream(seeds.streams, 0, workload.stream_len)
    return {mode: session_logits(mode, setup, workload, stream) for mode in harness.MODES}


def digests(logits: dict) -> dict:
    """The SHA-256 of each mode's and phase's logits."""
    return {mode: {phase: hashlib.sha256(rows).hexdigest() for phase, rows in phases.items()}
            for mode, phases in logits.items()}


def max_abs_diff(logits: dict, saved: dict[str, np.ndarray]) -> dict:
    """Largest |difference| of each mode's and phase's logits from ``saved``,
    whose keys are ``"<mode>.<phase>"``; a shape that differs is a ValueError."""
    out = {}
    for mode, phases in logits.items():
        out[mode] = {}
        for phase, rows in phases.items():
            other = saved[f"{mode}.{phase}"]
            if other.shape != rows.shape:
                raise ValueError(f"{mode} {phase} logits are {rows.shape}, saved {other.shape}")
            out[mode][phase] = float(np.max(np.abs(rows.astype(np.float64) - other)))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--save", metavar="FILE.npz", help="write every logit of this run")
    parser.add_argument("--against", metavar="FILE.npz",
                        help="report max |logit difference| from a --save of the same run")
    args = parser.parse_args(argv)
    saved = None
    if args.against:
        try:
            with np.load(args.against) as npz:
                saved = dict(npz)
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read {args.against}: {exc}")
        found = [saved.pop(key, np.array(None)).item() for key in ("workload", "seed")]
        if found != [args.workload, args.seed]:
            parser.error(f"{args.against} holds another workload or seed")
    logits = workload_logits(workloads.WORKLOADS[args.workload], args.seed)
    out = {"workload": args.workload, "seed": args.seed, **digests(logits)}
    if saved is not None:
        try:
            out["max_abs_diff"] = max_abs_diff(logits, saved)
        except (KeyError, ValueError) as exc:
            parser.error(f"{args.against} does not match this run: {exc}")
    if args.save:
        with open(args.save, "wb") as f:
            np.savez(f, workload=args.workload, seed=args.seed,
                     **{f"{mode}.{phase}": rows for mode, phases in logits.items()
                        for phase, rows in phases.items()})
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
