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
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.append(str(path))

from commonkv.latent_cache import LatentSession  # noqa: E402
from commonkv.model import BaselineSession  # noqa: E402
from perfbench import harness, workloads  # noqa: E402


def session_digests(mode: str, setup, workload, stream) -> dict:
    """One session of ``mode`` over ``stream``: digests of its prefill and decode logits."""
    P, D = workload.prompt_len, workload.decode_len
    if mode == "baseline":
        session = BaselineSession(setup.weights)
    else:
        session = LatentSession(setup.weights, setup.fact)
    out = {"prefill": hashlib.sha256(session.prefill(stream[:P])).hexdigest()}
    if mode != "baseline":
        session.plan_and_merge(workload.target_ratio, workload.strategy, setup.fisher)
    decode = hashlib.sha256()
    for token in stream[P:P + D]:
        decode.update(session.decode(int(token)))
    out["decode"] = decode.hexdigest()
    return out


def digest(workload, seed: int) -> dict:
    """Every mode's digests for ``workload`` at perfbench seed ``seed``."""
    seeds = workloads.derive_seeds(seed)
    setup = harness.set_up(workload, seeds, calibrate=workload.strategy == "fisher")
    stream = workloads.token_stream(seeds.streams, 0, workload.stream_len)
    out = {"workload": workload.name, "seed": seed}
    for mode in harness.MODES:
        out[mode] = session_digests(mode, setup, workload, stream)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    print(json.dumps(digest(workloads.WORKLOADS[args.workload], args.seed)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
