"""Each phase's bytes, logit digests and audited ratio at a perfbench workload.

Usage, from the repository root:

    python3 tools/session_facts.py --workload wide-decode --seed 7

The model, factorization, Fisher weights and token stream are perfbench's
own (``perfbench.workloads`` and ``harness.set_up``, read, not changed): the
stream is the first one, which perfbench's memory pass also runs.  One
session per mode runs it as perfbench does (one BLAS thread; prefill the
prompt, plan and merge for commonkv, then one teacher-forced decode step per
input token) under ``tracemalloc``, and the script prints one JSON line:

    {"workload": ..., "seed": ...,
     "baseline": {"prefill": {...}, "decode": {...}},
     "commonkv": {"prefill": {...}, "merge": {...}, "decode": {...}},
     "logit_drift": <float>}

Each phase gives ``peak_bytes``, the highest traced total while it ran, and
``live_bytes``, what was still allocated when it ended, both counted from
just before the session was built.  One untraced session per mode runs
first, so that what numpy and Python keep from a first call in the process
counts in no phase.  ``decode`` is the decode step with the highest peak,
numbered from 0 in ``step``.  ``achieved_ratio`` is
``1 - elements / budget.baseline_elements(config, tokens held)``, read after
the phase's bytes: the elements are ``cache_element_count()``, which for
commonkv is the session's own ``audit()`` (closed form and checksums).
Decode reads it once, after its last step.

The decode entry's ``multiply_adds`` gives, for each of ``restore_keys``,
``attend_latent``, ``attention_block``, ``compute_latent`` and ``mlp_block``,
the multiply-adds of its matrix products summed over every decode step,
counted from operand shapes in the untraced session (see ``MULTIPLY_ADDS``).
A call's count leaves out the counted functions it calls: ``attend_latent``
counts its scores, latent mix, ``B_v`` and ``W_o``, or, when it restores
values instead, ``H @ B_v`` only (``restore_keys`` and ``attention_block``
count the rest).  The counts follow from shapes alone, so they read the same
for any version of the program that does the same work.

Every logit is copied into a ``(P, vocab)`` or ``(D, vocab)`` float32 buffer
made before ``tracemalloc`` starts, so the logits count in no phase's bytes
apart from the one that returns them.  ``sha256`` in the prefill and decode
entries hashes those buffers, so equal digests mean bit-identical logits.
``logit_drift`` is perfbench's drift over this one stream: the last prompt
row and every decode row, ``sqrt(sum((c - b)^2) / sum(b^2))`` in float64.
Unlike perfbench's, it does not move with how many sessions a run fits in.

perfbench's memory pass reads a higher session peak than this decode peak
(wide-decode commonkv: 4.43 MB against 4.13 MB).  It keeps the prompt's last
logit row, a view that holds all ``(P, vocab)`` prefill logits (0.26 MB)
alive through merge and decode, and its per-step timings (about 34 KB).

This checkout's ``src`` goes on the import path after whatever is already
there, so ``PYTHONPATH=other/src python3 tools/session_facts.py ...``
measures another version of ``commonkv`` on the same workloads.  A change
that moves rounding can say by how much: ``--save FILE.npz`` writes every
logit of the run, and a run with ``--against FILE.npz`` (same workload and
seed, else exit 2) adds ``max_abs_diff``, the largest |logit difference|
taken in float64, to each prefill and decode entry.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import sys
import tracemalloc
from contextlib import contextmanager, nullcontext
from pathlib import Path

if __name__ == "__main__":   # one BLAS thread, as perfbench runs, set before numpy loads
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
for path in (ROOT / "src", ROOT):
    if str(path) not in sys.path:
        sys.path.append(str(path))

from commonkv import budget  # noqa: E402
from commonkv.latent_cache import LatentSession  # noqa: E402
from commonkv.model import BaselineSession  # noqa: E402
from perfbench import harness, spans, workloads  # noqa: E402


def _attend_latent(q, latents, k_factor, v_factor, w_o, rope, config, *_, restored_values):
    tq, (tk, rank) = q.shape[0], latents.shape
    if restored_values:   # H @ B_v; attention_block counts the scores and the rest
        return tk * v_factor.size
    n_q, d_head = config.n_q_heads, config.d_head
    return n_q * tq * (tk * d_head + tk * rank + rank * d_head) + tq * w_o.size


# counted function -> (its module, the multiply-adds of one call from its
# arguments); attention is counted dense, as a decode row computes it
MULTIPLY_ADDS = {
    "restore_keys": ("commonkv.latent_cache",
                     lambda latents, k_factor, *_: latents.shape[0] * k_factor.size),
    "attend_latent": ("commonkv.latent_cache", _attend_latent),
    "attention_block": ("commonkv.model", lambda q, keys, values, w_o, config:
                        2 * q.shape[0] * keys.shape[0] * q[0].size + q.shape[0] * w_o.size),
    "compute_latent": ("commonkv.latent_cache", lambda x, shared: x.shape[0] * shared.size),
    "mlp_block": ("commonkv.model",
                  lambda x, lw: x.shape[0] * (lw.w_in.size + lw.w_out.size)),
}


@contextmanager
def counting_multiply_adds(counts: dict[str, int]):
    """Add each ``MULTIPLY_ADDS`` call's count to ``counts`` while inside.

    Every binding of a counted function in the ``commonkv`` package is
    replaced by a counting wrapper, as perfbench's tracer does, and restored
    on exit.  ``attend_latent`` is told whether it called ``attention_block``,
    that is, whether it restored values."""
    undo = []

    def wrap(name, fn, count):
        def counted(*args):
            blocks = counts["attention_block"]
            out = fn(*args)
            extra = ({"restored_values": counts["attention_block"] > blocks}
                     if name == "attend_latent" else {})
            counts[name] += count(*args, **extra)
            return out
        return counted

    try:
        for name, (module, count) in MULTIPLY_ADDS.items():
            original = getattr(importlib.import_module(module), name)
            wrapped = wrap(name, original, count)
            for mod, attr in list(spans._bindings(original)):
                undo.append((mod, attr, original))
                setattr(mod, attr, wrapped)
        yield counts
    finally:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)


def session_phases(mode: str, setup, workload, stream, logits: dict[str, np.ndarray],
                   multiply_adds: dict[str, int] | None = None) -> dict:
    """One session of ``mode`` over ``stream``: each phase's bytes and ratio.

    Its logits are copied into ``logits["prefill"]`` and ``logits["decode"]``.
    The bytes count from the call on while ``tracemalloc`` traces, else read 0.
    Given ``multiply_adds``, the decode steps' counts are added to it."""
    cfg, P, D = workload.config, workload.prompt_len, workload.decode_len
    phases = {}

    # made before tracing starts, so that no phase counts them
    def phase(run, out):
        tracemalloc.reset_peak()
        if out is None:
            run()
        else:
            out[...] = run()
        live, peak = tracemalloc.get_traced_memory()
        return {"peak_bytes": peak - before, "live_bytes": live - before}

    def ratio(tokens):
        return 1.0 - session.cache_element_count() / budget.baseline_elements(cfg, tokens)

    before = tracemalloc.get_traced_memory()[0]
    if mode == "baseline":
        session = BaselineSession(setup.weights)
    else:
        session = LatentSession(setup.weights, setup.fact)
    phases["prefill"] = phase(lambda: session.prefill(stream[:P]), logits["prefill"])
    phases["prefill"]["achieved_ratio"] = ratio(P)
    if mode != "baseline":
        phases["merge"] = phase(lambda: session.plan_and_merge(
            workload.target_ratio, workload.strategy, setup.fisher), None)
        phases["merge"]["achieved_ratio"] = ratio(P)
    # only the worst step is kept: every kept record would count as live bytes
    with (nullcontext() if multiply_adds is None else counting_multiply_adds(multiply_adds)):
        for step, token in enumerate(stream[P:P + D]):
            measured = phase(lambda: session.decode(int(token)), logits["decode"][step])
            if step == 0 or measured["peak_bytes"] > phases["decode"]["peak_bytes"]:
                phases["decode"] = {**measured, "step": step}
    phases["decode"]["achieved_ratio"] = ratio(P + D)
    return phases


def logit_drift(logits: dict) -> float:
    """perfbench's drift of commonkv from baseline over the last prompt row
    and every decode row."""
    base, comp = (np.concatenate([logits[mode]["prefill"][-1:], logits[mode]["decode"]])
                  for mode in harness.MODES)
    b64 = base.astype(np.float64)
    return math.sqrt(float(np.sum((comp.astype(np.float64) - b64) ** 2))
                     / float(np.sum(b64 ** 2)))


def measure(workload, seed: int):
    """Every mode's facts for ``workload`` at perfbench seed ``seed``, and the
    logits as ``{mode: {phase: rows}}``."""
    seeds = workloads.derive_seeds(seed)
    setup = harness.set_up(workload, seeds, calibrate=workload.strategy == "fisher")
    stream = workloads.token_stream(seeds.streams, 0, workload.stream_len)
    vocab = workload.config.vocab_size
    out = {"workload": workload.name, "seed": seed}
    logits = {mode: {"prefill": np.empty((workload.prompt_len, vocab), np.float32),
                     "decode": np.empty((workload.decode_len, vocab), np.float32)}
              for mode in harness.MODES}
    # one untraced session per mode first, so that what numpy and Python keep
    # from a first call in the process counts in no traced phase; it also
    # counts the multiply-adds, so that no wrapper runs while tracing
    multiply_adds = {mode: dict.fromkeys(MULTIPLY_ADDS, 0) for mode in harness.MODES}
    for mode in harness.MODES:
        session_phases(mode, setup, workload, stream, logits[mode], multiply_adds[mode])
    for mode in harness.MODES:
        gc.collect()
        tracemalloc.start()
        try:
            out[mode] = session_phases(mode, setup, workload, stream, logits[mode])
        finally:
            tracemalloc.stop()
        for phase, rows in logits[mode].items():
            out[mode][phase]["sha256"] = hashlib.sha256(rows).hexdigest()
        out[mode]["decode"]["multiply_adds"] = multiply_adds[mode]
    out["logit_drift"] = logit_drift(logits)
    return out, logits


def add_max_abs_diff(out: dict, logits: dict, saved: dict[str, np.ndarray]) -> None:
    """Give each logit phase of ``out`` the largest |difference| of its logits
    from ``saved``, whose keys are ``"<mode>.<phase>"``; a shape that differs
    is a ValueError."""
    for mode, phases in logits.items():
        for phase, rows in phases.items():
            other = saved[f"{mode}.{phase}"]
            if other.shape != rows.shape:
                raise ValueError(f"{mode} {phase} logits are {rows.shape}, saved {other.shape}")
            out[mode][phase]["max_abs_diff"] = float(
                np.max(np.abs(rows.astype(np.float64) - other)))


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
    out, logits = measure(workloads.WORKLOADS[args.workload], args.seed)
    if saved is not None:
        try:
            add_max_abs_diff(out, logits, saved)
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
