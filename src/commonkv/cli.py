"""Command-line pipeline: generate, transform, calibrate, profile, run, bench, check.

Exit codes (documented for scripting):

    0  success
    1  self-check failure or unexpected error
    2  configuration error (bad dimensions, unreachable ratio, bad flags)
    3  input error (empty corpus, short sequence)
    4  capacity error (sequence beyond max_seq)
    5  numeric error (SVD non-convergence, audit mismatch)
    6  I/O error

Flags can also be supplied through ``--config FILE`` (a flat JSON object of
flag names with dashes replaced by underscores); explicit flags win.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import evaluation, selfcheck
from .budget import FisherWeights, estimate_fisher
from .corpus import load_byte_file, markov_byte_corpus
from .errors import (CapacityError, CommonKVError, ConfigurationError, InputError,
                     NumericError)
from .factorization import SharedFactorization, load_factorized, transform_model
from .latent_cache import LatentSession
from .model import ModelConfig, ModelWeights, gen_toy_model, load_model, save_model

EXIT_CODES = {
    ConfigurationError: 2,
    InputError: 3,
    CapacityError: 4,
    NumericError: 5,
    OSError: 6,
}


def _resolve(args: argparse.Namespace, defaults: dict) -> argparse.Namespace:
    """Layer precedence: built-in defaults < --config file < explicit flags."""
    cfg_file = {}
    if getattr(args, "config", None):
        try:
            cfg_file = json.loads(Path(args.config).read_text())
        except ValueError as exc:
            raise ConfigurationError(f"--config {args.config} is not valid JSON: {exc}") from None
        if not isinstance(cfg_file, dict):
            raise ConfigurationError("--config must hold a JSON object")
    for key, builtin in defaults.items():
        if getattr(args, key, None) is None:
            setattr(args, key, cfg_file.get(key, builtin))
    return args


def _parse_list(text: str, cast) -> list:
    return [cast(part) for part in str(text).split(",") if part != ""]


def _corpus_ids(args, seed_offset: int = 0) -> np.ndarray:
    if args.corpus:
        return load_byte_file(args.corpus, max_tokens=args.tokens)
    return markov_byte_corpus(args.seed + seed_offset, 1, args.tokens)[0]


def _load_fisher(path, config: ModelConfig) -> FisherWeights | None:
    """The Fisher weights file, checked against the model before any merge."""
    if not path:
        return None
    fisher = FisherWeights.from_json(Path(path).read_bytes())
    if len(fisher.per_layer) != config.n_layers:
        raise ConfigurationError(f"{path} holds Fisher weights for {len(fisher.per_layer)} "
                                 f"layers, the model has {config.n_layers}")
    return fisher


def _load_factorization(args, weights: ModelWeights) -> SharedFactorization | None:
    """``--factorized``, checked to carry the same base weights as ``--model``."""
    if not args.factorized:
        return None
    fact_weights, fact = load_factorized(args.factorized)
    if fact_weights.config != weights.config:
        mismatch = "config"
    else:
        base = weights.named_tensors()
        mismatch = next((name for name, arr in fact_weights.named_tensors().items()
                         if not np.array_equal(arr, base[name])), None)
    if mismatch:
        raise ConfigurationError(f"--factorized {args.factorized} was not built from --model "
                                 f"{args.model} (first difference: {mismatch})")
    return fact


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args) -> int:
    args = _resolve(args, {
        "seed": 42, "layers": 8, "d_hidden": 64, "q_heads": 4, "kv_heads": 2,
        "d_head": 16, "d_mlp": 128, "max_seq": 256, "rope_theta": 10000.0,
    })
    config = ModelConfig(n_layers=args.layers, d_hidden=args.d_hidden,
                         n_q_heads=args.q_heads, n_kv_heads=args.kv_heads,
                         d_head=args.d_head, d_mlp=args.d_mlp,
                         rope_theta=args.rope_theta, max_seq=args.max_seq)
    weights = gen_toy_model(config, args.seed)
    save_model(weights, args.out)
    print(f"wrote base model to {args.out} (seed {args.seed})")
    return 0


def cmd_transform(args) -> int:
    args = _resolve(args, {"group_size": 4, "rank_fraction": 0.7, "report": None})
    weights = load_model(args.model)
    blob, report = transform_model(weights, args.group_size, args.rank_fraction)
    Path(args.out).write_bytes(blob)
    report_path = args.report or str(args.out) + ".report.json"
    _write_json(report_path, report)
    worst = max(report["recon_errors"].values())
    print(f"wrote factorized model to {args.out} "
          f"(rank {report['rank']}, worst recon err {worst:.3e})")
    for warning in report["warnings"]:
        print(f"warning: {warning}", file=sys.stderr)
    return 0


def cmd_fisher(args) -> int:
    args = _resolve(args, {"seed": 42, "samples": 8, "seq_len": 64, "corpus": None})
    weights = load_model(args.model)
    if args.corpus:
        ids = load_byte_file(args.corpus)
        length = args.seq_len
        corpus = [ids[i:i + length] for i in range(0, len(ids) - length + 1, length)]
        corpus = corpus[: args.samples]
        if not corpus:
            raise InputError("corpus file too short for one calibration sequence")
    else:
        corpus = markov_byte_corpus(args.seed, args.samples, args.seq_len)
    fisher = estimate_fisher(weights, corpus, seed=args.seed)
    Path(args.out).write_text(fisher.to_json() + "\n")
    print(f"wrote Fisher weights for {len(corpus)} sequences to {args.out}")
    return 0


def cmd_profile(args) -> int:
    args = _resolve(args, {"seed": 42, "tokens": 96, "corpus": None, "factorized": None})
    weights = load_model(args.model)
    fact = _load_factorization(args, weights)
    ids = _corpus_ids(args)
    report = evaluation.profile_similarity(weights, ids, fact)
    payload = report.to_dict()
    payload["seed"] = args.seed
    _write_json(args.out, payload)
    means = " ".join(f"{k}={v:.3f}" for k, v in sorted(report.means.items()))
    print(f"wrote similarity report to {args.out} ({means})")
    return 0


def cmd_run(args) -> int:
    args = _resolve(args, {
        "mode": "commonkv", "ratio": 0.5, "merge": "fisher", "score": "shortcut",
        "seed": 42, "tokens": 128, "prefill_fraction": 0.875, "corpus": None,
        "fisher_file": None, "generate": 0, "group_size": 4, "factorized": None,
    })
    weights = load_model(args.model)
    fact = _load_factorization(args, weights)
    if args.mode == "commonkv" and fact is None:
        raise ConfigurationError("commonkv mode needs --factorized")
    fisher = _load_fisher(args.fisher_file, weights.config)
    if args.mode == "commonkv" and args.merge == "fisher" and fisher is None:
        raise ConfigurationError("fisher merge needs --fisher-file (see `fisher` command)")
    ids = _corpus_ids(args)
    result = evaluation.perplexity(
        args.mode, weights, ids, fact=fact, target_ratio=args.ratio,
        strategy=args.merge, fisher=fisher, score_variant=args.score,
        prefill_fraction=args.prefill_fraction, group_size=args.group_size)
    payload = {
        "mode": result.mode,
        "seed": args.seed,
        "n_tokens": result.n_tokens,
        "nll": result.nll,
        "target_ratio": result.target_ratio,
        "achieved_ratio": result.achieved_ratio,
        "cache_elements": result.cache_elements,
        "plan": result.plan.to_dict() if result.plan else None,
        "extras": result.extras,
    }
    if args.generate and args.mode == "commonkv":
        session = LatentSession(weights, fact)
        session.prefill(ids[: max(1, int(round(len(ids) * args.prefill_fraction)))])
        session.plan_and_merge(args.ratio, strategy=args.merge, fisher=fisher,
                               score_variant=args.score)
        token = int(ids[max(1, int(round(len(ids) * args.prefill_fraction))) - 1])
        generated = []
        for _ in range(args.generate):
            logits = session.decode(token)
            token = int(np.argmax(logits))
            generated.append(token)
        payload["generated_bytes"] = bytes(generated).hex()
    if args.out:
        _write_json(args.out, payload)
    print(f"mode={result.mode} nll={result.nll:.6f} "
          f"achieved_ratio={result.achieved_ratio:.6f} "
          f"cache_elements={result.cache_elements}")
    return 0


def cmd_bench(args) -> int:
    args = _resolve(args, {
        "ratios": "0.1,0.2,0.3,0.4,0.5,0.6",
        "modes": "baseline,commonkv,lowrank_perlayer,rawkv_meanmerge",
        "seeds": "0,1,2", "merge": "mean", "score": "shortcut", "tokens": 128,
        "prefill_fraction": 0.875, "fisher_file": None, "summary": None,
        "workers": 1, "group_size": 4, "factorized": None,
    })
    weights = load_model(args.model)
    fact = _load_factorization(args, weights)
    modes = _parse_list(args.modes, str)
    if "commonkv" in modes and fact is None:
        raise ConfigurationError("commonkv mode needs --factorized")
    fisher = _load_fisher(args.fisher_file, weights.config)
    if args.merge == "fisher" and fisher is None and "commonkv" in modes:
        raise ConfigurationError("fisher merge needs --fisher-file")
    records = evaluation.bench_sweep(
        weights, fact, _parse_list(args.ratios, float), modes,
        _parse_list(args.seeds, int), strategy=args.merge, fisher=fisher,
        score_variant=args.score, probe_tokens=args.tokens,
        prefill_fraction=args.prefill_fraction, group_size=args.group_size,
        workers=args.workers)
    Path(args.out).write_text(evaluation.records_to_csv(records))
    if args.summary:
        _write_json(args.summary, evaluation.sweep_summary(
            records, weights.config,
            extra={"seeds": _parse_list(args.seeds, int), "merge": args.merge,
                   "score": args.score, "tokens": args.tokens}))
    done = sum(1 for r in records if not r.unreachable)
    print(f"wrote {len(records)} records to {args.out} "
          f"({done} measured, {len(records) - done} unreachable)")
    return 0


def cmd_check(args) -> int:
    args = _resolve(args, {"seed": 42})
    report, ok = selfcheck.run_self_check(args.seed)
    if args.out:
        Path(args.out).write_text(report)
    sys.stdout.write(report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commonkv",
        description="Cross-layer shared-factor latent KV-cache engine (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON file of default flag values")
        p.add_argument("--seed", type=int, help="root seed (default 42)")

    p = sub.add_parser("gen-toy", help="generate a seeded toy model container")
    common(p)
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int)
    p.add_argument("--d-hidden", dest="d_hidden", type=int)
    p.add_argument("--q-heads", dest="q_heads", type=int)
    p.add_argument("--kv-heads", dest="kv_heads", type=int)
    p.add_argument("--d-head", dest="d_head", type=int)
    p.add_argument("--d-mlp", dest="d_mlp", type=int)
    p.add_argument("--max-seq", dest="max_seq", type=int)
    p.add_argument("--rope-theta", dest="rope_theta", type=float)
    p.set_defaults(func=cmd_gen_toy)

    p = sub.add_parser("transform", help="factorize a base model")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--rank-fraction", dest="rank_fraction", type=float)
    p.add_argument("--report", help="sidecar report path (default OUT.report.json)")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("fisher", help="estimate per-layer Fisher weights")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int)
    p.add_argument("--seq-len", dest="seq_len", type=int)
    p.add_argument("--corpus", help="byte file; default is the seeded generator")
    p.set_defaults(func=cmd_fisher)

    p = sub.add_parser("profile", help="cross-layer similarity report")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--factorized")
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", type=int)
    p.add_argument("--corpus")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("run", help="teacher-forced evaluation of one session")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--factorized")
    p.add_argument("--mode", choices=evaluation.MODES)
    p.add_argument("--ratio", type=float)
    p.add_argument("--merge", choices=("mean", "fisher", "shallow", "deep"))
    p.add_argument("--score", choices=("shortcut", "full"))
    p.add_argument("--fisher-file", dest="fisher_file")
    p.add_argument("--tokens", type=int)
    p.add_argument("--prefill-fraction", dest="prefill_fraction", type=float)
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--corpus")
    p.add_argument("--generate", type=int, help="greedy tokens to append to the report")
    p.add_argument("--out", help="JSON session report path")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("bench", help="sweep modes x ratios x seeds into a CSV")
    common(p)
    p.add_argument("--model", required=True)
    p.add_argument("--factorized")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    p.add_argument("--ratios")
    p.add_argument("--modes")
    p.add_argument("--seeds")
    p.add_argument("--merge", choices=("mean", "fisher", "shallow", "deep"))
    p.add_argument("--score", choices=("shortcut", "full"))
    p.add_argument("--fisher-file", dest="fisher_file")
    p.add_argument("--tokens", type=int)
    p.add_argument("--prefill-fraction", dest="prefill_fraction", type=float)
    p.add_argument("--group-size", dest="group_size", type=int)
    p.add_argument("--workers", type=int)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("check", help="run the invariant self-test suite")
    common(p)
    p.add_argument("--out", help="also write the report here")
    p.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CommonKVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CODES[OSError]


if __name__ == "__main__":
    sys.exit(main())
