"""Command-line pipeline: generate, transform, calibrate, profile, run, bench, check.

Exit codes (documented for scripting):

    0  success
    1  self-check failure or unexpected error
    2  configuration error (bad dimensions, unreachable ratio, bad flags)
    3  input error (empty corpus, short sequence)
    4  capacity error (sequence beyond max_seq, a size too large to allocate)
    5  numeric error (non-finite weights or factors, factorization
       non-convergence, audit mismatch)
    6  I/O error

Flags can also be supplied through ``--config FILE``, a flat JSON object of
flag names with dashes replaced by underscores.  It may set any optional flag
of the command except ``--out``, and the precedence is built-in defaults <
file < explicit flags.  A config-file value goes through its flag's own type
and choices, as if it were typed, and any other key is an error.  A file path
flag, which has no type, takes a JSON string, or ``null`` to leave it unset.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluation, selfcheck
from .budget import MERGE_STRATEGIES, SCORE_VARIANTS, FisherWeights, estimate_fisher
from .corpus import load_byte_file, markov_byte_corpus
from .errors import (CapacityError, CommonKVError, ConfigurationError, InputError,
                     NumericError)
from .factorization import SharedFactorization, load_factorized, transform_model
from .model import ModelConfig, ModelWeights, gen_toy_model, load_model, save_model

# the least value of each integer flag, checked on the final values before any
# model or corpus file is read (numpy generators take non-negative seeds only)
FLOORS = {"seed": 0, "tokens": 0, "samples": 1, "seq_len": 2}

# numpy's ValueErrors for a size past its largest array; any other is a bug
NUMPY_SIZE_ERRORS = ("array is too big", "Maximum allowed dimension exceeded")

EXIT_CODES = {
    ConfigurationError: 2,
    InputError: 3,
    CapacityError: 4,
    NumericError: 5,
    OSError: 6,
}


def _config_values(args: argparse.Namespace) -> dict:
    """The ``--config`` file's values, each through its flag's type and checked
    against its choices, as if it were typed.

    The file may set any optional flag of the command except ``--out``.  A
    flag with neither type nor choices (a file path) takes a string or
    ``null``, which leaves it unset.
    """
    try:
        values = json.loads(Path(args.config).read_text())
    except ValueError as exc:
        raise ConfigurationError(f"--config {args.config} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigurationError("--config must hold a JSON object")
    # argparse keeps no public list of a parser's flags
    flags = {a.dest: a for a in args.parser._actions
             if a.option_strings and not a.required and a.dest not in ("help", "config", "out")}
    for key, value in values.items():
        if key not in flags:
            raise ConfigurationError(f"--config {args.config}: unknown key {key!r}; "
                                     f"{args.command} reads {', '.join(sorted(flags))}")
        cast, choices = flags[key].type, flags[key].choices
        if cast is None and choices is None:
            if value is not None and not isinstance(value, str):
                raise ConfigurationError(f"--config {args.config}: {key}={value!r} is not "
                                         f"a string or null")
        elif cast is not None:
            try:
                value = cast(str(value))
            except ValueError:
                raise ConfigurationError(f"--config {args.config}: {key}={value!r} is not "
                                         f"a valid {cast.__name__}") from None
        if choices is not None and value not in choices:
            raise ConfigurationError(f"--config {args.config}: {key}={value!r} is not one "
                                     f"of {', '.join(choices)}")
        values[key] = value
    return values


def _check_floor(flag: str, value: int, floor: int) -> None:
    if value < floor:
        raise ConfigurationError(f"--{flag} {value} is "
                                 + ("negative" if floor == 0 else f"below {floor}"))


def _parse_list(text: str, cast, flag: str) -> list:
    """A comma-separated flag value; an unparsable item or no item at all is
    a ConfigurationError."""
    try:
        items = [cast(part) for part in str(text).split(",") if part != ""]
    except ValueError:
        raise ConfigurationError(f"--{flag} {text!r} is not a comma-separated list "
                                 f"of {cast.__name__} values") from None
    if not items:
        raise ConfigurationError(f"--{flag} {text!r} names no value; a sweep axis "
                                 f"needs at least one")
    return items


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


def _session_inputs(args, modes: list[str]):
    """``(weights, factorization, options)``: ``--model``, ``--factorized`` and
    the keyword arguments that every mode's session reads.

    The raw-KV mode groups layers as ``--factorized`` does, and an explicit
    ``--group-size`` (flag or ``--config``) must agree; without a container
    it is ``--group-size``, by default 4.
    """
    weights = load_model(args.model)
    fact = _load_factorization(args, weights)
    group_size = 4 if args.group_size is None else args.group_size
    if fact is not None:
        if args.group_size not in (None, fact.layout.group_size):
            raise ConfigurationError(f"--group-size {args.group_size} disagrees with "
                                     f"--factorized {args.factorized}, built with group "
                                     f"size {fact.layout.group_size}")
        group_size = fact.layout.group_size
    if "commonkv" in modes and fact is None:
        raise ConfigurationError("commonkv mode needs --factorized")
    fisher = _load_fisher(args.fisher_file, weights.config)
    if "commonkv" in modes and args.merge == "fisher" and fisher is None:
        raise ConfigurationError("fisher merge needs --fisher-file (see `fisher` command)")
    return weights, fact, dict(strategy=args.merge, fisher=fisher, score_variant=args.score,
                               group_size=group_size)


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_gen_toy(args) -> int:
    config = ModelConfig(n_layers=args.layers, d_hidden=args.d_hidden,
                         n_q_heads=args.q_heads, n_kv_heads=args.kv_heads,
                         d_head=args.d_head, d_mlp=args.d_mlp,
                         rope_theta=args.rope_theta, max_seq=args.max_seq)
    weights = gen_toy_model(config, args.seed)
    save_model(weights, args.out)
    print(f"wrote base model to {args.out} (seed {args.seed})")
    return 0


def cmd_transform(args) -> int:
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
    weights = load_model(args.model)
    if args.seq_len > weights.config.max_seq:  # before any sequence is built
        raise CapacityError(f"sequence of {args.seq_len} exceeds "
                            f"max_seq={weights.config.max_seq}")
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
    weights = load_model(args.model)
    fact = _load_factorization(args, weights)
    ids = _corpus_ids(args)
    report = evaluation.profile_similarity(weights, ids, fact)
    _write_json(args.out, report | {"seed": args.seed})
    means = " ".join(f"{k}={v:.3f}" for k, v in sorted(report["means"].items()))
    print(f"wrote similarity report to {args.out} ({means})")
    return 0


def cmd_run(args) -> int:
    if args.generate < 0:
        raise ConfigurationError(f"--generate {args.generate} is negative")
    weights, fact, options = _session_inputs(args, [args.mode])
    ids = _corpus_ids(args)
    result = evaluation.perplexity(args.mode, weights, ids, fact=fact, target_ratio=args.ratio,
                                   prefill_fraction=args.prefill_fraction, **options)
    payload = asdict(result) | {"seed": args.seed,
                                "plan": result.plan.to_dict() if result.plan else None}
    if args.generate:
        # every mode continues the prompt that the decoding modes score, from its
        # last logits, through the mode's own session
        prompt = ids[:evaluation._split_point(len(ids), args.prefill_fraction)]
        session, logits, _ = evaluation.prefill_session(
            args.mode, weights, prompt, fact=fact, target_ratio=args.ratio, **options)
        generated = [int(np.argmax(logits[-1]))]
        while len(generated) < args.generate:
            generated.append(int(np.argmax(session.decode(generated[-1]))))
        payload["generated_bytes"] = bytes(generated).hex()
    if args.out:
        _write_json(args.out, payload)
    print(f"mode={result.mode} nll={result.nll:.6f} "
          f"achieved_ratio={result.achieved_ratio:.6f} "
          f"cache_elements={result.cache_elements}")
    return 0


def cmd_bench(args) -> int:
    modes = _parse_list(args.modes, str, "modes")
    ratios = _parse_list(args.ratios, float, "ratios")
    seeds = _parse_list(args.seeds, int, "seeds")
    for seed in seeds:
        _check_floor("seeds", seed, FLOORS["seed"])
    weights, fact, options = _session_inputs(args, modes)
    records = evaluation.bench_sweep(weights, fact, ratios, modes, seeds,
                                     probe_tokens=args.tokens,
                                     prefill_fraction=args.prefill_fraction, **options)
    Path(args.out).write_text(evaluation.records_to_csv(records))
    if args.summary:
        _write_json(args.summary, evaluation.sweep_summary(
            records, weights.config,
            extra={"seeds": seeds, "merge": args.merge,
                   "score": args.score, "tokens": args.tokens}))
    done = sum(1 for r in records if not r.unreachable)
    print(f"wrote {len(records)} records to {args.out} "
          f"({done} measured, {len(records) - done} unreachable)")
    return 0


def cmd_check(args) -> int:
    report, ok = selfcheck.run_self_check(args.seed)
    if args.out:
        Path(args.out).write_text(report)
    sys.stdout.write(report)
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    # no flag abbreviations on any parser: `bench --seed 5` must not mean `--seeds 5`
    parser = argparse.ArgumentParser(
        prog="commonkv", allow_abbrev=False,
        description="Cross-layer shared-factor latent KV-cache engine (desk scale)")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, seeded=True):
        p = sub.add_parser(name, allow_abbrev=False, help=help)
        p.set_defaults(func=func, parser=p)
        p.add_argument("--config", help="JSON file of default flag values")
        if seeded:  # only where the command reads it
            p.add_argument("--seed", type=int, default=42, help="root seed (default 42)")
        return p

    def session_flags(p, merge):
        """The model and session flags that ``run`` and ``bench`` share."""
        p.add_argument("--model", required=True)
        p.add_argument("--factorized")
        p.add_argument("--merge", choices=MERGE_STRATEGIES, default=merge)
        p.add_argument("--score", choices=SCORE_VARIANTS, default="shortcut")
        p.add_argument("--fisher-file")
        p.add_argument("--tokens", type=int, default=128)
        p.add_argument("--prefill-fraction", type=float, default=0.875)
        p.add_argument("--group-size", type=int)

    toy = ModelConfig()
    p = command("gen-toy", cmd_gen_toy, "generate a seeded toy model container")
    p.add_argument("--out", required=True)
    p.add_argument("--layers", type=int, default=toy.n_layers)
    p.add_argument("--d-hidden", type=int, default=toy.d_hidden)
    p.add_argument("--q-heads", type=int, default=toy.n_q_heads)
    p.add_argument("--kv-heads", type=int, default=toy.n_kv_heads)
    p.add_argument("--d-head", type=int, default=toy.d_head)
    p.add_argument("--d-mlp", type=int, default=toy.d_mlp)
    p.add_argument("--max-seq", type=int, default=toy.max_seq)
    p.add_argument("--rope-theta", type=float, default=toy.rope_theta)

    p = command("transform", cmd_transform, "factorize a base model", seeded=False)
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--group-size", type=int, default=4)
    p.add_argument("--rank-fraction", type=float, default=0.7)
    p.add_argument("--report", help="sidecar report path (default OUT.report.json)")

    p = command("fisher", cmd_fisher, "estimate per-layer Fisher weights")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--samples", type=int, default=8)
    p.add_argument("--seq-len", type=int, default=64)
    p.add_argument("--corpus", help="byte file; default is the seeded generator")

    p = command("profile", cmd_profile, "cross-layer similarity report")
    p.add_argument("--model", required=True)
    p.add_argument("--factorized")
    p.add_argument("--out", required=True)
    p.add_argument("--tokens", type=int, default=96)
    p.add_argument("--corpus")

    p = command("run", cmd_run, "teacher-forced evaluation of one session")
    session_flags(p, merge="fisher")
    p.add_argument("--mode", choices=evaluation.MODES, default="commonkv")
    p.add_argument("--ratio", type=float, default=0.5)
    p.add_argument("--corpus")
    p.add_argument("--generate", type=int, default=0,
                   help="greedy tokens to append to the report")
    p.add_argument("--out", help="JSON session report path")

    p = command("bench", cmd_bench, "sweep modes x ratios x seeds into a CSV", seeded=False)
    session_flags(p, merge="mean")
    p.add_argument("--out", required=True)
    p.add_argument("--summary")
    # comma-separated lists, split by the command: --config takes a number as its text
    p.add_argument("--ratios", type=str, default="0.1,0.2,0.3,0.4,0.5,0.6")
    p.add_argument("--modes", type=str, default=",".join(evaluation.MODES))
    p.add_argument("--seeds", type=str, default="0,1,2")

    p = command("check", cmd_check, "run the invariant self-test suite")
    p.add_argument("--out", help="also write the report here")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            # the file's values become the command's defaults, so explicit flags win
            args.parser.set_defaults(**_config_values(args))
            args = parser.parse_args(argv)
        for key, floor in FLOORS.items():
            if hasattr(args, key):
                _check_floor(key.replace("_", "-"), getattr(args, key), floor)
        return args.func(args)
    except CommonKVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        for cls, code in EXIT_CODES.items():
            if isinstance(exc, cls):
                return code
        return 1
    except (MemoryError, ValueError) as exc:
        if isinstance(exc, ValueError) and not str(exc).startswith(NUMPY_SIZE_ERRORS):
            raise
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CODES[CapacityError]
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CODES[OSError]


if __name__ == "__main__":
    sys.exit(main())
