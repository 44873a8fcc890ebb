"""Measurement harness: similarity profiling, perplexity, and mode sweeps.

Cache modes:

* ``baseline``          — full-KV engine, no compression
* ``commonkv``          — latent cache with budgeted cross-layer merging
* ``lowrank_perlayer``  — per-layer factorization (group size 1), no merging
* ``rawkv_meanmerge``   — full K/V tensors mean-merged across layer groups

Every compressed mode runs one session class, ``LatentSession``
(``rawkv_meanmerge`` through its subclass ``RawKVSession``, which stores K/V
rows), takes its merged groups from one rule, ``budget.allocate_budget``,
and merges them through ``LatentSession.apply_plan``; only the scores and
the row width differ.  A target that no merge count meets is refused before
any prefill.  Every reported compression ratio is recomputed from the
element-level cache audit, against full KV for the tokens the session holds;
a compressed session's audit checks itself against the storage closed form
(``LatentSession.audit``), and a mismatch is a hard failure.

The perplexity protocol splits the probe text into a prefill segment and a
teacher-forced decode segment: the prompt is prefilled, the plan's merges are
applied, and the remaining tokens are fed one by one, so the decode-segment
NLL reflects attention over the compressed cache.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np

from . import budget as budget_mod
from .budget import BudgetPlan, FisherWeights, group_score
from .corpus import markov_byte_corpus
from .errors import CapacityError, ConfigurationError, InputError, UnreachableRatioError
from .factorization import GroupLayout, SharedFactorization, build_factorization
from .latent_cache import LatentCacheStore, LatentSession, baseline_elements, compute_latent
from .model import (BaselineSession, KVCache, ModelConfig, ModelWeights, attention_block,
                    decoder_layer, nll_from_logits, project_kv, rms_norm, _check_tokens)

MODES = ("baseline", "commonkv", "lowrank_perlayer", "rawkv_meanmerge")
CSV_COLUMNS = ("mode", "target_ratio", "achieved_ratio", "nll", "cache_elements",
               "wall_ms", "seed")


# ---------------------------------------------------------------------------
# Cross-layer similarity profiling
# ---------------------------------------------------------------------------

def _collect_layer_states(weights: ModelWeights, ids: np.ndarray,
                          fact: SharedFactorization | None):
    """Prefill once over a full-KV cache, returning per-layer hidden/key/value
    (and latent) stacks; a layer's hidden stack is its input residual stream."""
    cache = KVCache(weights)
    hiddens, latents = [], []
    x = weights.embed[ids]
    for li, lw in enumerate(weights.layers):
        hiddens.append(x.copy())
        if fact is not None:
            latents.append(compute_latent(rms_norm(x, lw.attn_gain), fact.shared_for_layer(li)))
        decoder_layer(x, li, cache, 0)
    keys = [lk.keys.reshape(ids.size, -1) for lk in cache.layers]
    values = [lk.values.reshape(ids.size, -1) for lk in cache.layers]
    return hiddens, keys, values, latents


def _mean_token_cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.clip(group_score(a, b), -1.0, 1.0))


def profile_similarity(weights: ModelWeights, probe_ids,
                       fact: SharedFactorization | None = None) -> dict:
    """Adjacent-layer cosine profile of keys, values, hidden states, latents.

    Returns ``{"pairs", "means", "corpus_hash"}``: the mean token cosines of
    each (l, l+1) pair, their means over the pairs, and the probe's SHA-256.
    """
    cfg = weights.config
    ids = _check_tokens(cfg, probe_ids)
    if ids.size == 0:
        raise InputError("probe corpus is empty")
    if cfg.n_layers < 2:
        raise InputError(f"profiling compares adjacent layers; a {cfg.n_layers}-layer "
                         "model has none")
    if ids.size > cfg.max_seq:  # before any layer runs
        raise CapacityError(f"sequence of {ids.size} exceeds max_seq={cfg.max_seq}")
    hiddens, keys, values, latents = _collect_layer_states(weights, ids, fact)
    pairs = []
    for l in range(cfg.n_layers - 1):
        entry = {
            "pair": float(l),
            "key": _mean_token_cosine(keys[l], keys[l + 1]),
            "value": _mean_token_cosine(values[l], values[l + 1]),
            "hidden": _mean_token_cosine(hiddens[l], hiddens[l + 1]),
        }
        if latents:
            entry["latent"] = _mean_token_cosine(latents[l], latents[l + 1])
        pairs.append(entry)
    categories = [c for c in ("key", "value", "hidden", "latent") if c in pairs[0]]
    means = {c: float(np.mean([p[c] for p in pairs])) for c in categories}
    digest = hashlib.sha256(ids.astype("<i8").tobytes()).hexdigest()
    return {"pairs": pairs, "means": means, "corpus_hash": digest}


# ---------------------------------------------------------------------------
# Raw-KV mean-merge reference mode
# ---------------------------------------------------------------------------

class RawKVSession(LatentSession):
    """A ``LatentSession`` whose rows are full K/V, mean-merged across groups.

    Stands in for direct cross-layer sharing baselines.  Each row is ``2·d_kv``
    wide: a token's rotated keys and values, flattened.  Only four things
    differ from the latent session: the constructor, ``pair_score`` (the mean
    of two layers' key cosines and value cosines, which both score variants
    compare: first against last layer, or each adjacent pair),
    ``append(layer, xn, start)``, which projects K/V as the full-KV
    ``KVCache`` does and stores them, and ``attend(layer, q)``, which attends
    over the layer's rows and writes a multi-row call's head outputs over
    ``q``.  Like every store it reads its model from ``weights``.  The
    phases, the plan through ``budget.allocate_budget`` and the merge loop
    are ``LatentSession``'s; ``prefill_session`` always merges raw K/V by
    mean.
    """

    def __init__(self, weights: ModelWeights, group_size: int):
        cfg = weights.config
        self._open(weights, LatentCacheStore(
            cfg, GroupLayout.for_model(cfg.n_layers, group_size), 2 * cfg.d_kv))

    def pair_score(self, first: np.ndarray, second: np.ndarray) -> float:
        d_kv = self.weights.config.d_kv
        k_sim = group_score(first[:, :d_kv], second[:, :d_kv])
        v_sim = group_score(first[:, d_kv:], second[:, d_kv:])
        return 0.5 * (k_sim + v_sim)

    def append(self, layer: int, xn: np.ndarray, start: int) -> None:
        k, v = project_kv(xn, self.weights, layer, start)
        self._keep(layer, np.concatenate([k.reshape(len(xn), -1), v.reshape(len(xn), -1)],
                                         axis=1))

    def attend(self, layer: int, q: np.ndarray) -> np.ndarray:
        cfg = self.weights.config
        visible = self.store.visible_latents(layer)
        shape = (len(visible), cfg.n_kv_heads, cfg.d_head)
        return attention_block(q, visible[:, :cfg.d_kv].reshape(shape),
                               visible[:, cfg.d_kv:].reshape(shape),
                               self.weights.layers[layer].w_o, cfg)


# ---------------------------------------------------------------------------
# Perplexity under a cache mode
# ---------------------------------------------------------------------------

@dataclass
class EvalResult:
    mode: str
    nll: float
    target_ratio: float
    achieved_ratio: float
    cache_elements: int
    n_tokens: int
    plan: BudgetPlan | None = None


def _split_point(n_tokens: int, prefill_fraction: float) -> int:
    split = int(round(n_tokens * prefill_fraction))
    return min(max(split, 1), n_tokens - 1)


def prefill_session(mode: str, weights: ModelWeights, prompt_ids,
                    fact: SharedFactorization | None = None,
                    target_ratio: float = 0.0,
                    strategy: str = "mean",
                    fisher: FisherWeights | None = None,
                    score_variant: str = "shortcut",
                    group_size: int = 4):
    """A session of cache mode ``mode`` that has prefilled ``prompt_ids`` and merged.

    Returns ``(session, logits, plan)``: the prompt's logits and the budget
    plan that chose the merged groups (``None`` for ``baseline``, which
    ignores the target).  Every other mode checks the target ratio against
    its session's row width and layout before it prefills anything
    (``lowrank_perlayer`` before it factorizes), and fails with
    ``UnreachableRatioError`` where no merge count can meet it.  The session
    is ready to decode.
    """
    if mode not in MODES:
        raise ConfigurationError(f"unknown mode {mode!r}")
    if mode == "baseline":
        session = BaselineSession(weights)
        return session, session.prefill(prompt_ids), None
    if not 0.0 <= target_ratio < 1.0:  # also false for nan
        raise ConfigurationError("target ratio must be in [0, 1)")
    cfg = weights.config
    if mode == "commonkv" and fact is None:
        raise ConfigurationError("commonkv mode needs a factorized model")
    if mode == "lowrank_perlayer":
        # at most d_hidden: when 2*d_kv exceeds it, full rank already meets low targets;
        # one-layer groups merge nothing, so the rank alone decides, before factorizing
        width = max(1, min(cfg.d_hidden, int((1.0 - target_ratio) * 2 * cfg.d_kv)))
        budget_mod.merge_count(target_ratio, GroupLayout.for_model(cfg.n_layers, 1), width, cfg)
        fact = build_factorization(weights, group_size=1, rank=width)
    if mode == "rawkv_meanmerge":
        session = RawKVSession(weights, group_size)
        strategy, fisher = "mean", None
    else:
        session = LatentSession(weights, fact)
    budget_mod.merge_count(target_ratio, session.store.layout, session.store.width, cfg)
    logits = session.prefill(prompt_ids)
    return session, logits, session.plan_and_merge(target_ratio, strategy=strategy,
                                                   fisher=fisher, score_variant=score_variant)


def perplexity(mode: str, weights: ModelWeights, text_ids,
               fact: SharedFactorization | None = None,
               target_ratio: float = 0.0,
               strategy: str = "mean",
               fisher: FisherWeights | None = None,
               score_variant: str = "shortcut",
               prefill_fraction: float = 0.875,
               group_size: int = 4) -> EvalResult:
    """Teacher-forced mean NLL of ``text_ids`` under one cache mode.

    Every mode runs one path: prefill and merge (``prefill_session``),
    teacher-forced decode, audit.
    The achieved ratio is always recomputed from the session's element
    audit, against full KV for the tokens the session holds (the last token
    is never fed, so a decoding mode holds one fewer than the text).  A
    compressed session's audit raises ``NumericError`` unless it equals the
    closed form (``LatentSession.audit``); the baseline's ``KVCache`` count
    is not checked at run time.  ``prefill_fraction`` must lie in [0, 1].
    ``baseline`` prefills the whole text in one shot, bit-identical to the
    model's loss.
    """
    cfg = weights.config
    ids = _check_tokens(cfg, text_ids)
    if ids.size < 2:
        raise InputError("text must hold at least 2 tokens")
    if not 0.0 <= prefill_fraction <= 1.0:  # also false for nan
        raise ConfigurationError(f"prefill fraction {prefill_fraction} is not in [0, 1]")
    split = ids.size if mode == "baseline" else _split_point(ids.size, prefill_fraction)
    if mode == "baseline":
        target_ratio = 0.0
    session, logits, plan = prefill_session(
        mode, weights, ids[:split], fact=fact, target_ratio=target_ratio, strategy=strategy,
        fisher=fisher, score_variant=score_variant, group_size=group_size)
    # NLL over the prompt's logits plus one decode step per later token
    decoded = ids[split:-1]
    rows = [logits] + [session.decode(int(t))[None, :] for t in decoded]
    nll = nll_from_logits(np.concatenate(rows, axis=0)[: ids.size - 1], ids[1:])
    elements = session.cache_element_count()
    return EvalResult(mode=mode, nll=nll, target_ratio=target_ratio,
                      achieved_ratio=1.0 - elements / baseline_elements(cfg, split + decoded.size),
                      cache_elements=elements, n_tokens=int(ids.size), plan=plan)


# ---------------------------------------------------------------------------
# Benchmark sweep
# ---------------------------------------------------------------------------

@dataclass
class BenchRecord:
    mode: str
    target_ratio: float
    wall_ms: float
    seed: int
    achieved_ratio: float | None = None  # the measurements stay None when unreachable
    nll: float | None = None
    cache_elements: int | None = None
    unreachable: bool = False
    note: str = ""

    def csv_row(self) -> list[str]:
        measured = (["", "", ""] if self.unreachable else
                    [f"{self.achieved_ratio:.9f}", f"{self.nll:.9f}", str(self.cache_elements)])
        return [self.mode, f"{self.target_ratio:g}", *measured, f"{self.wall_ms:.3f}",
                str(self.seed)]


def bench_sweep(weights: ModelWeights, fact: SharedFactorization | None,
                ratios: list[float], modes: list[str], seeds: list[int],
                probe_tokens: int = 128, **options) -> list[BenchRecord]:
    """One record per (mode, ratio, seed); fresh session and probe per record.

    ``options`` are ``perplexity``'s keyword arguments (strategy, Fisher
    weights, score variant, prefill fraction, group size).  Baseline ignores
    the ratio axis and is run once per seed at ratio 0.  Unreachable (mode,
    ratio) pairs are recorded with empty measurements; any other error ends
    the sweep.
    """
    for mode in modes:
        if mode not in MODES:
            raise ConfigurationError(f"unknown mode {mode!r}")

    def run_one(mode: str, ratio: float, seed: int) -> BenchRecord:
        ids = markov_byte_corpus(seed, 1, probe_tokens)[0]
        start = time.perf_counter()
        try:
            res = perplexity(mode, weights, ids, fact=fact, target_ratio=ratio, **options)
            measured = dict(achieved_ratio=res.achieved_ratio, nll=res.nll,
                            cache_elements=res.cache_elements)
        except UnreachableRatioError as exc:
            measured = dict(unreachable=True, note=str(exc))
        return BenchRecord(mode=mode, target_ratio=ratio, seed=seed,
                           wall_ms=(time.perf_counter() - start) * 1e3, **measured)

    return [run_one(mode, ratio, seed)
            for mode in modes
            for ratio in ([0.0] if mode == "baseline" else ratios)
            for seed in seeds]


def records_to_csv(records: list[BenchRecord]) -> str:
    rows = [CSV_COLUMNS, *(rec.csv_row() for rec in records)]
    return "".join(",".join(row) + "\n" for row in rows)


def sweep_summary(records: list[BenchRecord], config: ModelConfig,
                  extra: dict | None = None) -> dict:
    out = {
        "config": config.to_dict(),
        "n_records": len(records),
        "unreachable": [
            {"mode": r.mode, "target_ratio": r.target_ratio, "note": r.note}
            for r in records if r.unreachable],
        "by_mode": {},
    }
    for mode in sorted({r.mode for r in records}):
        rows = [r for r in records if r.mode == mode and not r.unreachable]
        if rows:
            out["by_mode"][mode] = {
                "mean_nll": float(np.mean([r.nll for r in rows])),
                "mean_achieved_ratio": float(np.mean([r.achieved_ratio for r in rows])),
            }
    if extra:
        out.update(extra)
    return out
