"""Deterministic invariant suite behind the ``check`` command.

Every check derives its inputs from the root seed alone and reports only
computed values, so two runs with the same seed emit byte-identical text.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .budget import MERGE_STRATEGIES, allocate_budget, estimate_fisher, top_k_groups
from .corpus import markov_byte_corpus
from .errors import NumericError, UnreachableRatioError
from .factorization import (GroupLayout, factorize_group, transform_model,
                            load_factorized)
from .latent_cache import LatentSession, baseline_elements
from .model import BaselineSession, ModelConfig, gen_toy_model, loss_and_grads


def _fd_gradient(weights, seq, layer, name, i, j, step=1e-4):
    """Central difference with the realized float32 step in the denominator."""
    arr = getattr(weights.layers[layer], name)
    orig = arr[i, j].copy()
    arr[i, j] = np.float32(float(orig) + step)
    hp = float(arr[i, j]) - float(orig)
    lp, _ = loss_and_grads(weights, seq)
    arr[i, j] = np.float32(float(orig) - step)
    hm = float(arr[i, j]) - float(orig)
    lm, _ = loss_and_grads(weights, seq)
    arr[i, j] = orig
    return (lp - lm) / (hp - hm)


def _max_logit_diff(model_seed: int, group_size: int, rank_fraction: float, ids,
                    n_prefill: int, reconstructed: bool) -> float:
    """Largest logit gap, over ``n_prefill`` prefill tokens and a decode of the
    rest, between a latent session that merges nothing and a full-KV session
    over the toy model or, if ``reconstructed``, over K/V projections
    ``A @ B_k`` and ``A @ B_v``: the model the latent session equals at any rank.
    """
    weights = gen_toy_model(ModelConfig(), model_seed)
    w2, fact = load_factorized(transform_model(weights, group_size, rank_fraction)[0])
    if reconstructed:
        weights = replace(w2, layers=[
            replace(lw, w_k=fact.shared_for_layer(l) @ fact.k_factors[l],
                    w_v=fact.shared_for_layer(l) @ fact.v_factors[l])
            for l, lw in enumerate(w2.layers)])
    base = BaselineSession(weights)
    lat = LatentSession(w2, fact)
    diff = float(np.abs(base.prefill(ids[:n_prefill]) - lat.prefill(ids[:n_prefill])).max())
    lat.plan_and_merge(0.0, strategy="mean")
    for t in ids[n_prefill:]:
        diff = max(diff, float(np.abs(base.decode(int(t)) - lat.decode(int(t))).max()))
    return diff


def _check_full_rank_identity(seed: int) -> tuple[bool, str]:
    worst = max(_max_logit_diff(seed + offset, group_size, 1.0,
                                markov_byte_corpus(seed + 10 * group_size + offset, 1, 48)[0],
                                40, reconstructed=False)
                for group_size in (1, 2, 4) for offset in range(2))
    return worst < 1e-4, f"max_logit_diff={worst:.3e} tol=1e-4"


def _check_factored_path(seed: int) -> tuple[bool, str]:
    # rank fraction 0.7: prefill restores values, each decode step mixes latents
    worst = max(_max_logit_diff(seed + offset, 4, 0.7,
                                markov_byte_corpus(seed + 100 + offset, 1, 40)[0],
                                32, reconstructed=True)
                for offset in range(3))
    return worst < 1e-5, f"max_logit_diff={worst:.3e} tol=1e-5"


def _check_eckart_young(seed: int) -> tuple[bool, str]:
    rng = np.random.default_rng(seed + 7)
    worst_gap = np.inf     # min over cases of (random error - svd error)
    worst_tail = 0.0
    for _ in range(3):
        w_g = rng.standard_normal((8, 16))
        sigma_sq = np.sort(np.clip(np.linalg.eigvalsh(w_g.T @ w_g), 0.0, None))[::-1]
        for rank in (2, 4, 8):
            a, r = factorize_group(w_g, rank)
            err = np.linalg.norm(a @ r - w_g)
            tail = np.sqrt(max(np.sum(sigma_sq[rank:]), 0.0))
            worst_tail = max(worst_tail, abs(err - tail))
            for _ in range(20):
                ar = rng.standard_normal((8, rank))
                br = np.linalg.lstsq(ar, w_g, rcond=None)[0]
                worst_gap = min(worst_gap, np.linalg.norm(ar @ br - w_g) - err)
    ok = worst_gap >= -1e-9 and worst_tail < 1e-6
    return ok, f"min_random_gap={worst_gap:.3e} tail_formula_diff={worst_tail:.3e}"


def _check_budget_audit(seed: int) -> tuple[bool, str]:
    cfg = ModelConfig()
    weights = gen_toy_model(cfg, seed)
    blob, _ = transform_model(weights, 4, 0.7)
    w2, fact = load_factorized(blob)
    ids = markov_byte_corpus(seed + 3, 1, 48)[0]
    checked = 0
    for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
        lat = LatentSession(w2, fact)
        lat.prefill(ids)
        try:
            plan = lat.plan_and_merge(ratio, strategy="mean")
            audit = lat.audit()  # raises NumericError off the closed form
        except UnreachableRatioError:
            continue
        except NumericError as exc:
            return False, f"audit mismatch at ratio {ratio}: {exc}"
        achieved = 1.0 - audit.total_elements / baseline_elements(cfg, ids.size)
        if achieved < ratio:
            return False, f"achieved {achieved:.4f} < target {ratio}"
        if plan.merged_groups != top_k_groups(plan.scores, plan.merged_count):
            return False, f"merged set differs from top-k at ratio {ratio}"
        checked += 1
    return checked > 0, f"ratios_checked={checked}"


def _check_fd_gradients(seed: int) -> tuple[bool, str]:
    # two KV heads, so a gradient routed to the wrong head's columns shows
    cfg = ModelConfig(n_layers=2, d_hidden=8, n_q_heads=4, n_kv_heads=2,
                      d_head=2, d_mlp=16, max_seq=32)
    weights = gen_toy_model(cfg, seed + 1)
    seq = markov_byte_corpus(seed + 2, 1, 12)[0]
    _, grads = loss_and_grads(weights, seq)
    rng = np.random.default_rng(seed + 5)
    worst = 0.0
    for layer in range(cfg.n_layers):
        for name in ("w_k", "w_v"):
            for kv in range(cfg.n_kv_heads):  # one entry in each KV head's columns
                i = int(rng.integers(cfg.d_hidden))
                j = kv * cfg.d_head + int(rng.integers(cfg.d_head))
                fd = _fd_gradient(weights, seq, layer, name, i, j)
                g = grads[layer][name][i, j]
                worst = max(worst, abs(fd - g) / max(abs(fd), 1e-12))
    return worst < 1e-3, f"max_rel_err={worst:.3e} tol=1e-3"


def _check_lossless_merge(seed: int) -> tuple[bool, str]:
    weights = gen_toy_model(ModelConfig(), seed)
    blob, _ = transform_model(weights, 4, 0.7)
    w2, fact = load_factorized(blob)
    ids = markov_byte_corpus(seed + 4, 1, 24)[0]
    worst = 0.0
    for strategy in MERGE_STRATEGIES:
        ref, merged = LatentSession(w2, fact), LatentSession(w2, fact)
        for session in (ref, merged):
            session.prefill(ids[:16])
            for gc in session.store.groups:  # force bit-identical member prefixes
                gc.layer_prefixes = [gc.layer_prefixes[0].copy() for _ in gc.layer_prefixes]
        fisher = None
        if strategy == "fisher":
            fisher = estimate_fisher(weights, markov_byte_corpus(seed + 6, 2, 12))
        merged.plan_and_merge(0.5, strategy, fisher)
        for t in ids[16:24]:
            worst = max(worst, float(np.abs(ref.decode(int(t))
                                            - merged.decode(int(t))).max()))
    return worst < 1e-6, f"max_logit_diff={worst:.3e} tol=1e-6"


def _check_gqa_arithmetic(_: int) -> tuple[bool, str]:
    cfg = ModelConfig(n_layers=32, d_hidden=4096, n_q_heads=32, n_kv_heads=8,
                      d_head=128, d_mlp=8192, max_seq=8192)
    layout = GroupLayout.for_model(32, 4)
    try:
        allocate_budget([0.0] * 8, 0.66, layout, 2867, cfg)
    except UnreachableRatioError as exc:
        best = exc.max_achievable
        return abs(best - 0.650) < 1e-3, f"max_achievable={best:.6f} expect 0.650+-0.001"
    return False, "0.66 unexpectedly reachable"


CHECKS = (
    ("full_rank_identity", _check_full_rank_identity),
    ("factored_path_equality", _check_factored_path),
    ("eckart_young_optimality", _check_eckart_young),
    ("budget_audit", _check_budget_audit),
    ("fd_gradients", _check_fd_gradients),
    ("lossless_merge_boundary", _check_lossless_merge),
    ("gqa_ratio_arithmetic", _check_gqa_arithmetic),
)


def run_self_check(seed: int) -> tuple[str, bool]:
    """Run every invariant check; returns (report_text, all_passed)."""
    lines = [f"commonkv self-check (root seed {seed})"]
    passed = 0
    for name, fn in CHECKS:
        ok, detail = fn(seed)
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        passed += ok
    all_ok = passed == len(CHECKS)
    lines.append(f"overall: {'PASS' if all_ok else 'FAIL'} ({passed}/{len(CHECKS)})")
    return "\n".join(lines) + "\n", all_ok
