"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one line; run with ``pytest -s tests/test_acceptance.py``
to see them.  Runtime bounds are asserted alongside the numeric tolerances.
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from commonkv.budget import (allocate_budget, baseline_elements, estimate_fisher, merge_group,
                             top_k_groups)
from commonkv.corpus import markov_byte_corpus
from commonkv.errors import ConfigurationError
from commonkv.factorization import (GroupLayout, factorize_group, load_factorized,
                                    transform_model)
from commonkv.latent_cache import LatentSession, attend_latent
from commonkv.model import (BaselineSession, ModelConfig, apply_rope, build_rope_table,
                            gen_toy_model, loss_and_grads)
from micro_config import MICRO
from oracles import (engine_fd_gradient, reference_latent_attention,
                     similarity_construction_trial, singular_values_by_eig)


class Timer:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start


def report(index, name, ok, detail, timer, budget_s):
    line = (f"[criterion {index}] {'PASS' if ok else 'FAIL'} {name}: {detail} "
            f"({timer.elapsed:.1f}s / budget {budget_s}s)")
    print(line)
    assert ok, line
    assert timer.elapsed < budget_s, f"criterion {index} exceeded {budget_s}s"


def test_criterion_1_full_rank_identity():
    # 12 layers so every group size in 1..4 divides the depth
    cfg = ModelConfig(n_layers=12, max_seq=256)
    with Timer() as t:
        worst = 0.0
        for group_size in (1, 2, 3, 4):
            weights = gen_toy_model(cfg, 100 + group_size)
            blob, _ = transform_model(weights, group_size, 1.0)
            w2, fact = load_factorized(blob)
            for seed in range(5):
                ids = markov_byte_corpus(1000 * group_size + seed, 1, 64)[0]
                base = BaselineSession(weights)
                lat = LatentSession(w2, fact)
                diff = float(np.abs(base.prefill(ids[:48]) - lat.prefill(ids[:48])).max())
                plan = lat.plan_and_merge(0.0, strategy="mean")
                assert plan.merged_count == 0
                for tok in ids[48:]:
                    diff = max(diff, float(np.abs(base.decode(int(tok))
                                                  - lat.decode(int(tok))).max()))
                worst = max(worst, diff)
    report(1, "full-rank identity (group sizes 1-4, 20 sequences x 64 tokens)",
           worst < 1e-4, f"max logit diff {worst:.3e} < 1e-4", t, 60)


def test_criterion_2_factored_path_equality(fact07):
    # 12 query rows restore values; the last row alone mixes latents
    weights, fact, _ = fact07
    cfg = weights.config
    rope = build_rope_table(cfg)
    with Timer() as t:
        worst = 0.0
        for seed in range(10):
            rng = np.random.default_rng(200 + seed)
            xn = rng.standard_normal((12, cfg.d_hidden)).astype(np.float32) * 0.5
            for layer, lw in enumerate(weights.layers):
                q = apply_rope((xn @ lw.w_q).reshape(-1, cfg.n_q_heads, cfg.d_head), 0, rope)
                factors = (xn @ fact.shared_for_layer(layer), fact.k_factors[layer],
                           fact.v_factors[layer], lw.w_o)
                expected = reference_latent_attention(q, *factors, cfg.rope_theta)
                for rows in (q, q[-1:]):
                    out = attend_latent(rows.copy(), *factors, rope, cfg, fact.v_heads[layer])
                    worst = max(worst, float(np.abs(out - expected[-len(rows):]).max()))
    report(2, "factored value path vs float64 reference (all layers, both orders, 10 seeds)",
           worst < 1e-5, f"max output diff {worst:.3e} < 1e-5", t, 10)


def test_criterion_3_eckart_young_optimality():
    with Timer() as t:
        worst_tail = 0.0
        min_gap = np.inf
        for seed in range(10):
            rng = np.random.default_rng(300 + seed)
            w_g = rng.standard_normal((8, 16))
            sigma = singular_values_by_eig(w_g)
            for rank in (2, 4, 8):
                a, r = factorize_group(w_g, rank)
                err = np.linalg.norm(a @ r - w_g)
                tail = np.sqrt(np.sum(sigma[rank:] ** 2))
                worst_tail = max(worst_tail, abs(err - tail))
                for _ in range(100):
                    ar = rng.standard_normal((8, rank))
                    br = np.linalg.lstsq(ar, w_g, rcond=None)[0]
                    min_gap = min(min_gap, np.linalg.norm(ar @ br - w_g) - err)
        ok = min_gap >= -1e-9 and worst_tail < 1e-6
    report(3, "SVD optimality vs 100 random factorizations + tail formula",
           ok, f"min gap {min_gap:.3e} >= 0, tail diff {worst_tail:.3e} < 1e-6", t, 30)


def test_criterion_4_budget_audit(fact07):
    weights, fact, _ = fact07
    cfg = weights.config
    with Timer() as t:
        checked = []
        for ratio in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6):
            session = LatentSession(weights, fact)
            ids = markov_byte_corpus(400, 1, 64)[0]
            session.prefill(ids)
            scores = session.group_scores()
            try:
                plan = allocate_budget(scores, ratio, fact.layout, fact.rank, cfg,
                                       strategy="mean")
            except ConfigurationError:
                continue
            session.apply_plan(plan)
            audit = session.audit()
            assert audit.prefix_elements == plan.cost_per_token * 64
            achieved = 1.0 - session.cache_element_count() / baseline_elements(cfg, 64)
            assert achieved >= ratio, (ratio, achieved)
            assert plan.merged_groups == top_k_groups(scores, plan.merged_count)
            checked.append(ratio)
        ok = checked == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]
    report(4, "budget audit: exact element counts, achieved >= target, top-k set",
           ok, f"ratios verified {checked}", t, 30)


def test_criterion_5_fisher_correctness(micro_weights):
    ids = markov_byte_corpus(500, 1, 12)[0]
    with Timer() as t:
        _, grads = loss_and_grads(micro_weights, ids)
        rng = np.random.default_rng(501)
        worst = 0.0
        for layer in range(MICRO.n_layers):
            for name in ("w_k", "w_v"):
                for _ in range(20):
                    idx = (int(rng.integers(MICRO.d_hidden)),
                           int(rng.integers(MICRO.d_kv)))
                    fd = engine_fd_gradient(micro_weights, ids, layer, name, idx)
                    analytic = grads[layer][name][idx]
                    worst = max(worst, abs(fd - analytic) / max(abs(fd), 1e-12))
        grad_ok = worst < 1e-3

        prefixes = [np.random.default_rng(s).standard_normal((8, 5)).astype(np.float32)
                    for s in range(4)]
        mean_merge, _, _ = merge_group(prefixes, "mean")
        fisher_merge, _, _ = merge_group(prefixes, "fisher", [1.0, 1.0, 1.0, 1.0])
        merge_diff = float(np.abs(fisher_merge - mean_merge).max())
        ok = grad_ok and merge_diff < 1e-7
    report(5, "gradients vs finite differences (80 entries) + uniform-Fisher merge",
           ok, f"max grad rel err {worst:.3e} < 1e-3, merge diff {merge_diff:.3e} < 1e-7",
           t, 60)


def test_criterion_6_observation_reproduction():
    with Timer() as t:
        wins = 0
        for seed in range(20):
            latent_sim, key_sim = similarity_construction_trial(seed)
            wins += latent_sim > key_sim
    report(6, "latent similarity beats key similarity on synthetic construction",
           wins >= 18, f"{wins}/20 trials", t, 30)


def test_criterion_7_lossless_merge_boundary(fact07):
    weights, fact, _ = fact07
    ids = markov_byte_corpus(700, 1, 32)[0]
    with Timer() as t:
        worst = 0.0
        for strategy in ("mean", "fisher", "shallow", "deep"):
            plain = LatentSession(weights, fact)
            merged = LatentSession(weights, fact)
            for session in (plain, merged):
                session.prefill(ids[:24])
                for gc in session.store.groups:
                    gc.layer_prefixes = [gc.layer_prefixes[0].copy()
                                         for _ in gc.layer_prefixes]
            plan = allocate_budget(merged.group_scores(), 0.6, fact.layout, fact.rank,
                                   weights.config, strategy=strategy)
            fisher = None
            if strategy == "fisher":
                fisher = estimate_fisher(weights, markov_byte_corpus(701, 2, 16))
            merged.apply_plan(plan, fisher)
            assert plan.merged_count == len(fact.layout.groups)
            for tok in ids[24:]:
                worst = max(worst, float(np.abs(plain.decode(int(tok))
                                                - merged.decode(int(tok))).max()))
    report(7, "merging bit-identical latents leaves decode logits unchanged",
           worst < 1e-6, f"max logit diff {worst:.3e} < 1e-6 (4 strategies)", t, 10)


def test_criterion_8_gqa_ratio_arithmetic():
    cfg = ModelConfig(n_layers=32, d_hidden=4096, n_q_heads=32, n_kv_heads=8,
                      d_head=128, d_mlp=8192, max_seq=8192)
    layout = GroupLayout.for_model(32, 4)
    with Timer() as t:
        with pytest.raises(ConfigurationError) as err:
            allocate_budget([0.0] * 8, 0.7, layout, 2867, cfg, strategy="mean")
        best = err.value.max_achievable
        ok = best == pytest.approx(0.650, abs=1e-3)
    report(8, "Llama-3.1-shaped dimensions keep ratios up to 0.65 reachable",
           ok, f"max achievable ratio {best:.6f} within 0.650 +- 0.001", t, 30)


def test_criterion_9_check_determinism(tmp_path):
    with Timer() as t:
        outputs = []
        for run in range(2):
            path = tmp_path / f"check{run}.txt"
            proc = subprocess.run(
                [sys.executable, "-m", "commonkv.cli", "check", "--seed", "42",
                 "--out", str(path)],
                capture_output=True, text=True)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            outputs.append(path.read_bytes())
        ok = outputs[0] == outputs[1] and b"overall: PASS" in outputs[0]
    report(9, "self-check byte-identical across runs with one root seed",
           ok, f"{len(outputs[0])} report bytes identical", t, 60)
