import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonkv.budget import (FisherWeights, allocate_budget, corpus_hash, estimate_fisher,
                             group_score, group_score_full, max_achievable_ratio,
                             merge_group, prefill_cost_per_token, top_k_groups)
from commonkv.corpus import markov_byte_corpus
from commonkv.errors import ConfigurationError, InputError
from commonkv.factorization import GroupLayout
from commonkv.model import ModelConfig
from conftest import MICRO
from oracles import reference_fd_gradient


# -- scores -----------------------------------------------------------------

def _prefix(seed, tokens=10, rank=6):
    return np.random.default_rng(seed).standard_normal((tokens, rank)).astype(np.float32)


def test_identical_prefixes_score_one():
    h = _prefix(0)
    assert group_score(h, h) == pytest.approx(1.0, abs=1e-7)


def test_antipodal_prefixes_score_minus_one():
    h = _prefix(1)
    assert group_score(h, -h) == pytest.approx(-1.0, abs=1e-7)


def test_score_matches_per_token_oracle():
    a, b = _prefix(2), _prefix(3)
    expected = np.mean([
        float(a[t] @ b[t]) / (np.linalg.norm(a[t]) * np.linalg.norm(b[t]))
        for t in range(a.shape[0])])
    assert group_score(a, b) == pytest.approx(expected, abs=1e-6)


def test_zero_rows_contribute_zero():
    a, b = _prefix(4), _prefix(5)
    a[0] = 0.0
    per_token = [0.0] + [
        float(a[t] @ b[t]) / (np.linalg.norm(a[t]) * np.linalg.norm(b[t]))
        for t in range(1, a.shape[0])]
    assert group_score(a, b) == pytest.approx(np.mean(per_token), abs=1e-6)


def test_empty_prefix_rejected():
    empty = np.empty((0, 6), dtype=np.float32)
    with pytest.raises(InputError):
        group_score(empty, empty)


def test_full_score_all_identical_is_one():
    h = _prefix(6)
    assert group_score_full([h, h, h, h]) == pytest.approx(1.0, abs=1e-7)


def test_full_score_of_pair_equals_shortcut():
    a, b = _prefix(7), _prefix(8)
    assert group_score_full([a, b]) == group_score(a, b)


def test_full_score_matches_brute_force():
    prefixes = [_prefix(seed) for seed in (10, 11, 12, 13)]
    pair_means = []
    for l in range(3):
        cos = [float(prefixes[l][t] @ prefixes[l + 1][t])
               / (np.linalg.norm(prefixes[l][t]) * np.linalg.norm(prefixes[l + 1][t]))
               for t in range(10)]
        pair_means.append(np.mean(cos))
    assert group_score_full(prefixes) == pytest.approx(np.mean(pair_means), abs=1e-6)


# -- allocation ----------------------------------------------------------------

def test_top_k_selection_with_given_scores():
    cfg = ModelConfig()
    layout = GroupLayout.for_model(8, 2)         # 4 groups
    # cost(k) = 45k + (4-k)*90; ratio(2) = 1 - 270/512 ~ 0.47 is first >= 0.45
    plan = allocate_budget([0.9, 0.2, 0.8, 0.5], 0.45, layout, 45, cfg, strategy="mean")
    assert plan.merged_count == 2
    assert plan.merged_groups == [0, 2]


def test_tie_break_prefers_lower_index():
    assert top_k_groups([0.5, 0.5, 0.5], 2) == [0, 1]


def test_smallest_sufficient_k_is_chosen(toy_cfg):
    layout = GroupLayout.for_model(8, 4)
    for ratio, expected_k in ((0.0, 0), (0.2, 0), (0.3, 1), (0.5, 1), (0.6, 2)):
        plan = allocate_budget([0.1, 0.9], ratio, layout, 45, toy_cfg, strategy="mean")
        assert plan.merged_count == expected_k, ratio
        assert plan.predicted_prefill_ratio >= ratio
        assert plan.cost_per_token == prefill_cost_per_token(expected_k, 2, 4, 45)


def test_llama_shape_max_ratio():
    cfg = ModelConfig(n_layers=32, d_hidden=4096, n_q_heads=32, n_kv_heads=8,
                      d_head=128, d_mlp=8192, max_seq=8192)
    layout = GroupLayout.for_model(32, 4)
    assert max_achievable_ratio(layout, 2867, cfg) == pytest.approx(0.650, abs=1e-3)
    plan = allocate_budget([0.0] * 8, 0.65, layout, 2867, cfg, strategy="mean")
    assert plan.merged_count == 8


def test_unreachable_ratio_reports_maximum(toy_cfg):
    layout = GroupLayout.for_model(8, 4)
    with pytest.raises(ConfigurationError) as err:
        allocate_budget([0.1, 0.9], 0.9, layout, 45, toy_cfg, strategy="mean")
    best = err.value.max_achievable
    # honesty: no k in [0, G] reaches the target
    baseline = toy_cfg.n_layers * 2 * toy_cfg.d_kv
    for k in range(layout.n_groups + 1):
        ratio = 1.0 - prefill_cost_per_token(k, 2, 4, 45) / baseline
        assert ratio < 0.9
        assert ratio <= best + 1e-12


def test_zero_ratio_boundary_with_wide_rank():
    # rank > 2*d_kv: even the unmerged latent exceeds the raw cache, so
    # ratio 0 needs merges
    cfg = ModelConfig(n_layers=32, d_hidden=4096, n_q_heads=32, n_kv_heads=8,
                      d_head=128, d_mlp=8192, max_seq=8192)
    layout = GroupLayout.for_model(32, 4)
    plan = allocate_budget([0.0] * 8, 0.0, layout, 2867, cfg, strategy="mean")
    assert plan.merged_count == 4
    assert plan.predicted_prefill_ratio >= 0.0


def test_plan_deterministic(toy_cfg):
    layout = GroupLayout.for_model(8, 4)
    a = allocate_budget([0.3, 0.3], 0.5, layout, 45, toy_cfg, strategy="mean")
    b = allocate_budget([0.3, 0.3], 0.5, layout, 45, toy_cfg, strategy="mean")
    assert a.merged_groups == b.merged_groups == [0]


def _same_order(a: list[float], b: list[float]) -> bool:
    """Every pairwise ``<`` and ``==`` relation of ``a`` holds in ``b``."""
    return all((a[i] < a[j]) == (b[i] < b[j]) and (a[i] == a[j]) == (b[i] == b[j])
               for i in range(len(a)) for j in range(len(a)))


# Scaling by 0.5 rounds the subnormal 5e-324 to 0, so it ties with the zeros.
@example(scores=[0.0, 0.0, 0.0, 5e-324], scale=0.5)
@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       st.floats(0.01, 100.0))
def test_selection_invariant_under_positive_scaling(scores, scale):
    """Selection depends only on the scores' order, and ties go to the lower index.

    A positive scale keeps the order unless rounding collapses (or splits) a
    pair; then only the tie-break rule is checked, on the scaled scores.
    """
    scaled = [s * scale for s in scores]
    for k in range(5):
        expected = sorted(int(i) for i in np.argsort(-np.array(scaled), kind="stable")[:k])
        assert top_k_groups(scaled, k) == expected
        if _same_order(scores, scaled):
            assert top_k_groups(scores, k) == expected


# -- fisher ----------------------------------------------------------------------

def test_duplicated_corpus_leaves_fisher_unchanged(micro_weights):
    corpus = markov_byte_corpus(20, 3, 16)
    once = estimate_fisher(micro_weights, corpus, seed=20)
    twice = estimate_fisher(micro_weights, corpus + corpus, seed=20)
    np.testing.assert_allclose(twice.per_layer, once.per_layer, atol=1e-6)


def test_fisher_nonnegative_and_recorded(micro_weights):
    corpus = markov_byte_corpus(21, 2, 16)
    fisher = estimate_fisher(micro_weights, corpus, seed=21)
    assert all(f >= 0.0 for f in fisher.per_layer)
    assert fisher.corpus_digest == corpus_hash(corpus)
    assert fisher.seed == 21 and fisher.n_sequences == 2


def test_fisher_matches_finite_difference_estimate(micro_weights):
    corpus = markov_byte_corpus(22, 2, 10)
    fisher = estimate_fisher(micro_weights, corpus)
    tensors = micro_weights.named_tensors()
    cfg = MICRO.to_dict()
    fd_total = 0.0
    for seq in corpus:
        for name in ("layers.0.w_k", "layers.0.w_v"):
            grads = np.array([
                reference_fd_gradient(tensors, cfg, seq, name, (i, j))
                for i in range(MICRO.d_hidden) for j in range(MICRO.d_kv)])
            fd_total += np.sum(grads ** 2)
    fd_estimate = fd_total / len(corpus)
    assert fisher.per_layer[0] == pytest.approx(fd_estimate, rel=1e-2)


def test_fisher_empty_corpus_rejected(micro_weights):
    with pytest.raises(InputError):
        estimate_fisher(micro_weights, [])


def test_fisher_json_round_trip(micro_weights, tmp_path):
    fisher = estimate_fisher(micro_weights, markov_byte_corpus(23, 2, 12), seed=23)
    loaded = FisherWeights.from_json(fisher.to_json())
    assert loaded.per_layer == fisher.per_layer
    assert loaded.corpus_digest == fisher.corpus_digest


# -- merging ----------------------------------------------------------------------

def test_uniform_fisher_equals_mean():
    prefixes = [_prefix(seed) for seed in (30, 31, 32, 33)]
    mean_merge, _, _ = merge_group(prefixes, "mean")
    fisher_merge, weights, fell_back = merge_group(prefixes, "fisher",
                                                   [2.5, 2.5, 2.5, 2.5])
    assert not fell_back
    assert weights == pytest.approx([0.25] * 4)
    assert np.abs(fisher_merge - mean_merge).max() < 1e-7


def test_identical_prefixes_idempotent_under_every_strategy():
    h = _prefix(34)
    for strategy in ("mean", "shallow", "deep"):
        merged, _, _ = merge_group([h.copy() for _ in range(4)], strategy)
        assert np.abs(merged - h).max() < 1e-7
    merged, _, _ = merge_group([h.copy() for _ in range(4)], "fisher",
                               [0.1, 0.4, 0.2, 0.3])
    assert np.abs(merged - h).max() < 1e-7


def test_weighted_average_arithmetic():
    ones = np.ones((3, 4), dtype=np.float32)
    zeros = np.zeros((3, 4), dtype=np.float32)
    merged, weights, _ = merge_group([ones, zeros], "fisher", [3.0, 1.0])
    assert weights == pytest.approx([0.75, 0.25])
    np.testing.assert_allclose(merged, 0.75, atol=1e-7)


def test_shallow_and_deep_pick_extremes():
    prefixes = [_prefix(s) for s in (40, 41, 42)]
    shallow, _, _ = merge_group(prefixes, "shallow")
    deep, _, _ = merge_group(prefixes, "deep")
    np.testing.assert_array_equal(shallow, prefixes[0])
    np.testing.assert_array_equal(deep, prefixes[-1])


def test_zero_fisher_falls_back_to_mean():
    prefixes = [_prefix(s) for s in (43, 44)]
    merged, weights, fell_back = merge_group(prefixes, "fisher", [0.0, 0.0])
    assert fell_back
    assert weights == [0.5, 0.5]
    expected, _, _ = merge_group(prefixes, "mean")
    np.testing.assert_array_equal(merged, expected)


@settings(max_examples=40, deadline=None)
@given(st.integers(2, 5), st.integers(0, 10_000),
       st.sampled_from(["mean", "fisher", "shallow", "deep"]))
def test_merged_rows_stay_in_convex_hull(m, seed, strategy):
    rng = np.random.default_rng(seed)
    prefixes = [rng.standard_normal((4, 3)).astype(np.float32) for _ in range(m)]
    fisher = list(rng.random(m) + 0.01) if strategy == "fisher" else None
    merged, weights, _ = merge_group(prefixes, strategy, fisher)
    assert all(w >= 0 for w in weights)
    assert sum(weights) == pytest.approx(1.0, abs=1e-12)
    stack = np.stack(prefixes)
    low = stack.min(axis=0) - 1e-5
    high = stack.max(axis=0) + 1e-5
    assert np.all(merged >= low) and np.all(merged <= high)
