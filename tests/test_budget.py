import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonkv import budget, model
from commonkv.budget import (MERGE_STRATEGIES, SCORE_VARIANTS, FisherWeights, allocate_budget,
                             estimate_fisher, group_score, merge_group,
                             top_k_groups)
from commonkv.corpus import markov_byte_corpus, markov_byte_sequences
from commonkv.errors import ConfigurationError, InputError
from commonkv.factorization import GroupLayout
from commonkv.model import ModelConfig
from micro_config import MICRO
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


def test_score_variants_name_their_member_pairs():
    # a one-layer group pairs with itself, and two layers are one pair in either variant
    assert {name: [pairs(m) for m in (1, 2, 4)] for name, pairs in SCORE_VARIANTS.items()} == {
        "shortcut": [[(0, 0)], [(0, 1)], [(0, 3)]],
        "full": [[(0, 0)], [(0, 1)], [(0, 1), (1, 2), (2, 3)]],
    }


def test_full_score_matches_brute_force():
    prefixes = [_prefix(seed) for seed in (10, 11, 12, 13)]
    pair_means = []
    for l in range(3):
        cos = [float(prefixes[l][t] @ prefixes[l + 1][t])
               / (np.linalg.norm(prefixes[l][t]) * np.linalg.norm(prefixes[l + 1][t]))
               for t in range(10)]
        pair_means.append(np.mean(cos))
    full = np.mean([group_score(prefixes[i], prefixes[j]) for i, j in SCORE_VARIANTS["full"](4)])
    assert full == pytest.approx(np.mean(pair_means), abs=1e-6)


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
        assert plan.cost_per_token == expected_k * 45 + (2 - expected_k) * 4 * 45


def test_llama_shape_max_ratio():
    cfg = ModelConfig(n_layers=32, d_hidden=4096, n_q_heads=32, n_kv_heads=8,
                      d_head=128, d_mlp=8192, max_seq=8192)
    layout = GroupLayout.for_model(32, 4)
    assert 1.0 - 8 * 2867 / (32 * 2 * 8 * 128) == pytest.approx(0.650, abs=1e-3)
    plan = allocate_budget([0.0] * 8, 0.65, layout, 2867, cfg, strategy="mean")
    assert plan.merged_count == 8
    assert plan.predicted_prefill_ratio == 1.0 - 8 * 2867 / (32 * 2 * 8 * 128)


def test_unreachable_ratio_reports_maximum(toy_cfg):
    layout = GroupLayout.for_model(8, 4)
    with pytest.raises(ConfigurationError) as err:
        allocate_budget([0.1, 0.9], 0.9, layout, 45, toy_cfg, strategy="mean")
    best = err.value.max_achievable
    # honesty: no k in [0, G] reaches the target
    baseline = toy_cfg.n_layers * 2 * toy_cfg.d_kv
    for k in range(layout.n_groups + 1):
        ratio = 1.0 - (k * 45 + (2 - k) * 4 * 45) / baseline
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


def _corpus_digest(corpus) -> str:
    """SHA-256 over each sequence's length (8 bytes) and int64 ids, little-endian."""
    h = hashlib.sha256()
    for seq in corpus:
        h.update(len(seq).to_bytes(8, "little"))
        h.update(np.asarray(seq, dtype="<i8").tobytes())
    return h.hexdigest()


def test_fisher_nonnegative_and_recorded(micro_weights):
    corpus = markov_byte_corpus(21, 2, 16)
    fisher = estimate_fisher(micro_weights, corpus, seed=21)
    assert all(f >= 0.0 for f in fisher.per_layer)
    assert fisher.corpus_digest == _corpus_digest(corpus)
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


def test_fisher_converting_once_equals_the_per_sequence_loop(micro_weights, monkeypatch):
    # the model is converted to float64 once per corpus; the values are those
    # of calling loss_and_grads on the float32 model one sequence at a time
    corpus = markov_byte_corpus(24, 3, 14)
    acc = np.zeros(MICRO.n_layers)
    for seq in corpus:
        _, grads = model.loss_and_grads(micro_weights, seq)
        for l in range(MICRO.n_layers):
            acc[l] += np.sum(grads[l]["w_k"] ** 2) + np.sum(grads[l]["w_v"] ** 2)
    acc /= len(corpus)
    seen = []
    traced = budget.loss_and_grads

    def spy(weights, token_ids):
        seen.append(weights.embed.dtype)
        return traced(weights, token_ids)

    monkeypatch.setattr(budget, "loss_and_grads", spy)
    fisher = estimate_fisher(micro_weights, corpus)
    assert fisher.per_layer == [float(v) for v in acc]
    assert seen == [np.float64] * len(corpus)


def test_fisher_empty_corpus_rejected(micro_weights):
    with pytest.raises(InputError):
        estimate_fisher(micro_weights, [])
    with pytest.raises(InputError, match="empty"):
        estimate_fisher(micro_weights, iter([]))


def test_fisher_reads_a_generator_one_sequence_at_a_time(micro_weights, monkeypatch):
    # each sequence is made only after the previous one's gradients, and the
    # result equals the list's, corpus digest and count included
    events = []
    traced = budget.loss_and_grads

    def spy(weights, token_ids):
        events.append("grads")
        return traced(weights, token_ids)

    def sequences():
        for seq in markov_byte_sequences(25, 3, 12):
            events.append("made")
            yield seq

    monkeypatch.setattr(budget, "loss_and_grads", spy)
    streamed = estimate_fisher(micro_weights, sequences(), seed=25)
    assert events == ["made", "grads"] * 3
    listed = estimate_fisher(micro_weights, markov_byte_corpus(25, 3, 12), seed=25)
    assert streamed.to_json() == listed.to_json()
    assert streamed.n_sequences == 3


def test_markov_sequences_check_their_counts_before_any_is_made():
    assert [s.tobytes() for s in markov_byte_sequences(26, 3, 9)] == \
        [s.tobytes() for s in markov_byte_corpus(26, 3, 9)]
    for n, length in [(0, 9), (3, 1)]:
        with pytest.raises(InputError):
            markov_byte_sequences(26, n, length)  # raised at the call, not at the first read


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


# -- the merge phase's float64 scratch ---------------------------------------------

WIDE_PREFIX = (960, 179)  # a wide-prefill prefix: 960 prompt rows of rank 179


def _direct_cosines(a, b):
    """Token cosines from float64 copies of both prefixes and their products."""
    x, y = a.astype(np.float64), b.astype(np.float64)
    dots = np.sum(x * y, axis=-1)
    norms = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
    out = np.zeros_like(dots)
    ok = norms > 0.0
    out[ok] = dots[ok] / norms[ok]
    return out


def _direct_merge(prefixes, weights):
    """The weighted sum from a float64 copy of each member and its scaled copy."""
    merged = np.zeros(prefixes[0].shape, dtype=np.float64)
    for weight, prefix in zip(weights, prefixes):
        if weight != 0.0:
            merged += weight * prefix.astype(np.float64)
    return merged.astype(np.float32)


def test_token_cosines_equal_the_direct_formula():
    rng = np.random.default_rng(50)
    a, b = (rng.standard_normal(WIDE_PREFIX).astype(np.float32) for _ in range(2))
    a[3] = 0.0
    assert budget._token_cosines(a, b).tobytes() == _direct_cosines(a, b).tobytes()
    assert group_score(a, b) == float(np.mean(_direct_cosines(a, b)))
    # the raw-KV session scores the strided key and value halves of its rows
    raw = rng.standard_normal((960, 128)).astype(np.float32)
    halves = raw[:, :64], raw[:, 64:]
    assert budget._token_cosines(*halves).tobytes() == _direct_cosines(*halves).tobytes()


@pytest.mark.parametrize("strategy", MERGE_STRATEGIES)
def test_merged_prefix_equals_the_direct_formula(strategy):
    rng = np.random.default_rng(51)
    prefixes = [rng.standard_normal(WIDE_PREFIX).astype(np.float32) for _ in range(4)]
    fisher = [0.3, 1.7, 0.0, 2.9] if strategy == "fisher" else None
    merged, weights, _ = merge_group(prefixes, strategy, fisher)
    assert merged.tobytes() == _direct_merge(prefixes, weights).tobytes()


# B rows per merge block at the wide rank: one row, B - 1, B and B + 1 rows, 3B + 5
MERGE_WIDTH = WIDE_PREFIX[1]
MERGE_BLOCK = budget.MERGE_BLOCK_ELEMENTS // MERGE_WIDTH


@pytest.mark.parametrize("rows", [1, MERGE_BLOCK - 1, MERGE_BLOCK, MERGE_BLOCK + 1,
                                  3 * MERGE_BLOCK + 5])
@pytest.mark.parametrize("strategy", ["mean", "fisher"])
def test_merge_over_row_blocks_is_bit_identical_to_the_whole_array_sum(rows, strategy):
    rng = np.random.default_rng(rows)
    prefixes = [rng.standard_normal((rows, MERGE_WIDTH)).astype(np.float32) for _ in range(4)]
    fisher = [0.3, 1.7, 0.1, 2.9] if strategy == "fisher" else None
    merged, weights, _ = merge_group(prefixes, strategy, fisher)
    assert merged.dtype == np.float32 and merged.shape == (rows, MERGE_WIDTH)
    assert merged.tobytes() == _direct_merge(prefixes, weights).tobytes()


@pytest.mark.parametrize("rows", [1, MERGE_BLOCK - 1, MERGE_BLOCK, MERGE_BLOCK + 1,
                                  3 * MERGE_BLOCK + 5, WIDE_PREFIX[0]])
def test_token_cosines_over_row_blocks_are_bit_identical_to_the_whole_array_formula(rows):
    rng = np.random.default_rng(100 + rows)
    a, b = (rng.standard_normal((rows, MERGE_WIDTH)).astype(np.float32) for _ in range(2))
    a[rows // 2] = 0.0  # a zero row has cosine 0, in whichever block it falls
    cosines = budget._token_cosines(a, b)
    assert cosines.dtype == np.float64 and cosines.shape == (rows,)
    assert cosines.tobytes() == _direct_cosines(a, b).tobytes()


def _traced_peak(call) -> int:
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_merge_phase_holds_one_float64_prefix_beyond_its_result():
    # beyond (rows,)-sized statistics and numpy's fixed-size ufunc buffers, a
    # score holds one block's three float64 products, and a merge its float32
    # result plus one block's float64 sum and float64 term.  A score block is an
    # eighth of the prefix, so its products stay below the merge's result.
    rows, width = WIDE_PREFIX
    full64 = 8 * rows * width
    slack = 8 * 8 * rows + 4 * 8 * np.getbufsize() + 4096
    rng = np.random.default_rng(52)
    prefixes = [rng.standard_normal(WIDE_PREFIX).astype(np.float32) for _ in range(4)]
    score_blocks = 3 * 8 * (rows * width // 8)
    assert score_blocks < full64 // 2
    assert _traced_peak(lambda: group_score(prefixes[0], prefixes[-1])) <= score_blocks + slack
    merge_blocks = 2 * 8 * budget.MERGE_BLOCK_ELEMENTS
    assert _traced_peak(lambda: merge_group(prefixes, "mean")) <= full64 // 2 + merge_blocks + slack


@pytest.mark.parametrize("values", [[1e308] * 4, [1.0, float("nan"), 1.0, 1.0]],
                         ids=["overflow", "nan"])
def test_fisher_weights_without_a_finite_sum_are_refused(values):
    # [1e308] * 4 used to give weights [0, 0, 0, 0] and an all-zero merged prefix
    prefixes = [_prefix(s) for s in (45, 46, 47, 48)]
    with pytest.raises(InputError, match="not a finite number"):
        merge_group(prefixes, "fisher", values)


@pytest.mark.parametrize("per_layer", [[1e308] * 8, [10**400] + [1.0] * 7],
                         ids=["sum_overflows", "past_float64"])
def test_fisher_file_beyond_the_float_range_is_refused(per_layer):
    # the first used to load and merge to zeros, the second to raise OverflowError
    text = json.dumps({"kind": "fisher_weights", "per_layer": per_layer, "corpus_hash": "x"})
    with pytest.raises(ConfigurationError, match="finite"):
        FisherWeights.from_json(text)


# -- each strategy's weights and every refusal, exactly ---------------------------

@pytest.mark.parametrize("strategy, expected", [
    ("mean", [1.0]), ("mean", [0.5, 0.5]), ("mean", [0.25] * 4),
    ("shallow", [1.0]), ("shallow", [1.0, 0.0]), ("shallow", [1.0, 0.0, 0.0, 0.0]),
    ("deep", [1.0]), ("deep", [0.0, 1.0]), ("deep", [0.0, 0.0, 0.0, 1.0]),
])
def test_each_fixed_strategy_weights_its_members_exactly(strategy, expected):
    prefixes = [_prefix(s) for s in range(50, 50 + len(expected))]
    _, used, fell_back = merge_group(prefixes, strategy)
    assert used == expected and not fell_back


def test_fisher_weights_are_exactly_proportional():
    prefixes = [_prefix(s) for s in (60, 61, 62, 63)]
    _, used, fell_back = merge_group(prefixes, "fisher", [1, 3, 0, 4])
    assert used == [1 / 8, 3 / 8, 0.0, 4 / 8] and not fell_back


@pytest.mark.parametrize("shapes, strategy, fisher, message", [
    ([(5, 3)] * 2, "median", None, "unknown merge strategy 'median'"),
    ([(5, 3)] * 2, "fisher", None, "fisher strategy needs Fisher weights"),
    ([(5, 3)] * 2, "fisher", [1.0], "Fisher weight count does not match group size"),
    ([(5, 3)] * 2, "fisher", [1.0, -0.5], "Fisher weights must be nonnegative"),
    ([], "mean", None, "nothing to merge"),
    ([(5, 3), (4, 3)], "mean", None, "prefixes differ in shape"),
], ids=["unknown-strategy", "fisher-without-values", "fisher-count", "fisher-negative",
        "no-prefixes", "ragged"])
def test_merge_group_refusals_keep_their_type_and_message(shapes, strategy, fisher, message):
    prefixes = [np.ones(shape, dtype=np.float32) for shape in shapes]
    with pytest.raises(InputError) as err:
        merge_group(prefixes, strategy, fisher)
    assert str(err.value) == message


def test_merge_strategies_keep_their_order():
    # the order of --merge's help, --config's errors and check's lines
    assert list(MERGE_STRATEGIES) == ["mean", "fisher", "shallow", "deep"]


def test_allocate_budget_refuses_the_wrong_number_of_scores(toy_cfg):
    layout = GroupLayout.for_model(toy_cfg.n_layers, 4)
    with pytest.raises(InputError) as err:
        allocate_budget([0.5, 0.5, 0.5], 0.3, layout, 45, toy_cfg)
    assert str(err.value) == "expected 2 scores, got 3"


@pytest.mark.parametrize("first, second, message", [
    ((5, 3), (4, 3), "latent prefixes differ in shape"),
    ((0, 3), (0, 3), "cannot score an empty prefix"),
], ids=["mismatched", "empty"])
def test_group_score_refusals_keep_their_message(first, second, message):
    with pytest.raises(InputError) as err:
        group_score(np.ones(first, dtype=np.float32), np.ones(second, dtype=np.float32))
    assert str(err.value) == message


def test_plan_report_keys_are_strings_in_text_order():
    plan = budget.BudgetPlan(scores=[1.0] * 11, target_ratio=0.5, merged_groups=[2, 10],
                             strategy="mean", width=4, cost_per_token=8,
                             predicted_prefill_ratio=0.5,
                             merge_weights={2: [0.5, 0.5], 10: [0.5, 0.5]})
    written = json.loads(json.dumps(plan.to_dict(), sort_keys=True))
    assert list(written["merge_weights"]) == ["10", "2"]
