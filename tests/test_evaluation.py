import numpy as np
import pytest

from commonkv import evaluation, latent_cache
from commonkv.budget import estimate_fisher, group_score, stored_elements
from commonkv.corpus import markov_byte_corpus
from commonkv.errors import (CapacityError, ConfigurationError, InputError, NumericError,
                             UnreachableRatioError)
from commonkv.evaluation import (CSV_COLUMNS, MODES, RawKVSession, bench_sweep, perplexity,
                                 profile_similarity, records_to_csv, sweep_summary)
from commonkv.factorization import (build_factorization, clamp_rank, load_factorized,
                                   transform_model)
from commonkv.latent_cache import SUFFIX_CHUNK_ROWS, LatentCacheStore, LatentSession
from commonkv.model import BaselineSession, ModelConfig, gen_toy_model
from oracles import sequence_nll, similarity_construction_trial


def test_baseline_mode_equals_model_loss(toy_weights, probe_ids):
    res = perplexity("baseline", toy_weights, probe_ids)
    assert res.nll == pytest.approx(sequence_nll(toy_weights, probe_ids), abs=1e-6)
    assert res.achieved_ratio == 0.0


def test_commonkv_identity_configuration_matches_baseline(toy_weights, fact_full,
                                                          probe_ids):
    weights, fact = fact_full
    base = perplexity("baseline", toy_weights, probe_ids)
    res = perplexity("commonkv", weights, probe_ids, fact=fact, target_ratio=0.0,
                     strategy="mean")
    assert res.plan.merged_count == 0
    assert res.nll == pytest.approx(base.nll, abs=1e-5)


def test_uniform_logit_model_gives_log_vocab_in_every_mode(probe_ids):
    cfg = ModelConfig()
    weights = gen_toy_model(cfg, 5)
    weights.lm_head[:] = 0.0
    blob, _ = transform_model(weights, 4, 0.7)
    w2, fact = load_factorized(blob)
    for mode in MODES:
        res = perplexity(mode, w2 if mode == "commonkv" else weights,
                         probe_ids[:64], fact=fact, target_ratio=0.3, strategy="mean")
        assert res.nll == pytest.approx(np.log(256), abs=1e-12), mode


def test_nll_finite_and_nonnegative(toy_weights, fact07, probe_ids):
    weights, fact, _ = fact07
    for mode, ratio in (("baseline", 0.0), ("commonkv", 0.5),
                        ("lowrank_perlayer", 0.4), ("rawkv_meanmerge", 0.5)):
        res = perplexity(mode, weights, probe_ids, fact=fact, target_ratio=ratio,
                         strategy="mean")
        assert np.isfinite(res.nll) and res.nll >= 0.0


def test_lowrank_target_below_full_rank_ratio_runs_at_full_rank(probe_ids):
    # multi-head KV: 2*d_kv = 128 > d_hidden = 64, so target 0.1 would ask for
    # rank 115; full rank 64 is lossless and already stores half of full KV
    weights = gen_toy_model(ModelConfig(n_kv_heads=4), 5)
    res = perplexity("lowrank_perlayer", weights, probe_ids[:48], target_ratio=0.1)
    assert res.plan.width == 64 and res.achieved_ratio >= 0.5
    base = perplexity("baseline", weights, probe_ids[:48])
    assert res.nll == pytest.approx(base.nll, abs=1e-4)


def test_fisher_strategy_runs_end_to_end(toy_weights, fact07, probe_ids):
    weights, fact, _ = fact07
    fisher = estimate_fisher(weights, markov_byte_corpus(31, 2, 32), seed=31)
    res = perplexity("commonkv", weights, probe_ids, fact=fact, target_ratio=0.5,
                     strategy="fisher", fisher=fisher)
    merged = res.plan.merged_groups
    assert merged and all(len(res.plan.merge_weights[g]) == 4 for g in merged)
    for g in merged:
        assert sum(res.plan.merge_weights[g]) == pytest.approx(1.0)


def test_rawkv_merges_the_budgets_group_count(toy_weights, probe_ids):
    # two groups of four 64-wide layers: each merged group stores 3/8 fewer
    # prefill rows, so 0.3 merges one group and 0.5 both (round(0.5 * 2) was 1)
    for target, count in ((0.3, 1), (0.5, 2)):
        res = perplexity("rawkv_meanmerge", toy_weights, probe_ids, target_ratio=target,
                         group_size=4)
        assert (res.plan.merged_count, res.plan.width, res.plan.strategy) == (count, 64, "mean")
        assert res.plan.predicted_prefill_ratio == 3 * count / 8 >= target
        assert res.plan.merge_weights == {g: [0.25] * 4 for g in res.plan.merged_groups}
        # audited elements already cross-checked inside; ratio recomputed from
        # them against full KV for the held tokens: the last one is never fed
        assert res.achieved_ratio == pytest.approx(
            1.0 - res.cache_elements / (8 * 2 * 32 * (res.n_tokens - 1)))


@pytest.mark.parametrize("mode", ["lowrank_perlayer", "rawkv_meanmerge"])
def test_lossless_target_zero_reports_no_compression(toy_weights, probe_ids, mode):
    # full rank 64 per layer and raw K/V with no merge both store exactly full
    # KV; the ratio used to read 1/128 because it counted the unfed last token
    res = perplexity(mode, toy_weights, probe_ids, target_ratio=0.0)
    assert res.cache_elements == 8 * 2 * 32 * (probe_ids.size - 1)
    assert res.achieved_ratio == 0.0


@pytest.mark.parametrize("mode, target", [("commonkv", 0.9), ("lowrank_perlayer", 0.99),
                                          ("rawkv_meanmerge", 0.9)])
def test_unreachable_target_is_refused_before_any_work(fact07, probe_ids, monkeypatch,
                                                       mode, target):
    # the merge count depends only on row width, layout and config, so no
    # factorization or prefill is needed to find that no count meets the target
    def fail(*args, **kwargs):
        raise AssertionError("work done for an unreachable target")

    monkeypatch.setattr(evaluation, "build_factorization", fail)
    monkeypatch.setattr(latent_cache, "forward", fail)
    weights, fact, _ = fact07
    with pytest.raises(UnreachableRatioError, match="unreachable at width"):
        perplexity(mode, weights, probe_ids, fact=fact, target_ratio=target)


@pytest.mark.parametrize("group_size, target, maximum", [(4, 0.9, 0.75), (2, 0.6, 0.5),
                                                         (1, 0.1, 0.0)])
def test_rawkv_target_beyond_merging_every_group_is_unreachable(toy_weights, probe_ids,
                                                                 group_size, target, maximum):
    # one-layer groups store as many rows merged as unmerged: only 0 is reachable
    with pytest.raises(UnreachableRatioError, match="maximum achievable") as exc:
        perplexity("rawkv_meanmerge", toy_weights, probe_ids, target_ratio=target,
                   group_size=group_size)
    assert exc.value.max_achievable == maximum


@pytest.mark.parametrize("mode", ["commonkv", "lowrank_perlayer", "rawkv_meanmerge"])
@pytest.mark.parametrize("target", [float("nan"), float("inf"), -0.2, 1.0, 1.5])
def test_target_ratio_outside_zero_one_is_rejected_before_any_mode_branch(
        toy_weights, probe_ids, mode, target):
    # commonkv without a factorization would fail in its branch, and
    # lowrank_perlayer would pick its rank from the target
    with pytest.raises(ConfigurationError, match="target ratio"):
        perplexity(mode, toy_weights, probe_ids, target_ratio=target)


def test_audit_mismatch_is_fatal(toy_weights, fact07, probe_ids, monkeypatch):
    weights, fact, _ = fact07
    original = LatentSession.plan_and_merge

    def corrupted(self, *args, **kwargs):
        plan = original(self, *args, **kwargs)
        plan.cost_per_token += 1
        return plan

    monkeypatch.setattr(LatentSession, "plan_and_merge", corrupted)
    with pytest.raises(NumericError):
        perplexity("commonkv", weights, probe_ids, fact=fact, target_ratio=0.5,
                   strategy="mean")


def test_extra_decode_row_fails_the_whole_session_audit(toy_weights, fact07, probe_ids,
                                                        monkeypatch):
    # the prefill part still matches the plan; only the whole-session closed form
    # sees a decode row stored twice.  The row goes to layer 0 on the last decode
    # step, after layer 0 has attended, so the logits are untouched.
    weights, fact, _ = fact07
    n_layers = weights.config.n_layers
    split = round(probe_ids.size * 0.875)
    calls = []
    original = LatentCacheStore.append_decode

    def one_row_too_many(self, layer, latents):
        original(self, layer, latents)
        calls.append(layer)
        if len(calls) == n_layers * (probe_ids.size - 1 - split):
            original(self, 0, latents)

    monkeypatch.setattr(LatentCacheStore, "append_decode", one_row_too_many)
    with pytest.raises(NumericError, match="closed form"):
        perplexity("commonkv", weights, probe_ids, fact=fact, target_ratio=0.5,
                   strategy="mean")
    assert len(calls) == n_layers * (probe_ids.size - 1 - split)


# The toy model has 8 layers and stores 2 * d_kv = 64 elements per layer per
# token at full K/V; commonkv latents are 45 wide at rank fraction 0.7, and
# lowrank_perlayer's rank is int((1 - target) * 64).  Per group size: the
# target ratio, and each mode's (row width, merged groups, layers per group).
# Merging one-layer raw-KV groups saves nothing, so at group size 1 raw-KV
# runs at target 0 (any higher target is unreachable).
STORAGE_CASES = {
    1: (0.2, {"baseline": (64, 0, 1), "commonkv": (45, 0, 1),
              "lowrank_perlayer": (51, 0, 1), "rawkv_meanmerge": (64, 0, 1)}),
    2: (0.45, {"baseline": (64, 0, 1), "commonkv": (45, 2, 2),
               "lowrank_perlayer": (35, 0, 1), "rawkv_meanmerge": (64, 4, 2)}),
    4: (0.5, {"baseline": (64, 0, 1), "commonkv": (45, 1, 4),
              "lowrank_perlayer": (32, 0, 1), "rawkv_meanmerge": (64, 2, 4)}),
}


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("group_size", sorted(STORAGE_CASES))
def test_every_stores_audit_equals_the_storage_model(toy_weights, mode, group_size):
    # decode lengths around one sealed suffix chunk; baseline prefills everything
    target, shapes = STORAGE_CASES[group_size]
    width, merged, members = shapes[mode]
    if mode == "rawkv_meanmerge" and group_size == 1:
        target = 0.0
    rank = clamp_rank(0.7, toy_weights.config, group_size)
    fact = build_factorization(toy_weights, group_size, rank) if mode == "commonkv" else None
    for decode_len in (0, 1, SUFFIX_CHUNK_ROWS - 1, SUFFIX_CHUNK_ROWS, SUFFIX_CHUNK_ROWS + 1):
        n = 16 + 1 + decode_len
        res = perplexity(mode, toy_weights, markov_byte_corpus(decode_len, 1, n)[0], fact=fact,
                         target_ratio=target, strategy="mean", prefill_fraction=16 / n,
                         group_size=group_size)
        prefill, decode = (n, 0) if mode == "baseline" else (16, decode_len)
        expected = width * ((8 - merged * (members - 1)) * prefill + 8 * decode)
        assert res.cache_elements == expected, (mode, decode_len)
        assert stored_elements(toy_weights.config, width, prefill, decode,
                               merged_count=merged, group_size=members) == expected
        assert (res.plan is None) == (mode == "baseline")
        if res.plan is not None:
            assert res.plan.merged_count == merged


@pytest.mark.parametrize("fraction", [float("nan"), float("inf"), -0.5, 1.5])
def test_prefill_fraction_outside_zero_one_is_rejected_before_any_mode_branch(
        toy_weights, probe_ids, fraction):
    # commonkv without a factorization would fail in its branch, so the
    # fraction must be checked first
    for mode in MODES:
        with pytest.raises(ConfigurationError, match="prefill fraction"):
            perplexity(mode, toy_weights, probe_ids, prefill_fraction=fraction)


@pytest.mark.parametrize("fraction, same_split", [(0.0, 1 / 32), (1.0, 31 / 32)])
def test_prefill_fraction_bounds_clamp_to_one_token(toy_weights, fraction, same_split):
    ids = markov_byte_corpus(3, 1, 32)[0]
    a, b = (perplexity("rawkv_meanmerge", toy_weights, ids, target_ratio=0.5,
                       prefill_fraction=f) for f in (fraction, same_split))
    assert (a.nll, a.cache_elements) == (b.nll, b.cache_elements)


@pytest.mark.parametrize("group_size", [1, 2, 4])
def test_rawkv_session_without_merges_equals_baseline_bitwise(toy_weights, group_size):
    # 70 decode steps: each layer's suffix seals one 64-row chunk and keeps a tail
    ids = markov_byte_corpus(5, 1, 110)[0]
    raw, base = RawKVSession(toy_weights, group_size), BaselineSession(toy_weights)
    assert raw.prefill(ids[:40]).tobytes() == base.prefill(ids[:40]).tobytes()
    assert raw.plan_and_merge(0.0).merged_groups == []
    for t in ids[40:]:
        assert raw.decode(int(t)).tobytes() == base.decode(int(t)).tobytes()
    assert raw.cache_element_count() == base.cache_element_count()


def test_rawkv_session_merges_once(toy_weights, probe_ids):
    raw = RawKVSession(toy_weights, group_size=4)
    raw.prefill(probe_ids[:32])
    raw.plan_and_merge(0.3)
    with pytest.raises(InputError, match="already planned"):
        raw.plan_and_merge(0.3)


def test_rawkv_merged_prefix_mutated_in_place_fails_the_audit(toy_weights, probe_ids):
    raw = RawKVSession(toy_weights, group_size=4)
    raw.prefill(probe_ids[:32])
    (gi,) = raw.plan_and_merge(0.3).merged_groups
    raw.decode(int(probe_ids[32]))
    raw.cache_element_count()
    raw.store.groups[gi].shared_prefix[3, 1] += 1.0
    with pytest.raises(NumericError, match=f"group {gi}"):
        raw.cache_element_count()



def _mean_cosine(a, b):
    """Float64 mean over tokens of the cosine between two rows."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    return float(np.mean(np.sum(a * b, axis=1)
                         / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))))


@pytest.mark.parametrize("group_size", [1, 2, 4])
def test_rawkv_group_scores_follow_the_score_variant(toy_weights, probe_ids, group_size):
    # "full" used to return the shortcut's first-against-last scores
    raw = RawKVSession(toy_weights, group_size)
    raw.prefill(probe_ids[:32])
    d_kv = toy_weights.config.d_kv

    def kv_score(a, b):
        return 0.5 * (_mean_cosine(a[:, :d_kv], b[:, :d_kv])
                      + _mean_cosine(a[:, d_kv:], b[:, d_kv:]))

    prefixes = [gc.layer_prefixes for gc in raw.store.groups]
    shortcut, full = raw.group_scores("shortcut"), raw.group_scores("full")
    # the shortcut is, bit for bit, the mean of first-vs-last key and value scores
    assert shortcut == [0.5 * (group_score(p[0][:, :d_kv], p[-1][:, :d_kv])
                               + group_score(p[0][:, d_kv:], p[-1][:, d_kv:]))
                        for p in prefixes]
    np.testing.assert_allclose(
        full, [np.mean([kv_score(a, b) for a, b in zip(p, p[1:])] or [kv_score(p[0], p[0])])
               for p in prefixes], rtol=0, atol=1e-12)
    # one adjacent pair per group (or none) leaves nothing for the variants to differ on
    assert (shortcut != full) == (group_size > 2)


# -- bench ---------------------------------------------------------------------

def test_bench_records_and_csv_format(toy_weights, fact07):
    weights, fact, _ = fact07
    records = bench_sweep(weights, fact, [0.3, 0.9], list(MODES), [0],
                          strategy="mean", probe_tokens=64)
    csv_text = records_to_csv(records)
    header, *rows = csv_text.strip().split("\n")
    assert header == ",".join(CSV_COLUMNS)
    assert len(rows) == len(records)

    by_key = {(r.mode, r.target_ratio): r for r in records}
    assert by_key[("baseline", 0.0)].achieved_ratio == 0.0
    ck = by_key[("commonkv", 0.3)]
    assert ck.achieved_ratio >= 0.3
    # 0.9 is beyond the rank-45 ceiling: recorded, not fatal
    assert by_key[("commonkv", 0.9)].unreachable
    assert "maximum achievable" in by_key[("commonkv", 0.9)].note
    lr = by_key[("lowrank_perlayer", 0.3)]
    assert lr.achieved_ratio >= 0.3
    summary = sweep_summary(records, weights.config)
    assert summary["unreachable"]
    assert "commonkv" in summary["by_mode"]


def test_mode_isolation_under_permutation(toy_weights, fact07):
    weights, fact, _ = fact07
    forward = bench_sweep(weights, fact, [0.5], list(MODES), [1, 2],
                          strategy="mean", probe_tokens=64)
    backward = bench_sweep(weights, fact, [0.5], list(reversed(MODES)), [1, 2],
                           strategy="mean", probe_tokens=64)

    def key(rec):
        return (rec.mode, rec.target_ratio, rec.seed)

    def payload(rec):
        return (rec.achieved_ratio, rec.nll, rec.cache_elements, rec.unreachable)

    assert {key(r): payload(r) for r in forward} == {key(r): payload(r) for r in backward}


# -- similarity profile ------------------------------------------------------------

def test_profile_values_in_range(toy_weights, fact07, probe_ids):
    _, fact, _ = fact07
    report = profile_similarity(toy_weights, probe_ids[:64], fact)
    for entry in report["pairs"]:
        for category in ("key", "value", "hidden", "latent"):
            assert -1.0 <= entry[category] <= 1.0
    assert set(report["means"]) == {"key", "value", "hidden", "latent"}


def test_profile_self_similarity_channel():
    from commonkv.evaluation import _mean_token_cosine
    h = np.random.default_rng(0).standard_normal((9, 7)).astype(np.float32)
    assert _mean_token_cosine(h, h) == pytest.approx(1.0, abs=1e-7)


def test_profile_without_factorization_skips_latent(toy_weights, probe_ids):
    report = profile_similarity(toy_weights, probe_ids[:48])
    assert set(report["means"]) == {"key", "value", "hidden"}


def test_construction_trial_prefers_latents():
    wins = sum(1 for seed in range(5)
               if (lambda p: p[0] > p[1])(similarity_construction_trial(seed)))
    assert wins >= 4


def test_rawkv_decode_past_max_seq_raises_capacity_error(micro_weights):
    session = RawKVSession(micro_weights, group_size=1)
    max_seq = micro_weights.config.max_seq
    session.prefill(markov_byte_corpus(3, 1, max_seq)[0])
    with pytest.raises(CapacityError):
        session.decode(65)
    assert session.store.decode_positions.size == 0
