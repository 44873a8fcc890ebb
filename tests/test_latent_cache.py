import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonkv import budget, latent_cache, model
from commonkv.budget import FisherWeights, allocate_budget
from commonkv.corpus import markov_byte_corpus
from commonkv.errors import InputError, NumericError
from commonkv.evaluation import RawKVSession
from commonkv.factorization import GroupLayout, load_factorized, transform_model
from commonkv.latent_cache import (SUFFIX_CHUNK_ROWS, LatentCacheStore, LatentSession,
                                   attend_latent, baseline_elements, compute_latent,
                                   restore_keys)
from commonkv.model import (BaselineSession, ModelConfig, apply_rope, attention_block,
                            build_rope_table, forward_baseline, gen_toy_model, rms_norm)
from oracles import reference_latent_attention


# -- latent projection ---------------------------------------------------------

def test_identity_projection():
    x = np.random.default_rng(0).standard_normal((6, 8)).astype(np.float32)
    np.testing.assert_array_equal(compute_latent(x, np.eye(8, dtype=np.float32)), x)


def test_zero_input():
    a = np.random.default_rng(1).standard_normal((8, 5)).astype(np.float32)
    assert not compute_latent(np.zeros((4, 8), dtype=np.float32), a).any()


def test_orthonormal_columns_preserve_cosine():
    # QR gives the orthonormal basis; rows built inside its column span keep
    # their pairwise cosine under the projection.
    rng = np.random.default_rng(2)
    q, _ = np.linalg.qr(rng.standard_normal((8, 5)))
    a = q.astype(np.float32)  # (8, 5), orthonormal columns
    u = rng.standard_normal((2, 5)).astype(np.float32)
    x = u @ a.T
    h = compute_latent(x, a)

    def cos(p, q_):
        return float(p @ q_ / (np.linalg.norm(p) * np.linalg.norm(q_)))

    assert cos(h[0], h[1]) == pytest.approx(cos(x[0], x[1]), abs=1e-6)


# -- key restoration ------------------------------------------------------------

def test_restored_keys_match_baseline_cache(fact_full, probe_ids):
    weights, fact = fact_full
    cfg = weights.config
    rope = build_rope_table(cfg)
    session = BaselineSession(weights)
    session.prefill(probe_ids[:32])
    x = weights.embed[probe_ids[:32]]
    worst = 0.0
    for layer, lw in enumerate(weights.layers):
        xn = rms_norm(x, lw.attn_gain)
        h = compute_latent(xn, fact.shared_for_layer(layer))
        restored = restore_keys(h, fact.k_factors[layer], rope, cfg.n_kv_heads)
        worst = max(worst, np.abs(restored - session.cache.layers[layer].keys).max())
        # advance x exactly as the baseline does
        q = apply_rope((xn @ lw.w_q).reshape(-1, cfg.n_q_heads, cfg.d_head), 0, rope)
        x = x + attention_block(q, session.cache.layers[layer].keys,
                                session.cache.layers[layer].values, lw.w_o, cfg)
        from commonkv.model import mlp_block
        x = x + mlp_block(rms_norm(x, lw.mlp_gain), lw)
    assert worst < 1e-5


def test_zero_factor_restores_zero_keys(toy_cfg):
    rope = build_rope_table(toy_cfg)
    h = np.random.default_rng(3).standard_normal((5, 45)).astype(np.float32)
    b_k = np.zeros((45, toy_cfg.d_kv), dtype=np.float32)
    assert not restore_keys(h, b_k, rope, toy_cfg.n_kv_heads).any()


def test_restoration_is_stateless(fact07):
    weights, fact, _ = fact07
    rope = build_rope_table(weights.config)
    h = np.random.default_rng(4).standard_normal((7, fact.rank)).astype(np.float32)
    one = restore_keys(h, fact.k_factors[2], rope, weights.config.n_kv_heads)
    two = restore_keys(h, fact.k_factors[2], rope, weights.config.n_kv_heads)
    assert one.tobytes() == two.tobytes()


# -- attention over latents -------------------------------------------------------

def test_latent_attention_matches_baseline_at_full_rank(fact_full):
    weights, fact = fact_full
    cfg = weights.config
    rope = build_rope_table(cfg)
    rng = np.random.default_rng(5)
    xn = rng.standard_normal((10, cfg.d_hidden)).astype(np.float32) * 0.3
    for layer in (0, 3, 7):
        lw = weights.layers[layer]
        q = apply_rope((xn @ lw.w_q).reshape(-1, cfg.n_q_heads, cfg.d_head), 0, rope)
        # full-KV attention in float64: the normed rows under the layer's own W_k, W_v
        baseline = reference_latent_attention(q, xn, lw.w_k, lw.w_v, lw.w_o, cfg.rope_theta)
        h = compute_latent(xn, fact.shared_for_layer(layer))
        latent = attend_latent(q, h, fact.k_factors[layer], fact.v_factors[layer], lw.w_o,
                               rope, cfg, fact.v_heads[layer])
        assert np.abs(latent - baseline).max() < 1e-5


def test_singleton_softmax(fact07):
    weights, fact, _ = fact07
    cfg = weights.config
    rope = build_rope_table(cfg)
    rng = np.random.default_rng(6)
    h = rng.standard_normal((1, fact.rank)).astype(np.float32)
    q = rng.standard_normal((1, cfg.n_q_heads, cfg.d_head)).astype(np.float32)
    w_o = weights.layers[0].w_o
    out = attend_latent(q, h, fact.k_factors[0], fact.v_factors[0], w_o, rope, cfg,
                        fact.v_heads[0])
    # one key takes all the weight: each query head reads its KV head's value row
    values = (h.astype(np.float64) @ fact.v_factors[0]).reshape(cfg.n_kv_heads, cfg.d_head)
    expected = np.repeat(values, cfg.heads_per_kv, axis=0).reshape(1, -1) @ w_o
    np.testing.assert_allclose(out, expected, atol=1e-6)


def test_factored_session_matches_float64_reference_through_merge_and_decode(
        fact07, probe_ids, monkeypatch):
    # prefill takes the restore-values order, decode steps the mix-latents
    # order; each layer's output in both, over merged prefixes too, is checked
    # against the float64 reference built from that layer's own factors
    weights, fact, _ = fact07
    n_layers = weights.config.n_layers
    diffs = []

    def checked(q, latents, *args, **kwargs):
        # the reference first: a session's call writes its head outputs over q
        layer = len(diffs) % n_layers
        expected = reference_latent_attention(
            q, latents, fact.k_factors[layer], fact.v_factors[layer],
            weights.layers[layer].w_o, weights.config.rope_theta)
        out = attend_latent(q, latents, *args, **kwargs)
        diffs.append(float(np.abs(out - expected).max()))
        return out

    monkeypatch.setattr(latent_cache, "attend_latent", checked)
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:48])
    session.plan_and_merge(0.5, "mean")
    assert session.plan.merged_groups
    for t in probe_ids[48:64]:
        session.decode(int(t))
    assert len(diffs) == 17 * n_layers
    assert max(diffs) < 1e-5


def _force_identical_prefixes(session):
    for gc in session.store.groups:
        gc.layer_prefixes = [gc.layer_prefixes[0].copy() for _ in gc.layer_prefixes]


def test_merged_identical_latents_change_nothing(fact07, probe_ids):
    weights, fact, _ = fact07
    plain = LatentSession(weights, fact)
    merged = LatentSession(weights, fact)
    for s in (plain, merged):
        s.prefill(probe_ids[:24])
        _force_identical_prefixes(s)
    plan = allocate_budget(merged.group_scores(), 0.6, fact.layout, fact.rank,
                           weights.config, strategy="mean")
    assert plan.merged_count == len(fact.layout.groups)
    merged.apply_plan(plan)
    for t in probe_ids[24:32]:
        diff = np.abs(plain.decode(int(t)) - merged.decode(int(t))).max()
        assert diff < 1e-6


# -- decode bookkeeping --------------------------------------------------------

def test_suffix_lengths_count_decode_steps(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:16])
    session.plan_and_merge(0.3, strategy="mean")
    for k, t in enumerate(probe_ids[16:21], start=1):
        session.decode(int(t))
        assert all(s.shape[0] == k for s in session.store.suffixes)


def test_decode_without_prefill_matches_baseline(fact_full, probe_ids):
    weights, fact = fact_full
    latent = LatentSession(weights, fact)
    base = BaselineSession(weights)
    for t in probe_ids[:6]:
        diff = np.abs(latent.decode(int(t)) - base.decode(int(t))).max()
        assert diff < 1e-5


def test_merged_group_suffixes_stay_per_layer(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:16])
    session.plan_and_merge(0.6, strategy="mean")   # merges both groups
    for t in probe_ids[16:20]:
        session.decode(int(t))
    group0 = list(fact.layout.layers_of(0))
    assert session.store.suffixes[group0[0]].tobytes() \
        != session.store.suffixes[group0[1]].tobytes()


def test_zero_fisher_fallback_recorded_in_plan(fact07, probe_ids):
    from commonkv.budget import FisherWeights
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:16])
    plan = allocate_budget(session.group_scores(), 0.5, fact.layout, fact.rank,
                           weights.config, strategy="fisher")
    session.apply_plan(plan, FisherWeights(per_layer=[0.0] * 8, corpus_digest="none"))
    assert plan.warnings and "fell back to mean" in plan.warnings[0]
    assert all(w == 0.25 for ws in plan.merge_weights.values() for w in ws)


def test_session_rejects_mismatched_factorization(fact07):
    from commonkv.model import ModelConfig, gen_toy_model
    _, fact, _ = fact07
    other = gen_toy_model(ModelConfig(n_layers=4), 1)
    with pytest.raises(InputError):
        LatentSession(other, fact)


@pytest.mark.parametrize("kind", ["latent", "rawkv"])
def test_prefill_rejected_after_merge(fact07, probe_ids, kind):
    session = SESSIONS[kind](*fact07[:2])
    session.prefill(probe_ids[:8])
    session.plan_and_merge(0.0, strategy="mean")
    with pytest.raises(InputError):
        session.prefill(probe_ids[8:12])


# a first plan that merged nothing used to accept a second one, which merged
# group 1 after five decode rows and replaced the plan; after a plan that did
# merge, the refusal read "scores must be computed before merging"
@pytest.mark.parametrize("first_ratio", [0.0, 0.3])
def test_a_session_plans_once(fact07, probe_ids, first_ratio):
    session = LatentSession(*fact07[:2])
    session.prefill(probe_ids[:32])
    plan = session.plan_and_merge(first_ratio)
    for t in probe_ids[32:37]:
        session.decode(int(t))
    merged = [gc.merged for gc in session.store.groups]
    audit = session.audit()

    def no_scoring(*args):
        raise AssertionError("a refused plan scored a group")

    session.pair_score = no_scoring
    with pytest.raises(InputError, match="already planned"):
        session.plan_and_merge(0.3)
    assert session.plan is plan
    assert [gc.merged for gc in session.store.groups] == merged
    assert session.audit() == audit


def test_rawkv_prefill_in_two_calls_equals_one_call(fact07, probe_ids):
    weights = fact07[0]
    split, whole = RawKVSession(weights, 4), RawKVSession(weights, 4)
    split.prefill(probe_ids[:10])
    split.prefill(probe_ids[10:24])
    whole.prefill(probe_ids[:24])
    for a, b in zip(split.store.groups, whole.store.groups):
        for x, y in zip(a.layer_prefixes, b.layer_prefixes):
            np.testing.assert_allclose(x, y, rtol=0, atol=1e-5)
    assert split.plan_and_merge(0.3).merged_groups == whole.plan_and_merge(0.3).merged_groups
    for t in probe_ids[24:30]:
        np.testing.assert_allclose(split.decode(int(t)), whole.decode(int(t)),
                                   rtol=0, atol=1e-5)


# -- audit ----------------------------------------------------------------------

def test_audit_counts_by_part(fact07, probe_ids):
    weights, fact, _ = fact07
    cfg = weights.config
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:100])
    plan = session.plan_and_merge(0.6, strategy="mean")  # both groups merged
    assert plan.merged_count == 2
    audit = session.audit()
    assert audit.prefix_elements == 2 * fact.rank * 100 == 9000
    for t in probe_ids[100:104]:
        session.decode(int(t))
    audit = session.audit()
    assert audit.suffix_elements == cfg.n_layers * fact.rank * 4
    assert audit.total_elements == audit.prefix_elements + audit.suffix_elements


def test_audit_unmerged_counts(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:100])
    audit = session.audit()
    assert audit.prefix_elements == 8 * fact.rank * 100 == 36000


def test_audit_equals_stored_array_sizes(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:20])
    session.plan_and_merge(0.3, strategy="mean")
    for t in probe_ids[20:24]:
        session.decode(int(t))
    store = session.store
    stored = [gc.shared_prefix if gc.merged else np.concatenate(gc.layer_prefixes)
              for gc in store.groups] + store.suffixes
    assert sum(a.size for a in stored) == session.audit().total_elements


def test_baseline_elements_formula(toy_cfg):
    assert baseline_elements(toy_cfg, 10) == 8 * 2 * 32 * 10


# -- immutability and shared tables ----------------------------------------------

def test_merged_prefix_immutable_through_decode(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:32])
    session.plan_and_merge(0.5, strategy="mean")
    groups = session.store.groups
    before = {gi: gc.shared_prefix.tobytes() for gi, gc in enumerate(groups) if gc.merged}
    for t in probe_ids[32:48]:
        session.decode(int(t))
    assert {gi: groups[gi].shared_prefix.tobytes() for gi in before} == before
    session.store.verify_merged_prefixes()
    # sabotage is detected
    gi = next(iter(before))
    session.store.groups[gi].shared_prefix[0, 0] += 1.0
    with pytest.raises(NumericError):
        session.store.verify_merged_prefixes()


def test_audit_raises_on_merged_prefix_mutated_in_place(fact07, probe_ids):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:32])
    plan = session.plan_and_merge(0.5, strategy="mean")
    session.decode(int(probe_ids[32]))
    session.audit()
    gi = plan.merged_groups[0]
    session.store.groups[gi].shared_prefix[3, 1] += 1.0
    for _ in range(2):  # every audit checks, not only the first
        with pytest.raises(NumericError, match=f"group {gi}"):
            session.audit()


# The session audits itself against the closed form, driven directly as the
# benchmark and ``check`` drive it, with no ``perplexity`` around it.

@pytest.mark.parametrize("kind", ["latent", "rawkv"])
def test_extra_decode_row_fails_the_sessions_own_audit(fact07, probe_ids, monkeypatch, kind):
    # one decode row stored twice, on the last step, after layer 0 has attended
    session = SESSIONS[kind](*fact07[:2])
    n_layers, steps = session.weights.config.n_layers, 5
    calls = []
    original = LatentCacheStore.append_decode

    def one_row_too_many(self, layer, latents):
        original(self, layer, latents)
        calls.append(layer)
        if len(calls) == n_layers * steps:
            original(self, 0, latents)

    monkeypatch.setattr(LatentCacheStore, "append_decode", one_row_too_many)
    session.prefill(probe_ids[:32])
    assert session.plan_and_merge(0.5, strategy="mean").merged_groups
    for t in probe_ids[32:32 + steps - 1]:
        session.decode(int(t))
    session.audit()
    session.decode(int(probe_ids[32 + steps - 1]))
    with pytest.raises(NumericError, match="closed form"):
        session.audit()
    with pytest.raises(NumericError, match="closed form"):
        session.cache_element_count()


@pytest.mark.parametrize("kind", ["latent", "rawkv"])
def test_plan_cost_off_the_closed_form_fails_the_sessions_own_audit(fact07, probe_ids, kind):
    session = SESSIONS[kind](*fact07[:2])
    session.prefill(probe_ids[:32])
    plan = session.plan_and_merge(0.5, strategy="mean")
    session.decode(int(probe_ids[32]))
    session.audit()
    plan.cost_per_token += 1
    with pytest.raises(NumericError, match="closed form"):
        session.audit()


@pytest.mark.parametrize("kind", ["latent", "rawkv"])
def test_mutated_prefix_is_reported_before_any_count(fact07, probe_ids, kind):
    # both faults at once: the checksum walk runs first, so "mutated" wins
    session = SESSIONS[kind](*fact07[:2])
    session.prefill(probe_ids[:32])
    plan = session.plan_and_merge(0.5, strategy="mean")
    session.decode(int(probe_ids[32]))
    plan.cost_per_token += 1
    session.store.groups[plan.merged_groups[0]].shared_prefix[3, 1] += 1.0
    with pytest.raises(NumericError, match="mutated"):
        session.audit()


def test_rope_values_shared_across_layers(fact07):
    weights, fact, _ = fact07
    session = LatentSession(weights, fact)
    # every layer reads the same table values for a given decode position
    tables = [session.weights.rope for _ in range(weights.config.n_layers)]
    pos = 17
    rows = {(t[:, 0].real[pos].tobytes(), t[:, 0].imag[pos].tobytes()) for t in tables}
    assert len(rows) == 1


SESSIONS = {
    "baseline": lambda weights, fact: BaselineSession(weights),
    "latent": lambda weights, fact: LatentSession(weights, fact),
    "rawkv": lambda weights, fact: RawKVSession(weights, group_size=4),
}


@pytest.mark.parametrize("kind", sorted(SESSIONS))
def test_sessions_share_the_models_read_only_rope_table(fact07, kind):
    weights, fact, _ = fact07
    table_bytes = weights.rope.nbytes
    assert table_bytes == weights.config.max_seq * weights.config.d_kv * 4
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session = SESSIONS[kind](weights, fact)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert session.weights.rope is weights.rope and not hasattr(session, "rope")
    # a session builds no table of its own: well under one table's bytes
    assert peak < table_bytes // 2
    rope = session.weights.rope
    for view in (rope, rope[:, 0], rope[:, 0].real):
        with pytest.raises(ValueError):
            view[3] *= 2


# -- prefill transients and the stored rows -----------------------------------------

# The wide benchmark shape with two layers: a 960-token prompt makes 29 scores
# blocks per layer and two SiLU blocks.
WIDE_TWO_LAYERS = ModelConfig(n_layers=2, d_hidden=256, n_q_heads=8, n_kv_heads=2,
                              d_head=32, d_mlp=512, max_seq=1024)


@pytest.fixture(scope="module")
def wide_two_layers():
    blob, _ = transform_model(gen_toy_model(WIDE_TWO_LAYERS, 5), 2, 0.7)
    return load_factorized(blob)


@pytest.mark.parametrize("kind", ["baseline", "latent"])
def test_prefill_holds_one_scores_block_and_one_silu_block(wide_two_layers, kind):
    # beyond the cache, a prefill holds at most two (T, d_hidden) arrays (the
    # residual and one buffer: the normed rows, then the queries, overwritten
    # by the head outputs, then the normed rows the MLP writes over), one
    # layer's keys and values, one scores block and one row block
    weights, fact = wide_two_layers
    cfg, tokens = weights.config, 960
    ids = markov_byte_corpus(13, 1, tokens)[0]
    transients = 4 * (2 * tokens * cfg.d_hidden + 2 * tokens * cfg.d_kv
                      + model.SCORES_BLOCK_ELEMENTS + model.ROW_BLOCK_ELEMENTS)
    assert tokens * cfg.n_q_heads * tokens > 8 * model.SCORES_BLOCK_ELEMENTS
    assert tokens * cfg.d_mlp > 2 * model.ROW_BLOCK_ELEMENTS
    session = SESSIONS[kind](weights, fact)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session.prefill(ids)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak - 4 * session.cache_element_count() <= transients


@pytest.mark.parametrize("kind", ["baseline", "latent"])
def test_no_kernel_keeps_memory_after_a_session_is_dropped(wide_two_layers, kind):
    # a kernel that kept anything across calls (a cached ones column, a memo
    # of blocks or bounds) would stay resident after its session is gone, and
    # the benchmark's memory pass would count it as cache.  A session over a
    # short prompt runs first, untraced, so numpy's one-off set-up is not
    # counted, while the traced wide prompt meets shapes it has not seen.
    weights, fact = wide_two_layers
    ids = markov_byte_corpus(13, 1, 961)[0]

    def session_over(prompt_len):
        session = SESSIONS[kind](weights, fact)
        session.prefill(ids[:prompt_len])
        if kind == "latent":
            session.plan_and_merge(0.3, strategy="mean")
        session.decode(int(ids[prompt_len]))

    session_over(40)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        session_over(960)
        gc.collect()
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert left <= 1024


def test_merge_phase_holds_one_float64_prefix(wide_two_layers):
    # scoring holds a block of float64 products, never a float64 copy of a
    # prefix; the merge, beside its float32 result, only block-sized float64 sums
    weights, fact = wide_two_layers
    tokens = 960
    session = LatentSession(weights, fact)
    session.prefill(markov_byte_corpus(13, 1, tokens)[0])
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        session.plan_and_merge(0.3, strategy="fisher",
                               fisher=FisherWeights(per_layer=[1.0, 3.0], corpus_digest="x"))
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert session.plan.merged_groups == [0]
    slack = 8 * 8 * tokens + 4 * 8 * np.getbufsize() + 4096
    blocks = 3 * 8 * budget.MERGE_BLOCK_ELEMENTS  # three float64 blocks of products
    assert peak <= 4 * tokens * fact.rank + blocks + slack


@pytest.mark.parametrize("kind", ["latent", "rawkv"])
def test_attention_never_writes_the_stored_rows(fact07, probe_ids, kind):
    # prefill attends over the store's own prefix arrays, so a kernel that
    # wrote through them would change rows already stored
    weights, fact, _ = fact07
    session = SESSIONS[kind](weights, fact)
    store, n_layers = session.store, weights.config.n_layers
    appended = {"prefix": [[] for _ in range(n_layers)], "suffix": [[] for _ in range(n_layers)]}
    merged = {}

    append_prefill, append_decode, merge_group = (
        store.append_prefill, store.append_decode, store.merge_group)

    def record_prefill(layer, rows):
        appended["prefix"][layer].append(rows.copy())
        append_prefill(layer, rows)

    def record_decode(layer, rows):
        appended["suffix"][layer].append(rows.copy())
        append_decode(layer, rows)

    def record_merge(gi, rows):
        merged[gi] = rows.copy()
        merge_group(gi, rows)

    store.append_prefill, store.append_decode, store.merge_group = (
        record_prefill, record_decode, record_merge)

    def check():
        for layer in range(n_layers):
            gi = store.layout.group_of(layer)
            prefix = merged[gi] if gi in merged else np.concatenate(appended["prefix"][layer])
            assert store.prefix_for_layer(layer).tobytes() == prefix.tobytes()
            suffix = appended["suffix"][layer]
            assert store.suffixes[layer].tobytes() == b"".join(r.tobytes() for r in suffix)

    session.prefill(probe_ids[:20])
    check()
    session.prefill(probe_ids[20:40])
    check()
    session.plan_and_merge(0.3, strategy="mean")  # one group of two, in either kind
    assert len(merged) == 1
    check()
    for t in probe_ids[40:48]:
        session.decode(int(t))
        check()


# -- chunked decode suffixes -------------------------------------------------------

C = SUFFIX_CHUNK_ROWS


def _recording_session(weights, fact):
    """A session whose store also keeps every decode append, for a reference."""
    session = LatentSession(weights, fact)
    appended = [[] for _ in range(weights.config.n_layers)]
    append = session.store.append_decode

    def record(layer, latents):
        appended[layer].append(latents.copy())
        append(layer, latents)

    session.store.append_decode = record
    return session, appended


def test_chunked_suffixes_equal_concatenated_reference_at_chunk_boundaries(fact07):
    weights, fact, _ = fact07
    n_layers, prompt = weights.config.n_layers, 16
    ids = markov_byte_corpus(12, 1, prompt + 2 * C + 1)[0]
    session, appended = _recording_session(weights, fact)
    session.prefill(ids[:prompt])
    session.plan_and_merge(0.5, strategy="mean")
    store = session.store
    for step, t in enumerate(ids[prompt:], start=1):
        session.decode(int(t))
        if step not in (C - 1, C, C + 1, 2 * C + 1):
            continue
        reference = [np.concatenate(rows, axis=0) for rows in appended]
        assert [s.tobytes() for s in store.suffixes] == [r.tobytes() for r in reference]
        assert all(s.shape == (step, fact.rank) for s in store.suffixes)
        for layer in range(n_layers):
            visible = np.concatenate([store.prefix_for_layer(layer), reference[layer]])
            assert store.visible_latents(layer).tobytes() == visible.tobytes()
        audit = store.audit()
        assert audit.suffix_elements == sum(r.size for r in reference)
        assert store.prefill_positions.tolist() == list(range(prompt))
        assert store.decode_positions.tolist() == list(range(prompt, prompt + step))


@pytest.mark.parametrize("sizes", [[5, 70, 200], [C, C, 1], [2 * C + 3], [1] * (C + 2)])
def test_multi_row_appends_seal_whole_chunks(fact07, sizes):
    _, fact, _ = fact07
    store = LatentCacheStore(fact.config, fact.layout, fact.rank)
    rng = np.random.default_rng(sum(sizes))
    rows = [rng.standard_normal((n, fact.rank)).astype(np.float32) for n in sizes]
    for r in rows:
        store.append_decode(3, r)
    assert store.suffixes[3].tobytes() == np.concatenate(rows).tobytes()
    assert store.suffixes[2].shape == (0, fact.rank)
    assert store.audit().suffix_elements == sum(r.size for r in rows)


def test_decode_append_copies_at_most_a_chunk(fact07):
    # 300 suffix rows already stored; each further one-row append (sealing
    # included) allocates O(chunk * r), not O(suffix * r)
    _, fact, _ = fact07
    store = LatentCacheStore(fact.config, fact.layout, fact.rank)
    rng = np.random.default_rng(8)
    store.append_decode(0, rng.standard_normal((300, fact.rank)).astype(np.float32))
    row_bytes = 4 * fact.rank
    worst = 0
    tracemalloc.start()
    try:
        for _ in range(C + 1):
            row = rng.standard_normal((1, fact.rank)).astype(np.float32)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            store.append_decode(0, row)
            worst = max(worst, tracemalloc.get_traced_memory()[1] - before)
    finally:
        tracemalloc.stop()
    assert store.suffixes[0].shape == (300 + C + 1, fact.rank)
    assert worst <= 2 * C * row_bytes + 4096


def test_bare_store_lengths_count_the_rows_it_holds(fact07):
    # driven through its appends alone, with no session: the lengths and the
    # position properties follow from layer 0's rows, through a merge and a seal
    _, fact, _ = fact07
    store = LatentCacheStore(fact.config, fact.layout, fact.rank)
    rng = np.random.default_rng(27)

    def rows(n):
        return rng.standard_normal((n, fact.rank)).astype(np.float32)

    def assert_lengths(prefill, decode):
        assert (store.prefill_len, store.decode_len) == (prefill, decode)
        assert store.prefill_positions.tolist() == list(range(prefill))
        assert store.decode_positions.tolist() == list(range(prefill, prefill + decode))
        assert store.prefill_positions.dtype == store.decode_positions.dtype == np.int64

    assert_lengths(0, 0)
    for n in (6, 4):
        for layer in range(fact.config.n_layers):
            store.append_prefill(layer, rows(n))
    assert_lengths(10, 0)
    store.merge_group(0, np.mean(store.groups[0].layer_prefixes, axis=0))
    assert_lengths(10, 0)
    for step in range(1, C + 3):
        for layer in range(fact.config.n_layers):
            store.append_decode(layer, rows(1))
        assert_lengths(10, step)
    assert len(store._chunks[0]) == 1 and len(store._tails[0]) == 2
    store.audit()


# -- rejected token lists and the stored positions ----------------------------------

def _session(fact07, kind):
    weights, fact, _ = fact07
    return BaselineSession(weights) if kind == "baseline" else LatentSession(weights, fact)


@pytest.mark.parametrize("kind", ["baseline", "commonkv"])
def test_empty_token_list_is_input_error_before_any_layer(fact07, probe_ids, kind):
    # used to end in a ZeroDivisionError (baseline) or a reshape ValueError (commonkv)
    session = _session(fact07, kind)
    for empty in ([], np.array([], dtype=np.int64)):
        with pytest.raises(InputError, match="no tokens"):
            session.prefill(empty)
    assert session.cache_element_count() == 0
    session.prefill(probe_ids[:8])
    assert session.cache_element_count() > 0


def test_forward_baseline_rejects_an_empty_token_list(fact07):
    with pytest.raises(InputError, match="no tokens"):
        forward_baseline(fact07[0], [])


@pytest.mark.parametrize("kind", ["baseline", "commonkv"])
@pytest.mark.parametrize("bad", [3.7, 3.0, "a", None])
def test_non_integer_token_id_is_input_error(fact07, probe_ids, kind, bad):
    # 3.7 used to decode byte 3 and "a" ended in a ValueError traceback
    session = _session(fact07, kind)
    with pytest.raises(InputError):
        session.prefill([65, bad])
    session.prefill(probe_ids[:8])
    before = session.cache_element_count()
    with pytest.raises(InputError):
        session.decode(bad)
    assert session.cache_element_count() == before


@pytest.mark.parametrize("kind", ["baseline", "commonkv"])
def test_one_python_int_token_decodes_like_any_integer_id(fact07, probe_ids, kind):
    # a Python int takes the single-token check; numpy integers take the array check
    fast, general = _session(fact07, kind), _session(fact07, kind)
    for session in (fast, general):
        session.prefill(probe_ids[:8])
    for t in probe_ids[8:11]:
        assert fast.decode(int(t)).tobytes() == general.decode(np.uint8(t)).tobytes()
    with pytest.raises(InputError, match="outside byte vocabulary"):
        fast.decode(256)
    with pytest.raises(InputError, match="outside byte vocabulary"):
        fast.decode(-1)


@pytest.mark.parametrize("kind", ["latent", "rawkv"])
@pytest.mark.parametrize("bad", [3.7, 256])
def test_rejected_latent_decode_leaves_the_prefill_phase_open(fact07, bad, kind):
    # a rejected decode used to close the prefill phase anyway
    rejected, clean = (SESSIONS[kind](*fact07[:2]) for _ in range(2))
    for session in (rejected, clean):
        session.prefill([1, 2, 3])
    with pytest.raises(InputError):
        rejected.decode(bad)
    assert rejected.prefill([4, 5]).tobytes() == clean.prefill([4, 5]).tobytes()
    assert rejected.decode(6).tobytes() == clean.decode(6).tobytes()


def test_rejected_rawkv_decode_changes_nothing(fact07, probe_ids):
    # a rejected decode used to leave the session in its decode phase, so the
    # prefill that followed was stored as decode rows
    weights = fact07[0]
    rejected, clean = RawKVSession(weights, 4), RawKVSession(weights, 4)
    with pytest.raises(InputError):
        rejected.decode(300)
    assert rejected.prefill(probe_ids[:16]).tobytes() == clean.prefill(probe_ids[:16]).tobytes()
    assert rejected.plan_and_merge(0.5) == clean.plan_and_merge(0.5)
    assert rejected.decode(65).tobytes() == clean.decode(65).tobytes()
    for session in (rejected, clean):
        assert session.store.prefill_positions.tolist() == list(range(16))
        assert session.store.decode_positions.tolist() == [16]


def test_stored_positions_stay_int64_aranges_through_prefill_and_decode(fact07, probe_ids):
    # each store's positions are one int64 arange, built from its row counts on
    # every read; the benchmark's traced bytes_copied reads these arrays' nbytes
    base, latent = _session(fact07, "baseline"), _session(fact07, "commonkv")
    for session in (base, latent):
        session.prefill(probe_ids[:12])
        session.prefill(probe_ids[12:20])
    latent.plan_and_merge(0.5, strategy="mean")
    for t in probe_ids[20:26]:
        for session in (base, latent):
            session.decode(int(t))

    def is_arange(positions, start, stop):
        return positions.dtype == np.int64 and np.array_equal(positions, np.arange(start, stop))

    assert is_arange(base.cache.positions, 0, 26)
    assert is_arange(latent.store.prefill_positions, 0, 20)
    assert is_arange(latent.store.decode_positions, 20, 26)


# -- call sequences: the phase rule and rejected calls --------------------------------

# Four layers in two groups of two, so a plan can merge 0, 1 or 2 groups at
# either row width, and room for 12 prompt rows, 8 more prefill rows and a
# decode run across the first sealed suffix chunk.
SMALL = ModelConfig(n_layers=4, d_hidden=16, n_q_heads=2, n_kv_heads=1, d_head=8, d_mlp=32,
                    max_seq=96)


@pytest.fixture(scope="module")
def small_model():
    blob, _ = transform_model(gen_toy_model(SMALL, 3), 2, 0.7)
    return load_factorized(blob)


@st.composite
def call_sequences(draw):
    """1–3 prefill calls, an optional plan (by the number of groups it merges),
    0–70 decode steps, and calls that a session may refuse mixed in anywhere."""
    token = st.integers(0, 255)
    calls = [("prefill", draw(st.lists(token, min_size=1, max_size=4)))
             for _ in range(draw(st.integers(1, 3)))]
    if draw(st.booleans()):
        calls.append(("plan", draw(st.integers(0, 2))))
    first_decode = len(calls)
    steps = draw(st.one_of(st.integers(0, 70), st.integers(C, 70)))  # often past the first seal
    calls += [("decode", t) for t in draw(st.lists(token, min_size=steps, max_size=steps))]
    for _ in range(draw(st.integers(0, 4))):
        call = draw(st.one_of(st.just(("prefill", [7, 8])), st.sampled_from(
            [("decode", 256), ("decode", -1), ("decode", 3.7), ("decode", "a"),
             ("prefill", [65, 3.7])])))
        # often just before the first decode, where the phase changes
        at = draw(st.one_of(st.just(first_decode), st.integers(0, len(calls))))
        calls.insert(at, call)
        first_decode += at <= first_decode
    return calls


@settings(max_examples=25)
@given(kind=st.sampled_from(["latent", "rawkv"]), calls=call_sequences())
# a rejected decode used to close the prefill phase
@example(kind="latent", calls=[("prefill", [1, 2]), ("decode", 3.7), ("prefill", [3]), ("decode", 4)])
# a plan closes it even when it merges nothing
@example(kind="rawkv", calls=[("prefill", [1, 2, 3]), ("plan", 0), ("prefill", [4]), ("decode", 5)])
def test_call_sequences_keep_the_phase_rule_and_rejected_calls_change_nothing(
        small_model, kind, calls):
    # ``twin`` makes only the calls that ``session`` should accept
    session, twin = (LatentSession(*small_model) if kind == "latent"
                     else RawKVSession(small_model[0], 2) for _ in range(2))
    width = session.store.width
    planned, decode_rows = False, 0
    for call, arg in calls:
        if call == "plan":
            ratio = 1.0 - budget.stored_elements(SMALL, width, 1, merged_count=arg, group_size=2) \
                / baseline_elements(SMALL, 1)
            plan = session.plan_and_merge(ratio)
            assert plan.merged_count == arg and twin.plan_and_merge(ratio) == plan
            planned = True
        else:
            tokens = arg if call == "prefill" else [arg]
            if not all(type(t) is int and 0 <= t < 256 for t in tokens):
                with pytest.raises(InputError):
                    getattr(session, call)(arg)
                continue
            # a prefill is refused exactly when the session has planned or holds a decode row
            if call == "prefill" and (planned or decode_rows):
                with pytest.raises(InputError, match="prefill phase already closed"):
                    session.prefill(arg)
                continue
            assert getattr(session, call)(arg).tobytes() == getattr(twin, call)(arg).tobytes()
            decode_rows += call == "decode"
        assert session.audit() == twin.audit()
        assert session.store.decode_len == decode_rows


# -- the store's and the session's refusals -----------------------------------------

def _store_with_prefix(toy_cfg, rows=5, width=6):
    store = LatentCacheStore(toy_cfg, GroupLayout.for_model(toy_cfg.n_layers, 4), width)
    for layer in range(toy_cfg.n_layers):
        store.append_prefill(layer, np.ones((rows, width), dtype=np.float32))
    return store


def test_a_merged_groups_prefix_cannot_be_extended(toy_cfg):
    store = _store_with_prefix(toy_cfg)
    store.merge_group(0, np.ones((5, 6), dtype=np.float32))
    with pytest.raises(InputError) as err:
        store.append_prefill(1, np.ones((1, 6), dtype=np.float32))
    assert str(err.value) == "cannot extend the prefix of a merged group"
    store.append_prefill(4, np.ones((1, 6), dtype=np.float32))  # group 1 is not merged


def test_a_group_merges_once(toy_cfg):
    store = _store_with_prefix(toy_cfg)
    store.merge_group(1, np.ones((5, 6), dtype=np.float32))
    with pytest.raises(InputError) as err:
        store.merge_group(1, np.ones((5, 6), dtype=np.float32))
    assert str(err.value) == "group 1 already merged"


@pytest.mark.parametrize("shape", [(4, 6), (5, 7)], ids=["rows", "width"])
def test_a_merged_prefix_of_the_wrong_shape_is_refused(toy_cfg, shape):
    store = _store_with_prefix(toy_cfg)
    with pytest.raises(InputError) as err:
        store.merge_group(0, np.ones(shape, dtype=np.float32))
    assert str(err.value) == "merged prefix has wrong shape"
    assert not store.groups[0].merged


def test_a_session_refuses_a_factorization_of_another_config(fact07, micro_weights):
    _, fact, _ = fact07
    with pytest.raises(InputError) as err:
        LatentSession(micro_weights, fact)
    assert str(err.value) == "factorization does not match model config"
