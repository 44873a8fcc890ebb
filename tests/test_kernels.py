"""Head-batched attention, the in-place causal softmax and complex RoPE against float64 references.

The references loop over query heads one at a time in float64, the way the
kernel worked before it was batched, so a head-ordering or row-blocking slip
in the batched kernel shows up as a mismatch.
"""

import numpy as np
import pytest

from commonkv import latent_cache
from commonkv.latent_cache import attend_latent
from commonkv.model import (ModelConfig, apply_rope, attention_block, build_rope_table,
                            causal_attention_weights)
from oracles import _rotate, reference_causal_softmax

HISTORY = 40  # keys visible to the last query row
RANK = 6


def _config(heads_per_kv: int) -> ModelConfig:
    n_q = 2 * heads_per_kv
    return ModelConfig(n_layers=1, d_hidden=8 * n_q, n_q_heads=n_q, n_kv_heads=2,
                       d_head=8, d_mlp=16, max_seq=64)


def _reference_probs(q, keys, q_pos, k_pos, cfg):
    """Per-head float64 causal softmax weights, (n_q, Tq, Tk)."""
    hpk = cfg.n_q_heads // cfg.n_kv_heads
    probs = []
    for h in range(cfg.n_q_heads):
        s = q[:, h].astype(np.float64) @ keys[:, h // hpk].astype(np.float64).T
        s /= np.sqrt(cfg.d_head)
        s[k_pos[None, :] > q_pos[:, None]] = -np.inf
        p = np.exp(s - s.max(axis=-1, keepdims=True))
        probs.append(p / p.sum(axis=-1, keepdims=True))
    return np.stack(probs)


def _reference_block(q, keys, values, q_pos, k_pos, w_o, cfg):
    """Per-head float64 attention followed by the output projection."""
    hpk = cfg.n_q_heads // cfg.n_kv_heads
    probs = _reference_probs(q, keys, q_pos, k_pos, cfg)
    heads = [probs[h] @ values[:, h // hpk].astype(np.float64) for h in range(cfg.n_q_heads)]
    return np.concatenate(heads, axis=-1) @ w_o.astype(np.float64)


def _random_inputs(cfg: ModelConfig, tq: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def rand(*shape):
        return (rng.standard_normal(shape) * 0.5).astype(np.float32)

    k_pos = np.arange(HISTORY)
    return {
        "q": rand(tq, cfg.n_q_heads, cfg.d_head), "q_pos": k_pos[HISTORY - tq:],
        "k_pos": k_pos, "keys": rand(HISTORY, cfg.n_kv_heads, cfg.d_head),
        "values": rand(HISTORY, cfg.n_kv_heads, cfg.d_head),
        "w_o": rand(cfg.d_hidden, cfg.d_hidden), "latents": rand(HISTORY, RANK),
        "k_factor": rand(RANK, cfg.d_kv), "v_factor": rand(RANK, cfg.d_kv),
        "fused_out": rand(cfg.n_q_heads, RANK, cfg.d_hidden),
    }


# Tq = 1 is one decode block; 7 and 33 are not multiples of the row block
# max(1, Tq // n_q_heads) for any head count below, so the last block is short.
@pytest.mark.parametrize("heads_per_kv", [1, 2, 4])
@pytest.mark.parametrize("tq", [1, 7, 33])
def test_attention_block_matches_per_head_reference(heads_per_kv, tq):
    cfg = _config(heads_per_kv)
    x = _random_inputs(cfg, tq, 10 * heads_per_kv + tq)
    out = attention_block(x["q"], x["keys"], x["values"], x["q_pos"], x["k_pos"], x["w_o"], cfg)
    expected = _reference_block(x["q"], x["keys"], x["values"], x["q_pos"], x["k_pos"],
                                x["w_o"], cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)


@pytest.mark.parametrize("heads_per_kv", [1, 2, 4])
@pytest.mark.parametrize("tq", [1, 7, 33])
@pytest.mark.parametrize("path", ["fused", "unfused"])
def test_attend_latent_matches_per_head_reference(heads_per_kv, tq, path):
    cfg = _config(heads_per_kv)
    x = _random_inputs(cfg, tq, 100 * heads_per_kv + tq)
    h64 = x["latents"].astype(np.float64)
    keys = _rotate((h64 @ x["k_factor"]).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head),
                   x["k_pos"], cfg.rope_theta, cfg.d_head)
    args = (x["q"], x["latents"], x["k_factor"], x["fused_out"], x["q_pos"], x["k_pos"],
            build_rope_table(cfg), cfg)
    if path == "fused":
        out = attend_latent(*args)
        probs = _reference_probs(x["q"], keys, x["q_pos"], x["k_pos"], cfg)
        expected = sum((probs[h] @ h64) @ x["fused_out"][h].astype(np.float64)
                       for h in range(cfg.n_q_heads))
    else:
        out = attend_latent(*args, v_factor=x["v_factor"], w_o=x["w_o"])
        values = (h64 @ x["v_factor"]).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head)
        expected = _reference_block(x["q"], keys, values, x["q_pos"], x["k_pos"],
                                    x["w_o"], cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)


# A latent width above d_head puts the order crossover of the factored value
# path, near Tq = r·d_kv / (n_q·(r - d_head)), inside the tested query lengths.
WIDE_RANK = 24


@pytest.mark.parametrize("heads_per_kv, tq, order", [
    (1, 1, "mix"), (1, 7, "mix"), (1, 33, "restore"),
    (2, 1, "mix"), (2, 3, "mix"), (2, 7, "restore"),
    (4, 1, "mix"), (4, 7, "restore"), (4, 33, "restore"),
])
def test_factored_value_path_orders_match_reference(monkeypatch, heads_per_kv, tq, order):
    cfg = _config(heads_per_kv)
    rng = np.random.default_rng(1000 * heads_per_kv + tq)
    x = _random_inputs(cfg, tq, 1000 * heads_per_kv + tq)
    latents = (rng.standard_normal((HISTORY, WIDE_RANK)) * 0.5).astype(np.float32)
    k_factor, v_factor = ((rng.standard_normal((WIDE_RANK, cfg.d_kv)) * 0.2).astype(np.float32)
                          for _ in range(2))
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return attention_block(*args, **kwargs)

    monkeypatch.setattr(latent_cache, "attention_block", counted)
    out = latent_cache.attend_latent(
        x["q"], latents, k_factor, None, x["q_pos"], x["k_pos"], build_rope_table(cfg), cfg,
        v_factor=v_factor, w_o=x["w_o"])
    assert len(calls) == (1 if order == "restore" else 0)
    h64 = latents.astype(np.float64)
    keys = _rotate((h64 @ k_factor).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head),
                   x["k_pos"], cfg.rope_theta, cfg.d_head)
    values = (h64 @ v_factor).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head)
    expected = _reference_block(x["q"], keys, values, x["q_pos"], x["k_pos"], x["w_o"], cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)


# -- the in-place causal softmax ------------------------------------------------

SOFTMAX_CASES = {  # name: (query positions, key positions, score spread)
    "decode_row": (np.array([39]), np.arange(40), 4.0),
    "decode_row_before_later_keys": (np.array([20]), np.arange(40), 4.0),
    "prefill_block_from_0": (np.arange(0, 9), np.arange(9), 4.0),
    "prefill_block_mid_sequence": (np.arange(20, 29), np.arange(29), 4.0),
    "gapped_positions": (np.arange(30, 37), np.arange(0, 37, 3), 4.0),
    "single_key": (np.array([0]), np.array([0]), 4.0),
    "all_equal_scores": (np.arange(20, 29), np.arange(29), 0.0),
    "spread_1e2": (np.arange(20, 29), np.arange(29), 1e2),
    "spread_1e4": (np.arange(20, 29), np.arange(29), 1e4),
}


@pytest.mark.parametrize("case", sorted(SOFTMAX_CASES))
def test_causal_softmax_matches_float64_reference(case):
    q_pos, k_pos, spread = SOFTMAX_CASES[case]
    rng = np.random.default_rng(sorted(SOFTMAX_CASES).index(case))
    shape = (2, 3, q_pos.size, k_pos.size)
    scores = (rng.uniform(-spread, spread, shape) if spread else np.full(shape, 0.7))
    scores = scores.astype(np.float32)
    expected = reference_causal_softmax(scores, q_pos, k_pos)
    block = scores.copy()
    probs = causal_attention_weights(block, q_pos, k_pos)
    assert probs is block and probs.dtype == np.float32  # in place, no copy
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-6)
    masked = np.broadcast_to(k_pos[None, :] > q_pos[:, None], shape)
    assert not probs[masked].any()
    np.testing.assert_allclose(probs.sum(axis=-1, dtype=np.float64), 1.0, rtol=0, atol=1e-6)


# -- RoPE as one complex multiply ------------------------------------------------

def _pairwise_rope(vectors, positions, table, inverse=False):
    """The textbook pairwise rotation in float64 from the table's cos/sin."""
    cos = table.cos[positions][:, None, :].astype(np.float64)
    sin = table.sin[positions][:, None, :].astype(np.float64)
    if inverse:
        sin = -sin
    even, odd = vectors[..., 0::2].astype(np.float64), vectors[..., 1::2].astype(np.float64)
    out = np.empty(vectors.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


@pytest.mark.parametrize("inverse", [False, True])
def test_complex_rope_matches_pairwise_formula_on_non_contiguous_input(toy_cfg, inverse):
    table = build_rope_table(toy_cfg)
    rng = np.random.default_rng(21)
    base = rng.standard_normal((toy_cfg.n_q_heads, 12, toy_cfg.d_head)).astype(np.float32)
    vectors = base.transpose(1, 0, 2)  # (tokens, heads, d_head), not C-contiguous
    assert not vectors.flags.c_contiguous
    positions = np.arange(12) * 19
    out = apply_rope(vectors, positions, table, inverse=inverse)
    np.testing.assert_allclose(out, _pairwise_rope(vectors, positions, table, inverse),
                               atol=1e-6)
    back = apply_rope(out, positions, table, inverse=not inverse)
    np.testing.assert_allclose(back, vectors, atol=1e-6)


def test_rope_table_is_one_complex_table_with_exact_cos_sin(toy_cfg):
    table = build_rope_table(toy_cfg)
    half = toy_cfg.d_head // 2
    inv_freq = toy_cfg.rope_theta ** (-np.arange(0, half, dtype=np.float64) * 2.0
                                      / toy_cfg.d_head)
    angles = np.arange(toy_cfg.max_seq, dtype=np.float64)[:, None] * inv_freq[None, :]
    assert table.cos.tobytes() == np.cos(angles).astype(np.float32).tobytes()
    assert table.sin.tobytes() == np.sin(angles).astype(np.float32).tobytes()
    # cos and sin are views into the single complex64 table: no second copy
    assert table.cis.dtype == np.complex64
    assert table.cis.nbytes == 2 * 4 * toy_cfg.max_seq * half
    assert np.shares_memory(table.cos, table.cis) and np.shares_memory(table.sin, table.cis)
