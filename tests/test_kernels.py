"""Attention, softmax, RoPE, SiLU and RMSNorm kernels against float64 references.

The references loop over query heads one at a time in float64, the way the
kernel worked before it was batched, so a head-ordering or row-blocking slip
in the batched kernel shows up as a mismatch.
"""

import numpy as np
import pytest

from commonkv import latent_cache, model
from commonkv.latent_cache import attend_latent
from commonkv.model import (ModelConfig, apply_rope, attention_block, attention_probs,
                            build_rope_table, causal_attention_weights, rms_norm, silu)
from oracles import _norm, _rotate, reference_causal_softmax

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


# -- row blocks sized by the scores budget ---------------------------------------

def _record_blocks(monkeypatch, budget: int) -> list[tuple[int, int]]:
    """Set the scores budget and log each yielded block's (rows, scores size)."""
    blocks = []
    real = model.attention_probs

    def recording(*args):
        for start, stop, tk, probs in real(*args):
            blocks.append((stop - start, probs.size))
            yield start, stop, tk, probs

    monkeypatch.setattr(model, "SCORES_BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(model, "attention_probs", recording)
    monkeypatch.setattr(latent_cache, "attention_probs", recording)
    return blocks


# Every case caps the rows below Tq // n_q_heads (or at it, for the mix order),
# and Tq = 7 and 31 leave a short last block for 2- and 3-row blocks.
@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("path, heads_per_kv, tq", [
    ("block", 2, 31), ("restore", 1, 31), ("mix", 1, 7)])
def test_budget_sized_blocks_match_reference(monkeypatch, rows, path, heads_per_kv, tq):
    cfg = _config(heads_per_kv)
    budget = rows * cfg.n_q_heads * HISTORY
    blocks = _record_blocks(monkeypatch, budget)
    x = _random_inputs(cfg, tq, 7 * rows + tq)
    if path == "block":
        keys, values = x["keys"], x["values"]
        out = attention_block(x["q"], keys, values, x["q_pos"], x["k_pos"], x["w_o"], cfg)
    else:
        rng = np.random.default_rng(rows + tq)
        latents = (rng.standard_normal((HISTORY, WIDE_RANK)) * 0.5).astype(np.float32)
        k_factor, v_factor = ((rng.standard_normal((WIDE_RANK, cfg.d_kv)) * 0.2)
                              .astype(np.float32) for _ in range(2))
        calls = []

        def counted(*args):
            calls.append(args)
            return attention_block(*args)

        monkeypatch.setattr(latent_cache, "attention_block", counted)
        out = attend_latent(x["q"], latents, k_factor, None, x["q_pos"], x["k_pos"],
                            build_rope_table(cfg), cfg, v_factor=v_factor, w_o=x["w_o"])
        assert len(calls) == (path == "restore")
        h64 = latents.astype(np.float64)
        keys = _rotate((h64 @ k_factor).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head),
                       x["k_pos"], cfg.rope_theta, cfg.d_head)
        values = (h64 @ v_factor).reshape(HISTORY, cfg.n_kv_heads, cfg.d_head)
    expected = _reference_block(x["q"], keys, values, x["q_pos"], x["k_pos"], x["w_o"], cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)
    assert [r for r, _ in blocks] == [rows] * (tq // rows) + [tq % rows] * (tq % rows > 0)
    assert all(r == 1 or size <= budget for r, size in blocks)


@pytest.mark.parametrize("tq, tk, n_q, rows", [
    (960, 960, 8, 34),  # wide-prefill prompt: the budget binds
    (256, 256, 8, 32),  # wide-decode prompt: Tq // n_q binds
    (96, 96, 4, 24),    # toy prompt
    (1, 960, 8, 1),     # decode row
])
def test_block_rows_at_workload_shapes(tq, tk, n_q, rows):
    cfg = ModelConfig(n_layers=1, d_hidden=32 * n_q, n_q_heads=n_q, n_kv_heads=2,
                      d_head=32, d_mlp=16, max_seq=1024)
    q = np.zeros((tq, n_q, 32), dtype=np.float32)
    keys = np.zeros((tk, 2, 32), dtype=np.float32)
    start, stop, _, probs = next(attention_probs(q, keys, np.arange(tk - tq, tk),
                                                 np.arange(tk), cfg))
    assert (start, stop) == (0, rows)
    assert rows == 1 or probs.size <= model.SCORES_BLOCK_ELEMENTS == 2**18


# -- SiLU and RMSNorm ---------------------------------------------------------------

def test_float32_silu_matches_float64_without_warnings():
    tails = np.concatenate([np.arange(88, 105), [1e4]])
    grid = np.concatenate([np.linspace(-30, 30, 6001), tails, -tails, [0.0]]).astype(np.float32)
    z64 = grid.astype(np.float64)
    expected = z64 * np.exp(-np.logaddexp(0.0, -z64))  # z * sigmoid(z) without overflow
    with np.errstate(all="raise"):
        out = silu(grid)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("shape", [(64,), (1, 256), (96, 64), (3, 5, 8)])
@pytest.mark.parametrize("scale", [1e-3, 1.0, 1e3])
def test_rms_norm_matches_float64_reference(shape, scale):
    rng = np.random.default_rng(shape[-1] + int(np.log10(scale)))
    x = (rng.standard_normal(shape) * scale).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, shape[-1]).astype(np.float32)
    out = rms_norm(x, gain)
    assert out.dtype == np.float32 and out.shape == shape
    np.testing.assert_allclose(out, _norm(x.astype(np.float64), gain.astype(np.float64)),
                               rtol=1e-6, atol=1e-7)
    # bit-identical to the mean-of-squares formula
    x64 = x.astype(np.float64)
    inv = 1.0 / np.sqrt(np.mean(x64 * x64, axis=-1, keepdims=True) + model.RMS_EPS)
    assert out.tobytes() == (x64 * inv * gain.astype(np.float64)).astype(np.float32).tobytes()


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
