"""Attention, softmax, RoPE, SiLU and RMSNorm kernels against float64 references.

The references loop over query heads one at a time in float64, the way the
kernel worked before it was batched, so a head-ordering or row-blocking slip
in the batched kernel shows up as a mismatch.
"""

import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from commonkv import latent_cache, model
from commonkv.errors import CapacityError, InputError
from commonkv.model import (ModelConfig, apply_rope, attention_block, build_rope_table,
                            causal_attention, causal_attention_weights, mlp_block, rms_norm,
                            silu)
from oracles import (_norm, _rotate, reference_attention, reference_causal_softmax,
                     reference_latent_attention)

HISTORY = 40  # keys visible to the last query row
RANK = 6


def _config(heads_per_kv: int) -> ModelConfig:
    n_q = 2 * heads_per_kv
    return ModelConfig(n_layers=1, d_hidden=8 * n_q, n_q_heads=n_q, n_kv_heads=2,
                       d_head=8, d_mlp=16, max_seq=64)


def _random_inputs(cfg: ModelConfig, tq: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def rand(*shape):
        return (rng.standard_normal(shape) * 0.5).astype(np.float32)

    return {
        "q": rand(tq, cfg.n_q_heads, cfg.d_head),
        "keys": rand(HISTORY, cfg.n_kv_heads, cfg.d_head),
        "values": rand(HISTORY, cfg.n_kv_heads, cfg.d_head),
        "w_o": rand(cfg.d_hidden, cfg.d_hidden), "latents": rand(HISTORY, RANK),
        "k_factor": rand(RANK, cfg.d_kv), "v_factor": rand(RANK, cfg.d_kv),
    }


def attend_latent(q, latents, k_factor, v_factor, w_o, rope, cfg):
    """``latent_cache.attend_latent`` given the (n_kv, r, d_head) view of
    ``v_factor`` that ``SharedFactorization.v_heads`` holds for each layer."""
    v_heads = v_factor.reshape(len(v_factor), cfg.n_kv_heads, cfg.d_head).transpose(1, 0, 2)
    return latent_cache.attend_latent(q, latents, k_factor, v_factor, w_o, rope, cfg, v_heads)


# Tq = 1 is one decode block; 7 and 33 are not multiples of the row block
# max(1, Tq // n_q_heads) for any head count below, so the last block is short.
@pytest.mark.parametrize("heads_per_kv", [1, 2, 4])
@pytest.mark.parametrize("tq", [1, 7, 33])
def test_attention_block_matches_per_head_reference(heads_per_kv, tq):
    cfg = _config(heads_per_kv)
    x = _random_inputs(cfg, tq, 10 * heads_per_kv + tq)
    out = attention_block(x["q"].copy(), x["keys"], x["values"], x["w_o"], cfg)
    expected = reference_attention(x["q"], x["keys"], x["values"], x["w_o"])
    np.testing.assert_allclose(out, expected, atol=1e-5)


@pytest.mark.parametrize("heads_per_kv", [1, 2, 4])
@pytest.mark.parametrize("tq", [1, 7, 33])
def test_attend_latent_matches_per_head_reference(heads_per_kv, tq):
    cfg = _config(heads_per_kv)
    x = _random_inputs(cfg, tq, 100 * heads_per_kv + tq)
    factors = (x["latents"], x["k_factor"], x["v_factor"], x["w_o"])
    out = attend_latent(x["q"].copy(), *factors, build_rope_table(cfg), cfg)
    expected = reference_latent_attention(x["q"], *factors, cfg.rope_theta)
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
    out = attend_latent(x["q"].copy(), latents, k_factor, v_factor, x["w_o"],
                        build_rope_table(cfg), cfg)
    assert len(calls) == (1 if order == "restore" else 0)
    expected = reference_latent_attention(x["q"], latents, k_factor, v_factor, x["w_o"],
                                          cfg.rope_theta)
    np.testing.assert_allclose(out, expected, atol=1e-5)


# -- row blocks sized by the scores budget ---------------------------------------

# at WIDE_RANK and two query heads per KV head, Tq = 1 (a decode row) and 3
# (three one-row blocks) take the mix-latents order, and Tq = 33 (8-row blocks)
# restores values
@pytest.mark.parametrize("tq", [1, 3, 33])
def test_attention_writes_head_outputs_over_the_queries(tq):
    cfg = _config(2)
    x = _random_inputs(cfg, tq, 700 + tq)
    rng = np.random.default_rng(700 + tq)
    latents = (rng.standard_normal((HISTORY, WIDE_RANK)) * 0.5).astype(np.float32)
    k_factor, v_factor = ((rng.standard_normal((WIDE_RANK, cfg.d_kv)) * 0.2).astype(np.float32)
                          for _ in range(2))
    v_heads = v_factor.reshape(WIDE_RANK, cfg.n_kv_heads, cfg.d_head).transpose(1, 0, 2)
    rope = build_rope_table(cfg)
    values_t = x["values"].transpose(1, 0, 2)

    def head_values(weights, inv, tk):
        heads = np.matmul(weights, values_t[:, :tk])
        heads *= inv
        return heads

    calls = {
        "attention_block": lambda q: attention_block(
            q, x["keys"], x["values"], x["w_o"], cfg),
        "causal_attention": lambda q: causal_attention(
            q, x["keys"], x["w_o"], cfg, head_values),
        "attend_latent": lambda q: latent_cache.attend_latent(
            q, latents, k_factor, v_factor, x["w_o"], rope, cfg, v_heads),
    }
    outputs = {}
    for name, call in calls.items():
        q = x["q"].copy()
        outputs[name] = out = call(q)
        assert call(x["q"].copy()).tobytes() == out.tobytes(), name  # a fresh copy: the same
        if tq == 1:  # a decode row's head outputs meet W_o directly
            assert q.tobytes() == x["q"].tobytes(), name
        else:  # the buffer holds the head outputs that meet W_o
            assert (q.reshape(tq, cfg.d_hidden) @ x["w_o"]).tobytes() == out.tobytes(), name
    # the same value step through either entry point: the same bytes
    assert outputs["attention_block"].tobytes() == outputs["causal_attention"].tobytes()


def _record_blocks(monkeypatch, budget: int) -> list[tuple[int, int]]:
    """Set the scores budget and log each softmax block's (rows, scores size)."""
    blocks = []
    real = model.causal_attention_weights

    def recording(scores, **kwargs):
        blocks.append((scores.shape[-2], scores.size))
        return real(scores, **kwargs)

    monkeypatch.setattr(model, "SCORES_BLOCK_ELEMENTS", budget)
    monkeypatch.setattr(model, "causal_attention_weights", recording)
    return blocks


def _recording_head_values(cfg: ModelConfig, step):
    """A ``causal_attention`` value step that hands each block's
    ``(weights, inv, tk)`` to ``step`` and returns zero head outputs."""
    def head_values(weights, inv, tk):
        step(weights, inv, tk)
        return np.zeros((cfg.n_kv_heads, weights.shape[1], cfg.d_head), dtype=np.float32)

    return head_values


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
        out = attention_block(x["q"].copy(), x["keys"], x["values"], x["w_o"], cfg)
        expected = reference_attention(x["q"], x["keys"], x["values"], x["w_o"])
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
        out = attend_latent(x["q"].copy(), latents, k_factor, v_factor, x["w_o"],
                            build_rope_table(cfg), cfg)
        assert len(calls) == (path == "restore")
        expected = reference_latent_attention(x["q"], latents, k_factor, v_factor, x["w_o"],
                                              cfg.rope_theta)
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
    blocks = []
    causal_attention(q, keys, np.zeros((cfg.d_hidden, cfg.d_hidden), dtype=np.float32), cfg,
                     _recording_head_values(cfg, lambda *block: blocks.append(block)))
    weights, inv, first_tk = blocks[0]  # query rows 0:rows over their visible keys
    assert first_tk == tk - tq + rows and weights.shape == (2, n_q // 2 * rows, first_tk)
    assert inv.shape == (2, n_q // 2 * rows, 1)
    assert rows == 1 or weights.size <= model.SCORES_BLOCK_ELEMENTS == 2**18


def _full_copy_block_probs(q_rope, keys, cfg):
    """``model.causal_attention``'s blocks, as ``(start, stop, tk, weights,
    inv)``, taken from one scaled, head-grouped copy of every query row, made
    before the first block; it drives the package's softmax and one-row scores,
    and makes the same score-bound decision on the max-subtract."""
    n_q, n_kv, hpk, d_head, tq = (cfg.n_q_heads, cfg.n_kv_heads, cfg.heads_per_kv,
                                  cfg.d_head, q_rope.shape[0])
    keys_h = keys.transpose(1, 0, 2)
    scale = np.float32(1.0 / math.sqrt(d_head))
    shift = tq == 1 or not model.score_bound(q_rope, keys, scale) <= model.SHIFT_FREE_BOUND
    q_grouped = (q_rope * scale).transpose(1, 0, 2).reshape(n_kv, hpk, tq, d_head)
    block = max(1, min(tq // n_q, model.SCORES_BLOCK_ELEMENTS // (n_q * keys.shape[0])))
    for start in range(0, tq, block):
        stop = min(start + block, tq)
        tk = keys.shape[0] - tq + stop
        if stop - start == 1:
            scores = model._row_scores(q_grouped[:, :, start], keys_h[:, :tk])
        else:
            scores = np.matmul(q_grouped[:, :, start:stop].reshape(n_kv, -1, d_head),
                               keys_h[:, :tk].transpose(0, 2, 1))
        weights, inv = causal_attention_weights(scores.reshape(n_kv, hpk, stop - start, tk),
                                                shift=shift)
        yield start, stop, tk, weights.reshape(n_q, stop - start, tk), inv.reshape(n_q, -1, 1)


# the shapes of test_block_rows_at_workload_shapes that take the row blocks,
# and a prompt shorter than n_q, whose blocks are single rows
@pytest.mark.parametrize("tq, tk, n_q", [(960, 960, 8), (256, 256, 8), (96, 96, 4), (5, 40, 8)])
def test_per_block_query_grouping_is_bit_identical_to_the_full_copy(tq, tk, n_q):
    cfg = ModelConfig(n_layers=1, d_hidden=32 * n_q, n_q_heads=n_q, n_kv_heads=2,
                      d_head=32, d_mlp=16, max_seq=1024)
    rng = np.random.default_rng(tq + n_q)
    q = rng.standard_normal((tq, n_q, 32)).astype(np.float32)
    keys = rng.standard_normal((tk, 2, 32)).astype(np.float32)
    wanted = _full_copy_block_probs(q, keys, cfg)
    blocks = []

    def compare(weights, inv, tk):
        start, stop, want_tk, want_weights, want_inv = next(wanted)
        assert (tk, weights.shape[1]) == (want_tk, cfg.heads_per_kv * (stop - start))
        assert weights.tobytes() == want_weights.tobytes()
        assert inv.tobytes() == want_inv.tobytes()
        blocks.append(start)

    causal_attention(q, keys, np.zeros((cfg.d_hidden, cfg.d_hidden), dtype=np.float32), cfg,
                     _recording_head_values(cfg, compare))
    assert next(wanted, None) is None
    assert len(blocks) > 1


# -- SiLU, the MLP and RMSNorm -------------------------------------------------------

def test_float32_silu_matches_float64_without_warnings():
    tails = np.concatenate([np.arange(88, 105), [1e4]])
    grid = np.concatenate([np.linspace(-30, 30, 6001), tails, -tails, [0.0]]).astype(np.float32)
    z64 = grid.astype(np.float64)
    expected = z64 * np.exp(-np.logaddexp(0.0, -z64))  # z * sigmoid(z) without overflow
    with np.errstate(all="raise"):
        out = silu(grid)
    assert out.dtype == np.float32
    np.testing.assert_allclose(out, expected, rtol=1e-6, atol=1e-6)


# B rows per MLP row block at d_mlp = 1024: one row (a decode step), B - 1, B
# and B + 1 rows (two blocks, none of them a single row), 3B + 5 rows, and
# three more counts of two or more blocks
MLP_BLOCK = model.ROW_BLOCK_ELEMENTS // 1024


@pytest.mark.parametrize("rows", [1, MLP_BLOCK - 1, MLP_BLOCK, MLP_BLOCK + 1,
                                  3 * MLP_BLOCK + 5, 255, 256, 700])
def test_mlp_over_silu_row_blocks_is_bit_identical_to_one_silu(rows):
    d_hidden, d_mlp = 64, 1024
    rng = np.random.default_rng(rows)
    x = rng.standard_normal((rows, d_hidden)).astype(np.float32)
    lw = SimpleNamespace(
        w_in=(rng.standard_normal((d_hidden, d_mlp)) / 8).astype(np.float32),
        w_out=(rng.standard_normal((d_mlp, d_hidden)) / 32).astype(np.float32))
    expected = silu(x @ lw.w_in) @ lw.w_out
    out = mlp_block(x, lw)
    assert out.tobytes() == expected.tobytes()
    # several rows are written over the normed rows they were given; one row is not
    assert (out is x) == (rows > 1)


# B rows per rms_norm block at d = 256: the same counts as the MLP's
NORM_WIDTH = 256
NORM_BLOCK = model.ROW_BLOCK_ELEMENTS // NORM_WIDTH


@pytest.mark.parametrize("rows", [1, NORM_BLOCK - 1, NORM_BLOCK, NORM_BLOCK + 1,
                                  3 * NORM_BLOCK + 5])
def test_rms_norm_over_row_blocks_is_bit_identical_to_the_whole_array_formula(rows):
    rng = np.random.default_rng(rows)
    x = (rng.standard_normal((rows, NORM_WIDTH)) * 3).astype(np.float32)
    gain = rng.uniform(0.5, 1.5, NORM_WIDTH).astype(np.float32)
    x64 = x.astype(np.float64)
    inv = 1.0 / np.sqrt(np.mean(x64 * x64, axis=-1, keepdims=True) + model.RMS_EPS)
    expected = (x64 * inv * gain.astype(np.float64)).astype(np.float32)
    del x64, inv
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        out = rms_norm(x, gain)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert out.tobytes() == expected.tobytes()
    # the float32 result and one block's float64 copy, never a float64 copy of
    # every row; beside them only per-row statistics and numpy's cast buffers
    block_rows = min(rows, NORM_BLOCK)
    slack = 4 * 8 * block_rows + 2 * 8 * np.getbufsize() + 4096
    assert peak <= 4 * x.size + 8 * block_rows * NORM_WIDTH + slack


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

# name: (query rows Tq, keys Tk, score spread, seed); the queries are the
# last Tq of the keys' positions, a block's tail
SOFTMAX_CASES = {
    "decode_row": (1, 40, 4.0, 1),
    "prefill_block_from_0": (9, 9, 4.0, 4),
    "prefill_block_mid_sequence": (9, 29, 4.0, 5),
    "single_key": (1, 1, 4.0, 6),
    "all_equal_scores": (9, 29, 0.0, 0),
    "spread_1e2": (9, 29, 1e2, 7),
    "spread_1e4": (9, 29, 1e4, 8),
}


@pytest.mark.parametrize("case", sorted(SOFTMAX_CASES))
def test_causal_softmax_matches_float64_reference(case):
    tq, tk, spread, seed = SOFTMAX_CASES[case]
    q_pos, k_pos = np.arange(tk - tq, tk), np.arange(tk)
    rng = np.random.default_rng(seed)
    shape = (2, 3, tq, tk)
    scores = (rng.uniform(-spread, spread, shape) if spread else np.full(shape, 0.7))
    scores = scores.astype(np.float32)
    expected = reference_causal_softmax(scores, q_pos, k_pos)
    block = scores.copy()
    weights, inv = causal_attention_weights(block)
    assert weights is block and weights.dtype == np.float32  # in place, no copy
    assert inv.dtype == np.float32 and inv.shape == (*shape[:-1], 1)
    # unnormalised: each row's largest weight is exp(0), untouched by any multiply
    assert (weights.max(axis=-1) == 1.0).all()
    probs = weights * inv
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-6)
    masked = np.broadcast_to(k_pos[None, :] > q_pos[:, None], shape)
    assert not weights[masked].any()
    np.testing.assert_allclose(probs.sum(axis=-1, dtype=np.float64), 1.0, rtol=0, atol=1e-6)



@pytest.mark.parametrize("shape", [(2, 4, 34, 960), (8, 1, 960), (2, 3, 9, 29)])
def test_causal_softmax_allocates_no_float64_buffer(shape):
    # the row statistics are float32 and nothing is cast: beyond the (rows, 1)
    # max and reciprocal sums and the mask tile, only numpy's fixed-size
    # float32 ufunc buffer (np.getbufsize() elements, whatever Tk is) is
    # allowed; a float64 row sum would need a cast buffer twice that size
    block = np.random.default_rng(len(shape)).standard_normal(shape).astype(np.float32)
    rows = block.size // shape[-1]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, inv = causal_attention_weights(block)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert inv.dtype == np.float32
    assert peak <= 2 * 4 * rows + shape[-2] ** 2 + 4 * np.getbufsize() + 4096


# -- the shift-free softmax of a bounded prefill ----------------------------------

BOUND = model.SHIFT_FREE_BOUND

# name: (query rows Tq, keys Tk, fill), with scores uniform over [-BOUND, BOUND]
# when fill is None, else all equal to fill
SHIFT_FREE_CASES = {
    "decode_row": (1, 40, None),
    "prefill_block_from_0": (9, 9, None),
    "prefill_block_mid_sequence": (9, 29, None),
    "all_at_plus_bound": (9, 29, BOUND),
    "all_at_minus_bound": (9, 29, -BOUND),
}


@pytest.mark.parametrize("case", sorted(SHIFT_FREE_CASES))
def test_shift_free_softmax_matches_float64_reference(case):
    tq, tk, fill = SHIFT_FREE_CASES[case]
    q_pos, k_pos = np.arange(tk - tq, tk), np.arange(tk)
    shape = (2, 3, tq, tk)
    rng = np.random.default_rng(tq + tk)
    scores = rng.uniform(-BOUND, BOUND, shape) if fill is None else np.full(shape, fill)
    scores = scores.astype(np.float32)
    expected = reference_causal_softmax(scores, q_pos, k_pos)
    block = scores.copy()
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        weights, inv = causal_attention_weights(block, shift=False)
    assert weights is block and inv.dtype == np.float32 and inv.shape == (*shape[:-1], 1)
    probs = weights * inv
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-6)
    masked = np.broadcast_to(k_pos[None, :] > q_pos[:, None], shape)
    assert not weights[masked].any()
    np.testing.assert_allclose(probs.sum(axis=-1, dtype=np.float64), 1.0, rtol=0, atol=1e-6)


@pytest.mark.parametrize("shift", [True, False])
def test_gemv_row_sums_match_float64_sums(shift):
    # a wide-prefill block: 2 KV heads, 4 query heads each, 34 rows, 960 keys
    rng = np.random.default_rng(34 + shift)
    shape = (2, 4, 34, 960)
    scores = (rng.uniform(-BOUND, BOUND, shape) if not shift
              else rng.standard_normal(shape) * 3).astype(np.float32)
    weights, inv = causal_attention_weights(scores, shift=shift)
    sums = weights.sum(axis=-1, dtype=np.float64, keepdims=True)
    np.testing.assert_allclose(np.reciprocal(inv, dtype=np.float64), sums, rtol=1e-6)


# elements whose squares are normal float32 numbers, where each squared norm
# is within float32 rounding of the exact one
_ELEMENTS = st.floats(-64, 64, width=32).map(lambda v: v if abs(v) >= 2**-10 else 0.0)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(q=arrays(np.float32, st.tuples(st.integers(1, 6), st.just(4), st.just(8)),
                elements=_ELEMENTS),
       keys=arrays(np.float32, st.tuples(st.integers(1, 6), st.just(2), st.just(8)),
                   elements=_ELEMENTS))
@example(q=np.full((1, 4, 8), 0.1, dtype=np.float32),  # parallel: Cauchy–Schwarz is tight
         keys=np.full((2, 2, 8), 0.1, dtype=np.float32))
def test_score_bound_is_at_least_every_score(q, keys):
    scale = np.float32(1.0 / math.sqrt(8))
    q64, k64 = q.astype(np.float64).reshape(-1, 8), keys.astype(np.float64).reshape(-1, 8)
    true_max = float(np.abs(q64 @ k64.T).max()) * float(scale)
    assert model.score_bound(q, keys, scale) >= true_max


@pytest.mark.parametrize("tq", [1, 7, 33])
def test_a_call_above_the_bound_keeps_the_max_subtract(monkeypatch, tq):
    # ordinary queries take the shift-free softmax in every block of a
    # multi-row call; queries scaled by 1e3 put the bound above BOUND and take
    # the max-subtract, with no warning; a one-row call always takes it.
    # Integer queries and keys and d_head = 16 (scale 1/4) make every float32
    # score exact, so the reference sees only the softmax and the value step.
    cfg = ModelConfig(n_layers=1, d_hidden=64, n_q_heads=4, n_kv_heads=2, d_head=16,
                      d_mlp=16, max_seq=64)
    rng = np.random.default_rng(900 + tq)
    q = rng.integers(-2, 3, (tq, cfg.n_q_heads, cfg.d_head)).astype(np.float32)
    keys = rng.integers(-2, 3, (HISTORY, cfg.n_kv_heads, cfg.d_head)).astype(np.float32)
    values = (rng.standard_normal((HISTORY, cfg.n_kv_heads, cfg.d_head)) * 0.5).astype(np.float32)
    w_o = (rng.standard_normal((cfg.d_hidden, cfg.d_hidden)) * 0.5).astype(np.float32)
    shifts = []
    real = model.causal_attention_weights

    def recording(scores, **kwargs):
        shifts.append(kwargs["shift"])
        return real(scores, **kwargs)

    monkeypatch.setattr(model, "causal_attention_weights", recording)
    for q_scale, above in [(1.0, False), (1e3, True)]:
        q_scaled = q * np.float32(q_scale)
        assert (model.score_bound(q_scaled, keys, np.float32(0.25)) > BOUND) == above
        shifts.clear()
        out = attention_block(q_scaled.copy(), keys, values, w_o, cfg)
        assert shifts and shifts == [above or tq == 1] * len(shifts)
        expected = reference_attention(q_scaled, keys, values, w_o)
        np.testing.assert_allclose(out, expected, atol=1e-5)


# -- RoPE as one complex multiply ------------------------------------------------

def _pairwise_rope(vectors, positions, table):
    """The textbook pairwise rotation in float64 from the table's cos/sin."""
    cos = table[:, 0].real[positions][:, None, :].astype(np.float64)
    sin = table[:, 0].imag[positions][:, None, :].astype(np.float64)
    even, odd = vectors[..., 0::2].astype(np.float64), vectors[..., 1::2].astype(np.float64)
    out = np.empty(vectors.shape)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out


def test_complex_rope_matches_pairwise_formula(toy_cfg):
    table = build_rope_table(toy_cfg)
    rng = np.random.default_rng(21)
    vectors = rng.standard_normal((12, toy_cfg.n_q_heads, toy_cfg.d_head)).astype(np.float32)
    rotated = vectors.copy()
    assert apply_rope(rotated, 200, table) is rotated
    np.testing.assert_allclose(rotated, _pairwise_rope(vectors, np.arange(200, 212), table),
                               atol=1e-6)


@pytest.mark.parametrize("make", [
    lambda base: base.transpose(1, 0, 2),  # (tokens, heads, d_head), not C-contiguous
    lambda base: np.ascontiguousarray(base.transpose(1, 0, 2), dtype=np.float64),
])
def test_rope_refuses_what_it_cannot_rotate_in_place(toy_cfg, make):
    table = build_rope_table(toy_cfg)
    base = np.random.default_rng(21).standard_normal(
        (toy_cfg.n_q_heads, 12, toy_cfg.d_head)).astype(np.float32)
    vectors = make(base)
    before = vectors.tobytes()
    with pytest.raises(InputError, match="C-contiguous float32"):
        apply_rope(vectors, 200, table)
    assert vectors.tobytes() == before


def test_rope_table_is_one_complex_table_with_exact_cos_sin(toy_cfg):
    table = build_rope_table(toy_cfg)
    half = toy_cfg.d_head // 2
    inv_freq = toy_cfg.rope_theta ** (-np.arange(0, half, dtype=np.float64) * 2.0
                                      / toy_cfg.d_head)
    angles = np.arange(toy_cfg.max_seq, dtype=np.float64)[:, None] * inv_freq[None, :]
    assert table[:, 0].real.tobytes() == np.cos(angles).astype(np.float32).tobytes()
    assert table[:, 0].imag.tobytes() == np.sin(angles).astype(np.float32).tobytes()
    # its cos (real) and sin (imaginary) parts are views into the one complex64 table
    assert table[:, 0].dtype == np.complex64
    assert table[:, 0].nbytes == 2 * 4 * toy_cfg.max_seq * half
    assert (np.shares_memory(table[:, 0].real, table[:, 0])
            and np.shares_memory(table[:, 0].imag, table[:, 0]))


# -- RoPE over consecutive positions ----------------------------------------------

def _gathered_rope(vectors, first, table):
    """The reference: one rotation row gathered per token from the table by position."""
    rotations = table[:, 0][np.arange(first, first + len(vectors))][:, None, :]
    return (vectors.view(np.complex64) * rotations).view(np.float32)


@pytest.mark.parametrize("first, stop", [(0, 1), (0, 64), (17, 29), (200, 256), (5, 5)])
def test_rope_over_a_range_is_bit_identical_to_the_gather(toy_cfg, first, stop):
    table = build_rope_table(toy_cfg)
    vectors = np.random.default_rng(first + stop).standard_normal(
        (stop - first, toy_cfg.n_kv_heads, toy_cfg.d_head)).astype(np.float32)
    gathered = _gathered_rope(vectors, first, table)
    in_place = vectors.copy()
    assert apply_rope(in_place, first, table) is in_place
    assert in_place.tobytes() == gathered.tobytes()
    # keys, which take the head-tiled table, and queries, which broadcast one row
    n = stop - first
    for heads in (toy_cfg.n_kv_heads, toy_cfg.n_q_heads):
        vectors = np.random.default_rng(heads).standard_normal(
            (n, heads, toy_cfg.d_head)).astype(np.float32)
        expected = _gathered_rope(vectors, first, table)
        rotated = vectors.copy()
        assert apply_rope(rotated, first, table) is rotated
        assert rotated.tobytes() == expected.tobytes()
        if n == 0:
            continue
        # both capacity checks run before anything is written
        untouched = vectors.copy()
        for outside in (toy_cfg.max_seq - n + 1, -1):
            with pytest.raises(CapacityError):
                apply_rope(untouched, outside, table)
            assert untouched.tobytes() == vectors.tobytes()


@pytest.mark.parametrize("tokens", [1, 64, 300])
def test_tiled_key_rotation_is_bit_identical_to_the_gathered_rotation(tokens):
    cfg = ModelConfig(n_layers=1, d_hidden=64, n_q_heads=4, n_kv_heads=2, d_head=16,
                      d_mlp=16, max_seq=320)
    table = build_rope_table(cfg)
    assert table.shape == (cfg.max_seq, cfg.n_kv_heads, cfg.d_head // 2)
    assert np.array_equal(table, np.broadcast_to(table[:, 0][:, None], table.shape))
    first = cfg.max_seq - tokens - 3
    positions = np.arange(first, first + tokens)
    rotations = table[:, 0][positions][:, None, :]  # one gathered row per token, over the heads
    rng = np.random.default_rng(tokens)
    for heads in (cfg.n_kv_heads, cfg.n_q_heads):  # keys take the tiled table, queries not
        vectors = rng.standard_normal((tokens, heads, cfg.d_head)).astype(np.float32)
        expected = (vectors.view(np.complex64) * rotations).view(np.float32).tobytes()
        rotated = vectors.copy()
        assert apply_rope(rotated, first, table) is rotated
        assert rotated.tobytes() == expected


@pytest.mark.parametrize("positions", [range(250, 257), range(-1, 3)])
def test_rope_range_outside_the_table_raises(toy_cfg, positions):
    # start + T > max_seq, and start = -1: nothing is written first
    table = build_rope_table(toy_cfg)
    vectors = np.full((len(positions), 1, toy_cfg.d_head), 7.0, dtype=np.float32)
    with pytest.raises(CapacityError):
        apply_rope(vectors, positions.start, table)
    assert (vectors == 7.0).all()


def test_restore_keys_allocates_only_its_keys():
    # the GEMM output is rotated in place and the rotations are a table slice;
    # beyond the keys, only numpy's fixed-size ufunc buffer for the broadcast
    # multiply (np.getbufsize() complex64 elements, whatever Tk is) is allowed
    cfg = ModelConfig(n_layers=1, d_hidden=256, n_q_heads=8, n_kv_heads=2, d_head=32,
                      d_mlp=16, max_seq=1024)
    rope = build_rope_table(cfg)
    rng = np.random.default_rng(3)
    latents = rng.standard_normal((512, 179)).astype(np.float32)
    k_factor = rng.standard_normal((179, cfg.d_kv)).astype(np.float32)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        keys = latent_cache.restore_keys(latents, k_factor, rope, cfg.n_kv_heads)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert keys.nbytes == 512 * cfg.d_kv * 4
    assert peak <= keys.nbytes + 8 * np.getbufsize() + 4096


# -- one decode row over histories of any length ----------------------------------

@pytest.mark.parametrize("heads_per_kv", [1, 2, 4])
@pytest.mark.parametrize("tk", [1, 40, 600])
def test_decode_row_matches_per_head_reference(heads_per_kv, tk):
    # one query row takes the keys-left scores GEMM
    cfg = dataclasses.replace(_config(heads_per_kv), max_seq=640)
    rng = np.random.default_rng(1000 * heads_per_kv + tk)

    def rand(*shape):
        return (rng.standard_normal(shape) * 0.5).astype(np.float32)

    q = rand(1, cfg.n_q_heads, cfg.d_head)
    keys, values = rand(tk, cfg.n_kv_heads, cfg.d_head), rand(tk, cfg.n_kv_heads, cfg.d_head)
    w_o = rand(cfg.d_hidden, cfg.d_hidden)
    out = attention_block(q, keys, values, w_o, cfg)
    expected = reference_attention(q, keys, values, w_o)
    np.testing.assert_allclose(out, expected, atol=1e-5)
    # the same keys inside a wider buffer: a non-contiguous (Tk, n_kv, d_head) view
    padded = np.zeros((tk, cfg.n_kv_heads, cfg.d_head + 3), dtype=np.float32)
    padded[..., :cfg.d_head] = keys
    keys_nc = padded[..., :cfg.d_head]
    assert not keys_nc.flags.c_contiguous
    out = attention_block(q, keys_nc, values, w_o, cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)

    latents, k_factor, v_factor = rand(tk, RANK), rand(RANK, cfg.d_kv), rand(RANK, cfg.d_kv)
    expected = reference_latent_attention(q, latents, k_factor, v_factor, w_o, cfg.rope_theta)
    out = attend_latent(q, latents, k_factor, v_factor, w_o, build_rope_table(cfg), cfg)
    np.testing.assert_allclose(out, expected, atol=1e-5)


# -- the benchmark's wide shapes against the float64 oracle -------------------------

WIDE = ModelConfig(n_layers=1, d_hidden=256, n_q_heads=8, n_kv_heads=2, d_head=32,
                   d_mlp=16, max_seq=1024)
WIDE_LATENT_RANK = 179  # rank fraction 0.7 of 256


def _wide_inputs(tq: int, tk: int, seed: int) -> dict:
    rng = np.random.default_rng(seed)

    def rand(*shape, scale=0.5):
        return (rng.standard_normal(shape) * scale).astype(np.float32)

    return {"q": rand(tq, WIDE.n_q_heads, WIDE.d_head, scale=1.0),
            "keys": rand(tk, WIDE.n_kv_heads, WIDE.d_head, scale=1.0),
            "values": rand(tk, WIDE.n_kv_heads, WIDE.d_head),
            "w_o": rand(WIDE.d_hidden, WIDE.d_hidden, scale=WIDE.d_hidden ** -0.5),
            "latents": rand(tk, WIDE_LATENT_RANK),
            "k_factor": rand(WIDE_LATENT_RANK, WIDE.d_kv, scale=0.1),
            "v_factor": rand(WIDE_LATENT_RANK, WIDE.d_kv, scale=0.1)}


def test_wide_prefill_attention_block_matches_reference(monkeypatch):
    # a 960-token prompt at the wide shape: 34-row blocks, the last one short
    blocks = _record_blocks(monkeypatch, model.SCORES_BLOCK_ELEMENTS)
    x = _wide_inputs(960, 960, 960)
    out = attention_block(x["q"].copy(), x["keys"], x["values"], x["w_o"], WIDE)
    expected = reference_attention(x["q"], x["keys"], x["values"], x["w_o"])
    np.testing.assert_allclose(out, expected, atol=1e-5)
    assert [r for r, _ in blocks] == [34] * 28 + [8]


def test_wide_prefill_restore_order_matches_reference(monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return attention_block(*args)

    monkeypatch.setattr(latent_cache, "attention_block", counted)
    x = _wide_inputs(960, 960, 961)
    factors = (x["latents"], x["k_factor"], x["v_factor"], x["w_o"])
    out = attend_latent(x["q"].copy(), *factors, build_rope_table(WIDE), WIDE)
    assert len(calls) == 1  # the restore-values order
    expected = reference_latent_attention(x["q"], *factors, WIDE.rope_theta)
    np.testing.assert_allclose(out, expected, atol=1e-5)


def test_wide_decode_row_mix_order_matches_reference(monkeypatch):
    # the last decode row of the wide-prefill workload: Tk = 960 + 32
    monkeypatch.setattr(latent_cache, "attention_block", None)  # the mix order never calls it
    x = _wide_inputs(1, 992, 992)
    factors = (x["latents"], x["k_factor"], x["v_factor"], x["w_o"])
    out = attend_latent(x["q"], *factors, build_rope_table(WIDE), WIDE)
    expected = reference_latent_attention(x["q"], *factors, WIDE.rope_theta)
    np.testing.assert_allclose(out, expected, atol=1e-5)


# -- latent GEMMs in blocks of at most SMALL_GEMM_MULTIPLY_ADDS ---------------------

LIMIT = model.SMALL_GEMM_MULTIPLY_ADDS
RESTORE_BLOCK = LIMIT // (WIDE_LATENT_RANK * WIDE.d_kv)   # 87 rows at the wide shape
MIX_BLOCK = LIMIT // (WIDE.n_q_heads * WIDE_LATENT_RANK)  # 698 keys of one decode row


def _record_row_blocks(monkeypatch) -> list[tuple[int, list[slice]]]:
    """Each ``latent_cache.block_rows`` call as (multiply-adds per row, the
    row blocks that its row count cuts, as ``model.row_blocks`` gives them)."""
    calls = []

    def recorded(n_rows, width, elements):
        assert elements == LIMIT
        calls.append((width, list(model.row_blocks(n_rows, width, elements))))
        return model.block_rows(n_rows, width, elements)

    monkeypatch.setattr(latent_cache, "block_rows", recorded)
    return calls


def _restored_keys_reference(latents, k_factor):
    tk = len(latents)
    keys = latents.astype(np.float64) @ k_factor.astype(np.float64)
    return _rotate(keys.reshape(tk, WIDE.n_kv_heads, WIDE.d_head), np.arange(tk),
                   WIDE.rope_theta, WIDE.d_head)


@pytest.mark.parametrize("tk", [RESTORE_BLOCK, RESTORE_BLOCK + 1, 2 * RESTORE_BLOCK + 1, 976])
def test_blocked_restore_keys_match_reference(monkeypatch, tk):
    # 87 rows are one GEMM; 88 and more are row blocks written into one buffer
    assert RESTORE_BLOCK == 87
    calls = _record_row_blocks(monkeypatch)
    x = _wide_inputs(1, tk, 5000 + tk)
    keys = latent_cache.restore_keys(x["latents"], x["k_factor"], build_rope_table(WIDE),
                                     WIDE.n_kv_heads)
    assert keys.shape == (tk, WIDE.n_kv_heads, WIDE.d_head) and keys.dtype == np.float32
    np.testing.assert_allclose(keys, _restored_keys_reference(x["latents"], x["k_factor"]),
                               rtol=1e-5, atol=1e-5)
    assert len(calls) == (tk > RESTORE_BLOCK)


@pytest.mark.parametrize("tk", [MIX_BLOCK, MIX_BLOCK + 1, 700, 992])
def test_wide_decode_row_over_key_blocks_matches_reference(monkeypatch, tk):
    # 698 keys are one mix GEMM (999 536 multiply-adds); 699 and more are summed blocks
    assert MIX_BLOCK == 698
    monkeypatch.setattr(latent_cache, "attention_block", None)  # the mix order never calls it
    calls = _record_row_blocks(monkeypatch)
    x = _wide_inputs(1, tk, 6000 + tk)
    factors = (x["latents"], x["k_factor"], x["v_factor"], x["w_o"])
    out = attend_latent(x["q"], *factors, build_rope_table(WIDE), WIDE)
    expected = reference_latent_attention(x["q"], *factors, WIDE.rope_theta)
    np.testing.assert_allclose(out, expected, atol=1e-5)
    mix_width = WIDE.n_q_heads * WIDE_LATENT_RANK
    assert [width for width, _ in calls if width == mix_width] == [mix_width] * (tk > MIX_BLOCK)


@pytest.mark.parametrize("tq, tk", [(1, 976), (1, 992), (960, 960)])
def test_no_latent_gemm_block_exceeds_the_small_gemm_limit(monkeypatch, tq, tk):
    # every restore block (rows x r x d_kv) and mix block (n_q x keys x r) stays
    # at or under the limit, and the blocks cover every row once, in order
    calls = _record_row_blocks(monkeypatch)
    x = _wide_inputs(tq, tk, 7000 + tk)
    attend_latent(x["q"].copy(), x["latents"], x["k_factor"], x["v_factor"], x["w_o"],
                  build_rope_table(WIDE), WIDE)
    restore_width = WIDE_LATENT_RANK * WIDE.d_kv
    mix_width = WIDE.n_q_heads * WIDE_LATENT_RANK
    kinds = [width for width, _ in calls]
    # a decode row restores keys and mixes; a prompt restores keys and values
    assert kinds == ([restore_width, mix_width] if tq == 1 else [restore_width] * 2)
    for width, blocks in calls:
        assert all((b.stop - b.start) * width <= LIMIT for b in blocks)
        assert [i for b in blocks for i in range(tk)[b]] == list(range(tk))


def test_one_block_calls_are_the_single_gemm_bit_for_bit(monkeypatch):
    # a product under the limit takes no block loop: its bits are one GEMM's
    rope = build_rope_table(WIDE)
    x = _wide_inputs(1, MIX_BLOCK, 8000)
    latents, k_factor = x["latents"], x["k_factor"]
    calls = _record_row_blocks(monkeypatch)
    keys = latent_cache.restore_keys(latents[:RESTORE_BLOCK], k_factor, rope, WIDE.n_kv_heads)
    single = apply_rope((latents[:RESTORE_BLOCK] @ k_factor).reshape(RESTORE_BLOCK, 2, -1),
                        0, rope)
    assert keys.tobytes() == single.tobytes()
    assert calls == []
    args = (latents, k_factor, x["v_factor"], x["w_o"], rope, WIDE)
    out = attend_latent(x["q"], *args)
    monkeypatch.setattr(latent_cache, "SMALL_GEMM_MULTIPLY_ADDS", 10**12)  # one GEMM each
    assert out.tobytes() == attend_latent(x["q"], *args).tobytes()
    assert [width for width, _ in calls] == [WIDE_LATENT_RANK * WIDE.d_kv]  # the keys only
