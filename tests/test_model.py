import inspect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonkv.corpus import markov_byte_corpus
from commonkv.errors import CapacityError, ConfigurationError, InputError
from commonkv.evaluation import RawKVSession
from commonkv.latent_cache import LatentSession
from commonkv.model import (BaselineSession, KVCache, ModelConfig, apply_rope,
                            build_rope_table, decoder_layer, forward, forward_baseline,
                            gen_toy_model, load_model, loss_and_grads, save_model)
from micro_config import MICRO
from oracles import engine_fd_gradient, reference_fd_gradient, reference_loss, sequence_nll


def test_same_seed_bit_identical(toy_cfg):
    a = gen_toy_model(toy_cfg, 42)
    b = gen_toy_model(toy_cfg, 42)
    for name, arr in a.named_tensors().items():
        assert arr.tobytes() == b.named_tensors()[name].tobytes(), name


def test_different_seed_differs(toy_cfg):
    a = gen_toy_model(toy_cfg, 42)
    b = gen_toy_model(toy_cfg, 43)
    assert a.layers[0].w_k.tobytes() != b.layers[0].w_k.tobytes()


def test_bad_head_divisibility_rejected():
    with pytest.raises(ConfigurationError):
        ModelConfig(n_q_heads=3, n_kv_heads=2, d_head=16, d_hidden=48)


def test_wk_shape(toy_weights):
    assert toy_weights.layers[0].w_k.shape == (64, 32)


def test_model_file_round_trip(tmp_path, toy_weights):
    path = tmp_path / "model.tnsr"
    save_model(toy_weights, path)
    loaded = load_model(path)
    assert loaded.config == toy_weights.config
    assert loaded.seed == toy_weights.seed
    for name, arr in toy_weights.named_tensors().items():
        np.testing.assert_array_equal(arr, loaded.named_tensors()[name])


# -- RoPE --------------------------------------------------------------------

def test_rope_identity_at_position_zero(toy_cfg):
    table = build_rope_table(toy_cfg)
    rng = np.random.default_rng(1)
    v = rng.standard_normal((1, toy_cfg.n_q_heads, toy_cfg.d_head)).astype(np.float32)
    np.testing.assert_array_equal(apply_rope(v.copy(), 0, table), v)


def test_rope_isometry(toy_cfg):
    table = build_rope_table(toy_cfg)
    rng = np.random.default_rng(2)
    v = rng.standard_normal((10, toy_cfg.n_q_heads, toy_cfg.d_head)).astype(np.float32)
    rotated = apply_rope(v.copy(), 5, table)
    before = np.linalg.norm(v, axis=-1)
    after = np.linalg.norm(rotated, axis=-1)
    np.testing.assert_allclose(after, before, rtol=1e-6, atol=1e-6)


def test_rope_position_overflow(toy_cfg):
    table = build_rope_table(toy_cfg)
    v = np.zeros((1, 1, toy_cfg.d_head), dtype=np.float32)
    with pytest.raises(CapacityError):
        apply_rope(v, toy_cfg.max_seq, table)


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 255), st.integers(0, 2**31 - 1))
def test_rope_isometry_property(position, seed):
    cfg = ModelConfig()
    table = build_rope_table(cfg)
    v = np.random.default_rng(seed).standard_normal(
        (1, cfg.n_q_heads, cfg.d_head)).astype(np.float32)
    rotated = apply_rope(v.copy(), position, table)
    np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1),
                               np.linalg.norm(v, axis=-1), rtol=1e-6, atol=1e-6)


# -- forward -----------------------------------------------------------------

def test_single_token_rope_identity_on_cached_key(toy_weights):
    ids = np.array([65])
    _, cache = forward_baseline(toy_weights, ids)
    lw = toy_weights.layers[0]
    from commonkv.model import rms_norm
    xn = rms_norm(toy_weights.embed[ids], lw.attn_gain)
    raw_k = (xn @ lw.w_k).reshape(1, toy_weights.config.n_kv_heads,
                                  toy_weights.config.d_head)
    np.testing.assert_array_equal(cache.layers[0].keys, raw_k)


def test_prefill_decode_matches_one_shot(toy_weights):
    for seed in range(3):
        ids = markov_byte_corpus(seed, 1, 40)[0]
        full, _ = forward_baseline(toy_weights, ids)
        part, cache = forward_baseline(toy_weights, ids[:-1])
        last, _ = forward_baseline(toy_weights, ids[-1:], cache)
        assert np.abs(full[-1] - last[0]).max() < 1e-5


def test_logits_bit_reproducible(toy_weights, probe_ids):
    a, _ = forward_baseline(toy_weights, probe_ids[:50])
    b, _ = forward_baseline(toy_weights, probe_ids[:50])
    assert a.tobytes() == b.tobytes()


def test_sequence_overflow(toy_weights):
    with pytest.raises(CapacityError):
        forward_baseline(toy_weights, np.zeros(toy_weights.config.max_seq + 1, dtype=int))


def test_bad_token_rejected(toy_weights):
    with pytest.raises(InputError):
        forward_baseline(toy_weights, np.array([300]))


def test_session_decode_equals_functional(toy_weights, probe_ids):
    session = BaselineSession(toy_weights)
    session.prefill(probe_ids[:20])
    row = session.decode(int(probe_ids[20]))
    full, _ = forward_baseline(toy_weights, probe_ids[:21])
    assert np.abs(row - full[-1]).max() < 1e-5


# -- the KV-store contract ---------------------------------------------------------

class RecordingStore:
    """A full-KV cache that logs each store call ``forward`` makes."""

    def __init__(self, weights):
        self.weights = weights
        self.cache = KVCache(weights)
        self.calls = []

    @property
    def n_tokens(self):
        return self.cache.n_tokens

    def append(self, layer, xn, start):
        self.calls.append(("append", layer, start, xn.shape))
        self.cache.append(layer, xn, start)

    def attend(self, layer, q):
        self.calls.append(("attend", layer, q.shape))
        return self.cache.attend(layer, q)


def test_forward_appends_then_attends_each_layer_in_order(micro_weights, probe_ids):
    cfg = micro_weights.config
    store, plain = RecordingStore(micro_weights), KVCache(micro_weights)
    for chunk in (probe_ids[:5], [int(probe_ids[5])], probe_ids[6:9]):
        held, store.calls = store.n_tokens, []
        logits = forward(store, chunk)
        assert store.calls == [call for layer in range(cfg.n_layers) for call in (
            ("append", layer, held, (len(chunk), cfg.d_hidden)),
            ("attend", layer, (len(chunk), cfg.n_q_heads, cfg.d_head)))]
        assert logits.tobytes() == forward(plain, chunk).tobytes()
    # a rejected call makes no store call
    for bad in ([], [256], np.zeros(cfg.max_seq - store.n_tokens + 1, dtype=np.int64)):
        store.calls = []
        with pytest.raises((InputError, CapacityError)):
            forward(store, bad)
        assert store.calls == [] and store.n_tokens == 9


def test_every_store_takes_the_narrow_contract():
    def params(func):
        return list(inspect.signature(func).parameters)

    for store in (KVCache, LatentSession, RawKVSession):
        assert params(store.append) == ["self", "layer", "xn", "start"], store
        assert params(store.attend) == ["self", "layer", "q"], store
    assert params(forward) == ["store", "token_ids"]
    assert params(decoder_layer) == ["x", "layer", "store", "start"]


# -- loss and gradients --------------------------------------------------------

def test_uniform_logits_loss_is_log_vocab(micro_weights, probe_ids):
    zeroed = gen_toy_model(MICRO, 7)
    zeroed.lm_head[:] = 0.0
    assert sequence_nll(zeroed, probe_ids[:16]) == pytest.approx(np.log(256), abs=1e-12)
    loss, _ = loss_and_grads(zeroed, probe_ids[:16])
    assert loss == pytest.approx(np.log(256), abs=1e-12)


def test_loss_matches_independent_reference(micro_weights):
    ids = markov_byte_corpus(5, 1, 12)[0]
    loss, _ = loss_and_grads(micro_weights, ids)
    ref = reference_loss(micro_weights.named_tensors(), MICRO.to_dict(), ids)
    assert loss == pytest.approx(ref, abs=1e-8)


def test_gradients_match_finite_difference_oracle(micro_weights):
    ids = markov_byte_corpus(5, 1, 12)[0]
    _, grads = loss_and_grads(micro_weights, ids)
    rng = np.random.default_rng(9)
    for _ in range(8):
        layer = int(rng.integers(MICRO.n_layers))
        name = "w_k" if rng.integers(2) else "w_v"
        idx = (int(rng.integers(MICRO.d_hidden)), int(rng.integers(MICRO.d_kv)))
        fd = engine_fd_gradient(micro_weights, ids, layer, name, idx)
        analytic = grads[layer][name][idx]
        assert abs(fd - analytic) / max(abs(fd), 1e-12) < 1e-3, (layer, name, idx)


def test_gradients_match_cross_implementation_fd(micro_weights):
    # FD through the from-scratch reference forward: the two float64
    # implementations agree to ~1e-9 in loss, which differencing amplifies
    # to ~5e-6 absolute on the gradient, hence the atol floor.
    ids = markov_byte_corpus(5, 1, 12)[0]
    _, grads = loss_and_grads(micro_weights, ids)
    tensors = micro_weights.named_tensors()
    rng = np.random.default_rng(9)
    for _ in range(8):
        layer = int(rng.integers(MICRO.n_layers))
        name = "w_k" if rng.integers(2) else "w_v"
        idx = (int(rng.integers(MICRO.d_hidden)), int(rng.integers(MICRO.d_kv)))
        fd = reference_fd_gradient(tensors, MICRO.to_dict(), ids,
                                   f"layers.{layer}.{name}", idx)
        analytic = grads[layer][name][idx]
        assert abs(fd - analytic) < 1e-3 * max(abs(fd), abs(analytic)) + 2e-5, \
            (layer, name, idx)


# two KV heads of two query heads each, so head order across KV heads shows
GQA_MICRO = ModelConfig(n_layers=2, d_hidden=16, n_q_heads=4, n_kv_heads=2,
                        d_head=4, d_mlp=16, max_seq=32)


def test_gradients_with_several_kv_heads_match_the_reference():
    weights = gen_toy_model(GQA_MICRO, 13)
    tensors, cfg = weights.named_tensors(), GQA_MICRO.to_dict()
    ids = markov_byte_corpus(5, 1, 12)[0]
    loss, grads = loss_and_grads(weights, ids)
    assert loss == pytest.approx(reference_loss(tensors, cfg, ids), abs=1e-8)
    rng = np.random.default_rng(4)
    for layer in range(GQA_MICRO.n_layers):
        for name in ("w_k", "w_v"):
            for kv in range(GQA_MICRO.n_kv_heads):  # a column of each KV head
                idx = (int(rng.integers(GQA_MICRO.d_hidden)),
                       kv * GQA_MICRO.d_head + int(rng.integers(GQA_MICRO.d_head)))
                fd = reference_fd_gradient(tensors, cfg, ids, f"layers.{layer}.{name}", idx)
                analytic = grads[layer][name][idx]
                assert abs(fd - analytic) < 1e-3 * max(abs(fd), abs(analytic)) + 2e-5, \
                    (layer, name, idx)


@pytest.mark.parametrize("batch", ["equal", "ragged", "2-D array"])
def test_loss_rejects_a_batch_of_sequences(micro_weights, batch):
    # used to score a batch; one sequence per call now, and a batch must not
    # be read as one concatenated sequence
    ids = markov_byte_corpus(6, 1, 14)[0]
    tokens = {"equal": [ids, ids], "ragged": [ids, ids[:5]],
              "2-D array": np.stack([ids, ids])}[batch]
    with pytest.raises(InputError, match="one flat sequence"):
        loss_and_grads(micro_weights, tokens)


@pytest.mark.parametrize("prompt", [np.array([[1, 2], [3, 4]]), np.int64(5), [[1, 2], [3]]],
                         ids=["2-D", "scalar", "ragged"])
def test_prompt_that_is_not_one_sequence_leaves_the_cache_empty(micro_weights, prompt):
    # a 2-D or scalar prompt used to be flattened and cached (4 tokens, 1 token);
    # a ragged one raised numpy's ValueError
    session = BaselineSession(micro_weights)
    with pytest.raises(InputError, match="one flat sequence"):
        session.prefill(prompt)
    assert session.cache.n_tokens == 0


def test_loss_rejects_short_sequence(micro_weights):
    with pytest.raises(InputError):
        loss_and_grads(micro_weights, np.array([1]))
    with pytest.raises(InputError):
        sequence_nll(micro_weights, np.array([1]))
