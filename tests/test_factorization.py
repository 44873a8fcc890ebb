import tracemalloc
import warnings

import numpy as np
import pytest

from commonkv import tensorfile
from commonkv.cli import main
from commonkv.errors import ConfigurationError, NumericError
from commonkv.factorization import (GroupLayout, build_factorization, clamp_rank,
                                    concat_group_weights, factorize_group,
                                    fuse_value_output, load_factorized,
                                    split_right_factor, transform_model)
from commonkv.model import ModelConfig, gen_toy_model, load_model, save_model
from micro_config import MICRO
from oracles import singular_values_by_eig


@pytest.fixture(scope="module")
def micro4():
    # d_hidden=8, d_kv=4: the shape used by the concatenation examples
    return gen_toy_model(MICRO, 3)


# -- group layout / concatenation --------------------------------------------

def test_layout_partitions_layers():
    layout = GroupLayout.for_model(8, 4)
    assert layout.groups == ((0, 4), (4, 8))
    assert layout.group_of(3) == 0 and layout.group_of(4) == 1


def test_layout_requires_divisibility():
    with pytest.raises(ConfigurationError):
        GroupLayout.for_model(8, 3)


def test_concat_shape(micro4):
    w_g = concat_group_weights(micro4, range(0, 2))
    assert w_g.shape == (8, 16)


def test_concat_first_block_is_first_layer_wk(micro4):
    w_g = concat_group_weights(micro4, range(0, 2))
    assert w_g[:, 0:4].tobytes() == micro4.layers[0].w_k.tobytes()
    assert w_g[:, 4:8].tobytes() == micro4.layers[0].w_v.tobytes()


def test_concat_single_layer_group(micro4):
    w_g = concat_group_weights(micro4, range(1, 2))
    assert w_g.shape == (8, 8)
    np.testing.assert_array_equal(
        w_g, np.concatenate([micro4.layers[1].w_k, micro4.layers[1].w_v], axis=1))


# -- SVD split -----------------------------------------------------------------

def test_identity_full_rank_reconstruction():
    eye = np.eye(8, dtype=np.float32)
    a, r = factorize_group(eye, 8)
    np.testing.assert_allclose(a @ r, eye, atol=1e-6)


def test_rank_one_matrix_exact_at_rank_one():
    rng = np.random.default_rng(4)
    w = np.outer(rng.standard_normal(8), rng.standard_normal(16))
    a, r = factorize_group(w, 1)
    err = np.linalg.norm(a @ r - w) / np.linalg.norm(w)
    assert err < 1e-6


def test_truncation_error_matches_singular_tail():
    rng = np.random.default_rng(5)
    w = rng.standard_normal((8, 16))
    sigma = singular_values_by_eig(w)
    for rank in (1, 3, 4, 7):
        a, r = factorize_group(w, rank)
        err = np.linalg.norm(a @ r - w)
        tail = np.sqrt(np.sum(sigma[rank:] ** 2))
        assert err == pytest.approx(tail, abs=1e-6)


def test_rank_bounds_enforced():
    w = np.ones((4, 6), dtype=np.float32)
    with pytest.raises(ConfigurationError):
        factorize_group(w, 0)
    with pytest.raises(ConfigurationError):
        factorize_group(w, 5)


def test_sign_convention_makes_factors_deterministic():
    rng = np.random.default_rng(6)
    w = rng.standard_normal((8, 12))
    a1, r1 = factorize_group(w, 5)
    a2, r2 = factorize_group(w, 5)
    assert a1.tobytes() == a2.tobytes() and r1.tobytes() == r2.tobytes()
    assert all(a1[np.argmax(np.abs(a1[:, j])), j] > 0 for j in range(5))


def test_slice_round_trip_is_bit_exact(micro4):
    members = range(0, 2)
    w_g = concat_group_weights(micro4, members)
    _, r = factorize_group(w_g, 6)
    parts = split_right_factor(r, members, MICRO.d_kv)
    rebuilt = np.concatenate([m for l in members for m in parts[l]], axis=1)
    assert rebuilt.tobytes() == r.tobytes()


def test_error_monotone_in_rank():
    rng = np.random.default_rng(7)
    w = rng.standard_normal((8, 16))
    errors = []
    for rank in range(1, 9):
        a, r = factorize_group(w, rank)
        errors.append(np.linalg.norm(a @ r - w))
    assert all(errors[i + 1] <= errors[i] + 1e-12 for i in range(len(errors) - 1))


def test_eckart_young_beats_random_factorizations():
    rng = np.random.default_rng(8)
    w = rng.standard_normal((8, 16))
    for rank in (2, 4):
        a, r = factorize_group(w, rank)
        svd_err = np.linalg.norm(a @ r - w)
        for _ in range(30):
            ar = rng.standard_normal((8, rank))
            br = np.linalg.lstsq(ar, w, rcond=None)[0]
            assert np.linalg.norm(ar @ br - w) >= svd_err - 1e-9


def _weights(shape, seed):
    return (0.05 * np.random.default_rng(seed).standard_normal(shape)).astype(np.float32)


def _duplicated_columns(rows, cols, seed):
    # ``cols // 2`` distinct columns, each twice: rank cols // 2 < min(shape)
    half = np.random.default_rng(seed).standard_normal((rows, cols // 2))
    return np.concatenate([half, half], axis=1)


GRAM_CASES = {
    # (matrix, rank): the wide and toy group shapes at rank fraction 0.7, and
    # the tall group of one wide-shape layer at its clamped rank
    "wide_256x512": (lambda: _weights((256, 512), 21), 179),
    "toy_64x256": (lambda: _weights((64, 256), 22), 45),
    "tall_256x128": (lambda: _weights((256, 128), 23), 128),
    "duplicated_columns_tall": (lambda: _duplicated_columns(96, 64, 24), 64),
    "duplicated_columns_wide": (lambda: _duplicated_columns(48, 96, 25), 48),
    "identity": (lambda: np.eye(64), 64),
}


@pytest.mark.parametrize("case", sorted(GRAM_CASES))
def test_gram_factors_equal_the_svd_truncation(case):
    make, rank = GRAM_CASES[case]
    w = make()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        a, r = factorize_group(w, rank)
    assert a.shape == (w.shape[0], rank) and r.shape == (rank, w.shape[1])
    assert np.all(np.isfinite(a)) and np.all(np.isfinite(r))
    u, s, vt = np.linalg.svd(w.astype(np.float64), full_matrices=False)
    truncated = (u[:, :rank] * s[:rank]) @ vt[:rank]
    err = np.linalg.norm(a @ r - truncated) / np.linalg.norm(truncated)
    assert err <= 1e-12
    # sign convention: each nonzero column's largest-|entry| is positive; a
    # direction at rounding level is a zero column of A and a zero row of R
    top = a[np.argmax(np.abs(a), axis=0), np.arange(rank)]
    zero = ~a.any(axis=0)
    assert np.all((top > 0) | zero)
    np.testing.assert_array_equal(zero, ~r.any(axis=1))


def test_duplicated_columns_zero_exactly_the_null_directions():
    # rank 32 of 64: the 32 kept directions come first, the null ones are zero
    a, r = factorize_group(_duplicated_columns(96, 64, 24), 64)
    assert a[:, :32].any(axis=0).all() and r[:32].any(axis=1).all()
    assert not a[:, 32:].any() and not r[32:].any()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_group_weights_raise_numeric_error(bad):
    for shape, rank in (((8, 16), 4), ((16, 8), 4)):
        w = _weights(shape, 26)
        w[3, 5] = bad
        with pytest.raises(NumericError, match="non-finite"):
            factorize_group(w, rank)


# -- fusion ----------------------------------------------------------------------

def test_fused_matches_unfused_attention_output(fact07, toy_weights):
    weights, fact, _ = fact07
    cfg = weights.config
    tensors, _ = tensorfile.deserialize(transform_model(toy_weights, 4, 0.7)[0])
    rng = np.random.default_rng(9)
    latents = rng.standard_normal((12, fact.rank)).astype(np.float32)
    probs = rng.random((cfg.n_q_heads, 5, 12)).astype(np.float32)
    probs /= probs.sum(axis=-1, keepdims=True)
    for layer in range(cfg.n_layers):
        b_v = fact.v_factors[layer]
        w_o = weights.layers[layer].w_o
        values = (latents @ b_v).reshape(12, cfg.n_kv_heads, cfg.d_head)
        o_cat = np.concatenate(
            [probs[q] @ values[:, cfg.kv_head_of(q), :] for q in range(cfg.n_q_heads)],
            axis=-1)
        unfused = o_cat @ w_o
        fused = sum((probs[q] @ latents) @ tensors[f"layers.{layer}.fused_out"][q]
                    for q in range(cfg.n_q_heads))
        assert np.abs(fused - unfused).max() < 1e-5


def test_single_head_fusion_is_plain_product():
    cfg = ModelConfig(n_layers=1, d_hidden=8, n_q_heads=1, n_kv_heads=1,
                      d_head=8, d_mlp=16, max_seq=16)
    rng = np.random.default_rng(10)
    b_v = rng.standard_normal((5, cfg.d_kv)).astype(np.float32)
    w_o = rng.standard_normal((cfg.d_hidden, cfg.d_hidden)).astype(np.float32)
    fused = fuse_value_output(b_v, w_o, cfg)
    assert fused.shape == (1, 5, cfg.d_hidden)
    np.testing.assert_allclose(fused[0], b_v @ w_o, atol=1e-6)


def test_zero_value_factor_fuses_to_zero(toy_cfg):
    b_v = np.zeros((5, toy_cfg.d_kv), dtype=np.float32)
    w_o = np.ones((toy_cfg.d_hidden, toy_cfg.d_hidden), dtype=np.float32)
    assert not fuse_value_output(b_v, w_o, toy_cfg).any()


# -- whole-model transform ---------------------------------------------------------

def test_rank_arithmetic(toy_cfg):
    assert clamp_rank(0.7, toy_cfg, 4) == 45
    assert clamp_rank(1.0, toy_cfg, 4) == 64
    assert clamp_rank(1.0, toy_cfg, 1) == 64   # 2*d_kv == d_hidden here
    tight = ModelConfig(n_layers=2, d_hidden=64, n_q_heads=4, n_kv_heads=1, d_head=16)
    # 2*m*d_kv = 32 < d_hidden: the clamp must kick in
    assert clamp_rank(1.0, tight, 1) == 32


def test_full_rank_errors_below_threshold(toy_weights):
    for group_size in (1, 2, 4):
        _, report = transform_model(toy_weights, group_size, 1.0)
        assert max(report["recon_errors"].values()) <= 1e-5


def test_transform_deterministic_bytes(toy_weights):
    blob1, _ = transform_model(toy_weights, 4, 0.7)
    blob2, _ = transform_model(toy_weights, 4, 0.7)
    assert blob1 == blob2


def test_transform_rejects_bad_group_size(toy_weights):
    with pytest.raises(ConfigurationError):
        transform_model(toy_weights, 3, 0.7)


def test_transform_round_trip(fact07, toy_weights):
    weights, fact, report = fact07
    assert fact.rank == 45
    assert report["rank_fraction"] == 0.7
    assert fact.layout.groups == ((0, 4), (4, 8))
    for name, arr in toy_weights.named_tensors().items():
        np.testing.assert_array_equal(arr, weights.named_tensors()[name])


def test_loading_copies_only_the_tensors_it_keeps():
    # at the wide benchmark shape the container's unread fused M_q are 11.7 MB
    # of its 27.3 MB; the load's peak is what it keeps, not the whole payload
    cfg = ModelConfig(n_layers=8, d_hidden=256, n_q_heads=8, n_kv_heads=2, d_head=32,
                      d_mlp=512, max_seq=1024)
    blob, _ = transform_model(gen_toy_model(cfg, 3), 4, 0.7)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        weights, fact = load_factorized(blob)
        held, peak = (n - before for n in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    kept = sum(a.nbytes for a in (*weights.named_tensors().values(), weights.rope,
                                  *fact.shared, *fact.k_factors, *fact.v_factors))
    assert kept > 15_000_000
    assert kept <= held <= kept + 2**16
    assert peak <= held + 2**16
    for arr in (weights.embed, fact.shared[0], fact.k_factors[7]):
        assert arr.flags.owndata and arr.flags.writeable


def _with_fault(blob, name, fault):
    """``blob`` with tensor ``name`` deleted, of shape (3, 3), or holding a NaN
    (poked into the payload past ``serialize``, which refuses it)."""
    if fault == "nan":
        buf = bytearray(blob)
        tensorfile.deserialize(buf)[0][name].flat[0] = np.nan
        return bytes(buf)
    tensors, meta = tensorfile.deserialize(blob)
    if fault == "missing":
        del tensors[name]
    else:
        tensors[name] = np.ones((3, 3), dtype=np.float32)
    return tensorfile.serialize(tensors, meta)


@pytest.mark.parametrize("fault", ["missing", "shape", "nan"])
@pytest.mark.parametrize("loader", ["load_model", "load_factorized"])
def test_every_tensor_a_loader_reads_is_checked(tmp_path, micro4, capsys, loader, fault):
    model, faulty = tmp_path / "model.tnsr", tmp_path / "faulty.tnsr"
    save_model(micro4, model)
    names = list(micro4.named_tensors())
    if loader == "load_model":
        blob = model.read_bytes()
        argv = ["transform", "--model", str(faulty), "--out", str(tmp_path / "x.tnsr")]
    else:
        blob, _ = transform_model(micro4, 2, 0.7)
        names += ["groups.0.shared", "layers.0.k_factor", "layers.1.k_factor",
                  "layers.0.v_factor", "layers.1.v_factor"]
        argv = ["run", "--model", str(model), "--factorized", str(faulty),
                "--mode", "commonkv", "--merge", "mean", "--tokens", "16"]
    clean, _ = tensorfile.deserialize(blob)
    for name in names:
        what = "factorized" if name.startswith("groups.") or "_factor" in name else "model"
        code, message = {
            "missing": (3, f"{what} container lacks {name!r}"),
            "shape": (3, f"{name}: expected shape {clean[name].shape}, got (3, 3)"),
            "nan": (5, f"{name}: contains non-finite values"),
        }[fault]
        faulty.write_bytes(_with_fault(blob, name, fault))
        assert main(argv) == code, name
        assert capsys.readouterr().err == f"error: {message}\n"


def test_build_factorization_rank_override(toy_weights):
    fact = build_factorization(toy_weights, group_size=1, rank=32)
    assert fact.rank == 32
    # [1, min(d_hidden, 2·group_size·d_kv)]: 64 at group size 1 and at 4 on the toy model
    assert build_factorization(toy_weights, 4, rank=64).rank == 64
    for group_size, rank in ((1, 0), (1, 65), (4, 65), (4, -1)):
        with pytest.raises(ConfigurationError, match=f"rank {rank} outside"):
            build_factorization(toy_weights, group_size, rank)
