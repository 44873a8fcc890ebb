"""Deterministic toy GQA decoder with byte vocabulary and full-KV baseline.

Conventions (shared with the factorized engine, keep in sync):

* hidden states are row vectors, projections are ``x @ W``
* query head ``q`` reads KV head ``q // (n_q_heads // n_kv_heads)``
* RoPE rotates dimension pairs ``(2i, 2i+1)`` inside each head: a pair is
  the complex number ``x_2i + i·x_2i+1`` multiplied by ``cos + i·sin``; the
  per-layer key cache stores keys *after* rotation
* all tensors are float32; RMS statistics, softmax row sums and loss
  reductions accumulate in float64 so results are reproducible across BLAS
  builds, while elementwise work runs in float32: the softmax's max-subtract,
  exp and normalise (in place on the scores block) and SiLU
* prefill attention works on row blocks whose scores fit in a fixed budget
  (``SCORES_BLOCK_ELEMENTS``), so a long prompt's softmax stays cache-resident
* gradients (used only for calibration) run a separate float64 pass
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import tensorfile
from .errors import CapacityError, ConfigurationError, InputError

RMS_EPS = 1e-6
# Float32 scores per attention row block (1 MB): small enough to stay in a
# per-core L2 cache while the softmax makes its passes over the block.
SCORES_BLOCK_ELEMENTS = 2**18
LAYER_TENSORS = ("attn_gain", "w_q", "w_k", "w_v", "w_o", "mlp_gain", "w_in", "w_out")


@dataclass(frozen=True)
class ModelConfig:
    """Dimensions of the toy decoder. Defaults are the desk-scale config."""

    n_layers: int = 8
    d_hidden: int = 64
    n_q_heads: int = 4
    n_kv_heads: int = 2
    d_head: int = 16
    d_mlp: int = 128
    vocab_size: int = 256
    rope_theta: float = 10000.0
    max_seq: int = 256

    def __post_init__(self):
        if min(self.n_layers, self.d_hidden, self.n_q_heads, self.n_kv_heads,
               self.d_head, self.d_mlp, self.max_seq) < 1:
            raise ConfigurationError("all dimensions must be positive")
        if self.vocab_size != 256:
            raise ConfigurationError("vocabulary is byte-level, vocab_size must be 256")
        if self.d_hidden != self.n_q_heads * self.d_head:
            raise ConfigurationError(
                f"d_hidden={self.d_hidden} must equal n_q_heads*d_head="
                f"{self.n_q_heads * self.d_head}")
        if self.n_q_heads % self.n_kv_heads != 0:
            raise ConfigurationError(
                f"n_q_heads={self.n_q_heads} not divisible by n_kv_heads={self.n_kv_heads}")
        if self.d_kv > self.d_hidden:
            raise ConfigurationError("d_kv must not exceed d_hidden")
        if self.d_head % 2 != 0:
            raise ConfigurationError("d_head must be even for pairwise rotations")
        if self.rope_theta <= 0:
            raise ConfigurationError("rope_theta must be positive")

    @property
    def d_kv(self) -> int:
        return self.n_kv_heads * self.d_head

    @property
    def heads_per_kv(self) -> int:
        return self.n_q_heads // self.n_kv_heads

    def kv_head_of(self, q_head: int) -> int:
        return q_head // self.heads_per_kv

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


@dataclass
class LayerWeights:
    attn_gain: np.ndarray   # (d_hidden,)
    w_q: np.ndarray         # (d_hidden, d_hidden)
    w_k: np.ndarray         # (d_hidden, d_kv)
    w_v: np.ndarray         # (d_hidden, d_kv)
    w_o: np.ndarray         # (d_hidden, d_hidden)
    mlp_gain: np.ndarray    # (d_hidden,)
    w_in: np.ndarray        # (d_hidden, d_mlp)
    w_out: np.ndarray       # (d_mlp, d_hidden)


@dataclass
class ModelWeights:
    config: ModelConfig
    embed: np.ndarray       # (vocab, d_hidden)
    layers: list[LayerWeights]
    final_gain: np.ndarray  # (d_hidden,)
    lm_head: np.ndarray     # (d_hidden, vocab)
    seed: int | None = None

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {"embed": self.embed, "final_gain": self.final_gain, "lm_head": self.lm_head}
        for i, lw in enumerate(self.layers):
            for name in LAYER_TENSORS:
                out[f"layers.{i}.{name}"] = getattr(lw, name)
        return out

    def validate(self) -> None:
        cfg = self.config
        expect = {
            "embed": (cfg.vocab_size, cfg.d_hidden),
            "final_gain": (cfg.d_hidden,),
            "lm_head": (cfg.d_hidden, cfg.vocab_size),
        }
        per_layer = {
            "attn_gain": (cfg.d_hidden,),
            "w_q": (cfg.d_hidden, cfg.d_hidden),
            "w_k": (cfg.d_hidden, cfg.d_kv),
            "w_v": (cfg.d_hidden, cfg.d_kv),
            "w_o": (cfg.d_hidden, cfg.d_hidden),
            "mlp_gain": (cfg.d_hidden,),
            "w_in": (cfg.d_hidden, cfg.d_mlp),
            "w_out": (cfg.d_mlp, cfg.d_hidden),
        }
        for i in range(cfg.n_layers):
            for name, shape in per_layer.items():
                expect[f"layers.{i}.{name}"] = shape
        tensors = self.named_tensors()
        if len(self.layers) != cfg.n_layers:
            raise ConfigurationError("layer count does not match config")
        for name, shape in expect.items():
            arr = tensors[name]
            if arr.shape != shape:
                raise ConfigurationError(f"{name}: expected shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ConfigurationError(f"{name}: contains non-finite values")


def gen_toy_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded Gaussian init, entries scaled by 1/sqrt(fan_in); gains start at one.

    Generation order is fixed (embedding, layers front to back, final norm,
    head) so a given (config, seed) always yields bit-identical weights.
    """
    rng = np.random.default_rng(seed)

    def mat(fan_in: int, fan_out: int) -> np.ndarray:
        return (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32)

    embed = mat(config.d_hidden, config.vocab_size).T.copy()  # rows ~ N(0, 1/d_hidden)
    layers = []
    for _ in range(config.n_layers):
        layers.append(LayerWeights(
            attn_gain=np.ones(config.d_hidden, dtype=np.float32),
            w_q=mat(config.d_hidden, config.d_hidden),
            w_k=mat(config.d_hidden, config.d_kv),
            w_v=mat(config.d_hidden, config.d_kv),
            w_o=mat(config.d_hidden, config.d_hidden),
            mlp_gain=np.ones(config.d_hidden, dtype=np.float32),
            w_in=mat(config.d_hidden, config.d_mlp),
            w_out=mat(config.d_mlp, config.d_hidden),
        ))
    weights = ModelWeights(
        config=config,
        embed=embed,
        layers=layers,
        final_gain=np.ones(config.d_hidden, dtype=np.float32),
        lm_head=mat(config.d_hidden, config.vocab_size),
        seed=seed,
    )
    weights.validate()
    return weights


def weights_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray],
                         seed: int | None = None) -> ModelWeights:
    """Base weights from container tensors; a missing tensor raises InputError."""
    def take(names):
        return tensorfile.take(tensors, names, "model container")

    layers = []
    for i in range(config.n_layers):
        arrays = take([f"layers.{i}.{name}" for name in LAYER_TENSORS])
        layers.append(LayerWeights(**dict(zip(LAYER_TENSORS, arrays))))
    embed, final_gain, lm_head = take(("embed", "final_gain", "lm_head"))
    w = ModelWeights(config=config, embed=embed, layers=layers,
                     final_gain=final_gain, lm_head=lm_head, seed=seed)
    w.validate()
    return w


def config_from_manifest(meta: dict) -> ModelConfig:
    """The model config a container manifest records; a missing one is an InputError."""
    (config,) = tensorfile.take(meta, ("config",), "container manifest")
    if not isinstance(config, dict):
        raise InputError("container manifest 'config' is not an object")
    return ModelConfig.from_dict(config)


def save_model(weights: ModelWeights, path) -> None:
    """Write a base model to the tensor container format with its manifest."""
    meta = {"kind": "base_model", "config": weights.config.to_dict(), "seed": weights.seed}
    tensorfile.save(path, weights.named_tensors(), meta)


def load_model(path) -> ModelWeights:
    tensors, meta = tensorfile.load(path)
    if meta.get("kind") != "base_model":
        raise ConfigurationError(f"{path} is not a base model container")
    return weights_from_tensors(config_from_manifest(meta), tensors, seed=meta.get("seed"))


# ---------------------------------------------------------------------------
# Shared numeric kernels
# ---------------------------------------------------------------------------

def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """RMS normalization with learnable gain; statistics and scaling in float64.

    One float64 copy of ``x`` is scaled in place.  The sum of squares is one
    ``einsum``; the kernel tests check that it reproduces ``mean(x * x)`` bit
    for bit.
    """
    x64 = x.astype(np.float64)
    mean_sq = np.einsum("...i,...i->...", x64, x64)[..., None] / x.shape[-1]
    x64 *= 1.0 / np.sqrt(mean_sq + RMS_EPS)
    x64 *= gain
    return x64.astype(np.float32)


@dataclass(frozen=True)
class RopeTable:
    """Per-position rotations for each head-dimension pair, shared by all layers."""

    cis: np.ndarray  # (max_seq, d_head // 2) complex64, cos + i·sin

    @property
    def cos(self) -> np.ndarray:
        return self.cis.real

    @property
    def sin(self) -> np.ndarray:
        return self.cis.imag

    @property
    def max_position(self) -> int:
        return self.cis.shape[0]


def build_rope_table(config: ModelConfig) -> RopeTable:
    half = config.d_head // 2
    inv_freq = config.rope_theta ** (-np.arange(0, half, dtype=np.float64) * 2.0 / config.d_head)
    angles = np.arange(config.max_seq, dtype=np.float64)[:, None] * inv_freq[None, :]
    cis = np.empty(angles.shape, dtype=np.complex64)
    cis.real = np.cos(angles).astype(np.float32)
    cis.imag = np.sin(angles).astype(np.float32)
    return RopeTable(cis=cis)


def apply_rope(vectors: np.ndarray, position_ids: np.ndarray, table: RopeTable,
               inverse: bool = False) -> np.ndarray:
    """Rotate (tokens, heads, d_head) pairwise by each token's position angle.

    One complex multiply per pair; ``inverse=True`` multiplies by the
    conjugate, rotating by the negative angle.
    """
    position_ids = np.asarray(position_ids)
    if position_ids.size and int(position_ids.max()) >= table.max_position:
        raise CapacityError(
            f"position {int(position_ids.max())} outside RoPE table of {table.max_position}")
    if position_ids.size and int(position_ids.min()) < 0:
        raise CapacityError("negative position id")
    cis = table.cis[position_ids][:, None, :]  # (tokens, 1, half)
    if inverse:
        cis = cis.conj()
    pairs = np.ascontiguousarray(vectors, dtype=np.float32).view(np.complex64)
    return (pairs * cis).view(np.float32)


def causal_attention_weights(scores: np.ndarray, q_positions: np.ndarray,
                             k_positions: np.ndarray) -> np.ndarray:
    """Causally masked softmax over the key axis, in place; returns ``scores``.

    ``scores`` is a float32 (..., Tq, Tk) block the caller owns and gives up:
    it is overwritten with the probabilities.  Max-subtract, exp and the
    normalising multiply by each row's reciprocal sum run in float32; the
    row sums accumulate in float64.  Masked entries are exactly 0.

    Precondition: ``q_positions`` and ``k_positions`` are ascending.  Keys up
    to the first query's position are then visible to every row, so only the
    tile of later keys is masked, and a decode row does no mask work.
    """
    first = q_positions[0]
    if k_positions[-1] > first:
        seen = int(k_positions.searchsorted(first, side="right"))
        np.copyto(scores[..., seen:], -np.inf, where=k_positions[seen:] > q_positions[:, None])
    scores -= scores.max(axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    scores *= (1.0 / scores.sum(axis=-1, keepdims=True, dtype=np.float64)).astype(np.float32)
    return scores


def attention_probs(q_rope: np.ndarray, keys: np.ndarray, q_positions: np.ndarray,
                    k_positions: np.ndarray, config: ModelConfig):
    """Causal softmax weights of every query head, one row block at a time.

    Yields ``(start, stop, tk, probs)`` with probs (n_q_heads, stop - start, tk)
    over query rows ``start:stop`` and the first ``tk`` keys.  All query heads
    of a KV head share one scores matmul.  Blocks hold
    ``max(1, min(Tq // n_q_heads, SCORES_BLOCK_ELEMENTS // (n_q_heads * Tk)))``
    rows: a block's scores never exceed one head's (Tq, Tk), nor the budget
    unless a single row is already larger, and a decode row is one block.
    ``q_positions`` and ``k_positions`` are ascending, so keys past ``tk``
    (after the block's last query position) are masked for every row and are
    skipped.  Each block's scores are a fresh array that the softmax
    overwrites in place.
    """
    n_q, n_kv, hpk = config.n_q_heads, config.n_kv_heads, config.heads_per_kv
    d_head, tq = config.d_head, q_rope.shape[0]
    scale = np.float32(1.0 / np.sqrt(d_head))
    # query head q sits at [q // heads_per_kv, q % heads_per_kv]
    q_grouped = (q_rope * scale).transpose(1, 0, 2).reshape(n_kv, hpk, tq, d_head)
    keys_t = keys.transpose(1, 2, 0)  # (n_kv, d_head, Tk)
    block = max(1, min(tq // n_q, SCORES_BLOCK_ELEMENTS // (n_q * keys.shape[0])))
    for start in range(0, tq, block):
        stop = min(start + block, tq)
        tk = int(k_positions.searchsorted(q_positions[stop - 1], side="right"))
        scores = np.matmul(q_grouped[:, :, start:stop].reshape(n_kv, -1, d_head), keys_t[:, :, :tk])
        probs = causal_attention_weights(scores.reshape(n_kv, hpk, stop - start, tk),
                                         q_positions[start:stop], k_positions[:tk])
        yield start, stop, tk, probs.reshape(n_q, stop - start, tk)


def silu(z: np.ndarray) -> np.ndarray:
    """``z * sigmoid(z)`` in float32 as ``z * (1 + tanh(z / 2)) / 2``.

    ``tanh`` saturates where ``exp(-z)`` would overflow, so no finite input
    raises a floating-point warning.
    """
    out = z * np.float32(0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= z
    out *= 0.5
    return out


def mlp_block(x_normed: np.ndarray, lw: LayerWeights) -> np.ndarray:
    return silu(x_normed @ lw.w_in) @ lw.w_out


# ---------------------------------------------------------------------------
# Baseline full-KV engine
# ---------------------------------------------------------------------------

@dataclass
class LayerKV:
    keys: np.ndarray    # (tokens, n_kv_heads, d_head), post-RoPE
    values: np.ndarray  # (tokens, n_kv_heads, d_head)


@dataclass
class KVCache:
    config: ModelConfig
    layers: list[LayerKV] = field(default_factory=list)
    positions: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if not self.layers:
            empty = lambda: np.empty((0, self.config.n_kv_heads, self.config.d_head),
                                     dtype=np.float32)
            self.layers = [LayerKV(keys=empty(), values=empty())
                           for _ in range(self.config.n_layers)]

    @property
    def n_tokens(self) -> int:
        return len(self.positions)

    def element_count(self) -> int:
        return sum(lk.keys.size + lk.values.size for lk in self.layers)


def _check_tokens(config: ModelConfig, token_ids: np.ndarray) -> np.ndarray:
    ids = np.asarray(token_ids, dtype=np.int64).reshape(-1)
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise InputError("token id outside byte vocabulary")
    return ids


def attention_block(q_rope: np.ndarray, keys: np.ndarray, values: np.ndarray,
                    q_positions: np.ndarray, k_positions: np.ndarray,
                    w_o: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Causal GQA attention. q_rope (Tq, n_q, d_head) -> (Tq, d_hidden)."""
    tq, n_kv = q_rope.shape[0], config.n_kv_heads
    values_t = values.transpose(1, 0, 2)  # (n_kv, Tk, d_head)
    o_cat = np.empty((tq, config.n_q_heads, config.d_head), dtype=np.float32)
    for start, stop, tk, probs in attention_probs(q_rope, keys, q_positions, k_positions, config):
        heads = np.matmul(probs.reshape(n_kv, -1, tk), values_t[:, :tk])
        o_cat[start:stop] = heads.reshape(config.n_q_heads, stop - start, -1).transpose(1, 0, 2)
    return o_cat.reshape(tq, config.d_hidden) @ w_o


def forward_baseline(weights: ModelWeights, token_ids, cache: KVCache | None = None,
                     rope: RopeTable | None = None) -> tuple[np.ndarray, KVCache]:
    """Run the decoder over new tokens, extending the full-KV cache.

    A fresh/empty cache makes this a prefill; calling again with more tokens
    is decode (or chunked prefill — the math is identical).  Returns logits
    of shape (new_tokens, vocab) and the updated cache.
    """
    cfg = weights.config
    ids = _check_tokens(cfg, token_ids)
    if cache is None:
        cache = KVCache(cfg)
    if rope is None:
        rope = build_rope_table(cfg)
    start = cache.n_tokens
    if start + ids.size > cfg.max_seq:
        raise CapacityError(f"sequence of {start + ids.size} exceeds max_seq={cfg.max_seq}")
    positions = np.arange(start, start + ids.size, dtype=np.int64)

    x = weights.embed[ids]
    for li, lw in enumerate(weights.layers):
        xn = rms_norm(x, lw.attn_gain)
        q = (xn @ lw.w_q).reshape(-1, cfg.n_q_heads, cfg.d_head)
        k = (xn @ lw.w_k).reshape(-1, cfg.n_kv_heads, cfg.d_head)
        v = (xn @ lw.w_v).reshape(-1, cfg.n_kv_heads, cfg.d_head)
        q = apply_rope(q, positions, rope)
        k = apply_rope(k, positions, rope)
        lk = cache.layers[li]
        lk.keys = np.concatenate([lk.keys, k], axis=0)
        lk.values = np.concatenate([lk.values, v], axis=0)
        k_positions = np.concatenate([cache.positions, positions])
        x = x + attention_block(q, lk.keys, lk.values, positions, k_positions, lw.w_o, cfg)
        x = x + mlp_block(rms_norm(x, lw.mlp_gain), lw)
    cache.positions = np.concatenate([cache.positions, positions])

    logits = rms_norm(x, weights.final_gain) @ weights.lm_head
    return logits, cache


class BaselineSession:
    """Stateful wrapper: one inference session over the full-KV engine."""

    def __init__(self, weights: ModelWeights, rope: RopeTable | None = None):
        self.weights = weights
        self.rope = rope if rope is not None else build_rope_table(weights.config)
        self.cache = KVCache(weights.config)

    def prefill(self, token_ids) -> np.ndarray:
        logits, self.cache = forward_baseline(self.weights, token_ids, self.cache, self.rope)
        return logits

    def decode(self, token_id: int) -> np.ndarray:
        logits, self.cache = forward_baseline(self.weights, [token_id], self.cache, self.rope)
        return logits[0]

    def cache_element_count(self) -> int:
        return self.cache.element_count()


# ---------------------------------------------------------------------------
# Loss
# ---------------------------------------------------------------------------

def nll_from_logits(logits: np.ndarray, targets: np.ndarray) -> float:
    """Mean next-token NLL; log-sum-exp and mean accumulate in float64."""
    targets = np.asarray(targets, dtype=np.int64)
    z = logits.astype(np.float64)
    zmax = z.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z - zmax).sum(axis=-1)) + zmax[:, 0]
    return float(np.mean(lse - z[np.arange(len(targets)), targets]))


def sequence_nll(weights: ModelWeights, token_ids, rope: RopeTable | None = None) -> float:
    """Teacher-forced mean NLL through the baseline engine's own forward."""
    ids = _check_tokens(weights.config, token_ids)
    if ids.size < 2:
        raise InputError("need at least 2 tokens to score next-token loss")
    logits, _ = forward_baseline(weights, ids, None, rope)
    return nll_from_logits(logits[:-1], ids[1:])


# ---------------------------------------------------------------------------
# Reverse-mode gradients for W_k / W_v (float64 throughout)
# ---------------------------------------------------------------------------

def _rms_norm64(x, gain):
    inv = 1.0 / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS)
    return x * inv * gain, inv


def _rms_norm64_backward(dy, x, gain, inv):
    # y = g * x * inv, inv = (mean(x^2)+eps)^-1/2
    d = x.shape[-1]
    gdy = dy * gain
    inner = np.sum(gdy * x, axis=-1, keepdims=True)
    return gdy * inv - x * (inner * inv**3 / d)


def _rope64(vectors, positions, cis, inverse=False):
    c = cis[positions][:, None, :]
    return (vectors.view(np.complex128) * (c.conj() if inverse else c)).view(np.float64)


def _softmax64(scores, mask):
    s = np.where(mask, -np.inf, scores)
    s = s - s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    return p / p.sum(axis=-1, keepdims=True)


def loss_and_grads(weights: ModelWeights, token_ids) -> tuple[float, list[dict[str, np.ndarray]]]:
    """Mean NLL plus exact dLoss/dW_k and dLoss/dW_v for every layer.

    ``token_ids`` may be one sequence or a list of sequences; the loss is the
    mean over sequences of each sequence's mean next-token NLL, so duplicating
    a sequence leaves both loss and gradients unchanged.  The whole pass runs
    in float64: this path only feeds calibration, and the extra precision is
    what lets finite-difference checks resolve at 1e-3.

    Returns (loss, grads) with grads[l] = {"w_k": ..., "w_v": ...}.
    """
    cfg = weights.config
    if isinstance(token_ids, np.ndarray):
        sequences = [token_ids[i] for i in range(len(token_ids))] if token_ids.ndim == 2 \
            else [token_ids]
    elif len(token_ids) and isinstance(token_ids[0], (list, tuple, np.ndarray)):
        sequences = list(token_ids)
    else:
        sequences = [token_ids]
    seqs = [_check_tokens(cfg, s) for s in sequences]
    if not seqs:
        raise InputError("empty batch")
    for s in seqs:
        if s.size < 2:
            raise InputError("need at least 2 tokens to score next-token loss")
        if s.size > cfg.max_seq:
            raise CapacityError(f"sequence of {s.size} exceeds max_seq={cfg.max_seq}")

    w64 = {name: arr.astype(np.float64) for name, arr in weights.named_tensors().items()}
    rope = build_rope_table(cfg)
    cis64 = rope.cis.astype(np.complex128)
    scale = 1.0 / np.sqrt(cfg.d_head)
    n_seq = len(seqs)
    grads = [{"w_k": np.zeros_like(w64[f"layers.{l}.w_k"]),
              "w_v": np.zeros_like(w64[f"layers.{l}.w_v"])} for l in range(cfg.n_layers)]
    total_loss = 0.0

    for ids in seqs:
        T = ids.size
        positions = np.arange(T)
        mask = positions[None, :] > positions[:, None]
        tape = []

        x = w64["embed"][ids]
        for li in range(cfg.n_layers):
            lw = {k: w64[f"layers.{li}.{k}"] for k in
                  ("attn_gain", "w_q", "w_k", "w_v", "w_o", "mlp_gain", "w_in", "w_out")}
            x_in = x
            xn1, inv1 = _rms_norm64(x_in, lw["attn_gain"])
            q = (xn1 @ lw["w_q"]).reshape(T, cfg.n_q_heads, cfg.d_head)
            k = (xn1 @ lw["w_k"]).reshape(T, cfg.n_kv_heads, cfg.d_head)
            v = (xn1 @ lw["w_v"]).reshape(T, cfg.n_kv_heads, cfg.d_head)
            qr = _rope64(q, positions, cis64)
            kr = _rope64(k, positions, cis64)
            probs = np.empty((cfg.n_q_heads, T, T))
            o_cat = np.empty((T, cfg.n_q_heads, cfg.d_head))
            for qh in range(cfg.n_q_heads):
                kv = cfg.kv_head_of(qh)
                p = _softmax64(qr[:, qh, :] @ kr[:, kv, :].T * scale, mask)
                probs[qh] = p
                o_cat[:, qh, :] = p @ v[:, kv, :]
            x_mid = x_in + o_cat.reshape(T, cfg.d_hidden) @ lw["w_o"]
            xn2, inv2 = _rms_norm64(x_mid, lw["mlp_gain"])
            z = xn2 @ lw["w_in"]
            sig = 1.0 / (1.0 + np.exp(-z))
            a = z * sig
            x = x_mid + a @ lw["w_out"]
            tape.append(dict(x_in=x_in, xn1=xn1, inv1=inv1, qr=qr, kr=kr, v=v,
                             probs=probs, x_mid=x_mid, xn2=xn2, inv2=inv2,
                             z=z, sig=sig, a=a, lw=lw))

        xf, invf = _rms_norm64(x, w64["final_gain"])
        logits = xf @ w64["lm_head"]
        zmax = logits[:-1].max(axis=-1, keepdims=True)
        expz = np.exp(logits[:-1] - zmax)
        p_tok = expz / expz.sum(axis=-1, keepdims=True)
        targets = ids[1:]
        n_pred = T - 1
        lse = np.log(expz.sum(axis=-1)) + zmax[:, 0]
        total_loss += float(np.mean(lse - logits[np.arange(n_pred), targets]))

        dlogits = np.zeros_like(logits)
        dlogits[:-1] = p_tok
        dlogits[np.arange(n_pred), targets] -= 1.0
        dlogits /= n_pred * n_seq

        dxf = dlogits @ w64["lm_head"].T
        dx = _rms_norm64_backward(dxf, x, w64["final_gain"], invf)

        for li in range(cfg.n_layers - 1, -1, -1):
            t = tape[li]
            lw = t["lw"]
            # MLP block
            dx_mid = dx.copy()
            da = (dx @ lw["w_out"].T)
            dz = da * (t["sig"] * (1.0 + t["z"] * (1.0 - t["sig"])))
            dxn2 = dz @ lw["w_in"].T
            dx_mid += _rms_norm64_backward(dxn2, t["x_mid"], lw["mlp_gain"], t["inv2"])
            # attention block
            dx_in = dx_mid.copy()
            do_cat = (dx_mid @ lw["w_o"].T).reshape(T, cfg.n_q_heads, cfg.d_head)
            dqr = np.zeros_like(t["qr"])
            dkr = np.zeros_like(t["kr"])
            dv = np.zeros_like(t["v"])
            for qh in range(cfg.n_q_heads):
                kv = cfg.kv_head_of(qh)
                p = t["probs"][qh]
                dp = do_cat[:, qh, :] @ t["v"][:, kv, :].T
                dv[:, kv, :] += p.T @ do_cat[:, qh, :]
                ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
                dqr[:, qh, :] += ds @ t["kr"][:, kv, :] * scale
                dkr[:, kv, :] += ds.T @ t["qr"][:, qh, :] * scale
            positions = np.arange(T)
            dq = _rope64(dqr, positions, cis64, inverse=True)
            dk = _rope64(dkr, positions, cis64, inverse=True)
            dq_flat = dq.reshape(T, cfg.d_hidden)
            dk_flat = dk.reshape(T, cfg.d_kv)
            dv_flat = dv.reshape(T, cfg.d_kv)
            grads[li]["w_k"] += t["xn1"].T @ dk_flat
            grads[li]["w_v"] += t["xn1"].T @ dv_flat
            dxn1 = dq_flat @ lw["w_q"].T + dk_flat @ lw["w_k"].T + dv_flat @ lw["w_v"].T
            dx_in += _rms_norm64_backward(dxn1, t["x_in"], lw["attn_gain"], t["inv1"])
            dx = dx_in

    return total_loss / n_seq, grads
