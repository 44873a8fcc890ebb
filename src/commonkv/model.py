"""Deterministic toy GQA decoder with byte vocabulary and full-KV baseline.

``decoder_layer`` is the one float32 layer body and ``forward`` the one
layer loop: every session (full-KV, latent, raw-KV merge) runs it over its
own KV store, and the similarity profiler runs the same body layer by layer
over a full-KV cache, so the conventions below hold for all of them:

* hidden states are row vectors, projections are ``x @ W``
* query head ``q`` reads KV head ``q // (n_q_heads // n_kv_heads)``
* RoPE rotates dimension pairs ``(2i, 2i+1)`` inside each head: a pair is
  the complex number ``x_2i + i·x_2i+1`` multiplied by ``cos + i·sin``; the
  per-layer key cache stores keys *after* rotation
* all tensors are float32; RMS statistics and loss reductions accumulate in
  float64 so results are reproducible across BLAS builds, while elementwise
  work runs in float32: the softmax's exp (in place on the scores block) and
  SiLU.  The softmax subtracts each row's max first unless a multi-row call's
  Cauchy–Schwarz bound on its scores (``score_bound``) is at most
  ``SHIFT_FREE_BOUND``, so a prefill block makes two passes, exp and one
  float32 GEMV of row sums; a decode row keeps the max-subtract and numpy's
  pairwise sum.  Normalisation is deferred: attention multiplies each head's
  output rows by their float32 reciprocal row sums after the value matmul,
  never the (rows, Tk) scores block
* ``causal_attention`` is the one attention loop; the full-KV
  ``attention_block`` and the latent mix order pass it only their value step.
  Prefill attention works on row blocks whose scores fit in a fixed budget
  (``SCORES_BLOCK_ELEMENTS``), so a long prompt's softmax stays cache-resident;
  a one-row block (a decode step) computes its scores keys-left,
  ``keys_h @ q_hᵀ``, a plain GEMM over the keys' own row layout
* the model owns its RoPE table: ``ModelWeights.rope`` is one read-only
  array (``build_rope_table``), built eagerly when weights are generated or
  loaded, that every session, layer and gradient pass shares.  It is tiled
  over the KV heads, so keys rotate by one flat multiply; queries multiply one
  row broadcast over heads, and the gradient pass reads ``rope[:, 0]``
* positions follow from shapes: a call's new rows sit at consecutive
  positions, so RoPE takes the first row's position and rotates by a slice of
  its table, in place; attention's Tk keys sit at 0..Tk-1 and its Tq queries
  are the last Tq of them.  No kernel takes a position array, and no store
  keeps one: a store's token count is the number of rows its layer 0 holds
* a KV store holds the model it serves, ``weights``, and provides
  ``n_tokens``, ``append(layer, xn, start)`` (cache what a layer keeps of its
  normed rows) and ``attend(layer, q)`` (attention of the layer's queries
  over every row it holds).  ``forward`` and ``decoder_layer`` read the
  model from the store, so one model drives every call; see ``forward``
* a transient lives only while it is read, so a prefill layer holds the
  residual, one (T, d_hidden) buffer and blocks: the normed rows are dropped
  once the store has appended, attention always writes a multi-row call's
  head outputs over its queries (no kernel allocates a head-output buffer),
  and the MLP writes its output over its normed rows.
  ``causal_attention`` holds one scores block at a time (each block is
  dropped before the next one's scores are allocated, and each block scales
  and groups its own query rows); ``rms_norm`` and ``mlp_block`` work one
  row block of at most ``ROW_BLOCK_ELEMENTS`` at a time, and so does
  ``budget.merge_group`` with a smaller block.  Every block is row-wise, and
  ``row_blocks`` spreads rows evenly so no GEMM block is a sliver: blocking
  changes no bit of the result
* a single row (a decode step) takes one-row paths: ``rms_norm`` keeps its
  statistics in Python floats; ``causal_attention`` skips the row-block
  loop and all mask work, and its output meets ``W_o`` with no
  ``(Tq, n_q, d_head)`` buffer; ``mlp_block`` returns a new array, with no
  block loop; and ``_check_tokens`` checks one token as a Python int
* gradients (used only for calibration) run a separate float64 pass
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from . import tensorfile
from .errors import CapacityError, ConfigurationError, InputError

RMS_EPS = 1e-6
# Float32 scores per attention row block (1 MB): small enough to stay in a
# per-core L2 cache while the softmax makes its passes over the block.
SCORES_BLOCK_ELEMENTS = 2**18
# Elements per row block of ``rms_norm`` and ``mlp_block``: a 1 MB float64
# norm block, or 0.5 MB of float32 MLP activations.  That is no more than one
# scores block, while a block of a few hundred rows keeps each GEMM efficient.
ROW_BLOCK_ELEMENTS = 2**17
# Largest score bound for which prefill's softmax skips its max-subtract.  With
# every |score| <= 32 an exponential lies in [e^-32, e^32]: far above float32's
# smallest normal (1.2e-38), while a row sum of max_seq of them and its products
# with values stay far below float32's largest finite number (3.4e38).
SHIFT_FREE_BOUND = 32.0
FLOAT32_EPS = float(np.finfo(np.float32).eps)
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
        for f in fields(self):  # rope_theta is a real number, every other field an int
            value, real = getattr(self, f.name), f.type == "float"
            if isinstance(value, bool) or not isinstance(value, (int, float) if real else int):
                raise ConfigurationError(f"{f.name}={value!r} is not "
                                         f"{'a number' if real else 'an integer'}")
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
        if not 0 < self.rope_theta < math.inf:  # also false for nan
            raise ConfigurationError(f"rope_theta {self.rope_theta} is not positive and finite")

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


def layer_shapes(cfg: ModelConfig) -> tuple[tuple[int, ...], ...]:
    """The shapes of one layer's tensors, in ``LAYER_TENSORS`` order."""
    h = cfg.d_hidden
    return ((h,), (h, h), (h, cfg.d_kv), (h, cfg.d_kv), (h, h), (h,), (h, cfg.d_mlp),
            (cfg.d_mlp, h))


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
    """A model's tensors plus the one RoPE table that every session and pass
    over it reads; built here unless given (``astype`` copies share it)."""

    config: ModelConfig
    embed: np.ndarray       # (vocab, d_hidden)
    layers: list[LayerWeights]
    final_gain: np.ndarray  # (d_hidden,)
    lm_head: np.ndarray     # (d_hidden, vocab)
    seed: int | None = None
    rope: np.ndarray | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.rope is None:
            self.rope = build_rope_table(self.config)

    def astype(self, dtype) -> "ModelWeights":
        """A copy with every tensor converted to ``dtype``."""
        def conv(arr):
            return arr.astype(dtype)

        layers = [LayerWeights(**{name: conv(getattr(lw, name)) for name in LAYER_TENSORS})
                  for lw in self.layers]
        return ModelWeights(config=self.config, embed=conv(self.embed), layers=layers,
                            final_gain=conv(self.final_gain), lm_head=conv(self.lm_head),
                            seed=self.seed, rope=self.rope)

    def named_tensors(self) -> dict[str, np.ndarray]:
        out = {"embed": self.embed, "final_gain": self.final_gain, "lm_head": self.lm_head}
        for i, lw in enumerate(self.layers):
            for name in LAYER_TENSORS:
                out[f"layers.{i}.{name}"] = getattr(lw, name)
        return out


def gen_toy_model(config: ModelConfig, seed: int) -> ModelWeights:
    """Seeded Gaussian init, entries scaled by 1/sqrt(fan_in); gains start at one.

    Generation order is fixed (embedding, layers front to back, final norm,
    head) so a given (config, seed) always yields bit-identical weights.
    """
    rng = np.random.default_rng(seed)

    def mat(fan_in: int, fan_out: int) -> np.ndarray:
        return (rng.standard_normal((fan_in, fan_out)) / np.sqrt(fan_in)).astype(np.float32)

    embed = mat(config.d_hidden, config.vocab_size).T.copy()  # rows ~ N(0, 1/d_hidden)
    # a 1-D shape is a gain: ones, drawing nothing
    layers = [LayerWeights(**{name: np.ones(shape, dtype=np.float32) if len(shape) == 1
                              else mat(*shape)
                              for name, shape in zip(LAYER_TENSORS, layer_shapes(config))})
              for _ in range(config.n_layers)]
    return ModelWeights(
        config=config,
        embed=embed,
        layers=layers,
        final_gain=np.ones(config.d_hidden, dtype=np.float32),
        lm_head=mat(config.d_hidden, config.vocab_size),
        seed=seed,
    )


def weights_from_tensors(config: ModelConfig, tensors: dict[str, np.ndarray],
                         seed: int | None = None) -> ModelWeights:
    """Base weights copied from container tensors by ``tensorfile.take_tensors``,
    which checks that each is present, of its shape and finite."""
    shapes = {"embed": (config.vocab_size, config.d_hidden), "final_gain": (config.d_hidden,),
              "lm_head": (config.d_hidden, config.vocab_size)}
    for i in range(config.n_layers):
        shapes.update((f"layers.{i}.{name}", shape)
                      for name, shape in zip(LAYER_TENSORS, layer_shapes(config)))
    embed, final_gain, lm_head, *arrays = tensorfile.take_tensors(tensors, shapes,
                                                                  "model container")
    n = len(LAYER_TENSORS)
    layers = [LayerWeights(**dict(zip(LAYER_TENSORS, arrays[i:i + n])))
              for i in range(0, len(arrays), n)]
    return ModelWeights(config=config, embed=embed, layers=layers,
                        final_gain=final_gain, lm_head=lm_head, seed=seed)


def config_from_manifest(meta: dict) -> ModelConfig:
    """The model config a container manifest records; a missing one, or one
    that ``ModelConfig`` rejects, is an InputError."""
    (config,) = tensorfile.take(meta, ("config",), "container manifest")
    if not isinstance(config, dict):
        raise InputError("container manifest 'config' is not an object")
    try:
        return ModelConfig.from_dict(config)
    except ConfigurationError as exc:
        raise InputError(f"container manifest config: {exc}") from None


def save_model(weights: ModelWeights, path) -> None:
    """Write a base model to the tensor container format with its manifest."""
    meta = {"kind": "base_model", "config": weights.config.to_dict(), "seed": weights.seed}
    tensorfile.save(path, weights.named_tensors(), meta)


def load_model(path) -> ModelWeights:
    tensors, meta = tensorfile.load(path)
    if tensorfile.take(meta, ("kind",), "container manifest") != ["base_model"]:
        raise ConfigurationError(f"{path} is not a base model container")
    return weights_from_tensors(config_from_manifest(meta), tensors, seed=meta.get("seed"))


# ---------------------------------------------------------------------------
# Shared numeric kernels
# ---------------------------------------------------------------------------

def row_blocks(n_rows: int, width: int, elements: int):
    """Consecutive row slices covering ``n_rows`` rows of ``width`` elements.

    Each block holds at most ``elements`` elements (at least one row), and
    the rows are spread evenly over the fewest such blocks, so no block is
    much smaller than half the limit: a GEMM over only a few rows may take
    another BLAS kernel (one row is a matrix-vector product) and round
    differently from the same rows inside a larger GEMM.
    """
    n_blocks = -(-n_rows // max(1, elements // width))
    size = -(-n_rows // n_blocks) if n_blocks else 1
    return (slice(start, start + size) for start in range(0, n_rows, size))


def rms_norm(x: np.ndarray, gain: np.ndarray) -> np.ndarray:
    """RMS normalization with learnable gain; statistics and scaling in float64.

    Each row's sum of squares is one ``einsum`` over a float64 copy of its
    row block (``row_blocks``), scaled in place and written into the float32
    result, so no float64 copy of the whole input exists.  A single row (a
    decode step) takes one dot product instead, whose scalar statistics stay
    Python floats; the kernel tests check that both reproduce ``mean(x * x)``
    bit for bit.
    """
    if x.size == x.shape[-1]:
        x64 = x.astype(np.float64)
        row = x64.ravel()
        x64 *= 1.0 / math.sqrt(float(row.dot(row)) / row.size + RMS_EPS)
        x64 *= gain
        return x64.astype(np.float32)
    rows = x.reshape(-1, x.shape[-1])
    out = np.empty(rows.shape, dtype=np.float32)
    for block in row_blocks(*rows.shape, ROW_BLOCK_ELEMENTS):
        x64 = rows[block].astype(np.float64)
        mean_sq = np.einsum("...i,...i->...", x64, x64)[..., None] / x.shape[-1]
        x64 *= 1.0 / np.sqrt(mean_sq + RMS_EPS)
        x64 *= gain
        out[block] = x64
        del x64  # before the next block's copy
    return out.reshape(x.shape)


def build_rope_table(config: ModelConfig) -> np.ndarray:
    """Per-position rotations for each head-dimension pair, shared by all layers.

    Returns a read-only (max_seq, n_kv_heads, d_head // 2) complex64 array of
    ``cos + i·sin`` that repeats each position's rotations once per KV head,
    so rotating (tokens, n_kv_heads, d_head) keys is one elementwise multiply
    with no broadcast; ``table[:, 0]`` is one head's rotations.
    """
    half = config.d_head // 2
    inv_freq = config.rope_theta ** (-np.arange(0, half, dtype=np.float64) * 2.0 / config.d_head)
    angles = np.arange(config.max_seq, dtype=np.float64)[:, None] * inv_freq[None, :]
    table = np.empty((config.max_seq, config.n_kv_heads, half), dtype=np.complex64)
    table.real = np.cos(angles).astype(np.float32)[:, None, :]
    table.imag = np.sin(angles).astype(np.float32)[:, None, :]
    table.flags.writeable = False
    return table


def apply_rope(vectors: np.ndarray, start: int, table: np.ndarray) -> np.ndarray:
    """Rotate (tokens, heads, d_head) pairwise in place: token i to position
    ``start + i``; returns ``vectors``.

    One complex multiply per pair by a slice of the table, written back over
    ``vectors``, so nothing is copied.  Keys (``n_kv_heads`` heads) multiply
    the head-tiled table elementwise, with no broadcast; any other head count,
    such as queries, multiplies one rotation row broadcast over its heads.
    ``vectors`` must be C-contiguous float32 (``InputError``), and positions
    outside the table raise ``CapacityError``; both are checked before any
    write.
    """
    stop = start + vectors.shape[0]
    if stop > len(table):
        raise CapacityError(f"position {stop - 1} outside RoPE table of {len(table)}")
    if start < 0:
        raise CapacityError("negative position id")
    if vectors.dtype != np.float32 or not vectors.flags.c_contiguous:
        raise InputError("apply_rope rotates only a C-contiguous float32 array")
    pairs = vectors.view(np.complex64)
    # keys: one flat multiply by tiled rows; other head counts: one row over the heads
    cis = table[start:stop] if pairs.shape[1] == table.shape[1] else table[start:stop, :1]
    np.multiply(pairs, cis, out=pairs)
    return vectors


def causal_attention_weights(scores: np.ndarray, shift: bool = True
                             ) -> tuple[np.ndarray, np.ndarray]:
    """Causally masked, unnormalised softmax over the key axis, in place.

    ``scores`` is a float32 (..., Tq, Tk) block the caller owns and gives up.
    Returns ``(weights, inv)``: ``weights`` is ``scores`` itself, overwritten
    with each row's exponentials, and ``inv`` the float32 (..., Tq, 1)
    reciprocal of each row's sum, so the probabilities are ``weights * inv``.
    Callers apply ``inv`` to what they compute from the weights
    (``P @ V = inv * (weights @ V)``), a pass over the (rows, d) output
    instead of the (rows, Tk) block.  Key j sits at position j and query row i
    at Tk - Tq + i, so keys up to the first query are visible to every row and
    only the (Tq, Tq - 1) tile of later keys is masked; a decode row (Tq = 1)
    does no mask work.  Masked entries are exactly 0.

    By default each row's max is subtracted before the exp, so any finite
    scores are safe.  ``shift=False`` skips that subtract and its max pass:
    the softmax is the same, and it is safe for scores the caller has bounded
    (``causal_attention`` passes it when every |score| is at most
    ``SHIFT_FREE_BOUND``).  Everything runs in float32.  Several query rows
    take their row sums as one GEMV of the (rows, Tk) block with a ones
    column; one row takes numpy's pairwise sum.
    """
    tq = scores.shape[-2]
    if tq > 1:
        tk = scores.shape[-1]
        later = np.arange(tq - 1) >= np.arange(tq)[:, None]
        np.copyto(scores[..., tk - tq + 1:], -np.inf, where=later)
    if shift:
        scores -= np.maximum.reduce(scores, axis=-1, keepdims=True)
    np.exp(scores, out=scores)
    if tq == 1:
        inv = np.add.reduce(scores, axis=-1, keepdims=True)
    else:
        inv = (scores.reshape(-1, tk) @ np.ones((tk, 1), dtype=np.float32)
               ).reshape(*scores.shape[:-1], 1)
    return scores, np.reciprocal(inv, out=inv)


def score_bound(q_rope: np.ndarray, keys: np.ndarray, scale: float) -> float:
    """An upper bound on |q·k|·scale over every query head and key head.

    By Cauchy–Schwarz, ``max‖q‖ · max‖k‖ · scale``.  The squared norms are
    float32 sums, each at most ``d_head`` roundings below the exact one, so
    the product is raised by ``4·d_head`` float32 epsilons to stay a bound
    (where squares underflow, below 1e-19, the scores are far below any
    limit anyway).  Any non-finite input makes it ``inf`` or ``nan``, which
    no ``bound <= limit`` test accepts.
    """
    d_head = q_rope.shape[-1]
    q_sq = float(np.einsum("...i,...i->...", q_rope, q_rope).max())
    k_sq = float(np.einsum("...i,...i->...", keys, keys).max())
    margin = 1.0 + 4 * d_head * FLOAT32_EPS
    return math.sqrt(q_sq * k_sq) * float(scale) * margin


def _row_scores(q_row: np.ndarray, keys_h: np.ndarray) -> np.ndarray:
    """Scores (n_q_heads, 1, Tk) of one scaled query row (n_kv, hpk, d_head).

    Keys on the left, ``keys_h @ q_hᵀ``: a plain GEMM over the keys' own
    (Tk, n_kv, d_head) rows, where ``q_h @ keys_hᵀ`` would read the keys
    transposed, a much slower BLAS path.  The small (n_kv, Tk, hpk) result
    is transposed into a fresh scores block.
    """
    scores_t = np.matmul(keys_h, q_row.transpose(0, 2, 1))
    return scores_t.transpose(0, 2, 1).reshape(-1, 1, keys_h.shape[1])


def causal_attention(q_rope: np.ndarray, keys: np.ndarray, w_o: np.ndarray,
                     config: ModelConfig, head_values) -> np.ndarray:
    """Causal GQA attention of rotated queries (Tq, n_q, d_head); (Tq, d_hidden).

    The one attention loop.  The queries are the last Tq of the Tk keys'
    positions.  Blocks hold
    ``max(1, min(Tq // n_q_heads, SCORES_BLOCK_ELEMENTS // (n_q_heads * Tk)))``
    query rows: a block's scores never exceed one head's (Tq, Tk), nor the
    budget unless a single row is already larger.  Each block scales and
    groups its own query rows (query head q sits at
    ``[q // heads_per_kv, q % heads_per_kv]``), takes one scores matmul per
    KV head over the first ``tk = Tk - Tq + stop`` keys (later keys are
    masked for every row of the block and are skipped), keys on the left for
    a one-row block (``_row_scores``), and overwrites the fresh scores in
    place with ``causal_attention_weights``.  A call of several query rows
    first takes one ``score_bound`` over all of them and every key; when it
    is at most ``SHIFT_FREE_BOUND``, every block skips the softmax's
    max-subtract (``shift=False``).  A larger or non-finite bound, and every
    one-row call, keeps the max-subtract.

    The caller's value step, ``head_values(weights, inv, tk)``, gets the
    unnormalised weights (n_kv, hpk·rows, tk) and reciprocal row sums
    (n_kv, hpk·rows, 1) and returns the head outputs (n_kv, hpk·rows,
    d_head), scaled by ``inv``.  They are written over the block's own
    query rows of ``q_rope``, which the caller gives up: a block has read
    its query rows before it writes their head outputs, so no
    ``(Tq, n_q, d_head)`` buffer is allocated.  Every reference to the block
    is dropped before the next block's scores are allocated.
    A one-row query (every decode step) is a single block over every key,
    already grouped by KV head; its head outputs meet ``w_o`` directly, and
    ``q_rope`` is left as it was.
    """
    n_q, n_kv, hpk = config.n_q_heads, config.n_kv_heads, config.heads_per_kv
    d_head, tq, tk_all = config.d_head, q_rope.shape[0], keys.shape[0]
    scale = np.float32(1.0 / math.sqrt(d_head))
    keys_h = keys.transpose(1, 0, 2)  # (n_kv, Tk, d_head)
    block = max(1, min(tq // n_q, SCORES_BLOCK_ELEMENTS // (n_q * tk_all)))
    shift = tq == 1 or not score_bound(q_rope, keys, scale) <= SHIFT_FREE_BOUND
    for start in range(0, tq, block):
        stop = min(start + block, tq)
        rows, tk = stop - start, tk_all - tq + stop
        keys_b = keys_h if tk == tk_all else keys_h[:, :tk]
        if rows == 1:  # one row is already grouped by KV head: (n_q, 1, tk) scores
            scores = _row_scores(q_rope[start].reshape(n_kv, hpk, d_head) * scale, keys_b)
        else:
            q_rows = (q_rope[start:stop] * scale).transpose(1, 0, 2)  # (n_q, rows, d_head)
            scores = np.matmul(q_rows.reshape(n_kv, -1, d_head),
                               keys_b.transpose(0, 2, 1)).reshape(n_kv, hpk, rows, tk)
            del q_rows
        weights, inv = causal_attention_weights(scores, shift=shift)
        heads = head_values(weights.reshape(n_kv, -1, tk), inv.reshape(n_kv, -1, 1), tk)
        if tq == 1:  # one query row: query head q = kv·hpk + j is in order
            return heads.reshape(1, config.d_hidden) @ w_o
        q_rope[start:stop] = heads.reshape(n_q, rows, d_head).transpose(1, 0, 2)
        del scores, weights, inv, heads  # before the next block's scores
    return q_rope.reshape(tq, config.d_hidden) @ w_o


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
    """``silu(x_normed @ w_in) @ w_out``.

    Over several rows it runs GEMM, SiLU and GEMM one row block at a time
    (``row_blocks`` over the ``d_mlp`` activations) and writes each block's
    result over its own rows of ``x_normed``, which it returns: the caller
    gives up its normed rows, and no ``(rows, d_mlp)`` array is ever whole.
    One row (a decode step) skips the block loop and returns a new array.
    """
    if len(x_normed) == 1:
        return silu(x_normed @ lw.w_in) @ lw.w_out
    for block in row_blocks(len(x_normed), lw.w_in.shape[1], ROW_BLOCK_ELEMENTS):
        x_normed[block] = silu(x_normed[block] @ lw.w_in) @ lw.w_out
    return x_normed


# ---------------------------------------------------------------------------
# Baseline full-KV engine
# ---------------------------------------------------------------------------

@dataclass
class LayerKV:
    keys: np.ndarray    # (tokens, n_kv_heads, d_head), post-RoPE
    values: np.ndarray  # (tokens, n_kv_heads, d_head)


class KVCache:
    """Full-KV store of a model: every layer's rotated keys and values for
    every token.

    A layer's first block of rows is kept as projected; later blocks join it
    by one concatenation each.
    """

    def __init__(self, weights: ModelWeights):
        self.weights = weights
        cfg = weights.config
        empty = lambda: np.empty((0, cfg.n_kv_heads, cfg.d_head), dtype=np.float32)
        self.layers = [LayerKV(keys=empty(), values=empty()) for _ in range(cfg.n_layers)]

    @property
    def n_tokens(self) -> int:
        return len(self.layers[0].keys)

    @property
    def positions(self) -> np.ndarray:
        """0..n_tokens-1 as a new int64 ``arange``; only the benchmark's copy
        count reads it, no kernel does."""
        return np.arange(self.n_tokens, dtype=np.int64)

    def element_count(self) -> int:
        return sum(lk.keys.size + lk.values.size for lk in self.layers)

    def append(self, layer: int, xn: np.ndarray, start: int) -> None:
        k, v = project_kv(xn, self.weights, layer, start)
        lk = self.layers[layer]
        if not len(lk.keys):
            lk.keys, lk.values = k, v
            return
        # one at a time, so the old keys are gone before the values are copied
        lk.keys = np.concatenate([lk.keys, k], axis=0)
        lk.values = np.concatenate([lk.values, v], axis=0)

    def attend(self, layer: int, q: np.ndarray) -> np.ndarray:
        lk = self.layers[layer]
        return attention_block(q, lk.keys, lk.values, self.weights.layers[layer].w_o,
                               self.weights.config)


def _check_tokens(config: ModelConfig, token_ids) -> np.ndarray:
    """Token ids of one sequence as a 1-D int64 array.

    Any other shape (a scalar, a batch of sequences, a ragged list), an id
    that is not an integer, or one outside the byte vocabulary is an
    ``InputError``.  A one-token list of a Python int (a decode step) is
    checked with Python ints, with no array reductions.
    """
    if type(token_ids) is list and len(token_ids) == 1 and type(token_ids[0]) is int:
        if not 0 <= token_ids[0] < config.vocab_size:
            raise InputError("token id outside byte vocabulary")
        return np.array(token_ids, dtype=np.int64)
    try:
        ids = np.asarray(token_ids)
    except ValueError:  # ragged nesting
        raise InputError("token ids must be one flat sequence") from None
    if ids.ndim != 1:
        raise InputError(f"token ids must be one flat sequence, got shape {ids.shape}")
    if ids.size and ids.dtype.kind not in "iu":
        raise InputError(f"token ids must be integers, got {ids.dtype} values")
    ids = ids.astype(np.int64, copy=False)
    if ids.size and (ids.min() < 0 or ids.max() >= config.vocab_size):
        raise InputError("token id outside byte vocabulary")
    return ids


def project_kv(xn: np.ndarray, weights: ModelWeights, layer: int,
               start: int) -> tuple[np.ndarray, np.ndarray]:
    """Keys, rotated in place to positions from ``start`` on, and values of
    one layer's normed rows."""
    cfg, lw = weights.config, weights.layers[layer]
    k = (xn @ lw.w_k).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    v = (xn @ lw.w_v).reshape(-1, cfg.n_kv_heads, cfg.d_head)
    apply_rope(k, start, weights.rope)
    return k, v


def attention_block(q_rope: np.ndarray, keys: np.ndarray, values: np.ndarray,
                    w_o: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Causal GQA attention over cached values. q_rope (Tq, n_q, d_head) -> (Tq, d_hidden).

    ``causal_attention`` with the value step ``weights @ V``, normalised by
    the block's reciprocal row sums; the head outputs of a multi-row call
    are written over ``q_rope``.
    """
    values_t = values.transpose(1, 0, 2)  # (n_kv, Tk, d_head)

    def head_values(weights, inv, tk):
        heads = np.matmul(weights, values_t[:, :tk])
        heads *= inv
        return heads

    return causal_attention(q_rope, keys, w_o, config, head_values)


def decoder_layer(x: np.ndarray, layer: int, store, start: int) -> None:
    """One layer of ``store.weights`` over the residual rows ``x``, in place;
    row i sits at position ``start + i``.

    Norm, query projection and its RoPE, ``store.append`` and then
    ``store.attend`` (see ``forward``), and the MLP; both blocks are added to
    ``x``.  Beside the residual it keeps one (rows, d_hidden) buffer through
    attention and the MLP: the normed rows go as soon as the store has
    cached what it keeps of them, the head outputs overwrite the queries,
    and the MLP writes its output over its own normed rows.
    """
    weights = store.weights
    cfg, lw = weights.config, weights.layers[layer]
    xn = rms_norm(x, lw.attn_gain)
    q = (xn @ lw.w_q).reshape(len(x), cfg.n_q_heads, cfg.d_head)
    apply_rope(q, start, weights.rope)
    store.append(layer, xn, start)
    del xn  # attention reads only the queries and the store
    x += store.attend(layer, q)
    del q  # its buffer holds the head outputs, which the MLP does not read
    x += mlp_block(rms_norm(x, lw.mlp_gain), lw)


def forward(store, token_ids) -> np.ndarray:
    """Run the store's model over new tokens through the store; returns logits.

    The store holds the model it serves and decides what a layer caches and
    how it attends.  It provides ``weights``, the ``ModelWeights`` every
    layer reads; ``n_tokens``, the tokens already cached (the new ones take
    positions from ``start = n_tokens`` on); ``append(layer, xn, start)``,
    which caches what the layer keeps of its normed rows ``xn``; and then
    ``attend(layer, q)``, which returns the ``W_o``-projected causal
    attention (Tq, d_hidden) of the rotated queries ``q`` over every row
    the layer holds, at positions ``0..start+Tq-1``.  The layer gives ``q``
    up: a multi-row call writes its head outputs over it.  Layers
    (``decoder_layer``) run in order, and ``n_tokens`` follows from the rows
    the store holds.
    Tokens (at least one) and ``max_seq`` are checked first, so a rejected
    call makes no store call and leaves the store as it was.
    """
    weights = store.weights
    cfg = weights.config
    ids = _check_tokens(cfg, token_ids)
    if not ids.size:
        raise InputError("no tokens to run")
    start = store.n_tokens
    if start + ids.size > cfg.max_seq:
        raise CapacityError(f"sequence of {start + ids.size} exceeds max_seq={cfg.max_seq}")
    x = weights.embed[ids]
    for layer in range(cfg.n_layers):
        decoder_layer(x, layer, store, start)
    return rms_norm(x, weights.final_gain) @ weights.lm_head


def forward_baseline(weights: ModelWeights, token_ids,
                     cache: KVCache | None = None) -> tuple[np.ndarray, KVCache]:
    """``forward`` over a full-KV cache of ``weights`` (a new one by default;
    a given cache runs its own model); returns (logits, cache)."""
    cache = cache if cache is not None else KVCache(weights)
    return forward(cache, token_ids), cache


class BaselineSession:
    """Stateful wrapper: one inference session over the full-KV engine."""

    def __init__(self, weights: ModelWeights):
        self.weights = weights
        self.cache = KVCache(weights)

    def prefill(self, token_ids) -> np.ndarray:
        return forward_baseline(self.weights, token_ids, self.cache)[0]

    def decode(self, token_id: int) -> np.ndarray:
        return forward_baseline(self.weights, [token_id], self.cache)[0][0]

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


def _rope64(rows, cis, inverse=False):
    c = cis[:len(rows), None, :]  # rows (T, heads · d_head): token i at position i
    pairs = rows.reshape(len(rows), -1, 2 * cis.shape[-1]).view(np.complex128)
    return (pairs * (c.conj() if inverse else c)).view(np.float64).reshape(len(rows), -1)


def _softmax64(scores, mask):
    s = np.where(mask, -np.inf, scores)
    s = s - s.max(axis=-1, keepdims=True)
    p = np.exp(s)
    return p / p.sum(axis=-1, keepdims=True)


def loss_and_grads(weights: ModelWeights, token_ids) -> tuple[float, list[dict[str, np.ndarray]]]:
    """Mean next-token NLL of one sequence plus exact dLoss/dW_k and dLoss/dW_v per layer.

    ``token_ids`` is one sequence, a 1-D run of at least two ids.  Query heads
    are batched by KV head, (n_kv, hpk, T, d_head) with head ``q = kv·hpk + j``
    as in ``causal_attention``: per layer, one scores matmul, one softmax and
    one value matmul forward, one matmul each for dp, dq, dk and dv backward.
    The whole pass runs in float64: it only feeds calibration, and the extra
    precision lets finite-difference checks resolve at 1e-3.  Float64 weights
    (``weights.astype(np.float64)``) are used without a copy, so a caller
    looping over sequences converts the model once.

    Returns (loss, grads) with grads[l] = {"w_k": ..., "w_v": ...}.
    """
    cfg = weights.config
    ids = _check_tokens(cfg, token_ids)
    if ids.size < 2:
        raise InputError("need at least 2 tokens to score next-token loss")
    if ids.size > cfg.max_seq:
        raise CapacityError(f"sequence of {ids.size} exceeds max_seq={cfg.max_seq}")

    w64 = {name: arr.astype(np.float64, copy=False)
           for name, arr in weights.named_tensors().items()}
    cis64 = weights.rope[:, 0].astype(np.complex128)
    scale = 1.0 / np.sqrt(cfg.d_head)
    T, n_kv, d_head = ids.size, cfg.n_kv_heads, cfg.d_head
    mask = np.triu(np.ones((T, T), dtype=bool), 1)  # later keys

    def by_head(a):  # (T, heads · d_head) -> (n_kv, heads / n_kv, T, d_head)
        return a.reshape(T, n_kv, -1, d_head).transpose(1, 2, 0, 3)

    def by_token(a):  # the inverse of by_head
        return a.transpose(2, 0, 1, 3).reshape(T, -1)

    tape = []
    x = w64["embed"][ids]
    for li in range(cfg.n_layers):
        lw = {name: w64[f"layers.{li}.{name}"] for name in LAYER_TENSORS}
        xn1, inv1 = _rms_norm64(x, lw["attn_gain"])
        q = by_head(_rope64(xn1 @ lw["w_q"], cis64))
        k = by_head(_rope64(xn1 @ lw["w_k"], cis64))
        v = by_head(xn1 @ lw["w_v"])
        p = _softmax64(q @ k.swapaxes(-1, -2) * scale, mask)
        x_mid = x + by_token(p @ v) @ lw["w_o"]
        xn2, inv2 = _rms_norm64(x_mid, lw["mlp_gain"])
        z = xn2 @ lw["w_in"]
        sig = 1.0 / (1.0 + np.exp(-z))
        tape.append((lw, x, xn1, inv1, q, k, v, p, x_mid, inv2, z, sig))
        x = x_mid + (z * sig) @ lw["w_out"]

    xf, invf = _rms_norm64(x, w64["final_gain"])
    logits = xf @ w64["lm_head"]
    zmax = logits[:-1].max(axis=-1, keepdims=True)
    expz = np.exp(logits[:-1] - zmax)
    lse = np.log(expz.sum(axis=-1)) + zmax[:, 0]
    rows, targets = np.arange(T - 1), ids[1:]
    loss = float(np.mean(lse - logits[rows, targets]))

    dlogits = np.zeros_like(logits)
    dlogits[:-1] = expz / expz.sum(axis=-1, keepdims=True)
    dlogits[rows, targets] -= 1.0
    dx = _rms_norm64_backward(dlogits / (T - 1) @ w64["lm_head"].T, x, w64["final_gain"], invf)

    grads = []
    for lw, x_in, xn1, inv1, q, k, v, p, x_mid, inv2, z, sig in reversed(tape):
        # MLP block
        dz = (dx @ lw["w_out"].T) * (sig * (1.0 + z * (1.0 - sig)))
        dx_mid = dx + _rms_norm64_backward(dz @ lw["w_in"].T, x_mid, lw["mlp_gain"], inv2)
        # attention block; dk and dv sum over the query heads of each KV head
        do = by_head(dx_mid @ lw["w_o"].T)
        dp = do @ v.swapaxes(-1, -2)
        ds = p * (dp - np.sum(dp * p, axis=-1, keepdims=True))
        dq = _rope64(by_token(ds @ k * scale), cis64, inverse=True)
        dk = _rope64(by_token((ds.swapaxes(-1, -2) @ q * scale).sum(axis=1, keepdims=True)),
                     cis64, inverse=True)
        dv = by_token((p.swapaxes(-1, -2) @ do).sum(axis=1, keepdims=True))
        grads.append({"w_k": xn1.T @ dk, "w_v": xn1.T @ dv})
        dxn1 = dq @ lw["w_q"].T + dk @ lw["w_k"].T + dv @ lw["w_v"].T
        dx = dx_mid + _rms_norm64_backward(dxn1, x_in, lw["attn_gain"], inv1)

    return loss, grads[::-1]
