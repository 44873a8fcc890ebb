"""The merged-prefix cache store and the compressed-inference session.

``LatentCacheStore`` holds rows of one width per layer and keeps each merged
group's prefix as one checksummed shared prefix.  ``LatentSession`` runs
every compressed mode's phases over it: prefill, plan and merge (the one
merge loop is ``LatentSession.apply_plan``), decode and audit.  Its rows are
latents here and raw K/V rows in its subclass ``evaluation.RawKVSession``.
``LatentSession.audit`` checks every count against the closed form
``budget.stored_elements``, whoever drives the session.

A ``LatentSession`` is the KV store that ``model.forward`` runs over: it
holds its model, the decoder layer is the baseline's, and only what a layer
caches (``append(layer, xn, start)``) and how it attends (``attend(layer,
q)``, which writes a multi-row call's head outputs over ``q``) differ.  The
cache stores position-free latent rows ``h = x_normed @ A`` per layer.
Keys are restored on the fly each step as ``rope(h @ B_k)``: positions follow
from shapes (a layer's T latent rows sit at 0..T-1 and a call's queries are
the last of them), so the rotations are a slice of the RoPE table, applied in
place on the GEMM's output.  Values are never cached: the value
path applies ``B_v`` and then ``W_o`` in whichever exact order costs fewer
multiply-adds for the call's shapes.  Prefill restores values ``h @ B_v``
transiently, the way keys are restored; a decode step mixes latents with the
attention weights first.  A session that merges nothing computes what the
full-KV engine computes over the reconstructed projections ``A @ B_k`` and
``A @ B_v``, which is how ``commonkv check`` verifies the value path.
After prefill, groups selected by the budget plan collapse their per-layer
prefixes into one shared prefix; decode-time latents always stay per layer.
A layer's decode suffix is held as sealed fixed-size chunks plus a short
open tail, so a decode append copies at most one chunk of rows.  The rows a
layer attends to are joined into one array per step: a merged group's first
member layer copies the shared prefix and its suffix, each later member layer
writes only its own suffix rows over the same array, so the prefix is copied
once per group and step, not once per layer.  The store keeps no positions:
its prefill and decode lengths are the rows its layer 0 holds.

The latent GEMMs, key and value restore ``H @ B`` and a decode row's latent
mix ``P @ H``, run in row blocks of at most ``model.SMALL_GEMM_MULTIPLY_ADDS``
(100³) multiply-adds, the largest float32 GEMM that OpenBLAS 0.3.31 runs on
its small-matrix kernel.  Past it the general kernel is much slower for these
skinny products.  At the wide shape (r = 179, 8 query heads, d_kv = 64), on
a Haswell-kernel x86 host with one BLAS thread, minimum over repeats:

    product                       Tk     one GEMM   blocks under 100³
    mix (8, Tk) @ (Tk, 179)       698    21.8 µs    (one block)
                                  700    45.7 µs    24.1 µs
                                  976    61.4 µs    33.1 µs
    restore (Tk, 179) @ (179, 64) 768    139 µs     111 µs (86-row blocks)
                                  976    171 µs     137 µs (82-row blocks)

Restore blocks of 88 or 96 rows, just over the limit, were 9-15% slower than
one GEMM: the limit matters, not blocking as such.  A product under the limit
stays one GEMM.  A restore block writes its own output rows, so restored keys
and values keep their bits on OpenBLAS 0.3.31; a decode row's mix sums its key
blocks, which moves its rounding (within float32 epsilons of the product).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from . import budget as budget_mod
from .budget import baseline_elements  # the storage closed form, also read from here
from .errors import InputError, NumericError
from .factorization import GroupLayout, SharedFactorization
from .model import (SMALL_GEMM_MULTIPLY_ADDS, ModelConfig, ModelWeights, apply_rope,
                    attention_block, block_rows, causal_attention, forward)


def compute_latent(x: np.ndarray, shared: np.ndarray) -> np.ndarray:
    """Project hidden rows into the latent space: (tokens, r), position-free."""
    return x @ shared


def _restore(latents: np.ndarray, factor: np.ndarray) -> np.ndarray:
    """``latents @ factor``, (T, r) @ (r, d), in row blocks of at most
    ``SMALL_GEMM_MULTIPLY_ADDS`` multiply-adds (``model.block_rows``).

    Each block's GEMM writes its own rows of the one (T, d) result: the whole
    blocks as one stacked matmul, which numpy runs as one GEMM per block
    without a Python loop, and a shorter last block as one more.  A product
    that fits in one block stays a single GEMM.  Every output row is the same
    dot products in either case; on OpenBLAS 0.3.31 blocking changes no bit.
    """
    (n_rows, rank), width = latents.shape, factor.size
    if n_rows * width <= SMALL_GEMM_MULTIPLY_ADDS:
        return latents @ factor
    size = block_rows(n_rows, width, SMALL_GEMM_MULTIPLY_ADDS)
    whole = n_rows - n_rows % size
    out = np.empty((n_rows, factor.shape[1]), dtype=np.result_type(latents, factor))
    np.matmul(latents[:whole].reshape(-1, size, rank), factor,
              out=out[:whole].reshape(-1, size, factor.shape[1]))
    if whole < n_rows:
        np.matmul(latents[whole:], factor, out=out[whole:])
    return out


def restore_keys(latents: np.ndarray, k_factor: np.ndarray, rope: np.ndarray,
                 n_kv_heads: int) -> np.ndarray:
    """Keys from latents at positions 0..T-1: (T, n_kv_heads, d_head), rotated.

    The GEMM ``latents @ k_factor`` runs in row blocks of at most
    ``SMALL_GEMM_MULTIPLY_ADDS`` multiply-adds (up to 87 rows at the wide shape),
    each written into one (T, d_kv) buffer; then one rotation runs in place
    over all T rows, so the keys are the only array allocated.
    """
    keys = _restore(latents, k_factor).reshape(latents.shape[0], n_kv_heads, -1)
    return apply_rope(keys, 0, rope)


def attend_latent(q_rope: np.ndarray, latents: np.ndarray, k_factor: np.ndarray,
                  v_factor: np.ndarray, w_o: np.ndarray, rope: np.ndarray,
                  config: ModelConfig, v_heads: np.ndarray) -> np.ndarray:
    """Causal attention over latent rows for one layer; returns (Tq, d_hidden).

    The output is ``model.causal_attention`` over the restored keys, with
    whichever exact value step needs fewer multiply-adds for these shapes
    (Tq query rows, Tk latent rows of width r):

    * restore values, ``Tk·r·d_kv + n_q·Tq·Tk·d_head``: ``V = H @ B_v`` for
      this call only, then the baseline ``attention_block``;
    * mix latents, ``n_q·Tq·Tk·r + n_q·Tq·r·d_head``: ``P_q @ H`` per query
      head, scaled row by row by the reciprocal row sums (see
      ``model.causal_attention_weights``), then that head's ``B_v`` columns,
      read from ``v_heads``, the (n_kv, r, d_head) per-KV-head view of
      ``v_factor`` (``SharedFactorization.v_heads`` holds one per layer).

    Prefill restores values and a decode step (Tq = 1) mixes latents; the
    crossover sits near Tq ≈ r·d_kv / (n_q·(r − d_head)).  Keys and restored
    values are GEMMs in row blocks of at most ``SMALL_GEMM_MULTIPLY_ADDS``
    multiply-adds (see the module docstring).  So is a decode row's mix,
    ``P[:, block] @ H[block]`` over key blocks of at most
    ``SMALL_GEMM_MULTIPLY_ADDS // (n_q·r)`` keys, summed in place.  A
    multi-row call's mix stays one GEMM: with ``n_q·Tq`` rows, its key blocks
    would be too shallow to pay.
    The latents sit at positions 0..Tk-1 and the queries are the last Tq;
    as in ``model.causal_attention``, a multi-row call writes its head
    outputs over ``q_rope``.
    """
    keys = restore_keys(latents, k_factor, rope, config.n_kv_heads)
    n_q, n_kv, d_head = config.n_q_heads, config.n_kv_heads, config.d_head
    tq, (tk_all, rank) = q_rope.shape[0], latents.shape
    restore = tk_all * rank * config.d_kv + n_q * tq * tk_all * d_head
    mix = n_q * tq * tk_all * rank + n_q * tq * rank * d_head
    if restore <= mix:
        values = _restore(latents, v_factor).reshape(tk_all, n_kv, d_head)
        return attention_block(q_rope, keys, values, w_o, config)

    def head_values(weights, inv, tk):
        weights = weights.reshape(-1, tk)   # (n_q * rows, tk), head-major
        if tq > 1 or n_q * tk * rank <= SMALL_GEMM_MULTIPLY_ADDS:
            mixed = weights @ latents[:tk]  # (n_q * rows, r)
        else:   # a decode row: key blocks of at most SMALL_GEMM_MULTIPLY_ADDS, summed
            size = block_rows(tk, n_q * rank, SMALL_GEMM_MULTIPLY_ADDS)
            mixed = weights[:, :size] @ latents[:size]
            for start in range(size, tk, size):
                mixed += weights[:, start:start + size] @ latents[start:start + size]
        mixed *= inv.reshape(-1, 1)
        return np.matmul(mixed.reshape(n_kv, -1, rank), v_heads)  # (n_kv, hpk * rows, d_head)

    return causal_attention(q_rope, keys, w_o, config, head_values)


def _checksum(array: np.ndarray) -> str:
    """SHA-256 of a C-contiguous array's buffer, read in place without a copy."""
    return hashlib.sha256(array).hexdigest()


@dataclass
class GroupCache:
    layer_prefixes: list[np.ndarray]     # per member layer, (T_pre, r); emptied once merged
    shared_prefix: np.ndarray | None = None
    merge_checksum: str | None = None

    @property
    def merged(self) -> bool:
        return self.shared_prefix is not None


@dataclass
class CacheAudit:
    """Element counts per stored part (float32 elements, not bytes)."""

    prefix_elements: int
    suffix_elements: int

    @property
    def total_elements(self) -> int:
        return self.prefix_elements + self.suffix_elements


# Rows per sealed decode-suffix chunk: a decode append copies the open tail
# (fewer rows than this), never the layer's whole suffix.
SUFFIX_CHUNK_ROWS = 64


class LatentCacheStore:
    """Per-group prefill prefixes plus per-layer decode suffixes, in rows of ``width``.

    The store only holds rows: a latent session's rows are its rank-``r``
    latents, the raw-KV reference's are each token's flattened keys and
    values (``2·d_kv``).  A merged group keeps one shared prefix, checked
    against its SHA-256 by every ``audit``.  A layer's suffix is a tuple of
    sealed ``SUFFIX_CHUNK_ROWS``-row arrays plus an open tail of fewer rows;
    ``suffixes`` joins them on each read.
    Tuples, not lists: an empty tuple allocates nothing, so a session that
    never seals a chunk holds no more than one array per layer.  The lengths
    are counted from layer 0's rows; the store keeps no positions.
    """

    def __init__(self, config: ModelConfig, layout: GroupLayout, width: int):
        self.config = config
        self.layout = layout
        self.width = width
        self.groups = [
            GroupCache(layer_prefixes=[np.empty((0, width), dtype=np.float32)
                                       for _ in layout.layers_of(gi)])
            for gi in range(layout.n_groups)
        ]
        self._chunks: list[tuple[np.ndarray, ...]] = [()] * config.n_layers
        self._tails = [np.empty((0, width), dtype=np.float32)
                       for _ in range(config.n_layers)]
        # a merged group's (shared prefix, joined rows) that its next member reuses
        self._shared_join: tuple[np.ndarray, np.ndarray] | None = None

    @property
    def prefill_len(self) -> int:
        """Layer 0's prefix rows (its group's shared prefix once merged)."""
        return len(self.prefix_for_layer(0))

    @property
    def decode_len(self) -> int:
        """Layer 0's suffix rows: its sealed chunks plus its open tail."""
        return self._suffix_len(0)

    # The rows' positions as new int64 aranges: only the benchmark's copy count
    # reads them, no kernel does.
    @property
    def prefill_positions(self) -> np.ndarray:
        return np.arange(self.prefill_len, dtype=np.int64)

    @property
    def decode_positions(self) -> np.ndarray:
        return np.arange(self.prefill_len, self.prefill_len + self.decode_len, dtype=np.int64)

    def append_prefill(self, layer: int, latents: np.ndarray) -> None:
        """Extend a layer's prefix; its first rows are kept as given, not copied."""
        gi = self.layout.group_of(layer)
        gc = self.groups[gi]
        if gc.merged:
            raise InputError("cannot extend the prefix of a merged group")
        slot = layer - self.layout.groups[gi][0]
        prefix = gc.layer_prefixes[slot]
        gc.layer_prefixes[slot] = (np.concatenate([prefix, latents], axis=0) if len(prefix)
                                   else latents)

    @property
    def suffixes(self) -> list[np.ndarray]:
        """Each layer's decode rows as one array, assembled from its chunks."""
        return [np.concatenate(self._suffix_parts(l), axis=0)
                for l in range(self.config.n_layers)]

    def _suffix_parts(self, layer: int) -> list[np.ndarray]:
        return [*self._chunks[layer], self._tails[layer]]

    def _suffix_len(self, layer: int) -> int:
        return len(self._chunks[layer]) * SUFFIX_CHUNK_ROWS + len(self._tails[layer])

    def append_decode(self, layer: int, latents: np.ndarray) -> None:
        rows = np.concatenate([self._tails[layer], latents], axis=0)
        if len(rows) < SUFFIX_CHUNK_ROWS:
            self._tails[layer] = rows
            return
        # seal whole chunks as arrays of their own, so no view pins a larger buffer
        full = len(rows) - len(rows) % SUFFIX_CHUNK_ROWS
        self._chunks[layer] += tuple(rows[s:s + SUFFIX_CHUNK_ROWS].copy()
                                     for s in range(0, full, SUFFIX_CHUNK_ROWS))
        self._tails[layer] = rows[full:].copy()

    def prefix_for_layer(self, layer: int) -> np.ndarray:
        gi = self.layout.group_of(layer)
        gc = self.groups[gi]
        if gc.merged:
            return gc.shared_prefix
        return gc.layer_prefixes[layer - self.layout.groups[gi][0]]

    def visible_latents(self, layer: int) -> np.ndarray:
        """The rows this layer may attend to, at positions 0..T-1.

        Prefix, sealed chunks and tail are joined by one concatenation; with
        no suffix rows yet (every prefill call) it is the stored prefix
        itself, which the caller only reads.  A merged group's join is kept:
        while the next call's prefix is the same array and its T the same,
        that call writes only its own suffix rows over rows ``P:`` of it and
        returns it, so the array a call returns is valid until the next call.
        The kept join is released before another one is built, and by
        ``release_join``.
        """
        prefix = self.prefix_for_layer(layer)
        suffix_len = self._suffix_len(layer)
        if not suffix_len:
            return prefix
        kept = self._shared_join
        if kept is not None and kept[0] is prefix and len(kept[1]) == len(prefix) + suffix_len:
            joined, row = kept[1], len(prefix)
            for part in self._suffix_parts(layer):   # part by part: no list is built
                joined[row:row + len(part)] = part
                row += len(part)
            return joined
        self._shared_join = kept = None   # released before the next join is built
        joined = np.concatenate([prefix, *self._suffix_parts(layer)], axis=0)
        if self.groups[self.layout.group_of(layer)].merged:
            self._shared_join = (prefix, joined)
        return joined

    def release_join(self) -> None:
        """Drop the kept merged-group join, so that the store holds only its rows."""
        self._shared_join = None

    def merge_group(self, gi: int, merged: np.ndarray) -> None:
        gc = self.groups[gi]
        if gc.merged:
            raise InputError(f"group {gi} already merged")
        if merged.shape != (self.prefill_len, self.width):
            raise InputError("merged prefix has wrong shape")
        gc.shared_prefix = np.ascontiguousarray(merged)
        gc.layer_prefixes = []
        gc.merge_checksum = _checksum(gc.shared_prefix)

    def verify_merged_prefixes(self) -> None:
        for gi, gc in enumerate(self.groups):
            if gc.merged and _checksum(gc.shared_prefix) != gc.merge_checksum:
                raise NumericError(f"merged prefix of group {gi} was mutated after merge")

    def audit(self) -> CacheAudit:
        """Element counts; first raises NumericError if a merged prefix changed."""
        self.verify_merged_prefixes()
        prefix = sum(int(gc.shared_prefix.size) if gc.merged
                     else sum(int(p.size) for p in gc.layer_prefixes) for gc in self.groups)
        suffix = int(sum(part.size for l in range(self.config.n_layers)
                         for part in self._suffix_parts(l)))
        return CacheAudit(prefix_elements=prefix, suffix_elements=suffix)


class LatentSession:
    """One compressed-inference session: prefill, plan/merge, decode.

    The session is its own KV store for ``model.forward`` (``weights``,
    ``n_tokens``, ``append`` and ``attend``): a prefill call's rows join each
    layer's prefix and a decode call's its suffix.  It keeps no phase: a
    prefill is refused once the session has planned or holds a decode row, so
    prefill may run in as many calls as wanted until then.  The session plans
    once: a second plan is refused before anything is scored.
    The value path is factored: ``B_v`` then ``W_o``, see ``attend_latent``.
    A subclass that stores other rows (``evaluation.RawKVSession``) overrides
    ``__init__``, ``pair_score``, ``append`` and ``attend``; the phases, the
    group scores, the plan and the merge loop are these.
    """

    def __init__(self, weights: ModelWeights, fact: SharedFactorization):
        if fact.config != weights.config:
            raise InputError("factorization does not match model config")
        self.fact = fact
        self._open(weights, LatentCacheStore(fact.config, fact.layout, fact.rank))

    def _open(self, weights: ModelWeights, store: LatentCacheStore) -> None:
        self.weights = weights
        self.store = store
        self.plan: budget_mod.BudgetPlan | None = None
        self._decode_call = False   # set by each prefill and decode: where its rows go

    # -- phases ------------------------------------------------------------

    def prefill(self, token_ids) -> np.ndarray:
        """Process prompt tokens, caching each layer's prefix rows; refused
        once the session has planned or holds a decode row."""
        if self.plan is not None or self.store.decode_len:
            raise InputError("prefill phase already closed (merge or decode happened)")
        self._decode_call = False
        return forward(self, token_ids)

    def plan_and_merge(self, target_ratio: float, strategy: str = "mean",
                       fisher: budget_mod.FisherWeights | None = None,
                       score_variant: str = "shortcut") -> budget_mod.BudgetPlan:
        """Score groups, allocate the budget, merge the selected prefixes.

        A second call is an ``InputError`` ("already planned") before any
        group is scored, whether or not the first plan merged anything."""
        scores = self.group_scores(score_variant)
        plan = budget_mod.allocate_budget(
            scores, target_ratio, self.store.layout, self.store.width,
            self.weights.config, strategy=strategy)
        self.apply_plan(plan, fisher)
        return plan

    def group_scores(self, variant: str = "shortcut") -> list[float]:
        """Each group's mean ``pair_score`` over the member-layer pairs that
        ``budget.SCORE_VARIANTS[variant]`` names; only before the session has
        planned."""
        if self.plan is not None:
            raise InputError("already planned: a session plans once")
        if variant not in budget_mod.SCORE_VARIANTS:
            raise InputError(f"unknown score variant {variant!r}")
        pairs_of = budget_mod.SCORE_VARIANTS[variant]
        scores = []
        for gc in self.store.groups:
            prefixes = gc.layer_prefixes
            scores.append(float(np.mean([self.pair_score(prefixes[i], prefixes[j])
                                         for i, j in pairs_of(len(prefixes))])))
        return scores

    def pair_score(self, first: np.ndarray, second: np.ndarray) -> float:
        """How alike two member layers' prefix rows are: their mean token cosine."""
        return budget_mod.group_score(first, second)

    def apply_plan(self, plan: budget_mod.BudgetPlan,
                   fisher: budget_mod.FisherWeights | None = None) -> None:
        """Merge each of the plan's groups by its strategy, recording the
        weights and any Fisher fallback in the plan."""
        if self.plan is not None:
            raise InputError("already planned: a session plans once")
        self.plan = plan
        store = self.store
        for gi in sorted(plan.merged_groups):
            merged, weights_used, fell_back = budget_mod.merge_group(
                store.groups[gi].layer_prefixes, plan.strategy,
                fisher.for_layers(store.layout.layers_of(gi)) if fisher is not None else None)
            plan.merge_weights[gi] = weights_used
            if fell_back:
                plan.warnings.append(
                    f"group {gi}: zero Fisher mass, fell back to mean merge")
            store.merge_group(gi, merged)

    def decode(self, token_id: int) -> np.ndarray:
        """One generated token; its row joins the layer-private suffix.  ``forward``
        checks the token before it keeps a row, so a rejected call keeps none,
        and no call, finished or not, leaves the step's merged-group join held."""
        self._decode_call = True
        try:
            return forward(self, [token_id])[0]
        finally:
            self.store.release_join()

    # -- the KV store ``model.forward`` runs over ------------------------------

    @property
    def n_tokens(self) -> int:
        return self.store.prefill_len + self.store.decode_len

    def append(self, layer: int, xn: np.ndarray, start: int) -> None:
        """Cache the rows' latents, which are position-free."""
        self._keep(layer, compute_latent(xn, self.fact.shared_for_layer(layer)))

    def attend(self, layer: int, q: np.ndarray) -> np.ndarray:
        """Attend over the layer's latents; the head outputs overwrite ``q``."""
        fact, weights = self.fact, self.weights
        return attend_latent(q, self.store.visible_latents(layer), fact.k_factors[layer],
                             fact.v_factors[layer], weights.layers[layer].w_o, weights.rope,
                             weights.config, fact.v_heads[layer])

    def _keep(self, layer: int, new_rows: np.ndarray) -> None:
        """Store a call's rows for ``layer``: suffix rows in a decode call, else prefix."""
        store = self.store
        (store.append_decode if self._decode_call else store.append_prefill)(layer, new_rows)

    # -- accounting ----------------------------------------------------------

    def audit(self) -> CacheAudit:
        """The store's element counts, checked after its checksum walk ("mutated").

        The counts, and an applied plan's per-token cost, must equal
        ``budget.stored_elements`` for the store's width, lengths, merged
        groups and group size; a mismatch raises ``NumericError`` ("closed form").
        """
        store = self.store
        audit = store.audit()
        sharing = {"merged_count": sum(gc.merged for gc in store.groups),
                   "group_size": store.layout.group_size}
        expected = budget_mod.stored_elements(store.config, store.width, store.prefill_len,
                                              store.decode_len, **sharing)
        if audit.total_elements != expected:
            raise NumericError(f"cache audit {audit.total_elements} != closed form {expected}")
        per_token = budget_mod.stored_elements(store.config, store.width, 1, **sharing)
        if self.plan is not None and self.plan.cost_per_token != per_token:
            raise NumericError(f"plan cost {self.plan.cost_per_token} per token "
                               f"!= closed form {per_token}")
        return audit

    def cache_element_count(self) -> int:
        return self.audit().total_elements
