"""Adaptive compression budgets, Fisher calibration, and prefix merging.

A group's score averages the mean token cosine (``group_score``) over the
member-layer pairs its variant names (``SCORE_VARIANTS``): by default its first
and last layers, a cheaper stand-in for every adjacent pair.  Budgets map a target
compression ratio to the number of groups to merge.  ``stored_elements`` is
the one closed form for how many elements a session stores; the plan, every
session's own audit (``LatentSession.audit``) and the full-KV baseline read it.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from collections.abc import Iterable
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, UnreachableRatioError
from .model import ModelConfig, ModelWeights, loss_and_grads, row_blocks


# Each merge strategy's member-layer weights in a group of m layers, given the
# members' Fisher values (read by fisher only, which ``merge_group`` checks and
# sends to mean when they sum to zero)
MERGE_STRATEGIES = {
    "mean": lambda m, fisher: [1.0 / m] * m,
    "fisher": lambda m, fisher: [float(f) / float(sum(fisher)) for f in fisher],
    "shallow": lambda m, fisher: [1.0] + [0.0] * (m - 1),
    "deep": lambda m, fisher: [0.0] * (m - 1) + [1.0],
}
# Elements per row block of ``merge_group``'s float64 sums (32 KB).  Merges
# run once per group, so small blocks cost little time, and even a short
# prompt's prefix spans several of them: its float64 scratch stays below one
# float64 copy of the prefix.  ``_token_cosines`` takes no smaller block.
MERGE_BLOCK_ELEMENTS = 2**12
# Each score variant's member-layer index pairs in a group of m layers
SCORE_VARIANTS = {
    "shortcut": lambda m: [(0, m - 1)],
    "full": lambda m: [(i, i + 1) for i in range(m - 1)] or [(0, 0)],
}


# ---------------------------------------------------------------------------
# Group scores
# ---------------------------------------------------------------------------

def _token_cosines(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Each row's cosine in float64, one row block per prefix at a time
    (``model.row_blocks``).

    A block's products ``x * y``, ``x * x`` and ``y * y`` are formed in one
    float64 scratch array, and one ``np.sum(..., axis=-1)`` takes the row
    sums that ``np.sum(x * y, axis=-1)`` and ``np.linalg.norm(x, axis=-1)``
    take.  Every sum is per row, so blocking changes no bit, and no float64
    copy of a whole prefix exists.  A block holds an eighth of the prefix's
    elements, so its scratch, three float64 products per element, comes to
    3 bytes per prefix element: below the float32 prefix (4 bytes per
    element) that the group's merge allocates.  A 960-row prefix thus takes
    8 blocks, not 44.  A block holds no fewer than ``MERGE_BLOCK_ELEMENTS``,
    so a short prefix is not cut into slivers.
    """
    out = np.zeros(len(a), dtype=np.float64)
    for block in row_blocks(*a.shape, max(MERGE_BLOCK_ELEMENTS, a.size // 8)):
        work = np.empty((3, *a[block].shape), dtype=np.float64)
        np.copyto(work[0], a[block])
        np.copyto(work[1], b[block])
        np.multiply(work[0], work[1], out=work[2])
        np.square(work[:2], out=work[:2])
        sums = np.sum(work, axis=-1)  # (3, rows): |x|², |y|², x·y
        del work  # before the next block's scratch
        norms = np.sqrt(sums[:2])
        norms = norms[0] * norms[1]
        np.divide(sums[2], norms, out=out[block], where=norms > 0.0)
    return out


def group_score(h_first: np.ndarray, h_last: np.ndarray) -> float:
    """Mean token cosine between two member layers' latent prefixes."""
    if h_first.shape != h_last.shape:
        raise InputError("latent prefixes differ in shape")
    if h_first.shape[0] == 0:
        raise InputError("cannot score an empty prefix")
    return float(np.mean(_token_cosines(h_first, h_last)))


# ---------------------------------------------------------------------------
# Budget allocation
# ---------------------------------------------------------------------------

@dataclass
class BudgetPlan:
    scores: list[float]
    target_ratio: float
    merged_groups: list[int]
    strategy: str
    width: int                        # row width: latent rank, or 2·d_kv for raw K/V
    cost_per_token: int               # prefill elements per token
    predicted_prefill_ratio: float
    merge_weights: dict[int, list[float]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)

    @property
    def merged_count(self) -> int:
        return len(self.merged_groups)

    def to_dict(self) -> dict:
        # string group keys, as JSON has, so sort_keys orders "10" before "2"
        return asdict(self) | {"merge_weights": {str(g): w for g, w in
                                                  self.merge_weights.items()}}


def stored_elements(config: ModelConfig, width: int, prefill_len: int, decode_len: int = 0,
                    *, merged_count: int = 0, group_size: int = 1) -> int:
    """Elements a session stores for ``prefill_len`` prompt and ``decode_len`` decode tokens.

    Each layer stores one row of ``width`` elements per token: ``2 * d_kv``
    for full K/V, the rank for latents.  The one exception: each of the
    ``merged_count`` merged groups of ``group_size`` layers stores one prefill
    row for all its members.
    """
    prefill_rows = config.n_layers - merged_count * (group_size - 1)
    return width * (prefill_rows * prefill_len + config.n_layers * decode_len)


def baseline_elements(config: ModelConfig, n_tokens: int) -> int:
    """Elements a full-KV cache stores for the same token count."""
    return stored_elements(config, 2 * config.d_kv, n_tokens)


def top_k_groups(scores: list[float], k: int) -> list[int]:
    """Indices of the k highest scores; ties resolved toward lower index."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return sorted(order[:k])


def merge_count(target_ratio: float, layout, width: int,
                config: ModelConfig) -> tuple[int, int, float]:
    """Smallest merged-group count whose prefill storage meets the target.

    Returns ``(count, cost_per_token, prefill_ratio)``.  The count depends
    only on the row width, the layout and the config, so a target can be
    checked before any session is built.  Raises ``UnreachableRatioError``
    (carrying the maximum achievable ratio) when even merging every group
    cannot reach ``target_ratio``.
    """
    if not 0.0 <= target_ratio < 1.0:  # also false for nan
        raise ConfigurationError("target ratio must be in [0, 1)")
    for k in range(layout.n_groups + 1):
        cost = stored_elements(config, width, 1, merged_count=k, group_size=layout.group_size)
        ratio = 1.0 - cost / baseline_elements(config, 1)
        if ratio >= target_ratio:
            return k, cost, ratio
    # not even merging every group reaches it; ``ratio`` is that maximum
    raise UnreachableRatioError(
        f"target ratio {target_ratio} unreachable at width {width}; "
        f"maximum achievable is {ratio:.6f}", max_achievable=ratio)


def allocate_budget(scores: list[float], target_ratio: float, layout, width: int,
                    config: ModelConfig, strategy: str = "fisher") -> BudgetPlan:
    """Merge the ``merge_count`` best-scoring groups: the plan for rows ``width`` wide."""
    if strategy not in MERGE_STRATEGIES:
        raise ConfigurationError(f"unknown merge strategy {strategy!r}")
    if len(scores) != layout.n_groups:
        raise InputError(f"expected {layout.n_groups} scores, got {len(scores)}")
    k, cost, ratio = merge_count(target_ratio, layout, width, config)
    return BudgetPlan(scores=list(scores), target_ratio=target_ratio,
                      merged_groups=top_k_groups(scores, k), strategy=strategy,
                      width=width, cost_per_token=cost, predicted_prefill_ratio=ratio)


# ---------------------------------------------------------------------------
# Fisher calibration
# ---------------------------------------------------------------------------

@dataclass
class FisherWeights:
    """Per-layer importance: summed squared loss gradients of W_k and W_v."""

    per_layer: list[float]
    corpus_digest: str
    seed: int | None = None
    n_sequences: int = 0

    def for_layers(self, layers) -> list[float]:
        return [self.per_layer[l] for l in layers]

    def to_json(self) -> str:
        return json.dumps({
            "kind": "fisher_weights",
            "per_layer": self.per_layer,
            "corpus_hash": self.corpus_digest,
            "seed": self.seed,
            "n_sequences": self.n_sequences,
        }, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str | bytes) -> "FisherWeights":
        """Parse a Fisher weights file; anything malformed is a ConfigurationError."""
        try:
            d = json.loads(text)
        except ValueError as exc:  # bad JSON or bad UTF-8
            raise ConfigurationError(f"Fisher weights file is not valid JSON: {exc}") from None
        if not isinstance(d, dict) or d.get("kind") != "fisher_weights":
            raise ConfigurationError("not a Fisher weights file")
        per_layer = d.get("per_layer")
        if not isinstance(per_layer, list) or not all(
                isinstance(v, (int, float)) and not isinstance(v, bool)
                and 0 <= v <= sys.float_info.max for v in per_layer):
            raise ConfigurationError(
                "Fisher weights file needs 'per_layer', a list of finite non-negative numbers")
        if not sum(per_layer) <= sys.float_info.max:  # a merge would divide by inf
            raise ConfigurationError("Fisher weights file 'per_layer' does not sum to a "
                                     "finite number")
        if not isinstance(d.get("corpus_hash"), str):
            raise ConfigurationError("Fisher weights file lacks its 'corpus_hash'")
        return cls(per_layer=per_layer, corpus_digest=d["corpus_hash"],
                   seed=d.get("seed"), n_sequences=d.get("n_sequences", 0))


def estimate_fisher(weights: ModelWeights, corpus: Iterable[np.ndarray],
                    seed: int | None = None) -> FisherWeights:
    """Empirical Fisher over the calibration corpus.

    For each sequence the gradient of its mean NLL is taken with respect to
    every W_k and W_v; squared element sums are averaged over sequences, and
    the per-layer weight is the key and value contributions added together.
    The model is converted to float64 once for the whole corpus; the
    conversion is exact, so the result equals converting per sequence.
    ``corpus`` is read once, one sequence at a time, so a generator such as
    ``corpus.markov_byte_sequences`` holds only the sequence being read.  The
    corpus digest is taken on the way: SHA-256 over each sequence's length as
    8 little-endian bytes, then its ids as little-endian int64.  An empty
    corpus is an ``InputError``.
    """
    n_layers = weights.config.n_layers
    weights64 = weights.astype(np.float64)
    acc = np.zeros(n_layers, dtype=np.float64)
    digest = hashlib.sha256()
    count = 0
    for seq in corpus:
        ids = np.asarray(seq, dtype=np.int64)
        digest.update(len(ids).to_bytes(8, "little"))
        digest.update(ids.astype("<i8").tobytes())
        _, grads = loss_and_grads(weights64, seq)
        for l in range(n_layers):
            acc[l] += np.sum(grads[l]["w_k"] ** 2) + np.sum(grads[l]["w_v"] ** 2)
        count += 1
    if not count:
        raise InputError("calibration corpus is empty")
    acc /= count
    return FisherWeights(per_layer=[float(v) for v in acc],
                         corpus_digest=digest.hexdigest(), seed=seed, n_sequences=count)


# ---------------------------------------------------------------------------
# Merging
# ---------------------------------------------------------------------------


def merge_group(prefixes: list[np.ndarray], strategy: str,
                fisher_values: list[float] | None = None
                ) -> tuple[np.ndarray, list[float], bool]:
    """Collapse per-layer prefixes into one shared prefix.

    Returns (merged, weights_used, fisher_fell_back).  Weights are always
    nonnegative and sum to one, so merged rows stay in the convex hull of
    the member rows.  The weighted sum accumulates in float64 one row block
    of at most ``MERGE_BLOCK_ELEMENTS`` at a time (``model.row_blocks``), so
    beside the float32 result only block-sized float64 arrays exist.
    """
    if not prefixes:
        raise InputError("nothing to merge")
    shapes = {p.shape for p in prefixes}
    if len(shapes) != 1:
        raise InputError("prefixes differ in shape")
    if strategy not in MERGE_STRATEGIES:
        raise InputError(f"unknown merge strategy {strategy!r}")
    m = len(prefixes)
    fell_back = False
    if strategy == "fisher":
        if fisher_values is None:
            raise InputError("fisher strategy needs Fisher weights")
        if len(fisher_values) != m:
            raise InputError("Fisher weight count does not match group size")
        if any(f < 0 for f in fisher_values):
            raise InputError("Fisher weights must be nonnegative")
        total = sum(fisher_values)
        if not total <= sys.float_info.max:  # an inf or nan total zeroes or nans every weight
            raise InputError(f"Fisher weights of a group sum to {total}, not a finite number")
        fell_back = float(total) == 0.0
    w = MERGE_STRATEGIES["mean" if fell_back else strategy](m, fisher_values)
    merged = np.empty(prefixes[0].shape, dtype=np.float32)
    for block in row_blocks(*merged.shape, MERGE_BLOCK_ELEMENTS):
        acc = np.zeros(merged[block].shape, dtype=np.float64)
        for weight, prefix in zip(w, prefixes):
            if weight != 0.0:
                acc += weight * prefix[block].astype(np.float64)
        merged[block] = acc
        del acc  # before the next block's sums
    return merged, w, fell_back
