"""Offline transform: concatenated-group truncated SVD of K/V projections.

For each group of ``m`` consecutive layers the K/V projection matrices are
concatenated column-wise, factorized once by truncated SVD, and split into a
shared left factor ``A`` (hidden -> latent) plus per-layer right factors
``B_k`` / ``B_v`` (latent -> keys / values).  The runtime value path applies
``B_v`` and then the layer's output projection ``W_o``; a loaded
``SharedFactorization`` holds only ``A``, ``B_k`` and ``B_v``.  The container
also carries two products that ``transform_model`` alone makes and no loader
reads: each layer's ``B_v`` fused with ``W_o`` per query head (``M_q``) and
the per-layer reconstruction errors.

The truncated SVD is read off the eigendecomposition of the Gram matrix
``W W^T = U S^2 U^T`` (``d_hidden x d_hidden``), in float64.  With the top
``r`` eigenpairs, ``A = U_r S_r^1/2`` and ``R = S_r^-1/2 U_r^T W``, so
``A R = U_r U_r^T W``: the square roots cancel and the product is the
orthogonal projection of ``W`` onto the computed top-``r`` subspace.  A tall
``W`` needs no other route: its Gram matrix has at most ``cols`` nonzero
eigenvalues, and ``r <= cols``.  Squaring the singular values costs
precision at the bottom of the spectrum: an eigenvalue carries an absolute
error near ``eps * s_max^2``, so singular values below about
``sqrt(eps) * s_max`` are resolved less exactly than an SVD resolves them.
That does not change ``A R``: the projection depends on the subspace alone,
never on how its singular values are scaled, and the subspace is as exact
as the gap below the kept values allows.  A direction whose eigenvalue is
at rounding level (below ``max(shape) * eps * s_max^2``) gets a zero column
in ``A`` and a zero row in ``R`` rather than a division by about zero; what
it would have added to ``A R`` is below ``sqrt(max(shape) * eps) * s_max``,
about the float32 precision of the stored factors, and zero to rounding
for an exactly rank-deficient ``W``.

Factors are stored as float32 in the container.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError, InputError, NumericError
from .model import ModelConfig, ModelWeights, config_from_manifest, weights_from_tensors
from . import tensorfile


@dataclass(frozen=True)
class GroupLayout:
    """Consecutive layer ranges of equal size covering all layers."""

    group_size: int
    groups: tuple[tuple[int, int], ...]  # (start, end) pairs, end exclusive

    @classmethod
    def for_model(cls, n_layers: int, group_size: int) -> "GroupLayout":
        if group_size < 1:
            raise ConfigurationError("group_size must be >= 1")
        if n_layers % group_size != 0:
            raise ConfigurationError(
                f"n_layers={n_layers} not divisible by group_size={group_size}")
        groups = tuple((s, s + group_size) for s in range(0, n_layers, group_size))
        return cls(group_size=group_size, groups=groups)

    @property
    def n_groups(self) -> int:
        return len(self.groups)

    def group_of(self, layer: int) -> int:
        return layer // self.group_size

    def layers_of(self, group: int) -> range:
        s, e = self.groups[group]
        return range(s, e)


def concat_group_weights(weights: ModelWeights, group: range | list[int]) -> np.ndarray:
    """Column-concatenate [W_k, W_v] of each member layer, front to back."""
    blocks = []
    for layer in group:
        lw = weights.layers[layer]
        blocks.append(lw.w_k)
        blocks.append(lw.w_v)
    return np.concatenate(blocks, axis=1)


def _fix_svd_signs(u: np.ndarray, vt: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each left column (a singular vector, or one
    # scaled by a positive factor) made positive, first occurrence on ties;
    # the matching right row flips with it.  A zero column keeps its sign.
    flip = np.sign(u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])])
    flip = np.where(flip == 0.0, 1.0, flip)
    return u * flip[None, :], vt * flip[:, None]


def factorize_group(w_g: np.ndarray, rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Rank-``rank`` truncated-SVD split of the concatenated matrix.

    Returns (A, R) with ``A = U_r sqrt(S_r)`` and ``R = sqrt(S_r) V_r^T``;
    slice R column-block-wise to recover the per-layer factors.  The top
    singular pairs come from the eigendecomposition of ``W W^T`` (see the
    module docstring); a direction whose eigenvalue is at rounding level
    gets a zero column in A and a zero row in R.
    """
    if not 1 <= rank <= min(w_g.shape):
        raise ConfigurationError(
            f"rank {rank} outside [1, {min(w_g.shape)}] for shape {w_g.shape}")
    if not np.all(np.isfinite(w_g)):
        raise NumericError("group weights contain non-finite values")
    w = w_g.astype(np.float64)
    try:
        evals, evecs = np.linalg.eigh(w @ w.T)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"Gram eigendecomposition failed to converge: {exc}") from exc
    # eigh sorts ascending: the top ``rank`` pairs, largest first; each
    # eigenvalue is a squared singular value, each eigenvector a column of U
    lam = evals[::-1][:rank]
    u = evecs[:, ::-1][:, :rank]
    keep = lam > max(w.shape) * np.finfo(np.float64).eps * max(evals[-1], 0.0)
    root = np.sqrt(np.sqrt(np.where(keep, lam, 0.0)))    # sqrt(s), s = singular values
    inv_root = np.divide(1.0, root, out=np.zeros_like(root), where=keep)
    return _fix_svd_signs(u * root[None, :], inv_root[:, None] * (u.T @ w))


def split_right_factor(r: np.ndarray, group: range | list[int],
                       d_kv: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Slice the right factor into per-layer (B_k, B_v) following concat order."""
    out = {}
    col = 0
    for layer in group:
        b_k = r[:, col:col + d_kv]
        b_v = r[:, col + d_kv:col + 2 * d_kv]
        out[layer] = (b_k, b_v)
        col += 2 * d_kv
    return out


def fuse_value_output(b_v: np.ndarray, w_o: np.ndarray, config: ModelConfig) -> np.ndarray:
    """Per-query-head products mapping latents directly to attention output.

    Returns (n_q_heads, r, d_hidden): entry q is the KV-head slice of B_v for
    q's key/value head times q's row block of W_o.
    """
    dh = config.d_head
    rank = b_v.shape[0]
    fused = np.empty((config.n_q_heads, rank, config.d_hidden), dtype=b_v.dtype)
    for q in range(config.n_q_heads):
        kv = config.kv_head_of(q)
        fused[q] = b_v[:, kv * dh:(kv + 1) * dh] @ w_o[q * dh:(q + 1) * dh, :]
    return fused


@dataclass
class SharedFactorization:
    """Shared and per-layer factors for one model: what a session reads."""

    config: ModelConfig
    layout: GroupLayout
    rank: int
    shared: list[np.ndarray]            # per group: (d_hidden, r)
    k_factors: list[np.ndarray]         # per layer: (r, d_kv)
    v_factors: list[np.ndarray]         # per layer: (r, d_kv)
    # per layer, B_v viewed per KV head, (n_kv_heads, r, d_head): views, made
    # with the factors so that no session step or session rebuilds them
    v_heads: list[np.ndarray] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.v_heads = [v.reshape(self.rank, self.config.n_kv_heads, -1).transpose(1, 0, 2)
                        for v in self.v_factors]

    def shared_for_layer(self, layer: int) -> np.ndarray:
        return self.shared[self.layout.group_of(layer)]


def clamp_rank(rank_fraction: float, config: ModelConfig, group_size: int) -> int:
    """round(fraction * d_hidden), clamped into [1, min(d_hidden, 2*m*d_kv)]."""
    if not 0 < rank_fraction <= 1:
        raise ConfigurationError("rank_fraction must be in (0, 1]")
    r = round(rank_fraction * config.d_hidden)
    return max(1, min(r, config.d_hidden, 2 * group_size * config.d_kv))


def rank_warnings(rank: int, config: ModelConfig) -> list[str]:
    """A note when a latent row is wider than the raw K+V row it stands for.

    Each unmerged layer stores ``r`` elements per token where full KV stores
    ``2 * d_kv``, so above that width unmerged prefixes and every decode row
    cost more than no compression at all.
    """
    full = 2 * config.d_kv
    if rank <= full:
        return []
    return [f"rank {rank} exceeds 2*d_kv={full}: each unmerged latent row is "
            f"{rank / full - 1:.0%} larger than its full-KV row"]


def _rel_frobenius(approx: np.ndarray, exact: np.ndarray) -> float:
    denom = np.linalg.norm(exact.astype(np.float64))
    if denom == 0.0:
        return 0.0
    return float(np.linalg.norm(approx.astype(np.float64) - exact.astype(np.float64)) / denom)


def build_factorization(weights: ModelWeights, group_size: int,
                        rank: int) -> SharedFactorization:
    """The shared and per-layer factors at ``rank``; ``factorize_group``
    refuses one outside ``[1, min(d_hidden, 2·group_size·d_kv)]``."""
    cfg = weights.config
    layout = GroupLayout.for_model(cfg.n_layers, group_size)
    shared: list[np.ndarray] = []
    k_factors: list[np.ndarray | None] = [None] * cfg.n_layers
    v_factors: list[np.ndarray | None] = [None] * cfg.n_layers
    for gi in range(layout.n_groups):
        members = layout.layers_of(gi)
        a, r = factorize_group(concat_group_weights(weights, members), rank)
        shared.append(a.astype(np.float32))
        for layer, (b_k, b_v) in split_right_factor(r, members, cfg.d_kv).items():
            k_factors[layer] = b_k.astype(np.float32)
            v_factors[layer] = b_v.astype(np.float32)
    return SharedFactorization(config=cfg, layout=layout, rank=rank, shared=shared,
                               k_factors=k_factors, v_factors=v_factors)


def transform_model(weights: ModelWeights, group_size: int, rank_fraction: float
                    ) -> tuple[bytes, dict]:
    """Factorize and serialize to container bytes plus a sidecar report dict.

    The report is the container manifest plus ``warnings`` (see
    ``rank_warnings``), which the manifest does not carry.

    The container keeps every original weight (``W_o`` is the runtime output
    projection of the value path) alongside the factor tensors and the fused
    per-head matrices ``M_q`` (``layers.{l}.fused_out``); the manifest
    carries each layer's relative Frobenius reconstruction errors.
    """
    cfg = weights.config
    fact = build_factorization(weights, group_size, clamp_rank(rank_fraction, cfg, group_size))
    tensors = dict(weights.named_tensors())
    tensors.update((f"groups.{gi}.shared", a) for gi, a in enumerate(fact.shared))
    errors = {}
    for l, lw in enumerate(weights.layers):
        a, b_k, b_v = fact.shared_for_layer(l), fact.k_factors[l], fact.v_factors[l]
        tensors[f"layers.{l}.k_factor"] = b_k
        tensors[f"layers.{l}.v_factor"] = b_v
        tensors[f"layers.{l}.fused_out"] = fuse_value_output(b_v, lw.w_o, cfg)
        errors[f"layers.{l}.k"] = _rel_frobenius(a @ b_k, lw.w_k)
        errors[f"layers.{l}.v"] = _rel_frobenius(a @ b_v, lw.w_v)
    manifest = {
        "kind": "factorized_model",
        "config": cfg.to_dict(),
        "seed": weights.seed,
        "group_size": group_size,
        "rank": fact.rank,
        "rank_fraction": rank_fraction,
        "groups": [list(g) for g in fact.layout.groups],
        "recon_errors": {k: errors[k] for k in sorted(errors)},
    }
    blob = tensorfile.serialize(tensors, meta=manifest)
    return blob, dict(manifest, warnings=rank_warnings(fact.rank, cfg))


def load_factorized(blob_or_path) -> tuple[ModelWeights, SharedFactorization]:
    """Load a factorized container (path or bytes) back into runtime objects.

    Reads the base weights, the factors, and the manifest's ``config``,
    ``group_size``, ``groups`` and ``rank``; nothing else.  Every tensor
    entry is checked, and ``tensorfile.take_tensors`` checks and copies out
    the weights, then the factors, and no other tensor.  A rank outside
    ``[1, min(d_hidden, 2·group_size·d_kv)]`` is an InputError.
    """
    if isinstance(blob_or_path, (bytes, bytearray)):
        tensors, meta = tensorfile.deserialize(bytes(blob_or_path))
    else:
        tensors, meta = tensorfile.load(blob_or_path)
    if tensorfile.take(meta, ("kind",), "container manifest") != ["factorized_model"]:
        raise ConfigurationError("container is not a factorized model")
    cfg = config_from_manifest(meta)
    group_size, groups, rank = tensorfile.take(
        meta, ("group_size", "groups", "rank"), "factorized manifest")
    for name, value in (("group_size", group_size), ("rank", rank)):
        if not isinstance(value, int) or isinstance(value, bool):
            raise InputError(f"factorized manifest {name!r} is not an integer: {value!r}")
    try:
        layout = GroupLayout.for_model(cfg.n_layers, group_size)
    except ConfigurationError as exc:
        raise InputError(f"factorized manifest: {exc}") from None
    if groups != [list(g) for g in layout.groups]:
        raise InputError(f"factorized manifest 'groups' {groups!r} are not the "
                         f"group_size={group_size} layout of {cfg.n_layers} layers")
    max_rank = clamp_rank(1.0, cfg, group_size)  # full rank, clamped to the layout
    if not 1 <= rank <= max_rank:
        raise InputError(f"factorized manifest 'rank' {rank} is outside [1, {max_rank}]")
    weights = weights_from_tensors(cfg, tensors, seed=meta.get("seed"))
    shapes = {f"groups.{g}.shared": (cfg.d_hidden, rank) for g in range(layout.n_groups)}
    for kind in ("k", "v"):
        shapes.update((f"layers.{l}.{kind}_factor", (rank, cfg.d_kv))
                      for l in range(cfg.n_layers))
    arrays = tensorfile.take_tensors(tensors, shapes, "factorized container")
    shared, factors = arrays[:layout.n_groups], arrays[layout.n_groups:]
    fact = SharedFactorization(config=cfg, layout=layout, rank=rank, shared=shared,
                               k_factors=factors[:cfg.n_layers],
                               v_factors=factors[cfg.n_layers:])
    return weights, fact
