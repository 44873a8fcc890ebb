"""Independent reference implementations used as test oracles.

Everything here is written against the documented conventions only (row-vector
hidden states, interleaved rotation pairs, query head q reading KV head
q // (n_q / n_kv)) and deliberately shares no code with the package, so a
convention drift in the engine shows up as a test failure instead of being
checked against itself.  The helpers that do drive the package
(``engine_fd_gradient``, ``sequence_nll``, ``similarity_construction_trial``)
import it where they are defined and say so.
"""

import numpy as np
from scipy.special import logsumexp

RMS_EPS = 1e-6


def _norm(x, gain):
    return x / np.sqrt(np.mean(x * x, axis=-1, keepdims=True) + RMS_EPS) * gain


def _rotate(vecs, positions, theta, d_head):
    half = d_head // 2
    freqs = theta ** (-2.0 * np.arange(half) / d_head)
    ang = positions[:, None] * freqs[None, :]
    cos, sin = np.cos(ang)[:, None, :], np.sin(ang)[:, None, :]
    out = np.empty_like(vecs)
    out[..., 0::2] = vecs[..., 0::2] * cos - vecs[..., 1::2] * sin
    out[..., 1::2] = vecs[..., 0::2] * sin + vecs[..., 1::2] * cos
    return out


def reference_loss(tensors: dict, cfg: dict, ids) -> float:
    """Float64 teacher-forced mean NLL of the toy decoder, from scratch."""
    ids = np.asarray(ids)
    T = ids.size
    L, nq, nkv = cfg["n_layers"], cfg["n_q_heads"], cfg["n_kv_heads"]
    dh, theta = cfg["d_head"], cfg["rope_theta"]
    ratio = nq // nkv
    positions = np.arange(T)
    causal = positions[None, :] <= positions[:, None]

    x = tensors["embed"][ids].astype(np.float64)
    for l in range(L):
        t = lambda name: tensors[f"layers.{l}.{name}"].astype(np.float64)
        xn = _norm(x, t("attn_gain"))
        q = _rotate((xn @ t("w_q")).reshape(T, nq, dh), positions, theta, dh)
        k = _rotate((xn @ t("w_k")).reshape(T, nkv, dh), positions, theta, dh)
        v = (xn @ t("w_v")).reshape(T, nkv, dh)
        heads = []
        for qh in range(nq):
            s = q[:, qh, :] @ k[:, qh // ratio, :].T / np.sqrt(dh)
            s = np.where(causal, s, -np.inf)
            p = np.exp(s - logsumexp(s, axis=-1, keepdims=True))
            heads.append(p @ v[:, qh // ratio, :])
        x = x + np.concatenate(heads, axis=-1) @ t("w_o")
        xn2 = _norm(x, t("mlp_gain"))
        z = xn2 @ t("w_in")
        x = x + (z / (1.0 + np.exp(-z))) @ t("w_out")
    logits = _norm(x, tensors["final_gain"].astype(np.float64)) @ \
        tensors["lm_head"].astype(np.float64)
    nll = logsumexp(logits[:-1], axis=-1) - logits[np.arange(T - 1), ids[1:]]
    return float(nll.mean())


def reference_causal_softmax(scores, q_positions, k_positions):
    """Float64 softmax over the last axis with keys after each query masked."""
    s = np.where(k_positions[None, :] > q_positions[:, None], -np.inf,
                 scores.astype(np.float64))
    return np.exp(s - logsumexp(s, axis=-1, keepdims=True))


def reference_attention(q, keys, values, w_o):
    """Float64 causal GQA attention, one query head at a time, then ``W_o``.

    ``keys``/``values`` (Tk, n_kv, d_head) sit at positions 0..Tk-1 and the
    queries ``q`` (Tq, n_q, d_head) at the last Tq of them.
    """
    tq, n_q, d_head = q.shape
    tk, n_kv, _ = keys.shape
    positions = np.arange(tk)
    heads = []
    for qh in range(n_q):
        kv = qh // (n_q // n_kv)
        s = q[:, qh].astype(np.float64) @ keys[:, kv].astype(np.float64).T / np.sqrt(d_head)
        p = reference_causal_softmax(s, positions[tk - tq:], positions)
        heads.append(p @ values[:, kv].astype(np.float64))
    return np.concatenate(heads, axis=-1) @ w_o.astype(np.float64)


def reference_latent_attention(q, latents, k_factor, v_factor, w_o, theta):
    """:func:`reference_attention` over keys ``rope(H @ B_k)`` and values
    ``H @ B_v`` restored in float64 from latent rows ``H`` at positions 0..Tk-1."""
    tk, d_head = latents.shape[0], q.shape[2]
    h64 = latents.astype(np.float64)
    keys = _rotate((h64 @ k_factor.astype(np.float64)).reshape(tk, -1, d_head),
                   np.arange(tk), theta, d_head)
    values = (h64 @ v_factor.astype(np.float64)).reshape(tk, -1, d_head)
    return reference_attention(q, keys, values, w_o)


def reference_fd_gradient(tensors: dict, cfg: dict, ids, name: str, index: tuple,
                          step: float = 1e-4) -> float:
    """Central finite difference of :func:`reference_loss` for one entry."""
    bumped = {k: v.astype(np.float64).copy() for k, v in tensors.items()}
    bumped[name][index] += step
    up = reference_loss(bumped, cfg, ids)
    bumped[name][index] -= 2.0 * step
    down = reference_loss(bumped, cfg, ids)
    return (up - down) / (2.0 * step)


def engine_fd_gradient(weights, ids, layer: int, name: str, index: tuple,
                       step: float = 1e-4) -> float:
    """Central finite difference through the engine's own loss.

    Knows nothing about the backward pass: it only re-evaluates the loss at
    perturbed weights.  The perturbation lands on float32 storage, so the
    realized step (not the requested one) goes in the denominator.
    """
    from commonkv.model import loss_and_grads

    arr = getattr(weights.layers[layer], name)
    orig = arr[index].copy()
    arr[index] = np.float32(float(orig) + step)
    realized_up = float(arr[index]) - float(orig)
    up, _ = loss_and_grads(weights, ids)
    arr[index] = np.float32(float(orig) - step)
    realized_down = float(arr[index]) - float(orig)
    down, _ = loss_and_grads(weights, ids)
    arr[index] = orig
    return (up - down) / (realized_up - realized_down)


def singular_values_by_eig(matrix: np.ndarray) -> np.ndarray:
    """Descending singular values via the Gram-matrix eigendecomposition."""
    eigs = np.linalg.eigvalsh(matrix.T.astype(np.float64) @ matrix.astype(np.float64))
    return np.sqrt(np.clip(np.sort(eigs)[::-1], 0.0, None))


def sequence_nll(weights, token_ids) -> float:
    """Teacher-forced mean NLL through the engine's own full-KV forward."""
    from commonkv.errors import InputError
    from commonkv.model import _check_tokens, forward_baseline, nll_from_logits

    ids = _check_tokens(weights.config, token_ids)
    if ids.size < 2:
        raise InputError("need at least 2 tokens to score next-token loss")
    logits, _ = forward_baseline(weights, ids)
    return nll_from_logits(logits[:-1], ids[1:])


def similarity_construction_trial(seed: int, n_layers: int = 4, d_hidden: int = 32,
                                  d_kv: int = 16, tokens: int = 64,
                                  neighbor_cos: float = 0.97) -> tuple[float, float]:
    """Synthetic check that shared-factor latents out-cohere raw keys.

    Hidden states for consecutive layers are built with an exact pairwise
    cosine (orthogonalized noise at fixed relative scale), key projections
    are independent per layer, and the shared factor comes from the
    package's group SVD of the stacked projections.  Returns
    (latent_similarity, key_similarity), each the package's mean
    adjacent-layer token cosine.
    """
    from commonkv.budget import group_score
    from commonkv.factorization import factorize_group

    rng = np.random.default_rng(seed)
    lam = np.sqrt(1.0 / neighbor_cos**2 - 1.0)  # cos(x, x + lam*|x|*n_perp) == neighbor_cos
    xs = [rng.standard_normal((tokens, d_hidden))]
    for _ in range(n_layers - 1):
        x = xs[-1]
        noise = rng.standard_normal((tokens, d_hidden))
        proj = (np.sum(noise * x, axis=1, keepdims=True)
                / np.sum(x * x, axis=1, keepdims=True)) * x
        perp = noise - proj
        perp *= (np.linalg.norm(x, axis=1, keepdims=True)
                 / np.linalg.norm(perp, axis=1, keepdims=True)) * lam
        xs.append(x + perp)
    w_ks = [rng.standard_normal((d_hidden, d_kv)) / np.sqrt(d_hidden)
            for _ in range(n_layers)]
    w_vs = [rng.standard_normal((d_hidden, d_kv)) / np.sqrt(d_hidden)
            for _ in range(n_layers)]
    stacked = np.concatenate([m for pair in zip(w_ks, w_vs) for m in pair], axis=1)
    shared, _ = factorize_group(stacked, rank=max(1, round(0.7 * d_hidden)))

    key_sims, latent_sims = [], []
    for l in range(n_layers - 1):
        key_sims.append(group_score(xs[l] @ w_ks[l], xs[l + 1] @ w_ks[l + 1]))
        latent_sims.append(group_score(xs[l] @ shared, xs[l + 1] @ shared))
    return float(np.mean(latent_sims)), float(np.mean(key_sims))
