"""Independent reference implementations used as test oracles.

Everything here is written against the documented conventions only (row-vector
hidden states, interleaved rotation pairs, query head q reading KV head
q // (n_q / n_kv)) and deliberately shares no code with the package, so a
convention drift in the engine shows up as a test failure instead of being
checked against itself.
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
