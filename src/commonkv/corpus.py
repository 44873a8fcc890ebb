"""Deterministic synthetic byte corpora for probing and calibration.

Generator: a seeded first-order Markov chain over the 256 byte states.
Each state gets 8 candidate successors with Dirichlet-ish random weights,
all drawn from one ``numpy`` PCG64 stream, so (seed, n, length) fully
determines every sequence on every platform.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InputError

N_SUCCESSORS = 8


def markov_byte_corpus(seed: int, n_sequences: int, seq_len: int) -> list[np.ndarray]:
    """Generate ``n_sequences`` byte sequences of ``seq_len`` tokens each."""
    if n_sequences < 1 or seq_len < 2:
        raise InputError("need at least one sequence of at least 2 tokens")
    rng = np.random.default_rng(seed)
    successors = rng.integers(0, 256, size=(256, N_SUCCESSORS))
    weights = rng.random((256, N_SUCCESSORS)) + 1e-3
    cdf = np.cumsum(weights / weights.sum(axis=1, keepdims=True), axis=1)
    sequences = []
    for _ in range(n_sequences):
        seq = np.empty(seq_len, dtype=np.int64)
        state = int(rng.integers(0, 256))
        seq[0] = state
        draws = rng.random(seq_len - 1)
        for t in range(1, seq_len):
            choice = int(np.count_nonzero(cdf[state] < draws[t - 1]))  # first cdf >= draw
            state = int(successors[state, min(choice, N_SUCCESSORS - 1)])
            seq[t] = state
        sequences.append(seq)
    return sequences


def load_byte_file(path: str | Path, max_tokens: int | None = None) -> np.ndarray:
    """Read a file as raw byte token ids."""
    data = Path(path).read_bytes()
    if max_tokens is not None:
        data = data[:max_tokens]
    if len(data) < 2:
        raise InputError(f"corpus file {path} holds fewer than 2 bytes")
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)
