"""Workload definitions and seeded input generation.

Every input a run feeds the program derives from the ``--seed`` argument:
the model seed, the calibration corpus and one teacher-forced token stream
per session.  The program only ever receives the generated token ids.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from commonkv.model import ModelConfig

GROUP_SIZE = 4
RANK_FRACTION = 0.7

WIDE = ModelConfig(n_layers=8, d_hidden=256, n_q_heads=8, n_kv_heads=2, d_head=32,
                   d_mlp=512, max_seq=1024)
TOY = ModelConfig()

# Fisher calibration corpus: small, so set-up stays a few hundred ms at the
# wide shape while still running the float64 gradient pass over every layer.
CALIBRATION_SEQUENCES = 4
CALIBRATION_LEN = 64

# Each byte state has this many possible successors, so streams repeat
# short patterns the way text does instead of being uniform noise.
N_SUCCESSORS = 8


@dataclass(frozen=True)
class Workload:
    name: str
    config: ModelConfig
    prompt_len: int
    decode_len: int
    target_ratio: float
    strategy: str          # merge strategy passed to plan_and_merge
    probe_nominal_s: float  # reference-step time that defines nominal host speed
    why: str

    @property
    def probe_history(self) -> int:
        """History length of the host-speed reference step: mid-session."""
        return self.prompt_len + self.decode_len // 2

    @property
    def stream_len(self) -> int:
        # one token past the last decode input, the target of the last step
        return self.prompt_len + self.decode_len + 1


WORKLOADS = {w.name: w for w in (
    Workload("wide-decode", WIDE, 256, 512, 0.5, "mean", 3.0e-3,
             "long teacher-forced decode (256 to 768 tokens), so per-step work over the "
             "whole history (key restore, cache appends) dominates"),
    Workload("wide-prefill", WIDE, 960, 32, 0.5, "fisher", 3.5e-3,
             "960-token prompt with Fisher merge, so prefill, scoring, merging and "
             "calibration set-up dominate and decode barely shows"),
    Workload("toy-chat", TOY, 96, 32, 0.5, "mean", 0.9e-3,
             "many short sessions at the toy shape with one of two groups merged, so "
             "fixed per-call and per-session costs dominate"),
)}


@dataclass(frozen=True)
class Seeds:
    model: int
    corpus: int
    streams: int


def derive_seeds(seed: int) -> Seeds:
    model, corpus, streams = np.random.default_rng(seed).integers(0, 2**31 - 1, size=3)
    return Seeds(model=int(model), corpus=int(corpus), streams=int(streams))


def _markov_stream(rng: np.random.Generator, successors: np.ndarray,
                   length: int) -> np.ndarray:
    choices = rng.integers(0, N_SUCCESSORS, size=length)
    out = np.empty(length, dtype=np.int64)
    state = int(rng.integers(0, 256))
    for t in range(length):
        out[t] = state
        state = int(successors[state, choices[t]])
    return out


def _successors(seed: int) -> np.ndarray:
    return np.random.default_rng([seed, 0]).integers(0, 256, size=(256, N_SUCCESSORS))


def token_stream(seed: int, index: int, length: int) -> np.ndarray:
    """Token ids of session ``index``: a pure function of its arguments."""
    rng = np.random.default_rng([seed, 1, index])
    return _markov_stream(rng, _successors(seed), length)


def calibration_corpus(seed: int) -> list[np.ndarray]:
    rng = np.random.default_rng([seed, 2])
    succ = _successors(seed)
    return [_markov_stream(rng, succ, CALIBRATION_LEN) for _ in range(CALIBRATION_SEQUENCES)]
