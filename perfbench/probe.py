"""Host-speed probe: a fixed numpy job timed next to every session.

The shared host this benchmark was built on changes speed by 20-50% within
seconds, in CPU time as much as in wall time.  Each session and
set-up is therefore bracketed by probes, and its times are scaled by
``nominal / median(nearby probe times)``: times are reported at the
nominal host speed.  The probe is the benchmark's own code, so a change to
the program never changes it.  It is one full-KV decode step written
directly in numpy at the workload's shape and a mid-session history, so it
leans on compute, caches and memory in the same mix as the sessions do.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

# a session's scale is the median of every probe started within this many
# seconds of it, so short sessions share probes with their neighbours
WINDOW_S = 0.25


class ReferenceStep:
    """Fixed random weights and history for one decode step at a given shape."""

    def __init__(self, config, history: int):
        rng = np.random.default_rng(0)
        c = config

        def mat(rows, cols):
            return (rng.standard_normal((rows, cols)) / np.sqrt(rows)).astype(np.float32)

        self.config = c
        self.layers = [{name: mat(*shape) for name, shape in (
            ("q", (c.d_hidden, c.d_hidden)), ("k", (c.d_hidden, c.d_kv)),
            ("v", (c.d_hidden, c.d_kv)), ("o", (c.d_hidden, c.d_hidden)),
            ("in", (c.d_hidden, c.d_mlp)), ("out", (c.d_mlp, c.d_hidden)))}
            for _ in range(c.n_layers)]
        shape = (history, c.n_kv_heads, c.d_head)
        self.keys = [rng.standard_normal(shape).astype(np.float32) for _ in range(c.n_layers)]
        self.values = [rng.standard_normal(shape).astype(np.float32) for _ in range(c.n_layers)]
        self.x = rng.standard_normal((1, c.d_hidden)).astype(np.float32)

    def __call__(self) -> float:
        """Seconds one step takes now."""
        c = self.config
        start = time.perf_counter()
        x = self.x
        for w, keys, values in zip(self.layers, self.keys, self.values):
            x64 = x.astype(np.float64)
            xn = (x64 / np.sqrt(np.mean(x64 * x64) + 1e-6)).astype(np.float32)
            q = (xn @ w["q"]).reshape(c.n_q_heads, c.d_head)
            k = np.concatenate([keys, (xn @ w["k"]).reshape(1, c.n_kv_heads, c.d_head)])
            v = np.concatenate([values, (xn @ w["v"]).reshape(1, c.n_kv_heads, c.d_head)])
            out = np.empty((c.n_q_heads, c.d_head), dtype=np.float32)
            for head in range(c.n_q_heads):
                kv = head // c.heads_per_kv
                scores = (q[head] @ k[:, kv, :].T).astype(np.float64)
                scores -= scores.max()
                probs = np.exp(scores)
                probs /= probs.sum()
                out[head] = probs.astype(np.float32) @ v[:, kv, :]
            x = x + out.reshape(1, -1) @ w["o"]
            z = (xn @ w["in"]).astype(np.float64)
            x = x + (z / (1.0 + np.exp(-z))).astype(np.float32) @ w["out"]
        return time.perf_counter() - start


class ProbeLog:
    """Probe times of one run with when each started, for windowed medians."""

    def __init__(self, probe, nominal_s: float):
        self.probe = probe
        self.nominal_s = nominal_s
        self.starts: list[float] = []
        self.seconds: list[float] = []

    def record(self) -> None:
        self.starts.append(time.perf_counter())
        self.seconds.append(self.probe())

    def factor(self, start: float, end: float) -> float:
        """Scale to nominal speed from the probes within ``WINDOW_S`` of [start, end]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, end + WINDOW_S)
        return self.nominal_s / statistics.median(self.seconds[lo:hi])
