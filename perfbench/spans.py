"""Outside-in span tracing of the program's public functions.

``Tracer.installed()`` replaces each traced function at every binding of it
inside the ``commonkv`` package (a function imported into two modules is
wrapped in both), and each traced method on its class, then restores the
originals on exit.  Spans are kept in memory as
``[name, start, end, parent, session, phase, mode]`` lists and written out
once when the run ends.  Nothing is recorded while ``phase`` is ``None``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module, function); every binding of the function is wrapped
SPAN_FUNCTIONS = {
    "model.rms_norm": ("commonkv.model", "rms_norm"),
    "model.apply_rope": ("commonkv.model", "apply_rope"),
    "model.causal_attention_weights": ("commonkv.model", "causal_attention_weights"),
    "model.mlp_block": ("commonkv.model", "mlp_block"),
    "model.attention_block": ("commonkv.model", "attention_block"),
    "model.forward_baseline": ("commonkv.model", "forward_baseline"),
    "model.loss_and_grads": ("commonkv.model", "loss_and_grads"),
    "latent_cache.compute_latent": ("commonkv.latent_cache", "compute_latent"),
    "latent_cache.restore_keys": ("commonkv.latent_cache", "restore_keys"),
    "latent_cache.attend_latent": ("commonkv.latent_cache", "attend_latent"),
    "budget.group_score": ("commonkv.budget", "group_score"),
    "budget.allocate_budget": ("commonkv.budget", "allocate_budget"),
    "budget.merge_group": ("commonkv.budget", "merge_group"),
    "budget.estimate_fisher": ("commonkv.budget", "estimate_fisher"),
    "factorization.factorize_group": ("commonkv.factorization", "factorize_group"),
    "factorization.fuse_value_output": ("commonkv.factorization", "fuse_value_output"),
    "factorization.transform_model": ("commonkv.factorization", "transform_model"),
    "factorization.load_factorized": ("commonkv.factorization", "load_factorized"),
    "tensorfile.serialize": ("commonkv.tensorfile", "serialize"),
    "tensorfile.deserialize": ("commonkv.tensorfile", "deserialize"),
}

# span name -> (module, class, methods); the class attribute is replaced
SPAN_METHODS = {
    "model.session": ("commonkv.model", "BaselineSession", ("prefill", "decode")),
    "latent_cache.session": ("commonkv.latent_cache", "LatentSession",
                             ("prefill", "plan_and_merge", "decode")),
    "latent_cache.audit": ("commonkv.latent_cache", "LatentSession", ("audit",)),
    "latent_cache.store": ("commonkv.latent_cache", "LatentCacheStore",
                           ("append_prefill", "append_decode", "visible_latents",
                            "prefix_for_layer", "merge_group", "verify_merged_prefixes",
                            "audit")),
}

NAME, START, END, PARENT, SESSION, PHASE, MODE = range(7)


def _bindings(original):
    """Every (module, attribute) in the commonkv package bound to ``original``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "commonkv" or modname.startswith("commonkv.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                yield mod, attr


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self.parent = -1
        self.phase: str | None = None
        self.mode: str | None = None
        self.session = -1
        self.counts: dict[tuple, float] = defaultdict(float)
        self._restored: dict[int, int] = {}

    def begin_session(self, session: int, mode: str | None) -> None:
        self.session = session
        self.mode = mode
        self._restored = {}

    def count(self, phase: str, counter: str, value: float) -> None:
        self.counts[(self.mode, phase, counter)] += value

    def _count_restore(self, args) -> None:
        # rows are positions 0..n-1 of one layer's history; a row is fresh
        # the first time that layer (keyed by its k_factor) restores it
        latents, k_factor = args[0], args[1]
        rows = int(latents.shape[0])
        seen = self._restored.get(id(k_factor), 0)
        self.count(self.phase, "restore_rows", rows)
        self.count(self.phase, "restore_fresh", max(0, rows - seen))
        self._restored[id(k_factor)] = max(seen, rows)

    def _wrap(self, fn, name: str, on_call=None):
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.phase is None:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(args)
            rec = [name, clock(), 0.0, self.parent, self.session, self.phase, self.mode]
            saved = self.parent
            self.parent = len(spans)
            spans.append(rec)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[END] = clock()
                self.parent = saved

        return traced

    @contextmanager
    def installed(self):
        """Wrap every traced function and method; restore them on exit."""
        undo = []
        try:
            for name, (modname, attr) in SPAN_FUNCTIONS.items():
                original = getattr(importlib.import_module(modname), attr)
                hook = self._count_restore if name == "latent_cache.restore_keys" else None
                wrapped = self._wrap(original, name, hook)
                for mod, bound in list(_bindings(original)):
                    undo.append((mod, bound, original))
                    setattr(mod, bound, wrapped)
            for name, (modname, cls, methods) in SPAN_METHODS.items():
                klass = getattr(importlib.import_module(modname), cls)
                for method in methods:
                    original = klass.__dict__[method]
                    undo.append((klass, method, original))
                    setattr(klass, method, self._wrap(original, name))
            yield self
        finally:
            for target, attr, original in reversed(undo):
                setattr(target, attr, original)

    def write(self, path) -> None:
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def aggregate(spans, scale: dict[int, float] | None = None) -> dict:
    """Per (mode, phase, name): summed self time, inclusive time and calls, in s.

    ``(mode, phase, "<root>")`` holds the summed duration of the phase's root
    spans, the traced wall time of that phase.  ``scale`` maps a session id
    to a factor its spans' times are multiplied by (1 when absent).
    """
    scale = scale or {}
    agg: dict[tuple, dict] = defaultdict(lambda: {"self": 0.0, "total": 0.0, "calls": 0})
    for rec, own in zip(spans, self_times(spans)):
        factor = scale.get(rec[SESSION], 1.0)
        duration = (rec[END] - rec[START]) * factor
        entry = agg[(rec[MODE], rec[PHASE], rec[NAME])]
        entry["self"] += own * factor
        entry["total"] += duration
        entry["calls"] += 1
        if rec[PARENT] < 0:
            agg[(rec[MODE], rec[PHASE], "<root>")]["total"] += duration
    return dict(agg)
