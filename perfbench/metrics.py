"""Names, units and directions of every metric the benchmark reports.

``BENCHMARK.json`` at the repository root lists the same metrics; a test
keeps the two in step.  Per-layer metrics are built from a span trace (see
``spans.aggregate``) plus counters computed from tensor sizes.
"""

from __future__ import annotations

MODES = ("baseline", "commonkv")

# (name, unit, better, bound): bound is the share of the parent's median a
# metric may worsen by before a change counts as a regression
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("baseline.ttft_ms", "ms", "lower", 0.2),
    ("commonkv.ttft_ms", "ms", "lower", 0.2),
    ("baseline.decode_ms_p50", "ms", "lower", 0.2),
    ("baseline.decode_ms_p90", "ms", "lower", 0.25),
    ("commonkv.decode_ms_p50", "ms", "lower", 0.2),
    ("commonkv.decode_ms_p90", "ms", "lower", 0.25),
    ("baseline.tok_s", "tok/s", "higher", 0.2),
    ("commonkv.tok_s", "tok/s", "higher", 0.2),
    ("baseline.cache_bytes_per_token", "B/tok", "lower", 0.05),
    ("commonkv.cache_bytes_per_token", "B/tok", "lower", 0.05),
    ("baseline.peak_alloc_mb", "MB", "lower", 0.05),
    ("commonkv.peak_alloc_mb", "MB", "lower", 0.05),
    ("commonkv.achieved_ratio", "frac", "higher", 0.05),
    ("commonkv.logit_drift", "frac", "lower", 0.25),
]

_BOTH = MODES
_BASE = ("baseline",)
_CKV = ("commonkv",)
_SETUP = (None,)

# (span, modes, phases): self time per decode step, or per session / set-up
SELF_TIMES = [
    ("model.rms_norm", _BOTH, ("decode",)),
    ("model.apply_rope", _BOTH, ("decode",)),
    ("model.causal_attention_weights", _BOTH, ("prefill", "decode")),
    ("model.mlp_block", _BOTH, ("prefill", "decode")),
    ("model.attention_block", _BASE, ("prefill", "decode")),
    ("model.forward_baseline", _BASE, ("decode",)),
    ("latent_cache.compute_latent", _CKV, ("prefill", "decode")),
    ("latent_cache.restore_keys", _CKV, ("prefill", "decode")),
    ("latent_cache.attend_latent", _CKV, ("prefill", "decode")),
    ("latent_cache.store", _CKV, ("decode",)),
    ("latent_cache.session", _CKV, ("decode",)),
    ("budget.group_score", _CKV, ("merge",)),
    ("budget.allocate_budget", _CKV, ("merge",)),
    ("budget.merge_group", _CKV, ("merge",)),
    ("factorization.factorize_group", _SETUP, ("setup",)),
    ("factorization.fuse_value_output", _SETUP, ("setup",)),
    ("factorization.transform_model", _SETUP, ("setup",)),
    ("factorization.load_factorized", _SETUP, ("setup",)),
    ("tensorfile.serialize", _SETUP, ("setup",)),
    ("tensorfile.deserialize", _SETUP, ("setup",)),
]

# (metric, mode, phase, span, per): inclusive time per set-up or per call
INCLUSIVE_TIMES = [
    ("model.loss_and_grads.setup.ms", None, "setup", "model.loss_and_grads", "setup"),
    ("budget.estimate_fisher.setup.ms", None, "setup", "budget.estimate_fisher", "setup"),
    ("latent_cache.audit.ms", "commonkv", "check", "latent_cache.audit", "call"),
]

# counters computed from tensor sizes, not measured
COUNTS = [
    ("baseline.model.apply_rope.decode.calls_per_step", "count", "lower"),
    ("commonkv.model.apply_rope.decode.calls_per_step", "count", "lower"),
    ("model.kv_cache.decode.bytes_copied_per_step", "B", "lower"),
    ("latent_cache.restore_keys.decode.rows_per_step", "count", "lower"),
    ("latent_cache.restore_keys.decode.fresh_row_frac", "frac", "higher"),
    ("latent_cache.store.decode.bytes_copied_per_step", "B", "lower"),
    ("budget.merged_groups", "count", "higher"),
    ("tensorfile.container_bytes", "B", "lower"),
    ("trace.overhead.commonkv.decode_ms_p50", "ms", "lower"),
]


def self_time_name(span: str, modes: tuple, mode: str | None, phase: str) -> str:
    # a mode prefix only where the function runs in both modes
    prefix = f"{mode}." if len(modes) > 1 else ""
    stat = "self_ms_per_step" if phase == "decode" else "self_ms"
    return f"{prefix}{span}.{phase}.{stat}"


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for span, modes, phases in SELF_TIMES:
        for mode in modes:
            for phase in phases:
                out.append((self_time_name(span, modes, mode, phase), "ms", "lower"))
    out += [(name, "ms", "lower") for name, *_ in INCLUSIVE_TIMES]
    out += COUNTS
    return out


def per_layer_values(agg: dict, counts: dict, norms: dict, extras: dict) -> dict[str, float]:
    """Per-layer metric values from a span aggregate and counters.

    ``norms`` holds ``steps`` and ``sessions`` (per mode) and ``setups``;
    ``extras`` holds the values measured outside the trace.
    """
    def entry(mode, phase, span):
        return agg.get((mode, phase, span), {"self": 0.0, "total": 0.0, "calls": 0})

    def per(mode, phase):
        if phase == "decode":
            return norms["steps"][mode]
        if phase == "setup":
            return norms["setups"]
        return norms["sessions"][mode]

    out = {}
    for span, modes, phases in SELF_TIMES:
        for mode in modes:
            for phase in phases:
                out[self_time_name(span, modes, mode, phase)] = \
                    entry(mode, phase, span)["self"] * 1e3 / per(mode, phase)
    for name, mode, phase, span, per_what in INCLUSIVE_TIMES:
        e = entry(mode, phase, span)
        count = norms["setups"] if per_what == "setup" else max(e["calls"], 1)
        out[name] = e["total"] * 1e3 / count
    for mode in MODES:
        out[f"{mode}.model.apply_rope.decode.calls_per_step"] = \
            entry(mode, "decode", "model.apply_rope")["calls"] / norms["steps"][mode]
    steps_b, steps_c = norms["steps"]["baseline"], norms["steps"]["commonkv"]
    rows = counts.get(("commonkv", "decode", "restore_rows"), 0.0)
    out["model.kv_cache.decode.bytes_copied_per_step"] = \
        counts.get(("baseline", "decode", "bytes_copied"), 0.0) / steps_b
    out["latent_cache.restore_keys.decode.rows_per_step"] = rows / steps_c
    out["latent_cache.restore_keys.decode.fresh_row_frac"] = \
        counts.get(("commonkv", "decode", "restore_fresh"), 0.0) / max(rows, 1.0)
    out["latent_cache.store.decode.bytes_copied_per_step"] = \
        counts.get(("commonkv", "decode", "bytes_copied"), 0.0) / steps_c
    out.update(extras)
    return out
