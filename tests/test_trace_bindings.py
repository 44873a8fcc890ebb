"""The call pattern the benchmark's outside-in tracer depends on.

``perfbench`` wraps functions at their module bindings and checks per-step
call counts, so a refactor that bypasses a binding, calls ``apply_rope`` a
different number of times, passes ``restore_keys`` its latents and key
factor by keyword, or drops a required set-up span breaks the traced
benchmark.  These tests fail first.
"""

import sys

import numpy as np
import pytest

from commonkv import factorization, latent_cache, model, tensorfile
from commonkv.latent_cache import LatentSession
from commonkv.model import BaselineSession

TRACED = {
    "apply_rope": model, "causal_attention_weights": model, "attention_block": model,
    "mlp_block": model, "compute_latent": latent_cache, "restore_keys": latent_cache,
    "attend_latent": latent_cache,
}
# the benchmark's required set-up spans below transform_model and load_factorized
SETUP_TRACED = {
    "factorize_group": factorization, "fuse_value_output": factorization,
    "serialize": tensorfile, "deserialize": tensorfile,
}


def _record(monkeypatch, traced: dict) -> dict:
    log = {name: [] for name in traced}
    for name, home in traced.items():
        original = getattr(home, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            log[_name].append(args)
            return _original(*args, **kwargs)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("commonkv") and vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, wrapper)
    return log


@pytest.fixture()
def calls(monkeypatch):
    """Record the positional args of every call, at every commonkv binding."""
    return _record(monkeypatch, TRACED)


def _are(expected: list, got: list) -> bool:
    return len(got) == len(expected) and all(a is b for a, b in zip(got, expected))


@pytest.mark.parametrize("mode", ["baseline", "commonkv"])
def test_one_decode_step_call_pattern(fact07, probe_ids, calls, mode):
    weights, fact, _ = fact07
    n_layers = weights.config.n_layers
    prompt = probe_ids[:24]
    if mode == "baseline":
        session = BaselineSession(weights)
        session.prefill(prompt)
    else:
        session = LatentSession(weights, fact)
        session.prefill(prompt)
        assert _are(fact.k_factors, [args[1] for args in calls["restore_keys"]])
        session.plan_and_merge(0.5, strategy="mean")
    for log in calls.values():
        log.clear()

    session.decode(int(probe_ids[24]))

    counts = {name: len(log) for name, log in calls.items()}
    assert counts["apply_rope"] == 2 * n_layers
    assert counts["mlp_block"] == n_layers
    # one batched softmax per layer: every query head in one decode block
    assert counts["causal_attention_weights"] == n_layers
    if mode == "baseline":
        assert counts["attention_block"] == n_layers
        return
    assert counts["attend_latent"] == counts["compute_latent"] == n_layers
    restore = calls["restore_keys"]
    assert _are(fact.k_factors, [args[1] for args in restore])  # positional, layer order
    assert all(isinstance(args[0], np.ndarray) and args[0].shape[0] == len(prompt) + 1
               for args in restore)


def test_commonkv_restores_values_in_prefill_only(fact07, probe_ids, calls):
    # prefill restores values and runs attention_block; a decode step mixes
    # latents instead, with the same key restores and rotations
    weights, fact, _ = fact07
    n_layers = weights.config.n_layers
    session = LatentSession(weights, fact)
    session.prefill(probe_ids[:24])
    assert len(calls["attention_block"]) == n_layers
    session.plan_and_merge(0.5, strategy="mean")
    for log in calls.values():
        log.clear()

    session.decode(int(probe_ids[24]))

    assert len(calls["attention_block"]) == 0
    assert len(calls["restore_keys"]) == n_layers
    assert len(calls["apply_rope"]) == 2 * n_layers


def test_transform_and_load_call_every_setup_span(toy_weights, monkeypatch):
    # each of these is a required span of the traced benchmark's set-up; M_q is
    # fused once per layer although no session reads it
    log = _record(monkeypatch, SETUP_TRACED)
    blob, _ = factorization.transform_model(toy_weights, 4, 0.7)
    factorization.load_factorized(blob)
    assert {name: len(args) for name, args in log.items()} == {
        "factorize_group": 2, "fuse_value_output": toy_weights.config.n_layers,
        "serialize": 1, "deserialize": 1}
