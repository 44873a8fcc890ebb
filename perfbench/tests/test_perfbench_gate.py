from commonkv.latent_cache import LatentSession

from perfbench import harness
from perfbench.workloads import WORKLOADS, derive_seeds, token_stream

from conftest import micro


def _tamper_before_decode(monkeypatch):
    original = LatentSession.decode

    def tampering(self, token_id):
        for group in self.store.groups:
            if group.merged:
                group.shared_prefix[0, 0] += 1.0
        return original(self, token_id)

    monkeypatch.setattr(LatentSession, "decode", tampering)


def test_tampered_merged_prefix_fails_the_session(monkeypatch):
    wl = micro(WORKLOADS["toy-chat"])
    setup = harness.set_up(wl, derive_seeds(1), calibrate=False)
    stream = token_stream(1, 0, wl.stream_len)
    ok, _ = harness.run_session("commonkv", setup, wl, stream)
    assert ok.error is None
    _tamper_before_decode(monkeypatch)
    res, _ = harness.run_session("commonkv", setup, wl, stream)
    assert res.error is not None and "mutated" in res.error


def test_failed_sessions_make_the_run_incorrect(monkeypatch):
    _tamper_before_decode(monkeypatch)
    result, lines = harness.run_benchmark(micro(WORKLOADS["toy-chat"]), 1, 0.0, False)
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert result["metrics"] == {}
    assert any(line.startswith("FAILED") for line in lines)
