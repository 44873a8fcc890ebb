"""The session-facts tool at perfbench's micro shape."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.append(str(ROOT / "tools"))
import session_facts  # noqa: E402
from commonkv.budget import baseline_elements, merge_count, stored_elements  # noqa: E402
from commonkv.factorization import GroupLayout, clamp_rank  # noqa: E402
from perfbench import workloads  # noqa: E402  (the tool puts the root on sys.path)
from perfbench.tests.conftest import micro  # noqa: E402

PHASES = {"baseline": ["prefill", "decode"], "commonkv": ["prefill", "merge", "decode"]}
LOGITS = [(mode, phase) for mode in PHASES for phase in ("prefill", "decode")]


def main_line(capsys, monkeypatch, *args):
    monkeypatch.setattr(session_facts.workloads, "WORKLOADS",
                        {"toy-chat": micro(workloads.WORKLOADS["toy-chat"])})
    assert session_facts.main(["--workload", "toy-chat", "--seed", "5", *args]) == 0
    (line,) = capsys.readouterr().out.splitlines()
    return json.loads(line, object_hook=lambda fields: {  # bytes move within one process
        k: v for k, v in fields.items() if k not in ("peak_bytes", "live_bytes", "step")})


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_phase_reports_its_peak_and_live_bytes(name):
    workload, G = micro(workloads.WORKLOADS[name]), workloads.GROUP_SIZE
    cfg, P, D = workload.config, workload.prompt_len, workload.decode_len
    out = session_facts.measure(workload, 3)[0]
    assert (out["workload"], out["seed"], {m: list(out[m]) for m in PHASES}) == (name, 3, PHASES)
    assert all(0 < e["live_bytes"] <= e["peak_bytes"] for m in PHASES for e in out[m].values())
    assert all(0 <= out[mode]["decode"]["step"] < D for mode in PHASES)
    # after prefill a full-KV session holds at least its cache's float32 elements
    assert out["baseline"]["prefill"]["live_bytes"] >= 4 * baseline_elements(cfg, P)
    # every audited ratio is its closed form, 0 for baseline
    rank = clamp_rank(workloads.RANK_FRACTION, cfg, G)
    k = merge_count(workload.target_ratio, GroupLayout.for_model(cfg.n_layers, G), rank, cfg)[0]
    assert [e["achieved_ratio"] for m in PHASES for e in out[m].values()] == [0.0, 0.0] + [
        1 - stored_elements(cfg, rank, P, d, merged_count=n, group_size=G)
        / baseline_elements(cfg, P + d) for d, n in ((0, 0), (0, k), (D, k))]


def test_main_prints_one_json_line(capsys, monkeypatch):
    out = main_line(capsys, monkeypatch)
    assert set(out) == {"workload", "seed", "logit_drift", *PHASES}   # and no timing field:
    assert {k for m in PHASES for e in out[m].values() for k in e} == {
        "sha256", "achieved_ratio", "multiply_adds"}


def test_decode_multiply_adds_are_their_closed_forms():
    # summed over the decode steps: a layer attends over keys = sum of P + s
    # rows; decode mixes latents (the mix order) at this shape
    workload, G = micro(workloads.WORKLOADS["toy-chat"]), workloads.GROUP_SIZE
    cfg, P, D = workload.config, workload.prompt_len, workload.decode_len
    L, dh, n_q, d_head = cfg.n_layers, cfg.d_hidden, cfg.n_q_heads, cfg.d_head
    rank, keys = clamp_rank(workloads.RANK_FRACTION, cfg, G), sum(range(P + 1, P + D + 1))
    out = session_facts.measure(workload, 3)[0]
    mlp = L * D * 2 * dh * cfg.d_mlp
    assert out["commonkv"]["decode"]["multiply_adds"] == {
        "restore_keys": L * keys * rank * cfg.d_kv,
        "attend_latent": L * (n_q * keys * (d_head + rank) + D * (n_q * rank * d_head + dh * dh)),
        "attention_block": 0, "compute_latent": L * D * dh * rank, "mlp_block": mlp}
    assert out["baseline"]["decode"]["multiply_adds"] == {
        "restore_keys": 0, "attend_latent": 0, "attention_block": L * (2 * keys * dh + D * dh * dh),
        "compute_latent": 0, "mlp_block": mlp}
    assert all("multiply_adds" not in out[m][phase] for m in PHASES for phase in out[m]
               if phase != "decode")


def test_a_prefill_that_restores_values_counts_them_once(micro_weights):
    # a multi-row call restores values: attend_latent counts H @ B_v only and
    # attention_block, through its binding in latent_cache, the dense rest
    from commonkv import latent_cache
    from commonkv.factorization import load_factorized, transform_model
    weights, fact = load_factorized(transform_model(micro_weights, 2, 1.0)[0])
    cfg, P = weights.config, 12
    originals = (latent_cache.attend_latent, latent_cache.attention_block)
    with session_facts.counting_multiply_adds(dict.fromkeys(session_facts.MULTIPLY_ADDS, 0)) \
            as counts:
        assert latent_cache.attend_latent is not originals[0]
        latent_cache.LatentSession(weights, fact).prefill(np.arange(P))
    assert (latent_cache.attend_latent, latent_cache.attention_block) == originals
    L, dh, rank = cfg.n_layers, cfg.d_hidden, fact.rank
    assert counts == {"restore_keys": L * P * rank * cfg.d_kv,
                      "attend_latent": L * P * rank * cfg.d_kv,
                      "attention_block": L * (2 * P * P * dh + P * dh * dh),
                      "compute_latent": L * P * dh * rank, "mlp_block": L * P * 2 * dh * cfg.d_mlp}


def test_main_prints_one_json_line_with_the_same_digests_on_two_runs(capsys, monkeypatch):
    out = main_line(capsys, monkeypatch)
    assert main_line(capsys, monkeypatch) == out
    assert (out["workload"], out["seed"]) == ("toy-chat", 5)
    digests = [out[mode][phase]["sha256"] for mode, phase in LOGITS]
    assert all(len(d) == 64 and int(d, 16) >= 0 for d in digests)
    assert digests[:2] != digests[2:]   # the two modes compute different logits


def test_a_run_against_its_own_saved_logits_reads_zero(capsys, monkeypatch, tmp_path):
    saved = tmp_path / "logits.npz"
    first = main_line(capsys, monkeypatch, "--save", str(saved))
    out = main_line(capsys, monkeypatch, "--against", str(saved))
    assert [out[mode][phase].pop("max_abs_diff") for mode, phase in LOGITS] == [0.0] * 4
    assert out == first
    # its drift is perfbench's, recomputed from the saved logits
    with np.load(saved) as npz:
        base, comp = (np.concatenate([npz[f"{m}.prefill"][-1:], npz[f"{m}.decode"]])
                      .astype(np.float64) for m in PHASES)
    assert out["logit_drift"] == np.sqrt(np.sum((comp - base) ** 2) / np.sum(base ** 2)) > 0
    with pytest.raises(SystemExit) as exit_info:
        session_facts.main(["--workload", "toy-chat", "--seed", "6", "--against", str(saved)])
    # logits of another seed are not a reference for this run
    assert exit_info.value.code == 2 and "another workload or seed" in capsys.readouterr().err


def test_runs_print_the_same_bytes_for_the_commonkv_on_their_pythonpath(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    model = tmp_path / "src" / "commonkv" / "model.py"
    model.write_text(model.read_text().replace("\nRMS_EPS = 1e-6\n", "\nRMS_EPS = 1e-2\n"))
    plain, again, edited = (subprocess.run(
        [sys.executable, ROOT / "tools" / "session_facts.py", "--workload", "toy-chat", "--seed",
         "5"], env={**os.environ, "PYTHONPATH": str(src)}, cwd=tmp_path, capture_output=True,
        check=True).stdout for src in (ROOT / "src", ROOT / "src", tmp_path / "src"))
    assert again == plain
    # the tool measures the edited copy on PYTHONPATH, not its own checkout's src
    plain, edited = json.loads(plain), json.loads(edited)
    assert all(edited[m][p]["sha256"] != plain[m][p]["sha256"] for m, p in LOGITS)
