"""The logit digest script at perfbench's micro shape."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("logit_digest", ROOT / "tools" / "logit_digest.py")
logit_digest = importlib.util.module_from_spec(spec)
spec.loader.exec_module(logit_digest)

from perfbench import workloads  # noqa: E402  (the script puts the root on sys.path)
from perfbench.tests.conftest import micro  # noqa: E402


def test_main_prints_one_json_line_with_the_same_digests_on_two_runs(capsys, monkeypatch):
    monkeypatch.setattr(logit_digest.workloads, "WORKLOADS",
                        {"toy-chat": micro(workloads.WORKLOADS["toy-chat"])})
    runs = []
    for _ in range(2):
        assert logit_digest.main(["--workload", "toy-chat", "--seed", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1
        runs.append(lines[0])
    assert runs[0] == runs[1]
    out = json.loads(runs[0])
    assert (out["workload"], out["seed"]) == ("toy-chat", 5)
    for mode in ("baseline", "commonkv"):
        assert set(out[mode]) == {"prefill", "decode"}
        assert all(len(d) == 64 and int(d, 16) >= 0 for d in out[mode].values())
    # the two modes compute different logits
    assert out["baseline"] != out["commonkv"]


def test_a_run_against_its_own_saved_logits_reads_zero(capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(logit_digest.workloads, "WORKLOADS",
                        {"toy-chat": micro(workloads.WORKLOADS["toy-chat"])})
    saved = tmp_path / "logits.npz"
    assert logit_digest.main(["--workload", "toy-chat", "--seed", "5", "--save", str(saved)]) == 0
    first = json.loads(capsys.readouterr().out)
    assert "max_abs_diff" not in first
    assert logit_digest.main(["--workload", "toy-chat", "--seed", "5",
                              "--against", str(saved)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out.pop("max_abs_diff") == {mode: {"prefill": 0.0, "decode": 0.0}
                                       for mode in ("baseline", "commonkv")}
    assert out == first
    # logits of another seed are not a reference for this run
    with pytest.raises(SystemExit) as exit_info:
        logit_digest.main(["--workload", "toy-chat", "--seed", "6", "--against", str(saved)])
    assert exit_info.value.code == 2
    assert "another workload or seed" in capsys.readouterr().err
