"""The logit digest script at perfbench's micro shape."""

import importlib.util
import json
from pathlib import Path

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
