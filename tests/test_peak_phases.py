"""The per-phase peak script at perfbench's micro shape."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("peak_phases", ROOT / "tools" / "peak_phases.py")
peak_phases = importlib.util.module_from_spec(spec)
spec.loader.exec_module(peak_phases)

from commonkv.budget import baseline_elements  # noqa: E402
from perfbench import workloads  # noqa: E402  (the script puts the root on sys.path)
from perfbench.tests.conftest import micro  # noqa: E402

PHASES = {"baseline": ["prefill", "decode"], "commonkv": ["prefill", "merge", "decode"]}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_phase_reports_its_peak_and_live_bytes(name):
    workload = micro(workloads.WORKLOADS[name])
    out = peak_phases.measure(workload, 3)
    assert (out["workload"], out["seed"]) == (name, 3)
    for mode, phases in PHASES.items():
        assert list(out[mode]) == phases
        for phase in out[mode].values():
            assert 0 < phase["live_bytes"] <= phase["peak_bytes"]
        assert 0 <= out[mode]["decode"]["step"] < workload.decode_len
    # after prefill a full-KV session holds at least its cache's float32 elements
    assert out["baseline"]["prefill"]["live_bytes"] >= 4 * baseline_elements(
        workload.config, workload.prompt_len)


def test_main_prints_one_json_line(capsys, monkeypatch):
    monkeypatch.setattr(peak_phases.workloads, "WORKLOADS",
                        {"toy-chat": micro(workloads.WORKLOADS["toy-chat"])})
    assert peak_phases.main(["--workload", "toy-chat", "--seed", "5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"workload", "seed", "baseline", "commonkv"}
