"""The A/B script's per-metric verdict against the benchmark's bounds."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
spec = importlib.util.spec_from_file_location("bench_ab", TOOL)
bench_ab = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_ab)

LOWER = {"name": "decode_ms_p50", "unit": "ms", "better": "lower", "bound": 0.2}
HIGHER = {"name": "tok_s", "unit": "tok/s", "better": "higher", "bound": 0.2}
PARENT = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]


def _scaled(values, factor):
    return [v * factor for v in values]


@pytest.mark.parametrize("case, parent, change, expected", [
    # 10/10 wins and the median moves by far more than the parent's IQR
    ("gain", PARENT, _scaled(PARENT, 0.8), "gain"),
    # the median moves by more than the IQR but only 8/10 pairs win
    ("no_gain_at_8_of_10", PARENT, _scaled(PARENT, 0.9)[:8] + [1.5, 1.5], "flat"),
    ("same_runs", PARENT, list(PARENT), "flat"),
    ("inside_the_bound", PARENT, _scaled(PARENT, 1.1), "flat"),
    ("past_the_bound", PARENT, _scaled(PARENT, 1.3), "worse"),
    # runs spread wider than the bound: within it in the median, yet not judged flat
    ("wide_spread", [1.0, 0.6, 1.4, 0.7, 1.3, 1.0], [1.05, 0.6, 1.5, 0.65, 1.4, 1.0],
     "unresolved"),
])
def test_verdict_for_a_lower_is_better_metric(case, parent, change, expected):
    assert bench_ab.verdict(LOWER, parent, change)[0] == expected


def test_verdict_follows_the_better_direction():
    assert bench_ab.verdict(HIGHER, PARENT, _scaled(PARENT, 1.25)) == ("gain", 10)
    assert bench_ab.verdict(HIGHER, PARENT, _scaled(PARENT, 0.75))[0] == "worse"
    assert bench_ab.verdict(LOWER, PARENT, _scaled(PARENT, 1.25))[0] == "worse"


def test_wide_spread_with_every_change_run_better_is_not_unresolved():
    # the medians differ by less than the parent's IQR (0.55 < 0.6), so no gain
    parent = [1.0, 0.6, 1.4, 0.7, 1.3]
    assert bench_ab.verdict(LOWER, parent, [0.5, 0.3, 0.55, 0.4, 0.45])[0] == "flat"
    assert bench_ab.verdict(LOWER, parent, [0.5, 0.3, 0.65, 0.4, 0.45])[0] == "unresolved"


def test_zero_parent_median():
    assert bench_ab.verdict(LOWER, [0.0] * 5, [0.0] * 5)[0] == "flat"
    assert bench_ab.verdict(LOWER, [0.0] * 5, [0.01] * 5)[0] == "worse"


@pytest.mark.parametrize("factor, code", [(1.0, 0), (1.5, 1)])
def test_main_exits_1_when_a_metric_is_worse(monkeypatch, tmp_path, factor, code):
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]

    def run_once(checkout, workload, seed, seconds):
        # every metric 1.0 on the parent; on the change, decode p50 is scaled
        scale = factor if checkout.name == "change" else 1.0
        return {"attempted": 4, "failed": 0, "correct": True,
                "metrics": {m["name"]: {"value": scale if m["name"] == "commonkv.decode_ms_p50"
                                        else 1.0} for m in declared}}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    assert bench_ab.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "toy-chat", "--seeds", "1-5",
                          "--seconds", "1", "--out", str(out)]) == code
    metrics = json.loads(out.read_text())["metrics"]
    assert metrics["commonkv.decode_ms_p50"]["verdict"] == ("worse" if code else "flat")
    assert {m["verdict"] for name, m in metrics.items()
            if name != "commonkv.decode_ms_p50"} == {"flat"}


def test_main_stops_at_the_first_failed_run(monkeypatch, tmp_path, capsys):
    declared = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]
    calls = []

    def run_once(checkout, workload, seed, seconds):
        # a failed run reports no metrics, as perfbench prints it
        calls.append((checkout.name, seed))
        if checkout.name == "change" and seed == 2:
            return {"attempted": 4, "failed": 1, "correct": False, "metrics": {}}
        return {"attempted": 4, "failed": 0, "correct": True,
                "metrics": {m["name"]: {"value": 1.0} for m in declared}}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    assert bench_ab.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", "toy-chat", "--seeds", "1-5",
                          "--seconds", "1", "--out", str(out)]) == 1
    assert not out.exists()
    # pair 2 runs the change first; nothing runs after the failure
    assert calls == [("parent", 1), ("change", 1), ("change", 2)]
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "change failed on seed 2: 1 of 4 sessions failed; no file written"
