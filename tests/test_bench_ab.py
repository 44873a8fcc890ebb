"""The A/B script's per-metric verdict against the benchmark's bounds, and the
trajectory file it appends to."""

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


DECLARED = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["end_to_end"]


def _scaled_runs(factor):
    def run_once(checkout, workload, seed, seconds):
        # every metric 1.0 on the parent; on the change, decode p50 is scaled
        scale = factor if checkout.name == "change" else 1.0
        return {"attempted": 4, "failed": 0, "correct": True,
                "metrics": {m["name"]: {"value": scale if m["name"] == "commonkv.decode_ms_p50"
                                        else 1.0} for m in DECLARED}}
    return run_once


def _main(tmp_path, out, workload="toy-chat", seeds="1-5"):
    return bench_ab.main(["--parent", str(tmp_path / "parent"), "--change",
                          str(tmp_path / "change"), "--workload", workload, "--seeds", seeds,
                          "--seconds", "1", "--out", str(out)])


@pytest.mark.parametrize("factor, code", [(1.0, 0), (1.5, 1)])
def test_main_exits_1_when_a_metric_is_worse(monkeypatch, tmp_path, factor, code):
    monkeypatch.setattr(bench_ab, "run_once", _scaled_runs(factor))
    out = tmp_path / "ab.json"
    assert _main(tmp_path, out) == code
    metrics = json.loads(out.read_text())["entries"][-1]["metrics"]
    assert metrics["commonkv.decode_ms_p50"]["verdict"] == ("worse" if code else "flat")
    assert {m["verdict"] for name, m in metrics.items()
            if name != "commonkv.decode_ms_p50"} == {"flat"}


def test_main_stops_at_the_first_failed_run(monkeypatch, tmp_path, capsys):
    calls = []

    def run_once(checkout, workload, seed, seconds):
        # a failed run reports no metrics, as perfbench prints it
        calls.append((checkout.name, seed))
        if checkout.name == "change" and seed == 2:
            return {"attempted": 4, "failed": 1, "correct": False, "metrics": {}}
        return {"attempted": 4, "failed": 0, "correct": True,
                "metrics": {m["name"]: {"value": 1.0} for m in DECLARED}}

    monkeypatch.setattr(bench_ab, "run_once", run_once)
    out = tmp_path / "ab.json"
    assert _main(tmp_path, out) == 1
    assert not out.exists()
    # pair 2 runs the change first; nothing runs after the failure
    assert calls == [("parent", 1), ("change", 1), ("change", 2)]
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last == "change failed on seed 2: 1 of 4 sessions failed; no file written"


def test_main_appends_one_entry_per_ab(monkeypatch, tmp_path):
    out = tmp_path / "ab.json"
    monkeypatch.setattr(bench_ab, "run_once", _scaled_runs(1.0))
    assert _main(tmp_path, out, seeds="1-3") == 0
    first = json.loads(out.read_text())
    monkeypatch.setattr(bench_ab, "run_once", _scaled_runs(0.5))
    assert _main(tmp_path, out, seeds="4-8") == 0
    trajectory = json.loads(out.read_text())
    assert trajectory["workload"] == "toy-chat"
    # the first entry is kept as written; the second follows it
    assert trajectory["entries"][0] == first["entries"][0]
    assert [e["seeds"] for e in trajectory["entries"]] == [[1, 2, 3], [4, 5, 6, 7, 8]]
    assert trajectory["entries"][1]["metrics"]["commonkv.decode_ms_p50"]["verdict"] == "gain"


@pytest.mark.parametrize("held", [
    {"workload": "wide-decode", "entries": []},      # another workload's trajectory
    {"workload": "toy-chat", "pairs": 5, "metrics": {}},   # a single-A/B report
], ids=["other_workload", "single_report"])
def test_main_refuses_a_file_it_cannot_append_to(monkeypatch, tmp_path, capsys, held):
    out = tmp_path / "ab.json"
    out.write_text(json.dumps(held))
    calls = []
    monkeypatch.setattr(bench_ab, "run_once", lambda *args: calls.append(args))
    assert _main(tmp_path, out) == 1
    assert calls == [] and json.loads(out.read_text()) == held
    assert "nothing run" in capsys.readouterr().err


@pytest.mark.parametrize("path", sorted(TOOL.parent.parent.glob("BENCH_*.json")),
                         ids=lambda p: p.name)
def test_committed_bench_files_are_trajectories(path):
    trajectory = json.loads(path.read_text())
    workload = path.stem.removeprefix("BENCH_")
    assert trajectory["workload"] == workload and trajectory["entries"]
    for entry in trajectory["entries"]:
        assert entry["workload"] == workload and entry["pairs"] == len(entry["seeds"])
        assert {"setup_s", "commonkv.decode_ms_p50"} <= set(entry["metrics"])
