import json
import math
import shutil
import subprocess
import sys

import pytest

from perfbench import harness, metrics
from perfbench.workloads import WORKLOADS

from conftest import micro


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_untraced_run_reports_every_end_to_end_metric(name):
    result, _ = harness.run_benchmark(micro(WORKLOADS[name]), 3, 0.0, False)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 4
    assert list(result["metrics"]) == [n for n, *_ in metrics.END_TO_END]
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_run_reports_every_per_layer_metric(name, tmp_path):
    result, lines = harness.run_benchmark(micro(WORKLOADS[name]), 3, 0.0, True, tmp_path)
    assert result["correct"], lines
    assert list(result["metrics"]) == [n for n, *_ in metrics.per_layer_specs()]
    cfg = micro(WORKLOADS[name]).config
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for mode in metrics.MODES:
        assert values[f"{mode}.model.apply_rope.decode.calls_per_step"] == 2 * cfg.n_layers
    assert 0.0 < values["latent_cache.restore_keys.decode.fresh_row_frac"] < 1.0
    assert list(tmp_path.glob("spans-*.jsonl.gz"))


def test_benchmark_json_matches_the_metric_tables(root):
    bench = json.loads((root / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in bench["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in bench["end_to_end"]] \
        == metrics.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == metrics.per_layer_specs()


def test_run_fails_without_the_program(root, tmp_path):
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "toy-chat",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
