import json

import numpy as np
import pytest

from commonkv import tensorfile
from commonkv.cli import main
from commonkv.evaluation import CSV_COLUMNS


@pytest.fixture()
def workdir(tmp_path):
    model = tmp_path / "model.tnsr"
    assert main(["gen-toy", "--out", str(model), "--seed", "42"]) == 0
    return tmp_path


def test_gen_toy_deterministic(tmp_path):
    a, b = tmp_path / "a.tnsr", tmp_path / "b.tnsr"
    assert main(["gen-toy", "--out", str(a), "--seed", "7"]) == 0
    assert main(["gen-toy", "--out", str(b), "--seed", "7"]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_toy_rejects_bad_heads(tmp_path):
    code = main(["gen-toy", "--out", str(tmp_path / "x.tnsr"),
                 "--q-heads", "3", "--kv-heads", "2", "--d-hidden", "48"])
    assert code == 2


def test_transform_and_report(workdir):
    model = workdir / "model.tnsr"
    fact = workdir / "fact.tnsr"
    assert main(["transform", "--model", str(model), "--out", str(fact)]) == 0
    report = json.loads((workdir / "fact.tnsr.report.json").read_text())
    assert report["rank"] == 45 and report["rank_fraction"] == 0.7
    assert report["group_size"] == 4
    # idempotent bytes
    fact2 = workdir / "fact2.tnsr"
    assert main(["transform", "--model", str(model), "--out", str(fact2)]) == 0
    assert fact.read_bytes() == fact2.read_bytes()


def test_transform_full_rank_report(workdir):
    model = workdir / "model.tnsr"
    out = workdir / "full.tnsr"
    assert main(["transform", "--model", str(model), "--out", str(out),
                 "--group-size", "1", "--rank-fraction", "1.0"]) == 0
    report = json.loads((workdir / "full.tnsr.report.json").read_text())
    assert max(report["recon_errors"].values()) <= 1e-5


def test_transform_divisibility_exit_code(workdir):
    code = main(["transform", "--model", str(workdir / "model.tnsr"),
                 "--out", str(workdir / "bad.tnsr"), "--group-size", "3"])
    assert code == 2


def test_fisher_file_contents(workdir):
    model = workdir / "model.tnsr"
    out = workdir / "fisher.json"
    assert main(["fisher", "--model", str(model), "--out", str(out),
                 "--samples", "3", "--seq-len", "24", "--seed", "5"]) == 0
    payload = json.loads(out.read_text())
    assert payload["kind"] == "fisher_weights"
    assert len(payload["per_layer"]) == 8
    assert all(f >= 0 for f in payload["per_layer"])
    assert payload["seed"] == 5 and len(payload["corpus_hash"]) == 64


def test_profile_report(workdir):
    model = workdir / "model.tnsr"
    fact = workdir / "fact.tnsr"
    main(["transform", "--model", str(model), "--out", str(fact)])
    out = workdir / "sim.json"
    assert main(["profile", "--model", str(model), "--factorized", str(fact),
                 "--out", str(out), "--tokens", "48"]) == 0
    payload = json.loads(out.read_text())
    assert set(payload["means"]) == {"key", "value", "hidden", "latent"}
    assert all(-1.0 <= v <= 1.0 for v in payload["means"].values())


def test_run_session_report(workdir):
    model = workdir / "model.tnsr"
    fact = workdir / "fact.tnsr"
    fisher = workdir / "fisher.json"
    main(["transform", "--model", str(model), "--out", str(fact)])
    main(["fisher", "--model", str(model), "--out", str(fisher),
          "--samples", "2", "--seq-len", "24"])
    out = workdir / "run.json"
    assert main(["run", "--model", str(model), "--factorized", str(fact),
                 "--mode", "commonkv", "--ratio", "0.5", "--merge", "fisher",
                 "--fisher-file", str(fisher), "--tokens", "96",
                 "--generate", "4", "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["achieved_ratio"] >= 0.5
    assert payload["plan"]["merged_groups"]
    assert payload["seed"] == 42
    assert len(bytes.fromhex(payload["generated_bytes"])) == 4


def test_run_requires_factorized_for_commonkv(workdir):
    code = main(["run", "--model", str(workdir / "model.tnsr"),
                 "--mode", "commonkv"])
    assert code == 2


def test_run_capacity_exit_code(workdir):
    code = main(["run", "--model", str(workdir / "model.tnsr"),
                 "--mode", "baseline", "--tokens", "300"])
    assert code == 4


def test_missing_model_is_io_error(tmp_path):
    code = main(["transform", "--model", str(tmp_path / "nope.tnsr"),
                 "--out", str(tmp_path / "x.tnsr")])
    assert code == 6


def test_short_corpus_is_input_error(workdir):
    tiny = workdir / "tiny.bin"
    tiny.write_bytes(b"a")
    code = main(["run", "--model", str(workdir / "model.tnsr"),
                 "--mode", "baseline", "--corpus", str(tiny)])
    assert code == 3


def test_bench_csv_and_summary(workdir):
    model = workdir / "model.tnsr"
    fact = workdir / "fact.tnsr"
    main(["transform", "--model", str(model), "--out", str(fact)])
    csv_path = workdir / "bench.csv"
    summary_path = workdir / "summary.json"
    assert main(["bench", "--model", str(model), "--factorized", str(fact),
                 "--out", str(csv_path), "--summary", str(summary_path),
                 "--ratios", "0.3,0.5", "--seeds", "0", "--tokens", "64",
                 "--workers", "2"]) == 0
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 1 + 3 * 2   # header + baseline + 3 modes x 2 ratios
    summary = json.loads(summary_path.read_text())
    assert summary["config"]["n_layers"] == 8
    assert summary["by_mode"]["baseline"]["mean_achieved_ratio"] == 0.0


def test_config_file_defaults_with_flag_override(workdir):
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({"tokens": 64, "ratio": 0.3, "merge": "mean",
                                    "mode": "commonkv"}))
    model = workdir / "model.tnsr"
    fact = workdir / "fact.tnsr"
    main(["transform", "--model", str(model), "--out", str(fact)])
    out = workdir / "run.json"
    # flag --ratio must beat the config file's 0.3
    assert main(["run", "--model", str(model), "--factorized", str(fact),
                 "--config", str(cfg_path), "--ratio", "0.6",
                 "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["target_ratio"] == 0.6
    assert payload["n_tokens"] == 64   # taken from the config file


def test_check_passes_and_writes_report(workdir):
    out = workdir / "check.txt"
    assert main(["check", "--seed", "42", "--out", str(out)]) == 0
    text = out.read_text()
    assert "overall: PASS" in text
    assert "FAIL" not in text.replace("PASS/FAIL", "")


def test_malformed_config_json_is_configuration_error(workdir):
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text('{"tokens": 64,')
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "baseline",
                 "--config", str(cfg_path)])
    assert code == 2


def test_cut_container_is_input_error(workdir):
    cut = workdir / "cut.tnsr"
    cut.write_bytes((workdir / "model.tnsr").read_bytes()[:30])
    code = main(["transform", "--model", str(cut), "--out", str(workdir / "x.tnsr")])
    assert code == 3


def test_rawkv_past_max_seq_is_capacity_error(workdir):
    # the toy model's max_seq is 256: decode runs past it, which is not an
    # unreachable ratio and must not be recorded as one
    code = main(["bench", "--model", str(workdir / "model.tnsr"),
                 "--out", str(workdir / "bench.csv"), "--modes", "rawkv_meanmerge",
                 "--ratios", "0.5", "--seeds", "0", "--tokens", "280",
                 "--prefill-fraction", "0.5"])
    assert code == 4


# -- malformed manifests and Fisher files ---------------------------------------

@pytest.fixture()
def factorized(workdir):
    fact = workdir / "fact.tnsr"
    assert main(["transform", "--model", str(workdir / "model.tnsr"), "--out", str(fact)]) == 0
    return fact


def _run_commonkv(workdir, fact, *extra):
    return main(["run", "--model", str(workdir / "model.tnsr"), "--factorized", str(fact),
                 "--mode", "commonkv", "--merge", "mean", "--tokens", "32", *extra])


def test_base_manifest_without_config_is_input_error(workdir):
    bare = workdir / "bare.tnsr"
    tensorfile.save(bare, {}, meta={"kind": "base_model"})
    code = main(["transform", "--model", str(bare), "--out", str(workdir / "x.tnsr")])
    assert code == 3


def test_base_container_without_tensors_is_input_error(workdir):
    _, meta = tensorfile.load(workdir / "model.tnsr")
    empty = workdir / "empty.tnsr"
    tensorfile.save(empty, {}, meta=meta)
    code = main(["transform", "--model", str(empty), "--out", str(workdir / "x.tnsr")])
    assert code == 3


@pytest.mark.parametrize("field", ["config", "group_size", "groups", "rank", "rank_fraction"])
def test_factorized_manifest_missing_field_is_input_error(workdir, factorized, field):
    tensors, meta = tensorfile.load(factorized)
    del meta[field]
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3


@pytest.mark.parametrize("tensor", ["layers.0.attn_gain", "groups.1.shared",
                                    "layers.5.v_factor", "layers.7.fused_out"])
def test_factorized_container_missing_tensor_is_input_error(workdir, factorized, tensor):
    tensors, meta = tensorfile.load(factorized)
    del tensors[tensor]
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3


@pytest.mark.parametrize("tensor", ["groups.0.shared", "layers.2.k_factor",
                                    "layers.5.v_factor", "layers.7.fused_out"])
def test_factorized_tensor_of_wrong_shape_is_input_error(workdir, factorized, tensor, capsys):
    tensors, meta = tensorfile.load(factorized)
    tensors[tensor] = np.ones((3, 3), dtype=np.float32)
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3
    assert f"{tensor}: expected shape" in capsys.readouterr().err


@pytest.mark.parametrize("rank", [45.0, "45"])
def test_factorized_manifest_rank_not_an_integer_is_input_error(workdir, factorized, rank):
    tensors, meta = tensorfile.load(factorized)
    meta["rank"] = rank
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3


def test_bench_configuration_error_is_not_an_unreachable_ratio(workdir):
    # 8 layers do not split into groups of 3: the sweep must fail, not record
    # every ratio as unreachable
    code = main(["bench", "--model", str(workdir / "model.tnsr"),
                 "--out", str(workdir / "bench.csv"), "--modes", "rawkv_meanmerge",
                 "--ratios", "0.5", "--seeds", "0", "--tokens", "32", "--group-size", "3"])
    assert code == 2
    assert not (workdir / "bench.csv").exists()


def test_transform_warns_about_rank_wider_than_raw_kv(workdir, capsys):
    # the wide shape: rank round(0.7 * 256) = 179 > 2 * d_kv = 128
    wide = workdir / "wide.tnsr"
    assert main(["gen-toy", "--out", str(wide), "--d-hidden", "256", "--q-heads", "8",
                 "--kv-heads", "2", "--d-head", "32", "--d-mlp", "512"]) == 0
    assert main(["transform", "--model", str(wide), "--out", str(workdir / "wf.tnsr")]) == 0
    report = json.loads((workdir / "wf.tnsr.report.json").read_text())
    assert report["rank"] == 179
    assert report["warnings"] == [
        "rank 179 exceeds 2*d_kv=128: each unmerged latent row is 40% larger than its "
        "full-KV row"]
    assert "warning: rank 179 exceeds 2*d_kv=128" in capsys.readouterr().err
    # the toy shape (rank 45 <= 64) stays silent
    assert main(["transform", "--model", str(workdir / "model.tnsr"),
                 "--out", str(workdir / "tf.tnsr")]) == 0
    assert json.loads((workdir / "tf.tnsr.report.json").read_text())["warnings"] == []
    assert "warning" not in capsys.readouterr().err


def _fisher_file(workdir):
    out = workdir / "fisher.json"
    assert main(["fisher", "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--samples", "1", "--seq-len", "16"]) == 0
    return out


@pytest.mark.parametrize("case", ["three_layers", "no_per_layer", "not_json", "not_utf8",
                                  "negative"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_malformed_fisher_file_is_configuration_error(workdir, factorized, case, command):
    good = json.loads(_fisher_file(workdir).read_text())
    bad = workdir / "bad_fisher.json"
    if case == "three_layers":
        bad.write_text(json.dumps(dict(good, per_layer=good["per_layer"][:3])))
    elif case == "no_per_layer":
        bad.write_text(json.dumps({"kind": "fisher_weights"}))
    elif case == "not_json":
        bad.write_text("per_layer: [1, 2]")
    elif case == "not_utf8":
        bad.write_bytes(b"\xff\xfe\x00{")
    else:
        bad.write_text(json.dumps(dict(good, per_layer=[-1.0] * len(good["per_layer"]))))
    if command == "run":
        code = _run_commonkv(workdir, factorized, "--merge", "fisher", "--fisher-file",
                             str(bad))
    else:
        # a sweep records ConfigurationErrors as unreachable ratios, so the
        # file must be rejected before it starts
        code = main(["bench", "--model", str(workdir / "model.tnsr"),
                     "--factorized", str(factorized), "--out", str(workdir / "b.csv"),
                     "--modes", "commonkv", "--ratios", "0.5", "--seeds", "0",
                     "--tokens", "32", "--merge", "fisher", "--fisher-file", str(bad)])
    assert code == 2


def test_fisher_file_for_the_model_runs(workdir, factorized):
    assert _run_commonkv(workdir, factorized, "--merge", "fisher",
                         "--fisher-file", str(_fisher_file(workdir))) == 0


@pytest.mark.parametrize("other", [["--seed", "43"], ["--layers", "4"]],
                         ids=["other_seed", "other_config"])
@pytest.mark.parametrize("command", ["run", "bench", "profile"])
def test_factorization_of_another_model_is_configuration_error(workdir, factorized, other,
                                                               command, capsys):
    model_b = workdir / "model_b.tnsr"
    assert main(["gen-toy", "--out", str(model_b), *other]) == 0
    capsys.readouterr()
    args = {
        "run": ["--mode", "commonkv", "--merge", "mean", "--tokens", "32"],
        "bench": ["--out", str(workdir / "b.csv"), "--modes", "commonkv", "--ratios", "0.5",
                  "--seeds", "0", "--tokens", "32"],
        "profile": ["--out", str(workdir / "sim.json"), "--tokens", "32"],
    }[command]
    code = main([command, "--model", str(model_b), "--factorized", str(factorized), *args])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "was not built from --model" in err
    expected = "config" if other[0] == "--layers" else "embed"
    assert f"(first difference: {expected})" in err
