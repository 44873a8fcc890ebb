import json
import struct

import numpy as np
import pytest

from commonkv import cli, evaluation, selfcheck, tensorfile
from commonkv.cli import build_parser, main
from commonkv.corpus import markov_byte_corpus
from commonkv.evaluation import CSV_COLUMNS, _split_point
from commonkv.latent_cache import LatentSession
from commonkv.model import BaselineSession, load_model


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


RUN_KEYS = {"mode", "seed", "n_tokens", "nll", "target_ratio", "achieved_ratio",
            "cache_elements", "plan"}
PLAN_KEYS = {"scores", "target_ratio", "merged_groups", "strategy", "width", "cost_per_token",
             "predicted_prefill_ratio", "merge_weights", "warnings"}


@pytest.mark.parametrize("mode, generate", [("baseline", 0), ("commonkv", 0),
                                            ("commonkv", 2)])
def test_run_report_keys_are_pinned(workdir, mode, generate):
    # the report is built from dataclasses, so a new field would enter it unseen
    model, fact, out = workdir / "model.tnsr", workdir / "fact.tnsr", workdir / "run.json"
    assert main(["transform", "--model", str(model), "--out", str(fact)]) == 0
    assert main(["run", "--model", str(model), "--factorized", str(fact), "--mode", mode,
                 "--merge", "mean", "--ratio", "0.3", "--tokens", "48",
                 "--generate", str(generate), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == RUN_KEYS | ({"generated_bytes"} if generate else set())
    if mode == "baseline":
        assert payload["plan"] is None
    else:
        assert set(payload["plan"]) == PLAN_KEYS


def test_profile_report_keys_are_pinned(workdir):
    out = workdir / "sim.json"
    assert main(["profile", "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--tokens", "24"]) == 0
    assert set(json.loads(out.read_text())) == {"pairs", "means", "corpus_hash", "seed"}


def test_generate_continues_the_scored_prompt_from_its_last_logits(workdir):
    # full rank, one layer per group and no merge: the latent session is the
    # full-KV engine to float32 rounding, so greedy bytes must match its own
    # loop.  The last prompt byte used to be fed a second time before generation.
    model, fact, out = workdir / "model.tnsr", workdir / "full.tnsr", workdir / "run.json"
    assert main(["transform", "--model", str(model), "--out", str(fact),
                 "--group-size", "1", "--rank-fraction", "1.0"]) == 0
    assert main(["run", "--model", str(model), "--factorized", str(fact), "--mode", "commonkv",
                 "--ratio", "0", "--merge", "mean", "--tokens", "48", "--seed", "45",
                 "--generate", "6", "--out", str(out)]) == 0
    ids = markov_byte_corpus(45, 1, 48)[0]
    session = BaselineSession(load_model(model))
    logits = session.prefill(ids[:_split_point(48, 0.875)])[-1]
    expected = []
    for _ in range(6):
        top2 = np.sort(logits)[-2:]
        assert top2[1] - top2[0] > 1e-4  # no near-tie that rounding could flip
        expected.append(int(np.argmax(logits)))
        logits = session.decode(expected[-1])
    assert bytes.fromhex(json.loads(out.read_text())["generated_bytes"]) == bytes(expected)


@pytest.mark.parametrize("mode", ["baseline", "lowrank_perlayer", "rawkv_meanmerge"])
def test_generate_runs_through_every_modes_own_session(workdir, mode):
    # outside commonkv, --generate used to be ignored: exit 0 and no generated_bytes
    model, out = workdir / "model.tnsr", workdir / "run.json"
    assert main(["run", "--model", str(model), "--mode", mode, "--tokens", "48",
                 "--seed", "45", "--generate", "5", "--out", str(out)]) == 0
    generated = bytes.fromhex(json.loads(out.read_text())["generated_bytes"])
    assert len(generated) == 5
    if mode != "baseline":
        return
    # the same prompt as the decoding modes, continued from its last logits
    ids = markov_byte_corpus(45, 1, 48)[0]
    session = BaselineSession(load_model(model))
    logits = session.prefill(ids[:_split_point(48, 0.875)])[-1]
    expected = []
    for _ in range(5):
        expected.append(int(np.argmax(logits)))
        logits = session.decode(expected[-1])
    assert generated == bytes(expected)


@pytest.mark.parametrize("source", ["flag", "config"])
def test_negative_generate_is_configuration_error(workdir, capsys, source):
    # used to exit 0 and write one generated byte
    out, config = workdir / "g.json", workdir / "config.json"
    config.write_text(json.dumps({"generate": -3}))
    extra = ["--generate", "-3"] if source == "flag" else ["--config", str(config)]
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "baseline",
                 "--tokens", "32", "--out", str(out), *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--generate -3" in err
    assert not out.exists()


@pytest.mark.parametrize("fraction", ["nan", "inf", "-1", "2"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_prefill_fraction_outside_zero_one_is_configuration_error(workdir, capsys, command,
                                                                 fraction):
    # nan and inf used to end in a traceback, -1 and 2 were silently clamped,
    # and a baseline-only sweep accepted nan
    out = workdir / "out"
    args = {"run": ["--mode", "baseline", "--tokens", "32"],
            "bench": ["--modes", "baseline", "--seeds", "0", "--tokens", "32"]}[command]
    code = main([command, "--model", str(workdir / "model.tnsr"), "--out", str(out), *args,
                 "--prefill-fraction", fraction])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "prefill fraction" in err
    assert not out.exists()


@pytest.mark.parametrize("ratio", ["nan", "1.5", "-0.2"])
def test_lowrank_target_outside_zero_one_is_configuration_error(workdir, capsys, ratio):
    # nan used to end in a traceback, and 1.5 and -0.2 ran at rank 1 and full rank
    out = workdir / "run.json"
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "lowrank_perlayer",
                 "--ratio", ratio, "--tokens", "32", "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "target ratio must be in [0, 1)" in err
    assert not out.exists()


def test_lowrank_target_beyond_rank_one_is_unreachable(workdir, capsys):
    # used to exit 0 at rank 1, ratio 0.985, below the target
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "lowrank_perlayer",
                 "--ratio", "0.99", "--tokens", "32"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "maximum achievable is 0.984375" in err


def test_bench_compressed_modes_meet_each_target_or_record_it_unreachable(workdir):
    # raw-KV used to merge round(ratio * 2) groups: 0.344 at target 0.5, and
    # both groups, silently, at 0.9
    model, fact, csv_path = workdir / "model.tnsr", workdir / "fact.tnsr", workdir / "b.csv"
    assert main(["transform", "--model", str(model), "--out", str(fact)]) == 0
    assert main(["bench", "--model", str(model), "--factorized", str(fact),
                 "--out", str(csv_path), "--modes", "lowrank_perlayer,rawkv_meanmerge",
                 "--ratios", "0.1,0.2,0.3,0.4,0.5,0.6,0.9,0.99", "--seeds", "0",
                 "--tokens", "64", "--merge", "mean"]) == 0
    rows = [line.split(",") for line in csv_path.read_text().strip().split("\n")[1:]]
    unreachable = {(mode, float(target)) for mode, target, achieved, *_ in rows if not achieved}
    assert unreachable == {("lowrank_perlayer", 0.99), ("rawkv_meanmerge", 0.9),
                           ("rawkv_meanmerge", 0.99)}
    # the plans meet their prefill targets; the CSV's whole-session ratio
    # (decode rows stay per layer) still meets each of these
    for mode, target, achieved, *_ in rows:
        if achieved:
            assert float(achieved) >= float(target), (mode, target, achieved)


def test_run_requires_factorized_for_commonkv(workdir):
    code = main(["run", "--model", str(workdir / "model.tnsr"),
                 "--mode", "commonkv"])
    assert code == 2


def test_run_capacity_exit_code(workdir):
    code = main(["run", "--model", str(workdir / "model.tnsr"),
                 "--mode", "baseline", "--tokens", "300"])
    assert code == 4


# each used to end in a numpy _ArrayMemoryError traceback, exit 1; 2**50
# elements exceed a 64-bit address space, so numpy fails before allocating
HUGE = str(2**50)


@pytest.mark.parametrize("argv", [
    ["gen-toy", "--out", "OUT", "--max-seq", HUGE],
    ["gen-toy", "--out", "OUT", "--d-mlp", HUGE],
    ["run", "--model", "HUGE_MAX_SEQ", "--mode", "baseline", "--tokens", "16"],
], ids=["gen-toy-max-seq", "gen-toy-d-mlp", "manifest-max-seq"])
def test_size_too_large_to_allocate_is_capacity_error(workdir, capsys, argv):
    tensors, meta = tensorfile.load(workdir / "model.tnsr")
    meta["config"]["max_seq"] = 2**50
    tensorfile.save(workdir / "huge.tnsr", tensors, meta=meta)
    paths = {"OUT": workdir / "out", "MODEL": workdir / "model.tnsr",
             "HUGE_MAX_SEQ": workdir / "huge.tnsr"}
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1
    assert "Traceback" not in err


# each used to end in a numpy ValueError traceback, exit 1: a size past numpy's
# largest array, refused before anything is allocated
PAST_NUMPY = "99999999999999999999999"


@pytest.mark.parametrize("argv", [
    ["gen-toy", "--out", "OUT", "--max-seq", str(2**62)],
    ["gen-toy", "--out", "OUT", "--d-mlp", PAST_NUMPY],
    ["run", "--model", "MODEL", "--mode", "baseline", "--tokens", PAST_NUMPY],
    ["fisher", "--model", "MODEL", "--out", "OUT", "--seq-len", PAST_NUMPY],
    ["profile", "--model", "MODEL", "--out", "OUT", "--tokens", PAST_NUMPY],
], ids=["gen-toy-max-seq", "gen-toy-d-mlp", "run-tokens", "fisher-seq-len",
        "profile-tokens"])
def test_size_past_numpys_largest_array_is_capacity_error(workdir, capsys, argv):
    paths = {"OUT": workdir / "out", "MODEL": workdir / "model.tnsr"}
    capsys.readouterr()
    assert main([str(paths.get(arg, arg)) for arg in argv]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not (workdir / "out").exists()


def test_an_unrelated_value_error_still_propagates(workdir, monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("a program bug")

    monkeypatch.setattr(evaluation, "profile_similarity", broken)
    with pytest.raises(ValueError, match="a program bug"):
        main(["profile", "--model", str(workdir / "model.tnsr"),
              "--out", str(workdir / "sim.json")])


@pytest.mark.parametrize("seq_len", ["300", HUGE], ids=["300", "huge"])
@pytest.mark.parametrize("source", ["markov", "corpus"])
def test_fisher_refuses_a_seq_len_past_max_seq_before_building_the_corpus(
        workdir, capsys, monkeypatch, source, seq_len):
    # used to exit 4 only from loss_and_grads, after every sequence was built,
    # or, at 2**50, with "out of memory" from building the first one
    def no_corpus_may_be_built(*args, **kwargs):
        raise AssertionError("a corpus was built")

    monkeypatch.setattr(cli, "markov_byte_corpus", no_corpus_may_be_built)
    monkeypatch.setattr(cli, "markov_byte_sequences", no_corpus_may_be_built)
    monkeypatch.setattr(cli, "load_byte_file", no_corpus_may_be_built)
    out = workdir / "fisher.json"
    extra = ["--corpus", str(workdir / "model.tnsr")] if source == "corpus" else []
    capsys.readouterr()
    assert main(["fisher", "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--seq-len", seq_len, "--samples", "20000", *extra]) == 4
    assert capsys.readouterr().err == f"error: sequence of {seq_len} exceeds max_seq=256\n"
    assert not out.exists()


@pytest.mark.parametrize("tokens", ["300", HUGE], ids=["300", "huge"])
@pytest.mark.parametrize("command", ["run", "profile"])
def test_run_and_profile_refuse_tokens_past_max_seq_before_building_the_corpus(
        workdir, capsys, monkeypatch, command, tokens):
    # used to build the whole Markov corpus first (about 1.6 us a token), or,
    # at 2**50, to end in "out of memory" while building it
    def no_corpus_may_be_built(*args, **kwargs):
        raise AssertionError("a corpus was built")

    monkeypatch.setattr(cli, "markov_byte_corpus", no_corpus_may_be_built)
    out = workdir / "out.json"
    argv = ["run", "--mode", "baseline"] if command == "run" else ["profile"]
    capsys.readouterr()
    assert main([*argv, "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--tokens", tokens]) == 4
    assert capsys.readouterr().err == f"error: sequence of {tokens} exceeds max_seq=256\n"
    assert not out.exists()


def test_a_decoding_run_may_take_one_token_past_max_seq(workdir, capsys, monkeypatch):
    # a decoding mode never feeds the text's last token, so 257 tokens fit in
    # max_seq=256, as they did before the early check; 258 are refused unbuilt
    model = str(workdir / "model.tnsr")
    assert main(["run", "--model", model, "--mode", "rawkv_meanmerge", "--tokens", "257"]) == 0
    monkeypatch.setattr(cli, "markov_byte_corpus", lambda *a: pytest.fail("a corpus was built"))
    capsys.readouterr()
    assert main(["run", "--model", model, "--mode", "rawkv_meanmerge", "--tokens", "258"]) == 4
    assert capsys.readouterr().err == "error: sequence of 257 exceeds max_seq=256\n"


@pytest.mark.parametrize("command", ["run", "profile"])
def test_a_corpus_file_shorter_than_max_seq_runs_whatever_the_tokens(workdir, command):
    corpus = workdir / "short.txt"
    corpus.write_bytes(bytes(range(40, 140)))
    argv = ["run", "--mode", "baseline"] if command == "run" else ["profile"]
    out = workdir / "out.json"
    assert main([*argv, "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--corpus", str(corpus), "--tokens", HUGE]) == 0
    assert out.exists()


def test_profile_refuses_a_probe_past_max_seq_before_any_layer(workdir, capsys, monkeypatch):
    # used to exit 4 only when the RoPE table ran out, inside the first layer
    def no_layer_may_run(*args, **kwargs):
        raise AssertionError("a layer ran")

    monkeypatch.setattr(evaluation, "rms_norm", no_layer_may_run)
    out = workdir / "sim.json"
    code = main(["profile", "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--tokens", "300"])
    assert code == 4
    assert capsys.readouterr().err == "error: sequence of 300 exceeds max_seq=256\n"
    assert not out.exists()


def test_profile_of_a_one_layer_model_is_input_error_before_any_layer(tmp_path, capsys,
                                                                      monkeypatch):
    # used to end in an IndexError traceback: one layer has no adjacent pair
    def no_layer_may_run(*args, **kwargs):
        raise AssertionError("a layer ran")

    model, out = tmp_path / "m.tnsr", tmp_path / "p.json"
    assert main(["gen-toy", "--out", str(model), "--layers", "1"]) == 0
    monkeypatch.setattr(evaluation, "decoder_layer", no_layer_may_run)
    capsys.readouterr()
    assert main(["profile", "--model", str(model), "--out", str(out)]) == 3
    assert capsys.readouterr().err == ("error: profiling compares adjacent layers; "
                                       "a 1-layer model has none\n")
    assert not out.exists()


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
                 "--ratios", "0.3,0.5", "--seeds", "0", "--tokens", "64"]) == 0
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


def test_check_reports_an_audit_off_the_closed_form_as_a_failed_check(workdir, capsys,
                                                                      monkeypatch):
    # the session's own audit raises; check reports FAIL and exits 1, no traceback
    original = LatentSession.plan_and_merge

    def corrupted(self, *args, **kwargs):
        plan = original(self, *args, **kwargs)
        plan.cost_per_token += 1
        return plan

    monkeypatch.setattr(LatentSession, "plan_and_merge", corrupted)
    monkeypatch.setattr(selfcheck, "CHECKS",
                        tuple(c for c in selfcheck.CHECKS if c[0] == "budget_audit"))
    assert main(["check", "--seed", "42"]) == 1
    captured = capsys.readouterr()
    assert "FAIL budget_audit: audit mismatch at ratio 0.1: plan cost" in captured.out
    assert "overall: FAIL (0/1)" in captured.out
    assert captured.err == ""


def test_malformed_config_json_is_configuration_error(workdir):
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text('{"tokens": 64,')
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "baseline",
                 "--config", str(cfg_path)])
    assert code == 2


@pytest.mark.parametrize("flag, value", [("--ratios", "abc"), ("--seeds", "x")])
def test_unparsable_bench_list_is_configuration_error(workdir, capsys, flag, value):
    code = main(["bench", "--model", str(workdir / "model.tnsr"), "--modes", "baseline",
                 "--out", str(workdir / "bench.csv"), flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and flag in err and repr(value) in err
    assert not (workdir / "bench.csv").exists()


NEGATIVE_SEED_ARGS = {
    "gen-toy": ["--out", "x.tnsr"],
    "check": ["--out", "check.txt"],
    "run": ["--model", "model.tnsr", "--mode", "baseline", "--tokens", "32",
            "--out", "run.json"],
    "fisher": ["--model", "model.tnsr", "--out", "fisher.json"],
    "profile": ["--model", "model.tnsr", "--out", "profile.json"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", sorted(NEGATIVE_SEED_ARGS))
def test_negative_seed_is_configuration_error(workdir, capsys, command, source):
    # used to end in numpy's "expected non-negative integer" traceback, exit 1
    args = [str(workdir / a) if a.endswith((".tnsr", ".json", ".txt")) else a
            for a in NEGATIVE_SEED_ARGS[command]]
    config = workdir / "config.json"
    config.write_text(json.dumps({"seed": -1}))
    extra = ["--seed", "-1"] if source == "flag" else ["--config", str(config)]
    assert main([command, *args, *extra]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--seed -1 is negative" in err
    assert not any((workdir / name).exists() for name in
                   ("x.tnsr", "check.txt", "run.json", "fisher.json", "profile.json"))


def test_transform_seed_is_a_usage_error(workdir, capsys):
    # transform never reads a seed, yet used to accept one: --seed -1 exited 0
    out = workdir / "out"
    with pytest.raises(SystemExit) as exit_info:
        main(["transform", "--model", str(workdir / "model.tnsr"), "--out", str(out),
              "--seed", "5"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, args, prefix", [
    # argparse used to read a unique prefix as the full flag: --seed as --seeds
    ("bench", ["--modes", "baseline", "--ratios", "0.5", "--seed", "5"], "--seed 5"),
    ("run", ["--mode", "baseline", "--tok", "40"], "--tok 40"),
])
def test_flag_prefix_is_a_usage_error(workdir, capsys, command, args, prefix):
    out = workdir / "out"
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--model", str(workdir / "model.tnsr"), "--out", str(out), *args])
    assert exit_info.value.code == 2
    assert f"unrecognized arguments: {prefix}" in capsys.readouterr().err
    assert not out.exists()


COUNT_FLAG_ARGS = {
    "fisher": ["--corpus", "corpus.bin"],
    "run": ["--mode", "baseline", "--corpus", "corpus.bin"],
    "profile": ["--corpus", "corpus.bin"],
    "bench": ["--modes", "baseline", "--ratios", "0.5", "--seeds", "0"],
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, flag, value, message", [
    # these used to end in a traceback (range() step 0), silently drop the last
    # sequence or the corpus file's last bytes, or (bench) exit 3
    ("fisher", "--seq-len", 0, "below 2"), ("fisher", "--seq-len", 1, "below 2"),
    ("fisher", "--samples", -1, "below 1"), ("fisher", "--samples", 0, "below 1"),
    ("run", "--tokens", -5, "negative"), ("profile", "--tokens", -5, "negative"),
    ("bench", "--tokens", -1, "negative"),
])
def test_count_flag_out_of_range_is_configuration_error(workdir, capsys, source, command,
                                                         flag, value, message):
    (workdir / "corpus.bin").write_bytes(
        markov_byte_corpus(3, 1, 200)[0].astype(np.uint8).tobytes())
    out, config = workdir / "out", workdir / "config.json"
    config.write_text(json.dumps({flag[2:].replace("-", "_"): value}))
    extra = [flag, str(value)] if source == "flag" else ["--config", str(config)]
    args = [str(workdir / a) if a.endswith(".bin") else a for a in COUNT_FLAG_ARGS[command]]
    code = main([command, "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 *args, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{flag} {value} is {message}" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--seeds", "-1", "--seeds -1 is negative"),
    ("--seeds", "0,-2", "--seeds -2 is negative"),
    # an empty sweep axis used to write a header-only CSV and exit 0
    ("--seeds", "", "--seeds '' names no value"),
    ("--modes", "", "--modes '' names no value"),
    ("--ratios", ",", "--ratios ',' names no value"),
])
def test_bad_bench_sweep_axis_is_configuration_error(workdir, capsys, flag, value, message):
    axes = {"--modes": "baseline", "--seeds": "0", "--ratios": "0.5", flag: value}
    out = workdir / "bench.csv"
    code = main(["bench", "--model", str(workdir / "model.tnsr"), "--out", str(out),
                 "--tokens", "32", *[item for pair in axes.items() for item in pair]])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and message in err
    assert not out.exists()


def test_config_value_of_the_wrong_type_is_configuration_error(workdir, capsys):
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({"tokens": "abc"}))
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "baseline",
                 "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "tokens='abc'" in err


def test_config_values_go_through_the_flag_type(workdir):
    # a string holding a number is accepted, as on the command line
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({"tokens": "48", "ratio": 0.25}))
    out = workdir / "run.json"
    assert main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "rawkv_meanmerge",
                 "--config", str(cfg_path), "--out", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["n_tokens"] == 48 and payload["target_ratio"] == 0.25


@pytest.mark.parametrize("flags, config", [
    # used to pass the flag checks and end in group_scores with exit 3
    (["--mode", "commonkv", "--merge", "mean"], {"score": "bogus"}),
    # baseline never reads --merge, so the value used to go unchecked
    (["--mode", "baseline"], {"merge": "bogus"}),
    ([], {"mode": 5}),
])
def test_config_value_outside_the_flag_choices_is_configuration_error(
        workdir, factorized, capsys, flags, config):
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--factorized", str(factorized),
                 "--tokens", "32", *flags, "--config", str(cfg_path)])
    assert code == 2
    err = capsys.readouterr().err
    (key, value), = config.items()
    assert err.count("\n") == 1 and f"{key}={value!r}" in err


def test_unknown_config_key_is_configuration_error(workdir, capsys):
    # a misspelled key used to be ignored: run exited 0 and scored 128 tokens
    cfg_path = workdir / "cfg.json"
    cfg_path.write_text(json.dumps({"tokenz": 32}))
    out = workdir / "run.json"
    code = main(["run", "--model", str(workdir / "model.tnsr"), "--mode", "baseline",
                 "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'tokenz'" in err
    assert not out.exists()


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


# a manifest without 'kind' used to exit 2, as if it were the other kind
@pytest.mark.parametrize("loader", ["base", "factorized"])
def test_manifest_without_kind_is_input_error(workdir, factorized, loader, capsys):
    path = workdir / "model.tnsr" if loader == "base" else factorized
    tensors, meta = tensorfile.load(path)
    del meta["kind"]
    tensorfile.save(path, tensors, meta=meta)
    if loader == "base":
        code = main(["transform", "--model", str(path), "--out", str(workdir / "x.tnsr")])
    else:
        code = _run_commonkv(workdir, path)
    assert code == 3
    assert capsys.readouterr().err == "error: container manifest lacks 'kind'\n"


def test_container_of_the_other_kind_stays_a_configuration_error(workdir, factorized):
    model = workdir / "model.tnsr"
    assert main(["transform", "--model", str(factorized), "--out", str(workdir / "x.tnsr")]) == 2
    assert main(["run", "--model", str(model), "--factorized", str(model), "--mode",
                 "commonkv", "--merge", "mean", "--tokens", "32"]) == 2


def test_base_container_without_tensors_is_input_error(workdir):
    _, meta = tensorfile.load(workdir / "model.tnsr")
    empty = workdir / "empty.tnsr"
    tensorfile.save(empty, {}, meta=meta)
    code = main(["transform", "--model", str(empty), "--out", str(workdir / "x.tnsr")])
    assert code == 3


@pytest.mark.parametrize("field", ["config", "group_size", "groups", "rank"])
def test_factorized_manifest_missing_field_is_input_error(workdir, factorized, field):
    tensors, meta = tensorfile.load(factorized)
    del meta[field]
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3


@pytest.mark.parametrize("tensor", ["layers.0.attn_gain", "groups.1.shared",
                                    "layers.5.v_factor"])
def test_factorized_container_missing_tensor_is_input_error(workdir, factorized, tensor):
    tensors, meta = tensorfile.load(factorized)
    del tensors[tensor]
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized) == 3


# a base weight of the wrong shape used to exit 2, a configuration error
@pytest.mark.parametrize("tensor", ["groups.0.shared", "layers.2.k_factor",
                                    "layers.5.v_factor", "layers.2.w_q"])
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


@pytest.mark.parametrize("change", [
    {"group_size": 2},                     # groups left as 4-layer ranges
    {"groups": [[0, 4], [4]]},
    {"group_size": "4"},
    {"group_size": 4.0},
    {"groups": [[4, 8], [0, 4]]},          # swapped ranges
    {"group_size": 3, "groups": [[0, 3], [3, 6], [6, 8]]},  # 3 does not divide 8 layers
    {"group_size": 0, "groups": []},
], ids=["group_size_2", "short_range", "group_size_str", "group_size_float", "swapped",
        "group_size_3", "group_size_0"])
def test_factorized_manifest_layout_is_checked_against_the_model(workdir, factorized, change,
                                                                 capsys):
    # each of these used to pass load_factorized and end in a traceback
    tensors, meta = tensorfile.load(factorized)
    tensorfile.save(factorized, tensors, meta=dict(meta, **change))
    assert _run_commonkv(workdir, factorized) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "factorized manifest" in err


@pytest.mark.parametrize("container", ["model", "factorized"])
@pytest.mark.parametrize("field, value", [
    ("n_layers", "8"), ("n_layers", 8.0), ("n_layers", True), ("rope_theta", "x"),
    ("rope_theta", float("nan")), ("max_seq", None),
], ids=["str", "float", "bool", "theta_str", "theta_nan", "null"])
def test_malformed_manifest_config_is_input_error(workdir, factorized, capsys, container,
                                                  field, value):
    # used to end in a TypeError traceback, or to run (true as 1 layer, nan theta)
    path = factorized if container == "factorized" else workdir / "model.tnsr"
    tensors, meta = tensorfile.load(path)
    tensorfile.save(path, tensors, meta=dict(meta, config=dict(meta["config"], **{field: value})))
    if container == "factorized":
        code = _run_commonkv(workdir, factorized)
    else:
        code = main(["run", "--model", str(path), "--mode", "baseline", "--tokens", "16"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "container manifest config" in err and field in err


@pytest.mark.parametrize("theta", ["nan", "inf", "0"])
def test_gen_toy_rope_theta_must_be_positive_and_finite(tmp_path, capsys, theta):
    # nan used to write a model whose every NLL was nan
    out = tmp_path / "m.tnsr"
    assert main(["gen-toy", "--out", str(out), "--rope-theta", theta]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "is not positive and finite" in err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command", ["run", "bench"])
def test_group_size_against_the_container_is_configuration_error(workdir, factorized, capsys,
                                                                 command, source):
    # run ignored the flag; bench compared raw-KV at m = 2 with commonkv at m = 4
    out, config = workdir / "out", workdir / "config.json"
    config.write_text(json.dumps({"group_size": 2}))
    extra = ["--group-size", "2"] if source == "flag" else ["--config", str(config)]
    args = {"run": ["--mode", "commonkv", "--merge", "mean", "--tokens", "32"],
            "bench": ["--modes", "rawkv_meanmerge,commonkv", "--ratios", "0.3",
                      "--seeds", "0", "--tokens", "32", "--merge", "mean"]}[command]
    code = main([command, "--model", str(workdir / "model.tnsr"), "--factorized",
                 str(factorized), "--out", str(out), *args, *extra])
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--group-size 2 disagrees with --factorized" in err
    assert not out.exists()


def test_rawkv_group_size_is_the_containers(workdir):
    model, fact2, out = workdir / "model.tnsr", workdir / "fact2.tnsr", workdir / "run.json"
    assert main(["transform", "--model", str(model), "--out", str(fact2),
                 "--group-size", "2"]) == 0
    run = ["run", "--model", str(model), "--mode", "rawkv_meanmerge", "--ratio", "0.3",
           "--tokens", "32", "--out", str(out)]
    # one score per group: four groups of 2 from the container, two of 4 by default
    for extra, n_groups in ((["--factorized", str(fact2)], 4),
                            (["--factorized", str(fact2), "--group-size", "2"], 4),
                            ([], 2), (["--group-size", "2"], 4)):
        assert main(run + extra) == 0
        assert len(json.loads(out.read_text())["plan"]["scores"]) == n_groups, extra



def test_rawkv_run_reports_the_full_score_variant(workdir):
    # --score full used to write the same plan, scores included, as the shortcut
    out = workdir / "run.json"
    run = ["run", "--model", str(workdir / "model.tnsr"), "--mode", "rawkv_meanmerge",
           "--ratio", "0.3", "--tokens", "32", "--out", str(out)]
    plans = []
    for score in ("shortcut", "full"):
        assert main([*run, "--score", score]) == 0
        plans.append(json.loads(out.read_text())["plan"])
    assert len(plans[1]["scores"]) == 2 and plans[0]["scores"] != plans[1]["scores"]


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


def test_fisher_file_whose_sum_overflows_is_configuration_error(workdir, factorized, capsys):
    # every weight is finite but their sum is not: run used to exit 0 with each
    # merged prefix all zeros
    good = json.loads(_fisher_file(workdir).read_text())
    bad = workdir / "bad_fisher.json"
    bad.write_text(json.dumps(dict(good, per_layer=[1e308] * len(good["per_layer"]))))
    capsys.readouterr()
    code = _run_commonkv(workdir, factorized, "--merge", "fisher", "--fisher-file", str(bad))
    assert code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "does not sum to a finite number" in err


@pytest.mark.parametrize("recon_errors", [[1, 2], "x", 5], ids=["list", "str", "int"])
def test_factorized_manifest_recon_errors_are_not_read(workdir, factorized, recon_errors):
    # no session reads the transform report's errors; a malformed one used to
    # end in a TypeError or ValueError traceback
    clean, out = workdir / "clean.json", workdir / "run.json"
    assert _run_commonkv(workdir, factorized, "--generate", "2", "--out", str(clean)) == 0
    tensors, meta = tensorfile.load(factorized)
    tensorfile.save(factorized, tensors, meta=dict(meta, recon_errors=recon_errors))
    assert _run_commonkv(workdir, factorized, "--generate", "2", "--out", str(out)) == 0
    assert out.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("change", [
    lambda tensors, meta: meta.pop("rank_fraction"),
    lambda tensors, meta: tensors.pop("layers.7.fused_out"),
    lambda tensors, meta: tensors.update({"layers.7.fused_out": np.ones((3, 3), np.float32)}),
], ids=["rank_fraction_missing", "fused_out_missing", "fused_out_wrong_shape"])
def test_factorized_transform_products_are_not_read(workdir, factorized, change):
    # a session reads only the factors; the rank fraction and the fused M_q
    # matrices used to be required and shape-checked by the loader
    clean, out = workdir / "clean.json", workdir / "run.json"
    assert _run_commonkv(workdir, factorized, "--generate", "2", "--out", str(clean)) == 0
    tensors, meta = tensorfile.load(factorized)
    change(tensors, meta)
    tensorfile.save(factorized, tensors, meta=meta)
    assert _run_commonkv(workdir, factorized, "--generate", "2", "--out", str(out)) == 0
    assert out.read_bytes() == clean.read_bytes()


@pytest.mark.parametrize("entry", [{"dtype": "f16"}, {"shape": [-1]}, {"offset": 2**40}],
                         ids=["dtype", "shape", "offset"])
def test_malformed_unread_tensor_entry_is_input_error(workdir, factorized, capsys, entry):
    # the loader copies only the tensors it keeps, but checks every entry
    blob = factorized.read_bytes()
    (size,) = struct.unpack("<Q", blob[:8])
    header = json.loads(blob[8:8 + size])
    header["tensors"]["layers.7.fused_out"].update(entry)
    text = json.dumps(header).encode()
    factorized.write_bytes(struct.pack("<Q", len(text)) + text + blob[8 + size:])
    capsys.readouterr()
    assert _run_commonkv(workdir, factorized) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'layers.7.fused_out'" in err


def _poke(path, tensor, value):
    """Write ``value`` over the first element of ``tensor`` in a container file,
    past ``serialize``, which refuses non-finite values."""
    blob = bytearray(path.read_bytes())
    (size,) = struct.unpack("<Q", blob[:8])
    start = 8 + size + json.loads(blob[8:8 + size])["tensors"][tensor]["offset"]
    blob[start:start + 4] = struct.pack("<f", value)
    path.write_bytes(bytes(blob))


@pytest.mark.parametrize("command", ["run", "profile"])
@pytest.mark.parametrize("tensor, value", [
    ("groups.0.shared", float("nan")), ("layers.3.k_factor", float("inf")),
    ("layers.6.v_factor", float("-inf")),
])
def test_non_finite_factor_is_numeric_error(workdir, factorized, capsys, command, tensor,
                                            value):
    # a nan shared factor used to load, and run and profile then exited 0 with nan results
    _poke(factorized, tensor, value)
    capsys.readouterr()
    if command == "run":
        code = _run_commonkv(workdir, factorized)
    else:
        code = main(["profile", "--model", str(workdir / "model.tnsr"), "--factorized",
                     str(factorized), "--out", str(workdir / "sim.json"), "--tokens", "32"])
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and f"{tensor}: contains non-finite values" in err


@pytest.mark.parametrize("container", ["model", "factorized"])
def test_non_finite_base_weight_is_numeric_error(workdir, factorized, capsys, container):
    # used to exit 2, a configuration error, against the documented 5
    path = workdir / "model.tnsr" if container == "model" else factorized
    _poke(path, "layers.3.w_q", float("inf"))
    capsys.readouterr()
    if container == "model":
        code = main(["run", "--model", str(path), "--mode", "baseline", "--tokens", "16"])
    else:
        code = _run_commonkv(workdir, factorized)
    assert code == 5
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "layers.3.w_q: contains non-finite values" in err


@pytest.mark.parametrize("rank", [0, 65])
def test_factorized_manifest_rank_out_of_range_is_input_error(workdir, factorized, capsys,
                                                              rank):
    # rank 0 with zero-width factors used to end in a ValueError traceback;
    # the toy shape's rank ceiling is min(d_hidden, 2·group_size·d_kv) = 64
    tensors, meta = tensorfile.load(factorized)
    for name, arr in tensors.items():
        if name.startswith("groups."):
            tensors[name] = np.ones((arr.shape[0], rank), dtype=np.float32)
        elif name.endswith(("k_factor", "v_factor")):
            tensors[name] = np.ones((rank, arr.shape[1]), dtype=np.float32)
    tensorfile.save(factorized, tensors, meta=dict(meta, rank=rank))
    capsys.readouterr()
    assert _run_commonkv(workdir, factorized) == 3
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "'rank'" in err and "outside [1, 64]" in err


# -- the --config contract of every command ----------------------------------------

# per command: its other arguments, the keys --config may set (every optional
# flag but --out), and one config that changes the command's output
CONFIG_CONTRACT = {
    "gen-toy": (["--out", "out.tnsr"],
                "d_head, d_hidden, d_mlp, kv_heads, layers, max_seq, q_heads, rope_theta, seed",
                {"layers": 2, "d_hidden": 32, "q_heads": 2, "kv_heads": 1, "seed": 3}),
    "transform": (["--model", "model.tnsr", "--out", "out.tnsr"],
                  "group_size, rank_fraction, report",
                  {"group_size": 2, "rank_fraction": 0.5}),
    "fisher": (["--model", "model.tnsr", "--out", "out.json"],
               "corpus, samples, seed, seq_len",
               {"samples": 2, "seq_len": 16, "seed": 3}),
    "profile": (["--model", "model.tnsr", "--out", "out.json"],
                "corpus, factorized, seed, tokens",
                {"tokens": 32, "seed": 3}),
    "run": (["--model", "model.tnsr", "--factorized", "fact.tnsr", "--merge", "mean",
             "--out", "out.json"],
            "corpus, factorized, fisher_file, generate, group_size, merge, mode, "
            "prefill_fraction, ratio, score, seed, tokens",
            {"mode": "rawkv_meanmerge", "ratio": 0.3, "tokens": 32, "generate": 2}),
    "bench": (["--model", "model.tnsr", "--factorized", "fact.tnsr", "--out", "out.csv",
               "--ratios", "0.5", "--seeds", "1"],
              "factorized, fisher_file, group_size, merge, modes, prefill_fraction, ratios, "
              "score, seeds, summary, tokens",
              {"modes": "baseline,rawkv_meanmerge", "tokens": 32}),
    "check": (["--out", "out.txt"], "seed", {"seed": 3}),
}


def _contract_args(workdir, command):
    args, _, _ = CONFIG_CONTRACT[command]
    return [str(workdir / a) if a.endswith((".tnsr", ".json", ".csv", ".txt")) else a
            for a in args]


def _contract_output(workdir, command):
    """The command's output file, without the bench CSV's timing column."""
    path = next(workdir / a for a in CONFIG_CONTRACT[command][0] if a.startswith("out."))
    if command != "bench":
        return path.read_bytes()
    col = CSV_COLUMNS.index("wall_ms")
    return [row.split(",")[:col] + row.split(",")[col + 1:]
            for row in path.read_text().splitlines()]


@pytest.mark.parametrize("command", sorted(CONFIG_CONTRACT))
def test_unknown_config_key_lists_every_key_the_command_reads(workdir, capsys, command):
    _, keys, _ = CONFIG_CONTRACT[command]
    config = workdir / "config.json"
    config.write_text(json.dumps({"bogus": 1}))
    capsys.readouterr()
    assert main([command, *_contract_args(workdir, command), "--config", str(config)]) == 2
    assert capsys.readouterr().err == (f"error: --config {config}: unknown key 'bogus'; "
                                       f"{command} reads {keys}\n")


@pytest.mark.parametrize("command", sorted(CONFIG_CONTRACT))
def test_config_value_is_honoured_as_the_same_flag_typed(workdir, factorized, command):
    _, _, values = CONFIG_CONTRACT[command]
    args = _contract_args(workdir, command)
    config = workdir / "config.json"
    config.write_text(json.dumps(values))
    flags = [item for key, value in values.items()
             for item in ("--" + key.replace("_", "-"), str(value))]
    assert main([command, *args]) == 0
    default = _contract_output(workdir, command)
    assert main([command, *args, "--config", str(config)]) == 0
    from_config = _contract_output(workdir, command)
    assert main([command, *args, *flags]) == 0
    assert from_config == _contract_output(workdir, command)
    assert from_config != default


# per command: the flags with neither type nor choices, all file paths
UNTYPED_KEYS = {"transform": ("report",), "fisher": ("corpus",),
                "profile": ("corpus", "factorized"),
                "run": ("corpus", "factorized", "fisher_file"),
                "bench": ("factorized", "fisher_file", "summary")}


def test_untyped_config_keys_are_the_path_flags():
    commands = build_parser()._subparsers._group_actions[0].choices
    untyped = {name: tuple(sorted(a.dest for a in sub._actions
                                  if a.option_strings and not a.required
                                  and a.type is None and a.choices is None
                                  and a.dest not in ("help", "config", "out")))
               for name, sub in commands.items()}
    assert {name: keys for name, keys in untyped.items() if keys} == UNTYPED_KEYS


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in sorted(UNTYPED_KEYS.items())
                                          for k in keys])
@pytest.mark.parametrize("value", [5, ["a"], True, {"path": "x"}])
def test_non_string_path_in_config_is_configuration_error(workdir, factorized, capsys,
                                                           command, key, value):
    # used to reach Path(...) and end in a TypeError traceback, exit 1
    config = workdir / "config.json"
    config.write_text(json.dumps({key: value}))
    capsys.readouterr()
    assert main([command, *_contract_args(workdir, command), "--config", str(config)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: --config {config}: {key}={value!r} is not a string or null\n"


@pytest.mark.parametrize("command, key", [(c, k) for c, keys in sorted(UNTYPED_KEYS.items())
                                          for k in keys])
def test_null_path_in_config_leaves_the_flag_unset(workdir, factorized, command, key):
    config = workdir / "config.json"
    config.write_text(json.dumps({key: None}))
    args = _contract_args(workdir, command)
    assert main([command, *args]) == 0
    default = _contract_output(workdir, command)
    assert main([command, *args, "--config", str(config)]) == 0
    assert _contract_output(workdir, command) == default
