import json
import math
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import momclf
from momclf.cli import main
from momclf.data import load_csv
from momclf.model import predict
from momclf.optim import TrainTrace, train


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--kind", "toy", "--output", "x.csv", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_generate_toy_csv(tmp_path, capsys):
    out = tmp_path / "toy.csv"
    code = main(["generate", "--kind", "toy", "--inliers", "600",
                 "--outliers", "30", "--seed", "7", "--output", str(out)])
    assert code == 0
    ds = load_csv(out)
    assert ds.n == 630
    assert int(ds.is_outlier.sum()) == 30
    # deterministic regeneration
    out2 = tmp_path / "toy2.csv"
    main(["generate", "--kind", "toy", "--inliers", "600", "--outliers", "30",
          "--seed", "7", "--output", str(out2)])
    assert out.read_text() == out2.read_text()


def test_generate_moons_and_gaussians(tmp_path):
    for kind, flags in (("moons", ["--n", "50", "--noise-sd", "0.3"]),
                        ("gaussians", ["--n", "50"])):
        out = tmp_path / f"{kind}.csv"
        assert main(["generate", "--kind", kind, *flags, "--seed", "1",
                     "--output", str(out)]) == 0
        assert load_csv(out).n == 50


def test_train_predict_outlier_scores_round_trip(tmp_path):
    data = tmp_path / "toy.csv"
    model = tmp_path / "model.json"
    trace = tmp_path / "trace.jsonl"
    scores = tmp_path / "scores.csv"
    preds = tmp_path / "preds.csv"
    main(["generate", "--kind", "toy", "--inliers", "200", "--outliers", "10",
          "--seed", "3", "--output", str(data)])
    assert main(["train", "--algo", "mom-logistic", "--k", "30", "--t", "300",
                 "--data", str(data), "--model", str(model),
                 "--trace", str(trace), "--seed", "5"]) == 0
    obj = json.loads(model.read_text())
    assert obj["type"] == "linear" and len(obj["u"]) == 2
    assert trace.exists()
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(preds)]) == 0
    lines = preds.read_text().strip().splitlines()
    assert lines[0] == "prediction" and len(lines) == 211
    assert set(lines[1:]) <= {"1", "-1"}
    assert main(["outlier-scores", "--trace", str(trace),
                 "--threshold", "1", "--data", str(data),
                 "--output", str(scores)]) == 0
    rows = scores.read_text().strip().splitlines()
    assert rows[0] == "index,count,is_outlier"
    assert len(rows) == 211
    counts = np.array([int(r.split(",")[1]) for r in rows[1:]])
    assert counts.sum() == 300 * (210 // 30)


def test_outlier_scores_takes_n_from_the_trace(tmp_path, capsys):
    data = tmp_path / "toy.csv"
    other = tmp_path / "other.csv"
    trace = tmp_path / "trace.jsonl"
    scores = tmp_path / "scores.csv"
    main(["generate", "--kind", "toy", "--inliers", "100", "--outliers", "5",
          "--seed", "3", "--output", str(data)])
    main(["generate", "--kind", "toy", "--inliers", "140", "--outliers", "10",
          "--seed", "3", "--output", str(other)])
    assert main(["train", "--algo", "mom-logistic", "--k", "15", "--t", "40",
                 "--data", str(data), "--model", str(tmp_path / "m.json"),
                 "--trace", str(trace)]) == 0
    # the removed --n flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["outlier-scores", "--trace", str(trace), "--n", "150",
              "--output", str(scores)])
    assert exc.value.code == 2
    assert main(["outlier-scores", "--trace", str(trace),
                 "--output", str(scores)]) == 0
    assert len(scores.read_text().strip().splitlines()) == 1 + 105
    # a --data CSV of another size is refused before anything is written
    scores.unlink()
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace), "--data", str(other),
                 "--output", str(scores)]) == 1
    err = capsys.readouterr().err
    assert "150 rows" in err and "n=105" in err
    assert not scores.exists()


def test_outlier_scores_reports_a_malformed_trace_line(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"meta": {"n": 4, "k": 2, "t": 1, "block_size": 2, '
                     '"final_objective": 0.5}}\n'
                     '{"t": 0, "partition_seed": 1, "block": [0, 1], '
                     '"objective": 0.5}\n')
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace),
                 "--output", str(tmp_path / "s.csv")]) == 1
    assert f"{trace}: line 2: field 'k_med' is missing" in capsys.readouterr().err


def test_outlier_scores_rejects_a_trace_block_of_non_integers(tmp_path, capsys):
    # numpy would truncate these to the indices [0, 1] and count them
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"meta": {"n": 4, "k": 2, "t": 1, "block_size": 2, '
                     '"final_objective": 0.5}}\n'
                     '{"t": 0, "partition_seed": 1, "k_med": 0, '
                     '"block": [0.5, 1.7], "objective": 0.5}\n')
    scores = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace),
                 "--output", str(scores)]) == 1
    err = capsys.readouterr().err
    assert str(trace) in err
    assert "line 2: field 'block' must be a list of JSON integers" in err
    assert not scores.exists()


@pytest.mark.parametrize("block", ["[-1, 0]", "[0, 4]", "[0]", "[0, 0]", "[1, 0]"],
                         ids=["negative", "beyond-n", "short", "repeated",
                              "descending"])
def test_outlier_scores_rejects_a_trace_block_outside_the_trace(tmp_path, capsys,
                                                               block):
    # a negative index used to wrap and count sample n - 1
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"meta": {"n": 4, "k": 2, "t": 1, "block_size": 2, '
                     '"final_objective": 0.5}}\n'
                     '{"t": 0, "partition_seed": 1, "k_med": 0, '
                     f'"block": {block}, "objective": 0.5}}\n')
    scores = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace),
                 "--output", str(scores)]) == 1
    err = capsys.readouterr().err
    assert f"{trace}: line 2: field 'block' must hold 2 indices in [0, 4)" in err
    assert not scores.exists()


def test_outlier_scores_rejects_a_k_med_outside_the_trace(tmp_path, capsys):
    trace = tmp_path / "trace.jsonl"
    trace.write_text('{"meta": {"n": 4, "k": 2, "t": 1, "block_size": 2, '
                     '"final_objective": 0.5}}\n'
                     '{"t": 0, "partition_seed": 1, "k_med": 7, '
                     '"block": [0, 1], "objective": 0.5}\n')
    scores = tmp_path / "s.csv"
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace),
                 "--output", str(scores)]) == 1
    assert (f"{trace}: line 2: field 'k_med' must lie in [0, 2), got 7"
            in capsys.readouterr().err)
    assert not scores.exists()


def test_train_kernel_algo(tmp_path):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    main(["generate", "--kind", "gaussians", "--n", "120", "--seed", "2",
          "--output", str(data)])
    assert main(["train", "--algo", "fast-klr-mom", "--k", "4", "--t", "10",
                 "--data", str(data), "--model", str(model),
                 "--seed", "1"]) == 0
    obj = json.loads(model.read_text())
    assert obj["type"] == "kernel"
    # only the active block's expansion is written: n // k = 30 points
    assert len(obj["alpha"]) == len(obj["support"]) == 30


@pytest.mark.parametrize("algo", ["fast-klr-mom", "klr-mom"])
def test_kernel_predictions_from_the_file_equal_the_trained_model(tmp_path, algo):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    preds = tmp_path / "p.csv"
    main(["generate", "--kind", "gaussians", "--n", "120", "--seed", "2",
          "--output", str(data)])
    assert main(["train", "--algo", algo, "--k", "4", "--t", "10",
                 "--data", str(data), "--model", str(model),
                 "--seed", "1"]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(preds)]) == 0
    ds = load_csv(data)
    trained, _ = train(algo, ds, 4, 10, eta0=0.5, seed=1)
    written = np.loadtxt(preds, skiprows=1)
    assert np.array_equal(written, predict(trained, ds.X))


def test_predict_rejects_a_model_file_without_format(tmp_path, capsys):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    main(["generate", "--kind", "gaussians", "--n", "20", "--seed", "2",
          "--output", str(data)])
    model.write_text(json.dumps({"type": "linear", "u": [1.0, 0.0], "b": 0.0}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(tmp_path / "p.csv")]) == 1
    assert f"error: {model}: model field 'format' is missing" in capsys.readouterr().err


def test_predict_names_a_missing_model_field(tmp_path, capsys):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    main(["generate", "--kind", "gaussians", "--n", "20", "--seed", "2",
          "--output", str(data)])
    model.write_text(json.dumps({"type": "kernel", "format": 2,
                                 "kernel": {"kind": "rbf", "gamma": 1.0},
                                 "alpha": [1.0]}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(tmp_path / "p.csv")]) == 1
    assert f"error: {model}: model field 'support' is missing" in capsys.readouterr().err


def test_predict_names_a_model_field_of_the_wrong_type(tmp_path, capsys):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    main(["generate", "--kind", "gaussians", "--n", "20", "--seed", "2",
          "--output", str(data)])
    model.write_text(json.dumps({"type": "kernel", "format": 2, "kernel": 3,
                                 "alpha": [1.0], "support": [[0.0, 0.0]]}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(tmp_path / "p.csv")]) == 1
    assert (f"error: {model}: model field 'kernel' must be a JSON object"
            in capsys.readouterr().err)


def test_predict_names_a_non_numeric_kernel_gamma(tmp_path, capsys):
    data = tmp_path / "g.csv"
    model = tmp_path / "m.json"
    main(["generate", "--kind", "gaussians", "--n", "20", "--seed", "2",
          "--output", str(data)])
    model.write_text(json.dumps({"type": "kernel", "format": 2,
                                 "kernel": {"kind": "rbf", "gamma": "x"},
                                 "alpha": [1.0], "support": [[0.0, 0.0]]}))
    capsys.readouterr()
    assert main(["predict", "--model", str(model), "--data", str(data),
                 "--output", str(tmp_path / "p.csv")]) == 1
    assert (f"error: {model}: model field 'kernel.gamma' must be a JSON number"
            in capsys.readouterr().err)


_META = '{"meta": {"n": 4, "k": 2, "t": 1, "block_size": 2, "final_objective": 0.5}}\n'
_STEP = '{"t": 0, "partition_seed": 1, "k_med": 0, "block": [0, 1], "objective": 0.5}\n'
_KERNEL = ('{"type": "kernel", "format": 2, "kernel": {"kind": "rbf", "gamma": %s}, '
           '"alpha": [1.0], "support": %s}')


# (command, flag, file text, message): with the tests above, one bad file per
# mutation of each reader; the bad config files are the cases of the config test
@pytest.mark.parametrize("command, flag, text, message", [
    ("predict", "--model", "{", "model is not JSON (Expecting property name"),
    ("predict", "--model", _KERNEL % ("1.0", "[0.0, 0.0]"),
     "model field 'support' must be a 2-d array"),
    ("predict", "--model", _KERNEL % ("NaN", "[[0.0, 0.0]]"),
     "model field 'kernel.gamma' must hold finite JSON numbers"),
    ("predict", "--model", _KERNEL % ("0", "[[0.0, 0.0]]"),
     "model field 'kernel.gamma' must be > 0 for an rbf kernel"),
    ("outlier-scores", "--trace", _META + _STEP[:-5], "line 2: not JSON"),
    ("outlier-scores", "--trace", _META + _STEP.replace('"t": 0', '"t": "0"'),
     "line 2: field 't' must be a JSON integer"),
    ("outlier-scores", "--trace", _META + _STEP.replace("0.5", "NaN"),
     "line 2: field 'objective' must hold finite JSON numbers"),
    # n=10, k=2, block_size 3: the counts used to total 3, not T (n // K) = 5
    ("outlier-scores", "--trace",
     _META.replace('"n": 4', '"n": 10').replace('"block_size": 2', '"block_size": 3')
     + _STEP.replace("[0, 1]", "[0, 1, 2]"),
     "line 1: field 'meta.block_size' must be n // k = 5, got 3"),
    # k=5 > n=2 used to load
    ("outlier-scores", "--trace",
     _META.replace('"n": 4', '"n": 2').replace('"k": 2', '"k": 5')
     .replace('"block_size": 2', '"block_size": 0') + _STEP.replace("[0, 1]", "[]"),
     "line 1: field 'meta.k' must lie in [1, n=2], got 5"),
    # t=5 with one record: the counts used to total 2, not 10
    ("outlier-scores", "--trace", _META.replace('"t": 1', '"t": 5') + _STEP,
     "line 1: field 'meta.t' must equal the number of step records (1), got 5"),
], ids=["model-not-json", "model-reshape", "model-non-finite", "model-gamma-zero",
        "trace-not-json", "trace-retype", "trace-non-finite", "trace-block-size",
        "trace-k-beyond-n", "trace-t-not-records"])
def test_a_bad_model_or_trace_exits_1_naming_its_path(tmp_path, capsys, command,
                                                     flag, text, message):
    data = tmp_path / "d.csv"
    data.write_text("x0,x1,y\n0.5,0.1,1\n-0.5,0.2,-1\n")
    bad = tmp_path / ("m.json" if command == "predict" else "t.jsonl")
    bad.write_text(text)
    out = tmp_path / "out.csv"
    assert main([command, flag, str(bad), "--data", str(data),
                 "--output", str(out)]) == 1
    assert f"error: {bad}: {message}" in capsys.readouterr().err
    assert not out.exists()


def test_train_label_column_by_index_name_and_negative_index(tmp_path):
    data = tmp_path / "d.csv"
    data.write_text("a,b,label,is_outlier\n" + "".join(
        f"{x:.3f},{x * x:.3f},{int(x > 0.1)},{int(abs(x) > 0.9)}\n"
        for x in np.random.default_rng(4).uniform(-1, 1, 24)))
    models = []
    for column in ("2", "label", "-2"):
        models.append(tmp_path / f"m{len(models)}.json")
        assert main(["train", "--algo", "mom-logistic", "--k", "4", "--t", "20",
                     "--label-column", column, "--data", str(data),
                     "--model", str(models[-1])]) == 0
    texts = [m.read_bytes() for m in models]
    assert texts[0] == texts[1] == texts[2]
    assert len(json.loads(texts[0])["u"]) == 2


def test_runtime_error_exit_code(tmp_path, capsys):
    code = main(["train", "--algo", "mom-logistic", "--data",
                 str(tmp_path / "missing.csv"), "--model",
                 str(tmp_path / "m.json")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bench_timing_cli(tmp_path):
    out = tmp_path / "timing.json"
    assert main(["bench-timing", "--algorithms", "fast-klr-mom", "--n", "200",
                 "--k", "5", "--output", str(out)]) == 0
    obj = json.loads(out.read_text())
    assert "fast-klr-mom" in obj["summary"]["wall_time"]
    assert (tmp_path / "timing.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bench-robustness", "--runs", "1"],
    ["bench-ksweep", "--k-values", "10,30", "--runs", "1"],
], ids=["robustness", "ksweep"])
def test_bench_toy_experiment_cli(tmp_path, argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--seed", "1", "--output", str(out)]) == 0
    records = json.loads(out.read_text())["records"]
    assert records and all(rec["error"] is None for rec in records)
    lines = (tmp_path / "report.csv").read_text().strip().splitlines()
    assert lines[0] == "accuracy,error,k,method,run,t,wall_time"
    assert len(lines) == len(records) + 1


@pytest.mark.parametrize("argv", [
    ["bench-ksweep", "--k-values", "10,x"],
    ["bench-rates", "--dataset", "moons", "--n-values", "250,1e3"],
], ids=["k-values", "n-values"])
def test_bench_list_flag_of_a_non_integer_is_a_usage_error(tmp_path, capsys, argv):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(out)])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: invalid int_list value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["bench-timing", "--algorithms", ","],
    ["bench-ksweep", "--runs", "1", "--k-values", ","],
], ids=["algorithms", "k-values"])
def test_bench_list_flag_of_no_values_is_a_usage_error(tmp_path, capsys, argv):
    # the sweep once wrote a report of no records, and the probe failed in min()
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--output", str(out)])
    assert exc.value.code == 2
    assert f"argument {argv[-2]}: invalid" in capsys.readouterr().err
    assert not out.exists()


def test_bench_ksweep_rejects_a_repeated_k(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bench-ksweep", "--k-values", "10,10", "--runs", "1",
                 "--output", str(out)]) == 1
    assert "k=10 appears more than once" in capsys.readouterr().err
    assert not out.exists()


def test_train_linear_algo_never_resolves_gamma(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gamma resolved for a linear model")

    monkeypatch.setattr("momclf.model.median_heuristic_gamma", refuse)
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "40", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    assert main(["train", "--algo", "mom-logistic", "--k", "4", "--t", "10",
                 "--gamma", "median", "--data", str(data),
                 "--model", str(tmp_path / "m.json")]) == 0


def test_train_config_file_with_flag_override(tmp_path):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "60", "--outliers", "4",
          "--seed", "1", "--output", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "mom-logistic", "k": 8, "t": 50,
                               "seed": 3}))
    m1 = tmp_path / "m1.json"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--model", str(m1)]) == 0
    # an explicit flag beats the config file
    m2 = tmp_path / "m2.json"
    assert main(["train", "--config", str(cfg), "--seed", "4",
                 "--data", str(data), "--model", str(m2)]) == 0
    assert m1.read_text() != m2.read_text()
    # bad config keys are a runtime error
    cfg.write_text(json.dumps({"algo": "mom-logistic", "bogus": 1}))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--model", str(tmp_path / "m3.json")]) == 1


@pytest.mark.parametrize("config", [None, {"k": 5}], ids=["no-config", "config"])
def test_train_without_a_method_names_the_flag_and_the_config_key(tmp_path, capsys,
                                                                  config):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "20", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    argv = ["train", "--t", "5", "--data", str(data), "--model", str(tmp_path / "m.json")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    capsys.readouterr()
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error: no method: set --algo or the config key 'algo'" in err
    assert "None" not in err
    assert not (tmp_path / "m.json").exists()


@pytest.mark.parametrize("config, message", [
    ('{"k": "5"}', "config field 'k' must be a JSON integer, got \"5\""),
    ('{"t": 2.5}', "config field 't' must be a JSON integer, got 2.5"),
    ("[1, 2]", "config file must be a JSON object, got list"),
    ('{"gamma": true}', "config field 'gamma' must be a JSON number or string, got true"),
    ('{"gamma": "wide"}', "config field 'gamma' must be a JSON number, \"auto\" or "
                          "\"median\", got \"wide\""),
    ('{"eta0": NaN}', "config field 'eta0' must hold finite JSON numbers"),
    ('{"seed": null}', "config field 'seed' must be a JSON integer, got null"),
    ('{"bogus": 1}', "config has unknown keys ['bogus']"),
    ("{", "config is not JSON (Expecting property name"),
    ('{"gamma": "inf"}', "config field 'gamma' must be finite and > 0, got \"inf\""),
    ('{"gamma": 0}', "config field 'gamma' must be finite and > 0, got 0"),
], ids=["k-string", "t-float", "list", "gamma-bool", "gamma-word", "eta0-nan",
        "seed-null", "unknown-key", "not-json", "gamma-inf", "gamma-zero"])
def test_train_config_names_the_path_and_key_of_a_bad_value(tmp_path, capsys,
                                                           config, message):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "20", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config)
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--algo", "fast-klr-mom", "--config", str(cfg),
                 "--data", str(data), "--model", str(model)]) == 1
    assert f"error: {cfg}: {message}" in capsys.readouterr().err
    assert not model.exists()


# one out-of-set value per option, then each bandwidth and each regularization
# strength that is not a finite number > 0, then a negative seed
_OUT_OF_SET = [pytest.param(name, value, id=name) for name, value in (
    ("algo", "svm"), ("schedule", "cosine"), ("gradient_mode", "bogus"),
    ("kernel", "poly"), ("gamma", "wide"))] + [
    pytest.param("gamma", value, id=f"gamma={value}")
    for value in ("inf", "nan", "1e400", 0, -1)] + [
    pytest.param("beta", value, id=f"beta={value}")
    for value in (math.inf, math.nan, 0, -1)] + [
    pytest.param("seed", -1, id="seed=-1")]


@pytest.mark.parametrize("algo", ["mom-logistic", "fast-klr-mom"])
@pytest.mark.parametrize("name, value", _OUT_OF_SET)
def test_train_refuses_an_out_of_set_value_as_flag_and_as_config(tmp_path, capsys,
                                                                 name, value, algo):
    # refused whatever the algo, even where the engine would ignore the option
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "20", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    opts = {"algo": algo, "k": 2, "t": 5, name: value}
    model = tmp_path / "m.json"
    flags = [text for key, value in opts.items()
             for text in (f"--{key.replace('_', '-')}", str(value))]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(["train", *flags, "--data", str(data), "--model", str(model)])
    assert exc.value.code == 2
    assert f"argument --{name.replace('_', '-')}: invalid" in capsys.readouterr().err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(opts))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--model", str(model)]) == 1
    assert f"error: {cfg}: config field '{name}' must " in capsys.readouterr().err
    assert not model.exists()


# A beta that is not finite is refused by --beta's own type (_OUT_OF_SET).
@pytest.mark.parametrize("algo, name, value, schedule", [
    ("mom-logistic", "eta0", "inf", "inverse-t"),
    ("mom-logistic", "eta0", "inf", "constant"),
    ("mom-logistic", "eta0", "nan", "constant"),
    ("fast-klr-mom", "eta0", "inf", "inverse-t"),
])
def test_train_refuses_a_non_finite_eta0_or_beta_as_flag_and_as_config(
        tmp_path, capsys, algo, name, value, schedule):
    # the flag reaches train, which names the option; the config file's
    # field check refuses the value first
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "20", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--algo", algo, "--k", "2", "--t", "5", "--schedule", schedule,
                 f"--{name}", value, "--data", str(data), "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert f"error: {name} must be finite, got {value}" in err
    assert "Warning" not in err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": algo, "k": 2, "t": 5, "schedule": schedule,
                               name: float(value)}))
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--model", str(model)]) == 1
    assert (f"error: {cfg}: config field '{name}' must hold finite JSON numbers"
            in capsys.readouterr().err)
    assert not model.exists()


@pytest.mark.parametrize("algo", ["fast-klr-mom", "klr-mom"])
def test_train_names_beta_when_the_irls_system_is_singular(tmp_path, capsys, algo):
    data = tmp_path / "toy.csv"
    main(["generate", "--kind", "toy", "--inliers", "200", "--outliers", "10",
          "--seed", "3", "--output", str(data)])
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--algo", algo, "--kernel", "linear", "--k", "10",
                 "--t", "20", "--beta", "1e-30", "--data", str(data),
                 "--model", str(model)]) == 1
    err = capsys.readouterr().err
    assert ("error: the IRLS system is singular at beta=1e-30; raise beta (--beta)"
            in err)
    assert not model.exists()


@pytest.mark.parametrize("algo", ["mom-logistic", "fast-klr-mom"])
def test_train_refuses_a_csv_without_a_feature_column(tmp_path, capsys, algo):
    data = tmp_path / "nofeat.csv"
    data.write_text("y\n1\n-1\n1\n-1\n1\n-1\n")
    model = tmp_path / "m.json"
    capsys.readouterr()
    assert main(["train", "--algo", algo, "--k", "2", "--t", "3", "--data", str(data),
                 "--model", str(model)]) == 1
    assert (f"error: {data}: no feature column besides the label"
            in capsys.readouterr().err)
    assert not model.exists()


@pytest.mark.parametrize("argv", [
    ["generate", "--kind", "toy"],
    ["bench-robustness", "--runs", "1"],
    ["bench-ksweep", "--k-values", "10", "--runs", "1"],
    ["bench-rates", "--dataset", "moons"],
    ["bench-timing", "--n", "40", "--k", "2"],
], ids=["generate", "robustness", "ksweep", "rates", "timing"])
def test_every_seed_flag_refuses_a_negative_seed(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "-1", "--output", str(out)])
    assert exc.value.code == 2
    assert "argument --seed: invalid seed value: '-1'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("algo", ["mom-logistic", "fast-klr-mom"])
def test_train_config_of_every_default_writes_the_model_of_no_config(tmp_path, algo):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "120", "--outliers", "4",
          "--seed", "1", "--output", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": algo, "k": 120, "t": 2000, "eta0": 0.5,
                               "schedule": "inverse-t", "gradient_mode": "sum",
                               "beta": 1e-3, "kernel": "rbf", "gamma": "auto",
                               "seed": 0}))
    outputs = []
    for argv in (["--algo", algo], ["--config", str(cfg)]):
        model, trace = tmp_path / f"m{len(outputs)}.json", tmp_path / f"t{len(outputs)}.jsonl"
        assert main(["train", *argv, "--data", str(data), "--model", str(model),
                     "--trace", str(trace)]) == 0
        outputs.append((model.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_config_integer_eta0_writes_the_model_of_the_flag(tmp_path):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "60", "--outliers", "4",
          "--seed", "1", "--output", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "mom-logistic", "k": 8, "t": 50, "eta0": 1}))
    outputs = []
    for argv in (["--algo", "mom-logistic", "--k", "8", "--t", "50", "--eta0", "1"],
                 ["--config", str(cfg)]):
        model, trace = tmp_path / f"m{len(outputs)}.json", tmp_path / f"t{len(outputs)}.jsonl"
        assert main(["train", *argv, "--data", str(data), "--model", str(model),
                     "--trace", str(trace)]) == 0
        outputs.append((model.read_bytes(), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_train_config_gamma_takes_a_number_auto_or_median(tmp_path):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "20", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    cfg = tmp_path / "cfg.json"
    models = []
    for gamma in (0.5, 1, "auto", "median"):
        cfg.write_text(json.dumps({"algo": "fast-klr-mom", "k": 2, "t": 5,
                                   "gamma": gamma}))
        models.append(tmp_path / f"m{len(models)}.json")
        assert main(["train", "--config", str(cfg), "--data", str(data),
                     "--model", str(models[-1])]) == 0
    gammas = [json.loads(m.read_text())["kernel"]["gamma"] for m in models]
    assert gammas[:3] == [0.5, 1.0, 0.5]  # auto is 1/p with p = 2


def test_train_erm_trace_selects_every_sample_at_every_step(tmp_path, capsys):
    data = tmp_path / "d.csv"
    main(["generate", "--kind", "toy", "--inliers", "40", "--outliers", "2",
          "--seed", "1", "--output", str(data)])
    # the default --k of 120 exceeds n = 42; ERM ignores it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "erm-logistic", "t": 20}))
    trace_path = tmp_path / "t.jsonl"
    scores = tmp_path / "s.csv"
    assert main(["train", "--config", str(cfg), "--data", str(data),
                 "--model", str(tmp_path / "m.json"),
                 "--trace", str(trace_path)]) == 0
    trace = TrainTrace.from_jsonl(trace_path)
    assert (trace.n, trace.k, trace.t, trace.block_size) == (42, 1, 20, 42)
    assert len(trace.steps) == 20
    assert len({rec.partition_seed for rec in trace.steps}) == 1
    assert all(np.array_equal(rec.block, np.arange(42)) for rec in trace.steps)
    capsys.readouterr()
    assert main(["outlier-scores", "--trace", str(trace_path), "--threshold",
                 "1", "--data", str(data), "--output", str(scores)]) == 0
    assert "0 flagged below threshold 1" in capsys.readouterr().out
    rows = scores.read_text().strip().splitlines()[1:]
    assert [int(r.split(",")[1]) for r in rows] == [20] * 42


def test_full_toy_round_trip_under_60s(tmp_path):
    import time
    t0 = time.perf_counter()
    data = tmp_path / "toy.csv"
    test_data = tmp_path / "test.csv"
    model = tmp_path / "m.json"
    preds = tmp_path / "p.csv"
    main(["generate", "--kind", "toy", "--inliers", "600", "--outliers", "30",
          "--seed", "11", "--output", str(data)])
    main(["generate", "--kind", "toy", "--inliers", "500", "--outliers", "0",
          "--seed", "12", "--output", str(test_data)])
    assert main(["train", "--algo", "mom-logistic", "--k", "120",
                 "--t", "2000", "--data", str(data), "--model", str(model),
                 "--seed", "13"]) == 0
    assert main(["predict", "--model", str(model), "--data", str(test_data),
                 "--output", str(preds)]) == 0
    assert time.perf_counter() - t0 < 60.0


def test_help_lists_subcommands(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = capsys.readouterr().out
    for cmd in ("generate", "train", "predict", "outlier-scores",
                "bench-robustness", "bench-ksweep", "bench-rates",
                "bench-timing"):
        assert cmd in text


def test_train_full_klr_trace_meta_is_strict_json(tmp_path):
    data = tmp_path / "g.csv"
    trace = tmp_path / "trace.jsonl"
    main(["generate", "--kind", "gaussians", "--n", "60", "--seed", "2",
          "--output", str(data)])
    assert main(["train", "--algo", "klr-mom", "--k", "3", "--t", "5",
                 "--data", str(data), "--model", str(tmp_path / "m.json"),
                 "--trace", str(trace), "--seed", "1"]) == 0

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    meta_line = trace.read_text().splitlines()[0]
    meta = json.loads(meta_line, parse_constant=reject)["meta"]
    assert np.isfinite(meta["final_objective"])


def test_cli_loads_scipy_linalg_only_for_a_kernel_method(tmp_path):
    # A fresh interpreter: this one has scipy loaded by the other tests
    code = textwrap.dedent("""
        import sys
        import momclf.cli

        def loaded():
            return [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]

        assert loaded() == [], loaded()
        main = momclf.cli.main
        main(["generate", "--kind", "toy", "--inliers", "60", "--outliers", "3",
              "--seed", "1", "--output", "toy.csv"])
        assert main(["train", "--algo", "mom-logistic", "--k", "5", "--t", "20",
                     "--data", "toy.csv", "--model", "linear.json"]) == 0
        assert loaded() == [], loaded()
        assert main(["train", "--algo", "fast-klr-mom", "--k", "5", "--t", "5",
                     "--data", "toy.csv", "--model", "kernel.json"]) == 0
        assert loaded() == ["scipy.linalg"], loaded()
    """)
    src = str(Path(momclf.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                          text=True, timeout=120, check=False)
    assert proc.returncode == 0, proc.stdout
