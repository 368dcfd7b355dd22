import json

import numpy as np
import pytest

from momclf.cli import main
from momclf.data import load_csv
from momclf.model import predict
from momclf.optim import StepSchedule, TrainTrace, train


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
    assert "line 2: missing field 'k_med'" in capsys.readouterr().err


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
    trained, _ = train(algo, ds, 4, 10, StepSchedule("inverse-t", 0.5), seed=1)
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
    assert "'format' is missing" in capsys.readouterr().err


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
    assert "model field 'support' is missing" in capsys.readouterr().err


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
    assert "model field 'kernel' must be a JSON object" in capsys.readouterr().err


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


def test_bench_ksweep_rejects_a_repeated_k(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["bench-ksweep", "--k-values", "10,10", "--runs", "1",
                 "--output", str(out)]) == 1
    assert "k=10 appears more than once" in capsys.readouterr().err
    assert not out.exists()


def test_train_linear_algo_never_resolves_gamma(tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("gamma resolved for a linear model")

    monkeypatch.setattr("momclf.cli.median_heuristic_gamma", refuse)
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
    # no algo from either source
    assert main(["train", "--data", str(data),
                 "--model", str(tmp_path / "m4.json")]) == 1


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
