"""Command-line interface: dataset generation, training, prediction,
outlier scoring and the benchmark suite.

Every subcommand takes --seed; two invocations with the same arguments and
seed produce identical artifacts.  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from momclf import bench, optim
from momclf._fields import INTEGER, NUMBER, NUMBER_OR_STRING, STRING, read_fields
from momclf.data import (
    Dataset,
    generate_gaussians,
    generate_moons,
    generate_toy,
    load_csv,
    write_csv,
)
from momclf.model import (
    KernelSpec,
    default_gamma,
    median_heuristic_gamma,
    model_from_json,
    model_to_json,
    predict,
)
from momclf.optim import KERNEL_METHODS, METHODS, StepSchedule, TrainTrace
from momclf.outlier import (
    detection_metrics,
    flag_outliers,
    selection_counts,
    write_counts_csv,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momclf",
        description="Robust binary classification by median-of-means "
                    "risk minimization.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset as CSV")
    gen.add_argument("--kind", choices=("toy", "moons", "gaussians"),
                     required=True)
    gen.add_argument("--inliers", type=int, default=600,
                     help="toy only: number of informative samples")
    gen.add_argument("--outliers", type=int, default=30,
                     help="toy only: number of planted outliers")
    gen.add_argument("--n", type=int, default=1000,
                     help="moons/gaussians: total sample count")
    gen.add_argument("--noise-sd", type=float, default=0.3,
                     help="moons only: noise standard deviation")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output", required=True)

    train = sub.add_parser("train", help="train a classifier on a CSV dataset")
    train.add_argument("--algo", choices=METHODS, default=None)
    train.add_argument("--config", default=None,
                       help="JSON file with training options; explicit flags win")
    train.add_argument("--data", required=True)
    train.add_argument("--label-column", default=None,
                       help="label column name or 0-based index")
    train.add_argument("--k", type=int, default=None, help="number of blocks")
    train.add_argument("--t", type=int, default=None, help="iterations")
    train.add_argument("--eta0", type=float, default=None)
    train.add_argument("--schedule", choices=("inverse-t", "constant"),
                       default=None)
    train.add_argument("--gradient-mode", choices=("sum", "mean"),
                       default=None,
                       help="block-sum update (literal) or mean form")
    train.add_argument("--beta", type=float, default=None,
                       help="kernel engines: regularization strength")
    train.add_argument("--kernel", choices=("linear", "rbf"), default=None)
    train.add_argument("--gamma", default=None,
                       help="rbf bandwidth: positive float, 'auto' (1/p) "
                            "or 'median' (median heuristic)")
    train.add_argument("--seed", type=int, default=None)
    train.add_argument("--model", required=True, help="output model JSON path")
    train.add_argument("--trace", default=None,
                       help="optional JSONL path for the per-iteration trace")

    pred = sub.add_parser("predict", help="predict labels for a CSV dataset")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--label-column", default=None)
    pred.add_argument("--output", required=True,
                      help="output CSV of per-row predictions")

    scores = sub.add_parser("outlier-scores",
                            help="selection counts and flags from a trace")
    scores.add_argument("--trace", required=True,
                        help="JSONL trace of a training run; it holds n")
    scores.add_argument("--threshold", type=int, default=1,
                        help="flag samples selected fewer than this many times")
    scores.add_argument("--data", default=None,
                        help="optional training CSV with is_outlier flags "
                             "for precision/recall")
    scores.add_argument("--output", required=True)

    rob = sub.add_parser("bench-robustness",
                         help="corrupted-vs-clean accuracy comparison")
    rob.add_argument("--runs", type=int, default=50)
    rob.add_argument("--seed", type=int, default=0)
    rob.add_argument("--output", required=True, help="report JSON path")

    ksw = sub.add_parser("bench-ksweep", help="accuracy as a function of K")
    ksw.add_argument("--k-values", default="10,30,60,90,120,200",
                     help="comma-separated block counts")
    ksw.add_argument("--runs", type=int, default=50)
    ksw.add_argument("--outliers", type=int, default=30)
    ksw.add_argument("--seed", type=int, default=0)
    ksw.add_argument("--output", required=True)

    rates = sub.add_parser("bench-rates",
                           help="excess logistic risk against n and its slope")
    rates.add_argument("--dataset", choices=("moons", "gaussians"),
                       required=True)
    rates.add_argument("--n-values", default="250,500,1000,2000,4000,8000")
    rates.add_argument("--runs", type=int, default=20)
    rates.add_argument("--seed", type=int, default=0)
    rates.add_argument("--output", required=True)

    timing = sub.add_parser("bench-timing", help="wall-clock timing probe")
    timing.add_argument("--algorithms", default="fast-klr-mom,klr-mom",
                        help="comma-separated algorithm names")
    timing.add_argument("--n", type=int, default=4000)
    timing.add_argument("--k", type=int, default=20)
    timing.add_argument("--seed", type=int, default=0)
    timing.add_argument("--output", required=True)

    return parser


def _parse_label_column(raw):
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        return raw


def _cmd_generate(args) -> int:
    if args.kind == "toy":
        ds = generate_toy(args.inliers, args.outliers, args.seed)
    elif args.kind == "moons":
        ds = generate_moons(args.n, args.noise_sd, args.seed)
    else:
        ds = generate_gaussians(args.n, args.seed)
    write_csv(ds, args.output)
    print(f"wrote {ds.n} samples to {args.output}")
    return 0


def _resolve_gamma(raw, ds: Dataset) -> float:
    if raw == "auto":
        return default_gamma(ds.p)
    if raw == "median":
        return median_heuristic_gamma(ds.X)
    return float(raw)


TRAIN_DEFAULTS = {"algo": None, "k": 120, "t": 2000, "eta0": 0.5,
                  "schedule": "inverse-t", "gradient_mode": "sum",
                  "beta": 1e-3, "kernel": "rbf", "gamma": "auto", "seed": 0}
# The JSON kind of each config key: the keys of TRAIN_DEFAULTS.
_CONFIG_FIELDS = {"algo": STRING, "k": INTEGER, "t": INTEGER, "eta0": NUMBER,
                  "schedule": STRING, "gradient_mode": STRING, "beta": NUMBER,
                  "kernel": STRING, "gamma": NUMBER_OR_STRING, "seed": INTEGER}


def _train_options(args) -> dict:
    """Merge built-in defaults, the optional JSON config, and explicit flags
    (flags win)."""
    opts = dict(TRAIN_DEFAULTS)
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
        try:
            opts.update(read_fields(loaded, _CONFIG_FIELDS, "file", partial=True))
            if set(loaded) - set(opts):
                raise ValueError(f"has unknown keys {sorted(set(loaded) - set(opts))}")
            if opts["gamma"] not in ("auto", "median") and type(opts["gamma"]) is str:
                raise ValueError("field 'gamma' must be a JSON number, \"auto\" "
                                 f"or \"median\", got {json.dumps(opts['gamma'])[:40]}")
        except ValueError as exc:
            raise ValueError(f"{args.config}: config {exc}") from None
    opts.update({key: getattr(args, key) for key in opts
                 if getattr(args, key) is not None})
    if opts["algo"] not in METHODS:
        raise ValueError(f"algo must be one of {METHODS}, "
                         f"got {opts['algo']!r}")
    return opts


def _cmd_train(args) -> int:
    opts = _train_options(args)
    ds = load_csv(args.data, _parse_label_column(args.label_column))
    kernel = None
    if opts["algo"] in KERNEL_METHODS:
        kernel = KernelSpec(kind=opts["kernel"],
                            gamma=_resolve_gamma(opts["gamma"], ds)
                            if opts["kernel"] == "rbf" else 1.0)
    model, trace = optim.train(
        opts["algo"], ds, opts["k"], opts["t"],
        StepSchedule(kind=opts["schedule"], eta0=opts["eta0"]),
        seed=opts["seed"], record_selections=args.trace is not None,
        gradient_mode=opts["gradient_mode"], beta=opts["beta"], kernel=kernel)
    with open(args.model, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
    print(f"trained {opts['algo']} on {ds.n} samples -> {args.model}")
    if args.trace is not None:
        trace.to_jsonl(args.trace)
        print(f"trace -> {args.trace}")
    return 0


def _cmd_predict(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        model = model_from_json(fh.read())
    ds = load_csv(args.data, _parse_label_column(args.label_column))
    labels = predict(model, ds.X)
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write("prediction\n")
        for v in labels:
            fh.write(f"{int(v)}\n")
    acc = float(np.mean(labels == ds.y))
    print(f"wrote {labels.size} predictions to {args.output} (accuracy {acc:.4f})")
    return 0


def _cmd_outlier_scores(args) -> int:
    trace = TrainTrace.from_jsonl(args.trace)
    sc = selection_counts(trace, trace.n)
    flagged = flag_outliers(sc, args.threshold)
    ds = None if args.data is None else load_csv(args.data)
    write_counts_csv(sc, args.output, ds)
    print(f"wrote counts for {trace.n} samples to {args.output}; "
          f"{flagged.size} flagged below threshold {args.threshold}")
    if ds is not None and ds.is_outlier is not None:
        precision, recall = detection_metrics(flagged, ds)
        print(f"precision {precision:.3f} recall {recall:.3f}")
    return 0


def _csv_ints(raw):
    return [int(v) for v in raw.split(",") if v.strip()]


def _cmd_bench(args) -> int:
    if args.command == "bench-robustness":
        report = bench.run_robustness_experiment(args.runs, master_seed=args.seed)
    elif args.command == "bench-ksweep":
        report = bench.run_k_sweep(_csv_ints(args.k_values), args.runs,
                                   master_seed=args.seed,
                                   n_outliers=args.outliers)
    elif args.command == "bench-rates":
        report = bench.run_rate_experiment(args.dataset,
                                           n_values=_csv_ints(args.n_values),
                                           n_runs=args.runs,
                                           master_seed=args.seed)
    else:
        names = [v.strip() for v in args.algorithms.split(",") if v.strip()]
        report = bench.run_timing_probe(names, args.n, master_seed=args.seed,
                                        k=args.k)
    report.to_json(args.output)
    csv_path = str(args.output)
    csv_path = csv_path[:-5] + ".csv" if csv_path.endswith(".json") else csv_path + ".csv"
    report.write_records_csv(csv_path)
    print(f"report -> {args.output}; records -> {csv_path}")
    print(json.dumps(report.summary, indent=2, default=str))
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "generate": _cmd_generate,
        "train": _cmd_train,
        "predict": _cmd_predict,
        "outlier-scores": _cmd_outlier_scores,
        "bench-robustness": _cmd_bench,
        "bench-ksweep": _cmd_bench,
        "bench-rates": _cmd_bench,
        "bench-timing": _cmd_bench,
    }
    try:
        return handlers[args.command](args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
