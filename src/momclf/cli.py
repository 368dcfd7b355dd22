"""Command-line interface: dataset generation, training, prediction,
outlier scoring and the benchmark suite.

Every subcommand takes --seed; two invocations with the same arguments and
seed produce identical artifacts.  Exit codes: 0 success, 1 runtime error,
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from momclf import bench, optim
from momclf._fields import INTEGER, NUMBER, NUMBER_OR_STRING, STRING, fault, read_fields
from momclf.data import generate_gaussians, generate_moons, generate_toy, load_csv, write_csv
from momclf.model import KERNEL_KINDS, model_from_json, model_to_json, predict
from momclf.optim import METHODS, TrainTrace
from momclf.outlier import (
    detection_metrics,
    flag_outliers,
    selection_counts,
    write_counts_csv,
)


# argparse names a bad flag value by its type's __name__: no leading underscore
def bandwidth(value):
    """An RBF bandwidth: a finite number > 0, "auto" or "median".  The type of
    --gamma, which reads the number from its text, and the check of a
    config's gamma."""
    if value in ("auto", "median"):
        return value
    try:
        gamma = float(value)
    except ValueError:
        raise fault("gamma", 'be a JSON number, "auto" or "median"', value) from None
    if not 0 < gamma < math.inf:
        raise fault("gamma", "be finite and > 0", value)
    return gamma


def regularization(value):
    """A regularization strength: a finite number > 0.  The type of --beta,
    which reads the number from its text, and the check of a config's beta."""
    beta = float(value)
    if not 0 < beta < math.inf:
        raise fault("beta", "be finite and > 0", value)
    return beta


def seed(value):
    """A seed: an integer >= 0.  The type of every --seed, which reads the
    integer from its text, and the check of a config's seed."""
    number = int(value)
    if number < 0:
        raise fault("seed", "be >= 0", value)
    return number


def int_list(raw: str) -> list:
    """A non-empty comma-separated list of integers."""
    return [int(v) for v in name_list(raw)]


def name_list(raw: str) -> list:
    """A non-empty comma-separated list of names."""
    names = [v.strip() for v in raw.split(",") if v.strip()]
    if not names:
        raise ValueError("empty list")
    return names


def _label_column(raw: str):
    try:
        return int(raw)
    except ValueError:
        return raw


# Each option of ``train`` once: {name: (JSON kind, flag type, allowed values,
# help)}.  Its flag is --name with "-" for "_", its config key the name and its
# default that of ``optim.train``'s parameter of the same name.  The flag type
# also checks and converts the option's config value.
TRAIN_OPTIONS = {
    "algo": (STRING, str, METHODS, None),
    "k": (INTEGER, int, None, "number of blocks"),
    "t": (INTEGER, int, None, "iterations"),
    "eta0": (NUMBER, float, None, None),
    "schedule": (STRING, str, optim.SCHEDULE_KINDS, None),
    "gradient_mode": (STRING, str, optim.GRADIENT_MODES,
                      "block-sum update (literal) or mean form"),
    "beta": (NUMBER, regularization, None, "kernel engines: regularization strength"),
    "kernel": (STRING, str, KERNEL_KINDS, None),
    "gamma": (NUMBER_OR_STRING, bandwidth, None, "rbf bandwidth: positive "
              "float, 'auto' (1/p) or 'median' (median heuristic)"),
    "seed": (INTEGER, seed, None, None),
}
_CONFIG_FIELDS = {name: frozenset(allowed) if allowed else kind
                  for name, (kind, _, allowed, _) in TRAIN_OPTIONS.items()}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momclf",
        description="Robust binary classification by median-of-means "
                    "risk minimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    # the options of every subcommand that writes one file from a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=seed, default=0)
    seeded.add_argument("--output", required=True)

    gen = sub.add_parser("generate", parents=[seeded],
                         help="write a synthetic dataset as CSV")
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
    gen.set_defaults(handler=_cmd_generate)

    train = sub.add_parser("train", help="train a classifier on a CSV dataset")
    train.add_argument("--config", help="JSON file with training options; explicit flags win")
    train.add_argument("--data", required=True)
    train.add_argument("--label-column", type=_label_column,
                       help="label column name or 0-based index")
    # each defaults to None, "not given", so that the config or optim.train applies
    for name, (_, flag_type, allowed, text) in TRAIN_OPTIONS.items():
        train.add_argument("--" + name.replace("_", "-"), type=flag_type,
                           choices=allowed, help=text)
    train.add_argument("--model", required=True, help="output model JSON path")
    train.add_argument("--trace", help="optional JSONL path for the per-iteration trace")
    train.set_defaults(handler=_cmd_train)

    pred = sub.add_parser("predict", help="predict labels for a CSV dataset")
    pred.add_argument("--model", required=True)
    pred.add_argument("--data", required=True)
    pred.add_argument("--label-column", type=_label_column)
    pred.add_argument("--output", required=True,
                      help="output CSV of per-row predictions")
    pred.set_defaults(handler=_cmd_predict)

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
    scores.set_defaults(handler=_cmd_outlier_scores)

    rob = sub.add_parser("bench-robustness", parents=[seeded],
                         help="corrupted-vs-clean accuracy comparison")
    rob.add_argument("--runs", type=int, default=50)
    rob.set_defaults(handler=_cmd_bench, experiment=lambda a: bench.run_robustness_experiment(
        a.runs, master_seed=a.seed))

    ksw = sub.add_parser("bench-ksweep", parents=[seeded],
                         help="accuracy as a function of K")
    ksw.add_argument("--k-values", type=int_list, default="10,30,60,90,120,200",
                     help="comma-separated block counts")
    ksw.add_argument("--runs", type=int, default=50)
    ksw.add_argument("--outliers", type=int, default=30)
    ksw.set_defaults(handler=_cmd_bench, experiment=lambda a: bench.run_k_sweep(
        a.k_values, a.runs, master_seed=a.seed, n_outliers=a.outliers))

    rates = sub.add_parser("bench-rates", parents=[seeded],
                           help="excess logistic risk against n and its slope")
    rates.add_argument("--dataset", choices=("moons", "gaussians"),
                       required=True)
    rates.add_argument("--n-values", type=int_list,
                       default="250,500,1000,2000,4000,8000")
    rates.add_argument("--runs", type=int, default=20)
    rates.set_defaults(handler=_cmd_bench, experiment=lambda a: bench.run_rate_experiment(
        a.dataset, n_values=a.n_values, n_runs=a.runs, master_seed=a.seed))

    timing = sub.add_parser("bench-timing", parents=[seeded],
                            help="wall-clock timing probe")
    timing.add_argument("--algorithms", default="fast-klr-mom,klr-mom", type=name_list,
                        help="comma-separated algorithm names")
    timing.add_argument("--n", type=int, default=4000)
    timing.add_argument("--k", type=int, default=20)
    timing.set_defaults(handler=_cmd_bench, experiment=lambda a: bench.run_timing_probe(
        a.algorithms, a.n, master_seed=a.seed, k=a.k))

    return parser


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


def _train_options(args) -> dict:
    """The options the optional JSON config and explicit flags set (flags
    win); ``optim.train`` holds the default of every other one."""
    opts = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
                opts = read_fields(loaded, _CONFIG_FIELDS, "file", partial=True)
                unknown = sorted(set(loaded) - set(TRAIN_OPTIONS))
                if unknown:
                    raise ValueError(f"has unknown keys {unknown}")
                opts = {name: TRAIN_OPTIONS[name][1](value) for name, value in opts.items()}
            except json.JSONDecodeError as exc:
                raise ValueError(f"{args.config}: config is not JSON ({exc})") from None
            except ValueError as exc:
                raise ValueError(f"{args.config}: config {exc}") from None
    opts.update({key: getattr(args, key) for key in TRAIN_OPTIONS
                 if getattr(args, key) is not None})
    return opts


def _cmd_train(args) -> int:
    opts = _train_options(args)
    algo = opts.pop("algo", None)
    if algo is None:
        raise ValueError("no method: set --algo or the config key 'algo' to one "
                         f"of {METHODS}")
    ds = load_csv(args.data, args.label_column)
    model, trace = optim.train(algo, ds, record_selections=args.trace is not None,
                               **opts)
    with open(args.model, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))
    print(f"trained {algo} on {ds.n} samples -> {args.model}")
    if args.trace is not None:
        trace.to_jsonl(args.trace)
        print(f"trace -> {args.trace}")
    return 0


def _cmd_predict(args) -> int:
    with open(args.model, "r", encoding="utf-8") as fh:
        try:
            model = model_from_json(fh.read())
        except ValueError as exc:
            raise ValueError(f"{args.model}: {exc}") from None
    ds = load_csv(args.data, args.label_column)
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


def _cmd_bench(args) -> int:
    report = args.experiment(args)
    report.to_json(args.output)
    csv_path = str(args.output)
    csv_path = csv_path[:-5] + ".csv" if csv_path.endswith(".json") else csv_path + ".csv"
    report.write_records_csv(csv_path)
    print(f"report -> {args.output}; records -> {csv_path}")
    print(json.dumps(report.summary, indent=2, default=str))
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
