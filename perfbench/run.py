"""Layered benchmark of momclf: end-to-end job metrics and a per-layer trace.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload toy-outlier --seed 1 --seconds 28 --trace 0

One process measures one workload, closed loop: one job at a time.  Set-up
(import, data generation and a short warm-up job, each taken three times)
comes first, then timed jobs with tracing off until ``--seconds`` have
passed and at least the workload's quality jobs have run.  With
``--trace 1`` the quality jobs then run again under the tracer; their
model digests must equal the untraced ones bit for bit.  The last line of
standard output is one JSON object: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A fuller record
(environment, every job, both metric sets) goes to ``perfbench/results/``.
``--workload all`` runs every workload in turn, each in its own process.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("toy-outlier", "gauss-large-n", "klr-fast", "klr-full")
SETUP_REPS = 3
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def declared_units():
    """{name: unit} of the end-to-end and per-layer metrics BENCHMARK.json
    declares; the benchmark reports exactly these."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="'tiny' shrinks every workload for the smoke test")
    return ap.parse_args(argv)


def cap_blas_threads() -> int:
    """Pin BLAS to one thread; must precede the numpy import.

    The KLR solves work on 200 x 200 blocks, where a second OpenBLAS thread
    made jobs about twice as slow and their times two to three times as
    spread out on a 2-core machine.  Returns the usable core count.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return len(os.sched_getaffinity(0))


def import_package():
    """Import momclf from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "momclf" / "__init__.py").is_file():
        sys.exit(f"perfbench: no momclf sources under {src}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(src))
    import momclf

    if Path(momclf.__file__).resolve().parent != src / "momclf":
        sys.exit(f"perfbench: imported momclf from {momclf.__file__}, "
                 f"not from {src}")


def child_import_s() -> float:
    """Import time of this script and the package in a fresh interpreter,
    measured the way ``_T0`` measures it here."""
    code = ("import time; t0 = time.perf_counter(); import sys; "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(HERE)!r}]; "
            "import run, tracing, workloads; print(time.perf_counter() - t0)")
    proc = subprocess.run([sys.executable, "-c", code], stdout=subprocess.PIPE,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def environment(nproc, seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (AttributeError, KeyError, TypeError):
        blas = None
    return {
        "nproc": nproc,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "git_sha": git_sha(),
        "seed": seed,
        "loop": "closed, one job at a time in one process",
    }


def median(values, default=None):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def one_job(spec, train, test, seed, index, workdir):
    """Job ``index`` as a record; a job that raises is a failed record."""
    from workloads import job_seed, run_job

    try:
        res = run_job(spec, train, test, job_seed(spec, seed, index), spec.t,
                      workdir)
        return {"index": index, **dataclasses.asdict(res)}
    except Exception as exc:  # a failed job is counted, not fatal
        return {"index": index, "seconds": None, "steps": 0, "accuracy": None,
                "recall": None, "precision": None, "digest": None,
                "failures": [f"raised {exc!r}"], "trace_bytes": 0}


def time_jobs(spec, train, test, seed, workdir, seconds):
    """Jobs 0, 1, ... until ``seconds`` have passed and at least the
    workload's quality jobs have run."""
    records = []
    start = time.perf_counter()
    while (len(records) < spec.quality_jobs
           or time.perf_counter() - start < seconds):
        records.append(one_job(spec, train, test, seed, len(records), workdir))
    return records


def output_digest(records, quality_jobs):
    h = hashlib.sha256()
    for rec in records[:quality_jobs]:
        h.update(str(rec["digest"]).encode())
    return h.hexdigest()


def job_times(jobs):
    """Median and fastest job time: printed and recorded, not declared.  On
    a shared host the machine switches between a fast and a slow state,
    up to twice as slow, for stretches of seconds to minutes; an order
    statistic of a run jumps with the state that held longest, where the
    whole-run throughput of ``end_to_end`` moves in proportion."""
    times = [r["seconds"] for r in jobs if r["seconds"] is not None]
    return {"jobs_timed": len(times), "job_s_p50": median(times),
            "job_s_min": min(times, default=None)}


def end_to_end(spec, jobs, setup_s):
    quality = [r for r in jobs[:spec.quality_jobs] if not r["failures"]]
    timed = [r for r in jobs if r["seconds"] is not None]
    total_s = sum(r["seconds"] for r in timed)
    # Workloads without planted outliers have nothing to detect: recall and
    # precision are 1 there, so every run reports the same metric set.
    vacuous = 1.0 if spec.n_outliers == 0 else None
    return {
        "steps_per_s": sum(r["steps"] for r in timed) / total_s if total_s else None,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "accuracy_p50": median(r["accuracy"] for r in quality),
        "outlier_recall_p50": median((r["recall"] for r in quality), vacuous),
        "outlier_precision_p50": median((r["precision"] for r in quality), vacuous),
    }


def layer_values(tracer, rec):
    """Per-layer figures of one traced job from the tracer's totals."""
    s, calls, returned = tracer.self_s, tracer.calls, tracer.returned
    partitions = calls["data.partition"]
    solves = calls["optim.solve"]
    return {
        "data.partition_calls": partitions,
        "data.partition_s": s["data.partition"],
        "data.partition_us_per_call":
            1e6 * s["data.partition"] / partitions if partitions else 0.0,
        "losses.value_calls": calls["losses.value"],
        "losses.value_s": s["losses.value"],
        "losses.grad_s": s["losses.grad"],
        "mom.block_means_s": s["mom.block_means"],
        "mom.median_index_s": s["mom.median_index"],
        "model.gram_calls": calls["model.gram"],
        "model.gram_entries": tracer.counted["model.gram"],
        "model.gram_s": s["model.gram"],
        "model.predict_s": s["model.predict"],
        "optim.solver_calls": solves + calls["optim.lstsq"],
        # returned / attempted; 1 when nothing was attempted
        "optim.solve_ok_frac": returned["optim.solve"] / solves if solves else 1.0,
        "optim.lstsq_fallbacks": calls["optim.lstsq"],
        "optim.solver_s": s["optim.solve"] + s["optim.lstsq"],
        "optim.steps": rec["steps"],
        "optim.engine_self_s": s["optim.engine"],
        "optim.trace_write_s": s["optim.trace_write"],
        "optim.trace_read_s": s["optim.trace_read"],
        "optim.trace_bytes": rec["trace_bytes"],
        "outlier.counts_s": s["outlier.counts"],
    }


def traced_jobs(spec, train, test, seed, workdir, untraced):
    """Rerun the quality jobs under the tracer; returns (records, per-job
    layer figures).  A digest that differs from the untraced run's fails
    that job."""
    from tracing import Tracer

    records, layers = [], []
    tracer = Tracer.install()
    try:
        for base in untraced[:spec.quality_jobs]:
            tracer.new_job()
            rec = one_job(spec, train, test, seed, base["index"], workdir)
            if rec["digest"] != base["digest"]:
                rec["failures"].append("traced digest differs from untraced")
            records.append(rec)
            layers.append(layer_values(tracer, rec))
    finally:
        tracer.restore()
    return records, layers


def measure(args, nproc):
    """One workload in this process; returns (exit code, JSON result line)."""
    clock = time.perf_counter
    e2e_units, layer_units = declared_units()
    import_package()
    import tracing  # noqa: F401  so that set-up imports the same in both modes
    from workloads import FULL, TINY, generate, run_job, warmup_seed

    import_s = clock() - _T0
    spec = (TINY if args.size == "tiny" else FULL)[args.workload]
    work_root = HERE / ".work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as workdir:
        setup_times, generate_times = [], []
        for r in range(SETUP_REPS):
            t0 = clock()
            train, test = generate(spec, args.seed)
            generate_times.append(clock() - t0)
            run_job(spec, train, test, warmup_seed(spec, args.seed, r),
                    spec.warmup_t, workdir)
            setup_times.append(clock() - t0)
        import_times = [import_s] + [child_import_s()
                                     for _ in range(SETUP_REPS - 1)]
        setup_s = statistics.median(import_times) + statistics.median(setup_times)

        jobs = time_jobs(spec, train, test, args.seed, workdir, args.seconds)
        e2e = end_to_end(spec, jobs, setup_s)
        traced, layers = [], []
        if args.trace:
            traced, layers = traced_jobs(spec, train, test, args.seed, workdir,
                                         jobs)
    try:
        work_root.rmdir()
    except OSError:  # another run still uses it
        pass

    per_layer = {}
    if args.trace:
        for name in layers[0]:
            values = [lay[name] for lay in layers]
            # counts stay exact: the lower median is one of the measured values
            exact = all(isinstance(v, int) for v in values)
            per_layer[name] = (statistics.median_low if exact
                               else statistics.median)(values)
        per_layer["data.generate_s"] = statistics.median(generate_times)
        base = median(r["seconds"] for r in jobs[:len(traced)])
        with_tracing = median(r["seconds"] for r in traced)
        per_layer["trace_overhead_frac"] = (
            with_tracing / base - 1.0 if base and with_tracing else None)

    all_jobs = jobs + traced
    failed = sum(1 for r in all_jobs if r["failures"])
    digest = output_digest(jobs, spec.quality_jobs)
    result = {
        "workload": args.workload, "size": args.size, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "env": environment(nproc, args.seed),
        "output_digest": digest,
        "traced_output_digest": output_digest(traced, spec.quality_jobs) if traced else None,
        "setup": {"import_s": import_times, "reps_s": setup_times,
                  "generate_s": generate_times},
        "end_to_end": e2e, "job_times": job_times(jobs), "per_layer": per_layer,
        "failed_frac": failed / len(all_jobs),
        "jobs": jobs, "traced_jobs": traced,
    }
    results_dir = HERE / "results"
    results_dir.mkdir(exist_ok=True)
    suffix = "" if args.size == "full" else f"-{args.size}"
    out_path = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}{suffix}.json"
    out_path.write_text(json.dumps(result, indent=1))

    print(f"workload {args.workload} ({args.size}), seed {args.seed}, "
          f"{len(jobs)} timed jobs, {len(traced)} traced jobs, "
          f"nproc {nproc}, BLAS threads {os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"output_digest {digest}")
    for rec in all_jobs:
        for failure in rec["failures"]:
            print(f"FAILED job {rec['index']}: {failure}")
    print(f"failed_frac {result['failed_frac']} fraction")
    for name, unit in (("jobs_timed", "count"), ("job_s_p50", "s"),
                       ("job_s_min", "s")):
        print(f"{name} {result['job_times'][name]} {unit}")
    for name, unit in e2e_units.items():
        print(f"{name} {e2e[name]} {unit}")
    for name, unit in layer_units.items():
        if name in per_layer:
            print(f"{name} {per_layer[name]} {unit}")
    print(f"results {out_path.relative_to(ROOT)}")

    units = layer_units if args.trace else e2e_units
    values = per_layer if args.trace else e2e
    correct = failed == 0 and all(values[name] is not None for name in units)
    line = {"correct": correct, "attempted": len(all_jobs), "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit}
                        for name, unit in units.items()}}
    return (0 if correct else 1), line


def run_all(args):
    """Every workload in its own process, so set-up and RSS stay separate."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            line = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            return 1, {"correct": False, "attempted": max(attempted, 1),
                       "failed": failed + 1, "metrics": metrics}
        correct &= proc.returncode == 0 and line["correct"]
        attempted += line["attempted"]
        failed += line["failed"]
        metrics.update({f"{wl}.{name}": m for name, m in line["metrics"].items()})
    return (0 if correct else 1), {"correct": correct, "attempted": attempted,
                                   "failed": failed, "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    nproc = cap_blas_threads()
    if args.workload == "all":
        code, line = run_all(args)
    else:
        code, line = measure(args, nproc)
    print(json.dumps(line))
    return code


if __name__ == "__main__":
    sys.exit(main())
