"""Smoke test of the benchmark: every workload at tiny size, both modes.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
LINEAR = {"toy-outlier", "gauss-large-n"}


def run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120, check=False)
    assert proc.returncode == 0, proc.stderr + proc.stdout
    lines = proc.stdout.strip().splitlines()
    result_file = next(ln.split()[1] for ln in lines if ln.startswith("results "))
    return json.loads(lines[-1]), json.loads((ROOT / result_file).read_text())


def check_metrics(line, declared):
    assert line["correct"] is True
    assert line["failed"] == 0 and line["attempted"] >= 1
    assert set(line["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        got = line["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_tiny(workload):
    line0, _ = run(workload, 0)
    check_metrics(line0, SPEC["end_to_end"])

    line1, record = run(workload, 1)
    check_metrics(line1, SPEC["per_layer"])
    assert set(record["end_to_end"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert record["traced_output_digest"] == record["output_digest"]
    assert [j["digest"] for j in record["traced_jobs"]] == \
        [j["digest"] for j in record["jobs"][:len(record["traced_jobs"])]]
    solver_calls = line1["metrics"]["optim.solver_calls"]["value"]
    if workload in LINEAR:
        assert solver_calls == 0
    else:
        assert solver_calls > 0


def test_restores_wrapped_functions():
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    try:
        import tracing

        before = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
        tracer = tracing.Tracer.install()
        assert all(owner.__dict__[attr] is not raw for (owner, attr, _, _), raw
                   in zip(tracing.TARGETS, before))
        tracer.restore()
        after = [owner.__dict__[attr] for owner, attr, _, _ in tracing.TARGETS]
        assert all(a is b for a, b in zip(after, before))
    finally:
        sys.path.remove(str(HERE))
        sys.path.remove(str(ROOT / "src"))
