"""Span tracing from outside the package.

A ``Tracer`` replaces public functions, in the namespaces where the engines
look them up, with wrappers that time each call.  Spans nest: a span's self
time is its duration minus the durations of the spans opened inside it, so
every second of a job is attributed to exactly one span name.  Totals are
kept per job in memory; nothing is written while a job runs.

``install`` returns the tracer with every wrapper in place; ``restore``
puts every original back.  Wrappers pass arguments and results through
untouched, so a traced run computes bit for bit what an untraced run does.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

import numpy as np
import scipy.linalg

import momclf.bench
import momclf.model
import momclf.optim
import momclf.outlier
from momclf.optim import TrainTrace


def _gram_entries(result):
    return result.size


# (owner, attribute, span name, count extractor or None).  Each entry is a
# name an engine or the benchmark's job resolves at call time, so wrapping
# the attribute intercepts every call on the job path.
TARGETS = [
    (momclf.optim, "random_equipartition", "data.partition", None),
    (momclf.optim, "loss_value", "losses.value", None),
    (momclf.optim, "loss_grad_score", "losses.grad", None),
    (momclf.optim, "block_means", "mom.block_means", None),
    (momclf.optim, "median_block_index", "mom.median_index", None),
    (momclf.optim, "gram", "model.gram", _gram_entries),
    (momclf.model, "gram", "model.gram", _gram_entries),
    (momclf.model, "predict", "model.predict", None),
    (momclf.bench, "predict", "model.predict", None),
    (scipy.linalg, "solve", "optim.solve", None),
    (np.linalg, "lstsq", "optim.lstsq", None),
    (momclf.optim, "mom_gd_train", "optim.engine", None),
    (momclf.optim, "fast_klr_mom_train", "optim.engine", None),
    (momclf.optim, "klr_mom_train", "optim.engine", None),
    (TrainTrace, "to_jsonl", "optim.trace_write", None),
    (TrainTrace, "from_jsonl", "optim.trace_read", None),
    (momclf.outlier, "selection_counts", "outlier.counts", None),
    (momclf.outlier, "flag_outliers", "outlier.flag", None),
    (momclf.outlier, "detection_metrics", "outlier.detect", None),
]


class Tracer:
    """Per-job span totals: self seconds, calls, returned calls, counts."""

    def __init__(self):
        self._stack = []  # [start, child_seconds] per open span
        self._originals = []
        self.new_job()

    def new_job(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.returned = defaultdict(int)
        self.counted = defaultdict(int)

    def _wrapper(self, fn, name, count):
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
                if stack:
                    stack[-1][1] += duration
            self.returned[name] += 1
            if count is not None:
                self.counted[name] += count(result)
            return result

        return traced

    def _wrap(self, owner, attr, name, count):
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            replacement = classmethod(self._wrapper(raw.__func__, name, count))
        else:
            replacement = self._wrapper(raw, name, count)
        self._originals.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    @classmethod
    def install(cls):
        tracer = cls()
        try:
            for owner, attr, name, count in TARGETS:
                tracer._wrap(owner, attr, name, count)
        except BaseException:
            tracer.restore()
            raise
        return tracer

    def restore(self):
        while self._originals:
            owner, attr, raw = self._originals.pop()
            setattr(owner, attr, raw)
