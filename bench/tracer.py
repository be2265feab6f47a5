"""Outside-in span tracing of the ytx modules, installed by monkeypatching.

The tracer replaces public functions of ``ytx.core``, ``dist``, ``ctx``,
``diagnostics``, ``evaluation`` and ``cli`` with wrappers that record a
span (name, start, end, parent) and optional counters, then restores the
originals.  Nothing under ``src/`` knows about it.  Functions are patched
where callers look them up: module attributes for calls through a module
or a global name, and the entries of ``evaluation._MODEL_FITTERS`` and
``core._REGISTRY``, which hold direct references.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """Spans and counters, held in memory until :meth:`reset`.

    Each thread keeps its own parent stack, so spans opened by worker
    threads nest under their own callers.  A span opened on a thread with
    an empty stack (a pool worker) takes the innermost open span of the
    installing thread as its parent, which keeps fold spans under
    ``run_benchmark`` when ``threads > 1``.
    """

    def __init__(self):
        self.spans = []           # [name, start, end, parent index]
        self.counters = defaultdict(float)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = []
        self._restore = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name, value=1):
        with self._lock:
            self.counters[name] += value

    def call(self, name, fn, args, kwargs):
        stack = self._stack()
        outer = stack or self._main_stack
        parent = outer[-1] if outer else None
        record = [name, time.perf_counter(), None, parent]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def wrap(self, fn, name, on_result=None, span=True):
        """Wrapper that records a span ``name`` and/or calls ``on_result``."""
        def wrapper(*args, **kwargs):
            if span:
                result = self.call(name, fn, args, kwargs)
            else:
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, name, args, result)
            return result
        wrapper.__wrapped__ = fn
        return wrapper

    def patch(self, owner, key, name, on_result=None, span=True):
        """Wrap ``owner.key`` (or ``owner[key]`` for a dict) in place."""
        original = (owner[key] if isinstance(owner, dict)
                    else getattr(owner, key))
        self.replace(owner, key, self.wrap(original, name, on_result, span))

    def replace(self, owner, key, value):
        """Set ``owner.key`` (or ``owner[key]``) until :meth:`uninstall`."""
        is_dict = isinstance(owner, dict)
        original = owner[key] if is_dict else getattr(owner, key)
        if is_dict:
            owner[key] = value
        else:
            setattr(owner, key, value)
        self._restore.append((owner, key, original, is_dict))

    def install(self):
        self._local.stack = self._main_stack
        install_ytx(self)
        return self

    def uninstall(self):
        for owner, key, original, is_dict in reversed(self._restore):
            if is_dict:
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    def reset(self):
        self.spans = []
        self.counters = defaultdict(float)

    def self_times(self):
        """Total self time per span name, in seconds.

        A span's self time is its duration minus the part of its interval
        that the union of its children's intervals covers.
        """
        children = defaultdict(list)
        for name, start, end, parent in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = defaultdict(float)
        for index, (name, start, end, _) in enumerate(self.spans):
            covered = 0.0
            cursor = start
            for c_start, c_end in sorted(children.get(index, ())):
                c_start, c_end = max(c_start, cursor), min(c_end, end)
                if c_end > c_start:
                    covered += c_end - c_start
                    cursor = c_end
            totals[name] += (end - start) - covered
        return dict(totals)

    def durations(self, name):
        return [end - start for n, start, end, _ in self.spans if n == name]


def _count_load(tracer, name, args, dataset):
    tracer.count("core.rows_read", dataset.n + dataset.n_dropped)
    tracer.count("core.rows_dropped", dataset.n_dropped)


def _count_clamped(tracer, name, args, result):
    tracer.count("core.clamped", result[1])


def _count_ppf(tracer, name, args, result):
    tracer.count("dist.normal_ppf.values", np.size(args[0]))


def _count_call(tracer, name, args, result):
    tracer.count(name)


def _count_lasso(tracer, name, args, model):
    tracer.count("evaluation.lasso.fits")
    tracer.count("evaluation.lasso.sweeps", model.n_sweeps)
    tracer.count("evaluation.lasso.converged", int(model.converged))


def _count_cells(tracer, name, args, report):
    tracer.count("evaluation.cells", len(report.cells))


def install_ytx(tracer):
    """Patch every traced ytx function; undone by ``tracer.uninstall``."""
    from ytx import cli, core, ctx, diagnostics, dist, evaluation

    tracer.patch(core, "load_csv", "core.load_csv", _count_load)
    tracer.patch(core, "forward", "core.forward")
    tracer.patch(core, "inverse", "core.inverse")
    tracer.patch(core, "clamp_to_inverse_range", "core.clamp",
                 _count_clamped, span=False)

    tracer.patch(dist, "normal_ppf", "dist.normal_ppf", _count_ppf)
    tracer.patch(dist, "normal_cdf", "dist.normal_cdf")
    for fn in ("fit_box_cox", "fit_yeo_johnson", "fit_quantile"):
        tracer.patch(dist, fn, f"dist.{fn}")
    for fn in ("box_cox_log_likelihood", "yeo_johnson_log_likelihood"):
        tracer.patch(dist, fn, "dist.loglik.calls", _count_call, span=False)

    for fn in ("fit_subject_center", "fit_trial_minmax", "fit_deflate",
               "fit_frame_normalize", "fit_expectation_normalize",
               "fit_regression_normalize"):
        tracer.patch(ctx, fn, f"ctx.{fn}")

    for fn in ("diagnose", "detect_subjective", "detect_trend",
               "detect_context", "detect_distribution", "breusch_pagan"):
        tracer.patch(diagnostics, fn, f"diagnostics.{fn}")

    tracer.patch(evaluation, "fit_lasso", "evaluation.fit_lasso",
                 _count_lasso)
    tracer.patch(evaluation, "fit_ridge", "evaluation.fit_ridge")
    tracer.patch(evaluation._MODEL_FITTERS, "lasso", "evaluation.fit_lasso",
                 _count_lasso)
    tracer.patch(evaluation._MODEL_FITTERS, "ridge", "evaluation.fit_ridge")
    tracer.patch(evaluation, "_standardize", "evaluation.standardize")
    tracer.patch(evaluation, "predict", "evaluation.predict")
    tracer.patch(evaluation, "fit_transform_kind",
                 "evaluation.fit_transform_kind")
    tracer.patch(evaluation, "_evaluate_fold", "evaluation.fold")
    tracer.patch(evaluation, "run_benchmark", "evaluation.run_benchmark",
                 _count_cells)

    for command in ("diagnose", "benchmark", "transform"):
        tracer.patch(cli, f"cmd_{command}", f"cli.{command}")

    # core.forward/inverse reach each kind's maps through the registry; the
    # contextual kinds' maps are the ctx layer's share of that work.
    for kind in core.AUX_KINDS:
        fwd, inv, rng = core._REGISTRY[kind]
        tracer.replace(core._REGISTRY, kind, (
            tracer.wrap(fwd, "ctx.forward"), tracer.wrap(inv, "ctx.inverse"),
            rng))
