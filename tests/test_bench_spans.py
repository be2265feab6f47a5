"""The benchmark tracer's layer spans stay attached to the code they time.

``bench/tracer.py`` wraps ytx functions where callers look them up.  A
change that stops calling a function through the patched name drops its
span, and that layer's metrics, from ``bench/run.py --trace 1`` without
any error.  One small session of each workload must open every span.
"""

import os

import numpy as np
import pytest

from ytx import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

#: Spans that no session opens: nothing in ytx calls evaluation.predict.
DEAD_SPANS = {"evaluation.predict"}


@pytest.fixture(scope="module")
def traced_sessions(tmp_path_factory):
    """The span names the tracer patches and the tracer after one session
    of each workload, run on small tables."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "bench"))
        from tracer import Tracer
        from workloads import (WORKLOADS, panel_table, skewed_table,
                               wide_table)
    tables = {
        "skewed-session": lambda rng: skewed_table(rng, n=400, n_bad=5),
        "panel-session": lambda rng: panel_table(rng, subjects=10,
                                                 periods=50),
        "wide-lasso": lambda rng: wide_table(rng, n=200, d=10, factors=3),
    }
    patched = set()

    class Recording(Tracer):
        def wrap(self, fn, name, on_result=None, span=True):
            if span:
                patched.add(name)
            return super().wrap(fn, name, on_result, span)

    tracer = Recording()
    for name, generate in tables.items():
        folder = tmp_path_factory.mktemp(name)
        path = str(folder / f"{name}.csv")
        generate(np.random.default_rng(7)).write(path)
        for _, argv, _ in WORKLOADS[name].session(path, str(folder)):
            with tracer:
                assert cli.main(argv) == 0, argv
    return patched, tracer


def test_every_patched_span_opens(traced_sessions):
    patched, tracer = traced_sessions
    assert {"cli.transform", "core.load_csv"} <= patched
    opened = {span[0] for span in tracer.spans}
    assert sorted(patched - opened - DEAD_SPANS) == []


def test_transform_load_is_a_traced_child(traced_sessions):
    _, tracer = traced_sessions
    transforms = [index for index, span in enumerate(tracer.spans)
                  if span[0] == "cli.transform"]
    assert len(transforms) == 3
    for index in transforms:
        assert any(name == "core.load_csv" and parent == index
                   for name, _, _, parent in tracer.spans)


def test_each_benchmark_opens_one_fold_span_per_fold(traced_sessions):
    # evaluation.fold.s is the time of the 5x2cv folds, one span each.
    _, tracer = traced_sessions
    spans = tracer.spans
    runs = [index for index, span in enumerate(spans)
            if span[0] == "evaluation.run_benchmark"]
    assert len(runs) == 3
    assert [span[3] for span in spans if span[0] == "evaluation.fold"] == [
        run for run in runs for _ in range(10)]
