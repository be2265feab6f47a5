"""Self-tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest bench/selftest.py``.
The file is not named ``test_*.py``, so the repository's own test run does
not collect it: two of its tests run the benchmark command end to end.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, panel_table, skewed_table  # noqa: E402

from ytx import cli, evaluation  # noqa: E402


def _run_command(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generators_are_deterministic(name, tmp_path):
    workload = WORKLOADS[name]
    written = {}
    for label, seed in (("a", 7), ("b", 7), ("c", 8)):
        os.makedirs(tmp_path / label)
        path, _ = workload.write_csv(seed, str(tmp_path / label))
        with open(path, "rb") as handle:
            written[label] = handle.read()
    assert written["a"] == written["b"]
    assert written["a"] != written["c"]


def test_self_time_subtracts_union_of_children():
    tracer = Tracer()
    tracer.spans = [["p", 0.0, 10.0, None], ["c", 1.0, 3.0, 0],
                    ["c", 2.0, 5.0, 0], ["c", 8.0, 12.0, 0],
                    ["g", 1.5, 2.5, 1]]
    self_s = tracer.self_times()
    assert self_s["p"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_s["c"] == pytest.approx(2.0 - 1.0 + 3.0 + 4.0)
    assert self_s["g"] == pytest.approx(1.0)


def _small_inputs(tmp_path):
    """A small skewed CSV and a small panel CSV with their benchmark argv."""
    cases = []
    for name, table in (
            ("skewed-session", skewed_table(np.random.default_rng(5), n=400,
                                            d=4, n_bad=5)),
            ("panel-session", panel_table(np.random.default_rng(5),
                                          subjects=12, periods=50))):
        path = str(tmp_path / f"{name}.csv")
        table.write(path)
        steps = WORKLOADS[name].session(path, str(tmp_path))
        cases.extend(argv for command, argv, _ in steps
                     if command == "benchmark")
    return cases


def _bench_bytes(argv, tracer=None):
    if tracer is not None:
        tracer.install()
    try:
        assert cli.main(argv) == 0
    finally:
        if tracer is not None:
            tracer.uninstall()
    with open(argv[argv.index("--out-json") + 1], "rb") as handle:
        return handle.read()


def test_bench_json_is_identical_with_tracing_on_and_off(
        tmp_path, monkeypatch, capsys):
    for argv in _small_inputs(tmp_path):
        plain = _bench_bytes(argv)
        tracer = Tracer()
        assert _bench_bytes(argv, tracer) == plain
        assert tracer.durations("evaluation.fold")
        monkeypatch.setenv("YTX_THREADS", "2")
        threaded = Tracer()
        assert _bench_bytes(argv, threaded) == plain
        monkeypatch.delenv("YTX_THREADS")

        # Fold spans run on pool threads but nest under run_benchmark, and
        # model fits nest under their own thread's fold.
        spans = threaded.spans
        for name, _, _, parent in spans:
            if name == "evaluation.fold":
                assert spans[parent][0] == "evaluation.run_benchmark"
            if name in ("evaluation.fit_ridge", "evaluation.fit_lasso"):
                assert spans[parent][0] == "evaluation.fold"
    capsys.readouterr()


def test_uninstall_restores_every_function():
    from ytx import core
    before = (core.forward, dict(core._REGISTRY),
              dict(evaluation._MODEL_FITTERS), evaluation._evaluate_fold)
    with Tracer():
        assert evaluation._MODEL_FITTERS["lasso"] is not before[2]["lasso"]
        assert core._REGISTRY["deflate"] != before[1]["deflate"]
    after = (core.forward, dict(core._REGISTRY),
             dict(evaluation._MODEL_FITTERS), evaluation._evaluate_fold)
    assert after == before


def test_benchmark_json_matches_metric_tables():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    assert doc["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()]
    assert {m["name"]: (m["unit"], m["better"], m["bound"])
            for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} \
        == {name: spec[:2] for name, spec in PER_LAYER.items()}
    assert max(b for _, _, b in END_TO_END.values()) \
        == END_TO_END["setup_s"][2]


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_every_metric(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        doc = json.load(handle)
    expected = doc["per_layer"] if trace else doc["end_to_end"]
    proc = _run_command("wide-lasso", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 3
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected}
    for m in expected:
        assert m["name"] in proc.stdout.split("\n", 1)[1]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_command("wide-lasso", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
