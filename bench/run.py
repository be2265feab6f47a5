#!/usr/bin/env python3
"""Benchmark of the ytx CLI: seeded sessions, per-command latency, layer trace.

Run from the repository root::

    python3 bench/run.py --workload skewed-session --seed 1 --seconds 25 \\
        --trace 0

The run writes its workload's seeded CSV under ``.bench_work/``, then
drives ``ytx.cli.main`` in-process in a closed loop (one caller; the next
command starts when the last returns; ``YTX_THREADS`` unset) until
``--seconds`` have passed, checking every output.  ``--trace 0`` reports
the end-to-end metrics: the median time of each command and of importing
ytx in a fresh interpreter (``setup_s``), and the process's peak resident
memory.  ``--trace 1`` alternates untraced and traced sessions and reports
the per-layer metrics of ``metrics.PER_LAYER``, the tracing overhead and
the 2-thread speed-up of ``run_benchmark``.  Without ``--workload`` every
workload runs in turn, each in its own process.

End-to-end times are given at a reference host speed.  A fixed pure-Python
loop is timed just before and just after every timed call, and the call's
wall time is multiplied by ``REFERENCE_CALIBRATION_S`` over the mean of
the two loop times; each metric is the median of these scaled times.  On a
shared 2-vCPU VM the host's speed moved by 1.4-2x within seconds and
between minutes: over two sets of ten seeds per workload, the raw
per-command medians spread by 0.11-0.37 of their median (quartile
distance), the scaled ones by 0.02-0.15.  The raw wall medians and every
loop time are printed and recorded next to the metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give each metric with its unit and sample count, the output digests and
the host calibration.  Everything is also written to
``.bench_work/<workload>/record.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

sys.path.insert(0, HERE)

import checks  # noqa: E402
from metrics import END_TO_END, PER_LAYER  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

COMMANDS = ("diagnose", "benchmark", "transform")
SETUP_REPEATS = 5
#: Seconds the calibration loop takes on an unloaded host.  End-to-end
#: times are reported at this host speed (see ``at_reference``).
REFERENCE_CALIBRATION_S = 0.0075
_IMPORT_CODE = ("import time; t = time.perf_counter(); import ytx, ytx.cli; "
                "print(time.perf_counter() - t)")


def import_ytx():
    """Import the CLI from ``src/``; exits 2 when the program is absent."""
    sys.path.insert(0, SRC)
    try:
        from ytx import cli
    except ImportError as exc:
        print(f"error: cannot import ytx from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    return cli


def calibrate():
    """Seconds of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i % 7
    return time.perf_counter() - start


def at_reference(before, after):
    """Factor that scales a time to the reference host speed.

    ``before`` and ``after`` are calibration times taken just before and
    just after the timed call.
    """
    return 2.0 * REFERENCE_CALIBRATION_S / (before + after)


def measure_setup(calibration, repeats=SETUP_REPEATS):
    """Seconds to import ytx and ytx.cli, each in a fresh interpreter.

    Returns the wall times and the times at the reference host speed.  One
    unrecorded import first writes the bytecode cache, which users have
    after their first call.  Calibration samples go to ``calibration``.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    wall, scaled = [], []
    for i in range(repeats + 1):
        before = calibrate()
        out = subprocess.run([sys.executable, "-c", _IMPORT_CODE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        after = calibrate()
        if i:
            seconds = float(out.stdout.strip().splitlines()[-1])
            calibration.extend((before, after))
            wall.append(seconds)
            scaled.append(seconds * at_reference(before, after))
    return wall, scaled


class Runner:
    """Runs one workload's commands and checks every output."""

    def __init__(self, cli, workload, seed, calibration):
        self.cli = cli
        self.workload = workload
        self.dir = os.path.join(WORK, workload.name)
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.csv, self.target = workload.write_csv(seed, self.dir)
        self.steps = workload.session(self.csv, self.dir)
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}
        self.times = {command: [] for command in COMMANDS}
        self.scaled = {command: [] for command in COMMANDS}
        self.calibration = calibration

    def _out(self, name):
        return os.path.join(self.dir, name)

    def invoke(self, command, argv, outputs, tracer=None):
        """One timed CLI call, then its checks."""
        for name in outputs:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self._out(name))
        gc.collect()
        before = calibrate()
        sink = io.StringIO()
        code = None
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            if tracer is not None:
                tracer.install()
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
            except Exception:  # a crash is a failed invocation, not the end
                traceback.print_exc(file=sink)
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.uninstall()
        after = calibrate()
        self.calibration.extend((before, after))
        self.times[command].append(elapsed)
        self.scaled[command].append(elapsed * at_reference(before, after))
        self.attempted += 1
        problems = [] if code == 0 else [
            f"exit code {code}: {sink.getvalue()[-2000:]}"]
        if not problems:
            try:
                problems = self._check(command, outputs)
            except Exception as exc:  # a missing or malformed output
                problems = [f"output check raised {exc!r}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{command}: {p}" for p in problems)

    def _check(self, command, outputs):
        w = self.workload
        if command == "diagnose":
            problems = checks.check_diagnose(self._out("diagnose.json"))
        elif command == "benchmark":
            problems = checks.check_benchmark(
                self._out("bench.json"), w.models,
                [k for k in w.kinds if k != "auto"])
        else:
            problems = checks.check_transform(
                self._out("transformed.csv"), self._out("params.json"),
                w, self.target)
        # Outputs are deterministic: every repeat, traced or not, must
        # write the same bytes as the first.
        for name in outputs:
            value = checks.digest(self._out(name))
            first = self.digests.setdefault(name, value)
            if value != first:
                problems.append(f"{name} differs from the first repeat")
        return problems

    def session(self, tracer=None):
        """One diagnose -> benchmark -> transform pass.

        Returns its seconds at the reference host speed.
        """
        for step in self.steps:
            self.invoke(*step, tracer=tracer)
        return sum(self.scaled[command][-1] for command in COMMANDS)

    def reported_kinds(self):
        """The transform kinds of the last report, ``auto`` resolved."""
        with open(self._out("bench.json")) as handle:
            return tuple(json.load(handle)["transforms"])


def layer_metrics(tracer):
    """Per-session layer figures from one traced session's spans."""
    self_s = tracer.self_times()
    c = tracer.counters
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s.get(name[:-len(".self_s")], 0.0)
        elif name.endswith(".s") and name != "evaluation.fold.s":
            out[name] = self_s.get(name[:-len(".s")], 0.0)
    load_s = sum(tracer.durations("core.load_csv"))
    out["core.load_csv.rows_per_s"] = c["core.rows_read"] / load_s
    folds = tracer.durations("evaluation.fold")
    out["evaluation.fold.s"] = statistics.median(folds) if folds else 0.0
    for name in ("core.rows_dropped", "core.clamped",
                 "dist.normal_ppf.values", "dist.loglik.calls",
                 "evaluation.lasso.sweeps", "evaluation.cells"):
        out[name] = c[name]
    fits = c["evaluation.lasso.fits"]
    out["evaluation.lasso.converged_ratio"] = (
        c["evaluation.lasso.converged"] / fits if fits else 1.0)
    return out


def threads2_speedup(runner):
    """run_benchmark wall at threads=1 over threads=2 (untraced).

    Also checks that both thread counts give byte-identical reports.
    """
    from ytx import core, evaluation

    roles = core.ColumnRoles.from_json(runner.workload.roles_json())
    dataset = core.load_csv(runner.csv, roles)
    w = runner.workload
    kinds = runner.reported_kinds()
    walls, reports = [], []
    for threads in (1, 2):
        gc.collect()
        start = time.perf_counter()
        report = evaluation.run_benchmark(
            dataset, models=w.models, transforms=kinds, seed=42,
            alpha=w.alpha, threads=threads)
        walls.append(time.perf_counter() - start)
        reports.append(report.to_json())
    runner.attempted += 1
    if reports[0] != reports[1]:
        runner.failed += 1
        runner.problems.append("threads=2 report differs from threads=1")
    return walls[0] / walls[1]


def measure_commands(runner, seconds):
    """Closed loop over the session's commands until ``seconds`` pass.

    At least one full session runs; after that the loop stops at the first
    command that ends past the deadline.
    """
    deadline = time.perf_counter() + seconds
    for i, step in enumerate(itertools.cycle(runner.steps)):
        runner.invoke(*step)
        if i + 1 >= len(runner.steps) and time.perf_counter() >= deadline:
            break
    wall = {f"{c}_s": statistics.median(runner.times[c]) for c in COMMANDS}
    metrics = {f"{c}_s": statistics.median(runner.scaled[c])
               for c in COMMANDS}
    counts = {f"{c}_s": len(runner.times[c]) for c in COMMANDS}
    return metrics, wall, counts


def measure_layers(runner, seconds, record):
    """Alternate untraced and traced sessions until ``seconds`` pass.

    A first, unrecorded session pays the process's one-time lazy set-up,
    which would otherwise land on the first untraced session and bias the
    tracing overhead; the pairs then swap order so that neither side always
    runs first.
    """
    deadline = time.perf_counter() + seconds
    runner.session()
    tracer = Tracer()
    plain, traced, samples = [], [], {}
    while not traced or time.perf_counter() < deadline:
        if len(traced) % 2:
            plain.append(runner.session())
        tracer.reset()
        traced.append(runner.session(tracer))
        for name, value in layer_metrics(tracer).items():
            samples.setdefault(name, []).append(value)
        if len(traced) % 2:
            plain.append(runner.session())
    with open(os.path.join(runner.dir, "spans.json"), "w") as handle:
        json.dump(tracer.spans, handle)
    metrics = {name: statistics.median(v) for name, v in samples.items()}
    metrics["trace.overhead_s"] = (statistics.median(traced)
                                   - statistics.median(plain))
    metrics["evaluation.threads2_speedup"] = threads2_speedup(runner)
    counts = {name: len(traced) for name in metrics}
    counts["evaluation.threads2_speedup"] = 1
    record["session_s"] = {"untraced": plain, "traced": traced}
    return metrics, counts


def run(workload, seed, seconds, trace):
    cli = import_ytx()
    calibration = []
    setup, setup_scaled = measure_setup(calibration)
    runner = Runner(cli, workload, seed, calibration)
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace}
    if trace:
        metrics, counts = measure_layers(runner, seconds, record)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
        wall = {}
    else:
        metrics, wall, counts = measure_commands(runner, seconds)
        metrics["setup_s"] = statistics.median(setup_scaled)
        wall["setup_s"] = statistics.median(setup)
        counts["setup_s"] = len(setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        counts["peak_rss_mb"] = 1
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }
    record.update(setup_s=setup, command_s=runner.times, wall_median_s=wall,
                  calibration_s=calibration, digests=runner.digests,
                  problems=runner.problems, result=result)
    with open(os.path.join(runner.dir, "record.json"), "w") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    print(f"workload {workload.name} seed {seed} trace {trace}")
    for name in units:
        note = f"  -> {PER_LAYER[name][2]}" if trace else ""
        if name in wall:
            note = f"  (wall median {wall[name]:.6g} s)"
        print(f"  {name:34s} {metrics[name]:14.6g} {units[name]:7s} "
              f"n={counts[name]}{note}")
    print(f"  {'fail_ratio':34s} {runner.failed / runner.attempted:14.6g} "
          f"{'ratio':7s} n={runner.attempted}")
    print(f"  host calibration_s: median {statistics.median(calibration):.5f}"
          f", min {min(calibration):.5f}, max {max(calibration):.5f}, "
          f"n={len(calibration)}; reference {REFERENCE_CALIBRATION_S}")
    for name, value in sorted(runner.digests.items()):
        print(f"  sha256 {name:16s} {value}")
    for problem in runner.problems:
        print(f"  FAILED {problem}")
    print(json.dumps(result))
    return 0


def run_all(seed, seconds, trace):
    """Every workload in its own process; returns the worst exit code."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)], cwd=ROOT, timeout=900)
        status = max(status, proc.returncode)
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all, in turn)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload is None:
        return run_all(args.seed, args.seconds, args.trace)
    return run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    sys.exit(main())
