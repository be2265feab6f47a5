"""The benchmark's metrics and, for each layer metric, what it should move.

``END_TO_END`` and ``PER_LAYER`` must match ``BENCHMARK.json`` at the
repository root (``selftest.py`` checks it).  Each layer metric records,
before any optimization is measured, which end-to-end metric on which
workload a change to that layer should move; on every other workload the
prediction is no change.
"""

#: name -> (unit, better, bound).  Times are at the reference host speed
#: (see run.py); their bounds stay wide because scaling removes only part
#: of the host's drift.  Memory repeats to <1%.
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "diagnose_s": ("s", "lower", 0.25),
    "benchmark_s": ("s", "lower", 0.25),
    "transform_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

#: name -> (unit, better, what it should move).  ``.s`` and ``.self_s``
#: metrics are self seconds per session, the median over the traced
#: sessions; counts are per session and repeat exactly.
PER_LAYER = {
    "core.load_csv.s": (
        "s", "lower", "diagnose_s, benchmark_s, transform_s on "
        "skewed-session; barely on wide-lasso"),
    "core.load_csv.rows_per_s": (
        "rows/s", "higher", "diagnose_s, benchmark_s, transform_s on "
        "skewed-session"),
    "core.rows_dropped": (
        "count", "lower", "nothing: 3 loads x 200 rows on skewed-session, "
        "0 elsewhere"),
    "core.forward.s": ("s", "lower", "benchmark_s on all workloads"),
    "core.inverse.s": ("s", "lower", "benchmark_s on all workloads"),
    "core.clamped": ("count", "lower", "nothing: prediction accounting"),
    "dist.normal_ppf.s": (
        "s", "lower", "benchmark_s, transform_s on skewed-session; not "
        "panel-session"),
    "dist.normal_ppf.values": (
        "count", "lower", "benchmark_s, transform_s on skewed-session"),
    "dist.normal_cdf.s": ("s", "lower", "benchmark_s on skewed-session"),
    "dist.fit_box_cox.s": ("s", "lower", "benchmark_s on skewed-session"),
    "dist.fit_yeo_johnson.s": (
        "s", "lower", "benchmark_s on skewed-session and wide-lasso"),
    "dist.fit_quantile.s": (
        "s", "lower", "benchmark_s, transform_s on skewed-session"),
    "dist.loglik.calls": ("count", "lower", "benchmark_s on skewed-session"),
    "ctx.fit_subject_center.s": (
        "s", "lower", "benchmark_s, transform_s on panel-session; 0 "
        "elsewhere"),
    "ctx.fit_trial_minmax.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "ctx.fit_deflate.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "ctx.fit_frame_normalize.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "ctx.fit_expectation_normalize.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "ctx.fit_regression_normalize.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "ctx.forward.s": (
        "s", "lower", "benchmark_s, transform_s on panel-session; 0 "
        "elsewhere"),
    "ctx.inverse.s": (
        "s", "lower", "benchmark_s on panel-session; 0 elsewhere"),
    "diagnostics.diagnose.s": (
        "s", "lower", "diagnose_s on panel-session and skewed-session"),
    "diagnostics.detect_subjective.s": (
        "s", "lower", "diagnose_s on panel-session"),
    "diagnostics.detect_trend.s": (
        "s", "lower", "diagnose_s on panel-session"),
    "diagnostics.detect_context.s": (
        "s", "lower", "diagnose_s on panel-session"),
    "diagnostics.detect_distribution.s": (
        "s", "lower", "diagnose_s on panel-session and skewed-session"),
    "diagnostics.breusch_pagan.s": (
        "s", "lower", "diagnose_s on panel-session and skewed-session"),
    "evaluation.fit_lasso.s": (
        "s", "lower", "benchmark_s on wide-lasso; small on skewed-session"),
    "evaluation.lasso.sweeps": (
        "count", "lower", "benchmark_s on wide-lasso; small on "
        "skewed-session"),
    "evaluation.lasso.converged_ratio": (
        "ratio", "higher", "nothing: share of lasso fits that converged"),
    "evaluation.standardize.s": (
        "s", "lower", "benchmark_s on skewed-session"),
    "evaluation.fit_ridge.s": ("s", "lower", "benchmark_s on skewed-session"),
    "evaluation.predict.s": ("s", "lower", "benchmark_s on skewed-session"),
    "evaluation.fit_transform_kind.s": (
        "s", "lower", "benchmark_s on skewed-session"),
    "evaluation.fold.s": (
        "s", "lower", "benchmark_s on skewed-session (per-fold wall, p50)"),
    "evaluation.cells": ("count", "higher", "nothing: (model, kind) cells"),
    "evaluation.threads2_speedup": (
        "ratio", "higher", "benchmark_s under YTX_THREADS=2 on wide-lasso; "
        "not gated"),
    "cli.diagnose.self_s": ("s", "lower", "diagnose_s on skewed-session"),
    "cli.benchmark.self_s": ("s", "lower", "benchmark_s on skewed-session"),
    "cli.transform.self_s": ("s", "lower", "transform_s on skewed-session"),
    "trace.overhead_s": (
        "s", "lower", "nothing: traced minus untraced session, at the "
        "reference host speed"),
}
