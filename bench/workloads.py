"""Seeded synthetic CSVs and the three CLI sessions that run on them.

Every workload writes one CSV and runs the same closed-loop session on
it: ``ytx diagnose``, then ``ytx benchmark``, then ``ytx transform``, each
issued after the previous one returns.  Only the sampled values depend on
the seed; sizes, coefficient structure and the command lines are fixed,
so every seed does the same amount of work (same transform kinds, same
cells, a similar number of lasso sweeps).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

#: random stream for the fixed structure of a workload (coefficients,
#: loadings), kept apart from the seeded sampling stream.
_STRUCTURE_SEED = 20250429


@dataclass(frozen=True)
class Table:
    """A generated CSV: header, columns of formatted tokens, kept targets."""

    header: tuple
    columns: tuple            # one list of string tokens per header entry
    kept_target: np.ndarray   # float(token) of every row load_csv keeps

    def write(self, path):
        lines = [",".join(self.header)]
        lines.extend(",".join(row) for row in zip(*self.columns))
        with open(path, "w", newline="") as handle:
            handle.write("\n".join(lines) + "\n")


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    roles: dict
    models: tuple             # `ytx benchmark --model ...`
    kinds: tuple              # `ytx benchmark --transform ...`
    alpha: float              # `ytx benchmark --alpha`
    transform: str            # kind applied by `ytx transform`
    generate: object          # numpy Generator -> Table

    def roles_json(self):
        return json.dumps(self.roles, sort_keys=True)

    def write_csv(self, seed, directory):
        """Write the CSV for ``seed``; returns its path and kept targets."""
        table = self.generate(np.random.default_rng(seed))
        path = os.path.join(directory, f"{self.name}.csv")
        table.write(path)
        return path, table.kept_target

    def session(self, csv_path, out_dir):
        """The steps of one session, in order: (command, argv, outputs)."""
        common = ["--input", csv_path, "--roles", self.roles_json()]
        out = lambda name: os.path.join(out_dir, name)  # noqa: E731
        bench = [f"--{flag}={value}" for flag, values in
                 (("model", self.models), ("transform", self.kinds))
                 for value in values]
        return (
            ("diagnose", ["diagnose", *common,
                          "--out-json", out("diagnose.json")],
             ("diagnose.json",)),
            ("benchmark", ["benchmark", *common, *bench,
                           "--alpha", repr(self.alpha), "--seed", "42",
                           "--out-json", out("bench.json"),
                           "--out-md", out("bench.md")],
             ("bench.json", "bench.md")),
            ("transform", ["transform", *common,
                           "--transform", self.transform,
                           "--out-csv", out("transformed.csv"),
                           "--out-json", out("params.json")],
             ("transformed.csv", "params.json")),
        )


def _fmt(values):
    return np.char.mod("%.8g", np.asarray(values, dtype=float)).tolist()


def _table(names, columns, target_name, dropped=()):
    header = tuple(names)
    tokens = tuple(columns)
    t = header.index(target_name)
    keep = np.ones(len(tokens[t]), dtype=bool)
    keep[list(dropped)] = False
    kept = np.array([float(tok) for tok, k in zip(tokens[t], keep) if k])
    return Table(header, tokens, kept)


def skewed_table(rng, n=20000, d=20, levels=8, n_bad=100):
    """Lognormal, heteroscedastic target on d numeric features + a category.

    ``n_bad`` rows get a missing target ("NA") and another ``n_bad`` an
    empty feature, so ingestion drops exactly ``2 * n_bad`` rows.
    """
    fixed = np.random.default_rng(_STRUCTURE_SEED)
    beta = fixed.uniform(-0.25, 0.25, d)
    level_effect = fixed.uniform(-0.3, 0.3, levels)
    X = rng.standard_normal((n, d))
    level = rng.integers(0, levels, n)
    # The log-scale noise grows with the first feature.  The full one-hot
    # category makes Breusch-Pagan's auxiliary design rank-deficient, so
    # diagnose reports p=1 and `auto` adds the same three kinds on every
    # seed (skew and gap flags only).
    sigma = 0.4 * np.exp(0.35 * X[:, 0])
    y = np.exp(1.0 + X @ beta + level_effect[level]
               + sigma * rng.standard_normal(n))
    names = [f"x{j}" for j in range(d)] + ["grade", "y"]
    columns = [_fmt(X[:, j]) for j in range(d)]
    columns.append([f"g{k}" for k in level])
    columns.append(_fmt(y))
    bad = rng.choice(n, 2 * n_bad, replace=False)
    for i in bad[:n_bad]:
        columns[-1][i] = "NA"
    for i in bad[n_bad:]:
        columns[3][i] = ""
    return _table(names, columns, "y", bad)


def panel_table(rng, subjects=200, periods=50, trial_len=25, d=6):
    """Subjects x periods panel with frame, price index and two contexts."""
    fixed = np.random.default_rng(_STRUCTURE_SEED + 1)
    beta = fixed.uniform(-1.0, 1.0, d)
    n = subjects * periods
    sid = np.repeat(np.arange(subjects), periods)
    period = np.tile(np.arange(periods), subjects)
    subject_effect = rng.normal(0.0, 4.0, subjects)
    size = rng.uniform(0.5, 3.0, n)
    cpi = 100.0 * 1.01 ** np.arange(periods)
    context = rng.standard_normal((n, 2))
    X = rng.standard_normal((n, d))
    real = (30.0 + subject_effect[sid] + X @ beta
            + 4.0 * context[:, 0] + 2.0 * context[:, 1]
            + rng.normal(0.0, 1.5, n))
    y = np.maximum(real, 1.0) * size * cpi[period] / 100.0
    names = ["subject", "period", "trial", "size", "cpi", "c1", "c2",
             *[f"x{j}" for j in range(d)], "y"]
    columns = [
        [f"s{s:03d}" for s in sid],
        [f"p{p:02d}" for p in period],
        [f"s{s:03d}-{p // trial_len}" for s, p in zip(sid, period)],
        _fmt(size), _fmt(cpi[period]),
        _fmt(context[:, 0]), _fmt(context[:, 1]),
        *[_fmt(X[:, j]) for j in range(d)],
        _fmt(y),
    ]
    return _table(names, columns, "y")


def wide_table(rng, n=2000, d=50, factors=10):
    """d features driven by a few latent factors; lognormal target.

    The design matrix is fixed and the seed draws only the target noise.
    Coordinate-descent sweeps follow the conditioning of the sample Gram
    matrix, so drawing X per seed spread the session's lasso sweeps by
    +-20% across seeds; with X fixed they stay within a few percent.
    """
    fixed = np.random.default_rng(_STRUCTURE_SEED + 2)
    loadings = fixed.standard_normal((factors, d))
    weights = fixed.uniform(-0.5, 0.5, factors)
    F = fixed.standard_normal((n, factors))
    X = F @ loadings + 0.7 * fixed.standard_normal((n, d))
    y = np.exp(1.0 + F @ weights + 0.3 * rng.standard_normal(n))
    names = [f"x{j}" for j in range(d)] + ["y"]
    columns = [_fmt(X[:, j]) for j in range(d)] + [_fmt(y)]
    return _table(names, columns, "y")


WORKLOADS = {w.name: w for w in (
    Workload(
        name="skewed-session",
        why=("20k x 20 + 8-level category, lognormal heteroscedastic target, "
             "auto kinds: loads core ingestion, dist and ridge; bypasses "
             "ctx; lasso stops in few sweeps"),
        roles={"target": "y"},
        models=("ridge", "lasso"),
        kinds=("auto", "box-cox", "quantile-uniform"),
        alpha=1.0,
        transform="quantile-normal",
        generate=skewed_table,
    ),
    Workload(
        name="panel-session",
        why=("200 subjects x 50 periods, six contextual kinds: loads ctx "
             "group fits and key lookups and diagnostics ANOVA/trend; "
             "bypasses dist"),
        roles={"target": "y", "subject": "subject", "time": "period",
               "trial": "trial", "frame": "size", "price_index": "cpi",
               "context": ["c1", "c2"]},
        models=("ridge", "lasso"),
        kinds=("subject-center", "trial-minmax", "frame", "deflate",
               "expectation-norm", "regression-norm"),
        alpha=1.0,
        transform="subject-center",
        generate=panel_table,
    ),
    Workload(
        name="wide-lasso",
        why=("2000 x 50 factor-correlated features, alpha=0.1: loads lasso "
             "coordinate descent (hundreds of sweeps); ingestion, ctx and "
             "diagnostics stay small"),
        roles={"target": "y"},
        models=("lasso", "ridge"),
        kinds=("log-offset", "yeo-johnson", "quantile-normal"),
        alpha=0.1,
        transform="yeo-johnson",
        generate=wide_table,
    ),
)}
