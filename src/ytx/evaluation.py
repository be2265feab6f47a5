"""Metrics, built-in linear regressors and the 5x2cv benchmark harness.

The harness fits every transform on the training targets of each fold only,
trains the model on transformed targets, inverts the predictions, and
scores against the untransformed test targets with RSE and SMAPE.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import core, ctx, dist
from .errors import ConfigError, DataError

#: model identifiers the report schema accepts; only the first two are
#: trainable here, the others let an external runner merge its results.
RESERVED_MODELS = ("ridge", "lasso", "gbtr", "svr")

#: display names used in the markdown tables
DISPLAY_NAMES = {
    "identity": "Base", "quantile-normal": "QN", "quantile-uniform": "QU",
    "yeo-johnson": "YJ", "log-offset": "Ln",
}


# --------------------------------------------------------------------------
# Metrics

def rse(actual, predicted):
    """Relative squared error: squared error over that of the mean predictor."""
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.shape[0] < 2:
        raise DataError("rse needs two equal-length vectors of length >= 2")
    denom = float(np.sum((actual - actual.mean()) ** 2))
    if denom <= 0.0:
        raise DataError("zero denominator: constant actual values")
    return float(np.sum((actual - predicted) ** 2) / denom)


def smape(actual, predicted):
    """Symmetric mean absolute percentage error, in percent.

    Pairs where both values are zero contribute 0.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.shape[0] < 1:
        raise DataError("smape needs two equal-length non-empty vectors")
    scale = (np.abs(actual) + np.abs(predicted)) / 2.0
    diff = np.abs(actual - predicted)
    terms = np.divide(diff, scale, out=np.zeros_like(diff),
                      where=scale > 0.0)
    return float(np.mean(terms) * 100.0)


# --------------------------------------------------------------------------
# Linear models

@dataclass(frozen=True)
class LinearModel:
    kind: str
    alpha: float
    coefficients: np.ndarray      # in standardized feature space
    intercept: float
    feature_means: np.ndarray
    feature_stds: np.ndarray
    converged: bool = True
    n_sweeps: int = 0
    objective_history: tuple = ()   # lasso objective after each sweep


def _standardize(X):
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    # A constant column's computed std is the round-off in its mean, a few
    # ulps of it; such a column gets std 1 and an all-zero standardized
    # column so that no model can give it weight.
    varying = stds > 16.0 * np.spacing(np.abs(means))
    stds = np.where(varying, stds, 1.0)
    return np.where(varying, (X - means) / stds, 0.0), means, stds


@dataclass(frozen=True)
class _Design:
    """Standardized training features, shared by every fit on those rows."""

    Xs: np.ndarray
    means: np.ndarray
    stds: np.ndarray
    gram: np.ndarray              # Xs.T @ Xs


def _design(X):
    Xs, means, stds = _standardize(X)
    return _Design(Xs, means, stds, Xs.T @ Xs)


def fit_ridge(X, y, alpha=1.0):
    """Closed-form ridge on standardized features, intercept unpenalized."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.shape[0] < 2:
        raise DataError("ridge needs at least 2 rows")
    return _fit_ridge(_design(X), y, alpha)


def _fit_ridge(design, z, alpha):
    """Cholesky solve of (Xs'Xs + alpha I) beta = Xs'(z - mean z)."""
    if alpha < 0.0:
        raise ConfigError("alpha must be non-negative")
    zc = z - z.mean()
    gram = design.gram + alpha * np.eye(design.gram.shape[0])
    try:
        chol = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError as exc:
        raise DataError(
            "singular system at alpha=0; use alpha > 0") from exc
    beta = np.linalg.solve(chol.T, np.linalg.solve(chol, design.Xs.T @ zc))
    return LinearModel("ridge", alpha, beta, float(z.mean()),
                       design.means, design.stds)


def lasso_objective(Xs, yc, beta, alpha):
    n = Xs.shape[0]
    resid = yc - Xs @ beta
    return float(np.sum(resid ** 2) / (2 * n) + alpha * np.sum(np.abs(beta)))


def fit_lasso(X, y, alpha=1.0, tol=1e-7, max_sweeps=10000):
    """Cyclic coordinate descent on (1/2n)||y - Xb||^2 + alpha*||b||_1."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    return _fit_lasso(_design(X), y, alpha, tol, max_sweeps)


def _fit_lasso(design, z, alpha, tol=1e-7, max_sweeps=10000):
    """Covariance-update coordinate descent (Friedman et al. 2010, §2.2).

    With G = Xs'Xs/n and c = Xs'(z - mean z)/n, coordinate j's partial
    residual correlation is c_j - (G beta)_j + G_jj beta_j.  ``Gb`` holds
    G beta and moves by one row of G whenever a coefficient moves, so a
    sweep costs O(d^2) instead of O(nd).
    """
    if alpha <= 0.0:
        raise ConfigError("lasso alpha must be positive")
    Xs = design.Xs
    n, d = Xs.shape
    zc = z - z.mean()
    G = design.gram / n
    diag = G.diagonal().tolist()
    c = (Xs.T @ zc / n).tolist()
    beta = np.zeros(d)
    Gb = np.zeros(d)
    converged = False
    sweep = 0
    history = []
    for sweep in range(1, max_sweeps + 1):
        max_delta = 0.0
        for j in range(d):
            g_jj = diag[j]
            if g_jj == 0.0:
                continue
            old = beta.item(j)
            rho = c[j] - Gb.item(j) + g_jj * old
            if rho > alpha:
                new = (rho - alpha) / g_jj
            elif rho < -alpha:
                new = (rho + alpha) / g_jj
            else:
                new = 0.0
            if new != old:
                Gb += (new - old) * G[j]
                beta[j] = new
                max_delta = max(max_delta, abs(new - old))
        history.append(lasso_objective(Xs, zc, beta, alpha))
        if max_delta < tol:
            converged = True
            break
    return LinearModel("lasso", alpha, beta, float(z.mean()),
                       design.means, design.stds, converged=converged,
                       n_sweeps=sweep, objective_history=tuple(history))


def predict(model, X):
    X = np.asarray(X, dtype=float)
    Xs = (X - model.feature_means) / model.feature_stds
    return Xs @ model.coefficients + model.intercept


_MODEL_FITTERS = {"ridge": _fit_ridge, "lasso": _fit_lasso}


# --------------------------------------------------------------------------
# 5x2cv fold plan

_M64 = (1 << 64) - 1


def _splitmix64(x):
    x = (x + 0x9E3779B97F4A7C15) & _M64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _M64
    return x ^ (x >> 31)


@dataclass(frozen=True)
class FoldPlan:
    seed: int
    folds: tuple  # 10 (train_indices, test_indices) pairs, 5 repeats x 2


def make_fold_plan(n, seed):
    """Five repeats of a shuffled two-fold split of [0, n)."""
    if n < 4:
        raise DataError("fold plan needs n >= 4")
    folds = []
    for repeat in range(5):
        sub_seed = _splitmix64((seed & _M64) ^ repeat)
        rng = np.random.default_rng(sub_seed)
        perm = rng.permutation(n)
        half = (n + 1) // 2
        first = tuple(int(i) for i in perm[:half])
        second = tuple(int(i) for i in perm[half:])
        folds.append((first, second))
        folds.append((second, first))
    return FoldPlan(seed=seed, folds=tuple(folds))


# --------------------------------------------------------------------------
# Transform fitting inside the harness

def _aux_slice(kind, dataset, idx):
    if kind not in core.AUX_KINDS:
        return None
    role = {"subject-center": "subject", "trial-minmax": "trial",
            "frame": "frame", "deflate": "time",
            "expectation-norm": "context",
            "regression-norm": "context"}[kind]
    if role not in dataset.aux:
        raise ConfigError(f"{kind} requires the {role!r} role")
    return dataset.aux[role][list(idx)]


def fit_transform_kind(kind, y, dataset=None, idx=None):
    """Fit a transform of the given kind on training targets only."""
    if kind == "identity":
        return core.identity_transform(y)
    if kind == "log-offset":
        return dist.fit_log_offset(y)
    if kind == "sqrt":
        return dist.fit_sqrt(y)
    if kind == "box-cox":
        return dist.fit_box_cox(y)
    if kind == "yeo-johnson":
        return dist.fit_yeo_johnson(y)
    if kind == "quantile-normal":
        return dist.fit_quantile(y, "normal")
    if kind == "quantile-uniform":
        return dist.fit_quantile(y, "uniform")
    aux = _aux_slice(kind, dataset, idx)
    if kind == "subject-center":
        return ctx.fit_subject_center(y, aux)
    if kind == "trial-minmax":
        return ctx.fit_trial_minmax(y, aux)
    if kind == "frame":
        return ctx.fit_frame_normalize(y, aux)
    if kind == "deflate":
        if "price_index" not in dataset.aux:
            raise ConfigError("deflate requires the price_index role")
        times = dataset.aux["time"][list(idx)]
        prices = dataset.aux["price_index"][list(idx)]
        series = {}
        for t, p in zip(times, prices):
            series.setdefault(str(t), float(p))
        base = sorted(series, key=ctx._time_sort_key)[0]
        index = ctx.DeflationIndex(series=series, base_time=base)
        return ctx.fit_deflate(y, aux, index)
    if kind == "expectation-norm":
        return ctx.fit_expectation_normalize(y, aux)
    if kind == "regression-norm":
        return ctx.fit_regression_normalize(y, aux)
    raise ConfigError(f"unknown transform kind {kind!r}")


# --------------------------------------------------------------------------
# Benchmark

@dataclass(frozen=True)
class BenchmarkReport:
    dataset_name: str
    seed: int
    models: tuple
    transforms: tuple            # baseline first
    cells: dict = field(default_factory=dict)
    # cells[(model, transform)] = {"rse": [...], "smape": [...],
    #                              "clamped": int, "converged": bool}

    def mean_std(self, model, transform, metric):
        values = np.asarray(self.cells[(model, transform)][metric])
        return float(values.mean()), float(values.std(ddof=1))

    def to_dict(self):
        results = {}
        for model in self.models:
            results[model] = {}
            for transform in self.transforms:
                cell = self.cells[(model, transform)]
                entry = {}
                for metric in ("rse", "smape"):
                    mean, std = self.mean_std(model, transform, metric)
                    entry[metric] = {"mean": mean, "std": std,
                                     "folds": list(cell[metric])}
                entry["clamped"] = cell["clamped"]
                entry["converged"] = cell["converged"]
                results[model][transform] = entry
        return {
            "dataset": self.dataset_name,
            "seed": self.seed,
            "models": list(self.models),
            "reserved_models": list(RESERVED_MODELS),
            "transforms": list(self.transforms),
            "results": results,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, obj):
        cells = {}
        for model, per_transform in obj["results"].items():
            for transform, entry in per_transform.items():
                cells[(model, transform)] = {
                    "rse": list(entry["rse"]["folds"]),
                    "smape": list(entry["smape"]["folds"]),
                    "clamped": entry["clamped"],
                    "converged": entry["converged"],
                }
        return cls(dataset_name=obj["dataset"], seed=obj["seed"],
                   models=tuple(obj["models"]),
                   transforms=tuple(obj["transforms"]), cells=cells)

    def to_markdown(self, metric="rse"):
        """One table per model: rows = dataset, columns = transforms."""
        lines = []
        header = [""] + [DISPLAY_NAMES.get(t, t) for t in self.transforms]
        for model in self.models:
            lines.append(f"### {model} ({metric.upper()})")
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            row = [self.dataset_name]
            for transform in self.transforms:
                mean, std = self.mean_std(model, transform, metric)
                row.append(f"{mean:.3f} ± {std:.2f}")
            lines.append("| " + " | ".join(row) + " |")
            lines.append("")
        return "\n".join(lines)


def _evaluate_fold(dataset, plan, fold_index, model_kinds, transforms, alpha):
    train_idx, test_idx = plan.folds[fold_index]
    X = dataset.features
    y = dataset.target
    tr = list(train_idx)
    te = list(test_idx)
    X_train, y_train = X[tr], y[tr]
    X_test, y_test = X[te], y[te]
    design = _design(X_train)
    Xs_test = (X_test - design.means) / design.stds
    out = {}
    fitted = {}
    for kind in transforms:
        t = fit_transform_kind(kind, y_train, dataset, train_idx)
        aux_tr = _aux_slice(kind, dataset, train_idx)
        aux_te = _aux_slice(kind, dataset, test_idx)
        fitted[kind] = (t, core.forward(t, y_train, aux_tr), aux_te)
    for model_kind in model_kinds:
        fitter = _MODEL_FITTERS[model_kind]
        for kind in transforms:
            t, z_train, aux_te = fitted[kind]
            model = fitter(design, z_train, alpha)
            z_pred = Xs_test @ model.coefficients + model.intercept
            z_pred, n_clamped = core.clamp_to_inverse_range(t, z_pred)
            y_pred = core.inverse(t, z_pred, aux_te)
            out[(model_kind, kind)] = {
                "rse": rse(y_test, y_pred),
                "smape": smape(y_test, y_pred),
                "clamped": n_clamped,
                "converged": model.converged,
            }
    return out


def run_benchmark(dataset, models=("ridge", "lasso"), transforms=(),
                  seed=42, alpha=1.0, threads=None,
                  dataset_name="dataset"):
    """Run the 5x2cv comparison of baseline vs. transformed targets."""
    for model in models:
        if model not in _MODEL_FITTERS:
            raise ConfigError(f"unknown or untrainable model {model!r}")
    kinds = ["identity"] + [t for t in transforms if t != "identity"]
    for kind in kinds:
        if kind not in core.KNOWN_KINDS:
            raise ConfigError(f"unknown transform kind {kind!r}")
    plan = make_fold_plan(dataset.n, seed)

    def work(i):
        return _evaluate_fold(dataset, plan, i, models, kinds, alpha)

    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            fold_results = list(pool.map(work, range(10)))
    else:
        fold_results = [work(i) for i in range(10)]

    cells = {}
    for model in models:
        for kind in kinds:
            cells[(model, kind)] = {
                "rse": [fr[(model, kind)]["rse"] for fr in fold_results],
                "smape": [fr[(model, kind)]["smape"] for fr in fold_results],
                "clamped": sum(fr[(model, kind)]["clamped"]
                               for fr in fold_results),
                "converged": all(fr[(model, kind)]["converged"]
                                 for fr in fold_results),
            }
    return BenchmarkReport(
        dataset_name=dataset_name, seed=seed, models=tuple(models),
        transforms=tuple(kinds), cells=cells)
