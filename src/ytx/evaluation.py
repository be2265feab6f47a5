"""Metrics, built-in linear regressors and the 5x2cv benchmark harness.

The harness fits every transform on the training targets of each fold only,
trains the model on transformed targets, inverts the predictions, and
scores against the untransformed test targets with RSE and SMAPE.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
from dataclasses import dataclass, field

import numpy as np

from . import core, ctx
from .errors import ConfigError, DataError

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
    return _Actual(actual).rse(predicted)


def smape(actual, predicted):
    """Symmetric mean absolute percentage error, in percent.

    Pairs where both values are zero contribute 0.
    """
    actual = np.asarray(actual, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if actual.shape != predicted.shape or actual.shape[0] < 1:
        raise DataError("smape needs two equal-length non-empty vectors")
    return _Actual(actual).smape(predicted)


class _Actual:
    """The scorer of predictions against the actual values ``y``: the
    constants every score reads, sum((y - mean y)^2) and |y|, are computed
    at their first use and kept for every later score."""

    def __init__(self, y):
        self.y = y

    @functools.cached_property
    def _denom(self):
        return float(np.sum((self.y - self.y.mean()) ** 2))

    @functools.cached_property
    def _abs(self):
        return np.abs(self.y)

    def rse(self, predicted):
        if self._denom <= 0.0:
            raise DataError("zero denominator: constant actual values")
        return float(np.sum((self.y - predicted) ** 2) / self._denom)

    def smape(self, predicted):
        scale = (self._abs + np.abs(predicted)) / 2.0
        diff = np.abs(self.y - predicted)
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
    # the public fit_lasso's objective after each sweep, one per sweep,
    # after an accepted active-set jump too; empty from the harness
    objective_history: tuple = ()


def _standardize(X):
    means = X.mean(axis=0)
    stds = X.std(axis=0)
    # A constant column's computed std is the round-off in its mean, a few
    # ulps of it; such a column gets std 1 and an all-zero standardized
    # column so that no model can give it weight.
    varying = stds > 16.0 * np.spacing(np.abs(means))
    stds = np.where(varying, stds, 1.0)
    Xs = X - means
    Xs /= stds
    Xs[:, ~varying] = 0.0
    return Xs, means, stds


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


def _fit_input(model, X, y):
    """``X`` and ``y`` of a public fit as float arrays: X is 2-D with at
    least 2 rows, y holds one target per row, and every value is finite."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError(f"{model} needs a 2-D feature matrix, got {X.ndim}-D")
    if X.shape[0] < 2:
        raise DataError(f"{model} needs at least 2 rows")
    if y.shape != X.shape[:1]:
        raise DataError(f"{model} needs one target per row: X has "
                        f"{X.shape[0]} rows, y has shape {y.shape}")
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise DataError(f"{model} needs finite features and targets")
    return X, y


def fit_ridge(X, y, alpha=1.0):
    """Closed-form ridge on standardized features, intercept unpenalized."""
    X, y = _fit_input("ridge", X, y)
    return _fit_ridge(_design(X), y, alpha)


def _fit_ridge(design, z, alpha):
    """Cholesky solve of (Xs'Xs + alpha I) beta = Xs'(z - mean z)."""
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha}")
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


def fit_lasso(X, y, alpha=1.0):
    """Cyclic coordinate descent on (1/2n)||y - Xb||^2 + alpha*||b||_1."""
    X, y = _fit_input("lasso", X, y)
    return _fit_lasso(_design(X), y, alpha, history=[])


#: a lasso fit has converged once its duality gap is at most this share of
#: zz/2, the objective of the all-zero fit
LASSO_GAP_TOL = 1e-4


#: Anderson extrapolation combines this many differences of the sweep
#: iterates (Bertrand & Massias 2021)
ANDERSON_DEPTH = 5


def _lasso_primal(b, c, Gb, zz, alpha):
    """The lasso objective rr/2 + alpha |b|_1 at the array ``b``, with the
    b'c and rr it is built from, in O(d) from c, G b and zz as
    ``_fit_lasso`` defines them."""
    bc = float(b @ c)
    rr = zz - 2.0 * bc + float(b @ Gb)
    return rr / 2.0 + alpha * float(np.abs(b).sum()), bc, rr


def _lasso_gap(beta, c, Gb, zz, alpha):
    """The lasso's duality gap at ``beta`` (a list), in O(d) from c, G beta
    and zz as ``_fit_lasso`` defines them."""
    primal, bc, rr = _lasso_primal(np.array(beta), c, Gb, zz, alpha)
    top = float(np.abs(c - Gb).max(initial=0.0))
    s = alpha / top if top > alpha else 1.0
    dual = s * (zz - bc) - s * s * rr / 2.0
    return primal - dual


def _extrapolate(iterates, G, c, Gb, zz, alpha):
    """The Anderson point of the ``ANDERSON_DEPTH + 1`` ``iterates`` and G
    at it, or None where it is undefined or its objective is not strictly
    below the last iterate's (whose G beta is ``Gb``).

    With U the differences of the iterates, w solves (U U') w = 1, and
    the point is sum_i (w / sum w)_i beta_{i+1}.  A singular solve is
    undefined; a zero or non-finite sum w, or an overflow, gives a point
    with a non-finite entry, whose objective is NaN or +inf and so never
    lower.  numpy warns of none of these."""
    B = np.array(iterates)
    U = np.diff(B, axis=0)
    with np.errstate(all="ignore"):
        try:
            w = np.linalg.solve(U @ U.T, np.ones(ANDERSON_DEPTH))
        except np.linalg.LinAlgError:
            return None
        b = (w / w.sum()) @ B[1:]
        Gb_acc = G @ b
        lower = (_lasso_primal(b, c, Gb_acc, zz, alpha)[0]
                 < _lasso_primal(B[-1], c, Gb, zz, alpha)[0])
    return (b, Gb_acc) if lower else None


def _active_set(beta, G, c, Gb, zz, alpha):
    """The lasso solution by the sign-fixing active-set solve (Osborne,
    Presnell & Turlach 2000) and G at it, or None where the solve fails or
    its objective is not strictly below that of ``beta`` (a list, whose
    G beta is ``Gb``).

    From zero, the support takes the inactive j with the largest
    |c_j - (G b)_j| above alpha, with that sign s_j, and b_A solves
    G_AA b_A = c_A - alpha s_A.  A solution with a coordinate of the wrong
    sign is reached only as far as the first zero crossing on the segment
    towards it, and that one coordinate leaves the support (feature-sign
    search, Lee et al. 2007).  The solve ends when no inactive coordinate
    is above alpha.  After 2d solves, or on a singular G_AA, the solve has
    failed; a non-finite point has a NaN or +inf objective and so is never
    lower.  numpy warns of none of these."""
    d = len(c)
    b, s = np.zeros(d), np.zeros(d)
    A = []      # the support, in ascending order
    solves = 0
    with np.errstate(all="ignore"):
        while True:
            grad = c - G @ b
            grad[A] = 0.0
            j = int(np.abs(grad).argmax())
            if not abs(grad[j]) > alpha:
                break
            s[j] = np.sign(grad[j])
            bisect.insort(A, j)
            while solves < 2 * d:
                solves += 1
                active = np.array(A)
                s_A = s[active]
                try:
                    x = np.linalg.solve(G[active][:, active],
                                        c[active] - alpha * s_A)
                except np.linalg.LinAlgError:
                    return None
                flipped = np.flatnonzero(x * s_A <= 0.0)
                if not flipped.size:
                    b[active] = x
                    break
                b_A = b[active]
                t = b_A[flipped] / (b_A[flipped] - x[flipped])
                b[active] = b_A + t.min() * (x - b_A)
                drop = A.pop(flipped[t.argmin()])
                b[drop] = s[drop] = 0.0
            else:
                return None
        Gb_jump = G @ b
        lower = (_lasso_primal(b, c, Gb_jump, zz, alpha)[0]
                 < _lasso_primal(np.array(beta), c, Gb, zz, alpha)[0])
    return (b, Gb_jump) if lower else None


def _fit_lasso(design, z, alpha, history=None):
    """Covariance-update coordinate descent (Friedman et al. 2010, §2.2).

    With G = Xs'Xs/n and c = Xs'(z - mean z)/n, coordinate j's partial
    residual correlation is c_j - (G beta)_j + G_jj beta_j.  ``Gb`` holds
    G beta and moves by one row of G whenever a coefficient moves, so a
    sweep costs O(d^2) instead of O(nd).

    The stop is the relative duality gap, as in scikit-learn's Lasso
    (Pedregosa et al. 2011).  With zc = z - mean z, zz = zc'zc/n and the
    residual r = zc - Xs beta, ``_lasso_gap`` computes after each sweep,
    in O(d) from what the sweep holds:

    - rr = r'r/n = zz - 2 beta'c + beta'G beta, and Xs'r/n = c - G beta
    - primal = rr/2 + alpha |beta|_1
    - s = min(1, alpha / max|c - G beta|), or 1 when that max is 0, which
      scales r into the dual's feasible set
    - dual = s r'zc/n - s^2 rr/2 = s (zz - beta'c) - s^2 rr/2

    The fit has converged at the first sweep with primal - dual at most
    ``LASSO_GAP_TOL * zz / 2``, a share of the all-zero fit's objective,
    so scaling z and alpha by one power of two moves no sweep and scales
    beta exactly.  It stops unconverged after 10,000 sweeps.  The O(nd)
    objective after each sweep is appended to ``history`` only when a
    list is given; the benchmark harness reads no history and passes
    none.

    When the first sweep has not converged, ``_active_set`` solves for
    the lasso solution, and the fit jumps to it only when it is finite
    and its objective is strictly below the first sweep's; the next
    sweep's gap check then certifies it.  A fit the first sweep settles
    never solves.  Later sweeps are Anderson-accelerated (Bertrand &
    Massias 2021): after every ``ANDERSON_DEPTH + 1`` sweeps that have
    not converged, ``_extrapolate`` combines their iterates, and the fit
    moves to that point only when it lowers the objective, so no sweep
    raises it.  On wide-lasso's 40 harness fits (seed 7) every jump was
    accepted and the fits took 2 sweeps each, 80 in all, against 1,356
    without the jump.

    beta, c and G's diagonal are held as lists of Python floats and G as a
    list of its row views, so numpy is called only to read (G beta)_j and
    to move ``Gb``.  Each arithmetic step is the float64 operation an
    array-held beta would take, in the same order, so the iterates are
    the same bits.
    """
    if not np.isfinite(alpha):
        raise ConfigError(f"alpha must be finite, got {alpha}")
    if alpha <= 0.0:
        raise ConfigError("lasso alpha must be positive")
    alpha = float(alpha)
    Xs = design.Xs
    n, d = Xs.shape
    zc = z - z.mean()
    zz = float(zc @ zc) / n
    gap_tol = LASSO_GAP_TOL * zz / 2.0
    G = design.gram / n
    rows = list(G)
    diag = G.diagonal().tolist()
    c_arr = Xs.T @ zc / n
    c = c_arr.tolist()
    beta = [0.0] * d
    Gb = np.zeros(d)
    iterates = []
    converged = False
    sweep = 0
    for sweep in range(1, 10001):
        for j in range(d):
            g_jj = diag[j]
            if g_jj == 0.0:
                continue
            old = beta[j]
            rho = c[j] - Gb.item(j) + g_jj * old
            if rho > alpha:
                new = (rho - alpha) / g_jj
            elif rho < -alpha:
                new = (rho + alpha) / g_jj
            else:
                new = 0.0
            if new != old:
                Gb += (new - old) * rows[j]
                beta[j] = new
        if history is not None:
            history.append(lasso_objective(Xs, zc, np.array(beta), alpha))
        if _lasso_gap(beta, c_arr, Gb, zz, alpha) <= gap_tol:
            converged = True
            break
        if sweep == 1:
            jump = _active_set(beta, G, c_arr, Gb, zz, alpha)
            if jump is not None:
                b, Gb = jump
                beta = b.tolist()
                continue
        iterates.append(beta.copy())
        if len(iterates) > ANDERSON_DEPTH:
            accelerated = _extrapolate(iterates, G, c_arr, Gb, zz, alpha)
            iterates = []
            if accelerated is not None:
                b, Gb = accelerated
                beta = b.tolist()
    return LinearModel("lasso", alpha, np.array(beta), float(z.mean()),
                       design.means, design.stds, converged=converged,
                       n_sweeps=sweep, objective_history=tuple(history or ()))


def predict(model, X):
    X = np.asarray(X, dtype=float)
    Xs = (X - model.feature_means) / model.feature_stds
    return Xs @ model.coefficients + model.intercept


_MODEL_FITTERS = {"ridge": _fit_ridge, "lasso": _fit_lasso}
#: the trainable models, in report order
MODELS = tuple(_MODEL_FITTERS)
#: a (model, kind) cell's keys, each with the rule that merges its ten
#: fold values and its JSON type in bench.json; a metric is a JSON object,
#: its mean, std and folds
CELL = {"rse": (list, dict), "smape": (list, dict), "clamped": (sum, int),
        "converged": (all, bool)}
METRICS = tuple(key for key, (_, kind) in CELL.items() if kind is dict)


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


def _repeat_halves(n, seed):
    """The two halves of each of the five repeats of a shuffled two-fold
    split of [0, n), as index arrays into that repeat's permutation."""
    if n < 4:
        raise DataError("fold plan needs n >= 4")
    half = (n + 1) // 2
    halves = []
    for repeat in range(5):
        sub_seed = _splitmix64((seed & _M64) ^ repeat)
        perm = np.random.default_rng(sub_seed).permutation(n)
        halves.append((perm[:half], perm[half:]))
    return halves


def make_fold_plan(n, seed):
    """Five repeats of a shuffled two-fold split of [0, n)."""
    folds = []
    for first, second in _repeat_halves(n, seed):
        first, second = tuple(first.tolist()), tuple(second.tolist())
        folds += [(first, second), (second, first)]
    return FoldPlan(seed=seed, folds=tuple(folds))


# --------------------------------------------------------------------------
# Transform fitting inside the harness

def _role_columns(kind, roles, columns):
    """``columns``' entries for ``roles``; ``columns`` maps role to column."""
    for role in roles:
        if columns is None or role not in columns:
            raise ConfigError(f"{kind} requires the {role!r} role")
    return [columns[role] for role in roles]


def aux_column(kind, columns):
    """The column a kind's forward and inverse read (its first role's
    entry of ``columns``), or None for a kind without roles."""
    columns = _role_columns(kind, core.kind_fit(kind)[1][:1], columns)
    return columns[0] if columns else None


def fit_transform_kind(kind, y, columns=None):
    """Fit a transform of the given kind on training targets only; the
    role columns in ``columns``, as in ``Dataset.aux``, hold ``y``'s rows."""
    fit, roles = core.kind_fit(kind)[:2]
    return fit(y, *_role_columns(kind, roles, columns))


# --------------------------------------------------------------------------
# Benchmark

@dataclass(frozen=True)
class BenchmarkReport:
    dataset_name: str
    seed: int
    models: tuple
    transforms: tuple            # baseline first
    cells: dict = field(default_factory=dict)  # (model, transform) -> CELL

    def mean_std(self, model, transform, metric):
        values = np.asarray(self.cells[(model, transform)][metric])
        return float(values.mean()), float(values.std(ddof=1))

    def to_dict(self):
        results = {}
        for model in self.models:
            results[model] = {}
            for transform in self.transforms:
                cell = self.cells[(model, transform)]
                entry = {key: cell[key] for key in CELL}
                for metric in METRICS:
                    mean, std = self.mean_std(model, transform, metric)
                    entry[metric] = {"mean": mean, "std": std,
                                     "folds": list(cell[metric])}
                results[model][transform] = entry
        return {
            "dataset": self.dataset_name,
            "seed": self.seed,
            "models": list(self.models),
            "transforms": list(self.transforms),
            "results": results,
        }

    def to_json(self):
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    @classmethod
    def from_dict(cls, obj):
        """Read the layout :meth:`to_dict` writes; a DataError names the
        first entry that is missing or of the wrong JSON type."""
        if not isinstance(obj, dict):
            raise DataError("report is not a JSON object")
        results = core._json_entry(obj, "results", dict, "report")
        cells = {}
        for model in results:
            per_model = core._json_entry(results, model, dict, "report",
                                         f"results for {model!r}")
            for transform in per_model:
                where = f"results for {model!r}, {transform!r}"
                entry = core._json_entry(per_model, transform, dict, "report",
                                         where)
                cell = {}
                for key, (_, kind) in CELL.items():
                    cell[key] = core._json_entry(entry, key, kind, "report",
                                                 f"{where}, {key!r}")
                    if key in METRICS:
                        folds = f"{where}, {key!r} folds"
                        cell[key] = list(core._json_entry(
                            cell[key], "folds", list[float], "report", folds))
                        if len(cell[key]) < 2:  # mean_std's std has ddof=1
                            raise DataError(f"{folds} has fewer than 2 values")
                cells[(model, transform)] = cell
        name, seed, models, transforms = (
            core._json_entry(obj, key, kind, "report")
            for key, kind in (("dataset", str), ("seed", int),
                              ("models", list[str]),
                              ("transforms", list[str])))
        for pair in itertools.product(models, transforms):
            if pair not in cells:
                raise DataError("report lacks results for %r, %r" % pair)
        return cls(dataset_name=name, seed=seed, models=tuple(models),
                   transforms=tuple(transforms), cells=cells)

    def to_markdown(self, metric="rse"):
        """One table per model: rows = dataset, columns = transforms; a
        cell whose ``converged`` is false is marked, with a footnote under
        its table."""
        lines = []
        header = [""] + [DISPLAY_NAMES.get(t, t) for t in self.transforms]
        for model in self.models:
            lines.append(f"### {model} ({metric.upper()})")
            lines.append("| " + " | ".join(header) + " |")
            lines.append("|" + "---|" * len(header))
            row, marked = [self.dataset_name], False
            for transform in self.transforms:
                mean, std = self.mean_std(model, transform, metric)
                converged = self.cells[(model, transform)]["converged"]
                marked |= not converged
                row.append(f"{mean:.3f} ± {std:.2f}"
                           + ("" if converged else "†"))
            lines.append("| " + " | ".join(row) + " |")
            lines.append("")
            if marked:
                lines.append("† not every fold's fit reached a relative "
                             "duality gap of 1e-4 within 10,000 sweeps")
                lines.append("")
        return "\n".join(lines)


class _Half:
    """One half of a 5x2cv repeat, read by both of the repeat's folds: its
    ``rows`` of the dataset, their targets ``y`` with the scorer ``actual``
    of predictions on them, and ``columns``, each role column of ``aux``
    sliced to them.  Features are sliced by the fold, so a repeat holds no
    feature matrix."""

    def __init__(self, dataset, rows):
        self.rows = rows
        self.y = dataset.target[rows]
        self.actual = _Actual(self.y)
        self.columns = {role: col[rows] for role, col in dataset.aux.items()}


def _evaluate_fold(dataset, train, test, model_kinds, transforms, alpha):
    """One fold's cells as ``{(model, kind): {key: value}}`` over the keys
    of ``CELL``, trained on the ``_Half`` ``train`` and scored on ``test``:
    each kind is fitted and applied to the training targets once, then
    scored under every model."""
    design = _design(dataset.features[train.rows])
    Xs_test = dataset.features[test.rows]
    Xs_test -= design.means
    Xs_test /= design.stds
    out = {}
    for kind in transforms:
        t = fit_transform_kind(kind, train.y, train.columns)
        z_train = core.forward(t, train.y, aux_column(kind, train.columns))
        aux_te = aux_column(kind, test.columns)
        for model_kind in model_kinds:
            model = _MODEL_FITTERS[model_kind](design, z_train, alpha)
            z_pred = Xs_test @ model.coefficients + model.intercept
            z_pred, n_clamped = core.clamp_to_inverse_range(t, z_pred)
            y_pred = core.inverse(t, z_pred, aux_te)
            out[(model_kind, kind)] = {
                "rse": test.actual.rse(y_pred),
                "smape": test.actual.smape(y_pred),
                "clamped": n_clamped, "converged": model.converged}
    return out


def run_benchmark(dataset, models=MODELS, transforms=(),
                  seed=42, alpha=1.0, threads=None,
                  dataset_name="dataset"):
    """Run the 5x2cv comparison of baseline vs. transformed targets; a
    repeated model or kind is scored and listed once, identity first.

    A repeat is the unit of work: its two halves are sliced once, and its
    two folds, each half trained on and scored on in turn, are evaluated
    in fold order.  With ``threads`` above 1 a pool of that many threads
    runs the five repeats."""
    models = tuple(dict.fromkeys(models))
    kinds = tuple(dict.fromkeys(("identity", *transforms)))
    for model in models:
        if model not in _MODEL_FITTERS:
            raise ConfigError(f"unknown or untrainable model {model!r}")
    dataset = ctx._group_keys(dataset, kinds)

    def work(halves):
        first, second = (_Half(dataset, rows) for rows in halves)
        return [_evaluate_fold(dataset, train, test, models, kinds, alpha)
                for train, test in ((first, second), (second, first))]

    repeats = _repeat_halves(dataset.n, seed)
    if threads and threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=threads) as pool:
            per_repeat = list(pool.map(work, repeats))
    else:
        per_repeat = [work(halves) for halves in repeats]
    fold_results = list(itertools.chain.from_iterable(per_repeat))

    cells = {key: {name: merge(fr[key][name] for fr in fold_results)
                   for name, (merge, _) in CELL.items()}
             for key in itertools.product(models, kinds)}
    return BenchmarkReport(dataset_name, seed, models, kinds, cells)
