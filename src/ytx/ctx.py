"""Subjective and contextual target transforms.

Subject centering, per-trial min-max scaling, frame-of-reference division,
price-index deflation, and the two context-model normalizations
(standardize by conditional moments, divide by a linear prediction).
All forwards/inverses take a per-row auxiliary argument: group keys for
subject/trial/deflate, frame sizes for frame, and the context matrix for
the regression-based kinds.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (FittedTransform, _finite_target, _raise_first_bad,
                   kind_fit, read_rows, register_kind, target_range)
from .errors import DataError


class _Grouping:
    """A key column's rows grouped by key: the distinct ``keys`` in sorted
    order (the order ``np.unique`` gives), each row's code into them, a
    stable argsort ``order`` of the codes and the group ``bounds`` in it:
    ``order[bounds[g]:bounds[g + 1]]`` are group g's rows in row order.
    Built from sorted keys and codes into them, dropping the keys no row
    has.  ``len()`` is the row count, and ``g[rows]`` (an intp array or a
    slice) groups those rows, as ``_factorize`` groups their keys."""

    __slots__ = ("keys", "codes", "order", "bounds")

    def __init__(self, keys, codes):
        counts = np.bincount(codes, minlength=len(keys))
        used = np.flatnonzero(counts)
        # Codes of the narrowest unsigned type: numpy's stable sort of 8- and
        # 16-bit integers is a radix sort, ten times faster than that of intp.
        rank = np.empty(len(keys), dtype=np.min_scalar_type(len(used)))
        rank[used] = np.arange(len(used))
        self.keys = [keys[g] for g in used.tolist()]
        self.codes = rank[codes]
        self.order = np.argsort(self.codes, kind="stable")
        self.bounds = np.zeros(len(used) + 1, dtype=np.intp)
        np.cumsum(counts[used], out=self.bounds[1:])

    def __len__(self):
        return len(self.codes)

    def __getitem__(self, rows):
        return _Grouping(self.keys, self.codes[rows])


def _factorize(keys):
    """``keys`` grouped by ``str(key)`` in one dict pass, as a
    ``_Grouping``; a ``_Grouping`` is returned as itself."""
    if isinstance(keys, _Grouping):
        return keys
    index = {}
    first_seen = [index.setdefault(str(k), len(index)) for k in keys]
    distinct = sorted(index)
    rank = np.empty(len(distinct), dtype=np.intp)
    rank[[index[k] for k in distinct]] = np.arange(len(distinct))
    return _Grouping(
        distinct, rank[np.fromiter(first_seen, np.intp, len(first_seen))])


def _group_keys(dataset, kinds):
    """A copy of ``dataset`` whose key columns that ``kinds`` read (the
    roles ``_groups`` reads) are ``_Grouping``s, so that each is grouped
    once however many row subsets are taken of it."""
    keyed = {"subject", "trial", "time"}.intersection(
        itertools.chain.from_iterable(kind_fit(kind)[1] for kind in kinds))
    aux = {role: _factorize(col) if role in keyed else col
           for role, col in dataset.aux.items()}
    return replace(dataset, aux=aux)


def _check_length(values, y, name):
    """DataError unless ``values`` has one entry per target row."""
    if len(values) != len(y):
        raise DataError(f"{name} length mismatch")


def _groups(y, keys, name):
    """``y`` as floats and the ``_factorize`` of ``keys``; a DataError if
    ``keys`` is not one per row (``"<name> length mismatch"``), then if there
    are no rows."""
    y = np.asarray(y, dtype=float)
    groups = _factorize(keys)
    _check_length(groups, y, name)
    if y.shape[0] == 0:
        raise DataError("empty dataset")
    return y, groups


def _require_keys(table, groups, missing):
    """DataError ``f"{missing} {key!r}"`` naming the key of the first row
    (in row order) of ``groups`` (a ``_Grouping``) not in ``table``."""
    unseen = [k not in table for k in groups.keys]
    if any(unseen):
        row = np.argmax(np.array(unseen)[groups.codes])
        raise DataError(f"{missing} {groups.keys[groups.codes[row]]!r}")


def _per_row(table, groups, missing=None, fallback=None):
    """Each row's entry of the per-key ``table`` as floats, one lookup per
    distinct key of ``groups``; a key not in ``table`` takes ``fallback``,
    or with none is ``_require_keys``'s DataError with ``missing``."""
    if fallback is None:
        _require_keys(table, groups, missing)
    values = [table.get(k, fallback) for k in groups.keys]
    # np.take, not values[codes]: ten times faster on a 2-D table's rows.
    return np.take(np.array(values, dtype=float), groups.codes, axis=0)


# --------------------------------------------------------------------------
# Subject centering

def fit_subject_center(y, subject):
    y, subject = _groups(
        _finite_target(y, "subject-center"), subject, "subject vector")
    # A group's slice holds y[keys == key] in row order, so each mean is
    # bit-identical to np.mean(y[keys == key]).
    grouped = y[subject.order]
    bounds = subject.bounds.tolist()
    means = {key: float(np.mean(grouped[lo:hi]))
             for key, lo, hi in zip(subject.keys, bounds, bounds[1:])}
    return FittedTransform(
        "subject-center",
        {"means": means, "global_mean": float(np.mean(y))},
        target_range(y))


register_kind(
    "subject-center", lambda y, subject: fit_subject_center(y, subject),
    lambda p, y, aux: y - _per_row(p["means"], _factorize(aux),
                                   fallback=p["global_mean"]),
    lambda p, z, aux: z + _per_row(p["means"], _factorize(aux),
                                   fallback=p["global_mean"]),
    roles=("subject",))


# --------------------------------------------------------------------------
# Per-trial min-max

def fit_trial_minmax(y, trial):
    y, trial = _groups(
        _finite_target(y, "trial-minmax"), trial, "trial vector")
    grouped = y[trial.order]
    lows = np.minimum.reduceat(grouped, trial.bounds[:-1]).tolist()
    highs = np.maximum.reduceat(grouped, trial.bounds[:-1]).tolist()
    ranges = {}
    for key, lo, hi in zip(trial.keys, lows, highs):
        if hi <= lo:
            raise DataError(f"constant trial {key!r}")
        ranges[key] = [lo, hi]
    return FittedTransform("trial-minmax", {"ranges": ranges},
                           target_range(y))


def _trial_bounds(params, keys):
    bounds = _per_row(params["ranges"], _factorize(keys), "unseen trial")
    bounds = bounds.reshape(-1, 2)  # no rows give a 1-D empty array
    return bounds[:, 0], bounds[:, 1]


def _trial_forward(params, y, aux):
    lo, hi = _trial_bounds(params, aux)
    return (y - lo) / (hi - lo)


def _trial_inverse(params, z, aux):
    lo, hi = _trial_bounds(params, aux)
    return z * (hi - lo) + lo


register_kind("trial-minmax", lambda y, trial: fit_trial_minmax(y, trial),
              _trial_forward, _trial_inverse, roles=("trial",))


# --------------------------------------------------------------------------
# Frame normalization

def fit_frame_normalize(y, frame):
    y = _finite_target(y, "frame")
    frame = np.asarray(frame, dtype=float)
    _check_length(frame, y, "frame vector")
    _checked_frame(frame)
    return FittedTransform("frame", {}, target_range(y))


def _checked_frame(frame):
    """``frame`` as floats; TransformDomainError at its first non-finite
    value, then at its first value <= 0."""
    frame = np.asarray(frame, dtype=float)
    _raise_first_bad(~np.isfinite(frame),
                     "frame: non-finite frame value at index {index}")
    _raise_first_bad(frame <= 0.0,
                     "frame: non-positive frame value at index {index}")
    return frame


register_kind("frame", lambda y, frame: fit_frame_normalize(y, frame),
              lambda p, y, aux: y / _checked_frame(aux),
              lambda p, z, aux: z * _checked_frame(aux), roles=("frame",))


# --------------------------------------------------------------------------
# Deflation by a price index

@dataclass(frozen=True)
class DeflationIndex:
    """Per-period price index and the base period to deflate to."""

    series: dict
    base_time: str

    def __post_init__(self):
        series = {str(k): float(v) for k, v in self.series.items()}
        object.__setattr__(self, "series", series)
        object.__setattr__(self, "base_time", str(self.base_time))
        if self.base_time not in series:
            raise DataError(f"base time {self.base_time!r} not in index")
        if not all(map(math.isfinite, series.values())):
            raise DataError("price index values must be finite")
        if any(v <= 0.0 for v in series.values()):
            raise DataError("price index values must be positive")

    @classmethod
    def from_csv(cls, path, base_time=None):
        """Load a two-column (time_key, index_value) CSV; its first row may
        be a header, and any later value that does not parse is a
        DataError naming its row (the file's first row is row 1)."""
        series = {}
        rows = [(number, row) for number, row in enumerate(
            itertools.chain.from_iterable(read_rows(path)), 1) if row]
        for number, row in rows:
            if len(row) < 2:
                raise DataError(f"{path}: malformed index row {row!r}")
            try:
                value = float(row[1])
            except ValueError:
                if number == rows[0][0]:
                    continue  # header row
                raise DataError(f"{path}: row {number}: index value "
                                f"{row[1]!r} is not a number") from None
            series[row[0].strip()] = value
        if not series:
            raise DataError(f"{path}: no usable index rows")
        if base_time is None:
            base_time = sorted(series, key=_time_sort_key)[0]
        return cls(series=series, base_time=base_time)


def _time_sort_key(key):
    """Numeric keys by value, then the others as strings; a key that parses
    as NaN, which no order ranks, is one of the others."""
    try:
        value = float(key)
    except ValueError:
        value = math.nan
    return (1, 0.0, key) if math.isnan(value) else (0, value, "")


def fit_deflate(y, time, index):
    y, groups = _groups(_finite_target(y, "deflate"), time, "time vector")
    _require_keys(index.series, groups, "unknown time key")
    return FittedTransform(
        "deflate",
        {"series": dict(index.series), "base_time": index.base_time},
        target_range(y))


def _deflate_factors(params, keys):
    series = params["series"]
    return series[params["base_time"]] / _per_row(
        series, _factorize(keys), "unknown time key")


def _fit_deflate_rows(y, time, prices):
    """Deflate by each period's first price on the rows, to the earliest
    period; periods go in order of first appearance, so the base among
    tied sort keys ("1"/"1.0") is the one seen first."""
    y, time = _groups(_finite_target(y, "deflate"), time, "time vector")
    series = {time.keys[time.codes[i]]: float(prices[i])
              for i in np.sort(time.order[time.bounds[:-1]]).tolist()}
    base = sorted(series, key=_time_sort_key)[0]
    return fit_deflate(y, time, DeflationIndex(series=series, base_time=base))


register_kind(
    "deflate", _fit_deflate_rows,
    lambda p, y, aux: y * _deflate_factors(p, aux),
    lambda p, z, aux: z / _deflate_factors(p, aux),
    roles=("time", "price_index"))


# --------------------------------------------------------------------------
# Context-model normalizations

def _design(context):
    """The intercept column followed by the context columns; a 1-D context
    is one column."""
    context = np.asarray(context, dtype=float)
    if context.ndim not in (1, 2):
        raise DataError("context must be a 2-D matrix")
    return np.column_stack([np.ones(context.shape[0]), context])


def _lstsq(X, y):
    """Least-squares coefficients of ``y`` on ``X``, or None when ``X`` has
    fewer independent columns than columns.  The rank is the one ``lstsq``
    finds: singular values <= eps * max(n, k) * sigma_max count as zero, the
    rule ``np.linalg.matrix_rank`` uses."""
    beta, _, rank, _ = np.linalg.lstsq(X, y, rcond=None)
    return beta if rank == X.shape[1] else None


def _ols(X, y):
    _check_length(X, y, "context matrix")
    if X.shape[0] <= X.shape[1]:
        raise DataError("too few rows for the context model")
    beta = _lstsq(X, y)
    if beta is None:
        raise DataError("collinear context")
    return beta


def fit_expectation_normalize(y, context):
    """Standardize by conditional mean and conditional spread.

    Both moments are linear least-squares fits on the context columns; the
    spread model is fit on absolute residuals and floored to keep the pair
    bijective.
    """
    y = _finite_target(y, "expectation-norm")
    X = _design(context)
    beta_mean = _ols(X, y)
    resid = y - X @ beta_mean
    # Regressing |residual| estimates the conditional mean absolute
    # deviation; sqrt(pi/2) converts that to a sigma under normality.
    beta_sigma = _ols(X, np.abs(resid)) * math.sqrt(math.pi / 2.0)
    floor = max(0.1 * float(np.std(resid)), 1e-12)
    return FittedTransform(
        "expectation-norm",
        {"beta_mean": [float(b) for b in beta_mean],
         "beta_sigma": [float(b) for b in beta_sigma],
         "sigma_floor": floor},
        target_range(y))


def _en_moments(params, context):
    X = _design(context)
    mu = X @ np.asarray(params["beta_mean"])
    sigma = X @ np.asarray(params["beta_sigma"])
    sigma = np.maximum(sigma, params["sigma_floor"])
    return mu, sigma


def _en_forward(params, y, aux):
    mu, sigma = _en_moments(params, aux)
    return (y - mu) / sigma


def _en_inverse(params, z, aux):
    mu, sigma = _en_moments(params, aux)
    return z * sigma + mu


register_kind("expectation-norm",
              lambda y, context: fit_expectation_normalize(y, context),
              _en_forward, _en_inverse, roles=("context",))


def fit_regression_normalize(y, context):
    """Divide by the prediction of a linear model on the context columns."""
    y = _finite_target(y, "regression-norm")
    X = _design(context)
    beta = _ols(X, y)
    floor = 1e-6 * max(float(np.max(np.abs(y))), 1.0)
    denom = X @ beta
    bad = np.flatnonzero(np.abs(denom) < floor)
    if bad.size:
        raise DataError(
            f"zero denominator: predicted value ~0 at training row {bad[0]}")
    return FittedTransform(
        "regression-norm",
        {"beta": [float(b) for b in beta], "denom_floor": floor},
        target_range(y))


def _rn_denominator(params, context):
    denom = _design(context) @ np.asarray(params["beta"])
    floor = params["denom_floor"]
    small = np.abs(denom) < floor
    if np.any(small):
        warnings.warn("regression-norm: clamping near-zero denominators",
                      RuntimeWarning, stacklevel=3)
        denom = np.where(small, np.where(denom < 0, -floor, floor), denom)
    return denom


register_kind(
    "regression-norm",
    lambda y, context: fit_regression_normalize(y, context),
    lambda p, y, aux: y / _rn_denominator(p, aux),
    lambda p, z, aux: z * _rn_denominator(p, aux),
    roles=("context",))
