"""Distributional target transforms.

Log-with-offset, square root, Box-Cox and Yeo-Johnson (maximum-likelihood
lambda), quantile maps to normal/uniform references, the Fisher-Pearson
skewness statistic, and the standard normal CDF and quantile function.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from .core import (FittedTransform, _raise_first_bad, register_kind,
                   target_range)
from .errors import DataError, TransformDomainError

LAMBDA_BOUNDS = (-5.0, 5.0)
CLIP_EPSILON = 1e-7


# --------------------------------------------------------------------------
# Normal distribution helpers

def normal_cdf(x):
    """Standard normal CDF (scipy's ``ndtr``)."""
    if np.isscalar(x):
        return float(special.ndtr(x))
    return special.ndtr(np.asarray(x, dtype=float))


def normal_ppf(p):
    """Inverse standard normal CDF (scipy's ``ndtri``) on (0, 1)."""
    values = np.asarray(p, dtype=float)
    outside = ~((values > 0.0) & (values < 1.0))
    if outside.any():
        raise TransformDomainError(
            f"probability {values[outside].flat[0]} outside (0, 1)")
    if np.isscalar(p):
        return float(special.ndtri(values))
    return special.ndtri(values)


# --------------------------------------------------------------------------
# Skewness

def skewness(y):
    """Fisher-Pearson coefficient g1 = m3 / m2^(3/2) (biased moments)."""
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 3:
        raise DataError("skewness needs at least 3 samples")
    centered = y - y.mean()
    m2 = np.mean(centered ** 2)
    if m2 <= 0.0:
        raise DataError("zero variance")
    m3 = np.mean(centered ** 3)
    return float(m3 / m2 ** 1.5)


# --------------------------------------------------------------------------
# Log with offset

def fit_log_offset(y):
    """``ln(y + c)`` with ``c`` the smallest positive integer such that
    ``min(y) + c > 0``, so every training row has a finite forward value
    (``c = 1`` for a non-negative target)."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 1:
        raise DataError("empty target")
    offset = float(max(math.floor(-np.min(y)) + 1, 1))
    return FittedTransform("log-offset", {"offset": offset}, target_range(y))


def _log_forward(params, y, aux):
    shifted = y + params["offset"]
    _raise_first_bad(
        shifted <= 0.0,
        "log-offset: value at index {index} gives non-positive argument")
    return np.log(shifted)


register_kind("log-offset", lambda y: fit_log_offset(y), _log_forward,
              lambda p, z, aux: np.exp(z) - p["offset"])


# --------------------------------------------------------------------------
# Square root

def fit_sqrt(y):
    y = np.asarray(y, dtype=float)
    _raise_first_bad(y < 0.0, "sqrt: negative value at index {index}")
    return FittedTransform("sqrt", {}, target_range(y))


def _sqrt_forward(params, y, aux):
    _raise_first_bad(y < 0.0, "sqrt: negative value at index {index}")
    return np.sqrt(y)


register_kind("sqrt", lambda y: fit_sqrt(y), _sqrt_forward,
              lambda p, z, aux: np.square(z),
              lambda p: (0.0, math.inf))


# --------------------------------------------------------------------------
# Power transforms (Box-Cox, Yeo-Johnson)

def _maximize_unimodal(fn, lo, hi, coarse=101, tol=1e-9):
    """Coarse grid then golden-section refinement of a unimodal function."""
    grid = np.linspace(lo, hi, coarse)
    values = [fn(g) for g in grid]
    best = int(np.argmax(values))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, coarse - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
    candidates = [(fn(x), x) for x in (a, (a + b) / 2.0, b, grid[best])]
    return max(candidates)[1]


def _box_cox_transform(x, lam):
    if abs(lam) < 1e-12:
        return np.log(x)
    z = np.power(x, lam)
    z -= 1.0
    z /= lam
    return z


def _box_cox_parts(y_shifted):
    """The Box-Cox likelihood's terms that do not depend on lambda:
    ``log(y_shifted)`` and its sum."""
    log_y = np.log(y_shifted)
    return log_y, np.sum(log_y)


def box_cox_log_likelihood(y_shifted, lam, parts=None):
    """Profile log-likelihood of the Box-Cox model at ``lam``.

    ``parts`` is ``_box_cox_parts(y_shifted)``, which a fit computes once
    for all the lambdas it tries; it is computed here when omitted.
    """
    log_y, log_sum = _box_cox_parts(y_shifted) if parts is None else parts
    n = y_shifted.shape[0]
    z = log_y if abs(lam) < 1e-12 else _box_cox_transform(y_shifted, lam)
    var = np.var(z)
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return float((lam - 1.0) * log_sum - 0.5 * n * math.log(var))


def fit_box_cox(y):
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2:
        raise DataError("box-cox needs at least 2 samples")
    span = float(np.max(y) - np.min(y))
    if span <= 0.0:
        raise DataError("degenerate target")
    floor = 1e-6 * span
    shift = 0.0
    if np.min(y) < floor:
        shift = floor - float(np.min(y))
    shifted = y + shift
    parts = _box_cox_parts(shifted)
    lam = _maximize_unimodal(
        lambda l: box_cox_log_likelihood(shifted, l, parts), *LAMBDA_BOUNDS)
    ll = box_cox_log_likelihood(shifted, lam, parts)
    return FittedTransform(
        "box-cox",
        {"lambda": float(lam), "shift": float(shift),
         "log_likelihood": float(ll)},
        target_range(y))


def _bc_forward(params, y, aux):
    shifted = y + params["shift"]
    _raise_first_bad(shifted <= 0.0,
                     "box-cox: non-positive shifted value at index {index}")
    return _box_cox_transform(shifted, params["lambda"])


def _bc_inverse(params, z, aux):
    lam, shift = params["lambda"], params["shift"]
    if abs(lam) < 1e-12:
        return np.exp(z) - shift
    base = lam * z + 1.0
    _raise_first_bad(base <= 0.0,
                     "box-cox: value at index {index} outside inverse domain")
    return np.power(base, 1.0 / lam) - shift


def _bc_inverse_range(params):
    lam = params["lambda"]
    if abs(lam) < 1e-12:
        return (-math.inf, math.inf)
    if lam > 0:
        return (-1.0 / lam, math.inf)
    return (-math.inf, -1.0 / lam)


register_kind("box-cox", lambda y: fit_box_cox(y),
              _bc_forward, _bc_inverse, _bc_inverse_range)


def _yj_split(y):
    """``y``, flattened, as ``(y, pos, neg, up, down)``: ``pos`` and ``neg``
    index its values ``>= 0`` and the others, ``up = y[pos] + 1`` and
    ``down = 1 - y[neg]``.  When every value is on one side of zero, both
    index arrays are None, that side's array holds the whole sample and
    the other side's array is None."""
    y = y.reshape(-1)
    nonneg = y >= 0.0
    n_pos = np.count_nonzero(nonneg)
    if n_pos == y.shape[0]:
        return y, None, None, y + 1.0, None
    if n_pos == 0:
        return y, None, None, None, 1.0 - y
    pos, neg = np.flatnonzero(nonneg), np.flatnonzero(~nonneg)
    return y, pos, neg, y[pos] + 1.0, 1.0 - y[neg]


def _yj_map(split, lam):
    """Four-branch Yeo-Johnson map of a ``_yj_split`` sample at ``lam``."""
    y, pos, neg, up, down = split
    if up is not None:
        if abs(lam) < 1e-12:
            z_up = np.log1p(y if pos is None else y[pos])
        else:
            z_up = np.power(up, lam)
            z_up -= 1.0
            z_up /= lam
    if down is not None:
        if abs(lam - 2.0) < 1e-12:
            z_down = -np.log1p(-(y if neg is None else y[neg]))
        else:
            z_down = np.power(down, 2.0 - lam)
            z_down -= 1.0
            np.negative(z_down, out=z_down)
            z_down /= 2.0 - lam
    if pos is None:
        return z_down if up is None else z_up
    out = np.empty_like(y)
    out[pos] = z_up
    out[neg] = z_down
    return out


def yeo_johnson_transform(y, lam):
    """Four-branch Yeo-Johnson forward map."""
    y = np.asarray(y, dtype=float)
    return _yj_map(_yj_split(y), lam).reshape(y.shape)


def _yj_parts(y):
    """The Yeo-Johnson likelihood's terms that do not depend on lambda:
    the split sample and the Jacobian sum of ``sign(y) log1p|y|``."""
    return _yj_split(y), np.sum(np.sign(y) * np.log1p(np.abs(y)))


def yeo_johnson_log_likelihood(y, lam, parts=None):
    """Profile log-likelihood of the Yeo-Johnson model at ``lam``.

    ``parts`` is ``_yj_parts(y)``, which a fit computes once for all the
    lambdas it tries; it is computed here when omitted.
    """
    split, jacobian = _yj_parts(y) if parts is None else parts
    n = y.shape[0]
    z = _yj_map(split, lam)
    var = np.var(z)
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return float((lam - 1.0) * jacobian - 0.5 * n * math.log(var))


def fit_yeo_johnson(y):
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 2 or np.max(y) == np.min(y):
        raise DataError("degenerate target")
    parts = _yj_parts(y)
    lam = _maximize_unimodal(
        lambda l: yeo_johnson_log_likelihood(y, l, parts), *LAMBDA_BOUNDS)
    ll = yeo_johnson_log_likelihood(y, lam, parts)
    return FittedTransform(
        "yeo-johnson",
        {"lambda": float(lam), "shift": 0.0, "log_likelihood": float(ll)},
        target_range(y))


def _yj_inverse(params, z, aux):
    lam = params["lambda"]
    out = np.empty_like(z)
    pos = z >= 0.0
    if abs(lam) < 1e-12:
        out[pos] = np.expm1(z[pos])
    else:
        base = lam * z[pos] + 1.0
        if np.any(base <= 0.0):
            raise TransformDomainError(
                "yeo-johnson: value outside inverse domain")
        out[pos] = np.power(base, 1.0 / lam) - 1.0
    if abs(lam - 2.0) < 1e-12:
        out[~pos] = -np.expm1(-z[~pos])
    else:
        base = 1.0 - (2.0 - lam) * z[~pos]
        if np.any(base <= 0.0):
            raise TransformDomainError(
                "yeo-johnson: value outside inverse domain")
        out[~pos] = 1.0 - np.power(base, 1.0 / (2.0 - lam))
    return out


def _yj_inverse_range(params):
    lam = params["lambda"]
    hi = math.inf if lam >= -1e-12 else -1.0 / lam
    lo = -math.inf if lam <= 2.0 + 1e-12 else -1.0 / (lam - 2.0)
    return (lo, hi)


register_kind("yeo-johnson", lambda y: fit_yeo_johnson(y),
              lambda p, y, aux: yeo_johnson_transform(y, p["lambda"]),
              _yj_inverse, _yj_inverse_range)


# --------------------------------------------------------------------------
# Quantile maps

def fit_quantile(y, reference="normal"):
    """Piecewise-linear empirical CDF mapped onto a reference distribution."""
    if reference not in ("normal", "uniform"):
        raise DataError(f"unknown quantile reference {reference!r}")
    y = np.asarray(y, dtype=float)
    n = y.shape[0]
    if n < 10:
        raise DataError("too few samples for quantile map")
    q = min(1000, n)
    probs = np.linspace(0.0, 1.0, q)
    knots = np.quantile(y, probs)
    return FittedTransform(
        f"quantile-{reference}",
        {"quantile_knots": [float(k) for k in knots],
         "reference": reference,
         "clip_epsilon": CLIP_EPSILON},
        target_range(y))


def _quantile_tables(params):
    knots = np.asarray(params["quantile_knots"], dtype=float)
    eps = params["clip_epsilon"]
    probs = np.clip(np.linspace(0.0, 1.0, knots.shape[0]), eps, 1.0 - eps)
    return knots, probs


def _q_forward(params, y, aux):
    knots, probs = _quantile_tables(params)
    p = np.interp(y, knots, probs)
    if params["reference"] == "uniform":
        return p
    return normal_ppf(p)


def _q_inverse(params, z, aux):
    knots, probs = _quantile_tables(params)
    eps = params["clip_epsilon"]
    if params["reference"] == "uniform":
        p = np.clip(z, eps, 1.0 - eps)
    else:
        p = np.clip(normal_cdf(z), eps, 1.0 - eps)
    return np.interp(p, probs, knots)


def _q_inverse_range(params):
    eps = params["clip_epsilon"]
    if params["reference"] == "uniform":
        return (eps, 1.0 - eps)
    return (float(special.ndtri(eps)), float(special.ndtri(1.0 - eps)))


register_kind("quantile-normal", lambda y: fit_quantile(y, "normal"),
              _q_forward, _q_inverse, _q_inverse_range)
register_kind("quantile-uniform", lambda y: fit_quantile(y, "uniform"),
              _q_forward, _q_inverse, _q_inverse_range)
