"""Distributional target transforms.

Log-with-offset, square root, Box-Cox and Yeo-Johnson (maximum-likelihood
lambda), quantile maps to normal/uniform references, the Fisher-Pearson
skewness statistic, and the standard normal CDF and quantile function.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (FittedTransform, _finite_target, _raise_first_bad,
                   register_kind, target_range)
from .errors import DataError, TransformDomainError

LAMBDA_BOUNDS = (-5.0, 5.0)
CLIP_EPSILON = 1e-7
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


# --------------------------------------------------------------------------
# Normal distribution helpers
#
# scipy.special is imported where it is called, not with the module: loading
# it takes about 0.3 s, and most commands never need a normal quantile.

def normal_cdf(x):
    """Standard normal CDF (scipy's ``ndtr``)."""
    from scipy import special

    if np.isscalar(x):
        return float(special.ndtr(x))
    return special.ndtr(np.asarray(x, dtype=float))


def normal_ppf(p):
    """Inverse standard normal CDF (scipy's ``ndtri``) on (0, 1)."""
    from scipy import special

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
    lo, hi = target_range(_finite_target(y, "log-offset"))
    offset = float(max(math.floor(-lo) + 1, 1))
    return FittedTransform("log-offset", {"offset": offset}, (lo, hi))


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
    y = _finite_target(y, "sqrt")
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

def _maximize_unimodal(fn, lo, hi):
    """``(fn(x), x)`` at the maximum of a unimodal ``fn`` on [lo, hi], by
    golden-section search to a bracket narrower than 1e-9.

    If two probes do not compare strictly (a tie, as on a -inf plateau, or
    NaN) while the bracket is wider than 0.01, the search scans a 101-point
    grid once and goes on between the best grid point's neighbours, keeping
    that point as a candidate; in a narrower bracket a tie is the flat top
    of the peak.  ``fn`` is evaluated once per distinct ``x``.  Unimodality
    is assumed, not checked: with two peaks the search may keep the lower
    one."""
    values = {}

    def f(x):
        if x not in values:
            values[x] = fn(x)
        return values[x]

    a, b, kept = lo, hi, ()
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = f(c), f(d)
    while b - a > 1e-9:
        if not (fc > fd or fd > fc) and b - a > 0.01 and not kept:
            grid = np.linspace(lo, hi, 101)
            best = int(np.argmax([f(g) for g in grid]))
            a, b = grid[max(best - 1, 0)], grid[min(best + 1, 100)]
            kept = (grid[best],)
            c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
            fc, fd = f(c), f(d)
        elif fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = f(d)
    return max((f(x), x) for x in (a, (a + b) / 2.0, b, *kept))


def _box_cox_map(x, lam, log_branch):
    """The Box-Cox map ``(x**lam - 1) / lam``, computed in place; within
    1e-12 of lam = 0, its limit ``log x`` as ``log_branch()`` gives it."""
    if abs(lam) < 1e-12:
        return log_branch()
    z = np.power(x, lam)
    z -= 1.0
    z /= lam
    return z


def _box_cox_root(z, lam, offset, exp_branch, kind, rows=None):
    """The map's inverse less ``offset``, ``(lam * z + 1)**(1 / lam) -
    offset``, or ``exp_branch(z)`` within 1e-12 of lam = 0; a base <= 0 is
    a TransformDomainError naming its row (its entry of ``rows``, if any)."""
    if abs(lam) < 1e-12:
        return exp_branch(z)
    base = lam * z + 1.0
    _raise_first_bad(base <= 0.0,
                     kind + ": value at index {index} outside inverse domain",
                     rows)
    return np.power(base, 1.0 / lam) - offset


def _profile_log_likelihood(z, lam, jacobian, n):
    """``(lam - 1) * jacobian - n/2 * log var(z)``; -inf unless var(z) is
    positive and finite."""
    var = np.var(z)
    if var <= 0.0 or not np.isfinite(var):
        return -math.inf
    return float((lam - 1.0) * jacobian - 0.5 * n * math.log(var))


def _fit_power(kind, shift, y, log_likelihood):
    """``kind`` at the lambda in LAMBDA_BOUNDS maximizing the likelihood."""
    value, lam = _maximize_unimodal(log_likelihood, *LAMBDA_BOUNDS)
    if not math.isfinite(value):
        raise DataError(f"{kind}: no lambda gives a finite likelihood")
    params = {"lambda": float(lam), "shift": float(shift),
              "log_likelihood": float(value)}
    return FittedTransform(kind, params, target_range(y))


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
    z = _box_cox_map(y_shifted, lam, lambda: log_y)
    return _profile_log_likelihood(z, lam, log_sum, y_shifted.shape[0])


def fit_box_cox(y):
    y = _finite_target(y, "box-cox")
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
    return _fit_power("box-cox", shift, y,
                      lambda l: box_cox_log_likelihood(shifted, l, parts))


def _bc_forward(params, y, aux):
    shifted = y + params["shift"]
    _raise_first_bad(shifted <= 0.0,
                     "box-cox: non-positive shifted value at index {index}")
    return _box_cox_map(shifted, params["lambda"], lambda: np.log(shifted))


def _bc_inverse(params, z, aux):
    shift = params["shift"]
    return _box_cox_root(z, params["lambda"], shift,
                         lambda v: np.exp(v) - shift, "box-cox")


def _bc_inverse_range(params):
    lam = params["lambda"]
    if abs(lam) < 1e-12:
        return (-math.inf, math.inf)
    if lam > 0:
        return (-1.0 / lam, math.inf)
    return (-math.inf, -1.0 / lam)


register_kind("box-cox", lambda y: fit_box_cox(y),
              _bc_forward, _bc_inverse, _bc_inverse_range)


def _yj_split(y, shift=1.0):
    """``y``, flattened, as ``(y, pos, neg, up, down)``: ``pos`` and ``neg``
    index its values ``>= 0`` and the others (either may be empty),
    ``up = y[pos] + shift`` and ``down = shift - y[neg]``."""
    y = y.reshape(-1)
    nonneg = y >= 0.0
    pos, neg = np.flatnonzero(nonneg), np.flatnonzero(~nonneg)
    return y, pos, neg, y[pos] + shift, shift - y[neg]


def _yj_join(y, pos, neg, up, down):
    """The halves a ``_yj_split`` of ``y`` gave, back in row order."""
    if not neg.size:
        return up
    if not pos.size:
        return down
    out = np.empty_like(y)
    out[pos] = up
    out[neg] = down
    return out


def _yj_map(split, lam):
    """Yeo-Johnson map of a ``_yj_split`` sample: the Box-Cox map of
    ``y + 1`` at ``lam`` where y >= 0, minus that of ``1 - y`` at
    ``2 - lam`` elsewhere."""
    y, pos, neg, up, down = split
    if pos.size:
        up = _box_cox_map(up, lam, lambda: np.log1p(y[pos]))
    if neg.size:
        down = _box_cox_map(down, 2.0 - lam, lambda: np.log1p(-y[neg]))
        np.negative(down, out=down)
    return _yj_join(y, pos, neg, up, down)


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
    return _profile_log_likelihood(_yj_map(split, lam), lam, jacobian,
                                   y.shape[0])


def fit_yeo_johnson(y):
    y = _finite_target(y, "yeo-johnson")
    if y.shape[0] < 2 or np.max(y) == np.min(y):
        raise DataError("degenerate target")
    parts = _yj_parts(y)
    return _fit_power("yeo-johnson", 0.0, y,
                      lambda l: yeo_johnson_log_likelihood(y, l, parts))


def _yj_inverse(params, z, aux):
    lam = params["lambda"]
    # A shift of -0.0 makes up = z[pos] and down = -z[neg] bit for bit.
    flat, pos, neg, up, down = _yj_split(z, -0.0)
    up = _box_cox_root(up, lam, 1.0, np.expm1, "yeo-johnson", pos)
    # 1 - x as 0 - (x - 1): the same bits, +0.0 at x = 1 included.
    down = 0.0 - _box_cox_root(down, 2.0 - lam, 1.0, np.expm1,
                               "yeo-johnson", neg)
    return _yj_join(flat, pos, neg, up, down).reshape(z.shape)


def _yj_inverse_range(params):
    """The upper ends of the two halves' Box-Cox ranges, the lower half's
    negated."""
    lam = params["lambda"]
    return (-_bc_inverse_range({"lambda": 2.0 - lam})[1],
            _bc_inverse_range({"lambda": lam})[1])


register_kind("yeo-johnson", lambda y: fit_yeo_johnson(y),
              lambda p, y, aux: yeo_johnson_transform(y, p["lambda"]),
              _yj_inverse, _yj_inverse_range)


# --------------------------------------------------------------------------
# Quantile maps

def fit_quantile(y, reference="normal"):
    """Piecewise-linear empirical CDF mapped onto a reference distribution."""
    if reference not in ("normal", "uniform"):
        raise DataError(f"unknown quantile reference {reference!r}")
    y = _finite_target(y, f"quantile-{reference}")
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


def _qu_forward(params, y, aux):
    knots, probs = _quantile_tables(params)
    return np.interp(y, knots, probs)


def _qu_inverse(params, u, aux):
    knots, probs = _quantile_tables(params)
    eps = params["clip_epsilon"]
    return np.interp(np.clip(u, eps, 1.0 - eps), probs, knots)


def _qu_inverse_range(params):
    eps = params["clip_epsilon"]
    return (eps, 1.0 - eps)


def _qn_inverse_range(params):
    from scipy import special

    return tuple(special.ndtri(_qu_inverse_range(params)).tolist())


# quantile-normal is quantile-uniform followed by the normal quantile
# function; normal_ppf/normal_cdf are looked up at call time, so a wrapper
# set on the module is honoured.
register_kind("quantile-normal", lambda y: fit_quantile(y, "normal"),
              lambda p, y, aux: normal_ppf(_qu_forward(p, y, aux)),
              lambda p, z, aux: _qu_inverse(p, normal_cdf(z), aux),
              _qn_inverse_range)
register_kind("quantile-uniform", lambda y: fit_quantile(y, "uniform"),
              _qu_forward, _qu_inverse, _qu_inverse_range)
