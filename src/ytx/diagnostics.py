"""Detectors that flag target-variable pathologies and suggest transforms.

Five detectors: subject dependence (one-way ANOVA), frame dependence
(Pearson correlation), trend dependence (Spearman correlation against time
order), contextual dependence (R-squared), and distribution problems
(skewness, gaps, Breusch-Pagan heteroscedasticity).
"""

from __future__ import annotations

import warnings
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .ctx import _check_length, _design, _groups, _lstsq, _time_sort_key
from .dist import skewness
from .errors import DataError

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class Thresholds:
    """Flagging thresholds; the defaults reproduce the reference annotations."""

    subjective_p: float = 0.05
    frame_r: float = 0.3
    trend_rho: float = 0.3
    context_r2: float = 0.25
    skew_gamma: float = 0.5
    gap_score: float = 0.1
    hetero_p: float = 0.05

    def replace(self, **overrides):
        values = asdict(self)
        unknown = set(overrides) - set(values)
        if unknown:
            raise DataError(f"unknown thresholds: {sorted(unknown)}")
        values.update(overrides)
        return Thresholds(**values)


@dataclass(frozen=True)
class Verdict:
    flagged: bool
    statistic: float
    p_value: float | None = None
    details: dict = field(default_factory=dict)

    def to_dict(self):
        out = {"flagged": self.flagged, "statistic": self.statistic}
        if self.p_value is not None:
            out["p_value"] = self.p_value
        out.update(self.details)
        return out


@dataclass(frozen=True)
class DiagnosticReport:
    subjective: Verdict | None
    frame: Verdict | None
    trend: Verdict | None
    context: Verdict | None
    distribution: Verdict
    recommendations: tuple = ()

    @property
    def verdicts(self):
        """``{name: verdict}`` of each detector that ran, in field order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), Verdict)}

    def to_dict(self):
        out = {name: v.to_dict() for name, v in self.verdicts.items()}
        out["recommendations"] = [
            {"kind": kind, "reason": reason}
            for kind, reason in self.recommendations]
        return out


def detect_subjective(y, subject, thresholds=Thresholds()):
    """One-way ANOVA across subject groups."""
    y, subject = _groups(y, subject, "subject vector")
    # Groups in sorted-key order, each in row order, so the sums below add
    # the same terms in the same order as over y[keys == key] per key.
    grouped = y[subject.order]
    bounds = subject.bounds.tolist()
    groups = [grouped[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
    if len(groups) < 2:
        raise DataError("need at least 2 subjects")
    if any(len(g) < 2 for g in groups):
        raise DataError("every subject needs at least 2 samples")
    grand = y.mean()
    ssb = sum(len(g) * (g.mean() - grand) ** 2 for g in groups)
    ssw = sum(float(np.sum((g - g.mean()) ** 2)) for g in groups)
    df_b = len(groups) - 1
    df_w = y.shape[0] - len(groups)
    scale = max(float(np.sum((y - grand) ** 2)), 1.0)
    if ssb <= 1e-12 * scale:
        f_stat, p = 0.0, 1.0
    elif ssw <= 1e-12 * scale:
        f_stat, p = float("inf"), 0.0
    else:
        from scipy import special

        f_stat = (ssb / df_b) / (ssw / df_w)
        p = float(special.fdtrc(df_b, df_w, f_stat))
    return Verdict(flagged=p < thresholds.subjective_p,
                   statistic=float(f_stat), p_value=p)


def _pearson(a, b):
    a = a - a.mean()
    b = b - b.mean()
    denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
    if denom <= 0.0:
        return None
    return float(np.sum(a * b) / denom)


def detect_frame(y, frame, thresholds=Thresholds()):
    """Pearson correlation between the target and the frame size."""
    y = np.asarray(y, dtype=float)
    frame = np.asarray(frame, dtype=float)
    _check_length(frame, y, "frame vector")
    r = _pearson(y, frame)
    if r is None:
        return Verdict(flagged=False, statistic=0.0)
    return Verdict(flagged=abs(r) > thresholds.frame_r, statistic=abs(r),
                   details={"r": r})


def _average_ranks(values):
    """1-based ranks, ties sharing their mean rank (rankdata "average")."""
    values = np.asarray(values, dtype=float)
    if np.isnan(values).any():
        return np.full(values.shape[0], np.nan)
    order = np.argsort(values, kind="mergesort")
    ordered = values[order]
    new = np.ones(values.shape[0], dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    dense = np.empty(values.shape[0], dtype=np.intp)
    dense[order] = np.cumsum(new)
    count = np.append(np.flatnonzero(new), values.shape[0])
    return 0.5 * (count[dense] + count[dense - 1] + 1)


def detect_trend(y, time, thresholds=Thresholds()):
    """Spearman correlation between the target and the time order: periods
    in ``deflate``'s order (numeric keys by value, then the others), the
    rows of one period sharing their average rank."""
    y, time = _groups(y, time, "time vector")
    sort_keys = [_time_sort_key(k) for k in time.keys]
    position = {k: i for i, k in enumerate(sorted(set(sort_keys)))}
    periods = np.array([position[k] for k in sort_keys], dtype=float)
    rho = _pearson(_average_ranks(y), _average_ranks(periods[time.codes]))
    if rho is None:
        return Verdict(flagged=False, statistic=0.0)
    return Verdict(flagged=abs(rho) > thresholds.trend_rho,
                   statistic=abs(rho), details={"rho": rho})


def _r2(y, design):
    """R-squared of ``y`` on ``design``; None when the design is
    rank-deficient or ``y`` is constant."""
    beta = _lstsq(design, y)
    total = float(np.sum((y - y.mean()) ** 2))
    if beta is None or total <= 0.0:
        return None
    return 1.0 - float(np.sum((y - design @ beta) ** 2)) / total


def detect_context(y, context, thresholds=Thresholds()):
    """R-squared of the target on the context columns."""
    y = np.asarray(y, dtype=float)
    design = _design(context)
    _check_length(design, y, "context matrix")
    if design.shape[1] < 2:
        raise DataError("need at least one context column")
    r2 = _r2(y, design)
    if r2 is None:
        warnings.warn("context detector: singular design, reporting 0",
                      RuntimeWarning, stacklevel=2)
        return Verdict(flagged=False, statistic=0.0)
    return Verdict(flagged=r2 > thresholds.context_r2, statistic=r2)


def gap_score(y):
    """Largest gap between consecutive sorted unique targets, over the range."""
    values = np.unique(np.asarray(y, dtype=float))
    if values.shape[0] < 2:
        return 0.0
    return float(np.max(np.diff(values)) / (values[-1] - values[0]))


def breusch_pagan(y, X):
    """Breusch-Pagan LM test of squared OLS residuals on the features.

    Returns (lm_statistic, p_value); (0.0, 1.0) when there are no features,
    the regressions are degenerate or the features fit a non-constant
    target exactly.  The residuals' round-off grows with the size of the
    terms they are computed from, ``|design| @ |beta| + |y|``, not with the
    spread of ``y``; a residual sum of squares at most ``n * eps**2`` of
    that size's sum of squares is round-off, and testing it would flag
    noise.
    """
    y = np.asarray(y, dtype=float)
    design = _design(X)
    _check_length(design, y, "feature matrix")
    beta = _lstsq(design, y)
    if beta is None or design.shape[1] < 2:
        return 0.0, 1.0
    squared = (y - design @ beta) ** 2
    n = y.shape[0]
    size = np.abs(design) @ np.abs(beta) + np.abs(y)
    if (np.max(y) > np.min(y)
            and np.sum(squared) <= n * _EPS ** 2 * np.sum(size ** 2)):
        return 0.0, 1.0
    r2 = _r2(squared, design)
    if r2 is None:
        return 0.0, 1.0
    from scipy import special

    lm = n * max(r2, 0.0)
    return float(lm), float(special.chdtrc(design.shape[1] - 1, lm))


def detect_distribution(y, features, thresholds=Thresholds()):
    """Skewness, gap and heteroscedasticity checks on the target."""
    y = np.asarray(y, dtype=float)
    if y.shape[0] < 20:
        raise DataError("distribution detector needs at least 20 samples")
    if np.max(y) == np.min(y):
        raise DataError("constant target")
    gamma = skewness(y)
    gap = gap_score(y)
    _, het_p = breusch_pagan(y, features)
    skewed = abs(gamma) > thresholds.skew_gamma
    gapped = gap > thresholds.gap_score
    hetero = het_p < thresholds.hetero_p
    return Verdict(
        flagged=skewed or gapped or hetero,
        statistic=gamma,
        p_value=het_p,
        details={"skewness": gamma, "gap_score": gap,
                 "skew_flag": skewed, "gap_flag": gapped,
                 "hetero_flag": hetero})


_RECOMMENDATION_MAP = (
    ("subjective", None, ("subject-center", "trial-minmax"),
     "subject-dependent target"),
    ("frame", None, ("frame",), "frame-dependent target"),
    ("trend", None, ("deflate",), "trend-dependent target"),
    ("context", None, ("expectation-norm", "regression-norm"),
     "context-dependent target"),
    ("distribution", "skew_flag",
     ("log-offset", "yeo-johnson", "quantile-normal"), "skewed target"),
    ("distribution", "gap_flag",
     ("quantile-normal", "quantile-uniform"), "gapped target"),
    ("distribution", "hetero_flag",
     ("log-offset", "sqrt", "box-cox"), "heteroscedastic target"),
)


def recommend(report):
    """Ordered, de-duplicated transform recommendations for a report."""
    seen = set()
    out = []
    for verdict_name, sub_flag, kinds, reason in _RECOMMENDATION_MAP:
        verdict = getattr(report, verdict_name)
        if verdict is None:
            continue
        flagged = (verdict.details.get(sub_flag, False) if sub_flag
                   else verdict.flagged)
        if not flagged:
            continue
        for kind in kinds:
            if kind not in seen:
                seen.add(kind)
                out.append((kind, reason))
    return tuple(out)


def diagnose(dataset, thresholds=Thresholds()):
    """Run every detector the dataset's roles permit and attach advice."""
    y = dataset.target
    subjective = frame = trend = context = None
    if "subject" in dataset.aux:
        subjective = detect_subjective(y, dataset.aux["subject"], thresholds)
    if "frame" in dataset.aux:
        frame = detect_frame(y, dataset.aux["frame"], thresholds)
    if "time" in dataset.aux:
        trend = detect_trend(y, dataset.aux["time"], thresholds)
    if "context" in dataset.aux:
        context = detect_context(y, dataset.aux["context"], thresholds)
    distribution = detect_distribution(y, dataset.features, thresholds)
    report = DiagnosticReport(
        subjective=subjective, frame=frame, trend=trend, context=context,
        distribution=distribution)
    return replace(report, recommendations=recommend(report))
