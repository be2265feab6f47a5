"""Data model, CSV ingestion and the fitted-transform abstraction.

A :class:`FittedTransform` is a plain record (kind + parameter bag); the
actual forward/inverse maps live in a registry that the transform modules
populate at import time.  This keeps fitted objects trivially serializable
for the CLI sidecar files.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DataError

# Tokens treated as missing values during ingestion.
_MISSING = {"", "?", "NA", "N/A", "NaN", "nan", "null", "None"}

ROLE_NAMES = ("subject", "time", "frame", "trial", "price_index")


@dataclass(frozen=True)
class ColumnRoles:
    """Names the columns that carry semantic roles next to the target."""

    target: str
    subject: str | None = None
    time: str | None = None
    frame: str | None = None
    trial: str | None = None
    context: tuple[str, ...] = ()
    price_index: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "context", tuple(self.context))
        others = [self.subject, self.time, self.frame, self.trial,
                  self.price_index, *self.context]
        if self.target in [c for c in others if c is not None]:
            raise ConfigError(
                f"target column {self.target!r} cannot carry another role")

    def role_columns(self):
        """All non-target columns referenced by a role, in a stable order."""
        cols = []
        for name in ROLE_NAMES:
            value = getattr(self, name)
            if value is not None:
                cols.append(value)
        cols.extend(self.context)
        return cols

    @classmethod
    def from_json(cls, text):
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid roles JSON: {exc}") from exc
        if not isinstance(obj, dict) or "target" not in obj:
            raise ConfigError('roles JSON must be an object with a "target" key')
        known = {"target", "subject", "time", "frame", "trial", "context",
                 "price_index"}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown role keys: {sorted(unknown)}")
        return cls(
            target=obj["target"],
            subject=obj.get("subject"),
            time=obj.get("time"),
            frame=obj.get("frame"),
            trial=obj.get("trial"),
            context=tuple(obj.get("context") or ()),
            price_index=obj.get("price_index"),
        )

    def to_json(self):
        return json.dumps({
            "target": self.target,
            "subject": self.subject,
            "time": self.time,
            "frame": self.frame,
            "trial": self.trial,
            "context": list(self.context),
            "price_index": self.price_index,
        }, sort_keys=True)


@dataclass(frozen=True)
class Dataset:
    """Feature matrix, target vector and role annotations.

    ``features`` holds the one-hot encoded non-role columns; raw role values
    are kept in ``aux`` (string keys for grouping roles, floats for frame /
    price-index / context).
    """

    features: np.ndarray          # (n, d) float
    target: np.ndarray            # (n,) float
    column_names: tuple[str, ...]
    roles: ColumnRoles
    aux: dict = field(default_factory=dict)
    n_dropped: int = 0
    kept_rows: tuple[int, ...] = ()

    def __post_init__(self):
        self.features.setflags(write=False)
        self.target.setflags(write=False)

    @property
    def n(self):
        return self.target.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def context_matrix(self):
        if not self.roles.context:
            raise DataError("dataset has no context columns")
        return self.aux["context"]


def _parse_float(token):
    """Parse a finite float; None for unparseable or non-finite tokens."""
    try:
        value = float(token)
    except ValueError:
        return None
    if math.isfinite(value):
        return value
    return None


def _is_numeric_token(token):
    try:
        float(token)
    except ValueError:
        return False
    return True


def load_csv(path, roles):
    """Load a headered CSV into a :class:`Dataset`.

    Rows whose target, role, or numeric feature values are missing or
    unparseable are dropped and counted.  Non-numeric feature columns are
    one-hot encoded with categories in lexicographic order.
    """
    try:
        with open(path, newline="") as handle:
            reader = csv.reader(handle)
            rows = list(reader)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not rows:
        raise DataError(f"{path}: empty file")
    header, data_rows = rows[0], rows[1:]
    col_index = {name: i for i, name in enumerate(header)}

    for col in [roles.target, *roles.role_columns()]:
        if col not in col_index:
            raise DataError(f"missing role column {col!r}")

    role_cols = set(roles.role_columns())
    feature_cols = [c for c in header
                    if c != roles.target and c not in role_cols]

    # First pass: keep rows whose target and role values are usable.
    kept = []
    numeric_roles = [c for c in (roles.frame, roles.price_index) if c]
    numeric_roles.extend(roles.context)
    for i, row in enumerate(data_rows):
        if len(row) != len(header):
            continue
        if row[col_index[roles.target]].strip() in _MISSING:
            continue
        if _parse_float(row[col_index[roles.target]]) is None:
            continue
        ok = True
        for col in roles.role_columns():
            token = row[col_index[col]].strip()
            if token in _MISSING:
                ok = False
                break
            if col in numeric_roles and _parse_float(token) is None:
                ok = False
                break
        if ok:
            kept.append(i)

    # Second pass: decide which feature columns are numeric (every kept,
    # non-missing value parses), then drop rows with missing numeric values.
    numeric_features = {}
    for col in feature_cols:
        j = col_index[col]
        numeric = True
        for i in kept:
            token = data_rows[i][j].strip()
            if token not in _MISSING and not _is_numeric_token(token):
                numeric = False
                break
        numeric_features[col] = numeric

    final = []
    for i in kept:
        ok = True
        for col in feature_cols:
            token = data_rows[i][col_index[col]].strip()
            if token in _MISSING:
                ok = False
                break
            if numeric_features[col] and _parse_float(token) is None:
                ok = False  # non-finite numeric value
                break
        if ok:
            final.append(i)
    if not final:
        raise DataError(f"{path}: zero usable rows")

    n = len(final)
    target = np.array(
        [_parse_float(data_rows[i][col_index[roles.target]]) for i in final])

    columns = []
    names = []
    for col in feature_cols:
        j = col_index[col]
        values = [data_rows[i][j].strip() for i in final]
        if numeric_features[col]:
            columns.append(np.array([_parse_float(v) for v in values]))
            names.append(col)
        else:
            for cat in sorted(set(values)):
                columns.append(np.array(
                    [1.0 if v == cat else 0.0 for v in values]))
                names.append(f"{col}={cat}")
    features = (np.column_stack(columns) if columns
                else np.empty((n, 0)))

    aux = {}
    for name in ROLE_NAMES:
        col = getattr(roles, name)
        if col is None:
            continue
        j = col_index[col]
        values = [data_rows[i][j].strip() for i in final]
        if col in numeric_roles:
            aux[name] = np.array([_parse_float(v) for v in values])
        else:
            aux[name] = np.array(values, dtype=object)
    if roles.context:
        ctx = np.column_stack(
            [[_parse_float(data_rows[i][col_index[c]].strip()) for i in final]
             for c in roles.context])
        aux["context"] = ctx

    return Dataset(
        features=features,
        target=target,
        column_names=tuple(names),
        roles=roles,
        aux=aux,
        n_dropped=len(data_rows) - n,
        kept_rows=tuple(final),
    )


# --------------------------------------------------------------------------
# Fitted transforms

KNOWN_KINDS = (
    "identity", "log-offset", "sqrt", "box-cox", "yeo-johnson",
    "quantile-normal", "quantile-uniform",
    "subject-center", "trial-minmax", "frame", "deflate",
    "expectation-norm", "regression-norm",
)

#: kinds whose forward/inverse need a per-row auxiliary argument
AUX_KINDS = frozenset({"subject-center", "trial-minmax", "frame", "deflate",
                       "expectation-norm", "regression-norm"})


@dataclass(frozen=True)
class FittedTransform:
    """A trained bijective pair; behaviour is dispatched on ``kind``."""

    kind: str
    params: dict
    training_target_range: tuple[float, float]

    def to_json(self):
        return json.dumps({
            "kind": self.kind,
            "params": self.params,
            "training_target_range": list(self.training_target_range),
        }, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        obj = json.loads(text)
        return cls(kind=obj["kind"], params=obj["params"],
                   training_target_range=tuple(obj["training_target_range"]))


_REGISTRY = {}


def register_kind(kind, forward_fn, inverse_fn, inverse_range_fn=None):
    _REGISTRY[kind] = (forward_fn, inverse_fn, inverse_range_fn)


def _entry(t):
    if t.kind not in _REGISTRY:
        raise ConfigError(f"unknown transform kind {t.kind!r}")
    return _REGISTRY[t.kind]


def _check_aux(t, aux, n):
    if t.kind in AUX_KINDS:
        if aux is None:
            raise ConfigError(f"{t.kind} requires per-row auxiliary values")
        if len(aux) != n:
            raise ConfigError(
                f"{t.kind}: auxiliary length {len(aux)} != {n} values")


def forward(t, y, aux=None):
    """Apply the fitted forward map elementwise."""
    y = np.asarray(y, dtype=float)
    _check_aux(t, aux, y.shape[0])
    return _entry(t)[0](t.params, y, aux)


def inverse(t, z, aux=None):
    """Apply the fitted inverse map elementwise."""
    z = np.asarray(z, dtype=float)
    _check_aux(t, aux, z.shape[0])
    return _entry(t)[1](t.params, z, aux)


def inverse_range(t):
    """Open interval of transformed values the inverse accepts.

    Returns ``(-inf, inf)`` for kinds whose inverse is total.
    """
    fn = _entry(t)[2]
    if fn is None:
        return (-math.inf, math.inf)
    return fn(t.params)


def clamp_to_inverse_range(t, z):
    """Clamp ``z`` into the invertible range; returns (clamped, count)."""
    lo, hi = inverse_range(t)
    z = np.asarray(z, dtype=float)
    if math.isfinite(lo):
        lo = lo + 1e-9 * max(1.0, abs(lo))
    if math.isfinite(hi):
        hi = hi - 1e-9 * max(1.0, abs(hi))
    clamped = np.clip(z, lo, hi)
    return clamped, int(np.sum(clamped != z))


def target_range(y):
    y = np.asarray(y, dtype=float)
    return (float(np.min(y)), float(np.max(y)))


def identity_transform(y):
    """Fit the trivial transform (baseline of every benchmark)."""
    return FittedTransform("identity", {}, target_range(y))


register_kind("identity",
              lambda p, y, aux: y.copy(),
              lambda p, z, aux: z.copy())
