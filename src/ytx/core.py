"""Data model, CSV ingestion and the fitted-transform abstraction.

A :class:`FittedTransform` is a plain record (kind + parameter bag); each
kind's fit, forward/inverse maps and the roles it reads are declared once,
by a :func:`register_kind` call next to its code in ``dist``/``ctx``.  This
keeps fitted objects trivially serializable for the CLI sidecar files.
"""

from __future__ import annotations

import contextlib
import csv
import itertools
import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .errors import ConfigError, DataError, TransformDomainError

# Tokens treated as missing values during ingestion.
_MISSING = {"", "?", "NA", "N/A", "NaN", "nan", "null", "None"}
#: each missing token to the token float() reads as nan
_AS_NAN = dict.fromkeys(_MISSING, "nan")

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
        if not isinstance(self.target, str):
            raise ConfigError(
                f"role 'target' must be a string, got {self.target!r}")
        for name in ROLE_NAMES:
            value = getattr(self, name)
            if not (value is None or isinstance(value, str)):
                raise ConfigError(
                    f"role {name!r} must be a string or null, got {value!r}")
        context = () if self.context is None else self.context
        if not (isinstance(context, (list, tuple))
                and all(isinstance(c, str) for c in context)):
            raise ConfigError("role 'context' must be a list of strings or "
                              f"null, got {self.context!r}")
        object.__setattr__(self, "context", tuple(context))
        if self.target in self.role_columns():
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
        unknown = set(obj) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown role keys: {sorted(unknown)}")
        return cls(**obj)

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


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


def _read_columns(chunks, width):
    """Per-column token lists of the data rows, ragged rows set aside.

    ``chunks`` yields lists of rows, as :func:`read_rows` does; one chunk's
    rows are alive at a time.
    """
    columns = [[] for _ in range(width)]
    ragged = []
    n_rows = 0
    for chunk in chunks:
        rows = chunk
        if set(map(len, chunk)) != {width}:
            ragged.extend(i for i, row in enumerate(chunk, n_rows)
                          if len(row) != width)
            rows = [row for row in chunk if len(row) == width]
        for column, tokens in zip(columns, zip(*rows)):
            column.extend(tokens)
        n_rows += len(chunk)
    return columns, ragged, n_rows


def _floats(tokens, rows=None, strip=True):
    """Parse a column of tokens as floats, nan where a token is not one.

    A column whose one-pass parse raises is parsed once more with each
    exact missing token read as nan; only when that also raises is it
    parsed token by token: a rejected token is then stripped and, if
    ``strip``, parsed again (float() refuses the ``\\x1c``-``\\x1f``
    padding that str.strip() removes).  Returns None when a token on a row
    set in ``rows`` is neither a float nor a missing marker: the column is
    categorical.
    """
    for parsed in (tokens, map(_AS_NAN.get, tokens, tokens)):
        try:
            return np.fromiter(map(float, parsed), float, len(tokens))
        except ValueError:
            pass
    values = np.full(len(tokens), math.nan)
    for i, token in enumerate(tokens):
        for text in (token, token.strip()) if strip else (token,):
            try:
                values[i] = float(text)
                break
            except ValueError:
                pass
        else:
            if rows is not None and rows[i] and text.strip() not in _MISSING:
                return None
    return values


def _labels(tokens):
    """A column's stripped tokens, deduplicated, and which are not missing.

    Keeping the token strings themselves would pin the memory of the
    tokens read around them.
    """
    seen = {}
    values = [seen.setdefault(s, s) for s in map(str.strip, tokens)]
    present = [v not in _MISSING for v in values]
    return np.array(values, dtype=object), np.array(present, dtype=bool)


def _not_utf8(path):
    """DataError naming the file offset of the first byte that is not UTF-8.

    The text reader decodes in chunks, so its error's offset is relative to
    a chunk; decoding the raw bytes again gives the offset in the file.
    """
    with open(path, "rb") as handle:
        try:
            handle.read().decode("utf-8")
        except UnicodeDecodeError as exc:
            return DataError(f"{path}: not UTF-8 text at byte {exc.start}")
    return DataError(f"{path}: not UTF-8 text")


@contextlib.contextmanager
def _open_text(path):
    """Open a UTF-8 text file for reading with ``newline=""``, a leading
    byte order mark dropped; a file that cannot be read or is not UTF-8 is
    a DataError, also when the reading fails inside the ``with`` block."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as handle:
            yield handle
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise _not_utf8(path) from None


def read_lines(path):
    """Yield the lines of a UTF-8 text file, ends kept, split as ``csv``
    reads them; the file is opened by :func:`_open_text`."""
    with _open_text(path) as handle:
        yield from handle


#: Size hint, in characters, of the lines read_rows reads at a time.
_CHUNK_HINT = 1 << 17
#: Rows per list that read_rows yields once csv.reader reads the file.
_CSV_ROWS = 4096


def _split_lines(lines):
    """The rows of quote-free lines: each line is split at its commas, and
    a bare line end is ``[]``."""
    # A line break inside a line can only be its end.
    return [line.rstrip("\r\n").split(",") if line[0] not in "\r\n" else []
            for line in lines]


def _read_chunks(path):
    """Yield the records of a CSV file in chunks of consecutive records,
    each as ``(True, lines)`` or ``(False, rows)``.

    The file is opened by :func:`_open_text` and read in chunks of lines.
    A chunk with no ``"``, no NUL and no line longer than
    ``csv.field_size_limit()`` is quote-free: each of its lines, end kept,
    is one record, which :func:`_split_lines` splits as ``csv`` would.
    From the first chunk that fails that test, ``csv.reader`` reads the
    rest of the file into lists of rows; every line before it was a whole
    record, so the reader starts on a record boundary.  A record ``csv``
    rejects is a DataError naming its row (the first row, usually the
    header, is row 1).
    """
    n_rows = 0
    with _open_text(path) as handle:
        limit = csv.field_size_limit()
        while lines := handle.readlines(_CHUNK_HINT):
            text = "".join(lines)
            if '"' in text or "\0" in text or max(map(len, lines)) > limit:
                break
            n_rows += len(lines)
            yield True, lines
        if not lines:  # every chunk was quote-free
            return
        rows = []
        try:
            for row in csv.reader(itertools.chain(lines, handle)):
                rows.append(row)
                if len(rows) == _CSV_ROWS:
                    n_rows += len(rows)
                    yield False, rows
                    rows = []
        except csv.Error as exc:
            raise DataError(
                f"{path}: row {n_rows + len(rows) + 1}: {exc}") from None
        if rows:
            yield False, rows


def read_rows(path):
    """Yield the rows of a CSV file as Python's ``csv`` module (excel
    dialect) reads them, in lists of consecutive rows, as read by
    :func:`_read_chunks`."""
    for quote_free, chunk in _read_chunks(path):
        yield _split_lines(chunk) if quote_free else chunk


def load_csv(path, roles):
    """Load a headered CSV into a :class:`Dataset`.

    Rows whose target, role, or numeric feature values are missing or
    unparseable are dropped and counted.  Non-numeric feature columns are
    one-hot encoded with categories in lexicographic order.  The file is
    read by :func:`read_rows`; repeated header names are a
    :class:`DataError`.
    """
    chunks = read_rows(path)
    first = next(chunks, None)
    if first is None:
        raise DataError(f"{path}: empty file")
    header = first[0]
    columns, ragged, n_rows = _read_columns(
        itertools.chain([first[1:]], chunks), len(header))
    if len(set(header)) != len(header):
        repeated = sorted({c for c in header if header.count(c) > 1})
        raise DataError(f"{path}: repeated column names {repeated}")
    columns = dict(zip(header, columns))
    role_cols = roles.role_columns()
    for col in [roles.target, *role_cols]:
        if col not in columns:
            raise DataError(f"missing role column {col!r}")

    # Each column is parsed once and its tokens released; a missing token
    # never parses finite, so every drop is a mask over the full-width rows.
    target = _floats(columns.pop(roles.target), strip=False)
    keep = np.isfinite(target)
    numeric_roles = {roles.frame, roles.price_index, *roles.context}
    role_values = {}
    for col in dict.fromkeys(role_cols):
        if col in numeric_roles:
            values = _floats(columns.pop(col))
            present = np.isfinite(values)
        else:
            values, present = _labels(columns.pop(col))
        keep &= present
        role_values[col] = values

    # A feature column is numeric when every token on a row kept so far
    # parses or is missing; rows dropped by other features do not count.
    final = keep.copy()
    parsed = []
    for col in list(columns):
        values = _floats(columns[col], rows=keep)
        if values is None:
            values, present = _labels(columns[col])
        else:
            present = np.isfinite(values)
        del columns[col]
        final &= present
        parsed.append((col, values))
    rows = np.flatnonzero(final)
    if rows.size == 0:
        raise DataError(f"{path}: zero usable rows")

    blocks = []
    names = []
    for col, values in parsed:
        values = values[rows]
        if values.dtype == object:
            cats = sorted(set(values))
            code = {cat: k for k, cat in enumerate(cats)}
            blocks.append(np.eye(len(cats))[[code[v] for v in values]])
            names.extend(f"{col}={cat}" for cat in cats)
        else:
            blocks.append(values)
            names.append(col)
    features = np.column_stack([np.empty((rows.size, 0)), *blocks])

    aux = {name: role_values[getattr(roles, name)][rows]
           for name in ROLE_NAMES if getattr(roles, name) is not None}
    if roles.context:
        aux["context"] = np.column_stack(
            [role_values[c][rows] for c in roles.context])

    return Dataset(
        features=features,
        target=target[rows],
        column_names=tuple(names),
        roles=roles,
        aux=aux,
        n_dropped=n_rows - rows.size,
        kept_rows=tuple(np.delete(np.arange(n_rows), ragged)[rows].tolist()),
    )


# --------------------------------------------------------------------------
# Fitted transforms

KNOWN_KINDS = (
    "identity", "log-offset", "sqrt", "box-cox", "yeo-johnson",
    "quantile-normal", "quantile-uniform",
    "subject-center", "trial-minmax", "frame", "deflate",
    "expectation-norm", "regression-norm",
)


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


#: kind -> (forward, inverse, inverse_range), filled by register_kind
_REGISTRY = {}
#: kind -> (fit, roles), filled by register_kind
_FITS = {}
#: the kinds that read a role column, filled by register_kind
AUX_KINDS = set()


def _total_range(params):
    """The inverse range of a kind whose inverse is total."""
    return (-math.inf, math.inf)


def register_kind(kind, fit, forward_fn, inverse_fn,
                  inverse_range_fn=_total_range, roles=()):
    """Declare a transform kind: its fit, its maps and the roles it reads.

    ``fit(y, *columns)`` gets the training targets and the columns of
    ``roles``, in that order, and reads the targets through
    :func:`_finite_target` first; a lambda over a module function looks
    that function up at call time, so a wrapper set on the module is
    honoured.
    ``forward_fn(params, y, aux)`` and ``inverse_fn(params, z, aux)`` get
    the first role's column as ``aux`` (None without roles).
    ``inverse_range_fn(params)`` gives the open interval the inverse
    accepts; the default is the whole line.  A new kind also needs its
    entry in :data:`KNOWN_KINDS`.
    """
    _REGISTRY[kind] = (forward_fn, inverse_fn, inverse_range_fn)
    _FITS[kind] = (fit, tuple(roles))
    if roles:
        AUX_KINDS.add(kind)


def _lookup(table, kind):
    if kind not in table:
        raise ConfigError(f"unknown transform kind {kind!r}")
    return table[kind]


def kind_fit(kind):
    """A registered kind's ``(fit, roles)``."""
    return _lookup(_FITS, kind)


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
    return _lookup(_REGISTRY, t.kind)[0](t.params, y, aux)


def inverse(t, z, aux=None):
    """Apply the fitted inverse map elementwise."""
    z = np.asarray(z, dtype=float)
    _check_aux(t, aux, z.shape[0])
    return _lookup(_REGISTRY, t.kind)[1](t.params, z, aux)


def inverse_range(t):
    """Open interval of transformed values the inverse accepts.

    Returns ``(-inf, inf)`` for kinds whose inverse is total.
    """
    return _lookup(_REGISTRY, t.kind)[2](t.params)


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


def _raise_first_bad(bad, message, rows=None):
    """Raise TransformDomainError for the first row where ``bad`` holds,
    with ``message`` formatted on that row's ``index``: its position in
    ``bad``, or its entry of ``rows`` when ``bad`` covers only those rows."""
    found = np.flatnonzero(bad)
    if found.size:
        index = int(found[0] if rows is None else rows[found[0]])
        raise TransformDomainError(message.format(index=index), index=index)


def _finite_target(y, kind):
    """``y`` as floats, checked first by every registered fit; a DataError
    names its first non-finite row."""
    y = np.asarray(y, dtype=float)
    bad = np.flatnonzero(~np.isfinite(y))
    if bad.size:
        raise DataError(f"{kind}: non-finite target at index {bad[0]}")
    return y


def target_range(y):
    """``(min(y), max(y))`` as floats; a DataError if ``y`` is empty."""
    y = np.asarray(y, dtype=float)
    if y.size == 0:
        raise DataError("empty target")
    return (float(np.min(y)), float(np.max(y)))


def identity_transform(y):
    """Fit the trivial transform (baseline of every benchmark)."""
    return FittedTransform("identity", {},
                           target_range(_finite_target(y, "identity")))


register_kind("identity", identity_transform,
              lambda p, y, aux: y.copy(),
              lambda p, z, aux: z.copy())
