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
#: the roles whose columns hold group keys, read as labels; every other
#: role's column is read as floats
KEY_ROLES = ("subject", "time", "trial")


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
        numeric = dict.fromkeys(self.context, "context")
        numeric.update((getattr(self, name), name) for name in ROLE_NAMES
                       if name not in KEY_ROLES)
        for name in KEY_ROLES:
            column = getattr(self, name)
            if column is not None and column in numeric:
                raise ConfigError(
                    f"column {column!r} cannot carry both the {name!r} role "
                    f"and the numeric {numeric[column]!r} role")

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


def _floats(tokens, rows=None):
    """Parse a column of tokens as floats, nan where a token is not one.

    A column whose one-pass parse raises is parsed once more with each
    exact missing token read as nan; only when that also raises is it
    parsed token by token: a rejected token is then stripped and parsed
    again (float() refuses the ``\\x1c``-``\\x1f`` padding that
    str.strip() removes).  Returns None when a token on a row set in
    ``rows`` is neither a float nor a missing marker: the column is
    categorical.
    """
    for parsed in (tokens, map(_AS_NAN.get, tokens, tokens)):
        try:
            return np.fromiter(map(float, parsed), float, len(tokens))
        except ValueError:
            pass
    values = np.full(len(tokens), math.nan)
    for i, token in enumerate(tokens):
        for text in (token, token.strip()):
            try:
                values[i] = float(text)
                break
            except ValueError:
                pass
        else:
            if rows is not None and rows[i] and text not in _MISSING:
                return None
    return values


def _float_matrix(lines, width, usecols):
    """The fields in columns ``usecols`` (ascending) of quote-free ``lines``
    of ``width`` fields each, as numpy's C reader parses them: floats only,
    each stripped of the whitespace str.strip() removes.  None when it
    rejects a token (a missing one too) or a line is not ``width`` fields.

    Given ``usecols``, the reader takes a row with extra fields and one
    that ends after the last column it reads, so each line's commas are
    counted first; reading every column, it checks the width itself."""
    every = len(usecols) == width
    if not every and any(line.count(",") != width - 1 for line in lines):
        return None
    try:
        matrix = np.loadtxt(lines, dtype=float, delimiter=",", comments=None,
                            ndmin=2, usecols=None if every else usecols)
    except ValueError:
        return None
    return matrix if matrix.shape == (len(lines), len(usecols)) else None


def _token_columns(lines, width, skip):
    """Per column of quote-free ``lines`` of ``width`` fields each, its
    tokens as :func:`_rows` splits them, or None for a column in ``skip``.
    A line is split only as far as the other columns need, from the end
    nearer to each."""
    columns = [None] * width
    need = sorted(set(range(width)).difference(skip))
    front = [j for j in need if j < width - 1 - j]
    back = [j for j in need if j >= width - 1 - j]
    if front:
        fields = list(zip(*[line.split(",", front[-1] + 1)
                            for line in lines]))
        for j in front:
            columns[j] = fields[j]
    if back:
        fields = list(zip(*[line.rstrip("\r\n").rsplit(",", width - back[0])
                            for line in lines]))
        for j in back:
            columns[j] = fields[j - width]
    return columns


def _labels(tokens, seen):
    """A column's stripped tokens and which are not missing.

    Each label is interned through ``seen``, one dict shared by every
    chunk of a load, so an equal label is one object wherever it is read;
    keeping the token strings themselves would pin the memory of the
    tokens read around them.
    """
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


def read_text(path):
    """The text of a UTF-8 file, as :func:`_open_text` opens it."""
    with _open_text(path) as handle:
        return handle.read()


#: Size hint, in characters, of the lines _read_chunks reads at a time.
_CHUNK_HINT = 1 << 17
#: Rows per list that _read_chunks yields once csv.reader reads the file.
_CSV_ROWS = 4096


def _read_chunks(path):
    """Yield the records of a CSV file in chunks of consecutive records,
    each as ``(True, lines)`` or ``(False, rows)``.

    The file is opened by :func:`_open_text` and read in chunks of lines.
    A chunk with no ``"``, no NUL and no line longer than
    ``csv.field_size_limit()`` is quote-free: each of its lines, end kept,
    is one record, which :func:`_rows` splits as ``csv`` would.
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
    """Yield the rows of a CSV file as ``csv.reader`` reads them."""
    for chunk in _read_chunks(path):
        yield from _rows(chunk)


def _rows(chunk):
    """The rows of one ``(quote_free, records)`` chunk of
    :func:`_read_chunks`: a quote-free line is split at its commas, and a
    bare line end is ``[]``."""
    quote_free, records = chunk
    if not quote_free:
        return records
    # A line break inside a line can only be its end.
    return [line.rstrip("\r\n").split(",") if line[0] not in "\r\n" else []
            for line in records]


def _splicer(width, k):
    """A function of a quote-free line of ``width`` fields and a token that
    returns the line, field ``k`` replaced by the token and split off from
    the nearer end, ended by ``\\r\\n``: what csv.writer writes, since no
    field and no repr(float) holds a comma, a quote or a line break."""
    if k == width - 1:
        return lambda line, token: line[:line.rfind(",") + 1] + token + "\r\n"
    front = k < width - 1 - k
    at = k if front else 1

    def splice(line, token):
        parts = (line.split(",", k + 1) if front
                 else line.rsplit(",", width - k))
        parts[at] = token
        parts[-1] = parts[-1].rstrip("\r\n")
        return ",".join(parts) + "\r\n"
    return splice


def write_records(dst, records, kept_rows, target, tokens):
    """Write to ``dst`` the header and the data records that :func:`load_csv`
    put in ``records`` and ``kept_rows`` numbers (from 0), as csv.writer
    (excel dialect) writes them, each ``target`` field replaced by the next
    of the ``tokens`` iterator."""
    header, *chunks = records
    writer = csv.writer(dst)
    writer.writerow(header)
    target_col = header.index(target)
    splice = _splicer(len(header), target_col)
    kept = set(kept_rows)
    first = 0  # the data-row index of the chunk's first record
    for quote_free, chunk in chunks:
        rows = enumerate(chunk, first)
        first += len(chunk)
        if quote_free:
            dst.write("".join([splice(line, next(tokens))
                               for i, line in rows if i in kept]))
            continue
        for i, row in rows:
            if i in kept:
                row[target_col] = next(tokens)
                # A non-empty line with one comma per field separator and
                # no quote or line break is what csv.writer writes for the
                # row; any other row goes through it.
                line = ",".join(row)
                if (line and line.count(",") == len(row) - 1
                        and '"' not in line and "\r" not in line
                        and "\n" not in line):
                    dst.write(line + "\r\n")
                else:
                    writer.writerow(row)


#: Most distinct labels a categorical feature column may one-hot encode.
_MAX_LEVELS = 1000


def _header_error(path, header, roles):
    """The DataError of a header with a repeated name or without a role
    column, else None."""
    if len(set(header)) != len(header):
        repeated = sorted({c for c in header if header.count(c) > 1})
        return DataError(f"{path}: repeated column names {repeated}")
    for col in [roles.target, *roles.role_columns()]:
        if col not in header:
            return DataError(f"missing role column {col!r}")
    return None


def load_csv(path, roles, records=None):
    """Load a headered CSV into a :class:`Dataset`.

    Rows whose target, role, or numeric feature values are missing or
    unparseable are dropped and counted.  Non-numeric feature columns are
    one-hot encoded with categories in lexicographic order; one with more
    than :data:`_MAX_LEVELS` categories is a :class:`DataError`.  Each
    chunk of :func:`_read_chunks` is parsed as it is read, every token
    stripped first.  A feature column is numeric when every token on a row
    kept by the target and role columns parses or is missing, over the
    whole file: a column that meets another token after earlier chunks
    parsed as numbers is parsed again from those chunks' records, so every
    record read is held until the load ends (a ``csv.reader`` row as its
    list of fields).  Repeated header names and a missing role column are
    a :class:`DataError` raised at the header.  Given a list ``records``,
    the load appends the header row and the chunks of data records to it,
    for write_records.

    numpy's C reader (:func:`_float_matrix`) reads the same float from
    each token it accepts, and it parses a set of columns: at first every
    column that is not a key role.  A quote-free chunk with a data line
    and no bare line end is first given to it, once each line's field
    count is checked against the header's; the chunk's other columns are
    taken from each line, split only as far as they need.  A chunk it
    rejects (a token that is missing or not in its float syntax, or a row
    of another width) is parsed as above, and the reader then keeps only
    the columns whose values in that chunk were all finite floats; when
    that drops none, it stops for the rest of the load.  So a load makes
    at most one rejected call per column, plus one.  A column that turns
    categorical leaves the reader too.
    """
    chunks = _read_chunks(path)
    quote_free, head = next(chunks, (True, []))
    if not head:
        raise DataError(f"{path}: empty file")
    header = _rows((quote_free, head[:1]))[0]
    error = _header_error(path, header, roles)
    if error is not None:
        chunks.close()
        raise error
    chunks = itertools.chain([(quote_free, head[1:])], chunks)

    width = len(header)
    col = {name: j for j, name in enumerate(header)}
    value_cols = list(dict.fromkeys([roles.target, *roles.role_columns()]))
    key_cols = {getattr(roles, name) for name in KEY_ROLES}
    feature_cols = [j for j, name in enumerate(header)
                    if name not in value_cols]
    seen = {}
    read = []           # each chunk's records, for a column turned categorical
    n_rows = 0
    ragged = []
    keeps = []
    value_parts = {name: [] for name in value_cols}
    # Per feature column, each chunk's (values, present); a column in
    # `categorical` holds labels, any other floats.
    feature_parts = {j: [] for j in feature_cols}
    categorical = set()
    # The columns numpy's C reader parses, none once it has stopped.
    reader = [j for j, name in enumerate(header) if name not in key_cols]
    for chunk in chunks:
        quote_free, lines = chunk
        # numpy's reader skips a bare line end, which is a ragged row here,
        # and warns on a chunk of nothing else: such a chunk takes the
        # tokens.
        offered = (reader and quote_free and lines and not any(
            end in lines for end in ("\n", "\r\n", "\r")))
        matrix = _float_matrix(lines, width, reader) if offered else None
        if matrix is not None:
            n = len(lines)
            columns = _token_columns(lines, width, reader)
            floats = dict(zip(reader, matrix.T))
        else:
            rows = _rows(chunk)
            whole = [row for row in rows if len(row) == width]
            if len(whole) != len(rows):
                ragged.extend(i for i, row in enumerate(rows, n_rows)
                              if len(row) != width)
            n = len(whole)
            columns = list(zip(*whole)) or [()] * width
            floats = {}
        n_rows += len(lines)

        # A missing token never parses finite, so every drop is a mask
        # over the chunk's full-width rows.
        keep = np.ones(n, dtype=bool)
        parsed = {}  # this chunk's columns of floats, for the reader below
        for name in value_cols:
            j = col[name]
            if name in key_cols:
                values, present = _labels(columns[j], seen)
            else:
                values = parsed[j] = (floats[j] if j in floats
                                      else _floats(columns[j]))
                present = np.isfinite(values)
            keep &= present
            value_parts[name].append(values)
        keeps.append(keep)

        # Rows that other feature columns drop still enter the decision.
        for j in feature_cols:
            tokens = columns[j]
            if j in floats:
                values = floats[j]
            elif j in categorical:
                values = None
            else:
                values = _floats(tokens, rows=keep)
            if values is not None:
                parsed[j] = values
                feature_parts[j].append((values, np.isfinite(values)))
                continue
            if j not in categorical:
                categorical.add(j)
                feature_parts[j] = [
                    _labels([row[j] for row in _rows(old)
                             if len(row) == width], seen)
                    for old in read]
            feature_parts[j].append(_labels(tokens, seen))
        if offered and matrix is None:
            # The reader keeps the columns this chunk showed to be finite
            # floats, and stops when that is every column it had.
            kept = [j for j in reader
                    if j in parsed and np.isfinite(parsed[j]).all()]
            reader = kept if len(kept) < len(reader) else []
        else:
            # A column can turn categorical in a chunk the reader was not
            # given, one with a bare line end.
            reader = [j for j in reader if j not in categorical]
        read.append(chunk)
    if records is not None:
        records.extend([header, *read])
    del read  # before the one-hot blocks are allocated

    keep = np.concatenate(keeps)
    final = keep.copy()
    parsed = []
    for j in feature_cols:
        values, present = (np.concatenate(part)
                           for part in zip(*feature_parts.pop(j)))
        final &= present
        parsed.append((j, values))
    rows = np.flatnonzero(final)
    if rows.size == 0:
        raise DataError(f"{path}: zero usable rows")

    blocks = []
    names = []
    for j, values in parsed:
        kept = values[rows]
        if j in categorical:
            cats = sorted(set(kept))
            if len(cats) > _MAX_LEVELS:
                text = next(v for v in values[keep]
                            if _floats([v], rows=[True]) is None)
                raise DataError(
                    f"{path}: categorical column {header[j]!r} has "
                    f"{len(cats)} levels, more than {_MAX_LEVELS}; its first "
                    f"non-float token is {text!r}")
            code = {cat: k for k, cat in enumerate(cats)}
            blocks.append(np.eye(len(cats))[[code[v] for v in kept]])
            names.extend(f"{header[j]}={cat}" for cat in cats)
        else:
            blocks.append(kept)
            names.append(header[j])
    features = np.column_stack([np.empty((rows.size, 0)), *blocks])

    by_name = {name: np.concatenate(parts)[rows]
               for name, parts in value_parts.items()}
    aux = {name: by_name[getattr(roles, name)]
           for name in ROLE_NAMES if getattr(roles, name) is not None}
    if roles.context:
        aux["context"] = np.column_stack(
            [by_name[c] for c in roles.context])

    return Dataset(
        features=features,
        target=by_name[roles.target],
        column_names=tuple(names),
        roles=roles,
        aux=aux,
        n_dropped=n_rows - rows.size,
        kept_rows=tuple(np.delete(np.arange(n_rows), ragged)[rows].tolist()),
    )


# --------------------------------------------------------------------------
# Fitted transforms

#: how an error names each JSON type an entry read from JSON may hold
_JSON_NAMES = {dict: "a JSON object", str: "a string", int: "an integer",
               bool: "a boolean", list[str]: "a list of strings",
               list[float]: "a list of numbers"}


def _is_json(value, kind):
    """Whether ``value`` is of the JSON ``kind`` (a key of ``_JSON_NAMES``,
    or float for a number); true and false are neither integers nor
    numbers."""
    if kind in (list[str], list[float]):
        return (isinstance(value, list)
                and all(_is_json(v, *kind.__args__) for v in value))
    return (isinstance(value, (int, float) if kind is float else kind)
            and (kind is bool or not isinstance(value, bool)))


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
        """Read what :meth:`to_json` writes.  A DataError names the first
        problem of malformed text, and an unknown kind is a ConfigError."""
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DataError(f"transform sidecar is not JSON: {exc}") from None
        if not isinstance(obj, dict):
            raise DataError("transform sidecar is not a JSON object")
        for key, kind in (("kind", str), ("params", dict),
                          ("training_target_range", list[float])):
            if key not in obj:
                raise DataError(f"transform sidecar lacks key {key!r}")
            if not _is_json(obj[key], kind):
                raise DataError(f"transform sidecar {key!r} is not "
                                f"{_JSON_NAMES[kind]}")
        bounds = obj["training_target_range"]
        if len(bounds) != 2:
            raise DataError("transform sidecar 'training_target_range' "
                            "does not hold two numbers")
        _lookup(_REGISTRY, obj["kind"])
        return cls(kind=obj["kind"], params=obj["params"],
                   training_target_range=tuple(bounds))


#: kind -> (forward, inverse, inverse_range), filled by register_kind
_REGISTRY = {}
#: kind -> (fit, roles, min_target), filled by register_kind
_FITS = {}
#: the kinds that read a role column, filled by register_kind
AUX_KINDS = set()


def _total_range(params):
    """The inverse range of a kind whose inverse is total."""
    return (-math.inf, math.inf)


def register_kind(kind, fit, forward_fn, inverse_fn,
                  inverse_range_fn=_total_range, roles=(),
                  min_target=-math.inf):
    """Declare a transform kind: its fit, its maps, the roles it reads and
    the targets it accepts.

    ``fit(y, *columns)`` gets the training targets and the columns of
    ``roles``, in that order, and reads the targets through
    :func:`_finite_target` first; a lambda over a module function looks
    that function up at call time, so a wrapper set on the module is
    honoured.
    ``forward_fn(params, y, aux)`` and ``inverse_fn(params, z, aux)`` get
    the first role's column as ``aux`` (None without roles).
    ``inverse_range_fn(params)`` gives the open interval the inverse
    accepts; the default is the whole line.  ``min_target`` is the least
    target the fit accepts; the default accepts any finite target.  A new
    kind also needs its entry in :data:`KNOWN_KINDS`.
    """
    _REGISTRY[kind] = (forward_fn, inverse_fn, inverse_range_fn)
    _FITS[kind] = (fit, tuple(roles), min_target)
    if roles:
        AUX_KINDS.add(kind)


def _lookup(table, kind):
    if kind not in table:
        raise ConfigError(f"unknown transform kind {kind!r}")
    return table[kind]


def kind_fit(kind):
    """A registered kind's ``(fit, roles, min_target)``."""
    return _lookup(_FITS, kind)


def _check_values(t, values, aux):
    """A DataError naming the kind and the shape of 0-d ``values``, or of
    ``values`` that are not 1-D when the kind reads a role column; then a
    ConfigError for such a kind's missing ``aux`` or one of another
    length."""
    if t.kind in AUX_KINDS:
        if values.ndim != 1:
            raise DataError(
                f"{t.kind}: values must be 1-D, got shape {values.shape}")
        if aux is None:
            raise ConfigError(f"{t.kind} requires per-row auxiliary values")
        if len(aux) != values.shape[0]:
            raise ConfigError(f"{t.kind}: auxiliary length {len(aux)} != "
                              f"{values.shape[0]} values")
    elif values.ndim == 0:
        raise DataError(f"{t.kind}: values must have at least one "
                        f"dimension, got shape {values.shape}")


def forward(t, y, aux=None):
    """Apply the fitted forward map elementwise."""
    y = np.asarray(y, dtype=float)
    map_fn = _lookup(_REGISTRY, t.kind)[0]
    _check_values(t, y, aux)
    return map_fn(t.params, y, aux)


def inverse(t, z, aux=None):
    """Apply the fitted inverse map elementwise."""
    z = np.asarray(z, dtype=float)
    map_fn = _lookup(_REGISTRY, t.kind)[1]
    _check_values(t, z, aux)
    return map_fn(t.params, z, aux)


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
    names the shape of a ``y`` that is not 1-D, or its first non-finite
    row."""
    y = np.asarray(y, dtype=float)
    if y.ndim != 1:
        raise DataError(f"{kind}: target must be 1-D, got shape {y.shape}")
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
