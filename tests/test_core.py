import csv
import inspect
import itertools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ytx
from ytx import core, diagnostics, evaluation
from ytx.core import _MISSING, ROLE_NAMES, Dataset
from ytx.errors import ConfigError, DataError, TransformDomainError


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_basic_parse(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n3,4\n5,6\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.n == 3 and ds.d == 1
        assert list(ds.target) == [2.0, 4.0, 6.0]
        assert ds.n_dropped == 0

    def test_missing_target_row_dropped(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n3,\n5,6\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.n == 2
        assert ds.n_dropped == 1

    def test_missing_role_column(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\n")
        with pytest.raises(DataError, match="missing role column"):
            ytx.load_csv(path, ytx.ColumnRoles(target="y", subject="z"))

    def test_missing_file(self):
        with pytest.raises(DataError):
            ytx.load_csv("/nonexistent/nope.csv", ytx.ColumnRoles(target="y"))

    def test_zero_usable_rows(self, tmp_path):
        path = write(tmp_path, "x,y\n1,?\n2,\n")
        with pytest.raises(DataError, match="zero usable rows"):
            ytx.load_csv(path, ytx.ColumnRoles(target="y"))

    def test_one_hot_lexicographic(self, tmp_path):
        path = write(tmp_path, "col,y\nb,1\na,2\nb,3\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.column_names == ("col=a", "col=b")
        assert ds.features.tolist() == [[0, 1], [1, 0], [0, 1]]

    def test_deterministic(self, tmp_path):
        path = write(tmp_path, "x,c,y\n1,a,2\n3,b,4\n5,a,?\n")
        roles = ytx.ColumnRoles(target="y")
        a = ytx.load_csv(path, roles)
        b = ytx.load_csv(path, roles)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.target, b.target)
        assert a.column_names == b.column_names
        assert a.kept_rows == b.kept_rows

    def test_no_nan_after_ingestion(self, tmp_path):
        path = write(tmp_path, "x,y\n1,2\nNaN,4\ninf,5\n3,6\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert np.all(np.isfinite(ds.features))
        assert np.all(np.isfinite(ds.target))

    def test_roles_from_json_roundtrip(self):
        roles = ytx.ColumnRoles(target="y", subject="s", context=("a", "b"))
        again = ytx.ColumnRoles.from_json(roles.to_json())
        assert again == roles

    def test_roles_json_text_and_null_context(self):
        roles = ytx.ColumnRoles(target="y", trial="t", context=("a", "b"))
        assert roles.to_json() == (
            '{"context": ["a", "b"], "frame": null, "price_index": null, '
            '"subject": null, "target": "y", "time": null, "trial": "t"}')
        again = ytx.ColumnRoles.from_json('{"target": "y", "context": null}')
        assert again == ytx.ColumnRoles(target="y")
        assert again.context == ()
        with pytest.raises(ConfigError, match=r"unknown role keys: \['sub'\]"):
            ytx.ColumnRoles.from_json('{"target": "y", "sub": "s"}')

    def test_roles_json_that_does_not_parse_is_config_error(self):
        text = '{"target": "y",}'
        with pytest.raises(json.JSONDecodeError) as parse:
            json.loads(text)
        with pytest.raises(ConfigError) as err:
            ytx.ColumnRoles.from_json(text)
        assert str(err.value) == f"invalid roles JSON: {parse.value}"

    @pytest.mark.parametrize("text", ['["y"]', '"target"', "null",
                                      '{"subject": "s"}'])
    def test_roles_json_not_an_object_with_target_is_config_error(self,
                                                                  text):
        with pytest.raises(ConfigError) as err:
            ytx.ColumnRoles.from_json(text)
        assert str(err.value) == (
            'roles JSON must be an object with a "target" key')

    def test_target_cannot_hold_two_roles(self):
        with pytest.raises(ConfigError):
            ytx.ColumnRoles(target="y", frame="y")

    @pytest.mark.parametrize("roles, message", [
        ({"subject": "s", "frame": "s"},
         "column 's' cannot carry both the 'subject' role and the numeric "
         "'frame' role"),
        ({"time": "x", "price_index": "x"},
         "column 'x' cannot carry both the 'time' role and the numeric "
         "'price_index' role"),
        ({"trial": "c", "context": ["a", "c"]},
         "column 'c' cannot carry both the 'trial' role and the numeric "
         "'context' role"),
    ], ids=["subject-frame", "time-price", "trial-context"])
    def test_key_role_cannot_share_a_numeric_column(self, roles, message):
        for build in (lambda: ytx.ColumnRoles(target="y", **roles),
                      lambda: ytx.ColumnRoles.from_json(
                          json.dumps({"target": "y", **roles}))):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message

    def test_roles_of_one_kind_may_share_a_column(self, tmp_path):
        # Key roles read the column as labels, numeric roles as floats.
        path = write(tmp_path, "k,p,y\n1,2.5,3\n1.0,4,5\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(
            target="y", subject="k", trial="k", frame="p", price_index="p",
            context=("p",)))
        assert ds.aux["subject"].tolist() == ds.aux["trial"].tolist() == [
            "1", "1.0"]
        assert ds.aux["frame"].tolist() == [2.5, 4.0]
        assert ds.aux["price_index"].tolist() == [2.5, 4.0]
        assert ds.aux["context"].tolist() == [[2.5], [4.0]]

    @pytest.mark.parametrize("roles, message", [
        ({"target": ["y"]}, "role 'target' must be a string, got ['y']"),
        ({"target": None}, "role 'target' must be a string, got None"),
        ({"target": "y", "subject": 5},
         "role 'subject' must be a string or null, got 5"),
        ({"target": "y", "price_index": ["cpi"]},
         "role 'price_index' must be a string or null, got ['cpi']"),
        ({"target": "y", "context": "cpi"},
         "role 'context' must be a list of strings or null, got 'cpi'"),
        ({"target": "y", "context": ["a", 1]},
         "role 'context' must be a list of strings or null, got ['a', 1]"),
        ({"target": "y", "context": {}},
         "role 'context' must be a list of strings or null, got {}"),
    ], ids=["target-list", "target-null", "subject-number", "price-list",
            "context-string", "context-number", "context-object"])
    def test_role_values_are_type_checked(self, roles, message):
        for build in (lambda: ytx.ColumnRoles(**roles),
                      lambda: ytx.ColumnRoles.from_json(json.dumps(roles))):
            with pytest.raises(ConfigError) as exc:
                build()
            assert str(exc.value) == message

    def test_null_roles_and_context_lists_are_accepted(self):
        roles = ytx.ColumnRoles(target="y", subject=None, context=["a", "b"])
        assert roles.context == ("a", "b")
        assert ytx.ColumnRoles(target="y", context=None).context == ()
        assert ytx.ColumnRoles.from_json(
            '{"target": "y", "time": null, "context": []}'
        ) == ytx.ColumnRoles(target="y")


class TestLoadCsvHeader:
    def test_utf8_bom_before_first_column(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1,2\n3,4\n")
        ds = ytx.load_csv(str(path), ytx.ColumnRoles(target="y"))
        assert ds.target.tolist() == [1.0, 3.0]
        assert ds.column_names == ("x",)

    def test_empty_file_is_data_error(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError) as err:
            ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert str(err.value) == f"{path}: empty file"

    def test_repeated_header_names_rejected(self, tmp_path):
        path = write(tmp_path, "x,z,x,y,z\n1,2,3,4,5\n")
        with pytest.raises(DataError,
                           match=r"repeated column names \['x', 'z'\]"):
            ytx.load_csv(path, ytx.ColumnRoles(target="y"))

    @pytest.mark.parametrize("rows", [1, 5000])
    def test_non_utf8_byte_is_data_error_with_offset(self, tmp_path, rows):
        # 5000 rows put the bad byte past the text reader's first chunk.
        head = b"a,y\n" + b"1,2\n" * rows
        path = tmp_path / "latin1.csv"
        path.write_bytes(head + b"\xff,3\n")
        with pytest.raises(DataError,
                           match=f"not UTF-8 text at byte {len(head)}$"):
            ytx.load_csv(str(path), ytx.ColumnRoles(target="y"))


# The row-by-row loader that column-wise ingestion replaced, kept verbatim as
# the oracle of TestLoadCsvEquivalence.
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


def _reference_load_csv(path, roles):
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
        if _parse_float(row[col_index[roles.target]].strip()) is None:
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
        [_parse_float(data_rows[i][col_index[roles.target]].strip())
         for i in final])

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


_NUMERIC_TOKENS = ("1", "-2.5", " 3 ", "\t4", "0", "-0", "1e400", "-1e400",
                   "inf", "-inf", "NAN", " nan ", "1_000", "\u0661\u0662",
                   "\x1c5\x1c", "\u30007")
_TEXT_TOKENS = ("a", "b", " a ", "a,b", 'q"t', "x\ny", "\u00fc", "1 2")


def _token(kind):
    missing = st.sampled_from(sorted(_MISSING) + [" NA ", " ? "])
    numeric = st.one_of(st.sampled_from(_NUMERIC_TOKENS),
                        st.floats().map(repr),
                        st.integers(-3, 3).map(str))
    text = st.sampled_from(_TEXT_TOKENS)
    pools = {"numeric": [numeric] * 7 + [missing],
             "mixed": [numeric] * 5 + [text, missing],
             "text": [text] * 7 + [missing],
             "empty": [st.just("")]}[kind]
    return st.sampled_from(pools).flatmap(lambda pool: pool)


def _rarely(draw, one_in):
    return draw(st.integers(1, one_in)) == one_in


@st.composite
def _csv_case(draw):
    """A header, roles over its names, and rows that are ragged at times."""
    names = draw(st.lists(st.sampled_from(["y", "x", "s", "t", " c", "k,1"]),
                          min_size=1, max_size=5, unique=True))
    target = draw(st.sampled_from(names))
    roles, context = {}, []
    for name in names:
        if name == target:
            continue
        role = draw(st.sampled_from(["feature", "feature", "feature",
                                     "context", *ROLE_NAMES]))
        if role == "context":
            context.append(name)
        elif role != "feature" and role not in roles:
            roles[role] = name
    if _rarely(draw, 20):
        roles.setdefault("trial", "absent")
    kinds = ["empty" if name != target and _rarely(draw, 12) else
             draw(st.sampled_from(["numeric", "mixed"] if name == target
                                  else ["numeric", "numeric", "mixed",
                                        "text", "text"]))
             for name in names]
    rows = []
    for _ in range(draw(st.integers(0, 12))):
        width = len(names)
        if _rarely(draw, 8):
            width = draw(st.integers(0, len(names) + 1))
        rows.append([draw(_token(kinds[j % len(names)]))
                     for j in range(width)])
    return ([names, *rows],
            ytx.ColumnRoles(target=target, context=tuple(context), **roles))


def _load_either(loader, path, roles):
    try:
        return loader(path, roles)
    except DataError as exc:
        return str(exc)


def _assert_same_load(path, roles, oracle=_reference_load_csv):
    got = _load_either(ytx.load_csv, path, roles)
    want = _load_either(oracle, path, roles)
    if isinstance(want, str) or isinstance(got, str):
        assert got == want
        return
    assert got.features.shape == want.features.shape
    assert got.features.tobytes() == want.features.tobytes()
    assert got.target.tobytes() == want.target.tobytes()
    assert got.column_names == want.column_names
    assert got.aux.keys() == want.aux.keys()
    for key, value in want.aux.items():
        assert got.aux[key].dtype == value.dtype
        assert got.aux[key].shape == value.shape
        assert got.aux[key].tolist() == value.tolist()
    assert got.n_dropped == want.n_dropped
    assert got.kept_rows == want.kept_rows


def _assert_same_load_of_rows(tmp_path, case):
    """Rows written by csv.writer load as the reference loader reads them."""
    rows, roles = case
    path = tmp_path / "fuzz.csv"
    with open(path, "w", newline="", encoding="utf-8") as handle:
        csv.writer(handle).writerows(rows)
    _assert_same_load(str(path), roles)


class TestReadRows:
    """read_rows gives the rows csv.reader reads, in any chunking."""

    @given(text=st.text(st.sampled_from('ab ,"\r\n\x00\x1c\u2028'),
                        max_size=60),
           hint=st.sampled_from([1, 7, 1 << 17]))
    @settings(max_examples=500, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rows_match_csv_reader(self, tmp_path, monkeypatch, text, hint):
        monkeypatch.setattr(core, "_CHUNK_HINT", hint)
        path = tmp_path / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        with open(path, newline="", encoding="utf-8") as handle:
            want = list(csv.reader(handle))
        assert all(records for _, records in core._read_chunks(str(path)))
        assert list(core.read_rows(str(path))) == want

    @pytest.mark.parametrize("head, row", [
        ("x,y\n1,2\n", 3),
        ('x,y\n"1",2\n', 3),                       # after the hand-over
        ('x,"y"\n' + "1,2\n" * 5000, 5002),        # past a list of rows
        ("x,y\n" + "1,2\n" * 50000, 50002),        # past a chunk of lines
    ], ids=["first-chunk", "csv-reader", "csv-reader-5000", "chunk-50000"])
    @pytest.mark.parametrize("field", ["a" * 200000, '"' + "a" * 200000 + '"'],
                             ids=["bare", "quoted"])
    def test_over_long_field_is_data_error(self, tmp_path, head, row, field):
        path = tmp_path / "long.csv"
        path.write_text(head + field + ",3\n4,5\n")
        message = (f"row {row}: field larger than field limit "
                   f"\\({csv.field_size_limit()}\\)$")
        with pytest.raises(DataError, match=message):
            ytx.load_csv(str(path), ytx.ColumnRoles(target="y"))


# Quote-free rows filling three of read_rows's chunks, then a quoted field
# that spans two lines.
_LATE_QUOTE = ("x,y\n" + "".join(f"{i % 7},{i}\n" for i in range(50000))
               + '"two\nlines",5\n1,2\n')


class TestLoadCsvEquivalence:
    """Column-wise ingestion gives the row-by-row loader's Dataset.

    Byte order marks and repeated header names are left out: both now
    behave differently on purpose (see TestLoadCsvHeader).
    """

    @given(case=_csv_case())
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_loader(self, tmp_path, case):
        _assert_same_load_of_rows(tmp_path, case)

    @given(case=_csv_case())
    @settings(max_examples=400, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_matches_reference_loader_in_small_chunks(self, tmp_path,
                                                      monkeypatch, case):
        # A line or two per chunk: each case crosses chunk boundaries and
        # any hand-over to csv.reader.
        monkeypatch.setattr(core, "_CHUNK_HINT", 16)
        _assert_same_load_of_rows(tmp_path, case)

    @pytest.mark.parametrize("text", [
        "x,y\r1,2\r3,4\r",
        "x,y\r\n1,2\n3,4\r5,6\r\n7,8",
        "\nx,y\n\n1,2\r\n\r\n3,4\r\r5,6\n\n",
        "x,y\n\x1c1\x1c,2\na\x1cb,3\n1\u20282,4\nc\u2028,5\n6,7\n",
        "x,y\nnul\x00,1\n2,3\n",
        'x,y\n1,2\n"a\r\nb",3\n4,"5"\n\n"c""d",6\n7,8\n',
        _LATE_QUOTE,
    ], ids=["cr", "mixed-ends", "blank-lines", "separators", "nul",
            "quoted", "late-quote"])
    @pytest.mark.parametrize("hint", [16, 1 << 17])
    def test_raw_text_matches_reference_loader(self, tmp_path, monkeypatch,
                                               hint, text):
        monkeypatch.setattr(core, "_CHUNK_HINT", hint)
        path = tmp_path / "raw.csv"
        path.write_bytes(text.encode("utf-8"))
        for target in ("x", "y"):
            _assert_same_load(str(path), ytx.ColumnRoles(target=target))

    @pytest.mark.parametrize("header", ["a,b,y", "b,a,y"])
    def test_numeric_decision_ignores_feature_drops(self, tmp_path, header):
        # Row 1 keeps its target, so its "abc" makes column a categorical
        # even though column b's missing token then drops the row.
        by_name = {"a": ["1", "abc", "3"], "b": ["2", "", "4"],
                   "y": ["10", "11", "12"]}
        names = header.split(",")
        lines = [header] + [",".join(by_name[c][i] for c in names)
                            for i in range(3)]
        path = write(tmp_path, "\n".join(lines) + "\n")
        roles = ytx.ColumnRoles(target="y")
        _assert_same_load(path, roles)
        ds = ytx.load_csv(path, roles)
        assert set(ds.column_names) == {"a=1", "a=3", "b"}
        assert ds.kept_rows == (0, 2)


#: Quote-free rows of column x, a feature, and y, the target, long enough
#: to fill several of read_rows's chunks at the default size hint.
_EARLY = "".join(f"{i % 11}.5,{i}\n" for i in range(30000))


def _streamed(tmp_path, text, quoted):
    """Write ``"x,y"`` and ``text``; a quoted header hands the whole file
    to csv.reader."""
    path = tmp_path / "streamed.csv"
    path.write_text(('"x",y\n' if quoted else "x,y\n") + text)
    return str(path)


@pytest.mark.parametrize("quoted", [False, True], ids=["lines", "csv"])
@pytest.mark.parametrize("hint", [16, 1 << 17])
class TestStreamedColumns:
    """Columns are parsed chunk by chunk, and decided over the whole file."""

    @pytest.fixture(autouse=True)
    def _hint(self, monkeypatch, hint):
        monkeypatch.setattr(core, "_CHUNK_HINT", hint)

    def test_late_kept_text_makes_column_categorical(self, tmp_path, quoted):
        path = _streamed(tmp_path, _EARLY + "abc,1\n2.5,3\n", quoted)
        _assert_same_load(path, ytx.ColumnRoles(target="y"))
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.column_names == tuple(
            sorted([f"x={k}.5" for k in range(11)] + ["x=abc"]))

    def test_late_text_on_dropped_rows_stays_numeric(self, tmp_path, quoted):
        path = _streamed(tmp_path, _EARLY + "abc,\nabc,NA\n2.5,3\n", quoted)
        _assert_same_load(path, ytx.ColumnRoles(target="y"))
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.column_names == ("x",)
        assert ds.n_dropped == 2

    def test_ragged_rows_in_several_chunks(self, tmp_path, quoted):
        lines = _EARLY.splitlines(keepends=True)
        for i in (3, 9000, 17001, 29999):
            lines[i] = lines[i].rstrip("\n") + ",extra\n"
        lines[12000] = "7\n"
        lines[25000] = "\n"
        path = _streamed(tmp_path, "".join(lines), quoted)
        _assert_same_load(path, ytx.ColumnRoles(target="y"))
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.n_dropped == 6
        assert 9000 not in ds.kept_rows and 9001 in ds.kept_rows

    @pytest.mark.parametrize("header, roles, error", [
        ("x,x,y", {"target": "y"}, "repeated column names"),
        ("x,y", {"target": "y", "subject": "s"}, "missing role column"),
    ], ids=["repeated", "missing-role"])
    def test_header_error_reads_one_chunk(
            self, tmp_path, monkeypatch, quoted, header, roles, error):
        # The header error is raised once the chunk holding the header is
        # read, before the field over the size limit on row 30002.
        width = header.count(",")
        rows = "".join(f"{i}" + ",1" * width + "\n" for i in range(30000))
        if quoted:
            header = '"' + header.replace(",", '",', 1)
        path = tmp_path / "header.csv"
        roles = ytx.ColumnRoles(**roles)
        yielded = []
        read_chunks = core._read_chunks

        def counted(path):
            for chunk in read_chunks(path):
                yielded.append(len(chunk[1]))
                yield chunk

        monkeypatch.setattr(core, "_read_chunks", counted)
        for bad in ("", f'"{"a" * 200000}",1\n'):
            path.write_text(f"{header}\n{rows}{bad}")
            yielded.clear()
            with pytest.raises(DataError, match=error):
                ytx.load_csv(str(path), roles)
            assert len(yielded) == 1

    def test_equal_labels_are_one_object(self, tmp_path, quoted):
        text = "".join(f"{'ab'[i % 2]}{i % 3},{i}\n" for i in range(30000))
        path = _streamed(tmp_path, text, quoted)
        roles = ytx.ColumnRoles(target="y", subject="x")
        _assert_same_load(path, roles)
        subjects = ytx.load_csv(path, roles).aux["subject"]
        first = {}
        assert all(first.setdefault(s, s) is s for s in subjects)
        assert len(first) == 6


def _wide_lines(n_rows, width):
    """Header and ``n_rows`` quote-free numeric rows of ``width`` columns,
    the last named y."""
    names = [f"x{j}" for j in range(width - 1)] + ["y"]
    return [",".join(names) + "\n"] + [
        ",".join(repr(math.sin(i * width + j) * 1e4) for j in range(width))
        + "\n" for i in range(n_rows)]


def _with_row(lines, i, fields):
    """``lines`` with data row ``i`` (from 0) starting with ``fields``."""
    lines = list(lines)
    old = lines[i + 1].split(",")
    lines[i + 1] = ",".join(fields + old[len(fields):])
    return "".join(lines)


#: Fills three of read_rows's chunks at the default size hint; row 300 is
#: in the second.
_WIDE = _wide_lines(600, 30)
#: With a text column added, fills five chunks at the default size hint;
#: row 500 is in the third.
_MIXED = _wide_lines(1000, 30)

#: Tokens that float() reads, once stripped, and numpy's C reader rejects.
_UNREAD = ["1_0", "\u0661"]
#: Tokens that both read to the same float.
_READ = ["\x1c1.5", " 1.5", "+.5", "1e-320", "1e400", "-nan", "Infinity",
         "-0"]


def _load_by_tokens(path, roles):
    """load_csv with numpy's reader rejecting every chunk."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core, "_float_matrix",
                      lambda lines, width, usecols: None)
        return ytx.load_csv(path, roles)


def _with_text_column(lines, at):
    """``lines`` with a column ``g`` of labels inserted as field ``at``."""
    out = []
    for i, line in enumerate(lines):
        fields = line.rstrip("\n").split(",")
        fields.insert(at, f"g{i % 5}" if i else "g")
        out.append(",".join(fields) + "\n")
    return out


def _with_field(lines, i, j, token):
    """``lines`` with field ``j`` of data row ``i`` (both from 0) set to
    ``token``."""
    lines = list(lines)
    fields = lines[i + 1].rstrip("\n").split(",")
    fields[j] = token
    lines[i + 1] = ",".join(fields) + "\n"
    return lines


def _runs(calls):
    """The ``(usecols, accepted)`` of a load's calls to numpy's reader, in
    order, each run of equal consecutive ones given once."""
    return [key for key, _ in
            itertools.groupby((tuple(used), ok) for _, used, ok in calls)]


def _but(*dropped, width=31):
    """Every column of a file ``width`` fields wide (by default, _MIXED with
    its text column) but ``dropped``."""
    return tuple(j for j in range(width) if j not in dropped)


@pytest.mark.parametrize("hint", [16, 1 << 17])
class TestFloatMatrix:
    """Chunks numpy's C reader parses load as their tokens do."""

    @pytest.fixture(autouse=True)
    def _hint(self, monkeypatch, hint):
        monkeypatch.setattr(core, "_CHUNK_HINT", hint)

    @staticmethod
    def _check(tmp_path, monkeypatch, text, targets=None, **roles):
        """Load ``text`` with each of ``targets`` (by default its first and
        its last column) as the target and the other ``roles``, and compare
        each load with the reference loader and the token path, with no
        warning.  Returns, per load, the ``(lines, usecols, accepted)`` of
        each chunk given to numpy's reader, in order."""
        path = tmp_path / "fast.csv"
        path.write_bytes(text.encode("utf-8"))
        loads = []
        read = core._float_matrix

        def spy(lines, width, usecols):
            matrix = read(lines, width, usecols)
            loads[-1].append((lines, list(usecols), matrix is not None))
            return matrix

        monkeypatch.setattr(core, "_float_matrix", spy)
        header = text.splitlines()[0].split(",")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for target in targets or dict.fromkeys([header[0], header[-1]]):
                for oracle in (_reference_load_csv, _load_by_tokens):
                    loads.append([])
                    _assert_same_load(
                        str(path), ytx.ColumnRoles(target=target, **roles),
                        oracle)
        return loads

    @classmethod
    def _assert_fast(cls, tmp_path, monkeypatch, text):
        """Every chunk numpy's reader was given, at least one, it read."""
        for calls in cls._check(tmp_path, monkeypatch, text):
            assert calls and all(accepted for *_, accepted in calls)

    @classmethod
    def _assert_rejected_last(cls, tmp_path, monkeypatch, text):
        """numpy's reader read chunks until it rejected one, then was not
        called again."""
        for calls in cls._check(tmp_path, monkeypatch, text):
            accepted = [ok for *_, ok in calls]
            assert len(accepted) > 1
            assert accepted == [True] * (len(accepted) - 1) + [False]

    @classmethod
    def _assert_column_left(cls, tmp_path, monkeypatch, text, j):
        """numpy's reader read every column until it rejected a chunk, then
        read every later chunk without column ``j``."""
        width = text.split("\n", 1)[0].count(",") + 1
        every = _but(width=width)
        for calls in cls._check(tmp_path, monkeypatch, text):
            assert _runs(calls) == [(every, True), (every, False),
                                    (_but(j, width=width), True)]

    @pytest.mark.parametrize("token", _UNREAD)
    def test_token_it_rejects_hands_over_to_tokens(self, tmp_path,
                                                   monkeypatch, token):
        self._assert_rejected_last(tmp_path, monkeypatch,
                                   _with_row(_WIDE, 300, [token, token]))

    @pytest.mark.parametrize("token", _READ)
    def test_token_both_read_stays_fast(self, tmp_path, monkeypatch, token):
        self._assert_fast(tmp_path, monkeypatch,
                          _with_row(_WIDE, 590, [token, "2", token]))

    @pytest.mark.parametrize("at", ["first", "last"])
    def test_hash_in_a_field_is_not_a_comment(self, tmp_path, monkeypatch,
                                              at):
        # As a comment, the "#" of the last field would hide "#2\n"; as a
        # token, it is no float, and its column leaves the reader.
        text = (_with_row(_WIDE, 300, ["1#2"]) if at == "first" else
                "".join(_WIDE[:301] + [_WIDE[301].replace("\n", "#2\n")]
                        + _WIDE[302:]))
        self._assert_column_left(tmp_path, monkeypatch, text,
                                 0 if at == "first" else 29)

    def test_crlf_line_ends(self, tmp_path, monkeypatch):
        self._assert_fast(tmp_path, monkeypatch,
                          "".join(_WIDE).replace("\n", "\r\n"))

    def test_bare_line_end_mid_file_skips_its_chunk(self, tmp_path,
                                                    monkeypatch):
        lines = list(_WIDE)
        lines[301] = "\n"
        # Its chunk is not given to numpy's reader, and later ones are.
        for calls in self._check(tmp_path, monkeypatch, "".join(lines)):
            assert all(accepted for *_, accepted in calls)
            assert all("\n" not in chunk for chunk, *_ in calls)
            assert calls[-1][0][-1] == lines[-1]

    def test_column_turned_categorical_keeps_the_token_path(
            self, tmp_path, monkeypatch):
        # Text next to a bare line end, which keeps numpy's reader off that
        # chunk, makes x0 categorical; later chunks need its labels.
        lines = list(_WIDE)
        lines[301] = "\n"
        lines[302] = "abc" + lines[302][lines[302].index(","):]
        loads = self._check(tmp_path, monkeypatch, "".join(lines))
        for calls in loads:
            assert calls and all(accepted for *_, accepted in calls)
        # The loads with target y; as the target, x0 stays numeric.
        for calls in loads[2:]:
            assert _runs(calls) == [(_but(width=30), True),
                                    (_but(0, width=30), True)]
            assert all(0 in used for chunk, used, _ in calls
                       if set(chunk) <= set(lines[:301]))

    def test_one_column_file(self, tmp_path, monkeypatch):
        self._assert_fast(tmp_path, monkeypatch, "y\n" + "".join(
            f"{i % 7}.5\n" for i in range(30000)))

    def test_first_chunk_holding_only_the_header(self, tmp_path,
                                                 monkeypatch, hint):
        # A header longer than the hint is a chunk of its own, with no data
        # line for numpy's reader (which warns on an empty input).
        header = "first_column_name,y\n"
        self._assert_fast(tmp_path, monkeypatch,
                          header + "1,2\n3,4\n5,6\n")
        first = next(core._read_chunks(str(tmp_path / "fast.csv")))[1]
        assert (first == [header]) == (hint == 16)

    @pytest.mark.parametrize("token", ["", "NA", "?"])
    def test_missing_token_in_a_late_chunk(self, tmp_path, monkeypatch,
                                           token):
        self._assert_column_left(tmp_path, monkeypatch,
                                 _with_row(_WIDE, 300, [token]), 0)

    def test_all_numeric_file_reads_every_column_in_one_call(
            self, tmp_path, monkeypatch):
        usecols = []
        loadtxt = np.loadtxt

        def spy(*args, **kwargs):
            usecols.append(kwargs["usecols"])
            return loadtxt(*args, **kwargs)

        monkeypatch.setattr(np, "loadtxt", spy)
        self._assert_fast(tmp_path, monkeypatch, "".join(_WIDE))
        assert usecols and set(map(type, usecols)) == {type(None)}

    @pytest.mark.parametrize("at", [0, 15, 30])
    def test_text_column_stays_off_the_reader(self, tmp_path, monkeypatch,
                                              at):
        lines = _with_text_column(_MIXED, at)
        for calls in self._check(tmp_path, monkeypatch, "".join(lines),
                                 targets=["x0", "y"]):
            assert _runs(calls) == [(_but(), False), (_but(at), True)]

    def test_key_roles_stay_off_the_reader(self, tmp_path, monkeypatch):
        names = ["subject", "period", "trial", "size", "cpi", "c1", "c2",
                 *[f"x{j}" for j in range(6)], "y"]
        lines = [",".join(names) + "\n"]
        for i in range(1200):
            s, p = divmod(i, 50)
            # Numeric subject and period keys are labels all the same.
            lines.append(",".join(
                [str(s), str(p), f"s{s}-{p // 25}",
                 *(repr(math.sin(i * 14 + j) * 1e3) for j in range(3, 14))])
                + "\n")
        loads = self._check(tmp_path, monkeypatch, "".join(lines),
                            targets=["y", "x0"], subject="subject",
                            time="period", trial="trial", frame="size",
                            price_index="cpi", context=("c1", "c2"))
        for calls in loads:
            assert _runs(calls) == [(tuple(range(3, 14)), True)]

    @pytest.mark.parametrize("token", ["", "NA", "?"])
    @pytest.mark.parametrize("at", [0, 30])
    def test_missing_token_in_a_late_chunk_of_a_mixed_file(
            self, tmp_path, monkeypatch, at, token):
        x5 = 5 + (at == 0)
        lines = _with_field(_with_text_column(_MIXED, at), 500, x5, token)
        # As a feature and as the target, x5 leaves the reader once its
        # missing token is met.
        for calls in self._check(tmp_path, monkeypatch, "".join(lines),
                                 targets=["y", "x5"]):
            assert _runs(calls) == [(_but(), False), (_but(at), True),
                                    (_but(at), False),
                                    (_but(at, x5), True)]

    def test_column_turning_categorical_late_leaves_the_reader(
            self, tmp_path, monkeypatch):
        lines = _with_field(_with_text_column(_MIXED, 30), 500, 7, "abc")
        loads = self._check(tmp_path, monkeypatch, "".join(lines),
                            targets=["y", "x0"])
        for calls in loads:
            assert _runs(calls) == [(_but(), False), (_but(30), True),
                                    (_but(30), False), (_but(30, 7), True)]

    @pytest.mark.parametrize("at", [0, 30])
    def test_row_of_another_width_is_ragged(self, tmp_path, monkeypatch,
                                            at):
        # With usecols, numpy's reader takes a row with an extra field, and
        # one without the text field when that is last.
        lines = _with_text_column(_MIXED, at)
        lines[501] = lines[501].replace("\n", ",1.5\n")
        fields = lines[503].rstrip("\n").split(",")
        del fields[at]
        lines[503] = ",".join(fields) + "\n"
        for calls in self._check(tmp_path, monkeypatch, "".join(lines),
                                 targets=["y"]):
            assert _runs(calls) == [(_but(), False), (_but(at), True),
                                    (_but(at), False)]
            assert lines[501] in calls[-1][0]
        kept = ytx.load_csv(str(tmp_path / "fast.csv"),
                            ytx.ColumnRoles(target="y")).kept_rows
        assert kept == tuple(i for i in range(1000) if i not in (500, 502))

    def test_rejected_calls_stay_within_one_per_column_plus_one(
            self, tmp_path, monkeypatch):
        # Each missing token takes its column off the reader; a token only
        # float() reads then stops it.
        lines = _with_text_column(_MIXED, 0)
        for row, j, token in [(100, 2, ""), (300, 3, "NA"), (500, 4, "1_0")]:
            lines = _with_field(lines, row, j, token)
        for calls in self._check(tmp_path, monkeypatch, "".join(lines),
                                 targets=["y"]):
            rejected = [used for _, used, ok in calls if not ok]
            assert len(rejected) <= len(calls[0][1]) + 1
            assert rejected[-1] == list(_but(0, 2, 3))
            assert lines[501] in calls[-1][0] and not calls[-1][2]


class TestTargetToken:
    def test_floats_always_strips(self):
        assert "strip" not in inspect.signature(core._floats).parameters

    def test_separator_padded_target_and_frame_parse(self, tmp_path):
        # float() refuses the \x1c padding that str.strip() removes.
        path = write(tmp_path, "f,y\n\x1c5\x1c,\x1c5\x1c\n2,3\n")
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y", frame="f"))
        assert ds.target.tolist() == [5.0, 3.0]
        assert ds.aux["frame"].tolist() == [5.0, 2.0]
        assert ds.n_dropped == 0


class TestOneHotLevelCap:
    def _write(self, tmp_path, ids):
        return write(tmp_path, "id,y\n" + "".join(
            f"{token},{i}\n" for i, token in enumerate(ids)))

    def test_unique_id_column_is_data_error(self, tmp_path):
        path = self._write(tmp_path, [f"id{i}" for i in range(2000)])
        with pytest.raises(DataError, match=r"column 'id' has 2000 levels, "
                           r"more than 1000; its first non-float token is "
                           r"'id0'$"):
            ytx.load_csv(path, ytx.ColumnRoles(target="y"))

    def test_one_stray_token_names_it(self, tmp_path):
        ids = [str(i) for i in range(1500)]
        ids[700] = " n/a? "
        path = self._write(tmp_path, ids)
        with pytest.raises(DataError, match=r"1500 levels, more than 1000; "
                           r"its first non-float token is 'n/a\?'$"):
            ytx.load_csv(path, ytx.ColumnRoles(target="y"))

    def test_cap_levels_pass(self, tmp_path):
        ids = [f"id{i % core._MAX_LEVELS}" for i in range(2000)]
        ds = ytx.load_csv(self._write(tmp_path, ids),
                          ytx.ColumnRoles(target="y"))
        assert core._MAX_LEVELS == 1000
        assert ds.features.shape == (2000, 1000)

    def test_levels_are_counted_on_kept_rows(self, tmp_path):
        path = write(tmp_path, "id,y\n" + "".join(
            f"id{i},{i if i < 1000 else 'NA'}\n" for i in range(2000)))
        ds = ytx.load_csv(path, ytx.ColumnRoles(target="y"))
        assert ds.features.shape == (1000, 1000)


class TestTargetShape:
    @pytest.mark.parametrize("call, message", [
        (lambda: ytx.fit_sqrt(5.0), r"^sqrt: target must be 1-D, got shape "
                                    r"\(\)$"),
        (lambda: ytx.fit_box_cox(5.0), r"^box-cox: target must be 1-D"),
        (lambda: ytx.fit_quantile(5.0), r"^quantile-normal: target must be "
                                        r"1-D"),
        (lambda: ytx.fit_frame_normalize(5.0, 2.0), r"^frame: target must "
                                                    r"be 1-D, got shape"),
        (lambda: ytx.fit_subject_center(5.0, "a"), r"^subject-center: "
                                                   r"target must be 1-D"),
        (lambda: diagnostics.detect_frame(5.0, 2.0),
         r"^frame vector must have one entry per row, got shape \(\)$"),
        (lambda: diagnostics.detect_frame([1.0, 2.0], 2.0),
         r"^frame vector must have one entry per row, got shape \(\)$"),
        (lambda: diagnostics.detect_frame(5.0, [2.0]),
         r"^target must have one entry per row, got shape \(\)$"),
        (lambda: ytx.fit_subject_center([1.0, 2.0], "ab"),
         r"^subject vector must have one entry per row, got shape \(\)$"),
        (lambda: ytx.identity_transform([[1.0], [2.0]]),
         r"^identity: target must be 1-D, got shape \(2, 1\)$"),
    ], ids=["sqrt", "box-cox", "quantile", "frame", "subject-center",
            "detect-frame", "0-d-frame", "0-d-y", "string-key", "2-d"])
    def test_not_1d_is_data_error(self, call, message):
        with pytest.raises(DataError, match=message):
            call()


class TestTransformContract:
    def test_identity(self):
        t = ytx.identity_transform(np.array([1.0, 2.0]))
        assert ytx.forward(t, [1, 2]).tolist() == [1.0, 2.0]
        assert ytx.inverse(t, [1, 2]).tolist() == [1.0, 2.0]

    def test_log_offset_forward_value(self):
        t = ytx.fit_log_offset(np.array([0.5, 2.0]))
        assert t.params["offset"] == 1.0
        got = ytx.forward(t, np.array([0.5]))[0]
        assert got == pytest.approx(np.log(1.5), abs=1e-12)

    def test_log_offset_domain_error_names_index(self):
        t = ytx.fit_log_offset(np.array([0.5, 2.0]))
        with pytest.raises(TransformDomainError) as err:
            ytx.forward(t, np.array([-2.0]))
        assert err.value.index == 0

    @pytest.mark.parametrize("call, message, index", [
        (lambda: ytx.forward(ytx.fit_log_offset([0.5, 2.0]), [1.0, -2.0]),
         "log-offset: value at index 1 gives non-positive argument", 1),
        (lambda: ytx.fit_sqrt([1.0, 2.0, -1.0]),
         "sqrt: negative value at index 2", 2),
        (lambda: ytx.forward(ytx.fit_sqrt([1.0]), [-3.0, 4.0, -1.0]),
         "sqrt: negative value at index 0", 0),
        (lambda: ytx.forward(core.FittedTransform(
            "box-cox", {"lambda": 0.5, "shift": 0.0}, (1.0, 2.0)),
            [1.0, 2.0, 0.0]),
         "box-cox: non-positive shifted value at index 2", 2),
        (lambda: ytx.inverse(core.FittedTransform(
            "box-cox", {"lambda": 0.5, "shift": 0.0}, (1.0, 2.0)),
            [0.0, -3.0, -4.0]),
         "box-cox: value at index 1 outside inverse domain", 1),
        (lambda: ytx.inverse(core.FittedTransform(
            "yeo-johnson", {"lambda": -0.5, "shift": 0.0}, (1.0, 2.0)),
            [0.1, 0.2, 5.0]),
         "yeo-johnson: value at index 2 outside inverse domain", 2),
        (lambda: ytx.inverse(core.FittedTransform(
            "yeo-johnson", {"lambda": -0.5, "shift": 0.0}, (1.0, 2.0)),
            [-1.0, 0.1, -2.0, 5.0, 9.0]),
         "yeo-johnson: value at index 3 outside inverse domain", 3),
        (lambda: ytx.inverse(core.FittedTransform(
            "yeo-johnson", {"lambda": 3.0, "shift": 0.0}, (1.0, 2.0)),
            [0.5, -0.2, 4.0, -3.0, -5.0]),
         "yeo-johnson: value at index 3 outside inverse domain", 3),
        (lambda: ytx.fit_frame_normalize([1.0, 2.0, 3.0], [1.0, 0.0, 2.0]),
         "frame: non-positive frame value at index 1", 1),
        (lambda: ytx.forward(ytx.fit_frame_normalize([1.0], [1.0]),
                             [1.0, 2.0, 3.0], aux=[1.0, 2.0, -1.0]),
         "frame: non-positive frame value at index 2", 2),
        (lambda: ytx.inverse(ytx.fit_frame_normalize([1.0], [1.0]),
                             [1.0, 2.0], aux=[0.0, 2.0]),
         "frame: non-positive frame value at index 0", 0),
    ], ids=["log-offset-forward", "sqrt-fit", "sqrt-forward",
            "box-cox-forward", "box-cox-inverse", "yeo-johnson-inverse",
            "yeo-johnson-inverse-mixed-signs",
            "yeo-johnson-inverse-negative-half", "frame-fit",
            "frame-forward", "frame-inverse"])
    def test_domain_error_names_first_bad_index(self, call, message, index):
        with pytest.raises(TransformDomainError) as err:
            call()
        assert str(err.value) == message
        assert err.value.index == index

    @pytest.mark.parametrize("apply", [ytx.forward, ytx.inverse])
    @pytest.mark.parametrize("fitted, aux", [
        (lambda: ytx.fit_frame_normalize([1.0, 2.0, 3.0], [1.0, 2.0, 4.0]),
         [1.0, 2.0]),
        (lambda: ytx.fit_subject_center([1.0, 2.0, 3.0], ["a", "b", "a"]),
         ["a", "b"]),
    ], ids=["frame", "subject-center"])
    def test_contextual_map_needs_aux_of_its_length(self, apply, fitted,
                                                     aux):
        t = fitted()
        with pytest.raises(ConfigError) as err:
            apply(t, [1.0, 2.0, 3.0])
        assert str(err.value) == f"{t.kind} requires per-row auxiliary values"
        with pytest.raises(ConfigError) as err:
            apply(t, [1.0, 2.0, 3.0], aux=aux)
        assert str(err.value) == f"{t.kind}: auxiliary length 2 != 3 values"

    def test_log_offset_inverse_of_zero(self):
        t = ytx.fit_log_offset(np.array([0.5, 2.0]))
        assert ytx.inverse(t, np.array([0.0]))[0] == pytest.approx(0.0)

    def test_quantile_clamps_beyond_fit_range(self):
        rng = np.random.default_rng(7)
        y = rng.normal(size=100)
        t = ytx.fit_quantile(y, "normal")
        lo, hi = ytx.inverse_range(t)
        far = ytx.inverse(t, np.array([hi + 50.0]))[0]
        assert far == pytest.approx(np.max(y))
        near = ytx.inverse(t, np.array([lo - 50.0]))[0]
        assert near == pytest.approx(np.min(y))

    def test_unknown_kind_rejected(self):
        t = core.FittedTransform("bogus", {}, (0.0, 1.0))
        with pytest.raises(ConfigError):
            ytx.forward(t, np.array([1.0]))

    def test_serialization_roundtrip(self):
        t = ytx.fit_log_offset(np.array([-2.3, 1.0]))
        again = core.FittedTransform.from_json(t.to_json())
        assert again == t


#: Every role, with keys, frames and prices a fit of each kind accepts.
_ALL_ROLES = ytx.ColumnRoles(target="y", subject="s", time="t", trial="r",
                             frame="f", price_index="p", context=("c",))


class TestSidecar:
    """FittedTransform.from_json reads what to_json writes, and names the
    first problem of anything else."""

    @pytest.mark.parametrize("kind", ytx.KNOWN_KINDS)
    def test_every_kind_round_trips(self, tmp_path, kind):
        rng = np.random.default_rng(3)
        rows = [f"{i % 4},{i % 5},{i % 3},{1 + i % 7 / 10},{1 + i % 5 / 10},"
                f"{rng.normal()},{rng.lognormal()}" for i in range(60)]
        path = write(tmp_path, "s,t,r,f,p,c,y\n" + "\n".join(rows) + "\n")
        ds = ytx.load_csv(path, _ALL_ROLES)
        t = evaluation.fit_transform_kind(kind, ds.target, ds.aux)
        again = core.FittedTransform.from_json(t.to_json())
        assert again.to_json() == t.to_json()
        assert again.kind == kind

    @pytest.mark.parametrize("text, message", [
        ("{", "transform sidecar is not JSON: Expecting property name "
              "enclosed in double quotes: line 1 column 2 (char 1)"),
        ("[]", "transform sidecar is not a JSON object"),
        ("{}", "transform sidecar lacks key 'kind'"),
        ('{"kind": "sqrt", "params": {}}',
         "transform sidecar lacks key 'training_target_range'"),
        ('{"kind": 5, "params": {}, "training_target_range": [0, 1]}',
         "transform sidecar 'kind' is not a string"),
        ('{"kind": "sqrt", "params": [], "training_target_range": [0, 1]}',
         "transform sidecar 'params' is not a JSON object"),
        ('{"kind": "sqrt", "params": {}, "training_target_range": 5}',
         "transform sidecar 'training_target_range' is not a list of "
         "numbers"),
        ('{"kind": "sqrt", "params": {}, '
         '"training_target_range": [0, true]}',
         "transform sidecar 'training_target_range' is not a list of "
         "numbers"),
        ('{"kind": "sqrt", "params": {}, "training_target_range": [0]}',
         "transform sidecar 'training_target_range' does not hold two "
         "numbers"),
    ], ids=["not-json", "not-object", "no-kind", "no-range",
            "kind-not-string", "params-not-object", "range-number",
            "range-boolean", "range-one-value"])
    def test_malformed_is_data_error(self, text, message):
        with pytest.raises(DataError) as err:
            core.FittedTransform.from_json(text)
        assert str(err.value) == message

    def test_unknown_kind_is_config_error_when_read(self):
        with pytest.raises(ConfigError) as err:
            core.FittedTransform.from_json(
                '{"kind": "bogus", "params": {}, '
                '"training_target_range": [0, 1]}')
        assert str(err.value) == "unknown transform kind 'bogus'"
