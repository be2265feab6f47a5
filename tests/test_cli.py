import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import ytx
from ytx import cli, core, ctx, evaluation
from ytx.cli import main


@pytest.fixture
def skewed_csv(tmp_path):
    rng = np.random.default_rng(0)
    x = rng.normal(size=120)
    y = np.exp(x + rng.normal(scale=0.2, size=120))
    lines = ["x,y"] + [f"{a},{b}" for a, b in zip(x, y)]
    path = tmp_path / "skewed.csv"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


ROLES = '{"target": "y"}'
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

MESSY_CSV = ('id,y,note\n'
             ' a , 2 ,plain\n'     # space-padded tokens: kept
             'b,3\n'               # ragged: dropped
             'c,,gone\n'           # missing target: dropped
             'd,8,"x, y"\n'        # quoted comma: kept
             'e,10,last\n')


def _reference_transform_csv(path, target, kept_rows, transformed):
    """The transform writer before the joined-line path: the header and
    every kept row through csv.writer, the target token repr(float)."""
    kept = set(kept_rows)
    values = iter(transformed)
    out = io.StringIO(newline="")
    reader = csv.reader(io.StringIO(core.read_text(path), newline=""))
    writer = csv.writer(out)
    header = next(reader)
    writer.writerow(header)
    target_col = header.index(target)
    for i, row in enumerate(reader):
        if i in kept:
            row[target_col] = repr(float(next(values)))
            writer.writerow(row)
    return out.getvalue().encode("utf-8")


_TEXT = ["", " ", "a", " pad ", "a,b", ",", 'say "hi"', '"', '""',
         "two\nlines", "cr\rhere", "crlf\r\nend", "nul\x00", "\x1c",
         "\u2028", "\ufeffbom", "é", "日本"]
_NUMBERS = ["1", "2.5", " 3 ", "4e1", "0.125", "1e-3"]
_MISSING = ["", "NA", "x"]


def _encode(token, quote):
    """A CSV field for the token: quoted when asked or when csv needs it."""
    if quote or token.startswith('"') or any(c in token for c in ",\r\n"):
        return '"' + token.replace('"', '""') + '"'
    return token


@st.composite
def _transform_input(draw):
    """CSV text with a target column 'y': quoted and multi-line fields,
    mixed line endings, blank lines, ragged rows and missing targets."""
    others = draw(st.lists(st.sampled_from(["a", "b,c", 'q"t', "two\nlines",
                                            "é", " s "]),
                           unique=True, max_size=3))
    header = draw(st.permutations(["y", *others]))
    text = st.sampled_from(_TEXT + _NUMBERS)
    rows = [header]
    for _ in range(draw(st.integers(2, 10))):
        shape = draw(st.sampled_from(["full"] * 4 + ["ragged", "blank"]))
        if shape == "blank":
            rows.append([])
            continue
        width = len(header)
        if shape == "ragged":
            width = draw(st.integers(1, width + 2).filter(
                lambda k: k != len(header)))
        row = [draw(text) for _ in range(width)]
        if shape == "full":
            row[header.index("y")] = draw(
                st.sampled_from(_NUMBERS * 3 + _MISSING))
        rows.append(row)
    lines = [",".join(_encode(token, draw(st.booleans())) for token in row)
             + draw(st.sampled_from(["\n", "\r\n", "\r"])) for row in rows]
    if draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    return "".join(lines)


def _transform(tmp_path, path, kind, roles=ROLES):
    """Run ``ytx transform`` on ``path``; returns the exit code and, on
    success, the written bytes and the reference writer's bytes for the
    fitted transform."""
    out_csv = tmp_path / "out.csv"
    out_json = tmp_path / "params.json"
    code = main(["transform", "--input", str(path), "--roles", roles,
                 "--transform", kind, "--out-csv", str(out_csv),
                 "--out-json", str(out_json)])
    if code:
        return code, None, None
    column_roles = core.ColumnRoles.from_json(roles)
    dataset = ctx._group_keys(core.load_csv(str(path), column_roles), [kind])
    fitted = core.FittedTransform.from_json(out_json.read_text())
    expected = _reference_transform_csv(
        str(path), column_roles.target, dataset.kept_rows,
        core.forward(fitted, dataset.target,
                     evaluation.aux_column(kind, dataset.aux)))
    return code, out_csv.read_bytes(), expected


def _assert_same_bytes_as_reference_writer(tmp_path, kind, text, bom):
    """transform writes the bytes of the row-by-row reference writer."""
    path = tmp_path / "in.csv"
    path.write_bytes(b"\xef\xbb\xbf" * bom + text.encode("utf-8"))
    code, written, expected = _transform(tmp_path, path, kind)
    assume(code == 0)
    assert written == expected


def _hand_over_csv(target_at, hint=core._CHUNK_HINT):
    """CSV text whose quote-free lines fill three default-size chunks, with
    CR, LF and CRLF ends and blank, ragged and missing-target rows; then a
    quoted row, from which csv.reader reads the rest.  The target 'y' is
    column ``target_at`` of six; ``hint`` is the default chunk size."""
    header = ["a", "b", "c", "d", "e"]
    header.insert(target_at, "y")
    rows = [header]
    ends = ["\n", "\r\n", "\r"]
    n_quote_free = 3 * hint // 25
    for i in range(n_quote_free + 40):
        word = f"word{i % 13:03d}"
        if i > n_quote_free and i % 3 == 0:
            word = f'"w,{i % 4}"'                # csv.reader from here
        elif i > n_quote_free and i % 5 == 0:
            word = f'"two\nlines {i % 4}"'
        fields = [f"{i:06d}", str(i % 7), f"{i * 0.25}",
                  "" if i % 29 == 3 else str(i % 5), word]
        fields.insert(target_at, f"{1.0 + (i * 37 % 101) / 8}")
        if i % 17 == 5:
            fields = []                          # blank
        elif i % 19 == 7:
            fields = fields[:3]                  # ragged
        elif i % 23 == 11:
            fields[target_at] = ("", "NA")[i % 2]  # missing target
        rows.append(fields)
    text = "".join(",".join(row) + ends[i % 3] for i, row in enumerate(rows))
    assert text.index('"') > 3 * hint
    return text


@pytest.fixture(scope="module")
def workload_tables():
    """``{case: (workload, table)}``: each workload of ``bench/workloads.py``
    with its seed-7 table, and skewed-session's table with its target
    moved first and to the middle (field 11 of 22, split off from the
    back)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(os.path.join(ROOT, "bench"))
        from workloads import WORKLOADS
    cases = {}
    for name, workload in WORKLOADS.items():
        table = workload.generate(np.random.default_rng(7))
        cases[name] = workload, table
        if name == "skewed-session":
            k = table.header.index(workload.roles["target"])
            for tag, at in (("first", 0), ("middle", k // 2 + 1)):
                order = list(range(len(table.header)))
                order.insert(at, order.pop(k))
                cases[f"{name}-{tag}"] = workload, replace(
                    table, header=tuple(table.header[j] for j in order),
                    columns=tuple(table.columns[j] for j in order))
    return cases


def count_writerows(mp):
    """Route core's csv.writer through a proxy that records each writerow."""
    calls = []
    make = csv.writer

    class Counted:
        def __init__(self, *args, **kwargs):
            self._writer = make(*args, **kwargs)

        def writerow(self, row):
            calls.append(row)
            return self._writer.writerow(row)

    mp.setattr(core.csv, "writer", Counted)
    return calls


class TestDiagnoseCommand:
    def test_writes_report_json(self, skewed_csv, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--out-json", str(out)])
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["distribution"]["skew_flag"] is True
        kinds = [r["kind"] for r in doc["recommendations"]]
        assert kinds[0] == "log-offset"
        assert "FLAGGED" in capsys.readouterr().out

    def test_missing_file_is_data_error(self):
        assert main(["diagnose", "--input", "/no/such.csv",
                     "--roles", ROLES]) == 3

    def test_missing_role_column_is_data_error(self, skewed_csv):
        assert main(["diagnose", "--input", skewed_csv,
                     "--roles", '{"target": "zzz"}']) == 3

    def test_bad_threshold_is_config_error(self, skewed_csv, capsys):
        assert main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--threshold", "skew_gamma=abc"]) == 2
        # "self" is no threshold, though Thresholds.replace is a method.
        capsys.readouterr()
        assert main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--threshold", "self=1"]) == 2
        assert capsys.readouterr().err == (
            "error: unknown thresholds: ['self']\n")

    @pytest.mark.parametrize("pair", ["skew_gamma", "skew_gamma:1", ""])
    def test_threshold_without_equals_is_config_error(self, pair, skewed_csv,
                                                      capsys):
        assert main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--threshold", pair]) == 2
        assert capsys.readouterr().err == (
            f"error: --threshold expects KEY=VALUE, got {pair!r}\n")

    @pytest.mark.parametrize("value", ["nan", "-NaN", " nan "])
    def test_nan_threshold_is_config_error(self, value, skewed_csv, capsys):
        with pytest.raises(ytx.ConfigError) as exc:
            cli._thresholds([f"skew_gamma={value}"])
        assert str(exc.value) == (
            f"threshold 'skew_gamma': {value!r} is not a number")
        capsys.readouterr()
        assert main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--threshold", f"skew_gamma={value}"]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc.value}\n"
        assert captured.out == ""

    def test_infinite_threshold_switches_a_check_off(self, skewed_csv,
                                                     tmp_path):
        assert cli._thresholds(["hetero_p=-inf", "skew_gamma=inf"]) == (
            ytx.Thresholds(hetero_p=-np.inf, skew_gamma=np.inf))
        out = tmp_path / "report.json"
        assert main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
                     "--threshold", "skew_gamma=inf",
                     "--out-json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["distribution"]["skew_flag"] is False

    @pytest.mark.parametrize("roles, role", [
        ('{"target": ["y"]}', "target"),
        ('{"target": "y", "context": "cpi"}', "context"),
        ('{"target": "y", "subject": 5}', "subject"),
    ], ids=["target-list", "context-string", "subject-number"])
    def test_role_of_wrong_type_is_config_error(self, roles, role,
                                                skewed_csv, capsys):
        assert main(["diagnose", "--input", skewed_csv, "--roles", roles]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: role {role!r} must be ")
        assert captured.out == ""

    @pytest.mark.parametrize("roles, column, key, numeric, labels", [
        ({"subject": "s", "frame": "s"}, "s", "subject", "frame", "ab"),
        ({"time": "s", "price_index": "s"}, "s", "time", "price_index",
         "12"),
    ], ids=["subject-frame-labels", "time-price-numbers"])
    def test_key_role_sharing_a_numeric_column_is_config_error(
            self, tmp_path, capsys, roles, column, key, numeric, labels):
        # Parsed as floats for both roles, labels dropped every row and
        # numeric keys became "1.0" where the file says 1.
        path = tmp_path / "shared.csv"
        path.write_text("x,s,y\n" + "".join(
            f"{i},{labels[i % 2]},{1.0 + i}\n" for i in range(40)))
        roles = json.dumps({"target": "y", **roles})
        for command in ("diagnose", "benchmark"):
            assert main([command, "--input", str(path),
                         "--roles", roles]) == 2
            captured = capsys.readouterr()
            assert captured.err == (
                f"error: column {column!r} cannot carry both the {key!r} "
                f"role and the numeric {numeric!r} role\n")
            assert captured.out == ""

    def test_repeated_header_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "dup.csv"
        path.write_text("x,x,y\n1,2,3\n4,5,6\n")
        assert main(["diagnose", "--input", str(path), "--roles", ROLES]) == 3
        assert "repeated column names ['x']" in capsys.readouterr().err

    def test_non_utf8_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a,y\n1,2\n\xff,3\n")
        assert main(["diagnose", "--input", str(path), "--roles", ROLES]) == 3
        assert "not UTF-8 text at byte 8" in capsys.readouterr().err

    def test_empty_input_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("")
        assert main(["diagnose", "--input", str(path),
                     "--roles", ROLES]) == 3
        assert capsys.readouterr().err == f"error: {path}: empty file\n"

    def test_json_roundtrips(self, skewed_csv, tmp_path):
        out = tmp_path / "report.json"
        main(["diagnose", "--input", skewed_csv, "--roles", ROLES,
              "--out-json", str(out)])
        doc = json.loads(out.read_text())
        assert json.loads(json.dumps(doc)) == doc


class TestTransformCommand:
    def test_log_offset_sidecar(self, skewed_csv, tmp_path):
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "params.json"
        code = main(["transform", "--input", skewed_csv, "--roles", ROLES,
                     "--transform", "log-offset",
                     "--out-csv", str(out_csv), "--out-json", str(out_json)])
        assert code == 0
        params = json.loads(out_json.read_text())
        assert params["kind"] == "log-offset"
        assert params["params"]["offset"] == 1.0

    def test_power_fit_without_finite_likelihood_is_data_error(
            self, tmp_path, capsys):
        y = 1e-300 * np.random.default_rng(0).uniform(1.0, 2.0, 50)
        path = tmp_path / "tiny.csv"
        path.write_text("x,y\n" + "".join(f"{i},{float(v)!r}\n"
                                           for i, v in enumerate(y)))
        out_json = tmp_path / "params.json"
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "yeo-johnson",
                     "--out-json", str(out_json)]) == 3
        assert "yeo-johnson: no lambda gives a finite" in (
            capsys.readouterr().err)
        assert not out_json.exists()

    def test_identity_preserves_target(self, skewed_csv, tmp_path):
        out_csv = tmp_path / "out.csv"
        main(["transform", "--input", skewed_csv, "--roles", ROLES,
              "--transform", "identity", "--out-csv", str(out_csv)])
        original = [float(line.split(",")[1])
                    for line in Path(skewed_csv).read_text().splitlines()[1:]]
        written = [float(line.split(",")[1])
                   for line in out_csv.read_text().splitlines()[1:]]
        assert written == original

    def test_writes_header_and_kept_rows_in_order(self, tmp_path):
        path = tmp_path / "messy.csv"
        path.write_text(MESSY_CSV)
        out_csv = tmp_path / "out.csv"
        out_json = tmp_path / "params.json"
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "log-offset", "--out-csv", str(out_csv),
                     "--out-json", str(out_json)]) == 0
        fitted = core.FittedTransform.from_json(out_json.read_text())
        z = core.forward(fitted, np.array([2.0, 8.0, 10.0]))
        with open(out_csv, newline="") as handle:
            rows = list(csv.reader(handle))
        assert rows == [["id", "y", "note"],
                        [" a ", repr(float(z[0])), "plain"],
                        ["d", repr(float(z[1])), "x, y"],
                        ["e", repr(float(z[2])), "last"]]

    @pytest.mark.parametrize("fixture, first_fields", [
        ("messy", ["id", "d"]),   # the header and the quoted-comma row
        ("skewed", ["x"]),        # the header alone
    ])
    def test_writerow_only_for_header_and_rows_needing_quotes(
            self, fixture, first_fields, skewed_csv, tmp_path, monkeypatch):
        path = skewed_csv
        if fixture == "messy":
            path = tmp_path / "messy.csv"
            path.write_text(MESSY_CSV)
        calls = count_writerows(monkeypatch)
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "log-offset",
                     "--out-csv", str(tmp_path / "out.csv")]) == 0
        assert [row[0] for row in calls] == first_fields

    @pytest.mark.parametrize("kind", ["identity", "log-offset"])
    @given(text=_transform_input(), bom=st.booleans())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_as_reference_writer(self, tmp_path, kind, text, bom):
        _assert_same_bytes_as_reference_writer(tmp_path, kind, text, bom)

    @pytest.mark.parametrize("kind", ["identity", "log-offset"])
    @given(text=_transform_input(), bom=st.booleans())
    @settings(max_examples=300, derandomize=True, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_in_small_chunks(self, tmp_path, monkeypatch, kind,
                                        text, bom):
        # A line or two per chunk: each case crosses chunk boundaries and
        # any hand-over to csv.reader.
        monkeypatch.setattr(core, "_CHUNK_HINT", 16)
        _assert_same_bytes_as_reference_writer(tmp_path, kind, text, bom)

    def test_keyed_kind_groups_its_column_once(self, tmp_path,
                                               raw_factorize_calls):
        path = tmp_path / "panel.csv"
        path.write_text("\n".join(
            ["s,r,x,y"] + [f"s{i % 5},{i % 3},{i},{1 + i * 7 % 11}"
                           for i in range(40)]) + "\n")
        roles = '{"target": "y", "subject": "s", "trial": "r"}'
        out_json = tmp_path / "params.json"
        assert main(["transform", "--input", str(path), "--roles", roles,
                     "--transform", "subject-center",
                     "--out-csv", str(tmp_path / "out.csv"),
                     "--out-json", str(out_json)]) == 0
        # One pass over the subject column; the trial column is not read.
        assert raw_factorize_calls == [40]
        ds = core.load_csv(str(path), core.ColumnRoles.from_json(roles))
        fitted = ctx.fit_subject_center(ds.target, ds.aux["subject"])
        assert out_json.read_text() == fitted.to_json() + "\n"

    def test_bom_input_with_target_first(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfy,x\n1.5,2\n2.5,4\n3.5,5\n")
        out_csv = tmp_path / "out.csv"
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "identity",
                     "--out-csv", str(out_csv)]) == 0
        assert out_csv.read_bytes() == b"y,x\r\n1.5,2\r\n2.5,4\r\n3.5,5\r\n"

    def test_over_long_field_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "long.csv"
        path.write_text("x,y\n1,2\n" + "a" * 200000 + ",3\n")
        out_csv = tmp_path / "out.csv"
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "identity",
                     "--out-csv", str(out_csv)]) == 3
        assert capsys.readouterr().err == (
            f"error: {path}: row 3: field larger than field limit "
            f"({csv.field_size_limit()})\n")
        assert not out_csv.exists()

    def test_output_over_input_is_config_error(self, skewed_csv):
        before = Path(skewed_csv).read_bytes()
        assert main(["transform", "--input", skewed_csv, "--roles", ROLES,
                     "--transform", "identity",
                     "--out-csv", skewed_csv]) == 2
        assert Path(skewed_csv).read_bytes() == before

    def test_output_over_input_is_checked_before_reading(self, tmp_path,
                                                         capsys):
        # The sqrt fit would fail first (exit 4) if the input were read.
        path = tmp_path / "neg.csv"
        path.write_text("x,y\n1,-4\n2,9\n")
        before = path.read_bytes()
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "sqrt", "--out-csv", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {path}: it is the input file\n")
        assert path.read_bytes() == before

    def test_default_output_linked_to_the_input_is_config_error(
            self, skewed_csv, capsys):
        link = skewed_csv + ".transformed.csv"
        os.symlink(skewed_csv, link)
        before = Path(skewed_csv).read_bytes()
        assert main(["transform", "--input", skewed_csv, "--roles", ROLES,
                     "--transform", "identity"]) == 2
        assert capsys.readouterr().err == (
            f"error: cannot write {link}: it is the input file\n")
        assert Path(skewed_csv).read_bytes() == before

    def test_missing_input_next_to_existing_output_is_data_error(
            self, tmp_path, capsys):
        out_csv = tmp_path / "out.csv"
        out_csv.write_text("kept\n")
        assert main(["transform", "--input", str(tmp_path / "none.csv"),
                     "--roles", ROLES, "--transform", "identity",
                     "--out-csv", str(out_csv)]) == 3
        assert "cannot read" in capsys.readouterr().err
        assert out_csv.read_text() == "kept\n"

    @pytest.mark.parametrize("hint", [16, core._CHUNK_HINT])
    @pytest.mark.parametrize("target_at", [0, 2, 3, 5], ids=[
        "first", "middle-front", "middle-back", "last"])
    def test_same_bytes_across_hand_over(self, tmp_path, monkeypatch, hint,
                                         target_at):
        path = tmp_path / "in.csv"
        path.write_bytes(_hand_over_csv(target_at).encode("utf-8"))
        monkeypatch.setattr(core, "_CHUNK_HINT", hint)
        code, written, expected = _transform(tmp_path, path, "log-offset")
        assert code == 0
        assert written == expected

    @pytest.mark.parametrize("case", [
        "skewed-session", "skewed-session-first", "skewed-session-middle",
        "panel-session", "wide-lasso"])
    def test_same_bytes_on_workload_tables(self, tmp_path, workload_tables,
                                           case):
        workload, table = workload_tables[case]
        path = tmp_path / f"{case}.csv"
        table.write(path)
        code, written, expected = _transform(
            tmp_path, path, workload.transform, workload.roles_json())
        assert code == 0
        assert written == expected

    def test_rows_keep_their_targets_when_the_input_changes(
            self, tmp_path, monkeypatch):
        # fit_transform_kind runs between the load and the write; a line
        # deleted from the input there must not move any target.
        path = tmp_path / "in.csv"
        lines = ["i,y"] + [f"{i},{1.0 + i / 8}" for i in range(2000)]
        path.write_text("\n".join(lines) + "\n")
        fit = evaluation.fit_transform_kind

        def fit_after_deleting_a_line(*args):
            path.write_text("\n".join(lines[:6] + lines[7:]) + "\n")
            return fit(*args)

        monkeypatch.setattr(evaluation, "fit_transform_kind",
                            fit_after_deleting_a_line)
        out_csv = tmp_path / "out.csv"
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "identity",
                     "--out-csv", str(out_csv)]) == 0
        assert out_csv.read_bytes() == "".join(
            line + "\r\n" for line in lines).encode("utf-8")

    def test_reads_the_input_once(self, skewed_csv, tmp_path, monkeypatch):
        paths = []
        read_chunks = core._read_chunks

        def counted(path):
            paths.append(path)
            return read_chunks(path)

        monkeypatch.setattr(core, "_read_chunks", counted)
        assert main(["transform", "--input", skewed_csv, "--roles", ROLES,
                     "--transform", "log-offset",
                     "--out-csv", str(tmp_path / "out.csv")]) == 0
        assert paths == [skewed_csv]

    def test_sqrt_on_negative_target_is_domain_error(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("x,y\n1,-4\n2,9\n")
        assert main(["transform", "--input", str(path), "--roles", ROLES,
                     "--transform", "sqrt"]) == 4

    def test_requires_exactly_one_transform(self, skewed_csv):
        assert main(["transform", "--input", skewed_csv,
                     "--roles", ROLES]) == 2


class TestBenchmarkCommand:
    def test_markdown_and_json_outputs(self, skewed_csv, tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        out_md = tmp_path / "bench.md"
        code = main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                     "--model", "ridge", "--transform", "log-offset",
                     "--seed", "5",
                     "--out-json", str(out_json), "--out-md", str(out_md)])
        assert code == 0
        doc = json.loads(out_json.read_text())
        assert set(doc["results"]["ridge"]) == {"identity", "log-offset"}
        md = out_md.read_text()
        assert "Base" in md and "Ln" in md
        assert "±" in md

    def test_repeat_invocation_byte_identical(self, skewed_csv, tmp_path):
        paths = [tmp_path / "a.json", tmp_path / "b.json"]
        for path in paths:
            main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                  "--model", "ridge", "--transform", "yeo-johnson",
                  "--seed", "3", "--out-json", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_auto_uses_recommendations(self, skewed_csv, tmp_path):
        out_json = tmp_path / "bench.json"
        main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
              "--model", "ridge", "--transform", "auto",
              "--out-json", str(out_json)])
        doc = json.loads(out_json.read_text())
        transforms = doc["transforms"]
        assert transforms[0] == "identity"
        assert "log-offset" in transforms  # skewed input

    def test_repeated_flags_are_scored_once(self, skewed_csv, tmp_path,
                                            capsys):
        def run(flags, path):
            assert main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                         "--seed", "4", "--out-json", str(path)] + flags) == 0
            return path.read_bytes(), capsys.readouterr().out

        repeated = run(["--model", "ridge", "--model", "ridge",
                        "--transform", "log-offset", "--transform", "sqrt",
                        "--transform", "auto", "--transform", "sqrt",
                        "--transform", "identity"], tmp_path / "a.json")
        kinds = json.loads(repeated[0])["transforms"]
        assert len(set(kinds)) == len(kinds)
        assert kinds[:3] == ["identity", "log-offset", "sqrt"]
        flags = ["--model", "ridge"]
        for kind in kinds[1:]:
            flags += ["--transform", kind]
        assert run(flags, tmp_path / "b.json") == repeated

    @pytest.mark.parametrize("model, alpha", [
        ("ridge", "nan"), ("lasso", "nan"), ("ridge", "inf"),
        ("lasso", "inf"), ("lasso", "-inf")])
    def test_non_finite_alpha_is_config_error(self, model, alpha, skewed_csv,
                                              tmp_path, capsys):
        out_json = tmp_path / "bench.json"
        assert main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                     "--model", model, f"--alpha={alpha}",
                     "--out-json", str(out_json)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: alpha must be finite, got ")
        assert captured.out == ""
        assert not out_json.exists()

    @pytest.mark.parametrize("role, dropped", [
        ("subject", "trial-minmax"), ("time", "deflate")])
    def test_auto_runs_with_one_keyed_role(self, role, dropped, tmp_path,
                                           capsys):
        # The subject effect or trend is flagged, but the dataset has no
        # 'trial' or 'price_index' role: auto leaves that kind out.
        rng = np.random.default_rng(9)
        level = np.repeat(np.arange(10), 40)
        y = 3.0 * level + rng.normal(size=400)
        x = rng.normal(size=400)
        path = tmp_path / "keyed.csv"
        path.write_text("x,k,y\n" + "".join(
            f"{a},{k},{b}\n" for a, k, b in zip(x, level, y)))
        out_json = tmp_path / "bench.json"
        roles = json.dumps({"target": "y", role: "k"})
        assert main(["diagnose", "--input", str(path), "--roles",
                     roles]) == 0
        assert " FLAGGED " in capsys.readouterr().out.splitlines()[1]
        assert main(["benchmark", "--input", str(path), "--roles", roles,
                     "--model", "ridge", "--transform", "auto",
                     "--out-json", str(out_json)]) == 0
        assert capsys.readouterr().err == ""
        transforms = json.loads(out_json.read_text())["transforms"]
        assert dropped not in transforms
        assert ("subject-center" in transforms) == (role == "subject")

    def test_auto_runs_with_a_single_row_subject(self, tmp_path, capsys):
        # 40 subjects of 10 rows and one of a single row.
        rng = np.random.default_rng(1)
        subject = np.append(np.repeat(np.arange(40), 10), 40)
        x = rng.normal(size=401)
        y = rng.normal(size=41)[subject] + 0.5 * x + 0.5 * rng.normal(
            size=401)
        path = tmp_path / "single.csv"
        path.write_text("x,subject,y\n" + "".join(
            f"{a},s{k},{b}\n" for a, k, b in zip(x, subject, y)))
        roles = '{"target": "y", "subject": "subject"}'
        assert main(["diagnose", "--input", str(path), "--roles",
                     roles]) == 0
        assert "subject-center" in capsys.readouterr().out
        out_json = tmp_path / "bench.json"
        assert main(["benchmark", "--input", str(path), "--roles", roles,
                     "--model", "ridge", "--transform", "auto",
                     "--out-json", str(out_json)]) == 0
        assert capsys.readouterr().err == ""
        assert "subject-center" in json.loads(
            out_json.read_text())["transforms"]

    def test_auto_runs_on_a_heteroscedastic_target_below_zero(
            self, tmp_path):
        # The target is flagged heteroscedastic, but sqrt, which that flag
        # suggests, fits no target below zero, so auto must not take it.
        rng = np.random.default_rng(5)
        x = rng.normal(size=600)
        y = 0.5 * x + np.exp(0.8 * x) * rng.normal(size=600)
        path = tmp_path / "hetero.csv"
        path.write_text("x,y\n" + "".join(
            f"{a},{b}\n" for a, b in zip(x, y)))
        assert main(["benchmark", "--input", str(path), "--roles", ROLES,
                     "--model", "ridge", "--transform", "auto",
                     "--out-json", str(tmp_path / "bench.json")]) == 0

    def test_threads_env_not_an_integer_is_config_error(
            self, skewed_csv, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("YTX_THREADS", "two")
        out_json = tmp_path / "bench.json"
        assert main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                     "--model", "ridge", "--out-json", str(out_json)]) == 2
        assert capsys.readouterr().err == (
            "error: YTX_THREADS='two' is not an integer\n")
        assert not out_json.exists()

    def test_threads_env_is_checked_before_reading(self, tmp_path,
                                                   monkeypatch, capsys):
        # A missing input would be a data error (exit 3) if it were read.
        monkeypatch.setenv("YTX_THREADS", "two")
        assert main(["benchmark", "--input", str(tmp_path / "none.csv"),
                     "--roles", ROLES]) == 2
        assert capsys.readouterr().err == (
            "error: YTX_THREADS='two' is not an integer\n")

    def test_threads_env(self, skewed_csv, tmp_path, monkeypatch):
        out = []
        for value in ("1", "4"):
            monkeypatch.setenv("YTX_THREADS", value)
            path = tmp_path / f"t{value}.json"
            main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                  "--model", "ridge", "--transform", "quantile-normal",
                  "--seed", "2", "--out-json", str(path)])
            out.append(path.read_bytes())
        assert out[0] == out[1]


class TestReportCommand:
    def test_render_from_json(self, skewed_csv, tmp_path, capsys):
        bench = tmp_path / "bench.json"
        main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
              "--model", "ridge", "--transform", "log-offset",
              "--out-json", str(bench)])
        capsys.readouterr()
        code = main(["report", "--in-json", str(bench)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Ln" in out
        # A bench.json written before "reserved_models" was dropped.
        doc = json.loads(bench.read_text())
        doc["reserved_models"] = ["ridge", "lasso", "gbtr", "svr"]
        bench.write_text(json.dumps(doc))
        assert main(["report", "--in-json", str(bench)]) == 0
        assert capsys.readouterr().out == out

    def test_bad_json_is_data_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["report", "--in-json", str(path)]) == 3

    def test_report_without_results_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text("{}")
        assert main(["report", "--in-json", str(path)]) == 3
        assert "report lacks key 'results'" in capsys.readouterr().err

    @pytest.mark.parametrize("key", list(evaluation.CELL))
    def test_cell_without_key_is_data_error(self, skewed_csv, tmp_path,
                                            capsys, key):
        bench = tmp_path / "bench.json"
        main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
              "--model", "ridge", "--out-json", str(bench)])
        doc = json.loads(bench.read_text())
        del doc["results"]["ridge"]["identity"][key]
        bench.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in-json", str(bench)]) == 3
        assert f"report lacks key '{key}'" in capsys.readouterr().err

    def test_new_cell_field_is_one_cell_entry(self, skewed_csv, tmp_path,
                                              capsys, monkeypatch):
        # A scalar field is its CELL entry plus its value per fold: the
        # merge, bench.json, its reader and ``ytx report`` follow.
        monkeypatch.setitem(evaluation.CELL, "n_sweeps", (sum, int))
        evaluate_fold, folds = evaluation._evaluate_fold, []

        def with_sweeps(*args):
            out = evaluate_fold(*args)
            folds.append(len(folds))   # one call per fold, in fold order
            for cell in out.values():
                cell["n_sweeps"] = len(folds)
            return out

        monkeypatch.setattr(evaluation, "_evaluate_fold", with_sweeps)
        dataset = core.load_csv(skewed_csv, core.ColumnRoles.from_json(ROLES))
        text = evaluation.run_benchmark(dataset, transforms=("sqrt",),
                                        seed=3).to_json()
        doc = json.loads(text)
        assert doc["results"]["lasso"]["sqrt"]["n_sweeps"] == 55
        report = evaluation.BenchmarkReport.from_dict(doc)
        assert report.to_json() == text
        bench = tmp_path / "bench.json"
        bench.write_text(text)
        assert main(["report", "--in-json", str(bench)]) == 0
        assert "### lasso (RSE)" in capsys.readouterr().out
        del doc["results"]["ridge"]["identity"]["n_sweeps"]
        bench.write_text(json.dumps(doc))
        assert main(["report", "--in-json", str(bench)]) == 3
        assert "report lacks key 'n_sweeps'" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, problem", [
        ([], "report is not a JSON object"),
        ({"results": []}, "report 'results' is not a JSON object"),
        ({"results": {"ridge": []}},
         "results for 'ridge' is not a JSON object"),
        ({"results": {"ridge": {"identity": 1.0}}},
         "results for 'ridge', 'identity' is not a JSON object"),
    ], ids=["top-level-list", "results-list", "model-list", "cell-number"])
    def test_report_of_wrong_shape_is_data_error(self, doc, problem,
                                                 tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_text(json.dumps(doc))
        assert main(["report", "--in-json", str(path)]) == 3
        assert problem in capsys.readouterr().err


    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc["results"]["ridge"]["identity"].update(rse=[1.0]),
         "results for 'ridge', 'identity', 'rse' is not a JSON object"),
        (lambda doc: doc["results"]["ridge"]["identity"]["smape"].update(
            folds=["a", "b"]),
         "results for 'ridge', 'identity', 'smape' folds is not a list "
         "of numbers"),
        (lambda doc: doc["results"]["ridge"]["identity"]["rse"].update(
            folds=[True, False]),
         "results for 'ridge', 'identity', 'rse' folds is not a list "
         "of numbers"),
        (lambda doc: doc.update(models="ridge"),
         "report 'models' is not a list of strings"),
        (lambda doc: doc.update(transforms=["identity", "sqrt"]),
         "report lacks results for 'ridge', 'sqrt'"),
        (lambda doc: doc.update(dataset=5),
         "report 'dataset' is not a string"),
        (lambda doc: doc["results"]["ridge"]["identity"].update(clamped=True),
         "results for 'ridge', 'identity', 'clamped' is not an integer"),
        (lambda doc: doc["results"]["ridge"]["identity"].update(
            converged=[1]),
         "results for 'ridge', 'identity', 'converged' is not a boolean"),
        (lambda doc: doc.update(seed={"x": 1}),
         "report 'seed' is not an integer"),
        (lambda doc: doc.update(seed=False),
         "report 'seed' is not an integer"),
        (lambda doc: (doc["results"]["ridge"]["identity"].update(
            clamped="many", converged=[1]), doc.update(seed={"x": 1})),
         "results for 'ridge', 'identity', 'clamped' is not an integer"),
    ], ids=["rse-list", "string-folds", "bool-folds", "models-string",
            "missing-cell", "dataset-number", "clamped-bool",
            "converged-list", "seed-object", "seed-bool", "all-three"])
    def test_malformed_entry_is_named(self, edit, problem, skewed_csv,
                                      tmp_path, capsys):
        bench = tmp_path / "bench.json"
        main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
              "--model", "ridge", "--out-json", str(bench)])
        doc = json.loads(bench.read_text())
        edit(doc)
        bench.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in-json", str(bench)]) == 3
        assert f"{bench}: {problem}" in capsys.readouterr().err


class TestTextFiles:
    """Roles files and report JSON are read as UTF-8, a BOM ignored; the
    markdown is written as UTF-8 whatever the locale."""

    def test_non_utf8_report_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "bench.json"
        path.write_bytes(b'{"dataset": "\xe9"}')
        assert main(["report", "--in-json", str(path)]) == 3
        assert f"{path}: not UTF-8 text at byte 13" in capsys.readouterr().err

    def test_non_utf8_roles_file_is_config_error(self, skewed_csv, tmp_path,
                                                 capsys):
        path = tmp_path / "roles.json"
        path.write_bytes(b'{"target": "\xff"}')
        assert main(["diagnose", "--input", skewed_csv,
                     "--roles", str(path)]) == 2
        assert "not UTF-8 text at byte 12" in capsys.readouterr().err

    def test_missing_roles_file_is_config_error(self, skewed_csv, tmp_path,
                                                capsys):
        path = tmp_path / "absent.json"
        assert main(["diagnose", "--input", skewed_csv,
                     "--roles", str(path)]) == 2
        assert f"cannot read {path}" in capsys.readouterr().err

    @pytest.mark.parametrize("text, inline, message", [
        ('{"target": "y"', True, "invalid roles JSON: "),
        ('{"target": "y"', False, "invalid roles JSON: "),
        ('["y"]', False, 'roles JSON must be an object with a "target" key'),
        ('{"subject": "x"}', True,
         'roles JSON must be an object with a "target" key'),
    ], ids=["unparsed-inline", "unparsed-file", "list-file",
            "no-target-inline"])
    def test_bad_roles_json_is_config_error(self, text, inline, message,
                                            skewed_csv, tmp_path, capsys):
        spec = text
        if not inline:  # a spec not starting with "{" is a file path
            spec = str(tmp_path / "roles.json")
            Path(spec).write_text(text)
        assert main(["diagnose", "--input", skewed_csv,
                     "--roles", spec]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert "Traceback" not in err

    def test_roles_file_with_bom(self, skewed_csv, tmp_path):
        path = tmp_path / "roles.json"
        path.write_bytes(b"\xef\xbb\xbf" + ROLES.encode())
        assert main(["diagnose", "--input", skewed_csv,
                     "--roles", str(path)]) == 0

    def test_markdown_is_utf8_under_ascii_locale(self, skewed_csv, tmp_path):
        out_md = tmp_path / "bench.md"
        src = os.path.dirname(os.path.dirname(ytx.__file__))
        env = {**os.environ, "LC_ALL": "C", "PYTHONUTF8": "0",
               "PYTHONIOENCODING": "utf-8", "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-m", "ytx.cli", "benchmark", "--input",
             skewed_csv, "--roles", ROLES, "--model", "ridge",
             "--out-md", str(out_md)],
            env=env, capture_output=True, text=True, encoding="utf-8")
        assert run.returncode == 0, run.stderr
        assert "±" in out_md.read_text(encoding="utf-8")

    @pytest.mark.parametrize("folds", [[], [1.0]], ids=["none", "one"])
    def test_fewer_than_two_folds_is_data_error(self, folds, skewed_csv,
                                                tmp_path, capsys):
        bench = tmp_path / "bench.json"
        main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
              "--model", "ridge", "--out-json", str(bench)])
        doc = json.loads(bench.read_text())
        doc["results"]["ridge"]["identity"]["rse"]["folds"] = folds
        bench.write_text(json.dumps(doc))
        capsys.readouterr()
        assert main(["report", "--in-json", str(bench)]) == 3
        assert (f"{bench}: results for 'ridge', 'identity', 'rse' folds has "
                "fewer than 2 values") in capsys.readouterr().err


class TestUnwritableOutput:
    """An output path that cannot be written is a configuration error."""

    OUTPUTS = [("diagnose", "--out-json"), ("transform", "--out-csv"),
               ("transform", "--out-json"), ("benchmark", "--out-json"),
               ("benchmark", "--out-md"), ("report", "--out-md")]

    @pytest.mark.parametrize("command, flag", OUTPUTS)
    def test_missing_directory_is_config_error(self, command, flag,
                                               skewed_csv, tmp_path, capsys):
        bad = str(tmp_path / "absent" / "out")
        self._check_nothing_written(command, flag, bad, skewed_csv, tmp_path,
                                    capsys)

    @pytest.mark.parametrize("command, flag", OUTPUTS)
    def test_directory_is_config_error(self, command, flag, skewed_csv,
                                       tmp_path, capsys):
        bad = tmp_path / "adir"
        bad.mkdir()
        err = self._check_nothing_written(command, flag, str(bad),
                                          skewed_csv, tmp_path, capsys)
        assert err == f"error: cannot write {bad}: is a directory\n"

    @pytest.mark.parametrize("alias", ["same", "dot", "link"])
    @pytest.mark.parametrize("command, flag", OUTPUTS)
    def test_input_file_is_config_error(self, command, flag, alias,
                                        skewed_csv, tmp_path, monkeypatch,
                                        capsys):
        monkeypatch.chdir(tmp_path)

        def name(source):
            """A path naming the input file ``source``."""
            if alias == "link":
                os.symlink(source, "link")
                return "link"
            if alias == "dot":
                return "./" + os.path.basename(source)
            return source
        err = self._check_nothing_written(command, flag, name, skewed_csv,
                                          tmp_path, capsys)
        assert err.endswith(": it is the input file\n")

    @pytest.mark.parametrize("alias", ["same", "dot"])
    @pytest.mark.parametrize("command, first, second", [
        ("benchmark", "--out-json", "--out-md"),
        ("transform", "--out-csv", "--out-json")])
    def test_two_outputs_naming_one_file_are_config_error(
            self, command, first, second, alias, skewed_csv, tmp_path,
            monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        os.mkdir("outs")
        argv = [command, "--input", skewed_csv, "--roles", ROLES,
                *{"benchmark": ["--model", "ridge"],
                  "transform": ["--transform", "identity"]}[command],
                first, "outs/r", second,
                "outs/r" if alias == "same" else "./outs/r"]
        before = Path(skewed_csv).read_bytes()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: cannot write {argv[-1]}: it is also "
                                f"the output outs/r\n")
        assert captured.out == ""
        assert os.listdir("outs") == []
        assert not os.path.exists(skewed_csv + ".transformed.csv")
        assert Path(skewed_csv).read_bytes() == before

    @staticmethod
    def _check_nothing_written(command, flag, bad, skewed_csv, tmp_path,
                               capsys):
        """Run ``command`` with ``flag`` set to the unwritable path ``bad``,
        or to ``bad(input path)`` if it is a function; it must exit 2
        naming that path with nothing written and the input unchanged.
        Returns the standard error."""
        if command == "report":
            source = str(tmp_path / "bench.json")
            main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                  "--model", "ridge", "--out-json", source])
            argv = ["report", "--in-json", source]
        else:
            source = skewed_csv
            argv = [command, "--input", skewed_csv, "--roles", ROLES]
        if command == "benchmark":
            argv += ["--model", "ridge"]
        if command == "transform":
            argv += ["--transform", "identity"]
        # The command's other output goes to a directory that exists; the
        # run must stop before writing it (or the default --out-csv).
        outs = tmp_path / "outs"
        outs.mkdir()
        other = {("transform", "--out-csv"): "--out-json",
                 ("benchmark", "--out-json"): "--out-md",
                 ("benchmark", "--out-md"): "--out-json"}.get((command, flag))
        if other:
            argv += [other, str(outs / "other")]
        if callable(bad):
            bad = bad(source)
        before = Path(source).read_bytes()
        capsys.readouterr()
        assert main(argv + [flag, bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert os.listdir(outs) == []
        assert not os.path.exists(skewed_csv + ".transformed.csv")
        assert Path(source).read_bytes() == before
        return captured.err

    @pytest.mark.parametrize("command, flag", [
        ("diagnose", "--out-json"), ("transform", "--out-csv"),
        ("benchmark", "--out-json"), ("report", "--out-md")])
    def test_path_that_cannot_be_opened_is_config_error(
            self, command, flag, skewed_csv, tmp_path, capsys):
        # Its directory exists and it is no directory, so only open()
        # finds that the name is too long.
        bad = str(tmp_path / ("x" * 300))
        if command == "report":
            bench = tmp_path / "bench.json"
            main(["benchmark", "--input", skewed_csv, "--roles", ROLES,
                  "--model", "ridge", "--out-json", str(bench)])
            argv = ["report", "--in-json", str(bench)]
        else:
            argv = [command, "--input", skewed_csv, "--roles", ROLES]
        argv += {"benchmark": ["--model", "ridge"],
                 "transform": ["--transform", "identity"]}.get(command, [])
        capsys.readouterr()
        assert main(argv + [flag, bad]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {bad}: ")
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_missing_input_is_still_data_error(self, tmp_path, capsys):
        # The default --out-csv would sit in the input's missing directory;
        # the missing input is the error reported.
        missing = str(tmp_path / "absent" / "in.csv")
        assert main(["transform", "--input", missing, "--roles", ROLES,
                     "--transform", "identity"]) == 3
        assert capsys.readouterr().err.startswith(
            f"error: cannot read {missing}: ")


class TestSubcommandFlags:
    """Each subcommand accepts only the flags it reads."""

    @pytest.mark.parametrize("argv", [
        ["report", "--in-json", "b.json", "--alpha", "1"],
        ["report", "--in-json", "b.json", "--input", "x.csv"],
        ["diagnose", "--input", "x.csv", "--roles", ROLES, "--model", "ridge"],
        ["diagnose", "--input", "x.csv", "--roles", ROLES, "--out-md", "m"],
        ["diagnose", "--input", "x.csv", "--roles", ROLES,
         "--transform", "nope"],
        ["transform", "--input", "x.csv", "--roles", ROLES, "--seed", "1"],
        ["transform", "--input", "x.csv", "--roles", ROLES,
         "--threshold", "skew_gamma=1"],
    ], ids=["report-alpha", "report-input", "diagnose-model",
            "diagnose-out-md", "diagnose-transform", "transform-seed",
            "transform-threshold"])
    def test_flags_it_does_not_read_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, rejected", [
        (["benchmark", "--input", "x.csv", "--roles", ROLES,
          "--transform", "nope"], "nope"),
        (["transform", "--input", "x.csv", "--roles", ROLES,
          "--transform", "auto"], "auto"),
    ], ids=["benchmark-unknown", "transform-auto"])
    def test_unknown_transform_is_usage_error(self, argv, rejected, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --transform: invalid choice: {rejected!r}" in err
        kinds = core.KNOWN_KINDS
        if argv[0] == "benchmark":
            kinds += ("auto",)
        assert "(choose from " + ", ".join(map(repr, kinds)) + ")" in err


def _readme_flag_table():
    """README's per-subcommand flag table as {subcommand: set of flags}."""
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    start = lines.index("| subcommand | flags |") + 2
    table = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        command, *flags = re.findall(r"`([^`]+)`", line)
        table[command] = set(flags)
    return table


def test_readme_flag_table_matches_parser():
    parser = cli.build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    options = {name: {flag for action in sub._actions
                      for flag in action.option_strings} - {"-h", "--help"}
               for name, sub in commands.items()}
    assert _readme_flag_table() == options
