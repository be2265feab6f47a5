"""The results ledger: what the three benchmark workloads report, pinned.

``tests/ledger.json`` holds, for each workload of ``bench/workloads.py``
at seed 7, the JSON its session writes: ``diagnose.json`` (flags,
statistics, p-values and the recommendation order), ``bench.json`` (every
cell's RSE and SMAPE folds, ``clamped`` and ``converged``) and
``params.json`` (the fitted transform).  The test writes the CSVs with the
workloads' own generators, runs each session's ``diagnose``,
``benchmark`` and ``transform`` command lines in-process through
``cli.main`` and compares entry by entry: flags, counts, strings and
order must be equal, and floats must agree within 1e-9 relative.  A
failure lists every moved entry.

The ledger moves only in a change whose description names the result
change.  Such a change rewrites it with ``python3 tests/test_ledger.py``,
which first prints each moved entry (path, old -> new), then one line
per workload and output file with its count of moved entries and their
largest relative move, and the largest relative move of all, and
records those entries.  A move that no change names
is a defect to mend, not a ledger to rewrite.
"""

import contextlib
import io
import json
import math
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "bench"), os.path.join(ROOT, "src")]

from workloads import WORKLOADS  # noqa: E402

from ytx import cli  # noqa: E402

LEDGER = os.path.join(ROOT, "tests", "ledger.json")
SEED = 7


def run_sessions(directory):
    """``{workload: {output name: parsed JSON}}`` of each workload's
    session at ``SEED``, run in ``directory``; what the commands print is
    captured and dropped."""
    ledger = {}
    for name, workload in WORKLOADS.items():
        out = os.path.join(directory, name)
        os.makedirs(out)
        csv_path, _ = workload.write_csv(SEED, out)
        docs = ledger[name] = {}
        for _, argv, outputs in workload.session(csv_path, out):
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(argv)
            assert status == 0, argv
            for output in outputs:
                if output.endswith(".json"):
                    with open(os.path.join(out, output)) as handle:
                        docs[output] = json.load(handle)
    return ledger


def _entries(value, path=""):
    """Every leaf of a parsed JSON document, keyed by its path."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    entries = {}
    for key, item in items:
        entries.update(_entries(item, f"{path}/{key}"))
    return entries


def _same(old, new):
    if type(old) is float and type(new) is float:
        return math.isclose(old, new, rel_tol=1e-9, abs_tol=0.0)
    return type(old) is type(new) and old == new


def _moves(expected, actual):
    """``(path, old, new, relative move)`` for every entry of two ledgers
    (parsed JSON) that differs, is new or is gone, in path order; the
    relative move is 0.0 unless both values are floats."""
    expected, actual = _entries(expected), _entries(actual)
    for path in sorted(expected.keys() | actual.keys()):
        old, new = expected.get(path, "absent"), actual.get(path, "absent")
        if path in expected and path in actual and _same(old, new):
            continue
        relative = 0.0
        if type(old) is float and type(new) is float:
            relative = abs(new - old) / abs(old) if old else math.inf
        yield path, old, new, relative


def moved_entries(expected, actual):
    """``"path: old -> new"`` for every moved entry of two ledgers, and
    the largest relative move of a float entry (0.0 when none moved)."""
    moves = list(_moves(expected, actual))
    return ([f"{path}: {old!r} -> {new!r}" for path, old, new, _ in moves],
            max((relative for *_, relative in moves), default=0.0))


def moves_by_output(expected, actual):
    """``{(workload, output file): (entries moved, largest relative
    move)}`` for each output file of two ledgers with a moved entry."""
    summary = {}
    for path, _, _, relative in _moves(expected, actual):
        key = tuple(path.split("/")[1:3])
        count, largest = summary.get(key, (0, 0.0))
        summary[key] = (count + 1, max(largest, relative))
    return summary


def test_moved_entries_lists_each_move():
    old = {"a": {"x": 1.0, "s": "k", "n": 3}, "b": [2.0, 0.0]}
    new = {"a": {"x": 1.25, "s": "k", "n": 3.0}, "b": [2.0 + 1e-12, 0.0],
           "c": 1}
    moved, largest = moved_entries(old, new)
    assert moved == ["/a/n: 3 -> 3.0", "/a/x: 1.0 -> 1.25",
                     "/c: 'absent' -> 1"]
    assert largest == 0.25
    assert moved_entries(old, old) == ([], 0.0)


def test_moves_by_output_counts_each_file():
    old = {"w1": {"bench.json": {"x": 1.0, "y": [2.0, 4.0]},
                  "params.json": {"k": "a"}},
           "w2": {"bench.json": {"x": 8.0}}}
    new = {"w1": {"bench.json": {"x": 1.5, "y": [2.0, 5.0]},
                  "params.json": {"k": "b"}},
           "w2": {"bench.json": {"x": 8.0}}}
    assert moves_by_output(old, new) == {
        ("w1", "bench.json"): (2, 0.5), ("w1", "params.json"): (1, 0.0)}
    assert moves_by_output(old, old) == {}


def test_results_match_ledger(tmp_path):
    with open(LEDGER) as handle:
        expected = json.load(handle)
    moved, _ = moved_entries(expected, run_sessions(str(tmp_path)))
    assert not moved, f"{len(moved)} ledger entries moved:\n" + "\n".join(
        moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_sessions(tmp)
    with open(LEDGER) as handle:
        ledger = json.load(handle)
    moved, largest = moved_entries(ledger, results)
    print("\n".join(moved))
    for (workload, output), (count, top) in moves_by_output(
            ledger, results).items():
        print(f"{workload} {output}: {count} entries moved; largest "
              f"relative move {top:.3g}")
    print(f"{len(moved)} entries moved; largest relative move of a float "
          f"entry: {largest:.3g}")
    with open(LEDGER, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
