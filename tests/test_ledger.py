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
change.  Such a change rewrites it with ``python3 tests/test_ledger.py``
and records the moved entries.  A move that no change names is a defect
to mend, not a ledger to rewrite.
"""

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
    session at ``SEED``, run in ``directory``."""
    ledger = {}
    for name, workload in WORKLOADS.items():
        out = os.path.join(directory, name)
        os.makedirs(out)
        csv_path, _ = workload.write_csv(SEED, out)
        docs = ledger[name] = {}
        for _, argv, outputs in workload.session(csv_path, out):
            assert cli.main(argv) == 0, argv
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


def test_results_match_ledger(tmp_path):
    with open(LEDGER) as handle:
        expected = _entries(json.load(handle))
    actual = _entries(run_sessions(str(tmp_path)))
    moved = [f"{path}: {expected.get(path, 'absent')!r} -> "
             f"{actual.get(path, 'absent')!r}"
             for path in sorted(expected.keys() | actual.keys())
             if path not in expected or path not in actual
             or not _same(expected[path], actual[path])]
    assert not moved, f"{len(moved)} ledger entries moved:\n" + "\n".join(
        moved)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        results = run_sessions(tmp)
    with open(LEDGER, "w") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
