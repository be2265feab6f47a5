"""Checks on the files each CLI invocation writes.

Every check returns a list of problems; an empty list means the output is
correct.  ``digest`` gives the sha256 that two commits' runs compare.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math

import numpy as np

#: role whose column holds the per-row key of a keyed transform kind
_KEY_ROLE = {"subject-center": "subject", "trial-minmax": "trial"}

#: the README round-trip contract: |inverse(forward(y)) - y| relative error
ROUND_TRIP_TOL = 1e-9

FOLDS = 10


def digest(path):
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _load_json(path):
    try:
        with open(path) as handle:
            return json.load(handle), []
    except (OSError, json.JSONDecodeError) as exc:
        return None, [f"{path}: {exc}"]


def check_diagnose(path):
    doc, problems = _load_json(path)
    if doc is None:
        return problems
    if not isinstance(doc, dict) or "distribution" not in doc \
            or not isinstance(doc.get("recommendations"), list):
        return [f"{path}: no distribution verdict or recommendations"]
    return []


def check_benchmark(path, models, kinds):
    """Every (model, kind) cell holds 10 finite RSE and SMAPE folds.

    ``kinds`` are the kinds named on the command line; ``auto`` may add
    more, so the report must contain them, identity first.
    """
    doc, problems = _load_json(path)
    if doc is None:
        return problems
    try:
        transforms = doc["transforms"]
        if doc["models"] != list(models):
            problems.append(f"models {doc['models']} != {list(models)}")
        if transforms[0] != "identity" or not set(kinds) <= set(transforms):
            problems.append(f"transforms {transforms} lack {list(kinds)}")
        for model in doc["models"]:
            for kind in transforms:
                cell = doc["results"][model][kind]
                for metric in ("rse", "smape"):
                    folds = cell[metric]["folds"]
                    if len(folds) != FOLDS or not all(
                            isinstance(v, float) and math.isfinite(v)
                            for v in folds):
                        problems.append(f"{model}/{kind} {metric}: {folds}")
    except (KeyError, IndexError, TypeError) as exc:
        problems.append(f"{path}: malformed report ({exc!r})")
    return problems


def check_transform(csv_path, params_path, workload, y):
    """n+1 rows, and the params sidecar inverts them back to ``y``.

    ``y`` holds the input targets of the rows ingestion keeps, in order.
    """
    from ytx import core

    key_role = _KEY_ROLE.get(workload.transform)
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader)
        column = header.index(workload.roles["target"])
        key = header.index(workload.roles[key_role]) if key_role else column
        pairs = [(row[column], row[key]) for row in reader]
    if len(pairs) != y.shape[0]:
        return [f"{csv_path}: {len(pairs) + 1} rows, expected "
                f"{y.shape[0] + 1}"]
    z = np.array([float(token) for token, _ in pairs])
    aux = (np.array([k for _, k in pairs], dtype=object) if key_role
           else None)
    with open(params_path) as handle:
        fitted = core.FittedTransform.from_json(handle.read())
    if fitted.kind != workload.transform:
        return [f"{params_path}: kind {fitted.kind!r}"]
    back = core.inverse(fitted, z, aux)
    err = float(np.max(np.abs(back - y) / np.maximum(1.0, np.abs(y))))
    if not err <= ROUND_TRIP_TOL:
        return [f"round-trip error {err:.3e} > {ROUND_TRIP_TOL}"]
    return []
