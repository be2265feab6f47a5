"""Command-line front end: diagnose, transform, benchmark and report.

Exit codes: 0 success, 2 configuration error, 3 data error,
4 transform domain error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import core, ctx, diagnostics, evaluation
from .errors import ConfigError, DataError, TransformDomainError

#: the exit code of each error a subcommand raises
_EXIT_CODES = {ConfigError: 2, DataError: 3, TransformDomainError: 4}


def _load_roles(spec):
    text = spec
    if not spec.lstrip().startswith("{"):
        try:
            text = core.read_text(spec)
        except DataError as exc:
            raise ConfigError(f"roles file: {exc}") from None
    return core.ColumnRoles.from_json(text)


def _thresholds(pairs):
    overrides = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"--threshold expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        try:
            number = float(value)
        except ValueError:
            number = None
        # NaN is the one float unequal to itself; +-inf switch a check off.
        if number is None or number != number:
            raise ConfigError(f"threshold {key!r}: {value!r} is not a number")
        overrides[key.strip()] = number
    return diagnostics.Thresholds().replace(**overrides)


def _open_out(path, newline=None):
    """Open an output file for writing as UTF-8; a path that cannot be
    opened is a ConfigError."""
    try:
        return open(path, "w", encoding="utf-8", newline=newline)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc}") from exc


def _check_outputs(source, *paths):
    """Raise a ConfigError for the first output path that is the input file
    ``source``, lies in a missing directory other than the input's (reading
    the input reports that one) or is a directory; called before any input
    is read, so no other output is written."""
    for path in filter(None, paths):
        try:
            same = os.path.samefile(source, path)
        except OSError:  # a file is missing, so the path is not the input
            same = False
        if same:
            raise ConfigError(f"cannot write {path}: it is the input file")
        folder = os.path.dirname(path) or "."
        if (folder != (os.path.dirname(source) or ".")
                and not os.path.isdir(folder)):
            raise ConfigError(f"cannot write {path}: no directory {folder!r}")
        if os.path.isdir(path):
            raise ConfigError(f"cannot write {path}: is a directory")


def _write(path, text):
    with _open_out(path) as handle:
        handle.write(text)


def cmd_diagnose(args):
    thresholds = _thresholds(args.threshold)
    _check_outputs(args.input, args.out_json)
    roles = _load_roles(args.roles)
    dataset = core.load_csv(args.input, roles)
    report = diagnostics.diagnose(dataset, thresholds)
    doc = json.dumps(report.to_dict(), sort_keys=True, indent=2)
    if args.out_json:
        _write(args.out_json, doc + "\n")
    print(f"{args.input}: n={dataset.n} d={dataset.d} "
          f"dropped={dataset.n_dropped}")
    for name, verdict in report.verdicts.items():
        state = "FLAGGED" if verdict.flagged else "ok"
        print(f"  {name:<13} {state:<8} statistic={verdict.statistic:.4g}")
    if report.recommendations:
        print("  recommended transforms:")
        for kind, reason in report.recommendations:
            print(f"    {kind} ({reason})")
    else:
        print("  no transforms recommended")
    return 0


def cmd_transform(args):
    kinds = args.transform or []
    if len(kinds) != 1:
        raise ConfigError("transform requires exactly one --transform")
    kind = kinds[0]
    out_csv = args.out_csv or (args.input + ".transformed.csv")
    _check_outputs(args.input, out_csv, args.out_json)
    roles = _load_roles(args.roles)
    records = []
    dataset = ctx._group_keys(core.load_csv(args.input, roles, records),
                              [kind])
    fitted = evaluation.fit_transform_kind(kind, dataset.target, dataset.aux)
    transformed = core.forward(fitted, dataset.target,
                               evaluation.aux_column(kind, dataset.aux))
    with _open_out(out_csv, newline="") as dst:
        core.write_records(dst, records, dataset.kept_rows, roles.target,
                           map(repr, transformed.tolist()))
    if args.out_json:
        _write(args.out_json, fitted.to_json() + "\n")
    print(f"wrote {out_csv} ({dataset.n} rows, kind={kind})")
    return 0


def _threads_from_env():
    value = os.environ.get("YTX_THREADS")
    if not value:
        return None
    try:
        return max(1, int(value))
    except ValueError as exc:
        raise ConfigError(f"YTX_THREADS={value!r} is not an integer") from exc


def cmd_benchmark(args):
    threads = _threads_from_env()
    thresholds = _thresholds(args.threshold)
    kinds = list(args.transform or [])
    models = tuple(args.model or evaluation.MODELS)
    _check_outputs(args.input, args.out_json, args.out_md)
    roles = _load_roles(args.roles)
    dataset = core.load_csv(args.input, roles)
    if "auto" in kinds:
        # diagnose groups the subject and time keys: group them once here,
        # so that the kinds that read them take the same groupings.
        for role in dataset.aux.keys() & {"subject", "time"}:
            dataset.aux[role] = ctx._factorize(dataset.aux[role])
        report = diagnostics.diagnose(dataset, thresholds)
        kinds = [k for k in kinds if k != "auto"]
        kinds.extend(k for k, _ in report.recommendations)
    name = os.path.splitext(os.path.basename(args.input))[0]
    report = evaluation.run_benchmark(
        dataset, models=models, transforms=tuple(kinds),
        seed=args.seed, alpha=args.alpha, threads=threads,
        dataset_name=name)
    if args.out_json:
        _write(args.out_json, report.to_json() + "\n")
    return _print_markdown(report, args.out_md)


def _print_markdown(report, out_md):
    """Print the RSE and SMAPE tables of ``report``, first writing them to
    ``out_md`` if given; returns the exit code 0."""
    markdown = "\n".join(map(report.to_markdown, evaluation.METRICS))
    if out_md:
        _write(out_md, markdown + "\n")
    print(markdown)
    return 0


def cmd_report(args):
    _check_outputs(args.in_json, args.out_md)
    try:
        obj = json.loads(core.read_text(args.in_json))
    except json.JSONDecodeError as exc:
        raise DataError(f"{args.in_json}: invalid JSON: {exc}") from exc
    try:
        report = evaluation.BenchmarkReport.from_dict(obj)
    except DataError as exc:
        raise DataError(f"{args.in_json}: {exc}") from None
    return _print_markdown(report, args.out_md)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ytx",
        description="Target-variable transformations: diagnose, transform, "
                    "benchmark.")
    sub = parser.add_subparsers(dest="command", required=True)

    def data_input(p, kinds=(), help=None):
        p.add_argument("--input", required=True,
                       help="input CSV with a header row")
        p.add_argument("--roles", required=True,
                       help="roles JSON (inline or a file path)")
        if kinds:
            p.add_argument("--transform", action="append", choices=kinds,
                           metavar="KIND", help=help)
        p.add_argument("--out-json")

    p = sub.add_parser("diagnose", help="run the heuristics and recommend "
                                        "transforms")
    data_input(p)
    p.add_argument("--threshold", action="append", metavar="KEY=VALUE")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("transform", help="apply one fitted transform to the "
                                         "target column")
    data_input(p, core.KNOWN_KINDS,
               help="the kind to fit and apply, given once: %(choices)s")
    p.add_argument("--out-csv", help="path for the transformed CSV")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("benchmark", help="5x2cv comparison of baseline vs. "
                                         "transformed targets")
    data_input(p, (*core.KNOWN_KINDS, "auto"),
               help="a kind to score next to the identity baseline "
                    "(repeatable): %(choices)s; 'auto' adds the kinds "
                    "the diagnostics recommend")
    p.add_argument("--threshold", action="append", metavar="KEY=VALUE")
    p.add_argument("--model", action="append", choices=evaluation.MODELS)
    p.add_argument("--alpha", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--out-md")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("report", help="render a benchmark JSON as markdown")
    p.add_argument("--in-json", required=True)
    p.add_argument("--out-md")
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CODES[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
