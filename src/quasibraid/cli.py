"""Command-line front end.

Subcommands:
  validate      run the validator suite for one structure file
  construct     run a construction and write the (re-validated) result
  braid-report  run the full braiding law suite on two or three modules
  fixtures      materialize the bundled example structures

Exit codes: 0 all checks pass, 1 a required check failed or a
construction was rejected, 2 unreadable/malformed input, 3 braiding
requested on a non-strict module.  Reports are deterministic; timing
goes to stderr so stdout and --json stay byte-stable.

Each command imports what it runs.  The modules every command needs are
imported at the top; yd and fixtures are imported only inside the code
paths that use them, so no hq or gchq command loads either.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import serialize
from .errors import NotStrict, ParseError, QuasibraidError
from .exactlin import field_from_name
from .gchq import mirror, power_construction, validate_crossed
from .hq import antipode_inverse_laws, loop_algebra, validate_hopf_quasigroup
from .report import Report

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_STRICT = 3


def default_field():
    return field_from_name(os.environ.get("QB_FIELD", "Q"))


def _emit(report, json_path, elapsed):
    print(report.render())
    if json_path:
        serialize.write_file(json_path, report.to_jobj())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILED


def _validate_object(kind, obj):
    if kind == "hq":
        report = validate_hopf_quasigroup(obj)
        report.merge(antipode_inverse_laws(obj))
    elif kind == "gchq":
        report = validate_crossed(obj)
    else:
        from .yd import validate_yd

        report = validate_crossed(obj.base)
        if report.passed:
            report.merge(validate_yd(obj))
    return report


def cmd_validate(args):
    start = time.monotonic()
    obj = serialize.load(args.kind, args.path)
    report = _validate_object(args.kind, obj)
    return _emit(report, args.json, time.monotonic() - start)


def cmd_construct(args):
    start = time.monotonic()
    op = args.op
    validated = False
    if op == "loop-algebra":
        _expect_inputs(args, 1)
        table = serialize.load("loop", args.inputs[0])
        result_kind, result = "hq", loop_algebra(table, default_field())
    elif op == "power":
        _expect_inputs(args, 2)
        h = serialize.load("hq", args.inputs[0])
        action = serialize.load("action", args.inputs[1])
        result_kind, result = "gchq", power_construction(h, action)
    elif op == "mirror":
        _expect_inputs(args, 1)
        h = serialize.load("gchq", args.inputs[0])
        # mirror validates its output and raises if it fails
        result_kind, result, validated = "gchq", mirror(h), True
    elif op == "yd-tensor":
        from .yd import yd_tensor

        _expect_inputs(args, 2)
        v = serialize.load("yd", args.inputs[0])
        w = serialize.load("yd", args.inputs[1])
        result_kind, result = "yd", yd_tensor(v, w)
    elif op == "yd-conjugate":
        from .yd import yd_conjugate

        _expect_inputs(args, 1)
        v = serialize.load("yd", args.inputs[0])
        if args.grade is None:
            raise QuasibraidError("yd-conjugate needs --grade")
        labels = v.base.grading.labels
        if args.grade not in labels:
            raise QuasibraidError(
                f"unknown grade {args.grade!r}; choices: {', '.join(labels)}"
            )
        result_kind, result = "yd", yd_conjugate(v, labels.index(args.grade))
    elif op == "direct-sum":
        from .yd import yd_direct_sum

        _expect_inputs(args, 2)
        v = serialize.load("yd", args.inputs[0])
        w = serialize.load("yd", args.inputs[1])
        total, _, _ = yd_direct_sum(v, w)
        result_kind, result = "yd", total
    else:  # pragma: no cover - argparse restricts choices
        raise QuasibraidError(f"unknown op {op}")

    if not validated:
        report = _validate_object(result_kind, result)
        if not report.passed:
            print(report.render())
            print("construction result failed validation; not writing output")
            return EXIT_FAILED
    serialize.save(result_kind, result, args.out)
    print(f"wrote {result_kind} structure to {args.out}")
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return EXIT_OK


def _expect_inputs(args, n):
    if len(args.inputs) != n:
        raise QuasibraidError(f"--op {args.op} needs exactly {n} input file(s)")


def cmd_braid_report(args):
    from .yd import (
        Constructions,
        check_braiding_inverse,
        check_braiding_laws,
        conjugation_coherence,
        yd_direct_sum,
    )

    start = time.monotonic()
    loaded = {path: serialize.load("yd", path) for path in dict.fromkeys(args.modules)}
    modules = [loaded[path] for path in args.modules]
    report = Report("braiding law suite")
    v, w = modules[0], modules[1]
    x = modules[2] if len(modules) > 2 else None

    sum_v, incl_v, _ = yd_direct_sum(v, v)
    sum_w, incl_w, _ = yd_direct_sum(w, w)
    built = Constructions()
    report.merge(check_braiding_laws(v, w, x, incl_v, incl_w, built))
    report.merge(check_braiding_inverse(v, w))
    if x is not None:
        report.merge(check_braiding_inverse(w, x))
        report.merge(check_braiding_inverse(v, x))
    report.merge(conjugation_coherence(v, w, built))
    return _emit(report, args.json, time.monotonic() - start)


def cmd_fixtures(args):
    from . import fixtures

    field = field_from_name(args.field) if args.field else default_field()
    paths = fixtures.write_all(args.out, field)
    for path in paths:
        print(f"wrote {path}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quasibraid",
        description="Exact verification of crossed group-cograded Hopf quasigroups "
        "and Yetter-Drinfeld module braidings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate a structure file")
    p.add_argument("path")
    p.add_argument("--kind", required=True, choices=["hq", "gchq", "yd"])
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("construct", help="run a construction and save the result")
    p.add_argument(
        "--op",
        required=True,
        choices=["loop-algebra", "power", "mirror", "yd-tensor", "yd-conjugate", "direct-sum"],
    )
    p.add_argument("inputs", nargs="+", help="input structure files")
    p.add_argument("--grade", help="grade label for yd-conjugate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("braid-report", help="braiding law suite for two or three modules")
    p.add_argument("modules", nargs="+", help="two or three yd module files")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_braid_report)

    p = sub.add_parser("fixtures", help="write the bundled fixtures to a directory")
    p.add_argument("--out", required=True)
    p.add_argument("--field", help='field tag, "Q" or "GF:<p>" (default: QB_FIELD or Q)')
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "braid-report" and not 2 <= len(args.modules) <= 3:
        print("braid-report needs two or three module files", file=sys.stderr)
        return EXIT_PARSE
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except NotStrict as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_STRICT
    except QuasibraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILED


if __name__ == "__main__":
    sys.exit(main())
