"""Command-line front end.

Subcommands:
  validate      run the validator suite for one structure file
  construct     run a construction, validate its result and write it
  braid-report  run the full braiding law suite on two or three modules
  fixtures      materialize the bundled example structures

Exit codes: 0 all checks pass, 1 a required check failed or a
construction was rejected, 2 unreadable/malformed input or command line
(a wrong number of files, a missing or unknown --grade, --grade with an
op other than yd-conjugate, a bad field tag) or an unwritable output
path, 3 braiding requested on a non-strict module.  Errors other than
argparse's own go to stderr as "error: <message>".  Reports are
deterministic; timing goes to stderr so stdout and --json stay
byte-stable.  A reader that closes stdout early (a pipe into head) drops
the rest of the output and changes no exit code.

Each command imports what it runs.  The modules every command needs are
imported at the top; yd and fixtures are imported only inside the code
paths that use them, so no hq or gchq command loads either.
"""

import argparse
import os
import sys
import time

from . import serialize
from .errors import FieldError, NotStrict, ParseError, QuasibraidError
from .exactlin import field_from_name
from .gchq import mirror, power_construction, validate_crossed
from .hq import antipode_inverse_laws, loop_algebra, validate_hopf_quasigroup
from .report import Report

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_NOT_STRICT = 3


#: construct op -> (kinds of its input files, kind of its result)
OPS = {
    "loop-algebra": (("loop",), "hq"),
    "power": (("hq", "action"), "gchq"),
    "mirror": (("gchq",), "gchq"),
    "yd-tensor": (("yd", "yd"), "yd"),
    "yd-conjugate": (("yd",), "yd"),
    "direct-sum": (("yd", "yd"), "yd"),
}


def _field(tag=None):
    """The field named by tag, else by QB_FIELD, else Q; a bad tag is an
    invocation error."""
    try:
        return field_from_name(tag or os.environ.get("QB_FIELD", "Q"))
    except FieldError as exc:
        raise ParseError(str(exc)) from None


def _say(text):
    """Print text to stdout.  Once the reader has closed it, stdout is
    pointed at os.devnull, so the command still ends with its own exit
    code and nothing is reported when the interpreter flushes it."""
    try:
        print(text)
    except BrokenPipeError:
        _drop_stdout()


def _drop_stdout():
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, sys.stdout.fileno())
    os.close(devnull)


def _emit(report, json_path, elapsed):
    if json_path:  # first, so that an unwritable path prints no report
        serialize.write_file(json_path, report.to_jobj())
    _say(report.render())
    print(f"elapsed: {elapsed:.3f}s", file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILED


def _validate_object(kind, obj):
    if kind == "hq":
        report = validate_hopf_quasigroup(obj)
        report.merge(antipode_inverse_laws(obj))
        return report
    if kind == "gchq":
        return validate_crossed(obj)
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


def _construct(op, inputs, grade):
    if op == "loop-algebra":
        return loop_algebra(*inputs, _field())
    if op == "power":
        return power_construction(*inputs)
    if op == "mirror":
        return mirror(*inputs)
    from . import yd

    if op == "yd-tensor":
        return yd.yd_tensor(*inputs)
    if op == "direct-sum":
        return yd.yd_direct_sum(*inputs)[0]
    labels = inputs[0].base.grading.labels
    if grade not in labels:
        raise ParseError(f"unknown grade {grade!r}; choices: {', '.join(labels)}")
    return yd.yd_conjugate(*inputs, labels.index(grade))


def cmd_construct(args):
    start = time.monotonic()
    kinds, result_kind = OPS[args.op]
    if len(args.inputs) != len(kinds):
        raise ParseError(f"--op {args.op} needs exactly {len(kinds)} input file(s)")
    if args.op == "yd-conjugate" and args.grade is None:
        raise ParseError("yd-conjugate needs --grade")
    if args.op != "yd-conjugate" and args.grade is not None:
        raise ParseError(f"--grade is only for yd-conjugate, not --op {args.op}")
    inputs = [serialize.load(kind, path) for kind, path in zip(kinds, args.inputs)]
    result = _construct(args.op, inputs, args.grade)
    report = _validate_object(result_kind, result)
    if not report.passed:
        _say(report.render())
        _say("construction result failed validation; not writing output")
        return EXIT_FAILED
    serialize.save(result_kind, result, args.out)
    _say(f"wrote {result_kind} structure to {args.out}")
    print(f"elapsed: {time.monotonic() - start:.3f}s", file=sys.stderr)
    return EXIT_OK


def cmd_braid_report(args):
    if not 2 <= len(args.modules) <= 3:
        raise ParseError("braid-report needs two or three module files")
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

    paths = fixtures.write_all(args.out, _field(args.field))
    for path in paths:
        _say(f"wrote {path}")
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
    p.add_argument("--op", required=True, choices=list(OPS))
    p.add_argument("inputs", nargs="*", help="input structure files")
    p.add_argument("--grade", help="grade label for yd-conjugate")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("braid-report", help="braiding law suite for two or three modules")
    p.add_argument("modules", nargs="*", help="two or three yd module files")
    p.add_argument("--json", help="also write the report as JSON to this path")
    p.set_defaults(func=cmd_braid_report)

    p = sub.add_parser("fixtures", help="write the bundled fixtures to a directory")
    p.add_argument("--out", required=True)
    p.add_argument("--field", help='field tag, "Q" or "GF:<p>" (default: QB_FIELD or Q)')
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
    except QuasibraidError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ParseError):
            code = EXIT_PARSE
        else:
            code = EXIT_NOT_STRICT if isinstance(exc, NotStrict) else EXIT_FAILED
    try:
        sys.stdout.flush()  # a closed stdout fails here, not as the interpreter exits
    except BrokenPipeError:
        _drop_stdout()
    return code


if __name__ == "__main__":
    sys.exit(main())
