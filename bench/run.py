"""quasibraid benchmark runner.

    python3 bench/run.py --workload loop-hq --seed 1 --seconds 55 --trace 0

Run from the root of a source checkout.  One client runs the workload's
CLI operations one at a time, each as a fresh `python -m quasibraid`
child (a closed loop, so two cores are never oversubscribed), in passes:
at least two, and another only while it should end within --seconds.
The seed only shuffles the order of the operations in a pass; outputs
do not depend on that order, so the recorded digests hold for every
seed.  Workloads and metrics are described in WORKLOADS.md.

Every operation is checked: exit code, sha256 of stdout and of every
file it writes, no traceback on stderr, and the theory-derived verdict
lines of its workload.  The last line of stdout is one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics (medians over passes).
--trace 1 runs one pass in process without and one with the layer
tracer, checks both and their byte-identical stdout, and reports the
per-layer metrics and the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"

SETUP_BATCH_S = 0.5
IMPORT_REPS = 5
MIN_PASSES = 2
OP_TIMEOUT_S = 150

#: (name, unit); what --trace 0 prints, in BENCHMARK.json order
END_TO_END = (
    ("pass_s", "s"),
    ("validate_s", "s"),
    ("op_max_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

#: (name, unit); what --trace 1 prints.  Layers that a workload never
#: calls (gchq and yd on loop-hq) have their times on the detail line only.
PER_LAYER = (
    ("cli.import_s", "s"),
    ("cli.self_s", "s"),
    ("serialize.load.s", "s"),
    ("serialize.load.calls", "count"),
    ("serialize.load.bytes", "B"),
    ("serialize.save.s", "s"),
    ("serialize.save.calls", "count"),
    ("serialize.save.bytes", "B"),
    ("tables.validate.s", "s"),
    ("tables.validate.calls", "count"),
    ("hq.construct.calls", "count"),
    ("hq.validate.s", "s"),
    ("hq.validate.calls", "count"),
    ("hq.checks", "count"),
    ("gchq.validate.calls", "count"),
    ("gchq.crossing.calls", "count"),
    ("gchq.construct.calls", "count"),
    ("gchq.checks", "count"),
    ("yd.validate.calls", "count"),
    ("yd.construct.calls", "count"),
    ("yd.braid.calls", "count"),
    ("yd.laws.calls", "count"),
    ("yd.checks", "count"),
    ("exactlin.compose.s", "s"),
    ("exactlin.compose.calls", "count"),
    ("exactlin.compose.mults", "count"),
    ("exactlin.compose.out_nnz", "count"),
    ("exactlin.kron.s", "s"),
    ("exactlin.kron.calls", "count"),
    ("exactlin.kron.out_nnz", "count"),
    ("exactlin.leg_perm.s", "s"),
    ("exactlin.leg_perm.calls", "count"),
    ("exactlin.leg_perm.entries", "count"),
    ("exactlin.invert.s", "s"),
    ("exactlin.invert.calls", "count"),
    ("exactlin.linmap.s", "s"),
    ("exactlin.linmap.calls", "count"),
    ("exactlin.max_nnz", "count"),
    ("report.witness.s", "s"),
    ("report.witness.calls", "count"),
    ("report.witness.keys", "count"),
    ("report.failed_checks", "count"),
    ("report.render.s", "s"),
    ("trace.overhead", "ratio"),
)


def sha256(data):
    return hashlib.sha256(data).hexdigest()


def file_sha(path):
    path = Path(path)
    return sha256(path.read_bytes()) if path.exists() else None


# -- set-up -------------------------------------------------------------------


def build_inputs(workload, indir):
    """Write the workload's input files; returns {name: sha256}."""
    from quasibraid import serialize
    from workloads import INPUTS

    indir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name in workload.inputs:
        kind, builder = INPUTS[name]
        path = indir / f"{name}.json"
        serialize.save(kind, builder(), path)
        digests[name] = file_sha(path)
    return digests


def setup(workload, indir, seconds, expected=None):
    """Build the inputs into indir once, then again until `seconds` have
    gone by; returns (times, problems).  With `expected`, the first
    build's digests are checked against the recorded ones."""
    times, problems = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < seconds:
        shutil.rmtree(indir, ignore_errors=True)
        rep_start = time.perf_counter()
        digests = build_inputs(workload, indir)
        times.append(time.perf_counter() - rep_start)
        if expected is not None and len(times) == 1:
            for name, digest in digests.items():
                if digest != expected["inputs"].get(name):
                    problems.append(f"input {name}: sha256 {digest} is not the recorded one")
    return times, problems


# -- running one operation ------------------------------------------------------


class Result:
    __slots__ = ("op", "exit", "wall", "rss_kb", "stdout", "stderr", "out_sha", "json_sha")

    def __init__(self, op, exit_code, wall, rss_kb, stdout, stderr, workdir):
        self.op = op
        self.exit = exit_code
        self.wall = wall
        self.rss_kb = rss_kb
        self.stdout = stdout
        self.stderr = stderr
        self.out_sha = file_sha(workdir / op.out_path("o")) if op.out else None
        self.json_sha = file_sha(workdir / op.json_path("o")) if op.json else None


def _clear_outputs(op, workdir):
    for rel in (op.out_path("o"), op.json_path("o")):
        with contextlib.suppress(FileNotFoundError):
            (workdir / rel).unlink()


def wait_child(cmd, workdir, env, stdout, stderr):
    """Run cmd to its end; returns (exit code, wall seconds, rusage).

    os.wait4 blocks until the child ends, so the wall time has no polling
    step, and it gives this child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=stdout, stderr=stderr,
                            stdin=subprocess.DEVNULL)
    timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def run_child(op, workdir, env):
    """One `python -m quasibraid` child, its outputs kept in workdir."""
    _clear_outputs(op, workdir)
    cmd = [sys.executable, "-m", "quasibraid"] + op.command("in", "o")
    out_path, err_path = workdir / "child.stdout", workdir / "child.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        code, wall, usage = wait_child(cmd, workdir, env, out, err)
    return Result(op, code, wall, usage.ru_maxrss, out_path.read_bytes(),
                  err_path.read_bytes(), workdir)


def run_in_process(op, workdir):
    """quasibraid.cli.main(argv) in this process, stdout and stderr captured.
    The caller has made workdir the current directory."""
    import quasibraid.cli

    _clear_outputs(op, workdir)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = quasibraid.cli.main(op.command("in", "o"))
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed operation, reported like a child's
            traceback.print_exc()
            code = None
    wall = time.perf_counter() - start
    return Result(op, code, wall, 0, out.getvalue().encode("utf-8"),
                  err.getvalue().encode("utf-8"), workdir)


# -- the oracle -------------------------------------------------------------------


def _has_line(text, prefix):
    return any(line == prefix or line.startswith(prefix + " ") for line in text.splitlines())


def check(result, expected):
    """Problems with one operation's result; empty when it matches."""
    op = result.op
    problems = []
    if expected is None:
        return [f"{op.id}: no recorded expectation"]
    if result.exit != expected["exit"] or result.exit != op.expect_exit:
        problems.append(f"{op.id}: exit {result.exit}, expected {op.expect_exit}")
    for what, got in (("stdout", sha256(result.stdout)), ("out", result.out_sha),
                      ("json", result.json_sha)):
        if got != expected[what]:
            problems.append(f"{op.id}: {what} sha256 {got} is not the recorded one")
    stdout = result.stdout.decode("utf-8", "replace")
    stderr = result.stderr.decode("utf-8", "replace")
    if "Traceback" in stderr:
        problems.append(f"{op.id}: traceback on stderr")
    problems += [f"{op.id}: stdout lacks {s!r}" for s in op.stdout_has if not _has_line(stdout, s)]
    problems += [f"{op.id}: stderr lacks {s!r}" for s in op.stderr_has if s not in stderr]
    return problems


# -- passes ---------------------------------------------------------------------


def pass_order(workload, seed):
    ops = list(workload.ops)
    random.Random(seed).shuffle(ops)
    return ops


def pass_metrics(results, wall):
    def total(kind):
        return sum(r.wall for r in results if r.op.kind == kind)

    return {
        "pass_s": wall,
        "validate_s": total("validate"),
        "construct_s": total("construct"),
        "braid_s": total("braid"),
        "op_max_s": max(r.wall for r in results),
        "peak_rss_mb": max(r.rss_kb for r in results) / 1024.0,
        "op_s": {r.op.id: r.wall for r in results},
    }


class Tally:
    """Operations attempted and failed, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def add(self, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems

    @property
    def ratio(self):
        return self.failed / self.attempted if self.attempted else 0.0


def child_env():
    """The environment of a CLI child: this checkout's src, the default field."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("QB_FIELD", None)
    return env


def run_pass(ops, workdir, env, expected, tally):
    """One pass of CLI children; returns its metrics."""
    start = time.perf_counter()
    results = [run_child(op, workdir, env) for op in ops]
    wall = time.perf_counter() - start
    for r in results:
        tally.add(check(r, expected.get(r.op.id)))
    return pass_metrics(results, wall)


def measure(workload, ops, workdir, seconds, expected_all, tally):
    """Passes with a set-up batch after each, so that set-up is timed
    across the whole run like the passes are; returns (pass samples,
    set-up times)."""
    env = child_env()
    expected = expected_all["ops"].get(workload.name, {})
    setup_times, problems = setup(workload, workdir / "in", SETUP_BATCH_S, expected_all)
    tally.problems += problems
    samples = []
    start = time.perf_counter()
    # a pass starts only if one more like the last still ends within `seconds`
    while (len(samples) < MIN_PASSES
           or time.perf_counter() - start + samples[-1]["pass_s"] <= seconds):
        samples.append(run_pass(ops, workdir, env, expected, tally))
        setup_times += setup(workload, workdir / "rebuild", SETUP_BATCH_S)[0]
    return samples, setup_times


def run_traced(ops, workdir, expected, tally):
    """One untraced and one traced in-process pass; returns the layer metrics."""
    from tracing import Tracer, leftover_wrappers

    os.environ.pop("QB_FIELD", None)
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        start = time.perf_counter()
        plain = [run_in_process(op, workdir) for op in ops]
        plain_wall = time.perf_counter() - start
        tracer = Tracer()
        with tracer:
            start = time.perf_counter()
            traced = []
            for op in ops:
                tracer.op = op.id
                traced.append(run_in_process(op, workdir))
            traced_wall = time.perf_counter() - start
    finally:
        os.chdir(cwd)
    for a, b in zip(plain, traced):
        tally.add(check(a, expected.get(a.op.id)))
        problems = check(b, expected.get(b.op.id))
        if a.stdout != b.stdout:
            problems.append(f"{b.op.id}: traced stdout differs from untraced stdout")
        tally.add(problems)
    left = leftover_wrappers()
    if left:
        tally.problems.append("tracing wrappers left installed: " + ", ".join(left))
    layers = tracer.layer_metrics()
    layers["trace.pass_s"] = traced_wall
    layers["trace.untraced_pass_s"] = plain_wall
    layers["trace.overhead"] = traced_wall / plain_wall - 1.0
    layers["cli.import_s"] = statistics.median(import_times(IMPORT_REPS))
    return layers, tracer


def import_times(reps):
    """Wall time of `import quasibraid.cli` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import quasibraid.cli; "
            "print(time.perf_counter() - t)")
    env = child_env()
    times = []
    for _ in range(reps):
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, timeout=60, check=True)
        times.append(float(out.stdout))
    return times


# -- entry point --------------------------------------------------------------------


def load_expected():
    with open(BENCH / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def import_program():
    """Import quasibraid from this checkout's src/, nowhere else."""
    if not (SRC / "quasibraid" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC}/quasibraid not found; run from a source checkout root")
    sys.path.insert(0, str(SRC))
    import quasibraid

    if Path(quasibraid.__file__).resolve().parent != (SRC / "quasibraid").resolve():
        raise SystemExit(f"error: imported quasibraid from {quasibraid.__file__}, not {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choices: {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    expected_all = load_expected()
    expected = expected_all["ops"].get(workload.name, {})
    workdir = OUT / f"work-{workload.name}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "o").mkdir(parents=True)
    tally = Tally()
    ops = pass_order(workload, args.seed)
    try:
        if args.trace:
            _, problems = setup(workload, workdir / "in", 0, expected_all)
            tally.problems += problems
            layers, tracer = run_traced(ops, workdir, expected, tally)
            spans_path = OUT / f"spans-{workload.name}-{args.seed}.json"
            tracer.write_spans(spans_path, [op.id for op in ops])
            detail = {"layers": layers, "spans": str(spans_path.relative_to(ROOT))}
            metrics = {name: {"value": layers[name], "unit": unit} for name, unit in PER_LAYER}
        else:
            samples, setup_times = measure(workload, ops, workdir, args.seconds, expected_all,
                                           tally)
            medians = {k: statistics.median(s[k] for s in samples) for k in samples[0]
                       if k != "op_s"}
            medians["setup_s"] = statistics.median(setup_times)
            detail = {
                "passes": len(samples),
                "setup_samples": len(setup_times),
                "medians": medians,
                "samples": samples,
            }
            metrics = {name: {"value": medians[name], "unit": unit}
                       for name, unit in END_TO_END}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in tally.problems:
        print(f"FAILED {problem}")
    detail.update(workload=workload.name, seed=args.seed, order=[op.id for op in ops],
                  failed_ratio=tally.ratio)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
