"""Self-test of the benchmark on the C2/C3 fixtures; takes seconds.

    python3 bench/selftest.py

Run from the root of a source checkout.  Checks that:
  * every metric BENCHMARK.json names is printed with its unit, by both
    --trace 0 and --trace 1, and the runs are correct;
  * the tracer wraps each name wherever it is bound, traced stdout is
    byte-identical to untraced stdout, and afterwards every wrapped name
    is the original again;
  * a wrong recorded digest makes operations fail, so the oracle can fail.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import run

failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def last_json_line(trace):
    proc = subprocess.run(
        [sys.executable, str(run.BENCH / "run.py"), "--workload", "smoke", "--seed", "7",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    expect(proc.returncode == 0, f"--trace {trace} exits 0")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]) if lines else {}


def check_printed_metrics():
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    for trace, section, ours in ((0, "end_to_end", run.END_TO_END),
                                 (1, "per_layer", run.PER_LAYER)):
        declared = [(m["name"], m["unit"]) for m in spec[section]]
        expect(declared == list(ours), f"BENCHMARK.json {section} matches run.py")
        result = last_json_line(trace)
        metrics = result.get("metrics", {})
        expect(result.get("correct") is True and result.get("failed") == 0,
               f"--trace {trace} run is correct")
        expect(set(metrics) == {name for name, _ in declared},
               f"--trace {trace} prints exactly the {section} metrics")
        expect(all(metrics.get(name, {}).get("unit") == unit for name, unit in declared),
               f"--trace {trace} prints every metric with its unit")
        expect(all(isinstance(m.get("value"), (int, float)) for m in metrics.values()),
               f"--trace {trace} values are numbers")


def check_tracer(workload, workdir, expected):
    import quasibraid.exactlin as exactlin
    import quasibraid.hq as hq
    import quasibraid.report as report
    import quasibraid.yd as yd
    from tracing import Tracer, leftover_wrappers

    originals = (exactlin.kron, exactlin.compose, report.map_witness, exactlin.LinMap.__init__)
    with Tracer():
        expect(hq.kron is exactlin.kron and hq.kron is not originals[0],
               "kron is wrapped in hq and exactlin alike")
        expect(yd.map_witness is report.map_witness and yd.map_witness is not originals[2],
               "map_witness is wrapped in yd and report alike")
    expect(hq.kron is exactlin.kron is originals[0], "quasibraid.hq.kron is exactlin.kron again")
    expect(exactlin.compose is originals[1] and yd.map_witness is originals[2],
           "compose and map_witness are the originals again")
    expect(exactlin.LinMap.__init__ is originals[3], "LinMap.__init__ is the original again")

    tally = run.Tally()
    layers, _ = run.run_traced(list(workload.ops), workdir, expected, tally)
    expect(tally.failed == 0 and not tally.problems,
           "traced stdout is byte-identical to untraced stdout and matches the oracle")
    expect(not leftover_wrappers(), "no tracing wrapper is left installed")
    expect(layers["exactlin.compose.calls"] > 0 and layers["report.render.calls"] > 0,
           "the traced pass recorded layer calls")


def check_oracle_can_fail(workload, workdir, expected):
    wrong = json.loads(json.dumps(expected))
    wrong[workload.ops[0].id]["stdout"] = "0" * 64
    tally = run.Tally()
    run.run_pass(list(workload.ops), workdir, run.child_env(), wrong, tally)
    expect(tally.ratio > 0, f"a wrong digest gives failed_ratio {tally.ratio:.3f} > 0")


def main():
    run.import_program()
    from workloads import WORKLOADS

    check_printed_metrics()
    workload = WORKLOADS["smoke"]
    expected_all = run.load_expected()
    expected = expected_all["ops"]["smoke"]
    workdir = run.OUT / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    (workdir / "o").mkdir(parents=True)
    try:
        _, problems = run.setup(workload, workdir / "in", 0, expected_all)
        expect(not problems, "smoke inputs match their recorded digests")
        check_tracer(workload, workdir, expected)
        check_oracle_can_fail(workload, workdir, expected)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
