"""Record the benchmark oracle: rewrite bench/expected.json from this checkout.

    python3 bench/record.py

Builds every workload's inputs and runs each operation once as a CLI
child, storing the input digests and, per operation, the exit code and
the sha256 of stdout, --out and --json.  Refuses to record a result
whose exit code or theory-derived verdict lines are wrong.  Run it only
when a change is meant to alter outputs, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run


def main():
    run.import_program()
    from workloads import WORKLOADS

    env = run.child_env()
    record = {"inputs": {}, "ops": {}}
    bad = []
    for workload in WORKLOADS.values():
        workdir = run.OUT / f"record-{workload.name}"
        shutil.rmtree(workdir, ignore_errors=True)
        (workdir / "o").mkdir(parents=True)
        try:
            record["inputs"].update(run.build_inputs(workload, workdir / "in"))
            ops = record["ops"][workload.name] = {}
            for op in workload.ops:
                result = run.run_child(op, workdir, env)
                ops[op.id] = {
                    "exit": result.exit,
                    "stdout": run.sha256(result.stdout),
                    "out": result.out_sha,
                    "json": result.json_sha,
                }
                bad += run.check(result, ops[op.id])
                print(f"{workload.name} {op.id}: exit {result.exit}, {result.wall:.2f}s")
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        for problem in bad:
            print(f"FAILED {problem}", file=sys.stderr)
        return 1
    record["inputs"] = dict(sorted(record["inputs"].items()))
    with open(run.BENCH / "expected.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
