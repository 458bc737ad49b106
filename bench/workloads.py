"""Benchmark inputs and the CLI operations each workload runs.

Inputs are built from the public quasibraid API and saved with
quasibraid.serialize, so the files are exactly what a user would feed
the CLI.  The recorded sha256 of every file (expected.json) pins them:
a change to a construction or to the file format shows up at set-up
instead of silently changing what is measured.

The reasons for each workload, and which layer metric should move which
end-to-end metric, are in WORKLOADS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from quasibraid import fixtures
from quasibraid.exactlin import QQ, LinMap, PrimeField
from quasibraid.gchq import mirror, power_construction
from quasibraid.hq import HopfQuasigroup, group_algebra, loop_algebra
from quasibraid.tables import GroupAction, GroupTable, LoopTable
from quasibraid.yd import diagonal_module

GF7 = PrimeField(7)


# -- generated structures ---------------------------------------------------


def chein_loop(g):
    """Chein's Moufang loop M(G,2) on G u Gu (O. Chein, Trans. AMS 188, 1974).

    For g, h in G: (g)(h) = gh, (g)(hu) = (hg)u, (gu)(h) = (gh^-1)u and
    (gu)(hu) = h^-1 g.  Nonassociative, and an IP loop, whenever G is
    nonabelian.  Element i of G is index i, element iu is index |G| + i.
    """
    n = g.order
    labels = list(g.labels) + [f"{label}u" for label in g.labels]
    table = [[0] * (2 * n) for _ in range(2 * n)]
    for a in range(n):
        for b in range(n):
            table[a][b] = g.mul(a, b)
            table[a][n + b] = n + g.mul(b, a)
            table[n + a][b] = n + g.mul(a, g.inv(b))
            table[n + a][n + b] = g.mul(g.inv(b), a)
    return LoopTable(labels, table)


def chein_s3():
    return chein_loop(GroupTable.symmetric(3))


def chein_s3xc2():
    return chein_loop(GroupTable.direct_product(GroupTable.symmetric(3), GroupTable.cyclic(2)))


def not_ip_loop():
    """A 5-element loop with two-sided inverses that fails LOOP-IP-left."""
    table = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 4, 0, 1, 3],
        [3, 2, 4, 0, 1],
        [4, 3, 1, 2, 0],
    ]
    return LoopTable([f"x{i}" for i in range(5)], table)


def v4():
    return GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))


def s3_on_v4():
    """S3 permuting the three involutions of V4 (indices 1, 2, 3)."""
    maps = [[0] + [p[k] + 1 for k in range(3)] for p in sorted(permutations(range(3)))]
    return GroupAction(GroupTable.symmetric(3), v4(), maps)


def identity_antipode(h):
    """h with its antipode replaced by the identity: fails HQ-2.5/2.6/2.9/2.10."""
    return HopfQuasigroup(
        h.field, h.algebra, h.comult, h.counit, LinMap.identity(h.field, h.labels)
    )


def v4_power(f):
    return power_construction(group_algebra(v4(), f), s3_on_v4())


#: input name -> (serialize kind, builder); every workload draws from here
INPUTS = {
    "table-chein12": ("table", chein_s3),
    "table-not-ip5": ("table", not_ip_loop),
    "action-s3-on-v4": ("action", s3_on_v4),
    "hq-o16": ("hq", lambda: loop_algebra(fixtures.o16(), QQ)),
    "hq-chein12": ("hq", lambda: loop_algebra(chein_s3(), QQ)),
    "hq-chein24": ("hq", lambda: loop_algebra(chein_s3xc2(), QQ)),
    "hq-chein12-id-antipode": ("hq", lambda: identity_antipode(loop_algebra(chein_s3(), QQ))),
    "hq-v4": ("hq", lambda: group_algebra(v4(), QQ)),
    "gchq-v4-s3": ("gchq", lambda: v4_power(QQ)),
    "gchq-v4-s3-mirror": ("gchq", lambda: mirror(v4_power(QQ))),
    "yd-v4-s3-diagonal": ("yd", lambda: diagonal_module(v4_power(QQ))),
    "yd-crossed-s3": ("yd", lambda: fixtures.yd_crossed_s3(QQ)),
    "yd-crossed-s3-quasi": ("yd", lambda: fixtures.yd_crossed_s3_quasi(QQ)),
    "yd-diagonal-power": ("yd", lambda: fixtures.yd_diagonal_power(QQ)),
    "yd-trivial": ("yd", lambda: fixtures.yd_trivial(QQ)),
    "gf7-hq-o16": ("hq", lambda: loop_algebra(fixtures.o16(), GF7)),
    "gf7-hq-chein24": ("hq", lambda: loop_algebra(chein_s3xc2(), GF7)),
    "gf7-gchq-v4-s3-mirror": ("gchq", lambda: mirror(v4_power(GF7))),
    "gf7-yd-v4-s3-diagonal": ("yd", lambda: diagonal_module(v4_power(GF7))),
    "gf7-yd-crossed-s3": ("yd", lambda: fixtures.yd_crossed_s3(GF7)),
    "table-c3": ("table", fixtures.c3),
    "hq-c2": ("hq", lambda: fixtures.hq_c2(QQ)),
    "hq-c3": ("hq", lambda: fixtures.hq_c3(QQ)),
    "gchq-power": ("gchq", lambda: fixtures.gchq_power(QQ)),
}


# -- operations ---------------------------------------------------------------

#: theory-derived stdout lines, independent of the recorded digests
LOOP_VERDICT = ("result: PASS", "FAIL [info] HQ-assoc")
GROUP_VERDICT = ("result: PASS", "PASS [info] HQ-assoc")


@dataclass(frozen=True)
class Op:
    """One CLI invocation: `python -m quasibraid <argv>` run in the work dir.

    Inputs are named without directory or suffix; `out` and `json` are
    set when the command writes that file.  `stdout_has` and
    `stderr_has` hold lines the verdict must contain whatever the
    recorded digests say.
    """

    id: str
    argv: tuple
    expect_exit: int = 0
    out: bool = False
    json: bool = False
    stdout_has: tuple = ()
    stderr_has: tuple = ()

    @property
    def kind(self):
        return "braid" if self.argv[0] == "braid-report" else self.argv[0]

    @property
    def inputs(self):
        return tuple(a[1:] for a in self.argv if a.startswith("@"))

    def command(self, indir, outdir):
        """The argv after `-m quasibraid`, with @name resolved to a file."""
        args = [f"{indir}/{a[1:]}.json" if a.startswith("@") else a for a in self.argv]
        if self.out:
            args += ["--out", self.out_path(outdir)]
        if self.json:
            args += ["--json", self.json_path(outdir)]
        return args

    def out_path(self, outdir):
        return f"{outdir}/{self.id}.out.json"

    def json_path(self, outdir):
        return f"{outdir}/{self.id}.report.json"


def _validate(op_id, kind, name, **kw):
    return Op(op_id, ("validate", f"@{name}", "--kind", kind), **kw)


def _construct(op_id, op, *names, grade=None, **kw):
    argv = ("construct", "--op", op) + tuple(f"@{n}" for n in names)
    if grade is not None:
        argv += ("--grade", grade)
    return Op(op_id, argv, out=True, **kw)


def _braid(op_id, *names, **kw):
    return Op(op_id, ("braid-report",) + tuple(f"@{n}" for n in names), **kw)


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple

    @property
    def inputs(self):
        return tuple(sorted({name for op in self.ops for name in op.inputs}))


WORKLOADS = {
    "loop-hq": Workload("loop-hq", (
        _validate("validate-o16", "hq", "hq-o16", stdout_has=LOOP_VERDICT),
        _validate("validate-chein12", "hq", "hq-chein12", stdout_has=LOOP_VERDICT),
        _validate("validate-chein24", "hq", "hq-chein24", stdout_has=LOOP_VERDICT),
        _construct("loop-algebra-chein12", "loop-algebra", "table-chein12"),
        _validate(
            "validate-id-antipode", "hq", "hq-chein12-id-antipode",
            expect_exit=1, json=True,
            stdout_has=("result: FAIL", "FAIL HQ-2.5-left", "FAIL HQ-2.6-left",
                        "FAIL HQ-2.9-left", "FAIL HQ-2.10-left"),
        ),
        _construct(
            "loop-algebra-not-ip", "loop-algebra", "table-not-ip5",
            expect_exit=1, stderr_has=("LOOP-IP-left",),
        ),
    )),
    "graded-yd": Workload("graded-yd", (
        _validate("validate-v4", "hq", "hq-v4", stdout_has=GROUP_VERDICT),
        _construct("power-v4-s3", "power", "hq-v4", "action-s3-on-v4"),
        _construct("mirror-v4-s3", "mirror", "gchq-v4-s3"),
        _validate("validate-mirror", "gchq", "gchq-v4-s3-mirror", stdout_has=("result: PASS",)),
        _validate("validate-diagonal", "yd", "yd-v4-s3-diagonal", stdout_has=("result: PASS",)),
        _braid("braid-diagonal-2", "yd-v4-s3-diagonal", "yd-v4-s3-diagonal",
               stdout_has=("result: PASS",)),
        _braid("braid-diagonal-3", "yd-v4-s3-diagonal", "yd-v4-s3-diagonal",
               "yd-v4-s3-diagonal", stdout_has=("result: PASS",)),
        _construct("tensor-s3", "yd-tensor", "yd-crossed-s3", "yd-crossed-s3"),
        _construct("conjugate-power", "yd-conjugate", "yd-diagonal-power", grade="g"),
        _construct("sum-power", "direct-sum", "yd-diagonal-power", "yd-trivial"),
        _validate("validate-s3-quasi", "yd", "yd-crossed-s3-quasi", stdout_has=("result: PASS",)),
        _braid("braid-s3-3", "yd-crossed-s3", "yd-crossed-s3", "yd-crossed-s3",
               stdout_has=("result: PASS",)),
        _braid("braid-quasi", "yd-crossed-s3-quasi", "yd-crossed-s3", expect_exit=3,
               stderr_has=("quasimodules",)),
    )),
    "gf7": Workload("gf7", (
        _validate("validate-o16", "hq", "gf7-hq-o16", stdout_has=LOOP_VERDICT),
        _validate("validate-chein24", "hq", "gf7-hq-chein24", stdout_has=LOOP_VERDICT),
        _validate("validate-mirror", "gchq", "gf7-gchq-v4-s3-mirror", stdout_has=("result: PASS",)),
        _braid("braid-diagonal-2", "gf7-yd-v4-s3-diagonal", "gf7-yd-v4-s3-diagonal",
               stdout_has=("result: PASS",)),
        _braid("braid-diagonal-3", "gf7-yd-v4-s3-diagonal", "gf7-yd-v4-s3-diagonal",
               "gf7-yd-v4-s3-diagonal", stdout_has=("result: PASS",)),
        _construct("tensor-s3", "yd-tensor", "gf7-yd-crossed-s3", "gf7-yd-crossed-s3"),
    )),
    # seconds-long self-test workload on the C2/C3 fixtures; not in BENCHMARK.json
    "smoke": Workload("smoke", (
        _validate("validate-c2", "hq", "hq-c2", stdout_has=GROUP_VERDICT),
        _validate("validate-c3", "hq", "hq-c3", stdout_has=GROUP_VERDICT),
        _construct("loop-algebra-c3", "loop-algebra", "table-c3"),
        _validate("validate-power", "gchq", "gchq-power", stdout_has=("result: PASS",)),
        _braid("braid-diagonal-power", "yd-diagonal-power", "yd-diagonal-power",
               json=True, stdout_has=("result: PASS",)),
        _construct("sum-power", "direct-sum", "yd-diagonal-power", "yd-trivial"),
    )),
}
