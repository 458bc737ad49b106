"""Laws decided as families over their grade tuples, against the per-check
path they replaced.

validate_gchq, validate_crossing and validate_yd state each law over all
its grade tuples once, as two families of Chains with one segment per
tuple, and record each law as one row of the report.  The reference below
states every tuple's check as its own pair of one-segment Chains, decides
it with family_witnesses of that one segment and records it as a Check at
once (add_check), in a report that keeps a list of Checks (EagerReport),
as the validators did before; it lives only here.  Reports must agree in
their Checks, render(), to_jobj(), verdicts, failed IDs and lookups, so
witnesses, details and order are compared, not just verdicts; also after
merging rows into a report of single checks and the reverse.  Also
here: mutants failing in chosen segments of a family, a kill for
GHQ-epsilon-unit, guards that the number of Chains a validation, a yd law
suite or conjugation coherence builds does not grow with the group and
that no Check is built until one is read, the bounded witness search
against the unbounded one, and families that factor the same spaces into
different legs against map_witness.
"""

from fractions import Fraction
from functools import partial
from itertools import product
from operator import le

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin, fixtures
from quasibraid.exactlin import Chain, LegMap, LinMap, PrimeField, QQ, product_labels
from quasibraid.errors import NotInvertible
from quasibraid.gchq import (
    CrossedGCHQ, legs_labels, map_legs, mirror, validate_crossed, validate_crossing,
    validate_gchq,
)
from quasibraid.hq import UnitalAlgebra
from quasibraid.report import (
    AXIOM_LEGEND, Check, Report, Witness, _smallest_difference, family_witnesses, map_witness,
)
from quasibraid import tables
from quasibraid.yd import (
    YDModule, check_braiding_laws, conjugation_coherence, diagonal_module, module_legs,
    validate_morphism, validate_yd, yd_direct_sum,
)
from test_exactlin import v4_crossed_by_s3

GF7 = PrimeField(7)
GCHQ_FIXTURES = sorted(name for name, (kind, _) in fixtures.REGISTRY.items() if kind == "gchq")
YD_FIXTURES = sorted(name for name, (kind, _) in fixtures.REGISTRY.items() if kind == "yd")


# -- the per-check reference ------------------------------------------------------


class EagerReport:
    """The report as it was before rows: a list with a Check built for each
    check as it is recorded, read by every verdict and writer."""

    def __init__(self, subject):
        self.subject = subject
        self.checks = []

    def add(self, check_id, passed, required=True, witness=None, detail=""):
        self.checks.append(Check(check_id, bool(passed), required, witness, detail))
        return self.checks[-1]

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.required)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed_ids(self, include_informational=False):
        return [
            c.check_id
            for c in self.checks
            if not c.passed and (c.required or include_informational)
        ]

    def find(self, check_id):
        return next((c for c in self.checks if c.check_id == check_id), None)

    def render(self):
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            line = f"{'PASS' if c.passed else 'FAIL'}{'' if c.required else ' [info]'} {c.check_id}"
            if c.detail:
                line += f" ({c.detail})"
            if c.witness is not None and not c.passed:
                line += "  " + c.witness.describe()
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_jobj(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "passed": c.passed,
                    "required": c.required,
                    "detail": c.detail,
                    "witness": None if c.witness is None else c.witness.to_jobj(),
                }
                for c in self.checks
            ],
        }

    def __repr__(self):
        n_fail = len([c for c in self.checks if not c.passed])
        return f"Report({self.subject!r}, {len(self.checks)} checks, {n_fail} failing)"


def add_check(rep, check_id, lhs, rhs, required=True, detail=""):
    """Decide one check stated as two Chains of one segment and record it
    at once (rep.add), on an EagerReport or a Report."""
    (witness,) = family_witnesses(lhs, rhs)
    return rep.add(check_id, witness is None, required, witness, detail)


def reference_hq_laws(h):
    """hq_laws one grade tuple at a time: (check ID, detail, lhs, rhs)."""
    L = h.legs
    chain, mu, eta, i, s, delta, eps = L.chain, L.mu, L.eta, L.ident, L.s, L.delta, L.eps
    tag, k, e = h.grade_label, L.chain(), 0

    for p in h.grades():
        hp, detail = chain(p), f"grade {tag(p)}"
        yield "GHQ-component-unit-left", detail, hp.then(eta[p], i[p]).then(mu[p]), hp
        yield "GHQ-component-unit-right", detail, hp.then(i[p], eta[p]).then(mu[p]), hp

    for p, q in product(h.grades(), repeat=2):
        pq, d, detail = h.mul(p, q), delta[(p, q)], f"grades ({tag(p)},{tag(q)})"
        lhs = chain(pq, pq).then(mu[pq]).then(d)
        rhs = chain(pq, pq).then(d, d).permute(0, 2, 1, 3).then(mu[p], mu[q])
        yield "GHQ-delta-multiplicative", detail, lhs, rhs
        yield "GHQ-delta-unit", detail, k.then(eta[pq]).then(d), k.then(eta[p], eta[q])

    ee = chain(e, e)
    yield "GHQ-epsilon-multiplicative", "", ee.then(mu[e]).then(eps), ee.then(eps, eps)
    yield "GHQ-epsilon-unit", "", k.then(eta[e]).then(eps), k

    for p, q, r in product(h.grades(), repeat=3):
        pq, qr = h.mul(p, q), h.mul(q, r)
        lhs = chain(h.mul(pq, r)).then(delta[(pq, r)]).then(delta[(p, q)], i[r])
        rhs = chain(h.mul(p, qr)).then(delta[(p, qr)]).then(i[p], delta[(q, r)])
        yield "GHQ-3.1-coassoc", f"grades ({tag(p)},{tag(q)},{tag(r)})", lhs, rhs

    for p in h.grades():
        hp, detail = chain(p), f"grade {tag(p)}"
        yield "GHQ-3.2-counit-right", detail, hp.then(delta[(p, e)]).then(i[p], eps), hp
        yield "GHQ-3.2-counit-left", detail, hp.then(delta[(e, p)]).then(eps, i[p]), hp

    for p in h.grades():
        pi_, m, ip, detail = h.inv(p), mu[p], i[p], f"grade {tag(p)}"
        sp = s[pi_]
        eps_i, i_eps = chain(e, p).then(eps, ip), chain(p, e).then(ip, eps)
        left = chain(e, p).then(delta[(pi_, p)], ip).then(sp, ip, ip).then(ip, m).then(m)
        right = chain(e, p).then(delta[(p, pi_)], ip).then(ip, sp, ip).then(ip, m).then(m)
        yield "GHQ-3.3-left", detail, left, eps_i
        yield "GHQ-3.3-right", detail, right, eps_i
        left = chain(p, e).then(ip, delta[(p, pi_)]).then(ip, ip, sp).then(m, ip).then(m)
        right = chain(p, e).then(ip, delta[(pi_, p)]).then(ip, sp, ip).then(m, ip).then(m)
        yield "GHQ-3.4-left", detail, left, i_eps
        yield "GHQ-3.4-right", detail, right, i_eps

    for p in h.grades():
        pp, detail = chain(p, p), f"grade {tag(p)}"
        rhs = pp.permute(1, 0).then(s[p], s[p]).then(mu[h.inv(p)])
        yield "GHQ-antipode-antimultiplicative", detail, pp.then(mu[p]).then(s[p]), rhs
        yield "GHQ-antipode-unit", detail, k.then(eta[p]).then(s[p]), k.then(eta[h.inv(p)])


def bijectivity(m, detail):
    try:
        m.invert()
        return True, detail
    except NotInvertible as exc:
        return False, f"{detail}: rank {exc.rank}"


def reference_gchq(h, report=EagerReport):
    rep = report(f"crossed structure (|G|={h.grading.order}, {h.field.name})")
    rep.merge(tables.validate_group(h.grading))
    if not rep.passed:
        return rep
    for check_id, detail, lhs, rhs in reference_hq_laws(h):
        add_check(rep, check_id, lhs, rhs, detail=detail)
    for p in h.grades():
        ok, detail = bijectivity(h.antipode[p], f"grade {h.grade_label(p)}")
        rep.add("GHQ-antipode-bijective", ok, detail=detail)
    return rep


def reference_crossing(h, report=EagerReport):
    rep = report(f"crossing (|G|={h.grading.order}, {h.field.name})")
    L = h.legs
    chain, mu, eta, s, delta, pi, eps = L.chain, L.mu, L.eta, L.s, L.delta, L.pi, L.eps
    eq, tag, k, e = partial(add_check, rep), h.grade_label, L.chain(), 0

    for p, q in product(h.grades(), repeat=2):
        t, x, detail = h.conj(p, q), pi[(p, q)], f"pi_{tag(p)} on grade {tag(q)}"
        ok, noted = bijectivity(h.crossing[(p, q)], detail)
        rep.add("CROSS-pi-bijective", ok, detail=noted)
        rhs = chain(q, q).then(x, x).then(mu[t])
        eq("CROSS-pi-multiplicative", chain(q, q).then(mu[q]).then(x), rhs, detail=detail)
        eq("CROSS-pi-unit", k.then(eta[q]).then(x), k.then(eta[t]), detail=detail)

    for p in h.grades():
        he = chain(e)
        eq("CROSS-3.7-counit", he.then(pi[(p, e)]).then(eps), he.then(eps), detail=f"pi_{tag(p)}")

    for p, q in product(h.grades(), repeat=2):
        lhs = chain(q).then(s[q]).then(pi[(p, h.inv(q))])
        rhs = chain(q).then(pi[(p, q)]).then(s[h.conj(p, q)])
        eq("CROSS-3.8-antipode", lhs, rhs, detail=f"pi_{tag(p)} on grade {tag(q)}")

    for p, q, r in product(h.grades(), repeat=3):
        qr = h.mul(q, r)
        lhs = chain(qr).then(delta[(q, r)]).then(pi[(p, q)], pi[(p, r)])
        rhs = chain(qr).then(pi[(p, qr)]).then(delta[(h.conj(p, q), h.conj(p, r))])
        eq("CROSS-3.9-comult", lhs, rhs, detail=f"pi_{tag(p)} on grades ({tag(q)},{tag(r)})")

    for p, q, r in product(h.grades(), repeat=3):
        lhs = chain(r).then(pi[(h.mul(p, q), r)])
        rhs = chain(r).then(pi[(q, r)]).then(pi[(p, h.conj(q, r))])
        eq("CROSS-multiplicative", lhs, rhs, detail=f"pi_{tag(p)}pi_{tag(q)} on grade {tag(r)}")

    for q in h.grades():
        eq("CROSS-identity", chain(q).then(pi[(e, q)]), chain(q), detail=f"grade {tag(q)}")
    return rep


def reference_crossed(h):
    rep = reference_gchq(h)
    if rep.passed:
        rep.merge(reference_crossing(h))
    return rep


def assert_merges_read_as_eager(h):
    """validate_gchq and validate_crossing of h, merged each way round with
    the reference's checks recorded one by one (Report.add), and merged into
    an EagerReport, read as the two eager references merged."""
    want = reference_gchq(h).merge(reference_crossing(h))
    assert_same(reference_gchq(h, Report).merge(validate_crossing(h)), want)
    assert_same(validate_gchq(h).merge(reference_crossing(h, Report)), want)
    assert_same(validate_gchq(h).merge(validate_crossing(h)), want)
    assert_same(reference_gchq(h).merge(validate_crossing(h)), want)


def reference_crossed_sides(v, r):
    base, p = v.base, v.grade
    L, V, act, rho, i_v = v.legs
    g1 = base.conj(p, r)
    start = Chain(base.field, L.H[base.mul(p, r)] + V)
    lhs = start.then(L.delta[(p, r)], rho[r]).permute(0, 2, 1, 3).then(act, L.mu[r])
    twisted = start.then(L.delta[(g1, p)], i_v).then(L.ident[g1], act).then(L.ident[g1], rho[r])
    twisted = twisted.permute(1, 2, 0).then(i_v, L.ident[r], L.pi[(base.inv(p), g1)])
    return lhs, twisted.then(i_v, L.mu[r])


def reference_yd(v):
    base, p = v.base, v.grade
    rep = EagerReport(
        f"yd {'module' if v.strict else 'quasimodule'} "
        f"(grade {base.grade_label(p)}, dim {v.dim})"
    )
    L, V, act, rho, i_v = v.legs
    H, mu, i, s, delta, eps = L.H, L.mu, L.ident, L.s, L.delta, L.eps
    eq, tag, pi_, e = partial(add_check, rep), base.grade_label, base.inv(p), 0
    hv, ev = Chain(base.field, V), Chain(base.field, H[e] + V)

    eq("YD-4.3-unital", hv.then(L.eta[p], i_v).then(act), hv)
    eps_i = ev.then(eps, i_v)
    left = ev.then(delta[(pi_, p)], i_v).then(s[pi_], i[p], i_v)
    right = ev.then(delta[(p, pi_)], i_v).then(i[p], s[pi_], i_v)
    eq("YD-4.4-left", left.then(i[p], act).then(act), eps_i)
    eq("YD-4.4-right", right.then(i[p], act).then(act), eps_i)
    ppv = Chain(base.field, L.H[p] * 2 + V)
    eq(
        "YD-4.1-module-assoc", ppv.then(L.ident[p], act).then(act),
        ppv.then(L.mu[p], i_v).then(act), required=v.strict, detail="required for strict modules",
    )
    for r1 in base.grades():
        for r2 in base.grades():
            lhs = hv.then(rho[r2]).then(rho[r1], i[r2])
            rhs = hv.then(rho[base.mul(r1, r2)]).then(i_v, delta[(r1, r2)])
            eq("YD-coassoc", lhs, rhs, detail=f"grades ({tag(r1)},{tag(r2)})")
    eq("YD-counit", hv.then(rho[e]).then(i_v, eps), hv)
    for r in base.grades():
        lhs, rhs = reference_crossed_sides(v, r)
        eq("YD-4.5-crossed", lhs, rhs, detail=f"coaction grade {tag(r)}")
    for r in base.grades():
        m, ir, detail = mu[r], i[r], f"grade {tag(r)}"
        spread = Chain(base.field, V + H[r] * 2).then(rho[r], ir, ir)
        lhs, rhs = spread.then(i_v, ir, m).then(i_v, m), spread.then(i_v, m, ir).then(i_v, m)
        eq("YD-4.6-coassoc-right", lhs, rhs, detail=detail)
        shuffled = spread.permute(0, 2, 1, 3)
        lhs, rhs = shuffled.then(i_v, m, ir).then(i_v, m), shuffled.then(i_v, ir, m).then(i_v, m)
        eq("YD-4.7-coassoc-mixed", lhs, rhs, detail=detail)
    return rep


def assert_same(got, want):
    """got, a report of rows, reads as want does: the same Checks, rendered
    and JSON forms, verdicts, failed IDs, lookups and summary."""
    assert got.checks == want.checks
    assert got.render() == want.render()
    assert got.to_jobj() == want.to_jobj()
    assert (got.passed, got.all_passed) == (want.passed, want.all_passed)
    for informational in (False, True):
        assert got.failed_ids(informational) == want.failed_ids(informational)
    for check_id in [*AXIOM_LEGEND, "no such check"]:
        assert got.find(check_id) == want.find(check_id)
    assert repr(got) == repr(want)


# -- structures and their mutants -----------------------------------------------------

_BUILT = {}


def built(name, field):
    """A fixture, built once per field."""
    if (name, field) not in _BUILT:
        _BUILT[(name, field)] = fixtures.build(name, field)[1]
    return _BUILT[(name, field)]


def perturbed(m, entry, value):
    entries = dict(m.entries)
    entries[entry] = value
    return LinMap(m.field, m.rows, m.cols, entries, m.dom, m.cod)


def with_maps(h, **maps):
    parts = dict(comult=h.comult, counit=h.counit, antipode=h.antipode, crossing=h.crossing)
    parts.update(maps)
    return CrossedGCHQ(
        h.field, h.grading, h.components,
        parts["comult"], parts["counit"], parts["antipode"], parts["crossing"],
    )


def mutated(h, part, key, entry, value):
    """h with one entry of one structure map set to value."""
    if part == "counit":
        return with_maps(h, counit=perturbed(h.counit, entry, value))
    maps = dict(getattr(h, part))
    maps[key] = perturbed(maps[key], entry, value)
    return with_maps(h, **{part: maps})


def values(field):
    """Entries that keep, cancel, double or break a 0/1 structure constant,
    and a non-integral one over Q."""
    return st.sampled_from([0, 1, 2, -1] + ([Fraction(1, 2)] if field == QQ else []))


@st.composite
def gchq_mutants(draw):
    """A gchq fixture over Q or GF(7), unchanged or with one entry of one
    structure map changed."""
    field = draw(st.sampled_from([QQ, GF7]))
    h = built(draw(st.sampled_from(GCHQ_FIXTURES)), field)
    part = draw(st.sampled_from([None, "comult", "counit", "antipode", "crossing"]))
    if part is None:
        return h
    key = None if part == "counit" else draw(st.sampled_from(sorted(getattr(h, part))))
    m = h.counit if part == "counit" else getattr(h, part)[key]
    entry = (draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1)))
    return mutated(h, part, key, entry, field.scalar(draw(values(field))))


@st.composite
def yd_mutants(draw):
    """A yd fixture over Q or GF(7), unchanged or with one entry of its
    action or of one coaction changed."""
    field = draw(st.sampled_from([QQ, GF7]))
    v = built(draw(st.sampled_from(YD_FIXTURES)), field)
    part = draw(st.sampled_from([None, "action", "coaction"]))
    if part is None:
        return v
    value = field.scalar(draw(values(field)))
    action, coaction = v.action, dict(v.coaction)
    if part == "action":
        entry = (draw(st.integers(0, action.rows - 1)), draw(st.integers(0, action.cols - 1)))
        action = perturbed(action, entry, value)
    else:
        r = draw(st.sampled_from(sorted(coaction)))
        m = coaction[r]
        coaction[r] = perturbed(m, (draw(st.integers(0, m.rows - 1)), 0), value)
    return YDModule(v.base, v.grade, v.labels, action, coaction, v.strict)


# -- the differential tests -----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(gchq_mutants(), st.sampled_from([1, 3, 5, 16, 1024]))
def test_crossed_families_match_the_per_check_path(h, block):
    """Families over every grade tuple, with blocks that cut through
    segments, hold several or one, give the per-check reports."""
    saved = exactlin.BLOCK
    exactlin.BLOCK = block
    try:
        got = validate_crossed(h)
        assert_merges_read_as_eager(h)
    finally:
        exactlin.BLOCK = saved
    assert_same(got, reference_crossed(h))


@settings(max_examples=60, deadline=None)
@given(yd_mutants(), st.sampled_from([1, 3, 5, 16, 1024]))
def test_yd_families_match_the_per_check_path(v, block):
    saved = exactlin.BLOCK
    exactlin.BLOCK = block
    try:
        got = validate_yd(v)
    finally:
        exactlin.BLOCK = saved
    assert_same(got, reference_yd(v))


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", GCHQ_FIXTURES + YD_FIXTURES)
def test_every_fixture_matches_the_per_check_path(name, field):
    kind, h = fixtures.build(name, field)
    if kind == "gchq":
        assert_same(validate_crossed(h), reference_crossed(h))
        assert_merges_read_as_eager(h)
    else:
        assert_same(validate_yd(h), reference_yd(h))


# -- mutants failing in chosen segments ------------------------------------------------

V4_S3 = v4_crossed_by_s3()  # |G| = 6: 6, 36 and 216 grade tuples


def failing_details(rep, check_id):
    return [c.detail for c in rep.checks if c.check_id == check_id and not c.passed]


@pytest.mark.parametrize("pair", [(0, 0), (2, 3), (5, 5)], ids=["first", "middle", "last"])
def test_a_comult_mutant_fails_delta_unit_in_its_own_segment(pair):
    """Delta_{p,q} eta_{pq} = eta_p (x) eta_q at the pair (p, q) reads no
    other comultiplication, so doubling Delta_{p,q} on the unit fails
    GHQ-delta-unit in the segment of (p, q) alone: the first, the 16th of
    36 or the last."""
    h = mutated(V4_S3, "comult", pair, (0, 0), 2)
    rep = validate_gchq(h)
    tag = h.grade_label
    assert failing_details(rep, "GHQ-delta-unit") == [f"grades ({tag(pair[0])},{tag(pair[1])})"]
    assert_same(rep, reference_gchq(h))


@pytest.mark.parametrize("grade", [0, 3, 5], ids=["first", "middle", "last"])
def test_a_crossing_mutant_fails_crossing_identity_in_its_own_segment(grade):
    """pi_{e} on grade q is the identity for each q on its own, so a
    rescaled column of pi_{e,q} fails CROSS-identity at q alone."""
    h = mutated(V4_S3, "crossing", (0, grade), (1, 1), 3)
    rep = validate_crossed(h)
    assert failing_details(rep, "CROSS-identity") == [f"grade {h.grade_label(grade)}"]
    assert_same(rep, reference_crossed(h))


def test_a_counit_mutant_kills_ghq_epsilon_unit():
    """eps(1_e) = 1: doubling the counit on the unit of H_e fails
    GHQ-epsilon-unit (never failed by any test before)."""
    h = fixtures.gchq_power()
    unit = h.comp(0).unit.index(h.field.one)
    rep = validate_gchq(mutated(h, "counit", None, (0, unit), 2))
    assert "GHQ-epsilon-unit" in rep.failed_ids()
    assert rep.find("GHQ-epsilon-unit").witness == Witness((), (), "2", "1")


# -- structural guard ------------------------------------------------------------------


def chains_built(monkeypatch, h):
    """The Chains validate_crossed builds on h (chains_built_by) and the
    number of its checks."""
    h.legs  # built once per structure, outside the count
    count, rep = chains_built_by(monkeypatch, validate_crossed, h)
    return count, len(rep.checks)


def chains_built_by(monkeypatch, fn, *args):
    """The number of Chains fn(*args) builds, new ones (Chain._start,
    through which Chain() and Chain.family() begin) and extended ones
    (Chain._extend) alike, and its report, which must pass."""
    calls = []
    start, extend = Chain._start, Chain._extend

    def counted_start(self, *args, **kwargs):
        calls.append("start")
        start(self, *args, **kwargs)

    def counted_extend(self, *args, **kwargs):
        calls.append("extend")
        return extend(self, *args, **kwargs)

    monkeypatch.setattr(Chain, "_start", counted_start)
    monkeypatch.setattr(Chain, "_extend", counted_extend)
    rep = fn(*args)
    monkeypatch.undo()
    assert rep.passed
    return len(calls), rep


def test_no_check_is_built_until_one_is_read(monkeypatch):
    """The validators record rows and mirror reads only their verdicts, so
    mirror, which validates its input and output, builds no Check; a
    report builds one per check when its checks are read."""
    mirrored = mirror(V4_S3)
    built = []
    new = Check.__new__

    def counted(cls, *args):
        built.append(args[0])
        return new(cls, *args)

    monkeypatch.setattr(Check, "__new__", counted)
    mirror(fixtures.gchq_power())
    assert built == []
    rep = validate_crossed(mirrored)
    assert rep.passed and rep.failed_ids(True) == [] and rep.render() and rep.to_jobj()
    assert built == []
    assert len(rep.checks) == 948 and len(built) == 948
    assert rep.find("CROSS-identity").detail == "grade e" and len(built) == 949


def test_chains_built_do_not_grow_with_the_group(monkeypatch):
    """Each law is one pair of families whatever |G| is, so gchq-power
    (|G| = 2) and k[V4] crossed by S3 (|G| = 6) build the same number of
    Chains for their 80 and 948 checks."""
    small, small_checks = chains_built(monkeypatch, fixtures.gchq_power())
    large, large_checks = chains_built(monkeypatch, V4_S3)
    assert (small_checks, large_checks) == (80, 948)
    assert small == large


def test_yd_law_suites_build_the_same_chains_at_any_group(monkeypatch):
    """The braiding laws and morphism laws state each law over grades as
    one pair of families, so the diagonal modules over gchq-power
    (|G| = 2) and k[V4] crossed by S3 (|G| = 6) build the same number of
    Chains; stated one grade at a time they built 103 and 139, and 14 and
    30."""
    counts = []
    for v in (fixtures.build("yd-diagonal-power")[1], diagonal_module(V4_S3)):
        inclusion = yd_direct_sum(v, v)[1]
        counts.append([
            chains_built_by(monkeypatch, check_braiding_laws, v, v, v)[0],
            chains_built_by(monkeypatch, validate_morphism, inclusion)[0],
        ])
    assert counts[0] == counts[1]
    assert all(map(le, counts[0], [95, 10]))


def test_conjugation_coherence_builds_the_same_chains_at_any_group(monkeypatch):
    """Conjugation coherence compares the regradings of V, of each V^t and
    of V (x) W, and the tensors of regradings, as families over every pair
    (s, t), building only V (x) W and the regradings of V and W; so the
    diagonal modules over gchq-power (|G| = 2) and k[V4] crossed by S3
    (|G| = 6) build the same number of Chains.  Building every module it
    compared took 66 and 146."""
    counts = [
        chains_built_by(monkeypatch, conjugation_coherence, v, v)[0]
        for v in (fixtures.build("yd-diagonal-power")[1], diagonal_module(V4_S3))
    ]
    assert counts[0] == counts[1] <= 47


def test_a_chain_is_the_family_of_one_segment():
    """Chain(field, legs) and Chain.family(field, stacks of one leg) are
    one representation: same stages, same legs, same blocks, same matrix; a
    family of several segments has no single matrix."""
    A, B = (("a0",), ("a1",)), (("b0",), ("b1",), ("b2",))
    f = exactlin.LegMap(LinMap.identity(QQ, A).scale(3), (A,), (A,))
    g = exactlin.LegMap(LinMap.identity(QQ, B).scale(2), (B,), (B,))
    plain = Chain(QQ, (A, B)).permute(1, 0).then(g, f)
    # a factor given as a sequence of one map serves the one segment
    family = Chain.family(QQ, [(A,), (B,)]).permute(1, 0).then([g], [f])
    assert family.segments == plain.segments == 1
    assert family.stages == plain.stages
    assert family.segment_legs(0) == plain.segment_legs(0) == ((A, B), (B, A))
    assert family.block(range(6)) == plain.block(range(6))
    assert family.matrix() == plain.matrix()
    two = Chain.family(QQ, [(A, A), (B, B)])
    assert two.segments == 2 and two.cols == 12
    with pytest.raises(exactlin.DomainMismatch):
        two.matrix()


def test_a_signature_label_check_still_rejects_a_mislabelled_map():
    """LegMap compares a map with the labels a signature carries instead of
    rebuilding them, and still rejects a map labelled otherwise."""
    h = fixtures.gchq_power()
    dom_legs, cod_legs, dom, cod = h.signature["comult"][(0, 1)]
    assert exactlin.LegMap(h.comult[(0, 1)], dom_legs, cod_legs, dom, cod).map is h.comult[(0, 1)]
    with pytest.raises(exactlin.DomainMismatch):
        exactlin.LegMap(h.comult[(1, 0)], dom_legs, cod_legs, dom, cod)


# -- the bounded witness search --------------------------------------------------------


def unbounded_first_difference(field, a, b, lo, hi):
    """The smallest (row, col) in row-major order, among columns lo..hi-1,
    where two frontiers (Chain.block) differ, read entry by entry as
    {(row, col): scalar}, with its two scalars; None if they agree."""
    sides = []
    for cols, rows, scalars in (a, b):
        cols = range(len(rows)) if cols is None else cols
        scalars = [field.one] * len(rows) if scalars is None else scalars
        sides.append({(r, c): v for c, r, v in zip(cols, rows, scalars) if lo <= c < hi})
    x, y = sides
    zero = field.zero
    differ = sorted(k for k in x.keys() | y.keys() if x.get(k, zero) != y.get(k, zero))
    if not differ:
        return None
    row, col = differ[0]
    return row, col, x.get((row, col), zero), y.get((row, col), zero)


@st.composite
def frontiers(draw, field, size, rows):
    """A frontier of size columns in a codomain of rows rows: one position
    per column with no lists, or per column a few (position, nonzero
    scalar) entries, the scalar list absent when every scalar is one."""
    if draw(st.booleans()):
        return None, draw(st.lists(st.integers(0, rows - 1), min_size=size, max_size=size)), None
    unit = draw(st.booleans())
    scalar = st.just(field.one) if unit else st.sampled_from([field.one, 2, 3])
    cols, positions, scalars = [], [], []
    for c in range(size):
        for r, v in sorted(draw(st.dictionaries(st.integers(0, rows - 1), scalar, max_size=3)).items()):
            cols.append(c)
            positions.append(r)
            scalars.append(v)
    return cols, positions, None if unit else scalars


@st.composite
def block_pairs(draw):
    """Two frontiers of one block, a range of its columns and a bound."""
    field = draw(st.sampled_from([QQ, GF7]))
    size, rows = draw(st.integers(1, 40)), draw(st.integers(1, 12))
    a, b = draw(frontiers(field, size, rows)), draw(frontiers(field, size, rows))
    lo = draw(st.integers(0, size - 1))
    hi = draw(st.integers(lo + 1, size))
    return field, a, b, lo, hi, size, draw(st.integers(0, rows + 1))


@settings(max_examples=400, deadline=None)
@given(block_pairs())
def test_bounded_search_finds_the_unbounded_witness_below_the_bound(case):
    """Under a bound the search returns the unbounded search's witness when
    its row is below the bound, and nothing otherwise; without one, the
    same witness; on frontiers with and without column and scalar lists."""
    field, a, b, lo, hi, size, below = case
    want = unbounded_first_difference(field, a, b, lo, hi)
    assert _smallest_difference(field, a, b, lo, hi, size, None) == want
    assert _smallest_difference(field, a, b, lo, hi, size, (below,)) == (
        want if want is not None and want[0] < below else None
    )


# -- families whose segments differ in size ------------------------------------------


@st.composite
def uneven_structures(draw):
    """A crossed structure over C2 whose components have different
    dimensions (so the segments of a family differ in size), with maps of
    the right shapes and a few random entries each, monomial or not, and a
    module over it: a valid structure is not needed to compare the two
    paths, every failure carries a witness."""
    field = draw(st.sampled_from([QQ, GF7]))
    grading = tables.GroupTable.cyclic(2)
    dims = draw(st.sampled_from([(1, 2), (2, 3), (3, 2)]))
    entry = st.sampled_from([0, 1, 1, 2, -1])

    def matrix(rows, cols, dom, cod):
        entries = {
            (draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))):
                field.scalar(draw(entry))
            for _ in range(draw(st.integers(0, rows + cols)))
        }
        return LinMap(field, rows, cols, entries, dom, cod)

    components = []
    for p, n in enumerate(dims):
        labels = tuple((f"{'eg'[p]}{i}",) for i in range(n))
        mult = {(i, j, (i + j) % n): field.one for i in range(n) for j in range(n)}
        unit = [field.one] + [field.zero] * (n - 1)
        components.append(UnitalAlgebra(field, n, labels, mult, unit))
    signature = map_legs(grading, components)
    maps = {
        family: {
            key: matrix(len(cod), len(dom), dom, cod)
            for key, (dom, cod) in ((key, legs_labels(legs)) for key, legs in keyed.items())
        }
        for family, keyed in signature.items()
    }
    h = CrossedGCHQ(
        field, grading, components, maps["comult"], maps["counit"][None],
        maps["antipode"], maps["crossing"],
    )
    grade = draw(st.integers(0, 1))
    labels = (("v0",), ("v1",))
    legs = module_legs(h, grade, labels)
    action = matrix(2, 2 * dims[grade], *legs_labels(legs["action"][None]))
    coaction = {r: matrix(2 * dims[r], 2, *legs_labels(pair)) for r, pair in legs["coaction"].items()}
    return h, YDModule(h, grade, labels, action, coaction, draw(st.booleans()))


@settings(max_examples=60, deadline=None)
@given(uneven_structures(), st.sampled_from([1, 4, 1024]))
def test_families_of_uneven_segments_match_the_per_check_path(case, block):
    h, v = case
    saved = exactlin.BLOCK
    exactlin.BLOCK = block
    try:
        got = validate_gchq(h), validate_crossing(h), validate_yd(v)
    finally:
        exactlin.BLOCK = saved
    for rep, want in zip(got, (reference_gchq(h), reference_crossing(h), reference_yd(v))):
        assert_same(rep, want)


# -- families that factor the same spaces into different legs ------------------------


def basis(prefix, n):
    return tuple((f"{prefix}{i}",) for i in range(n))


def test_family_witnesses_need_the_same_segment_sizes():
    """Two families are compared segment by segment on flat positions, so
    they need the same segments, each with the same domain and codomain
    size on both sides; the same totals are not enough."""
    A, B = basis("a", 2), basis("b", 3)
    with pytest.raises(ValueError):  # segments of sizes 2, 3 against 3, 2
        family_witnesses(Chain.family(QQ, [(A, B)]), Chain.family(QQ, [(B, A)]))
    with pytest.raises(ValueError):  # one segment against two
        family_witnesses(Chain(QQ, (A,)), Chain.family(QQ, [(A, A)]))
    to_b = LegMap(LinMap(QQ, 3, 2, {(0, 0): QQ.one}, A, B), (A,), (B,))
    with pytest.raises(ValueError):  # the same domain, codomains of sizes 3 and 2
        family_witnesses(Chain(QQ, (A,)).then(to_b), Chain(QQ, (A,)))


@st.composite
def flipping_maps(draw):
    """A field and two lists of maps V (x) W -> W (x) V, dim V = 2 and
    dim W = 3, labelled as products; a few random entries each, so columns
    with several entries (off the monomial path) come up too."""
    field = draw(st.sampled_from([QQ, GF7]))
    V, W = basis("v", 2), basis("w", 3)
    dom, cod = product_labels((V, W)), product_labels((W, V))
    segments = draw(st.integers(1, 3))
    maps = []
    for _ in range(2 * segments):
        entries = {
            (draw(st.integers(0, 5)), draw(st.integers(0, 5))):
                field.scalar(draw(st.sampled_from([1, 1, 2, -1])))
            for _ in range(draw(st.integers(0, 9)))
        }
        maps.append(LinMap(field, 6, 6, entries, dom, cod))
    return field, V, W, maps[:segments], maps[segments:]


@settings(max_examples=150, deadline=None)
@given(flipping_maps(), st.sampled_from([1, 4, 1024]))
def test_a_map_read_on_factor_legs_or_on_their_product_gives_map_witness(case, block):
    """The witness of each segment of a family read on the legs (V, W) ->
    (W, V) against one read on the single legs V (x) W -> W (x) V, either
    way round, is map_witness of the segment's two maps: a witness reads
    flat positions, and labels that concatenate across legs."""
    field, V, W, fs, gs = case
    VW, WV = product_labels((V, W)), product_labels((W, V))
    k = len(fs)
    factored = Chain.family(field, [[V] * k, [W] * k])
    whole = Chain.family(field, [[VW] * k])
    saved = exactlin.BLOCK
    exactlin.BLOCK = block
    try:
        on_legs = factored.then([LegMap(f, (V, W), (W, V)) for f in fs])
        on_product = whole.then([LegMap(g, (VW,), (WV,)) for g in gs])
        got = family_witnesses(on_legs, on_product)
        flipped = family_witnesses(
            whole.then([LegMap(f, (VW,), (WV,)) for f in fs]),
            factored.then([LegMap(g, (V, W), (W, V)) for g in gs]),
        )
    finally:
        exactlin.BLOCK = saved
    want = list(map(map_witness, fs, gs))
    assert got == flipped == want
