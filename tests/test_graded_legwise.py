"""Chain-based crossed-structure and YD validators against a matrix reference.

The reference below is the composed-matrix pipeline that validate_gchq,
validate_crossing and validate_yd used before they were restated as
Chains: every side is a LinMap built with kron, compose and leg_perm and
compared with map_witness.  It lives only here, as an independent
cross-check; the library has one path.  Reports must agree in render()
and to_jobj(), so failing witnesses are compared, not just verdicts.

reference_crossed_equivalence states the crossed condition in the same
way in its three equivalent forms, the plain law and two rewrites
through the inverse antipode, and reports whether they agree in verdict.
No verdict needs it, so it is the tests' only form of that check; a
singular antipode stops it with AntipodeNotInvertible.  On every yd
fixture and mutant its plain law must read as validate_yd's, and its
forms through the inverse antipode must pass at the same grades.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from quasibraid import fixtures
from quasibraid.errors import NotInvertible, QuasibraidError
from quasibraid.exactlin import K_LABELS, LinMap, PrimeField, QQ, kron, kron_all, leg_perm
from quasibraid.gchq import CrossedGCHQ, validate_crossing, validate_gchq
from quasibraid.report import Report
from quasibraid import tables
from quasibraid.yd import YDModule, validate_yd
from test_braid_legwise import ANTIPODE_MUTANT, MUTANTS, build_mutant

GF7 = PrimeField(7)


# -- matrix reference -----------------------------------------------------------


def reference_gchq(h):
    field = h.field
    rep = Report(f"crossed structure (|G|={h.grading.order}, {field.name})")
    rep.merge(tables.validate_group(h.grading))
    if not rep.passed:
        return rep

    idents = [LinMap.identity(field, h.comp(p).labels) for p in h.grades()]
    mus = [h.comp(p).mult_map() for p in h.grades()]
    etas = [h.comp(p).unit_map() for p in h.grades()]
    eps = h.counit
    one_k = LinMap.identity(field, K_LABELS)
    e = 0

    for p in h.grades():
        tag = h.grade_label(p)
        rep.add_map_equality(
            "GHQ-component-unit-left", mus[p] @ kron(etas[p], idents[p]), idents[p],
            detail=f"grade {tag}",
        )
        rep.add_map_equality(
            "GHQ-component-unit-right", mus[p] @ kron(idents[p], etas[p]), idents[p],
            detail=f"grade {tag}",
        )

    for p in h.grades():
        for q in h.grades():
            pq = h.mul(p, q)
            delta = h.comult[(p, q)]
            mu_pair = kron(mus[p], mus[q]) @ leg_perm(
                field,
                [h.comp(p).labels, h.comp(q).labels, h.comp(p).labels, h.comp(q).labels],
                (0, 2, 1, 3),
            )
            tag = f"grades ({h.grade_label(p)},{h.grade_label(q)})"
            rep.add_map_equality(
                "GHQ-delta-multiplicative", delta @ mus[pq], mu_pair @ kron(delta, delta),
                detail=tag,
            )
            rep.add_map_equality(
                "GHQ-delta-unit", delta @ etas[pq], kron(etas[p], etas[q]), detail=tag
            )

    rep.add_map_equality("GHQ-epsilon-multiplicative", eps @ mus[e], kron(eps, eps))
    rep.add_map_equality("GHQ-epsilon-unit", eps @ etas[e], one_k)

    for p in h.grades():
        for q in h.grades():
            for r in h.grades():
                lhs = kron(h.comult[(p, q)], idents[r]) @ h.comult[(h.mul(p, q), r)]
                rhs = kron(idents[p], h.comult[(q, r)]) @ h.comult[(p, h.mul(q, r))]
                rep.add_map_equality(
                    "GHQ-3.1-coassoc", lhs, rhs,
                    detail=f"grades ({h.grade_label(p)},{h.grade_label(q)},{h.grade_label(r)})",
                )

    for p in h.grades():
        tag = h.grade_label(p)
        rep.add_map_equality(
            "GHQ-3.2-counit-right", kron(idents[p], eps) @ h.comult[(p, e)], idents[p],
            detail=f"grade {tag}",
        )
        rep.add_map_equality(
            "GHQ-3.2-counit-left", kron(eps, idents[p]) @ h.comult[(e, p)], idents[p],
            detail=f"grade {tag}",
        )

    for p in h.grades():
        pi_ = h.inv(p)
        tag = h.grade_label(p)
        s = h.antipode[pi_]
        left_shape = mus[p] @ kron(idents[p], mus[p])
        right_shape = mus[p] @ kron(mus[p], idents[p])
        eps_i = kron(eps, idents[p])
        i_eps = kron(idents[p], eps)
        rep.add_map_equality(
            "GHQ-3.3-left",
            left_shape @ kron_all(s, idents[p], idents[p]) @ kron(h.comult[(pi_, p)], idents[p]),
            eps_i,
            detail=f"grade {tag}",
        )
        rep.add_map_equality(
            "GHQ-3.3-right",
            left_shape @ kron_all(idents[p], s, idents[p]) @ kron(h.comult[(p, pi_)], idents[p]),
            eps_i,
            detail=f"grade {tag}",
        )
        rep.add_map_equality(
            "GHQ-3.4-left",
            right_shape @ kron_all(idents[p], idents[p], s) @ kron(idents[p], h.comult[(p, pi_)]),
            i_eps,
            detail=f"grade {tag}",
        )
        rep.add_map_equality(
            "GHQ-3.4-right",
            right_shape @ kron_all(idents[p], s, idents[p]) @ kron(idents[p], h.comult[(pi_, p)]),
            i_eps,
            detail=f"grade {tag}",
        )

    for p in h.grades():
        pi_ = h.inv(p)
        tag = h.grade_label(p)
        s = h.antipode[p]
        swap = leg_perm(field, [h.comp(p).labels, h.comp(p).labels], (1, 0))
        rep.add_map_equality(
            "GHQ-antipode-antimultiplicative", s @ mus[p], mus[pi_] @ kron(s, s) @ swap,
            detail=f"grade {tag}",
        )
        rep.add_map_equality("GHQ-antipode-unit", s @ etas[p], etas[pi_], detail=f"grade {tag}")

    for p in h.grades():
        try:
            h.antipode[p].invert()
            ok, note = True, ""
        except NotInvertible as exc:
            ok, note = False, f"rank {exc.rank}"
        rep.add(
            "GHQ-antipode-bijective",
            ok,
            detail=f"grade {h.grade_label(p)}" + (f": {note}" if note else ""),
        )
    return rep


def reference_crossing(h):
    field = h.field
    rep = Report(f"crossing (|G|={h.grading.order}, {field.name})")
    idents = [LinMap.identity(field, h.comp(p).labels) for p in h.grades()]
    mus = [h.comp(p).mult_map() for p in h.grades()]
    etas = [h.comp(p).unit_map() for p in h.grades()]
    e = 0

    for p in h.grades():
        for q in h.grades():
            pi = h.crossing[(p, q)]
            target = h.conj(p, q)
            tag = f"pi_{h.grade_label(p)} on grade {h.grade_label(q)}"
            try:
                pi.invert()
                ok, note = True, ""
            except NotInvertible as exc:
                ok, note = False, f"rank {exc.rank}"
            rep.add("CROSS-pi-bijective", ok, detail=tag + (f": {note}" if note else ""))
            rep.add_map_equality(
                "CROSS-pi-multiplicative", pi @ mus[q], mus[target] @ kron(pi, pi), detail=tag
            )
            rep.add_map_equality("CROSS-pi-unit", pi @ etas[q], etas[target], detail=tag)

    for p in h.grades():
        rep.add_map_equality(
            "CROSS-3.7-counit", h.counit @ h.crossing[(p, e)], h.counit,
            detail=f"pi_{h.grade_label(p)}",
        )

    for p in h.grades():
        for q in h.grades():
            lhs = h.crossing[(p, h.inv(q))] @ h.antipode[q]
            rhs = h.antipode[h.conj(p, q)] @ h.crossing[(p, q)]
            rep.add_map_equality(
                "CROSS-3.8-antipode", lhs, rhs,
                detail=f"pi_{h.grade_label(p)} on grade {h.grade_label(q)}",
            )

    for p in h.grades():
        for q in h.grades():
            for r in h.grades():
                lhs = kron(h.crossing[(p, q)], h.crossing[(p, r)]) @ h.comult[(q, r)]
                rhs = h.comult[(h.conj(p, q), h.conj(p, r))] @ h.crossing[(p, h.mul(q, r))]
                rep.add_map_equality(
                    "CROSS-3.9-comult", lhs, rhs,
                    detail=f"pi_{h.grade_label(p)} on grades ({h.grade_label(q)},{h.grade_label(r)})",
                )

    for p in h.grades():
        for q in h.grades():
            for r in h.grades():
                lhs = h.crossing[(h.mul(p, q), r)]
                rhs = h.crossing[(p, h.conj(q, r))] @ h.crossing[(q, r)]
                rep.add_map_equality(
                    "CROSS-multiplicative", lhs, rhs,
                    detail=f"pi_{h.grade_label(p)}pi_{h.grade_label(q)} on grade {h.grade_label(r)}",
                )

    for q in h.grades():
        rep.add_map_equality(
            "CROSS-identity", h.crossing[(e, q)], idents[q], detail=f"grade {h.grade_label(q)}"
        )
    return rep


def reference_crossed_sides(v, r):
    base = v.base
    field = base.field
    p = v.grade
    comp_p = base.comp(p)
    comp_r = base.comp(r)
    mu_r = comp_r.mult_map()
    i_v = v.ident()
    lhs = (
        kron(v.action, mu_r)
        @ leg_perm(field, [comp_p.labels, comp_r.labels, v.labels, comp_r.labels], (0, 2, 1, 3))
        @ kron(base.comult[(p, r)], v.coaction[r])
    )
    g1 = base.conj(p, r)
    comp_g1 = base.comp(g1)
    i_g1 = LinMap.identity(field, comp_g1.labels)
    i_r = LinMap.identity(field, comp_r.labels)
    twist = base.crossing[(base.inv(p), g1)]
    rhs = (
        kron(i_v, mu_r @ kron(i_r, twist))
        @ leg_perm(field, [comp_g1.labels, v.labels, comp_r.labels], (1, 2, 0))
        @ kron(i_g1, v.coaction[r])
        @ kron(i_g1, v.action)
        @ kron(base.comult[(g1, p)], i_v)
    )
    return lhs, rhs


def reference_yd(v):
    base = v.base
    field = base.field
    p = v.grade
    rep = Report(
        f"yd {'module' if v.strict else 'quasimodule'} "
        f"(grade {base.grade_label(p)}, dim {v.dim})"
    )
    comp_p = base.comp(p)
    pi_ = base.inv(p)
    mu_p = comp_p.mult_map()
    eta_p = comp_p.unit_map()
    s = base.antipode[pi_]
    i_p = LinMap.identity(field, comp_p.labels)
    i_v = v.ident()
    eps = base.counit

    rep.add_map_equality("YD-4.3-unital", v.action @ kron(eta_p, i_v), i_v)
    quasi_shape = v.action @ kron(i_p, v.action)
    eps_i = kron(eps, i_v)
    rep.add_map_equality(
        "YD-4.4-left",
        quasi_shape @ kron_all(s, i_p, i_v) @ kron(base.comult[(pi_, p)], i_v),
        eps_i,
    )
    rep.add_map_equality(
        "YD-4.4-right",
        quasi_shape @ kron_all(i_p, s, i_v) @ kron(base.comult[(p, pi_)], i_v),
        eps_i,
    )
    rep.add_map_equality(
        "YD-4.1-module-assoc",
        quasi_shape,
        v.action @ kron(mu_p, i_v),
        required=v.strict,
        detail="required for strict modules",
    )

    for r1 in base.grades():
        for r2 in base.grades():
            i_r2 = LinMap.identity(field, base.comp(r2).labels)
            rep.add_map_equality(
                "YD-coassoc",
                kron(v.coaction[r1], i_r2) @ v.coaction[r2],
                kron(i_v, base.comult[(r1, r2)]) @ v.coaction[base.mul(r1, r2)],
                detail=f"grades ({base.grade_label(r1)},{base.grade_label(r2)})",
            )

    rep.add_map_equality("YD-counit", kron(i_v, eps) @ v.coaction[0], i_v)

    for r in base.grades():
        lhs, rhs = reference_crossed_sides(v, r)
        rep.add_map_equality(
            "YD-4.5-crossed", lhs, rhs, detail=f"coaction grade {base.grade_label(r)}"
        )

    for r in base.grades():
        comp_r = base.comp(r)
        mu_r = comp_r.mult_map()
        i_r = LinMap.identity(field, comp_r.labels)
        spread = kron_all(v.coaction[r], i_r, i_r)
        rep.add_map_equality(
            "YD-4.6-coassoc-right",
            kron(i_v, mu_r) @ kron_all(i_v, i_r, mu_r) @ spread,
            kron(i_v, mu_r) @ kron_all(i_v, mu_r, i_r) @ spread,
            detail=f"grade {base.grade_label(r)}",
        )
        shuffled = (
            leg_perm(field, [v.labels, comp_r.labels, comp_r.labels, comp_r.labels], (0, 2, 1, 3))
            @ spread
        )
        rep.add_map_equality(
            "YD-4.7-coassoc-mixed",
            kron(i_v, mu_r) @ kron_all(i_v, mu_r, i_r) @ shuffled,
            kron(i_v, mu_r) @ kron_all(i_v, i_r, mu_r) @ shuffled,
            detail=f"grade {base.grade_label(r)}",
        )
    return rep


class AntipodeNotInvertible(QuasibraidError):
    """A check needs the inverse antipode but some component is singular."""


def reference_crossed_equivalence(v):
    """Evaluate the three equivalent forms of the crossed condition
    independently and confirm they agree in verdict: on any one structure
    all three pass or all three fail, and a divergence fails
    YD-4.8-equivalence itself."""
    base = v.base
    field = base.field
    p = v.grade
    comp_p = base.comp(p)
    i_v = v.ident()
    i_p = LinMap.identity(field, comp_p.labels)

    s_inverse = {}
    for r in base.grades():
        try:
            s_inverse[r] = base.antipode[r].invert()
        except NotInvertible as exc:
            raise AntipodeNotInvertible(
                f"antipode at grade {base.grade_label(r)} has rank {exc.rank}"
            ) from exc

    rep = Report(f"crossed condition equivalence (grade {base.grade_label(p)})")
    verdicts = {}
    ok = True
    for r in base.grades():
        lhs, rhs = reference_crossed_sides(v, r)
        check = rep.add_map_equality(
            "YD-4.5-crossed", lhs, rhs, detail=f"coaction grade {base.grade_label(r)}"
        )
        ok = ok and check.passed
    verdicts["YD-4.5-crossed"] = ok

    for form in ("YD-4.8-crossed", "YD-4.9-crossed"):
        ok = True
        for r in base.grades():
            comp_r = base.comp(r)
            mu_r = comp_r.mult_map()
            i_r = LinMap.identity(field, comp_r.labels)
            g2 = base.conj(p, base.inv(r))
            comp_g2 = base.comp(g2)
            i_g2 = LinMap.identity(field, comp_g2.labels)
            legs3 = kron(base.comult[(g2, p)], i_r) @ base.comult[(base.mul(p, base.inv(r)), r)]
            lhs = v.coaction[r] @ v.action
            twist = s_inverse[r] @ base.crossing[(base.inv(p), g2)]
            spread = (
                leg_perm(
                    field,
                    [comp_g2.labels, comp_p.labels, comp_r.labels, v.labels, comp_r.labels],
                    (1, 3, 2, 4, 0),
                )
                @ kron_all(i_g2, i_p, i_r, v.coaction[r])
                @ kron(legs3, i_v)
            )
            if form == "YD-4.8-crossed":
                rhs = kron(i_v, mu_r) @ kron_all(v.action, mu_r, twist) @ spread
            else:
                rhs = (
                    kron(i_v, mu_r)
                    @ kron_all(i_v, i_r, mu_r)
                    @ kron_all(v.action, i_r, i_r, twist)
                    @ spread
                )
            check = rep.add_map_equality(
                form, lhs, rhs, detail=f"coaction grade {base.grade_label(r)}"
            )
            ok = ok and check.passed
        verdicts[form] = ok

    values = set(verdicts.values())
    rep.add(
        "YD-4.8-equivalence",
        len(values) == 1,
        detail=(
            "all three crossed forms agree"
            if len(values) == 1
            else "EQUIVALENCE VIOLATED: "
            + ", ".join(f"{k}={'pass' if ok else 'fail'}" for k, ok in verdicts.items())
        ),
    )
    return rep


# -- comparison -------------------------------------------------------------------


def assert_same(got, want):
    assert got.render() == want.render()
    assert got.to_jobj() == want.to_jobj()


def assert_same_gchq_reports(h):
    assert_same(validate_gchq(h), reference_gchq(h))
    assert_same(validate_crossing(h), reference_crossing(h))


def assert_same_yd_reports(v):
    assert_same(validate_yd(v), reference_yd(v))


# -- inputs -----------------------------------------------------------------------

GCHQ_FIXTURES = ["gchq-trivial-c2", "gchq-s3", "gchq-power", "gchq-power-mirror"]
YD_FIXTURES = ["yd-trivial", "yd-crossed-s3", "yd-crossed-s3-quasi", "yd-diagonal-power"]


def perturbed(m, key, value):
    entries = dict(m.entries)
    entries[key] = value
    return LinMap(m.field, m.rows, m.cols, entries, m.dom, m.cod)


def half(field):
    """1/2 over Q (a non-integral witness value), 4 over GF(7)."""
    return field.div(field.one, field.scalar(2))


def with_maps(h, **maps):
    parts = dict(
        comult=h.comult, counit=h.counit, antipode=h.antipode, crossing=h.crossing
    )
    parts.update(maps)
    return CrossedGCHQ(
        h.field, h.grading, h.components,
        parts["comult"], parts["counit"], parts["antipode"], parts["crossing"],
    )


def mutate_in_dict(h, part, key, entry, value):
    maps = dict(getattr(h, part))
    maps[key] = perturbed(maps[key], entry, value)
    return with_maps(h, **{part: maps})


GCHQ_MUTANTS = {
    "comult-entry": lambda h, x: mutate_in_dict(h, "comult", (1, 1), (0, 0), x),
    "comult-off-diagonal": lambda h, x: mutate_in_dict(h, "comult", (0, 1), (1, 2), x),
    "antipode-entry": lambda h, x: mutate_in_dict(h, "antipode", 1, (0, 0), x),
    "antipode-zero": lambda h, x: mutate_in_dict(h, "antipode", 0, (0, 0), h.field.zero),
    "counit-entry": lambda h, x: with_maps(h, counit=perturbed(h.counit, (0, 1), x)),
    "crossing-entry": lambda h, x: mutate_in_dict(h, "crossing", (1, 1), (2, 1), x),
    "crossing-identity-entry": lambda h, x: mutate_in_dict(h, "crossing", (0, 1), (1, 1), x),
}


def with_module_maps(v, action=None, coaction=None):
    return YDModule(
        v.base, v.grade, v.labels,
        v.action if action is None else action,
        v.coaction if coaction is None else coaction,
        v.strict,
    )


def mutate_coaction(v, r, entry, value):
    coaction = dict(v.coaction)
    coaction[r] = perturbed(coaction[r], entry, value)
    return with_module_maps(v, coaction=coaction)


YD_MUTANTS = {
    "action-entry": lambda v, x: with_module_maps(v, action=perturbed(v.action, (0, 1), x)),
    "action-last-entry": lambda v, x: with_module_maps(
        v, action=perturbed(v.action, (v.dim - 1, v.action.cols - 1), x)
    ),
    "coaction-entry": lambda v, x: mutate_coaction(v, 0, (1, 0), x),
    "coaction-last-grade": lambda v, x: mutate_coaction(
        v, v.base.grading.order - 1, (0, 0), x
    ),
}


# -- differential tests ---------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", GCHQ_FIXTURES)
def test_gchq_validators_match_matrix_reference(name, field):
    _, h = fixtures.build(name, field)
    assert validate_gchq(h).passed and validate_crossing(h).passed
    assert_same_gchq_reports(h)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", YD_FIXTURES)
def test_yd_validators_match_matrix_reference(name, field):
    _, v = fixtures.build(name, field)
    assert_same_yd_reports(v)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", ["gchq-power", "gchq-power-mirror"])
@pytest.mark.parametrize("mutant", list(GCHQ_MUTANTS))
def test_gchq_validators_match_matrix_reference_on_mutants(mutant, name, field):
    _, h = fixtures.build(name, field)
    h = GCHQ_MUTANTS[mutant](h, half(field))
    assert not (validate_gchq(h).passed and validate_crossing(h).passed)
    assert_same_gchq_reports(h)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("name", ["yd-diagonal-power", "yd-crossed-s3", "yd-trivial"])
@pytest.mark.parametrize("mutant", list(YD_MUTANTS))
def test_yd_validators_match_matrix_reference_on_mutants(mutant, name, field):
    _, v = fixtures.build(name, field)
    v = YD_MUTANTS[mutant](v, half(field))
    assert not validate_yd(v).passed
    assert_same_yd_reports(v)


def test_yd_validators_match_matrix_reference_over_a_mutated_base():
    """A module over a base whose crossing is broken: YD-4.5 and its
    inverse-antipode forms see the twist."""
    v = fixtures.yd_diagonal_power()
    base = GCHQ_MUTANTS["crossing-entry"](v.base, half(QQ))
    moved = YDModule(base, v.grade, v.labels, v.action, v.coaction, v.strict)
    assert_same_yd_reports(moved)


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
@pytest.mark.parametrize("spec", YD_FIXTURES + [ANTIPODE_MUTANT] + MUTANTS)
def test_crossed_equivalence_reads_the_plain_law_as_validate_yd(spec, field):
    """On every yd fixture and on module and base mutants, the crossed
    equivalence states YD-4.5-crossed as validate_yd does, failing
    witnesses included, and its two forms through the inverse antipode
    pass at the same coaction grades as the plain law; only the mutated
    antipode makes them diverge, and so fail YD-4.8-equivalence."""
    v = fixtures.build(spec, field)[1] if spec in YD_FIXTURES else build_mutant(spec, field)
    rep = reference_crossed_equivalence(v)
    forms = {
        form: [c for c in rep.checks if c.check_id == form]
        for form in ("YD-4.5-crossed", "YD-4.8-crossed", "YD-4.9-crossed")
    }
    plain = [c for c in validate_yd(v).checks if c.check_id == "YD-4.5-crossed"]
    assert forms["YD-4.5-crossed"] == plain
    grades_passing = {tuple(c.passed for c in checks) for checks in forms.values()}
    agree = spec != ANTIPODE_MUTANT
    assert (len(grades_passing) == 1) == agree
    assert rep.find("YD-4.8-equivalence").passed == agree


@st.composite
def perturbed_power_structures(draw):
    """gchq-power or its mirror with one entry of one structure map changed."""
    field = draw(st.sampled_from([QQ, GF7]))
    h = fixtures.build(draw(st.sampled_from(["gchq-power", "gchq-power-mirror"])), field)[1]
    value = field.scalar(draw(st.integers(min_value=-2, max_value=3)))
    part = draw(st.sampled_from(["comult", "counit", "antipode", "crossing"]))
    if part == "counit":
        m = h.counit
        entry = (0, draw(st.integers(0, m.cols - 1)))
        return with_maps(h, counit=perturbed(m, entry, value))
    key = draw(st.sampled_from(sorted(getattr(h, part))))
    m = getattr(h, part)[key]
    entry = (draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1)))
    return mutate_in_dict(h, part, key, entry, value)


@settings(max_examples=40, deadline=None)
@given(perturbed_power_structures())
def test_gchq_validators_match_matrix_reference_on_random_mutants(h):
    assert_same_gchq_reports(h)
