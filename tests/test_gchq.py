"""Crossed group-cograded structures: validators, power construction, mirror."""

import re
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid.errors import (
    ActionNotHopfAutomorphism,
    InvalidInput,
    MalformedStructure,
)
from quasibraid.exactlin import LegMap, LinMap, PrimeField, QQ
from quasibraid.fixtures import build as build_fixture, gchq_power as build_gchq_power
from quasibraid.gchq import (
    CrossedGCHQ,
    mirror,
    power_construction,
    validate_crossed,
    validate_crossing,
    validate_gchq,
)
from quasibraid.hq import (
    HopfQuasigroup, from_hopf_quasigroup, group_algebra, validate_hopf_quasigroup,
)
from quasibraid.report import family_witnesses
from quasibraid.tables import GroupAction, GroupTable
from crosschecks import sweedler_spot_check
from test_segment_classes import v4_crossed_by_s3, v4_crossed_by_s4


def both_validators_pass(h):
    rep = validate_gchq(h)
    if not rep.passed:
        return False, rep
    rep2 = validate_crossing(h)
    return rep2.passed, rep2


def test_trivial_embedding_passes(gchq_trivial_c2):
    ok, _ = both_validators_pass(gchq_trivial_c2)
    assert ok


def test_trivial_embedding_of_nonassociative(hq_o16):
    h = from_hopf_quasigroup(hq_o16)
    assert validate_gchq(h).passed
    assert validate_crossing(h).passed


def test_from_hopf_quasigroup_rejects_invalid(hq_c2):
    zero = LinMap.zero_map(QQ, hq_c2.labels, hq_c2.labels)
    from quasibraid.hq import HopfQuasigroup

    broken = HopfQuasigroup(QQ, hq_c2.algebra, hq_c2.comult, hq_c2.counit, zero)
    with pytest.raises(InvalidInput):
        from_hopf_quasigroup(broken)


def test_power_construction_passes_both_validators(gchq_power):
    assert validate_gchq(gchq_power).passed
    assert validate_crossing(gchq_power).passed


def test_power_comultiplication_is_diagonal_on_group_likes(hq_c2):
    # trivial action of C2 on k[C2]: the copied comultiplication stays group-like
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(2))
    h = power_construction(hq_c2, action)
    n = 2
    for p in h.grades():
        for q in h.grades():
            delta = h.comult[(p, q)]
            assert delta.entries == {(g * n + g, g): QQ.one for g in range(n)}
    assert validate_gchq(h).passed and validate_crossing(h).passed


def test_power_crossing_is_the_action_permutation(gchq_power):
    flip = 1
    for q in gchq_power.grades():
        pi = gchq_power.crossing[(flip, q)]
        assert pi.entries == {(0, 0): QQ.one, (2, 1): QQ.one, (1, 2): QQ.one}


def test_power_rejects_non_automorphism(hq_c3):
    c2 = GroupTable.cyclic(2)
    c3 = GroupTable.cyclic(3)
    # the flip map does not fix the identity element, so it cannot commute
    # with the structure maps
    bad = GroupAction(c2, c3, [(0, 1, 2), (1, 0, 2)])
    with pytest.raises(ActionNotHopfAutomorphism) as err:
        power_construction(hq_c3, bad)
    assert "preserve" in str(err.value)


def test_power_rejects_wrong_dimension(hq_c2):
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(3))
    with pytest.raises(ActionNotHopfAutomorphism):
        power_construction(hq_c2, action)


def test_mirror_of_trivially_graded_equals_input(gchq_trivial_c2):
    assert mirror(gchq_trivial_c2) == gchq_trivial_c2


def _fixture(name, field):
    return lambda: build_fixture(name, field)[1]


#: name -> builder of a valid crossed structure, each a mirror input
MIRROR_INPUTS = {
    **{
        f"{name}-{field.name}": _fixture(name, field)
        for name in ("gchq-trivial-c2", "gchq-s3", "gchq-power", "gchq-power-mirror")
        for field in (QQ, PrimeField(7))
    },
    "v4-by-s3-Q": v4_crossed_by_s3,
    "v4-by-s3-GF:7": lambda: v4_crossed_by_s3(PrimeField(7)),
    "v4-by-s4-Q": v4_crossed_by_s4,
}


@pytest.mark.parametrize("name", list(MIRROR_INPUTS))
def test_mirror_of_power_passes_both_validators(name):
    """mirror checks only its input; on every valid input its result
    passes validate_crossed, and mirroring twice gives the input back."""
    h = MIRROR_INPUTS[name]()
    m = mirror(h)
    assert validate_crossed(m).passed
    assert mirror(m) == h


def test_mirror_antipode_formula_on_power(gchq_power):
    """On a power construction the mirrored antipode is the action applied
    after the original antipode: S~_p(x) = p(S(x)) as a basis map."""
    from quasibraid.fixtures import inversion_on_c3

    action = inversion_on_c3()
    m = mirror(gchq_power)
    n = 3
    s_perm = [0, 2, 1]  # inversion on C3: x -> x^-1
    for p in m.grades():
        expected = {
            (action.maps[p][s_perm[x]], x): QQ.one for x in range(n)
        }
        assert m.antipode[p].entries == expected


def test_mirror_with_trivial_crossing_reindexes_comult(hq_c2):
    # abelian grading and identity crossing: the mirror comultiplication is
    # the original one at inverted grades
    action = GroupAction.trivial(GroupTable.cyclic(2), GroupTable.cyclic(2))
    h = power_construction(hq_c2, action)
    m = mirror(h)
    for p in h.grades():
        for q in h.grades():
            assert m.comult[(p, q)].same_entries(
                h.comult[(h.inv(p), h.inv(q))]
            )


def test_mirror_rejects_invalid_input(gchq_power):
    broken = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        gchq_power.comult,
        gchq_power.counit,
        {p: LinMap.zero_map(QQ, m.cod, m.dom) for p, m in gchq_power.antipode.items()},
        gchq_power.crossing,
    )
    with pytest.raises(InvalidInput):
        mirror(broken)


def test_zeroed_comult_fails_counit_axiom(gchq_power):
    target = (0, 1)
    mutated = {
        key: (LinMap.zero_map(QQ, m.cod, m.dom) if key == target else m)
        for key, m in gchq_power.comult.items()
    }
    mutant = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        mutated,
        gchq_power.counit,
        gchq_power.antipode,
        gchq_power.crossing,
    )
    rep = validate_gchq(mutant)
    assert not rep.passed
    assert "GHQ-3.2-counit-left" in rep.failed_ids()
    check = rep.find("GHQ-3.2-counit-left")
    assert check is not None


def test_scaled_crossing_fails_morphism_check(gchq_power):
    pi = gchq_power.crossing[(1, 0)]
    scaled = pi.scale(2)
    mutated = dict(gchq_power.crossing)
    mutated[(1, 0)] = scaled
    mutant = CrossedGCHQ(
        gchq_power.field,
        gchq_power.grading,
        gchq_power.components,
        gchq_power.comult,
        gchq_power.counit,
        gchq_power.antipode,
        mutated,
    )
    assert validate_gchq(mutant).passed  # crossing untouched by the base axioms
    rep = validate_crossing(mutant)
    assert not rep.passed
    assert "CROSS-pi-multiplicative" in rep.failed_ids() or "CROSS-pi-unit" in rep.failed_ids()


@pytest.mark.parametrize(
    "table", [[[0, 5], [1, 0]], [[0, -1], [1, 0]]], ids=["past-the-end", "negative"]
)
def test_grading_entries_outside_the_group_rejected(gchq_power, table):
    """A grading table entry outside [0, |G|) is not read as an index:
    5 is not an IndexError and -1 is not H_1 read from the end."""
    grading = GroupTable(gchq_power.grading.labels, table)
    with pytest.raises(MalformedStructure, match=r"^grading table entry outside \[0, 2\)$"):
        CrossedGCHQ(
            gchq_power.field,
            grading,
            gchq_power.components,
            gchq_power.comult,
            gchq_power.counit,
            gchq_power.antipode,
            gchq_power.crossing,
        )


def test_malformed_shapes_rejected(gchq_power):
    bad_comult = dict(gchq_power.comult)
    bad_comult[(0, 1)] = LinMap.identity(QQ, gchq_power.comp(0).labels)
    with pytest.raises(MalformedStructure):
        CrossedGCHQ(
            gchq_power.field,
            gchq_power.grading,
            gchq_power.components,
            bad_comult,
            gchq_power.counit,
            gchq_power.antipode,
            gchq_power.crossing,
        )


def test_sweedler_spot_check_agrees(gchq_trivial_c2, gchq_power):
    assert sweedler_spot_check(gchq_trivial_c2).passed
    rep = sweedler_spot_check(gchq_power)
    assert rep.passed
    assert len(rep.checks) == 18  # every (grade, basis pair) fits in the sample budget


def test_validators_on_s3_base(gchq_s3):
    assert validate_gchq(gchq_s3).passed
    assert validate_crossing(gchq_s3).passed


def test_unreduced_gf_entries_give_the_reduced_verdict():
    """A crossing whose GF(7) entries are written as v + 7 is the same
    crossing: LinMap reduces them, so CROSS-identity and every other
    check read it as the reduced one."""
    gf7 = PrimeField(7)
    h = build_gchq_power(gf7)
    shifted = {
        key: LinMap(gf7, m.rows, m.cols, {k: v + 7 for k, v in m.entries.items()}, m.dom, m.cod)
        for key, m in h.crossing.items()
    }
    moved = CrossedGCHQ(
        gf7, h.grading, h.components, h.comult, h.counit, h.antipode, shifted
    )
    assert moved == h
    assert validate_crossing(moved).render() == validate_crossing(h).render()


def first_failing_law(h, action):
    """The error power_construction gives for action, found as it once was:
    one pair of Chains per actor and law, actor by actor; None if every
    actor passes."""
    L = h.graded.legs
    H, mu, eta, delta, eps, s = L.H[0], L.mu[0], L.eta[0], L.delta[(0, 0)], L.eps, L.s[0]
    k, h1, h2 = L.chain(), L.chain(0), L.chain(0, 0)
    for g, perm in enumerate(action.maps):
        t = LegMap(LinMap.from_permutation(h.field, perm, h.labels), H, H)
        for name, lhs, rhs in [
            ("multiplication", h2.then(mu).then(t), h2.then(t, t).then(mu)),
            ("unit", k.then(eta).then(t), k.then(eta)),
            ("comultiplication", h1.then(t).then(delta), h1.then(delta).then(t, t)),
            ("counit", h1.then(t).then(eps), h1.then(eps)),
            ("antipode", h1.then(t).then(s), h1.then(s).then(t)),
        ]:
            if family_witnesses(lhs, rhs) != [None]:
                return f"actor {action.actor.labels[g]} does not preserve the {name}"
    return None


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_power_rejects_the_first_failing_actor_and_law(data):
    """Each automorphism law is one family over the actors; the error names
    the first actor that fails a law, and the first law it fails, as the
    per-actor checks did.  Actions are drawn from automorphisms of the
    carrier group and arbitrary permutations, on k[V4] or on k[V4] with
    a counit or antipode that an automorphism need not preserve, so the
    first failing law is the multiplication, the counit or the antipode."""
    actor = data.draw(st.sampled_from([GroupTable.cyclic(2), GroupTable.symmetric(3)]))
    carrier = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))
    automorphisms = [(0,) + p for p in permutations((1, 2, 3))]
    perms = st.sampled_from(automorphisms) | st.permutations(range(4)).map(tuple)
    maps = [(0, 1, 2, 3)] + [data.draw(perms) for _ in range(actor.order - 1)]
    action = GroupAction(actor, carrier, maps)
    h = group_algebra(carrier, data.draw(st.sampled_from([QQ, PrimeField(5)])))
    counit, antipode = h.counit, h.antipode
    if data.draw(st.booleans()):
        counit = LinMap(h.field, 1, 4, {(0, 0): 1, (0, data.draw(st.integers(1, 3))): 2},
                        h.labels, h.counit.cod)
    if data.draw(st.booleans()):
        perm = data.draw(st.sampled_from(automorphisms))
        antipode = LinMap.from_permutation(h.field, perm, h.labels)
    h = HopfQuasigroup(h.field, h.algebra, h.comult, counit, antipode)
    want = first_failing_law(h, action)
    if want is None:
        power_construction(h, action)
    else:
        with pytest.raises(ActionNotHopfAutomorphism, match=f"^{re.escape(want)}$"):
            power_construction(h, action)
