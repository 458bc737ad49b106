"""Laws decided once per class of segments that act alike.

A Stack keeps its distinct LegMaps, distinct by what they do to
positions, and one small int per segment.  The segments of a law family
fall into classes by the maps and sizes that every stage of both sides
reads on them (exactlin.segment_classes); report.family_witnesses and
Chain.matrices evaluate one segment of each class, and every segment
takes its class's verdict and witness position, labelled with its own
legs.  Here:

- the guard that a Stack of K references to D maps keeps D maps and K
  indices, and that maps which differ only in their labels are one;
- a spy on the block evaluator: hq_laws evaluates 135 of its 2,075
  columns on V4 crossed by S3 (every segment of a family in one class)
  and 785 on its mirror;
- one-entry mutants of a comultiplication, crossing or antipode, which
  split a class, against the per-check reference of test_law_families;
- a scale pin: the digests of the reports on k[V4] crossed by S4
  (45,246 checks), on its mirror and on two mutants, recorded before
  evaluation by classes, and each conjugate of S4 computed once for them;
- the zero-cancellation branch of crosschecks._component_product.
"""

import hashlib
import json
from array import array
from itertools import permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin, tables
from quasibraid.exactlin import QQ, Chain, LegMap, LinMap, PrimeField, Stack, default_labels
from quasibraid.gchq import hq_laws, mirror, power_construction
from quasibraid.gchq import validate_crossed
from quasibraid.hq import group_algebra
from quasibraid.report import law_checks
from quasibraid.tables import GroupAction, GroupTable, validate_action
from crosschecks import _component_product
from test_law_families import assert_same, mutated, reference_crossed, values

GF7 = PrimeField(7)


def v4():
    return GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))


def v4_crossed_by_s3(field=QQ):
    """k[V4] with S3 permuting its three involutions, through the power
    construction (test_exactlin.v4_crossed_by_s3 over any field)."""
    maps = [[0] + [p[k] + 1 for k in range(3)] for p in sorted(permutations(range(3)))]
    action = GroupAction(GroupTable.symmetric(3), v4(), maps)
    return power_construction(group_algebra(v4(), field), action)


def s4_on_v4():
    """S4 acting on the three involutions of V4 through its action on the
    three pairings of {0, 1, 2, 3}: involution k is the pairing that puts
    0 with k."""
    points = frozenset(range(4))
    pairings = [frozenset([frozenset({0, k}), points - {0, k}]) for k in (1, 2, 3)]
    maps = []
    for p in sorted(permutations(range(4))):
        moved = [frozenset(frozenset(p[x] for x in block) for block in pair) for pair in pairings]
        maps.append([0] + [pairings.index(pair) + 1 for pair in moved])
    return GroupAction(GroupTable.symmetric(4), v4(), maps)


def v4_crossed_by_s4():
    """k[V4] crossed by S4 (|G| = 24) through the power construction."""
    return power_construction(group_algebra(v4(), QQ), s4_on_v4())


# -- the indexed Stack ------------------------------------------------------------


def permutation_map(perm, labels):
    return LegMap(LinMap.from_permutation(QQ, perm, labels), (labels,), (labels,))


def test_a_stack_keeps_its_distinct_maps_and_one_index_per_segment():
    """K references to D maps that act differently are D maps and an
    array of K indices, each segment reading its own map; maps that differ
    only in their labels act alike and are one map, each segment keeping
    its own labels."""
    labels = default_labels(3, "x")
    maps = [permutation_map(perm, labels) for perm in permutations(range(3))]  # D = 6
    order = [(7 * k) % 6 for k in range(50)]  # K = 50
    stack = Stack([maps[i] for i in order])
    assert len(stack.maps) == 6 and len(stack) == 50
    assert type(stack.index) is array and len(stack.index) == 50
    assert [stack.maps[i].dest for i in stack.index] == [maps[i].dest for i in order]

    relabelled = [default_labels(3, prefix) for prefix in "abc"]
    copies = [permutation_map((1, 2, 0), legs) for legs in relabelled]
    stack = Stack(copies * 4)
    assert len(stack.maps) == 1 and len(stack.index) == 12 and stack.alike is not None
    family = Chain.family(QQ, [relabelled * 4]).then(stack)
    assert [family.segment_legs(k)[1] for k in range(3)] == [(legs,) for legs in relabelled]


def test_a_boundary_that_fails_in_one_segment_is_refused():
    """The legs a factor meets are checked on every segment: a stack whose
    last segment's map reads other labels than the chain puts there does
    not fit."""
    labels, other = default_labels(3, "x"), default_labels(3, "y")
    good, bad = permutation_map((1, 2, 0), labels), permutation_map((1, 2, 0), other)
    chain = Chain.family(QQ, [[labels] * 5])
    assert chain.then(Stack([good] * 5)).segments == 5
    with pytest.raises(exactlin.DomainMismatch):
        chain.then(Stack([good] * 4 + [bad]))


# -- the columns a law evaluates ----------------------------------------------------


def kernel_columns(monkeypatch, h):
    """(columns pushed through a stage, columns of the laws) over every
    law of hq_laws(h): a block's two sides share its list of columns, so
    each list counts once, if a side has a stage."""
    h.legs
    seen = {}
    block = Chain.block

    def spy(chain, cols, *located):
        if chain.stages:
            seen.setdefault(id(cols), cols)
        return block(chain, cols, *located)

    monkeypatch.setattr(Chain, "block", spy)
    total = 0
    for laws in hq_laws(h):
        for law in laws:
            assert all(law_checks(*law).verdicts)
            total += law[2].cols
    monkeypatch.undo()
    return sum(map(len, seen.values())), total


def test_the_kernel_evaluates_one_segment_of_each_class(monkeypatch):
    """On the power construction every segment of a family acts alike, so
    hq_laws evaluates 135 of its 2,075 columns; on the mirror, whose maps
    are twisted by the crossing, 785."""
    h = v4_crossed_by_s3()
    assert kernel_columns(monkeypatch, h) == (135, 2075)
    assert kernel_columns(monkeypatch, mirror(h)) == (785, 2075)


# -- mutants that split a class -------------------------------------------------------

_STRUCTURES = {}


def structure(name, field):
    """V4 crossed by S3, or its mirror, built once per field."""
    if (name, field) not in _STRUCTURES:
        h = v4_crossed_by_s3(field)
        _STRUCTURES[(name, field)] = mirror(h) if name == "mirror" else h
    return _STRUCTURES[(name, field)]


@st.composite
def class_mutants(draw):
    """One entry of one comultiplication, crossing or antipode of V4
    crossed by S3 or of its mirror, over Q or GF(7), set to a value that
    keeps, cancels, doubles or breaks it."""
    field = draw(st.sampled_from([QQ, GF7]))
    h = structure(draw(st.sampled_from(["power", "mirror"])), field)
    part = draw(st.sampled_from(["comult", "crossing", "antipode"]))
    key = draw(st.sampled_from(sorted(getattr(h, part))))
    m = getattr(h, part)[key]
    entry = (draw(st.integers(0, m.rows - 1)), draw(st.integers(0, m.cols - 1)))
    return mutated(h, part, key, entry, field.scalar(draw(values(field))))


@settings(max_examples=12, deadline=None)
@given(class_mutants())
def test_a_mutant_that_splits_a_class_gives_the_per_check_report(h):
    assert_same(validate_crossed(h), reference_crossed(h))


# -- the scale pin --------------------------------------------------------------------

#: sha256 of (render(), to_jobj() as sorted JSON) of validate_crossed, as
#: evaluated segment by segment before classes
SCALE_DIGESTS = {
    "power": (
        "5397036031be77ce23982e9091309015bd8b695353409c66a81745734ea4cff4",
        "7d23952fa2b7136c641b91e7fed3da7fa926afe286b531caf3d4b11de64ec9a7",
    ),
    "mirror": (
        "5397036031be77ce23982e9091309015bd8b695353409c66a81745734ea4cff4",
        "7d23952fa2b7136c641b91e7fed3da7fa926afe286b531caf3d4b11de64ec9a7",
    ),
    "comult (5,7)": (
        "f880899f39e2b84c7aa6c3c27a5c8e9d7c3c9d84e4e9313c8e6f4c7d8f00a3d1",
        "7e3e53f3ff4147896b2707e0a664cf626b5df3dfb41b77c3d293cb16a9a8c3d8",
    ),
    "crossing (3,5)": (
        "cf5719810a2d2c3f4f26b1ac6c60bf96f15378cfca419aa58997bb4cfdcf02ba",
        "d58ab4488e5ca421cae9a1adaf020eaeb0644aea25382efc73a54a73080313b4",
    ),
}


def digests(rep):
    jobj = json.dumps(rep.to_jobj(), sort_keys=True)
    return tuple(hashlib.sha256(text.encode()).hexdigest() for text in (rep.render(), jobj))


def test_s4_acts_on_v4_by_automorphisms():
    assert validate_action(s4_on_v4()).passed


def test_reports_at_scale_keep_their_digests():
    """k[V4] crossed by S4 passes all 45,246 checks, and so does its
    mirror; rescaling one entry of Delta_{5,7} or of pi_{3,5} fails checks
    in the segments that read it, each with its witness."""
    h = v4_crossed_by_s4()
    rep = validate_crossed(h)
    assert rep.passed and rep.failed_ids(True) == []
    assert len(rep.to_jobj()["checks"]) == 45246
    reports = {"power": rep, "mirror": validate_crossed(mirror(h))}
    for part, key in (("comult", (5, 7)), ("crossing", (3, 5))):
        reports[f"{part} ({key[0]},{key[1]})"] = validate_crossed(mutated(h, part, key, (1, 1), 3))
    assert {name: digests(rep) for name, rep in reports.items()} == SCALE_DIGESTS


def test_the_conjugates_are_computed_once_per_grading(monkeypatch):
    """Building k[V4] crossed by S4 and validating it compute each
    conjugate of each grading once, into the grading's table, however many
    laws regrade by conjugation: |G|^2 = 576 for S4; the report keeps its
    digests."""
    conjugate, calls = tables.conjugate, []

    def counted(t, p, q):
        calls.append((id(t), p, q))
        return conjugate(t, p, q)

    monkeypatch.setattr(tables, "conjugate", counted)
    h = v4_crossed_by_s4()
    rep = validate_crossed(h)
    assert len(calls) == len(set(calls))
    assert [t for t, _, _ in calls].count(id(h.grading)) == 24 * 24
    grades = h.grades()
    assert h.grading.conjugates() == [[conjugate(h.grading, p, q) for q in grades] for p in grades]
    assert digests(rep) == SCALE_DIGESTS["power"]


# -- element-wise products ----------------------------------------------------------------


@pytest.mark.parametrize("field", [QQ, GF7], ids=["Q", "GF7"])
def test_a_product_whose_terms_cancel_drops_them(field):
    """(e + g)(e - g) = e - g + g - e = 0 in k[C2]: each coefficient of
    the product reaches zero after it was set, and is dropped."""
    comp = group_algebra(GroupTable.cyclic(2), field).algebra
    one, minus = field.one, field.neg(field.one)
    assert _component_product(comp, {0: one, 1: one}, {0: one, 1: minus}) == {}
    assert _component_product(comp, {0: one, 1: one}, {0: one, 1: one}) == {0: 2, 1: 2}
