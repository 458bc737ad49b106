"""Table verdicts pinned against the validators they replaced.

The reference below is the table layer as it stood before each law became
one witness scan: validate_group, validate_ip_loop and validate_action
with one hand-written loop per check, and the yd module's own group test
(_is_group, and the component table it was asked about).  Both are run on
random Cayley tables (reduced Latin squares, group tables, arbitrary
tables, entries out of range, single-entry mutations) and on random action
maps on cyclic groups, V4 and the octonion unit loop, and must agree on
render(), to_jobj() and any exception raised.  A kill table drives the
table IDs that no other test drives to fail.  Each scan that checks one
table row at a time (associativity, Moufang, the inverse property, an
action's automorphism and composition laws) is pinned in full against
the per-element stream it replaced, on the random tables and actions
and on every table and action of order at most 2.
"""

from itertools import permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import fixtures
from quasibraid.errors import InvalidInput, NotAGroupAlgebra, QuasibraidError
from quasibraid.exactlin import K_LABELS, LinMap, QQ
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra
from quasibraid.report import Report, Witness
from quasibraid.tables import (
    GroupAction,
    GroupTable,
    LoopTable,
    _assoc_witnesses,
    _automorphism_witnesses,
    _composition_witnesses,
    _gathers_of,
    _ip_witnesses,
    _moufang_witnesses,
    validate_action,
    validate_group,
    validate_ip_loop,
)
from quasibraid.yd import _group_table, crossed_set_module, diagonal_module
from crosschecks import search_dim1_modules
from test_hq_legwise import chein_loop


# -- the reference: one loop per check -------------------------------------------------


def reference_validate_group(t):
    rep = Report(f"group table ({t.order} elements)")
    labels = t.labels

    bad = next(
        (
            (x, y)
            for x in t.elements()
            for y in t.elements()
            if not 0 <= t.table[x][y] < t.order
        ),
        None,
    )
    rep.add(
        "GRP-closure",
        bad is None,
        witness=None
        if bad is None
        else Witness(
            (labels[bad[0]], labels[bad[1]]), (), str(t.table[bad[0]][bad[1]]), "in range"
        ),
    )
    if bad is not None:
        return rep

    bad = next(
        (x for x in t.elements() if t.table[0][x] != x or t.table[x][0] != x), None
    )
    rep.add(
        "GRP-identity",
        bad is None,
        witness=None
        if bad is None
        else Witness((labels[bad],), (), labels[t.table[0][bad]], labels[bad]),
    )

    bad = next((x for x in t.elements() if t.inverse[x] is None), None)
    rep.add(
        "GRP-inverse",
        bad is None,
        witness=None if bad is None else Witness((labels[bad],), (), "no inverse", "inverse"),
    )

    witness = None
    for x, y, z in product(t.elements(), repeat=3):
        lhs = t.table[t.table[x][y]][z]
        rhs = t.table[x][t.table[y][z]]
        if lhs != rhs:
            witness = Witness(
                (labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs]
            )
            break
    rep.add("GRP-assoc", witness is None, witness=witness)
    return rep


def reference_validate_ip_loop(t):
    rep = Report(f"loop table ({t.order} elements)")
    labels = t.labels
    n = t.order
    full = set(range(n))

    bad = next((x for x in range(n) if set(t.table[x]) != full), None)
    rep.add(
        "LOOP-latin-rows",
        bad is None,
        witness=None if bad is None else Witness((labels[bad],), (), "row", "permutation"),
    )
    bad = next(
        (y for y in range(n) if {t.table[x][y] for x in range(n)} != full), None
    )
    rep.add(
        "LOOP-latin-cols",
        bad is None,
        witness=None if bad is None else Witness((labels[bad],), (), "column", "permutation"),
    )

    bad = next((x for x in range(n) if t.table[0][x] != x or t.table[x][0] != x), None)
    rep.add(
        "LOOP-identity",
        bad is None,
        witness=None
        if bad is None
        else Witness((labels[bad],), (), labels[t.table[0][bad]], labels[bad]),
    )
    if not rep.passed:
        return rep

    bad = next(
        (
            x
            for x in range(n)
            if t.left_inverse[x] is None
            or t.right_inverse[x] is None
            or t.left_inverse[x] != t.right_inverse[x]
        ),
        None,
    )
    inverses_ok = bad is None
    rep.add(
        "LOOP-inverse-two-sided",
        inverses_ok,
        witness=None
        if inverses_ok
        else Witness(
            (labels[bad],),
            (),
            "none" if t.left_inverse[bad] is None else labels[t.left_inverse[bad]],
            "none" if t.right_inverse[bad] is None else labels[t.right_inverse[bad]],
        ),
    )

    if inverses_ok:
        witness = None
        for x, y in product(range(n), repeat=2):
            xi = t.left_inverse[x]
            got = t.table[xi][t.table[x][y]]
            if got != y:
                witness = Witness((labels[x], labels[y]), (), labels[got], labels[y])
                break
        rep.add("LOOP-IP-left", witness is None, witness=witness)

        witness = None
        for x, y in product(range(n), repeat=2):
            xi = t.right_inverse[x]
            got = t.table[t.table[y][x]][xi]
            if got != y:
                witness = Witness((labels[x], labels[y]), (), labels[got], labels[y])
                break
        rep.add("LOOP-IP-right", witness is None, witness=witness)
    else:
        rep.add("LOOP-IP-left", False, detail="needs two-sided inverses")
        rep.add("LOOP-IP-right", False, detail="needs two-sided inverses")

    witness = None
    for x, y, z in product(range(n), repeat=3):
        lhs = t.table[t.table[x][y]][t.table[z][x]]
        rhs = t.table[t.table[x][t.table[y][z]]][x]
        if lhs != rhs:
            witness = Witness(
                (labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs]
            )
            break
    rep.add("LOOP-moufang", witness is None, required=False, witness=witness)

    witness = None
    for x, y, z in product(range(n), repeat=3):
        lhs = t.table[t.table[x][y]][z]
        rhs = t.table[x][t.table[y][z]]
        if lhs != rhs:
            witness = Witness(
                (labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs]
            )
            break
    rep.add("LOOP-assoc", witness is None, required=False, witness=witness)
    return rep


def reference_validate_action(a):
    rep = Report("group action")
    actor, carrier = a.actor, a.carrier
    alab, clab = actor.labels, carrier.labels

    witness = None
    for g in actor.elements():
        m = a.maps[g]
        if sorted(m) != list(range(carrier.order)):
            witness = Witness((alab[g],), (), "map", "bijection")
            break
        for x, y in product(range(carrier.order), repeat=2):
            if m[carrier.table[x][y]] != carrier.table[m[x]][m[y]]:
                witness = Witness(
                    (alab[g], clab[x], clab[y]),
                    (),
                    clab[m[carrier.table[x][y]]],
                    clab[carrier.table[m[x]][m[y]]],
                )
                break
        if witness:
            break
    rep.add("ACT-automorphism", witness is None, witness=witness)

    ok = a.maps[0] == tuple(range(carrier.order))
    rep.add("ACT-identity", ok, witness=None if ok else Witness(("e",), (), "map", "id"))

    witness = None
    for g, h in product(actor.elements(), repeat=2):
        gh = actor.table[g][h]
        for x in range(carrier.order):
            if a.maps[gh][x] != a.maps[g][a.maps[h][x]]:
                witness = Witness(
                    (alab[g], alab[h], clab[x]),
                    (),
                    clab[a.maps[gh][x]],
                    clab[a.maps[g][a.maps[h][x]]],
                )
                break
        if witness:
            break
    rep.add("ACT-composition", witness is None, witness=witness)
    return rep


def reference_group_table(comp):
    field = comp.field
    n = comp.dim
    table = [[None] * n for _ in range(n)]
    for (i, j, k), value in comp.mult.items():
        if value != field.one or table[i][j] is not None:
            return None
        table[i][j] = k
    if any(cell is None for row in table for cell in row):
        return None
    return table if reference_is_group(table) else None


def reference_is_group(table):
    n = len(table)
    if any(table[0][j] != j for j in range(n)):
        return False
    if any(table[i][0] != i for i in range(n)):
        return False
    if any(0 not in row for row in table):
        return False
    for i in range(n):
        for j in range(n):
            for k in range(n):
                if table[table[i][j]][k] != table[i][table[j][k]]:
                    return False
    return True


# -- random tables and actions ---------------------------------------------------------


def reduced_latin_squares(n):
    """Every Latin square of order n whose row 0 and column 0 are the
    identity, by backtracking; 56 of them at order 5."""
    rows = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]
    found = []

    def fill(cell):
        if cell == n * n:
            found.append(tuple(tuple(row) for row in rows))
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            fill(cell + 1)
            return
        used = set(rows[i][:j]) | {rows[k][j] for k in range(i)}
        for v in range(n):
            if v not in used:
                rows[i][j] = v
                fill(cell + 1)
        rows[i][j] = None

    fill(0)
    return found


REDUCED = {n: reduced_latin_squares(n) for n in range(1, 6)}
O16 = fixtures.o16()
NAMED = [
    GroupTable.symmetric(3).table,
    GroupTable.cyclic(6).table,
    GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(4)).table,
    O16.table,
    tuple(tuple(max(x, y) for y in range(4)) for x in range(4)),  # a monoid
]


@st.composite
def cayley_tables(draw, in_range=False):
    """A square table of ints: a reduced Latin square, a named table or an
    arbitrary square, with up to two entries mutated; entries out of range
    too unless in_range."""
    kind = draw(st.sampled_from(["reduced", "named", "any"] + ([] if in_range else ["wide"])))
    if kind == "reduced":
        square = draw(st.sampled_from(REDUCED[draw(st.integers(1, 5))]))
    elif kind == "named":
        square = draw(st.sampled_from(NAMED))
    else:
        n = draw(st.integers(1, 5))
        lo, hi = (0, n - 1) if kind == "any" else (-2, n + 1)
        square = [[draw(st.integers(lo, hi)) for _ in range(n)] for _ in range(n)]
    rows = [list(row) for row in square]
    n = len(rows)
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(st.integers(0, n - 1) if in_range else st.integers(-1, n))
    return rows


def labels_for(n):
    return ["e"] + [f"a{i}" for i in range(1, n)]


def outcome(validator, structure):
    try:
        rep = validator(structure)
    except Exception as exc:  # noqa: BLE001 - the exception is the verdict
        return ("raised", type(exc).__name__, str(exc))
    return ("report", rep.render(), rep.to_jobj())


@settings(max_examples=400, deadline=None)
@given(cayley_tables())
def test_group_and_loop_verdicts_match_the_reference(rows):
    """A group table may hold any int (GRP-closure reports it); a loop
    table with an entry outside [0, n) is refused when it is built."""
    n, labels = len(rows), labels_for(len(rows))
    group = GroupTable(labels, rows)
    assert outcome(validate_group, group) == outcome(reference_validate_group, group)
    if any(not 0 <= v < n for row in rows for v in row):
        with pytest.raises(QuasibraidError, match=rf"^loop table entry outside \[0, {n}\)$"):
            LoopTable(labels, rows)
        return
    loop = LoopTable(labels, rows)
    assert outcome(validate_ip_loop, loop) == outcome(reference_validate_ip_loop, loop)


def cyclic_automorphisms(m):
    """x -> u x on Z/m for every unit u."""
    return [tuple(u * x % m for x in range(m)) for u in range(1, m + 1) if _gcd(u, m) == 1]


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def octonion_shift(s):
    """e_i -> e_{i+s}, indices 1..7 read cyclically, signs and 1 kept: a
    rotation of the seven-point plane, so an automorphism of O16."""
    image = [0] + [(i - 1 + s) % 7 + 1 for i in range(1, 8)]
    return tuple(image[x % 8] + 8 * (x // 8) for x in range(16))


S3 = GroupTable.symmetric(3)
V4 = GroupTable.direct_product(GroupTable.cyclic(2), GroupTable.cyclic(2))


def v4_automorphism(perm):
    """The automorphism of V4 that permutes its three involutions by perm."""
    return (0,) + tuple(1 + perm[i] for i in range(3))


#: (carrier, some of its automorphisms)
CARRIERS = [
    (GroupTable.cyclic(m), cyclic_automorphisms(m)) for m in range(1, 6)
] + [
    (LoopTable.from_group(GroupTable.cyclic(4)), cyclic_automorphisms(4)),
    (O16, [octonion_shift(s) for s in range(7)]),
    (V4, [v4_automorphism(p) for p in permutations(range(3))]),
]
#: S3 acting on V4 through S3 = Aut(V4), in S3's own element order
NATURAL = [v4_automorphism(p) for p in sorted(permutations(range(3)))]


@st.composite
def actions(draw):
    """(actor, carrier, maps): a cyclic actor acting by the powers of one
    automorphism (a homomorphism only when its order divides the actor's);
    S3 acting naturally on V4, with one map possibly replaced; or a cyclic
    actor or S3 with each map drawn on its own among automorphisms,
    permutations and tuples with entries out of range."""
    kind = draw(st.sampled_from(["powers", "natural", "free"]))
    if kind == "natural":
        maps = list(NATURAL)
        if draw(st.booleans()):
            maps[draw(st.integers(0, 5))] = draw(st.sampled_from(NATURAL))
        return S3, V4, maps
    carrier, autos = draw(st.sampled_from(CARRIERS))
    m = carrier.order
    if kind == "powers":
        actor = GroupTable.cyclic(draw(st.integers(1, 4)))
        phi = draw(st.sampled_from(autos))
        maps, power = [], tuple(range(m))
        for _ in range(actor.order):
            maps.append(power)
            power = tuple(phi[x] for x in power)
        return actor, carrier, maps
    actor = draw(st.sampled_from([GroupTable.cyclic(k) for k in range(1, 5)] + [S3]))
    any_map = st.one_of(
        st.sampled_from(autos),
        st.permutations(range(m)).map(tuple),
        st.lists(st.integers(-1, m), min_size=m, max_size=m).map(tuple),
    )
    return actor, carrier, [draw(any_map) for _ in range(actor.order)]


@settings(max_examples=300, deadline=None)
@given(actions())
def test_action_verdicts_match_the_reference(parts):
    """An action with a map entry outside the carrier is refused when it is built."""
    actor, carrier, maps = parts
    if any(not 0 <= x < carrier.order for m in maps for x in m):
        message = rf"^action map entry outside \[0, {carrier.order}\)$"
        with pytest.raises(QuasibraidError, match=message):
            GroupAction(actor, carrier, maps)
        return
    action = GroupAction(actor, carrier, maps)
    assert outcome(validate_action, action) == outcome(reference_validate_action, action)


# -- the yd module's group test ---------------------------------------------------------


def table_base(rows):
    """k[M] for the 0/1 table `rows`, embedded unchecked as the single
    component over the trivial group: diagonal comultiplication, the
    counit 1 on every basis vector, identity antipode, unit e_0."""
    n = len(rows)
    return mult_base(n, {(i, j, rows[i][j]): 1 for i in range(n) for j in range(n)})


def mult_base(n, mult):
    """table_base with the multiplication tensor mult on n basis vectors,
    which need not be the 0/1 tensor of any table."""
    labels = tuple((f"m{i}",) for i in range(n))
    algebra = UnitalAlgebra(QQ, n, labels, mult, tuple(int(i == 0) for i in range(n)))
    pairs = tuple(x + y for x in labels for y in labels)
    comult = LinMap(QQ, n * n, n, {(i * n + i, i): 1 for i in range(n)}, labels, pairs)
    counit = LinMap(QQ, 1, n, {(0, i): 1 for i in range(n)}, labels, K_LABELS)
    h = HopfQuasigroup(QQ, algebra, comult, counit, LinMap.identity(QQ, labels))
    return h.graded


def raised(build, base):
    try:
        return build(base)
    except Exception as exc:  # noqa: BLE001 - the exception is the verdict
        return (type(exc).__name__, str(exc))


@settings(max_examples=200, deadline=None)
@given(cayley_tables(in_range=True))
def test_group_algebra_test_matches_the_reference(rows):
    base = table_base(rows)
    comp = base.comp(0)
    expected = reference_group_table(comp)
    got = _group_table(comp)
    assert (got is None) == (expected is None)
    search = search_dim1_modules(base).render()
    if expected is None:
        assert raised(crossed_set_module, base) == (
            NotAGroupAlgebra.__name__, "base component is not a group algebra"
        )
        assert raised(diagonal_module, base) == (
            InvalidInput.__name__, "identity component is not a group algebra"
        )
        assert "inapplicable: identity component is not a group algebra" in search
        return
    n = len(rows)
    inverse = [next(y for y in range(n) if expected[x][y] == 0) for x in range(n)]
    conjugation = {
        (expected[expected[g][x]][inverse[g]], g * n + x): 1 for g in range(n) for x in range(n)
    }
    module = crossed_set_module(base)
    assert module.action.entries == conjugation
    assert diagonal_module(base) == module
    assert "inapplicable" not in search


C2_MULT = {(i, j, (i + j) % 2): 1 for i in range(2) for j in range(2)}


@pytest.mark.parametrize(
    "mult",
    [
        {**C2_MULT, (1, 1, 0): 2},  # an entry that is not field.one
        {**C2_MULT, (1, 1, 1): 1},  # two products for the pair (1, 1)
        {key: v for key, v in C2_MULT.items() if key != (1, 1, 0)},  # no product for (1, 1)
    ],
    ids=["scalar-two", "two-products", "missing-product"],
)
def test_identity_component_that_is_no_group_table(mult):
    """A defect in the multiplication tensor of the identity component
    that no 0/1 table can have: no group is read off it."""
    base = mult_base(2, mult)
    assert _group_table(base.comp(0)) is None
    with pytest.raises(InvalidInput, match="^identity component is not a group algebra$"):
        diagonal_module(base)
    with pytest.raises(NotAGroupAlgebra, match="^base component is not a group algebra$"):
        crossed_set_module(base)
    search = search_dim1_modules(base)
    assert [(c.check_id, c.detail) for c in search.checks] == [
        ("YD-grade-search", "inapplicable: identity component is not a group algebra")
    ]


# -- kill table -------------------------------------------------------------------------

C2, C3 = GroupTable.cyclic(2), GroupTable.cyclic(3)

#: name -> (validator, structure, check ID, witness text); each makes an
#: ID fail that no other test drives to fail
KILLS = {
    "product-out-of-range": (
        validate_group, GroupTable(["e", "g"], [[0, 1], [1, 2]]), "GRP-closure",
        "at (g,g) -> (): 2 != in range",
    ),
    "monoid-without-inverse": (
        validate_group, GroupTable(["e", "a"], [[0, 1], [1, 1]]), "GRP-inverse",
        "at (a) -> (): no inverse != inverse",
    ),
    "row-repeats-an-element": (
        validate_ip_loop, LoopTable(["e", "a"], [[0, 1], [1, 1]]), "LOOP-latin-rows",
        "at (a) -> (): row != permutation",
    ),
    "identity-acts-by-inversion": (
        validate_action, GroupAction(C2, C3, [(0, 2, 1), (0, 2, 1)]), "ACT-identity",
        "at (e) -> (): map != id",
    ),
}


@pytest.mark.parametrize("case", list(KILLS))
def test_kill_table(case):
    validator, structure, check_id, text = KILLS[case]
    rep = validator(structure)
    check = rep.find(check_id)
    assert not check.passed and check.required and not rep.passed
    assert check.witness.describe() == text


def test_tables_equal_only_within_their_class():
    group = GroupTable.cyclic(3)
    loop = LoopTable.from_group(group)
    assert group == GroupTable.cyclic(3) and loop == LoopTable.from_group(GroupTable.cyclic(3))
    assert group != loop and loop != group
    assert (repr(group), repr(loop)) == ("GroupTable(order=3)", "LoopTable(order=3)")
    product_ = LoopTable.direct_product(loop, loop)
    assert type(product_) is LoopTable and product_.labels[1] == "(e,g)"


# -- the LOOP-moufang scan against the per-triple stream ----------------------------------


def reference_moufang_witnesses(t):
    """The LOOP-moufang stream as validate_ip_loop stated it before the
    scan read whole rows: one triple at a time, z fastest."""
    labels, table, n = t.labels, t.table, t.order
    return (
        Witness((labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs])
        for x, y, z in product(range(n), repeat=3)
        if (lhs := table[table[x][y]][table[z][x]]) != (rhs := table[table[x][table[y][z]]][x])
    )


#: Moufang loops whose scan runs to the end: the octonion units and
#: Chein's M(S3,2), both nonassociative
MOUFANG_TABLES = [O16.table, chein_loop(GroupTable.symmetric(3)).table]


@st.composite
def moufang_mutants(draw):
    """A Moufang loop (the octonion units or Chein's M(S3,2)), as it is or
    with one entry changed to another in range."""
    rows = [list(row) for row in draw(st.sampled_from(MOUFANG_TABLES))]
    n = len(rows)
    if draw(st.booleans()):
        x, y = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        rows[x][y] = draw(st.integers(0, n - 1))
    return rows


@settings(max_examples=200, deadline=None)
@given(st.one_of(cayley_tables(in_range=True), moufang_mutants()))
def test_moufang_scan_matches_the_per_triple_stream(rows):
    """The row-wise scan yields the same witnesses in the same order, so
    add_first_witness records the same first one."""
    loop = LoopTable(labels_for(len(rows)), rows)
    transpose = tuple(zip(*loop.table))
    assert list(_moufang_witnesses(loop, transpose)) == list(reference_moufang_witnesses(loop))


# -- every row-wise scan against its per-element stream ----------------------------------


def drained(stream):
    """Every witness of stream, or the exception that ended it."""
    try:
        return list(stream)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return (type(exc).__name__, str(exc))


def reference_assoc_witnesses(t):
    """GRP-/LOOP-assoc one triple at a time, z fastest."""
    labels, table, n = t.labels, t.table, t.order
    return (
        Witness((labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs])
        for x, y, z in product(range(n), repeat=3)
        if (lhs := table[table[x][y]][z]) != (rhs := table[x][table[y][z]])
    )


def reference_ip_witnesses(t, inverse, side):
    """LOOP-IP-left, x^-1 (x y) != y, or LOOP-IP-right, (y x) x^-1 != y,
    one pair at a time with x^-1 read from inverse."""
    labels, table, n = t.labels, t.table, t.order

    def got(x, y):
        if side == "left":
            return table[inverse[x]][table[x][y]]
        return table[table[y][x]][inverse[x]]

    return (
        Witness((labels[x], labels[y]), (), labels[g], labels[y])
        for x, y in product(range(n), repeat=2)
        if (g := got(x, y)) != y
    )


def reference_automorphism_witnesses(a):
    """ACT-automorphism one map and one pair at a time, the bijection
    witness of a map before its pairs."""
    alab, clab, table = a.actor.labels, a.carrier.labels, a.carrier.table
    for g, m in enumerate(a.maps):
        if sorted(m) != list(range(a.carrier.order)):
            yield Witness((alab[g],), (), "map", "bijection")
        for x, y in product(range(a.carrier.order), repeat=2):
            if (lhs := m[table[x][y]]) != (rhs := table[m[x]][m[y]]):
                yield Witness((alab[g], clab[x], clab[y]), (), clab[lhs], clab[rhs])


def reference_composition_witnesses(a):
    """ACT-composition one triple (g, h, x) at a time, x fastest."""
    alab, clab, maps = a.actor.labels, a.carrier.labels, a.maps
    return (
        Witness((alab[g], alab[h], clab[x]), (), clab[lhs], clab[rhs])
        for g, h, x in product(range(a.actor.order), range(a.actor.order), range(a.carrier.order))
        if (lhs := maps[a.actor.table[g][h]][x]) != (rhs := maps[g][maps[h][x]])
    )


def assert_table_scans_match(rows):
    """Associativity on the group table of rows, whatever its entries (a
    gather reads an entry outside the table as Python indexing does, so
    the two even end in the same exception); and, when the entries are in
    range, the IP scans with every inverse table and the Moufang scan on
    its loop table."""
    n, labels = len(rows), labels_for(len(rows))
    group = GroupTable(labels, rows)
    assert drained(_assoc_witnesses(group)) == drained(reference_assoc_witnesses(group))
    if any(not 0 <= v < n for row in rows for v in row):
        return
    loop = LoopTable(labels, rows)
    assert list(_assoc_witnesses(loop)) == list(reference_assoc_witnesses(loop))
    by_row, by_column = loop._gathers(), loop._gathers(columns=True)
    transpose = tuple(zip(*loop.table))
    for inverse in (loop.left_inverse, loop.right_inverse, group.inverse):
        left = _ip_witnesses(loop.labels, loop.table, by_row, inverse)
        assert drained(left) == drained(reference_ip_witnesses(loop, inverse, "left"))
        right = _ip_witnesses(loop.labels, transpose, by_column, inverse)
        assert drained(right) == drained(reference_ip_witnesses(loop, inverse, "right"))
    assert list(_moufang_witnesses(loop, transpose)) == list(reference_moufang_witnesses(loop))


def assert_action_scans_match(actor, carrier, maps):
    action = GroupAction(actor, carrier, maps)
    by_map = _gathers_of(action.maps)
    automorphism = _automorphism_witnesses(action, by_map)
    assert list(automorphism) == list(reference_automorphism_witnesses(action))
    composition = _composition_witnesses(action, by_map)
    assert list(composition) == list(reference_composition_witnesses(action))


@settings(max_examples=300, deadline=None)
@given(st.one_of(cayley_tables(), moufang_mutants()))
def test_table_scans_match_the_per_element_streams(rows):
    assert_table_scans_match(rows)


@settings(max_examples=300, deadline=None)
@given(actions())
def test_action_scans_match_the_per_element_streams(parts):
    """Maps with an entry outside the carrier are refused when built."""
    actor, carrier, maps = parts
    if all(0 <= x < carrier.order for m in maps for x in m):
        assert_action_scans_match(actor, carrier, maps)


#: every table of order 1 or 2 with entries in {-1, ..., n}: itemgetter
#: over one index returns a bare item, so order 1 is a case of its own
SMALL_TABLES = [
    [list(square[i * n:(i + 1) * n]) for i in range(n)]
    for n in (1, 2)
    for square in product(range(-1, n + 1), repeat=n * n)
]


@pytest.mark.parametrize("rows", SMALL_TABLES, ids=str)
def test_small_table_scans_match_the_per_element_streams(rows):
    assert_table_scans_match(rows)


C1 = GroupTable.cyclic(1)

#: (actor, carrier, maps) for every tuple of maps by which C1 or C2 could
#: act on the groups and loops of order 1 and 2
SMALL_ACTIONS = [
    (actor, carrier, maps)
    for actor in (C1, C2)
    for carrier in (C1, LoopTable.from_group(C1), C2, LoopTable.from_group(C2))
    for maps in product(product(carrier.elements(), repeat=carrier.order), repeat=actor.order)
]


def action_id(parts):
    actor, carrier, maps = parts
    return f"C{actor.order}-on-{type(carrier).__name__}{carrier.order}-{maps}"


@pytest.mark.parametrize("parts", SMALL_ACTIONS, ids=action_id)
def test_small_action_scans_match_the_per_element_streams(parts):
    assert_action_scans_match(*parts)


# -- permutation labels ---------------------------------------------------------------


def reference_cycle_label(perm):
    """The cycles of perm, walked from every start and each kept from its
    least point, or "e"."""
    parts = []
    for start in range(len(perm)):
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if len(cycle) > 1 and start == min(cycle):
            parts.append("(" + " ".join(map(str, cycle)) + ")")
    return "".join(parts) or "e"


@pytest.mark.parametrize("n", range(1, 6))
def test_symmetric_group_labels_match_the_walk_from_every_start(n):
    """_cycle_label walks each cycle once, from its least point."""
    want = [reference_cycle_label(p) for p in sorted(permutations(range(n)))]
    assert list(GroupTable.symmetric(n).labels) == want
