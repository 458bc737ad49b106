"""Finite groups, inverse-property loops and automorphic actions as Cayley tables.

Element 0 is always the identity.  GroupTable and LoopTable share one
core (the shape check, mul, elements, equality and the direct product)
and add only their inverse tables and constructors.  Every group, loop
and action law is stated once, as a stream of counterexample Witnesses
over all elements, pairs or triples in index order, and recorded by one
helper (Report.add_first_witness): the first witness fails the check.
Groups and loops share the identity and associativity scans.  The
16-element unit loop of the octonion basis is generated here.
"""

from __future__ import annotations

from itertools import compress, count, permutations, product
from operator import ne

from .errors import QuasibraidError
from .report import Report, Witness

# Lines of the seven-point plane in the index convention e_i e_{i+1} = e_{i+3};
# cyclically ordered, so a pair read forward multiplies with a plus sign.
_OCT_LINES = tuple(
    ((n % 7) + 1, ((n + 1) % 7) + 1, ((n + 3) % 7) + 1) for n in range(7)
)


def _require_indices(rows, n, what):
    """Raise QuasibraidError if an entry of rows lies outside [0, n)."""
    if any(not 0 <= v < n for row in rows for v in row):
        raise QuasibraidError(f"{what} entry outside [0, {n})")


class _CayleyTable:
    """A finite set with a multiplication given by its Cayley table over
    element indices; a subclass reads it as a group or a loop and keeps
    its own inverse tables."""

    __slots__ = ("order", "labels", "table")

    def __init__(self, labels, table):
        self.order = len(labels)
        self.labels = tuple(str(s) for s in labels)
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        if len(self.table) != self.order or any(
            len(row) != self.order for row in self.table
        ):
            raise QuasibraidError("Cayley table shape does not match order")

    def mul(self, x, y):
        return self.table[x][y]

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.labels == other.labels and self.table == other.table

    __hash__ = None

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"

    @classmethod
    def direct_product(cls, a, b):
        """Pairs (i, j) indexed i * |b| + j."""
        pairs = list(product(a.elements(), b.elements()))
        labels = [f"({a.labels[i]},{b.labels[j]})" for i, j in pairs]
        table = [[a.table[i][k] * b.order + b.table[j][l] for k, l in pairs] for i, j in pairs]
        return cls(labels, table)


class GroupTable(_CayleyTable):
    """Finite group given by its Cayley table over element indices."""

    __slots__ = ("inverse",)

    def __init__(self, labels, table):
        super().__init__(labels, table)
        n, table = self.order, self.table
        self.inverse = tuple(
            next((y for y in range(n) if table[x][y] == 0 and table[y][x] == 0), None)
            for x in range(n)
        )

    def inv(self, x):
        y = self.inverse[x]
        if y is None:
            raise QuasibraidError(f"element {self.labels[x]} has no two-sided inverse")
        return y

    # -- constructors -------------------------------------------------

    @classmethod
    def cyclic(cls, n):
        if n < 1:
            raise QuasibraidError("cyclic group needs order >= 1")
        labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(labels, table)

    @classmethod
    def trivial(cls):
        return cls.cyclic(1)

    @classmethod
    def symmetric(cls, n):
        """S_n on {0..n-1}; identity first, remaining permutations in lex order."""
        perms = sorted(permutations(range(n)))
        index = {p: i for i, p in enumerate(perms)}
        labels = [_cycle_label(p) for p in perms]
        table = [
            [index[tuple(p[q[i]] for i in range(n))] for q in perms] for p in perms
        ]
        return cls(labels, table)


def _cycle_label(perm):
    seen = [False] * len(perm)
    parts = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cycle = [start]
        seen[start] = True
        nxt = perm[start]
        while nxt != start:
            cycle.append(nxt)
            seen[nxt] = True
            nxt = perm[nxt]
        parts.append("(" + " ".join(str(c) for c in cycle) + ")")
    return "e" if not parts else "".join(parts)


class LoopTable(_CayleyTable):
    """Quasigroup with two-sided identity, given by its Cayley table.

    Entries are element indices, never negative ones read from the end.
    Left and right inverse tables are the unique solutions of y*x = e and
    x*y = e when the table is a Latin square; entries are None where no
    solution exists so validators can report the failure.
    """

    __slots__ = ("left_inverse", "right_inverse")

    def __init__(self, labels, table):
        super().__init__(labels, table)
        n, table = self.order, self.table
        _require_indices(table, n, "loop table")
        self.left_inverse = tuple(
            next((y for y in range(n) if table[y][x] == 0), None) for x in range(n)
        )
        self.right_inverse = tuple(
            next((y for y in range(n) if table[x][y] == 0), None) for x in range(n)
        )

    @classmethod
    def from_group(cls, g):
        return cls(g.labels, g.table)

    @classmethod
    def octonion_units(cls):
        """The 16-element loop {+-1, +-e1..+-e7} of octonion basis units."""
        labels = ["1"] + [f"e{k}" for k in range(1, 8)]
        labels += ["-1"] + [f"-e{k}" for k in range(1, 8)]

        def base_mul(i, j):
            # returns (sign bit, index) for e_i * e_j on indices 0..7
            if i == 0:
                return 0, j
            if j == 0:
                return 0, i
            if i == j:
                return 1, 0
            for a, b, c in _OCT_LINES:
                line = {a, b, c}
                if i in line and j in line:
                    k = (line - {i, j}).pop()
                    forward = (i, j) in ((a, b), (b, c), (c, a))
                    return (0 if forward else 1), k
            raise AssertionError("pair not on any line")

        table = []
        for s1, i in product((0, 1), range(8)):
            row = []
            for s2, j in product((0, 1), range(8)):
                s, k = base_mul(i, j)
                row.append(((s1 ^ s2 ^ s) * 8) + k)
            table.append(row)
        return cls(labels, table)


# -- validators ------------------------------------------------------------
#
# Each law is one stream of counterexample Witnesses, elements taken in
# index order with the first argument slowest; Report.add_first_witness
# records the check, failed by the first Witness the stream yields.


def _identity_witnesses(t):
    """x with e x != x or x e != x."""
    labels, table = t.labels, t.table
    return (
        Witness((labels[x],), (), labels[table[0][x]], labels[x])
        for x in t.elements()
        if table[0][x] != x or table[x][0] != x
    )


def _assoc_witnesses(t):
    """(x, y, z) with (x y) z != x (y z); entries must be in range."""
    labels, table = t.labels, t.table
    for x in t.elements():
        row_x = table[x]
        for y in t.elements():
            row_xy, row_y = table[row_x[y]], table[y]
            for z in t.elements():
                if (lhs := row_xy[z]) != (rhs := row_x[row_y[z]]):
                    yield Witness((labels[x], labels[y], labels[z]), (), labels[lhs], labels[rhs])


def validate_group(t):
    """Exhaustive group axioms: closure, identity, inverses, associativity."""
    rep = Report(f"group table ({t.order} elements)")
    labels, table, n = t.labels, t.table, t.order
    closure = (
        Witness((labels[x], labels[y]), (), str(table[x][y]), "in range")
        for x in t.elements()
        for y in t.elements()
        if not 0 <= table[x][y] < n
    )
    if not rep.add_first_witness("GRP-closure", closure):
        return rep
    rep.add_first_witness("GRP-identity", _identity_witnesses(t))
    rep.add_first_witness(
        "GRP-inverse",
        (
            Witness((labels[x],), (), "no inverse", "inverse")
            for x in t.elements()
            if t.inverse[x] is None
        ),
    )
    rep.add_first_witness("GRP-assoc", _assoc_witnesses(t))
    return rep


def _latin_witnesses(t, lines, kind):
    """x whose line, a row of `lines` named `kind` (the table's rows, or its
    columns as the rows of its transpose), is not a permutation."""
    full = set(t.elements())
    return (
        Witness((t.labels[x],), (), kind, "permutation")
        for x, entries in enumerate(lines)
        if set(entries) != full
    )


def _ip_witnesses(labels, table, inverse):
    """(x, y) with x^-1 (x y) != y, x^-1 read from inverse.  On the
    transposed table with right inverses this is (y x) x^-1 != y."""
    n = len(table)
    return (
        Witness((labels[x], labels[y]), (), labels[got], labels[y])
        for x, y in product(range(n), repeat=2)
        if (got := table[inverse[x]][table[x][y]]) != y
    )


def _moufang_witnesses(t, transpose):
    """(x, y, z) with (x y)(z x) != (x (y z)) x, z fastest.  For each (x, y)
    both sides over all z are two map passes over rows of the table
    (transpose holds its columns), and only a row whose sides differ is
    searched for its z."""
    labels, table = t.labels, t.table
    for x in t.elements():
        row_x, col_x = table[x], transpose[x]
        for y in t.elements():
            lhs = list(map(table[row_x[y]].__getitem__, col_x))  # (x y)(z x)
            rhs = list(map(col_x.__getitem__, map(row_x.__getitem__, table[y])))  # (x (y z)) x
            if lhs != rhs:
                for z in compress(count(), map(ne, lhs, rhs)):
                    yield Witness(
                        (labels[x], labels[y], labels[z]), (), labels[lhs[z]], labels[rhs[z]]
                    )


def validate_ip_loop(t):
    """Quasigroup, identity and inverse-property checks; Moufang and
    associativity are reported informationally and may fail."""
    rep = Report(f"loop table ({t.order} elements)")
    labels, table, n = t.labels, t.table, t.order
    transpose = tuple(zip(*table))
    rep.add_first_witness("LOOP-latin-rows", _latin_witnesses(t, table, "row"))
    rep.add_first_witness("LOOP-latin-cols", _latin_witnesses(t, transpose, "column"))
    rep.add_first_witness("LOOP-identity", _identity_witnesses(t))
    if not rep.passed:
        return rep

    left, right = t.left_inverse, t.right_inverse

    def name(x):
        return "none" if x is None else labels[x]

    two_sided = (
        Witness((labels[x],), (), name(left[x]), name(right[x]))
        for x in range(n)
        if left[x] is None or left[x] != right[x]
    )
    if rep.add_first_witness("LOOP-inverse-two-sided", two_sided):
        rep.add_first_witness("LOOP-IP-left", _ip_witnesses(labels, table, left))
        rep.add_first_witness("LOOP-IP-right", _ip_witnesses(labels, transpose, right))
    else:
        rep.add("LOOP-IP-left", False, detail="needs two-sided inverses")
        rep.add("LOOP-IP-right", False, detail="needs two-sided inverses")

    rep.add_first_witness("LOOP-moufang", _moufang_witnesses(t, transpose), required=False)
    rep.add_first_witness("LOOP-assoc", _assoc_witnesses(t), required=False)
    return rep


def conjugate(t, p, q):
    """p * q * p^-1 in a group table."""
    return t.mul(t.mul(p, q), t.inv(p))


class GroupAction:
    """A group acting on a group or loop by table automorphisms.

    maps[g] is the permutation of carrier elements implementing g, each
    entry a carrier index; the validator checks each map preserves the
    carrier table and that maps compose along the actor's multiplication.
    """

    __slots__ = ("actor", "carrier", "maps")

    def __init__(self, actor, carrier, maps):
        self.actor = actor
        self.carrier = carrier
        self.maps = tuple(tuple(int(v) for v in m) for m in maps)
        if len(self.maps) != actor.order or any(
            len(m) != carrier.order for m in self.maps
        ):
            raise QuasibraidError("action maps do not match actor/carrier orders")
        _require_indices(self.maps, carrier.order, "action map")
        for name, t in (("actor", actor), ("carrier", carrier)):
            _require_indices(t.table, t.order, f"{name} table")

    def act(self, g, x):
        if not 0 <= g < self.actor.order:
            raise IndexError(f"actor index {g} out of range")
        if not 0 <= x < self.carrier.order:
            raise IndexError(f"carrier index {x} out of range")
        return self.maps[g][x]

    def __eq__(self, other):
        if not isinstance(other, GroupAction):
            return NotImplemented
        return (
            self.actor == other.actor
            and self.carrier == other.carrier
            and self.maps == other.maps
        )

    __hash__ = None

    @classmethod
    def trivial(cls, actor, carrier):
        ident = tuple(range(carrier.order))
        return cls(actor, carrier, [ident] * actor.order)

    @classmethod
    def by_inversion(cls, carrier):
        """C2 acting on an abelian group by x -> x^-1."""
        actor = GroupTable.cyclic(2)
        ident = tuple(range(carrier.order))
        inv = tuple(carrier.inv(x) for x in carrier.elements())
        return cls(actor, carrier, [ident, inv])


def validate_action(a):
    """Automorphism property, identity map and composition law, exhaustively."""
    rep = Report("group action")
    actor, carrier, maps = a.actor, a.carrier, a.maps
    alab, clab = actor.labels, carrier.labels
    rep.add_first_witness("ACT-automorphism", _automorphism_witnesses(a))
    ident = tuple(range(carrier.order))
    rep.add_first_witness(
        "ACT-identity", () if maps[0] == ident else (Witness(("e",), (), "map", "id"),)
    )
    composition = (
        Witness((alab[g], alab[h], clab[x]), (), clab[gh_x], clab[maps[g][maps[h][x]]])
        for g, h in product(actor.elements(), repeat=2)
        for x in ident
        if (gh_x := maps[actor.table[g][h]][x]) != maps[g][maps[h][x]]
    )
    rep.add_first_witness("ACT-composition", composition)
    return rep


def _automorphism_witnesses(a):
    """A map that is not a bijection of the carrier, or (g, x, y) with
    g(x y) != g(x) g(y)."""
    carrier = a.carrier
    clab, ctable = carrier.labels, carrier.table
    for g in a.actor.elements():
        m = a.maps[g]
        if sorted(m) != list(range(carrier.order)):
            yield Witness((a.actor.labels[g],), (), "map", "bijection")
        for x, y in product(range(carrier.order), repeat=2):
            if m[ctable[x][y]] != ctable[m[x]][m[y]]:
                yield Witness(
                    (a.actor.labels[g], clab[x], clab[y]),
                    (),
                    clab[m[ctable[x][y]]],
                    clab[ctable[m[x]][m[y]]],
                )
