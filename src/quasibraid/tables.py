"""Finite groups, inverse-property loops and automorphic actions as Cayley tables.

Element 0 is always the identity.  Validators are exhaustive over all
pairs/triples and report the first offending witness; multiplication
tables of interesting nonassociative loops (the 16-element unit loop of
the octonion basis) are generated here.
"""

from __future__ import annotations

from itertools import permutations, product

from .errors import QuasibraidError
from .report import Report, Witness

# Lines of the seven-point plane in the index convention e_i e_{i+1} = e_{i+3};
# cyclically ordered, so a pair read forward multiplies with a plus sign.
_OCT_LINES = tuple(
    ((n % 7) + 1, ((n + 1) % 7) + 1, ((n + 3) % 7) + 1) for n in range(7)
)


class GroupTable:
    """Finite group given by its Cayley table over element indices."""

    __slots__ = ("order", "labels", "table", "inverse")

    def __init__(self, labels, table):
        self.order = len(labels)
        self.labels = tuple(str(s) for s in labels)
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        if len(self.table) != self.order or any(
            len(row) != self.order for row in self.table
        ):
            raise QuasibraidError("Cayley table shape does not match order")
        self.inverse = self._inverse_table()

    def _inverse_table(self):
        inv = []
        for x in range(self.order):
            found = None
            for y in range(self.order):
                if self.table[x][y] == 0 and self.table[y][x] == 0:
                    found = y
                    break
            inv.append(found)
        return tuple(inv)

    def mul(self, x, y):
        return self.table[x][y]

    def inv(self, x):
        y = self.inverse[x]
        if y is None:
            raise QuasibraidError(f"element {self.labels[x]} has no two-sided inverse")
        return y

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        if not isinstance(other, GroupTable):
            return NotImplemented
        return self.labels == other.labels and self.table == other.table

    __hash__ = None

    def __repr__(self):
        return f"GroupTable(order={self.order})"

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

    @classmethod
    def direct_product(cls, a, b):
        return cls(*_direct_product_table(a, b))


def _direct_product_table(a, b):
    """Labels and Cayley table of the direct product of two tables, pairs
    (i, j) indexed i * |b| + j."""
    labels = [f"({a.labels[i]},{b.labels[j]})" for i in range(a.order) for j in range(b.order)]
    table = [
        [
            a.table[i][k] * b.order + b.table[j][l]
            for k in range(a.order)
            for l in range(b.order)
        ]
        for i in range(a.order)
        for j in range(b.order)
    ]
    return labels, table


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


class LoopTable:
    """Quasigroup with two-sided identity, given by its Cayley table.

    Left and right inverse tables are the unique solutions of y*x = e and
    x*y = e when the table is a Latin square; entries are None where no
    solution exists so validators can report the failure.
    """

    __slots__ = ("order", "labels", "table", "left_inverse", "right_inverse")

    def __init__(self, labels, table):
        self.order = len(labels)
        self.labels = tuple(str(s) for s in labels)
        self.table = tuple(tuple(int(v) for v in row) for row in table)
        if len(self.table) != self.order or any(
            len(row) != self.order for row in self.table
        ):
            raise QuasibraidError("Cayley table shape does not match order")
        left, right = [], []
        for x in range(self.order):
            left.append(next((y for y in range(self.order) if self.table[y][x] == 0), None))
            right.append(next((y for y in range(self.order) if self.table[x][y] == 0), None))
        self.left_inverse = tuple(left)
        self.right_inverse = tuple(right)

    def mul(self, x, y):
        return self.table[x][y]

    def elements(self):
        return range(self.order)

    def __eq__(self, other):
        if not isinstance(other, LoopTable):
            return NotImplemented
        return self.labels == other.labels and self.table == other.table

    __hash__ = None

    def __repr__(self):
        return f"LoopTable(order={self.order})"

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

    @classmethod
    def direct_product(cls, a, b):
        return cls(*_direct_product_table(a, b))


def validate_group(t):
    """Exhaustive group axioms: closure, identity, inverses, associativity."""
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
        else Witness((labels[bad[0]], labels[bad[1]]), (), str(t.table[bad[0]][bad[1]]), "in range"),
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


def validate_ip_loop(t):
    """Quasigroup, identity and inverse-property checks; Moufang and
    associativity are reported informationally and may fail."""
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

    # Moufang identity (xy)(zx) = (x(yz))x; informational only
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


def conjugate(t, p, q):
    """p * q * p^-1 in a group table."""
    return t.mul(t.mul(p, q), t.inv(p))


class GroupAction:
    """A group acting on a group or loop by table automorphisms.

    maps[g] is the permutation of carrier elements implementing g; the
    validator checks each map preserves the carrier table and that maps
    compose along the actor's multiplication.
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
