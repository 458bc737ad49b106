"""Finite groups, inverse-property loops and automorphic actions as Cayley tables.

Element 0 is always the identity.  GroupTable and LoopTable share one
core (entry, label and shape checks, mul, elements, equality, the direct
product, row and column gathers) and add only their inverse tables and
constructors.  Every group, loop and action law is stated once, as a
stream of counterexample Witnesses in index order, first argument
slowest, recorded by Report.add_first_witness: the first one fails the
check.  The pair and triple laws are checked one table row at a time by
_law_witnesses: with the first argument fixed, both sides over the other
arguments are built by gathers (C-level itemgetter calls over a row or
column) and compared whole, and only sides that differ are searched for
witnesses.  A gather reads a negative entry from the end of a row, so it
runs only on entries bounded already (GRP-closure, or the range check of
a LoopTable or GroupAction).  The octonion unit loop is generated here.
"""

from itertools import chain, compress, count, filterfalse, permutations, product, repeat, starmap
from operator import getitem, itemgetter, ne

from .errors import QuasibraidError
from .report import Report, Witness

# Lines of the seven-point plane in the index convention e_i e_{i+1} = e_{i+3};
# cyclically ordered, so a pair read forward multiplies with a plus sign.
_OCT_LINES = tuple((n % 7 + 1, (n + 1) % 7 + 1, (n + 3) % 7 + 1) for n in range(7))


def _require_indices(rows, n, what):
    """Raise QuasibraidError if an entry of rows lies outside [0, n)."""
    if not all(map(frozenset(range(n)).issuperset, rows)):
        raise QuasibraidError(f"{what} entry outside [0, {n})")


def _int_rows(rows, what):
    """rows as tuples of ints.  Any other entry is refused, not converted:
    int() would read 1.7, True and "1" all as 1."""
    rows = tuple(map(tuple, rows))
    if any(k is bool or not issubclass(k, int) for k in set(map(type, chain(*rows)))):
        bad = next(v for v in chain(*rows) if type(v) is bool or not isinstance(v, int))
        raise QuasibraidError(f"{what} entry {bad!r} is not an int")
    return rows


def _gathers_of(lines):
    """For each of some lines of indices, all of one length, a gather that
    reads a sequence at them into a tuple: itemgetter, but a tuple for one
    index too."""
    lines = tuple(lines)
    if lines and len(lines[0]) < 2:
        return tuple(lambda seq, line=line: tuple(map(seq.__getitem__, line)) for line in lines)
    return tuple(starmap(itemgetter, lines))


class _CayleyTable:
    """A finite set with a multiplication given by its Cayley table over
    element indices; a subclass reads it as a group or a loop and keeps
    its own inverse tables."""

    __slots__ = ("order", "labels", "table", "_gather_cache")

    def __init__(self, labels, table):
        self.order = len(labels)
        if not self.order:
            raise QuasibraidError("a Cayley table needs element 0, the identity")
        self.labels = tuple(str(s) for s in labels)
        if len(set(self.labels)) != self.order:
            dup = next(s for i, s in enumerate(self.labels) if s in self.labels[:i])
            raise QuasibraidError(f"duplicate element label {dup!r}")
        self.table = _int_rows(table, "Cayley table")
        if len(self.table) != self.order or any(len(r) != self.order for r in self.table):
            raise QuasibraidError("Cayley table shape does not match order")
        self._gather_cache = [None, None]

    def _gathers(self, columns=False):
        """The gathers of the rows, rows[x](s) being s read at x y over y,
        or of the columns; each built on first use."""
        cache = self._gather_cache
        if cache[columns] is None:
            cache[columns] = _gathers_of(zip(*self.table) if columns else self.table)
        return cache[columns]

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

    __slots__ = ("inverse", "_conjugates")

    def __init__(self, labels, table):
        super().__init__(labels, table)
        n, table = self.order, self.table
        self.inverse = tuple(
            next((y for y in range(n) if table[x][y] == 0 and table[y][x] == 0), None)
            for x in range(n)
        )
        self._conjugates = None

    def inv(self, x):
        y = self.inverse[x]
        if y is None:
            raise QuasibraidError(f"element {self.labels[x]} has no two-sided inverse")
        return y

    def conjugates(self):
        """rows[p][q] = conjugate(self, p, q), the table built on first use."""
        n = self.elements()
        self._conjugates = self._conjugates or [[conjugate(self, p, q) for q in n] for p in n]
        return self._conjugates

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
        table = [[index[tuple(p[i] for i in q)] for q in perms] for p in perms]
        return cls(labels, table)


def _cycle_label(perm):
    """The cycles of perm, each from its least point, or "e"."""
    parts, seen = [], set()
    for start in filterfalse(seen.__contains__, range(len(perm))):  # each cycle once
        cycle = [start]
        while perm[cycle[-1]] != start:
            cycle.append(perm[cycle[-1]])
        if len(cycle) > 1:
            parts.append("(" + " ".join(map(str, cycle)) + ")")
        seen.update(cycle)
    return "".join(parts) or "e"


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
        _require_indices(self.table, self.order, "loop table")
        self.left_inverse = tuple(c.index(0) if 0 in c else None for c in zip(*self.table))
        self.right_inverse = tuple(r.index(0) if 0 in r else None for r in self.table)

    @classmethod
    def from_group(cls, g):
        return cls(g.labels, g.table)

    @classmethod
    def octonion_units(cls):
        """The 16-element loop {+-1, +-e1..+-e7} of octonion basis units."""
        labels = [s + u for s in ("", "-") for u in ["1"] + [f"e{k}" for k in range(1, 8)]]

        # unit 8s + k is (-1)^s e_k: e0 is 1, e_k e_k = -1, and each line (a, b, c)
        # gives e_a e_b = e_c cyclically and -e_c the other way round
        base = [[i + j if i * j == 0 else 8 for j in range(8)] for i in range(8)]
        for a, b, c in _OCT_LINES:
            for x, y, z in ((a, b, c), (b, c, a), (c, a, b)):
                base[x][y], base[y][x] = z, 8 + z
        table = [[base[i % 8][j % 8] ^ ((i ^ j) & 8) for j in range(16)] for i in range(16)]
        return cls(labels, table)


# -- validators ------------------------------------------------------------


def _law_witnesses(domains, values, lhs, rhs, args=()):
    """Witnesses of a law given side against side: lhs and rhs hold (or
    yield) the two sides for each element of the argument after args, as
    tuples over the later arguments nested one level per argument.  Only
    sides that differ are searched, last argument fastest; a witness names
    argument k by its label in domains[k] and the entries by values."""
    for a, left, right in zip(count(), lhs, rhs):
        if left == right:
            continue
        if len(args) + 2 < len(domains):
            yield from _law_witnesses(domains, values, left, right, args + (a,))
        else:
            at = tuple(map(getitem, domains, args + (a,)))
            for b in compress(count(), map(ne, left, right)):
                yield Witness(at + (domains[-1][b],), (), values[left[b]], values[right[b]])


def _identity_witnesses(t):
    """x with e x != x or x e != x."""
    labels, table = t.labels, t.table
    return (
        Witness((labels[x],), (), labels[table[0][x]], labels[x])
        for x in t.elements()
        if table[0][x] != x or table[x][0] != x
    )


def _assoc_witnesses(t):
    """(x, y, z) with (x y) z != x (y z), entries in range: for each x, the
    rows of the x y against row x read at each row y."""
    labels, table, rows = t.labels, t.table, t._gathers()
    lhs = (gather(table) for gather in rows)
    rhs = (tuple([row_y(row_x) for row_y in rows]) for row_x in table)
    return _law_witnesses((labels,) * 3, labels, lhs, rhs)


def validate_group(t):
    """Exhaustive group axioms: closure, identity, inverses, associativity."""
    rep = Report(f"group table ({t.order} elements)")
    labels, table, n = t.labels, t.table, t.order
    in_range = frozenset(range(n))
    closure = (
        Witness((labels[x], labels[y]), (), str(v), "in range")
        for x, row in enumerate(table)
        if not in_range.issuperset(row)
        for y, v in enumerate(row)
        if v not in in_range
    )
    if not rep.add_first_witness("GRP-closure", closure):
        return rep
    rep.add_first_witness("GRP-identity", _identity_witnesses(t))
    no_inverse = (
        Witness((labels[x],), (), "no inverse", "inverse")
        for x, y in enumerate(t.inverse)
        if y is None
    )
    rep.add_first_witness("GRP-inverse", no_inverse)
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


def _ip_witnesses(labels, table, gathers, inverse):
    """(x, y) with x^-1 (x y) != y, x^-1 read from inverse and gathers
    those of the rows of table.  On the transposed table with right
    inverses and the column gathers this is (y x) x^-1 != y."""
    got = (gather(table[i]) for gather, i in zip(gathers, inverse))
    return _law_witnesses((labels, labels), labels, got, repeat(tuple(range(len(table)))))


def _moufang_witnesses(t, transpose):
    """(x, y, z) with (x y)(z x) != (x (y z)) x.  For each x the left side
    is each row x y read at column x, the right side each row y read at
    (x w) x over w."""
    labels, table, rows, cols = t.labels, t.table, t._gathers(), t._gathers(columns=True)
    lhs = (tuple(map(col, row(table))) for row, col in zip(rows, cols))
    xwx = [row(col_x) for row, col_x in zip(rows, transpose)]  # (x w) x over w, per x
    rhs = (tuple([row_y(f) for row_y in rows]) for f in xwx)
    return _law_witnesses((labels,) * 3, labels, lhs, rhs)


def required_loop_laws(t):
    """The IP-loop laws, loop_algebra's gate: latin rows and columns and identity
    (nothing more if one fails), two-sided inverses, IP-left and IP-right."""
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
        rows, cols = t._gathers(), t._gathers(columns=True)
        rep.add_first_witness("LOOP-IP-left", _ip_witnesses(labels, table, rows, left))
        rep.add_first_witness("LOOP-IP-right", _ip_witnesses(labels, transpose, cols, right))
    else:
        rep.add("LOOP-IP-left", False, detail="needs two-sided inverses")
        rep.add("LOOP-IP-right", False, detail="needs two-sided inverses")
    return rep


def validate_ip_loop(t):
    """required_loop_laws, then Moufang and associativity, still reported
    informationally (they may fail) once the latin and identity checks pass."""
    rep = required_loop_laws(t)
    if rep.find("LOOP-IP-right") is not None:
        moufang = _moufang_witnesses(t, tuple(zip(*t.table)))
        rep.add_first_witness("LOOP-moufang", moufang, required=False)
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
        self.maps = _int_rows(maps, "action map")
        if len(self.maps) != actor.order or any(len(m) != carrier.order for m in self.maps):
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
        return (self.actor, self.carrier, self.maps) == (other.actor, other.carrier, other.maps)

    __hash__ = None

    @classmethod
    def trivial(cls, actor, carrier):
        return cls(actor, carrier, [carrier.elements()] * actor.order)

    @classmethod
    def by_inversion(cls, carrier):
        """C2 acting on an abelian group by x -> x^-1."""
        elements = carrier.elements()
        return cls(GroupTable.cyclic(2), carrier, [elements, map(carrier.inv, elements)])


def validate_action(a):
    """Automorphism property, identity map and composition law, exhaustively."""
    rep = Report("group action")
    by_map = _gathers_of(a.maps)
    rep.add_first_witness("ACT-automorphism", _automorphism_witnesses(a, by_map))
    rep.add_first_witness(
        "ACT-identity",
        () if a.maps[0] == tuple(a.carrier.elements()) else (Witness(("e",), (), "map", "id"),),
    )
    rep.add_first_witness("ACT-composition", _composition_witnesses(a, by_map))
    return rep


def _composition_witnesses(a, by_map):
    """(g, h, x) with (g h) x != g (h x), by_map the gathers of the maps:
    for each g, the maps of the g h against map g read at each map h."""
    lhs = (gather(a.maps) for gather in a.actor._gathers())
    rhs = (tuple([map_h(m) for map_h in by_map]) for m in a.maps)
    domains = (a.actor.labels, a.actor.labels, a.carrier.labels)
    return _law_witnesses(domains, a.carrier.labels, lhs, rhs)


def _automorphism_witnesses(a, by_map):
    """A map that is not a bijection of the carrier, or (g, x, y) with
    g(x y) != g(x) g(y), by_map the gathers of the maps: for each g, map g
    read at each row x against the rows g(x) read at map g."""
    carrier = a.carrier
    clab, rows = carrier.labels, carrier._gathers()
    domains = (a.actor.labels, clab, clab)
    for g, m, gather in zip(count(), a.maps, by_map):
        if sorted(m) != list(range(carrier.order)):
            yield Witness((a.actor.labels[g],), (), "map", "bijection")
        lhs, rhs = tuple([row(m) for row in rows]), tuple(map(gather, gather(carrier.table)))
        yield from _law_witnesses(domains, clab, lhs, rhs, (g,))
