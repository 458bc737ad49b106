"""Exact scalars and based linear algebra.

Every structure map in this library (multiplication, comultiplication,
counit, antipode, crossing, action, coaction, braiding) is a LinMap: a
sparse exact matrix between based vector spaces.  Every composite of them,
an axiom's side or a construction, is a Chain of leg-wise stages pushed
through in blocks of basis vectors, and a law over many grade tuples is
one Chain family with a segment per tuple; Chain.matrices() is the one
place a composite becomes matrices.  Axioms compare two Chains for literal
equality, so the arithmetic must be exact: scalars live in Q (as an int
when integral, a Fraction otherwise) or in a prime field GF(p) (as
canonical representatives in [0, p)).  compose, kron, kron_all, leg_perm
and swap_map build whole matrices; they are public API and the tests'
independent reference for Chain, and the library does not use them.

Basis labels are tuples of string atoms.  Tensor products concatenate
label tuples (product_labels), and the ground field k carries the empty
tuple (), so k (x) V, V (x) k and V have literally identical labels and
the monoidal structure is strict: unitors and associators are identity
matrices.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate, chain as concat, product, repeat
from math import prod
from operator import add, eq, floordiv, getitem, mod, mul, sub

from .errors import DomainMismatch, FieldError, NotInvertible

#: A basis label: a tuple of atoms. () labels the one-dimensional ground field.
Label = tuple

#: Label list of the ground field k viewed as a based space.
K_LABELS = ((),)


def default_labels(n, prefix=""):
    """Canonical labels ("<prefix>0",), ..., ("<prefix>n-1",)."""
    return tuple((f"{prefix}{i}",) for i in range(n))


def _is_prime(n):
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _rational(x):
    """Canonical form of a rational number: int when integral, else Fraction."""
    if type(x) is int:
        return x
    if x.denominator == 1:
        return int(x.numerator)
    return x


class Rationals:
    """The field Q.

    A scalar is a plain int when it is integral and a Fraction only
    otherwise, and every operation returns that canonical form.  Fraction
    compares and hashes equal to int, so equality of entries is that of
    the rationals; the int form spares the integral structure constants
    of the usual examples the cost of Fraction arithmetic, and of loading
    fractions at all: only the branches that may make a Fraction (scalar,
    div, inv of anything but 1 and -1, parse of anything but "[-]digits")
    import it.
    """

    name = "Q"
    zero = 0
    one = 1

    def scalar(self, value):
        """value, an int, a rational or the text of one, as a Q scalar; a float is refused."""
        if type(value) is int:
            return value
        from fractions import Fraction

        if isinstance(value, float):
            raise FieldError(f"float {value!r} is not an exact rational")
        try:
            return _rational(Fraction(value))
        except (TypeError, ValueError, ArithmeticError) as exc:
            raise FieldError(f"{value!r} is not a rational") from exc

    def add(self, a, b):
        c = a + b
        return c if type(c) is int else _rational(c)

    def sub(self, a, b):
        c = a - b
        return c if type(c) is int else _rational(c)

    def mul(self, a, b):
        c = a * b
        return c if type(c) is int else _rational(c)

    def neg(self, a):
        return _rational(-a)

    def div(self, a, b):
        if b == 0:
            raise FieldError("division by zero")
        from fractions import Fraction

        return _rational(Fraction(a) / b)

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        if type(a) is int and a * a == 1:  # the units of Z, their own inverses
            return a
        from fractions import Fraction

        return _rational(1 / Fraction(a))

    def parse(self, text):
        """A scalar from its text: "a/b", or any literal Fraction reads.

        Only text is accepted: a JSON number such as 0.1 or true would be
        read through a binary float or as a bool, not as written.  The
        usual ASCII "[-]digits" literal takes the int path."""
        if type(text) is not str:
            raise FieldError(f"rational literal {text!r} is not a string")
        try:
            if text.isascii() and text.removeprefix("-").isdigit():
                return int(text)
            from fractions import Fraction

            return _rational(Fraction(text))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def fmt(self, a):
        return str(a)

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "Rationals()"


class PrimeField:
    """GF(p) for prime p; scalars are ints reduced to [0, p)."""

    def __init__(self, p):
        if not isinstance(p, int) or not _is_prime(p):
            raise FieldError(f"GF modulus must be prime, got {p!r}")
        self.p = p
        self.name = f"GF:{p}"
        self.zero = 0
        self.one = 1 % p

    def scalar(self, value):
        """value mod p, for a value that QQ.scalar reads as an integer."""
        value = QQ.scalar(value)
        if type(value) is not int:
            raise FieldError(f"{value} is not an integer, so not a GF({self.p}) scalar")
        return value % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def parse(self, text):
        if type(text) is not str:
            raise FieldError(f"GF({self.p}) literal {text!r} is not a string")
        try:
            value = int(text)
        except ValueError as exc:
            raise FieldError(f"bad GF({self.p}) literal {text!r}") from exc
        if not 0 <= value < self.p:
            raise FieldError(f"GF({self.p}) scalar {value} outside [0, {self.p})")
        return value

    def fmt(self, a):
        return str(a % self.p)

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


QQ = Rationals()


def field_from_name(name):
    """Parse a field tag: "Q" or "GF:<p>", p in canonical decimal text (the
    text a saved field is written back as)."""
    if type(name) is not str:
        raise FieldError(f"field tag {name!r} is not a string")
    if name == "Q":
        return QQ
    if name.startswith("GF:"):
        digits = name[3:]
        if not (digits.isdecimal() and str(int(digits)) == digits):
            raise FieldError(f"bad field tag {name!r}")
        return PrimeField(int(digits))
    raise FieldError(f"unknown field tag {name!r}")


class LinMap:
    """Sparse exact matrix with labeled domain and codomain bases.

    rows x cols matrix acting on column vectors; entries holds only the
    nonzero coefficients, keyed by (row, col), over GF(p) reduced to
    [0, p).  An entry is an int, or over Q also a rational such as a
    Fraction, else FieldError (a bool, float or text).  Equality is that of
    the dense matrix together with the basis labels.
    """

    __slots__ = ("field", "rows", "cols", "entries", "dom", "cod")

    def __init__(self, field, rows, cols, entries, dom=None, cod=None):
        dom = default_labels(cols) if dom is None else tuple(dom)
        cod = default_labels(rows) if cod is None else tuple(cod)
        if len(dom) != cols or len(cod) != rows:
            raise DomainMismatch(
                f"label lists ({len(cod)}, {len(dom)}) do not match shape ({rows}, {cols})"
            )
        p = field.p if type(field) is PrimeField else None
        clean = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DomainMismatch(f"entry index ({i}, {j}) outside {rows}x{cols}")
            if type(value) is not int:  # over Q also a rational
                if p or type(value) is bool or not hasattr(value, "denominator"):
                    raise FieldError(f"entry {value!r} at ({i}, {j}) is not a {field.name} scalar")
            if p:
                value %= p
            if value:
                clean[(i, j)] = value
        self.field = field
        self.rows = rows
        self.cols = cols
        self.entries = clean
        self.dom = dom
        self.cod = cod

    # -- constructors -------------------------------------------------

    @classmethod
    def from_rows(cls, field, rowdata, dom=None, cod=None):
        """Build from a dense list of rows of scalars."""
        rows = len(rowdata)
        cols = len(rowdata[0]) if rows else 0
        entries = {}
        for i, row in enumerate(rowdata):
            if len(row) != cols:
                raise DomainMismatch("ragged row data")
            for j, value in enumerate(row):
                value = field.scalar(value)
                if value != field.zero:
                    entries[(i, j)] = value
        return cls(field, rows, cols, entries, dom, cod)

    @classmethod
    def identity(cls, field, labels):
        n = len(labels)
        return cls(field, n, n, {(i, i): field.one for i in range(n)}, labels, labels)

    @classmethod
    def zero_map(cls, field, cod, dom):
        return cls(field, len(cod), len(dom), {}, dom, cod)

    @classmethod
    def from_permutation(cls, field, perm, dom, cod=None):
        """Matrix of the basis permutation j -> perm[j]."""
        cod = dom if cod is None else cod
        return cls(
            field,
            len(cod),
            len(dom),
            {(perm[j], j): field.one for j in range(len(dom))},
            dom,
            cod,
        )

    # -- structure ----------------------------------------------------

    def entry(self, i, j):
        return self.entries.get((i, j), self.field.zero)

    def to_dense(self):
        grid = [[self.field.zero] * self.cols for _ in range(self.rows)]
        for (i, j), value in self.entries.items():
            grid[i][j] = value
        return grid

    def relabeled(self, dom=None, cod=None):
        return LinMap(
            self.field,
            self.rows,
            self.cols,
            self.entries,
            self.dom if dom is None else dom,
            self.cod if cod is None else cod,
        )

    def column(self, j):
        """Image of the j-th domain basis vector as a sparse dict."""
        return {i: v for (i, jj), v in self.entries.items() if jj == j}

    # -- algebra ------------------------------------------------------

    def __matmul__(self, other):
        return compose(self, other)

    def scale(self, scalar):
        field = self.field
        scalar = field.scalar(scalar)
        entries = {key: field.mul(scalar, value) for key, value in self.entries.items()}
        return LinMap(field, self.rows, self.cols, entries, self.dom, self.cod)

    def transpose(self):
        entries = {(j, i): v for (i, j), v in self.entries.items()}
        return LinMap(self.field, self.cols, self.rows, entries, self.cod, self.dom)

    def invert(self):
        return invert(self)

    # -- comparison ---------------------------------------------------

    def same_entries(self, other):
        """Dense-matrix equality, ignoring basis labels."""
        return (
            self.field == other.field
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __eq__(self, other):
        if not isinstance(other, LinMap):
            return NotImplemented
        return (
            self.same_entries(other)
            and self.dom == other.dom
            and self.cod == other.cod
        )

    __hash__ = None

    def __repr__(self):
        return f"LinMap({self.rows}x{self.cols}, {len(self.entries)} nonzero, {self.field.name})"


def compose(f, g):
    """The composite f . g (apply g first); needs domain(f) == codomain(g)."""
    if f.field != g.field:
        raise DomainMismatch("maps over different fields")
    if f.cols != g.rows or f.dom != g.cod:
        raise DomainMismatch(
            f"cannot compose {f.rows}x{f.cols} with {g.rows}x{g.cols}: "
            "inner dimensions or basis labels disagree"
        )
    field = f.field
    g_by_row = {}
    for (k, j), value in g.entries.items():
        g_by_row.setdefault(k, []).append((j, value))
    out = {}
    for (i, k), a in f.entries.items():
        row = g_by_row.get(k)
        if not row:
            continue
        for j, b in row:
            key = (i, j)
            acc = out.get(key)
            term = field.mul(a, b)
            out[key] = term if acc is None else field.add(acc, term)
    return LinMap(field, f.rows, g.cols, out, g.dom, f.cod)


def kron(f, g):
    """Kronecker product; left factor index varies slowest, labels concatenate."""
    if f.field != g.field:
        raise DomainMismatch("maps over different fields")
    field = f.field
    entries = {}
    for (i1, j1), a in f.entries.items():
        for (i2, j2), b in g.entries.items():
            entries[(i1 * g.rows + i2, j1 * g.cols + j2)] = field.mul(a, b)
    dom = tuple(la + lb for la in f.dom for lb in g.dom)
    cod = tuple(la + lb for la in f.cod for lb in g.cod)
    return LinMap(field, f.rows * g.rows, f.cols * g.cols, entries, dom, cod)


def kron_all(first, *rest):
    out = first
    for factor in rest:
        out = kron(out, factor)
    return out


def invert(f):
    """Exact inverse by Gauss-Jordan elimination; raises NotInvertible with rank."""
    if f.rows != f.cols:
        raise DomainMismatch("only square maps can be inverted")
    n = f.rows
    field = f.field
    a = f.to_dense()
    b = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    rank = 0
    for col in range(n):
        pivot = None
        for r in range(rank, n):
            if a[r][col] != field.zero:
                pivot = r
                break
        if pivot is None:
            continue
        a[rank], a[pivot] = a[pivot], a[rank]
        b[rank], b[pivot] = b[pivot], b[rank]
        scale = field.inv(a[rank][col])
        a[rank] = [field.mul(scale, v) for v in a[rank]]
        b[rank] = [field.mul(scale, v) for v in b[rank]]
        for r in range(n):
            if r == rank:
                continue
            factor = a[r][col]
            if factor == field.zero:
                continue
            a[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(a[r], a[rank])]
            b[r] = [field.sub(v, field.mul(factor, w)) for v, w in zip(b[r], b[rank])]
        rank += 1
    if rank < n:
        raise NotInvertible(f"matrix has rank {rank} < {n}", rank=rank)
    # domain and codomain labels swap on inversion
    return LinMap.from_rows(field, b, dom=f.cod, cod=f.dom)


def swap_map(field, labels_a, labels_b):
    """The flip A (x) B -> B (x) A on based spaces given by their labels."""
    return leg_perm(field, [labels_a, labels_b], (1, 0))


def leg_perm(field, legs, order):
    """Permutation of tensor legs.

    legs is a sequence of label lists; order[j] names the input leg that
    lands in output slot j.  Returns the permutation matrix
    (x) legs -> (x) [legs[i] for i in order].
    """
    if sorted(order) != list(range(len(legs))):
        raise DomainMismatch(f"{order!r} is not a permutation of the legs")
    dims = [len(labels) for labels in legs]
    out_dims = [dims[i] for i in order]
    entries = {}
    for multi in product(*[range(d) for d in dims]):
        col = 0
        for d, idx in zip(dims, multi):
            col = col * d + idx
        row = 0
        for slot, src in enumerate(order):
            row = row * out_dims[slot] + multi[src]
        entries[(row, col)] = field.one
    dom = product_labels(legs)
    cod = product_labels([legs[i] for i in order])
    total = prod(dims)
    return LinMap(field, total, total, entries, dom, cod)


def product_labels(legs):
    """Basis labels of the tensor product of legs, left leg slowest; a
    label is a tuple, so one leg is its own product."""
    out = legs[0] if legs else K_LABELS
    for leg in legs[1:]:
        out = [a + b for a in out for b in leg]
    return tuple(out)


# -- leg-wise evaluation -------------------------------------------------------
#
# A tensor product of based spaces is given by its legs, each leg the label
# tuple of one factor; the ground field k is the empty product and has no
# legs.  A basis vector of the product is named by its flat position, which
# counts with the left leg slowest, as kron and leg_perm do; its label
# concatenates the legs' labels in leg order.


def _stack_size(stack):
    """The size of the legs of a stack: an int if they all have it, else
    the tuple of their sizes."""
    return _uniform(tuple(map(len, stack)))


def _uniform(sizes):
    """sizes[0] if every entry of sizes equals it, else sizes."""
    return sizes[0] if sizes.count(sizes[0]) == len(sizes) else sizes


def _times(a, b):
    """a * b for sizes that are ints or tuples of one int per segment."""
    if type(a) is int and type(b) is int:
        return a * b
    a, b = (repeat(x) if type(x) is int else x for x in (a, b))
    return _uniform(tuple(map(mul, a, b)))


def _product(sizes):
    out = 1
    for size in sizes:
        out = _times(out, size)
    return out


def flat_label(legs, flat):
    """Basis label of flat position `flat` in the tensor product of legs."""
    out = ()
    for labels in reversed(legs):
        flat, idx = divmod(flat, len(labels))
        out = labels[idx] + out
    return out


class LegMap:
    """A LinMap read as a map between tensor products of legs.

    f must carry the labels that kron would give the products of dom_legs
    and cod_legs, so a flat position in f's own bases is a flat position
    in the product of its legs.  The check costs the size of f's own bases,
    never the size of a chain the map is used in.  dom and cod, when
    given, are those products as a signature carries them (gchq.map_legs,
    yd.module_legs): f's labels are compared with them and nothing is
    rebuilt, and a map labelled with those very tuples passes at once.

    For an identity map columns is None, and a chain passes its legs
    through.  Otherwise columns holds {input position: [(output position,
    scalar), ...]}, sorted by output position, with no key for a zero
    column.  Whether the map is monomial (every column holds exactly one
    entry, and that entry is field.one) is decided once: if it is, dest
    lists over f's own domain the output position of each column (an
    identity's dest is range(cols)).  Every structure map of a loop or
    group algebra, and of the constructions on them, is monomial.  Any
    other map, scaled, with a zero column or with a column of several
    entries, has dest = None and is read through columns.
    """

    __slots__ = ("map", "dom_legs", "cod_legs", "columns", "dest", "_stacks")

    def __init__(self, f, dom_legs, cod_legs, dom=None, cod=None):
        dom_legs = tuple(map(tuple, dom_legs))
        cod_legs = tuple(map(tuple, cod_legs))
        sides = ((f.dom, dom_legs, dom, "domain"), (f.cod, cod_legs, cod, "codomain"))
        for labels, legs, expected, side in sides:
            if expected is None:
                expected = product_labels(legs)
            if labels is not expected and labels != expected:
                raise DomainMismatch(f"{side} labels of {f!r} are not the product of its legs")
        self.map = f
        self.dom_legs = dom_legs
        self.cod_legs = cod_legs
        self._stacks = {}
        self.columns, self.dest = None, range(f.cols)
        entries, n = f.entries, f.cols
        rows, cols = zip(*entries) if entries else ((), ())
        unit = all(map(eq, entries.values(), repeat(f.field.one)))
        if dom_legs == cod_legs and rows == cols and len(cols) == n and unit:
            return  # the identity
        columns = self.columns = {}
        for (i, j), value in entries.items():
            columns.setdefault(j, []).append((i, value))
        if not (unit and len(columns) == len(entries) == n):  # not monomial
            for images in columns.values():
                images.sort()
            self.dest = None
            return
        self.dest = list(map(dict(zip(cols, rows)).__getitem__, range(n)))

    def stacked(self, segments):
        """(dom stacks, cod stacks, cod sizes) of the map serving every one
        of `segments` segments of a family: each leg repeated per segment.
        Kept per segment count, as a chain asks for them at every then()."""
        out = self._stacks.get(segments)
        if out is None:
            out = self._stacks[segments] = (
                tuple([(leg,) * segments for leg in self.dom_legs]),
                tuple([(leg,) * segments for leg in self.cod_legs]),
                tuple(map(len, self.cod_legs)),
            )
        return out

    def __repr__(self):
        return f"LegMap({len(self.dom_legs)} -> {len(self.cod_legs)} legs, {self.map!r})"


class Stack:
    """A factor that differs from segment to segment of a family: one
    LegMap per segment, maps[k] on segment k (Chain.then).

    Its facts are read once, when it is built, for every then() it enters:
    field, which all maps must share; dom_legs and cod_legs, stacked like
    a family's legs (one tuple of a leg per segment at each leg position),
    and cod_dims as a chain keeps them; cols and rows, an int where all
    segments share it, else the tuple of them; identity, true when every
    map is an identity; and shared, the map when every segment has the
    same one, else None (and then only maps and shared are set, as a chain
    reads the one map).  A stack of monomial maps keeps dest, each
    segment's dest list (range(cols) for an identity); any other stack has
    dest = None and is read through maps[k]."""

    __slots__ = (
        "maps", "field", "dom_legs", "cod_legs", "cod_dims", "cols", "rows", "identity",
        "shared", "dest",
    )

    def __init__(self, maps):
        self.maps = maps = tuple(maps)
        if not maps:
            raise DomainMismatch("a stack holds one map for each segment")
        distinct = tuple(dict.fromkeys(maps))  # a law draws its K maps from a few
        self.shared = maps[0] if len(distinct) == 1 else None
        self.field = self.dom_legs = self.cod_legs = self.cod_dims = self.cols = self.rows = None
        self.identity = self.dest = None
        if self.shared is not None:
            return  # a chain reads the one map
        fields = [f.map.field for f in distinct]
        if fields.count(fields[0]) != len(fields):
            raise DomainMismatch("maps over different fields")
        self.field = fields[0]
        n_dom, n_cod = len(distinct[0].dom_legs), len(distinct[0].cod_legs)
        if any([len(f.dom_legs) != n_dom or len(f.cod_legs) != n_cod for f in distinct]):
            raise DomainMismatch("a stack's maps differ in their number of legs")
        self.dom_legs = tuple([tuple([f.dom_legs[j] for f in maps]) for j in range(n_dom)])
        self.cod_legs = tuple([tuple([f.cod_legs[j] for f in maps]) for j in range(n_cod)])
        sizes = {tuple(map(len, f.cod_legs)) for f in distinct}
        self.cod_dims = sizes.pop() if len(sizes) == 1 else tuple(map(_stack_size, self.cod_legs))
        cols, rows = {f.map.cols for f in distinct}, {f.map.rows for f in distinct}
        self.cols = cols.pop() if len(cols) == 1 else tuple([f.map.cols for f in maps])
        self.rows = rows.pop() if len(rows) == 1 else tuple([f.map.rows for f in maps])
        self.identity = all([f.columns is None for f in distinct])
        if all([f.dest is not None for f in distinct]):
            self.dest = tuple([f.dest for f in maps])

    def __len__(self):
        return len(self.maps)

    def __repr__(self):
        return f"Stack({len(self.maps)} segments, {self.maps[0]!r}, ...)"


def _misfit(pos, stop, legs):
    return DomainMismatch(
        f"cannot apply a factor to legs {pos}..{stop - 1} of a family with "
        f"{len(legs)} legs: dimensions or basis labels disagree in a segment"
    )


#: Domain basis vectors a Chain pushes through its stages together.  A
#: block bounds the memory of one evaluation whatever the domain's size.
BLOCK = 1024


class Chain:
    """A composite of leg-wise stages, applied without building its matrix;
    or a family of them, one law over all its grade tuples.

    Chain(field, legs) is the identity of the tensor product of legs;
    then() and permute() return the chain followed by one more stage:

    - then(f1, ..., fm) applies f1 (x) ... (x) fm, where each fi is a
      LegMap acting on the next len(fi.dom_legs) legs, left factor on the
      leftmost (slowest) legs; the Kronecker product is never built.
    - permute(*order) reorders the legs; order[j] names the leg that lands
      in slot j, as in leg_perm.  The identity order, and a then() of
      identities only, add no stage.

    Both check the stage boundary like compose: the legs must agree in
    number and basis labels, or DomainMismatch is raised.

    Every chain is a family: the direct sum of K segments, one composite
    per grade tuple of a law, all with the same number of legs; a plain
    chain is the family of one segment.  Chain.family(field, stacks)
    starts a family, each of stacks holding one leg per segment (leg k on
    segment k), and a factor of then() may be a Stack of K LegMaps, one
    per segment (or a sequence of them, made a Stack), where a single
    LegMap serves every segment; a chain of one segment meeting a Stack
    becomes a family of copies of itself.  The domain of a family is its
    segments' domains one after the other; a flat position in it is read
    as (segment, position in the segment), and every stage acts on the
    position within the segment.  A family is built and evaluated once for
    all its segments, and no segment has a Chain of its own; the labels of
    its legs are only read for the boundary checks and a witness
    (segment_legs(k), for segment k of any chain).
    dom_dims and cod_dims hold the size of each leg: an int where the
    segments agree, else the tuple of the segments' sizes; dom_ends holds
    the flat domain position where each segment's columns end.

    A stage is recorded once, as (monomial, terms).  Each term is one
    factor, a run of identity legs, or a run of legs a permutation keeps
    together, as (s, n, t, f): its input digit of a position x is
    x // s % n (n is None for the leftmost run, where x // s suffices),
    f is its LegMap, a Stack of one LegMap per segment, or None for
    identity legs, and its output digit lands at output stride t, so a
    stage sends x to the sum over its terms of f(digit) * t.  Where the
    segments differ in size at a stage, s, n and t there are tuples of one
    size per segment.  A stage is monomial when every f is None or has a
    dest; permutations always are.  No stage holds a table over its
    domain.

    block(cols) is the one evaluator: it pushes a block of flat domain
    positions through the stages together.  While the stages are
    monomial, each column stays one position, its scalar field.one, and a
    stage runs as a few C-level map passes over the block per term
    (_flat_stage); the block falls back to sparse dicts {position: scalar}
    at the first other stage (_apply_kron).  Arithmetic goes through
    field.mul and field.add, and exact zeros are dropped at every stage
    boundary.  dom_blocks() yields the domain in column order, BLOCK
    columns at a time across segment boundaries (whole segments when they
    are small); column() evaluates a single column through block(),
    matrices() every column, one LinMap per segment, and matrix() that of
    a chain of one segment.
    """

    __slots__ = (
        "field", "segments", "dom_stacks", "cod_stacks", "stages", "dom_dims", "cod_dims",
        "dom_size", "dom_ends",
    )

    def __init__(self, field, legs):
        self._start(field, tuple((tuple(leg),) for leg in legs), 1)

    @classmethod
    def family(cls, field, stacks):
        """The identity family on stacks, each a sequence of one leg per
        segment; a family on no legs has one segment."""
        stacks = tuple(map(tuple, stacks))
        segments = len(stacks[0]) if stacks else 1
        if any(len(stack) != segments for stack in stacks):
            raise DomainMismatch(f"a stacked leg does not hold a leg for each of {segments}")
        out = cls.__new__(cls)
        out._start(field, stacks, segments)
        return out

    def _start(self, field, stacks, segments):
        self.field, self.segments, self.stages = field, segments, ()
        self.dom_stacks = self.cod_stacks = stacks
        self.dom_dims = self.cod_dims = tuple(map(_stack_size, stacks))
        size = self.dom_size = _product(self.dom_dims)  # an int, or one per segment
        self.dom_ends = tuple(accumulate(repeat(size, segments) if type(size) is int else size))

    @property
    def rows(self):
        return self._total(self.cod_dims)

    @property
    def cols(self):
        return self.dom_ends[-1]

    @property
    def cod_size(self):  # an int, or one per segment, as dom_size
        return _product(self.cod_dims)

    def _total(self, dims):
        size = _product(dims)
        return size * self.segments if type(size) is int else sum(size)

    def segment_legs(self, k):
        """(dom_legs, cod_legs) of segment k."""
        return tuple(s[k] for s in self.dom_stacks), tuple(s[k] for s in self.cod_stacks)

    def then(self, *factors):
        segments = self.segments
        for f in factors:
            if type(f) is not LegMap and len(f) != 1:
                if segments != len(f) and segments != 1:
                    raise DomainMismatch(
                        f"a factor for {len(f)} segments on a family of {segments}"
                    )
                segments = len(f)
        field, legs = self.field, self.cod_stacks
        if segments != self.segments:  # one segment, copied for each of a Stack's
            legs = tuple(leg * segments for leg in legs)
        runs = []  # [input size, factor or None for a run of identity legs, output size]
        monomial = True
        pos = 0
        cod_stacks, cod_dims = (), ()
        for f in factors:
            if type(f) is not LegMap:
                if type(f) is not Stack:
                    f = Stack(f if len(f) == segments else f * segments)
                f = f if f.shared is None else f.shared
            if type(f) is LegMap:  # one map for every segment
                dom, cod, sizes = f.stacked(segments)
                stop = pos + len(dom)
                if legs[pos:stop] != dom:
                    raise _misfit(pos, stop, legs)
                f_field, n, m, identity = f.map.field, f.map.cols, f.map.rows, f.columns is None
                cod_stacks += cod
                cod_dims += sizes
            else:
                stop = pos + len(f.dom_legs)
                if f.dom_legs != legs[pos:stop]:
                    raise _misfit(pos, stop, legs)
                f_field, n, m, identity = f.field, f.cols, f.rows, f.identity
                cod_stacks += f.cod_legs
                cod_dims += f.cod_dims
            if f_field is not field and f_field != field:
                raise DomainMismatch("maps over different fields")
            if not identity:
                runs.append([n, f, m])
                monomial = monomial and f.dest is not None
            elif runs and runs[-1][1] is None:
                runs[-1][0] = _times(runs[-1][0], n)  # merge runs of identity legs
            else:
                runs.append([n, None, None])
            pos = stop
        if pos != len(legs):
            raise DomainMismatch(f"factors cover {pos} of the chain's {len(legs)} legs")
        stage = None if len(runs) == 1 and runs[0][1] is None else (monomial, _terms(runs))
        return self._extend(stage, cod_stacks, cod_dims, segments)

    def permute(self, *order):
        if sorted(order) != list(range(len(self.cod_stacks))):
            raise DomainMismatch(f"{order!r} is not a permutation of the legs")
        if order == tuple(range(len(order))):
            return self
        dims = self.cod_dims
        out_dims = [dims[i] for i in order]
        runs = []  # [first leg, stop leg, output slot of the first leg]
        for slot, leg in enumerate(order):
            if runs and runs[-1][1] == leg:
                runs[-1][1] += 1
            else:
                runs.append([leg, leg + 1, slot])
        terms = tuple(
            (_product(dims[stop:]), _product(dims[start:stop]) if start else None,
             _product(out_dims[slot + stop - start:]), None)
            for start, stop, slot in sorted(runs)
        )
        cod_stacks = tuple(self.cod_stacks[i] for i in order)
        return self._extend((True, terms), cod_stacks, tuple(out_dims), self.segments)

    def _extend(self, stage, cod_stacks, cod_dims, segments):
        """The chain followed by stage (None adds none) onto cod_stacks of
        sizes cod_dims, a family of `segments` when the chain is one
        segment copied."""
        out = Chain.__new__(Chain)
        out.field, out.segments, out.dom_dims = self.field, segments, self.dom_dims
        out.dom_stacks, out.dom_size, out.dom_ends = self.dom_stacks, self.dom_size, self.dom_ends
        if segments != self.segments:
            out.dom_stacks = tuple(leg * segments for leg in self.dom_stacks)
            out.dom_ends = tuple(accumulate(repeat(self.dom_size, segments)))
        out.stages = self.stages if stage is None else self.stages + (stage,)
        out.cod_stacks, out.cod_dims = cod_stacks, cod_dims
        return out

    def dom_blocks(self):
        """Flat positions of the domain basis vectors in column order, as
        ranges of at most BLOCK; in a family of segments of at most BLOCK
        columns each, a block holds whole segments."""
        total, step, size = self.cols, BLOCK, self.dom_size
        if type(size) is int and 0 < size <= BLOCK:
            step = size * (BLOCK // size)
        for start in range(0, total, step):
            yield range(start, min(start + step, total))

    def locate(self, cols):
        """The segment of each flat domain position in cols, and the
        position within it, as two lists."""
        size, ends = self.dom_size, self.dom_ends
        if type(cols) is range and cols:
            k = bisect_right(ends, cols.start)
            if cols[-1] < ends[k]:  # within segment k
                start = cols.start - (ends[k - 1] if k else 0)
                return [k] * len(cols), list(range(start, start + len(cols)))
            if type(size) is int and cols.start % size == len(cols) % size == 0:
                first, whole = cols.start // size, len(cols) // size  # whole segments
                seg = concat.from_iterable(map(repeat, range(first, first + whole), repeat(size)))
                return list(seg), list(range(size)) * whole
        seg = list(map(bisect_right, repeat(ends), cols))
        starts = (0, *ends)
        return seg, list(map(sub, cols, map(starts.__getitem__, seg)))

    def block(self, cols, located=None):
        """Images of the domain basis vectors at flat positions cols, as
        (monomial, images), each a position within its segment's
        codomain.  If monomial, images lists one position per column, the
        image being that basis vector with scalar field.one.  Otherwise
        images holds one sparse dict {position: scalar} per column.
        located, locate(cols) of a chain on the same domain, is read as is."""
        field = self.field
        seg, positions = self.locate(cols) if located is None else located
        stages = iter(self.stages)
        for monomial, terms in stages:
            if not monomial:
                one = field.one
                vecs = _sparse_stage(field, terms, [{x: one} for x in positions], seg)
                for _, terms in stages:
                    vecs = _sparse_stage(field, terms, vecs, seg)
                return False, vecs
            positions = _flat_stage(terms, positions, seg)
        return True, positions

    def column(self, j):
        """Image of the j-th domain basis vector as a sparse dict {row: scalar}."""
        if not 0 <= j < self.cols:
            raise DomainMismatch(f"basis index {j} outside dimension {self.cols}")
        monomial, (image,) = self.block((j,))
        return {image: self.field.one} if monomial else image

    def matrix(self):
        """The composite of a chain of one segment as a LinMap (matrices())."""
        if self.segments != 1:
            raise DomainMismatch(f"a family of {self.segments} segments is not one map")
        return self.matrices()[0]

    def matrices(self):
        """Each segment's composite as a LinMap, in segment order, evaluated
        through block() in column order; its bases carry the labels kron
        would give the products of the segment's domain and codomain legs.
        The library's one way to turn a composite into matrices."""
        field, segments = self.field, self.segments
        entries = [{} for _ in range(segments)]
        for cols in self.dom_blocks():
            seg, within = self.locate(cols)
            monomial, images = self.block(cols)
            if monomial:
                for j, k, i in zip(within, seg, images):
                    entries[k][(i, j)] = field.one
            else:
                for j, k, vec in zip(within, seg, images):
                    for i, v in vec.items():
                        entries[k][(i, j)] = v
        out, known = [], {}  # segments on the same legs share their labels
        for k in range(segments):
            sides = []
            for legs in self.segment_legs(k):
                key = tuple(map(id, legs))
                if key not in known:
                    known[key] = product_labels(legs)
                sides.append(known[key])
            dom, cod = sides
            out.append(LinMap(field, len(cod), len(dom), entries[k], dom, cod))
        return out

    def __repr__(self):
        family = f"{self.segments} segments, " if self.segments != 1 else ""
        return (
            f"Chain({family}{len(self.dom_stacks)} -> {len(self.cod_stacks)} legs, "
            f"{len(self.stages)} stages, {self.field.name})"
        )


def _terms(runs):
    """The terms of a stage from its runs [input size, factor or None,
    output size], left to right."""
    terms = []
    s = t = 1
    for n, f, m in reversed(runs):
        terms.append((s, n, t, f))
        if f is None:
            m = n
        if type(s) is type(t) is type(n) is type(m) is int:
            s, t = s * n, t * m
        else:
            s, t = _times(s, n), _times(t, m)
    s, _, t, f = terms[-1]
    terms[-1] = (s, None, t, f)  # the leftmost run needs no mod
    terms.reverse()
    return tuple(terms)


def _lookup(lists, digits, seg):
    """lists[k][digit] for each column's segment k and digit."""
    return map(getitem, map(lists.__getitem__, seg), digits)


def _spread(sizes, seg):
    """The size of each column's segment, from sizes by segment."""
    return map(sizes.__getitem__, seg)


def _flat_stage(terms, positions, seg=None):
    """One monomial stage on a block of positions, all in range; seg holds
    each column's segment in a family.  Each term is a chain of C-level
    map passes over the block: floordiv and mod for its digit,
    dest.__getitem__ for its factor (a stack's dest of each column's
    segment), then mul and add by its output stride.  Every factor is
    monomial, so each column lands on one output position with scalar
    field.one, and the stage returns the list of those positions."""
    out = None
    for s, n, t, f in terms:
        if s != 1:
            digits = map(floordiv, positions, repeat(s) if type(s) is int else _spread(s, seg))
        else:
            digits = positions
        if n is not None:
            digits = map(mod, digits, repeat(n) if type(n) is int else _spread(n, seg))
        if f is not None:
            if type(f) is Stack:
                digits = _lookup(f.dest, digits, seg)
            else:
                digits = map(f.dest.__getitem__, digits)
        if t != 1:
            digits = map(mul, digits, repeat(t) if type(t) is int else _spread(t, seg))
        out = digits if out is None else map(add, out, digits)
    return list(out)


def _sparse_stage(field, terms, vecs, seg):
    """One stage on sparse vectors {position: scalar}, vecs[i] of segment
    seg[i]; terms as in Chain, read on each segment once (_segment_term)."""
    on = {}
    out = []
    for vec, k in zip(vecs, seg):
        resolved = on.get(k)
        if resolved is None:
            resolved = on[k] = [_segment_term(term, k) for term in terms]
        out.append(_apply_kron(field, resolved, vec))
    return out


def _apply_kron(field, terms, vec):
    """One stage on a sparse vector {position: scalar}; terms as in Chain
    on one segment, read through each factor's columns."""
    mul, add, zero = field.mul, field.add, field.zero
    out = {}
    for x, coeff in vec.items():
        partial = [(0, coeff)]
        for s, n, t, f in terms:
            digit = x // s if n is None else x // s % n
            if f is None:
                shift = digit * t
                partial = [(key + shift, v) for key, v in partial]
                continue
            images = f.columns.get(digit)
            if images is None:
                break
            partial = [(key + o * t, mul(v, w)) for key, v in partial for o, w in images]
        else:
            for key, v in partial:
                acc = out.get(key)
                out[key] = v if acc is None else add(acc, v)
    return {key: v for key, v in out.items() if v != zero}


def _segment_term(term, k):
    """A family's term as it acts on segment k: the sizes and the map of k."""
    s, n, t, f = term
    s, n, t = (size if size is None or type(size) is int else size[k] for size in (s, n, t))
    if type(f) is Stack:
        f = f.maps[k]
        if f.columns is None:  # an identity among the stack's maps
            f = None
    return s, n, t, f
