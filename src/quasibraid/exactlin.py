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

from array import array
from bisect import bisect_right
from functools import lru_cache, reduce
from itertools import accumulate, chain as concat, compress, count, product, repeat
from math import isqrt, prod
from operator import add, attrgetter, eq, floordiv, getitem, mod, mul, ne, sub

from .errors import DomainMismatch, FieldError, NotInvertible

#: A basis label: a tuple of atoms. () labels the one-dimensional ground field.
Label = tuple

#: Label list of the ground field k viewed as a based space.
K_LABELS = ((),)


def default_labels(n, prefix=""):
    """Canonical labels ("<prefix>0",), ..., ("<prefix>n-1",)."""
    return tuple((f"{prefix}{i}",) for i in range(n))


#: the largest |exponent| of a Q literal, as Fraction("1e999999999") computes 10**999999999:
#: CPython's default int_max_str_digits, which Python 3.10 cannot report
_EXPONENT_BOUND = 4300


def _is_prime(n):
    """Deterministic Miller-Rabin over the primes to 37: exact below 3.18 * 10**23."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 38:
        return n in bases
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 is an odd number times 2**r
    for a in bases:
        x = pow(a, (n - 1) >> r, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
            _, e, exponent = text.lower().rpartition("e")
            if e and abs(int(exponent)) > _EXPONENT_BOUND:
                raise FieldError(f"rational literal {text!r}: exponent beyond {_EXPONENT_BOUND}")
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
        if isinstance(p, int) and p >= 2**64:  # where _is_prime may err
            raise FieldError(f"GF modulus must be below 2^64, got a {p.bit_length()}-bit number")
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
        if len(digits) > 20:  # 2^64 has 20 digits, and int() of 5000 raises ValueError
            raise FieldError(f"a GF modulus has at most 20 digits, not {len(digits)}")
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
        """The same matrix between bases labelled anew; its entries, checked
        when it was built, are copied as they are."""
        dom, cod = self.dom if dom is None else dom, self.cod if cod is None else cod
        out = LinMap(self.field, self.rows, self.cols, {}, dom, cod)
        out.entries = dict(self.entries)
        return out

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
    return reduce(kron, rest, first)


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


#: How many products product_labels keeps: 64 * 64, one per comultiplication pair of a
#: grading of up to 64 elements, so a signature finds those its maps were labelled with.
_PRODUCTS_KEPT = 4096


def product_labels(legs):
    """Basis labels of the tensor product of legs, left leg slowest; a label
    is a tuple, so one leg is its own product.  A product of more legs is
    built once and kept, so maps and signatures on equal legs share it."""
    if len(legs) < 2:
        return tuple(legs[0]) if legs else K_LABELS
    try:
        return _product_of(tuple(legs))
    except TypeError:  # a leg given as a list cannot be a key, so each leg is converted
        return _product_of(tuple(map(tuple, legs)))


@lru_cache(maxsize=_PRODUCTS_KEPT)
def _product_of(legs):
    out = legs[0]
    for leg in legs[1:]:
        out = [a + b for a in out for b in leg]
    return tuple(out)


# -- leg-wise evaluation -------------------------------------------------------
#
# A tensor product of based spaces is given by its legs, each leg the label
# tuple of one factor; the ground field k is the empty product and has no
# legs.  A basis vector of the product is named by its flat position, which
# counts with the left leg slowest, as kron and leg_perm do; its label
# concatenates the legs' labels in leg order.  A family of segments keeps a
# leg stack (legs, at) at each leg position: segment k's leg is legs[at[k]],
# or legs[0] on every segment where at is None (always, on one segment).


def _leg(stack, k):
    legs, at = stack
    return legs[0 if at is None else at[k]]


def _leg_size(stack):
    """The size of a stacked leg: an int if every segment's leg has it,
    else the tuple of the segments' sizes."""
    legs, at = stack
    sizes = set(map(len, legs))
    return sizes.pop() if len(sizes) == 1 else _uniform(tuple(map(len, map(legs.__getitem__, at))))


def _fits(have, want):
    """Whether two leg stacks put equal legs on every segment: at once if
    they name them alike in one list (a structure's legs by grade), else
    by the lists of the segments' legs, compared in C-level passes that
    take identical legs at once."""
    (a, i), (b, j) = have, want
    if a is b and i == j:
        return True
    n = 1 if i is None and j is None else len(i if j is None else j)
    mine = [a[0]] * n if i is None else list(map(a.__getitem__, i))
    return mine == ([b[0]] * n if j is None else list(map(b.__getitem__, j)))


def _uniform(sizes):
    """sizes[0] if every entry of sizes equals it, else sizes."""
    return sizes[0] if sizes.count(sizes[0]) == len(sizes) else sizes


def _times(a, b, op=mul):
    """op(a, b), a * b by default, for sizes that are ints or tuples of one
    int per segment."""
    if type(a) is int and type(b) is int:
        return op(a, b)
    a, b = (repeat(x) if type(x) is int else x for x in (a, b))
    return _uniform(tuple(map(op, a, b)))


def _product(sizes):
    return prod(sizes) if tuple not in map(type, sizes) else reduce(_times, sizes, 1)


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
    and cod_legs, so a flat position in its bases is one in the product of
    its legs; the check costs the size of f's bases.  dom and cod, when
    given, are those products as a signature carries them (gchq.map_legs,
    yd.module_legs); a map labelled by product_labels on the same legs has
    those very tuples and passes at once.  A monomial map (one entry,
    field.one, in every column), as every structure map of a loop or group
    algebra is, has dest, the output position of each column (range(cols)
    for an identity); any other has dest None, and the kernel reads its
    images() instead.
    A LegMap is its own factor on one segment: it carries what then()
    reads of a Stack (field, dom_stacks and cod_stacks of one leg each,
    cod_dims, identity), and alike, maps and index name it without
    storing a reference to itself.
    """

    __slots__ = (
        "map", "dom_legs", "cod_legs", "dest", "_images", "field", "dom_stacks", "cod_stacks",
        "cod_dims", "identity",
    )

    def __init__(self, f, dom_legs, cod_legs, dom=None, cod=None):
        dom_legs = tuple(map(tuple, dom_legs))
        cod_legs = tuple(map(tuple, cod_legs))
        sides = ((f.dom, dom_legs, dom, "domain"), (f.cod, cod_legs, cod, "codomain"))
        for labels, legs, expected, side in sides:
            if expected is None:
                expected = product_labels(legs)
            if labels is not expected and labels != expected:
                raise DomainMismatch(f"{side} labels of {f!r} are not the product of its legs")
        self.map, self.field, self._images = f, f.field, None
        self.dom_legs, self.cod_legs = dom_legs, cod_legs
        self.dom_stacks, self.cod_stacks = (
            tuple([((leg,), None) for leg in legs]) for legs in (dom_legs, cod_legs))
        self.cod_dims = tuple(map(len, cod_legs))
        entries, n = f.entries, f.cols
        rows, cols = zip(*entries) if entries else ((), ())
        unit = len(entries) == n and all(map(eq, entries.values(), repeat(f.field.one)))
        dest = dict(zip(cols, rows)) if unit else {}
        if not unit or len(dest) != n:
            self.dest = None  # not monomial
        elif rows == cols and dom_legs == cod_legs:
            self.dest = range(n)  # the identity
        else:
            self.dest = list(map(dest.__getitem__, range(n)))
        self.identity = type(self.dest) is range

    alike = property(lambda self: self)
    maps = property(lambda self: (self,))
    index = property(lambda self: array("I", [0]))

    def __len__(self):
        return 1

    def images(self):
        """(positions, scalars, unit, most): for each input position, the
        output positions of its column's entries in order and their
        scalars, as tuples; whether every scalar is field.one; and the most
        entries a column has.  Kept, as the kernel reads them at every block."""
        if self._images is None:
            f, one = self.map, self.map.field.one
            columns = [[] for _ in range(f.cols)]
            for (i, j), value in sorted(f.entries.items()):
                columns[j].append((i, value))
            self._images = [tuple([i for i, _ in c]) for c in columns], [
                tuple([v for _, v in c]) for c in columns], all(
                [v == one for v in f.entries.values()]), max(map(len, columns), default=0)
        return self._images

    def __repr__(self):
        return f"LegMap({len(self.dom_legs)} -> {len(self.cod_legs)} legs, {self.map!r})"


class Table(dict):
    """LegMaps by key, as a structure keeps its maps (gchq.GradedLegs,
    yd.YDModule.legs): keys are grades, or pairs of them in product order.
    legs, if given, lists the legs of the grades, and an entry's leg found
    there is named by its grade.  stack() draws the Stack of a law's grade
    tuples, on one segment the entry itself; what every Stack of many
    segments shares is worked out once (read())."""

    __slots__ = ("legs", "_read")

    def __init__(self, items, legs=None):
        dict.__init__(self, items)
        self.legs, self._read = legs, None

    def stack(self, *keys):
        """The Stack whose segment k holds the map of key (keys[0][k], ...)."""
        if len(keys[0]) == 1:
            return self[keys[0][0] if len(keys) == 1 else tuple([k[0] for k in keys])]
        out = Stack.__new__(Stack)
        out._draw(self, keys)
        return out

    def read(self):
        """(field, maps, dests, kinds, dom legs, cod legs): the entries'
        field; their distinct maps, distinct by what they do to positions
        (their leg sizes, with their dest if monomial, else their images),
        and the dest of each; by key (_gather), the number of each entry's
        map among them; and how each leg position names the legs."""
        if self._read is None:
            entries = list(self.values())
            field = entries[0].map.field
            if any([f.map.field is not field and f.map.field != field for f in entries]):
                raise DomainMismatch("maps over different fields")
            if len({(len(f.dom_legs), len(f.cod_legs)) for f in entries}) != 1:
                raise DomainMismatch("a stack's maps differ in their number of legs")
            acts = [(tuple(map(len, f.dom_legs)), tuple(map(len, f.cod_legs)), tuple(
                map(tuple, f.images()[:2]) if f.dest is None else f.dest)) for f in entries]
            first = {}
            for key, f in zip(acts, entries):
                first.setdefault(key, f)
            number, keys = dict(zip(first, count())), list(self)
            parts = [keys] if type(keys[0]) is int else [list(part) for part in zip(*keys)]
            rows = isqrt(len(keys))  # a table of pairs is kept as rows by the first grade
            shape = list if len(parts) == 1 else (
                lambda values: [values[i:i + rows] for i in range(0, len(values), rows)])
            grades = self.legs and {id(leg): g for g, leg in enumerate(self.legs)}
            dom, cod = (
                [_leg_source(legs, grades, parts, shape) for legs in zip(*map(side, entries))]
                for side in (attrgetter("dom_legs"), attrgetter("cod_legs"))
            )
            maps = tuple(first.values())
            kinds = shape(list(map(number.__getitem__, acts)))
            self._read = field, maps, tuple([f.dest for f in maps]), kinds, dom, cod
        return self._read


def _gather(values, keys):
    """The value of each segment's key: values by grade, or for pairs of
    grades by rows of the first; keys holds one list per key position."""
    if len(keys) == 1:
        return map(values.__getitem__, keys[0])
    return map(getitem, map(values.__getitem__, keys[0]), keys[1])


def _leg_source(legs, grades, parts, shape):
    """How a table's stacks name its entries' legs (legs) at one position:
    ("one", leg) when all are that leg, ("key", c) when each is the leg of
    its key's grade c, ("grade", codes) when it is that of its grade in
    codes, else ("own", legs); codes and legs by key (_gather)."""
    if all([leg is legs[0] for leg in legs]):
        return "one", legs[0]
    codes = grades and list(map(grades.get, map(id, legs)))
    if not codes or None in codes:
        return "own", shape(list(legs))
    return ("key", parts.index(codes)) if codes in parts else ("grade", shape(codes))


class Stack:
    """A factor of a Chain, as then() reads every factor: the LegMap of
    each segment of a family, as distinct maps and one small int each.

    Stack(maps) takes one LegMap per segment, and Table.stack draws one
    for a law's grade tuples; on one segment a LegMap is its own factor.
    maps holds the distinct maps, distinct by what they do to positions
    (Table.read), not by object, and the array index puts maps[index[k]]
    on segment k.  dom_stacks and cod_stacks are leg stacks with each
    segment's own legs, by grade where the table names them so.  Read
    once for every then(): field; cod_dims; alike, the map every
    segment's map acts as, if any; identity; and dest, the dest of each of
    maps if every segment's map is monomial, else None."""

    __slots__ = (
        "maps", "index", "field", "dom_stacks", "cod_stacks", "cod_dims", "alike", "identity",
        "dest",
    )

    def __init__(self, maps):
        maps = tuple(maps)
        number = dict(zip(dict.fromkeys(maps), count()))
        self._draw(Table(zip(count(), number)), [list(map(number.__getitem__, maps))])

    def _draw(self, table, keys):
        """The Stack of the map of table at key (keys[0][k], ...) on each segment k."""
        segments = len(keys[0])
        if not segments:
            raise DomainMismatch("a stack holds one map for each segment")
        self.field, self.maps, dests, kinds, dom, cod = table.read()
        if len(self.maps) == 1:
            self.index, used = array("I", [0]) * segments, {0}
        else:
            self.index = array("I", _gather(kinds, keys))
            used = set(self.index)
        acting = [dests[k] for k in used]
        self.alike = self.maps[min(used)] if len(used) == 1 else None
        self.identity = all([type(dest) is range for dest in acting])
        self.dest = dests if None not in acting else None
        read, sides = {}, []  # each list by key gathered once
        for side in (dom, cod):
            stacks = []
            for kind, value in side:
                if kind == "one":
                    stacks.append(((value,), None))
                elif kind == "key":
                    stacks.append((table.legs, keys[value]))
                else:
                    if id(value) not in read:
                        read[id(value)] = list(_gather(value, keys))
                    got = read[id(value)]
                    stacks.append((table.legs, got) if kind == "grade" else (got, range(segments)))
            sides.append(tuple(stacks))
        self.dom_stacks, self.cod_stacks = sides
        self.cod_dims = tuple(map(_leg_size, self.cod_stacks))

    def __len__(self):
        return len(self.index)

    def __repr__(self):
        return f"Stack({len(self.index)} segments, {len(self.maps)} maps, {self.maps[0]!r}, ...)"


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

    Chain(field, legs) is the identity of the tensor product of legs, and
    then() and permute() return the chain followed by one more stage:
    then(f1, ..., fm) applies f1 (x) ... (x) fm, each fi on the next legs,
    left factor on the slowest legs, without building the Kronecker
    product; permute(*order) puts leg order[j] in slot j, as leg_perm
    does.  An identity adds no stage.  Both check the boundary like
    compose, on every segment, else DomainMismatch.

    Every chain is a family: the direct sum of K segments, one composite
    per grade tuple, all with the same number of legs; a plain chain has
    one segment.  Chain.family and Chain.indexed start one from one leg
    per segment, or from leg stacks, at each leg position.  then() reads
    every factor as a Stack: a LegMap as its own factor, a list of
    LegMaps, one per segment, as Stack(maps); a chain of one segment
    meeting a factor of K becomes a family of K copies of itself.  A flat
    domain position is read as (segment, position within it), and the
    stages act within the segment.  dom_dims and cod_dims hold each leg's
    size: an int, or the tuple of the segments' sizes where they differ.

    A stage is recorded once, as (permutation, terms), each term a
    factor, a run of identity legs or a run of legs a permutation keeps
    together, as (s, n, t, f): a position x has the input digit x // s % n
    (n is None for the leftmost run), f is its LegMap, a Stack whose
    segments act differently (one whose segments act alike enters as the
    map they act as), or None for identity legs, and the output digit
    lands at stride t.  A permutation keeps each position but for its
    terms, whose t is the shift of the run's stride; a run that keeps its
    stride has no term.  s, n and t are tuples of one size per segment
    where the segments differ in size.  varying lists what differs between
    segments in how they act on positions: domain sizes, term sizes and
    Stack.index, one value per segment each.  Segments that agree in all
    of it form a class, and a law is decided on one segment of each
    (segment_classes).

    block(cols) is the one evaluator: it pushes a block of flat domain
    positions through the stages together as a frontier, the entries of
    their images as parallel lists (column, position, scalar), whose
    column and scalar lists are absent while every column has one image of
    scalar field.one, as on unit-monomial maps.  Every stage runs one
    kernel (_stage), a few C-level map passes per term whatever its maps.
    dom_blocks() yields some or all segments' columns in order, at most
    BLOCK at a time, whole segments when small; column() evaluates one
    column, matrices() one segment per class for a LinMap per segment.
    """

    __slots__ = (
        "field", "segments", "dom_stacks", "cod_stacks", "stages", "dom_dims", "cod_dims",
        "dom_size", "varying",
    )

    def __init__(self, field, legs):
        self._start(field, tuple([((tuple(leg),), None) for leg in legs]), 1)

    @classmethod
    def family(cls, field, stacks):
        """The identity family on stacks, each a sequence of one leg per
        segment; a family on no legs has one segment."""
        return cls.indexed(field, [(stack, range(len(stack))) for stack in map(tuple, stacks)])

    @classmethod
    def indexed(cls, field, stacks):
        """The identity family on leg stacks: one segment per entry of
        each at that is not None, or one segment if all are None."""
        stacks = tuple(stacks)
        lengths = {len(at) for _, at in stacks if at is not None}
        if len(lengths) > 1:
            raise DomainMismatch("stacked legs for different numbers of segments")
        segments = lengths.pop() if lengths else 1
        if segments == 1:
            stacks = tuple([((_leg(stack, 0),), None) for stack in stacks])
        out = cls.__new__(cls)
        out._start(field, stacks, segments)
        return out

    def _start(self, field, stacks, segments):
        self.field, self.segments, self.stages = field, segments, ()
        self.dom_stacks = self.cod_stacks = stacks
        self.dom_dims = self.cod_dims = tuple(map(_leg_size, stacks))
        self.dom_size = _product(self.dom_dims)  # an int, or one per segment
        self.varying = () if type(self.dom_size) is int else (self.dom_size,)

    @property
    def rows(self):
        return self._total(self.cod_dims)

    @property
    def cols(self):
        return self._total(self.dom_dims)

    @property
    def cod_size(self):  # an int, or one per segment, as dom_size
        return _product(self.cod_dims)

    def _total(self, dims):
        size = _product(dims)
        return size * self.segments if type(size) is int else sum(size)

    def segment_legs(self, k):
        """(dom_legs, cod_legs) of segment k."""
        return tuple([_leg(s, k) for s in self.dom_stacks]), tuple(
            [_leg(s, k) for s in self.cod_stacks])

    def then(self, *factors):
        segments = self.segments
        for f in factors:
            if len(f) != 1 and len(f) != segments:
                if segments != 1:
                    raise DomainMismatch(f"a factor for {len(f)} segments on {segments}")
                segments = len(f)
        field, legs, dims = self.field, self.cod_stacks, self.cod_dims
        runs = []  # [input size, factor or None for a run of identity legs, output size]
        pos = 0
        cod_stacks, cod_dims = (), ()
        for f in factors:
            if type(f) is not LegMap and type(f) is not Stack:  # a sequence of LegMaps
                f = f[0] if f.count(f[0]) == len(f) else Stack(f)
            dom, cod, sizes = f.dom_stacks, f.cod_stacks, f.cod_dims
            f_field, identity, f = f.field, f.identity, f.alike or f
            stop = pos + len(dom)
            n, have = _product(dims[pos:stop]), legs[pos:stop]
            if have != dom and (len(have) != len(dom) or not all(map(_fits, have, dom))):
                raise _misfit(pos, stop, legs)
            if f_field is not field and f_field != field:
                raise DomainMismatch("maps over different fields")
            if not identity:
                runs.append([n, f, _product(sizes)])
            elif runs and runs[-1][1] is None:
                runs[-1][0] = _times(runs[-1][0], n)  # merge runs of identity legs
            else:
                runs.append([n, None, None])
            cod_stacks += cod
            cod_dims += sizes
            pos = stop
        if pos != len(legs):
            raise DomainMismatch(f"factors cover {pos} of the chain's {len(legs)} legs")
        stage = None if len(runs) == 1 and runs[0][1] is None else (False, _terms(runs))
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
        terms = []
        for start, stop, slot in sorted(runs):
            s = _product(dims[stop:])
            shift = _times(_product(out_dims[slot + stop - start:]), s, sub)
            if shift != 0:  # a run that keeps its stride stays where it is
                terms.append((s, _product(dims[start:stop]) if start else None, shift, None))
        cod_stacks = tuple(self.cod_stacks[i] for i in order)
        return self._extend((True, tuple(terms)), cod_stacks, tuple(out_dims), self.segments)

    def _extend(self, stage, cod_stacks, cod_dims, segments):
        """The chain followed by stage (None adds none) onto cod_stacks of
        sizes cod_dims, a family of `segments` when the chain is one
        segment copied (its leg stacks serve any number)."""
        out = Chain.__new__(Chain)
        out.field, out.segments, out.dom_dims = self.field, segments, self.dom_dims
        out.dom_stacks, out.dom_size = self.dom_stacks, self.dom_size
        out.stages, out.varying = self.stages, self.varying
        if stage is not None:
            out.stages += (stage,)
            if segments != 1:
                for s, n, t, f in stage[1]:
                    if type(f) is Stack:
                        out.varying += (f.index,)
                    if type(s) is tuple or type(n) is tuple or type(t) is tuple:
                        out.varying += tuple([size for size in (s, n, t) if type(size) is tuple])
        out.cod_stacks, out.cod_dims = cod_stacks, cod_dims
        return out

    def dom_blocks(self, segments=None):
        """Flat positions of the domain basis vectors of the given segments
        (an increasing list; all by default), in column order, as ranges
        or lists of at most BLOCK; where a segment has at most BLOCK
        columns, a block holds whole segments."""
        size = self.dom_size
        segments = range(self.segments) if segments is None else segments
        if type(size) is int and 0 < size <= BLOCK:
            per = BLOCK // size
            for i in range(0, len(segments), per):
                chunk = segments[i:i + per]
                if chunk[-1] - chunk[0] == len(chunk) - 1:  # consecutive segments
                    yield range(chunk[0] * size, (chunk[-1] + 1) * size)
                else:
                    yield list(concat.from_iterable(range(k * size, (k + 1) * size) for k in chunk))
            return
        starts = (0, *accumulate(size)) if type(size) is tuple else None
        for k in segments:
            start = k * size if starts is None else starts[k]
            stop = start + (size if starts is None else size[k])
            for lo in range(start, stop, BLOCK):
                yield range(lo, min(lo + BLOCK, stop))

    def locate(self, cols):
        """The segment of each flat domain position in cols, and the
        position within it, as two lists."""
        size = self.dom_size
        if type(size) is int:
            if type(cols) is range and cols and cols.start // size == cols[-1] // size:
                k = cols.start // size  # within segment k
                start = cols.start - k * size
                return [k] * len(cols), list(range(start, start + len(cols)))
            return list(map(floordiv, cols, repeat(size))), list(map(mod, cols, repeat(size)))
        ends = list(accumulate(size))
        seg = list(map(bisect_right, repeat(ends), cols))
        starts = (0, *ends)
        return seg, list(map(sub, cols, map(starts.__getitem__, seg)))

    def block(self, cols, located=None):
        """The frontier of the images of the domain basis vectors at flat
        positions cols: (columns, positions, scalars), parallel lists of
        the images' entries, each a block column index, a position within
        that column's segment's codomain and a nonzero scalar, no two at one
        (column, position).  Columns and scalars are None while every
        column has one image of scalar field.one, positions then listing
        one per column.  located, locate(cols) of a chain on the same
        domain, is read as is."""
        seg, positions = self.locate(cols) if located is None else located
        frontier, seg = (None, positions, None), seg if self.varying else None
        for stage in self.stages:
            frontier = _stage(self.field, stage, frontier, seg)
        return frontier

    def column(self, j):
        """Image of the j-th domain basis vector as a sparse dict {row: scalar}."""
        if not 0 <= j < self.cols:
            raise DomainMismatch(f"basis index {j} outside dimension {self.cols}")
        _, rows, scalars = self.block((j,))
        return dict(zip(rows, repeat(self.field.one) if scalars is None else scalars))

    def matrix(self):
        """The composite of a chain of one segment as a LinMap (matrices())."""
        if self.segments != 1:
            raise DomainMismatch(f"a family of {self.segments} segments is not one map")
        return self.matrices()[0]

    def matrices(self):
        """Each segment's composite as a LinMap, in segment order; its
        bases carry the labels kron would give the products of the
        segment's domain and codomain legs.  One segment of each class
        (segment_classes) is evaluated, through block() in column order,
        and the others take its entries.  The library's one way to turn a
        composite into matrices."""
        field = self.field
        classes = segment_classes(self)
        entries = {k: {} for k in dict.fromkeys(classes)}
        for cols in self.dom_blocks(list(entries)):
            seg, within = located = self.locate(cols)
            at, rows, scalars = self.block(cols, located)
            if at is not None:
                seg, within = map(seg.__getitem__, at), map(within.__getitem__, at)
            for k, j, i, v in zip(seg, within, rows, scalars or repeat(field.one)):
                entries[k][(i, j)] = v
        out, known = [], {}  # segments on the same legs share their labels
        for k, c in enumerate(classes):
            sides = []
            for legs in self.segment_legs(k):
                key = tuple(map(id, legs))
                if key not in known:
                    known[key] = product_labels(legs)
                sides.append(known[key])
            dom, cod = sides
            out.append(LinMap(field, len(cod), len(dom), entries[c], dom, cod))
        return out

    def __repr__(self):
        family = f"{self.segments} segments, " if self.segments != 1 else ""
        return (
            f"Chain({family}{len(self.dom_stacks)} -> {len(self.cod_stacks)} legs, "
            f"{len(self.stages)} stages, {self.field.name})"
        )


def segment_classes(*chains):
    """The class of each segment of families with the same segments (the
    two sides of a law), named by its first segment.  Segments are in one
    class when every chain reads the same maps and sizes on them
    (Chain.varying), so that each column has the same images on both:
    a law is decided on one segment of each class."""
    varying = [values for chain in chains for values in chain.varying]
    segments = chains[0].segments
    if not varying:
        return [0] * segments
    first = {}
    keys = zip(*varying) if len(varying) > 1 else varying[0]
    return list(map(first.setdefault, keys, range(segments)))


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


def _sizes(size, seg):
    """A term's size for each entry: an int for all, or by each entry's segment."""
    return repeat(size) if type(size) is int else map(size.__getitem__, seg)


def _stage(field, stage, frontier, seg):
    """One stage on a frontier; seg holds each block column's segment in a
    family whose segments vary, else None.  Each term is a few C-level map
    passes over the entries: floordiv and mod for its digit, a gather
    through its factor's dest (for a Stack, that of each entry's map),
    then mul by its stride t and add, to the input position in a
    permutation, else to 0.  A factor without a dest instead repeats each
    entry's parent index by its column's entry count and concatenates the
    columns' images (LegMap.images), multiplying their scalars in, so an
    entry on a zero column is dropped.  One entry's images are distinct,
    so only a then() on a frontier with a column list is merged."""
    permutation, terms = stage
    cols, xs, scalars = frontier
    merge = cols is not None and not permutation
    eseg = seg if seg is None or cols is None else list(map(seg.__getitem__, cols))
    out, last = xs if permutation else None, len(terms) - 1
    for k, (s, n, t, f) in enumerate(terms):
        digits = xs if s == 1 else map(floordiv, xs, _sizes(s, eseg))
        if n is not None:
            digits = map(mod, digits, _sizes(n, eseg))
        if f is not None and f.dest is None:  # expand each entry into its column's images
            digits = list(digits)
            at, ws, most = _images(f, digits, eseg)
            counts, entries = map(len, at), range(len(at))
            parent = list(compress(entries, counts) if most < 2 else
                          concat.from_iterable(map(mul, zip(entries), counts)))
            if k < last:  # a term to the right reads the input position
                xs = list(map(xs.__getitem__, parent))
            out = out and map(list(out).__getitem__, parent)
            scalars = scalars and list(map(scalars.__getitem__, parent))
            if ws is not None:
                ws = concat.from_iterable(ws)
                scalars = list(ws) if scalars is None else list(map(field.mul, scalars, ws))
            cols = parent if cols is None else list(map(cols.__getitem__, parent))
            eseg = eseg and list(map(eseg.__getitem__, parent))
            digits = concat.from_iterable(at)
        elif type(f) is Stack:
            digits = map(getitem, map(f.dest.__getitem__, map(f.index.__getitem__, eseg)), digits)
        elif f is not None:
            digits = map(f.dest.__getitem__, digits)
        if t != 1:
            digits = map(mul, digits, _sizes(t, eseg))
        out = digits if out is None else map(add, out, digits)
    return _merged(field, cols, list(out), scalars) if merge else (cols, list(out), scalars)


def _images(f, digits, seg):
    """The output positions and the scalars of the column at each digit, of
    f, or for a Stack of each entry's segment's map: two lists of tuples,
    the second None if every scalar is field.one; and the most entries a
    column has."""
    if type(f) is Stack:
        at, ws, unit, most = zip(*[m.images() for m in f.maps])
        pick = list(map(f.index.__getitem__, seg))
        at, ws = (map(getitem, map(side.__getitem__, pick), digits) for side in (at, ws))
        unit, most = all(unit), max(most)
    else:
        at, ws, unit, most = f.images()
        at, ws = map(at.__getitem__, digits), map(ws.__getitem__, digits)
    return list(at), None if unit else list(ws), most


def _merged(field, cols, positions, scalars):
    """A frontier with each entry at the (column, position) of a later one
    added to that one by field.add, and the exact zeros that leaves
    dropped; only those entries are visited one by one."""
    keys = list(zip(cols, positions))
    last = dict(zip(keys, count()))  # the last entry at each (column, position)
    if len(last) == len(keys):
        return cols, positions, scalars
    scalars = [field.one] * len(keys) if scalars is None else scalars
    for i in set(range(len(keys))).difference(last.values()):  # a later entry has its key
        j = last[keys[i]]
        scalars[j] = field.add(scalars[i], scalars[j])
    at = last.values()  # in the order of the entries' columns
    kept = list(compress(at, map(ne, map(scalars.__getitem__, at), repeat(field.zero))))
    return tuple([list(map(side.__getitem__, kept)) for side in (cols, positions, scalars)])
