"""Exact scalars and based linear algebra.

Every structure map in this library (multiplication, comultiplication,
counit, antipode, crossing, action, coaction, braiding) is a LinMap: a
sparse exact matrix between based vector spaces.  Every composite of them,
an axiom's side or a construction, is a Chain of leg-wise stages pushed
through in blocks of basis vectors; Chain.matrix() is the one place a
composite becomes a matrix.  Axioms compare two Chains for literal
equality, so the arithmetic must be exact: scalars live in Q (as an int
when integral, a Fraction otherwise) or in a prime field GF(p) (as
canonical representatives in [0, p)).  compose, kron, kron_all, leg_perm
and swap_map build whole matrices; they are public API and the tests'
independent reference for Chain, and the library does not use them.

Basis labels are tuples of string atoms.  Tensor products concatenate
label tuples, and the ground field k carries the empty tuple (), so
k (x) V, V (x) k and V have literally identical labels and the monoidal
structure is strict: unitors and associators are identity matrices.
"""

from __future__ import annotations

from itertools import compress, count, product, repeat
from math import prod
from operator import add, eq, floordiv, mod, mul

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
        if type(value) is int:
            return value
        from fractions import Fraction

        return _rational(Fraction(value))

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
        return int(value) % self.p

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
    [0, p).  Equality is that of the dense matrix together with the basis
    labels.
    """

    __slots__ = ("field", "rows", "cols", "entries", "dom", "cod")

    def __init__(self, field, rows, cols, entries, dom=None, cod=None):
        dom = default_labels(cols) if dom is None else tuple(dom)
        cod = default_labels(rows) if cod is None else tuple(cod)
        if len(dom) != cols or len(cod) != rows:
            raise DomainMismatch(
                f"label lists ({len(cod)}, {len(dom)}) do not match shape ({rows}, {cols})"
            )
        if type(field) is PrimeField:
            p = field.p
            entries = {key: value % p for key, value in entries.items()}
        clean = {}
        for (i, j), value in entries.items():
            if not (0 <= i < rows and 0 <= j < cols):
                raise DomainMismatch(f"entry index ({i}, {j}) outside {rows}x{cols}")
            if value != field.zero:
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
    """Basis labels of the tensor product of legs, left leg slowest."""
    if len(legs) == 1:  # a label is a tuple, so one leg is its own product
        return tuple(legs[0])
    return tuple(sum(multi, ()) for multi in product(*legs))


# -- leg-wise evaluation -------------------------------------------------------
#
# A tensor product of based spaces is given by its legs, each leg the label
# tuple of one factor; the ground field k is the empty product and has no
# legs.  A basis vector of the product is named by its flat position, which
# counts with the left leg slowest, as kron and leg_perm do; its label
# concatenates the legs' labels in leg order.


def _dims(legs):
    return tuple(map(len, legs))


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
    never the size of a chain the map is used in.

    For an identity map columns, dest and scale are all None, and a chain
    passes its legs through.  Otherwise columns holds {input position:
    [(output position, scalar), ...]} with no key for a zero column.
    Whether the map is monomial (every column has at most one nonzero
    entry) is decided once: if it is, dest lists over f's own domain the
    output position of each column, or -1 for a zero column, and scale
    lists the column scalars (field.zero on a zero column) only when some
    scalar is not field.one; loop and group algebras keep no scale.  A
    map that is not monomial has dest = scale = None.
    """

    __slots__ = ("map", "dom_legs", "cod_legs", "columns", "dest", "scale")

    def __init__(self, f, dom_legs, cod_legs):
        dom_legs = tuple(tuple(leg) for leg in dom_legs)
        cod_legs = tuple(tuple(leg) for leg in cod_legs)
        for labels, legs, side in ((f.dom, dom_legs, "domain"), (f.cod, cod_legs, "codomain")):
            if len(labels) != prod(_dims(legs)) or labels != product_labels(legs):
                raise DomainMismatch(f"{side} labels of {f!r} are not the product of its legs")
        self.map = f
        self.dom_legs = dom_legs
        self.cod_legs = cod_legs
        self.columns = self.dest = self.scale = None
        one = f.field.one
        if dom_legs == cod_legs and f.entries == {(i, i): one for i in range(f.rows)}:
            return
        columns = {}
        for (i, j), value in sorted(f.entries.items()):
            columns.setdefault(j, []).append((i, value))
        self.columns = columns
        if any(len(images) != 1 for images in columns.values()):
            return
        dest = [-1] * f.cols
        scale = [f.field.zero] * f.cols
        for j, ((i, value),) in columns.items():
            dest[j] = i
            scale[j] = value
        self.dest = dest
        if any(images[0][1] != one for images in columns.values()):
            self.scale = scale

    def __repr__(self):
        return f"LegMap({len(self.dom_legs)} -> {len(self.cod_legs)} legs, {self.map!r})"


#: Domain basis vectors a Chain pushes through its stages together.  A
#: block bounds the memory of one evaluation whatever the domain's size.
BLOCK = 1024


class Chain:
    """A composite of leg-wise stages, applied without building its matrix.

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

    A stage is recorded once, as (monomial, terms).  Each term is one
    factor, a run of identity legs, or a run of legs a permutation keeps
    together, as (s, n, t, f): its input digit of a flat position x is
    x // s % n (n is None for the leftmost run, where x // s suffices),
    f is its LegMap or None for identity legs, and its output digit lands
    at output stride t, so a stage sends x to the sum over its terms of
    f(digit) * t.  A stage is monomial when every f is None or has a dest;
    permutations always are.  No stage holds a table over its domain.

    block(cols) is the one evaluator: it pushes a block of flat domain
    positions through the stages together.  While the stages are
    monomial, each column stays one flat position with one scalar, and a
    stage runs as a few C-level map passes over the block per term
    (_flat_stage); the block falls back to sparse dicts {flat position:
    scalar} at the first other stage (_apply_kron).  Arithmetic goes
    through field.mul and field.add, and exact zeros are dropped at every
    stage boundary.  dom_blocks() yields the domain in column order, BLOCK
    columns at a time; column() evaluates a single column through block(),
    and matrix() every column.
    """

    __slots__ = ("field", "dom_legs", "cod_legs", "stages", "_dom_dims", "_cod_dims")

    def __init__(self, field, legs):
        self.field = field
        self.dom_legs = self.cod_legs = tuple(tuple(leg) for leg in legs)
        self.stages = ()
        self._dom_dims = self._cod_dims = _dims(self.dom_legs)

    @property
    def rows(self):
        return prod(self._cod_dims)

    @property
    def cols(self):
        return prod(self._dom_dims)

    def then(self, *factors):
        field, legs = self.field, self.cod_legs
        runs = []  # [input size, LegMap or None for a run of identity legs]
        monomial = True
        pos = 0
        cod_legs = ()
        for f in factors:
            stop = pos + len(f.dom_legs)
            if f.map.field is not field and f.map.field != field:
                raise DomainMismatch("maps over different fields")
            if f.dom_legs != legs[pos:stop]:
                raise DomainMismatch(
                    f"cannot apply {f!r} to legs {pos}..{stop - 1} of a chain with "
                    f"{len(legs)} legs: dimensions or basis labels disagree"
                )
            if f.columns is not None:
                runs.append([f.map.cols, f])
                monomial = monomial and f.dest is not None
            elif runs and runs[-1][1] is None:
                runs[-1][0] *= f.map.cols  # merge runs of identity legs
            else:
                runs.append([f.map.cols, None])
            cod_legs += f.cod_legs
            pos = stop
        if pos != len(legs):
            raise DomainMismatch(f"factors cover {pos} of the chain's {len(legs)} legs")
        if len(runs) == 1 and runs[0][1] is None:
            return self
        terms = []
        s = t = 1
        for n, f in reversed(runs):
            terms.append((s, n, t, f))
            s *= n
            t *= n if f is None else f.map.rows
        s, _, t, f = terms[-1]
        terms[-1] = (s, None, t, f)  # the leftmost run needs no mod
        terms.reverse()
        return self._extend((monomial, tuple(terms)), cod_legs)

    def permute(self, *order):
        if sorted(order) != list(range(len(self.cod_legs))):
            raise DomainMismatch(f"{order!r} is not a permutation of the legs")
        if order == tuple(range(len(order))):
            return self
        dims = self._cod_dims
        out_dims = [dims[i] for i in order]
        runs = []  # [first leg, stop leg, output slot of the first leg]
        for slot, leg in enumerate(order):
            if runs and runs[-1][1] == leg:
                runs[-1][1] += 1
            else:
                runs.append([leg, leg + 1, slot])
        terms = tuple(
            (prod(dims[stop:]), prod(dims[start:stop]) if start else None,
             prod(out_dims[slot + stop - start:]), None)
            for start, stop, slot in sorted(runs)
        )
        return self._extend((True, terms), tuple(self.cod_legs[i] for i in order))

    def _extend(self, stage, cod_legs):
        out = Chain.__new__(Chain)
        out.field, out.dom_legs, out._dom_dims = self.field, self.dom_legs, self._dom_dims
        out.stages, out.cod_legs, out._cod_dims = self.stages + (stage,), cod_legs, _dims(cod_legs)
        return out

    def dom_blocks(self):
        """Flat positions of the domain basis vectors in column order, as
        ranges of at most BLOCK."""
        total = self.cols
        for start in range(0, total, BLOCK):
            yield range(start, min(start + BLOCK, total))

    def block(self, cols):
        """Images of the domain basis vectors at flat positions cols, as
        (monomial, images).  If monomial, images is (positions, scalars):
        one flat codomain position per column, -1 for a column that has
        vanished, and one scalar per column (field.zero where it has
        vanished), or None when every column that has not vanished has
        scalar field.one.  Otherwise
        images holds one sparse dict {flat position: scalar} per column."""
        field = self.field
        positions, scalars, dead = list(cols), None, set()
        stages = iter(self.stages)
        for monomial, terms in stages:
            if not monomial:
                one = field.one
                vecs = [{x: one} for x in positions] if scalars is None else [
                    {x: v} for x, v in zip(positions, scalars)
                ]
                for i in dead:
                    vecs[i] = {}
                vecs = [_apply_kron(field, terms, vec) for vec in vecs]
                for _, terms in stages:
                    vecs = [_apply_kron(field, terms, vec) for vec in vecs]
                return False, vecs
            if len(dead) < len(positions):  # else the next space may be empty
                positions, scalars, lost = _flat_stage(field, terms, positions, scalars)
                dead.update(lost)
        if dead:
            for i in dead:
                positions[i] = -1
            if len(dead) == len(positions):
                scalars = None
            elif scalars is not None:
                for i in dead:
                    scalars[i] = field.zero
        return True, (positions, scalars)

    def column(self, j):
        """Image of the j-th domain basis vector as a sparse dict {row: scalar}."""
        if not 0 <= j < self.cols:
            raise DomainMismatch(f"basis index {j} outside dimension {self.cols}")
        monomial, images = self.block((j,))
        if not monomial:
            return images[0]
        (x,), scalars = images
        return {} if x < 0 else {x: self.field.one if scalars is None else scalars[0]}

    def matrix(self):
        """The composite as a LinMap, evaluated through block() in column
        order; its bases carry the labels kron would give the products of
        the domain and codomain legs.  The library's one way to turn a
        composite into a matrix."""
        entries = {}
        for cols in self.dom_blocks():
            monomial, images = self.block(cols)
            if monomial:
                positions, scalars = images
                if scalars is None:
                    scalars = repeat(self.field.one)
                for j, i, v in zip(cols, positions, scalars):
                    if i >= 0:
                        entries[(i, j)] = v
            else:
                for j, vec in zip(cols, images):
                    for i, v in vec.items():
                        entries[(i, j)] = v
        dom, cod = product_labels(self.dom_legs), product_labels(self.cod_legs)
        return LinMap(self.field, self.rows, self.cols, entries, dom, cod)

    def __repr__(self):
        return (
            f"Chain({len(self.dom_legs)} -> {len(self.cod_legs)} legs, "
            f"{len(self.stages)} stages, {self.field.name})"
        )


def _flat_stage(field, terms, positions, scalars):
    """One monomial stage on a block of flat positions, all in range, with
    their scalars (None when all are field.one).  Each term is a chain of
    C-level map passes over the block: floordiv and mod for its digit,
    dest.__getitem__ for its factor, then mul and add by its output
    stride.  A product of nonzero scalars is nonzero, so a column vanishes
    only where a dest holds -1; only factors with zero columns look for
    that.  Returns (positions, scalars, lost), where lost lists the block
    indices that vanished here; their positions are set to 0, a position
    of the output space, so the next stage can run over the whole block."""
    out = None
    lost = ()
    for s, n, t, f in terms:
        digits = positions if s == 1 else map(floordiv, positions, repeat(s))
        if n is not None:
            digits = map(mod, digits, repeat(n))
        if f is not None:
            if f.scale is not None:
                digits = list(digits)
                factor = list(map(f.scale.__getitem__, digits))
                scalars = factor if scalars is None else list(map(field.mul, scalars, factor))
            digits = map(f.dest.__getitem__, digits)
            if len(f.columns) < len(f.dest):
                digits = list(digits)
                if -1 in digits:
                    lost = [*lost, *compress(count(), map(eq, digits, repeat(-1)))]
        if t != 1:
            digits = map(mul, digits, repeat(t))
        out = digits if out is None else map(add, out, digits)
    out = list(out)
    for i in lost:
        out[i] = 0
    return out, scalars, lost


def _apply_kron(field, terms, vec):
    """One stage on a sparse vector {flat position: scalar}; terms as in
    Chain, read through each factor's columns."""
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
