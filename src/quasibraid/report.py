"""Pass/fail reports with counterexample witnesses.

Every validator returns a Report: an ordered list of named checks.  A
check that fails on a matrix identity carries the first differing basis
pair and the two scalars, so mutation testing can point at the exact
structure constant that broke an axiom.  Check identifiers are stable
strings; consumers key off them, not off positions in the list.

The witness rule is the same whether the two sides are LinMaps
(map_witness, the tests' reference) or one segment of two Chains
(family_witnesses): among all entries where the sides differ, the one
with the smallest (row, col) in row-major order, labelled with the lhs
domain label of that column and codomain label of that row, its values
formatted with field.fmt.  A law stated as Chains is recorded as one Row
(law_checks): its ID, required flag and per grade tuple a detail, witness
and verdict, by Report.add_family, or with laws over the same tuples by
Report.add_rows, read interleaved tuple by tuple.  Verdicts, render() and
to_jobj() read the rows; a Check is built only for Report.checks, find,
add and add_map_equality, and Details are formatted when read.  Witness,
Check and Row are named tuples, each equal only to its own type's records.
"""

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress, count, islice, repeat, starmap
from operator import add, is_, lt, mul, ne

from .exactlin import flat_label, segment_classes

#: Every check identifier the library can emit, with a one-line meaning.
#: Identifiers are part of the report format: consumers key off these
#: strings, so they never change once released.
AXIOM_LEGEND = {
    "GRP-closure": "products stay inside the element set",
    "GRP-identity": "element 0 is a two-sided identity",
    "GRP-inverse": "every element has a two-sided inverse",
    "GRP-assoc": "multiplication is associative",
    "LOOP-latin-rows": "every row of the table is a permutation",
    "LOOP-latin-cols": "every column of the table is a permutation",
    "LOOP-identity": "element 0 is a two-sided identity",
    "LOOP-inverse-two-sided": "left and right inverses exist and coincide",
    "LOOP-IP-left": "x^-1 (x y) = y",
    "LOOP-IP-right": "(y x) x^-1 = y",
    "LOOP-moufang": "(x y)(z x) = (x (y z)) x; informational",
    "LOOP-assoc": "full associativity; informational",
    "ACT-automorphism": "each acting map preserves the carrier table",
    "ACT-identity": "the identity acts as the identity map",
    "ACT-composition": "maps compose along the actor multiplication",
    "HQ-unit-left": "1 x = x",
    "HQ-unit-right": "x 1 = x",
    "HQ-coassoc": "comultiplication is coassociative",
    "HQ-counit-left": "counit cancels the left comultiplication leg",
    "HQ-counit-right": "counit cancels the right comultiplication leg",
    "HQ-delta-multiplicative": "comultiplication is an algebra morphism",
    "HQ-delta-unit": "comultiplication preserves the unit",
    "HQ-epsilon-multiplicative": "counit is an algebra morphism",
    "HQ-epsilon-unit": "counit sends the unit to 1",
    "HQ-2.5-left": "antipode compensation S(h1)(h2 g) = eps(h) g",
    "HQ-2.5-right": "antipode compensation h1 (S(h2) g) = eps(h) g",
    "HQ-2.6-left": "antipode compensation (g h1) S(h2) = g eps(h)",
    "HQ-2.6-right": "antipode compensation (g S(h1)) h2 = g eps(h)",
    "HQ-assoc": "multiplication associativity; informational",
    "HQ-hopf-antipode": "associative case: S(h1) h2 = eps(h) 1; informational",
    "HQ-antipode-bijective": "the antipode matrix is invertible",
    "HQ-2.9-left": "inverse-antipode compensation S'(h2)(h1 g) = eps(h) g",
    "HQ-2.9-right": "inverse-antipode compensation h2 (S'(h1) g) = eps(h) g",
    "HQ-2.10-left": "inverse-antipode compensation (g S'(h2)) h1 = g eps(h)",
    "HQ-2.10-right": "inverse-antipode compensation g (h2 S'(h1)) = g eps(h)",
    "GHQ-component-unit-left": "component unit law 1_p x = x",
    "GHQ-component-unit-right": "component unit law x 1_p = x",
    "GHQ-delta-multiplicative": "each comultiplication is an algebra morphism",
    "GHQ-delta-unit": "each comultiplication preserves the units",
    "GHQ-epsilon-multiplicative": "the counit is an algebra morphism",
    "GHQ-epsilon-unit": "the counit sends the unit to 1",
    "GHQ-3.1-coassoc": "graded coassociativity over every grade triple",
    "GHQ-3.2-counit-left": "counit cancels the left leg of the identity grade",
    "GHQ-3.2-counit-right": "counit cancels the right leg of the identity grade",
    "GHQ-3.3-left": "graded antipode compensation on the left tensor slot",
    "GHQ-3.3-right": "graded antipode compensation, inner variant",
    "GHQ-3.4-left": "graded antipode compensation on the right tensor slot",
    "GHQ-3.4-right": "graded antipode compensation, inner variant",
    "GHQ-antipode-antimultiplicative": "S_p reverses products",
    "GHQ-antipode-unit": "S_p preserves the unit",
    "GHQ-antipode-bijective": "each S_p is invertible",
    "GHQ-3.5-sweedler-agreement": "element-wise evaluation matches the matrix pipeline",
    "CROSS-pi-bijective": "each crossing map is invertible",
    "CROSS-pi-multiplicative": "each crossing map preserves products",
    "CROSS-pi-unit": "each crossing map preserves the unit",
    "CROSS-3.7-counit": "the crossing preserves the counit",
    "CROSS-3.8-antipode": "the crossing intertwines the antipodes",
    "CROSS-3.9-comult": "the crossing intertwines the comultiplications",
    "CROSS-multiplicative": "pi_{pq} = pi_p pi_q on every component",
    "CROSS-identity": "pi_e is the identity",
    "YD-4.3-unital": "the component unit acts as the identity",
    "YD-4.4-left": "quasimodule antipode compensation, left form",
    "YD-4.4-right": "quasimodule antipode compensation, right form",
    "YD-4.1-module-assoc": "action associativity; required for strict modules",
    "YD-coassoc": "coaction family is coassociative",
    "YD-counit": "counit cancels the identity-grade coaction",
    "YD-4.5-crossed": "crossed compatibility of action and coaction",
    "YD-4.6-coassoc-right": "coaction leg reassociates with right products",
    "YD-4.7-coassoc-mixed": "coaction leg reassociates inside products",
    "YD-4.8-crossed": "crossed condition via the inverse antipode",
    "YD-4.9-crossed": "crossed condition via the inverse antipode, rebracketed",
    "YD-4.8-equivalence": "the three crossed forms agree in verdict",
    "YDM-linear": "morphism commutes with the actions",
    "YDM-colinear": "morphism commutes with every coaction",
    "CONJ-4.6-iterated": "regrading by st equals regrading by t then s",
    "CONJ-4.6-tensor": "regrading distributes over tensor products",
    "BRAID-H-linear": "braiding commutes with the tensor actions",
    "BRAID-H-colinear": "braiding commutes with every tensor coaction",
    "BRAID-2.4-conjugation": "braiding is stable under simultaneous regrading",
    "BRAID-2.1-naturality": "braiding is natural in both arguments",
    "BRAID-comp-tensor-first": "braiding of a tensor factors through its legs, first form",
    "BRAID-comp-tensor-second": "braiding with a tensor factors through its legs, second form",
    "BRAID-yang-baxter": "hexagon + naturality consequence on three modules",
    "BRAID-inverse-left": "inverse braiding after braiding is the identity",
    "BRAID-inverse-right": "braiding after inverse braiding is the identity",
    "BRAID-inverse-matrix": "matrix inversion reproduces the inverse braiding",
    "YD-grade-search": "diagnostic: candidate module at a non-identity grade",
    "YD-grade-search-summary": "diagnostic: summary of the grade search",
}


class _Record:
    """Keeps a record equal only to a record of its own type, so a Witness
    is never equal to a plain tuple of the same fields; hashing, repr,
    pickling and refusing assignment are the named tuple's own."""

    __slots__ = ()

    def __eq__(self, other):
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self.__eq__(other)

    __hash__ = tuple.__hash__


class Witness(_Record, namedtuple("Witness", "domain codomain lhs rhs")):
    """First counterexample found for a failed check.

    domain/codomain hold basis-label atoms (domain may be a tuple of
    element labels for table-level checks); lhs/rhs are the differing
    values, formatted as text.
    """

    __slots__ = ()

    def describe(self):
        dom = "(" + ",".join(str(a) for a in self.domain) + ")"
        cod = "(" + ",".join(str(a) for a in self.codomain) + ")"
        return f"at {dom} -> {cod}: {self.lhs} != {self.rhs}"

    def to_jobj(self):
        return {
            "domain": [str(a) for a in self.domain],
            "codomain": [str(a) for a in self.codomain],
            "lhs": self.lhs,
            "rhs": self.rhs,
        }


class Check(_Record, namedtuple("Check", "check_id passed required witness detail",
                                defaults=(True, None, ""))):
    """One named check: whether it passed, whether it is required, and
    its witness and detail text."""

    __slots__ = ()


def map_witness(lhs, rhs):
    """First differing entry of two same-shaped maps in row-major order,
    or None if equal."""
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        raise ValueError("witness comparison needs maps of equal shape")
    if lhs.entries == rhs.entries:  # only nonzero entries are kept
        return None
    keys = sorted(set(lhs.entries) | set(rhs.entries))
    fmt = lhs.field.fmt
    for key in keys:
        a = lhs.entries.get(key, lhs.field.zero)
        b = rhs.entries.get(key, rhs.field.zero)
        if a != b:
            i, j = key
            return Witness(
                domain=lhs.dom[j],
                codomain=lhs.cod[i],
                lhs=fmt(a),
                rhs=fmt(b),
            )
    return None


def family_witnesses(lhs, rhs):
    """The witness of each segment of two families (Chains) with the same
    segments, each of the same size on both sides (their legs may
    differ), in segment order: None where the segment's sides agree, else
    map_witness of its two maps, without building any.

    Only the first segment of each class of segments that act alike
    (exactlin.segment_classes) is evaluated; every segment takes its
    class's verdict and witness position, labelled with its own lhs legs.
    Both sides are evaluated block by block (Chain.block), in column
    order.  A block whose frontiers are equal is done in one comparison;
    otherwise each segment's part offers its smallest differing (row,
    col) below the segment's best row so far, so the earliest column wins.
    """
    shapes = [(c.segments, c.dom_size, c.cod_size) for c in (lhs, rhs)]
    if shapes[0] != shapes[1]:
        raise ValueError("witness comparison needs chains with the same segment sizes")
    classes = segment_classes(lhs, rhs)
    best = {}
    for cols in lhs.dom_blocks(list(dict.fromkeys(classes))):
        located = lhs.locate(cols)  # the two sides share their domain
        a, b = lhs.block(cols, located), rhs.block(cols, located)
        if a == b:
            continue
        seg, within = located
        lo = 0
        while lo < len(seg):  # the part of each segment, in order
            k = seg[lo]
            hi = bisect_right(seg, k, lo)
            found = _smallest_difference(lhs.field, a, b, lo, hi, len(seg), best.get(k))
            if found is not None:
                best[k] = found[0], within[found[1]], found[2], found[3]
            lo = hi
    if not best:
        return [None] * lhs.segments
    found = map(best.get, classes)
    return [None if f is None else _witness(lhs, k, *f) for k, f in enumerate(found)]


def _smallest_difference(field, a, b, lo, hi, width, best):
    """(row, block column, lhs value, rhs value) of the smallest (row, col)
    in row-major order where two frontiers (Chain.block) of a block of
    width columns differ, among columns lo..hi-1 and, if best is not None,
    rows below best[0]; None if there is none.  With one entry a column on
    both sides, it is the smaller row of the first column whose entries
    differ; else each side is read as {row * width + column: scalar}."""
    one, zero, parts = field.one, field.zero, []
    for at, rows, scalars in (a, b):
        cut = slice(*(lo, hi) if at is None else (bisect_left(at, lo), bisect_left(at, hi)))
        parts.append((range(lo, hi) if at is None else at[cut], rows[cut],
                      scalars if scalars is None else scalars[cut]))
    below = None if best is None else repeat(best[0])
    if a[0] is None and b[0] is None:
        (at, xr, _), (_, yr, _) = parts  # no scalars without columns
        if below is not None:  # only a column where a side lands below the bound
            low = sorted({*compress(count(), map(lt, xr, below)),
                          *compress(count(), map(lt, yr, below))})
            at, xr, yr = [side and list(map(side.__getitem__, low)) for side in (at, xr, yr)]
        moved = list(map(ne, xr, yr))
        rows = list(map(min, compress(xr, moved), compress(yr, moved)))
        row = min(rows, default=None)
        if row is None or best is not None and row >= best[0]:
            return None
        i = next(islice(compress(count(), moved), rows.index(row), None))
        return row, at[i], *(one if r[i] == row else zero for r in (xr, yr))
    sides = []
    for part in parts:
        if below is not None:  # only the entries of the rows below it
            low = list(compress(count(), map(lt, part[1], below)))
            part = [side and list(map(side.__getitem__, low)) for side in part]
        at, rows, scalars = part
        sides.append(dict(zip(map(add, map(mul, rows, repeat(width)), at), scalars or repeat(one))))
    x, y = sides
    key = min([key for key, _ in x.items() ^ y.items()], default=None)
    return None if key is None else (*divmod(key, width), x.get(key, zero), y.get(key, zero))


def _witness(chain, k, row, col, x, y):
    """The Witness at (row, col) of segment k of chain, values x and y."""
    dom_legs, cod_legs = chain.segment_legs(k)
    fmt = chain.field.fmt
    return Witness(
        domain=flat_label(dom_legs, col),
        codomain=flat_label(cod_legs, row),
        lhs=fmt(x),
        rhs=fmt(y),
    )


class Row(_Record, namedtuple("Row", "check_id required details witnesses verdicts")):
    """One law as a report records it: its check ID and required flag, and
    for each of its grade tuples a detail, a witness and a verdict."""

    __slots__ = ()

    def entry(self, k):
        """The fields of the Check of tuple k."""
        return self.check_id, self.verdicts[k], self.required, self.witnesses[k], self.details[k]


class Details:
    """The detail of each grade tuple of a law, formatted only when read:
    details[k] is form.format() of the labels of tuple k's grades, grades
    holding one list of grades per position in the tuples."""

    __slots__ = ("form", "labels", "grades")

    def __init__(self, form, labels, grades):
        self.form, self.labels, self.grades = form, labels, grades

    def __len__(self):
        return len(self.grades[0])

    def __getitem__(self, k):
        return self.form.format(*[self.labels[g[k]] for g in self.grades])


def law_checks(check_id, details, lhs, rhs, required=True):
    """The Row of one law stated as two families: per segment, in segment
    order, its detail from details and its witness (family_witnesses)."""
    if len(details) != lhs.segments:
        raise ValueError(f"{len(details)} details for {lhs.segments} segments")
    witnesses = family_witnesses(lhs, rhs)
    return Row(check_id, required, details, witnesses, list(map(is_, witnesses, repeat(None))))


class Report:
    """Ordered collection of checks about one subject, kept as rows, each a
    tuple of Rows over the same grade tuples read interleaved tuple by tuple."""

    def __init__(self, subject):
        self.subject = subject
        self._rows = []

    @property
    def checks(self):
        """Every check in report order, as a new list of Checks built on each read."""
        return [Check(*fields) for fields in self._fields()]

    def _entries(self):
        """(Row, tuple index) of every check, in report order."""
        rows = self._rows
        return ((law, k) for laws in rows for k in range(len(laws[0].verdicts)) for law in laws)

    def _fields(self):
        return starmap(Row.entry, self._entries())

    def add(self, check_id, passed, required=True, witness=None, detail=""):
        self._rows.append((Row(check_id, required, (detail,), (witness,), (bool(passed),)),))
        return Check(check_id, bool(passed), required, witness, detail)

    def add_first_witness(self, check_id, witnesses, required=True):
        """Record a check stated as a stream of counterexamples (the first
        Witness fails it; none is drawn after it); return whether it passed."""
        witness = next(iter(witnesses), None)
        self._rows.append((Row(check_id, required, ("",), (witness,), (witness is None,)),))
        return witness is None

    def add_rows(self, *laws):
        """Record laws (Rows) over the same grade tuples, to be read
        interleaved: every law's check of the first tuple, then of the
        second, and so on."""
        if len({len(law.verdicts) for law in laws}) != 1:
            raise ValueError("interleaved laws need the same number of grade tuples")
        self._rows.append(laws)

    def add_family(self, check_id, details, lhs, rhs, required=True):
        """Check a law stated as two families: one check per segment, a
        chain of one segment with its one detail; return whether all passed."""
        law = law_checks(check_id, details, lhs, rhs, required)
        self.add_rows(law)
        return all(law.verdicts)

    def add_map_equality(self, check_id, lhs, rhs, required=True, detail=""):
        """Check two composed maps for exact equality; record first difference."""
        witness = map_witness(lhs, rhs)
        return self.add(check_id, witness is None, required, witness, detail)

    def merge(self, other):
        self._rows += other._rows
        return self

    @property
    def passed(self):
        return all([all(law.verdicts) for laws in self._rows for law in laws if law.required])

    @property
    def all_passed(self):
        return all([all(law.verdicts) for laws in self._rows for law in laws])

    def failed_ids(self, include_informational=False):
        return [
            law.check_id
            for law, k in self._entries()
            if not law.verdicts[k] and (law.required or include_informational)
        ]

    def find(self, check_id):
        return next((Check(*fields) for fields in self._fields() if fields[0] == check_id), None)

    def render(self):
        lines = [f"subject: {self.subject}"]
        for check_id, passed, required, witness, detail in self._fields():
            status = "PASS" if passed else "FAIL"
            note = "" if required else " [info]"
            line = f"{status}{note} {check_id}"
            if detail:
                line += f" ({detail})"
            if witness is not None and not passed:
                line += "  " + witness.describe()
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_jobj(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {
                    "id": check_id,
                    "passed": passed,
                    "required": required,
                    "detail": detail,
                    "witness": None if witness is None else witness.to_jobj(),
                }
                for check_id, passed, required, witness, detail in self._fields()
            ],
        }

    def __repr__(self):
        verdicts = [law.verdicts[k] for law, k in self._entries()]
        return f"Report({self.subject!r}, {len(verdicts)} checks, {verdicts.count(False)} failing)"
