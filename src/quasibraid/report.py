"""Pass/fail reports with counterexample witnesses.

Every validator returns a Report: an ordered list of named checks.  A
check that fails on a matrix identity carries the first differing basis
pair and the two scalars, so mutation testing can point at the exact
structure constant that broke an axiom.  Check identifiers are stable
strings; consumers key off them, not off positions in the list.

The witness rule is the same whether the two sides are LinMaps
(map_witness) or Chains evaluated leg by leg (chain_witness): among all
entries where the sides differ, the one with the smallest (row, col) in
row-major order; its labels are the lhs domain label of that column and
codomain label of that row, and its values are formatted with field.fmt.
"""

from __future__ import annotations

from itertools import compress, count, islice, repeat
from operator import ne

from .exactlin import flat_label

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


class FrozenFieldError(AttributeError):
    """Raised on assigning or deleting a field of a Witness or a Check."""


class _Value:
    """An immutable record of the fields named by __slots__, compared,
    hashed and printed by their values, in slot order."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self):
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise FrozenFieldError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenFieldError(f"cannot delete field {name!r}")


class Witness(_Value):
    """First counterexample found for a failed check.

    domain/codomain hold basis-label atoms (domain may be a tuple of
    element labels for table-level checks); lhs/rhs are the differing
    values, formatted as text.
    """

    __slots__ = ("domain", "codomain", "lhs", "rhs")

    def __init__(self, domain, codomain, lhs, rhs):
        super().__init__(domain, codomain, lhs, rhs)

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


class Check(_Value):
    """One named check: whether it passed, whether it is required, and
    its witness and detail text."""

    __slots__ = ("check_id", "passed", "required", "witness", "detail")

    def __init__(self, check_id, passed, required=True, witness=None, detail=""):
        super().__init__(check_id, passed, required, witness, detail)


def map_witness(lhs, rhs):
    """First differing entry of two same-shaped maps in row-major order,
    or None if equal."""
    if lhs.rows != rhs.rows or lhs.cols != rhs.cols:
        raise ValueError("witness comparison needs maps of equal shape")
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


def chain_witness(lhs, rhs):
    """map_witness for two Chains with the same leg dimensions, without
    building either side.

    Both sides are evaluated block by block (Chain.block), in column
    order, as flat positions.  A block whose two sides are equal is done
    in one comparison of flat lists.  Otherwise each differing column
    offers its smallest differing row; a monomial column whose sides land
    in different rows offers the smaller of the two, with zero on the side
    that misses it.  Flat positions order as index tuples do, so the
    smallest row over all columns, the earliest column winning a tie, is
    the smallest differing (row, col) in row-major order.  Labels are
    built only for the witness.
    """
    if _leg_dims(lhs) != _leg_dims(rhs):
        raise ValueError("witness comparison needs chains with the same leg dimensions")
    field = lhs.field
    best = None
    for cols in lhs.dom_blocks():
        a = lhs.block(cols)
        b = rhs.block(cols)
        if a == b:
            continue
        found = _first_difference(field, a, b) if a[0] and b[0] else _sparse_difference(field, a, b)
        # blocks come in column order, so a tie in row keeps the earlier block
        if found is not None and (best is None or found[0] < best[0]):
            best = found[0], cols[found[1]], found[2], found[3]
    if best is None:
        return None
    row, col, x, y = best
    fmt = field.fmt
    return Witness(
        domain=flat_label(lhs.dom_legs, col),
        codomain=flat_label(lhs.cod_legs, row),
        lhs=fmt(x),
        rhs=fmt(y),
    )


def _first_difference(field, a, b):
    """(row, index in block, lhs value, rhs value) of the smallest
    differing row of two monomial blocks, the earliest column winning a
    tie, or None if they agree.  Only the columns that differ are visited
    one by one."""
    (pa, sa), (pb, sb) = a[1], b[1]
    offers = []
    moved = list(map(ne, pa, pb))
    xa, xb = list(compress(pa, moved)), list(compress(pb, moved))
    if xa:
        if -1 in xa or -1 in xb:  # a vanished side misses every row
            rows = [max(x, y) if min(x, y) < 0 else min(x, y) for x, y in zip(xa, xb)]
        else:
            rows = list(map(min, xa, xb))
        row = min(rows)
        offers.append((row, next(islice(compress(count(), moved), rows.index(row), None))))
    if sa != sb:
        ones = repeat(field.one)
        rescaled = compress(count(), map(ne, *(ones if x is None else x for x in (sa, sb))))
        offers += [(pa[i], i) for i in rescaled if pa[i] == pb[i] >= 0]
    if not offers:
        return None
    row, i = min(offers)
    zero, one = field.zero, field.one
    x = (one if sa is None else sa[i]) if pa[i] == row else zero
    y = (one if sb is None else sb[i]) if pb[i] == row else zero
    return row, i, x, y


def _sparse_difference(field, a, b):
    """_first_difference when a side has left the monomial path."""
    zero = field.zero
    best = None
    for i, (x, y) in enumerate(zip(_as_dicts(field, a), _as_dicts(field, b))):
        if x == y:
            continue
        for row in x.keys() | y.keys():
            u, v = x.get(row, zero), y.get(row, zero)
            # columns come in increasing order, so a tie in row keeps the first
            if u != v and (best is None or row < best[0]):
                best = (row, i, u, v)
    return best


def _as_dicts(field, block):
    """A Chain.block result as one sparse dict {row: scalar} per column."""
    monomial, images = block
    if not monomial:
        return images
    positions, scalars = images
    if scalars is None:
        scalars = repeat(field.one)
    return [{} if x < 0 else {x: v} for x, v in zip(positions, scalars)]


def _leg_dims(chain):
    return [len(leg) for leg in chain.dom_legs], [len(leg) for leg in chain.cod_legs]


class Report:
    """Ordered collection of checks about one subject."""

    def __init__(self, subject):
        self.subject = subject
        self.checks = []

    def add(self, check_id, passed, required=True, witness=None, detail=""):
        self.checks.append(Check(check_id, bool(passed), required, witness, detail))
        return self.checks[-1]

    def add_first_witness(self, check_id, witnesses, required=True):
        """Record a check stated as a stream of counterexamples: the first
        Witness it yields fails the check, and none is drawn after it."""
        witness = next(iter(witnesses), None)
        return self.add(check_id, witness is None, required, witness)

    def add_map_equality(self, check_id, lhs, rhs, required=True, detail=""):
        """Check two composed maps for exact equality; record first difference."""
        witness = map_witness(lhs, rhs)
        return self.add(check_id, witness is None, required, witness, detail)

    def add_chain_equality(self, check_id, lhs, rhs, required=True, detail=""):
        """Check two Chains for exact equality, a block of columns at a time."""
        witness = chain_witness(lhs, rhs)
        return self.add(check_id, witness is None, required, witness, detail)

    def merge(self, other):
        self.checks.extend(other.checks)
        return self

    @property
    def passed(self):
        return all(c.passed for c in self.checks if c.required)

    @property
    def all_passed(self):
        return all(c.passed for c in self.checks)

    def failed_ids(self, include_informational=False):
        return [
            c.check_id
            for c in self.checks
            if not c.passed and (c.required or include_informational)
        ]

    def find(self, check_id):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        return None

    def render(self):
        lines = [f"subject: {self.subject}"]
        for c in self.checks:
            status = "PASS" if c.passed else "FAIL"
            note = "" if c.required else " [info]"
            line = f"{status}{note} {c.check_id}"
            if c.detail:
                line += f" ({c.detail})"
            if c.witness is not None and not c.passed:
                line += "  " + c.witness.describe()
            lines.append(line)
        lines.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)

    def to_jobj(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "checks": [
                {
                    "id": c.check_id,
                    "passed": c.passed,
                    "required": c.required,
                    "detail": c.detail,
                    "witness": None if c.witness is None else c.witness.to_jobj(),
                }
                for c in self.checks
            ],
        }

    def __repr__(self):
        n_fail = len([c for c in self.checks if not c.passed])
        return f"Report({self.subject!r}, {len(self.checks)} checks, {n_fail} failing)"
