"""The frontier kernel of Chain.block and report.family_witnesses against
the tuple path they replaced.

The reference below is the evaluator as it stood before columns became
flat positions: a column is an (index tuple, scalar) pair while every
stage is monomial, each monomial LegMap a dict {input index tuple: (output
index tuple, scalar)}, and a column falls back to a sparse dict {index
tuple: scalar} at the first other stage.  It reads the same LegMaps, so
the two are compared on random programs of stages over Q, GF(5) and GF(2)
and on the validators' own chains, through a recorder of how each Chain
was built.
"""

from fractions import Fraction
from itertools import islice, product
from operator import itemgetter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin, fixtures, gchq, report, yd
from quasibraid.exactlin import Chain, LegMap, LinMap, QQ, Stack
from quasibraid.gchq import CrossedGCHQ, validate_gchq
from quasibraid.hq import UnitalAlgebra, from_hopf_quasigroup
from quasibraid.report import Check, Witness, family_witnesses
from quasibraid.yd import YDModule, trivial_module, validate_yd
from test_exactlin import B, GF2, GF5, LEG_SPACES, build_chain, perturb, programs


# -- the tuple path ----------------------------------------------------------------


def dims(legs):
    return tuple(len(leg) for leg in legs)


def multi_index(flat, sizes):
    out = []
    for d in reversed(sizes):
        flat, idx = divmod(flat, d)
        out.append(idx)
    return tuple(reversed(out))


def concat_labels(legs, multi):
    return sum((labels[idx] for labels, idx in zip(legs, multi)), ())


def tuple_legmap(f):
    """(columns, table) of a LegMap as the tuple path read it: columns
    {input index tuple: [(output index tuple, scalar), ...]}, table
    {input index tuple: (output index tuple, scalar)} if every column has
    exactly one entry, field.one, else None; both None for an identity."""
    one = f.map.field.one
    if f.dom_legs == f.cod_legs and f.map.entries == {(i, i): one for i in range(f.map.rows)}:
        return None, None
    dom_dims, cod_dims = dims(f.dom_legs), dims(f.cod_legs)
    columns = {}
    for (i, j), value in sorted(f.map.entries.items()):
        columns.setdefault(multi_index(j, dom_dims), []).append((multi_index(i, cod_dims), value))
    unit = all(len(images) == 1 and images[0][1] == one for images in columns.values())
    if unit and len(columns) == f.map.cols:
        return columns, {multi: images[0] for multi, images in columns.items()}
    return columns, None


def tuple_stages(program):
    """The stages of a program [("then", factors) | ("perm", order)]."""
    stages = []
    for kind, data in program:
        if kind == "perm":
            if data != tuple(range(len(data))):
                stages.append(("perm", itemgetter(*data)))
            continue
        plan = []
        pos = 0
        for f in data:
            columns, table = tuple_legmap(f)
            stop = pos + len(f.dom_legs)
            if columns is None and plan and plan[-1][0] is None:
                plan[-1] = (None, None, plan[-1][2], stop)
            else:
                plan.append((columns, table, pos, stop))
            pos = stop
        monomial = all(columns is None or table is not None for columns, table, _, _ in plan)
        stages.append(("mono" if monomial else "kron", tuple(plan)))
    return stages


def tuple_monomial_stage(field, plan, images):
    vanished = (None, field.zero)
    out = []
    for idx, v in images:
        if idx is None:
            out.append(vanished)
            continue
        key = ()
        for _, table, start, stop in plan:
            legs = idx[start:stop]
            if table is None:
                key += legs
                continue
            hit = table.get(legs)
            if hit is None:
                key = None
                break
            key += hit[0]
            v = field.mul(v, hit[1])
        out.append(vanished if key is None else (key, v))
    return out


def tuple_apply_kron(field, plan, vec):
    out = {}
    for idx, coeff in vec.items():
        terms = [((), coeff)]
        for columns, _, start, stop in plan:
            legs = idx[start:stop]
            if columns is None:
                terms = [(key + legs, v) for key, v in terms]
                continue
            images = columns.get(legs)
            if images is None:
                break
            terms = [(key + o, field.mul(v, w)) for key, v in terms for o, w in images]
        else:
            for key, v in terms:
                acc = out.get(key)
                out[key] = v if acc is None else field.add(acc, v)
    return {key: v for key, v in out.items() if v != field.zero}


def as_sparse(image):
    idx, v = image
    return {} if idx is None else {idx: v}


def tuple_block(field, stages, cols):
    images = [(multi, field.one) for multi in cols]
    monomial = True
    for kind, data in stages:
        if kind == "perm":
            if monomial:
                images = [(idx if idx is None else data(idx), v) for idx, v in images]
            else:
                images = [{data(idx): v for idx, v in vec.items()} for vec in images]
        elif kind == "mono" and monomial:
            images = tuple_monomial_stage(field, data, images)
        else:
            if monomial:
                images = [as_sparse(image) for image in images]
                monomial = False
            images = [tuple_apply_kron(field, data, vec) for vec in images]
    return monomial, images


def tuple_dom_blocks(dom_legs):
    indices = product(*[range(len(leg)) for leg in dom_legs])
    while cols := list(islice(indices, exactlin.BLOCK)):
        yield cols


def tuple_chain_witness(field, dom_legs, cod_legs, lhs, rhs):
    """The witness rule on the tuple path, for two programs from dom_legs."""
    zero = field.zero
    lhs, rhs = tuple_stages(lhs), tuple_stages(rhs)
    best = None
    for cols in tuple_dom_blocks(dom_legs):
        mono_a, a = tuple_block(field, lhs, cols)
        mono_b, b = tuple_block(field, rhs, cols)
        if mono_a == mono_b and a == b:
            continue
        for col, x, y in zip(cols, a, b):
            x = as_sparse(x) if mono_a else x
            y = as_sparse(y) if mono_b else y
            if x == y:
                continue
            for row in x.keys() | y.keys():
                u, v = x.get(row, zero), y.get(row, zero)
                if u != v and (best is None or row < best[0]):
                    best = (row, col, u, v)
    if best is None:
        return None
    row, col, x, y = best
    return Witness(
        domain=concat_labels(dom_legs, col),
        codomain=concat_labels(cod_legs, row),
        lhs=field.fmt(x),
        rhs=field.fmt(y),
    )


def as_tuple_block(chain, frontier, width):
    """A frontier (Chain.block) of width columns in the tuple path's form:
    one (index tuple, scalar) per column while it has no lists, else one
    dict {index tuple: scalar} per column."""
    field, cod_dims = chain.field, dims(chain.segment_legs(0)[1])
    cols, positions, scalars = frontier
    if cols is None and scalars is None:
        return True, [(multi_index(x, cod_dims), field.one) for x in positions]
    images = [{} for _ in range(width)]
    for c, x, v in zip(cols, positions, scalars or [field.one] * len(positions)):
        images[c][multi_index(x, cod_dims)] = v
    return False, images


class Programs:
    """Records, for every Chain built while installed, the program of
    then() and permute() calls that built it; program(chain, k) reads it
    on segment k of a family."""

    def __init__(self, monkeypatch):
        self.built = {}  # id(chain) -> (chain, program); the chain pins its id
        start, then, permute = Chain._start, Chain.then, Chain.permute

        def recorded_start(chain, *args):
            start(chain, *args)
            self.built[id(chain)] = (chain, [])

        def recorded_then(chain, *factors):
            return self._note(chain, then(chain, *factors), ("then", factors))

        def recorded_permute(chain, *order):
            return self._note(chain, permute(chain, *order), ("perm", order))

        monkeypatch.setattr(Chain, "_start", recorded_start)
        monkeypatch.setattr(Chain, "then", recorded_then)
        monkeypatch.setattr(Chain, "permute", recorded_permute)

    def _note(self, chain, out, step):
        self.built[id(out)] = (out, self.built[id(chain)][1] + [step])
        return out

    def program(self, chain, k=0):
        return [
            (kind, tuple(segment_factor(f, k) for f in data) if kind == "then" else data)
            for kind, data in self.built[id(chain)][1]
        ]

    def witness(self, lhs, rhs, k=0):
        dom_legs, cod_legs = lhs.segment_legs(k)
        return tuple_chain_witness(
            lhs.field, dom_legs, cod_legs, self.program(lhs, k), self.program(rhs, k)
        )


def segment_factor(f, k):
    """The LegMap a factor of then() puts on segment k (for a Stack, one
    acting alike, as its distinct maps are kept)."""
    if type(f) is LegMap:
        return f
    if type(f) is Stack:
        return f.maps[f.index[k]]
    return f[k if len(f) > 1 else 0]


# -- the differential test ---------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_flat_kernel_matches_tuple_path(data):
    """Every block, and the witness, agree with the tuple path whatever
    the block size."""
    field = data.draw(st.sampled_from([QQ, GF5, GF2]))
    dom_legs = tuple(data.draw(st.lists(st.sampled_from(LEG_SPACES), max_size=3)))
    program, cod_legs = data.draw(programs(field, dom_legs, data.draw(st.integers(1, 4))))
    other = perturb(data.draw, field, program) if data.draw(st.booleans()) else program
    lhs, rhs = build_chain(field, dom_legs, program), build_chain(field, dom_legs, other)
    saved = exactlin.BLOCK
    exactlin.BLOCK = data.draw(st.sampled_from([1, 2, 5, 1024]))
    try:
        stages = tuple_stages(program)
        flat_blocks = list(lhs.dom_blocks())
        tuple_blocks = list(tuple_dom_blocks(dom_legs))
        assert len(flat_blocks) == len(tuple_blocks)
        for cols, multis in zip(flat_blocks, tuple_blocks):
            assert as_tuple_block(lhs, lhs.block(cols), len(cols)) == tuple_block(
                field, stages, multis)
        assert family_witnesses(lhs, rhs) == [
            tuple_chain_witness(field, dom_legs, cod_legs, program, other)
        ]
    finally:
        exactlin.BLOCK = saved


def test_vanished_columns_and_scalars_in_one_block():
    """Non-unit scalars, then a map with unit scalars and a zero column:
    neither map is monomial, so the block's frontier carries a column list
    and a scalar list, with no entry for the vanished column, and the
    witness compares the vanished side with a scaled one."""

    def chain(*entries):
        out = Chain(QQ, (B,))
        for e in entries:
            out = out.then(LegMap(LinMap(QQ, 3, 3, e, B, B), (B,), (B,)))
        return out

    scale = {(0, 0): 2, (1, 1): 2, (2, 2): Fraction(1, 2)}
    dropped = chain(scale, {(2, 0): 1, (0, 2): 1})
    assert dropped.block(range(3)) == ([0, 2], [2, 0], [2, Fraction(1, 2)])
    kept = chain(scale, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert kept.block(range(3)) == ([0, 1, 2], [2, 1, 0], [2, 2, Fraction(1, 2)])
    assert family_witnesses(dropped, kept) == [Witness(("b1",), ("b1",), "0", "2")]


# -- kill table ----------------------------------------------------------------------


def with_component_unit(h, p, unit):
    comps = list(h.components)
    c = comps[p]
    comps[p] = UnitalAlgebra(c.field, c.dim, c.labels, c.mult, unit)
    return CrossedGCHQ(h.field, h.grading, comps, h.comult, h.counit, h.antipode, h.crossing)


def unit_left_mutant():
    """gchq-power with the unit of component 1 doubled: 1_p x = 2x."""
    h = fixtures.gchq_power()
    unit = list(h.comp(1).unit)
    return with_component_unit(h, 1, [h.field.mul(2, x) for x in unit])


def unit_right_mutant():
    """gchq-s3 with a component unit moved to the next basis vector, so
    the right unit law fails where the left one does too; the table
    holds the right law's own witness."""
    h = fixtures.gchq_s3()
    p = h.grading.order - 1
    unit = list(h.comp(p).unit)
    return with_component_unit(h, p, unit[-1:] + unit[:-1])


def o16_module_coacting_by(label):
    """The trivial module over k[O16] (one grade) with its coaction moved
    from 1 (x) e to 1 (x) x for the basis element labelled x: coassociative
    and counital, but (1_1 h) g = x h g is bracketed both ways by YD-4.6
    and YD-4.7, and O16 is not associative."""
    base = from_hopf_quasigroup(fixtures.hq_o16())
    v = trivial_module(base)
    rho = v.coaction[0]
    x = base.comp(0).labels.index((label,))
    coaction = {0: LinMap(rho.field, rho.rows, 1, {(x, 0): 1}, rho.dom, rho.cod)}
    return YDModule(base, v.grade, v.labels, v.action, coaction, v.strict)


#: check ID -> (validator, a mutant built through the library API that
#: makes it fail); before this table no test drove these IDs to fail
KILLS = {
    "GHQ-component-unit-left": (validate_gchq, unit_left_mutant),
    "GHQ-component-unit-right": (validate_gchq, unit_right_mutant),
    "YD-4.6-coassoc-right": (validate_yd, lambda: o16_module_coacting_by("e1")),
    "YD-4.7-coassoc-mixed": (validate_yd, lambda: o16_module_coacting_by("e1")),
}


@pytest.mark.parametrize("check_id", list(KILLS))
def test_kill_table(check_id, monkeypatch):
    """The ID fails, and the witness of each failing grade tuple is the
    tuple path's on that segment of the families the validator stated."""
    validator, build = KILLS[check_id]
    programs_seen = Programs(monkeypatch)
    stated = []
    law_checks = report.law_checks

    def captured(cid, details, lhs, rhs, *args, **kwargs):
        row = law_checks(cid, details, lhs, rhs, *args, **kwargs)
        if cid == check_id:
            stated.append(([Check(*row.entry(k)) for k in range(len(row.verdicts))], lhs, rhs))
        return row

    for module in (report, gchq, yd):
        monkeypatch.setattr(module, "law_checks", captured)
    rep = validator(build())
    assert check_id in rep.failed_ids()
    failing = [(k, c, lhs, rhs) for cs, lhs, rhs in stated for k, c in enumerate(cs) if not c.passed]
    assert failing
    for k, check, lhs, rhs in failing:
        assert check.witness == programs_seen.witness(lhs, rhs, k)
