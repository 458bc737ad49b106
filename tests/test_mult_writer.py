"""An algebra's mult list written as text.

The writer joins each entry from its indices and its scalar's text, each
encoded once; the bytes must be those of the dense reference writer of
test_row_writer (each entry a list, the whole sorted and encoded by
json.dumps).  Checked on a GF(7) and a fractional mult list, with zero
values dropped and indices of two digits, in a Hopf quasigroup and in
both components of a crossed structure, and read back unchanged.
"""

from fractions import Fraction

import pytest

from quasibraid import serialize
from quasibraid.exactlin import QQ, PrimeField
from quasibraid.gchq import CrossedGCHQ, legs_map, map_legs
from quasibraid.hq import HopfQuasigroup, UnitalAlgebra
from quasibraid.tables import GroupTable

from test_row_writer import reference_bytes

GF7 = PrimeField(7)

#: field and e_i e_j's coefficient of e_{i+j mod dim}; both give zeros
MULTS = {
    "GF7": (GF7, lambda i, j: (i * j + 1) % 7),
    "fractions": (QQ, lambda i, j: Fraction(i - 2 * j, j + 1) if (i + j) % 3 else i * 10**20),
}


def algebra(name, dim=12):
    field, scalar = MULTS[name]
    mult = {(i, j, (i + j) % dim): scalar(i, j) for i in range(dim) for j in range(dim)}
    unit = [field.one] + [field.zero] * (dim - 1)
    return UnitalAlgebra(field, dim, [(f"e{i}",) for i in range(dim)], mult, unit)


def zero_maps(field, signature):
    return {family: {key: legs_map(field, {}, legs) for key, legs in spaces.items()}
            for family, spaces in signature.items()}


@pytest.mark.parametrize("name", sorted(MULTS))
def test_hq_mult_list_is_the_dense_writers(name, tmp_path):
    a = algebra(name)
    assert len(a.mult) < a.dim**2  # the zero values are dropped
    maps = zero_maps(a.field, map_legs(GroupTable.trivial(), [a]))
    h = HopfQuasigroup(a.field, a, maps["comult"][(0, 0)], maps["counit"][None],
                       maps["antipode"][0])
    path = tmp_path / "h.json"
    serialize.save("hq", h, path)
    assert path.read_bytes() == reference_bytes("hq", h)
    assert serialize.load("hq", path).algebra == a


@pytest.mark.parametrize("name", sorted(MULTS))
def test_component_mult_lists_are_the_dense_writers(name, tmp_path):
    components = [algebra(name, 11), algebra(name, 3)]
    field, grading = components[0].field, GroupTable.cyclic(2)
    maps = zero_maps(field, map_legs(grading, components))
    h = CrossedGCHQ(field, grading, components, maps["comult"], maps["counit"][None],
                    maps["antipode"], maps["crossing"])
    path = tmp_path / "g.json"
    serialize.save("gchq", h, path)
    assert path.read_bytes() == reference_bytes("gchq", h)
    assert serialize.load("gchq", path).components == h.components
