"""Label products are built in one place, exactlin.product_labels, which
keeps each product of two or more legs it has built.  Every structure
builds its own signature (gchq.map_legs, yd.module_legs) and checks its
maps against it, so:

- product_labels equals a plain itertools.product of the legs, for
  tuples and lists of zero to three legs, and a product asked for again
  after the kept ones were evicted is built again the same;
- each structure's signature, crossed or module, from the registry, from
  a saved fixture file or from a construction, over Q and GF(7), equals
  the one map_legs or module_legs states for its shape, and its maps,
  but a tensor product's, carry the signature's own label tuples.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasibraid import exactlin, fixtures, serialize
from quasibraid.exactlin import K_LABELS, PrimeField, QQ, product_labels
from quasibraid.gchq import legs_labels, map_legs, mirror, power_construction
from quasibraid.hq import HopfQuasigroup
from quasibraid.yd import (
    YDModule, crossed_set_module, diagonal_module, module_legs, trivial_module, yd_conjugate,
    yd_direct_sum, yd_tensor,
)

FIELDS = {"Q": QQ, "GF7": PrimeField(7)}


def reference(legs):
    """The labels of the product of legs, the left leg slowest."""
    return tuple(sum(parts, ()) for parts in product(*legs))


label = st.lists(st.sampled_from(["a", "b", "c:d", ""]), max_size=2).map(tuple)
leg = st.lists(label, max_size=3)
legs = st.lists(st.one_of(leg, leg.map(tuple)), max_size=3)


@settings(max_examples=300, deadline=None)
@given(legs, st.booleans())
def test_product_labels_is_the_product_of_the_legs(drawn, as_tuple):
    drawn = tuple(drawn) if as_tuple else drawn
    assert product_labels(drawn) == reference(drawn)
    assert type(product_labels(drawn)) is tuple


def test_no_legs_and_one_leg_are_products_as_they_stand():
    leg = (("x",), ("y",))
    assert product_labels(()) is K_LABELS and product_labels([]) is K_LABELS
    assert product_labels((leg,)) is leg
    assert product_labels([list(leg)]) == leg


def test_a_kept_product_is_the_same_tuple():
    legs = ((("p",), ("q",)), (("r",), ("s",), ("t",)))
    assert product_labels(legs) is product_labels([list(leg) for leg in legs])


def test_a_list_leg_changed_after_its_product_gives_the_new_product():
    legs = [[("u",), ("v",)], [("w",)]]
    assert product_labels(legs) == (("u", "w"), ("v", "w"))
    legs[1].append(("z",))
    assert product_labels(legs) == reference(legs)


def test_an_evicted_product_is_built_again_the_same():
    first = ((("e0",), ("e1",)), (("f",),), (("g0",), ("g1",)))
    before = product_labels(first)
    for i in range(exactlin._PRODUCTS_KEPT + 1):
        product_labels(((("h",),), ((str(i),),)))
    again = product_labels(first)
    assert again == before == reference(first)
    assert product_labels(first) is again


# -- every structure's signature is the one its shape states ---------------


def _registry(name):
    return lambda field, files: fixtures.build(name, field)[1]


def _loaded(name):
    kind = fixtures.REGISTRY[name][0]
    return lambda field, files: serialize.load(kind, files(field) / f"{name}.json")


def _power(field):
    return power_construction(fixtures.hq_c3(field), fixtures.inversion_on_c3())


def _with_trivial(build):
    """build(v, trivial module over v's base), for the diagonal module v."""
    def made(field, files):
        v = fixtures.yd_diagonal_power(field)
        return build(v, trivial_module(v.base))
    return made


STRUCTURE_NAMES = sorted(k for k, (kind, _) in fixtures.REGISTRY.items() if kind not in (
    "table", "action"))

#: name -> builder(field, files), files(field) the directory of saved fixtures
STRUCTURES = {
    **{f"registry-{name}": _registry(name) for name in STRUCTURE_NAMES},
    **{f"file-{name}": _loaded(name) for name in STRUCTURE_NAMES},
    "power_construction": lambda field, files: _power(field),
    "mirror-power": lambda field, files: mirror(_power(field)),
    "mirror-s3": lambda field, files: mirror(fixtures.gchq_s3(field)),
    "yd_tensor": _with_trivial(yd_tensor),
    "yd_tensor-crossed-s3": lambda field, files: yd_tensor(
        *[fixtures.yd_crossed_s3(field)] * 2),
    "yd_conjugate": lambda field, files: yd_conjugate(fixtures.yd_diagonal_power(field), 1),
    "yd_direct_sum": _with_trivial(lambda v, w: yd_direct_sum(v, w)[0]),
    "trivial_module": lambda field, files: trivial_module(_power(field)),
    "diagonal_module": lambda field, files: diagonal_module(_power(field)),
    "crossed_set_module": lambda field, files: crossed_set_module(fixtures.gchq_s3(field)),
}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """files(field): a directory holding every fixture saved over field."""
    made = {}

    def directory(field):
        if field.name not in made:
            made[field.name] = tmp_path_factory.mktemp("fixtures")
            fixtures.write_all(made[field.name], field)
        return made[field.name]

    return directory


def stated(s):
    """The signature that map_legs or module_legs states for s's shape."""
    if isinstance(s, YDModule):
        return module_legs(s.base, s.grade, s.labels)
    return map_legs(s.grading, s.components)


#: structures whose maps were built on other legs than their signature's:
#: a tensor product's action and coactions run on V and W, its signature on
#: the one leg V (x) W, so their labels are equal but not the same tuples
OTHER_LEGS = {"yd_tensor", "yd_tensor-crossed-s3"}


@pytest.mark.parametrize("field", list(FIELDS))
@pytest.mark.parametrize("name", list(STRUCTURES))
def test_signature_is_the_one_its_shape_states(name, field, files):
    s = STRUCTURES[name](FIELDS[field], files)
    s = s.graded if isinstance(s, HopfQuasigroup) else s
    assert s.signature == stated(s)
    if name in OTHER_LEGS:
        return
    for family, keyed in s.maps().items():
        for key, m in keyed.items():
            dom, cod = legs_labels(s.signature[family][key])
            assert m.dom is dom and m.cod is cod, (family, key)
