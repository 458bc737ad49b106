"""The package's public names and the report's value classes.

The package re-exports its public names lazily; these tests pin the set
of names, where each comes from, and that star imports, attribute
errors and dir() behave as they would for eagerly bound names.  Witness
and Check are immutable values: equal and equally hashed when their
fields are.
"""

import pickle
from importlib import import_module

import pytest

import quasibraid
from quasibraid.report import Check, Witness

#: the re-exports, by defining submodule, in the order the package has
#: always listed them
EXPORTS = {
    "exactlin": [
        "LinMap", "PrimeField", "QQ", "Rationals", "compose", "field_from_name", "invert", "kron",
    ],
    "report": ["Check", "Report", "Witness"],
    "tables": [
        "GroupAction", "GroupTable", "LoopTable", "conjugate", "validate_action",
        "validate_group", "validate_ip_loop",
    ],
    "hq": [
        "HopfQuasigroup", "UnitalAlgebra", "antipode_inverse_laws", "from_hopf_quasigroup",
        "group_algebra", "loop_algebra", "validate_hopf_quasigroup",
    ],
    "gchq": [
        "CrossedGCHQ", "mirror", "power_construction", "sweedler_spot_check",
        "validate_crossed", "validate_crossing", "validate_gchq",
    ],
    "yd": [
        "YDModule", "YDMorphism", "braiding", "braiding_inverse", "check_braiding_inverse",
        "check_braiding_laws", "check_conjugation_coherence", "check_crossed_equivalence",
        "crossed_set_module", "diagonal_module", "search_dim1_modules", "trivial_module",
        "validate_morphism", "validate_yd", "yd_conjugate", "yd_direct_sum", "yd_tensor",
    ],
}

PAIRS = [(module, name) for module, names in EXPORTS.items() for name in names]


def test_all_is_the_pinned_export_list():
    assert quasibraid.__all__ == [name for _, name in PAIRS]


@pytest.mark.parametrize("module, name", PAIRS, ids=[name for _, name in PAIRS])
def test_export_is_the_submodule_object(module, name):
    assert getattr(quasibraid, name) is getattr(import_module(f"quasibraid.{module}"), name)


def test_star_import_binds_every_export():
    namespace = {}
    exec("from quasibraid import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(quasibraid.__all__)
    assert all(namespace[name] is getattr(quasibraid, name) for name in namespace)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(quasibraid, "no_such_name")
    assert not hasattr(quasibraid, "_HOME_of_nothing")
    assert quasibraid.__version__ == "0.1.0"


def test_submodules_still_import_from_the_package():
    from quasibraid import cli, fixtures

    assert fixtures is import_module("quasibraid.fixtures")
    assert callable(cli.main)


def test_dir_lists_every_export():
    assert set(quasibraid.__all__) <= set(dir(quasibraid))


# -- value classes ------------------------------------------------------------


def witness(lhs="1"):
    return Witness(("x",), ("y", "z"), lhs, "0")


def test_witness_compares_and_hashes_by_value():
    assert witness() == witness() and hash(witness()) == hash(witness())
    assert witness() != witness("2")
    assert witness() != (("x",), ("y", "z"), "1", "0")
    assert len({witness(), witness(), witness("2")}) == 2
    assert Witness(domain=("x",), codomain=("y", "z"), lhs="1", rhs="0") == witness()


def test_check_defaults_and_value_equality():
    check = Check("HQ-coassoc", True)
    assert (check.required, check.witness, check.detail) == (True, None, "")
    assert check == Check("HQ-coassoc", True, True, None, "")
    assert check != Check("HQ-coassoc", True, required=False)
    failed = Check("HQ-coassoc", False, witness=witness(), detail="grade e")
    assert failed == Check("HQ-coassoc", False, True, witness(), "grade e")
    assert hash(failed) == hash(Check("HQ-coassoc", False, True, witness(), "grade e"))
    assert failed != Check("HQ-coassoc", False, witness=witness("2"), detail="grade e")


@pytest.mark.parametrize("value", [witness(), Check("HQ-coassoc", False, witness=witness())])
def test_value_classes_reject_assignment(value):
    field = type(value).__slots__[0]
    with pytest.raises(AttributeError):
        setattr(value, field, "changed")
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert pickle.loads(pickle.dumps(value)) == value


def test_value_repr_names_the_fields():
    assert repr(witness()) == "Witness(domain=('x',), codomain=('y', 'z'), lhs='1', rhs='0')"
    assert repr(Check("A", True)) == (
        "Check(check_id='A', passed=True, required=True, witness=None, detail='')"
    )

