"""Exact-arithmetic verification of crossed group-cograded Hopf quasigroups
and the braided category of their Yetter-Drinfeld modules.

The names in __all__ are re-exported from the submodules that define
them, and each loads on first use (PEP 562): importing the package, or
one submodule such as quasibraid.cli, loads only the modules that are
used.  Once read, a name is a plain module global.
"""

#: submodule -> the public names it re-exports here, in __all__ order
_EXPORTS = {
    "exactlin": (
        "LinMap", "PrimeField", "QQ", "Rationals", "compose", "field_from_name", "invert", "kron",
    ),
    "report": ("Check", "Report", "Witness"),
    "tables": (
        "GroupAction", "GroupTable", "LoopTable", "conjugate", "validate_action",
        "validate_group", "validate_ip_loop",
    ),
    "hq": (
        "HopfQuasigroup", "UnitalAlgebra", "antipode_inverse_laws", "from_hopf_quasigroup",
        "group_algebra", "loop_algebra", "validate_hopf_quasigroup",
    ),
    "gchq": (
        "CrossedGCHQ", "mirror", "power_construction", "validate_crossed", "validate_crossing",
        "validate_gchq",
    ),
    "yd": (
        "YDModule", "YDMorphism", "braiding", "braiding_inverse", "check_braiding_inverse",
        "check_braiding_laws", "check_conjugation_coherence", "crossed_set_module",
        "diagonal_module", "trivial_module", "validate_morphism", "validate_yd", "yd_conjugate",
        "yd_direct_sum", "yd_tensor",
    ),
}

#: public name -> the submodule that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name):
    """Import the submodule that defines name, keep name as a global so
    later lookups are plain, and return it."""
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f"{__name__}.{home}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
