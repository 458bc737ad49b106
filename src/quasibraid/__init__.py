"""Exact-arithmetic verification of crossed group-cograded Hopf quasigroups
and the braided category of their Yetter-Drinfeld modules."""

from .exactlin import LinMap, PrimeField, QQ, Rationals, compose, field_from_name, invert, kron
from .report import Check, Report, Witness
from .tables import (
    GroupAction,
    GroupTable,
    LoopTable,
    conjugate,
    validate_action,
    validate_group,
    validate_ip_loop,
)
from .hq import (
    HopfQuasigroup,
    UnitalAlgebra,
    antipode_inverse_laws,
    from_hopf_quasigroup,
    group_algebra,
    loop_algebra,
    validate_hopf_quasigroup,
)
from .gchq import (
    CrossedGCHQ,
    mirror,
    power_construction,
    sweedler_spot_check,
    validate_crossed,
    validate_crossing,
    validate_gchq,
)
from .yd import (
    YDModule,
    YDMorphism,
    braiding,
    braiding_inverse,
    check_braiding_inverse,
    check_braiding_laws,
    check_conjugation_coherence,
    check_crossed_equivalence,
    crossed_set_module,
    diagonal_module,
    search_dim1_modules,
    trivial_module,
    validate_morphism,
    validate_yd,
    yd_conjugate,
    yd_direct_sum,
    yd_tensor,
)

__version__ = "0.1.0"
