"""Exact F_p toolkit for Mekler groups built from nice graphs.

The package builds finite fragments of the pentagon-gadget host graph,
realizes the corresponding nilpotent class-2 exponent-p groups in normal
form, and machine-checks the finitary content of the constructions that
encode a graph into a group of finite index above or below it: an index-2
extension by a pentagon-swapping automorphism and an index-p kernel
subgroup of an edge functional.  Both directions culminate in recovering
the graph back from group-theoretic queries alone.  A side probe treats
root counting and coset covering in finite groups given by Cayley tables.
"""

from .fplinear import FpVector
from .graphs import (
    ConfigError,
    Natural,
    Gadget,
    Graph,
    NicenessReport,
    LEVELS,
    build_fragment,
    check_nice,
    pair_swap_automorphism,
    encode_vertex,
    decode_vertex,
)
from .group import (
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    mul,
    inv,
    pow_,
    commutator,
    identity,
    generator,
    central_generator,
    is_central,
    is_vertex_like,
    is_natural_vertex_like,
    commuting_kernel_dim,
    commuting_kernel_basis,
    centralizer_dim_mod_center,
    format_element,
    parse_element,
    random_element,
)
from .formulas import (
    FormulaTrace,
    power_separated,
    up_edge_formula,
    down_edge_formula,
    full_coset_oracle,
    BudgetError,
)
from .extension import ExtElement, ext_identity, ext_mul, ext_inv, ext_pow, in_base_by_power_formula
from .subgroup import (
    EdgeFunctional,
    AdequacyError,
    FragmentAdequacy,
    in_kernel_subgroup,
    verify_index_p,
    center_of_subgroup_check,
    centralizer_dim_in_subgroup,
    assess_adequacy,
    natural_vertex_like_by_dimension,
)
from .kernels import (
    ScanResult,
    ScanViolation,
    scan_group_bound,
    scan_subgroup_dichotomy,
)
from .interpret import (
    InternalFault,
    RecoveredGraph,
    RoundTripResult,
    natural_graph,
    build_up_fragment,
    build_down_fragment,
    recover_graph_up,
    recover_graph_down,
    roundtrip,
)
from .cayley import (
    FiniteGroup,
    CoverCertificate,
    root_counts,
    covering_number,
    covering_report,
    cayley_from_context,
    sl2_permutation_group,
    cyclic_group,
    symmetric_group,
)
from .verify import SuiteResult, VerifyConfig, verify_lemmas

__all__ = [name for name in dir() if not name.startswith("_")]
