"""Exact-arithmetic Hochschild homology of dg categories with finite
group actions: equivariant categories, twisted windows, and the
mechanically verified decomposition into centralizer invariants."""

from .decomposition import (
    DecompositionReport,
    decompose,
    graded_sym_power,
    sym_power_summand,
)
from .dgcat import (
    DgCategory,
    DgFunctor,
    Mor,
    NatTransform,
    additive_hull,
    algebra_category,
    hull_subcategory,
    tensor_category,
    validate_dgcat,
    validate_functor,
    validate_nat,
)
from .equivariant import (
    EquivariantCategory,
    EquivariantObject,
    adjunction_maps,
    lift_action,
    rep_tensor,
    sfor_iso,
    symmetrize,
    validate_equivariant,
)
from .groups import (
    FiniteGroup,
    GroupAction,
    Representation,
    character,
    conjugacy_data,
    permutation_action,
    strict_action,
    trivial_action,
    validate_action,
)
from .hochschild import (
    HochschildWindow,
    build_window,
    compose_induced,
    conjugate_transport,
    hh_dimensions,
    shuffle_map,
    verify_trace_decomposition,
)
from .linalg import GradedSpace, SparseMatrix, rank_kernel_image
from .scalars import QQ, Cyc, CyclotomicField, format_scalar, parse_scalar

__version__ = "0.1.0"
