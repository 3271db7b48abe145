"""Harmonic analysis on unit spheres over finite quotient rings O/p^m.

Decomposes functions on the mod-p^m sphere into irreducible modules for
GL_n(O/p^m), builds the zonal functions in closed form, models
principal-series restrictions at finite level together with their
newform and conductor data, and verifies every closed-form law against
independent brute-force oracles.
"""

from .ring import (
    RingLevel,
    UnitCharacter,
    UnitGroupBasis,
    characters,
    make_ring_level,
    unit_group_basis,
    unit_subgroup_basis,
)
from .sphere import SphereIndex, sphere_size
from .matgroup import (
    BudgetExceededError,
    SubgroupSpec,
    chang_beta,
    closure,
    double_coset_index,
    double_coset_witness,
    enumerate_group,
    group_order,
    group_stack,
    subgroup_generators,
    subgroup_membership,
    subgroup_order,
    u_ell,
    verify_generators,
)
from .harmonics import (
    SphereSpace,
    Subspace,
    chi_level_subspace,
    commutant_dimension,
    dim_chi_level,
    dim_harmonic,
    harmonic_subspace,
    idempotent_sum_residual,
    invariant_vectors,
    mirabolic_orbit_count,
    phi_fn,
    verify_addition_theorem,
    verify_piece_identities,
    verify_reproducing_kernel,
    verify_zonal_symmetry,
    zonal_fn,
    zonal_shell_coefficient,
)
from .pseries import (
    ConductorNotVisible,
    FlagCosets,
    PSeriesModel,
    build_model,
    flag_canon,
    flag_count,
    vector_from_harmonic,
)
from .numerics import RankCertificateError

__all__ = [name for name in dir() if not name.startswith("_")]
