"""Finite quantaloid-enriched semicategories.

Sup-lattices and quantaloids with exhaustive residuation, the
semidistributor calculus with its regularity predicates, presheaf
classification (regular and Yoneda) with the reflection/coreflection
triple, Morita-equivalence decisions, and the idempotent-splitting
completion, all at finite scale where every law can be checked by
enumeration.
"""

from .errors import (
    ActionFailure,
    AssocFailure,
    CompositionFailure,
    EnumerationCapExceeded,
    MissingJoin,
    NotACategory,
    NotAFrame,
    NotAPartialOrder,
    NotCocontinuous,
    NotIdempotent,
    NotRegular,
    NotSupPreserving,
    NotSymmetric,
    NotTransitive,
    NotTransitiveEq,
    ParseError,
    QsError,
    SearchCapExceeded,
    TypeMismatch,
    UnitFailure,
)
from .lattice import (
    SupLattice,
    chain,
    diamond_lattice,
    named_lattice,
    square_lattice,
    validate_sup_lattice,
)
from .quantaloid import (
    QArrow,
    Quantaloid,
    builtin_quantaloid,
    from_frame,
    from_quantale,
    validate_quantaloid,
)
from .semicat import (
    SemiCategory,
    SemiDistributor,
    SemiFunctor,
    TypedSet,
    bottom_semidist,
    compose_semidist,
    enumerate_regular_semidists,
    free_category,
    graph_semidists,
    identity_semidist,
    is_adjoint_pair,
    is_category,
    is_regular_semicat,
    is_regular_semidist,
    is_regular_semifunctor,
    leq_semidist,
    lifting_dist,
    lifting_rsdist,
    matrix_space,
    right_adjoint,
    sup_semidist,
    validate_semicategory,
    validate_semidistributor,
    validate_semifunctor,
)
from .presheaf import (
    CO,
    CONTRA,
    DEFAULT_CAP,
    Presheaf,
    QCategoryView,
    build_PA,
    build_RA,
    build_YA,
    enumerate_presheaves,
    is_colimit,
    is_regular_presheaf,
    is_regular_via_liftings,
    is_yoneda_presheaf,
    map_j,
    map_k,
    presheaf_hom_elem,
    unit_category,
    weighted_colimit_RA,
    yoneda,
    yoneda_covariant,
)
from .morita import (
    InducedFunctor,
    MoritaResult,
    SkeletonReport,
    categories_isomorphic,
    distributor_from_cocont,
    morita_equivalent,
    rsdist_isomorphism_search,
    skeleton,
)
from .completion import (
    IdmQuantaloid,
    build_idm,
    idempotents,
    idm_lifting,
    split_idempotent_in_idm,
    verify_rsdist_is_idm_matr,
)
from .instances import (
    FinitePoset,
    OmegaSet,
    has_interpolation,
    is_omega_morphism,
    omega_subsets,
    scott_closeds,
    scott_continuity_check,
    scott_opens,
    strict_order_to_semicat,
    validate_omega_set,
    validate_poset,
    way_below,
)

__version__ = "0.1.0"
