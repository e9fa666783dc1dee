"""Exact-arithmetic Grothendieck groups, graded monoid rings, localization."""

from .errors import (
    AxiomViolationError,
    BaseMismatchError,
    GrothlocError,
    InvalidInputError,
    MalformedDenominatorError,
    MalformedElementError,
    NotHomogeneousError,
    OracleRequiredError,
    PreconditionError,
    TorsionWitnessError,
    UndecidableConfigurationError,
    UnsupportedFamilyError,
    ZeroDegreeError,
)
from .grothendieck import (
    FGAbelianStructure,
    GrothElement,
    GrothendieckGroup,
    GrothOrder,
    SNFResult,
    build_total_order,
    canonical_map_injective,
    direct_sum_groth,
    finite_groth_structure,
    groth_classes,
    monoid_groth_structure,
    numeric_compare,
    order_from_monoid_order,
    presentation_matrix,
    smith_normal_form,
    structure_from_snf,
    universal_extend,
)
from .localization import (
    EmbeddingReport,
    Fraction,
    LocalizedRing,
    MultiplicativeSet,
    SaturationSet,
    UnitGroup,
    UnitsIsoReport,
    decompose_fraction,
    groth_units_embedding,
    groth_units_iso,
    ideal_closure,
    kx_counterexample_check,
    localization_classes,
    one_plus_ideal_check,
    sample_fraction,
    saturate,
    sum_components,
    units_of_localization,
)
from .monoid import (
    CayleyMonoid,
    CommutativeMonoid,
    DirectSumMonoid,
    FreeCommutativeMonoid,
    IntegerLatticeMonoid,
    MonoidPresentation,
    monoid_from_dict,
)
from .ring import (
    GroupRing,
    GroupRingElement,
    IntegerRing,
    ModRing,
    MonoidRing,
    MRElement,
    degree_of,
    group_ring_map_injective,
    monomial_is_nonzerodivisor,
    ring_from_dict,
)
from .isomorphisms import (
    HMapContext,
    h_forward,
    h_inverse,
    laurent_iso,
    sample_group_ring_element,
    sample_t_fraction,
    verify_isomorphism,
)
from .rng import Lcg64

__version__ = "0.1.0"
