"""Stabilizer Lie algebras, local-unitary invariants, and canonical forms
for n-qubit pure states."""

from .states import (
    DensityMatrix,
    FactorizationReport,
    PureState,
    basis_state,
    canonical_four_qubit_state,
    complement_pair_state,
    ghz_state,
    is_product,
    partial_trace,
    purity,
    random_state,
    reduced_state,
    singlet_state,
    subset_purity,
    tensor_product,
    to_density,
    w_state,
)
from .local_unitary import (
    SU2_BASIS,
    LieElement,
    LocalUnitary,
    apply_infinitesimal,
    apply_local_unitary,
    commutator_action,
    compose,
    conjugate_density,
    conjugate_element,
    diagonal_commutator_weight,
    embed,
    exp_su2,
    haar_random_local_unitary,
    haar_su2,
    identity_local_unitary,
    inverse,
    su2_coords,
    su2_matrix,
)
from .stabilizer import (
    AlgebraType,
    ProjectionCheck,
    StabilizerBasis,
    algebra_type,
    phase_projection_check,
    principal_angles,
    span_contains,
    stabilizer_density,
    stabilizer_pure,
)
from .invariants import (
    DEFAULT_TRIPLES,
    EXTRA_TRIPLE,
    REFERENCE_TRIPLE,
    SWAP34_TRIPLE,
    InvariantFingerprint,
    PermutationTriple,
    canonical_poly3_im,
    fingerprint_drift,
    invariant_fingerprint,
    pair_invariants,
    polynomial_invariant,
    purity_invariant,
    separating_component,
)
from .equivalence import (
    EquivVerdict,
    FidelitySearch,
    decide_equivalence,
    lu_infidelity,
)
from .classify import (
    CanonicalizationError,
    ClassificationReport,
    FourQubitCanonicalForm,
    GhzCanonicalForm,
    canonicalize_four_qubit,
    canonicalize_ghz,
    classify,
)
from .io import (
    GuardError,
    StateFormatError,
    load_state,
    named_state,
    parse_state_json,
    parse_state_text,
    resolve_state,
    state_to_dict,
    state_to_text,
)
from .selftest import CriterionResult, SelftestReport, run_criterion, run_selftest

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
