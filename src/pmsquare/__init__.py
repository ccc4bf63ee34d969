"""Peres-Mermin square toolkit.

Builds the 3x3 two-qubit operator square, establishes by exhaustive
search that no +/-1 assignment satisfies all six row/column constraints,
encodes three photon-pair realizations of the square together with their
simultaneity structure, and constructs deterministic noncontextual
hidden-variable models for each realization, including a joint-
distribution construction realized as a linear-feasibility problem.
"""

from .errors import InfeasibleModelError, InternalConsistencyError
from .feasibility import FeasibilityResult, LinearSystem, solve
from .hvmodels import (
    CHReport,
    FineResult,
    HVModel,
    HiddenState,
    SampleReport,
    StatisticsReport,
    WitnessReport,
    audit_noncontextuality,
    build_model1,
    build_model23,
    ch_report,
    chsh_max_state,
    fine_joint,
    fine_system,
    quantum_pair_joints,
    reproduce_statistics,
    sample_model,
    violation_witnesses,
)
from .qm import (
    PAULI,
    apply,
    born_probability,
    commutator,
    expectations,
    ket,
    pauli_tensor,
    product_ket,
    projector,
    side_projector,
)
from .realizations import (
    DerivedMeasurement,
    PhysicalMeasurement,
    Realization,
    RequirementReport,
    build_realization,
    check_requirements,
    translate_outcomes,
    translate_outcomes_inverse,
)
from .square import (
    CONTEXTS,
    GRID,
    NAMED_STATES,
    Context,
    admissible_triples,
    cell_operator,
    commutation_relation,
    context_cells,
    context_operator_product,
    eigentable,
    search_assignments,
)

__version__ = "0.1.0"
