"""Entanglement distillation workbench.

Density operators and operation algebra on small bipartite spaces, the
isotropic-state reduction protocols with closed-form fidelity maps,
entanglement bounds, and protocol-trace rate accounting with the transforms
between the distillable-entanglement rate definitions.
"""

from .bounds import (
    EFSearch,
    FormationBounds,
    HashingRate,
    binary_entropy,
    ef_numeric_estimate,
    ef_numeric_search,
    formation_bounds_isotropic,
    hashing_rate,
    ppt_bound_isotropic,
)
from .distillation import (
    BranchOutcome,
    CompilerConfig,
    CompileResult,
    ProtocolTrace,
    RateReport,
    TraceStep,
    discard_padding,
    dims_are_powers_of_two,
    floor_dims_to_powers_of_two,
    power_of_two_transform,
    rate_report,
    single_branch_rate,
    tensor_power_compile,
)
from .linalg import (
    BipartiteLabel,
    DensityOperator,
    haar_unitaries,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    random_density,
)
from .operations import (
    QuantumOperation,
    SeparableWitness,
    SubOperation,
    apply_operation,
    choi_matrix,
    compose,
    forget,
    identity_operation,
    is_completely_positive,
    is_ppt_operation,
    is_trace_preserving,
    make_local,
    natural_product_witness,
    ppt_choi,
    tensor_operations,
    verify_separable_form,
)
from .protocols import (
    ReductionPlan,
    exact_twirl,
    factor_tracing_fidelity,
    factor_tracing_op,
    monte_carlo_twirl,
    reduce_dimension,
    reduce_dimension_fidelity,
    subspace_measurement_fidelity,
    subspace_measurement_op,
)
from .states import (
    fidelity,
    isotropic,
    max_entangled_ket,
    max_entangled_projector,
)

__version__ = "0.1.0"
