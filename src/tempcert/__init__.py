"""tempcert: decide whether bipartite quantum statistics admit a causal explanation.

The toolkit reconstructs temporal channels from bipartite states, decomposes
them into a generalized dephasing stage followed by a pretty-good
measure-and-prepare stage, and certifies temporal compatibility through a
dephased partial-transpose test with a built-in cross-check.
"""

from .channels import (
    CptpReport,
    Process,
    SuperOp,
    apply,
    apply_to_factor,
    compose,
    from_jamiolkowski,
    from_kraus,
    hs_adjoint,
    identity_channel,
    is_cptp,
    is_hptp,
    jamiolkowski,
    replace_channel,
    superoperator_matrix,
    transpose_map,
)
from .ensembles import (
    DiscriminationInstance,
    ProductEnsemble,
    assemble_state,
    discrimination_povm,
    is_orthogonal_ensemble,
    perfect_distinguishability_check,
    random_cptp,
    random_density,
    random_light_touch,
    random_povm,
    random_separable,
    random_unitary,
)
from .operators import (
    DEFAULT_TOLS,
    Spectrum,
    Tolerances,
    cauchy_matrix,
    hadamard_product,
    harmonic_mean_matrix,
    is_psd,
    max_abs,
    partial_trace,
    partial_transpose,
    sqrt_pinv,
    swap_factors,
    tensor,
    validate_density,
)
from .retrodiction import (
    bayesian_inverse,
    petz_recovery,
    petz_selfinverse_dephasing_check,
    verify_dfed,
)
from .sot import (
    PAULIS,
    CorrelationTable,
    correlations_from_process,
    is_light_touch,
    observable,
    pauli_index,
    pauli_string,
    pdm_from_correlations,
    representability_check,
    reverse_star,
    star_product,
    two_time_expectation,
)
from .temporal import (
    CertificationResult,
    CompatibilityReport,
    VerdictMismatchError,
    certify,
    compatibility_test,
    correlation_matrix_check,
    dephasing_channel,
    is_ppt,
    pgm_map,
    sylvester_oracle,
    temporal_channel,
    verify_decomposition,
)

__version__ = "0.1.0"
