"""Feedback-driven statevector simulation for Max-Cut with certified ratio bounds."""

from .certificates import (
    Certificates,
    DenominatorCollapse,
    OneParamTracker,
    TwoParamTracker,
    max_step_size,
    one_param_step,
    potential_value,
    two_param_lower_bound,
    two_param_step,
)
from .dynamics import (
    BetaParams,
    Run,
    RunConfig,
    StepTrace,
    beta_schedule,
    run_light_cone,
    run_qaoa_feedback,
)
from .experiments import (
    ConvergenceRecord,
    FitResult,
    PlotSeries,
    SuiteSpec,
    convergence_experiment,
    emit_plot,
    fit_loglog,
    percentile,
    run_suite,
    solve_instance,
)
from .graphs import (
    BfsOrder,
    CutOracleResult,
    EdgeColoring,
    GenerationError,
    Graph,
    GraphError,
    bfs_order,
    brute_force_max_cut,
    edge_coloring,
    enumerate_cubic,
    gen_bipartite,
    gen_erdos_renyi,
    gen_random_regular,
    is_connected,
)
from .hamiltonian import MaxCutHamiltonian, NormBounds, build_maxcut, commutator_terms, error_constants
from .statevector import (
    ObservableTerms,
    PauliTerm,
    StateVector,
    apply_diagonal_phase,
    apply_rx,
    apply_rx_blocks,
    apply_ryz,
    apply_rzz,
    apply_yz_layer,
    expectation_diagonal,
    expectation_pauli,
    feedback_observable,
    init_plus,
    sum_x,
    sum_yz,
)

__version__ = "0.1.0"
