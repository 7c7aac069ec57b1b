"""pcons: partial-consensus constrained optimization at desk scale.

Build the Laplacian-derived coupling matrix for agents that share only
their leading components, integrate the projected subgradient flow to a
KKT point, verify the structural and convergence properties at runtime,
and run everything decentralized as message-passing agents.
"""

__version__ = "0.1.0"

from .convex import (
    Box,
    ConstraintMap,
    ConvexExpr,
    absolute,
    affine,
    exponential,
    in_normal_cone,
    no_constraints,
    project_nonneg,
    quadratic,
    whole_space,
)
from .dynamics import (
    AgentProblem,
    KKTResidual,
    LyapunovValue,
    ProblemInstance,
    SolverState,
    Trajectory,
    coupling_gain,
    initial_state,
    integrate,
    kkt_residual,
    lyapunov_value,
    rhs,
    step,
    write_trajectory_csv,
)
from .errors import (
    ConvexityError,
    DivergenceError,
    ExpressionError,
    InvalidInputError,
    NumericalError,
    ProtocolError,
)
from .network import (
    Agent,
    Message,
    build_agents,
    run_decentralized,
    synchronous_round,
    write_message_log_csv,
)
from .oracle import brute_force_solve
from .pcmatrix import (
    AgentDims,
    OrderedIndexSet,
    PartialConsensusMatrix,
    PermutationMatrix,
    SpectralSummary,
    build_partial_consensus_matrix,
    consensus_index_set,
    extend_matrix,
    extract,
    is_partial_consensus,
    laplacian_is_connected,
    normalize_laplacian,
    ordered_union,
    permutation_matrix,
    spectral_summary,
)
from .problemfile import (
    LoadedProblem,
    SolverSettings,
    fixture_path,
    format_expression,
    parse_expression,
    parse_problem,
    parse_problem_dict,
    serialize_problem,
)

__all__ = [name for name in dir() if not name.startswith("_")]
