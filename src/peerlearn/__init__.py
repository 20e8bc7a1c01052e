"""Serverless federated learning over directed graphs.

Nodes hold beliefs over a shared parameter set, refine them with local
Bayesian updates, and merge neighbors' beliefs by weighted
log-geometric-mean consensus. The package bundles the belief engines
(discrete and conjugate-Gaussian), the graph spectral toolkit, the
sample-complexity and risk bounds, a deterministic round-based simulator,
and a CLI for running configured experiments.
"""

from .beliefs import (
    BeliefVector,
    DimensionMismatchError,
    WeightMismatchError,
    ZeroLikelihoodError,
    consensus_update,
)
from .gaussian import (
    GaussianBelief,
    SingularPrecisionError,
    discretized_consensus_oracle,
    from_mean_covariance_diag,
    gaussian_consensus,
)
from .graph import (
    GraphError,
    MixingBoundReport,
    NotStochasticError,
    NotStronglyConnectedError,
    PeriodicError,
    SpectralSummary,
    WeightMatrix,
    spectral_gap,
    stationary_distribution,
    validate_weight_matrix,
    verify_mixing_bound,
)
from .models import (
    BernoulliContextModel,
    CategoricalContextModel,
    CoveringReport,
    LikelihoodModel,
    LinearGaussianModel,
    NotGloballyLearnableError,
    ParameterSet,
    SeparationTable,
    UnboundedKLError,
    assumption_bounds,
    separation_table,
    verify_r_covering,
)
from .sim import (
    ExperimentReport,
    Scenario,
    TrialResult,
    make_regression_test_set,
    node_stream,
    run_experiment,
    run_trial,
)
from .theory import (
    BoundInputs,
    InvalidInputsError,
    risk_gap_chain,
    empirical_risk_gap,
    risk_bound,
    sample_complexity,
    sample_complexity_real,
)

__version__ = "0.1.0"
