"""Minimax and adaptive estimation of sparse linear functionals under
sub-Weibull noise: threshold-equation solvers, rate functionals, estimators,
a linear hypothesis test, least-favorable priors, and a seeded Monte Carlo
harness."""

from ._version import __version__
from .loading import LoadingSpec, LoadingVector, effective_dimension, make_loading
from .threshold import (
    BracketError,
    ThresholdSolution,
    Tolerances,
    phi_objective,
    solve_adaptive_beta,
    solve_beta,
    solve_lambda_H,
)
from .rates import (
    AdaptiveRateProfile,
    RateCalculator,
    RateProfile,
    adaptive_rate,
    check_assumption,
    closed_form_rate,
    j3_index,
    oracle_rate,
    oracle_rate_decomposed,
)
from .noise import NoiseModel, minimal_tau, sample, sigma_alpha, tail_check
from .estimators import (
    EstimateResult,
    EstimationInput,
    EstimatorSpec,
    TestResult,
    adaptive_estimate,
    collier_estimate,
    default_zeta,
    family_estimate,
    lepski_select,
    linear_test,
    mom_sigma,
    nonsymmetric_estimate,
    oracle_estimate,
    plugin_estimate,
    unknown_sigma_estimate,
)
from .lowerbound import (
    LeastFavorablePrior,
    ThetaSpec,
    build_prior,
    chi2_mixture_bound,
    prior_moments,
    sample_prior,
)
from .sim import (
    MomCoverageReport,
    SimConfig,
    SimulationReport,
    calibrate_test_threshold,
    risk_grid,
    run_mom_coverage,
    run_risk,
    run_test_power,
)
from .config import ConfigError, ExperimentConfig, parse_config, serialize_config

__all__ = [name for name in dir() if not name.startswith("_")]
