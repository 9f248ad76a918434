"""Divergent perpetuities: simulation, extremal limit processes, checks.

The package simulates backward perpetuities and forward stochastic
difference equations whose log magnitudes grow linearly, samples their
extremal limit processes from truncated Poisson constructions, applies
the smoothed signed-sum and running-max path functionals, and verifies
the distributional statements connecting the two sides.

Importing the package loads numpy only. Only the regime classifier's
quadrature (``compute_A``, ``stability_integral_truncated``) calls scipy,
and it imports scipy in its body, so every other command runs without
loading it.
"""

from importlib import metadata as _metadata

from .errors import (
    ConfigurationError,
    ParameterError,
    PerpetuityError,
    StatisticalError,
    UnsupportedFamilyError,
)
from .functionals import (
    FAIL,
    PASS,
    UNDECIDABLE,
    ConditionReport,
    ConditionResult,
    ConvergenceInstance,
    SignedAtomSequence,
    bundled_instance,
    check_conditions,
    convergence_demo,
    default_gamma,
    fn_functional,
    g_functional,
    instance_names,
)
from .laws import (
    PRESET_NAMES,
    CoefficientLaw,
    Regime,
    classify_regime,
    compute_A,
    compute_bn,
    draw_log_mq,
    law_from_dict,
    law_to_dict,
    mean_log_m,
    preset_law,
    quantile_log_q,
    stability_integral_truncated,
    tail_Q,
)
from .limits import (
    LimitKind,
    PrmSpec,
    drift_exceedance_intensity,
    drift_marginal_cdf,
    extremal_path,
    limit_marginal_values,
    peak_marginal_cdf,
    sample_prm,
)
from .paths import (
    PointMeasure,
    StepPath,
    j1_distance,
    point_match_distance,
    restrict_path,
    uniform_distance,
)
from .simulate import (
    SimScenario,
    backward_marginal_values,
    backward_sup_values,
    batch_columns,
    forward_marginal_values,
    forward_sup_values,
    pakes_values,
    replication_rng,
    simulate_forward_chain_path,
    simulate_perpetuity_path,
)
from .slog import signed_log_diff
from .verify import (
    MARGINAL_TAGS,
    REPORT_TAGS,
    VerificationReport,
    canonical_tag,
    compatible_tags,
    ks_statistic,
    ks_threshold,
    two_sample_ks,
    two_sample_threshold,
    verify_forward_backward_equality,
    verify_functional_sup,
    verify_marginal,
    verify_suite,
)

try:
    __version__ = _metadata.version("perpetuities")
except _metadata.PackageNotFoundError:
    __version__ = "unknown"

__all__ = [
    "CoefficientLaw",
    "ConditionReport",
    "ConditionResult",
    "ConfigurationError",
    "ConvergenceInstance",
    "FAIL",
    "LimitKind",
    "MARGINAL_TAGS",
    "PASS",
    "PRESET_NAMES",
    "ParameterError",
    "PerpetuityError",
    "PointMeasure",
    "PrmSpec",
    "REPORT_TAGS",
    "Regime",
    "SignedAtomSequence",
    "SimScenario",
    "StatisticalError",
    "StepPath",
    "UNDECIDABLE",
    "UnsupportedFamilyError",
    "VerificationReport",
    "backward_marginal_values",
    "backward_sup_values",
    "batch_columns",
    "bundled_instance",
    "canonical_tag",
    "check_conditions",
    "classify_regime",
    "compatible_tags",
    "compute_A",
    "compute_bn",
    "convergence_demo",
    "default_gamma",
    "draw_log_mq",
    "drift_exceedance_intensity",
    "drift_marginal_cdf",
    "extremal_path",
    "fn_functional",
    "forward_marginal_values",
    "forward_sup_values",
    "g_functional",
    "instance_names",
    "j1_distance",
    "ks_statistic",
    "ks_threshold",
    "law_from_dict",
    "law_to_dict",
    "limit_marginal_values",
    "mean_log_m",
    "pakes_values",
    "peak_marginal_cdf",
    "point_match_distance",
    "preset_law",
    "quantile_log_q",
    "replication_rng",
    "restrict_path",
    "sample_prm",
    "signed_log_diff",
    "simulate_forward_chain_path",
    "simulate_perpetuity_path",
    "stability_integral_truncated",
    "tail_Q",
    "two_sample_ks",
    "two_sample_threshold",
    "uniform_distance",
    "verify_forward_backward_equality",
    "verify_functional_sup",
    "verify_marginal",
    "verify_suite",
]
