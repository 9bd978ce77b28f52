"""Simulation and verification toolkit for parallel queues where each
arrival joins the queue with the P-th least workload (P=1 is
join-the-shortest-workload).

The public surface re-exported here:

- profile arithmetic, the one-step workload recursion (`pth_step`) and its
  run over a mark sequence (`iter_profiles`),
- partial orderings on profiles and randomized closure-property suites,
- reproducible mark generation (iid, Markov-modulated, trace),
- backward stationary-profile estimation,
- coupled-path dominance checks between systems.
"""

from .comparison import (
    ComparisonReport,
    StepViolation,
    SystemConfig,
    compare_allocation_ranks,
    compare_server_counts,
    fcfs_waiting_times,
)
from .config import ExperimentConfig, load_config, parse_law, parse_seeds
from .errors import ConfigError, InputError, PremiseError, StabilityError
from .loynes import LoynesResult, estimate_stationary_many
from .orderings import (
    PropertySuiteReport,
    OrderVerdict,
    Violation,
    check_clamp_insert_stability,
    check_negation_symmetry,
    check_shift_monotonicity,
    check_sorted_difference_balance,
    check_step_comparison,
    convex_symmetric_battery,
    prec,
    prec_p,
    prec_star,
    run_property_suite,
    schur_convex_leq,
    suite_names,
)
from .processes import (
    RNG_ALGORITHM,
    Deterministic,
    Exponential,
    Hyperexponential,
    IIDModel,
    InputModel,
    MarkovModulatedModel,
    MarkSequence,
    StabilityVerdict,
    TraceModel,
    Uniform,
    generate,
    generate_chunks,
    generate_forward,
    mean_sigma,
    mean_xi,
    model_label,
    stability_check,
)
from .profiles import (
    Mark,
    Profile,
    iter_profiles,
    pad,
    pth_step,
    total_workload,
    zero_profile,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConfigError",
    "Deterministic",
    "ExperimentConfig",
    "Exponential",
    "Hyperexponential",
    "IIDModel",
    "InputError",
    "InputModel",
    "LoynesResult",
    "Mark",
    "MarkSequence",
    "MarkovModulatedModel",
    "OrderVerdict",
    "PremiseError",
    "Profile",
    "PropertySuiteReport",
    "RNG_ALGORITHM",
    "StabilityError",
    "StabilityVerdict",
    "StepViolation",
    "SystemConfig",
    "TraceModel",
    "Uniform",
    "Violation",
    "check_clamp_insert_stability",
    "check_negation_symmetry",
    "check_shift_monotonicity",
    "check_sorted_difference_balance",
    "check_step_comparison",
    "compare_allocation_ranks",
    "compare_server_counts",
    "convex_symmetric_battery",
    "estimate_stationary_many",
    "fcfs_waiting_times",
    "generate",
    "generate_chunks",
    "generate_forward",
    "iter_profiles",
    "load_config",
    "mean_sigma",
    "mean_xi",
    "model_label",
    "pad",
    "parse_law",
    "parse_seeds",
    "prec",
    "prec_p",
    "prec_star",
    "pth_step",
    "run_property_suite",
    "schur_convex_leq",
    "stability_check",
    "suite_names",
    "total_workload",
    "zero_profile",
]
