"""Locally private counting of below-threshold triangles in weighted graphs."""

from .graph import (
    GraphStructureError,
    WeightedGraph,
    canonical_edge,
    enumerate_triangles,
    exact_below_threshold_count,
    triangle_weights,
)
from .assignment import (
    Assignment,
    InstanceTooLargeError,
    brute_force_optimal_assign,
    count_c4_instances,
    greedy_assign,
)
from .mechanisms import (
    PrivacyBudget,
    RandomSource,
    dlap_cdf,
    dlap_pmf,
    dlap_sample,
    smooth_noise_inverse_cdf,
)
from .estimators import (
    EstimatorKind,
    closed_form_moments,
    expected_biased,
    h_value,
)
from .sensitivity import segment_smooth_sensitivities, smooth_sensitivity_bruteforce
from .protocol import (
    Baseline,
    Mechanism,
    RunReport,
    TwoStep,
    run_baseline,
    run_methods,
    run_two_step,
)
from .experiments import (
    ExperimentConfig,
    ErrorReport,
    default_lambda,
    generate_synthetic,
    induced_subgraph,
    milan_scale_weights,
    parse_edge_list,
    run_sweep,
    sample_induced_subgraph,
    write_edge_list,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
