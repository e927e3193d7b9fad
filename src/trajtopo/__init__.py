"""Topological complexity of optimizer trajectories.

Library and CLI for measuring the geometry of training trajectories
(weighted MST lifetime sums, positive magnitude), estimating trajectory
stability empirically, and evaluating stability-based generalization
bounds on desk-scale synthetic runs.

Every scipy name is imported inside the function that calls it, never at
module level, and the process pool only by a run with `jobs > 1`: scipy
takes longer to import than the rest of the CLI, and the commands that
need none of it (`report`, `bound`, `lifetime-sum`, a re-run whose stored
results all hit) never pay for it.
"""

from .analysis import grid_report, kendall, pearson, slope_vs_n, spearman, worst_case_gap
from .artifacts import (
    ArtifactManifest,
    LossMatrix,
    RunRecord,
    Trajectory,
    read_artifact,
    write_artifact,
)
from .bounds import (
    BoundResult,
    ConstantsEstimate,
    ealpha_bound,
    estimate_constants,
    kn_alpha,
    lemma_rhs_ealpha,
    lemma_rhs_pmag,
    mc_rademacher,
    pmag_bound,
)
from .errors import (
    InvalidInputError,
    NumericalFailureError,
    TrajtopoError,
    UndefinedStatisticError,
    UnsupportedVersionError,
)
from .geometry import DistanceMatrix, deduplicate, pairwise_distances, subsample_uniform
from .lifetime import EdgeList, alpha_weighted_lifetime_sum, minimum_spanning_tree
from .magnitude import (
    ScaleGrid,
    WeightingSolution,
    pmag_scale,
    positive_magnitude,
    weighting,
)
from .stability import (
    StabilityConfig,
    StabilityReport,
    analytic_sgd_stability,
    estimate_stability,
    run_stability_experiment,
)
from .trainer import (
    Dataset,
    PerturbSpec,
    SGDConfig,
    loss_matrix,
    make_task_and_data,
    perturb_dataset,
    projected_sgd,
    projected_sgd_stack,
)

__version__ = "0.1.0"

__all__ = [
    "ArtifactManifest",
    "BoundResult",
    "ConstantsEstimate",
    "Dataset",
    "DistanceMatrix",
    "EdgeList",
    "InvalidInputError",
    "LossMatrix",
    "NumericalFailureError",
    "PerturbSpec",
    "RunRecord",
    "SGDConfig",
    "ScaleGrid",
    "StabilityConfig",
    "StabilityReport",
    "Trajectory",
    "TrajtopoError",
    "UndefinedStatisticError",
    "UnsupportedVersionError",
    "WeightingSolution",
    "alpha_weighted_lifetime_sum",
    "analytic_sgd_stability",
    "deduplicate",
    "ealpha_bound",
    "estimate_constants",
    "estimate_stability",
    "grid_report",
    "kendall",
    "kn_alpha",
    "lemma_rhs_ealpha",
    "lemma_rhs_pmag",
    "loss_matrix",
    "make_task_and_data",
    "mc_rademacher",
    "minimum_spanning_tree",
    "pairwise_distances",
    "pearson",
    "perturb_dataset",
    "pmag_bound",
    "pmag_scale",
    "positive_magnitude",
    "projected_sgd",
    "projected_sgd_stack",
    "read_artifact",
    "run_stability_experiment",
    "slope_vs_n",
    "spearman",
    "subsample_uniform",
    "weighting",
    "worst_case_gap",
    "write_artifact",
]
