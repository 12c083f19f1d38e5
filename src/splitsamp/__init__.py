"""Fixed-size unequal-probability sampling with martingale tail bounds.

The package covers four things: computing capped size-proportional
inclusion probabilities, drawing fixed-size samples whose inclusion
probabilities hit those targets exactly (Chao, Tille elimination,
generalized Midzuno, Brewer, plus simple random sampling), evaluating
exponential tail bounds for the Horvitz-Thompson estimator, and
verifying the structural claims behind those bounds by exact
enumeration on small populations.
"""

from .bounds import (
    BoundInputs,
    DominanceRegime,
    TailBoundReport,
    VacuousToleranceWarning,
    bernstein_bound,
    cna_bound,
    cna_bound_Mc,
    dominance_grid,
    dominance_regime,
    eps_star,
    evaluate_bounds,
    lipschitz_bound,
    solve_confidence_radius,
    solve_sample_size,
)
from .designs import (
    DesignKind,
    Sample,
    Sampler,
    make_sampler,
    sample_brewer,
    sample_chao,
    sample_midzuno,
    sample_srswor,
    sample_tille,
)
from .distribution import (
    ExactDesignDistribution,
    containment,
    first_second_order,
)
from .errors import (
    ContractViolationError,
    EnumerationBudgetError,
    InvalidInputError,
    InvalidSizeError,
    NotApplicableError,
    PopulationFileError,
    RepresentationError,
    SplitsampError,
)
from .estimation import HTResult, ht_estimate
from .experiment import (
    DEFAULT_NS,
    DEFAULT_SEED,
    DEFAULT_SIGMAS,
    ExperimentConfig,
    ExperimentRow,
    experiment_csv,
    generate_population,
    polar_normals,
    run_experiment,
)
from .montecarlo import (
    CertRow,
    TailEstimate,
    certify,
    derive_seed,
    estimate_tail,
    wilson_upper,
)
from .oracle import (
    CsygReport,
    check_csyg,
    check_pairwise_na,
    enumerate_design,
    midzuno_complementarity_tv,
    unbiasedness_check,
)
from .population import (
    InclusionProbabilities,
    Population,
    StudyVector,
    compute_pips,
    load_population,
    study_vector,
)
from .splitting import (
    SplittingStep,
    SplittingTrace,
    draw_by_draw_distribution,
    draw_by_draw_from_distribution,
    ht_increments,
    sequential_leaf_distribution,
    sequential_splitting_from_distribution,
)

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "CertRow",
    "ContractViolationError",
    "CsygReport",
    "DesignKind",
    "DominanceRegime",
    "EnumerationBudgetError",
    "ExactDesignDistribution",
    "DEFAULT_NS",
    "DEFAULT_SEED",
    "DEFAULT_SIGMAS",
    "ExperimentConfig",
    "ExperimentRow",
    "HTResult",
    "InclusionProbabilities",
    "InvalidInputError",
    "InvalidSizeError",
    "NotApplicableError",
    "Population",
    "PopulationFileError",
    "RepresentationError",
    "Sample",
    "Sampler",
    "SplitsampError",
    "SplittingStep",
    "SplittingTrace",
    "StudyVector",
    "TailBoundReport",
    "TailEstimate",
    "VacuousToleranceWarning",
    "bernstein_bound",
    "certify",
    "check_csyg",
    "check_pairwise_na",
    "cna_bound",
    "cna_bound_Mc",
    "compute_pips",
    "containment",
    "derive_seed",
    "dominance_grid",
    "dominance_regime",
    "draw_by_draw_distribution",
    "draw_by_draw_from_distribution",
    "enumerate_design",
    "eps_star",
    "estimate_tail",
    "evaluate_bounds",
    "experiment_csv",
    "first_second_order",
    "generate_population",
    "ht_estimate",
    "ht_increments",
    "lipschitz_bound",
    "load_population",
    "make_sampler",
    "midzuno_complementarity_tv",
    "polar_normals",
    "run_experiment",
    "sample_brewer",
    "sample_chao",
    "sample_midzuno",
    "sample_srswor",
    "sample_tille",
    "sequential_leaf_distribution",
    "sequential_splitting_from_distribution",
    "solve_confidence_radius",
    "solve_sample_size",
    "study_vector",
    "unbiasedness_check",
    "wilson_upper",
]
