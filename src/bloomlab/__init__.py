"""Bloom filters, privacy-preserving variants, and adversarial test harnesses."""

from .errors import DomainError, ParameterError, UnsupportedOperationError
from .feistel import FeistelPermutation
from .filters import (
    KEYED_PRF,
    PUBLIC,
    TRUE_RANDOM,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    estimate_fpr,
    expected_fpr,
    filter_factory,
    fresh_family,
    optimal_k,
)
from .games import (
    Adversary,
    GameConfig,
    SaturationAdversary,
    UniformAdversary,
    expected_profit_formula,
    profit_lower_bound,
    resilience_threshold_with_optimal_k,
    run_ab_test,
    run_bp_test,
    saturation_probability,
)
from .filic import (
    REFUSED,
    FilicAdversary,
    KeyLeakingFilter,
    OracleBudget,
    SimulatorState,
    ab_to_filic_adversary,
    estimate_advantage,
    run_ideal,
    run_real,
)
from .learned import (
    LearnedFilter,
    LearningModel,
    TrainingDataset,
    learned_build,
    make_training_set,
    private_learned_build,
    train_threshold_model,
)
from .privacy import (
    AuditReport,
    PerturbedSet,
    PrivacyBudget,
    PrivacyParams,
    build_private_filter,
    dp_audit,
    expected_cardinality,
    expected_fnr,
    jaccard_distance,
    mangat_perturb,
    privacy_budget,
    warner_perturb,
)

__version__ = "0.1.0"
