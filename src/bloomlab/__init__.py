"""Bloom filters, privacy-preserving variants, and adversarial test harnesses.

The public names below are bound on first access (PEP 562), so importing the
package, or one submodule of it, loads only the submodules actually used.
"""

import importlib

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    **dict.fromkeys(("DomainError", "ParameterError", "UnsupportedOperationError"), "errors"),
    "FeistelPermutation": "feistel",
    **dict.fromkeys((
        "KEYED_PRF", "PUBLIC", "TRUE_RANDOM", "BloomFilter", "FilterParams", "HashFamily",
        "NyFilter", "Universe", "estimate_fpr", "expected_fpr", "filter_factory",
        "fresh_family", "optimal_k",
    ), "filters"),
    **dict.fromkeys((
        "Adversary", "GameConfig", "SaturationAdversary", "UniformAdversary",
        "expected_profit_formula", "profit_lower_bound", "resilience_threshold_with_optimal_k",
        "run_ab_test", "run_bp_test", "saturation_probability",
    ), "games"),
    **dict.fromkeys((
        "REFUSED", "FilicAdversary", "OracleBudget", "SimulatorState",
        "ab_to_filic_adversary", "estimate_advantage", "run_ideal", "run_real",
    ), "filic"),
    **dict.fromkeys((
        "LearnedFilter", "LearningModel", "TrainingDataset", "learned_build",
        "make_training_set", "private_learned_build", "train_threshold_model",
    ), "learned"),
    **dict.fromkeys((
        "AuditReport", "PerturbedSet", "PrivacyBudget", "PrivacyParams",
        "build_private_filter", "dp_audit", "expected_cardinality", "expected_fnr",
        "jaccard_distance", "mangat_perturb", "privacy_budget", "warner_perturb",
    ), "privacy"),
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *_EXPORTS})
