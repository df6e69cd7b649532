"""Threshold-model training, backup filter composition, private pipeline."""

import math
import re

import pytest

from bloomlab.errors import DomainError, ParameterError
from bloomlab.filters import FilterParams, Universe, expected_fpr
from bloomlab.learned import (
    TrainingDataset,
    learned_build,
    make_training_set,
    private_learned_build,
    train_threshold_model,
)
from bloomlab.privacy import MANGAT, WARNER, PrivacyParams, dp_audit, perturb


def _dataset(members, universe_size, negatives, seed=0):
    return make_training_set(members, Universe(universe_size), negatives, seed)


@pytest.mark.parametrize("bad", [-1, 64, 1 << 70, 2.0, "7", None])
def test_learned_builds_refuse_a_bad_member_by_name(bad):
    u, fparams = Universe(64), FilterParams(m=64, k=3, n=3)
    model = train_threshold_model(_dataset({1, 5}, 64, 4), noise=0.0, seed=1)
    message = re.escape(f"element {bad!r} outside universe [0, 64)")
    with pytest.raises(DomainError, match=message):
        learned_build([1, 5, bad], u, fparams, model)
    with pytest.raises(DomainError, match=message):
        make_training_set([1, 5, bad], u, 4, seed=1)
    with pytest.raises(DomainError, match=message):
        private_learned_build([1, 5, bad], u, fparams, PrivacyParams(MANGAT, 0.5), seed=1)


def test_training_set_shape():
    members = set(range(10))
    data = _dataset(members, 1000, 50)
    assert set(data.positives) == members
    assert len(data.negatives) == 50
    assert not (set(data.negatives) & members)
    assert all(label in (0, 1) for _, label in data.pairs)


def test_training_set_validation():
    with pytest.raises(ParameterError):
        _dataset(set(range(10)), 12, 5)  # only 2 non-members available
    with pytest.raises(ParameterError):
        TrainingDataset(((1, 0), (1, 1)))  # conflicting labels
    with pytest.raises(ParameterError):
        TrainingDataset(((1, 2),))


@pytest.mark.parametrize("label", [1.0, 0.0, True, False])
def test_training_set_refuses_a_label_that_is_not_the_int_0_or_1(label):
    with pytest.raises(ParameterError, match=r"^labels must be the int 0 or 1, not "):
        TrainingDataset(((1, 1), (2, label)))


def test_training_set_empty_members():
    data = _dataset(set(), 100, 10)
    assert not data.positives
    assert len(data.negatives) == 10


def test_clean_training_is_exact():
    members = set(range(20))
    data = _dataset(members, 500, 100, seed=1)
    model = train_threshold_model(data, noise=0.0, seed=2)
    assert all(model.score(x) == 1.0 for x in members)
    assert all(model.score(x) == 0.0 for x in data.negatives)
    assert model.score(499) == 0.0  # unseen
    assert model.eps_n <= 3.0 / 20 + 1e-12  # false-negative bound from 20 members
    assert model.eps_p <= 3.0 / 100 + 1e-12  # false-positive bound from 100 negatives
    assert model.predict(0) == 1 and model.predict(499) == 0


def test_noisy_training_flip_rates():
    members = set(range(50))
    data = _dataset(members, 30_000, 10_000, seed=3)
    model = train_threshold_model(data, noise=0.1, seed=4)
    assert set(model.scores.values()) == {0.0, 1.0}
    flipped_neg = sum(model.predict(x) for x in data.negatives) / 10_000
    se = math.sqrt(0.1 * 0.9 / 10_000)
    assert abs(flipped_neg - 0.1) < 3 * se
    assert model.eps_p >= flipped_neg  # measured rate plus slack
    assert model.eps_n >= sum(not model.predict(x) for x in members) / 50


def test_model_parameter_validation():
    data = _dataset(set(range(4)), 64, 8)
    with pytest.raises(ParameterError):
        train_threshold_model(data, noise=-0.1, seed=0)
    with pytest.raises(ParameterError):
        train_threshold_model(data, noise=1.1, seed=0)


def test_learned_build_is_complete():
    u = Universe(256)
    members = set(range(0, 256, 8))
    fparams = FilterParams(m=256, k=3, n=len(members))
    for seed in range(100):
        data = make_training_set(members, u, 64, seed)
        model = train_threshold_model(data, noise=0.2, seed=seed + 1)
        filt = learned_build(members, u, fparams, model)
        assert all(filt.query(x) == 1 for x in members)
        assert filt.encoded == frozenset(members)


def test_backup_holds_only_missed_members():
    u = Universe(2048)
    members = set(range(100))
    data = make_training_set(members, u, 200, seed=9)
    model = train_threshold_model(data, noise=0.3, seed=10)
    missed = {x for x in members if not model.predict(x)}
    fparams = FilterParams(m=512, k=3, n=len(members))
    filt = learned_build(members, u, fparams, model)
    rebuilt = learned_build(members, u, fparams, model)
    assert filt.backup.bit_bytes() == rebuilt.backup.bit_bytes()
    assert all(filt.backup.query(x) == 1 for x in missed)
    if not missed:
        assert filt.backup.popcount() == 0


def test_perfect_model_means_empty_backup():
    u = Universe(1024)
    members = set(range(64))
    data = make_training_set(members, u, 256, seed=11)
    model = train_threshold_model(data, noise=0.1, seed=12)
    kept = {x for x in members if model.predict(x)}  # the model is perfect on these
    assert kept and kept != members
    filt = learned_build(kept, u, FilterParams(m=256, k=3, n=64), model)
    assert filt.backup.popcount() == 0
    unseen = [x for x in range(64, 1024) if x not in set(data.negatives)]
    assert all(filt.query(x) == 0 for x in unseen)
    trained_fp = sum(filt.query(x) for x in data.negatives) / len(data.negatives)
    assert trained_fp <= model.eps_p


def test_false_positive_rate_union_bound():
    """Trained negatives answer 1 at most eps_n plus the backup's own rate."""
    u = Universe(8192)
    members = set(range(200))
    data = make_training_set(members, u, 2000, seed=13)
    model = train_threshold_model(data, noise=0.1, seed=14)
    fparams = FilterParams(m=2048, k=3, n=200)
    filt = learned_build(members, u, fparams, model)
    missed = sum(not model.predict(x) for x in members)
    backup_fpr = expected_fpr(fparams, n_effective=missed)
    rate = sum(filt.query(x) for x in data.negatives) / len(data.negatives)
    slack = 3 * math.sqrt(0.1 * 0.9 / len(data.negatives))
    assert rate <= model.eps_p + backup_fpr + slack


def test_private_pipeline_completeness_and_encoding():
    u = Universe(512)
    members = set(range(0, 512, 32))
    fparams = FilterParams(m=512, k=4, n=len(members))
    privacy = PrivacyParams(MANGAT, 0.5)
    for seed in range(60):
        filt = private_learned_build(members, u, fparams, privacy, seed, noise=0.1)
        assert members <= filt.encoded
        assert all(filt.query(x) == 1 for x in filt.encoded)


def test_private_pipeline_deterministic():
    u = Universe(256)
    members = set(range(12))
    fparams = FilterParams(m=256, k=3, n=12)
    privacy = PrivacyParams(WARNER, 0.75)
    a = private_learned_build(members, u, fparams, privacy, seed=21, noise=0.05)
    b = private_learned_build(members, u, fparams, privacy, seed=21, noise=0.05)
    assert a.encoded == b.encoded
    assert a.model.scores == b.model.scores
    assert a.backup.bit_bytes() == b.backup.bit_bytes()
    c = private_learned_build(members, u, fparams, privacy, seed=22, noise=0.05)
    assert (c.encoded != a.encoded) or (c.model.scores != a.model.scores)


def test_private_pipeline_audit_matches_plain_perturbation():
    """Training must not weaken the perturbation's membership privacy."""
    u = Universe(64)
    members = frozenset(range(8))
    privacy = PrivacyParams(MANGAT, 0.5)
    fparams = FilterParams(m=256, k=3, n=16)

    def plain(s, seed):
        return perturb(s, u, privacy, seed).members

    def pipeline(s, seed):
        fparams_local = FilterParams(m=256, k=3, n=max(len(s), 1))
        return private_learned_build(s, u, fparams_local, privacy, seed, noise=0.1).encoded

    trials = 1500
    a = dp_audit(plain, members, members - {0}, x=0, trials=trials,
                 epsilon_claimed=math.log(2.0), seed=31)
    b = dp_audit(pipeline, members, members - {0}, x=0, trials=trials,
                 epsilon_claimed=math.log(2.0), seed=31)
    assert a.verdict == "pass" and b.verdict == "pass"
    assert a.ratio_lo <= b.ratio_hi and b.ratio_lo <= a.ratio_hi  # overlapping CIs
