"""Learned filters: a trained membership scorer plus a backup filter.

The scorer here is a memorizing model, the simplest model with controllable
error rates: training members score 1, trained negatives 0, each flipped to
the other score independently with a configurable noise probability, and
anything never seen in training scores 0. The model predicts membership for
exactly the elements that score 1. The backup filter, a public-hash one, is
built over exactly the members the model misses, which restores completeness
of the composed filter.

``private_learned_build`` runs the same pipeline on a perturbed member set,
so the model, backup and every downstream answer are a post-processing of
the privatized set and inherit its privacy guarantee unchanged.
"""

from __future__ import annotations

import random
from collections import namedtuple

from .errors import ParameterError
from .filters import BloomFilter, FilterParams, HashFamily, Universe
from .privacy import PrivacyParams, perturb
from .stats import floored_binomial_se, mix_seed


class TrainingDataset(namedtuple("TrainingDataset", "pairs")):
    """Labeled pairs (element, label), label 1 for members."""

    __slots__ = ()

    def __new__(cls, pairs: tuple[tuple[int, int], ...]):
        for x, label in pairs:
            if type(label) is not int or label not in (0, 1):
                raise ParameterError(f"labels must be the int 0 or 1, not {label!r}")
        pos = {x for x, lab in pairs if lab == 1}
        neg = {x for x, lab in pairs if lab == 0}
        if pos & neg:
            raise ParameterError("an element cannot carry both labels")
        return super().__new__(cls, pairs)

    @property
    def positives(self) -> frozenset[int]:
        return frozenset(x for x, lab in self.pairs if lab == 1)

    @property
    def negatives(self) -> frozenset[int]:
        return frozenset(x for x, lab in self.pairs if lab == 0)


def make_training_set(members, universe: Universe, negatives_count: int, seed: int) -> TrainingDataset:
    """All members labeled 1 plus uniform non-members labeled 0.

    Negatives are sampled without replacement from the complement; asking
    for more negatives than the complement holds is an error.
    """
    members = sorted(universe.require_all(set(members)))
    complement_size = universe.size - len(members)
    if negatives_count < 0 or negatives_count > complement_size:
        raise ParameterError(
            f"negatives_count must lie in [0, {complement_size}]"
        )
    rng = random.Random(seed)
    excluded = set(members)
    if negatives_count > complement_size // 2:
        negatives = rng.sample([x for x in range(universe.size) if x not in excluded], negatives_count)
    else:
        negatives = []
        for _ in range(negatives_count):
            negatives.append(universe.sample_outside(rng, excluded))
            excluded.add(negatives[-1])
    pairs = [(x, 1) for x in members] + [(x, 0) for x in negatives]
    return TrainingDataset(tuple(pairs))


class LearningModel:
    """Memorizing scorer with measured error rates.

    Every score is exactly 0.0 or 1.0, and ``predict`` answers 1 for the
    elements that score 1.0. ``eps_p`` bounds the probability a trained
    negative is predicted a member, ``eps_n`` the probability a training
    member is not; both are the measured training rates plus a three-sigma
    binomial slack. Elements never seen in training score 0. Equal by value.
    """

    __slots__ = ("eps_p", "eps_n", "scores")

    def __init__(self, eps_p: float, eps_n: float, scores: dict[int, float]):
        self.eps_p = eps_p
        self.eps_n = eps_n
        self.scores = scores

    def __eq__(self, other):
        if type(other) is not LearningModel:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)

    def score(self, x: int) -> float:
        return self.scores.get(x, 0.0)

    def predict(self, x: int) -> int:
        return 1 if self.score(x) == 1.0 else 0


def _rate_plus_slack(errors: int, count: int) -> float:
    if count == 0:
        return 0.0
    rate = errors / count
    return min(1.0, rate + 3.0 * floored_binomial_se(rate, count))


def train_threshold_model(data: TrainingDataset, noise: float, seed: int) -> LearningModel:
    """Fit the memorizing model; ``noise`` is the flip rate of either label."""
    if not 0.0 <= noise < 1.0:
        raise ParameterError("noise must lie in [0, 1)")
    rng = random.Random(seed)
    scores: dict[int, float] = {}
    counts, flips = [0, 0], [0, 0]
    for x, label in data.pairs:
        flipped = rng.random() < noise
        scores[x] = float(label != flipped)
        counts[label] += 1
        flips[label] += flipped
    return LearningModel(
        eps_p=_rate_plus_slack(flips[0], counts[0]),
        eps_n=_rate_plus_slack(flips[1], counts[1]),
        scores=scores,
    )


class LearnedFilter:
    """Model plus backup filter over the members the model misses.

    ``encoded`` records the member set the pipeline actually consumed; for
    a privately built filter that is the perturbed set, not the original.
    """

    __slots__ = ("model", "backup", "universe", "encoded")

    def __init__(self, model: LearningModel, backup: BloomFilter, universe: Universe,
                 encoded: frozenset[int]):
        self.model = model
        self.backup = backup
        self.universe = universe
        self.encoded = encoded

    @property
    def params(self) -> FilterParams:
        return self.backup.params

    def query(self, x: int) -> int:
        self.universe.require(x)
        return self.model.predict(x) or self.backup.query(x)


def learned_build(members, universe: Universe, fparams: FilterParams,
                  model: LearningModel) -> LearnedFilter:
    """Compose ``model`` with a public-hash backup filter over its false negatives."""
    members = universe.require_all(set(members))
    missed = {x for x in members if not model.predict(x)}
    backup = BloomFilter.build(missed, fparams, HashFamily.public(), universe)
    return LearnedFilter(model=model, backup=backup, universe=universe,
                         encoded=frozenset(members))


def private_learned_build(members, universe: Universe, fparams: FilterParams,
                          privacy: PrivacyParams, seed: int, *,
                          noise: float = 0.0) -> LearnedFilter:
    """Run the full pipeline on a perturbed member set, with as many
    negatives as encoded members (at least one) and a public backup filter.

    The perturbation, negative sampling and training use seeds derived from
    ``seed``, so the whole pipeline is reproducible from one integer.
    """
    members = universe.require_all(set(members))
    perturbed = perturb(members, universe, privacy, mix_seed(seed, "learned-perturb", 0))
    encoded = set(perturbed.members)
    negatives_count = min(universe.size - len(encoded), max(len(encoded), 1))
    data = make_training_set(encoded, universe, negatives_count,
                             mix_seed(seed, "learned-dataset", 0))
    model = train_threshold_model(data, noise, mix_seed(seed, "learned-train", 0))
    return learned_build(encoded, universe, fparams, model)
