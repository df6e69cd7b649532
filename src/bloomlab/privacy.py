"""Randomized-response perturbation of member sets, with a frequency audit.

Two perturbation modes, both applied to the member set before a filter is
built over the output:

* ``mangat``: members are always kept; each non-member joins with
  probability 1 - p. One-sided noise: no false negatives, and the privacy
  guarantee is asymmetric with budgets (ln(1/(1-p)), ln(1-p)).
* ``warner``: each member is kept with probability p in (1/2, 1); each
  non-member joins with probability 1 - p. Symmetric noise with budget
  ln(p/(1-p)), at the cost of a 1 - p false-negative rate.

``dp_audit`` estimates the per-element membership marginal under a set and
one of its neighbors and compares the ratio against the claimed e^epsilon,
using Wilson intervals so that a failure is only declared when even the
most mechanism-favorable reading of the data exceeds the bound.

A perturbed set draws its members on first use, one draw per element of
the universe, so every perturbation is capped at 2**20 elements
(``ENUMERATION_CAP``), checked when ``perturb`` is called. Until then,
``x in s`` costs one draw plus a skip over the earlier draws in C, which is
all the audit asks of each trial.
"""

from __future__ import annotations

import math
import random
from collections import namedtuple

from .errors import ParameterError, UnsupportedOperationError
from .filters import BloomFilter, FilterParams, HashFamily, Universe, expected_fpr
from .stats import mix_seed, seed_stream, standard_error, wilson_interval

MANGAT = "mangat"
WARNER = "warner"
ENUMERATION_CAP = 1 << 20


class PrivacyParams(namedtuple("PrivacyParams", "mode p")):
    """Perturbation mode and its retention/injection probability p.

    For ``mangat`` p may equal 1, the noise-free limit in which the output
    set is exactly the input (the budget then degenerates to infinity).
    """

    __slots__ = ()

    def __new__(cls, mode: str, p: float):
        if mode == MANGAT:
            if not 0.0 < p <= 1.0:
                raise ParameterError("mangat requires p in (0, 1]")
        elif mode == WARNER:
            if not 0.5 < p < 1.0:
                raise ParameterError("warner requires p in (1/2, 1)")
        else:
            raise ParameterError(f"unknown perturbation mode {mode!r}")
        return super().__new__(cls, mode, p)


class PrivacyBudget(namedtuple("PrivacyBudget", "epsilon epsilon_prime delta symmetric")):
    """Closed-form budget; ``epsilon_prime`` applies only to asymmetric modes."""

    __slots__ = ()


class PerturbedSet:
    """Output of a perturbation run: a container of the perturbed members.

    Immutable, equal and hashed by its four fields; ``len`` and ``in`` refer
    to ``members``. A set returned by :func:`perturb` keeps the run's input
    set, universe size and seed, and draws ``members`` on first use: one
    ``random()`` of ``random.Random(seed)`` per element in universe order,
    under the rule of :meth:`_kept`. Until then, ``x in s`` for an ``int`` x
    in the universe reads x's own draw: the stream skips the draws of the
    elements below x with one ``getrandbits`` call (``random()`` reads two
    32-bit words, so ``getrandbits(64 * j)`` passes exactly j draws). Any
    other probe, and equality, hashing, ``repr``, ``len`` and pickling, draw
    ``members`` first, so every answer is the drawn set's.
    """

    __slots__ = ("_members", "mode", "p", "original_size", "_run")

    def __init__(self, members: frozenset[int], mode: str, p: float, original_size: int):
        set_field = object.__setattr__
        set_field(self, "_members", members)
        set_field(self, "mode", mode)
        set_field(self, "p", p)
        set_field(self, "original_size", original_size)
        set_field(self, "_run", None)

    @classmethod
    def _undrawn(cls, inputs: set[int], size: int, mode: str, p: float, seed: int) -> "PerturbedSet":
        """The output of perturbing ``inputs`` over [0, size) with ``seed``, not drawn yet."""
        out = cls(None, mode, p, len(inputs))
        object.__setattr__(out, "_run", (inputs, size, seed))
        return out

    def _kept(self, elements, inputs, draw) -> list[int]:
        """The per-element rule: the elements kept, in order, where ``draw``
        returns the draw of the next element that takes one. A mangat member
        is kept with no draw; any other element is kept when its draw is
        below p (a warner member) or 1 - p (a non-member)."""
        p, q = self.p, 1.0 - self.p
        if self.mode == MANGAT:
            return [x for x in elements if x in inputs or draw() < q]
        return [x for x in elements if draw() < (p if x in inputs else q)]

    @property
    def members(self) -> frozenset[int]:
        members = self._members
        if members is None:
            inputs, size, seed = self._run
            members = frozenset(self._kept(range(size), inputs, random.Random(seed).random))
            object.__setattr__(self, "_members", members)
        return members

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PerturbedSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable PerturbedSet")

    def _key(self) -> tuple:
        return self.members, self.mode, self.p, self.original_size

    def __eq__(self, other):
        return self._key() == other._key() if type(other) is PerturbedSet else NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"PerturbedSet(members={self.members!r}, mode={self.mode!r}, p={self.p!r}, "
                f"original_size={self.original_size!r})")

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return PerturbedSet, self._key()

    def __contains__(self, x) -> bool:
        if self._members is not None or type(x) is not int or not 0 <= x < self._run[1]:
            return x in self.members
        inputs, _, seed = self._run

        def draw():
            # Every element below x draws once, except the members under mangat.
            j = x - sum(v < x for v in inputs) if self.mode == MANGAT else x
            rng = random.Random(seed)
            rng.getrandbits(64 * j)
            return rng.random()

        return bool(self._kept((x,), inputs, draw))

    def __len__(self) -> int:
        return len(self.members)


def jaccard_distance(a, b) -> int:
    """Set distance |a ∪ b| - |a ∩ b|, the number of differing elements."""
    a, b = set(a), set(b)
    return len(a | b) - len(a & b)


def _check_cap(universe: Universe) -> None:
    if universe.size > ENUMERATION_CAP:
        raise UnsupportedOperationError(
            f"perturbation enumerates the universe; size {universe.size} exceeds cap {ENUMERATION_CAP}"
        )


def _perturbation(mode: str, members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    PrivacyParams(mode, p)
    _check_cap(universe)
    return PerturbedSet._undrawn(universe.require_all(set(members)), universe.size, mode, p, seed)


def mangat_perturb(members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    """Keep all members, add each non-member with probability 1 - p."""
    return _perturbation(MANGAT, members, universe, p, seed)


def warner_perturb(members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    """Keep each member with probability p, add each non-member with 1 - p."""
    return _perturbation(WARNER, members, universe, p, seed)


def perturb(members, universe: Universe, params: PrivacyParams, seed: int) -> PerturbedSet:
    if params.mode == MANGAT:
        return mangat_perturb(members, universe, params.p, seed)
    return warner_perturb(members, universe, params.p, seed)


def privacy_budget(params: PrivacyParams) -> PrivacyBudget:
    """Exact budgets implied by the perturbation probabilities."""
    p = params.p
    if params.mode == MANGAT:
        if p == 1.0:
            return PrivacyBudget(math.inf, -math.inf, 0.0, symmetric=False)
        return PrivacyBudget(math.log(1.0 / (1.0 - p)), math.log(1.0 - p), 0.0, symmetric=False)
    return PrivacyBudget(math.log(p / (1.0 - p)), None, 0.0, symmetric=True)


def expected_cardinality(mode: str, set_size: int, universe_size: int, p: float) -> float:
    """Mean size of the perturbed set.

    Both values follow directly from the construction: every non-member
    joins with probability 1 - p, and members are kept always (``mangat``)
    or with probability p (``warner``). Some treatments state the warner
    mean as ``s + p(u - s) - (1 - p)s`` instead; that expression does not
    describe this construction and is not used here.
    """
    PrivacyParams(mode, p)
    if not 0 <= set_size <= universe_size:
        raise ParameterError("need 0 <= set size <= universe size")
    injected = (1.0 - p) * (universe_size - set_size)
    if mode == MANGAT:
        return set_size + injected
    return p * set_size + injected


def expected_fnr(mode: str, p: float) -> float:
    """Member-negative rate of the perturbation itself."""
    PrivacyParams(mode, p)
    return 0.0 if mode == MANGAT else 1.0 - p


def build_private_filter(members, universe: Universe, fparams: FilterParams,
                         privacy: PrivacyParams, seed: int,
                         family: HashFamily | None = None) -> BloomFilter:
    """Perturb the member set with ``seed`` and build a filter over the result.

    The perturbation consumes ``seed`` directly, so callers can reproduce the
    perturbed set by invoking the perturbation with the same seed.
    """
    perturbed = perturb(members, universe, privacy, seed)
    return BloomFilter.build(perturbed.members, fparams, family or HashFamily.public(), universe)


class AuditReport(namedtuple("AuditReport", (
        "mode p epsilon_claimed ratio_point ratio_lo ratio_hi prob_with prob_without"
        " verdict trials"))):
    """Outcome of a marginal-frequency audit against a claimed budget.

    ``verdict`` is ``pass``, ``fail`` or ``inconclusive``. A degenerate
    denominator (never observed) yields ``inconclusive``, never ``pass``,
    and makes the ratio fields non-finite.
    """

    __slots__ = ()


def dp_audit(mechanism, set_with, set_without, x: int, trials: int,
             epsilon_claimed: float, seed: int,
             mode: str = "custom", p: float = math.nan) -> AuditReport:
    """Estimate Pr[x in mechanism(set_with)] / Pr[x in mechanism(set_without)].

    ``mechanism`` is a callable (members, seed) -> container. The two inputs
    are run on independent derived seed streams. The verdict is ``fail``
    only when the conservative ratio, Wilson-lower numerator over
    Wilson-upper denominator at 99%, still exceeds e^epsilon_claimed.
    """
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    set_with = frozenset(set_with)
    set_without = frozenset(set_without)
    hits_with = 0
    hits_without = 0
    seed_with, seed_without = seed_stream(seed, "audit-with"), seed_stream(seed, "audit-without")
    for t in range(trials):
        if x in mechanism(set_with, seed_with(t)):
            hits_with += 1
        if x in mechanism(set_without, seed_without(t)):
            hits_without += 1
    prob_with = hits_with / trials
    prob_without = hits_without / trials
    lo_num, hi_num = wilson_interval(hits_with, trials)
    lo_den, hi_den = wilson_interval(hits_without, trials)
    bound = math.exp(epsilon_claimed)
    if hits_without == 0:
        verdict = "inconclusive"
        ratio_point = math.nan
        ratio_lo = lo_num / hi_den if hi_den > 0 else math.nan
        ratio_hi = math.inf
    else:
        ratio_point = prob_with / prob_without
        ratio_lo = lo_num / hi_den
        ratio_hi = hi_num / lo_den if lo_den > 0 else math.inf
        verdict = "fail" if ratio_lo > bound else "pass"
    return AuditReport(
        mode=mode, p=p, epsilon_claimed=epsilon_claimed,
        ratio_point=ratio_point, ratio_lo=ratio_lo, ratio_hi=ratio_hi,
        prob_with=prob_with, prob_without=prob_without,
        verdict=verdict, trials=trials,
    )


def audit_perturbation(params: PrivacyParams, members, universe: Universe, x: int,
                       trials: int, seed: int, direction: str = "removal") -> AuditReport:
    """Audit a perturbation mode on the neighbor pair (S, S \\ {x}).

    ``removal`` compares with-x over without-x against e^epsilon.
    ``reverse`` compares without-x over with-x; for the asymmetric mangat
    mode the claimed bound is then e^epsilon_prime, for warner it stays at
    the symmetric e^epsilon.
    """
    members = frozenset(universe.require_all(list(members)))
    if x not in members:
        raise ParameterError("audited element must belong to the member set")
    budget = privacy_budget(params)
    mechanism = lambda s, sd: perturb(s, universe, params, sd)
    without = members - {x}
    if direction == "removal":
        return dp_audit(mechanism, members, without, x, trials,
                        budget.epsilon, seed, mode=params.mode, p=params.p)
    if direction == "reverse":
        claimed = budget.epsilon if budget.symmetric else budget.epsilon_prime
        return dp_audit(mechanism, without, members, x, trials,
                        claimed, seed, mode=params.mode, p=params.p)
    raise ParameterError(f"unknown audit direction {direction!r}")


class FnrEstimate(namedtuple("FnrEstimate", "rate se trials")):
    """Member-negative rate with its standard error."""

    __slots__ = ()


def measure_member_negative_rate(members, universe: Universe, fparams: FilterParams,
                                 privacy: PrivacyParams, trials: int, seed: int) -> FnrEstimate:
    """Fraction of true members answered 0 by freshly built private filters.

    Each trial perturbs, builds and queries every original member; the
    standard error is computed over per-trial means, which absorbs the weak
    within-filter correlation between members.
    """
    members = sorted(set(universe.require_all(list(members))))
    if not members:
        raise ParameterError("need at least one member")
    per_trial = []
    for t in range(trials):
        filt = build_private_filter(members, universe, fparams, privacy,
                                    mix_seed(seed, "fnr", t))
        misses = sum(1 - filt.query(x) for x in members)
        per_trial.append(misses / len(members))
    rate = math.fsum(per_trial) / trials
    return FnrEstimate(rate=rate, se=standard_error(per_trial), trials=trials)


class FprWithInjected(namedtuple("FprWithInjected", "rate expected mean_perturbed_size queries")):
    """Residual false-positive rate of private filters, injected elements excluded."""

    __slots__ = ()


def measure_fpr_excluding_injected(members, universe: Universe, fparams: FilterParams,
                                   privacy: PrivacyParams, trials: int,
                                   queries_per_trial: int, seed: int) -> FprWithInjected:
    """Non-member positive rate that does not count injected elements.

    A query on an element the perturbation added is answered 1 by design;
    outcomes are therefore classified against the original member set with
    injected elements excluded from the sample, leaving the residual hash
    false-positive rate of the filter built over the perturbed set.
    """
    members = set(universe.require_all(list(members)))
    hits = 0
    total = 0
    sizes = []
    for t in range(trials):
        trial_seed = mix_seed(seed, "private-fpr", t)
        perturbed = perturb(members, universe, privacy, trial_seed)
        filt = BloomFilter.build(perturbed.members, fparams, HashFamily.public(), universe)
        rng = random.Random(mix_seed(seed, "private-fpr-queries", t))
        excluded = set(perturbed.members) | members
        sizes.append(len(perturbed))
        if len(excluded) >= universe.size:
            continue
        for _ in range(queries_per_trial):
            hits += filt.query(universe.sample_outside(rng, excluded))
            total += 1
    if total == 0:
        raise ParameterError("perturbed sets covered the universe; nothing to query")
    mean_size = math.fsum(sizes) / len(sizes)
    return FprWithInjected(
        rate=hits / total,
        expected=expected_fpr(fparams, mean_size),
        mean_perturbed_size=mean_size,
        queries=total,
    )
