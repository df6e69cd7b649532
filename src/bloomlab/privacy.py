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

A perturbed set draws its members on first use, one word per element of
the universe, so every perturbation and audit is capped at 2**20 elements
(``ENUMERATION_CAP``), checked before its member set is read. Element x's
word under a seed is the little-endian 64-bit word x % 8 of block x // 8,
``blake2b(<Q>(seed) || <Q>(x // 8), digest_size=64, person=b"perturb")``:
a counter-based stream addressed by (seed, element), with no stream
position, in the manner of Salmon et al., "Parallel random numbers: as easy
as 1, 2, 3" (SC 2011). Its top 53 bits are the element's uniform draw. The
full draw digests every block and selects the kept elements in C: about
0.6 ms at u = 4096 and 0.2 s at 2**20, twice what a Mersenne Twister loop
took, and no CLI path makes one. A seed is
an ``int`` in [0, 2**64), what ``stats.mix_seed`` yields; anything else, a
bool too, is refused with ``ParameterError``. Until the members are drawn,
``x in s`` costs one block digest, which is all the audit asks of each trial.
The inputs of a perturbation (the params, the cap and the member set) are
checked once per distinct (member frozenset, universe size, mode, p),
remembered in ``filters._CHECKED``, the package's one memo of checked member
sets, so the estimators freeze their member set once per call and build over
a set copy of a drawn one. The lazy set keeps its state in one slot. An audit
looks up its mode's perturbation once and a repeat of checked inputs makes
its undrawn set in place, so an audit world costs about 1.5 µs, half of it
the block digest and its word, plus about 0.5 µs for the trial's seed
(Python 3.11, 2-core x86-64 VM). A mangat world whose audited element is a
member reads no word and costs about 0.7 µs.
"""

from __future__ import annotations

import math
import random
import struct
from collections import namedtuple
from itertools import chain, compress

from .errors import ParameterError, UnsupportedOperationError, _require_ints
from .filters import (_CHECKED, BloomFilter, FilterParams, HashFamily, Universe, _remember_checked,
                      expected_fpr)
from .stats import blake2b, run_trials, standard_error, wilson_interval

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


_PERTURB = blake2b(digest_size=64, person=b"perturb")  # copied per block, never updated itself
_SEED_BLOCK = struct.Struct("<QQ")
_WORD = struct.Struct("<Q")
_BLOCK_WORDS = struct.Struct("<8Q")


def _block(seed: int, index: int) -> bytes:
    """Block ``index`` of the stream under ``seed``: the words of elements
    8 * index to 8 * index + 7, in that order."""
    h = _PERTURB.copy()
    h.update(_SEED_BLOCK.pack(seed, index))
    return h.digest()


def _word(block: bytes, x: int) -> int:
    """Element x's word, read from its block x // 8."""
    return _WORD.unpack_from(block, (x & 7) << 3)[0]


def _threshold(q: float) -> int:
    """The bound t such that a word w is below t exactly when its 53-bit
    uniform (w >> 11) / 2**53 is below q."""
    return math.ceil(q * 9007199254740992.0) << 11


class PerturbedSet:
    """Output of a perturbation run: a container of the perturbed members.

    Immutable, equal and hashed by its four fields; ``len`` and ``in`` refer
    to ``members``. A set returned by :func:`perturb` keeps the run's input
    set, universe size and seed, and draws ``members`` on first use: element
    x's word is word x % 8 of :func:`_block` x // 8 under the seed, and the
    keep rule is that a mangat member is kept and reads no word; any other
    element is kept when its word's 53-bit uniform is below p (a warner
    member) or 1 - p (a non-member). Until then, ``x in s`` for an ``int`` x
    in the universe applies the same rule to x's own word, one digest of
    block x // 8. Any other probe, and equality, hashing, ``repr``, ``len``
    and pickling, draw ``members`` first, so every answer is the drawn set's.

    All of it lives in one slot, ``(members or None, mode, p, original_size,
    inputs, size, seed)``: written once when the set is made and once more
    when ``members`` is drawn. ``mode``, ``p`` and ``original_size`` are
    read-only properties over it.
    """

    __slots__ = ("_state",)

    def __init__(self, members: frozenset[int], mode: str, p: float, original_size: int):
        _set_state(self, (members, mode, p, original_size, None, None, None))

    @property
    def _members(self) -> frozenset[int] | None:
        return self._state[0]

    @property
    def mode(self) -> str:
        return self._state[1]

    @property
    def p(self) -> float:
        return self._state[2]

    @property
    def original_size(self) -> int:
        return self._state[3]

    @property
    def members(self) -> frozenset[int]:
        state = self._state
        members = state[0]
        if members is None:
            _, mode, p, _, inputs, size, seed = state
            blocks = [_block(seed, i) for i in range((size + 7) >> 3)]
            words = chain.from_iterable(map(_BLOCK_WORDS.unpack, blocks))
            kept = compress(range(size), map(_threshold(1.0 - p).__gt__, words))
            if mode == MANGAT:
                members = frozenset(chain(kept, inputs))
            else:  # a member kept above lies below 1 - p's bound, so below p's: p > 1/2
                bound = _threshold(p)
                members = frozenset(chain(kept, (x for x in inputs if _word(blocks[x >> 3], x) < bound)))
            _set_state(self, (members, *state[1:]))
        return members

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable PerturbedSet")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable PerturbedSet")

    def _key(self) -> tuple:
        return self.members, *self._state[1:4]

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
        state = self._state
        if state[0] is not None or type(x) is not int or not 0 <= x < state[5]:
            return x in self.members
        _, mode, p, _, inputs, _, seed = state
        if x in inputs:
            if mode == MANGAT:
                return True
            q = p
        else:
            q = 1.0 - p
        return _word(_block(seed, x >> 3), x) < _threshold(q)

    def __len__(self) -> int:
        return len(self.members)


_set_state = PerturbedSet._state.__set__  # the slot's own setter: PerturbedSet.__setattr__ refuses


def _check_cap(universe: Universe) -> None:
    if universe.size > ENUMERATION_CAP:
        raise UnsupportedOperationError(
            f"perturbation enumerates the universe; size {universe.size} exceeds cap {ENUMERATION_CAP}"
        )


def _perturbation(mode: str, members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    """The output of perturbing ``members`` over the universe with ``seed``,
    not drawn yet, once the inputs pass. A frozenset that passed with the
    same universe size, mode and p is not checked again; anything else, an
    equal but other frozenset too, is checked and raises as it would. It is
    remembered under ``(members, size, mode, p)`` in ``filters._CHECKED``,
    the one memo of checked member sets. A seed that is not an ``int`` in
    [0, 2**64) is refused first."""
    if type(seed) is not int or not 0 <= seed < 1 << 64:
        raise ParameterError(f"perturbation seed must be an int in [0, 2**64), not {seed!r}")
    key = hit = None
    if type(members) is frozenset:
        try:
            key = (members, universe.size, mode, p)
            hit = _CHECKED.get(key) is members
        except (AttributeError, TypeError):  # no universe, or an unhashable p: checked below
            key = None
    if not hit:
        PrivacyParams(mode, p)
        _check_cap(universe)
        members = universe.require_all(frozenset(members))
        if key is not None:
            _remember_checked(key, members)
    out = object.__new__(PerturbedSet)
    _set_state(out, (None, mode, p, len(members), members, universe.size, seed))
    return out


def mangat_perturb(members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    """Keep all members, add each non-member with probability 1 - p."""
    return _perturbation(MANGAT, members, universe, p, seed)


def warner_perturb(members, universe: Universe, p: float, seed: int) -> PerturbedSet:
    """Keep each member with probability p, add each non-member with 1 - p."""
    return _perturbation(WARNER, members, universe, p, seed)


def _perturber(mode: str):
    """The mode's perturbation, ``mangat_perturb`` or ``warner_perturb``,
    looked up in this module when called."""
    return mangat_perturb if mode == MANGAT else warner_perturb


def perturb(members, universe: Universe, params: PrivacyParams, seed: int) -> PerturbedSet:
    return _perturber(params.mode)(members, universe, params.p, seed)


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
                         privacy: PrivacyParams, seed: int) -> BloomFilter:
    """Perturb the member set with ``seed`` and build a public-hash filter on it.

    The perturbation consumes ``seed`` directly, so callers can reproduce the
    perturbed set by invoking the perturbation with the same seed.
    """
    perturbed = perturb(members, universe, privacy, seed)
    return BloomFilter.build(set(perturbed.members), fparams, HashFamily.public(), universe)


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

    ``ratio_lo`` and ``ratio_hi`` divide the bounds of the two 99% Wilson
    score intervals, so the ratio interval's nominal level is 98% or more,
    by the union bound. With no hit in the denominator the point ratio is NaN,
    ``ratio_hi`` is infinite and the verdict is ``inconclusive``.
    """
    set_with = frozenset(set_with)
    set_without = frozenset(set_without)
    hits_with = sum(run_trials(lambda s: x in mechanism(set_with, s), seed, "audit-with", trials))
    hits_without = sum(run_trials(lambda s: x in mechanism(set_without, s), seed, "audit-without", trials))
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
    _check_cap(universe)
    members = frozenset(universe.require_all(list(members)))
    if x not in members:
        raise ParameterError("audited element must belong to the member set")
    budget = privacy_budget(params)
    perturb_one, p = _perturber(params.mode), params.p  # looked up once per audit
    mechanism = lambda s, sd: perturb_one(s, universe, p, sd)
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
    members = frozenset(universe.require_all(list(members)))
    if not members:
        raise ParameterError("need at least one member")

    def miss_rate(s: int) -> float:
        filt = build_private_filter(members, universe, fparams, privacy, s)
        return sum(1 - filt.query(x) for x in members) / len(members)

    per_trial = list(run_trials(miss_rate, seed, "fnr", trials))
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
    members = frozenset(universe.require_all(list(members)))
    _require_ints(queries_per_trial=queries_per_trial)
    if queries_per_trial < 1:
        raise ParameterError("queries_per_trial must be >= 1")
    hits = 0
    total = 0
    sizes = []
    perturbed_sets = run_trials(lambda s: perturb(members, universe, privacy, s), seed, "private-fpr", trials)
    query_rngs = run_trials(random.Random, seed, "private-fpr-queries", trials)
    for perturbed, rng in zip(perturbed_sets, query_rngs):
        drawn = set(perturbed.members)
        filt = BloomFilter.build(drawn, fparams, HashFamily.public(), universe)
        excluded = drawn | members
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
