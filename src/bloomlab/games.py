"""Adaptive adversary games against a filter: the bet variants and payouts.

The harness drives one adversary per trial: the adversary picks the member
set, issues up to t adaptive membership queries, then commits to a target
element. Rule violations (repeated queries, querying a member, a refused
answer, targeting a member or an already-queried element) forfeit the game
rather than abort it, so Monte Carlo estimates stay well defined and a
violation can never score as a win. Probes and targets outside the universe
raise :class:`DomainError`.

All rules live in :func:`referee`, which takes the membership oracle as a
callable: both scoring modes pass the filter's ``query``, and the
reveal-oracle wrapper ``filic.ab_to_filic_adversary`` passes its budgeted
query oracle. The modes differ only in their payouts:

* always-bet: the adversary must bet on its target; it wins iff the target
  is a false positive.
* profit: the adversary may pass (bet 0, payout 0) or bet; a correct bet on
  a threshold ``delta`` pays 1/delta, an incorrect one costs 1/(1-delta).

The saturation adversary probes uniform non-members and bets only when all
probes answered 1, i.e. when the filter looks saturated: once every bit is
set, any fresh target is a guaranteed false positive. Closed forms for the
saturation probability, correctly rounded by :func:`saturation_probability`,
and the resulting expected profit are provided.

Configurations, outcomes and experiment summaries are namedtuples:
immutable, equal by value and hashable. :class:`GameTranscript`, which the
referee fills in as a game runs, is a plain mutable object whose
``forfeited`` is read from ``forfeit_reason``. Counts (n, t; m, n, k) must
be ints: anything else, a bool too, is refused with :class:`ParameterError`.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from collections import namedtuple

from .errors import ParameterError, UnsupportedOperationError, _require_ints
from .filters import TRUE_RANDOM, FilterParams, Universe, filter_factory
from .stats import floored_binomial_se, mean_confidence_interval, run_trials, wilson_interval

# Largest m*n*k for which saturation_probability runs its exact sum.
SATURATION_CAP = 1 << 24


class GameConfig(namedtuple("GameConfig", "universe n t threshold")):
    """Game shape: universe, member count n, query budget t, bet threshold.

    ``threshold`` is the epsilon of the always-bet game or the delta of the
    profit game.
    """

    __slots__ = ()

    def __new__(cls, universe: Universe, n: int, t: int, threshold: float):
        _require_ints(n=n, t=t)
        if n < 1:
            raise ParameterError("n must be >= 1")
        if t < 0:
            raise ParameterError("t must be >= 0")
        if not 0.0 < threshold < 1.0:
            raise ParameterError("threshold must lie in (0, 1)")
        if n + t + 1 > universe.size:
            raise ParameterError("universe too small for n members, t queries and a target")
        return super().__new__(cls, universe, n, t, threshold)


class GameTranscript:
    """What one game recorded: the probes relayed, their answers, and the
    reason for any forfeit, empty when there was none. Mutable, equal by
    value, unhashable."""

    __slots__ = ("members", "queries", "answers", "forfeit_reason")

    def __init__(self, members: frozenset[int]):
        self.members = members
        self.queries: list[int] = []
        self.answers: list[int] = []
        self.forfeit_reason = ""

    @property
    def forfeited(self) -> bool:
        return bool(self.forfeit_reason)

    def __eq__(self, other):
        if type(other) is not GameTranscript:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in self.__slots__)


class Adversary(ABC):
    """Per-trial opponent; ``begin`` resets it with fresh randomness."""

    def begin(self, cfg: GameConfig, rng: random.Random) -> None:
        self.cfg = cfg
        self.rng = rng

    @abstractmethod
    def choose_set(self) -> set[int]:
        """The member set, exactly cfg.n elements."""

    @abstractmethod
    def next_query(self, history: list[tuple[int, int]]) -> int | None:
        """Next membership probe, or None to stop early."""

    @abstractmethod
    def finalize(self, history: list[tuple[int, int]]) -> tuple[int, int]:
        """(bet, target) after the query phase."""


def choose_members(adversary: Adversary, cfg: GameConfig) -> frozenset[int]:
    """The adversary's member set as a frozenset, checked for size and
    universe; a frozenset is taken as it is, without a copy. The universe
    remembers the checked frozenset, so the build does not check it again."""
    members = frozenset(adversary.choose_set())
    if len(members) != cfg.n:
        raise ParameterError(f"adversary chose {len(members)} members, expected {cfg.n}")
    return cfg.universe.require_all(members)


def _forfeit(transcript: GameTranscript, reason: str) -> None:
    transcript.forfeit_reason = reason


def referee(query, adversary: Adversary, cfg: GameConfig,
            transcript: GameTranscript) -> tuple[int, int] | None:
    """Relay at most cfg.t probes to ``query``, then return the adversary's
    (bet, target) unqueried, or None after a forfeit.

    Probing a member, repeating a probe, an answer other than 0/1 (an oracle
    refusal) and targeting a member or an earlier probe forfeit, with the
    reason recorded in ``transcript``. The domain rule comes first: a probe
    or target that :meth:`Universe.require` refuses raises
    :class:`DomainError`, even one equal to a member, such as 3.0 for 3.
    """
    require, members = cfg.universe.require, transcript.members
    queries, answers = transcript.queries, transcript.answers
    next_query = adversary.next_query
    seen: set[int] = set()
    history: list[tuple[int, int]] = []
    for _ in range(cfg.t):
        q = next_query(history.copy())
        if q is None:
            break
        require(q)
        if q in members:
            return _forfeit(transcript, "queried a member")
        if q in seen:
            return _forfeit(transcript, "repeated a query")
        seen.add(q)
        answer = query(q)
        if answer not in (0, 1):
            return _forfeit(transcript, "query refused")
        queries.append(q)
        answers.append(answer)
        history.append((q, answer))
    bet, target = adversary.finalize(history.copy())
    require(target)
    if target in members or target in seen:
        return _forfeit(transcript, "target was a member or an earlier query")
    return bet, target


def _play(filter_factory, adversary: Adversary, cfg: GameConfig, seed: int):
    rng = random.Random(seed)
    adversary.begin(cfg, rng)
    members = choose_members(adversary, cfg)
    filt = filter_factory(members, rng)
    transcript = GameTranscript(members=members)
    return filt, transcript, referee(filt.query, adversary, cfg, transcript)


class AbOutcome(namedtuple("AbOutcome", "win transcript")):
    """Result of one always-bet trial."""

    __slots__ = ()


def run_ab_test(filter_factory, adversary: Adversary, cfg: GameConfig, seed: int) -> AbOutcome:
    """Always-bet game: the adversary wins iff its fresh target is a false
    positive. The bet returned by the adversary is ignored; betting is
    forced in this variant."""
    filt, transcript, play = _play(filter_factory, adversary, cfg, seed)
    if play is None:
        return AbOutcome(win=0, transcript=transcript)
    return AbOutcome(win=filt.query(play[1]), transcript=transcript)


class ProfitOutcome(namedtuple("ProfitOutcome", "bet false_positive profit")):
    """Payout of one profit-game trial; profit is exactly one of
    1/threshold, -1/(1-threshold), or 0."""

    __slots__ = ()


class BpRun(namedtuple("BpRun", "outcome transcript saturated")):
    """Result of one profit-game trial; ``saturated`` is whether every bit of
    the built filter was set."""

    __slots__ = ()


def run_bp_test(filter_factory, adversary: Adversary, cfg: GameConfig, seed: int) -> BpRun:
    """Profit game at threshold cfg.threshold; forfeits and passes pay 0.
    The factory's filters report ``is_saturated()``."""
    filt, transcript, play = _play(filter_factory, adversary, cfg, seed)
    saturated = filt.is_saturated()
    if play is None:
        return BpRun(ProfitOutcome(0, 0, 0.0), transcript, saturated)
    bet, target = play
    if bet not in (0, 1):
        raise ParameterError("bet must be 0 or 1")
    if bet == 0:
        return BpRun(ProfitOutcome(0, 0, 0.0), transcript, saturated)
    fp = filt.query(target)
    profit = 1.0 / cfg.threshold if fp else -1.0 / (1.0 - cfg.threshold)
    return BpRun(ProfitOutcome(1, fp, profit), transcript, saturated)


class UniformAdversary(Adversary):
    """Probes uniform distinct non-members and always bets on a fresh
    uniform target. Its win rate in the always-bet game is the filter's
    unconditional false-positive rate."""

    def choose_set(self) -> frozenset[int]:
        members = frozenset(self.cfg.universe.sample(self.rng, self.cfg.n))
        self._used = set(members)
        return members

    def next_query(self, history) -> int | None:
        x = self.cfg.universe.sample_outside(self.rng, self._used)
        self._used.add(x)
        return x

    def _bet(self, history) -> int:
        return 1

    def finalize(self, history) -> tuple[int, int]:
        target = self.cfg.universe.sample_outside(self.rng, self._used)
        return self._bet(history), target


class SaturationAdversary(UniformAdversary):
    """Bets only when every probe answered 1."""

    def _bet(self, history) -> int:
        return 1 if all(ans == 1 for _, ans in history) else 0


class SaturationProbability(namedtuple("SaturationProbability", "exact lower_bound")):
    """Exact coverage probability and its union lower bound."""

    __slots__ = ()


def saturation_probability(m: int, n: int, k: int) -> SaturationProbability:
    """Probability that n elements with k truly random indices each cover
    all m bits.

    ``exact`` is the correctly rounded float of the coverage probability P
    for T = n*k throws. With miss = (1 - 1/m)^T, three rules decide it
    without the sum:

    * T < m: 0.0, since T throws cover at most T bits;
    * union bound, 1 - P <= m*miss: if m*miss < 2**-56, 1.0, since anything
      above 1 - 2**-54 rounds to 1.0;
    * the bin occupancies are negatively associated (Dubhashi and Ranjan,
      "Balls and Bins: A Study in Negative Dependence", 1998), so
      P <= (1 - miss)^m: if m*log1p(-miss) < -746, 0.0, since anything
      below 2**-1075 (about e^-745.13) rounds to 0.0.

    miss is computed as exp(T*log1p(-1/m)), whose rounding error is far
    inside these margins. Otherwise the inclusion-exclusion sum
    P = sum_j (-1)**j C(m, j) (1 - j/m)**T runs term by term in exact
    integers, each partial sum divided by m**T in one integer true division,
    which Python rounds correctly, so no rational type is needed. The
    partial sums through j and j + 1 lie on either side of P (Bonferroni
    inequalities; Galambos and Simonelli, "Bonferroni-type Inequalities with
    Applications", 1996) and rounding is monotone, so the sum stops at the
    first two consecutive ones that round to the same float, which is then
    P's. Under the cap no partial sum exceeds about e^544 (the largest term,
    near e^536 at m=3252, T=5153, times m + 1), so no division overflows a
    float. Near and right of the mean the sum stops within a few dozen
    terms: 0.5 ms at m=256, T=2100 (j = 9) and 10 ms at m=1024, T=7000
    (j = 19), against 14 ms and 0.6 s for the whole sum (Python 3.11, 2-core
    x86-64 VM). In the left tail, where the terms cancel heavily, it runs
    about half the sum (to j = 541 at m=1024, T=1500), so past
    m*T = 2**24 it still raises :class:`UnsupportedOperationError` rather
    than stall.

    ``lower_bound`` is the union bound 1 - m e^{-nk/m}, clamped at 0.
    """
    _require_ints(m=m, n=n, k=k)
    if m < 1:
        raise ParameterError("m must be >= 1")
    if n < 0 or k < 1:
        raise ParameterError("need n >= 0 and k >= 1")
    throws = n * k
    lower = max(0.0, 1.0 - m * math.exp(-throws / m))
    if throws < m:
        return SaturationProbability(exact=0.0, lower_bound=lower)
    miss = math.exp(throws * math.log1p(-1.0 / m)) if m > 1 else 0.0
    if m * miss < 2.0 ** -56:
        return SaturationProbability(exact=1.0, lower_bound=lower)
    if m * math.log1p(-miss) < -746:
        return SaturationProbability(exact=0.0, lower_bound=lower)
    if m * throws > SATURATION_CAP:
        raise UnsupportedOperationError(
            f"exact saturation sum at m={m}, n*k={throws} exceeds m*n*k = 2**24")
    scale = m ** throws
    total, term, last = 0, 1, None  # term = (-1)**j * comb(m, j)
    for j in range(m + 1):
        total += term * (m - j) ** throws
        exact = total / scale
        if exact == last:
            break
        term = -term * (m - j) // (j + 1)
        last = exact
    # A bracket of P >= 0 may round to -0.0 and 0.0 on its two ends.
    return SaturationProbability(exact=abs(exact), lower_bound=lower)


def expected_profit_formula(p_s: float, p_fp: float, t: int, delta: float) -> float:
    """Expected profit of the saturation adversary.

    ``p_s`` is the saturation probability, ``p_fp`` the false-positive
    probability of an unsaturated filter, t the probe count and ``delta``
    the bet threshold.
    """
    _require_ints(t=t)
    for name, v in (("p_s", p_s), ("p_fp", p_fp)):
        if not 0.0 <= v <= 1.0:
            raise ParameterError(f"{name} must lie in [0, 1]")
    if t < 0:
        raise ParameterError("t must be >= 0")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    bet_prob = p_s + p_fp ** t * (1.0 - p_s)
    fp_prob = p_s + p_fp * (1.0 - p_s)
    return bet_prob * (fp_prob / delta - ((1.0 - p_fp) * (1.0 - p_s)) / (1.0 - delta))


def profit_lower_bound(p_s: float, delta: float) -> float:
    """The profit formula with the unsaturated false-positive term dropped;
    strictly positive exactly when p_s exceeds delta."""
    if not 0.0 <= p_s <= 1.0:
        raise ParameterError("p_s must lie in [0, 1]")
    if not 0.0 < delta < 1.0:
        raise ParameterError("delta must lie in (0, 1)")
    return p_s * p_s / delta - p_s * (1.0 - p_s) / (1.0 - delta)


class AbExperiment(namedtuple("AbExperiment", "trials wins forfeits win_rate ci_lo ci_hi")):
    """Always-bet statistics over independent trials."""

    __slots__ = ()


def run_ab_experiment(filter_factory, adversary: Adversary, cfg: GameConfig,
                      trials: int, seed: int) -> AbExperiment:
    """Always-bet win rate over independent trials with derived seeds.

    The interval is the 99% Wilson score interval of the wins over the
    trials, which are independent Bernoulli draws.
    """
    wins = forfeits = 0
    trial = lambda s: run_ab_test(filter_factory, adversary, cfg, s)
    for outcome in run_trials(trial, seed, "ab-trial", trials):
        wins += outcome.win
        forfeits += outcome.transcript.forfeited
    lo, hi = wilson_interval(wins, trials)
    return AbExperiment(trials, wins, forfeits, wins / trials, lo, hi)


class BpExperiment(namedtuple("BpExperiment", (
        "trials mean_profit ci_lo ci_hi bet_rate win_rate saturation_rate"
        " probe_fp_rate_unsaturated forfeits"))):
    """Profit-game statistics over independent trials."""

    __slots__ = ()


def run_bp_experiment(filter_factory, adversary: Adversary, cfg: GameConfig,
                      trials: int, seed: int) -> BpExperiment:
    """Profit-game statistics over independent trials.

    Besides the mean payout this reports how often the built filter was
    actually saturated and the probe hit rate among unsaturated trials,
    which estimates the unsaturated false-positive probability entering the
    closed-form expected profit.

    The mean profit's interval is the normal one at 99%, mean ± Z99·se with
    se the sample standard error of the per-trial profits. It is
    approximate, and it collapses to a point when every trial pays the
    same, since se is then 0.
    """
    profits: list[float] = []
    bets = wins = forfeits = 0
    saturated_trials = 0
    probe_hits = probe_total = 0
    trial = lambda s: run_bp_test(filter_factory, adversary, cfg, s)
    for run in run_trials(trial, seed, "bp-trial", trials):
        profits.append(run.outcome.profit)
        bets += run.outcome.bet
        wins += run.outcome.profit > 0
        forfeits += run.transcript.forfeited
        saturated_trials += run.saturated
        if not run.saturated:
            probe_hits += sum(run.transcript.answers)
            probe_total += len(run.transcript.answers)
    mean, lo, hi = mean_confidence_interval(profits)
    return BpExperiment(
        trials=trials, mean_profit=mean, ci_lo=lo, ci_hi=hi,
        bet_rate=bets / trials, win_rate=wins / trials,
        saturation_rate=saturated_trials / trials,
        probe_fp_rate_unsaturated=(probe_hits / probe_total) if probe_total else 0.0,
        forfeits=forfeits,
    )


class SaturationFrequency(namedtuple("SaturationFrequency", "rate se trials")):
    """Monte Carlo saturation rate with its standard error."""

    __slots__ = ()


def saturation_frequency(m: int, k: int, n: int, trials: int, seed: int) -> SaturationFrequency:
    """Monte Carlo saturation rate of truly-random-hash builds."""
    universe = Universe(max(4 * n, 16))
    make = filter_factory(FilterParams(m=m, k=k, n=n), universe, TRUE_RANDOM)

    def saturated(s: int) -> bool:
        rng = random.Random(s)
        return make(set(universe.sample(rng, n)), rng).is_saturated()

    hits = sum(run_trials(saturated, seed, "saturation", trials))
    rate = hits / trials
    return SaturationFrequency(rate=rate, se=floored_binomial_se(rate, trials), trials=trials)
