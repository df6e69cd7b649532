"""Real-versus-ideal indistinguishability experiments with a reveal oracle.

The ideal world replaces the filter by a stateful simulator: a bit array M,
a lazily sampled truly random index function f used only for inserts, an
append-only list of inserted elements, an append-only list of elements that
became sticky false positives, and an insert counter. A query for an
element on neither list samples k fresh uniform indices, disregarding the
element itself; if all sampled bits are set the element joins the
false-positive list. A reveal returns M, packed as a filter's bits are.

The real world runs the same adversary against an actual insertable filter
whose reveal returns its internal representation. Each trial builds its
world with a factory ``make(members, rng)``, a filter factory or
:func:`simulator_factory`, so both worlds run one protocol. The adversary's
output bit is what the two worlds compare: a trial scores 1 exactly when
the output equals 1, and the advantage is the gap between the two worlds'
rates of 1. A distinguisher that sees only that output gains nothing over
reading it as is.

Oracle budgets cover inserts, membership queries and reveals separately.
An over-budget call gets the ``REFUSED`` sentinel instead of an answer, and
any violation replaces the adversary's output by ``REFUSED``, which scores 0.

The package's key-leaking construction, :class:`KeyLeakingFilter`, shows
why resilience against betting adversaries does not compose with a reveal
oracle: its revealed snapshot stores the permutation key, so an adversary
can predict a false positive offline and confirm it with one query, while
against the simulator the same prediction only hits at the density rate.
"""

from __future__ import annotations

import random
from collections import namedtuple
from typing import TYPE_CHECKING

from .errors import ParameterError, _require_ints
from .filters import (
    KIND_NY,
    KIND_STANDARD,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    _fill,
    _memo_fill,
    _pack,
    _pack_snapshot,
    _popcount,
)
from .stats import DrawStream, mix_seed, run_trials, wilson_interval

if TYPE_CHECKING:
    from .games import Adversary, GameConfig

REFUSED = "refused"
# Candidates a representation-prediction adversary tries before giving up.
MAX_SCAN = 4096


class OracleBudget(namedtuple("OracleBudget", "inserts queries reveals")):
    """Call allowances: inserts (updates), queries (membership tests),
    reveals (representation dumps)."""

    __slots__ = ()

    def __new__(cls, inserts: int, queries: int, reveals: int):
        _require_ints(inserts=inserts, queries=queries, reveals=reveals)
        if min(inserts, queries, reveals) < 0:
            raise ParameterError("budgets must be >= 0")
        return super().__new__(cls, inserts, queries, reveals)


class OracleSet:
    """Budget-enforcing wrapper around the three oracles of one world."""

    def __init__(self, query, insert, reveal, budget: OracleBudget):
        self._query = query
        self._insert = insert
        self._reveal = reveal
        self.remaining_inserts = budget.inserts
        self.remaining_queries = budget.queries
        self.remaining_reveals = budget.reveals
        self.violated = False

    def query(self, x):
        if self.remaining_queries <= 0:
            self.violated = True
            return REFUSED
        self.remaining_queries -= 1
        return self._query(x)

    def insert(self, x):
        if self.remaining_inserts <= 0:
            self.violated = True
            return REFUSED
        self.remaining_inserts -= 1
        self._insert(x)
        return None

    def reveal(self):
        if self.remaining_reveals <= 0:
            self.violated = True
            return REFUSED
        self.remaining_reveals -= 1
        return self._reveal()


class SimulatorState:
    """Ideal-world state machine.

    Index draws come from ``stream``, a :class:`bloomlab.stats.DrawStream`
    keyed by ``key`` and personalised ``b"simulator"``, in strict call
    order: k draws per first-time insert, k draws per query of an unlisted
    element, none otherwise. Replaying the same operation sequence under the
    same key therefore reproduces every answer, regardless of which element
    labels appear, and ``stream.position`` counts the bytes drawn.

    Each index is ``stream.below(m, ...)``'s draw, the rule of true-random
    filters: the next ceil(w/8) stream bytes, little-endian, cut to their low
    w = (m - 1).bit_length() bits and drawn again while >= m. ``build``
    fills f through the filters' ``_memo_fill``, the memo fill of true-random
    filters: the indices of all its first-time members are drawn as one
    read, the draws their inserts one by one would make. The ideal world's
    ``make(members, rng)``, :func:`simulator_factory`, builds it so. M is
    ``flags``, one byte per position, 0 or 1, as in a filter. A simulator
    copies and pickles partway through its stream and goes on with the
    same draws.
    """

    __slots__ = ("m", "k", "stream", "flags", "f", "inserted", "fp_list",
                 "_inserted_set", "_fp_set")

    def __init__(self, m: int, k: int, key: bytes):
        _require_ints(m=m, k=k)
        if m < 1 or k < 1:
            raise ParameterError("need m >= 1 and k >= 1")
        self.m = m
        self.k = k
        self.stream = DrawStream(key, b"simulator")
        self.flags = bytearray(m)
        self.f: dict[int, tuple[int, ...]] = {}
        self.inserted: list[int] = []
        self.fp_list: list[int] = []
        self._inserted_set: set[int] = set()
        self._fp_set: set[int] = set()

    def insert(self, x) -> None:
        """First-time inserts set the bits of f(x); repeats do nothing."""
        self.build((x,))

    def build(self, members) -> None:
        """Insert the initial members in the order given: the state and draws of
        inserting them one by one, the draws taken in one read."""
        inserted = self._inserted_set
        fresh = [x for x in dict.fromkeys(members) if x not in inserted]
        indices = _memo_fill(self.f, self.stream, self.m, self.k, fresh)
        _fill(self.flags, self.m, indices)
        self.inserted.extend(fresh)
        inserted.update(fresh)

    @property
    def ctr(self) -> int:
        """How many distinct elements were inserted: ``len(inserted)``."""
        return len(self.inserted)

    def query(self, x) -> int:
        """1 for listed elements; otherwise k fresh uniform draws decide,
        and a hit makes the element a permanent false positive."""
        if x in self._inserted_set or x in self._fp_set:
            return 1
        if all(map(self.flags.__getitem__, self.stream.below(self.m, self.k))):
            self.fp_list.append(x)
            self._fp_set.add(x)
            return 1
        return 0

    def reveal(self) -> bytes:
        return _pack(self.flags)

    def popcount(self) -> int:
        return _popcount(self.flags)

    def fill_ratio(self) -> float:
        return _popcount(self.flags) / self.m


class FilicAdversary:
    """Interface for reveal-oracle adversaries."""

    def begin(self, rng: random.Random) -> None:
        self.rng = rng

    def choose_set(self) -> set[int]:
        raise NotImplementedError

    def interact(self, oracles: OracleSet):
        raise NotImplementedError


def run_real(adversary: FilicAdversary, make_world, budget: OracleBudget, seed: int) -> int:
    """One experiment in either world: ``make_world(members, rng)`` returns an
    object whose ``query``, ``insert`` and ``reveal`` are the oracles. The
    trial scores 1 when the adversary outputs 1 without a violation, and 0
    for any other output."""
    adversary.begin(random.Random(mix_seed(seed, "filic-adv", 0)))
    members = frozenset(adversary.choose_set())
    world = make_world(members, random.Random(mix_seed(seed, "filic-world", 0)))
    oracles = OracleSet(world.query, world.insert, world.reveal, budget)
    out = adversary.interact(oracles)
    if oracles.violated:
        out = REFUSED
    return 1 if out == 1 else 0


# The ideal world runs the same protocol; only its factory differs.
run_ideal = run_real


def simulator_factory(params: FilterParams):
    """The ideal world of every scenario whose reveal is a raw bit array: a
    fresh :class:`SimulatorState` per trial, keyed by 16 bytes of the world
    generator and built over the sorted members."""

    def make(members, rng: random.Random) -> SimulatorState:
        sim = SimulatorState(params.m, params.k, rng.randbytes(16))
        sim.build(sorted(members))
        return sim

    return make


class AdvantageReport(namedtuple("AdvantageReport", "trials p_real p_ideal advantage ci_lo ci_hi")):
    """Distinguishing advantage |p_real - p_ideal| with a conservative CI
    combining the per-world Wilson intervals."""

    __slots__ = ()


def estimate_advantage(adversary: FilicAdversary, make_real, make_ideal, budget: OracleBudget,
                       trials: int, seed: int) -> AdvantageReport:
    """Monte Carlo advantage over independent real and ideal trials.

    The interval spans the smallest to the largest gap between the rates
    that their two 99% Wilson intervals allow, clamped to [0, 1]: a nominal
    level of 98% or more, by the union bound. Newcombe's score interval for
    a difference of proportions would be narrower.
    """
    real = lambda s: run_real(adversary, make_real, budget, s)
    ideal = lambda s: run_ideal(adversary, make_ideal, budget, s)
    real_hits = sum(run_trials(real, seed, "filic-real", trials))
    ideal_hits = sum(run_trials(ideal, seed, "filic-ideal", trials))
    p_real = real_hits / trials
    p_ideal = ideal_hits / trials
    lr, ur = wilson_interval(real_hits, trials)
    li, ui = wilson_interval(ideal_hits, trials)
    lo = max(0.0, lr - ui, li - ur)
    hi = min(1.0, max(ur - li, ui - lr))
    return AdvantageReport(trials=trials, p_real=p_real, p_ideal=p_ideal,
                           advantage=abs(p_real - p_ideal), ci_lo=lo, ci_hi=hi)


class KeyLeakingFilter(NyFilter):
    """Permutation-wrapped insertable filter whose reveal embeds the key.

    The wrapped layout makes the bit positions useless without the
    permutation key, but the revealed snapshot carries the key itself at
    ``KEY_OFFSET``, so reveal access collapses the protection entirely.
    """

    __slots__ = ()

    def insert(self, x: int) -> None:
        self.inner.insert(self.prp.encrypt(self.universe.require(x)))

    def reveal(self) -> bytes:
        return self.to_bytes()


def key_leaking_filter_factory(params: FilterParams, universe: Universe):
    """Fresh key-leaking filter per trial with a random permutation key."""

    def make(members, rng: random.Random) -> KeyLeakingFilter:
        return KeyLeakingFilter.build(members, params, rng.randbytes(16), universe)

    return make


class _KeyLeakingSimulator(SimulatorState):
    """A simulator revealed in :class:`KeyLeakingFilter`'s snapshot format,
    with a random key: in the ideal world the key field carries nothing."""

    __slots__ = ("size", "key")

    def reveal(self) -> bytes:
        return _pack_snapshot(self.size, self.m, self.k, KIND_NY, self.key, _pack(self.flags))


def key_leaking_simulator_factory(params: FilterParams, universe: Universe):
    """The key-leak scenario's ideal world: :func:`simulator_factory`'s, its
    reveal keyed by the next 16 bytes of the world generator."""

    def make(members, rng: random.Random) -> _KeyLeakingSimulator:
        sim = _KeyLeakingSimulator(params.m, params.k, rng.randbytes(16))
        sim.build(sorted(members))
        sim.size, sim.key = universe.size, rng.randbytes(16)
        return sim

    return make


class _UniformMembers(FilicAdversary):
    """Chooses n uniform distinct members of the universe."""

    def __init__(self, universe: Universe, n: int):
        if not 0 < n < universe.size:
            raise ParameterError("need 0 < n < universe size")
        self.universe = universe
        self.n = n

    def choose_set(self) -> set[int]:
        self.members = set(self.universe.sample(self.rng, self.n))
        return set(self.members)


class RepresentationPredictionAdversary(_UniformMembers):
    """Reads the revealed representation, predicts a positive offline and
    spends one query confirming it.

    With ``expects_snapshot`` the reveal is restored as the key-carrying
    :class:`NyFilter` snapshot it is, permutation included; otherwise it is
    taken as a raw bit array under the public hash. That offline copy's
    ``sample_positive`` tests random non-members until one is positive, at
    most ``MAX_SCAN`` draws. Real-world predictions are exact, so the confirmed bit
    is 1 almost surely; against the simulator the prediction is independent
    of the fresh sampling and only hits at the density rate.
    """

    def __init__(self, params: FilterParams, universe: Universe, n: int,
                 expects_snapshot: bool):
        super().__init__(universe, n)
        self.params = params
        self.expects_snapshot = expects_snapshot

    def interact(self, oracles: OracleSet):
        blob = oracles.reveal()
        if blob is REFUSED:
            return 0
        if self.expects_snapshot:
            offline = NyFilter.from_bytes(blob, self.universe)
        else:
            offline = BloomFilter._over_bits(self.params.m, self.params.k, HashFamily.public(),
                                             self.universe, KIND_STANDARD, blob)
        x = offline.sample_positive(self.rng, self.members, MAX_SCAN)
        if x is None:
            return 0
        ans = oracles.query(x)
        return ans if ans in (0, 1) else 0


class NullAdversary(_UniformMembers):
    """Ignores its oracles and outputs 0; its advantage is zero."""

    def interact(self, oracles: OracleSet):
        return 0


class _WrappedAbAdversary(FilicAdversary):
    """Relays a betting-game adversary through the oracle interface.

    ``bloomlab.games`` is imported by the methods that use it, so that the
    reveal-oracle experiments do not load the betting games."""

    def __init__(self, ab_adversary: Adversary, cfg: GameConfig):
        self.ab = ab_adversary
        self.cfg = cfg

    def begin(self, rng: random.Random) -> None:
        super().begin(rng)
        self.ab.begin(self.cfg, rng)

    def choose_set(self) -> set[int]:
        from .games import choose_members

        self.members = choose_members(self.ab, self.cfg)
        return set(self.members)

    def interact(self, oracles: OracleSet):
        from .games import GameTranscript, referee

        play = referee(oracles.query, self.ab, self.cfg, GameTranscript(members=self.members))
        if play is None:
            return 0
        ans = oracles.query(play[1])
        return ans if ans in (0, 1) else 0


def ab_to_filic_adversary(ab_adversary: Adversary, cfg: GameConfig):
    """Wrap a betting-game adversary for the real/ideal experiments.

    The wrapper relays the at most cfg.t adaptive probes through
    :func:`bloomlab.games.referee`, spends one final query on the
    adversary's target and outputs that bit, which is the trial's score.
    Forfeits under the betting rules and budget refusals force output 0,
    and out-of-universe probes or targets raise :class:`DomainError` in
    both worlds. Budgets must allow cfg.t + 1 queries for a faithful
    embedding.
    """
    return _WrappedAbAdversary(ab_adversary, cfg)
