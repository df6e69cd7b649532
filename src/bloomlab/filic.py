"""Real-versus-ideal indistinguishability experiments with a reveal oracle.

The ideal world replaces the filter by a stateful simulator: a bit array M,
a lazily sampled truly random index function f used only for inserts, an
append-only list of inserted elements, an append-only list of elements that
became sticky false positives, and an insert counter. A query for an
element on neither list samples k fresh uniform indices, disregarding the
element itself; if all sampled bits are set the element joins the
false-positive list. A reveal simply returns M.

The real world runs the same adversary against an actual insertable filter
whose reveal returns its internal representation. The adversary's output
bit is what the two worlds compare: a trial scores 1 exactly when the
output equals 1, and the advantage is the gap between the two worlds'
rates of 1. A distinguisher that sees only that output gains nothing over
reading it as is.

Oracle budgets cover inserts, membership queries and reveals separately.
An over-budget call gets the ``REFUSED`` sentinel instead of an answer, and
any violation replaces the adversary's output by ``REFUSED``, which scores 0.

The package's key-leaking construction, :class:`KeyLeakingFilter`, is a
:class:`~bloomlab.filters.NyFilter` subclass that accepts inserts and whose
reveal is its snapshot. It demonstrates why resilience against betting
adversaries does not compose with a reveal oracle: the snapshot stores the
permutation key inside the revealed representation (at ``KEY_OFFSET``), so
an adversary can read the key, predict a false positive offline and verify
it with a single query. Against the simulator the same adversary's
prediction is uncorrelated with the fresh sampling and only succeeds at the
density-driven rate.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import chain
from typing import TYPE_CHECKING

from .errors import ParameterError
from .filters import (
    KIND_NY,
    KIND_STANDARD,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    _draws,
    _fill,
    _memo_fill,
    _pack_snapshot,
)
from .stats import mix_seed, seed_stream, wilson_interval

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

    Index draws come from the provided generator in strict call order: k
    draws per first-time insert, k draws per query of an unlisted element,
    none otherwise. Replaying the same operation sequence against the same
    generator therefore reproduces every answer, regardless of which
    element labels appear.

    Each index is ``rng.randrange(m)``'s draw, taken through the filters'
    ``_draws``: an exact ``random.Random`` reads it straight from
    ``getrandbits`` by CPython's rule, any other sampler (a subclass, or an
    object with only ``randrange``) is asked for ``randrange(m)``. ``build``
    fills f through the filters' ``_memo_fill``, the memo fill of true-random
    filters: the indices of all its first-time members are drawn as one
    stream, the draws their inserts one by one would make.
    """

    __slots__ = ("m", "k", "rng", "bits", "f", "inserted", "fp_list", "ctr",
                 "_inserted_set", "_fp_set", "_ones")

    def __init__(self, m: int, k: int, rng: random.Random):
        if m < 1 or k < 1:
            raise ParameterError("need m >= 1 and k >= 1")
        self.m = m
        self.k = k
        self.rng = rng
        self.bits = bytearray((m + 7) // 8)
        self.f: dict[int, tuple[int, ...]] = {}
        self.inserted: list[int] = []
        self.fp_list: list[int] = []
        self.ctr = 0
        self._inserted_set: set[int] = set()
        self._fp_set: set[int] = set()
        self._ones = 0

    def insert(self, x) -> None:
        """First-time inserts set the bits of f(x); repeats do nothing."""
        self.build((x,))

    def build(self, members) -> None:
        """Insert the initial members in the order given: the state and draws of
        inserting them one by one, the draws taken as one stream."""
        inserted = self._inserted_set
        fresh = [x for x in dict.fromkeys(members) if x not in inserted]
        indices = _memo_fill(self.f, self.rng, self.m, self.k, fresh)
        self._ones += _fill(self.bits, self.m, chain.from_iterable(indices), False)
        self.inserted.extend(fresh)
        inserted.update(fresh)
        self.ctr += len(fresh)

    def query(self, x) -> int:
        """1 for listed elements; otherwise k fresh uniform draws decide,
        and a hit makes the element a permanent false positive."""
        if x in self._inserted_set or x in self._fp_set:
            return 1
        if all(self.bits[j >> 3] & (1 << (j & 7)) for j in _draws(self.rng, self.m, self.k)):
            self.fp_list.append(x)
            self._fp_set.add(x)
            return 1
        return 0

    def reveal(self) -> bytes:
        return bytes(self.bits)

    def popcount(self) -> int:
        return self._ones

    def fill_ratio(self) -> float:
        return self._ones / self.m


class FilicAdversary:
    """Interface for reveal-oracle adversaries."""

    def begin(self, rng: random.Random) -> None:
        self.rng = rng

    def choose_set(self) -> set[int]:
        raise NotImplementedError

    def interact(self, oracles: OracleSet):
        raise NotImplementedError


def _run_world(adversary: FilicAdversary, make_world, budget: OracleBudget, seed: int) -> int:
    """The protocol of both worlds: ``make_world(members, rng)`` returns the
    world's (query, insert, reveal). The trial scores 1 when the adversary
    outputs 1 without a violation, and 0 for any other output."""
    adversary.begin(random.Random(mix_seed(seed, "filic-adv", 0)))
    members = frozenset(adversary.choose_set())
    world = make_world(members, random.Random(mix_seed(seed, "filic-world", 0)))
    oracles = OracleSet(*world, budget)
    out = adversary.interact(oracles)
    if oracles.violated:
        out = REFUSED
    return 1 if out == 1 else 0


def run_real(adversary: FilicAdversary, filter_factory, budget: OracleBudget, seed: int) -> int:
    """One real-world experiment; returns its score."""

    def world(members, rng):
        filt = filter_factory(members, rng)
        return filt.query, filt.insert, filt.reveal

    return _run_world(adversary, world, budget, seed)


def run_ideal(adversary: FilicAdversary, params: FilterParams, budget: OracleBudget, seed: int,
              reveal_codec=None, state_probe=None) -> int:
    """One ideal-world experiment against the simulator.

    ``reveal_codec``, if given, is a factory taking the world generator and
    returning a function that wraps the simulator's bit array in whatever
    representation format the real construction reveals, so that formats
    cannot be told apart. ``state_probe`` receives the simulator right
    after the initial build, for instrumentation.
    """

    def world(members, rng):
        sim = SimulatorState(params.m, params.k, rng)
        sim.build(sorted(members))
        if state_probe is not None:
            state_probe(sim)
        if reveal_codec is None:
            return sim.query, sim.insert, sim.reveal
        codec = reveal_codec(rng)
        return sim.query, sim.insert, lambda: codec(sim.reveal())

    return _run_world(adversary, world, budget, seed)


class AdvantageReport(namedtuple("AdvantageReport", "trials p_real p_ideal advantage ci_lo ci_hi")):
    """Distinguishing advantage |p_real - p_ideal| with a conservative CI
    combining the per-world Wilson intervals."""

    __slots__ = ()


def estimate_advantage(adversary: FilicAdversary, filter_factory, params: FilterParams,
                       budget: OracleBudget, trials: int, seed: int,
                       reveal_codec=None) -> AdvantageReport:
    """Monte Carlo advantage over independent real and ideal trials."""
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    real_hits = ideal_hits = 0
    real_seed, ideal_seed = seed_stream(seed, "filic-real"), seed_stream(seed, "filic-ideal")
    for i in range(trials):
        real_hits += run_real(adversary, filter_factory, budget, real_seed(i))
        ideal_hits += run_ideal(adversary, params, budget, ideal_seed(i), reveal_codec=reveal_codec)
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


def snapshot_reveal_codec(params: FilterParams, universe: Universe):
    """Ideal-world codec matching :class:`KeyLeakingFilter`'s reveal format.

    The simulator has no key, so each trial wraps M together with a freshly
    drawn random key: in the ideal world the key field carries no
    information, which is exactly the point.
    """

    def factory(rng: random.Random):
        key = rng.randbytes(16)

        def codec(bits: bytes) -> bytes:
            return _pack_snapshot(universe.size, params.m, params.k, KIND_NY, key, bits)

        return codec

    return factory


class RepresentationPredictionAdversary(FilicAdversary):
    """Reads the revealed representation, predicts a positive offline and
    spends one query confirming it.

    With ``expects_snapshot`` the reveal is restored as the key-carrying
    :class:`NyFilter` snapshot it is, permutation included; otherwise it is
    taken as a raw bit array under the public hash. Random non-members are
    queried against that offline copy until one is positive, at most
    ``MAX_SCAN`` draws. Real-world predictions are exact, so the confirmed bit
    is 1 almost surely; against the simulator the prediction is independent
    of the fresh sampling and only hits at the density rate.
    """

    def __init__(self, params: FilterParams, universe: Universe, n: int,
                 expects_snapshot: bool):
        if not 0 < n < universe.size:
            raise ParameterError("need 0 < n < universe size")
        self.params = params
        self.universe = universe
        self.n = n
        self.expects_snapshot = expects_snapshot

    def choose_set(self) -> set[int]:
        self.members = set(self.universe.sample(self.rng, self.n))
        return set(self.members)

    def interact(self, oracles: OracleSet):
        blob = oracles.reveal()
        if blob is REFUSED:
            return 0
        if self.expects_snapshot:
            offline = NyFilter.from_bytes(blob, self.universe)
        else:
            offline = BloomFilter._over_bits(self.params.m, self.params.k, HashFamily.public(),
                                             self.universe, KIND_STANDARD, blob)
        members, query, size, rng = self.members, offline.query, self.universe.size, self.rng
        # rng.randrange(size), drawn as Universe.sample_outside draws it; a
        # member uses up one of the MAX_SCAN draws.
        draw, arg = (rng.getrandbits, size.bit_length()) if type(rng) is random.Random else (rng.randrange, size)
        for _ in range(MAX_SCAN):
            x = draw(arg)
            while x >= size:
                x = draw(arg)
            if x not in members and query(x):
                ans = oracles.query(x)
                return ans if ans in (0, 1) else 0
        return 0


class NullAdversary(FilicAdversary):
    """Ignores its oracles and outputs 0; its advantage is zero."""

    def __init__(self, universe: Universe, n: int):
        if not 0 < n < universe.size:
            raise ParameterError("need 0 < n < universe size")
        self.universe = universe
        self.n = n

    def choose_set(self) -> set[int]:
        return set(self.universe.sample(self.rng, self.n))

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
