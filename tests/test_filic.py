"""Real/ideal indistinguishability harness and the reveal-channel attack."""

import copy
import hashlib
import itertools
import pickle
import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomlab.errors import ParameterError, UnsupportedOperationError
from bloomlab.feistel import FeistelPermutation, _round_tables
from bloomlab.filic import (
    MAX_SCAN,
    REFUSED,
    FilicAdversary,
    NullAdversary,
    OracleBudget,
    OracleSet,
    RepresentationPredictionAdversary,
    SimulatorState,
    _KeyLeakingSimulator,
    ab_to_filic_adversary,
    estimate_advantage,
    key_leaking_filter_factory,
    key_leaking_simulator_factory,
    run_ideal,
    run_real,
    simulator_factory,
)
from bloomlab.filters import (
    KEY_OFFSET,
    KIND_NY,
    FilterParams,
    NyFilter,
    Universe,
    _pack_snapshot,
    filter_factory,
)
from bloomlab.games import GameConfig, SaturationAdversary, UniformAdversary, run_ab_experiment
from bloomlab.stats import DrawStream, mix_seed, wilson_interval


class _CountingRandom(random.Random):
    """Counts randrange calls so draw usage can be asserted."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = 0

    def randrange(self, *args, **kwargs):
        self.calls += 1
        return super().randrange(*args, **kwargs)


def _stream(key=b"sim"):
    """A fresh reference of the simulator's stream under ``key``."""
    return DrawStream(key, b"simulator")


def test_simulator_validation():
    with pytest.raises(ParameterError):
        SimulatorState(0, 1, b"sim")
    with pytest.raises(ParameterError):
        SimulatorState(8, 0, b"sim")
    with pytest.raises(ParameterError, match=r"^m must be an int, not float$"):
        SimulatorState(64.0, 5, b"sim")
    with pytest.raises(ParameterError, match=r"^m must be an int, not bool$"):
        SimulatorState(True, True, b"sim")
    with pytest.raises(ParameterError, match="64 bytes"):
        SimulatorState(8, 2, b"x" * 65)
    assert SimulatorState(8, 2, b"x" * 64).stream == DrawStream(b"x" * 64, b"simulator")


def test_simulator_insert_draws_once():
    sim, ref = SimulatorState(16, 3, b"sim"), _stream()
    sim.insert(42)
    assert sim.f[42] == tuple(ref.below(16, 3))
    assert sim.stream == ref and sim.stream.position == 3
    assert sim.ctr == 1 and sim.inserted == [42]
    sim.insert(42)
    assert sim.stream == ref  # repeat insert consumes nothing
    assert sim.ctr == 1
    assert 1 <= sim.popcount() <= 3


def test_simulator_query_of_inserted_is_free():
    sim = SimulatorState(16, 3, b"sim")
    sim.insert(7)
    base = sim.stream.position
    assert sim.query(7) == 1
    assert sim.stream.position == base  # listed elements answer without drawing


def test_simulator_unlisted_query_draws_every_time():
    sim, ref = SimulatorState(64, 2, b"sim"), _stream()
    assert sim.query(5) == 0  # empty bit array cannot hit
    assert sim.query(5) == 0
    ref.below(64, 4)  # two independent draws of two indices for the same element
    assert sim.stream == ref and sim.stream.position == 4
    assert sim.fp_list == []


def test_simulator_false_positive_is_sticky():
    sim = SimulatorState(4, 1, b"sim")
    x = 0
    while sim.popcount() < 4:  # saturate: every fresh draw hits
        sim.insert(x)
        x += 1
    before = sim.stream.position
    assert sim.query(99) == 1
    assert sim.fp_list == [99]
    assert sim.stream.position == before + 1
    assert sim.query(99) == 1
    assert sim.stream.position == before + 1  # sticky: no fresh draw
    assert sim.fp_list == [99]


def test_simulator_insert_after_fp_does_not_redraw():
    sim = SimulatorState(1, 1, b"sim")
    sim.insert(0)
    sim.query(99)
    assert 99 in sim.fp_list
    sim.insert(99)
    assert sim.ctr == 2
    assert sim.query(99) == 1


def test_simulator_build_order_is_caller_controlled():
    a = SimulatorState(32, 2, b"sim")
    a.build([3, 1, 2])
    assert a.inserted == [3, 1, 2]


def test_simulator_label_permutation_replays_identically():
    """Draw consumption depends only on operation positions, not labels."""
    ops = [("i", 0), ("q", 5), ("i", 1), ("q", 5), ("q", 6), ("i", 0)]
    relabel = {0: 40, 1: 41, 5: 55, 6: 66}

    def run(script):
        sim = SimulatorState(8, 2, b"label")
        answers = []
        for op, x in script:
            if op == "i":
                sim.insert(x)
            else:
                answers.append(sim.query(x))
        return answers, sim.ctr, sim.popcount(), sim.stream.position

    plain = run(ops)
    renamed = run([(op, relabel[x]) for op, x in ops])
    assert plain == renamed


_ELEMENTS = st.integers(0, 15)


@settings(max_examples=150, deadline=None)
@given(
    key=st.binary(max_size=16),
    m=st.one_of(st.integers(1, 300), st.sampled_from([(1 << 20) - 3, 1 << 20, (1 << 20) + 1, 1_000_003])),
    k=st.integers(1, 12),
    script=st.lists(st.one_of(
        st.tuples(st.just("build"), st.lists(_ELEMENTS, max_size=10)),
        st.tuples(st.sampled_from(["insert", "query"]), _ELEMENTS),
    ), max_size=12),
)
def test_simulator_draws_the_keyed_stream(key, m, k, script):
    """A simulator whose builds draw in one read agrees with one whose builds
    are replayed as inserts in order: every answer, the whole state and the
    stream position. Both agree with a plain model whose draws are the keyed
    stream's, one below m at a time: k per first-time insert and k per query
    of an unlisted element, in call order."""
    sims = [SimulatorState(m, k, key) for _ in range(2)]
    ref, f, inserted, fps, bits = DrawStream(key, b"simulator"), {}, [], [], bytearray(m)
    answers = [[], []]
    for op, arg in script:
        for i, sim in enumerate(sims):
            if op == "query":
                answers[i].append(sim.query(arg))
            elif op == "insert" or i == 0:
                getattr(sim, op)(arg)
            else:
                for x in arg:
                    sim.insert(x)
        if op == "query":
            if arg in inserted or arg in fps:
                expected = 1
            else:
                expected = int(all([bits[ref.below(m, 1)[0]] for _ in range(k)]))
                if expected:
                    fps.append(arg)
            assert answers[0][-1] == expected
            continue
        for x in arg if op == "build" else (arg,):
            if x not in inserted:
                f[x] = tuple(ref.below(m, 1)[0] for _ in range(k))
                for j in f[x]:
                    bits[j] = 1
                inserted.append(x)
    assert answers[0] == answers[1]
    for sim in sims:
        assert (sim.f, sim.flags, sim.inserted, sim.fp_list, sim.ctr) == (f, bits, inserted, fps, len(inserted))
        assert sim.stream == ref


@pytest.mark.parametrize("m, k", [(8, 3), (60, 3), (70000, 5)])
def test_simulator_copies_and_pickles_partway_through_its_stream(m, k):
    """A simulator that has drawn survives ``copy.deepcopy`` and ``pickle``:
    the copy has the same state and stream position and answers the next
    operations as the original does."""
    sim = _KeyLeakingSimulator(m, k, b"partway")
    sim.build(range(0, 40, 3))
    sim.size, sim.key = 5000, b"k" * 16
    answers = [sim.query(x) for x in range(100, 110)]
    assert 0 < sim.stream.position and len(answers) == 10
    fields = lambda s: (s.m, s.k, s.f, s.flags, s.inserted, s.fp_list, s.stream, s.reveal())
    twins = copy.deepcopy(sim), pickle.loads(pickle.dumps(sim))
    script = [("insert", 7), ("query", 200), ("insert", 300), *(("query", x) for x in range(400, 440))]

    def play(s):
        return [s.insert(x) if op == "insert" else s.query(x) for op, x in script]

    for twin in twins:
        assert type(twin) is _KeyLeakingSimulator and fields(twin) == fields(sim)
    expected = play(sim)
    for twin in twins:
        assert play(twin) == expected and fields(twin) == fields(sim)


def test_oracle_budget_refusal():
    sim = SimulatorState(8, 2, b"sim")
    oracles = OracleSet(sim.query, sim.insert, sim.reveal, OracleBudget(inserts=1, queries=2, reveals=0))
    assert oracles.insert(1) is None
    assert oracles.insert(2) is REFUSED
    assert oracles.query(3) in (0, 1)
    assert oracles.query(4) in (0, 1)
    assert oracles.query(5) is REFUSED
    assert oracles.reveal() is REFUSED
    assert oracles.violated


class _CountingWorld:
    """A world that answers every query 1 and records its oracle calls."""

    def __init__(self, members, rng):
        self.members = members
        self.rng = rng
        self.calls = []

    def query(self, x):
        self.calls.append(("query", x))
        return 1

    def insert(self, x):
        self.calls.append(("insert", x))

    def reveal(self):
        self.calls.append(("reveal",))
        return b"blob"


class _RevealInsertQuery(FilicAdversary):
    def choose_set(self):
        return {5, 1}

    def interact(self, oracles):
        oracles.reveal()
        oracles.insert(7)
        return oracles.query(3)


@pytest.mark.parametrize("run", [run_real, run_ideal])
@pytest.mark.parametrize("allowance, calls, score", [
    (1, [("reveal",), ("insert", 7), ("query", 3)], 1),
    (0, [], 0),
])
def test_both_worlds_run_any_factory(run, allowance, calls, score):
    """Either world builds one world per trial with ``make(members, rng)``,
    from the chosen members and the trial's world generator, and reaches it
    only through the budgeted oracles."""
    worlds = []

    def make(members, rng):
        worlds.append(_CountingWorld(members, rng))
        return worlds[-1]

    budget = OracleBudget(inserts=allowance, queries=allowance, reveals=allowance)
    assert run(_RevealInsertQuery(), make, budget, seed=4) == score
    [world] = worlds
    assert world.members == frozenset({1, 5})
    assert world.rng.getstate() == random.Random(mix_seed(4, "filic-world", 0)).getstate()
    assert world.calls == calls


_MEMBERS = frozenset({40, 3, 17, 3000, 9})


def _hand_built_simulator(m, k, rng):
    """A simulator keyed by the next 16 bytes of ``rng``, built over the sorted members."""
    sim = SimulatorState(m, k, rng.randbytes(16))
    sim.build(sorted(_MEMBERS))
    return sim


@pytest.mark.parametrize("m, k", [(64, 5), (60, 3)])
def test_simulator_factory_builds_over_the_sorted_members(m, k):
    rng, twin_rng = random.Random(21), random.Random(21)
    world = simulator_factory(FilterParams(m=m, k=k, n=5))(_MEMBERS, rng)
    sim = _hand_built_simulator(m, k, twin_rng)
    assert type(world) is SimulatorState
    assert (world.f, world.flags, world.inserted) == (sim.f, sim.flags, sim.inserted)
    assert world.stream == sim.stream and rng.getstate() == twin_rng.getstate()
    assert world.reveal() == sim.reveal()


def test_key_leaking_simulator_reveals_its_bits_with_a_key_drawn_after_the_build():
    params, u = FilterParams(m=60, k=3, n=5), Universe(5000)
    rng, twin_rng = random.Random(8), random.Random(8)
    world = key_leaking_simulator_factory(params, u)(_MEMBERS, rng)
    twin = _hand_built_simulator(60, 3, twin_rng)
    key = twin_rng.randbytes(16)
    assert world.flags == twin.flags and world.stream == twin.stream
    assert world.reveal() == _pack_snapshot(5000, 60, 3, KIND_NY, key, twin.reveal())
    assert rng.getstate() == twin_rng.getstate()


def test_violation_replaces_adversary_output():
    class Greedy(FilicAdversary):
        def choose_set(self):
            return {1}

        def interact(self, oracles):
            oracles.reveal()  # refused: budget has no reveals
            return 1

    params = FilterParams(m=16, k=2, n=1)
    u = Universe(64)
    bit = run_real(Greedy(), filter_factory(params, u), OracleBudget(inserts=0, queries=0, reveals=0), seed=3)
    assert bit == 0
    bit = run_ideal(Greedy(), simulator_factory(params), OracleBudget(inserts=0, queries=0, reveals=0), seed=3)
    assert bit == 0


@pytest.mark.parametrize("out, score", [(0, 0), (2, 0), (None, 0), ("1", 0), (1, 1), (True, 1)])
def test_trial_scores_one_only_for_an_output_equal_to_one(out, score):
    class Fixed(FilicAdversary):
        def choose_set(self):
            return {1}

        def interact(self, oracles):
            assert oracles.query(2) in (0, 1)  # within budget: no violation
            return out

    params = FilterParams(m=16, k=2, n=1)
    budget = OracleBudget(inserts=0, queries=1, reveals=0)
    assert run_real(Fixed(), filter_factory(params, Universe(64)), budget, seed=3) == score
    assert run_ideal(Fixed(), simulator_factory(params), budget, seed=3) == score


def test_worlds_are_deterministic_per_seed():
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=True)
    budget = OracleBudget(inserts=0, queries=4, reveals=1)
    real = [run_real(adv, key_leaking_filter_factory(params, u), budget, seed=5)
            for _ in range(3)]
    ideal = [run_ideal(adv, key_leaking_simulator_factory(params, u), budget, seed=5)
             for _ in range(3)]
    assert len(set(real)) == 1 and len(set(ideal)) == 1


def test_null_adversary_has_no_advantage():
    params = FilterParams(m=32, k=3, n=4)
    u = Universe(1024)
    report = estimate_advantage(NullAdversary(u, 4), filter_factory(params, u), simulator_factory(params),
                                OracleBudget(inserts=2, queries=2, reveals=1), trials=200, seed=7)
    assert report.p_real == 0.0 and report.p_ideal == 0.0
    assert report.advantage == 0.0


@pytest.mark.parametrize("n", [0, 1024, 5000])
def test_adversaries_refuse_member_counts_the_universe_cannot_hold(n):
    u = Universe(1024)
    with pytest.raises(ParameterError, match="0 < n < universe size"):
        NullAdversary(u, n)
    with pytest.raises(ParameterError, match="0 < n < universe size"):
        RepresentationPredictionAdversary(FilterParams(m=32, k=3, n=4), u, n, expects_snapshot=False)


def test_key_leaking_reveal_exposes_key_bytes():
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(4096)
    rng = random.Random(1)
    members = frozenset(rng.sample(range(4096), 9))
    filt = key_leaking_filter_factory(params, u)(members, rng)
    blob = filt.reveal()
    assert blob[KEY_OFFSET:KEY_OFFSET + len(filt.prp.key)] == filt.prp.key
    assert all(filt.query(x) == 1 for x in members)


def test_key_leaking_insert_goes_through_the_permutation():
    params = FilterParams(m=256, k=3, n=4)
    u = Universe(4096)
    filt = key_leaking_filter_factory(params, u)(frozenset({1, 2, 3, 4}), random.Random(2))
    x = 1000
    filt.insert(x)
    assert filt.query(x) == 1
    assert filt.inner.query(filt.prp.encrypt(x)) == 1
    with pytest.raises(UnsupportedOperationError):
        NyFilter.build({1, 2}, params, b"static", u).insert(x)


def test_key_leak_distinguisher_has_large_advantage():
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=True)
    report = estimate_advantage(adv, key_leaking_filter_factory(params, u),
                                key_leaking_simulator_factory(params, u),
                                OracleBudget(inserts=0, queries=4, reveals=1), trials=300, seed=11)
    assert report.p_real > 0.95
    assert report.p_ideal < 0.25
    assert report.advantage > 0.6
    assert report.ci_lo > 0.5


def test_key_leak_trials_reuse_round_tables_only_within_the_real_world():
    """Per trial, the real world builds under a fresh key (a miss) and the
    adversary restores its snapshot under the same key (a hit); the ideal
    world's snapshot carries another fresh key (a miss)."""
    params, u = FilterParams(m=64, k=5, n=9), Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=True)
    _round_tables.cache_clear()
    estimate_advantage(adv, key_leaking_filter_factory(params, u), key_leaking_simulator_factory(params, u),
                       OracleBudget(inserts=0, queries=4, reveals=1), trials=20, seed=5)
    info = _round_tables.cache_info()
    assert (info.hits, info.misses) == (20, 40)


@pytest.mark.parametrize("size", [1 << 16, (1 << 16) + 1])
def test_key_leak_advantage_on_both_permutation_paths(size):
    """2**16 is the largest domain with tabulated rounds; one more element
    reads the rounds per call. The leaked key predicts positives on both."""
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(size)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=True)
    report = estimate_advantage(adv, key_leaking_filter_factory(params, u),
                                key_leaking_simulator_factory(params, u),
                                OracleBudget(inserts=0, queries=4, reveals=1), trials=200, seed=17)
    assert report.advantage >= 0.9


def test_public_hash_reveal_distinguishes_without_any_key():
    params = FilterParams(m=64, k=5, n=9)
    u = Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, n=9, expects_snapshot=False)
    report = estimate_advantage(adv, filter_factory(params, u), simulator_factory(params),
                                OracleBudget(inserts=0, queries=4, reveals=1),
                                trials=300, seed=13)
    assert report.advantage > 0.5


class _RecordingOracles:
    """Hands out one fixed reveal and records the queries, answering 1."""

    def __init__(self, blob):
        self.blob = blob
        self.queried = []

    def reveal(self):
        return self.blob

    def query(self, x):
        self.queried.append(x)
        return 1


def _public_indices(x: int, m: int, k: int) -> list[int]:
    """Public index i of x hashed from scratch: word i % 8 of the unkeyed
    64-byte blake2b digest of the pair (i // 8, x), reduced mod m."""
    words = []
    for b in range((k + 7) // 8):
        words += struct.unpack("<8Q", hashlib.blake2b(struct.pack("<QQ", b, x), digest_size=64).digest())
    return [w % m for w in words[:k]]


def _reference_scan(rng, members, bits, m, k, size, key):
    """The candidate a representation-prediction scan must pick: the first
    of MAX_SCAN draws that is not a member and whose public indices, of its
    permuted image when a key is given, are all set; None if there is none."""
    prp = FeistelPermutation(key, size) if key is not None else None
    for _ in range(MAX_SCAN):
        x = rng.randrange(size)
        if x in members:
            continue
        image = prp.encrypt(x) if prp is not None else x
        if all(bits[j >> 3] & (1 << (j & 7)) for j in _public_indices(image, m, k)):
            return x
    return None


@pytest.mark.parametrize("expects_snapshot", [True, False])
@pytest.mark.parametrize("world", ["real", "ideal"])
@pytest.mark.parametrize("m, k, n", [(64, 5, 9), (256, 4, 3), (40, 11, 6)])
def test_representation_prediction_matches_reference_scan(expects_snapshot, world, m, k, n):
    """The adversary queries exactly the candidate a from-scratch scan of the
    same draws picks, and draws exactly as often, on real and ideal reveals,
    over a universe of a power of two and one whose draws are redrawn."""
    params = FilterParams(m=m, k=k, n=n)
    for u, seed in itertools.product((Universe(4096), Universe(5000)), range(6)):
        adv = RepresentationPredictionAdversary(params, u, n, expects_snapshot=expects_snapshot)
        adv.begin(random.Random(seed))
        members = frozenset(adv.choose_set())
        world_rng = random.Random(1000 + seed)
        if world == "real":
            make = key_leaking_filter_factory(params, u) if expects_snapshot else filter_factory(params, u)
        else:
            make = key_leaking_simulator_factory(params, u) if expects_snapshot else simulator_factory(params)
        blob = make(members, world_rng).reveal()
        bits = blob[len(blob) - (m + 7) // 8:]
        key = blob[KEY_OFFSET:len(blob) - len(bits)] if expects_snapshot else None
        ref = random.Random()
        ref.setstate(adv.rng.getstate())
        expected = _reference_scan(ref, members, bits, m, k, u.size, key)
        oracles = _RecordingOracles(blob)
        assert adv.interact(oracles) == (0 if expected is None else 1)
        assert oracles.queried == ([] if expected is None else [expected])
        assert adv.rng.getstate() == ref.getstate()


@pytest.mark.parametrize("expects_snapshot", [True, False])
def test_representation_prediction_refused_reveal_draws_nothing(expects_snapshot):
    params, u = FilterParams(m=64, k=5, n=9), Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, 9, expects_snapshot=expects_snapshot)
    adv.begin(_CountingRandom(3))
    adv.choose_set()
    state, calls = adv.rng.getstate(), adv.rng.calls
    oracles = OracleSet(lambda x: 1, lambda x: None, lambda: b"", OracleBudget(inserts=0, queries=4, reveals=0))
    assert adv.interact(oracles) == 0
    assert adv.rng.calls == calls and adv.rng.getstate() == state
    assert oracles.remaining_queries == 4


def test_public_collision_adversary_refuses_a_raw_reveal_one_byte_short():
    """m = 60 bits pack into 8 bytes: 7 are refused, 8 are read."""
    params, u = FilterParams(m=60, k=5, n=9), Universe(5000)
    adv = RepresentationPredictionAdversary(params, u, 9, expects_snapshot=False)
    adv.begin(random.Random(1))
    adv.choose_set()
    budget = OracleBudget(inserts=0, queries=4, reveals=1)
    with pytest.raises(ParameterError, match="wrong length"):
        adv.interact(OracleSet(lambda x: 1, lambda x: None, lambda: bytes(7), budget))
    assert adv.interact(OracleSet(lambda x: 1, lambda x: None, lambda: b"\xff" * 7 + b"\x0f", budget)) == 1


@pytest.mark.parametrize("last, accepted", [(0x0F, True), (0x10, False)])
def test_public_collision_adversary_refuses_a_raw_reveal_setting_bits_past_m(last, accepted):
    """m = 60 uses the low four bits of the last byte; a reveal setting a
    higher one is refused, as a snapshot restore refuses it."""
    params, u = FilterParams(m=60, k=5, n=9), Universe(5000)
    adv = RepresentationPredictionAdversary(params, u, 9, expects_snapshot=False)
    adv.begin(random.Random(1))
    adv.choose_set()
    oracles = OracleSet(lambda x: 1, lambda x: None, lambda: b"\xff" * 7 + bytes([last]),
                        OracleBudget(inserts=0, queries=4, reveals=1))
    if accepted:
        assert adv.interact(oracles) == 1
    else:
        with pytest.raises(ParameterError, match="positions >= m"):
            adv.interact(oracles)


@pytest.mark.parametrize("expects_snapshot", [True, False])
def test_representation_prediction_gives_up_after_max_scan_on_empty_bits(expects_snapshot):
    """An all-zero bit array has no positive: the scan draws MAX_SCAN times,
    leaving the generator where MAX_SCAN draws of randrange(u) leave it,
    asks nothing and outputs 0."""
    params, u = FilterParams(m=64, k=5, n=9), Universe(4096)
    adv = RepresentationPredictionAdversary(params, u, 9, expects_snapshot=expects_snapshot)
    adv.begin(random.Random(4))
    adv.choose_set()
    ref = random.Random()
    ref.setstate(adv.rng.getstate())
    for _ in range(MAX_SCAN):
        ref.randrange(u.size)
    bits = bytes(8)
    oracles = _RecordingOracles(_pack_snapshot(u.size, 64, 5, KIND_NY, b"k" * 16, bits) if expects_snapshot else bits)
    assert adv.interact(oracles) == 0
    assert adv.rng.getstate() == ref.getstate()
    assert oracles.queried == []


def test_wrapped_saturation_attack_wins_real_world():
    u = Universe(65536)
    params = FilterParams(m=4, k=3, n=20)
    cfg = GameConfig(universe=u, n=20, t=4, threshold=0.5)
    wrapper = ab_to_filic_adversary(SaturationAdversary(), cfg)
    budget = OracleBudget(inserts=0, queries=cfg.t + 1, reveals=0)
    hits = sum(run_real(wrapper, filter_factory(params, u), budget,
                        seed=mix_seed(101, "wrap", i)) for i in range(100))
    assert hits >= 95


def test_wrapped_uniform_adversary_matches_ab_harness():
    u = Universe(1024)
    params = FilterParams(m=32, k=2, n=8)
    cfg = GameConfig(universe=u, n=8, t=3, threshold=0.5)
    trials = 800
    ab = run_ab_experiment(lambda members, rng: filter_factory(params, u)(members, rng),
                           UniformAdversary(), cfg, trials, seed=17)
    wrapper = ab_to_filic_adversary(UniformAdversary(), cfg)
    budget = OracleBudget(inserts=0, queries=cfg.t + 1, reveals=0)
    hits = sum(run_real(wrapper, filter_factory(params, u), budget,
                        seed=mix_seed(19, "wrap", i)) for i in range(trials))
    lo, hi = wilson_interval(hits, trials)
    assert lo <= ab.win_rate <= hi  # both harnesses estimate the same rate


def test_wrapped_adversary_insufficient_budget_outputs_zero():
    u = Universe(65536)
    params = FilterParams(m=4, k=3, n=20)
    cfg = GameConfig(universe=u, n=20, t=4, threshold=0.5)
    wrapper = ab_to_filic_adversary(SaturationAdversary(), cfg)
    bit = run_real(wrapper, filter_factory(params, u),
                   OracleBudget(inserts=0, queries=1, reveals=0), seed=23)
    assert bit == 0


@pytest.mark.parametrize("budget", [(-1, 0, 0), (0, -1, 0), (0, 0, -1)])
def test_oracle_budget_refuses_a_negative_count(budget):
    with pytest.raises(ParameterError, match=r"^budgets must be >= 0$"):
        OracleBudget(*budget)


@pytest.mark.parametrize("budget, name, kind", [((0, 1.5, 0), "queries", "float"),
                                                ((True, 0, 0), "inserts", "bool"),
                                                ((0, 0, 1.0), "reveals", "float")])
def test_oracle_budget_refuses_a_count_that_is_not_an_int(budget, name, kind):
    """A float budget would allow a call more than it says: 1.5 queries allow two."""
    with pytest.raises(ParameterError, match=rf"^{name} must be an int, not {kind}$"):
        OracleBudget(*budget)
