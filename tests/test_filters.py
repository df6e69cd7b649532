"""Core filter behavior: hashing, building, querying, serialization."""

import copy
import hashlib
import math
import pickle
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from bloomlab.errors import DomainError, ParameterError, UnsupportedOperationError
from bloomlab.feistel import ROUNDS, FeistelPermutation, _round_tables
from bloomlab.filic import KeyLeakingFilter
from bloomlab.filters import (
    FORMAT_VERSION,
    KEY_OFFSET,
    KEYED_PRF,
    KIND_NY,
    KIND_PRF,
    KIND_STANDARD,
    MAGIC,
    PUBLIC,
    TRUE_RANDOM,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    _CHECKED,
    _CHECKED_MAX,
    _PUBLIC_INDICES,
    _RUN,
    _TABLE_CAP,
    _member_words,
    _memo_fill,
    _pack_snapshot,
    _popcount,
    _sample_positive,
    estimate_fpr,
    expected_fpr,
    fresh_family,
    optimal_k,
)
from bloomlab.stats import DrawStream, mix_seed


def test_params_validation():
    with pytest.raises(ParameterError):
        FilterParams(m=0, k=1, n=1)
    with pytest.raises(ParameterError):
        FilterParams(m=8, k=0, n=1)
    with pytest.raises(ParameterError):
        FilterParams(m=8, k=1, n=-1)
    with pytest.raises(ParameterError):
        FilterParams.from_target(n=1, epsilon=1.5)
    FilterParams(m=1, k=1, n=0)


def test_optimal_k_and_sizing():
    assert optimal_k(1024, 100) == 7
    assert optimal_k(1, 100) == 1  # clamped
    params = FilterParams.from_target(100, 0.01)
    assert params.m == math.ceil(-100 * math.log(0.01) / math.log(2) ** 2)
    assert params.k == optimal_k(params.m, 100)
    assert expected_fpr(params) <= 0.011


def test_universe_validation():
    u = Universe(16)
    assert u.contains(0) and u.contains(15)
    assert not u.contains(16) and not u.contains(-1) and not u.contains("3")
    with pytest.raises(DomainError):
        u.require(16)
    with pytest.raises(ParameterError):
        Universe(0)


def test_indices_deterministic_and_in_range():
    params = FilterParams(m=97, k=5, n=10)
    for family in (HashFamily.public(), HashFamily.keyed(b"secret")):
        a = family.indices(42, params.m, params.k)
        b = family.indices(42, params.m, params.k)
        assert a == b
        assert len(a) == 5
        assert all(0 <= j < 97 for j in a)


def test_keyed_families_differ_and_public_is_keyless():
    params = FilterParams(m=1024, k=4, n=10)
    fam1 = HashFamily.keyed(b"k1")
    fam2 = HashFamily.keyed(b"k2")
    pub = HashFamily.public()
    sample = range(200)
    assert any(fam1.indices(x, params.m, params.k) != fam2.indices(x, params.m, params.k) for x in sample)
    assert any(fam1.indices(x, params.m, params.k) != pub.indices(x, params.m, params.k) for x in sample)
    assert pub.key == b""
    with pytest.raises(ParameterError):
        HashFamily(mode=PUBLIC, key=b"k")


def test_keys_longer_than_blake2b_allows_are_refused_at_construction():
    u = Universe(512)
    params = FilterParams(m=32, k=2, n=1)
    assert BloomFilter.build({1}, params, HashFamily.keyed(b"x" * 64), u).query(1) == 1
    perm = FeistelPermutation(b"x" * 64, 512)
    assert perm.decrypt(perm.encrypt(7)) == 7
    assert HashFamily.true_random(seed=b"x" * 64).indices(1, 32, 2)
    for make in (lambda: HashFamily.keyed(b"x" * 65),
                 lambda: HashFamily.true_random(seed=b"x" * 65),
                 lambda: FeistelPermutation(b"x" * 65, 512),
                 lambda: NyFilter.build({1}, params, b"x" * 65, u)):
        with pytest.raises(ParameterError, match="64 bytes"):
            make()


def test_true_random_memoizes_and_locks_shape():
    fam = HashFamily.true_random(seed=7)
    first = fam.indices(5, 32, 3)
    assert fam.indices(5, 32, 3) == first
    assert all(0 <= j < 32 for j in first)
    with pytest.raises(ParameterError):
        fam.indices(5, 64, 3)


def test_true_random_same_seed_same_draw_order():
    a = HashFamily.true_random(seed=123)
    b = HashFamily.true_random(seed=123)
    for x in (9, 2, 77, 9):
        assert a.indices(x, 16, 2) == b.indices(x, 16, 2)


def test_same_seeded_families_compare_by_stream_position():
    a, b = HashFamily.true_random(seed=b"x"), HashFamily.true_random(seed=b"x")
    assert a == b and a != HashFamily.true_random(seed=b"y")
    a.indices(1, 64, 3)
    assert a != b  # a has drawn: other memo, other stream position
    b.indices(1, 64, 3)
    assert a == b
    b.memo.clear()
    assert a != b  # same stream position, other memo
    a.memo.clear()
    a._stream.read(1)
    assert a != b  # same memo, other stream position
    assert HashFamily.public() == HashFamily.public()
    assert HashFamily.keyed(b"k") == HashFamily.keyed(b"k") != HashFamily.keyed(b"j")


@pytest.mark.parametrize("m, k", [(8, 3), (37, 2), (1000, 4), (70000, 7)])
def test_true_random_family_copies_and_pickles_partway_through_its_stream(m, k):
    """A family that has drawn survives ``copy.deepcopy`` and ``pickle``: the
    copy compares equal, at the same stream position, and draws what the
    original draws next."""
    family = HashFamily.true_random(seed=b"partway")
    for x in range(5):
        family.indices(x, m, k)
    assert 0 < family._stream.position
    twins = copy.deepcopy(family), pickle.loads(pickle.dumps(family))
    for twin in twins:
        assert twin == family and twin._stream.position == family._stream.position
    ahead = [family.indices(x, m, k) for x in range(5, 30)]
    for twin in twins:
        assert [twin.indices(x, m, k) for x in range(5, 30)] == ahead
        assert twin == family


@pytest.mark.parametrize("u", [4096, 65537])
@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
@pytest.mark.parametrize("wrapped", [False, True], ids=["bloom", "ny"])
def test_filters_copy_and_pickle_after_building_and_querying(wrapped, mode, u):
    """A filter that has built and answered queries survives ``copy.deepcopy``
    and ``pickle``, its family's blake2b states and, at u = 65537, the
    permutation's per-call rounds included: each copy answers every probe as
    the original does, and a true-random copy draws what the original draws."""
    universe, params = Universe(u), FilterParams(m=512, k=3, n=20)
    family = _family(mode, b"copies")
    if wrapped:
        filt = NyFilter.build(range(0, 2000, 100), params, b"prp", universe, family=family)
    else:
        filt = BloomFilter.build(range(0, 2000, 100), params, family, universe)
    assert all(filt.query(x) for x in range(0, 2000, 100)) and not all(map(filt.query, range(600)))
    twins = copy.deepcopy(filt), pickle.loads(pickle.dumps(filt))
    probes = range(0, u, 1 if u <= 4096 else 7)
    expected = [filt.query(x) for x in probes]
    for twin in twins:
        assert [twin.query(x) for x in probes] == expected
        assert twin.params == filt.params and getattr(twin, "inner", twin).family == family


def _reference_round(key: bytes, i: int, r: int, half: int) -> int:
    """Feistel round i of the half-block r, hashed from scratch: field r of
    the keystream blake2b(<Q>(i) || <Q>(b), key) for b = 0, 1, ..., read as
    little-endian fields of w bytes (the smallest of 1, 2, 4, 8 with 8w >= half)
    and masked to half bits."""
    w = min(w for w in (1, 2, 4, 8) if 8 * w >= half)
    b, at = divmod(r * w, 64)
    digest = hashlib.blake2b(struct.pack("<QQ", i, b), key=key, digest_size=64).digest()
    return int.from_bytes(digest[at:at + w], "little") & ((1 << half) - 1)


def _reference_encrypt(key: bytes, size: int):
    """x -> its image under a four-round Feistel network built from scratch
    out of :func:`_reference_round`, cycle-walked back into [0, size)."""
    width = max((size - 1).bit_length(), 2)
    width += width % 2
    half, mask = width // 2, (1 << (width // 2)) - 1
    rounds = [{} for _ in range(ROUNDS)]

    def block(v):
        left, right = v >> half, v & mask
        for i, seen in enumerate(rounds):
            if right not in seen:
                seen[right] = _reference_round(key, i, right, half)
            left, right = right, left ^ seen[right]
        return (left << half) | right

    def encrypt(x):
        y = block(x)
        while y >= size:
            y = block(y)
        return y

    return encrypt


def _reference_indices(key: bytes, x: int, m: int, k: int) -> tuple[int, ...]:
    """Index i of x hashed from scratch, without cached states: word i % 8 of
    the 64-byte digest of the pair (i // 8, x), reduced mod m."""
    blocks = [
        struct.unpack("<8Q", hashlib.blake2b(struct.pack("<QQ", b, x), key=key, digest_size=64).digest())
        for b in range((k + 7) // 8)
    ]
    return tuple(blocks[i // 8][i % 8] % m for i in range(k))


@settings(max_examples=200, deadline=None)
@given(
    key=st.one_of(st.none(), st.binary(min_size=1, max_size=64)),
    x=st.integers(0, (1 << 64) - 1),
    m=st.one_of(st.integers(1, 64), st.integers(65, 1 << 20)),
    k=st.integers(1, 20),
    data=st.data(),
)
def test_indices_match_reference_formula_and_stop_at_first_clear_bit(key, x, m, k, data):
    family = HashFamily.public() if key is None else HashFamily.keyed(key)
    expected = _reference_indices(family.key, x, m, k)
    assert family.indices(x, m, k) == expected
    # Index i does not depend on k; the longer shape grows the cached block states.
    longest = family.indices(x, m, 20)
    assert longest == _reference_indices(family.key, x, m, 20)
    assert longest[:k] == expected

    # Any subset of x's bits set, so the first clear one falls at every
    # position and in every block: query answers 1 exactly when none is clear.
    filt = BloomFilter(FilterParams(m=m, k=k, n=0), family, Universe(1 << 64))
    for j, on in zip(expected, data.draw(st.lists(st.booleans(), min_size=k, max_size=k))):
        if on:
            filt._flags[j] = 1
    assert filt.query(x) == all(filt._flags[j] for j in expected)
    filt._flags[:] = b"\1" * m
    assert filt.query(x) == 1

    # A public query over a universe of u*k <= 2**15 reads all k indices from
    # its shape's process-wide table: cold, then warm, for this shape and for
    # one of three blocks that shares the element. A miss hashes every block.
    if key is None:
        u = Universe(_TABLE_CAP // 20)
        y = x % u.size
        for shape in ((m, k), (m + 1, 20)):
            expected = _reference_indices(b"", y, *shape)
            _PUBLIC_INDICES.get(shape, {}).pop(y, None)  # cold whatever ran before
            filt = BloomFilter(FilterParams(m=shape[0], k=shape[1], n=0), family, u)
            for _ in ("cold", "warm"):
                filt._flags[:] = bytes(shape[0])
                for j, on in zip(expected, data.draw(st.lists(st.booleans(), min_size=shape[1],
                                                              max_size=shape[1]))):
                    if on:
                        filt._flags[j] = 1
                assert filt.query(y) == all(filt._flags[j] for j in expected)
            assert _PUBLIC_INDICES[shape][y] == expected


def _tables():
    return {shape: dict(table) for shape, table in _PUBLIC_INDICES.items()}


def test_public_table_fills_only_under_the_gate_and_holds_at_most_u_entries():
    """Public queries over every element of a universe at u*k = 2**15 leave
    at most u entries, 2**15 indices, in their shape's table. One element
    past the gate, or with a keyed or true-random family, they leave every
    table as it was."""
    m, k = 61, 8
    u = Universe(_TABLE_CAP // k)
    filt = BloomFilter.build(range(0, u.size, 7), FilterParams(m=m, k=k, n=0), HashFamily.public(), u)
    answers = [filt.query(x) for x in range(u.size)]
    table = _PUBLIC_INDICES[(m, k)]
    assert len(table) == u.size and sum(map(len, table.values())) == _TABLE_CAP
    assert answers == [filt.query(x) for x in range(u.size)]

    before = _tables()
    past = Universe(u.size + 1)
    for family in (HashFamily.public(), HashFamily.keyed(b"k"), HashFamily.true_random(seed=1)):
        for universe in (past, Universe(64)) if family.mode != PUBLIC else (past,):
            filt = BloomFilter.build(range(0, 64, 7), FilterParams(m=m, k=k, n=0), family, universe)
            expected = [all(filt._flags[j] for j in family.indices(x, m, k))
                        for x in range(universe.size)]
            assert [filt.query(x) for x in range(universe.size)] == expected
    assert _tables() == before


def test_true_random_indices_ignore_bits():
    """An unsaturated true-random filter draws the same stream whatever its
    bits: an empty filter and one with every bit but the last set draw all
    k indices of each miss, though the empty one's first index answers 0."""
    u = Universe(64)
    empty, dense = (BloomFilter._over_bits(32, 4, HashFamily.true_random(seed=5), u, KIND_STANDARD, bits)
                    for bits in (bytes(4), b"\xff\xff\xff\x7f"))
    assert (empty.popcount(), dense.popcount()) == (0, 31)
    for x in (3, 9, 3, 1):
        assert empty.query(x) == 0
        assert dense.query(x) == (31 not in dense.family.memo[x])
        assert empty.family.memo == dense.family.memo
        assert empty.family._stream.position == dense.family._stream.position


@settings(max_examples=150, deadline=None)
@given(
    key=st.one_of(st.none(), st.binary(min_size=1, max_size=64)),
    m=st.one_of(st.integers(1, 64), st.integers(65, 1 << 20), st.integers(0, 20).map(lambda e: 1 << e)),
    k=st.integers(1, 20),
    members=st.lists(st.integers(0, (1 << 64) - 1), max_size=40),
    probes=st.lists(st.integers(0, (1 << 64) - 1), max_size=40),
)
def test_query_matches_reference_indices_on_built_filters(key, m, k, members, probes):
    """Build sets exactly the reference bits, and query(x) is 1 exactly when
    every reference bit of x is set."""
    family = HashFamily.public() if key is None else HashFamily.keyed(key)
    filt = BloomFilter.build(members, FilterParams(m=m, k=k, n=len(members)), family, Universe(1 << 64))
    reference = bytearray((m + 7) // 8)
    for x in members:
        for j in _reference_indices(family.key, x, m, k):
            reference[j >> 3] |= 1 << (j & 7)
    assert filt.bit_bytes() == bytes(reference)
    for x in members + probes:
        expected = all(reference[j >> 3] & (1 << (j & 7)) for j in _reference_indices(family.key, x, m, k))
        assert filt.query(x) == expected


@settings(max_examples=60, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=16),
    m=st.one_of(st.integers(1, 64), st.integers(65, 1 << 20)),
    k=st.integers(1, 20),
    members=st.lists(st.integers(0, 255), max_size=30),
    probes=st.lists(st.integers(0, 255), max_size=30),
)
@example(key=b"s", m=4, k=3, members=list(range(20)), probes=list(range(20, 60)))
def test_true_random_query_matches_all_indices_and_keeps_memo(key, m, k, members, probes):
    """Every answer is the AND of x's k indices. An unsaturated filter memoizes
    them on the query, so deriving them afterwards draws nothing; a saturated
    one answers 1 and leaves the memo and the stream position as they were."""
    family = HashFamily.true_random(seed=key)
    filt = BloomFilter.build(members, FilterParams(m=m, k=k, n=len(members)), family, Universe(256))
    bits = filt.bit_bytes()
    saturated = filt.is_saturated()
    for x in members + probes:
        before = dict(family.memo), family._stream.position
        answer = filt.query(x)
        memo, position = dict(family.memo), family._stream.position
        if saturated:
            assert answer == 1 and (memo, position) == before
        assert answer == all(bits[j >> 3] & (1 << (j & 7)) for j in family.indices(x, m, k))
        if not saturated:
            assert family.memo == memo and family._stream.position == position


def test_saturated_true_random_query_answers_a_miss_without_drawing():
    family = HashFamily.true_random(seed=3)
    filt = BloomFilter.build(range(40), FilterParams(m=8, k=3, n=40), family, Universe(1 << 16))
    assert filt.is_saturated()
    memo, position = dict(family.memo), family._stream.position
    for x in (40, 41, 1000, 40):
        assert x not in family.memo
        assert filt.query(x) == 1
    assert family.memo == memo and family._stream.position == position


@pytest.mark.parametrize("m", [1, 8, 37, 64, 1 << 20])
def test_unsaturated_true_random_query_draws_k_stream_values(m):
    k = 3
    family = HashFamily.true_random(seed=8)
    filt = BloomFilter.build([], FilterParams(m=m, k=k, n=0), family, Universe(64))
    family.indices(5, m, k)  # the stream is past its first draws
    reference = copy.copy(family._stream)
    assert filt.query(63) == 0
    assert family.memo[63] == tuple(reference.below(m, k))
    assert family._stream == reference


def test_standard_true_random_filter_stops_drawing_from_the_saturating_insert():
    family = HashFamily.true_random(seed=9)
    filt = BloomFilter(FilterParams(m=8, k=3, n=0), family, Universe(1 << 16), kind=KIND_STANDARD)
    probes, x = iter(range(1000, 2000)), 0
    while not filt.is_saturated():
        position = family._stream.position
        filt.query(next(probes))
        assert family._stream.position > position
        filt.insert(x)
        x += 1
    for p in list(probes)[:50]:
        memo, position = dict(family.memo), family._stream.position
        assert filt.query(p) == 1
        assert family.memo == memo and family._stream.position == position


@pytest.mark.parametrize("m, saturated", [(8, True), (64, False)])
def test_ny_filter_over_true_random_matches_inner_query_in_lockstep(m, saturated):
    universe, members = Universe(256), range(0, 256, 9)
    params = FilterParams(m=m, k=3, n=len(members))
    ny, twin = (NyFilter.build(members, params, b"prp", universe, family=HashFamily.true_random(seed=4))
                for _ in range(2))
    assert ny.is_saturated() is saturated
    for x in [*range(256), *range(256)]:
        assert ny.query(x) == twin.inner.query(twin.prp.encrypt(x))
        assert ny.inner.family == twin.inner.family


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(min_size=1, max_size=16),
    m=st.one_of(st.integers(1, 1 << 20), st.integers(0, 20).map(lambda e: 1 << e)),
    k=st.integers(1, 20),
    xs=st.lists(st.integers(0, 63), min_size=1, max_size=12),
)
def test_true_random_indices_match_the_keyed_stream(key, m, k, xs):
    """The family draws each index as one draw below m of the stream keyed by
    its key and personalised ``b"true-random"`` would, in order, element by
    element; repeats come from the memo."""
    family = HashFamily.true_random(seed=key)
    reference = DrawStream(key, b"true-random")
    expected = {}
    for x in xs:
        if x not in expected:
            expected[x] = tuple(reference.below(m, 1)[0] for _ in range(k))
        assert family.indices(x, m, k) == expected[x]
    assert family._stream == reference


def test_keyed_prf_indices_uniform_chi_square():
    """Each of the k index positions should be uniform on [0, m)."""
    m, k, samples = 1024, 7, 100_000
    params = FilterParams(m=m, k=k, n=100)
    family = HashFamily.keyed(b"uniformity-check-key")
    counts = [[0] * m for _ in range(k)]
    for x in range(samples):
        for i, j in enumerate(family.indices(x, params.m, params.k)):
            counts[i][j] += 1
    expected = samples / m
    critical = chi2.ppf(0.999, m - 1)
    for i in range(k):
        stat = sum((c - expected) ** 2 / expected for c in counts[i])
        assert stat < critical, f"index position {i} fails uniformity: {stat} >= {critical}"


def test_build_empty_and_membership():
    params = FilterParams(m=64, k=3, n=0)
    u = Universe(256)
    empty = BloomFilter.build([], params, HashFamily.public(), u)
    assert empty.popcount() == 0
    assert all(empty.query(x) == 0 for x in range(256))
    members = {3, 77, 200}
    filt = BloomFilter.build(members, FilterParams(m=64, k=3, n=3), HashFamily.keyed(b"x"), u)
    assert all(filt.query(x) == 1 for x in members)
    assert 1 <= filt.popcount() <= 9


def _family(mode: str, key: bytes) -> HashFamily:
    if mode == PUBLIC:
        return HashFamily.public()
    if mode == KEYED_PRF:
        return HashFamily.keyed(key)
    return HashFamily.true_random(seed=key)


@settings(max_examples=100, deadline=None)
@given(
    mode=st.sampled_from([PUBLIC, KEYED_PRF, TRUE_RANDOM]),
    key=st.binary(max_size=16),
    members=st.sets(st.integers(0, 4095), max_size=40),
    m=st.one_of(st.integers(1, 300), st.integers(1 << 12, 1 << 20)),
    k=st.integers(1, 20),
)
# Ten keyed members at the block boundaries k = 8, 9, 16, 17, each at an m
# that is a multiple of 8 and at the odd m after it.
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=1280, k=8)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=1281, k=8)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=1440, k=9)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=1441, k=9)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=2560, k=16)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=2561, k=16)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=2720, k=17)
@example(mode=KEYED_PRF, key=b"edge", members=set(range(10)), m=2721, k=17)
@example(mode=PUBLIC, key=b"", members=set(), m=1, k=1)
@example(mode=KEYED_PRF, key=b"empty", members=set(), m=1 << 20, k=9)
# More members than build hashes together in one run, at a small and a large m.
@example(mode=PUBLIC, key=b"", members=set(range(0, 4096, 2)), m=1 << 16, k=9)
@example(mode=PUBLIC, key=b"", members=set(range(0, 4096, 2)), m=1 << 20, k=9)
def test_build_matches_inserting_sorted_members(mode, key, members, m, k):
    params = FilterParams(m=m, k=k, n=len(members))
    u = Universe(4096)
    built = BloomFilter.build(members, params, _family(mode, key), u)
    one_by_one = BloomFilter(params, _family(mode, key), u, kind=KIND_STANDARD)
    for x in sorted(members):
        one_by_one.insert(x)
    assert built.bit_bytes() == one_by_one.bit_bytes()
    assert built.popcount() == one_by_one.popcount()
    if mode == TRUE_RANDOM:
        assert built.family.memo == one_by_one.family.memo


@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
@pytest.mark.parametrize("n, k, m", [
    (10, 7, 1120), (10, 7, 1121), (10, 7, 1 << 20), (9363, 7, 1 << 20),
])
def test_build_popcount_counts_the_set_bits(mode, n, k, m):
    members = random.Random(n).sample(range(1 << 20), n)
    filt = BloomFilter.build(members, FilterParams(m=m, k=k, n=n), _family(mode, b"count"),
                             Universe(1 << 20))
    assert 0 < filt.popcount() == _popcount(filt.bit_bytes())


def test_build_rejects_elements_outside_universe():
    params = FilterParams(m=16, k=2, n=1)
    with pytest.raises(DomainError):
        BloomFilter.build({99}, params, HashFamily.public(), Universe(10))


def test_mean_fill_ratio_matches_expectation():
    """Average fill over seeded builds against the exact closed form."""
    m, k, n, builds = 1024, 7, 100, 400
    params = FilterParams(m=m, k=k, n=n)
    u = Universe(1 << 16)
    exact = 1.0 - (1.0 - 1.0 / m) ** (k * n)
    fills = []
    for b in range(builds):
        rng = random.Random(b)
        members = rng.sample(range(u.size), n)
        filt = BloomFilter.build(members, params, HashFamily.keyed(rng.randbytes(8)), u)
        fills.append(filt.fill_ratio())
    mean = math.fsum(fills) / builds
    sd = math.sqrt(math.fsum((f - mean) ** 2 for f in fills) / (builds - 1))
    assert abs(mean - exact) < 3 * sd / math.sqrt(builds) + 1e-4
    assert abs(exact - (1.0 - math.exp(-k * n / m))) < 2e-4


def test_fpr_monte_carlo_matches_closed_form():
    params = FilterParams(m=1024, k=7, n=100)
    est = estimate_fpr(params, Universe(1 << 20), "public", builds=20, queries=40_000, seed=9)
    assert abs(est.rate - est.expected) < 0.002
    assert est.ci_lo <= est.rate <= est.ci_hi


def test_fresh_family_refuses_an_unknown_mode_before_drawing():
    rng = random.Random(5)
    state = rng.getstate()
    with pytest.raises(ParameterError, match="unknown hash mode 'no-such-mode'"):
        fresh_family("no-such-mode", rng)
    assert rng.getstate() == state


@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
def test_fresh_family_keys_with_sixteen_drawn_bytes_except_public(mode):
    rng, twin = random.Random(9), random.Random(9)
    family = fresh_family(mode, rng)
    assert family == HashFamily(mode, b"" if mode == PUBLIC else twin.randbytes(16))
    assert rng.getstate() == twin.getstate()


class _RecordingRandom(random.Random):
    """The plain ``Random`` stream; while ``log`` is a list it records every
    ``getrandbits`` result."""

    log = None

    def getrandbits(self, k):
        r = super().getrandbits(k)
        if self.log is not None:
            self.log.append(r)
        return r


@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
@pytest.mark.parametrize("size, n", [(37, 30), (64, 50)])
def test_estimate_fpr_draws_match_sample_outside(monkeypatch, mode, size, n):
    """estimate_fpr queries, draw for draw, what Universe.sample_outside
    returns on the same generator. Most elements are members, and draws are
    size.bit_length() bits wide, so both rejections happen; 37 is not a power
    of two, and at 64 the width differs from (size - 1).bit_length()."""
    universe, params = Universe(size), FilterParams(m=64, k=3, n=n)
    seed, builds, queries = 11, 3, 90
    queried = []
    query = BloomFilter.query
    monkeypatch.setattr(BloomFilter, "query", lambda self, x: queried.append(x) or query(self, x))
    est = estimate_fpr(params, universe, mode, builds, queries, seed)

    expected, out_of_range, member_redraws = [], 0, 0
    for b in range(builds):
        rng = _RecordingRandom(mix_seed(seed, "fpr-build", b))
        members = set(rng.sample(range(universe.size), params.n))
        fresh_family(mode, rng)
        rng.log = []
        expected += [universe.sample_outside(rng, members) for _ in range(queries // builds)]
        out_of_range += sum(r >= universe.size for r in rng.log)
        member_redraws += sum(r in members for r in rng.log)
    assert queried == expected
    assert est.queries == len(expected)
    assert out_of_range and member_redraws


def _setsize(n: int) -> int:
    """The population size up to which CPython's Random.sample draws from a
    pool list rather than keeping a set of the selected indices."""
    return 21 + 4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 21


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1 << 64), size=st.integers(1, 1 << 21), data=st.data())
@example(seed=1, size=21, data=None)    # n <= 5: the switch lies at 21
@example(seed=2, size=22, data=None)
@example(seed=3, size=1045, data=None)  # n = 300: at 21 + 4**5
@example(seed=4, size=1046, data=None)
@example(seed=5, size=1 << 21, data=None)
def test_universe_sample_matches_random_sample(seed, size, data):
    """Universe.sample returns Random.sample's list over range(size) and
    leaves the generator where Random.sample leaves it, on both sides of the
    pool/set switch."""
    top = min(size, 300)
    ns = [data.draw(st.integers(0, top))] if data is not None else sorted({0, 1, 5, 6, top // 2, top})
    for n in ns:
        ours, ref = random.Random(seed), random.Random(seed)
        assert Universe(size).sample(ours, n) == ref.sample(range(size), n)
        assert ours.getstate() == ref.getstate()


def test_universe_sample_matches_random_sample_at_every_switch():
    """Each n from 0 to 300 at the sizes around its switch (a size of at least n)."""
    for n in range(301):
        for size in range(max(1, n, _setsize(n) - 1), _setsize(n) + 3):
            ours, ref = random.Random(n * 7 + size), random.Random(n * 7 + size)
            assert Universe(size).sample(ours, n) == ref.sample(range(size), n), (n, size)
            assert ours.getstate() == ref.getstate(), (n, size)


def test_universe_sample_refuses_what_random_sample_refuses():
    for n in (-1, 65, 1000):
        with pytest.raises(ValueError):
            Universe(64).sample(random.Random(0), n)
    with pytest.raises(ValueError):
        Universe(1 << 20).sample(random.Random(0), -1)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 1 << 64), size=st.integers(1, 1 << 21), data=st.data())
@example(seed=6, size=37, data=None)
@example(seed=7, size=64, data=None)
def test_sample_outside_matches_randrange_redrawn_while_excluded(seed, size, data):
    """Three draws from one generator, each randrange(size) redrawn while
    excluded, with most of a small universe excluded so both redraws happen."""
    if data is None:
        excluded = set(range(0, size, 2)) | {size - 1}
    else:
        excluded = data.draw(st.sets(st.integers(0, size - 1), max_size=min(size - 1, 60)))
    ours, ref = random.Random(seed), random.Random(seed)
    for _ in range(3):
        expected = ref.randrange(size)
        while expected in excluded:
            expected = ref.randrange(size)
        assert Universe(size).sample_outside(ours, excluded) == expected
        assert ours.getstate() == ref.getstate()


class _CountingRandom(random.Random):
    """A Random subclass that counts its sample and randrange calls."""

    def __init__(self, seed):
        super().__init__(seed)
        self.calls = {"sample": 0, "randrange": 0}

    def sample(self, population, k, **kwargs):
        self.calls["sample"] += 1
        return super().sample(population, k, **kwargs)

    def randrange(self, *args):
        self.calls["randrange"] += 1
        return super().randrange(*args)


def test_random_subclasses_draw_the_stream_of_an_exact_random():
    """A Random subclass that overrides sample and randrange is drawn from
    by getrandbits, as an exact Random is: the same elements, the generator
    left in the same state, and neither override called."""
    from bloomlab.games import GameConfig, UniformAdversary

    u = Universe(1 << 16)
    counting, plain = _CountingRandom(3), random.Random(3)
    assert u.sample(counting, 20) == u.sample(plain, 20)
    assert u.sample_outside(counting, {1, 2}) == u.sample_outside(plain, {1, 2})
    assert counting.getstate() == plain.getstate()

    played = []
    for rng in (counting, plain):
        adversary = UniformAdversary()
        adversary.begin(GameConfig(universe=u, n=20, t=2, threshold=0.5), rng)
        played.append((adversary.choose_set(), adversary.next_query([])))
    assert played[0] == played[1] and counting.getstate() == plain.getstate()
    assert counting.calls == {"sample": 0, "randrange": 0}


def test_refused_true_random_build_leaves_the_family_unchanged():
    """Every member is checked before the first draw: after a refused build
    the family is as it was, and a retry matches a fresh family bit for bit."""
    params, u = FilterParams(m=64, k=3, n=4), Universe(100)
    family = HashFamily.true_random(seed=7)
    with pytest.raises(DomainError):
        BloomFilter.build({1, 2, 3, 500}, params, family, u)
    assert family.memo == {} and family._shape is None and family._stream.position == 0
    retry = BloomFilter.build({1, 2, 3, 50}, params, family, u)
    fresh = BloomFilter.build({1, 2, 3, 50}, params, HashFamily.true_random(seed=7), u)
    assert retry.bit_bytes() == fresh.bit_bytes()
    assert (family.memo, family._shape) == (fresh.family.memo, fresh.family._shape)
    assert family._stream.position == fresh.family._stream.position > 0


def test_true_random_filter_binds_its_shape_at_construction():
    family = HashFamily.true_random(seed=8)
    BloomFilter(FilterParams(m=64, k=3, n=0), family, Universe(100))
    assert family._shape == (64, 3)
    with pytest.raises(ParameterError):
        BloomFilter(FilterParams(m=64, k=4, n=0), family, Universe(100))


@pytest.mark.parametrize("n, k, m", [
    (10, 7, 1120), (10, 7, 1121), (10, 7, 1 << 20), (9363, 7, 1 << 20), (300, 3, 8),
])
def test_true_random_build_matches_inserting_sorted_members(n, k, m):
    """True-random builds with few and many draws per bit up to m = 2**20, on a family whose
    memo already holds some members and non-members: the bits, popcount,
    memo and stream position of inserting the sorted members one by one."""
    members = random.Random(n).sample(range(1 << 20), n)
    seen = members[::3] + [-1 - x for x in range(5)]
    u, params = Universe(1 << 20), FilterParams(m=m, k=k, n=n)
    families = HashFamily.true_random(seed=b"bulk"), HashFamily.true_random(seed=b"bulk")
    for family in families:
        for x in seen:
            family.indices(abs(x), m, k)
    built = BloomFilter.build(members, params, families[0], u)
    one_by_one = BloomFilter(params, families[1], u, kind=KIND_STANDARD)
    for x in sorted(members):
        one_by_one.insert(x)
    assert built.bit_bytes() == one_by_one.bit_bytes()
    assert built.popcount() == one_by_one.popcount() == _popcount(built.bit_bytes())
    assert families[0].memo == families[1].memo
    assert families[0]._stream.position == families[1]._stream.position
    assert families[0] == families[1]


def test_insert_grows_membership_never_shrinks():
    params = FilterParams(m=16, k=2, n=0)
    u = Universe(512)
    filt = BloomFilter(params, HashFamily.public(), u)
    rng = random.Random(4)
    positives = set()
    for _ in range(300):
        probe = rng.randrange(512)
        if filt.query(probe):
            positives.add(probe)
        filt.insert(rng.randrange(512))
        assert all(filt.query(p) == 1 for p in positives)


def test_insert_idempotent_bits():
    params = FilterParams(m=64, k=3, n=2)
    u = Universe(64)
    filt = BloomFilter.build({5}, params, HashFamily.public(), u)
    before = filt.bit_bytes()
    filt.insert(5)
    assert filt.bit_bytes() == before


def test_static_kinds_refuse_insert():
    u = Universe(64)
    params = FilterParams(m=32, k=2, n=4)
    prf = BloomFilter.build({1, 2}, params, HashFamily.keyed(b"k"), u)
    with pytest.raises(UnsupportedOperationError):
        prf.insert(3)
    ny = NyFilter.build({1, 2}, params, b"pk", u)
    with pytest.raises(UnsupportedOperationError):
        ny.insert(3)


def test_query_is_steady():
    u = Universe(128)
    params = FilterParams(m=32, k=2, n=4)
    for fam in (HashFamily.public(), HashFamily.true_random(seed=3)):
        filt = BloomFilter.build({1, 2, 3}, params, fam, u)
        before = filt.bit_bytes()
        for x in range(60):
            filt.query(x)
        assert filt.bit_bytes() == before


def test_deterministic_builds():
    u = Universe(1024)
    params = FilterParams(m=128, k=4, n=16)
    members = set(range(0, 1024, 64))
    a = BloomFilter.build(members, params, HashFamily.keyed(b"same"), u)
    b = BloomFilter.build(members, params, HashFamily.keyed(b"same"), u)
    assert a.bit_bytes() == b.bit_bytes()
    c = BloomFilter.build(members, params, HashFamily.true_random(seed=5), u)
    d = BloomFilter.build(members, params, HashFamily.true_random(seed=5), u)
    assert c.bit_bytes() == d.bit_bytes()


@settings(max_examples=50, deadline=None)
@given(
    small=st.sets(st.integers(0, 255), max_size=8),
    extra=st.sets(st.integers(0, 255), max_size=8),
)
def test_bits_monotone_under_set_growth(small, extra):
    params = FilterParams(m=64, k=3, n=16)
    u = Universe(256)
    fam = HashFamily.keyed(b"monotone")
    a = BloomFilter.build(small, params, fam, u)
    b = BloomFilter.build(small | extra, params, fam, u)
    a_bits, b_bits = a.bit_bytes(), b.bit_bytes()
    assert all((x & y) == x for x, y in zip(a_bits, b_bits))


def test_saturated_filter_answers_one_everywhere():
    params = FilterParams(m=8, k=2, n=0)
    u = Universe(4096)
    filt = BloomFilter(params, HashFamily.public(), u)
    x = 0
    while not filt.is_saturated():
        filt.insert(x)
        x += 1
    assert filt.fill_ratio() == 1.0
    assert all(filt.query(v) == 1 for v in range(0, 4096, 37))


def test_snapshot_roundtrip_standard_and_keyed():
    u = Universe(512)
    params = FilterParams(m=96, k=3, n=8)
    for fam in (HashFamily.public(), HashFamily.keyed(b"roundtrip")):
        filt = BloomFilter.build(set(range(8)), params, fam, u)
        blob = filt.to_bytes()
        assert blob[:4] == MAGIC
        assert blob[4] == FORMAT_VERSION
        back = BloomFilter.from_bytes(blob, u)
        assert back.bit_bytes() == filt.bit_bytes()
        assert back.kind == filt.kind
        assert all(back.query(x) == filt.query(x) for x in range(512))
        assert BloomFilter.from_bytes(blob).universe == u


def test_snapshot_rejects_garbage_and_wrong_kind():
    with pytest.raises(ParameterError):
        BloomFilter.from_bytes(b"nope")
    u = Universe(128)
    ny = NyFilter.build({1, 5}, FilterParams(m=32, k=2, n=2), b"pk", u)
    with pytest.raises(ParameterError):
        BloomFilter.from_bytes(ny.to_bytes())
    with pytest.raises(ParameterError):
        BloomFilter(FilterParams(m=32, k=2, n=0), HashFamily.public(), u, kind=KIND_NY)
    with pytest.raises(ParameterError):
        NyFilter.from_bytes(
            BloomFilter.build({1}, FilterParams(m=32, k=2, n=1), HashFamily.public(), u).to_bytes(),
            u,
        )


# Format version 1 (one digest per index) snapshot of a keyed filter: m=128,
# k=4, key b"v1-snapshot-key", members 0, 10, ..., 190 of Universe(512).
V1_KEYED_SNAPSHOT = bytes.fromhex(
    "42464c5401800000000400010f0076312d736e617073686f742d6b6579"
    "44a051c1418beaba8c26198d02b2bfdb"
)


def _relabel(blob: bytes, universe: Universe) -> bytes:
    """An older snapshot relabelled as the current version: the universe
    size field inserted after the version byte."""
    return blob[:4] + bytes([FORMAT_VERSION]) + universe.size.to_bytes(8, "little") + blob[5:]


def test_version_1_snapshot_is_refused():
    u = Universe(512)
    members = range(0, 200, 10)
    assert V1_KEYED_SNAPSHOT[4] == 1
    with pytest.raises(ParameterError):
        BloomFilter.from_bytes(V1_KEYED_SNAPSHOT, u)
    # Read under the current bit positions, the old bits drop members.
    relabeled = BloomFilter.from_bytes(_relabel(V1_KEYED_SNAPSHOT, u), u)
    assert any(relabeled.query(x) == 0 for x in members)


# Format version 2 snapshot of an ny-prp-wrapped filter, whose permutation
# rounds were 8-byte digests of (round, half-block): m=128, k=4, permutation
# key b"v2-snapshot-key", members 0, 10, ..., 190 of Universe(512).
V2_NY_SNAPSHOT = bytes.fromhex(
    "42464c5402800000000400020f0076322d736e617073686f742d6b6579"
    "0c1bb7833030d782617f406d454f7754"
)


def test_version_2_snapshot_is_refused():
    u = Universe(512)
    members = range(0, 200, 10)
    assert V2_NY_SNAPSHOT[4] == 2
    with pytest.raises(ParameterError):
        NyFilter.from_bytes(V2_NY_SNAPSHOT, u)
    # Read under the current permutation rounds, the old bits drop members.
    relabeled = NyFilter.from_bytes(_relabel(V2_NY_SNAPSHOT, u), u)
    assert any(relabeled.query(x) == 0 for x in members)


# Format version 3 snapshot, which records no universe size, of the same
# ny-prp-wrapped filter under the current permutation rounds: permutation key
# b"v3-snapshot-key", members 0, 10, ..., 190 of Universe(512), m=128, k=4.
V3_NY_SNAPSHOT = bytes.fromhex(
    "42464c5403800000000400020f0076332d736e617073686f742d6b6579"
    "2c689234d54a053ab430eee9bc1ce541"
)


def test_version_3_snapshot_is_refused():
    u = Universe(512)
    members = range(0, 200, 10)
    assert V3_NY_SNAPSHOT[4] == 3
    with pytest.raises(ParameterError):
        NyFilter.from_bytes(V3_NY_SNAPSHOT, u)
    # Its bits are sound under the right universe, but nothing in it says
    # which universe that is: relabelled under another size, members drop.
    assert all(NyFilter.from_bytes(_relabel(V3_NY_SNAPSHOT, u)).query(x) == 1 for x in members)
    relabeled = NyFilter.from_bytes(_relabel(V3_NY_SNAPSHOT, Universe(600)))
    assert any(relabeled.query(x) == 0 for x in members)


def test_restore_under_another_universe_is_refused():
    """Fifty 9-member filters over 4096 elements: restored over 5000, as the
    version 3 layout allowed, they answered 0 for 433 of their 450 members."""
    u, other, params = Universe(4096), Universe(5000), FilterParams(m=64, k=5, n=9)
    rng = random.Random(3)
    dropped = 0
    for _ in range(50):
        members, key = rng.sample(range(u.size), 9), rng.randbytes(16)
        blob = NyFilter.build(members, params, key, u).to_bytes()
        with pytest.raises(ParameterError, match="universe of 4096 elements, not 5000"):
            NyFilter.from_bytes(blob, other)
        for back in (NyFilter.from_bytes(blob), NyFilter.from_bytes(blob, u)):
            assert back.universe == u and all(back.query(x) == 1 for x in members)
        # The restore version 3 allowed: the same bits, permuted over 5000.
        bits = back.inner.bit_bytes()
        inner = BloomFilter.from_bytes(_pack_snapshot(other.size, 64, 5, KIND_STANDARD, b"", bits))
        wrong = NyFilter(inner, FeistelPermutation(key, other.size), other)
        dropped += sum(wrong.query(x) == 0 for x in members)
    assert dropped == 433


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from([KIND_STANDARD, KIND_PRF, KIND_NY]),
    mode=st.sampled_from([PUBLIC, KEYED_PRF, TRUE_RANDOM]),
    key=st.binary(max_size=16),
    members=st.sets(st.integers(0, 511), max_size=30),
    probes=st.lists(st.integers(0, 511), max_size=60),
    m=st.integers(1, 300),
    k=st.integers(1, 12),
    size=st.one_of(st.just(512), st.integers(512, 1 << 17)),
    other=st.integers(1, 1 << 17),
)
def test_snapshot_round_trips_or_refuses(kind, mode, key, members, probes, m, k, size, other):
    u = Universe(size)
    params = FilterParams(m=m, k=k, n=len(members))
    if kind == KIND_NY:
        filt = NyFilter.build(members, params, key, u, family=_family(mode, key))
        restore = NyFilter.from_bytes
    else:
        filt = BloomFilter(params, _family(mode, key), u, kind=KIND_STANDARD)
        for x in sorted(members):
            filt.insert(x)
        filt.kind = kind  # a static filter holding the same bits
        restore = BloomFilter.from_bytes
    refused = mode == TRUE_RANDOM or (kind == KIND_NY and mode != PUBLIC)
    if refused:
        with pytest.raises(UnsupportedOperationError):
            filt.to_bytes()
        return
    blob = filt.to_bytes()
    for back in (restore(blob, u), restore(blob)):
        assert back.kind == filt.kind and back.universe == u
        assert all(back.query(x) == 1 for x in members)
        assert all(back.query(x) == filt.query(x) for x in probes)
    if other != size:
        with pytest.raises(ParameterError):
            restore(blob, Universe(other))


def test_true_random_snapshot_is_refused():
    u = Universe(512)
    filt = BloomFilter.build(set(range(20)), FilterParams(m=256, k=3, n=20),
                             HashFamily.true_random(seed=1), u)
    with pytest.raises(UnsupportedOperationError):
        filt.to_bytes()


@pytest.mark.parametrize("inner", [HashFamily.keyed(b"inner"), HashFamily.true_random(seed=2)],
                         ids=["keyed", "true-random"])
def test_ny_snapshot_with_non_public_inner_family_is_refused(inner):
    u = Universe(512)
    ny = NyFilter.build(set(range(20)), FilterParams(m=256, k=3, n=20), b"pk", u, family=inner)
    with pytest.raises(UnsupportedOperationError):
        ny.to_bytes()


@pytest.mark.parametrize("cut", ["one byte short", "one byte long"])
def test_restores_refuse_a_bit_array_of_the_wrong_length(cut):
    u, params = Universe(512), FilterParams(m=60, k=3, n=2)
    for blob, restore in ((BloomFilter.build({1, 2}, params, HashFamily.keyed(b"k"), u).to_bytes(),
                           BloomFilter.from_bytes),
                          (NyFilter.build({1, 2}, params, b"pk", u).to_bytes(), NyFilter.from_bytes)):
        bad = blob[:-1] if cut == "one byte short" else blob + b"\0"
        for universe in (None, u):
            with pytest.raises(ParameterError, match="wrong length"):
                restore(bad, universe)


@pytest.mark.parametrize("last, accepted", [(0x0F, True), (0x10, False), (0xFF, False)])
def test_restores_refuse_set_bits_past_m(last, accepted):
    """m = 60 uses the low four bits of the last byte: a snapshot setting a
    higher one is refused rather than restored with a popcount above m."""
    u, params = Universe(512), FilterParams(m=60, k=3, n=2)
    bits = b"\xff" * 7 + bytes([last])
    for blob, restore in ((BloomFilter.build({1, 2}, params, HashFamily.keyed(b"k"), u).to_bytes(),
                           BloomFilter.from_bytes),
                          (NyFilter.build({1, 2}, params, b"pk", u).to_bytes(), NyFilter.from_bytes)):
        blob = blob[:-8] + bits
        if accepted:
            back = restore(blob, u)
            assert back.is_saturated() and getattr(back, "inner", back).popcount() == 60
        else:
            with pytest.raises(ParameterError, match="positions >= m"):
                restore(blob, u)


def test_ny_snapshot_roundtrip_and_key_offset():
    u = Universe(300)
    params = FilterParams(m=64, k=2, n=4)
    key = b"ny-filter-key"
    ny = NyFilter.build({10, 20, 30, 40}, params, key, u)
    blob = ny.to_bytes()
    assert blob[KEY_OFFSET:KEY_OFFSET + len(key)] == key
    back = NyFilter.from_bytes(blob, u)
    assert all(back.query(x) == ny.query(x) for x in range(300))


def test_snapshot_refuses_fields_its_header_cannot_hold():
    u = Universe(512)
    params = FilterParams(m=64, k=1 << 16, n=1)
    for filt in (BloomFilter.build({1}, params, HashFamily.keyed(b"wide"), u),
                 NyFilter.build({1}, params, b"pk", u)):
        with pytest.raises(UnsupportedOperationError, match="u16 k field"):
            filt.to_bytes()
    # blake2b refuses keys over 64 bytes, so no filter can carry a 65536-byte
    # key, and an m of 2**32 would be a 512 MiB bit array: both go to the
    # snapshot writer directly.
    with pytest.raises(UnsupportedOperationError, match="u16 key length field"):
        _pack_snapshot(512, 64, 1, KIND_PRF, bytes(1 << 16), bytes(8))
    with pytest.raises(UnsupportedOperationError, match="u32 m field"):
        _pack_snapshot(512, 1 << 32, 1, KIND_STANDARD, b"", b"")
    wide = BloomFilter.build({1}, FilterParams(m=64, k=1, n=1), HashFamily.keyed(b"wide"), Universe(1 << 64))
    with pytest.raises(UnsupportedOperationError, match="u64 universe size field"):
        wide.to_bytes()
    blob = _pack_snapshot((1 << 64) - 1, (1 << 32) - 1, (1 << 16) - 1, KIND_PRF, bytes((1 << 16) - 1), b"")
    assert len(blob) == KEY_OFFSET + (1 << 16) - 1


def test_ny_build_matches_inner_on_permuted_elements():
    u = Universe(256)
    params = FilterParams(m=64, k=2, n=8)
    members = set(range(0, 80, 10))
    ny = NyFilter.build(members, params, b"wrapped", u, HashFamily.public())
    assert all(ny.query(x) == 1 for x in members)
    prp = FeistelPermutation(b"wrapped", 256)
    for x in range(256):
        assert ny.query(x) == ny.inner.query(prp.encrypt(x))


def test_ny_filters_with_distinct_keys_differ():
    u = Universe(4096)
    params = FilterParams(m=64, k=2, n=8)
    members = set(range(8))
    rng = random.Random(0)
    for _ in range(100):
        k1, k2 = rng.randbytes(8), rng.randbytes(8)
        if k1 == k2:
            continue
        a = NyFilter.build(members, params, k1, u)
        b = NyFilter.build(members, params, k2, u)
        assert a.inner.bit_bytes() != b.inner.bit_bytes()


@pytest.mark.parametrize("size", [1, 2, 3, 37, 256, 1000, 4096, 4097, 1 << 16, (1 << 16) + 1])
def test_feistel_is_a_bijection(size):
    perm = FeistelPermutation(b"bijection", size)
    images = [perm.encrypt(x) for x in range(size)]
    assert sorted(images) == list(range(size))
    assert all(perm.decrypt(y) == x for x, y in enumerate(images))


def test_feistel_rejects_out_of_domain():
    perm = FeistelPermutation(b"k", 100)
    with pytest.raises(ParameterError):
        perm.encrypt(100)
    with pytest.raises(ParameterError):
        perm.decrypt(-1)


def test_feistel_domain_tops_out_at_2_to_the_128():
    """Half-blocks of up to 64 bits read 8-byte fields; wider ones have no
    round function, so their domains are refused."""
    top = FeistelPermutation(b"k", 1 << 128)
    y = top.encrypt((1 << 128) - 1)
    assert top.decrypt(y) == (1 << 128) - 1
    with pytest.raises(ParameterError):
        FeistelPermutation(b"k", (1 << 128) + 1)


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 2048), key=st.binary(max_size=8), x=st.integers(0, 1 << 30))
def test_feistel_roundtrip_property(size, key, x):
    perm = FeistelPermutation(key, size)
    v = x % size
    assert perm.decrypt(perm.encrypt(v)) == v


def test_query_domain_error():
    u = Universe(32)
    filt = BloomFilter.build({1}, FilterParams(m=16, k=2, n=1), HashFamily.public(), u)
    with pytest.raises(DomainError):
        filt.query(32)
    with pytest.raises(DomainError):
        filt.insert(-1)
    params = FilterParams(m=64, k=9, n=1)
    for mode in (PUBLIC, KEYED_PRF, TRUE_RANDOM):
        built = BloomFilter.build({1}, params, _family(mode, b"key"), u)
        wrapped = NyFilter.build({1}, params, b"prp", u, family=_family(mode, b"key"))
        for bad in (-1, u.size, 3.0, "3"):
            for query in (built.query, wrapped.query):
                with pytest.raises(DomainError):
                    query(bad)
            with pytest.raises(DomainError):
                BloomFilter.build([bad], params, _family(mode, b"key"), u)


# Elements a member collection may hold against Universe(64): in range, just
# outside it on either side, bools, huge ints and values of other types.
_ELEMENTS = st.one_of(st.integers(0, 63), st.integers(-3, -1), st.integers(64, 67), st.booleans(),
                      st.integers(1 << 64, 1 << 70), st.floats(), st.none(), st.text(max_size=2))


@settings(max_examples=400, deadline=None)
@given(xs=st.one_of(st.lists(st.integers(0, 63), max_size=12), st.sets(st.integers(0, 63), max_size=12),
                    st.lists(_ELEMENTS, max_size=12), st.sets(_ELEMENTS, max_size=12)))
@example(xs=[])
@example(xs=set())
@example(xs=[True, 0, 63, False])
@example(xs=[5, 64, -1])
@example(xs=[5, 3.0, "3"])
def test_require_all_passes_and_refuses_as_require_does_element_by_element(xs):
    u = Universe(64)
    try:
        for x in xs:
            u.require(x)
    except DomainError as exc:
        with pytest.raises(DomainError) as got:
            u.require_all(xs)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
    else:
        assert u.require_all(xs) is xs


@pytest.mark.parametrize("bad", [-1, 32, 1 << 70, 2.0, "7", None])
@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
def test_builds_refuse_a_bad_member_by_name_and_leave_the_family_unchanged(bad, mode):
    u, params = Universe(32), FilterParams(m=64, k=3, n=3)
    family = _family(mode, b"key")
    message = re.escape(f"element {bad!r} outside universe [0, 32)")
    with pytest.raises(DomainError, match=message):
        BloomFilter.build([1, 5, bad], params, family, u)
    with pytest.raises(DomainError, match=message):
        NyFilter.build([1, 5, bad], params, b"prp", u, family=family)
    assert family.memo == {} and family._shape is None
    assert mode != TRUE_RANDOM or family._stream.position == 0


def _collections(members: list) -> dict:
    """Makers of the same member collection as a set, a frozenset, a list
    with repeats and a generator."""
    return {
        "set": lambda: set(members),
        "frozenset": lambda: frozenset(members),
        "list with repeats": lambda: members + members[::2],
        "generator": lambda: (x for x in members),
    }


@settings(max_examples=60, deadline=None)
@given(
    mode=st.sampled_from([PUBLIC, KEYED_PRF, TRUE_RANDOM]),
    members=st.lists(st.integers(0, 4095), unique=True, max_size=40),
    m=st.one_of(st.integers(1, 64), st.integers(1 << 12, 1 << 16)),
    k=st.integers(1, 12),
)
@example(mode=TRUE_RANDOM, members=list(range(40, 0, -1)), m=8, k=3)
def test_build_over_any_collection_of_the_members_is_one_filter(mode, members, m, k):
    """A set or frozenset is taken as it is and any other collection is
    copied first: all four build the same bits, memo and stream position."""
    u, params = Universe(4096), FilterParams(m=m, k=k, n=len(members))
    outcomes = []
    for make in _collections(members).values():
        filt = BloomFilter.build(make(), params, _family(mode, b"one"), u)
        family = filt.family
        outcomes.append((filt.bit_bytes(), filt.popcount(), family.memo,
                         family._stream.position if mode == TRUE_RANDOM else None))
    assert outcomes.count(outcomes[0]) == len(outcomes)


@settings(max_examples=30, deadline=None)
@given(
    mode=st.sampled_from([PUBLIC, KEYED_PRF]),
    key=st.binary(max_size=16),
    k=st.integers(1, 20),
    n=st.one_of(st.integers(0, 20), st.integers(_RUN - 3, _RUN + 40)),
    seed=st.integers(0, 1 << 32),
)
@example(mode=KEYED_PRF, key=b"runs", k=20, n=2 * _RUN + 1, seed=0)
@example(mode=PUBLIC, key=b"", k=8, n=_RUN + 1, seed=1)
@example(mode=PUBLIC, key=b"", k=1, n=_RUN + 1, seed=2)
def test_member_words_are_each_members_indices(mode, key, k, n, seed):
    """Per run of up to _RUN members and per block b, one flat array holds
    the first min(8, k - 8b) words of every member's block-b digest, which
    are indices 8b onwards of HashFamily.indices taken mod 2**64."""
    family = _family(mode, key if mode == KEYED_PRF else b"")
    members = random.Random(seed).sample(range(1 << 20), n)
    arrays = list(_member_words(family.block_states(k), k, [struct.pack("<Q", x) for x in members]))
    expected = []
    for lo in range(0, n, _RUN):
        indices = [family.indices(x, 1 << 64, k) for x in members[lo:lo + _RUN]]
        for b in range(0, k, 8):
            expected.append([w for got in indices for w in got[b:b + 8]])
    assert [list(words) for words in arrays] == expected


@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
@pytest.mark.parametrize("u, m, k", [(4096, 256, 5), (4096, 1 << 20, 20), (1 << 20, 64, 12)])
def test_hashed_bits_do_not_depend_on_the_order_of_the_members(mode, u, m, k):
    """Keyed and public builds hash their members in set order and true-random
    ones draw in sorted order, so sets whose iteration orders differ, and
    lists in any order, build one filter, with one true-random memo."""
    members = random.Random(u + k).sample(range(u), 60)
    orders = [members, sorted(members), sorted(members, reverse=True)]
    collections = [*orders, *map(frozenset, orders)]
    padded = set(range(u - 3000, u)) | set(members)  # a larger table, so another order
    padded -= set(range(u - 3000, u)) - set(members)
    collections.append(padded)
    assert len({tuple(c) for c in collections if isinstance(c, (set, frozenset))}) > 1
    params, universe = FilterParams(m=m, k=k, n=len(members)), Universe(u)
    outcomes = []
    for members_in_order in collections:
        filt = BloomFilter.build(members_in_order, params, _family(mode, b"order"), universe)
        outcomes.append((filt.bit_bytes(), filt.popcount(), filt.family.memo))
    assert outcomes.count(outcomes[0]) == len(outcomes)


def test_require_all_remembers_a_passed_frozenset_for_itself_and_its_size_only(monkeypatch):
    """A frozenset that passed is kept in _CHECKED under (set, size) and that
    object is not checked again under that size. Another size, an equal set
    that is another object and a mutable set are checked as on a first call."""
    members = frozenset(range(8))
    assert Universe(64).require_all(members) is members
    assert _CHECKED[(members, 64)] is members
    first = next(x for x in members if x >= 5)  # the offender require_all names first
    with pytest.raises(DomainError, match=re.escape(f"element {first!r} outside universe [0, 5)")):
        Universe(5).require_all(members)
    lookalike = frozenset([0.0, *range(1, 8)])
    assert lookalike == members and lookalike is not members
    with pytest.raises(DomainError, match=re.escape("element 0.0 outside universe [0, 64)")):
        Universe(64).require_all(lookalike)
    mutable = set(range(8))
    assert Universe(64).require_all(mutable) is mutable
    assert not any(value is mutable for value in _CHECKED.values())
    mutable.add(70)
    with pytest.raises(DomainError, match=re.escape("element 70 outside universe [0, 64)")):
        Universe(64).require_all(mutable)
    # A remembered set is trusted: this entry was never checked, and passes.
    unchecked = frozenset({3, 70})
    monkeypatch.setitem(_CHECKED, (unchecked, 64), unchecked)
    assert Universe(64).require_all(unchecked) is unchecked


def test_the_checked_memo_is_cleared_when_full():
    sets = [frozenset({i}) for i in range(3 * _CHECKED_MAX)]
    for xs in sets:
        Universe(64).require_all(xs)
        assert 1 <= len(_CHECKED) <= _CHECKED_MAX
        assert _CHECKED[(xs, 64)] is xs


@pytest.mark.parametrize("bad", [[-1], [40, 3.0], ["7", -2], [None, 99]])
@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
def test_a_refused_build_names_the_first_offender_of_the_collection_given(bad, mode):
    u, params = Universe(32), FilterParams(m=64, k=3, n=6)
    for name, make in _collections([1, 5, 9, *bad, 12]).items():
        family = _family(mode, b"key")
        first = next(x for x in make() if not u.contains(x))
        with pytest.raises(DomainError, match=re.escape(f"element {first!r} outside universe [0, 32)")):
            BloomFilter.build(make(), params, family, u)
        assert family.memo == {} and family._shape is None, name


@settings(max_examples=100, deadline=None)
@given(
    seed=st.binary(max_size=8),
    m=st.one_of(st.integers(1, 64), st.integers(65, 1 << 20)),
    k=st.integers(1, 9),
    known=st.lists(st.integers(0, 63), unique=True, max_size=12),
    elements=st.lists(st.integers(0, 63), unique=True, max_size=20),
)
def test_memo_fill_matches_deriving_each_element_one_by_one(seed, m, k, known, elements):
    """Over a memo that already holds some of the elements, ``_memo_fill``
    returns the k indices of each element, flat and in order, and leaves
    the memo and the stream position as deriving the elements one by one does."""
    bulk, single = HashFamily.true_random(seed), HashFamily.true_random(seed)
    for family in (bulk, single):
        family._bind(m, k)
        for x in known:
            family.indices(x, m, k)
    got = _memo_fill(bulk.memo, bulk._stream, m, k, elements)
    for x in elements:
        single.indices(x, m, k)
    assert list(got) == [j for x in elements for j in single.memo[x]]
    assert bulk == single


@settings(max_examples=200, deadline=None)
@given(x=st.one_of(st.integers(-2, 33), st.integers(-(1 << 70), 1 << 70), st.booleans(), st.floats(),
                   st.none(), st.text(max_size=3)))
@example(x=True)
@example(x=False)
@example(x=32)
@example(x=3.0)
def test_queries_refuse_exactly_what_the_universe_does_not_contain(x):
    u, params = Universe(32), FilterParams(m=64, k=9, n=1)
    for mode in (PUBLIC, KEYED_PRF, TRUE_RANDOM):
        for filt in (BloomFilter.build({1}, params, _family(mode, b"key"), u),
                     NyFilter.build({1}, params, b"prp", u, family=_family(mode, b"key"))):
            if u.contains(x):
                assert filt.query(x) == filt.query(int(x))  # True is the member 1
            else:
                with pytest.raises(DomainError, match=re.escape(f"element {x!r} outside universe [0, 32)")):
                    filt.query(x)


@settings(max_examples=200, deadline=None)
@given(
    key=st.binary(max_size=64),
    size=st.one_of(st.integers(1, 1 << 16), st.integers(1, 1 << 40)),
    value=st.integers(0, (1 << 64) - 1),
)
@example(key=b"tabulated", size=4096, value=(1 << 64) - 1)
@example(key=b"walks", size=4097, value=12345)
@example(key=b"tabulated", size=1 << 16, value=65535)
@example(key=b"per-call", size=(1 << 16) + 1, value=(1 << 40) + 7)
def test_feistel_round_matches_reference_formula(key, size, value):
    """encrypt and decrypt against a four-round Feistel network built from
    scratch: round i maps (L, R) to (R, L ^ F_i(R)) on the smallest
    even-width domain covering [0, size), cycle-walking back into it. The
    two size ranges reach both evaluation paths: tabulated rounds (domains up
    to 2**16) and rounds read per call."""
    width = max((size - 1).bit_length(), 2)
    width += width % 2
    half, mask = width // 2, (1 << (width // 2)) - 1

    def block(v):
        left, right = v >> half, v & mask
        for i in range(ROUNDS):
            left, right = right, left ^ _reference_round(key, i, right, half)
        return (left << half) | right

    perm = FeistelPermutation(key, size)
    v = value % (1 << width)
    assert perm._encrypt_block(v) == block(v)
    assert perm._decrypt_block(block(v)) == v
    x = value % size
    y = block(x)
    while y >= size:
        y = block(y)
    assert perm.encrypt(x) == y
    assert perm.decrypt(y) == x


@pytest.mark.parametrize("size, kind", [(64.0, "float"), (True, "bool"), (False, "bool"), ("x", "str"),
                                        ("64", "str"), (None, "NoneType")])
def test_universe_refuses_a_size_that_is_not_an_int(size, kind):
    with pytest.raises(ParameterError, match=rf"^universe size must be an int, not {kind}$"):
        Universe(size)


@pytest.mark.parametrize("args, name, kind", [((64.0, 3, 5), "m", "float"), ((True, 1, 0), "m", "bool"),
                                              ((64, 3, 5.0), "n", "float")])
def test_filter_params_refuse_a_count_that_is_not_an_int(args, name, kind):
    with pytest.raises(ParameterError, match=rf"^{name} must be an int, not {kind}$"):
        FilterParams(*args)


@pytest.mark.parametrize("plain", [True, False])
def test_sample_outside_counts_only_excluded_elements_of_the_universe(plain):
    """An excluded element outside the universe does not cover any of it."""
    u = Universe(3)
    make = random.Random if plain else _CountingRandom
    assert u.sample_outside(make(1), {0, 1, 99}) == 2
    for excluded in ({0, 1, 2}, {0, 1, 2, 99}):
        with pytest.raises(ParameterError, match="^excluded set covers the whole universe$"):
            u.sample_outside(make(1), excluded)


def test_refusals_of_the_sizing_helpers():
    with pytest.raises(ParameterError, match=r"^n must be >= 1$"):
        FilterParams.from_target(0, 0.01)
    with pytest.raises(ParameterError, match=r"^m and n must be >= 1$"):
        optimal_k(0, 10)
    with pytest.raises(ParameterError, match=r"^m must be an int, not float$"):
        optimal_k(64.0, 3)
    with pytest.raises(ParameterError, match=r"^effective cardinality must be >= 0$"):
        expected_fpr(FilterParams(m=64, k=3, n=4), n_effective=-0.5)
    with pytest.raises(ParameterError, match=r"^universe too small for n members plus a non-member$"):
        estimate_fpr(FilterParams(m=64, k=3, n=10), Universe(10), PUBLIC, builds=1, queries=10, seed=1)


@pytest.mark.parametrize("key, size, message", [
    (b"k", 0, r"^permutation domain must have size >= 1$"),
    (b"k", -5, r"^permutation domain must have size >= 1$"),
    ("key", 16, r"^key must be bytes$"),
    (b"k", 4096.0, r"^size must be an int, not float$"),
    (b"k", True, r"^size must be an int, not bool$"),
])
def test_feistel_refuses_an_empty_domain_and_a_str_key(key, size, message):
    with pytest.raises(ParameterError, match=message):
        FeistelPermutation(key, size)


def _composed(ny: NyFilter, x):
    """``ny.inner.query(ny.prp.encrypt(x))``: the answer, or the type of the refusal."""
    try:
        return ny.inner.query(ny.prp.encrypt(x))
    except ValueError as exc:  # DomainError or ParameterError
        return type(exc)


def _wrapped(ny: NyFilter, x):
    """``ny.query(x)``: the answer, or the type of the refusal."""
    try:
        return ny.query(x)
    except ValueError as exc:
        return type(exc)


@pytest.mark.parametrize("mode", [PUBLIC, KEYED_PRF, TRUE_RANDOM])
@pytest.mark.parametrize("size, m, k, probes", [
    (4096, 64, 5, None),       # tabulated rounds; a public inner reads the table (u*k <= 2**15)
    (6554, 64, 5, None),       # tabulated rounds; a public inner hashes per query
    (5000, 60, 5, None),       # cycle walking over tabulated rounds
    (65537, 256, 3, 3000),     # per-call rounds, sampled elements
])
def test_ny_query_equals_the_inner_query_of_the_permuted_element(mode, size, m, k, probes):
    """Two identical wrapped filters, one queried through ``NyFilter.query``
    and one through the composition it replaces, in the same order: the same
    answers, and (true-random) the same memo and generator state."""
    u, params = Universe(size), FilterParams(m=m, k=k, n=40)
    rng = random.Random(size * k)
    members, key = rng.sample(range(size), 40), rng.randbytes(16)
    a, b = (NyFilter.build(members, params, key, u, family=_family(mode, key)) for _ in range(2))
    xs = [*(range(size) if probes is None else rng.sample(range(size), probes)), True]
    assert [_wrapped(a, x) for x in xs] == [_composed(b, x) for x in xs]
    assert a.inner.family == b.inner.family


def test_key_leaking_filter_query_equals_the_composition_after_inserts():
    u, params = Universe(4096), FilterParams(m=64, k=5, n=9)
    filt = KeyLeakingFilter.build(range(0, 90, 10), params, b"leaky", u)
    for x in (5, 777, 4095, 2048):
        filt.insert(x)
    assert all(filt.query(x) == 1 for x in (5, 777, 4095, 2048))
    assert [filt.query(x) for x in range(u.size)] == [_composed(filt, x) for x in range(u.size)]


@pytest.mark.parametrize("mode", [PUBLIC, TRUE_RANDOM])
def test_ny_query_refuses_an_image_outside_a_smaller_inner_universe(mode):
    """A hand-built wrapper whose permutation covers 256 elements over an
    inner filter of 100: an image y >= 100 is refused with DomainError even
    when the memo (the shape's public table, or a family shared with a filter
    over all 256) already holds its indices."""
    params, key = FilterParams(m=83, k=3, n=5), b"small-inner"
    family = _family(mode, b"fam")
    wide = BloomFilter.build(range(256), params, family, Universe(256))
    memo = wide._memo
    inner = BloomFilter.build(range(0, 100, 20), params, family, Universe(100))
    ny = NyFilter(inner, FeistelPermutation(key, 256), Universe(256))
    outside = [x for x in range(256) if ny.prp.encrypt(x) >= 100]
    assert outside and all(ny.prp.encrypt(x) in memo for x in outside)
    answers = [_wrapped(ny, x) for x in range(256)]
    assert answers == [_composed(ny, x) for x in range(256)]
    assert {answers[x] for x in outside} == {DomainError}
    via_query = lambda r, excluded, n: _sample_positive(ny.query, 256, r, excluded, n)
    outcomes = set()
    for seed in range(200):
        pair = []
        for sample in (ny.sample_positive, via_query):
            rng = random.Random(seed)
            try:
                found = sample(rng, set(), 1 + seed % 4)
            except DomainError:
                found = DomainError
            pair.append((found, rng.getstate()))
        assert pair[0] == pair[1]
        outcomes.add(found if found in (None, DomainError) else int)
    assert outcomes == {None, DomainError, int}


def test_only_filters_that_hash_per_query_bind_block_states():
    """A public filter under the table's gate builds and answers with its
    family's states unbuilt until a table miss; a keyed filter, and a public
    one past the gate, bind theirs at construction."""
    m, k, u = 97, 11, Universe(40)  # a shape no other test uses
    BloomFilter.build(range(0, 40, 2), FilterParams(m=m, k=k, n=0), HashFamily.public(), u)
    family = HashFamily.public()
    filt = BloomFilter.build(range(0, 40, 4), FilterParams(m=m, k=k, n=0), family, u)
    reference = HashFamily.public()
    expected = [all(filt._flags[j] for j in reference.indices(x, m, k))
                for x in range(0, 40, 2)]
    assert [filt.query(x) for x in range(0, 40, 2)] == expected and all(expected[::2])
    assert family._states == []
    filt.query(1)  # the first table miss
    assert len(family._states) == 2
    for family, universe in ((HashFamily.keyed(b"k"), u), (HashFamily.public(), Universe(_TABLE_CAP // k + 1))):
        BloomFilter(FilterParams(m=m, k=k, n=0), family, universe)
        assert len(family._states) == 2


@pytest.mark.parametrize("seed", [-1, 1 << 64, True, False])
def test_true_random_refuses_a_seed_that_is_not_a_64_bit_int_or_bytes(seed):
    with pytest.raises(ParameterError, match=r"^a true-random seed must be bytes or an int in \[0, 2\*\*64\)"):
        HashFamily.true_random(seed)


@pytest.mark.parametrize("make, kind", [(lambda: HashFamily.keyed(16), "int"),
                                        (lambda: HashFamily.keyed("abc"), "str"),
                                        (lambda: HashFamily.true_random("s"), "str")],
                         ids=["keyed-int", "keyed-str", "true-random-str"])
def test_hash_families_refuse_a_key_that_is_not_bytes(make, kind):
    """An int key would otherwise become that many zero bytes."""
    with pytest.raises(ParameterError, match=rf"^a hash family key must be bytes, not {kind}$"):
        make()


def test_true_random_int_seeds_keep_their_eight_little_endian_bytes():
    for seed in (0, 1, 123, (1 << 64) - 1):
        assert HashFamily.true_random(seed) == HashFamily.true_random(seed.to_bytes(8, "little"))
    assert HashFamily.true_random(b"raw").key == b"raw"


def _positives_found(sample, rng, excluded, tries: int) -> list:
    """Up to 40 positives that ``sample(rng, excluded, tries)`` finds one
    after another, each excluded from the next call; None for a call that
    finds none, which ends the list."""
    found, excluded = [], set(excluded)
    while len(found) < 40 and (not found or found[-1] is not None):
        found.append(sample(rng, excluded, tries))
        excluded.add(found[-1])
    return found


@settings(max_examples=30, deadline=None)
@given(key=st.binary(max_size=16), size=st.integers(1, 300))
@example(key=b"tabulated", size=4096)
@example(key=b"walks", size=5000)
@example(key=b"wide-tables", size=1 << 14)
@example(key=b"largest-tabulated", size=1 << 16)
@example(key=b"per-call", size=(1 << 16) + 1)
def test_ny_query_and_sampling_match_the_reference_permutation(key, size):
    """Over whole domains (sampled elements above 2**16, where the rounds are
    read per call): ``encrypt`` is the reference network, ``NyFilter.query``
    is ``inner.query(prp.encrypt(x))``, and ``sample_positive``, which
    permutes inline over tabulated rounds, finds the positives that sampling
    through ``query`` finds, from the same draws, over a public inner filter
    (a memo up to u*k <= 2**15, hashed above) and a true-random one."""
    u, params = Universe(size), FilterParams(m=64, k=3, n=8)
    rng = random.Random(size)
    members = rng.sample(range(size), min(8, size // 3))
    xs = range(size) if size <= 1 << 16 else rng.sample(range(size), 300)
    reference = _reference_encrypt(key, size)
    prp = FeistelPermutation(key, size)
    assert [prp.encrypt(x) for x in xs] == [reference(x) for x in xs]
    for mode in (PUBLIC, KEYED_PRF, TRUE_RANDOM):
        a, b = (NyFilter.build(members, params, key, u, family=_family(mode, key)) for _ in range(2))
        assert [a.query(x) for x in xs] == [b.inner.query(reference(x)) for x in xs]
        tries = min(4 * size, 512)
        via_query = lambda r, excluded, n: _sample_positive(b.query, size, r, excluded, n)
        ra, rb = random.Random(key), random.Random(key)
        found = _positives_found(a.sample_positive, ra, members, tries)
        assert found == _positives_found(via_query, rb, members, tries)
        assert ra.getstate() == rb.getstate() and a.inner.family == b.inner.family
        positives = [x for x in found if x is not None]
        assert not set(positives) & set(members) and all(a.query(x) == 1 for x in positives)


def test_round_tables_are_reused_only_for_the_same_key_and_size():
    """Permutations made in turn over (k1, s1), (k1, s2), (k2, s1), (k1, s1),
    with s1 and s2 of other half widths, each match a fresh reference: the one
    remembered table set serves only the next permutation of the same key and
    size, and then is the same object."""
    k1, k2, s1, s2 = b"first", b"second", 4096, 256
    _round_tables.cache_clear()
    made = [FeistelPermutation(key, size) for key, size in ((k1, s1), (k1, s2), (k2, s1), (k1, s1))]
    assert _round_tables.cache_info().hits == 0
    for perm in made:
        reference = _reference_encrypt(perm.key, perm.size)
        assert [perm.encrypt(x) for x in range(perm.size)] == [reference(x) for x in range(perm.size)]
    again = FeistelPermutation(k1, s1)
    assert _round_tables.cache_info().hits == 1
    assert again._tables is made[-1]._tables
