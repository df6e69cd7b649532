"""The bit array as flags: one byte per position in memory, packed into the
snapshot layout (bit j at byte j >> 3, bit 1 << (j & 7)) only where bytes
leave a filter or the simulator, and unpacked only by a restore."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloomlab.errors import ParameterError
from bloomlab.filic import (
    KeyLeakingFilter,
    SimulatorState,
    key_leaking_simulator_factory,
    simulator_factory,
)
from bloomlab.filters import (
    KEYED_PRF,
    KIND_NY,
    KIND_STANDARD,
    PUBLIC,
    TRUE_RANDOM,
    BloomFilter,
    FilterParams,
    HashFamily,
    NyFilter,
    Universe,
    _pack,
    _pack_snapshot,
    _popcount,
    _unpack,
)

_U = Universe(4096)


def _packed(ones, m: int) -> bytes:
    """The reference layout: the int with bit j set for every j in ``ones``."""
    return sum(1 << j for j in set(ones)).to_bytes((m + 7) // 8, "little")


@settings(max_examples=300, deadline=None)
@given(m=st.one_of(st.integers(1, 3000), st.sampled_from([65537, 1 << 20])),
       dense=st.booleans(), data=st.data())
@example(m=1, dense=False, data=None)
@example(m=1, dense=True, data=None)
@example(m=65537, dense=True, data=None)
@example(m=1 << 20, dense=False, data=None)
def test_pack_and_unpack_round_trip_the_snapshot_layout(m, dense, data):
    """Flags with a few positions flipped from all 0 or all 1 pack into the
    reference layout, and that layout unpacks into the same flags."""
    flipped = data.draw(st.sets(st.integers(0, m - 1), max_size=64)) if data is not None else set()
    flags = bytearray(b"\1" * m if dense else m)
    for j in flipped:
        flags[j] ^= 1
    value = sum(1 << j for j in flipped) ^ ((1 << m) - 1 if dense else 0)
    packed = value.to_bytes((m + 7) // 8, "little")
    assert _pack(flags) == packed
    back = _unpack(packed, m)
    assert type(back) is bytearray and back == flags
    assert _popcount(flags) == _popcount(packed) == value.bit_count()


def _check_counts(filt, ones: set, m: int) -> None:
    assert filt.popcount() == len(ones)
    assert filt.fill_ratio() == len(ones) / m
    assert filt.is_saturated() is (len(ones) == m)


@settings(max_examples=80, deadline=None)
@given(
    mode=st.sampled_from([PUBLIC, KEYED_PRF, TRUE_RANDOM]),
    m=st.one_of(st.integers(1, 20), st.integers(21, 300), st.sampled_from([1001, 65537])),
    k=st.integers(1, 9),
    members=st.sets(st.integers(0, 4095), max_size=30),
    extra=st.lists(st.integers(0, 4095), max_size=6),
)
def test_filters_emit_packed_flags_and_count_them(mode, m, k, members, extra):
    """``bit_bytes``, ``reveal`` and ``to_bytes`` of a built filter, and of one
    grown by inserts, carry the reference layout of its members' indices;
    ``popcount``, ``fill_ratio`` and ``is_saturated`` match that set."""
    params, key = FilterParams(m=m, k=k, n=len(members)), b"" if mode == PUBLIC else b"emit"
    built = BloomFilter.build(members, params, HashFamily(mode, key), _U)
    grown = BloomFilter(params, HashFamily(mode, key), _U, kind=KIND_STANDARD)
    for filt, elements in ((built, members), (grown, ())):
        ones = {j for x in elements for j in filt.family.indices(x, m, k)}
        for x in extra if filt is grown else ():
            filt.insert(x)
            ones.update(filt.family.indices(x, m, k))
            _check_counts(filt, ones, m)
        _check_counts(filt, ones, m)
        assert filt.bit_bytes() == filt.reveal() == _packed(ones, m)
        if mode != TRUE_RANDOM:
            assert filt.to_bytes() == _pack_snapshot(_U.size, m, k, filt.kind, key, _packed(ones, m))


@settings(max_examples=40, deadline=None)
@given(m=st.one_of(st.integers(1, 300), st.sampled_from([1001, 65537])), k=st.integers(1, 9),
       members=st.sets(st.integers(0, 4095), max_size=30), extra=st.lists(st.integers(0, 4095), max_size=4))
def test_permutation_wrapped_snapshots_and_reveals_pack_the_inner_flags(m, k, members, extra):
    """``NyFilter.to_bytes`` and ``KeyLeakingFilter.reveal`` carry the inner
    filter's flags in the reference layout, after inserts too."""
    params = FilterParams(m=m, k=k, n=len(members))
    for cls in (NyFilter, KeyLeakingFilter):
        filt = cls.build(members, params, b"wrap", _U)
        inserted = set(members)
        if cls is KeyLeakingFilter:
            for x in extra:
                filt.insert(x)
            inserted.update(extra)
        ones = {j for x in inserted for j in HashFamily.public().indices(filt.prp.encrypt(x), m, k)}
        blob = _pack_snapshot(_U.size, m, k, KIND_NY, b"wrap", _packed(ones, m))
        assert filt.to_bytes() == blob
        if cls is KeyLeakingFilter:
            assert filt.reveal() == blob
        _check_counts(filt.inner, ones, m)


@settings(max_examples=60, deadline=None)
@given(m=st.one_of(st.integers(1, 20), st.integers(21, 300), st.sampled_from([1001, 65537])),
       k=st.integers(1, 9), members=st.sets(st.integers(0, 4095), max_size=30),
       ops=st.lists(st.tuples(st.booleans(), st.integers(0, 4095)), max_size=8), seed=st.integers(0, 99))
def test_simulator_reveals_packed_flags_and_counts_them(m, k, members, ops, seed):
    """After the build and after each insert or query, the simulator's reveal
    is the reference layout of f over its inserted elements, and the
    key-leak world's reveal is that layout inside a snapshot; ``popcount``
    and ``fill_ratio`` match the set."""
    params = FilterParams(m=m, k=k, n=len(members))
    sim = simulator_factory(params)(members, random.Random(seed))
    leaky = key_leaking_simulator_factory(params, _U)(members, random.Random(seed))
    assert type(sim) is SimulatorState
    for insert, x in [(True, None), *ops]:
        for world in (sim, leaky):
            if x is not None and insert:
                world.insert(x)
            elif x is not None:
                world.query(x)
            ones = {j for y in world.inserted for j in world.f[y]}
            assert world.popcount() == len(ones)
            assert world.fill_ratio() == len(ones) / m
            packed = _packed(ones, m)
            if world is leaky:
                packed = _pack_snapshot(_U.size, m, k, KIND_NY, leaky.key, packed)
            assert world.reveal() == packed


@settings(max_examples=100, deadline=None)
@given(m=st.integers(1, 3000).filter(lambda m: m & 7), data=st.data())
@example(m=65537, data=None)
def test_a_bit_at_a_position_past_m_is_still_refused(m, data):
    """Any set bit at a position in [m, 8·ceil(m/8)) is refused by every
    restore, for a raw bit array and inside either kind of snapshot; the same
    array without it restores saturated."""
    top = (m + 7) & ~7
    past = data.draw(st.integers(m, top - 1)) if data is not None else top - 1
    full = (1 << m) - 1
    bad, good = (full | 1 << past).to_bytes(top >> 3, "little"), full.to_bytes(top >> 3, "little")
    restores = (
        lambda bits: BloomFilter._over_bits(m, 3, HashFamily.public(), _U, KIND_STANDARD, bits),
        lambda bits: BloomFilter.from_bytes(_pack_snapshot(_U.size, m, 3, KIND_STANDARD, b"", bits)),
        lambda bits: NyFilter.from_bytes(_pack_snapshot(_U.size, m, 3, KIND_NY, b"key", bits)).inner,
    )
    for restore in restores:
        with pytest.raises(ParameterError, match="positions >= m"):
            restore(bad)
        back = restore(good)
        assert back.is_saturated() and back.popcount() == m and back.bit_bytes() == good
