"""Keyed pseudorandom permutation over a small integer domain.

A four-round balanced Feistel network (Luby and Rackoff, 1988) runs on the
smallest even-width bit domain covering [0, size). Domains whose size is not
a power of four are handled by cycle walking: the network is applied
repeatedly until the value lands back inside [0, size), which restricts the
permutation to the domain without biasing it.

Round i maps an h-bit half-block r to field r of its keystream. The
keystream is the 64-byte digests ``blake2b(<Q>(i) || <Q>(b), key=key,
digest_size=64)`` for b = 0, 1, ..., cut into little-endian fields of w
bytes, w the smallest of 1, 2, 4, 8 with 8w >= h; each field is masked to h
bits. This is the block idiom of the filters' index derivation: fields at
distinct positions of PRF outputs are independent, so each round is a PRF
and the network a strong PRP. Domains above 2**128 (h > 64) are refused.

When w = 1 (h <= 8, domains up to 2**16) each round is tabulated, at
construction: its ceil(2**h / 64) digests joined and masked, at most 256
bytes, after which a block costs four byte lookups. Each table digest comes
from one copy of the keyed state fed ``<QQ>(i, b)``, the same bytes as
``<Q>(i) || <Q>(b)``, and a tabulated permutation keeps no per-round state.
A domain of 4096 costs four digests per permutation in all.

Only the tables of the latest (key, size) are kept, as the one entry of
``_round_tables``'s cache: a permutation made next with the same key and
size shares them instead of hashing them again, and any other key or size
replaces them. In a reveal-oracle trial that is the real world's restore,
of a snapshot of the filter the world has just built under that key. At u = 4096 a permutation takes
5.1 us to make when it hashes its tables and 1.05 us when it reuses them
(best of 7 ``timeit`` runs, 2-core x86-64 VM, Python 3.11).

Wider half-blocks read one field per round per call, from a copy of the
round's state, which is already keyed and has absorbed ``<Q>(i)``: one
digest per round and call. Only the tabulated encrypt block, the hot path,
runs its four rounds unrolled: 520 against 640 ns a block looped, and
:meth:`bloomlab.filters.NyFilter.sample_positive` calls it per draw. The
per-call rounds loop, as decrypt's do: unrolled, an encrypt at 2**20 took
6.35 against 6.37 us (medians of 31 interleaved rounds, 2-core x86-64 VM,
Python 3.11). A permutation copies and pickles as its key and size.
"""

from __future__ import annotations

import functools
import struct

from .errors import ParameterError, _require_ints
from .stats import blake2b

ROUNDS = 4
_WORD = struct.Struct("<Q")
_PAIR = struct.Struct("<QQ")
# The reader of one w-byte field of a digest, for the widths read per call.
_FIELDS = {2: struct.Struct("<H"), 4: struct.Struct("<I"), 8: struct.Struct("<Q")}
_BYTES = bytes(range(256))


def _half_width(size: int) -> int:
    """h, the half-block width of the smallest even-width domain covering [0, size)."""
    return (max((size - 1).bit_length(), 2) + 1) // 2


@functools.lru_cache(maxsize=1)
def _round_tables(key: bytes, size: int) -> tuple[bytes, ...]:
    """The four round tables of a permutation with h <= 8: round i's is the
    digests b < ceil(2**h / 64) of <QQ>(i, b), each byte masked to h bits.
    Only the last (key, size) is kept."""
    half = _half_width(size)
    masked = _BYTES[:1 << half] * (256 >> half)
    keyed = blake2b(key=key, digest_size=64)
    blocks = range(((1 << half) + 63) >> 6)
    tables = []
    for i in range(ROUNDS):
        digests = []
        for b in blocks:
            h = keyed.copy()
            h.update(_PAIR.pack(i, b))
            digests.append(h.digest())
        tables.append(b"".join(digests).translate(masked))
    return tuple(tables)


class FeistelPermutation:
    """Bijection on [0, size) determined entirely by ``key``."""

    __slots__ = ("key", "size", "_half_bits", "_half_mask", "_width", "_field", "_rounds", "_tables")

    def __init__(self, key: bytes, size: int):
        _require_ints(size=size)
        if size < 1:
            raise ParameterError("permutation domain must have size >= 1")
        if not isinstance(key, (bytes, bytearray)):
            raise ParameterError("key must be bytes")
        if len(key) > blake2b.MAX_KEY_SIZE:
            raise ParameterError(f"key must be at most {blake2b.MAX_KEY_SIZE} bytes")
        if size > 1 << 128:
            raise ParameterError("permutation domain must have size <= 2**128")
        self.key = key = bytes(key)
        self.size = size
        half = self._half_bits = _half_width(size)
        self._half_mask = (1 << half) - 1
        width = self._width = 1 if half <= 8 else 2 if half <= 16 else 4 if half <= 32 else 8
        self._tables = self._rounds = self._field = None
        if width == 1:
            self._tables = _round_tables(key, size)
        else:
            keyed = blake2b(key=key, digest_size=64)
            self._field = _FIELDS[width].unpack_from
            self._rounds = rounds = []
            for i in range(ROUNDS):
                state = keyed.copy()
                state.update(_WORD.pack(i))
                rounds.append(state)

    def __reduce__(self):
        """Key and size; per-call rounds hold blake2b states, which do not pickle."""
        return FeistelPermutation, (self.key, self.size)

    def _encrypt_block(self, value: int) -> int:
        half_bits, mask, tables = self._half_bits, self._half_mask, self._tables
        left, right = value >> half_bits, value & mask
        # Round by round, (left, right) becomes (right, left ^ F(right)); here
        # the halves stay in place and take turns being updated.
        if tables is not None:
            t0, t1, t2, t3 = tables
            left ^= t0[right]
            right ^= t1[left]
            left ^= t2[right]
            right ^= t3[left]
            return (left << half_bits) | right
        width, pack, field = self._width, _WORD.pack, self._field
        for state in self._rounds:
            at = right * width  # byte offset of field `right` in the round's keystream
            h = state.copy()
            h.update(pack(at >> 6))
            left, right = right, left ^ (field(h.digest(), at & 63)[0] & mask)
        return (left << half_bits) | right

    def _decrypt_block(self, value: int) -> int:
        half_bits, mask, tables = self._half_bits, self._half_mask, self._tables
        left, right = value >> half_bits, value & mask
        if tables is not None:
            for table in reversed(tables):
                left, right = right ^ table[left], left
            return (left << half_bits) | right
        width, pack, field = self._width, _WORD.pack, self._field
        for state in reversed(self._rounds):
            at = left * width
            h = state.copy()
            h.update(pack(at >> 6))
            left, right = right ^ (field(h.digest(), at & 63)[0] & mask), left
        return (left << half_bits) | right

    def encrypt(self, x: int) -> int:
        """Map x to its image; inverse of :meth:`decrypt`."""
        if not 0 <= x < self.size:
            raise ParameterError(f"value {x} outside permutation domain [0, {self.size})")
        y = self._encrypt_block(x)
        while y >= self.size:
            y = self._encrypt_block(y)
        return y

    def decrypt(self, y: int) -> int:
        """Map y back to its preimage under :meth:`encrypt`."""
        if not 0 <= y < self.size:
            raise ParameterError(f"value {y} outside permutation domain [0, {self.size})")
        x = self._decrypt_block(y)
        while x >= self.size:
            x = self._decrypt_block(x)
        return x
