"""Keyed pseudorandom permutation over a small integer domain.

A four-round balanced Feistel network runs on the smallest even-width bit
domain covering [0, size). Domains whose size is not a power of four are
handled by cycle walking: the network is applied repeatedly until the value
lands back inside [0, size), which restricts the permutation to the domain
without biasing it. The round function is a keyed blake2b of the pair
(round index, half-block), packed as ``<QQ>``.

The four round states are built once per permutation: each is keyed and has
already absorbed ``<Q>(round index)``, and a round copies its state and feeds
it ``<Q>(half-block)``. The digest is byte-identical to hashing the packed
pair from scratch, so every image is unchanged; only the per-call key setup
is saved. The block functions run the rounds inline over those states.
"""

from __future__ import annotations

import hashlib
import struct

from .errors import ParameterError

ROUNDS = 4
_WORD = struct.Struct("<Q")


class FeistelPermutation:
    """Bijection on [0, size) determined entirely by ``key``."""

    __slots__ = ("key", "size", "_half_bits", "_half_mask", "_domain", "_rounds")

    def __init__(self, key: bytes, size: int):
        if size < 1:
            raise ParameterError("permutation domain must have size >= 1")
        if not isinstance(key, (bytes, bytearray)):
            raise ParameterError("key must be bytes")
        self.key = bytes(key)
        self.size = size
        bits = max((size - 1).bit_length(), 2)
        if bits % 2:
            bits += 1
        self._half_bits = bits // 2
        self._half_mask = (1 << self._half_bits) - 1
        self._domain = 1 << bits
        self._rounds = tuple(
            hashlib.blake2b(_WORD.pack(i), key=self.key, digest_size=8) for i in range(ROUNDS)
        )

    def _encrypt_block(self, value: int) -> int:
        half_bits, mask, pack, from_bytes = self._half_bits, self._half_mask, _WORD.pack, int.from_bytes
        left, right = value >> half_bits, value & mask
        for state in self._rounds:
            h = state.copy()
            h.update(pack(right))
            left, right = right, left ^ (from_bytes(h.digest(), "little") & mask)
        return (left << half_bits) | right

    def _decrypt_block(self, value: int) -> int:
        half_bits, mask, pack, from_bytes = self._half_bits, self._half_mask, _WORD.pack, int.from_bytes
        left, right = value >> half_bits, value & mask
        for state in reversed(self._rounds):
            h = state.copy()
            h.update(pack(left))
            left, right = right ^ (from_bytes(h.digest(), "little") & mask), left
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
