"""Small statistics and seeding helpers used by experiments and the CLI.

Per-trial seeds are derived from a 64-bit master seed, an experiment tag and
the trial index with ``mix_seed``, so trials are reproducible individually
and could be executed out of order or in parallel without changing results.
Every Monte Carlo estimator runs its trials through ``run_trials``, which
derives them with ``seed_stream``: the master seed and tag are absorbed once.
True-random hash families and the ideal-world simulator draw their indices
from a ``DrawStream``, a counter-mode stream of keyed blake2b blocks.
"""

from __future__ import annotations

import functools
import math
import struct

from .errors import ParameterError, _require_ints

try:  # _blake2 alone, as random imports _sha512: hashlib loads OpenSSL too. Used by filters, feistel, privacy, DrawStream.
    from _blake2 import blake2b
except ImportError:
    from hashlib import blake2b

# Two-sided 99% normal quantile, used for every confidence interval here.
Z99 = 2.5758293035489004
_WORD = struct.Struct("<Q")
_MASK = 0xFFFFFFFFFFFFFFFF


def seed_stream(master_seed: int, tag: str):
    """``index -> mix_seed(master_seed, tag, index)`` for one master seed and tag.

    The mix is blake2b over the little-endian master seed, the UTF-8 tag and
    the little-endian index, truncated to 8 bytes. The returned function
    holds a blake2b state that has already absorbed the first two, so each
    seed costs a copy of it and the index alone.
    """
    absorbed = blake2b(_WORD.pack(master_seed & _MASK) + tag.encode("utf-8"), digest_size=8)
    pack, from_bytes = _WORD.pack, int.from_bytes

    def seed(index: int) -> int:
        h = absorbed.copy()
        h.update(pack(index & _MASK))
        return from_bytes(h.digest(), "little")

    return seed


class DrawStream:
    """Uniform draws read from a counter-mode stream of keyed blake2b blocks.

    Block c is ``blake2b(<Q>(c), key=key, digest_size=64, person=person)``,
    and the stream is blocks 0, 1, 2, ... as one byte string, so a draw is
    addressed by (key, personalisation, byte position) and needs no generator
    state (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
    SC 2011). ``position`` is the offset of the next unread byte. Streams
    are equal when key, personalisation and position are; copy and pickle
    keep those three and digest blocks again from there. A key longer than
    ``blake2b.MAX_KEY_SIZE`` is refused with :class:`ParameterError`.
    """

    __slots__ = ("key", "person", "position", "_buf", "_base")

    def __init__(self, key: bytes, person: bytes, position: int = 0):
        if len(key) > blake2b.MAX_KEY_SIZE:
            raise ParameterError(f"a draw stream key must be at most {blake2b.MAX_KEY_SIZE} bytes")
        self.key, self.person, self.position = key, person, position
        # The stream's digested bytes from offset _base on, whole blocks.
        self._buf, self._base = b"", 0

    def __eq__(self, other):
        if type(other) is not DrawStream:
            return NotImplemented
        return (self.key, self.person, self.position) == (other.key, other.person, other.position)

    __hash__ = None

    def __reduce__(self):
        return DrawStream, (self.key, self.person, self.position)

    def read(self, n: int) -> bytes:
        """The next n bytes of the stream. A block is digested when a read
        first reaches it; each digest drops the blocks before the read's start."""
        pos = self.position
        end = self.position = pos + n
        buf, base = self._buf, self._base
        if end > base + len(buf):
            low = pos & ~63
            c = max(low, base + len(buf)) >> 6
            parts = [buf[low - base:]]
            while c << 6 < end:
                parts.append(blake2b(_WORD.pack(c), key=self.key, digest_size=64, person=self.person).digest())
                c += 1
            buf = self._buf = b"".join(parts)
            base = self._base = low
        return buf[pos - base:end - base]

    def below(self, m: int, count: int):
        """``count`` draws uniform on [0, m), m >= 1, in stream order.

        With w = (m - 1).bit_length(), a draw reads the next (w + 7) // 8
        bytes as a little-endian integer, keeps its low w bits and is drawn
        again while that is >= m, which happens to less than half the reads.
        m = 1 reads nothing. The draws are ``bytes`` for m <= 256, where the
        mask and the rejection are one ``bytes.translate`` per read, and a
        list otherwise."""
        width = (m - 1).bit_length()
        if width <= 8:
            if not width:
                return bytes(count)
            table, rejected = _byte_rule(m)
            got = self.read(count).translate(table, rejected)
            while len(got) < count:
                got += self.read(count - len(got)).translate(table, rejected)
            return got
        size, mask, from_bytes = (width + 7) >> 3, (1 << width) - 1, int.from_bytes
        got = []
        while len(got) < count:
            chunk = self.read((count - len(got)) * size)
            got += [v for v in [from_bytes(chunk[i:i + size], "little") & mask
                                for i in range(0, len(chunk), size)] if v < m]
        return got


@functools.cache
def _byte_rule(m: int) -> tuple[bytes, bytes]:
    """For 2 <= m <= 256: the table masking a byte to its low
    (m - 1).bit_length() bits, and the bytes whose masked value is >= m."""
    mask = (1 << (m - 1).bit_length()) - 1
    return bytes(b & mask for b in range(256)), bytes(b for b in range(256) if b & mask >= m)


def mix_seed(master_seed: int, tag: str, index: int) -> int:
    """Derive a 64-bit trial seed from (master_seed, tag, index).

    A fixed, documented function (see :func:`seed_stream`): the same triple
    always yields the same seed. One digest of the whole payload, the bytes
    ``seed_stream`` feeds in two parts.
    """
    payload = _WORD.pack(master_seed & _MASK) + tag.encode("utf-8") + _WORD.pack(index & _MASK)
    return int.from_bytes(blake2b(payload, digest_size=8).digest(), "little")


def run_trials(trial, master_seed: int, tag: str, trials: int):
    """``trial(mix_seed(master_seed, tag, i))`` for i in ``range(trials)``,
    lazily and in order. A count that is not an int, or is below 1, is
    refused here, before any trial: this is every estimator's trial check."""
    _require_ints(trials=trials)
    if trials < 1:
        raise ParameterError("trials must be >= 1")
    return map(trial, map(seed_stream(master_seed, tag), range(trials)))


def wilson_interval(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at z = ``Z99``."""
    if trials < 0 or successes < 0 or successes > trials:
        raise ValueError("need 0 <= successes <= trials")
    if trials == 0:
        return (0.0, 1.0)
    phat, z = successes / trials, Z99
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    # In exact arithmetic the interval always contains phat; clamp out the
    # float round-off so boundary checks like lo > 0 stay meaningful.
    return (min(max(0.0, center - half), phat), max(min(1.0, center + half), phat))


def floored_binomial_se(rate: float, trials: int) -> float:
    """Standard error of a binomial rate, its variance floored at 1/trials."""
    return math.sqrt(max(rate * (1.0 - rate), 1.0 / trials) / trials)


def mean_confidence_interval(values: list[float]) -> tuple[float, float, float]:
    """Return (mean, lo, hi) using compensated summation and a normal CI at z = ``Z99``."""
    n = len(values)
    if n == 0:
        raise ValueError("need at least one value")
    mean = math.fsum(values) / n
    se = standard_error(values)
    return (mean, mean - Z99 * se, mean + Z99 * se)


def standard_error(values: list[float]) -> float:
    """Standard error of the mean of ``values``."""
    n = len(values)
    if n < 2:
        return 0.0
    mean = math.fsum(values) / n
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return math.sqrt(var / n)
