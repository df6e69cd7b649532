"""Bloom filters over dense integer universes.

Three hashing modes share one filter implementation:

* ``public``: unkeyed blake2b, computable by anyone. The classic filter.
* ``keyed-prf``: blake2b keyed with a secret; every bit position is a 64-bit
  keyed-PRF output reduced mod m. The modulo bias is below 2**-50 for any m
  of interest and is accepted.
* ``true-random``: a lazily memoized table of uniform index draws, giving an
  exact truly random function at the scales studied here.

For ``public`` and ``keyed-prf``, all indices of an element come from one
digest per block of eight: block b of x is
``blake2b(<Q>(b) + <Q>(x), key=key, digest_size=64)`` read as eight
little-endian 64-bit words, and index i is word ``i % 8`` of block ``i // 8``
reduced mod m. So k <= 8 costs one digest and k = 20 costs three, and index i
does not depend on k. The 64-byte digest is blake2b's full output: a shorter one
is a truncation of the same compression, so the extra words cost nothing. Each
word is a truncation of a keyed-blake2b output, so the k indices remain
independent PRF outputs as the keyed construction requires. Double hashing
(Kirsch and Mitzenmacher, "Less Hashing, Same Performance") would be cheaper
still but is not used: its indices ``h1 + i*h2`` are correlated, not
independent PRF outputs. A family caches, per block b, a blake2b state that
is already keyed and has absorbed ``<Q>(b)`` (:meth:`HashFamily.block_states`).
A :class:`BloomFilter` binds those states for its k, and m, once at
construction, and derives indices from them without a call into the family.
``query`` copies each state and feeds it ``<Q>(x)``, and owns the early exit:
it tests each index as it is derived and returns 0 at the first clear bit,
skipping any later block. ``build`` derives the words of all members block by
block, in one pass per block and run of up to 1024 members: a copy of the
block's state per member, and one unpack of their joined digests. A dense
build, n·k·16 >= m for n distinct members, sets its bits in a one-byte-per-bit
array and packs it once, so it holds about m extra bytes while it runs; a
sparse one sets them in the packed array, where a flag array would cost O(m)
for few indices. The byte-per-bit fill was measured (x86-64, keyed, k = 7)
to break even at m = 32·n·k while m <= 2**18, at 24·n·k near m = 2**20 and
at 12·n·k beyond 2**21, as the flag array outgrows the cache; 16 lies
between. A true-random filter binds its (m, k) to the family instead. One
memo fill, ``_memo_fill``, draws the indices of every element a memo lacks
as one stream: ``build`` and ``HashFamily.indices`` fill the family's memo
through it, and the ideal-world simulator of :mod:`bloomlab.filic` its f.
``build`` sets the indices through the same fill, and ``query`` draws only
on a memo miss. Every draw goes through ``_draws``: ``randrange(m)``'s
stream, read straight from ``getrandbits`` on an exact ``random.Random``.

Public indices are keyless, a fixed function of (x, m, k), so a public
filter over a universe of u elements with u·k <= 2**15 reads them from a
memo as a true-random one does: one process-wide table per shape (m, k),
``_PUBLIC_INDICES``, mapping an element to all k of its indices. ``query``
and ``build`` fill a missing entry from the bound block states, hashing
every block, so a query under the gate that misses no longer stops at the
first clear bit. A table holds at most u entries, 2**15 indices. Measured
with ``tracemalloc`` on CPython 3.11, a full table takes 0.6 MB at the
``filic-distinguish`` defaults (m = 64, k = 5, u = 4096), 1.5 MB at
m = 1024, k = 7 and 5.0 MB at k = 1 with m = 2**20, the worst case. Keyed
filters, and public ones over larger universes, hash per query as above.

``NyFilter`` wraps an inner filter with a keyed permutation so that the bit
array seen by an adversary carries no usable structure about the elements.
It is static: inserts are refused. The permutation is a four-round Feistel
network whose rounds read w-byte fields of 64-byte keyed digests, the block
idiom above (:mod:`bloomlab.feistel`); over a universe of at most 2**16
elements each round is a table built once, so an element is permuted by
four byte lookups.

Snapshots use a versioned binary layout, little-endian throughout:

    magic ``b"BFLT"`` | version u8 | universe size u64 | m u32 | k u16 |
    kind u8 | key-length u16 | key bytes | bit array, bit j at byte j>>3,
    bit 1<<(j&7)

The key field holds the PRF key (``keyed-prf``), the permutation key
(``ny-prp-wrapped``), or is empty. A snapshot restores over the universe it
records; a restore given a universe of another size is refused with
:class:`ParameterError`, since under another size the permutation differs and
an ``ny-prp-wrapped`` filter would answer 0 for nearly every member; so is a
bit array of other than (m + 7) // 8 bytes, or one that sets a bit at a
position >= m, which would count towards the popcount. Filters
whose state the layout cannot carry (true-random filters, ``ny-prp-wrapped``
filters over a non-public inner family, and a universe size of 2**64 or
more, an m of 2**32 or more, or a k or key length of 2**16 or more, which
its fields cannot hold) refuse to serialize with
:class:`UnsupportedOperationError`.

Older versions are refused with :class:`ParameterError` rather than restored
into a filter that answers 0 for members. Version 1 snapshots were written
under the earlier one-digest-per-index rule, so their bits sit at other
positions. Version 2 snapshots were written under the earlier Feistel round
function, one 8-byte digest per (round, half-block), so an ``ny-prp-wrapped``
one would permute its members elsewhere; the layout has no per-kind version,
so every version 2 snapshot is refused. Version 3 snapshots do not record the
universe size, so nothing could refuse a restore under the wrong one.
"""

from __future__ import annotations

import math
import random
import struct
import sys
from array import array
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, repeat

from .errors import DomainError, ParameterError, UnsupportedOperationError
from .feistel import FeistelPermutation
from .stats import blake2b, mix_seed, wilson_interval

MAGIC = b"BFLT"
FORMAT_VERSION = 4
# The snapshot header after the magic: version, universe size, m, k, kind, key length.
_HEAD = struct.Struct("<BQIHBH")
# Offset of the key bytes inside a snapshot.
KEY_OFFSET = 4 + _HEAD.size

PUBLIC = "public"
KEYED_PRF = "keyed-prf"
TRUE_RANDOM = "true-random"
_MODES = (PUBLIC, KEYED_PRF, TRUE_RANDOM)

KIND_STANDARD = "standard"
KIND_PRF = "prf-backed"
KIND_NY = "ny-prp-wrapped"
_KIND_CODES = {KIND_STANDARD: 0, KIND_PRF: 1, KIND_NY: 2}
_KIND_NAMES = {v: k for k, v in _KIND_CODES.items()}

_WORD = struct.Struct("<Q")
# _WORDS[n] reads the first n little-endian 64-bit words of a block digest.
_WORDS = {n: struct.Struct(f"<{n}Q") for n in range(1, 9)}
_LN2 = math.log(2.0)
# Tails hashed together in build: bounds its transient copies and digests
# to about 0.7 MiB whatever the member count.
_RUN = 1024
# build sets bits through one byte per bit when n*k*_DENSE >= m (see the
# module docstring for the measured crossover).
_DENSE = 16
# Per shape (m, k), the k public indices of each element that a public filter
# over a universe of u*k <= _TABLE_CAP has built or queried.
_PUBLIC_INDICES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
_TABLE_CAP = 1 << 15


class FilterParams(namedtuple("FilterParams", "m k n")):
    """Size parameters: m bits, k hash functions, n expected insertions."""

    __slots__ = ()

    def __new__(cls, m: int, k: int, n: int):
        if m < 1:
            raise ParameterError("m must be >= 1")
        if k < 1:
            raise ParameterError("k must be >= 1")
        if n < 0:
            raise ParameterError("n must be >= 0")
        return super().__new__(cls, m, k, n)

    @classmethod
    def from_target(cls, n: int, epsilon: float) -> "FilterParams":
        """Choose m and k for n elements and target false-positive rate."""
        if n < 1:
            raise ParameterError("n must be >= 1")
        if not 0.0 < epsilon < 1.0:
            raise ParameterError("epsilon must lie in (0, 1)")
        m = math.ceil(-n * math.log(epsilon) / (_LN2 * _LN2))
        return cls(m=m, k=optimal_k(m, n), n=n)


def optimal_k(m: int, n: int) -> int:
    """(m/n)·ln 2 rounded to the nearest integer, clamped to at least 1."""
    if m < 1 or n < 1:
        raise ParameterError("m and n must be >= 1")
    return max(1, round((m / n) * _LN2))


class Universe:
    """Dense integer universe [0, size).

    Immutable, equal and hashed by size. Not a container: it has no length,
    iteration or ``in``; :meth:`contains` is the membership test, and
    :meth:`require_all` checks a whole collection in one C-level pass whose
    :class:`DomainError` names the first offender :meth:`require` would.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size < 1:
            raise ParameterError("universe size must be >= 1")
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable Universe")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable Universe")

    def __eq__(self, other):
        return self.size == other.size if type(other) is Universe else NotImplemented

    def __hash__(self):
        return hash(self.size)

    def __repr__(self):
        return f"Universe(size={self.size!r})"

    def __reduce__(self):  # copy and pickle rebuild through __init__, not __setattr__
        return Universe, (self.size,)

    def contains(self, x) -> bool:
        return isinstance(x, int) and 0 <= x < self.size

    def require(self, x) -> int:
        if not (isinstance(x, int) and 0 <= x < self.size):
            raise DomainError(f"element {x!r} outside universe [0, {self.size})")
        return x

    def require_all(self, xs):
        """``xs`` itself, a collection, once :meth:`require` passes each element."""
        if xs and not (all(map(isinstance, xs, repeat(int))) and min(xs) >= 0 and max(xs) < self.size):
            for x in xs:
                self.require(x)
        return xs

    def sample(self, rng: random.Random, n: int) -> list[int]:
        """``rng.sample(range(size), n)``: the same list, and ``rng`` left in the
        same state. Where that keeps a ``selected`` set (size above 21, or above
        ``21 + 4**ceil(log(3n, 4))`` for n > 5), an exact ``random.Random``
        draws inline by CPython's rule: ``getrandbits(size.bit_length())``,
        redrawn while >= size or selected. Otherwise, a subclass of ``Random``
        included, it calls ``rng.sample``."""
        size = self.size
        setsize = 21 + 4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 21
        if type(rng) is not random.Random or n < 0 or size <= setsize:
            return rng.sample(range(size), n)
        getrandbits, width = rng.getrandbits, size.bit_length()
        selected = {}  # insertion-ordered: the draws in selection order
        for _ in range(n):
            x = getrandbits(width)
            while x >= size or x in selected:
                x = getrandbits(width)
            selected[x] = None
        return list(selected)

    def sample_outside(self, rng: random.Random, excluded) -> int:
        """Uniform element not in ``excluded``: ``rng.randrange(size)``, redrawn
        while excluded. An exact ``random.Random`` draws it inline, as above."""
        size = self.size
        if len(excluded) >= size:
            raise ParameterError("excluded set covers the whole universe")
        plain = type(rng) is random.Random
        draw, arg = (rng.getrandbits, size.bit_length()) if plain else (rng.randrange, size)
        x = draw(arg)
        while x >= size or x in excluded:
            x = draw(arg)
        return x


class HashFamily:
    """Index derivation in one of the three modes.

    For ``true-random`` the key seeds an internal generator and the table
    ``memo`` holds the draws, so repeated derivation for the same element is
    stable. The first derivation fixes (m, k); reusing the family with other
    filter shapes is refused because the memoized draws would be meaningless.
    Families are equal when their mode, key, memo, generator state and bound
    shape are.
    """

    __slots__ = ("mode", "key", "memo", "_rng", "_shape", "_states")

    def __init__(self, mode: str, key: bytes = b""):
        if mode not in _MODES:
            raise ParameterError(f"unknown hash mode {mode!r}")
        key = bytes(key)
        if mode == PUBLIC and key:
            # Snapshots write no key for a public family, so a keyed one would restore wrong.
            raise ParameterError("a public hash family takes no key")
        if mode == KEYED_PRF and len(key) > blake2b.MAX_KEY_SIZE:
            raise ParameterError(f"a keyed-prf key must be at most {blake2b.MAX_KEY_SIZE} bytes")
        self.mode = mode
        self.key = key
        self.memo: dict[int, tuple[int, ...]] = {}
        self._rng = random.Random(key) if mode == TRUE_RANDOM else None
        self._shape = None
        # blake2b state for block b, keyed and fed <Q>(b); grown on demand to ceil(k/8).
        self._states = []

    def __eq__(self, other):
        if type(other) is not HashFamily:
            return NotImplemented
        a, b = self._rng, other._rng  # generators compare by state; None equals None
        return (all(getattr(self, name) == getattr(other, name) for name in ("mode", "key", "memo", "_shape"))
                and (a is b or None not in (a, b) and a.getstate() == b.getstate()))

    @classmethod
    def public(cls) -> "HashFamily":
        return cls(mode=PUBLIC, key=b"")

    @classmethod
    def keyed(cls, key: bytes | None = None) -> "HashFamily":
        if key is None:
            key = random.SystemRandom().randbytes(16)
        return cls(mode=KEYED_PRF, key=key)

    @classmethod
    def true_random(cls, seed: bytes | int | None = None, rng: random.Random | None = None) -> "HashFamily":
        if seed is None:
            seed = rng.randbytes(16) if rng is not None else random.SystemRandom().randbytes(16)
        if isinstance(seed, int):
            seed = seed.to_bytes(8, "little", signed=False)
        return cls(mode=TRUE_RANDOM, key=bytes(seed))

    def block_states(self, k: int) -> tuple:
        """The blake2b states of blocks 0 .. ceil(k/8)-1 of a public or keyed
        family: state b is keyed and has absorbed ``<Q>(b)``, so copying it and
        feeding it ``<Q>(x)`` gives block b of x. Grown on demand, never rebuilt."""
        blocks = (k + 7) >> 3
        states = self._states
        if len(states) < blocks:
            states.extend(blake2b(_WORD.pack(b), key=self.key, digest_size=64)
                          for b in range(len(states), blocks))
        return tuple(states[:blocks])

    def indices(self, x: int, m: int, k: int) -> tuple[int, ...]:
        """The k bit positions of x in an m-bit array.

        True-random derivation draws and memoizes all k indices, so its
        generator stream does not depend on which of them a caller tests.
        """
        if self.mode == TRUE_RANDOM:
            self._bind(m, k)
            return next(_memo_fill(self.memo, self._rng, m, k, (x,)))
        tail, got = _WORD.pack(x), []
        for b, state in enumerate(self.block_states(k)):
            h = state.copy()
            h.update(tail)
            got += [w % m for w in _WORDS[min(8, k - 8 * b)].unpack_from(h.digest())]
        return tuple(got)

    def _bind(self, m: int, k: int) -> None:
        """Fix a true-random family's (m, k), or refuse another one."""
        if self._shape is None:
            self._shape = (m, k)
        elif self._shape != (m, k):
            raise ParameterError("true-random family already bound to another (m, k)")


def _draws(rng, m: int, count: int) -> list[int]:
    """``count`` draws of ``rng.randrange(m)``, in order. An exact
    ``random.Random`` draws them inline by CPython's rule, getrandbits(m.bit_length())
    redrawn while >= m; any other sampler is asked for ``randrange(m)`` each time.
    True-random filters and the ideal-world simulator draw only through here."""
    draw, arg = (rng.getrandbits, m.bit_length()) if type(rng) is random.Random else (rng.randrange, m)
    draws = []
    for _ in range(count):
        j = draw(arg)
        while j >= m:
            j = draw(arg)
        draws.append(j)
    return draws


def _memo_fill(memo: dict, rng, m: int, k: int, elements) -> Iterator:
    """The memoized k indices of each element, in order. Those the memo lacks
    are drawn first, as one ``_draws`` stream in the order given: the draws of
    memoizing them one by one. Only ``BloomFilter.query`` fills a memo inline."""
    fresh = [x for x in elements if x not in memo]
    memo.update(zip(fresh, zip(*[iter(_draws(rng, m, len(fresh) * k))] * k)))
    return map(memo.__getitem__, elements)


def fresh_family(mode: str, rng: random.Random) -> HashFamily:
    """New family of the given mode with key material drawn from ``rng``:
    16 bytes for a keyed or true-random family, none for a public one."""
    return HashFamily(mode, rng.randbytes(16) if mode in (KEYED_PRF, TRUE_RANDOM) else b"")


def filter_factory(params: FilterParams, universe: Universe, mode: str = PUBLIC):
    """Per-trial builder ``make(members, rng)``: a fresh filter of the given
    hash mode, with any key material drawn from ``rng``."""

    def make(members, rng: random.Random) -> BloomFilter:
        return BloomFilter.build(members, params, fresh_family(mode, rng), universe)

    return make


class BloomFilter:
    """Bit-array filter; ``standard`` kind is insertable, others are static."""

    __slots__ = ("params", "family", "kind", "universe", "_bits", "_ones", "_m", "_blocks", "_memo")

    def __init__(self, params: FilterParams, family: HashFamily, universe: Universe, kind: str | None = None):
        self.params = params
        self.family = family
        self.universe = universe
        self.kind = kind if kind is not None else (
            KIND_STANDARD if family.mode == PUBLIC else KIND_PRF
        )
        if self.kind not in (KIND_STANDARD, KIND_PRF):
            raise ParameterError(f"a BloomFilter cannot be of kind {self.kind!r}")
        self._bits = bytearray((params.m + 7) // 8)
        self._ones = 0
        # What build and query derive indices with: m, and per block of the
        # family's k indices its pre-keyed state and the reader of its words.
        # None for true-random families, whose (m, k) is bound here instead.
        # _memo holds all k indices per element: the family's memo, the
        # shape's public table (public, u*k <= _TABLE_CAP) or None.
        self._m = params.m
        self._blocks = self._memo = None
        if family.mode == TRUE_RANDOM:
            family._bind(params.m, params.k)
            self._memo = family.memo
        else:
            self._blocks = tuple((state, _WORDS[min(8, params.k - 8 * b)])
                                 for b, state in enumerate(family.block_states(params.k)))
            if family.mode == PUBLIC and universe.size * params.k <= _TABLE_CAP:
                self._memo = _PUBLIC_INDICES.setdefault((params.m, params.k), {})

    @classmethod
    def build(cls, members, params: FilterParams, family: HashFamily, universe: Universe) -> "BloomFilter":
        """Construct the filter for a member set.

        Members are processed in sorted order so that identical
        (key, members, params) always yield bit-identical filters, including
        in true-random mode where derivation order matters. All members are
        checked first, in the order given, so a refused build names the first
        bad member and leaves the family untouched."""
        members = sorted(set(universe.require_all(list(members))))
        filt = cls(params, family, universe)
        m, k = params.m, params.k
        memo = filt._memo
        if filt._blocks is None:
            words = chain.from_iterable(_memo_fill(memo, family._rng, m, k, members))
        elif memo is not None:
            words = chain.from_iterable([memo.get(x) or memo.setdefault(x, family.indices(x, m, k))
                                         for x in members])
        else:
            states = [state for state, _ in filt._blocks]
            words = chain.from_iterable(_member_words(states, k, list(map(_WORD.pack, members))))
        filt._ones = _fill(filt._bits, m, words, len(members) * k * _DENSE >= m)
        return filt

    def insert(self, x: int) -> None:
        """Add one element; only the ``standard`` kind supports this."""
        if self.kind != KIND_STANDARD:
            raise UnsupportedOperationError(f"{self.kind} filters are static; insert is not supported")
        self.universe.require(x)
        self._ones += _fill(self._bits, self._m, self.family.indices(x, self._m, self.params.k), False)

    def query(self, x: int) -> int:
        """1 if every derived bit is set, else 0. Never mutates the bits.

        Keyed indices, and public ones over a universe of u·k > 2**15, are
        derived block by block from the bound states, and the first clear bit
        answers 0 before any later block is hashed. Every other query reads
        all k indices of x from a memo and derives them on a miss: a
        true-random one from the family's memo, drawing them; a public one
        from the process-wide table of its (m, k), hashing every block.
        """
        if not (isinstance(x, int) and 0 <= x < self.universe.size):
            self.universe.require(x)
        bits, memo = self._bits, self._memo
        if memo is not None:
            got = memo.get(x)
            if got is None:
                m, k = self._m, self.params.k
                got = memo[x] = (tuple(_draws(self.family._rng, m, k)) if self._blocks is None
                                 else self.family.indices(x, m, k))
            for j in got:
                if not bits[j >> 3] & (1 << (j & 7)):
                    return 0
            return 1
        tail, m = _WORD.pack(x), self._m
        for state, words in self._blocks:
            h = state.copy()
            h.update(tail)
            for w in words.unpack_from(h.digest()):
                j = w % m
                if not bits[j >> 3] & (1 << (j & 7)):
                    return 0
        return 1

    def popcount(self) -> int:
        return self._ones

    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        return self._ones / self.params.m

    def is_saturated(self) -> bool:
        """True when every bit is set, so every query answers 1."""
        return self._ones == self.params.m

    def bit_bytes(self) -> bytes:
        """The packed bit array alone, the filter's in-memory state."""
        return bytes(self._bits)

    def reveal(self) -> bytes:
        """Internal representation exposed to a reveal oracle: the bit array."""
        return self.bit_bytes()

    def to_bytes(self) -> bytes:
        """Snapshot of a public or keyed filter.

        True-random filters are refused: the layout has no room for the
        memoized index table, so a restored filter would answer with other
        indices and drop members.
        """
        if self.family.mode == TRUE_RANDOM:
            raise UnsupportedOperationError("true-random filters cannot be serialized")
        key = self.family.key if self.family.mode == KEYED_PRF else b""
        return _pack_snapshot(self.universe.size, self.params.m, self.params.k, self.kind, key,
                              bytes(self._bits))

    @classmethod
    def from_bytes(cls, blob: bytes, universe: Universe | None = None) -> "BloomFilter":
        """Restore a snapshot over the universe it records; a ``universe`` of
        another size is refused.

        ``ny-prp-wrapped`` snapshots must go through :meth:`NyFilter.from_bytes`.
        """
        universe, m, k, kind, key, bits = _unpack_snapshot(blob, universe)
        if kind == KIND_NY:
            raise ParameterError("ny-prp-wrapped snapshot: use NyFilter.from_bytes")
        # The key field decides the hash: an insertable (standard) filter may be keyed.
        family = HashFamily.keyed(key) if key else HashFamily.public()
        return cls._over_bits(m, k, family, universe, kind, bits)

    @classmethod
    def _over_bits(cls, m: int, k: int, family: HashFamily, universe: Universe, kind: str,
                   bits: bytes) -> "BloomFilter":
        """The filter whose bit array is ``bits``, packed as in a snapshot. It
        must be the (m + 7) // 8 bytes of m bits; any other length is refused,
        and so is a set bit at a position >= m, which no query reads and which
        would count towards the popcount and the fill ratio."""
        if len(bits) != (m + 7) // 8:
            raise ParameterError(f"bit array has the wrong length for m = {m}")
        if m & 7 and bits[-1] >> (m & 7):
            raise ParameterError(f"bit array sets bits at positions >= m = {m}")
        filt = cls(FilterParams(m=m, k=k, n=0), family, universe, kind=kind)
        filt._bits = bytearray(bits)
        filt._ones = _popcount(bits)
        return filt


def _member_words(states, k: int, tails: list) -> Iterator:
    """The words of indices 0 .. k-1 of every tail, a member as ``<Q>(x)``.

    Per run of up to ``_RUN`` tails and per block, every tail of the run is
    hashed from a copy of the block's state and the joined digests are read
    with one unpack; then, for each index of the block, that word of every
    tail is yielded as one array."""
    for lo in range(0, len(tails), _RUN):
        run = tails[lo:lo + _RUN]
        for b, state in enumerate(states):
            blake2b = type(state)
            hs = list(map(blake2b.copy, repeat(state, len(run))))
            deque(map(blake2b.update, hs, run), 0)
            words = array("Q", b"".join(map(blake2b.digest, hs)))
            if sys.byteorder == "big":
                words.byteswap()
            for i in range(min(8, k - 8 * b)):
                yield words[i::8]


def _fill(bits: bytearray, m: int, words, dense: bool) -> int:
    """Set bit ``w % m`` for every word; return how many were newly set. A
    ``dense`` fill of an all-zero array sets one byte per bit, b"0" or b"1":
    reversed, flag j is the digit of 2**j in a base-2 numeral whose value is
    the packed array."""
    if dense:
        flags = bytearray(b"0") * m
        for w in words:
            flags[w % m] = 0x31
        flags.reverse()
        packed = int(flags, 2)
        bits[:] = packed.to_bytes(len(bits), "little")
        return packed.bit_count()
    ones = 0
    for w in words:
        j = w % m
        byte, bit = j >> 3, 1 << (j & 7)
        if not bits[byte] & bit:
            bits[byte] |= bit
            ones += 1
    return ones


def _popcount(bits: bytes) -> int:
    """Number of set bits in a packed bit array."""
    return int.from_bytes(bits, "little").bit_count()


def _pack_snapshot(size: int, m: int, k: int, kind: str, key: bytes, bits: bytes) -> bytes:
    """The snapshot of a filter over a universe of ``size`` elements."""
    for field, value, width in (("universe size", size, 64), ("m", m, 32), ("k", k, 16),
                                ("key length", len(key), 16)):
        if value >> width:
            raise UnsupportedOperationError(
                f"{field} = {value} does not fit the snapshot's u{width} {field} field")
    return MAGIC + _HEAD.pack(FORMAT_VERSION, size, m, k, _KIND_CODES[kind], len(key)) + key + bits


def _unpack_snapshot(blob: bytes, universe: Universe | None):
    """(universe, m, k, kind, key, bits) of a snapshot: the universe it
    records, or ``universe`` when that has the recorded size. The restore,
    ``BloomFilter._over_bits``, checks the length of the bits."""
    if len(blob) < 5 or blob[:4] != MAGIC:
        raise ParameterError("not a filter snapshot (bad magic)")
    if blob[4] != FORMAT_VERSION:
        raise ParameterError(f"unsupported snapshot version {blob[4]}")
    if len(blob) < KEY_OFFSET:
        raise ParameterError("snapshot header is truncated")
    _, size, m, k, kind_code, key_len = _HEAD.unpack_from(blob, 4)
    if kind_code not in _KIND_NAMES:
        raise ParameterError(f"unknown filter kind code {kind_code}")
    key = bytes(blob[KEY_OFFSET:KEY_OFFSET + key_len])
    bits = bytes(blob[KEY_OFFSET + key_len:])
    if universe is None:
        universe = Universe(size)
    elif universe.size != size:
        # Under another size a permutation-wrapped filter drops its members.
        raise ParameterError(f"snapshot records a universe of {size} elements, not {universe.size}")
    return universe, m, k, _KIND_NAMES[kind_code], key, bits


class NyFilter:
    """Static filter that routes elements through a keyed permutation.

    Queries permute the element and consult the inner filter, so membership
    behaves exactly like the inner filter on permuted elements. Without the
    key the bit positions reveal nothing about which elements were encoded.
    """

    __slots__ = ("inner", "prp", "universe")

    kind = KIND_NY

    def __init__(self, inner: BloomFilter, prp: FeistelPermutation, universe: Universe):
        self.inner = inner
        self.prp = prp
        self.universe = universe

    @classmethod
    def build(cls, members, params: FilterParams, prp_key: bytes, universe: Universe,
              family: HashFamily | None = None) -> "NyFilter":
        prp = FeistelPermutation(prp_key, universe.size)
        permuted = set(map(prp.encrypt, universe.require_all(set(members))))
        inner = BloomFilter.build(permuted, params, family or HashFamily.public(), universe)
        return cls(inner, prp, universe)

    @property
    def params(self) -> FilterParams:
        return self.inner.params

    def query(self, x: int) -> int:
        if not (isinstance(x, int) and 0 <= x < self.universe.size):
            self.universe.require(x)
        return self.inner.query(self.prp.encrypt(x))

    def insert(self, x: int) -> None:
        raise UnsupportedOperationError("ny-prp-wrapped filters are static; insert is not supported")

    def is_saturated(self) -> bool:
        return self.inner.is_saturated()

    def to_bytes(self) -> bytes:
        """Snapshot carrying the permutation key; the inner family must be public.

        The layout has one key field, which holds the permutation key, and
        restoring assumes a public inner hash; any other inner family is
        refused rather than restored into a filter that drops members.
        """
        if self.inner.family.mode != PUBLIC:
            raise UnsupportedOperationError(
                f"ny-prp-wrapped filters with a {self.inner.family.mode} inner family cannot be serialized"
            )
        return _pack_snapshot(self.universe.size, self.inner.params.m, self.inner.params.k, KIND_NY,
                              self.prp.key, self.inner.bit_bytes())

    @classmethod
    def from_bytes(cls, blob: bytes, universe: Universe | None = None) -> "NyFilter":
        """Restore a snapshot over the universe it records. A ``universe`` of
        another size is refused: under it the permutation would differ and
        members would answer 0."""
        universe, m, k, kind, key, bits = _unpack_snapshot(blob, universe)
        if kind != KIND_NY:
            raise ParameterError(f"snapshot holds a {kind} filter, not ny-prp-wrapped")
        inner = BloomFilter._over_bits(m, k, HashFamily.public(), universe, KIND_STANDARD, bits)
        return cls(inner, FeistelPermutation(key, universe.size), universe)


class FprEstimate(namedtuple("FprEstimate", "rate ci_lo ci_hi expected builds queries")):
    """Monte Carlo false-positive rate averaged over independent builds."""

    __slots__ = ()


def expected_fpr(params: FilterParams, n_effective: float | None = None) -> float:
    """Classic approximation (1 - e^{-kn/m})^k."""
    n = params.n if n_effective is None else n_effective
    if n < 0:
        raise ParameterError("effective cardinality must be >= 0")
    return (1.0 - math.exp(-params.k * n / params.m)) ** params.k


def estimate_fpr(params: FilterParams, universe: Universe, mode: str,
                 builds: int, queries: int, seed: int) -> FprEstimate:
    """Estimate the non-member positive rate over several fresh builds.

    The total query budget is spread evenly across builds because a single
    build's realized rate fluctuates with its fill; the closed form is an
    expectation over builds.
    """
    if builds < 1 or queries < builds:
        raise ParameterError("need builds >= 1 and queries >= builds")
    if params.n + 1 > universe.size:
        raise ParameterError("universe too small for n members plus a non-member")
    per_build = queries // builds
    size = universe.size
    width = size.bit_length()
    hits = 0
    total = 0
    for b in range(builds):
        rng = random.Random(mix_seed(seed, "fpr-build", b))
        members = set(universe.sample(rng, params.n))
        query = BloomFilter.build(members, params, fresh_family(mode, rng), universe).query
        # Universe.sample_outside, drawn inline as it draws for a plain Random.
        getrandbits = rng.getrandbits
        for _ in range(per_build):
            x = getrandbits(width)
            while x >= size or x in members:
                x = getrandbits(width)
            hits += query(x)
        total += per_build
    lo, hi = wilson_interval(hits, total)
    return FprEstimate(
        rate=hits / total, ci_lo=lo, ci_hi=hi,
        expected=expected_fpr(params), builds=builds, queries=total,
    )
