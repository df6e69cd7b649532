"""Bloom filters over dense integer universes.

Three hashing modes share one filter implementation:

* ``public``: unkeyed blake2b, computable by anyone. The classic filter.
* ``keyed-prf``: blake2b keyed with a secret; every bit position is a 64-bit
  keyed-PRF output reduced mod m. The modulo bias is below 2**-50 for any m
  of interest and is accepted.
* ``true-random``: a lazily memoized table of uniform index draws, giving an
  exact truly random function at the scales studied here.

Counts must be ints and keys bytes: anything else, a bool count or an int
key too, is refused with :class:`ParameterError`.

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
A :class:`BloomFilter` that hashes per query (a keyed one, or a public one
past the table gate below) binds those states for its k, and m, once at
construction, and derives indices from them without a call into the family.
``query`` copies each state and feeds it ``<Q>(x)``, and owns the early exit:
it tests each index as it is derived and returns 0 at the first clear bit,
skipping any later block. ``build`` derives the words of all members block by
block, in one pass per block and run of up to 1024 members: a copy of the
block's state per member, and one array of their joined digests, whose words
past the block's indices are deleted in C, so the run's words for the block
are one flat array. A true-random filter binds its (m, k) to the family
instead. A filter holds its bits as m flags, one byte each, 0 or 1, so a bit
test is one index. ``_pack`` and ``_unpack``, each an O(m) pass in C (the
README gives the timings), convert them to the snapshot layout below only
where bytes leave (``bit_bytes``, ``reveal``, ``to_bytes``) or a restore
enters. ``is_saturated`` looks for a 0 flag. One
memo fill, ``_memo_fill``, draws the indices of every element a memo lacks
in one read and returns the k indices of every element as one flat sequence,
which is those draws themselves when the memo lacked them all: ``build`` and
``HashFamily.indices`` fill the family's memo through it, and the
ideal-world simulator of :mod:`bloomlab.filic` its f. ``build`` and the
simulator set their bits from that sequence; ``query`` draws only
on a memo miss, and only while a bit is clear: a saturated true-random
filter answers a miss 1 without drawing or memoizing. Every draw is
``DrawStream.below(m, ...)`` of :mod:`bloomlab.stats` on the family's
counter-mode stream: block c is ``blake2b(<Q>(c), key=key, digest_size=64,
person=b"true-random")``, and an index reads the next ceil(w/8) bytes,
w = (m - 1).bit_length(), as a little-endian integer, keeps its low w bits
and is drawn again while >= m. ``build`` checks a set or
frozenset of members as it is, and copies any other collection into a list
and a set first. Only a true-random build sorts its members, since there
their order is the draw stream; a public or keyed filter's bits are an OR
over its members, so those builds hash them in set order.

``Universe.require_all`` remembers a frozenset that passed, by identity,
in ``_CHECKED``: the one memo of checked member sets, which the
perturbations of :mod:`bloomlab.privacy` share under their own keys. So a
game's build does not check again the set ``choose_members`` checked.

Public indices are keyless, a fixed function of (x, m, k), so a public
filter over a universe of u elements with u·k <= 2**15 reads them from a
memo as a true-random one does: one process-wide table per shape (m, k),
``_PUBLIC_INDICES``, mapping an element to all k of its indices. Such a
filter binds no block states: ``query`` and ``build`` fill a missing entry
through :meth:`HashFamily.indices`, whose states the family builds at its
first miss, hashing every block, so a query under the gate that misses no
longer stops at the first clear bit. A table holds at most u entries, 2**15
indices; the README gives its measured size. Keyed filters, and public ones
over larger universes, hash per query as above.

``NyFilter`` wraps an inner filter with a keyed permutation so that the bit
array seen by an adversary carries no usable structure about the elements.
It is static: inserts are refused. The permutation is a four-round Feistel
network whose rounds read w-byte fields of 64-byte keyed digests, the block
idiom above (:mod:`bloomlab.feistel`); over a universe of at most 2**16
elements each round is a table, so an element is permuted by four byte
lookups, and the tables of the last (key, size) are reused by the next
permutation of that key and size. ``_feistel`` imports the permutation
class at the first permutation made. A query permutes x to y and asks the
inner ``query``, which refuses a y outside the inner universe.
``sample_positive``, the reveal-oracle adversary's scan, calls no ``query``
per draw: it permutes each through ``_encrypt_block`` and the cycle walk, and
tests y's k indices itself where the inner memo (true-random, or public
under the gate) holds them; anything else goes to the inner ``query``.
Families, filters and permutations copy and pickle, and make the blake2b
states they cache again on demand.

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
position >= m, which the filter has no flag for. Filters
whose state the layout cannot carry (true-random filters, ``ny-prp-wrapped``
filters over a non-public inner family, and a universe size of 2**64 or
more, an m of 2**32 or more, or a k or key length of 2**16 or more, which
its fields cannot hold) refuse to serialize with
:class:`UnsupportedOperationError`.

Older versions are refused with :class:`ParameterError` rather than restored
into a filter that answers 0 for members; the README says how each differs.
"""

from __future__ import annotations

import functools
import math
import random
import struct
import sys
from array import array
from collections import deque, namedtuple
from collections.abc import Iterator
from itertools import chain, repeat

from .errors import DomainError, ParameterError, UnsupportedOperationError, _require_ints
from .stats import DrawStream, blake2b, run_trials, wilson_interval

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
# Flag bytes to base-2 digits and back, for _pack and _unpack.
_DIGITS = bytes.maketrans(b"\0\1", b"01")
_FLAGS = bytes.maketrans(b"01", b"\0\1")
# Per shape (m, k), the k public indices of each element that a public filter
# over a universe of u*k <= _TABLE_CAP has built or queried.
_PUBLIC_INDICES: dict[tuple[int, int], dict[int, tuple[int, ...]]] = {}
_TABLE_CAP = 1 << 15
# Frozensets that passed a check, each under the key of that check: (xs, size)
# for Universe.require_all, (members, size, mode, p) for the perturbations of
# the privacy module. A hit must be the same object: an equal frozenset may
# hold 0.0 for 0. Cleared when full; an audit uses four entries.
_CHECKED: dict[tuple, frozenset] = {}
_CHECKED_MAX = 8


class FilterParams(namedtuple("FilterParams", "m k n")):
    """Size parameters: m bits, k hash functions, n expected insertions."""

    __slots__ = ()

    def __new__(cls, m: int, k: int, n: int):
        _require_ints(m=m, k=k, n=n)
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
    _require_ints(m=m, n=n)
    if m < 1 or n < 1:
        raise ParameterError("m and n must be >= 1")
    return max(1, round((m / n) * _LN2))


class Universe:
    """Dense integer universe [0, size).

    Immutable, equal and hashed by size. Not a container: it has no length,
    iteration or ``in``; :meth:`contains` is the membership test, and
    :meth:`require_all` checks a whole collection in one C-level pass whose
    :class:`DomainError` names the first offender :meth:`require` would. A
    frozenset that passed is remembered in the module's ``_CHECKED`` and not
    checked again under the same size.
    """

    __slots__ = ("size",)

    def __init__(self, size: int):
        _require_ints(**{"universe size": size})
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
        """``xs`` itself, a collection, once :meth:`require` passes each element.
        A frozenset that passed under this size is remembered, and that same
        object is not checked again; an equal one is."""
        key = None
        if type(xs) is frozenset:
            key = (xs, self.size)
            if _CHECKED.get(key) is xs:
                return xs
        if xs and not (all(map(isinstance, xs, repeat(int))) and min(xs) >= 0 and max(xs) < self.size):
            for x in xs:
                self.require(x)
        if key is not None:
            _remember_checked(key, xs)
        return xs

    def sample(self, rng: random.Random, n: int) -> list[int]:
        """``rng.sample(range(size), n)``: the same list, and ``rng`` left in the
        same state. Where that keeps a ``selected`` set (size above 21, or above
        ``21 + 4**ceil(log(3n, 4))`` for n > 5), it draws inline by CPython's
        rule: ``getrandbits(size.bit_length())``, redrawn while >= size or
        selected. Otherwise it calls ``rng.sample``."""
        size = self.size
        setsize = 21 + 4 ** math.ceil(math.log(n * 3, 4)) if n > 5 else 21
        if n < 0 or size <= setsize:
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
        while excluded, drawn inline by the rule above. Refused when
        ``excluded`` holds every element of the universe; elements outside it
        do not count."""
        size = self.size
        if len(excluded) >= size and all(map(excluded.__contains__, range(size))):
            raise ParameterError("excluded set covers the whole universe")
        getrandbits, width = rng.getrandbits, size.bit_length()
        x = getrandbits(width)
        while x >= size or x in excluded:
            x = getrandbits(width)
        return x


class HashFamily:
    """Index derivation in one of the three modes.

    For ``true-random`` the key keys a draw stream (:class:`bloomlab.stats.DrawStream`,
    personalised ``b"true-random"``), whose draws below m are the indices,
    and the table ``memo`` holds them, so repeated derivation for the same
    element is stable. The first derivation fixes (m, k); reusing the family
    with other filter shapes is refused because the memoized draws would be
    meaningless. Families are equal when their mode, key, memo, bound shape
    and stream position are; a true-random family copies and pickles partway
    through its stream and goes on with the same draws. A key that is not
    ``bytes`` or a ``bytearray`` is refused, and so is a keyed-prf or
    true-random key longer than ``blake2b.MAX_KEY_SIZE``.
    """

    __slots__ = ("mode", "key", "memo", "_stream", "_shape", "_states")

    def __init__(self, mode: str, key: bytes = b""):
        if mode not in _MODES:
            raise ParameterError(f"unknown hash mode {mode!r}")
        if not isinstance(key, (bytes, bytearray)):
            raise ParameterError(f"a hash family key must be bytes, not {type(key).__name__}")
        key = bytes(key)
        if mode == PUBLIC and key:
            # Snapshots write no key for a public family, so a keyed one would restore wrong.
            raise ParameterError("a public hash family takes no key")
        if mode != PUBLIC and len(key) > blake2b.MAX_KEY_SIZE:
            raise ParameterError(f"a {mode} key must be at most {blake2b.MAX_KEY_SIZE} bytes")
        self.mode = mode
        self.key = key
        self.memo: dict[int, tuple[int, ...]] = {}
        self._stream = DrawStream(key, b"true-random") if mode == TRUE_RANDOM else None
        self._shape = None
        # blake2b state for block b, keyed and fed <Q>(b); grown on demand to ceil(k/8).
        self._states = []

    def __eq__(self, other):
        if type(other) is not HashFamily:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name)
                   for name in ("mode", "key", "memo", "_shape", "_stream"))

    def __reduce__(self):
        """Mode, key, memo, stream and shape; blake2b states do not pickle."""
        state = {"memo": self.memo, "_stream": self._stream, "_shape": self._shape}
        return HashFamily, (self.mode, self.key), (None, state)

    @classmethod
    def public(cls) -> "HashFamily":
        return cls(mode=PUBLIC, key=b"")

    @classmethod
    def keyed(cls, key: bytes) -> "HashFamily":
        return cls(mode=KEYED_PRF, key=key)

    @classmethod
    def true_random(cls, seed: bytes | int) -> "HashFamily":
        """A true-random family keyed by ``seed``: bytes as given, an int in
        [0, 2**64) as its 8 little-endian bytes. A bool is not a seed, and
        bytes longer than ``blake2b.MAX_KEY_SIZE`` (64) are refused with
        :class:`ParameterError`, as a keyed-prf key is."""
        if isinstance(seed, int):
            if type(seed) is not int or not 0 <= seed < 1 << 64:
                raise ParameterError(f"a true-random seed must be bytes or an int in [0, 2**64), not {seed!r}")
            seed = seed.to_bytes(8, "little")
        return cls(mode=TRUE_RANDOM, key=seed)

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
        stream position does not depend on which of them a caller tests.
        """
        if self.mode == TRUE_RANDOM:
            self._bind(m, k)
            return tuple(_memo_fill(self.memo, self._stream, m, k, (x,)))
        words = chain.from_iterable(_member_words(self.block_states(k), k, [_WORD.pack(x)]))
        return tuple([w % m for w in words])

    def _bind(self, m: int, k: int) -> None:
        """Fix a true-random family's (m, k), or refuse another one."""
        if self._shape is None:
            self._shape = (m, k)
        elif self._shape != (m, k):
            raise ParameterError("true-random family already bound to another (m, k)")


def _remember_checked(key: tuple, xs: frozenset) -> None:
    """Remember ``xs`` as passed under ``key``, clearing a full ``_CHECKED`` first."""
    if len(_CHECKED) >= _CHECKED_MAX:
        _CHECKED.clear()
    _CHECKED[key] = xs


def _memo_fill(memo: dict, stream: DrawStream, m: int, k: int, elements):
    """The memoized k indices of each of the distinct ``elements``, as one
    flat sequence in order. Those the memo lacks are drawn first, as one
    ``stream.below(m, ...)`` read in the order given: the draws of memoizing
    them one by one. When the memo lacks them all, those draws are returned.
    Only ``BloomFilter.query`` fills a memo inline."""
    fresh = [x for x in elements if x not in memo] if memo else elements
    draws = stream.below(m, len(fresh) * k)
    memo.update(zip(fresh, zip(*[iter(draws)] * k)))
    if len(fresh) == len(elements):
        return draws
    return [j for x in elements for j in memo[x]]


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

    __slots__ = ("params", "family", "kind", "universe", "_flags", "_m", "_blocks", "_memo")

    def __init__(self, params: FilterParams, family: HashFamily, universe: Universe, kind: str | None = None):
        self.params = params
        self.family = family
        self.universe = universe
        self.kind = kind if kind is not None else (
            KIND_STANDARD if family.mode == PUBLIC else KIND_PRF
        )
        if self.kind not in (KIND_STANDARD, KIND_PRF):
            raise ParameterError(f"a BloomFilter cannot be of kind {self.kind!r}")
        self._flags = bytearray(params.m)  # flag j is bit j, 0 or 1
        # _memo holds all k indices per element: the family's memo for a
        # true-random family, whose (m, k) is bound here; the shape's public
        # table for a public one with u*k <= _TABLE_CAP; else None. Only a
        # filter without a memo hashes per query, so only it binds _blocks:
        # per block of its k indices, the pre-keyed state and the reader of
        # its words. A memo miss derives through family.indices instead.
        self._m = params.m
        self._blocks = self._memo = None
        if family.mode == TRUE_RANDOM:
            family._bind(params.m, params.k)
            self._memo = family.memo
        elif family.mode == PUBLIC and universe.size * params.k <= _TABLE_CAP:
            self._memo = _PUBLIC_INDICES.setdefault((params.m, params.k), {})
        else:
            self._blocks = tuple((state, _WORDS[min(8, params.k - 8 * b)])
                                 for b, state in enumerate(family.block_states(params.k)))

    def __reduce__(self):
        """Rebuilt through ``__init__``, which binds memo or states again."""
        return type(self), (self.params, self.family, self.universe, self.kind), (None, {"_flags": self._flags})

    @classmethod
    def build(cls, members, params: FilterParams, family: HashFamily, universe: Universe) -> "BloomFilter":
        """Construct the filter for a member set.

        Identical (key, members, params) always yield bit-identical filters. A
        true-random build draws its members' indices in sorted order, since
        there the order is the draw stream; a public or keyed filter's bits
        are an OR over its members, so it hashes them in set order. All
        members are checked first, in the order given, so a refused build
        names the first bad member and leaves the family untouched; a
        frozenset that passed the same check before is not checked again."""
        if type(members) in (set, frozenset):
            members = universe.require_all(members)
        else:
            members = set(universe.require_all(list(members)))
        filt = cls(params, family, universe)
        m, k = params.m, params.k
        memo = filt._memo
        if family.mode == TRUE_RANDOM:
            words = _memo_fill(memo, family._stream, m, k, sorted(members))
        elif memo is not None:
            words = chain.from_iterable([memo.get(x) or memo.setdefault(x, family.indices(x, m, k))
                                         for x in members])
        else:
            states = [state for state, _ in filt._blocks]
            words = chain.from_iterable(_member_words(states, k, list(map(_WORD.pack, members))))
        _fill(filt._flags, m, words)
        return filt

    def insert(self, x: int) -> None:
        """Add one element; only the ``standard`` kind supports this."""
        if self.kind != KIND_STANDARD:
            raise UnsupportedOperationError(f"{self.kind} filters are static; insert is not supported")
        self.universe.require(x)
        _fill(self._flags, self._m, self.family.indices(x, self._m, self.params.k))

    def query(self, x: int) -> int:
        """1 if every derived bit is set, else 0. Never mutates the bits.

        Keyed indices, and public ones over a universe of u·k > 2**15, are
        derived block by block from the bound states, and the first clear bit
        answers 0 before any later block is hashed. Every other query reads
        all k indices of x from a memo and derives them on a miss: a
        true-random one from the family's memo, drawing them; a public one
        from the process-wide table of its (m, k), hashing every block.
        A saturated true-random filter answers a miss 1 without drawing:
        no answer depends on those indices, so x stays unmemoized and a
        later derivation draws them then.
        """
        if not (isinstance(x, int) and 0 <= x < self.universe.size):
            self.universe.require(x)
        flags, memo = self._flags, self._memo
        if memo is not None:
            got = memo.get(x)
            if got is None:
                family = self.family
                if family.mode != TRUE_RANDOM:
                    got = memo[x] = family.indices(x, self._m, self.params.k)
                elif 0 not in flags:
                    return 1
                else:
                    got = memo[x] = tuple(family._stream.below(self._m, self.params.k))
            for j in got:
                if not flags[j]:
                    return 0
            return 1
        tail, m = _WORD.pack(x), self._m
        for state, words in self._blocks:
            h = state.copy()
            h.update(tail)
            for w in words.unpack_from(h.digest()):
                if not flags[w % m]:
                    return 0
        return 1

    def sample_positive(self, rng: random.Random, excluded, tries: int) -> int | None:
        """A positive found by sampling: the first of ``tries`` draws of
        ``rng.randrange(u)``, drawn as :meth:`Universe.sample_outside` draws
        them, that is not in ``excluded`` and that the filter answers 1 for;
        None when no draw is."""
        return _sample_positive(self.query, self.universe.size, rng, excluded, tries)

    def popcount(self) -> int:
        return _popcount(self._flags)

    def fill_ratio(self) -> float:
        """Fraction of set bits."""
        return _popcount(self._flags) / self.params.m

    def is_saturated(self) -> bool:
        """True when every bit is set, so every query answers 1."""
        return 0 not in self._flags

    def bit_bytes(self) -> bytes:
        """The filter's bits packed as in a snapshot: bit j at byte j >> 3,
        bit 1 << (j & 7)."""
        return _pack(self._flags)

    # Internal representation exposed to a reveal oracle: the bit array.
    reveal = bit_bytes

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
                              _pack(self._flags))

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
        """The filter whose bit array is ``bits``, packed as in a snapshot and
        unpacked here into its flags. It must be the (m + 7) // 8 bytes of m
        bits; any other length is refused, and so is a set bit at a position
        >= m, which no query reads and which the filter has no flag for."""
        if len(bits) != (m + 7) // 8:
            raise ParameterError(f"bit array has the wrong length for m = {m}")
        if m & 7 and bits[-1] >> (m & 7):
            raise ParameterError(f"bit array sets bits at positions >= m = {m}")
        filt = cls(FilterParams(m=m, k=k, n=0), family, universe, kind=kind)
        filt._flags = _unpack(bits, m)
        return filt


def _sample_positive(query, size: int, rng, excluded, tries: int) -> int | None:
    """``sample_positive`` through ``query``: each draw a call."""
    getrandbits, width = rng.getrandbits, size.bit_length()
    for _ in range(tries):
        x = getrandbits(width)
        while x >= size:
            x = getrandbits(width)
        if x not in excluded and query(x):
            return x
    return None


def _member_words(states, k: int, tails: list) -> Iterator[array]:
    """The words of indices 0 .. k-1 of every tail, a member as ``<Q>(x)``.

    Per run of up to ``_RUN`` tails and per block, every tail of the run is
    hashed from a copy of the block's state and the joined digests are read
    as one array of 8 words per tail. Its words past the block's r = min(8,
    k - 8b) indices are deleted in C, one strided deletion per width from 8
    down to r + 1, and the array, r words per tail, is yielded."""
    for lo in range(0, len(tails), _RUN):
        run = tails[lo:lo + _RUN]
        for b, state in enumerate(states):
            blake2b = type(state)
            hs = list(map(blake2b.copy, repeat(state, len(run))))
            deque(map(blake2b.update, hs, run), 0)
            words = array("Q", b"".join(map(blake2b.digest, hs)))
            if sys.byteorder == "big":
                words.byteswap()
            for w in range(8, min(8, k - 8 * b), -1):
                del words[w - 1::w]
            yield words


def _fill(flags: bytearray, m: int, words) -> None:
    """Set flag ``w % m`` for every word."""
    for w in words:
        flags[w % m] = 1


def _popcount(bits: bytes) -> int:
    """Number of set bits in a packed bit array, or of set flags in a flag array."""
    return int.from_bytes(bits, "little").bit_count()


def _pack(flags: bytearray) -> bytes:
    """The m flags packed as in a snapshot. Reversed, flag j is the digit of
    2**j in a base-2 numeral whose value is the packed array."""
    return int(flags[::-1].translate(_DIGITS), 2).to_bytes((len(flags) + 7) >> 3, "little")


def _unpack(bits: bytes, m: int) -> bytearray:
    """The m flags of a packed array that sets no bit at a position >= m. The
    set bit m makes the base-2 numeral m + 1 digits long, and the reversal
    drops it."""
    return bytearray(format(int.from_bytes(bits, "little") | 1 << m, "b")[:0:-1], "ascii").translate(_FLAGS)


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
    ``prp`` is a :class:`bloomlab.feistel.FeistelPermutation`, a module
    imported only where a permutation is first made, so runs without one
    never load it.
    """

    __slots__ = ("inner", "prp", "universe")

    kind = KIND_NY

    def __init__(self, inner: BloomFilter, prp, universe: Universe):
        self.inner = inner
        self.prp = prp
        self.universe = universe

    @classmethod
    def build(cls, members, params: FilterParams, prp_key: bytes, universe: Universe,
              family: HashFamily | None = None) -> "NyFilter":
        prp = _feistel()(prp_key, universe.size)
        permuted = set(map(prp.encrypt, universe.require_all(set(members))))
        inner = BloomFilter.build(permuted, params, family or HashFamily.public(), universe)
        return cls(inner, prp, universe)

    @property
    def params(self) -> FilterParams:
        return self.inner.params

    def query(self, x: int) -> int:
        """``inner.query(prp.encrypt(x))``, once x is checked against this
        filter's universe; ``inner.query`` refuses an image outside its own."""
        if not (isinstance(x, int) and 0 <= x < self.universe.size):
            self.universe.require(x)
        return self.inner.query(self.prp.encrypt(x))

    def sample_positive(self, rng: random.Random, excluded, tries: int) -> int | None:
        """:meth:`BloomFilter.sample_positive` with no ``query`` per draw: each is
        permuted as ``prp.encrypt`` permutes it and tested on the inner memo
        where that holds the image; ``inner.query`` answers any other image.
        A universe larger than the permutation's domain samples via ``query``."""
        prp, inner, size = self.prp, self.inner, self.universe.size
        if size > prp.size:
            return _sample_positive(self.query, size, rng, excluded, tries)
        encrypt, prp_size, flags, inner_size = prp._encrypt_block, prp.size, inner._flags, inner.universe.size
        lookup = inner._memo.get if inner._memo is not None else {}.get
        getrandbits, width = rng.getrandbits, size.bit_length()
        for _ in range(tries):
            x = getrandbits(width)
            while x >= size:
                x = getrandbits(width)
            if x in excluded:
                continue
            y = encrypt(x)
            while y >= prp_size:
                y = encrypt(y)
            got = lookup(y) if y < inner_size else None
            if got is None:
                if inner.query(y):
                    return x
                continue
            for j in got:
                if not flags[j]:
                    break
            else:
                return x
        return None

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
        return cls(inner, _feistel()(key, universe.size), universe)


@functools.cache
def _feistel() -> type:
    """:class:`bloomlab.feistel.FeistelPermutation`, imported at the first call."""
    from .feistel import FeistelPermutation

    return FeistelPermutation


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

    The interval is the 99% Wilson score interval of the pooled hits over
    all queries. It treats every query as independent, but the queries on
    one build share its fill, so it ignores this clustering by build and
    is too narrow once the queries per build grow.
    """
    _require_ints(queries=queries)
    make = filter_factory(params, universe, mode)
    size = universe.size
    width = size.bit_length()

    def build_hits(s: int) -> int:
        rng = random.Random(s)
        members = set(universe.sample(rng, params.n))
        query = make(members, rng).query
        # Universe.sample_outside, drawn inline.
        getrandbits = rng.getrandbits
        hits = 0
        for _ in range(per_build):
            x = getrandbits(width)
            while x >= size or x in members:
                x = getrandbits(width)
            hits += query(x)
        return hits

    build_results = run_trials(build_hits, seed, "fpr-build", builds)  # refuses a bad build count
    if queries < builds:
        raise ParameterError("need queries >= builds")
    if params.n + 1 > universe.size:
        raise ParameterError("universe too small for n members plus a non-member")
    per_build = queries // builds  # read by build_hits, which runs only in the sum
    hits = sum(build_results)
    total = per_build * builds
    lo, hi = wilson_interval(hits, total)
    return FprEstimate(
        rate=hits / total, ci_lo=lo, ci_hi=hi,
        expected=expected_fpr(params), builds=builds, queries=total,
    )
