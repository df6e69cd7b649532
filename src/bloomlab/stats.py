"""Small statistics and seeding helpers used by experiments and the CLI.

Per-trial seeds are derived from a 64-bit master seed, an experiment tag and
the trial index with ``mix_seed``, so trials are reproducible individually
and could be executed out of order or in parallel without changing results.
Every Monte Carlo estimator runs its trials through ``run_trials``, which
derives them with ``seed_stream``: the master seed and tag are absorbed once.
"""

from __future__ import annotations

import math
import struct

from .errors import ParameterError, _require_ints

try:  # _blake2 alone, as random imports _sha512: hashlib loads OpenSSL too. Used by filters, feistel, privacy.
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
