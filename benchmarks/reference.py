"""A fixed reference loop that measures how fast the host runs right now.

On a shared host the speed of one core drifts by up to a factor of two over
minutes, so the median wall time of a 30-second run moves by 40% from run to
run, while the ratio of a pass's time to that of this loop, run next to it,
moves by about 5%. The benchmark therefore scales every end-to-end time by
``REFERENCE_S / reference_seconds()`` measured around it: the result reads as
seconds on a host where this loop takes ``REFERENCE_S``.

The loop mixes the operations bloomlab spends its time on: keyed blake2b
digests of packed integer pairs, modular reduction, bit tests in a bytearray,
set membership, Mersenne Twister draws and big-integer products. It uses no
bloomlab code, so a change to the program moves the pass time and not the
reference.
"""

from __future__ import annotations

import hashlib
import _random
import struct
import time

# Nominal time of one reference loop, close to its median on the 2-core host
# of BASELINE.md. It only sets the scale of the reported numbers.
REFERENCE_S = 0.025
_ROUNDS = 12000
_PAIR = struct.Struct("<QQ")
_KEY = b"reference-loop-key"


def _work() -> int:
    # The C generator: the tracer patches random.Random's Python methods.
    rng = _random.Random(12345)
    bits = bytearray(128)
    seen = set()
    big = 3 ** 1500
    acc = 0
    for i in range(_ROUNDS):
        digest = hashlib.blake2b(_PAIR.pack(i & 7, i), key=_KEY, digest_size=8).digest()
        j = int.from_bytes(digest, "little") % 1024
        if bits[j >> 3] & (1 << (j & 7)):
            acc += 1
        bits[j >> 3] |= 1 << (j & 7)
        x = rng.getrandbits(20)
        if x not in seen and rng.random() < 0.5:
            seen.add(x)
        if i % 64 == 0:
            acc ^= (big * (big + i)) & 0xFFFF
    return acc + len(seen)


def reference_seconds() -> float:
    """Wall seconds of one run of the reference loop."""
    started = time.perf_counter()
    _work()
    return time.perf_counter() - started
