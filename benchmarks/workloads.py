"""The benchmark's workloads: the CLI invocations that one pass runs.

Parameters are the CLI defaults unless an argv below states them. Trial
counts are chosen so that one invocation takes about a second or less on a
2-core host, which gives a run of ``--seconds`` many passes, each scaled by
reference loops close to it, for a steady median. The traced run pools its
passes, so each trial percentile has more than ten samples beyond it. Why
each workload exists is recorded in ``BENCHMARK.json``.

The runner appends ``--format json --seed <workload seed>`` to every argv.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass


@dataclass(frozen=True)
class Invocation:
    """One CLI call of a pass, and the tiny call that warms it up."""

    argv: tuple[str, ...]
    warmup: tuple[str, ...]

    @property
    def experiment(self) -> str:
        return self.argv[0]

    @property
    def points(self) -> int:
        """Grid points: comma-separated flag values span a Cartesian grid."""
        return math.prod(len(value.split(",")) for value in self.argv[2::2])


WORKLOADS = {
    # Few builds, many queries: the read path of the keyed-PRF construction.
    # Half the default builds and queries keeps 3125 queries per build and
    # |fpr - expected| within 0.002 by more than four standard errors.
    "prf-query": (
        Invocation(("fpr-estimate", "--mode", "keyed-prf", "--trials", "16", "--queries", "50000"),
                   ("fpr-estimate", "--mode", "keyed-prf", "--trials", "1", "--queries", "1")),
    ),
    # 100 inserts and 5 queries per trial: the same hash layer, used for writes.
    "prf-build": (
        Invocation(("ab-game", "--mode", "keyed-prf", "--adversary", "uniform", "--trials", "400"),
                   ("ab-game", "--mode", "keyed-prf", "--adversary", "uniform", "--trials", "1")),
    ),
    # No keyed or public hashing: the no-change control for hash-layer work,
    # and the home of true-random indices, perturbation and exact saturation.
    "unhashed-mix": (
        Invocation(("bp-attack", "--trials", "2000"),
                   ("bp-attack", "--trials", "1")),
        Invocation(("privacy-audit", "--mode", "mangat", "--p", "0.5", "--trials", "4000"),
                   ("privacy-audit", "--mode", "mangat", "--p", "0.5", "--trials", "1")),
        Invocation(("privacy-audit", "--mode", "warner", "--p", "0.75", "--trials", "4000"),
                   ("privacy-audit", "--mode", "warner", "--p", "0.75", "--trials", "1")),
        Invocation(("saturation-scan", "--m", "8,256,2048", "--n", "300", "--k", "7"),
                   ("saturation-scan", "--m", "4", "--n", "2", "--k", "1")),
    ),
    # The only CLI path through the Feistel permutation and the simulator.
    # Work per trial depends on the seed (the adversary scans for a
    # positive), so many trials keep trials_per_s from varying with it.
    "reveal-oracle": (
        Invocation(("filic-distinguish", "--scenario", "key-leak", "--trials", "1000"),
                   ("filic-distinguish", "--scenario", "key-leak", "--trials", "1")),
    ),
}


def warm_up(cli, workload: str) -> None:
    """Fill the build identifier cache and run each warm-up invocation once."""
    cli.build_identifier()
    for invocation in WORKLOADS[workload]:
        if cli.main([*invocation.warmup, "--format", "json"], io.StringIO(), io.StringIO()) != 0:
            raise SystemExit(f"error: warm-up failed: {' '.join(invocation.warmup)}")
