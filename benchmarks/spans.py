"""Spans around bloomlab's public functions, recorded from outside the package.

``Tracer.install`` replaces each traced name where it is looked up: the class
attribute for a method, and every ``bloomlab`` module attribute bound to a
traced function, because ``mix_seed`` and others are imported by name into
several modules. ``Tracer.remove`` puts the originals back.

A span is (name, start, end, parent), kept in memory for one pass. A span's
self time is its duration minus the durations of its direct children; with
one thread, children never overlap each other. Counts ride on the same
wrappers, so ratios are measured where the work happens.
"""

from __future__ import annotations

import array
import functools
import random
import sys
import time
from collections import Counter

# Spans whose durations are kept one by one, for percentiles.
TRIAL_SPANS = ("games.trial", "filic.trial")
# Counters the wrappers keep besides span calls; reported as 0 when unused.
COUNTERS = (
    "feistel.new.calls", "filic.refused", "filters.build.elements",
    "filters.indices.memo_hits", "filters.indices.true_random_calls",
    "filters.query.positives", "games.forfeits", "privacy.perturb.elements_scanned",
    "rng.draws",
)


def _bloomlab_modules():
    return [module for name, module in sorted(sys.modules.items())
            if name == "bloomlab" or name.startswith("bloomlab.")]


def _subclasses(base) -> list[type]:
    found, todo = [], [base]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub.__module__.startswith("bloomlab.") and sub not in found:
                found.append(sub)
                todo.append(sub)
    return found


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.span_name = array.array("H")
        self.span_parent = array.array("l")
        self.span_start = array.array("q")
        self.span_end = array.array("q")
        self.counts: Counter = Counter()
        self._stack = [-1]
        self._restore: list = []
        self.last: tuple = ((), (), (), ())

    def end_pass(self) -> tuple[dict, dict, dict]:
        """Summarize the pass just traced, keep its spans for ``write`` and
        start the next pass empty."""
        summary = self._summary()
        columns = (self.span_name, self.span_parent, self.span_start, self.span_end)
        self.last = tuple(array.array(c.typecode, c) for c in columns)
        for column in columns:
            del column[:]
        self.counts.clear()
        return summary

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        if name not in self.names:
            self.names.append(name)
        name_id = self.names.index(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack, clock = self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1])
            ends.append(0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, key: str, fn, count=None):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1 if count is None else count(result)
            return result

        return counted

    # -- patching ---------------------------------------------------------

    def _method(self, cls, attr: str, wrap) -> None:
        raw = cls.__dict__.get(attr)
        self._restore.append((cls, attr, raw))
        if raw is None:  # inherited from a base outside bloomlab
            setattr(cls, attr, wrap(getattr(cls, attr)))
        elif isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(wrap(raw.__func__)))
        else:
            setattr(cls, attr, wrap(raw))

    def _function(self, fn, wrapper) -> None:
        for module in _bloomlab_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._restore.append((module, attr, fn))
                    setattr(module, attr, wrapper)

    def install(self) -> None:
        from bloomlab import cli, feistel, filic, filters, games, privacy, stats

        counts = self.counts

        def span(name, before=None, after=None):
            return lambda fn: self._span(name, fn, before, after)

        def memo_probe(args):
            family, x = args[0], args[1]
            if family.mode == filters.TRUE_RANDOM:
                counts["filters.indices.true_random_calls"] += 1
                counts["filters.indices.memo_hits"] += x in family.memo

        def build_elements(args):
            members = args[1]
            counts["filters.build.elements"] += len(
                members if isinstance(members, (set, frozenset)) else set(members))

        def positives(args, result):
            counts["filters.query.positives"] += result

        def scanned(args):
            counts["privacy.perturb.elements_scanned"] += args[1].size

        def forfeits(args, result):
            counts["games.forfeits"] += result.transcript.forfeited

        self._method(filters.HashFamily, "indices", span("filters.indices", before=memo_probe))
        self._method(filters.BloomFilter, "build", span("filters.build", before=build_elements))
        self._method(filters.BloomFilter, "query", span("filters.query", after=positives))
        self._method(filters.Universe, "sample_outside", span("filters.sample_outside"))
        self._method(feistel.FeistelPermutation, "encrypt", span("feistel.encrypt"))
        self._method(feistel.FeistelPermutation, "__init__",
                     lambda fn: self._counted("feistel.new.calls", fn))
        for fn in (privacy.mangat_perturb, privacy.warner_perturb):
            self._function(fn, self._span("privacy.perturb", fn, before=scanned))
        self._function(privacy.dp_audit, self._span("privacy.dp_audit", privacy.dp_audit))
        for fn in (games.run_ab_test, games.run_bp_test):
            self._function(fn, self._span("games.trial", fn, after=forfeits))
        for cls in _subclasses(games.Adversary):
            for attr in ("choose_set", "next_query", "finalize"):
                if attr in cls.__dict__:
                    self._method(cls, attr, span("games.adversary"))
        self._function(games.saturation_probability,
                       self._span("games.saturation_probability", games.saturation_probability))
        for fn in (filic.run_real, filic.run_ideal):
            self._function(fn, self._span("filic.trial", fn))
        for attr in ("insert", "query"):
            self._method(filic.SimulatorState, attr, span("filic.simulator"))
        for cls in _subclasses(filic.FilicAdversary):
            if "interact" in cls.__dict__:
                self._method(cls, "interact", span("filic.interact"))
        for attr in ("query", "insert", "reveal"):
            self._method(filic.OracleSet, attr, lambda fn: self._counted(
                "filic.refused", fn, lambda result: isinstance(result, str) and result == filic.REFUSED))
        self._function(stats.mix_seed, self._span("stats.mix_seed", stats.mix_seed))
        self._function(cli.run_config, self._span("cli.run_config", cli.run_config))
        for attr in ("randrange", "random"):
            self._method(random.Random, attr, lambda fn: self._counted("rng.draws", fn))

    def remove(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- results ----------------------------------------------------------

    def _summary(self) -> tuple[dict, dict, dict]:
        """(counts, self_s, trial_us) of the spans recorded so far.

        Counts are exact: span calls per name plus the wrapper counters.
        ``self_s`` holds self seconds per span name, ``trial_us`` the
        duration in microseconds of every span named in ``TRIAL_SPANS``.
        """
        starts, ends, parents = self.span_start, self.span_end, self.span_parent
        child_ns = [0] * len(starts)
        for i, parent in enumerate(parents):
            if parent >= 0:
                child_ns[parent] += ends[i] - starts[i]
        counts = Counter(dict.fromkeys(COUNTERS, 0))
        counts.update(self.counts)
        counts.update(dict.fromkeys((name + ".calls" for name in self.names), 0))
        self_ns = dict.fromkeys(self.names, 0)
        trial_us = {name: [] for name in TRIAL_SPANS}
        for i, name_id in enumerate(self.span_name):
            name = self.names[name_id]
            duration = ends[i] - starts[i]
            counts[name + ".calls"] += 1
            self_ns[name] += duration - child_ns[i]
            if name in trial_us:
                trial_us[name].append(duration / 1000.0)
        return dict(counts), {name: ns / 1e9 for name, ns in self_ns.items()}, trial_us

    def write(self, path) -> None:
        """Write the spans of the last ended pass as tab-separated text."""
        names, parents, starts, ends = self.last
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tname\tstart_ns\tend_ns\tparent\n")
            for i, name_id in enumerate(names):
                fh.write(f"{i}\t{self.names[name_id]}\t{starts[i]}\t{ends[i]}\t{parents[i]}\n")
