"""The benchmark's tracer, run in process against the package.

``benchmarks/spans.py`` wraps package functions and methods by name, so a
renamed or re-bound name would break the traced benchmark. These tests load
the tracer by path, run a traced experiment and check that removing the
tracer restores every attribute it patched.
"""

import importlib
import importlib.util
import io
import random
from pathlib import Path

import bloomlab
from bloomlab import cli

MODULES = ("cli", "errors", "feistel", "filic", "filters", "games", "learned", "privacy", "stats")


def _load_spans():
    path = Path(__file__).resolve().parent.parent / "benchmarks" / "spans.py"
    spec = importlib.util.spec_from_file_location("bloomlab_bench_spans", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces():
    """Every namespace the tracer may patch: the package, its modules, the
    classes they define, and ``random.Random``."""
    modules = [bloomlab] + [importlib.import_module(f"bloomlab.{name}") for name in MODULES]
    classes = {value for module in modules for value in vars(module).values()
               if isinstance(value, type) and value.__module__.startswith("bloomlab.")}
    return modules + list(classes) + [random.Random]


def _snapshot():
    return [(owner, dict(vars(owner))) for owner in _namespaces()]


def _filic(argv):
    out = io.StringIO()
    assert cli.main(argv, out=out, err=io.StringIO()) == 0
    return out.getvalue()


def test_tracer_counts_a_filic_run_and_restores_every_attribute():
    argv = ["filic-distinguish", "--trials", "3"]
    untraced = _filic(argv)
    before = _snapshot()
    tracer = _load_spans().Tracer()
    try:
        tracer.install()
        assert tracer._restore, "the tracer patched nothing"
        traced = _filic(argv)
        counts, _, trial_us = tracer.end_pass()
    finally:
        tracer.remove()
    for owner, namespace in before:
        after = vars(owner)
        assert after.keys() == namespace.keys(), owner
        changed = [attr for attr, value in namespace.items() if after[attr] is not value]
        assert changed == [], owner
    assert traced == untraced
    assert counts["filic.trial.calls"] == 6
    assert len(trial_us["filic.trial"]) == 6
