"""Closed-loop benchmark of the bloomlab CLI experiments.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is loaded from ``src/`` of the checkout; no installed copy is
used. One process and one thread drive ``bloomlab.cli.main(argv, out, err)``
in a closed loop: each invocation starts when the previous one returns. A
pass runs every invocation of the workload (see ``workloads.py``) once with
``--seed N``; passes repeat until S seconds have elapsed.

End-to-end times are scaled to a reference host speed (see
``reference.py``): on a shared host the raw wall time of the same pass
drifts by up to a factor of two over minutes. The raw figures are printed
in the detail line.

``--trace 0`` reports the end-to-end metrics: ``trials_per_s`` (grid points
times ``--trials`` of one pass over its scaled time, median over passes),
``setup_s`` (median over scaled cold set-ups in fresh interpreters, see
``setup_probe.py``), ``peak_rss_mib`` and ``ok_share`` (the share of
operations that did not fail). After the timed passes, one untimed rerun
must write the same records.

``--trace 1`` reports the per-layer metrics: the first half of the time runs
untraced passes and the second half traced ones (see ``spans.py``). Self
times and trial percentiles are raw wall time. The spans of the last traced
pass are written to ``.bench_out/``.

Every record gets the output checks of ``checks.py``. The last line of
stdout is the result: ``{"correct", "attempted", "failed", "metrics"}``,
where an operation is one grid-point record. Metric names and units come
from ``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_record, normalized, parse_records, reconcile
from reference import REFERENCE_S, reference_seconds
from spans import TRIAL_SPANS, Tracer
from workloads import WORKLOADS, warm_up

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 11
BUILD_ID_PROBES = 5
MIN_TRACED_PASSES = 2  # counts must repeat exactly, so compare at least two


def load_cli():
    if not (SRC / "bloomlab" / "__init__.py").is_file():
        sys.exit(f"error: no bloomlab sources at {SRC}; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import bloomlab.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "bloomlab").resolve():
        sys.exit(f"error: imported bloomlab from {cli.__file__}, not from {SRC}")
    return cli


def run_pass(cli, invocations, seed: int) -> tuple[list[tuple[int, str]], float, float]:
    """One pass: each invocation's (exit code, stdout), then the pass's wall
    seconds and the same seconds scaled to reference host speed.

    A reference loop runs before each invocation and after the last one.
    Each invocation's time is scaled by ``REFERENCE_S`` over the mean of the
    two loops around it; the loops themselves are not part of the pass time.
    """
    outputs, wall, scaled = [], 0.0, 0.0
    before = reference_seconds()
    for invocation in invocations:
        out, err = io.StringIO(), io.StringIO()
        started = time.perf_counter()
        code = cli.main([*invocation.argv, "--format", "json", "--seed", str(seed)], out, err)
        elapsed = time.perf_counter() - started
        after = reference_seconds()
        wall += elapsed
        scaled += elapsed * 2 * REFERENCE_S / (before + after)
        before = after
        outputs.append((code, out.getvalue()))
    return outputs, wall, scaled


def run_passes(cli, invocations, seed: int, seconds: float, after=None):
    """At least one pass, then more until ``seconds`` have elapsed;
    ``after`` runs untimed right after each pass."""
    passes = []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        passes.append(run_pass(cli, invocations, seed))
        if after is not None:
            after()
    return passes


class Tally:
    """Operations attempted and failed, and why each failure happened."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def score(self, invocations, outputs) -> tuple[list[dict], int]:
        """Check one pass; return its records and its trials."""
        records, trials = [], 0
        for invocation, (code, text) in zip(invocations, outputs):
            self.attempted += invocation.points
            try:
                got = parse_records(text) if code == 0 else []
            except ValueError as exc:
                got = []
                self.problems.append(f"{invocation.experiment}: unreadable records: {exc}")
            if len(got) != invocation.points:
                self.failed += invocation.points
                self.problems.append(f"{invocation.experiment}: exit {code}, "
                                     f"{len(got)} of {invocation.points} records")
                continue
            for record in got:
                reason = check_record(record)
                if reason is not None:
                    self.failed += 1
                    self.problems.append(f"{invocation.experiment} point {record['point']}: {reason}")
                trials += record["trials"]
            records += got
        return records, trials

    def compare(self, label: str, reference, outputs) -> None:
        """Reruns with the same seed must write the same records."""
        try:
            same = ([normalized(text) for _, text in outputs]
                    == [normalized(text) for _, text in reference])
        except ValueError:
            same = False
        if not same:
            self.problems.append(f"{label}: records differ from the first pass")


def measure_setup(workload: str) -> list[float]:
    """Set-up seconds of each probe, scaled to reference host speed like the
    invocations of a pass."""
    samples = []
    before = reference_seconds()
    for _ in range(SETUP_PROBES):
        probe = subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT), workload],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if probe.returncode != 0:
            sys.exit(f"error: set-up probe failed: {probe.stderr.strip()}")
        after = reference_seconds()
        seconds = json.loads(probe.stdout.splitlines()[-1])["setup_s"]
        samples.append(seconds * 2 * REFERENCE_S / (before + after))
        before = after
    return samples


def end_to_end(cli, workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    invocations = WORKLOADS[workload]
    setup = measure_setup(workload)
    passes = run_passes(cli, invocations, seed, seconds)
    rates, raw_rates = [], []
    for outputs, wall, scaled in passes:
        _, trials = tally.score(invocations, outputs)
        raw_rates.append(trials / wall)
        rates.append(trials / scaled)
        tally.compare("timed pass", passes[0][0], outputs)
    rerun, _, _ = run_pass(cli, invocations, seed)
    tally.compare("untimed rerun", passes[0][0], rerun)
    metrics = {
        "trials_per_s": statistics.median(rates),
        "setup_s": statistics.median(setup),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_share": 1.0 - tally.failed / tally.attempted,
    }
    detail = {"passes": len(passes), "trials_per_pass": trials,
              "raw_trials_per_s": statistics.median(raw_rates),
              "pass_s": [wall for _, wall, _ in passes],
              "scaled_pass_s": [scaled for _, _, scaled in passes], "setup_samples_s": setup}
    return metrics, detail


def build_identifier_seconds(cli) -> float:
    samples = []
    for _ in range(BUILD_ID_PROBES):
        cli.build_identifier.cache_clear()
        started = time.perf_counter()
        cli.build_identifier()
        samples.append(time.perf_counter() - started)
    return statistics.median(samples)


def per_layer(cli, workload: str, seed: int, seconds: float, tally: Tally) -> tuple[dict, dict]:
    invocations = WORKLOADS[workload]
    build_id_s = build_identifier_seconds(cli)
    untraced = run_passes(cli, invocations, seed, seconds / 2)
    for outputs, _, _ in untraced:
        tally.score(invocations, outputs)
        tally.compare("untraced pass", untraced[0][0], outputs)

    tracer = Tracer()
    summaries = []

    def end_pass():
        summaries.append(tracer.end_pass())

    try:
        tracer.install()
        traced = run_passes(cli, invocations, seed, seconds / 2, after=end_pass)
        if len(traced) < MIN_TRACED_PASSES:
            traced += run_passes(cli, invocations, seed, 0, after=end_pass)
    finally:
        tracer.remove()
    for (outputs, _, _), (counts, _, _) in zip(traced, summaries):
        records, _ = tally.score(invocations, outputs)
        tally.compare("traced pass", untraced[0][0], outputs)
        tally.problems += [f"traced counts: {m}" for m in reconcile(records, counts)]
        if counts != summaries[0][0]:
            tally.problems.append("traced counts differ between passes")
    OUT_DIR.mkdir(exist_ok=True)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.tsv")

    counts = summaries[0][0]
    self_s = {name: statistics.median(s[1][name] for s in summaries) for name in summaries[0][1]}
    untraced_s = statistics.median(scaled for _, _, scaled in untraced)
    traced_s = statistics.median(scaled for _, _, scaled in traced)
    traced_wall_s = statistics.median(wall for _, wall, _ in traced)
    trial_percentiles = {}
    for name in TRIAL_SPANS:
        durations = sorted(us for s in summaries for us in s[2][name])
        trial_percentiles[name + ".p50_us"] = statistics.median(durations) if durations else 0.0
        # Nearest rank; pooled over the traced passes so that at least ten
        # trials lie beyond it.
        trial_percentiles[name + ".p99_us"] = (
            durations[math.ceil(0.99 * len(durations)) - 1] if durations else 0.0)

    def share(part: str, whole: str) -> float:
        return counts[part] / counts[whole] if counts[whole] else 0.0

    metrics = {
        **counts, **trial_percentiles,
        **{name + ".self_s": value for name, value in self_s.items()},
        "filters.indices.memo_hit_ratio": share("filters.indices.memo_hits",
                                                "filters.indices.true_random_calls"),
        "filters.query.positive_ratio": share("filters.query.positives", "filters.query.calls"),
        "games.forfeit_ratio": share("games.forfeits", "games.trial.calls"),
        "cli.build_identifier.s": build_id_s,
        "trace.overhead_ratio": traced_s / untraced_s - 1.0,
    }
    detail = {
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "traced_pass_s": traced_wall_s,
        "self_share": {name: value / traced_wall_s for name, value in self_s.items()},
    }
    return metrics, detail


def stamp(cli, workload: str, seed: int, trace: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "bloomlab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": cli.build_identifier().partition("+g")[2] or None,
        "source_sha256": digest.hexdigest(),
        "workload": workload, "seed": seed, "trace": trace,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = load_cli()
    warm_up(cli, args.workload)
    tally = Tally()
    measure = per_layer if args.trace else end_to_end
    values, detail = measure(cli, args.workload, args.seed, args.seconds, tally)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        sys.exit(f"error: no value for metrics {missing}")
    for problem in tally.problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"stamp": stamp(cli, args.workload, args.seed, args.trace)}))
    print(json.dumps({"detail": detail, "problems": tally.problems[:50]}))
    print(json.dumps({
        "correct": not tally.problems,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))


if __name__ == "__main__":
    main()
