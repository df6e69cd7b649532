"""Smoke run of the benchmark: every metric is printed by name with its unit.

Runs ``run.py`` for one second on each workload, untraced and traced, and
checks that the last stdout line names exactly the metrics of
``BENCHMARK.json`` with their units, and that the run was correct. Also
checks that the benchmark refuses to run without the program's sources.

Usage, from the root of a checkout: python3 benchmarks/smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    failures = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            label = f"{workload} --trace {trace}"
            before = len(failures)
            if proc.returncode != 0:
                failures.append(f"{label}: exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            if printed != expected:
                failures.append(f"{label}: printed {sorted(printed.items())}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                failures.append(f"{label}: a metric value is not a number")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{label}: correct={result['correct']} attempted="
                                f"{result['attempted']} failed={result['failed']}")
            if len(failures) == before:
                print(f"ok {label}: {len(printed)} metrics")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(bare, spec["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    if proc.returncode == 0 or proc.stdout.strip():
        failures.append("a directory without src/ must make the benchmark fail without a result")
    else:
        print("ok refused to run without src/")

    for failure in failures:
        print(f"FAIL {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
