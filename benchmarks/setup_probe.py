"""Time one cold set-up of a workload in a fresh interpreter.

Set-up is the import of ``bloomlab``, the first ``cli.build_identifier()``
call (it spawns ``git``) and one tiny warm-up invocation of each experiment
of the workload. Prints the seconds as JSON on stdout.

Usage: python3 benchmarks/setup_probe.py <checkout root> <workload>
"""

import sys
import time


def main() -> None:
    root, workload = sys.argv[1], sys.argv[2]
    sys.path.insert(0, root + "/src")
    started = time.perf_counter()
    import bloomlab.cli as cli  # the import is what is timed
    from workloads import warm_up

    warm_up(cli, workload)
    elapsed = time.perf_counter() - started
    print(f'{{"setup_s": {elapsed!r}}}')


if __name__ == "__main__":
    main()
