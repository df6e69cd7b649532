"""Deterministic experiment harness.

Every experiment consumes a master seed and derives one seed per trial from
(master seed, experiment tag, trial index), so a rerun with the same
configuration and seed writes byte-identical records. List-valued flags
(comma separated) span a Cartesian grid with one output record per point.
Records go to stdout or a file as CSV or JSON lines; floats carry 17
significant digits; non-finite values, which only arise where a metric is
documented as undefined (an inconclusive audit's ratio, an infinite budget),
are emitted as empty CSV cells or JSON null. Timing is reported on stderr
only, keeping the record stream reproducible.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import subprocess
import sys
import time
from collections import namedtuple
from itertools import product
from pathlib import Path

# Each runner imports its experiment's modules when it is called, so a run
# from the shell loads and compiles only what that experiment uses.
from . import __version__
from .errors import ParameterError, UnsupportedOperationError
from .stats import mix_seed


class ConfigError(Exception):
    """Bad flags, config keys or parameter values."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@functools.lru_cache(maxsize=1)
def build_identifier() -> str:
    """Package version plus the source revision when one is available.

    The revision is used only when the package is this project's checkout,
    that is when it sits at ``src/bloomlab`` of the enclosing git work tree;
    a copy inside some other repository gets the bare version.
    """
    base = f"bloomlab-{__version__}"
    package = Path(__file__).resolve().parent
    try:
        rev = subprocess.run(
            ["git", "-C", str(package), "rev-parse", "--show-toplevel", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
        )
    except (OSError, subprocess.TimeoutExpired):
        return base
    top, _, sha = rev.stdout.strip().partition("\n")
    if rev.returncode == 0 and sha and Path(top).resolve() / "src" / "bloomlab" == package:
        return f"{base}+g{sha}"
    return base


class Param(namedtuple("Param", "name kind default choices", defaults=(None,))):
    """One experiment parameter; ``kind`` is int, float, str, ints or floats."""

    __slots__ = ()


def _int(raw) -> int:
    """An int, or a string of one: what an integer flag accepts. Floats and
    booleans are refused rather than truncated or read as 0 and 1."""
    if isinstance(raw, bool) or not isinstance(raw, (int, str)):
        raise ValueError(f"expected an integer, got {raw!r}")
    return int(raw)


def _parse_value(param: Param, raw):
    try:
        if param.kind == "int":
            return _int(raw)
        if param.kind == "float":
            return float(raw)
        if param.kind == "ints":
            items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
            return [_int(v) for v in items]
        if param.kind == "floats":
            items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
            return [float(v) for v in items]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"parameter {param.name!r}: {exc}") from exc
    value = str(raw)
    if param.choices and value not in param.choices:
        raise ConfigError(f"parameter {param.name!r} must be one of {param.choices}")
    return value


class Experiment(namedtuple("Experiment", "name params default_trials runner")):
    """A subcommand: its parameters, default trial count and
    ``runner(point, trials, seed) -> dict`` of metrics."""

    __slots__ = ()


def _run_fpr(point, trials, seed):
    from .filters import FilterParams, Universe, estimate_fpr

    params = FilterParams(m=point["m"], k=point["k"], n=point["n"])
    est = estimate_fpr(params, Universe(point["u"]), point["mode"],
                       builds=trials, queries=point["queries"], seed=seed)
    return {
        "fpr": est.rate, "ci_lo": est.ci_lo, "ci_hi": est.ci_hi,
        "expected_fpr": est.expected, "abs_error": abs(est.rate - est.expected),
        "builds": est.builds, "queries": est.queries,
    }


def _run_privacy_audit(point, trials, seed):
    from .filters import Universe
    from .privacy import PrivacyParams, _check_cap, audit_perturbation

    # Both checks come before the member set is built: its size is s.
    universe = Universe(point["u"])
    if not 1 <= point["s"] < universe.size:
        raise ParameterError("need 1 <= s < u")
    _check_cap(universe)
    report = audit_perturbation(
        PrivacyParams(point["mode"], point["p"]), frozenset(range(point["s"])), universe, 0,
        trials, seed, direction=point["direction"],
    )
    return {
        "epsilon_claimed": report.epsilon_claimed,
        "e_epsilon": math.exp(report.epsilon_claimed),
        "ratio_point": report.ratio_point,
        "ratio_lo": report.ratio_lo, "ratio_hi": report.ratio_hi,
        "prob_with": report.prob_with, "prob_without": report.prob_without,
        "verdict": report.verdict,
    }


def _run_bp_attack(point, trials, seed):
    from .filters import TRUE_RANDOM, FilterParams, Universe, filter_factory
    from .games import (
        GameConfig,
        SaturationAdversary,
        expected_profit_formula,
        profit_lower_bound,
        run_bp_experiment,
        saturation_probability,
    )

    params = FilterParams(m=point["m"], k=point["k"], n=point["n"])
    universe = Universe(point["u"])
    cfg = GameConfig(universe=universe, n=point["n"], t=point["t"], threshold=point["delta"])
    result = run_bp_experiment(filter_factory(params, universe, TRUE_RANDOM),
                               SaturationAdversary(), cfg, trials, seed)
    sat = saturation_probability(point["m"], point["n"], point["k"])
    return {
        "mean_profit": result.mean_profit, "ci_lo": result.ci_lo, "ci_hi": result.ci_hi,
        "bet_rate": result.bet_rate, "win_rate": result.win_rate,
        "saturation_rate": result.saturation_rate,
        "probe_fp_rate": result.probe_fp_rate_unsaturated,
        "forfeits": result.forfeits,
        "p_s_exact": sat.exact, "p_s_bound": sat.lower_bound,
        "profit_lower_bound": profit_lower_bound(sat.exact, point["delta"]),
        "expected_profit": expected_profit_formula(
            sat.exact, result.probe_fp_rate_unsaturated, point["t"], point["delta"]),
    }


def _run_ab_game(point, trials, seed):
    from .filters import FilterParams, Universe, expected_fpr, filter_factory
    from .games import GameConfig, SaturationAdversary, UniformAdversary, run_ab_experiment

    params = FilterParams(m=point["m"], k=point["k"], n=point["n"])
    universe = Universe(point["u"])
    cfg = GameConfig(universe=universe, n=point["n"], t=point["t"], threshold=point["epsilon"])
    adversary = SaturationAdversary() if point["adversary"] == "saturation" else UniformAdversary()
    factory = filter_factory(params, universe, point["mode"])
    result = run_ab_experiment(factory, adversary, cfg, trials, seed)
    return {
        "win_rate": result.win_rate, "ci_lo": result.ci_lo, "ci_hi": result.ci_hi,
        "wins": result.wins, "forfeits": result.forfeits,
        "expected_fpr": expected_fpr(params),
    }


def _run_filic(point, trials, seed):
    from .filic import (
        NullAdversary,
        OracleBudget,
        RepresentationPredictionAdversary,
        estimate_advantage,
        key_leaking_filter_factory,
        snapshot_reveal_codec,
    )
    from .filters import FilterParams, Universe, filter_factory

    params = FilterParams(m=point["m"], k=point["k"], n=point["n"])
    universe = Universe(point["u"])
    budget = OracleBudget(inserts=point["q_u"], queries=point["q_t"], reveals=point["q_v"])
    scenario = point["scenario"]
    codec = None
    factory = (key_leaking_filter_factory if scenario == "key-leak" else filter_factory)(params, universe)
    if scenario == "key-leak":
        adversary = RepresentationPredictionAdversary(params, universe, point["n"], expects_snapshot=True)
        codec = snapshot_reveal_codec(params, universe)
    elif scenario == "public-collision":
        adversary = RepresentationPredictionAdversary(params, universe, point["n"], expects_snapshot=False)
    else:
        adversary = NullAdversary(universe, point["n"])
    report = estimate_advantage(adversary, factory, params, budget, trials, seed, reveal_codec=codec)
    return {
        "p_real": report.p_real, "p_ideal": report.p_ideal,
        "advantage": report.advantage, "ci_lo": report.ci_lo, "ci_hi": report.ci_hi,
    }


def _run_saturation_scan(point, trials, seed):
    from .games import saturation_frequency, saturation_probability

    sat = saturation_probability(point["m"], point["n"], point["k"])
    record = {"p_s_exact": sat.exact, "p_s_lower_bound": sat.lower_bound}
    if trials > 1:
        freq = saturation_frequency(point["m"], point["k"], point["n"], trials, seed)
        record["mc_rate"] = freq.rate
        record["mc_se"] = freq.se
    return record


def _run_error_analysis(point, trials, seed):
    from .filters import FilterParams, expected_fpr
    from .privacy import PrivacyParams, expected_cardinality, expected_fnr, privacy_budget

    privacy = PrivacyParams(point["mode"], point["p"])
    budget = privacy_budget(privacy)
    card = expected_cardinality(point["mode"], point["s"], point["u"], point["p"])
    params = FilterParams(m=point["m"], k=point["k"], n=point["s"])
    return {
        "epsilon": budget.epsilon,
        "epsilon_prime": (budget.epsilon_prime if budget.epsilon_prime is not None else math.nan),
        "delta": budget.delta,
        "expected_cardinality": card,
        "expected_fpr": expected_fpr(params, card),
        "expected_fnr": expected_fnr(point["mode"], point["p"]),
    }


EXPERIMENTS = {
    "fpr-estimate": Experiment(
        "fpr-estimate",
        (Param("m", "int", 1024), Param("k", "int", 7), Param("n", "int", 100),
         Param("u", "int", 1 << 20), Param("queries", "int", 100_000),
         Param("mode", "str", "public", ("public", "keyed-prf", "true-random"))),
        32, _run_fpr),
    "privacy-audit": Experiment(
        "privacy-audit",
        (Param("mode", "str", "mangat", ("mangat", "warner")), Param("p", "floats", [0.5]),
         Param("u", "int", 64), Param("s", "int", 8),
         Param("direction", "str", "removal", ("removal", "reverse"))),
        20_000, _run_privacy_audit),
    "bp-attack": Experiment(
        "bp-attack",
        (Param("m", "ints", [8]), Param("k", "int", 3), Param("n", "int", 20),
         Param("t", "int", 16), Param("delta", "float", 0.5), Param("u", "int", 65_536)),
        10_000, _run_bp_attack),
    "ab-game": Experiment(
        "ab-game",
        (Param("m", "int", 1024), Param("k", "int", 7), Param("n", "int", 100),
         Param("t", "int", 4), Param("u", "int", 1 << 20), Param("epsilon", "float", 0.01),
         Param("adversary", "str", "uniform", ("uniform", "saturation")),
         Param("mode", "str", "public", ("public", "keyed-prf", "true-random"))),
        2_000, _run_ab_game),
    "filic-distinguish": Experiment(
        "filic-distinguish",
        (Param("scenario", "str", "key-leak", ("key-leak", "public-collision", "null")),
         Param("m", "int", 64), Param("k", "int", 5), Param("n", "int", 9),
         Param("u", "int", 4096), Param("q_u", "int", 0), Param("q_t", "int", 4),
         Param("q_v", "int", 1)),
        1_000, _run_filic),
    "saturation-scan": Experiment(
        "saturation-scan",
        (Param("m", "ints", [4, 8, 16]), Param("n", "ints", [20]), Param("k", "ints", [3])),
        1, _run_saturation_scan),
    "error-analysis": Experiment(
        "error-analysis",
        (Param("mode", "str", "mangat", ("mangat", "warner")),
         Param("p", "floats", [0.1, 0.25, 0.5, 0.75, 0.9]),
         Param("u", "int", 1024), Param("s", "int", 64),
         Param("m", "int", 1024), Param("k", "int", 7)),
        1, _run_error_analysis),
}


def _grid_points(experiment: Experiment, values: dict) -> list[dict]:
    axes = []
    for param in experiment.params:
        v = values[param.name]
        axes.append([(param.name, item) for item in v] if isinstance(v, list) else [(param.name, v)])
    return [dict(combo) for combo in product(*axes)]


def _fmt_float(x: float) -> str | None:
    if not math.isfinite(x):
        return None
    return format(x, ".17g")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        s = _fmt_float(v)
        return "" if s is None else s
    return str(v)


def _json_line(record: dict) -> str:
    parts = []
    for key, v in record.items():
        if isinstance(v, bool):
            token = "true" if v else "false"
        elif isinstance(v, float):
            token = _fmt_float(v) or "null"
        elif isinstance(v, int):
            token = str(v)
        elif v is None:
            token = "null"
        else:
            token = json.dumps(str(v))
        parts.append(f"{json.dumps(key)}: {token}")
    return "{" + ", ".join(parts) + "}"


def _emit(records: list[dict], fmt: str, stream) -> None:
    if not records:
        return
    if fmt == "csv":
        writer = csv.writer(stream, lineterminator="\n")
        writer.writerow(list(records[0].keys()))
        for record in records:
            writer.writerow([_csv_cell(v) for v in record.values()])
    else:
        for record in records:
            stream.write(_json_line(record) + "\n")


def run_config(experiment_name: str, values: dict, trials: int, master_seed: int,
               fmt: str, output: str, out, err) -> int:
    experiment = EXPERIMENTS[experiment_name]
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    started = time.perf_counter()
    points = _grid_points(experiment, values)
    records: list[dict] = []
    failures = 0
    for index, point in enumerate(points):
        record = {
            "experiment": experiment_name,
            "build": build_identifier(),
            "master_seed": master_seed,
            "trials": trials,
            "point": index,
        }
        record.update(point)
        point_seed = mix_seed(master_seed, f"{experiment_name}#{index}", 0)
        try:
            metrics = experiment.runner(point, trials, point_seed)
            record.update(metrics)
            record["failed"] = 0
            record["error"] = ""
        except (ParameterError, UnsupportedOperationError) as exc:
            raise ConfigError(str(exc)) from exc
        except Exception as exc:  # partial failure: flag the record, continue
            failures += 1
            record["failed"] = 1
            record["error"] = f"{type(exc).__name__}: {exc}"
        records.append(record)
    if records:
        ordered = list(records[0].keys())
        ordered += sorted({k for r in records for k in r} - set(ordered))
        records = [{k: r.get(k) for k in ordered} for r in records]
    if output == "-":
        _emit(records, fmt, out)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            _emit(records, fmt, fh)
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    print(f"{experiment_name}: {len(records)} record(s), {failures} failed, {elapsed_ms:.1f} ms",
          file=err)
    if failures == len(records):
        return 2
    return 0


def _add_common(parser: _Parser) -> None:
    parser.add_argument("--trials", type=int, default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--output", default=None)
    parser.add_argument("--format", dest="fmt", choices=("csv", "json"), default=None)
    parser.add_argument("--config", default=None, help="JSON file with parameter defaults")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


@functools.lru_cache(maxsize=1)
def build_parser() -> _Parser:
    """The argument parser, built once per process from the static
    ``EXPERIMENTS`` table; every caller shares it, so do not modify it."""
    parser = _Parser(prog="bloomlab", description=__doc__)
    sub = parser.add_subparsers(dest="experiment", required=True)
    for experiment in EXPERIMENTS.values():
        p = sub.add_parser(experiment.name)
        for param in experiment.params:
            p.add_argument(_flag(param.name), dest=param.name, default=None)
        _add_common(p)
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    return data


def _config_int(config: dict, key: str, default: int) -> int:
    try:
        return _int(config.get(key, default))
    except ValueError as exc:
        raise ConfigError(f"config {key!r}: {exc}") from exc


def _resolve(experiment: Experiment, args, config: dict) -> dict:
    known = {p.name for p in experiment.params}
    file_params = config.get("parameters", {})
    if not isinstance(file_params, dict):
        raise ConfigError("config 'parameters' must be a JSON object")
    unknown = set(file_params) - known
    if unknown:
        raise ConfigError(f"unknown parameter keys: {sorted(unknown)}")
    values = {}
    for param in experiment.params:
        raw = getattr(args, param.name)
        if raw is None:
            raw = file_params.get(param.name, param.default)
        values[param.name] = _parse_value(param, raw)
    return values


def main(argv=None, out=None, err=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        config = _load_config_file(args.config) if args.config else {}
        for key in config:
            if key not in ("parameters", "trials", "seed", "output", "format", "experiment"):
                raise ConfigError(f"unknown config key {key!r}")
        if "experiment" in config and config["experiment"] != args.experiment:
            raise ConfigError("config file is for a different experiment")
        experiment = EXPERIMENTS[args.experiment]
        values = _resolve(experiment, args, config)
        trials = args.trials if args.trials is not None else _config_int(
            config, "trials", experiment.default_trials)
        seed = args.seed if args.seed is not None else _config_int(config, "seed", 0)
        fmt = args.fmt if args.fmt is not None else config.get("format", "csv")
        output = args.output if args.output is not None else config.get("output", "-")
        if fmt not in ("csv", "json"):
            raise ConfigError("format must be csv or json")
        if not isinstance(output, str):
            raise ConfigError("output must be a path or '-'")
        return run_config(args.experiment, values, trials, seed, fmt, output, out, err)
    except ConfigError as exc:
        print(f"error: {exc}", file=err)
        return 1
    except SystemExit as exc:  # argparse -h
        return int(exc.code or 0)
    except Exception as exc:
        print(f"runtime failure: {type(exc).__name__}: {exc}", file=err)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
