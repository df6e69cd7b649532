"""Output checks for the records a pass writes, and trace reconciliation.

Record checks are statistical: they hold for any correct hash or RNG stream,
so a change of bit positions or draw order needs no edit here. They reuse the
tolerances of the acceptance gate in ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import json
import math

# Two-sided 99% normal quantile, the z of every interval the CLI reports.
Z99 = 2.5758293035489004
FPR_TOLERANCE = 0.002
KEY_LEAK_MIN_ADVANTAGE = 0.9


def parse_records(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line]


def normalized(text: str) -> list[dict]:
    """Records with the ``build`` column blanked, for rerun comparison."""
    return [{**record, "build": ""} for record in parse_records(text)]


def _upper(value) -> float:
    # The CLI writes an infinite interval end as null.
    return math.inf if value is None else value


def _check_fpr(r):
    if abs(r["fpr"] - r["expected_fpr"]) > FPR_TOLERANCE:
        return f"fpr {r['fpr']} not within {FPR_TOLERANCE} of expected {r['expected_fpr']}"
    return None


def _check_audit(r):
    if r["verdict"] != "pass":
        return f"audit verdict {r['verdict']}"
    if not r["ratio_lo"] <= r["e_epsilon"] <= _upper(r["ratio_hi"]):
        return f"e^eps {r['e_epsilon']} outside [{r['ratio_lo']}, {r['ratio_hi']}]"
    return None


def _check_bp(r):
    if r["forfeits"] != 0:
        return f"{r['forfeits']} forfeits"
    se = (r["ci_hi"] - r["ci_lo"]) / (2 * Z99)
    for floor in ("profit_lower_bound", "expected_profit"):
        if r["mean_profit"] < r[floor] - 3 * se:
            return f"mean_profit {r['mean_profit']} below {floor} {r[floor]} - 3*SE {3 * se}"
    return None


def _check_ab(r):
    return f"{r['forfeits']} forfeits" if r["forfeits"] != 0 else None


def _check_filic(r):
    if r["scenario"] == "key-leak" and r["advantage"] < KEY_LEAK_MIN_ADVANTAGE:
        return f"key-leak advantage {r['advantage']} < {KEY_LEAK_MIN_ADVANTAGE}"
    return None


def _check_saturation(r):
    if r["p_s_exact"] < r["p_s_lower_bound"]:
        return f"p_s_exact {r['p_s_exact']} < lower bound {r['p_s_lower_bound']}"
    return None


_CHECKS = {
    "fpr-estimate": _check_fpr,
    "privacy-audit": _check_audit,
    "bp-attack": _check_bp,
    "ab-game": _check_ab,
    "filic-distinguish": _check_filic,
    "saturation-scan": _check_saturation,
}


def check_record(record: dict) -> str | None:
    """Why the record is wrong, or None when it passes."""
    if record["failed"]:
        return f"record failed: {record['error']}"
    return _CHECKS[record["experiment"]](record)


# Traced counts that the records determine exactly. A workload whose
# experiments do not touch a count must leave it at 0.
RECONCILED = (
    "filters.build.calls", "filters.build.elements", "filters.query.calls",
    "games.trial.calls", "games.saturation_probability.calls", "filic.trial.calls",
    "privacy.perturb.calls", "privacy.perturb.elements_scanned",
)


def _expected_counts(r: dict) -> tuple[dict, set]:
    """Counts one record implies, and the reconciled counts it touches by
    amounts the record does not determine."""
    exp, trials = r["experiment"], r["trials"]
    if exp == "fpr-estimate":
        return {"filters.build.calls": r["builds"], "filters.build.elements": r["builds"] * r["n"],
                "filters.query.calls": r["queries"]}, set()
    if exp == "ab-game":
        # Every trial builds once, probes t times and queries its target once:
        # the built-in adversaries never stop early and forfeits fail the check.
        return {"filters.build.calls": trials, "filters.build.elements": trials * r["n"],
                "filters.query.calls": trials * (r["t"] + 1), "games.trial.calls": trials}, set()
    if exp == "bp-attack":
        bets = round(r["bet_rate"] * trials)
        return {"filters.build.calls": trials, "filters.build.elements": trials * r["n"],
                "filters.query.calls": trials * r["t"] + bets, "games.trial.calls": trials,
                "games.saturation_probability.calls": 1}, set()
    if exp == "privacy-audit":
        # Each audit trial perturbs the neighbour pair once each.
        return {"privacy.perturb.calls": 2 * trials,
                "privacy.perturb.elements_scanned": 2 * trials * r["u"]}, set()
    if exp == "saturation-scan" and trials == 1:
        # More trials would add Monte Carlo builds.
        return {"games.saturation_probability.calls": 1}, set()
    if exp == "filic-distinguish":
        # Real and ideal world per trial; only the real world builds a filter.
        return {"filic.trial.calls": 2 * trials, "filters.build.calls": trials,
                "filters.build.elements": trials * r["n"]}, {"filters.query.calls"}
    raise ValueError(f"no reconciliation for experiment {exp!r}")


def reconcile(records: list[dict], counts: dict) -> list[str]:
    """Mismatches between the traced counts of one pass and its records."""
    expected = dict.fromkeys(RECONCILED, 0)
    undetermined: set[str] = set()
    for record in records:
        implied, unknown = _expected_counts(record)
        for key, value in implied.items():
            expected[key] += value
        undetermined |= unknown
    return [f"{key}: traced {counts.get(key, 0)}, records imply {value}"
            for key, value in expected.items()
            if key not in undetermined and counts.get(key, 0) != value]
