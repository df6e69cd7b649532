"""Command line behavior: output formats, determinism, exit codes."""

import csv
import io
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from bloomlab import cli
from bloomlab.games import saturation_probability
from bloomlab.privacy import WARNER, PrivacyParams, privacy_budget


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def _json_lines(text):
    return [json.loads(line) for line in text.splitlines() if line]


def _csv_rows(text):
    return list(csv.DictReader(io.StringIO(text)))


SMOKE_ARGS = {
    "fpr-estimate": ["--trials", "2", "--queries", "2000"],
    "privacy-audit": ["--trials", "400"],
    "bp-attack": ["--trials", "50"],
    "ab-game": ["--trials", "40"],
    "filic-distinguish": ["--trials", "30"],
    "saturation-scan": ["--trials", "1"],
    "error-analysis": [],
}


@pytest.mark.parametrize("experiment", sorted(SMOKE_ARGS))
def test_experiment_smoke(experiment):
    code, out, err = _run([experiment, "--seed", "7", "--format", "json", *SMOKE_ARGS[experiment]])
    assert code == 0
    records = _json_lines(out)
    assert records
    for rec in records:
        assert rec["experiment"] == experiment
        assert rec["master_seed"] == 7
        assert rec["failed"] == 0
        assert rec["build"].startswith("bloomlab-0.1.0+g")
    assert "ms" in err  # timing goes to stderr, never stdout


def test_build_identifier_falls_back_when_git_times_out(monkeypatch):
    def hang(argv, **kwargs):
        raise subprocess.TimeoutExpired(argv, kwargs.get("timeout"))

    monkeypatch.setattr(cli.subprocess, "run", hang)
    cli.build_identifier.cache_clear()
    try:
        assert cli.build_identifier() == "bloomlab-0.1.0"
    finally:
        cli.build_identifier.cache_clear()


@pytest.mark.parametrize("top, expected", [
    (str(Path(cli.__file__).resolve().parents[2]), "bloomlab-0.1.0+gabc1234"),
    ("/elsewhere/unrelated-repo", "bloomlab-0.1.0"),
])
def test_build_identifier_takes_the_revision_only_from_this_checkout(monkeypatch, top, expected):
    def rev_parse(argv, **kwargs):
        assert argv[-3:] == ["--show-toplevel", "--short", "HEAD"]
        return subprocess.CompletedProcess(argv, 0, stdout=f"{top}\nabc1234\n", stderr="")

    monkeypatch.setattr(cli.subprocess, "run", rev_parse)
    cli.build_identifier.cache_clear()
    try:
        assert cli.build_identifier() == expected
    finally:
        cli.build_identifier.cache_clear()


def test_parser_is_built_once_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_reruns_are_byte_identical(fmt):
    argv = ["bp-attack", "--trials", "60", "--seed", "3", "--format", fmt]
    _, first, _ = _run(argv)
    _, second, _ = _run(argv)
    assert first == second
    assert first


def test_csv_floats_roundtrip_exactly():
    code, out, _ = _run(["saturation-scan", "--seed", "1", "--m", "8", "--n", "20", "--k", "3"])
    assert code == 0
    row = _csv_rows(out)[0]
    assert float(row["p_s_exact"]) == saturation_probability(8, 20, 3).exact


def test_grid_expansion_order():
    code, out, _ = _run(["saturation-scan", "--seed", "1", "--format", "json",
                         "--m", "4,8", "--n", "20", "--k", "2,3"])
    assert code == 0
    records = _json_lines(out)
    assert [(r["m"], r["n"], r["k"]) for r in records] == [
        (4, 20, 2), (4, 20, 3), (8, 20, 2), (8, 20, 3),
    ]
    assert [r["point"] for r in records] == [0, 1, 2, 3]


def test_saturation_scan_monotone_in_m():
    code, out, _ = _run(["saturation-scan", "--seed", "1", "--format", "json",
                         "--m", "4,8,16,32", "--n", "20", "--k", "3"])
    assert code == 0
    exact = [r["p_s_exact"] for r in _json_lines(out)]
    assert exact == sorted(exact, reverse=True)
    for r, m in zip(_json_lines(out), (4, 8, 16, 32)):
        assert r["p_s_exact"] == saturation_probability(m, 20, 3).exact


def test_error_analysis_budget_columns():
    code, out, _ = _run(["error-analysis", "--seed", "1", "--format", "json",
                         "--mode", "warner", "--p", "0.6,0.75,0.9"])
    assert code == 0
    for rec in _json_lines(out):
        budget = privacy_budget(PrivacyParams(WARNER, rec["p"]))
        assert rec["epsilon"] == pytest.approx(budget.epsilon)
        assert rec["epsilon_prime"] is None  # symmetric: no separate reverse bound
        assert rec["expected_fnr"] == pytest.approx(1.0 - rec["p"])


def test_error_analysis_nonfinite_cells():
    code, out, _ = _run(["error-analysis", "--seed", "1", "--mode", "mangat", "--p", "1.0"])
    assert code == 0
    row = _csv_rows(out)[0]
    assert row["epsilon"] == "" and row["epsilon_prime"] == ""  # inf renders empty
    code, out, _ = _run(["error-analysis", "--seed", "1", "--format", "json",
                         "--mode", "mangat", "--p", "1.0"])
    rec = _json_lines(out)[0]
    assert rec["epsilon"] is None and rec["epsilon_prime"] is None


def test_output_file(tmp_path):
    target = tmp_path / "scan.csv"
    code, out, _ = _run(["saturation-scan", "--seed", "2", "--output", str(target)])
    assert code == 0
    assert out == ""
    rows = _csv_rows(target.read_text())
    assert rows and rows[0]["experiment"] == "saturation-scan"


def test_config_file_and_flag_precedence(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({
        "experiment": "saturation-scan",
        "seed": 9,
        "format": "json",
        "parameters": {"m": [4, 8], "n": [10], "k": [2]},
    }))
    code, out, _ = _run(["saturation-scan", "--config", str(cfg)])
    assert code == 0
    records = _json_lines(out)
    assert [r["m"] for r in records] == [4, 8]
    assert records[0]["master_seed"] == 9
    code, out, _ = _run(["saturation-scan", "--config", str(cfg), "--seed", "10", "--m", "16"])
    records = _json_lines(out)
    assert [r["m"] for r in records] == [16]  # flags override the file
    assert records[0]["master_seed"] == 10


def test_config_rejections(tmp_path):
    bad_param = tmp_path / "bad.json"
    bad_param.write_text(json.dumps({"parameters": {"nope": 3}}))
    assert _run(["saturation-scan", "--config", str(bad_param)])[0] == 1

    bad_key = tmp_path / "key.json"
    bad_key.write_text(json.dumps({"unknown_top_level": 1}))
    assert _run(["saturation-scan", "--config", str(bad_key)])[0] == 1

    mismatch = tmp_path / "mismatch.json"
    mismatch.write_text(json.dumps({"experiment": "bp-attack"}))
    assert _run(["saturation-scan", "--config", str(mismatch)])[0] == 1

    garbled = tmp_path / "garbled.json"
    garbled.write_text("not json")
    assert _run(["saturation-scan", "--config", str(garbled)])[0] == 1

    # Integer settings follow the flags' rule: no strings that are not
    # integers, no truncated floats, no booleans read as 0 or 1.
    for key, value in (("trials", "abc"), ("seed", "x"), ("trials", 2.7), ("trials", True),
                       ("seed", 1.5), ("seed", None), ("output", 5), ("parameters", ["m"]),
                       ("parameters", "m")):
        wrong = tmp_path / f"wrong-{key}.json"
        wrong.write_text(json.dumps({key: value}))
        code, _, err = _run(["saturation-scan", "--config", str(wrong)])
        assert code == 1 and key in err, (key, value, err)
    wrong = tmp_path / "wrong-param.json"
    wrong.write_text(json.dumps({"parameters": {"m": [4.5], "n": [True]}}))
    assert _run(["saturation-scan", "--config", str(wrong)])[0] == 1
    digits = tmp_path / "digits.json"
    digits.write_text(json.dumps({"trials": "2", "seed": "5", "format": "json"}))
    code, out, _ = _run(["saturation-scan", "--config", str(digits)])
    assert code == 0 and _json_lines(out)[0]["trials"] == 2 and _json_lines(out)[0]["master_seed"] == 5


def test_bad_flags_exit_one():
    assert _run(["saturation-scan", "--no-such-flag"])[0] == 1
    assert _run(["saturation-scan", "--m", "zero"])[0] == 1
    assert _run(["fpr-estimate", "--queries", "0"])[0] == 1  # rejected parameters
    # No bound decides m=1024 with 20000 throws, and the exact sum is capped.
    code, _, err = _run(["saturation-scan", "--m", "1024", "--n", "2000", "--k", "10"])
    assert code == 1 and "m=1024, n*k=20000" in err
    # The null scenario refuses a member count the universe cannot hold, as key-leak does.
    for scenario in ("null", "key-leak"):
        code, out, err = _run(["filic-distinguish", "--scenario", scenario, "--n", "5000", "--u", "4096"])
        assert (code, out) == (1, "") and "0 < n < universe size" in err


def test_privacy_audit_refuses_before_building_the_member_set():
    argv = ["privacy-audit", "--s", "2000000", "--trials", "1"]
    _run(argv)  # loads the modules and fills the caches outside the measurement
    tracemalloc.start()
    try:
        code, _, err = _run(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1 and "1 <= s < u" in err
    assert peak < 1 << 20
    code, _, err = _run(["privacy-audit", "--u", str((1 << 20) + 1), "--s", "1000000"])
    assert code == 1 and "exceeds cap" in err


def test_all_points_failed_exits_two(monkeypatch):
    exp = cli.EXPERIMENTS["saturation-scan"]

    def broken(values, trials, seed):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli.EXPERIMENTS, "saturation-scan",
                        cli.Experiment(exp.name, exp.params, exp.default_trials, broken))
    code, out, _ = _run(["saturation-scan", "--seed", "1", "--format", "json"])
    assert code == 2
    records = _json_lines(out)
    assert records and all(r["failed"] == 1 for r in records)
    assert all("boom" in r["error"] for r in records)


def test_partial_failure_keeps_going(monkeypatch):
    exp = cli.EXPERIMENTS["saturation-scan"]
    original = exp.runner

    def flaky(values, trials, seed):
        if values["m"] == 8:
            raise RuntimeError("boom")
        return original(values, trials, seed)

    monkeypatch.setitem(cli.EXPERIMENTS, "saturation-scan",
                        cli.Experiment(exp.name, exp.params, exp.default_trials, flaky))
    code, out, _ = _run(["saturation-scan", "--seed", "1", "--format", "json",
                         "--m", "4,8,16", "--n", "10", "--k", "2"])
    assert code == 0
    records = _json_lines(out)
    assert [r["failed"] for r in records] == [0, 1, 0]
    assert records[1]["p_s_exact"] is None


def test_help_exits_zero(capsys):
    assert cli.main(["--help"], out=io.StringIO(), err=io.StringIO()) == 0
    capsys.readouterr()  # argparse prints usage to the process stdout


def test_installed_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bloomlab.cli", "saturation-scan", "--seed", "4"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("experiment,")
    assert "ms" in proc.stderr
