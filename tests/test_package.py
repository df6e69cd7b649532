"""Package exports bound on first use, a CLI that loads only its experiment,
records as immutable values, and the README's library example."""

import copy
import importlib
import json
import os
import pickle
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bloomlab

# Checked in a fresh interpreter: this process has every module loaded already.
# The standard-library modules named in "heavy" cost milliseconds to import
# and the package needs none of them.
_PROBE = """
import io, json, sys

HEAVY = ("dataclasses", "fractions", "decimal", "hashlib")
preloaded = {m for m in HEAVY if m in sys.modules}
import bloomlab.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("bloomlab."))

seen = {"import": loaded()}
for argv in (["fpr-estimate", "--trials", "1", "--queries", "1"],
             ["ab-game", "--trials", "1"], ["bp-attack", "--trials", "1"],
             ["privacy-audit", "--trials", "1"], ["filic-distinguish", "--trials", "1"],
             ["saturation-scan"], ["error-analysis"]):
    assert cli.main(argv, io.StringIO(), io.StringIO()) == 0, argv
    seen[argv[0]] = loaded()
seen["heavy"] = sorted(m for m in HEAVY if m in sys.modules and m not in preloaded)
print(json.dumps(seen))
"""


def test_cli_loads_only_the_modules_of_the_experiment_run():
    src = str(Path(bloomlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _PROBE], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["import"] == ["bloomlab.cli", "bloomlab.errors", "bloomlab.stats"]
    assert not {"bloomlab.games", "bloomlab.filic", "bloomlab.privacy", "bloomlab.learned"} & set(
        seen["fpr-estimate"])
    assert "bloomlab.filters" in seen["fpr-estimate"]
    assert "bloomlab.games" in seen["bp-attack"]
    assert not {"bloomlab.filic", "bloomlab.learned"} & set(seen["bp-attack"])
    # Only a permutation-wrapped filter loads the Feistel permutation.
    assert "bloomlab.feistel" not in seen["fpr-estimate"]
    assert "bloomlab.feistel" not in seen["bp-attack"]
    assert seen["heavy"] == []


_FILIC_PROBE = """
import io, json, sys
import bloomlab.cli as cli

assert cli.main(["filic-distinguish", "--trials", "1"], io.StringIO(), io.StringIO()) == 0
print(json.dumps(sorted(m for m in sys.modules if m.startswith("bloomlab."))))
"""


def test_reveal_oracle_run_loads_no_betting_game_module():
    """A first experiment run in its own interpreter: the probe above runs
    bp-attack, which loads games, before filic-distinguish."""
    src = str(Path(bloomlab.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", _FILIC_PROBE], capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert "bloomlab.filic" in loaded and "bloomlab.feistel" in loaded
    assert not {"bloomlab.games", "bloomlab.privacy", "bloomlab.learned"} & loaded


def test_readme_names_the_current_snapshot_version():
    from bloomlab.filters import FORMAT_VERSION

    readme = (Path(bloomlab.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    stated = [line for line in readme.splitlines() if line.startswith("The current version is ")]
    assert len(stated) == 1
    assert stated[0].split()[4].rstrip(".,") == str(FORMAT_VERSION)


def test_the_version_is_stated_once_and_prefixes_the_build_identifier():
    from bloomlab import cli

    pyproject = (Path(bloomlab.__file__).resolve().parents[2] / "pyproject.toml").read_text(encoding="utf-8")
    # A regex rather than tomllib, which Python 3.10 lacks.
    assert re.findall(r'^version = "([^"]*)"$', pyproject, re.MULTILINE) == [bloomlab.__version__]
    assert re.fullmatch(rf"bloomlab-{re.escape(bloomlab.__version__)}(\+g[0-9a-f]+)?", cli.build_identifier())


def test_every_export_is_its_submodules_object():
    for name in bloomlab.__all__:
        module = importlib.import_module(f"bloomlab.{bloomlab._EXPORTS[name]}")
        assert getattr(bloomlab, name) is getattr(module, name), name


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from bloomlab import *", namespace)
    for name in bloomlab.__all__:
        assert namespace[name] is getattr(bloomlab, name), name
    assert set(bloomlab.__all__) <= set(dir(bloomlab))


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        bloomlab.no_such_name
    assert not hasattr(bloomlab, "estimate_advantage_v2")


def _record_cases():
    from bloomlab import cli
    from bloomlab.filic import AdvantageReport, OracleBudget
    from bloomlab.filters import FilterParams, Universe
    from bloomlab.games import GameConfig, saturation_probability
    from bloomlab.learned import TrainingDataset
    from bloomlab.privacy import PerturbedSet, PrivacyParams, privacy_budget

    return [
        (lambda: FilterParams(8, 3, 2), "m"),
        (lambda: GameConfig(Universe(64), 2, 1, 0.5), "universe"),
        (lambda: PrivacyParams("mangat", 0.5), "mode"),
        (lambda: privacy_budget(PrivacyParams("warner", 0.75)), "epsilon"),
        (lambda: OracleBudget(0, 4, 1), "inserts"),
        (lambda: TrainingDataset(((1, 1), (2, 0))), "pairs"),
        (lambda: saturation_probability(8, 20, 3), "exact"),
        (lambda: AdvantageReport(10, 0.5, 0.25, 0.25, 0.0, 0.75), "trials"),
        (lambda: cli.Param("m", "int", 8), "name"),
        (lambda: cli.Experiment("x", (), 1, len), "name"),
        (lambda: Universe(64), "size"),
        (lambda: PerturbedSet(frozenset({1, 2}), "mangat", 0.5, 2), "members"),
    ]


_RECORD_CASES = _record_cases()


@pytest.mark.parametrize("make, field", _RECORD_CASES,
                         ids=[type(make()).__name__ for make, _ in _RECORD_CASES])
def test_records_are_immutable_values(make, field):
    a, b = make(), make()
    assert a is not b and a == b and hash(a) == hash(b)
    assert repr(a).startswith(f"{type(a).__name__}({field}=")
    with pytest.raises(AttributeError):
        setattr(a, field, None)
    with pytest.raises(AttributeError):
        a.unknown_field = 1
    assert a == b
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a


def test_records_keep_their_keyword_and_positional_forms():
    from bloomlab import cli
    from bloomlab.filters import FilterParams, Universe

    assert FilterParams(m=8, k=3, n=2) == FilterParams(8, 3, 2)
    assert FilterParams._fields == ("m", "k", "n")
    assert cli.Param("m", "int", 8).choices is None
    experiment = cli.Experiment("x", (), 1, len)
    assert (experiment.name, experiment.params, experiment.default_trials, experiment.runner) == (
        "x", (), 1, len)
    universe = Universe(size=8)
    for use in (len, iter, lambda u: 3 in u):
        with pytest.raises(TypeError):
            use(universe)


def test_readme_library_quick_start_runs(capsys):
    readme = (Path(bloomlab.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out.startswith("PrivacyBudget(epsilon=")
