"""Package exports bound on first use, and a CLI that loads only its experiment."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bloomlab

# Checked in a fresh interpreter: this process has every module loaded already.
_PROBE = """
import io, json, sys
import bloomlab.cli as cli

def loaded():
    return sorted(m for m in sys.modules if m.startswith("bloomlab."))

seen = {"import": loaded()}
for argv in (["fpr-estimate", "--trials", "1", "--queries", "1"],
             ["ab-game", "--trials", "1"], ["bp-attack", "--trials", "1"]):
    assert cli.main(argv, io.StringIO(), io.StringIO()) == 0, argv
    seen[argv[0]] = loaded()
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
