"""Smoke tests for the example scripts, against the bounds of the matching verify checks."""

import csv
import importlib.util
import re
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_entanglement_demo(tmp_path, capsys):
    # composite-entanglement: global entropy within 1e-9 of 0, a subsystem above 0.1 nats
    out = tmp_path / "demo.csv"
    assert load("entanglement_demo").main(["--points", "21", "--out", str(out)]) == 0
    with out.open(encoding="utf-8") as handle:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(handle)]
    assert len(rows) == 21
    assert max(abs(row["global_entropy"]) for row in rows) <= 1e-9
    assert max(row["subsystem_entropy_a"] for row in rows) > 0.1
    assert "peak subsystem entropy" in capsys.readouterr().err


def test_perturbation_scaling(capsys):
    # first-order-scaling: the fitted log-log slope within 0.2 of 2
    assert load("perturbation_scaling").main([]) == 0
    slope = re.search(r"slope of the gap: (\S+)", capsys.readouterr().out)
    assert float(slope.group(1)) == pytest.approx(2.0, abs=0.2)
