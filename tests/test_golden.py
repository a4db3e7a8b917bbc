"""Byte-for-byte comparison of CLI outputs against the files in tests/golden/.

Each case runs ``entrodyn.cli.main`` and compares every file it writes (or
its stdout) with the stored copy. To regenerate the goldens after a change
that is meant to move them, run from the repository root:

    PYTHONPATH=src python tests/test_golden.py

and review the diff of tests/golden/ before committing it.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from entrodyn.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
SCENARIOS = ROOT / "scenarios"

# golden stem -> (exit code, argv); "{csv}" and "{summary}" become output
# paths, and a case without them is compared on its stdout.
CASES = {
    "evolve_spin_static": (0, ("evolve", "spin_static.json", "--out", "{csv}", "--summary", "{summary}")),
    "evolve_spin_rabi": (0, ("evolve", "spin_rabi.json", "--out", "{csv}", "--summary", "{summary}")),
    "evolve_lattice_momentum": (0, ("evolve", "lattice_momentum.json", "--out", "{csv}", "--summary", "{summary}")),
    "evolve_composite_entanglement": (
        0,
        ("evolve", "composite_entanglement.json", "--out", "{csv}", "--summary", "{summary}"),
    ),
    "evolve_explicit_mixture": (0, ("evolve", "explicit_mixture.json", "--out", "{csv}", "--summary", "{summary}")),
    "perturb_spin_rabi": (0, ("perturb", "spin_rabi.json", "--out", "{csv}", "--summary", "{summary}")),
    "rabi_default": (0, ("rabi",)),
    "rabi_detuned": (0, ("rabi", "--delta", "1.3", "--omega", "0.7", "--t-max", "100", "--points", "3000")),
    "basis_check": (0, ("basis-check",)),
    "verify_default": (0, ("verify",)),
    "verify_seed7": (0, ("verify", "--seed", "7", "--dims", "2,3,5,8")),
    # 17 of 24 checks fail at this scale, so each FAIL line and its draw are pinned
    "verify_tight": (1, ("verify", "--dims", "3,5,16", "--tolerance-scale", "1e-6")),
}


def _outputs(stem: str) -> dict:
    """The case's output placeholders -> golden file names; {"stdout": <stem>.txt} for a case without any."""
    if "{csv}" not in CASES[stem][1]:
        return {"stdout": f"{stem}.txt"}
    return {"csv": f"{stem}.csv", "summary": f"{stem}.summary.json"}


def _run(stem: str, directory: Path) -> dict:
    """Golden file name -> bytes the case produced."""
    paths = {key: directory / name for key, name in _outputs(stem).items()}
    code, parts = CASES[stem]
    argv = [
        str(SCENARIOS / part) if part.endswith(".json") else part.format(**{k: str(p) for k, p in paths.items()})
        for part in parts
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == code
    if "stdout" in paths:
        return {paths["stdout"].name: stdout.getvalue().encode("utf-8")}
    return {path.name: path.read_bytes() for path in paths.values()}


@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem, tmp_path):
    for name, produced in _run(stem, tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from tests/golden/{name}"


def test_every_fixture_and_golden_belongs_to_a_case():
    """No shipped scenario runs unpinned, and no golden file is left that no case writes."""
    used = {part for _, parts in CASES.values() for part in parts if part.endswith(".json")}
    assert sorted(path.name for path in SCENARIOS.glob("*.json")) == sorted(used)
    written = {name for stem in CASES for name in _outputs(stem).values()}
    assert sorted(path.name for path in GOLDEN.iterdir()) == sorted(written)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        for name, produced in _run(stem, GOLDEN).items():
            (GOLDEN / name).write_bytes(produced)
            print(f"wrote tests/golden/{name}", file=sys.stderr)
