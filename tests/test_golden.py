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

# golden stem -> argv; "{csv}" and "{summary}" become output paths, and a
# case without them is compared on its stdout.
CASES = {
    "evolve_spin_static": ("evolve", "spin_static.json", "--out", "{csv}", "--summary", "{summary}"),
    "evolve_spin_rabi": ("evolve", "spin_rabi.json", "--out", "{csv}", "--summary", "{summary}"),
    "evolve_lattice_momentum": ("evolve", "lattice_momentum.json", "--out", "{csv}", "--summary", "{summary}"),
    "perturb_spin_rabi": ("perturb", "spin_rabi.json", "--out", "{csv}", "--summary", "{summary}"),
    "rabi_default": ("rabi",),
    "rabi_detuned": ("rabi", "--delta", "1.3", "--omega", "0.7", "--t-max", "100", "--points", "3000"),
    "basis_check": ("basis-check",),
}


def _run(stem: str, directory: Path) -> dict:
    """Golden file name -> bytes the case produced."""
    paths = {"csv": directory / f"{stem}.csv", "summary": directory / f"{stem}.summary.json"}
    argv = [
        str(SCENARIOS / part) if part.endswith(".json") else part.format(**{k: str(p) for k, p in paths.items()})
        for part in CASES[stem]
    ]
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(argv) == 0
    if "{csv}" not in CASES[stem]:
        return {f"{stem}.txt": stdout.getvalue().encode("utf-8")}
    return {path.name: path.read_bytes() for path in paths.values()}


@pytest.mark.parametrize("stem", sorted(CASES))
def test_output_matches_golden(stem, tmp_path):
    for name, produced in _run(stem, tmp_path).items():
        assert produced == (GOLDEN / name).read_bytes(), f"{name} differs from tests/golden/{name}"


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for stem in CASES:
        for name, produced in _run(stem, GOLDEN).items():
            (GOLDEN / name).write_bytes(produced)
            print(f"wrote tests/golden/{name}", file=sys.stderr)
