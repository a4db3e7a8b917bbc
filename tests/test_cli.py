"""Tests for the command-line interface and the invariant suite."""

import json
import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from entrodyn.cli import RABI_COLUMNS, main
from entrodyn import invariants
from entrodyn.invariants import run_invariant_suite
from entrodyn.linalg import hermitian_eig
from entrodyn.sampling import rng_for
from entrodyn.scenario import MAX_DIMENSION, MAX_GRID_CELLS
from entrodyn.systems import SpinHalfSystem, spin_hamiltonian

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVerify:
    def test_default_suite_passes(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_custom_dims_and_seed(self, capsys):
        code, out, _ = run_cli(["verify", "--seed", "7", "--dims", "2,3"], capsys)
        assert code == 0
        assert "seed=7" in out

    def test_bad_dims_is_input_error(self, capsys):
        code, _, err = run_cli(["verify", "--dims", "2,x"], capsys)
        assert code == 2
        assert "dims" in err

    def test_dims_below_two_rejected(self, capsys):
        code, _, err = run_cli(["verify", "--dims", "1,2"], capsys)
        assert code == 2
        assert "dims" in err

    @pytest.mark.parametrize("dims", [str(MAX_DIMENSION + 1), "2,100000000"])
    def test_dims_above_max_dimension_rejected(self, dims, capsys):
        code, out, err = run_cli(["verify", "--dims", dims], capsys)
        assert code == 2
        assert out == ""
        assert "--dims" in err and "MAX_DIMENSION" in err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_meaningless_tolerance_scale_rejected(self, scale, capsys):
        code, out, err = run_cli(["verify", f"--tolerance-scale={scale}"], capsys)
        assert code == 2
        assert out == ""
        assert "--tolerance-scale" in err


class TestInvariantSuite:
    def test_negative_control_fails_entropy_invariance(self):
        report = run_invariant_suite(dims=(2, 4), corrupt_evolution=True)
        assert not report.passed
        failing = {r.name for r in report.results if not r.passed}
        assert failing == {"entropy-invariance"}

    def test_verdicts_stable_across_seeds(self):
        verdicts = set()
        for seed in range(10):
            report = run_invariant_suite(seed=seed, dims=(2, 4))
            verdicts.add(report.passed)
        assert verdicts == {True}

    @pytest.mark.parametrize("scale", [float("inf"), float("nan"), 0.0, -1.0])
    def test_meaningless_tolerance_scale_raises(self, scale):
        with pytest.raises(ValueError, match="tolerance_scale"):
            run_invariant_suite(dims=(2,), tolerance_scale=scale)

    def test_dims_above_max_dimension_raise(self):
        with pytest.raises(ValueError, match="MAX_DIMENSION"):
            run_invariant_suite(dims=(2, MAX_DIMENSION + 1))

    def test_kron_trace_product_allocation_is_bounded(self):
        # the whole (dim^2 x dim^2) product at dim = MAX_DIMENSION would be a 4 GiB array
        tracemalloc.start()
        try:
            result = invariants._check_kron_trace(rng_for(0, 2), (MAX_DIMENSION,), 1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed
        assert peak < 512 * 2**20

    def test_tolerance_scale_loosens(self):
        report = run_invariant_suite(dims=(2,), tolerance_scale=100.0)
        assert all(r.tolerance >= 0.0 for r in report.results)
        assert report.passed


class TestEvolveCommand:
    @pytest.mark.parametrize(
        "fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json"]
    )
    def test_fixture_runs_clean(self, fixture, capsys, tmp_path):
        out_path = tmp_path / "series.csv"
        summary_path = tmp_path / "summary.json"
        code, _, _ = run_cli(
            [
                "evolve",
                str(SCENARIOS / fixture),
                "--out",
                str(out_path),
                "--summary",
                str(summary_path),
            ],
            capsys,
        )
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("# entrodyn ")
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is True

    @pytest.mark.parametrize(
        "fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json"]
    )
    def test_byte_identical_reruns(self, fixture, capsys, tmp_path):
        paths = [tmp_path / "run1.csv", tmp_path / "run2.csv"]
        for path in paths:
            code, _, _ = run_cli(
                ["evolve", str(SCENARIOS / fixture), "--out", str(path)], capsys
            )
            assert code == 0
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_stdout_default(self, capsys):
        code, out, _ = run_cli(["evolve", str(SCENARIOS / "spin_rabi.json")], capsys)
        assert code == 0
        assert out.splitlines()[1].startswith("t,")

    def test_missing_file_is_input_error(self, capsys, tmp_path):
        code, _, err = run_cli(["evolve", str(tmp_path / "nope.json")], capsys)
        assert code == 2
        assert "cannot read" in err

    def test_malformed_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{ nope")
        code, _, err = run_cli(["evolve", str(path)], capsys)
        assert code == 2
        assert "invalid JSON" in err

    def test_deeply_nested_document_is_input_error(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 10**5)
        code, _, err = run_cli(["evolve", str(path)], capsys)
        assert code == 2
        assert "nested too deeply" in err

    @pytest.mark.parametrize("command", ["evolve", "perturb"])
    def test_non_utf8_document_is_input_error(self, command, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff{}")
        code, _, err = run_cli([command, str(path)], capsys)
        assert code == 2
        assert "not UTF-8" in err and "0xff" in err

    def test_validation_failure_is_exit_one(self, capsys, tmp_path):
        path = tmp_path / "badprob.json"
        path.write_text(
            json.dumps(
                {
                    "system": {"kind": "spin-half", "delta": 2.0},
                    "initial": {"probabilities": [0.5, 0.6]},
                    "time": {"start": 0.0, "stop": 1.0, "points": 2},
                }
            )
        )
        code, _, err = run_cli(["evolve", str(path)], capsys)
        assert code == 1
        assert "sum to 1" in err


class TestPerturbCommand:
    def test_emits_exact_and_first_order(self, capsys):
        code, out, _ = run_cli(["perturb", str(SCENARIOS / "spin_rabi.json")], capsys)
        assert code == 0
        header = out.splitlines()[1]
        assert header == "t,exact_0_to_1,first_order_0_to_1"

    def test_requires_transitions_section(self, capsys):
        code, _, err = run_cli(["perturb", str(SCENARIOS / "spin_static.json")], capsys)
        assert code == 1
        assert "transitions" in err


class TestRabiCommand:
    def test_resonant_grid(self, capsys):
        code, out, _ = run_cli(
            ["rabi", "--delta", "0", "--omega", "1", "--t-max", "3.141592653589793", "--points", "3"],
            capsys,
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "t,pop_alpha,pop_beta"
        last = lines[-1].split(",")
        assert abs(float(last[2]) - 1.0) <= 1e-9

    def test_bad_points(self, capsys):
        code, _, err = run_cli(["rabi", "--points", "0"], capsys)
        assert code == 2
        assert "points" in err

    def test_points_over_grid_bound_rejected_before_allocation(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(np, "linspace", refuse)
        code, out, err = run_cli(["rabi", "--points", str(MAX_GRID_CELLS // len(RABI_COLUMNS) + 1)], capsys)
        assert code == 2
        assert out == ""
        assert "--points" in err and "MAX_GRID_CELLS" in err

    @pytest.mark.parametrize("t_max", ["inf", "-inf", "nan"])
    def test_non_finite_t_max_is_input_error(self, t_max, capsys):
        code, out, err = run_cli(["rabi", f"--t-max={t_max}"], capsys)
        assert code == 2
        assert out == ""
        assert "--t-max must be finite" in err

    def test_overflowing_energy_times_t_max_is_input_error(self, capsys):
        code, out, err = run_cli(["rabi", "--delta", "1e308", "--omega", "1e308"], capsys)
        assert code == 2
        assert out == ""
        assert "overflows" in err
        # the same splitting over a short enough grid is fine
        code, out, _ = run_cli(["rabi", "--delta", "1e308", "--omega", "1e308", "--t-max", "1e-300"], capsys)
        assert code == 0
        assert "nan" not in out

    def test_overflow_past_the_energy_estimate_is_input_error(self, capsys):
        """hypot(delta, omega)/2 times --t-max is finite here, but the computed eigenvalue is one
        rounding larger and its w t overflows: the phases refuse it, and no NaN row is printed."""
        delta, omega, t_max = 2.739233746429086, -4.604265724722594, 6.710956892516743e307
        w = float(np.abs(hermitian_eig(spin_hamiltonian(SpinHalfSystem(delta, omega))).eigenvalues).max())
        assert math.isfinite(math.hypot(delta / 2.0, omega / 2.0) * t_max) and not math.isfinite(w * t_max)
        code, out, err = run_cli(
            ["rabi", "--delta", str(delta), "--omega", str(omega), "--t-max", str(t_max), "--points", "3"], capsys
        )
        assert code == 2
        assert out == ""
        assert "w t is not finite" in err


class TestBasisCheckCommand:
    def test_passes_up_to_n(self, capsys):
        code, out, _ = run_cli(["basis-check", "--lattice-n", "16"], capsys)
        assert code == 0
        assert "FAIL" not in out
        assert "n=16" in out

    def test_rejects_tiny_n(self, capsys):
        code, _, err = run_cli(["basis-check", "--lattice-n", "1"], capsys)
        assert code == 2
        assert "lattice-n" in err

    def test_rejects_n_above_max_dimension(self, capsys):
        code, out, err = run_cli(["basis-check", "--lattice-n", str(MAX_DIMENSION + 1)], capsys)
        assert code == 2
        assert out == ""
        assert "--lattice-n" in err and "MAX_DIMENSION" in err


class TestModuleEntryPoint:
    def test_python_dash_m_invocation(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "entrodyn", "rabi", "--points", "2"],
            capture_output=True,
            text=True,
            check=False,
        )
        assert result.returncode == 0
        assert result.stdout.startswith("# entrodyn ")
