"""Tests for the command-line interface and the invariant suite."""

import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from entrodyn.cli import RABI_COLUMNS, main
from entrodyn import cli, invariants, scenario
from entrodyn.invariants import run_invariant_suite
from entrodyn.linalg import hermitian_eig
from entrodyn.sampling import DEFAULT_SEED, rng_for
from entrodyn.scenario import (
    MAX_DIMENSION,
    MAX_GRID_CELLS,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
)
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

    @pytest.mark.parametrize("index", range(len(invariants._CHECKS)))
    def test_draw_labels_are_distinct(self, index):
        draws = invariants._CHECKS[index].__wrapped__(rng_for(DEFAULT_SEED, index), (2, 3, 4, 8))
        labels = [label for label, _ in draws]
        assert labels and len(set(labels)) == len(labels)

    def test_fail_line_names_the_draw(self):
        text = run_invariant_suite(dims=(2, 4), corrupt_evolution=True).format()
        fails = [line for line in text.splitlines() if line.startswith("FAIL")]
        assert len(fails) == 1
        assert fails[0].startswith("FAIL entropy-invariance: ")
        assert fails[0].endswith(" worst at dim=4 rep=1")

    def test_check_run_alone_equals_its_suite_result(self):
        seed, dims, scale = 11, (2, 3, 5), 1e-6
        report = run_invariant_suite(seed=seed, dims=dims, tolerance_scale=scale)
        assert not report.passed  # so failing results, with their labels, are compared too
        for index, check in enumerate(invariants._CHECKS):
            alone = check(rng_for(seed, index), dims, scale)
            assert alone == report.results[index]
            assert (alone.worst is None) == (alone.residual == 0.0)

    def test_reducer_keeps_the_first_of_tied_draws(self):
        draws = (("zero", -0.0), ("first", 2.0), ("second", 2.0))
        draws += (("nan", math.nan), ("lower", 1.0), ("nan again", math.nan))

        @invariants._check("stub", 1.0)
        def stub(rng, dims, count):
            yield from draws[:count]

        assert stub(None, (2,), 0.5, count=3) == invariants.CheckResult("stub", 2.0, 0.5, False, "first")
        assert stub.__name__ == "stub"
        # a NaN draw fails the check, and the first one is named
        result = stub(None, (2,), 1e300, count=len(draws))
        assert math.isnan(result.residual) and (result.passed, result.worst) == (False, "nan")
        assert result.line() == "FAIL stub: residual=nan (tolerance 1.000e+300) worst at nan"
        negative = invariants._check("stub", 1.0)(lambda rng, dims: iter([("a", -0.0), ("b", -1.0)]))(None, (), 1.0)
        assert negative.worst is None and math.copysign(1.0, negative.residual) == 1.0
        assert f"{negative.residual:.3e}" == "0.000e+00"


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

    @pytest.mark.parametrize("command, name", [("evolve", "run_scenario"), ("perturb", "run_perturbation")])
    def test_runs_the_module_level_binding(self, command, name, capsys, monkeypatch):
        # a rebinding of entrodyn.cli's name (a tracer's span) must be what the command calls
        original = getattr(cli, name)
        specs = []

        def standing_in(spec):
            specs.append(spec)
            return original(spec)

        monkeypatch.setattr(cli, name, standing_in)
        code, out, _ = run_cli([command, str(SCENARIOS / "spin_rabi.json")], capsys)
        assert code == 0 and out.startswith("# entrodyn ")
        assert specs == [parse_scenario((SCENARIOS / "spin_rabi.json").read_text())]

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

    def test_entropy_drift_fails_naming_its_time(self, capsys, tmp_path, monkeypatch):
        evolved = scenario._evolved

        def dephased(rho0, phases):
            """Shrink rho(t)'s coherences by |Re P_t0|: untouched at t = 0, not unitary after."""
            rho = evolved(rho0, phases)
            return np.where(np.eye(len(rho0), dtype=bool), rho, rho * np.abs(phases[:, :1, None].real))

        monkeypatch.setattr(scenario, "_evolved", dephased)
        out_path, summary_path = tmp_path / "series.csv", tmp_path / "summary.json"
        code, _, err = run_cli(
            ["evolve", str(SCENARIOS / "spin_rabi.json"), "--out", str(out_path), "--summary", str(summary_path)],
            capsys,
        )
        assert code == 1
        table = np.loadtxt(out_path, delimiter=",", skiprows=2)
        drift = np.abs(table[:, 1] - table[0, 1])
        worst = f"t = {table[np.argmax(drift), 0]:.15g}"
        summary = json.loads(summary_path.read_text())
        assert summary["passed"] is False
        assert summary["checks"][0]["worst"] == worst and summary["checks"][0]["residual"] > 1e-3
        assert re.fullmatch(rf"FAIL entropy-constancy: residual=\S+ \(tolerance 1\.000e-09\) worst at {worst}\n", err)

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_unwritable_output_is_input_error(self, flag, capsys, tmp_path):
        # both targets are opened before either is emptied or written, so each file keeps what it held
        held = {"--out": tmp_path / "series.csv", "--summary": tmp_path / "summary.json"}
        for name, path in held.items():
            path.write_text(f"held by {name}\n")
        paths = {**held, flag: tmp_path / "missing" / "target"}
        argv = ["evolve", str(SCENARIOS / "spin_static.json")]
        for name, path in paths.items():
            argv += [name, str(path)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert re.fullmatch(rf"error: cannot write {flag}: .*{re.escape(repr(str(paths[flag])))}\n", err)
        assert not paths[flag].exists()
        assert all(path.read_text() == f"held by {name}\n" for name, path in held.items())

    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_unwritable_output_creates_no_file(self, flag, capsys, tmp_path):
        paths = {"--out": tmp_path / "series.csv", "--summary": tmp_path / "summary.json"}
        paths[flag] = tmp_path / "missing" / "target"
        argv = ["evolve", str(SCENARIOS / "spin_static.json")]
        for name, path in paths.items():
            argv += [name, str(path)]
        assert run_cli(argv, capsys)[0] == 2
        assert list(tmp_path.iterdir()) == []

    def test_existing_outputs_are_replaced(self, capsys, tmp_path):
        fresh = {"--out": tmp_path / "fresh.csv", "--summary": tmp_path / "fresh.json"}
        held = {"--out": tmp_path / "series.csv", "--summary": tmp_path / "summary.json"}
        for path in held.values():
            path.write_text("an older and longer file\n" * 1000)
        for paths in (fresh, held):
            argv = ["evolve", str(SCENARIOS / "spin_static.json")]
            for name, path in paths.items():
                argv += [name, str(path)]
            assert run_cli(argv, capsys)[0] == 0
        assert all(held[flag].read_bytes() == fresh[flag].read_bytes() for flag in held)
        # a target that is not a regular file is written as it is
        assert run_cli(["evolve", str(SCENARIOS / "spin_static.json"), "--out", os.devnull], capsys)[0] == 0

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


# A small valid document; each case below replaces one top-level section.
BASE_DOCUMENT = {
    "system": {"kind": "spin-half", "delta": 1.0},
    "initial": {"state": "alpha"},
    "time": {"start": 0.0, "stop": 1.0, "points": 3},
}
PARSE, INVALID = (ScenarioParseError, 2), (ScenarioValidationError, 1)

# (section replaced in BASE_DOCUMENT, (error type, CLI exit code), message pattern from its field path on)
ERROR_CASES = {
    "two initial states": (
        {"initial": {"state": "alpha", "probabilities": [1.0, 0.0]}},
        PARSE,
        r"initial: give exactly one of 'state', 'amplitudes', 'probabilities'",
    ),
    "unknown named state": (
        {"initial": {"state": "gamma"}},
        PARSE,
        r"initial\.state: unknown named state 'gamma'; expected alpha, beta, site, or momentum",
    ),
    "index required": ({"initial": {"state": "site"}}, PARSE, r"initial: named state 'site' requires an 'index'"),
    "index meaningless": (
        {"initial": {"state": "alpha", "index": 0}},
        PARSE,
        r"initial\.index: meaningless for named state 'alpha'",
    ),
    "index without a state": (
        {"initial": {"amplitudes": [1.0, 0.0], "index": 0}},
        PARSE,
        r"initial\.index: only valid together with a named 'state'",
    ),
    "empty probabilities": (
        {"initial": {"probabilities": []}},
        PARSE,
        r"initial\.probabilities: expected a nonempty array",
    ),
    "alpha beyond two levels": (
        {"system": {"kind": "lattice", "sites": 4, "length": 1.0, "mass": 1.0}},
        INVALID,
        r"initial\.state: 'alpha' needs a two-level system, dimension is 4",
    ),
    "index out of range": (
        {"initial": {"state": "site", "index": 5}},
        INVALID,
        r"initial\.index: site index 5 out of range for dimension 2",
    ),
    "wrong entry count": (
        {"initial": {"probabilities": [1.0]}},
        INVALID,
        r"initial\.probabilities: expected 2 entries, got 1",
    ),
    "unknown observable": (
        {"observables": [{"name": "spin"}]},
        PARSE,
        r"observables\[0\]\.name: unknown observable 'spin'; expected one of \(",
    ),
    "matrix of a named observable": (
        {"observables": [{"name": "sigma_x", "matrix": [[1.0]]}]},
        PARSE,
        r"observables\[0\]\.matrix: only valid when name is 'matrix'",
    ),
    "observables not an array": ({"observables": {"name": "sigma_x"}}, PARSE, r"observables: expected an array"),
    "matrix of the wrong shape": (
        {"observables": [{"name": "sigma_z"}, {"name": "matrix", "matrix": [[1.0]]}]},
        INVALID,
        r"observables\[1\]\.matrix: expected shape \(2, 2\), got \(1, 1\)",
    ),
    "non-Hermitian matrix": (
        {"observables": [{"name": "matrix", "matrix": [[0.0, 1.0], [0.0, 0.0]]}]},
        INVALID,
        r"observables\[0\]\.matrix is not Hermitian: \|\|m - m†\|\|_F / \|\|m\|\|_F = ",
    ),
    "targets a bad string": (
        {"outputs": {"transitions": {"source": 0, "targets": "some"}}},
        PARSE,
        r"outputs\.transitions\.targets: expected 'all' or an index array, got 'some'",
    ),
    "targets empty": (
        {"outputs": {"transitions": {"source": 0, "targets": []}}},
        PARSE,
        r"outputs\.transitions\.targets: expected 'all' or a nonempty index array",
    ),
    "source out of range": (
        {"outputs": {"transitions": {"source": 5}}},
        INVALID,
        r"outputs\.transitions\.source: index 5 out of range for dimension 2",
    ),
    "NaN number": (
        {"system": {"kind": "spin-half", "delta": math.nan}},
        PARSE,
        r"system\.delta: expected a finite number, got nan",
    ),
    "non-boolean entropy flag": ({"outputs": {"entropy": 1}}, PARSE, r"outputs\.entropy: expected true/false, got 1"),
    "unequal matrix rows": (
        {"system": {"kind": "explicit-matrices", "hamiltonian": [[1.0, 0.0], [0.0]]}},
        PARSE,
        r"system\.hamiltonian: rows have unequal lengths",
    ),
    "NaN matrix entry": (
        {"system": {"kind": "explicit-matrices", "hamiltonian": [[math.nan, 0.0], [0.0, 1.0]]}},
        PARSE,
        r"system\.hamiltonian\[0\]\[0\]: expected a finite number, got nan",
    ),
    "one lattice site": (
        {"system": {"kind": "lattice", "sites": 1, "length": 1.0, "mass": 1.0}},
        INVALID,
        r"system\.sites: need at least 2 sites, got 1",
    ),
    "zero lattice length": (
        {"system": {"kind": "lattice", "sites": 2, "length": 0.0, "mass": 1.0}},
        INVALID,
        r"system\.length: must be positive, got 0\.0",
    ),
    "negative mass": (
        {"system": {"kind": "lattice", "sites": 2, "length": 1.0, "mass": -1.0}},
        INVALID,
        r"system\.mass: must be positive, got -1\.0",
    ),
    "momentum squared overflows": (
        {"system": {"kind": "lattice", "sites": 2, "length": 1e-300, "mass": 1.0}},
        INVALID,
        r"system\.length: 1e-300 is too short: the largest momentum squared overflows float64",
    ),
    "kinetic energy overflows": (
        {"system": {"kind": "lattice", "sites": 2, "length": 1.0, "mass": 1e-320}},
        INVALID,
        r"system\.mass: 9\.99989e-321 is too small: the largest kinetic energy overflows float64",
    ),
    "time span overflows": (
        {"time": {"start": -1e308, "stop": 1e308, "points": 2}},
        INVALID,
        r"time\.stop: the span stop - start from -1e\+308 to 1e\+308 is not a finite float64",
    ),
}


class TestScenarioErrorTable:
    """Each malformed or invalid document raises its error type with a message that starts at the
    field path, and the CLI prints that message and exits with the type's code."""

    @pytest.mark.parametrize("case", sorted(ERROR_CASES))
    def test_error_names_its_field(self, case, capsys, tmp_path):
        section, (error, exit_code), pattern = ERROR_CASES[case]
        text = json.dumps({**BASE_DOCUMENT, **section})
        with pytest.raises(error, match=f"^{pattern}"):
            parse_scenario(text)
        path = tmp_path / "scenario.json"
        path.write_text(text)
        code, out, err = run_cli(["evolve", str(path)], capsys)
        assert code == exit_code
        assert out == ""
        assert re.match(f"error: {pattern}", err) and err.count("\n") == 1


class TestNearFloat64Limit:
    # the mean kinetic energy, H's diagonal, is 0.96e308 here: (h + h†) once doubled it past the float64 range
    DOCUMENT = {
        "system": {"kind": "lattice", "sites": 3, "length": 1.0, "mass": 1.373e-307},
        "initial": {"probabilities": [0.5, 0.3, 0.2]},
        "time": {"start": 0.0, "stop": 1.0, "points": 3},
        "observables": [{"name": "energy"}],
        "outputs": {"populations": True, "transitions": {"source": 0}},
    }

    def _run(self, command, capsys, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(self.DOCUMENT))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return run_cli([command, str(path), "--out", str(tmp_path / "series.csv")], capsys)

    def test_evolve_runs_without_a_warning(self, capsys, tmp_path):
        assert self._run("evolve", capsys, tmp_path) == (0, "", "")
        table = np.loadtxt(tmp_path / "series.csv", delimiter=",", skiprows=2)
        np.testing.assert_allclose(table[:, 2], 2.0 / 3.0 * (2 * math.pi) ** 2 / (2 * 1.373e-307), rtol=1e-13)

    def test_perturb_names_the_column_beyond_float64(self, capsys, tmp_path):
        # t² |H_kj|² is beyond float64 for every t > 0; the error names the column's field, with no warning
        code, out, err = self._run("perturb", capsys, tmp_path)
        assert code == 1 and out == ""
        pattern = r"error: outputs\.transitions\.targets: column 'first_order_0_to_1' is not finite at t = 0\.5\n"
        assert re.fullmatch(pattern, err)


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

    @pytest.mark.parametrize("flag", ["--delta", "--omega", "--t-max"])
    def test_negative_value_in_exponent_form_is_a_value(self, flag, capsys):
        code, out, err = run_cli(["rabi", flag, "-1e3", "--points", "2"], capsys)
        assert (code, err) == (0, "")
        assert out == run_cli(["rabi", f"{flag}=-1000", "--points", "2"], capsys)[1]

    def test_negative_infinite_t_max_reaches_the_finite_check(self, capsys):
        code, out, err = run_cli(["rabi", "--t-max", "-inf"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: --t-max must be finite, got -inf\n"

    def test_overflowing_energy_times_t_max_is_input_error(self, capsys):
        code, out, err = run_cli(["rabi", "--delta", "1e308", "--omega", "1e308"], capsys)
        assert code == 2
        assert out == ""
        assert "w t is not finite" in err
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
