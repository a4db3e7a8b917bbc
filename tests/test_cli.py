"""Tests for the command-line interface and the invariant suite."""

import argparse
import errno
import hashlib
import io
import json
import math
import os
import re
import stat
import subprocess
import sys
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

from entrodyn.cli import RABI_COLUMNS, main
from entrodyn import cli, ensembles, invariants, linalg, scenario, systems
from entrodyn.ensembles import spectrum_entropy
from entrodyn.errors import DomainError
from entrodyn.invariants import run_invariant_suite
from entrodyn.linalg import hermitian_eig
from entrodyn.sampling import DEFAULT_SEED, random_hermitian, rng_for
from entrodyn.scenario import (
    MAX_DIMENSION,
    MAX_GRID_CELLS,
    ScenarioParseError,
    ScenarioValidationError,
    parse_scenario,
    resolve_scenario,
)
from entrodyn.systems import SpinHalfSystem, spin_hamiltonian

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# (worst draw, residual by repr, sha256 prefix of every draw's label and residual and then of every entropy and
# Rabi population it read, by repr) of the six checks whose entropies and populations were lone solves before
# the suite stacked them, keyed by (seed, dims, corrupt_evolution), as those lone solves gave them
_MOVED_CHECK_PINS = {
    (1, (2, 4, 8), False): {
        "mixture-spectrum-entropy": ("dim=2 rep=2", "4.440892098500626e-16", "589e774322112d56"),
        "entropy-additivity": ("dim=2", "4.440892098500626e-16", "c5e00254c03d195c"),
        "entropy-invariance": ("dim=8 rep=5", "2.4424906541753444e-15", "17a386e3307f2cb4"),
        "rabi-population-sum": ("rep=1", "6.661338147750939e-16", "6ec632ebda57eb0b"),
        "rabi-closed-form": ("delta=0 omega=1 t[141]", "2.1094237467877974e-15", "0e63a645e9ad91a9"),
        "composite-entanglement": ("global entropy t=10.75", "9.186760925873516e-16", "4d761046b8097524"),
    },
    (1, (2, 4, 8), True): {
        "mixture-spectrum-entropy": ("dim=2 rep=2", "4.440892098500626e-16", "589e774322112d56"),
        "entropy-additivity": ("dim=2", "4.440892098500626e-16", "c5e00254c03d195c"),
        "entropy-invariance": ("dim=2 rep=1", "0.16397747837814475", "9388a57d12ef3243"),
        "rabi-population-sum": ("rep=1", "6.661338147750939e-16", "6ec632ebda57eb0b"),
        "rabi-closed-form": ("delta=0 omega=1 t[141]", "2.1094237467877974e-15", "0e63a645e9ad91a9"),
        "composite-entanglement": ("global entropy t=10.75", "9.186760925873516e-16", "4d761046b8097524"),
    },
    (7, (2, 3, 5, 8), False): {
        "mixture-spectrum-entropy": ("dim=8 rep=2", "4.440892098500626e-16", "29cdaa1eaed12110"),
        "entropy-additivity": ("dim=5", "8.881784197001252e-16", "6b860b5907bafeb3"),
        "entropy-invariance": ("dim=8 rep=3", "1.1102230246251565e-15", "c9b98e90c11360df"),
        "rabi-population-sum": ("rep=0", "4.440892098500626e-16", "4b4d0ba71e79f564"),
        "rabi-closed-form": ("delta=0 omega=1 t[141]", "2.1094237467877974e-15", "0e63a645e9ad91a9"),
        "composite-entanglement": ("global entropy t=10.75", "9.186760925873516e-16", "4d761046b8097524"),
    },
    (7, (2, 3, 5, 8), True): {
        "mixture-spectrum-entropy": ("dim=8 rep=2", "4.440892098500626e-16", "29cdaa1eaed12110"),
        "entropy-additivity": ("dim=5", "8.881784197001252e-16", "6b860b5907bafeb3"),
        "entropy-invariance": ("dim=3 rep=1", "0.11450377074512286", "968f1fc36ca098f4"),
        "rabi-population-sum": ("rep=0", "4.440892098500626e-16", "4b4d0ba71e79f564"),
        "rabi-closed-form": ("delta=0 omega=1 t[141]", "2.1094237467877974e-15", "0e63a645e9ad91a9"),
        "composite-entanglement": ("global entropy t=10.75", "9.186760925873516e-16", "4d761046b8097524"),
    },
}

# sha256 of a suite report's format() text, then each result's name, residual by repr and worst draw, one line
# each, at tolerance scale 1e-6 (so most checks fail and name their worst draw), keyed by (seed, dims,
# corrupt_evolution), as the suite gives them with each check drawing from its declared stream
_SUITE_PINS = {
    (1, (2, 4, 8), False): "c7864aec87656c2e548fccf153feba8a979621b7e28260915f5efe6bf5b4dd32",
    (1, (2, 4, 8), True): "46bc1d8e124113d4d9c76188e2f47f76488245d5ea32e010ed9b6e830e659164",
    (1, (2, 3, 5, 8), False): "005581ebb19a699d04b81e8b8baec4c1438cf8982fa85f3fcbf47aa91a982f4f",
    (1, (2, 3, 5, 8), True): "3214132a8298b8dedbedecbc33102bca6ee35ce6896ffbe14340716311d24647",
    (7, (2, 4, 8), False): "97961854f7b4af50080bebc9f927bbb432f962aa19fa60b56eaa7e6671b89e34",
    (7, (2, 4, 8), True): "9b12960c0e19faef0d627f59e6629b1d3b4cbf19f8120ba88c4e2183bd062282",
    (7, (2, 3, 5, 8), False): "feb9822ae6bbcfd48acbbf88c54aaafdbe7ad11cd4d04ff846be77382cc50b2b",
    (7, (2, 3, 5, 8), True): "ecadf81d718250ba5bd34c94463344d074adc394d898c08f9134856954c93b20",
    (42, (2, 4, 8), False): "895e3d9ddf69a74b1f07a9f37b6f6c851aa55185c6526d1614c0ddf1c9f5ab27",
    (42, (2, 4, 8), True): "fb98f3b30b23103a16a78969aa10b1bac3a2e64e87c9d6e4ed3f8693cfacb614",
    (42, (2, 3, 5, 8), False): "cf4b72424069b5b1d2eeca90c1d415972fb17738d6c0fd1c004b195a7c078cdb",
    (42, (2, 3, 5, 8), True): "93a6d1852e376b0fe632b81a6327a5885debedc6b73a3698646a5a7f3d9188c3",
}


def _noted(draws, note):
    """The generator ``draws``, passed through as ``_run`` takes it, ``note`` called on each (label, residual)
    draw."""
    try:
        item = next(draws)
        while True:
            if not isinstance(item, list):
                note(item)
            item = draws.send((yield item))
    except StopIteration:
        pass


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

    @pytest.mark.parametrize("dims", ["4,4", "2,8,2", "4, 4"])
    def test_repeated_dims_rejected(self, dims, capsys):
        # two draws would share one label, so a FAIL line's worst draw would name no single draw
        code, out, err = run_cli(["verify", "--dims", dims], capsys)
        assert (code, out) == (2, "")
        assert "--dims" in err and "repeat" in err

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_meaningless_tolerance_scale_rejected(self, scale, capsys):
        code, out, err = run_cli(["verify", f"--tolerance-scale={scale}"], capsys)
        assert code == 2
        assert out == ""
        assert "--tolerance-scale" in err


def _rebind(monkeypatch, original, replacement) -> None:
    """Put ``replacement`` in place of the function ``original`` at every entrodyn module's binding of it."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "entrodyn":
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def _block_diagonal_document() -> tuple:
    """(H, weights, document): an explicit 24-level H with a 5-level and a 19-level block, as a quantity the
    site basis conserves makes it, under which the small block converges sweeps before the large one; a
    mixture of the sites; entropy, energy, populations and two transitions."""
    rng = rng_for(4)
    h = np.zeros((24, 24), dtype=complex)
    h[:5, :5] = random_hermitian(rng, 5)
    h[5:, 5:] = random_hermitian(rng, 19)
    weights = rng.standard_exponential(24)
    weights /= weights.sum()
    document = {
        "system": {"kind": "explicit-matrices", "hamiltonian": [[[z.real, z.imag] for z in row] for row in h]},
        "initial": {"probabilities": weights.tolist()},
        "time": {"start": 0.0, "stop": 2.0, "points": 5},
        "observables": [{"name": "energy"}],
        "outputs": {"entropy": True, "populations": True, "transitions": {"source": 0, "targets": [1, 7]}},
    }
    return h, weights, document


class TestInvariantSuite:
    def test_negative_control_fails_entropy_invariance(self):
        report = run_invariant_suite(dims=(2, 4), corrupt_evolution=True)
        assert not report.passed
        failing = {r.name for r in report.results if not r.passed}
        assert failing == {"entropy-invariance"}

    @pytest.mark.parametrize(
        "seed, dims, worst, residual",
        [
            (DEFAULT_SEED, (2, 4, 8), "dim=8 rep=5", 0.12778654558841573),
            (7, (2, 3, 5, 8), "dim=3 rep=1", 0.11450377074512286),
        ],
    )
    def test_negative_control_fails_on_its_pinned_draw(self, seed, dims, worst, residual):
        # the draws are solved as one stack per dim, with the bits of solving each alone
        report = run_invariant_suite(seed=seed, dims=dims, corrupt_evolution=True)
        (result,) = [r for r in report.results if not r.passed]
        assert (result.name, result.worst, result.residual) == ("entropy-invariance", worst, residual)

    def test_default_suite_makes_no_positivity_solve(self, monkeypatch):
        # composites are kron products of draws that are PSD by construction, and the entropy of each
        # factor's spectrum refuses an eigenvalue below EIGENVALUE_CLAMP; work counts are exact, so traffic
        # shows here: every eigensolve, lone or stacked, entropy or not, is one linalg._solve of a stack
        flags, solves = [], []
        original, solve = ensembles.as_density_matrix, linalg._solve

        def recording(rho, *, check_psd=True):
            flags.append(check_psd)
            return original(rho, check_psd=check_psd)

        _rebind(monkeypatch, original, recording)
        _rebind(monkeypatch, solve, lambda h, *args: solves.append(len(h)) or solve(h, *args))
        run_invariant_suite(1, (2, 4, 8))
        assert flags and not any(flags)
        stacks = [size for size in solves if size > 1]
        assert (solves.count(1), len(stacks), sum(stacks)) == (2, 6, 356)
        assert sum(solves) == 358

    def test_checks_solve_once_per_size_per_round(self, monkeypatch):
        # every solve of the suite: round one stacks every first request by size (11 checks draw 32 matrices
        # of each of the dims, mixture-spectrum-entropy 6, entropy-additivity the factors 2 and dim and their
        # product, first-order-scaling one of sizes 4, 6 and 8, the composites twelve of size 2 and seven of
        # size 4, the Rabi checks nine spin Hamiltonians), round two the entropy-invariance states (12 per
        # dim), the composite-entanglement states and their factors (81 each), and the evolved states of
        # evolution-positivity and spectrum-preservation
        calls, original = [], invariants.stack_eig
        monkeypatch.setattr(invariants, "stack_eig", lambda stack: calls.append(stack.shape[:2]) or original(stack))
        run_invariant_suite(1, (2, 4, 8))
        assert calls == [(63, 2), (48, 4), (41, 8), (1, 16), (1, 6), (95, 2), (95, 4), (14, 8)]

    def test_suite_solves_only_through_its_rounds(self, monkeypatch):
        # the entropies and the Rabi populations are spectra of the round stacks too, not lone solves
        def refused(*args, **kwargs):
            raise AssertionError("a solve outside the suite's rounds")

        for lone in (ensembles.von_neumann_entropy, systems.rabi_populations, linalg.hermitian_eig):
            _rebind(monkeypatch, lone, refused)
        assert run_invariant_suite(1, (2, 4, 8)).passed

    @pytest.mark.parametrize("seed, dims, corrupt", list(_MOVED_CHECK_PINS))
    def test_round_stacked_entropies_and_populations_keep_their_bits(self, seed, dims, corrupt, monkeypatch):
        # each check's draws, then each entropy and population it computed, so a one-bit change in any shows
        draws, values, current = {}, {}, [None]
        run, entropies, populations = invariants._run, invariants._entropies, invariants.alpha_populations

        def noted(out):
            values.setdefault(current[0], []).extend(repr(x) for part in out for x in np.ravel(part).tolist())
            return out

        def traced(name, checks):
            # the check's draws and requests, passed through as _run takes them, each draw and value noted
            seen = draws.setdefault(name, [])
            try:
                current[0] = name
                item = next(checks)
                while True:
                    if not isinstance(item, list):
                        seen.append(f"{item[0]} {float(item[1])!r}")
                    reply = yield item
                    current[0] = name
                    item = checks.send(reply)
            except StopIteration:
                pass

        def traced_run(runs, scale):
            return run([(check, dim, traced(check.name, checks)) for check, dim, checks in runs], scale)

        def noted_entropies(groups):
            return noted((yield from entropies(groups)))

        def digest(name):
            return hashlib.sha256("\n".join(draws[name] + values[name]).encode()).hexdigest()[:16]

        monkeypatch.setattr(invariants, "_run", traced_run)
        monkeypatch.setattr(invariants, "_entropies", noted_entropies)
        monkeypatch.setattr(invariants, "alpha_populations", lambda spectrum, t: noted(populations(spectrum, t)))
        report = run_invariant_suite(seed, dims, 1e-6 if corrupt else 1.0, corrupt_evolution=corrupt)
        pins = _MOVED_CHECK_PINS[seed, dims, corrupt]
        assert {r.name: (r.worst, repr(r.residual), digest(r.name)) for r in report.results if r.name in pins} == pins

    def test_expm_cross_oracle_draws_a_time_at_any_dimension(self):
        # ||h||_F of a dim-100 draw passes 100, so 10 / ||h||_F lies below the 0.1 the time range starts at
        check = invariants._check_expm_cross_oracle
        result = check(rng_for(1, check.stream), (100,), 1.0)
        assert result.passed

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

    @pytest.mark.parametrize(
        "argument, value", [("dims", (2.9,)), ("dims", "248"), ("dims", (2, 4.0)), ("seed", 1.7), ("seed", "1")]
    )
    def test_non_integer_arguments_raise(self, argument, value):
        # refused, not truncated: (2.9,) is not dim 2, "248" is not dims 2, 4, 8, and 1.7 is not seed 1
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            run_invariant_suite(**{argument: value})

    @pytest.mark.parametrize(
        "argument, value",
        [("seed", True), ("seed", False), ("dims", (4, True)), ("tolerance_scale", True), ("tolerance_scale", "1")],
    )
    def test_bool_and_string_arguments_raise(self, argument, value):
        # refused, not read as a number: True is not seed 1 or scale 1.0, and "1" is not a TypeError
        with pytest.raises(ValueError, match=f"^{argument} must be"):
            run_invariant_suite(**{"dims": (2,), argument: value})

    def test_real_tolerance_scales_are_accepted(self):
        reference = run_invariant_suite(dims=(2,), tolerance_scale=2.0).format()
        for scale in (2, np.float64(2.0), np.int64(2)):
            assert run_invariant_suite(dims=(2,), tolerance_scale=scale).format() == reference

    def test_integer_like_arguments_are_accepted(self):
        report = run_invariant_suite(seed=np.int64(1), dims=np.array([2]))
        assert (report.seed, report.dims) == (1, (2,)) and type(report.seed) is int
        assert report.format() == run_invariant_suite(seed=1, dims=(2,)).format()

    @pytest.mark.parametrize("dims", [(4, 4), (2, 8, 2)])
    def test_repeated_dims_raise(self, dims):
        with pytest.raises(ValueError, match="repeat"):
            run_invariant_suite(dims=dims)

    def test_merged_solve_error_names_the_failing_check(self):
        # the stub's non-Hermitian matrix is member 7 of the merged 4 x 4 stack, after eig-reconstruction's six
        @invariants._check("stub", 1.0, 0)
        def stub(rng, dim):
            yield [random_hermitian(rng, dim), np.triu(np.ones((dim, dim)))]

        check = invariants._check_eig_reconstruction
        runs = check.runs(rng_for(1, check.stream), (2, 4)) + stub.runs(rng_for(1), (4,))
        message = r"^check stub \(dim 4\): requested matrix 1: eigensolver input is not Hermitian"
        with pytest.raises(DomainError, match=message):
            invariants._run(runs, 1.0)

    def test_dims_above_max_dimension_raise(self):
        with pytest.raises(ValueError, match="MAX_DIMENSION"):
            run_invariant_suite(dims=(2, MAX_DIMENSION + 1))

    def test_kron_trace_product_allocation_is_bounded(self):
        # the whole (dim^2 x dim^2) product at dim = MAX_DIMENSION would be a 4 GiB array
        tracemalloc.start()
        try:
            check = invariants._check_kron_trace
            result = check(rng_for(0, check.stream), (MAX_DIMENSION,), 1.0)
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
        check, dims, labels = invariants._CHECKS[index], (2, 3, 4, 8), []
        runs = check.runs(rng_for(DEFAULT_SEED, check.stream), dims)
        noted = [(c, d, _noted(draws, lambda item: labels.append(item[0]))) for c, d, draws in runs]
        (result,) = invariants._run(noted, 1.0)
        assert result == check(rng_for(DEFAULT_SEED, check.stream), dims, 1.0)
        assert labels and len(set(labels)) == len(labels)

    def test_each_check_draws_from_its_declared_stream(self):
        # the suite draws a check from rng_for(seed, check.stream), a number fixed in its declaration, so
        # deleting or adding a check moves no other check's draws
        assert {check.name: check.stream for check in invariants._CHECKS} == {
            "kron-trace-product": 2,
            "eig-reconstruction": 3,
            "propagator-group-law": 4,
            "expm-cross-oracle": 5,
            "partial-trace-preservation": 6,
            "entropy-bounds": 7,
            "mixture-spectrum-entropy": 8,
            "entropy-additivity": 9,
            "factorization-roundtrip": 10,
            "pure-state-spectrum": 11,
            "entropy-invariance": 12,
            "evolution-trace-hermiticity": 13,
            "evolution-positivity": 14,
            "picture-equivalence": 15,
            "spectrum-preservation": 16,
            "ehrenfest-central-difference": 17,
            "transition-normalization": 18,
            "first-order-scaling": 19,
            "rabi-population-sum": 20,
            "rabi-closed-form": 21,
            "lattice-basis-residuals": 22,
            "lattice-momentum-projectors": 23,
            "composite-isolation": 24,
            "composite-entanglement": 25,
        }
        assert len({check.stream for check in invariants._CHECKS}) == len(invariants._CHECKS) == 24

    @pytest.mark.parametrize("seed, dims, corrupt", list(_SUITE_PINS))
    def test_suite_keeps_its_bits(self, seed, dims, corrupt):
        report = run_invariant_suite(seed, dims, 1e-6, corrupt_evolution=corrupt)
        parts = [report.format()] + [f"{r.name} {r.residual!r} {r.worst}" for r in report.results]
        assert hashlib.sha256("\n".join(parts).encode()).hexdigest() == _SUITE_PINS[seed, dims, corrupt]

    def test_fixed_size_checks_ignore_the_suite_dims(self, monkeypatch):
        run = invariants._run
        fixed = [check.name for check in invariants._CHECKS if check.dims]

        def drawn(dims):
            # every draw of each fixed-size check, by label and residual repr, in the suite at ``dims``
            noted = {}

            def noting_run(runs, scale):
                return run([(c, d, _noted(draws, noted.setdefault(c.name, []).append)) for c, d, draws in runs], scale)

            monkeypatch.setattr(invariants, "_run", noting_run)
            run_invariant_suite(1, dims)
            return {name: [(label, repr(float(value))) for label, value in noted[name]] for name in fixed}

        alone = drawn((3,))
        assert fixed == [
            "first-order-scaling",
            "rabi-population-sum",
            "rabi-closed-form",
            "lattice-basis-residuals",
            "lattice-momentum-projectors",
            "composite-isolation",
            "composite-entanglement",
        ]
        assert [label for label, _ in alone["first-order-scaling"]] == ["dim=4", "dim=6", "dim=8"]
        assert [label for label, _ in alone["lattice-basis-residuals"]] == [
            f"sites={n} {part}" for n in (2, 3, 4, 8, 16, 32, 64) for part in ("orthonormality", "completeness")
        ]
        assert alone == drawn((2, 4, 8))

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
        assert len(report.results) == len(invariants._CHECKS)
        for check, result in zip(invariants._CHECKS, report.results):
            alone = check(rng_for(seed, check.stream), dims, scale)
            assert alone == result
            assert (alone.worst is None) == (alone.residual == 0.0)

    def test_reducer_keeps_the_first_of_tied_draws(self):
        draws = (("zero", -0.0), ("first", 2.0), ("second", 2.0))
        draws += (("nan", math.nan), ("lower", 1.0), ("nan again", math.nan))

        @invariants._check("stub", 1.0, 0)
        def stub(rng, dim, count):
            yield from draws[:count]

        assert stub(None, (2,), 0.5, count=3) == invariants.CheckResult("stub", 2.0, 0.5, False, "first")
        assert stub.__name__ == "stub"
        # a NaN draw fails the check, and the first one is named
        result = stub(None, (2,), 1e300, count=len(draws))
        assert math.isnan(result.residual) and (result.passed, result.worst) == (False, "nan")
        assert result.line() == "FAIL stub: residual=nan (tolerance 1.000e+300) worst at nan"
        negative = invariants._check("stub", 1.0, 0)(lambda rng, dim: iter([("a", -0.0), ("b", -1.0)]))(None, (2,), 1.0)
        assert negative.worst is None and math.copysign(1.0, negative.residual) == 1.0
        assert f"{negative.residual:.3e}" == "0.000e+00"
        # a check's runs, one per dimension, reduce into its one result, and a tie across them keeps the first
        per_dim = invariants._check("stub", 1.0, 0)(lambda rng, dim: iter([(f"dim={dim}", 1.0)]))
        assert per_dim(None, (2, 4), 1.0) == invariants.CheckResult("stub", 1.0, 1.0, True, "dim=2")


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

    @pytest.mark.parametrize("command", ["evolve", "perturb"])
    def test_reads_through_the_module_level_parse(self, command, capsys, monkeypatch):
        # the scenario file is parsed by entrodyn.scenario's parse_scenario as bound at the call, so a
        # tracer's span around it times the CLI's reading
        original = scenario.parse_scenario
        texts = []
        monkeypatch.setattr(scenario, "parse_scenario", lambda text: texts.append(text) or original(text))
        code, _, _ = run_cli([command, str(SCENARIOS / "spin_rabi.json")], capsys)
        assert code == 0 and texts == [(SCENARIOS / "spin_rabi.json").read_text()]

    @pytest.mark.parametrize("command", ["evolve", "perturb"])
    def test_a_run_resolves_its_document_once(self, command, capsys, monkeypatch):
        resolutions = []
        original = scenario.resolve_scenario
        _rebind(monkeypatch, original, lambda spec: resolutions.append(spec) or original(spec))
        code, _, _ = run_cli([command, str(SCENARIOS / "spin_rabi.json")], capsys)
        assert code == 0 and len(resolutions) == 1

    def test_lattice_run_builds_its_momentum_basis_once(self, capsys, monkeypatch):
        # the resolution builds one, which H, the initial state, the momentum populations and the seed of
        # H's solve share
        calls = []
        original = systems.lattice_momentum_basis
        _rebind(monkeypatch, original, lambda system: calls.append(system) or original(system))
        code, _, _ = run_cli(["evolve", str(SCENARIOS / "lattice_momentum.json")], capsys)
        assert code == 0 and len(calls) == 1

    def test_block_diagonal_hamiltonian_matches_an_eigh_oracle(self, capsys, tmp_path):
        h, weights, document = _block_diagonal_document()
        path, out = tmp_path / "blocks.json", tmp_path / "blocks.csv"
        path.write_text(json.dumps(document))
        code, _, err = run_cli(["evolve", str(path), "--out", str(out)], capsys)
        assert (code, err) == (0, "")
        header, *rows = out.read_text().splitlines()[1:]
        table = np.array([[float(cell) for cell in row.split(",")] for row in rows])
        w, v = np.linalg.eigh(h)
        for t, row in zip(np.linspace(0.0, 2.0, 5), table):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            rho = (u * weights) @ u.conj().T
            expected = [t, spectrum_entropy(np.linalg.eigvalsh(rho)), np.trace(h @ rho).real]
            expected += [*np.diagonal(rho).real, abs(u[1, 0]) ** 2, abs(u[7, 0]) ** 2]
            assert header.split(",")[:3] == ["t", "entropy", "energy"] and len(row) == len(expected)
            assert np.max(np.abs(row - expected)) <= 1e-10

    def test_eigensolver_fault_is_a_numerical_error(self, capsys, monkeypatch, tmp_path):
        # a non-finite result of the sweeps is refused by the solver itself, not by what reads the spectrum
        original = linalg._Rounds.sweep

        def faulty(rounds):
            original(rounds)
            rounds.s[..., -1, 0] = np.nan

        monkeypatch.setattr(linalg._Rounds, "sweep", faulty)
        path = tmp_path / "blocks.json"
        path.write_text(json.dumps(_block_diagonal_document()[2]))
        code, _, err = run_cli(["evolve", str(path)], capsys)
        assert (code, err) == (1, "error: Jacobi eigensolver produced a non-finite eigenvalue or eigenvector\n")

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

    @pytest.mark.parametrize("link", [None, os.symlink, os.link], ids=["same-path", "symlink", "hard-link"])
    def test_one_file_named_by_both_flags_is_refused(self, link, capsys, tmp_path):
        # one regular file under both flags would hold the summary and the CSV appended in turn,
        # so neither is written: a held file keeps what it held, and a created one is removed again
        target = alias = tmp_path / "report"
        if link is not None:
            target.write_text("held\n")
            alias = tmp_path / "alias"
            link(target, alias)
        argv = ["evolve", str(SCENARIOS / "spin_static.json"), "--out", str(target), "--summary", str(alias)]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: --out and --summary name the same file: {alias}\n"
        if link is None:
            assert list(tmp_path.iterdir()) == []
        else:
            assert target.read_text() == "held\n" and alias.read_text() == "held\n"

    @pytest.mark.parametrize("command", ["evolve", "perturb"])
    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    @pytest.mark.parametrize("link", [None, os.symlink, os.link], ids=["same-path", "symlink", "hard-link"])
    def test_scenario_file_named_as_an_output_is_refused(self, link, flag, command, capsys, tmp_path):
        # writing the report over the scenario would replace the document it came from, so nothing is
        # written: the scenario keeps its text, and the other target, which opening created, is removed
        document = tmp_path / "scenario.json"
        text = (SCENARIOS / "spin_rabi.json").read_text()
        document.write_text(text)
        alias = document
        if link is not None:
            alias = tmp_path / "alias"
            link(document, alias)
        other = {"--out": "--summary", "--summary": "--out"}[flag]
        argv = [command, str(document), flag, str(alias), other, str(tmp_path / "fresh")]
        code, out, err = run_cli(argv, capsys)
        assert code == 2 and out == ""
        assert err == f"error: {flag} names the scenario file: {alias}\n"
        assert document.read_text() == text
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted({document.name, alias.name})

    def test_one_device_named_by_both_flags_is_written(self, capsys):
        argv = ["evolve", str(SCENARIOS / "spin_static.json"), "--out", os.devnull, "--summary", os.devnull]
        assert run_cli(argv, capsys) == (0, "", "")

    def test_new_target_gets_the_mode_open_gives(self, capsys, tmp_path):
        umask = os.umask(0o022)
        os.umask(umask)
        reference = tmp_path / "reference"
        with open(reference, "w"):
            pass
        out = tmp_path / "series.csv"
        assert run_cli(["evolve", str(SCENARIOS / "spin_static.json"), "--out", str(out)], capsys)[0] == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE(reference.stat().st_mode) == 0o666 & ~umask

    def test_pipe_and_device_are_written_as_they_are(self, capsys, tmp_path):
        # only a regular file is emptied: truncating a FIFO or /dev/null would fail with EINVAL
        expected = run_cli(["evolve", str(SCENARIOS / "spin_rabi.json")], capsys)[1]
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()))
        reader.start()
        argv = ["evolve", str(SCENARIOS / "spin_rabi.json"), "--out", str(fifo), "--summary", os.devnull]
        code = run_cli(argv, capsys)
        reader.join()
        assert code == (0, "", "") and received == [expected]

    def test_failed_write_keeps_no_byte_of_the_old_text(self, capsys, monkeypatch, tmp_path):
        # the report fails after part of its text went out, over a file that held more: the file holds
        # what was written and no byte of what it held; the summary was emptied with it, before either write
        written = "# entrodyn partial\n" + "1," * 5000

        def partial(self, handle):
            handle.write(written)
            handle.flush()
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(scenario.EvolutionReport, "to_csv", partial)
        out, summary = tmp_path / "series.csv", tmp_path / "summary.json"
        out.write_text("an older and longer file\n" * 1000)
        summary.write_text("held\n")
        argv = ["evolve", str(SCENARIOS / "spin_static.json"), "--out", str(out), "--summary", str(summary)]
        assert run_cli(argv, capsys) == (2, "", "error: cannot write --out: [Errno 28] No space left on device\n")
        assert out.read_text() == written and summary.read_bytes() == b""

    def test_failed_write_removes_the_files_it_created(self, capsys, monkeypatch, tmp_path):
        def failing(self, handle):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(scenario.EvolutionReport, "to_csv", failing)
        argv = ["evolve", str(SCENARIOS / "spin_static.json"), "--out", str(tmp_path / "a"), "--summary", str(tmp_path / "b")]
        assert run_cli(argv, capsys) == (2, "", "error: cannot write --out: [Errno 5] Input/output error\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("flag", ["--out", "--summary"])
    def test_full_device_is_input_error(self, flag, capsys):
        # /dev/full takes a write and fails at its flush, when the target is closed
        argv = ["evolve", str(SCENARIOS / "spin_static.json"), flag, "/dev/full"]
        code, _, err = run_cli(argv, capsys)
        assert (code, err) == (2, f"error: cannot write {flag}: [Errno 28] No space left on device\n")

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

    def test_repeated_field_is_exit_two(self, capsys, tmp_path):
        # json.loads keeps a repeated key's last value, so this document once ran with delta 2.0
        path = tmp_path / "repeated.json"
        path.write_text(
            '{"system": {"kind": "spin-half", "delta": 1.0, "delta": 2.0}, "initial": {"state": "alpha"}, '
            '"time": {"start": 0, "stop": 1, "points": 2}}'
        )
        argv = ["evolve", str(path), "--out", str(tmp_path / "out.csv"), "--summary", str(tmp_path / "out.json")]
        assert run_cli(argv, capsys) == (2, "", "error: system: field 'delta' is given twice\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["repeated.json"]


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
    "section not a mapping": ({"time": [0.0, 1.0, 3]}, PARSE, r"time: expected a mapping, got list$"),
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
    "unequal matrix rows before a bad entry": (
        {"system": {"kind": "explicit-matrices", "hamiltonian": [[0.0, 0.0], [True, 0.0, 0.0]]}},
        PARSE,
        r"system\.hamiltonian: rows have unequal lengths",
    ),
    "too large a matrix before a bad entry": (
        {"system": {"kind": "explicit-matrices", "hamiltonian": [[0.0] * 129] * 128 + [[True] + [0.0] * 128]}},
        INVALID,
        r"system\.hamiltonian: dimension 129 exceeds MAX_DIMENSION = 128",
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
            resolve_scenario(parse_scenario(text))
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


def _called(argv, capsys):
    """(exit code, stdout, stderr) of ``main(argv)``, argparse's SystemExit taken for its code."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    # usage errors, --version and -h between commands, and a verify with every flag set before one with none
    SEQUENCE = [
        ["verify", "--seed", "5", "--dims", "2,3", "--tolerance-scale", "2"],
        ["rabi", "--points", "0"],
        ["verify"],
        ["rabi", "--no-such-flag"],
        ["rabi", "--points", "3", "--delta", "-1e-1"],
        ["--version"],
        ["rabi", "--points", "3"],
        ["evolve", "-h"],
        ["basis-check", "--lattice-n", "3"],
        ["perturb", str(SCENARIOS / "spin_rabi.json")],
        ["evolve"],
        ["evolve", str(SCENARIOS / "spin_rabi.json")],
    ]
    HELPS = [["-h"], ["verify", "-h"], ["evolve", "-h"], ["perturb", "-h"], ["rabi", "-h"], ["basis-check", "-h"]]

    def test_one_parser_tree_per_process(self, capsys, monkeypatch):
        built = []
        original = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(self)
            original(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        cli._build_parser.__wrapped__()
        tree = len(built)
        built.clear()
        cli._build_parser.cache_clear()
        for argv in (["rabi", "--points", "2"], ["basis-check", "--lattice-n", "2"], ["verify", "--dims", "2"]):
            assert run_cli(argv, capsys)[0] == 0
        # one tree: the top-level parser and one per subcommand, a help text each
        assert len(built) == tree == len(self.HELPS)

    def test_reuse_leaves_every_output_as_a_fresh_parser_gives_it(self, capsys):
        reused = [_called(argv, capsys) for argv in self.SEQUENCE]
        fresh = []
        for argv in self.SEQUENCE:
            cli._build_parser.cache_clear()
            fresh.append(_called(argv, capsys))
        assert reused == fresh
        assert [code for code, _, _ in reused] == [0, 2, 0, 2, 0, 0, 0, 0, 0, 0, 2, 0]
        assert reused[2][1].startswith(f"invariant suite: seed={DEFAULT_SEED} dims=[2, 4, 8] tolerance_scale=1\n")

    def test_help_text_matches_a_fresh_parser(self, capsys, monkeypatch):
        # argparse reads the terminal width when it prints help, so a reused parser follows COLUMNS
        run_cli(["rabi", "--points", "2"], capsys)
        helps = {}
        for columns in ("50", "200"):
            monkeypatch.setenv("COLUMNS", columns)
            for argv in self.HELPS:
                helps[columns, argv[0]] = reused = _called(argv, capsys)
                with pytest.raises(SystemExit):
                    cli._build_parser.__wrapped__().parse_args(argv)
                assert reused == (0, capsys.readouterr().out, "")
        assert helps["50", "-h"] != helps["200", "-h"]


class TestClosedStdout:
    # the interpreter's own stdout buffer, as a shell pipeline gives it, not PYTHONUNBUFFERED's
    BUFFERED = {name: value for name, value in os.environ.items() if name != "PYTHONUNBUFFERED"}

    def test_closed_pipe_is_input_error(self):
        # the reader takes one line and closes the pipe, as `entrodyn rabi ... | head -1` does
        argv = [sys.executable, "-m", "entrodyn", "rabi", "--points", "200000"]
        with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=self.BUFFERED) as child:
            assert child.stdout.readline().startswith(b"# entrodyn ")
            child.stdout.close()
            _, err = child.communicate(timeout=60)
        assert (child.returncode, err) == (2, b"error: cannot write stdout: [Errno 32] Broken pipe\n")

    def test_pipe_closed_before_the_first_write_is_input_error(self):
        # verify's report stays in stdout's buffer until main flushes it; that flush fails, and the
        # buffer, still full, goes to os.devnull at exit instead of raising a second time
        reader, writer = os.pipe()
        os.close(reader)
        try:
            argv = [sys.executable, "-m", "entrodyn", "verify", "--dims", "2"]
            done = subprocess.run(argv, stdout=writer, stderr=subprocess.PIPE, env=self.BUFFERED, timeout=60)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (2, b"error: cannot write stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("flag", ["-h", "--version"])
    def test_help_and_version_on_a_closed_pipe_are_input_errors(self, flag):
        # argparse prints these and exits inside parse_args; main flushes what they printed there too
        reader, writer = os.pipe()
        os.close(reader)
        try:
            argv = [sys.executable, "-m", "entrodyn", flag]
            done = subprocess.run(argv, stdout=writer, stderr=subprocess.PIPE, env=self.BUFFERED, timeout=60)
        finally:
            os.close(writer)
        assert (done.returncode, done.stderr) == (2, b"error: cannot write stdout: [Errno 32] Broken pipe\n")

    @pytest.mark.parametrize("fails", ["write", "flush"])
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dims", "2"],
            ["basis-check", "--lattice-n", "2"],
            ["rabi", "--points", "2"],
            ["evolve", str(SCENARIOS / "spin_rabi.json")],
            ["perturb", str(SCENARIOS / "spin_rabi.json")],
        ],
    )
    def test_failed_stdout_is_input_error(self, argv, fails, capsys, monkeypatch):
        # an in-process stdout has no file descriptor, so it is only reported, not redirected
        def broken(*args):
            raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        stdout = io.StringIO()
        setattr(stdout, fails, broken)
        monkeypatch.setattr(sys, "stdout", stdout)
        code = main(argv)
        assert (code, capsys.readouterr().err) == (2, "error: cannot write stdout: [Errno 32] Broken pipe\n")


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
