"""Tests for scenario parsing, runs, reports, and round-trips."""

import json
import math
import time
from pathlib import Path

import numpy as np
import pytest

from entrodyn.cli import main as cli_main
from entrodyn.dynamics import evolve_density
from entrodyn.ensembles import spectrum_entropy, von_neumann_entropy
from entrodyn.errors import NumericalError
from entrodyn.linalg import hermitian_eig
from entrodyn.scenario import (
    MAX_DIMENSION,
    EvolutionReport,
    ScenarioParseError,
    ScenarioSpec,
    ScenarioValidationError,
    entropy_constancy,
    load_scenario,
    parse_scenario,
    resolve_scenario,
    run_perturbation,
    run_scenario,
    scenario_document,
    serialize_scenario,
    _warm_step,
    warm_entropies,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

SPIN_DOC = """
{
  "system": {"kind": "spin-half", "delta": 2.0, "omega": 0.0},
  "initial": {"state": "alpha"},
  "time": {"start": 0.0, "stop": 1.0, "points": 5},
  "observables": [{"name": "sigma_z"}],
  "outputs": {"entropy": true, "expectations": true, "populations": true}
}
"""

RABI_DOC = """
{
  "system": {"kind": "spin-half", "delta": 0.0, "omega": 1.0},
  "initial": {"state": "alpha"},
  "time": {"start": 0.0, "stop": 3.14159265358979312, "points": 33},
  "outputs": {"entropy": true, "expectations": false, "populations": true,
              "transitions": {"source": 0, "targets": [1]}}
}
"""

class TestParsing:
    def test_valid_spin_document(self):
        spec = parse_scenario(SPIN_DOC)
        assert isinstance(spec, ScenarioSpec)
        assert spec.system.kind == "spin-half"
        assert spec.system.delta == 2.0
        assert spec.initial.state == "alpha"
        assert spec.time.points == 5

    def test_probabilities_must_sum_to_one(self):
        document = json.loads(SPIN_DOC)
        document["initial"] = {"probabilities": [0.5, 0.6]}
        with pytest.raises(ScenarioValidationError, match="sum to 1"):
            parse_scenario(json.dumps(document))

    def test_composite_resolves_to_four_dimensions(self):
        document = {
            "system": {"kind": "composite", "delta_a": 1.0, "delta_b": 1.0, "g": 0.3},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 3},
            "outputs": {"populations": True},
        }
        spec = parse_scenario(json.dumps(document))
        resolved = resolve_scenario(spec)
        assert resolved.dimension == 4
        assert resolved.hamiltonian.shape == (4, 4)

    def test_invalid_json_names_position(self):
        with pytest.raises(ScenarioParseError, match="line"):
            parse_scenario("{ this is not json")

    def test_unknown_field_rejected(self):
        document = json.loads(SPIN_DOC)
        document["system"]["typo_field"] = 1.0
        with pytest.raises(ScenarioParseError, match="typo_field"):
            parse_scenario(json.dumps(document))

    def test_unknown_system_kind(self):
        document = json.loads(SPIN_DOC)
        document["system"] = {"kind": "harmonic"}
        with pytest.raises(ScenarioParseError, match="harmonic"):
            parse_scenario(json.dumps(document))

    def test_missing_required_field(self):
        document = json.loads(SPIN_DOC)
        del document["time"]
        with pytest.raises(ScenarioParseError, match="time"):
            parse_scenario(json.dumps(document))

    def test_non_hermitian_explicit_matrix(self):
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": [[0.0, 1.0], [0.0, 0.0]]},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        with pytest.raises(ScenarioValidationError, match="Hermitian"):
            parse_scenario(json.dumps(document))

    def test_explicit_matrix_with_complex_entries(self):
        document = {
            "system": {
                "kind": "explicit-matrices",
                "hamiltonian": [[1.0, [0.0, -0.5]], [[0.0, 0.5], 2.0]],
            },
            "initial": {"state": "site", "index": 1},
            "time": {"start": 0.0, "stop": 2.0, "points": 4},
        }
        spec = parse_scenario(json.dumps(document))
        resolved = resolve_scenario(spec)
        np.testing.assert_allclose(
            resolved.hamiltonian, np.array([[1.0, -0.5j], [0.5j, 2.0]]), atol=0
        )

    def test_sigma_observable_requires_two_levels(self):
        document = {
            "system": {"kind": "lattice", "sites": 4, "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
            "observables": [{"name": "sigma_z"}],
        }
        with pytest.raises(ScenarioValidationError, match="two-level"):
            parse_scenario(json.dumps(document))

    def test_momentum_initial_requires_lattice(self):
        document = json.loads(SPIN_DOC)
        document["initial"] = {"state": "momentum", "index": 0}
        with pytest.raises(ScenarioValidationError, match="lattice"):
            parse_scenario(json.dumps(document))

    def test_transition_index_range(self):
        document = json.loads(RABI_DOC)
        document["outputs"]["transitions"] = {"source": 0, "targets": [7]}
        with pytest.raises(ScenarioValidationError, match="out of range"):
            parse_scenario(json.dumps(document))

    def test_point_budget(self):
        document = json.loads(SPIN_DOC)
        document["time"]["points"] = 10**6 + 1
        with pytest.raises(ScenarioValidationError, match="points"):
            parse_scenario(json.dumps(document))

    def test_amplitude_normalization_checked(self):
        document = json.loads(SPIN_DOC)
        document["initial"] = {"amplitudes": [1.0, 1.0]}
        with pytest.raises(ScenarioValidationError, match="normalized"):
            parse_scenario(json.dumps(document))


class TestRoundTrip:
    @pytest.mark.parametrize("doc", [SPIN_DOC, RABI_DOC])
    def test_parse_serialize_parse(self, doc):
        spec = parse_scenario(doc)
        assert parse_scenario(serialize_scenario(spec)) == spec

    def test_explicit_matrix_roundtrip(self):
        document = {
            "system": {
                "kind": "explicit-matrices",
                "hamiltonian": [[0.5, [0.25, -0.75]], [[0.25, 0.75], -0.5]],
            },
            "initial": {"amplitudes": [[0.0, 1.0], 0.0]},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
            "observables": [
                {"name": "matrix", "matrix": [[1.0, 0.0], [0.0, -1.0]], "label": "splitting"}
            ],
        }
        spec = parse_scenario(json.dumps(document))
        assert parse_scenario(serialize_scenario(spec)) == spec


class TestRunScenario:
    def test_static_mixture_columns_constant(self):
        document = json.loads(SPIN_DOC)
        document["initial"] = {"probabilities": [0.75, 0.25]}
        document["time"] = {"start": 0.0, "stop": 10.0, "points": 41}
        report = run_scenario(parse_scenario(json.dumps(document)))
        expected_entropy = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        entropy = report.table[:, report.columns.index("entropy")]
        assert np.max(np.abs(entropy - expected_entropy)) <= 1e-12
        for label in ("sigma_z", "pop_alpha", "pop_beta"):
            column = report.table[:, report.columns.index(label)]
            assert np.ptp(column) <= 1e-12
        assert report.passed

    def test_resonant_rabi_reaches_full_transfer(self):
        report = run_scenario(parse_scenario(RABI_DOC))
        beta = report.table[:, report.columns.index("pop_beta")]
        assert abs(beta[-1] - 1.0) <= 1e-9
        trans = report.table[:, report.columns.index("trans_0_to_1")]
        np.testing.assert_allclose(trans, beta, atol=1e-12)
        entropy = report.table[:, report.columns.index("entropy")]
        assert np.max(np.abs(entropy)) <= 1e-9

    def test_momentum_eigenstate_is_stationary(self):
        document = {
            "system": {"kind": "lattice", "sites": 8, "length": 2 * math.pi, "mass": 1.0},
            "initial": {"state": "momentum", "index": 2},
            "time": {"start": 0.0, "stop": 8.0, "points": 17},
            "observables": [{"name": "energy"}, {"name": "site_populations"}],
            "outputs": {"entropy": True, "expectations": True, "populations": False},
        }
        report = run_scenario(parse_scenario(json.dumps(document)))
        for j in range(1, len(report.columns)):
            assert np.ptp(report.table[:, j]) <= 1e-9
        assert report.passed

    def test_single_point_grid(self):
        document = json.loads(SPIN_DOC)
        document["time"] = {"start": 0.5, "stop": 9.0, "points": 1}
        report = run_scenario(parse_scenario(json.dumps(document)))
        assert report.table.shape[0] == 1
        assert report.table[0, 0] == 0.5

    def test_beta_initial_state(self):
        document = json.loads(SPIN_DOC)
        document["initial"] = {"state": "beta"}
        report = run_scenario(parse_scenario(json.dumps(document)))
        beta = report.table[:, report.columns.index("pop_beta")]
        np.testing.assert_allclose(beta, np.ones_like(beta), atol=1e-12)

    def test_transitions_all_targets(self):
        document = json.loads(RABI_DOC)
        document["outputs"]["transitions"] = {"source": 0, "targets": "all"}
        report = run_scenario(parse_scenario(json.dumps(document)))
        assert "trans_0_to_1" in report.columns
        assert "trans_0_to_0" not in report.columns

    def test_csv_shape_and_header(self):
        report = run_scenario(parse_scenario(SPIN_DOC))
        lines = report.to_csv().splitlines()
        assert lines[0].startswith("# entrodyn ")
        assert lines[1] == ",".join(report.columns)
        assert len(lines) == 2 + report.table.shape[0]

    def test_deterministic_csv(self):
        spec = parse_scenario(RABI_DOC)
        assert run_scenario(spec).to_csv() == run_scenario(spec).to_csv()

    def test_summary_reports_checks(self):
        summary = run_scenario(parse_scenario(RABI_DOC)).summary()
        assert summary["passed"] is True
        assert summary["checks"][0]["name"] == "entropy-constancy"
        assert summary["checks"][0]["tolerance"] == 1e-9
        assert summary["scenario"]["system"]["kind"] == "spin-half"


class TestRunPerturbation:
    def test_spin_transition_columns(self):
        spec = parse_scenario(RABI_DOC)
        report = run_perturbation(spec)
        assert report.columns == ("t", "exact_0_to_1", "first_order_0_to_1")
        times = report.table[:, 0]
        exact = report.table[:, 1]
        first = report.table[:, 2]
        # oracle: exact = sin^2(t/2), first order = t^2 / 4 for H = sigma_x / 2
        np.testing.assert_allclose(exact, np.sin(times / 2) ** 2, atol=1e-12)
        np.testing.assert_allclose(first, times**2 / 4, atol=1e-12)

    def test_requires_transitions(self):
        spec = parse_scenario(SPIN_DOC)
        with pytest.raises(ScenarioValidationError, match="transitions"):
            run_perturbation(spec)


class TestDocumentEcho:
    def test_document_is_json_compatible(self):
        spec = parse_scenario(RABI_DOC)
        document = scenario_document(spec)
        assert json.loads(json.dumps(document)) == document


def _cli_exit(document: dict, command: str, tmp_path) -> int:
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(document))
    return cli_main([command, str(path), "--out", str(tmp_path / "out.csv")])


class TestColumnValidation:
    @pytest.mark.parametrize(
        ("observables", "outputs", "path"),
        [
            ([{"name": "sigma_z", "label": "t"}], {}, r"observables\[0\]"),
            ([{"name": "sigma_z", "label": "entropy"}], {}, r"observables\[0\]"),
            ([{"name": "sigma_z"}, {"name": "sigma_x", "label": "sigma_z"}], {}, r"observables\[1\]"),
            ([{"name": "energy"}, {"name": "energy"}], {}, r"observables\[1\]"),
            ([{"name": "sigma_z", "label": "pop_beta"}], {"populations": True}, "outputs.populations"),
            (
                [{"name": "sigma_x", "label": "trans_0_to_1"}],
                {"transitions": {"source": 0, "targets": [1]}},
                "outputs.transitions.targets",
            ),
        ],
    )
    def test_repeated_column_rejected(self, observables, outputs, path):
        document = json.loads(SPIN_DOC)
        document["observables"] = observables
        document["outputs"].update(outputs)
        spec = parse_scenario(json.dumps(document))
        with pytest.raises(ScenarioValidationError, match=rf"^{path}: column .* already taken"):
            run_scenario(spec)

    def test_repeated_target_rejected_for_every_command(self, tmp_path):
        document = json.loads(RABI_DOC)
        document["outputs"]["transitions"] = {"source": 0, "targets": [1, 1]}
        with pytest.raises(ScenarioValidationError, match=r"^outputs.transitions.targets\[1\]: target 1 is repeated"):
            parse_scenario(json.dumps(document))
        assert _cli_exit(document, "evolve", tmp_path) == 1
        assert _cli_exit(document, "perturb", tmp_path) == 1

    def test_perturb_ignores_the_evolve_header(self, tmp_path):
        """perturb writes only t, exact_* and first_order_*, so evolve's labels cannot clash there."""
        document = json.loads(RABI_DOC)
        document["observables"] = [{"name": "sigma_z", "label": "t"}, {"name": "sigma_x", "label": "entropy"}]
        document["outputs"].update(entropy=True, expectations=True, transitions={"source": 0, "targets": [1]})
        spec = parse_scenario(json.dumps(document))
        assert run_perturbation(spec).columns == ("t", "exact_0_to_1", "first_order_0_to_1")
        assert _cli_exit(document, "perturb", tmp_path) == 0
        assert _cli_exit(document, "evolve", tmp_path) == 1

    def test_repeated_generated_column_rejected(self):
        document = {
            "system": {"kind": "lattice", "sites": 4, "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
            "observables": [{"name": "site_populations"}, {"name": "site_populations"}],
        }
        with pytest.raises(ScenarioValidationError, match=r"observables\[1\]: column 'site_pop_0'"):
            run_scenario(parse_scenario(json.dumps(document)))
        document["observables"] = [{"name": "energy", "label": "pop_3"}]
        document["outputs"] = {"populations": True}
        with pytest.raises(ScenarioValidationError, match="outputs.populations: column 'pop_3'"):
            run_scenario(parse_scenario(json.dumps(document)))

    def test_colliding_header_exits_one(self, tmp_path):
        document = json.loads(SPIN_DOC)
        document["observables"] = [
            {"name": "sigma_z", "label": "entropy"},
            {"name": "sigma_x", "label": "t"},
            {"name": "sigma_y", "label": "t"},
        ]
        document["outputs"]["transitions"] = {"source": 0, "targets": [1, 1]}
        assert _cli_exit(document, "evolve", tmp_path) == 1

    def test_label_of_a_column_not_emitted_is_allowed(self):
        document = json.loads(SPIN_DOC)
        document["observables"] = [{"name": "sigma_z", "label": "entropy"}]
        document["outputs"]["entropy"] = False
        assert run_scenario(parse_scenario(json.dumps(document))).columns[1] == "entropy"

    def test_perturb_rejects_target_equal_to_source(self, tmp_path):
        document = json.loads(RABI_DOC)
        document["outputs"]["transitions"] = {"source": 0, "targets": [1, 0]}
        spec = parse_scenario(json.dumps(document))
        with pytest.raises(ScenarioValidationError, match=r"outputs.transitions.targets\[1\]"):
            run_perturbation(spec)
        assert _cli_exit(document, "perturb", tmp_path) == 1
        # for evolve, trans_0_to_0 is the survival probability
        report = run_scenario(spec)
        survival = report.table[:, report.columns.index("trans_0_to_0")]
        transfer = report.table[:, report.columns.index("trans_0_to_1")]
        np.testing.assert_allclose(survival, 1.0 - transfer, atol=1e-12)


class TestResourceBounds:
    def test_lattice_dimension_rejected_at_once(self, tmp_path):
        document = {
            "system": {"kind": "lattice", "sites": 3000, "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 10**6},
        }
        start = time.perf_counter()
        with pytest.raises(ScenarioValidationError, match="^system.sites: .*MAX_DIMENSION"):
            parse_scenario(json.dumps(document))
        assert time.perf_counter() - start < 1.0
        assert _cli_exit(document, "evolve", tmp_path) == 1

    def test_explicit_dimension_rejected(self):
        n = MAX_DIMENSION + 1
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": [[0.0] * n for _ in range(n)]},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        with pytest.raises(ScenarioValidationError, match="^system.hamiltonian: .*MAX_DIMENSION"):
            parse_scenario(json.dumps(document))

    def test_largest_lattice_accepted(self):
        document = {
            "system": {"kind": "lattice", "sites": MAX_DIMENSION, "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
            "outputs": {"entropy": False},
        }
        assert resolve_scenario(parse_scenario(json.dumps(document))).dimension == MAX_DIMENSION

    def test_grid_cells_capped(self, tmp_path):
        document = {
            "system": {"kind": "lattice", "sites": 64, "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 10**6},
            "observables": [{"name": "momentum_populations"}],
            "outputs": {"populations": True, "transitions": {"source": 0}},
        }
        start = time.perf_counter()
        with pytest.raises(ScenarioValidationError, match="^time.points: .*MAX_GRID_CELLS"):
            parse_scenario(json.dumps(document))
        assert time.perf_counter() - start < 1.0
        assert _cli_exit(document, "evolve", tmp_path) == 1

    def test_million_point_spin_document_accepted(self):
        document = {
            "system": {"kind": "spin-half", "delta": 1.0, "omega": 0.5},
            "initial": {"state": "alpha"},
            "time": {"start": 0.0, "stop": 100.0, "points": 10**6},
            "observables": [
                {"name": "sigma_x"},
                {"name": "sigma_y"},
                {"name": "sigma_z"},
                {"name": "energy"},
                {"name": "site_populations"},
            ],
            "outputs": {
                "entropy": True,
                "expectations": True,
                "populations": True,
                "transitions": {"source": 0, "targets": "all"},
            },
        }
        assert parse_scenario(json.dumps(document)).time.points == 10**6

    @pytest.mark.parametrize("fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json"])
    def test_fixtures_accepted(self, fixture):
        load_scenario(SCENARIOS / fixture)


# A 2-level observable whose relative Hermiticity defect (~2e-11) passes
# require_hermitian, but whose expectation in |+> has imaginary part 2e-5.
SKEWED_DOC = {
    "system": {"kind": "spin-half", "delta": 1.0, "omega": 0.0},
    "initial": {"amplitudes": [0.5**0.5, 0.5**0.5]},
    "time": {"start": 0.0, "stop": 1.0, "points": 3},
    "observables": [
        {"name": "sigma_z"},
        {"name": "matrix", "label": "x", "matrix": [[1e6, [0, 1e6]], [[0, -999999.99996], 1e6]]},
    ],
}


class TestEigenbasisColumns:
    def test_imaginary_expectation_rejected(self, tmp_path):
        spec = parse_scenario(json.dumps(SKEWED_DOC))
        with pytest.raises(NumericalError, match=r"^observables\[1\]: .*imaginary part 2\.00\de-05"):
            run_scenario(spec)
        assert _cli_exit(SKEWED_DOC, "evolve", tmp_path) == 1

    def test_large_hermitian_observable_accepted(self, tmp_path):
        """At delta = omega = 1e8, rounding in tr(H rho) alone is ~1e-8; H is exactly Hermitian."""
        document = {
            "system": {"kind": "spin-half", "delta": 1e8, "omega": 1e8},
            "initial": {"state": "alpha"},
            "time": {"start": 0.0, "stop": 1e-6, "points": 41},
            "observables": [{"name": "energy"}, {"name": "sigma_x"}],
            "outputs": {"entropy": False},
        }
        spec = parse_scenario(json.dumps(document))
        report = run_scenario(spec)
        h = resolve_scenario(spec).hamiltonian
        # energy is conserved: <alpha|H|alpha> at every point, to rounding of |H| ~ 1e8
        np.testing.assert_allclose(report.table[:, 1], h[0, 0].real, rtol=0.0, atol=1e-6)
        assert _cli_exit(document, "evolve", tmp_path) == 0

    def test_columns_match_site_basis_loop(self):
        """Every column against the per-point loop tr(X U rho(0) U†), |U_kj|^2 with LAPACK's U."""
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        x = (a + a.conj().T) / 2.0
        document = {
            "system": {"kind": "composite", "delta_a": 1.0, "delta_b": 0.7, "g": 0.3},
            "initial": {"probabilities": [0.1, 0.2, 0.3, 0.4]},
            "time": {"start": -1.0, "stop": 6.0, "points": 29},
            "observables": [
                {"name": "energy"},
                {"name": "site_populations"},
                {"name": "matrix", "label": "x", "matrix": [[[z.real, z.imag] for z in row] for row in x]},
            ],
            "outputs": {"entropy": False, "populations": True, "transitions": {"source": 2}},
        }
        spec = parse_scenario(json.dumps(document))
        report = run_scenario(spec)
        perturb = run_perturbation(spec)
        resolved = resolve_scenario(spec)
        h, rho0 = resolved.hamiltonian, resolved.initial_density
        w, v = np.linalg.eigh(h)
        observables = [("energy", h), ("x", x)] + [
            (f"site_pop_{i}", np.diag(np.eye(4)[i]).astype(complex)) for i in range(4)
        ]
        for i, t in enumerate(spec.time.values()):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            rho = u @ rho0 @ u.conj().T
            row = dict(zip(report.columns, report.table[i]))
            for label, matrix in observables:
                assert abs(row[label] - np.trace(matrix @ rho).real) <= 1e-12
            for k in range(4):
                assert abs(row[f"pop_{k}"] - rho[k, k].real) <= 1e-12
            for k in (0, 1, 3):
                exact = abs(u[k, 2]) ** 2
                assert abs(row[f"trans_2_to_{k}"] - exact) <= 1e-13
                assert abs(perturb.table[i, perturb.columns.index(f"exact_2_to_{k}")] - exact) <= 1e-13
                first = t**2 * abs(h[k, 2]) ** 2
                assert perturb.table[i, perturb.columns.index(f"first_order_2_to_{k}")] == first

    def test_csv_formats_each_value_with_fifteen_digits(self):
        rng = np.random.default_rng(5)
        scales = 10.0 ** rng.integers(-300, 300, (4, 3))
        table = np.concatenate([rng.standard_normal((4, 3)) * scales, [[-0.0, 0.0, 1e-320]]])
        report = EvolutionReport("evolution", ("a", "b", "c"), table, {}, {}, ())
        rows = report.to_csv().splitlines()[2:]
        assert rows == [",".join(format(float(x), ".15g") for x in row) for row in table]


def _mixture(n: int, seed: int = 20260808) -> tuple:
    """A seeded GUE H (norm ~1) and a diagonal mixture rho(0), both n x n."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    weights = rng.standard_exponential(n)
    return (a + a.conj().T) / (2.0 * n**0.5), np.diag(weights / weights.sum()).astype(complex)


def _eigenbasis_densities(h, rho0, times, gamma=0.0):
    """rho(t) in H's eigenbasis, rho(0)' ∘ (p p̄ᵀ), with off-diagonals damped by exp(-gamma t)."""
    w, v = hermitian_eig(h)
    rho0p = v.conj().T @ rho0 @ v
    off = 1.0 - np.eye(h.shape[0])
    for t in times:
        p = np.exp(-1j * w * t)
        yield rho0p * np.outer(p, p.conj()) * np.exp(-gamma * t * off)


@pytest.fixture(scope="module")
def long_mixture():
    """(warm entropies, ||W†W - 1||_F after each point, cold entropies) of a
    seeded n = 8 mixture over 2000 points."""
    h, rho0 = _mixture(8)
    times = np.linspace(0.0, 40.0, 2000)
    w, v = hermitian_eig(h)
    eye = np.eye(8)
    basis = v.conj().T
    warm, defects = [], []
    for rho in _eigenbasis_densities(h, rho0, times):
        spectrum, basis = _warm_step(rho, basis)
        warm.append(spectrum_entropy(spectrum))
        defects.append(np.linalg.norm(basis.conj().T @ basis - eye))
    cold = []
    for t in times:
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        cold.append(von_neumann_entropy(u @ rho0 @ u.conj().T))
    return np.array(warm), np.array(defects), np.array(cold)


class TestWarmStartEntropy:
    @pytest.mark.parametrize("fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json"])
    def test_fixture_warm_matches_cold(self, fixture):
        spec = load_scenario(SCENARIOS / fixture)
        resolved = resolve_scenario(spec)
        h, rho0, times = resolved.hamiltonian, resolved.initial_density, spec.time.values()
        cold = [von_neumann_entropy(evolve_density(rho0, h, t)) for t in times]
        _, v = hermitian_eig(h)
        warm = list(warm_entropies(_eigenbasis_densities(h, rho0, times), v.conj().T))
        assert np.max(np.abs(np.array(warm) - cold)) <= 1e-12
        # the column run_scenario writes: warm for a mixture, cold for a pure state
        report = run_scenario(spec)
        assert np.max(np.abs(report.table[:, report.columns.index("entropy")] - cold)) <= 1e-12

    def test_mixture_warm_matches_cold_over_long_grid(self, long_mixture):
        warm, _, cold = long_mixture
        assert np.max(np.abs(warm - cold)) <= 1e-12
        assert entropy_constancy(warm).passed

    def test_warm_basis_stays_unitary(self, long_mixture):
        _, defects, _ = long_mixture
        assert np.max(defects) <= 1e-13

    def test_dephased_sequence_fails_entropy_constancy(self):
        h, rho0 = _mixture(8)
        times = np.linspace(0.0, 4.0, 200)
        _, v = hermitian_eig(h)
        unitary = list(warm_entropies(_eigenbasis_densities(h, rho0, times), v.conj().T))
        assert entropy_constancy(np.array(unitary)).passed
        damped = _eigenbasis_densities(h, rho0, times, gamma=0.05)
        dephased = list(warm_entropies(damped, v.conj().T))
        check = entropy_constancy(np.array(dephased))
        assert not check.passed
        assert check.residual > 1e3 * check.tolerance
        # the warm start does not hide the change: it matches cold solves of the same matrices
        cold = [von_neumann_entropy(rho) for rho in _eigenbasis_densities(h, rho0, times, gamma=0.05)]
        assert np.max(np.abs(np.array(dephased) - cold)) <= 1e-12
