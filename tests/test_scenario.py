"""Tests for scenario parsing, runs, reports, and round-trips."""

import contextlib
import io
import json
import math
import os
import re
import tempfile
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from entrodyn import __version__, csvtext, scenario
from entrodyn.cli import main as cli_main
from entrodyn.csvtext import CSV_BLOCK_CELLS, write_csv
from entrodyn.dynamics import evolve_density
from entrodyn.ensembles import spectrum_entropy, von_neumann_entropy
from entrodyn.errors import NumericalError
from entrodyn.linalg import hermitian_eig, partial_trace
from entrodyn.systems import LatticeFreeParticle, lattice_hamiltonian
from entrodyn.scenario import (
    MAX_DIMENSION,
    EvolutionReport,
    ScenarioParseError,
    ScenarioValidationError,
    entropy_constancy,
    load_scenario,
    parse_scenario,
    resolve_scenario,
    run_perturbation,
    run_scenario,
    serialize_scenario,
    time_grid,
    Basis,
    _entropies,
    _evolved,
    _populations,
    _subsystem_entropies,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def _csv(report) -> str:
    handle = io.StringIO()
    report.to_csv(handle)
    return handle.getvalue()


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

# sections of a small valid document, as JSON text
SYSTEM = '"system": {"kind": "spin-half", "delta": 1.0}'
INITIAL = '"initial": {"state": "alpha"}'
TIME = '"time": {"start": 0, "stop": 1, "points": 3}'


class TestParsing:
    def test_valid_spin_document(self):
        spec = parse_scenario(SPIN_DOC)
        assert isinstance(spec, dict)
        assert spec["system"]["kind"] == "spin-half"
        assert spec["system"]["delta"] == 2.0
        assert spec["initial"]["state"] == "alpha"
        assert spec["time"]["points"] == 5

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

    @pytest.mark.parametrize(
        "sections, path, key",
        [
            (['"system": {"kind": "spin-half", "delta": 1.0, "delta": 2.0}', INITIAL, TIME], "system", "delta"),
            (['"system": {"kind": "spin-half", "kind": "spin-half", "delta": 1}', INITIAL, TIME], "system", "kind"),
            ([SYSTEM, SYSTEM, INITIAL, TIME], "document", "system"),
            ([SYSTEM, INITIAL, '"time": {"start": 0, "stop": 1, "points": 3, "stop": 2}'], "time", "stop"),
            ([SYSTEM, INITIAL, TIME, '"observables": [{"name": "sigma_z", "name": "sigma_x"}]'],
             "observables[0]", "name"),
            (
                [SYSTEM, INITIAL, TIME, '"outputs": {"transitions": {"source": 0, "source": 1}}'],
                "outputs.transitions",
                "source",
            ),
        ],
    )
    def test_repeated_field_rejected(self, sections, path, key):
        # json.loads keeps a repeated key's last value; each mapping names the first field it repeats instead
        with pytest.raises(ScenarioParseError, match=f"^{re.escape(path)}: field '{key}' is given twice$"):
            parse_scenario("{" + ", ".join(sections) + "}")

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

    @pytest.mark.parametrize("sites, length, mass", [(8, 2 * math.pi, 1.0), (5, 1.0, 0.3), (64, 1.0, 1.0)])
    def test_lattice_hamiltonian_keeps_its_bits(self, sites, length, mass):
        # the resolution builds H from the momentum basis it holds for the rest of the run
        document = {
            "system": {"kind": "lattice", "sites": sites, "length": length, "mass": mass},
            "initial": {"state": "momentum", "index": 1},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        h = resolve_scenario(parse_scenario(json.dumps(document))).hamiltonian
        assert h.tobytes() == lattice_hamiltonian(LatticeFreeParticle(sites, length, mass)).tobytes()

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
        lines = _csv(report).splitlines()
        assert lines[0].startswith("# entrodyn ")
        assert lines[1] == ",".join(report.columns)
        assert len(lines) == 2 + report.table.shape[0]

    def test_deterministic_csv(self):
        spec = parse_scenario(RABI_DOC)
        assert _csv(run_scenario(spec)) == _csv(run_scenario(spec))

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

    @pytest.mark.parametrize(
        ("name", "transitions"),
        [("lattice_momentum.json", {"source": 2, "targets": "all"}), ("spin_rabi.json", None)],
    )
    def test_exact_columns_are_the_evolve_transition_columns(self, name, transitions):
        document = json.loads((SCENARIOS / name).read_text())
        if transitions:
            document["outputs"]["transitions"] = transitions
        spec = parse_scenario(json.dumps(document))
        evolve, perturb = run_scenario(spec), run_perturbation(spec)
        names = [column for column in evolve.columns if column.startswith("trans_")]
        assert len(names) == (7 if transitions else 1)
        for column in names:
            exact = perturb.table[:, perturb.columns.index(column.replace("trans_", "exact_"))]
            assert exact.tobytes() == evolve.table[:, evolve.columns.index(column)].tobytes()

    @pytest.mark.parametrize(
        "transitions",
        [None, {"source": 0, "targets": [0]}],
        ids=["without-transitions", "target-is-source"],
    )
    def test_refused_run_makes_no_eigensolver_call(self, transitions, eig_calls):
        document = json.loads(SPIN_DOC)
        if transitions:
            document["outputs"]["transitions"] = transitions
        spec = parse_scenario(json.dumps(document))
        eig_calls.clear()
        with pytest.raises(ScenarioValidationError, match=r"^outputs\.transitions"):
            run_perturbation(spec)
        assert eig_calls == []


class TestDocumentEcho:
    def test_document_is_json_compatible(self):
        spec = parse_scenario(RABI_DOC)
        assert json.loads(json.dumps(spec)) == spec

    @pytest.mark.parametrize(
        "fixture",
        [
            "spin_static.json",
            "spin_rabi.json",
            "lattice_momentum.json",
            "composite_entanglement.json",
            "explicit_mixture.json",
        ],
    )
    def test_summary_echoes_the_spec(self, fixture):
        spec = load_scenario(SCENARIOS / fixture)
        assert type(spec) is dict
        assert json.loads(run_scenario(spec).summary_json())["scenario"] == spec

    def test_normal_form(self):
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": [[1, [2, 0]], [[2, -0.0], 3]]},
            "initial": {"amplitudes": [[0, 1], 0]},
            "time": {"start": 0, "stop": 1, "points": 2},
            "observables": [{"name": "matrix", "matrix": [[0, [0, -1]], [[0, 1], 0]]}],
            "outputs": {"transitions": {"source": 0}},
        }
        spec = parse_scenario(json.dumps(document))
        assert spec == {
            "system": {"kind": "explicit-matrices", "hamiltonian": [[1.0, 2.0], [2.0, 3.0]]},
            "initial": {"amplitudes": [[0.0, 1.0], 0.0]},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
            "observables": [{"name": "matrix", "matrix": [[0.0, [0.0, -1.0]], [[0.0, 1.0], 0.0]]}],
            "outputs": {
                "entropy": True,
                "expectations": True,
                "populations": False,
                "transitions": {"source": 0, "targets": "all"},
            },
        }
        assert type(spec["time"]["start"]) is float and type(spec["system"]["hamiltonian"][0][0]) is float
        del document["observables"], document["outputs"]
        assert "observables" not in parse_scenario(json.dumps({**document, "observables": []}))
        assert "transitions" not in parse_scenario(json.dumps(document))["outputs"]

    def test_empty_label_falls_back(self):
        # an empty label names the column like an absent one, and the echo keeps it
        document = json.loads(SPIN_DOC)
        document["observables"] = [
            {"name": "sigma_z", "label": ""},
            {"name": "matrix", "matrix": [[1.0, 0.0], [0.0, -1.0]], "label": ""},
        ]
        report = run_scenario(parse_scenario(json.dumps(document)))
        assert report.columns[2:4] == ("sigma_z", "obs_1")
        assert [obs["label"] for obs in report.summary()["scenario"]["observables"]] == ["", ""]


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

    @pytest.mark.parametrize("label", ["a,b", 'say "b"', "line\nbreak", "cr\rhere", "crlf\r\n"])
    def test_csv_breaking_label_rejected(self, label, tmp_path, eig_calls):
        document = json.loads(SPIN_DOC)
        document["observables"] = [{"name": "sigma_x"}, {"name": "sigma_z", "label": label}]
        spec = parse_scenario(json.dumps(document))
        eig_calls.clear()
        message = rf"^observables\[1\]: column {re.escape(repr(label))} holds a comma, a quote or a line break"
        with pytest.raises(ScenarioValidationError, match=message) as refused:
            run_scenario(spec)
        assert "\n" not in str(refused.value) and eig_calls == []
        assert _cli_exit(document, "evolve", tmp_path) == 1
        # perturb writes no labels
        document["outputs"]["transitions"] = {"source": 0, "targets": [1]}
        assert _cli_exit(document, "perturb", tmp_path) == 0

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

    @pytest.mark.parametrize(
        ("hamiltonian", "error", "message"),
        [
            ([[0.0] * 600] * 600, ScenarioValidationError, "dimension 600 exceeds MAX_DIMENSION = 128"),
            ([[0.0, 0.0], [0.0] * 10**5], ScenarioParseError, "rows have unequal lengths"),
        ],
        ids=["too-large", "ragged"],
    )
    def test_matrix_shape_is_refused_before_any_entry_is_read(self, hamiltonian, error, message):
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": hamiltonian},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        text = json.dumps(document)
        with mock.patch.object(scenario, "_complex_vector", side_effect=AssertionError("a row was read")) as read:
            with pytest.raises(error, match=f"^system\\.hamiltonian: {message}$"):
                parse_scenario(text)
        assert not read.called

    @pytest.mark.parametrize(
        ("entry", "message"),
        [
            (2, None),
            (True, "system.hamiltonian[0][3]: expected a number or [re, im] pair, got True"),
            (math.inf, "system.hamiltonian[0][3]: expected a finite number, got inf"),
            ([math.nan, 0.0], "system.hamiltonian[0][3][0]: expected a finite number, got nan"),
            ([0.0, 0.0, 0.0], "system.hamiltonian[0][3]: expected a number or [re, im] pair, got [0.0, 0.0, 0.0]"),
            (10**400, "system.hamiltonian[0][3]: integer of 401 digits is out of range"),
        ],
        ids=["int", "bool", "inf", "nan-pair", "triple", "long-integer"],
    )
    def test_entry_after_plain_ones_is_read_by_its_path(self, entry, message, tmp_path):
        # a row's finite floats and pairs come first, so the entry at [0][3] is the first one any
        # other reading meets
        hamiltonian = [
            [0.5, [0.25, -0.5], 1.0, entry],
            [[0.25, 0.5], -1.0, [0.0, 2.0], 0.0],
            [1.0, [0.0, -2.0], 0.0, 0.0],
            [2.0, 0.0, 0.0, 3.0],
        ]
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": hamiltonian},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        if message is None:
            row = parse_scenario(json.dumps(document))["system"]["hamiltonian"][0]
            assert row == [0.5, [0.25, -0.5], 1.0, 2.0] and type(row[3]) is float
            assert _cli_exit(document, "evolve", tmp_path) == 0
        else:
            with pytest.raises(ScenarioParseError, match=f"^{re.escape(message)}$"):
                parse_scenario(json.dumps(document))
            assert _cli_exit(document, "evolve", tmp_path) == 2

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
        assert parse_scenario(json.dumps(document))["time"]["points"] == 10**6

    @pytest.mark.parametrize(
        "fixture",
        [
            "spin_static.json",
            "spin_rabi.json",
            "lattice_momentum.json",
            "composite_entanglement.json",
            "explicit_mixture.json",
        ],
    )
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
        for i, t in enumerate(time_grid(spec["time"])):
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
        rows = _csv(report).splitlines()[2:]
        assert rows == [",".join(format(float(x), ".15g") for x in row) for row in table]


def _mixture(n: int, seed: int = 20260808) -> tuple:
    """A seeded GUE H (norm ~1) and a diagonal mixture rho(0), both n x n."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    weights = rng.standard_exponential(n)
    return (a + a.conj().T) / (2.0 * n**0.5), np.diag(weights / weights.sum()).astype(complex)


def _eigenbasis(h, rho0, times, growth=0.0, h_seed=None):
    """(rho(0)', P, V): rho0 in H's eigenbasis, H's phase table, each row P_t scaled
    by exp(growth t), so that |P_t| = 1 only when growth is 0, and H's eigenvectors;
    H is solved from ``h_seed``, as a run seeds it."""
    spectrum = hermitian_eig(h, h_seed)
    v = spectrum.eigenvectors
    return v.conj().T @ rho0 @ v, spectrum.phases(times) * np.exp(growth * times)[:, None], v


def _site_basis(n: int) -> Basis:
    """The basis a probabilities mixture is diagonal in."""
    return Basis(labels=tuple(range(n)))


def _initial_seed(basis: Basis, v) -> np.ndarray:
    """V† B for the basis B that rho(0) is diagonal in: the seed a run passes to rho(0)'s solve."""
    return basis.coefficient_rows(v).conj().T


def _dephased(times, gamma):
    """A stand-in for ``scenario._evolved`` that damps the off-diagonals of rho(t)' by exp(-gamma t).
    ``_entropies`` asks for the grid's phase rows block by block in grid order, so the rows of
    the i-th call follow those of the calls before it."""
    asked = 0

    def evolved(rho0p, phases):
        nonlocal asked
        rows = slice(asked, asked + len(phases))
        asked = rows.stop
        off = 1.0 - np.eye(rho0p.shape[0])
        return _evolved(rho0p, phases) * np.exp(-gamma * times[rows, None, None] * off)

    return evolved


def _entropy_column(h, rho0, times, gamma=0.0, growth=0.0, h_seed=None, basis=None) -> np.ndarray:
    """The column ``_entropies`` gives for rho0 under H, dephased by gamma or with growing phases,
    from the seeds a run passes: ``h_seed`` for H, and V† B for the basis B rho0 is diagonal in
    (``basis``, the site basis of a mixture when None)."""
    rho0p, phases, v = _eigenbasis(h, rho0, times, growth, h_seed)
    seed = _initial_seed(basis or _site_basis(len(h)), v)
    if gamma == 0.0:
        return _entropies(rho0p, phases, seed)
    with mock.patch.object(scenario, "_evolved", _dephased(times, gamma)):
        return _entropies(rho0p, phases, seed)


LONG_TIMES = np.linspace(0.0, 40.0, 2000)


@pytest.fixture(scope="module")
def long_mixture():
    """(entropy column, ||W_t†W_t - 1||_F at each point, oracle entropies) of a
    seeded n = 8 mixture over 2000 points; the column is certified in
    W_t = P_t ∘ X0 for rho(0)' = X0 Λ X0†, and the oracle takes LAPACK's
    eigvalsh of the site-basis rho(t), an independent route."""
    h, rho0 = _mixture(8)
    times = LONG_TIMES
    rho0p, phases, v = _eigenbasis(h, rho0, times)
    x0 = hermitian_eig(rho0p, _initial_seed(_site_basis(8), v)).eigenvectors
    eye = np.eye(8)
    bases = (p[:, None] * x0 for p in phases)
    defects = [np.linalg.norm(basis.conj().T @ basis - eye) for basis in bases]
    w, v = hermitian_eig(h)
    u = (v * np.exp(-1j * np.multiply.outer(times, w))[:, None, :]) @ v.conj().T
    cold = spectrum_entropy(np.linalg.eigvalsh(u @ rho0 @ u.conj().swapaxes(1, 2)))
    return _entropy_column(h, rho0, times), np.array(defects), cold


class TestWarmStartEntropy:
    @pytest.mark.parametrize("fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json"])
    def test_fixture_warm_matches_cold(self, fixture):
        spec = load_scenario(SCENARIOS / fixture)
        resolved = resolve_scenario(spec)
        h, rho0, times = resolved.hamiltonian, resolved.initial_density, time_grid(spec["time"])
        cold = [von_neumann_entropy(evolve_density(rho0, h, t)) for t in times]
        h_seed = resolved.hamiltonian_seed
        column = _entropy_column(h, rho0, times, h_seed=h_seed, basis=resolved.initial_kets)
        assert np.max(np.abs(column - cold)) <= 1e-12
        # the column run_scenario writes, pure state or mixture, is this helper's
        report = run_scenario(spec)
        np.testing.assert_array_equal(report.table[:, report.columns.index("entropy")], column)

    def test_mixture_warm_matches_cold_over_long_grid(self, long_mixture):
        column, _, cold = long_mixture
        assert np.max(np.abs(column - cold)) <= 1e-12
        assert entropy_constancy(column, LONG_TIMES).passed

    def test_warm_basis_stays_unitary(self, long_mixture):
        _, defects, _ = long_mixture
        assert np.max(defects) <= 1e-13

    def test_dephased_sequence_fails_entropy_constancy(self):
        h, rho0 = _mixture(8)
        times = np.linspace(0.0, 4.0, 200)
        assert entropy_constancy(_entropy_column(h, rho0, times), times).passed
        dephased = _entropy_column(h, rho0, times, gamma=0.05)
        check = entropy_constancy(dephased, times)
        assert not check.passed
        assert check.residual > 1e3 * check.tolerance
        assert check.worst == f"t = {times[np.argmax(np.abs(dephased - dephased[0]))]:.15g}"
        # the basis built for unitary evolution does not hide the change: cold solves of the same matrices agree
        rho0p, phases, _ = _eigenbasis(h, rho0, times)
        cold = [von_neumann_entropy(rho) for rho in _dephased(times, 0.05)(rho0p, phases)]
        assert np.max(np.abs(dephased - cold)) <= 1e-12

    def test_growing_phases_fail_entropy_constancy(self):
        h, rho0 = _mixture(8)
        times = np.linspace(0.0, 4.0, 200)
        check = entropy_constancy(_entropy_column(h, rho0, times, growth=0.05), times)
        assert not check.passed
        assert check.residual > 1e3 * check.tolerance

    @pytest.mark.parametrize(
        "sites, length, stop, initial",
        [
            # rho(t) moves about 25 rad per step of the grid (spectral width 5053)
            (32, 1.0, 1.0, "mixture"),
            (64, 2 * math.pi, 1.0, "site"),
            (64, 2 * math.pi, 1.0, "mixture"),
        ],
    )
    def test_lattice_matches_lapack(self, sites, length, stop, initial):
        rng = np.random.default_rng(20260808)
        if initial == "site":
            state = {"state": "site", "index": int(rng.integers(sites))}
        else:
            weights = rng.standard_exponential(sites)
            state = {"probabilities": (weights / weights.sum()).tolist()}
        document = {
            "system": {"kind": "lattice", "sites": sites, "length": length, "mass": 1.0},
            "initial": state,
            "time": {"start": 0.0, "stop": stop, "points": 201},
            "outputs": {"entropy": True, "expectations": False},
        }
        spec = parse_scenario(json.dumps(document))
        resolved = resolve_scenario(spec)
        w, v = np.linalg.eigh(resolved.hamiltonian)
        oracle = []
        for t in time_grid(spec["time"]):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            oracle.append(spectrum_entropy(np.linalg.eigvalsh(u @ resolved.initial_density @ u.conj().T)))
        report = run_scenario(spec)
        assert np.max(np.abs(report.table[:, 1] - oracle)) <= 1e-12
        assert report.passed


def _lattice_mixture_spec(points: int) -> dict:
    """A seeded 64-site lattice mixture over a grid of ``points``, entropy on."""
    weights = np.random.default_rng(20260808).standard_exponential(64)
    document = {
        "system": {"kind": "lattice", "sites": 64, "length": 2 * math.pi, "mass": 1.0},
        "initial": {"probabilities": (weights / weights.sum()).tolist()},
        "time": {"start": 0.0, "stop": 1.0, "points": points},
        "outputs": {"entropy": True, "expectations": False},
    }
    return parse_scenario(json.dumps(document))


def _lattice_mixture_frame(points: int) -> tuple:
    """(rho(0)', P, the seed of rho(0)'s solve) of the seeded 64-site lattice mixture over a grid of ``points``,
    from the seeds a run passes."""
    spec = _lattice_mixture_spec(points)
    resolved = resolve_scenario(spec)
    h, rho0, times = resolved.hamiltonian, resolved.initial_density, time_grid(spec["time"])
    rho0p, phases, v = _eigenbasis(h, rho0, times, h_seed=resolved.hamiltonian_seed)
    return rho0p, phases, _initial_seed(resolved.initial_kets, v)


class TestEntropySolverTraffic:
    @pytest.mark.parametrize("fixture", ["spin_static.json", "spin_rabi.json", "lattice_momentum.json", None])
    def test_run_diagonalises_h_and_rho0_only(self, fixture, eig_calls):
        # every A_t of the entropy column is certified without a solve of its own
        spec = _lattice_mixture_spec(201) if fixture is None else load_scenario(SCENARIOS / fixture)
        assert spec["outputs"]["entropy"]
        resolved = resolve_scenario(spec)
        h = resolved.hamiltonian
        eig_calls.clear()
        run_scenario(spec)
        assert len(eig_calls) == 2
        (h_call, h_basis), (rho_call, rho_basis) = eig_calls
        np.testing.assert_array_equal(h_call, h)
        # H is seeded by the plane waves on a lattice and solved cold otherwise; every initial state here,
        # a site, momentum or named state or a site mixture, seeds rho(0)'
        h_seed = resolved.hamiltonian_seed
        assert (h_seed is None) == (spec["system"]["kind"] != "lattice")
        if h_seed is None:
            assert h_basis is None
        else:
            np.testing.assert_array_equal(h_basis, h_seed)
        assert rho_call.shape == h.shape and rho_basis is not None

    def test_lattice_mixture_makes_no_cold_solve(self, eig_calls):
        spec = _lattice_mixture_spec(201)
        eig_calls.clear()
        run_scenario(spec)
        assert len(eig_calls) == 2 and all(basis is not None for _, basis in eig_calls)
        # a state given by amplitudes has no known eigenbasis, so its rho(0)' alone is solved cold
        document = json.loads(serialize_scenario(spec))
        document["initial"] = {"amplitudes": [0.6, [0.0, 0.8]] + [0.0] * 62}
        spec = parse_scenario(json.dumps(document))
        eig_calls.clear()
        run_scenario(spec)
        assert [basis is None for _, basis in eig_calls] == [False, True]


class TestEntropyWorkingSet:
    def test_peak_does_not_grow_with_the_grid(self):
        # blocks bound the working set: a longer grid may add no more than its T x n phase
        # table and its output; a (T, n, n) stack of the 2001-point grid alone would be 131 MB
        peaks = {}
        for points in (201, 2001):
            rho0p, phases, seed = _lattice_mixture_frame(points)
            peaks[points] = _traced_peak(lambda: _entropies(rho0p, phases, seed))
        assert peaks[2001] - peaks[201] <= (2001 - 201) * (phases.itemsize * 64 + 8)
        assert peaks[201] < 4 * 2**20


def _populations_document(sites: int) -> dict:
    return {
        "system": {"kind": "lattice", "sites": sites, "length": 2 * math.pi, "mass": 1.0},
        "initial": {"state": "momentum", "index": 1},
        "time": {"start": 0.0, "stop": 2.0, "points": 2},
        "observables": [{"name": "momentum_populations"}, {"name": "site_populations"}],
        "outputs": {"entropy": False, "populations": True},
    }


def _traced_peak(action) -> int:
    """Peak bytes traced by tracemalloc while ``action()`` runs."""
    tracemalloc.start()
    try:
        action()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBasisPopulations:
    def test_site_populations_equal_populations_bitwise(self):
        document = _populations_document(8)
        document["initial"] = {"probabilities": [0.3, 0.1, 0.2, 0.05, 0.05, 0.1, 0.15, 0.05]}
        document["time"] = {"start": -1.0, "stop": 3.0, "points": 41}
        for system in (document["system"], {"kind": "explicit-matrices", "hamiltonian": np.eye(8).tolist()}):
            document["system"] = system
            document["observables"] = [{"name": "site_populations"}]
            report = run_scenario(parse_scenario(json.dumps(document)))
            for i in range(8):
                site = report.table[:, report.columns.index(f"site_pop_{i}")]
                pop = report.table[:, report.columns.index(f"pop_{i}")]
                assert np.array_equal(site.view(np.int64), pop.view(np.int64))

    def test_momentum_populations_match_projectors(self):
        spec = parse_scenario(json.dumps(_populations_document(7)))
        report = run_scenario(spec)
        resolved = resolve_scenario(spec)
        w, v = np.linalg.eigh(resolved.hamiltonian)
        sites = 7
        waves = np.exp(2j * np.pi * np.outer(np.arange(-3, 4), np.arange(sites)) / sites) / math.sqrt(sites)
        for i, t in enumerate(time_grid(spec["time"])):
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            rho = u @ resolved.initial_density @ u.conj().T
            for k, wave in zip(range(-3, 4), waves):
                expected = (wave.conj() @ rho @ wave).real
                assert abs(report.table[i, report.columns.index(f"mom_pop_{k}")] - expected) <= 1e-13

    def test_largest_lattice_parses_without_projectors(self):
        """At 128 sites one dense projector per column would hold 256 MB for the two entries."""
        text = json.dumps(_populations_document(MAX_DIMENSION))
        assert _traced_peak(lambda: parse_scenario(text)) < 4 * 2**20


def _lattice_system(sites: int) -> dict:
    return {"kind": "lattice", "sites": sites, "length": 2 * math.pi, "mass": 1.0}


_AMPLITUDES = np.array([1.0, 1j]) @ np.random.default_rng(20261019).standard_normal((2, 8))
# initial state -> (system, initial section): every way of giving rho(0), on a lattice and on a composite
MIXTURE_CASES = {
    "probabilities": (_lattice_system(8), {"probabilities": [0.3, 0.0, 0.2, 0.05, 0.0, 0.1, 0.35, 0.0]}),
    "amplitudes": (
        _lattice_system(8),
        {"amplitudes": [[z.real, z.imag] for z in _AMPLITUDES / np.linalg.norm(_AMPLITUDES)]},
    ),
    "site": (_lattice_system(8), {"state": "site", "index": 3}),
    "momentum": (_lattice_system(8), {"state": "momentum", "index": 2}),
    "composite": (
        {"kind": "composite", "delta_a": 1.3, "delta_b": -0.4, "g": 0.7},
        {"probabilities": [0.5, 0.0, 0.3, 0.2]},
    ),
}


def _mixture_report(case: str):
    system, initial = MIXTURE_CASES[case]
    observables = [{"name": "site_populations"}]
    if system["kind"] == "lattice":
        observables.append({"name": "momentum_populations"})
    document = {
        "system": system,
        "initial": initial,
        "time": {"start": -1.5, "stop": 6.0, "points": 61},
        "observables": observables,
        "outputs": {"entropy": True, "populations": True, "transitions": {"source": 0}},
    }
    spec = parse_scenario(json.dumps(document))
    return spec, run_scenario(spec)


def _population_oracle(spec: dict, columns: list) -> np.ndarray:
    """<b|rho(t)|b> for each population column, from LAPACK's eigh of H and rho(t) = U rho(0) U†,
    with the plane waves written out here."""
    resolved = resolve_scenario(spec)
    n = resolved.dimension
    w, v = np.linalg.eigh(resolved.hamiltonian)
    waves = np.exp(2j * np.pi * np.outer(np.arange(-(n // 2), (n + 1) // 2), np.arange(n)) / n) / math.sqrt(n)
    kets = []
    for name in columns:
        prefix, _, label = name.rpartition("_")
        if prefix in ("pop", "site_pop"):
            kets.append(np.eye(n)[int(label)])
        elif prefix == "mom_pop":
            kets.append(waves[int(label) + n // 2])
    kets = np.array(kets)
    oracle = []
    for t in time_grid(spec["time"]):
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        rho = u @ resolved.initial_density @ u.conj().T
        oracle.append(np.einsum("bi,ij,bj->b", kets.conj(), rho, kets).real)
    return np.array(oracle)


class TestMixturePopulations:
    """Every population is sum_k w_k |<b|U(t)|k>|² over rho(0)'s mixture."""

    @pytest.mark.parametrize("case", sorted(MIXTURE_CASES))
    def test_populations_are_probabilities(self, case, eig_calls):
        eig_calls.clear()
        spec, report = _mixture_report(case)
        assert len(eig_calls) == 2  # H and rho(0)'; the populations solve nothing
        names = [name for name in report.columns if "pop_" in name]
        table = report.table[:, [report.columns.index(name) for name in names]]
        assert (table >= 0.0).all()
        assert np.max(np.abs(table - _population_oracle(spec, names))) <= 1e-12
        pops = [name for name in names if name.startswith("pop_")]
        totals = report.table[:, [report.columns.index(name) for name in pops]].sum(axis=1)
        assert np.max(np.abs(totals - 1.0)) <= 1e-12
        for i, name in enumerate(pops):
            site = report.table[:, report.columns.index(f"site_pop_{i}")]
            pop = report.table[:, report.columns.index(name)]
            assert np.array_equal(site.view(np.int64), pop.view(np.int64))

    def test_full_rank_mixture_peak_is_one_ket_of_temporaries(self):
        # 128 kets of positive weight over n_b = 128 site kets. Beside the (T, n_b) float block, one
        # ket's product holds its (T, n_b) complex amplitudes and either the (n, n_b) complex
        # coefficients it multiplies or the (T, n_b) float probabilities it returns: the peak is
        # that of one ket, whatever the number of kets
        n, points = MAX_DIMENSION, 201
        bound = points * n * (8 + 16) + max(n * n * 16, points * n * 8) + 2**14
        document = {
            "system": _lattice_system(n),
            "initial": {"probabilities": [1.0 / n] * n},
            "time": {"start": 0.0, "stop": 1.0, "points": points},
            "outputs": {"entropy": False, "populations": True},
        }
        resolved = resolve_scenario(parse_scenario(json.dumps(document)))
        spectrum = hermitian_eig(resolved.hamiltonian)
        v, phases = spectrum.eigenvectors, spectrum.phases(time_grid(document["time"]))
        kets = resolved.initial_kets.coefficient_rows(v).conj()
        mixture = list(zip(resolved.initial_weights, kets))
        rows = Basis(labels=tuple(range(n))).coefficient_rows(v)
        assert len(mixture) == n
        assert _traced_peak(lambda: _populations(rows, mixture, phases)) <= bound

    def test_populations_only_run_holds_no_conjugate_phase_table(self):
        # The run's tables: the T x n complex phase table, one ket's T x n complex amplitudes and
        # T x n float probabilities, and the T x (n + 1) float output table. 256 n² bytes, sixteen
        # n x n complex matrices (H, V, the plane waves, the solver's storage, ...), cover the rest.
        # A T x n complex conjugate of the phase table, which only an expectation reads, does not fit.
        n, points = 64, 2001
        bound = points * n * (16 + 16 + 8) + points * (n + 1) * 8 + 256 * n * n
        document = {
            "system": _lattice_system(n),
            "initial": {"state": "momentum", "index": 1},
            "time": {"start": 0.0, "stop": 1.0, "points": points},
            "outputs": {"entropy": False, "populations": True},
        }
        spec = parse_scenario(json.dumps(document))
        assert _traced_peak(lambda: run_scenario(spec)) <= bound


COMPOSITE = {"kind": "composite", "delta_a": 1.3, "delta_b": -0.4, "g": 0.7}


def _composite_document(observables: list, system: dict = COMPOSITE, initial: dict | None = None) -> dict:
    return {
        "system": system,
        "initial": initial or {"state": "site", "index": 0},
        "time": {"start": -1.5, "stop": 6.0, "points": 61},
        "observables": observables,
    }


def _reduced_oracle(h, rho0, times) -> tuple:
    """(S_A and S_B at each time, the largest |off-diagonal| of rho_A and of rho_B over the grid):
    LAPACK's eigvalsh of the partial traces of rho(t) = U rho(0) U†, U from LAPACK's eigh of H."""
    w, v = np.linalg.eigh(h)
    entropies, coherence = [], np.zeros(2)
    for t in times:
        u = (v * np.exp(-1j * w * t)) @ v.conj().T
        rho = (u @ rho0 @ u.conj().T).reshape(2, 2, 2, 2)
        reduced = (np.einsum("ikjk->ij", rho), np.einsum("kikj->ij", rho))
        coherence = np.maximum(coherence, [abs(r[0, 1]) for r in reduced])
        entropies.append([spectrum_entropy(np.linalg.eigvalsh(r)) for r in reduced])
    return np.array(entropies), coherence


class TestSubsystemEntropies:
    def test_mixed_state_with_coherent_reduced_states_matches_oracle(self):
        # a document's mixture is diagonal in the site basis, where the composite H's sigma_z ⊗ sigma_z symmetry
        # keeps both reduced states diagonal; so a mixture of three random kets goes to the column directly
        spec = parse_scenario(json.dumps(_composite_document([])))
        h, times = resolve_scenario(spec).hamiltonian, time_grid(spec["time"])
        rng = np.random.default_rng(20261019)
        kets = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        weights = np.array([0.5, 0.3, 0.2])
        spectrum = hermitian_eig(h)
        mixture = list(zip(weights, kets @ spectrum.eigenvectors.conj()))  # (w_k, V† k)
        column = _subsystem_entropies(spectrum.eigenvectors, mixture, spectrum.phases(times), (2, 2))
        oracle, coherence = _reduced_oracle(h, np.einsum("k,ki,kj->ij", weights, kets, kets.conj()), times)
        assert coherence.min() > 0.05
        assert np.max(np.abs(column - oracle)) <= 1e-12

    def test_long_run_makes_no_per_point_solve(self, eig_calls):
        # a 2001-point run diagonalises H and rho(0)' alone; the 4002 reduced states are swept as stacks
        document = _composite_document([{"name": "subsystem_entropies"}])
        document["time"]["points"] = 2001
        spec = parse_scenario(json.dumps(document))
        eig_calls.clear()
        report = run_scenario(spec)
        assert report.columns == ("t", "entropy", "entropy_a", "entropy_b") and report.passed
        assert len(eig_calls) == 2 and all(h.shape == (4, 4) for h, _ in eig_calls)

    def test_blocks_match_lone_solves_bit_for_bit(self, monkeypatch):
        # blocks of 700 points: the grid's 2001 reduced states of each factor span three stacked solves
        monkeypatch.setattr(scenario, "ENTROPY_BLOCK_BYTES", 700 * 64)
        spec = parse_scenario(json.dumps(_composite_document([])))
        h, times = resolve_scenario(spec).hamiltonian, np.linspace(-1.5, 30.0, 2001)
        rng = np.random.default_rng(20261020)
        kets = rng.standard_normal((2, 4)) + 1j * rng.standard_normal((2, 4))
        kets /= np.linalg.norm(kets, axis=1)[:, None]
        spectrum = hermitian_eig(h)
        mixture = list(zip([0.7, 0.3], kets @ spectrum.eigenvectors.conj()))
        args = spectrum.eigenvectors, mixture, spectrum.phases(times), (2, 2)
        column = _subsystem_entropies(*args)
        lone = [[spectrum_entropy(hermitian_eig(r).eigenvalues) for r in s] for s in scenario._reduced_states(*args)]
        np.testing.assert_array_equal(column.view(np.uint64), np.array(lone).T.view(np.uint64))

    def test_product_state_without_coupling_stays_unentangled(self):
        rng = np.random.default_rng(20261019)
        a, b = (z / np.linalg.norm(z) for z in rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        initial = {"amplitudes": [[z.real, z.imag] for z in np.kron(a, b)]}
        document = _composite_document([{"name": "subsystem_entropies"}], dict(COMPOSITE, g=0.0), initial)
        report = run_scenario(parse_scenario(json.dumps(document)))
        assert np.max(np.abs(report.table[:, 2:4])) <= 1e-12 and report.columns[2:4] == ("entropy_a", "entropy_b")
        assert report.passed and [check.name for check in report.checks][1:] == ["subadditivity", "araki-lieb"]

    def test_fixture_matches_the_per_point_route(self):
        # rho(t) = U rho(0) U† evolved, traced and solved point by point, as verify's composite-entanglement does
        spec = load_scenario(SCENARIOS / "composite_entanglement.json")
        resolved = resolve_scenario(spec)
        spectrum = hermitian_eig(resolved.hamiltonian)
        expected = []
        for t in time_grid(spec["time"]):
            rho = evolve_density(resolved.initial_density, spectrum, float(t))
            expected.append([von_neumann_entropy(r) for r in (rho, *(partial_trace(rho, 2, 2, k) for k in "AB"))])
        report = run_scenario(spec)
        assert report.columns == ("t", "entropy", "entropy_a", "entropy_b") and report.passed
        assert np.max(np.abs(report.table[:, 1:] - expected)) <= 1e-12

    @pytest.mark.parametrize(
        "system",
        [
            {"kind": "spin-half", "delta": 1.0},
            {"kind": "lattice", "sites": 4, "length": 1.0, "mass": 1.0},
            {"kind": "explicit-matrices", "hamiltonian": [[1.0, 0.0], [0.0, 2.0]]},
        ],
    )
    def test_refused_by_a_kind_without_factors(self, system, tmp_path, capsys):
        message = "observables[1]: subsystem_entropies needs a composite system"
        document = _composite_document([{"name": "energy"}, {"name": "subsystem_entropies"}], system)
        with pytest.raises(ScenarioValidationError, match=f"^{re.escape(message)}$"):
            parse_scenario(json.dumps(document))
        assert _cli_exit(document, "evolve", tmp_path) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_matrix_labelled_entropy_a_is_a_repeated_column(self, tmp_path):
        matrix = {"name": "matrix", "matrix": np.eye(4).tolist(), "label": "entropy_a"}
        document = _composite_document([{"name": "subsystem_entropies"}, matrix])
        message = r"^observables\[1\]: column 'entropy_a' is already taken by observables\[0\]$"
        with pytest.raises(ScenarioValidationError, match=message):
            run_scenario(parse_scenario(json.dumps(document)))
        assert _cli_exit(document, "evolve", tmp_path) == 1

    def test_corrupted_reduced_state_fails_araki_lieb_naming_its_time(self, tmp_path, capsys, monkeypatch):
        reduced_states = scenario._reduced_states

        def corrupted(*args):
            """rho_A made maximally mixed at grid row 50, t = 5, while rho stays pure."""
            rho_a, rho_b = reduced_states(*args)
            rho_a[50] = np.eye(2) / 2.0
            return rho_a, rho_b

        monkeypatch.setattr(scenario, "_reduced_states", corrupted)
        summary = tmp_path / "summary.json"
        argv = ["evolve", str(SCENARIOS / "composite_entanglement.json"), "--out", os.devnull, "--summary", str(summary)]
        assert cli_main(argv) == 1
        checks = {check["name"]: check for check in json.loads(summary.read_text())["checks"]}
        assert [name for name, check in checks.items() if not check["passed"]] == ["araki-lieb"]
        assert checks["araki-lieb"]["worst"] == "t = 5" and checks["araki-lieb"]["residual"] > 0.4
        err = capsys.readouterr().err
        assert re.fullmatch(r"FAIL araki-lieb: residual=\S+ \(tolerance 1\.000e-09\) worst at t = 5\n", err)


class TestEveryColumnKind:
    def test_each_csv_column_matches_its_label_oracle(self):
        # one document with a block of every kind, each CSV column found by its header label and compared
        # with LAPACK's eigh route: rho(t) = U rho(0) U†, U = V exp(-i w t) V† for H = V diag(w) V†
        rng = np.random.default_rng(20261019)
        a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        m = (a + a.conj().T) / 2.0
        weights = np.array([0.4, 0.3, 0.2, 0.1])
        observables = [
            {"name": "energy"},
            {"name": "matrix", "matrix": [[[z.real, z.imag] for z in row] for row in m], "label": "m"},
            {"name": "site_populations"},
            {"name": "subsystem_entropies"},
        ]
        document = _composite_document(observables, initial={"probabilities": weights.tolist()})
        document["outputs"] = {"entropy": True, "populations": True, "transitions": {"source": 0, "targets": "all"}}
        spec = parse_scenario(json.dumps(document))
        report = run_scenario(spec)
        h, times = resolve_scenario(spec).hamiltonian, time_grid(spec["time"])
        w, v = np.linalg.eigh(h)
        expected = {label: [] for label in ("t", "entropy", "energy", "m", "entropy_a", "entropy_b")}
        expected.update({f"{prefix}{i}": [] for prefix in ("site_pop_", "pop_") for i in range(4)})
        expected.update({f"trans_0_to_{k}": [] for k in (1, 2, 3)})
        for t in times:
            u = (v * np.exp(-1j * w * t)) @ v.conj().T
            rho = u @ np.diag(weights) @ u.conj().T
            quartet = rho.reshape(2, 2, 2, 2)
            values = {
                "t": t,
                "entropy": spectrum_entropy(np.linalg.eigvalsh(rho)),
                "energy": np.trace(h @ rho).real,
                "m": np.trace(m @ rho).real,
                "entropy_a": spectrum_entropy(np.linalg.eigvalsh(np.einsum("ikjk->ij", quartet))),
                "entropy_b": spectrum_entropy(np.linalg.eigvalsh(np.einsum("kikj->ij", quartet))),
                **{f"{prefix}{i}": rho[i, i].real for prefix in ("site_pop_", "pop_") for i in range(4)},
                **{f"trans_0_to_{k}": abs(u[k, 0]) ** 2 for k in (1, 2, 3)},
            }
            for label, value in values.items():
                expected[label].append(value)
        lines = _csv(report).splitlines()
        header = lines[1].split(",")
        table = np.array([[float(cell) for cell in line.split(",")] for line in lines[2:]])
        assert sorted(header) == sorted(expected) and len(table) == times.size
        for label, column in expected.items():
            assert np.max(np.abs(table[:, header.index(label)] - column)) <= 1e-12, label
        assert [check.name for check in report.checks] == ["entropy-constancy", "subadditivity", "araki-lieb"]
        assert report.passed


def _spin_report(points: int) -> EvolutionReport:
    document = json.loads(RABI_DOC)
    document["time"]["points"] = points
    document["observables"] = [{"name": "sigma_x"}, {"name": "sigma_z"}]
    document["outputs"].update(entropy=False, expectations=True)
    return run_scenario(parse_scenario(json.dumps(document)))


class TestCsvStreaming:
    def test_large_report_streams_to_file(self, tmp_path):
        report = _spin_report(10**5)
        path = tmp_path / "series.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            peak = _traced_peak(lambda: report.to_csv(handle))
        assert path.stat().st_size > 5 * 2**20
        assert peak < 2 * 2**20

    def test_file_and_string_outputs_agree(self, tmp_path):
        report = _spin_report(17)
        path = tmp_path / "series.csv"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            report.to_csv(handle)
        assert path.read_text(encoding="utf-8") == _csv(report)

    def test_wide_table_working_set_does_not_grow_with_rows(self):
        # a 64-site lattice's 193 columns: the traced peak is one block's, whatever the row count
        rng = np.random.default_rng(193)
        table = rng.random((2001, 193)) ** 3
        columns = [f"c{i}" for i in range(193)]
        write_csv(_Discard(), "evolution", columns, table[:1])  # builds the cached pattern tables
        peaks = [_traced_peak(lambda: write_csv(_Discard(), "evolution", columns, table[:rows])) for rows in (201, 2001)]
        assert abs(peaks[1] - peaks[0]) <= CSV_BLOCK_CELLS * table.itemsize


# floats whose %.15g text is easy to get wrong: signed zeros, the subnormal and float64 extremes,
# both sides of the g style's exponent switch points and integral values
CSV_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
    1e-5, 9.999999999999999e-06, 1.0000000000000001e-05, 1e-4,
    1e15, 999999999999999.0, 999999999999999.9, 1e16, 9999999999999998.0, 1.0000000000000002e16,
    1.0, -3.0, 2.0**53, 123456789012345.0, -1234567890123456.0, 0.1, 1 / 3,
    # the edges of the exact digit kernel's domain, 1e-8 <= |x| < 1e15, and its carries to 16 digits
    1e-8, 9.999999999999999e-09, 1.0000000000000001e-08, 999999999999999.875, 1000000000000000.125,
    999999999999999.5, 9.9999999999999995e-05,
]


def _adversarial_cells(rng) -> np.ndarray:
    """Floats whose 15-digit text is easy to get wrong, both signs of each: exact decimal ties, powers
    of ten with 64 neighbours on each side (where log10 is off by one), subnormals, NaN, infinities."""
    m = rng.integers(10**14, 10**15, 10**4)
    ties = [m + 0.5, (m + 0.5) * 2.0 ** -rng.integers(1, 60, m.size)]
    for j in range(1, 23):
        # odd k / 2**j with 16 significant digits: its 16th digit is a 5, an exact tie at 15
        k = rng.integers(-(-(10**15) // 5**j), 10**16 // 5**j, 2000) | 1
        ties.append(k / 2.0**j)
    powers = np.array([float(f"1e{p}") for p in range(-10, 17)])
    neighbours = (powers.view(np.int64)[:, None] + np.arange(-64, 65)).view(np.float64).ravel()
    subnormals = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
    specials = np.array([0.0, np.nan, np.inf, 5e-324, 2.2250738585072014e-308, *CSV_EDGE_VALUES])
    cells = np.concatenate([*ties, neighbours, subnormals, specials])
    return np.concatenate([cells, -cells])


def _value_by_value(kind: str, columns, table: np.ndarray) -> str:
    """The CSV text with every value formatted by "{:.15g}".format on its own: write_csv's reference."""
    rows = "".join(",".join(map("{:.15g}".format, row)) + "\n" for row in table.tolist())
    return f"# entrodyn {__version__} {kind}\n{','.join(columns)}\n" + rows


def _mismatched_cells(table: np.ndarray, handle=None) -> list:
    """(value, write_csv's text, "{:.15g}".format's text) for up to 5 cells where the two differ,
    or a line count that differs; [] when write_csv's whole text is the value-by-value text."""
    handle = io.StringIO() if handle is None else handle
    columns = [f"c{i}" for i in range(table.shape[1])]
    write_csv(handle, "evolution", columns, table)
    text, expected = handle.getvalue(), _value_by_value("evolution", columns, table)
    if text == expected:
        return []
    lines = text.splitlines()[2:]
    if len(lines) != len(table):
        return [("lines", len(lines), len(table))]
    cells = [cell for line in lines for cell in line.split(",")]
    values = table.ravel().tolist()
    return [(x, cell, f"{x:.15g}") for x, cell in zip(values, cells) if cell != f"{x:.15g}"][:5] or ["bytes"]


class _Discard:
    """A text handle that keeps nothing."""

    def write(self, text):
        return len(text)


class _RecordingHandle(io.StringIO):
    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return super().write(text)


class TestCsvFormatting:
    @pytest.mark.parametrize("rows", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("width", [1, 3, 16, 64, 193])
    def test_bytes_equal_value_by_value_formatting(self, rows, width):
        rng = np.random.default_rng(1000 * rows + width)
        table = np.empty((rows, width))
        cells = table.reshape(-1)
        cells[0::3] = np.resize(CSV_EDGE_VALUES, cells[0::3].size)
        cells[1::3] = rng.standard_normal(cells[1::3].size) * 10.0 ** rng.integers(-7, 18, cells[1::3].size)
        # random bit patterns: every exponent, subnormals, infinities and NaNs
        cells[2::3] = rng.integers(0, 2**64, cells[2::3].size, dtype=np.uint64).view(np.float64)
        handle = _RecordingHandle()
        assert _mismatched_cells(table, handle) == []
        lines_per_write = [block.count("\n") for block in handle.writes[1:]]
        block = CSV_BLOCK_CELLS // width  # 64 rows at width 64
        assert lines_per_write == [min(block, rows - start) for start in range(0, rows, block)]

    def test_adversarial_cells_equal_value_by_value_formatting(self):
        cells = _adversarial_cells(np.random.default_rng(15))
        table = np.resize(cells, (-(-cells.size // 97), 97))
        assert _mismatched_cells(table) == []

    @pytest.mark.filterwarnings("error")
    @given(
        table=st.tuples(st.integers(0, 70), st.integers(1, 300)).flatmap(
            lambda shape: st.one_of(
                arrays(np.float64, shape, elements=st.floats()),
                arrays(np.uint64, shape, elements=st.integers(0, 2**64 - 1)).map(lambda bits: bits.view(np.float64)),
            )
        )
    )
    def test_any_table_equals_value_by_value_formatting(self, table):
        rows, width = table.shape
        handle = _RecordingHandle()
        assert _mismatched_cells(table, handle) == []
        block = max(1, CSV_BLOCK_CELLS // width)
        assert [text.count("\n") for text in handle.writes[1:]] == [
            min(block, rows - start) for start in range(0, rows, block)
        ]

    def test_empty_table_writes_the_header_only(self):
        handle = io.StringIO()
        write_csv(handle, "rabi", ("t", "pop_alpha", "pop_beta"), np.empty((0, 3)))
        assert handle.getvalue() == f"# entrodyn {__version__} rabi\nt,pop_alpha,pop_beta\n"


class TestCsvSlots:
    def test_every_slot_equals_value_by_value_formatting(self):
        """One value for each slot: sign, exponent -8 to 14 (or a zero), significant digits 1 to 15,
        and (each value in both columns) last column or not. Every value's slot is its own, and
        each cell reads as '%.15g' writes it."""
        rng = np.random.default_rng(2 * 24 * 15 * 2)
        values = []
        for e in range(-8, 15):
            for digits in range(1, 16):
                inner = "".join(map(str, rng.integers(0, 10, max(digits - 2, 0))))
                last = str(rng.integers(1, 10)) if digits > 1 else ""
                values.append(float(f"{rng.integers(1, 10)}.{inner}{last}e{e}"))
        values += [0.0]
        table = np.repeat(np.concatenate([values, np.negative(values)])[:, None], 2, axis=1)
        slots, _ = csvtext._slots(table)
        assert len(set(slots.tolist())) == slots.size == 2 * (23 * 15 + 1) * 2
        assert slots.max() < 2 * 24 * 15 * 2  # no cell is written by '%.15g' itself
        assert _mismatched_cells(table) == []

    @pytest.mark.parametrize("shape", [(6, 6), (36, 1), (1, 36), (3, 12)])
    def test_block_of_fallback_cells_only(self, shape):
        cells = [np.nan, np.inf, -np.inf, 5e-324, 1e300, -1e-9]
        table = np.array([np.roll(cells, shift) for shift in range(6)]).reshape(shape)
        assert _mismatched_cells(table) == []

    def test_fallback_cells_in_first_and_last_columns(self):
        rng = np.random.default_rng(5)
        table = rng.standard_normal((8, 5))
        table[:, 0] = [np.nan, -np.inf, 5e-324, -1.23456789012345e-300, 1e300, -1e-9, 1e15, -0.0]
        table[:, -1] = table[::-1, 0]
        assert _mismatched_cells(table) == []
        assert _mismatched_cells(table[:, :1]) == []


def _with_integer(document: dict, digits: int) -> str:
    """The document as JSON text with the string "HUGE" replaced by an integer of ``digits`` digits."""
    return json.dumps(document).replace('"HUGE"', "9" * digits)


def _spin(**system) -> dict:
    document = json.loads(SPIN_DOC)
    document["system"].update(system)
    return document


def _explicit(hamiltonian, **extra) -> dict:
    document = {
        "system": {"kind": "explicit-matrices", "hamiltonian": hamiltonian},
        "initial": {"state": "site", "index": 0},
        "time": {"start": 0.0, "stop": 1.0, "points": 2},
    }
    document.update(extra)
    return document


OVERSIZED = [
    (_spin(delta="HUGE"), "system.delta"),
    (_spin(omega="HUGE"), "system.omega"),
    (_explicit([[1.0, "HUGE"], ["HUGE", 0.0]]), "system.hamiltonian[0][1]"),
    (_explicit([[["HUGE", 0.0], 0.0], [0.0, 1.0]]), "system.hamiltonian[0][0][0]"),
    (_explicit([[1.0, 0.0], [0.0, 1.0]], initial={"amplitudes": ["HUGE", 0.0]}), "initial.amplitudes[0]"),
    (_explicit([[1.0, 0.0], [0.0, 1.0]], initial={"probabilities": [1.0, "HUGE"]}), "initial.probabilities[1]"),
    (
        _explicit([[1.0, 0.0], [0.0, 1.0]], observables=[{"name": "matrix", "matrix": [[0.0, 0.0], [0.0, "HUGE"]]}]),
        "observables[0].matrix[1][1]",
    ),
    (_explicit([[1.0, 0.0], [0.0, 1.0]], time={"start": 0.0, "stop": "HUGE", "points": 2}), "time.stop"),
]


class TestOversizedNumbers:
    @pytest.mark.parametrize("digits", [401, 5001])
    @pytest.mark.parametrize(("document", "path"), OVERSIZED)
    def test_rejected_with_field_path(self, document, path, digits, tmp_path):
        text = _with_integer(document, digits)
        with pytest.raises(ScenarioParseError, match=rf"^{re.escape(path)}: .*{digits} digits"):
            parse_scenario(text)
        (tmp_path / "scenario.json").write_text(text)
        assert cli_main(["evolve", str(tmp_path / "scenario.json"), "--out", str(tmp_path / "out.csv")]) == 2

    def test_integer_fields_reject_unconvertible_integers(self):
        document = {
            "system": {"kind": "lattice", "sites": "HUGE", "length": 1.0, "mass": 1.0},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        with pytest.raises(ScenarioParseError, match=r"^system.sites: expected an integer, got an integer of 5001"):
            parse_scenario(_with_integer(document, 5001))
        # 401 digits still convert, so the dimension bound names them as before
        with pytest.raises(ScenarioValidationError, match="^system.sites: .*MAX_DIMENSION"):
            parse_scenario(_with_integer(document, 401))


# Spin-half splitting 1e308 over [0, 1e10]: w t overflows, so exp(-i w t) is nan.
OVERFLOW_DOC = {
    "system": {"kind": "spin-half", "delta": 1e308, "omega": 0.0},
    "initial": {"state": "alpha"},
    "time": {"start": 0.0, "stop": 1e10, "points": 5},
    "observables": [{"name": "sigma_z"}],
    "outputs": {"entropy": False, "populations": True, "transitions": {"source": 0, "targets": [1]}},
}


class TestNonFiniteColumns:
    # w t overflows at the second grid time, so exp(-i H t) is undefined there whatever the columns
    UNDEFINED_TIME = r"time: w t is not finite at t = 2500000000\.0 \(largest \|w\| = 5\.000e\+307\); "

    @pytest.mark.parametrize(
        ("runner", "command", "outputs"),
        [
            (run_scenario, "evolve", OVERFLOW_DOC["outputs"]),
            (run_scenario, "evolve", dict(OVERFLOW_DOC["outputs"], entropy=True)),
            (run_perturbation, "perturb", OVERFLOW_DOC["outputs"]),
            (run_scenario, "evolve", {"entropy": False, "expectations": False}),  # no column besides t
        ],
        ids=["evolve", "evolve-entropy", "perturb", "evolve-t-only"],
    )
    def test_undefined_time_is_named_by_time(self, runner, command, outputs, capsys, tmp_path):
        document = dict(OVERFLOW_DOC, outputs=outputs)
        with pytest.raises(ScenarioValidationError, match=f"^{self.UNDEFINED_TIME}"):
            runner(parse_scenario(json.dumps(document)))
        path, out, summary = tmp_path / "scenario.json", tmp_path / "out.csv", tmp_path / "summary.json"
        path.write_text(json.dumps(document))
        assert cli_main([command, str(path), "--out", str(out), "--summary", str(summary)]) == 1
        assert re.fullmatch(f"error: {self.UNDEFINED_TIME}[^\n]*\n", capsys.readouterr().err)
        assert not out.exists() and not summary.exists()

    def test_overflowing_expectation_names_its_column_without_a_warning(self, capsys, tmp_path):
        document = {
            "system": {"kind": "spin-half", "delta": 0.0, "omega": 1.0},
            "initial": {"amplitudes": [2**-0.5, 2**-0.5]},
            "time": {"start": 0.0, "stop": 1.0, "points": 3},
            "observables": [{"name": "matrix", "label": "big", "matrix": [[1e308, 1e308], [1e308, 1e308]]}],
            "outputs": {"entropy": False},
        }
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(document))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli_main(["evolve", str(path)])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert captured.err == "error: observables[0]: column 'big' is not finite at t = 0\n"

    def test_finite_large_splitting_still_runs(self):
        document = dict(OVERFLOW_DOC, time={"start": 0.0, "stop": 1.0, "points": 5})
        report = run_scenario(parse_scenario(json.dumps(document)))
        assert np.isfinite(report.table).all()


_LEFT_OUT = object()  # a section or field that a near document leaves out


def _documents_of_any_kind(near=False):
    """Valid scenario documents of every system kind, with every section filled in. With `near`, each
    section is, with probability 1/2, that of a valid document (so that some reach resolution and run),
    and otherwise left out, any JSON value, or near: each of its fields is kept, left out, or drawn from
    its near strategy or any JSON value; fields of the right names it lacks may join it, and near
    observables follow the valid ones. Every choice is drawn before what it chooses, so no draw is lost
    to a later choice and few draws give one document twice."""
    finite = st.floats(min_value=-1e3, max_value=1e3, allow_nan=False)
    positive = st.floats(min_value=1e-3, max_value=1e3)
    value = _any_json()
    number = st.one_of(st.integers(-2, 8), st.floats(), st.integers(10**300, 10**420))
    near_matrix = st.lists(st.lists(number | st.lists(number, min_size=2, max_size=2), max_size=3), max_size=3)

    def near_section(**fields):
        return st.fixed_dictionaries({}, optional={name: strategy | value for name, strategy in fields.items()})

    kinds = ["spin-half", "lattice", "composite", "explicit-matrices"]
    near_system = {
        "spin-half": {"delta": number, "omega": number},
        "lattice": {"sites": st.integers(-1, 6), "length": number, "mass": number},
        "composite": {"delta_a": number, "delta_b": number, "g": number},
        "explicit-matrices": {"hamiltonian": near_matrix},
    }
    near_initial = {
        "state": st.sampled_from(["alpha", "beta", "site", "momentum", "gamma"]),
        "index": st.integers(-1, 6),
        "amplitudes": st.lists(number, max_size=4),
        "probabilities": st.lists(number, max_size=4),
    }
    near_time = {"start": number, "stop": number, "points": st.integers(-1, 20)}
    near_observable = near_section(
        name=st.sampled_from(["sigma_x", "energy", "site_populations", "momentum_populations", "matrix", "spin"]),
        matrix=near_matrix,
        label=st.text(max_size=4),
    )
    near_outputs = {
        "entropy": st.booleans(),
        "expectations": st.booleans(),
        "populations": st.booleans(),
        "transitions": near_section(
            source=st.integers(-1, 6), targets=st.just("all") | st.lists(st.integers(-1, 6), max_size=3)
        ),
    }

    @st.composite
    def hermitian(draw, n):
        rows = [[0.0] * n for _ in range(n)]
        for i in range(n):
            rows[i][i] = draw(finite)
            for j in range(i + 1, n):
                re, im = draw(finite), draw(finite)
                rows[i][j], rows[j][i] = [re, im], [re, -im]
        return rows

    @st.composite
    def document(draw):
        def change():
            return "valid" if not near or draw(st.booleans()) else draw(st.sampled_from(["near", "value", "gone"]))

        def section(fields, near_fields):
            """The section whose valid fields (name -> strategy) `fields()` draws, or a change of it."""
            how = change()
            if how == "valid":
                return {name: draw(field) for name, field in fields().items()}
            if how != "near":
                return draw(value) if how == "value" else _LEFT_OUT
            valid = fields()
            drawn = {
                name: draw(st.one_of(field, near_fields[name], value, st.just(_LEFT_OUT))) for name, field in valid.items()
            }
            drawn.update(draw(near_section(**{name: field for name, field in near_fields.items() if name not in valid})))
            return {name: field for name, field in drawn.items() if field is not _LEFT_OUT}

        kind = draw(st.sampled_from(kinds))
        if kind == "spin-half":
            system, dim = {"delta": finite, "omega": finite}, 2
        elif kind == "lattice":
            dim = draw(st.integers(2, 6))
            system = {"sites": st.just(dim), "length": positive, "mass": positive}
        elif kind == "composite":
            system, dim = {"delta_a": finite, "delta_b": finite, "g": finite}, 4
        else:
            dim = draw(st.integers(1, 4))
            system = {"hamiltonian": hermitian(dim)}

        def initial():
            states = ["site"] + ["momentum"] * (kind == "lattice")
            return draw(
                st.sampled_from(
                    [
                        {"state": st.sampled_from(states), "index": st.integers(0, dim - 1)},
                        {"probabilities": st.just([1.0 / dim] * dim)},
                        {"amplitudes": st.just([[0.0, 1.0]] + [0.0] * (dim - 1))},
                    ]
                )
            )

        def time():
            start = draw(finite)
            stop = positive.map(lambda span: start + span)
            return {"start": st.just(start), "stop": stop, "points": st.integers(1, 20)}

        def outputs():
            fields = {key: st.booleans() for key in ("entropy", "expectations", "populations")}
            if draw(st.booleans()):
                targets = st.one_of(st.just("all"), st.sets(st.integers(0, dim - 1), min_size=1).map(sorted))
                fields["transitions"] = st.fixed_dictionaries({"source": st.integers(0, dim - 1), "targets": targets})
            return fields

        def observables():
            how = change()
            if how not in ("valid", "near"):
                return draw(value) if how == "value" else _LEFT_OUT
            names = ["energy", "site_populations"] + ["momentum_populations"] * (kind == "lattice")
            names += ["sigma_x", "sigma_y", "sigma_z"] * (dim == 2) + ["subsystem_entropies"] * (kind == "composite")
            listed = draw(st.lists(st.sampled_from(names).map(lambda name: {"name": name}), max_size=3))
            if draw(st.booleans()):
                listed.append({"name": "matrix", "matrix": draw(hermitian(dim)), "label": "x"})
            return listed + draw(st.lists(near_observable | value, max_size=3)) if how == "near" else listed

        mixed = {
            "system": section(lambda: {"kind": st.just(kind), **system}, {"kind": st.just(kind), **near_system[kind]}),
            "initial": section(initial, near_initial),
            "time": section(time, near_time),
            "observables": observables(),
            "outputs": section(outputs, near_outputs),
        }
        return {key: part for key, part in mixed.items() if part is not _LEFT_OUT}

    return document()


def _any_json():
    scalars = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 10),
        st.integers(10**300, 10**420),
        st.floats(),
        st.text(max_size=6),
    )
    return st.recursive(
        scalars,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=6), children, max_size=3),
        max_leaves=12,
    )


def _real(value):
    """float(value) for a JSON number that is finite as a float, else None."""
    try:
        return float(value) if type(value) in (int, float) and math.isfinite(value) else None
    except OverflowError:  # an integer beyond the float range
        return None


def _reference_entry(entry):
    """A complex entry's normal form, re when im is 0 and [re, im] otherwise; None where it must be refused."""
    if type(entry) is not list:
        return _real(entry)
    re, im = (_real(part) for part in entry) if len(entry) == 2 else (None, None)
    return None if re is None or im is None else re if im == 0.0 else [re, im]


def _json_trees():
    """Trees of str-keyed dicts, lists and tuples over every kind of leaf json.dumps writes."""
    leaves = st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([2**64, -(2**64) - 1, 2**64 + 1, 10**400, -(10**400)]),
        st.floats(),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1.7976931348623157e308]),
        st.text(max_size=6),
        st.sampled_from(["\x00\x1f\x7f", '"\\/\b\f\n\r\t', "é ✓ \u2028 𝄞", "\ud800"]),
    )
    return st.recursive(
        leaves,
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.lists(children, max_size=3).map(tuple),
            st.dictionaries(st.text(max_size=5), children, max_size=4),
        ),
        max_leaves=30,
    )


def _number_rows():
    """Trees of number arrays of 1 to 40 entries, as a matrix row or a probability vector is: finite
    floats and [re, im] pairs of them, or those mixed with entries that are not, nested in dicts and lists."""
    finite = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
        [-0.0, 5e-324, 1e16, 1e-7, 1.7976931348623157e308, -1.7976931348623157e308]
    )
    pair = st.lists(finite, min_size=2, max_size=2)
    other = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0, -3, 2**64, True, False, None]),
        st.lists(finite | st.sampled_from([math.nan, math.inf, 1]), min_size=2, max_size=2),
        st.lists(finite, min_size=1, max_size=1),
        st.lists(finite, min_size=3, max_size=3),
        st.tuples(finite, finite),
    )
    numbers = st.lists(finite | pair, min_size=1, max_size=40)
    mixed = st.lists(finite | pair | other, min_size=1, max_size=40)
    rows = st.one_of(numbers, numbers.map(tuple), mixed)
    return st.recursive(
        rows,
        lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=3), children, max_size=3),
        max_leaves=6,
    )


def _dense_document() -> dict:
    """An explicit-matrices document of the `dense_entropy` benchmark workload's shape: a 32 x 32 GUE H,
    two 32 x 32 matrix observables and a probabilities mixture, every entry an [re, im] pair."""
    h, rho0 = _mixture(32, seed=20261019)
    rng = np.random.default_rng(20261019)

    def entries(m):
        return [[[float(z.real), float(z.imag)] for z in row] for row in m]

    def gue():
        a = rng.standard_normal((32, 32)) + 1j * rng.standard_normal((32, 32))
        return (a + a.conj().T) / 2.0

    return {
        "system": {"kind": "explicit-matrices", "hamiltonian": entries(h)},
        "initial": {"probabilities": np.diag(rho0).real.tolist()},
        "time": {"start": 0.0, "stop": 0.025, "points": 2},
        "observables": [
            {"name": "energy"},
            {"name": "matrix", "label": "obs_a", "matrix": entries(gue())},
            {"name": "matrix", "label": "obs_b", "matrix": entries(gue())},
        ],
        "outputs": {"entropy": True, "expectations": True, "populations": False},
    }


class TestJsonText:
    @settings(max_examples=400)
    @given(_json_trees())
    def test_text_is_that_of_the_indented_encoder(self, tree):
        assert scenario._json_text(tree) + "\n" == json.dumps(tree, indent=2, sort_keys=True) + "\n"

    @settings(max_examples=400)
    @given(_number_rows())
    def test_number_rows_are_written_as_the_indented_encoder_writes_them(self, tree):
        assert scenario._json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_dense_document_echo_is_that_of_the_indented_encoder(self):
        spec = parse_scenario(json.dumps(_dense_document()))
        report = run_scenario(spec)
        assert report.summary_json() == json.dumps(report.summary(), indent=2, sort_keys=True) + "\n"
        assert serialize_scenario(spec) == json.dumps(spec, indent=2, sort_keys=True) + "\n"


class TestParserProperties:
    @settings(max_examples=300)
    @given(
        st.one_of(
            _any_json(),
            st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.floats(), min_size=2, max_size=2),
        )
    )
    def test_matrix_entry_is_read_or_refused_by_its_path(self, entry):
        document = {
            "system": {"kind": "explicit-matrices", "hamiltonian": [[entry]]},
            "initial": {"state": "site", "index": 0},
            "time": {"start": 0.0, "stop": 1.0, "points": 2},
        }
        expected = _reference_entry(entry)
        try:
            spec = parse_scenario(json.dumps(document))
        except ScenarioParseError as exc:
            assert expected is None and str(exc).startswith("system.hamiltonian[0][0]")
        except ScenarioValidationError as exc:
            # a 1 x 1 H whose one entry has an imaginary part is not Hermitian
            assert type(expected) is list and str(exc).startswith("system.hamiltonian is not Hermitian")
        else:
            assert json.dumps(spec["system"]["hamiltonian"]) == json.dumps([[expected]])

    def test_near_documents_reach_resolution(self):
        outcomes = []

        @settings(max_examples=100, derandomize=True, database=None)
        @given(_documents_of_any_kind(near=True))
        def parse(document):
            try:
                parse_scenario(json.dumps(document))
            except (ScenarioParseError, ScenarioValidationError):
                outcomes.append(False)
            else:
                outcomes.append(True)

        parse()
        assert 0 < sum(outcomes) < len(outcomes)

    def test_near_documents_are_distinct(self):
        # a fixed seed rather than derandomize, whose seed follows this test's source text
        drawn = []

        @seed(0)
        @settings(max_examples=400, database=None)
        @given(_documents_of_any_kind(near=True))
        def draw(document):
            drawn.append(json.dumps(document, sort_keys=True))

        draw()
        assert len(drawn) == 400 and len(set(drawn)) >= 380

    @settings(max_examples=400)
    @given(st.one_of(_any_json(), _documents_of_any_kind(near=True)))
    def test_any_json_parses_or_raises_a_scenario_error(self, document):
        try:
            spec = parse_scenario(json.dumps(document))
        except (ScenarioParseError, ScenarioValidationError):
            return
        assert isinstance(spec, dict)

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(_documents_of_any_kind(near=True), _documents_of_any_kind()))
    def test_evolve_exits_with_one_error_line(self, document):
        # the whole command: an exit code of 0, 1 or 2, and a failure is one line, never a traceback or a warning
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "scenario.json"
            path.write_text(json.dumps(document))
            with warnings.catch_warnings(), contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                warnings.simplefilter("error", RuntimeWarning)
                code = cli_main(["evolve", str(path)])
        err = stderr.getvalue()
        assert code in (0, 1, 2)
        if code:
            assert err.startswith(("error: ", "FAIL ")) and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert err == ""

    @settings(max_examples=100)
    @given(_documents_of_any_kind())
    def test_round_trip_of_every_kind(self, document):
        spec = parse_scenario(json.dumps(document))
        assert parse_scenario(serialize_scenario(spec)) == spec
