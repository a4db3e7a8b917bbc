"""Scenario documents, evolution runs, and report emission.

A scenario is a JSON document of nested key/value sections. Complex scalars
are written as two-element [re, im] arrays (plain numbers are accepted where
the value is real) and matrices as row-major nested arrays. Structural
problems raise ScenarioParseError; documents that parse but violate a
mathematical invariant (non-Hermitian Hamiltonian, probabilities that do not
sum to one, ...) raise ScenarioValidationError naming the invariant.

Reports are deterministic: the same document and package version produce
byte-identical CSV and summary output.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import __version__
from .dynamics import EXPECTATION_IMAG_ATOL
from .ensembles import (
    as_probability_vector,
    as_pure_state,
    pure_density,
    spectrum_entropy,
)
from .errors import DomainError, NumericalError, ShapeError
from .linalg import hermitian_eig, require_hermitian
from .systems import (
    LatticeFreeParticle,
    SpinHalfSystem,
    composite_hamiltonian,
    coupled_spin_pair,
    lattice_hamiltonian,
    lattice_momentum_basis,
    pauli,
    spin_hamiltonian,
)

ENTROPY_CONSTANCY_TOL = 1e-9
MAX_TIME_POINTS = 10**6
MAX_DIMENSION = 128
# Cap on time points x (CSV columns + dimension): the output table and the
# T x n phase table of a run together hold about that many numbers.
MAX_GRID_CELLS = 2**24
CSV_DIGITS = 15

SYSTEM_KINDS = ("spin-half", "lattice", "composite", "explicit-matrices")
NAMED_OBSERVABLES = ("sigma_x", "sigma_y", "sigma_z", "energy", "site_populations", "momentum_populations")


class ScenarioParseError(ValueError):
    """The document is structurally malformed."""


class ScenarioValidationError(ValueError):
    """The document parsed but violates a mathematical invariant."""


# ---------------------------------------------------------------------------
# Spec dataclasses (plain values only, so equality and round-trips are exact)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemSpec:
    kind: str
    delta: float | None = None
    omega: float | None = None
    sites: int | None = None
    length: float | None = None
    mass: float | None = None
    delta_a: float | None = None
    delta_b: float | None = None
    g: float | None = None
    hamiltonian: tuple | None = None


@dataclass(frozen=True)
class InitialSpec:
    kind: str  # "named" | "amplitudes" | "probabilities"
    state: str | None = None
    index: int | None = None
    amplitudes: tuple | None = None
    probabilities: tuple | None = None


@dataclass(frozen=True)
class TimeGridSpec:
    start: float
    stop: float
    points: int

    def values(self) -> np.ndarray:
        if self.points == 1:
            return np.array([self.start])
        return np.linspace(self.start, self.stop, self.points)


@dataclass(frozen=True)
class ObservableSpec:
    name: str
    matrix: tuple | None = None
    label: str | None = None


@dataclass(frozen=True)
class TransitionsSpec:
    source: int
    targets: tuple | str = "all"


@dataclass(frozen=True)
class OutputsSpec:
    entropy: bool = True
    expectations: bool = True
    populations: bool = False
    transitions: TransitionsSpec | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    system: SystemSpec
    initial: InitialSpec
    time: TimeGridSpec
    observables: tuple = ()
    outputs: OutputsSpec = field(default_factory=OutputsSpec)


# ---------------------------------------------------------------------------
# Document reading helpers
# ---------------------------------------------------------------------------


def _as_mapping(node, path, allowed):
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    return node


def _number(node, path) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioParseError(f"{path}: expected a number, got {node!r}")
    if not math.isfinite(node):
        raise ScenarioParseError(f"{path}: expected a finite number, got {node!r}")
    return float(node)


def _integer(node, path) -> int:
    if isinstance(node, bool) or not isinstance(node, int):
        raise ScenarioParseError(f"{path}: expected an integer, got {node!r}")
    return int(node)


def _boolean(node, path) -> bool:
    if not isinstance(node, bool):
        raise ScenarioParseError(f"{path}: expected true/false, got {node!r}")
    return node


def _string(node, path) -> str:
    if not isinstance(node, str):
        raise ScenarioParseError(f"{path}: expected a string, got {node!r}")
    return node


def _complex_scalar(node, path) -> complex:
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return complex(float(node), 0.0)
    if isinstance(node, list) and len(node) == 2:
        return complex(_number(node[0], f"{path}[0]"), _number(node[1], f"{path}[1]"))
    raise ScenarioParseError(f"{path}: expected a number or [re, im] pair, got {node!r}")


def _complex_vector(node, path) -> tuple:
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected a nonempty array")
    return tuple(_complex_scalar(entry, f"{path}[{i}]") for i, entry in enumerate(node))


def _complex_matrix(node, path) -> tuple:
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected a nonempty array of rows")
    rows = []
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ScenarioParseError(f"{path}[{i}]: expected an array row")
        rows.append(_complex_vector(row, f"{path}[{i}]"))
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ScenarioParseError(f"{path}: rows have unequal lengths")
    return tuple(rows)


def _require(mapping, key, path):
    if key not in mapping:
        raise ScenarioParseError(f"{path}: missing required field '{key}'")
    return mapping[key]


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_system(node) -> SystemSpec:
    allowed = {
        "spin-half": ("kind", "delta", "omega"),
        "lattice": ("kind", "sites", "length", "mass"),
        "composite": ("kind", "delta_a", "delta_b", "g"),
        "explicit-matrices": ("kind", "hamiltonian"),
    }
    if not isinstance(node, dict):
        raise ScenarioParseError(f"system: expected a mapping, got {type(node).__name__}")
    kind = _string(_require(node, "kind", "system"), "system.kind")
    if kind not in SYSTEM_KINDS:
        raise ScenarioParseError(f"system.kind: unknown kind {kind!r}; expected one of {SYSTEM_KINDS}")
    node = _as_mapping(node, "system", allowed[kind])
    if kind == "spin-half":
        return SystemSpec(
            kind=kind,
            delta=_number(_require(node, "delta", "system"), "system.delta"),
            omega=_number(node.get("omega", 0.0), "system.omega"),
        )
    if kind == "lattice":
        return SystemSpec(
            kind=kind,
            sites=_integer(_require(node, "sites", "system"), "system.sites"),
            length=_number(_require(node, "length", "system"), "system.length"),
            mass=_number(_require(node, "mass", "system"), "system.mass"),
        )
    if kind == "composite":
        return SystemSpec(
            kind=kind,
            delta_a=_number(_require(node, "delta_a", "system"), "system.delta_a"),
            delta_b=_number(_require(node, "delta_b", "system"), "system.delta_b"),
            g=_number(node.get("g", 0.0), "system.g"),
        )
    return SystemSpec(
        kind=kind,
        hamiltonian=_complex_matrix(_require(node, "hamiltonian", "system"), "system.hamiltonian"),
    )


def _parse_initial(node) -> InitialSpec:
    node = _as_mapping(node, "initial", ("state", "index", "amplitudes", "probabilities"))
    given = [k for k in ("state", "amplitudes", "probabilities") if k in node]
    if len(given) != 1:
        raise ScenarioParseError(
            "initial: give exactly one of 'state', 'amplitudes', 'probabilities'"
        )
    if "state" in node:
        state = _string(node["state"], "initial.state")
        index = _integer(node["index"], "initial.index") if "index" in node else None
        if state not in ("alpha", "beta", "site", "momentum"):
            raise ScenarioParseError(
                f"initial.state: unknown named state {state!r}; "
                "expected alpha, beta, site, or momentum"
            )
        if state in ("site", "momentum") and index is None:
            raise ScenarioParseError(f"initial: named state {state!r} requires an 'index'")
        if state in ("alpha", "beta") and index is not None:
            raise ScenarioParseError(f"initial.index: meaningless for named state {state!r}")
        return InitialSpec(kind="named", state=state, index=index)
    if "index" in node:
        raise ScenarioParseError("initial.index: only valid together with a named 'state'")
    if "amplitudes" in node:
        return InitialSpec(kind="amplitudes", amplitudes=_complex_vector(node["amplitudes"], "initial.amplitudes"))
    probs = node["probabilities"]
    if not isinstance(probs, list) or not probs:
        raise ScenarioParseError("initial.probabilities: expected a nonempty array")
    return InitialSpec(
        kind="probabilities",
        probabilities=tuple(_number(p, f"initial.probabilities[{i}]") for i, p in enumerate(probs)),
    )


def _parse_time(node) -> TimeGridSpec:
    node = _as_mapping(node, "time", ("start", "stop", "points"))
    grid = TimeGridSpec(
        start=_number(_require(node, "start", "time"), "time.start"),
        stop=_number(_require(node, "stop", "time"), "time.stop"),
        points=_integer(_require(node, "points", "time"), "time.points"),
    )
    if not 1 <= grid.points <= MAX_TIME_POINTS:
        raise ScenarioValidationError(
            f"time.points: must be between 1 and {MAX_TIME_POINTS}, got {grid.points}"
        )
    return grid


def _parse_observable(node, path) -> ObservableSpec:
    node = _as_mapping(node, path, ("name", "matrix", "label"))
    name = _string(_require(node, "name", path), f"{path}.name")
    if name == "matrix":
        matrix = _complex_matrix(_require(node, "matrix", path), f"{path}.matrix")
        label = _string(node["label"], f"{path}.label") if "label" in node else None
        return ObservableSpec(name=name, matrix=matrix, label=label)
    if name not in NAMED_OBSERVABLES:
        raise ScenarioParseError(
            f"{path}.name: unknown observable {name!r}; "
            f"expected one of {NAMED_OBSERVABLES} or 'matrix'"
        )
    if "matrix" in node:
        raise ScenarioParseError(f"{path}.matrix: only valid when name is 'matrix'")
    label = _string(node["label"], f"{path}.label") if "label" in node else None
    return ObservableSpec(name=name, label=label)


def _parse_outputs(node) -> OutputsSpec:
    node = _as_mapping(node, "outputs", ("entropy", "expectations", "populations", "transitions"))
    transitions = None
    if node.get("transitions") is not None:
        tnode = _as_mapping(node["transitions"], "outputs.transitions", ("source", "targets"))
        source = _integer(_require(tnode, "source", "outputs.transitions"), "outputs.transitions.source")
        targets = tnode.get("targets", "all")
        if isinstance(targets, str):
            if targets != "all":
                raise ScenarioParseError(
                    f"outputs.transitions.targets: expected 'all' or an index array, got {targets!r}"
                )
        elif isinstance(targets, list) and targets:
            targets = tuple(
                _integer(t, f"outputs.transitions.targets[{i}]") for i, t in enumerate(targets)
            )
        else:
            raise ScenarioParseError(
                "outputs.transitions.targets: expected 'all' or a nonempty index array"
            )
        transitions = TransitionsSpec(source=source, targets=targets)
    return OutputsSpec(
        entropy=_boolean(node.get("entropy", True), "outputs.entropy"),
        expectations=_boolean(node.get("expectations", True), "outputs.expectations"),
        populations=_boolean(node.get("populations", False), "outputs.populations"),
        transitions=transitions,
    )


def parse_scenario(text: str) -> ScenarioSpec:
    """Parse and validate a scenario document; returns a resolvable spec."""
    try:
        document = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    document = _as_mapping(document, "document", ("system", "initial", "time", "observables", "outputs"))
    system = _parse_system(_require(document, "system", "document"))
    initial = _parse_initial(_require(document, "initial", "document"))
    time = _parse_time(_require(document, "time", "document"))
    observables = ()
    if "observables" in document:
        if not isinstance(document["observables"], list):
            raise ScenarioParseError("observables: expected an array")
        observables = tuple(
            _parse_observable(entry, f"observables[{i}]")
            for i, entry in enumerate(document["observables"])
        )
    outputs = _parse_outputs(document.get("outputs", {}))
    spec = ScenarioSpec(system=system, initial=initial, time=time, observables=observables, outputs=outputs)
    resolve_scenario(spec)  # validation: every reference must resolve
    return spec


def load_scenario(path) -> ScenarioSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# ---------------------------------------------------------------------------
# Serialization (round-trip support and report echoes)
# ---------------------------------------------------------------------------


def _complex_out(z: complex):
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def _matrix_out(matrix):
    return [[_complex_out(z) for z in row] for row in matrix]


def scenario_document(spec: ScenarioSpec) -> dict:
    """Plain JSON-able document equivalent to the spec."""
    system: dict = {"kind": spec.system.kind}
    if spec.system.kind == "spin-half":
        system.update(delta=spec.system.delta, omega=spec.system.omega)
    elif spec.system.kind == "lattice":
        system.update(sites=spec.system.sites, length=spec.system.length, mass=spec.system.mass)
    elif spec.system.kind == "composite":
        system.update(delta_a=spec.system.delta_a, delta_b=spec.system.delta_b, g=spec.system.g)
    else:
        system.update(hamiltonian=_matrix_out(spec.system.hamiltonian))

    if spec.initial.kind == "named":
        initial = {"state": spec.initial.state}
        if spec.initial.index is not None:
            initial["index"] = spec.initial.index
    elif spec.initial.kind == "amplitudes":
        initial = {"amplitudes": [_complex_out(z) for z in spec.initial.amplitudes]}
    else:
        initial = {"probabilities": list(spec.initial.probabilities)}

    observables = []
    for obs in spec.observables:
        entry = {"name": obs.name}
        if obs.matrix is not None:
            entry["matrix"] = _matrix_out(obs.matrix)
        if obs.label is not None:
            entry["label"] = obs.label
        observables.append(entry)

    outputs: dict = {
        "entropy": spec.outputs.entropy,
        "expectations": spec.outputs.expectations,
        "populations": spec.outputs.populations,
    }
    if spec.outputs.transitions is not None:
        targets = spec.outputs.transitions.targets
        outputs["transitions"] = {
            "source": spec.outputs.transitions.source,
            "targets": list(targets) if isinstance(targets, tuple) else targets,
        }

    document = {
        "system": system,
        "initial": initial,
        "time": {"start": spec.time.start, "stop": spec.time.stop, "points": spec.time.points},
        "outputs": outputs,
    }
    if observables:
        document["observables"] = observables
    return document


def serialize_scenario(spec: ScenarioSpec) -> str:
    return json.dumps(scenario_document(spec), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Resolution to matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedScenario:
    dimension: int
    hamiltonian: np.ndarray
    initial_density: np.ndarray
    observable_matrices: tuple
    observable_paths: tuple  # the observables[i] each matrix comes from
    transition_pairs: tuple  # ((source, target), ...)
    columns: tuple  # the evolve CSV header
    column_paths: tuple  # the field each header name comes from


def _dimension(system: SystemSpec) -> int:
    """Dimension of the system's Hilbert space, read off the spec without building H."""
    if system.kind == "spin-half":
        return 2
    if system.kind == "composite":
        return 4
    if system.kind == "lattice":
        path, dim = "system.sites", system.sites
    else:
        path, dim = "system.hamiltonian", len(system.hamiltonian)
    if dim > MAX_DIMENSION:
        raise ScenarioValidationError(f"{path}: dimension {dim} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
    return dim


def _check_grid(points: int, columns: int, dim: int) -> None:
    """Bound the run's tables: points x (columns + dim) covers the CSV table and the phase table.

    With the evolve header's column count this also covers ``perturb``,
    whose 1 + 2 x targets columns never exceed columns + dim.
    """
    cells = points * (columns + dim)
    if cells > MAX_GRID_CELLS:
        raise ScenarioValidationError(
            f"time.points: {points} points x ({columns} columns + dimension {dim}) = "
            f"{cells} grid cells exceed MAX_GRID_CELLS = {MAX_GRID_CELLS}"
        )


def _resolve_hamiltonian(system: SystemSpec) -> np.ndarray:
    try:
        if system.kind == "spin-half":
            return spin_hamiltonian(SpinHalfSystem(delta=system.delta, coupling=system.omega))
        if system.kind == "lattice":
            return lattice_hamiltonian(
                LatticeFreeParticle(sites=system.sites, length=system.length, mass=system.mass)
            )
        if system.kind == "composite":
            return composite_hamiltonian(coupled_spin_pair(system.delta_a, system.delta_b, system.g))
        return require_hermitian(np.array(system.hamiltonian, dtype=complex), what="system.hamiltonian")
    except (DomainError, ShapeError) as exc:
        raise ScenarioValidationError(str(exc)) from exc


def _population_labels(system: SystemSpec, dim: int) -> tuple:
    if system.kind == "spin-half":
        return ("pop_alpha", "pop_beta")
    return tuple(f"pop_{i}" for i in range(dim))


def _resolve_initial(spec: ScenarioSpec, dim: int) -> np.ndarray:
    initial = spec.initial
    if initial.kind == "named":
        if initial.state in ("alpha", "beta"):
            if dim != 2:
                raise ScenarioValidationError(
                    f"initial.state: {initial.state!r} needs a two-level system, dimension is {dim}"
                )
            index = 0 if initial.state == "alpha" else 1
        elif initial.state == "site":
            index = initial.index
            if not 0 <= index < dim:
                raise ScenarioValidationError(
                    f"initial.index: site index {index} out of range for dimension {dim}"
                )
        else:  # momentum
            if spec.system.kind != "lattice":
                raise ScenarioValidationError("initial.state: 'momentum' needs a lattice system")
            if not 0 <= initial.index < dim:
                raise ScenarioValidationError(
                    f"initial.index: momentum index {initial.index} out of range for dimension {dim}"
                )
            lattice = LatticeFreeParticle(
                sites=spec.system.sites, length=spec.system.length, mass=spec.system.mass
            )
            return pure_density(lattice_momentum_basis(lattice)[initial.index])
        psi = np.zeros(dim, dtype=complex)
        psi[index] = 1.0
        return pure_density(psi)
    if initial.kind == "amplitudes":
        amplitudes = np.array(initial.amplitudes, dtype=complex)
        if amplitudes.size != dim:
            raise ScenarioValidationError(
                f"initial.amplitudes: expected {dim} entries, got {amplitudes.size}"
            )
        try:
            return pure_density(as_pure_state(amplitudes))
        except (DomainError, ShapeError) as exc:
            raise ScenarioValidationError(f"initial.amplitudes: {exc}") from exc
    weights = np.array(initial.probabilities, dtype=float)
    if weights.size != dim:
        raise ScenarioValidationError(
            f"initial.probabilities: expected {dim} entries, got {weights.size}"
        )
    try:
        weights = as_probability_vector(weights)
    except (DomainError, ShapeError) as exc:
        raise ScenarioValidationError(f"initial.probabilities: {exc}") from exc
    return np.diag(weights).astype(complex)


def _resolve_observables(spec: ScenarioSpec, dim: int) -> tuple:
    """(labels, matrices, paths), one entry per expectation column."""
    labels: list = []
    matrices: list = []
    paths: list = []
    sigma = dict(zip(("sigma_x", "sigma_y", "sigma_z"), pauli()))
    for i, obs in enumerate(spec.observables):
        path = f"observables[{i}]"
        if obs.name in sigma:
            if dim != 2:
                raise ScenarioValidationError(
                    f"{path}: {obs.name} needs a two-level system, dimension is {dim}"
                )
            labels.append(obs.label or obs.name)
            matrices.append(sigma[obs.name])
        elif obs.name == "energy":
            labels.append(obs.label or "energy")
            matrices.append(None)  # filled with the resolved Hamiltonian
        elif obs.name == "site_populations":
            for site in range(dim):
                proj = np.zeros((dim, dim), dtype=complex)
                proj[site, site] = 1.0
                labels.append(f"site_pop_{site}")
                matrices.append(proj)
        elif obs.name == "momentum_populations":
            if spec.system.kind != "lattice":
                raise ScenarioValidationError(f"{path}: momentum_populations needs a lattice system")
            lattice = LatticeFreeParticle(
                sites=spec.system.sites, length=spec.system.length, mass=spec.system.mass
            )
            basis = lattice_momentum_basis(lattice)
            ks = np.arange(-(lattice.sites // 2), (lattice.sites + 1) // 2)
            for k, row in zip(ks, basis):
                proj = np.outer(row, row.conj())
                labels.append(f"mom_pop_{k}")
                matrices.append((proj + proj.conj().T) / 2.0)  # Hermitian to the last bit
        else:  # explicit matrix
            matrix = np.array(obs.matrix, dtype=complex)
            if matrix.shape != (dim, dim):
                raise ScenarioValidationError(
                    f"{path}.matrix: expected shape ({dim}, {dim}), got {matrix.shape}"
                )
            try:
                matrix = require_hermitian(matrix, what=f"{path}.matrix")
            except DomainError as exc:
                raise ScenarioValidationError(str(exc)) from exc
            labels.append(obs.label or f"obs_{i}")
            matrices.append(matrix)
        paths.extend([path] * (len(labels) - len(paths)))
    return tuple(labels), tuple(matrices), tuple(paths)


def _columns(spec: ScenarioSpec, labels: tuple, paths: tuple, pairs: tuple, dim: int) -> tuple:
    """(names, paths): the evolve CSV header and the field each name comes from."""
    named = [("t", "time")]
    if spec.outputs.entropy:
        named.append(("entropy", "outputs.entropy"))
    if spec.outputs.expectations:
        named.extend(zip(labels, paths))
    if spec.outputs.populations:
        named.extend((label, "outputs.populations") for label in _population_labels(spec.system, dim))
    named.extend((f"trans_{j}_to_{k}", "outputs.transitions.targets") for j, k in pairs)
    names, column_paths = zip(*named)
    return names, column_paths


def _require_distinct_columns(resolved: ResolvedScenario) -> None:
    """Reject an evolve header that gives a name twice, naming the field that repeats it."""
    owner: dict = {}
    for name, path in zip(resolved.columns, resolved.column_paths):
        if name in owner:
            raise ScenarioValidationError(f"{path}: column {name!r} is already taken by {owner[name]}")
        owner[name] = path


def resolve_scenario(spec: ScenarioSpec) -> ResolvedScenario:
    """Materialize all matrices a run needs, validating every reference.

    The dimension bound is checked before any matrix is built, and the grid
    bound as soon as the evolve header is known.
    """
    dim = _dimension(spec.system)
    h = _resolve_hamiltonian(spec.system)
    rho0 = _resolve_initial(spec, dim)
    labels, matrices, paths = _resolve_observables(spec, dim)
    matrices = tuple(h if m is None else m for m in matrices)

    pairs = ()
    if spec.outputs.transitions is not None:
        source = spec.outputs.transitions.source
        if not 0 <= source < dim:
            raise ScenarioValidationError(
                f"outputs.transitions.source: index {source} out of range for dimension {dim}"
            )
        targets = spec.outputs.transitions.targets
        if targets == "all":
            targets = tuple(k for k in range(dim) if k != source)
        for i, k in enumerate(targets):
            if not 0 <= k < dim:
                raise ScenarioValidationError(
                    f"outputs.transitions.targets: index {k} out of range for dimension {dim}"
                )
            if k in targets[:i]:
                raise ScenarioValidationError(f"outputs.transitions.targets[{i}]: target {k} is repeated")
        pairs = tuple((source, k) for k in targets)

    columns, column_paths = _columns(spec, labels, paths, pairs, dim)
    _check_grid(spec.time.points, len(columns), dim)
    return ResolvedScenario(
        dimension=dim,
        hamiltonian=h,
        initial_density=rho0,
        observable_matrices=matrices,
        observable_paths=paths,
        transition_pairs=pairs,
        columns=columns,
        column_paths=column_paths,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ReportCheck:
    name: str
    residual: float
    tolerance: float
    passed: bool


@dataclass(frozen=True)
class EvolutionReport:
    kind: str
    columns: tuple
    table: np.ndarray
    scenario: dict
    tolerances: dict
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_csv(self) -> str:
        number = f"{{:.{CSV_DIGITS}g}}".format
        lines = [f"# entrodyn {__version__} {self.kind}", ",".join(self.columns)]
        lines.extend(",".join(map(number, row.tolist())) for row in self.table)
        return "\n".join(lines) + "\n"

    def summary(self) -> dict:
        return {
            "version": __version__,
            "kind": self.kind,
            "scenario": self.scenario,
            "columns": list(self.columns),
            "rows": int(self.table.shape[0]),
            "tolerances": self.tolerances,
            "checks": [
                {
                    "name": check.name,
                    "residual": check.residual,
                    "tolerance": check.tolerance,
                    "passed": check.passed,
                }
                for check in self.checks
            ],
            "passed": self.passed,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"


def entropy_constancy(entropies) -> ReportCheck:
    """Pass iff every entropy lies within ENTROPY_CONSTANCY_TOL of the first."""
    residual = float(np.max(np.abs(entropies - entropies[0])))
    return ReportCheck(
        name="entropy-constancy",
        residual=residual,
        tolerance=ENTROPY_CONSTANCY_TOL,
        passed=residual <= ENTROPY_CONSTANCY_TOL,
    )


def _warm_step(rho: np.ndarray, basis: np.ndarray) -> tuple:
    """(eigenvalues of rho, next basis): one point of ``warm_entropies``, kept
    apart so that tests can follow the basis.

    ``hermitian_eig`` solves A = W† rho W to its usual tolerance, which is
    relative to ||A||_F = ||rho||_F, so the eigenvalues are an independent
    measurement of rho's spectrum. W then absorbs the eigenvectors X,
    W <- W X, so the next A starts nearly diagonal, and one Newton-Schulz
    step W <- W (3 - W†W) / 2 keeps W unitary to rounding over any number of
    points.
    """
    w, x = hermitian_eig(basis.conj().T @ rho @ basis)
    basis = basis @ x
    return w, basis @ (1.5 * np.eye(basis.shape[0]) - 0.5 * (basis.conj().T @ basis))


def warm_entropies(densities, basis):
    """Yield the von Neumann entropy of each density matrix in turn.

    Each density is diagonalised in the basis left by the one before
    (``_warm_step``); ``basis`` is the unitary W for the first density.
    """
    for rho in densities:
        w, basis = _warm_step(rho, basis)
        yield spectrum_entropy(w)


def _phase_table(times: np.ndarray, w: np.ndarray) -> np.ndarray:
    """P[t, j] = exp(-i w_j t) over the whole grid, built in place."""
    phases = np.outer(times, -1j * w)
    return np.exp(phases, out=phases)


def _phase_sum(m: np.ndarray, phases: np.ndarray, conj_phases: np.ndarray) -> np.ndarray:
    """sum_jk P_tj m_jk conj(P_tk) for every t; with m = (V† X V)ᵀ ∘ rho(0)' this is tr(X rho(t))."""
    return np.einsum("tk,tk->t", phases @ m, conj_phases)


def _expectations(
    x: np.ndarray, v: np.ndarray, rho0: np.ndarray, phases: np.ndarray, conj_phases: np.ndarray, what: str
) -> np.ndarray:
    """tr(X rho(t)) over the grid, checked to be real.

    The column is the phase sum of X's Hermitian part (X + X†)/2. The
    imaginary part of tr(X rho) is that of the anti-Hermitian part
    (X - X†)/2, so it is measured from that part alone, skipped when it is
    exactly zero, and raises above EXPECTATION_IMAG_ATOL: the check measures
    the observable's defect, never rounding in the real column.
    """
    vh = v.conj().T
    skew = (x - x.conj().T) / 2.0
    if skew.any():
        imag = float(np.abs(_phase_sum((vh @ skew @ v).T * rho0, phases, conj_phases)).max())
        if imag > EXPECTATION_IMAG_ATOL:
            raise NumericalError(
                f"{what}: expectation value has imaginary part {imag:.3e}; "
                "operands are not Hermitian enough"
            )
    hermitian = (x + x.conj().T) / 2.0
    return _phase_sum((vh @ hermitian @ v).T * rho0, phases, conj_phases).real


def _transition_probabilities(v: np.ndarray, phases: np.ndarray, pairs: tuple) -> np.ndarray:
    """|u_kj(t)|^2 for every (j, k) in pairs (one source j), u_kj(t) = sum_m V_km P_tm conj(V_jm)."""
    source = pairs[0][0]
    targets = [k for _, k in pairs]
    amplitudes = phases @ (v[source].conj()[:, None] * v[targets].T)
    probabilities = np.abs(amplitudes)
    return np.square(probabilities, out=probabilities)


def run_scenario(spec: ScenarioSpec) -> EvolutionReport:
    """Evolve the scenario over its time grid and collect the requested columns.

    Every column is a phase sum in H's eigenbasis: with H = V diag(w) V†,
    P_tj = exp(-i w_j t) and rho(0)' = V† rho(0) V, rho(t)' = rho(0)' ∘ (p p̄ᵀ)
    for p = P_t. Expectations, populations and transition probabilities are
    computed a column at a time over the whole grid. The entropy column is
    solved point by point: a mixture through ``warm_entropies``; a pure
    initial state, which stays rank one and needs one sweep from any basis,
    by a cold solve of the site-basis rho(t).
    """
    resolved = resolve_scenario(spec)
    _require_distinct_columns(resolved)
    w, v = hermitian_eig(resolved.hamiltonian)
    vh = v.conj().T
    times = spec.time.values()
    phases = _phase_table(times, w)
    conj_phases = phases.conj()
    rho0 = vh @ resolved.initial_density @ v

    table = np.empty((times.size, len(resolved.columns)))
    table[:, 0] = times
    col = 1
    checks = ()
    if spec.outputs.entropy:
        densities = (rho0 * np.outer(p, p.conj()) for p in phases)
        if spec.initial.kind == "probabilities":
            table[:, col] = list(warm_entropies(densities, vh))
        else:  # a pure state stays rank one, which one cold sweep solves
            table[:, col] = [spectrum_entropy(hermitian_eig(v @ rho @ vh).eigenvalues) for rho in densities]
        checks = (entropy_constancy(table[:, col]),)
        col += 1
    if spec.outputs.expectations:
        for matrix, path in zip(resolved.observable_matrices, resolved.observable_paths):
            table[:, col] = _expectations(matrix, v, rho0, phases, conj_phases, path)
            col += 1
    if spec.outputs.populations:
        for row in v:  # X = |i><i|, so (V† X V)ᵀ = outer(row, conj(row))
            table[:, col] = _phase_sum(np.outer(row, row.conj()) * rho0, phases, conj_phases).real
            col += 1
    if resolved.transition_pairs:
        table[:, col:] = _transition_probabilities(v, phases, resolved.transition_pairs)

    return EvolutionReport(
        kind="evolution",
        columns=resolved.columns,
        table=table,
        scenario=scenario_document(spec),
        tolerances={"entropy_constancy": ENTROPY_CONSTANCY_TOL},
        checks=checks,
    )


def run_perturbation(spec: ScenarioSpec) -> EvolutionReport:
    """Exact vs first-order transition probabilities for the scenario generator.

    The scenario Hamiltonian plays the role of the perturbing generator; the
    reference basis is the computational (site) basis. Requires an
    outputs.transitions section naming the source state and targets that
    differ from it.
    """
    resolved = resolve_scenario(spec)
    pairs = resolved.transition_pairs
    if not pairs:
        raise ScenarioValidationError(
            "outputs.transitions: required for a perturbation run (source and targets)"
        )
    for i, (j, k) in enumerate(pairs):
        if j == k:
            raise ScenarioValidationError(
                f"outputs.transitions.targets[{i}]: target {k} is the source; "
                "a first-order transition needs a different target"
            )
    h = resolved.hamiltonian
    w, v = hermitian_eig(h)
    times = spec.time.values()

    columns = ["t"]
    for j, k in pairs:
        columns.append(f"exact_{j}_to_{k}")
        columns.append(f"first_order_{j}_to_{k}")

    table = np.empty((times.size, len(columns)))
    table[:, 0] = times
    table[:, 1::2] = _transition_probabilities(v, _phase_table(times, w), pairs)
    table[:, 2::2] = np.outer(times**2, [abs(h[k, j]) ** 2 for j, k in pairs])

    return EvolutionReport(
        kind="perturbation",
        columns=tuple(columns),
        table=table,
        scenario=scenario_document(spec),
        tolerances={},
        checks=(),
    )
