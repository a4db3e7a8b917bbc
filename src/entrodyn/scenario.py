"""Scenario documents, evolution runs, and report emission.

A scenario is a JSON document of nested key/value sections. Complex scalars
are written as two-element [re, im] arrays (plain numbers are accepted where
the value is real) and matrices as row-major nested arrays. Structural
problems raise ScenarioParseError; documents that parse but violate a
mathematical invariant (non-Hermitian Hamiltonian, probabilities that do not
sum to one, ...) raise ScenarioValidationError naming the invariant.

A spec is the document as parsed, in its normal form: a plain dict with
every default filled in, each number as its field's reader returns it, a
complex entry as a plain real when its imaginary part is 0 and as [re, im]
otherwise, and absent optional fields (an index, a label, a matrix, the
transitions, an empty observables list) left out. A report's summary echoes
it as it is. Each section's fields and defaults are written once: in a table
of Fields, or in the one function that reads the section.

What a system kind is lives in one table, SYSTEM_KINDS: its parameters, its
dimension, its Hamiltonian and its named bases. Parsing, the dimension bound
and resolution all read the same row.

Reports are deterministic: the same document and package version produce
byte-identical CSV and summary output. A report's checks, like those of the
invariant suite, are CheckResults: each summary check carries ``worst``, the
grid time that set its residual, and a FAIL line names it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, field

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
from .linalg import hermitian_eig, require_hermitian, stack_eigenvalues
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
# CSV cells (rows x columns) joined into one write: a buffer bounded whatever
# the table's width (a 64-site lattice's 194 columns: 5 rows), and few enough
# writes that an in-memory stream (a redirected stdout) costs no more than one
# large write
CSV_BLOCK_CELLS = 1024
# Bytes of one entropy block's A_t stack, (points, n, n) complex, certified by
# one stack_eigenvalues call (n = 2: 2048 points, n = 64: 2, n = 128: 1). The
# block's traced peak is about 8.3 times this (1,067 KiB at n = 2): the basis,
# the densities, their products and the solver's temporaries.
ENTROPY_BLOCK_BYTES = 2**17

# named initial state -> (the basis it is a ket of, its index there; None when the document gives it)
NAMED_STATES = {"alpha": ("site", 0), "beta": ("site", 1), "site": ("site", None), "momentum": ("momentum", None)}
# observable name -> (named basis, column label prefix): one population column per ket of the basis
POPULATION_OBSERVABLES = {"site_populations": ("site", "site_pop_"), "momentum_populations": ("momentum", "mom_pop_")}
NAMED_OBSERVABLES = ("sigma_x", "sigma_y", "sigma_z", "energy", *POPULATION_OBSERVABLES)


class ScenarioParseError(ValueError):
    """The document is structurally malformed."""


class ScenarioValidationError(ValueError):
    """The document parsed but violates a mathematical invariant."""


# ---------------------------------------------------------------------------
# Document reading and writing helpers
# ---------------------------------------------------------------------------


class _LongInteger:
    """A JSON integer with more digits than ``int()`` converts. No field takes
    one, so each reader rejects it like any other wrong value, with its path."""

    def __init__(self, digits: str):
        self.digits = len(digits.lstrip("-"))

    def __repr__(self) -> str:
        return f"an integer of {self.digits} digits"


def _json_integer(digits: str):
    try:
        return int(digits)
    except ValueError:
        return _LongInteger(digits)


def _as_mapping(node, path, allowed):
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    return node


def _float(node, path) -> float:
    """float(node) for a JSON number; an integer beyond the float range is rejected."""
    try:
        return float(node)
    except OverflowError:
        raise ScenarioParseError(f"{path}: integer of {len(str(abs(node)))} digits is out of range") from None


def _number(node, path) -> float:
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        raise ScenarioParseError(f"{path}: expected a number, got {node!r}")
    value = _float(node, path)
    if not math.isfinite(value):
        raise ScenarioParseError(f"{path}: expected a finite number, got {node!r}")
    return value


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


def _complex_scalar(node, path):
    """A complex entry in document form: a plain real when its imaginary part is 0, else [re, im]."""
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _number(node, path)
    if isinstance(node, list) and len(node) == 2:
        re, im = _number(node[0], f"{path}[0]"), _number(node[1], f"{path}[1]")
        return re if im == 0.0 else [re, im]
    raise ScenarioParseError(f"{path}: expected a number or [re, im] pair, got {node!r}")


def _complex_vector(node, path) -> list:
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected a nonempty array")
    return [_complex_scalar(entry, f"{path}[{i}]") for i, entry in enumerate(node)]


def _complex_matrix(node, path) -> list:
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
    return rows


def _complex_array(rows) -> np.ndarray:
    """The complex matrix of document-form rows: an [re, im] pair is re + im j."""
    return np.array([[complex(*e) if isinstance(e, list) else e for e in row] for row in rows], dtype=complex)


def _require(mapping, key, path):
    if key not in mapping:
        raise ScenarioParseError(f"{path}: missing required field '{key}'")
    return mapping[key]


_REQUIRED = object()
# A field of a mapping section: its name, the reader that checks it, and its default (none when required).
Field = namedtuple("Field", ("name", "read", "default"), defaults=(_REQUIRED,))


def _given(values: dict) -> dict:
    """The mapping without its absent (None) fields, which the document form leaves out."""
    return {name: value for name, value in values.items() if value is not None}


def _read_fields(node, path, schema, also=()) -> dict:
    """{name: value} for each Field in ``schema`` of the mapping at ``path``, which holds no other field but ``also``;
    a field whose reader returns None is left out."""
    node = _as_mapping(node, path, (*also, *(f.name for f in schema)))
    values = {}
    for f in schema:
        value = _require(node, f.name, path) if f.default is _REQUIRED else node.get(f.name, f.default)
        values[f.name] = f.read(value, f"{path}.{f.name}")
    return _given(values)


# ---------------------------------------------------------------------------
# System kinds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Basis:
    """A named basis: a label per ket, and the kets as rows in the site basis
    (None for the site basis itself, whose kets are the unit vectors). The one
    ket psi of a state given by amplitudes is held the same way."""

    labels: tuple
    kets: np.ndarray | None = None

    def ket(self, index: int) -> np.ndarray:
        if self.kets is None:
            return np.eye(1, len(self.labels), index, dtype=complex)[0]
        return self.kets[index]

    def coefficient_rows(self, v: np.ndarray) -> np.ndarray:
        """Rows c̄ = Vᵀ b̄: each ket b in H's eigenbasis, c = V† b, conjugated.
        For the site basis these are V's rows, taken as they are."""
        return v if self.kets is None else self.kets.conj() @ v


@dataclass(frozen=True)
class SystemKind:
    """Everything the scenario layer knows about one kind of system."""

    fields: tuple  # Field per parameter, in document order
    dimension: int | str  # a fixed dimension, or the field whose value (a count or a matrix) sets it
    hamiltonian: Callable  # system section -> H in the site basis; an error's message starts with its field
    bases: dict = field(default_factory=dict)  # named bases besides "site": name -> (system section -> Basis)
    levels: tuple = ()  # names of the site states in 'pop_*' headers; their indices when empty
    # system section -> an eigenbasis of H as columns, the seed of H's solve; None: H is solved cold
    eigenbasis: Callable | None = None


def _lattice(system: dict) -> LatticeFreeParticle:
    return LatticeFreeParticle(sites=system["sites"], length=system["length"], mass=system["mass"])


def _momentum_basis(system: dict) -> Basis:
    """Plane waves, labelled by k for momentum 2 pi k / length."""
    lattice = _lattice(system)
    n = lattice.sites
    return Basis(labels=tuple(range(-(n // 2), (n + 1) // 2)), kets=lattice_momentum_basis(lattice))


SYSTEM_KINDS = {
    "spin-half": SystemKind(
        fields=(Field("delta", _number), Field("omega", _number, 0.0)),
        dimension=2,
        hamiltonian=lambda p: spin_hamiltonian(SpinHalfSystem(delta=p["delta"], coupling=p["omega"])),
        levels=("alpha", "beta"),
    ),
    "lattice": SystemKind(
        fields=(Field("sites", _integer), Field("length", _number), Field("mass", _number)),
        dimension="sites",
        hamiltonian=lambda p: lattice_hamiltonian(_lattice(p)),
        bases={"momentum": _momentum_basis},
        eigenbasis=lambda p: lattice_momentum_basis(_lattice(p)).T,  # H is diagonal in the plane waves
    ),
    "composite": SystemKind(
        fields=(Field("delta_a", _number), Field("delta_b", _number), Field("g", _number, 0.0)),
        dimension=4,
        hamiltonian=lambda p: composite_hamiltonian(coupled_spin_pair(p["delta_a"], p["delta_b"], p["g"])),
    ),
    "explicit-matrices": SystemKind(
        fields=(Field("hamiltonian", _complex_matrix),),
        dimension="hamiltonian",
        hamiltonian=lambda p: require_hermitian(_complex_array(p["hamiltonian"]), what="hamiltonian"),
    ),
}


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


def _parse_system(node) -> dict:
    if not isinstance(node, dict):
        raise ScenarioParseError(f"system: expected a mapping, got {type(node).__name__}")
    kind = _string(_require(node, "kind", "system"), "system.kind")
    if kind not in SYSTEM_KINDS:
        raise ScenarioParseError(f"system.kind: unknown kind {kind!r}; expected one of {tuple(SYSTEM_KINDS)}")
    return {"kind": kind, **_read_fields(node, "system", SYSTEM_KINDS[kind].fields, also=("kind",))}


def _parse_initial(node) -> dict:
    """Exactly one of: a named state (with an index for site and momentum), amplitudes, probabilities."""
    node = _as_mapping(node, "initial", ("state", "index", "amplitudes", "probabilities"))
    given = [k for k in ("state", "amplitudes", "probabilities") if k in node]
    if len(given) != 1:
        raise ScenarioParseError(
            "initial: give exactly one of 'state', 'amplitudes', 'probabilities'"
        )
    if "state" in node:
        state = _string(node["state"], "initial.state")
        index = _integer(node["index"], "initial.index") if "index" in node else None
        if state not in NAMED_STATES:
            raise ScenarioParseError(
                f"initial.state: unknown named state {state!r}; "
                "expected alpha, beta, site, or momentum"
            )
        if NAMED_STATES[state][1] is None and index is None:
            raise ScenarioParseError(f"initial: named state {state!r} requires an 'index'")
        if NAMED_STATES[state][1] is not None and index is not None:
            raise ScenarioParseError(f"initial.index: meaningless for named state {state!r}")
        return _given({"state": state, "index": index})
    if "index" in node:
        raise ScenarioParseError("initial.index: only valid together with a named 'state'")
    if "amplitudes" in node:
        return {"amplitudes": _complex_vector(node["amplitudes"], "initial.amplitudes")}
    probs = node["probabilities"]
    if not isinstance(probs, list) or not probs:
        raise ScenarioParseError("initial.probabilities: expected a nonempty array")
    return {"probabilities": [_number(p, f"initial.probabilities[{i}]") for i, p in enumerate(probs)]}


def _time_points(node, path) -> int:
    points = _integer(node, path)
    if not 1 <= points <= MAX_TIME_POINTS:
        raise ScenarioValidationError(f"{path}: must be between 1 and {MAX_TIME_POINTS}, got {points}")
    return points


TIME_FIELDS = (Field("start", _number), Field("stop", _number), Field("points", _time_points))


def time_grid(time: dict) -> np.ndarray:
    """The grid of a time section: ``points`` times from start to stop, or start alone."""
    if time["points"] == 1:
        return np.array([time["start"]])
    return np.linspace(time["start"], time["stop"], time["points"])


def _parse_observable(node, path) -> dict:
    node = _as_mapping(node, path, ("name", "matrix", "label"))
    name = _string(_require(node, "name", path), f"{path}.name")
    if name != "matrix" and name not in NAMED_OBSERVABLES:
        raise ScenarioParseError(
            f"{path}.name: unknown observable {name!r}; "
            f"expected one of {NAMED_OBSERVABLES} or 'matrix'"
        )
    if name != "matrix" and "matrix" in node:
        raise ScenarioParseError(f"{path}.matrix: only valid when name is 'matrix'")
    matrix = _complex_matrix(_require(node, "matrix", path), f"{path}.matrix") if name == "matrix" else None
    label = _string(node["label"], f"{path}.label") if "label" in node else None
    return _given({"name": name, "matrix": matrix, "label": label})


def _observables(node, path) -> list | None:
    """The observables in document order; None, so left out, when there are none."""
    if not isinstance(node, list):
        raise ScenarioParseError(f"{path}: expected an array")
    return [_parse_observable(entry, f"{path}[{i}]") for i, entry in enumerate(node)] or None


def _targets(node, path):
    if node == "all":
        return node
    if isinstance(node, str):
        raise ScenarioParseError(f"{path}: expected 'all' or an index array, got {node!r}")
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected 'all' or a nonempty index array")
    return [_integer(t, f"{path}[{i}]") for i, t in enumerate(node)]


def _transitions(node, path) -> dict | None:
    if node is None:
        return None
    return _read_fields(node, path, (Field("source", _integer), Field("targets", _targets, "all")))


OUTPUT_FIELDS = (
    Field("transitions", _transitions, None),
    Field("entropy", _boolean, True),
    Field("expectations", _boolean, True),
    Field("populations", _boolean, False),
)


def parse_scenario(text: str) -> dict:
    """Parse and validate a scenario document; returns the spec, the document in its normal form."""
    try:
        document = json.loads(text, parse_int=_json_integer)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except RecursionError:
        raise ScenarioParseError("invalid JSON: arrays or objects nested too deeply") from None
    document = _as_mapping(document, "document", ("system", "initial", "time", "observables", "outputs"))
    spec = _given(
        {
            "system": _parse_system(_require(document, "system", "document")),
            "initial": _parse_initial(_require(document, "initial", "document")),
            "time": _read_fields(_require(document, "time", "document"), "time", TIME_FIELDS),
            "observables": _observables(document.get("observables", []), "observables"),
            "outputs": _read_fields(document.get("outputs", {}), "outputs", OUTPUT_FIELDS),
        }
    )
    resolve_scenario(spec)  # validation: every reference must resolve
    return spec


def load_scenario(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex()
        raise ScenarioParseError(f"scenario is not UTF-8 text: {exc.reason} 0x{bad}") from None
    return parse_scenario(text)


def serialize_scenario(spec: dict) -> str:
    return json.dumps(spec, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# Resolution to matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedScenario:
    dimension: int
    hamiltonian: np.ndarray
    initial_density: np.ndarray
    # rho(0) = sum_k w_k |k><k| over the kets of initial_kets: a basis rho(0) is diagonal in, or for a
    # state given by amplitudes the one ket psi
    initial_kets: Basis
    initial_weights: np.ndarray
    # ((path, labels, source), ...): the columns between entropy and the
    # transitions, as the Hermitian matrix of one expectation column or the
    # Basis whose populations make one column per ket
    column_sources: tuple
    transition_pairs: tuple  # ((source, target), ...)
    columns: tuple  # the evolve CSV header
    column_paths: tuple  # the field each header name comes from


def _dimension(system: dict) -> int:
    """Dimension of the system's Hilbert space, read off the spec without building H."""
    size = SYSTEM_KINDS[system["kind"]].dimension
    if isinstance(size, int):
        return size
    value = system[size]
    dim = value if isinstance(value, int) else len(value)
    if dim > MAX_DIMENSION:
        raise ScenarioValidationError(f"system.{size}: dimension {dim} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
    return dim


def _check_grid(time: dict, columns: int, dim: int) -> None:
    """Bound the run's tables: points x (columns + dim) covers the CSV table and the phase table;
    and require a grid of two or more points to span a finite float64 stop - start.

    With the evolve header's column count this also covers ``perturb``,
    whose 1 + 2 x targets columns never exceed columns + dim.
    """
    points = time["points"]
    cells = points * (columns + dim)
    if cells > MAX_GRID_CELLS:
        raise ScenarioValidationError(
            f"time.points: {points} points x ({columns} columns + dimension {dim}) = "
            f"{cells} grid cells exceed MAX_GRID_CELLS = {MAX_GRID_CELLS}"
        )
    if points > 1 and not math.isfinite(time["stop"] - time["start"]):
        raise ScenarioValidationError(
            f"time.stop: the span stop - start from {time['start']:.15g} to {time['stop']:.15g} "
            "is not a finite float64"
        )


def _named_basis(system: dict, name: str, dim: int, what: str) -> Basis:
    """The named basis of the system; ``what`` names the reference in the error when it has none."""
    if name == "site":
        return Basis(labels=tuple(range(dim)))
    build = SYSTEM_KINDS[system["kind"]].bases.get(name)
    if build is None:
        kinds = " or ".join(kind for kind, row in SYSTEM_KINDS.items() if name in row.bases)
        raise ScenarioValidationError(f"{what} needs a {kinds} system")
    return build(system)


def _resolve_initial(spec: dict, dim: int) -> tuple:
    """(rho(0), kets, weights): rho(0) = sum_k w_k |k><k| over the kets. A named state is its ket of
    weight 1 in its named basis, ``probabilities`` weigh the site kets, and ``amplitudes`` give psi
    alone, weight 1."""
    initial = spec["initial"]
    if "state" in initial:
        state = initial["state"]
        name, index = NAMED_STATES[state]
        if index is None:
            index = initial["index"]
        elif dim != 2:  # alpha and beta are the levels of a two-level system
            raise ScenarioValidationError(
                f"initial.state: {state!r} needs a two-level system, dimension is {dim}"
            )
        basis = _named_basis(spec["system"], name, dim, f"initial.state: {state!r}")
        if not 0 <= index < dim:
            raise ScenarioValidationError(
                f"initial.index: {name} index {index} out of range for dimension {dim}"
            )
        return pure_density(basis.ket(index)), basis, np.eye(1, dim, index)[0]
    amplitudes = "amplitudes" in initial
    if amplitudes:
        path, values = "initial.amplitudes", _complex_array([initial["amplitudes"]])[0]
    else:
        path, values = "initial.probabilities", np.array(initial["probabilities"], dtype=float)
    if values.size != dim:
        raise ScenarioValidationError(f"{path}: expected {dim} entries, got {values.size}")
    try:
        if amplitudes:
            psi = as_pure_state(values)
            return pure_density(psi), Basis(labels=("psi",), kets=psi[None, :]), np.ones(1)
        weights = as_probability_vector(values)
        return np.diag(weights).astype(complex), Basis(labels=tuple(range(dim))), weights
    except (DomainError, ShapeError) as exc:
        raise ScenarioValidationError(f"{path}: {exc}") from exc


def _resolve_observables(spec: dict, dim: int, h: np.ndarray) -> tuple:
    """((path, labels, source), ...), one entry per observables[i]; see ResolvedScenario.
    An empty label falls back like an absent one."""
    entries = []
    named = {**dict(zip(("sigma_x", "sigma_y", "sigma_z"), pauli())), "energy": h}
    for i, obs in enumerate(spec.get("observables", ())):
        path, name, label = f"observables[{i}]", obs["name"], obs.get("label")
        if name in named:
            if name != "energy" and dim != 2:
                raise ScenarioValidationError(
                    f"{path}: {name} needs a two-level system, dimension is {dim}"
                )
            entries.append((path, (label or name,), named[name]))
        elif name in POPULATION_OBSERVABLES:
            basis_name, prefix = POPULATION_OBSERVABLES[name]
            basis = _named_basis(spec["system"], basis_name, dim, f"{path}: {name}")
            entries.append((path, tuple(f"{prefix}{ket}" for ket in basis.labels), basis))
        else:  # explicit matrix
            matrix = _complex_array(obs["matrix"])
            if matrix.shape != (dim, dim):
                raise ScenarioValidationError(
                    f"{path}.matrix: expected shape ({dim}, {dim}), got {matrix.shape}"
                )
            try:
                matrix = require_hermitian(matrix, what=f"{path}.matrix")
            except DomainError as exc:
                raise ScenarioValidationError(str(exc)) from exc
            entries.append((path, (label or f"obs_{i}",), matrix))
    return tuple(entries)


def _columns(spec: dict, sources: tuple, pairs: tuple) -> tuple:
    """(names, paths): the evolve CSV header and the field each name comes from."""
    named = [("t", "time")]
    if spec["outputs"]["entropy"]:
        named.append(("entropy", "outputs.entropy"))
    named.extend((label, path) for path, labels, _ in sources for label in labels)
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


def resolve_scenario(spec: dict) -> ResolvedScenario:
    """Materialize all matrices a run needs, validating every reference.

    The dimension bound is checked before any matrix is built, and the grid
    bounds as soon as the evolve header is known.
    """
    system, outputs = spec["system"], spec["outputs"]
    dim = _dimension(system)
    try:
        h = SYSTEM_KINDS[system["kind"]].hamiltonian(system)
    except (DomainError, ShapeError) as exc:
        raise ScenarioValidationError(f"system.{exc}") from exc
    rho0, kets, weights = _resolve_initial(spec, dim)
    observables = _resolve_observables(spec, dim, h)  # checked whether or not they are written
    sources = observables if outputs["expectations"] else ()
    if outputs["populations"]:
        site = Basis(labels=SYSTEM_KINDS[system["kind"]].levels or tuple(range(dim)))
        sources += (("outputs.populations", tuple(f"pop_{level}" for level in site.labels), site),)

    pairs = ()
    if "transitions" in outputs:
        source = outputs["transitions"]["source"]
        if not 0 <= source < dim:
            raise ScenarioValidationError(
                f"outputs.transitions.source: index {source} out of range for dimension {dim}"
            )
        targets = outputs["transitions"]["targets"]
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

    columns, column_paths = _columns(spec, sources, pairs)
    _check_grid(spec["time"], len(columns), dim)
    return ResolvedScenario(
        dimension=dim,
        hamiltonian=h,
        initial_density=rho0,
        initial_kets=kets,
        initial_weights=weights,
        column_sources=sources,
        transition_pairs=pairs,
        columns=columns,
        column_paths=column_paths,
    )


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """A residual against its tolerance: a summary check of a run, or one check of ``verify``."""

    name: str
    residual: float
    tolerance: float
    passed: bool
    worst: str | None  # the input that set the residual; None when no residual exceeded 0

    def line(self) -> str:
        """The PASS/FAIL line; a FAIL line ends with the input that set the residual."""
        verdict = "PASS" if self.passed else "FAIL"
        text = f"{verdict} {self.name}: residual={self.residual:.3e} (tolerance {self.tolerance:.3e})"
        return text if self.passed else f"{text} worst at {self.worst}"


def write_csv(handle, kind: str, columns, table: np.ndarray) -> None:
    """Write a versioned banner, the header and one line per row of the float ``table``
    to ``handle``, each value at CSV_DIGITS significant digits.

    Lines go out a block of CSV_BLOCK_CELLS // width rows (at least one) at a
    time, and each block is one %-format of a template repeated per row:
    ``%.15g`` and ``"{:.15g}".format`` print a float through the same
    routine, so the text is that of formatting value by value.
    """
    handle.write(f"# entrodyn {__version__} {kind}\n{','.join(columns)}\n")
    line = ",".join([f"%.{CSV_DIGITS}g"] * table.shape[1]) + "\n"
    rows = max(1, CSV_BLOCK_CELLS // table.shape[1])
    for start in range(0, len(table), rows):
        block = table[start : start + rows]
        handle.write((line * len(block)) % tuple(block.ravel().tolist()))


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

    def to_csv(self, handle) -> None:
        write_csv(handle, self.kind, self.columns, self.table)

    def summary(self) -> dict:
        return {
            "version": __version__,
            "kind": self.kind,
            "scenario": self.scenario,
            "columns": list(self.columns),
            "rows": int(self.table.shape[0]),
            "tolerances": self.tolerances,
            "checks": [asdict(check) for check in self.checks],
            "passed": self.passed,
        }

    def summary_json(self) -> str:
        return json.dumps(self.summary(), indent=2, sort_keys=True) + "\n"


def entropy_constancy(entropies, times) -> CheckResult:
    """Pass iff every entropy lies within ENTROPY_CONSTANCY_TOL of the first; ``worst`` names
    the grid time farthest from it."""
    drift = np.abs(entropies - entropies[0])
    farthest = int(np.argmax(drift))
    residual = float(drift[farthest])
    return CheckResult(
        name="entropy-constancy",
        residual=residual,
        tolerance=ENTROPY_CONSTANCY_TOL,
        passed=residual <= ENTROPY_CONSTANCY_TOL,
        worst=f"t = {times[farthest]:.15g}" if residual else None,
    )


def _entropies(rho0: np.ndarray, phases: np.ndarray, densities: Callable, seed: np.ndarray | None) -> np.ndarray:
    """The von Neumann entropy of rho(t)' at each grid point, all in H's eigenbasis.

    Under unitary evolution rho(t)' = D_t rho(0)' D_t† with D_t = diag(P_t),
    so if rho(0)' = X0 Λ X0†, W_t = D_t X0 diagonalises rho(t)' exactly:
    ``rho0`` is solved once, from the eigenbasis ``seed`` when one is known
    (see ``hermitian_eig``), and W_t is built afresh from each phase row, so
    no error carries from one point to the next. The grid is taken a block
    of ENTROPY_BLOCK_BYTES // (16 n²) points (at least one) at a time:
    ``densities(rows)`` gives rho(t)' for the grid rows ``rows`` (a slice)
    as a stack, and one ``stack_eigenvalues`` call certifies every
    A_t = W_t† rho(t)' W_t of the block by ``hermitian_eig``'s stopping rule,
    relative to ||A_t||_F = ||rho(t)||_F: an A_t already within it is
    diagonal to that tolerance, and any other is solved on its own, with the
    bits of a lone ``hermitian_eig`` either way. So by Weyl's inequality each
    point's eigenvalues measure the spectrum of the rho(t) given, a rho(t)
    that is not unitarily related to rho(0) shows in the column, and the
    working set stays bounded whatever the grid length.
    """
    x0 = hermitian_eig(rho0, seed).eigenvectors
    block = max(1, ENTROPY_BLOCK_BYTES // x0.nbytes)
    entropies = np.empty(len(phases))
    for start in range(0, len(phases), block):
        rows = slice(start, start + block)
        basis = phases[rows, :, None] * x0
        a = basis.conj().swapaxes(1, 2) @ densities(rows) @ basis
        entropies[rows] = spectrum_entropy(stack_eigenvalues(a))
    return entropies


def _evolved(rho0: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """rho(t)' = rho(0)' ∘ (p p̄ᵀ) for each phase row p, as a stack."""
    return rho0 * (phases[:, :, None] * phases.conj()[:, None, :])


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
    skew = x / 2.0 - x.conj().T / 2.0  # halved first, so no entry near the float64 limit overflows
    with np.errstate(over="ignore", invalid="ignore"):  # a product beyond float64 is named by _report
        if skew.any():
            imag = float(np.abs(_phase_sum((vh @ skew @ v).T * rho0, phases, conj_phases)).max())
            if imag > EXPECTATION_IMAG_ATOL:
                raise NumericalError(
                    f"{what}: expectation value has imaginary part {imag:.3e}; "
                    "operands are not Hermitian enough"
                )
        hermitian = x / 2.0 + x.conj().T / 2.0
        return _phase_sum((vh @ hermitian @ v).T * rho0, phases, conj_phases).real


def _ket_probabilities(phases: np.ndarray, ket: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|<b|U(t)|k>|² over the grid, a column per row of ``rows``: the ket k as g = V† k, each b as the
    row b̄ᵀ V (``Basis.coefficient_rows``), so <b|U(t)|k> = sum_m (b̄ᵀ V)_m P_tm g_m, one
    (T x n) @ (n x rows) product."""
    amplitudes = phases @ (ket[:, None] * rows.T)
    probabilities = np.abs(amplitudes)
    return np.square(probabilities, out=probabilities)


def _populations(rows: np.ndarray, mixture: list, phases: np.ndarray) -> np.ndarray:
    """<b|rho(t)|b> = sum_k w_k |<b|U(t)|k>|² over the grid, a column per ket b of a basis given by
    its ``rows`` (b̄ᵀ V), for rho(0) the ``mixture`` of (w_k, V† k) of positive weight.

    A population is a mixture of transition probabilities, so no cell is negative, and the block
    costs one ``_ket_probabilities`` product, O(T n n_b), per ket of the mixture.
    """
    (weight, ket), *rest = mixture  # the weights sum to 1, so some ket has a positive one
    populations = _ket_probabilities(phases, ket, rows)
    populations *= weight
    for weight, ket in rest:
        populations += weight * _ket_probabilities(phases, ket, rows)
    return populations


def _transition_probabilities(v: np.ndarray, phases: np.ndarray, pairs: tuple) -> np.ndarray:
    """|u_kj(t)|^2 for every (j, k) in pairs (one source j), u_kj(t) = sum_m V_km P_tm conj(V_jm)."""
    source = pairs[0][0]
    return _ket_probabilities(phases, v[source].conj(), v[[k for _, k in pairs]])


def _hamiltonian_seed(system: dict) -> np.ndarray | None:
    """The system kind's eigenbasis of H, the seed of H's solve; None when the kind has none."""
    eigenbasis = SYSTEM_KINDS[system["kind"]].eigenbasis
    return None if eigenbasis is None else eigenbasis(system)


def _frame(spec: dict, require: Callable) -> tuple:
    """(resolved, V, times, phase table P): what both runs share, from one
    ``hermitian_eig(H)``, seeded by the system kind's eigenbasis when it has one.
    ``require`` rejects a resolved scenario the run cannot use, before H is diagonalised."""
    resolved = resolve_scenario(spec)
    require(resolved)
    spectrum = hermitian_eig(resolved.hamiltonian, _hamiltonian_seed(spec["system"]))
    times = time_grid(spec["time"])
    try:
        phases = spectrum.phases(times)
    except DomainError as exc:  # a grid time at which exp(-i H t) is undefined
        raise ScenarioValidationError(f"time: {exc}") from exc
    return resolved, spectrum.eigenvectors, times, phases


def _report(
    kind: str, spec: dict, columns: tuple, paths: tuple, table: np.ndarray, tolerances: dict, checks: tuple
) -> EvolutionReport:
    """The report of a run; a non-finite cell raises NumericalError naming the field of its column."""
    bad = np.argwhere(~np.isfinite(table))
    if bad.size:
        row, col = bad[0]
        raise NumericalError(f"{paths[col]}: column {columns[col]!r} is not finite at t = {table[row, 0]:.15g}")
    return EvolutionReport(
        kind=kind, columns=columns, table=table, scenario=spec, tolerances=tolerances, checks=checks
    )


def _evolve_columns(spec: dict, resolved: ResolvedScenario, v: np.ndarray, phases: np.ndarray):
    """Yield the evolve table's columns after t in header order; the transitions come as one block."""
    conj_phases = phases.conj()
    rho0 = v.conj().T @ resolved.initial_density @ v
    coefficients = resolved.initial_kets.coefficient_rows(v)  # row k: V† k, conjugated
    if spec["outputs"]["entropy"]:
        # V† K diagonalises rho(0)' when the kets K are a basis; psi alone is none, so it is solved cold
        seed = None if "amplitudes" in spec["initial"] else coefficients.conj().T
        yield _entropies(rho0, phases, lambda rows: _evolved(rho0, phases[rows]), seed)
    positive = resolved.initial_weights > 0
    mixture = list(zip(resolved.initial_weights[positive], coefficients[positive].conj()))
    for path, _, source in resolved.column_sources:
        if isinstance(source, Basis):
            yield _populations(source.coefficient_rows(v), mixture, phases)
        else:
            yield _expectations(source, v, rho0, phases, conj_phases, path)
    if resolved.transition_pairs:
        yield _transition_probabilities(v, phases, resolved.transition_pairs)


def run_scenario(spec: dict) -> EvolutionReport:
    """Evolve the scenario over its time grid and collect the requested columns.

    Every column is computed in H's eigenbasis: with H = V diag(w) V†,
    P_tj = exp(-i w_j t) and rho(0)' = V† rho(0) V, rho(t)' = rho(0)' ∘ (p p̄ᵀ)
    for p = P_t. An expectation is a phase sum over the whole grid, a column
    at a time. Transition probabilities |<b|U(t)|k>|² take one (T x n) @
    (n x n_b) product for all targets b. A population is the mixture
    <b|rho(t)|b> = sum_k w_k |<b|U(t)|k>|² over rho(0) = sum_k w_k |k><k| as
    resolved (``_populations``): non-negative by construction, at a cost of
    O(T n n_b r) for a basis of n_b kets and r kets of positive weight. The
    entropy column is certified for every initial state alike in the basis
    W_t = diag(P_t) X0 built from rho(0)' = X0 Λ X0†, by one ``stack_eigenvalues`` call per
    block of grid points (``_entropies``). A run calls ``hermitian_eig`` for
    H and for rho(0)', each seeded by an eigenbasis the run already holds when
    there is one (a lattice's plane waves for H; V† B for a rho(0) diagonal
    in the basis B), and once more only for an A_t not already diagonal to
    its stopping rule, which exact unitary evolution does not produce.
    """
    resolved, v, times, phases = _frame(spec, _require_distinct_columns)
    table = np.empty((times.size, len(resolved.columns)))
    table[:, 0] = times
    col = 1
    for block in _evolve_columns(spec, resolved, v, phases):
        block = np.reshape(block, (times.size, -1))
        table[:, col : col + block.shape[1]] = block
        col += block.shape[1]
    checks = (entropy_constancy(table[:, 1], times),) if spec["outputs"]["entropy"] else ()
    tolerances = {"entropy_constancy": ENTROPY_CONSTANCY_TOL}
    return _report("evolution", spec, resolved.columns, resolved.column_paths, table, tolerances, checks)


def _require_transitions(resolved: ResolvedScenario) -> None:
    if not resolved.transition_pairs:
        raise ScenarioValidationError(
            "outputs.transitions: required for a perturbation run (source and targets)"
        )
    for i, (j, k) in enumerate(resolved.transition_pairs):
        if j == k:
            raise ScenarioValidationError(
                f"outputs.transitions.targets[{i}]: target {k} is the source; "
                "a first-order transition needs a different target"
            )


def run_perturbation(spec: dict) -> EvolutionReport:
    """Exact vs first-order transition probabilities for the scenario generator.

    The scenario Hamiltonian plays the role of the perturbing generator; the
    reference basis is the computational (site) basis. Requires an
    outputs.transitions section naming the source state and targets that
    differ from it.
    """
    resolved, v, times, phases = _frame(spec, _require_transitions)
    pairs, h = resolved.transition_pairs, resolved.hamiltonian
    columns = ("t", *(f"{order}_{j}_to_{k}" for j, k in pairs for order in ("exact", "first_order")))
    table = np.empty((times.size, len(columns)))
    table[:, 0] = times
    table[:, 1::2] = _transition_probabilities(v, phases, pairs)
    with np.errstate(over="ignore", invalid="ignore"):  # a t² |H_kj|² beyond float64 is named by _report
        table[:, 2::2] = np.outer(times**2, [abs(h[k, j]) ** 2 for j, k in pairs])
    table[times == 0.0, 2::2] = 0.0  # the law's value at t = 0, where 0 · inf would be NaN
    paths = ("time",) + ("outputs.transitions.targets",) * (len(columns) - 1)
    return _report("perturbation", spec, columns, paths, table, {}, ())
