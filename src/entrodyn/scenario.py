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
dimension, its Hamiltonian, its named bases and its factors. Parsing, the
dimension bound and resolution all read the same row.

Both runs, ``run_scenario`` (evolve) and ``run_perturbation`` (perturb),
walk one column table of blocks over one exp(-i H t): evolve's is the
resolved scenario's, perturb's a single block of exact and first-order
transition columns. Reports are deterministic: the same document and
package version produce byte-identical CSV and summary output. A report's
checks, like those of the invariant suite, are CheckResults: each summary
check carries ``worst``, the grid time that set its residual, and a FAIL
line names it.
"""

from __future__ import annotations

import json
import math
from collections import namedtuple
from collections.abc import Callable
from dataclasses import asdict, dataclass, field
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .csvtext import write_csv
from .dynamics import EXPECTATION_IMAG_ATOL
from .ensembles import (
    as_probability_vector,
    as_pure_state,
    pure_density,
    spectrum_entropy,
)
from .errors import DomainError, NumericalError, ShapeError
from .linalg import hermitian_eig, require_hermitian, stack_eig
from .systems import (
    LatticeFreeParticle,
    SpinHalfSystem,
    _wavenumbers,
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
# Bytes of one entropy block's A_t stack, (points, n, n) complex, certified by
# one stack_eig call (n = 2: 2048 points, n = 64: 2, n = 128: 1). The
# block's traced peak is about 8.3 times this (1,067 KiB at n = 2): the basis,
# the densities, their products and the solver's temporaries.
ENTROPY_BLOCK_BYTES = 2**17

# named initial state -> (the basis it is a ket of, its index there; None when the document gives it)
NAMED_STATES = {"alpha": ("site", 0), "beta": ("site", 1), "site": ("site", None), "momentum": ("momentum", None)}
# observable name -> (named basis, column label prefix): one population column per ket of the basis
POPULATION_OBSERVABLES = {"site_populations": ("site", "site_pop_"), "momentum_populations": ("momentum", "mom_pop_")}
NAMED_OBSERVABLES = ("sigma_x", "sigma_y", "sigma_z", "energy", *POPULATION_OBSERVABLES, "subsystem_entropies")


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


class _RepeatedKey(dict):
    """A JSON object that gives its field ``key`` more than once, each field at its last value as ``json.loads``
    keeps it. Every mapping a reader accepts passes ``_as_mapping``, which rejects this one with its path."""

    def __init__(self, pairs, key):
        super().__init__(pairs)
        self.key = key


def _json_object(pairs):
    seen = set()
    for key, _ in pairs:
        if key in seen:
            return _RepeatedKey(pairs, key)
        seen.add(key)
    return dict(pairs)


_scalar_text = json.JSONEncoder().encode


def _json_text(node) -> str:
    """The text ``json.dumps`` writes for ``node`` with ``indent=2, sort_keys=True``, for a tree of
    str-keyed dicts, lists and tuples. An array of finite floats and [re, im] pairs of them (a
    probability vector, a matrix row) is written by one ``%r`` template, as json writes each float by
    ``float.__repr__``; every other scalar, and an empty container, goes through the C encoder, which
    json uses only without an indent. The pieces are joined once, so no subtree's text is copied into
    its parent's."""
    pieces = []
    write = pieces.append

    def tree(node, pad):  # pad starts a line at the node's depth
        if isinstance(node, (list, tuple)) and node:
            inner = pad + "  "
            comma = "," + inner
            pair = f"[{inner}  %r,{inner}  %r{inner}]"
            slots, numbers = [], []
            for item in node:
                if type(item) is float:
                    slots.append("%r")
                    numbers.append(item)
                elif type(item) is list and len(item) == 2 and type(item[0]) is float and type(item[1]) is float:
                    slots.append(pair)
                    numbers += item
                else:
                    break
            else:
                # a sum is finite only if every term is; a row whose sum overflows takes the walk below
                if math.isfinite(sum(numbers)):
                    write(f"[{inner}{comma.join(slots)}{pad}]" % tuple(numbers))
                    return
            sep = "[" + inner
            for item in node:
                write(sep)
                tree(item, inner)
                sep = comma
            write(pad + "]")
        elif isinstance(node, dict) and node:
            inner = pad + "  "
            sep, comma = "{" + inner, "," + inner
            for key in sorted(node):
                write(f"{sep}{encode_basestring_ascii(key)}: ")
                sep = comma
                tree(node[key], inner)
            write(pad + "}")
        else:
            write(_scalar_text(node))

    tree(node, "\n")
    return "".join(pieces)


def _as_mapping(node, path, allowed):
    if not isinstance(node, dict):
        raise ScenarioParseError(f"{path}: expected a mapping, got {type(node).__name__}")
    unknown = sorted(set(node) - set(allowed))
    if unknown:
        raise ScenarioParseError(f"{path}: unknown field(s) {', '.join(unknown)}")
    if isinstance(node, _RepeatedKey):
        raise ScenarioParseError(f"{path}: field {node.key!r} is given twice")
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


def _complex_scalar(node, path, i):
    """Entry ``i`` of the array at ``path`` in document form: a plain real when its imaginary part is 0,
    else [re, im]. Each part goes through ``_number``, which names the entry's path."""
    path = f"{path}[{i}]"
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _number(node, path)
    if isinstance(node, list) and len(node) == 2:
        re, im = _number(node[0], f"{path}[0]"), _number(node[1], f"{path}[1]")
        return re if im == 0.0 else [re, im]
    raise ScenarioParseError(f"{path}: expected a number or [re, im] pair, got {node!r}")


def _complex_vector(node, path) -> list:
    """The entries of the array at ``path`` in document form. A finite float, or a pair of them, is
    taken in place, a pair with an imaginary part as the document's own list; any other entry goes
    through ``_complex_scalar``."""
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected a nonempty array")
    entries = []
    for i, entry in enumerate(node):
        if type(entry) is float:
            if entry - entry == 0.0:
                entries.append(entry)
                continue
        elif type(entry) is list and len(entry) == 2:
            re, im = entry
            if type(re) is float and type(im) is float and re - re == 0.0 and im - im == 0.0:
                entries.append(re if im == 0.0 else entry)
                continue
        entries.append(_complex_scalar(entry, path, i))
    return entries


def _complex_matrix(node, path) -> list:
    """The rows of a complex matrix. Its shape is read first: rows that are arrays, of equal lengths,
    and at most MAX_DIMENSION of them and wide; only then its entries."""
    if not isinstance(node, list) or not node:
        raise ScenarioParseError(f"{path}: expected a nonempty array of rows")
    for i, row in enumerate(node):
        if not isinstance(row, list):
            raise ScenarioParseError(f"{path}[{i}]: expected an array row")
    width = len(node[0])
    if any(len(row) != width for row in node):
        raise ScenarioParseError(f"{path}: rows have unequal lengths")
    size = max(len(node), width)
    if size > MAX_DIMENSION:
        raise ScenarioValidationError(f"{path}: dimension {size} exceeds MAX_DIMENSION = {MAX_DIMENSION}")
    return [_complex_vector(row, f"{path}[{i}]") for i, row in enumerate(node)]


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
    # (system section, bases) -> H in the site basis, where bases(name) is the resolution's named Basis;
    # an error's message starts with its field
    hamiltonian: Callable
    bases: dict = field(default_factory=dict)  # named bases besides "site": name -> (system section -> Basis)
    levels: tuple = ()  # names of the site states in 'pop_*' headers; their indices when empty
    eigenbasis: str | None = None  # the basis of ``bases`` that diagonalises H, the seed of H's solve; None: cold
    factors: tuple = ()  # (dim_a, dim_b) of a bipartite system, site a * dim_b + b; empty when not one


def _lattice(system: dict) -> LatticeFreeParticle:
    return LatticeFreeParticle(sites=system["sites"], length=system["length"], mass=system["mass"])


def _momentum_basis(system: dict) -> Basis:
    """Plane waves, labelled by k for momentum 2 pi k / length."""
    lattice = _lattice(system)
    return Basis(labels=tuple(_wavenumbers(lattice.sites).tolist()), kets=lattice_momentum_basis(lattice))


SYSTEM_KINDS = {
    "spin-half": SystemKind(
        fields=(Field("delta", _number), Field("omega", _number, 0.0)),
        dimension=2,
        hamiltonian=lambda p, bases: spin_hamiltonian(SpinHalfSystem(delta=p["delta"], coupling=p["omega"])),
        levels=("alpha", "beta"),
    ),
    "lattice": SystemKind(
        fields=(Field("sites", _integer), Field("length", _number), Field("mass", _number)),
        dimension="sites",
        hamiltonian=lambda p, bases: lattice_hamiltonian(_lattice(p), bases("momentum").kets),
        bases={"momentum": _momentum_basis},
        eigenbasis="momentum",  # H is diagonal in the plane waves
    ),
    "composite": SystemKind(
        fields=(Field("delta_a", _number), Field("delta_b", _number), Field("g", _number, 0.0)),
        dimension=4,
        hamiltonian=lambda p, bases: composite_hamiltonian(coupled_spin_pair(p["delta_a"], p["delta_b"], p["g"])),
        factors=(2, 2),
    ),
    "explicit-matrices": SystemKind(
        fields=(Field("hamiltonian", _complex_matrix),),
        dimension="hamiltonian",
        hamiltonian=lambda p, bases: require_hermitian(_complex_array(p["hamiltonian"]), what="hamiltonian"),
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


def _document_spec(text: str) -> dict:
    """The spec of a scenario document: every field read and checked, no reference resolved yet."""
    try:
        document = json.loads(text, parse_int=_json_integer, object_pairs_hook=_json_object)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(
            f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        ) from exc
    except RecursionError:
        raise ScenarioParseError("invalid JSON: arrays or objects nested too deeply") from None
    document = _as_mapping(document, "document", ("system", "initial", "time", "observables", "outputs"))
    return _given(
        {
            "system": _parse_system(_require(document, "system", "document")),
            "initial": _parse_initial(_require(document, "initial", "document")),
            "time": _read_fields(_require(document, "time", "document"), "time", TIME_FIELDS),
            "observables": _observables(document.get("observables", []), "observables"),
            "outputs": _read_fields(document.get("outputs", {}), "outputs", OUTPUT_FIELDS),
        }
    )


def parse_scenario(text: str) -> dict:
    """Parse and validate a scenario document; returns the spec, the document in its normal form."""
    spec = _document_spec(text)
    resolve_scenario(spec)  # validation: every reference must resolve
    return spec


def _read_spec(path) -> dict:
    """The spec of the scenario file at ``path``, no reference resolved yet; ScenarioParseError when the
    file is not UTF-8 text."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        bad = exc.object[exc.start : exc.end].hex()
        raise ScenarioParseError(f"scenario is not UTF-8 text: {exc.reason} 0x{bad}") from None
    return _document_spec(text)


def load_scenario(path) -> dict:
    """Read and validate the scenario file at ``path``; returns the spec."""
    spec = _read_spec(path)
    resolve_scenario(spec)  # validation: every reference must resolve
    return spec


def serialize_scenario(spec: dict) -> str:
    return _json_text(spec) + "\n"


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
    # ((path, labels, kind, source), ...): every evolve column after t, in header order, as a block
    # of columns labelled ``labels`` that the field ``path`` asks for. By kind, the source is:
    # "entropy", None; "expectation", the Hermitian matrix of one column; "populations", the Basis
    # whose populations make one column per ket; "subsystem_entropies", the factors (dim_a, dim_b);
    # "transitions", the pairs ((source, target), ...)
    column_table: tuple
    # the system kind's eigenbasis of H as columns, the seed of H's solve; None when the kind has none
    hamiltonian_seed: np.ndarray | None


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


def _header(column_table: tuple) -> tuple:
    """(names, paths): a column table's CSV header, t and each block's labels, and the field of each name."""
    names = ("t", *(label for _, labels, _, _ in column_table for label in labels))
    return names, ("time", *(path for path, labels, _, _ in column_table for _ in labels))


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


def _kind_row(system: dict, has: Callable, what: str) -> SystemKind:
    """The system kind's SYSTEM_KINDS row when ``has(row)``; else ScenarioValidationError: ``what``,
    the reference, needs a system of a kind whose row has it."""
    row = SYSTEM_KINDS[system["kind"]]
    if not has(row):
        kinds = " or ".join(kind for kind, other in SYSTEM_KINDS.items() if has(other))
        raise ScenarioValidationError(f"{what} needs a {kinds} system")
    return row


def _named_basis(system: dict, name: str, dim: int, what: str, built: dict) -> Basis:
    """The named basis of the system; ``what`` names the reference in the error when it has none.
    Each is built once per resolution: ``built`` holds the ones built so far, by name."""
    if name == "site":
        return Basis(labels=tuple(range(dim)))
    if name not in built:
        built[name] = _kind_row(system, lambda row: name in row.bases, what).bases[name](system)
    return built[name]


def _resolve_initial(spec: dict, dim: int, built: dict) -> tuple:
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
        basis = _named_basis(spec["system"], name, dim, f"initial.state: {state!r}", built)
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


def _resolve_observables(spec: dict, dim: int, h: np.ndarray, built: dict) -> tuple:
    """((path, labels, kind, source), ...), one entry per observables[i]; see ResolvedScenario.
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
            entries.append((path, (label or name,), "expectation", named[name]))
        elif name in POPULATION_OBSERVABLES:
            basis_name, prefix = POPULATION_OBSERVABLES[name]
            basis = _named_basis(spec["system"], basis_name, dim, f"{path}: {name}", built)
            entries.append((path, tuple(f"{prefix}{ket}" for ket in basis.labels), "populations", basis))
        elif name == "subsystem_entropies":
            row = _kind_row(spec["system"], lambda row: row.factors, f"{path}: {name}")
            entries.append((path, ("entropy_a", "entropy_b"), "subsystem_entropies", row.factors))
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
            entries.append((path, (label or f"obs_{i}",), "expectation", matrix))
    return tuple(entries)


def _check_header(columns: tuple, paths: tuple) -> None:
    """Reject a header name that a CSV header cell cannot hold (a comma, a quote, a CR or a LF) or that
    the header gives twice, naming the field that gives it."""
    owner: dict = {}
    for name, path in zip(columns, paths):
        if "," in name or '"' in name or "\r" in name or "\n" in name:
            raise ScenarioValidationError(
                f"{path}: column {name!r} holds a comma, a quote or a line break, which a CSV header cannot"
            )
        if name in owner:
            raise ScenarioValidationError(f"{path}: column {name!r} is already taken by {owner[name]}")
        owner[name] = path


def resolve_scenario(spec: dict) -> ResolvedScenario:
    """Materialize all matrices a run needs, validating every reference.

    The dimension bound is checked before any matrix is built, and the grid
    bounds as soon as the evolve header is known.
    """
    system, outputs = spec["system"], spec["outputs"]
    row = SYSTEM_KINDS[system["kind"]]
    dim = _dimension(system)
    built: dict = {}
    try:
        h = row.hamiltonian(system, lambda name: _named_basis(system, name, dim, "", built))
    except (DomainError, ShapeError) as exc:
        raise ScenarioValidationError(f"system.{exc}") from exc
    rho0, kets, weights = _resolve_initial(spec, dim, built)
    observables = _resolve_observables(spec, dim, h, built)  # checked whether or not they are written
    table = (("outputs.entropy", ("entropy",), "entropy", None),) if outputs["entropy"] else ()
    table += observables if outputs["expectations"] else ()
    if outputs["populations"]:
        site = Basis(labels=row.levels or tuple(range(dim)))
        table += (("outputs.populations", tuple(f"pop_{level}" for level in site.labels), "populations", site),)

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
        if targets:
            labels = tuple(f"trans_{source}_to_{k}" for k in targets)
            table += (("outputs.transitions.targets", labels, "transitions", tuple((source, k) for k in targets)),)

    # a kind's eigenbasis is one of its named bases, so no reference can lack it
    seed = None if row.eigenbasis is None else _named_basis(system, row.eigenbasis, dim, "", built).kets.T
    _check_grid(spec["time"], len(_header(table)[0]), dim)
    return ResolvedScenario(
        dimension=dim,
        hamiltonian=h,
        initial_density=rho0,
        initial_kets=kets,
        initial_weights=weights,
        column_table=table,
        hamiltonian_seed=seed,
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
        return _json_text(self.summary()) + "\n"


def _grid_check(name: str, excess: np.ndarray, times: np.ndarray) -> CheckResult:
    """Pass iff the largest ``excess`` over the grid, or 0 when none is positive, is within
    ENTROPY_CONSTANCY_TOL; ``worst`` names the first grid time that set it."""
    largest = int(np.argmax(excess))
    residual = 0.0 if excess[largest] <= 0.0 else float(excess[largest])
    return CheckResult(
        name=name,
        residual=residual,
        tolerance=ENTROPY_CONSTANCY_TOL,
        passed=residual <= ENTROPY_CONSTANCY_TOL,
        worst=f"t = {times[largest]:.15g}" if residual else None,
    )


def entropy_constancy(entropies, times) -> CheckResult:
    """Pass iff every entropy lies within ENTROPY_CONSTANCY_TOL of the first; ``worst`` names
    the grid time farthest from it."""
    return _grid_check("entropy-constancy", np.abs(entropies - entropies[0]), times)


def _subsystem_inequalities(entropy, entropy_a, entropy_b, times) -> tuple:
    """Subadditivity, S <= S_A + S_B, and Araki-Lieb, |S_A - S_B| <= S (Araki & Lieb, Commun. Math. Phys.
    18, 1970), over the grid: S and S_A, S_B come from separate solves, so neither holds by construction."""
    return (
        _grid_check("subadditivity", entropy - entropy_a - entropy_b, times),
        _grid_check("araki-lieb", np.abs(entropy_a - entropy_b) - entropy, times),
    )


def _entropies(rho0: np.ndarray, phases: np.ndarray, seed: np.ndarray | None) -> np.ndarray:
    """The von Neumann entropy of rho(t)' at each grid point, all in H's eigenbasis.

    Under unitary evolution rho(t)' = D_t rho(0)' D_t† with D_t = diag(P_t),
    so if rho(0)' = X0 Λ X0†, W_t = D_t X0 diagonalises rho(t)' exactly:
    ``rho0`` is solved once, from the eigenbasis ``seed`` when one is known
    (see ``hermitian_eig``), and W_t is built afresh from each phase row, so
    no error carries from one point to the next. The grid is taken a block
    of ENTROPY_BLOCK_BYTES // (16 n²) points (at least one) at a time:
    ``_evolved`` gives rho(t)' for the block's phase rows as a stack, in
    grid order, and one ``stack_eig`` call certifies every
    A_t = W_t† rho(t)' W_t of the block by ``hermitian_eig``'s stopping rule,
    relative to ||A_t||_F = ||rho(t)||_F: an A_t already within it is
    diagonal to that tolerance, and the others are swept together, with the
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
        a = basis.conj().swapaxes(1, 2) @ _evolved(rho0, phases[rows]) @ basis
        entropies[rows] = spectrum_entropy(stack_eig(a)[0])
    return entropies


def _evolved(rho0: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """rho(t)' = rho(0)' ∘ (p p̄ᵀ) for each phase row p, as a stack."""
    return rho0 * (phases[:, :, None] * phases.conj()[:, None, :])


def _phase_sum(m: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """sum_jk P_tj m_jk conj(P_tk) for every t; with m = (V† X V)ᵀ ∘ rho(0)' this is tr(X rho(t)). Taken
    as conj(sum_k conj((P m)_tk) P_tk), conjugated in place, so no conj(P) is allocated; same values."""
    a = phases @ m
    total = np.einsum("tk,tk->t", np.conjugate(a, out=a), phases)
    return np.conjugate(total, out=total)


def _expectations(x: np.ndarray, v: np.ndarray, rho0: np.ndarray, phases: np.ndarray, what: str) -> np.ndarray:
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
            imag = float(np.abs(_phase_sum((vh @ skew @ v).T * rho0, phases)).max())
            if imag > EXPECTATION_IMAG_ATOL:
                raise NumericalError(
                    f"{what}: expectation value has imaginary part {imag:.3e}; "
                    "operands are not Hermitian enough"
                )
        hermitian = x / 2.0 + x.conj().T / 2.0
        return _phase_sum((vh @ hermitian @ v).T * rho0, phases).real


def _amplitudes(phases: np.ndarray, ket: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """<b|U(t)|k> over the grid, a column per row of ``rows``: the ket k as g = V† k, each b as the
    row b̄ᵀ V (``Basis.coefficient_rows``), so <b|U(t)|k> = sum_m (b̄ᵀ V)_m P_tm g_m, one
    (T x n) @ (n x rows) product. With V's own rows these are k's site amplitudes V (P_t ∘ g)."""
    return phases @ (ket[:, None] * rows.T)


def _ket_probabilities(phases: np.ndarray, ket: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """|<b|U(t)|k>|² over the grid, a column per row of ``rows`` (see ``_amplitudes``)."""
    probabilities = np.abs(_amplitudes(phases, ket, rows))
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


def _reduced_states(v: np.ndarray, mixture: list, phases: np.ndarray, factors: tuple) -> tuple:
    """(rho_A(t), rho_B(t)) over the grid as stacks, for ``factors`` (dim_a, dim_b) and rho(0) the ``mixture``
    of (w_k, V† k): each ket's site amplitudes (``_amplitudes`` with V's rows) as (dim_a, dim_b) matrices M_k
    give rho_A = sum_k w_k M_k M_k† and rho_B = sum_k w_k M_kᵀ M̄_k, one (T x n) @ (n x n) product per ket."""
    reduced_a = reduced_b = 0.0
    for weight, ket in mixture:
        m = _amplitudes(phases, ket, v).reshape(-1, *factors)
        reduced_a = reduced_a + weight * (m @ m.conj().swapaxes(1, 2))
        reduced_b = reduced_b + weight * (m.swapaxes(1, 2) @ m.conj())
    return reduced_a, reduced_b


def _subsystem_entropies(v: np.ndarray, mixture: list, phases: np.ndarray, factors: tuple) -> np.ndarray:
    """(S_A, S_B) over the grid, two columns. Each reduced state's stack is solved by ``stack_eig``,
    ENTROPY_BLOCK_BYTES of it at a time so the solver's working set stays bounded, and every point
    has the bits of a lone ``hermitian_eig``."""
    columns = np.empty((len(phases), 2))
    for column, stack in zip(columns.T, _reduced_states(v, mixture, phases, factors)):
        block = max(1, ENTROPY_BLOCK_BYTES // stack[0].nbytes)
        for start in range(0, len(stack), block):
            column[start : start + block] = spectrum_entropy(stack_eig(stack[start : start + block])[0])
    return columns


def _transition_probabilities(v: np.ndarray, phases: np.ndarray, pairs: tuple) -> np.ndarray:
    """|u_kj(t)|^2 for every (j, k) in pairs (one source j), u_kj(t) = sum_m V_km P_tm conj(V_jm)."""
    source = pairs[0][0]
    return _ket_probabilities(phases, v[source].conj(), v[[k for _, k in pairs]])


def _perturbation_table(resolved: ResolvedScenario) -> tuple:
    """perturb's column table: one block of the exact_ and first_order_ columns of each transition
    pair, interleaved. Refuses a scenario without transitions, or with a target that is the source."""
    pairs = next((source for _, _, kind, source in resolved.column_table if kind == "transitions"), ())
    if not pairs:
        raise ScenarioValidationError("outputs.transitions: required for a perturbation run (source and targets)")
    for i, (j, k) in enumerate(pairs):
        if j == k:
            raise ScenarioValidationError(
                f"outputs.transitions.targets[{i}]: target {k} is the source; "
                "a first-order transition needs a different target"
            )
    labels = tuple(f"{order}_{j}_to_{k}" for j, k in pairs for order in ("exact", "first_order"))
    return (("outputs.transitions.targets", labels, "perturbation", pairs),)


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


def _run(spec: dict, kind: str) -> EvolutionReport:
    """The report of a run of ``kind``, "evolution" or "perturbation": the spec's one resolution, which
    also validates it; the run's column table, whose header is checked before H is diagonalised; one
    ``hermitian_eig(H)``, seeded by the system kind's eigenbasis when it has one; and one walk of the
    column table, which fills each block under its own labels and takes each summary check from the
    blocks as they are written."""
    resolved = resolve_scenario(spec)
    column_table = resolved.column_table if kind == "evolution" else _perturbation_table(resolved)
    columns, paths = _header(column_table)
    _check_header(columns, paths)
    spectrum = hermitian_eig(resolved.hamiltonian, resolved.hamiltonian_seed)
    times = time_grid(spec["time"])
    try:
        phases = spectrum.phases(times)
    except DomainError as exc:  # a grid time at which exp(-i H t) is undefined
        raise ScenarioValidationError(f"time: {exc}") from exc
    v = spectrum.eigenvectors
    if kind == "evolution":  # the initial state in H's eigenbasis; no perturbation column reads it
        rho0 = v.conj().T @ resolved.initial_density @ v
        coefficients = resolved.initial_kets.coefficient_rows(v)  # row k: V† k, conjugated
        positive = resolved.initial_weights > 0
        mixture = list(zip(resolved.initial_weights[positive], coefficients[positive].conj()))
    table = np.empty((times.size, len(columns)))
    table[:, 0] = times
    col, checks = 1, ()
    for path, labels, block_kind, source in column_table:
        block = table[:, col : col + len(labels)]
        col += len(labels)
        if block_kind == "entropy":
            # V† K diagonalises rho(0)' when the kets K are a basis; psi alone is none, so it is solved cold
            seed = None if "amplitudes" in spec["initial"] else coefficients.conj().T
            entropy = _entropies(rho0, phases, seed)
            block[:, 0] = entropy
            checks += (entropy_constancy(entropy, times),)
        elif block_kind == "expectation":
            block[:, 0] = _expectations(source, v, rho0, phases, path)
        elif block_kind == "populations":
            block[:] = _populations(source.coefficient_rows(v), mixture, phases)
        elif block_kind == "subsystem_entropies":
            block[:] = _subsystem_entropies(v, mixture, phases, source)
            if checks:  # the entropy column, written first, is there to compare with
                checks += _subsystem_inequalities(entropy, block[:, 0], block[:, 1], times)
        elif block_kind == "transitions":
            block[:] = _transition_probabilities(v, phases, source)
        else:  # perturbation: each pair's exact |u_kj(t)|² beside its small-time law t² |H_kj|²
            block[:, 0::2] = _transition_probabilities(v, phases, source)
            with np.errstate(over="ignore", invalid="ignore"):  # a t² |H_kj|² beyond float64 is named by _report
                block[:, 1::2] = np.outer(times**2, [abs(resolved.hamiltonian[k, j]) ** 2 for j, k in source])
            block[times == 0.0, 1::2] = 0.0  # the law's value at t = 0, where 0 · inf would be NaN
    tolerances = {"entropy_constancy": ENTROPY_CONSTANCY_TOL} if kind == "evolution" else {}
    return _report(kind, spec, columns, paths, table, tolerances, checks)


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
    W_t = diag(P_t) X0 built from rho(0)' = X0 Λ X0†, by one ``stack_eig`` call per
    block of grid points (``_entropies``). A run calls ``hermitian_eig`` for
    H and for rho(0)' alone, each seeded by an eigenbasis the run already holds when
    there is one (a lattice's plane waves for H; V† B for a rho(0) diagonal
    in the basis B). An A_t not already diagonal to its stopping rule, which
    exact unitary evolution does not produce, and the reduced states of the
    subsystem entropies (``_reduced_states``) are swept as stacks.
    The table is the walk of the resolved column table (``_run``).
    """
    return _run(spec, "evolution")


def run_perturbation(spec: dict) -> EvolutionReport:
    """Exact vs first-order transition probabilities for the scenario generator.

    The scenario Hamiltonian plays the role of the perturbing generator; the
    reference basis is the computational (site) basis. Requires an
    outputs.transitions section naming the source state and targets that
    differ from it. Its table is one block (``_perturbation_table``) walked by ``_run``.
    """
    return _run(spec, "perturbation")
