"""Seeded workload inputs, the CLI commands that consume them, and the
independent output check.

Every input is drawn from the benchmark's own PCG64 stream for
(seed, workload); the program only ever sees the JSON documents written to
disk and the command-line arguments. The check recomputes every CSV column
with ``numpy.linalg.eigh`` (LAPACK), which shares no code with the program's
Jacobi eigensolver.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("dense_entropy", "lattice_observables", "spin_grid", "verify_suite")

# Problem sizes. "full" is what the benchmark measures; "tiny" keeps the
# smoke test fast and exercises the same code paths.
SIZES = {
    "full": {
        "dense_n": 32,
        "dense_points": 6,
        "lattice_n": 64,
        "lattice_points": 201,
        "spin_points": 3000,
        "verify_dims": "2,4,8",
    },
    "tiny": {
        "dense_n": 4,
        "dense_points": 5,
        "lattice_n": 4,
        "lattice_points": 5,
        "spin_points": 7,
        "verify_dims": "2",
    },
}

# A CSV value passes when |got - expected| <= CHECK_ATOL * max(1, |expected|).
# The CSV carries 15 significant digits and the Jacobi route agrees with
# LAPACK to about 1e-13 on these inputs, so 1e-9 leaves a wide margin while
# still rejecting any wrong column.
CHECK_ATOL = 1e-9
# Smallest gap allowed in the dense Hamiltonian's spectrum ("generic").
MIN_LEVEL_GAP = 1e-3

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@dataclass
class Model:
    """What the reference needs to recompute an evolve/perturb/rabi CSV."""

    hamiltonian: np.ndarray
    rho0: np.ndarray
    times: np.ndarray
    entropy: bool = False
    observables: tuple = ()  # ((label, matrix), ...)
    populations: tuple = ()  # population column labels, one per basis state
    transitions: tuple = ()  # ((source, target), ...)


@dataclass
class Command:
    """One ``entrodyn`` invocation of a pass.

    ``argv`` names files relative to the work directory by the placeholders
    ``{doc}``, ``{csv}`` and ``{summary}``; ``Workload.argv`` fills them in.
    """

    kind: str  # evolve | perturb | rabi | verify
    argv: tuple
    model: Model | None = None
    points: int = 0  # CSV time-grid rows this command emits


@dataclass
class Workload:
    documents: dict  # file name -> JSON text
    commands: list

    @property
    def scenario_points(self) -> int:
        """Grid points handled by run_scenario / run_perturbation per pass."""
        return sum(c.points for c in self.commands if c.kind in ("evolve", "perturb"))

    def write_documents(self, directory: str) -> list:
        paths = []
        for name, text in self.documents.items():
            path = os.path.join(directory, name)
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(text)
            paths.append(path)
        return paths

    @staticmethod
    def _paths(index: int, directory: str) -> dict:
        return {
            "doc": os.path.join(directory, "scenario.json"),
            "csv": os.path.join(directory, f"out{index}.csv"),
            "summary": os.path.join(directory, f"summary{index}.json"),
        }

    def argv(self, index: int, directory: str) -> list:
        return [part.format(**self._paths(index, directory)) for part in self.commands[index].argv]

    def output_files(self, index: int, directory: str) -> tuple:
        """(csv path, summary path) written by a command, or (None, None)."""
        if self.commands[index].kind not in ("evolve", "perturb"):
            return None, None
        paths = self._paths(index, directory)
        return paths["csv"], paths["summary"]


def _rng(seed: int, name: str) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence([seed % 2**64, WORKLOADS.index(name)]))
    )


def _gue(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return (a + a.conj().T) / 2.0


def _complex_json(m: np.ndarray) -> list:
    return [[[float(z.real), float(z.imag)] for z in row] for row in m]


def _linspace(stop: float, points: int) -> np.ndarray:
    return np.linspace(0.0, stop, points) if points > 1 else np.array([0.0])


def _dense_entropy(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "dense_entropy")
    # Grid spacing 0.025, as on a 201-point grid over [0, 5]. Each point after
    # t = 0 costs one cold 32x32 Jacobi solve (about 70 ms on a 2.1 GHz Xeon),
    # so 6 points keep a command near 0.35 s: short enough that the host's
    # speed rarely changes during one, which the calibration relies on.
    n, points = size["dense_n"], size["dense_points"]
    stop = 0.025 * (points - 1)
    h = _gue(rng, n)
    while np.min(np.diff(np.linalg.eigvalsh(h))) < MIN_LEVEL_GAP:
        h = _gue(rng, n)
    weights = rng.standard_exponential(n)
    weights = weights / weights.sum()
    obs_a, obs_b = _gue(rng, n), _gue(rng, n)
    document = {
        "system": {"kind": "explicit-matrices", "hamiltonian": _complex_json(h)},
        "initial": {"probabilities": weights.tolist()},
        "time": {"start": 0.0, "stop": stop, "points": points},
        "observables": [
            {"name": "energy"},
            {"name": "matrix", "label": "obs_a", "matrix": _complex_json(obs_a)},
            {"name": "matrix", "label": "obs_b", "matrix": _complex_json(obs_b)},
        ],
        "outputs": {"entropy": True, "expectations": True, "populations": False},
    }
    model = Model(
        hamiltonian=h,
        rho0=np.diag(weights).astype(complex),
        times=_linspace(stop, points),
        entropy=True,
        observables=(("energy", h), ("obs_a", obs_a), ("obs_b", obs_b)),
    )
    return Workload(
        {"scenario.json": json.dumps(document)},
        [Command("evolve", ("evolve", "{doc}", "--out", "{csv}", "--summary", "{summary}"), model, points)],
    )


def _lattice(sites: int, length: float, mass: float) -> tuple:
    """(H in the site basis, plane-wave rows, momentum labels k) for a periodic lattice."""
    ks = np.arange(-(sites // 2), (sites + 1) // 2)
    momenta = 2.0 * np.pi * ks / length
    x = np.arange(sites) * (length / sites)
    waves = np.exp(1j * np.outer(momenta, x)) / math.sqrt(sites)
    h = waves.T @ np.diag(momenta**2 / (2.0 * mass)) @ waves.conj()
    return (h + h.conj().T) / 2.0, waves, ks


def _lattice_observables(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "lattice_observables")
    n, points, stop = size["lattice_n"], size["lattice_points"], 1.0
    length, mass = 2.0 * math.pi, 1.0
    site = int(rng.integers(0, n))
    document = {
        "system": {"kind": "lattice", "sites": n, "length": length, "mass": mass},
        "initial": {"state": "site", "index": site},
        "time": {"start": 0.0, "stop": stop, "points": points},
        "observables": [{"name": "energy"}, {"name": "momentum_populations"}],
        "outputs": {
            "entropy": False,
            "expectations": True,
            "populations": True,
            "transitions": {"source": site, "targets": "all"},
        },
    }
    h, waves, ks = _lattice(n, length, mass)
    rho0 = np.zeros((n, n), dtype=complex)
    rho0[site, site] = 1.0
    model = Model(
        hamiltonian=h,
        rho0=rho0,
        times=_linspace(stop, points),
        observables=(("energy", h),)
        + tuple((f"mom_pop_{k}", np.outer(w, w.conj())) for k, w in zip(ks, waves)),
        populations=tuple(f"pop_{i}" for i in range(n)),
        transitions=tuple((site, k) for k in range(n) if k != site),
    )
    return Workload(
        {"scenario.json": json.dumps(document)},
        [
            Command("evolve", ("evolve", "{doc}", "--out", "{csv}", "--summary", "{summary}"), model, points),
            Command("perturb", ("perturb", "{doc}", "--out", "{csv}", "--summary", "{summary}"), model, points),
        ],
    )


def _spin_grid(seed: int, size: dict) -> Workload:
    rng = _rng(seed, "spin_grid")
    # n = 2, so every point is dominated by per-call Python overhead at any
    # grid size; 3000 points keep each of evolve and rabi near 0.3-0.5 s.
    points, stop = size["spin_points"], 100.0
    delta, omega = (float(x) for x in rng.uniform(0.5, 2.0, size=2))
    p = float(rng.uniform(0.6, 0.9))
    document = {
        "system": {"kind": "spin-half", "delta": delta, "omega": omega},
        "initial": {"probabilities": [p, 1.0 - p]},
        "time": {"start": 0.0, "stop": stop, "points": points},
        "observables": [{"name": "sigma_x"}, {"name": "sigma_z"}, {"name": "energy"}],
        "outputs": {
            "entropy": True,
            "expectations": True,
            "populations": True,
            "transitions": {"source": 0, "targets": [1]},
        },
    }
    h = (delta / 2.0) * PAULI_Z + (omega / 2.0) * PAULI_X
    times = _linspace(stop, points)
    evolve = Model(
        hamiltonian=h,
        rho0=np.diag([p, 1.0 - p]).astype(complex),
        times=times,
        entropy=True,
        observables=(("sigma_x", PAULI_X), ("sigma_z", PAULI_Z), ("energy", h)),
        populations=("pop_alpha", "pop_beta"),
        transitions=((0, 1),),
    )
    rabi = Model(
        hamiltonian=h,
        rho0=np.diag([1.0, 0.0]).astype(complex),
        times=times,
        populations=("pop_alpha", "pop_beta"),
    )
    rabi_argv = ("rabi", "--delta", repr(delta), "--omega", repr(omega), "--t-max", repr(stop), "--points", str(points))
    return Workload(
        {"scenario.json": json.dumps(document)},
        [
            Command("evolve", ("evolve", "{doc}", "--out", "{csv}", "--summary", "{summary}"), evolve, points),
            Command("rabi", rabi_argv, rabi, points),
        ],
    )


def _verify_suite(seed: int, size: dict) -> Workload:
    argv = ("verify", "--seed", str(seed), "--dims", size["verify_dims"])
    return Workload({}, [Command("verify", argv)])


_BUILDERS = {
    "dense_entropy": _dense_entropy,
    "lattice_observables": _lattice_observables,
    "spin_grid": _spin_grid,
    "verify_suite": _verify_suite,
}


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's documents and commands, drawn from ``seed``."""
    return _BUILDERS[name](int(seed), SIZES[size])


# ---------------------------------------------------------------------------
# Independent reference
# ---------------------------------------------------------------------------


def expected_columns(kind: str, model: Model) -> dict:
    """Column label -> expected values over the time grid, via LAPACK eigh."""
    w, v = np.linalg.eigh(model.hamiltonian)
    t = model.times
    u = (v[None, :, :] * np.exp(-1j * np.outer(t, w))[:, None, :]) @ v.conj().T
    columns = {"t": t}
    if kind == "perturb":
        for j, k in model.transitions:
            columns[f"exact_{j}_to_{k}"] = np.abs(u[:, k, j]) ** 2
            columns[f"first_order_{j}_to_{k}"] = t**2 * abs(model.hamiltonian[k, j]) ** 2
        return columns
    rho = u @ model.rho0 @ np.conj(np.swapaxes(u, 1, 2))
    if model.entropy:
        spectrum = np.clip(np.linalg.eigvalsh(rho), 0.0, None)
        logs = np.log(np.where(spectrum > 0.0, spectrum, 1.0))
        columns["entropy"] = -np.sum(spectrum * logs, axis=1)
    for label, matrix in model.observables:
        columns[label] = np.einsum("ij,tji->t", matrix, rho).real
    diagonal = np.diagonal(rho, axis1=1, axis2=2).real
    for i, label in enumerate(model.populations):
        columns[label] = diagonal[:, i]
    for j, k in model.transitions:
        columns[f"trans_{j}_to_{k}"] = np.abs(u[:, k, j]) ** 2
    return columns


def check_csv(kind: str, model: Model, text: str) -> list:
    """Problems found comparing a CSV with the reference; empty when it matches."""
    lines = text.splitlines()
    if len(lines) < 2 or not lines[0].startswith("# entrodyn "):
        return ["CSV lacks the '# entrodyn' banner and header"]
    header = lines[1].split(",")
    expected = expected_columns(kind, model)
    if header != list(expected):
        return [f"CSV header {header[:6]}... differs from expected {list(expected)[:6]}..."]
    rows = lines[2:]
    if len(rows) != model.times.size:
        return [f"CSV has {len(rows)} rows, expected {model.times.size}"]
    try:
        table = np.array([row.split(",") for row in rows], dtype=float)
    except ValueError as exc:
        return [f"CSV row does not parse: {exc}"]
    if table.shape != (model.times.size, len(header)):
        return [f"CSV table has shape {table.shape}"]
    problems = []
    for i, (label, want) in enumerate(expected.items()):
        error = np.abs(table[:, i] - want) / np.maximum(1.0, np.abs(want))
        worst = int(np.argmax(error))
        if not error[worst] <= CHECK_ATOL:
            problems.append(
                f"column {label} row {worst}: {float(table[worst, i])!r} vs reference {float(want[worst])!r}"
            )
    return problems


def check_summary(model: Model, header: list, text: str) -> list:
    try:
        summary = json.loads(text)
    except ValueError as exc:
        return [f"summary is not JSON: {exc}"]
    problems = []
    if summary.get("passed") is not True:
        problems.append("summary reports passed != true")
    if summary.get("rows") != model.times.size or summary.get("columns") != header:
        problems.append("summary rows/columns disagree with the CSV")
    if model.entropy:
        verdicts = [c for c in summary.get("checks", []) if c.get("name") == "entropy-constancy"]
        if len(verdicts) != 1 or verdicts[0].get("passed") is not True:
            problems.append("summary lacks a passing entropy-constancy verdict")
    return problems


def check_verify(text: str) -> list:
    """Problems in ``entrodyn verify`` output: any FAIL, or a wrong tally."""
    lines = text.splitlines()
    verdicts = lines[1:-1]
    if len(lines) < 3 or not lines[0].startswith("invariant suite:"):
        return ["verify output lacks its banner"]
    problems = [line for line in verdicts if not line.startswith("PASS ")]
    if lines[-1] != f"{len(verdicts)}/{len(verdicts)} checks passed":
        problems.append(f"verify tally reads {lines[-1]!r}")
    return problems


def check_command(command: Command, code, stdout: str, csv_text: str | None, summary_text: str | None) -> list:
    """Every problem with one command's outputs; empty when it succeeded."""
    if code != 0:
        return [f"{command.kind} exited with {code!r}"]
    if command.kind == "verify":
        return check_verify(stdout)
    if command.kind == "rabi":
        return check_csv("rabi", command.model, stdout)
    lines = (csv_text or "").splitlines()
    header = lines[1].split(",") if len(lines) > 1 else []
    return check_csv(command.kind, command.model, csv_text or "") + check_summary(
        command.model, header, summary_text or ""
    )


def output_rows(command: Command, stdout: str) -> int:
    """Rows of output a command produced: grid points, or verify's check lines."""
    if command.kind == "verify":
        return max(0, len(stdout.splitlines()) - 2)
    return command.points
