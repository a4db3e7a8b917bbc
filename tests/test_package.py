"""Tests for the package's public namespace, and for the names the benchmark's tracer binds."""

import importlib
import importlib.util
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import entrodyn

# The names the package exported when __all__ was a hand-written list, less
# Propagator and propagator, which EigenDecomposition.propagator replaced, and
# adjoint and matmul, which m.conj().T and @ replace.
PUBLIC_NAMES = {
    "__version__",
    "ConvergenceError",
    "DomainError",
    "NumericalError",
    "ShapeError",
    "EigenDecomposition",
    "expm_hermitian",
    "expm_oracle",
    "frobenius",
    "hermitian_eig",
    "identity",
    "kron",
    "partial_trace",
    "trace",
    "as_density_matrix",
    "as_orthonormal_basis",
    "as_probability_vector",
    "as_pure_state",
    "basis_residuals",
    "factor_pure",
    "mixture_density",
    "pure_density",
    "shannon_entropy",
    "von_neumann_entropy",
    "evolve_density",
    "evolve_state",
    "expectation",
    "heisenberg_observable",
    "heisenberg_rhs",
    "picture_equivalence",
    "transition_probability_exact",
    "transition_probability_first_order",
    "CompositeSystem",
    "LatticeFreeParticle",
    "SpinHalfSystem",
    "compose_density",
    "composite_hamiltonian",
    "coupled_spin_pair",
    "lattice_hamiltonian",
    "lattice_momenta",
    "lattice_momentum_basis",
    "pauli",
    "rabi_populations",
    "spin_hamiltonian",
}


def test_all_lists_the_public_names_once():
    assert len(PUBLIC_NAMES) == 44
    assert len(entrodyn.__all__) == len(set(entrodyn.__all__))
    assert set(entrodyn.__all__) == PUBLIC_NAMES


def test_all_holds_no_submodule():
    assert not [name for name in entrodyn.__all__ if isinstance(getattr(entrodyn, name), ModuleType)]


def test_star_import_gives_every_name():
    namespace: dict = {}
    exec("from entrodyn import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)


def _tracing_module() -> ModuleType:
    """perfbench/tracing.py, loaded from its file without entering sys.modules."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_names_resolve_on_their_modules():
    # the tracer binds each name with getattr and iterates invariants._CHECKS, so a renamed or deleted
    # name would crash a traced benchmark run
    tracing = _tracing_module()
    missing = []
    for layer, names in tracing.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"entrodyn.{layer}")
        for name in names:
            owner = module
            for part in name.split("."):
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{layer}.{name}")
    assert missing == []
    assert isinstance(importlib.import_module("entrodyn.invariants")._CHECKS, tuple)


def test_cli_import_loads_the_modules_the_tracer_reads():
    """perfbench/tracing.py takes entrodyn.invariants and entrodyn.sampling from sys.modules once the
    benchmark has imported entrodyn.cli, so cli must import both eagerly: lazy imports would save some
    start-up time but crash a traced benchmark run on the scenario workloads, which never reach them."""
    code = "import sys, entrodyn.cli; print(sorted(m for m in ('entrodyn.invariants', 'entrodyn.sampling') if m in sys.modules))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert done.stdout == "['entrodyn.invariants', 'entrodyn.sampling']\n"
