"""Tests for the package's public namespace."""

from types import ModuleType

import entrodyn

# The names the package exported when __all__ was a hand-written list.
PUBLIC_NAMES = {
    "__version__",
    "ConvergenceError",
    "DomainError",
    "NumericalError",
    "ShapeError",
    "EigenDecomposition",
    "adjoint",
    "expm_hermitian",
    "expm_oracle",
    "frobenius",
    "hermitian_eig",
    "identity",
    "kron",
    "matmul",
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
    "Propagator",
    "evolve_density",
    "evolve_state",
    "expectation",
    "heisenberg_observable",
    "heisenberg_rhs",
    "picture_equivalence",
    "propagator",
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
    assert len(PUBLIC_NAMES) == 48
    assert len(entrodyn.__all__) == len(set(entrodyn.__all__))
    assert set(entrodyn.__all__) == PUBLIC_NAMES


def test_all_holds_no_submodule():
    assert not [name for name in entrodyn.__all__ if isinstance(getattr(entrodyn, name), ModuleType)]


def test_star_import_gives_every_name():
    namespace: dict = {}
    exec("from entrodyn import *", namespace)
    assert PUBLIC_NAMES <= set(namespace)
