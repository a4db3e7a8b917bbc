"""Entropy-preserving unitary dynamics of finite quantum ensembles.

Classical ensemble weights factor into complex amplitudes, amplitudes stack
into density matrices, Hermitian generators exponentiate into unitary
propagators, and every construction preserves the ensemble entropy. The
package provides the numerical substrate (dense complex linear algebra with
a self-contained Hermitian eigensolver), the ensemble and dynamics layers,
concrete model systems, and a CLI that runs scenario files and an invariant
suite.
"""

from types import ModuleType as _ModuleType

__version__ = "0.1.0"

from .errors import (
    ConvergenceError,
    DomainError,
    NumericalError,
    ShapeError,
)
from .linalg import (
    EigenDecomposition,
    adjoint,
    expm_hermitian,
    expm_oracle,
    frobenius,
    hermitian_eig,
    identity,
    kron,
    matmul,
    partial_trace,
    trace,
)
from .ensembles import (
    as_density_matrix,
    as_orthonormal_basis,
    as_probability_vector,
    as_pure_state,
    basis_residuals,
    factor_pure,
    mixture_density,
    pure_density,
    shannon_entropy,
    von_neumann_entropy,
)
from .dynamics import (
    Propagator,
    evolve_density,
    evolve_state,
    expectation,
    heisenberg_observable,
    heisenberg_rhs,
    picture_equivalence,
    propagator,
    transition_probability_exact,
    transition_probability_first_order,
)
from .systems import (
    CompositeSystem,
    LatticeFreeParticle,
    SpinHalfSystem,
    compose_density,
    composite_hamiltonian,
    coupled_spin_pair,
    lattice_hamiltonian,
    lattice_momenta,
    lattice_momentum_basis,
    pauli,
    rabi_populations,
    spin_hamiltonian,
)

# Every public name imported above, in import order; submodules are not exported.
__all__ = ["__version__"] + [
    name for name, value in globals().items() if not name.startswith("_") and not isinstance(value, _ModuleType)
]
