"""Concrete model systems: spin-1/2, a periodic momentum lattice, coupled pairs."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ensembles import as_density_matrix
from .errors import DomainError, ShapeError
from .linalg import as_matrix, hermitian_eig, identity, kron, require_hermitian

# Grid points per stacked propagator product in rabi_populations: a fixed
# block bounds its working set whatever the grid length.
RABI_BLOCK_POINTS = 256


def pauli() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Fresh copies of (sigma_x, sigma_y, sigma_z)."""
    sigma_x = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sigma_y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sigma_z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    return sigma_x, sigma_y, sigma_z


@dataclass(frozen=True)
class SpinHalfSystem:
    """Two-level system: level splitting ``delta`` plus transverse ``coupling``."""

    delta: float
    coupling: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.delta) and math.isfinite(self.coupling)):
            raise DomainError("spin system parameters must be finite")


def spin_hamiltonian(system: SpinHalfSystem) -> np.ndarray:
    """H = (delta/2) sigma_z + (coupling/2) sigma_x; eigenvalues ±sqrt(delta²+coupling²)/2."""
    sigma_x, _, sigma_z = pauli()
    return (system.delta / 2.0) * sigma_z + (system.coupling / 2.0) * sigma_x


def rabi_populations(system: SpinHalfSystem, times) -> tuple[np.ndarray, np.ndarray]:
    """Populations (p_alpha, p_beta) over ``times`` for the initial state alpha = (1, 0).

    Computed by exact evolution under the spin Hamiltonian, diagonalised once,
    not from any closed form. The grid is evaluated RABI_BLOCK_POINTS points at
    a time: the block's propagators U(t) = (V diag(P_t)) V† are one stacked
    product, which runs the same product on each member as
    ``EigenDecomposition.propagator`` runs on one, and U(t) alpha is column 0
    of each. Each modulus is Python's scalar ``abs``, squared, so a population
    has the bits of ``abs(evolve_state(alpha, h, t)[k]) ** 2``; numpy's
    vectorised complex ``abs`` rounds differently in the last bit. Both arrays
    have the shape of ``times``; a non-finite w t raises DomainError.
    """
    spectrum = hermitian_eig(spin_hamiltonian(system))
    v = spectrum.eigenvectors
    v_dagger = v.conj().T
    flat = np.ravel(times)
    populations = np.empty((*np.shape(times), 2))
    cells = populations.reshape(-1)  # (p_alpha, p_beta) pairs in grid order
    for start in range(0, flat.size, RABI_BLOCK_POINTS):
        block = flat[start : start + RABI_BLOCK_POINTS]
        amplitudes = ((v * spectrum.phases(block)[:, None, :]) @ v_dagger)[:, :, 0]
        cells[2 * start : 2 * (start + block.size)] = [abs(a) ** 2 for a in amplitudes.ravel().tolist()]
    return populations[..., 0], populations[..., 1]


@dataclass(frozen=True)
class LatticeFreeParticle:
    """Free particle on an n-site periodic lattice of physical length ``length``."""

    sites: int
    length: float
    mass: float

    def __post_init__(self):
        if int(self.sites) != self.sites or self.sites < 2:
            raise DomainError(f"need at least 2 sites, got {self.sites}")
        if not (self.length > 0 and math.isfinite(self.length)):
            raise DomainError(f"length must be positive, got {self.length}")
        if not (self.mass > 0 and math.isfinite(self.mass)):
            raise DomainError(f"mass must be positive, got {self.mass}")


def lattice_momenta(system: LatticeFreeParticle) -> np.ndarray:
    """Allowed momenta 2*pi*k/length for k in {-floor(n/2), ..., ceil(n/2)-1}."""
    n = system.sites
    ks = np.arange(-(n // 2), (n + 1) // 2)
    return 2.0 * np.pi * ks / system.length


def lattice_momentum_basis(system: LatticeFreeParticle) -> np.ndarray:
    """Plane-wave basis; row for momentum p has components e^{i p x_s} / sqrt(n).

    Site positions are x_s = s * length / n. The rows are exactly the discrete
    Fourier vectors, so they are orthonormal and complete to rounding error.
    """
    n = system.sites
    x = np.arange(n) * (system.length / n)
    p = lattice_momenta(system)
    return np.exp(1j * np.outer(p, x)) / math.sqrt(n)


def lattice_hamiltonian(system: LatticeFreeParticle) -> np.ndarray:
    """Kinetic energy p^2 / 2m, expressed in the site basis.

    Diagonal in the momentum basis by construction: each plane-wave row is an
    exact eigenvector with eigenvalue p_k^2 / 2m.
    """
    b = lattice_momentum_basis(system)
    energies = lattice_momenta(system) ** 2 / (2.0 * system.mass)
    h = (b.T * energies) @ b.conj()
    return (h + h.conj().T) / 2.0


@dataclass(frozen=True)
class CompositeSystem:
    """Two subsystems with local generators h1, h2 and an interaction term.

    The joint generator is h1 ⊗ 1 + 1 ⊗ h2 + hint on the product space.
    """

    dim_a: int
    dim_b: int
    h1: np.ndarray
    h2: np.ndarray
    hint: np.ndarray

    def __post_init__(self):
        h1 = require_hermitian(self.h1, what="subsystem generator h1")
        h2 = require_hermitian(self.h2, what="subsystem generator h2")
        hint = as_matrix(self.hint)
        if h1.shape != (self.dim_a, self.dim_a):
            raise ShapeError(f"h1 shape {h1.shape} does not match dim_a={self.dim_a}")
        if h2.shape != (self.dim_b, self.dim_b):
            raise ShapeError(f"h2 shape {h2.shape} does not match dim_b={self.dim_b}")
        d = self.dim_a * self.dim_b
        if hint.shape != (d, d):
            raise ShapeError(f"interaction shape {hint.shape} does not match {d}x{d}")
        hint = require_hermitian(hint, what="interaction term")
        object.__setattr__(self, "h1", h1)
        object.__setattr__(self, "h2", h2)
        object.__setattr__(self, "hint", hint)


def coupled_spin_pair(delta_a: float, delta_b: float, g: float) -> CompositeSystem:
    """Two spin-1/2 systems with splittings delta_a, delta_b and g * sigma_x ⊗ sigma_x."""
    sigma_x, _, _ = pauli()
    h1 = spin_hamiltonian(SpinHalfSystem(delta=delta_a))
    h2 = spin_hamiltonian(SpinHalfSystem(delta=delta_b))
    return CompositeSystem(2, 2, h1, h2, g * kron(sigma_x, sigma_x))


def compose_density(rho_a, rho_b) -> np.ndarray:
    """Product state rho_a ⊗ rho_b of two independent ensembles."""
    ra = as_density_matrix(rho_a)
    rb = as_density_matrix(rho_b)
    return np.kron(ra, rb)


def composite_hamiltonian(system: CompositeSystem) -> np.ndarray:
    """h1 ⊗ 1 + 1 ⊗ h2 + hint on the product space."""
    return (
        kron(system.h1, identity(system.dim_b))
        + kron(identity(system.dim_a), system.h2)
        + system.hint
    )
