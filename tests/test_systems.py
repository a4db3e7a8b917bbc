"""Tests for the concrete model systems.

The Rabi oracle used throughout was derived by hand before the build from
the 2x2 eigenstructure: writing H = E (n . sigma) with E = sqrt(d^2+w^2)/2
and n = (w, 0, d)/sqrt(d^2+w^2) gives U(t) = cos(Et) 1 - i sin(Et) (n.sigma),
so starting from alpha the beta population is

    p_beta(t) = (w^2 / (d^2 + w^2)) sin^2(sqrt(d^2 + w^2) t / 2).

The coupled-pair demo admits the same reduction on the {aa, bb} subspace
(splitting 2*delta, coupling 2*g), which fixes its entanglement ceiling.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrodyn.dynamics import evolve_state
from entrodyn.ensembles import (
    basis_residuals,
    pure_density,
    von_neumann_entropy,
)
from entrodyn.errors import DomainError, ShapeError
from entrodyn.linalg import frobenius, hermitian_eig, identity, kron, partial_trace
from entrodyn.sampling import random_density_matrix, rng_for
from entrodyn.systems import (
    RABI_BLOCK_POINTS,
    CompositeSystem,
    LatticeFreeParticle,
    SpinHalfSystem,
    alpha_populations,
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

SX, SY, SZ = pauli()


def rabi_beta_oracle(delta: float, omega: float, t: float) -> float:
    """Hand-derived closed form for the beta population starting from alpha."""
    e2 = delta * delta + omega * omega
    if e2 == 0.0:
        return 0.0
    return (omega * omega / e2) * math.sin(math.sqrt(e2) * t / 2.0) ** 2


class TestPauli:
    def test_sigma_z_diagonal(self):
        np.testing.assert_array_equal(SZ, np.diag([1.0, -1.0]).astype(complex))

    def test_squares_are_identity(self):
        for s in (SX, SY, SZ):
            np.testing.assert_allclose(s @ s, identity(2), atol=0)

    def test_commutator(self):
        np.testing.assert_allclose(SX @ SY - SY @ SX, 2j * SZ, atol=0)

    def test_hermitian_traceless_unitary(self):
        for s in (SX, SY, SZ):
            np.testing.assert_array_equal(s, s.conj().T)
            assert np.trace(s) == 0
            np.testing.assert_allclose(s @ s.conj().T, identity(2), atol=0)

    def test_fresh_copies(self):
        a, _, _ = pauli()
        a[0, 0] = 99.0
        b, _, _ = pauli()
        assert b[0, 0] == 0.0


class TestSpinHamiltonian:
    def test_pure_splitting(self):
        h = spin_hamiltonian(SpinHalfSystem(delta=2.0))
        np.testing.assert_allclose(h, np.diag([1.0, -1.0]).astype(complex), atol=0)
        np.testing.assert_allclose(hermitian_eig(h).eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_pure_coupling(self):
        h = spin_hamiltonian(SpinHalfSystem(delta=0.0, coupling=2.0))
        np.testing.assert_allclose(h, SX, atol=0)
        np.testing.assert_allclose(hermitian_eig(h).eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_three_four_five(self):
        h = spin_hamiltonian(SpinHalfSystem(delta=3.0, coupling=4.0))
        np.testing.assert_allclose(hermitian_eig(h).eigenvalues, [-2.5, 2.5], atol=1e-13)

    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            SpinHalfSystem(delta=float("inf"))


class TestRabiPopulations:
    def test_eigenstate_persists(self):
        system = SpinHalfSystem(delta=1.7, coupling=0.0)
        for t in (0.0, 2.0, 9.5):
            pa, pb = rabi_populations(system, t)
            assert abs(pa - 1.0) <= 1e-12
            assert pb <= 1e-12

    def test_resonant_full_flip(self):
        pa, pb = rabi_populations(SpinHalfSystem(delta=0.0, coupling=1.0), math.pi)
        assert pa <= 1e-12
        assert abs(pb - 1.0) <= 1e-12

    def test_detuned_half_transfer(self):
        pa, pb = rabi_populations(SpinHalfSystem(delta=1.0, coupling=1.0), math.pi / math.sqrt(2))
        assert abs(pb - 0.5) <= 1e-12

    @pytest.mark.parametrize("delta,omega", [(0.0, 1.0), (1.0, 1.0), (3.0, 4.0)])
    def test_matches_closed_form(self, delta, omega):
        system = SpinHalfSystem(delta=delta, coupling=omega)
        worst = 0.0
        for t in np.linspace(0.0, 20.0, 250):
            _, pb = rabi_populations(system, float(t))
            worst = max(worst, abs(pb - rabi_beta_oracle(delta, omega, float(t))))
        assert worst <= 1e-9

    def test_grid_matches_pointwise_bit_for_bit(self):
        system = SpinHalfSystem(delta=1.3, coupling=0.7)
        times = np.linspace(0.0, 100.0, 40)
        pa, pb = rabi_populations(system, times)
        assert pa.shape == pb.shape == times.shape
        for i, t in enumerate(times):
            np.testing.assert_array_equal((pa[i], pb[i]), rabi_populations(system, float(t)))

    def test_grid_diagonalises_once(self, eig_calls):
        pa, pb = rabi_populations(SpinHalfSystem(delta=0.4, coupling=1.1), np.linspace(0.0, 50.0, 3000))
        assert len(eig_calls) == 1
        assert pa.shape == (3000,) and float(np.max(np.abs(pa + pb - 1.0))) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_populations_sum_to_one(self, seed):
        rng = rng_for(seed)
        system = SpinHalfSystem(delta=float(rng.uniform(-3, 3)), coupling=float(rng.uniform(-3, 3)))
        pa, pb = rabi_populations(system, float(rng.uniform(0, 20)))
        assert abs(pa + pb - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        ("delta", "times"),
        [(1.0, np.inf), (1.0, np.nan), (1.0, [0.0, 1.0, -np.inf]), (1e300, np.linspace(0.0, 1e10, 600))],
    )
    def test_non_finite_time_raises(self, delta, times):
        system = SpinHalfSystem(delta=delta, coupling=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="w t is not finite"):
                rabi_populations(system, times)

    def test_blocked_grid_equals_pointwise_route_bit_for_bit(self):
        """Blocked stacked propagators against evolve_state point by point, compared as int64
        views so that signed zeros count: seeded grids, δ = 0, Ω = 0, both signs of δ, a scalar,
        a 2-D array, an empty grid and grids spanning several blocks."""
        cases = [
            (SpinHalfSystem(0.0, 1.0), 2.5),
            (SpinHalfSystem(1.7, 0.0), np.linspace(0.0, 40.0, 3 * RABI_BLOCK_POINTS + 5).reshape(-1, 1)),
            (SpinHalfSystem(-2.0, 0.3), np.linspace(-5.0, 5.0, 60).reshape(6, 10)),
            (SpinHalfSystem(0.4, 1.1), np.empty(0)),
            (SpinHalfSystem(0.0, 0.0), np.linspace(0.0, 1.0, 7)),
        ]
        for seed in range(40):
            rng = rng_for(seed)
            delta, omega = rng.uniform(-5.0, 5.0, size=2)
            delta = 0.0 if seed % 8 == 0 else -abs(delta) if seed % 8 == 1 else delta
            omega = 0.0 if seed % 8 == 2 else omega
            points = int(rng.integers(1, 3 * RABI_BLOCK_POINTS))
            cases.append((SpinHalfSystem(delta, omega), np.linspace(0.0, 10.0 ** rng.uniform(-2.0, 3.0), points)))
        for system, times in cases:
            for got, want in zip(rabi_populations(system, times), _pointwise_populations(system, times)):
                assert got.shape == np.shape(times)
                np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))

    def test_moduli_equal_scalar_abs_squared_bit_for_bit(self):
        """Seeded amplitudes of every magnitude from 1e-160 to 1e150, zeros of each sign, subnormal
        parts and unit-disk values, fed to alpha_populations as the first column of a stand-in
        propagator stack: each population has the bits of Python's ``abs(a) ** 2``."""
        rng = rng_for(30)
        size = 3 * RABI_BLOCK_POINTS + 11
        magnitude = 10.0 ** rng.uniform(-160.0, 150.0, 2 * size)
        amplitudes = magnitude * np.exp(2j * np.pi * rng.random(2 * size))
        amplitudes[: size // 2] = np.sqrt(rng.random(size // 2)) * np.exp(2j * np.pi * rng.random(size // 2))
        subnormal = rng.integers(1, 2**52, 200, dtype=np.uint64).view(np.float64)
        amplitudes[-200:] = subnormal + 1j * rng.choice([0.0, -0.0, 1e-310, 0.5], 200)
        zeros = [0.0, -0.0]
        amplitudes[-208:-200] = [complex(re, im) for re in zeros for im in zeros] + [5e-324j, -5e-324, 1.0, -1j]
        column = amplitudes.reshape(size, 2)

        class Stack:
            def propagator(self, times):
                stack = np.zeros((len(times), 2, 2), dtype=np.complex128)
                stack[:, :, 0] = column[times.astype(int)]
                return stack

        pa, pb = alpha_populations(Stack(), np.arange(size, dtype=float))
        want = np.array([abs(a) ** 2 for a in amplitudes.tolist()])
        np.testing.assert_array_equal(np.column_stack((pa, pb)).ravel().view(np.int64), want.view(np.int64))

    def test_working_set_is_one_block(self):
        """At 10**5 points the peak stays within a constant of the (T, 2) populations it returns,
        so no whole-grid propagator stack (6.4 MB here) is ever built."""
        times = np.linspace(0.0, 50.0, 10**5)
        tracemalloc.start()
        try:
            pa, pb = rabi_populations(SpinHalfSystem(delta=0.4, coupling=1.1), times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= pa.nbytes + pb.nbytes + 256 * 2**10


def _pointwise_populations(system: SpinHalfSystem, times) -> tuple[np.ndarray, np.ndarray]:
    """The oracle of rabi_populations: U(t) alpha from evolve_state at each point, squared by scalar abs."""
    spectrum = hermitian_eig(spin_hamiltonian(system))
    alpha = np.array([1.0, 0.0], dtype=np.complex128)
    populations = np.empty((*np.shape(times), 2))
    for row, t in zip(populations.reshape(-1, 2), np.ravel(times)):
        row[:] = [abs(a) ** 2 for a in evolve_state(alpha, spectrum, t)]
    return populations[..., 0], populations[..., 1]


class TestLattice:
    def test_two_site_basis(self):
        basis = lattice_momentum_basis(LatticeFreeParticle(sites=2, length=2 * math.pi, mass=1.0))
        inv_sqrt2 = 1.0 / math.sqrt(2.0)
        # k = -1 row is (1, -1)/sqrt(2); k = 0 row is (1, 1)/sqrt(2)
        np.testing.assert_allclose(basis[0], [inv_sqrt2, -inv_sqrt2], atol=1e-15)
        np.testing.assert_allclose(basis[1], [inv_sqrt2, inv_sqrt2], atol=1e-15)

    def test_zero_momentum_row_is_constant(self):
        system = LatticeFreeParticle(sites=5, length=3.0, mass=2.0)
        basis = lattice_momentum_basis(system)
        k0 = int(np.where(lattice_momenta(system) == 0.0)[0][0])
        np.testing.assert_allclose(basis[k0], np.full(5, 1 / math.sqrt(5)), atol=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8, 16, 33, 64])
    def test_residuals(self, n):
        basis = lattice_momentum_basis(LatticeFreeParticle(sites=n, length=1.0, mass=1.0))
        ortho, completeness = basis_residuals(basis)
        assert ortho <= 1e-12
        assert completeness <= 1e-12

    def test_two_site_spectrum(self):
        h = lattice_hamiltonian(LatticeFreeParticle(sites=2, length=2 * math.pi, mass=1.0))
        np.testing.assert_allclose(hermitian_eig(h).eigenvalues, [0.0, 0.5], atol=1e-13)

    def test_four_site_spectrum(self):
        h = lattice_hamiltonian(LatticeFreeParticle(sites=4, length=2 * math.pi, mass=1.0))
        np.testing.assert_allclose(hermitian_eig(h).eigenvalues, [0.0, 0.5, 0.5, 2.0], atol=1e-13)

    def test_momentum_rows_are_eigenvectors(self):
        system = LatticeFreeParticle(sites=6, length=4.0, mass=0.5)
        h = lattice_hamiltonian(system)
        basis = lattice_momentum_basis(system)
        energies = lattice_momenta(system) ** 2 / (2 * system.mass)
        for row, energy in zip(basis, energies):
            assert np.linalg.norm(h @ row - energy * row) <= 1e-10

    def test_commutes_with_momentum_projectors(self):
        system = LatticeFreeParticle(sites=8, length=2.0, mass=1.0)
        h = lattice_hamiltonian(system)
        for row in lattice_momentum_basis(system):
            proj = np.outer(row, row.conj())
            assert frobenius(h @ proj - proj @ h) <= 1e-10

    @pytest.mark.parametrize(
        "sites, length, mass", [(2, 1.0, 1.0), (3, 6.5, 0.3), (8, 2 * math.pi, 1.0), (64, 0.01, 7.0)]
    )
    def test_hermitian_part_keeps_its_bits(self, sites, length, mass):
        # each term is halved before the sum, which is exact in the normal range: the bits of (h + h†) / 2
        system = LatticeFreeParticle(sites=sites, length=length, mass=mass)
        b = lattice_momentum_basis(system)
        h = (b.T * (lattice_momenta(system) ** 2 / (2.0 * mass))) @ b.conj()
        np.testing.assert_array_equal(lattice_hamiltonian(system), (h + h.conj().T) / 2.0)

    def test_diagonal_near_the_float64_limit(self):
        # the mean kinetic energy, every diagonal entry, is 0.96e308: doubling it would overflow
        system = LatticeFreeParticle(sites=3, length=1.0, mass=1.373e-307)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            h = lattice_hamiltonian(system)
        np.testing.assert_allclose(h.diagonal().real, 2.0 / 3.0 * (2 * math.pi) ** 2 / (2 * 1.373e-307), rtol=1e-14)
        np.testing.assert_array_equal(h, h.conj().T)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            LatticeFreeParticle(sites=1, length=1.0, mass=1.0)
        with pytest.raises(DomainError):
            LatticeFreeParticle(sites=4, length=0.0, mass=1.0)
        with pytest.raises(DomainError):
            LatticeFreeParticle(sites=4, length=1.0, mass=-2.0)


class TestComposeDensity:
    def test_pure_times_pure_is_pure(self):
        rho = compose_density(pure_density([1.0, 0.0]), pure_density([0.0, 1.0]))
        assert von_neumann_entropy(rho) <= 1e-8

    def test_mixed_times_mixed(self):
        rho = compose_density(identity(2) / 2, identity(2) / 2)
        np.testing.assert_allclose(rho, identity(4) / 4, atol=0)
        assert abs(von_neumann_entropy(rho) - math.log(4.0)) <= 1e-12

    def test_weight_products(self):
        rho = compose_density(np.diag([0.7, 0.3]).astype(complex), np.diag([0.6, 0.4]).astype(complex))
        np.testing.assert_allclose(rho, np.diag([0.42, 0.28, 0.18, 0.12]).astype(complex), atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    def test_entropy_additivity(self, seed):
        rng = rng_for(seed)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        joint = compose_density(rho_a, rho_b)
        assert abs(
            von_neumann_entropy(joint) - von_neumann_entropy(rho_a) - von_neumann_entropy(rho_b)
        ) <= 1e-9


class TestCompositeHamiltonian:
    def test_uncoupled_spectrum(self):
        system = coupled_spin_pair(2.0, 2.0, 0.0)
        h = composite_hamiltonian(system)
        np.testing.assert_allclose(h, np.diag([2.0, 0.0, 0.0, -2.0]).astype(complex), atol=0)

    def test_uncoupled_propagator_factorizes(self):
        system = coupled_spin_pair(1.3, 0.7, 0.0)
        t = 2.1
        u = hermitian_eig(composite_hamiltonian(system)).propagator(t)
        u1 = hermitian_eig(system.h1).propagator(t)
        u2 = hermitian_eig(system.h2).propagator(t)
        assert frobenius(u - kron(u1, u2)) <= 1e-9

    def test_coupled_is_hermitian(self):
        h = composite_hamiltonian(coupled_spin_pair(1.0, 1.0, 0.3))
        assert frobenius(h - h.conj().T) <= 1e-14

    def test_shape_validation(self):
        with pytest.raises(ShapeError):
            CompositeSystem(2, 3, SZ, SZ, np.zeros((6, 6)))
        with pytest.raises(ShapeError):
            CompositeSystem(2, 2, SZ, SZ, np.zeros((6, 6)))

    def test_interaction_must_be_hermitian(self):
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 3] = 1.0
        with pytest.raises(DomainError):
            CompositeSystem(2, 2, SZ, SZ, bad)


class TestUncoupledIsolation:
    @given(st.integers(0, 2**32 - 1))
    def test_product_evolution_factorizes(self, seed):
        from entrodyn.dynamics import evolve_density

        rng = rng_for(seed)
        system = coupled_spin_pair(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 0.0)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        t = float(rng.uniform(0, 8))
        joint = evolve_density(compose_density(rho_a, rho_b), composite_hamiltonian(system), t)
        split = compose_density(
            evolve_density(rho_a, system.h1, t), evolve_density(rho_b, system.h2, t)
        )
        assert frobenius(joint - split) <= 1e-9


class TestEntanglementDemo:
    """Coupled pair, delta_a = delta_b = 1, g = 0.3, initial alpha ⊗ alpha.

    On the {aa, bb} subspace this is a two-level problem with splitting 2
    and coupling 0.6, so the flip probability ceiling is 0.36/4.36 ~ 0.0826
    and the subsystem entropy ceiling is its binary entropy ~ 0.285 nats.
    A pre-build brute-force sweep over t in [0, 20] reproduced that ceiling
    (max subsystem entropy 0.28500), fixing the 0.1-nat threshold used here.
    """

    DELTA = 1.0
    G = 0.3

    def _run(self, t):
        system = coupled_spin_pair(self.DELTA, self.DELTA, self.G)
        h = composite_hamiltonian(system)
        psi0 = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
        psi_t = evolve_state(psi0, h, t)
        return pure_density(psi_t)

    def test_global_entropy_stays_zero(self):
        for t in np.linspace(0.0, 20.0, 41):
            assert von_neumann_entropy(self._run(float(t))) <= 1e-9

    def test_subsystem_entropy_departs(self):
        best = 0.0
        for t in np.linspace(0.0, 20.0, 161):
            rho_a = partial_trace(self._run(float(t)), 2, 2, "A")
            best = max(best, von_neumann_entropy(rho_a))
        assert best >= 0.1

    def test_subsystem_entropy_matches_subspace_reduction(self):
        # reduction oracle: p_flip(t) from the Rabi closed form with
        # splitting 2*delta and coupling 2*g; S_A = binary entropy of p_flip
        for t in (0.9, 1.5, 3.3):
            rho_a = partial_trace(self._run(t), 2, 2, "A")
            p = rabi_beta_oracle(2 * self.DELTA, 2 * self.G, t)
            expected = 0.0 if p in (0.0, 1.0) else -p * math.log(p) - (1 - p) * math.log(1 - p)
            assert abs(von_neumann_entropy(rho_a) - expected) <= 1e-9
