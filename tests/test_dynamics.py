"""Tests for time evolution, both pictures, and transition probabilities.

Closed forms used as oracles here were derived by hand from the 2x2
eigenstructure: exp(-i theta sigma_n) = cos(theta) 1 - i sin(theta) sigma_n
for any Pauli axis n, which gives spin precession and the flip probability
sin^2 in closed form.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrodyn.dynamics import (
    evolve_density,
    evolve_state,
    expectation,
    heisenberg_observable,
    heisenberg_rhs,
    picture_equivalence,
    transition_probability_exact,
    transition_probability_first_order,
)
from entrodyn.ensembles import pure_density, von_neumann_entropy
from entrodyn.errors import DomainError, ShapeError
from entrodyn.linalg import expm_hermitian, frobenius, hermitian_eig, identity
from entrodyn.sampling import (
    random_density_matrix,
    random_hermitian,
    random_orthonormal_basis,
    random_pure_state,
    random_real_symmetric,
    rng_for,
)
from entrodyn.systems import pauli

SX, SY, SZ = pauli()
ALPHA = np.array([1.0, 0.0], dtype=complex)


class TestPropagator:
    def test_zero_time_identity(self):
        h = random_hermitian(rng_for(1), 4)
        u = hermitian_eig(h).propagator(0.0)
        np.testing.assert_allclose(u, identity(4), atol=1e-14)
        np.testing.assert_array_equal(u, expm_hermitian(h, 0.0))

    def test_sigma_z_quarter_period(self):
        # eigenphases e^{-i (±1) pi/2} -> diag(-i, i)
        u = hermitian_eig(SZ).propagator(np.pi / 2)
        np.testing.assert_allclose(u, np.diag([-1j, 1j]), atol=1e-14)

    def test_unitarity(self):
        u = hermitian_eig(random_hermitian(rng_for(2), 5)).propagator(1.3)
        assert frobenius(u.conj().T @ u - identity(5)) <= 1e-9

    def test_phase_rows_build_the_propagator(self):
        h = random_hermitian(rng_for(5), 6)
        spectrum = hermitian_eig(h)
        w, v = spectrum  # still unpacks as (eigenvalues, eigenvectors)
        times = np.linspace(-2.0, 3.0, 7)
        phases = spectrum.phases(times)
        assert phases.shape == (7, 6)
        np.testing.assert_allclose(phases, np.exp(-1j * np.outer(times, w)), rtol=0, atol=1e-15)
        for t, row in zip(times, phases):
            np.testing.assert_array_equal((v * row) @ v.conj().T, spectrum.propagator(t))
            np.testing.assert_array_equal(spectrum.propagator(t), expm_hermitian(h, t))


class TestSpectrumArgument:
    """Every evolution function takes H or its EigenDecomposition and gives the same bits."""

    def test_matrix_and_spectrum_agree(self):
        rng = rng_for(41)
        h, x = random_hermitian(rng, 5), random_hermitian(rng, 5)
        psi, rho = random_pure_state(rng, 5), random_density_matrix(rng, 5)
        basis = random_orthonormal_basis(rng, 5)
        spectrum = hermitian_eig(h)
        pairs = [
            (evolve_state(psi, h, 0.9), evolve_state(psi, spectrum, 0.9)),
            (evolve_density(rho, h, 0.9), evolve_density(rho, spectrum, 0.9)),
            (heisenberg_observable(x, h, 0.9), heisenberg_observable(x, spectrum, 0.9)),
            (
                transition_probability_exact(basis, 0, 3, h, 0.9),
                transition_probability_exact(basis, 0, 3, spectrum, 0.9),
            ),
            (picture_equivalence(x, rho, h, 0.9), picture_equivalence(x, rho, spectrum, 0.9)),
        ]
        for from_matrix, from_spectrum in pairs:
            np.testing.assert_array_equal(from_matrix, from_spectrum)

    def test_spectrum_is_not_diagonalised_again(self, eig_calls):
        spectrum = hermitian_eig(random_hermitian(rng_for(42), 4))
        rho = random_density_matrix(rng_for(43), 4)
        for t in np.linspace(0.0, 1.0, 5):
            evolve_density(rho, spectrum, t)
        assert eig_calls == []

    def test_non_hermitian_matrix_still_rejected(self):
        skew = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(DomainError):
            evolve_state(ALPHA, skew, 1.0)
        with pytest.raises(DomainError):
            evolve_density(pure_density(ALPHA), skew, 1.0)

    def test_stack_of_generators_rejected(self):
        stack = np.stack([SZ, SX])
        for generator in (stack, hermitian_eig(stack)):
            with pytest.raises(ShapeError):
                evolve_state(ALPHA, generator, 1.0)
            with pytest.raises(ShapeError):
                evolve_density(pure_density(ALPHA), generator, 1.0)
            with pytest.raises(ShapeError):
                heisenberg_observable(SZ, generator, 1.0)

    def test_dimension_checked_against_spectrum(self):
        with pytest.raises(ShapeError):
            evolve_state(random_pure_state(rng_for(44), 3), hermitian_eig(SZ), 1.0)


# times at which exp(-i H t) is undefined: t itself is not finite, or w t overflows
NON_FINITE_TIMES = [(SZ, np.inf), (SZ, -np.inf), (SZ, np.nan), (1e300 * SZ, 1e10)]


class TestNonFiniteTimes:
    """A time with some w t not finite raises DomainError, without a RuntimeWarning, instead of
    returning NaN entries (or, for a transition probability, min(1.0, nan) = 1.0)."""

    @pytest.mark.parametrize(("h", "t"), NON_FINITE_TIMES)
    def test_every_evolution_raises(self, h, t):
        evolutions = [
            lambda: evolve_state(ALPHA, h, t),
            lambda: evolve_density(pure_density(ALPHA), h, t),
            lambda: heisenberg_observable(SX, h, t),
            lambda: picture_equivalence(SX, pure_density(ALPHA), h, t),
            lambda: transition_probability_exact(np.eye(2), 0, 1, h, t),
        ]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for evolve in evolutions:
                with pytest.raises(DomainError, match="w t is not finite"):
                    evolve()

    def test_largest_finite_product_still_evolves(self):
        psi = evolve_state(ALPHA, 2.0 * SZ, np.finfo(float).max / 2.0)
        assert np.isfinite(psi).all() and abs(np.vdot(psi, psi).real - 1.0) <= 1e-12


class TestEvolveState:
    def test_eigenstate_picks_up_phase_only(self):
        psi = evolve_state(ALPHA, SZ, 0.8)
        np.testing.assert_allclose(psi, np.exp(-0.8j) * ALPHA, atol=1e-14)
        np.testing.assert_allclose(np.abs(psi) ** 2, [1.0, 0.0], atol=1e-14)

    def test_zero_time(self):
        psi0 = random_pure_state(rng_for(3), 6)
        np.testing.assert_allclose(evolve_state(psi0, random_hermitian(rng_for(4), 6), 0.0), psi0, atol=1e-14)

    def test_superposition_phases(self):
        psi0 = np.array([1.0, 1.0]) / np.sqrt(2)
        psi = evolve_state(psi0, SZ, np.pi / 2)
        expected = np.array([-1j, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(psi, expected, atol=1e-14)
        np.testing.assert_allclose(np.abs(psi) ** 2, [0.5, 0.5], atol=1e-14)

    def test_norm_preserved(self):
        rng = rng_for(5)
        psi = evolve_state(random_pure_state(rng, 7), random_hermitian(rng, 7), 2.7)
        assert abs(np.vdot(psi, psi).real - 1.0) <= 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            evolve_state(ALPHA, random_hermitian(rng_for(6), 3), 1.0)


class TestEvolveDensity:
    def test_maximally_mixed_fixed_point(self):
        rho = identity(5) / 5
        out = evolve_density(rho, random_hermitian(rng_for(7), 5), 3.3)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_diagonal_mixture_static_under_diagonal_generator(self):
        rho = np.diag([0.75, 0.25]).astype(complex)
        for t in (0.3, 1.7, 9.2):
            np.testing.assert_allclose(evolve_density(rho, SZ, t), rho, atol=1e-12)

    def test_pure_state_stays_pure_while_rotating(self):
        rho0 = pure_density(ALPHA)
        h = 0.5 * SX  # coupling 1
        populations = []
        for t in (0.0, 1.0, 2.0):
            rho_t = evolve_density(rho0, h, t)
            assert von_neumann_entropy(rho_t) <= 1e-8
            populations.append(rho_t[0, 0].real)
        assert np.ptp(populations) > 0.5  # they really do oscillate

    @given(st.integers(0, 2**32 - 1), st.sampled_from([2, 4, 8, 16]))
    def test_entropy_invariant(self, seed, dim):
        rng = rng_for(seed)
        rho = random_density_matrix(rng, dim)
        h = random_hermitian(rng, dim)
        t = float(rng.uniform(0.0, 10.0))
        assert abs(von_neumann_entropy(evolve_density(rho, h, t)) - von_neumann_entropy(rho)) <= 1e-9

    @given(st.integers(0, 2**32 - 1))
    def test_contracts_preserved(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 9))
        rho = random_density_matrix(rng, dim)
        rho_t = evolve_density(rho, random_hermitian(rng, dim), float(rng.uniform(0, 10)))
        assert abs(np.trace(rho_t).real - 1.0) <= 1e-10
        assert frobenius(rho_t - rho_t.conj().T) <= 1e-10
        assert hermitian_eig(rho_t).eigenvalues[0] >= -1e-9


class TestHeisenbergObservable:
    def test_conserved_when_commuting(self):
        h = random_hermitian(rng_for(8), 4)
        np.testing.assert_allclose(heisenberg_observable(h, h, 2.2), h, atol=1e-10)

    def test_spin_precession(self):
        # hand expansion of U† sigma_x U for U = exp(-i sigma_z t):
        # sigma_x cos(2t) - sigma_y sin(2t) with delta = 2
        for t in (0.0, 0.4, 1.1):
            out = heisenberg_observable(SX, SZ, t)
            expected = SX * np.cos(2 * t) - SY * np.sin(2 * t)
            np.testing.assert_allclose(out, expected, atol=1e-12)

    def test_zero_time_exact(self):
        x0 = random_hermitian(rng_for(9), 5)
        np.testing.assert_allclose(heisenberg_observable(x0, random_hermitian(rng_for(10), 5), 0.0), x0, atol=1e-13)

    @given(st.integers(0, 2**32 - 1))
    def test_spectrum_preserved(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 10))
        x0 = random_hermitian(rng, dim)
        xt = heisenberg_observable(x0, random_hermitian(rng, dim), float(rng.uniform(0, 10)))
        w0 = hermitian_eig(x0).eigenvalues
        wt = hermitian_eig(xt).eigenvalues
        assert np.max(np.abs(w0 - wt)) <= 1e-9


class TestExpectation:
    def test_identity_normalization(self):
        rho = random_density_matrix(rng_for(11), 4)
        assert abs(expectation(identity(4), rho) - 1.0) <= 1e-12

    def test_sigma_z_population_difference(self):
        rho = np.diag([0.8, 0.2]).astype(complex)
        assert abs(expectation(SZ, rho) - 0.6) <= 1e-14

    def test_sigma_x_on_alpha(self):
        assert abs(expectation(SX, pure_density(ALPHA))) <= 1e-14

    def test_rejects_non_hermitian_observable(self):
        with pytest.raises(DomainError):
            expectation(np.array([[0, 1], [0, 0]], dtype=complex), identity(2) / 2)


class TestPictureEquivalence:
    def test_commuting_observable(self):
        h = random_hermitian(rng_for(12), 4)
        rho = random_density_matrix(rng_for(13), 4)
        a, b = picture_equivalence(h, rho, h, 1.5)
        fixed = expectation(h, rho)
        assert abs(a - fixed) <= 1e-9 and abs(b - fixed) <= 1e-9

    def test_resonant_half_period_flip(self):
        # h = (omega/2) sigma_x, t = pi/omega: alpha -> beta, so <sigma_z> = -1
        omega = 1.0
        a, b = picture_equivalence(SZ, pure_density(ALPHA), (omega / 2) * SX, np.pi / omega)
        assert abs(a + 1.0) <= 1e-9
        assert abs(b + 1.0) <= 1e-9

    def test_diagonalises_once(self, eig_calls):
        picture_equivalence(SZ, pure_density(ALPHA), 0.5 * SX, 1.0)
        assert len(eig_calls) == 1

    @given(st.integers(0, 2**32 - 1))
    def test_agreement_random(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 9))
        x0 = random_hermitian(rng, dim)
        rho0 = random_density_matrix(rng, dim)
        h = random_hermitian(rng, dim)
        a, b = picture_equivalence(x0, rho0, h, float(rng.uniform(0, 5)))
        assert abs(a - b) <= 1e-9 * max(abs(a), 1.0)


class TestHeisenbergRhs:
    def test_generator_is_conserved(self):
        h = random_hermitian(rng_for(14), 5)
        np.testing.assert_allclose(heisenberg_rhs(h, h), np.zeros((5, 5)), atol=1e-12)

    def test_pauli_commutator(self):
        # i (delta/2) [sigma_z, sigma_x] = -delta sigma_y, with delta = 2
        np.testing.assert_allclose(heisenberg_rhs(SX, SZ), -2 * SY, atol=1e-14)

    def test_hermiticity_preserved(self):
        rng = rng_for(15)
        out = heisenberg_rhs(random_hermitian(rng, 6), random_hermitian(rng, 6))
        assert frobenius(out - out.conj().T) <= 1e-12

    def test_central_difference_matches(self):
        rng = rng_for(16)
        h = random_hermitian(rng, 4)
        x0 = random_hermitian(rng, 4)
        t, delta = 0.6, 1e-4
        xt = heisenberg_observable(x0, h, t)
        cd = (heisenberg_observable(x0, h, t + delta) - heisenberg_observable(x0, h, t - delta)) / (2 * delta)
        assert frobenius(cd - heisenberg_rhs(xt, h)) <= 1e-6

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            heisenberg_rhs(identity(2), identity(3))


class TestTransitionProbabilities:
    def _spin_basis(self):
        return np.eye(2, dtype=complex)

    def test_zero_perturbation(self):
        basis = self._spin_basis()
        for t in (0.0, 1.0, 5.0):
            assert transition_probability_exact(basis, 0, 1, np.zeros((2, 2)), t) <= 1e-15
            assert abs(transition_probability_exact(basis, 0, 0, np.zeros((2, 2)), t) - 1.0) <= 1e-15

    def test_rabi_flip_probability(self):
        # oracle: |<beta| exp(-i (omega/2) sigma_x t) |alpha>|^2 = sin^2(omega t / 2)
        omega = 1.3
        basis = self._spin_basis()
        for t in (0.0, 0.7, 2.9):
            exact = transition_probability_exact(basis, 0, 1, (omega / 2) * SX, t)
            assert abs(exact - np.sin(omega * t / 2) ** 2) <= 1e-12

    def test_zero_time_is_kronecker(self):
        basis = random_orthonormal_basis(rng_for(17), 5)
        hp = random_hermitian(rng_for(18), 5)
        for j in range(5):
            for k in range(5):
                p = transition_probability_exact(basis, j, k, hp, 0.0)
                assert abs(p - (1.0 if j == k else 0.0)) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_row_sums_to_one(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 8))
        basis = random_orthonormal_basis(rng, dim)
        hp = random_hermitian(rng, dim)
        t = float(rng.uniform(0, 5))
        total = sum(transition_probability_exact(basis, 0, k, hp, t) for k in range(dim))
        assert abs(total - 1.0) <= 1e-9

    def test_first_order_spin_law(self):
        # oracle: t^2 |<beta|(omega/2) sigma_x|alpha>|^2 = t^2 omega^2 / 4
        omega, t = 2.0, 0.01  # omega * t = 0.02
        basis = self._spin_basis()
        first = transition_probability_first_order(basis, 0, 1, (omega / 2) * SX, t)
        assert abs(first - t**2 * omega**2 / 4) <= 1e-15
        exact = transition_probability_exact(basis, 0, 1, (omega / 2) * SX, t)
        # Taylor: sin^2(x)/x^2 = 1 - x^2/3 + ..., so relative gap <= (omega t)^2 / 12 * 1.01
        assert abs(exact / first - 1.0) <= (omega * t) ** 2 / 12 * 1.01

    def test_vanishing_matrix_element(self):
        basis = self._spin_basis()
        for t in (0.1, 1.0, 4.0):
            assert transition_probability_first_order(basis, 0, 1, SZ, t) == 0.0

    def test_first_order_rejects_diagonal(self):
        with pytest.raises(DomainError):
            transition_probability_first_order(self._spin_basis(), 1, 1, SX, 0.1)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            transition_probability_exact(self._spin_basis(), 0, 2, SX, 0.1)
        with pytest.raises(IndexError):
            transition_probability_first_order(self._spin_basis(), -1, 1, SX, 0.1)

    def test_small_time_ratio_approaches_one(self):
        rng = rng_for(19)
        hp = random_real_symmetric(rng, 5)
        basis = np.eye(5, dtype=complex)
        t = 0.01 / frobenius(hp)
        j, k = 0, 1
        exact = transition_probability_exact(basis, j, k, hp, t)
        first = transition_probability_first_order(basis, j, k, hp, t)
        assert 0.99 <= exact / first <= 1.01

    def test_first_order_error_scales_quadratically(self):
        rng = rng_for(20)
        hp = random_real_symmetric(rng, 6)
        basis = np.eye(6, dtype=complex)
        norm = frobenius(hp)
        j, k = 0, 1
        errors = []
        times = [1e-3 / norm, 1e-2 / norm, 1e-1 / norm]
        for t in times:
            exact = transition_probability_exact(basis, j, k, hp, t)
            first = transition_probability_first_order(basis, j, k, hp, t)
            errors.append(abs(exact / first - 1.0))
        slope = np.polyfit(np.log(times), np.log(errors), 1)[0]
        assert 1.8 <= slope <= 2.2


class TestEvolutionConsistency:
    @given(st.integers(0, 2**32 - 1))
    def test_state_and_density_routes_agree(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 8))
        psi0 = random_pure_state(rng, dim)
        h = random_hermitian(rng, dim)
        t = float(rng.uniform(0, 5))
        via_state = pure_density(evolve_state(psi0, h, t))
        via_density = evolve_density(pure_density(psi0), h, t)
        assert frobenius(via_state - via_density) <= 1e-10
