"""Tests for probability vectors, states, density matrices, and entropies."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrodyn import ensembles
from entrodyn.ensembles import (
    DENSITY_HERMITICITY_ATOL,
    DENSITY_TRACE_ATOL,
    EIGENVALUE_CLAMP,
    as_density_matrix,
    as_orthonormal_basis,
    as_probability_vector,
    as_pure_state,
    basis_residuals,
    factor_pure,
    mixture_density,
    pure_density,
    shannon_entropy,
    spectrum_entropy,
    von_neumann_entropy,
)
from entrodyn.errors import DomainError, ShapeError
from entrodyn.linalg import hermitian_eig, identity, kron
from entrodyn.sampling import (
    random_density_matrix,
    random_orthonormal_basis,
    random_probability_vector,
    rng_for,
)
from entrodyn.systems import LatticeFreeParticle, lattice_momentum_basis

ALPHA = np.array([1.0, 0.0], dtype=complex)
BETA = np.array([0.0, 1.0], dtype=complex)


class TestProbabilityVector:
    def test_accepts_valid(self):
        np.testing.assert_array_equal(as_probability_vector([0.25, 0.75]), [0.25, 0.75])

    def test_clamps_tiny_negative(self):
        w = as_probability_vector([1.0 + 5e-13, -5e-13])
        assert w[1] == 0.0

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            as_probability_vector([1.1, -0.1])

    def test_rejects_bad_sum(self):
        with pytest.raises(DomainError):
            as_probability_vector([0.5, 0.6])

    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            as_probability_vector([float("nan"), 1.0])


class TestShannonEntropy:
    def test_pure_weight(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_uniform_four(self):
        # -4 * (1/4) ln(1/4) = ln 4, evaluated independently
        assert abs(shannon_entropy([0.25] * 4) - math.log(4.0)) <= 1e-12

    def test_zero_weight_ignored(self):
        assert abs(shannon_entropy([0.5, 0.5, 0.0]) - math.log(2.0)) <= 1e-12

    def test_rejects_invalid(self):
        with pytest.raises(DomainError):
            shannon_entropy([0.7, 0.7])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 16))
    def test_bounds(self, seed, dim):
        w = random_probability_vector(rng_for(seed), dim)
        s = shannon_entropy(w)
        assert 0.0 <= s <= math.log(dim) + 1e-12

    @given(st.integers(2, 24))
    def test_uniform_is_maximal(self, dim):
        assert abs(shannon_entropy(np.full(dim, 1.0 / dim)) - math.log(dim)) <= 1e-12

    def test_zero_only_for_concentrated_weight(self):
        # S = 0 exactly for a one-hot vector; any real spreading shows up
        one_hot = np.zeros(5)
        one_hot[2] = 1.0
        assert shannon_entropy(one_hot) == 0.0
        assert shannon_entropy([1.0 - 1e-6, 1e-6]) > 1e-7


# The stage at which each kind of 3-level state is refused: 0 by validation, 1 by the solve's relative
# Hermiticity check, 2 by the spectrum's clamp; None is accepted.
_STAGE = {
    "valid": None,
    "non-Hermitian": 0,
    "wrong trace": 0,
    "non-finite": 0,
    "overflowing skew": 0,
    "relative-only skew": 1,
    "negative eigenvalue": 2,
}


def _density_of_kind(kind: str) -> np.ndarray:
    rho = np.diag([0.5, 0.3, 0.2]).astype(complex)  # ||rho||_F = 0.62
    if kind == "non-Hermitian":
        rho[0, 1] = 0.1
    elif kind == "wrong trace":
        rho *= 2.0
    elif kind == "non-finite":
        rho[1, 1] = np.inf
    elif kind == "overflowing skew":
        rho[0, 1] = 1e154  # ||rho - rho†||_F squared overflows float64
    elif kind == "relative-only skew":
        rho[0, 1] = 0.9 * DENSITY_HERMITICITY_ATOL / math.sqrt(2.0)  # ||rho - rho†||_F = 0.9e-10
    elif kind == "negative eigenvalue":
        rho[...] = np.diag([1.1, 0.0, -0.1])
    return rho


class TestVonNeumannEntropy:
    def test_pure_projector(self):
        assert von_neumann_entropy(pure_density(ALPHA)) <= 1e-8

    def test_maximally_mixed(self):
        assert abs(von_neumann_entropy(identity(2) / 2) - math.log(2.0)) <= 1e-12

    def test_two_level_mixture(self):
        # scalar oracle: -0.9 ln 0.9 - 0.1 ln 0.1
        expected = -0.9 * math.log(0.9) - 0.1 * math.log(0.1)
        assert abs(expected - 0.325082973391448) <= 1e-12
        rho = np.diag([0.9, 0.1]).astype(complex)
        assert abs(von_neumann_entropy(rho) - expected) <= 1e-12

    def test_rejects_negative_spectrum(self):
        rho = np.diag([1.1, -0.1]).astype(complex)
        with pytest.raises(DomainError):
            von_neumann_entropy(rho)

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    def test_matches_spectrum_shannon(self, seed, dim):
        rho = random_density_matrix(rng_for(seed), dim)
        w = np.clip(hermitian_eig(rho).eigenvalues, 0.0, None)
        assert abs(von_neumann_entropy(rho) - shannon_entropy(w / w.sum())) <= 1e-9

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 8])
    def test_stack_matches_lone_calls(self, dim):
        rng = rng_for(61, dim)
        members = [random_density_matrix(rng, dim) for _ in range(5)]
        stack = np.stack(members + [np.eye(dim) / dim, pure_density(np.eye(dim)[0])])
        entropies = von_neumann_entropy(stack)
        lone = np.array([von_neumann_entropy(rho) for rho in stack])
        np.testing.assert_array_equal(entropies.view(np.uint64), lone.view(np.uint64))

    @pytest.mark.parametrize(
        "defect, error", [("hermiticity", "not Hermitian"), ("trace", "trace must be 1"), ("spectrum", "eigenvalue")]
    )
    def test_stack_error_names_the_member(self, defect, error):
        stack = np.stack([np.eye(3) / 3] * 4).astype(complex)
        if defect == "hermiticity":
            stack[2, 0, 1] = 0.1
        elif defect == "trace":
            stack[2] *= 2.0
        else:
            stack[2] = np.diag([1.1, 0.0, -0.1])
        with pytest.raises(DomainError, match=error + (".*stack member 2" if defect != "spectrum" else "")):
            von_neumann_entropy(stack)

    @pytest.mark.parametrize("defect", ["hermiticity", "trace", "non-finite", "overflowing skew", "non-square"])
    def test_stack_error_is_the_lone_error_of_its_member(self, defect):
        stack = np.stack([np.eye(3) / 3] * 4).astype(complex)
        bad = 2
        if defect == "hermiticity":
            stack[2, 0, 1] = 0.1
        elif defect == "trace":
            stack[2] *= 2.0
        elif defect == "non-finite":
            stack[2, 1, 1] = np.inf
        elif defect == "overflowing skew":
            stack[2, 0, 1] = 1e154  # ||rho - rho†||_F squared overflows float64
        else:
            stack, bad = stack[:, :, :2], 0  # every member has the stack's shape, so the first is named
        with pytest.raises((DomainError, ShapeError)) as lone:
            as_density_matrix(stack[bad], check_psd=False)
        with pytest.raises(type(lone.value)) as stacked:
            von_neumann_entropy(stack)
        assert str(stacked.value) == f"{lone.value} (stack member {bad})"

    def test_stack_verdict_is_the_lone_verdict_at_the_tolerances(self):
        # members whose Hermiticity defect or trace error lies within some ulps of its tolerance, each in a
        # stack after a valid member: the stack's validation must refuse exactly the members the lone check
        # refuses (the solver's relative Hermiticity check, which follows, is tighter for a density matrix)
        rng = rng_for(64)
        base = np.diag(rng.standard_exponential(12)).astype(complex)
        base /= np.trace(base)
        members = []
        for k in range(-24, 25):
            skewed = base.copy()
            skewed[0, 1] = DENSITY_HERMITICITY_ATOL / math.sqrt(2.0) * (1.0 + k * 2.0**-51)
            traced = base.copy()
            traced[-1, -1] += DENSITY_TRACE_ATOL * (1.0 + k * 2.0**-40)
            members += [skewed, traced]
        verdicts = set()
        for member in members:
            try:
                as_density_matrix(member, check_psd=False)
                lone = "accepted"
            except DomainError as error:
                lone = f"{error} (stack member 1)"
            try:
                ensembles._densities(np.stack([base, member]), " (stack member {})")
                stacked = "accepted"
            except DomainError as error:
                stacked = str(error)
            assert stacked == lone
            verdicts.add(lone == "accepted")
        assert verdicts == {True, False}

    @pytest.mark.parametrize("first", list(_STAGE))
    @pytest.mark.parametrize("second", list(_STAGE))
    def test_stack_error_is_the_lone_error_of_its_first_failing_member(self, first, second):
        # a stack is refused at the earliest stage any member fails (validation, the solve's relative
        # Hermiticity check, the spectrum's clamp), with the lone error of that stage's first member
        stack = np.stack([_density_of_kind("valid"), _density_of_kind(first), _density_of_kind(second)])
        stages = [_STAGE[kind] for kind in ("valid", first, second)]
        if stages == [None] * 3:
            lone = np.array([von_neumann_entropy(rho) for rho in stack])
            np.testing.assert_array_equal(von_neumann_entropy(stack).view(np.uint64), lone.view(np.uint64))
            return
        stage = min(s for s in stages if s is not None)
        bad = stages.index(stage)
        with pytest.raises((DomainError, ShapeError)) as lone:
            von_neumann_entropy(stack[bad])
        with pytest.raises(type(lone.value)) as stacked:
            von_neumann_entropy(stack)
        text, suffix = str(lone.value), f" (stack member {bad})"
        if stage == 0:  # validation names the member at the end
            expected = text + suffix
        elif stage == 1:  # the solve names it after what it solves
            expected = text.replace("density matrix", "density matrix" + suffix, 1)
        else:  # the spectrum's clamp names none
            expected = text
        assert str(stacked.value) == expected

    def test_empty_stack_is_a_shape_error(self):
        with pytest.raises(ShapeError, match=r"^expected a nonempty stack of square matrices, got shape \(0, 3, 3\)$"):
            von_neumann_entropy(np.zeros((0, 3, 3)))

    def test_solver_refusal_names_the_density_matrix(self):
        # ||rho - rho†||_F = 0.9e-10 passes the absolute check, but ||rho||_F = 0.48 makes the solver's
        # relative check refuse it: the error names the density matrix (and its member), not the solver
        rng = rng_for(64)
        base = np.diag(rng.standard_exponential(12)).astype(complex)
        base /= np.trace(base)
        skewed = base.copy()
        skewed[0, 1] = 0.9 * DENSITY_HERMITICITY_ATOL / math.sqrt(2.0)
        as_density_matrix(skewed, check_psd=False)
        refusal = r"is not Hermitian: \|\|m - m†\|\|_F / \|\|m\|\|_F = 1\.881e-10 exceeds 1e-10$"
        with pytest.raises(DomainError, match="^density matrix " + refusal):
            von_neumann_entropy(skewed)
        with pytest.raises(DomainError, match="^density matrix " + refusal):
            as_density_matrix(skewed)
        with pytest.raises(DomainError, match=r"^density matrix \(stack member 1\) " + refusal):
            von_neumann_entropy(np.stack([base, skewed, base]))

    def test_hermitian_member_with_overflowing_norm_gets_its_lone_verdict(self):
        # unit trace and Hermitian, so validation passes it as the lone check does; its spectrum refuses it
        stack = np.stack([np.eye(2) / 2] * 3).astype(complex)
        stack[1] = [[0.5, 1e154], [1e154, 0.5]]
        with pytest.raises(DomainError) as lone:
            von_neumann_entropy(stack[1])
        with pytest.raises(DomainError) as stacked:
            von_neumann_entropy(stack)
        assert str(stacked.value) == str(lone.value) and "eigenvalue -1.000e+154" in str(lone.value)

    def test_valid_stack_is_validated_in_one_pass(self, monkeypatch):
        calls = []
        monkeypatch.setattr(ensembles, "as_density_matrix", lambda *args, **kwargs: calls.append(args))
        rng = rng_for(62)
        von_neumann_entropy(np.stack([random_density_matrix(rng, 4) for _ in range(6)]))
        assert calls == []

    def test_block_diagonal_state_matches_lapack(self):
        # a 24-level state with a 5-level and a 19-level block: the small block's solve converges first
        rng = rng_for(99, 4)
        for _ in range(12):
            p = rng.uniform(0.2, 0.8)
            rho = np.zeros((24, 24), dtype=complex)
            rho[:5, :5] = p * random_density_matrix(rng, 5)
            rho[5:, 5:] = (1.0 - p) * random_density_matrix(rng, 19)
            assert abs(von_neumann_entropy(rho) - spectrum_entropy(np.linalg.eigvalsh(rho))) <= 1e-12

    @given(st.integers(0, 2**32 - 1))
    def test_additive_over_products(self, seed):
        rng = rng_for(seed)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 3)
        joint = kron(rho_a, rho_b)
        split = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
        assert abs(von_neumann_entropy(joint) - split) <= 1e-9


def _sum_of_positive_terms(w) -> float:
    """-sum p ln p over the positive entries of w, in order, clamped at zero: the 1-D definition."""
    pos = w[w > 0.0]
    return max(0.0, float(-np.sum(pos * np.log(pos))))


def _spectra(rng, n: int, count: int) -> np.ndarray:
    """Ascending spectra of n-level states: mixtures, rank-deficient ones, and pure
    states whose zero eigenvalues come out of a solver as tiny signed values."""
    rows = []
    for i in range(count):
        w = rng.standard_exponential(n)
        w /= w.sum()
        if i % 3 == 1:
            w = rng.standard_normal(n) * 1e-17
            w[-1] = 1.0
        if i % 3 == 2:
            w[: rng.integers(0, n)] = 0.0
        rows.append(np.sort(w))
    return np.array(rows)


class TestSpectrumEntropy:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 64, 129])
    def test_rows_match_one_dimensional_calls(self, n):
        spectra = _spectra(rng_for(41, n), n, 30)
        stacked = spectrum_entropy(spectra)
        assert stacked.shape == (30,)
        for row, value in zip(spectra, stacked):
            single = spectrum_entropy(row)
            assert isinstance(single, float)
            assert value.tobytes() == np.float64(single).tobytes()
            assert single == _sum_of_positive_terms(row)

    def test_unsorted_spectrum_uses_every_positive_eigenvalue(self):
        w = np.array([0.5, 0.0, 0.2, 0.3])
        assert spectrum_entropy(w) == _sum_of_positive_terms(w)

    def test_row_below_clamp_raises(self):
        spectra = _spectra(rng_for(42), 4, 5)
        spectra[3, 0] = 2.0 * EIGENVALUE_CLAMP
        with pytest.raises(DomainError, match="not a density matrix"):
            spectrum_entropy(spectra)
        spectra[3, 0] = EIGENVALUE_CLAMP  # counts as zero
        assert spectrum_entropy(spectra)[3] == _sum_of_positive_terms(spectra[3])


class TestFactorPure:
    def test_trivial(self):
        np.testing.assert_allclose(factor_pure([1.0, 0.0], [0.0, 0.0]), ALPHA, atol=0)

    def test_sign_change(self):
        out = factor_pure([0.5, 0.5], [0.0, np.pi])
        expected = np.array([1.0, -1.0]) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-15)

    def test_complex_phase(self):
        out = factor_pure([0.5, 0.5], [0.0, np.pi / 2])
        expected = np.array([1.0, 1j]) / np.sqrt(2)
        np.testing.assert_allclose(out, expected, atol=1e-15)
        np.testing.assert_allclose(np.abs(out) ** 2, [0.5, 0.5], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            factor_pure([0.5, 0.5], [0.0])

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_modulus_roundtrip(self, seed, dim):
        rng = rng_for(seed)
        w = random_probability_vector(rng, dim)
        phases = rng.uniform(-np.pi, np.pi, size=dim)
        psi = factor_pure(w, phases)
        np.testing.assert_allclose(np.abs(psi) ** 2, w, atol=1e-12)


class TestPureDensity:
    def test_alpha_projector(self):
        np.testing.assert_allclose(
            pure_density(ALPHA), np.array([[1, 0], [0, 0]], dtype=complex), atol=0
        )

    def test_equal_superposition(self):
        psi = np.array([1.0, 1.0]) / np.sqrt(2)
        np.testing.assert_allclose(pure_density(psi), np.full((2, 2), 0.5), atol=1e-15)

    def test_complex_superposition(self):
        psi = np.array([1.0, 1j]) / np.sqrt(2)
        expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
        np.testing.assert_allclose(pure_density(psi), expected, atol=1e-15)

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            pure_density([1.0, 1.0])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 10))
    def test_rank_one_spectrum(self, seed, dim):
        from entrodyn.sampling import random_pure_state

        rho = pure_density(random_pure_state(rng_for(seed), dim))
        w = hermitian_eig(rho).eigenvalues
        assert abs(w[-1] - 1.0) <= 1e-10
        assert np.all(np.abs(w[:-1]) <= 1e-10)


class TestMixtureDensity:
    def test_diagonal_in_own_basis(self):
        rho = mixture_density([ALPHA, BETA], [0.3, 0.7])
        np.testing.assert_allclose(rho, np.diag([0.3, 0.7]).astype(complex), atol=0)

    def test_single_weight_is_pure(self):
        basis = random_orthonormal_basis(rng_for(8), 4)
        rho = mixture_density(basis, [1.0, 0.0, 0.0, 0.0])
        np.testing.assert_allclose(rho, pure_density(basis[0]), atol=1e-14)

    def test_sigma_x_eigenbasis_mixes_to_identity(self):
        plus = np.array([1.0, 1.0]) / np.sqrt(2)
        minus = np.array([1.0, -1.0]) / np.sqrt(2)
        rho = mixture_density([plus, minus], [0.5, 0.5])
        np.testing.assert_allclose(rho, identity(2) / 2, atol=1e-15)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            mixture_density([ALPHA, BETA], [1.0])

    def test_rejects_non_orthonormal(self):
        with pytest.raises(DomainError):
            mixture_density([ALPHA, ALPHA], [0.5, 0.5])

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_spectrum_entropy_is_basis_independent(self, seed, dim):
        rng = rng_for(seed)
        basis = random_orthonormal_basis(rng, dim)
        weights = random_probability_vector(rng, dim)
        rho = mixture_density(basis, weights)
        assert abs(von_neumann_entropy(rho) - shannon_entropy(weights)) <= 1e-9

    @given(st.integers(0, 2**32 - 1), st.integers(2, 8))
    def test_valid_density(self, seed, dim):
        rng = rng_for(seed)
        rho = mixture_density(
            random_orthonormal_basis(rng, dim), random_probability_vector(rng, dim)
        )
        as_density_matrix(rho)  # full validation including PSD


class TestBasisResiduals:
    def test_spin_basis(self):
        ortho, completeness = basis_residuals([ALPHA, BETA])
        assert ortho <= 1e-15
        assert completeness <= 1e-15

    def test_repeated_vector(self):
        ortho, _ = basis_residuals([ALPHA, ALPHA])
        assert abs(ortho - 1.0) <= 1e-15

    def test_dft_basis(self):
        basis = lattice_momentum_basis(LatticeFreeParticle(sites=8, length=1.0, mass=1.0))
        ortho, completeness = basis_residuals(basis)
        assert ortho <= 1e-12
        assert completeness <= 1e-12

    def test_incomplete_set_has_no_completeness(self):
        ortho, completeness = basis_residuals([ALPHA])
        assert ortho <= 1e-15
        assert completeness is None


class TestValidators:
    def test_pure_state_norm(self):
        with pytest.raises(DomainError):
            as_pure_state([0.5, 0.5])

    def test_density_trace(self):
        with pytest.raises(DomainError):
            as_density_matrix(identity(2))

    def test_density_hermiticity(self):
        bad = np.array([[0.5, 0.2], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            as_density_matrix(bad)

    def test_density_psd(self):
        with pytest.raises(DomainError):
            as_density_matrix(np.diag([1.5, -0.5]).astype(complex))

    def test_orthonormal_basis_accepts_unitary_rows(self):
        b = as_orthonormal_basis(random_orthonormal_basis(rng_for(3), 5))
        assert b.shape == (5, 5)
