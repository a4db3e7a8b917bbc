"""Tests for the dense linear-algebra kernels.

The eigensolver is checked against numpy.linalg.eigh (an independent LAPACK
route) and against direct reconstruction residuals; the two matrix
exponential routes cross-check each other.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrodyn import linalg
from entrodyn.errors import ConvergenceError, DomainError, ShapeError
from entrodyn.linalg import (
    EigenDecomposition,
    adjoint,
    expm_hermitian,
    expm_oracle,
    frobenius,
    hermitian_eig,
    identity,
    jacobi_schedule,
    kron,
    matmul,
    partial_trace,
    require_hermitian,
    trace,
)
from entrodyn.sampling import random_hermitian, rng_for
from entrodyn.systems import LatticeFreeParticle, lattice_hamiltonian, pauli

SX, SY, SZ = pauli()


class TestAdjoint:
    def test_identity_self_adjoint(self):
        np.testing.assert_array_equal(adjoint(identity(2)), identity(2))

    def test_sigma_y_hermitian(self):
        np.testing.assert_array_equal(adjoint(SY), SY)

    def test_raising_lowering_swap(self):
        raising = np.array([[0, 1], [0, 0]], dtype=complex)
        lowering = np.array([[0, 0], [1, 0]], dtype=complex)
        np.testing.assert_array_equal(adjoint(raising), lowering)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12))
    def test_involution(self, seed, dim):
        rng = rng_for(seed)
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        np.testing.assert_array_equal(adjoint(adjoint(m)), m)


class TestMatmul:
    def test_identity_neutral(self):
        m = np.array([[1, 2j], [3, 4]], dtype=complex)
        np.testing.assert_array_equal(matmul(identity(2), m), m)

    def test_sigma_x_squared(self):
        # by hand: [[0,1],[1,0]] @ [[0,1],[1,0]] = [[1,0],[0,1]]
        np.testing.assert_allclose(matmul(SX, SX), identity(2), atol=0)

    def test_sigma_x_sigma_y(self):
        # by hand: [[0,1],[1,0]] @ [[0,-i],[i,0]] = [[i,0],[0,-i]] = i sigma_z
        np.testing.assert_allclose(matmul(SX, SY), 1j * SZ, atol=0)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            matmul(np.ones((2, 3)), np.ones((2, 2)))


class TestKron:
    def test_identity_blocks(self):
        np.testing.assert_array_equal(kron(identity(2), identity(2)), identity(4))

    def test_diagonal_weights(self):
        # by hand: diag(p1, p2) ⊗ diag(q1, q2) = diag(p1 q1, p1 q2, p2 q1, p2 q2)
        left = np.diag([0.75, 0.25]).astype(complex)
        right = np.diag([0.6, 0.4]).astype(complex)
        expected = np.diag([0.45, 0.3, 0.15, 0.1]).astype(complex)
        np.testing.assert_allclose(kron(left, right), expected, atol=1e-16)

    def test_trace_multiplicative(self):
        rng = rng_for(7)
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        # independent evaluation of both sides
        lhs = complex(sum(kron(a, b)[i, i] for i in range(9)))
        rhs = complex(sum(a[i, i] for i in range(3))) * complex(sum(b[i, i] for i in range(3)))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestTrace:
    def test_identity(self):
        assert trace(identity(2)) == 2

    def test_unit_weights(self):
        assert abs(trace(np.diag([0.3, 0.7]).astype(complex)) - 1.0) < 1e-15

    def test_sigma_z_traceless(self):
        assert trace(SZ) == 0

    def test_non_square(self):
        with pytest.raises(ShapeError):
            trace(np.ones((2, 3)))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16))
    def test_cyclicity(self, seed, dim):
        rng = rng_for(seed)
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        lhs = trace(matmul(a, b))
        rhs = trace(matmul(b, a))
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


class TestHermitianEig:
    def test_sigma_z_splitting(self):
        w, v = hermitian_eig(SZ)  # (delta/2) sigma_z with delta = 2
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-15)
        # phase convention makes the columns exactly beta=(0,1) and alpha=(1,0)
        np.testing.assert_allclose(v, np.array([[0, 1], [1, 0]], dtype=complex), atol=1e-15)

    def test_degenerate_identity_subspace(self):
        w, v = hermitian_eig(identity(3))
        np.testing.assert_allclose(w, [1.0, 1.0, 1.0], atol=1e-15)
        # only the spanned subspace is promised
        np.testing.assert_allclose(v @ v.conj().T, identity(3), atol=1e-12)

    def test_reconstruction_residual(self):
        rng = rng_for(2024)
        h = random_hermitian(rng, 8)
        w, v = hermitian_eig(h)
        residual = frobenius((v * w) @ v.conj().T - h)
        assert residual <= 1e-10 * frobenius(h)

    def test_matches_lapack_eigenvalues(self):
        rng = rng_for(99)
        h = random_hermitian(rng, 12)
        w, _ = hermitian_eig(h)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), atol=1e-11)

    def test_ascending_and_orthonormal(self):
        rng = rng_for(5)
        h = random_hermitian(rng, 10)
        w, v = hermitian_eig(h)
        assert np.all(np.diff(w) >= 0)
        assert frobenius(v.conj().T @ v - identity(10)) <= 1e-10 * 10

    def test_deterministic(self):
        rng = rng_for(11)
        h = random_hermitian(rng, 7)
        first = hermitian_eig(h)
        second = hermitian_eig(h)
        np.testing.assert_array_equal(first.eigenvalues, second.eigenvalues)
        np.testing.assert_array_equal(first.eigenvectors, second.eigenvectors)

    def test_rejects_non_hermitian(self):
        with pytest.raises(DomainError):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_phase_convention(self):
        rng = rng_for(77)
        _, v = hermitian_eig(random_hermitian(rng, 9))
        for k in range(9):
            pivot = v[int(np.argmax(np.abs(v[:, k]))), k]
            assert abs(pivot.imag) <= 1e-15  # real-positive up to rounding
            assert pivot.real > 0.0

    def test_returns_named_tuple(self):
        out = hermitian_eig(SZ)
        assert isinstance(out, EigenDecomposition)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 2, 3, 5, 7, 8, 16, 32]))
    def test_reconstruction_property(self, seed, dim):
        h = random_hermitian(rng_for(seed), dim)
        w, v = hermitian_eig(h)
        assert frobenius((v * w) @ v.conj().T - h) <= 1e-10 * frobenius(h)
        assert frobenius(v.conj().T @ v - identity(dim)) <= 1e-10 * dim

    def test_one_by_one(self):
        w, v = hermitian_eig(np.array([[-2.5]]))
        assert w.shape == (1,) and v.shape == (1, 1)
        assert w[0] == -2.5
        assert v[0, 0] == 1.0

    def test_degenerate_lattice_matches_lapack(self):
        # 64 sites: every eigenvalue but p = 0 and p = -pi n / length is a ±p pair
        h = lattice_hamiltonian(LatticeFreeParticle(64, 2 * np.pi, 1.0))
        norm = frobenius(h)
        w, v = hermitian_eig(h)
        np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-13 * norm)
        assert frobenius((v * w) @ v.conj().T - h) <= 1e-10 * norm

    @pytest.mark.parametrize("scale", [1e200, 1e160, 1e-160, 1e-200])
    def test_extreme_scales_match_lapack(self, scale):
        # np.linalg.norm overflows or underflows at these scales; the spectrum must not care
        base = random_hermitian(rng_for(13), 6)
        for unit in (np.array([[1, 2], [2, -1]], dtype=complex), base):
            h = scale * unit
            w, v = hermitian_eig(h)
            np.testing.assert_allclose(
                w / scale, np.linalg.eigvalsh(h) / scale, rtol=0, atol=1e-13 * frobenius(unit)
            )
            assert frobenius((v * (w / scale)) @ v.conj().T - unit) <= 1e-10 * frobenius(unit)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scale_non_hermitian_rejected(self, scale):
        raising = scale * np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(DomainError):
            require_hermitian(raising)
        with pytest.raises(DomainError):
            hermitian_eig(raising)

    def test_spectrum_beyond_float64_rejected(self):
        # eigenvalues 0 and 2e308: the entries are finite, the spectrum is not
        with pytest.raises(DomainError):
            hermitian_eig(1e308 * np.ones((2, 2)))

    @pytest.mark.parametrize("dim", [2, 3, 8])
    def test_fortran_ordered_input(self, dim):
        h = random_hermitian(rng_for(21), dim)
        for transposed in (h.T, np.asfortranarray(h.conj())):
            w, v = hermitian_eig(transposed)
            w_ref, v_ref = hermitian_eig(h.conj())
            np.testing.assert_array_equal(w, w_ref)
            np.testing.assert_array_equal(v, v_ref)
        np.testing.assert_array_equal(require_hermitian(np.asfortranarray(h)), h)
        with pytest.raises(DomainError):
            require_hermitian(np.triu(h).T)

    def test_sweep_budget_exhausted(self, monkeypatch):
        h = random_hermitian(rng_for(8), 8)  # needs 5-6 sweeps
        hermitian_eig(h)
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        with pytest.raises(ConvergenceError):
            hermitian_eig(h)


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), np.ascontiguousarray(want).view(np.uint8))


def _assert_stack_matches_solo(stack):
    """Each member of a stacked solve has the bits of solving it alone."""
    w, v = hermitian_eig(stack)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for i, h in enumerate(stack):
        w_solo, v_solo = hermitian_eig(h)
        _assert_bits_equal(w[i], w_solo)
        _assert_bits_equal(v[i], v_solo)


def _sweep_sizes(monkeypatch) -> list:
    """Record the number of members each Jacobi sweep works on."""
    sizes = []
    sweep = linalg._Rounds.sweep

    def recording(self):
        sizes.append(len(self.s))
        sweep(self)

    monkeypatch.setattr(linalg._Rounds, "sweep", recording)
    return sizes


class TestStackedHermitianEig:
    @pytest.mark.parametrize("n", range(1, 17))
    def test_gue_stack_matches_solo(self, n):
        # odd n pads a phantom index; member magnitudes spread over 1e±150
        rng = rng_for(31, n)
        scales = 10.0 ** rng.uniform(-150.0, 150.0, 8)
        _assert_stack_matches_solo(np.stack([random_hermitian(rng, n) * scale for scale in scales]))

    def test_degenerate_lattice_stack_matches_solo(self):
        h = lattice_hamiltonian(LatticeFreeParticle(64, 2 * np.pi, 1.0))
        _assert_stack_matches_solo(np.stack([h, -2.0**-600 * h, random_hermitian(rng_for(32), 64)]))

    def test_certified_members_are_not_swept(self, monkeypatch):
        rng = rng_for(33)
        members = []
        for i in range(9):
            h = random_hermitian(rng, 9)
            if i % 3 == 0:  # already diagonal: certified with 0 sweeps
                h = np.diag(np.diag(h))
            if i % 3 == 1:  # block-diagonal: some rounds have no nonzero pair
                h[:4, 4:] = 0.0
                h[4:, :4] = 0.0
            members.append(h)
        stack = np.stack(members)
        sizes = _sweep_sizes(monkeypatch)
        w, v = hermitian_eig(stack)
        assert sizes[0] == 6 and sizes == sorted(sizes, reverse=True)
        for i in range(0, 9, 3):
            _assert_bits_equal(w[i], np.sort(np.diag(stack[i]).real))
            _assert_bits_equal(v[i], np.eye(9, dtype=complex)[:, np.argsort(np.diag(stack[i]).real, kind="stable")])
        _assert_stack_matches_solo(stack)

    def test_sparse_members_with_signed_zeros_match_solo(self):
        # a member whose pairs are all zero in a round is left as a lone solve leaves it;
        # rotating it by the identity could flip the sign of its zeros
        rng = rng_for(36)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            members = []
            for _ in range(4):
                mask = rng.random((n, n)) < rng.uniform(0.05, 0.5)
                h = np.where(mask, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0.0)
                h = h + h.conj().T
                h[(h == 0) & (rng.random((n, n)) < 0.5)] = complex(-0.0, -0.0)
                members.append(h)
            _assert_stack_matches_solo(np.stack(members))

    def test_stack_of_diagonal_members_needs_no_sweep(self, monkeypatch):
        sizes = _sweep_sizes(monkeypatch)
        w, _ = hermitian_eig(np.stack([np.diag([2.0, 1.0]), np.diag([0.0, -3.0])]).astype(complex))
        assert sizes == []
        np.testing.assert_array_equal(w, [[1.0, 2.0], [-3.0, 0.0]])

    @pytest.mark.parametrize("bad", ["non_hermitian", "nan", "inf"])
    def test_bad_member_raises_domain_error(self, bad):
        stack = np.stack([random_hermitian(rng_for(34, i), 4) for i in range(3)])
        if bad == "non_hermitian":
            stack[2, 0, 3] += 1.0
        else:
            stack[1, 2, 2] = float(bad)
        with pytest.raises(DomainError, match="stack member 2" if bad == "non_hermitian" else "finite"):
            hermitian_eig(stack)

    def test_member_beyond_float64_rejected(self):
        stack = np.stack([np.eye(2), 1e308 * np.ones((2, 2))]).astype(complex)
        with pytest.raises(DomainError, match="stack member 1"):
            hermitian_eig(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (0, 2, 2), (2, 0, 0), (2, 2, 2, 2)])
    def test_malformed_stack_raises_shape_error(self, shape):
        with pytest.raises(ShapeError):
            hermitian_eig(np.zeros(shape, dtype=complex))

    def test_sweep_budget_names_the_member(self, monkeypatch):
        stack = np.stack([np.diag([1.0, 2.0]).astype(complex), SX])
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError, match="stack member 1"):
            hermitian_eig(stack)

    def test_phases_and_propagator_per_member(self):
        stack = np.stack([random_hermitian(rng_for(35, i), 5) for i in range(3)])
        times = np.linspace(0.0, 2.0, 7)
        spectra = hermitian_eig(stack)
        phases = spectra.phases(times)
        assert phases.shape == (3, 7, 5)
        u = spectra.propagator(0.7)
        assert u.shape == (3, 5, 5)
        for i, h in enumerate(stack):
            solo = hermitian_eig(h)
            _assert_bits_equal(phases[i], solo.phases(times))
            _assert_bits_equal(u[i], solo.propagator(0.7))
            _assert_bits_equal(u[i], expm_hermitian(h, 0.7))


class TestFrobenius:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_match_scaled_reference(self, scale):
        # the plain sum of squares overflows to inf or underflows to 0 here
        for unit in (np.ones((2, 2)), (1 + 2j) * np.ones((2, 3)), random_hermitian(rng_for(9), 5)):
            assert frobenius(scale * unit) / scale == pytest.approx(frobenius(unit), rel=1e-15)

    def test_zero_matrix_is_zero(self):
        assert frobenius(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_in_range_is_one_dot_product(self):
        h = random_hermitian(rng_for(10), 7)
        assert frobenius(h) == np.sqrt(np.vdot(h, h).real)


class TestJacobiSchedule:
    @pytest.mark.parametrize("n", range(1, 18))
    def test_sweep_covers_every_pair_once(self, n):
        rounds = jacobi_schedule(n)
        assert len(rounds) == (n - 1 if n % 2 == 0 else n)
        visited = [pair for rnd in rounds for pair in rnd]
        expected = [(p, q) for p in range(n) for q in range(p + 1, n)]
        assert sorted(visited) == expected
        for rnd in rounds:
            assert len(rnd) == n // 2
            members = [i for pair in rnd for i in pair]
            assert len(set(members)) == len(members)
            assert all(p < q for p, q in rnd)
        assert jacobi_schedule(n) == rounds


class TestExpmHermitian:
    def test_zero_time(self):
        rng = rng_for(3)
        h = random_hermitian(rng, 4)
        np.testing.assert_allclose(expm_hermitian(h, 0.0), identity(4), atol=1e-14)

    def test_sigma_z_half_period(self):
        # eigenvalues ±1, so t = pi gives diag(e^{-i pi}, e^{i pi}) = -1
        np.testing.assert_allclose(expm_hermitian(SZ, np.pi), -identity(2), atol=1e-13)

    def test_cross_oracle(self):
        rng = rng_for(17)
        h = random_hermitian(rng, 6)
        lhs = expm_hermitian(h, 0.7)
        rhs = expm_oracle(-1j * h * 0.7)
        assert frobenius(lhs - rhs) <= 1e-9

    def test_unitarity(self):
        rng = rng_for(23)
        h = random_hermitian(rng, 9)
        u = expm_hermitian(h, 1.3)
        assert frobenius(u.conj().T @ u - identity(9)) <= 1e-10 * 9

    @given(st.integers(0, 2**32 - 1))
    def test_group_property(self, seed):
        rng = rng_for(seed)
        dim = int(rng.integers(2, 9))
        h = random_hermitian(rng, dim)
        t, s = rng.uniform(-3, 3, size=2)
        lhs = expm_hermitian(h, t) @ expm_hermitian(h, s)
        rhs = expm_hermitian(h, t + s)
        assert frobenius(lhs - rhs) <= 1e-9

    @pytest.mark.parametrize(("h", "t"), [(SZ, np.inf), (SZ, -np.inf), (SZ, np.nan), (1e300 * SZ, 1e10)])
    def test_non_finite_time_raises(self, h, t):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match="w t is not finite"):
                expm_hermitian(h, t)


class TestPhaseTable:
    def test_names_the_first_time_without_a_phase(self):
        spectrum = hermitian_eig(1e300 * SZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"at t = 200000000\.0 "):
                spectrum.phases([0.0, 1.0, 2e8, 1e10])
            with pytest.raises(DomainError, match="at t = nan"):
                hermitian_eig(np.stack([SZ, SX])).phases([0.0, np.nan])

    def test_zero_eigenvalue_at_infinite_time_raises(self):
        # 0 * inf is NaN: no phase is defined there either
        with pytest.raises(DomainError):
            hermitian_eig(np.zeros((2, 2))).phases(np.inf)


class TestExpmOracle:
    def test_zero_matrix(self):
        np.testing.assert_allclose(expm_oracle(np.zeros((3, 3))), identity(3), atol=0)

    def test_diagonal_logs(self):
        out = expm_oracle(np.diag([np.log(2.0), 0.0]).astype(complex))
        np.testing.assert_allclose(out, np.diag([2.0, 1.0]).astype(complex), atol=1e-14)

    def test_matches_eigen_route(self):
        rng = rng_for(31)
        h = random_hermitian(rng, 5)
        t = 1.9
        assert frobenius(expm_oracle(-1j * h * t) - expm_hermitian(h, t)) <= 1e-9

    def test_non_square(self):
        with pytest.raises(ShapeError):
            expm_oracle(np.ones((2, 3)))


class TestPartialTrace:
    def test_product_reduction(self):
        rng = rng_for(41)
        rho_a = np.diag([0.2, 0.8]).astype(complex)
        u = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho_b = u @ u.conj().T
        rho_b /= np.trace(rho_b)
        joint = np.kron(rho_a, rho_b)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "A"), rho_a, atol=1e-12)
        np.testing.assert_allclose(partial_trace(joint, 2, 3, "B"), rho_b, atol=1e-12)

    def test_maximally_mixed(self):
        np.testing.assert_allclose(
            partial_trace(identity(4) / 4, 2, 2, "A"), identity(2) / 2, atol=0
        )

    def test_bell_reduction(self):
        # |(alpha beta - beta alpha)/sqrt(2)> expanded by hand:
        # amplitudes (0, 1, -1, 0)/sqrt(2); projector has 1/2 on the
        # (1,1), (2,2) diagonal and -1/2 on (1,2), (2,1).
        bell = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)
        rho = np.outer(bell, bell.conj())
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        np.testing.assert_allclose(rho, expected, atol=1e-15)
        np.testing.assert_allclose(partial_trace(rho, 2, 2, "A"), identity(2) / 2, atol=1e-15)

    @given(st.integers(0, 2**32 - 1), st.sampled_from([(2, 2), (2, 3), (3, 4)]))
    def test_trace_preserved(self, seed, dims):
        dim_a, dim_b = dims
        rng = rng_for(seed)
        d = dim_a * dim_b
        m = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        for keep in ("A", "B"):
            reduced = partial_trace(m, dim_a, dim_b, keep)
            assert abs(np.trace(reduced) - np.trace(m)) <= 1e-12 * max(1.0, abs(np.trace(m)))

    def test_bad_factorization(self):
        with pytest.raises(ShapeError):
            partial_trace(identity(6), 4, 2, "A")

    def test_bad_selector(self):
        with pytest.raises(ValueError):
            partial_trace(identity(4), 2, 2, "C")
