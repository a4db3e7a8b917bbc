"""Tests for the dense linear-algebra kernels.

The eigensolver is checked against numpy.linalg.eigh (an independent LAPACK
route) and against direct reconstruction residuals; the two matrix
exponential routes cross-check each other.
"""

import hashlib
import statistics
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from entrodyn import linalg
from entrodyn.errors import ConvergenceError, DomainError, NumericalError, ShapeError
from entrodyn.linalg import (
    EigenDecomposition,
    expm_hermitian,
    expm_oracle,
    frobenius,
    hermitian_eig,
    identity,
    jacobi_schedule,
    kron,
    partial_trace,
    require_hermitian,
    stack_eig,
    trace,
)
from entrodyn.sampling import random_density_matrix, random_hermitian, random_unitary, rng_for
from entrodyn.systems import LatticeFreeParticle, lattice_hamiltonian, lattice_momentum_basis, pauli

SX, SY, SZ = pauli()


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
        lhs = trace(a @ b)
        rhs = trace(b @ a)
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
        with pytest.raises(DomainError, match=r"^eigensolver input is not Hermitian: "):
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
        with pytest.raises(DomainError, match=r"^eigenvalues exceed the float64 range$"):
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
        with pytest.raises(ConvergenceError, match=r"^Jacobi eigensolver did not converge in 1 sweeps$"):
            hermitian_eig(h)


def _plane_waves(system: LatticeFreeParticle) -> np.ndarray:
    """The lattice's plane waves as columns: the eigenbasis a scenario run seeds H's solve with."""
    return lattice_momentum_basis(system).T


@pytest.fixture
def sweeps(monkeypatch):
    """A list that gains one entry per Jacobi sweep."""
    counted = []
    sweep = linalg._Rounds.sweep

    def counting(rounds):
        counted.append(1)
        sweep(rounds)

    monkeypatch.setattr(linalg._Rounds, "sweep", counting)
    return counted


# (sites, length, mass): even and odd sizes, short and long lattices, light and heavy particles
SEEDED_LATTICES = [
    (2, 1.0, 1.0),
    (3, 2 * np.pi, 0.5),
    (5, 0.1, 3.0),
    (8, 2 * np.pi, 1.0),
    (17, 100.0, 1e-3),
    (32, 1.0, 7.0),
    (64, 2 * np.pi, 1.0),
    (128, 3.0, 0.25),
]


class TestSeededHermitianEig:
    """hermitian_eig(h, basis): a seed sets where the sweeps start, never the answer."""

    @pytest.mark.parametrize("sites, length, mass", SEEDED_LATTICES)
    def test_lattice_seeded_matches_cold(self, sites, length, mass, sweeps):
        system = LatticeFreeParticle(sites, length, mass)
        h = lattice_hamiltonian(system)
        norm = frobenius(h)
        cold = hermitian_eig(h)
        sweeps.clear()
        seeded = hermitian_eig(h, _plane_waves(system))
        assert sweeps == []  # the plane waves diagonalise H to rounding
        np.testing.assert_allclose(seeded.eigenvalues, cold.eigenvalues, rtol=0, atol=1e-13 * norm)
        w, v = seeded
        assert frobenius((v * w) @ v.conj().T - h) <= 1e-10 * norm
        assert frobenius(v.conj().T @ v - identity(sites)) <= 1e-10 * sites

    @pytest.mark.parametrize("length, mass", [(1.0, 1.0), (2 * np.pi, 0.5), (37.0, 4.0)])
    def test_lattice_seeded_matches_lapack_at_every_size(self, length, mass):
        for sites in range(2, 129):
            system = LatticeFreeParticle(sites, length, mass)
            h = lattice_hamiltonian(system)
            w = hermitian_eig(h, _plane_waves(system)).eigenvalues
            np.testing.assert_allclose(w, np.linalg.eigvalsh(h), rtol=0, atol=1e-13 * frobenius(h))

    @pytest.mark.parametrize("n", [2, 5, 8, 16])
    def test_random_unitary_seed_still_sweeps_to_the_spectrum(self, n, sweeps):
        # negative control: a seed that is no eigenbasis of h only costs sweeps
        rng = rng_for(40 + n)
        h = random_hermitian(rng, n)
        q = hermitian_eig(random_hermitian(rng, n)).eigenvectors
        cold = hermitian_eig(h)
        sweeps.clear()
        w, v = hermitian_eig(h, q)
        assert len(sweeps) > 0
        np.testing.assert_allclose(w, cold.eigenvalues, rtol=0, atol=1e-13 * frobenius(h))
        assert frobenius((v * w) @ v.conj().T - h) <= 1e-10 * frobenius(h)

    def test_seed_at_the_unitarity_bound(self):
        h = random_hermitian(rng_for(47), 4)
        within = np.diag([1.0 + 0.4 * linalg.SEED_UNITARITY_TOL, 1.0, 1.0, 1.0])  # ||Q†Q - 1||_F = 0.8 tol
        beyond = np.diag([1.0 + linalg.SEED_UNITARITY_TOL, 1.0, 1.0, 1.0])  # 2 tol
        np.testing.assert_allclose(hermitian_eig(h, within).eigenvalues, np.linalg.eigvalsh(h), atol=1e-13)
        with pytest.raises(DomainError, match="seed basis is not unitary"):
            hermitian_eig(h, beyond)

    @pytest.mark.parametrize(
        "seed",
        [2.0 * identity(3), np.ones((3, 3)), np.zeros((3, 3)), np.triu(np.ones((3, 3))), np.full((3, 3), np.nan)],
    )
    def test_non_unitary_seed_raises_domain_error(self, seed):
        with pytest.raises(DomainError):
            hermitian_eig(random_hermitian(rng_for(48), 3), seed)

    def test_seed_of_the_wrong_shape_raises_shape_error(self):
        with pytest.raises(ShapeError):
            hermitian_eig(random_hermitian(rng_for(49), 3), identity(4))

    def test_seeded_input_is_checked_for_hermiticity(self):
        with pytest.raises(DomainError, match="not Hermitian"):
            hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex), identity(2))

    def test_identity_seed_is_a_cold_start(self):
        h = random_hermitian(rng_for(50), 7)
        cold = hermitian_eig(h)
        seeded = hermitian_eig(h, identity(7))
        _assert_bits_equal(seeded.eigenvalues, cold.eigenvalues)
        _assert_bits_equal(seeded.eigenvectors, cold.eigenvectors)


def _assert_bits_equal(got, want):
    assert got.shape == want.shape
    np.testing.assert_array_equal(got.view(np.uint8), np.ascontiguousarray(want).view(np.uint8))


def _assert_stack_matches_solo(stack):
    """Each member of stack_eig has the eigenvalue and eigenvector bits of solving that member alone."""
    w, v = stack_eig(stack)
    assert w.shape == stack.shape[:2] and v.shape == stack.shape
    for i, h in enumerate(stack):
        solo = hermitian_eig(h)
        _assert_bits_equal(w[i], solo.eigenvalues)
        _assert_bits_equal(v[i], solo.eigenvectors)


@pytest.fixture
def swept(monkeypatch):
    """A list that gains the member count of the storage at every _Rounds sweep (1 for a lone solve)."""
    counts = []
    original = linalg._Rounds.sweep

    def counting(rounds):
        counts.append(len(rounds.s) if rounds.stacked else 1)
        original(rounds)

    monkeypatch.setattr(linalg._Rounds, "sweep", counting)
    return counts


def _sparse_hermitian(rng, n):
    """A Hermitian matrix with 5-50% of its entries nonzero (a drawn share) and half of its zeros negative."""
    mask = rng.random((n, n)) < rng.uniform(0.05, 0.5)
    h = np.where(mask, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 0.0)
    h = h + h.conj().T
    h[(h == 0) & (rng.random((n, n)) < 0.5)] = complex(-0.0, -0.0)
    return h


class TestStackedHermitianEig:
    """stack_eig, checked member by member against lone hermitian_eig solves."""

    @pytest.mark.parametrize("n", range(1, 17))
    def test_gue_stack_matches_solo(self, n, swept):
        # odd n pads a phantom index; member magnitudes spread over 1e±150
        rng = rng_for(31, n)
        scales = 10.0 ** rng.uniform(-150.0, 150.0, 8)
        stack = np.stack([random_hermitian(rng, n) * scale for scale in scales])
        _assert_stack_matches_solo(stack)
        # a stack of one has the lone solve's bits, from as many sweeps
        _assert_stack_matches_solo(stack[:1])
        counts = []
        for solve in (lambda: stack_eig(stack[:1]), lambda: hermitian_eig(stack[0])):
            swept.clear()
            solve()
            counts.append(len(swept))
        assert counts[0] == counts[1] and (counts[0] > 0 or n == 1)

    def test_degenerate_lattice_stack_matches_solo(self):
        h = lattice_hamiltonian(LatticeFreeParticle(64, 2 * np.pi, 1.0))
        _assert_stack_matches_solo(np.stack([h, -2.0**-600 * h, random_hermitian(rng_for(32), 64)]))

    def test_certified_members_are_not_swept(self, eig_calls, swept):
        rng = rng_for(33)
        members = []
        for i in range(9):
            h = random_hermitian(rng, 9)
            if i % 3 == 0:  # diagonal: certified with 0 sweeps
                h = np.diag(np.diag(h))
            if i % 3 == 1:  # off-diagonal part within the stopping rule: certified, not diagonal
                h = np.diag(np.diag(h)) + 1e-16 * (h - np.diag(np.diag(h)))
            members.append(h)
        stack = np.stack(members)
        w, v = stack_eig(stack)
        # only the three GUE members are swept, as one stack, and no member is handed to hermitian_eig
        assert eig_calls == [] and swept[0] == 3 and max(swept) == 3
        for i in (0, 1, 3, 4, 6, 7):
            _assert_bits_equal(w[i], np.sort(np.diag(stack[i]).real))
        swept.clear()
        _assert_stack_matches_solo(stack)

    def test_stack_sweeps_as_often_as_its_slowest_member(self, swept):
        # members converging sweeps apart leave the stack one by one, so the stack runs the
        # largest member's count of sweeps, not their sum
        rng = rng_for(37)
        h = random_hermitian(rng, 6)
        near = np.diag(np.diag(h)) + 1e-9 * (h - np.diag(np.diag(h)))
        stack = np.stack([np.diag(np.diag(h)), random_hermitian(rng, 6), near, 1e-80 * random_hermitian(rng, 6)])
        solo = []
        for member in stack:
            swept.clear()
            hermitian_eig(member)
            solo.append(len(swept))
        assert solo[0] == 0 and 0 < solo[2] < solo[1]
        swept.clear()
        _assert_stack_matches_solo(stack)
        assert len(swept) == max(solo) + sum(solo)  # the stack's sweeps, then each member's lone ones
        stacked = swept[: max(solo)]
        assert stacked == [sum(count > k for count in solo) for k in range(max(solo))]

    def test_sparse_members_with_signed_zeros_match_solo(self):
        # whether a member is certified or solved, its zeros keep the signs of a lone solve
        rng = rng_for(36)
        for _ in range(30):
            n = int(rng.integers(3, 9))
            _assert_stack_matches_solo(np.stack([_sparse_hermitian(rng, n) for _ in range(4)]))

    def test_member_whose_round_is_all_zero_keeps_its_bits(self):
        # a sparse member with its round-0 pairs (0, 1), (2, 3), ... zeroed (half of them -0.0) sits out
        # that round while a dense member rotates; its zeros keep the signs of a lone solve
        rng = rng_for(38)
        for _ in range(20):
            n = int(rng.integers(4, 9))
            sparse = _sparse_hermitian(rng, n)
            for p in range(0, n - 1, 2):
                sparse[p, p + 1] = sparse[p + 1, p] = complex(0.0, 0.0) if rng.random() < 0.5 else complex(-0.0, -0.0)
            _assert_stack_matches_solo(np.stack([sparse, random_hermitian(rng, n), sparse.conj()]))

    def test_mixed_kinds_match_solo(self):
        # certified, swept, sparse (rounds of all-zero pairs) and tiny or huge members in one stack
        rng = rng_for(39)
        for n in (2, 3, 4, 5, 8):
            members = []
            for kind in range(12):
                h = random_hermitian(rng, n)
                if kind % 4 == 1:
                    h = np.diag(np.diag(h))
                elif kind % 4 == 2:
                    h = _sparse_hermitian(rng, n)
                elif kind % 4 == 3:
                    h = h * 10.0 ** rng.choice([-150.0, 150.0])
                members.append(h)
            _assert_stack_matches_solo(np.stack(members))

    def test_stack_of_diagonal_members_needs_no_sweep(self, eig_calls, swept):
        # signed zeros keep the order a stable sort gives them, as in a lone solve
        diagonals = [[2.0, 1.0, 0.0], [0.0, -3.0, 0.0], [-0.0, 0.0, -0.0]]
        stack = np.stack([np.diag(d) for d in diagonals]).astype(complex)
        w, v = stack_eig(stack)
        assert eig_calls == [] and swept == []
        np.testing.assert_array_equal(w, [[0.0, 1.0, 2.0], [-3.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        _assert_stack_matches_solo(stack)

    @pytest.mark.parametrize("bad", ["non_hermitian", "nan", "inf"])
    def test_bad_member_raises_domain_error(self, bad):
        stack = np.stack([random_hermitian(rng_for(34, i), 4) for i in range(3)])
        if bad == "non_hermitian":
            stack[2, 0, 3] += 1.0
        else:
            stack[1, 2, 2] = float(bad)
        with pytest.raises(DomainError, match="stack member 2" if bad == "non_hermitian" else "finite"):
            stack_eig(stack)

    def test_member_beyond_float64_rejected(self):
        stack = np.stack([np.eye(2), 1e308 * np.ones((2, 2)), 1e308 * np.eye(2)]).astype(complex)
        with pytest.raises(DomainError, match="stack member 1"):
            stack_eig(stack)

    @pytest.mark.parametrize("shape", [(3, 2, 3), (0, 2, 2), (2, 0, 0), (2, 2, 2, 2), (2, 2)])
    def test_malformed_stack_raises_shape_error(self, shape):
        with pytest.raises(ShapeError):
            stack_eig(np.zeros(shape, dtype=complex))

    def test_sweep_budget_names_the_member(self, monkeypatch):
        stack = np.stack([np.diag([1.0, 2.0]).astype(complex), SX])
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 0)
        with pytest.raises(ConvergenceError, match="stack member 1"):
            stack_eig(stack)

    def test_sweep_budget_names_the_first_member_still_sweeping(self, monkeypatch):
        # member 0 converges within one sweep and leaves; member 2 still needs more when the budget ends
        h = random_hermitian(rng_for(40), 5)
        near = np.diag(np.diag(h)) + 1e-9 * (h - np.diag(np.diag(h)))
        stack = np.stack([near, np.diag(np.diag(h)), random_hermitian(rng_for(41), 5)])
        monkeypatch.setattr(linalg, "JACOBI_MAX_SWEEPS", 1)
        hermitian_eig(near)
        with pytest.raises(ConvergenceError, match=r"in 1 sweeps \(stack member 2\)$"):
            stack_eig(stack)

    def test_hermitian_eig_takes_one_matrix(self):
        with pytest.raises(ShapeError):
            hermitian_eig(np.stack([SZ, SX]))


def block_diagonal(*blocks) -> np.ndarray:
    """The square blocks on the diagonal of one complex matrix, zeros elsewhere."""
    n = sum(len(block) for block in blocks)
    m = np.zeros((n, n), dtype=complex)
    start = 0
    for block in blocks:
        m[start : start + len(block), start : start + len(block)] = block
        start += len(block)
    return m


# (n, first block's size): in these block-diagonal GUE draws one block converges sweeps before the other,
# so its off-diagonal entries keep shrinking, through the subnormal range, while the other converges
BLOCK_SPLITS = [(24, 5), (24, 19), (32, 5), (32, 6), (32, 28), (48, 12), (64, 7)]


class TestDeepUnderflow:
    """A pair whose |a_pq| lies below the smallest normal float is dropped as zero: dividing a_pq by so
    small a modulus can overflow, and a rotation by t = 0 times that phase would be NaN."""

    SUBNORMAL = np.array([[1.0, 1e-310, 0.0], [1e-310, 0.0, 0.5], [0.0, 0.5, 0.3]], dtype=complex)

    def test_subnormal_entry_matches_lapack_alone_and_in_a_stack(self):
        want = np.linalg.eigvalsh(self.SUBNORMAL)
        np.testing.assert_allclose(hermitian_eig(self.SUBNORMAL).eigenvalues, want, rtol=0, atol=1e-14)
        w, v = stack_eig(np.stack([np.eye(3, dtype=complex), self.SUBNORMAL]))
        np.testing.assert_allclose(w[1], want, rtol=0, atol=1e-14)
        assert np.isfinite(v).all()

    @pytest.mark.parametrize("n, k", BLOCK_SPLITS)
    def test_block_diagonal_matches_lapack_alone_and_stacked(self, n, k):
        rng = rng_for(9, n, k)
        h = block_diagonal(random_hermitian(rng, k), random_hermitian(rng, n - k))
        order = rng.permutation(n)
        matrices = [h, h[np.ix_(order, order)]]  # the second hides the blocks from the pair order
        solved = [tuple(hermitian_eig(m)) for m in matrices] + list(zip(*stack_eig(np.stack(matrices))))
        for m, (w, v) in zip(matrices * 2, solved):
            np.testing.assert_allclose(w, np.linalg.eigvalsh(m), rtol=0, atol=1e-12 * frobenius(m))
            assert frobenius((v * w) @ v.conj().T - m) <= 1e-12 * frobenius(m)

    def test_non_finite_result_raises_naming_the_member(self, monkeypatch):
        original = linalg._Rounds.sweep

        def faulty(rounds):
            original(rounds)
            rounds.s[..., -1, 0] = np.nan  # an entry of V: a fault of the sweeps, not of the input

        monkeypatch.setattr(linalg._Rounds, "sweep", faulty)
        h = random_hermitian(rng_for(9), 4)
        with pytest.raises(NumericalError, match=r"^Jacobi eigensolver produced a non-finite eigenvalue or eigenvector$"):
            hermitian_eig(h)
        stack = np.stack([np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex), h])  # member 0 needs no sweep
        with pytest.raises(NumericalError, match=r"eigenvector \(stack member 1\)$"):
            stack_eig(stack)


def _pinned_solves(n):
    """Lone and stacked solves at n, in a fixed order: a GUE draw, a density draw and a block-sparse
    draw whose zeros are half -0.0, each alone; two seeded solves of the GUE draw (a random unitary
    seed and a near eigenbasis); then those three, a diagonal member and a rescaled GUE member as one
    stack, each of whose members must have the bits of its lone solve. Returns the arrays to pin."""
    rng = rng_for(61, n)
    gue, density = random_hermitian(rng, n), random_density_matrix(rng, n)
    sparse = block_diagonal(random_hermitian(rng, n // 2), _sparse_hermitian(rng, n - n // 2))
    sparse[(sparse == 0) & (rng.random((n, n)) < 0.5)] = complex(-0.0, -0.0)
    members = np.stack([gue, density, sparse, np.diag(np.diag(gue)), 1e-150 * gue])
    lone = [hermitian_eig(m) for m in members]
    w, v = stack_eig(members)
    for i, solo in enumerate(lone):
        _assert_bits_equal(w[i], solo.eigenvalues)
        _assert_bits_equal(v[i], solo.eigenvectors)
    seeded = [
        hermitian_eig(gue, random_unitary(rng, n)),
        hermitian_eig(gue + 1e-6 * density, lone[0].eigenvectors),
    ]
    return [array for solve in lone[:3] + seeded for array in solve]


# sha256 of the eigenvalue and eigenvector bytes of _pinned_solves(n), in order: the bits of one product
# per rotation pair, which grouped products must keep. Like the goldens, they hold for numpy's own BLAS.
PINNED_SOLVES = {
    2: "170846b05747dae79ff6e3d826e212837c92671420a1af532230fc86559260d7",
    3: "f20c7d8f2330e6f1f335745d340e8ec259e8de7a9c2e1aecf65ac8f5a0f46828",
    4: "a60672825e7fad93bc79d5d67b1ac60c68946e7ab314ae9c575d38843a612f99",
    5: "b309d243b0360db5fd40b70d791cf989da5ac24b4ff1736670e9605d85285df2",
    6: "07423ca885352468aa5c0b73169b03f20e7b0083ea3f1481fd2db8eff90eacfe",
    8: "f2c536a50f74991397ce1ddf159fd83a972f8ca88da98b71af3a6a7a88a6228d",
    9: "24aa0e89ff78b850ee52f80de73e6fe45e54bae2fde833fcb985731c3bcfee85",
    16: "b6ab69e5df1cf71ae71923d3260de9dc12dced96930854bb57eb1fb220709a2e",
    32: "0834aee5d2155ece91a18c90175b6c5b254a12b1eed05db55a6bb97f5308a6ee",
    64: "7007ae6bf453ca93d3af26afc237356dace425f4a32b56b54c26056b91128d39",
}


class TestSolverBits:
    """The solver's bits, pinned by digest: a change to how the rotations are multiplied out must
    leave every eigenvalue and eigenvector bit, signed zeros included."""

    @pytest.mark.parametrize("n", sorted(PINNED_SOLVES))
    def test_solves_keep_their_pinned_bits(self, n):
        digest = hashlib.sha256()
        for array in _pinned_solves(n):
            digest.update(array.tobytes())
        assert digest.hexdigest() == PINNED_SOLVES[n]


class TestFrobenius:
    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales_match_scaled_reference(self, scale):
        # the plain sum of squares overflows to inf or underflows to 0 here
        for unit in (np.ones((2, 2)), (1 + 2j) * np.ones((2, 3)), random_hermitian(rng_for(9), 5)):
            assert frobenius(scale * unit) / scale == pytest.approx(frobenius(unit), rel=1e-15)

    def test_zero_matrix_is_zero(self):
        assert frobenius(np.zeros((3, 3), dtype=complex)) == 0.0

    def test_norm_beyond_float64_is_inf(self):
        # once leaked numpy's "overflow encountered in ldexp"
        assert frobenius(np.full((2, 2), 1e308)) == np.inf

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


# (n, points): the n = 64 stack stops at 256 points, as 3000 would take 200 MB
PROPAGATOR_STACKS = [(n, points) for n in (2, 4, 8, 64) for points in (1, 7, 256, 3000) if n * n * points <= 2**20]


class TestPropagatorStack:
    @pytest.mark.parametrize("n, points", PROPAGATOR_STACKS)
    def test_member_has_the_bits_of_its_lone_product(self, n, points):
        spectrum = hermitian_eig(random_hermitian(rng_for(74, n), n))
        times = np.linspace(-40.0, 40.0, points)
        stack = spectrum.propagator(times)
        assert stack.shape == (points, n, n)
        for t, u in zip(times, stack):
            _assert_bits_equal(u, spectrum.propagator(t))


class TestPropagatorWorkingSet:
    def test_peak_is_the_stack_and_one_block(self):
        """n = 16 at 3000 times: a 12.3 MB stack. Its GEMMs go block by block into it, so no
        V diag(exp(-i w t)) temporary as large as the stack is ever held."""
        spectrum = hermitian_eig(random_hermitian(rng_for(16), 16))
        times = np.linspace(0.0, 30.0, 3000)
        tracemalloc.start()
        try:
            stack = spectrum.propagator(times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * stack.nbytes


# np.float_power over these runs libm's pow, about 0.1 ms with the vector state clean
POWER_BASES = np.linspace(0.1, 1.0, 6000)
CLEAN_OPERAND = np.zeros(64)
COMPLEX_FACTOR = random_hermitian(rng_for(75, 4), 4)


def _power_after(ops: dict, reps: int = 21) -> dict:
    """{name: median time of np.float_power over POWER_BASES just after ops[name]()}, the ops taken in
    turn rep by rep, so that a change in the host's load falls on each alike."""
    times = {name: [] for name in ops}
    for _ in range(reps):
        for name, op in ops.items():
            op()
            start = time.perf_counter()
            np.float_power(POWER_BASES, 2.5)
            times[name].append(time.perf_counter() - start)
    return {name: statistics.median(seconds) for name, seconds in times.items()}


class TestVectorState:
    """An AVX-512 complex GEMM of OpenBLAS leaves the vector registers dirty, and libm's pow runs about
    14 times slower until they are cleared (``linalg._clear_vector_state``). A BLAS whose complex GEMM
    does not slow it 4 times skips; otherwise ``propagator``, which ends in a complex GEMM, must leave
    pow within 2 times of its clean speed."""

    SPECTRUM = hermitian_eig(random_hermitian(rng_for(76, 2), 2))

    @pytest.mark.parametrize("times", [1.5, np.linspace(0.0, 100.0, 256)], ids=["one time", "256 times"])
    def test_propagator_leaves_the_vector_state_clean(self, times):
        medians = _power_after(
            {
                "clean": lambda: np.add(CLEAN_OPERAND, CLEAN_OPERAND),
                "complex GEMM": lambda: COMPLEX_FACTOR @ COMPLEX_FACTOR,
                "propagator": lambda: self.SPECTRUM.propagator(times),
            }
        )
        if medians["complex GEMM"] < 4 * medians["clean"]:
            pytest.skip("this BLAS's complex GEMM leaves the vector state clean")
        assert medians["propagator"] <= 2 * medians["clean"], medians


class TestPhaseTable:
    def test_names_the_first_time_without_a_phase(self):
        spectrum = hermitian_eig(1e300 * SZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(DomainError, match=r"at t = 200000000\.0 "):
                spectrum.phases([0.0, 1.0, 2e8, 1e10])
            with pytest.raises(DomainError, match="at t = nan"):
                hermitian_eig(SX).phases([0.0, np.nan])

    def test_non_real_time_raises(self):
        # numpy would warn and drop the imaginary part, leaving exp(-i h Re t)
        spectrum = hermitian_eig(SZ)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=r"^t = \(1\+1j\) is not real"):
                spectrum.phases(np.array([1 + 1j]))
            with pytest.raises(DomainError, match=r"^t = \(2-0\.5j\) is not real"):
                spectrum.phases([0.0, 2.0 - 0.5j])
            with pytest.raises(DomainError, match="is not real"):
                spectrum.propagator(1j)
            # a zero imaginary part leaves the real time
            assert np.array_equal(spectrum.phases(np.array([0.5 + 0j, -1.0])), spectrum.phases([0.5, -1.0]))
            assert np.array_equal(spectrum.propagator(0.5 + 0j), spectrum.propagator(0.5))

    def test_integer_beyond_float_range_raises(self):
        spectrum = hermitian_eig(SZ)
        with pytest.raises(DomainError, match=r"^t = 1(0{400}) lies beyond the float64 range"):
            spectrum.phases(10**400)
        with pytest.raises(DomainError, match=r"^t = -1(0{400}) lies beyond the float64 range"):
            spectrum.phases([0, 1.0, -(10**400), 10**400])
        with pytest.raises(DomainError, match=r"^t = 1(0{400}) "):
            spectrum.propagator(10**400)

    def test_integer_times_keep_their_float_bits(self):
        # 2**70 + 1 rounds to 2**70 in float64, as before the conversion
        spectrum = hermitian_eig(random_hermitian(rng_for(5), 3))
        exact = spectrum.phases([0.0, 3.0, float(2**70 + 1)])
        assert np.array_equal(spectrum.phases([0, 3, 2**70 + 1]), exact)
        assert np.array_equal(spectrum.propagator(2**70 + 1), spectrum.propagator(float(2**70 + 1)))

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

    @pytest.mark.parametrize("entry", [800.0, 5e307], ids=["800", "5e307"])
    def test_result_beyond_float64_raises(self, entry):
        # exp(800) overflows: once inf + nan j, silently; 5e307 made 2.0**s raise OverflowError
        with pytest.raises(NumericalError, match="exceeds the float64 range"):
            expm_oracle(np.diag([entry, 0.0]))

    def test_norm_beyond_float64_raises(self):
        with pytest.raises(DomainError, match="norm exceeds the float64 range"):
            expm_oracle(np.full((2, 2), 1e308))

    def test_anti_hermitian_norm_past_the_error_bound_raises(self):
        # once [[0, 0], [0, 1]], silently, for a unitary exp(a) of which no digit was left
        with pytest.raises(DomainError, match=r"^\|\|a\|\|_F = 5\.000e\+307 of an anti-Hermitian a exceeds 1\.220e\+13"):
            expm_oracle(-1j * np.diag([5e307, 0.0]))
        h = random_hermitian(rng_for(72), 4)
        a = -1j * h / frobenius(h)
        with pytest.raises(DomainError, match="anti-Hermitian"):
            expm_oracle(2 * linalg.EXPM_MAX_ANTI_HERMITIAN_NORM * a)
        u = expm_oracle(0.5 * linalg.EXPM_MAX_ANTI_HERMITIAN_NORM * a)  # within the bound: an answer
        assert frobenius(u.conj().T @ u - identity(4)) <= 0.5

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_error_model_bounds_the_unitarity_defect(self, n):
        rng = rng_for(73, n)
        # at 2**40 a 1 x 1 argument scales to exactly 1/2, the Taylor truncation's worst case
        for norm in [10.0**k for k in range(13)] + [2.0**40]:
            h = random_hermitian(rng, n)
            a = -1j * h * (norm / frobenius(h))
            u = expm_oracle(a)
            assert frobenius(u.conj().T @ u - identity(n)) <= linalg.EXPM_DEFECT_PER_NORM * frobenius(a)

    def test_finite_result_of_a_huge_norm(self):
        # exp(N) = 1 + N for a nilpotent N: the scaling 2**-1024 must not overflow on the way
        out = expm_oracle(np.array([[0.0, 1e308], [0.0, 0.0]]))
        np.testing.assert_array_equal(out, np.array([[1.0, 1e308], [0.0, 1.0]]))


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
