"""Seeded random fixtures for property tests.

All randomness flows through numpy's PCG64 generator (np.random.default_rng)
from an explicit 64-bit seed, so every suite and test is reproducible.
Hermitian draws are GUE-style: (A + A†)/2 with independent standard-normal
real and imaginary parts. Real-symmetric draws (GOE-style) exist for checks
whose small-time error expansion must be even in t.
"""

from __future__ import annotations

import numpy as np

DEFAULT_SEED = 123456789


def rng_for(seed: int, *stream: int) -> np.random.Generator:
    """Independent generator for (seed, stream...) - distinct streams never overlap."""
    return np.random.default_rng([int(seed) % 2**64, *(int(s) % 2**64 for s in stream)])


def random_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    """GUE-style Hermitian matrix (A + A†)/2."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_real_symmetric(rng: np.random.Generator, dim: int) -> np.ndarray:
    """GOE-style real symmetric matrix (A + Aᵀ)/2, as a complex array."""
    a = rng.standard_normal((dim, dim))
    return ((a + a.T) / 2.0).astype(np.complex128)


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def random_probability_vector(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Uniform-ish point on the simplex (normalized exponential samples)."""
    w = rng.standard_exponential(dim)
    return w / w.sum()


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-style unitary from a QR factorization with phase-fixed diagonal."""
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(a)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def random_orthonormal_basis(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Rows are dim mutually orthonormal states."""
    return random_unitary(rng, dim).T.copy()


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random mixed state: Haar eigenbasis with simplex-distributed spectrum."""
    u = random_unitary(rng, dim)
    w = random_probability_vector(rng, dim)
    return (u * w) @ u.conj().T
