"""Unitary time evolution in both pictures, expectation values, and transitions.

The generator is always a time-independent Hermitian matrix, given as the
matrix or as its ``hermitian_eig`` spectrum, which a caller evolving under one
H many times computes once; the propagator is U(t) = exp(-i H t) with hbar = 1.
States evolve as rho -> U rho U† (Schrodinger picture) or observables as
x -> U† x U (Heisenberg picture); the two pictures agree through trace cyclicity.
"""

from __future__ import annotations

import numpy as np

from .ensembles import as_density_matrix, as_orthonormal_basis, as_pure_state
from .errors import DomainError, NumericalError, ShapeError
from .linalg import EigenDecomposition, as_matrix, float_times, hermitian_eig, require_hermitian

EXPECTATION_IMAG_ATOL = 1e-10


def _check_dim(dim: int, other: int, what: str) -> None:
    if dim != other:
        raise ShapeError(f"{what}: dimension {other} does not match generator dimension {dim}")


def _spectrum(h) -> EigenDecomposition:
    """The generator's spectrum: h itself when it is one, else hermitian_eig(h), which checks Hermiticity."""
    return h if isinstance(h, EigenDecomposition) else hermitian_eig(h)


def _propagator(h, t) -> np.ndarray:
    """U(t) of the generator for one time t; a grid of times, which ``propagator`` stacks, raises ShapeError."""
    if np.ndim(t) != 0:
        raise ShapeError(f"t must be a single time, got an array of shape {np.shape(t)}")
    return _spectrum(h).propagator(t)


def evolve_state(psi, h, t: float) -> np.ndarray:
    """psi(t) = U(t) psi(0); preserves the norm."""
    v = as_pure_state(psi)
    u = _propagator(h, t)
    _check_dim(u.shape[0], v.shape[0], "state")
    return u @ v


def evolve_density(rho, h, t: float) -> np.ndarray:
    """rho(t) = U rho(0) U†; preserves trace, Hermiticity, spectrum, entropy."""
    r = as_density_matrix(rho, check_psd=False)
    u = _propagator(h, t)
    _check_dim(u.shape[0], r.shape[0], "density matrix")
    return u @ r @ u.conj().T


def heisenberg_observable(x0, h, t: float) -> np.ndarray:
    """x(t) = U† x(0) U; unitary conjugation preserves the spectrum."""
    x = require_hermitian(x0, what="observable")
    u = _propagator(h, t)
    _check_dim(u.shape[0], x.shape[0], "observable")
    return u.conj().T @ x @ u


def expectation(x, rho) -> float:
    """<x> = tr(x rho), checked to be real.

    An imaginary part above EXPECTATION_IMAG_ATOL signals a non-Hermitian
    operand and raises instead of being silently discarded.
    """
    x = require_hermitian(x, what="observable")
    r = as_density_matrix(rho, check_psd=False)
    _check_dim(x.shape[0], r.shape[0], "expectation operands")
    value = complex(np.trace(x @ r))
    if abs(value.imag) > EXPECTATION_IMAG_ATOL:
        raise NumericalError(
            f"expectation value has imaginary part {value.imag:.3e}; "
            "operands are not Hermitian enough"
        )
    return float(value.real)


def picture_equivalence(x0, rho0, h, t: float) -> tuple[float, float]:
    """(tr{x(0) rho(t)}, tr{x(t) rho(0)}) - equal up to rounding; h is diagonalised once."""
    spectrum = _spectrum(h)
    schrodinger = expectation(x0, evolve_density(rho0, spectrum, t))
    heisenberg = expectation(heisenberg_observable(x0, spectrum, t), rho0)
    return schrodinger, heisenberg


def heisenberg_rhs(x, h) -> np.ndarray:
    """Equation-of-motion right-hand side i[h, x]; Hermitian when x is."""
    xm = as_matrix(x)
    hm = require_hermitian(h, what="generator")
    if xm.shape != hm.shape:
        raise ShapeError(f"operand shapes differ: {xm.shape} vs {hm.shape}")
    return 1j * (hm @ xm - xm @ hm)


def _check_index(i: int, count: int, name: str) -> int:
    """``i`` as an int; TypeError unless it is an integer (a numpy one too; not a float, nor a bool)."""
    if isinstance(i, bool) or not isinstance(i, (int, np.integer)):
        raise TypeError(f"{name} index must be an integer, got {i!r}")
    i = int(i)
    if not 0 <= i < count:
        raise IndexError(f"{name} index {i} out of range for {count} basis states")
    return i


def transition_probability_exact(basis, j: int, k: int, h_prime, t: float) -> float:
    """P(j -> k) = |<psi_k| exp(-i H' t) |psi_j>|^2."""
    b = as_orthonormal_basis(basis)
    j = _check_index(j, b.shape[0], "source")
    k = _check_index(k, b.shape[0], "target")
    u = _propagator(h_prime, t)
    _check_dim(u.shape[0], b.shape[1], "basis")
    amplitude = np.vdot(b[k], u @ b[j])
    return min(1.0, float(abs(amplitude) ** 2))


def transition_probability_first_order(basis, j: int, k: int, h_prime, t: float) -> float:
    """Small-time law P(j -> k) ~ t^2 |<psi_k| H' |psi_j>|^2, defined for k != j and for a real t
    where it is a finite float64 (else DomainError)."""
    b = as_orthonormal_basis(basis)
    j = _check_index(j, b.shape[0], "source")
    k = _check_index(k, b.shape[0], "target")
    if j == k:
        raise DomainError("first-order transition probability is defined for k != j")
    hp = require_hermitian(h_prime, what="perturbation")
    _check_dim(hp.shape[0], b.shape[1], "basis")
    element = np.vdot(b[k], hp @ b[j])
    t = float(float_times(t))
    probability = t * t * float(abs(element) ** 2)
    if not np.isfinite(probability):
        raise DomainError(f"t^2 |<psi_k| H' |psi_j>|^2 is not a finite float64 at t = {t!r}")
    return probability
