"""Probability vectors, pure states, density matrices, bases, and both entropies.

Conventions: entropies are in nats (natural log), 0*ln(0) := 0, and inputs are
validated rather than silently renormalized. Density-matrix spectra may dip
to -1e-10 from rounding; such eigenvalues count as zero, anything lower is
rejected as not a density matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import _norms, _solve, as_matrix, frobenius

# Weights in [PROB_NEGATIVE_CLAMP, 0) snap to zero; below that the vector is rejected.
PROB_NEGATIVE_CLAMP = -1e-12
PROB_SUM_ATOL = 1e-10
STATE_NORM_ATOL = 1e-10
DENSITY_HERMITICITY_ATOL = 1e-10
DENSITY_TRACE_ATOL = 1e-10
# Density eigenvalues in [EIGENVALUE_CLAMP, 0) count as zero.
EIGENVALUE_CLAMP = -1e-10
BASIS_ORTHO_ATOL = 1e-10


def as_probability_vector(p) -> np.ndarray:
    """Validate classical ensemble weights: each >= 0 and summing to one."""
    w = np.array(p, dtype=float)
    if w.ndim != 1 or w.size == 0:
        raise ShapeError(f"expected a nonempty 1-D weight vector, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise DomainError("probabilities must be finite")
    if np.any(w < PROB_NEGATIVE_CLAMP):
        raise DomainError(f"probability below zero: min weight {w.min():.3e}")
    w[w < 0.0] = 0.0
    total = float(w.sum())
    if abs(total - 1.0) > PROB_SUM_ATOL:
        raise DomainError(f"probabilities must sum to 1, got {total!r}")
    return w


def as_pure_state(psi) -> np.ndarray:
    """Validate a normalized complex amplitude vector."""
    v = np.array(psi, dtype=np.complex128)
    if v.ndim != 1 or v.size == 0:
        raise ShapeError(f"expected a nonempty 1-D amplitude vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise DomainError("amplitudes must be finite")
    norm_sq = float(np.vdot(v, v).real)
    if abs(norm_sq - 1.0) > STATE_NORM_ATOL:
        raise DomainError(f"state is not normalized: ||psi||^2 = {norm_sq!r}")
    return v


def as_density_matrix(rho, *, check_psd: bool = True) -> np.ndarray:
    """Validate a Hermitian, unit-trace, positive-semidefinite matrix.

    The PSD check costs an eigendecomposition; callers that already guarantee
    positivity (e.g. unitary conjugation of a valid input) may skip it.
    """
    r = as_matrix(rho)
    _densities(r[None], "")
    if check_psd:
        _require_psd(_solve(r[None], None, "", "density matrix")[0])
    return r


def as_orthonormal_basis(vectors) -> np.ndarray:
    """Validate a stack of mutually orthonormal states; rows are the vectors."""
    b = _rows(vectors)
    if not np.all(np.isfinite(b)):
        raise DomainError("basis amplitudes must be finite")
    residual = _ortho_residual(b)
    if residual > BASIS_ORTHO_ATOL:
        raise DomainError(f"basis is not orthonormal: max |<j|k> - delta| = {residual:.3e}")
    return b


def shannon_entropy(p) -> float:
    """S = -sum_j P_j ln P_j in nats, with 0 ln 0 = 0."""
    return spectrum_entropy(as_probability_vector(p))


def _densities(stack: np.ndarray, member: str) -> np.ndarray:
    """A (T, n, n) complex stack, each member validated as by ``as_density_matrix(check_psd=False)``.

    An error names the first failing member by ``member``, formatted with its index, after the text
    of its lone check, whose order it keeps: nonempty, finite, square, ||rho - rho†||_F within
    DENSITY_HERMITICITY_ATOL (an overflowed norm is inf and fails), |tr rho - 1| within
    DENSITY_TRACE_ATOL.
    """
    t, rows, cols = stack.shape
    if t == 0:
        raise ShapeError(f"expected a nonempty stack of square matrices, got shape {stack.shape}")
    if rows == 0 or cols == 0:
        raise ShapeError(f"expected a nonempty 2-D matrix, got shape {stack.shape[1:]}{member.format(0)}")
    i = 0  # a non-square stack fails at its first member
    if rows == cols:
        # A non-finite entry of rho makes the same entry of rho - rho† non-finite, so its norm fails too.
        with np.errstate(over="ignore", invalid="ignore"):
            defects = _norms(stack - stack.conj().swapaxes(1, 2))
            traces = stack.trace(axis1=1, axis2=2)
            valid = (defects <= DENSITY_HERMITICITY_ATOL) & (np.abs(traces - 1.0) <= DENSITY_TRACE_ATOL)
        if valid.all():
            return stack
        i = valid.argmin()
    if not np.isfinite(stack[i]).all():
        raise DomainError(f"matrix entries must be finite{member.format(i)}")
    if rows != cols:
        raise ShapeError(f"density matrix must be square, got shape {stack.shape[1:]}{member.format(i)}")
    if not defects[i] <= DENSITY_HERMITICITY_ATOL:
        raise DomainError(f"density matrix is not Hermitian{member.format(i)}")
    raise DomainError(f"density matrix trace must be 1, got {complex(traces[i])!r}{member.format(i)}")


def von_neumann_entropy(rho):
    """S = -tr(rho ln rho) in nats; the Shannon entropy of the spectrum.

    A (T, n, n) stack gives an array of T entropies, each with the bits of
    its member's lone call: a matrix is a stack of one, and a stack is
    validated and solved as one (an error names the stack member).
    """
    stacked = np.ndim(rho) == 3
    member = " (stack member {})" if stacked else ""
    stack = _densities(np.ascontiguousarray(rho, dtype=np.complex128) if stacked else as_matrix(rho)[None], member)
    w = _solve(stack, None, member, "density matrix")[0]
    return spectrum_entropy(w if stacked else w[0])


def _require_psd(w: np.ndarray) -> None:
    """DomainError unless every eigenvalue of a density-matrix spectrum, or stack of them, is >= EIGENVALUE_CLAMP."""
    smallest = w.min()
    if smallest < EIGENVALUE_CLAMP:
        raise DomainError(f"not a density matrix: eigenvalue {smallest:.3e} below {EIGENVALUE_CLAMP:g}")


def spectrum_entropy(w):
    """Shannon entropy in nats of a density-matrix spectrum, or of each row of a (T, n) stack of them.

    Eigenvalues in [EIGENVALUE_CLAMP, 0) count as zero; a lower one raises.
    A 1-D spectrum gives a float and a stack an array of T entropies. Rows
    with equally many positive eigenvalues are reduced together, each over
    its positive eigenvalues in their order, so every row's entropy has the
    bits of the 1-D call.
    """
    w = np.asarray(w, dtype=float)
    rows = w.reshape(-1, w.shape[-1])
    _require_psd(rows)
    positive = rows > 0.0
    counts = positive.sum(axis=1)
    entropy = np.zeros(len(rows))
    for count in set(counts.tolist()) - {0}:
        same = counts == count
        p = rows[same][positive[same]].reshape(-1, count)
        entropy[same] = -(p * np.log(p)).sum(axis=1)
    entropy = np.where(entropy > 0.0, entropy, 0.0)
    return float(entropy[0]) if w.ndim == 1 else entropy


def factor_pure(p, phases) -> np.ndarray:
    """Amplitudes psi_j = sqrt(P_j) e^{i phi_j}; |psi_j|^2 recovers P_j."""
    w = as_probability_vector(p)
    ph = np.asarray(phases, dtype=float)
    if ph.shape != w.shape:
        raise ShapeError(f"phase count {ph.shape} does not match weight count {w.shape}")
    return np.sqrt(w) * np.exp(1j * ph)


def pure_density(psi) -> np.ndarray:
    """Rank-one projector |psi><psi|."""
    v = as_pure_state(psi)
    return np.outer(v, v.conj())


def mixture_density(basis, p) -> np.ndarray:
    """rho = sum_j P_j |psi_j><psi_j| over an orthonormal set of states."""
    b = as_orthonormal_basis(basis)
    w = as_probability_vector(p)
    if w.size != b.shape[0]:
        raise ShapeError(f"{w.size} weights for {b.shape[0]} basis states")
    return (b.T * w) @ b.conj()


def basis_residuals(basis) -> tuple[float, float | None]:
    """Diagnostics for a candidate basis: how far it is from orthonormal and complete.

    Returns (max |<psi_j|psi_k> - delta(j,k)|, ||sum_j |psi_j><psi_j| - 1||_F).
    The completeness residual is None unless the vector count equals the
    dimension. Inputs are not validated; the residuals are the diagnostic.
    """
    b = _rows(basis)
    ortho = _ortho_residual(b)
    count, dim = b.shape
    completeness = None
    if count == dim:
        completeness = float(frobenius(b.T @ b.conj() - np.eye(dim)))
    return ortho, completeness


def _rows(vectors) -> np.ndarray:
    """``vectors`` as a nonempty 2-D complex array whose rows are the vectors (one vector is a stack of one)."""
    b = np.array(vectors, dtype=np.complex128)
    if b.ndim == 1:
        b = b.reshape(1, -1)
    if b.ndim != 2 or b.size == 0:
        raise ShapeError(f"expected a stack of equal-length vectors, got shape {b.shape}")
    return b


def _ortho_residual(b: np.ndarray) -> float:
    """max |<j|k> - delta(j,k)| over the rows of b."""
    return float(np.max(np.abs(b.conj() @ b.T - np.eye(len(b)))))
