"""Probability vectors, pure states, density matrices, bases, and both entropies.

Conventions: entropies are in nats (natural log), 0*ln(0) := 0, and inputs are
validated rather than silently renormalized. Density-matrix spectra may dip
to -1e-10 from rounding; such eigenvalues count as zero, anything lower is
rejected as not a density matrix.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError
from .linalg import _norms, as_matrix, frobenius, hermitian_eig, require_hermitian, stack_eig

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
    if r.shape[0] != r.shape[1]:
        raise ShapeError(f"density matrix must be square, got shape {r.shape}")
    if frobenius(r - r.conj().T) > DENSITY_HERMITICITY_ATOL:
        raise DomainError("density matrix is not Hermitian")
    tr = complex(np.trace(r))
    if abs(tr - 1.0) > DENSITY_TRACE_ATOL:
        raise DomainError(f"density matrix trace must be 1, got {tr!r}")
    if check_psd:
        smallest = float(_density_spectrum(r)[0])
        if smallest < EIGENVALUE_CLAMP:
            raise DomainError(
                f"not a density matrix: eigenvalue {smallest:.3e} below {EIGENVALUE_CLAMP:g}"
            )
    return r


def as_orthonormal_basis(vectors) -> np.ndarray:
    """Validate a stack of mutually orthonormal states; rows are the vectors."""
    b = np.array(vectors, dtype=np.complex128)
    if b.ndim == 1:
        b = b.reshape(1, -1)
    if b.ndim != 2 or b.size == 0:
        raise ShapeError(f"expected a stack of equal-length vectors, got shape {b.shape}")
    if not np.all(np.isfinite(b)):
        raise DomainError("basis amplitudes must be finite")
    gram = b.conj() @ b.T
    residual = float(np.max(np.abs(gram - np.eye(b.shape[0]))))
    if residual > BASIS_ORTHO_ATOL:
        raise DomainError(f"basis is not orthonormal: max |<j|k> - delta| = {residual:.3e}")
    return b


def shannon_entropy(p) -> float:
    """S = -sum_j P_j ln P_j in nats, with 0 ln 0 = 0."""
    return spectrum_entropy(as_probability_vector(p))


def _density_stack(rho) -> np.ndarray:
    """A (T, n, n) stack as complex128, each member validated as by ``as_density_matrix(check_psd=False)``.

    The whole stack is accepted in one pass when it is square and finite and
    every member's ||rho - rho†||_F and |tr rho - 1| are within the lone
    check's tolerances; each member's two numbers have the bits of that
    check's (one conjugated dot product, ``np.trace``'s sum), so the verdicts
    agree. Anything else, an overflowed norm included, goes through the lone
    check member by member, and the error names the first failing member.
    """
    stack = np.asarray(rho, dtype=np.complex128)
    if stack.shape[1] == stack.shape[2] > 0 and np.isfinite(stack).all():
        with np.errstate(over="ignore"):  # an overflowed norm is inf: the lone check rules on its member
            defects = _norms(stack - stack.conj().swapaxes(1, 2))
        traces = stack.trace(axis1=1, axis2=2)
        if (defects <= DENSITY_HERMITICITY_ATOL).all() and (np.abs(traces - 1.0) <= DENSITY_TRACE_ATOL).all():
            return stack
    for i, member in enumerate(stack):
        try:
            as_density_matrix(member, check_psd=False)
        except (DomainError, ShapeError) as error:
            raise type(error)(f"{error} (stack member {i})") from None
    return stack


def _density_spectrum(rho: np.ndarray) -> np.ndarray:
    """Eigenvalues of a validated density matrix, or of each member of a validated (T, n, n) stack.

    The solver's relative Hermiticity check, ||rho - rho†||_F <= HERMITICITY_RTOL * ||rho||_F, is
    stricter than the absolute one of ``as_density_matrix`` when ||rho||_F < 1; its refusal then
    names the density matrix (and its stack member), not the solver's input.
    """
    stacked = rho.ndim == 3
    try:
        return stack_eig(rho)[0] if stacked else hermitian_eig(rho).eigenvalues
    except DomainError:
        for i, member in enumerate(rho if stacked else [rho]):
            require_hermitian(member, what=f"density matrix (stack member {i})" if stacked else "density matrix")
        raise


def von_neumann_entropy(rho):
    """S = -tr(rho ln rho) in nats; the Shannon entropy of the spectrum.

    A (T, n, n) stack gives an array of T entropies, each with the bits of
    its member's lone call: the stack is validated in one pass (an error
    names the stack member), and one ``stack_eig`` solves every member.
    """
    if np.ndim(rho) == 3:
        return spectrum_entropy(_density_spectrum(_density_stack(rho)))
    r = as_density_matrix(rho, check_psd=False)
    return spectrum_entropy(_density_spectrum(r))


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
    smallest = rows.min()
    if smallest < EIGENVALUE_CLAMP:
        raise DomainError(f"not a density matrix: eigenvalue {smallest:.3e} below {EIGENVALUE_CLAMP:g}")
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
    b = np.array(basis, dtype=np.complex128)
    if b.ndim == 1:
        b = b.reshape(1, -1)
    if b.ndim != 2 or b.size == 0:
        raise ShapeError(f"expected a stack of equal-length vectors, got shape {b.shape}")
    count, dim = b.shape
    gram = b.conj() @ b.T
    ortho = float(np.max(np.abs(gram - np.eye(count))))
    completeness = None
    if count == dim:
        completeness = float(frobenius(b.T @ b.conj() - np.eye(dim)))
    return ortho, completeness
