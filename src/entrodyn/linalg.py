"""Dense complex linear algebra: products, a Hermitian eigensolver, matrix exponentials.

Everything operates on plain complex128 ndarrays. All functions are pure:
arguments are never mutated and results are freshly allocated, so values can
be shared freely between threads. hbar = 1 throughout; time carries units of
inverse energy.
"""

from __future__ import annotations

import functools
import math
import sys
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceError, DomainError, ShapeError

# Relative Hermiticity tolerance: ||h - h†||_F <= HERMITICITY_RTOL * ||h||_F.
HERMITICITY_RTOL = 1e-10
# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# JACOBI_OFF_TOL * ||input||_F.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# Taylor degree for the scaling-and-squaring exponential.
TAYLOR_DEGREE = 12


class EigenDecomposition(NamedTuple):
    """Spectral factorization h = V diag(w) V† with w ascending and V unitary.

    Column k of ``eigenvectors`` pairs with ``eigenvalues[k]``. Each column is
    rephased so that its largest-magnitude component is real and positive
    (ties broken by lowest index), which makes the output deterministic for a
    fixed input. Inside a degenerate eigenvalue cluster only the spanned
    subspace is meaningful. ``phases`` and ``propagator`` evaluate exp(-i h t)
    from the stored spectrum, so h is diagonalised once however many times
    it is evolved. The decomposition of a stack holds (T, n) eigenvalues and
    (T, n, n) eigenvectors, and both methods then work member by member.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def phases(self, times) -> np.ndarray:
        """P[t, j] = exp(-i w_j t) for each time of a grid (a scalar is a grid of one), built in place;
        for a stack, one such table per member, shaped (T, times, n). Raises DomainError when
        some w_j t is not finite (t infinite or NaN, or the product overflowing): exp(-i h t)
        is undefined there, and a NaN phase would only spread silently through every product."""
        t = np.asarray(times).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            p = t[:, None] * (-1j * self.eigenvalues)[..., None, :]
        if not np.isfinite(p).all():
            first = np.argwhere(~np.isfinite(p))[0][-2]
            raise DomainError(
                f"w t is not finite at t = {float(t[first])!r} "
                f"(largest |w| = {np.abs(self.eigenvalues).max():.3e}); exp(-i h t) is undefined there"
            )
        return np.exp(p, out=p)

    def propagator(self, t: float) -> np.ndarray:
        """Unitary U(t) = exp(-i h t) = V diag(exp(-i w t)) V† (one per member of a stack)."""
        v = self.eigenvectors
        return (v * self.phases(float(t))) @ v.conj().swapaxes(-1, -2)


def as_matrix(m) -> np.ndarray:
    """Coerce to a fresh C-ordered 2-D complex128 array with finite entries."""
    a = np.array(m, dtype=np.complex128, order="C")
    if a.ndim != 2 or a.shape[0] == 0 or a.shape[1] == 0:
        raise ShapeError(f"expected a nonempty 2-D matrix, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DomainError("matrix entries must be finite")
    return a


def _require_square(a: np.ndarray, what: str = "matrix") -> None:
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"{what} must be square, got shape {a.shape}")


def frobenius(m) -> float:
    """Frobenius norm, as one dot product (np.linalg.norm costs more on small inputs);
    of m rescaled by a power of two when that sum of squares overflows or underflows."""
    a = np.asarray(m)
    total = np.vdot(a, a).real
    if sys.float_info.min <= total <= sys.float_info.max or not a.any():
        return math.sqrt(total)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    e = _scale_exponent(a)
    scaled = np.ldexp(a.view(np.float64), -e)
    return float(np.ldexp(math.sqrt(np.vdot(scaled, scaled)), e))


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


def adjoint(m) -> np.ndarray:
    """Conjugate transpose."""
    return as_matrix(m).conj().T.copy()


def matmul(a, b) -> np.ndarray:
    """Matrix product with an explicit conformability check."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"cannot multiply shapes {a.shape} and {b.shape}")
    return a @ b


def kron(a, b) -> np.ndarray:
    """Kronecker product; block (i, j) of the result is a[i, j] * b."""
    return np.kron(as_matrix(a), as_matrix(b))


def trace(m) -> complex:
    """Sum of diagonal entries of a square matrix."""
    m = as_matrix(m)
    _require_square(m)
    return complex(np.trace(m))


def _scale_exponent(m: np.ndarray) -> int:
    """Exponent e that puts the largest real or imaginary part of m * 2**-e in [0.5, 1).

    Rescaling by a power of two is exact, so norms of the rescaled matrix can
    neither overflow nor underflow and ordinary inputs give bit-identical
    results. A zero matrix gets e = 0.
    """
    return math.frexp(float(np.abs(m.view(np.float64)).max()))[1]


def _norms(m: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack m (a matrix is a stack of one).

    Each is one conjugated dot product, the bits of ``frobenius`` for entries
    whose squares neither overflow nor underflow, as after ``_scale_exponent``.
    """
    flat = m.reshape(m.shape[:-2] + (-1,))
    return np.sqrt(np.vecdot(flat, flat).real)


def _check_hermitian(m: np.ndarray, rtol: float, what: str) -> np.ndarray:
    """Raise DomainError unless ||m - m†||_F <= rtol * ||m||_F for each matrix of
    the stack m; return the norms ||m||_F.

    m must already be rescaled by ``_scale_exponent``, member by member.
    """
    norm = _norms(m)
    defect = _norms(m - m.conj().swapaxes(-1, -2))
    bad = defect > rtol * norm
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise DomainError(
            f"{_member(what, m.ndim == 3, i)} is not Hermitian: ||m - m†||_F / ||m||_F = "
            f"{defect.flat[i] / norm.flat[i]:.3e} exceeds {rtol:g}"
        )
    return norm


def _member(what: str, stacked: bool, i: int) -> str:
    """Name member i of a stack in a message; a lone matrix is just ``what``."""
    return f"{what} (stack member {i})" if stacked else what


def require_hermitian(m, *, rtol: float = HERMITICITY_RTOL, what: str = "matrix") -> np.ndarray:
    """Validate ||m - m†||_F <= rtol * ||m||_F and return m as a fresh array.

    Both norms are taken after a power-of-two rescaling, so the test means the
    same at any magnitude of the entries.
    """
    m = as_matrix(m)
    _require_square(m, what)
    scaled = np.ldexp(m.view(np.float64), -_scale_exponent(m)).view(np.complex128)
    _check_hermitian(scaled, rtol, what)
    return m


@functools.cache
def _round_shift(m: int) -> np.ndarray:
    """Slot gather that moves a Brent-Luk tournament table of even m indices on one round.

    The table has two rows, top and bottom, of k = m // 2 indices; its
    columns are a round's pairs, and slots 2i, 2i + 1 hold top[i], bottom[i].
    Index top[0] stays put and every other index moves one place around the
    ring top[1], ..., top[k-1], bottom[k-1], ..., bottom[0]. With the layout
    of slots as an index array, ``layout[shift]`` is the next round's layout.
    """
    ring = [*range(2, m, 2), *range(m - 1, 0, -2)]
    shift = list(range(m))
    for here, there in zip(ring, ring[1:] + ring[:1]):
        shift[there] = here
    shift = np.array(shift)
    shift.flags.writeable = False
    return shift


def jacobi_schedule(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One Jacobi sweep over n indices in the parallel ordering of Brent & Luk (1985).

    Returns the rounds of the sweep; each round is a tuple of disjoint pairs
    (p, q), p < q, sorted, and every pair of distinct indices appears in
    exactly one round. Even n gives n - 1 rounds of n/2 pairs. Odd n is padded
    with a phantom index n, which gives n rounds of (n - 1)/2 pairs with one
    index left out of each. Round 0 is (0, 1), (2, 3), ... and each later
    round follows by ``_round_shift``, as in ``hermitian_eig``. The result
    depends on n alone.
    """
    m = n + n % 2
    layout, shift = np.arange(m), _round_shift(m)
    rounds = []
    for _ in range(m - 1):
        pairs = (sorted(map(int, layout[i : i + 2])) for i in range(0, m, 2))
        rounds.append(tuple(sorted((p, q) for p, q in pairs if q < n)))
        layout = layout[shift]
    return tuple(rounds)


def hermitian_eig(h) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix, or of each matrix of a stack, by cyclic Jacobi rotations.

    ``h`` is one (n, n) matrix or a (T, n, n) stack; eigenvalues come shaped
    (n,) or (T, n) and eigenvectors (n, n) or (T, n, n). A matrix is solved
    as a stack of one, and each member of a stack is solved on its own terms:
    it is rescaled by a power of two near its own largest entry (so the result
    is correct at any magnitude of the entries), checked for Hermiticity, and
    swept until its own off-diagonal Frobenius norm is at most
    ``JACOBI_OFF_TOL * ||h||_F``, after which it is swept no more. A member
    still above that after ``JACOBI_MAX_SWEEPS`` sweeps raises
    ConvergenceError, and one whose spectrum exceeds the float64 range raises
    DomainError; a message names the failing member of a stack. So every
    member's bits are those of solving it alone.

    A sweep follows ``jacobi_schedule``, the round-robin ordering of Brent &
    Luk (1985): each round annihilates n // 2 disjoint off-diagonal entries
    (p, q), p < q, at once with complex plane rotations, so one sweep still
    visits every pair exactly once; a stack adds a batch axis to the rounds.
    O(n^3) per sweep and member; intended for the dense, desk-scale matrices
    this package works with (n <= ~128).
    """
    h = np.asarray(h, dtype=np.complex128)
    stacked = h.ndim == 3
    if stacked:
        if 0 in h.shape:
            raise ShapeError(f"expected a nonempty stack of matrices, got shape {h.shape}")
        if not np.isfinite(h).all():
            raise DomainError("matrix entries must be finite")
        h = np.ascontiguousarray(h)
    else:
        h = as_matrix(h)
    if h.shape[-2] != h.shape[-1]:
        raise ShapeError(f"eigensolver input must be square, got shape {h.shape}")
    h = h if stacked else h[None]
    count, n = h.shape[0], h.shape[-1]
    m = n + n % 2  # odd n gets a phantom zero row and column
    # Each member's exponent, as _scale_exponent gives it.
    e = np.frexp(np.abs(h.view(np.float64)).reshape(count, -1).max(axis=1))[1]
    s = np.zeros((count, 2 * m, m), dtype=np.complex128)  # [A; V] of each member, as in _Rounds
    np.ldexp(h.view(np.float64), -e[:, None, None], out=s[:, :n, :n].view(np.float64))
    scaled = s[:, :n, :n] if stacked else s[0, :n, :n]
    tol = JACOBI_OFF_TOL * _check_hermitian(scaled, HERMITICITY_RTOL, "eigensolver input").reshape(-1)
    entries = s.reshape(count, -1)
    entries[:, m * m :: m + 1] = 1.0  # V = 1

    # The members still sweeping are s[members], held in `work` (a lone
    # member's rounds run on s[0]): a copy once some are certified, written
    # back whenever that set shrinks. Rounds are set up at the first sweep.
    index = np.arange(count)
    members, work = index, s if stacked else s[0]
    rounds = None
    sweeps = 0
    while True:
        sweeping = _norms(_off_diagonal(work)) > tol
        if not sweeping.all():
            if members.size < count:  # work is a copy
                s[members] = work
            members, tol = members[sweeping], tol[sweeping]
            if not members.size:
                break
            work, rounds = s[members], None
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps"
                + (f" (stack member {members[0]})" if stacked else "")
            )
        if rounds is None:
            rounds = _Rounds(work)
        rounds.sweep()
        sweeps += 1

    w = entries[:, : (m + 1) * n : m + 1].real
    order = w.argsort(axis=1, kind="stable")
    member, columns = index[:, None], np.arange(n)
    w = w[member, order]
    # Scaled, |w| <= ||A||_F < 2^(n.bit_length() + 1), so a member can leave
    # the float64 range only if its exponent e is above this bound.
    if e.max() > 1023 - n.bit_length():
        over = np.flatnonzero(e + np.frexp(np.maximum(-w[:, 0], w[:, -1]))[1] > 1024)
        if over.size:
            raise DomainError(f"{_member('eigenvalues', stacked, over[0])} exceed the float64 range")
    w = np.ldexp(w, e[:, None])
    v = s[member[:, None], m + columns[:, None], order[:, None, :]]
    # Make each column's largest component (lowest index on ties) real and positive.
    pivots = v[member[:, None], np.abs(v).argmax(axis=1)[:, None, :], columns]
    v *= pivots.conj() / np.abs(pivots)
    return EigenDecomposition(w, v) if stacked else EigenDecomposition(w[0], v[0])


def _off_diagonal(s: np.ndarray) -> np.ndarray:
    """View of A's off-diagonal entries in working storage s = [A; V], (2m, m) or
    (T, 2m, m): row i holds the m entries of A's flat storage strictly between
    diagonal entries i and i + 1."""
    m, batch = s.shape[-1], s.shape[:-2]
    flat = s[..., :m, :].reshape(batch + (m * m,))
    return flat[..., 1:].reshape(batch + (m - 1, m + 1))[..., :m]


class _Rounds:
    """Brent-Luk rounds, in place, on the working storage s of one member (2m, m)
    or of a stack of them (T, 2m, m).

    A member [A; V] holds the working matrix A and the product V of the
    rotations so far, both in the current round's slot layout, where slots
    (2j, 2j + 1) hold the round's j-th pair (in either order). A sweep's
    m - 1 shifts take the ring once around, so every sweep starts and ends in
    the identity layout. The views below are built once per storage.
    """

    def __init__(self, s: np.ndarray):
        m = s.shape[-1]
        k, batch = m // 2, s.shape[:-2]
        self.s, self.m = s, m
        self.entries = s.reshape(batch + (-1,))
        flat = self.entries[..., : m * m]  # A
        if m > 2:  # a round's shift moves A's rows and the columns of [A; V] by _round_shift
            shift = _round_shift(m)
            self.gather = (np.concatenate([shift, np.arange(m, 2 * m)])[:, None] * m + shift).ravel()
        # Entries (2j, 2j), (2j + 1, 2j + 1), (2j, 2j + 1) and (2j + 1, 2j) of A.
        step = 2 * (m + 1)
        self.a_pp = flat[..., ::step].real
        self.a_qq = flat[..., m + 1 :: step].real
        self.a_pq = flat[..., 1::step]
        self.a_qp = flat[..., m::step]
        self.rows = flat.reshape(batch + (k, 2, m))  # rows (2j, 2j + 1) of A
        # Columns (2j, 2j + 1) of A and V, as rows of the transpose.
        self.cols = s.swapaxes(-1, -2).reshape(batch + (k, 2, 2 * m))
        self.rot = np.empty(batch + (k, 2, 2), dtype=np.complex128)
        self.rot_diag = self.rot.reshape(batch + (k, 4))[..., ::3]
        self.rot_pq, self.rot_qp = self.rot[..., 0, 1], self.rot[..., 1, 0]

    def sweep(self) -> None:
        """One sweep. A member none of whose pairs is nonzero in a round is left
        untouched in that round, as a lone solve leaves it."""
        a_pp, a_qq, a_pq, a_qp = self.a_pp, self.a_qq, self.a_pq, self.a_qp
        rows, cols, rot, entries = self.rows, self.cols, self.rot, self.entries
        for _ in range(self.m - 1):
            r = np.abs(a_pq)
            if r.any():  # else every pair of every member is already zero
                live = r.any(axis=-1) if r.ndim > 1 else None  # members with a nonzero pair
                dead = r == 0.0  # a pair that is already zero gets the identity
                r += dead
                tau = (a_pp - a_qq) / (r + r)
                # Smaller-magnitude root of t^2 - 2*tau*t - 1 = 0, which is
                # -sign(tau) / (|tau| + sqrt(1 + tau^2)).
                t = -1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau))
                t[dead] = 0.0
                c = 1.0 / np.hypot(1.0, t)  # 1 / sqrt(1 + t^2)
                su = t * c * (a_pq / r)  # s times the phase of a_pq
                # rot[..., j, :, :] = [[c, -s u], [s conj(u), c]] = J†, the adjoint of pair j's rotation.
                self.rot_diag[...] = c[..., None]
                np.negative(su, out=self.rot_pq)
                np.conjugate(su, out=self.rot_qp)
                if live is None or live.all():
                    rows[...] = rot @ rows  # A <- J† A
                    cols[...] = rot.conj() @ cols  # A <- A J and V <- V J
                    a_pq[...] = 0.0
                    a_qp[...] = 0.0
                else:  # members without a nonzero pair keep their bits
                    np.copyto(rows, rot @ rows, where=live[:, None, None, None])
                    np.copyto(cols, rot.conj() @ cols, where=live[:, None, None, None])
                    np.copyto(a_pq, 0.0, where=live[:, None])
                    np.copyto(a_qp, 0.0, where=live[:, None])
            if self.m > 2:  # for m = 2 the shift changes nothing
                entries[...] = entries.take(self.gather, axis=-1)


def expm_hermitian(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h, via the eigendecomposition route."""
    return hermitian_eig(h).propagator(t)


def expm_oracle(a) -> np.ndarray:
    """exp(a) for any square matrix, by scaling and squaring.

    The argument is scaled by 2**-s until its Frobenius norm is at most 0.5,
    exponentiated with a degree-``TAYLOR_DEGREE`` Taylor series, and squared s
    times. Deliberately independent of the eigendecomposition route so the
    two can cross-check each other.
    """
    a = as_matrix(a)
    _require_square(a)
    n = a.shape[0]

    norm = frobenius(a)
    s = 0
    while norm / (2.0**s) > 0.5:
        s += 1
    b = a / (2.0**s)

    term = identity(n)
    total = identity(n)
    for k in range(1, TAYLOR_DEGREE + 1):
        term = term @ b / k
        total = total + term
    for _ in range(s):
        total = total @ total
    return total


def partial_trace(m, dim_a: int, dim_b: int, keep: str = "A") -> np.ndarray:
    """Trace out one factor of a (dim_a * dim_b)-dimensional bipartite operator.

    ``keep="A"`` returns the dim_a x dim_a reduction, ``keep="B"`` the
    dim_b x dim_b one. The trace of the input is preserved.
    """
    m = as_matrix(m)
    _require_square(m)
    if dim_a < 1 or dim_b < 1 or m.shape[0] != dim_a * dim_b:
        raise ShapeError(
            f"matrix of dimension {m.shape[0]} does not factor as {dim_a} x {dim_b}"
        )
    blocks = m.reshape(dim_a, dim_b, dim_a, dim_b)
    selector = str(keep).upper()
    if selector == "A":
        return np.einsum("ikjk->ij", blocks)
    if selector == "B":
        return np.einsum("kikj->ij", blocks)
    raise ValueError(f"keep must be 'A' or 'B', got {keep!r}")
