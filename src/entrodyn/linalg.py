"""Dense complex linear algebra: Kronecker products, partial traces, a Hermitian eigensolver, matrix exponentials.

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

from .errors import ConvergenceError, DomainError, NumericalError, ShapeError

# Relative Hermiticity tolerance: ||h - h†||_F <= HERMITICITY_RTOL * ||h||_F.
HERMITICITY_RTOL = 1e-10
# Jacobi sweeps stop once the off-diagonal Frobenius norm drops below
# JACOBI_OFF_TOL * ||input||_F.
JACOBI_OFF_TOL = 1e-13
JACOBI_MAX_SWEEPS = 100
# A seed basis Q of hermitian_eig must satisfy ||Q†Q - 1||_F <= SEED_UNITARITY_TOL.
# By Ostrowski's theorem (Horn & Johnson, Thm 4.5.9) each eigenvalue of Q†hQ
# is theta_k lambda_k(h) with |theta_k - 1| <= ||Q†Q - 1||_2, so a seed within
# the bound moves the spectrum by at most 1e-12 ||h||_2 beyond the stopping
# rule's JACOBI_OFF_TOL ||h||_F. It is the completeness tolerance that
# ``entrodyn basis-check`` holds the built-in bases to.
SEED_UNITARITY_TOL = 1e-12
# Taylor degree for the scaling-and-squaring exponential.
TAYLOR_DEGREE = 12
# The error model of scaling and squaring (Higham 2005) for an anti-Hermitian a, whose exp(a) = U is
# unitary: the s squarings multiply the unitarity defect of the Taylor factor T(a 2^-s) by 2^s, which
# is below 4 ||a||_F. That defect is at most 2 (1/2)^14 / 13! (about 177 u, u = 2^-53) of truncation at
# ||a 2^-s||_F <= 1/2, plus a few u of rounding, taken as 8 u. So ||U†U - 1||_F <= EXPM_DEFECT_PER_NORM
# * ||a||_F, and past EXPM_MAX_ANTI_HERMITIAN_NORM, where that bound reaches 1, no digit of U is left.
EXPM_DEFECT_PER_NORM = 4 * (2 * 0.5 ** (TAYLOR_DEGREE + 2) / math.factorial(TAYLOR_DEGREE + 1) + 8 * 2.0**-53)
EXPM_MAX_ANTI_HERMITIAN_NORM = 1 / EXPM_DEFECT_PER_NORM
# Matrix entries (512 KiB of complex128) of V diag(exp(-i w t)) built per GEMM of a propagator stack:
# at least one time's n x n, however long the grid.
PROPAGATOR_BLOCK_ENTRIES = 2**15
# Read-only float64 zeros that ``_clear_vector_state`` runs one numpy ufunc over: 16 is the fewest that
# clear the state, 64 leave a margin.
_CLEARING_OPERAND = np.zeros(64)
_CLEARING_OPERAND.flags.writeable = False


def _clear_vector_state() -> None:
    """Leave the CPU's vector registers clean after a complex GEMM.

    OpenBLAS's AVX-512 complex GEMM kernels (its SkylakeX, Cooperlake and SapphireRapids cores)
    return with the upper halves of the vector registers dirty, and until some AVX code clears them
    every legacy-SSE instruction pays a transition penalty. On a SkylakeX core (OpenBLAS 0.3.31),
    after one 4 x 4 complex ``@`` against after a clean op: a 6000-element ``np.float_power``
    (libm's ``pow``) took 1.2-1.7 ms against 84 us, a ``math.cos`` loop ran 3.7-7 times slower and
    ``'%.15g'`` formatting 1.3-1.4 times; Python's float arithmetic, ``np.hypot``, ``exp``, ``log``
    and ``sqrt`` did not slow. A real GEMM, and the Haswell core's complex GEMM, leave the state
    clean. A numpy ufunc over at least 16 float64 runs an AVX loop that clears it (8 do not, nor does
    ``ndarray.sum``), so this is one ``np.add`` over a read-only constant, about 0.5 us, its result
    discarded: the caller stays pure and thread-safe, and where the state is clean nothing changes.
    """
    np.add(_CLEARING_OPERAND, _CLEARING_OPERAND)


class EigenDecomposition(NamedTuple):
    """Spectral factorization h = V diag(w) V† with w ascending and V unitary.

    Column k of ``eigenvectors`` pairs with ``eigenvalues[k]``. Each column is
    rephased so that its largest-magnitude component is real and positive
    (ties broken by lowest index), which makes the output deterministic for a
    fixed input. Inside a degenerate eigenvalue cluster only the spanned
    subspace is meaningful. ``phases`` and ``propagator`` evaluate exp(-i h t)
    from the stored spectrum, so h is diagonalised once however many times
    it is evolved.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def phases(self, times) -> np.ndarray:
        """P[t, j] = exp(-i w_j t) for each time of a grid (a scalar is a grid of one), built in place.
        Raises DomainError for a non-real time (``float_times``) and when some w_j t is not finite
        (t infinite, NaN or past float64's range, or the product overflowing): exp(-i h t) is
        undefined there, and a NaN phase would only spread silently through every product."""
        t = float_times(times).ravel()
        with np.errstate(over="ignore", invalid="ignore"):
            p = t[:, None] * (-1j * self.eigenvalues)
        if not np.isfinite(p).all():
            first = np.argwhere(~np.isfinite(p))[0][0]
            raise DomainError(
                f"w t is not finite at t = {float(t[first])!r} "
                f"(largest |w| = {np.abs(self.eigenvalues).max():.3e}); exp(-i h t) is undefined there"
            )
        return np.exp(p, out=p)

    def propagator(self, times) -> np.ndarray:
        """Unitary U(t) = exp(-i h t) = V diag(exp(-i w t)) V†: (n, n) for a scalar time,
        a (T, n, n) stack for a grid of T times. The products are GEMMs, the (b n, n) rows of
        V diag(exp(-i w t)) for a block of b times (PROPAGATOR_BLOCK_ENTRIES entries) times V†,
        each written into its part of the stack; so the working set beyond the stack is one
        block, and each member has the bits of its time's lone product. The vector state the
        last GEMM leaves is cleared (``_clear_vector_state``), for the caller's libm and float code."""
        v = self.eigenvectors
        n = len(v)
        phases, v_adjoint = self.phases(times), v.conj().T
        u = np.empty((len(phases), n, n), dtype=np.complex128)
        step = max(1, PROPAGATOR_BLOCK_ENTRIES // (n * n))
        for start in range(0, len(phases), step):
            block = phases[start : start + step, None, :]
            np.matmul((v * block).reshape(-1, n), v_adjoint, out=u[start : start + step].reshape(-1, n))
        _clear_vector_state()
        return u[0] if np.ndim(times) == 0 else u


def float_times(times) -> np.ndarray:
    """``times`` as float64 (a finite time keeps its bits); DomainError for a non-real time, under
    which exp(-i h t) is not unitary, and for a number beyond float64's range."""
    values = np.asarray(times)
    if np.iscomplexobj(values):
        if values.imag.any():
            nonreal = complex(values.ravel()[np.flatnonzero(values.imag)[0]])
            raise DomainError(f"t = {nonreal!r} is not real; exp(-i h t) is unitary only for a real time")
        values = values.real
    try:
        return np.asarray(values, dtype=np.float64)
    except OverflowError:
        huge = next((x for x in np.ravel(np.array(times, dtype=object)) if abs(x) > sys.float_info.max), times)
        raise DomainError(f"t = {huge} lies beyond the float64 range; exp(-i h t) is undefined there") from None


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
    of m rescaled by a power of two when that sum of squares overflows or underflows.
    A norm beyond the float64 range is inf."""
    a = np.asarray(m)
    total = np.vdot(a, a).real
    if sys.float_info.min <= total <= sys.float_info.max or not a.any():
        return math.sqrt(total)
    a = np.ascontiguousarray(a, dtype=np.complex128)
    e = _scale_exponent(a)
    scaled = np.ldexp(a.view(np.float64), -e)
    with np.errstate(over="ignore"):
        return float(np.ldexp(math.sqrt(np.vdot(scaled, scaled)), e))


def identity(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.complex128)


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


def _check_hermitian(m: np.ndarray, what: str, member: str = "") -> np.ndarray:
    """Raise DomainError unless ||m - m†||_F <= HERMITICITY_RTOL * ||m||_F for m, or for each
    matrix of a stack m; return the norms ||m||_F. The message names ``what`` followed by
    ``member``, formatted with the index of the first failing member.

    m must already be rescaled by ``_scale_exponent``, member by member.
    """
    norm = _norms(m)
    defect = _norms(m - m.conj().swapaxes(-1, -2))
    bad = defect > HERMITICITY_RTOL * norm
    if bad.any():
        i = np.flatnonzero(bad)[0]
        raise DomainError(
            f"{what}{member.format(i)} is not Hermitian: "
            f"||m - m†||_F / ||m||_F = {defect.flat[i] / norm.flat[i]:.3e} exceeds {HERMITICITY_RTOL:g}"
        )
    return norm


def require_hermitian(m, *, what: str = "matrix") -> np.ndarray:
    """Validate ||m - m†||_F <= HERMITICITY_RTOL * ||m||_F and return m as a fresh array.

    Both norms are taken after a power-of-two rescaling, so the test means the
    same at any magnitude of the entries.
    """
    m = as_matrix(m)
    _require_square(m, what)
    scaled = np.ldexp(m.view(np.float64), -_scale_exponent(m)).view(np.complex128)
    _check_hermitian(scaled, what)
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


@functools.cache
def _group_size(m: int) -> int:
    """Pairs c per rotation factor of a round on m slots (see ``_Rounds``): the largest divisor of
    k = m // 2 with c <= 4 and c m <= 64. A group's product is one BLAS call where its pairs' were c,
    at c times their flops; measured, that pays while c m <= 64 and costs beyond (m = 48, c = 2: 6%
    slower). It is a rule of m alone, so a stack member keeps the bits of its lone solve."""
    return max((c for c in range(2, 5) if (m // 2) % c == 0 and c * m <= 64), default=1)


@functools.cache
def _round_gather(m: int) -> np.ndarray:
    """Flat gather that moves a working storage [A; V], (2m, m), on one round: a round's shift moves
    A's rows and the columns of [A; V] by ``_round_shift``."""
    shift = _round_shift(m)
    gather = (np.concatenate([shift, np.arange(m, 2 * m)])[:, None] * m + shift).ravel()
    gather.flags.writeable = False
    return gather


def jacobi_schedule(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """One Jacobi sweep over n indices in the parallel ordering of Brent & Luk (1985).

    Returns the rounds of the sweep; each round is a tuple of disjoint pairs
    (p, q), p < q, sorted, and every pair of distinct indices appears in
    exactly one round. Even n gives n - 1 rounds of n/2 pairs. Odd n is padded
    with a phantom index n, which gives n rounds of (n - 1)/2 pairs with one
    index left out of each. Round 0 is (0, 1), (2, 3), ... and each later
    round follows by ``_round_shift``, as in ``_Rounds``. The result
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


def _jacobi_storage(h: np.ndarray, basis: np.ndarray | None, member: str, what: str) -> tuple[np.ndarray, ...]:
    """(s, e, tol) for each member of a finite stack h, (B, n, n).

    s is the zero-padded working storage [A; V], (2m, m) per member with
    m = n + n % 2 (odd n gets a phantom zero row and column), holding
    A = h 2^-e and V = 1, or for a seed ``basis`` Q (see ``hermitian_eig``)
    A = Q† h 2^-e Q and V = Q; e is the member's ``_scale_exponent``, so A's
    norms neither overflow nor underflow. A's Hermiticity is checked (an
    error names ``what`` and the member by ``member``), which for a unitary
    Q is the check on h, and tol = JACOBI_OFF_TOL * ||A||_F is its stopping rule.
    """
    b, n = len(h), h.shape[-1]
    m = n + n % 2
    e = np.frexp(np.abs(h.view(np.float64)).reshape(b, -1).max(axis=1))[1]
    s = np.zeros((b, 2 * m, m), dtype=np.complex128)
    a = s[:, :n, :n]
    np.ldexp(h.view(np.float64), -e[:, None, None], out=a.view(np.float64))
    s.reshape(b, -1)[:, m * m :: m + 1] = 1.0  # V = 1
    if basis is not None:
        a[...] = basis.conj().T @ a @ basis
        s[:, m : m + n, :n] = basis
    tol = JACOBI_OFF_TOL * _check_hermitian(a, what, member)
    return s, e, tol


def _seed(basis, n: int) -> np.ndarray:
    """``basis`` as an (n, n) matrix Q; DomainError unless ||Q†Q - 1||_F <= SEED_UNITARITY_TOL."""
    q = as_matrix(basis)
    if q.shape != (n, n):
        raise ShapeError(f"seed basis must be {n} x {n}, got shape {q.shape}")
    defect = frobenius(q.conj().T @ q - identity(n))
    if not defect <= SEED_UNITARITY_TOL:
        raise DomainError(
            f"seed basis is not unitary: ||Q†Q - 1||_F = {defect:.3e} exceeds {SEED_UNITARITY_TOL:g}"
        )
    return q


def _off_diagonal(s: np.ndarray) -> np.ndarray:
    """View of A's off-diagonal entries in each member's working storage [A; V] of a stack s:
    row i holds the m entries of A's flat storage strictly between diagonal entries i and i + 1."""
    b, m = len(s), s.shape[-1]
    return s[:, :m, :].reshape(b, m * m)[:, 1:].reshape(b, m - 1, m + 1)[..., :m]


def hermitian_eig(h, basis=None) -> EigenDecomposition:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    The input is first rescaled by a power of two near its largest entry, so
    the result is correct at any magnitude of the entries, and checked for
    Hermiticity. A sweep follows ``jacobi_schedule``, the round-robin ordering
    of Brent & Luk (1985): each round annihilates n // 2 disjoint off-diagonal
    entries (p, q), p < q, at once with complex plane rotations, so one sweep
    still visits every pair exactly once. Sweeping repeats until the
    off-diagonal Frobenius norm is at most ``JACOBI_OFF_TOL * ||h||_F``,
    raising ConvergenceError after ``JACOBI_MAX_SWEEPS`` sweeps; a spectrum
    beyond the float64 range raises DomainError, and a non-finite eigenvalue
    or eigenvector NumericalError. O(n^3) per sweep; intended for the dense,
    desk-scale matrices this package works with (n <= ~128).

    An optional seed ``basis``, an (n, n) matrix Q whose columns are believed
    to be (near) eigenvectors of h, sets where the solve starts, never its
    answer or its stopping rule: Q must be unitary to SEED_UNITARITY_TOL (else
    DomainError), and the sweeps start from A = Q† h Q with V = Q under the
    same rule relative to ||A||_F. From a good seed A is diagonal to rounding
    and no sweep is needed; from a poor one Jacobi sweeps as from a cold
    start. Without a seed the solve starts from A = h and V = 1.

    It runs the solve of ``stack_eig`` on a stack of one.
    """
    h = as_matrix(h)
    _require_square(h, "eigensolver input")
    w, v = _solve(h[None], None if basis is None else _seed(basis, h.shape[0]), "", "eigensolver input")
    return EigenDecomposition(w[0], v[0])


def stack_eig(stack) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompositions of each Hermitian matrix of a (T, n, n) stack: (T, n) eigenvalues
    and (T, n, n) eigenvectors.

    Member i has the bits of ``hermitian_eig(stack[i])``, eigenvalues and
    eigenvectors alike, signed zeros included, as both run one solve. A stack
    runs as many sweeps as its slowest member, and an error names the failing
    stack member.
    """
    h = np.ascontiguousarray(stack, dtype=np.complex128)
    if h.ndim != 3 or 0 in h.shape or h.shape[1] != h.shape[2]:
        raise ShapeError(f"expected a nonempty stack of square matrices, got shape {h.shape}")
    if not np.isfinite(h).all():
        raise DomainError("matrix entries must be finite")
    return _solve(h, None, " (stack member {})", "eigensolver input")


def _solve(h: np.ndarray, basis: np.ndarray | None, member: str, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(B, n) eigenvalues and (B, n, n) eigenvectors, as ``hermitian_eig`` describes them, of each
    member of a finite C-ordered stack h, (B, n, n), from the seed ``basis`` if given. An error names
    the failing member by ``member``, formatted with its index ("" names none), and a Hermiticity
    refusal names the input ``what`` is.

    All members are rescaled, checked and tested against the stopping rule together; the members
    outside it are then swept as one stack (``_Rounds``), in place when that is all of them, else
    on a copy, and each leaves the stack at the sweep it converges at.
    """
    b, n = len(h), h.shape[-1]
    s, e, tol = _jacobi_storage(h, basis, member, what)
    swept = active = np.flatnonzero(_norms(_off_diagonal(s)) > tol)
    work, tol = (s if active.size == b else s[active]), tol[active]
    rounds = None  # set up for each new active set
    sweeps = 0
    while active.size:
        if sweeps >= JACOBI_MAX_SWEEPS:
            raise ConvergenceError(
                f"Jacobi eigensolver did not converge in {JACOBI_MAX_SWEEPS} sweeps{member.format(active[0])}"
            )
        if rounds is None:
            rounds, off = _Rounds(work), _off_diagonal(work)
        rounds.sweep()
        sweeps += 1
        still = _norms(off) > tol
        if not still.all():
            if work is not s:
                s[active[~still]] = work[~still]
            active, work, tol, rounds = active[still], work[still], tol[still], None

    # The input was finite, so a non-finite entry is a fault of the sweeps: an error, never a spectrum.
    if not np.isfinite(s).all():
        bad = np.isfinite(s.reshape(b, -1)).all(axis=1).argmin()
        raise NumericalError(f"Jacobi eigensolver produced a non-finite eigenvalue or eigenvector{member.format(bad)}")
    rows, cols = np.arange(b)[:, None], np.arange(n)
    w = s.diagonal(0, 1, 2)[:, :n].real  # each A's
    order = w.argsort(axis=1, kind="stable")
    # w 2^e = mantissa 2^(exponent + e), mantissa in [0.5, 1): beyond float64's range once exponent + e passes 1024.
    w, exponent = np.frexp(w[rows, order])
    exponent += e[:, None]
    if exponent.max() > 1024:
        beyond = (exponent > 1024).any(axis=1).argmax()
        raise DomainError(f"eigenvalues exceed the float64 range{member.format(beyond)}")
    w = np.ldexp(w, exponent)
    # A seeded or swept member's eigenvectors are its V. A member never swept still has V = 1, so its
    # eigenvectors are the identity's columns in its order, with the +0.0 zeros that rephasing them leaves.
    gathered = rows[:, 0] if basis is not None else swept
    vs = s[gathered[:, None, None], s.shape[-1] + cols[:, None], order[gathered, None, :]]
    # Make each column's largest component (lowest index on ties) real and positive.
    pivots = vs[rows[: len(vs)], np.abs(vs).argmax(axis=1), cols]
    vs *= (pivots.conj() / np.abs(pivots))[:, None, :]
    if len(vs) == b:
        return w, vs
    v = np.zeros_like(h)
    v[rows, order, cols] = 1.0
    v[gathered] = vs
    return w, v


class _Rounds:
    """Brent-Luk rounds, in place, on each member of a stack s of working storages [A; V],
    (B, 2m, m); a stack of one is swept through its member's (2m, m) view.

    s holds the working matrix A and the product V of the rotations so far,
    both in the current round's slot layout, where slots (2j, 2j + 1) hold the
    round's j-th pair (in either order). A sweep's m - 1 shifts take the ring
    once around, so every sweep starts and ends in the identity layout. A
    round applies its rotations by two batched products, J† from the left to
    the rows of A and J from the right to the columns of A and V, with the
    rotations of c = ``_group_size(m)`` consecutive pairs in one
    block-diagonal (2c, 2c) factor: k / c BLAS calls per product, not one per
    pair. The factor's entries outside its pairs' 2 x 2 blocks stay zero and
    add exact zeros, so a grouped product has the bits of the pairs' own. The
    views below are built once per storage, with the same ellipsis indexing
    for one storage and a stack, so a stack member gets the arithmetic of
    its lone solve. A lone storage skips a round whose pairs are all zero.
    In a stack, a member whose pairs in the round are all zero is copied
    aside while the others rotate and then put back, so it keeps every bit,
    signed zeros included, as if skipped too.
    """

    def __init__(self, s: np.ndarray):
        if len(s) == 1:  # the same arithmetic without the stack's bookkeeping per round
            s = s[0]
        m = s.shape[-1]
        k, c = m // 2, _group_size(m)
        batch = s.shape[:-2]
        self.s, self.m, self.stacked = s, m, bool(batch)
        self.entries = s.reshape(batch + (-1,))
        flat = self.entries[..., : m * m]  # A
        if m > 2:
            self.gather = _round_gather(m)
        # Entries (2j, 2j), (2j + 1, 2j + 1), (2j, 2j + 1) and (2j + 1, 2j) of A.
        step = 2 * (m + 1)
        self.a_pp = flat[..., ::step].real
        self.a_qq = flat[..., m + 1 :: step].real
        self.a_pq = flat[..., 1::step]
        self.a_qp = flat[..., m::step]
        self.rows = flat.reshape(batch + (k // c, 2 * c, m))  # rows (2j, 2j + 1) of A, c pairs a group
        # columns (2j, 2j + 1) of A and V, as rows of the transpose
        self.cols = s.mT.reshape(batch + (k // c, 2 * c, 2 * m))
        # Group g's factor is block-diagonal: pair j = c g + i owns its rows and columns (2i, 2i + 1), and
        # the entries outside those 2 x 2 blocks stay zero. The factors sit in a flat buffer at a stride of
        # c (4c + 2) entries, 2c more than a factor's own, so that pair j's entries (2i, 2i), (2i, 2i + 1),
        # (2i + 1, 2i) and (2i + 1, 2i + 1) lie at j (4c + 2) + (0, 1, 2c, 2c + 1): one stride for all k
        # pairs, as for A's. The 2c entries after each factor are never read.
        span = 4 * c + 2
        buffers = np.zeros((2,) + batch + (k // c, c * span), dtype=np.complex128)  # factors, then their conjugates
        factors = buffers[..., : 4 * c * c].reshape((2,) + batch + (k // c, 2 * c, 2 * c))
        self.buffer, self.buffer_conj, self.rot, self.rot_conj = buffers[0], buffers[1], factors[0], factors[1]
        entries = self.buffer.reshape(batch + (k, span))
        self.rot_diag, self.rot_pq, self.rot_qp = entries[..., :: 2 * c + 1], entries[..., 1], entries[..., 2 * c]

    def sweep(self) -> None:
        """One sweep."""
        a_pp, a_qq, a_pq, a_qp = self.a_pp, self.a_qq, self.a_pq, self.a_qp
        s, rows, cols, rot, entries, stacked = self.s, self.rows, self.cols, self.rot, self.entries, self.stacked
        for _ in range(self.m - 1):
            r = np.abs(a_pq)
            live = r.any(-1)  # else every pair of the round is already zero (member by member in a stack)
            kept = None
            if stacked:
                skipped = np.flatnonzero(~live)
                live = skipped.size < len(s)
                if live and skipped.size:  # the round is the identity for them: keep their bits
                    kept = s[skipped]
            if live:
                # A pair below the smallest normal float gets the identity, and the round zeroes it: a_pq / r
                # can overflow there, and t = 0 times that phase would spread NaN through A and V.
                dead = r < sys.float_info.min
                r += dead
                tau = (a_pp - a_qq) / (r + r)
                # Smaller-magnitude root of t^2 - 2*tau*t - 1 = 0, which is
                # -sign(tau) / (|tau| + sqrt(1 + tau^2)).
                t = -1.0 / (tau + np.copysign(np.hypot(1.0, tau), tau))
                t[dead] = 0.0
                c = 1.0 / np.hypot(1.0, t)  # 1 / sqrt(1 + t^2)
                su = t * c * (a_pq / r)  # s times the phase of a_pq
                # Pair j's block of its group's factor is [[c, -s u], [s conj(u), c]] = J†, the adjoint of its rotation.
                self.rot_diag[...] = c[..., None]
                np.negative(su, out=self.rot_pq)
                np.conjugate(su, out=self.rot_qp)
                rows[...] = rot @ rows  # A <- J† A
                np.conjugate(self.buffer, out=self.buffer_conj)
                cols[...] = self.rot_conj @ cols  # A <- A J and V <- V J
                a_pq[...] = 0.0
                a_qp[...] = 0.0
                if kept is not None:
                    s[skipped] = kept
            if self.m > 2:  # for m = 2 the shift changes nothing
                entries[...] = entries.take(self.gather, -1)


def expm_hermitian(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t) for Hermitian h, via the eigendecomposition route."""
    return hermitian_eig(h).propagator(t)


def expm_oracle(a) -> np.ndarray:
    """exp(a) for any square matrix, by scaling and squaring.

    The argument is scaled by 2**-s until its Frobenius norm is at most 0.5,
    exponentiated with a degree-``TAYLOR_DEGREE`` Taylor series, and squared s
    times. Deliberately independent of the eigendecomposition route so the
    two can cross-check each other. A norm beyond the float64 range raises
    DomainError, and a result beyond it NumericalError. For an anti-Hermitian
    a (a + a† = 0 to HERMITICITY_RTOL) the result is unitary to
    EXPM_DEFECT_PER_NORM * ||a||_F, and a norm past EXPM_MAX_ANTI_HERMITIAN_NORM,
    where that bound reaches 1, raises DomainError.
    """
    a = as_matrix(a)
    _require_square(a)
    n = a.shape[0]

    norm = frobenius(a)
    if norm == math.inf:
        raise DomainError("matrix norm exceeds the float64 range")
    if norm > EXPM_MAX_ANTI_HERMITIAN_NORM:
        scaled = np.ldexp(a.view(np.float64), -_scale_exponent(a)).view(np.complex128)
        if _norms(scaled + scaled.conj().T) <= HERMITICITY_RTOL * _norms(scaled):
            raise DomainError(
                f"||a||_F = {norm:.3e} of an anti-Hermitian a exceeds {EXPM_MAX_ANTI_HERMITIAN_NORM:.3e}, "
                "where the scaling-and-squaring error bound on ||U†U - 1||_F of the unitary exp(a) reaches 1"
            )
    s = 0
    while math.ldexp(norm, -s) > 0.5:  # norm / 2**s, which cannot overflow
        s += 1
    # 2.0**s is finite for s < 1024, where one division keeps the bits; beyond, it is divided out in two steps
    b = a / (2.0**s) if s < 1024 else a / 2.0**512 / 2.0 ** (s - 512)

    term = identity(n)
    total = identity(n)
    with np.errstate(over="ignore", invalid="ignore"):  # a result beyond float64 raises below
        for k in range(1, TAYLOR_DEGREE + 1):
            term = term @ b / k
            total = total + term
        for _ in range(s):
            total = total @ total
    if not np.isfinite(total).all():
        raise NumericalError("exp(a) exceeds the float64 range")
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
