"""Seeded invariant suite: every structural identity the package relies on.

A check is a generator of one dimension's draws, ``draws(rng, dim)``. It
yields (draw label, residual) pairs, such as ``("dim=8 rep=3", r)``, and it
asks for spectra by yielding a list of matrices: ``spectra = yield [h, ...]``
receives the ``hermitian_eig`` spectrum of each, in order, bit for bit. A
check draws its dimension's inputs before its first request, so no solve
moves its random stream, and it holds them until it ends. A second request
serves what depends on the first, such as the spectrum of an evolved state.
Every spectrum a check uses is requested: its entropies' density spectra
through ``_entropies`` and the Rabi checks' spin Hamiltonians too, so the
suite solves nothing outside its rounds.

A check runs once per dimension, each run drawing from the check's one
random stream ``rng_for(seed, stream)`` in dims order: the stream is fixed in
its declaration, ``_check(name, tolerance, stream)``, so adding or deleting
a check moves no other check's draws. It runs at the suite's dims, or at the
sizes its declaration fixes, ``_check(name, tolerance, stream, dims=(4, 6,
8))``, whatever dims the suite is given. ``check.runs(rng, dims)`` makes
those (check, dim, draws) runs.

``_run`` drives a list of runs in rounds. Each round runs every generator, in
list order, to its next request or its end; the round's matrices are then
grouped by size, each size is solved with one ``stack_eig`` call, and each
run is sent its spectra. So a check's runs draw, request and reduce dimension
by dimension, and every dimension of every check shares a round's stacks. A
stack member has the bits of its lone solve, so a check's result does not
depend on which checks run beside it. ``run_invariant_suite`` runs all checks
at once, and a check called alone, ``check(rng, dims, scale)``, runs as a
suite of one. A failed solve names the check and dimension whose matrix
failed. ``_run`` is also the suite's one reducer: it keeps each check's worst
draw over all its runs and compares its residual against the check's base
tolerance times the tolerance scale. Each check's result is a
``scenario.CheckResult``, whose ``line()`` is also what ``evolve`` prints for
a failing summary check: a FAIL line names the draw, so the same seed and
dims reproduce it. ``corrupt_evolution`` is a negative control for the suite
itself: it injects a dephasing (non-unitary) map into the entropy-invariance
check, which must then fail.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import (
    evolve_density,
    heisenberg_observable,
    heisenberg_rhs,
    expectation,
    picture_equivalence,
    transition_probability_exact,
    transition_probability_first_order,
)
from .errors import DomainError, NumericalError, ShapeError
from .ensembles import (
    _densities,
    basis_residuals,
    factor_pure,
    mixture_density,
    pure_density,
    shannon_entropy,
    spectrum_entropy,
)
from .linalg import (
    EigenDecomposition,
    expm_oracle,
    frobenius,
    hermitian_eig,
    identity,
    kron,
    partial_trace,
    stack_eig,
    trace,
)
from .sampling import (
    DEFAULT_SEED,
    random_density_matrix,
    random_hermitian,
    random_orthonormal_basis,
    random_probability_vector,
    random_pure_state,
    random_real_symmetric,
    rng_for,
)
from .scenario import MAX_DIMENSION, CheckResult
from .systems import (
    LatticeFreeParticle,
    SpinHalfSystem,
    alpha_populations,
    composite_hamiltonian,
    coupled_spin_pair,
    lattice_hamiltonian,
    lattice_momentum_basis,
    spin_hamiltonian,
)

DEFAULT_DIMS = (2, 4, 8)
REPS = 6
# Largest second factor of kron-trace-product, so kron(a, b) has at most
# (16 dim)^2 entries (64 MiB at MAX_DIMENSION) rather than dim^4.
KRON_FACTOR_MAX = 16


@dataclass(frozen=True)
class SuiteReport:
    seed: int
    dims: tuple
    tolerance_scale: float
    results: tuple

    @property
    def passed(self) -> bool:
        return all(result.passed for result in self.results)

    def format(self) -> str:
        lines = [
            f"invariant suite: seed={self.seed} dims={list(self.dims)} "
            f"tolerance_scale={self.tolerance_scale:g}"
        ]
        lines.extend(result.line() for result in self.results)
        failed = sum(not r.passed for r in self.results)
        lines.append(
            f"{len(self.results) - failed}/{len(self.results)} checks passed"
            + ("" if failed == 0 else f" ({failed} FAILED)")
        )
        return "\n".join(lines)


class _Check:
    """A check ``(rng, dims, scale, **options) -> CheckResult``: its ``runs``, driven by ``_run`` as a suite of
    one. ``options`` pass through to its generator of one dimension's ``draws``."""

    def __init__(self, name: str, tolerance: float, stream: int, dims: tuple, draws):
        self.name, self.tolerance, self.stream, self.dims, self.draws = name, tolerance, stream, dims, draws
        functools.update_wrapper(self, draws)

    def runs(self, rng, dims, **options) -> list:
        """A (check, dim, draws) run for each of its own ``dims``, or if it names none each of ``dims``, in
        order, every generator drawing from ``rng``."""
        return [(self, dim, self.draws(rng, dim, **options)) for dim in self.dims or dims]

    def __call__(self, rng, dims, scale, **options) -> CheckResult:
        return _run(self.runs(rng, dims, **options), scale)[0]


def _check(name: str, tolerance: float, stream: int, dims=()):
    """Make a generator of one dimension's draws and requests (see the module docstring) into a check named
    ``name``, drawn by the suite from ``rng_for(seed, stream)``, whose tolerance is ``tolerance`` times the
    suite's tolerance scale, run at its own fixed ``dims`` if it names any, else at the suite's."""
    return lambda draws: _Check(name, tolerance, stream, dims, draws)


def _run(runs, scale: float) -> list:
    """The CheckResult of each check of the (check, dim, draws) ``runs``, in order of its first run, its runs'
    generators driven together and their draws reduced into it.

    In each round every generator, in list order, runs to its next request or its end, and the round's
    requests are solved by ``_solve_round`` and sent back. A check's residual starts at 0.0 and is replaced
    only by a strictly larger draw, so a tie keeps the first draw and -0.0 never shows, or by the first NaN
    draw, which no later draw replaces and which fails the check; ``worst`` is that draw's label, and the
    tolerance is the check's tolerance times ``scale``.
    """
    worst = {check: (0.0, None) for check, _, _ in runs}
    replies = dict.fromkeys(range(len(runs)))  # run index -> the spectra to send it, None at its start
    while replies:
        requests = {}
        for i, reply in replies.items():
            check, _, draws = runs[i]
            try:
                item = next(draws) if reply is None else draws.send(reply)
                while not isinstance(item, list):
                    (label, value), residual = item, worst[check][0]
                    if value > residual or (math.isnan(value) and not math.isnan(residual)):
                        worst[check] = value, label
                    item = next(draws)
            except StopIteration:
                continue
            requests[i] = item
        replies = _solve_round(requests, runs)
    results = []
    for check, (residual, label) in worst.items():
        residual, limit = float(residual), float(check.tolerance * scale)
        results.append(CheckResult(check.name, residual, limit, residual <= limit, label))
    return results


def _solve_round(requests: dict, runs) -> dict:
    """{run index: the ``hermitian_eig`` spectrum of each matrix of its request}, bit for bit, from one
    ``stack_eig`` call per matrix size.

    A failed call solves its matrices one at a time, so the error names the check and dimension whose
    matrix failed and that matrix's place in its request, not a member of the merged stack.
    """
    groups: dict = {}
    for i, matrices in requests.items():
        for j, m in enumerate(matrices):
            groups.setdefault(np.shape(m), []).append((i, j, m))
    spectra = {i: [None] * len(matrices) for i, matrices in requests.items()}
    for members in groups.values():
        try:
            w, v = stack_eig(np.stack([m for _, _, m in members]))
        except (DomainError, NumericalError, ShapeError):
            for i, j, m in members:
                try:
                    hermitian_eig(m)
                except (DomainError, NumericalError, ShapeError) as error:
                    check, dim, _ = runs[i]
                    raise type(error)(f"check {check.name} (dim {dim}): requested matrix {j}: {error}") from error
            raise
        for (i, j, _), wk, vk in zip(members, w, v):
            spectra[i][j] = EigenDecomposition(wk, vk)
    return spectra


def _complex_normal(rng, dim):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


def _relative_gap(got, want) -> float:
    """max |got - want| entrywise, relative to max(max |want|, 1)."""
    return float(np.max(np.abs(got - want)) / max(float(np.max(np.abs(want))), 1.0))


@_check("kron-trace-product", 1e-12, 2)
def _check_kron_trace(rng, dim):
    a = _complex_normal(rng, dim)
    b = _complex_normal(rng, min(dim, KRON_FACTOR_MAX))
    # entry (i d_B + j, k d_B + l) is a_ik b_jl: the site order a * dim_b + b that composites rely on
    want = np.einsum("ik,jl->ijkl", a, b).reshape(dim * len(b), dim * len(b))
    yield f"dim={dim}", _relative_gap(kron(a, b), want)


@_check("eig-reconstruction", 1e-10, 3)
def _check_eig_reconstruction(rng, dim):
    hs = [random_hermitian(rng, dim) for _ in range(REPS)]
    spectra = yield hs
    for rep, (h, (w, v)) in enumerate(zip(hs, spectra)):
        yield f"dim={dim} rep={rep} reconstruction", frobenius((v * w) @ v.conj().T - h) / frobenius(h)
        yield f"dim={dim} rep={rep} orthonormality", frobenius(v.conj().T @ v - identity(dim)) / dim


@_check("propagator-group-law", 1e-9, 4)
def _check_propagator_group(rng, dim):
    h = random_hermitian(rng, dim)
    t, s = rng.uniform(-3.0, 3.0, size=2)
    (spectrum,) = yield [h]
    lhs = spectrum.propagator(t) @ spectrum.propagator(s)
    yield f"dim={dim}", frobenius(lhs - spectrum.propagator(t + s))


@_check("expm-cross-oracle", 1e-9, 5)
def _check_expm_cross_oracle(rng, dim):
    draws = []
    for _ in range(REPS):
        h = random_hermitian(rng, dim)
        # t ||h||_F at most 10, and t at least 0.1 where that allows it (||h||_F passes 100 near dim 100)
        high = 10.0 / frobenius(h)
        draws.append((h, float(rng.uniform(min(0.1, high), high))))
    spectra = yield [h for h, _ in draws]
    for rep, ((h, t), spectrum) in enumerate(zip(draws, spectra)):
        yield f"dim={dim} rep={rep}", frobenius(spectrum.propagator(t) - expm_oracle(-1j * h * t))


@_check("partial-trace-preservation", 1e-12, 6)
def _check_partial_trace(rng, dim):
    a, b = _complex_normal(rng, 2), _complex_normal(rng, dim)
    product = kron(a, b)
    for keep, want in (("A", a * trace(b)), ("B", trace(a) * b)):
        yield f"dim={dim} keep={keep}", _relative_gap(partial_trace(product, 2, dim, keep), want)


@_check("entropy-bounds", 1e-12, 7)
def _check_entropy_bounds(rng, dim):
    for rep in range(REPS):
        s = shannon_entropy(random_probability_vector(rng, dim))
        yield f"dim={dim} rep={rep} below 0", -s
        yield f"dim={dim} rep={rep} above log dim", s - math.log(dim) - 1e-12
    yield f"dim={dim} uniform", abs(shannon_entropy(np.full(dim, 1.0 / dim)) - math.log(dim))
    yield f"dim={dim} pure", shannon_entropy(np.eye(dim)[0])


def _entropies(groups):
    """The von Neumann entropy of each member of each (T, n, n) density stack of ``groups``, with the bits of
    ``von_neumann_entropy(group)``: each group is validated as it validates one, every member's spectrum is
    requested, and each group's spectra give its entropies. Use with ``yield from``."""
    groups = [_densities(np.asarray(group, dtype=np.complex128), " (stack member {})") for group in groups]
    spectra = iter((yield [rho for group in groups for rho in group]))
    return [spectrum_entropy(np.array([next(spectra).eigenvalues for _ in group])) for group in groups]


@_check("mixture-spectrum-entropy", 1e-9, 8)
def _check_mixture_spectrum(rng, dim):
    draws = []
    for _ in range(REPS):
        basis = random_orthonormal_basis(rng, dim)
        weights = random_probability_vector(rng, dim)
        draws.append((mixture_density(basis, weights), weights))
    (entropies,) = yield from _entropies([[rho for rho, _ in draws]])
    for rep, ((_, weights), entropy) in enumerate(zip(draws, entropies)):
        yield f"dim={dim} rep={rep}", abs(entropy - shannon_entropy(weights))


@_check("entropy-additivity", 1e-9, 9)
def _check_entropy_additivity(rng, dim):
    rho_a, rho_b = random_density_matrix(rng, 2), random_density_matrix(rng, dim)
    # spectrum_entropy refuses an eigenvalue below EIGENVALUE_CLAMP, each factor's and the product's alike
    (s_a,), (s_b,), (s_ab,) = yield from _entropies([[rho_a], [rho_b], [kron(rho_a, rho_b)]])
    yield f"dim={dim}", abs(s_ab - (s_a + s_b))


@_check("factorization-roundtrip", 1e-12, 10)
def _check_factorization_roundtrip(rng, dim):
    for rep in range(REPS):
        w = random_probability_vector(rng, dim)
        psi = factor_pure(w, rng.uniform(-math.pi, math.pi, size=dim))
        yield f"dim={dim} rep={rep}", float(np.max(np.abs(np.abs(psi) ** 2 - w)))


@_check("pure-state-spectrum", 1e-10, 11)
def _check_pure_spectrum(rng, dim):
    ((w, _),) = yield [pure_density(random_pure_state(rng, dim))]
    yield f"dim={dim} top eigenvalue", abs(w[-1] - 1.0)
    yield f"dim={dim} other eigenvalues", float(np.max(np.abs(w[:-1]), initial=0.0))


@_check("entropy-invariance", 1e-9, 12)
def _check_entropy_invariance(rng, dim, corrupt=False):
    draws = []
    for _ in range(REPS):
        rho = random_density_matrix(rng, dim)
        h = random_hermitian(rng, dim)
        draws.append((rho, h, float(rng.uniform(0.0, 10.0))))
    spectra = yield [h for _, h, _ in draws]
    states = []
    for (rho, _, t), spectrum in zip(draws, spectra):
        rho_t = evolve_density(rho, spectrum, t)
        if corrupt:
            # dephasing mix: trace-preserving but not unitary
            rho_t = 0.9 * rho_t + 0.1 * np.diag(np.diagonal(rho_t))
        states.append(rho_t)
    # the REPS evolved states, then the REPS initial ones
    (entropies,) = yield from _entropies([states + [rho for rho, _, _ in draws]])
    for rep in range(REPS):
        yield f"dim={dim} rep={rep}", abs(entropies[rep] - entropies[REPS + rep])


def _evolved_draw(rng, dim):
    """rho(t) = U rho U† of a drawn (rho, H, t), H's spectrum requested; use with ``yield from``."""
    rho, h, t = random_density_matrix(rng, dim), random_hermitian(rng, dim), float(rng.uniform(0, 10))
    (spectrum,) = yield [h]
    return evolve_density(rho, spectrum, t)


@_check("evolution-trace-hermiticity", 1e-10, 13)
def _check_evolution_trace_hermiticity(rng, dim):
    rho_t = yield from _evolved_draw(rng, dim)
    yield f"dim={dim} trace", abs(complex(np.trace(rho_t)) - 1.0)
    yield f"dim={dim} hermiticity", frobenius(rho_t - rho_t.conj().T)


@_check("evolution-positivity", 1e-9, 14)
def _check_evolution_positivity(rng, dim):
    rho_t = yield from _evolved_draw(rng, dim)
    ((w, _),) = yield [rho_t]
    yield f"dim={dim}", -float(w[0])


@_check("picture-equivalence", 1e-9, 15)
def _check_picture_equivalence(rng, dim):
    draws = []
    for _ in range(REPS):
        x0 = random_hermitian(rng, dim)
        rho0 = random_density_matrix(rng, dim)
        h = random_hermitian(rng, dim)
        draws.append((x0, rho0, h, float(rng.uniform(0, 5))))
    spectra = yield [h for _, _, h, _ in draws]
    for rep, ((x0, rho0, _, t), spectrum) in enumerate(zip(draws, spectra)):
        a, b = picture_equivalence(x0, rho0, spectrum, t)
        yield f"dim={dim} rep={rep}", abs(a - b) / max(abs(a), 1.0)


@_check("spectrum-preservation", 1e-9, 16)
def _check_spectrum_preservation(rng, dim):
    x0, h, t = random_hermitian(rng, dim), random_hermitian(rng, dim), float(rng.uniform(0, 10))
    x0_spectrum, h_spectrum = yield [x0, h]
    (xt_spectrum,) = yield [heisenberg_observable(x0, h_spectrum, t)]
    yield f"dim={dim}", float(np.max(np.abs(x0_spectrum.eigenvalues - xt_spectrum.eigenvalues)))


@_check("ehrenfest-central-difference", 0.8, 17)
def _check_ehrenfest(rng, dim):
    h = random_hermitian(rng, dim)
    x0 = random_hermitian(rng, dim)
    rho0 = random_density_matrix(rng, dim)
    t = float(rng.uniform(0.2, 1.0))
    (spectrum,) = yield [h]

    def value(tt):
        return expectation(heisenberg_observable(x0, spectrum, tt), rho0)

    exact = expectation(heisenberg_rhs(heisenberg_observable(x0, spectrum, t), h), rho0)

    def error(delta):
        return abs((value(t + delta) - value(t - delta)) / (2 * delta) - exact)

    yield f"dim={dim}", abs(error(1e-3) / error(5e-4) - 4.0)


@_check("transition-normalization", 1e-9, 18)
def _check_transition_normalization(rng, dim):
    basis, h, t = random_orthonormal_basis(rng, dim), random_hermitian(rng, dim), float(rng.uniform(0, 5))
    (spectrum,) = yield [h]
    total = sum(transition_probability_exact(basis, 0, k, spectrum, t) for k in range(dim))
    yield f"dim={dim}", abs(total - 1.0)


# fixed dims: the scaling statement needs dim >= 3 to be nontrivial
@_check("first-order-scaling", 0.2, 19, dims=(4, 6, 8))
def _check_first_order_scaling(rng, dim):
    hp = random_real_symmetric(rng, dim)
    (spectrum,) = yield [hp]
    basis = np.eye(dim, dtype=complex)
    off = np.abs(hp - np.diag(np.diagonal(hp)))
    k, j = np.unravel_index(int(np.argmax(off)), off.shape)
    norm = frobenius(hp)
    times = [1e-3 / norm, 1e-2 / norm, 1e-1 / norm]
    errors = [
        abs(
            transition_probability_exact(basis, j, k, spectrum, t)
            / transition_probability_first_order(basis, j, k, hp, t)
            - 1.0
        )
        for t in times
    ]
    slope = float(np.polyfit(np.log(times), np.log(errors), 1)[0])
    yield f"dim={dim}", abs(slope - 2.0)


@_check("rabi-population-sum", 1e-12, 20, dims=(2,))
def _check_rabi_population_sum(rng, dim):
    draws = []
    for _ in range(REPS):
        system = SpinHalfSystem(delta=float(rng.uniform(-4, 4)), coupling=float(rng.uniform(-4, 4)))
        draws.append((system, float(rng.uniform(0, 20))))
    spectra = yield [spin_hamiltonian(system) for system, _ in draws]
    for rep, ((_, t), spectrum) in enumerate(zip(draws, spectra)):
        pa, pb = alpha_populations(spectrum, t)
        yield f"rep={rep}", abs(pa + pb - 1.0)


@_check("rabi-closed-form", 1e-9, 21, dims=(2,))
def _check_rabi_closed_form(rng, dim):
    cases = ((0.0, 1.0), (1.0, 1.0), (3.0, 4.0))
    spectra = yield [spin_hamiltonian(SpinHalfSystem(delta=delta, coupling=omega)) for delta, omega in cases]
    for (delta, omega), spectrum in zip(cases, spectra):
        e = math.sqrt(delta * delta + omega * omega)
        times = np.linspace(0.0, 20.0, 200)
        for i, (t, pb) in enumerate(zip(times, alpha_populations(spectrum, times)[1])):
            closed = (omega * omega / (e * e)) * math.sin(e * t / 2.0) ** 2
            yield f"delta={delta:g} omega={omega:g} t[{i}]", abs(pb - closed)


@_check("lattice-basis-residuals", 1e-12, 22, dims=(2, 3, 4, 8, 16, 32, 64))
def _check_lattice_basis(rng, dim):
    basis = lattice_momentum_basis(LatticeFreeParticle(sites=dim, length=1.0, mass=1.0))
    ortho, completeness = basis_residuals(basis)
    yield f"sites={dim} orthonormality", ortho
    yield f"sites={dim} completeness", completeness


@_check("lattice-momentum-projectors", 1e-10, 23, dims=(8,))
def _check_lattice_projectors(rng, dim):
    system = LatticeFreeParticle(sites=dim, length=2.0, mass=1.0)
    h = lattice_hamiltonian(system)
    for k, row in enumerate(lattice_momentum_basis(system)):
        proj = np.outer(row, row.conj())
        yield f"momentum row {k}", frobenius(h @ proj - proj @ h)


@_check("composite-isolation", 1e-9, 24, dims=(4,))
def _check_composite_isolation(rng, dim):
    draws = []
    for _ in range(REPS):
        system = coupled_spin_pair(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 0.0)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        draws.append((system, rho_a, rho_b, float(rng.uniform(0, 8))))
    spectra = yield [composite_hamiltonian(system) for system, *_ in draws] + [
        h for system, *_ in draws for h in (system.h1, system.h2)
    ]
    joint_spectra, local_spectra = spectra[:REPS], spectra[REPS:]
    for rep, ((_, rho_a, rho_b, t), joint_spectrum) in enumerate(zip(draws, joint_spectra)):
        h1, h2 = local_spectra[2 * rep : 2 * rep + 2]
        # the factors are random_density_matrix draws and their unitary evolutions: PSD by construction
        joint = evolve_density(kron(rho_a, rho_b), joint_spectrum, t)
        split = kron(evolve_density(rho_a, h1, t), evolve_density(rho_b, h2, t))
        yield f"rep={rep}", frobenius(joint - split)


@_check("composite-entanglement", 1e-9, 25, dims=(4,))
def _check_composite_entanglement(rng, dim):
    # fixed demonstration: splittings 1, coupling 0.3, initial alpha x alpha
    system = coupled_spin_pair(1.0, 1.0, 0.3)
    (spectrum,) = yield [composite_hamiltonian(system)]
    rho0 = pure_density(np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex))
    times = np.linspace(0.0, 20.0, 81)
    u = spectrum.propagator(times)
    states = u @ rho0 @ u.conj().swapaxes(1, 2)
    reduced = np.einsum("tikjk->tij", states.reshape(-1, 2, 2, 2, 2))
    entropies, subsystem = yield from _entropies([states, reduced])
    for t, entropy in zip(times, entropies):
        yield f"global entropy t={t:g}", abs(entropy)
    # shortfall below the 0.1-nat threshold counts against the check
    yield "peak subsystem entropy", 0.1 - max(0.0, *subsystem)


_CHECKS = (
    _check_kron_trace,
    _check_eig_reconstruction,
    _check_propagator_group,
    _check_expm_cross_oracle,
    _check_partial_trace,
    _check_entropy_bounds,
    _check_mixture_spectrum,
    _check_entropy_additivity,
    _check_factorization_roundtrip,
    _check_pure_spectrum,
    _check_entropy_invariance,
    _check_evolution_trace_hermiticity,
    _check_evolution_positivity,
    _check_picture_equivalence,
    _check_spectrum_preservation,
    _check_ehrenfest,
    _check_transition_normalization,
    _check_first_order_scaling,
    _check_rabi_population_sum,
    _check_rabi_closed_form,
    _check_lattice_basis,
    _check_lattice_projectors,
    _check_composite_isolation,
    _check_composite_entanglement,
)


def run_invariant_suite(
    seed: int = DEFAULT_SEED,
    dims=DEFAULT_DIMS,
    tolerance_scale: float = 1.0,
    *,
    corrupt_evolution: bool = False,
) -> SuiteReport:
    """Run every invariant check with reproducible randomness, once per dimension, all runs together by
    ``_run``.

    ``tolerance_scale`` multiplies every tolerance (useful when hunting for
    margins) and must be finite and positive; each dimension in ``dims`` lies
    between 2 and the scenario layer's MAX_DIMENSION, and none is repeated, so
    each draw's label names it alone; a check that fixes its own sizes runs at
    those instead. ``corrupt_evolution`` injects a
    non-unitary map into the entropy-invariance check as a negative control;
    the suite must then fail.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or not all(2 <= d <= MAX_DIMENSION for d in dims):
        raise ValueError(f"dims must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {dims}")
    if sorted(set(dims)) != sorted(dims):
        raise ValueError(f"dims must not repeat a dimension, got {dims}")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ValueError(f"tolerance_scale must be finite and positive, got {tolerance_scale}")
    runs = []
    for check in _CHECKS:
        options = {"corrupt": corrupt_evolution} if check is _check_entropy_invariance else {}
        runs.extend(check.runs(rng_for(seed, check.stream), dims, **options))
    return SuiteReport(
        seed=int(seed),
        dims=dims,
        tolerance_scale=float(tolerance_scale),
        results=tuple(_run(runs, tolerance_scale)),
    )
