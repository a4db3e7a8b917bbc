"""Seeded invariant suite: every structural identity the package relies on.

Each check draws its own reproducible random stream from (seed, check index),
measures a residual, and compares it against a tolerance (optionally scaled).
``corrupt_evolution`` is a negative control for the suite itself: it injects
a dephasing (non-unitary) map into the entropy-invariance check, which must
then fail.
"""

from __future__ import annotations

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
from .ensembles import (
    basis_residuals,
    factor_pure,
    mixture_density,
    pure_density,
    shannon_entropy,
    von_neumann_entropy,
)
from .linalg import (
    adjoint,
    expm_hermitian,
    expm_oracle,
    frobenius,
    hermitian_eig,
    identity,
    kron,
    matmul,
    partial_trace,
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
from .scenario import MAX_DIMENSION
from .systems import (
    LatticeFreeParticle,
    SpinHalfSystem,
    compose_density,
    composite_hamiltonian,
    coupled_spin_pair,
    lattice_hamiltonian,
    lattice_momentum_basis,
    rabi_populations,
)

DEFAULT_DIMS = (2, 4, 8)
REPS = 6
# Largest second factor of kron-trace-product, so kron(a, b) has at most
# (16 dim)^2 entries (64 MiB at MAX_DIMENSION) rather than dim^4.
KRON_FACTOR_MAX = 16


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    passed: bool


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
        for result in self.results:
            verdict = "PASS" if result.passed else "FAIL"
            lines.append(
                f"{verdict} {result.name}: residual={result.residual:.3e} "
                f"(tolerance {result.tolerance:.3e})"
            )
        failed = sum(not r.passed for r in self.results)
        lines.append(
            f"{len(self.results) - failed}/{len(self.results)} checks passed"
            + ("" if failed == 0 else f" ({failed} FAILED)")
        )
        return "\n".join(lines)


def _result(name: str, residual: float, tolerance: float) -> CheckResult:
    return CheckResult(name, float(residual), float(tolerance), float(residual) <= float(tolerance))


def _check_adjoint_involution(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        worst = max(worst, float(np.max(np.abs(adjoint(adjoint(m)) - m))))
    return _result("adjoint-involution", worst, 0.0)


def _check_trace_cyclicity(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            b = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            lhs, rhs = trace(matmul(a, b)), trace(matmul(b, a))
            worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return _result("trace-cyclicity", worst, 1e-12 * tol)


def _check_kron_trace(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        small = min(dim, KRON_FACTOR_MAX)
        b = rng.standard_normal((small, small)) + 1j * rng.standard_normal((small, small))
        lhs = trace(kron(a, b))
        rhs = trace(a) * trace(b)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return _result("kron-trace-product", worst, 1e-12 * tol)


def _check_eig_reconstruction(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            h = random_hermitian(rng, dim)
            w, v = hermitian_eig(h)
            rec = frobenius((v * w) @ v.conj().T - h) / frobenius(h)
            orth = frobenius(v.conj().T @ v - identity(dim)) / dim
            worst = max(worst, rec, orth)
    return _result("eig-reconstruction", worst, 1e-10 * tol)


def _check_propagator_group(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        spectrum = hermitian_eig(random_hermitian(rng, dim))
        t, s = rng.uniform(-3.0, 3.0, size=2)
        lhs = spectrum.propagator(t) @ spectrum.propagator(s)
        worst = max(worst, frobenius(lhs - spectrum.propagator(t + s)))
    return _result("propagator-group-law", worst, 1e-9 * tol)


def _check_expm_cross_oracle(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            h = random_hermitian(rng, dim)
            t = float(rng.uniform(0.1, 10.0 / frobenius(h)))
            worst = max(worst, frobenius(expm_hermitian(h, t) - expm_oracle(-1j * h * t)))
    return _result("expm-cross-oracle", worst, 1e-9 * tol)


def _check_partial_trace(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        m = rng.standard_normal((2 * dim, 2 * dim)) + 1j * rng.standard_normal((2 * dim, 2 * dim))
        for keep in ("A", "B"):
            reduced = partial_trace(m, 2, dim, keep)
            worst = max(
                worst, abs(trace(reduced) - trace(m)) / max(abs(trace(m)), 1.0)
            )
    return _result("partial-trace-preservation", worst, 1e-12 * tol)


def _check_entropy_bounds(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            w = random_probability_vector(rng, dim)
            s = shannon_entropy(w)
            worst = max(worst, -s, s - math.log(dim) - 1e-12)
        worst = max(worst, abs(shannon_entropy(np.full(dim, 1.0 / dim)) - math.log(dim)))
        pure = np.zeros(dim)
        pure[0] = 1.0
        worst = max(worst, shannon_entropy(pure))
    return _result("entropy-bounds", worst, 1e-12 * tol)


def _check_mixture_spectrum(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            basis = random_orthonormal_basis(rng, dim)
            weights = random_probability_vector(rng, dim)
            rho = mixture_density(basis, weights)
            worst = max(worst, abs(von_neumann_entropy(rho) - shannon_entropy(weights)))
    return _result("mixture-spectrum-entropy", worst, 1e-9 * tol)


def _check_entropy_additivity(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, dim)
        joint = compose_density(rho_a, rho_b)
        split = von_neumann_entropy(rho_a) + von_neumann_entropy(rho_b)
        worst = max(worst, abs(von_neumann_entropy(joint) - split))
    return _result("entropy-additivity", worst, 1e-9 * tol)


def _check_factorization_roundtrip(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            w = random_probability_vector(rng, dim)
            phases = rng.uniform(-math.pi, math.pi, size=dim)
            psi = factor_pure(w, phases)
            worst = max(worst, float(np.max(np.abs(np.abs(psi) ** 2 - w))))
    return _result("factorization-roundtrip", worst, 1e-12 * tol)


def _check_pure_spectrum(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        rho = pure_density(random_pure_state(rng, dim))
        w = hermitian_eig(rho).eigenvalues
        worst = max(worst, abs(w[-1] - 1.0), float(np.max(np.abs(w[:-1]))) if dim > 1 else 0.0)
    return _result("pure-state-spectrum", worst, 1e-10 * tol)


def _check_entropy_invariance(rng, dims, tol, corrupt=False):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            rho = random_density_matrix(rng, dim)
            h = random_hermitian(rng, dim)
            t = float(rng.uniform(0.0, 10.0))
            rho_t = evolve_density(rho, h, t)
            if corrupt:
                # dephasing mix: trace-preserving but not unitary
                rho_t = 0.9 * rho_t + 0.1 * np.diag(np.diagonal(rho_t))
            worst = max(worst, abs(von_neumann_entropy(rho_t) - von_neumann_entropy(rho)))
    return _result("entropy-invariance", worst, 1e-9 * tol)


def _check_evolution_trace_hermiticity(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        rho_t = evolve_density(
            random_density_matrix(rng, dim), random_hermitian(rng, dim), float(rng.uniform(0, 10))
        )
        worst = max(
            worst,
            abs(complex(np.trace(rho_t)) - 1.0),
            frobenius(rho_t - rho_t.conj().T),
        )
    return _result("evolution-trace-hermiticity", worst, 1e-10 * tol)


def _check_evolution_positivity(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        rho_t = evolve_density(
            random_density_matrix(rng, dim), random_hermitian(rng, dim), float(rng.uniform(0, 10))
        )
        worst = max(worst, -float(hermitian_eig(rho_t).eigenvalues[0]))
    return _result("evolution-positivity", max(worst, 0.0), 1e-9 * tol)


def _check_picture_equivalence(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        for _ in range(REPS):
            x0 = random_hermitian(rng, dim)
            rho0 = random_density_matrix(rng, dim)
            h = random_hermitian(rng, dim)
            a, b = picture_equivalence(x0, rho0, h, float(rng.uniform(0, 5)))
            worst = max(worst, abs(a - b) / max(abs(a), 1.0))
    return _result("picture-equivalence", worst, 1e-9 * tol)


def _check_spectrum_preservation(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        x0 = random_hermitian(rng, dim)
        xt = heisenberg_observable(x0, random_hermitian(rng, dim), float(rng.uniform(0, 10)))
        w0 = hermitian_eig(x0).eigenvalues
        wt = hermitian_eig(xt).eigenvalues
        worst = max(worst, float(np.max(np.abs(w0 - wt))))
    return _result("spectrum-preservation", worst, 1e-9 * tol)


def _check_ehrenfest(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        h = random_hermitian(rng, dim)
        spectrum = hermitian_eig(h)
        x0 = random_hermitian(rng, dim)
        rho0 = random_density_matrix(rng, dim)
        t = float(rng.uniform(0.2, 1.0))

        def value(tt):
            return expectation(heisenberg_observable(x0, spectrum, tt), rho0)

        exact = expectation(heisenberg_rhs(heisenberg_observable(x0, spectrum, t), h), rho0)

        def error(delta):
            return abs((value(t + delta) - value(t - delta)) / (2 * delta) - exact)

        ratio = error(1e-3) / error(5e-4)
        worst = max(worst, abs(ratio - 4.0))
    return _result("ehrenfest-central-difference", worst, 0.8 * tol)


def _check_transition_normalization(rng, dims, tol):
    worst = 0.0
    for dim in dims:
        basis = random_orthonormal_basis(rng, dim)
        spectrum = hermitian_eig(random_hermitian(rng, dim))
        t = float(rng.uniform(0, 5))
        total = sum(transition_probability_exact(basis, 0, k, spectrum, t) for k in range(dim))
        worst = max(worst, abs(total - 1.0))
    return _result("transition-normalization", worst, 1e-9 * tol)


def _check_first_order_scaling(rng, dims, tol):
    # fixed dims: the scaling statement needs dim >= 3 to be nontrivial
    worst = 0.0
    for dim in (4, 6, 8):
        hp = random_real_symmetric(rng, dim)
        basis = np.eye(dim, dtype=complex)
        off = np.abs(hp - np.diag(np.diagonal(hp)))
        k, j = np.unravel_index(int(np.argmax(off)), off.shape)
        norm = frobenius(hp)
        spectrum = hermitian_eig(hp)
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
        worst = max(worst, abs(slope - 2.0))
    return _result("first-order-scaling", worst, 0.2 * tol)


def _check_rabi_population_sum(rng, dims, tol):
    worst = 0.0
    for _ in range(REPS):
        system = SpinHalfSystem(
            delta=float(rng.uniform(-4, 4)), coupling=float(rng.uniform(-4, 4))
        )
        pa, pb = rabi_populations(system, float(rng.uniform(0, 20)))
        worst = max(worst, abs(pa + pb - 1.0))
    return _result("rabi-population-sum", worst, 1e-12 * tol)


def _check_rabi_closed_form(rng, dims, tol):
    worst = 0.0
    for delta, omega in ((0.0, 1.0), (1.0, 1.0), (3.0, 4.0)):
        system = SpinHalfSystem(delta=delta, coupling=omega)
        e = math.sqrt(delta * delta + omega * omega)
        times = np.linspace(0.0, 20.0, 200)
        for t, pb in zip(times, rabi_populations(system, times)[1]):
            closed = (omega * omega / (e * e)) * math.sin(e * t / 2.0) ** 2
            worst = max(worst, abs(pb - closed))
    return _result("rabi-closed-form", worst, 1e-9 * tol)


def _check_lattice_basis(rng, dims, tol):
    worst = 0.0
    for n in (2, 3, 4, 8, 16, 32, 64):
        basis = lattice_momentum_basis(LatticeFreeParticle(sites=n, length=1.0, mass=1.0))
        ortho, completeness = basis_residuals(basis)
        worst = max(worst, ortho, completeness)
    return _result("lattice-basis-residuals", worst, 1e-12 * tol)


def _check_lattice_projectors(rng, dims, tol):
    worst = 0.0
    system = LatticeFreeParticle(sites=8, length=2.0, mass=1.0)
    h = lattice_hamiltonian(system)
    for row in lattice_momentum_basis(system):
        proj = np.outer(row, row.conj())
        worst = max(worst, frobenius(h @ proj - proj @ h))
    return _result("lattice-momentum-projectors", worst, 1e-10 * tol)


def _check_composite_isolation(rng, dims, tol):
    worst = 0.0
    for _ in range(REPS):
        system = coupled_spin_pair(float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)), 0.0)
        rho_a = random_density_matrix(rng, 2)
        rho_b = random_density_matrix(rng, 2)
        t = float(rng.uniform(0, 8))
        joint = evolve_density(
            compose_density(rho_a, rho_b), composite_hamiltonian(system), t
        )
        split = compose_density(
            evolve_density(rho_a, system.h1, t), evolve_density(rho_b, system.h2, t)
        )
        worst = max(worst, frobenius(joint - split))
    return _result("composite-isolation", worst, 1e-9 * tol)


def _check_composite_entanglement(rng, dims, tol):
    # fixed demonstration: splittings 1, coupling 0.3, initial alpha x alpha
    system = coupled_spin_pair(1.0, 1.0, 0.3)
    spectrum = hermitian_eig(composite_hamiltonian(system))
    psi0 = np.kron([1.0, 0.0], [1.0, 0.0]).astype(complex)
    rho0 = pure_density(psi0)
    global_worst = 0.0
    best_subsystem = 0.0
    for t in np.linspace(0.0, 20.0, 81):
        rho_t = evolve_density(rho0, spectrum, float(t))
        global_worst = max(global_worst, abs(von_neumann_entropy(rho_t)))
        best_subsystem = max(
            best_subsystem, von_neumann_entropy(partial_trace(rho_t, 2, 2, "A"))
        )
    # shortfall below the 0.1-nat threshold counts against the check
    residual = max(global_worst, 0.1 - best_subsystem)
    return _result("composite-entanglement", residual, 1e-9 * tol)


_CHECKS = (
    _check_adjoint_involution,
    _check_trace_cyclicity,
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
    """Run every invariant check with reproducible randomness.

    ``tolerance_scale`` multiplies every tolerance (useful when hunting for
    margins) and must be finite and positive; each dimension in ``dims`` lies
    between 2 and the scenario layer's MAX_DIMENSION. ``corrupt_evolution``
    injects a non-unitary map into the entropy-invariance check as a negative
    control; the suite must then fail.
    """
    dims = tuple(int(d) for d in dims)
    if not dims or not all(2 <= d <= MAX_DIMENSION for d in dims):
        raise ValueError(f"dims must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {dims}")
    if not (math.isfinite(tolerance_scale) and tolerance_scale > 0.0):
        raise ValueError(f"tolerance_scale must be finite and positive, got {tolerance_scale}")
    results = []
    for index, check in enumerate(_CHECKS):
        rng = rng_for(seed, index)
        if check is _check_entropy_invariance:
            results.append(check(rng, dims, tolerance_scale, corrupt=corrupt_evolution))
        else:
            results.append(check(rng, dims, tolerance_scale))
    return SuiteReport(
        seed=int(seed),
        dims=dims,
        tolerance_scale=float(tolerance_scale),
        results=tuple(results),
    )
