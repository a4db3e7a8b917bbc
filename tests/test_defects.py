"""The defect matrix: which checks fail under each seeded defect.

Each defect is a context manager that puts a wrong version of one name in place of the right one, at every
entrodyn module's binding of it, or, for a method, on its class. Under it the default ``verify`` suite (seed
1, dims 2, 4, 8) runs, or a fixture's ``evolve``, and ``DEFECTS`` pins the checks that fail: the suite's
checks, or the run summary's. So a change that weakens a check moves the table, and every defect must be
caught by at least one check; the rows that no check catches yet are strict expected failures of that.
"""

import contextlib
import functools
import sys
from pathlib import Path

import numpy as np
import pytest

from entrodyn import linalg
from entrodyn.invariants import run_invariant_suite
from entrodyn.linalg import EigenDecomposition
from entrodyn.scenario import parse_scenario, run_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
# the right versions, which the defects call while their own bindings are replaced
FROBENIUS, HERMITIAN_EIG, PARTIAL_TRACE, TRACE = (
    linalg.frobenius,
    linalg.hermitian_eig,
    linalg.partial_trace,
    linalg.trace,
)


@contextlib.contextmanager
def _rebound(original, replacement):
    """``replacement`` in place of the function ``original`` at every entrodyn module's binding of it."""
    with pytest.MonkeyPatch.context() as patch:
        for name, module in list(sys.modules.items()):
            if name.partition(".")[0] == "entrodyn":
                for attr, value in list(vars(module).items()):
                    if value is original:
                        patch.setattr(module, attr, replacement)
        yield


@contextlib.contextmanager
def _spectral(method, replacement):
    """``replacement(original, spectrum, times)`` in place of the EigenDecomposition ``method``."""
    original = getattr(EigenDecomposition, method)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EigenDecomposition, method, lambda self, times: replacement(original, self, times))
        yield


def _columns_swapped(spectrum):
    """``spectrum`` with eigenvector columns 0 and 1 swapped: still unitary, no longer h's eigenbasis."""
    order = [1, 0, *range(2, len(spectrum.eigenvalues))]
    return EigenDecomposition(spectrum.eigenvalues, spectrum.eigenvectors[:, order])


def _stretched(spectrum):
    """``spectrum`` with every eigenvalue times 1 + 1e-6."""
    return spectrum._replace(eigenvalues=spectrum.eigenvalues * (1 + 1e-6))


def _other_factor(m, dim_a, dim_b, keep="A"):
    """The square case's other reduction: keep A traces out A, keep B traces out B."""
    if dim_a == dim_b:
        keep = {"A": "B", "B": "A"}[str(keep).upper()]
    return PARTIAL_TRACE(m, dim_a, dim_b, keep)


# defect -> (what runs under it: "verify" or a fixture's evolve, the checks that fail)
DEFECTS = {
    "partial_trace keeps the other factor": (
        lambda: _rebound(PARTIAL_TRACE, _other_factor),
        "verify",
        {"partial-trace-preservation"},
    ),
    "kron(b, a)": (
        lambda: _rebound(linalg.kron, lambda a, b: np.kron(b, a)),
        "verify",
        {"kron-trace-product", "partial-trace-preservation"},
    ),
    "phases conjugated, so U(-t)": (
        lambda: _spectral("phases", lambda phases, spectrum, times: phases(spectrum, times).conj()),
        "verify",
        {"expm-cross-oracle", "ehrenfest-central-difference"},
    ),
    "eigenvalues x (1 + 1e-6) in phases": (
        lambda: _spectral("phases", lambda phases, spectrum, times: phases(_stretched(spectrum), times)),
        "verify",
        {"expm-cross-oracle", "ehrenfest-central-difference", "first-order-scaling", "rabi-closed-form"},
    ),
    "eigenvector columns 0 and 1 swapped in propagator": (
        lambda: _spectral(
            "propagator", lambda propagator, spectrum, times: propagator(_columns_swapped(spectrum), times)
        ),
        "verify",
        {"expm-cross-oracle", "ehrenfest-central-difference", "first-order-scaling", "composite-isolation"},
    ),
    "trace sums row 0": (
        lambda: _rebound(TRACE, lambda m: complex(np.sum(linalg.as_matrix(m)[0]))),
        "verify",
        {"partial-trace-preservation"},
    ),
    "trace conjugated": (
        lambda: _rebound(TRACE, lambda m: TRACE(m).conjugate()),
        "verify",
        {"partial-trace-preservation"},
    ),
    "frobenius halved": (
        lambda: _rebound(FROBENIUS, lambda m: FROBENIUS(m) / 2),
        "verify",
        set(),
    ),
    "eigenvector columns 0 and 1 swapped in hermitian_eig": (
        lambda: _rebound(HERMITIAN_EIG, lambda h, basis=None: _columns_swapped(HERMITIAN_EIG(h, basis))),
        "explicit_mixture.json",
        set(),
    ),
}

# defects that no check catches yet, and why
UNCAUGHT = {
    "frobenius halved": "frobenius is the residual measure of six checks, so halving it only halves them",
    "eigenvector columns 0 and 1 swapped in hermitian_eig": (
        "a wrong but unitary eigenbasis keeps every spectrum, and entropy-constancy is a run's only check"
    ),
}


def _run(target) -> tuple:
    """(the names of the checks that fail, the output) of ``target``: the default verify suite and its report
    text, or a fixture's evolve and its table."""
    if target == "verify":
        report = run_invariant_suite(1, (2, 4, 8))
        results, output = report.results, report.format()
    else:
        report = run_scenario(parse_scenario((SCENARIOS / target).read_text()))
        results, output = report.checks, report.table.tolist()
    return frozenset(result.name for result in results if not result.passed), output


@functools.cache
def _defective_run(defect) -> tuple:
    make, target, _ = DEFECTS[defect]
    with make():
        return _run(target)


@pytest.mark.parametrize("defect", DEFECTS)
def test_defect_fails_its_pinned_checks(defect):
    assert _defective_run(defect)[0] == DEFECTS[defect][2]


@pytest.mark.parametrize(
    "defect",
    [
        pytest.param(d, marks=pytest.mark.xfail(strict=True, reason=UNCAUGHT[d]) if d in UNCAUGHT else ())
        for d in DEFECTS
    ],
)
def test_every_defect_is_caught(defect):
    assert _defective_run(defect)[0]


@pytest.mark.parametrize("defect", UNCAUGHT)
def test_uncaught_defects_change_the_output(defect):
    # so an expected failure stands for a defect that is live, not for a patch that reaches nothing
    assert _defective_run(defect)[1] != _run(DEFECTS[defect][1])[1]
