"""Command-line interface.

Subcommands:
  verify       run the invariant suite (exit 0 iff every check passes)
  evolve       run a scenario file, write a CSV time series and a summary
  perturb      exact vs first-order transition columns for a scenario
  rabi         two-level populations over a time grid, CSV on stdout
  basis-check  orthonormality/completeness residuals for the built-in bases

Exit codes: 0 success, 1 invariant or validation failure, 2 malformed input.
No environment variables are consulted; every input is explicit.
"""

from __future__ import annotations

import argparse
import contextlib
import math
import sys

import numpy as np

from . import __version__
from .ensembles import basis_residuals
from .errors import DomainError, NumericalError, ShapeError
from .invariants import DEFAULT_DIMS, run_invariant_suite
from .sampling import DEFAULT_SEED
from .scenario import (
    MAX_DIMENSION,
    MAX_GRID_CELLS,
    EvolutionReport,
    ScenarioParseError,
    ScenarioValidationError,
    load_scenario,
    run_perturbation,
    run_scenario,
    write_csv,
)
from .systems import LatticeFreeParticle, SpinHalfSystem, lattice_momentum_basis, rabi_populations

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2

BASIS_RESIDUAL_TOL = 1e-12
RABI_COLUMNS = ("t", "pop_alpha", "pop_beta")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="entrodyn",
        description="entropy-preserving unitary dynamics of finite quantum ensembles",
    )
    parser.add_argument("--version", action="version", version=f"entrodyn {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)

    verify = subparsers.add_parser("verify", help="run the seeded invariant suite")
    verify.add_argument("--seed", type=int, default=DEFAULT_SEED, help="64-bit PRNG seed")
    verify.add_argument(
        "--dims",
        type=str,
        default=",".join(str(d) for d in DEFAULT_DIMS),
        help="comma-separated matrix dimensions, e.g. 2,4,8",
    )
    verify.add_argument(
        "--tolerance-scale",
        type=float,
        default=1.0,
        help="multiply every tolerance by this factor",
    )

    evolve = subparsers.add_parser("evolve", help="run a scenario file")
    evolve.add_argument("scenario", help="path to a scenario JSON document")
    evolve.add_argument("--out", help="CSV output path (default: stdout)")
    evolve.add_argument("--summary", help="JSON summary output path")

    perturb = subparsers.add_parser(
        "perturb", help="exact vs first-order transition probabilities for a scenario"
    )
    perturb.add_argument("scenario", help="path to a scenario JSON document")
    perturb.add_argument("--out", help="CSV output path (default: stdout)")
    perturb.add_argument("--summary", help="JSON summary output path")

    rabi = subparsers.add_parser("rabi", help="two-level populations over a time grid")
    rabi.add_argument("--delta", type=float, default=0.0, help="level splitting")
    rabi.add_argument("--omega", type=float, default=1.0, help="transverse coupling")
    rabi.add_argument("--t-max", type=float, default=10.0, help="end of the time grid")
    rabi.add_argument("--points", type=int, default=201, help="number of grid points")

    basis_check = subparsers.add_parser(
        "basis-check", help="orthonormality/completeness residuals of the built-in bases"
    )
    basis_check.add_argument(
        "--lattice-n", type=int, default=8, help="largest lattice size to check"
    )
    return parser


def _output(path: str | None):
    """The file at ``path`` opened for writing, or stdout when there is none."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _write_report(report: EvolutionReport, out: str | None, summary: str | None) -> int:
    with _output(out) as handle:
        report.to_csv(handle)
    if summary is not None:
        with _output(summary) as handle:
            handle.write(report.summary_json())
    if not report.passed:
        for check in report.checks:
            if not check.passed:
                print(
                    f"FAIL {check.name}: residual={check.residual:.3e} "
                    f"(tolerance {check.tolerance:.3e})",
                    file=sys.stderr,
                )
        return EXIT_FAILURE
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError:
        print(f"error: --dims must be comma-separated integers, got {args.dims!r}", file=sys.stderr)
        return EXIT_BAD_INPUT
    if not dims or not all(2 <= d <= MAX_DIMENSION for d in dims):
        print(
            f"error: --dims must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {args.dims!r}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale > 0.0):
        print(f"error: --tolerance-scale must be finite and positive, got {args.tolerance_scale}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        report = run_invariant_suite(seed=args.seed, dims=dims, tolerance_scale=args.tolerance_scale)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    print(report.format())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _run_scenario_command(args, runner) -> int:
    try:
        spec = load_scenario(args.scenario)
        report = runner(spec)
    except OSError as exc:
        print(f"error: cannot read scenario: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ScenarioValidationError, DomainError, ShapeError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    return _write_report(report, args.out, args.summary)


def _cmd_rabi(args) -> int:
    max_points = MAX_GRID_CELLS // len(RABI_COLUMNS)
    if not 1 <= args.points <= max_points:
        print(
            f"error: --points must lie between 1 and MAX_GRID_CELLS / {len(RABI_COLUMNS)} = {max_points}, "
            f"got {args.points}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    if not math.isfinite(args.t_max):
        print(f"error: --t-max must be finite, got {args.t_max}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        system = SpinHalfSystem(delta=args.delta, coupling=args.omega)
        # H's eigenvalues are ±hypot(delta, omega)/2; the phases exp(-iwt) need w t finite
        energy = math.hypot(args.delta / 2.0, args.omega / 2.0)
        if not math.isfinite(energy * args.t_max):
            print(
                f"error: energy {energy:.3e} times --t-max {args.t_max:.3e} overflows; shorten the grid",
                file=sys.stderr,
            )
            return EXIT_BAD_INPUT
        times = np.linspace(0.0, args.t_max, args.points)
        # the computed eigenvalues can exceed that estimate by a rounding, and phases then raise
        populations = rabi_populations(system, times)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    write_csv(sys.stdout, "rabi", RABI_COLUMNS, np.column_stack((times, *populations)))
    return EXIT_OK


def _cmd_basis_check(args) -> int:
    if not 2 <= args.lattice_n <= MAX_DIMENSION:
        print(
            f"error: --lattice-n must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {args.lattice_n}",
            file=sys.stderr,
        )
        return EXIT_BAD_INPUT
    print(f"# entrodyn {__version__} basis-check")
    bases = [("spin-half basis", np.eye(2, dtype=complex))] + [
        (f"lattice momentum basis n={n}", lattice_momentum_basis(LatticeFreeParticle(sites=n, length=1.0, mass=1.0)))
        for n in range(2, args.lattice_n + 1)
    ]
    failures = 0
    for name, basis in bases:
        ortho, completeness = basis_residuals(basis)
        ok = ortho <= BASIS_RESIDUAL_TOL and completeness <= BASIS_RESIDUAL_TOL
        failures += not ok
        print(
            f"{'PASS' if ok else 'FAIL'} {name}: orthonormality={ortho:.3e} "
            f"completeness={completeness:.3e} (tolerance {BASIS_RESIDUAL_TOL:.0e})"
        )
    return EXIT_OK if failures == 0 else EXIT_FAILURE


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command in ("evolve", "perturb"):
        return _run_scenario_command(args, run_scenario if args.command == "evolve" else run_perturbation)
    return {"verify": _cmd_verify, "rabi": _cmd_rabi, "basis-check": _cmd_basis_check}[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
