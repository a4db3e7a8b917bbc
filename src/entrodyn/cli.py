"""Command-line interface.

Subcommands:
  verify       run the invariant suite (exit 0 iff every check passes)
  evolve       run a scenario file, write a CSV time series and a summary
  perturb      exact vs first-order transition columns for a scenario
  rabi         two-level populations over a time grid, CSV on stdout
  basis-check  orthonormality/completeness residuals for the built-in bases

Exit codes: 0 success, 1 invariant or validation failure, 2 malformed input or
an output (a target file, stdout) that cannot be written.
Each command raises what it cannot do; ``main`` alone maps the error to its
exit code and prints ``error: <message>``. No environment variables are
consulted; every input is explicit.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import math
import os
import re
import stat
import sys

import numpy as np

from . import __version__
from .csvtext import write_csv
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
    _read_spec,
    run_perturbation,
    run_scenario,
)
from .systems import LatticeFreeParticle, SpinHalfSystem, lattice_momentum_basis, rabi_populations

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_BAD_INPUT = 2

BASIS_RESIDUAL_TOL = 1e-12
RABI_COLUMNS = ("t", "pop_alpha", "pop_beta")
# the commands that run a scenario file and write its report: name -> help line
_SCENARIO_RUNS = {
    "evolve": "run a scenario file",
    "perturb": "exact vs first-order transition probabilities for a scenario",
}
# A negative decimal, with or without an exponent, and -inf, -infinity or -nan are values, not
# options: argparse alone takes only -1000 and -1.5 for numbers, and reads -1e3 or -inf as a flag.
_NEGATIVE_NUMBER = re.compile(r"^-(\d+\.?\d*|\.\d+)(e[+-]?\d+)?$|^-(inf|infinity|nan)$", re.IGNORECASE)


# built on the first main call, not at import, and reused: parse_args leaves the parser as it was, and argparse
# looks up sys.stdout, sys.stderr and the terminal width when it prints, not when it is built
@functools.cache
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

    for name, help_text in _SCENARIO_RUNS.items():
        run = subparsers.add_parser(name, help=help_text)
        run.add_argument("scenario", help="path to a scenario JSON document")
        run.add_argument("--out", help="CSV output path (default: stdout)")
        run.add_argument("--summary", help="JSON summary output path")

    rabi = subparsers.add_parser("rabi", help="two-level populations over a time grid")
    rabi._negative_number_matcher = _NEGATIVE_NUMBER
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


class _UsageError(Exception):
    """A flag or file the command cannot use: malformed input."""


@contextlib.contextmanager
def _writing(flag: str):
    """An OSError raised while opening, emptying, writing or closing the target of ``flag`` is a bad
    ``flag``."""
    try:
        yield
    except OSError as exc:
        raise _UsageError(f"cannot write {flag}: {exc}") from None


def _output(flag: str, path: str):
    """The file at ``path`` opened for appending, which changes nothing in it."""
    with _writing(flag):
        return open(path, "a", encoding="utf-8", newline="")


def _load(path: str):
    """The spec of the scenario at ``path`` and the status of the file it was read from. Its references
    are not resolved here: the run resolves them once, and that resolution validates the spec."""
    try:
        return _read_spec(path), os.stat(path)
    except OSError as exc:
        raise _UsageError(f"cannot read scenario: {exc}") from None


def _write_report(report: EvolutionReport, args, scenario: os.stat_result) -> int:
    """Write the CSV and the summary. Both targets are opened before either is emptied or written,
    so a target that cannot be opened, a target that is the ``scenario`` file, or two targets that are
    one regular file, leave both as they were: an existing file keeps what it held. Each regular target
    is then emptied before either is written, so a write that fails leaves no byte of what a file held,
    only what was written. On any failure, a file that opening it created is removed again."""
    paths = {flag: path for flag, path in (("--out", args.out), ("--summary", args.summary)) if path is not None}
    new = [path for path in paths.values() if not os.path.lexists(path)]
    targets = {}
    try:
        for flag, path in paths.items():
            targets[flag] = _output(flag, path)
        status = {flag: os.fstat(handle.fileno()) for flag, handle in targets.items()}
        # a pipe or a device is written as it is
        files = [flag for flag in targets if stat.S_ISREG(status[flag].st_mode)]
        for flag in files:
            if os.path.samestat(status[flag], scenario):
                raise _UsageError(f"{flag} names the scenario file: {paths[flag]}")
        if len(files) == 2 and os.path.samestat(*(status[flag] for flag in files)):
            raise _UsageError(f"--out and --summary name the same file: {args.summary}")
        for flag in files:
            with _writing(flag):
                targets[flag].truncate(0)
        if "--out" in targets:
            with _writing("--out"), targets.pop("--out") as handle:
                report.to_csv(handle)
        else:
            report.to_csv(sys.stdout)
        if "--summary" in targets:
            with _writing("--summary"), targets.pop("--summary") as handle:
                handle.write(report.summary_json())
    except BaseException:
        for handle in targets.values():
            with contextlib.suppress(OSError):
                handle.close()
        for path in new:
            with contextlib.suppress(OSError):
                os.remove(path)
        raise
    for check in report.checks:
        if not check.passed:
            print(check.line(), file=sys.stderr)
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_scenario(args) -> int:
    # the runs are looked up by their module-level names at each call, so a rebinding of a name
    # (a tracer's span, a test's stand-in) is what runs
    run = run_scenario if args.command == "evolve" else run_perturbation
    spec, scenario = _load(args.scenario)
    return _write_report(run(spec), args, scenario)


def _cmd_verify(args) -> int:
    try:
        dims = tuple(int(part) for part in args.dims.split(",") if part.strip())
    except ValueError:
        raise _UsageError(f"--dims must be comma-separated integers, got {args.dims!r}") from None
    if not dims or not all(2 <= d <= MAX_DIMENSION for d in dims):
        raise _UsageError(f"--dims must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {args.dims!r}")
    if len(set(dims)) != len(dims):
        raise _UsageError(f"--dims must not repeat a dimension, got {args.dims!r}")
    if not (math.isfinite(args.tolerance_scale) and args.tolerance_scale > 0.0):
        raise _UsageError(f"--tolerance-scale must be finite and positive, got {args.tolerance_scale}")
    report = run_invariant_suite(seed=args.seed, dims=dims, tolerance_scale=args.tolerance_scale)
    print(report.format())
    return EXIT_OK if report.passed else EXIT_FAILURE


def _cmd_rabi(args) -> int:
    max_points = MAX_GRID_CELLS // len(RABI_COLUMNS)
    if not 1 <= args.points <= max_points:
        raise _UsageError(
            f"--points must lie between 1 and MAX_GRID_CELLS / {len(RABI_COLUMNS)} = {max_points}, got {args.points}"
        )
    if not math.isfinite(args.t_max):
        raise _UsageError(f"--t-max must be finite, got {args.t_max}")
    try:
        system = SpinHalfSystem(delta=args.delta, coupling=args.omega)
        times = np.linspace(0.0, args.t_max, args.points)
        populations = rabi_populations(system, times)
    except DomainError as exc:
        raise _UsageError(str(exc)) from None
    write_csv(sys.stdout, "rabi", RABI_COLUMNS, np.column_stack((times, *populations)))
    return EXIT_OK


def _cmd_basis_check(args) -> int:
    if not 2 <= args.lattice_n <= MAX_DIMENSION:
        raise _UsageError(f"--lattice-n must lie between 2 and MAX_DIMENSION = {MAX_DIMENSION}, got {args.lattice_n}")
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


# Each command raises what it cannot do; main alone turns that into an exit code.
_COMMANDS = {
    "verify": _cmd_verify,
    **dict.fromkeys(_SCENARIO_RUNS, _cmd_scenario),
    "rabi": _cmd_rabi,
    "basis-check": _cmd_basis_check,
}


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor, if it has one, at os.devnull, so that the interpreter's flush at exit
    writes what stdout still buffers without a second error. A StringIO has none and is left alone."""
    try:
        fd = sys.stdout.fileno()
    except (OSError, ValueError):
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    try:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit:  # -h and --version print to stdout and exit inside parse_args
            sys.stdout.flush()
            raise
        code = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except (_UsageError, ScenarioParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (ScenarioValidationError, DomainError, ShapeError, NumericalError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAILURE
    except OSError as exc:
        # every file a command opens turns its own OSError into a _UsageError, so this one is stdout's:
        # a closed pipe (BrokenPipeError) or a full device
        _stdout_to_devnull()
        print(f"error: cannot write stdout: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
