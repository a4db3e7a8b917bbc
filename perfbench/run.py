"""entrodyn benchmark: one workload in one single-threaded process.

Usage (from the repository root):
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is driven only through ``entrodyn.cli.main``, imported from
``src/`` of this checkout. A pass is all of the workload's commands. After an
untimed warm-up pass, passes repeat until ``--seconds`` have elapsed.

--trace 0  times passes with tracing off and reports the end-to-end metrics
           (set-up time, pass time, throughput, peak memory). Times are
           scaled to a reference host speed by perfbench/calibrate.py.
--trace 1  spends half the time on untraced passes and half on traced ones,
           and reports the per-layer metrics plus the tracing overhead.

Every command's outputs are checked: exit code, the summary's or verify's own
verdicts, the CSV against an independent LAPACK reference, and byte-identity
with the warm-up pass. Human-readable lines come first; the last line of
stdout is the JSON result. A full report (environment block, every pass
time) and, for traced runs, the spans of the last traced pass are written to
``.perfbench_out/``. See perfbench/README.md for what each number means.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy is first imported: LAPACK
# timings jump around with threading on small matrices.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters timed for setup_s before the passes, and as many after
# them, so the median spans the run's drift in machine speed.
SETUP_PROBES = 6
# Tail percentile of pass_s: the highest one with this many passes beyond it.
TAIL_PASSES = 10


def load_cli():
    """Import entrodyn.cli from this checkout's src/, never from elsewhere."""
    if not (SRC / "entrodyn" / "cli.py").is_file():
        raise SystemExit(f"error: {SRC / 'entrodyn'} not found; run from the repository root")
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("entrodyn.cli")
    if Path(cli.__file__).resolve().parent != SRC / "entrodyn":
        raise SystemExit(f"error: entrodyn was imported from {cli.__file__}, not {SRC}")
    return cli


def environment() -> dict:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict form
        blas = {}
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "platform": platform.platform(),
    }


def setup_times(documents: list, count: int, meter=None) -> None:
    """Time ``count`` fresh interpreters that import entrodyn and parse +
    resolve the documents (none for verify_suite: import only), each under
    ``meter``'s key "setup"; without a meter the probes are untimed."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *documents]
    if meter is not None:
        meter.begin()
    for _ in range(count):
        start = time.perf_counter()
        done = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
        elapsed = time.perf_counter() - start
        if done.returncode != 0:
            raise SystemExit(f"error: set-up probe failed ({done.returncode}):\n{done.stderr}")
        if meter is not None:
            meter.record("setup", elapsed)


def run_pass(cli, workload, workdir: str, meter=None) -> tuple:
    """(wall seconds, [(exit code, stdout, csv text, summary text)] per command).

    Each command is timed on its own; with a ``meter``, under its index.
    """
    argvs = [workload.argv(i, workdir) for i in range(len(workload.commands))]
    captured = []
    elapsed = 0.0
    for index, argv in enumerate(argvs):
        buffer = io.StringIO()
        gc.collect()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buffer):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crashing command is a failed command, not a crashed benchmark
                traceback.print_exc()
                code = "exception"
        took = time.perf_counter() - start
        elapsed += took
        if meter is not None:
            meter.record(index, took)
        captured.append((code, buffer))
    outputs = []
    for i, (code, buffer) in enumerate(captured):
        files = [_read(path) for path in workload.output_files(i, workdir)]
        outputs.append((code, buffer.getvalue(), *files))
    return elapsed, outputs


def _read(path):
    if path is None:
        return None
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError:
        return None


class Ledger:
    """Command verdicts. The warm-up pass's outputs are checked against the
    reference once, after timing; every later pass must reproduce them byte
    for byte and exit 0."""

    def __init__(self, workload):
        self.workload = workload
        self.first = None
        self.passes = []  # per pass: [exit code and byte-identity problems per command]

    def record(self, outputs: list) -> None:
        if self.first is None:
            self.first = outputs
        problems = []
        for command, out, first in zip(self.workload.commands, outputs, self.first):
            if out[0] != 0:
                problems.append([f"{command.kind} exited with {out[0]!r}"])
            elif out != first:
                problems.append([f"{command.kind} output differs from the warm-up pass"])
            else:
                problems.append([])
        self.passes.append(problems)

    def verdict(self) -> tuple:
        """(attempted, failed, first few problems), running the reference check."""
        reference = [
            workloads.check_command(command, *out) for command, out in zip(self.workload.commands, self.first)
        ]
        attempted = failed = 0
        notes = []
        for index, problems in enumerate(self.passes):
            for command, own, ref in zip(self.workload.commands, problems, reference):
                attempted += 1
                found = own or ref
                failed += bool(found)
                notes.extend(f"pass {index} {command.kind}: {p}" for p in found[:2])
        return attempted, failed, notes[:10]

    def output_rows(self) -> int:
        return sum(workloads.output_rows(c, out[1]) for c, out in zip(self.workload.commands, self.first))


def timed_passes(cli, workload, workdir: str, seconds: float, ledger: Ledger, tracer=None, meter=None) -> tuple:
    """Passes until ``seconds`` elapse: (pass times, per-pass layer metrics, eig durations by dim)."""
    times, layers, eig = [], [], {}
    if meter is not None:
        meter.begin()
    start = time.perf_counter()
    deadline = start + seconds
    # Start another pass only if it would end nearer the deadline than stopping
    # now does, so the passes (with their calibration) last about ``seconds``.
    while not times or time.perf_counter() + (time.perf_counter() - start) / len(times) / 2 <= deadline:
        if tracer is not None:
            tracer.reset()
        elapsed, outputs = run_pass(cli, workload, workdir, meter)
        times.append(elapsed)
        ledger.record(outputs)
        if tracer is not None:
            metrics, durations = tracer.pass_metrics(workload.scenario_points)
            layers.append(metrics)
            for dim, values in durations.items():
                eig.setdefault(dim, []).extend(values)
    return times, layers, eig


def describe(times: list) -> dict:
    ordered = sorted(times)
    out = {"passes": len(times), "median_s": statistics.median(times), "min_s": ordered[0], "max_s": ordered[-1]}
    if len(times) >= 2:
        q1, _, q3 = statistics.quantiles(times, n=4)
        out.update(q1_s=q1, q3_s=q3)
    if len(times) > TAIL_PASSES:
        rank = len(times) - TAIL_PASSES - 1
        out[f"p{100 * (rank + 1) // len(times)}_s"] = ordered[rank]
    return out


def reference_pass_s(meter, commands: int) -> float:
    """A pass at reference speed: the sum over its commands of each command's
    median scaled time."""
    return sum(statistics.median(meter.scaled[i]) for i in range(commands))


def layer_metrics(layers: list, eig: dict, untraced_pass_s: float, traced_pass_s: float) -> dict:
    names = sorted({name for metrics in layers for name in metrics})
    out = {name: statistics.median(m.get(name, 0.0) for m in layers) for name in names}
    for dim, values in eig.items():
        out[f"linalg.hermitian_eig.p50_us.n{dim}"] = statistics.median(values) * 1e6
    out["trace.untraced_pass_s"] = untraced_pass_s
    out["trace.traced_pass_s"] = traced_pass_s
    out["trace.overhead_ratio"] = out["trace.traced_pass_s"] / out["trace.untraced_pass_s"]
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    cli = load_cli()
    workload = workloads.build(args.workload, args.seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "environment": env}

    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        documents = workload.write_documents(workdir)
        ledger = Ledger(workload)
        meter = calibrate.Meter()
        if args.trace == 0:
            setup_times(documents, 1)  # untimed: fills the bytecode and file caches
            setup_times(documents, SETUP_PROBES, meter)
        _, outputs = run_pass(cli, workload, workdir)  # warm-up; its outputs are the reference copy
        ledger.record(outputs)
        if args.trace == 0:
            times, _, _ = timed_passes(cli, workload, workdir, args.seconds, ledger, meter=meter)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            setup_times(documents, SETUP_PROBES, meter)
            pass_s = reference_pass_s(meter, len(workload.commands))
            metrics = {
                "setup_s": statistics.median(meter.scaled["setup"]),
                "pass_s": pass_s,
                "points_per_s": ledger.output_rows() / pass_s,
                "peak_rss_mb": peak_rss_mb,
            }
            report.update(
                passes=describe(times),
                pass_times_s=times,
                host_slowdown=meter.speed(),
                calibration_readings_s=meter.readings,
                scaled_s={str(key): values for key, values in meter.scaled.items()},
                setup_times_s=meter.raw["setup"],
            )
        else:
            traced_meter = calibrate.Meter()
            untraced, _, _ = timed_passes(cli, workload, workdir, args.seconds / 2, ledger, meter=meter)
            tracer = tracing.Tracer()
            with tracer.installed():
                traced, layers, eig = timed_passes(
                    cli, workload, workdir, args.seconds / 2, ledger, tracer, meter=traced_meter
                )
            np.savez_compressed(OUT / f"{args.workload}-seed{args.seed}-spans.npz", **tracer.spans())
            commands = len(workload.commands)
            metrics = layer_metrics(
                layers, eig, reference_pass_s(meter, commands), reference_pass_s(traced_meter, commands)
            )
            report["passes"] = {"untraced": describe(untraced), "traced": describe(traced)}
        attempted, failed, problems = ledger.verdict()

    declared = spec["per_layer" if args.trace else "end_to_end"]
    result = {m["name"]: {"value": float(metrics.get(m["name"], 0.0)), "unit": m["unit"]} for m in declared}
    report.update(attempted=attempted, failed=failed, problems=problems, metrics=result)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(workload.commands)} command(s) per pass")
    blas = env["blas"]
    print(
        f"environment: python {env['python']}, numpy {env['numpy']}, "
        f"blas {blas.get('name', 'unknown')} {blas.get('version', '')}, nproc {env['nproc']}, threads {env['threads']}"
    )
    for name, entry in result.items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(f"passes (wall time): {json.dumps(report['passes'])}")
    if "host_slowdown" in report:
        print(f"host slowdown against the calibration reference: {report['host_slowdown']:.3f}x")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed}/{attempted} commands)")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
