"""Smoke test of the benchmark at tiny sizes: the BENCHMARK.json schema, the
output checker (with a negative control) and the tracer. No timing is
asserted.

Run from the repository root: python3 -m pytest -q perfbench
"""

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins the BLAS threads before numpy is imported)
import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

CLI = run.load_cli()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def tiny_pass(name, directory, passes=1):
    workload = workloads.build(name, seed=3, size="tiny")
    workload.write_documents(str(directory))
    ledger = run.Ledger(workload)
    for _ in range(passes):
        _, outputs = run.run_pass(CLI, workload, str(directory))
        ledger.record(outputs)
    return workload, ledger


def test_benchmark_json_schema():
    assert (run.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["command"] == ["python3", "perfbench/run.py"]
    assert SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower"}.items() <= next(
        m for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    ).items()
    assert max(m["bound"] for m in SPEC["end_to_end"]) == next(
        m["bound"] for m in SPEC["end_to_end"] if m["name"] == "setup_s"
    )
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    entries = SPEC["workloads"] + SPEC["end_to_end"] + SPEC["per_layer"]
    names = [e["name"] for e in entries]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(m["unit"]) and m["better"] in ("higher", "lower")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_clean_passes_are_accepted(name, tmp_path):
    workload, ledger = tiny_pass(name, tmp_path, passes=2)
    attempted, failed, problems = ledger.verdict()
    assert attempted == 2 * len(workload.commands)
    assert failed == 0, problems
    assert ledger.output_rows() > 0


def test_negative_control_perturbed_entropy_is_rejected(tmp_path):
    workload, _ = tiny_pass("dense_entropy", tmp_path)
    code, stdout, csv_text, summary = run.run_pass(CLI, workload, str(tmp_path))[1][0]
    lines = csv_text.split("\n")
    row = lines[4].split(",")
    assert lines[1].split(",")[1] == "entropy"
    row[1] = repr(float(row[1]) + 1e-6)
    lines[4] = ",".join(row)
    corrupted = "\n".join(lines)

    problems = workloads.check_command(workload.commands[0], code, stdout, corrupted, summary)
    assert any("entropy" in p for p in problems), problems
    ledger = run.Ledger(workload)
    ledger.record([(code, stdout, corrupted, summary)])
    attempted, failed, _ = ledger.verdict()
    assert (attempted, failed) == (1, 1)


def test_output_changing_between_passes_fails(tmp_path):
    workload, ledger = tiny_pass("spin_grid", tmp_path)
    _, outputs = run.run_pass(CLI, workload, str(tmp_path))
    code, stdout, csv_text, summary = outputs[0]
    outputs[0] = (code, stdout, csv_text, summary.replace('"passed": true', '"passed": true '))
    ledger.record(outputs)
    attempted, failed, problems = ledger.verdict()
    assert (attempted, failed) == (4, 1)
    assert "differs from the warm-up pass" in problems[0]


def test_tracer_covers_declared_layer_metrics_and_restores_bindings(tmp_path):
    declared = {m["name"] for m in SPEC["per_layer"]}
    original_main, original_checks = CLI.main, sys.modules["entrodyn.invariants"]._CHECKS
    produced = set()
    ratios = {}
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, seed=3, size="tiny")
        workload.write_documents(str(tmp_path))
        tracer = tracing.Tracer()
        with tracer.installed():
            run.run_pass(CLI, workload, str(tmp_path))
        metrics, durations = tracer.pass_metrics(workload.scenario_points)
        out = run.layer_metrics([metrics], durations, 1.0, 1.5)
        produced |= set(out)
        ratios[name] = out["linalg.hermitian_eig.repeat_ratio"]
        assert out["cli.main.calls"] == len(workload.commands)
    assert CLI.main is original_main
    assert sys.modules["entrodyn.invariants"]._CHECKS is original_checks

    # tiny sizes reach other eigensolver dimensions than full ones
    per_dim = re.compile(r"linalg\.hermitian_eig\.p50_us\.n\d+")
    assert {n for n in declared if not per_dim.fullmatch(n)} <= produced
    # rabi diagonalises the evolve command's H again at every point
    assert ratios["spin_grid"] > 0.4 and ratios["verify_suite"] > 0.0


def test_meter_scales_by_the_readings_around_each_unit(monkeypatch):
    readings = iter([1.0, 3.0, 2.0])
    monkeypatch.setattr(calibrate, "reading", lambda: readings.__next__() * calibrate.REFERENCE_S)
    meter = calibrate.Meter()
    meter.begin()
    meter.record("a", 4.0)  # host at 2x (mean of 1x and 3x): 2 s at reference speed
    meter.record("a", 5.0)  # host at 2.5x: 2 s
    assert meter.scaled == {"a": [pytest.approx(2.0), pytest.approx(2.0)]}
    assert meter.raw == {"a": [4.0, 5.0]}
    assert meter.speed() == pytest.approx(2.0)


def test_calibration_kernel_is_fixed_work():
    assert calibrate.kernel() == calibrate.kernel()
    assert calibrate.reading() > 0.0
