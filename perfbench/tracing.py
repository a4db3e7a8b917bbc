"""Spans around the public functions of each entrodyn layer, for the traced run.

``Tracer.installed()`` replaces each traced function at every module-level
binding of that function object (``scenario``, ``ensembles``, ``dynamics``,
``invariants`` and ``cli`` import names directly, and ``invariants._CHECKS``
holds the check functions in a tuple), and restores the originals on exit.
Spans live in memory as parallel lists; ``pass_metrics`` reduces one pass's
spans to per-layer numbers.
"""

from __future__ import annotations

import contextlib
import hashlib
import sys
import time
import types

import numpy as np

# layer -> public functions whose calls become spans. "Class.method" names a
# method; the span is named after the method alone.
LAYER_FUNCTIONS = {
    "linalg": ("hermitian_eig", "expm_hermitian", "expm_oracle", "partial_trace", "require_hermitian"),
    "ensembles": ("von_neumann_entropy", "as_density_matrix"),
    "dynamics": (
        "evolve_density",
        "heisenberg_observable",
        "picture_equivalence",
        "expectation",
        "transition_probability_exact",
    ),
    "systems": ("lattice_hamiltonian", "rabi_populations"),
    "scenario": (
        "parse_scenario",
        "resolve_scenario",
        "run_scenario",
        "run_perturbation",
        "EvolutionReport.to_csv",
        "EvolutionReport.summary_json",
    ),
    "cli": ("main",),
}
EIG_SPAN = "linalg.hermitian_eig"
CHECK_PREFIX = "invariants.check."
SAMPLING_PREFIX = "sampling."
STEP_SPANS = ("scenario.run_scenario", "scenario.run_perturbation")


class Tracer:
    """In-memory span recorder. One instance per traced run; ``reset`` per pass."""

    def __init__(self):
        self._ids: dict = {}
        self.names: list = []
        self.reset()

    def reset(self) -> None:
        self.span_name: list = []
        self.start: list = []
        self.end: list = []
        self.parent: list = []
        self._stack: list = []
        # per hermitian_eig call: (span index, input dimension, repeated input?)
        self.eig_calls: list = []
        self._eig_inputs: set = set()

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.end)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0)
        self._stack.append(index)
        self.start.append(time.perf_counter_ns())
        return index

    def _close(self, index: int) -> None:
        self.end[index] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        name_id = self._intern(name)

        def traced(*args, **kwargs):
            index = self._open(name_id)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_eig(self, fn):
        name_id = self._intern(EIG_SPAN)

        def traced(h, *args, **kwargs):
            a = np.ascontiguousarray(h)
            key = (a.shape, a.dtype.str, hashlib.blake2b(a.tobytes(), digest_size=16).digest())
            repeated = key in self._eig_inputs
            self._eig_inputs.add(key)
            index = self._open(name_id)
            self.eig_calls.append((index, a.shape[0] if a.ndim else 0, repeated))
            try:
                return fn(h, *args, **kwargs)
            finally:
                self._close(index)

        return traced

    def wrap_check(self, fn):
        """A span named after the CheckResult the invariant check returns."""
        fallback = self._intern(CHECK_PREFIX + fn.__name__)

        def traced(*args, **kwargs):
            index = self._open(fallback)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            self.span_name[index] = self._intern(CHECK_PREFIX + result.name)
            return result

        return traced

    def _wrappers(self) -> tuple:
        """({original function: wrapper}, [(class, attribute, wrapper)])."""
        modules = {name: sys.modules[f"entrodyn.{name}"] for name in (*LAYER_FUNCTIONS, "sampling", "invariants")}
        functions: dict = {}
        methods: list = []
        for layer, names in LAYER_FUNCTIONS.items():
            for name in names:
                if "." in name:
                    cls_name, attr = name.split(".")
                    cls = getattr(modules[layer], cls_name)
                    methods.append((cls, attr, self.wrap(f"{layer}.{attr}", getattr(cls, attr))))
                    continue
                fn = getattr(modules[layer], name)
                span = f"{layer}.{name}"
                functions[fn] = self.wrap_eig(fn) if span == EIG_SPAN else self.wrap(span, fn)
        sampling = modules["sampling"]
        for name, fn in vars(sampling).items():
            if isinstance(fn, types.FunctionType) and not name.startswith("_") and fn.__module__ == sampling.__name__:
                functions[fn] = self.wrap(SAMPLING_PREFIX + name, fn)
        for check in modules["invariants"]._CHECKS:
            functions[check] = self.wrap_check(check)
        return functions, methods

    @contextlib.contextmanager
    def installed(self):
        """Trace every module-level binding of the layer functions while active."""
        functions, methods = self._wrappers()
        saved = []
        for module in [m for name, m in sys.modules.items() if name == "entrodyn" or name.startswith("entrodyn.")]:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in functions:
                    replacement = functions[value]
                elif isinstance(value, tuple) and any(
                    isinstance(v, types.FunctionType) and v in functions for v in value
                ):
                    replacement = tuple(
                        functions.get(v, v) if isinstance(v, types.FunctionType) else v for v in value
                    )
                else:
                    continue
                saved.append((module, attr, value))
                setattr(module, attr, replacement)
        for cls, attr, wrapper in methods:
            saved.append((cls, attr, getattr(cls, attr)))
            setattr(cls, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, value in reversed(saved):
                setattr(owner, attr, value)

    def spans(self) -> dict:
        """The current pass's spans as arrays (ns clock), for writing out."""
        return {
            "names": np.array(self.names),
            "span_name": np.array(self.span_name, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
        }

    def pass_metrics(self, scenario_points: int) -> tuple:
        """(per-layer metrics of the current pass, {eig dimension: [durations in s]})."""
        ids = np.array(self.span_name, dtype=np.int64)
        duration = np.array(self.end, dtype=np.int64) - np.array(self.start, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        inner = parent >= 0
        child_time = np.zeros(ids.size, dtype=np.int64)
        np.add.at(child_time, parent[inner], duration[inner])
        count = len(self.names)
        calls = np.bincount(ids, minlength=count)
        self_s = np.bincount(ids, weights=duration - child_time, minlength=count) / 1e9
        total_s = np.bincount(ids, weights=duration, minlength=count) / 1e9

        metrics: dict = {"sampling.self_s": 0.0}
        for i, name in enumerate(self.names):
            if name.startswith(CHECK_PREFIX):
                metrics[f"{name}.s"] = float(total_s[i])
            elif name.startswith(SAMPLING_PREFIX):
                metrics["sampling.self_s"] += float(self_s[i])
            else:
                metrics[f"{name}.calls"] = int(calls[i])
                metrics[f"{name}.self_s"] = float(self_s[i])
        step_s = sum(metrics.get(f"{span}.self_s", 0.0) for span in STEP_SPANS)
        metrics["scenario.step_us_per_point"] = step_s / scenario_points * 1e6 if scenario_points else 0.0

        eig_durations: dict = {}
        repeats = 0
        for index, dim, repeated in self.eig_calls:
            eig_durations.setdefault(dim, []).append(duration[index] / 1e9)
            repeats += repeated
        metrics[f"{EIG_SPAN}.repeat_ratio"] = repeats / len(self.eig_calls) if self.eig_calls else 0.0
        return metrics, eig_durations
