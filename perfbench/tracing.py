"""Layer spans recorded from outside the program.

``Tracer.install`` replaces each public layer function listed in ``LAYERS``
at every name it is bound to in the loaded ``modvalsim`` modules (``mat_exp``
is bound in ``numerics``, ``qubit_system``, ``pointer_states`` and
``measurement_engine``), so calls between modules are recorded too.
``Tracer.restore`` puts the originals back.  Spans stay in memory as
``(span_id, name, start_ns, end_ns, parent_id, op)`` tuples until the caller
writes them out.
"""

from __future__ import annotations

import inspect
import statistics
import sys
import time
from collections import defaultdict

#: (module, function) pairs wrapped in a traced run; a span is named
#: ``module.function``, except that ``mat_exp`` spans are split by size.
LAYERS = (
    ("numerics", "mat_exp"),
    ("pointer_states", "build_pointer"),
    ("qubit_system", "modular_value"),
    ("measurement_engine", "final_pointer_analytic"),
    ("measurement_engine", "final_pointer_oracle"),
    ("measurement_engine", "joint_evolution_operator"),
    ("observables", "number_distribution"),
    ("observables", "mandel_q"),
    ("observables", "quadrature_mean"),
    ("observables", "quadrature_second_moment"),
    ("observables", "snr"),
    ("sweep_cli", "main"),
    ("sweep_cli", "evaluate_point"),
    ("sweep_cli", "rows_to_csv"),
    ("sweep_cli", "write_csv"),
)

SPAN_NAMES = tuple(
    name for module, func in LAYERS
    for name in ((f"{module}.{func}.small", f"{module}.{func}.large")
                 if func == "mat_exp" else (f"{module}.{func}",))
)

BUILD_POINTER = "pointer_states.build_pointer"
MODULAR_VALUE = "qubit_system.modular_value"


def _mat_exp_name(args, kwargs) -> str:
    matrix = args[0] if args else kwargs["m"]
    return "numerics.mat_exp.small" if len(matrix) <= 2 else "numerics.mat_exp.large"


class Tracer:
    """Records nested spans and the distinct inputs of the layers that may repeat work."""

    def __init__(self):
        self.op = 0  # id of the request the next spans belong to
        self.spans: list[tuple] = []
        self.distinct: dict[str, set] = defaultdict(set)
        self.levels = 0  # Fock levels built by build_pointer
        self._stack: list[int] = []
        self._next_id = 0
        self._replaced: list[tuple] = []

    def _wrap(self, name: str, func):
        tracer = self
        stack = self._stack
        if name == BUILD_POINTER:
            default_dim = inspect.signature(func).parameters["dim"].default

        def traced(*args, **kwargs):
            span_name = _mat_exp_name(args, kwargs) if name == "numerics.mat_exp" else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = time.perf_counter_ns()
            try:
                return func(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                tracer.spans.append((span_id, span_name, start, end, parent, tracer.op))
                if name == BUILD_POINTER:
                    spec = args[0] if args else kwargs["spec"]
                    dim = args[1] if len(args) > 1 else kwargs.get("dim", default_dim)
                    tracer.distinct[name].add((spec, dim))
                    tracer.levels += dim
                elif name == MODULAR_VALUE:
                    tracer.distinct[name].add(args[0] if args else kwargs["sel"])

        traced.__wrapped__ = func
        return traced

    def install(self):
        """Wrap every ``LAYERS`` function at every name bound to it in ``modvalsim``."""
        if self._replaced:
            raise RuntimeError("tracer is already installed")
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None and (key == "modvalsim" or key.startswith("modvalsim."))]
        for module_name, func_name in LAYERS:
            original = getattr(sys.modules[f"modvalsim.{module_name}"], func_name)
            wrapper = self._wrap(f"{module_name}.{func_name}", original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._replaced.append((mod, attr, original))

    def restore(self):
        """Put every original function back where ``install`` replaced it."""
        for mod, attr, original in reversed(self._replaced):
            setattr(mod, attr, original)
        self._replaced = []


def self_times(spans) -> dict[int, int]:
    """Self time of each span in ns: its duration minus the time its direct children cover.

    Spans come from one thread, so the direct children of a span are disjoint
    intervals inside it and their durations add up.
    """
    own = {}
    for span_id, _name, start, end, _parent, _op in spans:
        own[span_id] = end - start
    for span_id, _name, start, end, parent, _op in spans:
        if parent in own:
            own[parent] -= end - start
    return own


def pass_layer_metrics(spans, ops: int, distinct: dict, levels: int) -> dict[str, float]:
    """Per-layer counts and self times of one pass of ``ops`` operations."""
    own = self_times(spans)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_ns = dict.fromkeys(SPAN_NAMES, 0)
    for span_id, name, *_ in spans:
        calls[name] += 1
        self_ns[name] += own[span_id]
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
    for name in ("numerics.mat_exp.small", BUILD_POINTER, MODULAR_VALUE):
        out[f"{name}.calls_per_op"] = calls[name] / ops
    for name in (BUILD_POINTER, MODULAR_VALUE):
        out[f"{name}.distinct_ratio"] = distinct.get(name, 0) / calls[name] if calls[name] else 0.0
    out[f"{BUILD_POINTER}.us_per_level"] = self_ns[BUILD_POINTER] / 1e3 / levels if levels else 0.0
    return out


#: Metrics that count work: they are taken from the first traced pass, whose
#: inputs depend on the seed alone, so they repeat exactly from run to run.
COUNT_SUFFIXES = (".calls", ".calls_per_op", ".distinct_ratio", ".bytes")


def combine_passes(per_pass: list[dict]) -> dict[str, float]:
    """Counts from the first pass, times as the median over passes."""
    out = {}
    for key in per_pass[0]:
        if key.endswith(COUNT_SUFFIXES):
            out[key] = per_pass[0][key]
        else:
            out[key] = statistics.median(p[key] for p in per_pass)
    return out
