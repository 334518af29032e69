"""Spans around calls into each layer of moyal_lab, installed from outside.

``Tracer.install`` wraps the public functions listed in ``LAYERS`` and
rebinds every name that refers to them in every ``moyal_lab.*`` module
namespace, so calls between modules are traced as well as the
benchmark's own calls.  It also wraps ``Operator.__matmul__`` (a span per
product) and ``Operator.__init__`` (a count and computed bytes,
16 * dim^2 per operator, with no span).  The package source is not
modified; ``uninstall`` restores the original objects.

A span is ``[name, start, end, parent, request_id, note]``.  Spans stay in
memory for the life of the tracer; ``layer_metrics`` reduces those
recorded since the last ``reset``.  A span's self time is its
duration minus the durations of its direct children; calls are nested on
one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

# layer name -> (module, traced functions)
LAYERS = {
    "operator_core.eig": ("operator_core", ("hermitian_eigvals", "hermitian_eig")),
    "operator_core.expm": ("operator_core", ("expm",)),
    "moyal_rep.build_rep": ("moyal_rep", ("build_rep",)),
    "oscillator_models.hamiltonian": (
        "oscillator_models", ("h_commutative", "h1", "h2", "h3", "zeeman_decomposition"),
    ),
    "spectra_harness": (
        "spectra_harness",
        ("build_model", "trusted_level_count", "diagonalize_compare", "convergence_study", "ground_overlap"),
    ),
    "schwinger_su2.generators": (
        "schwinger_su2", ("schwinger_commutative", "schwinger_from_ladders", "schwinger_noncommutative"),
    ),
    "schwinger_su2.rotation": (
        "schwinger_su2",
        ("rotation_matrix", "conjugate_by_rotation", "covariance_residual", "position_noncovariance"),
    ),
    "bogoliubov_flow.flow": ("bogoliubov_flow", ("ground_state_unitary", "dilatation_unitary")),
    "bogoliubov_flow.closed": ("bogoliubov_flow", ("ground_state_closed",)),
    "symmetry_lab": ("symmetry_lab", ("theta_apply", "theta_conjugate", "su2_commutant", "time_reversal_suite")),
    "cli": ("cli", ("main",)),
}
MATMUL = "operator_core.matmul"


def _dim(args, result):
    return args[0].dim


# Values recorded on a span from the call's arguments and result.
NOTES = {
    "hermitian_eigvals": _dim,
    "hermitian_eig": _dim,
    "expm": _dim,
    # (levels compared, levels computed)
    "diagonalize_compare": lambda args, report: (report.compared_levels, report.N**2),
}


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.request_id = -1
        self.operators = 0
        self.operator_bytes = 0
        self._first = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name.rpartition(".")[2])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.request_id, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(args, result)
                return result
            finally:
                span[2] = perf_counter()
                stack.pop()

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "moyal_lab"]
        for module_name, funcs in LAYERS.values():
            source = sys.modules[f"moyal_lab.{module_name}"]
            for func in funcs:
                original = getattr(source, func)
                traced = self._wrap(f"{module_name}.{func}", original)
                for module in modules:
                    for attr in [a for a, v in vars(module).items() if v is original]:
                        self._rebind(module, attr, traced)

        operator = sys.modules["moyal_lab.operator_core"].Operator
        init = operator.__init__

        def counted_init(op, mat):
            init(op, mat)
            self.operators += 1
            self.operator_bytes += 16 * op.dim**2

        self._rebind(operator, "__init__", counted_init)
        self._rebind(operator, "__matmul__", self._wrap(MATMUL, operator.__matmul__))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    def reset(self) -> None:
        """Start a new measurement; earlier spans are kept."""
        self._first = len(self.spans)
        self.operators = 0
        self.operator_bytes = 0

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer counts and self times of the spans recorded so far.

        Keys are ``<layer>.calls`` and ``<layer>.self_s`` for every layer,
        ``<module>.<function>.calls`` for every traced function, the
        largest operator dimension given to ``eig`` and ``expm``, the
        operator count and bytes, and the trusted fraction of the levels
        computed by ``diagonalize_compare``.
        """
        first = self._first
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent - first] += end - start
        layer_of = {MATMUL: MATMUL}
        for layer, (module_name, funcs) in LAYERS.items():
            layer_of.update({f"{module_name}.{f}": layer for f in funcs})
        calls = dict.fromkeys(list(LAYERS) + [MATMUL], 0)
        self_s = dict.fromkeys(calls, 0.0)
        func_calls = dict.fromkeys(layer_of, 0)
        dim_max = {"operator_core.eig": 0, "operator_core.expm": 0}
        compared = computed = 0
        for (name, start, end, _, _, note), children in zip(spans, child_time):
            layer = layer_of[name]
            calls[layer] += 1
            self_s[layer] += end - start - children
            func_calls[name] += 1
            if layer in dim_max:
                dim_max[layer] = max(dim_max[layer], note)
            elif name == "spectra_harness.diagonalize_compare":
                compared += note[0]
                computed += note[1]
        out = {f"{name}.calls": n for name, n in func_calls.items()}
        for layer in calls:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        for layer, dim in dim_max.items():
            out[f"{layer}.dim_max"] = dim
        out["operator_core.operator.count"] = self.operators
        out["operator_core.operator.bytes"] = self.operator_bytes
        out["spectra_harness.trusted_fraction"] = compared / computed if computed else 0.0
        return out
