"""Per-layer tracing of qspecht from the outside, for traced passes only.

The hooks wrap public module functions and the exported classes
`LaurentScalar`, `CyclotomicScalar`, `Tableau` and `Matrix`, and rebind every
name under which a `qspecht` module holds the wrapped function (for example
`roots.kernel` and `cli.defining_relation_checks`).  No private state of the
package is read, so the hooks keep working when the internals change; a hook
whose target is gone is skipped and its metrics read 0.

Two kinds of hook:

* spans, at layer boundaries: name, start, end, parent span and job index,
  kept in memory and handed back when the pass ends.  A span's self time is
  its duration minus the time its child spans cover;
* counters, on hot scalar and tableau operations, which are too frequent
  for spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter

# (module, function) pairs that get a span; the first group carries metrics,
# the rest are the other public functions the workloads reach, and only take
# their time out of their callers' self time.
SPAN_FUNCTIONS = (
    ("combinat", "enumerate_standard"),
    ("specht", "generator_matrix"),
    ("specht", "annihilator_matrix"),
    ("specht", "annihilator_checks"),
    ("linalg", "kernel"),
    ("roots", "find_submodule_generators"),
    ("roots", "submodule_dimension"),
    ("cli", "main"),
    ("specht", "defining_relation_checks"),
    ("specht", "generator_relation_checks"),
    ("linalg", "vstack"),
    ("roots", "analyze"),
    ("roots", "enumerate_p_root_standard"),
)

# (module, class, method names, counter)
COUNTED_METHODS = (
    ("scalar", "LaurentScalar", ("__mul__", "__rmul__"), "laurent_mul"),
    ("scalar", "LaurentScalar", ("__add__", "__radd__"), "laurent_add"),
    ("scalar", "CyclotomicScalar", ("__init__",), "cyclo_new"),
    ("scalar", "CyclotomicScalar", ("__mul__", "__rmul__"), "cyclo_mul"),
    ("scalar", "CyclotomicScalar", ("inverse",), "cyclo_inverse"),
    ("combinat", "Tableau", ("__init__",), "tableau_new"),
)


class Tracer:
    """Span and counter store of one traced pass."""

    def __init__(self):
        self.counts: Counter = Counter()
        # span records: [name, start, end, child_time, parent index, job]
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.job = -1

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [name, time.perf_counter(), 0.0, 0.0, parent, self.job]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list):
        """End a span.  The parent counts everything up to now as child time,
        so the hook's own work is charged to no layer."""
        self._stack.pop()
        parent = record[4]
        if parent is not None:
            self.spans[parent][3] += time.perf_counter() - record[1]

    def span(self, name: str, fn, after=None):
        """Wrap `fn` in a span; `after(tracer, args, result)` counts outputs
        once the span has ended."""
        def wrapper(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
                record[2] = time.perf_counter()
                if after is not None:
                    after(self, args, result)
            finally:
                record[2] = record[2] or time.perf_counter()
                self._close(record)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_times(self) -> dict[str, float]:
        out: Counter = Counter()
        for name, start, end, child, _, _ in self.spans:
            out[name] += (end - start) - child
        return dict(out)

    def summary(self) -> dict:
        calls = Counter(record[0] for record in self.spans)
        return {"counts": dict(self.counts), "self_s": self.self_times(),
                "calls": dict(calls)}


def _count_generator_matrix(tracer: Tracer, args, result):
    tracer.counts["generator_matrix_calls"] += 1
    tracer.counts["matrix_nnz"] += sum(1 for row in result.entries for x in row if x)


def _count_kernel(tracer: Tracer, args, result):
    m = args[0]
    tracer.counts["kernel_calls"] += 1
    tracer.counts["kernel_cells"] += m.rows * m.cols


def _count_oracle(tracer: Tracer, args, result):
    tracer.counts["oracle_candidates"] += 1
    if result:
        tracer.counts["oracle_hits"] += 1


AFTER = {
    ("specht", "generator_matrix"): _count_generator_matrix,
    ("linalg", "kernel"): _count_kernel,
    ("roots", "find_submodule_generators"): _count_oracle,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "qspecht" or name.startswith("qspecht."))]


def _rebind(original, replacement):
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(package) -> Tracer:
    """Wrap the layer boundaries of an imported `qspecht` package."""
    tracer = Tracer()
    modules = {name: getattr(package, name, None)
               for name in ("scalar", "combinat", "linalg", "specht", "roots", "cli")}
    for module_name, fn_name in SPAN_FUNCTIONS:
        original = getattr(modules[module_name], fn_name, None)
        if original is None:
            continue
        after = AFTER.get((module_name, fn_name))
        _rebind(original, tracer.span(f"{module_name}.{fn_name}", original, after))

    matrix = getattr(modules["linalg"], "Matrix", None)
    if matrix is not None:
        mul = matrix.__mul__
        matmul = tracer.span("linalg.matmul", mul)

        def traced_mul(self, other):
            return matmul(self, other) if isinstance(other, matrix) else mul(self, other)

        matrix.__mul__ = traced_mul
        matrix.__eq__ = tracer.span("linalg.mat_eq", matrix.__eq__)

    for module_name, class_name, methods, key in COUNTED_METHODS:
        cls = getattr(modules[module_name], class_name, None)
        for method in methods:
            if cls is not None and method in vars(cls):
                setattr(cls, method, tracer.counter(key, vars(cls)[method]))
    return tracer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(summary: dict) -> dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name."""
    counts, self_s, calls = summary["counts"], summary["self_s"], summary["calls"]

    def count(key):
        return counts.get(key, 0)

    def seconds(name):
        return self_s.get(name, 0.0)

    return {
        "scalar.laurent_mul": count("laurent_mul"),
        "scalar.laurent_add": count("laurent_add"),
        "scalar.cyclo_new": count("cyclo_new"),
        "scalar.cyclo_mul": count("cyclo_mul"),
        "scalar.cyclo_inverse": count("cyclo_inverse"),
        "combinat.tableau_new": count("tableau_new"),
        "combinat.enumerate_standard_s": seconds("combinat.enumerate_standard"),
        "specht.generator_matrix_s": seconds("specht.generator_matrix"),
        "specht.generator_matrix_calls": count("generator_matrix_calls"),
        "specht.matrix_nnz": count("matrix_nnz"),
        "specht.annihilator_matrix_s": seconds("specht.annihilator_matrix"),
        "specht.annihilator_checks_s": seconds("specht.annihilator_checks"),
        "linalg.matmul_s": seconds("linalg.matmul"),
        "linalg.matmul_calls": calls.get("linalg.matmul", 0),
        "linalg.mat_eq_s": seconds("linalg.mat_eq"),
        "linalg.kernel_s": seconds("linalg.kernel"),
        "linalg.kernel_calls": count("kernel_calls"),
        "linalg.kernel_cells": count("kernel_cells"),
        "roots.find_submodule_s": seconds("roots.find_submodule_generators"),
        "roots.closure_s": seconds("roots.submodule_dimension"),
        "roots.oracle_candidates": count("oracle_candidates"),
        "roots.oracle_hits": count("oracle_hits"),
        "roots.oracle_hit_ratio": _ratio(count("oracle_hits"), count("oracle_candidates")),
        "cli.main_s": seconds("cli.main"),
    }
