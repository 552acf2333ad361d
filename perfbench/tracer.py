"""Spans and work counts around the package's public functions, from outside.

``install`` wraps every public function of every ``coupledsusy`` module and
rebinds the wrapper under each name that holds the function in any module
of the package.  Modules such as ``towers`` and ``spectral`` import
``calculus`` functions with ``from .calculus import ...``; without the
rebinding those nested calls would escape the trace.

A span is ``[name, start, end, parent index, op id]``.  Spans stay in
memory and are written out when the worker ends.  Self time is a span's
duration minus the durations of its direct children (calls nest, so the
children cover disjoint parts of the parent).
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

PACKAGE = "coupledsusy"

#: Gamma evaluations that may escalate their working precision.
EVALUATORS = ("calculus.evaluate_gamma_vector", "calculus.definitely_nonzero")
MP_EVALUATION = "calculus.evaluate_gamma_vector_mp"


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _verify_monomials(args, kwargs, reports):
    return sum(r.checked for r in reports)


def _fd_grid_points(args, kwargs, report):
    grid = report.details["grid_count"]
    return grid + (grid // 2 if report.details["refined"] else 0)


#: wrapped function -> (counter name, count from (args, kwargs, result))
COUNTERS = {
    "calculus.apply_generator": (
        "calculus.apply_generator.terms",
        lambda a, k, r: len(_arg(a, k, 2, "state").terms),
    ),
    "calculus.inner_product": (
        "calculus.inner_product.term_pairs",
        lambda a, k, r: len(_arg(a, k, 0, "f").terms) * len(_arg(a, k, 1, "g").terms),
    ),
    "calculus.evaluate_gamma_vector_mp": (
        "calculus.evaluate_gamma_vector_mp.bits",
        lambda a, k, r: _arg(a, k, 1, "prec_bits", 113),
    ),
    "systems.verify_coupled_susy": ("systems.verify.monomials", _verify_monomials),
    "systems.verify_su11": ("systems.verify.monomials", _verify_monomials),
    "spectral.build_galerkin": ("spectral.build_galerkin.entries", lambda a, k, r: 2 * r.size ** 2),
    "spectral.solve_generalized": (
        "spectral.solve_generalized.basis_size",
        lambda a, k, r: _arg(a, k, 0, "problem").size,
    ),
    "spectral.fd_spectrum": ("spectral.fd_spectrum.grid_points", _fd_grid_points),
    "coherent.coherent_state": ("coherent.coherent_state.terms", lambda a, k, r: len(r.coefficients)),
    "reports.dumps": ("reports.dumps.bytes", lambda a, k, r: len(r.encode())),
}


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(int)  # (op id, counter) -> value
        self.count_errors = defaultdict(int)

    def wrap(self, name, fn):
        counter = COUNTERS.get(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counter is not None:
                # a renamed attribute must not break the run it is counting
                try:
                    self.counts[(self.op, counter[0])] += counter[1](args, kwargs, result)
                except (AttributeError, KeyError, TypeError):
                    self.count_errors[counter[0]] += 1
            return result

        return traced

    def install(self) -> int:
        """Wrap and rebind every public package function; returns how many."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        }
        wrappers = {}
        for mod_name, mod in modules.items():
            if mod_name == PACKAGE:
                continue
            layer = mod_name.split(".", 1)[1]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == mod_name):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(mod, attr, wrappers[obj])
        return len(wrappers)

    def aggregate(self) -> dict:
        """Per-name calls, total and self time; per-op counts; Gamma first-try share."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        by_name = {}
        per_op = defaultdict(lambda: defaultdict(int))
        mp_children = defaultdict(int)
        for i, (name, start, end, parent, op) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child[i]
            per_op[op]["calls:" + name] += 1
            if name == MP_EVALUATION and parent >= 0 and spans[parent][0] in EVALUATORS:
                mp_children[parent] += 1
        evaluations = first_try = 0
        for i, (name, _, _, parent, _) in enumerate(spans):
            if name in EVALUATORS and mp_children[i]:  # a structural zero is never evaluated
                evaluations += 1
                first_try += mp_children[i] == 1
            elif name == MP_EVALUATION and not (parent >= 0 and spans[parent][0] in EVALUATORS):
                evaluations += 1  # a fixed-precision evaluation is accepted as it is
                first_try += 1
        counters = defaultdict(int)
        for (op, name), value in self.counts.items():
            per_op[op][name] += value
            counters[name] += value
        return {
            "functions": by_name,
            "counters": dict(counters),
            "count_errors": dict(self.count_errors),
            "evaluations": evaluations,
            "evaluations_first_try": first_try,
            "per_op": {str(op): dict(sorted(c.items())) for op, c in per_op.items()},
            "spans": len(spans),
        }

    def write(self, path: str):
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
