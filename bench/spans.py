"""Per-layer tracing from outside the program.

:class:`Tracer` replaces chosen public functions of the package with
wrappers that record a span (name, start, end, parent) and read counters
from arguments and results.  A function is wrapped wherever the package
looks it up: every module global bound to it, or the class attribute for a
method.  Spans stay in memory; :meth:`Tracer.dump` writes them out.  A
span's self time is its duration minus its children's.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

PACKAGE = "contextuality"


def _bits(values) -> int:
    """Largest numerator or denominator bit length among exact values."""
    best = 0
    for x in values or ():
        x = Fraction(x)
        best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


def _on_build(tracer, args, result):
    tracer.count("analysis.rows", result.rows)
    tracer.count("analysis.columns", result.cols)
    tracer.count("analysis.matrix_entries", result.rows * result.cols)


def _on_feasibility(tracer, args, result):
    tracer.count("simplex.feasibility_pivots", result.pivots)
    tracer.bits(_bits(result.solution), _bits(result.certificate))
    tracer.to_verify.append((args[0], result))


def _on_minimize(tracer, args, result):
    tracer.count("simplex.minimize_pivots", result.pivots)
    tracer.bits(_bits(result.solution))


# (module, attribute, span name, result hook).  ``Class.method`` attributes
# are wrapped on the class.
TARGETS = (
    ("cli", "main", "cli.main", None),
    ("ingest", "parse_system", "ingest.parse_system", None),
    ("systems", "consistency_report", "systems.consistency_report", None),
    ("systems", "CCSystem.connections", "systems.connections", None),
    ("cyclic", "detect_cycles", "cyclic.detect_cycles", None),
    ("cyclic", "evaluate_criterion", "cyclic.evaluate_criterion", None),
    ("coupling", "maximal_coupling_diagonal", "coupling.maximal_coupling_diagonal", None),
    ("analysis", "outcome_space", "analysis.outcome_space", None),
    ("analysis", "build_associated_system", "analysis.build_associated_system", _on_build),
    ("analysis", "decide_contextuality", "analysis.decide_contextuality", None),
    ("analysis", "contextuality_measure", "analysis.contextuality_measure", None),
    ("simplex", "solve_feasibility", "simplex.solve_feasibility", _on_feasibility),
    ("simplex", "minimize", "simplex.minimize", _on_minimize),
)


class Tracer:
    """Spans and counters of the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []  # name, start, end, parent
        self.counters: dict[str, int] = defaultdict(int)
        self.to_verify: list = []  # (LinearSystem, FeasibilityResult) not yet verified
        self.verify_seconds = 0.0
        self._stack: list[int] = []
        self._restore: list = []

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] += amount

    def bits(self, *values: int) -> None:
        name = "simplex.witness_bits"
        self.counters[name] = max(self.counters[name], *values)

    def _wrap(self, fn, name, hook):
        tracer = self

        def wrapper(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append((name, 0.0, 0.0, parent))
            tracer._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[index] = (name, start, end, parent)
            tracer.count(name + ".calls")
            if hook is not None:
                hook(tracer, args, result)
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for module_name, attribute, name, hook in TARGETS:
            owner = sys.modules.get(f"{PACKAGE}.{module_name}")
            *path, leaf = attribute.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                continue
            wrapper = self._wrap(original, name, hook)
            if path:
                self._restore.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._restore.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    def verify_witnesses(self) -> bool:
        """Re-check each feasibility witness returned since the last call, timed."""
        start = time.perf_counter()
        ok = all(result.verify(system) for system, result in self.to_verify)
        self.verify_seconds += time.perf_counter() - start
        self.to_verify.clear()
        return ok

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += end - start - inner
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans],
                handle,
            )
