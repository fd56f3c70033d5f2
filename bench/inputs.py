"""The systems each workload analyzes, generated from the workload seed.

Every system is built with the program's own generators and written with
``serialize_system``; the program sees only these files.  The seed changes
cheap inputs (corpus masses, the rank-2 sweep, where a cycle's anticorrelated
context sits) and the order of a pass.  The systems that dominate a pass's
time in ``cycles`` and ``measure`` have fixed shapes and values, so run-to-run
spread reflects the program rather than the draw.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

F = Fraction


@dataclass(frozen=True)
class Case:
    """One system file and how the workload analyzes it."""

    name: str
    path: str
    measure: bool
    rank2_p: Fraction | None = None

    def argv(self) -> list[str]:
        flags = ["--measure"] if self.measure else []
        return ["analyze", self.path, *flags, "--witness", "--format", "json"]


def _anti_cycle(pkg, rank: int, correlation: Fraction, rng: random.Random):
    """Cycle with ``rank - 1`` correlations ``c`` and one ``-c`` at a seeded position."""
    values = [correlation] * rank
    values[rng.randrange(rank)] = -correlation
    return pkg.cyclic_system_from_correlations(values)


def _cycles(pkg, rng):
    """Consistently connected cycles: verdict LPs with 4^n columns."""
    out = []
    for n in range(3, 7):
        out.append((f"noncontextual-{n}", pkg.cyclic_system_from_correlations([F(1, 2)] * n)))
    for n in range(3, 8):
        out.append((f"contextual-{n}", _anti_cycle(pkg, n, F(9, 10), rng)))
    for n in range(3, 8):
        cosine = F(math.cos(math.pi / n)).limit_denominator(10**6)
        out.append((f"chained-bell-{n}", _anti_cycle(pkg, n, cosine, rng)))
    tsirelson = [0, math.pi / 4, math.pi / 2, -math.pi / 4]
    out.append(("epr-b", pkg.generate_epr_b(tsirelson, 10**6).system))
    return [(name, system, None) for name, system in out]


def _pair(shift: int, k: int = 3) -> dict:
    """Uniform bunch with the second value equal to the first plus ``shift`` mod k."""
    return {(v, (v + shift) % k): F(1, k) for v in range(k)}


def _tuples(sizes):
    return itertools.product(*(range(k) for k in sizes))


def _uniform(*sizes: int) -> dict:
    total = math.prod(sizes)
    return {value: F(1, total) for value in _tuples(sizes)}


def _mix(weight: Fraction, a: dict, b: dict) -> dict:
    keys = set(a) | set(b)
    return {k: weight * a.get(k, 0) + (1 - weight) * b.get(k, 0) for k in keys}


def _triangles(pkg):
    """Non-cyclic shapes: contextual, noncontextual and half-noise variants of each."""
    binary = [pkg.Content(q, 2) for q in ("q1", "q2", "q3")]
    binary_contexts = {
        "c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"], "c4": ["q1", "q2", "q3"],
    }
    ternary = [pkg.Content(q, 3) for q in ("q1", "q2", "q3")]
    ternary_contexts = {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"], "c4": ["q1"]}
    out = []
    for k, contents, contexts, extra in (
        (2, binary, binary_contexts, _uniform(2, 2, 2)),
        (3, ternary, ternary_contexts, _uniform(3)),
    ):
        contextual = {"c1": _pair(0, k), "c2": _pair(0, k), "c3": _pair(1, k)}
        flat = {c: _uniform(k, k) for c in ("c1", "c2", "c3")}
        variants = {
            "contextual": contextual,
            "noncontextual": flat,
            "noisy": {c: _mix(F(1, 2), contextual[c], flat[c]) for c in contextual},
        }
        shape = "binary-triangle-512" if k == 2 else "ternary-triangle-2187"
        for variant, bunches in variants.items():
            system = pkg.validate_system(contents, contexts, {**bunches, "c4": extra})
            out.append((f"{shape}-{variant}", system))
    return out


def _measure(pkg, rng):
    """Measure LPs: the rank-2 sweep, the figures, cycles and non-cyclic shapes."""
    sweep = [F(0), F(1, 8), F(1, 4), F(3, 8), F(1, 2)]
    sweep += [F(rng.randint(1, 499), 1000) for _ in range(2)]
    out = [(f"rank2-{p.numerator}-{p.denominator}", pkg.rank2_family(p), p) for p in sweep]
    out += [(name, pkg.canonical_example(name), None) for name in ("fig9", "fig10")]
    for n in range(3, 6):
        out.append((f"noncontextual-{n}", pkg.cyclic_system_from_correlations([F(1, 2)] * n), None))
        out.append((f"contextual-{n}", _anti_cycle(pkg, n, F(9, 10), rng), None))
    out += [(name, system, None) for name, system in _triangles(pkg)]
    return out


def _partition(rng: random.Random, parts: int, max_denominator: int) -> list:
    """Exact random probability vector with a bounded denominator."""
    den = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, den) for _ in range(parts - 1))
    bounds = [0, *cuts, den]
    return [F(bounds[i + 1] - bounds[i], den) for i in range(parts)]


def _random_bunch(rng, sizes, max_denominator):
    masses = _partition(rng, math.prod(sizes), max_denominator)
    return {value: m for value, m in zip(_tuples(sizes), masses) if m}


def _cycle_layout(pkg, rank):
    contents = [pkg.Content(f"q{i}", 2) for i in range(1, rank + 1)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % rank + 1}"] for i in range(1, rank + 1)}
    return contents, contexts


def _boundary_bunch(rng, rank):
    """Consistently connected pair with a strong random-sign correlation."""
    correlation = rng.choice((-1, 1)) * F(rng.randint(4 * rank - 6, 16), 16)
    agree, disagree = (1 + correlation) / 4, (1 - correlation) / 4
    table = {(0, 0): agree, (1, 1): agree, (0, 1): disagree, (1, 0): disagree}
    return {v: m for v, m in table.items() if m}


# Non-cyclic corpus shapes: content sizes and context memberships, each with
# at most a few hundred hidden outcomes (the count is in the comment).
CORPUS_SHAPES = (
    ({"q1": 3, "q2": 3}, {"c1": ["q1", "q2"], "c2": ["q1", "q2"]}),  # 81
    ({"q1": 2, "q2": 3}, {"c1": ["q1", "q2"], "c2": ["q2", "q1"]}),  # 36
    ({"q1": 3, "q2": 3}, {"c1": ["q1", "q2"], "c2": ["q1"], "c3": ["q2"]}),  # 81
    ({"q1": 2, "q2": 2, "q3": 2}, {"c1": ["q1", "q2", "q3"], "c2": ["q1", "q2"], "c3": ["q3"]}),  # 64
    ({"q1": 2, "q2": 2, "q3": 2}, {"c1": ["q1", "q2", "q3"], "c2": ["q3", "q1", "q2"]}),  # 64
    ({"q1": 2, "q2": 2, "q3": 3}, {"c1": ["q1", "q2", "q3"], "c2": ["q1", "q3"]}),  # 72
    ({"q1": 3, "q2": 2, "q3": 2}, {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q3", "q1"]}),  # 144
    ({"q1": 3, "q2": 3, "q3": 2}, {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1"]}),  # 162
)
CORPUS_DRAWS = 15  # systems per non-cyclic shape
CYCLIC_DRAWS = 30  # systems per cyclic kind and rank


def _corpus(pkg, rng):
    """Seeded small systems: random and boundary cycles of rank 2-3, small non-cyclic shapes."""
    out = []
    for rank in (2, 3):
        contents, contexts = _cycle_layout(pkg, rank)
        for i in range(CYCLIC_DRAWS):
            bunches = {c: _random_bunch(rng, (2, 2), 64) for c in contexts}
            out.append((f"random-cycle-{rank}-{i}", pkg.validate_system(contents, contexts, bunches)))
        for i in range(CYCLIC_DRAWS):
            bunches = {c: _boundary_bunch(rng, rank) for c in contexts}
            out.append((f"boundary-cycle-{rank}-{i}", pkg.validate_system(contents, contexts, bunches)))
    for s, (sizes, contexts) in enumerate(CORPUS_SHAPES):
        contents = [pkg.Content(q, k) for q, k in sizes.items()]
        for i in range(CORPUS_DRAWS):
            bunches = {
                c: _random_bunch(rng, tuple(sizes[q] for q in qs), 12) for c, qs in contexts.items()
            }
            out.append((f"shape{s}-{i}", pkg.validate_system(contents, contexts, bunches)))
    return [(name, system, None) for name, system in out]


WORKLOADS = {
    "cycles": (_cycles, False),
    "measure": (_measure, True),
    "corpus": (_corpus, True),
}


def write_cases(pkg, workload: str, seed: int, directory: Path) -> list[Case]:
    """Generate the workload's systems, write them, and return them in pass order."""
    build, measure = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    directory.mkdir(parents=True, exist_ok=True)
    cases = []
    for i, (name, system, rank2_p) in enumerate(build(pkg, rng)):
        path = directory / f"{i:03d}-{name}.json"
        path.write_text(pkg.serialize_system(system), encoding="utf-8")
        cases.append(Case(name, str(path), measure, rank2_p))
    rng.shuffle(cases)
    return cases
