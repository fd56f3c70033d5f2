"""Generators of the paper's worked systems.

The rank-2 family behind the ``fig9`` example, the cyclic systems of the
criterion, the two-particle spin system for four measurement axes and
dichotomized matching-experiment systems are all cycles over one layout:
binary contents ``q1..qn`` and contexts ``c_i`` pairing ``q_i`` with
``q_(i+1)``, cyclically.  The parity grids, the Peres-Mermin square among
them, are the one non-cyclic family, and the ``fig10`` example is the one
system built by hand.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distribution import as_fraction
from .errors import EmptyContextError, UnknownLabelError, ValidationError
from .ingest import estimate_system
from .systems import CCSystem, Content, validate_system

EXAMPLE_NAMES = ("fig1", "fig9", "fig10", "szlg")

PLUS_MINUS = ("+1", "-1")


def _cycle_layout(n: int) -> tuple[list[Content], dict[str, list[str]]]:
    """Binary contents ``q1..qn`` and contexts ``c_i`` pairing ``q_i`` with ``q_(i+1)``."""
    contents = [Content(f"q{i}", 2, PLUS_MINUS, 0) for i in range(1, n + 1)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % n + 1}"] for i in range(1, n + 1)}
    return contents, contexts


def cyclic_system_from_correlations(correlations: Sequence) -> CCSystem:
    """Consistently connected cyclic binary system with the given correlations.

    ``correlations[i]`` is the exact product expectation (in ``[-1, 1]``) of
    context ``c_(i+1)``, which pairs contents ``q_(i+1)`` and ``q_(i+2)``
    cyclically; all marginals are uniform.  This is the entry path for
    quantum-style systems whose correlations are irrational: approximate
    them as Fractions first, then build the system exactly.
    """
    values = [as_fraction(e) for e in correlations]
    n = len(values)
    if n < 2:
        raise ValidationError(f"a cycle needs at least 2 correlations, got {n}")
    if any(not -1 <= e <= 1 for e in values):
        raise ValidationError(f"correlations must lie in [-1, 1], got {values}")
    contents, contexts = _cycle_layout(n)
    bunches = {}
    for context, e in zip(contexts, values):
        agree, disagree = (1 + e) / 4, (1 - e) / 4
        bunches[context] = {(0, 0): agree, (0, 1): disagree, (1, 0): disagree, (1, 1): agree}
    return validate_system(contents, contexts, bunches)


@dataclass(frozen=True)
class CorrelationApproximation:
    """How one context's target correlation was rationalized."""

    context: str
    target: float
    value: Fraction
    error: float


@dataclass(frozen=True)
class EprBResult:
    system: CCSystem
    approximations: tuple[CorrelationApproximation, ...]
    denominator_bound: int

    @property
    def max_error(self) -> float:
        return max(a.error for a in self.approximations)


def generate_epr_b(angles: Sequence[float | str], denominator_bound: int = 10**6) -> EprBResult:
    """Rank-4 cyclic system of two spin measurements in a singlet state.

    Contents ``q1..q4`` are the four measurement axes (given as angles in
    radians, as numbers or numeric strings); context ``c_i`` pairs axes ``q_i`` and ``q_(i+1)``.  Each bunch
    has uniform marginals and product expectation ``-cos(theta)`` for the
    angle ``theta`` between its two axes, rounded to the nearest fraction
    with denominator at most ``denominator_bound``.  Marginals stay exactly
    1/2 (the approximation only touches the correlation term), so the system
    is consistently connected.
    """
    try:
        angles = [float(a) for a in angles]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"need four finite angles, got {list(angles)!r}") from exc
    if len(angles) != 4 or not all(math.isfinite(a) for a in angles):
        raise ValidationError(f"need four finite angles, got {angles!r}")
    if denominator_bound < 1:
        raise ValidationError(f"denominator bound must be >= 1, got {denominator_bound}")
    correlations = []
    approximations = []
    for i in range(1, 5):
        theta = angles[i % 4] - angles[i - 1]
        target = -math.cos(theta)
        # the nearest fraction, so never beyond -1 or 1 (denominator 1)
        value = Fraction(target).limit_denominator(denominator_bound)
        approximations.append(
            CorrelationApproximation(f"c{i}", target, value, abs(float(value) - target))
        )
        correlations.append(value)
    system = cyclic_system_from_correlations(correlations)
    return EprBResult(system, tuple(approximations), denominator_bound)


def dichotomize_matching(
    observations: Sequence[Sequence[tuple[float, float]]],
    rad1: float,
    rad3: float,
    ang2: float,
    ang4: float,
) -> CCSystem:
    """Rank-4 cyclic binary system from paired (radius, angle) measurements.

    ``observations[i-1]`` holds the trials of context ``c_i``, which pairs
    contents ``q_i`` and ``q_(i+1)``; odd-numbered contents are radius
    responses, even-numbered ones are angle responses.  A response codes +1
    when the measurement strictly exceeds its content's threshold and -1
    otherwise (ties fall to -1).
    """
    if len(observations) != 4:
        raise ValidationError(f"need trials for four contexts, got {len(observations)}")
    empty = [f"c{i}" for i in range(1, 5) if not observations[i - 1]]
    if empty:
        raise EmptyContextError(f"no observations for contexts {empty}")
    thresholds = {"q1": float(rad1), "q2": float(ang2), "q3": float(rad3), "q4": float(ang4)}
    contents, contexts = _cycle_layout(4)
    trials = []
    for (context, cells), rows in zip(contexts.items(), observations):
        for radius, angle in rows:
            measured = {"q1": radius, "q2": angle, "q3": radius, "q4": angle}
            coded = {q: "+1" if measured[q] > thresholds[q] else "-1" for q in cells}
            trials.append((context, coded))
    return estimate_system(trials, contents, contexts)


def parity_grid(k, odd=None):
    """The ``k`` by ``k`` parity grid: binary contents ``q<i><j>``, each in row
    context ``r<i>`` and column context ``s<j>``.

    Each bunch is uniform on the tuples of even product (an even number of
    1s), except the context ``odd``, uniform on those of odd product.  With
    an odd context the system is contextual: the product of all cells is +1
    by rows and -1 by columns.  ``k = 3`` is the Peres-Mermin square
    (Mermin, PRL 65, 3373, 1990; Peres, Phys. Lett. A 151, 107, 1990), of
    measure 1/7 with any one odd context.
    """
    cells = [[f"q{i}{j}" for j in range(k)] for i in range(k)]
    contexts = {
        **{f"r{i}": row for i, row in enumerate(cells)},
        **{f"s{j}": list(column) for j, column in enumerate(zip(*cells))},
    }
    bunches = {}
    for name in contexts:
        tuples = [v for v in itertools.product((0, 1), repeat=k) if sum(v) % 2 == (name == odd)]
        bunches[name] = {v: Fraction(1, len(tuples)) for v in tuples}
    return validate_system([Content(q, 2) for row in cells for q in row], contexts, bunches)


# ---------------------------------------------------------------------------
# Canonical examples
# ---------------------------------------------------------------------------


def rank2_family(p) -> CCSystem:
    """Two-context binary family: one perfectly correlated bunch, one tunable.

    The first bunch is diagonal with masses 1/2; the second places ``p`` on
    each agreeing pair and ``1/2 - p`` on each disagreeing pair, so it is the
    rank-2 cycle with correlations ``1`` and ``4p - 1``.  At ``p = 0`` the
    system is maximally contextual; at ``p = 1/2`` the bunches coincide and
    it is trivially noncontextual.  Its minimum total variation is
    ``2(1 - p)``.
    """
    p = as_fraction(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ValidationError(f"p must lie in [0, 1/2], got {p}")
    return cyclic_system_from_correlations([1, 4 * p - 1])


def _szlg_example() -> CCSystem:
    contents = [Content(f"q{i}", 2, PLUS_MINUS, 0) for i in (1, 2, 3)]
    contexts = {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"]}
    p7, p3, p4 = Fraction(7, 10), Fraction(3, 10), Fraction(2, 5)
    bunches = {
        "c1": {(0, 0): p7, (1, 1): p3},
        "c2": {(0, 0): p7, (1, 1): p3},
        "c3": {(0, 0): p4, (0, 1): p3, (1, 0): p3},
    }
    return validate_system(contents, contexts, bunches)


def canonical_example(name: str) -> CCSystem:
    """One of the bundled example systems (names in ``EXAMPLE_NAMES``).

    ``fig1``/``fig9``: the minimal contextual two-context binary system
    (perfect correlation against perfect anticorrelation, uniform marginals).
    ``fig10``/``szlg``: a contextual three-context system with identical
    0.7/0.3 marginals everywhere.
    """
    if name in ("fig1", "fig9"):
        return rank2_family(0)
    if name in ("fig10", "szlg"):
        return _szlg_example()
    raise UnknownLabelError(f"unknown example {name!r}; choose one of {EXAMPLE_NAMES}")
