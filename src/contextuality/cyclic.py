"""Cyclic binary systems and their closed-form contextuality criterion.

A system is cyclic when every context holds exactly two contents, every
content appears in exactly two contexts, and all variables are binary.  The
content-context incidence graph is then a disjoint union of cycles, each an
independent system of some rank ``n >= 2``.

For one cycle, with variables read on the +1/-1 scale, contextuality reduces
to a single inequality: the odd-parity signed maximum of the ``n``
within-context product expectations exceeds
``n - 2 + sum |<R_i^i> - <R_i^(i-1)>|``.  Boundary cases (delta exactly 0)
count as noncontextual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distribution import ZERO, Distribution, as_fraction
from .errors import EmptyInputError, NotBinaryError
from .systems import CCSystem


@dataclass(frozen=True)
class NotCyclic:
    """Why a system is not cyclic: the first violated condition and a detail."""

    condition: str
    detail: str


@dataclass(frozen=True)
class CyclicView:
    """One cycle: contents ``q_1..q_n`` and contexts ``c_1..c_n``.

    Context ``c_i`` holds contents ``q_i`` and ``q_(i+1)`` (cyclically).
    The cycle starts at the lexicographically smallest content and proceeds
    toward its lexicographically smaller neighbor, so the view is
    deterministic; the criterion itself is orientation-invariant.
    """

    contents: tuple[str, ...]
    contexts: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.contents)


@dataclass(frozen=True)
class CriterionReport:
    """Both sides of the cyclic criterion inequality, with the verdict."""

    rank: int
    lhs: Fraction
    rhs: Fraction
    delta: Fraction
    contextual: bool
    product_expectations: tuple[Fraction, ...]
    expectation_gaps: tuple[Fraction, ...]

    @property
    def consistent(self) -> bool:
        return not any(self.expectation_gaps)


def detect_cycles(system: CCSystem) -> list[CyclicView] | NotCyclic:
    """Return one view per disjoint cycle, or the first violated condition."""
    for context in system.contexts:
        cells = system.context_contents(context)
        if len(cells) != 2:
            return NotCyclic(
                "CYC1", f"context {context!r} holds {len(cells)} contents, need exactly 2"
            )
    for connection in system.connections():
        if connection.size != 2:
            return NotCyclic(
                "CYC2",
                f"content {connection.content!r} appears in {connection.size} contexts, "
                "need exactly 2",
            )
    for content in system.contents:
        if content.size != 2:
            return NotCyclic(
                "CYC3", f"content {content.label!r} has {content.size} values, need 2"
            )

    # Each content sits in exactly two contexts; each context joins two
    # contents.  Walk the resulting 2-regular multigraph.
    incident: dict[str, list[str]] = {c.label: [] for c in system.contents}
    other: dict[tuple[str, str], str] = {}
    for context in system.contexts:
        a, b = system.context_contents(context)
        incident[a].append(context)
        incident[b].append(context)
        other[(context, a)] = b
        other[(context, b)] = a

    views = []
    seen: set[str] = set()
    for start in (c.label for c in system.contents):
        if start in seen:
            continue
        first_options = sorted(
            incident[start], key=lambda ctx: (other[(ctx, start)], ctx)
        )
        contexts = [first_options[0]]
        contents = [start]
        seen.add(start)
        current = other[(contexts[0], start)]
        while current != start:
            contents.append(current)
            seen.add(current)
            previous = contexts[-1]
            nxt = next(ctx for ctx in incident[current] if ctx != previous)
            contexts.append(nxt)
            current = other[(nxt, current)]
        views.append(CyclicView(tuple(contents), tuple(contexts)))
    return views


def expectation(d: Distribution, plus_index: int = 0) -> Fraction:
    """Expected value of a binary arity-1 distribution on the +1/-1 scale."""
    if d.arity != 1 or d.alphabet_sizes != (2,):
        raise NotBinaryError(f"expected a binary arity-1 distribution, got {d.alphabet_sizes}")
    return d.mass((plus_index,)) - d.mass((1 - plus_index,))


def product_expectation(d: Distribution, plus_indices: tuple[int, int] = (0, 0)) -> Fraction:
    """Expectation of the product of an arity-2 binary pair on the +1/-1 scale."""
    if d.arity != 2 or d.alphabet_sizes != (2, 2):
        raise NotBinaryError(f"expected a binary arity-2 distribution, got {d.alphabet_sizes}")
    acc = ZERO
    for value, mass in d.masses.items():
        sign = 1 if value[0] == plus_indices[0] else -1
        sign *= 1 if value[1] == plus_indices[1] else -1
        acc += sign * mass
    return acc


def s_odd(xs: Sequence) -> Fraction:
    """Max of ``sum sign_i * x_i`` over sign vectors with an odd number of minuses.

    Closed form: take every argument with the sign of the argument itself
    (total ``sum |x_i|``); if the count of strictly negative arguments is even
    and no argument is zero, parity must be bought by flipping the smallest
    ``|x_i|``, costing ``2 min |x_i|``; a zero argument absorbs the flip for
    free.
    """
    values = [as_fraction(x) for x in xs]
    if not values:
        raise EmptyInputError("s_odd needs at least one argument")
    total = sum((abs(x) for x in values), ZERO)
    negatives = sum(1 for x in values if x < 0)
    if negatives % 2 == 1 or any(x == 0 for x in values):
        return total
    return total - 2 * min(abs(x) for x in values)


def evaluate_criterion(view: CyclicView, system: CCSystem) -> CriterionReport:
    """Evaluate the cyclic criterion for one cycle of ``system``.

    The +1/-1 coding of each content comes from its ``plus_index``.
    """
    n = view.rank
    plus = {c.label: c.plus_index for c in system.contents}

    products = []
    for i in range(n):
        context = view.contexts[i]
        q_i = view.contents[i]
        q_next = view.contents[(i + 1) % n]
        cells = system.context_contents(context)
        bunch = system.bunches[context]
        coding = tuple(plus[q] for q in cells)
        value = product_expectation(bunch, coding)
        if set(cells) != {q_i, q_next}:
            raise NotBinaryError(
                f"view context {context!r} does not join {q_i!r} and {q_next!r}"
            )
        products.append(value)

    gaps = []
    for i in range(n):
        q = view.contents[i]
        in_ctx = view.contexts[i]
        out_ctx = view.contexts[(i - 1) % n]
        e_in = expectation(system.variable_marginal(in_ctx, q), plus[q])
        e_out = expectation(system.variable_marginal(out_ctx, q), plus[q])
        gaps.append(abs(e_in - e_out))

    lhs = s_odd(products)
    rhs = Fraction(n - 2) + sum(gaps, ZERO)
    delta = lhs - rhs
    return CriterionReport(
        rank=n,
        lhs=lhs,
        rhs=rhs,
        delta=delta,
        contextual=delta > 0,
        product_expectations=tuple(products),
        expectation_gaps=tuple(gaps),
    )
