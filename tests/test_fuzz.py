"""Hypothesis fuzzing of the analyzer on small non-cyclic systems.

Each drawn system has a ternary content shared by three contexts, so it has
a connection of three members and is never a cyclic binary system, and its
bunches carry random exact masses.  Every answer is checked against the
system itself, and against the same system with contexts, contents and
values relabelled.
"""

import itertools
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Content,
    FeasibilityResult,
    build_associated_system,
    contextuality_measure,
    decide_contextuality,
    parse_system,
    serialize_system,
    validate_system,
    verify_quasi_coupling,
)
from conftest import assert_dual_certifies


@st.composite
def masses(draw, sizes):
    """An exact distribution over the value tuples of ``sizes``, zeros allowed."""
    values = list(itertools.product(*map(range, sizes)))
    weights = draw(st.lists(st.integers(0, 4), min_size=len(values), max_size=len(values)))
    if not any(weights):
        weights[draw(st.integers(0, len(values) - 1))] = 1
    total = sum(weights)
    return {v: Fraction(w, total) for v, w in zip(values, weights) if w}


@st.composite
def non_cyclic_systems(draw):
    """Content ``a`` (ternary) in three contexts, each with at most one of ``b``, ``c``."""
    sizes = {"a": 3, "b": draw(st.sampled_from([2, 3]))}
    if draw(st.booleans()):
        sizes["c"] = draw(st.sampled_from([2, 3]))
    others = st.sampled_from([None, *sorted(sizes.keys() - {"a"})])
    contexts = {f"x{i}": ["a"] + [q for q in [draw(others)] if q] for i in range(3)}
    for q in sorted(sizes.keys() - {q for qs in contexts.values() for q in qs}):
        contexts[f"y{q}"] = [q]
    bunches = {c: draw(masses([sizes[q] for q in qs])) for c, qs in contexts.items()}
    return validate_system(sizes, contexts, bunches)


@st.composite
def relabellings(draw, system):
    """``system`` with new context and content labels and each content's values permuted.

    The new labels reverse the old sort order, so the canonical cell order,
    and with it the column order of ``M``, changes too.
    """
    contexts = {c: f"k{len(system.contexts) - i}" for i, c in enumerate(system.contexts)}
    contents = {q.label: f"z{len(system.contents) - i}" for i, q in enumerate(system.contents)}
    perms = {q.label: draw(st.permutations(range(q.size))) for q in system.contents}
    layout, bunches = {}, {}
    for c in system.contexts:
        qs = system.context_contents(c)
        layout[contexts[c]] = [contents[q] for q in qs]
        bunches[contexts[c]] = {
            tuple(perms[q][v] for q, v in zip(qs, value)): mass
            for value, mass in system.bunches[c].items()
        }
    labelled = [
        Content(contents[q.label], q.size, tuple(f"v{v}" for v in range(q.size)))
        for q in system.contents
    ]
    return validate_system(labelled, layout, bunches)


def assert_witnesses_verify(system, verdict, result):
    """The verdict's coupling or certificate and the measure's quasi-coupling and dual."""
    if verdict.contextual:
        linear = build_associated_system(system)
        assert FeasibilityResult("infeasible", None, verdict.certificate, 0).verify(linear)
    else:
        assert all(mass > 0 for mass in verdict.coupling.masses.values())
        assert verify_quasi_coupling(system, verdict.coupling.masses).all_passed
    assert verify_quasi_coupling(system, result.witness).all_passed
    assert result.total_variation == 1 + result.measure
    assert_dual_certifies(system, result)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_answers_hold_under_round_trip_and_relabelling(data):
    system = data.draw(non_cyclic_systems())
    relabelled = data.draw(relabellings(system))
    for s in (system, relabelled):
        assert parse_system(serialize_system(s)) == s
    verdict = decide_contextuality(system)
    result = contextuality_measure(system)
    assert result.verdict.contextual == verdict.contextual
    assert (result.measure == 0) == (not verdict.contextual)
    assert_witnesses_verify(system, verdict, result)
    again = contextuality_measure(relabelled)
    assert (again.verdict.contextual, again.measure) == (verdict.contextual, result.measure)
    assert_witnesses_verify(relabelled, again.verdict, again)
