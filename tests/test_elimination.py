"""The outcome-space system: its elimination oracle and its solver path.

``OutcomeSystem`` answers the solver's column questions by variable
elimination over the cells.  These tests check that oracle against a scan
of the explicit matrix, and that solving the same ``M`` as an
``OutcomeSystem`` and as its explicit ``LinearSystem`` takes the identical
pivot path.
"""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality import (
    Content,
    build_associated_system,
    canonical_example,
    cyclic_system_from_correlations,
    outcome_space,
    rank2_family,
    validate_system,
)
from contextuality import simplex
from contextuality.analysis import _constraint_rows
from contextuality.simplex import LinearSystem, OutcomeSystem, minimize, solve_feasibility
from conftest import outcomes

F = Fraction


def outcome_system(system):
    """``M`` of ``system`` as an :class:`OutcomeSystem`, whatever the cost rule picks."""
    patterns = ((fixed, mass) for _, fixed, mass in _constraint_rows(system))
    return OutcomeSystem(outcome_space(system), patterns)


def uniform_system(sizes, contexts):
    """A system over contents ``q1, q2, ...`` of ``sizes``, each bunch uniform."""
    labels = [f"q{i + 1}" for i in range(len(sizes))]
    layout = {f"c{i + 1}": [labels[q] for q in members] for i, members in enumerate(contexts)}
    bunches = {}
    for context, members in zip(layout, contexts):
        values = list(itertools.product(*(range(sizes[q]) for q in members)))
        bunches[context] = {v: F(1, len(values)) for v in values}
    return validate_system([Content(q, k) for q, k in zip(labels, sizes)], layout, bunches)


@st.composite
def small_systems(draw):
    """2-3 contents of 2-3 values in contexts of at most 4 cells, plus one per missing content."""
    sizes = draw(st.lists(st.integers(2, 3), min_size=2, max_size=3))
    members = st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=len(sizes), unique=True)
    contexts = []
    for context in draw(st.lists(members, min_size=2, max_size=4)):
        if sum(map(len, contexts)) + len(context) <= 4:
            contexts.append(context)
    contexts += [[q] for q in range(len(sizes)) if not any(q in c for c in contexts)]
    return sizes, contexts


def scan(linear, weights):
    """``weights . A_j`` for every column of the explicit matrix."""
    return [sum(w * row[j] for w, row in zip(weights, linear.matrix)) for j in range(linear.width)]


class TestOracle:
    """``best`` and ``first_nonzero`` of both kinds, and the ``OutcomeSystem``'s
    ``first_above``, against a scan of the explicit ``M``."""

    @settings(max_examples=150, deadline=None)
    @given(shape=small_systems(), data=st.data())
    # a ternary content shared by three contexts: a connection of three members
    @example(shape=([3, 2], [[0, 1], [0], [0, 1]]), data=None)
    def test_best_and_first_above_match_a_scan(self, shape, data):
        linear = outcome_system(uniform_system(*shape))
        rows = linear.rows
        if data is None:
            weight_sets = [[(-1) ** i * (i % 3) for i in range(rows)], [0] * rows, [1] * rows]
            thresholds = [-2, 0, 1, 5, 100]
        else:
            weight_sets = [data.draw(st.lists(st.integers(-3, 3), min_size=rows, max_size=rows))]
            thresholds = data.draw(st.lists(st.integers(-12, 12), min_size=1, max_size=4))
        for weights in weight_sets:
            values = scan(linear, weights)
            top = max(values)
            nonzero = next((j for j, v in enumerate(values) if v), None)
            for system in (linear, linear.explicit):
                assert system.best(weights) == (top, values.index(top))
                assert system.first_nonzero(weights) == nonzero
            for t in thresholds + [top, top - 1]:
                want = next(((v, j) for j, v in enumerate(values) if v > t), None)
                assert linear.first_above(weights, t) == want

    def test_columns_decode_through_the_strides(self):
        linear = outcome_system(triangle(3, "contextual"))
        explicit = linear.explicit
        every = list(outcomes(linear.sizes))
        for j in (0, 1, 17, 1000, linear.width - 1):
            assert linear.column(j) == explicit.column(j)
            assert linear.label(j) == explicit.label(j) == every[j]

    def test_verify_rejects_a_certificate_positive_on_some_column(self):
        # a unit vector on a row with positive rhs has y . P > 0, but y . A_j = 1
        # on that row's columns
        outcome = outcome_system(canonical_example("fig10"))
        i = next(i for i, b in enumerate(outcome.rhs) if b > 0)
        unit = tuple(F(int(k == i)) for k in range(outcome.rows))
        valid = solve_feasibility(outcome)
        for linear in (outcome, outcome.explicit):
            assert valid.verify(linear)
            assert not simplex.FeasibilityResult(simplex.INFEASIBLE, None, unit, 0).verify(linear)


class TestOneEntryTables:
    """Elimination over cells of size 1, whose step tables can hold a single entry."""

    @pytest.mark.parametrize("sizes", [(1, 2, 3), (1, 1, 1)])
    def test_one_entry_tables_answer_as_the_explicit_rows(self, sizes):
        outcome = outcome_system(uniform_system(sizes, [[0, 1], [1, 2], [0, 2]]))
        explicit = outcome.explicit
        draw = random.Random(sum(sizes))
        for _ in range(200):
            weights = [draw.randint(-3, 3) for _ in range(outcome.rows)]
            assert outcome.best(weights) == explicit.best(weights)
            assert outcome.first_nonzero(weights) == explicit.first_nonzero(weights)
        assert solve_feasibility(outcome) == solve_feasibility(explicit)


def triangle(k, variant):
    """A triangle of the measure workload: contextual, noncontextual or half noise."""
    def pair(shift):
        return {(v, (v + shift) % k): F(1, k) for v in range(k)}

    def flat():
        return {(a, b): F(1, k * k) for a in range(k) for b in range(k)}

    contextual = {"c1": pair(0), "c2": pair(0), "c3": pair(1)}
    bunches = {
        "contextual": contextual,
        "noncontextual": {c: flat() for c in contextual},
        "noisy": {
            c: {v: (contextual[c].get(v, 0) + m) / 2 for v, m in flat().items()} for c in contextual
        },
    }[variant]
    extra = ["q1", "q2", "q3"] if k == 2 else ["q1"]
    c4 = {v: F(1, k ** len(extra)) for v in itertools.product(range(k), repeat=len(extra))}
    return validate_system(
        [Content(q, k) for q in ("q1", "q2", "q3")],
        {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"], "c4": extra},
        {**{c: {v: m for v, m in b.items() if m} for c, b in bunches.items()}, "c4": c4},
    )


def flat_cycle(rank):
    return cyclic_system_from_correlations([F(1, 2)] * rank)


def anti_cycle(rank, correlation=F(9, 10)):
    return cyclic_system_from_correlations([-correlation] + [correlation] * (rank - 1))


def drive_out_system():
    """Two ternary pair contexts whose measure LP drives six artificials out of phase 1's basis."""
    third = F(1, 3)
    return validate_system(
        [Content("q1", 3), Content("q2", 3)],
        {"c1": ["q1", "q2"], "c2": ["q1", "q2"]},
        {
            "c1": {(0, 2): third, (1, 1): third, (2, 0): third},
            "c2": {(1, 0): third, (2, 0): third, (2, 1): third},
        },
    )


PATH_CASES = {
    **{f"rank2-{p}": (lambda p=p: rank2_family(F(p, 8))) for p in (0, 1, 3, 4)},
    "fig9": lambda: canonical_example("fig9"),
    "fig10": lambda: canonical_example("fig10"),
    **{f"noncontextual-{n}": (lambda n=n: flat_cycle(n)) for n in range(3, 7)},
    **{f"contextual-{n}": (lambda n=n: anti_cycle(n)) for n in range(3, 7)},
    **{f"triangle-{k}-{v}": (lambda k=k, v=v: triangle(k, v))
       for k in (2, 3) for v in ("contextual", "noncontextual", "noisy")},
    "drive-out": drive_out_system,
}


class TestPathIdentity:
    """The same ``M`` solved as both kinds of system takes the same pivots to the same answers."""

    @pytest.mark.parametrize("name", sorted(PATH_CASES))
    def test_both_kinds_solve_identically(self, name, monkeypatch):
        replacement = simplex._Revised.replacement
        leaving = simplex._Revised._leaving
        seen = {"degenerate": 0, "explicit degenerate": 0, "drive-out": 0}

        def spy_leaving(self, column):
            row = leaving(self, column)
            explicit = isinstance(self.system, LinearSystem)
            seen["explicit degenerate" if explicit else "degenerate"] += self.inverse[-1][row] == 0
            return row

        def spy_replacement(self, rho):
            j = replacement(self, rho)
            seen["drive-out"] += j is not None and isinstance(self.system, OutcomeSystem)
            return j

        monkeypatch.setattr(simplex._Revised, "_leaving", spy_leaving)
        monkeypatch.setattr(simplex._Revised, "replacement", spy_replacement)
        outcome = outcome_system(PATH_CASES[name]())
        explicit = outcome.explicit
        assert isinstance(explicit, LinearSystem)
        got, want = solve_feasibility(outcome), solve_feasibility(explicit)
        assert got == want
        assert got.verify(outcome) and want.verify(explicit)
        if not got.feasible:
            got, want = minimize(outcome), minimize(explicit)
            assert (got.value, got.solution, got.dual, got.pivots) == (
                want.value, want.solution, want.dual, want.pivots
            )
        if name == "noncontextual-6":
            # pivots that leave a row at level 0
            assert seen["degenerate"] == seen["explicit degenerate"] == 13
        if name == "drive-out":
            assert seen["drive-out"] == 6

    # (verdict pivots, measure pivots resumed from the verdict's phase 1 or None)
    PIVOTS = {
        "contextual-3": (10, 6), "contextual-4": (13, 8),
        "contextual-5": (16, 10), "contextual-6": (19, 12),
        "drive-out": (20, 11), "fig9": (7, 3), "fig10": (9, 8),
        "noncontextual-3": (25, None), "noncontextual-4": (14, None),
        "noncontextual-5": (45, None), "noncontextual-6": (20, None),
        **{f"rank2-{p}": (7, 3) for p in (0, 1, 3)}, "rank2-4": (4, None),
        "triangle-2-contextual": (24, 35), "triangle-2-noisy": (17, 47),
        "triangle-2-noncontextual": (50, None),
        "triangle-3-contextual": (42, 92), "triangle-3-noisy": (41, 86),
        "triangle-3-noncontextual": (124, None),
    }

    @pytest.mark.parametrize("name", sorted(PATH_CASES))
    def test_pivot_counts_are_pinned(self, name):
        system = build_associated_system(PATH_CASES[name]())
        start = solve_feasibility(system)
        measure = None if start.feasible else minimize(system, start).pivots
        assert (start.pivots, measure) == self.PIVOTS[name]

    def test_cost_rule_picks_elimination_only_for_large_spaces(self):
        assert isinstance(build_associated_system(flat_cycle(4)), LinearSystem)
        assert isinstance(build_associated_system(flat_cycle(5)), OutcomeSystem)
        assert isinstance(build_associated_system(triangle(2, "noisy")), LinearSystem)
        assert isinstance(build_associated_system(triangle(3, "contextual")), OutcomeSystem)


class TestLexPositive:
    """The invariant that ends every run of the lexicographic ratio test."""

    @pytest.mark.parametrize("name", ["drive-out", "triangle-3-contextual"])
    def test_every_pivot_of_a_run_keeps_every_row_lex_positive(self, name, monkeypatch):
        # each row's first nonzero of its level, then det * B^-1 X0_k for the
        # columns k of the basis the run started from, last first, is positive
        run, pivot = simplex._Revised._run, simplex._Revised._pivot
        running, checked = [], {"phase 1": 0, "phase 2": 0}

        def spy_run(self):
            running.append(self)
            run(self)
            running.pop()

        def spy_pivot(self, prow, column, pcol):
            pivot(self, prow, column, pcol)
            if running:
                keys = [self.inverse[-1], *map(self._column, reversed(self.start))]
                for i in range(len(self.basis)):
                    assert next(k[i] for k in keys if k[i]) > 0
                checked["phase 2" if self.n > self.width else "phase 1"] += 1

        monkeypatch.setattr(simplex._Revised, "_run", spy_run)
        monkeypatch.setattr(simplex._Revised, "_pivot", spy_pivot)
        system = build_associated_system(PATH_CASES[name]())
        start = solve_feasibility(system)
        assert not start.feasible
        assert minimize(system, start).verify(system)
        assert checked["phase 1"] and checked["phase 2"]


def full_key_leaving(lp, column):
    """The lexicographic ratio test with every key formed over all rows, in Fractions.

    Returns the leaving row and how many keys it compared.
    """
    rows = [i for i, a in enumerate(column) if a > 0]
    keys = [lp.inverse[-1], *map(lp._column, reversed(lp.start))]
    depth = 0
    while len(rows) > 1:
        key, depth = keys[depth], depth + 1
        least = min(F(key[i], column[i]) for i in rows)
        rows = [i for i in rows if F(key[i], column[i]) == least]
    return rows[0], depth


def spy_on_leaving(monkeypatch):
    """Check each leaving row against :func:`full_key_leaving`; list ``(phase 2?, depth)``."""
    leaving = simplex._Revised._leaving
    calls = []

    def spy_leaving(self, column):
        row = leaving(self, column)
        want, depth = full_key_leaving(self, column)
        assert row == want
        calls.append((self.n > self.width, depth))
        return row

    monkeypatch.setattr(simplex._Revised, "_leaving", spy_leaving)
    return calls


class TestTiedRowKeys:
    """The ratio test reads its keys only at the tied rows; a test over full keys agrees."""

    @pytest.mark.parametrize("name", sorted(PATH_CASES))
    def test_leaving_row_matches_the_full_key_test(self, name, monkeypatch):
        calls = spy_on_leaving(monkeypatch)
        outcome = outcome_system(PATH_CASES[name]())
        for system in (outcome, outcome.explicit):
            start = solve_feasibility(system)
            if not start.feasible:
                minimize(system, start)
        assert calls

    def test_phase_2_ties_reach_the_start_columns(self, monkeypatch):
        # the contextual ternary triangle's measure breaks ties past the levels,
        # on the structural columns its phase 2 started from
        calls = spy_on_leaving(monkeypatch)
        system = outcome_system(triangle(3, "contextual"))
        minimize(system, solve_feasibility(system))
        assert any(wide and depth > 1 for wide, depth in calls)
