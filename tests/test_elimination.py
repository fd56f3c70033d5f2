"""The outcome-space system: its elimination oracle and its solver path.

``OutcomeSystem`` answers the solver's column questions by variable
elimination over the cells.  These tests check that oracle against a scan
of the explicit matrix, and that solving the same ``M`` as an
``OutcomeSystem`` and as its explicit ``LinearSystem`` takes the identical
pivot path.
"""

import functools
import itertools
import operator
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
from contextuality.analysis import _constraint_rows, _expanded_rows
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
    """``top`` and ``first_nonzero`` of both kinds, and the ``OutcomeSystem``'s
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
                assert system.top(weights) == top
                assert system.first_nonzero(weights) == nonzero
            # at top - 1, the lowest column attaining the top
            for t in thresholds + [top, top - 1]:
                want = next(((v, j) for j, v in enumerate(values) if v > t), None)
                assert linear.first_above(weights, t) == want

    def test_columns_decode_through_the_strides(self):
        linear = outcome_system(triangle(3, "contextual"))
        explicit = linear.explicit
        every = list(outcomes(linear.sizes))
        for j in (0, 1, 17, 1000, linear.width - 1):
            assert linear.entries(j) == explicit.entries(j)
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
            top = explicit.top(weights)
            assert outcome.top(weights) == top
            lowest = scan(explicit, weights).index(top)
            assert outcome.first_above(weights, top - 1) == (top, lowest)
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
            got, want = minimize(got), minimize(want)
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
        measure = None if start.feasible else minimize(start).pivots
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

        def spy_pivot(self, prow, column, pcol, f=0):
            pivot(self, prow, column, pcol, f)
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
        assert minimize(start).verify(system)
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
                minimize(start)
        assert calls

    def test_phase_2_ties_reach_the_start_columns(self, monkeypatch):
        # the contextual ternary triangle's measure breaks ties past the levels,
        # on the structural columns its phase 2 started from
        calls = spy_on_leaving(monkeypatch)
        system = outcome_system(triangle(3, "contextual"))
        minimize(solve_feasibility(system))
        assert any(wide and depth > 1 for wide, depth in calls)


def dense_pivot(inverse, prow, column, det):
    """Every column of ``det * B^-1`` and the levels rewritten whole by the
    fraction-free formula ``(a * x - x[prow] * column) / det``, each division checked."""
    a, inverse = column[prow], [c[:] for c in inverse]
    if a < 0:
        for c in inverse:
            c[prow] = -c[prow]
        a = -a
    pivoted = []
    for c in inverse:
        y = c[prow]
        new = [a * x - f * y for x, f in zip(c, column)]
        new[prow] = y * det
        assert all(x % det == 0 for x in new)
        pivoted.append([x // det for x in new])
    return pivoted, a


def priced(lp, weights):
    """``weights . X0_j`` over the columns of ``A``, summed from the dense rows."""
    total = [0] * lp.width
    for w, row in zip(weights, dense_rows(lp)):
        if w:
            total = list(map(operator.add, total, map(operator.mul, row, itertools.repeat(w))))
    return total


@functools.lru_cache(maxsize=1)
def dense_rows(lp):
    """The dense rows of ``A``, which are those of ``X0`` as they are."""
    return lp.system.matrix


def spy_on_updates(monkeypatch):
    """Check every pivot against the dense formulas, applied to a copy of the state
    before it; count the pivots with ``a == det``, with ``a != det`` and with ``f == 0``.

    ``det * B^-1`` and ``det`` follow :func:`dense_pivot`; ``pi`` and ``v``
    follow ``(a * pi + f * rho) // det`` and ``(a * v + f * rho . X0) // det``,
    each division exact, or stay as they were when ``f == 0`` (a drive-out);
    and ``v`` is ``pi . X0`` summed afresh after every pivot.
    """
    pivot = simplex._Revised._pivot
    branches = {"a == det": 0, "a != det": 0, "f == 0": 0}

    def spy_pivot(self, prow, column, pcol, f=0):
        det, rho = self.det, [c[prow] for c in self.inverse]
        want, a = dense_pivot(self.inverse, prow, column, det)
        branches["a == det" if a == det else "a != det"] += 1
        branches["f == 0"] += f == 0
        pi, v = self.pi[:], self.v and self.v[:]
        if f:
            assert all((a * p + f * r) % det == 0 for p, r in zip(pi, rho))
            pi = [(a * p + f * r) // det for p, r in zip(pi, rho)]
            if v is not None:
                s = priced(self, rho)
                assert all((a * x + f * y) % det == 0 for x, y in zip(v, s))
                v = [(a * x + f * y) // det for x, y in zip(v, s)]
        pivot(self, prow, column, pcol, f)
        assert (self.inverse, self.det) == (want, a)
        assert (self.pi, self.v) == (pi, v)
        assert self.v is None or self.v == priced(self, self.pi)

    monkeypatch.setattr(simplex._Revised, "_pivot", spy_pivot)
    return branches


class TestDenseReference:
    """Pivots write only what changes; the dense formulas agree."""

    def test_every_update_matches_the_dense_formulas(self, monkeypatch):
        branches = spy_on_updates(monkeypatch)
        for name in sorted(PATH_CASES):
            outcome = outcome_system(PATH_CASES[name]())
            for system in (outcome, outcome.explicit):
                start = solve_feasibility(system)
                if not start.feasible:
                    assert minimize(start).verify(system)
        assert all(branches.values())

    def test_a_copy_run_to_the_end_leaves_the_original_as_it_was(self):
        for name in ("drive-out", "triangle-2-noisy", "triangle-3-contextual"):
            outcome = outcome_system(PATH_CASES[name]())
            for system in (outcome, outcome.explicit):
                lp = simplex.solve_feasibility(system)._solver
                assert lp.objective_value() > 0
                before = [c[:] for c in lp.inverse], lp.pi[:], lp.v and lp.v[:]
                copy = lp.copy()
                # lists of its own, which its pivots update in place
                assert copy.pi is not lp.pi and (lp.v is None or copy.v is not lp.v)
                copy.widen()
                copy._run()
                assert copy.pivots > lp.pivots
                assert (lp.inverse, lp.pi, lp.v) == before


def full_prices(lp):
    """``C_B . det * B^-1``, then ``C_B . det * B^-1 b`` last, summed over the whole basis."""
    costs = [0 if var < lp.width else 1 for var in lp.basis]
    return [sum(map(operator.mul, costs, column)) for column in lp.inverse]


class TestReadOuts:
    """The multipliers come from the kept ``pi`` and the objective from the basic
    levels; both equal the prices summed afresh over the whole basis."""

    @pytest.mark.parametrize("name", sorted(PATH_CASES))
    def test_read_outs_equal_the_full_prices(self, name, monkeypatch):
        run = simplex._Revised._run
        runs = []

        def spy_run(self):
            run(self)
            prices = full_prices(self)
            multipliers = tuple(F(p, self.det) for p in prices[:-1])
            assert self.multipliers() == multipliers
            assert self.objective_value() == F(prices[-1], self.det * self.rhs_scale)
            runs.append("measure" if self.n > self.width else "verdict")

        monkeypatch.setattr(simplex._Revised, "_run", spy_run)
        outcome = outcome_system(PATH_CASES[name]())
        for system in (outcome, outcome.explicit):
            start = solve_feasibility(system)
            if not start.feasible:
                minimize(start)
        assert runs.count("verdict") == 2
        assert runs.count("measure") == (0 if start.feasible else 2)

    def test_rows_with_unit_scales_are_shared_not_copied(self):
        explicit = outcome_system(PATH_CASES["fig9"]()).explicit
        lp = solve_feasibility(explicit)._solver
        assert lp.sparse is explicit.sparse_rows
        assert lp._entries(0) is explicit.entries(0)
        # a negative right-hand side signs its artificial column, not its row
        signed = LinearSystem([[1, 1, 0], [0, 1, 1]], [1, -1])
        lp = simplex._Revised(signed)
        assert lp.sparse is signed.sparse_rows
        assert lp._entries(1) is signed.entries(1)
        # det * B^-1 starts as S, so the artificials enter as unit columns
        assert lp.inverse == [[1, 0], [0, -1], [1, 1]]
        assert lp._column(lp.n + 1) == [0, 1]


def expanded_system(system):
    """``M*`` of ``system`` as an :class:`OutcomeSystem`; its first pattern fixes no cell."""
    return OutcomeSystem(outcome_space(system), _expanded_rows(system))


class TestEntries:
    """``entries(j)`` is the nonzeros of column ``j`` of the dense matrix, rows ascending."""

    # one-cell scopes, two rows on one (scope, entry), and a pattern fixing no cell
    SHARED = OutcomeSystem(
        (2, 3, 2),
        [({}, F(1)), ({1: 2}, F(0)), ({0: 1}, F(1, 2)), ({1: 2}, F(0)), ({0: 1, 2: 0}, F(1, 4)),
         ({2: 0, 0: 1}, F(1, 4)), ({2: 1}, F(1, 2))],
    )

    @pytest.mark.parametrize(
        "make",
        [
            lambda: TestEntries.SHARED,
            lambda: expanded_system(canonical_example("fig10")),
            lambda: expanded_system(drive_out_system()),
            lambda: outcome_system(drive_out_system()),
            lambda: outcome_system(triangle(3, "noisy")),
            lambda: outcome_system(PATH_CASES["fig9"]()),
        ],
        ids=["shared-keys", "expanded-fig10", "expanded-drive-out", "drive-out", "triangle-3", "fig9"],
    )
    def test_entries_are_the_dense_nonzeros(self, make):
        outcome = make()
        explicit = outcome.explicit
        for system in (outcome, explicit):
            for j, dense in enumerate(zip(*explicit.matrix)):
                assert system.entries(j) == [(i, a) for i, a in enumerate(dense) if a]
            for j in (system.cols, system.cols + 1, -1):
                with pytest.raises(IndexError):
                    system.entries(j)

    def test_rows_hit_agrees_with_the_patterns(self):
        system = self.SHARED
        for values in outcomes(system.sizes):
            hit = [
                i for i, fixed in enumerate(system.patterns)
                if all(values[c] == v for c, v in fixed.items())
            ]
            assert system.rows_hit(values) == hit

    def test_explicit_index_arrays_list_the_columns_each_pattern_marks(self):
        cycles = [outcome_system(flat_cycle(n)) for n in (3, 4, 5)]
        triangles = [outcome_system(triangle(k, "noisy")) for k in (2, 3)]
        for system in cycles + triangles + [self.SHARED]:
            every = list(outcomes(system.sizes))
            explicit = system.explicit
            for fixed, groups, row in zip(system.patterns, explicit.sparse_rows, explicit.matrix):
                ((coefficient, indices),) = groups
                marked = [j for j, v in enumerate(every) if all(v[c] == x for c, x in fixed.items())]
                assert (coefficient, indices.typecode, list(indices)) == (1, "i", marked)
                assert [j for j, a in enumerate(row) if a] == marked
