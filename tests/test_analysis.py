import itertools
import random
from fractions import Fraction

import pytest

from contextuality import (
    Content,
    QuasiCoupling,
    build_associated_system,
    build_expanded_system,
    canonical_example,
    contextuality_measure,
    cyclic_system_from_correlations,
    decide_contextuality,
    detect_cycles,
    evaluate_criterion,
    outcome_space,
    rank2_family,
    validate_system,
    verify_quasi_coupling,
)
from contextuality.analysis import _constraint_rows, _expanded_rows
from contextuality.errors import DimensionMismatchError, OutcomeSpaceTooLargeError
from contextuality.simplex import FeasibilityResult, LinearSystem, minimize, solve_feasibility
from conftest import (
    assert_dual_certifies,
    expand,
    outcomes,
    parity_grid,
    random_boundary_cyclic,
    random_cyclic_system,
    random_small_system,
    rational_rank,
)

F = Fraction
HALF = F(1, 2)

# Expected constraint matrix of the two-context binary system under the
# canonical column order (first cell most significant, value 0 first).
# Rows: four bunch values per context, then per content the two
# constant-pair rows.
RANK2_MATRIX = [
    [1 if j // 4 == 0 else 0 for j in range(16)],
    [1 if j // 4 == 1 else 0 for j in range(16)],
    [1 if j // 4 == 2 else 0 for j in range(16)],
    [1 if j // 4 == 3 else 0 for j in range(16)],
    [1 if j % 4 == 0 else 0 for j in range(16)],
    [1 if j % 4 == 1 else 0 for j in range(16)],
    [1 if j % 4 == 2 else 0 for j in range(16)],
    [1 if j % 4 == 3 else 0 for j in range(16)],
    [1 if j in (0, 1, 4, 5) else 0 for j in range(16)],
    [1 if j in (10, 11, 14, 15) else 0 for j in range(16)],
    [1 if j in (0, 2, 8, 10) else 0 for j in range(16)],
    [1 if j in (5, 7, 13, 15) else 0 for j in range(16)],
]
RANK2_RHS = [HALF, 0, 0, HALF, 0, HALF, HALF, 0, HALF, HALF, HALF, HALF]

# Expected expanded matrix M* of the same system.  Cells in canonical order
# are (c1, q1), (c1, q2), (c2, q1), (c2, q2), so outcome j sets the cells to
# the binary digits of j, most significant first.  Rows: all ones; value 0 of
# each cell; value (0, 0) of each bunch; then the constant-0 pair of q1 and
# of q2 (the top value 1 is omitted throughout).
RANK2_EXPANDED = [
    [1] * 16,
    [1 if j // 8 == 0 else 0 for j in range(16)],
    [1 if j // 4 % 2 == 0 else 0 for j in range(16)],
    [1 if j // 2 % 2 == 0 else 0 for j in range(16)],
    [1 if j % 2 == 0 else 0 for j in range(16)],
    [1 if j // 4 == 0 else 0 for j in range(16)],
    [1 if j % 4 == 0 else 0 for j in range(16)],
    [1 if j in (0, 1, 4, 5) else 0 for j in range(16)],
    [1 if j in (0, 2, 8, 10) else 0 for j in range(16)],
]

# A known signed solution of the expanded system for that system.
SOLUTION_A = [0, 0, 0, HALF, 0, HALF, 0, -HALF, 0, 0, HALF, -HALF, 0, 0, 0, HALF]

# A known solution attaining the minimum total variation (exactly 2).
SOLUTION_B = [
    F(35, 256), F(69, 256), F(11, 32), F(-1, 4),
    F(-1, 8), F(7, 32), F(-1, 16), F(-1, 32),
    F(-1, 128), F(-1, 64), F(7, 256), F(-1, 256),
    F(-1, 256), F(7, 256), F(49, 256), F(73, 256),
]


def dot(row, vec):
    return sum(a * b for a, b in zip(row, vec))


def particular_solution(system):
    """Any real solution of ``matrix . x = rhs`` by exact elimination.

    Free variables are set to zero.  Assumes consistent rows (full row rank
    in our uses); returns None when elimination finds a contradiction.
    """
    rows = [list(map(F, row)) + [b] for row, b in zip(system.matrix, system.rhs)]
    cols = system.cols
    pivots = []
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        rows[rank] = [x / lead for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
    for i in range(rank, len(rows)):
        if rows[i][-1]:
            return None
    x = [F(0)] * cols
    for i, col in enumerate(pivots):
        x[col] = rows[i][-1]
    return x


class TestAssociatedSystem:
    def test_rank2_matrix_row_for_row(self, rank2_contextual):
        linear = build_associated_system(rank2_contextual)
        assert (linear.rows, linear.cols) == (12, 16)
        assert [list(map(int, row)) for row in linear.matrix] == RANK2_MATRIX
        assert list(linear.rhs) == RANK2_RHS

    def test_row_order_with_ternary_three_member_connection(self):
        # Contexts sort x < y < z, but hold the contents in another pattern;
        # bunch tables follow each context's given content order.
        sizes = {"a": 3, "b": 2, "c": 2}
        given = {"z": ("b", "a"), "y": ("a",), "x": ("c", "a")}
        tables = {
            "z": {(0, 0): F(1, 6), (0, 2): F(1, 3), (1, 1): F(1, 4), (1, 2): F(1, 4)},
            "y": {(0,): F(1, 5), (1,): F(1, 2), (2,): F(3, 10)},
            "x": {(0, 1): F(1, 3), (1, 0): F(1, 4), (1, 2): F(1, 6), (0, 2): F(1, 4)},
        }
        system = validate_system(sizes, {c: list(q) for c, q in given.items()}, tables)
        cells = [("x", "a"), ("x", "c"), ("y", "a"), ("z", "a"), ("z", "b")]
        outcomes = list(itertools.product(*(range(sizes[q]) for _, q in cells)))

        def indicator(fixed):
            return [
                int(all(o[cells.index(cell)] == v for cell, v in fixed.items()))
                for o in outcomes
            ]

        def marginal(context, content, value):
            i = given[context].index(content)
            return sum((m for t, m in tables[context].items() if t[i] == value), F(0))

        rows, rhs = [], []
        for context in ("x", "y", "z"):
            held = sorted(given[context])
            for value in itertools.product(*(range(sizes[q]) for q in held)):
                rows.append(indicator({(context, q): v for q, v in zip(held, value)}))
                as_given = tuple(value[held.index(q)] for q in given[context])
                rhs.append(tables[context].get(as_given, F(0)))
        for content, members in (("a", "xyz"), ("b", "z"), ("c", "x")):
            for l in range(sizes[content]):
                rows.append(indicator({(ctx, content): l for ctx in members}))
                rhs.append(min(marginal(ctx, content, l) for ctx in members))

        linear = build_associated_system(system)
        assert [linear.label(j) for j in range(linear.cols)] == outcomes
        assert (linear.rows, linear.cols) == (22, 108)
        assert [list(map(int, row)) for row in linear.matrix] == rows
        assert list(linear.rhs) == rhs

    def test_columns_are_lexicographic_outcomes(self, rank2_contextual):
        linear = build_associated_system(rank2_contextual)
        labels = [linear.label(j) for j in range(linear.cols)]
        assert labels == list(outcomes(outcome_space(rank2_contextual)))
        assert labels[0] == (0, 0, 0, 0)
        assert labels[1] == (0, 0, 0, 1)
        assert labels[4] == (0, 1, 0, 0)
        assert labels[8] == (1, 0, 0, 0)
        assert labels[15] == (1, 1, 1, 1)

    def test_single_binary_variable(self):
        s = validate_system(
            {"q": 2}, {"c": ["q"]}, {"c": {(0,): "0.3", (1,): "0.7"}}
        )
        linear = build_associated_system(s)
        assert (linear.rows, linear.cols) == (4, 2)
        assert decide_contextuality(s).contextual is False

    def test_rank3_shape(self, rank3_contextual):
        linear = build_associated_system(rank3_contextual)
        assert (linear.rows, linear.cols) == (18, 64)

    def test_bunch_rows_of_a_context_sum_to_ones(self, rank3_contextual):
        linear = build_associated_system(rank3_contextual)
        # first context occupies the first four rows
        summed = [sum(col) for col in zip(*linear.matrix[0:4])]
        assert summed == [1] * linear.cols
        verdict = decide_contextuality(rank2_family(HALF))
        assert sum(verdict.coupling.masses.values()) == 1

    def test_column_cap(self, rank3_contextual):
        with pytest.raises(OutcomeSpaceTooLargeError):
            build_associated_system(rank3_contextual, max_columns=32)
        with pytest.raises(OutcomeSpaceTooLargeError):
            decide_contextuality(rank3_contextual, max_columns=32)

    def test_column_cap_boundary_is_inclusive(self, rank3_contextual):
        linear = build_associated_system(rank3_contextual, max_columns=64)
        assert linear.cols == 64


class TestVerdicts:
    def test_rank2_contextual_with_sound_certificate(self, rank2_contextual):
        verdict = decide_contextuality(rank2_contextual)
        assert verdict.contextual
        linear = build_associated_system(rank2_contextual)
        y = verdict.certificate
        for j in range(linear.cols):
            assert sum(y[i] * linear.matrix[i][j] for i in range(linear.rows)) <= 0
        assert sum(y[i] * linear.rhs[i] for i in range(linear.rows)) > 0

    def test_rank3_contextual(self, rank3_contextual):
        assert decide_contextuality(rank3_contextual).contextual

    def test_equal_bunches_noncontextual(self):
        verdict = decide_contextuality(rank2_family(HALF))
        assert not verdict.contextual
        coupling = verdict.coupling
        assert sum(coupling.masses.values()) == 1

    def test_noncontextual_coupling_reproduces_constraints(self):
        s = rank2_family(HALF)
        verdict = decide_contextuality(s)
        assert not verdict.contextual
        report = verify_quasi_coupling(s, QuasiCoupling(verdict.coupling.masses))
        assert report.all_passed
        assert QuasiCoupling(verdict.coupling.masses).total_variation == 1


class TestExpandedSystem:
    def test_rank2_shape_and_rhs(self, rank2_contextual):
        expanded = build_expanded_system(rank2_contextual)
        assert (expanded.rows, expanded.cols) == (9, 16)
        assert list(expanded.rhs) == [1, HALF, HALF, HALF, HALF, HALF, 0, HALF, HALF]
        assert all(x == 1 for x in expanded.matrix[0])

    def test_rank2_matrix_row_for_row(self, rank2_contextual):
        expanded = build_expanded_system(rank2_contextual)
        assert [list(row) for row in expanded.matrix] == RANK2_EXPANDED
        assert all(type(x) is int for row in expanded.matrix for x in row)

    def test_rank2_full_row_rank(self, rank2_contextual):
        expanded = build_expanded_system(rank2_contextual)
        assert rational_rank(expanded.matrix) == 9

    def test_known_solution_satisfies_both_systems(self, rank2_contextual):
        expanded = build_expanded_system(rank2_contextual)
        linear = build_associated_system(rank2_contextual)
        for row, b in zip(expanded.matrix, expanded.rhs):
            assert dot(row, SOLUTION_A) == b
        for row, b in zip(linear.matrix, linear.rhs):
            assert dot(row, SOLUTION_A) == b

    def test_every_expanded_solution_solves_original(self, rank2_contextual):
        rng = random.Random(31)
        systems = [rank2_contextual, rank2_family(F(1, 8))]
        systems += [random_small_system(rng) for _ in range(6)]
        for s in systems:
            expanded = build_expanded_system(s)
            x = particular_solution(expanded)
            assert x is not None
            assert sum(x) == 1
            linear = build_associated_system(s)
            for row, b in zip(linear.matrix, linear.rhs):
                assert dot(row, x) == b

    def test_full_row_rank_on_random_instances(self):
        rng = random.Random(13)
        for _ in range(8):
            s = random_small_system(rng)
            expanded = build_expanded_system(s)
            assert rational_rank(expanded.matrix) == expanded.rows

    def test_ternary_three_member_connection(self):
        # one content shared by all three contexts, three-valued alphabets:
        # exercises third-order coupling marginals and top-value exclusion
        third = F(1, 3)
        s = validate_system(
            {"q1": 3, "q2": 3},
            {"c1": ["q1", "q2"], "c2": ["q1"], "c3": ["q1", "q2"]},
            {
                "c1": {(0, 0): third, (1, 1): third, (2, 2): third},
                "c2": {(0,): third, (1,): third, (2,): third},
                "c3": {(0, 2): third, (1, 0): third, (2, 1): third},
            },
        )
        expanded = build_expanded_system(s)
        # rows: 1 ones row + 5 cells * 2 single-cell rows + 2 bunches * 4
        # pair rows + q1 coupling (3 pair blocks of 4, one triple block of 8)
        # + q2 coupling (one pair block of 4)
        assert expanded.cols == 3**5
        assert expanded.rows == 1 + 10 + 8 + (12 + 8) + 4
        assert rational_rank(expanded.matrix) == expanded.rows
        x = particular_solution(expanded)
        assert x is not None and sum(x) == 1
        linear = build_associated_system(s)
        for row, b in zip(linear.matrix, linear.rhs):
            assert dot(row, x) == b


class TestMeasure:
    def test_rank2_total_variation_two(self, rank2_contextual):
        result = contextuality_measure(rank2_contextual)
        assert result.total_variation == 2
        assert result.measure == 1
        report = verify_quasi_coupling(rank2_contextual, result.witness)
        assert report.all_passed

    def test_dual_failing_substitution_raises(self, rank2_contextual, monkeypatch):
        import dataclasses

        from contextuality import analysis
        from contextuality.errors import SolverError

        solve = analysis.minimize

        def doubled_dual(*args):
            result = solve(*args)
            return dataclasses.replace(result, dual=tuple(2 * y for y in result.dual))

        monkeypatch.setattr(analysis, "minimize", doubled_dual)
        with pytest.raises(SolverError, match="dual"):
            contextuality_measure(rank2_contextual)

    def test_family_sweep_is_linear_in_p(self):
        for p in (F(0), F(1, 8), F(1, 4), F(3, 8), HALF):
            result = contextuality_measure(rank2_family(p))
            assert result.total_variation == 2 * (1 - p)
            verdict = decide_contextuality(rank2_family(p))
            assert verdict.contextual == (p != HALF)

    def test_noncontextual_measure_zero(self):
        result = contextuality_measure(rank2_family(HALF))
        assert result.total_variation == 1
        assert result.measure == 0
        assert all(m > 0 for m in result.witness.masses.values())

    def test_measure_zero_iff_noncontextual_on_random_corpus(self):
        rng = random.Random(99)
        systems = [random_cyclic_system(rng, rng.choice((2, 3)), 16) for _ in range(12)]
        systems += [random_small_system(rng, 8) for _ in range(8)]
        for s in systems:
            contextual = decide_contextuality(s).contextual
            result = contextuality_measure(s)
            assert result.verdict.contextual == contextual
            assert (result.measure == 0) == (not contextual)
            assert result.witness.total_mass == 1
            assert verify_quasi_coupling(s, result.witness).all_passed
            assert_dual_certifies(s, result)

    def test_cycles_match_closed_form(self):
        # On a cyclic system of rank n the measure is max(0, delta) / (2(n - 1)).
        rng = random.Random(31)
        contextual = 0
        for rank in (2, 3, 4):
            for _ in range(12):
                for system in (random_cyclic_system(rng, rank), random_boundary_cyclic(rng, rank)):
                    crit = evaluate_criterion(detect_cycles(system)[0], system)
                    result = contextuality_measure(system)
                    assert result.measure == max(0, crit.delta) / (2 * (rank - 1))
                    assert_dual_certifies(system, result)
                    contextual += crit.contextual
        assert 0 < contextual < 72

    def test_rank12_measure_lists_no_hidden_outcome(self):
        # 4^12 hidden outcomes: a vector over them would take hundreds of MiB,
        # while the witness is read from the basis, at most one mass per row
        import tracemalloc

        rank = 12
        system = cyclic_system_from_correlations([F(-9, 10)] + [F(9, 10)] * (rank - 1))
        crit = evaluate_criterion(detect_cycles(system)[0], system)
        tracemalloc.start()
        try:
            result = contextuality_measure(system, max_columns=4**rank)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.measure == (crit.lhs - crit.rhs) / (2 * (rank - 1)) == F(2, 55)
        assert peak < 4 << 20


class TestVerification:
    def test_minimal_tv_solution_verifies_with_tv_two(self, rank2_contextual):
        space = outcome_space(rank2_contextual)
        quasi = QuasiCoupling(dict(zip(outcomes(space), SOLUTION_B)))
        assert quasi.total_mass == 1
        assert quasi.total_variation == 2
        report = verify_quasi_coupling(rank2_contextual, quasi)
        assert report.all_passed

    def test_all_zero_masses_fail_first_check(self, rank2_contextual):
        report = verify_quasi_coupling(rank2_contextual, {})
        assert not report.all_passed
        assert not report.check("total_mass").passed

    def test_wrong_bunch_mass_reported(self, rank2_contextual):
        space = outcome_space(rank2_contextual)
        masses = dict(zip(outcomes(space), SOLUTION_B))
        masses[(0, 0, 0, 0)] += F(1, 4)
        masses[(0, 0, 0, 1)] -= F(1, 4)
        report = verify_quasi_coupling(rank2_contextual, masses)
        assert report.check("total_mass").passed
        assert not report.check("bunch_marginals").passed
        assert report.check("bunch_marginals").violations

    def test_outcome_shape_checked(self, rank2_contextual):
        with pytest.raises(DimensionMismatchError):
            verify_quasi_coupling(rank2_contextual, {(0, 0): F(1)})

    def test_float_masses_rejected_everywhere(self, rank2_contextual):
        from contextuality.errors import ValidationError

        with pytest.raises(ValidationError):
            QuasiCoupling({(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5})
        with pytest.raises(ValidationError):
            verify_quasi_coupling(
                rank2_contextual, {(0, 0, 0, 0): 0.5, (1, 1, 1, 1): 0.5}
            )

    @pytest.mark.parametrize("zero", ["0", "0/3", "0.0"])
    def test_zero_masses_given_as_strings_are_dropped(self, zero):
        quasi = QuasiCoupling({(0,): zero, (1,): "1"})
        assert quasi.masses == {(1,): 1}
        assert quasi.total_variation == 1


def contextual_triangle(k):
    """A contextual triangle of the benchmark's measure workload.

    Three pair contexts over ``k``-valued contents, two perfectly correlated
    and one shifted by one value, and one uniform context: over all three
    contents when binary (512 outcomes), over ``q1`` alone when ternary
    (2,187 outcomes).
    """
    def pair(shift):
        return {(v, (v + shift) % k): F(1, k) for v in range(k)}

    extra = ["q1", "q2", "q3"] if k == 2 else ["q1"]
    return validate_system(
        [Content(q, k) for q in ("q1", "q2", "q3")],
        {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"], "c4": extra},
        {
            "c1": pair(0), "c2": pair(0), "c3": pair(1),
            "c4": {v: F(1, k ** len(extra)) for v in itertools.product(range(k), repeat=len(extra))},
        },
    )


def _masses(masses):
    """``{"0101...": "1/16"}`` as ``{(0, 1, 0, 1, ...): Fraction(1, 16)}``."""
    return {tuple(map(int, outcome)): F(mass) for outcome, mass in masses.items()}


class TestPinnedSolverPaths:
    """Exact answers on LPs of hundreds of columns: the verdict as phase 1
    gives it, the measure as phase 2 resumed from the verdict gives it.

    A vertex, a dual and a pivot count are all fixed by the pivot path, so a
    solver change that alters the path on an analysis-scale LP fails here.
    """

    def test_rank5_noncontextual_cycle_coupling(self):
        verdict = decide_contextuality(cyclic_system_from_correlations([HALF] * 5))
        assert not verdict.contextual
        assert verdict.pivots == 45
        assert verdict.coupling.masses == _masses({
            "0000000000": "1/8", "0000011101": "1/8", "0001111000": "1/8",
            "0110000000": "1/8", "1000000010": "1/8", "1111100111": "1/8",
            "1111111111": "1/4",
        })

    def test_contextual_binary_triangle_measure(self):
        result = contextuality_measure(contextual_triangle(2))
        assert result.verdict.contextual
        assert result.verdict.pivots == 24
        assert result.pivots == 35
        assert result.total_variation == F(3, 2)
        assert result.measure == HALF
        fifths = (-1, -2, -2, -1, 0, -1, -1, 0, -1, 0, 0, -1, -1, -1, 0, -1, -1, 0, -1, -1)
        assert result.dual == tuple(F(k, 5) for k in fifths + (1,) * 6)
        assert result.witness.masses == _masses({
            "000000000": "7/64", "000001000": "3/64", "000001101": "3/32",
            "000010000": "1/64", "000101001": "3/32", "001101001": "1/16",
            "001101011": "5/64", "010111000": "-3/64", "011011100": "-1/16",
            "011101011": "7/64", "100010100": "1/8", "100010101": "1/64",
            "100100110": "-1/32", "100100111": "-1/64", "101000011": "-1/16",
            "101011001": "-1/32", "110010010": "1/32", "110010100": "1/16",
            "111010110": "5/32", "111101101": "1/64", "111110010": "3/32",
            "111111111": "9/64",
        })


class TestParityGrid:
    """The Peres-Mermin square: which context is odd changes neither the
    verdict nor, by much, the cost of reaching it."""

    def test_every_odd_context_is_contextual_at_a_like_cost(self):
        pivots = []
        for odd in ("r0", "r1", "r2", "s0", "s1", "s2"):
            verdict = decide_contextuality(parity_grid(3, odd))
            assert verdict.contextual
            pivots.append(verdict.pivots)
        # the lexicographic ratio test takes 380-762 pivots; Bland's
        # tie-break and fallback took 526-19,861
        assert 2 * max(pivots) <= 5 * min(pivots)

    def test_the_measure_is_one_seventh(self):
        assert contextuality_measure(parity_grid(3, "r0")).measure == F(1, 7)

    def test_the_all_even_square_is_noncontextual(self):
        assert not decide_contextuality(parity_grid(3)).contextual


RESUMED_CASES = {
    **{
        f"cycle-{rank}": lambda rank=rank: cyclic_system_from_correlations(
            [F(-9, 10)] + [F(9, 10)] * (rank - 1)
        )
        for rank in range(3, 9)
    },
    "fig9": lambda: canonical_example("fig9"),
    "fig10": lambda: canonical_example("fig10"),
    "binary-triangle": lambda: contextual_triangle(2),
    "ternary-triangle": lambda: contextual_triangle(3),
}


class TestResumedMeasure:
    """The measure resumed from the verdict's phase 1 against a cold solve of its LP."""

    @pytest.mark.parametrize("name", sorted(RESUMED_CASES))
    def test_resumed_measure_matches_the_cold_solve(self, name):
        system = RESUMED_CASES[name]()
        linear = build_associated_system(system)
        cold = minimize(linear)
        result = contextuality_measure(system)
        assert result.verdict.contextual
        assert result.measure == 2 * cold.value
        assert cold.verify(linear)
        cycles = detect_cycles(system)
        if isinstance(cycles, list):
            crit = evaluate_criterion(cycles[0], system)
            assert result.measure == crit.delta / (2 * (crit.rank - 1))
        # the cold solve takes the same path: the verdict's phase 1, then the measure's pivots
        assert cold.pivots == result.verdict.pivots + result.pivots
        assert cold.dual == result.dual
        if name == "cycle-8":
            # a phase 1 over both halves of (M | -M) takes 392 pivots
            assert result.pivots < 392


def dense_system(system, rows):
    """The system of ``(fixed cells, rhs)`` patterns built densely, one 0/1 entry per outcome."""
    labels = tuple(outcomes(outcome_space(system)))
    patterns = list(rows(system))
    matrix = [
        [int(all(outcome[pos] == value for pos, value in fixed.items())) for outcome in labels]
        for *_, fixed, _ in patterns
    ]
    return LinearSystem(matrix, [mass for *_, mass in patterns])


SPARSE_CASES = {
    "fig9": lambda: canonical_example("fig9"),
    "fig10": lambda: canonical_example("fig10"),
    "rank3-cycle": lambda: cyclic_system_from_correlations([F(9, 10), F(9, 10), F(-1, 10)]),
    "ternary-triangle": lambda: contextual_triangle(3),
}


class TestSparseRows:
    """The pattern-built rows and the measure's ``(M | -M)`` against dense construction."""

    @pytest.mark.parametrize("name", sorted(SPARSE_CASES))
    def test_pattern_rows_match_dense_construction(self, name):
        system = SPARSE_CASES[name]()
        for build, rows in (
            (build_associated_system, _constraint_rows),
            (build_expanded_system, _expanded_rows),
        ):
            linear, dense = build(system), dense_system(system, rows)
            assert linear.matrix == dense.matrix
            assert linear.rhs == dense.rhs
            decoded = [linear.label(j) for j in range(linear.cols)]
            assert decoded == list(outcomes(outcome_space(system)))
        linear = build_associated_system(system)
        rebuilt = LinearSystem(linear.matrix, linear.rhs)
        assert solve_feasibility(linear) == solve_feasibility(rebuilt)

    def test_a_unary_content_adds_no_row_to_the_expanded_system(self):
        # a content with one value fixes no outcome, so neither its marginals
        # nor its connection's add a row: M* stays fig9's 9x16 of rank 9
        fig9 = canonical_example("fig9")
        unary = validate_system(
            {**{q.label: q.size for q in fig9.contents}, "u": 1},
            {c: [*fig9.context_contents(c), "u"] for c in fig9.contexts},
            {c: {v + (0,): x for v, x in fig9.bunches[c].masses.items()} for c in fig9.contexts},
        )
        expanded, base = build_expanded_system(unary), build_expanded_system(fig9)
        assert (expanded.rows, expanded.cols) == (9, 16)
        assert rational_rank(expanded.matrix) == 9
        assert (expanded.matrix, expanded.rhs) == (base.matrix, base.rhs)

    @pytest.mark.parametrize(
        "system", [canonical_example("fig9"), contextual_triangle(2)], ids=["fig9", "binary-triangle"]
    )
    def test_shared_negated_half_matches_dense_widening(self, system):
        linear = build_associated_system(system)
        dense = LinearSystem(tuple(row + tuple(-x for x in row) for row in linear.matrix), linear.rhs)
        n = linear.cols
        objective = (F(0),) * n + (F(1),) * n
        got = minimize(linear)
        # the signed vertex, split into its halves, solves the dense (M | -M)
        q = expand(got, n)
        split = tuple(max(x, 0) for x in q) + tuple(max(-x, 0) for x in q)
        support = tuple(j for j, x in enumerate(split) if x)
        values = tuple(split[j] for j in support)
        assert FeasibilityResult("feasible", values, None, 0, support).verify(dense)
        assert sum(split[n:]) == got.value
        assert all(
            sum(y * a for y, a in zip(got.dual, column)) <= c
            for column, c in zip(zip(*dense.matrix), objective)
        )
        assert sum(y * b for y, b in zip(got.dual, dense.rhs)) == got.value
        # M built from dense rows takes the same pivots
        rebuilt = minimize(LinearSystem(linear.matrix, linear.rhs))
        assert (got.value, got.support, got.solution, got.dual, got.pivots) == (
            rebuilt.value, rebuilt.support, rebuilt.solution, rebuilt.dual, rebuilt.pivots
        )
