import itertools
import random
from fractions import Fraction

import pytest

from contextuality import (
    QuasiCoupling,
    build_associated_system,
    build_expanded_system,
    contextuality_measure,
    decide_contextuality,
    outcome_space,
    rank2_family,
    rational_rank,
    validate_system,
    verify_quasi_coupling,
)
from contextuality.errors import DimensionMismatchError, OutcomeSpaceTooLargeError
from conftest import random_cyclic_system, random_small_system

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
        assert linear.column_labels == tuple(outcomes)
        assert (linear.rows, linear.cols) == (22, 108)
        assert [list(map(int, row)) for row in linear.matrix] == rows
        assert list(linear.rhs) == rhs

    def test_columns_are_lexicographic_outcomes(self, rank2_contextual):
        linear = build_associated_system(rank2_contextual)
        labels = linear.column_labels
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

    def test_rejects_malformed_completion(self, rank2_contextual):
        from contextuality import Distribution

        bad = {
            "q1": Distribution((2,), {(0,): HALF, (1,): HALF}),
            "q2": Distribution((2,), {(0,): HALF, (1,): HALF}),
        }
        with pytest.raises(DimensionMismatchError):
            build_expanded_system(rank2_contextual, completions=bad)


class TestMeasure:
    def test_rank2_total_variation_two(self, rank2_contextual):
        result = contextuality_measure(rank2_contextual)
        assert result.total_variation == 2
        assert result.measure == 1
        report = verify_quasi_coupling(rank2_contextual, result.witness)
        assert report.all_passed

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
            assert (result.measure == 0) == (not contextual)
            assert result.witness.total_mass == 1
            assert verify_quasi_coupling(s, result.witness).all_passed


class TestVerification:
    def test_minimal_tv_solution_verifies_with_tv_two(self, rank2_contextual):
        space = outcome_space(rank2_contextual)
        quasi = QuasiCoupling(dict(zip(space.outcomes(), SOLUTION_B)))
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
        masses = dict(zip(space.outcomes(), SOLUTION_B))
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
