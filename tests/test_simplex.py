import dataclasses
import random
from array import array
from fractions import Fraction

import pytest

from contextuality import LinearSystem, minimize, solve_feasibility
from contextuality.errors import DimensionMismatchError, InfeasibleError
from contextuality.simplex import FEASIBLE, FeasibilityResult, OutcomeSystem, _Revised, satisfies
from conftest import expand, moved_on, rational_rank

F = Fraction
HALF = F(1, 2)


class TestFeasibility:
    def test_identity_system(self):
        s = LinearSystem(((1, 0), (0, 1)), (F(1, 2), F(1, 2)))
        r = solve_feasibility(s)
        assert r.feasible
        assert (r.support, r.solution) == ((0, 1), (F(1, 2), F(1, 2)))
        assert r.verify(s)

    def test_negative_rhs_certificate(self):
        s = LinearSystem(((1, 1),), (F(-1),))
        r = solve_feasibility(s)
        assert not r.feasible
        assert r.certificate == (F(-1),)
        assert r.verify(s)

    def test_conflicting_equalities(self):
        s = LinearSystem(((1, 1), (1, 1)), (F(1), F(2)))
        r = solve_feasibility(s)
        assert not r.feasible
        assert r.verify(s)

    def test_redundant_rows_are_fine(self):
        s = LinearSystem(((1, 1), (2, 2)), (F(1), F(2)))
        r = solve_feasibility(s)
        assert r.feasible and r.verify(s)


def assert_least_negative_mass(system, result):
    """``A q = b``, and the dual ``y`` proves ``sum q-`` least: ``-1 <= A^T y <= 0``,
    ``y . A_j`` at 0 where ``q_j > 0`` and at -1 where ``q_j < 0``, and ``y . b == sum q-``."""
    q, y = expand(result, system.cols), result.dual
    assert len(q) == system.cols and len(y) == system.rows
    for row, b in zip(system.matrix, system.rhs):
        assert sum(a * x for a, x in zip(row, q)) == b
    for j, x in enumerate(q):
        price = sum(w * row[j] for w, row in zip(y, system.matrix))
        assert -1 <= price <= 0
        assert price == (0 if x > 0 else -1) or not x
    assert sum(w * b for w, b in zip(y, system.rhs)) == result.value
    assert result.value == sum(-x for x in q if x < 0)


class TestMinimize:
    """The least negative mass ``sum Q-`` over signed ``Q`` with ``A Q = b``."""

    def test_redundant_row_then_phase_two_pivot(self):
        # the third row is the sum of the first two; driving the artificials
        # out pivots x1 and x2 in and leaves the third row's artificial basic
        # at zero on a zero row, so the row is dropped; x2 sits at -1, so -x2
        # takes its place, and phase 2 still has one pivot to make, on x4
        s = LinearSystem(((1, 1, 1, 0), (1, 0, 0, 1), (2, 1, 1, 1)), (F(-1), HALF, -HALF))
        r = minimize(s)
        assert r.value == 1
        assert (r.support, r.solution) == ((1, 3), (F(-1), HALF))
        assert r.pivots == 3
        # the dropped third row gets y = 0
        assert r.dual == (F(-1), F(0), F(0))
        assert_least_negative_mass(s, r)

    def test_driving_out_an_artificial_pivots_on_a_negative_entry(self):
        # the second row reads -x4 = 0, so the two phase-1 pivots leave its
        # artificial basic at zero; driving it out pivots on x4's entry, -1,
        # and the vertex is nonnegative, so phase 2 has no pivot to make
        s = LinearSystem(((-1, 0, -1, -1), (0, 0, 0, -1), (1, 2, 0, 0)), (F(-2), F(0), F(1)))
        r = minimize(s)
        assert r.value == 0
        assert (r.support, r.solution) == ((0, 2), (F(1), F(1)))
        assert r.dual == (F(0), F(0), F(0))
        assert r.pivots == 3
        assert_least_negative_mass(s, r)

    def test_non_integer_data_phase_two_prices_the_phase_one_basis(self):
        # matrix and rhs need scaling (6 and 4); phase 1 ends on x1 with the
        # first row's artificial basic, which leaves on x2 at a negative level,
        # so -x2 takes its place; phase 2's one pivot brings in -x3, whose
        # cost is the structural scale 6, or the value would read 6 times less
        s = LinearSystem(((F(2, 3), F(1, 3), F(3, 2)), (2, HALF, HALF)), (-HALF, F(3, 4)))
        r = minimize(s)
        assert r.value == F(9, 16)
        assert (r.support, r.solution) == ((0, 2), (F(33, 64), F(-9, 16)))
        assert r.dual == (F(-3, 4), F(1, 4))
        assert r.pivots == 3
        assert_least_negative_mass(s, r)


def shifted_on_a_zero_row(dual, by):
    """``dual`` with ``by`` added on the cycle's second row, whose rhs is 0, so ``y . b``
    is kept and every ``y . A_j`` in that row leaves ``[-1, 0]``."""
    return (dual[0], dual[1] + by, *dual[2:])


class TestSparseWitness:
    """A solution is a strictly ascending support within the columns and one nonzero
    value per index.  Each malformed witness below is turned away by that shape
    check, before any column is asked for: a column outside the system raises
    ``IndexError``, and a repeated or unsorted index would substitute twice."""

    # one binary cell, one row: the masses sum to 1
    OUTCOME = OutcomeSystem((2,), [({}, F(1))])

    def test_a_well_formed_witness_passes(self):
        for system in (self.OUTCOME, self.OUTCOME.explicit):
            assert satisfies(system, (0, 1), (HALF, HALF))
            assert FeasibilityResult(FEASIBLE, (HALF, HALF), None, 0, (0, 1)).verify(system)

    @pytest.mark.parametrize(
        "support, values, signed_solution",
        [
            ((1, 2), (HALF, HALF), False),
            ((-1,), (F(1),), False),
            ((0, 0), (HALF, HALF), False),
            ((1, 0), (HALF, HALF), False),
            ((0, 1), (F(1),), False),
            ((0, 1), (F(1), F(0)), False),
            # a signed solution, as the measure's vertex may be, but no coupling
            ((0, 1), (F(2), F(-1)), True),
        ],
        ids=[
            "index-equal-to-cols", "negative-index", "repeated-index", "unsorted",
            "lengths-differ", "zero-mass", "negative-mass",
        ],
    )
    def test_a_malformed_witness_is_rejected(self, support, values, signed_solution):
        for system in (self.OUTCOME, self.OUTCOME.explicit):
            assert satisfies(system, support, values) == signed_solution
            assert not FeasibilityResult(FEASIBLE, values, None, 0, support).verify(system)

    # the measure's LP on the rank-2 cycle: cells 0 and 1 perfectly correlated
    # in one context, 2 and 3 anticorrelated in the other, and each content's
    # two cells (0 and 2, 1 and 3) coupled to agree; the least negative mass is 1/2
    CYCLE = OutcomeSystem(
        (2, 2, 2, 2),
        [({0: a, 1: b}, HALF * (a == b)) for a in (0, 1) for b in (0, 1)]
        + [({2: a, 3: b}, HALF * (a != b)) for a in (0, 1) for b in (0, 1)]
        + [({p: v, p + 2: v}, HALF) for p in (0, 1) for v in (0, 1)],
    )

    def test_the_measure_vertex_and_dual_pass(self):
        for system in (self.CYCLE, self.CYCLE.explicit):
            result = minimize(system)
            assert result.value == HALF
            assert result.verify(system)

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda r: dict(zip(("support", "solution"), moved_on(r.support, r.solution))),
            lambda r: {"dual": tuple(2 * y for y in r.dual)},
            lambda r: {"dual": tuple(-y for y in r.dual)},
            lambda r: {"value": r.value + 1},
            # each below fails one check alone: that the vertex attains the
            # value, then A^T y <= 0, then -1 <= A^T y
            lambda r: {"dual": tuple(y / 2 for y in r.dual), "value": r.value / 2},
            lambda r: {"dual": shifted_on_a_zero_row(r.dual, 2)},
            lambda r: {"dual": shifted_on_a_zero_row(r.dual, -2)},
        ],
        ids=[
            "vertex-moved-on", "dual-doubled", "dual-negated", "value-plus-one",
            "dual-and-value-halved", "dual-raised", "dual-lowered",
        ],
    )
    def test_a_corrupted_measure_result_is_rejected(self, corrupt):
        for system in (self.CYCLE, self.CYCLE.explicit):
            result = minimize(system)
            assert not dataclasses.replace(result, **corrupt(result)).verify(system)


class TestValidation:
    def test_zero_row_rejected(self):
        with pytest.raises(DimensionMismatchError):
            LinearSystem(((0, 0),), (F(0),))

    def test_rhs_length_checked(self):
        with pytest.raises(DimensionMismatchError):
            LinearSystem(((1, 0),), (F(1), F(1)))

    def test_ragged_rows_rejected(self):
        with pytest.raises(DimensionMismatchError):
            LinearSystem(((1, 0), (1,)), (F(1), F(1)))


class TestSparseRows:
    def test_dense_rows_become_groups_of_ascending_indices(self):
        s = LinearSystem(((0, 2, F(1, 2), 2), (1, 0, 0, 0)), (F(1), F(0)))
        assert s.sparse_rows == (
            ((2, array("i", [1, 3])), (HALF, array("i", [2]))),
            ((1, array("i", [0])),),
        )
        assert s.matrix == ((0, 2, HALF, 2), (1, 0, 0, 0))
        assert s.column(3) == [2, 0]
        assert (s.rows, s.cols) == (2, 4)
        assert s.label is None


class TestColumns:
    """``column(j)`` of either kind, and the entering column formed from it."""

    # two binary cells; the second row fixes the first cell at 0
    OUTCOME = OutcomeSystem((2, 2), [({}, F(1)), ({0: 0}, HALF)])

    def test_an_outcome_system_has_no_column_outside_its_width(self):
        # the strides would read 4 as column 0 and -1 as column 3
        assert self.OUTCOME.column(3) == [1, 0]
        for j in (4, -1):
            with pytest.raises(IndexError):
                self.OUTCOME.column(j)

    def test_neither_kind_labels_a_column_outside_its_width(self):
        # the strides would decode 4 as (0, 0) and -1 as (1, 1)
        for s in (self.OUTCOME, self.OUTCOME.explicit):
            assert s.label(3) == (1, 1)
            for j in (4, -1):
                with pytest.raises(IndexError):
                    s.label(j)

    def test_a_linear_system_has_no_column_outside_its_width(self):
        s = LinearSystem(((0, 2, HALF, 2), (1, 0, 0, 0)), (F(1), F(0)))
        assert s.column(0) == [0, 1]
        for j in (4, 5, -1):
            with pytest.raises(IndexError):
                s.column(j)

    def test_each_column_matches_the_dense_matrix(self):
        zero_columns = 0
        for seed, entry in ((31, boolean_entry), (32, rational_entry)):
            rng = random.Random(seed)
            for _ in range(60):
                system = random_system(rng, rng.randint(1, 6), rng.randint(1, 8), entry)
                for j, dense in enumerate(zip(*system.matrix)):
                    assert system.column(j) == list(dense)
                    zero_columns += not any(dense)
        assert zero_columns

    def test_an_all_zero_column_enters_as_zeros(self):
        # column 1 is zero in both rows, so no column of det * B^-1 is summed
        s = LinearSystem(((1, 0, 1), (0, 0, 2)), (F(1), F(2)))
        lp = _Revised(s)
        assert lp._column(1) == [0, 0]
        lp._run()
        assert lp.objective_value() == 0 and lp.pivots and lp._column(1) == [0, 0]


class TestResume:
    """``minimize`` resumed from an infeasible phase 1 on ``A``."""

    def test_resumed_solve_matches_the_cold_one(self):
        # Q >= 0 cannot reach x2 = 2 with x1 + x2 = 1; a signed Q can
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        assert not start.feasible
        got, want = minimize(s, start), minimize(s)
        assert got.value == want.value == 1
        assert got.dual == want.dual == (-1, 1)
        assert (got.support, got.solution) == (want.support, want.solution) == ((0, 1), (-1, 2))
        # the cold solve runs the same phase 1 on A first
        assert (start.pivots, got.pivots, want.pivots) == (1, 1, 2)

    def test_resuming_leaves_the_start_as_it_was(self):
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        first = minimize(s, start)
        assert minimize(s, start) == first
        assert first.pivots == 1
        assert start == solve_feasibility(s)

    def test_a_basis_of_other_rows_is_rejected(self):
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        assert start._solver is not None
        others = [
            LinearSystem(((1, 1), (0, 1)), (F(1), F(3))),
            # the same width and rhs over other rows
            LinearSystem(((1, 0), (0, 1)), (F(1), F(2))),
            # the same rows and rhs, but not shared
            LinearSystem(s.matrix, s.rhs),
        ]
        for other in others:
            with pytest.raises(DimensionMismatchError):
                minimize(other, start)

    def test_a_basis_of_the_other_kind_is_rejected(self):
        # mass 2 on the first cell's 0 out of a total of 1: no coupling, but a signed one
        outcome = OutcomeSystem((2, 2), [({}, F(1)), ({0: 0}, F(2))])
        start = solve_feasibility(outcome.explicit)
        assert not start.feasible
        with pytest.raises(DimensionMismatchError):
            minimize(outcome, start)

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            (((1, 1), (1, 1)), (F(1), F(2))),
            # driving out the first row's artificial leaves the second at level -1
            (((-1,), (-1,)), (F(2), F(1))),
        ],
    )
    def test_rhs_outside_the_column_space_raises_with_a_certificate(self, matrix, rhs):
        # a signed Q reaches only the range of A, which misses these rhs
        s = LinearSystem(matrix, rhs)
        for start in (solve_feasibility(s), None):
            with pytest.raises(InfeasibleError) as caught:
                minimize(s, start)
            y = caught.value.certificate
            assert all(sum(w * a for w, a in zip(y, column)) == 0 for column in zip(*s.matrix))
            assert sum(w * b for w, b in zip(y, s.rhs)) > 0


def boolean_entry(rng):
    return rng.randint(0, 1)


def rational_entry(rng):
    """Signed, with denominators up to 6, so the columns need a common scale."""
    return F(rng.randint(-4, 6), rng.randint(1, 6))


def random_system(rng, rows, cols, entry):
    matrix = []
    for _ in range(rows):
        row = [entry(rng) for _ in range(cols)]
        if not any(row):
            row[rng.randrange(cols)] = 1
        matrix.append(tuple(row))
    rhs = tuple(F(rng.randint(-4, 8), rng.randint(1, 9)) for _ in range(rows))
    return LinearSystem(tuple(matrix), rhs)


class TestRandomizedSelfChecks:
    def test_every_result_verifies_and_respects_pivot_cap(self):
        for seed, entry in ((2024, boolean_entry), (2025, rational_entry)):
            rng = random.Random(seed)
            feasible = infeasible = 0
            for _ in range(200):
                rows = rng.randint(1, 6)
                cols = rng.randint(1, 8)
                system = random_system(rng, rows, cols, entry)
                result = solve_feasibility(system)
                assert result.verify(system)
                if result.feasible:
                    feasible += 1
                else:
                    infeasible += 1
            assert feasible and infeasible

    def test_feasibility_and_minimize_agree(self):
        redundant_optima = 0
        for seed, entry in ((77, boolean_entry), (78, rational_entry)):
            rng = random.Random(seed)
            for _ in range(120):
                rows = rng.randint(1, 5)
                cols = rng.randint(1, 7)
                system = random_system(rng, rows, cols, entry)
                systems = [system]
                if rows >= 2:
                    # a last row summing the first two is redundant whenever b
                    # is in the column space, so an artificial is left to drop
                    total = tuple(a + b for a, b in zip(*system.matrix[:2]))
                    if any(total):
                        systems.append(LinearSystem(
                            system.matrix + (total,), system.rhs + (sum(system.rhs[:2]),)
                        ))
                for s in systems:
                    start = solve_feasibility(s)
                    spanned = rational_rank(s.matrix) == rational_rank(
                        [row + (b,) for row, b in zip(s.matrix, s.rhs)]
                    )
                    try:
                        result = minimize(s)
                    except InfeasibleError as cold:
                        assert not spanned
                        with pytest.raises(InfeasibleError) as resumed:
                            minimize(s, start)
                        assert resumed.value.certificate == cold.certificate
                        continue
                    assert spanned
                    assert_least_negative_mass(s, result)
                    assert (result.value == 0) == start.feasible
                    resumed = minimize(s, start)
                    assert (
                        resumed.value, resumed.support, resumed.solution, resumed.dual
                    ) == (result.value, result.support, result.solution, result.dual)
                    assert start.pivots + resumed.pivots == result.pivots
                    redundant_optima += s is not system
        assert redundant_optima

    def test_determinism(self):
        for entry in (boolean_entry, rational_entry):
            rng = random.Random(5)
            system = random_system(rng, 5, 9, entry)
            first = solve_feasibility(system)
            second = solve_feasibility(system)
            assert first == second


class TestPivotRule:
    def test_artificials_compete_on_true_reduced_costs(self):
        # In phase 1 the artificial columns compete with the structural ones
        # for entry.  The structural columns of this matrix are stored times
        # 6 to clear denominators; pricing must undo that before comparing
        # the two kinds, or the run takes a fourth pivot.
        system = LinearSystem(
            (
                (3, 2, 1),
                (1, -1, F(5, 2)),
                (-1, 0, 5),
                (F(-5, 6), 6, 1),
                (1, F(5, 2), -1),
                (F(5, 3), -2, 1),
            ),
            (F(-4), F(5, 7), F(6), F(7, 9), F(2, 7), F(-1, 2)),
        )
        result = solve_feasibility(system)
        assert not result.feasible
        assert result.verify(system)
        assert result.certificate == (-1, F(-19, 32), 1, F(-33, 64), 1, -1)
        assert result.pivots == 3


class TestDegeneracy:
    def test_degenerate_feasibility(self):
        system = LinearSystem(((1, 1, 0), (0, 1, 1)), (F(0), F(0)))
        result = solve_feasibility(system)
        assert result.feasible
        assert (result.support, result.solution) == ((), ())


class TestRank:
    def test_known_ranks(self):
        assert rational_rank(((1, 2, 3), (2, 4, 6), (0, 1, 1))) == 2
        assert rational_rank(((1, 0), (0, 1))) == 2
        assert rational_rank(((F(1, 3), F(1, 6)),)) == 1

    def test_rank_bounded_by_shape(self):
        rng = random.Random(3)
        for _ in range(20):
            rows = rng.randint(1, 5)
            cols = rng.randint(1, 5)
            matrix = [
                tuple(F(rng.randint(-3, 3)) for _ in range(cols)) for _ in range(rows)
            ]
            assert rational_rank(matrix) <= min(rows, cols)
