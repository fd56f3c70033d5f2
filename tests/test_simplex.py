import random
from array import array
from fractions import Fraction

import pytest

from contextuality import LinearSystem, minimize, solve_feasibility
from contextuality.errors import (
    DimensionMismatchError,
    InfeasibleError,
    UnboundedError,
)
from contextuality.simplex import FeasibilityResult, OutcomeSystem
from conftest import rational_rank

F = Fraction
HALF = F(1, 2)


class TestFeasibility:
    def test_identity_system(self):
        s = LinearSystem(((1, 0), (0, 1)), (F(1, 2), F(1, 2)))
        r = solve_feasibility(s)
        assert r.feasible
        assert r.solution == (F(1, 2), F(1, 2))
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


class TestMinimize:
    def test_zero_objective_on_feasible_system(self):
        s = LinearSystem(((1, 1),), (F(1),))
        assert minimize(s, (0, 0)).value == 0

    def test_min_x_on_segment(self):
        s = LinearSystem(((1, 1),), (F(1),))
        r = minimize(s, (1, 0))
        assert r.value == 0
        assert r.solution == (F(0), F(1))

    def test_vertex_attains_value(self):
        s = LinearSystem(((1, 1, 1),), (F(1),))
        r = minimize(s, (F(3), F(1, 2), F(2)))
        assert r.value == F(1, 2)
        assert r.solution == (F(0), F(1), F(0))

    def test_redundant_row_then_phase_two_pivot(self):
        # the third row is the sum of the first two, so phase 1 ends with its
        # artificial basic; phase 2 still has one pivot to make
        s = LinearSystem(((1, 1, 1, 0), (1, 0, 0, 1), (2, 1, 1, 1)), (F(1), HALF, F(3, 2)))
        objective = (F(-1), 2, F(1, 3), 1)
        r = minimize(s, objective)
        assert r.value == F(-1, 3)
        assert r.solution == (HALF, F(0), HALF, F(0))
        assert r.pivots == 3
        # the dropped third row gets y = 0; B^T y = c_B on the basis {x1, x3}
        # over the first two rows gives the rest, and y certifies the value
        assert r.dual == (F(1, 3), F(-4, 3), F(0))
        assert sum(y * b for y, b in zip(r.dual, s.rhs)) == r.value
        for j, c in enumerate(objective):
            assert sum(y * row[j] for y, row in zip(r.dual, s.matrix)) <= c

    def test_driving_out_an_artificial_pivots_on_a_negative_entry(self):
        # the second row reads -x4 = 0, so the two phase-1 pivots leave its
        # artificial basic at zero; driving it out pivots on x4's entry, -1,
        # and phase 2 then brings in x2 on the entry 2
        s = LinearSystem(((-1, 0, -1, -1), (0, 0, 0, -1), (1, 2, 0, 0)), (F(-2), F(0), F(1)))
        r = minimize(s, (2, -1, 0, -1))
        assert r.value == F(-1, 2)
        assert r.solution == (F(0), HALF, F(2), F(0))
        assert r.dual == (F(0), F(1), F(-1, 2))
        assert r.pivots == 4

    def test_non_integer_data_phase_two_prices_the_phase_one_basis(self):
        # matrix, rhs and objective all need scaling (6, 4 and 2); phase 1
        # ends on x1 and x3, whose costs are 1, so phase 2 must price them
        # before its one pivot brings in x2, bounded by 1/3 x2 <= 1/2
        s = LinearSystem(((F(2, 3), F(1, 3), F(3, 2)), (2, HALF, HALF)), (HALF, F(3, 4)))
        r = minimize(s, (1, F(-1, 2), 1))
        assert r.value == F(-3, 4)
        assert r.solution == (F(0), F(3, 2), F(0))
        assert r.pivots == 3

    def test_infeasible_raises_with_certificate(self):
        s = LinearSystem(((1, 1),), (F(-1),))
        with pytest.raises(InfeasibleError) as err:
            minimize(s, (1, 1))
        y = err.value.certificate
        assert y is not None and y[0] * F(-1) > 0

    def test_unbounded_detected(self):
        s = LinearSystem(((1, -1),), (F(0),))
        with pytest.raises(UnboundedError):
            minimize(s, (-1, 0))

    def test_objective_length_checked(self):
        s = LinearSystem(((1, 1),), (F(1),))
        with pytest.raises(DimensionMismatchError):
            minimize(s, (1,))


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

    def test_widened_shares_rows_and_negates_the_second_half(self):
        s = LinearSystem(((0, 2, F(1, 2)),), (F(1),))
        wide = s.widened()
        assert wide.sparse_rows is s.sparse_rows
        assert (wide.rows, wide.cols) == (1, 6)
        assert wide.matrix == ((0, 2, HALF, 0, -2, -HALF),)
        assert [wide.column(j) for j in range(6)] == [[0], [2], [HALF], [0], [-2], [-HALF]]

    def test_widened_certificate_verifies(self):
        # (A | -A) reaches only the range of A, which misses this rhs
        wide = LinearSystem(((1, 1), (1, 1)), (F(1), F(2))).widened()
        result = solve_feasibility(wide)
        assert not result.feasible
        assert result.verify(wide)
        assert not FeasibilityResult("infeasible", None, (F(1), F(-1)), 0).verify(wide)
        assert not FeasibilityResult("infeasible", None, (F(-1), F(0)), 0).verify(wide)


class TestResume:
    """``minimize`` over ``(A | -A)`` resumed from an infeasible phase 1 on ``A``."""

    def test_resumed_solve_matches_the_cold_one(self):
        # Q >= 0 cannot reach x2 = 2 with x1 + x2 = 1; a signed Q can
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        assert not start.feasible
        objective = (0, 0, 1, 1)
        got, want = minimize(s.widened(), objective, start), minimize(s.widened(), objective)
        assert got.value == want.value == 1
        assert got.dual == want.dual == (-1, 1)
        assert got.solution == want.solution == (0, 2, 1, 0)
        # the cold solve runs the same phase 1 on A first
        assert (start.pivots, got.pivots, want.pivots) == (1, 1, 2)

    def test_resuming_leaves_the_start_as_it_was(self):
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        first = minimize(s.widened(), (0, 0, 1, 1), start)
        assert minimize(s.widened(), (0, 0, 1, 1), start) == first
        assert first.pivots == 1
        assert start == solve_feasibility(s)

    def test_a_basis_of_other_rows_is_rejected(self):
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        assert start._basis is not None
        others = [
            LinearSystem(((1, 1), (0, 1)), (F(1), F(3))).widened(),
            # the same width and rhs over other rows
            LinearSystem(((1, 0), (0, 1)), (F(1), F(2))).widened(),
            # the same rows and rhs, but not shared
            LinearSystem(s.matrix, s.rhs).widened(),
        ]
        for other in others:
            with pytest.raises(DimensionMismatchError):
                minimize(other, (0, 0, 1, 1), start)
        # A itself, not widened
        with pytest.raises(DimensionMismatchError):
            minimize(s, (0, 0), start)
        # the phase 1 of (A | -A) itself, not of A
        wide = LinearSystem(((1, 1), (1, 1)), (F(1), F(2))).widened()
        with pytest.raises(DimensionMismatchError):
            minimize(wide, (0, 0, 1, 1), solve_feasibility(wide))

    def test_a_basis_of_the_other_kind_is_rejected(self):
        # mass 2 on the first cell's 0 out of a total of 1: no coupling, but a signed one
        outcome = OutcomeSystem((2, 2), [({}, F(1)), ({0: 0}, F(2))])
        start = solve_feasibility(outcome.explicit)
        assert not start.feasible
        with pytest.raises(DimensionMismatchError):
            minimize(outcome.widened(), (0,) * 4 + (1,) * 4, start)

    @pytest.mark.parametrize(
        "matrix, rhs",
        [
            (((1, 1), (1, 1)), (F(1), F(2))),
            # driving out the first row's artificial leaves the second at level -1
            (((-1,), (-1,)), (F(2), F(1))),
        ],
    )
    def test_rhs_outside_the_column_space_raises_with_a_certificate(self, matrix, rhs):
        # (A | -A) reaches only the range of A, which misses these rhs
        s = LinearSystem(matrix, rhs)
        wide = s.widened()
        for start in (solve_feasibility(s), None):
            with pytest.raises(InfeasibleError) as caught:
                minimize(wide, (0,) * s.cols + (1,) * s.cols, start)
            certificate = caught.value.certificate
            assert FeasibilityResult("infeasible", None, certificate, 0).verify(wide)


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


def assert_dual_is_optimal(system, objective, result):
    """``A^T y <= c`` with equality on the solution's support, and ``y . b == value``."""
    y = result.dual
    assert len(y) == system.rows
    assert sum(a * b for a, b in zip(y, system.rhs)) == result.value
    for j, c in enumerate(objective):
        slack = c - sum(a * row[j] for a, row in zip(y, system.matrix))
        assert slack >= 0
        assert slack == 0 or not result.solution[j]


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
                objective = tuple(rng.randint(0, 3) for _ in range(cols))
                systems = [system]
                if rows >= 2:
                    # a last row summing the first two is redundant whenever the
                    # system is feasible, so phase 1 leaves an artificial to drop
                    total = tuple(a + b for a, b in zip(*system.matrix[:2]))
                    if any(total):
                        systems.append(LinearSystem(
                            system.matrix + (total,), system.rhs + (sum(system.rhs[:2]),)
                        ))
                for s in systems:
                    feasible = solve_feasibility(s).feasible
                    try:
                        result = minimize(s, objective)
                    except InfeasibleError:
                        assert not feasible
                    else:
                        assert feasible
                        assert all(x >= 0 for x in result.solution)
                        assert all(
                            sum(a * x for a, x in zip(row, result.solution)) == b
                            for row, b in zip(s.matrix, s.rhs)
                        )
                        assert_dual_is_optimal(s, objective, result)
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
    def test_classic_cycling_instance_terminates_at_optimum(self):
        # heavily degenerate instance known to cycle under naive pivoting;
        # the stall fallback must reach the optimum
        system = LinearSystem(
            (
                (F(1, 4), -60, F(-1, 25), 9, 1, 0, 0),
                (F(1, 2), -90, F(-1, 50), 3, 0, 1, 0),
                (0, 0, 1, 0, 0, 0, 1),
            ),
            (F(0), F(0), F(1)),
        )
        result = minimize(system, (F(-3, 4), 150, F(-1, 50), 6, 0, 0, 0))
        assert result.value == F(-1, 20)
        assert result.solution[0] == F(1, 25)
        assert result.solution[2] == 1

    def test_degenerate_feasibility(self):
        system = LinearSystem(((1, 1, 0), (0, 1, 1)), (F(0), F(0)))
        result = solve_feasibility(system)
        assert result.feasible
        assert result.solution == (F(0), F(0), F(0))


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
