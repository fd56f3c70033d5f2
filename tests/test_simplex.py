import dataclasses
import random
from array import array
from fractions import Fraction

import pytest

from contextuality import LinearSystem, minimize, solve_feasibility
from contextuality.errors import DimensionMismatchError, InfeasibleError, ValidationError
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
        start = solve_feasibility(s)
        r = minimize(start)
        assert r.value == 1
        assert (r.support, r.solution) == ((1, 3), (F(-1), HALF))
        assert start.pivots + r.pivots == 3
        # the dropped third row gets y = 0
        assert r.dual == (F(-1), F(0), F(0))
        assert_least_negative_mass(s, r)

    def test_driving_out_an_artificial_pivots_on_a_negative_entry(self):
        # the second row reads -x4 = 0, so the two phase-1 pivots leave its
        # artificial basic at zero; driving it out pivots on x4's entry, -1,
        # and the vertex is nonnegative, so phase 2 has no pivot to make
        s = LinearSystem(((-1, 0, -1, -1), (0, 0, 0, -1), (1, 2, 0, 0)), (F(-2), F(0), F(1)))
        start = solve_feasibility(s)
        r = minimize(start)
        assert r.value == 0
        assert (r.support, r.solution) == ((0, 2), (F(1), F(1)))
        assert r.dual == (F(0), F(0), F(0))
        assert start.pivots + r.pivots == 3
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
            result = minimize(solve_feasibility(system))
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
            result = minimize(solve_feasibility(system))
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

    @pytest.mark.parametrize("coefficient", [HALF, "1/3", "0.5", 1.0, True, None])
    def test_a_non_integer_coefficient_is_rejected_by_its_row_and_column(self, coefficient):
        with pytest.raises(ValidationError, match="row 1, column 2"):
            LinearSystem(((1, 0, 1), (0, 1, coefficient)), (F(1), HALF))

    def test_sparse_rows_take_int_coefficients_only(self):
        rows = [((1, array("i", [0, 1])),), ((HALF, array("i", [1])),)]
        with pytest.raises(ValidationError, match="row 1, column 1"):
            LinearSystem.from_sparse(rows, (F(1), HALF), 2)

    def test_integral_coefficients_are_stored_as_int(self):
        s = LinearSystem(((F(4, 2), "3", -1),), (HALF,))
        assert s.matrix == ((2, 3, -1),)
        assert all(type(x) is int for x in s.matrix[0])
        # the right-hand side stays rational, of any sign
        assert LinearSystem(((1,), (2,)), ("-1/3", F(3, 4))).rhs == (F(-1, 3), F(3, 4))


class TestSparseRows:
    def test_dense_rows_become_groups_of_ascending_indices(self):
        s = LinearSystem(((0, 2, -3, 2), (1, 0, 0, 0)), (F(1), F(0)))
        assert s.sparse_rows == (
            ((2, array("i", [1, 3])), (-3, array("i", [2]))),
            ((1, array("i", [0])),),
        )
        assert s.matrix == ((0, 2, -3, 2), (1, 0, 0, 0))
        assert s.entries(3) == [(0, 2)]
        assert (s.rows, s.cols) == (2, 4)
        assert s.label is None


class TestColumns:
    """``entries(j)`` of either kind, and the entering column formed from it."""

    # two binary cells; the second row fixes the first cell at 0
    OUTCOME = OutcomeSystem((2, 2), [({}, F(1)), ({0: 0}, HALF)])

    def test_an_outcome_system_has_no_column_outside_its_width(self):
        # the strides would read 4 as column 0 and -1 as column 3
        assert self.OUTCOME.entries(3) == [(0, 1)]
        for j in (4, -1):
            with pytest.raises(IndexError):
                self.OUTCOME.entries(j)

    def test_neither_kind_labels_a_column_outside_its_width(self):
        # the strides would decode 4 as (0, 0) and -1 as (1, 1)
        for s in (self.OUTCOME, self.OUTCOME.explicit):
            assert s.label(3) == (1, 1)
            for j in (4, -1):
                with pytest.raises(IndexError):
                    s.label(j)

    def test_a_linear_system_has_no_column_outside_its_width(self):
        s = LinearSystem(((0, 2, -3, 2), (1, 0, 0, 0)), (F(1), F(0)))
        assert s.entries(0) == [(1, 1)]
        for j in (4, 5, -1):
            with pytest.raises(IndexError):
                s.entries(j)

    def test_each_column_matches_the_dense_matrix(self):
        zero_columns = 0
        for seed, entry in ((31, boolean_entry), (32, integer_entry)):
            rng = random.Random(seed)
            for _ in range(60):
                system = random_system(rng, rng.randint(1, 6), rng.randint(1, 8), entry)
                for j, dense in enumerate(zip(*system.matrix)):
                    assert system.entries(j) == [(i, a) for i, a in enumerate(dense) if a]
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
        # the cold solve runs its own phase 1 on A before continuing it
        cold_start = solve_feasibility(s)
        got, want = minimize(start), minimize(cold_start)
        assert got.value == want.value == 1
        assert got.dual == want.dual == (-1, 1)
        assert (got.support, got.solution) == (want.support, want.solution) == ((0, 1), (-1, 2))
        assert (start.pivots, got.pivots) == (1, 1)
        assert cold_start.pivots + want.pivots == 2

    def test_resuming_leaves_the_start_as_it_was(self):
        s = LinearSystem(((1, 1), (0, 1)), (F(1), F(2)))
        start = solve_feasibility(s)
        first = minimize(start)
        assert minimize(start) == first
        assert first.pivots == 1
        assert start == solve_feasibility(s)

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
        with pytest.raises(InfeasibleError) as caught:
            minimize(solve_feasibility(s))
        y = caught.value.certificate
        assert all(sum(w * a for w, a in zip(y, column)) == 0 for column in zip(*s.matrix))
        assert sum(w * b for w, b in zip(y, s.rhs)) > 0


def boolean_entry(rng):
    return rng.randint(0, 1)


def integer_entry(rng):
    """Signed, and mostly other than 0 and 1, so coefficients group by value."""
    return rng.randint(-4, 6)


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
        for seed, entry in ((2024, boolean_entry), (2025, integer_entry)):
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
        for seed, entry in ((77, boolean_entry), (78, integer_entry)):
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
                        result = minimize(start)
                    except InfeasibleError as outside:
                        assert not spanned
                        y = outside.certificate
                        assert all(
                            sum(w * a for w, a in zip(y, column)) == 0 for column in zip(*s.matrix)
                        )
                        assert sum(w * b for w, b in zip(y, s.rhs)) > 0
                        continue
                    assert spanned
                    assert_least_negative_mass(s, result)
                    assert (result.value == 0) == start.feasible
                    redundant_optima += s is not system
        assert redundant_optima

    def test_determinism(self):
        for entry in (boolean_entry, integer_entry):
            rng = random.Random(5)
            system = random_system(rng, 5, 9, entry)
            first = solve_feasibility(system)
            second = solve_feasibility(system)
            assert first == second


def measured(start):
    """``minimize``'s result, or the certificate of the ``InfeasibleError`` it raises."""
    try:
        return minimize(start)
    except InfeasibleError as error:
        return error.certificate


class TestRowSigns:
    """A row's sign is read only at its artificial column: negating rows, ``A_i``
    together with ``b_i``, takes the same pivots to the same answers, and each
    witness over the rows changes sign at those rows alone.

    Only rows with ``b_i != 0`` are negated: a row at ``b_i = 0`` starts with
    its artificial ``+1`` whatever its sign, so its negation starts another LP.
    """

    def test_negated_rows_negate_only_their_witness_entries(self):
        kinds = {"feasible": 0, "certificate": 0, "outside the column space": 0, "measured": 0}
        for seed, entry in ((41, boolean_entry), (42, integer_entry)):
            rng = random.Random(seed)
            for _ in range(150):
                system = random_system(rng, rng.randint(1, 5), rng.randint(1, 7), entry)
                if system.rows >= 2 and rng.random() < 0.3:
                    # a redundant last row, so phase 1 may leave an artificial to drop
                    total = tuple(a + b for a, b in zip(*system.matrix[:2]))
                    if any(total):
                        system = LinearSystem(
                            system.matrix + (total,), system.rhs + (sum(system.rhs[:2]),)
                        )
                signs = [rng.choice((1, -1)) if b else 1 for b in system.rhs]
                negated = LinearSystem(
                    [[s * a for a in row] for s, row in zip(signs, system.matrix)],
                    [s * b for s, b in zip(signs, system.rhs)],
                )

                def signed(y):
                    return tuple(s * x for s, x in zip(signs, y))

                want, got = solve_feasibility(system), solve_feasibility(negated)
                assert (got.status, got.pivots, got.support, got.solution) == (
                    want.status, want.pivots, want.support, want.solution
                )
                if want.feasible:
                    kinds["feasible"] += 1
                else:
                    assert got.certificate == signed(want.certificate)
                    kinds["certificate"] += any(x and s < 0 for s, x in zip(signs, want.certificate))
                expected, result = measured(want), measured(got)
                if isinstance(expected, tuple):
                    assert result == signed(expected)
                    kinds["outside the column space"] += 1
                    continue
                assert (result.value, result.pivots, result.support, result.solution) == (
                    expected.value, expected.pivots, expected.support, expected.solution
                )
                assert result.dual == signed(expected.dual)
                kinds["measured"] += any(y and s < 0 for s, y in zip(signs, expected.dual))
        assert all(kinds.values()), kinds


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
