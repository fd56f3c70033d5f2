import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Distribution,
    LinearSystem,
    maximal_coupling_diagonal,
    maximal_coupling_full,
    solve_feasibility,
)
from contextuality.errors import AlphabetMismatchError, EmptyInputError

F = Fraction


def arity1(*masses):
    return Distribution((len(masses),), {(v,): m for v, m in enumerate(masses)})


class TestDiagonal:
    def test_three_binary_members(self):
        spec = maximal_coupling_diagonal(
            [arity1("0.3", "0.7"), arity1("0.4", "0.6"), arity1("0.7", "0.3")]
        )
        assert spec.diagonal_masses == (F(3, 10), F(3, 10))
        assert spec.coincidence_probability == F(3, 5)

    def test_identical_members_have_coincidence_one(self):
        m = arity1("0.3", "0.2", "0.5")
        spec = maximal_coupling_diagonal([m, m])
        assert spec.diagonal_masses == (F(3, 10), F(1, 5), F(1, 2))
        assert spec.coincidence_probability == 1

    def test_disjoint_point_masses(self):
        spec = maximal_coupling_diagonal([arity1(1, 0), arity1(0, 1)])
        assert spec.diagonal_masses == (0, 0)
        assert spec.coincidence_probability == 0

    def test_alphabet_mismatch(self):
        with pytest.raises(AlphabetMismatchError):
            maximal_coupling_diagonal([arity1(1, 0), arity1(1, 0, 0)])
        with pytest.raises(EmptyInputError):
            maximal_coupling_diagonal([])


class TestFullCompletion:
    def test_identical_members_give_diagonal_matrix(self):
        m = arity1("0.3", "0.2", "0.5")
        joint = maximal_coupling_full(maximal_coupling_diagonal([m, m]))
        assert joint.masses == {
            (0, 0): F(3, 10),
            (1, 1): F(1, 5),
            (2, 2): F(1, 2),
        }

    def test_deterministic_members_give_point_mass(self):
        joint = maximal_coupling_full(
            maximal_coupling_diagonal([arity1(1, 0), arity1(1, 0)])
        )
        assert joint.masses == {(0, 0): F(1)}

    def test_three_member_marginals_reproduced_exactly(self):
        marginals = [arity1("0.3", "0.7"), arity1("0.4", "0.6"), arity1("0.7", "0.3")]
        spec = maximal_coupling_diagonal(marginals)
        joint = maximal_coupling_full(spec)
        # brute-force summation per member and value
        for i, member in enumerate(marginals):
            for v in range(2):
                total = sum(
                    mass for value, mass in joint.masses.items() if value[i] == v
                )
                assert total == member.mass((v,))
        assert joint.mass((0, 0, 0)) == F(3, 10)
        assert joint.mass((1, 1, 1)) == F(3, 10)

    def test_single_member_couples_with_itself(self):
        m = arity1("0.3", "0.7")
        spec = maximal_coupling_diagonal([m])
        assert spec.coincidence_probability == 1
        assert maximal_coupling_full(spec) == m


@st.composite
def marginal_lists(draw):
    k = draw(st.integers(1, 4))
    count = draw(st.integers(1, 4))
    out = []
    for _ in range(count):
        weights = draw(st.lists(st.integers(0, 6), min_size=k, max_size=k).filter(sum))
        total = sum(weights)
        out.append(arity1(*(F(w, total) for w in weights)))
    return out


@given(marginal_lists())
@settings(max_examples=120, deadline=None)
def test_completion_properties(marginals):
    spec = maximal_coupling_diagonal(marginals)
    k = spec.alphabet_size
    n = spec.member_count
    assert spec.coincidence_probability == sum(
        min(m.mass((v,)) for m in marginals) for v in range(k)
    )
    joint = maximal_coupling_full(spec)
    for v in range(k):
        assert joint.mass((v,) * n) == spec.diagonal_masses[v]
    for i, member in enumerate(marginals):
        assert joint.marginal((i,)) == member
    if all(m == marginals[0] for m in marginals):
        assert all(len(set(value)) == 1 for value in joint.masses)


@given(marginal_lists().filter(lambda ms: len(ms) == 2 and ms[0].alphabet_sizes[0] <= 3))
@settings(max_examples=60, deadline=None)
def test_two_member_coincidence_is_lp_optimal(marginals):
    """Independent check: the coupling polytope with ``sum_v x_vv`` fixed at the spec's
    coincidence is feasible, and with it fixed any higher it is infeasible."""
    first, second = marginals
    k = first.alphabet_sizes[0]
    pairs = list(itertools.product(range(k), repeat=2))
    rows = []
    rhs = []
    for v in range(k):
        rows.append(tuple(1 if a == v else 0 for a, _ in pairs))
        rhs.append(first.mass((v,)))
    for v in range(k):
        rows.append(tuple(1 if b == v else 0 for _, b in pairs))
        rhs.append(second.mass((v,)))
    rows.append(tuple(1 if a == b else 0 for a, b in pairs))
    coincidence = maximal_coupling_diagonal(marginals).coincidence_probability
    for excess, feasible in ((0, True), (F(1, 10**9), False), (F(1, 2), False)):
        polytope = LinearSystem(tuple(rows), tuple(rhs) + (coincidence + excess,))
        result = solve_feasibility(polytope)
        assert result.feasible == feasible
        assert result.verify(polytope)
