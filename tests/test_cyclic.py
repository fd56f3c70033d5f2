import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import (
    Content,
    Distribution,
    NotCyclic,
    decide_contextuality,
    detect_cycles,
    evaluate_criterion,
    expectation,
    product_expectation,
    rank2_family,
    s_odd,
    validate_system,
)
from contextuality.errors import EmptyInputError, NotBinaryError
from conftest import random_cyclic_system, s_odd_bruteforce

F = Fraction
HALF = F(1, 2)


class TestSOdd:
    def test_worked_examples(self):
        assert s_odd([5, 6]) == 1
        assert s_odd([5, -6]) == 11
        assert s_odd([1, 2, -3, -10, 100]) == 114

    def test_single_argument(self):
        assert s_odd([7]) == -7
        assert s_odd([-7]) == 7
        assert s_odd([0]) == 0

    def test_zero_absorbs_the_parity_flip(self):
        assert s_odd([0, 5]) == 5
        assert s_odd([3, 0, 4]) == 7

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            s_odd([])

    @given(
        st.lists(
            st.fractions(min_value=-20, max_value=20, max_denominator=16),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_closed_form_equals_bruteforce(self, xs):
        assert s_odd(xs) == s_odd_bruteforce(xs)


def arity1(p_plus):
    p = F(p_plus)
    return Distribution((2,), {(0,): p, (1,): 1 - p})


class TestExpectations:
    def test_expectation_values(self):
        assert expectation(arity1(HALF)) == 0
        assert expectation(arity1("0.7")) == F(2, 5)
        assert expectation(arity1(1)) == 1

    def test_expectation_respects_coding(self):
        assert expectation(arity1("0.7"), plus_index=1) == -F(2, 5)

    def test_expectation_requires_binary(self):
        with pytest.raises(NotBinaryError):
            expectation(Distribution((3,), {(0,): F(1)}))

    def test_product_expectation_values(self):
        correlated = Distribution((2, 2), {(0, 0): HALF, (1, 1): HALF})
        anticorrelated = Distribution((2, 2), {(0, 1): HALF, (1, 0): HALF})
        independent = Distribution(
            (2, 2), {(a, b): F(1, 4) for a in range(2) for b in range(2)}
        )
        assert product_expectation(correlated) == 1
        assert product_expectation(anticorrelated) == -1
        assert product_expectation(independent) == 0

    def test_product_expectation_requires_binary_pair(self):
        with pytest.raises(NotBinaryError):
            product_expectation(Distribution((2,), {(0,): F(1)}))


class TestDetection:
    def test_rank2(self, rank2_contextual):
        views = detect_cycles(rank2_contextual)
        assert [v.rank for v in views] == [2]
        assert views[0].contents == ("q1", "q2")
        assert views[0].contexts == ("c1", "c2")

    def test_rank3(self, rank3_contextual):
        (view,) = detect_cycles(rank3_contextual)
        assert view.rank == 3
        assert view.contents == ("q1", "q2", "q3")
        assert view.contexts == ("c1", "c2", "c3")

    def test_three_variable_bunch_violates_context_size(self):
        s = validate_system(
            {"q1": 2, "q2": 2, "q3": 2},
            {"c1": ["q1", "q2"], "c2": ["q1", "q2", "q3"], "c3": ["q1", "q3"]},
            {
                "c1": {(0, 0): HALF, (1, 1): HALF},
                "c2": {(0, 0, 0): HALF, (1, 1, 1): HALF},
                "c3": {(0, 0): HALF, (1, 1): HALF},
            },
        )
        result = detect_cycles(s)
        assert isinstance(result, NotCyclic)
        assert result.condition == "CYC1"

    def test_content_in_three_contexts_violates_cyc2(self):
        s = validate_system(
            {"q1": 2, "q2": 2, "q3": 2, "q4": 2},
            {
                "c1": ["q1", "q2"],
                "c2": ["q1", "q3"],
                "c3": ["q1", "q4"],
                "c4": ["q2", "q3"],
                "c5": ["q2", "q4"],  # leaves q3, q4 in two contexts, q1/q2 in three
            },
            {
                c: {(0, 0): HALF, (1, 1): HALF}
                for c in ("c1", "c2", "c3", "c4", "c5")
            },
        )
        result = detect_cycles(s)
        assert isinstance(result, NotCyclic)
        assert result.condition == "CYC2"

    def test_nonbinary_violates_cyc3(self):
        s = validate_system(
            {"q1": 3, "q2": 3},
            {"c1": ["q1", "q2"], "c2": ["q1", "q2"]},
            {
                "c1": {(0, 0): HALF, (2, 2): HALF},
                "c2": {(1, 1): HALF, (2, 2): HALF},
            },
        )
        result = detect_cycles(s)
        assert isinstance(result, NotCyclic)
        assert result.condition == "CYC3"

    def test_walk_normalization_with_unordered_labels(self):
        half = HALF
        s = validate_system(
            {"z": 2, "a": 2, "m": 2},
            {"k1": ["m", "a"], "k2": ["z", "m"], "k3": ["a", "z"]},
            {
                "k1": {(0, 0): half, (1, 1): half},
                "k2": {(0, 0): half, (1, 1): half},
                "k3": {(0, 0): half, (1, 1): half},
            },
        )
        (view,) = detect_cycles(s)
        assert view.contents == ("a", "m", "z")
        assert view.contexts == ("k1", "k2", "k3")

    def test_disjoint_cycles_split(self):
        bunch = {(0, 0): HALF, (1, 1): HALF}
        s = validate_system(
            {"q1": 2, "q2": 2, "q3": 2, "q4": 2},
            {
                "c1": ["q1", "q2"],
                "c2": ["q1", "q2"],
                "c3": ["q3", "q4"],
                "c4": ["q3", "q4"],
            },
            {c: dict(bunch) for c in ("c1", "c2", "c3", "c4")},
        )
        views = detect_cycles(s)
        assert [(v.contents, v.contexts) for v in views] == [
            (("q1", "q2"), ("c1", "c2")),
            (("q3", "q4"), ("c3", "c4")),
        ]


class TestCriterion:
    def test_rank2_contextual(self, rank2_contextual):
        (view,) = detect_cycles(rank2_contextual)
        report = evaluate_criterion(view, rank2_contextual)
        assert (report.lhs, report.rhs, report.delta) == (2, 0, 2)
        assert report.contextual
        assert report.consistent

    def test_rank3_contextual(self, rank3_contextual):
        (view,) = detect_cycles(rank3_contextual)
        report = evaluate_criterion(view, rank3_contextual)
        assert report.product_expectations == (1, 1, -F(1, 5))
        assert report.lhs == F(11, 5)
        assert report.rhs == 1
        assert report.contextual

    def test_boundary_counts_as_noncontextual(self):
        report_at_half = evaluate_criterion(
            detect_cycles(rank2_family(HALF))[0], rank2_family(HALF)
        )
        assert report_at_half.delta <= 0
        assert not report_at_half.contextual

    def test_equal_product_expectations_never_contextual(self):
        # rank-2 systems with equal correlations are noncontextual no matter
        # how inconsistent the marginals are
        rng = random.Random(123)
        for _ in range(30):
            e_target = F(rng.randint(-8, 8), 8)
            bunches = {}
            for context in ("c1", "c2"):
                alpha = F(rng.randint(0, 16), 16)
                beta = F(rng.randint(0, 16), 16)
                agree = (1 + e_target) / 2
                disagree = (1 - e_target) / 2
                bunches[context] = {
                    (0, 0): alpha * agree,
                    (1, 1): (1 - alpha) * agree,
                    (0, 1): beta * disagree,
                    (1, 0): (1 - beta) * disagree,
                }
            s = validate_system(
                {"q1": 2, "q2": 2},
                {"c1": ["q1", "q2"], "c2": ["q1", "q2"]},
                bunches,
            )
            (view,) = detect_cycles(s)
            report = evaluate_criterion(view, s)
            assert report.lhs <= report.rhs
            assert not report.contextual
            assert not decide_contextuality(s).contextual

    def test_consistent_systems_have_rhs_n_minus_2(self):
        rng = random.Random(8)
        for rank in (2, 3, 4, 5):
            correlations = [F(rng.randint(-4, 4), 4) for _ in range(rank)]
            contents = [Content(f"q{i}", 2) for i in range(1, rank + 1)]
            contexts = {f"c{i}": [f"q{i}", f"q{i % rank + 1}"] for i in range(1, rank + 1)}
            bunches = {}
            for i, context in enumerate(sorted(contexts)):
                e = correlations[i]
                bunches[context] = {
                    (0, 0): (1 + e) / 4,
                    (1, 1): (1 + e) / 4,
                    (0, 1): (1 - e) / 4,
                    (1, 0): (1 - e) / 4,
                }
            s = validate_system(contents, contexts, bunches)
            (view,) = detect_cycles(s)
            report = evaluate_criterion(view, s)
            assert report.consistent
            assert report.rhs == rank - 2

    def test_relabeling_preserves_the_verdict(self):
        # renaming contents reverses the walk orientation; delta is unchanged
        rng = random.Random(17)
        for _ in range(10):
            s = random_cyclic_system(rng, 4)
            (view,) = detect_cycles(s)
            base = evaluate_criterion(view, s)
            renames = {"q1": "q1", "q2": "q4", "q3": "q3", "q4": "q2"}
            ctx_renames = {"c1": "c4", "c2": "c3", "c3": "c2", "c4": "c1"}
            contents = [Content(renames[c.label], 2) for c in s.contents]
            contexts = {}
            bunches = {}
            for context in s.contexts:
                cols = [renames[q] for q in s.context_contents(context)]
                contexts[ctx_renames[context]] = cols
                bunches[ctx_renames[context]] = dict(s.bunches[context].masses)
            relabeled = validate_system(contents, contexts, bunches)
            (view2,) = detect_cycles(relabeled)
            again = evaluate_criterion(view2, relabeled)
            assert again.delta == base.delta
            assert again.lhs == base.lhs

    def test_coding_flip_preserves_the_verdict(self):
        rng = random.Random(29)
        for _ in range(10):
            s = random_cyclic_system(rng, 3)
            (view,) = detect_cycles(s)
            base = evaluate_criterion(view, s)
            flipped_contents = [
                Content(c.label, 2, c.values, 1 - c.plus_index) if c.label == "q2"
                else c
                for c in s.contents
            ]
            flipped = validate_system(
                flipped_contents,
                {c: list(s.context_contents(c)) for c in s.contexts},
                {c: dict(s.bunches[c].masses) for c in s.contexts},
            )
            again = evaluate_criterion(detect_cycles(flipped)[0], flipped)
            assert again.delta == base.delta
            assert again.contextual == base.contextual


class TestOracleAgreement:
    def test_criterion_matches_feasibility_on_random_systems(self):
        rng = random.Random(4242)
        for rank, count in ((2, 25), (3, 15), (4, 8)):
            for _ in range(count):
                s = random_cyclic_system(rng, rank)
                (view,) = detect_cycles(s)
                report = evaluate_criterion(view, s)
                verdict = decide_contextuality(s)
                assert report.contextual == verdict.contextual
