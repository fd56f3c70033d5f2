import random
from fractions import Fraction

import pytest

from contextuality import (
    Content,
    Distribution,
    canonical_example,
    consistency_report,
    is_consistently_connected,
    serialize_system,
    validate_system,
)
from contextuality.cli import main
from contextuality.errors import (
    AlphabetMismatchError,
    DuplicateCellError,
    EmptySystemError,
    MassSumError,
    NegativeMassError,
    UnknownLabelError,
)
from conftest import random_small_system

F = Fraction
HALF = F(1, 2)


def two_by_two(b1, b2):
    return validate_system(
        {"q1": 2, "q2": 2},
        {"c1": ["q1", "q2"], "c2": ["q1", "q2"]},
        {"c1": b1, "c2": b2},
    )


class TestValidation:
    def test_two_context_system_has_two_binary_connections(self, rank2_contextual):
        s = rank2_contextual
        assert [c.label for c in s.contents] == ["q1", "q2"]
        assert s.contexts == ("c1", "c2")
        assert len(s.cells) == 4
        connections = s.connections()
        assert [c.content for c in connections] == ["q1", "q2"]
        assert all(c.size == 2 for c in connections)

    def test_minimal_point_mass_system(self):
        s = validate_system(
            {"q": 3}, {"c": ["q"]}, {"c": {(1,): F(1)}}
        )
        assert s.variable_count == 1
        (conn,) = s.connections()
        assert conn.size == 1

    def test_wrong_bunch_arity_is_alphabet_error(self):
        # three-content context given a two-component distribution
        with pytest.raises(AlphabetMismatchError):
            validate_system(
                {"q1": 2, "q2": 2, "q3": 2},
                {"c1": ["q1", "q2"], "c2": ["q1", "q2", "q3"], "c3": ["q1", "q3"]},
                {
                    "c1": {(0, 0): HALF, (1, 1): HALF},
                    "c2": {(0, 0): HALF, (1, 1): HALF},
                    "c3": {(0, 0): HALF, (1, 1): HALF},
                },
            )

    @pytest.mark.parametrize("size", [2.9, 2.5, True, "2"], ids=repr)
    def test_an_alphabet_size_must_be_an_int(self, size):
        # never truncated to 2 or read as 1: bool is an int subclass
        with pytest.raises(AlphabetMismatchError, match=f"size {size!r}"):
            validate_system({"q1": size}, {"c": ["q1"]}, {"c": {(0,): F(1)}})
        with pytest.raises(AlphabetMismatchError, match=f"size {size!r}"):
            Content("q", size)
        with pytest.raises(AlphabetMismatchError, match=f"sizes \\({size!r},\\)"):
            Distribution((size,), {(0,): F(1)})

    def test_duplicate_cell_rejected(self):
        with pytest.raises(DuplicateCellError):
            validate_system(
                {"q1": 2},
                {"c1": ["q1", "q1"]},
                {"c1": {(0, 0): F(1)}},
            )

    def test_empty_context_rejected(self):
        with pytest.raises(EmptySystemError):
            validate_system({"q1": 2}, {"c1": []}, {"c1": {}})

    def test_unused_content_rejected(self):
        with pytest.raises(EmptySystemError):
            validate_system(
                {"q1": 2, "q2": 2},
                {"c1": ["q1"]},
                {"c1": {(0,): HALF, (1,): HALF}},
            )

    def test_missing_bunch_rejected(self):
        with pytest.raises(EmptySystemError):
            validate_system({"q1": 2}, {"c1": ["q1"]}, {})

    def test_unknown_content_in_context(self):
        with pytest.raises(UnknownLabelError):
            validate_system({"q1": 2}, {"c1": ["q9"]}, {"c1": {(0,): F(1)}})

    def test_marginal_of_an_unfilled_cell_names_the_cell(self):
        system = canonical_example("fig10")
        with pytest.raises(UnknownLabelError, match=r"unknown cell \('c1', 'q3'\)"):
            system.variable_marginal("c1", "q3")
        with pytest.raises(UnknownLabelError, match="unknown context 'c9'"):
            system.variable_marginal("c9", "q1")
        assert system.variable_marginal("c1", "q2") == system.bunches["c1"].marginal((1,))

    def test_mass_errors_propagate(self):
        with pytest.raises(MassSumError):
            two_by_two({(0, 0): HALF}, {(0, 0): F(1)})
        with pytest.raises(NegativeMassError):
            two_by_two(
                {(0, 0): F(3, 2), (1, 1): F(-1, 2)}, {(0, 0): F(1)}
            )


class TestCanonicalOrder:
    def test_cell_order_permutation_gives_identical_system(self):
        a = validate_system(
            {"q1": 2, "q2": 3},
            {"c1": ["q1", "q2"]},
            {"c1": {(0, 0): HALF, (1, 2): HALF}},
        )
        b = validate_system(
            {"q1": 2, "q2": 3},
            {"c1": ["q2", "q1"]},
            {"c1": {(0, 0): HALF, (2, 1): HALF}},
        )
        assert a == b

    def test_bunch_components_sorted_by_content(self):
        s = validate_system(
            {"b": 2, "a": 3},
            {"c": ["b", "a"]},
            {"c": {(0, 1): F(1)}},
        )
        assert s.context_contents("c") == ("a", "b")
        assert s.bunches["c"].alphabet_sizes == (3, 2)
        assert s.bunches["c"].mass((1, 0)) == 1

    def test_cells_in_order_is_context_major(self, rank3_contextual):
        assert rank3_contextual.cells_in_order() == (
            ("c1", "q1"),
            ("c1", "q2"),
            ("c2", "q2"),
            ("c2", "q3"),
            ("c3", "q1"),
            ("c3", "q3"),
        )

    def test_random_systems_validate_and_stay_canonical(self):
        rng = random.Random(11)
        for _ in range(25):
            s = random_small_system(rng)
            for context in s.contexts:
                assert s.bunches[context].alphabet_sizes == tuple(
                    s.content(q).size for q in s.context_contents(context)
                )
                assert sum(s.bunches[context].masses.values()) == 1

    def test_shuffled_cell_order_always_validates_identically(self):
        rng = random.Random(37)
        for _ in range(20):
            s = random_small_system(rng)
            contents = list(s.contents)
            contexts = {}
            bunches = {}
            for context in s.contexts:
                canonical = list(s.context_contents(context))
                order = list(range(len(canonical)))
                rng.shuffle(order)
                contexts[context] = [canonical[i] for i in order]
                bunches[context] = {
                    tuple(value[i] for i in order): mass
                    for value, mass in s.bunches[context].masses.items()
                }
            assert validate_system(contents, contexts, bunches) == s


class TestConsistency:
    def test_identical_marginals_everywhere(self, rank2_contextual, rank3_contextual):
        assert is_consistently_connected(rank2_contextual)
        assert is_consistently_connected(rank3_contextual)

    def test_three_member_connection_with_distinct_marginals(self):
        s = validate_system(
            {"q1": 2},
            {"c1": ["q1"], "c2": ["q1"], "c3": ["q1"]},
            {
                "c1": {(0,): "0.3", (1,): "0.7"},
                "c2": {(0,): "0.4", (1,): "0.6"},
                "c3": {(0,): "0.7", (1,): "0.3"},
            },
        )
        report = consistency_report(s)
        assert not report.consistent
        (entry,) = report.connections
        assert not entry.consistent
        assert [m.mass((0,)) for _, m in entry.marginals] == [
            F(3, 10),
            F(2, 5),
            F(7, 10),
        ]

    def test_report_lists_every_connection(self, rank3_contextual):
        report = consistency_report(rank3_contextual)
        assert [e.content for e in report.connections] == ["q1", "q2", "q3"]
        assert all(e.consistent for e in report.connections)


class TestDerivedFacts:
    """Each fact derived from the cells is derived once, and every reader shares it."""

    def test_cell_positions_and_sizes_follow_the_cell_order(self, rank3_contextual):
        cells = rank3_contextual.cells_in_order()
        assert [rank3_contextual.cell_position(*cell) for cell in cells] == list(range(len(cells)))
        assert rank3_contextual.cell_sizes() == tuple(
            rank3_contextual.content(q).size for _, q in cells
        )
        sizes = {c.label: c.size for c in rank3_contextual.contents}
        assert rank3_contextual.cell_sizes() == tuple(sizes[q] for _, q in cells)

    def test_unknown_content_is_named(self, rank3_contextual):
        with pytest.raises(UnknownLabelError, match="unknown content 'nope'"):
            rank3_contextual.content("nope")

    def test_one_analysis_takes_each_1_marginal_once(self, monkeypatch, tmp_path, capsys):
        system = canonical_example("fig10")
        path = tmp_path / "fig10.json"
        path.write_text(serialize_system(system))
        calls = []
        original = Distribution.marginal

        def counted(self, components):
            calls.append(components)
            return original(self, components)

        monkeypatch.setattr(Distribution, "marginal", counted)
        assert main(["analyze", str(path), "--measure", "--witness"]) == 1
        capsys.readouterr()
        assert len(calls) == system.variable_count == 6
