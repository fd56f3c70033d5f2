import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contextuality import Distribution, as_fraction, marginal, uniform, validate_system
from contextuality.distribution import exact_sum
from contextuality.errors import (
    AlphabetMismatchError,
    IndexOutOfRangeError,
    MassSumError,
    NegativeMassError,
    ValidationError,
)

F = Fraction


def table(rows):
    return Distribution.from_rows(rows)


class TestConstruction:
    def test_sum_must_be_exactly_one(self):
        with pytest.raises(MassSumError):
            Distribution((2,), {(0,): F(1, 3), (1,): F(1, 3)})

    def test_mass_sum_message_names_the_sum(self):
        with pytest.raises(MassSumError) as raised:
            Distribution((3,), {(0,): F(1, 3), (1,): F(1, 6), (2,): "0.25"})
        assert str(raised.value) == "masses sum to 3/4, expected exactly 1"
        with pytest.raises(MassSumError) as raised:
            Distribution((2,), {})
        assert str(raised.value) == "masses sum to 0, expected exactly 1"

    @pytest.mark.parametrize("value", [(0.7,), (True,), (F(1),), ("0",)])
    def test_non_integer_index_rejected(self, value):
        # none of these may stand for an index: no truncation, no bool as 1
        with pytest.raises(AlphabetMismatchError, match=re.escape(repr(value))):
            Distribution((2,), {value: 1})

    def test_non_integer_index_rejected_through_validate_system(self):
        with pytest.raises(AlphabetMismatchError, match=re.escape("(0.9, 1.2)")):
            validate_system({"q1": 2, "q2": 2}, {"c1": ["q1", "q2"]}, {"c1": {(0.9, 1.2): 1}})

    def test_negative_mass_rejected(self):
        with pytest.raises(NegativeMassError):
            Distribution((2,), {(0,): F(3, 2), (1,): F(-1, 2)})

    def test_out_of_alphabet_value_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            Distribution((2,), {(2,): F(1)})

    def test_arity_mismatch_rejected(self):
        with pytest.raises(AlphabetMismatchError):
            Distribution((2, 2), {(0,): F(1)})

    def test_floats_rejected(self):
        with pytest.raises(ValidationError):
            Distribution((2,), {(0,): 0.5, (1,): 0.5})

    def test_decimal_strings_are_exact(self):
        d = Distribution((2,), {(0,): "0.3", (1,): "0.7"})
        assert d.mass((0,)) == F(3, 10)

    def test_zero_masses_dropped_from_support(self):
        d = Distribution((3,), {(0,): F(1), (1,): F(0)})
        assert d.support() == [(0,)]


class TestMarginal:
    def test_two_component_coupling_table(self):
        # joint over (X1, X2) with X1 on a 3-letter alphabet
        d = Distribution(
            (3, 2),
            {
                (0, 0): "0.3",
                (1, 0): "0.2",
                (2, 0): "0.2",
                (1, 1): "0.1",
                (2, 1): "0.2",
            },
        )
        first = d.marginal((0,))
        assert [first.mass((v,)) for v in range(3)] == [F(3, 10), F(3, 10), F(2, 5)]
        second = d.marginal((1,))
        assert [second.mass((v,)) for v in range(2)] == [F(7, 10), F(3, 10)]

    def test_identity_marginal(self):
        d = table([["0.3", "0.2"], ["0.1", "0.4"]])
        assert d.marginal((0, 1)) == d

    def test_product_of_fair_coins_each_component(self):
        d = table([["0.25", "0.25"], ["0.25", "0.25"]])
        assert d.marginal((1,)) == uniform(2)
        assert d.marginal((0,)) == uniform(2)

    def test_index_errors(self):
        d = table([["0.5", "0.5"]])
        with pytest.raises(IndexOutOfRangeError):
            d.marginal(())
        with pytest.raises(IndexOutOfRangeError):
            d.marginal((2,))
        with pytest.raises(IndexOutOfRangeError):
            d.marginal((1, 0))

    def test_functional_alias(self):
        d = table([["0.5", "0.5"]])
        assert marginal(d, (1,)) == d.marginal((1,))


@st.composite
def distributions(draw):
    arity = draw(st.integers(1, 3))
    sizes = tuple(draw(st.integers(1, 3)) for _ in range(arity))
    cells = 1
    for k in sizes:
        cells *= k
    weights = draw(
        st.lists(st.integers(0, 8), min_size=cells, max_size=cells).filter(sum)
    )
    total = sum(weights)
    masses = {}
    for flat, w in enumerate(weights):
        value = []
        rest = flat
        for k in reversed(sizes):
            value.append(rest % k)
            rest //= k
        masses[tuple(reversed(value))] = F(w, total)
    return Distribution(sizes, masses)


@given(distributions(), st.data())
@settings(max_examples=150, deadline=None)
def test_marginal_preserves_mass_and_composes(d, data):
    subset = data.draw(
        st.sets(st.integers(0, d.arity - 1), min_size=1).map(sorted).map(tuple)
    )
    m = d.marginal(subset)
    assert sum(m.masses.values()) == 1
    inner = data.draw(
        st.sets(st.integers(0, len(subset) - 1), min_size=1).map(sorted).map(tuple)
    )
    # marginalizing twice equals marginalizing once to the composed subset
    assert m.marginal(inner) == d.marginal(tuple(subset[i] for i in inner))


@given(distributions(), st.data())
@settings(max_examples=150, deadline=None)
def test_marginal_and_permuted_equal_the_validated_distribution(d, data):
    # both skip validation; what they build must be what validation would leave
    subset = data.draw(st.sets(st.integers(0, d.arity - 1), min_size=1).map(sorted).map(tuple))
    order = tuple(data.draw(st.permutations(range(d.arity))))
    for got in (d.marginal(subset), d.permuted(order)):
        want = Distribution(got.alphabet_sizes, dict(got.masses))
        assert got == want
        assert list(got.masses.items()) == list(want.masses.items())
        assert all(type(m) is Fraction and m for m in got.masses.values())
        assert all(type(k) is int for value in got.masses for k in value)
    # the marginal adds integers over one denominator; each key's mass is the
    # Fraction sum of the masses that map to it, in the same key order
    pairwise = {}
    for value, mass in d.masses.items():
        key = tuple(value[c] for c in subset)
        pairwise[key] = pairwise.get(key, Fraction(0)) + mass
    assert list(d.marginal(subset).masses.items()) == list(pairwise.items())


fractions = st.fractions(min_value=-10, max_value=10, max_denominator=60)


@given(st.lists(fractions, max_size=12))
@settings(max_examples=100, deadline=None)
def test_exact_sum_is_the_fraction_sum(values):
    total = exact_sum(values)
    assert type(total) is Fraction
    assert total == sum(values, Fraction(0))
    assert exact_sum(iter(values)) == total


def test_exact_sum_of_nothing_is_zero():
    assert exact_sum([]) == 0 and type(exact_sum([])) is Fraction
    assert exact_sum([F(-1, 2), F(1, 3), F(1, 6)]) == 0


def test_as_fraction_accepts_exact_forms_only():
    assert as_fraction("3/10") == F(3, 10)
    assert as_fraction("0.3") == F(3, 10)
    assert as_fraction(2) == F(2)
    with pytest.raises(ValidationError):
        as_fraction(0.3)
    with pytest.raises(ValidationError):
        as_fraction("three tenths")


def test_as_fraction_bounds_the_exponent():
    # Fraction("1e<k>") builds 10**k: seconds for k in the millions
    assert as_fraction("3e-1") == F(3, 10)
    assert as_fraction("1e-3") == F(1, 1000)
    assert as_fraction("1e4300") == 10**4300
    assert as_fraction("1E-4300") == F(1, 10**4300)
    for text in ("1e4301", "1e-4301", "1e10000000", "1e" + "9" * 5000):
        with pytest.raises(ValidationError, match="exponent"):
            as_fraction(text)


def test_as_fraction_quotes_a_long_input_cut_short():
    for text in ("x" * 5000, "1e" + "9" * 5000, "1/" + "0" * 5000):
        with pytest.raises(ValidationError) as caught:
            as_fraction(text)
        message = str(caught.value)
        assert len(message) < 200
        assert f"({len(text)} characters)" in message
