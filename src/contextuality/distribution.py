"""Exact categorical distributions over tuples of value indices.

All probability masses are ``fractions.Fraction`` values; nothing in this
module (or anywhere downstream of it) ever rounds.  A distribution of arity
``n`` assigns mass to ``n``-tuples of 0-based value indices, component ``j``
ranging over ``0 .. alphabet_sizes[j] - 1``.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Collection, Iterable, Sequence

from .errors import (
    AlphabetMismatchError,
    IndexOutOfRangeError,
    MassSumError,
    NegativeMassError,
    ValidationError,
)

ONE = Fraction(1)
ZERO = Fraction(0)
# The interpreter's default digit limit for int(): Fraction("1e<k>") builds
# 10**k, which takes seconds from k in the millions.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def _quoted(text: str, limit: int = 40) -> str:
    """``text`` quoted for a message: whole, or its first ``limit`` characters and its length."""
    return repr(text) if len(text) <= limit else f"{text[:limit]!r}... ({len(text)} characters)"


def common_denominator(values: Collection) -> tuple[list[int], int]:
    """Exact ``values`` as integer numerators over their least common denominator."""
    scale = math.lcm(*[x.denominator for x in values])
    return [x.numerator * (scale // x.denominator) for x in values], scale


def exact_sum(values: Iterable) -> Fraction:
    """The sum of exact ``values``, added as integers over their least common denominator.

    One normalisation in all, where pairwise ``Fraction`` sums make one per term.
    """
    numerators, scale = common_denominator([*values])
    return Fraction(sum(numerators), scale)


def as_fraction(value) -> Fraction:
    """Coerce an exact scalar (Fraction, int, or numeric string) to Fraction.

    Binary floats are rejected: they silently misrepresent decimal inputs,
    and every downstream comparison here is exact.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValidationError(f"not an exact scalar: {value!r}")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value)
        digits = exponent[1].replace("_", "").lstrip("0") if exponent else ""
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits or 0) > MAX_EXPONENT:
            raise ValidationError(
                f"exponent of {_quoted(value)} exceeds {MAX_EXPONENT} in magnitude"
            )
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"cannot parse {_quoted(value)} as an exact number") from exc
    if isinstance(value, float):
        raise ValidationError(
            f"binary float {value!r} is not exact; pass a string such as '0.3' or '3/10'"
        )
    raise ValidationError(f"cannot interpret {value!r} as an exact number")


@dataclass(frozen=True)
class Distribution:
    """An exact categorical distribution; masses are stored sparsely.

    ``masses`` maps value tuples to nonzero Fractions; tuples absent from the
    map have mass 0.  Construction validates that every index is an ``int``
    (not a bool) within its alphabet, nonnegativity, and that the total mass
    is exactly 1.
    """

    alphabet_sizes: tuple[int, ...]
    masses: dict[tuple[int, ...], Fraction] = field(default_factory=dict)

    def __post_init__(self):
        sizes = tuple([int(k) for k in self.alphabet_sizes])
        if not sizes or any(k < 1 for k in sizes):
            raise AlphabetMismatchError(f"invalid alphabet sizes {sizes}")
        clean: dict[tuple[int, ...], Fraction] = {}
        for value, raw in self.masses.items():
            value = tuple(value)
            if len(value) != len(sizes):
                raise AlphabetMismatchError(
                    f"value tuple {value} has arity {len(value)}, expected {len(sizes)}"
                )
            # bool is an int subclass, so test the type itself
            if any(type(v) is not int for v in value):
                raise AlphabetMismatchError(f"value tuple {value} holds a non-integer index")
            if any(not 0 <= v < k for v, k in zip(value, sizes)):
                raise AlphabetMismatchError(f"value tuple {value} outside alphabets {sizes}")
            mass = as_fraction(raw)
            if mass.numerator < 0:
                raise NegativeMassError(f"mass of {value} is negative: {mass}")
            if mass.numerator:
                if value in clean:
                    raise AlphabetMismatchError(f"value tuple {value} listed twice")
                clean[value] = mass
        numerators, scale = common_denominator(clean.values())
        if sum(numerators) != scale:
            total = Fraction(sum(numerators), scale)
            raise MassSumError(f"masses sum to {total}, expected exactly 1")
        object.__setattr__(self, "alphabet_sizes", sizes)
        object.__setattr__(self, "masses", clean)

    @classmethod
    def _checked(cls, sizes: tuple[int, ...], masses: dict) -> "Distribution":
        """A distribution over masses already in the form validation leaves, unchecked:
        sums or reorderings of a validated distribution's."""
        distribution = object.__new__(cls)
        object.__setattr__(distribution, "alphabet_sizes", sizes)
        object.__setattr__(distribution, "masses", masses)
        return distribution

    @property
    def arity(self) -> int:
        return len(self.alphabet_sizes)

    def mass(self, value: Sequence[int]) -> Fraction:
        return self.masses.get(tuple(value), ZERO)

    def items(self) -> list[tuple[tuple[int, ...], Fraction]]:
        """Nonzero (value, mass) pairs in lexicographic value order."""
        return sorted(self.masses.items())

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.masses)

    def marginal(self, components: Sequence[int]) -> "Distribution":
        """Sum out every component not listed in ``components``.

        ``components`` must be nonempty, strictly increasing, and within
        arity; the result keeps the listed components in that order.
        """
        comps = tuple(components)
        if not comps:
            raise IndexOutOfRangeError("component subset must be nonempty")
        if any(not 0 <= c < self.arity for c in comps):
            raise IndexOutOfRangeError(f"components {comps} out of range for arity {self.arity}")
        if any(a >= b for a, b in zip(comps, comps[1:])):
            raise IndexOutOfRangeError(f"components {comps} must be strictly increasing")
        if comps == tuple(range(self.arity)):
            return self
        sizes = tuple(self.alphabet_sizes[c] for c in comps)
        numerators, scale = common_denominator(self.masses.values())
        sums: dict[tuple[int, ...], int] = {}
        for value, numerator in zip(self.masses, numerators):
            key = tuple([value[c] for c in comps])
            sums[key] = sums.get(key, 0) + numerator
        out = {key: Fraction(total, scale) for key, total in sums.items()}
        return Distribution._checked(sizes, out)

    def permuted(self, order: Sequence[int]) -> "Distribution":
        """Reorder components so new component ``i`` is old component ``order[i]``."""
        order = tuple(order)
        if sorted(order) != list(range(self.arity)):
            raise IndexOutOfRangeError(f"{order} is not a permutation of 0..{self.arity - 1}")
        if order == tuple(range(self.arity)):
            return self
        sizes = tuple(self.alphabet_sizes[c] for c in order)
        out = {tuple([value[c] for c in order]): mass for value, mass in self.masses.items()}
        return Distribution._checked(sizes, out)

    @staticmethod
    def from_rows(rows: Iterable[Iterable]) -> "Distribution":
        """Build an arity-2 distribution from a nested row table.

        ``rows[i][j]`` is the mass of value ``(i, j)``, and the alphabet sizes
        are the table's; entries may be Fractions, ints, or exact strings.
        """
        table = [list(r) for r in rows]
        if not table or not table[0]:
            raise AlphabetMismatchError("empty table")
        masses = {
            (i, j): as_fraction(cell)
            for i, row in enumerate(table)
            for j, cell in enumerate(row)
        }
        return Distribution((len(table), len(table[0])), masses)


def uniform(alphabet_size: int) -> Distribution:
    """Uniform arity-1 distribution over ``alphabet_size`` values."""
    share = Fraction(1, alphabet_size)
    return Distribution((alphabet_size,), {(v,): share for v in range(alphabet_size)})


def marginal(distribution: Distribution, components: Sequence[int]) -> Distribution:
    """Functional alias for :meth:`Distribution.marginal`."""
    return distribution.marginal(components)
