import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from contextuality import Content, build_associated_system, canonical_example, validate_system
from contextuality.distribution import as_fraction
from contextuality.errors import EmptyInputError
from contextuality.simplex import INFEASIBLE, FeasibilityResult

HALF = Fraction(1, 2)


@pytest.fixture
def rank2_contextual():
    """Two binary contents in two contexts: perfect correlation vs anticorrelation."""
    return canonical_example("fig9")


@pytest.fixture
def rank3_contextual():
    """Three binary contents, pairwise contexts, identical 0.7/0.3 marginals."""
    return canonical_example("fig10")


def outcomes(sizes):
    """Every hidden outcome over cells of ``sizes``, lexicographic, first cell most significant."""
    return itertools.product(*(range(k) for k in sizes))


def s_odd_bruteforce(xs):
    """Max of ``sum sign_i * x_i`` over odd-parity sign vectors, by enumeration.

    Reference oracle for ``s_odd``.  The inputs are scaled to integers by
    their common denominator, every sign vector with an odd number of minuses
    is summed in integer arithmetic, and the best sum is divided back once.
    """
    values = [as_fraction(x) for x in xs]
    if not values:
        raise EmptyInputError("s_odd needs at least one argument")
    scale = math.lcm(*(x.denominator for x in values))
    scaled = [x.numerator * (scale // x.denominator) for x in values]
    best = max(
        sum(map(operator.mul, signs, scaled))
        for signs in itertools.product((1, -1), repeat=len(scaled))
        if signs.count(-1) % 2
    )
    return Fraction(best, scale)


def assert_dual_certifies(system, result):
    """The measure's dual ``y``: ``-1 <= M^T y <= 0``, ``y . P == measure / 2``,
    and a Farkas certificate of the verdict on a contextual system."""
    linear = build_associated_system(system)
    y = result.dual
    for j in range(linear.cols):
        assert -1 <= sum(w * row[j] for w, row in zip(y, linear.matrix) if w) <= 0
    assert sum(w * b for w, b in zip(y, linear.rhs)) == result.measure / 2
    if result.verdict.contextual:
        assert FeasibilityResult(INFEASIBLE, None, y, 0).verify(linear)
    else:
        assert not any(y)


def expand(result, width):
    """A result's solution written out with one value per column, 0 off its support.

    The support must ascend strictly and carry a nonzero value at each index.
    """
    support, values = result.support, result.solution
    assert len(support) == len(values) and all(values)
    assert all(i < j for i, j in zip(support, support[1:]))
    q = [Fraction(0)] * width
    for j, x in zip(support, values):
        q[j] = x
    return tuple(q)


def rational_rank(matrix):
    """Rank of a rational matrix by exact Gaussian elimination.

    Reference oracle for the full row rank of ``build_expanded_system``.
    """
    rows = [[as_fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0
    cols = len(rows[0])
    rank = 0
    for col in range(cols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                factor = rows[i][col] / lead
                rows[i] = [a - factor * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        if rank == len(rows):
            break
    return rank


def random_partition(rng: random.Random, parts: int, max_denominator: int = 64):
    """Exact random probability vector with bounded denominator."""
    den = rng.randint(1, max_denominator)
    cuts = sorted(rng.randint(0, den) for _ in range(parts - 1))
    bounds = [0, *cuts, den]
    return [Fraction(bounds[i + 1] - bounds[i], den) for i in range(parts)]


def random_cyclic_system(rng: random.Random, rank: int, max_denominator: int = 64):
    """Random cyclic binary system of the given rank with exact masses."""
    contents = [Content(f"q{i}", 2) for i in range(1, rank + 1)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % rank + 1}"] for i in range(1, rank + 1)}
    bunches = {}
    for context in contexts:
        masses = random_partition(rng, 4, max_denominator)
        bunches[context] = {
            (i >> 1, i & 1): m for i, m in enumerate(masses) if m
        }
    return validate_system(contents, contexts, bunches)


def random_boundary_cyclic(rng: random.Random, rank: int):
    """Consistently connected cyclic system with strong random-sign correlations.

    These sit near the contextuality boundary, exercising both verdicts.
    """
    contents = [Content(f"q{i}", 2) for i in range(1, rank + 1)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % rank + 1}"] for i in range(1, rank + 1)}
    bunches = {}
    for context in contexts:
        sign = rng.choice((-1, 1))
        correlation = sign * Fraction(rng.randint(4 * rank - 6, 16), 16)
        agree = (1 + correlation) / 4
        disagree = (1 - correlation) / 4
        bunches[context] = {
            value: mass
            for value, mass in {
                (0, 0): agree,
                (1, 1): agree,
                (0, 1): disagree,
                (1, 0): disagree,
            }.items()
            if mass
        }
    return validate_system(contents, contexts, bunches)


def random_small_system(rng: random.Random, max_denominator: int = 12):
    """Random non-cyclic-shaped system: 2-3 contents of size 2-3, 2-3 contexts."""
    n_contents = rng.randint(2, 3)
    labels = [f"q{i}" for i in range(1, n_contents + 1)]
    sizes = {q: rng.randint(2, 3) for q in labels}
    n_contexts = rng.randint(2, 3)
    contexts = {}
    for i in range(1, n_contexts + 1):
        count = rng.randint(1, n_contents)
        contexts[f"c{i}"] = rng.sample(labels, count)
    used = {q for qs in contexts.values() for q in qs}
    for q in labels:
        if q not in used:
            pick = rng.choice(sorted(contexts))
            contexts[pick] = contexts[pick] + [q]
    bunches = {}
    for context, qs in contexts.items():
        shape = [sizes[q] for q in qs]
        cells = 1
        for k in shape:
            cells *= k
        masses = random_partition(rng, cells, max_denominator)
        table = {}
        for flat, mass in enumerate(masses):
            if not mass:
                continue
            value = []
            rest = flat
            for k in reversed(shape):
                value.append(rest % k)
                rest //= k
            table[tuple(reversed(value))] = mass
        bunches[context] = table
    contents = [Content(q, sizes[q]) for q in labels]
    return validate_system(contents, contexts, bunches)


def moved_on(support, values):
    """A sparse solution with its first mass moved one column on, merged there if taken."""
    j, x = support[0], values[0]
    if support[1:2] == (j + 1,):
        return support[1:], (values[1] + x, *values[2:])
    return (j + 1, *support[1:]), values
