"""Couplings of connections: coincidence-maximizing joints over shared alphabets.

Given the 1-marginals of a connection's members, the largest achievable
probability of the all-components-equal event is fixed: the mass placed on
the constant tuple ``(v, ..., v)`` can be at most the componentwise minimum
of the member marginals at ``v``, and that bound is attainable for every
``v`` simultaneously.  This module computes those diagonal masses and one
deterministic completion of the full joint.

The completion is a *choice*: any joint with the right diagonal and the right
1-marginals would do.  We use the residual-product rule (see
:func:`maximal_coupling_full`), which is closed-form and exactly
marginal-preserving in rational arithmetic.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distribution import ONE, ZERO, Distribution
from .errors import AlphabetMismatchError, EmptyInputError


@dataclass(frozen=True)
class MaximalCouplingSpec:
    """Diagonal data of a coincidence-maximizing coupling of one connection.

    ``diagonal_masses[v]`` is the joint mass forced onto the constant tuple
    ``(v, ..., v)``; their sum is the coincidence probability, which equals 1
    exactly when all member marginals are identical.
    """

    member_marginals: tuple[Distribution, ...]
    diagonal_masses: tuple[Fraction, ...]
    coincidence_probability: Fraction
    content: str | None = None

    @property
    def alphabet_size(self) -> int:
        return self.member_marginals[0].alphabet_sizes[0]

    @property
    def member_count(self) -> int:
        return len(self.member_marginals)


def maximal_coupling_diagonal(
    marginals: Sequence[Distribution], content: str | None = None
) -> MaximalCouplingSpec:
    """Componentwise-minimum diagonal of the given arity-1 marginals.

    The probability of a joint event can never exceed any component event's
    probability, so ``min`` is an upper bound per value; it is attained by
    the completion below.
    """
    marginals = tuple(marginals)
    if not marginals:
        raise EmptyInputError("a coupling needs at least one marginal")
    k = marginals[0].alphabet_sizes[0]
    for d in marginals:
        if d.arity != 1:
            raise AlphabetMismatchError(f"expected arity-1 marginals, got arity {d.arity}")
        if d.alphabet_sizes != (k,):
            raise AlphabetMismatchError(
                f"marginal alphabets differ: {d.alphabet_sizes} vs ({k},)"
            )
    diagonal = tuple(min(d.mass((v,)) for d in marginals) for v in range(k))
    return MaximalCouplingSpec(marginals, diagonal, sum(diagonal, ZERO), content)


def maximal_coupling_full(spec: MaximalCouplingSpec) -> Distribution:
    """Deterministic full joint attaining the spec's diagonal masses.

    Residual-product rule: with ``m`` the coincidence probability and
    ``r_i(v) = p_i(v) - diagonal(v)`` the residual of member ``i``, each
    non-constant tuple ``(v_1, ..., v_n)`` gets ``prod_i r_i(v_i) / (1-m)^(n-1)``
    and each constant tuple gets its diagonal mass.  For every value the
    minimizing member has zero residual, so the product term vanishes on the
    diagonal and each 1-marginal comes out exactly ``p_i``.
    """
    n = spec.member_count
    k = spec.alphabet_size
    diagonal = spec.diagonal_masses
    if n == 1:
        # A single member couples with itself; coincidence is 1 by convention.
        return spec.member_marginals[0]
    masses: dict[tuple[int, ...], Fraction] = {}
    for v in range(k):
        if diagonal[v]:
            masses[(v,) * n] = diagonal[v]
    m = spec.coincidence_probability
    if m != ONE:
        residuals = [
            [d.mass((v,)) - diagonal[v] for v in range(k)] for d in spec.member_marginals
        ]
        scale = (ONE - m) ** (n - 1)
        for combo in itertools.product(range(k), repeat=n):
            if all(v == combo[0] for v in combo):
                continue
            product = ONE
            for i, v in enumerate(combo):
                product *= residuals[i][v]
                if not product:
                    break
            if product:
                masses[combo] = product / scale
    return Distribution((k,) * n, masses)

