"""Contextuality analysis: constraint systems, verdicts, and the TV measure.

A *hidden outcome* is one complete assignment of value indices to every
filled cell of a system.  A joint distribution over hidden outcomes couples
all bunches at once; the system is noncontextual exactly when some such
distribution reproduces every bunch and places the coincidence-maximizing
mass on every connection's constant tuples.  That existence question is the
feasibility of ``M Q = P`` with ``Q >= 0``.

Every row of ``M``, and of the paper's expanded system ``M*``, is a 0/1
indicator described by one pattern: the cells it fixes, their values, and
the right-hand side.  The rows of ``M`` are:

* one per (context, bunch value): the outcomes restricting to that value,
  with the bunch probability on the right-hand side;
* one per (content, value ``l``): the outcomes constant ``l`` on that
  connection, with the diagonal coupling mass on the right.

Column order is lexicographic over the canonical cell order (contexts sorted
by label, contents sorted within a context), value index ascending, first
cell most significant.  The system derives its cells, their positions and
sizes, and each variable's 1-marginal once; this module reads them there.

The patterns make an :class:`~.simplex.OutcomeSystem`, which prices columns
by variable elimination over the cells in reverse canonical order and never
lists the hidden outcomes, or a :class:`~.simplex.LinearSystem` of sparse
rows written from the outcome strides, which prices by sums over all of
them.  One elimination sums ``terms`` table entries, a count the plan gives
from the shape alone (16n - 10 on a rank-n cycle, whose tables span at most
three binary cells).  ``M`` is priced by elimination when
``ELIMINATION_COST * terms`` is below the number of hidden outcomes, and
written out otherwise.  The constant sits between the measured crossovers:
explicit rows are faster on rank-4 cycles, at 4.7 outcomes per term, and
elimination on rank-5 cycles and the ternary triangle, at 14.6-14.9.  The
answers do not depend on the choice.

Dropping nonnegativity, real-valued solutions always exist; minimizing their
total variation ``sum |Q|`` yields the contextuality measure ``TV - 1``.
The all-ones row is a sum of one context's bunch rows, so every solution has
``sum Q = 1`` and ``TV >= |sum Q| = 1``, with equality exactly when
``Q >= 0``.  The measure is therefore 0 exactly on noncontextual systems,
where the verdict's coupling attains it, and only a contextual system needs
the second LP, the least negative mass of a signed ``Q``, which
:func:`~.simplex.minimize` solves on ``M`` itself.  It is not solved from
scratch: its phase 2 resumes from the basis that the verdict's phase 1 on
``M`` ended in, once the artificials are pivoted out and each basic column
is signed by its value.  Its dual ``y`` satisfies ``-1 <= M^T y <= 0`` and
``y . P = (TV - 1) / 2``, so it bounds every quasi-coupling's TV from below
by the one reported, and on a contextual system it is also a Farkas
certificate for the verdict.  Both LP answers are checked where they are
made, by the results' own ``verify``; this module only decodes them and
asserts the TV identity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .coupling import MaximalCouplingSpec, maximal_coupling_diagonal, maximal_coupling_full
from .distribution import ONE, ZERO, Distribution, as_fraction, exact_sum
from .errors import DimensionMismatchError, OutcomeSpaceTooLargeError, SolverError
from .simplex import (
    FeasibilityResult,
    LinearSystem,
    OutcomeSystem,
    minimize,
    solve_feasibility,
)
from .systems import CCSystem, Connection

DEFAULT_COLUMN_CAP = 1 << 20
# Hidden outcomes per elimination term above which elimination prices faster.
ELIMINATION_COST = 8


def outcome_space(system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP) -> tuple[int, ...]:
    """The cells' sizes in canonical order, guarded by the column cap on their product."""
    sizes = system.cell_sizes()
    columns = math.prod(sizes)
    if columns > max_columns:
        raise OutcomeSpaceTooLargeError(
            f"hidden-outcome space has {columns} columns, cap is {max_columns}; "
            "raise max_columns (--max-columns on the command line) to proceed"
        )
    return sizes


def _value_tuples(sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(k) for k in sizes))


def _diagonal(system: CCSystem, connection: Connection) -> MaximalCouplingSpec:
    """The coincidence-maximizing coupling spec of one connection's 1-marginals."""
    marginals = [system.variable_marginal(ctx, connection.content) for ctx, _ in connection.members]
    return maximal_coupling_diagonal(marginals)


def _constraint_rows(system: CCSystem) -> Iterator[tuple[str, dict[int, int], Fraction]]:
    """Each row of ``M``, in the order documented above, as ``(kind, fixed cells, rhs)``.

    ``kind`` is ``"bunch"`` or ``"connection"``; ``fixed`` maps cell
    positions in ``system.cells_in_order()`` to the values an outcome must
    take to count in the row.
    """
    for context in system.contexts:
        positions = [system.cell_position(context, q) for q in system.context_contents(context)]
        bunch = system.bunches[context]
        for value in _value_tuples(bunch.alphabet_sizes):
            yield "bunch", dict(zip(positions, value)), bunch.mass(value)
    for connection in system.connections():
        positions = [system.cell_position(ctx, connection.content) for ctx, _ in connection.members]
        for l, mass in enumerate(_diagonal(system, connection).diagonal_masses):
            yield "connection", {pos: l for pos in positions}, mass


def build_associated_system(
    system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP
) -> LinearSystem | OutcomeSystem:
    """The Boolean system ``M Q = P`` whose nonnegative solvability is noncontextuality.

    It is an :class:`OutcomeSystem` when one elimination over its cells sums
    fewer than one table entry per ``ELIMINATION_COST`` hidden outcomes, else
    the same rows written out as a :class:`LinearSystem`.
    """
    sizes = outcome_space(system, max_columns)
    linear = OutcomeSystem(sizes, ((fixed, mass) for _, fixed, mass in _constraint_rows(system)))
    # terms >= sum(sizes), as each step's table spans its own cell, so most
    # small spaces are decided before the plan is made
    bound = linear.width / ELIMINATION_COST
    return linear if sum(sizes) < bound and linear.terms < bound else linear.explicit


@dataclass(frozen=True)
class Verdict:
    """Contextuality decision with its supporting witness.

    Noncontextual systems carry a coupling: a distribution over hidden
    outcomes whose bunch marginals and connection constant-tuple masses
    reproduce the constraint data exactly.  Contextual systems carry a
    Farkas certificate over the rows of the associated system.
    """

    contextual: bool
    coupling: Distribution | None
    certificate: tuple[Fraction, ...] | None
    pivots: int = 0


def decide_contextuality(system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP) -> Verdict:
    """Decide contextuality by exact feasibility of the associated system."""
    return _decide(system, build_associated_system(system, max_columns))[0]


def _decide(
    system: CCSystem, linear: LinearSystem | OutcomeSystem
) -> tuple[Verdict, FeasibilityResult]:
    """The verdict on ``system`` from the feasibility of its associated system ``linear``,
    and that feasibility result.

    The witness is substituted back into ``linear`` first: a coupling over
    its support, a certificate through ``top``.  A failure raises
    :class:`SolverError`.
    """
    result = solve_feasibility(linear)
    if not result.verify(linear):
        raise SolverError(
            f"internal inconsistency: the {result.status} verdict's witness fails substitution"
        )
    if result.feasible:
        masses = {linear.label(j): x for j, x in zip(result.support, result.solution)}
        coupling = Distribution(system.cell_sizes(), masses)
        return Verdict(False, coupling, None, result.pivots), result
    return Verdict(True, None, result.certificate, result.pivots), result


def _expanded_rows(system: CCSystem) -> Iterator[tuple[dict[int, int], Fraction]]:
    """Each row of ``M*``, in the order documented at :func:`build_expanded_system`."""
    yield {}, ONE
    max_bunch_arity = max(len(system.context_contents(c)) for c in system.contexts)
    for r in range(1, max_bunch_arity + 1):
        for context in system.contexts:
            contents = system.context_contents(context)
            if len(contents) < r:
                continue
            bunch = system.bunches[context]
            for subset in itertools.combinations(range(len(contents)), r):
                reduced = [system.content(contents[i]).size - 1 for i in subset]
                if any(k == 0 for k in reduced):
                    continue
                sub_marginal = bunch.marginal(subset)
                positions = [system.cell_position(context, contents[i]) for i in subset]
                for value in _value_tuples(reduced):
                    yield dict(zip(positions, value)), sub_marginal.mass(value)

    couplings = [maximal_coupling_full(_diagonal(system, c)) for c in system.connections()]
    max_connection_size = max(c.size for c in system.connections())
    for r in range(2, max_connection_size + 1):
        for content, connection, coupling in zip(
            system.contents, system.connections(), couplings
        ):
            if connection.size < r or content.size == 1:
                continue
            members = [ctx for ctx, _ in connection.members]
            for subset in itertools.combinations(range(connection.size), r):
                sub_marginal = coupling.marginal(subset)
                positions = [system.cell_position(members[i], content.label) for i in subset]
                for value in _value_tuples([content.size - 1] * r):
                    yield dict(zip(positions, value)), sub_marginal.mass(value)


def build_expanded_system(
    system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP
) -> LinearSystem:
    """The paper's full-row-rank system ``M* Q = P*``, which always has a real solution.

    Three blocks: a leading all-ones row with right-hand side 1; for every
    bunch, all r-marginal probabilities (r = 1 up to the bunch arity) over
    value indices below each content's top index (the top value's rows are
    linear combinations of the rest, so they are omitted); and for every
    connection of size >= 2, the same for the r-marginals (r >= 2) of its
    coincidence-maximizing :func:`maximal_coupling_full`.  No verdict or
    measure solves ``M*``; it is kept as the paper defines it, and acceptance
    criterion 6 checks its 9x16 shape and rank 9 on the ``fig9`` system.
    """
    return OutcomeSystem(outcome_space(system, max_columns), _expanded_rows(system)).explicit


@dataclass(frozen=True)
class QuasiCoupling:
    """Signed rational masses over hidden outcomes, summing to 1.

    ``total_variation`` is the sum of absolute masses (1 for a proper
    coupling, larger otherwise).  Construction computes it; validity against
    a system is established by :func:`verify_quasi_coupling`.
    """

    masses: dict[tuple[int, ...], Fraction]
    total_variation: Fraction = field(init=False)

    def __post_init__(self):
        clean = {tuple(k): as_fraction(v) for k, v in self.masses.items()}
        clean = {k: v for k, v in clean.items() if v}
        object.__setattr__(self, "masses", clean)
        object.__setattr__(self, "total_variation", exact_sum(abs(v) for v in clean.values()))

    @property
    def total_mass(self) -> Fraction:
        return exact_sum(self.masses.values())


@dataclass(frozen=True)
class MeasureResult:
    """Minimum total variation over constraint-satisfying quasi-couplings.

    ``verdict`` is the feasibility verdict the measure starts from.  ``dual``
    is a vector ``y`` over the rows of ``M`` with ``-1 <= M^T y <= 0`` and
    ``y . P == measure / 2``; it is zero on a noncontextual system.
    ``pivots`` counts the measure LP's pivots after the verdict's: driving
    out the artificials and phase 2; 0 when no LP was solved.
    """

    total_variation: Fraction
    measure: Fraction
    witness: QuasiCoupling
    verdict: Verdict
    dual: tuple[Fraction, ...]
    pivots: int = 0


def contextuality_measure(
    system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP
) -> MeasureResult:
    """Minimize ``sum |Q|`` subject to ``M Q = P`` and report ``TV - 1``.

    ``M`` is built once and its feasibility decides the verdict first.
    Every solution has ``sum Q = 1`` (the bunch rows of one context sum to
    the all-ones row), so ``TV >= 1``; a noncontextual system's coupling has
    ``TV = 1`` and is returned as the witness with measure 0 and dual 0.  On
    a contextual system ``TV = sum Q + 2 sum Q- = 1 + 2 sum Q-``, so
    :func:`~.simplex.minimize` finds the least negative mass ``sum Q-`` of a
    signed ``Q`` with ``M Q = P``, resumed from the basis that the verdict's
    phase 1 ended in, so no second phase 1 is run.  The LP's dual ``y``
    maximizes ``y . P`` subject to ``-1 <= M^T y <= 0``: for any
    quasi-coupling ``Q``, ``y . P = (M^T y) . Q <= (TV(Q) - 1) / 2``, so
    ``1 + 2 y . P`` bounds every TV from below, and ``M^T y <= 0 < y . P``
    is a Farkas certificate of the contextual verdict.  One
    :meth:`~.simplex.OptimizationResult.verify` checks the signed vertex by
    substitution into ``M``, and the dual's bounds and ``y . P`` against the
    value; the vertex is then decoded over its support, and
    ``TV = 1 + 2 sum Q-`` is asserted against it.  A failure raises
    :class:`SolverError`.
    """
    linear = build_associated_system(system, max_columns)
    verdict, feasibility = _decide(system, linear)
    if verdict.contextual:
        result = minimize(feasibility)
        if not result.verify(linear):
            raise SolverError(
                "internal inconsistency: the measure's witness fails substitution "
                "(its vertex, value or dual)"
            )
        masses = {linear.label(j): x for j, x in zip(result.support, result.solution)}
        value, dual, pivots = result.value, result.dual, result.pivots
    else:
        masses = verdict.coupling.masses
        value, dual, pivots = ZERO, (ZERO,) * linear.rows, 0
    witness = QuasiCoupling(masses)
    if witness.total_variation != ONE + 2 * value:
        raise SolverError(
            "internal inconsistency: total variation "
            f"{witness.total_variation} != 1 + 2*{value}"
        )
    return MeasureResult(
        witness.total_variation, witness.total_variation - ONE, witness, verdict, dual, pivots
    )


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    violations: tuple[str, ...] = ()


@dataclass(frozen=True)
class QuasiCouplingReport:
    checks: tuple[CheckResult, ...]

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def check(self, name: str) -> CheckResult:
        return next(c for c in self.checks if c.name == name)


def verify_quasi_coupling(
    system: CCSystem,
    quasi: QuasiCoupling | Mapping[tuple[int, ...], Fraction],
    max_columns: int = DEFAULT_COLUMN_CAP,
) -> QuasiCouplingReport:
    """Check a signed mass assignment against a system's constraints, exactly.

    Three checks: the masses sum to 1; every bunch equation holds; every
    connection constant-tuple equation holds.  Violations are reported per
    equation.
    """
    if isinstance(quasi, QuasiCoupling):
        masses = quasi.masses
    else:
        masses = {key: as_fraction(v) for key, v in dict(quasi).items()}
    sizes = outcome_space(system, max_columns)
    width = len(sizes)
    for outcome in masses:
        if len(outcome) != width or any(not 0 <= v < k for v, k in zip(outcome, sizes)):
            raise DimensionMismatchError(
                f"outcome {outcome} does not index this system's {width}-cell space"
            )

    total = exact_sum(masses.values())
    checks = [
        CheckResult(
            "total_mass",
            total == ONE,
            () if total == ONE else (f"masses sum to {total}, expected 1",),
        )
    ]

    rows = list(_constraint_rows(system))
    linear = OutcomeSystem(sizes, ((fixed, want) for _, fixed, want in rows))
    sums = [ZERO] * len(rows)
    for outcome, mass in masses.items():
        for i in linear.rows_hit(outcome):
            sums[i] += mass
    violations: dict[str, list[str]] = {"bunch": [], "connection": []}
    for (kind, fixed, want), got in zip(rows, sums):
        if got == want:
            continue
        first = next(iter(fixed))
        context, content = system.cells_in_order()[first]
        if kind == "bunch":
            where = f"bunch {context!r} at {tuple(fixed.values())}"
        else:
            where = f"connection {content!r} at value {fixed[first]}"
        violations[kind].append(f"{where}: {got} != {want}")
    for name, kind in (("bunch_marginals", "bunch"), ("connection_diagonals", "connection")):
        checks.append(CheckResult(name, not violations[kind], tuple(violations[kind])))
    return QuasiCouplingReport(tuple(checks))
