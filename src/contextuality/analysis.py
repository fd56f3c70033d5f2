"""Contextuality analysis: constraint systems, verdicts, and the TV measure.

A *hidden outcome* is one complete assignment of value indices to every
filled cell of a system.  A joint distribution over hidden outcomes couples
all bunches at once; the system is noncontextual exactly when some such
distribution reproduces every bunch and places the coincidence-maximizing
mass on every connection's constant tuples.  That existence question is the
feasibility of ``M Q = P`` with ``Q >= 0``, built here row by row:

* one row per (context, bunch value): indicator of the outcomes restricting
  to that value, with the bunch probability on the right-hand side;
* one row per (content, value ``l``): indicator of the outcomes constant
  ``l`` on that connection, with the diagonal coupling mass on the right.

Column order is lexicographic over the canonical cell order (contexts sorted
by label, contents sorted within a context), value index ascending, first
cell most significant.

Dropping nonnegativity, real-valued solutions always exist; minimizing their
total variation ``sum |Q|`` (via the split ``Q = Q1 - Q2``) yields the
contextuality measure ``TV - 1``, zero exactly on noncontextual systems.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Mapping, Sequence

from .coupling import maximal_coupling_diagonal, maximal_coupling_full
from .distribution import ONE, ZERO, Distribution, as_fraction
from .errors import DimensionMismatchError, OutcomeSpaceTooLargeError, SolverError
from .simplex import LinearSystem, OptimizationResult, minimize, solve_feasibility
from .systems import CCSystem

DEFAULT_COLUMN_CAP = 1 << 20


@dataclass(frozen=True)
class OutcomeSpace:
    """Canonically ordered hidden-outcome space of a system.

    Cells are (context, content) pairs in canonical order; outcome index is
    lexicographic with the first cell most significant.
    """

    cells: tuple[tuple[str, str], ...]
    sizes: tuple[int, ...]
    _positions: dict[tuple[str, str], int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_positions", {cell: i for i, cell in enumerate(self.cells)})

    @property
    def size(self) -> int:
        n = 1
        for k in self.sizes:
            n *= k
        return n

    @property
    def strides(self) -> tuple[int, ...]:
        strides = [1] * len(self.sizes)
        for i in range(len(self.sizes) - 2, -1, -1):
            strides[i] = strides[i + 1] * self.sizes[i + 1]
        return tuple(strides)

    def outcomes(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(k) for k in self.sizes))

    def indicator_row(self, fixed: Mapping[int, int]) -> list[int]:
        """0/1 row marking every outcome that agrees with ``fixed`` (cell pos -> value)."""
        row = [0] * self.size
        strides = self.strides
        base = sum(strides[pos] * value for pos, value in fixed.items())
        free = [pos for pos in range(len(self.sizes)) if pos not in fixed]
        for combo in itertools.product(*(range(self.sizes[pos]) for pos in free)):
            row[base + sum(strides[pos] * v for pos, v in zip(free, combo))] = 1
        return row

    def cell_position(self, context: str, content: str) -> int:
        return self._positions[(context, content)]


def _cell_sizes(system: CCSystem) -> tuple[int, ...]:
    return tuple(system.content(q).size for _, q in system.cells_in_order())


def outcome_space(system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP) -> OutcomeSpace:
    """The system's hidden-outcome space, guarded by the column cap."""
    space = OutcomeSpace(system.cells_in_order(), _cell_sizes(system))
    if space.size > max_columns:
        raise OutcomeSpaceTooLargeError(
            f"hidden-outcome space has {space.size} columns, cap is {max_columns}; "
            "raise max_columns to proceed"
        )
    return space


def _value_tuples(sizes: Sequence[int]) -> Iterator[tuple[int, ...]]:
    return itertools.product(*(range(k) for k in sizes))


def _constraint_rows(
    system: CCSystem, space: OutcomeSpace
) -> Iterator[tuple[str, dict[int, int], Fraction]]:
    """Each row of ``M``, in the order documented above, as ``(kind, fixed cells, rhs)``.

    ``kind`` is ``"bunch"`` or ``"connection"``; ``fixed`` maps cell
    positions of ``space`` to the values an outcome must take to count in
    the row.
    """
    for context in system.contexts:
        positions = [space.cell_position(context, q) for q in system.context_contents(context)]
        bunch = system.bunches[context]
        for value in _value_tuples(bunch.alphabet_sizes):
            yield "bunch", dict(zip(positions, value)), bunch.mass(value)
    for connection in system.connections():
        positions = [space.cell_position(ctx, connection.content) for ctx, _ in connection.members]
        marginals = [system.bunches[ctx].marginal((pos,)) for ctx, pos in connection.members]
        for l, mass in enumerate(maximal_coupling_diagonal(marginals).diagonal_masses):
            yield "connection", {pos: l for pos in positions}, mass


def build_associated_system(
    system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP
) -> LinearSystem:
    """The Boolean system ``M Q = P`` whose nonnegative solvability is noncontextuality."""
    space = outcome_space(system, max_columns)
    rows: list[tuple[int, ...]] = []
    rhs: list[Fraction] = []
    for _, fixed, mass in _constraint_rows(system, space):
        rows.append(tuple(space.indicator_row(fixed)))
        rhs.append(mass)
    return LinearSystem(tuple(rows), tuple(rhs), tuple(space.outcomes()))


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
    linear = build_associated_system(system, max_columns)
    result = solve_feasibility(linear)
    if result.feasible:
        masses = {
            outcome: mass
            for outcome, mass in zip(linear.column_labels, result.solution)
            if mass
        }
        coupling = Distribution(_cell_sizes(system), masses)
        return Verdict(False, coupling, None, result.pivots)
    return Verdict(True, None, result.certificate, result.pivots)


def build_expanded_system(
    system: CCSystem,
    completions: Mapping[str, Distribution] | None = None,
    max_columns: int = DEFAULT_COLUMN_CAP,
) -> LinearSystem:
    """The full-row-rank system ``M* Q = P*`` that always has a real solution.

    Three blocks: a leading all-ones row with right-hand side 1; for every
    bunch, all r-marginal probabilities (r = 1 up to the bunch arity) over
    value indices below each content's top index (the top value's rows are
    linear combinations of the rest, so they are omitted); and for every
    connection of size >= 2, the same for the r-marginals (r >= 2) of its
    full coupling.  ``completions`` overrides the per-connection couplings;
    by default each is the coincidence-maximizing :func:`maximal_coupling_full`.
    """
    space = outcome_space(system, max_columns)
    if completions is None:
        completions = {}
        for connection in system.connections():
            marginals = [system.bunches[ctx].marginal((pos,)) for ctx, pos in connection.members]
            completions[connection.content] = maximal_coupling_full(
                maximal_coupling_diagonal(marginals)
            )
    rows: list[tuple[int, ...]] = [(1,) * space.size]
    rhs: list[Fraction] = [ONE]

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
                positions = [space.cell_position(context, contents[i]) for i in subset]
                for value in _value_tuples(reduced):
                    rows.append(tuple(space.indicator_row(dict(zip(positions, value)))))
                    rhs.append(sub_marginal.mass(value))

    max_connection_size = max(c.size for c in system.connections())
    for r in range(2, max_connection_size + 1):
        for content, connection in zip(system.contents, system.connections()):
            if connection.size < r or content.size == 1:
                continue
            coupling = completions[content.label]
            if coupling.arity != connection.size or coupling.alphabet_sizes != (
                content.size,
            ) * connection.size:
                raise DimensionMismatchError(
                    f"completion for {content.label!r} has shape "
                    f"{coupling.alphabet_sizes}, expected "
                    f"{(content.size,) * connection.size}"
                )
            members = [ctx for ctx, _ in connection.members]
            for subset in itertools.combinations(range(connection.size), r):
                sub_marginal = coupling.marginal(subset)
                positions = [space.cell_position(members[i], content.label) for i in subset]
                for value in _value_tuples([content.size - 1] * r):
                    rows.append(tuple(space.indicator_row(dict(zip(positions, value)))))
                    rhs.append(sub_marginal.mass(value))
    return LinearSystem(tuple(rows), tuple(rhs), tuple(space.outcomes()))


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
        clean = {tuple(k): as_fraction(v) for k, v in self.masses.items() if v}
        object.__setattr__(self, "masses", clean)
        object.__setattr__(self, "total_variation", sum((abs(v) for v in clean.values()), ZERO))

    @property
    def total_mass(self) -> Fraction:
        return sum(self.masses.values(), ZERO)


@dataclass(frozen=True)
class MeasureResult:
    """Minimum total variation over constraint-satisfying quasi-couplings."""

    total_variation: Fraction
    measure: Fraction
    witness: QuasiCoupling
    pivots: int = 0


def contextuality_measure(
    system: CCSystem, max_columns: int = DEFAULT_COLUMN_CAP
) -> MeasureResult:
    """Minimize ``sum |Q|`` subject to ``M Q = P`` and report ``TV - 1``.

    The nonlinear objective is linearized by splitting ``Q = Q1 - Q2`` with
    both halves nonnegative and minimizing ``sum Q2`` over the widened system
    ``(M | -M)``; at the optimum the halves never overlap, so
    ``TV = 1 + 2 sum Q2``, an identity asserted against the reconstructed
    signed masses.
    """
    linear = build_associated_system(system, max_columns)
    outcomes = linear.column_labels
    n = len(outcomes)
    wide_rows = tuple(row + tuple(-x for x in row) for row in linear.matrix)
    labels = tuple(("+", o) for o in outcomes) + tuple(("-", o) for o in outcomes)
    wide = LinearSystem(wide_rows, linear.rhs, labels)
    objective = (ZERO,) * n + (ONE,) * n
    result: OptimizationResult = minimize(wide, objective)
    masses: dict[tuple[int, ...], Fraction] = {}
    for i, outcome in enumerate(outcomes):
        gamma = result.solution[i] - result.solution[n + i]
        if gamma:
            masses[outcome] = gamma
    witness = QuasiCoupling(masses)
    if witness.total_variation != ONE + 2 * result.value:
        raise SolverError(
            "internal inconsistency: total variation "
            f"{witness.total_variation} != 1 + 2*{result.value}"
        )
    return MeasureResult(
        witness.total_variation, witness.total_variation - ONE, witness, result.pivots
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
    space = outcome_space(system, max_columns)
    width = len(space.cells)
    for outcome in masses:
        if len(outcome) != width or any(
            not 0 <= v < k for v, k in zip(outcome, space.sizes)
        ):
            raise DimensionMismatchError(
                f"outcome {outcome} does not index this system's {width}-cell space"
            )

    total = sum(masses.values(), ZERO)
    checks = [
        CheckResult(
            "total_mass",
            total == ONE,
            () if total == ONE else (f"masses sum to {total}, expected 1",),
        )
    ]

    def restricted_sum(fixed: Mapping[int, int]) -> Fraction:
        acc = ZERO
        for outcome, mass in masses.items():
            if all(outcome[pos] == value for pos, value in fixed.items()):
                acc += mass
        return acc

    violations: dict[str, list[str]] = {"bunch": [], "connection": []}
    for kind, fixed, want in _constraint_rows(system, space):
        got = restricted_sum(fixed)
        if got == want:
            continue
        first = next(iter(fixed))
        context, content = space.cells[first]
        if kind == "bunch":
            where = f"bunch {context!r} at {tuple(fixed.values())}"
        else:
            where = f"connection {content!r} at value {fixed[first]}"
        violations[kind].append(f"{where}: {got} != {want}")
    for name, kind in (("bunch_marginals", "bunch"), ("connection_diagonals", "connection")):
        checks.append(CheckResult(name, not violations[kind], tuple(violations[kind])))
    return QuasiCouplingReport(tuple(checks))
