"""Exact linear programming over the rationals.

Solves feasibility of ``{M Q = P, Q >= 0}`` and minimization of a linear
objective over that polytope, with no floating point anywhere.  Two-phase
simplex with a deterministic pivot rule: most-negative-reduced-cost entering
(ties to the lowest index), Bland's smallest-index leaving, and a switch to
Bland's entering rule whenever a run of degenerate pivots has made no
progress.  Bland's rule cannot cycle, so termination is guaranteed and
results are a pure function of the input.  An infeasible system comes back
with a Farkas certificate: a row vector ``y`` with ``y^T M <= 0`` and
``y^T P > 0``, checkable by plain substitution.  An optimum comes back with
the dual of its final basis, ``B^T y = c_B``, solved on the original columns
because the artificial ones are gone by then.

The tableau is dense and fraction-free: integer constraint rows over one
positive denominator ``det``, updated by integer-preserving (Bareiss/Edmonds)
elimination, and one cost row over ``det * cost_scale``, which phase 2 prices
afresh from the basis that phase 1 leaves.  Each constraint entry stays, up
to sign, a minor of the integer-scaled starting matrix, so every pivot divides
exactly; nothing is reduced, and ``Fraction`` is only in inputs and read-outs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .distribution import ZERO, as_fraction
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    PivotLimitError,
    UnboundedError,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def _exact(x):
    """Pass ints through untouched; coerce everything else via as_fraction."""
    return x if type(x) is int else as_fraction(x)


@dataclass(frozen=True)
class LinearSystem:
    """Constraint data for ``matrix . Q = rhs`` with ``Q >= 0``.

    Matrix entries may be ints or Fractions (the systems built here are 0/1
    Boolean, but general rationals are accepted).  ``column_labels`` are
    opaque identifiers carried through to solutions.
    """

    matrix: tuple[tuple[Fraction, ...], ...]
    rhs: tuple[Fraction, ...]
    column_labels: tuple[object, ...] | None = None

    def __post_init__(self):
        matrix = tuple(tuple(_exact(x) for x in row) for row in self.matrix)
        rhs = tuple(as_fraction(x) for x in self.rhs)
        if not matrix:
            raise DimensionMismatchError("constraint matrix has no rows")
        width = len(matrix[0])
        if width == 0:
            raise DimensionMismatchError("constraint matrix has no columns")
        for i, row in enumerate(matrix):
            if len(row) != width:
                raise DimensionMismatchError(f"row {i} has {len(row)} entries, expected {width}")
            if not any(row):
                raise DimensionMismatchError(f"row {i} is identically zero")
        if len(rhs) != len(matrix):
            raise DimensionMismatchError(
                f"rhs has {len(rhs)} entries for {len(matrix)} rows"
            )
        labels = self.column_labels
        if labels is not None:
            labels = tuple(labels)
            if len(labels) != width:
                raise DimensionMismatchError(
                    f"{len(labels)} column labels for {width} columns"
                )
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "column_labels", labels)

    @property
    def rows(self) -> int:
        return len(self.matrix)

    @property
    def cols(self) -> int:
        return len(self.matrix[0])


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility solve, carrying its witness.

    Exactly one of ``solution`` (nonnegative, satisfying ``M Q = P``) and
    ``certificate`` (Farkas vector over the rows) is present.
    """

    status: str
    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None
    pivots: int

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE

    def verify(self, system: LinearSystem) -> bool:
        """Re-check the witness against the system by exact substitution.

        Vertex solutions and certificates are sparse relative to the matrix,
        so substitution runs over nonzero entries only.
        """
        if self.feasible:
            q = self.solution
            if q is None or len(q) != system.cols or any(x < 0 for x in q):
                return False
            support = [j for j, x in enumerate(q) if x]
            return all(
                sum(row[j] * q[j] for j in support) == b
                for row, b in zip(system.matrix, system.rhs)
            )
        y = self.certificate
        if y is None or len(y) != system.rows:
            return False
        combined = [ZERO] * system.cols
        for weight, row in zip(y, system.matrix):
            if weight:
                for j, a in enumerate(row):
                    if a:
                        combined[j] += weight * a
        if any(entry > 0 for entry in combined):
            return False
        return sum(y[i] * system.rhs[i] for i in range(system.rows)) > 0


@dataclass(frozen=True)
class OptimizationResult:
    """Exact optimum of a linear objective with an attaining vertex and its dual.

    ``dual`` is the basic dual solution ``y`` over the rows of the system:
    ``M^T y <= objective`` and ``y . rhs == value``, so by weak duality no
    feasible point does better than ``value``.
    """

    value: Fraction
    solution: tuple[Fraction, ...]
    pivots: int
    dual: tuple[Fraction, ...]


class _Tableau:
    """Dense two-phase simplex state, fraction-free over one denominator.

    ``self.rows`` (the constraint rows) and ``self.cost`` (the one reduced-cost
    row, with minus the objective value in the rhs cell) are integer lists
    that share the positive denominator ``self.det``.  Column layout: ``n``
    structural variables, ``m`` artificials, then the right-hand side;
    :meth:`drop_artificials` deletes the artificial block once phase 1 is over.

    The starting matrix ``X0`` is ``[A | I | b]`` with each row's sign fixed so
    that ``b >= 0``; the structural block is scaled by ``structural_scale``
    and the rhs by ``rhs_scale``, the least integers that make both integral.
    No row is ever scaled, so the artificial block stays an identity and the
    phase-1 objective keeps unit weights.  With ``B`` the basis columns of
    ``X0``, the constraint rows are ``det * B^-1 X0`` with ``det = |det B|``,
    so every entry is, up to sign, a minor of ``X0`` (Bareiss/Edmonds).  The
    cost row never pivots, so its positive integer ``cost_scale`` is its own:
    it holds ``det * cost_scale`` times the reduced costs.  It starts as the
    phase-1 row; :meth:`price` replaces it with the phase-2 objective, priced
    against the basis that phase 1 leaves.
    """

    # Degenerate-pivot run length that triggers the Bland fallback.  Any
    # positive constant preserves correctness; Bland alone cannot cycle, and
    # the counter resets whenever the objective strictly improves.
    STALL_LIMIT = 24

    def __init__(self, system: LinearSystem):
        self.n = system.cols
        m = system.rows
        self.structural_scale = math.lcm(*{x.denominator for row in system.matrix for x in row})
        self.rhs_scale = math.lcm(*(b.denominator for b in system.rhs))
        self.flips = [1 if b >= 0 else -1 for b in system.rhs]
        self.rows: list[list[int]] = []
        for i, (row, b, sign) in enumerate(zip(system.matrix, system.rhs, self.flips)):
            scale = sign * self.structural_scale
            art = [0] * m
            art[i] = 1
            self.rows.append(
                [x.numerator * (scale // x.denominator) for x in row]
                + art
                + [sign * b.numerator * (self.rhs_scale // b.denominator)]
            )
        self.basis = [self.n + i for i in range(m)]
        self.dropped: list[int] = []  # original rows dropped as redundant
        self.det = 1
        # Phase 1 minimizes the sum of the artificials, all basic at the start.
        self.cost = [-sum(column) for column in zip(*self.rows)]
        self.cost[self.n : self.n + m] = [0] * m
        self.cost_scale = 1
        self.pivots = 0
        self.pivot_cap = math.comb(m + self.n + m, m)

    def price(self, objective: Sequence[Fraction]) -> None:
        """Price ``objective`` against the basis: ``det * C_j - sum_i C[basis[i]] * rows[i][j]``.

        ``C`` is ``objective`` scaled by ``cost_scale`` and ``structural_scale``.
        """
        scale = self.cost_scale = math.lcm(*(c.denominator for c in objective))
        weights = [c.numerator * (scale // c.denominator) * self.structural_scale for c in objective]
        cost = [self.det * w for w in weights] + [0]
        for var, row in zip(self.basis, self.rows):
            w = weights[var]
            if w:
                cost = [x - w * y for x, y in zip(cost, row)]
        self.cost = cost

    # -- elementary operations ---------------------------------------------

    def _pivot(self, prow: int, pcol: int) -> None:
        """Fraction-free pivot: each other row becomes ``(a*row - row[c]*T[p]) / det``.

        The division is exact by Sylvester's identity.  A negative pivot
        (possible only when driving out artificials) negates the pivot row
        first, which leaves the resulting tableau unchanged.
        """
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise PivotLimitError(
                f"exceeded the anti-cycling pivot cap ({self.pivot_cap}); "
                "this indicates a solver bug"
            )
        pivot = self.rows[prow]
        a = pivot[pcol]
        if a < 0:
            pivot[:] = [-x for x in pivot]
            a = -a
        det = self.det
        for row in itertools.chain(self.rows, (self.cost,)):
            if row is pivot:
                continue
            f = row[pcol]
            if f:
                row[:] = [(a * x - f * y) // det for x, y in zip(row, pivot)]
            elif a != det:
                row[:] = [a * x // det for x in row]
        self.det = a
        self.basis[prow] = pcol

    def _entering_bland(self) -> int | None:
        """Bland: the lowest-index column with negative cost."""
        return next((j for j, c in enumerate(self.cost[:-1]) if c < 0), None)

    def _entering_dantzig(self) -> int | None:
        """Most negative reduced cost, lowest index on ties.

        Structural entries are stored times ``structural_scale`` and the
        artificial ones are not, so the artificials are weighed by it to
        compare the reduced costs themselves.
        """
        cost = self.cost
        best_col = min(range(self.n), key=cost.__getitem__)
        best = cost[best_col]
        if len(cost) - 1 > self.n:
            art = min(range(self.n, len(cost) - 1), key=cost.__getitem__)
            if cost[art] * self.structural_scale < best:
                best_col, best = art, cost[art]
        return best_col if best < 0 else None

    def _leaving(self, col: int) -> int | None:
        """Ratio test on ``col``; ties resolved by least basic variable (Bland)."""
        best: tuple[int, int] | None = None  # (rhs_num, col_num) of best ratio
        best_row = -1
        for i, nums in enumerate(self.rows):
            a = nums[col]
            if a <= 0:
                continue
            b = nums[-1]
            if best is None:
                best, best_row = (b, a), i
                continue
            diff = b * best[1] - best[0] * a
            if diff < 0 or (diff == 0 and self.basis[i] < self.basis[best_row]):
                best, best_row = (b, a), i
        return None if best is None else best_row

    def _run(self) -> bool:
        """Pivot to optimality of the cost row; False if unbounded."""
        stalled = 0
        while True:
            if stalled < self.STALL_LIMIT:
                col = self._entering_dantzig()
            else:
                col = self._entering_bland()
            if col is None:
                return True
            row = self._leaving(col)
            if row is None:
                return False
            degenerate = self.rows[row][-1] == 0
            self._pivot(row, col)
            stalled = stalled + 1 if degenerate else 0

    # -- readouts -------------------------------------------------------------

    def objective_value(self) -> Fraction:
        return -Fraction(self.cost[-1], self.det * self.cost_scale * self.rhs_scale)

    def structural_solution(self) -> tuple[Fraction, ...]:
        values = [ZERO] * self.n
        scale = self.det * self.rhs_scale
        for i, var in enumerate(self.basis):
            if var < self.n:
                values[var] = Fraction(self.rows[i][-1] * self.structural_scale, scale)
        return tuple(values)

    def farkas_certificate(self) -> tuple[Fraction, ...]:
        """Dual vector of the phase-1 optimum, unflipped to the original rows."""
        return tuple(
            sign * (1 - Fraction(self.cost[self.n + i], self.det))
            for i, sign in enumerate(self.flips)
        )

    def drop_artificials(self) -> None:
        """Pivot remaining artificials out of the basis; drop redundant rows.

        A dropped row has no structural entry, so no later pivot reads it and
        ``det`` stays valid for the rows that remain.  Its basic artificial
        names an original row that the kept rows span, recorded in
        ``dropped``.  The artificial columns are then deleted from the
        constraint rows; phase 2 never lets them in.
        """
        i = 0
        while i < len(self.rows):
            if self.basis[i] < self.n:
                i += 1
                continue
            nums = self.rows[i]
            col = next((j for j in range(self.n) if nums[j]), None)
            if col is None:
                self.dropped.append(self.basis[i] - self.n)
                del self.rows[i], self.basis[i]
            else:
                self._pivot(i, col)
                i += 1
        for row in self.rows:
            del row[self.n : -1]

    def dual(self, system: LinearSystem, objective: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The basis's dual ``y``: ``B^T y = c_B`` over the original rows.

        Called after :meth:`drop_artificials`, when every basic variable is
        structural.  The basis columns restricted to the rows not dropped
        form a nonsingular square matrix ``B``; the dropped rows get
        ``y = 0``.  Solving on the original columns, not the tableau's
        sign-fixed rows, gives ``y`` in the rows' own signs.
        """
        kept = [i for i in range(system.rows) if i not in self.dropped]
        equations = [([system.matrix[i][j] for i in kept], objective[j]) for j in self.basis]
        y = [ZERO] * system.rows
        for i, value in zip(kept, _solve_square(equations)):
            y[i] = value
        return tuple(y)


def _solve_square(equations: Sequence[tuple[Sequence, Fraction]]) -> list[Fraction]:
    """The solution of a nonsingular square system of ``(coefficients, rhs)`` equations.

    Each equation is scaled to integers by the lcm of its denominators, then
    fraction-free Gauss-Jordan elimination (the tableau's Bareiss pivot)
    leaves ``det * I`` on the left, so the solution is the rhs over ``det``.
    """
    rows = []
    for coefficients, rhs in equations:
        entries = (*coefficients, rhs)
        scale = math.lcm(*(x.denominator for x in entries))
        rows.append([x.numerator * (scale // x.denominator) for x in entries])
    det = 1
    for k in range(len(rows)):
        p = next(i for i in range(k, len(rows)) if rows[i][k])
        rows[k], rows[p] = rows[p], rows[k]
        pivot = rows[k]
        a = pivot[k]
        for row in rows:
            if row is pivot:
                continue
            f = row[k]
            if f:
                row[:] = [(a * x - f * y) // det for x, y in zip(row, pivot)]
            elif a != det:
                row[:] = [a * x // det for x in row]
        det = a
    return [Fraction(row[-1], det) for row in rows]


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide ``{M Q = P, Q >= 0}`` and return a solution or a certificate."""
    tableau = _Tableau(system)
    tableau._run()
    if tableau.objective_value() == 0:
        return FeasibilityResult(
            FEASIBLE, tableau.structural_solution(), None, tableau.pivots
        )
    return FeasibilityResult(
        INFEASIBLE, None, tableau.farkas_certificate(), tableau.pivots
    )


def minimize(system: LinearSystem, objective: Sequence) -> OptimizationResult:
    """Minimize ``objective . Q`` over ``{M Q = P, Q >= 0}``, exactly.

    Returns the unique optimal value, one optimal vertex and the dual of its
    basis, which certifies the value.  Raises
    :class:`InfeasibleError` (with a Farkas certificate attached) on an
    infeasible system and :class:`UnboundedError` when the objective is
    unbounded below.
    """
    objective = tuple(as_fraction(x) for x in objective)
    if len(objective) != system.cols:
        raise DimensionMismatchError(
            f"objective has {len(objective)} entries for {system.cols} columns"
        )
    tableau = _Tableau(system)
    tableau._run()
    if tableau.objective_value() != 0:
        raise InfeasibleError(certificate=tableau.farkas_certificate())
    tableau.drop_artificials()
    tableau.price(objective)
    if not tableau._run():
        raise UnboundedError("objective is unbounded below on the feasible region")
    return OptimizationResult(
        tableau.objective_value(),
        tableau.structural_solution(),
        tableau.pivots,
        tableau.dual(system, objective),
    )
