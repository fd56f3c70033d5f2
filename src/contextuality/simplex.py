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

The simplex is revised and fraction-free: of the basis ``B`` of the
integer-scaled starting matrix it keeps only ``det * B^-1`` and
``det * B^-1 b`` over ``det = |det B|``, prices every column against one
price vector by a scatter over sparse constraint rows, and updates
``det * B^-1`` by integer-preserving (Bareiss/Edmonds) elimination.  Each
kept entry is, up to sign, a minor of the starting matrix (Cramer's rule), so
every pivot divides exactly (Sylvester's identity); nothing is reduced, and
``Fraction`` is only in inputs and read-outs.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
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


class _Revised:
    """Two-phase revised simplex state, fraction-free over one denominator.

    The starting matrix ``X0`` is ``[A | I | b]`` with each row's sign fixed so
    that ``b >= 0``; the structural block is scaled by ``structural_scale``
    and the rhs by ``rhs_scale``, the least integers that make both integral.
    ``sparse`` holds each row of ``A`` as ``(coefficient, column indices)``
    groups.  ``inverse`` holds ``det * B^-1`` with ``det * B^-1 b`` as a last
    column: the artificial block and rhs of the dense tableau ``det * B^-1 X0``.
    Costs ``C`` (``weights``, over ``cost_scale``; unit on the artificials in
    phase 1, the objective on the structural columns after :meth:`price`) are
    priced as ``det * C_j - pi . X0_j`` with ``pi = C_B . det * B^-1``.
    """

    # Degenerate-pivot run length that triggers the Bland fallback.  Any
    # positive constant preserves correctness; Bland alone cannot cycle, and
    # the counter resets whenever the objective strictly improves.
    STALL_LIMIT = 24

    def __init__(self, system: LinearSystem):
        self.n = n = system.cols
        m = system.rows
        self.matrix = system.matrix
        self.structural_scale = math.lcm(*{x.denominator for row in system.matrix for x in row})
        rhs_scale = self.rhs_scale = math.lcm(*(b.denominator for b in system.rhs))
        self.flips = [1 if b >= 0 else -1 for b in system.rhs]
        self.scales = [sign * self.structural_scale for sign in self.flips]
        self.sparse = [
            [
                (int(x * scale), array("i", compress(range(n), map(operator.eq, row, repeat(x)))))
                for x in set(row) if x
            ]
            for row, scale in zip(system.matrix, self.scales)
        ]
        self.inverse = [
            [0] * i + [1] + [0] * (m - 1 - i) + [sign * b.numerator * (rhs_scale // b.denominator)]
            for i, (b, sign) in enumerate(zip(system.rhs, self.flips))
        ]
        self.basis = [n + i for i in range(m)]
        self.dropped: list[int] = []  # original rows dropped as redundant
        self.det = 1
        # Phase 1 minimizes the sum of the artificials, all basic at the start.
        self.weights = [0] * n + [1] * m
        self.cost_scale = 1
        self.pivots = 0
        self.pivot_cap = math.comb(m + n + m, m)

    def price(self, objective: Sequence[Fraction]) -> None:
        """Make ``objective``, scaled by ``cost_scale`` and ``structural_scale``, the costs."""
        scale = self.cost_scale = math.lcm(*(c.denominator for c in objective))
        self.weights = [c.numerator * (scale // c.denominator) * self.structural_scale for c in objective]

    def _prices(self) -> list[int]:
        """``pi = C_B . det * B^-1``, then ``C_B . det * B^-1 b`` last."""
        costs = [self.weights[var] for var in self.basis]
        return [sum(map(operator.mul, costs, column)) for column in zip(*self.inverse)]

    def _scatter(self, y: Sequence[int], out: list[int]) -> list[int]:
        """Subtract ``y . A`` from ``out``, one sparse row at a time."""
        for weight, groups in zip(y, self.sparse):
            if weight:
                for coefficient, indices in groups:
                    v = weight * coefficient
                    for j in indices:
                        out[j] -= v
        return out

    def _column(self, q: int) -> list[int]:
        """The entering column ``det * B^-1 X0_q``, summed over the nonzeros of ``X0_q``."""
        if q >= self.n:
            return [row[q - self.n] for row in self.inverse]
        column = [0] * len(self.inverse)
        for k, (entries, scale) in enumerate(zip(self.matrix, self.scales)):
            if x := entries[q]:
                a = int(x * scale)
                column = [c + a * row[k] for c, row in zip(column, self.inverse)]
        return column

    def _pivot(self, prow: int, column: list[int], pcol: int) -> None:
        """Fraction-free pivot: row ``i`` becomes ``(a * row - column[i] * pivot_row) / det``.

        A negative pivot (possible only when driving out artificials) negates
        the pivot row first, which leaves the resulting rows unchanged.
        """
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise PivotLimitError(
                f"exceeded the anti-cycling pivot cap ({self.pivot_cap}); "
                "this indicates a solver bug"
            )
        pivot = self.inverse[prow]
        a = column[prow]
        if a < 0:
            pivot[:] = [-x for x in pivot]
            a = -a
        det = self.det
        for row, f in zip(self.inverse, column):
            if row is pivot:
                continue
            if f:
                row[:] = [(a * x - f * y) // det for x, y in zip(row, pivot)]
            elif a != det:
                row[:] = [a * x // det for x in row]
        self.det = a
        self.basis[prow] = pcol

    def _entering(self, cost: list[int], bland: bool) -> int | None:
        """Bland's lowest-index negative cost, or the most negative (lowest index on ties).

        Dantzig's rule weighs the artificials by ``structural_scale``, which
        scales only the structural columns, to compare true reduced costs.
        """
        if bland:
            return next((j for j, c in enumerate(cost) if c < 0), None)
        best_col = min(range(self.n), key=cost.__getitem__)
        best = cost[best_col]
        if len(cost) > self.n:
            art = min(range(self.n, len(cost)), key=cost.__getitem__)
            if cost[art] * self.structural_scale < best:
                best_col, best = art, cost[art]
        return best_col if best < 0 else None

    def _leaving(self, column: list[int]) -> int | None:
        """Ratio test on ``column``; ties resolved by least basic variable (Bland)."""
        best = None
        for i, (a, row) in enumerate(zip(column, self.inverse)):
            if a > 0 and (
                best is None
                or (diff := row[-1] * column[best] - self.inverse[best][-1] * a) < 0
                or (diff == 0 and self.basis[i] < self.basis[best])
            ):
                best = i
        return best

    def _run(self) -> bool:
        """Pivot to optimality of the current costs; False if unbounded.

        ``pi`` enters the dense cost row as ``det * C_art - pi`` (rhs: ``-pi``),
        so each pivot updates it like a row of ``inverse``, by the entering cost.
        """
        stalled = 0
        pi = self._prices()
        while True:
            det = self.det
            cost = self._scatter(pi, [det * w for w in self.weights[: self.n]])
            cost += [det * w - p for w, p in zip(self.weights[self.n :], pi)]
            col = self._entering(cost, stalled >= self.STALL_LIMIT)
            if col is None:
                return True
            column = self._column(col)
            row = self._leaving(column)
            if row is None:
                return False
            pivot, a, f = self.inverse[row], column[row], cost[col]
            pi = [(a * x + f * y) // det for x, y in zip(pi, pivot)]
            stalled = stalled + 1 if pivot[-1] == 0 else 0
            self._pivot(row, column, col)

    def objective_value(self) -> Fraction:
        return Fraction(self._prices()[-1], self.det * self.cost_scale * self.rhs_scale)

    def structural_solution(self) -> tuple[Fraction, ...]:
        values = [ZERO] * self.n
        scale = self.det * self.rhs_scale
        for var, row in zip(self.basis, self.inverse):
            if var < self.n:
                values[var] = Fraction(row[-1] * self.structural_scale, scale)
        return tuple(values)

    def farkas_certificate(self) -> tuple[Fraction, ...]:
        """The phase-1 prices over ``det``, unflipped to the original rows."""
        return tuple(sign * Fraction(p, self.det) for sign, p in zip(self.flips, self._prices()))

    def drop_artificials(self) -> None:
        """Pivot remaining artificials out of the basis; drop redundant rows.

        A basic artificial's tableau row ``det * B^-1 A`` is one scatter.  If
        it is zero, no later pivot reads it and ``det`` stays valid for the
        rows that remain; its artificial names an original row that the kept
        rows span, recorded in ``dropped``.
        """
        i = 0
        while i < len(self.inverse):
            if self.basis[i] < self.n:
                i += 1
                continue
            row = self._scatter(self.inverse[i], [0] * self.n)
            col = next((j for j, x in enumerate(row) if x), None)
            if col is None:
                self.dropped.append(self.basis[i] - self.n)
                del self.inverse[i], self.basis[i]
            else:
                self._pivot(i, self._column(col), col)
                i += 1

    def dual(self, system: LinearSystem, objective: Sequence[Fraction]) -> tuple[Fraction, ...]:
        """The basis's dual ``y``: ``B^T y = c_B`` over the original rows.

        Called after :meth:`drop_artificials`, when every basic variable is
        structural.  The basis columns restricted to the rows not dropped
        form a nonsingular square matrix ``B``; the dropped rows get
        ``y = 0``.  Solving on the original columns, not the sign-fixed
        rows, gives ``y`` in the rows' own signs.
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
    """Decide ``{M Q = P, Q >= 0}`` and return a solution or a certificate.

    Phase 1 minimizes the sum of the artificials; if the minimum is not 0,
    its final prices over ``det``, unflipped, are the Farkas certificate.
    """
    lp = _Revised(system)
    lp._run()
    if lp.objective_value() == 0:
        return FeasibilityResult(FEASIBLE, lp.structural_solution(), None, lp.pivots)
    return FeasibilityResult(INFEASIBLE, None, lp.farkas_certificate(), lp.pivots)


def minimize(system: LinearSystem, objective: Sequence) -> OptimizationResult:
    """Minimize ``objective . Q`` over ``{M Q = P, Q >= 0}``, exactly.

    Returns the unique optimal value, one optimal vertex and the dual of its
    basis, which certifies the value.  Phase 2 starts from phase 1's
    ``det * B^-1`` once the artificials are out of the basis.  Raises
    :class:`InfeasibleError` (with a Farkas certificate attached) on an
    infeasible system and :class:`UnboundedError` when unbounded below.
    """
    objective = tuple(as_fraction(x) for x in objective)
    if len(objective) != system.cols:
        raise DimensionMismatchError(
            f"objective has {len(objective)} entries for {system.cols} columns"
        )
    lp = _Revised(system)
    lp._run()
    if lp.objective_value() != 0:
        raise InfeasibleError(certificate=lp.farkas_certificate())
    lp.drop_artificials()
    lp.price(objective)
    if not lp._run():
        raise UnboundedError("objective is unbounded below on the feasible region")
    return OptimizationResult(
        lp.objective_value(), lp.structural_solution(), lp.pivots, lp.dual(system, objective)
    )
