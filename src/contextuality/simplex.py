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
``det * B^-1 b`` over ``det = |det B|``, and updates them by
integer-preserving (Bareiss/Edmonds) elimination.  Each kept entry is, up to
sign, a minor of the starting matrix (Cramer's rule), so every pivot divides
exactly (Sylvester's identity); nothing is reduced, and ``Fraction`` is only
in inputs and read-outs.  The reduced costs are priced once per phase; each
pivot then updates them as the dense tableau updated its cost row, from the
leaving row of ``det * B^-1`` scattered over the constraint rows where it is
nonzero.  That division is exact too, because the result is again the
tableau's integer cost row.  The measure's ``(A | -A)`` stores ``A`` once:
the negated half is priced from the same scatter with the opposite sign and
enters as the negated column of its partner.
"""

from __future__ import annotations

import math
import operator
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property
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


class LinearSystem:
    """Constraint data for ``A Q = rhs`` with ``Q >= 0``, held as sparse rows.

    ``LinearSystem(matrix, rhs, column_labels)`` takes dense rows, whose
    entries may be ints or Fractions (the systems built here are 0/1 Boolean,
    but general rationals are accepted), and converts them once.  Each row is
    kept as ``(coefficient, column indices)`` groups, the indices ascending in
    an ``array('i')``.  When ``negated`` is set the system is ``(A | -A)``
    over ``2 * width`` columns and only ``A`` is stored: :meth:`widened`
    makes one that shares this system's index arrays.  ``column_labels`` are
    opaque identifiers carried through to solutions.
    """

    def __init__(self, matrix, rhs, column_labels=None):
        matrix = [[_exact(x) for x in row] for row in matrix]
        if not matrix:
            raise DimensionMismatchError("constraint matrix has no rows")
        width = len(matrix[0])
        if width == 0:
            raise DimensionMismatchError("constraint matrix has no columns")
        sparse_rows = []
        for i, row in enumerate(matrix):
            if len(row) != width:
                raise DimensionMismatchError(f"row {i} has {len(row)} entries, expected {width}")
            groups: dict = {}
            for j, x in enumerate(row):
                if x:
                    groups.setdefault(x, array("i")).append(j)
            if not groups:
                raise DimensionMismatchError(f"row {i} is identically zero")
            sparse_rows.append(tuple(groups.items()))
        rhs = tuple(as_fraction(x) for x in rhs)
        if len(rhs) != len(matrix):
            raise DimensionMismatchError(
                f"rhs has {len(rhs)} entries for {len(matrix)} rows"
            )
        if column_labels is not None:
            column_labels = tuple(column_labels)
            if len(column_labels) != width:
                raise DimensionMismatchError(
                    f"{len(column_labels)} column labels for {width} columns"
                )
        self.sparse_rows = tuple(sparse_rows)
        self.rhs = rhs
        self.width = width
        self.column_labels = column_labels
        self.negated = False

    @classmethod
    def from_sparse(
        cls, sparse_rows: Sequence, rhs: Sequence[Fraction], width: int,
        column_labels: tuple | None = None, negated: bool = False,
    ) -> LinearSystem:
        """A system over rows already in sparse form, taken as they are, unchecked."""
        system = cls.__new__(cls)
        system.sparse_rows = tuple(sparse_rows)
        system.rhs = tuple(rhs)
        system.width = width
        system.column_labels = column_labels
        system.negated = negated
        return system

    def widened(self) -> LinearSystem:
        """``(A | -A)`` over the same rows and rhs, sharing this system's index arrays."""
        return LinearSystem.from_sparse(self.sparse_rows, self.rhs, self.width, negated=True)

    @property
    def rows(self) -> int:
        return len(self.sparse_rows)

    @property
    def cols(self) -> int:
        return 2 * self.width if self.negated else self.width

    @cached_property
    def matrix(self) -> tuple[tuple, ...]:
        """The dense rows, built on first use; absent entries are the int 0."""
        rows = []
        for groups in self.sparse_rows:
            row = [0] * self.width
            for coefficient, indices in groups:
                for j in indices:
                    row[j] = coefficient
            if self.negated:
                row += [-x for x in row]
            rows.append(tuple(row))
        return tuple(rows)

    def column(self, j: int) -> list:
        """Column ``j`` as one coefficient per row, found by bisection in each group."""
        sign = 1
        if j >= self.width:
            j, sign = j - self.width, -1
        column = []
        for groups in self.sparse_rows:
            entry = 0
            for coefficient, indices in groups:
                k = bisect_left(indices, j)
                if k < len(indices) and indices[k] == j:
                    entry = sign * coefficient
                    break
            column.append(entry)
        return column

    def combine(self, weights: Sequence) -> list:
        """``weights . A`` over the ``width`` columns of ``A``."""
        return _scatter(weights, self.sparse_rows, [0] * self.width)


def _scatter(weights: Sequence, sparse_rows: Sequence, out: list) -> list:
    """Add ``weights . A`` to ``out``, one sparse row of ``A`` at a time, and return it."""
    for weight, groups in zip(weights, sparse_rows):
        if weight:
            for coefficient, indices in groups:
                v = weight * coefficient
                for j in indices:
                    out[j] += v
    return out


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

        A vertex solution is substituted column by column over its support.
        A certificate is scaled to integers over its common denominator and
        combined over the sparse rows, so every added entry is a nonzero one.
        """
        if self.feasible:
            q = self.solution
            if q is None or len(q) != system.cols:
                return False
            support = [j for j, x in enumerate(q) if x]
            if any(q[j] < 0 for j in support):
                return False
            lhs = [ZERO] * system.rows
            for j in support:
                for i, a in enumerate(system.column(j)):
                    if a:
                        lhs[i] += a * q[j]
            return lhs == list(system.rhs)
        y = self.certificate
        if y is None or len(y) != system.rows:
            return False
        scale = math.lcm(*(v.denominator for v in y))
        combined = system.combine([v.numerator * (scale // v.denominator) for v in y])
        if system.negated:
            combined += [-x for x in combined]
        if any(entry > 0 for entry in combined):
            return False
        return sum(map(operator.mul, y, system.rhs)) > 0


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
    groups, sharing the system's index arrays.  For a widened system
    ``(A | -A)`` it holds only ``A``: the ``width`` columns of the negated
    half are priced from the same scatter with the opposite sign, and each
    enters as the negated column of its partner.  ``inverse`` holds
    ``det * B^-1`` with ``det * B^-1 b`` as a last column: the artificial
    block and rhs of the dense tableau ``det * B^-1 X0``.  Costs ``C``
    (``weights``, over ``cost_scale``; unit on the artificials in phase 1,
    the objective on the structural columns after :meth:`price`) give the
    reduced costs ``det * C_j - pi . X0_j`` with ``pi = C_B . det * B^-1``.
    They are priced from ``pi`` once per phase and then updated on each pivot
    from the leaving row ``rho`` of ``det * B^-1`` alone, as the dense
    tableau's cost row was (Chvatal, *Linear Programming*, ch. 7-8).
    """

    # Degenerate-pivot run length that triggers the Bland fallback.  Any
    # positive constant preserves correctness; Bland alone cannot cycle, and
    # the counter resets whenever the objective strictly improves.
    STALL_LIMIT = 24

    def __init__(self, system: LinearSystem):
        self.n = n = system.cols
        self.width = system.width
        self.negated = system.negated
        self.system = system
        m = system.rows
        self.structural_scale = math.lcm(
            *{x.denominator for groups in system.sparse_rows for x, _ in groups}
        )
        rhs_scale = self.rhs_scale = math.lcm(*(b.denominator for b in system.rhs))
        self.flips = [1 if b >= 0 else -1 for b in system.rhs]
        self.scales = [sign * self.structural_scale for sign in self.flips]
        self.sparse = [
            [(int(x * scale), indices) for x, indices in groups]
            for groups, scale in zip(system.sparse_rows, self.scales)
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

    def _costs(self) -> list[int]:
        """The reduced costs ``det * C_j - pi . X0_j``, with the artificials' last in phase 1."""
        pi, det, w = self._prices(), self.det, self.weights
        s = _scatter(pi, self.sparse, [0] * self.width)
        cost = [det * c - x for c, x in zip(w, s)]
        if self.negated:
            cost += [det * c + x for c, x in zip(w[self.width :], s)]
        return cost + [det * c - p for c, p in zip(w[self.n :], pi)]

    def _column(self, q: int) -> list[int]:
        """The entering column ``det * B^-1 X0_q``, summed over the nonzeros of ``X0_q``."""
        if q >= self.n:
            return [row[q - self.n] for row in self.inverse]
        column = [0] * len(self.inverse)
        for k, (x, scale) in enumerate(zip(self.system.column(q), self.scales)):
            if x:
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

        The cost row is a row of the dense tableau, so a pivot on ``a`` with
        entering cost ``f`` makes it ``(a * cost - f * rho . X0) / det``, and
        the division is exact because the result is again that tableau's
        integer cost row (Sylvester's identity).  ``rho . X0`` is a scatter
        over the nonzeros of ``rho`` only: ``rho . A`` on the structural
        columns, its negation on a negated half, ``rho`` on the artificials.
        When ``a == det``, a cost whose ``rho . X0`` entry is zero is unchanged.
        """
        stalled = 0
        cost = self._costs()
        while True:
            col = self._entering(cost, stalled >= self.STALL_LIMIT)
            if col is None:
                return True
            column = self._column(col)
            row = self._leaving(column)
            if row is None:
                return False
            pivot, a, f, det = self.inverse[row], column[row], cost[col], self.det
            s = _scatter(pivot, self.sparse, [0] * self.width)
            if self.negated:
                s += [-x for x in s]
            s += pivot[: len(cost) - self.n]
            if a == det:
                cost = [x - f * y // det if y else x for x, y in zip(cost, s)]
            else:
                cost = [(a * x - f * y) // det if y else a * x // det for x, y in zip(cost, s)]
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

        A basic artificial's tableau row ``det * B^-1 A`` is one scatter; on a
        negated half it is the negation, so its first nonzero is in ``A``.  If
        it is zero, no later pivot reads it and ``det`` stays valid for the
        rows that remain; its artificial names an original row that the kept
        rows span, recorded in ``dropped``.
        """
        i = 0
        while i < len(self.inverse):
            if self.basis[i] < self.n:
                i += 1
                continue
            row = _scatter(self.inverse[i], self.sparse, [0] * self.width)
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
        equations = []
        for j in self.basis:
            column = system.column(j)
            equations.append(([column[i] for i in kept], objective[j]))
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
