"""Exact linear programming over the rationals.

Solves feasibility of ``{A Q = b, Q >= 0}`` and the contextuality measure's
LP, the least negative mass ``sum Q-`` over signed ``Q = Q+ - Q-`` with
``A Q = b``, with no floating point anywhere.  Two-phase simplex with one
deterministic pivot rule: the most negative reduced cost enters (Dantzig's
rule, ties to the lowest index), and the row that leaves is chosen by the
lexicographic ratio test (Dantzig, Orden & Wolfe, Pacific J. Math. 5, 1955),
which cannot cycle (proved below), so termination is guaranteed and results
are a pure function of the input.  A solution comes back as its support, the
ascending columns that are basic at a nonzero level, and its values there.
Both witnesses over the rows are read from the final simplex multipliers
``pi = C_B . det * B^-1`` (Chvatal, *Linear Programming*, ch. 3 and 7-8).
An infeasible system comes back with a Farkas certificate: a row vector
``y`` with ``y^T A <= 0`` and ``y^T b > 0``, checkable by plain
substitution.  The measure comes back with the dual of its final basis,
which is zero on the rows phase 1 dropped as redundant.  Each result checks
its own witness: :meth:`FeasibilityResult.verify` the coupling or the
certificate, and :meth:`OptimizationResult.verify` the vertex, its value and
the dual's bounds, which by weak duality prove the value least.

The simplex is revised and fraction-free: of the basis ``B`` of the
integer-scaled starting matrix it keeps only ``det * B^-1`` and
``det * B^-1 b`` over ``det = |det B|``, by columns, and updates them by
integer-preserving (Bareiss/Edmonds) elimination.  Each kept entry is, up to
sign, a minor of the starting matrix (Cramer's rule), so every pivot divides
exactly (Sylvester's identity); nothing is reduced, and ``Fraction`` is only
in inputs and read-outs.  A pivot recomputes only the columns its leaving row
is nonzero in and rescales the rest; an entering column sums whole columns.

Each phase is priced from the multipliers ``pi`` alone, kept across its
pivots: a pivot on ``a`` with entering reduced cost ``f`` and leaving row
``rho`` of ``det * B^-1`` makes them ``(a * pi + f * rho) // det``.  The
reduced costs ``det * C - pi . X0`` would update to ``(a * cost - f * rho .
X0) / det``, which is ``a * C`` less that new ``pi`` times ``X0`` with ``a``
the new ``det``, and that ``pi`` is again the integer ``C_B . det * B^-1``,
so the division is exact.  A system comes in one of two kinds, which
answer the same two column questions: the largest ``w . A_j`` (``best``)
and the lowest ``j`` with ``w . A_j`` nonzero (``first_nonzero``, which
drive-out asks).  A :class:`LinearSystem` holds explicit sparse rows and
answers by a scatter, then a scan; the solver also keeps ``pi . X0_j`` over
its columns, priced once per phase and updated the same way from ``rho``
scattered over the rows where it is nonzero.  An :class:`OutcomeSystem`
holds only the ``(fixed cells, rhs)`` patterns of 0/1 rows over a product
of cells, so its columns, one per assignment of values to the cells, are
never listed.  Its questions are a max-sum over the cells that variable
elimination answers exactly: the cells are eliminated last first, each step
summing the tables that hold its cell and keeping that sum, and a forward
walk over the cells then picks, at each cell, the lowest value whose exact
max-completion bound clears a threshold (``first_above``, which
``first_nonzero`` asks of ``w`` and ``-w``), which ends on the lowest column
that clears it.  Both kinds take the same pivots to the same answers.

The ratio test is lexicographic.  Each run to optimality fixes the basis
``B0`` it starts from, and row ``i`` has the key vector ``(det * B^-1 b,
then det * B^-1 X0_k for each column k of B0, last position first)`` at
``i``.  Among the rows with a positive entry ``c_i`` in the entering column,
the least ``key_i / c_i`` leaves, compared key by key until one row is left.
Each key is read only at the rows still tied.  In phase 1 ``B0`` is the
artificial basis, so the keys after the levels are the columns of ``det *
B^-1`` in reverse, read in place; in phase 2 each ``det * B^-1 X0_k`` is
summed at the tied rows from the nonzeros of ``X0_k``, decoded once per run
the first time a tie reaches ``k``.

This rule ends every run.  Call a row lex-positive when its first nonzero key
is positive; ``det > 0``, so the scaling by it changes no sign and no ratio.
(a) When a run starts, ``B = B0`` makes the keys after the levels ``det * I``
and every level is nonnegative: phase 1 starts from the artificials at ``b
>= 0``, phase 2 after :meth:`_Revised.widen` has signed every level.  So
every row is lex-positive.  (b) ``B^-1 X0_B0`` is invertible, so no two rows'
key vectors are proportional, and the test leaves exactly one row ``r``.  A
pivot keeps every row lex-positive: row ``r`` is divided by ``c_r > 0``; a row
with ``c_i <= 0`` gains a nonnegative multiple of row ``r``; and a row with
``c_i > 0`` becomes ``c_i (key_i / c_i - key_r / c_r)``, lex-positive because
row ``r`` won the test.  (c) A pivot whose entering reduced cost is negative
adds a negative multiple of row ``r`` to the objective's vector ``C_B B^-1 [b
| X0_B0]``, so that vector falls strictly in lexicographic order.  It is a
function of the basis, so no basis recurs, and there are finitely many
(Chvatal, ch. 3).

The measure's LP splits ``Q`` into ``(Q+, Q-)`` over ``(A | -A)``, and only
the solver knows the split: a system is ``A`` alone.  ``(A | -A) Q = b``
has a solution whenever ``b`` is in the column space of ``A``, and any basis
of ``A`` with each basic column signed by its value is a feasible basis of
it (Chvatal, ch. 8).  So :func:`minimize` runs phase 1 on ``A``, or
continues a copy of the solver that an infeasible :func:`solve_feasibility`
on ``A`` kept.  The artificials, still above 0, are pivoted out on any
nonzero entry, the redundant rows dropped (one left at a nonzero level
shows ``b`` outside the column space), and each basic column at a negative
value swapped for its partner in ``-A``, which negates one row of
``det * B^-1`` and leaves ``det`` as it is.  Phase 2 runs from there over both halves:
the column ``j`` of ``-A`` enters as the negated column ``j`` of ``A``,
and the costs are one number per half.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

from .distribution import as_fraction
from .errors import (
    DimensionMismatchError,
    InfeasibleError,
    PivotLimitError,
)

FEASIBLE = "feasible"
INFEASIBLE = "infeasible"


def _exact(x):
    """Pass ints through untouched; coerce everything else via as_fraction."""
    return x if type(x) is int else as_fraction(x)


def common_denominator(values: Sequence) -> tuple[list[int], int]:
    """Exact ``values`` as integer numerators over their least common denominator."""
    scale = math.lcm(*(x.denominator for x in values))
    return [x.numerator * (scale // x.denominator) for x in values], scale


class LinearSystem:
    """Constraint data for ``A Q = rhs``, held as sparse rows.

    ``LinearSystem(matrix, rhs)`` takes dense rows, whose entries may be ints
    or Fractions (the systems built here are 0/1 Boolean, but general
    rationals are accepted), and converts them once.  Each row is kept as
    ``(coefficient, column indices)`` groups, the indices ascending in an
    ``array('i')``.  Columns are known by index alone; ``label``, when set,
    decodes column ``j`` (the rows of an :class:`OutcomeSystem` pass its
    :meth:`~OutcomeSystem.label`), and it is ``None`` for a system built
    from dense rows.
    """

    def __init__(self, matrix, rhs):
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
        self.sparse_rows = tuple(sparse_rows)
        self.rhs = rhs
        self.width = width
        self.label = None

    @classmethod
    def from_sparse(
        cls, sparse_rows: Sequence, rhs: Sequence[Fraction], width: int, label=None
    ) -> LinearSystem:
        """A system over rows already in sparse form, taken as they are, unchecked."""
        system = cls.__new__(cls)
        system.sparse_rows = tuple(sparse_rows)
        system.rhs = tuple(rhs)
        system.width = width
        system.label = label
        return system

    rows = property(lambda self: len(self.sparse_rows))
    cols = property(lambda self: self.width)

    @cached_property
    def matrix(self) -> tuple[tuple, ...]:
        """The dense rows, built on first use; absent entries are the int 0."""
        rows = []
        for groups in self.sparse_rows:
            row = [0] * self.width
            for coefficient, indices in groups:
                for j in indices:
                    row[j] = coefficient
            rows.append(tuple(row))
        return tuple(rows)

    @cached_property
    def _columns(self) -> list[list[tuple[int, Fraction | int]]]:
        """Each column's ``(row, coefficient)`` pairs, built on first use."""
        columns = [[] for _ in range(self.width)]
        for i, groups in enumerate(self.sparse_rows):
            for coefficient, indices in groups:
                for j in indices:
                    columns[j].append((i, coefficient))
        return columns

    def column(self, j: int) -> list:
        """Column ``j`` as one coefficient per row; ``IndexError`` outside the columns."""
        if not 0 <= j < self.width:
            raise IndexError(f"column {j} of {self.width}")
        column = [0] * len(self.sparse_rows)
        for i, coefficient in self._columns[j]:
            column[i] = coefficient
        return column

    def best(self, weights: Sequence) -> tuple:
        """``(max_j weights . A_j, the lowest j attaining it)`` over the columns of ``A``."""
        combined = _scatter(weights, self.sparse_rows, [0] * self.width)
        top = max(combined)
        return top, combined.index(top)

    def first_nonzero(self, weights: Sequence) -> int | None:
        """The lowest ``j`` with ``weights . A_j`` nonzero, or None."""
        combined = _scatter(weights, self.sparse_rows, [0] * self.width)
        return next((j for j, x in enumerate(combined) if x), None)


def _scatter(weights: Sequence, sparse_rows: Sequence, out: list) -> list:
    """Add ``weights . A`` to ``out``, one sparse row of ``A`` at a time, and return it."""
    for weight, groups in zip(weights, sparse_rows):
        if weight:
            for coefficient, indices in groups:
                v = weight * coefficient
                for j in indices:
                    out[j] += v
    return out


class OutcomeSystem:
    """A 0/1 system ``A Q = rhs`` kept as its ``(fixed cells, rhs)`` patterns.

    Column ``j`` assigns a value to every cell (of sizes ``sizes``),
    lexicographically with the first cell most significant, and row ``i``
    marks the columns that give each fixed cell of pattern ``i`` its value.
    No column is listed: :meth:`label` decodes ``j`` through the strides,
    cell by cell as ``j // stride % size``, and :attr:`explicit` hands that
    decoder to its rows.  Rows fixing the same cells, a *scope*, share one
    table: each row is a key ``(scope, entry)``.  The column questions are
    asked by variable elimination (see the module docstring).
    """

    def __init__(self, sizes: Sequence[int], patterns: Iterable):
        self.sizes = sizes = tuple(sizes)
        self.width = math.prod(sizes)
        self.strides = tuple(math.prod(sizes[p + 1 :]) for p in range(len(sizes)))
        self.patterns, self.rhs = zip(*patterns)

    @cached_property
    def _keys(self) -> tuple[list, list]:
        """Each scope with its cells' strides in its table, and each row's ``(scope, entry)``."""
        scopes: dict = {}
        keys = []
        for fixed in self.patterns:
            scope = tuple(sorted(fixed))
            if scope not in scopes:
                scopes[scope] = len(scopes), _table_strides(self.sizes, scope)
            f, strides = scopes[scope]
            keys.append((f, sum(fixed[c] * s for c, s in strides)))
        return [(scope, strides) for scope, (_, strides) in scopes.items()], keys

    rows = property(lambda self: len(self.patterns))
    cols = property(lambda self: self.width)
    matrix = property(lambda self: self.explicit.matrix)

    @property
    def explicit(self) -> LinearSystem:
        """The same rows as a :class:`LinearSystem`, each index array written from the strides.

        The fixed cells give a base index, each free cell before the last
        fixed one multiplies the starts, and the free cells after it make
        each start a run of consecutive indices.  The rows decode their
        columns through :meth:`label`, so they hold this system: caching
        them here would make a reference cycle.
        """
        rows = []
        for fixed in self.patterns:
            last = max(fixed, default=-1)
            starts = [sum(self.strides[pos] * value for pos, value in fixed.items())]
            for pos in range(last):
                if pos not in fixed:
                    starts = [i + d * self.strides[pos] for i in starts for d in range(self.sizes[pos])]
            run = self.strides[last] if fixed else self.width
            indices = array("i")
            for i in starts:
                indices.extend(range(i, i + run))
            rows.append(((1, indices),))
        return LinearSystem.from_sparse(rows, self.rhs, self.width, self.label)

    def label(self, j: int) -> tuple[int, ...]:
        """Column ``j`` of ``A`` decoded through the strides: the value of each cell.

        ``IndexError`` outside the columns.
        """
        if not 0 <= j < self.width:
            raise IndexError(f"column {j} of {self.width}")
        return tuple(j // stride % size for size, stride in zip(self.sizes, self.strides))

    def rows_hit(self, values: Sequence[int]) -> list[int]:
        """The rows that mark the column giving the cells ``values``."""
        scopes, keys = self._keys
        at = [sum(values[c] * s for c, s in strides) for _, strides in scopes]
        return [i for i, (scope, entry) in enumerate(keys) if at[scope] == entry]

    def column(self, j: int) -> list[int]:
        """Column ``j`` as one coefficient per row, from the rows its decoded values hit."""
        if not 0 <= j < self.width:
            raise IndexError(f"column {j} of {self.width}")
        column = [0] * self.rows
        for i in self.rows_hit(self.label(j)):
            column[i] = 1
        return column

    @cached_property
    def _steps(self) -> tuple[list, list[int]]:
        """Per cell, last first: the cell, its table's cells and the factors it sums.

        Factors are the scopes, then one per step: its max over the cell.
        Those left at the end fix no cell and add a constant.
        """
        scopes = self._keys[0]
        pool = {f: set(scope) for f, (scope, _) in enumerate(scopes)}
        steps = []
        for p in reversed(range(len(self.sizes))):
            gathered = [f for f, cells in pool.items() if p in cells]
            cells = {p}.union(*map(pool.pop, gathered))
            pool[len(scopes) + len(steps)] = cells - {p}
            steps.append((p, tuple(sorted(cells)), gathered))
        return steps, list(pool)

    @property
    def terms(self) -> int:
        """The entries one elimination sums: the sizes of the step tables."""
        return sum(math.prod(self.sizes[c] for c in cells) for _, cells, _ in self._steps[0])

    @cached_property
    def _program(self) -> tuple[list[int], list]:
        """The scopes' table sizes, and per step the cell, its size, its table's
        size, each factor it sums with a gather, and the walk's strides.

        A gather reads from the factor's table, in one C-level call, the
        entry under each entry of the step's table: an ``itemgetter`` of the
        indices, or of a one-entry slice when there is one index (a single
        ``itemgetter`` index would give a scalar).  It is None when the
        factor's cells are the table's own.
        """
        sizes = self.sizes
        scopes = [scope for scope, _ in self._keys[0]] + [cells[:-1] for _, cells, _ in self._steps[0]]
        program = []
        for p, cells, gathered in self._steps[0]:
            maps = []
            for f in gathered:
                at = dict(_table_strides(sizes, scopes[f]))
                weights = [at.get(c, 0) for c in cells]
                values = itertools.product(*(range(sizes[c]) for c in cells))
                index = [sum(map(operator.mul, v, weights)) for v in values]
                if scopes[f] == cells:
                    gather = None
                elif len(index) == 1:
                    gather = operator.itemgetter(slice(index[0], index[0] + 1))
                else:
                    gather = operator.itemgetter(*index)
                maps.append((f, gather))
            size = math.prod(sizes[c] for c in cells)
            program.append((p, sizes[p], size, maps, _table_strides(sizes, cells)[:-1]))
        return [math.prod(sizes[c] for c in scope) for scope, _ in self._keys[0]], program

    def _eliminate(self, weights: Sequence[int]) -> tuple[list[list[int]], int]:
        """Each step's summed table and ``max_j weights . A_j``, for integer ``weights``."""
        table_sizes, program = self._program
        tables = [[0] * size for size in table_sizes]
        for w, (scope, entry) in zip(weights, self._keys[1]):
            if w:
                tables[scope][entry] += w
        sums = []
        for _, k, size, maps, _ in program:
            total = None
            for f, gather in maps:
                table = tables[f] if gather is None else gather(tables[f])
                total = table if total is None else list(map(operator.add, total, table))
            if total is None:
                total = [0] * size
            sums.append(total)
            tables.append(total if k == 1 else list(map(max, *(total[v::k] for v in range(k)))))
        return sums, sum(tables[f][0] for f in self._steps[1])

    def _walk(self, sums: list[list[int]], top: int, threshold: int) -> tuple[int, int] | None:
        """The lowest column whose value exceeds ``threshold``, with that value."""
        if top <= threshold:
            return None
        values = [0] * len(self.sizes)
        bound = top
        for (p, k, _, _, strides), total in zip(reversed(self._program[1]), reversed(sums)):
            base = sum(values[c] * s for c, s in strides)
            entries = total[base : base + k]
            peak = max(entries)
            values[p] = next(v for v, x in enumerate(entries) if bound - peak + x > threshold)
            bound += entries[values[p]] - peak
        return bound, sum(map(operator.mul, values, self.strides))

    def best(self, weights: Sequence[int]) -> tuple[int, int]:
        """``(max_j weights . A_j, the lowest j attaining it)`` over the columns of ``A``."""
        sums, top = self._eliminate(weights)
        return self._walk(sums, top, top - 1)

    def first_above(self, weights: Sequence[int], threshold: int) -> tuple[int, int] | None:
        """``(weights . A_j, j)`` for the lowest ``j`` above ``threshold``, or None."""
        return self._walk(*self._eliminate(weights), threshold)

    def first_nonzero(self, weights: Sequence[int]) -> int | None:
        """The lowest ``j`` with ``weights . A_j`` nonzero, or None."""
        found = (self.first_above(w, 0) for w in (weights, [-x for x in weights]))
        return min((j for _, j in filter(None, found)), default=None)


def _table_strides(sizes: Sequence[int], cells: Sequence[int]) -> list[tuple[int, int]]:
    """Each of ``cells`` with its stride in a table over them, the last least significant."""
    return [(c, math.prod(sizes[d] for d in cells[i + 1 :])) for i, c in enumerate(cells)]


def satisfies(
    system: LinearSystem | OutcomeSystem, support: Sequence[int], values: Sequence[Fraction]
) -> bool:
    """Whether ``A q == b`` for ``q`` of any sign, by exact substitution.

    ``q`` is ``values`` on ``support``, strictly ascending columns, and 0
    elsewhere; no value may be 0.  The values are scaled to integers over
    their common denominator and substituted column by column.
    """
    bounds = (-1, *support, system.cols)
    ascending = all(map(operator.lt, bounds, bounds[1:]))
    if not ascending or len(support) != len(values) or not all(values):
        return False
    masses, scale = common_denominator(values)
    lhs = [0] * system.rows
    for j, x in zip(support, masses):
        for i, a in enumerate(system.column(j)):
            if a:
                lhs[i] += a * x
    return all(v * b.denominator == b.numerator * scale for v, b in zip(lhs, system.rhs))


def _scaled(
    y: Sequence[Fraction], system: LinearSystem | OutcomeSystem
) -> tuple[list[int], int, Fraction]:
    """``y`` as integers over their common denominator, that denominator, and ``y . b``."""
    weights, scale = common_denominator(y)
    rhs, rhs_scale = common_denominator(system.rhs)
    return weights, scale, Fraction(sum(map(operator.mul, weights, rhs)), scale * rhs_scale)


@dataclass(frozen=True)
class FeasibilityResult:
    """Outcome of a feasibility solve, carrying its witness.

    Exactly one of ``solution`` (positive values on the ascending columns
    ``support``, satisfying ``A Q = b``) and ``certificate`` (Farkas vector
    over the rows) is present.  An infeasible result also keeps the solver
    as its phase 1 left it, for :func:`minimize` to continue a copy of.
    """

    status: str
    solution: tuple[Fraction, ...] | None
    certificate: tuple[Fraction, ...] | None
    pivots: int
    support: tuple[int, ...] = ()
    _solver: _Revised | None = field(default=None, compare=False, repr=False)

    @property
    def feasible(self) -> bool:
        return self.status == FEASIBLE

    def verify(self, system: LinearSystem | OutcomeSystem) -> bool:
        """Re-check the witness against the system by exact substitution.

        A solution's values must be positive and :func:`satisfies` must accept
        it.  A certificate must have ``y . b > 0``, and ``y^T A <= 0`` is read
        from the largest ``y . A_j`` that the system's :meth:`best` finds.
        """
        if self.feasible:
            q = self.solution
            return q is not None and all(x > 0 for x in q) and satisfies(system, self.support, q)
        y = self.certificate
        if y is None or len(y) != system.rows:
            return False
        weights, _, bound = _scaled(y, system)
        return system.best(weights)[0] <= 0 and bound > 0


@dataclass(frozen=True)
class OptimizationResult:
    """The measure's LP solved: the least negative mass of ``A Q = b``, exactly.

    The signed vertex ``Q`` is nonzero on the ascending columns ``support``
    of ``A`` and takes the values ``solution`` there; ``value`` is its
    negative mass ``sum max(0, -Q_j)``.  ``dual`` is the final basis's
    simplex multipliers ``y`` over the rows: ``-1 <= A^T y <= 0``, with
    ``y . A_j`` at 0 where ``Q_j > 0`` and at -1 where ``Q_j < 0``, and
    ``y . b == value``, so by weak duality no signed solution has less
    negative mass.  Rows dropped as redundant get ``y = 0``.
    """

    value: Fraction
    solution: tuple[Fraction, ...]
    pivots: int
    dual: tuple[Fraction, ...]
    support: tuple[int, ...]

    def verify(self, system: LinearSystem | OutcomeSystem) -> bool:
        """Re-check the vertex by :func:`satisfies`, its negative mass against
        ``value`` and ``y . b``, and ``-1 <= A^T y <= 0`` by the system's
        :meth:`best` of ``y`` and ``-y``; together they prove ``value`` least.
        """
        y = self.dual
        if len(y) != system.rows or not satisfies(system, self.support, self.solution):
            return False
        weights, scale, bound = _scaled(y, system)
        return (
            bound == self.value == -sum(x for x in self.solution if x < 0)
            and system.best(weights)[0] <= 0
            and system.best([-w for w in weights])[0] <= scale
        )


class _Revised:
    """Two-phase revised simplex state, fraction-free over one denominator.

    The starting matrix ``X0`` is ``[A | I | b]`` with each row's sign fixed so
    that ``b >= 0``; the structural block is scaled by ``structural_scale``
    and the rhs by ``rhs_scale``, the least integers that make both integral.
    ``inverse`` holds the columns of ``det * B^-1``, then the levels ``det * B^-1 b``.
    Columns below ``n`` are structural and the artificials follow.  Phase 1
    covers ``A`` alone, ``n = width``; :meth:`widen` carries the state over
    to ``(A | -A)``, ``n = 2 * width``, whose column ``width + j`` is column
    ``j`` negated, and the artificials are out for good.  The costs ``C`` are
    one number per half: 0 on ``A``, and ``cost`` on every column past it,
    which is 1 on the artificials in phase 1 and ``structural_scale`` on
    ``-A`` after :meth:`widen`.  So phase 1 minimizes the sum of the
    artificials and phase 2 the negative mass ``sum Q-``.

    The reduced costs are ``det * C_j - pi . X0_j`` with ``pi = C_B . det *
    B^-1``, which each run to optimality prices once and carries past its
    pivots (see the module docstring).  With ``v_j = pi . X0_j`` on the
    columns of ``A``, they are ``-v_j`` on ``A``, ``det * cost + v_j`` on
    ``-A`` and ``det * cost - pi_i`` on the artificials; none is stored.
    Over a :class:`LinearSystem` ``v`` is kept too: a scatter of ``pi`` over
    ``sparse``, the rows of ``A`` scaled to those of ``X0``, updated like
    ``pi`` from the scatter of ``rho``, and unchanged where that is zero
    when ``a == det``.  Over an :class:`OutcomeSystem` both are None, and
    its ``best`` of ``pi * flips`` answers for ``v``.  Each run keeps the
    basis it started from as ``start``, whose columns key the ratio test,
    and as ``decoded`` the nonzeros of each structural one a tie reached.
    """

    def __init__(self, system: LinearSystem | OutcomeSystem):
        self.width = self.n = n = system.width
        self.system = system
        m = system.rows
        self.structural_scale = math.lcm(
            *{x.denominator for groups in system.sparse_rows for x, _ in groups}
        ) if isinstance(system, LinearSystem) else 1
        rhs, self.rhs_scale = common_denominator(system.rhs)
        self.flips = [1 if b >= 0 else -1 for b in rhs]
        self.scales = [sign * self.structural_scale for sign in self.flips]
        self.sparse = [
            [(int(x * scale), indices) for x, indices in groups]
            for groups, scale in zip(system.sparse_rows, self.scales)
        ] if isinstance(system, LinearSystem) else None
        self.inverse = [[0] * i + [1] + [0] * (m - 1 - i) for i in range(m)] + [list(map(abs, rhs))]
        self.basis = [n + i for i in range(m)]
        self.det = 1
        self.cost = 1
        self.pivots = 0
        self.pivot_cap = math.comb(m + n + m, m)

    def phase1(self) -> bool:
        """Minimize the sum of the artificials, all basic at the start; True if it reaches 0."""
        self._run()
        return self.objective_value() == 0

    def _prices(self) -> list[int]:
        """``pi = C_B . det * B^-1``, then ``C_B . det * B^-1 b`` last."""
        costs = [0 if var < self.width else self.cost for var in self.basis]
        return [sum(map(operator.mul, costs, column)) for column in self.inverse]

    def _entries(self, q: int) -> list[tuple[int, int]]:
        """The nonzeros of the structural column ``X0_q`` as ``(row, entry)`` pairs."""
        sign = 1
        if q >= self.width:
            q, sign = q - self.width, -1
        return [
            (r, sign * int(x * scale))
            for r, (x, scale) in enumerate(zip(self.system.column(q), self.scales))
            if x
        ]

    def _column(self, q: int) -> list[int]:
        """The entering column ``det * B^-1 X0_q``, a sum of columns of ``det * B^-1``."""
        if q >= self.n:
            return self.inverse[q - self.n][:]
        inverse = self.inverse
        terms = [
            inverse[r] if a == 1 else [a * c for c in inverse[r]] for r, a in self._entries(q)
        ]
        return list(map(sum, zip(*terms))) if terms else [0] * len(self.basis)

    def _pivot(self, prow: int, column: list[int], pcol: int) -> None:
        """Fraction-free pivot: off the pivot row, each column ``x`` of ``det * B^-1``
        and the levels becomes ``(a * x - x[prow] * column) / det``.

        A negative pivot (possible only when driving out artificials) negates
        the pivot row first, which leaves the resulting rows unchanged.
        """
        self.pivots += 1
        if self.pivots > self.pivot_cap:
            raise PivotLimitError(
                f"exceeded the anti-cycling pivot cap ({self.pivot_cap}); "
                "this indicates a solver bug"
            )
        a = column[prow]
        if a < 0:
            for col in self.inverse:
                col[prow] = -col[prow]
            a = -a
        det = self.det
        for col in self.inverse:
            y = col[prow]
            if y:
                col[:] = [(a * x - f * y) // det for x, f in zip(col, column)]
                col[prow] = y
            elif a != det:
                col[:] = [a * x // det for x in col]
        self.det = a
        self.basis[prow] = pcol

    def _leaving(self, column: list[int]) -> int:
        """The lexicographic ratio test on ``column``.

        Among the rows with a positive entry, those with the least
        ``key[i] / column[i]`` stay, compared by cross-multiplication, for
        each key in turn until one row is left: the levels, then
        ``det * B^-1 X0_k`` for each column ``k`` of the basis this run
        started from, last position first (:meth:`_key`), read only at the
        rows still tied.  The costs are bounded below, so some entry is
        positive.
        """
        rows = [i for i, a in enumerate(column) if a > 0]
        key, starts = self.inverse[-1], reversed(self.start)
        while len(rows) > 1:
            if key is None:
                key = self._key(next(starts), rows)
            best, ties = rows[0], []
            for i in rows:
                diff = key[i] * column[best] - key[best] * column[i]
                if diff < 0:
                    best, ties = i, [i]
                elif diff == 0:
                    ties.append(i)
            rows, key = ties, None
        return rows[0]

    def _key(self, k: int, rows: list[int]) -> Sequence[int] | dict[int, int]:
        """The ratio test's key ``det * B^-1 X0_k``, at least at ``rows``.

        An artificial's key is its column of ``det * B^-1``, read in place.
        A structural one is summed at ``rows`` alone from the nonzeros of
        ``X0_k``, decoded the first time this run's ratio test reaches ``k``.
        """
        if k >= self.n:
            return self.inverse[k - self.n]
        entries = self.decoded.get(k)
        if entries is None:
            entries = self.decoded[k] = self._entries(k)
        columns = [(self.inverse[r], a) for r, a in entries]
        return {i: sum([a * c[i] for c, a in columns]) for i in rows}

    def _run(self) -> None:
        """Pivot to optimality of the current costs, which are bounded below by 0.

        ``pi``, and ``v`` if kept, are priced here, and each pivot reprices
        them from its leaving row ``rho`` of ``det * B^-1``, the pivot ``a``
        and the entering reduced cost ``f`` before ``det * B^-1`` moves on.
        """
        self.start, self.decoded = self.basis[:], {}
        self.pi = self._prices()[:-1]
        self.v = None if self.sparse is None else _scatter(self.pi, self.sparse, [0] * self.width)
        while (entering := self.entering()) is not None:
            col, f = entering
            column = self._column(col)
            row = self._leaving(column)
            self._reprice([c[row] for c in self.inverse], column[row], f)
            self._pivot(row, column, col)

    def _best(self, sign: int) -> tuple[int, int]:
        """``(max_j sign * v_j, the lowest j attaining it)``."""
        if self.v is None:
            return self.system.best([sign * p * s for p, s in zip(self.pi, self.flips)])
        top = max(self.v) if sign > 0 else -min(self.v)
        return top, self.v.index(sign * top)

    def entering(self) -> tuple[int, int] | None:
        """The most negative reduced cost, lowest index on ties (Dantzig's rule).

        The columns go ``A``, then ``-A`` or the artificials.  The artificials
        are weighed by ``structural_scale``, which scales only the structural
        columns, to compare true reduced costs.
        """
        c = self.det * self.cost
        wide = self.n > self.width
        halves = [(0, 0, 1), (self.width, c, -1)] if wide else [(0, 0, 1)]
        artificials = [] if wide else [c - p for p in self.pi]
        best = None
        for offset, t, sign in halves:
            top, j = self._best(sign)
            if best is None or t - top < best[1]:
                best = offset + j, t - top
        if artificials and (low := min(artificials)) * self.structural_scale < best[1]:
            best = self.n + artificials.index(low), low
        return best if best[1] < 0 else None

    def _reprice(self, rho: list[int], a: int, f: int) -> None:
        """Carry ``pi``, and ``v`` if kept, past a pivot on ``a`` with entering cost ``f``."""
        det = self.det
        self.pi = [(a * p + f * r) // det for p, r in zip(self.pi, rho)]
        if self.v is None:
            return
        s = _scatter(rho, self.sparse, [0] * self.width)
        if a == det:
            self.v = [x + f * y // det if y else x for x, y in zip(self.v, s)]
        else:
            self.v = [(a * x + f * y) // det if y else a * x // det for x, y in zip(self.v, s)]

    def objective_value(self) -> Fraction:
        return Fraction(self._prices()[-1], self.det * self.rhs_scale)

    def structural_solution(self) -> tuple[tuple[int, ...], tuple[Fraction, ...]]:
        """The signed vertex's support over ``A`` and its values; ``-A``'s count negative."""
        scale = self.det * self.rhs_scale
        values = {}
        for var, level in zip(self.basis, self.inverse[-1]):
            if var < self.n and level:
                j, x = (var, level) if var < self.width else (var - self.width, -level)
                values[j] = Fraction(x * self.structural_scale, scale)
        support = tuple(sorted(values))
        return support, tuple(map(values.__getitem__, support))

    def multipliers(self) -> tuple[Fraction, ...]:
        """The simplex multipliers ``y = flips * pi / det`` over the original rows.

        ``pi / det`` solves ``B^T y = C_B`` on the sign-fixed rows, and
        ``structural_scale`` cancels between ``B`` and ``C_B``, so unflipping
        gives ``y`` in the rows' own signs.  After phase 1 it is the Farkas
        certificate; after phase 2, the dual of the final basis.
        """
        return tuple(sign * Fraction(p, self.det) for sign, p in zip(self.flips, self._prices()))

    def drop_artificials(self) -> None:
        """Pivot remaining artificials out of the basis; drop redundant rows.

        A basic artificial's tableau row is ``rho . X0`` for its row ``rho``
        of ``det * B^-1``, and it leaves on the first nonzero of ``rho . A``
        whatever its level (levels left negative are for :meth:`widen` to
        repair).  If ``rho . A`` is zero, its original row is spanned by the
        others.  At level 0, deleting ``rho`` keeps ``det`` valid for the
        rows that remain, and no later pivot reads it.  The artificial's own
        column of ``det * B^-1`` is ``det`` in the row of ``rho`` and 0
        elsewhere, so the deletion leaves it zero, pivots keep it zero, and
        :meth:`multipliers` gives the original row ``y = 0``.  At a nonzero
        level no signed ``Q`` solves the rows: ``rho``, unflipped and signed
        to ``y . b > 0``, is a certificate with ``y^T A = 0``.
        """
        i = 0
        while i < len(self.basis):
            if self.basis[i] < self.n:
                i += 1
                continue
            rho = [c[i] for c in self.inverse]
            col = self.replacement(rho)
            if col is not None:
                self._pivot(i, self._column(col), col)
                i += 1
            elif rho[-1]:
                scale = self.det if rho[-1] > 0 else -self.det
                raise InfeasibleError(
                    "the right-hand side is outside the column space",
                    certificate=tuple(Fraction(f * r, scale) for f, r in zip(self.flips, rho)),
                )
            else:
                del self.basis[i]
                for c in self.inverse:
                    del c[i]

    def replacement(self, rho: list[int]) -> int | None:
        """The lowest ``j`` with ``rho . X0_j`` nonzero among the columns of ``A``."""
        return self.system.first_nonzero(list(map(operator.mul, rho, self.flips)))

    def copy(self) -> _Revised:
        """This state, with a basis and ``det * B^-1`` of its own to pivot."""
        lp = object.__new__(_Revised)
        lp.__dict__.update(vars(self), basis=self.basis[:], inverse=[c[:] for c in self.inverse])
        return lp

    def widen(self) -> None:
        """Carry this state on ``A`` over to ``(A | -A)``, priced by ``sum Q-``.

        The artificials are driven out (:meth:`drop_artificials`), and each
        basic column at a negative level is swapped for its partner in
        ``-A``.  That negates its row of ``det * B^-1`` and its level and
        keeps ``det = |det B|``, so the basis becomes feasible.
        """
        self.drop_artificials()
        for i in [i for i, level in enumerate(self.inverse[-1]) if level < 0]:
            for c in self.inverse:
                c[i] = -c[i]
            self.basis[i] += self.width
        self.n, self.cost = 2 * self.width, self.structural_scale
        m = len(self.flips)
        self.pivot_cap = math.comb(m + self.n + m, m)


def solve_feasibility(system: LinearSystem) -> FeasibilityResult:
    """Decide ``{M Q = P, Q >= 0}`` and return a solution or a certificate.

    Phase 1 minimizes the sum of the artificials; if the minimum is not 0,
    its final prices over ``det``, unflipped, are the Farkas certificate.
    """
    lp = _Revised(system)
    if lp.phase1():
        support, values = lp.structural_solution()
        return FeasibilityResult(FEASIBLE, values, None, lp.pivots, support)
    return FeasibilityResult(INFEASIBLE, None, lp.multipliers(), lp.pivots, _solver=lp)


def minimize(
    system: LinearSystem | OutcomeSystem, start: FeasibilityResult | None = None
) -> OptimizationResult:
    """The least negative mass ``sum Q-`` over signed ``Q`` with ``A Q = b``, exactly.

    This is the contextuality measure's LP, not a general one: the solver
    splits ``Q = Q+ - Q-`` over ``(A | -A)`` itself (see the module
    docstring).  Returns the value, the signed vertex ``Q`` on its support
    and the dual ``y`` of its basis, ``-1 <= A^T y <= 0`` with
    ``y . b == value``, which certifies the value.

    ``start``, an infeasible :func:`solve_feasibility` result on this very
    ``system``, holds the solver its phase 1 left, and a copy of it goes on:
    ``pivots`` counts only the pivots after it.  Another infeasible
    ``start`` raises :class:`DimensionMismatchError`; a feasible or absent
    one means a cold solve.  Raises :class:`InfeasibleError` when ``b`` is
    outside the column space of ``A``, with a certificate ``y``:
    ``y^T A = 0`` and ``y . b > 0``.
    """
    solver = None if start is None else start._solver
    if solver is None:
        lp, before = _Revised(system), 0
        lp.phase1()
    elif solver.system is not system:
        raise DimensionMismatchError("the basis is not of this system's rows")
    else:
        lp, before = solver.copy(), solver.pivots
    lp.widen()
    lp._run()
    support, values = lp.structural_solution()
    return OptimizationResult(
        lp.objective_value(), values, lp.pivots - before, lp.multipliers(), support
    )
