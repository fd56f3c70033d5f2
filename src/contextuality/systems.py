"""Context-content systems: contexts, contents, cells, and bunch distributions.

A system is a finite family of *bunches* (one joint distribution per context)
whose component variables are partitioned into *connections* (one per
content).  Two structural laws are enforced on construction:

* a context and a content share at most one variable (the cell set is a set);
* every variable of a connection has the connection's alphabet size.

Everything is immutable after validation and canonically ordered: contexts
and contents are sorted by label, each bunch's components are sorted by
content label, so the same system described in any cell order validates to an
identical object.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .distribution import Distribution
from .errors import (
    AlphabetMismatchError,
    DuplicateCellError,
    EmptySystemError,
    UnknownLabelError,
)


@dataclass(frozen=True)
class Content:
    """A content: the label of a connection, with its shared alphabet.

    ``values`` are display labels for the value indices (defaulting to
    ``"0", "1", ...``); ``plus_index`` marks the value coded +1 when a binary
    content is read on the +1/-1 scale.
    """

    label: str
    size: int
    values: tuple[str, ...] = ()
    plus_index: int = 0

    def __post_init__(self):
        # bool is an int subclass, so test the type itself
        if type(self.size) is not int or self.size < 1:
            raise AlphabetMismatchError(f"content {self.label!r} has alphabet size {self.size!r}")
        values = tuple(self.values) or tuple(str(i) for i in range(self.size))
        if len(values) != self.size or len(set(values)) != self.size:
            raise AlphabetMismatchError(
                f"content {self.label!r} needs {self.size} distinct value labels, got {values}"
            )
        if not 0 <= self.plus_index < self.size:
            raise AlphabetMismatchError(
                f"content {self.label!r}: plus_index {self.plus_index} outside alphabet"
            )
        object.__setattr__(self, "values", values)

    def value_index(self, label: str) -> int:
        try:
            return self.values.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"content {self.label!r} has no value {label!r} (values: {list(self.values)})"
            ) from None


@dataclass(frozen=True)
class Connection:
    """All variables sharing one content, located by (context, bunch position)."""

    content: str
    members: tuple[tuple[str, int], ...]

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class CCSystem:
    """A validated context-content system.

    ``contents`` and ``contexts`` are sorted by label.  ``cells`` holds the
    filled (context, content) pairs.  ``bunches`` maps each context to the
    joint distribution of its variables, components ordered by content label.
    Every fact derived from these (the content index, per-context contents,
    canonical cell order, cell positions and sizes, connections, and each
    variable's 1-marginal) is derived once, on first use, and kept on the
    instance; construction itself derives nothing.
    """

    contents: tuple[Content, ...]
    contexts: tuple[str, ...]
    cells: frozenset[tuple[str, str]]
    bunches: dict[str, Distribution] = field(default_factory=dict)

    @cached_property
    def _contents_by_label(self) -> dict[str, Content]:
        return {c.label: c for c in self.contents}

    @cached_property
    def _context_contents(self) -> dict[str, tuple[str, ...]]:
        rank = {c.label: i for i, c in enumerate(self.contents)}
        held: dict[str, list[str]] = {context: [] for context in self.contexts}
        for context, q in self.cells:
            held[context].append(q)
        return {context: tuple(sorted(qs, key=rank.__getitem__)) for context, qs in held.items()}

    @cached_property
    def _cell_positions(self) -> dict[tuple[str, str], int]:
        """Each cell's index; the keys are in the canonical cell order."""
        contents = self._context_contents
        cells = ((context, q) for context in self.contexts for q in contents[context])
        return {cell: i for i, cell in enumerate(cells)}

    @cached_property
    def _cell_sizes(self) -> tuple[int, ...]:
        return tuple([self._contents_by_label[q].size for _, q in self._cell_positions])

    @cached_property
    def _connections(self) -> tuple[Connection, ...]:
        members: dict[str, list[tuple[str, int]]] = {c.label: [] for c in self.contents}
        for context in self.contexts:
            for position, q in enumerate(self._context_contents[context]):
                members[q].append((context, position))
        return tuple(Connection(q, tuple(m)) for q, m in members.items())

    @cached_property
    def _marginals(self) -> dict[tuple[str, str], Distribution]:
        return {
            (context, c.content): self.bunches[context].marginal((position,))
            for c in self._connections for context, position in c.members
        }

    # -- label/index lookups ------------------------------------------------

    def content(self, label: str) -> Content:
        try:
            return self._contents_by_label[label]
        except KeyError:
            raise UnknownLabelError(f"unknown content {label!r}") from None

    def cell_position(self, context: str, content: str) -> int:
        """Index of the cell (context, content) in :meth:`cells_in_order`."""
        return self._cell_positions[(context, content)]

    # -- structure ----------------------------------------------------------

    def context_contents(self, context: str) -> tuple[str, ...]:
        """Content labels filled in ``context``, sorted by content label."""
        try:
            return self._context_contents[context]
        except KeyError:
            raise UnknownLabelError(f"unknown context {context!r}") from None

    def cells_in_order(self) -> tuple[tuple[str, str], ...]:
        """All filled cells, contexts-major, contents sorted within a context."""
        return tuple(self._cell_positions)

    def cell_sizes(self) -> tuple[int, ...]:
        """The alphabet size of each cell, in :meth:`cells_in_order`."""
        return self._cell_sizes

    def connections(self) -> tuple[Connection, ...]:
        """Per-content connections, members ordered by context index."""
        return self._connections

    def variable_marginal(self, context: str, content: str) -> Distribution:
        """1-marginal of the variable at cell (context, content)."""
        marginal = self._marginals.get((context, content))
        if marginal is None:
            self.context_contents(context)  # names an unknown context
            raise UnknownLabelError(f"unknown cell ({context!r}, {content!r})")
        return marginal

    @property
    def variable_count(self) -> int:
        return len(self.cells)


def validate_system(
    contents: Mapping[str, int] | Iterable[Content],
    contexts: Mapping[str, Sequence[str]],
    bunches: Mapping[str, Mapping[Sequence[int], object]],
) -> CCSystem:
    """Validate an arbitrary system description into a canonical CCSystem.

    ``contents`` declares each content's alphabet size (mapping label -> size,
    or prebuilt Content objects).  ``contexts`` maps each context label to the
    content labels of its filled cells, in any order.  ``bunches`` maps each
    context to a mass table over value-index tuples whose components follow
    the order the context's contents were *given* in; components are reordered
    internally to the canonical (content-label-sorted) order.
    """
    if isinstance(contents, Mapping):
        content_objs = tuple(
            Content(str(label), size) for label, size in sorted(contents.items())
        )
    else:
        content_objs = tuple(sorted(contents, key=lambda c: c.label))
    labels = [c.label for c in content_objs]
    if len(set(labels)) != len(labels):
        raise DuplicateCellError(f"duplicate content labels in {labels}")
    if not content_objs:
        raise EmptySystemError("a system needs at least one content")
    by_label = {c.label: c for c in content_objs}

    context_labels = tuple(sorted(str(c) for c in contexts))
    if len(set(context_labels)) != len(context_labels):
        raise DuplicateCellError(f"duplicate context labels in {context_labels}")
    if not context_labels:
        raise EmptySystemError("a system needs at least one context")

    cells: set[tuple[str, str]] = set()
    given_order: dict[str, tuple[str, ...]] = {}
    for context in contexts:
        context = str(context)
        cols = tuple(str(q) for q in contexts[context])
        if not cols:
            raise EmptySystemError(f"context {context!r} has no filled cells")
        for q in cols:
            if q not in by_label:
                raise UnknownLabelError(f"context {context!r} references unknown content {q!r}")
            if (context, q) in cells:
                raise DuplicateCellError(f"cell ({context!r}, {q!r}) declared twice")
            cells.add((context, q))
        given_order[context] = cols

    used = {q for (_, q) in cells}
    unused = [q for q in labels if q not in used]
    if unused:
        raise EmptySystemError(f"contents {unused} appear in no context")

    missing = [c for c in context_labels if c not in bunches]
    if missing:
        raise EmptySystemError(f"contexts {missing} have no bunch distribution")
    extra = [str(c) for c in bunches if str(c) not in given_order]
    if extra:
        raise UnknownLabelError(f"bunches given for undeclared contexts {extra}")

    canonical_bunches: dict[str, Distribution] = {}
    for context in context_labels:
        cols = given_order[context]
        sizes = tuple(by_label[q].size for q in cols)
        dist = Distribution(sizes, dict(bunches[context]))
        canonical = tuple(sorted(cols))
        order = tuple(cols.index(q) for q in canonical)
        canonical_bunches[context] = dist.permuted(order)

    return CCSystem(content_objs, context_labels, frozenset(cells), canonical_bunches)


@dataclass(frozen=True)
class ConnectionMarginals:
    """The 1-marginals of one connection's members, with their agreement flag."""

    content: str
    marginals: tuple[tuple[str, Distribution], ...]
    consistent: bool


@dataclass(frozen=True)
class ConsistencyReport:
    consistent: bool
    connections: tuple[ConnectionMarginals, ...]


def consistency_report(system: CCSystem) -> ConsistencyReport:
    """Compare all member 1-marginals within each connection, exactly."""
    entries = []
    for connection in system.connections():
        marginals = tuple(
            (context, system.variable_marginal(context, connection.content))
            for context, _ in connection.members
        )
        first = marginals[0][1]
        same = all(d == first for _, d in marginals[1:])
        entries.append(ConnectionMarginals(connection.content, marginals, same))
    return ConsistencyReport(all(e.consistent for e in entries), tuple(entries))


def is_consistently_connected(system: CCSystem) -> bool:
    """True iff every connection's members share one distribution."""
    return consistency_report(system).consistent
