"""File formats, empirical estimation, and example generators.

System files are JSON documents (schema below); masses are exact decimal or
fraction strings, never binary floats.  Trial logs are CSV with one row per
co-occurrence unit.  Generators produce the bundled canonical examples, the
two-particle spin system for four measurement axes, and dichotomized
matching-experiment systems.

System document schema (version 1)::

    {
      "schema_version": 1,
      "contents": [{"label": "q1", "values": ["+1", "-1"], "plus": "+1"}, ...],
      "contexts": [{"label": "c1", "contents": ["q1", "q2"]}, ...],
      "bunches": {"c1": [{"value": ["+1", "+1"], "mass": "1/2"}, ...], ...}
    }

``values`` lists a content's value labels; ``plus`` (the label coded +1 in
+1/-1 analyses) defaults to the lexicographically larger value label.  Bunch
entries list value labels in the order of the context's ``contents`` field;
omitted combinations have mass 0.

Trial CSV: header ``context,<content>,...`` (one column per content, an
optional ``content:`` prefix on the header names is accepted); each row names
its context and fills exactly the cells of that context, leaving other
columns empty.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .distribution import as_fraction
from .errors import (
    EmptyContextError,
    SchemaError,
    UnknownLabelError,
    ValidationError,
)
from .systems import CCSystem, Content, validate_system

SCHEMA_VERSION = 1
EXAMPLE_NAMES = ("fig1", "fig9", "fig10", "szlg")

PLUS_MINUS = ("+1", "-1")


# ---------------------------------------------------------------------------
# System documents
# ---------------------------------------------------------------------------


def _mass_from_json(raw, path: str) -> Fraction:
    if isinstance(raw, bool) or isinstance(raw, float):
        raise SchemaError(
            f"mass {raw!r} is not exact; write it as a string such as '0.3' or '3/10'",
            path,
        )
    try:
        return as_fraction(raw)
    except ValidationError as exc:
        raise SchemaError(str(exc), path) from exc


def _expect(node, kind, path: str):
    if not isinstance(node, kind):
        raise SchemaError(f"expected {kind.__name__}, got {type(node).__name__}", path)
    return node


def _parse_contents(node, path: str) -> list[Content]:
    entries = _expect(node, list, path)
    contents = []
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        entry = _expect(entry, dict, here)
        label = str(_expect(entry.get("label"), str, f"{here}.label"))
        values = entry.get("values")
        if values is None:
            raise SchemaError("missing 'values'", here)
        values = tuple(str(v) for v in _expect(values, list, f"{here}.values"))
        if len(set(values)) != len(values) or not values:
            raise SchemaError(f"value labels must be nonempty and distinct, got {values}", here)
        plus = entry.get("plus")
        if plus is None:
            plus_label = max(values)
        else:
            plus_label = str(plus)
            if plus_label not in values:
                raise SchemaError(f"plus value {plus_label!r} not among {values}", f"{here}.plus")
        try:
            contents.append(
                Content(label, len(values), values, values.index(plus_label))
            )
        except ValidationError as exc:
            raise SchemaError(str(exc), here) from exc
    return contents


def _decode(text: str) -> dict:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(str(exc), f"line {exc.lineno}, column {exc.colno}") from exc
    except RecursionError:
        raise SchemaError("nested too deeply to parse", "document") from None
    return _expect(doc, dict, "document")


def _layout(doc: dict) -> tuple[list[Content], dict[str, list[str]]]:
    version = doc.get("schema_version", SCHEMA_VERSION)
    # bool is an int subclass and 1.0 == True == 1, so test the type itself
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}", "schema_version")
    contents = _parse_contents(doc.get("contents"), "contents")
    ctx_node = _expect(doc.get("contexts"), list, "contexts")
    contexts: dict[str, list[str]] = {}
    for i, entry in enumerate(ctx_node):
        here = f"contexts[{i}]"
        entry = _expect(entry, dict, here)
        label = str(_expect(entry.get("label"), str, f"{here}.label"))
        cols = [str(q) for q in _expect(entry.get("contents"), list, f"{here}.contents")]
        if label in contexts:
            raise SchemaError(f"context {label!r} declared twice", here)
        contexts[label] = cols
    return contents, contexts


def parse_layout(text: str) -> tuple[list[Content], dict[str, list[str]]]:
    """Parse the contents/contexts declaration shared by system and layout files."""
    return _layout(_decode(text))


def parse_system(text: str) -> CCSystem:
    """Parse a system document into a validated CCSystem."""
    doc = _decode(text)
    contents, contexts = _layout(doc)
    by_label = {c.label: c for c in contents}
    bunch_node = _expect(doc.get("bunches"), dict, "bunches")
    bunches: dict[str, dict[tuple[int, ...], Fraction]] = {}
    for context, entries in bunch_node.items():
        here = f"bunches[{context!r}]"
        if context not in contexts:
            raise UnknownLabelError(f"bunch for undeclared context {context!r}", here)
        cols = contexts[context]
        masses: dict[tuple[int, ...], Fraction] = {}
        for i, entry in enumerate(_expect(entries, list, here)):
            at = f"{here}[{i}]"
            entry = _expect(entry, dict, at)
            value_labels = [str(v) for v in _expect(entry.get("value"), list, f"{at}.value")]
            if len(value_labels) != len(cols):
                raise SchemaError(
                    f"value {value_labels} has {len(value_labels)} components, "
                    f"context {context!r} has {len(cols)} cells",
                    at,
                )
            try:
                value = tuple(
                    by_label[q].value_index(v) for q, v in zip(cols, value_labels)
                )
            except KeyError as exc:
                raise UnknownLabelError(f"unknown content {exc.args[0]!r}", at) from exc
            except UnknownLabelError as exc:
                raise UnknownLabelError(str(exc), at) from exc
            if value in masses:
                raise SchemaError(f"value {value_labels} listed twice", at)
            masses[value] = _mass_from_json(entry.get("mass"), f"{at}.mass")
        bunches[context] = masses
    try:
        return validate_system(contents, contexts, bunches)
    except ValidationError as exc:
        raise SchemaError(str(exc), "bunches") from exc


def serialize_system(system: CCSystem, indent: int = 2) -> str:
    """Serialize a system to the canonical document form (round-trip exact)."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "contents": [
            {
                "label": c.label,
                "values": list(c.values),
                "plus": c.values[c.plus_index],
            }
            for c in system.contents
        ],
        "contexts": [
            {"label": context, "contents": list(system.context_contents(context))}
            for context in system.contexts
        ],
        "bunches": {
            context: [
                {
                    "value": [
                        system.content(q).values[v]
                        for q, v in zip(system.context_contents(context), value)
                    ],
                    "mass": str(mass),
                }
                for value, mass in system.bunches[context].items()
            ]
            for context in system.contexts
        },
    }
    return json.dumps(doc, indent=indent)


# ---------------------------------------------------------------------------
# Trial tables and estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialRow:
    context: str
    values: tuple[tuple[str, str], ...]  # (content label, value label), sorted

    def value_map(self) -> dict[str, str]:
        return dict(self.values)


@dataclass(frozen=True)
class TrialTable:
    rows: tuple[TrialRow, ...]


def _csv_records(text: str):
    """The records of a CSV text; a record the reader rejects is a SchemaError."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(str(exc), f"line {reader.line_num}") from None


def parse_trials(text: str) -> TrialTable:
    """Parse a trial CSV into rows of per-content observed value labels."""
    reader = _csv_records(text)
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty trial file") from None
    if not header or header[0].strip() != "context":
        raise SchemaError("first CSV column must be 'context'", "line 1")
    columns = []
    for name in header[1:]:
        name = name.strip()
        if name.startswith("content:"):
            name = name[len("content:"):]
        if not name:
            raise SchemaError("empty content column name", "line 1")
        columns.append(name)
    if len(set(columns)) != len(columns):
        raise SchemaError(f"duplicate content columns in {columns}", "line 1")
    rows = []
    for lineno, record in enumerate(reader, start=2):
        if not record or all(not cell.strip() for cell in record):
            continue
        if len(record) != len(columns) + 1:
            raise SchemaError(
                f"row has {len(record)} fields, header has {len(columns) + 1}",
                f"line {lineno}",
            )
        context = record[0].strip()
        values = tuple(
            sorted(
                (content, cell.strip())
                for content, cell in zip(columns, record[1:])
                if cell.strip()
            )
        )
        if not values:
            raise SchemaError("row observes no contents", f"line {lineno}")
        rows.append(TrialRow(context, values))
    return TrialTable(tuple(rows))


def estimate_system(
    trials: TrialTable,
    contents: Sequence[Content],
    contexts: Mapping[str, Sequence[str]],
) -> CCSystem:
    """Estimate bunch distributions as exact count fractions.

    Every declared context needs at least one trial; each trial row must
    cover exactly the filled cells of its context.
    """
    by_label = {c.label: c for c in contents}
    counts: dict[str, dict[tuple[int, ...], int]] = {str(c): {} for c in contexts}
    totals: dict[str, int] = {str(c): 0 for c in contexts}
    order = {str(c): [str(q) for q in qs] for c, qs in contexts.items()}
    for row in trials.rows:
        if row.context not in counts:
            raise UnknownLabelError(f"trial row names undeclared context {row.context!r}")
        expected = sorted(order[row.context])
        observed = row.value_map()
        if sorted(observed) != expected:
            raise UnknownLabelError(
                f"trial row for {row.context!r} covers {sorted(observed)}, "
                f"its cells are {expected}"
            )
        value = []
        for q in order[row.context]:
            content = by_label.get(q)
            if content is None:
                raise UnknownLabelError(f"context {row.context!r} references unknown content {q!r}")
            value.append(content.value_index(observed[q]))
        key = tuple(value)
        counts[row.context][key] = counts[row.context].get(key, 0) + 1
        totals[row.context] += 1
    empty = sorted(c for c, n in totals.items() if n == 0)
    if empty:
        raise EmptyContextError(f"no trials for contexts {empty}")
    bunches = {
        context: {
            value: Fraction(n, totals[context]) for value, n in table.items()
        }
        for context, table in counts.items()
    }
    return validate_system(contents, contexts, bunches)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def cyclic_system_from_correlations(correlations: Sequence) -> CCSystem:
    """Consistently connected cyclic binary system with the given correlations.

    ``correlations[i]`` is the exact product expectation (in ``[-1, 1]``) of
    context ``c_(i+1)``, which pairs contents ``q_(i+1)`` and ``q_(i+2)``
    cyclically; all marginals are uniform.  This is the entry path for
    quantum-style systems whose correlations are irrational: approximate
    them as Fractions first, then build the system exactly.
    """
    values = [as_fraction(e) for e in correlations]
    n = len(values)
    if n < 2:
        raise ValidationError(f"a cycle needs at least 2 correlations, got {n}")
    if any(not -1 <= e <= 1 for e in values):
        raise ValidationError(f"correlations must lie in [-1, 1], got {values}")
    contents = [Content(f"q{i}", 2, PLUS_MINUS, 0) for i in range(1, n + 1)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % n + 1}"] for i in range(1, n + 1)}
    quarter = Fraction(1, 4)
    bunches = {}
    for i, e in enumerate(values, start=1):
        agree = quarter * (1 + e)
        disagree = quarter * (1 - e)
        bunches[f"c{i}"] = {
            value: mass
            for value, mass in {
                (0, 0): agree,
                (0, 1): disagree,
                (1, 0): disagree,
                (1, 1): agree,
            }.items()
            if mass
        }
    return validate_system(contents, contexts, bunches)


@dataclass(frozen=True)
class CorrelationApproximation:
    """How one context's target correlation was rationalized."""

    context: str
    target: float
    value: Fraction
    error: float


@dataclass(frozen=True)
class EprBResult:
    system: CCSystem
    approximations: tuple[CorrelationApproximation, ...]
    denominator_bound: int

    @property
    def max_error(self) -> float:
        return max(a.error for a in self.approximations)


def generate_epr_b(angles: Sequence[float | str], denominator_bound: int = 10**6) -> EprBResult:
    """Rank-4 cyclic system of two spin measurements in a singlet state.

    Contents ``q1..q4`` are the four measurement axes (given as angles in
    radians, as numbers or numeric strings); context ``c_i`` pairs axes ``q_i`` and ``q_(i+1)``.  Each bunch
    has uniform marginals and product expectation ``-cos(theta)`` for the
    angle ``theta`` between its two axes, rounded to the nearest fraction
    with denominator at most ``denominator_bound``.  Marginals stay exactly
    1/2 (the approximation only touches the correlation term), so the system
    is consistently connected.
    """
    try:
        angles = [float(a) for a in angles]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"need four finite angles, got {list(angles)!r}") from exc
    if len(angles) != 4 or not all(math.isfinite(a) for a in angles):
        raise ValidationError(f"need four finite angles, got {angles!r}")
    if denominator_bound < 1:
        raise ValidationError(f"denominator bound must be >= 1, got {denominator_bound}")
    correlations = []
    approximations = []
    for i in range(1, 5):
        theta = angles[i % 4] - angles[i - 1]
        target = -math.cos(theta)
        value = Fraction(target).limit_denominator(denominator_bound)
        value = max(Fraction(-1), min(Fraction(1), value))
        approximations.append(
            CorrelationApproximation(f"c{i}", target, value, abs(float(value) - target))
        )
        correlations.append(value)
    system = cyclic_system_from_correlations(correlations)
    return EprBResult(system, tuple(approximations), denominator_bound)


def dichotomize_matching(
    observations: Sequence[Sequence[tuple[float, float]]],
    rad1: float,
    rad3: float,
    ang2: float,
    ang4: float,
) -> CCSystem:
    """Rank-4 cyclic binary system from paired (radius, angle) measurements.

    ``observations[i-1]`` holds the trials of context ``c_i``, which pairs
    contents ``q_i`` and ``q_(i+1)``; odd-numbered contents are radius
    responses, even-numbered ones are angle responses.  A response codes +1
    when the measurement strictly exceeds its content's threshold and -1
    otherwise (ties fall to -1).
    """
    if len(observations) != 4:
        raise ValidationError(f"need trials for four contexts, got {len(observations)}")
    thresholds = {"q1": float(rad1), "q2": float(ang2), "q3": float(rad3), "q4": float(ang4)}
    contents = [Content(f"q{i}", 2, PLUS_MINUS, 0) for i in range(1, 5)]
    contexts = {f"c{i}": [f"q{i}", f"q{i % 4 + 1}"] for i in range(1, 5)}
    empty = [f"c{i}" for i in range(1, 5) if not observations[i - 1]]
    if empty:
        raise EmptyContextError(f"no observations for contexts {empty}")
    bunches: dict[str, dict[tuple[int, ...], Fraction]] = {}
    for i in range(1, 5):
        first, second = contexts[f"c{i}"]
        counts: dict[tuple[int, ...], int] = {}
        trials = observations[i - 1]
        for radius, angle in trials:
            by_content = {}
            for q in (first, second):
                measurement = radius if int(q[1:]) % 2 == 1 else angle
                coded_plus = measurement > thresholds[q]
                by_content[q] = 0 if coded_plus else 1
            key = (by_content[first], by_content[second])
            counts[key] = counts.get(key, 0) + 1
        bunches[f"c{i}"] = {
            value: Fraction(n, len(trials)) for value, n in counts.items()
        }
    return validate_system(contents, contexts, bunches)


# ---------------------------------------------------------------------------
# Canonical examples
# ---------------------------------------------------------------------------


def rank2_family(p) -> CCSystem:
    """Two-context binary family: one perfectly correlated bunch, one tunable.

    The first bunch is diagonal with masses 1/2; the second places ``p`` on
    each agreeing pair and ``1/2 - p`` on each disagreeing pair.  At
    ``p = 0`` the system is maximally contextual; at ``p = 1/2`` the bunches
    coincide and it is trivially noncontextual.  Its minimum total variation
    is ``2(1 - p)``.
    """
    p = as_fraction(p)
    if not 0 <= p <= Fraction(1, 2):
        raise ValidationError(f"p must lie in [0, 1/2], got {p}")
    half = Fraction(1, 2)
    contents = [Content("q1", 2, PLUS_MINUS, 0), Content("q2", 2, PLUS_MINUS, 0)]
    contexts = {"c1": ["q1", "q2"], "c2": ["q1", "q2"]}
    bunches = {
        "c1": {(0, 0): half, (1, 1): half},
        "c2": {(0, 0): p, (0, 1): half - p, (1, 0): half - p, (1, 1): p},
    }
    return validate_system(contents, contexts, bunches)


def _szlg_example() -> CCSystem:
    contents = [Content(f"q{i}", 2, PLUS_MINUS, 0) for i in (1, 2, 3)]
    contexts = {"c1": ["q1", "q2"], "c2": ["q2", "q3"], "c3": ["q1", "q3"]}
    p7, p3, p4 = Fraction(7, 10), Fraction(3, 10), Fraction(2, 5)
    bunches = {
        "c1": {(0, 0): p7, (1, 1): p3},
        "c2": {(0, 0): p7, (1, 1): p3},
        "c3": {(0, 0): p4, (0, 1): p3, (1, 0): p3},
    }
    return validate_system(contents, contexts, bunches)


def canonical_example(name: str) -> CCSystem:
    """One of the bundled example systems (names in ``EXAMPLE_NAMES``).

    ``fig1``/``fig9``: the minimal contextual two-context binary system
    (perfect correlation against perfect anticorrelation, uniform marginals).
    ``fig10``/``szlg``: a contextual three-context system with identical
    0.7/0.3 marginals everywhere.
    """
    if name in ("fig1", "fig9"):
        return rank2_family(0)
    if name in ("fig10", "szlg"):
        return _szlg_example()
    raise UnknownLabelError(f"unknown example {name!r}; choose one of {EXAMPLE_NAMES}")
