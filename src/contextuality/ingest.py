"""File formats and empirical estimation.

System files are JSON documents (schema below); masses are exact decimal or
fraction strings, never binary floats.  Trial logs are CSV with one row per
co-occurrence unit, and :func:`estimate_system` turns trials into bunches of
exact count fractions.  The generators of the paper's worked systems are in
:mod:`.generators`.

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
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .distribution import as_fraction
from .errors import (
    EmptyContextError,
    SchemaError,
    UnknownLabelError,
    ValidationError,
)
from .systems import CCSystem, Content, validate_system

SCHEMA_VERSION = 1


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
    if not entries:
        raise SchemaError("a system needs at least one content", path)
    contents = []
    for i, entry in enumerate(entries):
        here = f"{path}[{i}]"
        entry = _expect(entry, dict, here)
        label = str(_expect(entry.get("label"), str, f"{here}.label"))
        if any(c.label == label for c in contents):
            raise SchemaError(f"content {label!r} declared twice", here)
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
    except ValueError as exc:  # an integer past the interpreter's digit limit
        raise SchemaError(str(exc), "document") from exc
    return _expect(doc, dict, "document")


def _layout(doc: dict) -> tuple[list[Content], dict[str, list[str]]]:
    """The declared contents and contexts; a layout fault is located at its field."""
    version = doc.get("schema_version", SCHEMA_VERSION)
    # bool is an int subclass and 1.0 == True == 1, so test the type itself
    if type(version) is not int or version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}", "schema_version")
    contents = _parse_contents(doc.get("contents"), "contents")
    declared = {c.label for c in contents}
    ctx_node = _expect(doc.get("contexts"), list, "contexts")
    contexts: dict[str, list[str]] = {}
    for i, entry in enumerate(ctx_node):
        here = f"contexts[{i}]"
        entry = _expect(entry, dict, here)
        label = str(_expect(entry.get("label"), str, f"{here}.label"))
        at = f"{here}.contents"
        cols = [str(q) for q in _expect(entry.get("contents"), list, at)]
        if label in contexts:
            raise SchemaError(f"context {label!r} declared twice", here)
        if not cols or len(set(cols)) != len(cols):
            raise SchemaError(f"contents must be nonempty and distinct, got {cols}", at)
        for q in cols:
            if q not in declared:
                raise UnknownLabelError(f"context {label!r} references unknown content {q!r}", at)
        contexts[label] = cols
    used = {q for cols in contexts.values() for q in cols}
    for i, content in enumerate(contents):
        if content.label not in used:
            raise SchemaError(f"content {content.label!r} appears in no context", f"contents[{i}]")
    return contents, contexts


def parse_layout(text: str) -> tuple[list[Content], dict[str, list[str]]]:
    """Parse the contents/contexts declaration shared by system and layout files."""
    return _layout(_decode(text))


def parse_system(text: str) -> CCSystem:
    """Parse a system document into a validated CCSystem.

    Each distinct mass string is parsed once, at its first entry.
    """
    doc = _decode(text)
    contents, contexts = _layout(doc)
    by_label = {c.label: c for c in contents}
    parsed: dict[str, Fraction] = {}
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
                value = tuple([by_label[q].value_index(v) for q, v in zip(cols, value_labels)])
            except UnknownLabelError as exc:
                raise UnknownLabelError(str(exc), at) from exc
            if value in masses:
                raise SchemaError(f"value {value_labels} listed twice", at)
            raw = entry.get("mass")
            if type(raw) is not str:
                mass = _mass_from_json(raw, f"{at}.mass")
            elif (mass := parsed.get(raw)) is None:
                mass = parsed[raw] = _mass_from_json(raw, f"{at}.mass")
            masses[value] = mass
        bunches[context] = masses
    try:
        return validate_system(contents, contexts, bunches)
    except SchemaError:
        raise
    except ValueError as exc:  # a ValidationError, or a sum past the digit limit to print
        raise SchemaError(str(exc), "bunches") from exc


def serialize_system(system: CCSystem) -> str:
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
    return json.dumps(doc, indent=2)


# ---------------------------------------------------------------------------
# Trials and estimation
# ---------------------------------------------------------------------------


def _csv_records(text: str):
    """The records of a CSV text; a record the reader rejects is a SchemaError."""
    reader = csv.reader(io.StringIO(text))
    try:
        yield from reader
    except csv.Error as exc:
        raise SchemaError(str(exc), f"line {reader.line_num}") from None


def parse_trials(text: str) -> list[tuple[str, dict[str, str]]]:
    """Parse a trial CSV into ``(context, {content: value label})`` pairs, one per row."""
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
        values = {
            content: cell.strip() for content, cell in zip(columns, record[1:]) if cell.strip()
        }
        if not values:
            raise SchemaError("row observes no contents", f"line {lineno}")
        rows.append((context, values))
    return rows


def estimate_system(
    trials: Iterable[tuple[str, Mapping[str, str]]],
    contents: Sequence[Content],
    contexts: Mapping[str, Sequence[str]],
) -> CCSystem:
    """Estimate bunch distributions as exact count fractions.

    ``trials`` are ``(context, {content: value label})`` pairs, as
    :func:`parse_trials` returns them.  Every declared context needs at
    least one trial; each trial must cover exactly the filled cells of its
    context.
    """
    by_label = {c.label: c for c in contents}
    counts: dict[str, dict[tuple[int, ...], int]] = {str(c): {} for c in contexts}
    totals: dict[str, int] = {str(c): 0 for c in contexts}
    order = {str(c): [str(q) for q in qs] for c, qs in contexts.items()}
    for context, observed in trials:
        if context not in counts:
            raise UnknownLabelError(f"trial row names undeclared context {context!r}")
        expected = sorted(order[context])
        if sorted(observed) != expected:
            raise UnknownLabelError(
                f"trial row for {context!r} covers {sorted(observed)}, "
                f"its cells are {expected}"
            )
        value = []
        for q in order[context]:
            content = by_label.get(q)
            if content is None:
                raise UnknownLabelError(f"context {context!r} references unknown content {q!r}")
            value.append(content.value_index(observed[q]))
        key = tuple(value)
        counts[context][key] = counts[context].get(key, 0) + 1
        totals[context] += 1
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
