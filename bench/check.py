"""Independent checker for ``contextuality analyze --format json`` answers.

Everything here is recomputed from the system document the benchmark wrote
and the report the program printed.  Nothing is imported from the package:
the hidden-outcome LP ``M Q = P`` is rebuilt from the document in the row
and column order that ``analysis.py`` documents, and every witness is
checked by substitution, in the manner of exact LP certificates (Applegate,
Cook, Dash & Espinoza, Oper. Res. Lett. 35, 2007).

Columns: one per hidden outcome, a tuple of value indices over the cells
(contexts sorted by label, contents sorted by label within a context), first
cell most significant.  Rows: one per (context, bunch value) in the same
order, value tuples ascending; then one per (content, value ``l``), contents
sorted by label.  A bunch row holds the bunch mass; a connection row holds
``min_i P(R_i = l)`` over the connection's members.

For cyclic binary systems the verdict and the TV measure are also checked
against the closed form of Kujala, Dzhafarov & Larsson (PRL 115, 150401,
2015): contextual iff ``s_odd(products) > n - 2 + D``, where ``D`` is the
total marginal inconsistency, and ``TV - 1 = max(0, s_odd - (n - 2) - D) /
(2 (n - 1))``.

:func:`check_answer` returns a list of problems; an empty list accepts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

ZERO = Fraction(0)
ONE = Fraction(1)


@dataclass(frozen=True)
class SystemModel:
    """The LP data of one system document, rebuilt without the package."""

    sizes: dict  # content label -> alphabet size
    plus: dict  # content label -> value index read as +1
    contexts: tuple  # sorted context labels
    context_contents: dict  # context -> sorted content labels
    bunches: dict  # context -> {canonical value-index tuple: Fraction}
    cells: tuple  # (context, content) in column order
    cell_sizes: tuple
    bunch_rows: dict  # context -> {value tuple: row index}
    connection_rows: dict  # content -> [row index per value]
    context_positions: dict  # context -> cell positions of its bunch
    members: dict  # content -> cell positions of its connection
    rhs: tuple

    @property
    def rows(self) -> int:
        return len(self.rhs)

    def outcome_rows(self, outcome) -> list:
        """Indices of the rows whose indicator is 1 at this hidden outcome."""
        hit = []
        for context in self.contexts:
            positions = self.context_positions[context]
            hit.append(self.bunch_rows[context][tuple(outcome[p] for p in positions)])
        for content, positions in self.members.items():
            first = outcome[positions[0]]
            if all(outcome[p] == first for p in positions):
                hit.append(self.connection_rows[content][first])
        return hit


def load_system(doc: dict) -> SystemModel:
    """Rebuild the constraint data of a system document (schema version 1)."""
    sizes, plus, value_index = {}, {}, {}
    for entry in doc["contents"]:
        values = [str(v) for v in entry["values"]]
        label = entry["label"]
        sizes[label] = len(values)
        plus[label] = values.index(str(entry.get("plus", max(values))))
        value_index[label] = {v: i for i, v in enumerate(values)}
    given = {entry["label"]: list(entry["contents"]) for entry in doc["contexts"]}
    contexts = tuple(sorted(given))
    context_contents = {c: tuple(sorted(given[c])) for c in contexts}

    bunches = {}
    for context in contexts:
        order = given[context]
        table = {}
        for entry in doc["bunches"][context]:
            by_content = dict(zip(order, entry["value"]))
            key = tuple(value_index[q][str(by_content[q])] for q in context_contents[context])
            table[key] = table.get(key, ZERO) + Fraction(entry["mass"])
        bunches[context] = table

    cells = tuple((c, q) for c in contexts for q in context_contents[c])
    cell_sizes = tuple(sizes[q] for _, q in cells)
    context_positions = {c: [i for i, cell in enumerate(cells) if cell[0] == c] for c in contexts}
    rhs = []
    bunch_rows = {}
    for context in contexts:
        rows = {}
        for value in itertools.product(*(range(sizes[q]) for q in context_contents[context])):
            rows[value] = len(rhs)
            rhs.append(bunches[context].get(value, ZERO))
        bunch_rows[context] = rows
    members = {}
    connection_rows = {}
    for content in sorted(sizes):
        positions = [i for i, (_, q) in enumerate(cells) if q == content]
        members[content] = positions
        marginals = [
            _marginal(bunches[cells[p][0]], context_contents[cells[p][0]].index(content), sizes[content])
            for p in positions
        ]
        connection_rows[content] = []
        for l in range(sizes[content]):
            connection_rows[content].append(len(rhs))
            rhs.append(min(m[l] for m in marginals))
    return SystemModel(
        sizes, plus, contexts, context_contents, bunches, cells, cell_sizes,
        bunch_rows, connection_rows, context_positions, members, tuple(rhs),
    )


def _marginal(bunch: dict, position: int, size: int) -> list:
    out = [ZERO] * size
    for value, mass in bunch.items():
        out[value[position]] += mass
    return out


def _masses(entries, model: SystemModel, what: str, problems: list) -> dict:
    """Parse ``[[outcome, mass], ...]`` into a dict, rejecting malformed outcomes."""
    masses = {}
    for outcome, mass in entries:
        outcome = tuple(outcome)
        if len(outcome) != len(model.cells) or any(
            not 0 <= v < k for v, k in zip(outcome, model.cell_sizes)
        ):
            problems.append(f"{what}: outcome {list(outcome)} is not a hidden outcome")
            continue
        if outcome in masses:
            problems.append(f"{what}: outcome {list(outcome)} listed twice")
        masses[outcome] = masses.get(outcome, ZERO) + Fraction(mass)
    return masses


def check_equations(model: SystemModel, masses: dict, what: str) -> list:
    """Problems with ``M Q = P`` for the given (possibly signed) masses."""
    problems = []
    total = sum(masses.values(), ZERO)
    if total != ONE:
        problems.append(f"{what}: masses sum to {total}, not 1")
    got = [ZERO] * model.rows
    for outcome, mass in masses.items():
        for row in model.outcome_rows(outcome):
            got[row] += mass
    for row, (g, want) in enumerate(zip(got, model.rhs)):
        if g != want:
            problems.append(f"{what}: row {row} sums to {g}, expected {want}")
    return problems


def check_coupling(model: SystemModel, masses: dict) -> list:
    """A coupling: nonnegative masses that satisfy every equation."""
    problems = [
        f"coupling: negative mass {m} at {list(o)}" for o, m in masses.items() if m < 0
    ]
    return problems + check_equations(model, masses, "coupling")


def check_certificate(model: SystemModel, y: list) -> list:
    """A Farkas certificate: ``y . M_j <= 0`` for every column and ``y . P > 0``."""
    if len(y) != model.rows:
        return [f"certificate: {len(y)} entries for {model.rows} rows"]
    problems = []
    for outcome in itertools.product(*(range(k) for k in model.cell_sizes)):
        value = sum((y[row] for row in model.outcome_rows(outcome)), ZERO)
        if value > 0:
            problems.append(f"certificate: y.M = {value} > 0 at outcome {list(outcome)}")
            break
    objective = sum((a * b for a, b in zip(y, model.rhs)), ZERO)
    if objective <= 0:
        problems.append(f"certificate: y.P = {objective} is not positive")
    return problems


def s_odd(xs) -> Fraction:
    """Max of ``sum s_i x_i`` over sign vectors with an odd number of minuses, by enumeration."""
    best = None
    for signs in itertools.product((1, -1), repeat=len(xs)):
        if signs.count(-1) % 2 == 1:
            value = sum((s * x for s, x in zip(signs, xs)), ZERO)
            best = value if best is None else max(best, value)
    return best


def cyclic_delta(model: SystemModel):
    """``s_odd - (n - 2) - D`` and the rank of a connected cyclic binary system, else None."""
    contexts = model.contexts
    if any(len(model.context_contents[c]) != 2 for c in contexts):
        return None
    if any(k != 2 for k in model.sizes.values()):
        return None
    if any(len(p) != 2 for p in model.members.values()):
        return None
    # One cycle: walking from any content over contexts reaches every content.
    reached, frontier = set(), [next(iter(model.sizes))]
    while frontier:
        q = frontier.pop()
        if q not in reached:
            reached.add(q)
            frontier.extend(
                other for c in contexts if q in model.context_contents[c]
                for other in model.context_contents[c]
            )
    if len(reached) != len(model.sizes):
        return None

    def sign(content, value):
        return 1 if value == model.plus[content] else -1

    products = []
    expectations = {}
    for context in contexts:
        a, b = model.context_contents[context]
        products.append(sum(
            (sign(a, v[0]) * sign(b, v[1]) * m for v, m in model.bunches[context].items()), ZERO
        ))
        for i, q in enumerate((a, b)):
            expectations.setdefault(q, []).append(sum(
                (sign(q, v[i]) * m for v, m in model.bunches[context].items()), ZERO
            ))
    n = len(contexts)
    inconsistency = sum((abs(e[0] - e[1]) for e in expectations.values()), ZERO)
    return s_odd(products) - (n - 2) - inconsistency, n


def check_answer(doc: dict, report: dict, exit_code: int, measure: bool,
                 rank2_p: Fraction | None = None) -> list:
    """Every problem with one ``analyze --witness --format json`` answer.

    ``measure`` says whether ``--measure`` was given; ``rank2_p`` marks a
    ``rank2_family(p)`` system, whose TV is ``2 (1 - p)``.
    """
    model = load_system(doc)
    problems = []
    verdict = report["verdict"]
    contextual = verdict["contextual"]
    if exit_code != (1 if contextual else 0):
        problems.append(f"exit code {exit_code} for a {'' if contextual else 'non'}contextual verdict")

    witness = verdict.get("witness")
    if witness is None:
        problems.append("verdict: no witness")
    elif contextual and witness["kind"] == "certificate":
        problems += check_certificate(model, [Fraction(y) for y in witness["certificate"]])
    elif not contextual and witness["kind"] == "coupling":
        problems += check_coupling(model, _masses(witness["masses"], model, "coupling", problems))
    else:
        problems.append(f"verdict: a {witness['kind']} cannot witness contextual={contextual}")

    cyclic = cyclic_delta(model)
    if cyclic is not None and (cyclic[0] > 0) != contextual:
        problems.append(f"cyclic criterion gives contextual={cyclic[0] > 0}")

    if measure:
        result = report.get("measure")
        if not result or "witness" not in result:
            return problems + ["measure: missing or without witness"]
        tv = Fraction(result["total_variation"])
        quasi = _masses(result["witness"], model, "quasi-coupling", problems)
        problems += check_equations(model, quasi, "quasi-coupling")
        variation = sum((abs(m) for m in quasi.values()), ZERO)
        if variation != tv:
            problems.append(f"measure: sum |q| = {variation}, reported TV {tv}")
        if Fraction(result["measure"]) != tv - 1:
            problems.append(f"measure: {result['measure']} is not TV - 1 = {tv - 1}")
        if (tv == 1) == contextual:
            problems.append(f"measure: TV {tv} with contextual={contextual}")
        if cyclic is not None:
            delta, n = cyclic
            want = max(ZERO, delta) / (2 * (n - 1))
            if tv - 1 != want:
                problems.append(f"measure: TV - 1 = {tv - 1}, cyclic closed form gives {want}")
        if rank2_p is not None and tv != 2 * (1 - rank2_p):
            problems.append(f"measure: TV {tv}, rank2_family({rank2_p}) has {2 * (1 - rank2_p)}")
    return problems
