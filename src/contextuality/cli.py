"""Command-line front end.

Subcommands: ``analyze`` (LP verdict, optional measure/witness), ``cyclic``
(closed-form criterion per cycle), ``estimate`` (bunches from trial CSV),
``generate`` (bundled examples and the four-axis spin system).  Exit codes
classify verdicts: 0 noncontextual, 1 contextual, 2 error or no verdict.
"""

from __future__ import annotations

import argparse
import functools
import sys
from json.encoder import encode_basestring_ascii
from typing import Mapping

from . import __version__
from .analysis import (
    DEFAULT_COLUMN_CAP,
    contextuality_measure,
    decide_contextuality,
)
from .cyclic import NotCyclic, detect_cycles, evaluate_criterion
from .errors import ContextualityError, SchemaError
from .generators import EXAMPLE_NAMES, canonical_example, generate_epr_b
from .ingest import estimate_system, parse_layout, parse_system, parse_trials, serialize_system
from .systems import CCSystem, consistency_report

EXIT_NONCONTEXTUAL = 0
EXIT_CONTEXTUAL = 1
EXIT_ERROR = 2


def _read_input(path: str) -> str:
    """The UTF-8 text of a file, or of stdin for ``-``, decoded the same way for both.

    Stdin is read as bytes, so the locale's error handler never applies.  Line
    ends are translated as text mode does: ``\r\n`` and a lone ``\r`` become
    ``\n``.
    """
    if path == "-":
        data = sys.stdin.buffer.read()
    else:
        with open(path, "rb") as handle:
            data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the whole input decodes in one call, so ``start`` is its byte offset
        raise SchemaError(f"not {exc.encoding}: {exc.reason}", f"byte {exc.start}") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _write_output(path: str | None, text: str) -> None:
    text = text if text.endswith("\n") else text + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)


def _system_summary(system: CCSystem) -> dict:
    report = consistency_report(system)
    connections = system.connections()
    return {
        "contexts": len(system.contexts),
        "contents": len(system.contents),
        "variables": system.variable_count,
        "consistently_connected": report.consistent,
        "all_connections_singleton": all(c.size == 1 for c in connections),
        "all_bunches_singleton": all(
            len(system.context_contents(c)) == 1 for c in system.contexts
        ),
    }


def _cyclic_section(system: CCSystem) -> dict:
    detected = detect_cycles(system)
    if isinstance(detected, NotCyclic):
        return {"cyclic": False, "condition": detected.condition, "detail": detected.detail}
    cycles = []
    for view in detected:
        report = evaluate_criterion(view, system)
        cycles.append(
            {
                "rank": report.rank,
                "contents": list(view.contents),
                "contexts": list(view.contexts),
                "lhs": str(report.lhs),
                "rhs": str(report.rhs),
                "delta": str(report.delta),
                "contextual": report.contextual,
            }
        )
    return {"cyclic": True, "cycles": cycles, "contextual": any(c["contextual"] for c in cycles)}


def _render_text(report: dict) -> str:
    lines = []
    summary = report["system"]
    lines.append(
        f"system: {summary['contexts']} contexts, {summary['contents']} contents, "
        f"{summary['variables']} variables"
    )
    lines.append(
        "consistently connected: " + ("yes" if summary["consistently_connected"] else "no")
    )
    if summary["all_connections_singleton"]:
        lines.append("note: trivially noncontextual shape (no connection links two bunches)")
    elif summary["all_bunches_singleton"]:
        lines.append("note: trivially noncontextual shape (every bunch is a single variable)")
    cyclic = report.get("cyclic")
    if cyclic is not None:
        if not cyclic["cyclic"]:
            lines.append(f"cyclic: no ({cyclic['condition']}: {cyclic['detail']})")
        else:
            for cycle in cyclic["cycles"]:
                lines.append(
                    f"cycle rank {cycle['rank']}: lhs = {cycle['lhs']}, rhs = {cycle['rhs']}, "
                    f"delta = {cycle['delta']} -> "
                    + ("contextual" if cycle["contextual"] else "noncontextual")
                )
    verdict = report.get("verdict")
    if verdict is not None:
        lines.append("verdict: " + ("contextual" if verdict["contextual"] else "noncontextual"))
        if "witness" in verdict:
            kind = verdict["witness"]["kind"]
            lines.append(f"witness ({kind}):")
            if kind == "coupling":
                for outcome, mass in verdict["witness"]["masses"]:
                    lines.append(f"  {outcome}: {mass}")
            else:
                lines.append(f"  certificate rows: {verdict['witness']['certificate']}")
    measure = report.get("measure")
    if measure is not None:
        lines.append(
            f"total variation: {measure['total_variation']}  measure: {measure['measure']}"
        )
        if "witness" in measure:
            lines.append("quasi-coupling masses:")
            for outcome, mass in measure["witness"]:
                lines.append(f"  {outcome}: {mass}")
        if "dual" in measure:
            lines.append(f"dual rows: {measure['dual']}")
    return "\n".join(lines)


def _json_text(value) -> str:
    """The text of ``json.dumps(value, indent=2)``, for the types a report holds:
    dicts with string keys, lists, tuples, strings, ints, booleans and None.

    An indent makes :mod:`json` give up its C encoder for its pure-Python one,
    which takes longer than the whole analysis of a small system and leaves
    reference cycles behind on every call.  This writes the same text, strings
    through json's C escaper, every piece appended to one list joined once.
    """
    out: list[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append the pieces of ``value`` to ``out``; ``newline`` ends in its indent."""
    kind = type(value)
    if kind is str:
        out.append(encode_basestring_ascii(value))
    elif kind is list or kind is tuple:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(x) is int for x in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        opening = "[" + inner
        for item in value:
            out.append(opening)
            _write_json(item, inner, out)
            opening = "," + inner
        out.append(newline + "]")
    elif kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opening = "{" + inner
        for key, item in value.items():
            out.append(opening)
            out.append(encode_basestring_ascii(key))
            out.append(": ")
            _write_json(item, inner, out)
            opening = "," + inner
        out.append(newline + "}")
    elif kind is int:
        out.append(int.__repr__(value))
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    else:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(report: dict, fmt: str) -> None:
    print(_json_text(report) if fmt == "json" else _render_text(report))


def _masses(masses: Mapping) -> list:
    """Outcome masses as ``[[outcome], "mass"]`` pairs in outcome order."""
    return [[list(outcome), str(mass)] for outcome, mass in sorted(masses.items())]


def cmd_analyze(args: argparse.Namespace) -> int:
    system = parse_system(_read_input(args.system))
    report: dict = {"system": _system_summary(system)}

    if args.measure:
        result = contextuality_measure(system, max_columns=args.max_columns)
        verdict = result.verdict
    else:
        verdict = decide_contextuality(system, max_columns=args.max_columns)

    report["verdict"] = {"contextual": verdict.contextual}
    if args.witness:
        if verdict.contextual:
            report["verdict"]["witness"] = {
                "kind": "certificate",
                "certificate": [str(y) for y in verdict.certificate],
            }
        else:
            report["verdict"]["witness"] = {
                "kind": "coupling",
                "masses": _masses(verdict.coupling.masses),
            }

    cyclic = _cyclic_section(system)
    report["cyclic"] = cyclic
    if cyclic["cyclic"] and cyclic["contextual"] != verdict.contextual:
        raise ContextualityError(
            "internal inconsistency: cyclic criterion and feasibility verdict disagree"
        )

    report["measure"] = None
    if args.measure:
        report["measure"] = {
            "total_variation": str(result.total_variation),
            "measure": str(result.measure),
        }
        if args.witness:
            report["measure"]["witness"] = _masses(result.witness.masses)
            if verdict.contextual:
                report["measure"]["dual"] = [str(y) for y in result.dual]
    _emit(report, args.format)
    return EXIT_CONTEXTUAL if verdict.contextual else EXIT_NONCONTEXTUAL


def cmd_cyclic(args: argparse.Namespace) -> int:
    system = parse_system(_read_input(args.system))
    report = {"system": _system_summary(system), "cyclic": _cyclic_section(system)}
    _emit(report, args.format)
    cyclic = report["cyclic"]
    if not cyclic["cyclic"]:
        return EXIT_ERROR
    return EXIT_CONTEXTUAL if cyclic["contextual"] else EXIT_NONCONTEXTUAL


def cmd_estimate(args: argparse.Namespace) -> int:
    trials = parse_trials(_read_input(args.trials))
    contents, contexts = parse_layout(_read_input(args.layout))
    system = estimate_system(trials, contents, contexts)
    _write_output(args.output, serialize_system(system))
    return EXIT_NONCONTEXTUAL


def cmd_generate(args: argparse.Namespace) -> int:
    if args.kind == "epr-b":
        result = generate_epr_b(args.angles.split(","), args.denominator_bound)
        _write_output(args.output, serialize_system(result.system))
        print(
            f"correlation approximation: max error {result.max_error:.3g} "
            f"(denominator bound {result.denominator_bound})",
            file=sys.stderr,
        )
    else:
        _write_output(args.output, serialize_system(canonical_example(args.name)))
    return EXIT_NONCONTEXTUAL


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contextuality",
        description="Exact contextuality analysis of context-content systems.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="decide contextuality of a system file")
    analyze.add_argument("system", help="system JSON file, or - for stdin")
    analyze.add_argument("--measure", action="store_true", help="also compute the TV measure")
    analyze.add_argument(
        "--witness", action="store_true", help="dump coupling / certificate / quasi-coupling"
    )
    analyze.add_argument(
        "--max-columns",
        type=int,
        default=DEFAULT_COLUMN_CAP,
        help="hidden-outcome cap (default 2^20)",
    )
    analyze.add_argument("--format", choices=("text", "json"), default="text")
    analyze.set_defaults(handler=cmd_analyze)

    cyclic = sub.add_parser("cyclic", help="evaluate the cyclic criterion per cycle")
    cyclic.add_argument("system", help="system JSON file, or - for stdin")
    cyclic.add_argument("--format", choices=("text", "json"), default="text")
    cyclic.set_defaults(handler=cmd_cyclic)

    estimate = sub.add_parser("estimate", help="estimate a system from trial CSV")
    estimate.add_argument("trials", help="trial CSV file, or - for stdin")
    estimate.add_argument("--layout", required=True, help="contents/contexts declaration JSON")
    estimate.add_argument("-o", "--output", default=None, help="output file (default stdout)")
    estimate.set_defaults(handler=cmd_estimate)

    generate = sub.add_parser("generate", help="emit a canonical or constructed system")
    gensub = generate.add_subparsers(dest="kind", required=True)
    eprb = gensub.add_parser("epr-b", help="four-axis singlet-state system")
    eprb.add_argument("--angles", required=True, help="four comma-separated angles (radians)")
    eprb.add_argument("--denominator-bound", type=int, default=10**6)
    eprb.add_argument("-o", "--output", default=None)
    eprb.set_defaults(handler=cmd_generate, kind="epr-b")
    example = gensub.add_parser("example", help="bundled example system")
    example.add_argument("--name", required=True, choices=EXAMPLE_NAMES)
    example.add_argument("-o", "--output", default=None)
    example.set_defaults(handler=cmd_generate, kind="example")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ContextualityError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
