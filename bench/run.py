"""Benchmark of ``contextuality analyze``: end-to-end and per-layer metrics.

Usage (from the repository root)::

    python3 bench/run.py --workload cycles --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all

Each workload runs in one single-threaded process.  Set-up imports the
package from ``src/`` and writes the workload's system files; every timed
analysis is one in-process call of ``contextuality.cli.main`` on one file,
from reading it to the exit code.  Passes over all files repeat while the
next one fits in ``--seconds`` (at least one pass).  Every answer is checked
by ``check.py`` outside the timed region.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from check import check_answer
from inputs import WORKLOADS, write_cases
from spans import PACKAGE, Tracer

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPEATS = 11

# Per-layer time metrics: the spans whose self times they total.
LAYER_TIMES = {
    "ingest.parse_s": ("ingest.parse_system",),
    "systems.consistency_s": ("systems.consistency_report",),
    "systems.connections_s": ("systems.connections",),
    "cyclic.criterion_s": ("cyclic.detect_cycles", "cyclic.evaluate_criterion"),
    "coupling.diagonal_s": ("coupling.maximal_coupling_diagonal",),
    "analysis.outcome_space_s": ("analysis.outcome_space",),
    "analysis.build_s": ("analysis.build_associated_system",),
    "analysis.decide_self_s": ("analysis.decide_contextuality",),
    "analysis.measure_self_s": ("analysis.contextuality_measure",),
    "simplex.feasibility_s": ("simplex.solve_feasibility",),
    "simplex.minimize_s": ("simplex.minimize",),
    "cli.self_s": ("cli.main",),
}
# Per-layer counters: metric name -> (tracer counter, unit).
LAYER_COUNTS = {
    "systems.connections_calls": ("systems.connections.calls", "count"),
    "coupling.diagonal_calls": ("coupling.maximal_coupling_diagonal.calls", "count"),
    "analysis.outcome_space_calls": ("analysis.outcome_space.calls", "count"),
    "analysis.build_calls": ("analysis.build_associated_system.calls", "count"),
    "analysis.columns": ("analysis.columns", "count"),
    "analysis.rows": ("analysis.rows", "count"),
    "analysis.matrix_entries": ("analysis.matrix_entries", "count"),
    "simplex.feasibility_pivots": ("simplex.feasibility_pivots", "count"),
    "simplex.minimize_pivots": ("simplex.minimize_pivots", "count"),
    "simplex.witness_bits": ("simplex.witness_bits", "bits"),
}


def fresh_import():
    """Import the package and its CLI from ``src/``, discarding any earlier import."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    importlib.import_module(PACKAGE)
    return importlib.import_module(PACKAGE + ".cli")


def setup(workload: str, seed: int, directory: Path):
    """Import and write the inputs ``SETUP_REPEATS`` times; the median is ``setup_s``."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        cli = fresh_import()
        cases = write_cases(sys.modules[PACKAGE], workload, seed, directory)
        times.append(time.perf_counter() - start)
    return cli, cases, statistics.median(times)


class Pass:
    """Times and outcomes of one pass over a workload's files."""

    def __init__(self, tracer: Tracer | None = None):
        self.tracer = tracer
        self.seconds: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.rejected: list[str] = []
        self.output_bytes = 0


def run_pass(cli, cases, docs, tracer: Tracer | None = None) -> Pass:
    result = Pass(tracer)
    if tracer is not None:
        tracer.install()
    try:
        for case in cases:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                start = time.perf_counter()
                try:
                    code = cli.main(case.argv())
                except (Exception, SystemExit) as exc:  # counted, reported, run goes on
                    code = f"{type(exc).__name__}: {exc}"
                elapsed = time.perf_counter() - start
            result.seconds[case.path] = elapsed
            result.attempted += 1
            if tracer is not None and not tracer.verify_witnesses():
                result.rejected.append(f"{case.name}: FeasibilityResult.verify rejected a witness")
            if code not in (0, 1):
                result.failed += 1
                print(f"failed: {case.name}: {code} {err.getvalue().strip()}", file=sys.stderr)
                continue
            text = out.getvalue()
            try:
                report = json.loads(text)
                problems = check_answer(docs[case.path], report, code, case.measure, case.rank2_p)
            except (ValueError, KeyError, TypeError) as exc:
                problems = [f"unreadable report: {type(exc).__name__}: {exc}"]
                report = {}
            # Timing values are the only part of a report that differs between runs.
            timings = report.get("timings") or {}
            result.output_bytes += len(text.encode()) - sum(len(json.dumps(v)) for v in timings.values())
            if problems:
                result.failed += 1
                result.rejected += [f"{case.name}: {p}" for p in problems[:3]]
    finally:
        if tracer is not None:
            tracer.uninstall()
    return result


def pass_seconds(passes: list[Pass]) -> float:
    """Wall time of one pass: the sum over files of each file's fastest time.

    Other tenants of a shared host only ever add time, and they come and go
    over seconds; the fastest of a file's repetitions filters them out where
    a median keeps whatever share of the run they covered.
    """
    return sum(min(p.seconds[key] for p in passes) for key in passes[0].seconds)


def run_passes(cli, cases, docs, seconds: float, trace: bool) -> list[Pass]:
    """Whole rounds (a pass, or an untraced and a traced pass) while the next fits."""
    begin = time.perf_counter()
    passes: list[Pass] = []
    rounds = 0
    while True:
        passes.append(run_pass(cli, cases, docs))
        if trace:
            passes.append(run_pass(cli, cases, docs, Tracer()))
        rounds += 1
        elapsed = time.perf_counter() - begin
        if elapsed * (rounds + 1) / rounds > seconds:
            return passes


def layer_metrics(passes: list[Pass]) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced passes, and any counter that differed between them."""
    traced = [p for p in passes if p.tracer is not None]
    untraced = [p for p in passes if p.tracer is None]
    metrics = {}
    self_times = [p.tracer.self_times() for p in traced]
    for name, spans in LAYER_TIMES.items():
        metrics[name] = (min(sum(t.get(s, 0.0) for s in spans) for t in self_times), "s")
    metrics["simplex.verify_s"] = (min(p.tracer.verify_seconds for p in traced), "s")
    metrics["trace.overhead_s"] = (pass_seconds(traced) - pass_seconds(untraced), "s")
    unsteady = []
    for name, (counter, unit) in LAYER_COUNTS.items():
        values = {p.tracer.counters.get(counter, 0) for p in traced}
        metrics[name] = (values.pop(), unit)
        if values:
            unsteady.append(name)
    output = {p.output_bytes for p in passes}
    metrics["cli.output_bytes"] = (output.pop(), "bytes")
    if output:
        unsteady.append("cli.output_bytes")
    return metrics, unsteady


def print_shares(tracer: Tracer) -> None:
    """Each span's share of the total self time of one traced pass."""
    times = tracer.self_times()
    total = sum(times.values())
    for name, value in sorted(times.items(), key=lambda kv: -kv[1]):
        print(f"  share {name:38s} {100 * value / total:6.2f} %")


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    directory = WORK / f"{workload}-seed{seed}-{os.getpid()}"
    try:
        cli, cases, setup_s = setup(workload, seed, directory)
        docs = {c.path: json.loads(Path(c.path).read_text(encoding="utf-8")) for c in cases}
        passes = run_passes(cli, cases, docs, seconds, trace)
    finally:
        shutil.rmtree(directory, ignore_errors=True)

    rejected = [r for p in passes for r in p.rejected]
    for line in rejected[:20]:
        print(f"rejected: {line}", file=sys.stderr)
    print(f"workload {workload}, seed {seed}: {len(passes)} passes over {len(cases)} files")
    if trace:
        metrics, unsteady = layer_metrics(passes)
        for name in unsteady:
            rejected.append(f"counter {name} differed between traced passes")
            print(f"rejected: counter {name} differed between traced passes", file=sys.stderr)
        last = [p.tracer for p in passes if p.tracer is not None][-1]
        print_shares(last)
        last.dump(WORK / f"spans-{workload}-seed{seed}.json")
    else:
        metrics = {
            "analyze_s": (pass_seconds(passes), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
    for name, (value, unit) in metrics.items():
        print(f"  {name:30s} {value:>16} {unit}" if isinstance(value, int) else f"  {name:30s} {value:>16.6f} {unit}")
    return {
        "correct": not rejected,
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed for p in passes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def run_all(args) -> int:
    """Run every workload in its own process, one after another."""
    status = 0
    results = {}
    for workload in WORKLOADS:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        child = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = child.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            print(f"workload {workload} exited with {child.returncode}", file=sys.stderr)
            status = 1
            continue
        results[workload] = json.loads(lines[-1])
        status |= results[workload]["failed"] > 0 or not results[workload]["correct"]
    print(json.dumps(results))
    return int(status)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
