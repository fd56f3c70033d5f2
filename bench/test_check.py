"""The answer checker accepts the program's answers and rejects corrupted ones.

Run from the repository root with ``python3 -m pytest bench`` or
``python3 bench/test_check.py``.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from check import check_answer, cyclic_delta, load_system, s_odd  # noqa: E402
from contextuality import (  # noqa: E402
    build_associated_system,
    canonical_example,
    cyclic_system_from_correlations,
    rank2_family,
    serialize_system,
    validate_system,
)
from contextuality.cli import main  # noqa: E402

F = Fraction


def analyze(system, measure=True):
    """The document, report and exit code of ``analyze --witness --format json``."""
    text = serialize_system(system)
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "system.json"
        path.write_text(text, encoding="utf-8")
        out = io.StringIO()
        flags = ["--measure"] if measure else []
        with contextlib.redirect_stdout(out):
            code = main(["analyze", str(path), *flags, "--witness", "--format", "json"])
    return json.loads(text), json.loads(out.getvalue()), code


class CheckerTest(unittest.TestCase):
    def setUp(self):
        self.fig10 = canonical_example("fig10")
        self.contextual = analyze(self.fig10)
        self.noncontextual = analyze(rank2_family(F(1, 2)))
        self.cycle = analyze(cyclic_system_from_correlations([F(9, 10), F(9, 10), F(-1, 10)]))
        # Non-cyclic: ternary contents, and q1's connection has three members.
        shifted = {(v, (v + 1) % 3): F(1, 3) for v in range(3)}
        self.ternary_system = validate_system(
            {"q1": 3, "q2": 3},
            {"c1": ["q1", "q2"], "c2": ["q2", "q1"], "c3": ["q1"]},
            {"c1": shifted, "c2": shifted, "c3": {(0,): F(1, 2), (2,): F(1, 2)}},
        )
        self.ternary = analyze(self.ternary_system)

    def assertAccepted(self, answer, **kwargs):
        doc, report, code = answer
        self.assertEqual(check_answer(doc, report, code, measure=True, **kwargs), [])

    def assertRejected(self, answer, **kwargs):
        doc, report, code = answer
        self.assertNotEqual(check_answer(doc, report, code, measure=True, **kwargs), [])

    def test_program_answers_are_accepted(self):
        self.assertAccepted(self.contextual)
        self.assertAccepted(self.noncontextual, rank2_p=F(1, 2))
        self.assertAccepted(self.cycle)
        self.assertAccepted(self.ternary)
        self.assertAccepted(analyze(rank2_family(F(1, 8))), rank2_p=F(1, 8))

    def test_moved_coupling_mass_is_rejected(self):
        doc, report, code = copy.deepcopy(self.noncontextual)
        masses = report["verdict"]["witness"]["masses"]
        moved = masses[0][0][:-1] + [1 - masses[0][0][-1]]
        self.assertNotIn(moved, [m[0] for m in masses])
        masses[0][0] = moved
        self.assertRejected((doc, report, code))

    def test_moved_quasi_coupling_mass_is_rejected(self):
        doc, report, code = copy.deepcopy(self.contextual)
        witness = report["measure"]["witness"]
        witness[0][0] = [1 - v for v in witness[0][0]]
        self.assertRejected((doc, report, code))

    def test_certificate_with_a_flipped_sign_is_rejected(self):
        # Some flips leave a valid certificate (an entry on a row with zero
        # right-hand side, say).  The program's own matrix decides which.
        for (doc, report, code), system in ((self.contextual, self.fig10), (self.ternary, self.ternary_system)):
            linear = build_associated_system(system)
            certificate = [F(y) for y in report["verdict"]["witness"]["certificate"]]
            broken = 0
            for i, entry in enumerate(certificate):
                if not entry:
                    continue
                flipped = certificate[:i] + [-entry] + certificate[i + 1:]
                valid = all(
                    sum(y * row[j] for y, row in zip(flipped, linear.matrix)) <= 0
                    for j in range(linear.cols)
                ) and sum(y * b for y, b in zip(flipped, linear.rhs)) > 0
                broken += not valid
                corrupted = copy.deepcopy(report)
                corrupted["verdict"]["witness"]["certificate"] = [str(y) for y in flipped]
                with self.subTest(entry=i):
                    self.assertEqual(check_answer(doc, corrupted, code, measure=True) == [], valid)
            self.assertGreater(broken, 0)

    def test_total_variation_off_by_a_small_rational_is_rejected(self):
        for answer in (self.contextual, self.noncontextual, self.cycle, self.ternary):
            doc, report, code = copy.deepcopy(answer)
            tv = F(report["measure"]["total_variation"]) + F(1, 1000)
            report["measure"]["total_variation"] = str(tv)
            report["measure"]["measure"] = str(tv - 1)
            self.assertRejected((doc, report, code))

    def test_wrong_exit_code_is_rejected(self):
        for answer in (self.contextual, self.noncontextual):
            doc, report, code = answer
            self.assertRejected((doc, report, 1 - code))
            self.assertRejected((doc, report, 2))

    def test_flipped_verdict_is_rejected(self):
        doc, report, code = copy.deepcopy(self.cycle)
        report["verdict"]["contextual"] = not report["verdict"]["contextual"]
        self.assertRejected((doc, report, 1 - code))

    def test_rank2_total_variation_formula(self):
        self.assertRejected(self.noncontextual, rank2_p=F(1, 4))

    def test_cyclic_closed_form(self):
        doc, report, _ = self.cycle
        # Products 9/10, 9/10, -1/10; no marginal inconsistency; rank 3.
        self.assertEqual(cyclic_delta(load_system(doc)), (F(19, 10) - 1, 3))
        self.assertEqual(F(report["measure"]["total_variation"]) - 1, F(9, 10) / 4)
        self.assertIsNone(cyclic_delta(load_system(self.ternary[0])))

    def test_s_odd_enumerates_odd_sign_vectors(self):
        self.assertEqual(s_odd([F(5), F(6)]), 1)
        self.assertEqual(s_odd([F(5), F(-6)]), 11)
        self.assertEqual(s_odd([F(1), F(2), F(-3), F(-10), F(100)]), 114)


if __name__ == "__main__":
    unittest.main()
