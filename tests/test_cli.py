import io
import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from contextuality import (
    canonical_example,
    parse_system,
    rank2_family,
    serialize_system,
    validate_system,
)
from contextuality.cli import _json_text, _read_input, _write_output, build_parser, main
from conftest import moved_on

F = Fraction
HALF = F(1, 2)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, name, system):
    path = tmp_path / name
    path.write_text(serialize_system(system))
    return str(path)


@pytest.fixture
def rank2_file(tmp_path):
    return write_system(tmp_path, "rank2.json", canonical_example("fig9"))


@pytest.fixture
def rank3_file(tmp_path):
    return write_system(tmp_path, "rank3.json", canonical_example("szlg"))


class TestAnalyze:
    def test_contextual_exit_code_and_witness(self, capsys, rank2_file):
        code, out, _ = run(capsys, "analyze", rank2_file, "--witness")
        assert code == 1
        assert "verdict: contextual" in out
        assert "certificate" in out

    def test_measure_values(self, capsys, rank2_file):
        code, out, _ = run(capsys, "analyze", rank2_file, "--measure")
        assert code == 1
        assert "total variation: 2" in out
        assert "measure: 1" in out

    def test_noncontextual_exit_zero_with_tv_one(self, capsys, tmp_path):
        path = write_system(tmp_path, "flat.json", rank2_family(F(1, 2)))
        code, out, _ = run(capsys, "analyze", path, "--measure")
        assert code == 0
        assert "verdict: noncontextual" in out
        assert "total variation: 1" in out

    @pytest.mark.parametrize(
        "contexts, bunches, note, coupling",
        [
            (
                # q1 and q2 share c1 and q3 is alone in c2: every connection is one variable
                {"c1": ["q1", "q2"], "c2": ["q3"]},
                {"c1": {(0, 0): HALF, (1, 1): HALF}, "c2": {(0,): HALF, (1,): HALF}},
                "no connection links two bunches",
                ["  [0, 0, 1]: 1/2", "  [1, 1, 0]: 1/2"],
            ),
            (
                # q1 alone in both contexts: every bunch is one variable
                {"c1": ["q1"], "c2": ["q1"]},
                {"c1": {(0,): HALF, (1,): HALF}, "c2": {(0,): F(1, 4), (1,): F(3, 4)}},
                "every bunch is a single variable",
                ["  [0, 0]: 1/4", "  [0, 1]: 1/4", "  [1, 1]: 1/2"],
            ),
        ],
        ids=["singleton-connections", "singleton-bunches"],
    )
    def test_text_report_of_a_trivially_noncontextual_shape(
        self, capsys, tmp_path, contexts, bunches, note, coupling
    ):
        contents = {q: 2 for cells in contexts.values() for q in cells}
        path = write_system(tmp_path, "trivial.json", validate_system(contents, contexts, bunches))
        code, out, err = run(capsys, "analyze", path, "--witness", "--measure")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert f"note: trivially noncontextual shape ({note})" in lines
        start = lines.index("verdict: noncontextual")
        assert lines[start:] == [
            "verdict: noncontextual",
            "witness (coupling):",
            *coupling,
            "total variation: 1  measure: 0",
            "quasi-coupling masses:",
            *coupling,
        ]

    def test_json_report_is_schema_stable(self, capsys, rank2_file):
        code, out, _ = run(
            capsys, "analyze", rank2_file, "--measure", "--witness", "--format", "json"
        )
        assert code == 1
        report = json.loads(out)
        assert set(report) == {"system", "verdict", "cyclic", "measure"}
        assert report["verdict"]["contextual"] is True
        assert report["cyclic"]["cycles"][0]["delta"] == "2"
        assert report["measure"]["total_variation"] == "2"
        assert report["verdict"]["witness"]["kind"] == "certificate"

    def test_json_exit_code_never_disagrees_with_report(self, capsys, tmp_path):
        for system, expected in (
            (canonical_example("fig9"), 1),
            (rank2_family(F(1, 2)), 0),
        ):
            path = write_system(tmp_path, "case.json", system)
            code, out, _ = run(capsys, "analyze", path, "--format", "json")
            report = json.loads(out)
            assert code == expected
            assert report["verdict"]["contextual"] == (expected == 1)
            assert set(report) == {"system", "verdict", "cyclic", "measure"}
            assert report["measure"] is None

    def test_same_input_gives_the_same_bytes(self, capsys, rank2_file):
        for fmt in ("json", "text"):
            argv = ("analyze", rank2_file, "--measure", "--witness", "--format", fmt)
            outputs = [run(capsys, *argv)[1] for _ in range(2)]
            assert outputs[0] == outputs[1]

    def test_the_parser_is_built_once(self):
        assert build_parser() is build_parser()

    def test_a_shared_parser_carries_no_option_into_the_next_call(self, capsys, rank2_file):
        run(capsys, "analyze", rank2_file, "--measure", "--witness", "--format", "json")
        code, out, _ = run(capsys, "analyze", rank2_file, "--format", "json")
        report = json.loads(out)
        assert code == 1
        assert report["measure"] is None
        assert "witness" not in report["verdict"]

    def test_stdin_input(self, capsys, monkeypatch):
        text = serialize_system(canonical_example("fig9"))
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        code, out, _ = run(capsys, "analyze", "-")
        assert code == 1

    def test_non_utf8_stdin_exit_two_like_the_file(self, capsys, monkeypatch, tmp_path):
        # a C locale gives stdin the surrogateescape handler, which would let
        # the byte through as text; the bytes must be decoded as a file's are
        data = b'{"contents": "\xff"}'
        bad = tmp_path / "bad.json"
        bad.write_bytes(data)
        file_code, _, file_err = run(capsys, "analyze", str(bad))
        stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", errors="surrogateescape")
        monkeypatch.setattr("sys.stdin", stdin)
        code, _, err = run(capsys, "analyze", "-")
        assert code == file_code == 2
        assert err == file_err
        assert err.startswith("error: byte 14: not utf-8")

    @pytest.mark.parametrize(
        "system, contextual",
        [(canonical_example("fig9"), True), (rank2_family(F(1, 2)), False)],
    )
    def test_measure_builds_once_and_minimizes_only_when_contextual(
        self, capsys, monkeypatch, tmp_path, system, contextual
    ):
        from contextuality import analysis

        calls = {"build_associated_system": 0, "minimize": 0}
        for name in calls:
            original = getattr(analysis, name)

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(analysis, name, counted)
        path = write_system(tmp_path, "case.json", system)
        code, out, _ = run(
            capsys, "analyze", path, "--measure", "--witness", "--format", "json"
        )
        assert code == int(contextual)
        assert calls == {"build_associated_system": 1, "minimize": int(contextual)}
        report = json.loads(out)
        if contextual:
            certificate = report["verdict"]["witness"]["certificate"]
            assert len(report["measure"]["dual"]) == len(certificate)
        else:
            assert report["measure"]["witness"] == report["verdict"]["witness"]["masses"]
            assert "dual" not in report["measure"]

    @pytest.mark.parametrize("measure", [False, True])
    @pytest.mark.parametrize(
        "system", [canonical_example("fig9"), rank2_family(F(1, 2))], ids=["certificate", "coupling"]
    )
    def test_a_witness_failing_substitution_exits_two(
        self, capsys, monkeypatch, tmp_path, system, measure
    ):
        from contextuality import analysis
        from contextuality.simplex import FeasibilityResult, solve_feasibility

        def corrupted(linear):
            result = solve_feasibility(linear)
            if result.feasible:
                support, values = moved_on(result.support, result.solution)
                return FeasibilityResult(result.status, values, None, result.pivots, support)
            certificate = tuple(-y for y in result.certificate)
            return FeasibilityResult(result.status, None, certificate, result.pivots)

        monkeypatch.setattr(analysis, "solve_feasibility", corrupted)
        path = write_system(tmp_path, "case.json", system)
        flags = ["--measure"] if measure else []
        code, out, err = run(capsys, "analyze", path, *flags, "--witness", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: internal inconsistency") and "witness fails substitution" in err

    @pytest.mark.parametrize("name", ["fig9", "fig10"])
    def test_a_measure_vertex_failing_substitution_exits_two(
        self, capsys, monkeypatch, tmp_path, name
    ):
        import dataclasses

        from contextuality import analysis

        solve = analysis.minimize

        def corrupted(*args):
            result = solve(*args)
            support, values = moved_on(result.support, result.solution)
            return dataclasses.replace(result, support=support, solution=values)

        monkeypatch.setattr(analysis, "minimize", corrupted)
        path = write_system(tmp_path, "case.json", canonical_example(name))
        code, out, err = run(capsys, "analyze", path, "--measure", "--witness", "--format", "json")
        assert code == 2
        assert out == ""
        assert err.startswith("error: internal inconsistency") and "witness fails substitution" in err

    def test_column_cap_is_an_error(self, capsys, rank3_file):
        code, _, err = run(capsys, "analyze", rank3_file, "--max-columns", "4")
        assert code == 2
        assert "columns" in err
        # the message names the flag, not only the Python parameter
        assert "--max-columns" in err

    def test_out_of_memory_exits_two_not_contextual(self, capsys, monkeypatch, rank2_file):
        from contextuality import cli

        def exhausted(*args, **kwargs):
            raise MemoryError

        monkeypatch.setattr(cli, "decide_contextuality", exhausted)
        code, out, err = run(capsys, "analyze", rank2_file)
        assert code == 2
        assert out == "" and err == "error: out of memory\n"

    def test_parse_error_exit_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert "error" in err

    def test_missing_file_exit_two(self, capsys):
        code, _, err = run(capsys, "analyze", "/nonexistent/system.json")
        assert code == 2

    def test_non_utf8_file_exit_two_at_its_byte_offset(self, capsys, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"contents": "\xe9"}')
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert err.startswith("error: byte 14: not utf-8")

    @pytest.mark.parametrize(
        "old, new, layer",
        [
            # json.loads raises a plain ValueError on an integer over the interpreter's digit limit
            ('"schema_version": 1', '"schema_version": 1' + "0" * 4999, "document"),
            # a sum of 10**4300 is past the limit of str(), which the mass-sum message formats
            ('"mass": "1/2"', '"mass": "1e4300"', "bunches"),
            # and so is a sum with a denominator of 10**4300
            ('"mass": "1/2"', '"mass": "1e-4300"', "bunches"),
        ],
        ids=["5000-digit-integer", "mass-1e4300", "mass-1e-4300"],
    )
    def test_a_value_error_exits_two(self, capsys, tmp_path, old, new, layer):
        text = serialize_system(canonical_example("fig9"))
        bad = tmp_path / "bad.json"
        bad.write_text(text.replace(old, new, 1))
        code, out, err = run(capsys, "analyze", str(bad))
        assert code == 2
        assert out == "" and err.startswith(f"error: {layer}: ")

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_read_as_lf(self, capsys, tmp_path, newline):
        text = serialize_system(canonical_example("fig10"))
        lf, other = tmp_path / "lf.json", tmp_path / "other.json"
        lf.write_bytes(text.encode())
        other.write_bytes(text.replace("\n", newline).encode())
        assert _read_input(str(other)) == _read_input(str(lf)) == text
        for fmt in ("json", "text"):
            flags = ("--measure", "--witness", "--format", fmt)
            assert run(capsys, "analyze", str(other), *flags) == run(capsys, "analyze", str(lf), *flags)

    def test_too_deeply_nested_json_exit_two(self, capsys, tmp_path):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        code, _, err = run(capsys, "analyze", str(deep))
        assert code == 2
        assert err.startswith("error: document: nested too deeply")


class TestCyclic:
    def test_rank2_report(self, capsys, rank2_file):
        code, out, _ = run(capsys, "cyclic", rank2_file)
        assert code == 1
        assert "cycle rank 2" in out
        assert "delta = 2" in out

    def test_rank3_report(self, capsys, rank3_file):
        code, out, _ = run(capsys, "cyclic", rank3_file, "--format", "json")
        assert code == 1
        report = json.loads(out)
        (cycle,) = report["cyclic"]["cycles"]
        assert cycle["rank"] == 3
        assert cycle["contextual"] is True

    def test_not_cyclic_reports_reason(self, capsys, tmp_path):
        s = validate_system(
            {"q1": 2, "q2": 2, "q3": 2},
            {"c1": ["q1", "q2", "q3"], "c2": ["q1", "q2"], "c3": ["q2", "q3"]},
            {
                "c1": {(0, 0, 0): F(1, 2), (1, 1, 1): F(1, 2)},
                "c2": {(0, 0): F(1, 2), (1, 1): F(1, 2)},
                "c3": {(0, 0): F(1, 2), (1, 1): F(1, 2)},
            },
        )
        path = write_system(tmp_path, "noncyclic.json", s)
        code, out, _ = run(capsys, "cyclic", path)
        assert code == 2
        assert "CYC1" in out


class TestEstimate:
    LAYOUT = json.dumps(
        {
            "contents": [
                {"label": "q1", "values": ["v1", "v2"]},
                {"label": "q2", "values": ["v1", "v2"]},
                {"label": "q3", "values": ["v1", "v2"]},
            ],
            "contexts": [
                {"label": "c1", "contents": ["q1", "q2"]},
                {"label": "c2", "contents": ["q2", "q3"]},
                {"label": "c3", "contents": ["q1", "q3"]},
            ],
        }
    )

    def counts_csv(self):
        rows = ["context,q1,q2,q3"]
        for _ in range(7):
            rows.append("c1,v1,v1,")
            rows.append("c2,,v1,v1")
        for _ in range(3):
            rows.append("c1,v2,v2,")
            rows.append("c2,,v2,v2")
        rows += ["c3,v1,,v1"] * 4 + ["c3,v1,,v2"] * 3 + ["c3,v2,,v1"] * 3
        return "\n".join(rows) + "\n"

    def test_estimate_writes_system(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text(self.counts_csv())
        layout = tmp_path / "layout.json"
        layout.write_text(self.LAYOUT)
        out_path = tmp_path / "estimated.json"
        code, _, _ = run(
            capsys, "estimate", str(trials), "--layout", str(layout), "-o", str(out_path)
        )
        assert code == 0
        estimated = parse_system(out_path.read_text())
        assert estimated.bunches["c3"].mass((0, 0)) == F(2, 5)
        # the estimated system has the canonical contextual pattern
        code, _, _ = run(capsys, "analyze", str(out_path))
        assert code == 1

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_cr_line_ends_estimate_as_lf(self, capsys, tmp_path, newline):
        outputs = []
        for name, end in (("lf", "\n"), ("other", newline)):
            trials = tmp_path / f"{name}.csv"
            trials.write_bytes(self.counts_csv().replace("\n", end).encode())
            layout = tmp_path / f"{name}-layout.json"
            layout.write_bytes(json.dumps(json.loads(self.LAYOUT), indent=2).replace("\n", end).encode())
            outputs.append(run(capsys, "estimate", str(trials), "--layout", str(layout)))
        assert outputs[0][0] == 0
        assert outputs[0] == outputs[1]

    def test_empty_context_is_exit_two(self, capsys, tmp_path):
        trials = tmp_path / "trials.csv"
        trials.write_text("context,q1,q2,q3\nc1,v1,v1,\n")
        layout = tmp_path / "layout.json"
        layout.write_text(self.LAYOUT)
        code, _, err = run(capsys, "estimate", str(trials), "--layout", str(layout))
        assert code == 2
        assert "c2" in err

    def test_oversized_csv_field_exit_two(self, capsys, tmp_path):
        # the csv module refuses fields over 131,072 characters
        trials = tmp_path / "trials.csv"
        trials.write_text("context,q1,q2,q3\nc1," + "v" * 200_000 + ",v1,\n")
        layout = tmp_path / "layout.json"
        layout.write_text(self.LAYOUT)
        code, _, err = run(capsys, "estimate", str(trials), "--layout", str(layout))
        assert code == 2
        assert err.startswith("error: line 2: field larger than field limit")


class TestGenerate:
    def test_examples_match_library(self, capsys, tmp_path):
        for name in ("fig1", "fig9", "fig10", "szlg"):
            code, out, _ = run(capsys, "generate", "example", "--name", name)
            assert code == 0
            assert parse_system(out) == canonical_example(name)

    def test_example_to_file_then_analyze(self, capsys, tmp_path):
        target = tmp_path / "example.json"
        code, _, _ = run(capsys, "generate", "example", "--name", "fig9", "-o", str(target))
        assert code == 0
        code, _, _ = run(capsys, "analyze", str(target))
        assert code == 1

    def test_file_and_stdout_get_the_same_text_ending_in_one_newline(self, capsys, tmp_path):
        target = tmp_path / "example.json"
        run(capsys, "generate", "example", "--name", "fig9", "-o", str(target))
        _, out, _ = run(capsys, "generate", "example", "--name", "fig9")
        assert target.read_text(encoding="utf-8") == out
        assert out.endswith("}\n")
        for path in ("-", str(target)):
            _write_output(path, "ends in a newline\n")
        assert capsys.readouterr().out == target.read_text(encoding="utf-8") == "ends in a newline\n"

    def test_epr_b_pipeline(self, capsys):
        angles = f"0,{math.pi/4},{math.pi/2},{-math.pi/4}"
        code, out, err = run(
            capsys, "generate", "epr-b", "--angles", angles, "--denominator-bound", "1000000"
        )
        assert code == 0
        assert "approximation" in err
        system = parse_system(out)
        from contextuality import detect_cycles, evaluate_criterion

        report = evaluate_criterion(detect_cycles(system)[0], system)
        assert abs(float(report.lhs) - 2 * math.sqrt(2)) < 1e-5

    def test_equal_angles_noncontextual_via_cli(self, capsys, tmp_path):
        target = tmp_path / "flat.json"
        code, _, _ = run(
            capsys, "generate", "epr-b", "--angles", "1,1,1,1", "-o", str(target)
        )
        assert code == 0
        code, _, _ = run(capsys, "analyze", str(target))
        assert code == 0

    def test_malformed_angle_is_exit_two(self, capsys):
        code, out, err = run(capsys, "generate", "epr-b", "--angles", "0,x,1,2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "'x'" in err
        assert "Traceback" not in err


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    | st.lists(st.integers(), max_size=4),
    max_leaves=25,
)


@given(json_values)
@example(["\u00e9t\u00e9 \u03c0 \U0001f600", "quote \" and backslash \\", "\x00\x1f\t\n\r\x7f"])
@example({"": [], "empty": {}, "nested": [[], {}, [[]]]})
@example([1, True])
@example([True, 1, False, None, 0, -1])
@example({"masses": [[[0, 1, 2], "1/4"], [[10**30, -5], "-3/4"]]})
@settings(max_examples=150, deadline=None)
def test_json_text_is_the_indented_json_dumps(value):
    assert _json_text(value) == json.dumps(value, indent=2)
