import json
import math
import random
from fractions import Fraction

import pytest

from contextuality import (
    canonical_example,
    decide_contextuality,
    detect_cycles,
    dichotomize_matching,
    estimate_system,
    evaluate_criterion,
    generate_epr_b,
    is_consistently_connected,
    parse_layout,
    parse_system,
    parse_trials,
    rank2_family,
    s_odd,
    serialize_system,
)
from contextuality.errors import (
    EmptyContextError,
    SchemaError,
    UnknownLabelError,
    ValidationError,
)
from conftest import random_small_system

F = Fraction
HALF = F(1, 2)

RANK2_DOC = """
{
  "schema_version": 1,
  "contents": [
    {"label": "q1", "values": ["+1", "-1"], "plus": "+1"},
    {"label": "q2", "values": ["+1", "-1"], "plus": "+1"}
  ],
  "contexts": [
    {"label": "c1", "contents": ["q1", "q2"]},
    {"label": "c2", "contents": ["q1", "q2"]}
  ],
  "bunches": {
    "c1": [
      {"value": ["+1", "+1"], "mass": "1/2"},
      {"value": ["-1", "-1"], "mass": "1/2"}
    ],
    "c2": [
      {"value": ["+1", "-1"], "mass": "1/2"},
      {"value": ["-1", "+1"], "mass": "1/2"}
    ]
  }
}
"""


class TestSystemDocuments:
    def test_parse_canonical_document(self):
        s = parse_system(RANK2_DOC)
        assert s == canonical_example("fig9")
        assert len(s.contexts) == 2 and len(s.contents) == 2
        assert s.variable_count == 4

    def test_round_trip_identity(self):
        rng = random.Random(5)
        samples = [
            canonical_example("fig9"),
            canonical_example("fig10"),
            rank2_family(F(1, 8)),
            generate_epr_b([0.0, 0.3, 1.1, -0.4], 100).system,
        ] + [random_small_system(rng) for _ in range(5)]
        for s in samples:
            assert parse_system(serialize_system(s)) == s

    def test_decimal_masses_parse_exactly(self):
        doc = json.loads(RANK2_DOC)
        doc["bunches"]["c1"] = [
            {"value": ["+1", "+1"], "mass": "0.33333"},
            {"value": ["-1", "-1"], "mass": "0.66667"},
        ]
        s = parse_system(json.dumps(doc))
        assert s.bunches["c1"].mass((0, 0)) == F(33333, 100000)

    def test_nonunit_mass_sum_flagged(self):
        doc = json.loads(RANK2_DOC)
        doc["bunches"]["c1"] = [{"value": ["+1", "+1"], "mass": "0.33333"}]
        with pytest.raises(SchemaError):
            parse_system(json.dumps(doc))

    def test_float_masses_rejected(self):
        doc = json.loads(RANK2_DOC)
        doc["bunches"]["c1"][0]["mass"] = 0.5
        with pytest.raises(SchemaError) as err:
            parse_system(json.dumps(doc))
        assert "mass" in str(err.value)

    @pytest.mark.parametrize("version", [True, 1.0, "1", None])
    def test_schema_version_must_be_the_integer_one(self, version):
        doc = json.loads(RANK2_DOC)
        doc["schema_version"] = version
        with pytest.raises(SchemaError) as err:
            parse_system(json.dumps(doc))
        assert err.value.path == "schema_version"

    def test_malformed_json_reports_position(self):
        with pytest.raises(SchemaError) as err:
            parse_system("{not json")
        assert "line" in str(err.value)

    def test_unknown_value_label_located(self):
        doc = json.loads(RANK2_DOC)
        doc["bunches"]["c1"][0]["value"] = ["+1", "maybe"]
        with pytest.raises(SchemaError) as err:
            parse_system(json.dumps(doc))
        assert "bunches" in str(err.value)

    def test_plus_defaults_to_lexicographically_larger_label(self):
        doc = json.loads(RANK2_DOC)
        for entry in doc["contents"]:
            entry.pop("plus")
            entry["values"] = ["down", "up"]
        doc["bunches"] = {
            "c1": [
                {"value": ["down", "down"], "mass": "1/2"},
                {"value": ["up", "up"], "mass": "1/2"},
            ],
            "c2": [
                {"value": ["down", "up"], "mass": "1/2"},
                {"value": ["up", "down"], "mass": "1/2"},
            ],
        }
        s = parse_system(json.dumps(doc))
        assert all(c.values[c.plus_index] == "up" for c in s.contents)

    @pytest.mark.parametrize(
        "fault, kind, path",
        [
            (
                lambda doc: doc["contents"].append(dict(doc["contents"][0])),
                SchemaError,
                "contents[2]",
            ),
            (lambda doc: doc.update(contents=[]), SchemaError, "contents"),
            (
                lambda doc: doc["contents"].append({"label": "q3", "values": ["+1", "-1"]}),
                SchemaError,
                "contents[2]",
            ),
            (
                lambda doc: doc["contexts"][0].update(contents=[]),
                SchemaError,
                "contexts[0].contents",
            ),
            (
                lambda doc: doc["contexts"][1]["contents"].append("zz"),
                UnknownLabelError,
                "contexts[1].contents",
            ),
            (
                lambda doc: doc["contexts"][1].update(contents=["q1", "q1"]),
                SchemaError,
                "contexts[1].contents",
            ),
            (lambda doc: doc["contents"][0].pop("values"), SchemaError, "contents[0]"),
            (lambda doc: doc["contents"][1].update(values=[]), SchemaError, "contents[1]"),
            (
                lambda doc: doc["contents"][0].update(values=["+1", "+1"]),
                SchemaError,
                "contents[0]",
            ),
            (lambda doc: doc["contents"][0].update(plus="0"), SchemaError, "contents[0].plus"),
            (
                lambda doc: doc["contexts"].append(dict(doc["contexts"][0])),
                SchemaError,
                "contexts[2]",
            ),
            (lambda doc: doc.update(contexts={}), SchemaError, "contexts"),
        ],
        ids=[
            "content-twice",
            "no-contents",
            "content-unused",
            "context-empty",
            "content-undeclared",
            "cell-twice",
            "values-missing",
            "values-empty",
            "values-twice",
            "plus-not-a-value",
            "context-twice",
            "contexts-not-a-list",
        ],
    )
    def test_layout_faults_are_located_in_the_layout(self, fault, kind, path):
        doc = json.loads(RANK2_DOC)
        fault(doc)
        for parse in (parse_system, parse_layout):
            with pytest.raises(kind) as err:
                parse(json.dumps(doc))
            assert err.value.path == path

    def test_layout_parses_without_bunches(self):
        doc = json.loads(RANK2_DOC)
        del doc["bunches"]
        contents, contexts = parse_layout(json.dumps(doc))
        assert [c.label for c in contents] == ["q1", "q2"]
        assert contexts == {"c1": ["q1", "q2"], "c2": ["q1", "q2"]}


def edited(fault) -> str:
    """``RANK2_DOC`` with ``fault`` applied to its parsed form, as JSON text."""
    doc = json.loads(RANK2_DOC)
    fault(doc)
    return json.dumps(doc)


def set_value(value):
    return lambda doc: doc["bunches"]["c1"][1].update(value=value)


@pytest.mark.parametrize(
    "parse, text, kind, path",
    [
        (parse_system, edited(set_value(["-1"])), SchemaError, "bunches['c1'][1]"),
        (parse_system, edited(set_value(["+1", "+1"])), SchemaError, "bunches['c1'][1]"),
        (
            parse_system,
            edited(lambda doc: doc["bunches"].update(c9=[])),
            UnknownLabelError,
            "bunches['c9']",
        ),
        (
            parse_system,
            edited(lambda doc: doc["bunches"]["c1"][0].update(mass="half")),
            SchemaError,
            "bunches['c1'][0].mass",
        ),
        (
            parse_system,
            edited(lambda doc: doc["bunches"]["c2"].__setitem__(0, "+1")),
            SchemaError,
            "bunches['c2'][0]",
        ),
        (parse_trials, "", SchemaError, None),
        (parse_trials, "context,q1,\n", SchemaError, "line 1"),
        (parse_trials, "context,q1,content:q1\n", SchemaError, "line 1"),
        (parse_trials, "context,q1,q2\nc1,Yes,Yes\nc1,Yes\n", SchemaError, "line 3"),
        # a blank row is skipped but still counted
        (parse_trials, "context,q1,q2\n\nc1, ,\n", SchemaError, "line 3"),
    ],
    ids=[
        "value-arity",
        "value-twice",
        "bunch-undeclared-context",
        "mass-not-a-number",
        "bunch-entry-not-an-object",
        "trials-empty",
        "trials-column-unnamed",
        "trials-column-twice",
        "trials-field-count",
        "trials-row-observes-nothing",
    ],
)
def test_document_faults_name_their_class_and_path(parse, text, kind, path):
    with pytest.raises(SchemaError) as err:
        parse(text)
    assert type(err.value) is kind
    assert err.value.path == path


def test_blank_trial_rows_are_skipped():
    rows = parse_trials("context,q1,q2\n\nc1,Yes,No\n , ,\n\nc2,No,Yes\n")
    assert rows == [("c1", {"q1": "Yes", "q2": "No"}), ("c2", {"q1": "No", "q2": "Yes"})]


TRIALS_CSV = """context,q1,q2
c1,Yes,Yes
c1,Yes,Yes
c1,Yes,Yes
c1,No,No
c1,No,No
c1,No,No
c1,No,No
c1,No,No
c1,No,No
c1,No,No
c2,Yes,No
c2,No,Yes
"""


def yesno_layout():
    return parse_layout(
        json.dumps(
            {
                "contents": [
                    {"label": "q1", "values": ["No", "Yes"]},
                    {"label": "q2", "values": ["No", "Yes"]},
                ],
                "contexts": [
                    {"label": "c1", "contents": ["q1", "q2"]},
                    {"label": "c2", "contents": ["q1", "q2"]},
                ],
            }
        )
    )


class TestEstimation:
    def test_counting_gives_exact_fractions(self):
        contents, contexts = yesno_layout()
        s = estimate_system(parse_trials(TRIALS_CSV), contents, contexts)
        yes = s.content("q1").value_index("Yes")
        no = 1 - yes
        assert s.bunches["c1"].mass((yes, yes)) == F(3, 10)
        assert s.bunches["c1"].mass((no, no)) == F(7, 10)
        assert s.bunches["c2"].mass((yes, no)) == HALF

    def test_constant_answers_give_point_mass(self):
        contents, contexts = yesno_layout()
        csv_text = "context,q1,q2\n" + "c1,Yes,Yes\n" * 10 + "c2,Yes,Yes\n"
        s = estimate_system(parse_trials(csv_text), contents, contexts)
        yes = s.content("q1").value_index("Yes")
        assert s.bunches["c1"].masses == {(yes, yes): F(1)}

    def test_third_bunch_counts(self):
        # counts (4,3,3,0)/10 over the four value pairs
        rows = ["context,q1,q3"]
        rows += ["c3,v1,v1"] * 4 + ["c3,v1,v2"] * 3 + ["c3,v2,v1"] * 3
        rows += ["c3,v2,v2"] * 0
        contents, contexts = parse_layout(
            json.dumps(
                {
                    "contents": [
                        {"label": "q1", "values": ["v1", "v2"]},
                        {"label": "q3", "values": ["v1", "v2"]},
                    ],
                    "contexts": [{"label": "c3", "contents": ["q1", "q3"]}],
                }
            )
        )
        s = estimate_system(parse_trials("\n".join(rows) + "\n"), contents, contexts)
        bunch = s.bunches["c3"]
        assert [bunch.mass((a, b)) for a in range(2) for b in range(2)] == [
            F(2, 5),
            F(3, 10),
            F(3, 10),
            0,
        ]

    def test_empty_context_rejected(self):
        contents, contexts = yesno_layout()
        csv_text = "context,q1,q2\nc1,Yes,Yes\n"
        with pytest.raises(EmptyContextError):
            estimate_system(parse_trials(csv_text), contents, contexts)

    def test_unknown_labels_rejected(self):
        contents, contexts = yesno_layout()
        with pytest.raises(UnknownLabelError):
            estimate_system(
                parse_trials("context,q1,q2\nc9,Yes,Yes\nc2,Yes,Yes\n"),
                contents,
                contexts,
            )
        with pytest.raises(UnknownLabelError):
            estimate_system(
                parse_trials("context,q1,q2\nc1,Maybe,Yes\nc2,Yes,Yes\n"),
                contents,
                contexts,
            )

    def test_row_must_cover_exactly_its_cells(self):
        contents, contexts = yesno_layout()
        partial = "context,q1,q2\nc1,Yes,\nc2,Yes,Yes\n"
        with pytest.raises(UnknownLabelError):
            estimate_system(parse_trials(partial), contents, contexts)

    def test_content_prefix_in_header_accepted(self):
        contents, contexts = yesno_layout()
        csv_text = "context,content:q1,content:q2\nc1,Yes,Yes\nc2,No,No\n"
        s = estimate_system(parse_trials(csv_text), contents, contexts)
        assert sum(s.bunches["c1"].masses.values()) == 1

    def test_mass_denominators_divide_trial_counts(self):
        contents, contexts = yesno_layout()
        s = estimate_system(parse_trials(TRIALS_CSV), contents, contexts)
        for context, total in (("c1", 10), ("c2", 2)):
            for mass in s.bunches[context].masses.values():
                assert (mass * total).denominator == 1
            assert sum(s.bunches[context].masses.values()) == 1

    def test_header_must_start_with_context(self):
        with pytest.raises(SchemaError):
            parse_trials("ctx,q1\nc1,Yes\n")


class TestCorrelationEntryPath:
    def test_builds_consistent_uniform_system(self):
        from contextuality import cyclic_system_from_correlations

        s = cyclic_system_from_correlations([F(1, 2), F(-1, 3), F(0)])
        assert is_consistently_connected(s)
        (view,) = detect_cycles(s)
        report = evaluate_criterion(view, s)
        assert report.product_expectations == (F(1, 2), -F(1, 3), F(0))
        assert report.rhs == 1

    def test_bounds_checked(self):
        from contextuality import cyclic_system_from_correlations

        with pytest.raises(ValidationError):
            cyclic_system_from_correlations([F(2), F(0)])
        with pytest.raises(ValidationError):
            cyclic_system_from_correlations([F(1)])


class TestEprB:
    def test_bell_angles_violate_the_criterion(self):
        result = generate_epr_b([0, math.pi / 4, math.pi / 2, -math.pi / 4])
        s = result.system
        (view,) = detect_cycles(s)
        report = evaluate_criterion(view, s)
        assert abs(float(report.lhs) - 2 * math.sqrt(2)) < 1e-5
        assert report.contextual
        assert decide_contextuality(s).contextual
        assert result.max_error < 1e-6

    def test_equal_angles_are_noncontextual(self):
        result = generate_epr_b([0.3, 0.3, 0.3, 0.3])
        s = result.system
        report = evaluate_criterion(detect_cycles(s)[0], s)
        assert report.product_expectations == (-1, -1, -1, -1)
        assert s_odd(report.product_expectations) == 2
        assert not report.contextual
        assert not decide_contextuality(s).contextual

    def test_right_angles_give_zero_correlations(self):
        result = generate_epr_b([0, math.pi / 2, math.pi, 3 * math.pi / 2])
        report = evaluate_criterion(
            detect_cycles(result.system)[0], result.system
        )
        assert report.lhs == 0
        assert not report.contextual

    def test_marginals_exactly_uniform_and_consistent(self):
        result = generate_epr_b([0.1, 0.9, 2.3, -1.2], 50)
        s = result.system
        assert is_consistently_connected(s)
        for context, content in s.cells_in_order():
            assert s.variable_marginal(context, content).mass((0,)) == HALF

    def test_input_validation(self):
        with pytest.raises(ValidationError):
            generate_epr_b([0, 1, 2])
        with pytest.raises(ValidationError):
            generate_epr_b([0, 1, 2, float("nan")])
        with pytest.raises(ValidationError):
            generate_epr_b([0, 1, 2, 3], denominator_bound=0)


class TestDichotomization:
    def test_constant_plus_answers(self):
        trials = [[(2.0, 2.0)] * 5 for _ in range(4)]
        s = dichotomize_matching(trials, rad1=1, rad3=1, ang2=1, ang4=1)
        for context in s.contexts:
            assert s.bunches[context].masses == {(0, 0): F(1)}
        assert not decide_contextuality(s).contextual

    def test_threshold_tie_codes_minus(self):
        trials = [[(1.0, 1.0)] for _ in range(4)]
        s = dichotomize_matching(trials, rad1=1, rad3=1, ang2=1, ang4=1)
        for context in s.contexts:
            assert s.bunches[context].masses == {(1, 1): F(1)}

    def test_engineered_counts_reproduce_contextual_pattern(self):
        # three perfectly correlated contexts, one perfectly anticorrelated:
        # the same correlation pattern as the minimal contextual system
        hi, lo = 2.0, 0.0
        correlated = [(hi, hi), (lo, lo)]
        anticorrelated = [(hi, lo), (lo, hi)]
        trials = [correlated, correlated, correlated, anticorrelated]
        s = dichotomize_matching(trials, rad1=1, rad3=1, ang2=1, ang4=1)
        (view,) = detect_cycles(s)
        report = evaluate_criterion(view, s)
        assert report.product_expectations == (1, 1, 1, -1)
        assert report.delta == 2
        assert decide_contextuality(s).contextual

    def test_empty_context_rejected(self):
        with pytest.raises(EmptyContextError):
            dichotomize_matching([[], [(1, 1)], [(1, 1)], [(1, 1)]], 0, 0, 0, 0)

    def test_needs_four_contexts(self):
        with pytest.raises(ValidationError):
            dichotomize_matching([[(1, 1)]], 0, 0, 0, 0)


class TestCanonicalExamples:
    def test_names_and_aliases(self):
        assert canonical_example("fig1") == canonical_example("fig9")
        assert canonical_example("szlg") == canonical_example("fig10")
        with pytest.raises(UnknownLabelError):
            canonical_example("fig99")

    def test_family_endpoints(self):
        assert rank2_family(0) == canonical_example("fig9")
        with pytest.raises(ValidationError):
            rank2_family(F(3, 4))

    def test_family_bunches(self):
        s = rank2_family(F(1, 8))
        assert s.bunches["c2"].mass((0, 0)) == F(1, 8)
        assert s.bunches["c2"].mass((0, 1)) == F(3, 8)
