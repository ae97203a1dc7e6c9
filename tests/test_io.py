"""Tests for dataset parsing, report rendering and SVG chart output."""

import hashlib
import json
import re
import xml.etree.ElementTree as ET

import pytest

import trialbayes.io
from trialbayes.engine import (
    AnalysisConfig,
    InternalConsistencyError,
    StudyRecord,
    analyze_study,
)
from trialbayes.io import (
    ADUCANUMAB_META_GROUPS,
    Dataset,
    DatasetError,
    emit_charts,
    load_bundled_dataset,
    parse_dataset,
    render_dataset,
    render_report,
    run_reanalysis,
)
from trialbayes.numerics import DomainError, NonConvergenceError

GOOD_CSV = (
    "trial,arm,n,p,t,design\n"
    "EMERGE,low,543,0.09,,two_sample\n"
    "EMERGE,high,547,0.012,,two_sample\n"
)


@pytest.fixture(scope="module")
def full_report():
    return run_reanalysis(
        load_bundled_dataset(), AnalysisConfig(), ADUCANUMAB_META_GROUPS
    )


class TestParseDataset:
    def test_bundled_dataset(self):
        ds = load_bundled_dataset()
        assert ds.name == "aducanumab"
        assert [(r.trial, r.arm, r.n, r.p_value) for r in ds.records] == [
            ("EMERGE", "low", 543, 0.09),
            ("EMERGE", "high", 547, 0.012),
            ("ENGAGE", "low", 547, 0.24),
            ("ENGAGE", "high", 555, 0.82),
        ]

    def test_csv_happy_path(self):
        ds = parse_dataset(GOOD_CSV, "csv", name="x")
        assert len(ds.records) == 2
        assert ds.find("EMERGE", "high").p_value == 0.012

    def test_p_out_of_range(self):
        bad = GOOD_CSV.replace("0.09", "1.2")
        with pytest.raises(DatasetError, match=r"row 2.*p out of range"):
            parse_dataset(bad, "csv")

    def test_both_p_and_t(self):
        bad = GOOD_CSV.replace(",0.09,,", ",0.09,1.7,")
        with pytest.raises(DatasetError, match="exactly one of p and t"):
            parse_dataset(bad, "csv")

    def test_neither_p_nor_t(self):
        bad = GOOD_CSV.replace(",0.09,,", ",,,")
        with pytest.raises(DatasetError, match="exactly one of p and t"):
            parse_dataset(bad, "csv")

    def test_bad_header(self):
        with pytest.raises(DatasetError, match="header"):
            parse_dataset("a,b,c\n1,2,3\n", "csv")

    def test_bad_n(self):
        with pytest.raises(DatasetError, match="sample size"):
            parse_dataset(GOOD_CSV.replace("543", "many"), "csv")

    def test_unknown_design(self):
        with pytest.raises(DatasetError, match="unknown design"):
            parse_dataset(GOOD_CSV.replace("two_sample\n", "paired\n", 1), "csv")

    def test_duplicate_key(self):
        dup = GOOD_CSV + "EMERGE,low,543,0.09,,two_sample\n"
        with pytest.raises(DatasetError, match="duplicate"):
            parse_dataset(dup, "csv")

    def test_empty(self):
        with pytest.raises(DatasetError):
            parse_dataset("", "csv")
        with pytest.raises(DatasetError):
            parse_dataset("trial,arm,n,p,t,design\n", "csv")

    def test_json_roundtrip(self):
        ds = load_bundled_dataset()
        again = parse_dataset(render_dataset(ds, "json"), "json")
        assert again == ds

    def test_csv_roundtrip(self):
        ds = load_bundled_dataset()
        again = parse_dataset(render_dataset(ds, "csv"), "csv", name=ds.name)
        assert again == ds

    def test_render_rejects_unequal_arms(self):
        # the file formats have no n2 column; dropping it would change the data
        ds = Dataset(name="x", records=(
            StudyRecord(trial="A", arm="b", n=500, n2=600, p_value=0.012),
        ))
        for fmt in ("csv", "json"):
            with pytest.raises(DatasetError, match="n2"):
                render_dataset(ds, fmt)

    def test_json_errors(self):
        with pytest.raises(DatasetError, match="invalid JSON"):
            parse_dataset("not json", "json")
        with pytest.raises(DatasetError, match="records"):
            parse_dataset('{"name": "x"}', "json")
        with pytest.raises(DatasetError, match=r"records\[0\]"):
            parse_dataset('{"records": [{"trial": "a"}]}', "json")

    def test_non_utf8_bytes(self):
        with pytest.raises(DatasetError, match="not UTF-8"):
            parse_dataset(GOOD_CSV.encode("utf-8") + b"\xff\xfe", "csv")

    @pytest.mark.parametrize("records", ['{"a": 1}', "[1]", "null"])
    def test_json_records_not_a_list_of_objects(self, records):
        with pytest.raises(DatasetError, match="array of objects"):
            parse_dataset(f'{{"records": {records}}}', "json")

    @pytest.mark.parametrize("missing", ["trial", "arm"])
    def test_json_record_without_trial_or_arm(self, missing):
        row = {"trial": "A", "arm": "b", "n": 10, "p": 0.05}
        del row[missing]
        with pytest.raises(DatasetError, match=r"records\[0\]: trial and arm"):
            parse_dataset(json.dumps({"records": [row]}), "json")

    @pytest.mark.parametrize("fields, message", [
        ({"p": [0.1]}, "non-numeric"),
        ({"t": {}}, "non-numeric"),
        ({"p": 0.05, "design": 3}, "unknown design"),
    ])
    def test_json_field_of_the_wrong_type(self, fields, message):
        row = {"trial": "A", "arm": "b", "n": 10, **fields}
        with pytest.raises(DatasetError, match=message):
            parse_dataset(json.dumps({"records": [row]}), "json")

    def test_unknown_format(self):
        with pytest.raises(DatasetError):
            parse_dataset(GOOD_CSV, "xml")


class TestRunReanalysis:
    def test_study_results_match_direct_analysis(self, full_report):
        for sr in full_report.studies:
            direct = analyze_study(sr.record, full_report.config)
            assert sr.result.bf10 == direct.bf10

    def test_all_four_studies_and_two_groups(self, full_report):
        assert len(full_report.studies) == 4
        assert [m.group for m in full_report.meta] == ["low", "high"]
        assert full_report.meta[0].members == (("EMERGE", "low"), ("ENGAGE", "low"))

    def test_no_meta_groups(self):
        report = run_reanalysis(load_bundled_dataset(), AnalysisConfig(), None)
        assert report.meta == ()

    def test_string_group_spec(self):
        report = run_reanalysis(
            load_bundled_dataset(),
            AnalysisConfig(),
            {"solo": [("EMERGE", "high")]},
        )
        # a pool of one study is the single-study delta form, bit for bit
        assert report.meta[0].result.bf10 == report.studies[1].result.bf10

    def test_unknown_group_member(self):
        with pytest.raises(DatasetError, match="no record"):
            run_reanalysis(
                load_bundled_dataset(), AnalysisConfig(), {"x": [("EMERGE", "mid")]}
            )

    def test_empty_group(self):
        with pytest.raises(DatasetError, match="empty"):
            run_reanalysis(load_bundled_dataset(), AnalysisConfig(), {"x": []})

    @pytest.mark.parametrize(
        "error", [DomainError, NonConvergenceError, InternalConsistencyError]
    )
    def test_own_errors_name_the_record(self, monkeypatch, error):
        def fail(record, config):
            raise error("no answer")

        monkeypatch.setattr(trialbayes.io, "analyze_study", fail)
        with pytest.raises(error, match="^EMERGE/low: no answer$") as caught:
            run_reanalysis(load_bundled_dataset())
        assert type(caught.value) is error
        assert type(caught.value.__cause__) is error

    def test_other_errors_propagate_unchanged(self, monkeypatch):
        # UnicodeDecodeError's constructor takes five arguments, so
        # re-raising it with one message would raise a TypeError instead
        raised = UnicodeDecodeError("utf-8", b"\xff", 0, 1, "invalid start byte")

        def fail(record, config):
            raise raised

        monkeypatch.setattr(trialbayes.io, "analyze_study", fail)
        with pytest.raises(UnicodeDecodeError) as caught:
            run_reanalysis(load_bundled_dataset())
        assert caught.value is raised
        assert (caught.value.start, caught.value.reason) == (0, "invalid start byte")


class TestRenderReport:
    def test_text_table_content(self, full_report):
        text = render_report(full_report, "text_table").decode("utf-8")
        assert "EMERGE" in text and "ENGAGE" in text
        assert "1.54" in text and "0.28" in text
        assert "61%" in text and "22%" in text
        assert "anecdotal evidence for H1" in text
        assert "27%" in text and "23%" in text  # meta posteriors

    def test_json_structure(self, full_report):
        payload = json.loads(render_report(full_report, "json"))
        assert list(payload) == ["config", "studies", "meta", "version"]
        assert payload["config"]["prior_h1"] == 0.5
        assert len(payload["studies"]) == 4
        assert len(payload["meta"]) == 2

    def test_json_full_precision_and_display_agree(self, full_report):
        payload = json.loads(render_report(full_report, "json"))
        for study, sr in zip(payload["studies"], full_report.studies):
            assert study["bf10"] == sr.result.bf10  # exact, not rounded
            assert study["display"]["bf10"] == f"{sr.result.bf10:.2f}"
            assert (
                study["display"]["posterior_h1"]
                == f"{round(sr.result.posterior_h1 * 100):d}%"
            )
        high = next(m for m in payload["meta"] if m["group"] == "high")
        assert high["members"] == ["EMERGE.high", "ENGAGE.high"]
        assert high["bf10"] == pytest.approx(0.30701, abs=1e-5)

    def test_text_and_json_show_same_numbers(self, full_report):
        text = render_report(full_report, "text_table").decode("utf-8")
        payload = json.loads(render_report(full_report, "json"))
        for study in payload["studies"]:
            assert study["display"]["bf10"] in text
            assert study["display"]["posterior_h1"] in text

    def test_byte_determinism(self):
        ds = load_bundled_dataset()
        a = run_reanalysis(ds, AnalysisConfig(), ADUCANUMAB_META_GROUPS)
        b = run_reanalysis(ds, AnalysisConfig(), ADUCANUMAB_META_GROUPS)
        assert render_report(a, "json") == render_report(b, "json")
        assert render_report(a, "text_table") == render_report(b, "text_table")
        assert emit_charts(a) == emit_charts(b)

    def test_unknown_format(self, full_report):
        with pytest.raises(DatasetError):
            render_report(full_report, "html")


def _bars(svg_bytes):
    root = ET.fromstring(svg_bytes.decode("utf-8"))
    ns = {"svg": "http://www.w3.org/2000/svg"}
    return [r for r in root.iter("{http://www.w3.org/2000/svg}rect")
            if r.get("class") == "bar"]


class TestCharts:
    def test_valid_xml_and_svg_version(self, full_report):
        for svg in emit_charts(full_report):
            root = ET.fromstring(svg.decode("utf-8"))
            assert root.tag.endswith("svg")
            assert root.get("version") == "1.1"

    def test_bf_chart_bars_vs_reference_line(self, full_report):
        bf_svg, _ = emit_charts(full_report)
        bars = _bars(bf_svg)
        assert len(bars) == 4
        line = re.search(
            r'<line class="bf-one"[^>]*y1="([0-9.]+)"', bf_svg.decode("utf-8")
        )
        y_ref = float(line.group(1))
        # SVG y grows downward: a bar top above the BF=1 line means BF10 > 1
        above = [b for b in bars if float(b.get("y")) < y_ref]
        assert len(above) == 1  # only EMERGE high dose crosses BF = 1

    def test_posterior_chart_includes_meta_bars(self, full_report):
        _, post_svg = emit_charts(full_report)
        text = post_svg.decode("utf-8")
        assert len(_bars(post_svg)) == 6  # 4 studies + 2 pooled groups
        assert "meta low" in text and "meta high" in text
        assert "27%" in text and "23%" in text

    def test_posterior_chart_without_meta(self):
        report = run_reanalysis(load_bundled_dataset(), AnalysisConfig(), None)
        _, post_svg = emit_charts(report)
        assert len(_bars(post_svg)) == 4
        assert "meta" not in post_svg.decode("utf-8")

    def test_bundled_chart_bytes(self, full_report):
        # pins both SVGs byte for byte, so a rewrite of the chart code shows
        digests = [hashlib.sha256(svg).hexdigest() for svg in emit_charts(full_report)]
        assert digests == [
            "647edcd69831262b8d668d7ea6ba4961f42a5de9a795b0b2aa3cb86726fcecf4",
            "307ced73f6c11b020eb99f1a9c59c4d79d7888049b296b1d6e39f14000567692",
        ]

    def test_bar_heights_follow_posteriors(self, full_report):
        _, post_svg = emit_charts(full_report)
        heights = [float(b.get("height")) for b in _bars(post_svg)[:4]]
        posteriors = [s.result.posterior_h1 for s in full_report.studies]
        ranked = sorted(range(4), key=lambda i: posteriors[i])
        assert sorted(range(4), key=lambda i: heights[i]) == ranked
