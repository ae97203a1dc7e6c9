"""Tests for the command-line interface and its exit codes."""

import json

import pytest

from trialbayes import cli
from trialbayes.engine import StudyRecord, analyze_study, t_from_p
from trialbayes.io import load_bundled_dataset, render_dataset
from trialbayes.numerics import NonConvergenceError


@pytest.fixture()
def dataset_csv(tmp_path):
    path = tmp_path / "studies.csv"
    path.write_bytes(render_dataset(load_bundled_dataset(), "csv"))
    return str(path)


class TestBf:
    def test_equal_arms_from_p(self, capsys):
        assert cli.main(["bf", "--n", "547", "--p", "0.012"]) == 0
        out = capsys.readouterr().out
        assert "BF10 = 1.54" in out
        assert "P(H1|data) = 61%" in out
        assert "anecdotal evidence for H1" in out

    def test_from_t(self, capsys):
        assert cli.main(["bf", "--n", "547", "--t", "2.52"]) == 0
        assert "BF10 = 1.54" in capsys.readouterr().out

    def test_json_matches_library(self, capsys):
        assert cli.main(["bf", "--n", "547", "--p", "0.012", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = analyze_study(
            StudyRecord(trial="cli", arm="cli", n=547, p_value=0.012)
        )
        assert payload["bf10"] == direct.bf10
        assert payload["posterior_h1"] == direct.posterior_h1
        assert payload["label"] == str(direct.label)

    def test_unequal_arms(self, capsys):
        assert cli.main(["bf", "--n1", "500", "--n2", "600", "--p", "0.012"]) == 0
        out = capsys.readouterr().out
        assert "nu = 1098" in out

    def test_unequal_arms_json_matches_library(self, capsys):
        argv = ["bf", "--n1", "500", "--n2", "600", "--p", "0.012", "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = analyze_study(
            StudyRecord(trial="cli", arm="cli", n=500, n2=600, p_value=0.012)
        )
        assert payload == {
            "t": direct.summary.t,
            "nu": direct.summary.nu_bf,
            "n_eff": direct.summary.n_eff,
            "bf10": direct.bf10,
            "bf01": direct.bf01,
            "posterior_h1": direct.posterior_h1,
            "label": str(direct.label),
        }
        assert payload["t"] == t_from_p(0.012, 1098.0)

    def test_equal_sizes_through_n1_n2_invert_with_pooled_df(self, capsys):
        assert cli.main(["bf", "--n1", "547", "--n2", "547", "--p", "0.012"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("t = 2.5164  (nu = 1092, N_eff = 273.5)\n")
        assert "BF10 = 1.53" in out

    def test_unequal_arms_near_equal_agrees(self, capsys):
        # with t given directly the two entry points share the whole pipeline
        cli.main(["bf", "--n1", "547", "--n2", "547", "--t", "2.52", "--format", "json"])
        split = json.loads(capsys.readouterr().out)
        cli.main(["bf", "--n", "547", "--t", "2.52", "--format", "json"])
        merged = json.loads(capsys.readouterr().out)
        assert split["nu"] == merged["nu"]
        assert split["n_eff"] == merged["n_eff"]
        assert split["bf10"] == pytest.approx(merged["bf10"], rel=1e-9)

    def test_mutually_exclusive_stats(self, capsys):
        assert cli.main(["bf", "--n", "547", "--p", "0.01", "--t", "2.5"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_missing_stat(self):
        assert cli.main(["bf", "--n", "547"]) == 1

    def test_n1_without_n2(self):
        assert cli.main(["bf", "--n1", "500", "--p", "0.01"]) == 1

    def test_bad_p_value(self, capsys):
        assert cli.main(["bf", "--n", "547", "--p", "1.5"]) == 2
        assert "error" in capsys.readouterr().err

    def test_underflowing_p(self):
        # p/2 rounds to 0: the only p in (0, 1) that cannot be inverted
        assert cli.main(["bf", "--n", "547", "--p", "5e-324"]) == 2

    def test_p_below_machine_epsilon(self, capsys):
        argv = ["bf", "--n", "547", "--p", "1e-20", "--format", "json"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        direct = analyze_study(StudyRecord(trial="cli", arm="cli", n=547, p_value=1e-20))
        assert payload == {
            "t": direct.summary.t,
            "nu": direct.summary.nu_bf,
            "n_eff": direct.summary.n_eff,
            "bf10": direct.bf10,
            "bf01": direct.bf01,
            "posterior_h1": direct.posterior_h1,
            "label": str(direct.label),
        }

    def test_nonconvergence_maps_to_exit_3(self, capsys, monkeypatch):
        def blow_up(*args, **kwargs):
            raise NonConvergenceError("quadrature budget exhausted")

        monkeypatch.setattr(cli, "analyze_study", blow_up)
        assert cli.main(["bf", "--n", "547", "--p", "0.012"]) == 3
        assert "numerical error" in capsys.readouterr().err

    @pytest.mark.parametrize("n, t", [("5000", "40"), ("20000", "60")])
    def test_bf_beyond_a_double_is_numerical_error(self, capsys, n, t):
        # ln BF10 is 737.5 and 1718.6: BF10 itself has no float value
        assert cli.main(["bf", "--n", n, "--t", t]) == 3
        assert "does not fit in a double" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        (["--t", "inf"], "t must be finite"),
        (["--t", "1e400"], "t must be finite"),
        (["--t", "nan"], "t must be finite"),
        (["--t", "2.5", "--scale", "inf"], "cauchy_scale_r must be finite"),
        (["--t", "2.5", "--scale", "nan"], "cauchy_scale_r must be finite"),
    ])
    def test_non_finite_input_is_data_error(self, capsys, flags, field):
        assert cli.main(["bf", "--n", "100", *flags]) == 2
        assert field in capsys.readouterr().err


class TestMeta:
    def test_pooled_group(self, capsys, dataset_csv):
        code = cli.main([
            "meta", "--input", dataset_csv,
            "--group", "high=EMERGE.high,ENGAGE.high",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "high: BF10 = 0.31" in out
        assert "P(H1|data) = 23%" in out

    def test_two_groups_json(self, capsys, dataset_csv):
        code = cli.main([
            "meta", "--input", dataset_csv, "--format", "json",
            "--group", "low=EMERGE.low,ENGAGE.low",
            "--group", "high=EMERGE.high,ENGAGE.high",
        ])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert [g["group"] for g in payload] == ["low", "high"]
        assert payload[0]["bf10"] == pytest.approx(0.37371, abs=1e-5)
        assert payload[1]["bf10"] == pytest.approx(0.30701, abs=1e-5)

    def test_requires_group(self, dataset_csv):
        assert cli.main(["meta", "--input", dataset_csv]) == 1

    def test_bad_group_spec(self, dataset_csv):
        assert cli.main(["meta", "--input", dataset_csv, "--group", "nodots"]) == 1
        assert cli.main(["meta", "--input", dataset_csv,
                         "--group", "x=EMERGE-high"]) == 1

    @pytest.mark.parametrize("groups, message", [
        (["a=EMERGE.low,ENGAGE.low", "a=EMERGE.high"], "more than once"),
        (["a=,"], "no members"),
    ])
    def test_repeated_or_empty_group_is_usage_error(self, capsys, dataset_csv,
                                                    groups, message):
        flags = [arg for group in groups for arg in ("--group", group)]
        assert cli.main(["meta", "--input", dataset_csv, *flags]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["report", "--input", dataset_csv, *flags]) == 1
        assert message in capsys.readouterr().err
        assert cli.main(["report", *flags]) == 1
        assert message in capsys.readouterr().err

    def test_non_finite_t_in_dataset_is_data_error(self, capsys, tmp_path):
        path = tmp_path / "inf.csv"
        path.write_text("trial,arm,n,p,t,design\nA,b,50,,1e400,two_sample\n")
        assert cli.main(["meta", "--input", str(path), "--group", "x=A.b"]) == 2
        assert "row 2" in capsys.readouterr().err

    def test_members_printed_as_trial_dot_arm(self, capsys, dataset_csv):
        argv = ["meta", "--input", dataset_csv, "--format", "json",
                "--group", "high= EMERGE.high ,ENGAGE.high,"]
        assert cli.main(argv) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["members"] == ["EMERGE.high", "ENGAGE.high"]

    def test_same_pooled_values_as_report(self, capsys, dataset_csv, tmp_path):
        groups = ["--group", "low=EMERGE.low,ENGAGE.low",
                  "--group", "high=EMERGE.high,ENGAGE.high"]
        assert cli.main(["meta", "--input", dataset_csv, "--format", "json",
                         *groups]) == 0
        pooled = json.loads(capsys.readouterr().out)
        out = tmp_path / "report.json"
        assert cli.main(["report", "--input", dataset_csv, "--out", str(out),
                         *groups]) == 0
        report = json.loads(out.read_bytes())["meta"]
        assert [(g["group"], g["members"], g["bf10"], g["posterior_h1"])
                for g in pooled] == [
            (g["group"], g["members"], g["bf10"], g["posterior_h1"]) for g in report
        ]

    def test_missing_member(self, dataset_csv):
        assert cli.main(["meta", "--input", dataset_csv,
                         "--group", "x=EMERGE.mid"]) == 2

    def test_missing_file(self, tmp_path):
        missing = str(tmp_path / "nope.csv")
        assert cli.main(["meta", "--input", missing, "--group", "x=A.b"]) == 2

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("wrong,header\n1,2\n")
        assert cli.main(["meta", "--input", str(bad), "--group", "x=A.b"]) == 2

    @pytest.mark.parametrize("name, content", [
        ("latin1.csv", b"trial,arm,n,p,t,design\nZ\xfcrich,low,50,0.2,,two_sample\n"),
        ("dict.json", b'{"records": {"a": 1}}'),
        ("no_arm.json", b'{"records": [{"trial": "A", "n": 10, "p": 0.05}]}'),
    ])
    def test_unreadable_dataset_is_data_error(self, tmp_path, capsys, name, content):
        bad = tmp_path / name
        bad.write_bytes(content)
        assert cli.main(["meta", "--input", str(bad), "--group", "x=A.b"]) == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestReport:
    def test_default_bundled_run(self, capsys, tmp_path):
        out_json = tmp_path / "report.json"
        plots = tmp_path / "plots"
        code = cli.main([
            "report", "--out", str(out_json), "--plots", str(plots),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "EMERGE" in table and "meta-analysis" in table

        payload = json.loads(out_json.read_bytes())
        assert list(payload) == ["config", "studies", "meta", "version"]
        assert {s["trial"] for s in payload["studies"]} == {"EMERGE", "ENGAGE"}
        assert [m["group"] for m in payload["meta"]] == ["low", "high"]

        for name in ("bayes_factors.svg", "posteriors.svg"):
            body = (plots / name).read_text()
            assert body.startswith("<?xml")
            assert "<svg" in body

    def test_custom_input_and_groups(self, capsys, dataset_csv, tmp_path):
        code = cli.main([
            "report", "--input", dataset_csv,
            "--group", "all=EMERGE.low,EMERGE.high,ENGAGE.low,ENGAGE.high",
        ])
        assert code == 0
        assert "all" in capsys.readouterr().out

    def test_table_only(self, capsys):
        assert cli.main(["report"]) == 0
        assert "BF10" in capsys.readouterr().out

    def test_bad_group_member_is_usage_error(self, capsys):
        assert cli.main(["report", "--group", "x=EMERGE-high"]) == 1
        assert "usage error" in capsys.readouterr().err

    def test_unwritable_out(self, tmp_path, capsys):
        target = str(tmp_path / "no" / "such" / "dir" / "r.json")
        assert cli.main(["report", "--out", target]) == 2


class TestClassify:
    def test_labels(self, capsys):
        assert cli.main(["classify", "--bf", "1.54"]) == 0
        assert capsys.readouterr().out.strip() == "anecdotal evidence for H1"
        assert cli.main(["classify", "--bf", "0.07"]) == 0
        assert capsys.readouterr().out.strip() == "strong evidence for H0"

    def test_invalid_bf(self):
        assert cli.main(["classify", "--bf", "0"]) == 2
        assert cli.main(["classify", "--bf", "-1"]) == 2


class TestParser:
    def test_no_command(self):
        assert cli.main([]) == 1

    def test_unknown_command(self):
        assert cli.main(["frobnicate"]) == 1

    def test_unknown_flag(self):
        assert cli.main(["bf", "--n", "10", "--p", "0.05", "--bogus"]) == 1
