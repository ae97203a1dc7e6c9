"""Tests for the common-effect meta-analytic Bayes factor."""

import math

import pytest

from trialbayes.engine import (
    DEFAULT_CAUCHY_SCALE,
    AnalysisConfig,
    StudyRecord,
    TTestSummary,
    analyze_study,
    summarize,
)
from trialbayes.meta import MetaInput, meta_bf
from trialbayes.numerics import DomainError, cauchy_logpdf


def _summary(t, n):
    return TTestSummary(
        t=t, nu_inversion=float(n - 1), nu_bf=float(2 * n - 2), n_eff=n / 2.0
    )


def _dose_summaries(arm):
    table = {
        "low": [(543, 0.09), (547, 0.24)],
        "high": [(547, 0.012), (555, 0.82)],
    }
    return tuple(
        summarize(StudyRecord(trial=str(i), arm=arm, n=n, p_value=p))
        for i, (n, p) in enumerate(table[arm])
    )


class TestMetaBf:
    def test_single_study_degenerates_to_jzs(self):
        for t, n in [(2.52, 547), (0.23, 555), (1.18, 547)]:
            record = StudyRecord(trial="x", arm="y", n=n, t_value=t)
            single = analyze_study(record, AnalysisConfig()).bf10
            pooled = meta_bf(MetaInput(studies=(_summary(t, n),))).bf10
            assert pooled == single

    def test_permutation_invariance(self):
        studies = (_summary(2.52, 547), _summary(0.23, 555), _summary(1.18, 547))
        forward = meta_bf(MetaInput(studies=studies)).bf10
        backward = meta_bf(MetaInput(studies=studies[::-1])).bf10
        assert forward == pytest.approx(backward, rel=1e-10)

    def test_reflection_invariance(self):
        studies = (_summary(2.52, 547), _summary(-1.18, 547))
        flipped = tuple(_summary(-s.t, int(s.n_eff * 2)) for s in studies)
        assert meta_bf(MetaInput(studies=studies)).bf10 == pytest.approx(
            meta_bf(MetaInput(studies=flipped)).bf10, rel=1e-9
        )

    def test_null_study_pulls_toward_h0(self):
        base = (_summary(2.52, 547),)
        with_null = base + (_summary(0.0, 2000),)
        assert (
            meta_bf(MetaInput(studies=with_null)).bf10
            < meta_bf(MetaInput(studies=base)).bf10
        )

    def test_low_dose_pooled_value(self):
        result = meta_bf(MetaInput(studies=_dose_summaries("low")))
        assert result.bf10 == pytest.approx(0.3737065596553931, rel=1e-7)
        assert result.posterior_h1 == pytest.approx(0.2720, abs=5e-4)

    def test_high_dose_pooled_value(self):
        result = meta_bf(MetaInput(studies=_dose_summaries("high")))
        assert result.bf10 == pytest.approx(0.3070090053992236, rel=1e-7)
        assert result.posterior_h1 == pytest.approx(0.2349, abs=5e-4)

    def test_result_identities(self):
        result = meta_bf(MetaInput(studies=_dose_summaries("high")), prior_h1=0.5)
        assert result.bf10 * result.bf01 == pytest.approx(1.0, rel=1e-12)
        assert result.posterior_h1 == pytest.approx(
            result.bf10 / (1 + result.bf10), rel=1e-12
        )
        assert 0.0 <= result.quadrature_error < 1e-6 * result.bf10

    def test_laplace_oracle_two_studies(self):
        # shifted-normal collapse of the integrand for large nu:
        # BF10 ~ cauchy(m; r) * sqrt(2 pi / P) * exp(m^2 P / 2)
        studies = (_summary(2.52, 547), _summary(0.2277, 555))
        precision = sum(s.n_eff for s in studies)
        mean = sum(math.sqrt(s.n_eff) * s.t for s in studies) / precision
        approx = (
            math.exp(cauchy_logpdf(mean, DEFAULT_CAUCHY_SCALE))
            * math.sqrt(2 * math.pi / precision)
            * math.exp(0.5 * mean * mean * precision)
        )
        assert meta_bf(MetaInput(studies=studies)).bf10 == pytest.approx(
            approx, rel=0.10
        )

    def test_twenty_strong_studies_stay_finite(self):
        # t = 8 +- 0.25 at n = 10000 per arm: the pooled BF10 is near e^633,
        # beyond what a sum of exponentiated integrand values can hold
        studies = tuple(
            _summary(round(8.0 + 0.25 * (2 * i / 19 - 1), 4), 10000) for i in range(20)
        )
        result = meta_bf(MetaInput(studies=studies))
        assert math.isfinite(result.bf10)
        assert result.bf10 * result.bf01 == pytest.approx(1.0, rel=1e-12)
        assert result.posterior_h1 == 1.0
        # perfbench/oracle.py meta_ln_bf10 on these 20 (t, 19998, 5000)
        # summaries (scipy 1.17.1, numpy 2.4.6)
        assert math.log(result.bf10) == pytest.approx(633.3320327106042, abs=1e-7)

    def test_input_validation(self):
        with pytest.raises(DomainError):
            MetaInput(studies=())
        with pytest.raises(DomainError):
            MetaInput(studies=(_summary(1.0, 100),), r=0.0)

    def test_deterministic(self):
        data = MetaInput(studies=_dose_summaries("low"))
        assert meta_bf(data).bf10 == meta_bf(data).bf10
