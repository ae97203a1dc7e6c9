"""Tests for the single-study Bayes factor engine."""

import math

import mpmath
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from trialbayes.engine import (
    DEFAULT_CAUCHY_SCALE,
    ONE_SAMPLE,
    TWO_SAMPLE_EQUAL_ARMS,
    AnalysisConfig,
    EvidenceLabel,
    StudyRecord,
    TTestSummary,
    analyze_study,
    classify_evidence,
    jzs_bf_delta_form,
    jzs_bf_g_form,
    posterior_prob,
    summarize,
    t_from_p,
)
from trialbayes.meta import MetaInput
from trialbayes.numerics import DomainError, cauchy_logpdf


def _two_sided_p(t, nu):
    """2 P(T > t) = I_x(nu/2, 1/2) at x = nu / (nu + t^2), in 30-digit mpmath."""
    with mpmath.workdps(30):
        x = mpmath.mpf(nu) / (nu + mpmath.mpf(t) ** 2)
        return float(mpmath.betainc(nu / 2.0, 0.5, 0, x, regularized=True))


def _summary(t, n):
    """Equal-arms two-sample summary for per-arm size n."""
    return TTestSummary(
        t=t, nu_inversion=float(n - 1), nu_bf=float(2 * n - 2), n_eff=n / 2.0
    )


class TestTFromP:
    def test_high_dose_emerge(self):
        assert round(t_from_p(0.012, 546.0), 2) == 2.52

    def test_low_dose_emerge(self):
        assert t_from_p(0.09, 542.0) == pytest.approx(1.6984, abs=1e-4)

    def test_p_recovery_roundtrip(self):
        for nu in [1.0, 10.0, 546.0, 554.0]:
            for p in [0.001, 0.012, 0.09, 0.24, 0.5, 0.82, 0.999]:
                t = t_from_p(p, nu)
                assert _two_sided_p(t, nu) == pytest.approx(p, abs=1e-9)

    def test_one_sided(self):
        t = t_from_p(0.05, 100.0, "one_sided")
        assert 0.5 * _two_sided_p(t, 100.0) == pytest.approx(0.05, abs=1e-12)
        assert t < t_from_p(0.05, 100.0, "two_sided")

    def test_near_one_gives_near_zero(self):
        assert t_from_p(0.9999999, 546.0) == pytest.approx(0.0, abs=1e-5)
        assert t_from_p(0.9999999, 546.0) >= 0.0

    def test_domain_and_overflow(self):
        with pytest.raises(DomainError):
            t_from_p(0.0, 10.0)
        with pytest.raises(DomainError):
            t_from_p(1.0, 10.0)
        # the one p left that cannot invert: its two-sided tail p/2 is 0
        with pytest.raises(DomainError, match="underflows"):
            t_from_p(5e-324, 10.0)
        assert math.isfinite(t_from_p(5e-324, 10.0, "one_sided"))

    @pytest.mark.parametrize("sidedness, share", [("two_sided", 1.0), ("one_sided", 0.5)])
    def test_tiny_p_round_trips(self, sidedness, share):
        # 1 - p/2 (or 1 - p) rounds to 1 at the first p; the tail itself does not
        for p in (2.0 * 2.0**-54, 1e-20, 1e-301):
            t = t_from_p(p, 10.0, sidedness)
            assert math.isfinite(t)
            assert share * _two_sided_p(t, 10.0) == pytest.approx(p, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("nu", [1e4, 4e4, 1e5])
    def test_round_trip_at_large_nu(self, nu):
        # where lgamma(a + 1/2) - lgamma(a) would cancel to ~1e-11
        for p in (0.5, 0.012, 1e-5, 1e-12, 1e-30, 1e-100, 1e-300):
            t = t_from_p(p, nu)
            assert _two_sided_p(t, nu) == pytest.approx(p, rel=1e-12, abs=0.0)

    @given(
        st.floats(1.0, 1e5),
        st.floats(-300.0, 0.0, exclude_max=True),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_and_monotone(self, nu, log10_p, towards_one):
        p = 10.0**log10_p
        larger = 10.0 ** (log10_p * (1.0 - towards_one))
        assume(larger < 1.0)
        t = t_from_p(p, nu)
        assert _two_sided_p(t, nu) == pytest.approx(p, rel=1e-12, abs=0.0)
        assert t_from_p(larger, nu) <= t


class TestSummarize:
    def test_two_sample_high_dose(self):
        record = StudyRecord(trial="EMERGE", arm="high", n=547, p_value=0.012)
        s = summarize(record)
        assert s.nu_inversion == 546.0
        assert s.nu_bf == 1092.0
        assert s.n_eff == 273.5
        assert round(s.t, 2) == 2.52

    def test_two_sample_near_null(self):
        record = StudyRecord(trial="ENGAGE", arm="high", n=555, p_value=0.82)
        s = summarize(record)
        assert round(s.t, 2) == 0.23

    def test_one_sample_minimal(self):
        record = StudyRecord(trial="x", arm="y", n=2, t_value=0.0, design=ONE_SAMPLE)
        s = summarize(record)
        assert s.nu_bf == 1.0
        assert s.n_eff == 2.0
        assert s.t == 0.0

    def test_t_passes_through(self):
        record = StudyRecord(trial="x", arm="y", n=100, t_value=-1.5)
        assert summarize(record).t == -1.5

    def test_unequal_arms(self):
        record = StudyRecord(trial="x", arm="y", n=500, n2=600, p_value=0.012)
        s = summarize(record)
        assert s.nu_inversion == s.nu_bf == 1098.0
        assert s.n_eff == 500 * 600 / 1100
        assert s.t == t_from_p(0.012, 1098.0)

    def test_inversion_df_differs_for_equal_and_unequal_arms(self):
        equal = summarize(StudyRecord(trial="x", arm="y", n=547, p_value=0.012))
        split = summarize(
            StudyRecord(trial="x", arm="y", n=547, n2=547, p_value=0.012)
        )
        assert (equal.nu_bf, equal.n_eff) == (split.nu_bf, split.n_eff)
        assert (equal.nu_inversion, split.nu_inversion) == (546.0, 1092.0)
        assert round(split.t, 4) == 2.5164 and round(equal.t, 4) == 2.5206


class TestStudyRecordValidation:
    def test_requires_exactly_one_statistic(self):
        with pytest.raises(DomainError):
            StudyRecord(trial="x", arm="y", n=10)
        with pytest.raises(DomainError):
            StudyRecord(trial="x", arm="y", n=10, p_value=0.05, t_value=2.0)

    def test_bad_n(self):
        with pytest.raises(DomainError):
            StudyRecord(trial="x", arm="y", n=1, p_value=0.05)

    def test_bad_n2(self):
        for n2 in (1, 0, -5, 2.5):
            with pytest.raises(DomainError, match="n2"):
                StudyRecord(trial="x", arm="y", n=10, n2=n2, p_value=0.05)

    def test_n2_needs_two_samples(self):
        with pytest.raises(DomainError, match="two-sample"):
            StudyRecord(trial="x", arm="y", n=10, n2=12, p_value=0.05,
                        design=ONE_SAMPLE)

    def test_bad_p(self):
        with pytest.raises(DomainError):
            StudyRecord(trial="x", arm="y", n=10, p_value=1.2)

    def test_bad_design(self):
        with pytest.raises(DomainError):
            StudyRecord(trial="x", arm="y", n=10, p_value=0.05, design="paired")

    @pytest.mark.parametrize("t", [math.inf, -math.inf, math.nan])
    def test_non_finite_t(self, t):
        with pytest.raises(DomainError, match="t must be finite"):
            StudyRecord(trial="x", arm="y", n=10, t_value=t)
        with pytest.raises(DomainError, match="t must be finite"):
            TTestSummary(t=t, nu_inversion=9.0, nu_bf=18.0, n_eff=5.0)


class TestConfigValidation:
    def test_defaults(self):
        cfg = AnalysisConfig()
        assert cfg.cauchy_scale_r == pytest.approx(math.sqrt(2) / 2)
        assert cfg.prior_h1 == 0.5

    def test_rejects_bad_values(self):
        with pytest.raises(DomainError):
            AnalysisConfig(cauchy_scale_r=0.0)
        with pytest.raises(DomainError):
            AnalysisConfig(prior_h1=1.5)
        with pytest.raises(DomainError):
            AnalysisConfig(sidedness="lopsided")

    @pytest.mark.parametrize("r", [math.inf, math.nan])
    def test_rejects_non_finite_scale(self, r):
        with pytest.raises(DomainError, match="cauchy_scale_r must be finite"):
            AnalysisConfig(cauchy_scale_r=r)
        with pytest.raises(DomainError, match="r must be finite"):
            MetaInput(studies=(_summary(1.0, 100),), r=r)
        for form in (jzs_bf_delta_form, jzs_bf_g_form):
            with pytest.raises(DomainError, match="r must be finite"):
                form(1.0, _summary(1.0, 100), r=r)


class TestJzsBayesFactor:
    def test_g_form_high_dose(self):
        # published t for EMERGE high dose, taken at face value
        bf01 = jzs_bf_g_form(2.52, _summary(2.52, 547))
        assert bf01 == pytest.approx(0.649, abs=0.01)

    def test_g_form_null_favors_h0(self):
        assert jzs_bf_g_form(0.0, _summary(0.0, 547)) > 1.0

    def test_g_form_engage_low(self):
        bf01 = jzs_bf_g_form(1.17, _summary(1.17, 547))
        assert bf01 == pytest.approx(1.0 / 0.13, rel=0.06)

    def test_delta_form_matches_g_form(self):
        for t in [0.0, 0.23, 1.18, 2.52, 4.0]:
            for n in [10, 100, 547]:
                bf10 = jzs_bf_delta_form(t, _summary(t, n))
                bf01 = jzs_bf_g_form(t, _summary(t, n))
                assert bf10 * bf01 == pytest.approx(1.0, rel=1e-6)

    def test_symmetry_in_t(self):
        for t in [0.5, 1.7, 3.2]:
            s_pos, s_neg = _summary(t, 200), _summary(-t, 200)
            assert jzs_bf_delta_form(t, s_pos) == pytest.approx(
                jzs_bf_delta_form(-t, s_neg), rel=1e-9
            )

    def test_monotone_in_t_magnitude(self):
        values = [jzs_bf_delta_form(t, _summary(t, 547)) for t in [0.0, 1.0, 2.0, 3.0, 4.0]]
        assert values == sorted(values)

    def test_laplace_oracle_large_sample(self):
        # For large nu: BF10 ~ cauchy(t/sqrt(N0); r) / (sqrt(N0) * phi(t))
        r = DEFAULT_CAUCHY_SCALE
        for t, n in [(2.52, 547), (1.6984, 543), (3.2, 1000)]:
            s = _summary(t, n)
            root_n = math.sqrt(s.n_eff)
            phi = math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
            approx = math.exp(cauchy_logpdf(t / root_n, r)) / (root_n * phi)
            assert jzs_bf_delta_form(t, s) == pytest.approx(approx, rel=0.05)

    def test_scale_dependence(self):
        # wider prior spreads delta mass thinner: null gains at modest t
        s = _summary(2.0, 500)
        narrow = jzs_bf_delta_form(2.0, s, r=0.5)
        wide = jzs_bf_delta_form(2.0, s, r=1.0)
        assert wide < narrow

    def test_bad_scale(self):
        with pytest.raises(DomainError):
            jzs_bf_delta_form(1.0, _summary(1.0, 100), r=0.0)
        with pytest.raises(DomainError):
            jzs_bf_g_form(1.0, _summary(1.0, 100), r=-1.0)


class TestPosteriorProb:
    def test_even_prior_identity(self):
        for bf in [0.07, 0.28, 1.0, 1.54, 42.0]:
            assert posterior_prob(bf, 0.5) == pytest.approx(bf / (1 + bf), rel=1e-14)

    def test_published_high_dose_value(self):
        assert posterior_prob(1.54, 0.5) == pytest.approx(0.6063, abs=5e-4)

    def test_degenerate_priors(self):
        assert posterior_prob(5.0, 0.0) == 0.0
        assert posterior_prob(5.0, 1.0) == 1.0

    @given(
        st.floats(1e-6, 1e6),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_bayes_rule(self, bf, prior):
        post = posterior_prob(bf, prior)
        assert 0.0 <= post <= 1.0
        # posterior odds = bf * prior odds
        # 1 - post cancels badly when post is near 1, hence the loose rel
        if 0.0 < prior < 1.0 and post < 1.0 - 1e-8:
            assert post / (1 - post) == pytest.approx(
                bf * prior / (1 - prior), rel=1e-6
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            posterior_prob(0.0, 0.5)
        with pytest.raises(DomainError):
            posterior_prob(1.0, -0.1)


class TestClassifyEvidence:
    def test_examples(self):
        assert classify_evidence(1.54) == EvidenceLabel("anecdotal", "favors_h1")
        assert classify_evidence(0.07) == EvidenceLabel("strong", "favors_h0")
        assert classify_evidence(12.0) == EvidenceLabel("strong", "favors_h1")
        assert classify_evidence(250.0) == EvidenceLabel("extreme", "favors_h1")

    def test_boundaries(self):
        assert classify_evidence(1.0).direction == "exactly_even"
        assert classify_evidence(3.0).strength == "moderate"
        assert classify_evidence(10.0).strength == "strong"
        assert classify_evidence(30.0).strength == "very_strong"
        assert classify_evidence(100.0).strength == "extreme"
        assert classify_evidence(0.4).strength == "anecdotal"
        assert classify_evidence(0.1).strength == "strong"  # 1/0.1 rounds to 10.0

    def test_str_rendering(self):
        assert str(classify_evidence(1.54)) == "anecdotal evidence for H1"
        assert str(classify_evidence(0.07)) == "strong evidence for H0"
        assert str(classify_evidence(0.02)) == "very strong evidence for H0"
        assert str(classify_evidence(1.0)) == "evidence exactly even"

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_reciprocal_strength(self, bf):
        b = max(bf, 1.0 / bf)
        for edge in (3.0, 10.0, 30.0, 100.0):
            # rounding of 1/bf can flip the bin exactly on an edge
            assume(abs(b - edge) > 1e-9 * edge)
        assert classify_evidence(bf).strength == classify_evidence(1.0 / bf).strength

    def test_domain(self):
        with pytest.raises(DomainError):
            classify_evidence(0.0)
        with pytest.raises(DomainError):
            classify_evidence(-2.0)


class TestAnalyze:
    def test_emerge_high_pipeline(self):
        record = StudyRecord(trial="EMERGE", arm="high", n=547, p_value=0.012)
        result = analyze_study(record)
        assert result.bf10 == pytest.approx(1.544, abs=0.005)
        assert result.posterior_h1 == pytest.approx(0.607, abs=0.005)
        assert result.label == EvidenceLabel("anecdotal", "favors_h1")
        assert result.bf10 * result.bf01 == pytest.approx(1.0, rel=1e-12)
        assert result.ln_bf10 == pytest.approx(math.log(result.bf10), rel=1e-12)

    def test_null_t_favors_h0(self):
        record = StudyRecord(trial="x", arm="y", n=300, t_value=0.0)
        result = analyze_study(record)
        assert result.bf10 < 1.0
        assert result.label.direction == "favors_h0"

    def test_prior_flows_through(self):
        record = StudyRecord(trial="x", arm="y", n=547, t_value=2.52)
        sceptical = analyze_study(record, AnalysisConfig(prior_h1=0.1))
        even = analyze_study(record, AnalysisConfig(prior_h1=0.5))
        assert sceptical.bf10 == pytest.approx(even.bf10, rel=1e-12)
        assert sceptical.posterior_h1 < even.posterior_h1

    def test_quadrature_error_is_small(self):
        record = StudyRecord(trial="x", arm="y", n=547, t_value=2.52)
        result = analyze_study(record, AnalysisConfig())
        assert 0.0 <= result.quadrature_error < 1e-6 * result.bf10

    def test_deterministic(self):
        record = StudyRecord(trial="EMERGE", arm="low", n=543, p_value=0.09)
        assert analyze_study(record).bf10 == analyze_study(record).bf10
