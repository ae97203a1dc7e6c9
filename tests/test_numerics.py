"""Tests for the special-function and quadrature kernel."""

import math
import warnings

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbayes.numerics import (
    DomainError,
    NonConvergenceError,
    cauchy_logpdf,
    central_t_logpdf,
    central_t_pdf,
    integrate,
    noncentral_t_logpdf,
    reg_inc_beta,
    student_t_cdf,
    student_t_quantile,
)


class TestLnGamma:
    """The log-gamma normalization of the t density, via central_t_logpdf."""

    def test_trivial_values(self):
        # nu = 1 is the standard Cauchy: Gamma(1) / Gamma(1/2) = 1 / sqrt(pi)
        for t in [0.0, 1.3, -4.0]:
            assert central_t_logpdf(t, 1.0) == pytest.approx(
                cauchy_logpdf(t, 1.0), rel=1e-14
            )

    def test_half_integer(self):
        # nu = 2: Gamma(3/2) / Gamma(1) = sqrt(pi) / 2, density (2 + t^2)^(-3/2)
        for t in [0.0, 0.7, 3.0]:
            assert central_t_logpdf(t, 2.0) == pytest.approx(
                -1.5 * math.log(2.0 + t * t), rel=1e-14
            )

    def test_against_scipy_grid(self):
        for nu in [0.5, 0.73, 1.0, 2.5, 10.0, 123.4, 1000.0, 5000.0]:
            for t in [-3.0, 0.0, 0.5, 2.52]:
                assert central_t_logpdf(t, nu) == pytest.approx(
                    scipy.stats.t.logpdf(t, nu), rel=1e-12
                )

    def test_domain(self):
        with pytest.raises(DomainError):
            central_t_logpdf(1.0, 0.0)
        with pytest.raises(DomainError):
            central_t_logpdf(1.0, -3.0)


class TestRegIncBeta:
    def test_uniform_case(self):
        assert reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-14)

    def test_endpoints(self):
        assert reg_inc_beta(2.0, 5.0, 0.0) == 0.0
        assert reg_inc_beta(2.0, 5.0, 1.0) == 1.0

    def test_polynomial_closed_form(self):
        # I_x(2, 3) = 6x^2 - 8x^3 + 3x^4
        for x in [0.1, 0.4, 0.5, 0.9]:
            expected = 6 * x**2 - 8 * x**3 + 3 * x**4
            assert reg_inc_beta(2.0, 3.0, x) == pytest.approx(expected, rel=1e-12)

    def test_against_scipy_grid(self):
        for a in [0.5, 1.0, 2.0, 273.0, 546.0]:
            for b in [0.5, 1.5, 10.0]:
                for x in [0.01, 0.3, 0.5, 0.77, 0.99]:
                    assert reg_inc_beta(a, b, x) == pytest.approx(
                        scipy.special.betainc(a, b, x), rel=1e-12, abs=1e-300
                    )

    # x stays away from 0 and 1: there the float rounding of 1 - x itself
    # shifts the answer by more than the tolerance
    @given(st.floats(0.1, 50), st.floats(0.1, 50), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_complement_symmetry(self, a, b, x):
        assert reg_inc_beta(a, b, x) + reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
            1.0, abs=1e-10
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            reg_inc_beta(0.0, 1.0, 0.5)
        with pytest.raises(DomainError):
            reg_inc_beta(1.0, 1.0, 1.5)


class TestStudentTCdf:
    def test_symmetry_point(self):
        for nu in [1.0, 2.0, 546.0]:
            assert student_t_cdf(0.0, nu) == 0.5

    def test_cauchy_closed_form(self):
        assert student_t_cdf(1.0, 1.0) == pytest.approx(0.75, rel=1e-12)
        assert student_t_cdf(-1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_normal_limit(self):
        assert student_t_cdf(1.96, 1e6) == pytest.approx(
            scipy.stats.norm.cdf(1.96), abs=1e-5
        )

    def test_monotone(self):
        values = [student_t_cdf(t, 10.0) for t in [-5, -1, 0, 0.5, 2, 8]]
        assert values == sorted(values)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_cdf(1.0, 0.0)


class TestStudentTQuantile:
    def test_median(self):
        for nu in [1.0, 546.0]:
            assert student_t_quantile(0.5, nu) == 0.0

    def test_cauchy_closed_form(self):
        assert student_t_quantile(0.75, 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_table_t_value(self):
        # q = 1 - 0.012/2 with nu = 546 gives the published high-dose t
        assert round(student_t_quantile(0.994, 546.0), 2) == 2.52

    def test_roundtrip(self):
        for nu in [1.0, 2.0, 10.0, 546.0, 1092.0]:
            for q in [i / 100 for i in range(1, 100)]:
                t = student_t_quantile(q, nu)
                assert student_t_cdf(t, nu) == pytest.approx(q, abs=1e-9)

    def test_extreme_quantiles(self):
        t = student_t_quantile(1 - 1e-12, 5.0)
        assert student_t_cdf(t, 5.0) == pytest.approx(1 - 1e-12, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(1.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(0.3, -1.0)


class TestCentralTPdf:
    def test_cauchy_closed_form(self):
        assert central_t_pdf(0.0, 1.0) == pytest.approx(1.0 / math.pi, rel=1e-14)

    def test_normal_limit(self):
        assert central_t_pdf(0.0, 1e8) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-7
        )

    def test_symmetry(self):
        for t in [0.3, 1.7, 4.0]:
            assert central_t_pdf(t, 7.0) == central_t_pdf(-t, 7.0)

    def test_normalizes(self):
        result = integrate(
            _on_sinh(lambda t: math.log(central_t_pdf(t, 3.0))), 0.0, 1.0, 1e-10
        )
        assert math.exp(result.ln_value) == pytest.approx(1.0, rel=1e-9)


class TestNoncentralTPdf:
    def test_central_reduction(self):
        for nu in [1.0, 2.5, 20.0, 546.0, 1092.0]:
            for t in [-3.0, 0.0, 0.5, 2.52]:
                assert math.exp(noncentral_t_logpdf(t, nu, 0.0)) == pytest.approx(
                    central_t_pdf(t, nu), rel=1e-12
                )

    def test_shifted_normal_limit(self):
        # For huge nu the density tends to phi(t - mu)
        assert math.exp(noncentral_t_logpdf(2.0, 1e5, 2.0)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-3
        )

    def test_reflection_symmetry(self):
        for t, nu, mu in [(1.3, 7.0, 0.8), (-2.0, 100.0, 3.0), (0.4, 1.0, -1.1)]:
            assert math.exp(noncentral_t_logpdf(t, nu, mu)) == pytest.approx(
                math.exp(noncentral_t_logpdf(-t, nu, -mu)), rel=1e-12
            )

    def test_normalizes(self):
        for nu, mu in [(5.0, 1.5), (50.0, -2.0)]:
            result = integrate(
                _on_sinh(lambda t: noncentral_t_logpdf(t, nu, mu)), 0.0, 1.0, 1e-9
            )
            assert math.exp(result.ln_value) == pytest.approx(1.0, abs=1e-6)

    def test_against_scipy_grid(self):
        checked = 0
        for nu in [1.0, 5.0, 50.0, 500.0]:
            for mu in [-5.0, -1.0, 0.5, 3.0, 10.0]:
                for t in [-10.0, -1.0, 0.3, 2.0, 8.0]:
                    try:
                        with warnings.catch_warnings():
                            warnings.simplefilter("ignore", RuntimeWarning)
                            ref = scipy.stats.nct.pdf(t, nu, mu)
                    except OverflowError:
                        continue  # scipy's boost backend fails here; skip
                    if not (math.isfinite(ref) and ref > 0):
                        continue
                    got = math.exp(noncentral_t_logpdf(t, nu, mu))
                    assert got == pytest.approx(ref, rel=1e-9)
                    checked += 1
        assert checked >= 80

    def test_extreme_noncentrality_stays_finite(self):
        # log density is finite and monotone in the deep tail
        assert noncentral_t_logpdf(1.0, 100.0, 80.0) < noncentral_t_logpdf(
            1.0, 100.0, 40.0
        )
        assert math.isfinite(noncentral_t_logpdf(1.0, 100.0, 80.0))

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_t_logpdf(1.0, 0.0, 1.0)


class TestCauchyPdf:
    def test_trivial_values(self):
        assert math.exp(cauchy_logpdf(0.0, 1.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )
        assert math.exp(cauchy_logpdf(1.0, 1.0)) == pytest.approx(
            1.0 / (2 * math.pi), rel=1e-14
        )

    def test_direct_formula(self):
        scale = math.sqrt(2) / 2
        x = 0.1078
        expected = 1.0 / (math.pi * scale * (1 + (x / scale) ** 2))
        assert expected == pytest.approx(0.4400, abs=5e-4)
        assert math.exp(cauchy_logpdf(x, scale)) == pytest.approx(expected, rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            cauchy_logpdf(0.0, 0.0)


def _riemann_oracle(f, n_steps=200_000):
    """Midpoint Riemann sum on (0, 1); caller supplies the transformed f."""
    h = 1.0 / n_steps
    return h * sum(f((i + 0.5) * h) for i in range(n_steps))


# integrate() covers the real line and takes ln integrands over arrays, so
# each test integral is written in an unbounded variable:
#   over g in (0, inf), x = ln g:  ln[f(g) dg] = ln f(e^x) + x;
#   over the real line, t = sinh u:  ln[f(t) dt] = ln f(sinh u) + ln cosh u,
# which turns polynomial tails into exponential ones.

def _on_log(ln_f):
    """ln integrand over x = ln g for ln_f(g) given on arrays of g > 0."""
    return lambda x: ln_f(np.exp(x)) + x


def _on_sinh(ln_f):
    """ln integrand over u with t = sinh u, for a scalar ln_f(t)."""
    return lambda u: np.array([ln_f(t) for t in np.sinh(u)]) + np.log(np.cosh(u))


LN_EXP = _on_log(lambda g: -g)  # e^-g, integral 1
LN_INV_GAMMA = _on_log(lambda g: -1.5 * np.log(g) - 0.5 / g)  # integral sqrt(2 pi)
LN_CAUCHY = _on_sinh(lambda t: cauchy_logpdf(t, 1.0))  # integral 1


class TestIntegrate:
    def test_exponential_half_line(self):
        result = integrate(LN_EXP, 0.0, 1.0, 1e-10)
        assert math.exp(result.ln_value) == pytest.approx(1.0, rel=1e-9)
        assert result.abs_error_estimate >= 0.0
        assert result.evaluations >= 1

    def test_cauchy_normalization_real_line(self):
        result = integrate(LN_CAUCHY, 0.0, 1.0, 1e-10)
        assert math.exp(result.ln_value) == pytest.approx(1.0, rel=1e-9)

    def test_inverse_gamma_normalization(self):
        result = integrate(LN_INV_GAMMA, 0.0, 1.0, 1e-10)
        assert math.exp(result.ln_value) == pytest.approx(math.sqrt(2 * math.pi), rel=1e-6)

    def test_matches_riemann_oracle(self):
        # Same three integrals, via fixed-step midpoint sums on (0, 1)
        exp_oracle = _riemann_oracle(
            lambda u: math.exp(-u / (1 - u)) / (1 - u) ** 2
        )
        cauchy_oracle = _riemann_oracle(
            lambda u: math.exp(cauchy_logpdf(math.tan(math.pi * (u - 0.5)), 1.0))
            * math.pi / math.cos(math.pi * (u - 0.5)) ** 2
        )
        # g = (u/(1-u))**2 removes the endpoint singularity of this one
        invgamma_oracle = _riemann_oracle(
            lambda u: (u / (1 - u)) ** -3.0
            * math.exp(-0.5 * ((1 - u) / u) ** 2)
            * 2 * u / (1 - u) ** 3
        )
        cases = [
            (LN_EXP, exp_oracle),
            (LN_CAUCHY, cauchy_oracle),
            (LN_INV_GAMMA, invgamma_oracle),
        ]
        for ln_f, oracle in cases:
            result = integrate(ln_f, 0.0, 1.0, 1e-8)
            assert math.exp(result.ln_value) == pytest.approx(oracle, rel=1e-4)

    def test_narrow_peak(self):
        # peak of width 0.003 away from panel boundaries, with a window guess
        # 300 times too wide: the guess costs evaluations, not accuracy
        result = integrate(lambda x: -0.5 * ((x - 0.123456) / 0.003) ** 2, 0.0, 1.0, 1e-9)
        assert math.exp(result.ln_value) == pytest.approx(
            0.003 * math.sqrt(2 * math.pi), rel=1e-8
        )

    def test_budget_exhaustion_raises(self):
        # an integrand oscillating far below panel resolution cannot converge
        # (kept positive, as ln integrands must be)
        f = _on_log(lambda g: np.log1p(0.5 * np.cos(5e4 * g)) - g)
        with pytest.raises(NonConvergenceError):
            integrate(f, 0.0, 1.0, 1e-10)

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate(LN_EXP, 0.0, 1.0, 0.0)
        with pytest.raises(DomainError):
            integrate(LN_EXP, 0.0, 0.0, 1e-8)


class TestDeterminism:
    def test_bit_identical_outputs(self):
        pairs = [
            (student_t_quantile(0.994, 546.0), student_t_quantile(0.994, 546.0)),
            (noncentral_t_logpdf(2.52, 1092.0, 2.5), noncentral_t_logpdf(2.52, 1092.0, 2.5)),
            (
                integrate(LN_EXP, 0.0, 1.0, 1e-9).ln_value,
                integrate(LN_EXP, 0.0, 1.0, 1e-9).ln_value,
            ),
        ]
        for a, b in pairs:
            assert a == b
