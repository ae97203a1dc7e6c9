"""Tests for the special-function and quadrature kernel."""

import functools
import json
import math
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from trialbayes import numerics
from trialbayes.numerics import (
    DomainError,
    NonConvergenceError,
    cauchy_logpdf,
    central_t_logpdf,
    integrate,
    noncentral_t_logpdf,
    student_t_quantile,
)


@functools.cache
def _reference_ln_f():
    """{(t, nu, mu): ln f} from tests/reference_values.json (make_reference.py)."""
    pins = json.loads(Path(__file__).with_name("reference_values.json").read_text())
    return {(p["t"], p["nu"], p["mu"]): float(p["ln_f"]) for p in pins["nct_pins"]}


def _central_t_logpdf_mpmath(t, nu):
    """ln of the central t density from its closed form in 30-digit mpmath."""
    with mpmath.workdps(30):
        t, nu = mpmath.mpf(t), mpmath.mpf(nu)
        return float(
            mpmath.loggamma((nu + 1) / 2) - mpmath.loggamma(nu / 2)
            - mpmath.log(nu * mpmath.pi) / 2 - (nu + 1) / 2 * mpmath.log1p(t * t / nu)
        )


def _reg_inc_beta(a, b, x):
    """I_x(a, b) for 0 < x < 1 from numerics._beta_cf, the continued fraction
    that _t_probabilities takes at b = 1/2 and at a = 1/2, on the side of
    the mean where it converges fast (Numerical Recipes, 3rd ed., 6.4)."""
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * numerics._beta_cf(a, b, x) / a
    return 1.0 - front * numerics._beta_cf(b, a, 1.0 - x) / b


def _t_tail(t, nu):
    """P(T > t) for t > 0, from numerics._t_probabilities."""
    return math.exp(numerics._t_probabilities(t, nu)[0])


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
    """The incomplete beta continued fraction, through _reg_inc_beta."""

    def test_uniform_case(self):
        assert _reg_inc_beta(1.0, 1.0, 0.3) == pytest.approx(0.3, rel=1e-14)

    def test_polynomial_closed_form(self):
        # I_x(2, 3) = 6x^2 - 8x^3 + 3x^4
        for x in [0.1, 0.4, 0.5, 0.9]:
            expected = 6 * x**2 - 8 * x**3 + 3 * x**4
            assert _reg_inc_beta(2.0, 3.0, x) == pytest.approx(expected, rel=1e-12)

    def test_against_scipy_grid(self):
        for a in [0.5, 1.0, 2.0, 273.0, 546.0]:
            for b in [0.5, 1.5, 10.0]:
                for x in [0.01, 0.3, 0.5, 0.77, 0.99]:
                    assert _reg_inc_beta(a, b, x) == pytest.approx(
                        scipy.special.betainc(a, b, x), rel=1e-12, abs=1e-300
                    )

    # x stays away from 0 and 1: there the float rounding of 1 - x itself
    # shifts the answer by more than the tolerance
    @given(st.floats(0.1, 50), st.floats(0.1, 50), st.floats(1e-6, 1 - 1e-6))
    @settings(max_examples=50, deadline=None)
    def test_complement_symmetry(self, a, b, x):
        assert _reg_inc_beta(a, b, x) + _reg_inc_beta(b, a, 1.0 - x) == pytest.approx(
            1.0, abs=1e-10
        )



class TestStudentTCdf:
    """The Student t tail and central probabilities that the quantile
    inverts, through _t_probabilities."""

    def test_symmetry_point(self):
        # as t -> 0 the tail is 1/2 to the last bit and the central part 0
        for nu in [1.0, 2.0, 546.0]:
            ln_tail, ln_central, _ = numerics._t_probabilities(1e-100, nu)
            assert math.exp(ln_tail) == 0.5
            assert math.exp(ln_central) < 1e-99

    def test_cauchy_closed_form(self):
        _, ln_central, _ = numerics._t_probabilities(1.0, 1.0)
        assert math.exp(ln_central) == pytest.approx(0.25, rel=1e-12)
        assert _t_tail(1.0, 1.0) == pytest.approx(0.25, rel=1e-12)

    def test_normal_limit(self):
        assert _t_tail(1.96, 1e6) == pytest.approx(scipy.stats.norm.sf(1.96), abs=1e-5)

    def test_monotone(self):
        tails = [_t_tail(t, 10.0) for t in [0.1, 0.5, 1.0, 2.0, 5.0, 8.0]]
        assert tails == sorted(tails, reverse=True)

    def test_large_nu_against_scipy(self):
        # from nu = 30 on, tails beyond t^2 ~ 3 come from the BGRAT expansion
        for nu in (30.0, 1e3, 4e4, 1e5):
            for t in (0.3, 1.5, 2.5, 4.0, 8.0):
                assert _t_tail(t, nu) == pytest.approx(
                    scipy.stats.t.sf(t, nu), rel=1e-13, abs=0.0
                )


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
                assert scipy.stats.t.cdf(t, nu) == pytest.approx(q, abs=1e-9)

    def test_extreme_quantiles(self):
        t = student_t_quantile(1 - 1e-12, 5.0)
        assert scipy.stats.t.cdf(t, 5.0) == pytest.approx(1 - 1e-12, abs=1e-14)

    def test_tiny_tails_closed_forms(self):
        # nu = 1: t = -cot(pi q); nu = 2: t = (2q - 1) / sqrt(2q (1 - q))
        for q in (0.3, 1e-5, 1e-20, 1e-100, 1e-300):
            assert student_t_quantile(q, 1.0) == pytest.approx(
                -1.0 / math.tan(math.pi * q), rel=1e-13, abs=0.0
            )
            assert student_t_quantile(q, 2.0) == pytest.approx(
                (2.0 * q - 1.0) / math.sqrt(2.0 * q * (1.0 - q)), rel=1e-13, abs=0.0
            )

    def test_tiny_tails_against_scipy(self):
        for nu in (3.5, 30.0, 546.0, 2e4, 1e5):
            for q in (0.3, 1e-5, 1e-20, 1e-100):
                assert student_t_quantile(q, nu) == pytest.approx(
                    scipy.special.stdtrit(nu, q), rel=1e-13, abs=0.0
                )

    def test_beyond_the_largest_double(self):
        # nu = 1 puts t near 1 / (pi q), past 1.8e308 for q below 1.77e-309
        with pytest.raises(DomainError, match="largest double"):
            student_t_quantile(1e-309, 1.0)
        assert student_t_quantile(1.8e-309, 1.0) == pytest.approx(
            -1.0 / (math.pi * 1.8e-309), rel=1e-13, abs=0.0
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            student_t_quantile(0.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(1.0, 5.0)
        with pytest.raises(DomainError):
            student_t_quantile(0.3, -1.0)


class TestCentralTPdf:
    """The central t density, through central_t_logpdf."""

    def test_cauchy_closed_form(self):
        assert math.exp(central_t_logpdf(0.0, 1.0)) == pytest.approx(
            1.0 / math.pi, rel=1e-14
        )

    def test_normal_limit(self):
        assert math.exp(central_t_logpdf(0.0, 1e8)) == pytest.approx(
            1.0 / math.sqrt(2 * math.pi), abs=1e-7
        )

    def test_symmetry(self):
        for t in [0.3, 1.7, 4.0]:
            assert central_t_logpdf(t, 7.0) == central_t_logpdf(-t, 7.0)

    def test_normalizes(self):
        result = integrate(_on_sinh(lambda t: central_t_logpdf(t, 3.0)), 0.0, 1.0, 1e-10)
        assert math.exp(result.ln_value) == pytest.approx(1.0, rel=1e-9)


# (t, nu, mu, ln f as float.hex) written with the scalar noncentral t code
# that preceded the broadcasting kernel; the comment names the mesh the rule
# builds: regular panels, panels graded toward q = 0, graded panels plus the
# geometric ladder for t * mu < 0, or the central shortcut for mu = 0.
_PINNED_NCT = [
    (2.52, 1092.0, 2.5, "-0x1.d7770567b6c64p-1"),  # regular
    (0.3, 22.0, -0.4, "-0x1.2d9f2ea83ee43p+0"),  # ladder
    (-3.0, 1.0, 0.0, "-0x1.b9419e02925f5p+1"),  # central
    (1.7, 40000.0, 0.0, "-0x1.2e95374732b5ap+1"),  # central
    (634.0, 1.0, 600.0, "-0x1.cb91c688ed2ffp+2"),  # regular
    (1.0, 100.0, 80.0, "-0x1.83f88d8a305e6p+11"),  # graded
    (-10.0, 5.0, 3.0, "-0x1.3d6bd8658d992p+4"),  # ladder
    (8.0, 1.0, -5.0, "-0x1.5216626544e93p+4"),  # ladder
    (2.0, 40000.0, 1.5, "-0x1.0b419a88f1f4cp+0"),  # regular
    (0.4, 1.0, -1.1, "-0x1.302af34de30eep+1"),  # ladder
    (40.0, 9998.0, 39.0, "-0x1.6bd970d573a64p+0"),  # regular
    (-2.0, 150.0, 3.0, "-0x1.a8fe4ffb603fcp+3"),  # ladder
    (0.05, 3.0, -0.02, "-0x1.00fba362b6e24p+0"),  # ladder
    (0.001, 12.0, -0.5, "-0x1.10b4d05b1735cp+0"),  # ladder
    (1.5, 160.0, 0.1, "-0x1.e682199c738e2p+0"),  # graded
    (0.0446, 8768.48, 47.717, "-0x1.1c4fd94f04d36p+10"),  # regular
    (17.2508, 204.991, -10.1275, "-0x1.e4f4a51165900p+7"),  # regular
    (3.6322, 1.81, 46.574, "-0x1.fd195eba8e033p+6"),  # regular
    (16.9838, 7.154, -8.4379, "-0x1.02b4d34387e1fp+6"),  # ladder
    (34.8806, 4686.301, 22.9776, "-0x1.fe5971273086dp+5"),  # regular
    (20.3451, 18624.359, 48.8134, "-0x1.91a9b42b448c7p+8"),  # regular
    (34.0237, 202.899, 0.0, "-0x1.85d75d39d2ba9p+7"),  # central
    (14.2591, 14703.997, 20.0729, "-0x1.1b47ab8adfa27p+4"),  # regular
    (29.2785, 1481.484, 53.0431, "-0x1.b23b6e685df13p+7"),  # regular
    (-8.3894, 411.542, 34.1488, "-0x1.a5b33915ec592p+9"),  # regular
    (-5.1344, 14202.568, 0.0, "-0x1.c2d69b7548bd8p+3"),  # central
    (25.176, 52.767, -19.581, "-0x1.5673458916149p+8"),  # ladder
    (31.9039, 56.136, -28.0475, "-0x1.231f8899f04e7p+9"),  # ladder
    (-4.8593, 5.161, -14.9071, "-0x1.bfac776dcde89p+3"),  # graded
    (9.7539, 43.798, -6.8156, "-0x1.42ecaf3b1fd30p+6"),  # ladder
    (19.9388, 55.9, -14.5126, "-0x1.d4cc99f5ccde8p+7"),  # ladder
    (6.5024, 28.294, 5.3255, "-0x1.a157ff5264bfdp+0"),  # graded
    (18.0963, 8.527, 14.9207, "-0x1.5b0f55ac94690p+1"),  # graded
    (0.3883, 24.975, 56.1136, "-0x1.8305e3f08fa2cp+10"),  # graded
    (0.2466, 1.176, 31.465, "-0x1.d4aa1afd55db6p+8"),  # graded
    (0.1551, 17.416, 9.0472, "-0x1.435e97dd83fe6p+5"),  # graded
    (4.1116, 6.756, 15.4674, "-0x1.935f1b0412a3ep+4"),  # graded
    (26.7333, 4.729, 11.6817, "-0x1.458932b4c319bp+2"),  # graded
    (35.9629, 44.255, 6.4184, "-0x1.6806abcb6f6a2p+5"),  # graded
    (-4.5083, 18.694, -12.4877, "-0x1.464f6a83177c1p+4"),  # graded
]

# The pins that lie further than 4e-13 from the reference: 1.5e-11, 7.1e-12
# and 5.5e-12 relative.
_LOOSE_PINS = {(2.0, 40000.0, 1.5), (1.7, 40000.0, 0.0), (40.0, 9998.0, 39.0)}


class TestNoncentralTPdf:
    def test_central_reduction(self):
        for nu in [1.0, 2.5, 20.0, 546.0, 1092.0]:
            for t in [-3.0, 0.0, 0.5, 2.52]:
                assert math.exp(noncentral_t_logpdf(t, nu, 0.0)) == pytest.approx(
                    math.exp(_central_t_logpdf_mpmath(t, nu)), rel=1e-12
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

    @pytest.mark.parametrize("t, nu, mu, pinned", _PINNED_NCT)
    def test_pinned_values(self, t, nu, mu, pinned):
        assert noncentral_t_logpdf(t, nu, mu) == pytest.approx(
            float.fromhex(pinned), rel=1e-13, abs=0.0
        )

    @pytest.mark.parametrize("t, nu, mu, pinned", _PINNED_NCT)
    def test_pinned_inputs_against_reference(self, t, nu, mu, pinned):
        # the truth from tests/make_reference.py; at nu ~ 1e4 and above a few
        # ulps of lgamma(nu / 2) (about 1.8e5 at nu = 4e4), which the
        # normalization cancels down to ln f ~ 1, are ~1e-11 of ln f
        rel = 2e-11 if (t, nu, mu) in _LOOSE_PINS else 4e-13
        assert noncentral_t_logpdf(t, nu, mu) == pytest.approx(
            _reference_ln_f()[t, nu, mu], rel=rel, abs=0.0
        )

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
        for nu in (0.0, -1.0, math.nan):
            with pytest.raises(DomainError, match=f"got {nu}"):
                noncentral_t_logpdf(1.0, nu, 1.0)
        with pytest.raises(DomainError):
            noncentral_t_logpdf(1.0, -1.0, [0.5, 1.0])


class TestNoncentralTBroadcast:
    """One call over an array of mu equals one call per element."""

    def test_scalar_in_float_out(self):
        assert type(noncentral_t_logpdf(2.52, 1092.0, 2.5)) is float
        assert type(noncentral_t_logpdf(np.float64(0.3), 22, -0.4)) is float

    def test_shapes_broadcast(self):
        assert noncentral_t_logpdf(0.3, 5.0, [1.2, -0.4]).shape == (2,)
        assert noncentral_t_logpdf(2.0, 5.0, np.zeros((4, 3, 1))).shape == (4, 3, 1)
        assert noncentral_t_logpdf(1.0, 5.0, []).shape == (0,)

    def test_matches_elementwise_calls(self):
        # for each (t, nu), one call over 73 values of mu (two blocks of
        # densities) over regular, graded, ladder and mu = 0 meshes
        rng = np.random.default_rng(11)
        ts = rng.uniform(-10.0, 40.0, 6)
        nus = np.exp(rng.uniform(0.0, math.log(4e4), 6))
        mu = np.concatenate([rng.uniform(-30.0, 60.0, 70), [0.0, -1e-3, 1e-3]])
        for t, nu in zip(ts, nus):
            row = noncentral_t_logpdf(t, nu, mu)
            grid = noncentral_t_logpdf(t, nu, mu.reshape(73, 1))
            for j, m in enumerate(mu):
                one = noncentral_t_logpdf(t, nu, m)
                assert row[j] == pytest.approx(one, rel=1e-14, abs=0.0)
                assert grid[j, 0] == row[j]


class TestGaussLegendreTable:
    def test_literal_table_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(20)
        assert numerics._GL_NODES.tobytes() == nodes.tobytes()
        assert numerics._GL_WEIGHTS.tobytes() == weights.tobytes()


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
