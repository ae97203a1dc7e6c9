"""Single-study evidence engine.

Turns a published (n, p) or (n, t) summary into a JZS Bayes factor, a
posterior probability, and a Jeffreys evidence label. The Bayes factor is
computed two mathematically equivalent ways (an integral over the prior
mixing variance g and an integral over the effect size delta) and the two
routes are cross-checked against each other on every analysis. The delta
integral is the one marginal behind both the single-study and the pooled
(meta-analytic) Bayes factor; a pool of one study is the single-study form.
Every integral runs to the one fixed tolerance QUADRATURE_REL_TOL.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    _LN_MAX_DOUBLE,
    LN_2PI,
    QUADRATURE_REL_TOL,
    DomainError,
    cauchy_logpdf,
    central_t_logpdf,
    integrate,
    noncentral_t_logpdf,
    student_t_quantile,
)

__all__ = [
    "TWO_SAMPLE_EQUAL_ARMS",
    "ONE_SAMPLE",
    "TWO_SIDED",
    "ONE_SIDED",
    "DEFAULT_CAUCHY_SCALE",
    "QUADRATURE_REL_TOL",
    "InternalConsistencyError",
    "StudyRecord",
    "TTestSummary",
    "AnalysisConfig",
    "EvidenceLabel",
    "BayesFactorResult",
    "t_from_p",
    "summarize",
    "jzs_bf_g_form",
    "jzs_bf_delta_form",
    "posterior_prob",
    "classify_evidence",
    "analyze_study",
]

TWO_SAMPLE_EQUAL_ARMS = "two_sample_equal_arms"
ONE_SAMPLE = "one_sample"
TWO_SIDED = "two_sided"
ONE_SIDED = "one_sided"

DEFAULT_CAUCHY_SCALE = math.sqrt(2.0) / 2.0

# The g-form's window ends lie this far below the integrand's peak: past
# integrate's own 36, so that its outermost nodes, which lie inside the
# window, clear that drop and it takes no widening step.
_G_WINDOW_DROP = 40.0

# Jeffreys bins on B = max(BF10, 1/BF10); half-open [lower, upper).
JEFFREYS_BINS = (
    (1.0, 3.0, "anecdotal"),
    (3.0, 10.0, "moderate"),
    (10.0, 30.0, "strong"),
    (30.0, 100.0, "very_strong"),
    (100.0, math.inf, "extreme"),
)


class InternalConsistencyError(RuntimeError):
    """The two Bayes factor computations disagree beyond tolerance, or the
    Bayes factor they agree on does not fit in a double."""


@dataclass(frozen=True)
class StudyRecord:
    """One trial arm's summary statistics as published.

    For the two-sample design, n alone means two arms of n each; n2, when
    given, is the size of the second arm and n the size of the first.
    """

    trial: str
    arm: str
    n: int
    p_value: float | None = None
    t_value: float | None = None
    design: str = TWO_SAMPLE_EQUAL_ARMS
    n2: int | None = None

    def __post_init__(self):
        if (self.p_value is None) == (self.t_value is None):
            raise DomainError(
                f"study {self.trial}/{self.arm}: exactly one of p_value and "
                f"t_value must be given"
            )
        for name in ("n",) if self.n2 is None else ("n", "n2"):
            size = getattr(self, name)
            if not (isinstance(size, int) and size >= 2):
                raise DomainError(
                    f"study {self.trial}/{self.arm}: {name} must be an integer "
                    f">= 2, got {size!r}"
                )
        if self.design not in (TWO_SAMPLE_EQUAL_ARMS, ONE_SAMPLE):
            raise DomainError(
                f"study {self.trial}/{self.arm}: unknown design {self.design!r}"
            )
        if self.design == ONE_SAMPLE and self.n2 is not None:
            raise DomainError(
                f"study {self.trial}/{self.arm}: n2 needs a two-sample design"
            )
        if self.p_value is not None and not 0.0 < self.p_value < 1.0:
            raise DomainError(
                f"study {self.trial}/{self.arm}: p out of range: {self.p_value}"
            )
        if self.t_value is not None and not math.isfinite(self.t_value):
            raise DomainError(
                f"study {self.trial}/{self.arm}: t must be finite, got {self.t_value}"
            )


@dataclass(frozen=True)
class TTestSummary:
    """Derived inferential quantities for one study.

    nu_inversion is the df used for the p -> t inversion, nu_bf the df
    inside the Bayes factor (n1 + n2 - 2), n_eff the effective sample size
    n1*n2/(n1+n2) that scales the noncentrality; see summarize.
    """

    t: float
    nu_inversion: float
    nu_bf: float
    n_eff: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise DomainError(f"t-test summary t must be finite, got {self.t}")
        if not (self.nu_inversion > 0 and self.nu_bf > 0 and self.n_eff > 0):
            raise DomainError(f"invalid t-test summary: {self}")


@dataclass(frozen=True)
class AnalysisConfig:
    cauchy_scale_r: float = DEFAULT_CAUCHY_SCALE
    prior_h1: float = 0.5
    sidedness: str = TWO_SIDED

    def __post_init__(self):
        if not 0.0 < self.cauchy_scale_r < math.inf:
            raise DomainError(
                f"cauchy_scale_r must be finite and > 0, got {self.cauchy_scale_r}"
            )
        if not 0.0 <= self.prior_h1 <= 1.0:
            raise DomainError(f"prior_h1 must be in [0, 1], got {self.prior_h1}")
        if self.sidedness not in (TWO_SIDED, ONE_SIDED):
            raise DomainError(f"unknown sidedness {self.sidedness!r}")


@dataclass(frozen=True)
class EvidenceLabel:
    strength: str  # anecdotal | moderate | strong | very_strong | extreme
    direction: str  # favors_h1 | favors_h0 | exactly_even

    def __str__(self) -> str:
        if self.direction == "exactly_even":
            return "evidence exactly even"
        side = "H1" if self.direction == "favors_h1" else "H0"
        return f"{self.strength.replace('_', ' ')} evidence for {side}"


@dataclass(frozen=True)
class BayesFactorResult:
    bf10: float
    bf01: float
    ln_bf10: float
    quadrature_error: float
    posterior_h1: float
    label: EvidenceLabel
    summary: TTestSummary = field(repr=False, default=None)


def t_from_p(p: float, nu: float, sidedness: str = TWO_SIDED) -> float:
    """Recover the (nonnegative) t statistic from a published p-value.

    The quantile is taken of the tail probability p/2 (two-sided) or p
    (one-sided) itself, never of 1 - p/2, so any p whose tail probability
    is a positive double inverts.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if sidedness == TWO_SIDED:
        tail = p / 2.0
    elif sidedness == ONE_SIDED:
        tail = p
    else:
        raise DomainError(f"unknown sidedness {sidedness!r}")
    if tail == 0.0:
        raise DomainError(f"p={p} too small to invert: p/2 underflows to 0")
    return max(0.0, -student_t_quantile(tail, nu))


def summarize(record: StudyRecord, config: AnalysisConfig = AnalysisConfig()) -> TTestSummary:
    """Derive t, degrees of freedom and effective sample size for a record.

    This is the one place that knows the sample-size conventions:

    - unequal arms (n2 given): nu_inversion = nu_bf = n + n2 - 2 and
      n_eff = n*n2/(n + n2);
    - equal arms (the published n is the size of each arm): nu_bf = 2n - 2
      and n_eff = n/2, but the p -> t inversion uses nu = n - 1;
    - one sample: nu = n - 1 and n_eff = n.

    The inversion df therefore differs between equal and unequal arms: n =
    547 alone inverts p with nu = 546, n = n2 = 547 with nu = 1092. The two
    conventions are not reconciled yet.
    """
    n, n2 = record.n, record.n2
    if n2 is not None:
        nu_inversion = nu_bf = float(n + n2 - 2)
        n_eff = n * n2 / (n + n2)
    elif record.design == TWO_SAMPLE_EQUAL_ARMS:
        nu_inversion = float(n - 1)
        nu_bf = float(2 * n - 2)
        n_eff = n / 2.0
    else:
        nu_inversion = nu_bf = float(n - 1)
        n_eff = float(n)
    if record.t_value is not None:
        t = float(record.t_value)
    else:
        t = t_from_p(record.p_value, nu_inversion, config.sidedness)
    return TTestSummary(t=t, nu_inversion=nu_inversion, nu_bf=nu_bf, n_eff=n_eff)


def jzs_bf_g_form(
    t: float, summary: TTestSummary, r: float = DEFAULT_CAUCHY_SCALE
) -> float:
    """B01 via the JZS integral over the prior mixing variance g.

    In x = ln g the integrand exp(h(x)) has a peak of about unit width, a
    doubly exponential fall below it and an e^-x tail above it. It is
    integrated in y with x = x0 + 2 sinh(y / 2), x0 the peak, which leaves
    the peak as it is and makes the upper tail doubly exponential too; the
    window spans where h lies within _G_WINDOW_DROP of its peak.
    """
    if not 0.0 < r < math.inf:
        raise DomainError(f"prior scale r must be finite and > 0, got {r}")
    nu, n_eff = summary.nu_bf, summary.n_eff
    k = t * t / nu
    b = 0.5 * (nu + 1.0) * k
    c = math.log(r) - 0.5 * LN_2PI
    ln_n, ln_half_r2 = math.log(n_eff), 2.0 * math.log(r) - math.log(2.0)

    def log_f(ys):
        half = 0.5 * ys
        xs = x0 + 2.0 * np.sinh(half)
        ln_shrinks = np.logaddexp(0.0, ln_n + xs)  # ln(1 + n_eff g)
        # e^(ln r^2/2 - x) is capped at e^700, where exp(h) is already 0
        prior = np.exp(np.minimum(ln_half_r2 - xs, 700.0))
        return (
            -0.5 * ln_shrinks - 0.5 * (nu + 1.0) * np.log1p(k * np.exp(-ln_shrinks))
            + c - 0.5 * xs - prior + np.log(np.cosh(half))
        )

    def slope_and_curvature(x):
        """h'(x) and h''(x), with m = n_eff g, s = 1 + m, u = m / s and
        e = (r^2 / 2) e^-x, in a form that no m below e^700 overflows."""
        m, e = math.exp(ln_n + x), math.exp(ln_half_r2 - x)
        s = 1.0 + m
        u = m / s
        slope = e - 0.5 - 0.5 * u + b * u / (s + k)
        bend = ((1.0 + k) / (s * s) - u * u) / ((s + k) * (1.0 + k / s))
        return slope, -e - 0.5 * u / s + b * u * bend

    # The peak: Newton on h' = 0 from the large-sample peak, where
    # e^x = (r^2 + t^2 / n_eff) / 2, kept inside a bracket that starts where
    # the exponentials are at most e^700 and falls back to bisection. An
    # inexact peak costs evaluations, not accuracy.
    spread = r * r + t * t / n_eff
    if spread == math.inf:
        raise DomainError(f"r^2 + t^2 / n_eff overflows a double: r={r!r}, t={t!r}")
    lo, hi = ln_half_r2 - 700.0, 700.0 - ln_n
    x0 = min(max(math.log(0.5 * spread) if spread > 0.0 else lo, lo), hi)
    for _ in range(100):
        slope, curvature = slope_and_curvature(x0)
        if slope > 0.0:
            lo = x0
        else:
            hi = x0
        x1 = x0 - slope / curvature if curvature < 0.0 else math.nan
        if not lo <= x1 <= hi:
            x1 = 0.5 * (lo + hi)
        x0, step = x1, x1 - x0
        if abs(step) < 1e-2:
            break
    # Going d below the peak, the prior term falls by e (e^d - 1) and the rest
    # of h rises by at most d; above it, h falls by about d/2 while
    # n_eff g < 1 and by about d after that.
    e = math.exp(max(ln_half_r2 - x0, -690.0))  # > 0, so the window is finite
    below = math.log1p(_G_WINDOW_DROP / e)
    below = math.log1p((_G_WINDOW_DROP + below) / e)
    above = _G_WINDOW_DROP + 1.0 + max(0.0, -(ln_n + x0))
    lo, hi = -2.0 * math.asinh(0.5 * below), 2.0 * math.asinh(0.5 * above)
    marginal = integrate(log_f, 0.5 * (lo + hi), (hi - lo) / 18.0, QUADRATURE_REL_TOL)
    ln_null = -0.5 * (nu + 1.0) * math.log1p(t * t / nu)
    return _bf_from_ln(ln_null - marginal.ln_value)


def _delta_marginal(studies, r: float):
    """ln BF10 and its quadrature for (t, nu_bf, n_eff) studies that share one
    effect size delta with a Cauchy(0, r) prior: the product of the studies'
    noncentral t densities mixed over delta, over their central t densities."""
    studies = [(t, nu, math.sqrt(n_eff)) for t, nu, n_eff in studies]
    ln_null = sum(central_t_logpdf(t, nu) for t, nu, _ in studies)

    def log_f(deltas):
        # one kernel call per study over the delta nodes, added in study order
        ln_f = sum(noncentral_t_logpdf(t, nu, root_n * deltas) for t, nu, root_n in studies)
        return cauchy_logpdf(deltas, r) + ln_f

    # Laplace guess: study i alone puts delta near t / sqrt(n_eff) with
    # precision n_eff / (1 + t^2 / (2 nu)); pool those as normal likelihoods.
    weights = [(root_n * root_n / (1.0 + t * t / (2.0 * nu)), t / root_n)
               for t, nu, root_n in studies]
    precision = sum(w for w, _ in weights)
    centre = sum(w * delta for w, delta in weights) / precision
    marginal = integrate(log_f, centre, 1.0 / math.sqrt(precision), QUADRATURE_REL_TOL)
    return marginal.ln_value - ln_null, marginal


def jzs_bf_delta_form(
    t: float, summary: TTestSummary, r: float = DEFAULT_CAUCHY_SCALE
) -> float:
    """BF10 via the marginal-likelihood integral over the effect size delta."""
    if not 0.0 < r < math.inf:
        raise DomainError(f"prior scale r must be finite and > 0, got {r}")
    return _bf_from_ln(_delta_marginal([(t, summary.nu_bf, summary.n_eff)], r)[0])


def _bf_from_ln(ln_bf: float) -> float:
    """A Bayes factor from its ln; one that a double cannot hold is an error."""
    if not abs(ln_bf) < _LN_MAX_DOUBLE:
        raise InternalConsistencyError(
            f"Bayes factor exp({ln_bf!r}) does not fit in a double"
        )
    return math.exp(ln_bf)


def posterior_prob(bf10: float, prior_h1: float) -> float:
    """P(H1 | data) from the Bayes factor and the prior P(H1)."""
    if not bf10 > 0:
        raise DomainError(f"bf10 must be > 0, got {bf10}")
    if not 0.0 <= prior_h1 <= 1.0:
        raise DomainError(f"prior_h1 must be in [0, 1], got {prior_h1}")
    num = bf10 * prior_h1
    return num / (num + (1.0 - prior_h1))


def classify_evidence(bf10: float) -> EvidenceLabel:
    """Jeffreys evidence label for a Bayes factor."""
    if not bf10 > 0:
        raise DomainError(f"bf10 must be > 0, got {bf10}")
    if bf10 == 1.0:
        direction = "exactly_even"
    elif bf10 > 1.0:
        direction = "favors_h1"
    else:
        direction = "favors_h0"
    b = max(bf10, 1.0 / bf10)
    for lower, upper, name in JEFFREYS_BINS:
        if lower <= b < upper:
            return EvidenceLabel(strength=name, direction=direction)
    return EvidenceLabel(strength="extreme", direction=direction)


def analyze_study(
    record: StudyRecord,
    config: AnalysisConfig = AnalysisConfig(),
) -> BayesFactorResult:
    """Bayes factor pipeline for a study record.

    The delta-form result is primary; the g-form serves as an independent
    cross-check and a relative disagreement above 1e-4 raises
    InternalConsistencyError.
    """
    summary = summarize(record, config)
    r = config.cauchy_scale_r
    ln_bf10, marginal = _delta_marginal([(summary.t, summary.nu_bf, summary.n_eff)], r)
    bf10 = _bf_from_ln(ln_bf10)

    bf01_check = jzs_bf_g_form(summary.t, summary, r)
    if abs(bf10 * bf01_check - 1.0) > 1e-4:
        raise InternalConsistencyError(
            f"g-form and delta-form Bayes factors disagree: "
            f"BF10={bf10!r}, 1/BF01={1.0 / bf01_check!r}"
        )

    return BayesFactorResult(
        bf10=bf10,
        bf01=1.0 / bf10,
        ln_bf10=ln_bf10,
        quadrature_error=bf10 * marginal.abs_error_estimate,
        posterior_h1=posterior_prob(bf10, config.prior_h1),
        label=classify_evidence(bf10),
        summary=summary,
    )
