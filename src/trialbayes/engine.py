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
import sys
from dataclasses import dataclass, field

from .numerics import (
    LN_2PI,
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

QUADRATURE_REL_TOL = 1e-8  # every Bayes factor integral, in ln

_LN_MAX_DOUBLE = math.log(sys.float_info.max)  # ln BF beyond +-this has no float

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
        if not (self.nu_inversion > 0 and self.nu_bf > 0 and self.n_eff > 0):
            raise DomainError(f"invalid t-test summary: {self}")


@dataclass(frozen=True)
class AnalysisConfig:
    cauchy_scale_r: float = DEFAULT_CAUCHY_SCALE
    prior_h1: float = 0.5
    sidedness: str = TWO_SIDED

    def __post_init__(self):
        if not self.cauchy_scale_r > 0:
            raise DomainError(f"cauchy_scale_r must be > 0, got {self.cauchy_scale_r}")
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
    """Recover the (nonnegative) t statistic from a published p-value."""
    if not 0.0 < p < 1.0:
        raise DomainError(f"p must lie in (0, 1), got {p}")
    if sidedness == TWO_SIDED:
        q = 1.0 - p / 2.0
    elif sidedness == ONE_SIDED:
        q = 1.0 - p
    else:
        raise DomainError(f"unknown sidedness {sidedness!r}")
    if q == 1.0:
        raise DomainError(f"p={p} too small to invert in double precision")
    return max(student_t_quantile(q, nu), 0.0)


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
    """B01 via the JZS integral over the prior mixing variance g, in x = ln g."""
    if not r > 0:
        raise DomainError(f"prior scale r must be > 0, got {r}")
    nu, n_eff = summary.nu_bf, summary.n_eff
    c = math.log(r) - 0.5 * LN_2PI
    half_r2 = 0.5 * r * r

    def log_f(xs):
        shrinks = [1.0 + n_eff * math.exp(x) for x in xs]
        return [
            -0.5 * math.log(s) - 0.5 * (nu + 1.0) * math.log1p(t * t / (s * nu))
            + c - 0.5 * x - half_r2 * math.exp(-x)
            for x, s in zip(xs, shrinks)
        ]

    # Near its peak the integrand is about exp(-x - (r^2 + t^2/n_eff) e^-x / 2),
    # which peaks at that e^x and has unit width; above it, it falls like
    # e^-x, and integrate widens the window on that side.
    marginal = integrate(log_f, math.log(0.5 * (r * r + t * t / n_eff)), 0.5,
                         QUADRATURE_REL_TOL)
    ln_null = -0.5 * (nu + 1.0) * math.log1p(t * t / nu)
    return _bf_from_ln(ln_null - marginal.ln_value)


def _delta_marginal(studies, r: float):
    """ln BF10 and its quadrature for (t, nu_bf, n_eff) studies that share one
    effect size delta with a Cauchy(0, r) prior: the product of the studies'
    noncentral t densities mixed over delta, over their central t densities."""
    studies = [(t, nu, math.sqrt(n_eff)) for t, nu, n_eff in studies]
    ln_null = sum(central_t_logpdf(t, nu) for t, nu, _ in studies)

    def log_f(deltas):
        return [
            cauchy_logpdf(d, r)
            + sum(noncentral_t_logpdf(t, nu, d * root_n) for t, nu, root_n in studies)
            for d in deltas
        ]

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
    if not r > 0:
        raise DomainError(f"prior scale r must be > 0, got {r}")
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
