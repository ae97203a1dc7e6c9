"""Meta-analytic Bayes factor for a common effect size across studies.

Compares delta = 0 against a single shared standardized effect delta with a
Cauchy prior, using products of (non)central t densities over the M input
studies. Per-study density products are accumulated in log space so large M
cannot underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import DEFAULT_CAUCHY_SCALE, TTestSummary, _bf_from_ln, posterior_prob
from .numerics import (
    DomainError,
    cauchy_logpdf,
    central_t_logpdf,
    integrate,
    noncentral_t_logpdf,
)

__all__ = ["MetaInput", "MetaResult", "meta_bf"]

@dataclass(frozen=True)
class MetaInput:
    studies: tuple[TTestSummary, ...]
    r: float = DEFAULT_CAUCHY_SCALE

    def __post_init__(self):
        if len(self.studies) < 1:
            raise DomainError("meta-analysis requires at least one study")
        if not self.r > 0:
            raise DomainError(f"prior scale r must be > 0, got {self.r}")
        object.__setattr__(self, "studies", tuple(self.studies))


@dataclass(frozen=True)
class MetaResult:
    bf10: float
    bf01: float
    posterior_h1: float
    quadrature_error: float


def meta_bf(data: MetaInput, prior_h1: float = 0.5) -> MetaResult:
    """Combined Bayes factor across the input studies.

    The shared effect size is integrated over the full real line under a
    two-sided Cauchy prior.
    """
    studies = [(s.t, s.nu_bf, math.sqrt(s.n_eff)) for s in data.studies]
    ln_null = sum(central_t_logpdf(t, nu) for t, nu, _ in studies)
    r = data.r

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
    marginal = integrate(log_f, centre, 1.0 / math.sqrt(precision), 1e-8)
    bf10 = _bf_from_ln(marginal.ln_value - ln_null)
    return MetaResult(
        bf10=bf10,
        bf01=1.0 / bf10,
        posterior_h1=posterior_prob(bf10, prior_h1),
        quadrature_error=bf10 * marginal.abs_error_estimate,
    )
