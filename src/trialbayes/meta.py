"""Meta-analytic Bayes factor for a common effect size across studies.

Compares delta = 0 against a single shared standardized effect delta with a
Cauchy prior, using products of (non)central t densities over the M input
studies. The integral is the engine's delta marginal, the same one behind
the single-study Bayes factor, so a pool of one study gives exactly that
study's BF10; it sums the densities in log space, so large M cannot
underflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .engine import (
    DEFAULT_CAUCHY_SCALE,
    TTestSummary,
    _bf_from_ln,
    _delta_marginal,
    posterior_prob,
)
from .numerics import DomainError

__all__ = ["MetaInput", "MetaResult", "meta_bf"]


@dataclass(frozen=True)
class MetaInput:
    studies: tuple[TTestSummary, ...]
    r: float = DEFAULT_CAUCHY_SCALE

    def __post_init__(self):
        if len(self.studies) < 1:
            raise DomainError("meta-analysis requires at least one study")
        if not 0.0 < self.r < math.inf:
            raise DomainError(f"prior scale r must be finite and > 0, got {self.r}")
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
    two-sided Cauchy prior, by the engine's delta marginal; one study gives
    exactly the single-study Bayes factor.
    """
    ln_bf10, marginal = _delta_marginal(
        [(s.t, s.nu_bf, s.n_eff) for s in data.studies], data.r
    )
    bf10 = _bf_from_ln(ln_bf10)
    return MetaResult(
        bf10=bf10,
        bf01=1.0 / bf10,
        posterior_h1=posterior_prob(bf10, prior_h1),
        quadrature_error=bf10 * marginal.abs_error_estimate,
    )
