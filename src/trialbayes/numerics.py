"""Numerical kernel: special functions and adaptive quadrature.

Everything downstream (t statistics, Bayes factors, meta-analysis) is built
on the functions in this module. All routines are pure, deterministic and
implemented with double precision scalars plus fixed Gauss-Legendre node
tables, so identical inputs always give bit-identical outputs.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "DomainError",
    "NonConvergenceError",
    "Interval",
    "QuadratureResult",
    "reg_inc_beta",
    "student_t_cdf",
    "student_t_quantile",
    "central_t_pdf",
    "central_t_logpdf",
    "noncentral_t_logpdf",
    "cauchy_logpdf",
    "integrate",
]

LN_2PI = math.log(2.0 * math.pi)


class DomainError(ValueError):
    """Input outside the mathematical domain of a function."""


class NonConvergenceError(RuntimeError):
    """Adaptive refinement exhausted its evaluation budget."""


class IntervalKind(Enum):
    FINITE = "finite"
    HALF_LINE_POSITIVE = "half_line_positive"
    REAL_LINE = "real_line"


@dataclass(frozen=True)
class Interval:
    """Integration domain: a finite segment, (0, inf), or the whole line."""

    kind: IntervalKind
    a: float = 0.0
    b: float = 0.0

    @classmethod
    def finite(cls, a: float, b: float) -> "Interval":
        if not a < b:
            raise DomainError(f"finite interval requires a < b, got [{a}, {b}]")
        return cls(IntervalKind.FINITE, float(a), float(b))

    @classmethod
    def half_line_positive(cls) -> "Interval":
        return cls(IntervalKind.HALF_LINE_POSITIVE)

    @classmethod
    def real_line(cls) -> "Interval":
        return cls(IntervalKind.REAL_LINE)


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


# ---------------------------------------------------------------------------
# Gamma / beta special functions
# ---------------------------------------------------------------------------

def _beta_cf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 300):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            return h
    raise NonConvergenceError(
        f"incomplete beta continued fraction failed for a={a}, b={b}, x={x}"
    )


def reg_inc_beta(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if not (a > 0 and b > 0):
        raise DomainError(f"reg_inc_beta requires a, b > 0, got a={a}, b={b}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"reg_inc_beta requires 0 <= x <= 1, got x={x}")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    ln_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    front = math.exp(ln_front)
    # Continued fraction converges fast on one side of the mean a/(a+b).
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_cf(a, b, x) / a
    return 1.0 - front * _beta_cf(b, a, 1.0 - x) / b


# ---------------------------------------------------------------------------
# Student t distribution
# ---------------------------------------------------------------------------

def student_t_cdf(t: float, nu: float) -> float:
    """CDF of the central Student t distribution with nu > 0 df."""
    if not nu > 0:
        raise DomainError(f"student_t_cdf requires nu > 0, got {nu}")
    if t == 0.0:
        return 0.5
    x = nu / (nu + t * t)
    tail = 0.5 * reg_inc_beta(0.5 * nu, 0.5, x)
    return tail if t < 0.0 else 1.0 - tail


def central_t_logpdf(t: float, nu: float) -> float:
    if not nu > 0:
        raise DomainError(f"central_t_pdf requires nu > 0, got {nu}")
    return (
        math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - 0.5 * (nu + 1.0) * math.log1p(t * t / nu)
    )


def central_t_pdf(t: float, nu: float) -> float:
    """Density of the central Student t distribution."""
    return math.exp(central_t_logpdf(t, nu))


def student_t_quantile(q: float, nu: float) -> float:
    """Inverse CDF of the Student t distribution.

    Bisection narrows the root of student_t_cdf(t) = q to a 1e-3 bracket,
    then Newton steps using the t density polish it to full precision.
    """
    if not nu > 0:
        raise DomainError(f"student_t_quantile requires nu > 0, got {nu}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"student_t_quantile requires 0 < q < 1, got {q}")
    if q == 0.5:
        return 0.0
    # Work with the upper-tail magnitude and restore the sign at the end.
    qq = max(q, 1.0 - q)
    lo, hi = 0.0, 1.0
    while student_t_cdf(hi, nu) < qq:
        lo = hi
        hi *= 2.0
        if hi > 1e300:
            raise NonConvergenceError(
                f"quantile bracket expansion failed for q={q}, nu={nu}"
            )
    while hi - lo > 1e-3:
        mid = 0.5 * (lo + hi)
        if student_t_cdf(mid, nu) < qq:
            lo = mid
        else:
            hi = mid
    t = 0.5 * (lo + hi)
    for _ in range(60):
        err = student_t_cdf(t, nu) - qq
        if err > 0.0:
            hi = min(hi, t)
        elif err < 0.0:
            lo = max(lo, t)
        step = err / central_t_pdf(t, nu)
        t_new = t - step
        if not lo <= t_new <= hi:
            t_new = 0.5 * (lo + hi)
        if abs(t_new - t) <= 1e-15 * (1.0 + abs(t_new)):
            t = t_new
            break
        t = t_new
    return t if q > 0.5 else -t


# ---------------------------------------------------------------------------
# Noncentral t density
# ---------------------------------------------------------------------------

# The noncentral t variable is (Z + mu) / (chi_nu / sqrt(nu)). Conditioning
# on q = chi_nu / sqrt(nu) gives a single smooth positive integrand
#     exp(L(q)) with L(q) = ln f_Q(q) + ln phi(t q - mu),
# which we integrate with fixed Gauss-Legendre panels centered on the peak
# of L. All arithmetic stays in log space so extreme noncentralities only
# underflow the final exp, never the intermediate sums.

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(64)
_NCT_PANELS = 10
_NCT_HALF_WIDTH = 18.0  # integration window half-width in peak sigmas


def _nct_panel_edges(t: float, nu: float, mu: float) -> np.ndarray:
    """Panel edges covering the peak of the conditional-on-chi integrand."""
    # Peak of L(q): root of nu/q - nu*q - t*(t*q - mu) = 0.
    disc = t * t * mu * mu + 4.0 * (nu + t * t) * nu
    q_peak = (t * mu + math.sqrt(disc)) / (2.0 * (nu + t * t))
    curvature = nu / (q_peak * q_peak) + nu + t * t
    sigma = 1.0 / math.sqrt(curvature)
    lo = max(0.0, q_peak - _NCT_HALF_WIDTH * sigma)
    hi = q_peak + _NCT_HALF_WIDTH * sigma

    edges = set(np.linspace(lo, hi, _NCT_PANELS + 1).tolist())
    if lo == 0.0 and t * mu < 0.0:
        # Density mass hugs q = 0 and decays on the scale 1/|t mu|, which can
        # be far finer (or coarser) than sigma; cover both with a geometric
        # ladder of panels growing away from the boundary.
        rate = -t * mu
        hi = max(hi, 45.0 / rate)
        h = 0.5 * min(sigma, 1.0 / (1.0 + rate))
        while h < hi:
            edges.add(h)
            h *= 2.0
        edges.add(hi)
    edges = sorted(edges)
    if edges[0] == 0.0:
        # q^nu has a branch point at q = 0 for non-integer nu; grade the
        # mesh geometrically toward the origin to keep per-panel integrands
        # smooth for Gauss-Legendre.
        first = edges[1]
        edges = [first * 0.5**k for k in range(30, 0, -1)] + edges[1:]
        edges.insert(0, 0.0)
    return np.array(edges)


def noncentral_t_logpdf(t: float, nu: float, mu: float) -> float:
    """Log density of the noncentral t distribution with noncentrality mu."""
    if not nu > 0:
        raise DomainError(f"noncentral_t_logpdf requires nu > 0, got {nu}")
    if mu == 0.0:
        return central_t_logpdf(t, nu)
    edges = _nct_panel_edges(t, nu, mu)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    q = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()

    ln_norm = (
        0.5 * math.log(nu) - (0.5 * nu - 1.0) * math.log(2.0)
        - math.lgamma(0.5 * nu) - 0.5 * LN_2PI
    )
    with np.errstate(divide="ignore"):
        ln_q = np.log(q, where=q > 0.0, out=np.full_like(q, -np.inf))
    z = t * q - mu
    # ln[ q * f_Q(q) * phi(t q - mu) ] with f_Q the density of chi_nu/sqrt(nu);
    # the leading q is the Jacobian of t -> z = t q - mu.
    log_f = (
        ln_norm
        + (nu - 1.0) * 0.5 * math.log(nu)
        + nu * ln_q
        - 0.5 * nu * q * q
        - 0.5 * z * z
    )
    peak = float(np.max(log_f))
    if peak == -math.inf:
        return -math.inf
    total = float(np.dot(w, np.exp(log_f - peak)))
    if total <= 0.0:
        return -math.inf
    return peak + math.log(total)


# ---------------------------------------------------------------------------
# Cauchy density
# ---------------------------------------------------------------------------

def cauchy_logpdf(x: float, scale: float) -> float:
    """Log density of the zero-centered Cauchy distribution."""
    if not scale > 0:
        raise DomainError(f"cauchy_logpdf requires scale > 0, got {scale}")
    u = x / scale
    return -math.log(math.pi * scale) - math.log1p(u * u)


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature
# ---------------------------------------------------------------------------

# 15-point Kronrod extension of 7-point Gauss (nodes on [-1, 1]).
_GK_NODES = (
    0.991455371120813, -0.991455371120813,
    0.949107912342759, -0.949107912342759,
    0.864864423359769, -0.864864423359769,
    0.741531185599394, -0.741531185599394,
    0.586087235467691, -0.586087235467691,
    0.405845151377397, -0.405845151377397,
    0.207784955007898, -0.207784955007898,
    0.0,
)
_GK_WEIGHTS_K = (
    0.022935322010529, 0.022935322010529,
    0.063092092629979, 0.063092092629979,
    0.104790010322250, 0.104790010322250,
    0.140653259715525, 0.140653259715525,
    0.169004726639267, 0.169004726639267,
    0.190350578064785, 0.190350578064785,
    0.204432940075298, 0.204432940075298,
    0.209482141084728,
)
_GK_WEIGHTS_G = (
    0.0, 0.0,
    0.129484966168870, 0.129484966168870,
    0.0, 0.0,
    0.279705391489277, 0.279705391489277,
    0.0, 0.0,
    0.381830050505119, 0.381830050505119,
    0.0, 0.0,
    0.417959183673469,
)

_INITIAL_PANELS = 8


def _gk15(f, a: float, b: float) -> tuple[float, float]:
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    g7 = 0.0
    k15 = 0.0
    for xi, wk, wg in zip(_GK_NODES, _GK_WEIGHTS_K, _GK_WEIGHTS_G):
        fx = f(mid + half * xi)
        k15 += wk * fx
        g7 += wg * fx
    diff = abs(k15 - g7) * half
    err = min(diff, (200.0 * diff) ** 1.5) if diff > 0.0 else 0.0
    return k15 * half, err


def _to_unit_interval(f, domain: Interval):
    """Map an improper domain onto (0, 1), folding in the Jacobian."""
    if domain.kind is IntervalKind.FINITE:
        return f, domain.a, domain.b
    if domain.kind is IntervalKind.HALF_LINE_POSITIVE:
        # g = u / (1 - u), dg = du / (1 - u)^2
        def wrapped(u: float) -> float:
            s = 1.0 - u
            if s <= 0.0:  # node rounded onto the endpoint
                return 0.0
            fx = f(u / s)
            return 0.0 if fx == 0.0 else fx / (s * s)

        return wrapped, 0.0, 1.0
    # delta = tan(pi (u - 1/2)), d(delta) = pi sec^2(pi (u - 1/2)) du
    def wrapped(u: float) -> float:
        theta = math.pi * (u - 0.5)
        c = math.cos(theta)
        if c == 0.0:  # node rounded onto the endpoint
            return 0.0
        fx = f(math.tan(theta))
        if fx == 0.0:
            return 0.0
        return fx * math.pi / (c * c)

    return wrapped, 0.0, 1.0


def integrate(
    f,
    domain: Interval,
    rel_tol: float = 1e-8,
    max_evaluations: int = 10**6,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod quadrature over a possibly improper domain.

    Half-line and real-line domains are first transformed onto (0, 1); the
    worst panel (largest local error estimate) is bisected until the summed
    error estimate satisfies the requested relative tolerance.
    """
    if not rel_tol > 0:
        raise DomainError(f"integrate requires rel_tol > 0, got {rel_tol}")
    g, a, b = _to_unit_interval(f, domain)

    evaluations = 0
    heap: list[tuple[float, float, float, float, float]] = []
    edges = [a + (b - a) * i / _INITIAL_PANELS for i in range(_INITIAL_PANELS + 1)]
    total = 0.0
    total_err = 0.0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _gk15(g, lo, hi)
        evaluations += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, lo, hi, val, err))

    while total_err > rel_tol * abs(total) + 1e-300:
        if evaluations + 30 > max_evaluations:
            raise NonConvergenceError(
                f"quadrature budget of {max_evaluations} evaluations exhausted "
                f"(value={total!r}, error={total_err!r})"
            )
        _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        val_l, err_l = _gk15(g, lo, mid)
        val_r, err_r = _gk15(g, mid, hi)
        evaluations += 30
        total += (val_l + val_r) - val
        total_err += (err_l + err_r) - err
        heapq.heappush(heap, (-err_l, lo, mid, val_l, err_l))
        heapq.heappush(heap, (-err_r, mid, hi, val_r, err_r))
        if not math.isfinite(total):
            raise NonConvergenceError("integrand produced a non-finite panel value")

    return QuadratureResult(
        value=total,
        abs_error_estimate=max(total_err, 0.0),
        evaluations=evaluations,
    )
