"""Numerical kernel: special functions and log-space quadrature.

Everything downstream (t statistics, Bayes factors, meta-analysis) is built
on the functions in this module. All routines are pure, deterministic and
implemented with double precision scalars plus one fixed Gauss-Legendre
node table, so identical inputs always give bit-identical outputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "NonConvergenceError",
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
    """A quadrature or iteration exhausted its evaluation budget."""


@dataclass(frozen=True)
class QuadratureResult:
    """ln of an integral, the estimated absolute error of that ln (which is
    the relative error of the integral) and the integrand evaluations spent."""

    ln_value: float
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
# Composite Gauss-Legendre rule in log space
# ---------------------------------------------------------------------------

# One 20-node rule serves the noncentral t density and integrate().
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Abscissae and weights of the rule on each panel between the edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return x, w


def _log_sum(log_f: np.ndarray, w: np.ndarray) -> float:
    """ln sum_i w_i exp(log_f_i), with the largest term factored out."""
    peak = float(np.max(log_f))
    if peak == -math.inf:
        return peak
    return peak + math.log(float(np.dot(w, np.exp(log_f - peak))))


# ---------------------------------------------------------------------------
# Noncentral t density
# ---------------------------------------------------------------------------

# The noncentral t variable is (Z + mu) / (chi_nu / sqrt(nu)). Conditioning
# on q = chi_nu / sqrt(nu) gives a single smooth positive integrand
#     exp(L(q)) with L(q) = ln f_Q(q) + ln phi(t q - mu),
# which we integrate with fixed Gauss-Legendre panels centered on the peak
# of L. All arithmetic stays in log space so extreme noncentralities only
# underflow the final exp, never the intermediate sums.

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
    q, w = _panel_nodes(_nct_panel_edges(t, nu, mu))

    ln_norm = (
        0.5 * math.log(nu) - (0.5 * nu - 1.0) * math.log(2.0)
        - math.lgamma(0.5 * nu) - 0.5 * LN_2PI
    )
    ln_q = np.log(q)  # Gauss-Legendre nodes are interior, so q > 0
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
    return _log_sum(log_f, w)


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
# Quadrature over the real line
# ---------------------------------------------------------------------------

_LN_DROP = 36.0  # the window ends lie this far below the peak (e^-36 ~ 2e-16)
_MAX_EVALUATIONS = 200_000


def integrate(log_f, centre: float, scale: float, rel_tol: float = 1e-8) -> QuadratureResult:
    """ln of the integral of exp(log_f(x)) over the real line.

    log_f maps a 1-D float array of abscissae to their ln integrand values.
    The 20-node rule starts on two panels spanning centre +- 9 scales; while
    an outermost node is within _LN_DROP of the peak, a panel doubling that
    side's extent is added. Then every panel is halved until two successive
    ln sums agree to rel_tol. centre and scale only place the first window:
    a poor guess costs evaluations, not accuracy. Needing more than
    _MAX_EVALUATIONS raises NonConvergenceError.
    """
    if not (rel_tol > 0 and 0.0 < scale < math.inf and math.isfinite(centre)):
        raise DomainError(
            f"integrate requires rel_tol > 0, scale > 0 and a finite centre, "
            f"got {rel_tol}, {scale}, {centre}"
        )
    evaluations = 0

    def evaluate(edges) -> tuple[np.ndarray, np.ndarray]:
        """ln integrand values and weights of the rule on the panels."""
        nonlocal evaluations
        x, w = _panel_nodes(np.asarray(edges))
        evaluations += len(x)
        if evaluations > _MAX_EVALUATIONS:
            raise NonConvergenceError(
                f"quadrature budget of {_MAX_EVALUATIONS} evaluations exhausted"
            )
        values = np.asarray(log_f(x), dtype=float)
        if not np.all(values < math.inf):
            raise NonConvergenceError("integrand produced a NaN or infinite ln value")
        return values, w

    edges = [centre - 9.0 * scale, centre, centre + 9.0 * scale]
    values, weights = evaluate(edges)
    ends = values[[0, -1]]  # at the outermost nodes, low side first
    while np.any(ends > np.max(values) - _LN_DROP):
        side = 0 if ends[0] > np.max(values) - _LN_DROP else -1
        outer = 2.0 * edges[side] - centre
        v, w = evaluate(sorted([edges[side], outer]))
        edges.insert(len(edges) if side else 0, outer)
        ends[side] = v[side]
        values, weights = np.concatenate([values, v]), np.concatenate([weights, w])

    total = _log_sum(values, weights)
    edges = np.array(edges)
    while True:
        edges = np.insert(edges, range(1, len(edges)), 0.5 * (edges[1:] + edges[:-1]))
        refined = _log_sum(*evaluate(edges))
        error = abs(refined - total)
        if error <= rel_tol:
            return QuadratureResult(refined, error, evaluations)
        total = refined
