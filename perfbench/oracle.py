"""Independent reference values for the benchmark's output checks.

Nothing here imports trialbayes. Single-study Bayes factors come from the
JZS integral over the prior mixing variance g (Rouder et al. 2009), taken
in x = ln g. Pooled Bayes factors integrate a product of scipy noncentral t
densities over the shared effect size; where scipy's density fails (boost
overflows or returns NaN, as for t mu < 0 at large nu) a log-space
evaluation of the density's integral form takes over, which the self-test
checks against mpmath. Both integrals use _log_integral: composite
Gauss-Legendre panels over the window around the integrand's peak, with the
panel count doubled until two sums agree. scipy supplies the densities and
the peak search, not the quadrature. The p -> t inversion uses scipy's
lower-tail Student t quantile, which stays accurate for p far below machine
epsilon.
"""

from __future__ import annotations

import math
import warnings

import mpmath
import numpy as np
from scipy import optimize, special, stats

DEFAULT_R = math.sqrt(2.0) / 2.0
_LN_2PI = math.log(2.0 * math.pi)
# Integrate ln-space integrands where they are within e^-60 of their peak.
_LOG_FLOOR = 60.0


def summary(n, p=None, t=None, design="two_sample", n2=None):
    """(t, nu, n_eff) under the library's documented conventions.

    Two-sample studies with equal arms read n as the size of each arm:
    nu = 2n - 2 and n_eff = n / 2, while a p-value is inverted with
    nu = n - 1. One-sample studies use nu = n - 1 and n_eff = n. With
    unequal arms (n, n2), nu = n + n2 - 2 and n_eff = n n2 / (n + n2).
    """
    if n2 is not None:
        nu = inv_nu = float(n + n2 - 2)
        n_eff = n * n2 / (n + n2)
    elif design == "two_sample":
        inv_nu, nu, n_eff = float(n - 1), float(2 * n - 2), n / 2.0
    else:
        inv_nu = nu = float(n - 1)
        n_eff = float(n)
    if t is None:
        t = max(-float(special.stdtrit(inv_nu, p / 2.0)), 0.0)
    return float(t), nu, n_eff


def p_value(n, t):
    """Two-sided p of t at the inversion's nu = n - 1, as in summary()."""
    return float(2.0 * stats.t.sf(abs(t), float(n - 1)))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(20)


def _log_integral(h, lo, hi):
    """ln of the integral of exp(h) over the real line.

    h maps an array of abscissae to ln integrand values and is unimodal.
    The peak is found on a grid that widens until it holds the peak, then
    polished; the window where h is within _LOG_FLOOR of the peak is
    integrated with composite Gauss-Legendre panels, doubling the panel
    count until two successive sums agree to 1e-10. (scipy's noncentral t
    density carries ~1e-11 relative noise, so a tighter target may never be
    met; 1e-10 is still far inside checks.LN_BF_TOL.)
    """
    for _ in range(20):
        grid = np.linspace(lo, hi, 241)
        values = h(grid)
        i = int(np.nanargmax(values))
        if 0 < i < len(grid) - 1:
            break
        span = hi - lo
        lo, hi = (lo - span, hi) if i == 0 else (lo, hi + span)
    step = grid[1] - grid[0]
    res = optimize.minimize_scalar(
        lambda x: -float(h(np.array([x]))[0]), bounds=(grid[i] - step, grid[i] + step),
        method="bounded", options={"xatol": 1e-10 * (1.0 + abs(grid[i]))},
    )
    top = max(-float(res.fun), float(values[i]))
    inside = np.nonzero(values > top - _LOG_FLOOR)[0]
    a = grid[max(inside[0] - 1, 0)]
    b = grid[min(inside[-1] + 1, len(grid) - 1)]
    while h(np.array([a]))[0] > top - _LOG_FLOOR:
        a -= b - a
    while h(np.array([b]))[0] > top - _LOG_FLOOR:
        b += b - a
    previous = None
    panels = 8
    while True:
        edges = np.linspace(a, b, panels + 1)
        half = 0.5 * np.diff(edges)
        mid = 0.5 * (edges[1:] + edges[:-1])
        x = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
        w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
        total = float(np.dot(w, np.exp(h(x) - top)))
        if previous is not None and abs(total - previous) <= 1e-10 * total:
            return top + math.log(total)
        if panels >= 4096:
            raise ArithmeticError("reference quadrature did not converge")
        previous = total
        panels *= 2


def ln_bf10(t, nu, n_eff, r=DEFAULT_R):
    """ln BF10 of the JZS test from the integral over x = ln g."""
    ln_null = -0.5 * (nu + 1.0) * math.log1p(t * t / nu)
    c = math.log(r) - 0.5 * _LN_2PI

    def h(x):
        shrink = 1.0 + n_eff * np.exp(x)
        return (
            -0.5 * np.log(shrink)
            - 0.5 * (nu + 1.0) * np.log1p(t * t / (shrink * nu))
            + c - 0.5 * x - 0.5 * r * r * np.exp(-x)
        )

    return _log_integral(h, -30.0, 30.0) - ln_null


def nct_logpdf_mpmath(t, nu, mu):
    """ln noncentral t density from its 1F1 closed form in 50-digit mpmath.

    Slow; the self-test uses it to check the fallback below.
    """
    with mpmath.workdps(50):
        t, nu, mu = mpmath.mpf(t), mpmath.mpf(nu), mpmath.mpf(mu)
        s = nu + t * t
        z = mu * mu * t * t / (2 * s)
        front = (
            nu / 2 * mpmath.log(nu) + mpmath.loggamma(nu + 1) - mu * mu / 2
            - nu * mpmath.log(2) - nu / 2 * mpmath.log(s) - mpmath.loggamma(nu / 2)
        )
        odd = (mpmath.sqrt(2) * mu * t / s * mpmath.hyp1f1(nu / 2 + 1, 1.5, z)
               / mpmath.gamma((nu + 1) / 2))
        even = (mpmath.hyp1f1((nu + 1) / 2, 0.5, z)
                / (mpmath.sqrt(s) * mpmath.gamma(nu / 2 + 1)))
        return float(front + mpmath.log(odd + even))


def _nct_logpdf_integral(t, nu, mu):
    """ln noncentral t density from its integral form, for where scipy fails.

    f(t) = K(t) * int_0^inf x^nu exp(-(x - a)^2 / 2) dx with
    a = mu t / sqrt(t^2 + nu) (Johnson, Kotz & Balakrishnan 1995, ch. 31).
    The integrand is positive, so unlike the closed form it does not cancel
    when t mu < 0. It is integrated in log space with Gauss-Legendre panels
    around its peak, doubling the panels until the sum settles to 1e-12.
    """
    s = t * t + nu
    a = mu * t / np.sqrt(s)
    peak = 0.5 * (a + np.sqrt(a * a + 4.0 * nu))
    sigma = 1.0 / np.sqrt(1.0 + nu / (peak * peak))
    lo = np.maximum(0.0, peak - 25.0 * sigma)
    hi = peak + 25.0 * sigma
    top = nu * np.log(peak) - 0.5 * (peak - a) ** 2
    previous = None
    panels = 16
    while True:
        u = (np.arange(panels)[:, None] + 0.5 * (1.0 + _GL_NODES[None, :])).ravel() / panels
        x = lo[:, None] + (hi - lo)[:, None] * u[None, :]
        w = np.tile(_GL_WEIGHTS, panels)[None, :] * (0.5 * (hi - lo) / panels)[:, None]
        # ln of the integrand relative to its peak, without cancelling large terms
        d = x - peak[:, None]
        with np.errstate(divide="ignore"):
            log_f = (nu[:, None] * np.log1p(d / peak[:, None])
                     - 0.5 * d * (x + peak[:, None] - 2.0 * a[:, None]))
        total = np.sum(w * np.exp(log_f), axis=1)
        if previous is not None and np.all(np.abs(total - previous) <= 1e-12 * total):
            break
        if panels >= 1024:
            raise ArithmeticError("noncentral t reference integral did not converge")
        previous = total
        panels *= 2
    log_k = (
        0.5 * nu * np.log(nu) - nu * mu * mu / (2.0 * s) - 0.5 * math.log(math.pi)
        - special.gammaln(0.5 * nu) - 0.5 * (nu - 1.0) * math.log(2.0)
        - 0.5 * (nu + 1.0) * np.log(s)
    )
    return log_k + top + np.log(total)


def nct_logpdf(t, nu, mu):
    """Vectorised ln noncentral t density: scipy, the integral where it fails."""
    t, nu, mu = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (t, nu, mu)))
    flat = [np.ascontiguousarray(v).ravel() for v in (t, nu, mu)]
    try:
        with warnings.catch_warnings(), np.errstate(all="ignore"):
            warnings.simplefilter("ignore")
            out = np.array(stats.nct.logpdf(*flat), dtype=float)
    except (OverflowError, SystemError):  # boost overflows; SystemError: while warning
        out = np.full(flat[0].shape, np.nan)
    bad = ~np.isfinite(out)
    if bad.any():
        out[bad] = _nct_logpdf_integral(*(v[bad] for v in flat))
    return out.reshape(t.shape)


def meta_ln_bf10(studies, r=DEFAULT_R):
    """ln BF10 for a common effect size delta shared by (t, nu, n_eff) studies."""
    t = np.array([s[0] for s in studies])
    nu = np.array([s[1] for s in studies])
    root_n = np.sqrt(np.array([s[2] for s in studies]))
    ln_null = float(np.sum(stats.t.logpdf(t, nu)))

    def h(delta):
        prior = -math.log(math.pi * r) - np.log1p((delta / r) ** 2)
        likelihood = sum(nct_logpdf(t[i], nu[i], delta * root_n[i]) for i in range(len(t)))
        return prior + likelihood - ln_null

    centre = float(np.sum(t * root_n) / np.sum(root_n ** 2))
    width = 16.0 / math.sqrt(float(np.sum(root_n ** 2)))
    return _log_integral(h, centre - width, centre + width)
