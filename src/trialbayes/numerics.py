"""Numerical kernel: special functions and log-space quadrature.

Everything downstream (t statistics, Bayes factors, meta-analysis) is built
on the functions in this module. All routines are pure, deterministic and
implemented with double precision arithmetic plus one fixed Gauss-Legendre
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
        raise DomainError(f"central_t_logpdf requires nu > 0, got {nu}")
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

# One 20-node rule serves the noncentral t density and integrate(). These are
# the values of numpy.polynomial.legendre.leggauss(20), bit for bit, written
# out so that importing this module loads no polynomial or eigen-solver code.
_GL_NODES = np.array([
    -0.993128599185095, -0.9639719272779138, -0.912234428251326,
    -0.8391169718222188, -0.7463319064601508, -0.636053680726515,
    -0.5108670019508271, -0.37370608871541955, -0.22778585114164507,
    -0.07652652113349734, 0.07652652113349734, 0.22778585114164507,
    0.37370608871541955, 0.5108670019508271, 0.636053680726515,
    0.7463319064601508, 0.8391169718222188, 0.912234428251326,
    0.9639719272779138, 0.993128599185095,
])
_GL_WEIGHTS = np.array([
    0.017614007139150893, 0.040601429800386446, 0.06267204833410879,
    0.08327674157670471, 0.1019301198172407, 0.1181945319615186,
    0.1316886384491769, 0.1420961093183824, 0.14917298647260424,
    0.15275338713072628, 0.15275338713072628, 0.14917298647260424,
    0.1420961093183824, 0.1316886384491769, 0.1181945319615186,
    0.1019301198172407, 0.08327674157670471, 0.06267204833410879,
    0.040601429800386446, 0.017614007139150893,
])


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


def _scalar_or_array(values: np.ndarray):
    """A float for a 0-d result, else the array."""
    return float(values) if values.ndim == 0 else values


# ---------------------------------------------------------------------------
# Noncentral t density
# ---------------------------------------------------------------------------

# The noncentral t variable is (Z + mu) / (chi_nu / sqrt(nu)). Conditioning
# on q = chi_nu / sqrt(nu) gives a single smooth positive integrand
#     exp(L(q)) with L(q) = ln f_Q(q) + ln phi(t q - mu),
# which we integrate with fixed Gauss-Legendre panels centered on the peak
# of L. All arithmetic stays in log space so extreme noncentralities only
# underflow the final exp, never the intermediate sums.
#
# Each density has its own mesh: _NCT_PANELS equal panels over the peak
# +- _NCT_HALF_WIDTH sigmas, cut at q = 0. Where the cut happens the first
# panel is split geometrically toward 0, and where t * mu < 0 a doubling
# ladder of edges is merged in as well. Densities are evaluated in blocks
# of _NCT_ROWS meshes and _NCT_NODES abscissae, so that no temporary grows
# with the number of densities asked for.

_NCT_PANELS = 10
_NCT_HALF_WIDTH = 18.0  # integration window half-width in peak sigmas
_NCT_STEPS = np.arange(_NCT_PANELS + 1.0)[:, None]  # window edge j is lo + j*step
_NCT_GRADES = 0.5 ** np.arange(30.0, 0.0, -1.0)[:, None]  # [0, first] split at first/2^k
_NCT_ROWS = 64  # densities whose meshes are built together
_NCT_NODES = 4096  # abscissae evaluated together: 32 KiB per temporary
_NCT_RULE = _GL_NODES[:, None]  # axis 1 of the (panel, node, density) arrays
_LN_NEGLIGIBLE = -700.0  # a term this far below the peak's cannot move a sum


def _nct_log_constant(nu: float) -> float:
    """ln of the factors of the integrand that do not depend on q."""
    ln_norm = (
        0.5 * math.log(nu) - (0.5 * nu - 1.0) * math.log(2.0)
        - math.lgamma(0.5 * nu) - 0.5 * LN_2PI
    )
    return ln_norm + (nu - 1.0) * 0.5 * math.log(nu)


def _nct_graded(edges: np.ndarray) -> np.ndarray:
    """Meshes starting at q = 0 with their first panel split toward 0.

    q^nu has a branch point at q = 0 for non-integer nu; halving the mesh
    30 times toward the origin keeps each panel's integrand smooth.
    """
    return np.concatenate([edges[:1], edges[1:2] * _NCT_GRADES, edges[1:]])


def _nct_rows(t: float, nu: float, mu: np.ndarray, c: float) -> np.ndarray:
    """ln f for one block of densities that share t, nu and
    c = _nct_log_constant(nu) and differ in the 1-D array mu."""
    tt = t * t
    # Peak of L(q): root of nu/q - nu*q - t*(t*q - mu) = 0.
    disc = tt * mu * mu + 4.0 * (nu + tt) * nu
    q_peak = (t * mu + np.sqrt(disc)) / (2.0 * (nu + tt))
    sigma = 1.0 / np.sqrt(nu / (q_peak * q_peak) + nu + tt)
    lo = np.maximum(q_peak - _NCT_HALF_WIDTH * sigma, 0.0)
    hi = q_peak + _NCT_HALF_WIDTH * sigma
    edges = _NCT_STEPS * ((hi - lo) / _NCT_PANELS)  # one mesh per column
    edges += lo
    edges[-1] = hi
    # L at its peak, which every node's value is at most (to rounding); it
    # is factored out of each density's sum.
    z = t * q_peak - mu
    peak = c + nu * np.log(q_peak) - 0.5 * nu * q_peak * q_peak - 0.5 * z * z

    ln_f = np.empty_like(mu)

    def fill(rows, mesh):
        """ln f for the densities in rows, over the meshes mesh(rows)."""
        if rows.any():
            ln_f[rows] = _nct_mesh_sum(mesh(rows), t, nu, mu[rows], c, peak[rows])

    def ladder_mesh(rows):
        # Density mass hugs q = 0 and decays on the scale 1/|t mu|, which can
        # be far finer (or coarser) than sigma; cover both with a geometric
        # ladder of edges h, 2h, 4h, ... below top, merged into the window.
        # Rungs past top are clipped to it and leave empty panels.
        rate = -(t * mu)[rows]
        top = np.maximum(hi[rows], 45.0 / rate)
        h = 0.5 * np.minimum(sigma[rows], 1.0 / (1.0 + rate))
        doublings = np.arange(np.frexp(top / h)[1].max() + 1)[:, None]
        rungs = np.minimum(np.ldexp(h, doublings), top)
        merged = np.concatenate([edges[:, rows], rungs, top[None, :]])
        merged.sort(axis=0)
        return _nct_graded(merged)

    graded = lo == 0.0
    ladder = graded & (t * mu < 0.0)
    fill(~graded, lambda rows: edges[:, rows])
    fill(graded & ~ladder, lambda rows: _nct_graded(edges[:, rows]))
    fill(ladder, ladder_mesh)
    if not np.all(mu):
        ln_f[mu == 0.0] = central_t_logpdf(t, nu)
    return ln_f


def _nct_mesh_sum(mesh, t, nu, mu, c, peak) -> np.ndarray:
    """ln of the rule's sum of exp(L) for each density, column i of mesh
    holding the panel edges of density i, about _NCT_NODES nodes at a time."""
    chunk = max(1, _NCT_NODES // (len(_GL_NODES) * mesh.shape[1]))
    total = sum(
        _nct_panel_sums(mesh[p:p + chunk + 1], t, nu, mu, c, peak)
        for p in range(0, len(mesh) - 1, chunk)
    )
    return peak + np.log(total)


def _nct_panel_sums(edges, t, nu, mu, c, peak) -> np.ndarray:
    """sum of w exp(L - peak) over the panels between the rows of edges."""
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    # nodes q[panel, node, density]; Gauss-Legendre nodes are interior, so q > 0
    q = half[:, None] * _NCT_RULE
    q += mid[:, None]
    # ln[ q * f_Q(q) * phi(t q - mu) ] with f_Q the density of chi_nu/sqrt(nu);
    # the leading q is the Jacobian of t -> z = t q - mu. Keep the order of
    # the operations: at large nu the terms cancel from about nu down to 1,
    # so reordering them moves ln f by ~nu * 1e-16 (tests pin it to 1e-13).
    log_f = np.log(q)
    log_f *= nu
    log_f += c
    term = (0.5 * nu) * q
    term *= q
    log_f -= term
    # Dropping spent arrays keeps at most three node arrays alive, counting
    # the buffer numpy takes to broadcast mu or peak.
    del term
    q *= t
    q -= mu  # z
    q *= q  # 0.5 * z * z: halving commutes with rounding
    q *= 0.5
    log_f -= q
    del q
    log_f -= peak
    # exp is many times slower where it underflows, so raise the terms
    # that cannot move the sum to _LN_NEGLIGIBLE first.
    np.maximum(log_f, _LN_NEGLIGIBLE, out=log_f)
    np.exp(log_f, out=log_f)
    sums = _GL_WEIGHTS @ log_f
    sums *= half
    return sums.sum(axis=0)


def noncentral_t_logpdf(t, nu, mu):
    """Log density of the noncentral t distribution with noncentrality mu.

    t, nu and mu broadcast together; the result has their broadcast shape,
    and a scalar call returns a float. mu = 0 gives central_t_logpdf.
    """
    t, nu, mu = (np.asarray(a, dtype=float) for a in (t, nu, mu))
    if not np.all(nu > 0):
        raise DomainError(
            f"noncentral_t_logpdf requires nu > 0, got {float(nu[~(nu > 0)][0])}"
        )
    # math.lgamma has no numpy form; nu usually holds one value per study
    c = np.array([_nct_log_constant(v) for v in nu.ravel().tolist()]).reshape(nu.shape)
    shape = np.broadcast_shapes(t.shape, nu.shape, mu.shape)
    t_nu_shape = np.broadcast_shapes(t.shape, nu.shape)
    # In C order, runs of `run` densities share t and nu: the trailing axes
    # along which only mu varies. Each run is evaluated in blocks of at most
    # _NCT_ROWS densities; an element-wise call has runs of one.
    run = 1
    for size, t_nu_size in zip(shape[::-1], t_nu_shape[::-1] + (1,) * len(shape)):
        if t_nu_size != 1:
            break
        run *= size
    t, nu, mu, c = (np.broadcast_to(a, shape).flat for a in (t, nu, mu, c))
    ln_f = np.empty(shape)
    out = ln_f.reshape(-1)
    for start in range(0, out.size, max(run, 1)):
        shared = float(t[start]), float(nu[start])
        for i in range(start, start + run, _NCT_ROWS):
            block = slice(i, min(i + _NCT_ROWS, start + run))
            out[block] = _nct_rows(*shared, mu[block], float(c[start]))
    return _scalar_or_array(ln_f)


# ---------------------------------------------------------------------------
# Cauchy density
# ---------------------------------------------------------------------------

def cauchy_logpdf(x, scale: float):
    """Log density of the zero-centered Cauchy distribution; x may be an
    array, and a scalar x gives a float."""
    if not scale > 0:
        raise DomainError(f"cauchy_logpdf requires scale > 0, got {scale}")
    u = np.asarray(x, dtype=float) / scale
    return _scalar_or_array(-math.log(math.pi * scale) - np.log1p(u * u))


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
