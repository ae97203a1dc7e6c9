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
    "QUADRATURE_REL_TOL",
    "student_t_quantile",
    "central_t_logpdf",
    "noncentral_t_logpdf",
    "cauchy_logpdf",
    "integrate",
]

LN_2PI = math.log(2.0 * math.pi)
_LN_PI = math.log(math.pi)
_LN_2 = math.log(2.0)
_LN_MAX_DOUBLE = math.log(1.7976931348623157e308)
_QUANTILE_STEPS = 40  # Halley steps from the start; a handful are used
_MAX_LN_STEP = 50.0  # a longer step in ln t is cut to this length
QUADRATURE_REL_TOL = 1e-8  # integrate's default, and every Bayes factor integral's


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


# ---------------------------------------------------------------------------
# Student t distribution
# ---------------------------------------------------------------------------

def _ln_gamma_half_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).

    Each lgamma is about a ln a, so their difference loses ~a ln a ulps; from
    a = 20 on the asymptotic series (Bernoulli-polynomial expansion) replaces
    it, and its first omitted term, ~a^-11, is below 1e-16 there.
    """
    if a < 20.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    v = 1.0 / (a * a)
    series = 1 / 8 - v * (1 / 192 - v * (1 / 640 - v * (17 / 14336 - v * (31 / 18432))))
    return 0.5 * math.log(a) - series / a


def _ln_beta_tail_large_a(a: float, ln_1pw: float, ln_gamma_ratio: float) -> float:
    """ln I_x(a, 1/2) at x = 1 / (1 + w) for a >= 15 and x > 1/2.

    The asymptotic expansion BGRAT of Didonato & Morris (1992, ACM TOMS
    18:360) with b = 1/2: the leading term is the normal tail
    erfc(sqrt(z)), z = (a - 1/4) ln(1 + w), and the corrections fall like
    a^-2n. Near the mean of Beta(a, 1/2), where it is used, the continued
    fraction cancels and loses up to ~1e-12 relative at a ~ 5e4.
    ln_gamma_ratio is _ln_gamma_half_ratio(a).
    """
    big = a - 0.25
    z = big * ln_1pw
    root_z = math.sqrt(z)
    ln_scale = -z + 0.5 * math.log(z / big) - 0.5 * _LN_PI + ln_gamma_ratio
    j = math.erfc(root_z) * math.exp(z) * math.sqrt(math.pi) / root_z
    total = j
    v = 0.25 / (big * big)
    t2 = 0.25 * ln_1pw * ln_1pw
    power, c_n, n2 = 1.0, 1.0, 0.0
    c, d = [], []
    for n in range(1, 31):
        bp2n = 0.5 + n2
        j = (bp2n * (bp2n + 1.0) * j + (z + bp2n + 1.0) * power) * v
        n2 += 2.0
        power *= t2
        c_n /= n2 * (n2 + 1.0)
        c.append(c_n)
        s = sum((0.5 * (i + 1) - n) * c[i] * d[n - i - 2] for i in range(n - 1))
        d.append(-0.5 * c_n + s / n)
        total += d[-1] * j
        if abs(d[-1] * j) <= 1e-16 * total:
            break
    return ln_scale + math.log(total)


def _t_probabilities(t: float, nu: float) -> tuple[float, float, float]:
    """(ln P(T > t), ln P(0 < T < t), ln t f(t)) for t > 0, f the t density.

    P(T > t) = I_x(nu/2, 1/2) / 2 at x = nu / (nu + t^2), and the front
    x^a (1-x)^(1/2) / B(a, 1/2) of the incomplete beta function is t f(t).
    All three stay in log space, so tails far below the smallest double keep
    their full relative precision, and whichever of the two probabilities
    is the smaller is computed directly rather than as 1/2 minus the other.
    """
    a = 0.5 * nu
    w = t * t / nu  # x = 1 / (1 + w) and 1 - x = w / (1 + w)
    ln_1pw = math.log1p(w) if w < math.inf else 2.0 * math.log(t) - math.log(nu)
    ln_1mx = -math.log1p(1.0 / w) if w > 1.0 else math.log(w) - ln_1pw
    ln_gamma_ratio = _ln_gamma_half_ratio(a)
    ln_front = ln_gamma_ratio - 0.5 * _LN_PI - a * ln_1pw + 0.5 * ln_1mx
    if w <= 1.5 / (a + 1.0):  # 1 - x <= (3/2) / (a + 5/2): the fraction converges fast
        central = 2.0 * math.exp(ln_front) * _beta_cf(0.5, a, w / (1.0 + w))
        return math.log1p(-central) - _LN_2, math.log(central) - _LN_2, ln_front
    if a >= 15.0 and w < 1.0 and a * ln_1pw < 600.0:  # erfc(sqrt(z)) > 1e-262
        ln_tail = _ln_beta_tail_large_a(a, ln_1pw, ln_gamma_ratio) - _LN_2
    else:
        ln_tail = ln_front + math.log(_beta_cf(a, 0.5, 1.0 / (1.0 + w)) / a) - _LN_2
    return ln_tail, math.log1p(-2.0 * math.exp(ln_tail)) - _LN_2, ln_front


def central_t_logpdf(t: float, nu: float) -> float:
    if not nu > 0:
        raise DomainError(f"central_t_logpdf requires nu > 0, got {nu}")
    return (
        math.lgamma(0.5 * (nu + 1.0)) - math.lgamma(0.5 * nu)
        - 0.5 * math.log(nu * math.pi)
        - 0.5 * (nu + 1.0) * math.log1p(t * t / nu)
    )


def _normal_tail_quantile(ln_p: float) -> float:
    """z with upper normal tail p <= 1/2, from ln p to |error| < 4.5e-4
    (Abramowitz & Stegun 26.2.23)."""
    s = math.sqrt(-2.0 * ln_p)
    return s - (2.515517 + s * (0.802853 + s * 0.010328)) / (
        1.0 + s * (1.432788 + s * (0.189269 + s * 0.001308)))


def _t_tail_start(p: float, nu: float) -> float:
    """ln of a first guess at the t with P(T > t) = p < 1/2.

    Hill's (1970, Comm. ACM 13:619) Cornish-Fisher expansion of the normal
    quantile in 1/nu, clamped between two bounds on t: the density f is
    largest at 0, so t >= (1/2 - p) / f(0), and P(T > t) lies below its
    t^-nu tail asymptote, so t is at most where that asymptote equals p.
    The upper bound is the better guess where the expansion fails: small nu
    and tiny p.
    """
    ln_p = math.log(p)
    z = _normal_tail_quantile(ln_p)
    zz = z * z
    g1 = (zz + 1.0) * z / 4.0
    g2 = ((5.0 * zz + 16.0) * zz + 3.0) * z / 96.0
    g3 = (((3.0 * zz + 19.0) * zz + 17.0) * zz - 15.0) * z / 384.0
    g4 = ((((79.0 * zz + 776.0) * zz + 1482.0) * zz - 1920.0) * zz - 945.0) * z / 92160.0
    t = z + (g1 + (g2 + (g3 + g4 / nu) / nu) / nu) / nu
    ln_nu = math.log(nu)
    ln_f0 = _ln_gamma_half_ratio(0.5 * nu) - 0.5 * (_LN_PI + ln_nu)
    ln_lower = math.log(0.5 - p) - ln_f0
    ln_upper = (ln_f0 + 0.5 * (nu + 1.0) * ln_nu - ln_nu - ln_p) / nu
    return min(max(math.log(t) if t > 0.0 else -math.inf, ln_lower), ln_upper)


def student_t_quantile(q: float, nu: float) -> float:
    """Inverse CDF of the Student t distribution.

    Solves on the smaller tail p = min(q, 1 - q), where 1 - q is exact for
    q >= 1/2, in log space: Halley steps in ln t on ln P(T > t) = ln p from
    _t_tail_start, or on ln P(0 < T < t) = ln(1/2 - p) for p > 1/4. Both
    are concave in ln t, so the steps converge from either side, and p far
    below machine epsilon inverts as well as p = 0.1; typically two or three
    evaluations of _t_probabilities suffice.
    """
    if not nu > 0:
        raise DomainError(f"student_t_quantile requires nu > 0, got {nu}")
    if not 0.0 < q < 1.0:
        raise DomainError(f"student_t_quantile requires 0 < q < 1, got {q}")
    if q == 0.5:
        return 0.0
    p = min(q, 1.0 - q)
    # Near the median P(T > t) = 1/2 - P(0 < T < t) cancels; solve on the
    # central probability there, for which 1/2 - p is exact (p >= 1/4).
    central = p > 0.25
    target = math.log(0.5 - p) if central else math.log(p)
    sign = 1.0 if central else -1.0  # of d ln P / d ln t
    # the start's upper bound can pass the largest double; the steps then refuse
    t = math.exp(min(_t_tail_start(p, nu), _LN_MAX_DOUBLE - 1.0))
    for _ in range(_QUANTILE_STEPS):
        ln_tail, ln_central, ln_tf = _t_probabilities(t, nu)
        ln_prob = ln_central if central else ln_tail
        excess = ln_prob - target
        # rate = |d ln P / d ln t| = t f(t) / P; bend = d ln rate / d ln t
        rate = math.exp(ln_tf - ln_prob)
        bend = 1.0 - sign * rate - (nu + 1.0) / (1.0 + nu / (t * t))
        newton = -sign * excess / rate
        step = newton / max(1.0 + 0.5 * newton * bend, 0.5)  # Halley
        step = min(max(step, -_MAX_LN_STEP), _MAX_LN_STEP)
        # Step t itself, not ln t: at t ~ 1e300 an ulp of ln t is 1e-13 of t.
        if math.log(t) + step > _LN_MAX_DOUBLE:
            raise DomainError(
                f"the t quantile of q={q} at nu={nu} exceeds the largest double"
            )
        t *= math.exp(step)
        if abs(step) < 1e-8:  # the next step would be below 1e-20
            return t if q > 0.5 else -t
    raise NonConvergenceError(f"t quantile did not converge for q={q}, nu={nu}")


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


def noncentral_t_logpdf(t: float, nu: float, mu):
    """Log density at t of the noncentral t distribution with nu > 0 degrees
    of freedom and noncentrality mu.

    t and nu are numbers; mu is a number, which gives a float, or an array,
    which gives an array of its shape, evaluated _NCT_ROWS densities at a
    time. mu = 0 gives central_t_logpdf.
    """
    t, nu = float(t), float(nu)
    if not nu > 0:
        raise DomainError(f"noncentral_t_logpdf requires nu > 0, got {nu}")
    mu = np.asarray(mu, dtype=float)
    c = _nct_log_constant(nu)
    flat = mu.reshape(-1)
    ln_f = np.empty(flat.shape)
    for i in range(0, flat.size, _NCT_ROWS):
        ln_f[i:i + _NCT_ROWS] = _nct_rows(t, nu, flat[i:i + _NCT_ROWS], c)
    return _scalar_or_array(ln_f.reshape(mu.shape))


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


def integrate(
    log_f, centre: float, scale: float, rel_tol: float = QUADRATURE_REL_TOL
) -> QuadratureResult:
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
