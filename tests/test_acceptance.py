"""Acceptance gate: one test per published-results criterion.

Each test prints a single CRITERION line (visible with -s, or in the captured
output of failures) and asserts all of its subchecks. Failing checks are
listed with the computed value so a regression is immediately attributable.
"""

import math

import numpy as np
import pytest
import scipy.stats

from test_numerics import _central_t_logpdf_mpmath

from trialbayes.engine import (
    DEFAULT_CAUCHY_SCALE,
    AnalysisConfig,
    EvidenceLabel,
    analyze_study,
    jzs_bf_delta_form,
    jzs_bf_g_form,
    summarize,
    t_from_p,
)
from trialbayes.io import (
    ADUCANUMAB_META_GROUPS,
    emit_charts,
    load_bundled_dataset,
    render_report,
    run_reanalysis,
)
from trialbayes.meta import MetaInput, meta_bf
from trialbayes.numerics import (
    cauchy_logpdf,
    integrate,
    noncentral_t_logpdf,
    student_t_quantile,
)

R = DEFAULT_CAUCHY_SCALE

# bundled dataset row order: EMERGE low, EMERGE high, ENGAGE low, ENGAGE high
TABLE_INPUTS = [(543, 0.09), (547, 0.012), (547, 0.24), (555, 0.82)]


@pytest.fixture(scope="module")
def report():
    return run_reanalysis(
        load_bundled_dataset(), AnalysisConfig(), ADUCANUMAB_META_GROUPS
    )


def _finish(name, failures):
    status = "FAIL" if failures else "PASS"
    print(f"CRITERION {name}: {status}")
    assert not failures, f"{name}: " + "; ".join(failures)


def test_criterion_1_t_values_round_to_published():
    expected = [1.69, 2.52, 1.17, 0.23]
    failures = []
    for (n, p), want in zip(TABLE_INPUTS, expected):
        t = t_from_p(p, float(n - 1))
        if round(t, 2) != want:
            failures.append(f"n={n} p={p}: t={t:.4f} rounds to {round(t, 2)}, want {want}")
    _finish("1 t-values", failures)


def test_criterion_2_single_study_bayes_factors():
    expected = [0.27, 1.54, 0.13, 0.07]
    failures = []
    for (n, p), want in zip(TABLE_INPUTS, expected):
        summary = summarize(
            load_bundled_dataset().find(*_key(n, p)), AnalysisConfig()
        )
        delta = jzs_bf_delta_form(summary.t, summary, R)
        g = 1.0 / jzs_bf_g_form(summary.t, summary, R)
        for form, bf in (("delta", delta), ("g", g)):
            if abs(bf - want) > 0.01:
                failures.append(f"n={n} p={p} {form}-form: BF10={bf:.4f}, want {want}+-0.01")
    _finish("2 Bayes factors", failures)


def _key(n, p):
    for record in load_bundled_dataset().records:
        if record.n == n and record.p_value == p:
            return record.trial, record.arm
    raise AssertionError(f"no bundled record with n={n}, p={p}")


def test_criterion_3_single_study_posteriors(report):
    failures = []
    posts = [s.result.posterior_h1 * 100 for s in report.studies]
    for got, want, tol in zip(posts, [21.0, 60.0, 11.0, 6.5], [1.0, 1.0, 1.0, 0.5]):
        if abs(got - want) > tol:
            failures.append(f"posterior {got:.2f}%, want {want}+-{tol}pp")
    _finish("3 posteriors", failures)


def test_criterion_4_meta_analysis(report):
    failures = []
    targets = {"low": (0.38, 27.0), "high": (0.29, 22.0)}
    for group in report.meta:
        bf_want, post_want = targets[group.group]
        bf, post = group.result.bf10, group.result.posterior_h1 * 100
        if abs(bf - bf_want) > 0.02:
            failures.append(f"{group.group}: BF10={bf:.4f}, want {bf_want}+-0.02")
        if abs(post - post_want) > 1.0:
            failures.append(f"{group.group}: posterior={post:.2f}%, want {post_want}+-1pp")
    _finish("4 meta-analysis", failures)


def test_criterion_5_form_equivalence_grid():
    failures = []
    ts = [0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5, 4.75, 5.0]
    points = 0
    for t in ts:
        for n in (10, 100, 547):
            for r in (0.5, R, 1.0):
                summary = summarize_like(t, n)
                bf_delta = jzs_bf_delta_form(t, summary, r)
                bf_g = 1.0 / jzs_bf_g_form(t, summary, r)
                points += 1
                rel = abs(bf_delta - bf_g) / bf_g
                if rel > 1e-6:
                    failures.append(f"t={t} n={n} r={r:.3f}: rel diff {rel:.2e}")
    assert points >= 100
    _finish("5 form equivalence", failures)


def summarize_like(t, n):
    from trialbayes.engine import TTestSummary

    return TTestSummary(
        t=t, nu_inversion=float(n - 1), nu_bf=float(2 * n - 2), n_eff=n / 2.0
    )


def test_criterion_6_laplace_oracle(report):
    failures = []
    for s in report.studies:
        t, n0 = s.result.summary.t, s.result.summary.n_eff
        root = math.sqrt(n0)
        phi = math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        approx = math.exp(cauchy_logpdf(t / root, R)) / (root * phi)
        rel = abs(s.result.bf10 - approx) / approx
        if rel > 0.05:
            failures.append(f"{s.record.trial}/{s.record.arm}: off by {rel:.2%}")
    for m in report.meta:
        summaries = [
            s.result.summary
            for s in report.studies
            if (s.record.trial, s.record.arm) in m.members
        ]
        precision = sum(s.n_eff for s in summaries)
        mean = sum(math.sqrt(s.n_eff) * s.t for s in summaries) / precision
        approx = (
            math.exp(cauchy_logpdf(mean, R))
            * math.sqrt(2 * math.pi / precision)
            * math.exp(0.5 * mean * mean * precision)
        )
        rel = abs(m.result.bf10 - approx) / approx
        if rel > 0.10:
            failures.append(f"meta {m.group}: off by {rel:.2%}")
    _finish("6 Laplace oracle", failures)


def test_criterion_7_numerics_contracts():
    failures = []
    for nu in (1.0, 2.0, 10.0, 546.0, 1092.0):
        for q in (0.01, 0.1, 0.5, 0.9, 0.99):
            err = abs(scipy.stats.t.cdf(student_t_quantile(q, nu), nu) - q)
            if err > 1e-9:
                failures.append(f"roundtrip q={q} nu={nu}: err {err:.2e}")
    # against the central t density's closed form in 30-digit mpmath; scipy's
    # own t.pdf is 6.6e-13 off at nu = 1092
    for nu in (1.0, 10.0, 1092.0):
        for t in (0.0, 1.18, 2.52):
            want = math.exp(_central_t_logpdf_mpmath(t, nu))
            rel = abs(math.exp(noncentral_t_logpdf(t, nu, 0.0)) - want) / want
            if rel > 1e-12:
                failures.append(f"central reduction t={t} nu={nu}: rel {rel:.2e}")
    # ln integrands over the real line: the half-line integrals in x = ln g
    # (ln f(e^x) + x), the Cauchy one in x = sinh u (ln f(sinh u) + ln cosh u)
    integrals = [
        (lambda x: -np.exp(x) + x, 1.0),
        (
            lambda u: np.array([cauchy_logpdf(x, 1.0) for x in np.sinh(u)])
            + np.log(np.cosh(u)),
            1.0,
        ),
        (lambda x: -1.5 * x - 0.5 * np.exp(-x) + x, math.sqrt(2 * math.pi)),
    ]
    for i, (ln_f, want) in enumerate(integrals):
        got = math.exp(integrate(ln_f, 0.0, 1.0, 1e-10).ln_value)
        rel = abs(got - want) / want
        if rel > 1e-6:
            failures.append(f"integral {i}: rel {rel:.2e}")
    _finish("7 numerics contracts", failures)


def test_criterion_8_end_to_end_determinism():
    failures = []
    outputs = []
    for _ in range(2):
        rep = run_reanalysis(
            load_bundled_dataset(), AnalysisConfig(), ADUCANUMAB_META_GROUPS
        )
        outputs.append((render_report(rep, "json"),) + emit_charts(rep))
    if outputs[0][0] != outputs[1][0]:
        failures.append("JSON reports differ between runs")
    if outputs[0][1:] != outputs[1][1:]:
        failures.append("SVG charts differ between runs")
    _finish("8 determinism", failures)


def test_criterion_9_jeffreys_labels(report):
    expected = [
        EvidenceLabel("anecdotal", "favors_h0"),
        EvidenceLabel("anecdotal", "favors_h1"),
        EvidenceLabel("moderate", "favors_h0"),
        EvidenceLabel("strong", "favors_h0"),
    ]
    failures = []
    for s, want in zip(report.studies, expected):
        got = s.result.label
        if got != want:
            failures.append(
                f"{s.record.trial}/{s.record.arm}: BF10={s.result.bf10:.4f} "
                f"(reciprocal {1 / s.result.bf10:.2f}) -> {got}, want {want}"
            )
    _finish("9 Jeffreys labels", failures)
