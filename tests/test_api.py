"""The public names other code imports, pinned with their keywords.

The benchmark under perfbench/ imports these names and calls them with
these keywords (and StudyRecord's first three fields positionally), so a
rename or a reordering breaks it. The wrappers that once existed only for
tests must not come back.
"""

import dataclasses
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import trialbayes
from trialbayes import engine, io, meta, numerics


def _parameters(fn):
    return list(inspect.signature(fn).parameters)


def test_engine_names():
    assert _parameters(engine.StudyRecord)[:6] == [
        "trial", "arm", "n", "p_value", "t_value", "design",
    ]
    assert engine.TWO_SAMPLE_EQUAL_ARMS != engine.ONE_SAMPLE
    assert _parameters(engine.AnalysisConfig) == [
        "cauchy_scale_r", "prior_h1", "sidedness",
    ]
    for fn in (trialbayes.analyze_study, trialbayes.summarize):
        assert _parameters(fn) == ["record", "config"]
    assert _parameters(trialbayes.classify_evidence) == ["bf10"]
    for fn in (engine.jzs_bf_delta_form, engine.jzs_bf_g_form):
        assert _parameters(fn) == ["t", "summary", "r"]


def test_summary_fields():
    record = engine.StudyRecord("x", "y", 10, p_value=0.05, t_value=None,
                                design=engine.TWO_SAMPLE_EQUAL_ARMS)
    s = trialbayes.summarize(record)
    assert (s.nu_bf, s.n_eff) == (18.0, 5.0)
    assert s.t > 0.0


def test_meta_and_io_names():
    assert _parameters(meta.MetaInput)[0] == "studies"
    assert _parameters(meta.meta_bf) == ["data", "prior_h1"]
    assert set(io.ADUCANUMAB_META_GROUPS) == {"low", "high"}
    assert _parameters(io.run_reanalysis) == ["dataset", "config", "meta_groups"]
    assert _parameters(io.render_report) == ["report", "format"]
    assert _parameters(io.emit_charts) == ["report"]
    assert _parameters(io.load_bundled_dataset) == []


def test_quadrature_names():
    # perfbench/tracing.py wraps engine.integrate and reads .evaluations
    # from what it returns; the pooled Bayes factor runs through the engine
    assert _parameters(numerics.integrate) == ["log_f", "centre", "scale", "rel_tol"]
    assert [f.name for f in dataclasses.fields(numerics.QuadratureResult)] == [
        "ln_value", "abs_error_estimate", "evaluations",
    ]
    assert engine.integrate is numerics.integrate
    assert not hasattr(meta, "integrate")


@pytest.mark.parametrize("name", ["Interval", "IntervalKind"])
def test_gauss_kronrod_domains_are_gone(name):
    for module in (trialbayes, numerics):
        assert not hasattr(module, name)


@pytest.mark.parametrize(
    "name",
    ["ln_gamma", "cauchy_pdf", "noncentral_t_pdf", "analyze_summary", "_jzs_delta_form"],
)
def test_test_only_wrappers_are_gone(name):
    for module in (trialbayes, engine, meta, numerics):
        assert not hasattr(module, name)


def _numpy_modules_after(statement):
    """The numpy modules a fresh interpreter holds after `statement`."""
    src = str(Path(trialbayes.__file__).parents[1])
    code = (
        f"import sys; sys.path.insert(0, {src!r}); {statement}; "
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    return set(out.split())


def test_import_loads_no_polynomial_or_linear_algebra():
    # The Gauss-Legendre table is written out, so nothing computes it at
    # import time. numpy itself may load numpy.linalg (numpy 2.x does, for
    # numpy.matrixlib); importing trialbayes must load nothing beyond that.
    loaded = _numpy_modules_after("import trialbayes")
    assert "numpy.polynomial" not in loaded
    assert loaded <= _numpy_modules_after("import numpy")
