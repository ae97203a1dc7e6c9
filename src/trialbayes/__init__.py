"""Bayes factors and evidence synthesis from published trial summaries.

Computes JZS (Cauchy-prior) Bayes factors, meta-analytic Bayes factors,
posterior probabilities and Jeffreys evidence labels from sample sizes and
p-values, including the bundled EMERGE/ENGAGE aducanumab dataset.
"""

__version__ = "0.1.0"

from .engine import (  # noqa: E402
    AnalysisConfig,
    BayesFactorResult,
    EvidenceLabel,
    InternalConsistencyError,
    StudyRecord,
    TTestSummary,
    analyze_study,
    classify_evidence,
    jzs_bf_delta_form,
    jzs_bf_g_form,
    posterior_prob,
    summarize,
    t_from_p,
)
from .io import (  # noqa: E402
    Dataset,
    DatasetError,
    Report,
    emit_charts,
    load_bundled_dataset,
    parse_dataset,
    render_dataset,
    render_report,
    run_reanalysis,
)
from .meta import MetaInput, MetaResult, meta_bf  # noqa: E402
from .numerics import (  # noqa: E402
    DomainError,
    NonConvergenceError,
    QuadratureResult,
    integrate,
    student_t_quantile,
)
