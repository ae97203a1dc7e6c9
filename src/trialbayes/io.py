"""Dataset ingestion, report rendering and chart emission.

Bundles the aducanumab CDR-SB summary dataset, parses user-supplied CSV or
JSON study files, runs the full reanalysis (per-study Bayes factors plus
meta-analytic pooling), and renders results as a text table, JSON, or a
pair of deterministic SVG charts.
"""

from __future__ import annotations

import csv
import io as _stdio
import json
import math
from dataclasses import dataclass
from importlib import resources

from . import __version__
from .engine import (
    ONE_SAMPLE,
    QUADRATURE_REL_TOL,
    TWO_SAMPLE_EQUAL_ARMS,
    AnalysisConfig,
    BayesFactorResult,
    StudyRecord,
    analyze_study,
    summarize,
)
from .meta import MetaInput, MetaResult, meta_bf
from .numerics import DomainError

__all__ = [
    "DatasetError",
    "Dataset",
    "Report",
    "parse_dataset",
    "render_dataset",
    "load_bundled_dataset",
    "pool_groups",
    "run_reanalysis",
    "report_to_dict",
    "render_report",
    "emit_charts",
    "ADUCANUMAB_META_GROUPS",
]

CSV_COLUMNS = ("trial", "arm", "n", "p", "t", "design")

# CSV/JSON design spellings -> StudyRecord designs.
_DESIGNS = {
    "two_sample": TWO_SAMPLE_EQUAL_ARMS,
    "two_sample_equal_arms": TWO_SAMPLE_EQUAL_ARMS,
    "one_sample": ONE_SAMPLE,
}
_DESIGN_NAMES = {TWO_SAMPLE_EQUAL_ARMS: "two_sample", ONE_SAMPLE: "one_sample"}

# Pooling used by the aducanumab reanalysis: by dose across the two trials.
ADUCANUMAB_META_GROUPS = {
    "low": (("EMERGE", "low"), ("ENGAGE", "low")),
    "high": (("EMERGE", "high"), ("ENGAGE", "high")),
}


class DatasetError(ValueError):
    """Malformed or invalid study dataset."""


@dataclass(frozen=True)
class Dataset:
    name: str
    records: tuple[StudyRecord, ...]

    def __post_init__(self):
        if not self.records:
            raise DatasetError("dataset has no records")
        object.__setattr__(self, "records", tuple(self.records))
        keys = [(r.trial, r.arm) for r in self.records]
        if len(set(keys)) != len(keys):
            raise DatasetError("duplicate (trial, arm) pairs in dataset")

    def find(self, trial: str, arm: str) -> StudyRecord:
        for record in self.records:
            if record.trial == trial and record.arm == arm:
                return record
        raise DatasetError(f"no record for ({trial}, {arm})")


@dataclass(frozen=True)
class StudyResult:
    record: StudyRecord
    result: BayesFactorResult


@dataclass(frozen=True)
class MetaGroupResult:
    group: str
    members: tuple[tuple[str, str], ...]
    result: MetaResult


@dataclass(frozen=True)
class Report:
    dataset_name: str
    config: AnalysisConfig
    studies: tuple[StudyResult, ...]
    meta: tuple[MetaGroupResult, ...]
    version: str


def _record_from_row(row: dict, where: str) -> StudyRecord:
    if "trial" not in row or "arm" not in row:
        raise DatasetError(f"{where}: trial and arm must be present")
    design_name = str(row.get("design") or "two_sample").strip()
    if design_name not in _DESIGNS:
        raise DatasetError(f"{where}: unknown design {design_name!r}")
    p_raw, t_raw = row.get("p"), row.get("t")
    has_p = p_raw is not None and str(p_raw).strip() != ""
    has_t = t_raw is not None and str(t_raw).strip() != ""
    if has_p == has_t:
        raise DatasetError(f"{where}: exactly one of p and t must be present")
    try:
        n = int(str(row["n"]).strip())
    except (KeyError, ValueError) as exc:
        raise DatasetError(f"{where}: bad sample size {row.get('n')!r}") from exc
    try:
        p = float(p_raw) if has_p else None
        t = float(t_raw) if has_t else None
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"{where}: non-numeric p/t value") from exc
    if p is not None and not 0.0 < p < 1.0:
        raise DatasetError(f"{where}: p out of range: {p}")
    try:
        return StudyRecord(
            trial=str(row["trial"]).strip(),
            arm=str(row["arm"]).strip(),
            n=n,
            p_value=p,
            t_value=t,
            design=_DESIGNS[design_name],
        )
    except DomainError as exc:
        raise DatasetError(f"{where}: {exc}") from exc


def parse_dataset(data: bytes | str, format: str = "csv", name: str = "dataset") -> Dataset:
    """Parse and validate a study dataset from CSV or JSON bytes."""
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise DatasetError(f"dataset is not UTF-8 text: {exc}") from None
    if format == "csv":
        reader = csv.reader(_stdio.StringIO(text))
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetError("empty CSV input") from None
        header = [h.strip() for h in header]
        if tuple(header) != CSV_COLUMNS:
            raise DatasetError(
                f"CSV header must be {','.join(CSV_COLUMNS)}, got {','.join(header)}"
            )
        records = []
        for line_no, cells in enumerate(reader, start=2):
            if not cells or all(c.strip() == "" for c in cells):
                continue
            if len(cells) != len(CSV_COLUMNS):
                raise DatasetError(f"row {line_no}: expected {len(CSV_COLUMNS)} columns")
            row = dict(zip(CSV_COLUMNS, cells))
            records.append(_record_from_row(row, f"row {line_no}"))
        return Dataset(name=name, records=tuple(records))
    if format == "json":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc}") from exc
        rows = payload.get("records") if isinstance(payload, dict) else None
        if not (isinstance(rows, list) and all(isinstance(row, dict) for row in rows)):
            raise DatasetError("JSON dataset must be an object with a 'records' array "
                               "of objects")
        records = [
            _record_from_row(row, f"records[{i}]")
            for i, row in enumerate(rows)
        ]
        return Dataset(name=str(payload.get("name", name)), records=tuple(records))
    raise DatasetError(f"unknown dataset format {format!r}")


def render_dataset(dataset: Dataset, format: str = "csv") -> bytes:
    """Serialize a dataset; parse_dataset(render_dataset(d)) == d."""
    for r in dataset.records:
        if r.n2 is not None:
            raise DatasetError(
                f"{r.trial}/{r.arm}: dataset files have no column for n2"
            )
    if format == "csv":
        buf = _stdio.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for r in dataset.records:
            writer.writerow([
                r.trial,
                r.arm,
                r.n,
                "" if r.p_value is None else repr(r.p_value),
                "" if r.t_value is None else repr(r.t_value),
                _DESIGN_NAMES[r.design],
            ])
        return buf.getvalue().encode("utf-8")
    if format == "json":
        payload = {
            "name": dataset.name,
            "records": [
                {
                    "trial": r.trial,
                    "arm": r.arm,
                    "n": r.n,
                    "p": r.p_value,
                    "t": r.t_value,
                    "design": _DESIGN_NAMES[r.design],
                }
                for r in dataset.records
            ],
        }
        return json.dumps(payload, indent=2).encode("utf-8")
    raise DatasetError(f"unknown dataset format {format!r}")


def load_bundled_dataset() -> Dataset:
    """The EMERGE/ENGAGE CDR-SB summary statistics shipped with the package."""
    data = resources.files("trialbayes").joinpath("data/aducanumab.csv").read_bytes()
    return parse_dataset(data, "csv", name="aducanumab")


def pool_groups(
    dataset: Dataset,
    meta_groups: dict,
    config: AnalysisConfig = AnalysisConfig(),
) -> tuple[MetaGroupResult, ...]:
    """Pool each group of dataset records into one meta-analytic Bayes factor.

    Members are (trial, arm) pairs. Every group is resolved against the
    dataset before any pooling starts.
    """
    resolved = {}
    for group, members in meta_groups.items():
        records = [dataset.find(trial, arm) for trial, arm in members]
        if not records:
            raise DatasetError(f"meta group {group!r} is empty")
        resolved[group] = records
    results = []
    for group, records in resolved.items():
        summaries = tuple(summarize(record, config) for record in records)
        result = meta_bf(MetaInput(studies=summaries, r=config.cauchy_scale_r),
                         prior_h1=config.prior_h1)
        members = tuple((record.trial, record.arm) for record in records)
        results.append(MetaGroupResult(group=group, members=members, result=result))
    return tuple(results)


def run_reanalysis(
    dataset: Dataset,
    config: AnalysisConfig = AnalysisConfig(),
    meta_groups: dict | None = None,
) -> Report:
    """Analyze every record, then pool each configured meta group."""
    studies = []
    for record in dataset.records:
        try:
            result = analyze_study(record, config)
        except Exception as exc:
            raise type(exc)(f"{record.trial}/{record.arm}: {exc}") from exc
        studies.append(StudyResult(record=record, result=result))
    return Report(
        dataset_name=dataset.name,
        config=config,
        studies=tuple(studies),
        meta=pool_groups(dataset, meta_groups or {}, config),
        version=__version__,
    )


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _fmt_bf(x: float) -> str:
    return f"{x:.2f}"


def _fmt_pct(x: float) -> str:
    return f"{round(x * 100):d}%"


def report_to_dict(report: Report) -> dict:
    """Full-precision report payload with display strings, stable key order."""
    cfg = report.config
    return {
        "config": {
            "cauchy_scale_r": cfg.cauchy_scale_r,
            "prior_h1": cfg.prior_h1,
            "sidedness": cfg.sidedness,
            "rel_tol": QUADRATURE_REL_TOL,
        },
        "studies": [
            {
                "trial": s.record.trial,
                "arm": s.record.arm,
                "n": s.record.n,
                "p": s.record.p_value,
                "t": s.result.summary.t,
                "bf10": s.result.bf10,
                "bf01": s.result.bf01,
                "posterior_h1": s.result.posterior_h1,
                "quadrature_error": s.result.quadrature_error,
                "label": {
                    "strength": s.result.label.strength,
                    "direction": s.result.label.direction,
                },
                "display": {
                    "bf10": _fmt_bf(s.result.bf10),
                    "posterior_h1": _fmt_pct(s.result.posterior_h1),
                },
            }
            for s in report.studies
        ],
        "meta": [
            {
                "group": m.group,
                "members": [f"{trial}.{arm}" for trial, arm in m.members],
                "bf10": m.result.bf10,
                "bf01": m.result.bf01,
                "posterior_h1": m.result.posterior_h1,
                "quadrature_error": m.result.quadrature_error,
                "display": {
                    "bf10": _fmt_bf(m.result.bf10),
                    "posterior_h1": _fmt_pct(m.result.posterior_h1),
                },
            }
            for m in report.meta
        ],
        "version": report.version,
    }


def render_report(report: Report, format: str = "text_table") -> bytes:
    """Render a report as a text table (2-dp BF, whole-percent posteriors)
    or as JSON carrying full-precision values plus the display strings."""
    if format == "json":
        return json.dumps(report_to_dict(report), indent=2).encode("utf-8")
    if format != "text_table":
        raise DatasetError(f"unknown report format {format!r}")

    lines = []
    cfg = report.config
    lines.append(f"Bayesian reanalysis of dataset '{report.dataset_name}'")
    lines.append(
        f"config: r = {cfg.cauchy_scale_r:.6f}, P(H1) = {cfg.prior_h1}, "
        f"{cfg.sidedness}"
    )
    lines.append("")
    header = f"{'trial':<10}{'arm':<8}{'n':>6}{'p':>8}{'t':>7}{'BF10':>8}{'BF01':>8}{'P(H1|D)':>9}  label"
    lines.append(header)
    lines.append("-" * len(header))
    for s in report.studies:
        r = s.result
        p_disp = "" if s.record.p_value is None else f"{s.record.p_value:g}"
        lines.append(
            f"{s.record.trial:<10}{s.record.arm:<8}{s.record.n:>6}{p_disp:>8}"
            f"{r.summary.t:>7.2f}{_fmt_bf(r.bf10):>8}{_fmt_bf(r.bf01):>8}"
            f"{_fmt_pct(r.posterior_h1):>9}  {r.label}"
        )
    if report.meta:
        lines.append("")
        lines.append("meta-analysis (common effect size, Cauchy prior):")
        for m in report.meta:
            members = " + ".join(f"{t}.{a}" for t, a in m.members)
            lines.append(
                f"  {m.group:<8} BF10 = {_fmt_bf(m.result.bf10)}  "
                f"P(H1|D) = {_fmt_pct(m.result.posterior_h1)}  [{members}]"
            )
    lines.append("")
    return "\n".join(lines).encode("utf-8")


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

SVG_WIDTH = 640
SVG_HEIGHT = 400
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 60
_PLOT_W = SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
_PLOT_H = SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
_BAR_FILL = ("#4878a8", "#c44e52")


def _svg_header(title: str) -> list[str]:
    return [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="#ffffff"/>',
        f'<text x="{SVG_WIDTH / 2:.1f}" y="24" font-family="sans-serif" '
        f'font-size="16" text-anchor="middle">{title}</text>',
    ]


def _bar(x: float, y: float, w: float, h: float, fill: str) -> str:
    return (
        f'<rect class="bar" x="{x:.2f}" y="{y:.2f}" width="{w:.2f}" '
        f'height="{h:.2f}" fill="{fill}"/>'
    )


def _text(x: float, y: float, s: str, size: int = 12, anchor: str = "middle") -> str:
    return (
        f'<text x="{x:.2f}" y="{y:.2f}" font-family="sans-serif" '
        f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
    )


def _bar_chart(title, y_of, ticks, bars, marks=(), axis_label=None) -> bytes:
    """SVG bar chart: a gridline at each (value, text) tick, the ready-made
    marks, then one bar per (label, value, fill, value text) in equal slots;
    y_of maps a value to its y coordinate."""
    parts = _svg_header(title)
    for value, text in ticks:
        y = y_of(value)
        parts.append(
            f'<line x1="{_MARGIN_LEFT}" y1="{y:.2f}" x2="{SVG_WIDTH - _MARGIN_RIGHT}" '
            f'y2="{y:.2f}" stroke="#dddddd" stroke-width="1"/>'
        )
        parts.append(_text(_MARGIN_LEFT - 8, y + 4, text, 11, "end"))
    parts.extend(marks)

    slot = _PLOT_W / len(bars)
    bar_w = slot * 0.55
    y_base = _MARGIN_TOP + _PLOT_H
    for i, (label, value, fill, shown) in enumerate(bars):
        x = _MARGIN_LEFT + slot * i + (slot - bar_w) / 2
        y_top = y_of(value)
        parts.append(_bar(x, y_top, bar_w, y_base - y_top, fill))
        parts.append(_text(x + bar_w / 2, y_base + 16, label, 11))
        parts.append(_text(x + bar_w / 2, y_top - 5, shown, 11))
    if axis_label:
        parts.append(_text(16, _MARGIN_TOP + _PLOT_H / 2, axis_label, 12, "middle"))
    parts.append("</svg>")
    return "\n".join(parts).encode("utf-8")


def _bf_chart(report: Report) -> bytes:
    """Bar chart of BF10 per (trial, arm) on a log axis, reference at BF=1."""
    arms = sorted({s.record.arm for s in report.studies})
    bars = [
        (f"{s.record.trial} {s.record.arm}", math.log10(s.result.bf10),
         _BAR_FILL[arms.index(s.record.arm) % len(_BAR_FILL)], _fmt_bf(s.result.bf10))
        for s in report.studies
    ]
    logs = [value for _, value, _, _ in bars] + [0.0]
    lo = min(logs) - 0.3
    hi = max(logs) + 0.3

    def y_of(log_bf: float) -> float:
        return _MARGIN_TOP + (hi - log_bf) / (hi - lo) * _PLOT_H

    # log-scale gridlines at decades within range
    ticks = [(tick, f"{10.0 ** tick:g}")
             for tick in range(math.ceil(lo), math.floor(hi) + 1)]
    y_ref = y_of(0.0)
    marks = [
        f'<line class="bf-one" x1="{_MARGIN_LEFT}" y1="{y_ref:.2f}" '
        f'x2="{SVG_WIDTH - _MARGIN_RIGHT}" y2="{y_ref:.2f}" '
        f'stroke="#333333" stroke-width="1.5" stroke-dasharray="6,3"/>',
        _text(SVG_WIDTH - _MARGIN_RIGHT, y_ref - 5, "BF = 1", 11, "end"),
    ]
    return _bar_chart("Bayes factors (BF10) by trial and dose", y_of, ticks, bars,
                      marks, "BF10 (log scale)")


def _posterior_chart(report: Report) -> bytes:
    """Bar chart of posterior P(H1|D) per condition plus meta-analysis bars."""
    bars = [
        (f"{s.record.trial} {s.record.arm}", s.result.posterior_h1, "#4878a8",
         _fmt_pct(s.result.posterior_h1))
        for s in report.studies
    ] + [
        (f"meta {m.group}", m.result.posterior_h1, "#55a868", _fmt_pct(m.result.posterior_h1))
        for m in report.meta
    ]

    def y_of(p: float) -> float:
        return _MARGIN_TOP + _PLOT_H - p * _PLOT_H

    ticks = [(frac, f"{frac * 100:.0f}%") for frac in (0.0, 0.25, 0.5, 0.75, 1.0)]
    return _bar_chart("Posterior probability of efficacy P(H1|D)", y_of, ticks, bars)


def emit_charts(report: Report) -> tuple[bytes, bytes]:
    """Two SVG 1.1 charts: Bayes factors and posterior probabilities.

    Output is byte-deterministic for identical reports.
    """
    return _bf_chart(report), _posterior_chart(report)
