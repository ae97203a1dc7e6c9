"""Command-line front end.

Subcommands: bf (single study), meta (pooled Bayes factor from a dataset
file), report (full reanalysis with JSON/SVG output), classify (Jeffreys
label for a Bayes factor). Exit codes: 0 success, 1 usage error, 2
data/validation error, 3 numerical non-convergence.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .engine import (
    DEFAULT_CAUCHY_SCALE,
    ONE_SAMPLE,
    TWO_SAMPLE_EQUAL_ARMS,
    AnalysisConfig,
    InternalConsistencyError,
    StudyRecord,
    analyze_study,
    classify_evidence,
)
from .io import (
    ADUCANUMAB_META_GROUPS,
    DatasetError,
    emit_charts,
    load_bundled_dataset,
    parse_dataset,
    pool_groups,
    render_report,
    run_reanalysis,
)
from .numerics import DomainError, NonConvergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERICAL = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse parser whose usage failures map to exit code 1."""

    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trialbayes", description=__doc__)
    parser.add_argument("--version", action="version", version=f"trialbayes {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    bf = sub.add_parser("bf", help="JZS Bayes factor for one study summary")
    size = bf.add_mutually_exclusive_group(required=True)
    size.add_argument("--n", type=int, help="per-arm sample size (equal arms)")
    size.add_argument("--n1", type=int, help="first arm sample size (with --n2)")
    bf.add_argument("--n2", type=int, help="second arm sample size (with --n1)")
    stat = bf.add_mutually_exclusive_group(required=True)
    stat.add_argument("--p", type=float, help="two-sided p-value")
    stat.add_argument("--t", type=float, help="t statistic")
    bf.add_argument("--design", choices=["two_sample", "one_sample"],
                    default="two_sample")
    bf.add_argument("--scale", type=float, default=DEFAULT_CAUCHY_SCALE,
                    help="Cauchy prior scale r (default sqrt(2)/2)")
    bf.add_argument("--prior", type=float, default=0.5, help="prior P(H1)")
    bf.add_argument("--sided", choices=["two_sided", "one_sided"],
                    default="two_sided")
    bf.add_argument("--format", choices=["text", "json"], default="text")

    meta = sub.add_parser("meta", help="meta-analytic Bayes factor from a dataset file")
    meta.add_argument("--input", required=True, help="CSV or JSON dataset path")
    meta.add_argument("--group", action="append", default=[],
                      metavar="NAME=TRIAL.ARM,...",
                      help="pooling group; repeatable")
    meta.add_argument("--scale", type=float, default=DEFAULT_CAUCHY_SCALE)
    meta.add_argument("--prior", type=float, default=0.5)
    meta.add_argument("--format", choices=["text", "json"], default="text")

    report = sub.add_parser("report", help="full reanalysis report (tables + charts)")
    report.add_argument("--input", help="dataset path (default: bundled aducanumab data)")
    report.add_argument("--out", help="write the JSON report to this path")
    report.add_argument("--plots", help="write the two SVG charts into this directory")
    report.add_argument("--group", action="append", default=[],
                        metavar="NAME=TRIAL.ARM,...")
    report.add_argument("--scale", type=float, default=DEFAULT_CAUCHY_SCALE)
    report.add_argument("--prior", type=float, default=0.5)

    classify = sub.add_parser("classify", help="Jeffreys evidence label for a Bayes factor")
    classify.add_argument("--bf", type=float, required=True, help="BF10 value")

    return parser


def _parse_groups(specs: list[str]) -> dict:
    """--group specs as {name: [(trial, arm), ...]}."""
    groups = {}
    for spec in specs:
        name, sep, members = spec.partition("=")
        if not sep or not name or not members:
            raise UsageError(f"bad --group spec {spec!r}, expected NAME=TRIAL.ARM,...")
        pairs = []
        for member in filter(None, (m.strip() for m in members.split(","))):
            trial, sep, arm = member.partition(".")
            if not sep:
                raise UsageError(f"group member {member!r} is not 'TRIAL.ARM'")
            pairs.append((trial, arm))
        if not pairs:
            raise UsageError(f"--group {name!r} has no members")
        if name in groups:
            raise UsageError(f"--group {name!r} is given more than once")
        groups[name] = pairs
    return groups


def _load_dataset(path: str):
    data = Path(path).read_bytes()
    fmt = "json" if path.endswith(".json") else "csv"
    return parse_dataset(data, fmt, name=Path(path).stem)


def _result_payload(result) -> dict:
    return {
        "t": result.summary.t,
        "nu": result.summary.nu_bf,
        "n_eff": result.summary.n_eff,
        "bf10": result.bf10,
        "bf01": result.bf01,
        "posterior_h1": result.posterior_h1,
        "label": str(result.label),
    }


def _cmd_bf(args) -> int:
    config = AnalysisConfig(cauchy_scale_r=args.scale, prior_h1=args.prior,
                            sidedness=args.sided)
    if args.n is not None and args.n2 is not None:
        raise UsageError("--n2 requires --n1, not --n")
    if args.n1 is not None and args.n2 is None:
        raise UsageError("--n1 requires --n2")
    if args.n1 is not None and args.design == "one_sample":
        raise UsageError("--n1/--n2 implies a two-sample design")
    design = TWO_SAMPLE_EQUAL_ARMS if args.design == "two_sample" else ONE_SAMPLE
    record = StudyRecord(trial="cli", arm="cli", n=args.n if args.n1 is None else args.n1,
                         n2=args.n2, p_value=args.p, t_value=args.t, design=design)
    result = analyze_study(record, config)

    if args.format == "json":
        print(json.dumps(_result_payload(result), indent=2))
    else:
        print(f"t = {result.summary.t:.4f}  (nu = {result.summary.nu_bf:g}, "
              f"N_eff = {result.summary.n_eff:g})")
        print(f"BF10 = {result.bf10:.2f}  BF01 = {result.bf01:.2f}")
        print(f"P(H1|data) = {round(result.posterior_h1 * 100):d}%")
        print(str(result.label))
    return EXIT_OK


def _cmd_meta(args) -> int:
    dataset = _load_dataset(args.input)
    groups = _parse_groups(args.group)
    if not groups:
        raise UsageError("meta requires at least one --group")
    config = AnalysisConfig(cauchy_scale_r=args.scale, prior_h1=args.prior)
    payload = [
        {
            "group": m.group,
            "members": [f"{trial}.{arm}" for trial, arm in m.members],
            "bf10": m.result.bf10,
            "bf01": m.result.bf01,
            "posterior_h1": m.result.posterior_h1,
        }
        for m in pool_groups(dataset, groups, config)
    ]
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for entry in payload:
            print(f"{entry['group']}: BF10 = {entry['bf10']:.2f}  "
                  f"BF01 = {entry['bf01']:.2f}  "
                  f"P(H1|data) = {round(entry['posterior_h1'] * 100):d}%  "
                  f"[{' + '.join(entry['members'])}]")
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.input:
        dataset = _load_dataset(args.input)
        groups = _parse_groups(args.group)
    else:
        dataset = load_bundled_dataset()
        groups = _parse_groups(args.group) if args.group else ADUCANUMAB_META_GROUPS
    config = AnalysisConfig(cauchy_scale_r=args.scale, prior_h1=args.prior)
    report = run_reanalysis(dataset, config, groups)

    sys.stdout.write(render_report(report, "text_table").decode("utf-8"))
    if args.out:
        Path(args.out).write_bytes(render_report(report, "json"))
    if args.plots:
        plots = Path(args.plots)
        plots.mkdir(parents=True, exist_ok=True)
        bf_svg, posterior_svg = emit_charts(report)
        (plots / "bayes_factors.svg").write_bytes(bf_svg)
        (plots / "posteriors.svg").write_bytes(posterior_svg)
    return EXIT_OK


def _cmd_classify(args) -> int:
    label = classify_evidence(args.bf)
    print(str(label))
    return EXIT_OK


_COMMANDS = {
    "bf": _cmd_bf,
    "meta": _cmd_meta,
    "report": _cmd_report,
    "classify": _cmd_classify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DatasetError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NonConvergenceError, InternalConsistencyError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
