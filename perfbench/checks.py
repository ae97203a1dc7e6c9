"""Output checks for every benchmark operation, run after the timed loop.

An operation fails if it raised, exited non-zero, or if any check below
finds a problem with its output; the checker never drops or re-draws one.

Every Bayes factor must be finite and positive, BF10 * BF01 = 1, the
posterior must lie in [0, 1] and equal BF10 / (BF10 + 1) at prior 1/2, and a
label must equal classify_evidence(BF10). The degrees of freedom and
effective sample size must follow the documented conventions for the input,
a given t must be returned unchanged, and BF10 must match the independent
reference in oracle.py, evaluated at the t the program reports, to
LN_BF_TOL in ln BF10.

A t inverted from p must give the input p back: scipy's two-sided p at
that t must lie within P_REL_TOL * p + P_ABS_TOL of it. The absolute term
is the known loss of ROADMAP item 2: the program forms 1 - p/2 before
inverting, and rounding there (and in its CDF near 1) moves p by up to
2 * 2**-53, which is up to ~1e-5 relative in t at p = 1e-12. P_ABS_TOL
allows twice that and no more; the relative term allows for the program's
t CDF, which is accurate to ~3e-11 relative. The bound thus ties the BF10
of a p-given study to the input p, not only to the t the program reports.
The relative t error against scipy's quantile is also collected in
`t_errors` and reported by the traced run as
engine.t_from_p.max_rel_error, so that the fix for item 2 shows there.
"""

from __future__ import annotations

import json
import math
import re

import oracle
import workloads

LN_BF_TOL = 1e-7
IDENTITY_TOL = 1e-12
P_REL_TOL = 1e-10
P_ABS_TOL = 4 * 2.0 ** -53


def _close(a, b, tol):
    return abs(a - b) <= tol * max(abs(a), abs(b))


def _record(draw):
    """The library's StudyRecord for a generated draw."""
    from trialbayes.engine import ONE_SAMPLE, TWO_SAMPLE_EQUAL_ARMS, StudyRecord

    return StudyRecord(
        trial=draw.get("trial", "cli"), arm=draw.get("arm", "cli"), n=draw["n"],
        p_value=draw.get("p"), t_value=draw.get("t"),
        design=TWO_SAMPLE_EQUAL_ARMS if draw["design"] == "two_sample" else ONE_SAMPLE,
    )


class Checker:
    def __init__(self, workload, seed):
        from trialbayes import classify_evidence

        self.classify_evidence = classify_evidence
        self.workload = workload
        self.t_errors = []
        self._oracle_cache = {}
        if workload == "meta_pool":
            self.catalogue = workloads.meta_catalogue(seed)
        if workload == "cli_report":
            self.catalogue = workloads.cli_catalogue(seed)

    # -- shared pieces -------------------------------------------------------

    def _bayes_factor(self, out, problems):
        bf10, bf01, post = out["bf10"], out["bf01"], out["posterior_h1"]
        if not (math.isfinite(bf10) and bf10 > 0.0):
            problems.append(f"BF10 not finite and positive: {bf10!r}")
            return False
        if not _close(bf10 * bf01, 1.0, IDENTITY_TOL):
            problems.append(f"BF10 * BF01 = {bf10 * bf01!r}")
        if not (0.0 <= post <= 1.0 and _close(post, bf10 / (bf10 + 1.0), IDENTITY_TOL)):
            problems.append(f"posterior {post!r} inconsistent with BF10 {bf10!r}")
        label = self.classify_evidence(bf10)
        if isinstance(out.get("label"), dict):  # the JSON report's form
            if out["label"] != {"strength": label.strength, "direction": label.direction}:
                problems.append(f"label {out['label']!r} for BF10 {bf10!r}")
        elif "label" in out and out["label"] != str(label):
            problems.append(f"label {out['label']!r} for BF10 {bf10!r}")
        return True

    def _summary(self, draw, summary, problems):
        """Check (t, nu, n_eff) against the input; returns it for the oracle."""
        t, nu, n_eff = summary
        _, want_nu, want_n_eff = oracle.summary(draw["n"], t=0.0, design=draw["design"])
        if nu != want_nu or not _close(n_eff, want_n_eff, IDENTITY_TOL):
            problems.append(f"nu, n_eff = {nu!r}, {n_eff!r} for {draw}")
        if "t" in draw:
            if t != draw["t"]:
                problems.append(f"t = {t!r} for given t {draw['t']!r}")
        else:
            want_t = oracle.summary(draw["n"], p=draw["p"], design=draw["design"])[0]
            self.t_errors.append(abs(t - want_t) / want_t if want_t > 0.0 else abs(t))
            p_back = oracle.p_value(draw["n"], t)
            if abs(p_back - draw["p"]) > P_REL_TOL * draw["p"] + P_ABS_TOL:
                problems.append(f"t = {t!r} gives p = {p_back!r} for given p {draw['p']!r}")
        return t, nu, n_eff

    def _oracle(self, key, compute):
        if key not in self._oracle_cache:
            self._oracle_cache[key] = compute()
        return self._oracle_cache[key]

    def _single_oracle(self, bf10, summary, problems):
        want = self._oracle(("single",) + tuple(summary), lambda: oracle.ln_bf10(*summary))
        if abs(math.log(bf10) - want) > LN_BF_TOL:
            problems.append(f"ln BF10 = {math.log(bf10)!r}, reference {want!r}")

    def _meta_oracle(self, bf10, summaries, problems):
        key = ("meta",) + tuple(tuple(s) for s in summaries)
        want = self._oracle(key, lambda: oracle.meta_ln_bf10(summaries))
        if abs(math.log(bf10) - want) > LN_BF_TOL:
            problems.append(f"pooled ln BF10 = {math.log(bf10)!r}, reference {want!r}")

    # -- library workloads ---------------------------------------------------

    def check(self, entry):
        """Problems with one worker entry; a raised error is one problem."""
        if "error" in entry:
            return [entry["error"]]
        problems = []
        out = entry["out"]
        if self.workload == "study_stream":
            summary = self._summary(entry["input"], out["summary"], problems)
            if self._bayes_factor(out, problems):
                self._single_oracle(out["bf10"], summary, problems)
        else:
            draws = [self.catalogue[k] for k in entry["input"]]
            summaries = [self._summary(d, s, problems) for d, s in zip(draws, out["summaries"])]
            if self._bayes_factor(out, problems):
                self._meta_oracle(out["bf10"], summaries, problems)
        return problems

    # -- cli_report ----------------------------------------------------------

    def check_cli(self, op):
        """Problems with one CLI run: exit code, stdout and files written."""
        if op["exit"] != 0:
            return [f"exit {op['exit']}: {op['stderr'][-300:]}"]
        problems = []
        kind, args, stdout = op["kind"], op["args"], op["stdout"]
        try:
            if kind == "classify":
                want = str(self.classify_evidence(args["bf"]))
                if stdout.strip() != want:
                    problems.append(f"classify printed {stdout.strip()!r}, want {want!r}")
            elif kind == "bf_p":
                self._check_bf_text(args, stdout, problems)
            elif kind == "bf_t_json":
                self._check_bf_json(args, json.loads(stdout), problems)
            elif kind == "meta":
                self._check_meta_json(args, json.loads(stdout), problems)
            else:
                self._check_report(op, problems)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"unparseable {kind} output: {exc!r}")
        return problems

    def _check_bf_text(self, args, stdout, problems):
        from trialbayes import analyze_study

        draw = {"n": args["n"], "p": args["p"], "design": "two_sample"}
        result = analyze_study(_record(draw))
        s = result.summary
        library = {"bf10": result.bf10, "bf01": result.bf01,
                   "posterior_h1": result.posterior_h1, "label": str(result.label)}
        summary = self._summary(draw, [s.t, s.nu_bf, s.n_eff], problems)
        if self._bayes_factor(library, problems):
            self._single_oracle(result.bf10, summary, problems)
        lines = stdout.strip().splitlines()
        t = float(re.match(r"t = (\S+)", lines[0]).group(1))
        bf10, bf01 = map(float, re.match(r"BF10 = (\S+)\s+BF01 = (\S+)", lines[1]).groups())
        percent = int(re.match(r"P\(H1\|data\) = (\d+)%", lines[2]).group(1))
        shown = ((t, s.t, 5e-5), (bf10, result.bf10, 5e-3), (bf01, result.bf01, 5e-3))
        for printed, value, half_unit in shown:
            if abs(printed - value) > half_unit * (1.0 + 1e-9):
                problems.append(f"printed {printed!r} for {value!r}")
        if percent != round(result.posterior_h1 * 100):
            problems.append(f"printed {percent}% for posterior {result.posterior_h1!r}")
        if lines[3] != str(result.label):
            problems.append(f"printed label {lines[3]!r}, want {str(result.label)!r}")

    def _check_bf_json(self, args, payload, problems):
        n1, n2 = args["n1"], args["n2"]
        summary = oracle.summary(n1, t=args["t"], n2=n2)
        if payload["t"] != args["t"] or payload["nu"] != summary[1] or not _close(
                payload["n_eff"], summary[2], IDENTITY_TOL):
            problems.append(f"summary {payload['t'], payload['nu'], payload['n_eff']} for {args}")
        if self._bayes_factor(payload, problems):
            self._single_oracle(payload["bf10"], summary, problems)

    def _library_summaries(self, members, problems):
        """The library's (t, nu, n_eff) for catalogue members, checked."""
        from trialbayes import summarize

        out = []
        for draw in (self.catalogue[k] for k in members):
            s = summarize(_record(draw))
            out.append(self._summary(draw, [s.t, s.nu_bf, s.n_eff], problems))
        return out

    def _check_meta_json(self, args, payload, problems):
        """Each printed group against the reference at the library's summaries."""
        if len(payload) != len(args["groups"]):
            problems.append(f"{len(payload)} groups printed, {len(args['groups'])} asked")
            return
        for k, (members, entry) in enumerate(zip(args["groups"], payload)):
            names = [f"{self.catalogue[m]['trial']}.{self.catalogue[m]['arm']}" for m in members]
            if entry["group"] != f"g{k}" or entry["members"] != names:
                problems.append(f"group {entry['group']!r} {entry['members']} for {names}")
            summaries = self._library_summaries(members, problems)
            if self._bayes_factor(entry, problems):
                self._meta_oracle(entry["bf10"], summaries, problems)

    def _report_reference(self):
        """Bytes the library renders for the bundled reanalysis, checked once."""
        if not hasattr(self, "_report"):
            from trialbayes.engine import AnalysisConfig
            from trialbayes.io import (ADUCANUMAB_META_GROUPS, emit_charts, load_bundled_dataset,
                                       render_report, run_reanalysis)

            dataset = load_bundled_dataset()
            report = run_reanalysis(dataset, AnalysisConfig(), ADUCANUMAB_META_GROUPS)
            bf_svg, posterior_svg = emit_charts(report)
            files = {
                "stdout": render_report(report, "text_table"),
                "report.json": render_report(report, "json"),
                "bayes_factors.svg": bf_svg,
                "posteriors.svg": posterior_svg,
            }
            problems = []
            payload = json.loads(files["report.json"])
            by_name = {}
            for study in payload["studies"]:
                draw = {"n": study["n"], "design": "two_sample"}
                draw.update({"p": study["p"]} if study["p"] is not None else {"t": study["t"]})
                summary = self._summary(draw, oracle.summary(study["n"], t=study["t"]), problems)
                by_name[f"{study['trial']}.{study['arm']}"] = summary
                if self._bayes_factor(study, problems):
                    self._single_oracle(study["bf10"], summary, problems)
            for group in payload["meta"]:
                if self._bayes_factor(group, problems):
                    self._meta_oracle(group["bf10"], [by_name[m] for m in group["members"]],
                                      problems)
            self._report = (files, problems)
        return self._report

    def _check_report(self, op, problems):
        files, reference_problems = self._report_reference()
        problems.extend(reference_problems)
        produced = dict(op["files"], stdout=op["stdout"].encode("utf-8"))
        for name, data in files.items():
            if produced.get(name) != data:
                problems.append(f"{name} differs from the library's rendering")
