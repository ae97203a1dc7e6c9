"""Self-test of the benchmark itself (not of trialbayes).

    python3 perfbench/selftest.py      # from the repository root, ~3 minutes

Checks that inputs are a pure function of the seed, that the checker flags
a value nudged by 1e-6 relative, a t from p that does not give p back and a
raised exception, that the oracle's noncentral t fallback agrees with
mpmath, that run.py emits exactly the metric names in BENCHMARK.json, that
traced counts repeat for a seed, and that run.py refuses a directory
without the program.
"""

from __future__ import annotations

import copy
import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402

FAILURES = []
COUNTS = ("calls", "evaluations", "errors", "repeat_share", "bytes_out", "nonzero_exits")


def expect(condition, message):
    print(("ok   " if condition else "FAIL ") + message)
    if not condition:
        FAILURES.append(message)


def first_ops(workload, seed, count=120):
    return list(itertools.islice(workloads.ops(workload, seed), count))


def test_seeds():
    for workload in workloads.BLOCKS:
        expect(first_ops(workload, 7) == first_ops(workload, 7),
               f"{workload}: same seed, same inputs")
        expect(first_ops(workload, 7) != first_ops(workload, 8),
               f"{workload}: another seed, other inputs")
    expect(workloads.meta_catalogue(3) == workloads.meta_catalogue(3)
           and workloads.meta_catalogue(3) != workloads.meta_catalogue(4), "meta catalogue seeded")
    draws = [d for _, d in itertools.islice(workloads.ops("study_stream", 5), 2000)]
    expect(len({workloads._key(d) for d in draws}) == len(draws), "study_stream never repeats")


def nudged(entry, path, factor=1.0 + 1e-6):
    entry = copy.deepcopy(entry)
    target = entry["out"]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] *= factor
    return entry


def test_checker():
    from trialbayes import MetaInput, StudyRecord, analyze_study, meta_bf, summarize

    checker = checks.Checker("study_stream", 1)
    draw = {"n": 547, "design": "two_sample", "p": 0.012}
    r = analyze_study(StudyRecord("a", "b", 547, p_value=0.012))
    entry = {"input": draw, "out": {
        "bf10": r.bf10, "bf01": r.bf01, "posterior_h1": r.posterior_h1, "label": str(r.label),
        "summary": [r.summary.t, r.summary.nu_bf, r.summary.n_eff]}}
    expect(checker.check(entry) == [], "study output passes")
    for path in (("bf10",), ("bf01",), ("posterior_h1",), ("summary", 1)):
        expect(checker.check(nudged(entry, path)) != [],
               f"study: {'/'.join(map(str, path))} x (1 + 1e-6) flagged")
    consistent = copy.deepcopy(entry)
    bf10 = entry["out"]["bf10"] * (1.0 + 1e-6)
    consistent["out"].update(bf10=bf10, bf01=1.0 / bf10, posterior_h1=bf10 / (bf10 + 1.0))
    expect(checker.check(consistent) != [],
           "study: self-consistent BF10 x (1 + 1e-6) flagged by the oracle")
    t_draw = {"n": 80, "design": "one_sample", "t": 2.5}
    r = analyze_study(StudyRecord("a", "b", 80, t_value=2.5, design="one_sample"))
    t_entry = {"input": t_draw, "out": {
        "bf10": r.bf10, "bf01": r.bf01, "posterior_h1": r.posterior_h1, "label": str(r.label),
        "summary": [r.summary.t, r.summary.nu_bf, r.summary.n_eff]}}
    expect(checker.check(t_entry) == [], "one-sample t output passes")
    expect(checker.check(nudged(t_entry, ("summary", 0))) != [],
           "study: given t x (1 + 1e-6) flagged")
    for n, design, p, factor in ((547, "two_sample", 0.012, 1.0 + 1e-6),
                                 (10, "one_sample", 1e-12, 1.0 + 1e-4)):
        given = {"n": n, "design": design, "p": p}
        t = analyze_study(checks._record(given)).summary.t * factor
        # a BF10 consistent with a t that is off
        r = analyze_study(checks._record({"n": n, "design": design, "t": t}))
        off = {"input": given, "out": {
            "bf10": r.bf10, "bf01": r.bf01, "posterior_h1": r.posterior_h1,
            "label": str(r.label), "summary": [r.summary.t, r.summary.nu_bf, r.summary.n_eff]}}
        expect(any("gives p" in problem for problem in checker.check(off)),
               f"study: t from p = {p} x {factor} flagged against the input p")
    raised = {"input": draw, "error": "ZeroDivisionError: float division by zero"}
    expect(checker.check(raised) != [], "study: raised exception flagged")

    checker = checks.Checker("meta_pool", 1)
    pool = [0, 1, 2, 3]
    sums = tuple(summarize(checks._record(checker.catalogue[k])) for k in pool)
    m = meta_bf(MetaInput(studies=sums))
    entry = {"input": pool, "out": {
        "bf10": m.bf10, "bf01": m.bf01, "posterior_h1": m.posterior_h1,
        "summaries": [[s.t, s.nu_bf, s.n_eff] for s in sums]}}
    expect(checker.check(entry) == [], "meta output passes")
    expect(checker.check(nudged(entry, ("bf10",))) != [], "meta: bf10 x (1 + 1e-6) flagged")
    consistent = copy.deepcopy(entry)
    bf10 = m.bf10 * (1.0 + 1e-6)
    consistent["out"].update(bf10=bf10, bf01=1.0 / bf10, posterior_h1=bf10 / (bf10 + 1.0))
    expect(checker.check(consistent) != [],
           "meta: self-consistent BF10 x (1 + 1e-6) flagged by the oracle")
    expect(checker.check({"input": pool, "error": "OverflowError: (34, 'out of range')"}) != [],
           "meta: raised exception flagged")

    checker = checks.Checker("cli_report", 1)
    args = {"n1": 500, "n2": 600, "t": 2.1}
    from trialbayes import cli
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        cli.main(["bf", "--n1", "500", "--n2", "600", "--t", "2.1", "--format", "json"])
    op = {"kind": "bf_t_json", "args": args, "exit": 0, "stdout": buf.getvalue(),
          "stderr": "", "files": {}}
    expect(checker.check_cli(op) == [], "cli bf json passes")
    payload = json.loads(op["stdout"])
    payload["bf10"] *= 1.0 + 1e-6
    expect(checker.check_cli(dict(op, stdout=json.dumps(payload))) != [],
           "cli: bf10 x (1 + 1e-6) flagged")
    expect(checker.check_cli(dict(op, exit=3, stderr="numerical error")) != [],
           "cli: non-zero exit flagged")


def test_fallback():
    import numpy as np

    cases = ((-2.2452, 5758.0, 3.913), (2.0, 9.0, -4.0), (7.5, 19998.0, 7.4), (-0.3, 40.0, 2.0))
    for t, nu, mu in cases:
        value = oracle._nct_logpdf_integral(np.array([t]), np.array([nu]), np.array([mu]))[0]
        reference = oracle.nct_logpdf_mpmath(t, nu, mu)
        expect(abs(value - reference) < 1e-9, f"nct fallback ({t}, {nu}, {mu}) matches mpmath")


def run(workload, trace, cwd=ROOT, seed=1):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def test_runs():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: [m["name"] for m in spec["end_to_end"]], 1: [m["name"] for m in spec["per_layer"]]}
    for workload in workloads.BLOCKS:
        for trace in (0, 1):
            proc = run(workload, trace)
            ok = proc.returncode == 0
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if ok else {}
            expect(ok and sorted(result["metrics"]) == sorted(names[trace]),
                   f"{workload} --trace {trace}: emits exactly the BENCHMARK.json metrics")
            if ok and trace == 0:
                expect(result["correct"] and result["attempted"] >= 1,
                       f"{workload}: outputs correct")
            if ok and trace == 1:
                again = json.loads(run(workload, 1).stdout.strip().splitlines()[-1])
                counts = [n for n in names[1] if set(n.split(".")) & set(COUNTS)]
                expect(all(result["metrics"][n] == again["metrics"][n] for n in counts),
                       f"{workload}: traced counts repeat for a seed")


def test_bare_directory():
    bare = ROOT / ".perfbench_out" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("study_stream", 0, cwd=bare)
    last = proc.stdout.strip().splitlines()[-1:] or [""]
    expect(proc.returncode != 0 and not last[0].startswith("{"),
           "a directory without the program: non-zero exit, no result")
    shutil.rmtree(bare)


def main():
    test_seeds()
    test_checker()
    test_fallback()
    test_runs()
    test_bare_directory()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
