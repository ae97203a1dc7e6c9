"""Write tests/golden_grid.json: seeded Bayes factors that later changes must keep.

    PYTHONPATH=src python tests/make_golden_grid.py

Each entry holds the inputs of one analyze_study or meta_bf call and what it
gave at the commit named in the file: ln BF10 as float.hex plus t, nu_bf and
n_eff, or the name of the exception it raised. tests/test_golden.py checks
every entry against the current code. Regenerating rewrites every value, so
a regeneration belongs in a change of its own that says why; otherwise an
entry may only be edited by hand from an error to a finite value that agrees
with perfbench/oracle.py, from an untyped error to a typed one, or to a more
accurate value: a t within 1e-14 of scipy's quantile, with ln BF10 within
1e-10 of perfbench/oracle.py at that t.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
from pathlib import Path

from trialbayes.engine import (
    ONE_SAMPLE,
    ONE_SIDED,
    TWO_SAMPLE_EQUAL_ARMS,
    TWO_SIDED,
    AnalysisConfig,
    StudyRecord,
    TTestSummary,
    analyze_study,
    summarize,
)
from trialbayes.meta import MetaInput, meta_bf

SEED = 20261018
STUDIES = 48
POOLS = {1: 3, 2: 3, 5: 2, 20: 1}  # pool size M -> number of pools
R_VALUES = (0.2, 0.5, math.sqrt(2.0) / 2.0, 1.0, math.sqrt(2.0))
OUT = Path(__file__).with_name("golden_grid.json")

# Tail inputs: the first two give ln BF10 beyond a double's range; the p
# below machine epsilon was refused until the inversion worked on the tail.
TAIL_STUDIES = (
    {"n": 5000, "t": 40.0},
    {"n": 20000, "t": 60.0},
    {"n": 547, "p": 1e-20},
)


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _study_input(rng):
    two_sample = rng.random() < 0.8
    case = {
        "n": int(round(_log_uniform(rng, 3, 5000))),
        "design": TWO_SAMPLE_EQUAL_ARMS if two_sample else ONE_SAMPLE,
        "r": rng.choice(R_VALUES),
        "sidedness": TWO_SIDED if rng.random() < 0.8 else ONE_SIDED,
    }
    if two_sample and rng.random() < 0.3:
        case["n2"] = int(round(_log_uniform(rng, 3, 5000)))
    if rng.random() < 0.6:
        case["p"] = float(f"{_log_uniform(rng, 1e-12, 0.99):.3g}")
    else:
        case["t"] = round(rng.choice((-1.0, 1.0)) * _log_uniform(rng, 0.05, 8.0), 4)
    return case


def _record(case):
    return StudyRecord(
        trial="golden", arm="golden", n=case["n"], n2=case.get("n2"),
        p_value=case.get("p"), t_value=case.get("t"),
        design=case.get("design", TWO_SAMPLE_EQUAL_ARMS),
    )


def _config(case):
    return AnalysisConfig(
        cauchy_scale_r=case.get("r", math.sqrt(2.0) / 2.0),
        sidedness=case.get("sidedness", TWO_SIDED),
    )


def run_study(case):
    """(t, nu_bf, n_eff, ln BF10) of analyze_study for one grid input."""
    result = analyze_study(_record(case), _config(case))
    s = result.summary
    return s.t, s.nu_bf, s.n_eff, result.ln_bf10


def run_pool(case):
    """ln BF10 of meta_bf for one pool of (t, nu_bf, n_eff) summaries."""
    studies = tuple(
        TTestSummary(t=t, nu_inversion=nu, nu_bf=nu, n_eff=n_eff)
        for t, nu, n_eff in case["studies"]
    )
    return math.log(meta_bf(MetaInput(studies=studies, r=case["r"])).bf10)


def _outcome(run, case):
    try:
        values = run(case)
    except Exception as exc:  # the grid records what each input raises
        return {"error": type(exc).__name__}
    if isinstance(values, float):
        return {"ln_bf10": values.hex()}
    t, nu_bf, n_eff, ln_bf10 = values
    return {"t": t.hex(), "nu_bf": nu_bf, "n_eff": n_eff, "ln_bf10": ln_bf10.hex()}


def build():
    rng = random.Random(SEED)
    studies = [_study_input(rng) for _ in range(STUDIES)] + list(TAIL_STUDIES)
    ordinary = []
    for _ in range(40):
        s = summarize(_record(_study_input(rng)))
        ordinary.append([s.t, s.nu_bf, s.n_eff])
    pools = [
        {"studies": rng.sample(ordinary, m), "r": rng.choice(R_VALUES)}
        for m, count in POOLS.items() for _ in range(count)
    ]
    # ROADMAP item 2: twenty strongly significant studies, as in perfbench's
    # meta_pool catalogue (t = 8 +- 0.25 at n = 10000 per arm).
    pools.append({
        "studies": [[round(8.0 + rng.uniform(-0.25, 0.25), 4), 19998.0, 5000.0]
                    for _ in range(20)],
        "r": math.sqrt(2.0) / 2.0,
    })
    return (
        [dict(kind="study", input=c, **_outcome(run_study, c)) for c in studies]
        + [dict(kind="pool", input=c, **_outcome(run_pool, c)) for c in pools]
    )


def main():
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True, text=True,
            cwd=Path(__file__).parent, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"
    grid = {"generated_at": commit, "seed": SEED, "entries": build()}
    OUT.write_text(json.dumps(grid, indent=1) + "\n")
    print(f"wrote {len(grid['entries'])} entries to {OUT}")


if __name__ == "__main__":
    main()
