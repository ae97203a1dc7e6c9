"""Every value in tests/golden_grid.json, recomputed by the current code.

The grid (written by tests/make_golden_grid.py) holds seeded analyze_study
and meta_bf inputs with the ln BF10 they gave at the commit it names, or the
exception they raised. A numerical change may move ln BF10 by at most
LN_BF_TOL; t, nu_bf and n_eff must not move at all. Each t inverted from a
p must also agree with scipy's quantile to T_REL_TOL, and each finite
single-study ln BF10 with the mpmath reference in tests/reference_values.json
(written by tests/make_reference.py) to REFERENCE_ABS_TOL.
"""

import json
from pathlib import Path

import pytest
import scipy.special

from make_golden_grid import _config, _record, run_pool, run_study, summarize

LN_BF_TOL = 1e-9
T_REL_TOL = 1e-14
REFERENCE_ABS_TOL = 1e-10

GRID = json.loads(Path(__file__).with_name("golden_grid.json").read_text())["entries"]
P_GIVEN = [e for e in GRID if e["kind"] == "study" and "p" in e["input"] and "t" in e]
REFERENCE = [
    dict(kind="study", **e) for e in json.loads(
        Path(__file__).with_name("reference_values.json").read_text()
    )["golden_studies"]
]


def _id(entry):
    case = entry["input"]
    if entry["kind"] == "pool":
        return f"pool-M{len(case['studies'])}-r{case['r']:.3g}"
    stat = f"p{case['p']:.3g}" if "p" in case else f"t{case['t']:g}"
    return f"study-n{case['n']}-{stat}"


@pytest.mark.parametrize("entry", GRID, ids=[_id(e) for e in GRID])
def test_golden_value(entry):
    run = run_pool if entry["kind"] == "pool" else run_study
    if "error" in entry:
        with pytest.raises(Exception) as raised:
            run(entry["input"])
        assert type(raised.value).__name__ == entry["error"]
        return
    got = run(entry["input"])
    if entry["kind"] == "study":
        t, nu_bf, n_eff, got = got
        assert (t, nu_bf, n_eff) == (
            float.fromhex(entry["t"]), entry["nu_bf"], entry["n_eff"]
        )
    want = float.fromhex(entry["ln_bf10"])
    assert abs(got - want) <= LN_BF_TOL, f"ln BF10 {got!r}, golden {want!r}"


@pytest.mark.parametrize("entry", P_GIVEN, ids=[_id(e) for e in P_GIVEN])
def test_golden_t_agrees_with_scipy(entry):
    case = entry["input"]
    nu = summarize(_record(case), _config(case)).nu_inversion
    tail = case["p"] / 2.0 if case.get("sidedness", "two_sided") == "two_sided" else case["p"]
    want = max(-float(scipy.special.stdtrit(nu, tail)), 0.0)
    assert float.fromhex(entry["t"]) == pytest.approx(want, rel=T_REL_TOL, abs=0.0)


@pytest.mark.parametrize("entry", REFERENCE, ids=[_id(e) for e in REFERENCE])
def test_golden_study_against_reference(entry):
    got = run_study(entry["input"])[3]
    want = float(entry["ln_bf10"])
    assert abs(got - want) <= REFERENCE_ABS_TOL, f"ln BF10 {got!r}, reference {want!r}"
