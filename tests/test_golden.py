"""Every value in tests/golden_grid.json, recomputed by the current code.

The grid (written by tests/make_golden_grid.py) holds seeded analyze_study
and meta_bf inputs with the ln BF10 they gave at the commit it names, or the
exception they raised. A numerical change may move ln BF10 by at most
LN_BF_TOL; t, nu_bf and n_eff must not move at all.
"""

import json
from pathlib import Path

import pytest

from make_golden_grid import run_pool, run_study

LN_BF_TOL = 1e-9

GRID = json.loads(Path(__file__).with_name("golden_grid.json").read_text())["entries"]


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
