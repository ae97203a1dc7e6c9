"""Write tests/reference_values.json: truth references from mpmath.

    PYTHONPATH=src python tests/make_reference.py

Two kinds of reference, neither computed by trialbayes:

- nct_pins: for each (t, nu, mu) of test_numerics._PINNED_NCT, ln f of the
  noncentral t density from its 1F1 closed form (Johnson, Kotz &
  Balakrishnan 1995, ch. 31), at 400 and at 500 digits. Where t mu < 0 its
  two terms cancel by up to ~250 digits, so the script stops unless the two
  precisions agree to 1e-150.
- golden_studies: for each single-study entry of tests/golden_grid.json with
  a finite ln BF10, ln BF10 from the JZS integral over the prior mixing
  variance g (Rouder et al. 2009, Psychon. Bull. Rev. 16:225), taken in
  x = ln g by 25-digit mpmath.quad at the entry's t, nu_bf, n_eff and r.
  Splitting the window at half-unit steps instead, at 35 digits, moves no
  value by more than 2e-23.

Values are decimal strings with 30 significant digits. Takes about 8 s on one
core: 3 s for the pins, 5 s for the studies.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import mpmath
import numpy as np

from test_numerics import _PINNED_NCT

HERE = Path(__file__).parent
OUT = HERE / "reference_values.json"
DIGITS = 30
_SPLITS = (-64, -32, -16, -8, -4, -2, -1, 0, 1, 2, 4, 8, 16, 32, 64, 128)


def nct_logpdf(t, nu, mu, dps):
    """ln noncentral t density at t from its 1F1 closed form, in dps digits."""
    with mpmath.workdps(dps):
        t, nu, mu = mpmath.mpf(t), mpmath.mpf(nu), mpmath.mpf(mu)
        s = nu + t * t
        z = mu * mu * t * t / (2 * s)
        front = (
            nu / 2 * mpmath.log(nu) + mpmath.loggamma(nu + 1) - mu * mu / 2
            - nu * mpmath.log(2) - nu / 2 * mpmath.log(s) - mpmath.loggamma(nu / 2)
        )
        odd = (mpmath.sqrt(2) * mu * t / s * mpmath.hyp1f1(nu / 2 + 1, 1.5, z)
               / mpmath.gamma((nu + 1) / 2))
        even = (mpmath.hyp1f1((nu + 1) / 2, 0.5, z)
                / (mpmath.sqrt(s) * mpmath.gamma(nu / 2 + 1)))
        return front + mpmath.log(odd + even)


def jzs_ln_bf10(t, nu, n_eff, r, dps=25):
    """ln BF10 from the JZS integral over x = ln g, in dps-digit mpmath.quad.

    The integrand exp(h(x)) has a peak about a unit wide. The quadrature
    covers where h lies within 100 of its peak, both found on a float grid,
    split at offsets from the peak that double away from it.
    """
    def h(x, lib):
        shrink = 1 + n_eff * lib.exp(x)
        return (
            -lib.log(shrink) / 2 - (nu + 1) / 2 * lib.log(1 + t * t / (nu * shrink))
            + lib.log(r) - lib.log(2 * lib.pi) / 2 - x / 2 - r * r / 2 * lib.exp(-x)
        )

    guess = math.log(0.5 * (r * r + t * t / n_eff))
    grid = np.linspace(guess - 80.0, guess + 220.0, 30001)
    with np.errstate(over="ignore"):
        values = h(grid, np)
    inside = grid[values > values.max() - 100.0]
    peak = grid[values.argmax()]
    lo, hi = inside[0] - peak, inside[-1] - peak
    offsets = [lo] + [s for s in _SPLITS if lo < s < hi] + [hi]
    with mpmath.workdps(dps):
        t, nu, n_eff, r = (mpmath.mpf(v) for v in (t, nu, n_eff, r))
        top = h(mpmath.mpf(peak), mpmath)
        total = mpmath.quad(lambda x: mpmath.exp(h(x, mpmath) - top),
                            [peak + s for s in offsets])
        ln_null = -(nu + 1) / 2 * mpmath.log(1 + t * t / nu)
        return top + mpmath.log(total) - ln_null


def main():
    pins = []
    for t, nu, mu, _ in _PINNED_NCT:
        low, high = nct_logpdf(t, nu, mu, 400), nct_logpdf(t, nu, mu, 500)
        with mpmath.workdps(500):
            if abs(low - high) > mpmath.mpf("1e-150") * abs(high):
                raise SystemExit(f"400 and 500 digits disagree at {(t, nu, mu)}")
        pins.append({"t": t, "nu": nu, "mu": mu, "ln_f": mpmath.nstr(high, DIGITS)})

    grid = json.loads((HERE / "golden_grid.json").read_text())["entries"]
    studies = []
    for entry in grid:
        if entry["kind"] != "study" or "ln_bf10" not in entry:
            continue
        t = float.fromhex(entry["t"])
        r = entry["input"].get("r", math.sqrt(2.0) / 2.0)
        ln_bf10 = jzs_ln_bf10(t, entry["nu_bf"], entry["n_eff"], r)
        studies.append({"input": entry["input"],
                        "ln_bf10": mpmath.nstr(ln_bf10, DIGITS)})

    OUT.write_text(json.dumps({"nct_pins": pins, "golden_studies": studies}, indent=1)
                   + "\n")
    print(f"wrote {len(pins)} pins and {len(studies)} studies to {OUT}")


if __name__ == "__main__":
    main()
