"""The noncentral t kernel works in fixed-size blocks, so its temporaries
stay small however many densities one integrand evaluation asks for.

The limits are on the peak traced allocation of one call, after a warm-up
call; a kernel that evaluated every density's nodes at once would need
several times these.
"""

import math
import random
import tracemalloc

from trialbayes.engine import StudyRecord, TTestSummary, analyze_study
from trialbayes.meta import MetaInput, meta_bf

KIB = 1024


def _peak_traced(call):
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_single_study_peak():
    # nu = 22 grades every mesh toward q = 0, and delta < 0 adds the ladder
    record = StudyRecord("small", "arm", 12, t_value=0.3)
    assert _peak_traced(lambda: analyze_study(record)) <= 192 * KIB


def test_pool_of_32_peak():
    rng = random.Random(5)
    studies = []
    for _ in range(32):
        n = round(math.exp(rng.uniform(math.log(20), math.log(3000))))
        studies.append(TTestSummary(t=rng.uniform(-1.0, 5.0), nu_inversion=n - 1.0,
                                    nu_bf=2.0 * n - 2.0, n_eff=n / 2.0))
    pool = MetaInput(studies=tuple(studies))
    assert _peak_traced(lambda: meta_bf(pool)) <= 384 * KIB
