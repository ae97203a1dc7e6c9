"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of the seed, so the same seed gives the
same inputs. Inputs come in blocks that are stratified: each block holds the
same mix of designs, statistics and sizes, with values jittered within their
strata, so that runs of different lengths or seeds see one input
distribution and their medians stay comparable.
"""

from __future__ import annotations

import itertools
import math
import random
import time

# study_stream: one block of STUDY_BLOCK draws holds STUDY_BLOCK - 1 regular
# summaries and one ROADMAP item-2 tail input (2%).
STUDY_BLOCK = 50
_REGULAR = STUDY_BLOCK - 1
_TWO_SAMPLE = round(0.8 * _REGULAR)
_P_GIVEN = round(0.7 * _REGULAR)
_T_NEGATIVE = round(0.25 * (_REGULAR - _P_GIVEN))
N_RANGE = (10, 5000)
P_RANGE = (1e-12, 0.99)
T_RANGE = (0.05, 8.0)

# meta_pool: a catalogue of ordinary studies plus strongly significant ones.
CATALOGUE_ORDINARY = 180
CATALOGUE_STRONG = 20
M_RANGE = (2, 32)
M_LEVELS = 16
META_BLOCK = M_LEVELS + 1  # the ordinary pools plus one strong pool

# cli_report: one block is one cycle through the subcommands.
CLI_CYCLE = ("classify", "bf_p", "bf_t_json", "meta", "report")
CLI_CATALOGUE = 24


def _log_uniform(rng, lo, hi, u=None):
    u = rng.random() if u is None else u
    return math.exp(math.log(lo) + u * (math.log(hi) - math.log(lo)))


def _strata(rng, count):
    """One jittered point in each of `count` equal strata of (0, 1), shuffled."""
    points = [(k + rng.random()) / count for k in range(count)]
    rng.shuffle(points)
    return points


def _shuffled(rng, flags):
    flags = list(flags)
    rng.shuffle(flags)
    return flags


def _regular_block(rng):
    """_REGULAR published-trial-like summaries with a fixed mix."""
    n_u = _strata(rng, _REGULAR)
    two = _shuffled(rng, [True] * _TWO_SAMPLE + [False] * (_REGULAR - _TWO_SAMPLE))
    p_given = _shuffled(rng, [True] * _P_GIVEN + [False] * (_REGULAR - _P_GIVEN))
    p_u = iter(_strata(rng, _P_GIVEN))
    t_count = _REGULAR - _P_GIVEN
    t_u = iter(_strata(rng, t_count))
    t_sign = iter(_shuffled(rng, [-1.0] * _T_NEGATIVE + [1.0] * (t_count - _T_NEGATIVE)))
    for k in range(_REGULAR):
        draw = {
            "n": int(round(_log_uniform(rng, *N_RANGE, u=n_u[k]))),
            "design": "two_sample" if two[k] else "one_sample",
        }
        if p_given[k]:
            draw["p"] = float(f"{_log_uniform(rng, *P_RANGE, u=next(p_u)):.3g}")
        else:
            draw["t"] = round(next(t_sign) * _log_uniform(rng, *T_RANGE, u=next(t_u)), 4)
        yield draw


def _regular_stream(rng):
    while True:
        yield from _regular_block(rng)


def _tail(rng, kind):
    """ROADMAP item-2 inputs: p below 1e-16, t = 40 at n = 5000, t = 60 at n = 20000."""
    if kind == 0:
        return {"n": int(round(_log_uniform(rng, *N_RANGE))), "design": "two_sample",
                "p": float(f"{10.0 ** rng.uniform(-30.0, -16.0):.3g}")}
    if kind == 1:
        return {"n": 5000, "design": "two_sample", "t": round(40.0 + 0.5 * rng.random(), 4)}
    return {"n": 20000, "design": "two_sample", "t": round(60.0 + 0.5 * rng.random(), 4)}


def _key(draw):
    return (draw["n"], draw["design"], draw.get("p"), draw.get("t"))


def study_blocks(seed):
    """Endless blocks of single-study summaries; no input ever repeats."""
    rng = random.Random(f"study_stream:{seed}")
    spare = _regular_stream(rng)
    seen = set()
    for index in itertools.count():
        block = []
        for draw in _regular_block(rng):
            while _key(draw) in seen:  # redraw the input, never the outcome
                draw = next(spare)
            block.append(draw)
        tail = _tail(rng, index % 3)
        while _key(tail) in seen:
            tail = _tail(rng, index % 3)
        block.insert(rng.randrange(STUDY_BLOCK), dict(tail, tail=True))
        seen.update(_key(d) for d in block)
        yield block


def regular_studies(rng, count):
    """`count` regular summaries drawn block by block."""
    return list(itertools.islice(_regular_stream(rng), count))


def meta_catalogue(seed):
    """Fixed catalogue: ordinary studies, then strongly significant ones."""
    rng = random.Random(f"meta_catalogue:{seed}")
    ordinary = regular_studies(rng, CATALOGUE_ORDINARY)
    strong = [
        {"n": 10000, "design": "two_sample", "t": round(8.0 + rng.uniform(-0.25, 0.25), 4)}
        for _ in range(CATALOGUE_STRONG)
    ]
    return ordinary + strong


def pool_sizes():
    """Pool sizes at the mid-quantiles of the log-uniform law over M_RANGE."""
    return [
        int(round(_log_uniform(None, *M_RANGE, u=(k + 0.5) / M_LEVELS)))
        for k in range(M_LEVELS)
    ]


def pool_blocks(seed):
    """Endless blocks of pools, each a list of catalogue indices.

    A block holds one ordinary pool of each size in pool_sizes() and one pool
    of all the strongly significant studies, in a seeded order.
    """
    rng = random.Random(f"meta_pool:{seed}")
    ordinary = range(CATALOGUE_ORDINARY)
    strong = list(range(CATALOGUE_ORDINARY, CATALOGUE_ORDINARY + CATALOGUE_STRONG))
    while True:
        block = [rng.sample(ordinary, m) for m in _shuffled(rng, pool_sizes())]
        block.insert(rng.randrange(META_BLOCK), _shuffled(rng, strong))
        yield block


def cli_catalogue(seed):
    """Studies for the generated `meta --input` dataset, with unique names."""
    rng = random.Random(f"cli_catalogue:{seed}")
    studies = regular_studies(rng, CLI_CATALOGUE)
    for k, study in enumerate(studies):
        study["trial"], study["arm"] = f"T{k // 2:02d}", "ab"[k % 2]
    return studies


def cli_blocks(seed):
    """Endless cycles of CLI operations as (subcommand kind, argument dict)."""
    rng = random.Random(f"cli_report:{seed}")
    p_draws = (d for d in _regular_stream(rng) if "p" in d and d["design"] == "two_sample")
    while True:
        block = []
        for kind in CLI_CYCLE:
            if kind == "classify":
                args = {"bf": float(f"{10.0 ** rng.uniform(-3.0, 3.0):.4g}")}
            elif kind == "bf_p":
                draw = next(p_draws)
                args = {"n": draw["n"], "p": draw["p"]}
            elif kind == "bf_t_json":
                args = {
                    "n1": int(round(_log_uniform(rng, *N_RANGE))),
                    "n2": int(round(_log_uniform(rng, *N_RANGE))),
                    "t": round(_log_uniform(rng, *T_RANGE), 4),
                }
            elif kind == "meta":
                names = list(range(CLI_CATALOGUE))
                rng.shuffle(names)
                first, second = rng.randint(2, 4), rng.randint(2, 4)
                args = {"groups": [names[:first], names[first:first + second]]}
            else:
                args = {}
            block.append((kind, args))
        yield block


# A measured run takes at least this many operations, so that its p90 has at
# least ten samples above it.
MIN_OPS = 100

BLOCKS = {"study_stream": study_blocks, "meta_pool": pool_blocks, "cli_report": cli_blocks}
# Operations in the traced run: a fixed number of whole blocks, so that its
# counts repeat exactly for a seed.
TRACE_BLOCKS = {"study_stream": 4, "meta_pool": 2, "cli_report": 4}


def ops(workload, seed):
    """Endless operations of a workload, with their block numbers."""
    for number, block in enumerate(BLOCKS[workload](seed)):
        for op in block:
            yield number, op


def measured(workload, seed, seconds=0.0, blocks=0):
    """(index, block, op) over whole blocks: exactly `blocks` of them, or
    until the block boundary nearest to `seconds`, once MIN_OPS have been
    taken.

    Stopping only between blocks keeps every run's input mix the same. The
    nearest boundary is the first at which half a mean block more would pass
    `seconds`, so that runs end on average at `seconds` and not half a block
    after it.
    """
    start = time.perf_counter()
    last = None
    for index, (block, op) in enumerate(ops(workload, seed)):
        if block != last:
            if blocks:
                if block >= blocks:
                    return
            elif index >= MIN_OPS:
                elapsed = time.perf_counter() - start
                if elapsed + 0.5 * elapsed / block >= seconds:
                    return
            last = block
        yield index, block, op
