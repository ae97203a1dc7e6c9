"""Client process for the library workloads, and the set-up probe.

Started by run.py in a fresh interpreter with trialbayes on the path. It
imports the package, warms it up with one operation and prints "ready";
with --setup-only it stops there. Otherwise it runs one closed loop over the
workload's operations, one at a time, timing each call into trialbayes, and
writes every input, output, error and latency to --out, one JSON line per
operation, then a last line with the totals and the host-speed calibration
samples (calibration.py) taken between operations.
The checks run later in run.py, outside the timed region and outside this
process, so that this process's peak memory is the program's.

    python perfbench/worker.py --workload study_stream --seed 1 --seconds 30 --out ops.json
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import calibration
import workloads


def _warm_up(workload):
    """Import trialbayes and run one operation of the workload's kind."""
    from trialbayes import engine, meta

    if workload == "cli_report":
        from trialbayes import cli

        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["classify", "--bf", "3"])
        return
    high = [engine.StudyRecord(trial, "high", n, p_value=p)
            for trial, n, p in (("EMERGE", 547, 0.012), ("ENGAGE", 555, 0.82))]
    if workload == "study_stream":
        engine.analyze_study(high[0])
    else:
        meta.meta_bf(meta.MetaInput(studies=tuple(engine.summarize(r) for r in high)))


def _record(engine, draw, name):
    designs = {"two_sample": engine.TWO_SAMPLE_EQUAL_ARMS, "one_sample": engine.ONE_SAMPLE}
    return engine.StudyRecord(
        trial="bench", arm=name, n=draw["n"], p_value=draw.get("p"),
        t_value=draw.get("t"), design=designs[draw["design"]],
    )


def _summary_out(s):
    return [s.t, s.nu_bf, s.n_eff]


class Client:
    """Runs operations of one library workload against trialbayes."""

    def __init__(self, workload, seed, tracer=None):
        from trialbayes import engine, meta

        self.engine, self.meta = engine, meta
        self.workload = workload
        self.tracer = tracer
        if workload == "meta_pool":
            self.catalogue = [
                _record(engine, draw, str(k))
                for k, draw in enumerate(workloads.meta_catalogue(seed))
            ]

    def call(self, op):
        """The timed part of one operation: trialbayes calls only."""
        engine, meta = self.engine, self.meta
        if self.workload == "study_stream":
            return engine.analyze_study(_record(engine, op, "stream"))
        summaries = tuple(engine.summarize(self.catalogue[k]) for k in op)
        return summaries, meta.meta_bf(meta.MetaInput(studies=summaries))

    def output(self, result):
        if self.workload == "study_stream":
            return {
                "bf10": result.bf10, "bf01": result.bf01,
                "posterior_h1": result.posterior_h1, "label": str(result.label),
                "summary": _summary_out(result.summary),
            }
        summaries, pooled = result
        return {
            "bf10": pooled.bf10, "bf01": pooled.bf01,
            "posterior_h1": pooled.posterior_h1,
            "summaries": [_summary_out(s) for s in summaries],
        }

    def run(self, index, block, op):
        tracer = self.tracer
        if tracer is not None:
            tracer.op = index
            root = tracer.begin("bench.op")
        error = None
        start = time.perf_counter()
        try:
            result = self.call(op)
        except Exception as exc:  # an operation's failure is data, not a crash
            latency = time.perf_counter() - start
            error = exc
        else:
            latency = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root, error)
            if self.workload == "study_stream":
                self._direct_forms(op, None if error else result.summary)
        entry = {"index": index, "block": block, "input": op, "latency": latency}
        if error is None:
            entry["out"] = self.output(result)
        else:
            entry["error"] = f"{type(error).__name__}: {error}"
        return entry

    def _direct_forms(self, op, summary):
        """Time the two Bayes factor forms alone on the operation's summary."""
        engine, tracer = self.engine, self.tracer
        root = tracer.begin("bench.direct")
        try:
            if summary is None:
                summary = engine.summarize(_record(engine, op, "direct"))
            for name in ("jzs_bf_delta_form", "jzs_bf_g_form"):
                form = getattr(engine, name, None)
                if form is not None:
                    with contextlib.suppress(Exception):
                        form(summary.t, summary)
        except Exception:  # summarize itself fails on some tail inputs
            pass
        tracer.end(root)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--blocks", type=int, default=0,
                        help="run exactly this many whole blocks instead of --seconds")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    _warm_up(args.workload)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    client = Client(args.workload, args.seed, tracer)
    host = calibration.Calibration()

    # Entries go to the file as they come, so that this process's peak
    # memory does not grow with the length of the run.
    with open(args.out, "w", encoding="utf-8") as fh:
        start = time.perf_counter()
        for index, block, op in workloads.measured(args.workload, args.seed, args.seconds,
                                                   args.blocks):
            fh.write(json.dumps(client.run(index, block, op)) + "\n")
            host.due()
        elapsed = time.perf_counter() - start - host.seconds
        host.sample()  # at least one, however short the loop
        fh.write(json.dumps({
            "elapsed": elapsed,
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "calibration": host.samples,
        }) + "\n")
    if tracer is not None:
        tracer.write(args.spans)
    return 0


if __name__ == "__main__":
    sys.exit(main())
