"""trialbayes benchmark: end-to-end and per-layer metrics for three workloads.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload study_stream --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/README.md for why each exists):
  study_stream  analyze_study on a stream of never-repeating trial summaries
  meta_pool     summarize + meta_bf on pools of 2-32 studies from a catalogue
  cli_report    one `python -m trialbayes.cli` subprocess per operation

Each run is a closed loop from one client process, one operation at a time.
With --trace 0 it measures whole input blocks for about --seconds and at
least workloads.MIN_OPS operations, then prints the end-to-end metrics, with
the loop's times scaled by the host's slowdown over the run
(calibration.py). With --trace 1 it runs a fixed number of blocks twice,
untraced and traced, and prints the per-layer metrics. Every operation's
output is checked after the timed loop (checks.py). The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS threads are pinned before anything imports numpy, here and in children.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 10      # fresh interpreters timed for setup_s
STARTUP_PROBES = 5     # fresh interpreters per cli.* start-up figure
CHILD_TIMEOUT = 120.0
OUT_DIR = ".perfbench_out"


def child_env(root):
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="0")


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


# -- the program's processes ---------------------------------------------------

def run_child(cmd, root, stdout_path=None):
    """Run one child to completion; returns (seconds, exit code, peak RSS in KB)."""
    out = open(stdout_path, "wb") if stdout_path else subprocess.DEVNULL
    err_path = f"{stdout_path}.err" if stdout_path else None
    err = open(err_path, "wb") if err_path else subprocess.DEVNULL
    try:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        for fh in (out, err):
            if fh is not subprocess.DEVNULL:
                fh.close()
    return seconds, proc.returncode, usage.ru_maxrss


def setup_seconds(root, workload):
    """Fresh interpreter to trialbayes imported and warmed up ("ready")."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--setup-only"]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=root, env=child_env(root), stdout=subprocess.PIPE)
    try:
        line = proc.stdout.readline()
        seconds = time.perf_counter() - start
        proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        proc.stdout.close()
        proc.wait(CHILD_TIMEOUT)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return seconds


def startup_reference(root):
    """Seconds a fresh interpreter takes to run calibration.STARTUP_CODE."""
    return run_child([sys.executable, "-c", calibration.STARTUP_CODE], root)[0]


def setup_probe(root, workload):
    """One set-up time and the start-up reference timed right after it."""
    return setup_seconds(root, workload), startup_reference(root)


def startup_ms(root):
    """cli.interpreter_ms and cli.import_ms, each a median of fresh processes."""
    def median_ms(code):
        return 1000.0 * statistics.median(
            run_child([sys.executable, "-c", code], root)[0] for _ in range(STARTUP_PROBES)
        )

    floor = median_ms("pass")
    return floor, median_ms("import trialbayes.cli") - floor


def run_worker(root, run_dir, workload, seed, name, **options):
    """Library workloads: the closed loop runs in worker.py; returns its record."""
    out = run_dir / f"{name}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    for key, value in options.items():
        cmd += [f"--{key.replace('_', '-')}", str(value)]
    log = run_dir / f"{name}.log"
    _, code, _ = run_child(cmd, root, log)
    if code != 0:
        err = Path(f"{log}.err").read_text(errors="replace")
        raise RuntimeError(f"worker exited with {code}:\n{err[-2000:]}")
    lines = out.read_text().splitlines()
    record = json.loads(lines[-1])
    record["ops"] = [json.loads(line) for line in lines[:-1]]
    for path in (out, log, Path(f"{log}.err")):
        path.unlink()
    return record


def write_cli_dataset(path, seed):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["trial", "arm", "n", "p", "t", "design"])
        for s in workloads.cli_catalogue(seed):
            writer.writerow([s["trial"], s["arm"], s["n"], repr(s["p"]) if "p" in s else "",
                             repr(s["t"]) if "t" in s else "", s["design"]])


def cli_argv(kind, args, dataset, op_dir, catalogue):
    if kind == "classify":
        return ["classify", "--bf", repr(args["bf"])]
    if kind == "bf_p":
        return ["bf", "--n", str(args["n"]), "--p", repr(args["p"])]
    if kind == "bf_t_json":
        return ["bf", "--n1", str(args["n1"]), "--n2", str(args["n2"]),
                "--t", repr(args["t"]), "--format", "json"]
    if kind == "meta":
        argv = ["meta", "--input", str(dataset), "--format", "json"]
        for k, members in enumerate(args["groups"]):
            names = ",".join(f"{catalogue[m]['trial']}.{catalogue[m]['arm']}" for m in members)
            argv += ["--group", f"g{k}={names}"]
        return argv
    return ["report", "--out", str(op_dir / "report.json"), "--plots", str(op_dir / "plots")]


def cli_loop(root, run_dir, seed, seconds=0.0, blocks=0, spans_dir=None):
    """cli_report: one CLI subprocess per operation, from this process.

    Returns the operations, the time they took and the start-up reference
    samples (calibration.STARTUP_CODE) taken between them.
    """
    host = calibration.Calibration(
        reference=lambda: startup_reference(root),
        nominal=calibration.STARTUP_NOMINAL_S, interval=calibration.STARTUP_INTERVAL_S)
    dataset = run_dir / "studies.csv"
    write_cli_dataset(dataset, seed)
    catalogue = workloads.cli_catalogue(seed)
    ops = []
    start = time.perf_counter()
    for index, block, (kind, args) in workloads.measured("cli_report", seed, seconds, blocks):
        op_dir = run_dir / f"op{index:05d}"
        op_dir.mkdir()
        argv = cli_argv(kind, args, dataset.relative_to(root), op_dir.relative_to(root), catalogue)
        if spans_dir is None:
            cmd = [sys.executable, "-m", "trialbayes.cli", *argv]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(spans_dir / f"op{index:05d}.jsonl"), *argv]
        stdout_path = op_dir / "stdout"
        latency, code, rss_kb = run_child(cmd, root, stdout_path)
        ops.append({"index": index, "block": block, "kind": kind, "args": args,
                    "latency": latency, "exit": code, "rss_kb": rss_kb, "op_dir": op_dir})
        host.due()
    elapsed = time.perf_counter() - start - host.seconds
    host.sample()  # at least one, however short the loop
    for op in ops:  # outside the timed loop
        op_dir = op.pop("op_dir")
        op["stdout"] = (op_dir / "stdout").read_text(encoding="utf-8", errors="replace")
        op["stderr"] = (op_dir / "stdout.err").read_text(encoding="utf-8", errors="replace")
        op["files"] = {}
        for path in (op_dir / "report.json", op_dir / "plots" / "bayes_factors.svg",
                     op_dir / "plots" / "posteriors.svg"):
            if path.exists():
                op["files"][path.name] = path.read_bytes()
        op["bytes_out"] = len(op["stdout"].encode("utf-8")) + sum(map(len, op["files"].values()))
        shutil.rmtree(op_dir)
    return ops, elapsed, host


# -- checking and metrics -----------------------------------------------------

def check_ops(checker, workload, ops):
    """Mark each operation failed or not; returns (failed, wrong answers).

    An operation that raised or exited non-zero failed. One that returned
    output failing a check failed too, and is also a wrong answer.
    """
    wrong = 0
    for op in ops:
        op["problems"] = checker.check_cli(op) if workload == "cli_report" else checker.check(op)
        raised = "error" in op or op.get("exit", 0) != 0
        wrong += bool(op["problems"]) and not raised
    return sum(1 for op in ops if op["problems"]), wrong


def studies_in(workload, op):
    """Study summaries a successful operation processed."""
    if workload == "study_stream":
        return 1
    if workload == "meta_pool":
        return len(op["input"])
    kind = op["kind"]
    if kind == "meta":
        return sum(len(g) for g in op["args"]["groups"])
    if kind == "report":
        return len(json.loads(op["files"]["report.json"])["studies"])
    return 0 if kind == "classify" else 1


def end_to_end(workload, ops, elapsed, setup, peak_rss_kb, slowdown=1.0):
    """The end-to-end metrics; the loop's times are divided by the host's
    `slowdown`, and `setup` comes scaled."""
    ok = [op for op in ops if not op["problems"]]
    # A failed operation misses any latency limit: it ranks above every
    # success, at the length of the whole run.
    latencies = [op["latency"] if not op["problems"] else elapsed for op in ops]
    studies = sum(studies_in(workload, op) for op in ok)
    elapsed /= slowdown
    return {
        "setup_s": (setup, "s"),
        "ops_per_s": (len(ok) / elapsed, "1/s"),
        "studies_per_s": (studies / elapsed, "1/s"),
        "latency_p50_ms": (1000.0 * percentile(latencies, 50) / slowdown, "ms"),
        "latency_p90_ms": (1000.0 * percentile(latencies, 90) / slowdown, "ms"),
        "success_ratio": (len(ok) / len(ops), "ratio"),
        "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, untraced, traced, op_spans, direct_spans, startup, t_errors,
              relative_slowdown):
    import tracing

    count = len(traced)
    summary = tracing.Summary(op_spans, "bench.op")
    direct = tracing.Summary(direct_spans, "bench.direct")

    def ms(table, name, at=None):
        return 1000.0 * table.get((name, at), 0) / count

    def per_op(table, name, at=None):
        return table.get((name, at), 0) / count

    nct, integrate = "numerics.noncentral_t_logpdf", "numerics.integrate"
    meta_ms = 1000.0 * summary.total.get(("meta.meta_bf", None), 0)
    metrics = {
        "numerics.noncentral_t_logpdf.calls": (per_op(summary.calls, nct), "count"),
        "numerics.noncentral_t_logpdf.ms": (ms(summary.total, nct), "ms"),
        "numerics.integrate.evaluations": (per_op(summary.evaluations, integrate), "count"),
        "numerics.integrate.self_ms": (ms(summary.self_time, "numerics.integrate"), "ms"),
        "numerics.student_t_quantile.ms": (ms(summary.total, "numerics.student_t_quantile"), "ms"),
        "engine.summarize.ms": (ms(summary.total, "engine.summarize"), "ms"),
        "engine.jzs_bf_delta_form.ms": (ms(direct.total, "engine.jzs_bf_delta_form"), "ms"),
        "engine.jzs_bf_g_form.ms": (ms(direct.total, "engine.jzs_bf_g_form"), "ms"),
        "engine.analyze_study.ms": (ms(summary.total, "engine.analyze_study"), "ms"),
        "engine.errors.typed": (summary.errors["typed"] / count, "count"),
        "engine.errors.untyped": (summary.errors["untyped"] / count, "count"),
        "engine.t_from_p.max_rel_error": (max(t_errors, default=0.0), "ratio"),
        "meta.meta_bf.ms": (meta_ms / count, "ms"),
        "meta.meta_bf.ms_per_study": (meta_ms / summary.studies if summary.studies else 0.0, "ms"),
        "meta.integrate.evaluations": (per_op(summary.evaluations, integrate, "meta"), "count"),
        "meta.noncentral_t_logpdf.calls": (per_op(summary.calls, nct, "meta"), "count"),
        "meta.repeat_share": (repeat_share(workload, traced), "ratio"),
        "io.parse_dataset.ms": (ms(summary.total, "io.parse_dataset"), "ms"),
        "io.run_reanalysis.ms": (ms(summary.total, "io.run_reanalysis"), "ms"),
        "io.render_report.ms": (ms(summary.total, "io.render_report"), "ms"),
        "io.emit_charts.ms": (ms(summary.total, "io.emit_charts"), "ms"),
        "io.bytes_out": (sum(op.get("bytes_out", 0) for op in traced) / count, "bytes"),
        "cli.interpreter_ms": (startup[0], "ms"),
        "cli.import_ms": (startup[1], "ms"),
        "cli.nonzero_exits": (sum(1 for op in traced if op.get("exit", 0) != 0) / count, "count"),
        "trace.overhead_pct": (100.0 * (sum(op["latency"] for op in traced) / relative_slowdown
                                        / sum(op["latency"] for op in untraced) - 1.0), "%"),
    }
    for kind in ("classify", "bf", "meta", "report"):
        runs = sum(1 for op in traced if op.get("kind", "").split("_")[0] == kind)
        total = summary.total.get((f"cli.main.{kind}", None), 0)
        metrics[f"cli.main_ms.{kind}"] = (1000.0 * total / runs if runs else 0.0, "ms")
    return metrics


def repeat_share(workload, ops):
    """Share of study draws already drawn earlier in the same run."""
    if workload != "meta_pool":
        return 0.0
    seen, repeats, draws = set(), 0, 0
    for op in ops:
        for k in op["input"]:
            repeats += k in seen
            draws += 1
            seen.add(k)
    return repeats / draws


# -- main -----------------------------------------------------------------------

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BLOCKS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "trialbayes" / "__init__.py").is_file():
        print("error: run from the root of a trialbayes checkout (src/trialbayes missing)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))  # the checker's library reference
    spec = json.loads((root / "BENCHMARK.json").read_text())
    # Build: byte-compile the package so no timed process pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/trialbayes"],
                   cwd=root, env=child_env(root), check=True, stdout=subprocess.DEVNULL)
    run_dir = root / OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)

    workload, seed = args.workload, args.seed
    if not args.trace:
        # Half the set-up probes run before the measured loop and half after,
        # so that setup_s samples the host at two moments. Each is scaled by
        # the start-up reference timed right after it.
        setups = [setup_probe(root, workload) for _ in range(SETUP_PROBES // 2)]
        if workload == "cli_report":
            ops, elapsed, host = cli_loop(root, run_dir, seed, args.seconds)
            peak_rss_kb = max(op["rss_kb"] for op in ops)
        else:
            record = run_worker(root, run_dir, workload, seed, "ops", seconds=args.seconds)
            ops, elapsed, peak_rss_kb = record["ops"], record["elapsed"], record["peak_rss_kb"]
            host = calibration.Calibration(record["calibration"])
        slowdown = host.slowdown()
        setups += [setup_probe(root, workload) for _ in range(SETUP_PROBES - len(setups))]
        setup = statistics.median(
            seconds * calibration.STARTUP_NOMINAL_S / reference for seconds, reference in setups)
        import checks

        checker = checks.Checker(workload, seed)
        failed, wrong = check_ops(checker, workload, ops)
        metrics = end_to_end(workload, ops, elapsed, setup, peak_rss_kb, slowdown)
        unscaled = end_to_end(workload, ops, elapsed,
                              statistics.median(seconds for seconds, _ in setups), peak_rss_kb)
        print(f"host slowdown {slowdown:.4f}; unscaled: " + ", ".join(
            f"{name} {value:.6g}" for name, (value, _) in unscaled.items()))
        declared = spec["end_to_end"]
    else:
        import tracing

        blocks = workloads.TRACE_BLOCKS[workload]
        startup = startup_ms(root)
        if workload == "cli_report":
            untraced, _, untraced_host = cli_loop(root, run_dir, seed, blocks=blocks)
            spans_dir = run_dir / "spans"
            spans_dir.mkdir()
            traced, _, traced_host = cli_loop(root, run_dir, seed, blocks=blocks,
                                              spans_dir=spans_dir)
            op_spans = [tracing.read_spans(p) for p in sorted(spans_dir.glob("*.jsonl"))]
            direct_spans = []
        else:
            record = run_worker(root, run_dir, workload, seed, "untraced", blocks=blocks)
            untraced, untraced_host = record["ops"], calibration.Calibration(record["calibration"])
            spans = run_dir / "spans.jsonl"
            record = run_worker(root, run_dir, workload, seed, "traced", blocks=blocks,
                                trace=1, spans=spans)
            traced, traced_host = record["ops"], calibration.Calibration(record["calibration"])
            op_spans = direct_spans = [tracing.read_spans(spans)]
        # The two runs happen at different moments, so each one's latency
        # total is scaled by the host's slowdown during it.
        slowdown = traced_host.slowdown() / untraced_host.slowdown()
        import checks

        checker = checks.Checker(workload, seed)
        _, wrong_untraced = check_ops(checker, workload, untraced)
        checker.t_errors = []
        failed, wrong = check_ops(checker, workload, traced)
        wrong += wrong_untraced
        ops = traced
        metrics = per_layer(workload, untraced, traced, op_spans, direct_spans,
                            startup, checker.t_errors, slowdown)
        declared = spec["per_layer"]

    units = {name: unit for name, (_, unit) in metrics.items()}
    if units != {m["name"]: m["unit"] for m in declared}:
        print("error: metric names or units disagree with BENCHMARK.json", file=sys.stderr)
        return 3
    wanted = [m["name"] for m in declared]
    for op in ops:
        if op["problems"]:
            print(f"failed op {op['index']}: {op['problems'][0][:200]}")
    for name in wanted:
        value, unit = metrics[name]
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"{workload} seed {seed}: {len(ops)} operations, {failed} failed, "
          f"parent peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    print(json.dumps({
        "correct": wrong == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {n: {"value": metrics[n][0], "unit": metrics[n][1]} for n in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
