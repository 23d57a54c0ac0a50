"""Benchmark of the posit command line, one workload per process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout: the package is imported from ./src and
the generated inputs go to ./.perfbench_work.  Set-up (a fresh import of
posit plus generating and writing the inputs) is repeated and its median
reported.  Then passes over the workload's operations repeat until the
run has taken about S seconds, each operation a `posit.cli.main(argv)`
call whose output is checked after the first pass.  Set-ups, passes and calls are timed by
the process's CPU time (user plus system), and a fixed reference
computation timed right before each of them divides out the machine's
changing speed (speed.py).  With --trace 1, untraced and traced passes
alternate and the per-layer metrics are reported instead.  The last line
of output is one JSON object; see README.md.

`--workload all` runs every workload, each in its own interpreter.
"""

import argparse
import gc
import importlib
import io
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from reference import KNOWN_DEFECT
from speed import UNIT_S, Speed, plan, slowdowns
from tracing import LAYER_METRICS, Tracer, write_spans
from workloads import WORKLOADS, Result

SETUP_REPEATS = 9
# Share of the time the reference units take, next to set-ups and passes.
SETUP_SHARE = 1.0
PASS_SHARE = 0.25


def fresh_import():
    for key in [k for k in sys.modules if k == "posit" or k.startswith("posit.")]:
        del sys.modules[key]
    return importlib.import_module("posit.cli")


def set_up(name, seed, workdir):
    cli = fresh_import()
    return cli, WORKLOADS[name](random.Random(seed), workdir)


def call(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.process_time()
        try:
            rc = cli.main(argv)            # module attribute: traced if wrapped
        except SystemExit as exc:
            rc = exc.code
        except Exception:
            rc = None
            traceback.print_exc()
        elapsed = time.process_time() - start
    return elapsed, Result(rc, out.getvalue(), err.getvalue())


def run_pass(cli, workload, speed, units=None, tracer=None):
    """One pass: (wall seconds, [(op, CPU seconds, result)], [(units, CPU
    seconds) of the reference run before each operation]).  With `units`,
    units[i] reference units run before the i-th operation."""
    calls, refs = [], []
    ops = workload.ops()
    result = None
    start = time.perf_counter()
    while True:
        try:
            op = ops.send(result)
        except StopIteration:
            break
        if units is not None:
            count = units[len(calls)] if len(calls) < len(units) else 0
            refs.append((count, speed.run(count)))
        if tracer is not None:
            tracer.op = len(calls)
        elapsed, result = call(cli, op.argv)
        calls.append((op, elapsed, result))
    return time.perf_counter() - start, calls, refs


def quantiles(values):
    """(median, 90th percentile) of a sample of at least two."""
    return statistics.median(values), statistics.quantiles(values, n=10)[8]


def measure(name, seed, seconds, trace, root):
    begin = time.perf_counter()
    work = root / ".perfbench_work"
    rundir = work / ("%s-%d" % (name, seed))
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    speed = Speed()
    # Untimed: compiles bytecode and creates the files, which the timed
    # set-ups then rewrite; creating hundreds of files is what varied most.
    start = time.process_time()
    cli, workload = set_up(name, seed, rundir)
    setup_units = plan([time.process_time() - start], SETUP_SHARE)[0]
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        cli = workload = None
        gc.collect()        # the dropped modules are reference cycles
        slower = speed.run(setup_units) / (setup_units * UNIT_S)
        start = time.process_time()
        cli, workload = set_up(name, seed, rundir)
        raw_setups.append(time.process_time() - start)
        setups.append(raw_setups[-1] / slower)

    # First pass: untimed; its outputs are checked and every later pass
    # must repeat them, and its times spread the reference units.
    _, calls, _ = run_pass(cli, workload, speed)
    reference = [(op.argv, r, op.check(r)) for op, _, r in calls]
    units = plan([elapsed for _, elapsed, _ in calls], PASS_SHARE)
    failures = [failure for _, _, failure in reference]
    attempted = len(calls)

    tracer = Tracer() if trace else None
    passes, raws, traced_passes, walls, layers = [], [], [], [], []
    first_spans = []        # of the first traced pass, written at the end
    by_kind = {}            # kind -> per-pass totals
    latencies = {}          # call index -> its times over the passes
    last = 0.0
    # Start a pass only when the run, set-up included, should end within
    # `seconds`; but make at least one pass of each kind.
    while (not passes or (trace and not traced_passes)
           or time.perf_counter() - begin + last <= seconds):
        traced = trace and len(traced_passes) < len(passes)
        if traced:
            tracer.reset()
            tracer.install()
        try:
            wall, calls, refs = run_pass(cli, workload, speed, units,
                                         tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        last = wall
        attempted += len(calls)
        failures += [failure if op.argv == argv and r == ref else
                     "output differs from the first pass: %s" % argv
                     for (argv, ref, failure), (op, _, r) in
                     zip(reference, calls)]
        if len(calls) != len(reference):
            failures.append("pass made %d calls, first pass %d"
                            % (len(calls), len(reference)))
        # Each call divided by the reference's slowdown around it.
        times = [elapsed / slower for (_, elapsed, _), slower in
                 zip(calls, slowdowns(refs))]
        if traced:
            traced_passes.append(sum(times))
            layers.append(tracer.summary())
            if len(traced_passes) == 1:
                first_spans = list(tracer.spans)
            continue
        passes.append(sum(times))
        raws.append(sum(elapsed for _, elapsed, _ in calls))
        walls.append(wall)
        totals = {}
        for i, ((op, _, _), t) in enumerate(zip(calls, times)):
            totals[op.kind] = totals.get(op.kind, 0.0) + t
            if op.kind in workload.latency_kinds:
                latencies.setdefault(i, []).append(t)
        for kind, total in totals.items():
            by_kind.setdefault(kind, []).append(total)
    shutil.rmtree(rundir, ignore_errors=True)
    if trace:
        write_spans(first_spans, work / ("spans-%s-%d.tsv" % (name, seed)))

    failures = [text for text in failures if text is not None]
    wrong = [text for text in failures if not text.startswith(KNOWN_DEFECT)]
    # Percentiles over the workload's distinct calls, each call's time
    # the median over the passes: the spread of inputs, not of the timer.
    p50, p90 = quantiles([statistics.median(v) for v in latencies.values()])
    report = {
        "name": name, "seed": seed, "passes": len(passes),
        "traced_passes": len(traced_passes),
        "setup_s": statistics.median(setups), "setups": setups,
        "raw_setups": raw_setups,
        "pass_s": statistics.median(passes), "raws": raws, "walls": walls,
        "call_p50_ms": p50 * 1e3, "call_p90_ms": p90 * 1e3,
        "latency_calls": len(latencies),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "by_kind": {k: statistics.median(v) for k, v in by_kind.items()},
        "attempted": attempted, "failures": failures, "wrong": wrong,
    }
    if trace:
        report["layers"] = layers
        report["overhead_s"] = (statistics.median(traced_passes)
                                - report["pass_s"])
    return report


END_TO_END = (("setup_s", "s"), ("pass_s", "s"), ("call_p50_ms", "ms"),
              ("call_p90_ms", "ms"), ("peak_rss_mb", "MB"))

# Per-pass totals printed for each operation kind.
KIND_TOTALS = (("check", "check_s"), ("include", "include_s"),
               ("compare", "compare_s"), ("reduce", "reduce_s"),
               ("solve", "solve_s"), ("gadget", "certify_s"))


def print_report(rep, trace):
    print("workload %s, seed %d: %d untraced and %d traced passes"
          % (rep["name"], rep["seed"], rep["passes"], rep["traced_passes"]))
    for key, unit in END_TO_END:
        print("  %-12s %12.6f %s" % (key, rep[key], unit))
    print("  normalised set-ups: "
          + " ".join("%.3f" % t for t in rep["setups"]))
    print("  measured CPU time, before normalising:")
    print("    set-ups: " + " ".join("%.3f" % t for t in rep["raw_setups"]))
    print("    passes:  " + " ".join("%.3f" % t for t in rep["raws"]))
    print("  wall time of the passes, reference units included:")
    print("    passes:  " + " ".join("%.3f" % t for t in rep["walls"]))
    print("  latency over %d distinct %s calls, each over %d passes"
          % (rep["latency_calls"],
             "/".join(WORKLOADS[rep["name"]].latency_kinds), rep["passes"]))
    for kind, label in KIND_TOTALS:
        if kind in rep["by_kind"]:
            print("  %-12s %12.6f s per pass" % (label, rep["by_kind"][kind]))
    failed = len(rep["failures"])
    print("  fail_ratio   %d/%d = %.6f (%d known defect, %d wrong)"
          % (failed, rep["attempted"], failed / rep["attempted"],
             failed - len(rep["wrong"]), len(rep["wrong"])))
    for text in sorted(set(rep["failures"])):
        print("  failure: %s" % text)
    if trace:
        overhead = rep["overhead_s"]
        print("  trace.overhead_s %.6f s" % overhead)
        top = sorted(((v, k) for k, v in rep["layers"][0].items()
                      if k.endswith(".self_s")), reverse=True)[:12]
        for value, key in top:
            print("  %-48s %10.6f s" % (key, value))


def result_json(rep, trace):
    if trace:
        layers = rep["layers"]
        metrics = {}
        for key in LAYER_METRICS:
            if key == "trace.overhead_s":
                metrics[key] = {"value": rep["overhead_s"], "unit": "s"}
            elif key.endswith("_s"):
                # times: median over the traced passes
                metrics[key] = {"value": statistics.median(
                    layer.get(key, 0.0) for layer in layers), "unit": "s"}
            else:
                # counts repeat exactly from pass to pass
                metrics[key] = {"value": layers[0].get(key, 0),
                                "unit": "count"}
    else:
        metrics = {key: {"value": rep[key], "unit": unit}
                   for key, unit in END_TO_END}
    return {"correct": not rep["wrong"], "attempted": rep["attempted"],
            "failed": len(rep["failures"]), "metrics": metrics}


def run_all(args):
    """Every workload in its own interpreter; the first nonzero exit
    status, if any."""
    status = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace",
             str(args.trace)], check=False)
        status = status or proc.returncode
    return status


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if sys.flags.optimize:
        print("perfbench: refusing to run under python -O: the package "
              "re-checks its witnesses with assert", file=sys.stderr)
        return 2
    os.environ.pop("POSIT_MONOID_CAP", None)    # the default cap applies
    root = Path.cwd()
    if not (root / "src" / "posit" / "__init__.py").is_file():
        print("perfbench: run from the root of a posit checkout "
              "(no src/posit here)", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(root / "src"))
    rep = measure(args.workload, args.seed, args.seconds, args.trace, root)
    print_report(rep, args.trace)
    print(json.dumps(result_json(rep, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
