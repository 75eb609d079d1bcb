"""Seeded benchmark of the provgames library and CLI.

Run from the repository root:

    python3 bench/run.py --workload cycle-fixpoint --seed 1 --seconds 20 --trace 0

Workloads: cycle-fixpoint, model-check, cli-batch (see bench/README.md).
One process, one thread, one caller in a closed loop.  The run generates
its inputs from --seed, sets the program up several times (set-up time is
the median), runs one untimed warm-up pass over its operations, then timed
passes until --seconds have passed, and checks every computed value against
the oracles in bench/oracles.py.  With --trace 1 the later part of the run
is traced (bench/tracing.py) and per-layer metrics are printed instead of the
end-to-end ones.  The last line of output is one JSON object; a copy of the
result and the trace go to bench/out/.
"""

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time

import oracles
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(BENCH, "out")
SETUPS = 5  # before the warm-up; an untraced run adds one after every timed pass
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, to measure tracing overhead


def program_modules():
    return {name: module for name, module in sys.modules.items()
            if name == "provgames" or name.startswith("provgames.")}


def purge_program():
    for name in program_modules():
        del sys.modules[name]


def timed_setup(setup, inputs, times):
    """Set the program up from a fresh import; return its context."""
    purge_program()
    gc.collect()
    start = time.perf_counter()
    ctx = setup(inputs)
    times.append(time.perf_counter() - start)
    return ctx


class Measurement:
    """Operation times and failures of the timed passes."""

    def __init__(self):
        self.op_seconds = []
        self.pass_rates = []
        self.attempted = 0
        self.failed = 0

    def ops_per_s(self):
        # The host's speed changes within seconds, so a run's throughput is
        # taken over all its timed work rather than as the median pass.
        return self.attempted / sum(self.op_seconds)


def record(op, result, mismatches):
    """Keep the first result of an operation; every later one must equal it."""
    try:
        key = op.key(result)
    except Exception as exc:  # a result the benchmark cannot read is a wrong result
        mismatches[op.name] = f"unreadable result: {type(exc).__name__}: {exc}"
        return
    if op.first is None:
        op.first = key
    elif key != op.first:
        mismatches.setdefault(op.name, "result changed between passes")


def run_pass(ops, ctx, measurement, mismatches, failures):
    clock = time.perf_counter
    spent = 0.0
    for op in ops:
        gc.collect()
        start = clock()
        try:
            result = op.run(ctx)
        except Exception as exc:  # a failing operation is counted, not fatal
            elapsed = clock() - start
            failures.setdefault(op.name, f"{type(exc).__name__}: {str(exc)[:160]}")
            measurement.failed += 1
        else:
            elapsed = clock() - start
            record(op, result, mismatches)
        spent += elapsed
        measurement.op_seconds.append(elapsed)
        measurement.attempted += 1
    measurement.pass_rates.append(len(ops) / spent)


def calibrate():
    """Milliseconds for a fixed pure-Python loop; shows drift of the host."""
    start = time.perf_counter()
    total = 0
    for i in range(200_000):
        total += i * i % 7
    return (time.perf_counter() - start) * 1000


def measure(ops, ctx, until, mismatches, failures, calib_ms, between=None):
    """Whole timed passes until `until`; `between` runs after each pass."""
    measurement = Measurement()
    while True:
        run_pass(ops, ctx, measurement, mismatches, failures)
        calib_ms.append(calibrate())
        if between is not None:
            between()
        if time.perf_counter() >= until:
            return measurement


def verify(ops, mismatches, failures):
    """Check each operation's first result; return a list of problems."""
    problems = [f"{name}: {message}" for name, message in sorted(mismatches.items())]
    for op in ops:
        if op.name in failures and op.fault is None:
            problems.append(f"{op.name}: unexpected failure {failures[op.name]}")
        if op.first is None:
            continue
        try:
            op.check(op.first)
        except Exception as exc:  # any error while checking is a wrong value
            problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    return problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(SRC, "provgames", "__init__.py")):
        sys.exit(f"error: no provgames sources under {SRC}")
    oracles.selftest()
    # Import the program from bytecode, as an installed package is, whatever
    # PYTHONDONTWRITEBYTECODE says; the bytecode is kept under bench/out/.
    sys.pycache_prefix = os.path.join(OUT, "pycache")
    sys.dont_write_bytecode = False
    sys.path.insert(0, SRC)
    workdir = os.path.join(OUT, f"work-{args.workload}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)

    make_inputs, setup, make_ops = workloads.WORKLOADS[args.workload]
    inputs = make_inputs(args.seed, workdir, ROOT)
    ops = make_ops(inputs)
    setup_times = []
    for _ in range(SETUPS):
        ctx = timed_setup(setup, inputs, setup_times)
    program = os.path.abspath(ctx["pg"].__file__)
    if not program.startswith(SRC + os.sep):
        sys.exit(f"error: provgames was imported from {program}, not from {SRC}")

    mismatches, failures, calib = {}, {}, []
    run_pass(ops, ctx, Measurement(), mismatches, failures)  # warm-up
    start = time.perf_counter()
    if args.trace:
        until = start + args.seconds * UNTRACED_SHARE
        plain = measure(ops, ctx, until, mismatches, failures, calib)
        tracer = tracing.Tracer()
        tracer.install()
        bytes_before = ctx.get("output_bytes", 0)
        main_run = measure(ops, ctx, start + args.seconds, mismatches, failures, calib)
        output_bytes = ctx.get("output_bytes", 0) - bytes_before
    else:
        # Set-ups spread over the run see the same host as the operations.
        # Each makes a fresh copy of the program; the operations keep using
        # theirs, which goes back into sys.modules for any import they make.
        active = program_modules()

        def spread_setup():
            timed_setup(setup, inputs, setup_times)
            purge_program()
            sys.modules.update(active)

        main_run = measure(ops, ctx, start + args.seconds, mismatches, failures, calib,
                           spread_setup)
    setup_s = statistics.median(setup_times)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    calib_ms = statistics.median(calib)
    problems = verify(ops, mismatches, failures)

    if args.trace:
        passes = len(main_run.pass_rates)
        values = tracer.metrics(passes, output_bytes)
        values["host.calib_ms"] = calib_ms
        values["trace.overhead_pct"] = 100 * (1 - main_run.ops_per_s() / plain.ops_per_s())
        attempted = plain.attempted + main_run.attempted
        failed = plain.failed + main_run.failed
        trace_file = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
        tracer.write(trace_file, passes)
    else:
        cuts = statistics.quantiles([t * 1000 for t in main_run.op_seconds], n=10,
                                    method="inclusive")
        values = {"setup_s": setup_s, "ops_per_s": main_run.ops_per_s(),
                  "op_ms_p50": cuts[4], "op_ms_p90": cuts[8], "peak_rss_mb": peak_rss_mb}
        attempted, failed = main_run.attempted, main_run.failed
    units = {"setup_s": "s", "ops_per_s": "1/s", "op_ms_p50": "ms", "op_ms_p90": "ms",
             "peak_rss_mb": "MB", "host.calib_ms": "ms", "trace.overhead_pct": "%",
             "cli.output_bytes": "B", **{name: "s" for name in tracing.TIME_METRICS}}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name, "count")}
                    for name, value in values.items()},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "result": result, "problems": problems,
        "known_failures": failures, "setup_s": setup_s, "host.calib_ms": calib_ms,
        "passes": len(main_run.pass_rates), "ops_per_pass": len(ops),
        "pass_ops_per_s": main_run.pass_rates,
        "op_ms_median": {op.name: 1000 * statistics.median(main_run.op_seconds[k::len(ops)])
                         for k, op in enumerate(ops)},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
