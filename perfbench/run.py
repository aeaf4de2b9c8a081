#!/usr/bin/env python3
"""warpfill benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload h2_geodesics --seed 1 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src`` without
being installed.  The timed phase runs whole rounds of the workload (see
workloads.py) until ``--seconds`` have passed, timing each library call on
its own and checking every result against an independent reference.

--trace 0 prints the end-to-end metrics: setup_s (process start to the end
of set-up: imports, build_fg, spaces, round 0's inputs), ops_per_s (the
median over rounds of a round's operations per second of library calls)
and peak_rss_mb.

--trace 1 runs the same untraced phase, then replays its first rounds with
every public library function wrapped (tracer.py) and prints the per-layer
metrics: calls, inclusive and self seconds per function, work counts,
accuracy figures and trace.overhead_s, the traced minus the untraced time of
the replayed rounds.  Set-up's build_fg call is traced too.

The last line of standard output is one JSON object; a copy of it and the
spans of a traced run are written under perfbench/out/.
"""

import os
import sys
import time

T_ENTRY = time.perf_counter()
# one BLAS thread; set before numpy is first imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "peak_rss_mb": "MB"}


def process_age():
    """Seconds since this process started (kernel start time, 10 ms ticks),
    or since this file began running where /proc is not available."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - T_ENTRY


class Tally:
    """Attempted and failed operations and the figures the checks return."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.unexpected = []   # failures other than the kept fault
        self.op_seconds = 0.0
        self.errors = []       # |geodesic error| per checked solve
        self.max_violation = None
        self.empirical_kappa = None

    def record(self, op, ok, detail):
        self.attempted += 1
        kind = op["kind"]
        if kind in ("h2", "core") and isinstance(detail, float):
            self.errors.append(abs(detail))
        elif kind == "cat" and isinstance(detail, float):
            self.max_violation = detail if self.max_violation is None else max(self.max_violation, detail)
        elif kind == "scan" and ok:
            self.empirical_kappa = detail if self.empirical_kappa is None else min(self.empirical_kappa, detail)
        if not ok:
            self.failed += 1
            if not op.get("kept_fault"):
                self.unexpected.append(f"{kind}: {detail}")


def run_round(ctx, ops, prepared, tally, tracer=None, first_op=0):
    """Run one round; returns the seconds spent inside library calls."""
    spent = 0.0
    results = []
    for i, (op, args) in enumerate(zip(ops, prepared)):
        if tracer is not None:
            tracer.op = first_op + i
        t0 = time.perf_counter()
        try:
            result = ctx.run(op, args)
        except Exception:  # an operation that raises counts as failed
            spent += time.perf_counter() - t0
            traceback.print_exc(file=sys.stderr)
            results.append(None)
            tally.record(op, False, "raised")
            continue
        spent += time.perf_counter() - t0
        results.append(result)
        ok, detail = ctx.check(op, args, result, results)
        tally.record(op, ok, detail)
    tally.op_seconds += spent
    return spent


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "warpfill" / "__init__.py").is_file():
        print(f"warpfill sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]

    import warpfill  # noqa: F401  (the whole package, as the CLI loads it)
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    # ---- set-up ------------------------------------------------------------
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    ctx = workloads.Context()
    if tracer is not None:
        tracer.uninstall()

    def build(k):
        ops = workloads.round_inputs(args.workload, args.seed, k)
        return ops, [ctx.prepare(op) for op in ops]

    rounds = [build(0)]
    setup_s = process_age()

    # ---- timed phase, untraced ---------------------------------------------
    tally = Tally()
    round_seconds = []
    round_rates = []   # operations per library second, per round
    start = time.perf_counter()
    while True:
        k = len(round_seconds)
        if k == len(rounds):
            rounds.append(build(k))
        round_seconds.append(run_round(ctx, *rounds[k], tally))
        round_rates.append(len(rounds[k][0]) / round_seconds[-1])
        elapsed = time.perf_counter() - start
        if k >= workloads.TRACE_ROUNDS[args.workload]:
            rounds[k] = None  # keep only the rounds a traced run replays
        if elapsed + 0.5 * elapsed / len(round_seconds) >= args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if args.workload == "filling_cat":
        ok, violation = ctx.control()
        if not ok:
            tally.unexpected.append(f"control triangle violation {violation} not above 1e-3")

    OUT.mkdir(exist_ok=True)
    if not args.trace:
        values = {
            "setup_s": setup_s,
            "ops_per_s": statistics.median(round_rates),
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    else:
        replay = min(len(round_seconds), workloads.TRACE_ROUNDS[args.workload])
        metrics = traced_metrics(ctx, rounds[:replay], round_seconds[:replay], tracer, tally.unexpected)
        tracer.dump(OUT / f"trace-{args.workload}-seed{args.seed}.npz")
    result = {
        "correct": not tally.unexpected,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }

    for line in tally.unexpected:
        print("UNEXPECTED FAILURE", line, file=sys.stderr)
    print(f"# {args.workload} seed {args.seed}: {len(round_seconds)} rounds, "
          f"{tally.attempted} operations, {tally.failed} failed, "
          f"{tally.op_seconds:.3f} s in library calls, set-up {setup_s:.3f} s")
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0


def traced_metrics(ctx, rounds, round_seconds, tracer, unexpected):
    """Replay ``rounds`` with tracing on; per-layer metrics.  Failures of the
    replayed operations outside the kept fault go to ``unexpected``."""
    from tracer import per_layer_units

    tally = Tally()
    tracer.install()
    traced = 0.0
    first_op = 0
    try:
        for ops, prepared in rounds:
            traced += run_round(ctx, ops, prepared, tally, tracer, first_op)
            first_op += len(ops)
    finally:
        tracer.uninstall()
    unexpected.extend(f"traced {line}" for line in tally.unexpected)
    values = tracer.summary()
    values["warp_engine.solve_geodesic.max_abs_error"] = max(tally.errors, default=0.0)
    values["warp_engine.solve_geodesic.median_abs_error"] = (
        statistics.median(tally.errors) if tally.errors else 0.0)
    values["curvature_lab.cat_test.max_violation"] = (
        tally.max_violation if tally.max_violation is not None else 0.0)
    values["curvature_lab.curvature_scan.empirical_kappa"] = (
        tally.empirical_kappa if tally.empirical_kappa is not None else 0.0)
    values["trace.overhead_s"] = traced - sum(round_seconds)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_units().items()}


if __name__ == "__main__":
    sys.exit(main())
