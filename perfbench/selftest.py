#!/usr/bin/env python3
"""Self-test of the benchmark's checks and references.

    python3 perfbench/selftest.py

Every check must pass a correct result and fail a perturbed one: a distance
moved past the tolerance or below the closed form, a CAT violation above
tolerance, a control that no longer catches the flat triangle, a curvature
scan with a failed fd spot check, a non-positive bound or a term off -1, and
classifications with a wrong systole, a wrong 2 pi flag, a wrong colimit or
a twin that disagrees with its base.  The references are checked against
second formulas or brute force, the inputs for repeatability, and the
per-layer metric list against BENCHMARK.json.  A few real operations (one
geodesic, one small scan, one classification) run through the library.
Exits 1 if any verdict is wrong.
"""

import dataclasses
import itertools
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import per_layer_metrics  # noqa: E402

FAILURES = []


def expect(label, verdict, want):
    ok = bool(verdict[0]) is want
    print(f"{'ok  ' if ok else 'FAIL'} {label}: {'passes' if verdict[0] else 'fails'} ({verdict[1]})")
    if not ok:
        FAILURES.append(label)


def references():
    rng = np.random.default_rng(0)
    for _ in range(20):
        (r1, e1), (r2, e2) = rng.uniform(-1.5, 1.5, (2, 2))
        y1, y2 = math.exp(-r1), math.exp(-r2)
        naive = math.acosh(1.0 + ((e1 - e2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2))
        got = checks.h2_distance((r1, e1), (r2, e2))
        expect("h2 closed form matches arccosh form", (abs(got - naive) < 1e-9, got - naive), True)
    for _ in range(20):
        p = [*rng.uniform(0.0, 2.0, 1), *rng.uniform(-1, 1, 1), *rng.uniform(0, 7, 1)]
        q = [*rng.uniform(0.0, 2.0, 1), *rng.uniform(-1, 1, 1), *rng.uniform(0, 7, 1)]
        phi = min(checks.circle_gap(p[2], q[2], 7.0), math.pi)
        naive = math.acosh(math.cosh(p[0]) * math.cosh(q[0]) * math.cosh(p[1] - q[1])
                           - math.sinh(p[0]) * math.sinh(q[0]) * math.cos(phi))
        got = checks.cone_distance(p, q, 7.0)
        expect("cone closed form matches arccosh form", (abs(got - naive) < 1e-8, got - naive), True)
    for d in (2, 3):
        for _ in range(5):
            basis = np.eye(d) * rng.uniform(1.0, 2.0) + np.triu(rng.uniform(-3, 3, (d, d)), 1)
            brute = min(np.linalg.norm(np.asarray(c) @ basis)
                        for c in itertools.product(range(-12, 13), repeat=d) if any(c))
            got = checks.shortest_vector_length(basis)
            expect(f"enumeration matches brute force, d = {d}", (abs(got - brute) < 1e-9, got - brute), True)


def geodesic_checks():
    ref = 1.25
    expect("geodesic at the closed form", checks.check_geodesic(ref + 1e-6, ref), True)
    expect("geodesic off by 2e-4", checks.check_geodesic(ref + 2e-4, ref), False)
    expect("geodesic shorter than the closed form", checks.check_geodesic(ref - 1e-8, ref), False)
    expect("CAT violation below tolerance", checks.check_cat(1e-5), True)
    expect("CAT violation above tolerance", checks.check_cat(1e-3), False)
    expect("control catches the flat triangle", checks.check_control(0.05), True)
    expect("control misses the flat triangle", checks.check_control(5e-4), False)


def scan_checks():
    delta, tail = 0.19, 1.8
    rows = [{"r": r, "-f1''/f1": -1.0, "-f2''/f2": -1.0, "-f1'f2'/(f1 f2)": -1.0,
             "lower": -1.0, "upper": -1.0} for r in (0.05, 0.1, 2.0, 2.5)]
    rows.append({"r": 1.0, "-f1''/f1": -0.5, "-f2''/f2": -0.6, "-f1'f2'/(f1 f2)": -0.3,
                 "lower": -0.6, "upper": -0.3})
    scan = {"rows": rows, "fd_checks_ok": True, "empirical_kappa": 0.25}
    expect("scan as built", checks.check_scan(scan, delta, tail), True)
    expect("scan with a failed fd spot check",
           checks.check_scan({**scan, "fd_checks_ok": False}, delta, tail), False)
    expect("scan with kappa <= 0", checks.check_scan({**scan, "empirical_kappa": -0.01}, delta, tail), False)
    bent = [dict(row) for row in rows]
    bent[2]["-f2''/f2"] = -1.0 + 1e-7
    expect("scan with a tail term off -1", checks.check_scan({**scan, "rows": bent}, delta, tail), False)


def classify_checks():
    flags = {"two_pi_filling": True, "is_manifold": False}
    report = SimpleNamespace(per_cusp=((7.0, True, 1, 2), (9.0, True, 2, 1)), flags=flags)
    refs = [7.0, 9.0]
    expect("classification as built", checks.check_classify(report, refs, True), True)
    wrong = SimpleNamespace(per_cusp=((7.0 * (1 + 1e-6), True, 1, 2), (9.0, True, 2, 1)), flags=flags)
    expect("classification with a wrong systole", checks.check_classify(wrong, refs, True), False)
    flipped = SimpleNamespace(per_cusp=report.per_cusp, flags={**flags, "two_pi_filling": False})
    expect("classification with a wrong 2 pi flag", checks.check_classify(flipped, refs, True), False)
    short = SimpleNamespace(per_cusp=((6.0, True, 1, 2),), flags=flags)
    expect("classification calling a short systole a 2 pi filling",
           checks.check_classify(short, [6.0], True), False)
    expect("classification with a wrong colimit", checks.check_classify(report, refs, False), False)
    twin = SimpleNamespace(per_cusp=report.per_cusp, flags={**flags, "is_manifold": True})
    expect("twin whose flags changed", checks.check_classify(twin, refs, True, base=report), False)


def inputs_repeat():
    for w in workloads.WORKLOADS:
        a = json.dumps(workloads.round_inputs(w, 11, 1))
        b = json.dumps(workloads.round_inputs(w, 11, 1))
        c = json.dumps(workloads.round_inputs(w, 12, 1))
        expect(f"{w} inputs repeat for a seed and differ across seeds", (a == b and a != c, w), True)
    listed = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    want = [{"name": n, "unit": u, "better": b} for n, (u, b) in per_layer_metrics().items()]
    expect("per-layer metrics match BENCHMARK.json", (listed == want, f"{len(want)} metrics"), True)


def real_operations():
    ctx = workloads.Context()
    op = workloads.round_inputs("h2_geodesics", 1, 0)[0]
    args = ctx.prepare(op)
    res = ctx.run(op, args)
    expect("real h2 solve", ctx.check(op, args, res, []), True)
    expect("real h2 solve moved by 2e-4",
           ctx.check(op, args, dataclasses.replace(res, distance=res.distance + 2e-4), []), False)

    scan_op = {"kind": "scan", "grid": [0.05, 2.55, 201], "fd_checks": 0, "fd_seed": 3}
    args = ctx.prepare(scan_op)
    scan = ctx.run(scan_op, args)
    expect("real curvature scan", ctx.check(scan_op, args, scan, []), True)
    rows = [dict(row) for row in scan["rows"]]
    rows[0]["-f2''/f2"] += 1e-6
    expect("real curvature scan with a perturbed term",
           ctx.check(scan_op, args, {**scan, "rows": rows}, []), False)

    ops = [op for op in workloads.round_inputs("invariants", 1, 0) if op["kind"] == "classify"]
    ops = ops[:2]   # n = 3 and its twin
    assert ops[1]["twin_of"] is not None
    args = [ctx.prepare(o) for o in ops]
    base = ctx.run(ops[0], args[0])
    twin = ctx.run(ops[1], args[1])
    earlier = {ops[1]["twin_of"]: base}
    expect("real classification", ctx.check(ops[0], args[0], base, earlier), True)
    expect("real unimodular twin", ctx.check(ops[1], args[1], twin, earlier), True)
    moved = dataclasses.replace(base, per_cusp=((base.per_cusp[0][0] * 1.001, *base.per_cusp[0][1:]),
                                                *base.per_cusp[1:]))
    expect("real classification with a moved systole", ctx.check(ops[0], args[0], moved, []), False)


def main():
    references()
    geodesic_checks()
    scan_checks()
    classify_checks()
    inputs_repeat()
    real_operations()
    print(f"{len(FAILURES)} wrong verdicts" if FAILURES else "all checks behave")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
