"""Batch command-line front end.

Subcommands mirror the library modules: warp-build, geodesic, cat-test,
curvature-scan, fk-check, filling-analyze.  Reports are written atomically
and are byte-identical for identical inputs, and for cat-test and
curvature-scan also the same --seed.  Exit codes: 0 all checks passed, 1 a
check failed, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import ValidationError, WarpfillError
from .curvature_lab import CAT_TOL, ScanConfig, cat_test, curvature_scan, fk_convexity
from .filling_topology import classify, filling_from_json_dict, shell_sequence
from .numerics import _is_number
from .warp_engine import (
    WPoint,
    solve_geodesic,
    space_from_json_dict,
)
from .warp_functions import build_fg, export_table

DEFAULT_SEED = 42
_TRIANGLE_DRAWS = 1000  # cat-test triangle draws before the --box is rejected


def _atomic_write(path: str, text: str):
    d = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".warpfill-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, doc: dict, passed: bool) -> int:
    doc = {
        "tool": "warpfill",
        "version": __version__,
        "command": args.command,
        "passed": bool(passed),
        **doc,
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        _atomic_write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _load_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _parse_point(raw: str, space) -> WPoint:
    """A point given as a list of 1+k+tdim numbers, or as an object with a
    number "r" and lists "e" (k numbers) and "theta" (tdim numbers), each
    list optional where the space has no such factor."""
    doc = json.loads(raw)
    k, t = space.euclid_dim, space.torus_dim
    if isinstance(doc, dict):
        e, theta = doc.get("e", []), doc.get("theta", [])
        if not (doc.keys() <= {"r", "e", "theta"} and _is_number(doc.get("r"))
                and isinstance(e, list) and len(e) == k and all(map(_is_number, e))
                and isinstance(theta, list) and len(theta) == t and all(map(_is_number, theta))):
            raise ValidationError(f'a point object has a number "r", number lists "e" of length {k} '
                                  f'and "theta" of length {t}, and no other keys')
        return WPoint(doc["r"], e, theta)
    if not (isinstance(doc, list) and all(map(_is_number, doc))):
        raise ValidationError("a point is a list of numbers or an object")
    if len(doc) != 1 + k + t:
        raise ValidationError(f"point needs 1+{k}+{t} coordinates, got {len(doc)}")
    return WPoint(doc[0], doc[1:1 + k], doc[1 + k:])


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_warp_build(args) -> int:
    f, g, delta, kappa_floor = build_fg(args.lam, args.delta0)
    if args.format == "csv":
        if not args.out:
            raise ValueError("--format csv requires --out")
        export_table(f, g, args.out)
        return 0
    doc = {
        "config": {"lambda": args.lam, "delta0_hint": args.delta0},
        "results": {
            "delta": delta,
            "delta0": f.delta0,
            "kappa_floor": kappa_floor,
            "f": f.to_json_dict(),
            "g": g.to_json_dict(),
        },
    }
    return _emit(args, doc, kappa_floor > 0)


def _cmd_geodesic(args) -> int:
    space = space_from_json_dict(_load_json(args.space))
    p = _parse_point(args.frm, space)
    q = _parse_point(args.to, space)
    res = solve_geodesic(space, p, q, n_segments=args.samples)
    doc = {
        "config": {"space": args.space, "from": args.frm, "to": args.to,
                   "n_segments": args.samples},
        "results": res.to_json_dict(),
    }
    return _emit(args, doc, res.converged)


def _sample_triangle(space, rng, box):
    for _ in range(_TRIANGLE_DRAWS):
        pts = []
        for _ in range(3):
            coords = [rng.uniform(lo, hi) for lo, hi in box]
            k = space.euclid_dim
            pts.append(WPoint(coords[0], coords[1:1 + k], coords[1 + k:]))
        sides = []
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = pts[i], pts[j]
                sides.append(
                    np.hypot(a.r - b.r, np.linalg.norm(np.concatenate([a.e - b.e, a.theta - b.theta])))
                )
        if min(sides) > 0.1:
            return pts
    raise ValidationError(
        f"box {box} gave no three points 0.1 apart in {_TRIANGLE_DRAWS} attempts"
    )


def _default_box(space):
    a, b = space.interval
    span = b - a
    box = [(a + 0.25 * span, b - 0.25 * span)]
    box += [(-1.0, 1.0)] * space.euclid_dim
    box += [(0.0, 1.0)] * space.torus_dim
    return box


def _cmd_cat_test(args) -> int:
    space = space_from_json_dict(_load_json(args.space))
    rng = np.random.default_rng(args.seed)
    box = json.loads(args.box) if args.box else _default_box(space)
    worst = -np.inf
    rows = []
    for i in range(args.samples):
        tri = _sample_triangle(space, rng, box)
        rep = cat_test(space, tri, args.kappa, param_samples=4, seed=args.seed + i)
        worst = max(worst, rep.max_violation)
        rows.append({"index": i, "max_violation": rep.max_violation, "passed": rep.passed})
    passed = worst <= CAT_TOL
    doc = {
        "config": {"space": args.space, "kappa": args.kappa, "samples": args.samples,
                   "seed": args.seed, "box": box},
        "results": {"triangles": rows, "max_violation": worst},
    }
    return _emit(args, doc, passed)


def _cmd_curvature_scan(args) -> int:
    space = space_from_json_dict(_load_json(args.space))
    lo, hi, n = args.grid.split(":")
    config = ScanConfig(r_lo=float(lo), r_hi=float(hi), n_grid=int(n), seed=args.seed)
    report = curvature_scan(space, config)
    passed = report["empirical_kappa"] > 0 and report["fd_checks_ok"]
    if args.format == "csv":
        if not args.out:
            raise ValueError("--format csv requires --out")
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=list(report["rows"][0].keys()))
        writer.writeheader()
        writer.writerows(report["rows"])
        _atomic_write(args.out, buf.getvalue())
        return 0 if passed else 1
    doc = {"config": report.pop("config"), "results": report}
    return _emit(args, doc, passed)


def _cmd_fk_check(args) -> int:
    with open(args.data) as fh:
        samples = [
            (float(row[0]), float(row[1]))
            for row in csv.reader(fh)
            if row and not row[0].lstrip().startswith("#")
        ]
    rep = fk_convexity(samples, args.kappa, window=args.window, margin=args.margin)
    doc = {
        "config": {"data": args.data, "K": args.kappa, "window": args.window,
                   "margin": args.margin},
        "results": {
            "pairs_tested": rep.pairs_tested,
            "violations": [list(v) for v in rep.violations],
        },
    }
    return _emit(args, doc, rep.passed)


def _cmd_filling_analyze(args) -> int:
    filling = filling_from_json_dict(_load_json(args.spec))
    report = classify(filling)
    results = report.to_json_dict()
    if args.schedule:
        sched = _load_json(args.schedule)
        shells, colimit = shell_sequence(filling, sched)
        results["shells"] = [s.to_json_dict() for s in shells]
        results["shell_colimit"] = colimit.to_json_dict()
    doc = {"config": {"spec": args.spec, "schedule": args.schedule}, "results": results}
    sys.stderr.write(report.render() + "\n")
    return _emit(args, doc, report.flags["two_pi_filling"])


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    ap = argparse.ArgumentParser(prog="warpfill", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, seed=False, formats=False):
        p.add_argument("--out", help="report output path (default: stdout)")
        if seed:
            p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        if formats:
            p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("warp-build", help="assemble the warping pair (f, g)")
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--delta0", type=float, default=None)
    common(p, formats=True)
    p.set_defaults(fn=_cmd_warp_build)

    p = sub.add_parser("geodesic", help="solve a geodesic in a warped space")
    p.add_argument("--space", required=True)
    p.add_argument("--from", dest="frm", required=True, help="point as JSON")
    p.add_argument("--to", required=True, help="point as JSON")
    p.add_argument("--samples", type=int, default=64, help="initial segment count")
    common(p)
    p.set_defaults(fn=_cmd_geodesic)

    p = sub.add_parser("cat-test", help="CAT(kappa) triangle campaign")
    p.add_argument("--space", required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--samples", type=int, default=20, help="triangle count")
    p.add_argument("--box", default=None, help="sampling box as JSON list of [lo,hi]")
    common(p, seed=True)
    p.set_defaults(fn=_cmd_cat_test)

    p = sub.add_parser("curvature-scan", help="sectional-term scan of a doubly warped space")
    p.add_argument("--space", required=True)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    common(p, seed=True, formats=True)
    p.set_defaults(fn=_cmd_curvature_scan)

    p = sub.add_parser("fk-check", help="FK-convexity barrier check of sampled data")
    p.add_argument("--data", required=True, help="CSV of t,u samples")
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--window", type=float, default=0.1)
    p.add_argument("--margin", type=float, default=1e-9)
    common(p)
    p.set_defaults(fn=_cmd_fk_check)

    p = sub.add_parser("filling-analyze", help="invariants of a 2pi-filling spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--schedule", default=None, help="JSON list of shells (cusp index lists)")
    common(p)
    p.set_defaults(fn=_cmd_filling_analyze)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (WarpfillError, ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
