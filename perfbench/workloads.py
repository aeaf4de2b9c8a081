"""The four workloads: seeded inputs, the operation each input drives, and
its check.

A run is made of whole rounds.  Round k of a workload draws its inputs from
``numpy.random.default_rng([seed, k])``, so the same seed always gives the
same inputs, and every round has the same make-up (the same count of each
kind of operation).  ``round_inputs`` builds the inputs as plain JSON-ready
dicts without touching warpfill; ``Context`` turns them into library
objects, runs the operation and checks the result.
"""

from __future__ import annotations

import math

import numpy as np

import checks

CIRCUMFERENCE = 7.0          # torus T^1 of the singular model and the filling
LAMBDA, DELTA0 = 1.6, 0.2    # build_fg(1.6, 0.2): r in [0, 2.6]
TAIL_START = 1.0 + LAMBDA / 2.0

# core_geodesics pairs are drawn with a circular gap of at most CORE_MAX_GAP
# and both radii at least CORE_R_MIN.  Beyond either, the solver's
# coarse-level candidate choice, or its slow convergence next to the core,
# fails on some seeds only (CHANGES.md, FOUND); the kept pairs below show the
# fault on every run instead.
CORE_MAX_GAP = 2.8
CORE_R_MIN = 0.1
# Two fixed pairs that the coarse-level candidate choice of solve_geodesic
# gets wrong; they sit in every core_geodesics round and fail every time.
#   below pi: the through-core route wins at 16 segments, error ~1.9e-2
#   above pi: the direct route wins and refines to 1024 segments, error ~2.2e-4
CORE_KEPT_FAULTS = (
    ((1.244, 0.0, 0.0), (1.3, 0.2, 3.02)),
    ((0.6, 0.0, 2.0), (0.5, 0.5, 5.3)),
)

H2_PAIRS_PER_ROUND = 10
CORE_PAIRS_PER_ROUND = 10
CAT_KAPPA = -0.2
CAT_PARAM_SAMPLES = 4
CAT_RADIUS = 0.25            # metric circumradius of the sampled triangles
# curvature_scan calls per round: (r_lo, r_hi, n_grid, fd_checks).  The full
# grid, with the splice windows [0.19, 0.2] and [1.79, 1.8], is scanned
# without fd spot checks: there the finite-difference second derivative of
# the splices puts the oracle up to 7e-2 outside the term interval, so a
# spot check drawn into a window fails on some seeds only.  The fd spot
# checks are drawn from the ellipse-arc piece alone.
SCANS = ((0.05, 2.55, 4001, 0), (0.205, 1.785, 801, 10))

# 4x4, unimodular and skewed; its row-box systole
# enumeration is the costly one
SKEW4 = [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 2]]


def _bidiagonal(d):
    u = np.eye(d, dtype=int)
    for i in range(d - 1):
        u[i, i + 1] = 1
    return u


def _axis(d, n):
    c = np.zeros((d, n), dtype=int)
    c[:, :d] = np.eye(d, dtype=int)
    return c


# (n, base coefficient matrices per cusp, twin coefficient change per cusp
# or None).  A twin spec replaces every cusp's coefficients C by S U C, with
# U the listed unimodular matrix and S a seeded signed permutation; the
# sublattice, hence the systole and the flags, stay the same.  The shapes are
# fixed so that every round costs the same; the seed picks the lattice side,
# column permutations and signs.
CLASSIFY_SPECS = (
    (3, [[[1, 2, 0]], _bidiagonal(3)], [[[1]], _bidiagonal(3)]),
    (4, [_axis(4, 4), [[1, 1, 0, 0], [0, 1, 1, 0]]], [SKEW4, _bidiagonal(2)]),
    (5, [[[1, 0, 1, 0, 0], [0, 1, 0, 1, 0], [0, 0, 0, 0, 1]], [[0, 0, 1, 1, 1]]],
     [_bidiagonal(3), [[1]]]),
    (6, [_axis(6, 6)], [np.eye(6, dtype=int)]),
    (7, [_axis(7, 7)], None),
)

WORKLOADS = ("h2_geodesics", "core_geodesics", "filling_cat", "invariants")
# rounds replayed under tracing
TRACE_ROUNDS = {"h2_geodesics": 2, "core_geodesics": 1, "filling_cat": 1, "invariants": 1}


# ---------------------------------------------------------------------------
# inputs (no warpfill here)
# ---------------------------------------------------------------------------

def _h2_round(rng):
    ops = []
    while len(ops) < H2_PAIRS_PER_ROUND:
        p = rng.uniform(-1.5, 1.5, 2).tolist()
        q = rng.uniform(-1.5, 1.5, 2).tolist()
        ref = checks.h2_distance(p, q)
        if 1e-3 < ref <= 5.0:
            ops.append({"kind": "h2", "p": p, "q": q, "reference": ref})
    return ops


def _core_round(rng):
    ops = []
    while len(ops) < CORE_PAIRS_PER_ROUND:
        r = rng.uniform(CORE_R_MIN, 2.0, 2)
        e = rng.uniform(-1.0, 1.0, 2)
        t1 = rng.uniform(0.0, CIRCUMFERENCE)
        t2 = (t1 + rng.choice((-1.0, 1.0)) * rng.uniform(0.0, CORE_MAX_GAP)) % CIRCUMFERENCE
        p, q = [r[0], e[0], t1], [r[1], e[1], t2]
        ref = checks.cone_distance(p, q, CIRCUMFERENCE)
        if ref > 1e-3:
            ops.append({"kind": "core", "p": p, "q": q, "reference": ref, "kept_fault": False})
    for p, q in CORE_KEPT_FAULTS:
        ops.append({"kind": "core", "p": list(p), "q": list(q),
                    "reference": checks.cone_distance(p, q, CIRCUMFERENCE), "kept_fault": True})
    return ops


def _cat_round(rng):
    """One near-equilateral triangle of metric circumradius CAT_RADIUS in a
    random 2-plane at a random centre.  Chart offsets are scaled by cosh and
    sinh of the centre radius, the warps the built pair starts from, so the
    metric size is only roughly fixed; the inputs do not depend on warpfill."""
    r0 = rng.uniform(0.7, 1.9)
    e0 = rng.uniform(-1.0, 1.0)
    t0 = rng.uniform(0.0, CIRCUMFERENCE)
    frame, _ = np.linalg.qr(rng.standard_normal((3, 2)))
    phase = rng.uniform(0.0, 2.0 * math.pi)
    scale = np.array([1.0, 1.0 / math.cosh(r0), 1.0 / math.sinh(r0)])
    vertices = []
    for i in range(3):
        a = phase + 2.0 * math.pi * i / 3.0
        off = CAT_RADIUS * (math.cos(a) * frame[:, 0] + math.sin(a) * frame[:, 1]) * scale
        vertices.append([r0 + off[0], e0 + off[1], (t0 + off[2]) % CIRCUMFERENCE])
    return [{"kind": "cat", "vertices": vertices, "kappa": CAT_KAPPA,
             "param_samples": CAT_PARAM_SAMPLES, "seed": int(rng.integers(2**31))}]


def _signed_permutation(rng, d):
    m = np.zeros((d, d), dtype=int)
    m[np.arange(d), rng.permutation(d)] = rng.choice((-1, 1), size=d)
    return m


def _invariants_round(rng):
    ops = [{"kind": "scan", "grid": [lo, hi, n_grid], "fd_checks": fd_checks,
            "fd_seed": int(rng.integers(2**31))} for lo, hi, n_grid, fd_checks in SCANS]
    for n, cusps, twin in CLASSIFY_SPECS:
        side = rng.uniform(6.0, 7.5)
        basis = (side * np.eye(n)).tolist()
        cols = _signed_permutation(rng, n)
        base = [np.asarray(c, dtype=int) @ cols for c in cusps]
        ops.append(_classify_op(n, basis, base, None))
        if twin is not None:
            changed = [_signed_permutation(rng, len(c)) @ np.asarray(u, dtype=int) @ c
                       for c, u in zip(base, twin)]
            ops.append(_classify_op(n, basis, changed, len(ops) - 1))
    return ops


def _classify_op(n, basis, coeffs, twin_of):
    return {
        "kind": "classify", "n": n,
        "cusps": [{"basis": basis, "filling_coeffs": c.tolist()} for c in coeffs],
        "reference_systoles": [checks.filling_systole(basis, c) for c in coeffs],
        "twin_of": twin_of,
    }


_ROUND_BUILDERS = {
    "h2_geodesics": _h2_round,
    "core_geodesics": _core_round,
    "filling_cat": _cat_round,
    "invariants": _invariants_round,
}


def round_inputs(workload, seed, k):
    """The inputs of round k of ``workload`` under ``seed``."""
    return _ROUND_BUILDERS[workload](np.random.default_rng([seed, k]))


# ---------------------------------------------------------------------------
# operations (warpfill from here on)
# ---------------------------------------------------------------------------

class Context:
    """The spaces every workload shares, built once per process.

    Library functions are looked up on their modules at call time, so that
    the traced run sees the wrapped names.
    """

    def __init__(self):
        from warpfill import curvature_lab, filling_topology, warp_engine, warp_functions
        from warpfill.model_spaces import LatticeTorus
        from warpfill.numerics import Const, Cosh, ExpShift, Sinh

        self.cl, self.ft, self.we = curvature_lab, filling_topology, warp_engine
        f, g, self.delta, _ = warp_functions.build_fg(LAMBDA, DELTA0)
        torus = LatticeTorus(np.eye(1) * CIRCUMFERENCE)
        WarpedSpace = warp_engine.WarpedSpace
        self.h2 = WarpedSpace(interval=(-6.0, 6.0), euclid_dim=1, warp_g=ExpShift(0.0))
        self.cone = WarpedSpace(interval=(0.0, 3.0), euclid_dim=1, warp_g=Cosh(),
                                torus=torus, warp_f=Sinh())
        self.filling = WarpedSpace(interval=(0.0, 1.0 + LAMBDA), euclid_dim=1, warp_g=g,
                                   torus=torus, warp_f=f)
        self.flat = WarpedSpace(interval=(-3.0, 3.0), euclid_dim=1, warp_g=Const(1.0))

    def point(self, coords):
        WPoint = self.we.WPoint
        return WPoint(coords[0], [coords[1]], [coords[2]] if len(coords) == 3 else [])

    def prepare(self, op):
        """Library objects for one operation (not timed)."""
        kind = op["kind"]
        if kind in ("h2", "core"):
            return self.point(op["p"]), self.point(op["q"])
        if kind == "cat":
            return [self.point(v) for v in op["vertices"]]
        if kind == "scan":
            lo, hi, n_grid = op["grid"]
            return self.cl.ScanConfig(lo, hi, n_grid, fd_checks=op["fd_checks"], seed=op["fd_seed"])
        return self.ft.filling_from_json_dict({"n": op["n"], "cusps": op["cusps"]})

    def run(self, op, args):
        """The timed call."""
        kind = op["kind"]
        if kind == "h2":
            return self.we.solve_geodesic(self.h2, *args)
        if kind == "core":
            return self.we.solve_geodesic(self.cone, *args, n_segments=16, refine_tol=1e-5)
        if kind == "cat":
            return self.cl.cat_test(self.filling, args, op["kappa"],
                                    param_samples=op["param_samples"], seed=op["seed"],
                                    n_segments=16, refine_tol=1e-5)
        if kind == "scan":
            return self.cl.curvature_scan(self.filling, args)
        return self.ft.classify(args)

    def check(self, op, args, result, earlier):
        """(ok, detail) for one result; ``earlier`` holds the round's results
        so far, for the unimodular twins."""
        kind = op["kind"]
        if kind in ("h2", "core"):
            return checks.check_geodesic(result.distance, op["reference"])
        if kind == "cat":
            return checks.check_cat(result.max_violation, result.tolerance)
        if kind == "scan":
            return checks.check_scan(result, self.delta, TAIL_START)
        schedule = [[i] for i in range(len(args.cusps))]
        colimit = self.ft.shell_sequence(args, schedule)[1]
        matches = colimit == self.ft.boundary_cohomology(args)
        base = None if op["twin_of"] is None else earlier[op["twin_of"]]
        return checks.check_classify(result, op["reference_systoles"], matches, base)

    def control(self):
        """The flat equilateral triangle against kappa = -1 (criterion 5):
        cat_test must report a violation, or the CAT checks prove nothing."""
        WPoint = self.we.WPoint
        tri = [WPoint(0.0, [0.0]), WPoint(1.0, [0.0]), WPoint(0.5, [math.sqrt(3.0) / 2.0])]
        rep = self.cl.cat_test(self.flat, tri, -1.0, param_samples=12, seed=0,
                               n_segments=16, refine_tol=1e-5)
        return checks.check_control(rep.max_violation)
