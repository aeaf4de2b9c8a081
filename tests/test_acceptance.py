"""End-to-end acceptance campaigns.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(visible with ``pytest -s``), and asserts both the quantitative tolerance
and the runtime budget.
"""

import time

import numpy as np
import pytest

from conftest import h2_chart
from warpfill.curvature_lab import cat_test, fd_sectional, fk_convexity, sectional_terms
from warpfill.filling_topology import (
    INFINITE,
    axis_filling,
    boundary_cohomology,
    classify,
    group_cohomology,
    shell_sequence,
)
from warpfill.model_spaces import halfplane_distance, halfplane_geodesic_point
from warpfill.numerics import Const, ExpShift
from warpfill.warp_engine import (
    WarpedSpace,
    WPoint,
    alexandrov_angle,
    path_point_at_arclength,
    solve_geodesic,
)
from warpfill.warp_functions import build_fg

B = 1.8  # 1 + lambda/2 at lambda = 1.6


def report(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {status} — {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")
    assert ok, detail
    assert elapsed < budget, f"criterion {num} overran its {budget}s budget ({elapsed:.1f}s)"


def _sample_triangle(rng, lo, hi, min_sep):
    while True:
        pts = rng.uniform(lo, hi, (3, 2))
        seps = [np.linalg.norm(pts[i] - pts[j]) for i in range(3) for j in range(i + 1, 3)]
        if min(seps) > min_sep:
            return [WPoint(r, [x]) for r, x in pts]


def test_criterion_1_warping_function_suite():
    t0 = time.time()
    f, g, delta, kappa_floor = build_fg(1.6, 0.2)
    r_lo = np.linspace(0.0, delta - 1e-9, 500)
    r_hi = np.linspace(B + 1e-12, 2.6, 500)
    exact = (
        np.array_equal(f.d(r_lo, 0), np.sinh(r_lo))
        and np.array_equal(g.d(r_lo, 0), np.cosh(r_lo))
        and np.array_equal(f.d(r_hi, 0), np.exp(r_hi - 1.0))
        and np.array_equal(g.d(r_hi, 0), np.exp(r_hi - 1.0))
    )
    mismatch = max(
        abs(float(w.eval(knot, order, side="left")) - float(w.eval(knot, order, side="right")))
        for w in (f, g)
        for knot in w.knots[1:-1]
        for order in (0, 1)
    )
    grid = np.linspace(1e-6, 2.6 - 1e-6, 10_000)
    f2_min = float(np.min(f.d(grid, 2)))
    g2_min = float(np.min(g.d(grid, 2)))
    ok = exact and mismatch < 1e-8 and f2_min > 0 and g2_min >= kappa_floor > 0
    report(
        1, ok,
        f"exact tails, C1 mismatch {mismatch:.1e}, min f'' {f2_min:.3f}, "
        f"min g'' {g2_min:.3f} >= floor {kappa_floor:.3f}",
        time.time() - t0, 1.0,
    )


def test_criterion_2_model_isometry(h2_space):
    t0 = time.time()
    rng = np.random.default_rng(2)
    errs = []
    while len(errs) < 200:
        p = WPoint(rng.uniform(-1.5, 1.5), [rng.uniform(-1.5, 1.5)])
        q = WPoint(rng.uniform(-1.5, 1.5), [rng.uniform(-1.5, 1.5)])
        exact = halfplane_distance(h2_chart(p), h2_chart(q))
        if not 1e-3 < exact <= 5.0:
            continue
        res = solve_geodesic(h2_space, p, q, n_segments=16, refine_tol=5e-5)
        errs.append(abs(res.distance - exact))
    worst = max(errs)
    report(2, worst < 1e-4, f"200 pairs, max |solver - closed form| = {worst:.2e}",
           time.time() - t0, 30.0)


def test_criterion_3_direction_formula(singular_model):
    t0 = time.time()
    p0 = WPoint(0.0, [0.0], [0.0])
    core = WPoint(0.0, [1.5], [0.0])
    worst = 0.0
    for t1 in np.linspace(0.2, 1.0, 5):
        for a1 in np.linspace(0.2, 1.0, 5):
            expected = np.arctan2(np.tanh(t1), np.sinh(a1))
            measured = alexandrov_angle(
                singular_model, p0, WPoint(t1, [a1], [0.0]), core,
                n_segments=16, refine_tol=1e-5,
            )
            worst = max(worst, abs(measured - expected))
    report(3, worst < 1e-2, f"5x5 grid, max |angle - arctan formula| = {worst:.2e}",
           time.time() - t0, 60.0)


def test_criterion_4_curvature_oracles(fg_space, fg_pair):
    t0 = time.time()
    rng = np.random.default_rng(4)
    h3 = WarpedSpace(interval=(-3, 3), euclid_dim=2, warp_g=ExpShift(0.0))
    planes3 = [(0, 1), (0, 2), (1, 2)]
    h3_err = max(
        abs(fd_sectional(h3, WPoint(rng.uniform(-1, 1), rng.uniform(-1, 1, 2)),
                         planes3[rng.integers(3)]) + 1.0)
        for _ in range(20)
    )
    f, g, delta = fg_pair["f"], fg_pair["g"], fg_pair["delta"]
    contained = True
    for _ in range(50):
        r = float(rng.uniform(delta + 2e-3, 2.6 - 2e-3))
        pt = WPoint(r, [rng.uniform(0, 1)], [rng.uniform(0, 1)])
        kappa = fd_sectional(fg_space, pt, planes3[rng.integers(3)])
        st = sectional_terms(g, f, 1, 1, r)
        contained &= st.lower - 1e-3 <= kappa <= st.upper + 1e-3
    grid = np.linspace(delta, 2.6, 4001)
    empirical = min(-sectional_terms(g, f, 1, 1, float(r)).upper for r in grid)
    ok = h3_err < 1e-4 and contained and empirical > 0
    report(
        4, ok,
        f"H3 fd error {h3_err:.2e}, 50/50 samples in term interval: {contained}, "
        f"empirical kappa = {empirical:.4f} > 0",
        time.time() - t0, 60.0,
    )


def test_criterion_5_cat_campaign(h2_space):
    t0 = time.time()
    rng = np.random.default_rng(5)
    flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))

    worst_h2 = 0.0
    for i in range(200):
        tri = _sample_triangle(rng, -0.5, 0.5, 0.15)
        rep = cat_test(h2_space, tri, -1.0, param_samples=4, seed=i,
                       n_segments=16, refine_tol=1e-5)
        worst_h2 = max(worst_h2, rep.max_violation)

    worst_flat = 0.0
    for i in range(200):
        tri = _sample_triangle(rng, -1.0, 1.0, 0.2)
        rep = cat_test(flat, tri, 0.0, param_samples=4, seed=i,
                       n_segments=16, refine_tol=1e-5)
        worst_flat = max(worst_flat, rep.max_violation)

    equilateral = [WPoint(0, [0.0]), WPoint(1.0, [0.0]), WPoint(0.5, [np.sqrt(3) / 2])]
    fail_rep = cat_test(flat, equilateral, -1.0, param_samples=12, seed=0,
                        n_segments=16, refine_tol=1e-5)

    ok = worst_h2 <= 2e-4 and worst_flat <= 2e-4 and fail_rep.max_violation > 1e-3
    report(
        5, ok,
        f"H2 kappa=-1 worst {worst_h2:.2e}, flat kappa=0 worst {worst_flat:.2e}, "
        f"flat equilateral vs kappa=-1 violation {fail_rep.max_violation:.2e} > 1e-3",
        time.time() - t0, 300.0,
    )


def test_criterion_6_fk_convexity(singular_model):
    t0 = time.time()
    z, w, x0 = 0.2 + 1.0j, 3.0 + 0.5j, 1.5 + 2.0j
    d = halfplane_distance(z, w)
    cosh_samples = [
        (t, np.cosh(halfplane_distance(halfplane_geodesic_point(z, w, t), x0)))
        for t in np.linspace(0, d, 80)
    ]
    cosh_ok = fk_convexity(cosh_samples, -1.0, window=0.3).passed

    p, q = WPoint(1.2, [-0.5], [0.2]), WPoint(0.9, [0.8], [0.6])
    res = solve_geodesic(singular_model, p, q, n_segments=32, refine_tol=1e-6)
    core_samples = [
        (t, np.sinh(path_point_at_arclength(singular_model, res.path, t).r))
        for t in np.linspace(0, res.distance, 60)
    ]
    core_ok = fk_convexity(core_samples, -1.0, window=0.3, margin=1e-4).passed

    sin_rep = fk_convexity(
        [(t, np.sin(t)) for t in np.linspace(0.1, np.pi - 0.1, 60)], -1.0, window=0.3
    )
    sin_ok = (not sin_rep.passed) and len(sin_rep.violations) > 0

    ok = cosh_ok and core_ok and sin_ok
    report(
        6, ok,
        f"cosh-distance pass {cosh_ok}, sinh-core pass {core_ok}, "
        f"sin fails with {len(sin_rep.violations)} reported deficits",
        time.time() - t0, 30.0,
    )


def test_criterion_7_cohomology_table():
    t0 = time.time()
    ok = True
    for n in range(2, 6):
        for s in range(1, n + 1):
            prof = group_cohomology(axis_filling(n, [s]))
            expected = {n + 1: 1}
            expected.update({q: INFINITE for q in range(n - s + 2, n + 1)})
            ok &= prof.ranks == expected
            # round-robin schedule over one cusp of each dimension 1..s
            filling = axis_filling(n, list(range(1, s + 1)))
            _, colimit = shell_sequence(filling, [[i] for i in range(s)])
            ok &= colimit == boundary_cohomology(filling)
    # the three paper cases
    ok &= group_cohomology(axis_filling(2, [1])).ranks == {3: 1}
    ok &= group_cohomology(axis_filling(3, [2])).ranks == {3: INFINITE, 4: 1}
    ok &= group_cohomology(axis_filling(3, [3])).ranks == {2: INFINITE, 3: INFINITE, 4: 1}
    report(7, ok, "closed form exact for 2<=n<=5, 1<=s<=n; round-robin colimits agree",
           time.time() - t0, 5.0)


def test_criterion_8_classification_flags():
    t0 = time.time()
    m = classify(axis_filling(2, [1, 1])).flags
    a = classify(axis_filling(4, [2])).flags
    b = classify(axis_filling(3, [3])).flags
    ok = (
        m["is_manifold"] and m["is_pd_group"] and m["cat_minus_one"]
        and m["simply_connected_at_infinity"] and m["flat_dims_present"] == []
        and not a["is_manifold"] and not a["is_pd_group"] and not a["cat_minus_one"]
        and a["isolated_flats"] and a["flat_dims_present"] == [2]
        and a["simply_connected_at_infinity"] and a["systolic_excluded"]
        and not b["is_manifold"] and b["cat_minus_one"]
        and not b["simply_connected_at_infinity"] and not b["systolic_excluded"]
    )
    report(8, ok, "worked specs n=2 (manifold), n=4 d=2 (flats), n=3 d=3 (point cores)",
           time.time() - t0, 1.0)
