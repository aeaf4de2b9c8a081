import numpy as np
import pytest

from warpfill.curvature_lab import (
    TERM_LABELS,
    ScanConfig,
    _christoffel,
    _metric_fn,
    cat_test,
    curvature_scan,
    fd_sectional,
    fk_convexity,
    sectional_terms,
)
from warpfill.errors import (
    NonpositiveWarpError,
    SingularPointError,
    WindowTooSmallError,
)
from warpfill.model_spaces import (
    LatticeTorus,
    halfplane_distance,
    halfplane_geodesic_point,
)
from warpfill.numerics import Const, Cosh, ExpShift, LinearR, ScaledExp, Sinh
from warpfill.warp_engine import WarpedSpace, WPoint


class TestSectionalTerms:
    def test_exponential_everything_is_minus_one(self):
        st = sectional_terms(ExpShift(0.0), ExpShift(0.0), 3, 2, 0.7)
        assert st.lower == pytest.approx(-1.0, abs=1e-12)
        assert st.upper == pytest.approx(-1.0, abs=1e-12)
        assert len(st.applicable) == 5

    def test_cosh_sinh_dims_one(self):
        st = sectional_terms(Cosh(), Sinh(), 1, 1, 0.5)
        # dims (1,1) keep only the two ratio terms and the mixed term
        assert set(st.applicable) == {"-f1''/f1", "-f2''/f2", "-f1'f2'/(f1 f2)"}
        assert st.lower == pytest.approx(-1.0, abs=1e-12)
        assert st.upper == pytest.approx(-1.0, abs=1e-12)

    def test_dimension_zero_drops_factor(self):
        st = sectional_terms(Cosh(), Sinh(), 1, 0, 0.5)
        assert st.applicable == ("-f1''/f1",)

    def test_nonpositive_rejected(self):
        with pytest.raises(NonpositiveWarpError):
            sectional_terms(Sinh(), Cosh(), 1, 1, 0.0)

    @pytest.mark.parametrize(
        "pair, dims, interval",
        [
            ("built", (1, 1), (0.0, 2.6)),
            ((Cosh(), Sinh()), (1, 1), (0.0, 3.0)),
            ((ExpShift(0.3), ScaledExp(2.0)), (2, 2), (-2.0, 2.0)),
            ((Cosh(), Sinh()), (1, 0), (0.0, 3.0)),
            ((Cosh(), Sinh()), (0, 1), (0.0, 3.0)),
        ],
    )
    def test_array_matches_scalar_calls(self, fg_pair, pair, dims, interval):
        f1, f2 = (fg_pair["g"], fg_pair["f"]) if pair == "built" else pair
        rs = np.linspace(interval[0], interval[1], 1001)[1:-1]
        batch = sectional_terms(f1, f2, *dims, rs)
        for i, r in enumerate(rs):
            st = sectional_terms(f1, f2, *dims, float(r))
            assert st.applicable == batch.applicable
            assert tuple(st.terms) == tuple(batch.terms)
            for label in st.applicable:
                assert batch.terms[label][i] == pytest.approx(st.terms[label], rel=1e-12)
            assert batch.lower[i] == pytest.approx(st.lower, rel=1e-12)
            assert batch.upper[i] == pytest.approx(st.upper, rel=1e-12)

    def test_applicable_order(self):
        st = sectional_terms(ExpShift(0.0), ExpShift(0.0), 3, 2, np.array([0.1, 0.7]))
        assert st.applicable == (
            TERM_LABELS[0], TERM_LABELS[2], TERM_LABELS[1], TERM_LABELS[3], TERM_LABELS[4]
        )
        assert tuple(st.terms) == st.applicable

    def test_scalar_call_returns_floats(self):
        st = sectional_terms(Cosh(), Sinh(), 2, 2, 0.5)
        assert type(st.t) is float
        assert type(st.lower) is float and type(st.upper) is float
        assert all(type(v) is float for v in st.terms.values())

    def test_array_names_first_nonpositive_radius(self):
        with pytest.raises(NonpositiveWarpError, match=r"f2\(0\.0\) = 0\.0 <= 0"):
            sectional_terms(Cosh(), Sinh(), 1, 1, np.array([0.5, 0.0, 0.7]))
        with pytest.raises(NonpositiveWarpError, match=r"f1\(-0\.25\)"):
            sectional_terms(Sinh(), Cosh(), 1, 1, np.array([0.5, -0.25, 0.0]))

    def test_fg_scan_is_negative(self, fg_pair):
        rs = np.linspace(fg_pair["f"].delta, 2.6 - 1e-6, 400)
        uppers = [
            sectional_terms(fg_pair["g"], fg_pair["f"], 1, 1, float(r)).upper for r in rs
        ]
        assert max(uppers) < 0


class TestFdSectional:
    def test_hyperbolic_three_space(self):
        space = WarpedSpace(interval=(-3, 3), euclid_dim=2, warp_g=ExpShift(0.0))
        rng = np.random.default_rng(1)
        for _ in range(5):
            pt = WPoint(rng.uniform(-1, 1), rng.uniform(-1, 1, 2))
            plane = [(0, 1), (0, 2), (1, 2)][rng.integers(3)]
            assert fd_sectional(space, pt, plane) == pytest.approx(-1.0, abs=1e-4)

    def test_flat_cone_chart(self):
        cone = WarpedSpace(
            interval=(0.0, 5.0),
            euclid_dim=0,
            warp_g=Const(1.0),
            torus=LatticeTorus(np.array([[2 * np.pi]])),
            warp_f=LinearR(),
        )
        assert fd_sectional(cone, WPoint(1.5, [], [0.5]), (0, 1)) == pytest.approx(0.0, abs=1e-4)

    def test_scale_invariance(self):
        # r-axis rescaled by c = 2: curvature drops to -1/4
        space = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=ScaledExp(2.0))
        assert fd_sectional(space, WPoint(0.2, [0.0]), (0, 1)) == pytest.approx(-0.25, abs=1e-4)

    def test_hyperbolic_four_space_all_planes(self):
        space = WarpedSpace(interval=(-3, 3), euclid_dim=3, warp_g=ExpShift(0.0))
        pt = WPoint(0.3, [0.1, -0.2, 0.5])
        for plane in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]:
            assert fd_sectional(space, pt, plane) == pytest.approx(-1.0, abs=1e-6)

    def test_christoffel_matches_the_loop_contraction(self):
        rng = np.random.default_rng(11)
        n = 4
        a = rng.normal(size=(n, n))
        g = a @ a.T + n * np.eye(n)
        dg = rng.normal(size=(n, n, n))
        dg = dg + dg.transpose(0, 2, 1)  # dg[m] = d_m g is symmetric
        gamma = _christoffel(g, dg)
        ginv = np.linalg.inv(g)
        for l, i, j in np.ndindex(n, n, n):
            ref = 0.5 * sum(
                ginv[l, m] * (dg[i, m, j] + dg[j, m, i] - dg[m, i, j]) for m in range(n)
            )
            assert gamma[l, i, j] == pytest.approx(ref, rel=1e-12, abs=1e-14)

    def test_metric_on_a_stack_matches_single_points(self, singular_model):
        # analytic warps: the built pair's ellipse arc is not batch-invariant
        # to the last bit
        metric, n = _metric_fn(singular_model)
        rng = np.random.default_rng(7)
        points = np.column_stack([rng.uniform(0.01, 3.0, 5), rng.uniform(-1, 1, (5, n - 1))])
        stacked = metric(points)
        assert stacked.shape == (5, n, n)
        for x, g in zip(points, stacked):
            assert np.array_equal(g, metric(x))

    def test_singular_point_rejected(self, singular_model):
        with pytest.raises(SingularPointError):
            fd_sectional(singular_model, WPoint(0.0, [0.0], [0.0]), (0, 1))

    def test_oracle_inside_term_interval(self, fg_space, fg_pair):
        rng = np.random.default_rng(4)
        planes = [(0, 1), (0, 2), (1, 2)]
        for _ in range(20):
            r = float(rng.uniform(fg_pair["f"].delta + 0.05, 2.5))
            pt = WPoint(r, [0.0], [0.0])
            kappa = fd_sectional(fg_space, pt, planes[rng.integers(3)])
            st = sectional_terms(fg_pair["g"], fg_pair["f"], 1, 1, r)
            assert st.lower - 1e-3 <= kappa <= st.upper + 1e-3


class TestFkConvexity:
    def test_cosh_distance_along_h2_geodesic(self):
        z, w = 0.2 + 1.0j, 3.0 + 0.5j
        x0 = 1.5 + 2.0j
        d = halfplane_distance(z, w)
        ts = np.linspace(0, d, 80)
        samples = [
            (t, np.cosh(halfplane_distance(halfplane_geodesic_point(z, w, t), x0)))
            for t in ts
        ]
        rep = fk_convexity(samples, -1.0, window=0.3)
        assert rep.passed

    def test_affine_passes_k0(self):
        samples = [(t, 2 * t + 1) for t in np.linspace(0, 1, 11)]
        assert fk_convexity(samples, 0.0, window=0.3).passed

    def test_sin_fails_k_minus_one(self):
        ts = np.linspace(0.1, np.pi - 0.1, 60)
        rep = fk_convexity([(t, np.sin(t)) for t in ts], -1.0, window=0.3)
        assert not rep.passed
        assert all(deficit > 0 for (_, _, _, deficit) in rep.violations)

    def test_window_too_small(self):
        samples = [(t, t) for t in np.linspace(0, 1, 5)]
        with pytest.raises(WindowTooSmallError):
            fk_convexity(samples, 0.0, window=0.2)

    def test_sinh_distance_to_core(self, singular_model):
        from warpfill.warp_engine import path_point_at_arclength, solve_geodesic

        p = WPoint(1.2, [-0.5], [0.2])
        q = WPoint(0.9, [0.8], [0.6])
        res = solve_geodesic(singular_model, p, q, n_segments=32, refine_tol=1e-6)
        ts = np.linspace(0, res.distance, 60)
        samples = [
            (t, np.sinh(path_point_at_arclength(singular_model, res.path, t).r))
            for t in ts
        ]
        rep = fk_convexity(samples, -1.0, window=0.3, margin=1e-4)
        assert rep.passed


class TestCatTest:
    def test_flat_chart_kappa0_equality(self):
        flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))
        tri = [WPoint(0, [0.0]), WPoint(1.2, [0.1]), WPoint(0.3, [1.0])]
        rep = cat_test(flat, tri, 0.0, param_samples=8, seed=3)
        assert abs(rep.max_violation) < 1e-6

    def test_h2_passes_minus_one(self, h2_space):
        tri = [WPoint(0, [0.0]), WPoint(0.5, [1.0]), WPoint(-0.3, [0.6])]
        rep = cat_test(h2_space, tri, -1.0, param_samples=8, seed=3)
        assert rep.passed
        assert rep.max_violation <= 2e-4

    def test_flat_equilateral_fails_minus_one(self):
        flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))
        tri = [WPoint(0, [0.0]), WPoint(1.0, [0.0]), WPoint(0.5, [np.sqrt(3) / 2])]
        rep = cat_test(flat, tri, -1.0, param_samples=12, seed=3)
        assert rep.max_violation > 1e-3

    def test_cat_monotone_in_kappa(self, h2_space):
        # a campaign passing at kappa = -1 also passes at kappa = 0
        tri = [WPoint(0, [0.0]), WPoint(0.4, [0.9]), WPoint(-0.5, [0.3])]
        rep1 = cat_test(h2_space, tri, -1.0, param_samples=8, seed=5)
        rep0 = cat_test(h2_space, tri, 0.0, param_samples=8, seed=5)
        assert rep1.passed
        assert rep0.passed
        # same sampled parameter pairs, pointwise slacker comparison at 0
        for s1, s0 in zip(rep1.samples, rep0.samples):
            assert s1[:4] == s0[:4]
            assert s0[4] <= s1[4] + 1e-12


class TestCurvatureScan:
    def test_fg_scan(self, fg_space, fg_pair):
        config = ScanConfig(r_lo=fg_pair["f"].delta, r_hi=2.6 - 1e-3, n_grid=301, seed=2)
        report = curvature_scan(fg_space, config)
        assert report["empirical_kappa"] > 0
        assert report["fd_checks_ok"]

    def test_rows_and_fd_checks_share_the_terms(self, fg_space):
        config = ScanConfig(r_lo=0.205, r_hi=1.785, n_grid=81, fd_checks=4, seed=3)
        report = curvature_scan(fg_space, config)
        keys = ["r", "-f1''/f1", "-f2''/f2", "-f1'f2'/(f1 f2)", "lower", "upper"]
        assert all(list(row) == keys for row in report["rows"])
        assert all(type(v) is float for v in report["rows"][0].values())
        by_r = {row["r"]: row for row in report["rows"]}
        for check in report["fd_checks"]:
            row = by_r[check["r"]]
            assert (check["lower"], check["upper"]) == (row["lower"], row["upper"])

    def test_tail_is_hyperbolic(self, fg_space):
        config = ScanConfig(r_lo=1.9, r_hi=2.55, n_grid=41, fd_checks=2, seed=0)
        report = curvature_scan(fg_space, config)
        for row in report["rows"]:
            assert row["lower"] == pytest.approx(-1.0, abs=1e-10)
            assert row["upper"] == pytest.approx(-1.0, abs=1e-10)

    def test_near_singular_region_is_minus_one(self, fg_space, fg_pair):
        delta = fg_pair["f"].delta
        config = ScanConfig(r_lo=delta / 10, r_hi=delta * 0.9, n_grid=21, fd_checks=2, seed=0)
        report = curvature_scan(fg_space, config)
        for row in report["rows"]:
            assert row["lower"] == pytest.approx(-1.0, abs=1e-12)
            assert row["upper"] == pytest.approx(-1.0, abs=1e-12)
