import json
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from conftest import h2_chart
from warpfill.errors import OutOfDomainError, SolverFailureError, ValidationError
from warpfill.model_spaces import LatticeTorus, halfplane_distance, strip_to_halfplane, torus_distance
from warpfill.numerics import GAUSS_WEIGHTS, GK_NODES, GK_WEIGHTS, Const, Cosh, ExpShift, LinearR, Sinh, adaptive_gauss
from warpfill.warp_engine import (
    GRAD_TOL,
    GeodesicResult,
    PolylinePath,
    WarpedSpace,
    WPoint,
    _cover_coords,
    _Discretization,
    _core_route,
    _optimize_chain,
    alexandrov_angle,
    direction_at_singular,
    distance_to_core,
    log_map,
    path_length,
    path_point_at_arclength,
    solve_geodesic,
    space_from_json_dict,
    space_to_json_dict,
)


def straight(p, q, tdim=0):
    return PolylinePath((p, q), (np.zeros(tdim, dtype=int),))


@pytest.fixture(scope="module")
def cone():
    """[0, 10] x_r S^1: polar coordinates on the flat plane."""
    return WarpedSpace(
        interval=(0.0, 10.0),
        euclid_dim=0,
        warp_g=Const(1.0),
        torus=LatticeTorus(np.array([[2 * np.pi]])),
        warp_f=LinearR(),
    )


class TestWarpedSpaceValidation:
    def test_singularity_detection(self, singular_model):
        assert singular_model.singular_at_zero

    def test_nonsingular(self, h2_space):
        assert not h2_space.singular_at_zero

    def test_torus_without_warp_rejected(self):
        with pytest.raises(ValidationError):
            WarpedSpace(interval=(0, 1), euclid_dim=1, warp_g=Cosh(),
                        torus=LatticeTorus(np.eye(1)), warp_f=None)

    def test_quotient_equality_at_core(self, singular_model):
        p = WPoint(0.0, [0.5], [1.0])
        q = WPoint(0.0, [0.5], [4.0])
        assert singular_model.points_equal(p, q)
        assert not singular_model.points_equal(WPoint(0.5, [0.5], [1.0]),
                                               WPoint(0.5, [0.5], [4.0]))


class TestPathLength:
    def test_radial_segment(self, h2_space):
        p, q = WPoint(0.3, [0.2]), WPoint(1.7, [0.2])
        assert path_length(h2_space, straight(p, q)) == pytest.approx(1.4, abs=1e-12)

    def test_circle_at_radius(self, cone):
        path = PolylinePath(
            (WPoint(2.0, [], [0.0]), WPoint(2.0, [], [0.0])), (np.array([1]),)
        )
        assert path_length(cone, path) == pytest.approx(4 * np.pi, abs=1e-10)

    def test_horizontal_segment(self, h2_space):
        r = 0.7
        p, q = WPoint(r, [0.0]), WPoint(r, [2.5])
        assert path_length(h2_space, straight(p, q)) == pytest.approx(
            np.exp(r) * 2.5, abs=1e-10
        )

    def test_additive_over_concatenation(self, h2_space):
        p, m, q = WPoint(0.0, [0.0]), WPoint(0.4, [1.0]), WPoint(-0.2, [2.0])
        whole = PolylinePath((p, m, q), (np.zeros(0, int), np.zeros(0, int)))
        assert path_length(h2_space, whole) == pytest.approx(
            path_length(h2_space, straight(p, m)) + path_length(h2_space, straight(m, q)),
            abs=1e-12,
        )

    def test_out_of_domain(self, h2_space):
        with pytest.raises(OutOfDomainError):
            path_length(h2_space, straight(WPoint(-7.0, [0.0]), WPoint(0.0, [0.0])))

    def test_first_bad_vertex_raises(self, h2_space):
        none = np.zeros(0, int)
        good, far, wide = WPoint(0.0, [0.0]), WPoint(6.5, [0.0]), WPoint(0.0, [0.0, 1.0])
        with pytest.raises(OutOfDomainError, match="e has length 2"):
            path_length(h2_space, PolylinePath((good, wide, far), (none, none)))
        with pytest.raises(OutOfDomainError, match="r=6.5 outside"):
            path_length(h2_space, PolylinePath((good, far, wide), (none, none)))


class TestSolver:
    def test_identical_points(self, h2_space):
        res = solve_geodesic(h2_space, WPoint(0.1, [0.5]), WPoint(0.1, [0.5]))
        assert res.distance == 0.0 and res.converged

    def test_h2_isometry(self, h2_space):
        p, q = WPoint(0.0, [0.0]), WPoint(0.0, [1.0])
        res = solve_geodesic(h2_space, p, q, n_segments=32)
        exact = halfplane_distance(h2_chart(p), h2_chart(q))
        assert res.distance == pytest.approx(exact, abs=1e-4)

    def test_distance_equals_path_length(self, h2_space):
        res = solve_geodesic(h2_space, WPoint(0.2, [0.1]), WPoint(-0.4, [1.3]), n_segments=16)
        assert res.distance == pytest.approx(path_length(h2_space, res.path), abs=1e-12)

    def test_options_are_keyword_only(self, h2_space):
        # a seed passed where one used to go must not become refine_tol
        with pytest.raises(TypeError):
            solve_geodesic(h2_space, WPoint(0.2, [0.1]), WPoint(-0.4, [1.3]), 16, 0)

    def test_deterministic(self, h2_space):
        a = solve_geodesic(h2_space, WPoint(0.2, [0.1]), WPoint(-0.4, [1.3]), n_segments=16)
        b = solve_geodesic(h2_space, WPoint(0.2, [0.1]), WPoint(-0.4, [1.3]), n_segments=16)
        assert a.distance == b.distance
        assert a.iterations == b.iterations
        for va, vb in zip(a.path.vertices, b.path.vertices):
            assert va.r == vb.r and np.array_equal(va.e, vb.e)

    def test_cone_is_flat_plane(self, cone):
        # polar coordinates: d((1, 0), (1, pi)) = 2, straight through the origin
        res = solve_geodesic(cone, WPoint(1.0, [], [0.0]), WPoint(1.0, [], [np.pi]), n_segments=32)
        assert res.distance == pytest.approx(2.0, abs=1e-4)

    def test_wraparound_uses_deck_shift(self, cone):
        # nearly full turn at large radius: wrapping backwards is shorter
        res = solve_geodesic(cone, WPoint(8.0, [], [0.1]), WPoint(8.0, [], [2 * np.pi - 0.1]), n_segments=16)
        chord = 2 * 8.0 * np.sin(0.1)  # Euclidean chord across the short way
        assert res.distance == pytest.approx(chord, abs=1e-3)

    def test_strip_model(self):
        space = WarpedSpace(interval=(0.0, 5.0), euclid_dim=1, warp_g=Cosh())
        res = solve_geodesic(space, WPoint(0.0, [0.0]), WPoint(1.0, [1.0]), n_segments=32)
        exact = halfplane_distance(strip_to_halfplane(0, 0, 1), strip_to_halfplane(1, 1, 1))
        assert res.distance == pytest.approx(exact, abs=1e-4)

    def test_metric_axioms_sampled(self, h2_space):
        rng = np.random.default_rng(5)
        pts = [WPoint(rng.uniform(-0.8, 0.8), [rng.uniform(-1, 1)]) for _ in range(6)]
        d = {}
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i != j and (j, i) not in d:
                    d[(i, j)] = solve_geodesic(h2_space, pts[i], pts[j], n_segments=16,
                                               refine_tol=1e-6).distance
        for (i, j), dij in d.items():
            dji = solve_geodesic(h2_space, pts[j], pts[i], n_segments=16, refine_tol=1e-6).distance
            assert dji == pytest.approx(dij, abs=2e-6)
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    if len({i, j, k}) == 3:
                        dij = d.get((i, j), d.get((j, i)))
                        djk = d.get((j, k), d.get((k, j)))
                        dik = d.get((i, k), d.get((k, i)))
                        assert dik <= dij + djk + 2e-6


def cylinder_distance(torus, p, q):
    """Distance in [0, inf) x_cosh E^1 x_sinh T for any flat torus T:
    cosh d = cosh r1 cosh r2 cosh de - sinh r1 sinh r2 cos(min(pi, d_T)),
    in half-angle form so that small distances keep their digits."""
    phi = min(np.pi, torus_distance(torus, p.theta, q.theta))
    ca = 2.0 * np.sinh(0.5 * (p.r - q.r)) ** 2  # cosh(dr) - 1
    cb = 2.0 * np.sinh(0.5 * (p.e[0] - q.e[0])) ** 2  # cosh(de) - 1
    c = ca * cb + ca + cb + np.sinh(p.r) * np.sinh(q.r) * (cb + 2.0 * np.sin(0.5 * phi) ** 2)
    return 2.0 * np.arcsinh(np.sqrt(0.5 * c))


class TestSkewedTorus:
    @pytest.mark.parametrize("rows, pairs", [
        ([[7.0, 0.0], [3.1, 6.4]], 12),
        # an unreduced basis of the lattice spanned by (7, 0), (0.3, 6.9)
        ([[7.0, 0.0], [70.3, 6.9]], 12),
        ([[7.0, 0.0, 0.0], [3.1, 6.4, 0.0], [2.0, 1.5, 6.8]], 6),
        ([[7.0]], 12),
    ])
    def test_solver_matches_closed_form(self, rows, pairs):
        torus = LatticeTorus(np.array(rows))
        space = WarpedSpace(interval=(0.0, 3.0), euclid_dim=1, warp_g=Cosh(), torus=torus, warp_f=Sinh())
        rng = np.random.default_rng(16)
        for _ in range(pairs):
            # theta anywhere in the fundamental cell, so the deck class matters
            p, q = (WPoint(rng.uniform(0.1, 2.0), [rng.uniform(-0.5, 0.5)],
                           rng.uniform(0, 1, torus.dim) @ torus.basis) for _ in range(2))
            res = solve_geodesic(space, p, q, n_segments=16, refine_tol=1e-5)
            assert res.distance == pytest.approx(cylinder_distance(torus, p, q), abs=1e-4)

    @pytest.mark.parametrize("p, q", [
        # the two pairs core_geodesics used to keep as failing, d_T < pi and > pi
        ((1.244, 0.0, 0.0), (1.3, 0.2, 3.02)),
        ((0.6, 0.0, 2.0), (0.5, 0.5, 5.3)),
        # an endpoint on the core, where the unfolded route starts or ends
        ((0.0, 0.1, 0.0), (0.8, -0.3, 3.6)),
        ((0.8, -0.3, 0.2), (0.0, 0.4, 3.9)),
    ])
    def test_core_route_matches_closed_form(self, singular_model, p, q):
        p, q = (WPoint(r, [e], [th]) for r, e, th in (p, q))
        res = solve_geodesic(singular_model, p, q, n_segments=16, refine_tol=1e-5)
        assert res.distance == pytest.approx(cylinder_distance(singular_model.torus, p, q), abs=1e-4)


def banded_to_dense(ab):
    """Symmetric dense matrix from upper banded storage ab[u + i - j, j]."""
    u, n = ab.shape[0] - 1, ab.shape[1]
    dense = np.zeros((n, n))
    for j in range(n):
        for i in range(max(0, j - u), j + 1):
            dense[i, j] = dense[j, i] = ab[u + i - j, j]
    return dense


def fd_hessian(disc, x, h=1e-6):
    """Central differences of the analytic energy gradient."""
    cols = []
    for i in range(x.size):
        step = np.zeros_like(x)
        step[i] = h
        cols.append((disc.energy_grad(disc.segments(x + step))[1]
                     - disc.energy_grad(disc.segments(x - step))[1]) / (2 * h))
    return np.column_stack(cols)


class TestNewtonSolver:
    @pytest.mark.parametrize("case", ["h2", "torus", "through_core"])
    def test_banded_hessian_matches_gradient_differences(self, case, h2_space, singular_model):
        rng = np.random.default_rng(11)
        if case == "h2":
            disc = _Discretization(h2_space, _cover_coords(WPoint(0.1, [0.2])),
                                   _cover_coords(WPoint(-0.5, [1.3])), 8)
        elif case == "torus":
            disc = _Discretization(singular_model, _cover_coords(WPoint(0.5, [0.2], [0.3])),
                                   _cover_coords(WPoint(1.1, [-0.4], [2.0])), 8)
        else:
            disc = _core_route(singular_model, WPoint(0.4, [0.2], [0.3]),
                               WPoint(0.6, [-0.4], [3.5]), 8)
        x = disc.initial()
        lo, hi = disc.bounds()
        # move the chain off the straight line; r stays inside
        x += 0.1 * rng.standard_normal(x.size)
        x = np.clip(x, lo + 0.05, hi)
        if case == "through_core":
            # segment midpoints on both sides of the core, so the mirrored
            # warp's sign flip is differentiated
            r = disc.full_chain(x)[:, 0]
            assert np.ptp(np.sign(r[:-1] + r[1:])) == 2
        ab = disc.hessian_banded(disc.segments(x))
        assert ab.shape == (2 * disc.stride, x.size)
        expected = fd_hessian(disc, x)
        np.testing.assert_allclose(banded_to_dense(ab), expected, rtol=0,
                                   atol=1e-6 * np.max(np.abs(expected)))

    def test_iteration_cap_is_reported(self, h2_space):
        disc = _Discretization(h2_space, _cover_coords(WPoint(0.0, [0.0])),
                               _cover_coords(WPoint(0.0, [1.0])), 16)
        _, gnorm, nit, capped, _ = _optimize_chain(disc, maxiter=1)
        assert nit == 1 and capped and gnorm > GRAD_TOL
        _, gnorm, nit, capped, _ = _optimize_chain(disc)
        assert not capped and gnorm <= GRAD_TOL

    def test_capped_level_is_not_converged(self, h2_space, monkeypatch):
        monkeypatch.setattr("warpfill.warp_engine._optimize_chain",
                            lambda disc, x0=None: _optimize_chain(disc, maxiter=1, x0=x0))
        # one Newton step per level: the first level stops at the cap even
        # though later levels end below GRAD_TOL
        res = solve_geodesic(h2_space, WPoint(0.0, [0.0]), WPoint(0.0, [1.0]), n_segments=16)
        assert not res.converged


class TestSingularModel:
    def test_distance_to_core(self, singular_model):
        p = WPoint(0.7, [0.3], [1.0])
        assert distance_to_core(singular_model, p) == 0.7

    def test_radial_minimality(self, singular_model):
        p = WPoint(0.7, [0.3], [1.0])
        res = solve_geodesic(singular_model, p, WPoint(0.0, [0.3], [0.0]), n_segments=16)
        assert res.distance == pytest.approx(0.7, abs=1e-6)

    def test_core_is_convex(self, singular_model):
        rng = np.random.default_rng(2)
        for _ in range(10):
            p = WPoint(0.0, [rng.uniform(-1, 1)], [rng.uniform(0, 7)])
            q = WPoint(0.0, [rng.uniform(-1, 1)], [rng.uniform(0, 7)])
            res = solve_geodesic(singular_model, p, q, n_segments=16)
            assert max(v.r for v in res.path.vertices) <= 1e-6
            # the geodesic between core points is the Euclidean segment
            assert res.distance == pytest.approx(abs(p.e[0] - q.e[0]), abs=1e-6)

    def test_theta_jump_through_core_is_free(self, singular_model):
        # antipodal torus coordinates force passage through the core
        p = WPoint(0.5, [0.0], [0.0])
        q = WPoint(0.5, [0.0], [3.5])
        res = solve_geodesic(singular_model, p, q, n_segments=16)
        assert res.distance <= 1.0 + 1e-6  # down and up is always available
        direct = path_length(singular_model, straight(p, q, tdim=1))
        assert res.distance < direct

    def test_direction_formula(self, singular_model):
        phi, alpha, theta = direction_at_singular(
            singular_model, [0.0], WPoint(1.0, [1.0], [0.5])
        )
        assert phi == pytest.approx(np.arctan(np.tanh(1.0) / np.sinh(1.0)), abs=1e-14)
        assert alpha == pytest.approx([1.0])
        assert theta == pytest.approx([0.5])

    def test_direction_vertical(self, singular_model):
        phi, alpha, theta = direction_at_singular(
            singular_model, [0.2], WPoint(1.0, [0.2], [0.5])
        )
        assert phi == np.pi / 2 and alpha is None

    def test_direction_flattens_with_t(self, singular_model):
        phis = [
            direction_at_singular(singular_model, [0.0], WPoint(t, [1.0], [0.0]))[0]
            for t in (0.5, 0.1, 0.02)
        ]
        assert phis[0] > phis[1] > phis[2]

    def test_log_map_radial(self, singular_model):
        p = WPoint(0.0, [0.3], [0.0])
        x = WPoint(0.9, [0.3], [2.0])
        radius, (phi, alpha, theta) = log_map(singular_model, p, x, n_segments=16)
        assert radius == pytest.approx(0.9, abs=1e-6)
        assert phi == np.pi / 2 and alpha is None
        assert theta == pytest.approx([2.0])

    def test_log_injective_near_singular_point(self, singular_model):
        rng = np.random.default_rng(9)
        p = WPoint(0.0, [0.0], [0.0])
        images = []
        for _ in range(25):
            x = WPoint(rng.uniform(0.05, 0.3), [rng.uniform(-0.3, 0.3)], [rng.uniform(0, 0.5)])
            radius, (phi, alpha, theta) = log_map(singular_model, p, x, n_segments=16, refine_tol=1e-5)
            a = alpha[0] if alpha is not None else 0.0
            images.append((radius, phi, a, theta[0]))
        arr = np.array(images)
        for i in range(len(arr)):
            for j in range(i + 1, len(arr)):
                assert np.linalg.norm(arr[i] - arr[j]) > 1e-6


class TestAngles:
    def test_zero_angle_along_geodesic(self):
        flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))
        ang = alexandrov_angle(flat, WPoint(0, [0.0]), WPoint(1, [0.0]), WPoint(2, [0.0]))
        assert ang == pytest.approx(0.0, abs=1e-5)

    def test_pi_on_opposite_rays(self):
        flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))
        ang = alexandrov_angle(flat, WPoint(0, [0.0]), WPoint(1, [0.0]), WPoint(-1, [0.0]))
        assert ang == pytest.approx(np.pi, abs=1e-5)

    def test_right_angle_flat(self):
        flat = WarpedSpace(interval=(-3, 3), euclid_dim=1, warp_g=Const(1.0))
        ang = alexandrov_angle(flat, WPoint(0, [0.0]), WPoint(1, [0.0]), WPoint(0, [1.0]))
        assert ang == pytest.approx(np.pi / 2, abs=1e-3)


class TestArclengthAndSerialization:
    def test_point_at_arclength(self, h2_space):
        res = solve_geodesic(h2_space, WPoint(0.0, [0.0]), WPoint(0.0, [1.0]), n_segments=16)
        mid = path_point_at_arclength(h2_space, res.path, res.distance / 2)
        d1 = solve_geodesic(h2_space, WPoint(0.0, [0.0]), mid, n_segments=16).distance
        assert d1 == pytest.approx(res.distance / 2, abs=1e-4)

    def test_space_json_roundtrip(self, singular_model):
        doc = json.loads(json.dumps(space_to_json_dict(singular_model)))
        space2 = space_from_json_dict(doc)
        assert space2.singular_at_zero
        r = np.linspace(0, 3, 50)
        assert np.allclose(space2.f(r), singular_model.f(r))
        assert np.allclose(space2.g(r), singular_model.g(r))

    def test_smooth_warp_space_roundtrip(self, fg_space):
        doc = json.loads(json.dumps(space_to_json_dict(fg_space)))
        space2 = space_from_json_dict(doc)
        r = np.linspace(0, 2.6, 101)
        assert np.allclose(space2.f(r), fg_space.f(r), atol=1e-15)

    def test_geodesic_result_json(self, h2_space):
        res = solve_geodesic(h2_space, WPoint(0.0, [0.0]), WPoint(0.0, [0.5]), n_segments=16)
        doc = json.loads(json.dumps(res.to_json_dict()))
        assert doc["distance"] == res.distance
        assert len(doc["path"]["vertices"]) == len(res.path.vertices)


def reference_length(space, path):
    """Per-segment length by scipy's adaptive QUADPACK, independent of
    ``adaptive_gauss``; the warp pieces' knots are passed as break points."""
    knots = {p.lo for w in (space.warp_g, space.warp_f) for p in getattr(w, "pieces", ())[1:]}
    total = 0.0
    for a, b, sh in zip(path.vertices, path.vertices[1:], path.deck_shifts):
        dr = b.r - a.r
        de2 = float(np.sum((b.e - a.e) ** 2))
        dth2 = 0.0
        if space.torus is not None:
            dth2 = float(np.sum((b.theta + sh @ space.torus.basis - a.theta) ** 2))

        def speed(t):
            r = a.r + t * dr
            val = dr * dr + de2 * float(space.g(r)) ** 2
            if space.torus is not None:
                val += dth2 * float(space.f(r)) ** 2
            return np.sqrt(val)

        if dr == 0.0:
            total += speed(0.0)
            continue
        inside = [t for t in ((kn - a.r) / dr for kn in knots) if 0.0 < t < 1.0]
        breaks = sorted(inside) or None
        val, _ = quad(speed, 0.0, 1.0, points=breaks, epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return total


def polyline(data, space, n_max=6):
    """A random polyline in ``space`` that repeats vertices (zero-length
    segments) and keeps r fixed (constant-r segments) now and then."""
    lo, hi = space.interval
    k, tdim = space.euclid_dim, space.torus_dim
    n = data.draw(st.integers(1, n_max), label="segments")
    coord = st.floats(-1.5, 1.5, allow_nan=False)
    verts = [WPoint(data.draw(st.floats(lo, hi)), [data.draw(coord) for _ in range(k)],
                    [data.draw(st.floats(0.0, 7.0)) for _ in range(tdim)])]
    shifts = []
    for _ in range(n):
        kind = data.draw(st.sampled_from(["free", "free", "repeat", "same_r"]))
        prev = verts[-1]
        if kind == "repeat":
            verts.append(prev)
            shifts.append(np.zeros(tdim, dtype=int))
            continue
        r = prev.r if kind == "same_r" else data.draw(st.floats(lo, hi))
        verts.append(WPoint(r, [data.draw(coord) for _ in range(k)],
                            [data.draw(st.floats(0.0, 7.0)) for _ in range(tdim)]))
        shifts.append(np.array([data.draw(st.integers(-1, 1)) for _ in range(tdim)], dtype=int))
    return PolylinePath(tuple(verts), tuple(shifts))


class TestBatchedQuadrature:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_h2_matches_reference(self, h2_space, data):
        path = polyline(data, h2_space)
        assert path_length(h2_space, path) == pytest.approx(reference_length(h2_space, path), rel=1e-12)

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_singular_model_with_deck_shifts(self, singular_model, data):
        path = polyline(data, singular_model)
        assert path_length(singular_model, path) == pytest.approx(
            reference_length(singular_model, path), rel=1e-12)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_built_pair_across_splice_windows(self, fg_space, data):
        path = polyline(data, fg_space, n_max=4)
        # one segment through each splice window, (0.19, 0.2) and (1.79, 1.8)
        through = (WPoint(0.1, [0.3], [1.0]), WPoint(0.3, [-0.2], [6.0]),
                   WPoint(1.7, [0.4], [2.0]), WPoint(1.9, [0.1], [5.5]))
        path = PolylinePath(
            path.vertices + through,
            path.deck_shifts + tuple(np.array([s]) for s in (0, 1, -1, 0)),
        )
        assert path_length(fg_space, path) == pytest.approx(reference_length(fg_space, path), rel=1e-12)

    def test_zero_and_constant_r_segments(self, singular_model):
        a = WPoint(1.2, [0.3], [2.0])
        b = WPoint(1.2, [-0.4], [5.0])
        path = PolylinePath((a, a, b), (np.array([0]), np.array([1])))
        exact = np.sqrt(np.cosh(1.2) ** 2 * 0.49 + np.sinh(1.2) ** 2 * 100.0)
        assert path_length(singular_model, path) == pytest.approx(exact, rel=1e-14)

    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    @example(data=None)
    def test_arclength_endpoints(self, singular_model, data):
        if data is None:
            # trailing zero-length segment
            a, b = WPoint(0.5, [0.0], [1.0]), WPoint(2.0, [1.0], [3.0])
            path = PolylinePath((a, b, b), (np.array([1]), np.array([0])))
        else:
            path = polyline(data, singular_model)
        total = path_length(singular_model, path)
        start = path_point_at_arclength(singular_model, path, 0.0)
        end = path_point_at_arclength(singular_model, path, total)
        assert singular_model.points_equal(start, path.vertices[0], tol=1e-12)
        assert singular_model.points_equal(end, path.vertices[-1], tol=1e-9)

    def test_subnormal_dr_cuts_no_knot(self, fg_space):
        # a knot cut divided by dr = 5e-324 overflowed; the segment is level
        # to rounding at r = 0, where g = 1 and f = 0
        path = straight(WPoint(0.0, [0.0], [0.0]), WPoint(5e-324, [0.1], [0.2]), tdim=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert path_length(fg_space, path) == pytest.approx(0.1, rel=1e-14)

    def test_batched_panels_bisect_a_narrow_peak(self):
        calls = []

        def peak(x):
            calls.append(x.size)
            return 1.0 / (1.0 + ((x - 0.3) / 1e-3) ** 2)

        a = np.array([0.0, 0.25, 0.5, 0.0])
        b = np.array([1.0, 0.35, 1.0, 0.3])
        got = adaptive_gauss(peak, a, b)
        exact = 1e-3 * (np.arctan((b - 0.3) / 1e-3) - np.arctan((a - 0.3) / 1e-3))
        assert got.shape == (4,)
        assert np.allclose(got, exact, rtol=1e-10, atol=0.0)
        # the peak forced bisection rounds beyond the first, on fewer panels
        assert len(calls) > 2 and calls[-1] < calls[1]
        scalar = adaptive_gauss(peak, 0.25, 0.35)
        assert isinstance(scalar, float) and scalar == pytest.approx(exact[1], rel=1e-10)

    def test_empty_batch_calls_nothing(self):
        out = adaptive_gauss(lambda x: pytest.fail("integrand called"), np.zeros(0), np.zeros(0))
        assert out.shape == (0,)

    def test_kronrod_rule_and_its_gauss_rule(self):
        x, w = np.polynomial.legendre.leggauss(10)
        gauss = GAUSS_WEIGHTS != 0.0
        order = np.argsort(GK_NODES[gauss])
        assert np.allclose(GK_NODES[gauss][order], x, rtol=0.0, atol=1e-15)
        assert np.allclose(GAUSS_WEIGHTS[gauss][order], w, rtol=0.0, atol=1e-15)
        # the Kronrod rule is exact to degree 31, the Gauss rule to degree 19
        for degree in (0, 7, 19, 31):
            vals = (GK_NODES + 1.5) ** degree
            exact = (2.5 ** (degree + 1) - 0.5 ** (degree + 1)) / (degree + 1)
            assert vals @ GK_WEIGHTS == pytest.approx(exact, rel=1e-14)
            if degree <= 19:
                assert vals @ GAUSS_WEIGHTS == pytest.approx(exact, rel=1e-14)

    def test_segments_leaving_the_core_match_reference(self, singular_model):
        # the speed bends sharply near r = 0, where a Gauss estimate checked
        # against its own halves once passed while 1.4e-11 off
        rng = np.random.default_rng(7)
        for _ in range(2_000):
            a = WPoint(rng.uniform(0.0, 0.1), [rng.uniform(-1.5, 1.5)], [rng.uniform(0.0, 7.0)])
            b = WPoint(rng.uniform(0.0, 3.0), [rng.uniform(-1.5, 1.5)], [rng.uniform(0.0, 7.0)])
            path = PolylinePath((a, b), (np.array([rng.integers(-1, 2)]),))
            assert path_length(singular_model, path) == pytest.approx(
                reference_length(singular_model, path), rel=1e-12)


class TestArrayPath:
    @pytest.mark.parametrize("case", ["h2", "core_route", "skewed_t2"])
    def test_path_rebuilt_from_vertices_is_the_same(self, case, h2_space, singular_model):
        if case == "h2":
            space, p, q = h2_space, WPoint(0.2, [0.1]), WPoint(-0.4, [1.3])
        elif case == "core_route":
            space, p, q = singular_model, WPoint(0.5, [0.0], [0.0]), WPoint(0.5, [0.0], [3.5])
        else:
            torus = LatticeTorus(np.array([[7.0, 0.0], [3.1, 6.4]]))
            space = WarpedSpace(interval=(0.0, 3.0), euclid_dim=1, warp_g=Cosh(), torus=torus, warp_f=Sinh())
            # theta_q - theta_p leaves the cell, so some segments carry a deck shift
            p, q = WPoint(0.8, [0.1], [9.8, 6.2]), WPoint(1.1, [-0.2], [0.3, 0.4])
        res = solve_geodesic(space, p, q, n_segments=16, refine_tol=1e-5)
        if case == "core_route":
            assert res.path.coords[:, 0].min() == 0.0
        if case == "skewed_t2":
            assert res.path.shifts.any()
        rebuilt = PolylinePath(res.path.vertices, res.path.deck_shifts)
        assert rebuilt.to_json_dict() == res.path.to_json_dict()
        assert np.array_equal(rebuilt.coords, res.path.coords)
        assert path_length(space, rebuilt).hex() == path_length(space, res.path).hex()

    def test_point_at_arclength_reuses_the_solve(self, h2_space, monkeypatch):
        res = solve_geodesic(h2_space, WPoint(0.0, [0.0]), WPoint(0.3, [1.0]), n_segments=16)
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return adaptive_gauss(*args, **kwargs)

        monkeypatch.setattr("warpfill.warp_engine.adaptive_gauss", counted)
        for s in np.linspace(0.0, res.distance, 5):
            path_point_at_arclength(h2_space, res.path, s)
        assert calls == []
        # a path not measured yet is measured once, then reused
        fresh = PolylinePath(res.path.vertices, res.path.deck_shifts)
        for s in (0.1, 0.2):
            path_point_at_arclength(h2_space, fresh, s)
        assert calls == [1]

    def test_each_space_gets_its_own_length(self, h2_space):
        flat = WarpedSpace(interval=(-6.0, 6.0), euclid_dim=1, warp_g=Const(1.0))
        p, q = WPoint(0.2, [0.0]), WPoint(0.9, [1.0])
        path = straight(p, q)
        for _ in range(2):
            for space in (h2_space, flat):
                assert path_length(space, path) == path_length(space, straight(p, q))
                mid = path_point_at_arclength(space, path, 0.4)
                assert mid.r == path_point_at_arclength(space, straight(p, q), 0.4).r
        assert path_length(flat, path) == pytest.approx(np.hypot(0.7, 1.0), rel=1e-14)
        assert path_length(h2_space, path) > path_length(flat, path)

    def test_arrays_are_read_only(self, singular_model):
        res = solve_geodesic(singular_model, WPoint(0.5, [0.0], [1.0]), WPoint(1.0, [0.2], [6.5]), n_segments=16)
        built = straight(WPoint(0.5, [0.0], [1.0]), WPoint(1.0, [0.2], [6.5]), tdim=1)
        for path in (res.path, built):
            with pytest.raises(ValueError):
                path.coords[0, 0] = 1.0
            with pytest.raises(ValueError):
                path.shifts[0] = 1

    def test_log_map_rejects_an_unconverged_solve(self, h2_space, monkeypatch):
        p, x = WPoint(0.0, [0.0]), WPoint(0.3, [0.4])
        res = solve_geodesic(h2_space, p, x, n_segments=16)
        monkeypatch.setattr("warpfill.warp_engine.solve_geodesic", lambda *args, **kwargs: GeodesicResult(
            res.distance, res.path, False, res.iterations, 1e-3))
        with pytest.raises(SolverFailureError):
            log_map(h2_space, p, x, n_segments=16)
