import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpfill.errors import DegenerateError, DomainError, OutOfRangeError, ValidationError
from warpfill.model_spaces import (
    ComparisonTriangle,
    JoinPoint,
    LatticeTorus,
    circle_metric,
    comparison_triangle,
    halfplane_distance,
    halfplane_geodesic_point,
    spherical_join_distance,
    strip_to_halfplane,
    torus_distance,
    torus_reduce,
    torus_systole,
    triangle_point,
)

upper_half = st.builds(
    complex,
    st.floats(-3.0, 3.0),
    st.floats(0.05, 4.0),
)


class TestHalfplane:
    def test_identical_points(self):
        assert halfplane_distance(1j, 1j) == 0.0

    def test_vertical_axis(self):
        assert halfplane_distance(1j, 2j) == pytest.approx(np.log(2), abs=1e-14)

    def test_unit_horizontal(self):
        assert halfplane_distance(1j, 1 + 1j) == pytest.approx(np.arccosh(1.5), abs=1e-14)

    def test_nearby_points(self):
        # the arccosh argument rounds to 1 here; the distance must not
        assert halfplane_distance(0.5j, -1e-12 + 0.5j) == pytest.approx(2e-12, rel=1e-12)

    def test_rejects_lower_half(self):
        with pytest.raises(DomainError):
            halfplane_distance(1j, 1 - 1j)

    @given(z=upper_half, w=upper_half, u=upper_half)
    @settings(max_examples=300, deadline=None)
    def test_metric_axioms(self, z, w, u):
        assert halfplane_distance(z, w) == halfplane_distance(w, z)
        assert halfplane_distance(z, u) <= (
            halfplane_distance(z, w) + halfplane_distance(w, u) + 1e-12
        )

    def test_geodesic_point_is_on_the_geodesic(self):
        z, w = 0.4 + 0.8j, -1.2 + 2.5j
        d = halfplane_distance(z, w)
        for frac in (0.0, 0.3, 0.5, 1.0):
            m = halfplane_geodesic_point(z, w, frac * d)
            assert halfplane_distance(z, m) == pytest.approx(frac * d, abs=1e-7)
            assert halfplane_distance(m, w) == pytest.approx((1 - frac) * d, abs=1e-7)

    @given(z=upper_half, w=upper_half)
    @settings(max_examples=2000, deadline=None)
    def test_geodesic_point_reaches_the_endpoint(self, z, w):
        end = halfplane_geodesic_point(z, w, halfplane_distance(z, w))
        assert halfplane_distance(end, w) <= 1e-12

    def test_far_pair_near_the_axis(self):
        # 9.4 apart at height 0.05: from z alone, rounding in 1 - u put the
        # endpoint 1.1e-12 from w
        z, w = 2.5318187129870457 + 0.05j, -2.8690763657920084 + 0.05j
        d = halfplane_distance(z, w)
        assert halfplane_geodesic_point(z, w, d) == w
        for s in np.linspace(0.0, d, 21):
            m = halfplane_geodesic_point(z, w, s)
            assert abs(halfplane_distance(z, m) - s) + abs(halfplane_distance(m, w) - (d - s)) <= 1e-12


class TestStripMap:
    def test_basepoint(self):
        assert strip_to_halfplane(0.0, 0.0, 1.0) == 1j

    def test_radial_unit_speed(self):
        for t in (0.3, 1.0, 2.7):
            h = strip_to_halfplane(t, 0.0, 1.0)
            assert halfplane_distance(1j, h) == pytest.approx(t, abs=1e-12)

    def test_rejects_negative_t(self):
        with pytest.raises(DomainError):
            strip_to_halfplane(-0.1, 0.0, 1.0)


class TestComparisonTriangles:
    def test_flat_pythagoras(self):
        tri = comparison_triangle(0.0, 3.0, 4.0, 5.0)
        v0, v1, v2 = tri.vertices
        # angle at v2 between the sides of lengths 3 and 4 is right
        ang = np.angle((v0 - v2) / (v1 - v2))
        assert abs(abs(ang) - np.pi / 2) < 1e-12

    def test_hyperbolic_equilateral_angle(self):
        tri = comparison_triangle(-1.0, 1.0, 1.0, 1.0)
        expected = np.arccos((np.cosh(1.0) ** 2 - np.cosh(1.0)) / np.sinh(1.0) ** 2)
        # recompute the vertex angle from hyperboloid coordinates
        v0, v1, v2 = tri.vertices
        d01 = tri.distance(v0, v1)
        assert d01 == pytest.approx(1.0, abs=1e-10)
        assert expected == pytest.approx(0.9188, abs=1e-3)

    def test_degenerate_collinear(self):
        tri = comparison_triangle(-1.0, 1.0, 2.0, 3.0)
        # a + b = c: vertices v1, v2 sit on one geodesic through v0
        mid = triangle_point(tri, 2, 2.0)
        assert tri.distance(mid, tri.vertices[2]) < 1e-6

    def test_rejects_violated_inequality(self):
        with pytest.raises(DegenerateError):
            comparison_triangle(-1.0, 1.0, 1.0, 2.5)

    @pytest.mark.parametrize("kappa", [0.0, -0.5, -1.0, -2.0])
    def test_side_lengths_reproduced(self, kappa):
        tri = comparison_triangle(kappa, 1.1, 0.8, 1.5)
        v0, v1, v2 = tri.vertices
        assert tri.distance(v1, v2) == pytest.approx(1.1, abs=1e-10)
        assert tri.distance(v0, v2) == pytest.approx(0.8, abs=1e-10)
        assert tri.distance(v0, v1) == pytest.approx(1.5, abs=1e-10)

    def test_triangle_point_endpoints(self):
        tri = comparison_triangle(0.0, 3.0, 4.0, 5.0)
        p = triangle_point(tri, 0, 0.0)
        assert abs(p - tri.vertices[1]) < 1e-12
        with pytest.raises(OutOfRangeError):
            triangle_point(tri, 0, 3.1)

    def test_flat_hypotenuse_midpoint(self):
        tri = comparison_triangle(0.0, 3.0, 4.0, 5.0)
        m = triangle_point(tri, 2, 2.5)
        assert abs(m - tri.vertices[0]) == pytest.approx(2.5)
        assert abs(m - tri.vertices[1]) == pytest.approx(2.5)

    def test_thin_triangle_midpoints(self):
        tri = comparison_triangle(-1.0, 1.0, 1.0, 1.0)
        m1 = triangle_point(tri, 1, 0.5)
        m2 = triangle_point(tri, 2, 0.5)
        assert tri.distance(m1, m2) < 0.5


@st.composite
def skewed_lattices(draw):
    """A basis in dimension 2-4: either the skewed rows (1, 0), (a, b) with
    a in [5, 30] and b in [0.02, 0.3], padded by unit rows, or a square
    lattice under a random unimodular change of basis."""
    n = draw(st.integers(2, 4))
    if draw(st.booleans()):
        basis = np.eye(n)
        basis[1, :2] = draw(st.floats(5.0, 30.0)), draw(st.floats(0.02, 0.3))
        return basis
    u = np.eye(n, dtype=int)
    for _ in range(n):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 2))
        u[i] += draw(st.integers(-2, 2)) * u[j + (j >= i)]
    return u * draw(st.floats(0.5, 4.0))


def brute_nearest(basis, target, rho, nonzero=False):
    """min |c @ basis - target| over integer c, zero excluded if ``nonzero``,
    given that some lattice vector lies within ``rho`` of target.

    A lattice vector v = c @ basis within rho of target has
    |c_i - t_i| <= rho sqrt((G^-1)_ii), where t = target @ basis^-1 and
    G = basis basis^T: c - t = (v - target) @ basis^-1, and the i-th column
    of basis^-1 has norm sqrt((G^-1)_ii).  So the box below holds every
    candidate; the widest axis is vectorized, the others looped over.
    """
    n = len(basis)
    t = np.linalg.solve(basis.T, target)
    half = rho * np.sqrt(np.diag(np.linalg.inv(basis @ basis.T)))
    axes = [np.arange(np.floor(c - h), np.ceil(c + h) + 1) for c, h in zip(t, half)]
    wide = int(np.argmax([len(a) for a in axes]))
    best = np.inf
    for rest in itertools.product(*(a for k, a in enumerate(axes) if k != wide)):
        c = np.zeros((len(axes[wide]), n))
        c[:, wide] = axes[wide]
        c[:, [k for k in range(n) if k != wide]] = rest
        if nonzero:
            c = c[np.any(c != 0, axis=1)]
        best = min(best, np.min(np.linalg.norm(c @ basis - target, axis=1), initial=np.inf))
    return best


class TestTorus:
    def test_zero_distance(self):
        T = LatticeTorus(np.eye(2) * 7.0)
        assert torus_distance(T, [1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_wrap(self):
        T = LatticeTorus(np.eye(2) * 7.0)
        assert torus_distance(T, [0.0, 0.0], [6.0, 0.0]) == pytest.approx(1.0)

    def test_hexagonal_vs_bruteforce(self):
        basis = np.array([[1.0, 0.0], [0.5, np.sqrt(3) / 2]])
        T = LatticeTorus(basis)
        x = np.zeros(2)
        y = np.array([0.75, np.sqrt(3) / 4])
        brute = min(
            np.linalg.norm(x - y + np.array([i, j]) @ basis)
            for i in range(-3, 4)
            for j in range(-3, 4)
        )
        assert torus_distance(T, x, y) == pytest.approx(brute, abs=1e-12)

    def test_systole_square(self):
        assert torus_systole(LatticeTorus(np.eye(2) * 7.0)) == pytest.approx(7.0)

    def test_systole_skew_designated_oracle(self):
        # 2*(5, 0.5) - (10, 0) = (0, 1): the enumeration must find it
        T = LatticeTorus(np.array([[10.0, 0.0], [5.0, 0.5]]))
        brute = min(
            np.linalg.norm(np.array([i, j], dtype=float) @ T.basis)
            for i in range(-4, 5)
            for j in range(-4, 5)
            if (i, j) != (0, 0)
        )
        assert brute == pytest.approx(1.0)
        assert torus_systole(T) == pytest.approx(brute)

    @given(s=st.floats(0.2, 5.0))
    @settings(max_examples=20, deadline=None)
    def test_systole_homogeneity(self, s):
        basis = np.array([[1.0, 0.0], [0.3, 0.9]])
        assert torus_systole(LatticeTorus(basis * s)) == pytest.approx(
            s * torus_systole(LatticeTorus(basis)), rel=1e-12
        )

    @given(basis=skewed_lattices(), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_skewed_against_brute_force(self, basis, data):
        n = len(basis)
        T = LatticeTorus(basis)
        # the shortest basis row bounds the systole from above
        rho = np.linalg.norm(basis, axis=1).min()
        assert torus_systole(T) == pytest.approx(
            brute_nearest(basis, np.zeros(n), rho, nonzero=True), rel=1e-9)
        coeffs = st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n)
        x = np.array(data.draw(coeffs)) @ basis
        y = np.array(data.draw(coeffs)) @ basis
        # nearest-plane rounding along the Gram-Schmidt frame reaches a
        # lattice vector within half the diagonal of the frame's box
        rho = 0.5 * np.linalg.norm(np.diag(np.linalg.qr(basis.T, mode="r")))
        assert torus_distance(T, x, y) == pytest.approx(
            brute_nearest(basis, y - x, rho), rel=1e-9, abs=1e-9)

    def test_systole_of_the_skewed_3d_rows(self):
        T = LatticeTorus(np.array([[7.0, 0.0, 0.0], [30.0, 0.3, 0.0], [2.0, 5.0, 7.5]]))
        assert torus_systole(T) == pytest.approx(1.3453624047, abs=1e-9)

    def test_small_scale_basis_accepted(self):
        T = LatticeTorus(np.eye(3) * 1e-5)
        assert torus_systole(T) == pytest.approx(1e-5, rel=1e-12)

    def test_nearly_dependent_basis_rejected(self):
        # singular values 1.414 and 7.07e-14: below SINGULAR_RTOL = 1e-12
        with pytest.raises(ValidationError, match="basis is singular"):
            LatticeTorus(np.array([[1.0, 0.0], [1.0, 1e-13]]))
        assert LatticeTorus(np.array([[1.0, 0.0], [1.0, 1e-11]])).dim == 2

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_basis_rejected(self, bad):
        with pytest.raises(ValidationError, match="non-finite"):
            LatticeTorus(np.array([[7.0, 0.0], [bad, 7.0]]))

    def test_distance_bounded_by_euclidean(self):
        rng = np.random.default_rng(3)
        T = LatticeTorus(np.array([[2.0, 0.3], [0.0, 1.5]]))
        sys2 = torus_systole(T) / 2
        for _ in range(100):
            x, y = rng.uniform(0, 1, 2) @ T.basis, rng.uniform(0, 1, 2) @ T.basis
            d = torus_distance(T, x, y)
            assert d <= np.linalg.norm(x - y) + 1e-12
            if np.linalg.norm(x - y) < sys2:
                assert d == pytest.approx(np.linalg.norm(x - y))

    def test_reduce_is_idempotent_and_equivalent(self):
        T = LatticeTorus(np.array([[2.0, 0.3], [0.0, 1.5]]))
        x = np.array([5.7, -3.1])
        red = torus_reduce(T, x)
        assert np.allclose(torus_reduce(T, red), red)
        assert torus_distance(T, x, red) < 1e-9

    def test_json_roundtrip(self):
        T = LatticeTorus(np.array([[2.0, 0.3], [0.0, 1.5]]))
        T2 = LatticeTorus.from_json_dict(T.to_json_dict())
        assert np.array_equal(T.basis, T2.basis)


class TestSphericalJoin:
    def test_degenerate_to_factor_metric(self):
        d = circle_metric()
        p = JoinPoint(0.0, 1.0, None)
        q = JoinPoint(0.0, 2.5, None)
        assert spherical_join_distance(p, q, d, d) == pytest.approx(d(1.0, 2.5))

    def test_orthogonal_factors(self):
        d = circle_metric()
        p = JoinPoint(0.0, 1.0, None)
        q = JoinPoint(np.pi / 2, None, 0.3)
        assert spherical_join_distance(p, q, d, d) == pytest.approx(np.pi / 2)

    def test_spec_midpoint_case(self):
        d0 = lambda a, b: np.pi  # noqa: E731
        d1 = lambda a, b: 0.0  # noqa: E731
        p = JoinPoint(np.pi / 4, 0, 0)
        q = JoinPoint(np.pi / 4, 0, 0)
        assert spherical_join_distance(p, q, d0, d1) == pytest.approx(np.pi / 2)

    def test_triangle_inequality_sampled(self):
        rng = np.random.default_rng(11)
        d = circle_metric()
        for _ in range(10_000):
            pts = [
                JoinPoint(rng.uniform(0, np.pi / 2), rng.uniform(0, 2 * np.pi), rng.uniform(0, 2 * np.pi))
                for _ in range(3)
            ]
            d01 = spherical_join_distance(pts[0], pts[1], d, d)
            d12 = spherical_join_distance(pts[1], pts[2], d, d)
            d02 = spherical_join_distance(pts[0], pts[2], d, d)
            assert d02 <= d01 + d12 + 1e-10
