import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpfill.errors import (
    IntersectionOutsideError,
    MismatchError,
    OutOfDomainError,
    SlopeOrderError,
    ValidationError,
)
from warpfill.numerics import ANALYTIC_REGISTRY, Cosh, ExpShift, ScalarC2, Sinh, as_scalar_c2
from warpfill.warp_engine import WarpedSpace
from warpfill.warp_functions import (
    CONSTRUCTION_TOL,
    KNOT_TOL,
    Line,
    SmoothWarpFunction,
    agol_smooth,
    build_fg,
    interpolate_tangent,
    line_intersection_x,
    quintic_interpolant,
)

B = 1.8  # 1 + lambda/2 for lambda = 1.6


# ---------------------------------------------------------------------------
# tangent-line interpolation (the ellipse arc)
# ---------------------------------------------------------------------------

class TestInterpolateTangent:
    def setup_method(self):
        self.tail = ExpShift(1.0)
        self.l2 = Line.tangent_to(self.tail, B)

    def test_tangency_at_endpoints(self):
        l1 = Line.tangent_to(Sinh(), 0.2)
        arc = interpolate_tangent(l1, self.l2, 0.2, B)
        assert abs(arc.d(0.2, 0) - l1(0.2)) < CONSTRUCTION_TOL
        assert abs(arc.d(0.2, 1) - l1.slope) < CONSTRUCTION_TOL
        assert abs(arc.d(B, 0) - self.l2(B)) < CONSTRUCTION_TOL
        assert abs(arc.d(B, 1) - self.l2.slope) < CONSTRUCTION_TOL

    def test_strict_convexity(self):
        l1 = Line.tangent_to(Cosh(), 0.2)
        arc = interpolate_tangent(l1, self.l2, 0.2, B)
        assert arc.convexity_floor > 0
        r = np.linspace(0.2, B, 1501)
        assert np.all(arc.d(r, 2) > 0)

    def test_slope_monotone_within_line_slopes(self):
        l1 = Line.tangent_to(Sinh(), 0.2)
        arc = interpolate_tangent(l1, self.l2, 0.2, B)
        r = np.linspace(0.2, B, 800)
        s = arc.d(r, 1)
        assert np.all(np.diff(s) > 0)
        assert s.min() >= l1.slope - 1e-9 and s.max() <= self.l2.slope + 1e-9

    def test_rejects_bad_slope_order(self):
        steep = Line(slope=5.0, intercept=-5.0)
        with pytest.raises(SlopeOrderError):
            interpolate_tangent(steep, self.l2, 0.2, B)

    def test_rejects_outside_intersection(self):
        # tangent lines whose crossing is not strictly between the abscissae
        # slopes are ordered, but the crossing lands right of B
        l1 = Line(slope=2.0, intercept=0.0)
        with pytest.raises((IntersectionOutsideError, SlopeOrderError)):
            interpolate_tangent(l1, self.l2, 0.2, B)


# ---------------------------------------------------------------------------
# the Agol-style smoothing
# ---------------------------------------------------------------------------

class TestAgolSmooth:
    def test_trivial_when_pieces_agree(self):
        sp = agol_smooth(Sinh(), Sinh(), 0.5, 0.01)
        r = np.linspace(0.49, 0.5, 50)
        assert np.allclose(sp.d(r, 0), np.sinh(r))

    def test_rejects_c1_mismatch(self):
        with pytest.raises(MismatchError):
            agol_smooth(Sinh(), Cosh(), 0.5, 0.01)

    def test_band_containment(self, fg_pair):
        for w in (fg_pair["f"], fg_pair["g"]):
            for piece in w.pieces:
                fn = piece.fn
                if fn.name != "mollified_splice":
                    continue
                R, eps = fn.R, fn.eps
                b2, c2 = fn.b.d(R, 2), fn.c.d(R, 2)
                lo = 0.9 * min(b2, c2)
                hi = 1.1 * max(b2, c2)
                rr = np.linspace(R - eps + 1e-9, R - 1e-9, 2001)
                a2 = fn.d(rr, 2)
                assert a2.min() >= lo - 1e-12
                assert a2.max() <= hi + 1e-12


def _splices(fg_pair):
    """The splice pieces of f and g."""
    return [
        piece.fn
        for w in (fg_pair["f"], fg_pair["g"])
        for piece in w.pieces
        if piece.fn.name == "mollified_splice"
    ]


def _composite_gauss(fn, a, b, panels=2000, order=8):
    """Composite Gauss-Legendre integral of a vectorized fn over [a, b]."""
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])[:, None]
    half = 0.5 * (edges[1:] - edges[:-1])[:, None]
    vals = fn((mid + half * x).ravel()).reshape(panels, order)
    return float(np.sum(half * vals @ w))


class TestSpliceDerivatives:
    """The splice derivatives come from one spline, so each order is the
    exact antiderivative of the next."""

    def test_second_derivative_integrates_to_slope(self, fg_pair):
        splices = _splices(fg_pair)
        assert len(splices) == 4
        for sp in splices:
            integral = _composite_gauss(lambda r: sp.d(r, 2), sp.lo, sp.R)
            assert integral == pytest.approx(sp.d(sp.R, 1) - sp.d(sp.lo, 1), abs=1e-12)

    def test_slope_integrates_to_value(self, fg_pair):
        for sp in _splices(fg_pair):
            integral = _composite_gauss(lambda r: sp.d(r, 1), sp.lo, sp.R)
            assert integral == pytest.approx(sp.d(sp.R, 0) - sp.d(sp.lo, 0), abs=1e-12)

    def test_outside_the_window_defers_to_neighbours(self, fg_pair):
        for sp in _splices(fg_pair):
            left, right = sp.lo - 1e-3, sp.R + 1e-3
            for order in (0, 1, 2):
                assert sp.d(left, order) == sp.b.d(left, order)
                assert sp.d(right, order) == sp.c.d(right, order)

    def test_third_order_rejected(self, fg_pair):
        sp = _splices(fg_pair)[0]
        with pytest.raises(ValidationError):
            sp.d(sp.R - 0.5 * sp.eps, 3)

    def test_plain_callable_rejected(self):
        with pytest.raises(TypeError):
            as_scalar_c2(lambda r: r)

    def test_duck_typed_warp_rejected(self, fg_pair):
        class OnlyD:
            def d(self, r, order=0):
                return np.ones_like(np.asarray(r, dtype=float))

        with pytest.raises(TypeError):
            as_scalar_c2(OnlyD())
        with pytest.raises(TypeError):
            WarpedSpace(interval=(0.0, 1.0), euclid_dim=1, warp_g=OnlyD())
        assert as_scalar_c2(fg_pair["g"]) is fg_pair["g"]

    def test_quintic_matches_fitpack(self, fg_pair):
        # FITPACK is the reference only: the package never imports it
        from scipy.interpolate import InterpolatedUnivariateSpline

        for sp in _splices(fg_pair):
            x = np.linspace(sp.lo, sp.R, 4001)
            y = sp.d(x, 2)
            ours = quintic_interpolant(x, y)
            ref = InterpolatedUnivariateSpline(x, y, k=5)
            probe = np.concatenate((x, np.random.default_rng(5).uniform(sp.lo, sp.R, 20_000)))
            np.testing.assert_allclose(ours(probe), ref(probe), rtol=1e-13, atol=0)
            ours1 = ours.antiderivative()
            for ours_k, k in ((ours1, 1), (ours1.antiderivative(), 2)):
                assert np.max(np.abs(ours_k(probe) - ref.antiderivative(k)(probe))) <= 1e-15


# ---------------------------------------------------------------------------
# the jet: all orders from one evaluation
# ---------------------------------------------------------------------------

def _jet_cases(fg_pair):
    """(function, radii) for both built warps, each of their pieces, a
    trivial splice and every analytic warp."""
    for w in (fg_pair["f"], fg_pair["g"]):
        yield w, np.linspace(*w.domain, 4001)
        for piece in w.pieces:
            yield piece.fn, np.linspace(piece.lo, piece.hi, 257)
    yield agol_smooth(Sinh(), Sinh(), 0.5, 0.01), np.linspace(0.48, 0.5, 33)
    for cls in ANALYTIC_REGISTRY.values():
        yield cls(), np.linspace(0.1, 2.0, 33)


class TestJet:
    def test_jet_orders_equal_d(self, fg_pair):
        for fn, r in _jet_cases(fg_pair):
            for n in (0, 1, 2):
                jet = fn.jet(r, n)
                assert len(jet) == n + 1
                for order in range(n + 1):
                    assert np.array_equal(jet[order], fn.d(r, order)), (fn, n, order)

    def test_single_radius_matches_batch(self, fg_pair):
        r = np.linspace(0.05, 2.55, 4001)
        for w in (fg_pair["f"], fg_pair["g"]):
            batch = np.stack(w.jet(r, 2), axis=1)
            single = np.array([w.jet(x, 2) for x in r])
            assert np.array_equal(batch, single)

    def test_scalar_jet(self, fg_pair):
        g = fg_pair["g"]
        jet = g.jet(1.0, 2)
        assert all(np.ndim(v) == 0 for v in jet)
        assert [float(v) for v in jet] == [float(g.d(1.0, o)) for o in range(3)]

    def test_third_order_rejected(self, fg_pair):
        with pytest.raises(ValidationError):
            fg_pair["f"].jet(0.5, 3)

    def test_warp_without_jet_is_refused(self):
        class NoJet(ScalarC2):
            pass

        with pytest.raises(NotImplementedError):
            NoJet().d(1.0)


# ---------------------------------------------------------------------------
# the assembled pair
# ---------------------------------------------------------------------------

class TestBuildFG:
    def test_exact_boundary_pieces(self, fg_pair):
        f, g, delta = fg_pair["f"], fg_pair["g"], fg_pair["delta"]
        r_lo = np.linspace(0.0, delta - 1e-6, 200)
        assert np.allclose(f.d(r_lo, 0), np.sinh(r_lo), atol=0, rtol=0)
        assert np.allclose(g.d(r_lo, 0), np.cosh(r_lo), atol=0, rtol=0)
        r_hi = np.linspace(B + 1e-12, 2.6, 200)
        assert np.allclose(f.d(r_hi, 0), np.exp(r_hi - 1.0), atol=0, rtol=0)
        assert np.allclose(g.d(r_hi, 0), np.exp(r_hi - 1.0), atol=0, rtol=0)

    def test_c1_at_knots(self, fg_pair):
        for w in (fg_pair["f"], fg_pair["g"]):
            for knot in w.knots[1:-1]:
                for order in (0, 1):
                    left = float(w.eval(knot, order, side="left"))
                    right = float(w.eval(knot, order, side="right"))
                    assert abs(left - right) < KNOT_TOL

    def test_convexity_grid(self, fg_pair):
        f, g = fg_pair["f"], fg_pair["g"]
        r = np.linspace(1e-4, 2.6 - 1e-4, 10_000)
        assert np.min(f.d(r, 2)) > 0
        assert np.min(g.d(r, 2)) >= fg_pair["kappa_floor"] > 0

    def test_ordering_away_from_the_join(self, fg_pair):
        # g >= f holds on [0, B - 0.05]; within ~0.04 of B the two ellipse
        # arcs cross by about 1.7e-4 (both are tangent to the same line at B
        # and the g-arc hugs it tighter), so only a bounded dip is possible
        f, g = fg_pair["f"], fg_pair["g"]
        r = np.linspace(0.0, B - 0.05, 5000)
        assert np.all(g.d(r, 0) >= f.d(r, 0) - 1e-12)
        r_all = np.linspace(0.0, 2.6, 20_000)
        assert np.min(g.d(r_all, 0) - f.d(r_all, 0)) > -5e-4
        r_tail = np.linspace(B, 2.6, 500)
        assert np.allclose(g.d(r_tail, 0), f.d(r_tail, 0))

    def test_delta_epsilon_relation(self, fg_pair):
        f = fg_pair["f"]
        eps = f.delta0 - f.delta
        assert eps == pytest.approx(min(1e-2, f.delta0 / 2, 1.6 / 8))

    @pytest.mark.parametrize("lam", [0.8, 1.6, 2.4])
    def test_other_lambdas_assemble(self, lam):
        f, g, delta, floor = build_fg(lam)
        assert 0 < delta < f.delta0 <= 1 + lam / 2
        assert floor > 0
        r = np.linspace(0, 1 + lam, 2000)
        assert np.min(f.d(r, 0)) >= 0
        assert np.min(g.d(r, 0)) > 0

    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.3, 0.4])
    def test_small_lambdas_assemble_or_refuse(self, lam):
        # the default hint 0.2 is too large for these; delta0 is its first
        # halving at which both ellipse arcs build.  Where none does, or the
        # first one is too small for a splice to stay convex, build_fg says so
        try:
            f, g, delta, floor = build_fg(lam)
        except ValidationError as exc:
            assert "no admissible delta0" in str(exc) or "leaves its band" in str(exc)
            return
        assert 0 < delta < f.delta0 < 1 + lam / 2
        assert floor > 0 and f.convexity_floor > 0
        for w in (f, g):
            # the splice windows are sampled too: they can be narrower than
            # any uniform grid's step
            r = np.concatenate([np.linspace(0, 1 + lam, 2000)[1:]] + [
                np.linspace(p.lo, p.hi, 201) for p in w.pieces if p.fn.name == "mollified_splice"])
            assert np.min(w.d(r, 2)) > 0

    def test_out_of_domain(self, fg_pair):
        with pytest.raises(OutOfDomainError):
            fg_pair["f"].eval(2.61)
        with pytest.raises(OutOfDomainError):
            fg_pair["g"].eval(-0.01)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

class TestSerialization:
    def test_roundtrip_exact(self, fg_pair):
        for name in ("f", "g"):
            w = fg_pair[name]
            w2 = SmoothWarpFunction.from_json_dict(json.loads(json.dumps(w.to_json_dict())))
            r = np.linspace(0, 2.6, 4001)
            assert np.array_equal(w.d(r, 0), w2.d(r, 0))
            assert w2.knots == w.knots

    def test_rejects_wrong_version(self, fg_pair):
        doc = fg_pair["f"].to_json_dict()
        doc["version"] = 99
        with pytest.raises(Exception):
            SmoothWarpFunction.from_json_dict(doc)


# ---------------------------------------------------------------------------
# property tests
# ---------------------------------------------------------------------------

@given(
    x0=st.floats(0.05, 1.0),
    x1=st.floats(1.3, 2.2),
)
@settings(max_examples=25, deadline=None)
def test_tangent_line_construction(x0, x1):
    l1 = Line.tangent_to(Sinh(), x0)
    l2 = Line.tangent_to(ExpShift(1.0), x1)
    assert l1(x0) == pytest.approx(np.sinh(x0))
    assert l2(x1) == pytest.approx(np.exp(x1 - 1.0))
    if abs(l1.slope - l2.slope) > 1e-9:
        x = line_intersection_x(l1, l2)
        assert l1(x) == pytest.approx(l2(x), abs=1e-9)
