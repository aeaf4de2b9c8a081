"""Smooth convex warping functions.

Assembles the pair (f, g) on [0, 1+lambda]: f runs from sinh near 0 to the
exponential tail e^(r-1), g from cosh to the same tail.  The middle is a
strictly convex ellipse-arc interpolant between tangent lines; the C^1 corners
are replaced by smooth splices whose second derivative stays inside the band
spanned by the one-sided second derivatives at the corner.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import InterpolatedUnivariateSpline

from .errors import (
    IntersectionOutsideError,
    MismatchError,
    OutOfDomainError,
    SlopeOrderError,
    ValidationError,
)
from .numerics import (
    Cosh,
    ExpShift,
    ScalarC2,
    Sinh,
    as_scalar_c2,
    smooth_bump,
    smoothstep,
)

SERIALIZATION_VERSION = 1
CONSTRUCTION_TOL = 1e-9
KNOT_TOL = 1e-8


@dataclass(frozen=True)
class Line:
    """y = slope * x + intercept."""

    slope: float
    intercept: float

    def __post_init__(self):
        if not (math.isfinite(self.slope) and math.isfinite(self.intercept)):
            raise ValidationError("line coefficients must be finite")

    def __call__(self, x):
        return self.slope * np.asarray(x, dtype=float) + self.intercept

    @staticmethod
    def tangent_to(fn: ScalarC2, x0: float) -> "Line":
        s = float(fn.d(x0, 1))
        return Line(s, float(fn.d(x0, 0)) - s * x0)


def line_intersection_x(l1: Line, l2: Line) -> float:
    if l1.slope == l2.slope:
        raise DegenerateLinesError()
    return (l1.intercept - l2.intercept) / (l2.slope - l1.slope)


class DegenerateLinesError(SlopeOrderError):
    pass


class EllipseArc(ScalarC2):
    """Graph of the convex interpolant cut from an affine image of the unit
    circle centered at (1, 1).

    The affine map sends (0,1) and (1,0) to the two tangency points and the
    origin to the crossing of the tangent lines; the quarter with both
    preimage coordinates nonpositive is the graph branch used.
    """

    name = "ellipse_arc"

    def __init__(self, affine_map: np.ndarray, domain: tuple[float, float], convexity_floor: float):
        self.affine_map = np.asarray(affine_map, dtype=float)
        if self.affine_map.shape != (2, 3):
            raise ValidationError("affine_map must be 2x3")
        self.domain = (float(domain[0]), float(domain[1]))
        self.convexity_floor = float(convexity_floor)
        self._L = self.affine_map[:, :2]
        self._P = self.affine_map[:, 2]
        self._N = np.linalg.inv(self._L)
        # constant second partials of F(x, y) = |N (p - P) - (1,1)|^2 - 1
        n0, n1 = self._N[:, 0], self._N[:, 1]
        self._Fxx = 2.0 * float(n0 @ n0)
        self._Fyy = 2.0 * float(n1 @ n1)
        self._Fxy = 2.0 * float(n0 @ n1)

    def _q(self, x, y):
        """Preimage coordinates relative to the circle center."""
        p = np.stack([np.asarray(x, dtype=float), np.asarray(y, dtype=float)], axis=-1)
        return (p - self._P) @ self._N.T - 1.0

    def _solve_y(self, x):
        x = np.asarray(x, dtype=float)
        n0, n1 = self._N[:, 0], self._N[:, 1]
        base = -self._P @ self._N.T - 1.0
        gx = np.multiply.outer(x, n0) + base  # q = gx + y * n1
        a = float(n1 @ n1)
        b = 2.0 * gx @ n1
        c = np.einsum("...i,...i->...", gx, gx) - 1.0
        disc = b * b - 4.0 * a * c
        if np.any(disc < -1e-12):
            raise OutOfDomainError("x outside the ellipse extent")
        disc = np.maximum(disc, 0.0)
        sq = np.sqrt(disc)
        y1 = (-b + sq) / (2.0 * a)
        y2 = (-b - sq) / (2.0 * a)
        # branch whose circle preimage lies in the quarter with both
        # coordinates <= 0 (between the two tangency points)
        q1 = gx + np.multiply.outer(y1, n1)
        q2 = gx + np.multiply.outer(y2, n1)
        m1 = np.max(q1, axis=-1)
        m2 = np.max(q2, axis=-1)
        return np.where(m1 <= m2, y1, y2)

    def d(self, r, order=0):
        r = np.asarray(r, dtype=float)
        y = self._solve_y(r)
        if order == 0:
            return y
        q = self._q(r, y)
        Fx = 2.0 * q @ self._N[:, 0]
        Fy = 2.0 * q @ self._N[:, 1]
        yp = -Fx / Fy
        if order == 1:
            return yp
        if order == 2:
            return -(self._Fxx + 2.0 * self._Fxy * yp + self._Fyy * yp * yp) / Fy
        raise ValidationError(f"order {order} not supported")


def interpolate_tangent(l1: Line, l2: Line, A: float, B: float) -> EllipseArc:
    """Strictly convex C^1 interpolant between two lines over [A, B].

    Tangent to l1 at A and to l2 at B; the crossing of the two lines must lie
    inside [A, B].
    """
    if l1.slope >= l2.slope:
        raise SlopeOrderError(f"require l1.slope < l2.slope, got {l1.slope} >= {l2.slope}")
    x_cross = line_intersection_x(l1, l2)
    if not (A <= x_cross <= B):
        raise IntersectionOutsideError(f"crossing {x_cross} outside [{A}, {B}]")
    P = np.array([x_cross, float(l1(x_cross))])
    Q1 = np.array([A, float(l1(A))])
    Q2 = np.array([B, float(l2(B))])
    L = np.column_stack([Q2 - P, Q1 - P])
    arc = EllipseArc(np.column_stack([L, P]), (A, B), convexity_floor=0.0)

    # tangency sanity at construction time
    for x0, line in ((A, l1), (B, l2)):
        if abs(float(arc.d(x0, 0)) - float(line(x0))) > CONSTRUCTION_TOL:
            raise ValidationError("ellipse arc endpoint value mismatch")
        if abs(float(arc.d(x0, 1)) - line.slope) > CONSTRUCTION_TOL:
            raise ValidationError("ellipse arc endpoint slope mismatch")

    # convexity floor from the exact second derivative sampled on a 1e-3 grid
    n = max(int(round((B - A) / 1e-3)), 1000)
    xs = np.linspace(A, B, n + 1)
    floor = 0.9 * float(arc.d(xs, 2).min())
    if floor <= 0:
        raise ValidationError("interpolant not strictly convex")
    # monotone single-valued graph over the domain
    slopes = arc.d(xs, 1)
    if not (slopes.min() >= l1.slope - 1e-9 and slopes.max() <= l2.slope + 1e-9):
        raise ValidationError("arc slopes leave the tangent range")
    arc.convexity_floor = floor
    return arc


class SplicePiece(ScalarC2):
    """Smooth replacement for a C^1 corner at R, supported on [R - eps, R].

    Equals the left function b at R - eps and the right function c at R, with
    full smooth contact at both ends.  The second derivative is
    b'' + w * (c - b)'' for a smooth weight w ramping 0 -> 1 in a short window
    next to R, plus two small interior bumps solving the exact value/slope
    matching constraints at R.
    """

    name = "mollified_splice"

    def __init__(self, b: ScalarC2, c: ScalarC2, R: float, eps: float, trivial: bool = False):
        self.b = b
        self.c = c
        self.R = float(R)
        self.eps = float(eps)
        self.lo = self.R - self.eps
        self.trivial = trivial
        if trivial:
            return
        self._build()

    def _band(self):
        b2 = float(self.b.d(self.R, 2))
        c2 = float(self.c.d(self.R, 2))
        return min(b2, c2), max(b2, c2)

    def _build(self):
        lo, R, eps = self.lo, self.R, self.eps
        m_band, M_band = self._band()
        band_width = M_band - m_band

        mu = 0.03
        for _ in range(9):
            n = max(4001, int(80 / mu) | 1)
            u = np.linspace(0.0, 1.0, n)
            r = lo + eps * u
            d2 = self.c.d(r, 2) - self.b.d(r, 2)
            b2 = self.b.d(r, 2)
            w0 = smoothstep((u - (1.0 - mu)) / mu)
            p1 = smooth_bump(u, 0.12, 0.46)
            p2 = smooth_bump(u, 0.52, 0.86)

            sp_a0 = InterpolatedUnivariateSpline(r, b2 + w0 * d2, k=5)
            sp_b1 = InterpolatedUnivariateSpline(r, p1 * d2, k=5)
            sp_b2 = InterpolatedUnivariateSpline(r, p2 * d2, k=5)

            bl0 = float(self.b.d(lo, 0))
            bl1 = float(self.b.d(lo, 1))
            t1 = float(self.c.d(R, 1)) - bl1
            t2 = float(self.c.d(R, 0)) - bl0 - eps * bl1

            def i1(sp):
                return float(sp.antiderivative(1)(R))

            def i2(sp):
                return float(sp.antiderivative(2)(R))

            mat = np.array([[i1(sp_b1), i1(sp_b2)], [i2(sp_b1), i2(sp_b2)]])
            rhs = np.array([t1 - i1(sp_a0), t2 - i2(sp_a0)])
            try:
                alpha, beta = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                # d'' vanishes identically: any weight works, no correction
                alpha = beta = 0.0

            A = b2 + (w0 + alpha * p1 + beta * p2) * d2
            pad = 1e-10 * (1.0 + abs(m_band) + abs(M_band))
            lo_edge = 0.9 * m_band if m_band > 0 else (1.1 * m_band if m_band < 0 else 0.0)
            hi_edge = 1.1 * M_band if M_band > 0 else (0.9 * M_band if M_band < 0 else 0.0)
            ok = (A.min() >= lo_edge - pad) and (A.max() <= hi_edge + pad)
            if ok or band_width < 1e-12:
                break
            mu *= 0.5

        self._spline_a2 = InterpolatedUnivariateSpline(r, A, k=5)
        self._s1 = self._spline_a2.antiderivative(1)
        self._s2 = self._spline_a2.antiderivative(2)
        self._bl0, self._bl1 = bl0, bl1

    def d(self, r, order=0):
        if order not in (0, 1, 2):
            raise ValidationError(f"order {order} not supported")
        r = np.asarray(r, dtype=float)
        if self.trivial:
            return self.b.d(r, order)
        out = np.empty_like(r)
        left = r < self.lo
        right = r > self.R
        mid = ~(left | right)
        if left.any():
            out[left] = self.b.d(r[left], order)
        if right.any():
            out[right] = self.c.d(r[right], order)
        if mid.any():
            rm = r[mid]
            if order == 0:
                out[mid] = self._bl0 + self._bl1 * (rm - self.lo) + self._s2(rm)
            elif order == 1:
                out[mid] = self._bl1 + self._s1(rm)
            else:
                out[mid] = self._spline_a2(rm)
        return out


def agol_smooth(b_piece, c_piece, R: float, eps: float) -> SplicePiece:
    """Smooth two C^1-matching functions into one, changing b only on
    [R - eps, R] and keeping the sampled second derivative inside the
    0.9/1.1-padded band of the one-sided second derivatives at R."""
    if eps <= 0:
        raise ValidationError("eps must be positive")
    b = as_scalar_c2(b_piece)
    c = as_scalar_c2(c_piece)
    if abs(float(b.d(R, 0)) - float(c.d(R, 0))) > CONSTRUCTION_TOL:
        raise MismatchError(f"values at {R} differ")
    if abs(float(b.d(R, 1)) - float(c.d(R, 1))) > CONSTRUCTION_TOL:
        raise MismatchError(f"slopes at {R} differ")
    probe = np.linspace(R - eps, R, 41)
    same = (
        np.max(np.abs(b.d(probe, 0) - c.d(probe, 0))) < 1e-13
        and abs(float(b.d(R, 2)) - float(c.d(R, 2))) < 1e-13
    )
    return SplicePiece(b, c, R, eps, trivial=bool(same))


@dataclass
class Piece:
    lo: float
    hi: float
    kind: str
    fn: ScalarC2


@dataclass
class SmoothWarpFunction:
    """Piecewise-defined warp function on [knots[0], knots[-1]].

    Pieces tile the interval; value and slope agree at interior knots.
    """

    pieces: list[Piece]
    lambda_: float
    delta: float
    delta0: float
    convexity_floor: float = 0.0
    knots: list[float] = field(default_factory=list)

    def __post_init__(self):
        if not self.pieces:
            raise ValidationError("no pieces")
        ks = [self.pieces[0].lo] + [p.hi for p in self.pieces]
        for p, lo, hi in zip(self.pieces, ks[:-1], ks[1:]):
            if abs(p.lo - lo) > 1e-12 or abs(p.hi - hi) > 1e-12 or hi <= lo:
                raise ValidationError("pieces must tile the interval in order")
        self.knots = ks
        if not (self.delta < self.delta0 + 1e-15):
            raise ValidationError("delta must be < delta0")
        self._edges = np.asarray(ks[1:-1])

    @property
    def domain(self):
        return (self.knots[0], self.knots[-1])

    def _piece_index(self, r, side="right"):
        side_flag = "left" if side == "left" else "right"
        idx = np.searchsorted(self._edges, r, side=side_flag)
        return np.clip(idx, 0, len(self.pieces) - 1)

    def eval(self, r, order=0, side="right"):
        lo, hi = self.domain
        rr = np.asarray(r, dtype=float)
        if np.any(rr < lo - 1e-12) or np.any(rr > hi + 1e-12):
            raise OutOfDomainError(f"r outside [{lo}, {hi}]")
        return self.d(rr, order, side=side) if rr.ndim else float(self.d(rr, order, side=side))

    def d(self, r, order=0, side="right"):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        idx = self._piece_index(r, side=side)
        out = np.empty_like(r)
        for i, piece in enumerate(self.pieces):
            mask = idx == i
            if mask.any():
                out[mask] = piece.fn.d(r[mask], order)
        return out[0] if scalar else out

    def __call__(self, r):
        return self.d(r, 0)

    # -- serialization ----------------------------------------------------
    def to_json_dict(self):
        pieces = []
        for p in self.pieces:
            entry = {"kind": p.kind, "interval": [p.lo, p.hi]}
            if p.kind == "ellipse_arc":
                entry["affine_map"] = p.fn.affine_map.tolist()
                entry["convexity_floor"] = p.fn.convexity_floor
            elif p.kind == "exp_shift":
                entry["shift"] = p.fn.shift
            elif p.kind == "mollified_splice":
                entry["eps"] = p.fn.eps
            pieces.append(entry)
        return {
            "version": SERIALIZATION_VERSION,
            "pieces": pieces,
            "knots": list(self.knots),
            "lambda": self.lambda_,
            "delta": self.delta,
            "delta0": self.delta0,
            "kappa_floor": self.convexity_floor,
        }

    @classmethod
    def from_json_dict(cls, doc):
        if doc.get("version") != SERIALIZATION_VERSION:
            raise ValidationError(f"unsupported version {doc.get('version')}")
        raw = doc["pieces"]
        fns: list[ScalarC2 | None] = []
        for entry in raw:
            kind = entry["kind"]
            if kind == "sinh":
                fns.append(Sinh())
            elif kind == "cosh":
                fns.append(Cosh())
            elif kind == "exp_shift":
                fns.append(ExpShift(entry["shift"]))
            elif kind == "ellipse_arc":
                fns.append(
                    EllipseArc(
                        np.asarray(entry["affine_map"]),
                        tuple(entry["interval"]),
                        entry["convexity_floor"],
                    )
                )
            elif kind == "mollified_splice":
                fns.append(None)  # rebuilt from neighbors below
            else:
                raise ValidationError(f"unknown piece kind {kind}")
        for i, (entry, fn) in enumerate(zip(raw, fns)):
            if fn is None:
                if i == 0 or i == len(fns) - 1 or fns[i - 1] is None or fns[i + 1] is None:
                    raise ValidationError("splice piece without analytic neighbors")
                fns[i] = agol_smooth(
                    fns[i - 1], fns[i + 1], entry["interval"][1], entry["eps"]
                )
        pieces = [
            Piece(entry["interval"][0], entry["interval"][1], entry["kind"], fn)
            for entry, fn in zip(raw, fns)
        ]
        return cls(
            pieces=pieces,
            lambda_=doc["lambda"],
            delta=doc["delta"],
            delta0=doc["delta0"],
            convexity_floor=doc["kappa_floor"],
        )

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)

    @classmethod
    def load(cls, path):
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def build_fg(lambda_: float, delta0_hint: float | None = None):
    """Build the warp pair (f, g) on [0, 1 + lambda].

    Returns (f, g, delta, kappa_floor): f is sinh below delta and e^(r-1)
    above 1 + lambda/2; g is cosh below delta with the same tail; both are
    smooth and convex, g'' bounded below by kappa_floor > 0.
    """
    if lambda_ <= 0:
        raise ValidationError("lambda must be positive")
    hint = 0.2 if delta0_hint is None else float(delta0_hint)
    B = 1.0 + lambda_ / 2.0
    tail = ExpShift(1.0)
    l2 = Line.tangent_to(tail, B)
    sinh, cosh = Sinh(), Cosh()

    def ok(d0):
        if d0 <= 0 or d0 >= B:
            return False
        for base in (sinh, cosh):
            l1 = Line.tangent_to(base, d0)
            if l1.slope >= l2.slope:
                return False
            x = line_intersection_x(l1, l2)
            # crossing must sit strictly inside the interpolation interval
            if not (d0 < x < B):
                return False
        return True

    if ok(hint):
        delta0 = hint
    else:
        lo = hint / 2.0
        while lo > 1e-12 and not ok(lo):
            lo /= 2.0
        if lo <= 1e-12:
            raise ValidationError("no admissible delta0 below the hint")
        hi = hint
        while hi - lo > 1e-9:
            mid = 0.5 * (lo + hi)
            if ok(mid):
                lo = mid
            else:
                hi = mid
        delta0 = lo

    eps = min(1e-2, delta0 / 2.0, lambda_ / 8.0)
    delta = delta0 - eps

    def assemble(base: ScalarC2, base_kind: str) -> SmoothWarpFunction:
        l1 = Line.tangent_to(base, delta0)
        arc = interpolate_tangent(l1, l2, delta0, B)
        s1 = agol_smooth(base, arc, delta0, eps)
        s2 = agol_smooth(arc, tail, B, eps)
        pieces = [
            Piece(0.0, delta0 - eps, base_kind, base),
            Piece(delta0 - eps, delta0, "mollified_splice", s1),
            Piece(delta0, B - eps, "ellipse_arc", arc),
            Piece(B - eps, B, "mollified_splice", s2),
            Piece(B, 1.0 + lambda_, "exp_shift", tail),
        ]
        return SmoothWarpFunction(
            pieces=pieces, lambda_=lambda_, delta=delta, delta0=delta0
        )

    f = assemble(sinh, "sinh")
    g = assemble(cosh, "cosh")

    # convexity floor of g'' sampled on a 1e-4 grid, taking the smaller
    # one-sided value at knots; f gets the analogous floor over (0, 1+lambda]
    g_floor = _grid_second_derivative_min(g, include_zero=True)
    f_floor = _grid_second_derivative_min(f, include_zero=False)
    if g_floor <= 0 or f_floor <= 0:
        raise ValidationError("assembled warp pair failed the convexity scan")
    f.convexity_floor = f_floor
    g.convexity_floor = g_floor
    return f, g, delta, g_floor


def _grid_second_derivative_min(fn: SmoothWarpFunction, include_zero: bool, step=1e-4):
    lo, hi = fn.domain
    start = lo if include_zero else lo + step
    rs = np.arange(start, hi + step / 2, step)
    vals = np.empty_like(rs)
    knots = np.asarray(fn.knots)
    at_knot = np.isclose(rs[:, None], knots[None, :], atol=1e-12).any(axis=1)
    interior = ~at_knot
    if interior.any():
        vals[interior] = fn.d(rs[interior], 2)
    for i in np.nonzero(at_knot)[0]:
        r = rs[i]
        sides = []
        if r > lo + 1e-12:
            sides.append(fn.eval(r, 2, side="left"))
        if r < hi - 1e-12:
            sides.append(fn.eval(r, 2, side="right"))
        vals[i] = min(sides)
    return float(vals.min())


def export_table(f: SmoothWarpFunction, g: SmoothWarpFunction, path, step=1e-3):
    """CSV sampling of both warp functions and their first two derivatives."""
    lo, hi = f.domain
    rs = np.arange(lo, hi + step / 2, step)
    rs_in = np.clip(rs, lo + 1e-9, hi - 1e-9)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "f", "f1", "f2", "g", "g1", "g2"])
        cols = [
            rs,
            f.d(rs, 0),
            f.d(rs_in, 1),
            f.d(rs_in, 2),
            g.d(rs, 0),
            g.d(rs_in, 1),
            g.d(rs_in, 2),
        ]
        for row in zip(*cols):
            writer.writerow([repr(float(v)) for v in row])
