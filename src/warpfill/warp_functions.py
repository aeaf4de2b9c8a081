"""Smooth convex warping functions.

Assembles the pair (f, g) on [0, 1+lambda]: f runs from sinh near 0 to the
exponential tail e^(r-1), g from cosh to the same tail.  The middle is a
strictly convex ellipse-arc interpolant between tangent lines; the C^1 corners
are replaced by smooth splices whose second derivative stays inside the band
spanned by the one-sided second derivatives at the corner.
"""

from __future__ import annotations

import csv
import inspect
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_banded

from .errors import (
    IntersectionOutsideError,
    MismatchError,
    OutOfDomainError,
    SlopeOrderError,
    ValidationError,
)
from .numerics import (
    ANALYTIC_REGISTRY,
    Cosh,
    ExpShift,
    ScalarC2,
    Sinh,
    _is_number,
    as_scalar_c2,
    smooth_bump,
    smoothstep,
)

SERIALIZATION_VERSION = 1
CONSTRUCTION_TOL = 1e-9
KNOT_TOL = 1e-8
FLOOR_STEP = 1e-4  # grid step of the convexity-floor scan in build_fg
TABLE_STEP = 1e-3  # row spacing of export_table


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


def _check_order(n):
    if n not in (0, 1, 2):
        raise ValidationError(f"order {n} not supported")


class EllipseArc(ScalarC2):
    """Graph of the convex interpolant cut from an affine image of the unit
    circle centered at (1, 1).

    The affine map sends (0,1) and (1,0) to the two tangency points and the
    origin to the crossing of the tangent lines; the quarter with both
    preimage coordinates nonpositive is the graph branch used.

    Evaluation is elementwise, with the 2x2 entries held as Python floats,
    so a radius gets the same bits alone and inside any batch.
    """

    name = "ellipse_arc"

    def __init__(self, affine_map: np.ndarray, convexity_floor: float):
        self.affine_map = np.asarray(affine_map, dtype=float)
        if self.affine_map.shape != (2, 3):
            raise ValidationError("affine_map must be 2x3")
        self.convexity_floor = float(convexity_floor)
        (n00, n01), (n10, n11) = np.linalg.inv(self.affine_map[:, :2]).tolist()
        p0, p1 = self.affine_map[:, 2].tolist()
        # preimage relative to the circle center: q = N (p - P) - (1, 1),
        # written q = x * nx + y * ny + q0
        self._nx = (n00, n10)
        self._ny = (n01, n11)
        self._q0 = (-(p0 * n00 + p1 * n01) - 1.0, -(p0 * n10 + p1 * n11) - 1.0)
        # |q|^2 = 1 is a y^2 + b y + c = 0 with a = |ny|^2; the halved second
        # partials of F(x, y) = |q|^2 - 1 are constant
        self._a = n01 * n01 + n11 * n11
        self._hxx = n00 * n00 + n10 * n10
        self._hxy = n00 * n01 + n10 * n11

    def jet(self, r, n=2):
        _check_order(n)
        x = np.asarray(r, dtype=float)
        (ax, bx), (ay, by) = self._nx, self._ny
        a = self._a
        # q = (u + y * ay, v + y * by)
        u = x * ax + self._q0[0]
        v = x * bx + self._q0[1]
        minus_b = -2.0 * (u * ay + v * by)
        c = u * u + v * v - 1.0
        disc = minus_b * minus_b - 4.0 * a * c
        if np.any(disc < -1e-12):
            raise OutOfDomainError("x outside the ellipse extent")
        sq = np.sqrt(np.maximum(disc, 0.0))
        y1 = (minus_b + sq) / (2.0 * a)
        y2 = (minus_b - sq) / (2.0 * a)
        # branch whose circle preimage lies in the quarter with both
        # coordinates <= 0 (between the two tangency points)
        qu1, qv1 = u + y1 * ay, v + y1 * by
        qu2, qv2 = u + y2 * ay, v + y2 * by
        first = np.maximum(qu1, qv1) <= np.maximum(qu2, qv2)
        y = np.where(first, y1, y2)
        if n == 0:
            return [y]
        qu = np.where(first, qu1, qu2)
        qv = np.where(first, qv1, qv2)
        # implicit derivatives of F(x, y) = 0, with F_x and F_y halved
        fy = qu * ay + qv * by
        yp = -(qu * ax + qv * bx) / fy
        if n == 1:
            return [y, yp]
        return [y, yp, -(self._hxx + 2.0 * self._hxy * yp + a * yp * yp) / fy]


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
    arc = EllipseArc(np.column_stack([L, P]), convexity_floor=0.0)

    # tangency sanity at construction time
    for x0, line in ((A, l1), (B, l2)):
        value, slope = (float(v) for v in arc.jet(x0, 1))
        if abs(value - float(line(x0))) > CONSTRUCTION_TOL:
            raise ValidationError("ellipse arc endpoint value mismatch")
        if abs(slope - line.slope) > CONSTRUCTION_TOL:
            raise ValidationError("ellipse arc endpoint slope mismatch")

    # convexity floor from the exact second derivative sampled on a 1e-3 grid
    n = max(int(round((B - A) / 1e-3)), 1000)
    xs = np.linspace(A, B, n + 1)
    _, slopes, second = arc.jet(xs, 2)
    floor = 0.9 * float(second.min())
    if floor <= 0:
        raise ValidationError("interpolant not strictly convex")
    # monotone single-valued graph over the domain
    if not (slopes.min() >= l1.slope - 1e-9 and slopes.max() <= l2.slope + 1e-9):
        raise ValidationError("arc slopes leave the tangent range")
    arc.convexity_floor = floor
    return arc


@dataclass(frozen=True)
class PiecewisePoly:
    """A piecewise polynomial on ``breaks``: on [breaks[i], breaks[i + 1]]
    it is sum_j coeffs[i, j] * (x - breaks[i])^(deg - j), highest power
    first.  Trailing axes of ``coeffs`` beyond the second make it
    vector-valued.  Points outside the breaks use the end pieces."""

    breaks: np.ndarray
    coeffs: np.ndarray

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        # the interior breaks alone pick the piece, so the end pieces extend
        i = np.searchsorted(self.breaks[1:-1], x, side="right")
        return self._horner(i, x - self.breaks[i])

    def _horner(self, i, h):
        """The pieces i at offsets h from their left breaks."""
        c = self.coeffs[i]
        if np.ndim(i):
            c = c.swapaxes(0, 1)  # powers first
        h = np.reshape(h, np.shape(h) + (1,) * (self.coeffs.ndim - 2))
        y = c[0]
        for cj in c[1:]:
            y = y * h + cj
        return y

    def antiderivative(self, start=0.0):
        """The antiderivative equal to ``start`` at breaks[0]; each piece's
        constant term carries the integral over the pieces to its left."""
        m, terms = self.coeffs.shape[:2]
        powers = np.arange(terms, 0, -1).reshape((terms,) + (1,) * (self.coeffs.ndim - 2))
        c = np.zeros((m, terms + 1) + self.coeffs.shape[2:])
        c[:, :-1] = self.coeffs / powers
        whole = PiecewisePoly(self.breaks, c)._horner(np.arange(m), np.diff(self.breaks))
        c[:, -1] = start
        c[1:, -1] += np.cumsum(whole[:-1], axis=0)
        return PiecewisePoly(self.breaks, c)


def _bspline_basis(t, mu, x, k):
    """Cox-de Boor recursion at points x with t[mu] <= x <= t[mu + 1]: for
    q = 0..k, the values of the degree-q B-splines B_{mu-q}, ..., B_mu at x,
    as a (len(x), q + 1) array."""
    out = [np.ones((x.size, 1))]
    steps = np.arange(1, k + 1)
    left = x[:, None] - t[mu[:, None] + 1 - steps]     # left[:, j-1] = x - t[mu+1-j]
    right = t[mu[:, None] + steps] - x[:, None]        # right[:, j-1] = t[mu+j] - x
    for j in range(1, k + 1):
        prev, cur = out[-1], np.empty((x.size, j + 1))
        saved = 0.0
        for r in range(j):
            temp = prev[:, r] / (right[:, r] + left[:, j - r - 1])
            cur[:, r] = saved + right[:, r] * temp
            saved = left[:, j - r - 1] * temp
        cur[:, j] = saved
        out.append(cur)
    return out


def quintic_interpolant(x, y) -> PiecewisePoly:
    """The not-a-knot quintic interpolant of (x, y) as a piecewise
    polynomial.

    This is the interpolating spline of FITPACK at ``k = 5, s = 0``: knots
    x[3:-3] with six-fold end knots, B-spline coefficients from the banded
    collocation system (solved for every column of a 2-D ``y`` at once), then
    each piece's Taylor coefficients about its left break from the
    derivative B-spline coefficients.
    """
    k = 5
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    if n < k + 1 or y.shape[0] != n or np.any(np.diff(x) <= 0):
        raise ValidationError("need at least 6 increasing abscissae, one value each")
    t = np.concatenate((np.full(k + 1, x[0]), x[3:-3], np.full(k + 1, x[-1])))

    # collocation: row i holds B_{mu-5..mu}(x_i), mu the knot interval of x_i
    mu = np.clip(np.searchsorted(t, x, side="right") - 1, k, n - 1)
    cols = mu[:, None] - k + np.arange(k + 1)
    offset = cols - np.arange(n)[:, None]
    lower, upper = int(-offset.min()), int(offset.max())
    ab = np.zeros((lower + upper + 1, n))
    ab[upper - offset, cols] = _bspline_basis(t, mu, x, k)[k]
    coef = solve_banded((lower, upper), ab, y)

    # derivative d at each left break: the degree k-d spline with coefficients
    # (k-d+1) * (c_j - c_{j-1}) / (t_{j+k-d+1} - t_j), valid for j >= d
    breaks = t[k:n + 1]
    mu = np.arange(k, n)
    basis = _bspline_basis(t, mu, breaks[:-1], k)
    taylor = np.empty((n - k, k + 1) + y.shape[1:])
    shape = (-1,) + (1,) * (y.ndim - 1)
    for d in range(k + 1):
        q = k - d
        if d:
            j = np.arange(d, n)
            step = np.zeros_like(coef)
            step[d:] = (q + 1) * (coef[d:] - coef[d - 1:-1]) / (t[j + q + 1] - t[j]).reshape(shape)
            coef = step
        val = np.einsum("ir,ir...->i...", basis[q], coef[mu[:, None] - q + np.arange(q + 1)])
        taylor[:, q] = val / math.factorial(d)
    return PiecewisePoly(breaks, taylor)


class SplicePiece(ScalarC2):
    """Smooth replacement for a C^1 corner at R, supported on [R - eps, R].

    Equals the left function b at R - eps and the right function c at R, with
    full smooth contact at both ends.  The second derivative is
    b'' + w * (c - b)'' for a smooth weight w ramping 0 -> 1 in a short window
    next to R, plus two small interior bumps solving the exact value/slope
    matching constraints at R.  Inside the window the second derivative is a
    piecewise quintic and the slope and value are its exact antiderivatives,
    all three on the same breaks and evaluated together.
    """

    name = "mollified_splice"

    def __init__(self, b: ScalarC2, c: ScalarC2, R: float, eps: float):
        self.b = b
        self.c = c
        self.R = float(R)
        self.eps = float(eps)
        self.lo = self.R - self.eps
        self._build()

    def _band(self):
        b2 = float(self.b.d(self.R, 2))
        c2 = float(self.c.d(self.R, 2))
        return min(b2, c2), max(b2, c2)

    def _build(self):
        lo, R, eps = self.lo, self.R, self.eps
        m_band, M_band = self._band()
        band_width = M_band - m_band
        bl0, bl1 = (float(v) for v in self.b.jet(lo, 1))
        c_R = self.c.jet(R, 1)
        t1 = float(c_R[1]) - bl1
        t2 = float(c_R[0]) - bl0 - eps * bl1

        mu = 0.03
        for _ in range(9):
            n = max(4001, int(80 / mu) | 1)
            u = np.linspace(0.0, 1.0, n)
            r = lo + eps * u
            b2 = self.b.d(r, 2)
            d2 = self.c.d(r, 2) - b2
            w0 = smoothstep((u - (1.0 - mu)) / mu)
            p1 = smooth_bump(u, 0.12, 0.46)
            p2 = smooth_bump(u, 0.52, 0.86)

            # one interpolant per column: a0 = b'' + w0 d'', and the two bumps
            spl = quintic_interpolant(r, np.column_stack((b2 + w0 * d2, p1 * d2, p2 * d2)))
            s1 = spl.antiderivative()
            i1 = s1(R)
            i2 = s1.antiderivative()(R)
            mat = np.array([[i1[1], i1[2]], [i2[1], i2[2]]])
            rhs = np.array([t1 - i1[0], t2 - i2[0]])
            try:
                alpha, beta = np.linalg.solve(mat, rhs)
            except np.linalg.LinAlgError:
                # d'' vanishes identically (b = c): any weight works, no correction
                alpha = beta = 0.0

            A = b2 + (w0 + alpha * p1 + beta * p2) * d2
            pad = 1e-10 * (1.0 + abs(m_band) + abs(M_band))
            lo_edge = 0.9 * m_band if m_band > 0 else (1.1 * m_band if m_band < 0 else 0.0)
            hi_edge = 1.1 * M_band if M_band > 0 else (0.9 * M_band if M_band < 0 else 0.0)
            ok = (A.min() >= lo_edge - pad) and (A.max() <= hi_edge + pad)
            if ok or band_width < 1e-12:
                break
            mu *= 0.5
        else:
            raise ValidationError(f"splice at {R}: second derivative leaves its band at every ramp width")

        # interpolation is linear in the data: A's quintic is a0 + alpha b1 + beta b2
        a2 = PiecewisePoly(spl.breaks, spl.coeffs @ np.array([1.0, alpha, beta]))
        a1 = a2.antiderivative(bl1)
        a0 = a1.antiderivative(bl0)
        # the value, slope and second derivative as one vector-valued
        # polynomial; the leading zeros leave each Horner result unchanged
        stacked = np.zeros(a0.coeffs.shape + (3,))
        for order, poly in enumerate((a0, a1, a2)):
            stacked[:, order:, order] = poly.coeffs
        self._jet = PiecewisePoly(spl.breaks, stacked)

    def jet(self, r, n=2):
        _check_order(n)
        r = np.asarray(r, dtype=float)
        out = [np.empty_like(r) for _ in range(n + 1)]
        left = r < self.lo
        right = r > self.R
        mid = ~(left | right)
        for mask, fn in ((left, self.b), (right, self.c)):
            if mask.any():
                for o, v in zip(out, fn.jet(r[mask], n)):
                    o[mask] = v
        if mid.any():
            vals = self._jet(r[mid])
            for order, o in enumerate(out):
                o[mid] = vals[:, order]
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
    return SplicePiece(b, c, R, eps)


# ---------------------------------------------------------------------------
# the warp codec
# ---------------------------------------------------------------------------

# Every warp a document can name, by its ``name``.  A warp keeps each
# constructor argument in the attribute of the same name, so its parameters
# are its constructor signature.  Splices are not here: a document gives
# only their "eps", and they are rebuilt from their neighbours.
WARPS = {cls.name: cls for cls in (*ANALYTIC_REGISTRY.values(), EllipseArc)}


def _is_numeric(x) -> bool:
    """A real number, or a list of them nested to any depth; bools are not
    numbers."""
    return _is_number(x) or (isinstance(x, list) and all(map(_is_numeric, x)))


def warp_params(fn: ScalarC2) -> dict:
    """The constructor arguments of the registered warp ``fn``, as JSON values."""
    if WARPS.get(getattr(fn, "name", None)) is not type(fn):
        raise ValidationError(f"cannot serialize warp handle {fn!r}")
    params = {}
    for key in inspect.signature(type(fn)).parameters:
        value = getattr(fn, key)
        params[key] = value.tolist() if isinstance(value, np.ndarray) else value
    return params


def make_warp(name, params) -> ScalarC2:
    """The registered warp ``name`` built from ``params``.  The name must be
    registered, every value must be numeric (``_is_numeric``) and the
    constructor must accept them; anything else is a ValidationError."""
    cls = WARPS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValidationError(f"unknown warp {name!r}; known: {sorted(WARPS)}")
    if not all(map(_is_numeric, params.values())):
        raise ValidationError(f"warp {name!r}: every parameter must be a number or a list of numbers")
    try:
        return cls(**params)
    except TypeError as exc:  # a key outside the signature, or a list for a number
        raise ValidationError(f"warp {name!r} takes {list(inspect.signature(cls).parameters)}: {exc}") from None


def warp_to_json_dict(fn: ScalarC2) -> dict:
    """A space document's warp: a ``SmoothWarpFunction``'s pieces, or
    {"analytic": name, "params": {...}} with "params" left out when empty."""
    if isinstance(fn, SmoothWarpFunction):
        return fn.to_json_dict()
    params = warp_params(fn)
    return {"analytic": fn.name, **({"params": params} if params else {})}


def warp_from_json_dict(doc: dict) -> ScalarC2:
    """The inverse of ``warp_to_json_dict``."""
    if "analytic" not in doc:
        return SmoothWarpFunction.from_json_dict(doc)
    params = doc.get("params", {})
    if not (doc.keys() <= {"analytic", "params"} and isinstance(params, dict)):
        raise ValidationError('an analytic warp is {"analytic": name, "params": {...}}')
    return make_warp(doc["analytic"], params)


@dataclass
class Piece:
    lo: float
    hi: float
    fn: ScalarC2


@dataclass
class SmoothWarpFunction(ScalarC2):
    """Piecewise-defined warp function on [knots[0], knots[-1]].

    Pieces tile the interval; value and slope agree at interior knots.
    """

    pieces: list[Piece]
    lambda_: float
    delta: float
    delta0: float
    convexity_floor: float = 0.0
    knots: list[float] = field(init=False)

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

    def eval(self, r, order=0, side="right"):
        lo, hi = self.domain
        rr = np.asarray(r, dtype=float)
        if np.any(rr < lo - 1e-12) or np.any(rr > hi + 1e-12):
            raise OutOfDomainError(f"r outside [{lo}, {hi}]")
        return self.d(rr, order, side=side) if rr.ndim else float(self.d(rr, order, side=side))

    def d(self, r, order=0, side="right"):
        return self.jet(r, order, side=side)[order]

    def jet(self, r, n=2, side="right"):
        """[d(r, 0), ..., d(r, n)] from one dispatch of the radii over the
        pieces; at a knot, ``side`` picks the piece on that side."""
        _check_order(n)
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        idx = np.searchsorted(self._edges, r, side="left" if side == "left" else "right")
        if r.size and (idx == idx.flat[0]).all():
            out = self.pieces[idx.flat[0]].fn.jet(r, n)
        else:
            out = [np.empty_like(r) for _ in range(n + 1)]
            for i, piece in enumerate(self.pieces):
                mask = idx == i
                if mask.any():
                    for o, v in zip(out, piece.fn.jet(r[mask], n)):
                        o[mask] = v
        return [o[0] for o in out] if scalar else out

    # -- serialization ----------------------------------------------------
    def to_json_dict(self):
        pieces = []
        for p in self.pieces:
            params = {"eps": p.fn.eps} if isinstance(p.fn, SplicePiece) else warp_params(p.fn)
            pieces.append({"kind": p.fn.name, "interval": [p.lo, p.hi], **params})
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
        raw = doc.get("pieces")
        if not (isinstance(raw, list) and all(isinstance(entry, dict) for entry in raw)):
            raise ValidationError('"pieces" must be a list of objects')
        fns: list[ScalarC2 | None] = []
        for entry in raw:
            interval = entry.get("interval")
            if not (isinstance(interval, list) and len(interval) == 2 and all(map(_is_number, interval))):
                raise ValidationError(f'piece {entry.get("kind")!r} needs an "interval" of two numbers')
            params = {key: value for key, value in entry.items() if key not in ("kind", "interval")}
            if entry.get("kind") != SplicePiece.name:
                fns.append(make_warp(entry.get("kind"), params))
            elif params.keys() == {"eps"} and _is_number(params["eps"]):
                fns.append(None)  # rebuilt from neighbors below
            else:
                raise ValidationError('a splice piece takes exactly one number, "eps"')
        scalars = ("lambda", "delta", "delta0", "kappa_floor")
        if not (doc.keys() <= {"version", "pieces", "knots", *scalars}
                and all(_is_number(doc.get(key)) for key in scalars)):
            raise ValidationError(f'a warp function has "version", "pieces", "knots" and the numbers {scalars}')
        for i, (entry, fn) in enumerate(zip(raw, fns)):
            if fn is None:
                if i == 0 or i == len(fns) - 1 or fns[i - 1] is None or fns[i + 1] is None:
                    raise ValidationError("splice piece without analytic neighbors")
                fns[i] = agol_smooth(fns[i - 1], fns[i + 1], entry["interval"][1], entry["eps"])
        return cls(
            pieces=[Piece(*entry["interval"], fn) for entry, fn in zip(raw, fns)],
            lambda_=doc["lambda"],
            delta=doc["delta"],
            delta0=doc["delta0"],
            convexity_floor=doc["kappa_floor"],
        )


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

    def arcs(d0):
        """The sinh and cosh ellipse arcs over [d0, B], or None where either
        does not build."""
        if not 0.0 < d0 < B:
            return None
        try:
            return [interpolate_tangent(Line.tangent_to(base, d0), l2, d0, B) for base in (sinh, cosh)]
        except (SlopeOrderError, IntersectionOutsideError, OutOfDomainError, ValidationError,
                np.linalg.LinAlgError):
            return None

    # delta0 is the hint, or its first halving at which both arcs build
    delta0 = hint
    while (built := arcs(delta0)) is None:
        delta0 /= 2.0
        if delta0 <= 1e-12:
            raise ValidationError("no admissible delta0 below the hint")
    eps = min(1e-2, delta0 / 2.0, lambda_ / 8.0)
    delta = delta0 - eps

    def assemble(base: ScalarC2, arc: EllipseArc) -> SmoothWarpFunction:
        s1 = agol_smooth(base, arc, delta0, eps)
        s2 = agol_smooth(arc, tail, B, eps)
        pieces = [
            Piece(0.0, delta0 - eps, base),
            Piece(delta0 - eps, delta0, s1),
            Piece(delta0, B - eps, arc),
            Piece(B - eps, B, s2),
            Piece(B, 1.0 + lambda_, tail),
        ]
        return SmoothWarpFunction(
            pieces=pieces, lambda_=lambda_, delta=delta, delta0=delta0
        )

    f = assemble(sinh, built[0])
    g = assemble(cosh, built[1])

    # convexity floor of g'' sampled on a FLOOR_STEP grid, taking the smaller
    # one-sided value at knots; f gets the analogous floor over (0, 1+lambda]
    g_floor = _grid_second_derivative_min(g, include_zero=True)
    f_floor = _grid_second_derivative_min(f, include_zero=False)
    if g_floor <= 0 or f_floor <= 0:
        raise ValidationError("assembled warp pair failed the convexity scan")
    f.convexity_floor = f_floor
    g.convexity_floor = g_floor
    return f, g, delta, g_floor


def _grid_second_derivative_min(fn: SmoothWarpFunction, include_zero: bool):
    lo, hi = fn.domain
    rs = np.arange(lo if include_zero else lo + FLOOR_STEP, hi + FLOOR_STEP / 2, FLOOR_STEP)
    return float(np.minimum(fn.jet(rs, 2, side="left")[2], fn.jet(rs, 2, side="right")[2]).min())


def export_table(f: SmoothWarpFunction, g: SmoothWarpFunction, path):
    """CSV sampling of both warp functions and their first two derivatives,
    every ``TABLE_STEP``."""
    lo, hi = f.domain
    rs = np.arange(lo, hi + TABLE_STEP / 2, TABLE_STEP)
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
