"""Doubly warped products [r_min, r_max] x_{g} E^k x_{f} T.

Path lengths are exact: the speed of a polyline is integrated along its
chart-straight segments by adaptive Gauss-Kronrod quadrature, batched so that
all segments of a path are measured in one pass, with only the panels whose
error test fails bisected, round by round.  Geodesics are found variationally,
by minimizing the discrete energy of a polyline over its interior vertices
(damped Newton on the exact block-tridiagonal Hessian, in banded form, with
one LAPACK ``dpbsv`` call per Levenberg rung tried).  The torus factor gives
one candidate, in the deck class of the closest lattice vector.  A singular
space adds the route through the collapsed core {f = 0}: theta jumps for free
there, so the route is an ordinary path in the base doubled across r_min,
unfolded back into the space.  That route is solved only when it can win:
no path through the core is shorter than (r_p - r_min) + (r_q - r_min).
"""

from __future__ import annotations

import numbers
import warnings
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dpbsv

from .errors import (
    NonpositiveWarpError,
    OutOfDomainError,
    OutOfRangeError,
    SingularPointError,
    SolverFailureError,
    ValidationError,
)
from .lattice import closest_vector
from .model_spaces import LatticeTorus, torus_distance
from .numerics import ScalarC2, _is_number, adaptive_gauss, as_scalar_c2
from .warp_functions import warp_from_json_dict, warp_to_json_dict

__all__ = [
    "WarpedSpace",
    "WPoint",
    "PolylinePath",
    "GeodesicResult",
    "path_length",
    "solve_geodesic",
    "distance_to_core",
    "direction_at_singular",
    "alexandrov_angle",
    "log_map",
    "path_point_at_arclength",
    "space_from_json_dict",
    "space_to_json_dict",
]

SINGULAR_TOL = 1e-12
GRAD_TOL = 1e-8
REFINE_TOL = 1e-7
MAX_SEGMENTS = 1024
ANGLE_SCALES = (0.2, 0.1, 0.05, 0.025)  # alexandrov_angle's comparison scales


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WarpedSpace:
    interval: tuple
    euclid_dim: int
    warp_g: ScalarC2
    torus: LatticeTorus | None = None
    warp_f: ScalarC2 | None = None
    singular_at_zero: bool = field(init=False, default=False)

    def __post_init__(self):
        a, b = float(self.interval[0]), float(self.interval[1])
        if not a < b:
            raise ValidationError(f"empty interval {self.interval}")
        object.__setattr__(self, "interval", (a, b))
        if self.euclid_dim < 0:
            raise ValidationError("euclid_dim must be >= 0")
        object.__setattr__(self, "warp_g", as_scalar_c2(self.warp_g))
        if (self.torus is None) != (self.warp_f is None):
            raise ValidationError("torus and warp_f must be supplied together")
        if self.warp_f is not None:
            object.__setattr__(self, "warp_f", as_scalar_c2(self.warp_f))
        rr = np.linspace(a, b, 257)
        if np.min(self.warp_g.d(rr)) <= 0:
            raise NonpositiveWarpError("warp_g must be positive on the interval")
        if self.warp_f is not None:
            f0 = float(self.warp_f.d(a))
            singular = abs(f0) <= SINGULAR_TOL
            if np.min(self.warp_f.d(rr[1:])) <= 0:
                raise NonpositiveWarpError("warp_f must be positive on the open interval")
            if not singular and f0 <= 0:
                raise NonpositiveWarpError("warp_f(r_min) must be 0 or positive")
            object.__setattr__(self, "singular_at_zero", singular)
        if self.singular_at_zero and a < 0:
            raise ValidationError("singular spaces require r_min >= 0")

    @property
    def r_min(self):
        return self.interval[0]

    @property
    def r_max(self):
        return self.interval[1]

    @property
    def torus_dim(self):
        return 0 if self.torus is None else self.torus.dim

    def f(self, r, order=0):
        if self.warp_f is None:
            raise ValidationError("space has no torus factor")
        return self.warp_f.d(r, order)

    def g(self, r, order=0):
        return self.warp_g.d(r, order)

    def check_point(self, p: "WPoint"):
        self.check_points(_cover_coords(p)[None], len(p.theta))

    def check_points(self, coords, tdim):
        """Raise OutOfDomainError for the first row [r, e, theta] of ``coords``
        with r outside the interval (1e-12 slack) or e, theta of the wrong
        length, theta being the last ``tdim`` columns; one array pass over
        all rows."""
        r = coords[:, 0]
        k = coords.shape[1] - 1 - tdim
        bad_r = ~((r >= self.r_min - 1e-12) & (r <= self.r_max + 1e-12))
        layout_ok = k == self.euclid_dim and tdim == self.torus_dim
        if layout_ok and not bad_r.any():
            return
        # all rows share one layout: if it is wrong, row 0 is the first bad one
        i = int(np.argmax(bad_r)) if layout_ok else 0
        if bad_r[i]:
            raise OutOfDomainError(f"r={r[i]} outside {self.interval}")
        if k != self.euclid_dim:
            raise OutOfDomainError(f"e has length {k}, expected {self.euclid_dim}")
        raise OutOfDomainError(f"theta has length {tdim}, expected {self.torus_dim}")

    def points_equal(self, p: "WPoint", q: "WPoint", tol=1e-12) -> bool:
        if abs(p.r - q.r) > tol or np.max(np.abs(p.e - q.e), initial=0.0) > tol:
            return False
        if self.torus is None:
            return True
        # theta is ignored where the fiber collapses
        if self.singular_at_zero and abs(p.r - self.r_min) <= tol:
            return True
        return torus_distance(self.torus, p.theta, q.theta) <= tol


def _as_vec(x, n):
    v = np.zeros(n) if x is None else np.atleast_1d(np.asarray(x, dtype=float))
    if v.shape != (n,):
        raise ValidationError(f"expected vector of length {n}, got shape {v.shape}")
    return v


@dataclass(frozen=True)
class WPoint:
    r: float
    e: np.ndarray = field(default_factory=lambda: np.zeros(0))
    theta: np.ndarray = field(default_factory=lambda: np.zeros(0))

    def __post_init__(self):
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "e", np.atleast_1d(np.asarray(self.e, dtype=float)))
        object.__setattr__(self, "theta", np.atleast_1d(np.asarray(self.theta, dtype=float)))

    @staticmethod
    def make(r, e=None, theta=None, k=0, tdim=0):
        return WPoint(r, _as_vec(e, k), _as_vec(theta, tdim))

    def to_json_dict(self):
        return {"r": self.r, "e": self.e.tolist(), "theta": self.theta.tolist()}


class PolylinePath:
    """A polyline held as arrays: ``coords``, one row [r, e, theta] per
    vertex, and ``shifts``, one row of integer deck coefficients per segment
    (theta of vertex i + 1 plus ``shifts[i] @ basis`` continues segment i in
    the cover).  Both are read-only.  ``vertices`` (``WPoint``s) and
    ``deck_shifts`` are built from them on first read.

    The constructor takes vertices and deck shifts.  Vertices whose e or
    theta lengths differ are kept as given, with ``coords`` None, so that
    measuring the path names the first vertex outside the space.  The
    segment lengths of the last space the path was measured in are kept.
    """

    def __init__(self, vertices, deck_shifts):
        vs = tuple(vertices)
        if len(vs) < 2:
            raise ValidationError("path needs at least two vertices")
        given = tuple(np.asarray(s, dtype=int) for s in deck_shifts)
        if len(given) != len(vs) - 1:
            raise ValidationError("need one deck shift per segment")
        if len({s.shape for s in given}) != 1 or given[0].ndim != 1:
            raise ValidationError("deck shifts must be integer vectors of one length")
        shifts = np.stack(given)
        coords = None
        if len({(len(v.e), len(v.theta)) for v in vs}) == 1:
            r = np.fromiter((v.r for v in vs), dtype=float, count=len(vs))
            coords = np.column_stack((r, np.stack([v.e for v in vs]), np.stack([v.theta for v in vs])))
            coords.flags.writeable = False
        shifts.flags.writeable = False
        self.coords, self.shifts = coords, shifts
        self._vertices, self._deck_shifts = vs, given
        self._measured = None

    @classmethod
    def _from_arrays(cls, coords, shifts):
        """A path over ``coords`` and ``shifts`` as they are, made read-only."""
        path = cls.__new__(cls)
        coords.flags.writeable = False
        shifts.flags.writeable = False
        path.coords, path.shifts = coords, shifts
        path._vertices = path._deck_shifts = path._measured = None
        return path

    @property
    def vertices(self):
        if self._vertices is None:
            k = self.coords.shape[1] - 1 - self.shifts.shape[1]
            self._vertices = tuple(WPoint(row[0], row[1:1 + k], row[1 + k:]) for row in self.coords)
        return self._vertices

    @property
    def deck_shifts(self):
        if self._deck_shifts is None:
            self._deck_shifts = tuple(self.shifts)
        return self._deck_shifts

    def to_json_dict(self):
        if self.coords is None:
            vertices = [v.to_json_dict() for v in self.vertices]
        else:
            k = self.coords.shape[1] - 1 - self.shifts.shape[1]
            vertices = [{"r": row[0], "e": row[1:1 + k], "theta": row[1 + k:]} for row in self.coords.tolist()]
        return {"vertices": vertices, "deck_shifts": self.shifts.tolist()}


@dataclass(frozen=True)
class GeodesicResult:
    distance: float
    path: PolylinePath
    converged: bool
    iterations: int
    residual: float

    def to_json_dict(self):
        return {
            "distance": self.distance,
            "converged": self.converged,
            "iterations": self.iterations,
            "residual": self.residual,
            "path": self.path.to_json_dict(),
        }


# ---------------------------------------------------------------------------
# path length
# ---------------------------------------------------------------------------

def _segment_lengths(space: WarpedSpace, path: PolylinePath) -> np.ndarray:
    """Length of every chart-straight segment of ``path``, in one batched
    quadrature pass.

    The polyline is parametrized by u in [0, n], segment i on [i, i + 1], and
    ``adaptive_gauss`` integrates its speed sqrt(dr^2 + g(r)^2 |de|^2 +
    f(r)^2 |dtheta|^2) over the panels [i, i + 1], each cut where r crosses a
    knot of a piecewise warp, so that the integrand is smooth on every panel.
    Segments without e or theta motion take |dr|; constant-r ones have a
    constant speed.
    """
    k = space.euclid_dim
    r = path.coords[:, 0]
    dr = np.diff(r)
    de = np.diff(path.coords[:, 1:1 + k], axis=0)
    de2 = np.einsum("ij,ij->i", de, de)
    if space.torus is not None:
        theta = path.coords[:, 1 + k:]
        # this rounding order, not np.diff(theta) + shifts, is the one the
        # solver's digests rest on
        shifts = path.shifts.astype(float) @ space.torus.basis
        dth = theta[1:] + shifts - theta[:-1]
        dth2 = np.einsum("ij,ij->i", dth, dth)
    else:
        dth2 = np.zeros_like(dr)

    def speed(r_at, seg):
        val = dr[seg] * dr[seg] + de2[seg] * space.g(r_at) ** 2
        if space.torus is not None:
            val = val + dth2[seg] * space.f(r_at) ** 2
        return np.sqrt(val)

    lengths = np.abs(dr)
    moving = (de2 != 0.0) | (dth2 != 0.0)
    flat = np.flatnonzero(moving & (dr == 0.0))
    if flat.size:
        lengths[flat] = speed(r[flat], flat)
    curved = np.flatnonzero(moving & (dr != 0.0))
    if curved.size:
        last = curved.size - 1

        def integrand(u):
            i = np.minimum(np.floor(u), last).astype(int)
            seg = curved[i]
            return speed(r[seg] + (u - i) * dr[seg], seg)

        # piecewise warps are only C^1 at their knots; across one, a panel can
        # pass the error test while off by ~1e-11 relative, so segments are
        # cut at every knot they cross.  Only a knot strictly inside a segment
        # is divided by its dr, which can be subnormal; a quotient that rounds
        # to 0 or 1 is still no cut
        ahead = (_warp_knots(space) - r[curved, None]) * np.sign(dr[curved, None])
        step = np.abs(dr[curved, None])
        cuts = np.divide(ahead, step, out=np.full(ahead.shape, np.nan), where=(ahead > 0.0) & (ahead < step))
        cuts = np.where((cuts > 0.0) & (cuts < 1.0), cuts, np.nan)
        column = np.ones((curved.size, 1))
        edges = np.sort(np.hstack((0.0 * column, cuts, column)), axis=1)  # unused cuts (nan) go last
        lo, hi = edges[:, :-1], edges[:, 1:]
        keep = ~np.isnan(hi)
        owner = np.broadcast_to(np.arange(curved.size)[:, None], lo.shape)[keep]
        pieces = adaptive_gauss(integrand, owner + lo[keep], owner + hi[keep])
        lengths[curved] = np.bincount(owner, weights=pieces, minlength=curved.size)
    return lengths


def _warp_knots(space: WarpedSpace) -> np.ndarray:
    """Interior knots of the space's piecewise warps (none for analytic ones)."""
    knots = [getattr(w, "knots", ())[1:-1] for w in (space.warp_g, space.warp_f) if w is not None]
    return np.unique(np.concatenate([np.asarray(k, dtype=float) for k in knots]))


def _measure(space: WarpedSpace, path: PolylinePath):
    """(segment lengths, their cumulative sums) of ``path`` in ``space``,
    after checking its vertices.  A path keeps the figures of the last space
    it was measured in, so measuring it again there costs nothing."""
    kept = path._measured
    if kept is not None and kept[0] is space:
        return kept[1], kept[2]
    if path.coords is None:
        for v in path.vertices:  # vertices of differing lengths: one is outside
            space.check_point(v)
    space.check_points(path.coords, path.shifts.shape[1])
    lengths = _segment_lengths(space, path)
    ends = np.cumsum(lengths)
    path._measured = (space, lengths, ends)
    return lengths, ends


def path_length(space: WarpedSpace, path: PolylinePath) -> float:
    return float(_measure(space, path)[0].sum())


def path_point_at_arclength(space: WarpedSpace, path: PolylinePath, s: float) -> WPoint:
    """Point at arclength s from the start, by linear chart interpolation
    within the segment that contains s."""
    lengths, ends = _measure(space, path)
    total = float(ends[-1])
    if not (-1e-12 <= s <= total + 1e-9):
        raise OutOfRangeError(f"arclength {s} outside [0, {total}]")
    s = min(max(s, 0.0), total)
    i = int(np.searchsorted(ends, s))
    start = float(ends[i - 1]) if i else 0.0
    t = 0.0 if lengths[i] == 0 else (s - start) / float(lengths[i])
    a, b = path.coords[i], path.coords[i + 1].copy()
    k = space.euclid_dim
    if space.torus is not None:
        b[1 + k:] += space.torus.shift_vector(path.shifts[i])
    x = a + t * (b - a)
    return WPoint(x[0], x[1:1 + k], x[1 + k:])


# ---------------------------------------------------------------------------
# discrete energy and its gradient
# ---------------------------------------------------------------------------

# The one evaluation of a chain: the segment differences dr, de, dth and
# squared norms de2, dth2, the jets [w, w', w''] of g and f at the midpoint
# radii (zeros without a torus), and the segment energies cost = dr^2 +
# g^2 de2 + f^2 dth2.
_Segments = namedtuple("_Segments", "dr de dth de2 dth2 g f cost")


class _Discretization:
    """Flattened view of interior vertices for the optimizer.

    Layout per vertex, the endpoints p and q included: [r, e (k), theta
    (tdim)] in cover coordinates (theta unconstrained; the deck shift is
    already folded into q).
    """

    def __init__(self, space, p, q, n):
        self.space = space
        self.k = space.euclid_dim
        self.tdim = space.torus_dim
        self.stride = 1 + self.k + self.tdim
        self.n = n
        self.p = p
        self.q = q

    def initial(self):
        """The straight chain from p to q, flattened."""
        ts = np.arange(1, self.n)[:, None] / self.n
        return (self.p + ts * (self.q - self.p)).ravel()

    def bounds(self):
        """Box bounds of the flattened interior coordinates: r in the interval."""
        n, st = self.n, self.stride
        lo = np.full((n - 1, st), -np.inf)
        hi = np.full((n - 1, st), np.inf)
        lo[:, 0] = self.space.r_min
        hi[:, 0] = self.space.r_max
        return lo.ravel(), hi.ravel()

    def full_chain(self, xflat):
        n, st = self.n, self.stride
        chain = np.empty((n + 1, st))
        chain[0], chain[-1] = self.p, self.q
        chain[1:-1] = xflat.reshape(n - 1, st)
        return chain

    def segments(self, xflat):
        """The chain's ``_Segments``; the energy, gradient, Hessian and chain
        length are all read from it."""
        k = self.k
        chain = self.full_chain(xflat)
        r = chain[:, 0]
        dr = np.diff(r)
        de = np.diff(chain[:, 1:1 + k], axis=0)
        dth = np.diff(chain[:, 1 + k:], axis=0)
        de2 = np.einsum("ij,ij->i", de, de)
        dth2 = np.einsum("ij,ij->i", dth, dth)
        m = 0.5 * (r[:-1] + r[1:])
        g = self.space.warp_g.jet(m, 2)
        f = self.space.warp_f.jet(m, 2) if self.tdim else [np.zeros_like(m)] * 3
        cost = dr * dr + g[0] * g[0] * de2 + f[0] * f[0] * dth2
        return _Segments(dr, de, dth, de2, dth2, g, f, cost)

    def energy_grad(self, seg):
        k = self.k
        g, g1, _ = seg.g
        f, f1, _ = seg.f
        energy = float(seg.cost.sum())

        grad = np.zeros((self.n + 1, self.stride))
        # r-derivative: endpoint difference terms
        grad[:-1, 0] += -2.0 * seg.dr
        grad[1:, 0] += 2.0 * seg.dr
        # r-derivative: midpoint warp terms (d m / d r_i = 1/2 on both ends)
        mid = g * g1 * seg.de2 + f * f1 * seg.dth2
        grad[:-1, 0] += mid
        grad[1:, 0] += mid
        # e and theta derivatives
        ge = (g * g)[:, None] * seg.de
        grad[:-1, 1:1 + k] += -2.0 * ge
        grad[1:, 1:1 + k] += 2.0 * ge
        if self.tdim:
            ft = (f * f)[:, None] * seg.dth
            grad[:-1, 1 + k:] += -2.0 * ft
            grad[1:, 1 + k:] += 2.0 * ft
        return energy, grad[1:-1].ravel()

    def hessian_banded(self, seg):
        """Exact Hessian of ``energy_grad``'s energy in the upper banded
        storage of LAPACK's ``dpbsv``: ``ab[u + i - j, j] = H[i, j]`` for
        ``i <= j``, with upper bandwidth ``u = 2 * stride - 1``.

        Segment s couples vertices s and s + 1 only, so H is a sum of
        per-segment (2 stride x 2 stride) blocks.  With c_s = dr^2 + G de2 +
        F dth2, G = g(m)^2, F = f(m)^2 and m the midpoint radius, each block
        is the difference part [[D, -D], [-D, D]], D = diag(2, 2G, 2F), plus
        the midpoint-warp rank-two terms in the two r slots: w in all four
        r-r cells and -/+cross between r and the other slots.  So the band
        has few nonzero diagonals, and each is written straight from these
        per-segment terms; the per-segment sums 2 + w come first, as in a
        block-by-block assembly, so every cell is bit-identical to one.
        """
        k, st, n = self.k, self.stride, self.n
        g, g1, g2 = seg.g
        f, f1, f2 = seg.f

        diag = np.empty((n, st))
        diag[:, 0] = 2.0
        diag[:, 1:1 + k] = (2.0 * g * g)[:, None]
        diag[:, 1 + k:] = (2.0 * f * f)[:, None]
        # d^2 c_s / d r_x d y_b = -d^2 c_s / d r_x d y_a = (2gg' de, 2ff' dth)
        # (stride - 1, n): slot j of segment s
        cross = np.hstack(((2.0 * g * g1)[:, None] * seg.de, (2.0 * f * f1)[:, None] * seg.dth)).T
        # d^2 c_s / d r_x d r_y from the warps: G''/4 de2 + F''/4 dth2
        w = 0.5 * ((g1 * g1 + g * g2) * seg.de2 + (f1 * f1 + f * f2) * seg.dth2)

        # ab[u - offset, vertex, slot]; segment s runs from vertex s to s + 1
        u = 2 * st - 1
        j = np.arange(1, st)
        ab = np.zeros((u + 1, n + 1, st))
        same = diag.copy()  # D, plus w in the r slot
        same[:, 0] += w
        ab[u, :-1] += same  # each vertex sums its right segment, then its left
        ab[u, 1:] += same
        ab[u - j, :-1, j] -= cross  # r with slot j of the same vertex
        ab[u - j, 1:, j] += cross
        other = -diag  # -D, plus w in the r slot, at offset stride
        other[:, 0] += w
        ab[st - 1, 1:] += other
        ab[st - 1 - j, 1:, j] += cross  # r with slot j of the next vertex
        ab[st - 1 + j, 1:, 0] -= cross  # slot j with r of the next vertex
        # drop the two endpoints (the band's unused top-left cells are never read)
        return ab.reshape(u + 1, -1)[:, st:n * st]


def _newton_step(ab, grad, free, rung):
    """Solve H p = -grad over the free coordinates (identity rows elsewhere),
    adding Levenberg damping until the banded Cholesky factorization holds.

    Rung 0 is the undamped system; rung i >= 1 adds scale * 10**(i - 13) to
    the free diagonal, scale being the largest diagonal magnitude.  Rung 0 is
    tried first.  If it fails, the search starts at ``rung`` (the rung of the
    chain's previous step, at least 1) and walks down while the
    factorization holds and up while it fails, so it takes the lowest
    damped rung that holds, as a climb from rung 1 would.  Each try is one
    ``dpbsv`` call on ``ab`` (modified in place), its diagonal damped from a
    saved copy.  Returns the step and the rung taken.
    """
    u = ab.shape[0] - 1
    n = ab.shape[1]
    for d in range(u + 1):
        ab[u - d, d:] *= free[:n - d] & free[d:]
    ab[u, ~free] = 1.0
    rhs = np.where(free, -grad, 0.0)
    mus = float(np.max(np.abs(ab[u]))) * 10.0 ** np.arange(-12, 13)
    diag = ab[u, free]

    def solve(i):
        if i:
            ab[u, free] = diag + mus[i - 1]
        _, x, info = dpbsv(ab, rhs)
        return None if info else x

    x = solve(0)
    if x is not None:
        return x, 0
    i = max(rung, 1)
    x = solve(i)
    if x is not None:
        while i > 1 and (lower := solve(i - 1)) is not None:
            x, i = lower, i - 1
        return x, i
    for i in range(i + 1, len(mus) + 1):
        x = solve(i)
        if x is not None:
            return x, i
    raise SolverFailureError("Newton system stays indefinite under damping")


def _optimize_chain(disc: _Discretization, maxiter=200, x0=None):
    """Damped projected Newton on the discrete energy.

    Each step solves with the exact banded Hessian; r coordinates sitting on
    a bound with the gradient pushing outward are held fixed.  The step is
    projected onto the box and backtracked until Armijo holds.  Each trial
    chain is evaluated once by ``disc.segments``, and the Hessian reads the
    accepted one's record.  Each step's damping search starts from the rung
    the previous step took (``_newton_step``).  Returns the chain, the
    residual (max |gradient| over the coordinates not held fixed), the
    iteration count, whether the iteration cap stopped the solve above
    ``GRAD_TOL``, and the chain length.
    """
    lo, hi = disc.bounds()
    x = np.clip(disc.initial() if x0 is None else x0, lo, hi)
    seg = disc.segments(x)
    energy, grad = disc.energy_grad(seg)
    nit = rung = 0
    while True:
        pinned = ((x <= lo + 1e-12) & (grad > 0)) | ((x >= hi - 1e-12) & (grad < 0))
        gnorm = float(np.max(np.abs(grad[~pinned]), initial=0.0))
        if not (gnorm > GRAD_TOL and nit < maxiter):
            break
        nit += 1
        step, rung = _newton_step(disc.hessian_banded(seg), grad, ~pinned, rung)
        t = 1.0
        for _ in range(60):
            x_new = np.clip(x + t * step, lo, hi)
            seg_new = disc.segments(x_new)
            e_new, g_new = disc.energy_grad(seg_new)
            slope = float(grad @ (x_new - x))
            if slope < 0.0 and e_new <= energy + 1e-4 * slope:
                break
            t *= 0.5
        else:
            break  # no descent left: the energy is flat to rounding
        x, seg, energy, grad = x_new, seg_new, e_new, g_new
    capped = nit >= maxiter and gnorm > GRAD_TOL
    return x, gnorm, nit, capped, float(np.sqrt(seg.cost).sum())


def _refine(xflat, disc: _Discretization):
    """Insert chart midpoints, doubling the segment count."""
    chain = disc.full_chain(xflat)
    mids = 0.5 * (chain[:-1] + chain[1:])
    new = np.empty((2 * disc.n + 1, disc.stride))
    new[0::2] = chain
    new[1::2] = mids
    return new[1:-1].ravel(), _Discretization(disc.space, disc.p, disc.q, 2 * disc.n)


def _cover_coords(p: WPoint):
    return np.concatenate(([p.r], p.e, p.theta))


def _chain_to_path(space: WarpedSpace, chain: np.ndarray, k: int) -> PolylinePath:
    """Convert a cover-coordinate chain to a PolylinePath with reduced theta
    and per-segment deck shifts."""
    if space.torus is None:
        return PolylinePath._from_arrays(chain, np.zeros((len(chain) - 1, 0), dtype=int))
    basis = space.torus.basis
    coeffs = np.linalg.solve(basis.T, chain[:, 1 + k:].T).T
    floors = np.floor(coeffs)
    coords = chain.copy()
    coords[:, 1 + k:] = (coeffs - floors) @ basis
    # reduced theta_{i+1} + shift@basis must equal the cover difference
    shifts = np.rint(np.diff(floors, axis=0)).astype(int)
    return PolylinePath._from_arrays(coords, shifts)


class _Mirrored(ScalarC2):
    """warp(a + |r - a|): a warp reflected across r = a."""

    def __init__(self, warp: ScalarC2, a: float):
        self.warp, self.a = warp, a

    def jet(self, r, n=2):
        sign = np.where(r < self.a, -1.0, 1.0)
        return [v * sign ** o for o, v in enumerate(self.warp.jet(self.a + np.abs(r - self.a), n))]


def _core_route(space: WarpedSpace, p: WPoint, q: WPoint, n: int) -> _Discretization:
    """The route through the core {r = a}, a = r_min: a path in (2a - r_max,
    r_max) x_{g(a + |r - a|)} E^k from (r_p, e_p) to (2a - r_q, e_q)."""
    a, b = space.interval
    doubled = WarpedSpace((2.0 * a - b, b), space.euclid_dim, _Mirrored(space.warp_g, a))
    return _Discretization(doubled, np.concatenate(([p.r], p.e)), np.concatenate(([2.0 * a - q.r], q.e)), n)


def _unfold(space: WarpedSpace, chain: np.ndarray, p: WPoint, q: WPoint) -> np.ndarray:
    """Cover chain of a ``_core_route`` chain.  The rows before its first
    crossing of r = a take theta_p; the crossing becomes a core vertex, entered
    with theta_p and left with theta_q; the rows after it are reflected back
    and take theta_q."""
    a, r = space.r_min, chain[:, 0]
    j = 1 + int(np.argmax(r[1:] <= a))
    t = (r[j - 1] - a) / (r[j - 1] - r[j]) if r[j - 1] > a else 0.0
    crossing = chain[j - 1] + t * (chain[j] - chain[j - 1])
    crossing[0] = a
    tail = np.column_stack((a + np.abs(r[j:] - a), chain[j:, 1:]))
    base = np.vstack((chain[:j], crossing, crossing, tail))
    theta = np.repeat(np.stack((p.theta, q.theta)), (j + 1, len(tail) + 1), axis=0)
    return np.hstack((base, theta))


def _solve_route(space: WarpedSpace, disc: _Discretization, p: WPoint, q: WPoint, refine_tol):
    """Solve one candidate and refine it by segment doubling until its chain
    length changes by less than ``refine_tol``.  Returns (exact length, path,
    final residual, Newton steps, whether any level stopped at the iteration
    cap above ``GRAD_TOL``)."""
    x0, length = None, np.inf
    iters, capped = 0, False
    while True:
        x, gnorm, nit, cut, new_length = _optimize_chain(disc, x0=x0)
        iters += nit
        capped |= cut
        if abs(new_length - length) < refine_tol or 2 * disc.n > MAX_SEGMENTS:
            break
        x0, disc = _refine(x, disc)
        length = new_length
    chain = disc.full_chain(x)
    if disc.space is not space:
        chain = _unfold(space, chain, p, q)
    path = _chain_to_path(space, chain, space.euclid_dim)
    return path_length(space, path), path, gnorm, iters, capped


def solve_geodesic(
    space: WarpedSpace,
    p: WPoint,
    q: WPoint,
    *,
    n_segments: int = 64,
    refine_tol: float = REFINE_TOL,
) -> GeodesicResult:
    """Shortest path between p and q by discrete energy minimization.

    Inner loop: damped projected Newton with the exact banded Hessian over
    interior vertex coordinates of a polyline in cover coordinates (r
    box-constrained to the interval), started from the straight chain and
    stopped when the projected gradient falls below ``GRAD_TOL``.  Outer
    loop: the direct candidate, in the deck class whose cover difference
    theta_q + v - theta_p is shortest (v the lattice vector closest to
    theta_p - theta_q), then, in singular spaces, the route through the
    core: a path from (r_p, e_p) to the mirror point (2 r_min - r_q, e_q) in
    the base doubled across r_min, unfolded with theta_p before its crossing
    and theta_q after.  Each candidate is refined by segment doubling until
    its chain length stabilizes below ``refine_tol``, and the shorter exact
    length of the final paths wins; on a tie the direct one stays.  The core
    route is skipped when (r_p - r_min) + (r_q - r_min), a lower bound on
    the length of every path through the core, exceeds the direct
    candidate's exact length: it could not have won.

    ``iterations`` in the result counts Newton steps, summed over the
    candidates that were solved and their refinement levels.  ``converged``
    is False when the final residual is above tolerance, or when any solved
    candidate or refinement level stopped at the Newton iteration cap with
    its residual above ``GRAD_TOL``.
    """
    space.check_point(p)
    space.check_point(q)
    if n_segments < 8:
        raise ValidationError("n_segments must be >= 8")
    k, tdim = space.euclid_dim, space.torus_dim

    if space.points_equal(p, q):
        path = PolylinePath((p, q), (np.zeros(tdim, dtype=int),))
        return GeodesicResult(0.0, path, True, 0, 0.0)

    qc = _cover_coords(q)
    if tdim:
        # No other deck class is shorter: with u_s the cover difference of
        # class s and u* the shortest, theta -> theta_p + (u* u_s^T /
        # |u_s|^2)(theta - theta_p) has norm <= 1 and fixes r and e, so it
        # maps any class-s path, core jumps included, to a no longer one.
        qc[1 + k:] += closest_vector(space.torus.basis, p.theta - q.theta)
    routes = [_solve_route(space, _Discretization(space, _cover_coords(p), qc, n_segments), p, q, refine_tol)]
    # every path through the core is at least (r_p - a) + (r_q - a) long, its
    # speed being at least |dr|; a route that long cannot beat a shorter one
    a = space.r_min
    if space.singular_at_zero and tdim and (p.r - a) + (q.r - a) <= routes[0][0]:
        routes.append(_solve_route(space, _core_route(space, p, q, n_segments), p, q, refine_tol))
    # no path is shorter than the distance, so the shorter refined candidate
    # is never the worse answer; a tie keeps the direct one
    dist, path, gnorm, _, _ = min(routes, key=lambda route: route[0])
    total_iters = sum(route[3] for route in routes)
    capped = any(route[4] for route in routes)  # some solve stopped at the cap
    # Newton stops at GRAD_TOL, or earlier where the energy decrease falls to
    # its rounding level on fine chains.  A solve cut off by the iteration cap
    # leaves the candidate choice or the level-to-level stopping estimate
    # unverified, so it is never reported as converged.
    converged = not capped and gnorm < max(GRAD_TOL, 1e-7 * max(1.0, dist))
    if gnorm > 1e-6:
        warnings.warn(f"geodesic solver residual {gnorm:.2e} above tolerance", stacklevel=2)
    return GeodesicResult(dist, path, converged, total_iters, gnorm)


# ---------------------------------------------------------------------------
# derived quantities
# ---------------------------------------------------------------------------

def distance_to_core(space: WarpedSpace, p: WPoint) -> float:
    """Radial distance to {r = r_min}; the radial path is shortest when the
    warp functions are nondecreasing (Lemma-style monotonicity)."""
    space.check_point(p)
    return p.r - space.r_min


def direction_at_singular(space: WarpedSpace, a0, target: WPoint):
    """Direction at the singular point (0, a0, -) toward target = (t1, a1, th1).

    Returns (phi, alpha, theta): tan(phi) = tanh(t1) / sinh(|a1 - a0|), with
    alpha the unit vector from a0 to a1 in E^k (None when a1 = a0).
    """
    if not space.singular_at_zero:
        raise SingularPointError("space has no singular core")
    a0 = _as_vec(a0, space.euclid_dim)
    space.check_point(target)
    t1 = target.r - space.r_min
    da = target.e - a0
    na = float(np.linalg.norm(da))
    if na <= 1e-15:
        return (np.pi / 2.0, None, target.theta.copy())
    phi = float(np.arctan2(np.tanh(t1), np.sinh(na)))
    return (phi, da / na, target.theta.copy())


def alexandrov_angle(
    space: WarpedSpace,
    p: WPoint,
    q1: WPoint,
    q2: WPoint,
    *,
    n_segments: int = 64,
    refine_tol: float = 1e-6,
):
    """Upper angle at p between [p,q1] and [p,q2], by Euclidean comparison
    angles at the shrinking scales ``ANGLE_SCALES`` plus one-step Richardson
    extrapolation.

    The convergence order of the comparison angles is not known a priori;
    the extrapolation assumes first order in the scale.  Only the
    extrapolated angle is returned, as a float; a warning fires when the
    comparison angles are not monotone nonincreasing.
    """
    if space.points_equal(p, q1) or space.points_equal(p, q2):
        raise ValidationError("q1, q2 must differ from p")
    g1 = solve_geodesic(space, p, q1, n_segments=n_segments, refine_tol=refine_tol)
    g2 = solve_geodesic(space, p, q2, n_segments=n_segments, refine_tol=refine_tol)
    if max(g1.residual, g2.residual) > 1e-6:
        raise SolverFailureError("leg geodesics did not converge")
    tmax = min(g1.distance, g2.distance)
    angles = []
    used = []
    for t in ANGLE_SCALES:
        if t > tmax:
            continue
        x1 = path_point_at_arclength(space, g1.path, t)
        x2 = path_point_at_arclength(space, g2.path, t)
        d = solve_geodesic(space, x1, x2, n_segments=n_segments, refine_tol=refine_tol).distance
        cosang = (2.0 * t * t - d * d) / (2.0 * t * t)
        angles.append(float(np.arccos(np.clip(cosang, -1.0, 1.0))))
        used.append(t)
    if len(angles) < 2:
        raise ValidationError("scales too large for these geodesics")
    increasing = any(b > a + 1e-6 for a, b in zip(angles, angles[1:]))
    if increasing:
        warnings.warn("comparison angles not monotone nonincreasing", stacklevel=2)
    # Richardson assuming error ~ C * t on the last halving
    t_a, t_b = used[-2], used[-1]
    ratio = t_a / t_b
    extrap = (ratio * angles[-1] - angles[-2]) / (ratio - 1.0)
    return float(np.clip(extrap, 0.0, np.pi))


def log_map(space: WarpedSpace, p: WPoint, x: WPoint, *, n_segments: int = 64,
            refine_tol: float = REFINE_TOL):
    """(radius, direction) of x seen from p.

    At a singular p the direction is the join coordinate (phi, alpha, theta)
    of Lemma-style direction space; at a Riemannian p it is the initial unit
    chart tangent of the solver polyline.
    """
    res = solve_geodesic(space, p, x, n_segments=n_segments, refine_tol=refine_tol)
    if res.residual > 1e-6:
        raise SolverFailureError("geodesic to x did not converge")
    if res.distance <= 1e-14:
        return (0.0, None)
    if space.singular_at_zero and abs(p.r - space.r_min) <= 1e-12:
        return (res.distance, direction_at_singular(space, p.e, x))
    k = space.euclid_dim
    v1 = res.path.coords[1].copy()
    if space.torus is not None:
        v1[1 + k:] += space.torus.shift_vector(res.path.shifts[0])
    tangent = v1 - res.path.coords[0]
    g0 = float(space.g(p.r))
    f0 = float(space.f(p.r)) if space.torus is not None else 1.0
    norm2 = tangent[0] ** 2 + g0 ** 2 * np.dot(tangent[1:1 + k], tangent[1:1 + k])
    if space.torus is not None:
        norm2 += f0 ** 2 * np.dot(tangent[1 + k:], tangent[1 + k:])
    return (res.distance, tangent / np.sqrt(norm2))


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def space_to_json_dict(space: WarpedSpace) -> dict:
    return {
        "interval": list(space.interval),
        "euclid_dim": space.euclid_dim,
        "warp_g": warp_to_json_dict(space.warp_g),
        "torus": space.torus.to_json_dict() if space.torus else None,
        "warp_f": warp_to_json_dict(space.warp_f) if space.warp_f is not None else None,
    }


def space_from_json_dict(doc: dict) -> WarpedSpace:
    if not (isinstance(doc, dict) and doc.keys() <= {"interval", "euclid_dim", "warp_g", "torus", "warp_f"}
            and isinstance(doc.get("interval"), (list, tuple))
            and len(doc["interval"]) == 2 and all(map(_is_number, doc["interval"]))
            and isinstance(doc.get("euclid_dim"), numbers.Integral) and not isinstance(doc["euclid_dim"], bool)
            and isinstance(doc.get("warp_g"), dict)
            and all(isinstance(doc.get(key), (dict, type(None))) for key in ("torus", "warp_f"))):
        raise ValidationError('a space is an object with an "interval" of two numbers, an integer '
                              '"euclid_dim", a "warp_g" object, optional "torus" and "warp_f" objects '
                              'and no other keys')
    torus = LatticeTorus.from_json_dict(doc["torus"]) if doc.get("torus") else None
    warp_f = warp_from_json_dict(doc["warp_f"]) if doc.get("warp_f") else None
    return WarpedSpace(
        interval=tuple(doc["interval"]),
        euclid_dim=int(doc["euclid_dim"]),
        warp_g=warp_from_json_dict(doc["warp_g"]),
        torus=torus,
        warp_f=warp_f,
    )
