"""Closed-form comparison oracles.

Everything here has an exact formula or an exact search: hyperbolic
half-plane distances, the strip isometry h(t,a) = e^{ua}(tanh t + i sech t),
comparison triangles in S_kappa for kappa <= 0 (hyperboloid model), flat
lattice tori (systoles and distances by LLL-reduced enumeration, see
``lattice``), and the spherical-join metric of two metric spaces.  These are
the independent yardsticks the variational solver and the curvature tests
are measured against, so nothing in this module may depend on warp_engine.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateError, DomainError, OutOfRangeError, ValidationError
from .lattice import closest_vector, shortest_vector

__all__ = [
    "LatticeTorus",
    "JoinPoint",
    "ComparisonTriangle",
    "halfplane_distance",
    "halfplane_geodesic_point",
    "strip_to_halfplane",
    "comparison_triangle",
    "triangle_point",
    "torus_distance",
    "torus_reduce",
    "torus_systole",
    "spherical_join_distance",
    "circle_metric",
]


# ---------------------------------------------------------------------------
# hyperbolic half-plane
# ---------------------------------------------------------------------------

def halfplane_distance(z: complex, w: complex) -> float:
    """Distance in the upper half-plane model of H^2.

    d(z,w) = arccosh(1 + |z-w|^2 / (2 Im z Im w)) = 2 arcsinh(|z-w| / (2 sqrt(Im z Im w))),
    evaluated in the arcsinh form, which keeps its relative accuracy for
    nearby points (the arccosh argument rounds to 1 once |z-w| ~ 1e-8).
    """
    z, w = complex(z), complex(w)
    if z.imag <= 0.0 or w.imag <= 0.0:
        raise DomainError(f"points must have positive imaginary part: {z}, {w}")
    return float(2.0 * np.arcsinh(abs(z - w) / (2.0 * np.sqrt(z.imag * w.imag))))


def halfplane_geodesic_point(z: complex, w: complex, s: float) -> complex:
    """Point at arclength s along the geodesic from z to w in H^2.

    The map zz -> (zz - Re z) / Im z sends z to i, and the Cayley map
    zz -> (zz - i) / (zz + i) sends i to the centre of the Poincare disk,
    where the geodesic toward w is the radius through the image c of w.
    The point at arclength s is u = tanh(s/2) c/|c| there, mapped back by
    i (1 + u) / (1 - u) and then zz * Im z + Re z.  Past the midpoint the
    same map is taken from w, at arclength total - s toward z: rounding in
    1 - u grows with s, so each end is reached from itself.  Used as an
    independent check on the discrete solver paths; not needed for
    distances.
    """
    z, w = complex(z), complex(w)
    total = halfplane_distance(z, w)
    if not (-1e-12 <= s <= total + 1e-12):
        raise OutOfRangeError(f"arclength {s} outside [0, {total}]")
    if total < 1e-15:
        return z
    if s > total / 2.0:
        z, w, s = w, z, total - s
    x0, y0 = z.real, z.imag
    w1 = (w - x0) / y0
    c = (w1 - 1j) / (w1 + 1j)
    u = np.tanh(s / 2.0) * c / abs(c)
    return complex(1j * (1.0 + u) / (1.0 - u)) * y0 + x0


def strip_to_halfplane(t: float, a: float, u: float = 1.0) -> complex:
    """The isometry h(t,a) = e^{ua} (tanh t + i sech t).

    Maps the warped strip [0, inf) x_{u cosh t} R into the half-plane;
    h(0,0) = i and t |-> h(t,0) is unit-speed.
    """
    if t < 0:
        raise DomainError(f"t must be >= 0, got {t}")
    return complex(np.exp(u * a)) * complex(np.tanh(t), 1.0 / np.cosh(t))


# ---------------------------------------------------------------------------
# comparison triangles in S_kappa, kappa <= 0
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonTriangle:
    kappa: float
    side_lengths: tuple  # (a, b, c): a = d(v1,v2), b = d(v0,v2), c = d(v0,v1)
    vertices: tuple      # three model points: complex (kappa=0) or 3-vectors

    def distance(self, x, y) -> float:
        return _model_distance(self.kappa, x, y)


def _model_distance(kappa: float, x, y) -> float:
    if kappa == 0.0:
        return abs(complex(x) - complex(y))
    s = np.sqrt(-kappa)
    # hyperboloid sheet {<p,p> = -1} with Minkowski form diag(1,1,-1),
    # rescaled so curvature is kappa
    m = -(x[0] * y[0] + x[1] * y[1] - x[2] * y[2])
    return float(np.arccosh(max(m, 1.0))) / s


def comparison_triangle(kappa: float, a: float, b: float, c: float) -> ComparisonTriangle:
    """Triangle with side lengths (a, b, c) in S_kappa, kappa <= 0.

    Convention: vertex v0 is opposite side a, v1 opposite b, v2 opposite c,
    so d(v0,v1) = c, d(v0,v2) = b, d(v1,v2) = a.
    """
    if kappa > 0:
        raise ValidationError(f"only kappa <= 0 supported, got {kappa}")
    sides = (float(a), float(b), float(c))
    if min(sides) <= 0:
        raise DegenerateError(f"side lengths must be positive: {sides}")
    for i in range(3):
        rest = sides[(i + 1) % 3] + sides[(i + 2) % 3]
        if sides[i] > rest + 1e-12:
            raise DegenerateError(f"triangle inequality violated: {sides}")

    if kappa == 0.0:
        # gamma = angle at v0, between sides c (to v1) and b (to v2)
        cosg = (b * b + c * c - a * a) / (2.0 * b * c)
        gamma = float(np.arccos(np.clip(cosg, -1.0, 1.0)))
        v0 = 0j
        v1 = complex(c, 0.0)
        v2 = complex(b * np.cos(gamma), b * np.sin(gamma))
        return ComparisonTriangle(0.0, sides, (v0, v1, v2))

    s = np.sqrt(-kappa)
    sa, sb, sc = s * a, s * b, s * c
    cosg = (np.cosh(sb) * np.cosh(sc) - np.cosh(sa)) / (np.sinh(sb) * np.sinh(sc))
    gamma = float(np.arccos(np.clip(cosg, -1.0, 1.0)))
    v0 = np.array([0.0, 0.0, 1.0])
    v1 = np.array([np.sinh(sc), 0.0, np.cosh(sc)])
    v2 = np.array([np.sinh(sb) * np.cos(gamma), np.sinh(sb) * np.sin(gamma), np.cosh(sb)])
    return ComparisonTriangle(float(kappa), sides, (v0, v1, v2))


_SIDE_ENDPOINTS = {0: (1, 2), 1: (0, 2), 2: (0, 1)}  # side index -> vertex pair


def triangle_point(tri: ComparisonTriangle, side: int, arclength: float):
    """Point at given arclength along a side (from its first endpoint)."""
    i, j = _SIDE_ENDPOINTS[side]
    length = tri.side_lengths[side]
    if not (-1e-12 <= arclength <= length + 1e-12):
        raise OutOfRangeError(f"arclength {arclength} outside [0, {length}]")
    t = np.clip(arclength / length, 0.0, 1.0)
    p, q = tri.vertices[i], tri.vertices[j]
    if tri.kappa == 0.0:
        return p + t * (q - p)
    s = np.sqrt(-tri.kappa)
    d = s * length
    # geodesic on the hyperboloid: cosh/sinh combination of endpoint and
    # normalized tangent
    u = (q - np.cosh(d) * p) / np.sinh(d)
    return np.cosh(t * d) * p + np.sinh(t * d) * u


# ---------------------------------------------------------------------------
# flat tori
# ---------------------------------------------------------------------------

# a basis is singular when its smallest singular value is at most this
# fraction of its largest (condition number 1e12 or more); the test is
# relative, so it does not depend on the torus's scale
SINGULAR_RTOL = 1e-12


@dataclass(frozen=True)
class LatticeTorus:
    """Flat torus E^n / L with L spanned by the rows of ``basis``."""

    basis: np.ndarray
    dim: int = field(init=False)
    gram: np.ndarray = field(init=False)

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValidationError(f"basis must be square, got shape {b.shape}")
        if not np.all(np.isfinite(b)):
            raise ValidationError(f"basis has non-finite entries: {b.tolist()}")
        sv = np.linalg.svd(b, compute_uv=False)
        if sv.size and sv[-1] <= SINGULAR_RTOL * sv[0]:
            raise ValidationError("basis is singular")
        object.__setattr__(self, "basis", b)
        object.__setattr__(self, "dim", b.shape[0])
        object.__setattr__(self, "gram", b @ b.T)

    def shift_vector(self, coeffs) -> np.ndarray:
        """Ambient translation for integer coefficient vector ``coeffs``."""
        return np.asarray(coeffs, dtype=float) @ self.basis

    def to_json_dict(self) -> dict:
        return {"dim": self.dim, "basis": self.basis.tolist()}

    @classmethod
    def from_json_dict(cls, d: dict) -> "LatticeTorus":
        t = cls(basis=np.asarray(d["basis"], dtype=float))
        if "dim" in d and int(d["dim"]) != t.dim:
            raise ValidationError(f"dim field {d['dim']} != basis size {t.dim}")
        return t


def torus_distance(T: LatticeTorus, x, y) -> float:
    """Distance on the flat torus between any representatives x and y.

    Minimum of |x - y + v| over lattice vectors v: the closest lattice
    vector to y - x, found exactly by ``lattice.closest_vector``.
    """
    d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
    return float(np.linalg.norm(d + closest_vector(T.basis, -d)))


def torus_reduce(T: LatticeTorus, x) -> np.ndarray:
    """Fundamental-domain representative: lattice coefficients reduced mod 1."""
    x = np.asarray(x, dtype=float)
    coeffs = np.linalg.solve(T.basis.T, x)
    return (coeffs - np.floor(coeffs)) @ T.basis


def torus_systole(T: LatticeTorus) -> float:
    """Length of the shortest nonzero lattice vector, found exactly by
    ``lattice.shortest_vector``."""
    return float(np.linalg.norm(shortest_vector(T.basis)))


# ---------------------------------------------------------------------------
# spherical join
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class JoinPoint:
    """Point (phi, a, b) of the spherical join A * B.

    phi = 0 collapses the B coordinate, phi = pi/2 collapses A.
    """

    phi: float
    a_point: object = None
    b_point: object = None

    def __post_init__(self):
        if not (0.0 <= self.phi <= np.pi / 2.0 + 1e-15):
            raise ValidationError(f"phi must lie in [0, pi/2], got {self.phi}")


def _d_pi(d: float) -> float:
    return min(np.pi, float(d))


def spherical_join_distance(p: JoinPoint, q: JoinPoint, dA, dB) -> float:
    """Join metric: cos d = cos p.phi cos q.phi cos d_pi(a) + sin sin cos d_pi(b)."""
    ca = np.cos(_d_pi(dA(p.a_point, q.a_point))) if (p.phi < np.pi / 2 and q.phi < np.pi / 2) else 0.0
    cb = np.cos(_d_pi(dB(p.b_point, q.b_point))) if (p.phi > 0 and q.phi > 0) else 0.0
    cosd = (np.cos(p.phi) * np.cos(q.phi) * ca + np.sin(p.phi) * np.sin(q.phi) * cb)
    return float(np.arccos(np.clip(cosd, -1.0, 1.0)))


def circle_metric(circumference: float = 2.0 * np.pi):
    """Metric oracle on R / (circumference Z), for join tests."""

    def d(x, y):
        raw = abs(float(x) - float(y)) % circumference
        return min(raw, circumference - raw)

    return d
