"""Curvature bounds and comparison testing.

Three independent views of the same geometry:

* closed-form sectional-term intervals for doubly warped metrics (the five
  ratio terms, with the dimension-based exclusion rules);
* a generic finite-difference Riemann-tensor oracle over the diagonal chart
  metric (knows nothing about warped products);
* synthetic tests that never touch the tensor: CAT(kappa) comparison
  triangles and FK-convexity in the barrier sense.

Agreement between the three is what the test suite is built on.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    NonpositiveWarpError,
    SingularPointError,
    SolverFailureError,
    ValidationError,
    WindowTooSmallError,
)
from .model_spaces import _SIDE_ENDPOINTS, comparison_triangle, triangle_point
from .numerics import as_scalar_c2
from .warp_engine import WarpedSpace, WPoint, path_point_at_arclength, solve_geodesic

__all__ = [
    "SectionalTerms",
    "ComparisonReport",
    "FKReport",
    "ScanConfig",
    "sectional_terms",
    "fd_sectional",
    "fk_convexity",
    "cat_test",
    "curvature_scan",
]

FD_STEP_METRIC = 1e-4
CAT_TOL = 2e-4
BARRIER_MARGIN = 1e-9
# slack of a curvature_scan spot check against the term interval
FD_BAND = 1e-3


# ---------------------------------------------------------------------------
# Prop-4.7-style term intervals
# ---------------------------------------------------------------------------

TERM_LABELS = (
    "-f1''/f1",
    "-f2''/f2",
    "-(f1')^2/f1^2",
    "-(f2')^2/f2^2",
    "-f1'f2'/(f1 f2)",
)


@dataclass(frozen=True)
class SectionalTerms:
    """Term values at radius t; floats for a scalar t, arrays for an array t."""

    t: float | np.ndarray
    terms: dict
    applicable: tuple
    lower: float | np.ndarray
    upper: float | np.ndarray


def sectional_terms(f1, f2, dim1: int, dim2: int, t) -> SectionalTerms:
    """The candidate sectional-curvature values of a doubly warped metric.

    Every plane's curvature is a convex combination of the applicable terms,
    so [min, max] over them bounds all sectional curvatures at radius t.
    Exclusion rules: a factor of dimension 0 contributes nothing; a factor
    of dimension 1 drops its -(f')^2/f^2 term.

    ``t`` is a scalar or an array; each warp's jet is evaluated once on the
    whole of it.
    """
    f1, f2 = as_scalar_c2(f1), as_scalar_c2(f2)
    if dim1 < 1 and dim2 < 1:
        raise ValidationError("both factor dimensions are zero")
    t = np.asarray(t, dtype=float)
    vals = {}
    slopes = []  # f'/f of each present factor, for the mixed term
    for name, fn, dim, ratio_label, square_label in (
        ("f1", f1, dim1, TERM_LABELS[0], TERM_LABELS[2]),
        ("f2", f2, dim2, TERM_LABELS[1], TERM_LABELS[3]),
    ):
        if dim < 1:
            continue
        v, d1, d2 = (np.asarray(x, dtype=float) for x in fn.jet(t, 2))
        bad = np.flatnonzero(v <= 0)
        if bad.size:
            first = bad[0]
            raise NonpositiveWarpError(
                f"{name}({float(t.flat[first])}) = {float(v.flat[first])} <= 0"
            )
        vals[ratio_label] = -d2 / v
        slope = d1 / v
        if dim >= 2:
            vals[square_label] = -(slope**2)
        slopes.append(slope)
    if len(slopes) == 2:
        vals[TERM_LABELS[4]] = -slopes[0] * slopes[1]
    stacked = np.stack(list(vals.values()))
    lower, upper = stacked.min(axis=0), stacked.max(axis=0)
    if t.ndim == 0:
        return SectionalTerms(
            float(t), {k: float(v) for k, v in vals.items()}, tuple(vals), float(lower), float(upper)
        )
    return SectionalTerms(t, vals, tuple(vals), lower, upper)


# ---------------------------------------------------------------------------
# finite-difference Riemann oracle
# ---------------------------------------------------------------------------

def _metric_fn(space: WarpedSpace):
    """The diagonal chart metric, evaluated at points of shape (..., n)."""
    k, tdim = space.euclid_dim, space.torus_dim
    n = 1 + k + tdim

    def metric(x):
        x = np.asarray(x, dtype=float)
        r = x[..., 0]
        diag = np.ones(x.shape)
        if k:
            diag[..., 1:1 + k] = (space.g(r) ** 2)[..., None]
        if tdim:
            diag[..., 1 + k:] = (space.f(r) ** 2)[..., None]
        return diag[..., None] * np.eye(n)

    return metric, n


def _richardson(v, h):
    """Richardson-extrapolated central difference from values at the offsets
    (+h, -h, +h/2, -h/2) stacked along axis 0."""
    d1 = (v[0] - v[1]) / (2 * h)
    d2 = (v[2] - v[3]) / h
    return (4.0 * d2 - d1) / 3.0


def _offsets(h, axes, n):
    """(4, len(axes), n): the Richardson offsets +h, -h, +h/2, -h/2 along each axis."""
    steps = np.array([h, -h, h / 2, -h / 2])
    return steps[:, None, None] * np.eye(n)[list(axes)]


def _christoffel(g, dg):
    """gamma[..., l, i, j] = Gamma^l_ij from the metric g[..., a, b] and its
    derivatives dg[..., m, a, b] = d_m g_ab."""
    bracket = np.einsum("...imj->...mij", dg) + np.einsum("...jmi->...mij", dg) - dg
    return 0.5 * np.einsum("...lm,...mij->...lij", np.linalg.inv(g), bracket)


def fd_sectional(space: WarpedSpace, point: WPoint, plane: tuple) -> float:
    """Sectional curvature of a coordinate 2-plane, from the metric alone.

    Chart coordinates are (r, e_1..e_k, theta_1..theta_tdim); the metric is
    diagonal.  Christoffels and their derivatives come from Richardson-
    extrapolated central differences with step h = ``FD_STEP_METRIC``.  The
    metric is evaluated twice: at x and its eight offsets along axes i and j,
    and at the 4n stencil points around each of those nine.
    """
    space.check_point(point)
    if space.torus is not None and float(space.f(point.r)) < 1e-8:
        raise SingularPointError(f"f({point.r}) too small for a Riemannian chart")
    metric, n = _metric_fn(space)
    i, j = plane
    if not (0 <= i < n and 0 <= j < n and i != j):
        raise ValidationError(f"plane {plane} invalid for chart dimension {n}")
    x = np.concatenate(([point.r], point.e, point.theta))
    h = FD_STEP_METRIC

    # x, then x shifted by each of +h, -h, +h/2, -h/2 along i and along j
    base = np.concatenate((x[None], (x + _offsets(h, (i, j), n)).reshape(8, n)))
    g = metric(base)
    dg = _richardson(metric(base[None, :, None, :] + _offsets(h, range(n), n)[:, None]), h)
    gammas = _christoffel(g, dg)
    gamma = gammas[0]
    dgi, dgj = _richardson(gammas[1:].reshape(4, 2, n, n, n), h)
    # (R(d_i, d_j) d_j)^l
    rl = (
        dgi[:, j, j]
        - dgj[:, i, j]
        + np.einsum("la,a->l", gamma[:, i, :], gamma[:, j, j])
        - np.einsum("la,a->l", gamma[:, j, :], gamma[:, i, j])
    )
    g = g[0]
    num = float(g[i] @ rl)
    denom = g[i, i] * g[j, j] - g[i, j] ** 2
    return num / denom


# ---------------------------------------------------------------------------
# FK-convexity (barrier sense)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FKReport:
    K: float
    window: float
    violations: tuple
    pairs_tested: int

    @property
    def passed(self):
        return len(self.violations) == 0


def _fk_solution(K, ta, ua, tb, ub):
    """The unique solution of u'' + K u = 0 through (ta,ua), (tb,ub)."""
    if K == 0.0:
        slope = (ub - ua) / (tb - ta)
        return lambda t: ua + slope * (t - ta)
    if K < 0.0:
        mu = np.sqrt(-K)
        m = np.array(
            [[np.cosh(mu * ta), np.sinh(mu * ta)], [np.cosh(mu * tb), np.sinh(mu * tb)]]
        )
        alpha, beta = np.linalg.solve(m, [ua, ub])
        return lambda t: alpha * np.cosh(mu * t) + beta * np.sinh(mu * t)
    raise ValidationError("K > 0 not supported")


def fk_convexity(samples, K: float, window: float = 0.1, margin: float = BARRIER_MARGIN) -> FKReport:
    """Check F_K-convexity of sampled data in the barrier sense.

    For every sample pair at parameter distance <= window, the interior
    samples must not exceed the F_K solution through the endpoints by more
    than ``margin``.
    """
    ts = np.asarray([s[0] for s in samples], dtype=float)
    us = np.asarray([s[1] for s in samples], dtype=float)
    if len(ts) < 3:
        raise ValidationError("need at least three samples")
    if np.any(np.diff(ts) <= 0):
        raise ValidationError("sample parameters must be strictly increasing")
    if window <= float(np.max(np.diff(ts))):
        raise WindowTooSmallError(
            f"window {window} not larger than max sample gap {np.max(np.diff(ts))}"
        )
    violations = []
    pairs = 0
    na = len(ts)
    for ia in range(na - 2):
        for ib in range(ia + 2, na):
            if ts[ib] - ts[ia] > window:
                break
            pairs += 1
            sol = _fk_solution(K, ts[ia], us[ia], ts[ib], us[ib])
            mid = slice(ia + 1, ib)
            deficit = us[mid] - sol(ts[mid])
            bad = deficit > margin
            for t, d in zip(ts[mid][bad], deficit[bad]):
                violations.append((float(ts[ia]), float(ts[ib]), float(t), float(d)))
    return FKReport(float(K), float(window), tuple(violations), pairs)


# ---------------------------------------------------------------------------
# CAT(kappa) comparison campaign
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ComparisonReport:
    kappa: float
    max_violation: float
    worst_case: tuple | None
    samples: tuple = field(default=(), repr=False)
    tolerance: float = CAT_TOL

    @property
    def passed(self):
        return self.max_violation <= self.tolerance


def cat_test(
    space: WarpedSpace,
    vertices,
    kappa: float,
    *,
    param_samples: int = 16,
    seed: int = 0,
    n_segments: int = 32,
    refine_tol: float = 1e-5,
) -> ComparisonReport:
    """Compare the triangle on ``vertices`` against its S_kappa comparison.

    Samples random pairs of points on two distinct sides, drawn with
    ``seed`` (the geodesic solves use no randomness); a positive
    violation means the space distance exceeds the comparison distance,
    i.e. the triangle is fatter than the model allows.
    """
    v = list(vertices)
    if len(v) != 3:
        raise ValidationError("need exactly three vertices")
    rng = np.random.default_rng(seed)
    geos = {}
    # side 0 joins v1,v2 (length a), side 1 joins v0,v2 (b), side 2 joins v0,v1 (c)
    for s, (i, j) in _SIDE_ENDPOINTS.items():
        geos[s] = solve_geodesic(space, v[i], v[j], n_segments=n_segments, refine_tol=refine_tol)
        if geos[s].residual > 1e-6:
            raise SolverFailureError(f"side {s} geodesic did not converge")
    a, b, c = geos[0].distance, geos[1].distance, geos[2].distance
    tri = comparison_triangle(kappa, a, b, c)

    max_violation = -np.inf
    worst = None
    records = []
    for idx in range(param_samples):
        s1, s2 = rng.choice(3, size=2, replace=False)
        t1 = rng.uniform(0.0, tri.side_lengths[s1])
        t2 = rng.uniform(0.0, tri.side_lengths[s2])
        p1 = path_point_at_arclength(space, geos[int(s1)].path, t1)
        p2 = path_point_at_arclength(space, geos[int(s2)].path, t2)
        d_space = solve_geodesic(space, p1, p2, n_segments=n_segments, refine_tol=refine_tol).distance
        m1 = triangle_point(tri, int(s1), t1)
        m2 = triangle_point(tri, int(s2), t2)
        d_model = tri.distance(m1, m2)
        violation = d_space - d_model
        records.append((int(s1), float(t1), int(s2), float(t2), float(violation)))
        if violation > max_violation:
            max_violation = violation
            worst = records[-1]
    return ComparisonReport(float(kappa), float(max_violation), worst, tuple(records))


# ---------------------------------------------------------------------------
# grid scan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ScanConfig:
    r_lo: float
    r_hi: float
    n_grid: int = 2001
    fd_checks: int = 10
    seed: int = 0


def curvature_scan(space: WarpedSpace, config: ScanConfig) -> dict:
    """Tabulate the sectional-term interval over an r-grid and spot-check it
    against the finite-difference oracle.

    Returns a plain dict (JSON/CSV friendly): rows of term values, the
    empirical curvature bound kappa = inf(-upper) over the grid, and the
    oracle spot checks.
    """
    if space.torus is None:
        raise ValidationError("curvature_scan expects a doubly warped space")
    k, tdim = space.euclid_dim, space.torus_dim
    rs = np.linspace(config.r_lo, config.r_hi, config.n_grid)
    st = sectional_terms(space.warp_g, space.warp_f, k, tdim, rs)
    columns = {"r": rs, **st.terms, "lower": st.lower, "upper": st.upper}
    rows = [dict(zip(columns, row)) for row in zip(*(c.tolist() for c in columns.values()))]
    empirical_kappa = float(np.min(-st.upper))

    rng = np.random.default_rng(config.seed)
    n_chart = 1 + k + tdim
    planes = [(i, j) for i in range(n_chart) for j in range(i + 1, n_chart)]
    checks = []
    ok = True
    # stay inside the grid so the FD stencils do not cross the domain ends
    margin = 10 * FD_STEP_METRIC
    interior = np.flatnonzero((rs > config.r_lo + margin) & (rs < config.r_hi - margin))
    for _ in range(config.fd_checks):
        idx = int(rng.choice(interior))
        r = float(rs[idx])
        plane = planes[int(rng.integers(len(planes)))]
        pt = WPoint.make(r, k=k, tdim=tdim)
        kappa_fd = fd_sectional(space, pt, plane)
        lower, upper = float(st.lower[idx]), float(st.upper[idx])
        inside = lower - FD_BAND <= kappa_fd <= upper + FD_BAND
        ok = ok and inside
        checks.append(
            {"r": r, "plane": list(plane), "fd": float(kappa_fd),
             "lower": lower, "upper": upper, "inside": bool(inside)}
        )
    return {
        "rows": rows,
        "empirical_kappa": empirical_kappa,
        "fd_checks": checks,
        "fd_checks_ok": bool(ok),
        "config": {
            "r_lo": config.r_lo, "r_hi": config.r_hi, "n_grid": config.n_grid,
            "fd_checks": config.fd_checks, "seed": config.seed, "fd_band": FD_BAND,
        },
    }
