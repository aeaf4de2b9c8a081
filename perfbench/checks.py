"""Independent references and the per-operation correctness checks.

Nothing here calls into warpfill: the closed forms and the lattice
enumeration are written out so that a fault in the library cannot hide in
its own yardstick.  Every check returns ``(ok, detail)``; ``detail`` is a
number (an error or a violation) or a short string saying what broke.
"""

from __future__ import annotations

import math

import numpy as np

# |solver - closed form| allowed per geodesic (criterion 2's limit)
GEODESIC_TOL = 1e-4
# the solver's distance is the length of a real path, so it may not undercut
# the true distance by more than rounding
UNDERCUT_TOL = 1e-9
# cat_test's own pass threshold (curvature_lab.CAT_TOL)
CAT_TOL = 2e-4
# the flat equilateral triangle against kappa = -1 must be caught
CONTROL_MIN_VIOLATION = 1e-3
# sectional terms on the exactly hyperbolic ends
HYPERBOLIC_TERM_TOL = 1e-9
SYSTOLE_RTOL = 1e-9


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def h2_distance(p, q):
    """Distance in the chart R x_{e^r} E^1 of H^2.

    (r, e) -> z = e + i e^{-r} is an isometry onto the upper half-plane;
    d = 2 asinh(|z - w| / (2 sqrt(Im z Im w))) avoids the cancellation of
    arccosh near 0.
    """
    (r1, e1), (r2, e2) = p, q
    y1, y2 = math.exp(-r1), math.exp(-r2)
    chord = math.hypot(e1 - e2, y1 - y2)
    return 2.0 * math.asinh(chord / (2.0 * math.sqrt(y1 * y2)))


def circle_gap(a, b, circumference):
    raw = abs(a - b) % circumference
    return min(raw, circumference - raw)


def cone_distance(p, q, circumference):
    """Distance in [0, inf) x_cosh E^1 x_sinh (R / circumference Z).

    This is H^3 in cylinder coordinates about a geodesic, with cone angle
    ``circumference`` along it; for a cone angle above 2 pi,
    cosh d = cosh r1 cosh r2 cosh de - sinh r1 sinh r2 cos(min(dtheta, pi)).
    Written as cosh d - 1 with half-angle terms so small distances keep
    their digits.
    """
    (r1, e1, t1), (r2, e2, t2) = p, q
    phi = min(circle_gap(t1, t2, circumference), math.pi)
    ca = 2.0 * math.sinh(0.5 * (r1 - r2)) ** 2   # cosh(r1 - r2) - 1
    cb = 2.0 * math.sinh(0.5 * (e1 - e2)) ** 2   # cosh(de) - 1
    cosh_d_minus_1 = ca * cb + ca + cb + math.sinh(r1) * math.sinh(r2) * (
        cb + 2.0 * math.sin(0.5 * phi) ** 2
    )
    return 2.0 * math.asinh(math.sqrt(0.5 * cosh_d_minus_1))


def shortest_vector_length(vectors):
    """Length of the shortest nonzero integer combination of ``vectors``.

    Fincke-Pohst enumeration: with the Gram matrix G = R^T R (R upper
    triangular), |x B|^2 = sum_i R_ii^2 (x_i + sum_{j>i} R_ij / R_ii x_j)^2,
    so the coordinates are enumerated from the last one down, each inside
    the interval the remaining budget allows.  The budget starts at the
    shortest basis vector and shrinks to every shorter vector found.
    """
    basis = np.asarray(vectors, dtype=float)
    gram = basis @ basis.T
    d = gram.shape[0]
    r = np.linalg.cholesky(gram).T
    qd = np.diag(r) ** 2
    mu = r / np.diag(r)[:, None]
    best = float(np.min(np.diag(gram)))
    x = [0] * d
    slack = 1e-12

    def descend(i, used):
        nonlocal best
        center = -sum(mu[i, j] * x[j] for j in range(i + 1, d))
        room = (best * (1.0 + slack) - used) / qd[i]
        if room < 0.0:
            return
        half = math.sqrt(room)
        for xi in range(math.ceil(center - half), math.floor(center + half) + 1):
            x[i] = xi
            used_i = used + qd[i] * (xi - center) ** 2
            if used_i > best * (1.0 + slack):
                continue
            if i == 0:
                if any(x) and used_i < best:
                    best = used_i
            else:
                descend(i - 1, used_i)
        x[i] = 0

    descend(d - 1, 0.0)
    return math.sqrt(best)


def filling_systole(basis, coeffs):
    """Systole of the filling sublattice spanned by the rows of coeffs @ basis."""
    return shortest_vector_length(np.asarray(coeffs, dtype=float) @ np.asarray(basis, dtype=float))


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_geodesic(distance, reference, tol=GEODESIC_TOL):
    err = distance - reference
    if distance < reference - UNDERCUT_TOL:
        return False, err
    return abs(err) <= tol, err


def check_cat(max_violation, tolerance=CAT_TOL):
    return max_violation <= tolerance, max_violation


def check_control(max_violation):
    return max_violation > CONTROL_MIN_VIOLATION, max_violation


def check_scan(scan, delta, tail_start):
    """fd oracle agreement, a positive curvature bound, and exact -1 terms
    where the warps are sinh/cosh (r < delta) or e^(r-1) (r > tail_start)."""
    if not scan["fd_checks_ok"]:
        return False, "fd spot check outside the term interval"
    if not scan["empirical_kappa"] > 0.0:
        return False, f"empirical kappa {scan['empirical_kappa']} <= 0"
    for row in scan["rows"]:
        r = row["r"]
        if delta <= r <= tail_start:
            continue
        terms = [v for k, v in row.items() if k not in ("r", "lower", "upper")]
        worst = max(abs(v + 1.0) for v in terms)
        if worst > HYPERBOLIC_TERM_TOL:
            return False, f"term off -1 by {worst:.2e} at r = {r}"
    return True, scan["empirical_kappa"]


def check_classify(report, ref_systoles, colimit_matches, base=None):
    """Systoles against the enumeration, the 2 pi flags against them, the
    shell colimit against the boundary cohomology, and, for a spec that is a
    unimodular change of another, systoles and flags equal to the base's."""
    got = [c[0] for c in report.per_cusp]
    if len(got) != len(ref_systoles):
        return False, "cusp count differs"
    for s, ref in zip(got, ref_systoles):
        if abs(s - ref) > SYSTOLE_RTOL * ref:
            return False, f"systole {s!r} != enumeration {ref!r}"
    two_pi = 2.0 * math.pi
    if [c[1] for c in report.per_cusp] != [ref > two_pi for ref in ref_systoles]:
        return False, "per-cusp 2 pi flags disagree with the enumeration"
    if report.flags["two_pi_filling"] != all(ref > two_pi for ref in ref_systoles):
        return False, "two_pi_filling flag disagrees with the enumeration"
    if not colimit_matches:
        return False, "shell colimit != boundary cohomology"
    if base is not None:
        if report.flags != base.flags:
            return False, "flags changed under a unimodular change of coefficients"
        for s, b in zip(got, (c[0] for c in base.per_cusp)):
            if abs(s - b) > SYSTOLE_RTOL * b:
                return False, "systole changed under a unimodular change of coefficients"
    return True, max(abs(s - ref) / ref for s, ref in zip(got, ref_systoles))
