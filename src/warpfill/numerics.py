"""Shared numerical utilities: scalar C2 function handles, smooth cutoff
functions, and adaptive Gauss-Legendre quadrature."""

from __future__ import annotations

import numbers

import numpy as np


def _is_number(x) -> bool:
    """A real number from a JSON document: bools are not numbers."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class ScalarC2:
    """A real function of one real variable with derivatives up to order 2.

    Subclasses override ``d(r, order)`` or ``jet(r, n)``, vectorized over
    numpy arrays; each defaults to the other.  ``jet`` returns the orders
    0..n together, so subclasses that can share work between the orders
    override it.  Entries of a jet may share memory (sinh is its own second
    derivative), so callers do not write into them.
    """

    def d(self, r, order=0):
        return self.jet(r, order)[order]

    def jet(self, r, n=2):
        """[d(r, 0), ..., d(r, n)]."""
        return [self.d(r, order) for order in range(n + 1)]

    def __call__(self, r):
        return self.d(r, 0)


class Sinh(ScalarC2):
    name = "sinh"

    def jet(self, r, n=2):
        s = np.sinh(r)
        c = np.cosh(r) if n else s
        return [(s, c)[order % 2] for order in range(n + 1)]


class Cosh(ScalarC2):
    name = "cosh"

    def jet(self, r, n=2):
        c = np.cosh(r)
        s = np.sinh(r) if n else c
        return [(c, s)[order % 2] for order in range(n + 1)]


class ExpShift(ScalarC2):
    """e^(r - shift)."""

    name = "exp_shift"

    def __init__(self, shift=0.0):
        self.shift = float(shift)

    def jet(self, r, n=2):
        return [np.exp(np.asarray(r, dtype=float) - self.shift)] * (n + 1)


class LinearR(ScalarC2):
    """f(r) = r."""

    name = "linear_r"

    def d(self, r, order=0):
        r = np.asarray(r, dtype=float)
        if order == 0:
            return r + 0.0
        if order == 1:
            return np.ones_like(r)
        return np.zeros_like(r)


class Const(ScalarC2):
    name = "const"

    def __init__(self, value=1.0):
        self.value = float(value)

    def d(self, r, order=0):
        r = np.asarray(r, dtype=float)
        if order == 0:
            return np.full_like(r, self.value)
        return np.zeros_like(r)


class ScaledExp(ScalarC2):
    """e^(r / c); rescaled hyperbolic warp used in curvature scale tests."""

    name = "scaled_exp"

    def __init__(self, c=1.0):
        self.c = float(c)

    def d(self, r, order=0):
        return np.exp(np.asarray(r, dtype=float) / self.c) / self.c**order


ANALYTIC_REGISTRY = {
    "sinh": Sinh,
    "cosh": Cosh,
    "exp_shift": ExpShift,
    "linear_r": LinearR,
    "const": Const,
    "scaled_exp": ScaledExp,
}


def as_scalar_c2(obj) -> ScalarC2:
    if isinstance(obj, ScalarC2):
        return obj
    raise TypeError(f"cannot interpret {obj!r} as a scalar C2 function")


def smoothstep(x):
    """C-infinity step: 0 for x<=0, 1 for x>=1, flat contact at both ends."""
    x = np.asarray(x, dtype=float)
    a = _bump_exp(x)
    b = _bump_exp(1.0 - x)
    return a / (a + b)


def _bump_exp(x):
    out = np.zeros_like(np.asarray(x, dtype=float))
    pos = x > 0
    with np.errstate(over="ignore", divide="ignore"):
        out[pos] = np.exp(-1.0 / x[pos])
    return out


def smooth_bump(x, a, b):
    """C-infinity bump supported on (a, b), peak value 1 at the midpoint."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    inside = (x > a) & (x < b)
    u = (x[inside] - a) / (b - a)
    out[inside] = np.exp(4.0 - 1.0 / (u * (1.0 - u)))
    return out


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

# adaptive_gauss's settings (see its docstring)
QUAD_REL_TOL = 1e-10
QUAD_ABS_FLOOR = 1e-14
QUAD_ORDER = 10
QUAD_MAX_DEPTH = 30


def gl_nodes(order):
    if order not in _GL_CACHE:
        x, w = np.polynomial.legendre.leggauss(order)
        _GL_CACHE[order] = (x, w)
    return _GL_CACHE[order]


def adaptive_gauss(fn, a, b):
    """Adaptive Gauss-Legendre quadrature of a smooth integrand over panels
    [a_i, b_i], batched: one integral per panel.

    ``fn`` must be vectorized; it is called with one flat array of nodes per
    round.  Each panel gets a scale, at least ``QUAD_ABS_FLOOR``, from the
    2 * ``QUAD_ORDER``-point rule over the whole panel.  A panel's
    ``QUAD_ORDER``-point estimate is compared with the sum over its two
    halves; a panel passes when they agree to ``QUAD_REL_TOL`` relative to
    max(scale, |halves|), or at ``QUAD_MAX_DEPTH`` bisections, and
    contributes the halves' sum.  Only the failing panels are bisected, all
    of them together in the next round.  Scalar ``a`` and ``b`` give a
    float, arrays an array of their broadcast shape.
    """
    x1, w1 = gl_nodes(QUAD_ORDER)
    x2, w2 = gl_nodes(2 * QUAD_ORDER)
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a_arr.shape
    lo, hi = a_arr.ravel(), b_arr.ravel()
    total = np.zeros(lo.size)
    if lo.size == 0:
        return total.reshape(shape)

    def evaluate(lo, hi, nodes):
        """fn at the nodes mapped into every panel, shape (panels, nodes),
        and the panels' half-widths."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = fn((mid[:, None] + half[:, None] * nodes).ravel())
        return np.reshape(vals, (lo.size, nodes.size)), half

    vals, half = evaluate(lo, hi, np.concatenate((x2, x1)))
    scale = np.maximum(np.abs(half * (vals[:, :x2.size] @ w2)), QUAD_ABS_FLOOR)
    coarse = half * (vals[:, x2.size:] @ w1)
    owner = np.arange(lo.size)
    depth = 0
    while owner.size:
        mid = 0.5 * (lo + hi)
        vals, half = evaluate(np.concatenate((lo, mid)), np.concatenate((mid, hi)), x1)
        halves = half * (vals @ w1)
        left, right = halves[:owner.size], halves[owner.size:]
        fine = left + right
        done = np.abs(fine - coarse) <= QUAD_REL_TOL * np.maximum(scale[owner], np.abs(fine))
        if depth >= QUAD_MAX_DEPTH:
            done[:] = True
        np.add.at(total, owner[done], fine[done])
        split = ~done
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        coarse = np.concatenate((left[split], right[split]))
        owner = np.concatenate((owner[split], owner[split]))
        depth += 1
    return float(total[0]) if shape == () else total.reshape(shape)
