"""Shared numerical utilities: scalar C2 function handles, smooth cutoff
functions, and adaptive Gauss-Kronrod quadrature."""

from __future__ import annotations

import numbers

import numpy as np


def _is_number(x) -> bool:
    """A real number from a JSON document: bools are not numbers."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


class ScalarC2:
    """A real function of one real variable with derivatives up to order 2.

    Subclasses implement ``jet(r, n)``, vectorized over numpy arrays: the
    orders 0..n together, so that the orders share their work.  ``d`` reads
    one order of it.  Entries of a jet may share memory (sinh is its own
    second derivative), so callers do not write into them.
    """

    def d(self, r, order=0):
        return self.jet(r, order)[order]

    def jet(self, r, n=2):
        """[d(r, 0), ..., d(r, n)]."""
        raise NotImplementedError(f"{type(self).__name__} implements no jet")

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

    def jet(self, r, n=2):
        r = np.asarray(r, dtype=float)
        return [r + 0.0, np.ones_like(r), np.zeros_like(r)][:n + 1]


class Const(ScalarC2):
    name = "const"

    def __init__(self, value=1.0):
        self.value = float(value)

    def jet(self, r, n=2):
        r = np.asarray(r, dtype=float)
        return [np.full_like(r, self.value)] + [np.zeros_like(r)] * n


class ScaledExp(ScalarC2):
    """e^(r / c); rescaled hyperbolic warp used in curvature scale tests."""

    name = "scaled_exp"

    def __init__(self, c=1.0):
        self.c = float(c)

    def jet(self, r, n=2):
        e = np.exp(np.asarray(r, dtype=float) / self.c)
        return [e / self.c**order for order in range(n + 1)]


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


# the 21-point Gauss-Kronrod rule on [-1, 1] and its embedded 10-point
# Gauss rule (QUADPACK's qk21): the nodes x >= 0, largest first, with their
# Kronrod weights, and the Gauss weights of the nodes at odd positions
_KRONROD_X = np.array([
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
    0.0,
])
_KRONROD_W = np.array([
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_GAUSS_W = np.array([
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
])
GK_NODES = np.concatenate((_KRONROD_X, -_KRONROD_X[-2::-1]))
GK_WEIGHTS = np.concatenate((_KRONROD_W, _KRONROD_W[-2::-1]))
GAUSS_WEIGHTS = np.zeros(GK_NODES.size)
GAUSS_WEIGHTS[1:10:2] = _GAUSS_W
GAUSS_WEIGHTS[11:20:2] = _GAUSS_W[::-1]

# adaptive_gauss's settings (see its docstring)
QUAD_REL_TOL = 1e-10
QUAD_ABS_FLOOR = 1e-14
QUAD_MAX_DEPTH = 30


def adaptive_gauss(fn, a, b):
    """Adaptive Gauss-Kronrod quadrature of a smooth integrand over panels
    [a_i, b_i], batched: one integral per panel.

    ``fn`` must be vectorized; it is called with one flat array of nodes per
    round.  Every piece, a panel or a half of a failing piece, gets the
    21-point Kronrod and the embedded 10-point Gauss estimates from the same
    21 integrand values; each panel's first Kronrod estimate, at least
    ``QUAD_ABS_FLOOR``, is its scale.  A piece passes when its two estimates
    agree to ``QUAD_REL_TOL`` relative to max(scale, |Kronrod|), or at
    ``QUAD_MAX_DEPTH`` bisections, and contributes its Kronrod estimate,
    which is far closer than the Gauss one that the test bounds.  Only the
    failing pieces are bisected, all of them together in the next round.
    Scalar ``a`` and ``b`` give a float, arrays an array of their broadcast
    shape.
    """
    a_arr, b_arr = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = a_arr.shape
    lo, hi = a_arr.ravel(), b_arr.ravel()
    total = np.zeros(lo.size)
    owner = np.arange(lo.size)
    scale = None
    depth = 0
    while owner.size:
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        vals = np.reshape(fn((mid[:, None] + half[:, None] * GK_NODES).ravel()), (lo.size, GK_NODES.size))
        kronrod, gauss = half * (vals @ GK_WEIGHTS), half * (vals @ GAUSS_WEIGHTS)
        if scale is None:
            scale = np.maximum(np.abs(kronrod), QUAD_ABS_FLOOR)
        done = np.abs(kronrod - gauss) <= QUAD_REL_TOL * np.maximum(scale[owner], np.abs(kronrod))
        if depth >= QUAD_MAX_DEPTH:
            done[:] = True
        np.add.at(total, owner[done], kronrod[done])
        split = ~done
        lo = np.concatenate((lo[split], mid[split]))
        hi = np.concatenate((mid[split], hi[split]))
        owner = np.concatenate((owner[split], owner[split]))
        depth += 1
    return float(total[0]) if shape == () else total.reshape(shape)
