import numpy as np
import pytest

from warpfill.model_spaces import LatticeTorus
from warpfill.numerics import Cosh, ExpShift, Sinh
from warpfill.warp_engine import WarpedSpace
from warpfill.warp_functions import build_fg


def h2_chart(pt):
    """Isometry R x_{e^r} E^1 -> upper half-plane, (r, x) -> x + i e^(-r)."""
    return complex(pt.e[0], np.exp(-pt.r))


@pytest.fixture(scope="session")
def fg_pair():
    """The lambda = 1.6, delta0 = 0.2 warping pair (built once per run)."""
    f, g, delta, kappa_floor = build_fg(1.6, 0.2)
    return {"f": f, "g": g, "delta": delta, "kappa_floor": kappa_floor, "lam": 1.6}


@pytest.fixture(scope="session")
def h2_space():
    """R x_{e^r} E^1, an isometric copy of the hyperbolic plane."""
    return WarpedSpace(interval=(-6.0, 6.0), euclid_dim=1, warp_g=ExpShift(0.0))


@pytest.fixture(scope="session")
def singular_model():
    """[0, 3] x_{cosh} E^1 x_{sinh} T^1, torus circumference 7."""
    return WarpedSpace(
        interval=(0.0, 3.0),
        euclid_dim=1,
        warp_g=Cosh(),
        torus=LatticeTorus(np.eye(1) * 7.0),
        warp_f=Sinh(),
    )


@pytest.fixture(scope="session")
def fg_space(fg_pair):
    """Doubly warped space built from the constructed (f, g) pair."""
    return WarpedSpace(
        interval=(0.0, 2.6),
        euclid_dim=1,
        warp_g=fg_pair["g"],
        torus=LatticeTorus(np.eye(1) * 7.0),
        warp_f=fg_pair["f"],
    )
