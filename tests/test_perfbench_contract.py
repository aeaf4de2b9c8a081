"""The names the benchmark's tracer (perfbench/tracer.py) hooks into.

The tracer wraps library functions by module and attribute name and counts
integrand calls through ``adaptive_gauss``'s first argument; a rename or a
changed call shape would silently zero its per-layer figures.  This test
only reads perfbench/.
"""

import importlib.util
from pathlib import Path

import pytest

from warpfill import curvature_lab, warp_engine
from warpfill.curvature_lab import ScanConfig
from warpfill.numerics import ExpShift
from warpfill.warp_engine import WarpedSpace, WPoint

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture()
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    tr = module.Tracer()
    tr.install()
    try:
        yield tr
    finally:
        tr.uninstall()


def test_h2_solve_is_traced_layer_by_layer(tracer, h2_space):
    res = warp_engine.solve_geodesic(h2_space, WPoint(0.1, [0.0]), WPoint(-0.2, [0.8]))
    tracer.uninstall()
    summary = tracer.summary()
    assert summary["warp_engine.solve_geodesic.calls"] == 1
    assert summary["warp_engine.path_length.calls"] >= 1
    assert summary["warp_engine.path_length.inclusive_s"] > 0
    assert summary["numerics.adaptive_gauss.calls"] >= 1
    assert summary["numerics.adaptive_gauss.integrand_calls"] > 0
    assert summary["warp_engine.warp_eval.calls"] > 0
    # the segments of a path are measured in one batched quadrature call
    assert summary["numerics.adaptive_gauss.calls"] <= summary["warp_engine.path_length.calls"]
    assert len(res.path.vertices) > 2


def test_curvature_scan_is_one_array_pass(tracer, fg_space):
    curvature_lab.curvature_scan(fg_space, ScanConfig(0.205, 1.785, 101, fd_checks=2, seed=1))
    coarse = tracer.summary()
    curvature_lab.curvature_scan(fg_space, ScanConfig(0.205, 1.785, 4001, fd_checks=2, seed=1))
    both = tracer.summary()
    tracer.uninstall()
    assert coarse["curvature_lab.sectional_terms.calls"] == 1
    assert coarse["curvature_lab.fd_sectional.calls"] == 2
    # warp evaluations do not grow with the grid
    d_calls = "warp_functions.SmoothWarpFunction.d.calls"
    assert both[d_calls] - coarse[d_calls] == coarse[d_calls]


def test_fd_sectional_calls_do_not_grow_with_dimension(tracer):
    calls = []
    for k in (1, 2, 3):
        space = WarpedSpace(interval=(-3, 3), euclid_dim=k, warp_g=ExpShift(0.0))
        before = tracer.summary()["warp_engine.warp_eval.calls"]
        curvature_lab.fd_sectional(space, WPoint(0.2, [0.1] * k), (0, 1))
        calls.append(tracer.summary()["warp_engine.warp_eval.calls"] - before)
    tracer.uninstall()
    assert calls[0] > 0
    assert calls == [calls[0]] * 3


def test_uninstall_restores_the_library(tracer):
    tracer.uninstall()
    assert not hasattr(warp_engine.path_length, "__wrapped__")
    assert not hasattr(warp_engine.adaptive_gauss, "__wrapped__")
