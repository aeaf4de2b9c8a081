"""The names the benchmark's tracer (perfbench/tracer.py) hooks into.

The tracer wraps library functions by module and attribute name and counts
integrand calls through ``adaptive_gauss``'s first argument; a rename or a
changed call shape would silently zero its per-layer figures.  This test
only reads perfbench/.
"""

import importlib.util
from pathlib import Path

import pytest

from warpfill import warp_engine
from warpfill.warp_engine import WPoint

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


def test_uninstall_restores_the_library(tracer):
    tracer.uninstall()
    assert not hasattr(warp_engine.path_length, "__wrapped__")
    assert not hasattr(warp_engine.adaptive_gauss, "__wrapped__")
