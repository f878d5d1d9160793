"""The tracer leaves the program as it found it and does not change results.

    python -m pytest perfbench/tests -q
"""

import importlib
import json
import os

import numpy as np
import pytest

import checks
import layers
import run
import workloads
from tracer import Tracer, self_seconds

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def _bindings():
    found = {}
    for module_name, cls, attr, _, _ in layers.WRAPS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        found[module_name, cls, attr] = vars(owner)[attr]
    return found


def _exercise():
    """One small call into each in-process layer; returns comparable values."""
    from ratiotails import density, fitting, response, simulate
    Family = response.Family
    flows = density.OrderFlowParams(1.0, 1.0, 0.38, 0.38, -1.0)
    cfg = simulate.SimConfig(params=flows,
                             response=response.ResponseSpec(Family.POWER, 1.0),
                             tau0=1.0, dt=1e-8, n_steps=200_000, p0=1.0,
                             seed=20260600)
    series = simulate.simulate_path(cfg)
    w = fitting.WindowSpec(1e-8, 1e-6, 1e-6)
    changes = fitting.relative_changes(series, w)
    fit = fitting.fit_g(changes, [Family.POWER, Family.LOG])
    corr = density.OrderFlowParams(1.0, 1.0, 0.5, 0.5, -0.5)
    curve = density.ratio_density(corr, np.linspace(-1.0, 5.0, 21))
    transformed = density.TransformedDensity(
        corr, response.ResponseSpec(Family.LOG))(np.linspace(-2.0, 2.0, 8))
    return {"log_prices": series.log_prices, "changes": changes,
            "fit": (fit.response.family, fit.param_estimate, fit.scores,
                    fit.threshold, fit.nuisance_spread, fit.nuisance_scale),
            "curve": curve, "transformed": transformed}


def test_every_wrapped_name_is_restored():
    before = _bindings()
    tracer = layers.install()
    try:
        assert all(_bindings()[key] is not raw for key, raw in before.items())
        _exercise()
    finally:
        tracer.restore()
    assert tracer.spans
    after = _bindings()
    assert all(after[key] is raw for key, raw in before.items())


def test_traced_call_returns_identical_results():
    plain = _exercise()
    with layers.install() as tracer:
        traced = _exercise()
    names = {span.name for span in tracer.spans}
    assert {"simulate.path", "fitting.fit_g", "response.inverse",
            "density.ratio_density", "density.transform"} <= names
    for key in ("log_prices", "changes", "curve", "transformed"):
        assert np.array_equal(plain[key], traced[key]), key
    assert plain["fit"] == traced["fit"]


class _Toy:
    @classmethod
    def make(cls, x):
        return cls.inner(x) + 1

    @staticmethod
    def inner(x):
        if x < 0:
            raise ValueError("negative")
        return 2 * x


def test_spans_nest_record_errors_and_keep_classmethods():
    raw_make, raw_inner = vars(_Toy)["make"], vars(_Toy)["inner"]
    tracer = Tracer()
    tracer.wrap(_Toy, "make", "toy.make")
    tracer.wrap(_Toy, "inner", "toy.inner")
    try:
        assert _Toy.make(3) == 7
        with pytest.raises(ValueError):
            _Toy.make(-1)
    finally:
        tracer.restore()
    assert vars(_Toy)["make"] is raw_make and vars(_Toy)["inner"] is raw_inner
    make, inner = tracer.spans[0], tracer.spans[1]
    assert (make.name, inner.name) == ("toy.make", "toy.inner")
    assert inner.parent == 0 and make.parent is None
    assert tracer.spans[3].error == "ValueError"
    assert 0.0 <= self_seconds(tracer.spans, make) <= make.seconds


def test_layer_map_covers_every_declared_metric():
    with open(os.path.join(ROOT, "perfbench", "layer_map.json")) as fh:
        layer_map = json.load(fh)
    assert set(layer_map["workloads"]) == set(workloads.WORKLOADS)
    for workload in layer_map["workloads"].values():
        assert set(workload["end_to_end"]) == set(run.END_TO_END)
    mapped = {name.replace(".*", "") for name in layer_map["layers"]}
    assert all(name in mapped or name.rsplit(".", 1)[0] in mapped
               for name in layers.UNITS)


def test_references_agree_with_the_program():
    from ratiotails import density
    x = np.concatenate([np.linspace(-1.0, 5.0, 31), np.geomspace(1.0, 1e5, 31)])
    for rho in (-0.5, 0.0, 0.7):
        flows = density.OrderFlowParams(1.0, 1.0, 0.5, 0.5, rho)
        ref = checks.hinkley_density(1.0, 1.0, 0.5, 0.5, rho, x)
        assert checks.max_rel_error(density.ratio_density(flows, x), ref) < 1e-9
        assert abs(density.positive_ratio_mass(flows)
                   - checks.positive_mass(1.0, 1.0, 0.5, 0.5, rho)) < 1e-8
