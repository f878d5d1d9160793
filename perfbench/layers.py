"""Where the traced run wraps the program, and the per-layer metrics.

Each entry of ``WRAPS`` names a module, optionally a class in it, the
attribute to wrap there and the span it records.  A function is wrapped in
every namespace its callers read it from: ``ratiotails.cli`` binds its
imports at import time, ``ratiotails.fitting`` reads ``ratio_density``
from its own globals and ``ratiotails.density`` from its own.
"""

from __future__ import annotations

import importlib
import json
import os

import numpy as np

from tracer import Tracer, self_seconds, total, within


def _points(pos):
    def extra(args, kwargs, result):
        return {"points": int(np.size(args[pos]))}
    return extra


def _file_bytes(pos):
    def extra(args, kwargs, result):
        return {"bytes": os.path.getsize(args[pos])}
    return extra


def _fit_counts(args, kwargs, result):
    changes = np.abs(np.asarray(args[0], dtype=float))
    return {"n_changes": int(result.n_samples),
            "n_exceedances": int(np.count_nonzero(changes > result.threshold))}


WRAPS = (
    ("ratiotails.simulate", None, "simulate_path", "simulate.path", None),
    ("ratiotails.simulate", None, "simulate_gbm", "simulate.gbm", None),
    ("ratiotails.simulate", None, "sample_ratio", "simulate.draw", None),
    ("ratiotails.response", "ResponseSpec", "value", "response.value", None),
    ("ratiotails.response", "ResponseSpec", "inverse", "response.inverse", None),
    ("ratiotails.fitting", None, "relative_changes", "fitting.changes", None),
    ("ratiotails.fitting", None, "fit_g", "fitting.fit_g", _fit_counts),
    ("ratiotails.fitting", None, "ratio_density", "density.ratio_density", _points(1)),
    ("ratiotails.density", None, "ratio_density", "density.ratio_density", _points(1)),
    ("ratiotails.density", None, "ratio_density_anticorr", "density.exact", _points(1)),
    ("ratiotails.density", None, "ratio_cdf_anticorr", "density.exact", _points(1)),
    ("ratiotails.density", None, "positive_ratio_mass", "density.positive_mass", None),
    ("ratiotails.density", None, "transform_density", "density.transform", _points(2)),
    ("ratiotails.density", None, "tail_prediction", "density.tail_prediction", None),
    ("ratiotails.fileio", "RunManifest", "save", "fileio.manifest", None),
    ("ratiotails.fileio", "RunManifest", "load", "fileio.manifest", None),
    ("ratiotails.cli", None, "main", "cli.main", None),
    ("ratiotails.cli", None, "check_admissibility", "response.check", None),
    ("ratiotails.cli", None, "simulate_path", "simulate.path", None),
    ("ratiotails.cli", None, "simulate_gbm", "simulate.gbm", None),
    ("ratiotails.cli", None, "fit_price_series", "fitting.fit_price_series", None),
    ("ratiotails.cli", None, "classify_tail", "tails.classify",
     lambda args, kwargs, result: {"k_used": int(result.k_used)}),
    ("ratiotails.cli", None, "threshold_sweep", "tails.sweep", None),
    ("ratiotails.cli", None, "save_price_series", "fileio.save_prices", _file_bytes(1)),
    ("ratiotails.cli", None, "load_price_series", "fileio.load_prices", _file_bytes(0)),
    ("ratiotails.cli", None, "sha256_file", "fileio.sha256", None),
)

COMMANDS = ("check", "simulate", "fit", "tails", "replay")

BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "BENCHMARK.json")


def declared(kind: str) -> dict:
    """Metric name -> unit for ``kind`` ("end_to_end" or "per_layer"), as
    BENCHMARK.json declares them; "s/op" is seconds inside the layer per
    operation."""
    with open(BENCHMARK_JSON) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


UNITS = declared("per_layer")

_PER_OP = {
    "fileio.save_prices_s": "fileio.save_prices",
    "fileio.load_prices_s": "fileio.load_prices",
    "fileio.sha256_s": "fileio.sha256",
    "fileio.manifest_s": "fileio.manifest",
    "simulate.path_s": "simulate.path",
    "simulate.gbm_s": "simulate.gbm",
    "response.value_s": "response.value",
    "response.inverse_s": "response.inverse",
    "fitting.changes_s": "fitting.changes",
    "fitting.fit_g_s": "fitting.fit_g",
    "density.positive_mass_s": "density.positive_mass",
    "density.tail_prediction_s": "density.tail_prediction",
    "tails.classify_s": "tails.classify",
    "tails.sweep_s": "tails.sweep",
}


def install() -> Tracer:
    """A tracer with every entry of WRAPS in place."""
    tracer = Tracer()
    for module_name, cls, attr, span, extra in WRAPS:
        owner = importlib.import_module(module_name)
        if cls is not None:
            owner = getattr(owner, cls)
        tracer.wrap(owner, attr, span, extra)
    return tracer


def _first(spans, name):
    return next((s for s in spans if s.name == name), None)


def _per_unit(spans, name, key, scale):
    """Seconds per unit of ``extra[key]`` over spans of ``name``, scaled."""
    chosen = [s for s in spans if s.name == name and s.extra]
    units = sum(s.extra[key] for s in chosen)
    return scale * sum(s.seconds for s in chosen) / units if units else 0.0


def _mb_per_s(spans, name):
    chosen = [s for s in spans if s.name == name and s.extra]
    seconds = sum(s.seconds for s in chosen)
    return sum(s.extra["bytes"] for s in chosen) / 1e6 / seconds if seconds else 0.0


def likelihood_evals(spans) -> int:
    """Calls to ResponseSpec.inverse inside the first fit_g of ``spans``."""
    fit = _first(spans, "fitting.fit_g")
    return sum(s.name == "response.inverse" for s in within(spans, fit)) if fit else 0


def cli_overhead(spans) -> float:
    """Self time of every cli.main span of one command: argparse, manifest
    bookkeeping and printing, with all traced layer calls taken out."""
    return sum(self_seconds(spans, s) for s in spans if s.name == "cli.main")


def compute(ops, op_spans, probes) -> dict:
    """Per-layer metrics from the traced operations and the probes.

    ``ops`` are the traced operations (first one first), ``op_spans`` one
    span list per operation.  Counts come from the first operation, so they
    repeat exactly for a seed.  ``probes`` holds values measured outside
    the spans: imports, draws, bootstrap, CLI overheads, rejection rate
    and tracing overhead.
    """
    spans = [s for group in op_spans for s in group]
    out = {metric: total(spans, name) / len(ops)
           for metric, name in _PER_OP.items()}

    fits = [s for s in spans if s.name == "fitting.fit_g"]
    in_fits = {id(s) for f in fits for s in within(spans, f)}
    quad = [s for s in spans
            if s.name == "density.ratio_density" and id(s) not in in_fits]
    out["density.quad_ms_per_point"] = _per_unit(
        quad, "density.ratio_density", "points", 1e3)
    out["density.exact_us_per_point"] = _per_unit(
        spans, "density.exact", "points", 1e6)
    out["density.transform_ms_per_point"] = _per_unit(
        spans, "density.transform", "points", 1e3)
    out["density.quadrature_errors"] = sum(
        s.error == "QuadratureError" for s in spans)

    out["fileio.write_mb_per_s"] = _mb_per_s(spans, "fileio.save_prices")
    out["fileio.read_mb_per_s"] = _mb_per_s(spans, "fileio.load_prices")
    save = _first(spans, "fileio.save_prices")
    out["fileio.prices_mb"] = save.extra["bytes"] / 1e6 if save and save.extra else 0.0

    first = op_spans[0]
    fit = _first(first, "fitting.fit_g")
    inside = within(first, fit) if fit else []
    out["fitting.likelihood_evals"] = likelihood_evals(first)
    out["fitting.n_changes"] = fit.extra["n_changes"] if fit else 0
    out["fitting.n_exceedances"] = fit.extra["n_exceedances"] if fit else 0
    corr = [s for s in inside if s.name == "density.ratio_density"]
    out["density.calls_in_corr_fit"] = len(corr)
    out["density.time_in_corr_fit_s"] = sum(s.seconds for s in corr)
    classify = _first(first, "tails.classify")
    out["tails.k_used"] = classify.extra["k_used"] if classify else 0

    roots = sum(s.seconds for s in spans if s.parent is None)
    out["trace.coverage_frac"] = roots / sum(op.seconds for op in ops)
    out.update(probes)
    missing = set(UNITS) - set(out)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return out
