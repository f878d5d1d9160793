"""Command-line surface: exit codes, artifacts, manifest replay."""

import math
import os
import subprocess
import sys
import time
import warnings
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest

import ratiotails
from ratiotails import (Family, OrderFlowParams, PriceSeries, ResponseSpec,
                        ScaledResponse, TransformedDensity, WindowSpec, cli,
                        fitting, ratio_density_anticorr)
from ratiotails.cli import main
from ratiotails.fileio import (load_density_curve, load_price_series,
                               load_samples, parse_key_values,
                               save_price_series, save_samples, sha256_file)


def run(*argv) -> int:
    return main([str(a) for a in argv])


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def test_check_sym_passes(capsys):
    assert run("check", "--family", "sym") == 0
    out = capsys.readouterr().out
    assert "admissible: yes" in out
    assert out.count("PASS") >= 5


def test_check_log_fails_with_note(capsys):
    assert run("check", "--family", "log") == 1
    out = capsys.readouterr().out
    assert "(iv)" in out and "FAIL" in out
    assert "x*g'(x) = 1 for all x: PASS" in out


def test_check_power_requires_param(capsys):
    assert run("check", "--family", "power") == 2


def test_check_table_counterexample(tmp_path, capsys):
    xs = np.geomspace(1 / 32, 32, 120)
    table = tmp_path / "g.csv"
    table.write_text("x,g\n" + "\n".join(
        f"{float(x)!r},{float(x - 1.0)!r}" for x in xs) + "\n")
    code = run("check", "--table", table, "--grid-max-log", math.log(16.0),
               "--grid-points", 40)
    assert code == 1
    out = capsys.readouterr().out
    assert "(iii) g(x) = -g(1/x): FAIL" in out


def test_check_grid_too_small_to_test_exits_2(tmp_path, capsys):
    # log x, tabulated with a node at 1: on the lone grid point 1 it
    # would pass (iv) and (v) vacuously; a zero range is no grid at all
    h = math.log(32.0) / 60
    table = tmp_path / "g.csv"
    table.write_text("x,g\n" + "\n".join(
        f"{math.exp(k * h)!r},{k * h!r}" for k in range(-60, 61)) + "\n")
    assert run("check", "--table", table, "--grid-points", 0) == 2
    assert "admissible" not in capsys.readouterr().out
    assert run("check", "--family", "sym", "--grid-max-log", 0) == 2
    # exp overflows past log(float max): the message names the limit
    for max_log in ("1e6", "inf"):
        capsys.readouterr()
        assert run("check", "--family", "sym", "--grid-max-log", max_log) == 2
        err = capsys.readouterr().err
        assert "709.783" in err and f"max_log={float(max_log):g}" in err
    # a grid inside float range on which g' or g'' overflows: the
    # message names the first such point and the quantity
    for max_log, name, x in (("709.78", "g'", "5.5778e-309"),
                             ("300", "g''", "5.1482e-131")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("check", "--family", "sym",
                       "--grid-max-log", max_log) == 2
        captured = capsys.readouterr()
        assert "admissible" not in captured.out
        assert f"{name}(x) is not finite at grid point x={x}" in captured.err


def test_check_malformed_table(tmp_path):
    table = tmp_path / "g.csv"
    table.write_text("a,b\n1,2\n")
    assert run("check", "--table", table) == 2


def test_check_normalized_response(capsys):
    assert run("check", "--family", "power", "--q", 2, "--normalize") == 0
    assert "admissible: yes" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# density
# ---------------------------------------------------------------------------

def test_density_exact_branch_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert run("density", "--mu1", 1, "--mu2", 1, "--sigma1", 0.2,
               "--sigma2", 0.2, "--rho", -1, "--x-min", -1, "--x-max", 5,
               "--points", 201, "--out", out) == 0
    curve = load_density_curve(str(out))
    assert curve.method.value == "exact"
    params = OrderFlowParams(1, 1, 0.2, 0.2, -1.0)
    assert np.allclose(curve.values,
                       ratio_density_anticorr(params, curve.grid), rtol=1e-12)
    assert "mass=" in capsys.readouterr().out
    assert os.path.exists(str(out) + ".manifest")


@pytest.mark.parametrize("argv", [
    ("--rho", -0.5),
    ("--rho", -0.5, "--transform", "log"),
    ("--rho", -1, "--transform", "pow", "--q", 2),
], ids=["correlated", "transformed", "power-map"])
def test_density_model_curves_are_labelled_exact(tmp_path, argv):
    out = tmp_path / "curve.csv"
    assert run("density", *argv, "--x-min", 0.1, "--x-max", 4,
               "--points", 21, "--out", out) == 0
    assert load_density_curve(str(out)).method.value == "exact"


def test_density_rejects_a_grid_that_is_not_finite(tmp_path, capsys):
    # a log grid from 1 down to -5 would be NaN throughout: the range is
    # refused before numpy is asked for it, so no warning comes first
    out = tmp_path / "curve.csv"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run("density", "--log-grid", "--x-min", 1, "--x-max", -5,
                   "--points", 11, "--out", out) == 2
    assert caught == []
    assert "--x-max must exceed --x-min" in capsys.readouterr().err
    assert not out.exists()


def test_density_near_zero_mean_diagnostic_reproduces_cauchy(tmp_path):
    # vanishing means: the ratio degenerates to the standard Cauchy
    out = tmp_path / "cauchy.csv"
    assert run("density", "--mu1", 1e-12, "--mu2", 1e-12, "--sigma1", 1,
               "--sigma2", 1, "--rho", 0, "--x-min", -0.5, "--x-max", 0.5,
               "--points", 11, "--out", out) == 0
    curve = load_density_curve(str(out))
    mid = curve.values[5]
    assert mid == pytest.approx(1.0 / math.pi, rel=1e-9)


def test_density_power_map_matches_closed_form(tmp_path):
    out = tmp_path / "powcurve.csv"
    assert run("density", "--sigma1", 0.5, "--sigma2", 0.5, "--rho", -1,
               "--transform", "pow", "--q", 2, "--x-min", 0.1, "--x-max", 9,
               "--points", 30, "--out", out) == 0
    curve = load_density_curve(str(out))
    from ratiotails import positive_ratio_mass
    params = OrderFlowParams(1, 1, 0.5, 0.5, -1.0)
    pos = positive_ratio_mass(params)
    roots = np.sqrt(curve.grid)
    expected = ratio_density_anticorr(params, roots) * roots \
        / (2.0 * curve.grid) / pos
    assert np.allclose(curve.values, expected, rtol=1e-10)


def test_density_log_transform_tail(tmp_path):
    out = tmp_path / "logcurve.csv"
    assert run("density", "--sigma1", 0.5, "--sigma2", 0.5, "--rho", -1,
               "--transform", "log", "--x-min", 5, "--x-max", 12,
               "--points", 29, "--out", out) == 0
    curve = load_density_curve(str(out))
    slope = curve.semilog_tail_slope(5.0, 12.0)
    assert slope == pytest.approx(-1.0, abs=0.1)


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_same_seed_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ("simulate", "--model", "ratio", "--family", "sym",
            "--sigma1", 0.35, "--sigma2", 0.35, "--dt", 1e-4,
            "--steps", 5000, "--seed", 7)
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_threads_do_not_change_output(tmp_path, monkeypatch):
    # 200 000 rows are four CSV chunks: the default (the usable CPUs) and
    # --threads 4 format them in forked workers
    monkeypatch.delenv("RATIOTAILS_THREADS", raising=False)
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ("simulate", "--model", "gbm", "--mu", 0.05, "--sigma", 0.2,
            "--dt", 0.01, "--steps", 200000, "--seed", 11)
    assert run(*args, "--out", a, "--threads", 1) == 0
    assert run(*args, "--out", b, "--threads", 4) == 0
    assert run(*args, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


def test_simulate_gbm_zero_vol_exact(tmp_path):
    out = tmp_path / "flat.csv"
    assert run("simulate", "--model", "gbm", "--mu", 0.1, "--sigma", 0,
               "--dt", 0.5, "--steps", 100, "--p0", 2.0, "--seed", 1,
               "--out", out) == 0
    series = load_price_series(str(out))
    assert np.allclose(series.prices, 2.0 * np.exp(0.1 * series.times),
                       rtol=1e-12)


def test_simulate_rejects_bad_config(tmp_path):
    out = tmp_path / "x.csv"
    assert run("simulate", "--model", "ratio", "--dt", 2.0, "--tau0", 1.0,
               "--steps", 10, "--out", out) == 2
    assert not out.exists()


# ---------------------------------------------------------------------------
# tails
# ---------------------------------------------------------------------------

def test_tails_on_sample_file(tmp_path, capsys):
    rng = np.random.default_rng(19)
    samples = rng.random(200000) ** -1.0  # unit survival index
    path = tmp_path / "samples.csv"
    save_samples(samples, str(path))
    report_path = tmp_path / "report.txt"
    assert run("tails", "--samples", path, "--out", report_path) == 0
    kv = parse_key_values(report_path.read_text())
    assert kv["class"] == "power_law"
    assert float(kv["estimate"]) == pytest.approx(2.0, abs=0.15)
    assert any(k.startswith("sweep.") for k in kv)


def test_tails_from_prices_as_returns(tmp_path):
    prices = tmp_path / "prices.csv"
    assert run("simulate", "--model", "gbm", "--mu", 0.0, "--sigma", 0.2,
               "--dt", 0.01, "--steps", 200000, "--seed", 23,
               "--out", prices) == 0
    out = tmp_path / "report.txt"
    assert run("tails", "--prices", prices, "--as-returns", 0.01,
               "--out", out) == 0
    kv = parse_key_values(out.read_text())
    assert kv["class"] == "exponential"  # thin-tailed baseline


def test_tails_rejects_ragged_timestamps(tmp_path, capsys):
    # 20k steps of 1e-6 then 20k of 5e-6: the median step is 1e-6, but
    # the series is not uniform, and fit rejects the same file
    rng = np.random.default_rng(41)
    t = np.arange(20002) * 1e-6
    t = np.concatenate([t, t[-1] + np.arange(1, 20001) * 5e-6])
    prices = np.exp(np.cumsum(1e-3 * rng.standard_t(3, t.size)))
    path = tmp_path / "ragged.csv"
    save_price_series(PriceSeries.from_prices(t, prices), str(path))
    assert run("tails", "--prices", path, "--as-returns", 1e-6) == 2
    assert "uniformly spaced" in capsys.readouterr().err
    assert run("fit", "--prices", path, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4) == 2


def test_tails_input_validation(tmp_path):
    assert run("tails") == 2
    missing = tmp_path / "none.csv"
    assert run("tails", "--samples", missing) == 2
    small = tmp_path / "small.csv"
    save_samples(np.arange(1.0, 50.0), str(small))
    assert run("tails", "--samples", small) == 2


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_tails_rejects_non_finite_values(tmp_path, capsys, bad):
    # fit rejects non-finite changes: tails rejects such samples, and the
    # price loader that fit and tails share rejects such prices
    rng = np.random.default_rng(43)
    samples = rng.random(20000) ** -1.0
    samples[5] = bad
    path = tmp_path / "samples.csv"
    save_samples(samples, str(path))
    t = np.arange(20000) * 1e-6
    prices = np.exp(np.cumsum(1e-3 * rng.standard_normal(t.size)))
    rows = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), prices.tolist())]
    # t = 1e-4 opens a fit window: an inf there gives the finite change -1/dt
    rows[100] = rows[100].split(",")[0] + f",{bad!r}"
    price_path = tmp_path / "prices.csv"
    price_path.write_text("t,price\n" + "\n".join(rows) + "\n")
    for argv, what in (
            (("tails", "--samples", path), "samples"),
            (("tails", "--prices", price_path, "--as-returns", 1e-6),
             "prices"),
            (("fit", "--prices", price_path, "--delta-t", 1e-6,
              "--big-delta-t", 1e-4, "--stride", 1e-4), "prices")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(*argv) == 2
        err = capsys.readouterr().err
        assert f"non-finite {what}: 1 of 20000" in err and repr(bad) in err


def test_nonpositive_price_is_named_with_its_row(tmp_path, capsys):
    rng = np.random.default_rng(44)
    t = np.arange(20000) * 1e-6
    prices = np.exp(np.cumsum(1e-3 * rng.standard_normal(t.size)))
    rows = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), prices.tolist())]
    rows[100] = rows[100].split(",")[0] + ",0.0"  # data row 101
    path = tmp_path / "prices.csv"
    path.write_text("t,price\n" + "\n".join(rows) + "\n")
    for argv in (("tails", "--prices", path, "--as-returns", 1e-6),
                 ("fit", "--prices", path, "--delta-t", 1e-6,
                  "--big-delta-t", 1e-4, "--stride", 1e-4)):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert "nonpositive prices: 1 of 20000, the first is 0.0 at row 101" \
            in err


def test_degenerate_tail_sample_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(45)
    path = tmp_path / "samples.csv"
    save_samples(np.concatenate([rng.random(990), np.full(10, 5.0)]),
                 str(path))
    assert run("tails", "--samples", path) == 2
    assert "all exceedances are identical" in capsys.readouterr().err


def _error_types(base):
    for sub in base.__subclasses__():
        yield sub
        yield from _error_types(sub)


def test_exit_code_follows_the_error_type(tmp_path, monkeypatch, capsys):
    # every package error that is a ValueError is bad input (2); the
    # runtime ones fail (1), a family tie aside (3)
    path = tmp_path / "samples.csv"
    save_samples(np.arange(1.0, 200.0), str(path))
    types = sorted(_error_types(ratiotails.errors.RatioTailsError),
                   key=lambda e: e.__name__)
    assert len(types) == 14
    for error in types:
        def fail(*args, error=error, **kwargs):
            raise error("injected")

        monkeypatch.setattr(cli, "load_samples", fail)
        want = (3 if error is ratiotails.errors.NonIdentifiableError
                else 2 if issubclass(error, ValueError) else 1)
        assert run("tails", "--samples", path) == want, error.__name__
        assert "injected" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def _simulate_prices(tmp_path, name, family="power", q="1", steps=200000,
                     seed=29):
    path = tmp_path / name
    args = ["simulate", "--model", "ratio", "--family", family,
            "--sigma1", "0.38", "--sigma2", "0.38", "--dt", "1e-6",
            "--tau0", "1.0", "--steps", str(steps), "--seed", str(seed),
            "--out", str(path)]
    if q is not None:
        args.extend(["--q", q])
    assert run(*args) == 0
    return path


def test_fit_recovers_power_from_file(tmp_path):
    prices = _simulate_prices(tmp_path, "p.csv")
    report = tmp_path / "fit.txt"
    overlay = tmp_path / "overlay.csv"
    code = run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4,
               "--candidates", "power,log", "--out", report,
               "--overlay", overlay)
    assert code == 0
    kv = parse_key_values(report.read_text())
    assert kv["family"] == "power"
    assert float(kv["param"]) == pytest.approx(1.0, rel=0.25)
    header = overlay.read_text().splitlines()[0]
    assert header == "x,f_model,f_empirical"
    # the model column is the fitted law pushed through s g by the
    # linear-space change of variables of ``density``
    x, f_model, _ = np.loadtxt(overlay, delimiter=",", skiprows=1).T
    nu = float(kv["nuisance_spread"])
    response = ScaledResponse(ResponseSpec(Family.POWER, float(kv["param"])),
                              float(kv["nuisance_scale"]))
    want = TransformedDensity(OrderFlowParams(1.0, 1.0, nu, nu, -1.0),
                              response)(x)
    np.testing.assert_allclose(f_model, want, rtol=1e-12, atol=0.0)


def test_fit_overlay_takes_interpolated_changes(tmp_path):
    # every 97th row dropped: gaps of 2 steps, beyond delta_t / 2
    prices = _simulate_prices(tmp_path, "p.csv", steps=50000)
    head, *rows = prices.read_text().splitlines()
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("\n".join(
        [head] + [r for i, r in enumerate(rows) if i % 97 != 96]) + "\n")
    overlay = tmp_path / "overlay.csv"
    argv = ["fit", "--prices", ragged, "--delta-t", 1e-6,
            "--big-delta-t", 1e-4, "--stride", 1e-4]
    assert run(*argv, "--overlay", overlay) == 2
    assert run(*argv, "--interpolate", "--overlay", overlay) == 0
    assert overlay.read_text().startswith("x,f_model,f_empirical\n")
    assert os.path.isfile(f"{overlay}.manifest")


def test_fit_overlay_extracts_the_changes_once(tmp_path, monkeypatch):
    prices = _simulate_prices(tmp_path, "p.csv", steps=50000)
    extract, calls = fitting.relative_changes, []

    def counted(*args, **kwargs):
        calls.append(args)
        return extract(*args, **kwargs)

    monkeypatch.setattr(fitting, "relative_changes", counted)
    report, overlay = tmp_path / "fit.txt", tmp_path / "overlay.csv"
    assert run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4, "--out", report,
               "--overlay", overlay) == 0
    assert len(calls) == 1
    # the same bytes as the overlay of a second, fresh extraction
    kv = parse_key_values(report.read_text())
    fitted = SimpleNamespace(
        response=ResponseSpec(Family(kv["family"]),
                              float(kv["param"]) if kv["param"] else None),
        nuisance_spread=float(kv["nuisance_spread"]),
        nuisance_scale=float(kv["nuisance_scale"]), rho=-1.0)
    fresh = tmp_path / "fresh.csv"
    cli._write_overlay(extract(load_price_series(str(prices)),
                               WindowSpec(1e-6, 1e-4, 1e-4)),
                       fitted, str(fresh))
    assert overlay.read_bytes() == fresh.read_bytes()


def test_fit_at_a_given_correlation_records_and_replays_it(tmp_path):
    prices = _simulate_prices(tmp_path, "p.csv", steps=50000)
    report, overlay = tmp_path / "fit.txt", tmp_path / "overlay.csv"
    argv = ["fit", "--prices", prices, "--delta-t", 1e-6,
            "--big-delta-t", 1e-4, "--stride", 1e-4]
    assert run(*argv, "--rho", -0.5, "--out", report,
               "--overlay", overlay) == 0
    manifest = tmp_path / "fit.txt.manifest"
    assert parse_key_values(manifest.read_text())["param.rho"] == "-0.5"
    # the overlay draws the law at the fitted correlation
    kv = parse_key_values(report.read_text())
    assert kv["family"] == "power"
    x, f_model, _ = np.loadtxt(overlay, delimiter=",", skiprows=1).T
    nu = float(kv["nuisance_spread"])
    response = ScaledResponse(ResponseSpec(Family.POWER, float(kv["param"])),
                              float(kv["nuisance_scale"]))
    want = TransformedDensity(OrderFlowParams(1.0, 1.0, nu, nu, -0.5),
                              response)(x)
    np.testing.assert_allclose(f_model, want, rtol=1e-12, atol=0.0)
    first, drawn = report.read_bytes(), overlay.read_bytes()
    again = tmp_path / "again.txt"
    assert run("replay", manifest, "--out", again) == 0
    assert again.read_bytes() == first
    assert overlay.read_bytes() == drawn
    for bad in (1, 1.5, -1.01, "nan"):
        assert run(*argv, "--rho", bad) == 2


def test_fit_non_identifiable_exit_code(tmp_path, capsys):
    prices = _simulate_prices(tmp_path, "p2.csv", seed=31)
    code = run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4,
               "--candidates", "power,oddpower")
    assert code == 3
    assert "non-identifiable" in capsys.readouterr().err


@pytest.mark.parametrize("command,option,value", [
    ("fit", "--candidates", "power,foo"),
    ("fit", "--candidates", "sym,sym"),
    ("fit", "--threshold-quantile", 1.5),
    ("tails", "--threshold-quantile", 1.5),
    ("tails", "--as-returns", "nan"),
    ("tails", "--as-returns", "inf"),
    ("tails", "--as-returns", 1),
    ("tails", "--as-returns", 1e300),
    ("tails", "--candidates", "power,power"),
    ("fit", "--big-delta-t", "inf"),
    ("fit", "--stride", "inf"),
], ids=["unknown-candidate", "repeated-candidate", "fit-quantile",
        "tails-quantile", "returns-nan", "returns-inf", "returns-past-span",
        "returns-far-past-span", "tails-repeated-candidate", "window-inf",
        "stride-inf"])
def test_malformed_fit_options_exit_2(tmp_path, capsys, command, option,
                                      value):
    prices = _simulate_prices(tmp_path, "p.csv", steps=20000, seed=37)
    window = (("--delta-t", 1e-6, "--big-delta-t", 1e-4, "--stride", 1e-4)
              if command == "fit" else ("--as-returns", 1e-6))
    # the last occurrence of an option wins, so value overrides the window
    assert run(command, "--prices", prices, *window, option, value) == 2
    # the message names the bad value, or the bad entry of a list
    assert str(value).split(",")[-1] in capsys.readouterr().err


def test_fit_window_violation_exit_code(tmp_path):
    prices = _simulate_prices(tmp_path, "p3.csv", steps=2000, seed=33)
    assert run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 5e-6, "--stride", 5e-6) == 2


def test_fit_malformed_prices(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,price\n0,1\noops\n")
    assert run("fit", "--prices", bad, "--delta-t", 1, "--big-delta-t", 10,
               "--stride", 10) == 2


# ---------------------------------------------------------------------------
# replay
# ---------------------------------------------------------------------------

def test_replay_reproduces_simulation_byte_identically(tmp_path):
    out = tmp_path / "orig.csv"
    assert run("simulate", "--model", "ratio", "--family", "sym",
               "--sigma1", 0.35, "--sigma2", 0.35, "--dt", 1e-4,
               "--steps", 5000, "--seed", 37, "--out", out) == 0
    replayed = tmp_path / "replayed.csv"
    assert run("replay", str(out) + ".manifest", "--out", replayed,
               "--threads", 3) == 0
    assert out.read_bytes() == replayed.read_bytes()


def test_replay_density_byte_identical(tmp_path):
    out = tmp_path / "c1.csv"
    assert run("density", "--sigma1", 0.3, "--sigma2", 0.3, "--rho", -0.5,
               "--x-min", -1, "--x-max", 4, "--points", 41,
               "--out", out) == 0
    replayed = tmp_path / "c2.csv"
    assert run("replay", str(out) + ".manifest", "--out", replayed) == 0
    assert out.read_bytes() == replayed.read_bytes()


def test_replay_checks_recorded_input_hashes(tmp_path, capsys):
    prices = tmp_path / "prices.csv"
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 5000,
               "--seed", 43, "--out", prices) == 0
    report = tmp_path / "report.txt"
    assert run("tails", "--prices", prices, "--as-returns", 0.01,
               "--out", report) == 0
    manifest = str(report) + ".manifest"
    again = tmp_path / "again.txt"
    assert run("replay", manifest, "--out", again) == 0
    assert again.read_bytes() == report.read_bytes()

    with open(prices, "a") as fh:  # one more row behind the manifest
        fh.write("50.01,1.0\n")
    capsys.readouterr()
    changed = tmp_path / "changed.txt"
    assert run("replay", manifest, "--out", changed) == 2
    assert str(prices) in capsys.readouterr().err
    assert not changed.exists()


def test_manifest_started_stamped_when_the_command_starts(tmp_path):
    prices = _simulate_prices(tmp_path, "ps.csv", seed=73)
    report = tmp_path / "fit.txt"
    t0 = time.perf_counter()
    assert run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4, "--out", report) == 0
    wall = time.perf_counter() - t0
    kv = parse_key_values((tmp_path / "fit.txt.manifest").read_text())
    stamped = (datetime.fromisoformat(kv["finished"])
               - datetime.fromisoformat(kv["started"])).total_seconds()
    # everything but argument parsing and the manifest write lies between
    assert 0.8 * wall <= stamped <= wall


def test_replay_missing_manifest(tmp_path):
    assert run("replay", tmp_path / "nope.manifest") == 2


def test_replay_threads_reach_only_simulate(tmp_path):
    # check, density, tails and fit are serial and take no --threads;
    # replay --threads still replays their manifests byte-identically
    prices = _simulate_prices(tmp_path, "p.csv", seed=29)
    commands = {
        "check.txt": ["check", "--family", "sym"],
        "density.csv": ["density", "--rho", -0.5, "--points", 41],
        "tails.txt": ["tails", "--prices", prices, "--as-returns", 1e-6],
        "fit.txt": ["fit", "--prices", prices, "--delta-t", 1e-6,
                    "--big-delta-t", 1e-4, "--stride", 1e-4],
    }
    for name, argv in commands.items():
        with pytest.raises(SystemExit) as exc:
            run(*argv, "--threads", 2)
        assert exc.value.code == 2
        out = tmp_path / name
        assert run(*argv, "--out", out) == 0
        again = tmp_path / ("again-" + name)
        assert run("replay", str(out) + ".manifest", "--out", again,
                   "--threads", 2) == 0
        assert again.read_bytes() == out.read_bytes()


# each command's manifest as written when the params were listed by hand
# per command: a simulate manifest then held only its model's options
EARLIER_MANIFESTS = {
    "check.txt": ("check", "", """
param.family=power
param.q=2.0
param.table=
param.normalize=true
param.grid-max-log=6.0
param.grid-points=120
param.out=check.txt"""),
    "density.csv": ("density", "", """
param.mu1=1.0
param.mu2=1.0
param.sigma1=0.3
param.sigma2=0.3
param.rho=-1.0
param.transform=sym
param.q=
param.x-min=0.1
param.x-max=6.0
param.points=41
param.log-grid=true
param.out=density.csv"""),
    "gbm.csv": ("simulate", "seed=11", """
param.model=gbm
param.mu=0.05
param.sigma=0.2
param.dt=0.01
param.steps=5000
param.p0=100.0
param.out=gbm.csv"""),
    "p.csv": ("simulate", "seed=29", """
param.model=ratio
param.mu1=1.0
param.mu2=1.0
param.sigma1=0.38
param.sigma2=0.38
param.rho=-1.0
param.family=power
param.q=1.0
param.tau0=1.0
param.dt=1e-06
param.steps=200000
param.p0=1.0
param.policy=resample
param.out=p.csv"""),
    "tails.txt": ("tails", "", """
param.samples=
param.prices=p.csv
param.as-returns=1e-06
param.candidates=power,exp
param.threshold-quantile=0.99
param.side=abs
param.out=tails.txt
param.csv=
input.p.csv={sha}"""),
    "fit.txt": ("fit", "", """
param.prices=p.csv
param.delta-t=1e-06
param.big-delta-t=0.0001
param.stride=0.0001
param.candidates=power,log
param.threshold-quantile=0.998
param.interpolate=false
param.boot=
param.out=fit.txt
param.overlay=
param.csv=
input.p.csv={sha}"""),
}


def test_manifests_of_the_earlier_key_set_replay(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    _simulate_prices(tmp_path, "p.csv", seed=29)
    assert run("check", "--family", "power", "--q", 2, "--normalize",
               "--out", "check.txt") == 0
    assert run("density", "--sigma1", 0.3, "--sigma2", 0.3, "--transform",
               "sym", "--x-min", 0.1, "--points", 41, "--log-grid",
               "--out", "density.csv") == 0
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 5000,
               "--p0", 100, "--seed", 11, "--out", "gbm.csv") == 0
    assert run("tails", "--prices", "p.csv", "--as-returns", 1e-6,
               "--out", "tails.txt") == 0
    assert run("fit", "--prices", "p.csv", "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4,
               "--out", "fit.txt") == 0
    sha = sha256_file("p.csv")
    for name, (command, seed, params) in EARLIER_MANIFESTS.items():
        manifest = tmp_path / ("earlier-" + name + ".manifest")
        manifest.write_text(f"command={command}\n{seed}\n"
                            f"version={ratiotails.__version__}"
                            + params.format(sha=sha) + "\n")
        again = tmp_path / ("again-" + name)
        assert run("replay", manifest, "--out", again) == 0
        assert again.read_bytes() == (tmp_path / name).read_bytes()


def test_manifest_params_are_the_command_options(tmp_path):
    # every option but --seed and --threads; flags as true/false, unset
    # options empty; a simulate manifest holds both models' options
    out = tmp_path / "g.csv"
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 1000,
               "--seed", 5, "--threads", 2, "--out", out) == 0
    kv = parse_key_values((tmp_path / "g.csv.manifest").read_text())
    params = {k[len("param."):]: v for k, v in kv.items()
              if k.startswith("param.")}
    assert params == {
        "model": "gbm", "mu1": "1.0", "mu2": "1.0", "sigma1": "0.35",
        "sigma2": "0.35", "rho": "-1.0", "family": "sym", "q": "",
        "tau0": "1.0", "dt": "0.01", "steps": "1000", "p0": "1.0",
        "policy": "resample", "mu": "0.05", "sigma": "0.2",
        "out": str(out)}
    assert kv["seed"] == "5"


def test_replay_refuses_a_param_the_command_lacks(tmp_path, capsys):
    manifest = tmp_path / "odd.manifest"
    manifest.write_text(f"command=check\nversion={ratiotails.__version__}\n"
                        "param.family=sym\nparam.colour=red\n")
    assert run("replay", manifest) == 2
    assert "param.colour" in capsys.readouterr().err


def _set_manifest_version(path, version):
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("version=")]
    if version is not None:
        lines.insert(1, f"version={version}")
    path.write_text("\n".join(lines) + "\n")


def test_replay_checks_the_version(tmp_path, capsys):
    out = tmp_path / "orig.csv"
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 1000,
               "--seed", 47, "--out", out) == 0
    manifest = tmp_path / "orig.csv.manifest"
    _set_manifest_version(manifest, "0.0.9")
    capsys.readouterr()
    other = tmp_path / "other.csv"
    assert run("replay", manifest, "--out", other) == 2
    err = capsys.readouterr().err
    assert "0.0.9" in err and ratiotails.__version__ in err
    assert not other.exists()

    _set_manifest_version(manifest, None)  # older manifests carry none
    unversioned = tmp_path / "unversioned.csv"
    assert run("replay", manifest, "--out", unversioned) == 0
    assert unversioned.read_bytes() == out.read_bytes()


def _fresh_python(code: str, cwd) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this ratiotails."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        ratiotails.__file__)))
    return subprocess.run([sys.executable, "-c", code], cwd=cwd,
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=300,
                          check=True)


def test_import_loads_no_multiprocessing(tmp_path):
    # the CSV writer imports it only when it forks workers
    out = _fresh_python("import sys, ratiotails.cli\n"
                        "print('multiprocessing' in sys.modules)", tmp_path)
    assert out.stdout.strip() == "False"


def test_commands_that_do_not_compute_with_scipy_never_load_it(tmp_path):
    code = """
import contextlib, io, sys
from ratiotails.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(["--help"])
    except SystemExit as exc:
        assert exc.code == 0
    codes = [
        main(["check", "--family", "sym"]),
        main(["simulate", "--model", "ratio", "--family", "power", "--q", "1",
              "--sigma1", "0.38", "--sigma2", "0.38", "--dt", "1e-6",
              "--steps", "50000", "--seed", "5", "--out", "p.csv"]),
        main(["tails", "--prices", "p.csv", "--as-returns", "1e-6",
              "--out", "t.txt"]),
        main(["tails", "--prices", "p.csv", "--as-returns", "1e-6",
              "--candidates", "power,exp,stretched", "--out", "ts.txt"]),
        main(["replay", "p.csv.manifest", "--out", "r.csv", "--threads", "2"]),
        main(["density", "--rho", "-1", "--out", "d.csv"]),
        main(["density", "--rho", "-1", "--transform", "sym", "--x-min",
              "0.1", "--out", "ds.csv"]),
        main(["fit", "--prices", "p.csv", "--delta-t", "1e-6",
              "--big-delta-t", "1e-4", "--stride", "1e-4", "--overlay",
              "o.csv", "--out", "f.txt"]),
        main(["replay", "f.txt.manifest", "--out", "f2.txt"]),
    ]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    out = _fresh_python(code, tmp_path)
    assert out.stdout.strip() == "[0, 0, 0, 0, 0, 0, 0, 0, 0] []"
    assert (tmp_path / "r.csv").read_bytes() == (tmp_path / "p.csv").read_bytes()
    assert (tmp_path / "f2.txt").read_bytes() == (tmp_path / "f.txt").read_bytes()
    assert (tmp_path / "o.csv").stat().st_size > 0


def test_commands_that_compute_with_scipy_load_it_when_they_run(tmp_path):
    _simulate_prices(tmp_path, "p.csv", seed=29)
    xs = np.geomspace(1 / 32, 32, 120)
    (tmp_path / "g.csv").write_text("x,g\n" + "\n".join(
        f"{float(x)!r},{float(x - 1.0)!r}" for x in xs) + "\n")
    # each command must load its own scipy module, not ride on an earlier
    # one's; the stretched tails fit loads none; check exits 1:
    # g(x) = x - 1 is not antisymmetric.  fit --rho runs alone: density
    # would already have loaded its scipy.special
    code = """
import contextlib, io, sys
from ratiotails.cli import main
for argv in {runs!r}:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    print(code, sorted(m for m in set(sys.modules) - before
                       if m in ("scipy.special", "scipy.optimize",
                                "scipy.interpolate")))
"""
    out = _fresh_python(code.format(runs=[
        ["density", "--rho", "-0.5", "--out", "d.csv"],
        ["tails", "--prices", "p.csv", "--as-returns", "1e-6",
         "--candidates", "power,stretched", "--out", "t.txt"],
        ["check", "--table", "g.csv", "--grid-max-log", "2.7"],
    ]), tmp_path)
    assert out.stdout.splitlines() == [
        "0 ['scipy.special']", "0 []",
        "1 ['scipy.interpolate', 'scipy.optimize']"]
    out = _fresh_python(code.format(runs=[
        ["fit", "--prices", "p.csv", "--delta-t", "1e-6", "--big-delta-t",
         "1e-4", "--stride", "1e-4", "--rho", "-0.5", "--out", "f.txt"],
    ]), tmp_path)
    assert out.stdout.splitlines() == ["0 ['scipy.optimize', 'scipy.special']"]


# ---------------------------------------------------------------------------
# remaining surfaces
# ---------------------------------------------------------------------------

def test_simulate_rejection_rate_exit_code(tmp_path):
    out = tmp_path / "x.csv"
    code = run("simulate", "--model", "ratio", "--family", "sym",
               "--sigma1", 0.2, "--sigma2", 0.6, "--rho", 0,
               "--dt", 1e-4, "--steps", 20000, "--seed", 3, "--out", out)
    assert code == 1
    assert not out.exists()


def test_seed_env_default(tmp_path, monkeypatch):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    monkeypatch.setenv("RATIOTAILS_SEED", "4242")
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 1000,
               "--out", a) == 0
    monkeypatch.delenv("RATIOTAILS_SEED")
    assert run("simulate", "--model", "gbm", "--dt", 0.01, "--steps", 1000,
               "--seed", 4242, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_tails_csv_sweep_rows(tmp_path):
    rng = np.random.default_rng(67)
    save_samples(rng.random(100000) ** -1.0, str(tmp_path / "s.csv"))
    csv_out = tmp_path / "sweep.csv"
    assert run("tails", "--samples", tmp_path / "s.csv",
               "--csv", csv_out) == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 4  # header + three sweep thresholds
    assert lines[0].startswith("class,estimate,")


def test_fit_csv_row(tmp_path):
    prices = _simulate_prices(tmp_path, "pc.csv", seed=71)
    csv_out = tmp_path / "fit.csv"
    assert run("fit", "--prices", prices, "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4,
               "--csv", csv_out) == 0
    lines = csv_out.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("family,")
    assert lines[1].startswith("power,")


def test_simulate_manifest_carries_config_hash(tmp_path):
    out = tmp_path / "m.csv"
    assert run("simulate", "--model", "ratio", "--family", "sym",
               "--sigma1", 0.35, "--sigma2", 0.35, "--dt", 1e-4,
               "--steps", 1000, "--seed", 5, "--out", out) == 0
    manifest = (tmp_path / "m.csv.manifest").read_text()
    assert "input.config=" in manifest
