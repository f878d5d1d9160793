"""Command-line surface: exit codes, artifacts, manifest replay."""

import argparse
import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from datetime import datetime
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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


def _table_text(kind: str) -> bytes:
    """An x,g table: the tabulated log (admissible but for (iv) on the
    grid), a wrong header, too few rows, a decreasing x, or bytes that
    are not UTF-8."""
    xs = np.geomspace(1 / 32, 32, 41)
    rows = [(x, math.log(x)) for x in xs.tolist()]
    header = "x,g"
    if kind == "header":
        header = "a,b"
    elif kind == "short":
        rows = rows[:3]
    elif kind == "decreasing":
        rows = rows[::-1]
    text = header + "\n" + "".join(f"{x!r},{g!r}\n" for x, g in rows)
    data = text.encode()
    return data[:20] + b"\xff\xfe" + data[20:] if kind == "bytes" else data


# each option at a working value, at or past its bound, or not finite
_CHECK_QS = st.sampled_from([None, "1", "2", "3", "0.5", "0", "-1", "nan",
                             "inf", "1e300"])
_MAX_LOGS = st.sampled_from(["6", "1", "1e-300", "0", "-1", "300", "709.78",
                             "709.79", "inf", "nan"])
_GRID_POINTS = st.sampled_from(["120", "40", "3", "2", "0", "-1"])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([None] + [f.value for f in Family]), _CHECK_QS,
       st.booleans(), _MAX_LOGS, _GRID_POINTS,
       st.sampled_from([None, None, "good", "header", "short", "decreasing",
                        "bytes", "absent"]),
       st.sampled_from(["file", "file", "missing", "directory"]))
@example("sym", None, False, "6", "120", None, "missing")
@example(None, None, False, "3", "40", "bytes", "file")
@example("power", "2", True, "6", "120", None, "directory")
def check_keeps_the_contract(family, q, normalize, max_log, points, table,
                             out):
    with tempfile.TemporaryDirectory() as tmp:
        path = {"file": os.path.join(tmp, "c.txt"),
                "missing": os.path.join(tmp, "missing", "c.txt"),
                "directory": tmp}[out]
        argv = ["check", f"--grid-max-log={max_log}",
                f"--grid-points={points}", "--out", path]
        if family is not None:
            argv += ["--family", family]
        if q is not None:
            argv.append(f"--q={q}")
        if normalize:
            argv.append("--normalize")
        if table is not None:
            argv += ["--table", os.path.join(tmp, "g.csv")]
            if table != "absent":
                with open(os.path.join(tmp, "g.csv"), "wb") as fh:
                    fh.write(_table_text(table))
        code = main_contract(argv)
        if out == "file":
            # a report is written just when the check ran
            assert os.path.exists(path) == (code in (0, 1))
        else:
            assert code == 2
            assert sorted(os.listdir(tmp)) in ([], ["g.csv"])


def test_check_keeps_the_exit_code_contract():
    # through main, in-process: whatever the family, parameter, table,
    # grid and --out, check exits 0-3, raises nothing, prints one error
    # line on a bad input, and an --out it cannot write is bad input (2)
    # that leaves no file
    start = time.perf_counter()
    check_keeps_the_contract()
    assert time.perf_counter() - start <= 10.0


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


def test_simulate_threads_do_not_change_output(tmp_path):
    # 200 001 rows are 13 CSV blocks: the default (the usable CPUs) and
    # --threads 4 format them on threads
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    args = ("simulate", "--model", "gbm", "--mu", 0.05, "--sigma", 0.2,
            "--dt", 0.01, "--steps", 200000, "--seed", 11)
    assert run(*args, "--out", a, "--threads", 1) == 0
    assert run(*args, "--out", b, "--threads", 4) == 0
    assert run(*args, "--out", c) == 0
    assert a.read_bytes() == b.read_bytes() == c.read_bytes()


@pytest.mark.parametrize("model", ["gbm", "ratio"])
@pytest.mark.parametrize("seed", [-1, 2 ** 64], ids=["negative", "2^64"])
def test_simulate_refuses_a_seed_outside_64_bits(tmp_path, capsys, model,
                                                 seed):
    # one seed range for every draw: neither model wraps the seed round
    out = tmp_path / "s.csv"
    assert run("simulate", "--model", model, "--steps", 10,
               f"--seed={seed}", "--out", out) == 2
    assert capsys.readouterr().err == "error: seed must fit in 64 bits\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model", ["gbm", "ratio"])
def test_simulate_takes_the_top_64_bit_seed(tmp_path, model):
    paths = [tmp_path / f"{seed}.csv" for seed in (0, 2 ** 64 - 1)]
    for seed, out in zip((0, 2 ** 64 - 1), paths):
        assert run("simulate", "--model", model, "--steps", 10,
                   "--seed", seed, "--out", out) == 0
    assert paths[0].read_bytes() != paths[1].read_bytes()


@pytest.mark.parametrize("threads", ["0", "-5", "1.5", "x"])
def test_threads_below_one_are_refused_by_the_parser(tmp_path, capsys,
                                                     threads):
    # simulate --threads and replay --threads take a positive count only;
    # the refusal is bad input told in one line, returned in-process
    out, again = tmp_path / "s.csv", tmp_path / "r.csv"
    assert run("simulate", "--model", "gbm", "--steps", 10,
               f"--threads={threads}", "--out", out) == 2
    assert not out.exists()
    assert run("simulate", "--model", "gbm", "--steps", 10, "--out", out) == 0
    assert run("replay", f"{out}.manifest", "--out", again,
               f"--threads={threads}") == 2
    assert not again.exists()
    err = capsys.readouterr().err
    assert err.splitlines() == [f"error: argument --threads: {threads!r} "
                                "is not a positive count"] * 2


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


@pytest.mark.parametrize("row", [1, 10001, 20000], ids=["first", "middle",
                                                       "last"])
@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_non_finite_time_is_named_with_its_row(tmp_path, capsys, bad, row):
    # NaN passes a check that the times increase, since NaN <= x is
    # false: fit and tails share the loader that rejects it by name
    rng = np.random.default_rng(46)
    t = np.arange(20000) * 1e-6
    prices = np.exp(np.cumsum(1e-3 * rng.standard_normal(t.size)))
    rows = [f"{a!r},{b!r}" for a, b in zip(t.tolist(), prices.tolist())]
    rows[row - 1] = f"{bad}," + rows[row - 1].split(",")[1]
    path = tmp_path / "prices.csv"
    path.write_text("t,price\n" + "\n".join(rows) + "\n")
    for argv in (("tails", "--prices", path, "--as-returns", 1e-6),
                 ("fit", "--prices", path, "--delta-t", 1e-6,
                  "--big-delta-t", 1e-4, "--stride", 1e-4)):
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert (f"non-finite times: 1 of 20000, the first is {float(bad)} "
                f"at row {row}") in err


def test_a_good_interval_is_ignored_with_samples(tmp_path):
    # manifests of tails --samples record --as-returns; a valid one still
    # runs, replays and changes nothing
    path = tmp_path / "samples.csv"
    save_samples(np.random.default_rng(47).random(5000) ** -1.0, str(path))
    plain, given = tmp_path / "plain.txt", tmp_path / "given.txt"
    assert run("tails", "--samples", path, "--out", plain) == 0
    assert run("tails", "--samples", path, "--as-returns", 1e-6,
               "--out", given) == 0
    assert plain.read_bytes() == given.read_bytes()
    again = tmp_path / "again.txt"
    assert run("replay", f"{given}.manifest", "--out", again) == 0
    assert again.read_bytes() == given.read_bytes()


def test_degenerate_tail_sample_exits_2(tmp_path, capsys):
    rng = np.random.default_rng(45)
    path = tmp_path / "samples.csv"
    save_samples(np.concatenate([rng.random(990), np.full(10, 5.0)]),
                 str(path))
    assert run("tails", "--samples", path) == 2
    assert "all exceedances are identical" in capsys.readouterr().err


def degenerate_samples(kind: str, n: int, seed: int) -> np.ndarray:
    """n samples of one degenerate kind: all of one sign, constant, a few
    rows, heavily tied, or holding NaN or inf."""
    rng = np.random.default_rng(seed)
    draws = rng.standard_t(3.0, size=n)
    if kind == "positive":
        return np.abs(draws)
    if kind == "negative":
        return -np.abs(draws)
    if kind == "constant":
        return np.full(n, rng.choice([0.0, 1.5, -2.0]))
    if kind == "few":
        return draws[:rng.integers(1, 21)]
    if kind == "tied":
        return rng.choice(rng.standard_t(3.0, size=rng.integers(1, 5)), n)
    bad = rng.choice([np.nan, np.inf, -np.inf], size=rng.integers(1, 4))
    draws[rng.integers(0, n, size=bad.size)] = bad
    return draws


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["positive", "negative", "constant", "few", "tied",
                        "non-finite"]),
       st.integers(1, 5000), st.sampled_from(["abs", "right", "left"]),
       st.integers(0, 2 ** 32 - 1))
@example("negative", 5000, "right", 0)    # the empty side
@example("positive", 5000, "left", 1)
@example("positive", 15, "left", 2)
def tails_samples_keep_the_contract(kind, n, side, seed):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "samples.csv")
        save_samples(degenerate_samples(kind, n, seed), path)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            code = main(["tails", "--samples", path, "--side", side])
    assert code in (0, 1, 2, 3)
    if code:
        lines = err.getvalue().splitlines()
        assert sum(line.startswith("error: ") for line in lines) == 1


def test_tails_samples_keep_the_exit_code_contract():
    # through main, in-process: whatever the degenerate sample, tails
    # exits 0-3, raises nothing, and a nonzero exit prints one error line
    start = time.perf_counter()
    tails_samples_keep_the_contract()
    assert time.perf_counter() - start <= 10.0


def degenerate_prices(kind: str, n: int, seed: int) -> str:
    """The t,price CSV text of n rows at step 1e-6 (2 for "two"), with one
    defect: a constant price, a repeated, decreasing or gapped time, a
    NaN or inf in some row, or a price at or below 0; "good" has none."""
    rng = np.random.default_rng(seed)
    n = 2 if kind == "two" else n
    times = np.arange(n) * 1e-6
    prices = np.exp(np.cumsum(rng.standard_t(3.0, n) * 1e-3))
    row = rng.integers(1, n)
    if kind == "constant":
        prices[:] = rng.choice([1.0, 7.5, 1e-300])
    elif kind == "repeated":
        times[row] = times[row - 1]
    elif kind == "decreasing":
        times[[row - 1, row]] = times[[row, row - 1]]
    elif kind == "gapped":
        keep = np.ones(n, bool)
        keep[row:row + rng.integers(1, 50)] = False
        times, prices = times[keep], prices[keep]
    elif kind == "non-finite":
        cells = times if rng.random() < 0.5 else prices
        cells[rng.integers(0, n)] = rng.choice([np.nan, np.inf, -np.inf])
    elif kind == "nonpositive":
        prices[rng.integers(0, n)] = rng.choice([0.0, -1.0])
    rows = zip(times.tolist(), prices.tolist())
    return "t,price\n" + "".join(f"{t!r},{p!r}\n" for t, p in rows)


def main_contract(argv):
    """main(argv) in-process: its exit code, checked against the
    contract (0-3, nothing raised, no usage block, and one error line
    just on a 2, a refusal of the parser included)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    errors = sum(line.startswith("error: ")
                 for line in err.getvalue().splitlines())
    assert errors == (code == 2)  # a parser refusal too: 2, one line
    assert "usage:" not in err.getvalue()
    return code


# working options half the time, else each option at its bound, past it
# or at a working value
_GOOD_FIT = ("1e-6", "1e-5", "1e-5", "0.99", "-1", None)
_FIT_OPTIONS = st.just(_GOOD_FIT) | st.tuples(
    st.sampled_from(["1e-6", "2e-6", "1.5e-6", "0", "-1e-6", "nan", "inf"]),
    st.sampled_from(["1e-5", "9e-6", "3e-5", "inf"]),
    st.sampled_from(["1e-5", "1e-6", "0", "nan"]),
    st.sampled_from(["0.998", "0.9", "0", "1", "1.5"]),
    st.sampled_from(["-1", "-1.0000000000000002", "1"]),
    st.sampled_from([None, "0", "3", "-1"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["good"] * 7 + ["two", "constant", "repeated",
                                      "decreasing", "gapped", "non-finite",
                                      "nonpositive"]),  # half good
       st.integers(1200, 3000) | st.integers(2, 1200), _FIT_OPTIONS,
       st.integers(0, 2 ** 32 - 1))
@example("good", 3000, ("1e-6", "1e-5", "1e-5", "0.998", "-1", "3"), 0)
@example("two", 2, ("1e-6", "1e-5", "1e-5", "0.998", "-1", None), 1)
@example("constant", 1500, ("1e-6", "1e-5", "1e-5", "0.998", "-1", None), 2)
def fit_prices_keep_the_contract(kind, n, options, seed):
    delta, big, stride, quantile, rho, boot = options
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "prices.csv")
        with open(path, "w") as fh:
            fh.write(degenerate_prices(kind, n, seed))
        argv = ["fit", "--prices", path, f"--delta-t={delta}",
                f"--big-delta-t={big}", f"--stride={stride}",
                f"--threshold-quantile={quantile}", f"--rho={rho}"]
        code = main_contract(argv + ([f"--boot={boot}"] if boot else []))
        try:
            load_price_series(path)
        except ratiotails.errors.RatioTailsError:
            # a file the shared loader rejects: fit rejects it, before
            # or after its options, with tails' code
            assert code == main_contract(
                ["tails", "--prices", path, "--as-returns", "1e-6"]) == 2


def test_fit_prices_keep_the_exit_code_contract():
    # through main, in-process: whatever the price file and options at or
    # past their bounds, fit exits 0-3, raises nothing, prints one error
    # line on a bad input, and a file the loader rejects tails rejects too
    start = time.perf_counter()
    fit_prices_keep_the_contract()
    assert time.perf_counter() - start <= 10.0


# each option at a working value, at or past its bound, extreme or not
# finite; the standardized means mu/sigma reach 1e300 and inf
_MEANS = st.sampled_from(["1", "0.5", "1e300", "1e-300", "0", "-1", "nan",
                          "inf"])
_SPREADS = st.sampled_from(["0.5", "0.2", "1e-300", "1e-160", "1e300",
                            "5e-324", "0", "-0.5", "nan", "inf"])
_RHOS = st.sampled_from(["-1", "-0.5", "-0.2", "0", "0.3", "0.999999",
                         "-1.0000000000000002", "1", "nan"])
_DENSITY_TRANSFORMS = st.sampled_from(
    ["none", "pow"] + [f.value for f in Family])
_QS = st.sampled_from([None, "1", "2", "3", "0.5", "0", "-1", "nan", "inf"])
_GRIDS = st.tuples(st.sampled_from(["-2", "0", "1e-300", "0.5", "-inf",
                                    "nan"]),
                   st.sampled_from(["6", "1e300", "0.5", "inf", "nan"]),
                   st.sampled_from(["41", "2", "1", "0"]), st.booleans())


@settings(max_examples=200, deadline=None)
@given(st.tuples(_MEANS, _MEANS), st.tuples(_SPREADS, _SPREADS), _RHOS,
       _DENSITY_TRANSFORMS, _QS, _GRIDS)
@example(("1", "1"), ("1e-300", "0.5"), "0.3", "none", None,
         ("-2", "6", "41", False))
@example(("1", "1"), ("1e-160", "0.5"), "-0.2", "none", None,
         ("-2", "6", "41", False))
@example(("1", "1"), ("0.5", "1e-300"), "0.3", "none", None,
         ("-2", "6", "41", False))
@example(("1e300", "1"), ("0.5", "0.5"), "0.3", "none", None,
         ("-2", "6", "41", False))
@example(("1", "1"), ("1e-300", "0.5"), "0.3", "power", "1",
         ("1e-300", "1e300", "41", True))
def density_keeps_the_contract(means, spreads, rho, transform, q, grid):
    x_min, x_max, points, log_grid = grid
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "d.csv")
        argv = ["density", f"--mu1={means[0]}", f"--mu2={means[1]}",
                f"--sigma1={spreads[0]}", f"--sigma2={spreads[1]}",
                f"--rho={rho}", "--transform", transform,
                f"--x-min={x_min}", f"--x-max={x_max}", "--points", points,
                "--out", out]
        if q is not None:
            argv.append(f"--q={q}")
        if log_grid:
            argv.append("--log-grid")
        if main_contract(argv) == 0:
            # a curve, finite and nonnegative, that reads back
            assert np.all(np.isfinite(load_density_curve(out).values))


@pytest.mark.parametrize("rho", ["-1", "0.3"])
def test_density_curve_at_a_tiny_demand_spread(tmp_path, rho):
    # sigma1 = 1e-300 holds D at its mean, so R = 1/S and f(x) =
    # phi((1 - 1/x)/sigma2) / (sigma2 x^2), 0 at x = 0, though
    # mu1/sigma1 = 1e300; at the parent rho = 0.3 raised OverflowError
    # and rho = -1 was NaN at x = 0
    out = tmp_path / "d.csv"
    assert run("density", "--sigma1", "1e-300", "--rho", rho,
               "--x-min", "-1", "--x-max", "4", "--points", "21",
               "--out", out) == 0
    curve = load_density_curve(str(out))
    x = curve.grid[curve.grid != 0.0]
    z = (1.0 - 1.0 / x) / 0.5
    want = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) / (0.5 * x * x)
    np.testing.assert_allclose(curve.values[curve.grid != 0.0], want,
                               rtol=1e-12)
    assert curve.values[curve.grid == 0.0].tolist() == [0.0]


def test_density_keeps_the_exit_code_contract():
    # through main, in-process: whatever the means, spreads, correlation,
    # transform and grid, density exits 0-3, raises nothing and prints one
    # error line on a bad input
    start = time.perf_counter()
    density_keeps_the_contract()
    assert time.perf_counter() - start <= 10.0


_SIM_NUMBERS = st.sampled_from(["0.2", "1e150", "1e300", "0", "-1", "nan",
                                "inf"])


# a seed inside and outside [0, 2**64), and a --threads count
_SEED_THREADS = st.tuples(
    st.sampled_from(["3", "0", str(2 ** 64 - 1), "-1", str(2 ** 64)]),
    st.sampled_from(["1", "2", "0", "-5"]))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["gbm", "ratio"]), _SIM_NUMBERS, _SIM_NUMBERS,
       st.sampled_from(["1e-4", "1", "1e300", "5e-324", "0", "nan", "inf"]),
       st.sampled_from(["1", "1e300", "1e-300", "0", "nan", "inf"]),
       st.sampled_from(["10", "1", "0"]),
       st.tuples(_SPREADS, _RHOS, st.sampled_from([f.value for f in Family]),
                 _QS, st.sampled_from(["1", "1e-300", "0", "inf"])),
       _SEED_THREADS)
@example("gbm", "0.05", "1e150", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), ("3", "1"))
@example("gbm", "0.05", "nan", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), ("3", "1"))
@example("gbm", "nan", "0.2", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), ("3", "1"))
@example("ratio", "0.05", "0.2", "1e300", "1", "10",
         ("0.35", "-1", "power", "2", "1"), ("3", "1"))
@example("gbm", "0.05", "0.2", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), ("-1", "2"))
@example("ratio", "0.05", "0.2", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), (str(2 ** 64), "1"))
@example("gbm", "0.05", "0.2", "1e-4", "1", "10",
         ("0.35", "-1", "sym", None, "1"), ("3", "0"))
def simulate_keeps_the_contract(model, mu, sigma, dt, p0, steps, flows,
                                seed_threads):
    spread, rho, family, q, tau0 = flows
    seed, threads = seed_threads
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "s.csv")
        argv = ["simulate", "--model", model, f"--mu={mu}",
                f"--sigma={sigma}", f"--dt={dt}", f"--p0={p0}",
                "--steps", steps, f"--sigma1={spread}", f"--sigma2={spread}",
                f"--rho={rho}", "--family", family, f"--tau0={tau0}",
                f"--seed={seed}", f"--threads={threads}", "--out", out]
        if q is not None:
            argv.append(f"--q={q}")
        code = main_contract(argv)
        if not (0 <= int(seed) < 2 ** 64 and int(threads) >= 1):
            # either model refuses the seed, and the parser the count
            assert code == 2
            assert not os.path.exists(out)
        elif code == 0:
            # what simulate writes, the loader reads
            series = load_price_series(out)
            assert len(series) == int(steps) + 1


def test_simulate_keeps_the_exit_code_contract():
    # through main, in-process: whatever the model, its options, seed and
    # --threads, simulate exits 0-3, raises nothing, prints one error line
    # on a bad input (the parser's for a --threads below 1), exits 2 on a
    # seed outside 64 bits with either model, and every file it writes
    # loads
    start = time.perf_counter()
    simulate_keeps_the_contract()
    assert time.perf_counter() - start <= 10.0


@pytest.mark.parametrize("option", ["--mu", "--sigma"])
def test_simulate_names_a_non_finite_gbm_option(tmp_path, option, capsys):
    assert run("simulate", "--model", "gbm", option, "nan", "--steps", 10,
               "--out", tmp_path / "s.csv") == 2
    err = capsys.readouterr().err
    assert f"{option[2:]}=nan" in err
    assert not (tmp_path / "s.csv").exists()


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


# a working command line of each command, then a value its typed option
# refuses, a choice it lacks, an option prefix that is ambiguous and the
# line cut short
_COMMAND_LINES = {
    "check": (["check", "--family", "sym"],
              ["--grid-points=x", "--family=foo", "--grid", "--family"]),
    "density": (["density", "--out", "d.csv"],
                ["--points=1.5", "--transform=foo", "--mu", "--out"]),
    "simulate": (["simulate", "--out", "s.csv"],
                 ["--steps=x", "--model=foo", "--s", "--seed"]),
    "tails": (["tails", "--samples", "v.csv"],
              ["--threshold-quantile=x", "--side=foo", "--s", "--csv"]),
    "fit": (["fit", "--prices", "p.csv", "--delta-t", "1e-6",
             "--big-delta-t", "1e-4", "--stride", "1e-4"],
            ["--boot=1.5", "--rho=x", "--b", "--overlay"]),
    "replay": (["replay", "m.manifest"],
               ["--threads=1.5", "--threads=0", "--threads", "--out"]),
}


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_COMMAND_LINES)), st.integers(0, 7),
       st.booleans())
@example("simulate", 4, False)   # no --out
@example("replay", 4, False)     # no manifest
@example("check", 6, True)       # no command
def parser_refusals_keep_the_contract(command, defect, at_end):
    argv, refusals = _COMMAND_LINES[command]
    if defect < 4:
        where = len(argv) if at_end else 1
        argv = argv[:where] + [refusals[defect]] + argv[where:]
    elif defect == 4:  # the required options dropped; a stray word for
        # check and tails, which have none
        argv = argv[:1] + ([] if command == "replay" else argv[1:-2])
        argv = argv if command not in ("check", "tails") else argv + ["x"]
    elif defect == 5:
        argv = argv + (["--nosuch"] if at_end else ["stray"])
    else:
        argv = argv[1:] if at_end else ["--nosuch"] + argv
    assert main_contract(argv) == 2


def test_parser_refusals_keep_the_exit_code_contract():
    # through main, in-process: an unknown, incomplete, ambiguous or
    # refused option, a stray or missing argument and a missing command
    # are bad input like any other, for every command: 2 and one error
    # line, with no usage block and nothing raised
    start = time.perf_counter()
    parser_refusals_keep_the_contract()
    assert time.perf_counter() - start <= 10.0


@pytest.mark.parametrize("argv", [["--help"], ["--version"],
                                  ["fit", "--help"]])
def test_help_and_version_exit_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def test_no_output_overwrites_an_input_another_output_or_the_manifest(
        tmp_path, monkeypatch, capsys):
    # compared by real path, and as files where both exist: each run is
    # refused as bad input before it writes, and the prices are kept
    monkeypatch.chdir(tmp_path)
    _simulate_prices(tmp_path, "q.csv", steps=20000, seed=31)
    assert run("tails", "--prices", "q.csv", "--as-returns", 1e-6,
               "--out", "t.txt") == 0
    os.link("q.csv", "linked.csv")
    os.symlink(tmp_path, "here")
    sha, before = sha256_file("q.csv"), sorted(os.listdir(tmp_path))
    tails = ["tails", "--prices", "q.csv", "--as-returns", 1e-6]
    fit = ["fit", "--prices", "q.csv", "--delta-t", 1e-6,
           "--big-delta-t", 1e-4, "--stride", 1e-4]
    for argv in ([*tails, "--out", "q.csv"],
                 [*tails, "--out", "./q.csv"],
                 [*tails, "--out", "here/q.csv"],
                 [*tails, "--csv", "linked.csv"],
                 [*tails, "--out", "r.txt", "--csv", "r.txt"],
                 [*fit, "--out", "a.txt", "--csv", "a.txt.manifest"],
                 [*fit, "--overlay", "o.csv", "--csv", "here/o.csv"],
                 [*fit, "--overlay", "q.csv"],
                 ["replay", "t.txt.manifest", "--out", "q.csv"]):
        capsys.readouterr()
        assert run(*argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and " would overwrite " in err
        assert err.count("\n") == 1
        assert sha256_file("q.csv") == sha
        assert sorted(os.listdir(tmp_path)) == before


# ---------------------------------------------------------------------------
# fit
# ---------------------------------------------------------------------------

def test_replay_out_writes_the_other_outputs_beside_it(tmp_path,
                                                       monkeypatch):
    # with --out X, a replay writes the run's --csv and --overlay to X.csv
    # and X.overlay, as the run wrote them, and leaves the originals as
    # they are, a line added to each included
    monkeypatch.chdir(tmp_path)
    _simulate_prices(tmp_path, "q.csv", steps=20000, seed=31)
    assert run("tails", "--prices", "q.csv", "--as-returns", 1e-6,
               "--csv", "s.csv") == 0
    assert run("fit", "--prices", "q.csv", "--delta-t", 1e-6,
               "--big-delta-t", 1e-4, "--stride", 1e-4, "--out", "f.txt",
               "--overlay", "o.csv", "--csv", "f.csv") == 0
    written = {name: sha256_file(name) for name in ("s.csv", "o.csv")}
    for name in written:
        with open(name, "a") as fh:
            fh.write("added\n")
    before = {name: sha256_file(name) for name in os.listdir(tmp_path)}
    assert run("replay", "s.csv.manifest", "--out", "s.txt") == 0
    assert run("replay", "f.txt.manifest", "--out", "g.txt") == 0
    assert {name: sha256_file(name) for name in before} == before
    made = ["s.txt", "s.txt.csv", "s.txt.manifest", "g.txt", "g.txt.csv",
            "g.txt.overlay", "g.txt.manifest"]
    assert sorted(os.listdir(tmp_path)) == sorted([*before, *made])
    for new, old in [("g.txt", "f.txt"), ("g.txt.csv", "f.csv")]:
        assert sha256_file(new) == before[old], new
    assert sha256_file("s.txt.csv") == written["s.csv"]
    assert sha256_file("g.txt.overlay") == written["o.csv"]


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


@pytest.mark.parametrize("command,option,value", [
    ("fit", "--rho", 1),
    ("fit", "--big-delta-t", "inf"),
    ("fit", "--candidates", "power,foo"),
    ("fit", "--candidates", "power,power"),
    ("fit", "--threshold-quantile", 1.5),
    ("tails", "--candidates", "foo"),
    ("tails", "--candidates", "power,power"),
    ("tails", "--threshold-quantile", 1.5),
    ("tails", "--as-returns", "nan"),
    ("tails", "--as-returns", 0),
    ("tails", "--as-returns", -1),
    ("tails", "--as-returns", "inf"),
    # --as-returns is ignored with --samples, and still checked
    ("tails --samples", "--as-returns", "nan"),
    ("tails --samples", "--as-returns", 0),
    ("tails --samples", "--as-returns", -1),
    ("tails --samples", "--as-returns", "inf"),
], ids=["rho", "window-inf", "unknown-candidate", "repeated-candidate",
        "fit-quantile", "tails-unknown-candidate",
        "tails-repeated-candidate", "tails-quantile", "returns-nan",
        "returns-zero", "returns-negative", "returns-inf",
        "samples-returns-nan", "samples-returns-zero",
        "samples-returns-negative", "samples-returns-inf"])
def test_bad_options_exit_2_before_any_price_loads(tmp_path, monkeypatch,
                                                   capsys, command, option,
                                                   value):
    def fail(*args, **kwargs):
        raise AssertionError("the input was loaded")

    monkeypatch.setattr(cli, "load_price_series", fail)
    monkeypatch.setattr(cli, "load_samples", fail)
    command, *source = command.split()
    never_read = tmp_path / "never-read.csv"
    if source:
        given = (*source, never_read)
    elif command == "fit":
        given = ("--prices", never_read, "--delta-t", 1e-6,
                 "--big-delta-t", 1e-4, "--stride", 1e-4)
    else:
        given = ("--prices", never_read, "--as-returns", 1e-6)
    assert run(command, *given, option, value) == 2
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


def _defective_manifest(text: str, defect: str, value: str) -> bytes:
    """``text``, a manifest, with one defect: a line dropped, a line that
    is not key=value, a seed, command or param set to ``value`` (a
    "key=value" for a param), or bytes that are not UTF-8."""
    lines = text.splitlines()
    if defect == "drop":
        lines = [line for line in lines if not line.startswith(value)]
    elif defect == "line":
        lines.insert(1, value)
    elif defect in ("seed", "command"):
        lines = [line for line in lines
                 if not line.startswith(defect + "=")] + [f"{defect}={value}"]
    elif defect == "param":
        lines.append(f"param.{value}")
    data = ("\n".join(lines) + "\n").encode()
    return data[:9] + b"\xff\xfe" + data[9:] if defect == "bytes" else data


_DEFECTS = st.one_of(
    st.tuples(st.just("none"), st.just("")),
    st.tuples(st.just("drop"), st.sampled_from(
        ["command=", "version=", "seed=", "param.family=", "param.out="])),
    st.tuples(st.just("line"), st.sampled_from(["garbage", "=", ""])),
    st.tuples(st.just("seed"), st.sampled_from(
        ["abc", "1.5", "", "-1", "3", "99999999999999999999999"])),
    st.tuples(st.just("command"), st.sampled_from(
        ["nosuch", "density", "fit", "replay", "", "check", "simulate"])),
    st.tuples(st.just("param"), st.sampled_from(
        ["colour=red", "grid-points=abc", "grid-points=2", "family=foo",
         "steps=abc", "steps=-5", "dt=nan", "q=nan", "model=foo",
         "threads=2", "seed=4", "normalize=maybe", "out="])),
    st.tuples(st.just("bytes"), st.just("")))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["check", "simulate"]), _DEFECTS,
       st.sampled_from(["file", "file", "missing", "none"]),
       st.sampled_from([None, None, "1", "2", "0", "-5"]))
@example("check", ("seed", "abc"), "file", None)
@example("check", ("bytes", ""), "file", None)
@example("check", ("none", ""), "missing", None)
@example("simulate", ("param", "steps=abc"), "file", None)
@example("simulate", ("none", ""), "file", "0")
@example("simulate", ("seed", "-1"), "file", "2")
def replay_keeps_the_contract(command, defect, out, threads):
    with tempfile.TemporaryDirectory() as tmp:
        first = os.path.join(tmp, "first.txt")
        argv = (["check", "--family", "sym", "--grid-points", "40"]
                if command == "check" else
                ["simulate", "--model", "gbm", "--steps", "10", "--seed", "3",
                 "--threads", "1"])
        assert main_contract(argv + ["--out", first]) == 0
        with open(first + ".manifest") as fh:
            text = fh.read()
        manifest = os.path.join(tmp, "run.manifest")
        with open(manifest, "wb") as fh:
            fh.write(_defective_manifest(text, *defect))
        again = {"file": os.path.join(tmp, "again.txt"),
                 "missing": os.path.join(tmp, "missing", "again.txt"),
                 "none": None}[out]
        code = main_contract(
            ["replay", manifest] + (["--out", again] if again else [])
            + ([f"--threads={threads}"] if threads else []))
        if threads is not None and int(threads) < 1:
            assert code == 2  # the parser refuses the count
        if command == "simulate" and defect in (
                ("seed", "-1"), ("seed", "99999999999999999999999")):
            assert code == 2  # a seed outside 64 bits, as simulate's
        if out == "missing":
            # the override reaches a manifest that has an out
            assert code == 2 or defect == ("drop", "param.out=")
            assert not os.path.exists(os.path.dirname(again))
        if code == 0 and again is not None and defect[0] == "none":
            with open(first, "rb") as a, open(again, "rb") as b:
                assert a.read() == b.read()


def test_replay_keeps_the_exit_code_contract():
    # through main, in-process: whatever the defect of the manifest (bad
    # or missing keys, a seed that is no integer, bytes that are not
    # UTF-8, an unknown command, params that are not options or whose
    # values the command refuses, a seed outside 64 bits), an --out it
    # cannot write and a --threads below 1, replay exits 0-3, raises
    # nothing and prints one error line on a bad input
    start = time.perf_counter()
    replay_keeps_the_contract()
    assert time.perf_counter() - start <= 10.0


def test_replay_threads_reach_only_simulate(tmp_path):
    # only simulate takes --threads: check and density compute on one
    # core, and fit and tails parse and fit on the usable CPUs; replay
    # --threads still replays their manifests byte-identically
    prices = _simulate_prices(tmp_path, "p.csv", seed=29)
    commands = {
        "check.txt": ["check", "--family", "sym"],
        "density.csv": ["density", "--rho", -0.5, "--points", 41],
        "tails.txt": ["tails", "--prices", prices, "--as-returns", 1e-6],
        "fit.txt": ["fit", "--prices", prices, "--delta-t", 1e-6,
                    "--big-delta-t", 1e-4, "--stride", 1e-4],
    }
    for name, argv in commands.items():
        assert run(*argv, "--threads", 2) == 2
        out = tmp_path / name
        assert run(*argv, "--out", out) == 0
        again = tmp_path / ("again-" + name)
        assert run("replay", str(out) + ".manifest", "--out", again,
                   "--threads", 0) == 2  # refused whatever the command
        assert run("replay", str(out) + ".manifest", "--out", again,
                   "--threads", 2) == 0
        assert again.read_bytes() == out.read_bytes()


def test_replay_parses_the_rebuilt_line_once_and_names_the_manifest(
        tmp_path, monkeypatch, capsys):
    # replay runs the rebuilt command line on the path main takes, with
    # main's parser: one parser built, one parse per command line, no
    # second call of main; a refusal names the manifest in one line
    out = tmp_path / "s.csv"
    assert run("simulate", "--model", "gbm", "--steps", 10, "--out", out) == 0
    built, parsed, mains = [], [], []
    build, main_ = cli.build_parser, cli.main
    parse = argparse.ArgumentParser.parse_args

    def spy_build():
        built.append(build())
        return built[-1]

    def spy_parse(self, args=None, namespace=None):
        parsed.append(list(args))
        return parse(self, args, namespace)

    def spy_main(argv=None):
        mains.append(argv)
        return main_(argv)

    monkeypatch.setattr(cli, "build_parser", spy_build)
    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy_parse)
    monkeypatch.setattr(cli, "main", spy_main)
    again = tmp_path / "again.csv"
    assert cli.main(["replay", f"{out}.manifest", "--out", str(again)]) == 0
    assert len(built) == len(mains) == 1
    assert [argv[0] for argv in parsed] == ["replay", "simulate"]
    assert again.read_bytes() == out.read_bytes()

    bad = tmp_path / "bad.manifest"
    bad.write_text("".join(
        "param.dt=abc\n" if line.startswith("param.dt=") else line
        for line in (tmp_path / "s.csv.manifest").read_text().splitlines(
            keepends=True)))
    capsys.readouterr()
    assert main(["replay", str(bad), "--out", str(tmp_path / "b.csv")]) == 2
    assert capsys.readouterr().err == (
        f"error: {bad}: argument --dt: invalid float value: 'abc'\n")
    assert not (tmp_path / "b.csv").exists()


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
    # no command starts a process
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
    assert out.stdout.splitlines() == ["0 ['scipy.special']"]


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
