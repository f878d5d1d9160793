"""CSV schemas, key=value reports, manifests."""

import numpy as np
import pytest

from ratiotails import (CurveMethod, DensityCurve, PriceSeries, simulate_gbm)
from ratiotails.errors import InputFormatError
from ratiotails.fileio import (RunManifest, format_key_values,
                               load_density_curve, load_price_series,
                               load_response_table, load_samples,
                               parse_key_values, save_density_curve,
                               save_price_series, save_samples, sha256_file,
                               write_atomic)


def test_price_series_round_trip(tmp_path):
    series = simulate_gbm(0.05, 0.2, 0.01, 500, 100.0, seed=3)
    path = str(tmp_path / "prices.csv")
    save_price_series(series, path)
    back = load_price_series(path)
    assert np.array_equal(back.times, series.times)
    assert np.allclose(back.log_prices, series.log_prices, rtol=0, atol=1e-15)


def test_price_series_write_is_deterministic(tmp_path):
    series = simulate_gbm(0.05, 0.2, 0.01, 200, 100.0, seed=4)
    p1, p2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    save_price_series(series, p1)
    save_price_series(series, p2)
    assert open(p1, "rb").read() == open(p2, "rb").read()


def test_price_csv_validation(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("time,price\n0,1\n")
    with pytest.raises(InputFormatError):
        load_price_series(str(bad))
    bad.write_text("t,price\n0,1\n1,xyz\n")
    with pytest.raises(InputFormatError):
        load_price_series(str(bad))
    bad.write_text("t,price\n0,1\n")
    with pytest.raises(InputFormatError):
        load_price_series(str(bad))


def test_samples_round_trip(tmp_path):
    vals = np.array([1.5, -2.25, 1e-30, 3e200])
    path = str(tmp_path / "samples.csv")
    save_samples(vals, path)
    assert np.array_equal(load_samples(path), vals)


def test_density_curve_round_trip(tmp_path):
    # every label round-trips, so files written as exact_anticorr or
    # quadrature by earlier versions still load
    grid = np.linspace(-2, 2, 41)
    vals = np.exp(-0.5 * grid ** 2)
    path = str(tmp_path / "curve.csv")
    for method in CurveMethod:
        save_density_curve(DensityCurve(grid, vals, method), path)
        back = load_density_curve(path)
        assert back.method is method
        assert np.array_equal(back.grid, grid)
        assert np.array_equal(back.values, vals)


def test_response_table_load(tmp_path):
    xs = np.geomspace(0.1, 10, 50)
    path = tmp_path / "table.csv"
    path.write_text("x,g\n" + "\n".join(
        f"{float(x)!r},{float(np.log(x))!r}" for x in xs) + "\n")
    tab = load_response_table(str(path))
    # interpolation accuracy, not exact: 1.0 is not a table node
    assert tab.value(1.0) == pytest.approx(0.0, abs=1e-6)
    bad = tmp_path / "bad.csv"
    bad.write_text("x,value\n1,0\n")
    with pytest.raises(InputFormatError):
        load_response_table(str(bad))
    bad.write_text("x,g\n2,0\n1,1\n0.5,2\n0.1,3\n")  # decreasing x
    with pytest.raises(InputFormatError):
        load_response_table(str(bad))


def test_key_values_round_trip():
    items = {"alpha": 1.25, "label": "power", "count": 7}
    text = format_key_values(items)
    back = parse_key_values(text)
    assert back == {"alpha": "1.25", "label": "power", "count": "7"}
    with pytest.raises(InputFormatError):
        parse_key_values("not a pair\n")
    assert parse_key_values("# comment\n\nk=v\n") == {"k": "v"}


def test_manifest_round_trip(tmp_path):
    m = RunManifest(command="simulate",
                    params={"model": "gbm", "steps": "100", "out": "x.csv"},
                    seed=42, version="0.1.0",
                    input_hashes={"in.csv": "ab12"},
                    started="2026-01-01T00:00:00+00:00",
                    finished="2026-01-01T00:00:05+00:00")
    path = str(tmp_path / "run.manifest")
    m.save(path)
    back = RunManifest.load(path)
    assert back.command == "simulate"
    assert back.params == m.params
    assert back.seed == 42
    assert back.input_hashes == {"in.csv": "ab12"}
    with pytest.raises(InputFormatError):
        RunManifest.from_text("param.x=1\n")


def test_write_atomic_replaces(tmp_path):
    path = str(tmp_path / "out.txt")
    write_atomic(path, "first\n")
    write_atomic(path, "second\n")
    assert open(path).read() == "second\n"
    leftovers = [p for p in tmp_path.iterdir() if p.name != "out.txt"]
    assert leftovers == []


def test_sha256_file(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(b"abc")
    assert sha256_file(str(path)) == (
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad")


def test_price_overflow_refused(tmp_path):
    series = PriceSeries(np.array([0.0, 1.0]), np.array([0.0, 1000.0]))
    with np.errstate(over="ignore"), pytest.raises(InputFormatError):
        save_price_series(series, str(tmp_path / "x.csv"))


def test_key_values_csv_rows():
    from ratiotails.fileio import key_values_csv
    rows = [{"a": 1, "b": "x"}, {"a": 2, "b": "y"}]
    assert key_values_csv(rows) == "a,b\n1,x\n2,y\n"
    with pytest.raises(InputFormatError):
        key_values_csv([])
    with pytest.raises(InputFormatError):
        key_values_csv([{"a": 1}, {"b": 2}])


def test_tail_prediction_key_values():
    from ratiotails import (Family, OrderFlowParams, ResponseSpec,
                            tail_prediction)
    pred = tail_prediction(OrderFlowParams(1, 1, 0.5, 0.5, -1.0),
                           ResponseSpec(Family.SYM))
    kv = pred.key_values()
    assert kv["class"] == "power_law"
    assert kv["density_exponent"] == 2.0
    assert kv["prefactor"] > 0
