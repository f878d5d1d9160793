"""CSV schemas, key=value reports, manifests."""

import os
import re
import sys
import threading
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ratiotails import (CurveMethod, DensityCurve, PriceSeries, simulate_gbm)
from ratiotails import fileio, parallel
from ratiotails.errors import DomainError, InputFormatError
from ratiotails.fileio import (RunManifest, format_key_values,
                               load_density_curve, load_price_series,
                               load_response_table, load_samples,
                               parse_key_values, save_density_curve,
                               save_price_series, save_samples, sha256_file,
                               write_atomic, write_csv)
from ratiotails.fileio import (_ROWS, _format_rows, _loadtxt, _read_lines,
                               _read_numeric)


def on_cpus(n: int):
    """Every stage sized for n usable CPUs, the one thread-count default."""
    return mock.patch.object(parallel, "usable_cpus", lambda: n)


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
    with open(path, "w") as fh:  # what a NaN density grid used to write
        fh.write("x,f,method\nnan,nan,exact\nnan,nan,exact\n")
    with pytest.raises(DomainError):
        load_density_curve(path)


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
    assert list(kv) == ["class", "tail", "prefactor", "left_prefactor",
                        "density_exponent"]
    assert kv["class"] == "power_law"
    assert kv["density_exponent"] == 2.0
    # equal means and spreads: the two tails mirror each other
    assert kv["prefactor"] == kv["left_prefactor"] > 0


# ---------------------------------------------------------------------------
# CSV round trips and the vectorized reader
# ---------------------------------------------------------------------------

def bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


# every float that has a finite repr, exponent forms, subnormals and
# values out to 1e308 included
floats = st.floats(allow_nan=False)


@settings(max_examples=60, deadline=None)
@given(st.lists(floats, min_size=1, max_size=40))
def test_samples_round_trip_bit_exact(tmp_path_factory, values):
    path = str(tmp_path_factory.mktemp("s") / "samples.csv")
    save_samples(values, path)
    assert np.array_equal(bits(load_samples(path)), bits(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=2, max_size=40, unique=True),
       st.lists(st.floats(-744.0, 709.7), min_size=40, max_size=40))
def test_price_series_round_trip_bit_exact(tmp_path_factory, times, logs):
    # log-prices down to -744 and up to 709.7 put subnormal prices and
    # prices near 1e308 in the file
    times = np.sort(np.array(times))
    series = PriceSeries(times, np.array(logs[:times.size]))
    path = str(tmp_path_factory.mktemp("p") / "prices.csv")
    save_price_series(series, path)
    back = load_price_series(path)
    assert np.array_equal(bits(back.times), bits(series.times))
    assert np.array_equal(bits(back.log_prices), bits(np.log(series.prices)))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                min_size=2, max_size=40, unique=True),
       st.lists(st.floats(0.0, 1e308, exclude_min=True), min_size=40,
                max_size=40),
       st.sampled_from(["whole", "pieces", "lines"]))
def test_loader_takes_the_log_from_prices_bits(tmp_path_factory, times,
                                                prices, path_kind):
    # the log-prices the loader writes over the parsed prices are
    # from_prices' bits, whether the body is parsed whole, in pieces at
    # two usable CPUs or, for a file loadtxt may not take, line by line
    times = np.sort(np.array(times))
    prices = np.array(prices[:times.size])
    loose = "\x0c" if path_kind == "lines" else ""  # not plain: the loop
    rows = zip(times.tolist(), prices.tolist())
    text = "t,price\n" + "".join(f"{t!r},{p!r}{loose}\n" for t, p in rows)
    path = tmp_path_factory.mktemp("l") / "prices.csv"
    path.write_text(text)
    workers = 2 if path_kind == "pieces" else 1
    with mock.patch.object(fileio, "_PIECE_MIN", 1), on_cpus(workers):
        back = load_price_series(str(path))
    want = PriceSeries.from_prices(times, prices)
    assert np.array_equal(bits(back.times), bits(want.times))
    assert np.array_equal(bits(back.log_prices), bits(want.log_prices))


def outcome(read, path, *args):
    try:
        return bits(read(path, *args)).tolist()
    except InputFormatError as exc:
        return str(exc)


cells = st.text(alphabet="0123456789.e-+ \t,#_xinfa\x0b\x0c\x1c\x1f",
                max_size=10)
pairs = st.builds("{!r},{!r}".format, floats, floats) | st.just("")
singles = st.builds(repr, floats) | st.just("")
bodies = (st.lists(cells | pairs | singles, max_size=8)
          | st.lists(pairs, min_size=2, max_size=8)
          | st.lists(singles, min_size=2, max_size=8))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(["t,price", " t,price ", "t,price,", "value", ""]),
       bodies,
       st.lists(st.sampled_from(["\n", "\r\n", "\n", "\r"]), min_size=9,
                max_size=9),
       st.sampled_from([1, 2, 3]))
def test_vectorized_read_matches_the_line_loop(tmp_path_factory, header,
                                               lines, breaks, workers):
    # whatever the file, np.loadtxt either gives what the line loop gives
    # or hands the file to the loop, which words the error; with no piece
    # minimum, a body of a few lines is parsed in pieces cut wherever a
    # newline allows
    text = "".join(l + b for l, b in zip([header] + lines, breaks))
    path = tmp_path_factory.mktemp("r") / "in.csv"
    path.write_bytes(text.encode())
    with mock.patch.object(fileio, "_PIECE_MIN", 1), on_cpus(workers):
        for args in (("t,price", 2, 2, "few"), ("value", 1, 1, "none")):
            assert (outcome(_read_numeric, str(path), *args)
                    == outcome(_read_lines, str(path), *args))


MALFORMED = [
    ("t,price\n0,1\n# note\n2,3\n", "{p}:3: expected 2 columns"),
    ("t,price\n0,1\n#2,3\n", "{p}:3: non-numeric value"),
    ("t,price\n0,1,\n1,2\n", "{p}:2: expected 2 columns"),
    ("t,price\n0,1\n1,2,3\n", "{p}:3: expected 2 columns"),
    ("t,price\n0,1\n1,2\n2,3\n3,abc\n", "{p}:5: non-numeric value"),
    ("t,price\n", "{p}: fewer than two price rows"),
    ("t,price\n\n0,1\n", "{p}: fewer than two price rows"),
    ("", "{p} is empty"),
    ("time,price\n0,1\n1,2\n", "{p}: expected header 't,price', found 'time,price'"),
    ("t,price\r\n0,1\r\n1,x\r\n", "{p}:3: non-numeric value"),
    ("t,price\n\n0,1\n  \n1,x\n", "{p}:5: non-numeric value"),
    ("t,price\n0,1,\n", "{p}:2: expected 2 columns"),
    ("t,price\n0\x0c,1\n1,2\n", "{p}:2: expected 2 columns"),
    ("t,price\n0,1\x1f\n1,2\n", "{p}:2: non-numeric value"),
    ("t,price\n0,1\n1,1_0\n2,2\n3, \n", "{p}:5: non-numeric value"),
]


@pytest.mark.parametrize("text, message", MALFORMED)
def test_price_csv_errors_keep_their_messages(tmp_path, text, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(text.encode())
    with pytest.raises(InputFormatError) as err:
        load_price_series(str(path))
    assert str(err.value) == message.format(p=path)


@pytest.mark.parametrize("text, times, prices", [
    ("t,price\r\n0,1\r\n1,2\r\n", [0.0, 1.0], [1.0, 2.0]),
    ("t,price\n\n0,1\n\n\n1,2.5\n", [0.0, 1.0], [1.0, 2.5]),
    (" t,price \n 0 , 1e-3 \n\t1.5\t,\t2E+2\n", [0.0, 1.5], [1e-3, 200.0]),
    ("t,price\n0,1\n  \n1,2", [0.0, 1.0], [1.0, 2.0]),
    ("t,price\n0,1\x0c\n1,2\n", [0.0, 1.0], [1.0, 2.0]),
])
def test_price_csv_variants_load(tmp_path, text, times, prices):
    path = tmp_path / "ok.csv"
    path.write_bytes(text.encode())
    back = load_price_series(str(path))
    assert back.times.tolist() == times
    assert np.array_equal(back.log_prices, np.log(prices))


def test_samples_and_table_errors_keep_their_messages(tmp_path):
    path = tmp_path / "bad.csv"
    cases = [
        (load_samples, "value\n1\n2,3\n", "{p}:3: non-numeric value"),
        (load_samples, "value\n", "{p}: no sample rows"),
        (load_samples, "value\n\n \n", "{p}: no sample rows"),
        (load_response_table, "x,g\n",
         "{p}: tabulated response needs >= 4 aligned (x, g) pairs"),
        (load_response_table, "x,g\n1,2\n2\n", "{p}:3: expected 2 columns"),
        (load_density_curve, "x,f,method\n0,1,exact\n1,z,exact\n",
         "{p}:3: non-numeric value"),
        (load_density_curve, "x,f,method\n0,1,exact\n1,2,empirical\n",
         "{p}: mixed methods ['empirical', 'exact']"),
        (load_density_curve, "x,f,method\n", "{p}: no curve rows"),
    ]
    for load, text, message in cases:
        path.write_bytes(text.encode())
        with pytest.raises(InputFormatError) as err:
            load(str(path))
        assert str(err.value) == message.format(p=path)


def test_missing_file_message(tmp_path):
    path = tmp_path / "absent.csv"
    with pytest.raises(InputFormatError, match=r"^cannot read .*absent\.csv"):
        load_price_series(str(path))


def test_writers_stream_whole_chunks(tmp_path):
    # more rows than one write chunk, byte for byte as one joined text
    rng = np.random.default_rng(11)
    values = rng.standard_normal(_ROWS + 3) ** 5
    path = tmp_path / "s.csv"
    save_samples(values, str(path))
    expected = "value\n" + "".join(f"{float(v)!r}\n" for v in values)
    assert path.read_text() == expected


# ---------------------------------------------------------------------------
# CSV float text: the in-process kernel against repr
# ---------------------------------------------------------------------------

def repr_csv(header, columns, label=None):
    """The oracle: header, then each row's floats by repr and the label."""
    tail = [] if label is None else [label]
    rows = zip(*[np.asarray(c, dtype=float).tolist() for c in columns])
    return header + "\n" + "".join(
        ",".join([repr(v) for v in row] + tail) + "\n" for row in rows)


def assert_repr(values):
    """The block text write_csv gives one column of ``values`` is repr's."""
    values = np.asarray(values, dtype=float).ravel()
    got = _format_rows([values], None).split("\n")[:-1]
    want = [repr(v) for v in values.tolist()]
    wrong = [(w, g) for w, g in zip(want, got) if w != g]
    assert len(got) == len(want) and not wrong, wrong[:5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 64 - 1), min_size=1, max_size=64))
@example([0, 2 ** 63, 1, 0x000FFFFFFFFFFFFF, 0x0010000000000000,
          0x7FEFFFFFFFFFFFFF, 0x7FF0000000000000, 0xFFF0000000000000,
          0x7FF8000000000000, 0xFFF0000000000001])
def test_float_text_is_repr_on_raw_bit_patterns(patterns):
    # every 64-bit pattern: subnormals, +-0, inf and every nan payload
    # (repr writes each nan as nan) included; the example holds +-0, the
    # extreme subnormals and normals, +-inf and two nans
    assert_repr(np.array(patterns, dtype=np.uint64).view(np.float64))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats() | st.floats(1e-6, 1e17) | st.floats(-1e17, -1e-6),
                min_size=1, max_size=64))
def test_float_text_is_repr_on_floats(values):
    # any float, and floats in the kernel's domain of either sign
    assert_repr(values)


def neighbours(values):
    values = np.asarray(values, dtype=float)
    with np.errstate(over="ignore"):
        return np.concatenate([values, np.nextafter(values, np.inf),
                               np.nextafter(values, -np.inf)])


def test_float_text_is_repr_on_hard_sets():
    # grids k dt, values rounded to each decimal count, integers, powers
    # of two and of ten, and the edges of the kernel's domain, each with
    # its float neighbours, in both signs
    rng = np.random.default_rng(25)
    k = np.arange(20000)
    sets = [k * dt for dt in (1e-6, 1e-8, 1e-4, 0.1, 1 / 3, 3e-7)]
    scales = 10.0 ** rng.integers(-7, 18, 4000)
    sets += [neighbours(np.round(rng.random(4000) * scales, d))
             for d in range(1, 18)]
    sets += [neighbours(rng.integers(-2 ** 53, 2 ** 53, 4000)),
             neighbours(np.arange(-3000, 3000)),
             neighbours(np.ldexp(1.0, np.arange(-1074, 1024))),
             neighbours([float(f"1e{e}") for e in range(-323, 309)]),
             neighbours([1e-6, 1e-5, 1e-4, 1e-3, 1e16, 1e17,
                         9.999999999999999e16, 5e-324,
                         2.2250738585072014e-308, 1.7976931348623157e308,
                         0.0, np.inf, np.nan])]
    values = np.concatenate(sets)
    assert_repr(np.concatenate([values, -values]))


def test_float_text_is_repr_on_random_bits_in_the_kernel_domain():
    # every exponent from 2^-20 (~1e-6) to 2^56 (~7e16), random mantissas
    rng = np.random.default_rng(26)
    exponent = rng.integers(1023 - 20, 1023 + 57, 200000)
    mantissa = rng.integers(0, 2 ** 52, 200000)
    values = ((exponent << 52) | mantissa).view(np.float64)
    assert_repr(values * rng.choice([-1.0, 1.0], values.size))


# repr's switch points to and from exponent form, the signed zero, the
# smallest subnormal and the largest float
EDGES = [-0.0, 5e-324, 1.7976931348623157e308, 1e-5, 1e-4, 1e16]


@pytest.mark.parametrize("label", [None, "exact"])
@pytest.mark.parametrize("n", [1, _ROWS - 1, _ROWS, _ROWS + 1, 3 * _ROWS + 5,
                               4 * _ROWS - 1, 4 * _ROWS, 4 * _ROWS + 1,
                               12 * _ROWS + 5])
def test_write_csv_bytes_do_not_depend_on_workers(tmp_path, n, label):
    # block edges, and block counts that 1, 2 and 3 threads share evenly
    # (4 and 12) or not; 21-bit integers times 2**-50 .. 2**29 give reprs
    # in plain and exponent form
    rng = np.random.default_rng(n)
    a = rng.integers(-2 ** 20, 2 ** 20, n) * 2.0 ** rng.integers(-50, 30, n)
    b = np.roll(a, 1) * np.pi
    a[np.arange(len(EDGES)) * (n // len(EDGES))] = EDGES
    b[n - 1 - np.arange(len(EDGES)) * (n // len(EDGES))] = EDGES
    header = "x,y" if label is None else "x,y,method"
    paths = [str(tmp_path / f"w{workers}.csv") for workers in (1, 2, 3)]
    for workers, path in enumerate(paths, 1):
        with on_cpus(workers):
            write_csv(path, header, (a, b), label=label)
    serial = open(paths[0], "rb").read()
    assert serial == repr_csv(header, (a, b), label).encode()
    assert [open(p, "rb").read() for p in paths[1:]] == [serial, serial]


def test_write_lanes_keep_block_order_under_contention(tmp_path,
                                                        monkeypatch):
    # eight formatting threads on a 2-vCPU host, 3-row blocks and a switch
    # interval of a microsecond: 700 blocks come out in order, within the
    # timeout
    monkeypatch.setattr(fileio, "_ROWS", 3)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 8)
    values = np.arange(2100) / 7.0
    path = tmp_path / "v.csv"
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        thread = threading.Thread(target=write_csv, daemon=True,
                                  args=(str(path), "v", (values,)))
        thread.start()
        thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not thread.is_alive()
    assert path.read_bytes() == repr_csv("v", (values,)).encode()


@pytest.mark.parametrize("sizes", [(3, 2), (1, 3)], ids=["3-2", "1-3"])
def test_write_csv_refuses_columns_of_unequal_length(tmp_path, sizes):
    path = tmp_path / "x.csv"
    columns = [np.arange(float(size)) for size in sizes]
    message = f"columns of unequal length \\({sizes[0]} and {sizes[1]} values"
    with pytest.raises(InputFormatError, match=message):
        write_csv(str(path), "a,b", columns)
    assert list(tmp_path.iterdir()) == []


def _fail_on_the_second_block(columns, label):
    if columns[0][0] == _ROWS:
        raise RuntimeError("the second block failed")
    return _format_rows(columns, label)


def _write_failing_blocks(tmp_path, monkeypatch, cpus) -> None:
    """A write on ``cpus`` usable CPUs whose second of three blocks fails
    raises that failure and leaves no file and no thread."""
    monkeypatch.setattr(fileio, "_format_rows", _fail_on_the_second_block)
    times = np.arange(3 * _ROWS, dtype=float)
    threads = threading.active_count()
    with on_cpus(cpus), pytest.raises(RuntimeError,
                                      match="the second block failed"):
        write_csv(str(tmp_path / "p.csv"), "t,price", (times, times + 0.5))
    assert list(tmp_path.iterdir()) == []
    assert threading.active_count() == threads


def test_write_csv_worker_failure_leaves_nothing(tmp_path, monkeypatch):
    # a block that fails on a formatting thread, at any thread count
    for workers in (1, 2, 3):
        _write_failing_blocks(tmp_path, monkeypatch, workers)


def test_write_csv_formats_serially_without_a_safe_fork(tmp_path,
                                                        monkeypatch):
    # beside a live second thread, the blocks formatted on two and three
    # threads give the serial bytes, and a failing block leaves nothing
    times = np.arange(3 * _ROWS + 5, dtype=float)
    serial = tmp_path / "serial.csv"
    write_csv(str(serial), "t,price", (times, times / 7.0))
    expected = serial.read_bytes()
    serial.unlink()
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        for workers in (2, 3):
            path = tmp_path / f"w{workers}.csv"
            with on_cpus(workers):
                write_csv(str(path), "t,price", (times, times / 7.0))
            assert path.read_bytes() == expected
            path.unlink()
        _write_failing_blocks(tmp_path, monkeypatch, 2)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# CSV bodies parsed in pieces
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workers", [2, 3])
@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_pieces_cut_inside_blank_lines(tmp_path, monkeypatch, workers,
                                       newline):
    # the middle of the body is blank lines, so every cut falls among
    # them and some pieces hold no row at all, at any CPU count
    body = ([f"{i},{i / 7!r}" for i in range(100)] + [""] * 10000
            + [f"{i}e-3,{-i!r}" for i in range(100)])
    path = tmp_path / "p.csv"
    path.write_bytes(newline.join(["t,price"] + body + [""]).encode())
    monkeypatch.setattr(fileio, "_PIECE_MIN", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: workers)
    pieces = fileio._parse_pieces(str(path), "t,price", 2)
    serial = _read_lines(str(path), "t,price", 2, 2, "few")
    assert pieces is not None and pieces.shape == (2, 200)
    assert np.array_equal(bits(pieces), bits(serial))


def test_parse_in_pieces_over_the_minimum(tmp_path, monkeypatch):
    # pieces of _PIECE_MIN bytes or more: the line loop's values, bit for
    # bit, at two usable CPUs and at one, and a bad row in the last piece
    # words the line loop's error
    path = tmp_path / "p.csv"
    times = np.arange(2 * fileio._PIECE_MIN // 25 + 1000, dtype=float)
    write_csv(str(path), "t,price", (times, np.exp(np.sin(times))))
    text = path.read_bytes()
    assert len(text) > 2 * fileio._PIECE_MIN + len("t,price\n")
    loads = []
    for cpus in (2, 1):
        with on_cpus(cpus):
            loads.append(load_price_series(str(path)))
    two, one = loads
    assert np.array_equal(bits(two.times), bits(one.times))
    assert np.array_equal(bits(two.log_prices), bits(one.log_prices))
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)
    pieces = fileio._parse_pieces(str(path), "t,price", 2)
    lines = _read_lines(str(path), "t,price", 2, 2, "few")
    assert np.array_equal(bits(pieces), bits(lines))
    path.write_bytes(text[:-1] + b"x\n")
    with pytest.raises(InputFormatError) as err:
        load_price_series(str(path))
    last = text.count(b"\n")
    assert str(err.value) == f"{path}:{last}: non-numeric value"


def test_the_parse_starts_no_process(tmp_path, monkeypatch):
    # any fork fails here; the parse runs in this process, alone or
    # beside a live thread
    path = tmp_path / "v.csv"
    values = np.linspace(-1.0, 1.0, 5000)
    save_samples(values, str(path))
    monkeypatch.setattr(fileio, "_PIECE_MIN", 1)
    monkeypatch.setattr(parallel, "usable_cpus", lambda: 2)

    def no_fork():
        raise RuntimeError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    assert np.array_equal(load_samples(str(path)), values)
    done = threading.Event()
    thread = threading.Thread(target=done.wait)
    thread.start()
    try:
        assert np.array_equal(load_samples(str(path)), values)
    finally:
        done.set()
        thread.join(timeout=10)
    assert not thread.is_alive()


# ---------------------------------------------------------------------------
# decimal text: the parse kernel against np.loadtxt
# ---------------------------------------------------------------------------

def kernel_grammar(text: str) -> bool:
    """Whether the kernel takes ``text`` as a field (see fileio)."""
    match = re.fullmatch(r"(-?([0-9]+\.[0-9]+))([eE][+-][0-9]{2,3})?", text)
    return (match is not None and len(match[1]) <= fileio._FIELD
            and int(match[2].replace(".", "0")) < 10 ** 18)


def loadtxt_bits(texts) -> list:
    return bits(np.loadtxt(texts, ndmin=1)).tolist()


def kernel_bits(tmp_path, texts, ncols: int = 1, newline: str = "\n"):
    """The bits the kernel reads from one piece of the lines ``texts``
    (``ncols`` fields each), or None where it refuses the piece, which it
    then leaves as it was read."""
    path = tmp_path / "k.csv"
    data = "".join(t + newline for t in texts).encode()
    path.write_bytes(data)
    lane = fileio._Lane()
    with open(path, "rb") as fh:
        assert lane.read(fh, len(data))
    got = lane.parse(ncols)
    if got is None:
        assert lane.text[fileio._FIELD:].tobytes() == data
        return None
    assert got.shape == (len(texts), ncols)
    return bits(got).ravel().tolist()


@st.composite
def decimals(draw):
    """Decimal text of 1-19 significant digits, leading zeros and '5.' or
    '.5' forms included."""
    digits = draw(st.text("0123456789", min_size=1, max_size=19))
    text = "0" * draw(st.integers(0, 3)) + digits
    point = draw(st.integers(0, len(text)))
    return (draw(st.sampled_from(["", "-"])) + text[:point] + "."
            + text[point:])


@st.composite
def near_midpoints(draw):
    """Decimal text within one unit of its last digit of the exact
    midpoint between a double and the next one up."""
    x = draw(st.floats(1e-6, 1e17, exclude_max=True))
    mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
    places = draw(st.integers(1, 22))
    units = max(round(mid * 10 ** places) + draw(st.integers(-1, 1)), 0)
    text = str(units).rjust(places + 1, "0")
    return (draw(st.sampled_from(["", "-"])) + text[:-places] + "."
            + text[-places:])


@st.composite
def near_midpoints_with_exponents(draw):
    """Text d.ddd...e[+-]XX, 1-17 significant digits, within one unit of
    its last digit of the exact midpoint between a double and the next
    one up, anywhere in the normal range."""
    x = draw(st.floats(1e-300, 1e300))
    mid = (Fraction(x) + Fraction(np.nextafter(x, np.inf))) / 2
    exponent = len(str(int(mid))) - 1 if mid >= 1 else \
        -len(str(int(1 / mid)))  # 10^exponent <= mid, or 10x it
    places = draw(st.integers(0, 16))
    units = round(mid / Fraction(10) ** (exponent - places))
    text = str(max(units + draw(st.integers(-1, 1)), 1))
    exponent += len(text) - places - 1
    return (draw(st.sampled_from(["", "-"])) + text[0] + "."
            + (text[1:] or "0") + f"e{exponent:+03d}")


texts = (st.builds(repr, st.floats(allow_nan=False)) | decimals()
         | near_midpoints() | near_midpoints_with_exponents())


@settings(max_examples=300, deadline=None)
@given(st.lists(texts, min_size=1, max_size=40),
       st.sampled_from(["\n", "\r\n"]))
@example(["-0.0", "0.0", "9007199254740993.0", "4503599627370497.5",
          "0.30000000000000004", "1.0000000000000002", "0.5", "5.", ".5",
          "00012.50", "1e-05", "inf", "-inf", "99999999999999999.9",
          "2.0000000000000000", "0.999999999999999999", "1.5e-07",
          "2.2250738585072014e-308", "5e-324", "1.7976931348623157e+308",
          "9.9e+250", "1.0E-251", "-1.234e+016", "1.5e5", "1.5e+5"], "\n")
def test_kernel_reads_loadtxt_bits(tmp_path_factory, texts, newline):
    # the fields in the kernel's grammar, as one piece, are read to
    # loadtxt's bits; and every text, in pieces or whole, loads as
    # loadtxt loads it, whichever path took each piece
    tmp_path = tmp_path_factory.mktemp("k")
    taken = [t for t in texts if kernel_grammar(t)]
    if taken:
        assert kernel_bits(tmp_path, taken, 1, newline) == \
            loadtxt_bits(taken)
    path = tmp_path / "v.csv"
    path.write_bytes(("value" + newline + newline.join(texts)
                      + newline).encode())
    for piece in (1, fileio._PIECE_MIN):
        with mock.patch.object(fileio, "_PIECE_MIN", piece), on_cpus(2):
            got = bits(_read_numeric(str(path), "value", 1)[0]).tolist()
        assert got == loadtxt_bits(texts)


# decimals of 17 significant digits within 2^-60 ulp of the midpoint
# between two doubles, found as convergents of 2^(e-1) 10^K: the kernel's
# product path lands on the wrong side of each of these midpoints, so
# they are the fields that float() reads
NEAR_TIES = ["1.2164181315445567e-227", "5.5347597072099743e-175",
             "1.8033553323887070e-142", "4.8393687780416253e-98",
             "9.8980439871403039e-48", "2.7912358749942586e+43",
             "2.5324255020244969e+84", "9.6724197111354068e+118",
             "2.0754476271560580e+189", "1.1554948484863046e+239",
             "4.0033950534738767e+257"]


def test_fields_nearest_a_midpoint_are_read_by_float(tmp_path):
    texts = NEAR_TIES + ["-" + t for t in NEAR_TIES]
    assert all(kernel_grammar(t) for t in texts)
    assert kernel_bits(tmp_path, texts) == loadtxt_bits(texts)


def pieces_to_loadtxt(path, monkeypatch, ncols: int = 2):
    """The body of ``path``, parsed in pieces, and the count of them that
    went to loadtxt."""
    calls = []

    def spy(*args):
        calls.append(args)
        return _loadtxt(*args)

    monkeypatch.setattr(fileio, "_loadtxt", spy)
    header = open(path).readline().strip()
    return fileio._parse_pieces(str(path), header, ncols), len(calls)


@pytest.mark.parametrize("odd", ["1e-05,2.5", "+1.5,2.5", "1.5e5,2.5",
                                 "1.5e+5,2.5", "1.5e+0005,2.5", "5.,2.5",
                                 "1.5,.5", "1.5, 2.5", "1,2.5", "nan,2.5",
                                 "1.5,2.5 ", "1.5\t,2.5", "-inf,2.5"])
def test_a_piece_the_kernel_refuses_goes_to_loadtxt(tmp_path, monkeypatch,
                                                     odd):
    # one line out of the kernel's grammar among 200 in it: the piece goes
    # to loadtxt as it was read, and loadtxt gives the same values
    lines = [f"{i / 7:.6f},{float(np.exp(i / 9))!r}" for i in range(200)]

    def floats():
        return bits([[float(x) for x in line.split(",")] for line in lines])

    assert kernel_bits(tmp_path, lines, 2) == floats().ravel().tolist()
    lines[100] = odd
    assert kernel_bits(tmp_path, lines, 2) is None
    path = tmp_path / "p.csv"
    path.write_bytes(("t,price\n" + "\n".join(lines) + "\n").encode())
    body, loadtxt = pieces_to_loadtxt(path, monkeypatch)
    assert loadtxt == 1
    assert np.array_equal(bits(body.T), floats())


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_the_kernel_takes_exponents_and_crlf(tmp_path, monkeypatch,
                                             newline):
    # repr's exponent forms, e or E, with CRLF or LF line ends and no
    # final line end: no piece goes to loadtxt, and the values are
    # float()'s
    rng = np.random.default_rng(29)
    values = rng.standard_normal((3000, 2)) * 10.0 ** rng.integers(
        -300, 300, (3000, 2))
    lines = [f"{a!r},{b!r}" for a, b in values.tolist()]
    lines[7] = lines[7].replace("e", "E")
    assert sum("e" in line for line in lines) > 2900
    path = tmp_path / "p.csv"
    path.write_bytes(newline.join(["x,g"] + lines).encode())
    monkeypatch.setattr(fileio, "_PIECE_MIN", 1 << 10)
    body, loadtxt = pieces_to_loadtxt(path, monkeypatch)
    assert loadtxt == 0
    assert np.array_equal(bits(body.T), bits(values))


@settings(max_examples=60, deadline=None)
@given(st.lists(pairs | st.sampled_from(["", " ", "\t"]), max_size=12),
       st.sampled_from(["\n", "\r\n"]), st.booleans(),
       st.none() | st.tuples(st.integers(0, 12),
                             st.sampled_from(["1,2,3", "x,1", "1", "1,"])),
       st.integers(1, 3))
def test_piece_loop_loads_as_the_line_loop(tmp_path_factory, body, newline,
                                           final, bad, workers):
    # every line a piece: blank lines, CRLF and no final newline load bit
    # for bit as the line loop loads them, on any worker count; a bad line
    # is worded path:line; no worker process or thread outlives the load
    if bad is not None:
        body.insert(min(bad[0], len(body)), bad[1])
    text = newline.join(["t,price"] + body) + (newline if final else "")
    path = tmp_path_factory.mktemp("q") / "p.csv"
    path.write_bytes(text.encode())
    threads = threading.active_count()
    args = ("t,price", 2, 2, "few")
    with mock.patch.object(fileio, "_PIECE_MIN", 1), on_cpus(workers):
        got = outcome(_read_numeric, str(path), *args)
    assert got == outcome(_read_lines, str(path), *args)
    if bad is not None:
        assert got.startswith(f"{path}:")
    assert threading.active_count() == threads


@pytest.mark.parametrize("logs, message", [
    ({-1: 800.0}, "non-finite prices: 1 of {n}, the first is inf at row {n}"),
    ({-1: -800.0}, "nonpositive prices: 1 of {n}, the first is 0.0 at row "
                   "{n}"),
    ({3: 800.0, -1: 800.0}, "non-finite prices: 2 of {n}, the first is inf "
                            "at row 4"),
    ({3: -800.0, -1: 800.0}, "non-finite prices: 1 of {n}, the first is inf "
                             "at row {n}"),
], ids=["inf", "zero", "two-inf", "zero-then-inf"])
def test_blocked_price_check_words_the_whole_column(tmp_path, logs, message):
    # the bad prices of a three-block write, one in its last block: the
    # pass that checks one block at a time counts over the whole column
    # and words the first by its row, before any byte is written
    n = 2 * _ROWS + 5
    log_prices = np.zeros(n)
    for row, value in logs.items():
        log_prices[row] = value
    series = PriceSeries(np.arange(n, dtype=float), log_prices)
    with pytest.raises(InputFormatError) as err:
        save_price_series(series, str(tmp_path / "p.csv"), threads=2)
    assert str(err.value) == (
        f"prices leave the float range ({message.format(n=n)}); this "
        "configuration can only be analyzed in memory via log returns")
    assert list(tmp_path.iterdir()) == []
