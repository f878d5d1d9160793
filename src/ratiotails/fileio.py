"""CSV schemas, key=value reports and run manifests.

Schemas (all comma-separated, header required, floats written as repr
writes them, the shortest text that reads back as the same float):

    prices   t,price
    samples  value
    density  x,f,method
    tables   x,g

Numeric CSVs are read once, in pieces of whole lines, one after another
on the calling thread, each piece's rows written straight into the body
that the reader returns.  A piece of decimals as repr writes them is read
by whole-array numpy steps that give loadtxt's exact floats (see "decimal
text" below); any other piece goes to np.loadtxt.  A file that loadtxt
cannot take is reread line by line, which words the error as path:line.
Manifests and reports are plain ``key=value`` text.  All writers, CSV
ones streaming rows in blocks, go through an atomic temp-file rename so
a failed command never leaves a partial artifact behind.  CSV blocks are
formatted in-process by whole-array numpy steps that give repr's exact
bytes (see "float text" below), on up to the usable CPUs (``threads`` of
save_price_series) by parallel.thread_map, which hands them to the file
in order, each thread holding one block at a time; save_price_series
exponentiates each block's log-prices as it formats the block, so no
price column is ever made.  No process is started to read or write.
Neither the values read nor the bytes written ever depend on the thread
count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import os
import tempfile
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .density import CurveMethod, DensityCurve
from .errors import DomainError, InputFormatError
from .parallel import thread_map
from .simulate import PriceSeries, _log_prices, check_price_blocks

__all__ = [
    "write_atomic",
    "write_csv",
    "sha256_file",
    "format_key_values",
    "parse_key_values",
    "key_values_csv",
    "save_price_series",
    "load_price_series",
    "save_samples",
    "load_samples",
    "save_density_curve",
    "load_density_curve",
    "load_response_table",
    "RunManifest",
]


def write_atomic(path: str, text: str) -> None:
    """Write text via a temp file and rename.  A path in a directory that
    cannot take the file, or that names a directory, raises
    InputFormatError and leaves no file."""
    _write_atomic(path, lambda fh: fh.write(text))


def _write_atomic(path: str, fill) -> None:
    """write_atomic of what fill(fh) writes to the open temp file fh."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fill(fh)
        try:
            os.replace(tmp, path)
        except OSError as exc:
            raise InputFormatError(
                f"cannot write {path}: {exc.strerror}") from None
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def format_key_values(items: dict) -> str:
    return "".join(f"{k}={v}\n" for k, v in items.items())


def key_values_csv(rows: list) -> str:
    """Render report dictionaries as CSV rows for batch sweeps.

    All rows must share the same keys; the header is the key list of the
    first row.
    """
    if not rows:
        raise InputFormatError("no report rows to render")
    header = list(rows[0].keys())
    for row in rows[1:]:
        if list(row.keys()) != header:
            raise InputFormatError("report rows have mismatched columns")
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def parse_key_values(text: str) -> dict:
    out = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InputFormatError(f"line {lineno} is not key=value: {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


# ---------------------------------------------------------------------------
# CSV schemas
# ---------------------------------------------------------------------------

_ROWS = 1 << 14  # rows formatted per block
_LOOSE = b"\x0b\x0c\x1c\x1d\x1e\x1f"  # splitlines breaks, loadtxt spaces
_SCALE = 250  # the largest |K| of the reader's product path


@functools.cache
def _tens():
    """(pow10, scale), the powers of ten of both decimal kernels: the int64
    10^j for j = 0..18, and the double-double 10^K for K = -_SCALE..
    _SCALE (at _SCALE + K) as its high part, that part's Dekker halves and
    its low part, each correctly rounded (int / int is); for 0 <= K <= 22
    the high part is exact."""
    high, low = [], []
    for K in range(-_SCALE, _SCALE + 1):
        num, den = (10 ** K, 1) if K >= 0 else (1, 10 ** -K)
        h = num / den
        a, b = h.as_integer_ratio()
        high.append(h)
        low.append((num * b - a * den) / (den * b))
    high = np.array(high)
    split = 134217729.0 * high
    halves = split - (split - high)
    return 10 ** np.arange(19), (high, halves, high - halves, np.array(low))


# ---------------------------------------------------------------------------
# float text: repr's bytes from whole-array numpy steps
#
# For 1e-6 <= |x| < 1e17, k = 16 - floor(log10 |x|) lies in [0, 22], so 10^k
# is an exact double: Dekker's two-product gives Z = |x| 10^k in [1e16, 1e17)
# exactly, as an int64 plus a double, and u = ulp(x) 10^k / 2 is exact too.
# The decimals that read back as x are, in units of 10^-k, the reals within
# u of Z, both ends included when x's mantissa is even (round-half-even);
# for x not a power of two 0.55 < u < 11.2.  repr takes the one with the
# fewest significant digits and, of those, the one nearest x: the multiple
# of 100 in [Z - u, Z + u] if there is one (there is at most one), its
# trailing zeros stripped; else the multiple of 10 nearest Z if it lies
# inside (16 digits); else the integer nearest Z (17 digits).  None of them
# is 1e17: that would need 10^(17-k) to round down to x, and none of
# 1e-5..1e16 does (from 1 up they are exact, below 1 they round up; 1e-6
# rounds down, and its k = 23 is outside).  repr itself writes the rest:
# values outside that domain (zeros, subnormals, inf and nan included),
# powers of two (whose lower neighbour is the nearer one) and a nearest
# candidate that is an exact tie.
# ---------------------------------------------------------------------------

_WORDS = 12  # uint32 words of one float's field, its end byte included


@functools.cache
def _quads():
    """The 4-digit ASCII of 0..9999 as uint32."""
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.ascontiguousarray(quads + 48, dtype=np.uint8).view(np.uint32)
    return quads[:, 0]


@functools.cache
def _repr_templates(end: int):
    """(keep, put): uint32 masks of _WORDS words, one pair per layout
    (negative, digits after the point, point + 5), 2 * 21 * 23 of them.

    A field's bytes 0..19 hold the digits before the point right-aligned,
    byte 19 being the point's place (a 0 digit), and its bytes 20..39 the
    digits after the point; keep selects the digits that the text shows,
    and put adds the sign, the point, the exponent and the ``end`` byte
    around them."""
    keep = np.zeros((2, 21, 23, 4 * _WORDS), np.uint8)
    put = np.zeros_like(keep)
    for negative, trailing, point in itertools.product(
            range(2), range(21), range(-5, 18)):
        k, p = keep[negative, trailing, point + 5], put[negative, trailing,
                                                       point + 5]
        exponent = point <= -4 or point >= 17
        lead = 1 if exponent else max(point, 1)
        k[19 - lead:19] = k[20:20 + trailing] = 0xFF
        p[19] = 0 if exponent and trailing == 0 else ord(".")
        p[18 - lead] = ord("-") if negative else 0
        tail = f"e{point - 1:+03d}" if exponent else ""
        tail = np.frombuffer(tail.encode() + bytes([end]), np.uint8)
        p[20 + trailing:20 + trailing + tail.size] = tail
    return (keep.view(np.uint32).reshape(-1, _WORDS),
            put.view(np.uint32).reshape(-1, _WORDS))


def _two_sum(a, b):
    """(s, t): s = fl(a + b) and t its exact error."""
    s = a + b
    v = s - a
    return s, (a - (s - v)) + (b - v)


def _two_product(a, b, b_high, b_low):
    """(p, e): p = fl(a b) and e its exact error (Dekker's two-product, b
    split as b_high + b_low)."""
    p = a * b
    split = 134217729.0 * a
    a_high = split - (split - a)
    a_low = a - a_high
    return p, ((a_high * b_high - p) + a_high * b_low
               + a_low * b_high) + a_low * b_low


def _scaled(a, k, tens):
    """(H, f): the int64 H and double f, |f| <= 1/2, with H + f = a 10^k
    exactly (Dekker's two-product, 10^k split in ``tens``)."""
    z, error = _two_product(a, tens[0][k], tens[1][k], tens[2][k])
    whole = np.rint(error)
    return z.astype(np.int64) + whole.astype(np.int64), error - whole


def _digit_words(high, low, out, quads) -> None:
    """out (rows, 5) <- the 20-digit ASCII of high 10^8 + low, where high <
    10^12 and low < 10^8."""
    top = high // 10 ** 8
    out[:, 0] = quads.take(top)
    high = (high - top * 10 ** 8).astype(np.int32)
    q = high // 10000
    out[:, 1] = quads.take(q)
    out[:, 2] = quads.take(high - q * 10000)
    low = low.astype(np.int32)
    q = low // 10000
    out[:, 3] = quads.take(q)
    out[:, 4] = quads.take(low - q * 10000)


def _shortest(x: np.ndarray):
    """(D, point, digits, kernel) of the floats ``x``: repr's digits as the
    17-digit int64 D (trailing zeros padded), the count of them before the
    decimal point, the count of them that repr shows, and where these hold
    (see the section note); elsewhere repr itself writes the value."""
    tens = [part[_SCALE:] for part in _tens()[1]]
    a = np.abs(x)
    with np.errstate(invalid="ignore"):
        kernel = (a >= 1e-6) & (a < 1e17)
    bits = a.view(np.int64)
    kernel &= (bits & ((1 << 52) - 1)) != 0  # powers of two
    a = np.where(kernel, a, 1.5)
    k = np.clip(16 - np.floor(np.log10(a)).astype(np.int64), 0, 22)

    def outside(H, f):
        """(below, above): whether H + f < 1e16, and whether >= 1e17."""
        return ((H < 10 ** 16) | ((H == 10 ** 16) & (f < 0)),
                (H > 10 ** 17) | ((H == 10 ** 17) & (f >= 0)))

    H, f = _scaled(a, k, tens)
    below, above = outside(H, f)
    if (below | above).any():  # log10 missed floor(log10 |x|) by one
        k = np.clip(k + below - above, 0, 22)
        H, f = _scaled(a, k, tens)
        below, above = outside(H, f)
        kernel &= ~(below | above)
    u = np.spacing(a) * tens[0][k] * 0.5
    even = (bits & 1) == 0

    def inside(m):
        """Whether m lies in [Z - u, Z + u], its ends only for even m."""
        s, t = _two_sum((H - m).astype(float), f)
        d = np.abs(s)
        return (d < u) | ((d == u) & (((t != 0) & (np.signbit(t)
                                                   != np.signbit(s)))
                                      | ((t == 0) & even)))

    hundred = (H + 50) // 100 * 100
    by100 = inside(hundred)
    ten = (H + 5) // 10 * 10
    midway = (H - ten == -5) & (f <= 0)  # Z at or below ten - 5
    ten -= 10 * (midway & (f < 0))
    by10 = inside(ten) & ~by100
    D = np.where(by100, hundred, np.where(by10, ten, H))
    kernel &= ~np.where(by100, False,
                        np.where(by10, midway & (f == 0), np.abs(f) == 0.5))
    # trailing zeros: D // 100 < 2^53 divides by 10^s exactly as a double,
    # and its quotient is whole just when 10^s divides it
    zeros = 2 * by100 + by10
    v = (D // 100).astype(float)
    for s in (8, 4, 2, 1):
        q = v / 10.0 ** s
        whole = (q == np.floor(q)) & by100
        v = np.where(whole, q, v)
        zeros += s * whole
    return D, 17 - k, 17 - zeros, kernel


def _digit_layout(x: np.ndarray):
    """(words, layout, kernel): the digit bytes of each float of ``x`` as
    _repr_templates places them, the index of its template (0 where repr
    writes the value), and where the kernel holds (see _shortest).  Each
    int64 array is dropped, or reused, once dead."""
    pow10, quads = _tens()[0], _quads()
    D, point, digits, kernel = _shortest(x)
    # D's first `lead` digits (or "0"), the point, then `pad` zeros and
    # the rest; in exponent form one digit leads
    exponent = (point < -3) | (point > 16)
    lead = np.where(exponent, 1, np.maximum(point, 0))
    pad = np.where(exponent, 0, np.maximum(-point, 0))
    layout = np.where(exponent, digits - 1,
                      np.where(lead > 0, np.maximum(digits - lead, 1),
                               digits + pad))  # digits after the point
    del digits, exponent
    layout += (x < 0) * 21
    layout *= 23
    layout += point + 5
    layout[~kernel] = 0
    del point
    q = pow10[17 - lead]
    head = D // q
    D -= head * q
    D *= pow10[lead]  # the rest: 17 digits, left-aligned
    del q, lead
    words = np.empty((x.size, _WORDS), np.uint32)
    head *= 10
    high = head // 10 ** 8
    head -= high * 10 ** 8
    _digit_words(high, head, words[:, :5], quads)
    del head, high
    q = pow10[5 + pad]
    high = D // q
    D -= high * q
    D *= pow10[3 - pad]
    _digit_words(high, D, words[:, 5:10], quads)
    words[:, 10:] = 0
    return words, layout, kernel


def _float_words(x: np.ndarray, end: int, out: np.ndarray) -> None:
    """out (rows, _WORDS) uint32 <- repr of each float of ``x``, then the
    byte ``end``, as text with NUL bytes in its gaps."""
    words, layout, kernel = _digit_layout(x)
    keep, put = _repr_templates(end)
    words &= keep.take(layout, axis=0)
    np.bitwise_or(words, put.take(layout, axis=0), out=out)
    others = np.flatnonzero(~kernel)
    if others.size:
        text = [repr(v).encode() + bytes([end]) for v in x[others].tolist()]
        out[others] = np.array(text, dtype=f"S{4 * _WORDS}").view(
            np.uint32).reshape(-1, _WORDS)


_SLICE = 1 << 12  # rows of a block whose NUL bytes one mask drops


def _format_rows(columns, label: str | None) -> str:
    """The CSV text of one block: rows of the float ``columns`` as repr
    gives them, then ``label`` if given (text without a NUL)."""
    tail = b"" if label is None else (label + "\n").encode()
    tail = np.frombuffer(tail + bytes(-len(tail) % 4), np.uint32)
    line = np.empty((columns[0].size, _WORDS * len(columns) + tail.size),
                    np.uint32)
    for i, c in enumerate(columns):
        end = "," if i + 1 < len(columns) or label is not None else "\n"
        _float_words(c, ord(end), line[:, _WORDS * i:_WORDS * (i + 1)])
    line[:, _WORDS * len(columns):] = tail
    line = line.view(np.uint8)
    text = []
    for i in range(0, len(line), _SLICE):
        part = line[i:i + _SLICE]
        text.append(str(memoryview(part[part != 0]), "utf-8"))
    return "".join(text)


def write_csv(path: str, header: str, columns,
              label: str | None = None) -> None:
    """Float columns of one length, then a constant text column ``label``
    if given, as repr's text under ``header``, in blocks of _ROWS rows
    formatted on the usable CPUs and written in order (see _write_blocks),
    so the bytes are the serial ones.  Columns of unequal length raise
    InputFormatError."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    if len({c.size for c in columns}) > 1:
        raise InputFormatError(
            f"{path}: columns of unequal length "
            f"({' and '.join(str(c.size) for c in columns)} values)")

    def block(i):
        return _format_rows([c[i:i + _ROWS] for c in columns], label)

    _write_blocks(path, header, columns[0].size, block)


def _write_blocks(path: str, header: str, rows: int, block,
                  threads: int | None = None) -> None:
    """``header``, then the text block(i) of rows i to i + _ROWS for i =
    0, _ROWS, ... below ``rows``, written atomically.  The blocks are
    formatted on up to ``threads`` threads (see parallel.thread_map),
    which hands each to the file once every earlier block is written, so
    the bytes are the serial ones and a thread holds one block at a
    time."""

    def fill(fh):
        fh.write(header + "\n")
        thread_map(block, range(0, rows, _ROWS), threads, then=fh.write)

    _write_atomic(path, fill)


def _read_numeric(path: str, header: str, ncols: int, min_rows: int = 0,
                  too_few: str = "") -> np.ndarray:
    """The (ncols, rows) columns of a numeric CSV under ``header``: its
    body parsed in pieces, by the decimal kernel or by loadtxt (see
    _parse_pieces), or the line loop, which alone words errors, for a file
    that is not plain ASCII, that loadtxt refuses or that is misshapen."""
    try:
        body = _parse_pieces(path, header, ncols)
        if body is not None and body.shape[1] >= max(min_rows, 1):
            return body
    except (OSError, ValueError):
        pass
    return _read_lines(path, header, ncols, min_rows, too_few)


_PIECE_MIN = 1 << 14  # bytes of body per piece, the last one aside
_PIECE_MAX = 1 << 18


def _parse_pieces(path: str, header: str, ncols: int):
    """The (ncols, rows) body of a plain CSV whose first line is
    ``header``, or None for any other file; a plain file is ASCII without
    the bytes that splitlines breaks lines at and loadtxt takes for spaces.

    The body is read once, in pieces of whole lines, each cut after the
    first newline once it holds 1/256 of the body's bytes, but at least
    _PIECE_MIN and at most _PIECE_MAX of them, one after another into one
    _Lane, whose scratch every piece reuses.  The decimal kernel parses a
    piece that its grammar takes (see "decimal text" below), np.loadtxt
    any other (_loadtxt), and the piece's rows go, as columns, straight
    into the body.  Its room is the rows per byte of the pieces read so
    far times the body's bytes, a 64th over; the buffer grows in place
    (realloc) when short, and is cut to the rows at the end, each column
    moved as memmove moves it, so no column is copied whole.  A piece
    that loadtxt refuses or that has another column count raises
    ValueError."""
    with open(path, "rb") as fh:
        first = fh.readline()
        line = first.split(b"\r", 1)[0].rstrip(b"\n")
        if not _plain(first) or line.strip() != header.encode():
            return None
        fh.seek(len(line) + 1 + (first[len(line):len(line) + 2] == b"\r\n"))
        body = os.fstat(fh.fileno()).st_size - fh.tell()
        step = min(max(body // 256, _PIECE_MIN), _PIECE_MAX)
        lane = _Lane()
        flat = np.empty(0)
        rows = room = read = 0
        while lane.read(fh, step):
            got = lane.parse(ncols)
            if got is None:
                text = lane.text[_FIELD:].tobytes()
                if not _plain(text):
                    return None
                got = _loadtxt(text, ncols)
            read += lane.text.size - _FIELD
            end = rows + len(got)
            if end > room:
                grown = max(end, end * body // read)
                grown += grown // 64
                flat.resize(ncols * grown, refcheck=False)
                for c in range(ncols - 1, 0, -1):  # up, as memmove moves
                    flat[c * grown:c * grown + rows] = \
                        flat[c * room:c * room + rows]
                room = grown
            flat.reshape(ncols, room)[:, rows:end] = got.T
            rows = end
    for c in range(1, ncols):  # down, as memmove moves
        flat[c * rows:(c + 1) * rows] = flat[c * room:c * room + rows]
    flat.resize(ncols * rows, refcheck=False)
    return flat.reshape(ncols, rows)


def _plain(text: bytes) -> bool:
    """Whether ``text`` is ASCII without a byte of _LOOSE."""
    return text.isascii() and not any(c in text for c in _LOOSE)


def _loadtxt(text: bytes, ncols: int) -> np.ndarray:
    """np.loadtxt's (rows, ncols) floats of the plain ``text``, its lines
    split as a text file splits them (universal newlines).  Text that
    loadtxt refuses, or rows of another column count, raise ValueError."""
    import io

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank lines only
        rows = np.loadtxt(io.StringIO(text.decode("ascii"), newline=None),
                          delimiter=",", comments=None, ndmin=2)
    if rows.size == 0:
        return rows.reshape(0, ncols)
    if rows.shape[1] != ncols:
        raise ValueError(f"{rows.shape[1]} columns, not {ncols}")
    return rows


# ---------------------------------------------------------------------------
# decimal text: loadtxt's floats from whole-array numpy steps
#
# The kernel takes a piece whose every line holds ncols fields and ends in
# a newline or a carriage return and newline; a field is a mantissa
# -?[0-9]+\.[0-9]+ of at most _FIELD = 24 bytes, then, as repr writes it,
# maybe an exponent [eE][+-][0-9]{2,3}.  Any other piece goes to loadtxt
# whole.  The mantissa's digits, its point read as a 0 digit, make the
# integer F (Lemire's eight digits per uint64 word), which must be below
# 10^18.  With k <= 22 digits after the point and the exponent x, the
# field's magnitude is M 10^-K, where M = (F + 9 (F mod 10^k)) / 10 <= F
# (10^18 stands for 10^k above 18) and K = k - x.
#
# For M < 2^53 and 0 <= K <= 22, M and 10^K are exact doubles, so the one
# division M / 10^K is correctly rounded (Clinger's fast path).  Otherwise,
# for |K| <= _SCALE, M = Mh + Ml with Mh = fl(M) and |Ml| <= 64 (M < 2^60),
# both exact, and 10^-K = Ph + Pl + d, |d| <= 2^-106 10^-K, from _tens.
# Dekker's two-product gives p + e = Mh Ph exactly; t = e + fl(Mh Pl + Ml
# Ph) drops Ml Pl and d and rounds three terms of at most 2^-47 p, so p + t
# is off from M 10^-K by under 2^-97 p, 2^-44 ulp(p).  y = fl(p + t), and
# the residual s = (p - y) + t (p - y exact by Sterbenz, one rounding) is
# off from M 10^-K - y by under 2^-43 ulp(y).  So y is the correctly
# rounded value unless |s| lies within 2^-30 ulp(y) of ulp(y) / 2, ties
# included, or y is a power of two (whose neighbour below is nearer).
# Those fields, and those with |K| > _SCALE, are read by float(), which
# rounds correctly, as loadtxt does.  |K| <= _SCALE keeps every product
# and its error term away from overflow and subnormals.
# ---------------------------------------------------------------------------

_FIELD = 24  # bytes of the longest mantissa the kernel reads
_KEEP = np.array([((1 << 64) - 1) >> 8 * c << 8 * c for c in range(8)]
                 + [0], np.uint64)  # keep a word's bytes from byte c on


class _Lane:
    """The parse's scratch, grown to the largest piece read and reused for
    every later one: the piece's text after _FIELD zero bytes that only
    the first rows read (and mask), and an arena for its flags and
    per-field quantities."""

    def __init__(self):
        self.arrays = {}
        self.text = None

    def scratch(self, name: str, n: int, dtype=np.int64) -> np.ndarray:
        a = self.arrays.get(name)
        if a is None or a.size < n:
            a = self.arrays[name] = np.zeros(n, dtype)
        return a[:n]

    def read(self, fh, step: int) -> bool:
        """Whether a piece was read from the binary file ``fh`` into
        self.text, after its _FIELD bytes: the next ``step`` bytes and the
        rest of their last line, a newline added if the file ends without
        one."""
        text = self.scratch("text", _FIELD + step + 256, np.uint8)
        got = fh.readinto(memoryview(text)[_FIELD:_FIELD + step])
        if not got:
            return False
        rest = fh.readline() if got == step else b""
        size = _FIELD + got + len(rest)
        if size >= text.size:  # a line longer than the slack
            old, text = text, self.scratch("text", size + 1, np.uint8)
            text[:_FIELD + got] = old[:_FIELD + got]
        text[_FIELD + got:size] = np.frombuffer(rest, np.uint8)
        if text[size - 1] != ord("\n"):  # the file's last line
            text[size] = ord("\n")
            size += 1
        self.text = text[:size]
        return True

    def parse(self, ncols: int):
        """The (lines, ncols) floats of the piece last read, in the lane's
        scratch, where the kernel takes it (see the section note); else
        None, the piece's text as it was read."""
        text = self.text
        piece = text[_FIELD:]
        size = piece.size
        # the fields' ends: commas, newlines and the carriage returns just
        # before newlines; below '-', only '+' may be there too
        arena = self.scratch("arena", -(-size // 8), np.uint64)
        ends = np.flatnonzero(np.less(piece, ord("-"),
                                      out=arena.view(bool)[:size]))
        codes = piece[ends]
        odd = np.flatnonzero((codes != ord(",")) & (codes != ord("\n")))
        exponents = piece.max() > ord("9")
        crlf = plus = 0
        if odd.size:
            kinds = codes[odd]
            cr = odd[kinds == ord("\r")]
            crlf = cr.size
            plus = odd.size - crlf
            if (plus and not exponents
                    or np.count_nonzero(kinds == ord("+")) != plus
                    or not (ends[cr + 1] == ends[cr] + 1).all()
                    or not (codes[cr + 1] == ord("\n")).all()):
                return None  # a space, a tab, a lone CR, a '+' sign
            keep = np.ones(ends.size, bool)
            keep[odd[kinds == ord("+")]] = False
            keep[cr + 1] = False
            ends, codes = ends[keep], codes[keep]
        n = ends.size
        lines = n // ncols
        if n % ncols:
            return None
        seps = codes.reshape(lines, ncols)
        last = seps[:, -1] == ord("\n")
        if crlf:
            last |= seps[:, -1] == ord("\r")
        if not ((seps[:, :-1] == ord(",")).all() and last.all()):
            return None
        del codes, seps, last
        arena = self.scratch("arena", max(-(-size // 8),
                                          (4 + 2 * exponents) * n), np.uint64)
        flags = arena.view(bool)[:size]
        if exponents:  # the letters must all be e or E
            letters = np.flatnonzero(np.greater(piece, ord("9"), out=flags))
            if not ((piece[letters] | 0x20) == ord("e")).all():
                return None
        points = np.flatnonzero(np.equal(piece, ord("."), out=flags))
        if points.size != n:
            return None
        slots = arena[:(4 + 2 * exponents) * n].reshape(-1, n)
        k, M, y = slots[1].view(np.int64), slots[2], slots[3].view(float)
        starts, lead = slots[0].view(np.int64), y.view(np.int64)
        starts[0] = 0
        np.add(ends[:-1], 1, out=starts[1:])
        if crlf:
            starts[1:] += piece[ends[:-1]] == ord("\r")
        negative = piece[starts] == ord("-")
        me, x = ends, 0  # the mantissas' ends, the exponents
        if exponents:
            me, x = slots[4].view(np.int64), slots[5].view(np.int64)
            # the five bytes before each field's end: e, a sign and three
            # digits, or a mantissa byte, e, a sign and two digits
            tail = np.ndarray((size,), "V5", text, offset=_FIELD - 5,
                              strides=(1,))[ends].view(np.uint8)
            tail = tail.reshape(n, 5)
            five = (tail[:, 0] | 0x20) == ord("e")
            four = (tail[:, 1] | 0x20) == ord("e")
            sign = np.where(five, tail[:, 1], tail[:, 2])
            up = sign == ord("+")
            tail -= ord("0")
            exact = (tail[:, 3:] <= 9).all(axis=1) & ((tail[:, 2] <= 9) | four)
            exact &= up | (sign == ord("-"))
            five |= four
            if (np.count_nonzero(five) != letters.size
                    or np.count_nonzero(up & five) != plus
                    or not exact[five].all()):
                return None
            del letters, up, exact
            digits = tail[:, 2:].astype(np.int64)
            digits[four, 0] = 0  # the sign
            np.dot(digits, np.array([100, 10, 1]), out=x)
            np.negative(x, out=x, where=sign == ord("-"))
            x[~five] = 0
            np.subtract(ends, five, out=me)
            me -= 4 * five
            me += four
            del tail, digits, sign, five, four
        np.subtract(me, points, out=k)  # the point and the digits after
        np.subtract(points, starts, out=lead)  # the sign and digits before
        if np.add(lead, k, out=starts).max() > _FIELD:
            return None
        lead -= negative
        if k.min() < 2 or lead.min() < 1:
            return None
        lead += k
        np.subtract(_FIELD, lead, out=lead)  # the bytes of a row before
        k -= 1
        piece[points] = ord("0")
        del points

        def refuse():
            piece[me - k - 1] = ord(".")  # the text as read, for loadtxt
            return None

        # each mantissa's last _FIELD bytes as one row (a strided view of
        # _FIELD-byte items), less '0', the bytes before the digits made 0
        rows = np.ndarray((size + 1,), f"V{_FIELD}", text, strides=(1,))
        digits = rows[me].view(np.uint8)
        digits -= ord("0")
        words = digits.view("<u8").reshape(n, _FIELD // 8)
        pow10, scale = _tens()
        mask = slots[0]
        for w in range(_FIELD // 8):
            np.take(_KEEP, lead, mode="clip", out=mask)
            words[:, w] &= mask
            lead -= 8
        if digits.max() > 9:
            return refuse()
        # Lemire's steps: digit pairs, then quads, then the eight digits
        words *= 2561
        words >>= 8
        words &= 0x00FF00FF00FF00FF
        words *= 6553601
        words >>= 16
        words &= 0x0000FFFF0000FFFF
        words *= 42949672960001
        words >>= 32
        if words[:, 0].max() >= 100:  # F >= 10^18
            return refuse()
        power = slots[0]
        np.multiply(words[:, 0], 10 ** 16, out=M)
        np.multiply(words[:, 1], 10 ** 8, out=power)
        M += power
        M += words[:, 2]  # F
        del digits, words
        np.minimum(k, 18, out=lead)
        np.take(pow10.view(np.uint64), lead, mode="clip", out=power)
        np.remainder(M, power, out=power)
        power *= 9
        M += power
        M //= 10

        K = np.subtract(k, x, out=x) if exponents else k
        fast = slots[0].view(np.int64)
        np.clip(K, 0, 22, out=fast)
        np.take(scale[0][_SCALE:], fast, mode="clip", out=y)
        np.divide(M, y, out=y)
        slow = M >= 1 << 53
        if exponents:
            slow |= K != fast
        slow = np.flatnonzero(slow)
        doubt = slow[:0]
        if slow.size:
            at = K[slow]
            far = np.abs(at) > _SCALE
            np.clip(at, -_SCALE, _SCALE, out=at)
            np.subtract(_SCALE, at, out=at)  # 10^-K
            high, halves, rests, low = (part[at] for part in scale)
            m = M[slow]
            mh = m.astype(float)
            ml = (m.view(np.int64) - mh.astype(np.int64)).astype(float)
            del m, at
            p, t = _two_product(mh, high, halves, rests)
            del halves, rests
            t += mh * low + ml * high
            del mh, ml, high, low
            near = p + t
            p -= near
            p += t  # the residual s
            del t
            ulp = np.spacing(near)
            np.abs(p, out=p)
            p -= ulp * 0.5
            np.abs(p, out=p)
            ulp *= 2.0 ** -30
            doubt = slow[far | (p <= ulp)
                         | ((near.view(np.int64) & ((1 << 52) - 1)) == 0)]
            y[slow] = near
        y *= 1.0 - 2.0 * negative
        for i in doubt.tolist():
            piece[me[i] - k[i] - 1] = ord(".")  # the text as read
            y[i] = float(piece[ends[i - 1] + 1 if i else 0:ends[i]].tobytes())
        return y.reshape(lines, ncols)


def _read_lines(path: str, header: str, ncols: int, min_rows: int,
                too_few: str, labels: set | None = None) -> np.ndarray:
    """The line loop behind _read_numeric; with ``labels`` the last of the
    ``ncols`` columns is text, collected there."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from None
    if not lines:
        raise InputFormatError(f"{path} is empty")
    if lines[0].strip() != header:
        raise InputFormatError(
            f"{path}: expected header {header!r}, found {lines[0].strip()!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        if not line.strip():
            continue
        parts = line.split(",") if ncols > 1 else [line]
        if len(parts) != ncols:
            raise InputFormatError(f"{path}:{lineno}: expected {ncols} columns")
        if labels is not None:
            labels.add(parts.pop().strip())
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            raise InputFormatError(f"{path}:{lineno}: non-numeric value")
    if len(rows) < min_rows:
        raise InputFormatError(f"{path}: {too_few}")
    width = ncols - (labels is not None)
    return np.array(rows, dtype=float).reshape(-1, width).T.copy()


def save_price_series(series: PriceSeries, path: str,
                      threads: int | None = None) -> None:
    """The t,price CSV of ``series``, formatted on up to ``threads``
    threads (by default the usable CPUs; see _write_blocks), each block's
    prices exponentiated from its log-prices as it is formatted.  A
    blocked pass first checks them as load_price_series would
    (check_prices), so a price that leaves the float range raises
    InputFormatError before any byte is written."""
    times, log_prices = series.times, series.log_prices

    def prices(i):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(log_prices[i:i + _ROWS])

    try:
        check_price_blocks(map(prices, range(0, log_prices.size, _ROWS)))
    except DomainError as exc:
        raise InputFormatError(
            f"prices leave the float range ({exc}); this configuration "
            "can only be analyzed in memory via log returns") from None

    def block(i):
        return _format_rows([times[i:i + _ROWS], prices(i)], None)

    _write_blocks(path, "t,price", times.size, block, threads)


def load_price_series(path: str) -> PriceSeries:
    """The t,price CSV at ``path`` (see _read_numeric), its log-prices
    written over the parsed prices."""
    times, prices = _read_numeric(path, "t,price", 2, 2,
                                  "fewer than two price rows")
    return PriceSeries(times, _log_prices(prices, out=prices),
                       {"source": path})


def save_samples(values, path: str) -> None:
    write_csv(path, "value", (values,))


def load_samples(path: str) -> np.ndarray:
    return _read_numeric(path, "value", 1, 1, "no sample rows")[0]


def save_density_curve(curve: DensityCurve, path: str) -> None:
    write_csv(path, "x,f,method", (curve.grid, curve.values),
              label=curve.method.value)


def load_density_curve(path: str) -> DensityCurve:
    methods = set()
    xs, fs = _read_lines(path, "x,f,method", 3, 1, "no curve rows", methods)
    if len(methods) != 1:
        raise InputFormatError(f"{path}: mixed methods {sorted(methods)}")
    return DensityCurve(xs, fs, CurveMethod(methods.pop()))


def load_response_table(path: str):
    """Load a tabulated response from an x,g CSV."""
    from .response import TabulatedResponse

    xs, gs = _read_numeric(path, "x,g", 2)
    try:
        return TabulatedResponse(xs, gs)
    except DomainError as exc:
        raise InputFormatError(f"{path}: {exc}")


# ---------------------------------------------------------------------------
# run manifests
# ---------------------------------------------------------------------------

@dataclass
class RunManifest:
    """Everything needed to reproduce a command run.

    ``params`` holds the fully resolved parameter set (flags over config
    over defaults).  Replaying a manifest re-executes the command with
    these values; all output artifacts are then byte-identical, wall-time
    fields aside.
    """

    command: str
    params: dict
    seed: int | None = None
    version: str = ""
    input_hashes: dict = field(default_factory=dict)
    started: str = ""
    finished: str = ""

    @staticmethod
    def now() -> str:
        return datetime.now(timezone.utc).isoformat()

    def to_text(self) -> str:
        items = {"command": self.command}
        if self.seed is not None:
            items["seed"] = self.seed
        items["version"] = self.version
        for key in sorted(self.params):
            items[f"param.{key}"] = self.params[key]
        for key in sorted(self.input_hashes):
            items[f"input.{key}"] = self.input_hashes[key]
        items["started"] = self.started
        items["finished"] = self.finished
        return format_key_values(items)

    @classmethod
    def from_text(cls, text: str) -> "RunManifest":
        kv = parse_key_values(text)
        if "command" not in kv:
            raise InputFormatError("manifest lacks a command entry")
        params = {k[len("param."):]: v for k, v in kv.items()
                  if k.startswith("param.")}
        hashes = {k[len("input."):]: v for k, v in kv.items()
                  if k.startswith("input.")}
        seed = kv.get("seed")
        try:
            seed = None if seed is None else int(seed)
        except ValueError:
            raise InputFormatError(f"seed={seed} is not an integer") from None
        return cls(command=kv["command"], params=params, seed=seed,
                   version=kv.get("version", ""), input_hashes=hashes,
                   started=kv.get("started", ""),
                   finished=kv.get("finished", ""))

    def save(self, path: str) -> None:
        write_atomic(path, self.to_text())

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        """The manifest at ``path``; one that cannot be read or decoded, or
        that breaks the schema, raises InputFormatError naming the file."""
        try:
            with open(path, "r") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise InputFormatError(f"cannot read manifest {path}: {exc}") \
                from None
        try:
            return cls.from_text(text)
        except InputFormatError as exc:
            raise InputFormatError(f"manifest {path}: {exc}") from None
