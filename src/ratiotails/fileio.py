"""CSV schemas, key=value reports and run manifests.

Schemas (all comma-separated, header required, floats written as repr
writes them, the shortest text that reads back as the same float):

    prices   t,price
    samples  value
    density  x,f,method
    tables   x,g

Numeric CSVs are read by np.loadtxt, one piece of whole lines at a
time, each piece's rows written straight into the body that the reader
returns; a large body's pieces are parsed in forked worker processes,
up to the usable CPUs (parallel.usable_cpus), whose shared map is that
body.  A file that loadtxt cannot take is reread line by line, which
words the error as path:line.  Manifests and reports are plain
``key=value`` text.  All writers, CSV ones streaming rows in blocks, go
through an atomic temp-file rename so a failed command never leaves a
partial artifact behind.  CSV blocks are formatted in-process by
whole-array numpy steps that give repr's exact bytes (see "float text"
below), on up to the usable CPUs (``threads`` of save_price_series), each
thread holding one block at a time; save_price_series exponentiates each
block's log-prices as it formats the block, so no price column is ever
made.  No process is started to write.  Neither the values read nor the
bytes written ever depend on the thread or process count.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import mmap
import os
import tempfile
import threading
import warnings
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np

from .density import CurveMethod, DensityCurve
from .errors import DomainError, InputFormatError
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


def write_atomic(path: str, text) -> None:
    """Write text, or an iterable of chunks, via a temp file and rename.
    A path in a directory that cannot take the file, or that names a
    directory, raises InputFormatError and leaves no file."""
    _write_atomic(path, lambda fh: fh.writelines(
        [text] if isinstance(text, str) else text))


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
def _repr_tables():
    """The doubles 10^k for k = 0..22 with their Dekker halves, the int64
    10^j for j = 0..18, and the 4-digit ASCII of 0..9999 as uint32."""
    tens = np.array([float(10 ** k) for k in range(23)])
    split = 134217729.0 * tens
    high = split - (split - tens)
    quads = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    quads = np.ascontiguousarray(quads + 48, dtype=np.uint8).view(np.uint32)
    return tens, high, tens - high, 10 ** np.arange(19), quads[:, 0]


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


def _scaled(a, k, tables):
    """(H, f): the int64 H and double f, |f| <= 1/2, with H + f = a 10^k
    exactly (Dekker's two-product, 10^k split in the table)."""
    tens, high, low = tables[0][k], tables[1][k], tables[2][k]
    z = a * tens
    split = 134217729.0 * a
    a_high = split - (split - a)
    a_low = a - a_high
    error = ((a_high * high - z) + a_high * low + a_low * high) + a_low * low
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
    tables = _repr_tables()
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

    H, f = _scaled(a, k, tables)
    below, above = outside(H, f)
    if (below | above).any():  # log10 missed floor(log10 |x|) by one
        k = np.clip(k + below - above, 0, 22)
        H, f = _scaled(a, k, tables)
        below, above = outside(H, f)
        kernel &= ~(below | above)
    u = np.spacing(a) * tables[0][k] * 0.5
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
    tables = _repr_tables()
    pow10, quads = tables[3], tables[4]
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


def _fork_context(processes: int):
    """The fork context for a parse pool of ``processes`` processes, or
    None where no pool is used: fewer than two processes, no fork on this
    platform, or a live second thread (fork copies only the calling
    thread, so a pool waits for a process that runs no other)."""
    if processes < 2:
        return None
    import multiprocessing

    if ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return multiprocessing.get_context("fork")
    return None


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
    0, _ROWS, ... below ``rows``, written atomically.

    The blocks are dealt in turn to up to ``threads`` lanes (see
    parallel.thread_count), each on one thread for the whole write (see
    parallel.thread_map): a lane formats its next block, then writes it
    once every earlier block is written, so the bytes are the serial ones
    and a lane holds one block at a time.  A lane that fails stops the
    others at their next turn."""
    from . import parallel

    starts = range(0, rows, _ROWS)
    lanes = max(1, min(parallel.thread_count(threads), len(starts)))
    turn = threading.Condition()
    written = 0  # blocks written; None once a lane has failed

    def lane(first, fh):
        nonlocal written
        try:
            for j in range(first, len(starts), lanes):
                text = block(starts[j])
                with turn:
                    turn.wait_for(lambda: written in (None, j))
                    if written is None:
                        return
                    fh.write(text)
                    written += 1
                    turn.notify_all()
                del text  # dead before the next block
        except BaseException:
            with turn:
                written = None
                turn.notify_all()
            raise

    def fill(fh):
        fh.write(header + "\n")
        parallel.thread_map(lambda first: lane(first, fh), range(lanes),
                            lanes)

    _write_atomic(path, fill)


def _read_numeric(path: str, header: str, ncols: int, min_rows: int = 0,
                  too_few: str = "") -> np.ndarray:
    """The (ncols, rows) columns of a numeric CSV under ``header``: its
    body parsed in pieces (see _parse_pieces), or the line loop, which
    alone words errors, for a file that is not plain ASCII, that loadtxt
    refuses or that is misshapen."""
    try:
        body = _parse_pieces(path, header, ncols)
        if body is not None and body.shape[1] >= max(min_rows, 1):
            return body
    except (OSError, ValueError):
        pass
    return _read_lines(path, header, ncols, min_rows, too_few)


_PIECE_MIN = 1 << 19  # bytes of body per piece, the last one aside
_shared = None        # in a parse worker: the body its rows go to


def _plan_pieces(path: str, header: str):
    """The pieces of the body of a plain file whose first line is
    ``header``, as (offset, lines) pairs; None for any other file.

    A piece is a run of whole lines, cut after the first newline once it
    holds _PIECE_MIN bytes; a plain file is ASCII without the bytes that
    splitlines breaks lines at and loadtxt takes for spaces.  Lines end
    where loadtxt ends them: at a newline, a carriage return and newline,
    or a lone carriage return."""
    with open(path, "rb") as fh:
        first = fh.readline()
        line = first.split(b"\r", 1)[0].rstrip(b"\n")
        if not _plain(first) or line.strip() != header.encode():
            return None
        fh.seek(len(line) + 1 + (first[len(line):len(line) + 2] == b"\r\n"))
        pieces = []
        while True:
            lo = fh.tell()
            piece = fh.read(_PIECE_MIN) + fh.readline()
            if not piece:
                return pieces
            if not _plain(piece):
                return None
            # numpy counts a byte about 3x as fast as bytes.count
            codes = np.frombuffer(piece, np.uint8)
            breaks = int(np.count_nonzero(codes == ord("\n")))
            if b"\r" in piece:
                breaks += piece.count(b"\r") - piece.count(b"\r\n")
            pieces.append((lo, breaks + (piece[-1:] not in b"\r\n")))


def _plain(text: bytes) -> bool:
    """Whether ``text`` is ASCII without a byte of _LOOSE."""
    return text.isascii() and not any(c in text for c in _LOOSE)


def _parse_pieces(path: str, header: str, ncols: int):
    """The (ncols, rows) body of a plain CSV whose first line is ``header``
    (see _plan_pieces), or None for any other file.

    np.loadtxt parses one piece at a time, and the piece's rows go, as
    columns, straight into the body, which has a column for every line:
    in this process into an array, or, with four pieces or more, two
    usable CPUs or more and a fork context (see _fork_context), on a
    forked pool into an anonymous shared mmap, which then is the body.
    Blank lines, which loadtxt skips, leave gaps, closed once every piece
    is in: each piece's rows move down to follow the previous piece's,
    and the body is its first columns.  A piece that loadtxt refuses or
    that has another column count raises ValueError."""
    from . import parallel

    pieces = _plan_pieces(path, header)
    if pieces is None:
        return None
    starts = np.cumsum([0] + [lines for _, lines in pieces]).tolist()
    tasks = [(path, lo, ncols, start, lines)
             for (lo, lines), start in zip(pieces, starts)]
    # a worker for every two pieces: under four, the ~15 ms that a pool
    # takes to start is more than it saves
    processes = min(parallel.usable_cpus(), len(tasks) // 2)
    context = _fork_context(processes)
    if context is None:
        body = np.empty((ncols, starts[-1]))
        counts = [_parse_piece(task, body) for task in tasks]
    else:
        body = np.frombuffer(mmap.mmap(-1, 8 * ncols * starts[-1]),
                             float).reshape(ncols, -1)
        with context.Pool(processes, initializer=_share,
                          initargs=(body,)) as pool:
            counts = pool.map(_parse_piece, tasks)
    rows = sum(counts)
    if rows < starts[-1]:
        end = 0
        for start, n in zip(starts, counts):
            if start > end:
                body[:, end:end + n] = body[:, start:start + n]
            end += n
        body = body[:, :rows]
    return body


def _share(body) -> None:
    global _shared
    _shared = body


def _parse_piece(task, body=None) -> int:
    """The rows of the ``lines`` lines from offset ``lo``, as columns, into
    ``body`` (in a parse worker, the shared one) from column ``start`` on;
    their count back."""
    path, lo, ncols, start, lines = task
    with open(path, encoding="ascii") as fh, warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank lines only
        fh.seek(lo)
        rows = np.loadtxt(itertools.islice(fh, lines), delimiter=",",
                          comments=None, ndmin=2, max_rows=lines)
    if rows.size == 0:
        return 0
    if rows.shape[1] != ncols:
        raise ValueError(f"{rows.shape[1]} columns, not {ncols}")
    (_shared if body is None else body)[:, start:start + len(rows)] = rows.T
    return len(rows)


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
