"""CSV schemas, key=value reports and run manifests.

Schemas (all comma-separated, header required, floats written with
shortest round-trip precision):

    prices   t,price
    samples  value
    density  x,f,method
    tables   x,g

Numeric CSVs are read by np.loadtxt, in one call or, for a large body,
one call per piece of whole lines in forked worker processes
(``workers`` of load_price_series and load_samples); a file it cannot
take is reread line by line, which words the error as path:line.
Manifests and reports are plain ``key=value`` text.  All writers, CSV
ones streaming rows in chunks, go through an atomic temp-file rename so
a failed command never leaves a partial artifact behind.  CSV chunks may
be formatted in worker processes (``workers`` of write_csv and
save_price_series); the parent writes them in order.  Neither the values
read nor the bytes written ever depend on the worker count.
"""

from __future__ import annotations

import functools
import hashlib
import io
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
from .simulate import PriceSeries, _log_prices, check_prices

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
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc.strerror}") from None
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
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

_ROWS = 1 << 16  # rows formatted per written chunk
_LOOSE = b"\x0b\x0c\x1c\x1d\x1e\x1f"  # splitlines breaks, loadtxt spaces


def _format_rows(columns, label: str | None) -> str:
    """The CSV text of one chunk: rows of the float ``columns`` as
    shortest round-trip text, then ``label`` if given."""
    cells = [map(repr, c.tolist()) for c in columns]
    cells += [] if label is None else [itertools.repeat(label)]
    return "\n".join(map(",".join, zip(*cells))) + "\n"


def _fork_context(workers: int):
    """The fork context for a pool of ``workers`` processes, or None where
    no pool is used: fewer than two workers, no fork on this platform, or
    a live second thread (fork copies only the calling thread, so a pool
    waits for a process that runs no other)."""
    if workers < 2:
        return None
    import multiprocessing

    if ("fork" in multiprocessing.get_all_start_methods()
            and threading.active_count() == 1):
        return multiprocessing.get_context("fork")
    return None


def write_csv(path: str, header: str, columns,
              label: str | None = None, workers: int = 1) -> None:
    """Float columns, then a constant text column ``label`` if given, as
    shortest round-trip text under ``header``, _ROWS rows per chunk.

    With ``workers`` > 1 and more than one chunk, a forked pool of up to
    that many processes formats the chunks; the parent writes them in
    order, so the bytes are the serial ones."""
    columns = [np.asarray(c, dtype=float) for c in columns]
    slices = [[c[i:i + _ROWS] for c in columns]
              for i in range(0, columns[0].size, _ROWS)]
    format_chunk = functools.partial(_format_rows, label=label)

    processes = min(workers, len(slices))
    context = _fork_context(processes)
    if context is not None:
        with context.Pool(processes) as pool:
            write_atomic(path, itertools.chain(
                [header + "\n"], pool.imap(format_chunk, slices)))
        return
    write_atomic(path, itertools.chain([header + "\n"],
                                       map(format_chunk, slices)))


def _read_numeric(path: str, header: str, ncols: int, min_rows: int = 0,
                  too_few: str = "", workers: int = 1) -> np.ndarray:
    """The (ncols, rows) columns of a numeric CSV under ``header``: np.loadtxt
    on the body, whole or cut into pieces parsed on up to ``workers``
    forked processes (see _parse_pieces), or the line loop, which alone
    words errors, for a file that is not plain ASCII, that loadtxt refuses
    or that is misshapen."""
    try:
        with open(path, "rb") as fh:
            plain = all(b.isascii() and not any(c in b for c in _LOOSE)
                        for b in iter(lambda: fh.read(1 << 20), b""))
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body
            if plain and fh.readline().strip() == header:
                body = _parse_pieces(path, header, ncols, workers)
                if body is None:
                    body = np.loadtxt(fh, delimiter=",", comments=None,
                                      ndmin=2).T
                if body.shape[0] == ncols and body.shape[1] >= max(min_rows, 1):
                    return np.ascontiguousarray(body)
    except (OSError, ValueError):
        pass
    return _read_lines(path, header, ncols, min_rows, too_few)


_PIECE_MIN = 1 << 20  # bytes of body per parse worker, at least
_shared = None        # in a parse worker: the buffer its rows go to


def _parse_pieces(path: str, header: str, ncols: int, workers: int):
    """The (ncols, rows) body of a plain CSV whose first line is ``header``,
    parsed in pieces on a forked pool; None, for a whole parse, with fewer
    than two pieces of _PIECE_MIN bytes or where _fork_context gives none.

    The pieces are runs of whole lines, cut after a newline.  Each worker
    runs np.loadtxt on its piece and writes the rows, as columns, into an
    anonymous shared mmap sized for the most rows its bytes can hold; it
    returns only its row count.  A piece that loadtxt refuses or that has
    another column count raises ValueError."""
    with open(path, "rb") as fh:
        first = fh.readline()
        size = os.fstat(fh.fileno()).st_size
        pieces = min(workers, (size - len(first)) // _PIECE_MIN)
        context = _fork_context(pieces)
        # the body starts after the first b"\n"; a header ended by a lone
        # "\r" leaves the file to the whole parse
        if context is None or first.strip() != header.encode():
            return None
        cuts = [len(first)]
        for i in range(1, pieces):
            fh.seek(max(cuts[-1], cuts[0] + (size - cuts[0]) * i // pieces))
            fh.readline()
            if fh.tell() < size:
                cuts.append(fh.tell())
    if len(cuts) < 2:
        return None
    cuts.append(size)
    # a row takes at least 2 ncols - 1 bytes: ncols numbers, their commas
    # and, but for the last row, a newline
    bounds = [(hi - lo) // (2 * ncols) + 1 for lo, hi in zip(cuts, cuts[1:])]
    starts = np.cumsum([0] + bounds).tolist()
    tasks = [(path, lo, hi, ncols, start, bound)
             for lo, hi, start, bound in zip(cuts, cuts[1:], starts, bounds)]
    with mmap.mmap(-1, 8 * ncols * starts[-1]) as buf:
        with context.Pool(len(tasks), initializer=_share,
                          initargs=(buf,)) as pool:
            counts = pool.map(_parse_piece, tasks)
        body = np.empty((ncols, sum(counts)))
        cols = np.cumsum([0] + counts).tolist()
        for start, bound, n, col in zip(starts, bounds, counts, cols):
            body[:, col:col + n] = _columns(buf, ncols, start, bound)[:, :n]
    return body


def _share(buf) -> None:
    global _shared
    _shared = buf


def _columns(buf, ncols: int, start: int, bound: int) -> np.ndarray:
    """The (ncols, bound) block of ``buf`` for the piece whose rows start
    at row ``start`` of the file's body."""
    return np.frombuffer(buf, float, ncols * bound,
                         8 * ncols * start).reshape(ncols, bound)


def _parse_piece(task) -> int:
    """A parse worker's piece: its rows into the shared buffer, its row
    count back."""
    path, lo, hi, ncols, start, bound = task
    with open(path, "rb") as fh:
        fh.seek(lo)
        text = io.TextIOWrapper(io.BytesIO(fh.read(hi - lo)),
                                encoding="ascii")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # blank lines only
        rows = np.loadtxt(text, delimiter=",", comments=None, ndmin=2)
    if rows.size == 0:
        return 0
    if rows.shape[1] != ncols:
        raise ValueError(f"{rows.shape[1]} columns, not {ncols}")
    _columns(_shared, ncols, start, bound)[:, :len(rows)] = rows.T
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
                      workers: int = 1) -> None:
    """The t,price CSV of ``series``, formatted on up to ``workers``
    processes (see write_csv)."""
    with np.errstate(over="ignore", under="ignore"):
        prices = series.prices
    try:
        check_prices(prices)            # what load_price_series reads
    except DomainError as exc:
        raise InputFormatError(
            f"prices leave the float range ({exc}); this configuration "
            "can only be analyzed in memory via log returns") from None
    write_csv(path, "t,price", (series.times, prices), workers=workers)


def load_price_series(path: str, workers: int = 1) -> PriceSeries:
    """The t,price CSV at ``path``, parsed on up to ``workers`` processes
    (see _read_numeric), its log-prices written over the parsed prices."""
    times, prices = _read_numeric(path, "t,price", 2, 2,
                                  "fewer than two price rows", workers)
    return PriceSeries(times, _log_prices(prices, out=prices),
                       {"source": path})


def save_samples(values, path: str) -> None:
    write_csv(path, "value", (values,))


def load_samples(path: str, workers: int = 1) -> np.ndarray:
    return _read_numeric(path, "value", 1, 1, "no sample rows", workers)[0]


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
