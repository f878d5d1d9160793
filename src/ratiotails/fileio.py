"""CSV schemas, key=value reports and run manifests.

Schemas (all comma-separated, header required, floats written with
shortest round-trip precision):

    prices   t,price
    samples  value
    density  x,f,method
    tables   x,g

Numeric CSVs are read in one np.loadtxt call; a file it cannot take is
reread line by line, which words the error as path:line.  Manifests and
reports are plain ``key=value`` text.  All writers, CSV ones streaming
rows in chunks, go through an atomic temp-file rename so a failed
command never leaves a partial artifact behind.
"""

from __future__ import annotations

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
from .simulate import PriceSeries

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
    """Write text, or an iterable of chunks, via a temp file and rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
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


def write_csv(path: str, header: str, columns,
              label: str | None = None) -> None:
    """Float columns, then a constant text column ``label`` if given, as
    shortest round-trip text under ``header``, _ROWS rows per chunk."""
    columns = [np.asarray(c, dtype=float) for c in columns]

    def chunks():
        yield header + "\n"
        for i in range(0, columns[0].size, _ROWS):
            cells = [map(repr, c[i:i + _ROWS].tolist()) for c in columns]
            cells += [] if label is None else [itertools.repeat(label)]
            yield "\n".join(map(",".join, zip(*cells))) + "\n"

    write_atomic(path, chunks())


def _read_numeric(path: str, header: str, ncols: int, min_rows: int = 0,
                  too_few: str = "") -> np.ndarray:
    """The (ncols, rows) columns of a numeric CSV under ``header``: one
    np.loadtxt call, or the line loop, which alone words errors, for a file
    that is not plain ASCII, that loadtxt refuses or that is misshapen."""
    try:
        with open(path, "rb") as fh:
            plain = all(b.isascii() and not any(c in b for c in _LOOSE)
                        for b in iter(lambda: fh.read(1 << 20), b""))
        with open(path) as fh, warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # empty body
            if plain and fh.readline().strip() == header:
                body = np.loadtxt(fh, delimiter=",", comments=None, ndmin=2)
                if body.shape[1] == ncols and len(body) >= max(min_rows, 1):
                    return body.T.copy()
    except (OSError, ValueError):
        pass
    return _read_lines(path, header, ncols, min_rows, too_few)


def _read_lines(path: str, header: str, ncols: int, min_rows: int,
                too_few: str, labels: set | None = None) -> np.ndarray:
    """The line loop behind _read_numeric; with ``labels`` the last of the
    ``ncols`` columns is text, collected there."""
    try:
        with open(path, "r", newline="") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}")
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


def save_price_series(series: PriceSeries, path: str) -> None:
    prices = series.prices
    if not np.all(np.isfinite(prices)):
        raise InputFormatError(
            "prices overflow the float range; this configuration can only "
            "be analyzed in memory via log returns")
    write_csv(path, "t,price", (series.times, prices))


def load_price_series(path: str) -> PriceSeries:
    times, prices = _read_numeric(path, "t,price", 2, 2,
                                  "fewer than two price rows")
    return PriceSeries.from_prices(times, prices, meta={"source": path})


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
        return cls(command=kv["command"], params=params,
                   seed=None if seed is None else int(seed),
                   version=kv.get("version", ""), input_hashes=hashes,
                   started=kv.get("started", ""),
                   finished=kv.get("finished", ""))

    def save(self, path: str) -> None:
        write_atomic(path, self.to_text())

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        try:
            with open(path, "r") as fh:
                return cls.from_text(fh.read())
        except OSError as exc:
            raise InputFormatError(f"cannot read manifest {path}: {exc}")
