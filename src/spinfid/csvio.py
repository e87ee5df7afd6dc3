"""CSV serialization for simulated traces and derived tables.

Layout (UTF-8, LF line endings)::

    t_s,mx,my,mperp[,oracle_<name>_mperp ...]
    0.0,0.5,0.0,0.5,...
    ...
    # seed = 101
    # n_realizations = 100000
    # polarization = 1.0
    # config_hash = <sha256 hex>

Floats are written with ``repr`` so every value round-trips bit-exactly;
metadata trails the data as ``# key = value`` comment lines.  The loader
returns the columns and metadata and can rebuild a trace object, checking
that the time column is a uniform grid starting at zero and that the
magnitude column matches ``hypot(mx, my)`` to 1e-12; each of its errors
names the file.  The rebuilt trace derives its ``mperp`` from the loaded
``mx`` and ``my``, as every trace does, so the file's magnitude column is
checked but not kept.
"""

from __future__ import annotations

import functools
from array import array
from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from .engine import FidTrace, TimeGrid

__all__ = ["CsvFormatError", "TableData", "write_csv", "emit_trace_csv", "load_csv"]

TRACE_COLUMNS = ("t_s", "mx", "my", "mperp")
ORACLE_PREFIX = "oracle_"
ORACLE_SUFFIX = "_mperp"


class CsvFormatError(ValueError):
    """File does not follow the documented CSV layout."""


def _format_value(value: object) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _cells(array: np.ndarray) -> Iterable[str]:
    # repr of a Python float is _format_value's float form, without a per-cell call.
    return map(repr, array.tolist()) if array.dtype == np.float64 else map(_format_value, array)


@functools.lru_cache(maxsize=4)
def _time_cells(grid: TimeGrid) -> tuple[str, ...]:
    """The t_s text of every trace on ``grid``: its points formatted once per grid."""
    return tuple(_cells(grid.points))


def _write_rows(path: str, header: Iterable[str], cells: list, metadata: Mapping[str, object] | None) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(header) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells))
        for key, value in (metadata or {}).items():
            handle.write(f"# {key} = {_format_value(value)}\n")


def write_csv(path: str, columns: Mapping[str, np.ndarray], metadata: Mapping[str, object] | None = None) -> None:
    """Write named columns plus trailing metadata comments.

    The header is the mapping's keys in order: the shape ``load_csv(path).columns`` returns.
    """
    arrays = [np.asarray(column) for column in columns.values()]
    lengths = {array.shape for array in arrays}
    if len(lengths) > 1 or (arrays and arrays[0].ndim != 1):
        raise ValueError(f"columns must be 1-d and equally long, got shapes {sorted(lengths)}")
    _write_rows(path, columns, [_cells(array) for array in arrays], metadata)


def emit_trace_csv(
    path: str,
    trace: FidTrace,
    oracles: Mapping[str, np.ndarray] | None = None,
    metadata: Mapping[str, object] | None = None,
) -> None:
    """Write a simulated trace with optional reference-magnitude columns.

    Each entry of ``oracles`` maps a short model name (e.g. ``thermal``)
    to a magnitude array on the same grid; it lands in a column called
    ``oracle_<name>_mperp``.  The t_s text is formatted once per grid.
    """
    header = list(TRACE_COLUMNS)
    columns = [trace.mx, trace.my, trace.mperp]
    for name, values in (oracles or {}).items():
        values = np.asarray(values, dtype=float)
        if values.shape != trace.mperp.shape:
            raise ValueError(f"oracle column {name!r} has shape {values.shape}, trace has {trace.mperp.shape}")
        header.append(f"{ORACLE_PREFIX}{name}{ORACLE_SUFFIX}")
        columns.append(values)
    merged = {"seed": trace.seed, "n_realizations": trace.n_realizations, "polarization": trace.polarization}
    _write_rows(path, header, [_time_cells(trace.grid), *map(_cells, columns)], {**merged, **(metadata or {})})


@dataclass(frozen=True, eq=False)
class TableData:
    """Parsed CSV: named columns, metadata, source path, and optional trace rebuild."""

    columns: dict[str, np.ndarray]
    metadata: dict[str, str] = field(default_factory=dict)
    path: str = "<table>"

    @property
    def oracles(self) -> dict[str, np.ndarray]:
        """Reference-magnitude columns keyed by their short model name."""
        out = {}
        for name, values in self.columns.items():
            if name.startswith(ORACLE_PREFIX) and name.endswith(ORACLE_SUFFIX):
                out[name[len(ORACLE_PREFIX) : -len(ORACLE_SUFFIX)]] = values
        return out

    def trace(self) -> FidTrace:
        """Rebuild the trace object, validating grid and magnitude; every error names the file."""
        missing = [name for name in TRACE_COLUMNS if name not in self.columns]
        if missing:
            raise CsvFormatError(f"{self.path}: not a trace file: missing columns {missing}")
        t = self.columns["t_s"]
        if t.shape[0] < 2:
            raise CsvFormatError(f"{self.path}: trace needs at least two time samples")
        if t[0] != 0.0:
            raise CsvFormatError(f"{self.path}: time axis must start at 0, got {t[0]!r}")
        try:
            grid = TimeGrid(t_max=float(t[-1]), n_points=t.shape[0])
        except ValueError as exc:
            raise CsvFormatError(f"{self.path}: time axis: {exc}") from None
        if not np.allclose(t, grid.points, rtol=0.0, atol=1e-12 * max(1.0, abs(t[-1]))):
            raise CsvFormatError(f"{self.path}: time axis is not a uniform grid")
        mx, my = self.columns["mx"], self.columns["my"]
        if not np.allclose(self.columns["mperp"], np.hypot(mx, my), rtol=0.0, atol=1e-12):
            raise CsvFormatError(f"{self.path}: mperp column does not match hypot(mx, my)")
        numbers: dict[str, int | float] = {}
        for key, parse, default in (("n_realizations", int, 0), ("seed", int, 0), ("polarization", float, 1.0)):
            raw = self.metadata.get(key, "")
            try:
                numbers[key] = parse(raw) if raw else default
            except ValueError:
                raise CsvFormatError(f"{self.path}: metadata {key!r} is not a number: {raw!r}") from None
        return FidTrace(grid, mx, my, **numbers)


def load_csv(path: str) -> TableData:
    """Read a file written by :func:`write_csv` back into columns, one line at a time."""
    values = array("d")  # every data value, row after row
    metadata: dict[str, str] = {}
    with open(path, "r", encoding="utf-8", newline="\n") as handle:
        header = [name.strip() for name in handle.readline().split(",")]
        if header == [""]:
            raise CsvFormatError(f"{path}: empty file")
        if len(set(header)) != len(header):
            raise CsvFormatError(f"{path}: duplicate column names in header")
        for lineno, line in enumerate(handle, start=2):
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" not in body:
                    raise CsvFormatError(f"{path}:{lineno}: metadata line without '='")
                key, _, value = body.partition("=")
                metadata[key.strip()] = value.strip()
                continue
            if metadata:
                raise CsvFormatError(f"{path}:{lineno}: data row after metadata block")
            pieces = line.split(",")
            if len(pieces) != len(header):
                raise CsvFormatError(f"{path}:{lineno}: expected {len(header)} fields, got {len(pieces)}")
            try:
                values.extend(map(float, pieces))
            except ValueError:
                raise CsvFormatError(f"{path}:{lineno}: non-numeric field") from None
    # Older NumPy refuses np.frombuffer on an empty buffer.
    flat = np.frombuffer(values, dtype=np.float64) if values else np.empty(0)
    table = flat.reshape(-1, len(header)).T.copy()
    return TableData(columns=dict(zip(header, table)), metadata=metadata, path=path)
