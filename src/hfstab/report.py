"""Deterministic JSON/CSV emission.

All floating-point values are written with 17 significant digits so that
serialized artifacts round-trip exactly and reruns are byte-identical.
CSV text is formatted a block of rows at a time (``csv_blocks``), so that
a spectrum of hundreds of thousands of rows is written to its file with
little beyond the rows in memory, and ``csv_lines`` holds the whole text
only once.  A block formats each run of rows sharing the leading cell (a
spectrum slice's mu) once.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "json_dumps", "csv_lines", "csv_blocks"]

_BLOCK = 4096   # CSV rows formatted at a time


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _emit(obj, level: int) -> str:
    pad = "  " * (level + 1)
    close = "  " * level
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [pad + _emit(v, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + close + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [pad + _emit(str(k), level) + ": " + _emit(v, level + 1)
                 for k, v in obj.items()]
        return "{\n" + ",\n".join(items) + "\n" + close + "}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_dumps(obj) -> str:
    """JSON text with 17-significant-digit floats and trailing newline."""
    return _emit(obj, 0) + "\n"


def csv_lines(header: list[str], rows) -> str:
    """CSV text of a 2-D array or equally typed rows: ``csv_blocks``
    appended, one block at a time, to one string."""
    text = ""
    for block in csv_blocks(header, rows):
        # CPython resizes a str that only this name references in place, so
        # the text exists once; "".join would hold every block beside it
        text += block
    return text


def csv_blocks(header: list[str], rows):
    """Yield the CSV text of a 2-D array or equally typed rows, the header
    line first and then ``_BLOCK`` rows at a time, so that a writer holds
    one block beside the rows.  The first row's cell types fix one row
    format (floats 17 significant digits, other cells str), and one ``%``
    formats each block after refusing its non-finite floats.  A run of
    rows that share the leading cell (a spectrum's mu) formats it once."""
    table = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    yield ",".join(header) + "\n"
    if not len(table):
        return
    is_float = [isinstance(v, float) for v in table[0]]
    lead_fmt = "%.17g" if is_float[0] else "%s"
    row_fmt = ",".join(["%s"] + ["%.17g" if f else "%s"
                                 for f in is_float[1:]]) + "\n"
    for lo in range(0, len(table), _BLOCK):
        block = table[lo:lo + _BLOCK]
        floats = block[:, is_float].astype(float)
        if not np.isfinite(floats).all():
            format_float(float(floats[~np.isfinite(floats)][0]))   # raises
        bounds = _run_bounds(block[:, 0], is_float[0])
        cells = np.empty(block.shape, dtype=object)
        cells[:, 0] = np.repeat(
            np.array([lead_fmt % (v,) for v in block[bounds[:-1], 0].tolist()],
                     dtype=object), np.diff(bounds))
        cells[:, 1:] = block[:, 1:]
        yield row_fmt * len(block) % tuple(cells.ravel().tolist())


def _run_bounds(lead: np.ndarray, as_float: bool) -> np.ndarray:
    """The start of each run of equal cells in ``lead``, then ``len(lead)``.
    Floats are equal when their bits are, so -0.0 and 0.0 differ; other
    cells when type and value are, so True and 1 differ."""
    if as_float:
        bits = lead.astype(float).view(np.int64)
        new = bits[1:] != bits[:-1]
    else:
        keys = [(type(v), v.hex() if isinstance(v, float) else v)
                for v in lead.tolist()]
        new = np.array([a != b for a, b in zip(keys, keys[1:])], dtype=bool)
    return np.flatnonzero(np.concatenate([[True], new, [True]]))
