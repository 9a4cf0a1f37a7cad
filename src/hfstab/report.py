"""Deterministic JSON/CSV emission.

All floating-point values are written with 17 significant digits so that
serialized artifacts round-trip exactly and reruns are byte-identical.
CSV text is formatted a block of rows at a time (``csv_blocks``), so that
a spectrum of hundreds of thousands of rows is written to its file with
little beyond the rows in memory.
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
    """CSV text of a 2-D array or equally typed rows: ``csv_blocks`` joined."""
    return "".join(csv_blocks(header, rows))


def csv_blocks(header: list[str], rows):
    """Yield the CSV text of a 2-D array or equally typed rows, the header
    line first and then ``_BLOCK`` rows at a time, so that a writer holds
    one block beside the rows.  The first row's cell types fix one row
    format (floats 17 significant digits, other cells str), and one ``%``
    formats each block after refusing its non-finite floats."""
    table = rows if isinstance(rows, np.ndarray) else np.array(rows, dtype=object)
    yield ",".join(header) + "\n"
    if not len(table):
        return
    is_float = [isinstance(v, float) for v in table[0]]
    fmt = ",".join("%.17g" if f else "%s" for f in is_float) + "\n"
    for lo in range(0, len(table), _BLOCK):
        block = table[lo:lo + _BLOCK]
        floats = block[:, is_float].astype(float)
        if not np.isfinite(floats).all():
            format_float(float(floats[~np.isfinite(floats)][0]))   # raises
        yield fmt * len(block) % tuple(block.ravel().tolist())
