"""Deterministic JSON/CSV emission.

All floating-point values are written with 17 significant digits so that
serialized artifacts round-trip exactly and reruns are byte-identical.
CSV tables are 2-D float arrays, or iterables of them such as the slice
blocks of ``hill.spectrum_to_csv_rows``.  Their text is formatted a block of
rows at a time (``csv_blocks``), so that a spectrum of hundreds of thousands
of rows is written to its file with little beyond one array and one block of
text in memory, and ``csv_lines`` holds the whole text only once.  A block's
format string holds the leading cell of each run of rows sharing it (a
spectrum slice's mu); the other cells are formatted from the float rows.
"""

from __future__ import annotations

import json
import math

import numpy as np

__all__ = ["format_float", "json_dumps", "csv_lines", "csv_blocks"]

_BLOCK = 1024   # CSV rows formatted at a time


def format_float(x: float) -> str:
    if not math.isfinite(x):
        raise ValueError(f"cannot serialize non-finite value {x!r}")
    return "%.17g" % x


def _emit(obj, level: int) -> str:
    """``obj`` as JSON at indent ``level``: a float by ``format_float``, a
    non-empty list, tuple or dict one item a line, and every other value,
    and each dict key as a string, by ``json.dumps``."""
    if isinstance(obj, float):
        return format_float(obj)
    if not (isinstance(obj, (list, tuple, dict)) and obj):
        return json.dumps(obj, ensure_ascii=False)
    pad = "\n" + "  " * (level + 1)
    if isinstance(obj, dict):
        items = [_emit(str(k), 0) + ": " + _emit(v, level + 1)
                 for k, v in obj.items()]
        return "{" + pad + ("," + pad).join(items) + "\n" + "  " * level + "}"
    items = [_emit(v, level + 1) for v in obj]
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * level + "]"


def json_dumps(obj) -> str:
    """JSON text with 17-significant-digit floats and trailing newline."""
    return _emit(obj, 0) + "\n"


def csv_lines(header: list[str], table) -> str:
    """CSV text of a 2-D float array or an iterable of them: ``csv_blocks``
    appended, one block at a time, to one string."""
    text = ""
    for block in csv_blocks(header, table):
        # CPython resizes a str that only this name references in place, so
        # the text exists once; "".join would hold every block beside it
        text += block
    return text


def csv_blocks(header: list[str], table):
    """Yield the CSV text of a 2-D float array, or of an iterable of them in
    order: the header line first, then each array ``_BLOCK`` rows at a time,
    so that a writer holds one block of text beside one array.  Cells have
    17 significant digits (an integer-valued float prints as the integer),
    and one ``%`` formats each block after refusing its non-finite cells.  A
    run of rows that share the leading cell (a spectrum's mu) formats it
    once, into that ``%`` format."""
    yield ",".join(header) + "\n"
    for part in [table] if isinstance(table, np.ndarray) else table:
        part = np.asarray(part, dtype=float)
        tail = ",%.17g" * (part.shape[1] - 1) + "\n"
        for lo in range(0, len(part), _BLOCK):
            block = part[lo:lo + _BLOCK]
            if not np.isfinite(block).all():
                format_float(float(block[~np.isfinite(block)][0]))   # raises
            bounds = _run_bounds(block[:, 0])
            # each run's leading cell is text in the format: it has no "%"
            fmt = "".join(("%.17g" % lead + tail) * run for lead, run in zip(
                block[bounds[:-1], 0].tolist(), np.diff(bounds).tolist()))
            yield fmt % tuple(block[:, 1:].ravel().tolist())


def _run_bounds(lead: np.ndarray) -> np.ndarray:
    """The start of each run of equal floats in ``lead``, then ``len(lead)``.
    Floats are equal when their bits are, so -0.0 and 0.0 differ."""
    bits = lead.view(np.int64)
    return np.flatnonzero(np.concatenate([[True], bits[1:] != bits[:-1],
                                          [True]]))
