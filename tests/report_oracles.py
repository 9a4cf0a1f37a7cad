"""The former JSON writer of ``hfstab.report``, kept as the oracle that
``report.json_dumps`` is held to: ``former_json_dumps`` must give the same
text for every value it writes.  It spells out JSON for ``None``, booleans,
ints, strings and empty containers, where the current writer hands them to
``json.dumps``.
"""

import json

from hfstab.report import format_float


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


def former_json_dumps(obj) -> str:
    """JSON text with 17-significant-digit floats and trailing newline."""
    return _emit(obj, 0) + "\n"
