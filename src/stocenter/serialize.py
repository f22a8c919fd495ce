"""Deterministic JSON emission.

Floats are rendered with 17 significant digits so round-trips are exact and
repeated runs are byte-identical.  The emitter is hand-rolled because the
stdlib encoder hardwires float repr.
"""

from __future__ import annotations

import json

import numpy as np


def fmt_float(x: float) -> str:
    return format(float(x), ".17g")


def _emit(obj, indent, level, out):
    pad = "" if indent is None else " " * (indent * level)
    pad_in = "" if indent is None else " " * (indent * (level + 1))
    nl = "" if indent is None else "\n"
    sep = ", " if indent is None else ","
    if isinstance(obj, (np.floating, float)):
        out.append(fmt_float(obj))
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (np.integer, int)):
        out.append(str(int(obj)))
    elif obj is None:
        out.append("null")
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, np.ndarray):
        _emit(obj.tolist(), indent, level, out)
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        out.append("{" + nl)
        items = list(obj.items())
        for i, (k, v) in enumerate(items):
            out.append(pad_in + json.dumps(str(k)) + ": ")
            _emit(v, indent, level + 1, out)
            out.append((sep if i + 1 < len(items) else "") + nl)
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            out.append("[]")
            return
        out.append("[" + nl)
        for i, v in enumerate(seq):
            out.append(pad_in)
            _emit(v, indent, level + 1, out)
            out.append((sep if i + 1 < len(seq) else "") + nl)
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int | None = None) -> str:
    out: list[str] = []
    _emit(obj, indent, 0, out)
    return "".join(out)


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj, indent=2))
        fh.write("\n")
