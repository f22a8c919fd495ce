"""JSON emission through the standard library.

Python's float repr is the shortest string that reads back to the same
double, so every float survives a round trip bit for bit (``-0.0`` and
integral floats included) and repeated runs are byte-identical.  numpy
arrays and scalars are written as the Python values they hold.  NaN and
infinities raise ``ValueError``: JSON has no token for them.
"""

from __future__ import annotations

import json

import numpy as np


def _plain(obj):
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps_json(obj, indent: int | None = None) -> str:
    return json.dumps(obj, indent=indent, default=_plain, allow_nan=False)


def write_json(path, obj):
    """Encode ``obj`` first, so a failed encoding leaves ``path`` as it was."""
    text = dumps_json(obj, indent=2)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text + "\n")
