"""Canonical JSON emission for reports.

Reports must be byte-identical across runs with the same seed and
configuration, so serialization is pinned down here: dict key order is
the insertion order fixed by the producing code, floats are printed with
17 significant digits (enough to round-trip IEEE doubles), and the
non-finite values that can appear in parameters (r = inf) are written as
strings.  numpy scalars are written as the Python scalars they equal.
"""

from __future__ import annotations

import math
from typing import Any

import numpy as np


def _format_scalar(value: Any) -> str:
    if isinstance(value, np.bool_):
        value = bool(value)
    elif isinstance(value, np.integer):
        value = int(value)
    elif isinstance(value, np.floating):
        value = float(value)
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int,)):
        return str(value)
    if isinstance(value, float):
        if math.isnan(value):
            return '"nan"'
        if math.isinf(value):
            return '"inf"' if value > 0 else '"-inf"'
        if value == int(value) and abs(value) < 1e16:
            # keep integral floats readable and stable
            return repr(value)
        return format(value, ".17g")
    if isinstance(value, str):
        return _escape(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _escape(text: str) -> str:
    out = ['"']
    for ch in text:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ch == "\n":
            out.append("\\n")
        elif ch == "\t":
            out.append("\\t")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    out.append('"')
    return "".join(out)


def jdump(obj: Any) -> str:
    """Serialize obj to a canonical JSON string (no trailing newline)."""
    if isinstance(obj, dict):
        items = ", ".join(f"{_escape(str(k))}: {jdump(v)}" for k, v in obj.items())
        return "{" + items + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(jdump(v) for v in obj) + "]"
    return _format_scalar(obj)


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(jdump(obj))
        fh.write("\n")
