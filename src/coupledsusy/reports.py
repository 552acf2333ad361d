"""Deterministic report serialisation.

JSON payloads are emitted with sorted keys, floats printed to 17
significant digits in lowercase scientific/positional form (round-trip
safe and diffable), and no timestamps.  Files are written to a temporary
sibling and atomically renamed so failures never leave partial output.
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction


def format_float(x: float) -> str:
    if isinstance(x, bool):  # bool is an int subclass; keep it out of here
        raise TypeError("booleans are not floats")
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite floats have no place in reports")
    return format(float(x), ".17g")


def _emit(obj) -> str:
    if obj is None or obj is True or obj is False:
        return json.dumps(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return format_float(obj)
    if isinstance(obj, Fraction):
        return json.dumps(f"{obj.numerator}/{obj.denominator}")
    if isinstance(obj, complex):
        return _emit([obj.real, obj.imag])
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: str(kv[0]))
        body = ", ".join(f"{json.dumps(str(k))}: {_emit(v)}" for k, v in items)
        return "{" + body + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_emit(v) for v in obj) + "]"
    raise TypeError(f"cannot serialise {type(obj).__name__} deterministically")


def dumps(payload) -> str:
    """Deterministic JSON text for a report payload."""
    return _emit(payload) + "\n"


def atomic_write_text(path: str, text: str):
    """Write text to a temporary sibling renamed over path; a new file gets 0o666 less the umask."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = os.path.join(directory, f".tmp-report-{os.urandom(8).hex()}")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        try:
            os.chmod(tmp, os.stat(path).st_mode & 0o7777)  # an existing report keeps its mode
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header, rows) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, float):
                cells.append(format_float(cell))
            else:
                cells.append(str(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
