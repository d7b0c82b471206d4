"""JSON serialization for quaternions, vectors, and matrices.

A quaternion is a 4-array [w, x, y, z] of decimal floats.  Matrices use
{"rows": n, "cols": m, "entries": [[...], ...]} row-major and vectors use
{"n": n, "entries": [...]}.  Parsers reject NaN and infinity: every file
this package writes can be read back, and nothing non-finite gets in.
"""

from __future__ import annotations

import json
import math
from typing import Any

import numpy as np

from .errors import ShapeError, StructureError
from .linalg import QMatrix, QVector
from .quaternion import Quaternion


def quaternion_to_json(q: Quaternion) -> list[float]:
    return [q.w, q.x, q.y, q.z]


def vector_to_json(v: QVector) -> dict[str, Any]:
    arr = v.to_array()
    return {"n": v.n, "entries": [[float(c) for c in row] for row in arr]}


def matrix_to_json(a: QMatrix) -> dict[str, Any]:
    arr = a.to_array()
    return {
        "rows": a.rows,
        "cols": a.cols,
        "entries": [[[float(c) for c in entry] for entry in row] for row in arr],
    }


def _component_list(raw: Any, what: str) -> list[float]:
    if not isinstance(raw, (list, tuple)) or len(raw) != 4:
        raise ShapeError(f"{what} must be a 4-array [w, x, y, z], got {raw!r}")
    out = []
    for c in raw:
        if isinstance(c, bool) or not isinstance(c, (int, float)):
            raise StructureError(f"{what} component {c!r} is not a number")
        try:
            c = float(c)
        except OverflowError:  # an integer beyond float range
            raise StructureError(f"{what} contains a component too large for a float") from None
        if not math.isfinite(c):
            raise StructureError(f"{what} contains a non-finite component")
        out.append(c)
    return out


def json_to_quaternion(data: Any) -> Quaternion:
    return Quaternion(*_component_list(data, "quaternion"))


def json_to_vector(data: Any) -> QVector:
    if not isinstance(data, dict) or "entries" not in data:
        raise ShapeError("vector JSON must be an object with an 'entries' field")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ShapeError("vector 'entries' must be a nonempty list")
    rows = [_component_list(e, "vector entry") for e in entries]
    if "n" in data and data["n"] != len(rows):
        raise ShapeError(f"vector claims n={data['n']} but has {len(rows)} entries")
    return QVector(np.array(rows))


def json_to_matrix(data: Any) -> QMatrix:
    if not isinstance(data, dict) or "entries" not in data:
        raise ShapeError("matrix JSON must be an object with an 'entries' field")
    entries = data["entries"]
    if not isinstance(entries, list) or not entries:
        raise ShapeError("matrix 'entries' must be a nonempty list of rows")
    grid = []
    for row in entries:
        if not isinstance(row, list) or not row:
            raise ShapeError("matrix rows must be nonempty lists")
        grid.append([_component_list(e, "matrix entry") for e in row])
    cols = len(grid[0])
    if any(len(row) != cols for row in grid):
        raise ShapeError("matrix rows have unequal lengths")
    if "rows" in data and data["rows"] != len(grid):
        raise ShapeError(f"matrix claims rows={data['rows']} but has {len(grid)}")
    if "cols" in data and data["cols"] != cols:
        raise ShapeError(f"matrix claims cols={data['cols']} but has {cols}")
    return QMatrix(np.array(grid))


def load_matrix(path: str) -> QMatrix:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh, parse_constant=_reject_constant)
        except StructureError:
            raise
        except (ValueError, RecursionError) as exc:  # bad bytes, too many digits, deep nesting
            raise StructureError(str(exc)) from None
    return json_to_matrix(data)


def save_matrix(path: str, a: QMatrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(matrix_to_json(a), fh, sort_keys=True)
        fh.write("\n")


def _reject_constant(name: str) -> float:
    raise StructureError(f"non-finite JSON constant {name!r} rejected")


def dumps_canonical(payload: Any) -> str:
    """Deterministic JSON: sorted keys, fixed separators, no whitespace drift."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
