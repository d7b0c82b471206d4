import json
import math

import pytest

from qop.errors import ShapeError, StructureError
from qop.generators import ginibre, unit_vector
from qop.matio import (dumps_canonical, json_to_matrix, json_to_quaternion,
                       json_to_vector, load_matrix, matrix_to_json,
                       quaternion_to_json, save_matrix, vector_to_json)
from qop.quaternion import Quaternion


def test_matrix_roundtrip(tmp_path):
    t = ginibre(3, seed=970)
    path = tmp_path / "t.json"
    save_matrix(str(path), t)
    back = load_matrix(str(path))
    assert back.equals_exact(t)


def test_vector_and_quaternion_roundtrip():
    v = unit_vector(4, seed=971)
    assert json_to_vector(vector_to_json(v)).allclose(v, tol=0.0)
    q = Quaternion(1.0, -2.0, 0.25, 3.5)
    assert json_to_quaternion(quaternion_to_json(q)) == q


def test_rejects_nan_and_inf_literals(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"rows": 1, "cols": 1, "entries": [[[NaN, 0, 0, 0]]]}')
    with pytest.raises(StructureError):
        load_matrix(str(path))
    path.write_text('{"rows": 1, "cols": 1, "entries": [[[Infinity, 0, 0, 0]]]}')
    with pytest.raises(StructureError):
        load_matrix(str(path))


def test_rejects_nonnumeric_components():
    with pytest.raises(StructureError, match="quaternion component '1' is not a number"):
        json_to_quaternion(["1", 0, 0, 0])
    with pytest.raises(StructureError, match="quaternion component True is not a number"):
        json_to_quaternion([True, 0, 0, 0])
    with pytest.raises(ShapeError, match=r"must be a 4-array \[w, x, y, z\]"):
        json_to_quaternion([1.0, 0.0, 0.0])
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(StructureError, match="quaternion contains a non-finite component"):
            json_to_quaternion([1.0, bad, 0.0, 0.0])


def test_rejects_shape_mismatch():
    one = [1, 0, 0, 0]
    for data, message in (
            ({"rows": 2, "cols": 1, "entries": [[one]]}, "matrix claims rows=2 but has 1"),
            ({"rows": 1, "cols": 2, "entries": [[one]]}, "matrix claims cols=2 but has 1"),
            ({"rows": 2, "cols": 2, "entries": [[one, one], [one]]}, "unequal lengths"),
            ([[one]], "matrix JSON must be an object with an 'entries' field"),
            ({"rows": 1, "cols": 1}, "matrix JSON must be an object with an 'entries' field"),
            ({"rows": 0, "cols": 0, "entries": []}, "matrix 'entries' must be a nonempty list"),
            ({"rows": 1, "cols": 0, "entries": [[]]}, "matrix rows must be nonempty lists")):
        with pytest.raises(ShapeError, match=message):
            json_to_matrix(data)
    for data, message in (
            ({"n": 3, "entries": [one]}, "vector claims n=3 but has 1 entries"),
            ([one], "vector JSON must be an object with an 'entries' field"),
            ({"n": 1}, "vector JSON must be an object with an 'entries' field"),
            ({"n": 0, "entries": []}, "vector 'entries' must be a nonempty list")):
        with pytest.raises(ShapeError, match=message):
            json_to_vector(data)


def test_canonical_dumps_is_stable_and_sorted():
    payload = {"b": 1.5, "a": [1, 2], "c": {"y": 0.1, "x": -2}}
    s1 = dumps_canonical(payload)
    s2 = dumps_canonical(json.loads(s1))
    assert s1 == s2
    assert s1.index('"a"') < s1.index('"b"') < s1.index('"c"')


def test_canonical_dumps_rejects_nan():
    with pytest.raises(ValueError):
        dumps_canonical({"x": float("nan")})


def test_matrix_json_shape_fields():
    t = ginibre(2, 3, seed=972)
    payload = matrix_to_json(t)
    assert payload["rows"] == 2 and payload["cols"] == 3
    assert len(payload["entries"]) == 2
    assert all(len(row) == 3 for row in payload["entries"])
    assert all(len(entry) == 4 for row in payload["entries"] for entry in row)
