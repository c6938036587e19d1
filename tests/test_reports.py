"""Canonical JSON emission."""

import numpy as np

from gnslab.reports import jdump


def test_numpy_scalars_serialize_as_python_scalars():
    assert jdump([np.int64(3), np.int32(-2), np.uint8(7)]) == "[3, -2, 7]"
    assert jdump([np.bool_(True), np.bool_(False)]) == "[true, false]"
    assert jdump(np.float32(0.5)) == "0.5"
    assert jdump(np.float32(0.1)) == jdump(float(np.float32(0.1)))
    for value in (0.1, 1.0 / 3.0, 2.0, float("inf"), float("nan")):
        assert jdump(np.float64(value)) == jdump(value)
