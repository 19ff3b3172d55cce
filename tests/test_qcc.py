"""Windowed code construction: parent checks and interior templates."""

import numpy as np
import pytest

from qcclab import ConvCode, PolyMatrix, QccCode
from qcclab.pauli import PauliWindow

FLAGSHIP_TAPS = [[[1, 0, 1], [1, 1, 1]]]


def test_parent_whose_k_does_not_divide_n_squared_is_rejected():
    parent = ConvCode.from_json(
        {"p": 2, "k": 2, "n": 3, "G": [[[1, 1], [1, 0], [1, 0]], [[1], [0, 1], [1, 0]]]})
    with pytest.raises(ValueError, match="k=2 does not divide n\\^2=9"):
        QccCode(parent, 4)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_templates_are_normalised_and_listed_by_offset(p):
    code = QccCode(ConvCode(PolyMatrix.from_coeffs(FLAGSHIP_TAPS, p)), 10)
    kinds = [t.kind for t in code.templates]
    assert kinds == sorted(kinds, key=["stabilizer-x", "stabilizer-z",
                                       "logical-x", "logical-z"].index)
    for kind in set(kinds):
        offsets = [t.offset for t in code.templates if t.kind == kind]
        assert offsets == sorted(offsets)
    for t in code.templates:
        pat = t.pattern
        lead = [v for v in np.column_stack([pat.x, pat.z]).ravel() if v]
        assert lead[0] == 1
        assert (pat.x[0], pat.z[0]) != (0, 0) and (pat.x[-1], pat.z[-1]) != (0, 0)
    # every template instance is in the stabilizer group or a logical of it
    stab = code.stabilizer
    for t in code.templates:
        if t.kind.startswith("stabilizer"):
            start = t.offset + 2 * t.step
            x = np.zeros(code.L, dtype=np.int64)
            z = np.zeros(code.L, dtype=np.int64)
            x[start : start + t.pattern.L] = t.pattern.x
            z[start : start + t.pattern.L] = t.pattern.z
            assert not stab.syndrome(PauliWindow(x, z, p)).any()
