"""The private formula kernels on (4, n) arrays against the scalar public API.

Each kernel is written once and runs on float components (the public
functions) and on array components (the verify suites).  Every column of a
batched result must equal the public function on that column, bit for bit.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from qhdyn import (  # noqa: E402
    Quaternion,
    matrix_to_quat,
    quat_conj,
    quat_inverse,
    quat_mul,
    quat_norm,
    quat_to_matrix,
)
from qhdyn.quaternion import _conj, _inv, _mul, _norm2  # noqa: E402
from qhdyn.so3 import _matrix, _quat_of_matrix  # noqa: E402

R2, R3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
# Unit quaternions where the largest-pivot choice is delicate: 180-degree
# turns about diagonal axes (two or three candidates tie), the all-equal
# quaternion (all four tie), and scalar parts within 1e-6 of zero.
SPECIAL = np.array([
    [0.0, R2, R2, 0.0], [0.0, 0.0, R2, R2], [0.0, R2, 0.0, R2],
    [0.0, R2, -R2, 0.0], [0.0, 0.0, R2, -R2], [0.0, -R2, 0.0, R2],
    [0.0, R3, R3, R3], [0.0, R3, -R3, R3],
    [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [-0.5, 0.5, 0.5, 0.5],
    [1e-6, 0.6, 0.8, 0.0], [-1e-6, 0.0, R2, R2], [5e-7, R2, -R2, 0.0],
    [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
])

comp = st.floats(-4.0, 4.0, allow_nan=False)
nonzero = st.tuples(comp, comp, comp, comp).filter(lambda a: _norm2(a) > 1e-2)
nearly_pure = st.tuples(st.floats(-1e-6, 1e-6), comp, comp, comp).filter(
    lambda a: _norm2(a) - a[0] * a[0] > 1.0)


def _unit(a):
    n = math.sqrt(_norm2(a))
    return tuple(c / n for c in a)


units = st.one_of(nonzero, nearly_pure, st.sampled_from(list(map(tuple, SPECIAL)))).map(_unit)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=16))
def test_quaternion_kernels_match_scalar_api(pairs):
    a, b = (np.array(cols).T for cols in zip(*pairs))
    prod, conj, inv, norm2 = np.array(_mul(a, b)), np.array(_conj(a)), np.array(_inv(a)), _norm2(a)
    assert prod.shape == conj.shape == inv.shape == a.shape and norm2.shape == a.shape[1:]
    for k, (ak, bk) in enumerate(pairs):
        qa, qb = Quaternion.from_array(ak), Quaternion.from_array(bk)
        assert _bits(prod[:, k]) == _bits(quat_mul(qa, qb))
        assert _bits(conj[:, k]) == _bits(quat_conj(qa))
        assert _bits(inv[:, k]) == _bits(quat_inverse(qa))
        assert _bits(norm2[k]) == _bits(_norm2(qa))
        assert _bits(math.sqrt(norm2[k])) == _bits(quat_norm(qa))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(units, min_size=1, max_size=16))
@example(list(map(tuple, SPECIAL)))
def test_rotation_kernels_match_scalar_api(cols):
    u = np.array(cols).T
    Q = _matrix(u)
    comps, pivot = _quat_of_matrix(Q)
    assert Q.shape == (3, 3, len(cols)) and comps.shape == u.shape
    assert pivot.shape == (len(cols),)
    for k, col in enumerate(cols):
        Qk = quat_to_matrix(Quaternion.from_array(col))
        assert _bits(Q[:, :, k]) == _bits(Qk)
        r, p = matrix_to_quat(Qk, return_pivot=True)
        assert p == pivot[k]
        assert _bits(comps[:, k]) == _bits(r)


def test_pivot_ties_take_the_first_index():
    _, pivot = _quat_of_matrix(_matrix(SPECIAL.T))
    np.testing.assert_array_equal(pivot[:11], [1, 2, 1, 1, 2, 1, 1, 1, 0, 0, 0])
