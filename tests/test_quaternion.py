"""Quaternion algebra: product law, conjugation, norm, inverse, rotation."""

import copy
import math
import pickle

import numpy as np
import pytest

from qhdyn import (
    Chart,
    DomainError,
    PhasePoint,
    PreconditionError,
    Quaternion,
    axis_angle_to_quat,
    quat_conj,
    quat_inverse,
    quat_mul,
    quat_norm,
    quat_normalize,
    right_action_matrix,
    rotate_vector,
)

E = [Quaternion.basis(mu) for mu in range(4)]
LEVI = {(1, 2): (3, 1.0), (2, 3): (1, 1.0), (3, 1): (2, 1.0),
        (2, 1): (3, -1.0), (3, 2): (1, -1.0), (1, 3): (2, -1.0)}


def test_defining_relations_all_pairs_exact():
    # e_r e_s = -delta_rs e0 + eps_rst e_t, all nine generator pairs
    for r in range(1, 4):
        for s in range(1, 4):
            got = quat_mul(E[r], E[s]).as_array()
            expect = np.zeros(4)
            if r == s:
                expect[0] = -1.0
            else:
                t, sign = LEVI[(r, s)]
                expect[t] = sign
            assert np.array_equal(got, expect), (r, s)


def test_commutator_and_anticommutator_relations():
    for r in range(1, 4):
        for s in range(1, 4):
            comm = (quat_mul(E[r], E[s]) - quat_mul(E[s], E[r])).as_array()
            anti = (quat_mul(E[r], E[s]) + quat_mul(E[s], E[r])).as_array()
            expect_comm = np.zeros(4)
            if r != s:
                t, sign = LEVI[(r, s)]
                expect_comm[t] = 2.0 * sign
            expect_anti = np.zeros(4)
            if r == s:
                expect_anti[0] = -2.0
            assert np.array_equal(comm, expect_comm)
            assert np.array_equal(anti, expect_anti)


def test_e1_times_e2_is_e3():
    assert quat_mul(E[1], E[2]) == E[3]


def test_identity_element():
    rng = np.random.default_rng(11)
    for _ in range(100):
        q = Quaternion.from_array(rng.standard_normal(4))
        assert quat_mul(E[0], q) == q
        assert quat_mul(q, E[0]) == q


def test_associativity_1000_triples():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        a, b, c = (Quaternion.from_array(rng.uniform(-1, 1, 4)) for _ in range(3))
        lhs = quat_mul(a, quat_mul(b, c)).as_array()
        rhs = quat_mul(quat_mul(a, b), c).as_array()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-15


def test_product_law_components():
    a = Quaternion(1.0, (2.0, -0.5, 3.0))
    b = Quaternion(-2.0, (0.5, 1.5, -1.0))
    av, bv = a.qv, b.qv
    expect_scalar = a.q0 * b.q0 - float(av @ bv)
    expect_vector = a.q0 * bv + b.q0 * av + np.cross(av, bv)
    got = quat_mul(a, b)
    assert got.q0 == pytest.approx(expect_scalar, abs=1e-15)
    np.testing.assert_allclose(got.qv, expect_vector, atol=1e-15)


def test_conjugation_flips_vector_part():
    q = Quaternion(1.5, (2.0, -3.0, 0.25))
    c = quat_conj(q)
    assert c.q0 == q.q0
    np.testing.assert_array_equal(c.qv, -q.qv)


def test_conjugation_antihomomorphism():
    rng = np.random.default_rng(6)
    for _ in range(500):
        a = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        lhs = quat_conj(quat_mul(a, b)).as_array()
        rhs = quat_mul(quat_conj(b), quat_conj(a)).as_array()
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_norm_of_1234():
    assert quat_norm(Quaternion(1.0, (2.0, 3.0, 4.0))) == pytest.approx(math.sqrt(30.0), rel=1e-15)


def test_norm_multiplicativity():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        a = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        prod = quat_norm(quat_mul(a, b))
        assert abs(prod - quat_norm(a) * quat_norm(b)) <= 1e-13 * prod


def test_inverse_defining_property():
    rng = np.random.default_rng(8)
    e0 = np.array([1.0, 0.0, 0.0, 0.0])
    for _ in range(1000):
        q = Quaternion.from_array(rng.standard_normal(4))
        got = quat_mul(q, quat_inverse(q)).as_array()
        assert np.max(np.abs(got - e0)) <= 1e-15


def test_inverse_matches_conjugate_over_norm_squared():
    q = Quaternion(1.0, (2.0, 3.0, 4.0))
    inv = quat_inverse(q)
    np.testing.assert_allclose(inv.as_array(), quat_conj(q).as_array() / 30.0, rtol=1e-15)


def test_zero_inverse_and_normalize_raise():
    zero = Quaternion(0.0)
    with pytest.raises(DomainError):
        quat_inverse(zero)
    with pytest.raises(DomainError):
        quat_normalize(zero)


def test_normalize():
    q = quat_normalize(Quaternion(3.0, (0.0, 4.0, 0.0)))
    assert quat_norm(q) == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(q.as_array(), [0.6, 0.0, 0.8, 0.0], rtol=1e-15)


@pytest.mark.parametrize("q", [Quaternion(0.0), Quaternion(1e308, (1e308, 0.0, 0.0)),
                               Quaternion(0.0, (0.0, 0.0, 1e200))])
def test_normalize_rejects_zero_and_overflowing_norms(q):
    with pytest.raises(DomainError):
        quat_normalize(q)


@pytest.mark.parametrize("axis", [[0.0, 0.0, 0.0], [1e308, 1e308, 0.0], [0.0, 1e200, 0.0],
                                  [math.nan, 0.0, 0.0], [math.inf, 0.0, 0.0]])
def test_axis_angle_rejects_zero_and_overflowing_axes(axis):
    with pytest.raises(DomainError):
        axis_angle_to_quat(axis, 0.3)


@pytest.mark.filterwarnings("error")  # numpy's sin and cos warned on these before the check
@pytest.mark.parametrize("phi", [math.inf, -math.inf, math.nan])
def test_axis_angle_rejects_a_nonfinite_angle_by_name(phi):
    with pytest.raises(DomainError, match=f"rotation angle phi must be finite, got {phi!r}"):
        axis_angle_to_quat([0.0, 0.0, 1.0], phi)


def test_star_is_the_quaternion_product():
    rng = np.random.default_rng(19)
    for _ in range(20):
        a, b = (Quaternion.from_array(rng.standard_normal(4)) for _ in range(2))
        assert type(a * b) is Quaternion and a * b == quat_mul(a, b)


def test_nonfinite_components_rejected():
    with pytest.raises(DomainError):
        Quaternion(float("nan"))
    with pytest.raises(DomainError):
        Quaternion(1.0, (float("inf"), 0.0, 0.0))


def test_rotate_half_angle_z():
    theta = 0.77
    q = Quaternion(math.cos(theta / 2), (0.0, 0.0, math.sin(theta / 2)))
    got = rotate_vector(q, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(got, [math.cos(theta), math.sin(theta), 0.0], atol=1e-15)


def test_rotate_identity():
    rng = np.random.default_rng(9)
    for _ in range(50):
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(rotate_vector(E[0], x), x)


def test_rotate_preserves_products():
    rng = np.random.default_rng(10)
    for _ in range(300):
        q = Quaternion.from_array(rng.standard_normal(4))
        q = quat_normalize(q)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        rx, ry = rotate_vector(q, x), rotate_vector(q, y)
        assert abs(float(rx @ ry) - float(x @ y)) <= 1e-13
        np.testing.assert_allclose(np.cross(rx, ry), rotate_vector(q, np.cross(x, y)),
                                   atol=1e-13)


def test_rotate_result_is_pure():
    # scalar part of q x q^dag stays at rounding level
    rng = np.random.default_rng(12)
    for _ in range(300):
        q = quat_normalize(Quaternion.from_array(rng.standard_normal(4)))
        x = Quaternion.pure(rng.standard_normal(3))
        prod = quat_mul(quat_mul(q, x), quat_conj(q))
        assert abs(prod.q0) <= 1e-13


def test_rotate_rejects_non_unit():
    with pytest.raises(PreconditionError):
        rotate_vector(Quaternion(1.0, (0.1, 0.0, 0.0)), [1.0, 0.0, 0.0])


def test_double_cover_bitwise():
    rng = np.random.default_rng(13)
    for _ in range(200):
        q = quat_normalize(Quaternion.from_array(rng.standard_normal(4)))
        x = rng.standard_normal(3)
        np.testing.assert_array_equal(rotate_vector(q, x), rotate_vector(-q, x))


def test_axis_angle_basics():
    got = axis_angle_to_quat([0.0, 0.0, 1.0], math.pi)
    np.testing.assert_allclose(got.as_array(), [0.0, 0.0, 0.0, 1.0], atol=1e-15)
    rng = np.random.default_rng(14)
    for _ in range(20):
        axis = rng.standard_normal(3)
        assert axis_angle_to_quat(axis, 0.0) == E[0]
    with pytest.raises(DomainError):
        axis_angle_to_quat([0.0, 0.0, 0.0], 1.0)


def test_axis_angle_one_parameter_subgroup():
    rng = np.random.default_rng(15)
    z = [0.0, 0.0, 1.0]
    for _ in range(200):
        t1, t2 = rng.uniform(-3, 3, 2)
        lhs = quat_mul(axis_angle_to_quat(z, t1), axis_angle_to_quat(z, t2)).as_array()
        rhs = axis_angle_to_quat(z, t1 + t2).as_array()
        np.testing.assert_allclose(lhs, rhs, atol=1e-14)


def test_axis_angle_unit_norm():
    rng = np.random.default_rng(16)
    for _ in range(100):
        q = axis_angle_to_quat(rng.standard_normal(3), rng.uniform(-7, 7))
        assert abs(quat_norm(q) - 1.0) <= 1e-15


def test_right_action_matrix_identity_and_column():
    np.testing.assert_array_equal(right_action_matrix(E[0]), np.eye(4))
    b = Quaternion(0.3, (-1.2, 0.7, 2.0))
    np.testing.assert_array_equal(right_action_matrix(b) @ E[0].as_array(), b.as_array())


def test_right_action_matrix_against_product():
    rng = np.random.default_rng(17)
    for _ in range(1000):
        q = Quaternion.from_array(rng.standard_normal(4))
        b = Quaternion.from_array(rng.standard_normal(4))
        lhs = right_action_matrix(b) @ q.as_array()
        rhs = quat_mul(q, b).as_array()
        assert np.max(np.abs(lhs - rhs)) <= 1e-15 * max(1.0, quat_norm(q) * quat_norm(b))


def test_pure_product_identities():
    rng = np.random.default_rng(18)
    for _ in range(500):
        xv, yv = rng.standard_normal(3), rng.standard_normal(3)
        x, y = Quaternion.pure(xv), Quaternion.pure(yv)
        anti = -0.5 * (quat_mul(x, y) + quat_mul(y, x)).as_array()
        sym = 0.5 * (quat_mul(x, y) - quat_mul(y, x)).as_array()
        assert abs(anti[0] - float(xv @ yv)) <= 1e-14
        np.testing.assert_allclose(anti[1:], 0.0, atol=1e-14)
        assert sym[0] == 0.0
        np.testing.assert_allclose(sym[1:], np.cross(xv, yv), atol=1e-14)


def test_value_semantics():
    q = Quaternion(1.0, (2.0, 3.0, 4.0))
    with pytest.raises(AttributeError):
        q.q0 = 5.0
    assert q == Quaternion.from_array([1.0, 2.0, 3.0, 4.0])
    assert q != quat_conj(q)
    assert (2.0 * q).as_array() == pytest.approx([2.0, 4.0, 6.0, 8.0])
    q0, q1, q2, q3 = q
    assert [type(c) for c in (q0, q1, q2, q3)] == [float] * 4
    assert (q0, q1, q2, q3) == (1.0, 2.0, 3.0, 4.0)
    assert np.array(q).shape == (4,)
    assert hash(q) == hash(tuple(q))
    with pytest.raises(TypeError):
        q[0] = 1.0
    with pytest.raises(AttributeError):
        q.q0 = 1.0


def test_copy_and_pickle_roundtrip():
    q = Quaternion(0.5, (-1.25, 2.0, -0.0))
    pt = PhasePoint(x=[1.0, -2.0, 0.5], p=[0.0, 3.0, -1.0], q=quat_normalize(q),
                    mom=[0.25, -0.75, 1.5], chart=Chart.MIXED_M)
    pickles = [pickle.loads(pickle.dumps(pt, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [copy.copy(pt), copy.deepcopy(pt), *pickles]:
        assert type(clone.q) is Quaternion
        assert clone.chart is pt.chart
        assert clone.coords().tobytes() == pt.coords().tobytes()
    pickles = [pickle.loads(pickle.dumps(q, proto))
               for proto in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in [copy.copy(q), copy.deepcopy(q), *pickles]:
        assert type(clone) is Quaternion
        assert clone.as_array().tobytes() == q.as_array().tobytes()
        assert (clone.q0, clone.q1, clone.q2, clone.q3) == (0.5, -1.25, 2.0, -0.0)
