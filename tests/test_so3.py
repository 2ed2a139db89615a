"""hat/vee, the quaternion-rotation homomorphism and its stable inverse."""

import math

import numpy as np
import pytest

from qhdyn import (
    Ad,
    DomainError,
    GeometryError,
    PreconditionError,
    Quaternion,
    ad,
    ad_star,
    axis_angle_to_quat,
    hat,
    matrix_to_quat,
    maurer_cartan_residual,
    quat_mul,
    quat_normalize,
    quat_to_matrix,
    require_rotation,
    rotate_vector,
    vee,
)


def random_unit(rng):
    return quat_normalize(Quaternion.from_array(rng.standard_normal(4)))


def test_hat_of_z_axis():
    np.testing.assert_array_equal(
        hat([0.0, 0.0, 1.0]),
        np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))


def test_hat_vee_roundtrip_exact():
    rng = np.random.default_rng(21)
    for _ in range(200):
        v = rng.standard_normal(3)
        np.testing.assert_array_equal(vee(hat(v)), v)


def test_hat_acts_as_cross_product():
    rng = np.random.default_rng(22)
    for _ in range(200):
        v, w = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)


def test_vee_rejects_bad_input():
    with pytest.raises(DomainError):
        vee(np.eye(3))
    with pytest.raises(DomainError):
        vee(np.zeros((2, 2)))


def test_trace_pairing_and_commutator():
    rng = np.random.default_rng(23)
    for _ in range(200):
        xi, eta = rng.standard_normal(3), rng.standard_normal(3)
        assert abs(float(xi @ eta) + 0.5 * np.trace(hat(xi) @ hat(eta))) <= 1e-14 * max(
            1.0, abs(float(xi @ eta)))
        comm = hat(xi) @ hat(eta) - hat(eta) @ hat(xi)
        np.testing.assert_allclose(comm, hat(np.cross(xi, eta)), atol=1e-14)


def test_conjugation_pushes_hat():
    rng = np.random.default_rng(24)
    for _ in range(100):
        B = quat_to_matrix(random_unit(rng))
        xi = rng.standard_normal(3)
        np.testing.assert_allclose(B @ hat(xi) @ B.T, hat(B @ xi), atol=1e-13)


def test_quat_to_matrix_z_rotation():
    theta = 1.3
    q = Quaternion(math.cos(theta / 2), (0.0, 0.0, math.sin(theta / 2)))
    expect = np.array([[math.cos(theta), -math.sin(theta), 0.0],
                       [math.sin(theta), math.cos(theta), 0.0],
                       [0.0, 0.0, 1.0]])
    np.testing.assert_allclose(quat_to_matrix(q), expect, atol=1e-15)


def test_quat_to_matrix_identity():
    np.testing.assert_allclose(quat_to_matrix(Quaternion.identity()), np.eye(3), atol=0.0)


def test_quat_to_matrix_requires_unit():
    with pytest.raises(PreconditionError):
        quat_to_matrix(Quaternion(1.0, (0.01, 0.0, 0.0)))


def test_matrix_matches_rotate_vector_columnwise():
    rng = np.random.default_rng(25)
    eye = np.eye(3)
    for _ in range(200):
        q = random_unit(rng)
        Q = quat_to_matrix(q)
        for k in range(3):
            np.testing.assert_allclose(Q[:, k], rotate_vector(q, eye[:, k]), atol=1e-15)


def test_output_is_proper_rotation():
    rng = np.random.default_rng(26)
    for _ in range(200):
        Q = quat_to_matrix(random_unit(rng))
        assert np.max(np.abs(Q.T @ Q - np.eye(3))) <= 1e-14
        assert np.linalg.det(Q) > 0.0


def test_homomorphism():
    rng = np.random.default_rng(27)
    for _ in range(1000):
        q1, q2 = random_unit(rng), random_unit(rng)
        lhs = quat_to_matrix(quat_mul(q1, q2))
        rhs = quat_to_matrix(q1) @ quat_to_matrix(q2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_double_cover_exact():
    rng = np.random.default_rng(28)
    for _ in range(300):
        q = random_unit(rng)
        np.testing.assert_array_equal(quat_to_matrix(q), quat_to_matrix(-q))


def test_matrix_to_quat_identity():
    q, pivot = matrix_to_quat(np.eye(3), return_pivot=True)
    np.testing.assert_allclose(q.as_array(), [1.0, 0.0, 0.0, 0.0], atol=1e-15)
    assert pivot == 0


def test_matrix_to_quat_pi_about_x():
    # trace = -1 puts the scalar part at zero; the pivot moves to q1
    q, pivot = matrix_to_quat(np.diag([1.0, -1.0, -1.0]), return_pivot=True)
    np.testing.assert_allclose(q.as_array(), [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert pivot == 1


def test_matrix_to_quat_tie_break_prefers_q0():
    # z-rotation by pi/2: the q0 and q3 candidates tie; the first index wins
    m = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    q, pivot = matrix_to_quat(m, return_pivot=True)
    assert pivot == 0
    s = math.sqrt(0.5)
    np.testing.assert_allclose(q.as_array(), [s, 0.0, 0.0, s], atol=1e-15)


def test_roundtrip_including_small_scalar_part():
    rng = np.random.default_rng(29)
    worst = 0.0
    for i in range(10000):
        a = rng.standard_normal(4)
        if i % 10 == 0:
            a[0] = rng.uniform(-1e-3, 1e-3)  # probe the nearly-pure regime
        q = quat_normalize(Quaternion.from_array(a))
        r = matrix_to_quat(quat_to_matrix(q)).as_array()
        d = min(np.max(np.abs(r - q.as_array())), np.max(np.abs(r + q.as_array())))
        worst = max(worst, d)
    assert worst <= 1e-12


def test_matrix_roundtrip_other_direction():
    rng = np.random.default_rng(30)
    for i in range(2000):
        a = rng.standard_normal(4)
        if i % 7 == 0:
            a[0] = rng.uniform(-1e-6, 1e-6)  # trace near -1
        Q = quat_to_matrix(quat_normalize(Quaternion.from_array(a)))
        np.testing.assert_allclose(quat_to_matrix(matrix_to_quat(Q)), Q, atol=1e-12)


def test_matrix_to_quat_pivot_component_positive():
    rng = np.random.default_rng(31)
    for _ in range(500):
        Q = quat_to_matrix(random_unit(rng))
        q, pivot = matrix_to_quat(Q, return_pivot=True)
        assert q.as_array()[pivot] > 0.0


def test_matrix_to_quat_rejects_bad_matrices():
    with pytest.raises(GeometryError):
        matrix_to_quat(np.diag([1.0, 1.0, 1.1]))
    with pytest.raises(GeometryError):
        matrix_to_quat(np.diag([1.0, 1.0, -1.0]))  # orthogonal but improper
    with pytest.raises(GeometryError):
        require_rotation(np.zeros((3, 4)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_matrix_to_quat_rejects_non_finite_entries(bad):
    Q = np.eye(3)
    Q[1, 2] = bad
    with pytest.raises(GeometryError, match="non-finite"):
        matrix_to_quat(Q)


def test_adjoint_operators():
    rng = np.random.default_rng(32)
    np.testing.assert_allclose(ad([1.0, 0.0, 0.0], [0.0, 1.0, 0.0]),
                               [0.0, 0.0, 2.0], atol=0.0)
    xi = rng.standard_normal(3)
    np.testing.assert_array_equal(Ad(Quaternion.identity(), xi), xi)
    for _ in range(300):
        xi, eta, mu = (rng.standard_normal(3) for _ in range(3))
        lhs = float(ad_star(xi, mu) @ eta)
        rhs = float(mu @ ad(xi, eta))
        assert abs(lhs - rhs) <= 1e-13 * max(1.0, abs(rhs))
    q = random_unit(rng)
    np.testing.assert_allclose(Ad(q, xi), rotate_vector(q, xi), atol=0.0)


def test_maurer_cartan_z_path():
    path = lambda t: axis_angle_to_quat([0.0, 0.0, 1.0], t)
    assert maurer_cartan_residual(path, 0.3, 1e-4) <= 1e-8


def test_maurer_cartan_constant_path():
    q = quat_normalize(Quaternion(0.3, (0.5, -0.2, 0.8)))
    assert maurer_cartan_residual(lambda t: q, 0.0, 1e-3) == 0.0


def test_maurer_cartan_second_order_convergence():
    base = quat_normalize(Quaternion(0.9, (0.1, -0.3, 0.2)))

    def path(t):
        return quat_mul(quat_mul(axis_angle_to_quat([1.0, 0.4, -0.2], 0.5 * t), base),
                        axis_angle_to_quat([0.2, -1.0, 0.5], 0.4 * t))

    h = 1e-3
    r1 = maurer_cartan_residual(path, 0.17, h)
    r2 = maurer_cartan_residual(path, 0.17, 2 * h)
    assert 0.15 <= r1 / r2 <= 0.35


def test_maurer_cartan_rejects_nonpositive_step():
    # and a non-finite one, before the path is called
    calls = []

    def path(t):
        calls.append(t)
        return axis_angle_to_quat([0.0, 0.0, 1.0], t)

    for h in (0.0, -1e-4, -1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError, match="step h must be positive and finite"):
            maurer_cartan_residual(path, 0.0, h)
    assert calls == []
