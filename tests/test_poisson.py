"""Structure tensors, brackets, Jacobi and Poisson-map verifiers."""

import copy
import pickle

import numpy as np
import pytest

from qhdyn import (
    Chart,
    ChartError,
    DomainError,
    DynamicVariable,
    PhasePoint,
    Quaternion,
    coordinate,
    hamiltonian_vector_field,
    jacobi_residual,
    momentum_along,
    poisson_bracket,
    poisson_map_residual,
    quat_mul,
    right_translation_covariance_check,
    rotation_entry_variable,
    structure_tensor,
)
from qhdyn.poisson import coordinate_labels, structure_jacobian, _tensor_components
from qhdyn.quaternion import _conj, _mul
from qhdyn.verify import random_phase_point, random_polynomial, random_unit_quat


@pytest.fixture
def rng():
    return np.random.default_rng(101)


def test_phase_point_coords_roundtrip(rng):
    pt = random_phase_point(rng, Chart.MIXED_M)
    back = PhasePoint.from_coords(pt.coords(), Chart.MIXED_M)
    np.testing.assert_array_equal(back.coords(), pt.coords())


def test_phase_point_validation():
    q = Quaternion.identity()
    with pytest.raises(DomainError):
        PhasePoint(np.zeros(2), np.zeros(3), q, np.zeros(3), Chart.MIXED_M)
    with pytest.raises(ChartError):
        PhasePoint(np.zeros(3), np.zeros(3), q, np.zeros(3), "not-a-chart")


def test_phase_point_keeps_read_only_copies(rng):
    x, p, mom = rng.standard_normal((3, 3))
    pt = PhasePoint(x, p, Quaternion.identity(), mom, Chart.MIXED_M)
    before = pt.coords()
    x[0] = p[1] = mom[2] = np.nan  # the caller's arrays stay the caller's
    assert pt.coords().tobytes() == before.tobytes()
    for v in (pt.x, pt.p, pt.mom):
        with pytest.raises(ValueError):
            v[0] = 1e9
    assert pt.coords().tobytes() == before.tobytes()


def test_phase_points_compare_and_hash_as_chart_and_coordinates(rng):
    a = random_phase_point(rng, Chart.MIXED_M)
    b = PhasePoint.from_coords(a.coords().tolist(), Chart.MIXED_M)
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != PhasePoint.from_coords(a.coords(), Chart.INERTIAL_MU)
    moved = a.coords()
    moved[12] = np.nextafter(moved[12], np.inf)
    assert a != PhasePoint.from_coords(moved, Chart.MIXED_M)
    clones = [copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))]
    for clone in clones:
        assert clone == a and hash(clone) == hash(a)
        assert not any(v.flags.writeable for v in (clone.x, clone.p, clone.mom))


def test_structure_tensor_mixed_momentum_block(rng):
    # {M1, M2} = -2 M3 and cyclic
    for _ in range(20):
        pt = random_phase_point(rng, Chart.MIXED_M)
        J = structure_tensor(pt).j
        M = pt.mom
        assert J[10, 11] == -2.0 * M[2]
        assert J[11, 12] == -2.0 * M[0]
        assert J[12, 10] == -2.0 * M[1]


def test_structure_tensor_inertial_at_identity():
    pt = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(),
                    np.array([0.4, -0.7, 1.2]), Chart.INERTIAL_MU)
    J = structure_tensor(pt).j
    # {mu_i, q_j} = eps_ijk q_k - q0 delta_ij reduces to -delta_ij at q = e0
    np.testing.assert_array_equal(J[10:13, 7:10], -np.eye(3))
    np.testing.assert_array_equal(J[10:13, 6], np.zeros(3))


def test_structure_tensor_antisymmetry_and_blocks(rng):
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        pt = random_phase_point(rng, chart)
        st = structure_tensor(pt)
        np.testing.assert_array_equal(st.j, -st.j.T)
        np.testing.assert_array_equal(st.j[6:10, 6:10], np.zeros((4, 4)))
        np.testing.assert_array_equal(st.j[0:3, 3:6], np.eye(3))
        # translational block decouples from the rotational one
        np.testing.assert_array_equal(st.j[0:6, 6:13], np.zeros((6, 7)))
        assert st.labels[0] == "x1" and len(st.labels) == 13


def test_structure_tensor_rotational_block(rng):
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    st = structure_tensor(pt, full=False)
    assert st.j.shape == (7, 7)
    assert st.labels == ("q0", "q1", "q2", "q3", "mu1", "mu2", "mu3")
    np.testing.assert_array_equal(st.j, structure_tensor(pt).j[6:, 6:])


def test_structure_jacobian_matches_finite_differences(rng):
    z = rng.uniform(-2, 2, 13)
    h = 1e-6
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        dj = structure_jacobian(chart)
        for L in range(13):
            zp, zm = z.copy(), z.copy()
            zp[L] += h
            zm[L] -= h
            fd = (_tensor_components(zp, chart) - _tensor_components(zm, chart)) / (2 * h)
            np.testing.assert_allclose(dj[:, :, L], fd, atol=1e-9)


def test_bracket_table_examples(rng):
    for _ in range(20):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        q = pt.q.as_array()
        for i in range(3):
            got = poisson_bracket(coordinate(f"mu{i + 1}"), coordinate("q0"), pt)
            assert got == pytest.approx(q[i + 1], abs=1e-15)
        assert poisson_bracket(coordinate("x1"), coordinate("p1"), pt) == 1.0
        F = coordinate("q0")
        assert poisson_bracket(F, F, pt) == 0.0


def test_bracket_chart_mismatch_raises(rng):
    pt = random_phase_point(rng, Chart.MIXED_M)
    with pytest.raises(ChartError):
        poisson_bracket(coordinate("mu1"), coordinate("q0"), pt)


def test_bracket_antisymmetry_and_leibniz(rng):
    for _ in range(30):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        F = random_polynomial(rng, Chart.INERTIAL_MU)
        G = random_polynomial(rng, Chart.INERTIAL_MU)
        H = random_polynomial(rng, Chart.INERTIAL_MU)
        assert poisson_bracket(F, G, pt) == pytest.approx(-poisson_bracket(G, F, pt), abs=1e-12)
        lhs = poisson_bracket(F * G, H, pt)
        rhs = (F.value(pt) * poisson_bracket(G, H, pt)
               + G.value(pt) * poisson_bracket(F, H, pt))
        assert lhs == pytest.approx(rhs, abs=1e-10)


def test_dynamic_variable_fd_fallback_matches_analytic(rng):
    # the same function with and without a registered gradient
    for _ in range(10):
        z = random_phase_point(rng, Chart.INERTIAL_MU).coords()
        for i in range(3):
            for j in range(3):
                var = rotation_entry_variable(i, j)
                bare = DynamicVariable(var.fn)
                assert not bare.has_analytic_gradient
                ga, gf = var.gradient(z), bare.gradient(z)
                np.testing.assert_allclose(ga, gf, rtol=1e-6, atol=1e-8)


def test_dynamic_variable_arithmetic_gradients(rng):
    z = random_phase_point(rng, Chart.INERTIAL_MU).coords()
    a = coordinate("q1")
    b = coordinate("mu2")
    combo = 2.0 * a * b + a - 0.5
    expect = np.zeros(13)
    expect[7] = 2.0 * z[11] + 1.0
    expect[11] = 2.0 * z[7]
    np.testing.assert_allclose(combo.gradient(z), expect, atol=1e-14)
    assert combo.value(z) == pytest.approx(2.0 * z[7] * z[11] + z[7] - 0.5)


def test_dynamic_variable_scalar_subtraction(rng):
    z = random_phase_point(rng, Chart.INERTIAL_MU).coords()
    a = coordinate("q0")
    for combo, value, grad in ((1.0 - a, 1.0 - z[6], -1.0), (a - 1, z[6] - 1.0, 1.0),
                               (2 - a * a, 2.0 - z[6] * z[6], -2.0 * z[6])):
        assert combo.value(z) == value
        expect = np.zeros(13)
        expect[6] = grad
        np.testing.assert_array_equal(combo.gradient(z), expect)


def test_dynamic_variable_minus_a_number_is_float_subtraction():
    z = np.zeros(13)
    z[6] = -0.0
    for c in (0, 0.0):  # -0.0 - 0 is -0.0; -0.0 + (-0) would be +0.0
        assert np.signbit((coordinate("q0") - c).value(z))


def test_dynamic_variable_rejects_non_numbers():
    a = coordinate("q0")
    for other in ("a", None, [1.0]):
        with pytest.raises(TypeError):
            a - other
        with pytest.raises(TypeError):
            other - a


def test_combined_gradient_is_analytic_only_when_every_operand_is():
    bare, q1 = DynamicVariable(lambda z: z[6] * z[7]), coordinate("q1")
    for combo in (bare + q1, q1 * bare, 2 * bare, bare - 1, 1.0 - bare, -bare, q1 - bare):
        assert not combo.has_analytic_gradient
    for combo in (q1 + q1, 2 * q1, q1 * coordinate("mu2") - 0.5, -q1, 1 - q1):
        assert combo.has_analytic_gradient


@pytest.mark.parametrize("chart", list(Chart))
def test_coordinate_labels_give_index_and_chart(chart):
    z = np.arange(13.0)
    for idx, label in enumerate(coordinate_labels(chart)):
        var = coordinate(label)
        assert var.name == label and var.value(z) == idx
        assert var.gradient(z).tolist() == np.eye(13)[idx].tolist()
        assert var.chart is (chart if idx >= 10 else None)  # a momentum label implies its chart


POINT = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(), np.ones(3), Chart.MIXED_M)
NAN_X = ([np.nan, 0.0, 0.0], np.zeros(3), Quaternion.identity(), np.zeros(3), Chart.MIXED_M)


@pytest.mark.parametrize("call, error", [
    (lambda: coordinate("m1"), DomainError),
    (lambda: coordinate(13), DomainError),
    (lambda: coordinate(12.7), DomainError),
    (lambda: coordinate(True), DomainError),
    (lambda: coordinate("M1", Chart.INERTIAL_MU), ChartError),
    (lambda: coordinate("mu1") + coordinate("M1"), ChartError),
    (lambda: poisson_bracket(coordinate("q0"), coordinate("mu1") * coordinate("q1"), POINT),
     ChartError),
    (lambda: hamiltonian_vector_field(coordinate("mu3"), POINT), ChartError),
    (lambda: coordinate("mu1").value(POINT), ChartError),
    (lambda: (coordinate("q1") * coordinate("mu1")).gradient(POINT), ChartError),
    (lambda: rotation_entry_variable(3, 0), DomainError),
    (lambda: rotation_entry_variable(1.5, 0), DomainError),
    (lambda: rotation_entry_variable(True, 0), DomainError),
    (lambda: momentum_along([1, 2]), DomainError),
    (lambda: momentum_along([1, 2, np.nan]), DomainError),
    (lambda: PhasePoint.from_coords(np.zeros(12), Chart.MIXED_M), DomainError),
    (lambda: PhasePoint(*NAN_X), DomainError),
], ids=["unknown label", "index 13", "float index", "bool index", "label off its chart",
        "variables on two charts", "bracket off the point's chart", "field off the point's chart",
        "value off the point's chart", "gradient off the point's chart", "rotation entry 3",
        "float rotation entry", "bool rotation entry", "momentum along two numbers",
        "momentum along a NaN",
        "12 coordinates", "non-finite x"])
def test_bad_arguments_raise(call, error):
    with pytest.raises(error):
        call()


def test_chart_of_a_variable_is_checked_only_at_a_phase_point():
    mu1 = coordinate("mu1")
    assert mu1.value(POINT.coords()) == 1.0  # a bare array carries no chart
    assert coordinate(np.int64(11)).value(POINT) == coordinate(11).value(POINT) == 1.0
    inertial = PhasePoint.from_coords(POINT.coords(), Chart.INERTIAL_MU)
    assert mu1.value(inertial) == 1.0
    assert mu1.gradient(inertial).tolist() == np.eye(13)[10].tolist()


def _jacobi_bruteforce(z, chart):
    J = _tensor_components(z, chart)
    dJ = structure_jacobian(chart)
    n = 13
    worst = 0.0
    for i in range(n):
        for j in range(n):
            for k in range(n):
                s = 0.0
                for l in range(n):
                    s += (dJ[i, j, l] * J[l, k] + dJ[j, k, l] * J[l, i]
                          + dJ[k, i, l] * J[l, j])
                worst = max(worst, abs(s))
    return worst


def test_jacobi_residual_matches_bruteforce(rng):
    # independent triple-loop evaluation of the cyclic sum
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        pt = random_phase_point(rng, chart)
        fast = jacobi_residual(pt)
        slow = _jacobi_bruteforce(pt.coords(), chart)
        assert fast == pytest.approx(slow, abs=1e-14)


def test_jacobi_residual_both_charts(rng):
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        worst = max(jacobi_residual(random_phase_point(rng, chart)) for _ in range(200))
        assert worst <= 1e-12


def test_jacobi_negative_control(rng):
    worst = max(jacobi_residual(random_phase_point(rng, Chart.INERTIAL_MU), corrupt=True)
                for _ in range(50))
    assert worst > 0.1


def test_poisson_map_residual(rng):
    worst = 0.0
    for i in range(100):
        pt = random_phase_point(rng, Chart.INERTIAL_MU, small_q0=(i % 10 == 0))
        worst = max(worst, poisson_map_residual(pt))
    assert worst <= 1e-11


def test_poisson_map_requires_inertial_chart(rng):
    with pytest.raises(ChartError):
        poisson_map_residual(random_phase_point(rng, Chart.MIXED_M))


def test_rotation_entries_commute(rng):
    # {Q_ij, Q_kl} = 0 exactly: the q-q block of the tensor vanishes
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    v1 = rotation_entry_variable(0, 1)
    v2 = rotation_entry_variable(2, 2)
    assert poisson_bracket(v1, v2, pt) == 0.0


def test_hamiltonian_vector_field_momentum_hamiltonian(rng):
    for _ in range(30):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        xi = rng.standard_normal(3)
        field = hamiltonian_vector_field(momentum_along(xi), pt)
        expect = quat_mul(Quaternion.pure(xi), pt.q).as_array()
        np.testing.assert_allclose(field[6:10], expect, atol=1e-14)


def test_hamiltonian_vector_field_constant_and_q0(rng):
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    const = DynamicVariable(lambda z: 3.5, lambda z: np.zeros(13))
    np.testing.assert_array_equal(hamiltonian_vector_field(const, pt), np.zeros(13))
    field = hamiltonian_vector_field(coordinate("q0"), pt)
    np.testing.assert_allclose(field[10:13], pt.q.qv, atol=1e-15)
    np.testing.assert_array_equal(field[0:10], np.zeros(10))


def test_hamiltonian_vector_field_is_bracket_derivative(rng):
    for _ in range(20):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        F = random_polynomial(rng, Chart.INERTIAL_MU)
        H = random_polynomial(rng, Chart.INERTIAL_MU)
        field = hamiltonian_vector_field(H, pt)
        directional = float(F.gradient(pt.coords()) @ field)
        assert poisson_bracket(F, H, pt) == pytest.approx(directional, abs=1e-9)


def test_right_translation_covariance(rng):
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    assert right_translation_covariance_check(pt, Quaternion.identity()) <= 1e-11
    worst = 0.0
    for i in range(50):
        pt = random_phase_point(rng, Chart.INERTIAL_MU, small_q0=(i % 5 == 0))
        worst = max(worst, right_translation_covariance_check(pt, random_unit_quat(rng)))
    assert worst <= 1e-11


def test_norm_function_commutes_with_generators(rng):
    norm_sq = DynamicVariable(
        lambda z: float(z[6:10] @ z[6:10]),
        lambda z: np.concatenate([np.zeros(6), 2.0 * z[6:10], np.zeros(3)]))
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        for _ in range(20):
            pt = random_phase_point(rng, chart)
            for idx in range(13):
                assert abs(poisson_bracket(norm_sq, coordinate(idx), pt)) <= 1e-11


def _readme_bracket_table(z, chart):
    """The documented bracket relations written out entry by entry."""
    from qhdyn.poisson import LEVI
    q0, q, m = z[6], z[7:10], z[10:13]
    J = np.zeros((13, 13))

    def put(a, b, value):
        J[a, b] = value
        J[b, a] = -value

    for i in range(3):
        put(i, 3 + i, 1.0)                      # {x_i, p_j} = delta_ij
        put(10 + i, 6, q[i])                    # {mom_i, q0} = q_i
        for j in range(3):
            eps_q = sum(LEVI[i, j, k] * q[k] for k in range(3))
            eps_m = sum(LEVI[i, j, k] * m[k] for k in range(3))
            delta = 1.0 if i == j else 0.0
            if chart is Chart.INERTIAL_MU:
                put(10 + i, 7 + j, eps_q - q0 * delta)   # {mu_i, q_j}
                J[10 + i, 10 + j] = 2.0 * eps_m          # {mu_i, mu_j}
            else:
                put(10 + i, 7 + j, -q0 * delta - eps_q)  # {M_i, q_j}
                J[10 + i, 10 + j] = -2.0 * eps_m         # {M_i, M_j}
    return J


def test_structure_tensor_matches_documented_table(rng):
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        for i in range(200):
            pt = random_phase_point(rng, chart, small_q0=(i % 10 == 0))
            np.testing.assert_array_equal(structure_tensor(pt).j,
                                          _readme_bracket_table(pt.coords(), chart))


def test_jacobi_exact_on_affine_basis():
    # J is affine and dJ constant, so the cyclic Jacobi sum is affine in z: it
    # vanishes everywhere iff it vanishes at z = 0 and at the 13 basis vectors.
    def worst_cyclic(chart, corrupt):
        dJ = structure_jacobian(chart, corrupt)
        worst = 0.0
        for z in np.vstack([np.zeros(13), np.eye(13)]):
            A = np.einsum("ijl,lk->ijk", dJ, _tensor_components(z, chart, corrupt))
            cyc = A + np.transpose(A, (2, 0, 1)) + np.transpose(A, (1, 2, 0))
            worst = max(worst, float(np.max(np.abs(cyc))))
        return worst

    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        assert worst_cyclic(chart, False) == 0.0
        assert worst_cyclic(chart, True) > 0.1


@pytest.mark.parametrize("chart", list(Chart))
def test_negative_control_flips_one_entry_and_its_partner(chart):
    # {mom_1, q0} = q1 becomes -q1, and {q0, mom_1} with it: dJ[10, 6, 7] and dJ[6, 10, 7]
    good, bad = structure_jacobian(chart), structure_jacobian(chart, True)
    assert [tuple(i) for i in np.argwhere(good != bad)] == [(6, 10, 7), (10, 6, 7)]
    assert bad[10, 6, 7] == -good[10, 6, 7] == -1.0
    assert bad[6, 10, 7] == -good[6, 10, 7] == 1.0


# mom as a function of canonical (q, P) on T*R^4: M = Im(q^dag P), mu = Im(P q^dag)
CANONICAL_MOMENTA = {Chart.MIXED_M: lambda q, P: _mul(_conj(q), P)[1:],
                     Chart.INERTIAL_MU: lambda q, P: _mul(P, _conj(q))[1:]}


@pytest.mark.parametrize("chart", list(CANONICAL_MOMENTA))
def test_tensor_is_the_push_forward_of_canonical_t_star_s3(chart):
    # with {x_i, p_j} = delta_ij and {q_a, P_b} = delta_ab, the map (x, p, q, P) ->
    # (x, p, q, mom(q, P)) is bilinear, so on small integers G J_can G^T is exact
    mom = CANONICAL_MOMENTA[chart]
    J_can = np.zeros((14, 14))
    J_can[0:3, 3:6], J_can[6:10, 10:14] = np.eye(3), np.eye(4)
    J_can -= J_can.T
    basis = np.eye(4)
    for x, p, q, P in np.random.default_rng(16).integers(-9, 10, (200, 4, 4)).astype(float):
        G = np.zeros((13, 14))
        G[0:10, 0:10] = np.eye(10)
        G[10:13, 6:10] = np.transpose([mom(e, P) for e in basis])   # d mom / d q_a
        G[10:13, 10:14] = np.transpose([mom(q, e) for e in basis])  # d mom / d P_a
        z = np.concatenate([x[:3], p[:3], q, mom(q, P)])
        assert np.array_equal(G @ J_can @ G.T, _tensor_components(z, chart))
