"""Verification-suite runner: determinism, registry, sampling."""

import tracemalloc

import numpy as np
import pytest

from qhdyn import (
    DynamicVariable,
    Quaternion,
    coordinate,
    eom_rhs,
    hamiltonian_variable,
    hamiltonian_vector_field,
    jacobi_residual,
    liouville_form_eval,
    matrix_to_quat,
    poisson_bracket,
    poisson_map_residual,
    quat_conj,
    quat_inverse,
    quat_mul,
    quat_norm,
    quat_to_matrix,
    right_action_matrix,
    right_translation_covariance_check,
    rotate_vector,
    structure_tensor,
    symplectic_form_eval,
    verify,
)
from qhdyn.poisson import Chart


def test_run_suite_deterministic():
    a = verify.run_suite("jacobi", seed=9, n_points=30)
    b = verify.run_suite("jacobi", seed=9, n_points=30)
    assert [(r.name, r.residual) for r in a] == [(r.name, r.residual) for r in b]


def test_run_suite_unknown_name():
    with pytest.raises(KeyError):
        verify.run_suite("nonsense")


def test_registry_covers_documented_suites():
    assert set(verify.SUITES) == {"algebra", "brackets", "jacobi", "poisson_map",
                                  "maurer_cartan", "symplectic", "dynamics_oracle"}
    assert set(verify.DEFAULT_POINTS) == set(verify.SUITES)


def test_phase_point_sampler_ranges():
    rng = np.random.default_rng(55)
    for _ in range(200):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        z = pt.coords()
        assert np.all(np.abs(z[0:6]) <= 2.0)
        assert np.all(np.abs(z[10:13]) <= 2.0)
        assert abs(float(z[6:10] @ z[6:10]) - 1.0) <= 1e-12
    small = verify.random_unit_quat(rng, small_q0=True)
    assert abs(small.q0) <= 1e-6
    assert abs(float(small.as_array() @ small.as_array()) - 1.0) <= 1e-12


def test_all_suites_pass_at_small_sizes():
    for name in verify.SUITES:
        results = verify.run_suite(name, seed=2, n_points=25)
        assert results and all(r.passed for r in results), name


def test_check_inventory_per_suite():
    # the check counts the benchmark's verify workload expects
    expected = {"algebra": 12, "brackets": 7, "jacobi": 3, "poisson_map": 1,
                "maurer_cartan": 2, "symplectic": 4, "dynamics_oracle": 6}
    assert set(expected) == set(verify.SUITES)
    for name, count in expected.items():
        assert len(verify.run_suite(name, seed=3, n_points=5)) == count, name


def _max_abs(x):
    return float(np.max(np.abs(x)))


def _dist(p, q):
    return float(np.max(np.abs(p.as_array() - q.as_array())))


def _algebra_reference(rng, n):
    """The algebra residuals after the defining relations, one sample at a time
    through the scalar API, drawing from ``rng`` as ``algebra_checks`` does."""
    e0 = Quaternion.identity()
    w = [0.0] * 7
    for a, b, c in rng.standard_normal((n, 3, 4)):
        a, b, c = (Quaternion.from_array(v) for v in (a, b, c))
        ab = quat_mul(a, b)
        na, nb = quat_norm(a), quat_norm(b)
        x1, x2, x3 = a[1:]
        y1, y2, y3 = b[1:]
        x, y = Quaternion.pure(a[1:]), Quaternion.pure(b[1:])
        lhs = [sum(r * x for r, x in zip(row, a)) for row in right_action_matrix(b)]
        w = [max(old, new) for old, new in zip(w, [
            max(_dist(quat_mul(e0, a), a), _dist(quat_mul(a, e0), a)),
            _dist(quat_mul(a, quat_mul(b, c)), quat_mul(ab, c)),
            _dist(quat_conj(ab), quat_mul(quat_conj(b), quat_conj(a))),
            abs(quat_norm(ab) - na * nb) / max(na * nb, 1e-300),
            _dist(quat_mul(a, quat_inverse(a)), e0) if na > 1e-8 else 0.0,
            max(_dist(0.5 * (quat_mul(x, y) + quat_mul(y, x)),
                      Quaternion(-(x1 * y1 + x2 * y2 + x3 * y3))),
                _dist(0.5 * (quat_mul(x, y) - quat_mul(y, x)),
                      Quaternion.pure((x2 * y3 - x3 * y2, x3 * y1 - x1 * y3,
                                       x1 * y2 - x2 * y1)))),
            float(np.max(np.abs(lhs - ab.as_array()))),
        ])]
    return w


def _rotation_reference(rng, n):
    """Homomorphism, double-cover, round-trip and dot/cross residuals, one
    sample at a time, drawing from ``rng`` as ``rotation_checks`` does."""
    units = rng.standard_normal((n, 2, 4))
    units /= np.linalg.norm(units, axis=2, keepdims=True)
    hom = cover = trip = 0.0
    for u1, u2 in units:
        q1, q2 = Quaternion.from_array(u1), Quaternion.from_array(u2)
        product = [[sum(g * G for g, G in zip(row, col)) for col in quat_to_matrix(q2).T]
                   for row in quat_to_matrix(q1)]
        hom = max(hom, float(np.max(np.abs(quat_to_matrix(quat_mul(q1, q2)) - product))))
        cover = max(cover, float(np.max(np.abs(quat_to_matrix(-q1) - quat_to_matrix(q1)))))
    for small, u2 in zip(verify._small_q0_flags(rng, n), units[:, 1]):
        q = verify.random_unit_quat(rng, small_q0=True) if small else Quaternion.from_array(u2)
        r = matrix_to_quat(quat_to_matrix(q))
        trip = max(trip, min(_dist(r, q), _dist(r, -q)))
    dot_cross = 0.0
    for _ in range(max(1, n // 10)):
        q = verify.random_unit_quat(rng)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        rx, ry = rotate_vector(q, x), rotate_vector(q, y)
        dot_cross = max(dot_cross, abs(float(rx @ ry) - float(x @ y)),
                        _max_abs(np.cross(rx, ry) - rotate_vector(q, np.cross(x, y))))
    return [hom, cover, trip, dot_cross]


def _bracket_reference(rng, n):
    """The seven bracket residuals, one phase point at a time through the
    public per-point functions, drawing from ``rng`` as ``bracket_checks`` does."""
    anti = mu = m = xp = 0.0
    for small in verify._small_q0_flags(rng, n):
        pt_mu = verify.random_phase_point(rng, Chart.INERTIAL_MU, small)
        pt_m = verify.random_phase_point(rng, Chart.MIXED_M, small)
        J_mu, J_m = structure_tensor(pt_mu).j, structure_tensor(pt_m).j
        anti = max(anti, _max_abs(J_mu + J_mu.T), _max_abs(J_m + J_m.T))
        for k in range(3):
            e = Quaternion.basis(k + 1)
            mu = max(mu, _max_abs(J_mu[6:10, 10 + k] - quat_mul(e, pt_mu.q).as_array()))
            m = max(m, _max_abs(J_m[6:10, 10 + k] - quat_mul(pt_m.q, e).as_array()))
        xp = max(xp, _max_abs(J_mu[0:3, 3:6] - np.eye(3)))
    nc = max(1, n // 10)
    leibniz = 0.0
    for _ in range(nc):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        F, G, H = (verify.random_polynomial(rng, Chart.INERTIAL_MU) for _ in range(3))
        lhs = poisson_bracket(F * G, H, pt)
        rhs = F.value(pt) * poisson_bracket(G, H, pt) + G.value(pt) * poisson_bracket(F, H, pt)
        leibniz = max(leibniz, abs(lhs - rhs))
    norm_sq = DynamicVariable(
        lambda z: float(z[6:10] @ z[6:10]),
        lambda z: np.concatenate([np.zeros(6), 2.0 * z[6:10], np.zeros(3)]))
    norm = 0.0
    for _ in range(nc):
        for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
            pt = verify.random_phase_point(rng, chart)
            norm = max(norm, *(abs(poisson_bracket(norm_sq, coordinate(i), pt))
                               for i in range(13)))
    cov = 0.0
    for small in verify._small_q0_flags(rng, n):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU, small)
        cov = max(cov, right_translation_covariance_check(pt, verify.random_unit_quat(rng)))
        if small:
            cov = max(cov, right_translation_covariance_check(pt, Quaternion.identity()))
    return [anti, mu, m, xp, leibniz, norm, cov]


def _jacobi_reference(rng, n):
    """Both chart residuals and the negative control, one point at a time."""
    out = []
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        out.append(max(jacobi_residual(verify.random_phase_point(rng, chart, small))
                       for small in verify._small_q0_flags(rng, n)))
    out.append(max(jacobi_residual(verify.random_phase_point(rng, Chart.INERTIAL_MU),
                                   corrupt=True) for _ in range(min(n, 100))))
    return out


def _poisson_map_reference(rng, n):
    return [max(poisson_map_residual(verify.random_phase_point(rng, Chart.INERTIAL_MU, small))
                for small in verify._small_q0_flags(rng, n))]


def _oracle_reference(rng, n):
    """The four eom_rhs = J grad(H) rows, one state at a time."""
    out = []
    for params in verify._oracle_params():
        H = hamiltonian_variable(params)
        worst = 0.0
        for _ in range(n):
            pt = verify.random_phase_point(rng, Chart.MIXED_M)
            worst = max(worst, _max_abs(eom_rhs(pt, params) - hamiltonian_vector_field(H, pt)))
        out.append(worst)
    return out


def _random_tangent(rng, pt):
    q4 = pt.q.as_array()
    w = rng.standard_normal(4)
    w -= (w @ q4) * q4
    return np.concatenate([w, rng.uniform(-2.0, 2.0, 3)])


def _symplectic_reference(rng, n):
    """The four symplectic residuals, one phase point and its random_polynomial
    variables at a time, through the public per-point functions, drawing from
    ``rng`` as ``symplectic_checks`` does."""
    duality = 0.0
    for _ in range(n):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        F = verify.random_polynomial(rng, Chart.INERTIAL_MU)
        G = verify.random_polynomial(rng, Chart.INERTIAL_MU)
        omega = symplectic_form_eval(pt, hamiltonian_vector_field(F, pt),
                                     hamiltonian_vector_field(G, pt))
        duality = max(duality, abs(omega - poisson_bracket(F, G, pt)))
    anti = 0.0
    for _ in range(n):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        u = _random_tangent(rng, pt)
        anti = max(anti, abs(symplectic_form_eval(pt, u, u)))
    left = 0.0
    for _ in range(n):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        fields = [hamiltonian_vector_field(coordinate(f"mu{k + 1}"), pt) for k in range(3)]
        for k in range(3):
            ek_q = quat_mul(Quaternion.basis(k + 1), pt.q).as_array()
            left = max(left, _max_abs(fields[k][6:10] - ek_q))
            u = np.concatenate([ek_q, 2.0 * np.cross(np.eye(3)[k], pt.mom)])
            left = max(left, abs(liouville_form_eval(pt, u) - pt.mom[k]))
        eta = np.array(fields)[:, 6:10].T
        q0, q1, q2, q3 = pt.q.as_array()
        eta_expect = np.array([[-q1, -q2, -q3], [q0, q3, -q2], [-q3, q0, q1], [q2, -q1, q0]])
        left = max(left, _max_abs(eta - eta_expect))
    orient = 0.0
    for _ in range(n):
        pt = verify.random_phase_point(rng, Chart.INERTIAL_MU)
        F = verify.random_polynomial(rng, Chart.INERTIAL_MU, indices=tuple(range(6, 10)))
        G = verify.random_polynomial(rng, Chart.INERTIAL_MU, indices=tuple(range(6, 10)))
        orient = max(orient, _max_abs(hamiltonian_vector_field(F, pt)[0:10]),
                     abs(poisson_bracket(F, G, pt)))
    return [duality, anti, left, orient]


# (array suite, the residuals a reference reproduces, per-sample reference)
_REFERENCES = [
    (verify.algebra_checks, slice(1, None), _algebra_reference),
    (verify.rotation_checks, slice(None), _rotation_reference),
    (verify.bracket_checks, slice(None), _bracket_reference),
    (verify.jacobi_checks, slice(None), _jacobi_reference),
    (verify.poisson_map_checks, slice(None), _poisson_map_reference),
    (verify.dynamics_oracle_checks, slice(0, 4), _oracle_reference),
    (verify.symplectic_checks, slice(None), _symplectic_reference),
]


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 7), (3, 400)])
def test_array_suites_match_per_sample_reference(seed, n):
    for checks, picked, reference in _REFERENCES:
        got = [r.residual for r in checks(np.random.default_rng(seed), n)[picked]]
        assert got == reference(np.random.default_rng(seed), n), checks.__name__


def test_phase_point_suites_memory_bounded():
    # the phase-point suites work through fixed blocks of points, so at
    # default sizes none of them traces more memory than the algebra suite
    def traced_peak(name):
        tracemalloc.start()
        try:
            verify.run_suite(name, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    limit = traced_peak("algebra")
    for name in ("brackets", "jacobi", "poisson_map", "dynamics_oracle", "symplectic"):
        assert traced_peak(name) <= limit, name
