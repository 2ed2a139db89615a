"""Liouville and symplectic forms on the rotational phase space."""

import numpy as np
import pytest

from qhdyn import (
    Chart,
    ChartError,
    PhasePoint,
    PreconditionError,
    Quaternion,
    coordinate,
    hamiltonian_vector_field,
    liouville_form_eval,
    momentum_along,
    poisson_bracket,
    quat_mul,
    symplectic_form_eval,
)
from qhdyn.verify import random_phase_point, random_polynomial


def _random_tangent(rng, pt):
    """A random 7-vector whose q-block is tangent to the unit sphere at pt.q."""
    q4 = pt.q.as_array()
    w = rng.standard_normal(4)
    w -= (w @ q4) * q4
    return np.concatenate([w, rng.uniform(-2.0, 2.0, 3)])


@pytest.fixture
def rng():
    return np.random.default_rng(202)


def test_omega_uu_is_zero(rng):
    for _ in range(50):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        u = _random_tangent(rng, pt)
        assert symplectic_form_eval(pt, u, u) == 0.0


def test_canonical_pairing_at_identity():
    # at q = e0, mu = 0 only the dq ^ dmu pairing survives
    pt = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(),
                    np.zeros(3), Chart.INERTIAL_MU)
    e1q = quat_mul(Quaternion.basis(1), pt.q).as_array()
    u = np.concatenate([e1q, np.zeros(3)])
    v = np.concatenate([np.zeros(4), [1.0, 0.0, 0.0]])
    assert symplectic_form_eval(pt, u, v) == pytest.approx(1.0, abs=1e-15)
    assert symplectic_form_eval(pt, v, u) == pytest.approx(-1.0, abs=1e-15)


def test_duality_with_brackets(rng):
    worst = 0.0
    for _ in range(100):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        F = random_polynomial(rng, Chart.INERTIAL_MU)
        G = random_polynomial(rng, Chart.INERTIAL_MU)
        xf = hamiltonian_vector_field(F, pt)
        xg = hamiltonian_vector_field(G, pt)
        worst = max(worst, abs(symplectic_form_eval(pt, xf, xg)
                               - poisson_bracket(F, G, pt)))
    assert worst <= 1e-9


def test_duality_q0_vs_momentum_hamiltonian(rng):
    for _ in range(50):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        xi = rng.standard_normal(3)
        F = coordinate("q0")
        G = momentum_along(xi)
        omega = symplectic_form_eval(pt, hamiltonian_vector_field(F, pt),
                                     hamiltonian_vector_field(G, pt))
        assert omega == pytest.approx(poisson_bracket(F, G, pt), abs=1e-9)


def test_liouville_on_left_invariant_fields(rng):
    for _ in range(50):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        for k in range(3):
            ek = np.zeros(3)
            ek[k] = 1.0
            ek_q = quat_mul(Quaternion.pure(ek), pt.q).as_array()
            u = np.concatenate([ek_q, 2.0 * np.cross(ek, pt.mom)])
            assert liouville_form_eval(pt, u) == pytest.approx(pt.mom[k], abs=1e-13)


def test_tangency_is_enforced(rng):
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    bad = np.concatenate([pt.q.as_array(), np.zeros(3)])  # radial, not tangent
    good = _random_tangent(rng, pt)
    with pytest.raises(PreconditionError):
        symplectic_form_eval(pt, bad, good)
    with pytest.raises(PreconditionError):
        symplectic_form_eval(pt, good, bad)
    with pytest.raises(PreconditionError):
        liouville_form_eval(pt, bad)


def test_forms_require_inertial_chart(rng):
    pt = random_phase_point(rng, Chart.MIXED_M)
    u = _random_tangent(rng, pt)
    with pytest.raises(ChartError):
        symplectic_form_eval(pt, u, u)
    with pytest.raises(ChartError):
        liouville_form_eval(pt, u)


def test_accepts_full_13_vectors(rng):
    pt = random_phase_point(rng, Chart.INERTIAL_MU)
    F = random_polynomial(rng, Chart.INERTIAL_MU)
    G = random_polynomial(rng, Chart.INERTIAL_MU)
    xf = hamiltonian_vector_field(F, pt)   # 13-vector
    xg = hamiltonian_vector_field(G, pt)
    full = symplectic_form_eval(pt, xf, xg)
    sliced = symplectic_form_eval(pt, xf[6:], xg[6:])
    assert full == sliced


def test_orientation_functions_have_momentum_fields(rng):
    for _ in range(30):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        F = random_polynomial(rng, Chart.INERTIAL_MU, indices=tuple(range(6, 10)))
        G = random_polynomial(rng, Chart.INERTIAL_MU, indices=tuple(range(6, 10)))
        field = hamiltonian_vector_field(F, pt)
        np.testing.assert_array_equal(field[0:10], np.zeros(10))
        assert poisson_bracket(F, G, pt) == 0.0


def test_eta_table_fixture(rng):
    # q-block columns of the momentum coordinate fields, stacked by component
    for _ in range(30):
        pt = random_phase_point(rng, Chart.INERTIAL_MU)
        fields = [hamiltonian_vector_field(coordinate(f"mu{k + 1}"), pt) for k in range(3)]
        q0, q1, q2, q3 = pt.q.as_array()
        expect = {
            0: np.array([-q1, -q2, -q3]),
            1: np.array([q0, q3, -q2]),
            2: np.array([-q3, q0, q1]),
            3: np.array([q2, -q1, q0]),
        }
        for mu in range(4):
            got = np.array([fields[k][6 + mu] for k in range(3)])
            np.testing.assert_allclose(got, expect[mu], atol=1e-15)
