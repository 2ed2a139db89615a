"""Hamiltonian, equations of motion, integrator and conservation monitors."""

import logging
import math

import numpy as np
import pytest

from qhdyn import (
    BodyParams,
    Chart,
    ChartError,
    DomainError,
    InertiaTensor,
    IntegrationAborted,
    PhasePoint,
    PotentialSpec,
    PreconditionError,
    Quaternion,
    RenormPolicy,
    angular_velocity,
    axis_angle_to_quat,
    conserved_quantities,
    dynamics,
    eom_rhs,
    free,
    hamiltonian_eval,
    hamiltonian_variable,
    hamiltonian_vector_field,
    harmonic,
    hat,
    heavy_top,
    integrate,
    linear_gravity,
    quat_conj,
    quat_mul,
    quat_to_matrix,
    rk4_step,
    rotate_vector,
    spin_kinetic,
)
from qhdyn.verify import random_phase_point

INERTIA = InertiaTensor(1.0, 2.0, 3.0)


def mixed_state(x=(0, 0, 0), p=(0, 0, 0), q=None, M=(0, 0, 0)):
    return PhasePoint(np.asarray(x, float), np.asarray(p, float),
                      q if q is not None else Quaternion.identity(),
                      np.asarray(M, float), Chart.MIXED_M)


def test_inertia_validation():
    with pytest.raises(DomainError):
        InertiaTensor(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        InertiaTensor(1.0, -2.0, 1.0)


def test_inertia_triangle_violation_logs_a_warning(caplog):
    with caplog.at_level(logging.WARNING, logger="qhdyn"):
        InertiaTensor(1.0, 1.0, 3.0)  # violates I1 + I2 >= I3
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "inertia triangle inequality violated: 1.0 + 1.0 < 3.0")]
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="qhdyn"):
        InertiaTensor(1.0, 2.0, 3.0)  # the triangle holds with equality
    assert caplog.records == []


def test_body_params_validation():
    with pytest.raises(DomainError):
        BodyParams(0.0, INERTIA, free())


def test_angular_velocity():
    np.testing.assert_array_equal(angular_velocity([2.0, 0.0, 0.0], INERTIA), [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(angular_velocity([0.0, 0.0, 0.0], INERTIA), np.zeros(3))
    M = np.array([1.0, -2.0, 0.5])
    np.testing.assert_allclose(angular_velocity(M, INERTIA),
                               M / (2.0 * INERTIA.as_array()), rtol=1e-15)


def test_angular_velocity_is_the_integrators_bit_for_bit():
    # at q = e0, dq/dt = (0, Omega) / 2 exactly, so 2 dq/dt is the integrator's Omega
    inertia = InertiaTensor(1.3, 2.7, 3.1)
    params = BodyParams(1.0, inertia, free())
    M, moments = np.random.default_rng(7).uniform(-3.0, 3.0, (3, 300)), inertia.as_array()[:, None]
    assert (M / (2.0 * moments) != M * (0.5 / moments)).any()
    omega = angular_velocity(M, inertia)
    assert omega.shape == (3, 300)
    for m, o in zip(M.T, omega.T):
        point = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(), m, Chart.MIXED_M)
        assert (2.0 * eom_rhs(point, params)[7:10]).tobytes() == o.tobytes()
        assert angular_velocity(m, inertia).tobytes() == o.tobytes()


def test_angular_velocity_is_energy_gradient():
    rng = np.random.default_rng(41)
    h = 1e-6
    for _ in range(50):
        M = rng.uniform(-2, 2, 3)
        omega = angular_velocity(M, INERTIA)
        for i in range(3):
            dp, dm = M.copy(), M.copy()
            dp[i] += h
            dm[i] -= h
            fd = (spin_kinetic(dp, INERTIA) - spin_kinetic(dm, INERTIA)) / (2 * h)
            assert 2.0 * fd == pytest.approx(omega[i], abs=1e-8)


def test_spin_kinetic_examples():
    assert spin_kinetic([2.0, 0.0, 0.0], InertiaTensor(1.0, 2.0, 3.0)) == 0.5
    state = mixed_state()
    assert hamiltonian_eval(state, BodyParams(1.0, INERTIA, free())) == 0.0


def test_spin_kinetic_halved_momentum_form():
    rng = np.random.default_rng(42)
    inv = 1.0 / INERTIA.as_array()
    for _ in range(100):
        M = rng.uniform(-3, 3, 3)
        pi = M / 2.0
        assert spin_kinetic(M, INERTIA) == pytest.approx(0.5 * float(pi @ (inv * pi)),
                                                         rel=1e-14)


def test_hamiltonian_additivity():
    params = BodyParams(2.0, INERTIA, harmonic(3.0))
    state = mixed_state(x=(1, 0, 0), p=(2, 0, 0), M=(2, 0, 0))
    expect = 4.0 / (2 * 2.0) + 0.5 + 0.5 * 3.0
    assert hamiltonian_eval(state, params) == pytest.approx(expect, rel=1e-15)


def test_user_potential_energy_is_one_python_float():
    # a value returning a numpy scalar gives the same Python float through every energy path
    pot = PotentialSpec("float64", lambda x, q4: np.float64(0.3) * x[0] + np.float64(q4[1]) ** 3,
                        lambda x, q4: (0.3, 0.0, 0.0), lambda x, q4: (0.0, 3 * q4[1] ** 2, 0.0, 0.0))
    params = BodyParams(1.5, INERTIA, pot)
    state = mixed_state(x=(0.7, -0.2, 0.1), p=(0.3, 0.1, -0.4),
                        q=axis_angle_to_quat([1.0, 2.0, 0.5], 0.9), M=(0.2, -1.1, 0.6))
    h = hamiltonian_eval(state, params)
    e = conserved_quantities(state, params).energy
    e0 = integrate(state, params, 1e-3, 2).energy[0]
    assert type(h) is float and type(e) is float
    assert h.hex() == e.hex() == float(e0).hex()


@pytest.mark.parametrize("pot", [free(), linear_gravity(1.0, 9.81),
                                 heavy_top(1.0, 9.81, 1.0), harmonic(2.0)])
def test_potential_gradients_match_fd(pot):
    rng = np.random.default_rng(43)
    for _ in range(20):
        x = rng.uniform(-2, 2, 3)
        q4 = rng.standard_normal(4)
        q4 /= np.linalg.norm(q4)
        gx, gq = pot.gradient_x(x, q4), pot.gradient_q(x, q4)
        assert gx.dtype == float and gx.shape == (3,)
        assert gq.dtype == float and gq.shape == (4,)
        bare = PotentialSpec(pot.name, pot.value)
        np.testing.assert_allclose(gx, bare.gradient_x(x, q4), rtol=1e-6, atol=1e-8)
        np.testing.assert_allclose(gq, bare.gradient_q(x, q4), rtol=1e-6, atol=1e-8)


def test_heavy_top_potential_at_identity():
    pot = heavy_top(2.0, 9.81, 0.5)
    mgl = 2.0 * 9.81 * 0.5
    q4 = np.array([1.0, 0.0, 0.0, 0.0])
    assert pot.value(np.zeros(3), q4) == mgl
    np.testing.assert_array_equal(pot.gradient_q(np.zeros(3), q4), [2 * mgl, 0.0, 0.0, 0.0])


def test_heavy_top_matches_rotation_entry():
    # V/mgl equals the (3,3) entry of the rotation matrix
    rng = np.random.default_rng(44)
    pot = heavy_top(1.0, 1.0, 1.0)
    for _ in range(50):
        a = rng.standard_normal(4)
        a /= np.linalg.norm(a)
        q = Quaternion.from_array(a)
        assert pot.value(np.zeros(3), a) == pytest.approx(quat_to_matrix(q)[2, 2], abs=1e-14)


def test_linear_gravity_value():
    pot = linear_gravity(2.0, 9.81)
    assert pot.value(np.array([0.0, 0.0, 3.0]), np.array([1.0, 0, 0, 0])) == \
        pytest.approx(2.0 * 9.81 * 3.0)
    np.testing.assert_array_equal(pot.gradient_q(np.zeros(3), np.array([1.0, 0, 0, 0])),
                                  np.zeros(4))


def test_eom_free_top_form():
    rng = np.random.default_rng(45)
    params = BodyParams(1.5, INERTIA, free())
    for _ in range(30):
        state = random_phase_point(rng, Chart.MIXED_M)
        out = eom_rhs(state, params)
        omega = angular_velocity(state.mom, INERTIA)
        np.testing.assert_allclose(out[0:3], state.p / 1.5, rtol=1e-15)
        np.testing.assert_array_equal(out[3:6], np.zeros(3))
        np.testing.assert_allclose(out[10:13], -np.cross(omega, state.mom), atol=1e-14)
        qdot = 0.5 * quat_mul(state.q, Quaternion.pure(omega)).as_array()
        np.testing.assert_allclose(out[6:10], qdot, atol=1e-15)


def test_eom_equilibrium():
    params = BodyParams(1.0, INERTIA, free())
    out = eom_rhs(mixed_state(), params)
    assert isinstance(out, np.ndarray) and out.dtype == float
    np.testing.assert_array_equal(out, np.zeros(13))


def test_eom_agrees_with_bracket_engine():
    rng = np.random.default_rng(46)
    for pot in (free(), linear_gravity(1.0, 9.81), heavy_top(1.0, 9.81, 1.0), harmonic(1.0)):
        params = BodyParams(1.0, INERTIA, pot)
        H = hamiltonian_variable(params)
        for _ in range(50):
            state = random_phase_point(rng, Chart.MIXED_M)
            field = hamiltonian_vector_field(H, state)
            np.testing.assert_allclose(eom_rhs(state, params), field, atol=1e-9)


def test_eom_heavy_top_torque_at_identity():
    # grad_q V is along e0 at q = e0, so the torque Im(q^-1 grad V) vanishes
    params = BodyParams(1.0, INERTIA, heavy_top(1.0, 9.81, 1.0))
    state = mixed_state(M=(1, 2, 3))
    out = eom_rhs(state, params)
    omega = angular_velocity(state.mom, INERTIA)
    np.testing.assert_allclose(out[10:13], -np.cross(omega, state.mom), atol=1e-14)
    # tilted states do feel a torque
    tilted = mixed_state(q=axis_angle_to_quat([1, 0, 0], 0.5), M=(1, 2, 3))
    torque = eom_rhs(tilted, params)[10:13] + np.cross(omega, np.array([1.0, 2.0, 3.0]))
    assert np.linalg.norm(torque) > 1.0


def test_eom_preconditions():
    params = BodyParams(1.0, INERTIA, free())
    bad_q = PhasePoint(np.zeros(3), np.zeros(3), Quaternion(1.0, (1e-3, 0, 0)),
                       np.zeros(3), Chart.MIXED_M)
    with pytest.raises(PreconditionError):
        eom_rhs(bad_q, params)
    wrong_chart = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(),
                             np.zeros(3), Chart.INERTIAL_MU)
    with pytest.raises(ChartError):
        eom_rhs(wrong_chart, params)


def test_rk4_single_step_norm_drift():
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1, 2, 3))
    nxt = rk4_step(state, params, 1e-3)
    assert abs(math.sqrt(float(nxt.q.as_array() @ nxt.q.as_array())) - 1.0) <= 1e-12


def test_constant_trajectory_at_rest():
    params = BodyParams(1.0, INERTIA, free())
    traj = integrate(mixed_state(x=(1, 2, 3)), params, 1e-2, 100)
    np.testing.assert_array_equal(traj.states[-1], traj.states[0])
    assert len(traj) == 101
    assert np.all(np.diff(traj.times) > 0)


def test_rk4_fourth_order_convergence():
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1, 2, 3))

    def final_M(h, n):
        tr = integrate(state, params, h, n, renorm_policy=RenormPolicy.none(),
                       sample_stride=n)
        return tr.states[-1][10:13]

    ref = final_M(5e-4, 4000)  # much finer reference over the same interval
    e1 = np.linalg.norm(final_M(0.02, 100) - ref)
    e2 = np.linalg.norm(final_M(0.01, 200) - ref)
    assert 12.0 <= e1 / e2 <= 20.0


def test_symmetric_top_precession():
    inertia = InertiaTensor(2.0, 2.0, 1.0)
    params = BodyParams(1.0, inertia, free())
    M0 = np.array([1.0, 0.5, 3.0])
    state = mixed_state(M=M0)
    rate = M0[2] * (1.0 / (2 * inertia.i3) - 1.0 / (2 * inertia.i1))
    traj = integrate(state, params, 1e-3, 1000, sample_stride=1)
    worst = 0.0
    for i in range(len(traj)):
        t = traj.times[i]
        c = (M0[0] + 1j * M0[1]) * np.exp(-1j * rate * t)
        worst = max(worst,
                    abs(traj.states[i][10] - c.real),
                    abs(traj.states[i][11] - c.imag),
                    abs(traj.states[i][12] - M0[2]))
    assert worst <= 1e-9


def _finite_x_only(x, q4):
    """grad_x of V = 1e308 x1, which rejects a non-finite x as a user potential may."""
    if not all(map(math.isfinite, x)):
        raise ValueError(f"non-finite position {x}")
    return (1e308, 0.0, 0.0)


# potential, initial state, h, the step at which the per-step loop (each state checked)
# found a non-finite state, and the (stride, policy) runs that it stopped otherwise; the
# one-guard windows must report the same step and message
ABORTS = {
    "harmonic": (harmonic(1.0), dict(x=(1, 0, 0), M=(1, 2, 3)), 1e280, 1, {}),
    # step 1 is non-finite only at its end; a step 2 would pass a non-finite x to grad_x
    "raises_on_nonfinite_x": (PotentialSpec("finite_x_only", lambda x, q4: 1e308 * x[0],
                                            _finite_x_only, lambda x, q4: (0.0,) * 4),
                              dict(M=(1, 2, 3)), 1.0, 1, {}),
    # the state at step 1 is finite and its monitor row is not, unless a renorm shrinks q;
    # only stride 1 records that row, and step 2 is non-finite
    "free_fast": (free(), dict(p=(1e150, 0, 0), M=(1, 2, 3)), 1e10, 2,
                  {(1, "none"): (1, "non-finite energy or momentum at step 1")}),
}


@pytest.mark.parametrize("case", ABORTS)
@pytest.mark.parametrize("stride", [1, 3, 10])
@pytest.mark.parametrize("policy", ["none", "every_step", "threshold"])
def test_integration_abort_reports_step(case, stride, policy):
    pot, state, h, step, other = ABORTS[case]
    step, message = other.get((stride, policy),
                              (step, f"non-finite state encountered at step {step}"))
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationAborted) as err:
            integrate(mixed_state(**state), BodyParams(1.0, INERTIA, pot), h, 10,
                      RenormPolicy(policy), stride)
    assert (err.value.step, str(err.value)) == (step, message)


def test_integration_overflow_aborts():
    # p^2 overflows in the energy monitor although the state itself is finite
    params = BodyParams(1.0, INERTIA, free())
    with pytest.raises(IntegrationAborted) as err:
        integrate(mixed_state(p=(1e200, 0, 0)), params, 1e-3, 10)
    assert err.value.step == 0


def nan_beyond(x_max):
    """Potential that is 0 for x1 <= x_max and NaN beyond, with zero gradients."""
    return PotentialSpec("nan_beyond",
                         value=lambda x, q4: 0.0 if x[0] <= x_max else math.nan,
                         grad_x=lambda x, q4: (0.0, 0.0, 0.0),
                         grad_q=lambda x, q4: (0.0, 0.0, 0.0, 0.0))


@pytest.mark.parametrize("x_max, stride, step", [(-1.0, 1, 0), (0.0055, 4, 8)])
def test_nan_potential_value_aborts(x_max, stride, step):
    # x1 = t moves past x_max at step 6; with stride 4 the first recorded
    # non-finite energy is at step 8
    params = BodyParams(1.0, INERTIA, nan_beyond(x_max))
    with pytest.raises(IntegrationAborted) as err:
        integrate(mixed_state(p=(1, 0, 0), M=(1, 2, 3)), params, 1e-3, 20,
                  sample_stride=stride)
    assert err.value.step == step


def test_value_only_heavy_top_matches_analytic():
    # Both gradients fall back to central differences.  V is quadratic in q,
    # so the differences carry no truncation error, only rounding of order
    # eps |V| / cbrt(eps) ~ 5e-10 per gradient; 1e-8 over 1000 steps of 1e-3
    # leaves a wide margin (measured: 3e-11).
    top = heavy_top(1.0, 9.81, 1.0)
    value_only = PotentialSpec("value_only", top.value)
    assert not (value_only.analytic_grad_x or value_only.analytic_grad_q)
    state = mixed_state(q=axis_angle_to_quat([1, 0, 0], 0.4), M=(0.2, 0.3, 5.0))
    ref = integrate(state, BodyParams(1.0, INERTIA, top), 1e-3, 1000, sample_stride=100)
    fd = integrate(state, BodyParams(1.0, INERTIA, value_only), 1e-3, 1000,
                   sample_stride=100)
    np.testing.assert_allclose(fd.states, ref.states, rtol=0, atol=1e-8)
    np.testing.assert_allclose(fd.energy, ref.energy, rtol=0, atol=1e-8)


def _no_step(*args):
    raise RuntimeError("stepped")


@pytest.mark.parametrize("analytic_x", [True, False])
@pytest.mark.parametrize("analytic_q", [True, False])
def test_finite_difference_fallback_logs_once_before_stepping(caplog, monkeypatch, analytic_x,
                                                              analytic_q):
    top = heavy_top(1.0, 9.81, 1.0)
    pot = PotentialSpec("partial", top.value, top.gradient_x if analytic_x else None,
                        top.gradient_q if analytic_q else None)
    params = BodyParams(1.0, INERTIA, pot)
    state = mixed_state(q=axis_angle_to_quat([1, 0, 0], 0.4), M=(0.2, 0.3, 5.0))
    expect = [] if analytic_x and analytic_q else [
        "potential 'partial' steps on finite-difference gradients, several times slower "
        f"(analytic grad_x {analytic_x}, grad_q {analytic_q})"]
    with caplog.at_level(logging.INFO, logger="qhdyn"):
        integrate(state, params, 1e-3, 20, sample_stride=5)
        assert [r.getMessage() for r in caplog.records] == expect
        caplog.clear()
        # the window is built only to replay a failing block, so a run that succeeds never
        # builds it; the block is built after the log line
        monkeypatch.setattr("qhdyn.dynamics._make_step", _no_step)
        integrate(state, params, 1e-3, 20)
        assert [r.getMessage() for r in caplog.records] == expect
        caplog.clear()
        monkeypatch.setattr("qhdyn.dynamics._make_block", _no_step)
        with pytest.raises(RuntimeError, match="stepped"):
            integrate(state, params, 1e-3, 20)
        assert [r.getMessage() for r in caplog.records] == expect


def test_renorm_policies():
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1, 2, 3))
    none = integrate(state, params, 1e-3, 2000, renorm_policy=RenormPolicy.none())
    every = integrate(state, params, 1e-3, 2000, renorm_policy=RenormPolicy.every_step())
    thresh = integrate(state, params, 1e-3, 2000, renorm_policy=RenormPolicy.threshold(1e-9))
    assert np.max(np.abs(every.qnorm - 1.0)) <= 1e-15
    assert np.max(np.abs(thresh.qnorm - 1.0)) <= 1e-9 + 1e-12
    assert np.max(np.abs(none.qnorm - 1.0)) <= 1e-6
    with pytest.raises(DomainError):
        RenormPolicy.threshold(0.0)
    with pytest.raises(DomainError):
        RenormPolicy("sometimes")


@pytest.mark.parametrize("eps", [0.0, -1.0, math.nan, math.inf])
def test_renorm_threshold_rejects_bad_eps(eps):
    with pytest.raises(DomainError):
        RenormPolicy("threshold", eps)
    with pytest.raises(DomainError):
        RenormPolicy.threshold(eps)


# Each bad value but n_steps = 0 also makes the buffer size
# 1 + ceil(n_steps / sample_stride) fail (too large, negative or a division by
# zero), so sizing the buffers before the checks raises something else.
@pytest.mark.parametrize("h, n_steps, stride", [
    (0.0, 10**18, 1), (-1e-3, 10**18, 1), (math.nan, 10**18, 1),
    (1e-3, 0, 1), (1e-3, -10**18, 1), (1e-3, 10, 0), (1e-3, 10**18, -1),
])
def test_integrate_checks_arguments_before_sizing_buffers(h, n_steps, stride):
    with pytest.raises(DomainError):
        integrate(mixed_state(M=(1, 2, 3)), BodyParams(1.0, INERTIA, free()), h, n_steps,
                  sample_stride=stride)


@pytest.mark.parametrize("h", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_bad_step_size_raises_before_any_step(h):
    # an infinite h passed the old test h > 0 and failed only in the step it made
    calls = []

    def value(x, q4):
        calls.append(x)
        return 0.0

    params = BodyParams(1.0, INERTIA, PotentialSpec("counting", value))
    for run in (lambda: integrate(mixed_state(M=(1, 2, 3)), params, h, 10),
                lambda: rk4_step(mixed_state(M=(1, 2, 3)), params, h)):
        with pytest.raises(DomainError, match="step size h must be positive and finite"):
            run()
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda: rk4_step(mixed_state(), BodyParams(1.0, INERTIA, free()), 0.0),
    lambda: rk4_step(mixed_state(), BodyParams(1.0, INERTIA, free()), -1e-3),
    lambda: heavy_top(1.0, 9.81, -1.0),
    lambda: harmonic(-1.0),
], ids=["rk4_step h = 0", "rk4_step h < 0", "heavy_top l < 0", "harmonic k < 0"])
def test_bad_arguments_raise_domain_error(call):
    with pytest.raises(DomainError):
        call()


def test_trajectory_point_is_a_read_only_copy():
    traj = integrate(mixed_state(M=(1, 2, 3)), BodyParams(1.0, INERTIA, free()), 1e-3, 4)
    states = traj.states.copy()
    with pytest.raises(ValueError):
        traj.point(2).mom[0] = 1e9
    np.testing.assert_array_equal(traj.states, states)


def test_sampling_stride(monkeypatch):
    # one compiled block call per ROWS_PER_BATCH samples, given the steps before each sample;
    # the window, compiled for the run's policy, runs only to replay a block that failed: once
    # per step up to the first failing one
    blocks, windows = [], []
    make_block, make_step = dynamics._make_block, dynamics._make_step

    def counted_block(params, mode):
        block = make_block(params, mode)

        def run(z, h, step, ks, *args):
            blocks.append(list(ks))
            return block(z, h, step, ks, *args)
        return run

    def counted_step(params, mode):
        window = make_step(params, mode)

        def step(z, h, eps):
            windows.append(mode)
            return window(z, h, eps)
        return step

    monkeypatch.setattr(dynamics, "_make_block", counted_block)
    monkeypatch.setattr(dynamics, "_make_step", counted_step)
    assert dynamics.ROWS_PER_BATCH == 64
    params = BodyParams(1.0, INERTIA, free())
    integrate(mixed_state(M=(1, 2, 3)), params, 1e-3, 10_000, sample_stride=10)
    # 1001 samples: step 0 and 63 strides, 14 blocks of 64 strides, and 41 strides
    assert blocks == [[0] + [10] * 63, *[[10] * 64] * 14, [10] * 41] and windows == []
    blocks.clear()
    with pytest.raises(IntegrationAborted):  # steps 1 and 2 replayed, step 2 fails
        integrate(mixed_state(p=(1e150, 0, 0), M=(1, 2, 3)), params, 1e10, 100,
                  sample_stride=10)
    assert blocks == [[0] + [10] * 10] and windows == ["threshold"] * 2
    blocks.clear()
    windows.clear()
    traj = integrate(mixed_state(M=(1, 2, 3)), params, 1e-3, 105, sample_stride=10)
    assert blocks == [[0] + [10] * 10 + [5]] and windows == []
    # samples at 0, 10, ..., 100 and the final step 105
    assert len(traj) == 12
    assert traj.times[-1] == pytest.approx(0.105)
    pt = traj.point(3)
    assert pt.chart is Chart.MIXED_M
    rec = traj.monitor(3)
    assert math.isfinite(rec.energy)


def test_conserved_quantities_identity_orientation():
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1, 2, 3))
    rec = conserved_quantities(state, params)
    assert isinstance(rec.pi_spatial, np.ndarray) and rec.pi_spatial.dtype == float
    np.testing.assert_allclose(rec.pi_spatial, np.array([0.5, 1.0, 1.5]), atol=1e-15)
    assert rec.qnorm == 1.0
    assert rec.mom_norm == pytest.approx(math.sqrt(14.0), rel=1e-15)


def test_conserved_quantities_rotated_state():
    params = BodyParams(1.0, INERTIA, free())
    q = axis_angle_to_quat([0.3, -1.0, 0.2], 1.1)
    M = np.array([1.0, -2.0, 0.5])
    state = mixed_state(q=q, M=M)
    rec = conserved_quantities(state, params)
    np.testing.assert_allclose(rec.pi_spatial, 0.5 * rotate_vector(q, M), atol=1e-14)


def test_momentum_norm_invariant_per_step():
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1, 2, 3))
    for _ in range(100):
        nxt = rk4_step(state, params, 1e-3)
        assert abs(np.linalg.norm(nxt.mom) - np.linalg.norm(state.mom)) <= 1e-10
        state = nxt


def test_free_top_conservation_short_run():
    params = BodyParams(1.0, INERTIA, free())
    traj = integrate(mixed_state(M=(1, 2, 3)), params, 1e-3, 2000,
                     renorm_policy=RenormPolicy.none())
    h0 = traj.energy[0]
    assert np.max(np.abs(traj.energy - h0)) / abs(h0) <= 1e-8
    pi0 = traj.pi_spatial[0]
    assert np.max(np.abs(traj.pi_spatial - pi0)) <= 1e-8


def test_matrix_propagation_cross_check():
    # co-integrate the rotation matrix with dQ/dt = hat(2 vec(dq/dt q^-1)) Q
    params = BodyParams(1.0, INERTIA, free())
    state = mixed_state(M=(1.0, 2.0, 3.0), q=axis_angle_to_quat([1, 1, 0], 0.3))
    from qhdyn.dynamics import _make_rhs
    rhs13 = _make_rhs(params)

    def rhs(y):
        z = y[:13]
        Q = y[13:].reshape(3, 3)
        dz = rhs13(z)
        dq = Quaternion.from_array(dz[6:10])
        qinv = quat_conj(Quaternion.from_array(z[6:10]))
        w = quat_mul(dq, qinv)
        dQ = hat(2.0 * np.array([w.q1, w.q2, w.q3])) @ Q
        return np.concatenate([dz, dQ.ravel()])

    h = 1e-3
    y = np.concatenate([state.coords(), quat_to_matrix(state.q).ravel()])
    for _ in range(1000):
        k1 = rhs(y)
        k2 = rhs(y + 0.5 * h * k1)
        k3 = rhs(y + 0.5 * h * k2)
        k4 = rhs(y + h * k3)
        y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    q_final = Quaternion.from_array(y[6:10])
    np.testing.assert_allclose(y[13:].reshape(3, 3), quat_to_matrix(q_final), atol=1e-7)


def test_hamiltonian_variable_gradient_matches_fd():
    rng = np.random.default_rng(47)
    params = BodyParams(1.3, INERTIA, heavy_top(1.0, 9.81, 1.0))
    H = hamiltonian_variable(params)
    from qhdyn.poisson import DynamicVariable
    bare = DynamicVariable(H.fn)
    for _ in range(10):
        z = random_phase_point(rng, Chart.MIXED_M).coords()
        np.testing.assert_allclose(H.gradient(z), bare.gradient(z), rtol=1e-6, atol=1e-7)
