"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (visible with ``pytest -s``) with the
worst residual and the wall time, and asserts both the tolerance and the
runtime budget.
"""

import json
import time

import numpy as np

from qhdyn import (
    BodyParams,
    Chart,
    InertiaTensor,
    PhasePoint,
    Quaternion,
    RenormPolicy,
    axis_angle_to_quat,
    free,
    heavy_top,
    integrate,
)
from qhdyn import verify
from qhdyn.cli import main


def _report(num, name, ok, elapsed, budget, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name:<28} {status}  ({elapsed:.2f} s / {budget:.0f} s)  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f} s >= {budget} s"


def _suite_detail(results):
    worst = max((r for r in results if r.mode == "max"), key=lambda r: r.residual / max(r.tolerance, 1e-300) if r.tolerance else r.residual)
    return f"worst residual {worst.residual:.2e} (tol {worst.tolerance:g}, {worst.name})"


def test_criterion_01_algebra_identities():
    rng = np.random.default_rng(1)
    t0 = time.perf_counter()
    results = verify.algebra_checks(rng, 10000)
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in results) and all(
        r.residual <= max(r.tolerance, 1e-13) for r in results)
    _report(1, "quaternion algebra", ok, elapsed, 1.0, _suite_detail(results))


def test_criterion_02_rotation_suite():
    rng = np.random.default_rng(2)
    t0 = time.perf_counter()
    results = verify.rotation_checks(rng, 10000)
    elapsed = time.perf_counter() - t0
    _report(2, "rotation homomorphism", all(r.passed for r in results), elapsed, 2.0,
            _suite_detail(results))


def test_criterion_03_maurer_cartan():
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    results = verify.maurer_cartan_checks(rng, 100)
    elapsed = time.perf_counter() - t0
    residual, ratio = results[0], results[1]
    ok = residual.passed and residual.tolerance == 1e-7 and ratio.passed
    detail = (f"max residual {residual.residual:.2e} (tol 1e-7), "
              f"ratio within {ratio.residual:.2e} of 4")
    _report(3, "derivative identity", ok, elapsed, 2.0, detail)


def test_criterion_04_jacobi_identity():
    rng = np.random.default_rng(4)
    t0 = time.perf_counter()
    results = verify.jacobi_checks(rng, 1000)
    elapsed = time.perf_counter() - t0
    charts = [r for r in results if r.mode == "max"]
    control = [r for r in results if r.mode == "min"][0]
    ok = (all(r.passed and r.tolerance == 1e-12 for r in charts)
          and control.passed and control.tolerance == 0.1)
    detail = (f"max residual {max(r.residual for r in charts):.2e} (tol 1e-12), "
              f"negative control {control.residual:.2f} > 0.1")
    _report(4, "Jacobi identity", ok, elapsed, 2.0, detail)


def test_criterion_05_poisson_map():
    rng = np.random.default_rng(5)
    t0 = time.perf_counter()
    results = verify.poisson_map_checks(rng, 1000)
    elapsed = time.perf_counter() - t0
    r = results[0]
    ok = r.passed and r.tolerance == 1e-11
    _report(5, "Poisson map", ok, elapsed, 2.0,
            f"max residual {r.residual:.2e} (tol 1e-11)")


def test_criterion_06_symplectic_duality():
    rng = np.random.default_rng(6)
    t0 = time.perf_counter()
    results = verify.symplectic_checks(rng, 100)
    elapsed = time.perf_counter() - t0
    duality = results[0]
    ok = all(r.passed for r in results) and duality.tolerance == 1e-9
    _report(6, "symplectic duality", ok, elapsed, 2.0,
            f"duality residual {duality.residual:.2e} (tol 1e-9)")


def test_criterion_07_dynamics_oracle():
    rng = np.random.default_rng(7)
    t0 = time.perf_counter()
    results = verify.dynamics_oracle_checks(rng, 1000)
    elapsed = time.perf_counter() - t0
    oracle_rows = [r for r in results if r.name.startswith("eom_rhs")]
    ok = (len(oracle_rows) == 4
          and all(r.passed and r.tolerance == 1e-9 for r in oracle_rows)
          and all(r.passed for r in results))
    _report(7, "equations-of-motion oracle", ok, elapsed, 2.0, _suite_detail(results))


def test_criterion_08_free_top_conservation():
    params = BodyParams(1.0, InertiaTensor(1.0, 2.0, 3.0), free())
    state = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(),
                       np.array([1.0, 2.0, 3.0]), Chart.MIXED_M)
    t0 = time.perf_counter()
    plain = integrate(state, params, 1e-3, 10000, renorm_policy=RenormPolicy.none())
    renorm = integrate(state, params, 1e-3, 10000, renorm_policy=RenormPolicy.every_step())
    elapsed = time.perf_counter() - t0

    h_rel = float(np.max(np.abs(plain.energy - plain.energy[0])) / abs(plain.energy[0]))
    m_rel = float(np.max(np.abs(plain.mom_norm - plain.mom_norm[0])) / plain.mom_norm[0])
    pi0 = plain.pi_spatial[0]
    pi_rel = float(np.max(np.max(np.abs(plain.pi_spatial - pi0), axis=0) / np.abs(pi0)))
    q_plain = float(np.max(np.abs(plain.qnorm - 1.0)))
    q_renorm = float(np.max(np.abs(renorm.qnorm - 1.0)))
    ok = (h_rel <= 1e-8 and m_rel <= 1e-9 and pi_rel <= 1e-8
          and q_plain <= 1e-6 and q_renorm <= 1e-12)
    detail = (f"H {h_rel:.1e}<=1e-8, |M| {m_rel:.1e}<=1e-9, pi {pi_rel:.1e}<=1e-8, "
              f"|q| {q_plain:.1e}<=1e-6 (none) {q_renorm:.1e}<=1e-12 (every step)")
    _report(8, "free-top conservation", ok, elapsed, 5.0, detail)


def test_criterion_09_symmetric_top_rate():
    inertia = InertiaTensor(2.0, 2.0, 1.0)
    params = BodyParams(1.0, inertia, free())
    M0 = np.array([1.0, 0.5, 3.0])
    state = PhasePoint(np.zeros(3), np.zeros(3), Quaternion.identity(), M0, Chart.MIXED_M)
    # closed form: (M1 + i M2)(t) = (M1 + i M2)(0) exp(-i w t), M3 constant,
    # with w = M3 (1/(2 I3) - 1/(2 I1))
    rate = M0[2] * (1.0 / (2 * inertia.i3) - 1.0 / (2 * inertia.i1))

    t0 = time.perf_counter()
    traj = integrate(state, params, 1e-3, 1000, sample_stride=1)
    c0 = traj.states[0][10] + 1j * traj.states[0][11]
    worst = 0.0
    for i in range(len(traj)):
        c = c0 * np.exp(-1j * rate * traj.times[i])
        worst = max(worst,
                    abs(traj.states[i][10] - c.real) / abs(c0),
                    abs(traj.states[i][11] - c.imag) / abs(c0),
                    abs(traj.states[i][12] - M0[2]) / M0[2])
    cT = traj.states[-1][10] + 1j * traj.states[-1][11]
    measured = -np.angle(cT / c0) / traj.times[-1]

    # one-time validation of the closed form against a hundredfold-finer run
    ref = integrate(state, params, 1e-5, 20000, sample_stride=20000)
    cR = ref.states[-1][10] + 1j * ref.states[-1][11]
    ref_rate = -np.angle(cR / c0) / ref.times[-1]
    elapsed = time.perf_counter() - t0

    rate_err = abs(measured - rate) / abs(rate)
    ref_err = abs(ref_rate - rate) / abs(rate)
    ok = worst <= 1e-6 and rate_err <= 1e-6 and ref_err <= 1e-8
    detail = (f"trajectory vs closed form {worst:.1e}<=1e-6, rate err {rate_err:.1e}, "
              f"h/100 reference err {ref_err:.1e}")
    _report(9, "symmetric-top precession", ok, elapsed, 5.0, detail)


def test_criterion_10_heavy_top_conservation():
    params = BodyParams(1.0, InertiaTensor(1.0, 2.0, 3.0), heavy_top(1.0, 9.81, 1.0))
    state = PhasePoint(np.zeros(3), np.zeros(3), axis_angle_to_quat([1, 0, 0], 0.4),
                       np.array([0.2, 0.3, 5.0]), Chart.MIXED_M)
    t0 = time.perf_counter()
    traj = integrate(state, params, 1e-3, 10000)
    elapsed = time.perf_counter() - t0
    h_rel = float(np.max(np.abs(traj.energy - traj.energy[0])) / abs(traj.energy[0]))
    pi3 = traj.pi_spatial[:, 2]
    pi3_rel = float(np.max(np.abs(pi3 - pi3[0])) / abs(pi3[0]))
    ok = h_rel <= 1e-7 and pi3_rel <= 1e-7
    _report(10, "heavy-top conservation", ok, elapsed, 5.0,
            f"H {h_rel:.1e}<=1e-7, pi3 {pi3_rel:.1e}<=1e-7")


def test_criterion_11_cli_determinism(tmp_path):
    cfg = {
        "body": {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]},
        "potential": {"type": "free"},
        "initial": {"x": [0, 0, 0], "p": [0, 0, 0], "q": [1, 0, 0, 0], "M": [1, 2, 3]},
        "integrator": {"h": 1e-3, "n_steps": 1000, "renorm_policy": "threshold",
                       "renorm_eps": 1e-9, "sample_stride": 5},
        "output": {"csv": str(tmp_path / "a.csv"), "summary": str(tmp_path / "a.json")},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    t0 = time.perf_counter()
    assert main(["simulate", str(cfg_path)]) == 0
    first = (tmp_path / "a.csv").read_bytes()
    assert main(["simulate", str(cfg_path)]) == 0
    second = (tmp_path / "a.csv").read_bytes()
    elapsed = time.perf_counter() - t0
    _report(11, "CLI determinism", first == second, elapsed, 10.0,
            f"{len(first)} bytes, identical={first == second}")
