"""Per-call layer timings at fixed, seeded inputs, through public functions.

Every case calls one public qhdyn function with inputs built once from a
fixed seed, independent of the workload seed, so the numbers compare across
workloads and commits.  ``REFERENCE_US`` holds the layer table measured with
plain ``timeit`` when the benchmark was defined (ROADMAP item 1); the private
``_rk4`` and ``_monitor_row`` rows there correspond to the public
``rk4_step`` and ``conserved_quantities`` timed here, which add argument
checks and PhasePoint conversion.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

import workloads

MICRO_SEED = 20150810
CSV_ROWS = 1001

REFERENCE_US = {
    "quaternion.quat_mul_us": 1.8,
    "so3.quat_to_matrix_us": 4.5,
    "dynamics.eom_rhs_us": 19.0,
    "dynamics.rk4_step_us": 64.0,
    "dynamics.conserved_quantities_us": 9.3,
    "poisson.structure_tensor_us": 22.5,
    "poisson.poisson_bracket_us": 81.0,
    "poisson.jacobi_residual_us": 78.0,
    "poisson.poisson_map_residual_us": 469.0,
}


def build_cases(qh, tmp: Path) -> dict:
    """Zero-argument callables keyed by metric name, and the calls each makes."""
    rng = np.random.default_rng(MICRO_SEED)
    a = qh.Quaternion.from_array(rng.standard_normal(4))
    b = qh.Quaternion.from_array(rng.standard_normal(4))
    unit = qh.quat_normalize(a)
    vec = rng.standard_normal(3)
    rot = qh.quat_to_matrix(unit)
    pt_mu = qh.verify.random_phase_point(rng, qh.Chart.INERTIAL_MU)
    pt_m = qh.verify.random_phase_point(rng, qh.Chart.MIXED_M)
    f = qh.verify.random_polynomial(rng, qh.Chart.INERTIAL_MU)
    g = qh.verify.random_polynomial(rng, qh.Chart.INERTIAL_MU)
    inertia = qh.InertiaTensor(1.0, 2.0, 3.0)
    top = qh.BodyParams(1.0, inertia, qh.heavy_top(1.0, 9.81, 1.0))
    ham = qh.hamiltonian_variable(top)
    value_only = qh.PotentialSpec("value_only", value=top.potential.value)
    x, q4 = pt_m.x, pt_m.q.as_array()
    traj = qh.integrate(pt_m, top, 1e-3, CSV_ROWS - 1)
    csv = str(tmp / "micro.csv")
    run = workloads.sim_config(workloads.HEAVY_TOP, 0, False, "threshold", 10)
    run["output"] = {"csv": csv}
    config = tmp / "micro.json"
    config.write_text(json.dumps(run))
    return {
        "quaternion.quat_mul_us": (lambda: qh.quat_mul(a, b), 1),
        "quaternion.rotate_vector_us": (lambda: qh.rotate_vector(unit, vec), 1),
        "so3.quat_to_matrix_us": (lambda: qh.quat_to_matrix(unit), 1),
        "so3.matrix_to_quat_us": (lambda: qh.matrix_to_quat(rot), 1),
        "poisson.structure_tensor_us": (lambda: qh.structure_tensor(pt_mu), 1),
        "poisson.poisson_bracket_us": (lambda: qh.poisson_bracket(f, g, pt_mu), 1),
        "poisson.hamiltonian_vector_field_us": (lambda: qh.hamiltonian_vector_field(ham, pt_m), 1),
        "poisson.jacobi_residual_us": (lambda: qh.jacobi_residual(pt_mu), 1),
        "poisson.poisson_map_residual_us": (lambda: qh.poisson_map_residual(pt_mu), 1),
        "dynamics.eom_rhs_us": (lambda: qh.eom_rhs(pt_m, top), 1),
        "dynamics.rk4_step_us": (lambda: qh.rk4_step(pt_m, top, 1e-3), 1),
        "dynamics.conserved_quantities_us": (lambda: qh.conserved_quantities(pt_m, top), 1),
        "dynamics.fd_gradient_q_us": (lambda: value_only.gradient_q(x, q4), 1),
        "cli.write_csv_row_us": (lambda: qh.cli.write_trajectory_csv(csv, traj), CSV_ROWS),
        "cli.load_config_us": (lambda: qh.cli.load_config(str(config)), 1),
    }


def _per_call_us(fn, per_call: int, budget: float) -> float:
    """Median over batches of the time per call, in microseconds."""
    number = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        dt = time.perf_counter() - t0
        if dt >= 0.005:
            break
        number *= 2
    batches = [dt]
    stop = time.perf_counter() + budget
    while len(batches) < 5 or time.perf_counter() < stop:
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        batches.append(time.perf_counter() - t0)
    return float(np.median(batches)) / (number * per_call) * 1e6


def measure(cases: dict, budget: float) -> dict:
    each = budget / len(cases)
    return {name: _per_call_us(fn, per_call, each) for name, (fn, per_call) in cases.items()}
