"""Verification-suite runner: determinism, registry, sampling."""

import numpy as np
import pytest

from qhdyn import verify
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


def test_corrupt_flag_breaks_jacobi():
    results = verify.run_suite("jacobi", seed=2, n_points=25, corrupt=True)
    assert any(not r.passed for r in results)


def test_check_inventory_per_suite():
    # the check counts the benchmark's verify workload expects
    expected = {"algebra": 12, "brackets": 7, "jacobi": 3, "poisson_map": 1,
                "maurer_cartan": 2, "symplectic": 4, "dynamics_oracle": 6}
    assert set(expected) == set(verify.SUITES)
    for name, count in expected.items():
        assert len(verify.run_suite(name, seed=3, n_points=5)) == count, name
