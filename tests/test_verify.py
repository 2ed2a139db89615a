"""Verification-suite runner: determinism, registry, sampling."""

import tracemalloc

import numpy as np
import pytest

from qhdyn import (
    DomainError,
    DynamicVariable,
    Quaternion,
    axis_angle_to_quat,
    coordinate,
    eom_rhs,
    hamiltonian_variable,
    hamiltonian_vector_field,
    jacobi_residual,
    liouville_form_eval,
    matrix_to_quat,
    maurer_cartan_residual,
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
from qhdyn import cli, poisson, so3
from qhdyn.poisson import Chart, PhasePoint

import stream_reference as ref


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


# the check counts the benchmark's verify workload expects
CHECKS_PER_SUITE = {"algebra": 12, "brackets": 7, "jacobi": 3, "poisson_map": 1,
                    "maurer_cartan": 2, "symplectic": 4, "dynamics_oracle": 6}


def test_check_inventory_per_suite():
    assert set(CHECKS_PER_SUITE) == set(verify.SUITES)
    for name, count in CHECKS_PER_SUITE.items():
        assert len(verify.run_suite(name, seed=3, n_points=5)) == count, name


@pytest.mark.parametrize("points", [1, 7, 300])
def test_every_suite_passes_at_edge_sizes(capsys, points):
    # one point, a partial block, and more than one block of the sampler
    for name, count in CHECKS_PER_SUITE.items():
        for seed in range(3):
            assert cli.main(["verify", name, "--seed", str(seed), "--points", str(points)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == count + 1 and lines[-1] == f"[{name}] PASS", (name, seed)
            assert all(line.endswith(" PASS") for line in lines), (name, seed)


# (module, kernel, {suite: positions of the checks that read the kernel's output})
NAN_KERNELS = [
    (poisson, "_jacobi_residuals", {"jacobi": [0, 1, 2]}),
    (poisson, "_poisson_map_residuals", {"poisson_map": [0]}),
    (poisson, "_covariance_residuals", {"brackets": [6]}),
    (poisson, "_tensor_components", {"brackets": [0, 1, 2, 3], "jacobi": [0, 1, 2],
                                     "poisson_map": [0]}),
    (verify, "_forms", {"symplectic": [0, 1, 2]}),
    (verify, "_j_grad", {"brackets": [4, 5], "symplectic": [0, 2, 3],
                         "dynamics_oracle": [0, 1, 2, 3]}),
    (so3, "_maurer_cartan_residuals", {"maurer_cartan": [0, 1]}),
]


@pytest.mark.parametrize("module, kernel, reading", NAN_KERNELS,
                         ids=[kernel for _, kernel, _ in NAN_KERNELS])
def test_a_nan_in_any_block_fails_every_check_that_reads_it(capsys, monkeypatch, module, kernel,
                                                             reading):
    # sample 0 of each block NaN, at 600 points (three blocks): a check's
    # residual folds every block, so no block's NaN may be dropped
    original = getattr(module, kernel)
    sample = 0 if kernel == "_tensor_components" else (..., 0)  # (n, 13, 13); the rest end in n

    def with_nan(*args, **kwargs):
        out = original(*args, **kwargs)
        out = np.array(np.broadcast_arrays(*out) if isinstance(out, list) else out, float)
        if out.size:
            out[sample] = np.nan
        return out

    monkeypatch.setattr(module, kernel, with_nan)
    for suite, picked in reading.items():
        results = verify.run_suite(suite, seed=0, n_points=600)
        nan = [i for i, r in enumerate(results) if np.isnan(r.residual)]
        assert nan == picked, [(r.name, r.residual) for r in results]
        assert not any(results[i].passed for i in picked)
        assert cli.main(["verify", suite, "--points", "600"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert [i for i, line in enumerate(lines) if ": residual nan " in line] == picked
        assert all(lines[i].endswith(" FAIL") for i in picked) and lines[-1] == f"[{suite}] FAIL"


def test_a_nan_at_the_half_step_fails_the_convergence_ratio(monkeypatch):
    # the ratio check reads r(h/2) only through the ratio, so a NaN there must not be dropped
    original, calls = so3._maurer_cartan_residuals, []

    def nan_at_the_first_half_step(qm, qc, qp, h):
        calls.append(h)
        out = original(qm, qc, qp, h)
        if len(calls) == 2:
            out[0] = np.nan
        return out

    clean = verify.run_suite("maurer_cartan", seed=0, n_points=7)
    monkeypatch.setattr(so3, "_maurer_cartan_residuals", nan_at_the_first_half_step)
    derivative, ratio = verify.run_suite("maurer_cartan", seed=0, n_points=7)
    assert calls[1] == 0.5 * calls[0] and derivative == clean[0]
    assert np.isnan(ratio.residual) and not ratio.passed and ratio.n == clean[1].n


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_phase_points_draw_the_documented_distribution(seed):
    rng = np.random.default_rng(seed)
    flags = verify._small_q0_flags(rng, 10**4)
    z = np.hstack([z for _, z in verify._blocks(rng, flags)])
    x_p_mom = np.concatenate([z[0:6], z[10:13]])
    assert np.all(x_p_mom >= -2.0) and np.all(x_p_mom < 2.0)
    assert np.max(np.abs(np.sqrt(np.sum(z[6:10] ** 2, axis=0)) - 1.0)) <= 1e-15
    assert np.all(np.abs(z[6, flags]) <= verify.SMALL_Q0)
    # only the flagged points force a small q0, and they are k of n
    assert np.array_equal(np.abs(z[6]) <= verify.SMALL_Q0, flags)
    assert flags.sum() == max(1, int(verify.SMALL_Q0_FRACTION * flags.size))
    q = verify._random_unit_quats(rng, 1000, small_q0=True)
    assert np.all(np.abs(q[0]) <= verify.SMALL_Q0)
    assert np.max(np.abs(np.sqrt(np.sum(q ** 2, axis=0)) - 1.0)) <= 1e-15


@pytest.mark.parametrize("seed, indices", [(0, (6, 7, 8, 9)), (1, tuple(range(6, 13))), (2, (3,))])
def test_polynomial_terms_draw_the_documented_distribution(seed, indices):
    coef, a, b = verify._polynomial_terms(np.random.default_rng(seed), indices, 5, 2500)
    assert np.all(np.isin(a, indices)) and np.all(np.isin(b, indices + (-1,)))
    assert np.all(b[0] == -1.0)
    assert np.all(coef >= -1.0) and np.all(coef < 1.0)
    quadratic = b[1:] != -1.0  # 4 x 2500 later terms
    assert quadratic.size == 10**4 and abs(quadratic.mean() - 0.5) <= 0.02


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
    flags = verify._small_q0_flags(rng, n)
    small_q0 = iter(ref.uniform(rng.random(int(flags.sum())), -ref.SMALL_Q0, ref.SMALL_Q0).tolist())
    hom = cover = trip = 0.0
    for small, (a1, a2) in zip(flags, rng.standard_normal((n, 2, 4))):
        q1 = Quaternion.from_array(ref.unit_quat(a1))
        q2 = Quaternion.from_array(ref.unit_quat(a2, next(small_q0) if small else None))
        product = [[sum(g * G for g, G in zip(row, col)) for col in quat_to_matrix(q2).T]
                   for row in quat_to_matrix(q1)]
        hom = max(hom, float(np.max(np.abs(quat_to_matrix(quat_mul(q1, q2)) - product))))
        cover = max(cover, float(np.max(np.abs(quat_to_matrix(-q1) - quat_to_matrix(q1)))))
        r = matrix_to_quat(quat_to_matrix(q2))
        trip = max(trip, min(_dist(r, q2), _dist(r, -q2)))
    dot_cross = 0.0
    for _ in range(max(1, n // 10)):
        q = verify.random_unit_quat(rng)
        x, y = rng.standard_normal(3), rng.standard_normal(3)
        rx, ry = rotate_vector(q, x), rotate_vector(q, y)
        dot_cross = max(dot_cross, abs(float(rx @ ry) - float(x @ y)),
                        _max_abs(np.cross(rx, ry) - rotate_vector(q, np.cross(x, y))))
    return [hom, cover, trip, dot_cross]


def _points(z, *charts):
    """Phase points of the first 13 rows of the columns ``z``, the charts in turn."""
    return [PhasePoint.from_coords(col[:13], charts[k % len(charts)]) for k, col in enumerate(z.T)]


def _bracket_reference(rng, n):
    """The seven bracket residuals, one phase point at a time through the
    public per-point functions, drawing from ``rng`` as ``bracket_checks`` does."""
    anti = mu = m = xp = 0.0
    pts = _points(ref.phase_points(rng, np.repeat(verify._small_q0_flags(rng, n), 2)),
                  Chart.INERTIAL_MU, Chart.MIXED_M)
    for pt_mu, pt_m in zip(pts[0::2], pts[1::2]):
        J_mu, J_m = structure_tensor(pt_mu).j, structure_tensor(pt_m).j
        anti = max(anti, _max_abs(J_mu + J_mu.T), _max_abs(J_m + J_m.T))
        for k in range(3):
            e = Quaternion.basis(k + 1)
            mu = max(mu, _max_abs(J_mu[6:10, 10 + k] - quat_mul(e, pt_mu.q).as_array()))
            m = max(m, _max_abs(J_m[6:10, 10 + k] - quat_mul(pt_m.q, e).as_array()))
        xp = max(xp, _max_abs(J_mu[0:3, 3:6] - np.eye(3)))
    nc = max(1, n // 10)
    leibniz = 0.0
    z = ref.phase_points(rng, np.zeros(nc, bool), *[ref.polynomial_draw(range(6, 13))] * 3)
    for pt, col in zip(_points(z, Chart.INERTIAL_MU), z.T):
        F, G, H = map(ref.polynomial, col[13:].reshape(3, 3, 5))
        lhs = poisson_bracket(F * G, H, pt)
        rhs = F.value(pt) * poisson_bracket(G, H, pt) + G.value(pt) * poisson_bracket(F, H, pt)
        leibniz = max(leibniz, abs(lhs - rhs))
    norm_sq = DynamicVariable(
        lambda z: float(z[6:10] @ z[6:10]),
        lambda z: np.concatenate([np.zeros(6), 2.0 * z[6:10], np.zeros(3)]))
    norm = 0.0
    for pt in _points(ref.phase_points(rng, np.zeros(2 * nc, bool)),
                      Chart.INERTIAL_MU, Chart.MIXED_M):
        norm = max(norm, *(abs(poisson_bracket(norm_sq, coordinate(i), pt)) for i in range(13)))
    cov = 0.0
    flags = verify._small_q0_flags(rng, n)
    z = ref.phase_points(rng, flags, ref.unit_quats)
    for small, pt, col in zip(flags, _points(z, Chart.INERTIAL_MU), z.T):
        cov = max(cov, right_translation_covariance_check(pt, Quaternion.from_array(col[13:])))
        if small:
            cov = max(cov, right_translation_covariance_check(pt, Quaternion.identity()))
    return [anti, mu, m, xp, leibniz, norm, cov]


def _jacobi_reference(rng, n):
    """Both chart residuals and the negative control, one point at a time."""
    out = []
    for chart in (Chart.INERTIAL_MU, Chart.MIXED_M):
        out.append(max(map(jacobi_residual,
                           _points(ref.phase_points(rng, verify._small_q0_flags(rng, n)), chart))))
    out.append(max(jacobi_residual(pt, corrupt=True) for pt in
                   _points(ref.phase_points(rng, np.zeros(min(n, 100), bool)), Chart.INERTIAL_MU)))
    return out


def _poisson_map_reference(rng, n):
    return [max(map(poisson_map_residual,
                    _points(ref.phase_points(rng, verify._small_q0_flags(rng, n)), Chart.INERTIAL_MU)))]


def _oracle_reference(rng, n):
    """The four eom_rhs = J grad(H) rows, one state at a time."""
    out = []
    for params in verify._oracle_params():
        H = hamiltonian_variable(params)
        worst = 0.0
        for pt in _points(ref.phase_points(rng, np.zeros(n, bool)), Chart.MIXED_M):
            worst = max(worst, _max_abs(eom_rhs(pt, params) - hamiltonian_vector_field(H, pt)))
        out.append(worst)
    return out


def _symplectic_reference(rng, n):
    """The four symplectic residuals, one phase point and its random_polynomial
    variables at a time, through the public per-point functions, drawing from
    ``rng`` as ``symplectic_checks`` does."""
    zeros = np.zeros(n, bool)
    duality = 0.0
    z = ref.phase_points(rng, zeros, *[ref.polynomial_draw(range(6, 13))] * 2)
    for pt, col in zip(_points(z, Chart.INERTIAL_MU), z.T):
        F, G = map(ref.polynomial, col[13:].reshape(2, 3, 5))
        omega = symplectic_form_eval(pt, hamiltonian_vector_field(F, pt),
                                     hamiltonian_vector_field(G, pt))
        duality = max(duality, abs(omega - poisson_bracket(F, G, pt)))
    anti = 0.0
    # after each point a tangent: w - <w, q> q and a mom-block
    z = ref.phase_points(rng, zeros, lambda rng, n: rng.standard_normal((4, n)),
                         lambda rng, n: rng.random((3, n)))
    for pt, col in zip(_points(z, Chart.INERTIAL_MU), z.T):
        q4, w = pt.q.as_array(), col[13:17]
        u = np.concatenate([w - (w @ q4) * q4, ref.uniform(col[17:20], -2.0, 2.0)])
        anti = max(anti, abs(symplectic_form_eval(pt, u, u)))
    left = 0.0
    for pt in _points(ref.phase_points(rng, zeros), Chart.INERTIAL_MU):
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
    z = ref.phase_points(rng, zeros, *[ref.polynomial_draw(range(6, 10))] * 2)
    for pt, col in zip(_points(z, Chart.INERTIAL_MU), z.T):
        F, G = map(ref.polynomial, col[13:].reshape(2, 3, 5))
        orient = max(orient, _max_abs(hamiltonian_vector_field(F, pt)[0:10]),
                     abs(poisson_bracket(F, G, pt)))
    return [duality, anti, left, orient]


def _maurer_cartan_reference(rng, n, h=1e-4):
    """The derivative residual and the ratio check, one path at a time through
    the public maurer_cartan_residual, drawing from ``rng`` as
    ``maurer_cartan_checks`` does."""
    residuals, ratios, samples = [], [], []
    for start in range(0, n, ref.BLOCK):
        k = min(ref.BLOCK, n - start)
        w, r = rng.standard_normal((10, k)), rng.random((3, k))
        alphas, betas = ref.uniform(r[:2], 0.2, 0.8).tolist()
        samples += zip(w.T, alphas, betas, ref.uniform(r[2], -1.0, 1.0).tolist())
    for col, alpha, beta, t0 in samples:
        base = Quaternion.from_array(ref.unit_quat(col[:4]))

        def path(t, base=base, u=col[4:7], v=col[7:10], alpha=alpha, beta=beta):
            return quat_mul(quat_mul(axis_angle_to_quat(u, alpha * t), base),
                            axis_angle_to_quat(v, beta * t))

        r_h = maurer_cartan_residual(path, t0, h)
        r_half = maurer_cartan_residual(path, t0, 0.5 * h)
        residuals.append(r_h)
        if not r_half <= 1e-13:
            ratios.append(r_h / r_half)
    return [max(residuals), abs(float(np.median(ratios)) - 4.0) if ratios else 0.0]


# (array suite, the residuals a reference reproduces, per-sample reference)
_REFERENCES = [
    (verify.algebra_checks, slice(1, None), _algebra_reference),
    (verify.rotation_checks, slice(None), _rotation_reference),
    (verify.bracket_checks, slice(None), _bracket_reference),
    (verify.jacobi_checks, slice(None), _jacobi_reference),
    (verify.poisson_map_checks, slice(None), _poisson_map_reference),
    (verify.dynamics_oracle_checks, slice(0, 4), _oracle_reference),
    (verify.symplectic_checks, slice(None), _symplectic_reference),
    (verify.maurer_cartan_checks, slice(None), _maurer_cartan_reference),
]


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 7), (3, 400)])
def test_array_suites_match_per_sample_reference(seed, n):
    for checks, picked, reference in _REFERENCES:
        got = [r.residual for r in checks(np.random.default_rng(seed), n)[picked]]
        assert got == reference(np.random.default_rng(seed), n), checks.__name__


@pytest.mark.parametrize("seed, n", [(4, 7), (6, 300)])
def test_narrow_passes_match_per_sample_reference(monkeypatch, seed, n):
    # widths of 3 and 2 put several passes, the last one short, into every
    # algebra check and every Jacobi and Poisson-map block
    monkeypatch.setattr(verify, "_ALGEBRA_BLOCK", 3)
    monkeypatch.setattr(verify, "_JACOBI_CHUNK", 2)
    monkeypatch.setattr(verify, "_POISSON_MAP_CHUNK", 2)
    narrow = (verify.algebra_checks, verify.rotation_checks, verify.jacobi_checks,
              verify.poisson_map_checks)
    for checks, picked, reference in (entry for entry in _REFERENCES if entry[0] in narrow):
        got = [r.residual for r in checks(np.random.default_rng(seed), n)[picked]]
        assert got == reference(np.random.default_rng(seed), n), checks.__name__


@pytest.mark.parametrize("n, width", [(257, 3), (10000, 2048)])
@pytest.mark.parametrize("shape", [(3, 4), (2, 4), (10,)])
def test_draws_in_blocks_are_one_draw(n, width, shape):
    one, blocks = np.random.default_rng(11), np.random.default_rng(11)
    whole = one.standard_normal((n, *shape))
    parts = [blocks.standard_normal((s.stop - s.start, *shape)) for s in verify._spans(n, width)]
    assert np.concatenate(parts).tobytes() == whole.tobytes()
    assert blocks.bit_generator.state == one.bit_generator.state


def _traced_peak(name, n=None):
    tracemalloc.start()
    try:
        verify.run_suite(name, seed=0, n_points=n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_phase_point_suites_memory_bounded():
    # the phase-point suites work through fixed blocks of points, and jacobi and
    # poisson_map through narrow chunks of each block, so at default sizes each
    # traces at most its own bound
    limits = {"jacobi": 1, "poisson_map": 1, "brackets": 2, "dynamics_oracle": 2, "symplectic": 2}
    for name, limit_mb in limits.items():
        assert _traced_peak(name) <= limit_mb * 1e6, name


def test_algebra_and_maurer_cartan_memory_grows_little_per_point():
    # both suites draw, check and drop one block at a time; what still grows with the
    # point count is the small-q0 flags and scalars of the round trip and the ratios
    # that the convergence median reads, far below the 32 or 80 bytes per point that a
    # kept (4, n) or (10, n) sample array would add
    for name in ("algebra", "maurer_cartan"):
        _traced_peak(name, 10)  # leave out what the first run allocates once
        per_point = (_traced_peak(name, 10**5) - _traced_peak(name, 10**4)) / 9e4
        assert per_point <= 20, (name, per_point)


@pytest.mark.parametrize("n_points", [0, -3, 2.5, True])
def test_run_suite_rejects_a_bad_point_count_before_any_draw(monkeypatch, n_points):
    def must_not_run(rng, n):
        raise AssertionError("a suite ran on a bad point count")

    for name in verify.SUITES:
        monkeypatch.setitem(verify.SUITES, name, must_not_run)
        with pytest.raises(DomainError, match="n_points"):
            verify.run_suite(name, n_points=n_points)
