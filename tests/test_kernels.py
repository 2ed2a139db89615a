"""The private formula kernels on (4, n) and (13, n) arrays against the
scalar public API.

Each kernel is written once and runs on float components (the public
functions) and on array components (the verify suites).  Every column of a
batched result must equal the public function on that column, bit for bit.
"""

import dis
import itertools
import math
import operator

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

from qhdyn import (  # noqa: E402
    Chart,
    DynamicVariable,
    PhasePoint,
    PotentialSpec,
    PreconditionError,
    Quaternion,
    ad,
    ad_star,
    coordinate,
    dynamics,
    eom_rhs,
    hamiltonian_variable,
    hamiltonian_vector_field,
    jacobi_residual,
    liouville_form_eval,
    matrix_to_quat,
    poisson,
    poisson_bracket,
    poisson_map_residual,
    quat_conj,
    quat_inverse,
    quat_mul,
    quat_norm,
    quat_to_matrix,
    right_translation_covariance_check,
    structure_tensor,
    symplectic_form_eval,
    verify,
)
from qhdyn.dynamics import _make_block, _make_h, _make_rhs, _make_step  # noqa: E402
from qhdyn.poisson import N_COORDS  # noqa: E402
from qhdyn.quaternion import _conj, _inv, _mul, _norm2  # noqa: E402
from qhdyn.so3 import _matrix, _quat_of_matrix  # noqa: E402

import sample_reference  # noqa: E402
import stream_reference  # noqa: E402

R2, R3 = 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(3.0)
# Unit quaternions where the largest-pivot choice is delicate: 180-degree
# turns about diagonal axes (two or three candidates tie), the all-equal
# quaternion (all four tie), and scalar parts within 1e-6 of zero.
SPECIAL = np.array([
    [0.0, R2, R2, 0.0], [0.0, 0.0, R2, R2], [0.0, R2, 0.0, R2],
    [0.0, R2, -R2, 0.0], [0.0, 0.0, R2, -R2], [0.0, -R2, 0.0, R2],
    [0.0, R3, R3, R3], [0.0, R3, -R3, R3],
    [0.5, 0.5, 0.5, 0.5], [0.5, -0.5, 0.5, -0.5], [-0.5, 0.5, 0.5, 0.5],
    [1e-6, 0.6, 0.8, 0.0], [-1e-6, 0.0, R2, R2], [5e-7, R2, -R2, 0.0],
    [0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0],
])

comp = st.floats(-4.0, 4.0, allow_nan=False)
nonzero = st.tuples(comp, comp, comp, comp).filter(lambda a: _norm2(a) > 1e-2)
nearly_pure = st.tuples(st.floats(-1e-6, 1e-6), comp, comp, comp).filter(
    lambda a: _norm2(a) - a[0] * a[0] > 1.0)


def _unit(a):
    n = math.sqrt(_norm2(a))
    return tuple(c / n for c in a)


units = st.one_of(nonzero, nearly_pure, st.sampled_from(list(map(tuple, SPECIAL)))).map(_unit)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


def _state_bits(x) -> bytes:
    """The bits of a state with each NaN as numpy's NaN: a run stops at a non-finite state,
    so the sign of a NaN is no output, and the compiled step and the written-out reference
    rhs may give it differently."""
    a = np.asarray(x, dtype=float)
    return np.where(np.isnan(a), np.nan, a).tobytes()


def _outcome(run):
    """``_state_bits`` of ``run()``, or OverflowError if it raised that (``**`` on a huge q)."""
    try:
        return _state_bits(run())
    except OverflowError:
        return OverflowError


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(st.tuples(nonzero, nonzero), min_size=1, max_size=16))
def test_quaternion_kernels_match_scalar_api(pairs):
    a, b = (np.array(cols).T for cols in zip(*pairs))
    prod, conj, inv, norm2 = np.array(_mul(a, b)), np.array(_conj(a)), np.array(_inv(a)), _norm2(a)
    assert prod.shape == conj.shape == inv.shape == a.shape and norm2.shape == a.shape[1:]
    for k, (ak, bk) in enumerate(pairs):
        qa, qb = Quaternion.from_array(ak), Quaternion.from_array(bk)
        assert _bits(prod[:, k]) == _bits(quat_mul(qa, qb))
        assert _bits(conj[:, k]) == _bits(quat_conj(qa))
        assert _bits(inv[:, k]) == _bits(quat_inverse(qa))
        assert _bits(norm2[k]) == _bits(_norm2(qa))
        assert _bits(math.sqrt(norm2[k])) == _bits(quat_norm(qa))


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(units, min_size=1, max_size=16))
@example(list(map(tuple, SPECIAL)))
def test_rotation_kernels_match_scalar_api(cols):
    u = np.array(cols).T
    Q = _matrix(u)
    comps, pivot = _quat_of_matrix(Q)
    assert Q.shape == (3, 3, len(cols)) and comps.shape == u.shape
    assert pivot.shape == (len(cols),)
    for k, col in enumerate(cols):
        Qk = quat_to_matrix(Quaternion.from_array(col))
        assert _bits(Q[:, :, k]) == _bits(Qk)
        r, p = matrix_to_quat(Qk, return_pivot=True)
        assert p == pivot[k]
        assert _bits(comps[:, k]) == _bits(r)


vec3 = st.tuples(*[st.floats(-1e150, 1e150, allow_nan=False)] * 3)


@settings(max_examples=200, deadline=None, database=None)
@given(vec3, vec3)
def test_adjoint_components_match_np_cross(xi, eta):
    assert _bits(ad(xi, eta)) == _bits(2.0 * np.cross(xi, eta))
    assert _bits(ad_star(xi, eta)) == _bits(2.0 * np.cross(eta, xi))


def test_pivot_ties_take_the_first_index():
    _, pivot = _quat_of_matrix(_matrix(SPECIAL.T))
    np.testing.assert_array_equal(pivot[:11], [1, 2, 1, 1, 2, 1, 1, 1, 0, 0, 0])


coord = st.floats(-2.0, 2.0, allow_nan=False)
phase_point = st.tuples(st.tuples(*[coord] * 6), units, st.tuples(coord, coord, coord)).map(
    lambda t: (*t[0], *t[1], *t[2]))


def _columns(values):
    """A list of floats and equal-shape columns as one array of columns."""
    return np.array(np.broadcast_arrays(*values))


def _unbound(grad_h):
    """A variable bound to no chart, with the gradient of ``grad_h``; its value is unused."""
    return DynamicVariable(lambda v: 0.0, lambda v: np.array(grad_h(v.tolist())))


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(phase_point, units), min_size=1, max_size=12))
def test_phase_point_kernels_match_scalar_api(cols):
    z = np.array([c for c, _ in cols]).T
    b = np.array([bq for _, bq in cols]).T
    jacobi = {(chart, corrupt): poisson._jacobi_residuals(z, chart, corrupt)
              for chart in Chart for corrupt in (False, True)}
    tensors = {chart: poisson._tensor_components(z, chart) for chart in Chart}
    pmap = poisson._poisson_map_residuals(z)
    cov = poisson._covariance_residuals(z, b)
    oracle = []
    for params in verify._oracle_params():
        field = _columns(poisson._j_grad(z, Chart.MIXED_M, None, _make_h(params)[1](list(z))))
        rhs = _columns(_make_rhs(params)(list(z)))
        oracle.append((params, hamiltonian_variable(params), field, rhs))
    # {H_a, H_b} of cyclically consecutive oracle Hamiltonians, unbound to a chart
    grads = [_make_h(params)[1] for params in verify._oracle_params()]
    pairs = list(zip(grads, grads[1:] + grads[:1]))
    brackets = {chart: [poisson._j_grad(z, chart, ga(list(z)), gb(list(z))) for ga, gb in pairs]
                for chart in Chart}
    variables = [(_unbound(ga), _unbound(gb)) for ga, gb in pairs]
    for k, (col, bq) in enumerate(cols):
        for chart in Chart:
            pt = PhasePoint.from_coords(col, chart)
            assert _bits(tensors[chart][k]) == _bits(structure_tensor(pt).j)
            for corrupt in (False, True):
                assert _bits(jacobi[chart, corrupt][k]) == _bits(jacobi_residual(pt, corrupt))
            for (F, G), bracket in zip(variables, brackets[chart]):
                assert _bits(bracket[k]) == _bits(poisson_bracket(F, G, pt))
        pt = PhasePoint.from_coords(col, Chart.INERTIAL_MU)
        assert _bits(pmap[k]) == _bits(poisson_map_residual(pt))
        assert _bits(cov[k]) == _bits(right_translation_covariance_check(pt, Quaternion.from_array(bq)))
        pt = PhasePoint.from_coords(col, Chart.MIXED_M)
        for params, H, field, rhs in oracle:
            assert _bits(field[:, k]) == _bits(hamiltonian_vector_field(H, pt))
            assert _bits(rhs[:, k]) == _bits(eom_rhs(pt, params))


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(phase_point, min_size=1, max_size=8), st.sampled_from(list(Chart)))
def test_field_kernel_is_the_bracket_table_exactly(cols, chart):
    # the quaternion-algebra field of each basis gradient e_J is column J of the
    # table, and each bracket of two basis gradients is one entry J_IJ, exactly:
    # so dynamics._make_rhs, checked against this kernel, is checked against the table
    basis = np.eye(N_COORDS).tolist()
    for z in (np.array(cols).T, *cols):
        J = np.moveaxis(poisson._tensor_components(np.array(z), chart), (-2, -1), (0, 1))
        for j, e_j in enumerate(basis):
            assert np.array_equal(_columns(poisson._j_grad(z, chart, None, e_j)), J[:, j])
            for i, e_i in enumerate(basis):
                assert np.array_equal(poisson._j_grad(z, chart, e_i, e_j), J[i, j])


index = st.integers(0, 12)
term = st.tuples(st.floats(-1.0, 1.0, allow_nan=False), index, st.one_of(st.just(-1), index))


@settings(max_examples=60, deadline=None, database=None)
@given(st.integers(1, 6).flatmap(
    lambda t: st.lists(st.tuples(phase_point, st.lists(term, min_size=t, max_size=t)),
                       min_size=1, max_size=8)))
def test_polynomial_kernel_matches_dynamic_variable_tree(cols):
    z = np.array([c for c, _ in cols]).T
    terms = np.array([np.array(ts, dtype=float).T for _, ts in cols]).transpose(1, 2, 0)
    value, grad = verify._polynomial(terms, z)
    assert value.shape == z.shape[1:] and grad.shape == z.shape
    for k, col in enumerate(z.T):
        F = stream_reference.polynomial(terms[:, :, k])
        one_value, one_grad = verify._polynomial(terms[:, :, k], col)
        assert _bits(value[k]) == _bits(one_value) == _bits(F.value(col))
        assert _bits(grad[:, k]) == _bits(one_grad) == _bits(F.gradient(col))


# DynamicVariable trees: a leaf is ("coord", i), coordinate(i) with its analytic gradient,
# or ("fd", i, j), sin(z_i) z_j with no gradient, so finite differences; a node is
# (op, a, b) for op in "+-*" with a number on at most one side, or ("neg", a).
number = st.one_of(st.floats(-3.0, 3.0, allow_nan=False), st.integers(-3, 3))
leaf = st.one_of(st.tuples(st.just("coord"), index), st.tuples(st.just("fd"), index, index))
trees = st.recursive(leaf, lambda kids: st.one_of(
    st.tuples(st.just("neg"), kids),
    st.tuples(st.sampled_from("+-*"), kids, st.one_of(kids, number)),
    st.tuples(st.sampled_from("+-*"), number, kids)), max_leaves=8)
FD_STEP = float(np.cbrt(np.finfo(float).eps))


def _sin_times(i, j):
    return lambda z: math.sin(z[i]) * z[j]


def _variable(tree):
    """The tree built with the DynamicVariable operators (a number stays a number)."""
    if not isinstance(tree, tuple):
        return tree
    kind, *args = tree
    if kind == "coord":
        return coordinate(args[0])
    if kind == "fd":
        return DynamicVariable(_sin_times(*args))
    if kind == "neg":
        return -_variable(args[0])
    return {"+": operator.add, "-": operator.sub, "*": operator.mul}[kind](*map(_variable, args))


def _reference(tree, z):
    """(value, gradient, analytic) of the tree at z: the sum, difference and product rules
    written out, with a number's gradient None; a "fd" leaf takes central differences with
    step cbrt(eps) max(1, |z_k|)."""
    if not isinstance(tree, tuple):
        return float(tree), None, True
    kind, *args = tree
    if kind == "coord":
        return z[args[0]], np.eye(N_COORDS)[args[0]], True
    if kind == "fd":
        f, grad = _sin_times(*args), []
        for k, zk in enumerate(z.tolist()):
            h = FD_STEP * max(1.0, abs(zk))
            zp, zm = z.tolist(), z.tolist()
            zp[k], zm[k] = zk + h, zk - h
            grad.append((f(np.array(zp)) - f(np.array(zm))) / (2.0 * h))
        return f(z), np.array(grad), False
    if kind == "neg":
        a, da, analytic = _reference(args[0], z)
        return -a, -da, analytic
    (a, da, fa), (b, db, fb) = (_reference(t, z) for t in args)
    if da is None:  # c op g
        return {"+": (a + b, db), "-": (a - b, -db), "*": (a * b, a * db)}[kind] + (fb,)
    if db is None:  # f op c
        return {"+": (a + b, da), "-": (a - b, da),
                "*": (a * b, b * da)}[kind] + (fa,)
    return {"+": (a + b, da + db), "-": (a - b, da - db),
            "*": (a * b, a * db + b * da)}[kind] + (fa and fb,)


@settings(max_examples=200, deadline=None, database=None)
@given(trees, phase_point)
def test_dynamic_variable_tree_is_the_sum_and_product_rules(tree, col):
    z = np.array(col)
    F = _variable(tree)
    value, grad, analytic = _reference(tree, z)
    assert _bits(F.value(z)) == _bits(value)
    assert _bits(F.gradient(z)) == _bits(grad)
    assert F.has_analytic_gradient is analytic


def _tangent(q, w):
    q, w = np.array(q), np.array(w)
    return w - (w @ q) * q


vec7 = st.tuples(*[coord] * 7)


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(phase_point, vec7, vec7), min_size=1, max_size=12))
def test_form_kernels_match_scalar_api(cols):
    z = np.array([c for c, _, _ in cols]).T
    u = np.array([np.concatenate([_tangent(c[6:10], a[:4]), a[4:]]) for c, a, _ in cols]).T
    v = np.array([np.concatenate([_tangent(c[6:10], b[:4]), b[4:]]) for c, _, b in cols]).T
    omega, theta = poisson._forms(z, u, v), poisson._forms(z, u, None)
    assert omega.shape == theta.shape == z.shape[1:]
    for k in range(z.shape[1]):
        pt = PhasePoint.from_coords(z[:, k], Chart.INERTIAL_MU)
        assert _bits(omega[k]) == _bits(symplectic_form_eval(pt, u[:, k], v[:, k]))
        assert _bits(theta[k]) == _bits(liouville_form_eval(pt, u[:, k]))


@settings(max_examples=40, deadline=None, database=None)
@given(st.lists(st.tuples(phase_point, vec7), min_size=1, max_size=8), st.data())
def test_form_kernels_check_tangency_on_every_column(cols, data):
    z = np.array([c for c, _ in cols]).T
    u = np.array([np.concatenate([_tangent(c[6:10], a[:4]), a[4:]]) for c, a in cols]).T
    k = data.draw(st.integers(0, z.shape[1] - 1))
    u[0:4, k] = z[6:10, k]  # radial: not tangent
    for v in (None, u[:, ::-1]):
        with pytest.raises(PreconditionError, match="u is not tangent"):
            poisson._forms(z, u, v)
    with pytest.raises(PreconditionError, match="v is not tangent"):
        poisson._forms(z, np.zeros_like(u), u)


# the per-point extra draws the suites pass to the sampler, (k, n) per block
EXTRA_DRAWS = [lambda rng, n: rng.standard_normal((4, n)), lambda rng, n: rng.random((3, n)),
               stream_reference.polynomial_draw(range(6, 13))]
seeds = st.integers(0, 2**32 - 1)
flag_patterns = st.one_of(st.integers(1, 513).map(lambda n: np.zeros(n, bool)),
                          st.integers(1, 513).map(lambda n: np.ones(n, bool)),
                          st.lists(st.booleans(), min_size=1, max_size=513).map(np.array))


@settings(max_examples=40, deadline=None, database=None)
@given(seeds, flag_patterns, st.lists(st.sampled_from(EXTRA_DRAWS), max_size=3))
@example(0, np.array([False]), []).via("one regular point")
@example(0, np.array([True]), []).via("one small-q0 point")
@example(7, np.arange(257) % 10 == 3, EXTRA_DRAWS).via("more than one block, mixed")
@example(0, np.ones(256, bool), EXTRA_DRAWS).via("one full block")
@example(3, np.array([False, True]), EXTRA_DRAWS).via("two points, all three extra draws")
def test_sampler_keeps_the_stream_and_the_bits(seed, flags, draws):
    # the block sampler against the stream of the verify docstring, shaped per point
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    z = np.hstack([z for _, z in verify._blocks(rng, flags, *draws)])
    expect = stream_reference.phase_points(ref, flags, *draws)
    assert z.shape == expect.shape and np.array_equal(z, expect) and _bits(z) == _bits(expect)
    assert rng.bit_generator.state == ref.bit_generator.state
    # the public draws are the n = 1 cases
    for small in flags[:12]:
        z = verify.random_phase_point(rng, Chart.MIXED_M, small).coords()
        assert _bits(z) == _bits(stream_reference.phase_points(ref, [small])[:, 0])
        q = verify.random_unit_quat(rng, small)
        assert _bits(q) == _bits(stream_reference.unit_quats(ref, 1, small)[:, 0])
        F = verify.random_polynomial(rng, indices=(6, 8, 12), n_terms=4)
        G = stream_reference.polynomial(stream_reference.polynomial_terms(ref, (6, 8, 12), 4, 1)[..., 0])
        assert _bits(F.value(z)) == _bits(G.value(z)) and _bits(F.gradient(z)) == _bits(G.gradient(z))
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=40, deadline=None, database=None)
@given(seeds, st.lists(st.integers(0, 12), min_size=1, max_size=13, unique=True),
       st.integers(0, 7), st.integers(0, 300), st.booleans())
def test_block_draws_keep_the_stream_and_the_bits(seed, indices, n_terms, n, small):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = verify._polynomial_terms(rng, indices, n_terms, n)
    expect = stream_reference.polynomial_terms(ref, indices, max(1, n_terms), n)
    assert got.shape == expect.shape and _bits(got) == _bits(expect)
    got, expect = verify._random_unit_quats(rng, n, small), stream_reference.unit_quats(ref, n, small)
    assert got.shape == expect.shape and _bits(got) == _bits(expect)
    assert rng.bit_generator.state == ref.bit_generator.state


@settings(max_examples=40, deadline=None, database=None)
@given(seeds, st.sampled_from([(-2.0, 2.0), (-verify.SMALL_Q0, verify.SMALL_Q0), (-1.0, 1.0),
                               (0.0, 1.0), (0.2, 0.8)]), st.integers(0, 64))
def test_uniform_is_numpys_formula_on_raw_doubles(seed, bounds, k):
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    low, high = bounds
    assert _bits(verify._uniform(rng.random(k), low, high)) == _bits(ref.uniform(low, high, k))
    assert _bits(verify._uniform(rng.random(), low, high)) == _bits(ref.uniform(low, high))
    assert rng.bit_generator.state == ref.bit_generator.state


# The RK4 step as it was written before it was spelled out over the 13
# coordinates: the specification of every operation and its order.
def _reference_rk4(z, h, rhs):
    half = 0.5 * h
    k1 = rhs(z)
    k2 = rhs([a + half * b for a, b in zip(z, k1)])
    k3 = rhs([a + half * b for a, b in zip(z, k2)])
    k4 = rhs([a + h * b for a, b in zip(z, k3)])
    sixth = h / 6.0
    return [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(z, k1, k2, k3, k4)]


# The renorm policy as it was applied after each step before it was compiled into the
# window, with its ** (C pow); returns whether it divided.
def _reference_renorm(z, mode, eps):
    if mode == "none":
        return False
    n = math.sqrt(z[6] ** 2 + z[7] ** 2 + z[8] ** 2 + z[9] ** 2)
    if mode == "every_step" or abs(n - 1.0) > eps:
        z[6] /= n
        z[7] /= n
        z[8] /= n
        z[9] /= n
        return True
    return False


def _reference_window(z, h, steps, mode, eps, rhs, divided=None):
    """``steps`` reference RK4 steps, each followed by the reference renorm."""
    for _ in range(steps):
        z = _reference_rk4(z, h, rhs)
        taken = _reference_renorm(z, mode, eps)
        if divided is not None:
            divided.append(taken)
    return z


# every renorm policy; 1e-14 is small enough that the threshold both divides and does not
# within one window (see test_small_threshold_takes_both_branches)
POLICIES = [("none", 0.0), ("every_step", 0.0), ("threshold", 1e-9), ("threshold", 1e-14)]
WINDOW_POINT = (0.5, -0.3, 0.2, 0.1, 0.4, -0.2, 0.9210609940028851, 0.3894183423086505, 0.0, 0.0,
                0.2, 0.3, 5.0)


# The rhs and the built-ins' gradients as they were written by hand before
# both were compiled from the equations-of-motion template: the specification
# of the compiled rhs, of the fused step and of the built-ins' gradients.
def _reference_rhs(params, grad_x, grad_q):
    inv_m = 1.0 / params.mass
    d1 = 0.5 / params.inertia.i1
    d2 = 0.5 / params.inertia.i2
    d3 = 0.5 / params.inertia.i3

    def rhs(z):
        x0, x1, x2, p0, p1, p2, q0, q1, q2, q3, m1, m2, m3 = z
        x = (x0, x1, x2)
        q4 = (q0, q1, q2, q3)
        o1 = m1 * d1
        o2 = m2 * d2
        o3 = m3 * d3
        gx0, gx1, gx2 = grad_x(x, q4)
        g0, g1, g2, g3 = grad_q(x, q4)
        return [
            p0 * inv_m,
            p1 * inv_m,
            p2 * inv_m,
            -gx0,
            -gx1,
            -gx2,
            -0.5 * (q1 * o1 + q2 * o2 + q3 * o3),
            0.5 * (q0 * o1 + q2 * o3 - q3 * o2),
            0.5 * (q0 * o2 + q3 * o1 - q1 * o3),
            0.5 * (q0 * o3 + q1 * o2 - q2 * o1),
            -(o2 * m3 - o3 * m2) - (q0 * g1 - g0 * q1 - (q2 * g3 - q3 * g2)),
            -(o3 * m1 - o1 * m3) - (q0 * g2 - g0 * q2 - (q3 * g1 - q1 * g3)),
            -(o1 * m2 - o2 * m1) - (q0 * g3 - g0 * q3 - (q1 * g2 - q2 * g1)),
        ]

    return rhs


_ZERO3 = (0.0, 0.0, 0.0)
_ZERO4 = (0.0, 0.0, 0.0, 0.0)


def _reference_grads(name, mass, g, length, k):
    """(grad_x, grad_q) of the built-in ``name`` made with these arguments."""
    mg = float(mass) * float(g)
    c = 2.0 * (float(mass) * float(g) * float(length))
    return {
        "free": (lambda x, q4: _ZERO3, lambda x, q4: _ZERO4),
        "linear_gravity": (lambda x, q4: (0.0, 0.0, mg), lambda x, q4: _ZERO4),
        "heavy_top": (lambda x, q4: _ZERO3,
                      lambda x, q4: (c * q4[0], c * -q4[1], c * -q4[2], c * q4[3])),
        "harmonic": (lambda x, q4: (k * x[0], k * x[1], k * x[2]), lambda x, q4: _ZERO4),
    }[name]


def _reference_value(name, mass, g, length, k):
    """The value of the built-in ``name`` made with these arguments, on float tuples."""
    mg = float(mass) * float(g)
    mgl = float(mass) * float(g) * float(length)
    return {
        "free": lambda x, q4: 0.0,
        "linear_gravity": lambda x, q4: mg * x[2],
        "heavy_top": lambda x, q4: mgl * (q4[0] ** 2 - q4[1] ** 2 - q4[2] ** 2 + q4[3] ** 2),
        "harmonic": lambda x, q4: 0.5 * float(k) * float(np.dot(x, x)),
    }[name]


def _reference_energy(z, params, value):
    """H = p^2/(2m) + T_spin(M) + V at 13 floats, ``value`` the potential."""
    ke = (z[3] ** 2 + z[4] ** 2 + z[5] ** 2) / (2.0 * params.mass)
    return ke + dynamics.spin_kinetic(z[10:13], params.inertia) + float(
        value(tuple(z[0:3]), tuple(z[6:10])))


def _builtins(mass, g, length, k):
    return [dynamics.free(), dynamics.linear_gravity(mass, g),
            dynamics.heavy_top(mass, g, length), dynamics.harmonic(k)]


# the four built-ins, which also run on (13, n) columns
STEP_PARAMS = verify._oracle_params()
_top, _spring = STEP_PARAMS[2].potential, STEP_PARAMS[3].potential
_gx = _reference_grads("harmonic", 1.0, 9.81, 1.0, 1.0)[0]
_gq = _reference_grads("heavy_top", 1.0, 9.81, 1.0, 1.0)[1]


def _both(x, q4):
    return _top.value(x, q4) + _spring.value(x, q4)


# user potentials: both gradients analytic (these also run on columns), none
# (both fall back to finite differences of the value), or one of the two
USER = [PotentialSpec("analytic", _both, _gx, _gq), PotentialSpec("value_only", _both),
        PotentialSpec("analytic_x", _both, grad_x=_gx),
        PotentialSpec("analytic_q", _both, grad_q=_gq)]
VALUE_ONLY = dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, USER[1])
constant = st.floats(0.0, 20.0)
positive = st.floats(0.1, 10.0)


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(phase_point, min_size=1, max_size=8), st.floats(1e-4, 1e-1))
@example([(0.5, -0.3, 0.2, 0.1, 0.4, -0.2, 1e-6, 0.6, 0.8, 0.0, 0.2, 0.3, 5.0)], 1e-3).via(
    "small q0")
def test_rk4_is_the_loop_form_bit_for_bit(cols, h):
    z = np.array(cols).T
    for params in [*STEP_PARAMS, VALUE_ONLY]:
        rhs, step = _make_rhs(params), _make_step(params)
        for col in cols:
            assert _bits(step(list(col), h)) == _bits(_reference_rk4(list(col), h, rhs))
        if params is VALUE_ONLY:
            continue  # the finite-difference gradient takes floats only
        batch = step(list(z), h)
        assert all(np.shape(c) == z.shape[1:] for c in batch)
        for k, col in enumerate(cols):
            assert _bits([c[k] for c in batch]) == _bits(step(list(col), h))


# no shrinking: each candidate re-runs every potential and window, so a failure
# (a one-ulp renorm mutation) took 67 s to report with shrinking and 0.9 s without
@settings(max_examples=40, deadline=None, database=None, phases=(Phase.explicit, Phase.generate))
@given(st.lists(phase_point, min_size=1, max_size=8), st.floats(1e-4, 1e-1), positive, positive,
       st.floats(0.1, 20.0), constant, constant, constant)
@example([WINDOW_POINT], 0.003, 1.0, 1.0, 1.0, 9.81, 1.0, 1.0).via("threshold takes both branches")
def test_compiled_rhs_and_step_are_the_reference_bit_for_bit(cols, h, mass, i1, pot_mass, g,
                                                            length, k):
    # the rhs, the window of 1, 2 and 7 steps under every renorm policy on floats, and its
    # default (one step, no renorm) also on columns
    z = np.array(cols).T
    inertia = dynamics.InertiaTensor(i1, 2.0, 3.0)
    builtins = [(pot, _reference_grads(pot.name, pot_mass, g, length, k))
                for pot in _builtins(pot_mass, g, length, k)]
    users = [(pot, (pot._grad_x, pot._grad_q)) for pot in USER]
    for pot, grads in builtins + users:
        params = dynamics.BodyParams(mass, inertia, pot)
        rhs, step, ref = _make_rhs(params), _make_step(params), _reference_rhs(params, *grads)
        columns = pot.analytic_grad_x and pot.analytic_grad_q  # finite differences take floats
        for w in [*cols, *([z] if columns else [])]:
            assert _bits(_columns(rhs(list(w)))) == _bits(_columns(ref(list(w))))
            expect = _reference_rk4(list(w), h, ref)
            assert _bits(_columns(step(list(w), h))) == _bits(_columns(expect))
        with np.errstate(over="ignore", invalid="ignore"):  # windows that diverge
            for w, steps, (mode, eps) in itertools.product(cols, (1, 2, 7), POLICIES):
                assert _outcome(lambda: step(list(w), h, steps, mode, eps)) == _outcome(
                    lambda: _reference_window(list(w), h, steps, mode, eps, ref))
            for steps in (2, 7) if columns else ():
                expect = _reference_window(list(z), h, steps, "none", 0.0, ref)
                assert _state_bits(_columns(step(list(z), h, steps))) == _state_bits(
                    _columns(expect))


# sample counts either side of a block of 64 and of two, and 2 (n_steps <= stride)
SAMPLE_COUNTS = (2, 63, 64, 65, 129)


@pytest.mark.parametrize("mode, eps", POLICIES)
@pytest.mark.parametrize("params", [*STEP_PARAMS, VALUE_ONLY],
                         ids=[p.potential.name for p in (*STEP_PARAMS, VALUE_ONLY)])
@settings(max_examples=10, deadline=None, database=None, phases=(Phase.explicit, Phase.generate))
@given(phase_point, st.floats(1e-4, 5e-2), st.integers(1, 5), st.sampled_from(SAMPLE_COUNTS),
       st.integers(0, 4))
@example(WINDOW_POINT, 0.003, 3, 65, 2).via("a stride that does not divide n_steps")
@example(WINDOW_POINT, 0.003, 5, 2, 3).via("n_steps < stride")
def test_sample_blocks_are_the_per_sample_stream_bit_for_bit(params, mode, eps, col, h, stride,
                                                             count, rest):
    # the compiled blocks against the per-sample step loop of sample_reference, and the
    # replay (the path a failing block takes) of the whole run against the blocks
    rest %= stride
    n_steps = (count - 1) * stride if rest == 0 else (count - 2) * stride + rest
    policy = dynamics.RenormPolicy(mode, eps or 1e-9)
    args = (PhasePoint.from_coords(col, Chart.MIXED_M), params, h, n_steps, policy, stride)
    blocks = list(dynamics._samples(*args))
    assert [len(b) for b in blocks] == [64] * (count // 64) + [count % 64] * (count % 64 > 0)
    rows = np.concatenate(blocks)
    assert _bits(rows) == _bits(sample_reference.rows(*args))
    ks = [0] + [stride] * (n_steps // stride) + [rest] * (rest > 0)  # the steps before each sample
    assert _bits(dynamics._replay(params, list(col), h, 0, ks, mode, eps)) == _bits(rows.ravel())


def test_small_threshold_takes_both_branches():
    divided = []
    _reference_window(list(WINDOW_POINT), 0.003, 7, *POLICIES[3], _make_rhs(STEP_PARAMS[2]),
                      divided)
    assert True in divided and False in divided


# A unit q whose product sum q0 * q0 + ... + q3 * q3 is 1.0 and whose ** sum has a square
# root other than 1.0, found by search: an eps below an ulp of 1 divides it, which a fast
# reject with no margin (lim = eps) would skip
POW_SPLIT_Q = (-0.16574950983398587, 0.6129401384850696, 0.369388838359643, -0.6785155655686984)
GATE_EPS = (1e-16, 1e-15, 1e-14, 1e-9, 0.5, 2.0)


def _counting_sqrt():
    """``(sqrt, divided)``: math.sqrt whose results add to ``divided`` each float divided by
    them, so four entries per renorm that divides."""
    divided = []

    class Norm(float):
        def __rtruediv__(self, other):
            divided.append(other)
            return other / float(self)

    return (lambda s: Norm(math.sqrt(s))), divided


def _gate_states(eps):
    """WINDOW_POINT, then at rest (M = 0, where a free top's step leaves q as it is) with q
    POW_SPLIT_Q, non-finite, or POW_SPLIT_Q and WINDOW_POINT's q scaled to r = 1 +- eps (1 +-
    1e-3) as |q|^2 (either side of the fast test) and as |q| (either side of the check)."""
    qs = [POW_SPLIT_Q, (math.inf, 0.0, 0.0, 0.0), (math.nan, 0.0, 0.0, 0.0)]
    for u, a, b in itertools.product((POW_SPLIT_Q, WINDOW_POINT[6:10]), (1.0, -1.0), (1.0, -1.0)):
        r = 1.0 + a * eps * (1.0 + b * 1e-3)
        qs += [tuple(c * math.sqrt(r) for c in u), tuple(c * r for c in u)] if r > 0.0 else []
    return [WINDOW_POINT, *((*WINDOW_POINT[:6], *q, 0.0, 0.0, 0.0) for q in qs)]


@pytest.mark.parametrize("eps", GATE_EPS)
def test_threshold_fast_reject_divides_where_the_reference_does(eps):
    # the window step by step and the block over the same steps against the reference renorm,
    # bit for bit and dividing in the same steps, where the product-sum test and the ** check
    # come closest to parting
    q, h = POW_SPLIT_Q, 1e-3
    assert q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3] == 1.0
    assert math.sqrt(q[0] ** 2 + q[1] ** 2 + q[2] ** 2 + q[3] ** 2) != 1.0
    states = _gate_states(eps)
    assert _make_step(STEP_PARAMS[0])(list(states[1]), h)[6:10] == list(q)
    for params in STEP_PARAMS:
        rhs, window, monitor = _make_rhs(params), _make_step(params), _make_h(params)[2]
        block = _make_block(params, "threshold")
        for z in states:
            ref, w, ref_rows, ref_taken, taken = list(z), list(z), [0.0, *z, *monitor(z)], [], []
            for step in (1, 2, 3):
                ref = _reference_window(ref, h, 1, "threshold", eps, rhs, ref_taken)
                ref_rows += [step * h, *ref, *monitor(ref)]
                sqrt, divided = _counting_sqrt()
                w = window(w, h, 1, "threshold", eps, sqrt=sqrt)
                assert _state_bits(w) == _state_bits(ref)
                taken.append(len(divided))
            assert taken == [4 * t for t in ref_taken]
            sqrt, divided = _counting_sqrt()
            assert _state_bits(block(list(z), h, 0, [0, 1, 1, 1], eps, sqrt=sqrt)) == _state_bits(
                ref_rows)
            assert len(divided) == sum(taken)
        # a q whose ** overflows, where the product sum is only inf, raises in all three
        big = (*WINDOW_POINT[:6], 1e200, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        for run in (lambda: _reference_window(list(big), h, 1, "threshold", eps, rhs),
                    lambda: window(list(big), h, 1, "threshold", eps),
                    lambda: block(list(big), h, 0, [1], eps)):
            with pytest.raises(OverflowError):
                run()


# The built-ins whose grad_x has literal 0.0 components (free and heavy_top all three,
# linear_gravity two): their steps hold those p_i and add an increment dx_i formed once per call
# to x_i.  p components of both signs at zero, at the smallest subnormal and near the largest
# float, and WINDOW_POINT's own p; h up to 1e300, where every run overflows.
HELD_P = (0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308)
HELD_MOMENTA = [*(tuple(HELD_P[(i + j) % 6] for j in range(3)) for i in range(6)),
                WINDOW_POINT[3:6]]
HELD = [dynamics.BodyParams(m, STEP_PARAMS[0].inertia, params.potential)
        for params in STEP_PARAMS[:3] for m in (1.0, 3.0)]


def _rows_outcome(run):
    """sample_reference.outcome of ``run``, the rows it returned as their bits."""
    kind, *rest = sample_reference.outcome(run)
    return (kind, _bits(rest[0])) if kind == "returned" else (kind, *rest)


@pytest.mark.parametrize("h", [1e-4, 1e-3, 0.05, 1e300])
@pytest.mark.parametrize("params", HELD, ids=[f"{p.potential.name}-m{p.mass:g}" for p in HELD])
def test_held_momenta_are_the_reference_bit_for_bit(params, h):
    # the window against the reference steps on the rhs, and the blocks against the per-sample
    # stream of sample_reference, bit for bit or aborting at the same step with the same message
    rhs = _make_rhs(params)
    xs = (WINDOW_POINT[0:3], (-0.0, 0.0, -0.0))
    for p, x, (mode, eps) in itertools.product(HELD_MOMENTA, xs, POLICIES[:3]):
        z = (*x, *p, *WINDOW_POINT[6:13])
        with np.errstate(over="ignore", invalid="ignore"):
            for steps in (1, 2, 7):
                assert _outcome(lambda: _make_step(params)(list(z), h, steps, mode, eps)) == (
                    _outcome(lambda: _reference_window(list(z), h, steps, mode, eps, rhs)))
        args = (PhasePoint.from_coords(z, Chart.MIXED_M), params, h, 7,
                dynamics.RenormPolicy(mode, eps or 1e-9), 3)
        expect = _rows_outcome(lambda: sample_reference.rows(*args))
        assert _rows_outcome(lambda: np.concatenate(list(dynamics._samples(*args)))) == expect
        assert expect[0] == ("abort" if h == 1e300 or 1e308 in map(abs, p) else "returned")


def test_steps_fold_exactly_the_literal_zero_forces():
    stage = {f"k{s}_{i}" for s in range(1, 5) for i in range(13)}
    held = {"free": {0, 1, 2}, "linear_gravity": {0, 1}, "heavy_top": {0, 1, 2}, "harmonic": set()}
    for params in [*STEP_PARAMS, *(dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, pot)
                                   for pot in USER)]:
        fold = held.get(params.potential.name, set())
        for fn in (_make_step(params), *(_make_block(params, mode) for mode in dynamics._RENORM)):
            names = set(fn.__code__.co_varnames)  # the window's and each block's locals
            assert {n for n in names if n.startswith("dx")} == {f"dx{i}" for i in fold}
            assert stage - names == {f"k{s}_{j}" for s in range(1, 5)
                                     for i in fold for j in (i, i + 3)}
            assert names.isdisjoint({"gx0", "gx1", "gx2"}) == (fold == {0, 1, 2})


@settings(max_examples=60, deadline=None, database=None)
@given(st.lists(phase_point, min_size=1, max_size=8), constant, constant, constant, constant)
@example([(0.29659562689614205, -0.717529866212888, 0.9194748517260067,
           0.3624182010806754, 1.1750275636470653, 0.5, -0.7376382314623879,
           -0.2250050531147162, 0.5948351326036513, 0.226790058376202, 0.2, 0.3, 5.0)],
         1.0, 1.0, 1.0, 1.0).via("** and np.dot round differently from products here")
def test_builtin_gradients_are_the_reference_bit_for_bit(cols, mass, g, length, k):
    z = np.array(cols).T
    for pot in _builtins(mass, g, length, k):
        ref_x, ref_q = _reference_grads(pot.name, mass, g, length, k)
        ref_v = _reference_value(pot.name, mass, g, length, k)
        params = dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, pot)
        energy = _make_h(params)[0]
        for col in cols:
            x, q4 = tuple(col[0:3]), tuple(col[6:10])
            assert _bits(pot.gradient_x(x, q4)) == _bits(ref_x(x, q4))
            assert _bits(pot.gradient_q(x, q4)) == _bits(ref_q(x, q4))
            assert _bits(pot.value(x, q4)) == _bits(ref_v(x, q4))
            assert _bits(energy(list(col))) == _bits(_reference_energy(list(col), params, ref_v))
        x, q4 = z[0:3], z[6:10]  # columns
        assert _bits(_columns(pot._grad_x(x, q4))) == _bits(_columns(ref_x(x, q4)))
        assert _bits(_columns(pot._grad_q(x, q4))) == _bits(_columns(ref_q(x, q4)))


def _compiled(params):
    """Every function compiled from the templates for ``params``."""
    return (_make_rhs(params), _make_step(params), _make_block(params), *_make_h(params))


def test_step_source_holds_no_number():
    # two bodies of different mass and inertia, with heavy tops of different mass and g,
    # compile to the same code, and so does each built-in's value at different constants:
    # every number is a keyword-only default of the compiled function, none is in its source
    a, b = (dynamics.BodyParams(m, dynamics.InertiaTensor(m, 2.0, 3.0),
                                dynamics.heavy_top(m, g, 1.0))
            for m, g in ((1.0, 9.81), (2.5, 1.62)))
    for fa, fb, name in zip(_compiled(a), _compiled(b),
                            ("rhs", "step", "block", "energy", "grad_h", "row")):
        assert fa is not fb and fa.__code__.co_code == fb.__code__.co_code
        assert fa.__code__ == fb.__code__  # constants and names too
        assert fa.__code__.co_filename == f"<qhdyn.dynamics {name}>"
    assert a.potential.value.__code__ == b.potential.value.__code__
    assert _make_step(a).__kwdefaults__["c"] != _make_step(b).__kwdefaults__["c"]
    assert _make_h(a)[0].__kwdefaults__["two_m"] != _make_h(b)[0].__kwdefaults__["two_m"]
    for pa, pb in zip(_builtins(1.0, 9.81, 1.0, 1.0), _builtins(2.5, 1.62, 0.5, 3.0)):
        assert pa.value is not pb.value and pa.value.__code__ == pb.value.__code__


def test_step_locals_shadow_no_global():
    for params in [*STEP_PARAMS, *(dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, pot)
                                   for pot in USER)]:
        for fn in _compiled(params):
            assert set(fn.__code__.co_varnames).isdisjoint(fn.__globals__)
    for params in STEP_PARAMS:  # the built-ins' own value and gradients
        pot = params.potential
        for fn in (pot.value, pot._grad_x, pot._grad_q):
            assert set(fn.__code__.co_varnames).isdisjoint(fn.__globals__)


def test_step_locals_rebind_no_number():
    # the body's numbers are keyword-only parameters of each compiled function, so no line of
    # a template may assign to one
    for params in [*STEP_PARAMS, *(dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, pot)
                                   for pot in USER)]:
        for fn in _compiled(params):
            code = fn.__code__
            numbers = code.co_varnames[code.co_argcount:][:code.co_kwonlyargcount]
            assert set(numbers) == set(fn.__kwdefaults__)
            stored = {i.argval for i in dis.get_instructions(fn) if i.opname.startswith("STORE")}
            assert stored.isdisjoint(numbers)


def test_compiled_functions_are_cached_and_bounded():
    p = STEP_PARAMS[2]
    assert _make_step(p) is _make_step(p) and _make_rhs(p) is _make_rhs(p)
    # an equal BodyParams (same potential object) shares the compiled step
    assert _make_step(dynamics.BodyParams(p.mass, p.inertia, p.potential)) is _make_step(p)
    assert dynamics._code.cache_info().maxsize is not None
    for make in (_make_rhs, _make_step, _make_block, _make_h):
        bound = make.cache_info().maxsize
        assert bound is not None
        for _ in range(bound + 3):
            make(dynamics.BodyParams(1.0, p.inertia, dynamics.free()))
        assert make.cache_info().currsize == bound


def test_compile_cache_holds_every_source_of_a_run():
    # all seven verify suites, then every built-in under every renorm policy through the
    # public calls: the code cache evicts nothing, so no call recompiles shared code
    for cache in (dynamics._code, _make_rhs, _make_step, _make_block, _make_h,
                  verify._oracle_params):
        cache.cache_clear()
    for name in verify.SUITES:
        verify.run_suite(name, n_points=4)
    pt = verify.random_phase_point(np.random.default_rng(0), Chart.MIXED_M)
    for pot in _builtins(1.0, 9.81, 1.0, 1.0):
        params = dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, pot)
        for policy in ("none", "every_step", "threshold"):
            dynamics.integrate(pt, params, 1e-3, 3, dynamics.RenormPolicy(policy))
        dynamics.hamiltonian_eval(pt, params)
        dynamics.conserved_quantities(pt, params)
    info = dynamics._code.cache_info()
    assert info.currsize == info.misses <= info.maxsize


def test_public_calls_build_once(monkeypatch):
    params = dynamics.BodyParams(1.0, STEP_PARAMS[0].inertia, dynamics.heavy_top(1.0, 9.81, 1.0))
    compiled = []
    compile_fn = dynamics._compile

    def counting(source, namespace, name):
        compiled.append(name)
        return compile_fn(source, namespace, name)

    monkeypatch.setattr(dynamics, "_compile", counting)
    pt = verify.random_phase_point(np.random.default_rng(0), Chart.MIXED_M)
    for _ in range(100):
        dynamics.rk4_step(pt, params, 1e-3)
        eom_rhs(pt, params)
    assert compiled == ["step", "rhs"]
