"""Randomized verification suites over the algebra, bracket and dynamics layers.

Each suite draws reproducible samples from a seeded generator and returns a
list of :class:`CheckResult` rows, one per identity checked, holding the
worst observed residual and the tolerance it must stay under.  That residual
is the largest over all the check's samples and blocks, folded by
:func:`_most`, and a NaN anywhere makes it NaN, so the check FAILs.  Phase points
are drawn with q uniform on the unit sphere (normalized 4-dim Gaussian) and
positions/momenta componentwise uniform in [-2, 2]; a 10% share of points
forces |q0| <= 1e-6 to probe the nearly-pure-quaternion regime.

All samples come from one block stream of fixed-shape generator calls.
Phase points are drawn in consecutive blocks of at most ``_BLOCK`` = 256
points, and a block of n points makes these calls, in this order:

- ``rng.random((10, n))``: the raw doubles of x and p (rows 0-5), of q0
  (row 6, read only for the points that force a small q0) and of mom (rows 7-9);
- ``rng.standard_normal((4, n))``: the normals of q;
- each extra draw of the caller in turn, ``draw(rng, n) -> (k, n)``.

:func:`_uniform` (numpy's ``Generator.uniform`` formula) maps raw doubles to
[low, high), and :func:`_unit_quats` turns normal columns into unit quaternions.
n random polynomials of T terms take ``rng.integers(len(indices), size=(2, T, n))``
(the positions in ``indices`` of a and b) and then ``rng.random((2, T, n))``
(u, whose row 0 makes a later term quadratic where u < 0.5 and whose row 1
gives the coefficient ``_uniform(u, -1, 1)``); the first term is linear.
n unit quaternions on their own take ``rng.standard_normal((4, n))`` and, when
they force a small q0, then ``rng.random(n)``.  Per block of k samples, the algebra checks
draw normals ``(k, 3, 4)`` (k <= ``_ALGEBRA_BLOCK``); the rotation checks, after their small-q0
flags and one ``random(m)`` for the m flagged scalars, ``(k, 2, 4)`` (q1, q2), then ``(k, 10)``
per block of n // 10 vector pairs; maurer_cartan ``standard_normal((10, k))`` and
``random((3, k))`` (k <= ``_BLOCK``).  Only ``_BLOCK`` moves a value: blocks of a C-order draw
give one draw's values and state.  :func:`random_phase_point`, :func:`random_unit_quat` and
:func:`random_polynomial` are the n = 1 cases.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import dynamics, poisson, so3
from .errors import DomainError
from .poisson import N_COORDS, Chart, DynamicVariable, PhasePoint, _forms, _j_grad
from .quaternion import (
    Quaternion,
    _conj,
    _inv,
    _axis_angle,
    _mul,
    _norm2,
    right_action_matrix,
)

SMALL_Q0 = 1e-6
SMALL_Q0_FRACTION = 0.1
_MU = Chart.INERTIAL_MU


@dataclass(frozen=True)
class CheckResult:
    """One verified identity: worst residual against its tolerance."""

    name: str
    residual: float
    tolerance: float
    n: int
    mode: str = "max"  # "max": residual <= tol, "min": residual >= tol

    @property
    def passed(self) -> bool:
        if self.mode == "min":
            return self.residual >= self.tolerance
        return self.residual <= self.tolerance


def _dot(a: np.ndarray, b: np.ndarray):
    """a . b of (k,) vectors, or per (k, n) column by the BLAS call of ``a @ b`` on a copy."""
    return (np.ascontiguousarray(a.T)[..., None, :] @ np.ascontiguousarray(b.T)[..., None])[..., 0, 0]


def _uniform(u, low: float, high: float):
    """``rng.uniform(low, high)`` from the raw doubles ``u`` of ``rng.random``:
    numpy's own formula, so the values are the same bits."""
    return low + (high - low) * u


def _unit_quats(a: np.ndarray, small, q0) -> np.ndarray:
    """(4, n) unit quaternions from (4, n) standard normal columns ``a``: a / |a|,
    except that each column that ``small`` selects (a mask, an index or a slice)
    takes its drawn scalar part from ``q0`` and a vector part rescaled to |q| = 1."""
    q = a / np.sqrt(_dot(a, a))
    if len(q0):
        v = a[1:, small]
        s = np.sqrt(np.maximum(1.0 - q0 * q0, 0.0))
        q[0, small], q[1:, small] = q0, v * (s / np.sqrt(_dot(v, v)))
    return q


def _random_unit_quats(rng: np.random.Generator, n: int, small_q0: bool = False) -> np.ndarray:
    """(4, n) unit quaternions, all with |q0| <= SMALL_Q0 if ``small_q0``."""
    a = rng.standard_normal((4, n))
    if small_q0:
        return _unit_quats(a, slice(None), _uniform(rng.random(n), -SMALL_Q0, SMALL_Q0))
    return _unit_quats(a, [], [])


def random_unit_quat(rng: np.random.Generator, small_q0: bool = False) -> Quaternion:
    return Quaternion.from_array(_random_unit_quats(rng, 1, small_q0)[:, 0].tolist())


def _phase_points(rng: np.random.Generator, flags, *draws) -> np.ndarray:
    """(13 + k, n) columns of n = len(flags) phase points (flags[i]: |q0| <= SMALL_Q0),
    followed by the k rows of every ``draw(rng, n)`` in turn: one block of the stream."""
    flags = np.asarray(flags, bool)
    u, a = rng.random((10, len(flags))), rng.standard_normal((4, len(flags)))
    q = _unit_quats(a, flags, _uniform(u[6, flags], -SMALL_Q0, SMALL_Q0))
    return np.concatenate([_uniform(u[:6], -2.0, 2.0), q, _uniform(u[7:], -2.0, 2.0),
                           *(draw(rng, len(flags)) for draw in draws)])


def random_phase_point(rng: np.random.Generator, chart: Chart,
                       small_q0: bool = False) -> PhasePoint:
    return PhasePoint.from_coords(_phase_points(rng, [small_q0])[:, 0], chart)


def _small_q0_flags(rng: np.random.Generator, n: int) -> np.ndarray:
    flags = np.zeros(n, dtype=bool)
    flags[:max(1, int(SMALL_Q0_FRACTION * n))] = True
    rng.shuffle(flags)
    return flags


# Pass widths, in points.  _BLOCK fixes the stream's phase-point draws, so it stays
# 256; the others size the temporaries alone.  The Jacobi and Poisson-map chunks keep
# their largest arrays, (k, 7, 7, 7) and (k, 13, 13), under glibc's 128 KB mmap
# threshold, so on the heap whatever ran before; 1024 algebra columns ran slower.
_BLOCK, _ALGEBRA_BLOCK, _JACOBI_CHUNK, _POISSON_MAP_CHUNK = 256, 2048, 32, 96


def _spans(n: int, width: int) -> list[slice]:
    """Consecutive slices of at most ``width`` indices that cover range(n)."""
    return [slice(i, min(i + width, n)) for i in range(0, n, width)]


def _blocks(rng: np.random.Generator, flags: np.ndarray, *draws):
    """Per block of ``flags``, the block and its columns from :func:`_phase_points`."""
    return ((flags[c], _phase_points(rng, flags[c], *draws)) for c in _spans(len(flags), _BLOCK))


def _chunked(kernel, z: np.ndarray, width: int, *args) -> float:
    """The worst |kernel(chunk, *args)| over the chunks of at most ``width`` columns of ``z``."""
    return _most(_worst(kernel(z[:, c], *args), 0.0) for c in _spans(z.shape[1], width))


def _polynomial_terms(rng: np.random.Generator, indices, n_terms: int, n: int) -> np.ndarray:
    """(3, n_terms, n) terms (coef, a, b) of n random polynomials, one per column;
    see :func:`random_polynomial` and the stream in the module docstring."""
    shape = (2, max(1, n_terms), n)
    k, u = rng.integers(len(indices), size=shape), rng.random(shape)
    a, b = np.asarray(indices, float)[k]
    b[u[0] >= 0.5] = -1.0
    b[0] = -1.0  # the first term is linear
    return np.stack([_uniform(u[1], -1.0, 1.0), a, b])


def _polynomial(terms: np.ndarray, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Value and gradient of (3, T) terms at (13,) coordinates, or of (3, T, n)
    terms, one polynomial per column, at (13, n) columns, with the operations of
    the DynamicVariable tree of the terms: c (z_a z_b) and c (z_a e_b + z_b e_a),
    summed from the first term.  Index -1 reads z = 1 and e = 0, which gives a
    linear term c z_a and c e_a exactly."""
    coef, a, b = terms[0], terms[1].astype(int), terms[2].astype(int)
    z1 = np.concatenate([z, np.ones_like(z[:1])])
    za, zb = np.take_along_axis(z1, a, axis=0), np.take_along_axis(z1, b, axis=0)
    e = np.eye(N_COORDS, N_COORDS + 1)  # column -1 is zero
    grads = coef * (za * e[:, b] + zb * e[:, a])
    return functools.reduce(np.add, coef * (za * zb)), functools.reduce(np.add, grads.swapaxes(0, 1))


def random_polynomial(rng: np.random.Generator, chart: Optional[Chart] = None,
                      indices: tuple[int, ...] = tuple(range(6, 13)),
                      n_terms: int = 5) -> DynamicVariable:
    """Random degree-<=2 polynomial in the chosen coordinates, analytic grad:
    the sum of ``n_terms`` terms (coef, a, b), each c z_a z_b or, for b = -1,
    c z_a, with indices drawn from ``indices`` and c uniform in [-1, 1]; the
    first term is linear, each later one quadratic with probability 1/2."""
    terms = _polynomial_terms(rng, indices, n_terms, 1)[..., 0]
    return DynamicVariable(lambda z: _polynomial(terms, z)[0], lambda z: _polynomial(terms, z)[1],
                           name="polynomial", chart=chart)


# ---------------------------------------------------------------------------
# quaternion algebra and the rotation maps


def _worst(x, y) -> float:
    """Largest componentwise |x - y| over all samples (0.0 for no samples, NaN if any is NaN)."""
    return float(np.max(np.abs(np.subtract(x, y)), initial=0.0))


def _most(values) -> float:
    """The largest of ``values`` (0.0 for none), NaN if any is NaN: the one fold of
    a check's residuals over its parts and blocks.  The builtin max would keep a
    NaN only when it comes first."""
    return float(np.max(list(values), initial=0.0))


def algebra_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Identities of the quaternion product, conjugation, norm and inverse."""
    e0, gen = np.eye(4)[:, :1], np.eye(4)[:, 1:]  # basis columns

    # e_r e_s = -delta_rs e0 + eps_rst e_t, all nine products at once
    prods = _mul(gen[:, :, None], gen[:, None, :])
    expect = np.concatenate([-np.eye(3)[None], np.moveaxis(poisson.LEVI, 2, 0)])
    out = [CheckResult("defining relations e_r e_s", _worst(prods, expect), 0.0, 9)]

    rows = []
    for s in _spans(n, _ALGEBRA_BLOCK):
        # three (4, k) operands, one column per sample
        a, b, c = rng.standard_normal((s.stop - s.start, 3, 4)).transpose(1, 2, 0)
        ab = _mul(a, b)
        w_ident = _most((_worst(_mul(e0, a), a), _worst(_mul(a, e0), a)))
        w_assoc = _worst(_mul(a, _mul(b, c)), _mul(ab, c))
        w_conj = _worst(_conj(ab), _mul(_conj(b), _conj(a)))
        na = np.sqrt(_norm2(a))
        nab = na * np.sqrt(_norm2(b))
        w_norm = _worst((np.sqrt(_norm2(ab)) - nab) / np.maximum(nab, 1e-300), 0.0)
        big = a[:, na > 1e-8]
        w_inv = _worst(_mul(big, _inv(big)), e0)

        x, y = a[1:], b[1:]
        xy, yx = np.array(_mul((0.0, *x), (0.0, *y))), np.array(_mul((0.0, *y), (0.0, *x)))
        zero = np.zeros(a.shape[1])
        dot = x[0] * y[0] + x[1] * y[1] + x[2] * y[2]
        w_pure = _most((_worst(0.5 * (xy + yx), (-dot, zero, zero, zero)),
                        _worst(0.5 * (xy - yx), (zero, *np.cross(x, y, axis=0)))))

        # R_b a as a running sum over j: every column has the bits of that sum on one
        # sample, for any n (an einsum's summation order depends on the shape)
        w_ract = _worst(sum(r * x for r, x in zip(right_action_matrix(b).swapaxes(0, 1), a)), ab)
        rows.append((w_ident, w_assoc, w_conj, w_norm, w_inv, w_pure, w_ract))

    worst = np.max(np.reshape(rows, (-1, 7)), axis=0, initial=0.0)
    return out + [CheckResult(name, float(w), tol, n) for (name, tol), w in zip([
        ("identity element e0", 0.0), ("associativity a(bc) = (ab)c", 1e-13),
        ("anti-homomorphism (ab)^dag = b^dag a^dag", 1e-13),
        ("norm multiplicativity |ab| = |a||b| (rel)", 1e-13), ("inverse q q^-1 = e0", 1e-13),
        ("pure products give dot and cross", 1e-13), ("right-action matrix R_b q = q b", 1e-13),
    ], worst)]


def rotation_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Group homomorphism, double cover, and matrix->quaternion roundtrips."""
    hom, cover, trip, pres = [], [], [], []
    flags, spans = _small_q0_flags(rng, n), _spans(n, _ALGEBRA_BLOCK)
    # the small scalars of the flagged q2, drawn in sample order and split by block
    q0s = np.split(_uniform(rng.random(np.count_nonzero(flags)), -SMALL_Q0, SMALL_Q0),
                   np.cumsum([np.count_nonzero(flags[s]) for s in spans[:-1]]))
    for s, q0 in zip(spans, q0s):
        a1, a2 = rng.standard_normal((s.stop - s.start, 2, 4)).transpose(1, 2, 0)
        q1, q2 = _unit_quats(a1, [], []), _unit_quats(a2, flags[s], q0)
        # G(q1) G(q2) as a running sum over j, as in algebra_checks
        product = sum(g1[:, None] * g2 for g1, g2 in zip(so3._matrix(q1).swapaxes(0, 1),
                                                         so3._matrix(q2)))
        hom.append(_worst(so3._matrix(_mul(q1, q2)), product))
        cover.append(_worst(so3._matrix(-q1), so3._matrix(q1)))
        r, _ = so3._quat_of_matrix(so3._matrix(q2))
        trip.append(np.max(np.minimum(np.max(np.abs(r - q2), axis=0),
                                      np.max(np.abs(r + q2), axis=0)), initial=0.0))
    out = [CheckResult("homomorphism G(q1 q2) = G(q1) G(q2)", _most(hom), 1e-13, n),
           CheckResult("double cover G(-q) = G(q)", _most(cover), 0.0, n),
           CheckResult("roundtrip matrix_to_quat(quat_to_matrix(q)) in {q,-q}",
                       _most(trip), 1e-12, n)]

    m = max(1, n // 10)
    for s in _spans(m, _ALGEBRA_BLOCK):
        # per sample: a unit quaternion as random_unit_quat draws it, then x and y
        w = rng.standard_normal((s.stop - s.start, 10)).T
        u, x, y = _unit_quats(w[0:4], [], []), w[4:7], w[7:10]
        # rotate_vector: the vector part of u v u^dag
        rx, ry, rxy = (np.array(_mul(_mul(u, (0.0, *v)), _conj(u))[1:])
                       for v in (x, y, np.cross(x, y, axis=0)))
        pres += _worst(_dot(rx, ry), _dot(x, y)), _worst(np.cross(rx, ry, axis=0), rxy)
    out.append(CheckResult("rotation preserves dot and cross", _most(pres), 1e-13, m))
    return out


def maurer_cartan_checks(rng: np.random.Generator, n: int,
                         h: float = 1e-4) -> list[CheckResult]:
    """Right-invariant derivative identity under central differences, drawn and evaluated
    on columns in blocks of ``_BLOCK`` samples.  The ratio check is the median of r(h)/r(h/2)
    over samples, so at ``--points 1`` it is one path's own, which fails at seeds 8, 32, 63,
    64, 82, 86 and 98 of 0-99: there r(h) is already at the rounding level."""
    residuals, ratios = [], []
    for c in _spans(n, _BLOCK):
        # per sample column: the normals of a unit-quaternion base, u and v, then
        # the doubles of alpha, beta and t0
        w, r = rng.standard_normal((10, c.stop - c.start)), rng.random((3, c.stop - c.start))
        base, (alpha, beta) = _unit_quats(w[:4], [], []), _uniform(r[:2], 0.2, 0.8)
        t0 = _uniform(r[2], -1.0, 1.0)

        def path(t):
            return _mul(_mul(_axis_angle(w[4:7], alpha * t), base), _axis_angle(w[7:10], beta * t))

        q_t = path(t0)
        r_h, r_half = (so3._maurer_cartan_residuals(path(t0 - k), q_t, path(t0 + k), k)
                       for k in (h, 0.5 * h))
        keep = ~(r_half <= 1e-13)  # a NaN r(h/2) is kept, so the median reads NaN
        residuals.append(_worst(r_h, 0.0))
        ratios.append(r_h[keep] / r_half[keep])
    out = [CheckResult("derivative identity residual at h=1e-4", _most(residuals), 1e-7, n)]
    ratios = np.concatenate(ratios)
    med = float(np.median(ratios)) if len(ratios) else 4.0
    out.append(CheckResult("halving-step convergence ratio - 4", abs(med - 4.0), 0.5, len(ratios)))
    return out


# ---------------------------------------------------------------------------
# bracket layer


def bracket_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Structure-tensor tables against the quaternion-product forms."""
    anti, mu, m, xp = [], [], [], []  # per-block residuals of the four tables
    # each sample draws an inertial point, then a mixed one
    for _, z in _blocks(rng, np.repeat(_small_q0_flags(rng, n), 2)):
        z_mu, z_m = z[:, 0::2], z[:, 1::2]
        J_mu = poisson._tensor_components(z_mu, Chart.INERTIAL_MU)
        J_m = poisson._tensor_components(z_m, Chart.MIXED_M)
        anti += _worst(J_mu, -np.swapaxes(J_mu, 1, 2)), _worst(J_m, -np.swapaxes(J_m, 1, 2))
        # {q_mu, mom_i} columns against the product forms e_i q and q e_i
        for k in range(3):
            e = Quaternion.basis(k + 1)
            mu.append(_worst(J_mu[:, 6:10, 10 + k].T, _mul(e, z_mu[6:10])))
            m.append(_worst(J_m[:, 6:10, 10 + k].T, _mul(z_m[6:10], e)))
        xp.append(_worst(J_mu[:, 0:3, 3:6], np.eye(3)))
    out = [CheckResult("antisymmetry J + J^T = 0", _most(anti), 0.0, n),
           CheckResult("inertial chart: {q, mu_i} = e_i q", _most(mu), 1e-14, n),
           CheckResult("mixed chart: {q, M_i} = q e_i", _most(m), 1e-14, n),
           CheckResult("canonical block {x_i, p_j} = delta_ij", _most(xp), 0.0, n)]

    nc = max(1, n // 10)
    # grad(FG) = F grad(G) + G grad(F)
    worst = _most(_worst(_j_grad(z, _MU, vF * gG + vG * gF, gH),
                         vF * _j_grad(z, _MU, gG, gH) + vG * _j_grad(z, _MU, gF, gH))
                  for z, (vF, gF), (vG, gG), (_, gH) in _with_polynomials(rng, nc, 3, range(6, 13)))
    out.append(CheckResult("Leibniz rule {FG, H} = F{G,H} + G{F,H}", worst, 1e-10, nc))

    # an inertial point, then a mixed one; {|q|^2, z_I} for all 13 basis gradients at once
    worst = _most(_worst(_j_grad(zc, chart, (*[0.0] * 6, *(2.0 * zc[6:10]), 0.0, 0.0, 0.0),
                                 np.eye(N_COORDS)[..., None]), 0.0)
                  for _, z in _blocks(rng, np.zeros(2 * nc, bool))
                  for zc, chart in ((z[:, 0::2], Chart.INERTIAL_MU), (z[:, 1::2], Chart.MIXED_M)))
    out.append(CheckResult("norm function commutes with all generators", worst, 1e-11, nc))

    # b: a unit quaternion per point, and b = 1 on the points with a small q0
    worst = _most(_worst(poisson._covariance_residuals(zc, b), 0.0)
                  for flags, z in _blocks(rng, _small_q0_flags(rng, n), _random_unit_quats)
                  for zc, b in ((z[:13], z[13:]), (z[:13, flags], Quaternion.identity())))
    out.append(CheckResult("right-translated q b obeys the same brackets", worst, 1e-11, n))
    return out


def jacobi_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    out = [CheckResult(f"Jacobi cyclic residual ({chart.value})",
                       _most(_chunked(poisson._jacobi_residuals, z, _JACOBI_CHUNK, chart)
                             for _, z in _blocks(rng, _small_q0_flags(rng, n))), 1e-12, n)
           for chart in (Chart.INERTIAL_MU, Chart.MIXED_M)]
    control = _most(_chunked(poisson._jacobi_residuals, z, _JACOBI_CHUNK, Chart.INERTIAL_MU, True)
                    for _, z in _blocks(rng, np.zeros(min(n, 100), bool)))
    out.append(CheckResult("negative control (flipped sign) residual", control, 0.1,
                           min(n, 100), mode="min"))
    return out


def poisson_map_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    worst = _most(_chunked(poisson._poisson_map_residuals, z, _POISSON_MAP_CHUNK)
                  for _, z in _blocks(rng, _small_q0_flags(rng, n)))
    return [CheckResult("push-forward brackets to (Q, pi)", worst, 1e-11, n)]


def _with_polynomials(rng: np.random.Generator, n: int, k: int, indices):
    """Per block of n phase points, each followed by k random polynomials: z, (value, grad), ..."""
    draws = [lambda rng, n: _polynomial_terms(rng, indices, 5, n).reshape(15, n)] * k
    for _, z in _blocks(rng, np.zeros(n, bool), *draws):
        yield (z[:13], *(_polynomial(t, z[:13]) for t in z[13:].reshape(k, 3, 5, -1)))


def symplectic_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    worst = _most(_worst(_forms(z, _j_grad(z, _MU, None, gF)[6:], _j_grad(z, _MU, None, gG)[6:]),
                         _j_grad(z, _MU, gF, gG))
                  for z, (_, gF), (_, gG) in _with_polynomials(rng, n, 2, range(6, 13)))
    out = [CheckResult("duality Omega(X_F, X_G) = {F, G}", worst, 1e-9, n)]

    worst = []
    # after each point a tangent: w - <w, q> q and a mom-block
    for _, z in _blocks(rng, np.zeros(n, bool), lambda rng, n: rng.standard_normal((4, n)),
                        lambda rng, n: rng.random((3, n))):
        w, q = z[13:17], z[6:10]
        u = np.concatenate([w - _dot(w, q) * q, _uniform(z[17:20], -2.0, 2.0)])
        worst.append(_worst(_forms(z[:13], u, u), 0.0))
    out.append(CheckResult("antisymmetry Omega(u, u) = 0", _most(worst), 0.0, n))

    worst = []
    for _, z in _blocks(rng, np.zeros(n, bool)):
        q0, q1, q2, q3 = z[6:10]
        # q-block columns of the momentum fields: the closed-form eta table
        eta = [(-q1, q0, -q3, q2), (-q2, q3, q0, -q1), (-q3, -q2, q1, q0)]
        for k in range(3):
            field = _j_grad(z, _MU, None, np.eye(N_COORDS)[10 + k])
            # the Liouville form on the left-invariant field returns mu_k
            worst += _worst(field[6:10], eta[k]), _worst(_forms(z, field[6:], None), z[10 + k])
    out.append(CheckResult("left-invariant fields and the eta table", _most(worst), 1e-13, n))

    worst = _most(w for z, (_, gF), (_, gG) in _with_polynomials(rng, n, 2, range(6, 10))
                  for w in (_worst(_j_grad(z, _MU, None, gF)[0:10], 0.0),
                            _worst(_j_grad(z, _MU, gF, gG), 0.0)))
    out.append(CheckResult("orientation-only functions commute; fields are pure momentum",
                           worst, 1e-15, n))
    return out


# ---------------------------------------------------------------------------
# dynamics oracle


@functools.lru_cache(maxsize=None)  # built once, so each rhs compiles once per process
def _oracle_params() -> tuple[dynamics.BodyParams, ...]:
    inertia = dynamics.InertiaTensor(1.0, 2.0, 3.0)
    pots = [dynamics.free(), dynamics.linear_gravity(1.0, 9.81),
            dynamics.heavy_top(1.0, 9.81, 1.0), dynamics.harmonic(1.0)]
    return tuple(dynamics.BodyParams(1.0, inertia, pot) for pot in pots)


def dynamics_oracle_checks(rng: np.random.Generator, n: int) -> list[CheckResult]:
    """Algebraic equations of motion against the bracket engine J grad(H)."""
    out = []
    for params in _oracle_params():
        rhs, grad_h = dynamics._make_rhs(params), dynamics._make_h(params)[1]
        worst = _most(w for _, z in _blocks(rng, np.zeros(n, bool))
                      for w in map(_worst, rhs(list(z)),
                                   _j_grad(z, Chart.MIXED_M, None, grad_h(list(z)))))
        out.append(CheckResult(f"eom_rhs = J grad(H), potential {params.potential.name}",
                               worst, 1e-9, n))

    params = _oracle_params()[2]  # heavy top: the only torque-generating builtin
    z = _phase_points(rng, np.zeros(min(n, 200), bool))
    q = z[6:10]
    g = np.array(params.potential._grad_q(z[0:3], q))
    expanded = g[0] * q[1:] - q[0] * g[1:] - np.cross(g[1:], q[1:], axis=0)
    compact = -np.array(_mul(_conj(q), g)[1:])
    out.append(CheckResult("expanded and compact torque forms agree", _worst(expanded, compact),
                           1e-12, min(n, 200)))

    inertia, h = params.inertia, 1e-6
    moments = inertia.i1, inertia.i2, inertia.i3
    M = _uniform(rng.random((min(n, 200), 3)), -2.0, 2.0).T[:, None]  # (3, 1, n) columns
    dM = h * np.eye(3)[:, :, None]  # dM[:, i]: the step along M_i
    fd = (dynamics._spin(*(M + dM), *moments) - dynamics._spin(*(M - dM), *moments)) / (2 * h)
    worst = _worst(2.0 * fd, dynamics.angular_velocity(M[:, 0], inertia))
    out.append(CheckResult("2 dT_spin/dM equals the angular velocity", worst, 1e-8,
                           min(n, 200)))
    return out


# ---------------------------------------------------------------------------
# suite registry


# Each entry runs one suite on (rng, n).  The algebra entry looks its two
# *_checks names up at call time, so a wrapper installed over one of them (as
# a tracer does, which also replaces the other entries here) sees its calls.
SUITES: dict[str, Callable[[np.random.Generator, int], list[CheckResult]]] = {
    "algebra": lambda rng, n: algebra_checks(rng, n) + rotation_checks(rng, n),
    "brackets": bracket_checks,
    "jacobi": jacobi_checks,
    "poisson_map": poisson_map_checks,
    "maurer_cartan": maurer_cartan_checks,
    "symplectic": symplectic_checks,
    "dynamics_oracle": dynamics_oracle_checks,
}

DEFAULT_POINTS: dict[str, int] = {
    "algebra": 10000,
    "brackets": 1000,
    "jacobi": 1000,
    "poisson_map": 1000,
    "maurer_cartan": 100,
    "symplectic": 100,
    "dynamics_oracle": 1000,
}


def run_suite(name: str, seed: int = 0, n_points: Optional[int] = None) -> list[CheckResult]:
    """Run one named suite with a reproducible generator.

    Raises
    ------
    KeyError
        If the suite name is unknown.
    DomainError
        If ``n_points`` is not an integer of at least 1.
    """
    n = n_points if n_points is not None else DEFAULT_POINTS[name]
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n_points must be an integer of at least 1, got {n_points!r}")
    return SUITES[name](np.random.default_rng(seed), n)
