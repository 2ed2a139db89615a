"""Poisson structure tensors, brackets, and the symplectic form on T*S3.

Phase points carry 13 coordinates in the fixed order

    (x1, x2, x3, p1, p2, p3, q0, q1, q2, q3, mom1, mom2, mom3)

where (x, p) are the spatial center-of-mass position and linear momentum and
q is the orientation quaternion.  The meaning of the momentum block depends
on the chart tag:

``Chart.INERTIAL_MU``
    mom = mu, the doubled spatial angular momentum (mu = 2 pi).  Bracket
    table on the rotational block:

        {q_mu, q_nu} = 0
        {mu_i, q_0}  = q_i
        {mu_i, q_j}  = eps_ijk q_k - q0 delta_ij
        {mu_i, mu_j} = 2 eps_ijl mu_l

``Chart.MIXED_M``
    mom = M, the doubled body-frame angular momentum (M = q^-1 mu q):

        {q_mu, q_nu} = 0
        {M_i, q_0}   = q_i
        {M_i, q_j}   = -q0 delta_ij - eps_ijl q_l
        {M_i, M_j}   = -2 eps_ijl M_l

The two rotational tables are one formula with a chart sign s (+1 mixed,
-1 inertial): {mom_i, q_j} = -q0 delta_ij - s eps_ijk q_k and
{mom_i, mom_j} = -2 s eps_ijk mom_k.  In both charts the translational block
is canonical, {x_i, p_j} = delta_ij, and decouples from the rotational block.
Every tensor is affine in the coordinates, J(z) = J0 + dJ z with constant
J0 and dJ, read off the field below at z = 0 and at the basis points, which
lets :func:`jacobi_residual` use exact coordinate derivatives instead of
finite differences.

In quaternion algebra, with g^ = (0, g_mom) and mom^ = (0, mom), the field X = J grad is

    mixed:    X = (g_p, -g_x, q g^, -Im(q^dag g_q) - 2 Im(g^ M^))
    inertial: X = (g_p, -g_x, g^ q, -Im(g_q q^dag) + 2 Im(g^ mu^))

exactly the table on a basis gradient, and {F, G} = grad(F) . X_G.  In the mixed frame
g_mom = Omega / 2 for H = T_spin(M) + V: dq/dt = (1/2) q Omega and dM/dt = -Omega x M -
Im(q^dag grad_q V), since Im(Omega^ M^) = Omega x M; the :mod:`qhdyn.dynamics` equations.
"""

from __future__ import annotations

import enum
import functools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .errors import ChartError, DomainError, PreconditionError
from .quaternion import Quaternion, TOL_UNIT, _conj, _mul, _norm2
from . import so3

N_COORDS = 13
_Q0, _MOM0 = 6, 10  # offsets of the quaternion and momentum blocks

LEVI = np.zeros((3, 3, 3))
LEVI[0, 1, 2] = LEVI[1, 2, 0] = LEVI[2, 0, 1] = 1.0
LEVI[0, 2, 1] = LEVI[2, 1, 0] = LEVI[1, 0, 2] = -1.0


class Chart(enum.Enum):
    """Which momentum coordinate the phase point carries."""

    INERTIAL_MU = "inertial_mu"
    MIXED_M = "mixed_m"


_BASE_LABELS = ("x1", "x2", "x3", "p1", "p2", "p3", "q0", "q1", "q2", "q3")
_MOM_LABELS = {Chart.INERTIAL_MU: ("mu1", "mu2", "mu3"),
               Chart.MIXED_M: ("M1", "M2", "M3")}


def coordinate_labels(chart: Chart) -> tuple[str, ...]:
    return _BASE_LABELS + _MOM_LABELS[chart]


@dataclass(frozen=True)
class PhasePoint:
    """Phase point (x, p, q, mom) plus the chart tag for ``mom``.  A value: x, p and mom are
    read-only copies, and points compare and hash as (chart, the 13 coordinates)."""

    x: np.ndarray = field(compare=False)
    p: np.ndarray = field(compare=False)
    q: Quaternion = field(compare=False)
    mom: np.ndarray = field(compare=False)
    chart: Chart
    _z: tuple = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("x", "p", "mom"):
            v = np.array(getattr(self, name), dtype=float)
            if v.shape != (3,):
                raise DomainError(f"PhasePoint.{name} must have shape (3,), got {v.shape}")
            if not all(map(math.isfinite, v.tolist())):
                raise DomainError(f"PhasePoint.{name} has non-finite components")
            v.flags.writeable = False
            object.__setattr__(self, name, v)
        if not isinstance(self.q, Quaternion):
            raise DomainError(f"PhasePoint.q must be a Quaternion, got {type(self.q).__name__}")
        if not isinstance(self.chart, Chart):
            raise ChartError(f"unknown chart tag {self.chart!r}")
        object.__setattr__(self, "_z", (*self.x.tolist(), *self.p.tolist(), *self.q,
                                        *self.mom.tolist()))

    def coords(self) -> np.ndarray:
        """All 13 coordinates in the fixed (x, p, q, mom) order."""
        return np.array(self._z)

    def __reduce__(self):  # a copy or unpickled point gets read-only copies too
        return type(self), (self.x, self.p, self.q, self.mom, self.chart)

    @classmethod
    def from_coords(cls, z: Sequence[float], chart: Chart) -> "PhasePoint":
        z = np.asarray(z, dtype=float)
        if z.shape != (N_COORDS,):
            raise DomainError(f"expected {N_COORDS} coordinates, got shape {z.shape}")
        return cls(z[0:3], z[3:6], Quaternion.from_array(z[6:10]), z[10:13], chart)


@dataclass(frozen=True)
class StructureTensor:
    """Antisymmetric bracket tensor J_IJ = {z_I, z_J} at a phase point."""

    j: np.ndarray
    labels: tuple[str, ...]
    chart: Chart


@functools.lru_cache(maxsize=None)
def _table(chart: Chart, corrupt: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(J0, dJ) with J(z) = J0 + dJ @ z: the one source of every tensor, read off
    :func:`_j_grad` on the 13 basis gradients at z = 0 and at each basis point.

    J is affine and every entry is a small integer, so both reads, and
    J0 + dJ @ z, are exact.  ``corrupt`` flips the sign of the {mom_1, q0}
    entry (keeping antisymmetry) and exists only as a negative control for
    the Jacobi verifier.
    """
    if not isinstance(chart, Chart):
        raise ChartError(f"unknown chart tag {chart!r}")
    eye = np.eye(N_COORDS)
    points = np.hstack([np.zeros((N_COORDS, 1)), eye])[:, :, None]  # z = 0, e_0, ..., e_12
    grads = eye[:, None].repeat(N_COORDS + 1, axis=1)  # e_K at each point
    J = np.array(_j_grad(points, chart, None, grads))  # J[I, point, K] = J_IK there
    J0, dJ = map(np.ascontiguousarray, (J[:, 0], np.moveaxis(J[:, 1:] - J[:, :1], 1, -1)))
    if corrupt:
        dJ[[_MOM0, _Q0], [_Q0, _MOM0], _Q0 + 1] *= -1.0
    J0.flags.writeable = dJ.flags.writeable = False
    return J0, dJ


def _tensor_components(z: np.ndarray, chart: Chart, corrupt: bool = False) -> np.ndarray:
    """J0 + dJ z without point validation or a copy of the cached table: (13, 13)
    at (13,) coordinates, a C-contiguous (n, 13, 13) stack at (13, n) columns.
    Each entry is +-1 or +-2 times one coordinate: exact in any summation order."""
    J0, dJ = _table(chart, corrupt)
    return J0 + (np.transpose(z) @ dJ.reshape(-1, N_COORDS).T).reshape(np.shape(z)[1:] + J0.shape)


def _j_grad(z: Sequence, chart: Chart, left, grad: Sequence):
    """X = J(z) grad of the module docstring as a list of 13 (``left`` None), or left . X
    summed in order, on 13 floats or 13 equal-shape columns like ``dynamics._make_rhs``."""
    q, g_q, g = z[_Q0:_MOM0], grad[_Q0:_MOM0], (0.0, *grad[_MOM0:])
    if chart is Chart.MIXED_M:
        dq, rot, k = _mul(q, g), _mul(_conj(q), g_q), -2.0
    else:
        dq, rot, k = _mul(g, q), _mul(g_q, _conj(q)), 2.0
    spin = _mul(g, (0.0, *z[_MOM0:]))
    X = [*grad[3:6], *(-c for c in grad[0:3]), *dq,
         *(k * s - r for r, s in zip(rot[1:], spin[1:]))]
    if left is None:
        return X
    return functools.reduce(operator.add, map(operator.mul, left, X))


def structure_jacobian(chart: Chart, corrupt: bool = False) -> np.ndarray:
    """Constant array dJ[I, J, L] = d J_IJ / d z_L for the given chart (read-only)."""
    return _table(chart, corrupt)[1]


def structure_tensor(point: PhasePoint, full: bool = True) -> StructureTensor:
    """Evaluate the chart's bracket table at a phase point.

    Returns the 13x13 tensor over (x, p, q, mom) by default, or the 7x7
    rotational block over (q, mom) with ``full=False``.
    """
    k = 0 if full else _Q0
    J = _tensor_components(_point_coords(point), point.chart)
    return StructureTensor(J[k:, k:], coordinate_labels(point.chart)[k:], point.chart)


_FD_STEP = float(np.cbrt(np.finfo(float).eps))


def _fd_partials(f: Callable[[tuple], float], v: Sequence[float]) -> list[float]:
    """Central differences of ``f`` at the float sequence ``v``, one per
    component, with step cbrt(eps) * max(1, |v_i|); ``f`` gets float tuples."""
    out = []
    for i, vi in enumerate(v):
        h = _FD_STEP * max(1.0, abs(vi))
        vp = list(v)
        vp[i] = vi + h
        vm = list(v)
        vm[i] = vi - h
        out.append((f(tuple(vp)) - f(tuple(vm))) / (2.0 * h))
    return out


def _merge_charts(a: Optional[Chart], b: Optional[Chart]) -> Optional[Chart]:
    if None not in (a, b) and a is not b:
        raise ChartError(f"chart mismatch between variables: {a} vs {b}")
    return a or b


class DynamicVariable:
    """Scalar function of a phase point with a gradient over all coordinates.

    ``fn`` maps the 13-coordinate array to a float.  When ``grad`` is given it
    must return the full 13-gradient; otherwise gradients fall back to central
    finite differences with step cbrt(eps) * max(1, |z_i|).  Variables combine
    under ``+``, ``-``, ``*`` and scalar arithmetic with exact product and sum
    rules for the gradients, which are analytic when every operand's is.

    A non-None ``chart`` restricts the variable to points of that chart: at a
    :class:`PhasePoint` of another chart ``value``, ``gradient``, ``poisson_bracket``
    and ``hamiltonian_vector_field`` raise :class:`ChartError` (a bare coordinate
    array carries no chart and is not checked).
    """

    __slots__ = ("fn", "grad_fn", "name", "chart", "_analytic")

    def __init__(self, fn: Callable[[np.ndarray], float],
                 grad: Optional[Callable[[np.ndarray], np.ndarray]] = None,
                 name: str = "", chart: Optional[Chart] = None):
        self.fn = fn
        self.grad_fn = grad
        self.name = name
        self.chart = chart
        self._analytic = grad is not None

    @property
    def has_analytic_gradient(self) -> bool:
        return self._analytic

    def _coords(self, point_or_z) -> np.ndarray:
        if isinstance(point_or_z, PhasePoint):
            return _point_coords(point_or_z, self.chart, f"variable {self.name}", None)
        return np.asarray(point_or_z, dtype=float)

    def value(self, point_or_z) -> float:
        return float(self.fn(self._coords(point_or_z)))

    def gradient(self, point_or_z) -> np.ndarray:
        z = self._coords(point_or_z)
        if self.grad_fn is not None:
            return np.asarray(self.grad_fn(z), dtype=float)
        return np.array(_fd_partials(lambda v: self.fn(np.array(v)), z.tolist()))

    def _combined(self, op, other, name: str):
        """``self op other``, op add or mul, for a variable g or a number c by the sum rule
        (f + g, df + dg; f + c, df) or the product rule (f g, f dg + g df; f c, c df)."""
        f, df, chart, analytic = self.fn, self.gradient, self.chart, self._analytic
        if isinstance(other, DynamicVariable):
            g, dg, label = other.fn, other.gradient, other.name
            chart, analytic = _merge_charts(chart, other.chart), analytic and other._analytic
            grad = ((lambda z: df(z) + dg(z)) if op is operator.add
                    else lambda z: f(z) * dg(z) + g(z) * df(z))
        elif isinstance(other, (int, float)):
            c = label = float(other)
            g = lambda z: c
            grad = df if op is operator.add else lambda z: c * df(z)
        else:
            return NotImplemented
        out = DynamicVariable(lambda z: op(f(z), g(z)), grad, name.format(self.name, label), chart)
        out._analytic = analytic
        return out

    def __add__(self, other):
        return self._combined(operator.add, other, "({0}+{1})")

    def __mul__(self, other):
        return self._combined(operator.mul, other, "({0}*{1})")

    def __neg__(self):
        return self._combined(operator.mul, -1.0, "(-{0})")

    __radd__, __rmul__ = __add__, __mul__

    def __sub__(self, other):  # -float(c): F - 0 is float subtraction, -0.0 at F = -0.0
        if isinstance(other, (int, float)):
            other = float(other)
        return self + -other if isinstance(other, (DynamicVariable, float)) else NotImplemented

    def __rsub__(self, other):
        return -self + other if isinstance(other, (int, float)) else NotImplemented

    def __repr__(self):
        return f"DynamicVariable({self.name or self.fn!r}, chart={self.chart})"


def _is_index(k, n: int) -> bool:
    """Whether ``k`` is an integer, not a bool, in 0..n-1."""
    return isinstance(k, (int, np.integer)) and not isinstance(k, bool) and 0 <= k < n


def coordinate(which: Union[int, str], chart: Optional[Chart] = None) -> DynamicVariable:
    """Coordinate function as a DynamicVariable.

    Accepts an index 0..12 or a label: x1..x3, p1..p3, q0..q3 (chart-neutral),
    mu1..mu3 (implies the inertial chart) or M1..M3 (implies the mixed chart).
    """
    if isinstance(which, str):
        charts = [c for c in Chart if which in coordinate_labels(c)]
        if not charts:
            raise DomainError(f"unknown coordinate label {which!r}")
        idx, name = coordinate_labels(charts[0]).index(which), which
        chart = _merge_charts(chart, charts[0] if idx >= _MOM0 else None)
    elif not _is_index(which, N_COORDS):
        raise DomainError(f"coordinate index must be an integer 0..12, got {which!r}")
    else:
        idx, name = int(which), f"z{int(which)}"
    e = np.eye(N_COORDS)[idx]
    return DynamicVariable(lambda z: z[idx], lambda z, e=e: e.copy(), name=name, chart=chart)


def momentum_along(xi: Sequence[float], chart: Chart = Chart.INERTIAL_MU) -> DynamicVariable:
    """Linear momentum variable <mom, xi> for a fixed 3-vector xi of finite numbers."""
    xi = np.asarray(xi, dtype=float)
    if xi.shape != (3,) or not all(map(math.isfinite, xi.tolist())):
        raise DomainError(f"momentum_along needs xi as three finite numbers, got {xi.tolist()}")
    g = np.concatenate([np.zeros(_MOM0), xi])
    return DynamicVariable(lambda z: float(z[_MOM0:] @ xi), lambda z, g=g: g.copy(),
                           name="<mom,xi>", chart=chart)


def _rotation_gradients(q0, qv) -> np.ndarray:
    """Gradients of the rotation-matrix entries Q_ab over all coordinates.

    From Q_ab = 2[(q0^2 - 1/2) d_ab + q_a q_b - q0 q_l eps_lab]:
    dQ_ab/dq0 = 4 q0 d_ab - 2 eps_lab q_l and
    dQ_ab/dq_c = 2 (d_ca q_b + d_cb q_a) - 2 q0 eps_cab.
    A float ``q0`` and (3,) ``qv`` give (3, 3, 13); (n,) and (3, n) columns
    give an (n, 3, 3, 13) stack.  (eps_lab = eps_abl.)
    """
    eye = np.eye(3)
    g = np.zeros(np.shape(q0) + (3, 3, N_COORDS))
    g[..., _Q0] = np.multiply.outer(4.0 * q0, eye) - 2.0 * np.tensordot(qv, LEVI, (0, 2))
    t = np.einsum("ca,b...->...abc", eye, qv)  # d_ca q_b; swapping a, b gives d_cb q_a
    g[..., _Q0 + 1:_MOM0] = 2.0 * (t + np.swapaxes(t, -3, -2) - np.multiply.outer(q0, LEVI))
    return g


def rotation_entry_variable(i: int, j: int) -> DynamicVariable:
    """Entry (i, j), 0-based, of the rotation matrix as a function of q.

    The value is entry (i, j) of ``so3`` Q(q); the gradient over the
    quaternion block is analytic.
    """
    if not (_is_index(i, 3) and _is_index(j, 3)):
        raise DomainError(f"rotation entry indices must be integers 0..2, got ({i!r}, {j!r})")
    return DynamicVariable(lambda z: float(so3._matrix(z[6:10])[i, j]),
                           lambda z: _rotation_gradients(z[6], z[7:10])[i, j],
                           name=f"Q{i + 1}{j + 1}")


def _point_coords(point: PhasePoint, chart: Optional[Chart] = None, who: str = "",
                  unit_tol: Optional[float] = TOL_UNIT) -> np.ndarray:
    """Coordinates after checking the chart ``who`` needs and ||q| - 1| <= unit_tol (None: skip)."""
    if chart is not None and point.chart is not chart:
        raise ChartError(f"{who} requires the {chart.name} chart")
    if unit_tol is not None:
        point.q.require_unit(unit_tol, "phase-point quaternion")
    return point.coords()


def poisson_bracket(F: DynamicVariable, G: DynamicVariable, point: PhasePoint) -> float:
    """{F, G} at the point: grad(F) . J . grad(G).

    Antisymmetric in (F, G) and a derivation in each slot.
    """
    z = _point_coords(point, _merge_charts(F.chart, G.chart), "poisson_bracket of these variables")
    return float(_j_grad(z.tolist(), point.chart, F.gradient(z).tolist(), G.gradient(z).tolist()))


def hamiltonian_vector_field(H: DynamicVariable, point: PhasePoint) -> np.ndarray:
    """Coordinate components J grad(H) of the Hamiltonian field of H.

    For any F, the bracket {F, H} equals the directional derivative of F
    along the returned 13-vector.
    """
    z = _point_coords(point, H.chart, "hamiltonian_vector_field of this variable")
    return np.array(_j_grad(z.tolist(), point.chart, None, H.gradient(z).tolist()))


def jacobi_residual(point: PhasePoint, corrupt: bool = False) -> float:
    """Max-abs entry of the cyclic Jacobi sum over all index triples.

    Evaluates J_IJ^{,L} J_LK + J_JK^{,L} J_LI + J_KI^{,L} J_LJ with the exact
    constant coordinate derivatives of the chart tensor.  Vanishes (to float
    rounding) at every valid point; ``corrupt=True`` flips one bracket-table
    sign and serves as the negative control.
    """
    return float(_jacobi_residuals(_point_coords(point), point.chart, corrupt))


def _jacobi_residuals(z: np.ndarray, chart: Chart, corrupt: bool = False) -> np.ndarray:
    """:func:`jacobi_residual` at (13,) or (13, n) coordinates, one per sample; only the
    (q, mom) block is formed, since dJ is 0 off it and J0 couples x to p alone."""
    r = slice(_Q0, None)
    dJ = structure_jacobian(chart, corrupt)[r, r, r]
    A = dJ @ _tensor_components(z, chart, corrupt)[..., None, r, r]
    cyc = A + np.moveaxis(A, -1, -3)  # summed in place: (n, 7, 7, 7) temporaries cost ms
    cyc += np.moveaxis(A, -3, -1)
    return np.abs(cyc, out=cyc).max(axis=(-3, -2, -1))


def poisson_map_residual(point: PhasePoint) -> float:
    """Residual of the bracket push-forward from (q, mu) to (Q, pi).

    With pi = mu/2 and Q the rotation matrix of q, stacks the gradients of
    the 3 pi_i and the 9 Q_jk into one (12, 13) matrix G, forms all brackets
    G J G^T at once and checks that

        {pi_i, Q_jk} = eps_ijl Q_lk,   {Q_ij, Q_kl} = 0,
        {pi_i, pi_j} = eps_ijl pi_l

    returning the largest absolute deviation.  Inertial chart only.
    """
    z = _point_coords(point, Chart.INERTIAL_MU, "poisson_map_residual")
    return float(_poisson_map_residuals(z))


def _poisson_map_residuals(z: np.ndarray) -> np.ndarray:
    """:func:`poisson_map_residual` at (13,) or (13, n) inertial coordinates."""
    lead = np.shape(z)[1:]
    G = np.zeros(lead + (12, N_COORDS))
    G[..., 0:3, _MOM0:] = 0.5 * np.eye(3)
    G[..., 3:12, :] = _rotation_gradients(z[_Q0], z[_Q0 + 1:_MOM0]).reshape(lead + (9, N_COORDS))
    pi_q = np.einsum("ijl,lk...->...ijk", LEVI, so3._matrix(z[_Q0:_MOM0])).reshape(lead + (3, 9))
    expect = np.zeros(lead + (12, 12))
    expect[..., 0:3, 0:3] = np.tensordot(0.5 * z[_MOM0:], LEVI, (0, 2))
    expect[..., 0:3, 3:12] = pi_q
    expect[..., 3:12, 0:3] = -np.swapaxes(pi_q, -1, -2)
    brackets = G @ _tensor_components(z, Chart.INERTIAL_MU) @ np.swapaxes(G, -1, -2)
    return np.abs(brackets - expect).max(axis=(-2, -1))


def right_translation_covariance_check(point: PhasePoint, b: Quaternion) -> float:
    """Check that p = q b obeys the same brackets with pi as q itself.

    The field of mu_i = 2 pi_i moves q along e_i q, so {pi_i, (q b)_mu} = -1/2 ((e_i q) b)_mu;
    returns its max deviation from -1/2 (e_i (q b))_mu.  Inertial chart only.
    """
    z = _point_coords(point, Chart.INERTIAL_MU, "right_translation_covariance_check").tolist()
    b.require_unit(TOL_UNIT, "right-translation quaternion")
    qb = _mul(z[_Q0:_MOM0], b)
    fields = [_covariance_terms(z, b, qb, grad) for grad in np.eye(N_COORDS)[_MOM0:].tolist()]
    return float(0.5 * np.abs(fields).max())


def _covariance_terms(z, b, qb, grad) -> list:
    """(e_i q) b - e_i (q b), ``qb`` = q b, at 13 floats or (13, n) columns for the field of
    mu_i of gradient ``grad``: 13 floats (one field; no numpy call) or several on axis 0."""
    e_q_b = _mul(_j_grad(z, Chart.INERTIAL_MU, None, grad)[_Q0:_MOM0], b)  # field q-block e_i q
    return list(map(operator.sub, e_q_b, _mul((0.0, *grad[_MOM0:]), qb)))


def _covariance_residuals(z, b) -> np.ndarray:
    """:func:`right_translation_covariance_check` on (13, n) columns, all three fields at once."""
    qb, grad = _mul(z[_Q0:_MOM0], b), np.eye(N_COORDS)[:, _MOM0:, None]
    return 0.5 * np.abs(_covariance_terms(z, b, qb, grad)).max(axis=(0, 1))


def _rotational_vector(vec) -> np.ndarray:
    v = np.asarray(vec, dtype=float)
    if v.shape not in ((N_COORDS,), (7,)):
        raise DomainError(f"expected a 7- or 13-vector, got shape {v.shape}")
    return v[-7:]


def _dq_of(q, u, what: str):
    """dq = Im(u_q q^dag) on the q-blocks u_q = u[0:4]; Re(u_q q^dag) = <u_q, q> must vanish."""
    normal, *dq = _mul(u[0:4], _conj(q))
    if np.any(abs(normal) > 1e-9 * np.maximum(1.0, np.sqrt(_norm2(u[0:4])))):
        raise PreconditionError(f"{what} is not tangent to the unit sphere at q")
    return dq


def _forms(z, u, v):
    """Liouville form <mu, dq(u)> (``v`` None) or symplectic form Omega(u, v) at
    13 floats or (13, n) inertial columns, for 7 (q, mom) floats or columns."""
    m1, m2, m3 = z[_MOM0:]
    a1, a2, a3 = _dq_of(z[_Q0:_MOM0], u, "u")
    if v is None:
        return m1 * a1 + m2 * a2 + m3 * a3
    b1, b2, b3 = _dq_of(z[_Q0:_MOM0], v, "v")
    u1, u2, u3 = u[4:7]
    v1, v2, v3 = v[4:7]
    c1, c2, c3 = a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1  # dq(u) x dq(v)
    return ((a1 * v1 + a2 * v2 + a3 * v3) - (b1 * u1 + b2 * u2 + b3 * u3)) + -2.0 * (
        m1 * c1 + m2 * c2 + m3 * c3)


def liouville_form_eval(point: PhasePoint, u) -> float:
    """Canonical one-form mu_i (u_q q^-1)^i on a tangent vector u.

    ``u`` is a 7-vector (q-block, mom-block) or a full 13-vector whose
    rotational block is used; its q-part must be tangent: <q, u_q> = 0.
    """
    z = _point_coords(point, Chart.INERTIAL_MU, "liouville_form_eval")
    return float(_forms(z.tolist(), _rotational_vector(u).tolist(), None))


def symplectic_form_eval(point: PhasePoint, u, v) -> float:
    """Canonical symplectic form on two tangent vectors at the point.

    With dq = (tangent q-block) q^-1, evaluates

        Omega(u, v) = <dq(u), v_mom> - <dq(v), u_mom> - 2 <mu, dq(u) x dq(v)>

    For Hamiltonian fields X_F, X_G this reproduces the bracket:
    Omega(X_F, X_G) = {F, G}.
    """
    z = _point_coords(point, Chart.INERTIAL_MU, "symplectic_form_eval")
    return float(_forms(z.tolist(), _rotational_vector(u).tolist(), _rotational_vector(v).tolist()))
