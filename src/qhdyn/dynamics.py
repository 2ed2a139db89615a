"""Rigid-body Hamiltonian, algebraic equations of motion, and an integrator.

The state lives in the mixed chart: (x, p) are spatial, the quaternion q maps
body to space, and M is the doubled body-frame angular momentum.  With
Omega_i = M_i / (2 I_i) the equations of motion are purely algebraic:

    dx/dt = p / m
    dp/dt = -dV/dx
    dq/dt = (1/2) q Omega            (Omega as a pure quaternion)
    dM/dt = -Omega x M - Im(q^-1 grad_q V)

where grad_q V is the 4-component quaternion gradient of the potential and
Im takes the vector part: the field J grad(H) of :mod:`qhdyn.poisson`, its oracle.

The energy is H = p^2/(2m) + (M1^2/I1 + M2^2/I2 + M3^2/I3)/8 + V(x, q);
the factor 1/8 reflects the doubling M = 2 Pi of the physical momentum.
These equations, H, grad(H), the monitor row and each built-in V are written
once, as source-line templates compiled per BodyParams.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, IntegrationAborted
from .poisson import Chart, DynamicVariable, PhasePoint, _fd_partials, _point_coords
from .quaternion import TOL_UNIT

Vec3 = np.ndarray

log = logging.getLogger("qhdyn")
ROWS_PER_BATCH = 64  # samples per compiled block of _samples, and CSV rows formatted in one call


@dataclass(frozen=True)
class InertiaTensor:
    """Principal moments of inertia (body frame, kg m^2), all positive."""

    i1: float
    i2: float
    i3: float

    def __post_init__(self):
        for name in ("i1", "i2", "i3"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise DomainError(f"inertia {name} must be a positive finite number, got {v!r}")
            object.__setattr__(self, name, v)
        # A rigid body made of real mass satisfies the triangle inequalities;
        # exotic values are allowed but flagged.
        for a, b, c in ((self.i1, self.i2, self.i3),
                        (self.i2, self.i3, self.i1),
                        (self.i3, self.i1, self.i2)):
            if a + b < c:
                log.warning("inertia triangle inequality violated: %s + %s < %s", a, b, c)
                break

    def as_array(self) -> np.ndarray:
        return np.array([self.i1, self.i2, self.i3])


def _floats(a) -> tuple:
    """A 1-D numeric sequence as a tuple of Python floats."""
    return tuple(np.asarray(a, dtype=float).tolist())


class PotentialSpec:
    """Potential V(x, q) with positional and quaternion gradients.

    ``value(x, q4)`` returns joules; ``grad_x(x, q4)`` and ``grad_q(x, q4)``
    return the 3-component gradient dV/dx and the 4-component quaternion
    gradient (dV/dq0, ..., dV/dq3).  The library calls all three with float
    sequences: ``x`` the position 3-vector and ``q4`` the quaternion, scalar
    first, each a tuple of Python floats.  The gradients may return any
    sequence of numbers.  Analytic gradients are optional; missing ones fall
    back to central finite differences of ``value``.  A sample block that fails
    is stepped again from its start one step at a time, calling the potential
    again at the same states (the block may have called it past the failing
    one): the reported abort step assumes the same result for the same input.
    """

    __slots__ = ("name", "value", "analytic_grad_x", "analytic_grad_q", "_grad_x", "_grad_q",
                 "_source")

    def __init__(self, name: str,
                 value: Callable[[Sequence[float], Sequence[float]], float],
                 grad_x: Optional[Callable[[Sequence[float], Sequence[float]],
                                           Sequence[float]]] = None,
                 grad_q: Optional[Callable[[Sequence[float], Sequence[float]],
                                           Sequence[float]]] = None):
        self.name = name
        self.value = value
        self.analytic_grad_x = grad_x is not None
        self.analytic_grad_q = grad_q is not None
        # Float-tuple gradients used by the integrator; the public methods
        # below wrap them for arrays.
        if grad_x is None:
            def grad_x(x, q4):
                return _fd_partials(lambda v: value(v, q4), x)
        if grad_q is None:
            def grad_q(x, q4):
                return _fd_partials(lambda v: value(x, v), q4)
        self._grad_x = grad_x
        self._grad_q = grad_q
        # the lines of the templates and their globals: calls here, expressions for a built-in
        self._source = ({"grad_x": _CALL.format("grad_x"), "grad_q": _CALL.format("grad_q"),
                         "value": f"float({_CALL.format('value')})"},
                        {"grad_x": grad_x, "grad_q": grad_q, "value": value})

    def gradient_x(self, x: Sequence[float], q4: Sequence[float]) -> np.ndarray:
        """Positional gradient dV/dx as a float array."""
        return np.array(self._grad_x(_floats(x), _floats(q4)), dtype=float)

    def gradient_q(self, x: Sequence[float], q4: Sequence[float]) -> np.ndarray:
        """4-component quaternion gradient (dV/dq0, dV/dq1, dV/dq2, dV/dq3)."""
        return np.array(self._grad_q(_floats(x), _floats(q4)), dtype=float)

    def __repr__(self):
        return f"PotentialSpec({self.name!r})"


@dataclass(frozen=True)
class BodyParams:
    """Mass, principal inertia and potential of one rigid body."""

    mass: float
    inertia: InertiaTensor
    potential: PotentialSpec

    def __post_init__(self):
        m = float(self.mass)
        if not (math.isfinite(m) and m > 0.0):
            raise DomainError(f"mass must be positive and finite, got {m!r}")
        object.__setattr__(self, "mass", m)


@dataclass(frozen=True)
class RenormPolicy:
    """When to project the integrated quaternion back to unit norm."""

    mode: str  # "none" | "every_step" | "threshold"
    eps: float = 1e-9

    @classmethod
    def none(cls) -> "RenormPolicy":
        return cls("none")

    @classmethod
    def every_step(cls) -> "RenormPolicy":
        return cls("every_step")

    @classmethod
    def threshold(cls, eps: float = 1e-9) -> "RenormPolicy":
        return cls("threshold", eps)

    def __post_init__(self):
        if self.mode not in ("none", "every_step", "threshold"):
            raise DomainError(f"unknown renormalization mode {self.mode!r}; "
                              "expected none, every_step or threshold")
        eps = float(self.eps)
        if not (math.isfinite(eps) and eps > 0.0):
            raise DomainError(f"renormalization threshold must be positive and finite, got {eps!r}")
        object.__setattr__(self, "eps", eps)


DEFAULT_RENORM = RenormPolicy.threshold(1e-9)


@dataclass(frozen=True)
class MonitorRecord:
    """Conserved-quantity snapshot: energy, |q|, |M| and spatial momentum."""

    energy: float
    qnorm: float
    mom_norm: float
    pi_spatial: np.ndarray


@dataclass
class Trajectory:
    """Sampled integrator output in the mixed chart, with monitors."""

    times: np.ndarray          # (k,)
    states: np.ndarray         # (k, 13) in (x, p, q, M) coordinate order
    energy: np.ndarray         # (k,)
    qnorm: np.ndarray          # (k,)
    mom_norm: np.ndarray       # (k,)
    pi_spatial: np.ndarray     # (k, 3)
    h: float
    n_steps: int

    def __len__(self) -> int:
        return self.times.size

    def point(self, i: int) -> PhasePoint:
        return PhasePoint.from_coords(self.states[i], Chart.MIXED_M)

    def monitor(self, i: int) -> MonitorRecord:
        return MonitorRecord(float(self.energy[i]), float(self.qnorm[i]),
                             float(self.mom_norm[i]), self.pi_spatial[i].copy())


def angular_velocity(M: Sequence[float], inertia: InertiaTensor) -> Vec3:
    """Body angular velocity Omega_i = M_i / (2 I_i), as the integrator forms it: M_i d_i with
    d_i = 0.5 / I_i.  ``M`` is three components or three equal-shape columns."""
    m1, m2, m3 = np.asarray(M, dtype=float)
    return np.array(_omega(m1, m2, m3, 0.5 / inertia.i1, 0.5 / inertia.i2, 0.5 / inertia.i3))


def spin_kinetic(M: Sequence[float], inertia: InertiaTensor) -> float:
    """Rotational kinetic energy (M1^2/I1 + M2^2/I2 + M3^2/I3) / 8."""
    return _spin(*_floats(M), inertia.i1, inertia.i2, inertia.i3)


def hamiltonian_eval(state: PhasePoint, params: BodyParams) -> float:
    """Total energy p^2/(2m) + T_spin(M) + V(x, q)."""
    z = _point_coords(state, Chart.MIXED_M, "hamiltonian_eval", None)
    return _make_h(params)[0](z.tolist())


def hamiltonian_variable(params: BodyParams) -> DynamicVariable:
    """The Hamiltonian as a DynamicVariable on the mixed chart; its gradient is assembled
    analytically from the potential gradients (which may fall back to finite differences)."""
    energy, grad_h, _ = _make_h(params)
    return DynamicVariable(lambda z: energy(z.tolist()),
                           lambda z: np.array(grad_h(z.tolist()), dtype=float),
                           name="H", chart=Chart.MIXED_M)


# The equations of motion, H, grad(H) and the monitor row, written once as source lines over
# the names of _STATE, with the potential's lines in place of {grad_x}, {grad_q} and {value}.
# They compile per BodyParams into the rhs, the fused RK4 step (_EOM once per stage), H,
# grad(H) and the row; numbers (mass, inertia, the potential's constants) reach the code only
# as keyword-only parameters with the body's values as defaults, never as source text.
_STATE = ("x0", "x1", "x2", "p0", "p1", "p2", "q0", "q1", "q2", "q3", "m1", "m2", "m3")
_GRAD = ("gx0, gx1, gx2 = {grad_x}", "g0, g1, g2, g3 = {grad_q}")
_EOM = ("o1 = m1 * d1", "o2 = m2 * d2", "o3 = m3 * d3", *_GRAD)
_DZ = (
    "p0 * inv_m", "p1 * inv_m", "p2 * inv_m", "-gx0", "-gx1", "-gx2",
    # dq/dt = (1/2) q Omega with Omega pure
    "-0.5 * (q1 * o1 + q2 * o2 + q3 * o3)", "0.5 * (q0 * o1 + q2 * o3 - q3 * o2)",
    "0.5 * (q0 * o2 + q3 * o1 - q1 * o3)", "0.5 * (q0 * o3 + q1 * o2 - q2 * o1)",
    # dM/dt = -Omega x M - Im(q^dag grad_q V)
    "-(o2 * m3 - o3 * m2) - (q0 * g1 - g0 * q1 - (q2 * g3 - q3 * g2))",
    "-(o3 * m1 - o1 * m3) - (q0 * g2 - g0 * q2 - (q3 * g1 - q1 * g3))",
    "-(o1 * m2 - o2 * m1) - (q0 * g3 - g0 * q3 - (q1 * g2 - q2 * g1))",
)
# H = p^2/(2m) + T_spin(M) + V(x, q), T_spin = (M1^2/I1 + M2^2/I2 + M3^2/I3) / 8; **: see _RENORM
_SPIN = "0.125 * (m1 * m1 / i1 + m2 * m2 / i2 + m3 * m3 / i3)"
_H = f"(p0 ** 2 + p1 ** 2 + p2 ** 2) / two_m + {_SPIN} + {{value}}"
# grad(H), its momentum block M_i / (4 I_i) = Omega_i / 2
_GRAD_H = ("gx0", "gx1", "gx2", "p0 / mass", "p1 / mass", "p2 / mass", "g0", "g1", "g2", "g3",
           "m1 * e1", "m2 * e2", "m3 * e3")
# the monitor row (H, |q|, pi, |M|) with pi = vec(q M q^-1) / 2, the exact inverse q^dag / |q|^2
_ROW = ("n2 = q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3", "t0 = -(q1 * m1 + q2 * m2 + q3 * m3)",
        "t1 = q0 * m1 + q2 * m3 - q3 * m2", "t2 = q0 * m2 + q3 * m1 - q1 * m3",
        "t3 = q0 * m3 + q1 * m2 - q2 * m1", "s = 0.5 / n2")
_ROW_VALUES = (_H, "sqrt(n2)", "(-t0 * q1 + t1 * q0 - t2 * q3 + t3 * q2) * s",
               "(-t0 * q2 + t2 * q0 - t3 * q1 + t1 * q3) * s",
               "(-t0 * q3 + t3 * q0 - t1 * q2 + t2 * q1) * s", "sqrt(m1 * m1 + m2 * m2 + m3 * m3)")
# a user potential's line: a call of its callable
_CALL = "{}((x0, x1, x2), (q0, q1, q2, q3))"
# Each renorm policy's lines, after each step; x ** 2 (C pow) rounds unlike x * x for some x,
# and the trajectories are pinned bit for bit.  "threshold" runs its check ||q| - 1| > eps only
# where n2 fails -lim < n2 - 1 < lim, lim = min(eps, 1) - 1e-14 (so always if eps <= 1e-14).
# Exact: where n2 passes, n2 < 2, no square overflows and the ** sum s is within 2e-15 of n2,
# so |sqrt(s) - 1| <= |s - 1| < eps - 8e-15, and the check (rounding by < 3e-16) would not
# divide.  NaN and inf fail the test and reach the check.
_NORM = "norm = sqrt(z6 ** 2 + z7 ** 2 + z8 ** 2 + z9 ** 2)"
_DIVIDE = tuple(f"z{i} = {v} = z{i} / norm" for i, v in enumerate(_STATE[6:10], 6))
_RENORM = {"none": (), "every_step": (_NORM, *_DIVIDE),
           "threshold": ("n2 = z6 * z6 + z7 * z7 + z8 * z8 + z9 * z9",
                         "if not -lim < n2 - 1.0 < lim:", f"    {_NORM}",
                         "    if abs(norm - 1.0) > eps:", *(f"        {d}" for d in _DIVIDE))}
_Z = ", ".join(f"z{i}" for i in range(13))
_PROLOGUE = (f"{_Z} = z", "half = 0.5 * h", "sixth = h / 6.0", "lim = min(eps, 1.0) - 1e-14")
_SUM = "sixth * ({} + 2.0 * {} + 2.0 * {} + {})"  # the RK4 weights of the four slopes


def _rk4(params: BodyParams, renorm: Sequence[str]) -> tuple[list, list]:
    """``(prologue, step)``: one RK4 step, each stage _EOM written out, bit for bit
    z + (h/6) (k1 + 2 k2 + 2 k3 + k4) over _make_rhs, then ``renorm``; it leaves the new state in
    z0..z12 and in the names of _STATE, which the next step and the _ROW lines read.  Where
    component i of a built-in's grad_x is the literal 0.0, every k_{3+i} is -0.0 and
    z + t * -0.0 is z for any float z and finite t: p_i is held, so each x_i slope is p_i * inv_m
    and the prologue forms the step's increment dx_i once (no gx line if all three)."""
    fields = params.potential._source[0]
    gx = fields["grad_x"].split(", ")
    held = [i for i in range(3) if len(gx) == 3 and gx[i] == "0.0"]
    eom = [line for line in _EOM if line != _GRAD[0] or len(held) < 3]
    dz = [(i, d) for i, d in enumerate(_DZ) if i not in held and i - 3 not in held]
    return [*_PROLOGUE, *(f"dx{i} = " + _SUM.format(*[f"({_DZ[i]})"] * 4) for i in held)], [
        *itertools.chain.from_iterable(
            (*eom, *(f"k{s}_{i} = {d}" for i, d in dz),
             *(f"{_STATE[i]} = z{i} + {to_next} * k{s}_{i}" if to_next else
               f"z{i} = {_STATE[i]} = z{i} + " + _SUM.format(*(f"k{r}_{i}" for r in range(1, 5)))
               for i, _ in dz))
            for s, to_next in ((1, "half"), (2, "half"), (3, "h"), (4, None))),
        *(f"z{i} = x{i} = z{i} + dx{i}" for i in held), *renorm]


@functools.lru_cache(maxsize=64)  # a source holds no number: bodies of one kind share it
def _code(source: str, name: str):
    return compile(source, f"<qhdyn.dynamics {name}>", "exec")


def _compile(source: str, namespace: dict, name: str) -> Callable:
    """Function ``name`` of ``source`` (this module's strings only), ``namespace`` its globals."""
    exec(_code(source, name), namespace)
    return namespace[name]


_spin = _compile(f"def _spin(m1, m2, m3, i1, i2, i3):\n    return {_SPIN}", {}, "_spin")
_omega = _compile("def _omega(m1, m2, m3, d1, d2, d3):\n    " + "\n    ".join(_EOM[:3])
                  + "\n    return o1, o2, o3", {}, "_omega")


def _define(params: BodyParams, name: str, args: str, lines: Sequence[str],
            result: str) -> Callable:
    """``def name(args)``: unpack ``z`` into the names of _STATE, run ``lines``, return
    ``result``; the potential's lines for its fields, each number a keyword, read or not."""
    fields, constants = params.potential._source
    m, i1, i2, i3 = params.mass, params.inertia.i1, params.inertia.i2, params.inertia.i3
    numbers = {"inv_m": 1.0 / m, "mass": m, "two_m": 2.0 * m, "i1": i1, "i2": i2, "i3": i3,
               "d1": 0.5 / i1, "d2": 0.5 / i2, "d3": 0.5 / i3, "e1": 0.25 / i1, "e2": 0.25 / i2,
               "e3": 0.25 / i3, "sqrt": math.sqrt, **constants}
    body = "\n    ".join([f"{', '.join(_STATE)} = z", *lines, f"return {result}"]).format(**fields)
    fn = _compile(f"def {name}({args}, *, {', '.join(numbers)}):\n    {body}", {}, name)
    fn.__kwdefaults__ = numbers
    return fn


@functools.lru_cache(maxsize=8)
def _make_rhs(params: BodyParams) -> Callable[[Sequence], list]:
    """Right-hand side over the 13 mixed-chart coordinates, compiled from _EOM.

    Takes any sequence of 13, either Python floats or equal-shape numpy
    columns of many points, unpacks it once and returns a list of 13 of the
    same kind.  Plain float arithmetic: on 13 components the per-operation
    overhead of numpy arrays costs several times the arithmetic itself.
    """
    return _define(params, "rhs", "z", _EOM, f"[{', '.join(_DZ)}]")


@functools.lru_cache(maxsize=8)
def _make_step(params: BodyParams, mode: str = "none") -> Callable[..., list]:
    """The window ``step(z, h, eps=0.0)`` on 13 floats (13 columns with mode "none"): one step of
    _rk4 with the _RENORM of ``mode``, compiled per policy like :func:`_make_block`, then the 13
    coordinates.  A non-finite coordinate stays so (a step adds to it, the renorm divides q by a
    norm >= each |q_i| or NaN): a block whose rows are finite made only finite steps."""
    prologue, lines = _rk4(params, _RENORM[mode])
    return _define(params, "step", "z, h, eps=0.0", [*prologue, *lines], f"[{_Z}]")


@functools.lru_cache(maxsize=8)
def _make_block(params: BodyParams, mode: str) -> Callable[..., list]:
    """The sample block ``block(z, h, step, ks, eps)``: per count k of ``ks``, k steps of _rk4 with
    the _RENORM of ``mode`` and the _ROW lines, adding the row t = step * h, the 13 coordinates
    and the monitor row of :func:`_make_h` to one flat list of 20 floats per sample, its return."""
    prologue, lines = _rk4(params, _RENORM[mode])
    return _define(params, "block", "z, h, step, ks, eps", [
        *prologue, "out = []", "for steps in ks:", "    for _ in range(steps):",
        *(f"        {line}" for line in lines), *(f"    {line}" for line in (
            "step += steps", *_ROW, f"out += [step * h, {_Z}, {', '.join(_ROW_VALUES)}]"))], "out")


@functools.lru_cache(maxsize=8)
def _make_h(params: BodyParams) -> tuple[Callable, Callable, Callable]:
    """``(energy, grad_h, row)`` compiled from _H, _GRAD_H and _ROW over 13 floats: H, grad(H)
    as a list of 13 (like :func:`_make_rhs`, also on 13 equal-shape columns) and the monitor
    row (energy, |q|, pi1, pi2, pi3, |M|)."""
    return (_define(params, "energy", "z", (), _H),
            _define(params, "grad_h", "z", _GRAD, f"[{', '.join(_GRAD_H)}]"),
            _define(params, "row", "z", _ROW, f"({', '.join(_ROW_VALUES)})"))


def eom_rhs(state: PhasePoint, params: BodyParams, unit_tol: float = TOL_UNIT) -> np.ndarray:
    """Time derivative of the 13 mixed-chart coordinates at a state.

    Agrees with the Hamiltonian vector field J grad(H) of the poisson module. Each call checks
    and converts the state, about 5x the cached float rhs (5 vs 1 us): use :func:`integrate`.

    Raises
    ------
    ChartError
        If the state is not in the MIXED_M chart.
    PreconditionError
        If |q| deviates from 1 by more than ``unit_tol``.
    """
    z = _point_coords(state, Chart.MIXED_M, "eom_rhs", unit_tol)
    return np.array(_make_rhs(params)(z.tolist()))


def rk4_step(state: PhasePoint, params: BodyParams, h: float) -> PhasePoint:
    """One classical fourth-order Runge-Kutta step; no renormalization. Each call checks and
    converts the state, about 3x the cached float step (12 vs 4 us): loop in :func:`integrate`."""
    if not 0.0 < h < math.inf:  # NaN too
        raise DomainError(f"step size h must be positive and finite, got {h!r}")
    z = _point_coords(state, Chart.MIXED_M, "rk4_step").tolist()
    return PhasePoint.from_coords(_make_step(params)(z, h), Chart.MIXED_M)


def conserved_quantities(state: PhasePoint, params: BodyParams) -> MonitorRecord:
    """Energy, |q|, |M| and the spatial momentum pi = vec(q M q^-1) / 2."""
    z = _point_coords(state, Chart.MIXED_M, "conserved_quantities", None)
    energy, qn, *pi, mom_norm = _make_h(params)[2](z.tolist())
    return MonitorRecord(energy, qn, mom_norm, np.array(pi))


def _replay(params, z, h, step, ks, mode, eps) -> list:
    """The rows of :func:`_make_block` the per-sample way: per sample one window call per step,
    each step checked, then the monitor row and its check; raises IntegrationAborted at the first
    non-finite state or row, or overflow, with its step."""
    window, monitor, out = _make_step(params, mode), _make_h(params)[2], []
    try:
        for k in ks:
            for step in range(step + 1, step + k + 1):
                z = window(z, h, eps)
                if not all(map(math.isfinite, z)):
                    raise IntegrationAborted(step)
            row = monitor(z)
            if not all(map(math.isfinite, row)):
                raise IntegrationAborted(step, f"non-finite energy or momentum at step {step}")
            out += [step * h, *z, *row]
    except OverflowError:
        # float ** and math functions raise where array arithmetic gave inf
        raise IntegrationAborted(step, f"floating-point overflow at step {step}") from None
    return out


def _samples(state0: PhasePoint, params: BodyParams, h: float, n_steps: int,
             renorm_policy: RenormPolicy, sample_stride: int):
    """The RK4 step loop: yields the rows of :func:`_make_block` at step 0, every ``sample_stride``
    steps and the last step, as ``(n, 20)`` arrays of up to ROWS_PER_BATCH rows, one block call
    and one finiteness check each.  Checks its arguments on the first draw.  A block that holds a
    non-finite value or raises is stepped again one checked step at a time by :func:`_replay`,
    which names the first failing step if the potential gives the same result for the same state."""
    if not 0.0 < h < math.inf:  # NaN too
        raise DomainError(f"step size h must be positive and finite, got {h!r}")
    if n_steps < 1:
        raise DomainError(f"n_steps must be >= 1, got {n_steps}")
    if sample_stride < 1:
        raise DomainError(f"sample_stride must be >= 1, got {sample_stride}")
    z = _point_coords(state0, Chart.MIXED_M, "integrate").tolist()
    pot = params.potential
    if not (pot.analytic_grad_x and pot.analytic_grad_q):
        log.info("potential %r steps on finite-difference gradients, several times slower "
                 "(analytic grad_x %s, grad_q %s)", pot.name, pot.analytic_grad_x,
                 pot.analytic_grad_q)
    block, eps, step = _make_block(params, renorm_policy.mode), renorm_policy.eps, 0
    strides, rest = divmod(n_steps, sample_stride)  # the steps before each sample, 0 for step 0
    counts = itertools.chain([0], itertools.repeat(sample_stride, strides), [rest] if rest else [])
    while ks := list(itertools.islice(counts, ROWS_PER_BATCH)):
        try:
            out = block(z, h, step, ks, eps)
            rows = np.fromiter(out, float).reshape(-1, 20)
            ok = np.isfinite(rows).all()
        except Exception:
            ok = False
        if not ok:
            out = _replay(params, z, h, step, ks, renorm_policy.mode, eps)
            rows = np.fromiter(out, float).reshape(-1, 20)
        z, step = out[-19:-6], step + sum(ks)  # the next block starts from the same objects
        yield rows


def integrate(state0: PhasePoint, params: BodyParams, h: float, n_steps: int,
              renorm_policy: RenormPolicy = DEFAULT_RENORM,
              sample_stride: int = 1) -> Trajectory:
    """Fixed-step RK4 integration with optional quaternion renormalization.

    Samples (state plus monitor row) are recorded at step 0, every
    ``sample_stride`` steps, and at the final step, as rows of 20 floats (time,
    13 coordinates, 6 monitors) of one table sized before the first step.

    Raises
    ------
    IntegrationAborted
        If a state component or a recorded monitor (energy, |q|, |M|, spatial
        momentum) is not finite, or the arithmetic overflows; the exception
        carries the step index at which integration stopped.
    """
    samples = _samples(state0, params, h, n_steps, renorm_policy, sample_stride)
    first = next(samples)  # checks the arguments before the table is sized
    table = np.empty((1 + -(-n_steps // sample_stride), 20))  # step 0, each stride, the last
    for b, rows in enumerate(itertools.chain([first], samples)):  # full blocks but the last
        table[b * ROWS_PER_BATCH:b * ROWS_PER_BATCH + len(rows)] = rows
    return Trajectory(table[:, 0], table[:, 1:14], table[:, 14], table[:, 15], table[:, 19],
                      table[:, 16:19], h=h, n_steps=n_steps)


def _builtin(name: str, value: str, grad_x: str, grad_q: str, **constants) -> PotentialSpec:
    """A potential whose value and gradients are expressions in x0..x2, q0..q3 and ``constants``:
    compiled here into its three callables, and written into the templates in place of their
    calls."""
    def compiled(expr: str, fn: str) -> Callable:
        return _compile(f"def {fn}(x, q4):\n    x0, x1, x2 = x\n    q0, q1, q2, q3 = q4\n"
                        f"    return {expr}", dict(constants), fn)

    fields = {"value": value, "grad_x": grad_x, "grad_q": grad_q}
    spec = PotentialSpec(name, **{fn: compiled(expr, fn) for fn, expr in fields.items()})
    spec._source = (fields, constants)
    return spec


def free() -> PotentialSpec:
    """Zero potential; the body is a free top."""
    return _builtin("free", "0.0", "0.0, 0.0, 0.0", "0.0, 0.0, 0.0, 0.0")


def linear_gravity(mass: float, g: float) -> PotentialSpec:
    """Uniform gravity on the center of mass: V = m g x3."""
    mg = float(mass) * float(g)
    return _builtin("linear_gravity", "mg * x2", "0.0, 0.0, mg", "0.0, 0.0, 0.0, 0.0", mg=mg)


def heavy_top(mass: float, g: float, length: float) -> PotentialSpec:
    """Top pivoted a distance ``length`` below its center of mass.

    V = m g l Q33(q) = m g l (q0^2 - q1^2 - q2^2 + q3^2), the height of the
    center of mass above the pivot; maximal (upright) at q = e0.
    """
    if length < 0.0:
        raise DomainError("pivot arm length must be >= 0")
    mgl = float(mass) * float(g) * float(length)
    return _builtin("heavy_top", "mgl * (q0 ** 2 - q1 ** 2 - q2 ** 2 + q3 ** 2)", "0.0, 0.0, 0.0",
                    "c * q0, c * -q1, c * -q2, c * q3", mgl=mgl, c=2.0 * mgl)


def harmonic(k: float) -> PotentialSpec:
    """Isotropic spring to the origin: V = k |x|^2 / 2."""
    if k < 0.0:
        raise DomainError("spring constant must be >= 0")
    k = float(k)
    # np.dot, not x0*x0 + x1*x1 + x2*x2: the two differ in the last bit for
    # about a fifth of all x, and recorded energies are pinned bit for bit.
    return _builtin("harmonic", "0.5 * k * float(dot((x0, x1, x2), (x0, x1, x2)))",
                    "k * x0, k * x1, k * x2", "0.0, 0.0, 0.0, 0.0", k=k, dot=np.dot)


BUILTIN_POTENTIALS = ("free", "linear_gravity", "heavy_top", "harmonic")
