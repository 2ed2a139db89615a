"""Scalar-first quaternion algebra and the rotation action on 3-vectors.

Quaternions are immutable 4-tuples q = q0*e0 + q1*e1 + q2*e2 + q3*e3 with
scalar part ``q0`` and vector part ``qv = (q1, q2, q3)``.  The generators
satisfy ``e_r e_s = -delta_rs e0 + eps_rst e_t``, which fixes the product law

    a b = (a0*b0 - <av, bv>) e0 + a0*bv + b0*av + av x bv

Everything in this module is exact algebra on the given components: no
operation normalizes its input behind the caller's back.  Normalization is an
explicit step (:func:`quat_normalize`), and operations that genuinely require
a unit quaternion (the rotation action) check the norm against
:data:`TOL_UNIT` and raise :class:`PreconditionError` when it is violated.

3-vectors are plain ``numpy`` arrays of shape (3,); a 3-vector doubles as a
pure quaternion (zero scalar part) via :meth:`Quaternion.pure`.
"""

from __future__ import annotations

import math
import operator
from typing import Sequence

import numpy as np

from .errors import DomainError, PreconditionError

# Tolerance on | |q| - 1 | for operations that require a unit quaternion.
# Looser than arithmetic noise, tight enough to catch integration drift.
TOL_UNIT = 1e-9

Vec3 = np.ndarray
Matrix4 = np.ndarray


class Quaternion(tuple):
    """Immutable scalar-first 4-tuple of floats, ``Quaternion(q0, (q1, q2, q3))``.

    Compares and hashes as the plain tuple; tuple ordering means nothing here.
    ``+``, ``-``, unary ``-``, scalar scaling and ``*`` (the quaternion
    product) replace the tuple operators; the module functions are the API.
    """

    __slots__ = ()

    def __new__(cls, q0: float, qv: Sequence[float] = (0.0, 0.0, 0.0)):
        q1, q2, q3 = qv
        self = super().__new__(cls, (float(q0), float(q1), float(q2), float(q3)))
        if not all(map(math.isfinite, self)):
            raise DomainError(f"quaternion components must be finite, got {self!r}")
        return self

    def __getnewargs__(self):
        return (self[0], self[1:])

    q0 = property(operator.itemgetter(0))
    q1 = property(operator.itemgetter(1))
    q2 = property(operator.itemgetter(2))
    q3 = property(operator.itemgetter(3))

    @property
    def qv(self) -> Vec3:
        """Vector part (q1, q2, q3) as a fresh numpy array."""
        return np.array(self[1:])

    @classmethod
    def from_array(cls, a: Sequence[float]) -> "Quaternion":
        a0, a1, a2, a3 = a
        return cls(a0, (a1, a2, a3))

    @classmethod
    def pure(cls, v: Sequence[float]) -> "Quaternion":
        """Pure quaternion (zero scalar part) from a 3-vector."""
        return cls(0.0, v)

    @classmethod
    def identity(cls) -> "Quaternion":
        return cls(1.0)

    @classmethod
    def basis(cls, mu: int) -> "Quaternion":
        """Generator e_mu for mu in 0..3 (e0 is the algebra unit)."""
        if mu not in (0, 1, 2, 3):
            raise DomainError(f"basis index must be 0..3, got {mu}")
        return cls.from_array(np.eye(4)[mu])

    def as_array(self) -> np.ndarray:
        return np.array(self)

    def is_unit(self, tol: float = TOL_UNIT) -> bool:
        return abs(_norm2(self) - 1.0) <= tol

    def require_unit(self, tol: float = TOL_UNIT, what: str = "quaternion") -> None:
        if not self.is_unit(tol):
            n = quat_norm(self)
            raise PreconditionError(f"{what} must be unit to {tol:g}, |q| = {n!r}")

    def __add__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion.from_array(map(operator.add, self, other))

    def __sub__(self, other: "Quaternion") -> "Quaternion":
        if not isinstance(other, Quaternion):
            return NotImplemented
        return Quaternion.from_array(map(operator.sub, self, other))

    def __neg__(self) -> "Quaternion":
        return Quaternion.from_array(map(operator.neg, self))

    def __mul__(self, other):
        if isinstance(other, Quaternion):
            return quat_mul(self, other)
        if isinstance(other, (int, float)):
            s = float(other)
            return Quaternion.from_array([c * s for c in self])
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, float)):
            return self.__mul__(other)
        return NotImplemented

    def __repr__(self) -> str:
        return "Quaternion({!r}, ({!r}, {!r}, {!r}))".format(*self)


# Formula kernels on scalar-first 4-sequences of floats or equal-shape arrays;
# the public functions and the array-valued verifiers both call them.


def _mul(a, b):
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    return (a0 * b0 - a1 * b1 - a2 * b2 - a3 * b3,
            a0 * b1 + b0 * a1 + a2 * b3 - a3 * b2,
            a0 * b2 + b0 * a2 + a3 * b1 - a1 * b3,
            a0 * b3 + b0 * a3 + a1 * b2 - a2 * b1)


def _conj(q):
    q0, q1, q2, q3 = q
    return (q0, -q1, -q2, -q3)


def _norm2(q):
    q0, q1, q2, q3 = q
    return q0 * q0 + q1 * q1 + q2 * q2 + q3 * q3


def _inv(q):
    n2 = _norm2(q)
    return tuple(c / n2 for c in _conj(q))


def _axis_angle(axis, phi):  # np.sin/np.cos on floats too: a column and a call agree
    a1, a2, a3 = axis
    s = np.sin(0.5 * phi) / np.sqrt(a1 * a1 + a2 * a2 + a3 * a3)
    return (np.cos(0.5 * phi), a1 * s, a2 * s, a3 * s)


def quat_mul(a: Quaternion, b: Quaternion) -> Quaternion:
    """Quaternion product a*b.

    Bilinear and associative; the scalar part is ``a0*b0 - <av, bv>`` and the
    vector part is ``a0*bv + b0*av + av x bv``.
    """
    return Quaternion.from_array(_mul(a, b))


def quat_conj(q: Quaternion) -> Quaternion:
    """Conjugate: flips the sign of the vector part."""
    return Quaternion.from_array(_conj(q))


def quat_norm(q: Quaternion) -> float:
    """Euclidean norm sqrt(q q^dag), always >= 0."""
    return math.sqrt(_norm2(q))


def quat_inverse(q: Quaternion) -> Quaternion:
    """Multiplicative inverse q^dag / |q|^2.

    Raises
    ------
    DomainError
        If ``|q| = 0``; zero is the one element of the division ring without
        an inverse.
    """
    if _norm2(q) == 0.0:
        raise DomainError("zero quaternion has no inverse")
    return Quaternion.from_array(_inv(q))


def quat_normalize(q: Quaternion) -> Quaternion:
    """Return q / |q|.  Raises DomainError when |q| is zero or overflows."""
    n = quat_norm(q)
    if not 0.0 < n < math.inf:
        raise DomainError(f"cannot normalize a quaternion of norm {n!r}")
    return Quaternion.from_array([c / n for c in q])


def rotate_vector(q: Quaternion, x: Sequence[float]) -> Vec3:
    """Rotate a 3-vector by the unit quaternion q: vector part of q*x*q^dag.

    Preserves dot and cross products of its arguments, and ``q`` and ``-q``
    produce the same rotation.

    Parameters
    ----------
    q : Quaternion
        Unit to within :data:`TOL_UNIT`, else :class:`PreconditionError`.
    x : (3,) array_like
        Vector to rotate.

    Returns
    -------
    (3,) ndarray
    """
    q.require_unit(TOL_UNIT, "rotation quaternion")
    return Quaternion.from_array(_mul(_mul(q, Quaternion.pure(x)), _conj(q))).qv


def axis_angle_to_quat(axis: Sequence[float], phi: float) -> Quaternion:
    """Unit quaternion cos(phi/2) e0 + sin(phi/2) axis/|axis|.

    As a function of ``phi`` this is a one-parameter subgroup of the unit
    quaternions; ``phi`` is the rotation angle about ``axis`` measured
    counterclockwise.

    Raises
    ------
    DomainError
        If |axis|^2 is zero or not finite, or ``phi`` is not finite.
    """
    axis, phi = [float(c) for c in axis], float(phi)
    if not 0.0 < _norm2((0.0, *axis)) < math.inf:
        raise DomainError(f"rotation axis must be nonzero with a finite |axis|^2, got {axis}")
    if not math.isfinite(phi):
        raise DomainError(f"rotation angle phi must be finite, got {phi!r}")
    return Quaternion.from_array(_axis_angle(axis, phi))


def right_action_matrix(b: Quaternion) -> Matrix4:
    """4x4 matrix R_b of right multiplication by b on column quaternions.

    ``R_b @ q.as_array()`` equals ``quat_mul(q, b).as_array()`` for every q.
    Row-major layout, components ordered (q0, q1, q2, q3).  Array-valued
    components of ``b`` give a (4, 4, n) stack.
    """
    b0, b1, b2, b3 = b
    return np.array([
        [b0, -b1, -b2, -b3],
        [b1, b0, b3, -b2],
        [b2, -b3, b0, b1],
        [b3, b2, -b1, b0],
    ])
