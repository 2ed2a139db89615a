"""Maps between unit quaternions, rotation matrices and so(3).

The two-to-one group homomorphism ``gamma: q -> Q`` sends a unit quaternion
to the rotation ``x -> q x q^dag``; ``quat_to_matrix`` evaluates it and
``matrix_to_quat`` inverts it with the numerically stable largest-pivot
(Shepperd/Salamin style) component extraction.  The hat/vee pair is the usual
isomorphism between 3-vectors and antisymmetric matrices, normalized so that
``hat(v) @ w == cross(v, w)``.

Conventions worth noting: the adjoint operators live on the unit-quaternion
group, whose Lie bracket carries a factor 2 relative to so(3):
``ad(xi, eta) = 2 xi x eta``.  Correspondingly the right-invariant derivative
of a rotation path satisfies ``vee(dQ/dt Q^T) = 2 * vec(dq/dt q^-1)``, which
:func:`maurer_cartan_residual` checks by central differences.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GeometryError
from .quaternion import Quaternion, Vec3, TOL_UNIT, _conj, _mul, rotate_vector

# Max-norm tolerance on Q^T Q - I for accepted rotation matrices.  Invalid
# inputs are rejected, never silently re-orthogonalized.
TOL_ORTH = 1e-9

RotationMatrix = np.ndarray
SkewMatrix3 = np.ndarray


def hat(v: Sequence[float]) -> SkewMatrix3:
    """Antisymmetric matrix of a 3-vector: ``hat(v) @ w == cross(v, w)``."""
    v1, v2, v3 = (float(c) for c in v)
    return np.array([
        [0.0, -v3, v2],
        [v3, 0.0, -v1],
        [-v2, v1, 0.0],
    ])


def vee(m: np.ndarray, tol: float = 1e-12) -> Vec3:
    """Inverse of :func:`hat`; requires a 3x3 antisymmetric matrix.

    Raises
    ------
    DomainError
        If ``m`` is not 3x3 or fails antisymmetry beyond ``tol``.
    """
    m = np.asarray(m, dtype=float)
    if m.shape != (3, 3):
        raise DomainError(f"vee expects a 3x3 matrix, got shape {m.shape}")
    if np.max(np.abs(m + m.T)) > tol:
        raise DomainError(f"vee input is not antisymmetric to {tol:g}")
    return _vee_unchecked(m)


def _vee_unchecked(m: np.ndarray) -> Vec3:
    # Dual contraction of (3, 3) or (n, 3, 3): reads only the antisymmetric parts.
    return np.array([
        0.5 * (m[..., 2, 1] - m[..., 1, 2]),
        0.5 * (m[..., 0, 2] - m[..., 2, 0]),
        0.5 * (m[..., 1, 0] - m[..., 0, 1]),
    ])


def require_rotation(Q: np.ndarray, tol: float = TOL_ORTH) -> np.ndarray:
    """Validate a proper rotation matrix; returns it as a float array.

    Raises
    ------
    GeometryError
        If ``Q`` is not 3x3, fails ``max|Q^T Q - I| <= tol``, or has
        non-positive determinant.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (3, 3):
        raise GeometryError(f"rotation matrix must be 3x3, got shape {Q.shape}")
    if not np.all(np.isfinite(Q)):
        raise GeometryError("rotation matrix has non-finite entries")
    defect = np.max(np.abs(Q.T @ Q - np.eye(3)))
    if defect > tol:
        raise GeometryError(f"matrix is not orthogonal: max|Q^T Q - I| = {defect:.3e} > {tol:g}")
    if np.linalg.det(Q) <= 0.0:
        raise GeometryError("matrix is orthogonal but improper (det <= 0)")
    return Q


def _matrix(q) -> RotationMatrix:
    # Q(q) from scalar-first components: (3, 3), or (3, 3, n) for (n,) arrays.
    q0, q1, q2, q3 = q
    d = q0 * q0 - 0.5
    return 2.0 * np.array([
        [d + q1 * q1, q1 * q2 - q0 * q3, q1 * q3 + q0 * q2],
        [q1 * q2 + q0 * q3, d + q2 * q2, q2 * q3 - q0 * q1],
        [q1 * q3 - q0 * q2, q2 * q3 + q0 * q1, d + q3 * q3],
    ])


def quat_to_matrix(q: Quaternion) -> RotationMatrix:
    """Rotation matrix of a unit quaternion, entrywise
    ``Q_ik = 2[(q0^2 - 1/2) d_ik + q_i q_k - q0 q_j eps_jik]``.

    Agrees column-by-column with :func:`rotate_vector` on the basis vectors,
    and satisfies ``quat_to_matrix(-q) == quat_to_matrix(q)``.
    """
    q.require_unit(TOL_UNIT, "quaternion for quat_to_matrix")
    return _matrix(q)


def _quat_of_matrix(Q: np.ndarray):
    # Largest-pivot components and pivot of a (3, 3) or (3, 3, n) matrix
    # array: components (4,) or (4, n), pivot an int or an (n,) array.
    t = 0.25 * np.array([
        1.0 + Q[0, 0] + Q[1, 1] + Q[2, 2],
        1.0 + Q[0, 0] - Q[1, 1] - Q[2, 2],
        1.0 - Q[0, 0] + Q[1, 1] - Q[2, 2],
        1.0 - Q[0, 0] - Q[1, 1] + Q[2, 2],
    ])
    pivot = np.argmax(t, axis=0)
    s = np.sqrt(np.maximum(t.max(axis=0), 0.0))
    # Products 4 q_mu q_nu of distinct components, from the off-diagonals.
    d01 = Q[2, 1] - Q[1, 2]
    d02 = Q[0, 2] - Q[2, 0]
    d03 = Q[1, 0] - Q[0, 1]
    s12 = Q[0, 1] + Q[1, 0]
    s13 = Q[0, 2] + Q[2, 0]
    s23 = Q[1, 2] + Q[2, 1]
    f = 1.0 / (4.0 * s)
    comps = np.choose(pivot, [
        (s, d01 * f, d02 * f, d03 * f),
        (d01 * f, s, s12 * f, s13 * f),
        (d02 * f, s12 * f, s, s23 * f),
        (d03 * f, s13 * f, s23 * f, s),
    ])
    return comps, pivot


def matrix_to_quat(Q: np.ndarray, return_pivot: bool = False):
    """Unit quaternion of a rotation matrix via the largest-pivot rule.

    The four candidate squared components

        4 q0^2 = 1 + Q11 + Q22 + Q33        4 q1^2 = 1 + Q11 - Q22 - Q33
        4 q2^2 = 1 - Q11 + Q22 - Q33        4 q3^2 = 1 - Q11 - Q22 + Q33

    are evaluated, the largest one (first index wins ties, in the order
    q0, q1, q2, q3) is taken as the non-negative pivot, and the remaining
    components come from the off-diagonal sums and differences.  Exactly one
    of the two preimages +-q is returned, deterministically: the one whose
    pivot component is positive.

    Parameters
    ----------
    Q : (3,3) array_like
        Proper rotation matrix; validated against :data:`TOL_ORTH`.
    return_pivot : bool
        If true, also return the pivot index 0..3 that was chosen.
    """
    comps, pivot = _quat_of_matrix(require_rotation(Q))
    q = Quaternion.from_array(comps)
    return (q, int(pivot)) if return_pivot else q


def Ad(q: Quaternion, xi: Sequence[float]) -> Vec3:
    """Adjoint action of a unit quaternion on a Lie-algebra 3-vector.

    Coincides with the rotation: ``Ad(q, xi) = rotate_vector(q, xi)``.
    """
    return rotate_vector(q, xi)


def ad(xi: Sequence[float], eta: Sequence[float]) -> Vec3:
    """Lie bracket on pure quaternions: ``ad(xi, eta) = 2 xi x eta``."""
    x1, x2, x3 = (float(c) for c in xi)
    e1, e2, e3 = (float(c) for c in eta)
    # np.cross's operation order, so the bits match it at a fraction of its cost
    return np.array([2.0 * (x2 * e3 - x3 * e2), 2.0 * (x3 * e1 - x1 * e3),
                     2.0 * (x1 * e2 - x2 * e1)])


def ad_star(xi: Sequence[float], mu: Sequence[float]) -> Vec3:
    """Coadjoint operator, adjoint to :func:`ad`: ``ad_star(xi, mu) = 2 mu x xi``.

    Satisfies ``<ad_star(xi, mu), eta> == <mu, ad(xi, eta)>``.
    """
    return ad(mu, xi)


def _maurer_cartan_residuals(qm, qc, qp, h: float):
    # max|vee(dQ Qc^T) - 2 vec(dq qc^dag)| from path(t - h), path(t) and path(t + h), each 4
    # floats or 4 (n,) columns; as contiguous (n, 3, 3) stacks, the matrices go through
    # np.matmul with one sample's BLAS call per column
    Qm, Qc, Qp = (np.ascontiguousarray(np.moveaxis(_matrix(q), (0, 1), (-2, -1)))
                  for q in (qm, qc, qp))
    # The dual contraction discards the O(h^2) symmetric part of the product.
    lhs = _vee_unchecked(np.matmul((Qp - Qm) / (2.0 * h), np.swapaxes(Qc, -1, -2)))
    rhs = 2.0 * np.array(_mul(np.subtract(qp, qm) / (2.0 * h), _conj(qc))[1:])
    return np.max(np.abs(lhs - rhs), axis=0)


def maurer_cartan_residual(path: Callable[[float], Quaternion], t: float, h: float) -> float:
    """Central-difference check that ``vee(dQ Q^-1) = 2 vec(dq q^-1)``.

    Both sides of the identity are formed from the same path of unit
    quaternions: the left side differentiates the rotation matrices
    ``Q(t) = quat_to_matrix(path(t))`` and contracts ``(dQ/dt) Q(t)^T`` with
    the vee map, the right side differentiates the quaternion itself.  For a
    smooth path the returned max-norm difference vanishes as O(h^2).

    Raises
    ------
    DomainError
        If ``t`` is not finite, or ``h`` is not finite or is below
        2**-52 (|t| + 1), where t - h, t and t + h need not be distinct floats.
    """
    if not -np.inf < t < np.inf:  # NaN too
        raise DomainError(f"time t must be finite, got {t!r}")
    floor = 2.0 ** -52 * (abs(t) + 1.0)
    if not floor <= h < np.inf:
        raise DomainError(f"step h must be positive and finite, at least 2**-52 (|t| + 1) = "
                          f"{floor!r} at t = {t!r}, got {h!r}")
    qs = path(t - h), path(t), path(t + h)
    for q in qs:
        q.require_unit(TOL_UNIT, "quaternion for quat_to_matrix")
    return float(_maurer_cartan_residuals(*qs, h))
