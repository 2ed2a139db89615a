"""The sample stream of ``qhdyn.verify``, written from the layout its module
docstring gives and shaped one point at a time: the specification that the
block sampler and the per-sample suite references are tested against."""

import math

import numpy as np

from qhdyn import coordinate

SMALL_Q0 = 1e-6
BLOCK = 256


def uniform(u, low, high):
    """numpy's ``Generator.uniform`` formula on raw doubles."""
    return low + (high - low) * u


def unit_quat(a, q0=None):
    """a / |a| for four normals, or with the scalar part q0 and the vector part rescaled."""
    a = np.array(a, dtype=float)
    if q0 is None:
        return a / np.linalg.norm(a)
    return np.array([q0, *(a[1:] * (math.sqrt(max(1.0 - q0 * q0, 0.0)) / np.linalg.norm(a[1:])))])


def unit_quats(rng, n, small=False):
    """(4, n): ``standard_normal((4, n))``, then ``random(n)`` for q0 if ``small``."""
    a = rng.standard_normal((4, n))
    q0 = uniform(rng.random(n), -SMALL_Q0, SMALL_Q0).tolist() if small else [None] * n
    return np.array([unit_quat(a[:, i], q0[i]) for i in range(n)]).reshape(n, 4).T


def phase_points(rng, flags, *draws):
    """(13 + k, len(flags)) columns, block by block: ``random((10, n))`` (x, p, q0, mom),
    ``standard_normal((4, n))`` (q), then each ``draw(rng, n)``."""
    cols = []
    for start in range(0, len(flags), BLOCK):
        block = list(flags[start:start + BLOCK])
        n = len(block)
        u, a = rng.random((10, n)), rng.standard_normal((4, n))
        extra = [draw(rng, n) for draw in draws]
        for i, small in enumerate(block):
            q0 = uniform(float(u[6, i]), -SMALL_Q0, SMALL_Q0) if small else None
            cols.append([*(uniform(float(v), -2.0, 2.0) for v in u[0:6, i]), *unit_quat(a[:, i], q0),
                         *(uniform(float(v), -2.0, 2.0) for v in u[7:10, i]),
                         *(float(v) for rows in extra for v in rows[:, i])])
    return np.array(cols).reshape(len(flags), -1).T


def polynomial_terms(rng, indices, n_terms, n):
    """(3, T, n) terms (coef, a, b): ``integers(len(indices), size=(2, T, n))``, then
    ``random((2, T, n))``; term t > 0 is quadratic where u[0] < 0.5, coef = uniform(u[1], -1, 1)."""
    k = rng.integers(len(indices), size=(2, n_terms, n))
    u = rng.random((2, n_terms, n))
    terms = np.empty((3, n_terms, n))
    for t in range(n_terms):
        for i in range(n):
            b = indices[k[1, t, i]] if t > 0 and u[0, t, i] < 0.5 else -1
            terms[:, t, i] = uniform(float(u[1, t, i]), -1.0, 1.0), indices[k[0, t, i]], b
    return terms


def polynomial_draw(indices, n_terms=5):
    """A ``draw(rng, n)`` of one random polynomial per point, its terms as 3 * n_terms rows."""
    return lambda rng, n: polynomial_terms(rng, indices, n_terms, n).reshape(3 * n_terms, n)


def polynomial(terms):
    """The variable sum_t c z_a z_b (z_a where b = -1) of (3, T) terms, built from
    ``coordinate`` variables in term order."""
    var = None
    for c, a, b in np.asarray(terms).T:
        term = coordinate(int(a)) if b < 0 else coordinate(int(a)) * coordinate(int(b))
        var = float(c) * term if var is None else var + float(c) * term
    return var
