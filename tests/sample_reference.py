"""The step loop of ``qhdyn.dynamics._samples`` as it ran before samples were
stepped in compiled blocks: per sample the monitor row and its check, then the
stride's steps as one-step calls of the compiled window, checked at their end,
and a stride that ends non-finite or raises stepped again one checked step at a
time.  The specification that the blocks' rows and the aborts of failing runs
(step, message, or the exception a potential raised) are tested against."""

import math

import numpy as np

from qhdyn import Chart, IntegrationAborted
from qhdyn.dynamics import _make_h, _make_step
from qhdyn.poisson import _point_coords


def samples(state0, params, h, n_steps, renorm_policy, sample_stride):
    """Yields ``(step, z, row)`` at step 0, every ``sample_stride`` steps and the last step."""
    z = _point_coords(state0, Chart.MIXED_M, "integrate").tolist()
    window, monitor = _make_step(params, renorm_policy.mode), _make_h(params)[2]
    eps = renorm_policy.eps
    step = 0
    try:
        while True:
            row = monitor(z)
            if not all(map(math.isfinite, row)):
                raise IntegrationAborted(step, f"non-finite energy or momentum at step {step}")
            yield step, z, row
            if step == n_steps:
                return
            k = min(sample_stride, n_steps - step)
            try:
                end = z
                for _ in range(k):
                    end = window(end, h, eps)
                if all(map(math.isfinite, end)):
                    z, step = end, step + k
                    continue
            except Exception:
                pass
            for step in range(step + 1, step + k + 1):
                z = window(z, h, eps)
                if not all(map(math.isfinite, z)):
                    raise IntegrationAborted(step)
    except OverflowError:
        raise IntegrationAborted(step, f"floating-point overflow at step {step}") from None


def rows(*args):
    """The samples of :func:`samples` as one ``(n, 20)`` array of rows (t, z, monitor row)."""
    h = args[2]
    return np.array([[step * h, *z, *row] for step, z, row in samples(*args)]).reshape(-1, 20)


def outcome(run):
    """What ``run()`` ends in: ``("returned", its value)``, ``("abort", step, message)`` for an
    IntegrationAborted, or ``(type, message)`` for another exception."""
    try:
        return "returned", run()
    except IntegrationAborted as exc:
        return "abort", exc.step, str(exc)
    except Exception as exc:
        return type(exc), str(exc)
