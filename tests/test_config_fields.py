"""Every numeric field of a ``qhdyn simulate`` config, given a bad value, exits 2
naming that field before any integration starts."""

import json
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from qhdyn import dynamics  # noqa: E402
from qhdyn.cli import main  # noqa: E402

BASE = {
    "body": {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]},
    "potential": {"type": "heavy_top", "g": 9.81, "l": 1.0, "mass": 1.0},
    "initial": {"axis_angle": {"axis": [1.0, 0.0, 0.0], "angle": 0.4}, "M": [0.2, 0.3, 5.0]},
    "integrator": {"h": 1e-3, "n_steps": 10, "renorm_policy": "threshold",
                   "renorm_eps": 1e-9, "sample_stride": 1},
    "output": {"csv": "traj.csv"},
}

wrong_type = st.sampled_from(["1", None, [1.0], {"v": 1.0}, True, False])
non_finite = st.sampled_from([math.nan, math.inf, -math.inf])
negative = (st.floats(max_value=0.0, exclude_max=True, allow_nan=False, allow_infinity=False)
            | st.integers(max_value=-1))
zero = st.sampled_from([0, 0.0, -0.0])
BAD = {
    "real": non_finite | wrong_type,
    "non_negative": non_finite | wrong_type | negative,
    "positive": non_finite | wrong_type | negative | zero,
    "count": (non_finite | wrong_type | st.integers(max_value=0)
              | st.sampled_from([1.5, 10.0, -2.0])),
}
# (path in the error, keys into the config, potential type, kind of value)
FIELDS = [
    ("body.mass", ("body", "mass"), "heavy_top", "positive"),
    *((f"body.inertia[{i}]", ("body", "inertia", i), "heavy_top", "positive") for i in range(3)),
    ("integrator.h", ("integrator", "h"), "heavy_top", "positive"),
    ("integrator.n_steps", ("integrator", "n_steps"), "heavy_top", "count"),
    ("integrator.sample_stride", ("integrator", "sample_stride"), "heavy_top", "count"),
    ("integrator.renorm_eps", ("integrator", "renorm_eps"), "heavy_top", "positive"),
    ("potential.g", ("potential", "g"), "heavy_top", "real"),
    ("potential.l", ("potential", "l"), "heavy_top", "non_negative"),
    ("potential.mass", ("potential", "mass"), "heavy_top", "positive"),
    ("potential.k", ("potential", "k"), "harmonic", "non_negative"),
    ("potential.g", ("potential", "g"), "linear_gravity", "real"),
    ("potential.mass", ("potential", "mass"), "linear_gravity", "positive"),
]
POTENTIALS = {"heavy_top": BASE["potential"], "harmonic": {"type": "harmonic", "k": 1.0},
              "linear_gravity": {"type": "linear_gravity", "g": 9.81, "mass": 1.0}}


@st.composite
def bad_configs(draw):
    path, keys, potential, kind = draw(st.sampled_from(FIELDS))
    cfg = json.loads(json.dumps({**BASE, "potential": POTENTIALS[potential]}))
    node = cfg
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = draw(BAD[kind])
    return path, cfg


def _must_not_run(*args, **kwargs):
    raise AssertionError("integration started before the config was checked")


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(bad_configs())
def test_bad_numeric_field_exits_2_naming_it(tmp_path, capsys, monkeypatch, case):
    monkeypatch.setattr(dynamics, "integrate", _must_not_run)
    monkeypatch.setattr(dynamics, "_samples", _must_not_run)
    path, cfg = case
    cfg["output"]["csv"] = str(tmp_path / "traj.csv")
    config = tmp_path / "run.json"
    config.write_text(json.dumps(cfg))
    assert main(["simulate", str(config)]) == 2
    err = capsys.readouterr().err
    assert f"config error: {path}:" in err, err
