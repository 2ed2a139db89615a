"""CLI: config ingestion, simulation outputs, conversions, verify suites."""

import argparse
import errno
import hashlib
import itertools
import json
import logging
import math
import os
import re
import stat
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import qhdyn
from qhdyn import IntegrationAborted, PotentialSpec, cli, dynamics, verify
from qhdyn.cli import main

import sample_reference

FREE_TOP = {
    "body": {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]},
    "potential": {"type": "free"},
    "initial": {"x": [0, 0, 0], "p": [0, 0, 0], "q": [1, 0, 0, 0], "M": [1, 2, 3]},
    "integrator": {"h": 1e-3, "n_steps": 2000, "renorm_policy": "none",
                   "sample_stride": 10},
    "output": {"csv": "traj.csv", "summary": "summary.json"},
}


# The two simulate workloads of the benchmark at seed 0 (perfbench/workloads.py)
# and the sha256 of their CSVs, copied from perfbench/golden.json.  The CSV
# bytes are the integrator's bit-exact output, so any change to the order of
# the floating-point operations in the step, the monitors or the writer shows.
HEAVY_TOP_RUN = {
    "body": {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]},
    "potential": {"type": "heavy_top", "g": 9.81, "l": 1.0},
    "initial": {"axis_angle": {"axis": [1.0, 0.0, 0.0], "angle": 0.4}, "M": [0.2, 0.3, 5.0],
                "x": [0, 0, 0], "p": [0, 0, 0]},
    "integrator": {"h": 1e-3, "n_steps": 10000, "renorm_policy": "threshold",
                   "renorm_eps": 1e-9, "sample_stride": 10},
    "output": {"csv": "traj.csv", "summary": "summary.json"},
}
DENSE_OUTPUT_RUN = {
    "body": {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]},
    "potential": {"type": "harmonic", "k": 1.0},
    "initial": {"axis_angle": {"axis": [1.0, 0.0, 0.0], "angle": 0.4}, "M": [0.2, 0.3, 5.0],
                "x": [0.5, -0.3, 0.2], "p": [0.1, 0.4, -0.2]},
    "integrator": {"h": 1e-3, "n_steps": 10000, "renorm_policy": "every_step",
                   "renorm_eps": 1e-9, "sample_stride": 1},
    "output": {"csv": "traj.csv", "summary": "summary.json"},
}
GOLDEN_CSV_SHA256 = {
    "sim_heavy_top": "e744e058c5411b1354b4740a38fb7689b9ad89e1e0cb68302c607c077a7372cd",
    "sim_dense_output": "0d27e58c8a4bcecefaa0680d39bb850e214c6a00be1252f36402275e5241e50c",
}
# sha256 of the same runs' summary JSON less its ``wall_time_s``, dumped with
# indent=2 as ``qhdyn simulate`` writes it.  The |M| drift is no CSV column,
# so only this pins it.
GOLDEN_SUMMARY_SHA256 = {
    "sim_heavy_top": "766689da30837780aef2879cf37738c8f5f4dc4b86d798805ff32e649c757a6c",
    "sim_dense_output": "61e0a9d0f593d36c4a4f9db40ef68a58da959d75644f85447be706c00145d59b",
}

# sha256 of the stdout of ``qhdyn verify <suite> --seed 0`` at default sizes,
# recorded while the bracket, Jacobi, Poisson-map and oracle suites still ran
# one phase point at a time.  A rewrite that moves any printed residual digit,
# check name or count changes its suite's digest.  ``dynamics_oracle`` was
# re-pinned when J grad(H) became the quaternion-algebra kernel
# ``poisson._j_grad``: only its four ``eom_rhs = J grad(H)`` residuals moved.
# ``algebra`` was re-pinned when its rotation-homomorphism and right-action
# products became running sums over columns in place of per-sample BLAS calls:
# only those two residuals moved.  ``algebra``, ``dynamics_oracle``, ``jacobi``,
# ``maurer_cartan`` and ``symplectic`` were re-pinned when verify's samples
# became the block stream of the ``verify`` docstring, which draws new values;
# ``brackets`` and ``poisson_map`` printed the same digits at seed 0.  ``algebra``
# was re-pinned when the rotation checks drew their small-q0 flags and scalars
# before the per-block (q1, q2) normals and ran the round trip on each block's q2:
# its first eight lines are unchanged, the round-trip and dot/cross lines moved.
GOLDEN_VERIFY_SHA256 = {
    "algebra": "90425a1cb6cbee3910f385bdcb6e6d9852eba07f592ac3624dbd5afe1406d826",
    "brackets": "d1c5a8cbc6c748f1d8961952eecb4d79e0aee314f6788491eb5685632524fd81",
    "dynamics_oracle": "f3c29705533e2e89b2ebc0946524b2e1db4a431c9025f467bb97e37d0c6be403",
    "jacobi": "eb531515083bb4f834adb9a261332e71bd6209f34c343a84e2dd019ac4f6257d",
    "maurer_cartan": "ecd66a306d6ae24f254855c97735fb0af84a38520d9d7e6eff09cb3b5f1e3a18",
    "poisson_map": "3cd7f286fe239afcd2e8ee23c2d18d4a3f2fb0d3130cd57ce068dedebca136a1",
    "symplectic": "8652eae668d7a30d8999bbb03e365581596077d5d2ae0e1f7fa8b0ac175482d0",
}

# sha256 over the stdouts of ``qhdyn verify <suite> --seed s`` for s = 0..11, in
# seed order, at default sizes.  ``algebra``, ``brackets`` and ``symplectic``
# were recorded while the symplectic checks, the Leibniz check of ``brackets``
# and the dot/cross check of ``algebra`` still ran one sample at a time; all
# seven match the sampler that drew each point with ``rng.uniform`` and
# ``random_unit_quat``, before draws became raw generator calls.  ``brackets``,
# ``symplectic`` and ``dynamics_oracle`` were re-pinned when J grad(H), the
# brackets and the forms became quaternion-algebra and component kernels: only
# the Leibniz, duality, left-invariant-field and ``eom_rhs`` residuals moved.
# ``algebra`` was re-pinned when the homomorphism and right-action products
# became running sums: those two residuals moved at seeds 0, 3, 5, 8, 9 and 10.
# All seven were re-pinned when verify's samples became the block stream of the
# ``verify`` docstring; every check still passes, and CHANGES.md lists the
# moved lines by check and seed.  ``algebra`` was re-pinned again when the
# rotation checks drew flags, small scalars and then (q1, q2) per block, in place
# of keeping q2 for a second pass: only its homomorphism, round-trip and dot/cross
# lines moved, all still passing (CHANGES.md lists them by seed).
GOLDEN_VERIFY_SEEDS_SHA256 = {
    "algebra": "8f4736968de63e7f0fcf8a052caddc2c12d707d79618b49d26250ab3cc6a9df3",
    "brackets": "511409ccab5b81677b292c1cb6d70f28fdcd1f5c528340a1a39f4f53e902c709",
    "dynamics_oracle": "fb987b4be5a1e93cdd62b3cd9afabfb26f9069ecd9c4aefa80e0d1541be0a485",
    "jacobi": "0889089623a4e11d71b4ffd3d9c1afff649120fb2a04eac2b35ba3591c80d4a3",
    "maurer_cartan": "61d8f56865606a7219b2a2a9e559d43877b23d6da8930300ba225ff974c04968",
    "poisson_map": "c3e58ff314762a627afbb11f792354059a2098ffeebdd4274a15b78ed2073b9c",
    "symplectic": "31bf70037c1be7b268a4a49c56e62f454c2b34771428b80508ec99b6832c33bc",
}


def write_config(tmp_path, cfg, name="run.json"):
    cfg = json.loads(json.dumps(cfg))
    cfg["output"]["csv"] = str(tmp_path / cfg["output"]["csv"])
    if "summary" in cfg["output"]:
        cfg["output"]["summary"] = str(tmp_path / cfg["output"]["summary"])
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path, cfg


def child_env(**extra):
    """Minimal environment for a ``python -m qhdyn`` child process.

    The directory holding the ``qhdyn`` this process imported goes first on
    PYTHONPATH, so the child runs the same package whether it is installed,
    found through PYTHONPATH, or put on ``sys.path`` by pytest's
    ``pythonpath`` option. Of the rest of the parent's environment only
    PYTHONDONTWRITEBYTECODE is kept: a QH_LOG set in the parent cannot leak
    into the child, and a child of a run that writes no bytecode writes no
    ``__pycache__`` into the package it imports either.
    """
    paths = [str(Path(qhdyn.__file__).resolve().parents[1])]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    kept = {k: v for k, v in os.environ.items() if k == "PYTHONDONTWRITEBYTECODE"}
    return {"PATH": "/usr/bin:/bin", "PYTHONPATH": os.pathsep.join(paths), **kept, **extra}


def test_child_env_keeps_only_dont_write_bytecode(monkeypatch):
    child = [sys.executable, "-c", "import sys; print(sys.dont_write_bytecode)"]
    monkeypatch.setenv("QH_LOG", "debug")
    monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
    assert "PYTHONDONTWRITEBYTECODE" not in child_env() and "QH_LOG" not in child_env()
    monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
    assert child_env()["PYTHONDONTWRITEBYTECODE"] == "1" and "QH_LOG" not in child_env()
    proc = subprocess.run(child, capture_output=True, text=True, env=child_env())
    assert proc.stdout == "True\n"


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, data


def test_simulate_free_top(tmp_path):
    cfg_path, cfg = write_config(tmp_path, FREE_TOP)
    assert main(["simulate", str(cfg_path)]) == 0
    header, data = read_csv(tmp_path / "traj.csv")
    assert header == ["t", "x1", "x2", "x3", "p1", "p2", "p3", "q0", "q1", "q2", "q3",
                      "M1", "M2", "M3", "H", "qnorm", "pi1", "pi2", "pi3"]
    h_col = data[:, 14]
    assert np.max(np.abs(h_col - h_col[0])) / abs(h_col[0]) <= 1e-8
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["n_steps"] == 2000
    assert summary["max_drift"]["energy_rel"] <= 1e-8
    assert summary["max_drift"]["qnorm"] <= 1e-6


def test_simulate_summary_drifts_are_the_trajectory_maxima(tmp_path):
    # the drifts are folded a block at a time; they are the exact maxima over all samples of
    # |value - value at step 0|, and of |1 - |q||, which is not 0 at step 0 for this q
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["potential"] = {"type": "heavy_top", "g": 9.81, "l": 1.0}
    cfg["initial"]["q"] = [1.0, 2.0, 3.0, 4.0]
    cfg["integrator"].update(n_steps=200, sample_stride=1)
    cfg_path, _ = write_config(tmp_path, cfg)
    run = cli.load_config(str(cfg_path))
    traj = dynamics.integrate(run.state0, run.params, run.h, run.n_steps, run.renorm, 1)
    assert traj.qnorm[0] != 1.0
    assert main(["simulate", str(cfg_path)]) == 0
    drift = json.loads((tmp_path / "summary.json").read_text())["max_drift"]
    assert drift["energy_abs"] == np.max(np.abs(traj.energy - traj.energy[0]))
    assert drift["qnorm"] == np.max(np.abs(traj.qnorm - 1.0))
    assert drift["mom_norm_abs"] == np.max(np.abs(traj.mom_norm - traj.mom_norm[0]))
    assert drift["pi_abs"] == np.max(np.abs(traj.pi_spatial - traj.pi_spatial[0]), axis=0).tolist()
    assert drift["pi_initial"] == traj.pi_spatial[0].tolist()


def test_simulate_deterministic_output(tmp_path):
    cfg_path, cfg = write_config(tmp_path, FREE_TOP)
    assert main(["simulate", str(cfg_path)]) == 0
    first = (tmp_path / "traj.csv").read_bytes()
    assert main(["simulate", str(cfg_path)]) == 0
    second = (tmp_path / "traj.csv").read_bytes()
    assert first == second


def test_simulate_heavy_top_summary(tmp_path):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["potential"] = {"type": "heavy_top", "g": 9.81, "l": 1.0}
    cfg["initial"]["axis_angle"] = {"axis": [1, 0, 0], "angle": 0.4}
    del cfg["initial"]["q"]
    cfg["initial"]["M"] = [0.2, 0.3, 5.0]
    cfg["integrator"]["n_steps"] = 2000
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["max_drift"]["pi_rel"][2] <= 1e-7
    assert summary["max_drift"]["energy_rel"] <= 1e-7


def test_simulate_rejects_zero_inertia(tmp_path, capsys):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["body"]["inertia"][0] = 0.0
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "body.inertia[0]" in capsys.readouterr().err


def test_simulate_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"body": ')
    assert main(["simulate", str(bad)]) == 2
    assert "line" in capsys.readouterr().err


def test_simulate_missing_field_named(tmp_path, capsys):
    cfg = json.loads(json.dumps(FREE_TOP))
    del cfg["integrator"]["h"]
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "integrator.h" in capsys.readouterr().err


def _must_not_run(*args, **kwargs):
    raise AssertionError("integration started before the config was checked")


def _both_q_and_axis_angle(cfg):
    cfg["initial"]["axis_angle"] = {"axis": [1, 0, 0], "angle": 0.4}


def _initial(**init):
    return lambda cfg: cfg.update(initial=init)


@pytest.mark.parametrize("edit, field", [
    (_both_q_and_axis_angle, "initial"),
    (lambda cfg: cfg["potential"].update(type="spring"), "potential.type"),
    (lambda cfg: cfg["integrator"].update(renorm_policy="sometimes"), "integrator.renorm_policy"),
    (lambda cfg: cfg["integrator"].update(renorm_policy="none", renorm_eps=-1),
     "integrator.renorm_eps"),
    (lambda cfg: cfg["body"].update(inertia=[1.0, 2.0]), "body.inertia"),
    (_initial(q=[0, 0, 0, 0]), "initial.q"),
    (_initial(q=[1e308, 1e308, 0, 0]), "initial.q"),
    (_initial(axis_angle={"axis": [0, 0, 0], "angle": 0.4}), "initial.axis_angle.axis"),
    (_initial(axis_angle={"axis": [1e308, 1e308, 0], "angle": 0.4}), "initial.axis_angle.axis"),
], ids=["q and axis_angle", "potential type", "renorm policy", "eps of an unused threshold",
        "inertia length", "zero q", "overflowing q", "zero axis", "overflowing axis"])
def test_simulate_config_error_names_the_field(tmp_path, capsys, monkeypatch, edit, field):
    monkeypatch.setattr(dynamics, "_samples", _must_not_run)
    cfg = json.loads(json.dumps(FREE_TOP))
    edit(cfg)
    cfg_path, _ = write_config(tmp_path, cfg)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy overflow warning either
        assert main(["simulate", str(cfg_path)]) == 2
    assert f"config error: {field}: " in capsys.readouterr().err


def test_simulate_unknown_renorm_policy_lists_the_three(tmp_path, capsys):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["integrator"]["renorm_policy"] = "sometimes"
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "expected none, every_step or threshold" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["missing.json", "."])
def test_simulate_unreadable_config_exits_2(tmp_path, capsys, name):
    assert main(["simulate", str(tmp_path / name)]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_simulate_linear_gravity_is_free_fall(tmp_path):
    # V = m g x3: x3 and p3 are polynomials of degree 2 and 1 in t, which RK4 steps exactly
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["body"]["mass"] = 2.0  # potential.mass defaults to body.mass
    cfg["potential"] = {"type": "linear_gravity", "g": 9.81}
    cfg["initial"].update(x=[0.0, 0.0, 1.0], p=[0.0, 0.0, 3.0])
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 0
    _, data = read_csv(tmp_path / "traj.csv")
    t = data[:, 0]
    np.testing.assert_allclose(data[:, 3], 1.0 + 1.5 * t - 0.5 * 9.81 * t * t, rtol=0, atol=1e-12)
    np.testing.assert_allclose(data[:, 6], 3.0 - 2.0 * 9.81 * t, rtol=0, atol=1e-12)


def test_simulate_numerical_abort(tmp_path, capsys, monkeypatch):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["potential"] = {"type": "harmonic", "k": 1.0}
    cfg["initial"]["x"] = [1.0, 0.0, 0.0]
    cfg["integrator"]["h"] = 1e280
    cfg["integrator"]["n_steps"] = 10
    cfg_path, _ = write_config(tmp_path, cfg)
    for path in ("writer", "one_cpu"):
        _force_rows_path(monkeypatch, path)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["simulate", str(cfg_path)]) == 3
        assert_no_child()
        assert "step" in capsys.readouterr().err
        assert os.listdir(tmp_path) == ["run.json"]  # no CSV, no temporary file
    # an earlier run's CSV keeps its bytes
    (tmp_path / "traj.csv").write_bytes(b"earlier run\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["simulate", str(cfg_path)]) == 3
    assert_no_child()
    assert sorted(os.listdir(tmp_path)) == ["run.json", "traj.csv"]
    assert (tmp_path / "traj.csv").read_bytes() == b"earlier run\n"


def _beyond(x, value):
    """``value()`` where x1 > 0.1002, else 0: from x1 = 0 with p = (1, 0, 0) and h = 1e-3,
    a stage of step 101 passes it, so a run fails at the 38th sample of its second block at
    stride 1, and at the 35th of its first at stride 3."""
    return value() if x[0] > 0.1002 else 0.0


def _zero_grad_q(x, q4):
    return (0.0, 0.0, 0.0, 0.0)


def _raise():
    raise RuntimeError("no potential beyond x1 = 0.1002")


# potential (None: the config's), the config's potential, and how the per-sample loop stops
# the run: its abort message less the step, or the exception the potential raises
ABORT_RUNS = {
    "non-finite state": (
        PotentialSpec("nan_force", lambda x, q4: 0.0,
                      lambda x, q4: (_beyond(x, lambda: math.nan), 0.0, 0.0), _zero_grad_q),
        None, "non-finite state encountered at step"),
    "non-finite H": (
        PotentialSpec("inf_value", lambda x, q4: _beyond(x, lambda: math.inf),
                      lambda x, q4: (0.0, 0.0, 0.0), _zero_grad_q),
        None, "non-finite energy or momentum at step"),
    # p3 = -g t passes sqrt(max float) at step 101, where p3 ** 2 raises
    "overflow": (None, {"type": "linear_gravity", "g": 1.3307e155},
                 "floating-point overflow at step"),
    "potential raises": (
        PotentialSpec("raises", lambda x, q4: 0.0,
                      lambda x, q4: (_beyond(x, _raise), 0.0, 0.0), _zero_grad_q),
        None, RuntimeError),
}


def _abort_config(tmp_path, monkeypatch, case, stride):
    pot, potential, _ = ABORT_RUNS[case]
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["initial"]["p"] = [1.0, 0.0, 0.0]
    cfg["integrator"].update(n_steps=1000, sample_stride=stride, renorm_policy="threshold")
    cfg["potential"] = potential or cfg["potential"]
    if pot is not None:
        monkeypatch.setattr(cli, "_build_potential", lambda node, path, mass: pot)
    return write_config(tmp_path, cfg)[0]


@pytest.mark.parametrize("stride", [1, 3])
@pytest.mark.parametrize("case", ABORT_RUNS)
def test_simulate_abort_mid_block_as_per_sample(tmp_path, capsys, monkeypatch, case, stride):
    # a block that fails is stepped again the per-sample way, so the run stops where the
    # per-sample loop stopped it: the same step and message and exit 3, or the exception the
    # potential raised, on both row paths and in integrate
    cfg_path = _abort_config(tmp_path, monkeypatch, case, stride)
    run = cli.load_config(str(cfg_path))
    args = (run.state0, run.params, run.h, run.n_steps, run.renorm, run.sample_stride)
    expect = sample_reference.outcome(lambda: list(sample_reference.samples(*args)))
    kind = ABORT_RUNS[case][2]
    if kind is RuntimeError:
        assert expect == (RuntimeError, "no potential beyond x1 = 0.1002")
    else:
        assert expect[0] == "abort" and 101 <= expect[1] <= 102
        assert expect[2] == f"{kind} {expect[1]}"
    assert sample_reference.outcome(lambda: dynamics.integrate(*args)) == expect
    for path in ("writer", "one_cpu"):
        _force_rows_path(monkeypatch, path)
        got = sample_reference.outcome(lambda: main(["simulate", str(cfg_path)]))
        assert_no_child()
        assert os.listdir(tmp_path) == ["run.json"]
        if kind is RuntimeError:
            assert got == expect
        else:
            assert got == ("returned", 3)
            assert capsys.readouterr().err == f"numerical abort: {expect[2]} (step {expect[1]})\n"


def test_simulate_writer_failure_then_abort_exits_2(tmp_path, capsys, monkeypatch):
    # the rows of the first block cannot be written, and the run overflows in its second
    # block: the output error decides, exit 2, on both row paths.  In-process the first write
    # raises before the second block is stepped; the writer is sent the first block, fails on
    # it, and is awaited when the abort ends the run, so its error replaces the abort
    cfg_path = _abort_config(tmp_path, monkeypatch, "overflow", 1)
    aborted = []
    samples = dynamics._samples

    def recording(*args):
        try:
            yield from samples(*args)
        except IntegrationAborted as exc:
            aborted.append(exc.step)
            raise

    def no_space(values):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(dynamics, "_samples", recording)
    monkeypatch.setattr(cli, "_format_rows", no_space)
    for path, steps in (("writer", [101]), ("one_cpu", [])):
        _force_rows_path(monkeypatch, path)
        assert main(["simulate", str(cfg_path)]) == 2
        assert_no_child()
        assert capsys.readouterr().err == "output error: [Errno 28] No space left on device\n"
        assert os.listdir(tmp_path) == ["run.json"]
        assert aborted == steps
        aborted.clear()


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_simulate_golden_csv(tmp_path, name):
    run = {"sim_heavy_top": HEAVY_TOP_RUN, "sim_dense_output": DENSE_OUTPUT_RUN}[name]
    cfg_path, _ = write_config(tmp_path, run)
    assert main(["simulate", str(cfg_path)]) == 0
    digest = hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[name]
    summary = json.loads((tmp_path / "summary.json").read_text())
    del summary["wall_time_s"]
    digest = hashlib.sha256((json.dumps(summary, indent=2) + "\n").encode()).hexdigest()
    assert digest == GOLDEN_SUMMARY_SHA256[name]


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_write_trajectory_csv_golden_bytes(tmp_path, name):
    run = {"sim_heavy_top": HEAVY_TOP_RUN, "sim_dense_output": DENSE_OUTPUT_RUN}[name]
    cfg = cli.load_config(str(write_config(tmp_path, run)[0]))
    traj = dynamics.integrate(cfg.state0, cfg.params, cfg.h, cfg.n_steps, cfg.renorm,
                              cfg.sample_stride)
    cli.write_trajectory_csv(str(tmp_path / "written.csv"), traj)
    digest = hashlib.sha256((tmp_path / "written.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[name]


CSV_EDGE_VALUES = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
                   1.7976931348623157e308, -1.7976931348623157e308, 1.0, 0.1, 1e16, 1e17]


@pytest.mark.parametrize("kind", [float, np.float64])
def test_csv_row_prints_the_bytes_of_the_format_join(kind):
    bits = np.random.default_rng(0).integers(0, 2**64, size=(1000, 20), dtype=np.uint64)
    rows = bits.view(np.float64).tolist()
    rows += [CSV_EDGE_VALUES[i:] + CSV_EDGE_VALUES[:i] + CSV_EDGE_VALUES[:6]
             for i in range(len(CSV_EDGE_VALUES))]
    lines, flat = [], []
    for values in rows:
        v = list(map(kind, values))
        expect = ",".join(map("{:.17g}".format, (*v[:16], *v[17:]))) + "\n"
        assert cli._format_rows((*v[:16], *v[17:])) == expect
        lines.append(expect)
        flat += v[:16] + v[17:]
    assert cli._format_rows(flat) == "".join(lines)  # many rows in one call


def _force_rows_path(monkeypatch, path):
    """Make ``qhdyn simulate`` format its CSV rows on ``path``, whatever the
    host: in a forked writer, in-process for want of a second CPU, or
    in-process because fork fails or, before it, the pipe does."""
    monkeypatch.setattr(cli, "_usable_cpus", lambda: 1 if path == "one_cpu" else 2)
    failing = {"fork_fails": ("fork", errno.EAGAIN), "pipe_fails": ("pipe", errno.EMFILE)}
    if path in failing:
        name, code = failing[path]

        def fails():
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, name, fails)


def assert_no_child():
    """No child process of this one is left, running or as a zombie."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


ROW_PATHS = ["writer", "one_cpu", "fork_fails", "pipe_fails"]


@pytest.mark.parametrize("path", ROW_PATHS)
@pytest.mark.parametrize("n_steps,stride", [(1, 1), (62, 1), (63, 1), (64, 1), (128, 1),
                                            (100, 7)])
def test_simulate_rows_match_write_trajectory_csv(tmp_path, monkeypatch, path, n_steps, stride):
    # 2 rows (the fewest a run writes), one row either side of a whole batch of
    # 64, two batches and one row, and a stride whose last window is 2 steps
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["integrator"].update(n_steps=n_steps, sample_stride=stride)
    cfg_path, _ = write_config(tmp_path, cfg)
    run = cli.load_config(str(cfg_path))
    traj = dynamics.integrate(run.state0, run.params, run.h, run.n_steps, run.renorm,
                              run.sample_stride)
    cli.write_trajectory_csv(str(tmp_path / "expected.csv"), traj)
    _force_rows_path(monkeypatch, path)
    assert main(["simulate", str(cfg_path)]) == 0
    assert_no_child()
    assert (tmp_path / "traj.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()
    assert json.loads((tmp_path / "summary.json").read_text())["samples"] == len(traj.times)


@pytest.mark.parametrize("path", ["writer", "one_cpu"])
@pytest.mark.parametrize("rows", [0, 1, 64, 65])
def test_csv_rows_writes_what_it_is_given(tmp_path, monkeypatch, path, rows):
    # put takes the first 19 columns of a run's (n, 20) blocks, a strided view, a block of
    # up to ROWS_PER_BATCH rows at a time
    table = np.arange(20.0 * rows).reshape(rows, 20) / 3.0
    _force_rows_path(monkeypatch, path)
    with open(tmp_path / "out.csv", "w", encoding="utf-8", newline="\n") as fh:
        fh.write("header\n")
        with cli._csv_rows(fh) as put:
            for start in range(0, rows, dynamics.ROWS_PER_BATCH):
                put(table[start:start + dynamics.ROWS_PER_BATCH, :19])
    assert_no_child()
    expect = "header\n" + cli._format_rows(table[:, :19].ravel().tolist())
    assert (tmp_path / "out.csv").read_text() == expect


@pytest.mark.parametrize("name", sorted(GOLDEN_CSV_SHA256))
def test_simulate_golden_csv_in_process(tmp_path, monkeypatch, name):
    # test_simulate_golden_csv takes the host's path, the writer on two CPUs
    run = {"sim_heavy_top": HEAVY_TOP_RUN, "sim_dense_output": DENSE_OUTPUT_RUN}[name]
    cfg_path, _ = write_config(tmp_path, run)
    _force_rows_path(monkeypatch, "one_cpu")
    assert main(["simulate", str(cfg_path)]) == 0
    digest = hashlib.sha256((tmp_path / "traj.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN_CSV_SHA256[name]


@pytest.mark.parametrize("stride", [100, 1])
def test_simulate_writer_error_exits_2_as_in_process(tmp_path, capsys, monkeypatch, stride):
    # ENOSPC raised while formatting.  At stride 100 the 21 rows are less than
    # a batch, all sent when the block ends, so the error comes back when the
    # writer is reaped; at stride 1 the writer fails on the first of 2001 rows,
    # more than the pipe holds, so a later send meets a broken pipe.
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["integrator"]["sample_stride"] = stride
    cfg_path, _ = write_config(tmp_path, cfg)
    (tmp_path / "traj.csv").write_bytes(b"earlier run\n")

    def no_space(values):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(cli, "_format_rows", no_space)
    errors = []
    for path in ("writer", "one_cpu"):
        _force_rows_path(monkeypatch, path)
        assert main(["simulate", str(cfg_path)]) == 2
        assert_no_child()
        errors.append(capsys.readouterr().err)
        assert sorted(os.listdir(tmp_path)) == ["run.json", "traj.csv"]
        assert (tmp_path / "traj.csv").read_bytes() == b"earlier run\n"
    assert errors[0] == errors[1] == "output error: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("path", ROW_PATHS)
def test_simulate_debug_log_names_the_row_path(tmp_path, caplog, monkeypatch, path):
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    _force_rows_path(monkeypatch, path)
    with caplog.at_level(logging.DEBUG, logger="qhdyn"):
        assert main(["simulate", str(cfg_path)]) == 0
    assert_no_child()
    lines = [r.getMessage() for r in caplog.records if r.getMessage().startswith("CSV rows")]
    expect = {"writer": r"CSV rows formatted by writer process \d+",
              "one_cpu": r"CSV rows formatted in-process \(one usable CPU\)",
              "fork_fails": r"CSV rows formatted in-process \(fork failed: \[Errno 11\] .*\)",
              "pipe_fails": r"CSV rows formatted in-process \(pipe failed: \[Errno 24\] .*\)"}
    assert len(lines) == 1 and re.fullmatch(expect[path], lines[0]), lines


@pytest.mark.parametrize("field", ["csv", "summary"])
def test_simulate_output_dir_missing(tmp_path, capsys, monkeypatch, field):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["output"][field] = "missing_dir/out"
    cfg_path, _ = write_config(tmp_path, cfg)

    def must_not_run(*args, **kwargs):
        raise AssertionError("integration started before the output path was checked")

    monkeypatch.setattr(dynamics, "integrate", must_not_run)
    monkeypatch.setattr(dynamics, "_samples", must_not_run)
    assert main(["simulate", str(cfg_path)]) == 2
    assert f"output.{field}" in capsys.readouterr().err


@pytest.mark.parametrize("field", ["csv", "summary"])
def test_simulate_unwritable_output(tmp_path, capsys, monkeypatch, field):
    # the path names an existing directory, so writing it fails, and that is
    # found before any integration
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["output"][field] = "taken"
    (tmp_path / "taken").mkdir()
    cfg_path, _ = write_config(tmp_path, cfg)

    def must_not_run(*args, **kwargs):
        raise AssertionError("integration started before the output path was checked")

    monkeypatch.setattr(dynamics, "_samples", must_not_run)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "output error" in capsys.readouterr().err
    # no temporary file is left, and output.csv is not written
    assert sorted(os.listdir(tmp_path)) == ["run.json", "taken"]
    assert os.listdir(tmp_path / "taken") == []


@pytest.mark.parametrize("summary", ["traj.csv", "sub/../traj.csv"])
def test_simulate_summary_same_as_csv_exits_2_naming_it(tmp_path, capsys, monkeypatch, summary):
    # both outputs would be written through the same temporary file
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["output"]["summary"] = summary
    cfg_path, _ = write_config(tmp_path, cfg)

    def must_not_run(*args, **kwargs):
        raise AssertionError("integration started before the output paths were checked")

    monkeypatch.setattr(dynamics, "_samples", must_not_run)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "output.summary: must differ from output.csv" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.json"]


def test_simulate_output_error_mid_stream(tmp_path, capsys, monkeypatch):
    # a write error after two blocks of 64 rows: exit 2, no temporary file left, and an
    # earlier run's outputs keep their bytes
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    (tmp_path / "traj.csv").write_bytes(b"earlier run\n")
    (tmp_path / "summary.json").write_bytes(b"{}\n")
    samples = dynamics._samples
    sizes = []

    def fails_after_two_blocks(*args, **kwargs):
        for rows in itertools.islice(samples(*args, **kwargs), 2):
            sizes.append(len(rows))
            yield rows
        assert len(list(tmp_path.glob("*.tmp"))) == 2  # both outputs are being written
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(dynamics, "_samples", fails_after_two_blocks)
    assert main(["simulate", str(cfg_path)]) == 2
    assert sizes == [64, 64]  # 201 samples: the stream is drawn a block at a time
    assert_no_child()
    assert "output error" in capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["run.json", "summary.json", "traj.csv"]
    assert (tmp_path / "traj.csv").read_bytes() == b"earlier run\n"
    assert (tmp_path / "summary.json").read_bytes() == b"{}\n"


def test_simulate_csv_mode_bits_as_plain_open(tmp_path):
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    assert main(["simulate", str(cfg_path)]) == 0
    with open(tmp_path / "plain", "w"):
        pass
    assert (stat.S_IMODE((tmp_path / "traj.csv").stat().st_mode)
            == stat.S_IMODE((tmp_path / "plain").stat().st_mode))


def _traced_peak(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_simulate_memory_independent_of_sample_count(tmp_path):
    # Samples are written as they are stepped, so ten times the rows must not
    # raise the peak; holding them costs 20 floats, 160 bytes, per row or more.
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["integrator"].update(sample_stride=1, n_steps=100)
    cfg_path, _ = write_config(tmp_path, cfg)
    _traced_peak(["simulate", str(cfg_path)])  # one-time allocations
    peaks = []
    for n_steps in (500, 5000):
        cfg["integrator"]["n_steps"] = n_steps
        cfg_path, _ = write_config(tmp_path, cfg)
        peaks.append(_traced_peak(["simulate", str(cfg_path)]))
    assert abs(peaks[1] - peaks[0]) <= 256 * 1024, peaks


def test_simulate_normalizes_initial_q(tmp_path):
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["initial"]["q"] = [2.0, 0.0, 0.0, 0.0]
    cfg["integrator"]["n_steps"] = 5
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 0
    _, data = read_csv(tmp_path / "traj.csv")
    assert data[0, 7] == 1.0  # q0 normalized on load


def test_convert_identity_quaternion(capsys):
    assert main(["convert", "quat2mat", "1", "0", "0", "0"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    mat = np.array([[float(v) for v in row.split()] for row in rows])
    np.testing.assert_array_equal(mat, np.eye(3))


def test_convert_mat2quat_z_rotation(capsys):
    vals = ["0", "-1", "0", "1", "0", "0", "0", "0", "1"]
    assert main(["convert", "mat2quat", *vals]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    got = [float(v) for v in out[0].split()]
    s = math.sqrt(0.5)
    np.testing.assert_allclose(got, [s, 0.0, 0.0, s], atol=1e-15)
    assert out[1] == "pivot: 0"


def test_convert_mat2quat_pi_about_x(capsys):
    vals = ["1", "0", "0", "0", "-1", "0", "0", "0", "-1"]
    assert main(["convert", "mat2quat", *vals]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    got = [float(v) for v in out[0].split()]
    np.testing.assert_allclose(got, [0.0, 1.0, 0.0, 0.0], atol=1e-15)
    assert out[1] == "pivot: 1"


def test_convert_roundtrip_17_digits(capsys):
    rng = np.random.default_rng(71)
    q = rng.standard_normal(4)
    q /= np.linalg.norm(q)
    assert main(["convert", "quat2mat", *(f"{v:.17g}" for v in q)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    flat = [v for row in rows for v in row.split()]
    assert main(["convert", "mat2quat", *flat]) == 0
    got = np.array([float(v) for v in capsys.readouterr().out.strip().splitlines()[0].split()])
    assert min(np.max(np.abs(got - q)), np.max(np.abs(got + q))) <= 1e-12


def test_convert_parse_and_geometry_errors(capsys):
    assert main(["convert", "quat2mat", "1", "0", "0"]) == 2
    assert main(["convert", "quat2mat", "1", "0", "0", "zebra"]) == 2
    assert main(["convert", "mat2quat", *(["0.5"] * 9)]) == 4
    assert main(["convert", "quat2mat", "0", "0", "0", "0"]) == 4
    err = capsys.readouterr().err
    assert "invalid geometry" in err


@pytest.mark.parametrize("args, code", [
    (["quat2mat", "inf", "0", "0", "0"], 4),
    (["quat2mat", "1e308", "1e308", "0", "0"], 4),
    (["mat2quat", "nan", "0", "0", "0", "1", "0", "0", "0", "1"], 4),
    (["mat2quat", *["1"] * 8], 2),
], ids=["non-finite q", "overflowing norm", "non-finite matrix", "8 values"])
def test_convert_rejects_bad_input(capsys, args, code):
    assert main(["convert", *args]) == code
    err = capsys.readouterr().err
    assert err.startswith("invalid geometry: ") == (code == 4), err


def test_quiet_log_level_suppresses_info(tmp_path):
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    env = child_env(QH_LOG="quiet")
    proc = subprocess.run([sys.executable, "-m", "qhdyn", "simulate", str(cfg_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "INFO" not in proc.stderr
    env["QH_LOG"] = "info"
    proc = subprocess.run([sys.executable, "-m", "qhdyn", "simulate", str(cfg_path)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "INFO" in proc.stderr


def test_simulate_and_convert_leave_verify_unloaded(tmp_path):
    # the parser lists the suites without loading verify, and so do convert and simulate;
    # the package still reaches it as qhdyn.verify
    assert list(cli.VERIFY_SUITES) == sorted(verify.SUITES)
    code = ("import sys, qhdyn, qhdyn.cli\n"
            "assert qhdyn.cli.main(['convert', 'quat2mat', '1', '0', '0', '0']) == 0\n"
            f"assert qhdyn.cli.main(['simulate', {str(tmp_path / 'missing.json')!r}]) == 2\n"
            "assert 'qhdyn.verify' not in sys.modules and 'signal' not in sys.modules\n"
            "assert qhdyn.verify is sys.modules['qhdyn.verify']\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(QH_LOG="quiet"))
    assert proc.returncode == 0, proc.stderr


def test_trace_reaches_every_layer_after_importing_cli_alone():
    # perfbench/tracer.py (read, not edited) takes each layer as an attribute of the package
    # after the benchmark child imported qhdyn.cli alone: qhdyn.verify comes from the
    # package's lazy attribute, without which a --trace 1 run raises AttributeError
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    code = ("import sys\nsys.dont_write_bytecode = True\nimport qhdyn, qhdyn.cli\n"
            "assert 'qhdyn.verify' not in sys.modules\n"
            f"sys.path.insert(0, {str(bench)!r})\nfrom tracer import LAYERS, Tracer\n"
            "tracer = Tracer(qhdyn)\ntracer.install()\ntracer.uninstall()\n"
            "assert [m.__name__ for m in tracer._modules] == [f'qhdyn.{n}' for n in LAYERS]\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env(QH_LOG="quiet"))
    assert proc.returncode == 0, proc.stderr


def test_verify_suite_passes(capsys):
    assert main(["verify", "jacobi", "--seed", "1", "--points", "50"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_verify_deterministic_output(capsys):
    assert main(["verify", "algebra", "--seed", "3", "--points", "200"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "algebra", "--seed", "3", "--points", "200"]) == 0
    assert capsys.readouterr().out == first


def test_verify_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setitem(verify.SUITES, "jacobi",
                        lambda rng, n: [verify.CheckResult("planted failure", 1.0, 0.0, n)])
    assert main(["verify", "jacobi"]) == 1
    assert capsys.readouterr().out == ("[jacobi] planted failure: residual 1.000e+00 <= 0 "
                                       "(n=1000) FAIL\n[jacobi] FAIL\n")


def test_cli_option_surface():
    # every argument of every subcommand: one that is not listed here, hidden
    # from --help or not, fails this test
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    surface = {name: [s for a in parser._actions if not isinstance(a, argparse._HelpAction)
                      for s in a.option_strings or [a.dest]]
               for name, parser in sub.choices.items()}
    assert surface == {"simulate": ["config"], "verify": ["suite", "--seed", "--points"],
                       "convert": ["direction", "values"]}
    with pytest.raises(SystemExit) as err:
        main(["verify", "jacobi", "--corrupt-tensor"])
    assert err.value.code == 2


def test_main_behaves_in_one_process_as_in_fresh_ones(tmp_path, capsys, monkeypatch):
    # main builds its parser once per process, so each later call must print,
    # write and exit as the same command does as the first call of a new process
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    monkeypatch.setenv("QH_LOG", "quiet")
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to this width
    codes = []
    for argv in (["verify", "jacobi", "--points", "50"], ["simulate", str(cfg_path)],
                 ["verify", "jacobi", "--points", "x"], ["verify", "jacobi", "--points", "50"]):
        fresh = subprocess.run([sys.executable, "-m", "qhdyn", *argv], capture_output=True,
                               text=True, env=child_env(QH_LOG="quiet", COLUMNS="80"))
        fresh_csv = (tmp_path / "traj.csv").read_bytes() if argv[0] == "simulate" else None
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        out, err = capsys.readouterr()
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if fresh_csv is not None:
            assert (tmp_path / "traj.csv").read_bytes() == fresh_csv
        codes.append(code)
    assert codes == [0, 0, 2, 0]


@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY_SHA256))
def test_verify_golden_output(capsys, suite):
    assert main(["verify", suite, "--seed", "0"]) == 0
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == GOLDEN_VERIFY_SHA256[suite]


@pytest.mark.parametrize("suite", sorted(GOLDEN_VERIFY_SEEDS_SHA256))
def test_verify_golden_output_seeds_0_to_11(capsys, suite):
    digest = hashlib.sha256()
    for seed in range(12):
        assert main(["verify", suite, "--seed", str(seed)]) == 0
        digest.update(capsys.readouterr().out.encode())
    assert digest.hexdigest() == GOLDEN_VERIFY_SEEDS_SHA256[suite]


def _suite_must_not_run(*args, **kwargs):
    raise AssertionError("a suite ran before its arguments were checked")


def test_verify_rejects_points_above_cap(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", _suite_must_not_run)
    for points in (0, cli.MAX_POINTS + 1, 10**9):
        assert main(["verify", "algebra", "--points", str(points)]) == 2
        assert "--points" in capsys.readouterr().err
    # the cap itself is accepted and reaches the suite unchanged
    calls = []
    monkeypatch.setattr(verify, "run_suite", lambda *a, **kw: calls.append(kw["n_points"]) or [])
    assert main(["verify", "algebra", "--points", str(cli.MAX_POINTS)]) == 0
    assert calls == [cli.MAX_POINTS]


def test_verify_rejects_negative_seed(capsys, monkeypatch):
    monkeypatch.setattr(verify, "run_suite", _suite_must_not_run)
    assert main(["verify", "maurer_cartan", "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_unknown_suite_exits_2():
    with pytest.raises(SystemExit) as err:
        main(["verify", "frobnicate"])
    assert err.value.code == 2


def test_console_entry_point(tmp_path):
    cfg_path, _ = write_config(tmp_path, FREE_TOP)
    proc = subprocess.run([sys.executable, "-m", "qhdyn", "simulate", str(cfg_path)],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0
    assert (tmp_path / "traj.csv").exists()


def test_simulate_rejects_too_many_samples(tmp_path, capsys, monkeypatch):
    from qhdyn import cli

    def must_not_run(*args, **kwargs):
        raise AssertionError("integration started before the sample count was checked")

    monkeypatch.setattr(dynamics, "integrate", must_not_run)
    monkeypatch.setattr(dynamics, "_samples", must_not_run)
    cfg = json.loads(json.dumps(FREE_TOP))
    cfg["integrator"].update(n_steps=10**12, sample_stride=1)
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "integrator.n_steps" in capsys.readouterr().err
    # the cap counts 1 + ceil(n_steps / sample_stride) samples
    cfg["integrator"].update(n_steps=3 * (cli.MAX_SAMPLES - 1), sample_stride=3)
    cfg_path, _ = write_config(tmp_path, cfg)
    assert cli.load_config(str(cfg_path)).n_steps == 3 * (cli.MAX_SAMPLES - 1)
    cfg["integrator"]["n_steps"] += 1
    cfg_path, _ = write_config(tmp_path, cfg)
    assert main(["simulate", str(cfg_path)]) == 2
    assert "integrator.n_steps" in capsys.readouterr().err
