"""The benchmark workloads: inputs drawn from a seed, one operation, checks.

Each workload object is built from the seed (this is the timed set-up), runs
one closed-loop operation per :meth:`run` call against the public API of
``qhdyn``, and checks that operation's outputs in :meth:`check`, outside the
timed region.  ``check`` returns a list of error strings, empty when the
outputs are correct.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import time
from pathlib import Path

import numpy as np

# Correctness bounds.  Worst values over seeds 0-30 when the benchmark was
# added: energy_rel 8.5e-13 (heavy top) and 1.3e-14 (dense output); |q| drift
# 3.7e-13 (threshold renorm) and 2.3e-16 (every step).  The |q| bound is the
# renorm threshold itself.
ENERGY_REL_MAX = 1e-9
QNORM_MAX = 1e-9

H = 1e-3
HEAVY_TOP = {"type": "heavy_top", "g": 9.81, "l": 1.0}
BODY = {"mass": 1.0, "inertia": [1.0, 2.0, 3.0]}

# Seed 0 reproduces the README run exactly; other seeds draw from the ranges
# below, which contain the seed-0 values.
SEED0_ROTATION = {"axis": [1.0, 0.0, 0.0], "angle": 0.4, "M": [0.2, 0.3, 5.0]}
SEED0_TRANSLATION = {"x": [0.5, -0.3, 0.2], "p": [0.1, 0.4, -0.2]}
ANGLE_RANGE = (0.2, 0.6)
M12_RANGE = (-0.5, 0.5)
M3_RANGE = (4.0, 6.0)
XP_RANGE = (-1.0, 1.0)

# qhdyn verify prints one line per check, then a suite PASS/FAIL line.
CHECK_LINE = re.compile(r"^\[(\w+)\] (.+): residual \S+ [<>]= \S+ \(n=\d+\) (PASS|FAIL)$")
CHECKS_PER_SUITE = {"algebra": 12, "brackets": 7, "jacobi": 3, "poisson_map": 1,
                    "maurer_cartan": 2, "symplectic": 4, "dynamics_oracle": 6}
WARM_POINTS = 20


def draw_rotation(seed: int) -> dict:
    if seed == 0:
        return dict(SEED0_ROTATION)
    rng = random.Random(seed)
    axis = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(a * a for a in axis))
    return {"axis": [a / norm for a in axis],
            "angle": rng.uniform(*ANGLE_RANGE),
            "M": [rng.uniform(*M12_RANGE), rng.uniform(*M12_RANGE), rng.uniform(*M3_RANGE)]}


def draw_translation(seed: int) -> dict:
    if seed == 0:
        return dict(SEED0_TRANSLATION)
    rng = random.Random(-seed)
    return {k: [rng.uniform(*XP_RANGE) for _ in range(3)] for k in ("x", "p")}


def _drift_errors(energy_rel: float, qnorm: float) -> list[str]:
    errors = []
    if not energy_rel <= ENERGY_REL_MAX:
        errors.append(f"energy drift {energy_rel:.3e} > {ENERGY_REL_MAX:g}")
    if not qnorm <= QNORM_MAX:
        errors.append(f"|q| drift {qnorm:.3e} > {QNORM_MAX:g}")
    return errors


class Simulate:
    """``qhdyn simulate`` on a JSON config, through ``qhdyn.cli.main``."""

    def __init__(self, qh, tmp: Path, config: dict, golden):
        self.qh = qh
        self.n_steps = config["integrator"]["n_steps"]
        self.rows = self.n_steps // config["integrator"]["sample_stride"] + 1
        self.csv = tmp / "traj.csv"
        self.summary = tmp / "summary.json"
        config["output"] = {"csv": str(self.csv), "summary": str(self.summary)}
        self.config = tmp / "run.json"
        self.config.write_text(json.dumps(config))
        # Every operation must write the same bytes; at seed 0 the golden ones.
        self.digest = golden
        self.integrate_s: list[float] = []
        self.energy_rel = math.nan

    def run(self):
        return self.qh.cli.main(["simulate", str(self.config)])

    warm = run

    def reset(self) -> None:
        self.integrate_s.clear()

    def extras(self) -> dict:
        return {"steps_per_s": self.n_steps / float(np.median(self.integrate_s)),
                "energy_drift_rel": self.energy_rel}

    def check(self, rc) -> list[str]:
        if rc != 0:
            return [f"qhdyn simulate exited {rc}"]
        data = self.csv.read_bytes()
        rows = data.count(b"\n") - 1
        errors = [] if rows == self.rows else [f"{rows} CSV rows, expected {self.rows}"]
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is None:
            self.digest = digest
        if digest != self.digest:
            errors.append(f"CSV sha256 {digest[:16]}... != expected {self.digest[:16]}...")
        summary = json.loads(self.summary.read_text())
        self.integrate_s.append(summary["wall_time_s"])
        drift = summary["max_drift"]
        self.energy_rel = drift["energy_rel"]
        return errors + _drift_errors(drift["energy_rel"], drift["qnorm"])


def sim_config(potential: dict, seed: int, translate: bool, renorm: str, stride: int) -> dict:
    rot = draw_rotation(seed)
    initial = {"axis_angle": {"axis": rot["axis"], "angle": rot["angle"]}, "M": rot["M"]}
    initial.update(draw_translation(seed) if translate else {"x": [0, 0, 0], "p": [0, 0, 0]})
    return {"body": BODY, "potential": potential, "initial": initial,
            "integrator": {"h": H, "n_steps": 10000, "renorm_policy": renorm,
                           "renorm_eps": 1e-9, "sample_stride": stride}}


class VerifyDefault:
    """All seven ``qhdyn verify`` suites at their DEFAULT_POINTS size."""

    def __init__(self, qh, seed: int):
        self.qh = qh
        self.seed = seed
        self.suites = list(CHECKS_PER_SUITE)
        self.suite_s: dict[str, list[float]] = {s: [] for s in self.suites}
        self.checks = 0
        self.checks_failed = 0

    def _pass(self, extra: list[str], record: bool):
        out = io.StringIO()
        codes = {}
        with contextlib.redirect_stdout(out):
            for suite in self.suites:
                t0 = time.perf_counter()
                codes[suite] = self.qh.cli.main(["verify", suite, "--seed", str(self.seed)] + extra)
                if record:
                    self.suite_s[suite].append(time.perf_counter() - t0)
        return codes, out.getvalue()

    def run(self):
        return self._pass([], record=True)

    def warm(self):
        return self._pass(["--points", str(WARM_POINTS)], record=False)

    def reset(self) -> None:
        for times in self.suite_s.values():
            times.clear()

    def extras(self) -> dict:
        out = {f"verify_{s}_s": float(np.median(t)) for s, t in self.suite_s.items()}
        out.update({"verify.checks": self.checks, "verify.checks_failed": self.checks_failed})
        return out

    def check(self, result) -> list[str]:
        codes, text = result
        errors = [f"qhdyn verify {s} exited {rc}" for s, rc in codes.items() if rc != 0]
        found = {s: 0 for s in self.suites}
        failed = []
        for line in text.splitlines():
            m = CHECK_LINE.match(line)
            if m:
                found[m.group(1)] += 1
                if m.group(3) != "PASS":
                    failed.append(f"{m.group(1)}: {m.group(2)}")
        self.checks = sum(found.values())
        self.checks_failed = len(failed)
        errors += [f"check failed: {f}" for f in failed]
        errors += [f"{s}: {n} checks reported, expected {CHECKS_PER_SUITE[s]}"
                   for s, n in found.items() if n != CHECKS_PER_SUITE[s]]
        if "negative control (flipped sign) residual" not in text:
            errors.append("Jacobi negative control missing")
        return errors


WORKLOADS = ("sim_heavy_top", "sim_dense_output", "verify_default")


def build(name: str, qh, seed: int, tmp: Path, golden: dict):
    """Build the inputs of one workload; this is the timed set-up."""
    gold = golden.get(name) if seed == 0 else None
    if name == "sim_heavy_top":
        return Simulate(qh, tmp, sim_config(HEAVY_TOP, seed, False, "threshold", 10), gold)
    if name == "sim_dense_output":
        return Simulate(qh, tmp, sim_config({"type": "harmonic", "k": 1.0}, seed, True,
                                            "every_step", 1), gold)
    if name == "verify_default":
        return VerifyDefault(qh, seed)
    raise ValueError(f"unknown workload {name!r}")
