"""Command-line front end: simulation runs, verification suites, conversions.

Exit codes: 0 success, 1 a ``verify`` check failed, 2 usage or configuration
error (including an output file that cannot be written), 3 numerical abort
(non-finite state or monitor during integration), 4 invalid geometry input.
The QH_LOG environment variable (quiet, info, debug) controls verbosity.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import functools
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import dynamics, so3
from .dynamics import DEFAULT_RENORM, BodyParams, InertiaTensor, RenormPolicy, Trajectory
from .errors import ConfigError, DomainError, GeometryError, IntegrationAborted, QhdynError
from .poisson import Chart, PhasePoint, coordinate_labels
from .quaternion import Quaternion, axis_angle_to_quat, quat_norm, quat_normalize

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NUMERIC = 3
EXIT_GEOMETRY = 4

log = logging.getLogger("qhdyn")

# Largest accepted sample count 1 + ceil(n_steps / sample_stride).  Samples
# are written as they are stepped, so this bounds the CSV, not memory: a row
# takes 260-370 bytes (475 at most), so 10**7 rows make 2.6-3.7 GB of CSV.
MAX_SAMPLES = 10**7

# Largest accepted ``verify --points``.  Every suite works a block at a time; what grows
# per point is maurer_cartan's ratios, about 16 bytes, and the small-q0 flags (brackets
# about 6 bytes, algebra 3), so 10**6 points trace under 20 MB.  On a 2-CPU host each suite
# took 0.16-0.79 s at 10**5 points, and symplectic, the slowest, 8.9 s at 10**6.
MAX_POINTS = 10**6

CSV_HEADER = ",".join(("t", *coordinate_labels(Chart.MIXED_M), "H", "qnorm", "pi1", "pi2", "pi3"))
# sorted(verify.SUITES), written out so that the parser does not load the verify module
VERIFY_SUITES = ("algebra", "brackets", "dynamics_oracle", "jacobi", "maurer_cartan",
                 "poisson_map", "symplectic")
# One CSV line for the 19 columns; "%.17g" prints the bytes "{:.17g}" does.
_CSV_ROW = ",".join(["%.17g"] * 19) + "\n"


def _setup_logging() -> None:
    level = os.environ.get("QH_LOG", "info").strip().lower()
    chosen = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level, logging.INFO)
    logging.basicConfig(level=chosen, format="%(levelname)s %(message)s")


@dataclass
class RunConfig:
    params: BodyParams
    state0: PhasePoint
    h: float
    n_steps: int
    renorm: RenormPolicy
    sample_stride: int
    csv_path: str
    summary_path: Optional[str]


def _as_mapping(node, path: str) -> dict:
    if not isinstance(node, dict):
        raise ConfigError(path, f"expected an object, got {type(node).__name__}")
    return node


def _get(node: dict, key: str, path: str):
    if key not in node:
        raise ConfigError(f"{path}.{key}", "missing required field")
    return node[key]


def _as_number(value, path: str, positive: bool = False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(path, f"expected a number, got {value!r}")
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(path, "must be finite")
    if positive and v <= 0.0:
        raise ConfigError(path, f"must be > 0, got {v!r}")
    return v


def _as_int(value, path: str, minimum: int = 1) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(path, f"expected an integer, got {value!r}")
    if value < minimum:
        raise ConfigError(path, f"must be >= {minimum}, got {value}")
    return value


def _as_vec(value, path: str, length: int, positive: bool = False) -> np.ndarray:
    if not isinstance(value, (list, tuple)) or len(value) != length:
        raise ConfigError(path, f"expected a list of {length} numbers")
    return np.array([_as_number(v, f"{path}[{i}]", positive) for i, v in enumerate(value)])


def _as_output_path(value, path: str) -> str:
    """A file path whose directory exists, checked before any integration."""
    if not isinstance(value, str) or not value:
        raise ConfigError(path, "expected a file path")
    parent = os.path.dirname(os.path.abspath(value))
    if not os.path.isdir(parent):
        raise ConfigError(path, f"directory {parent!r} does not exist")
    return value


def _checked(path: str, make, *args):
    """``make(*args)``, with a DomainError it raises reported as a ConfigError on ``path``."""
    try:
        return make(*args)
    except DomainError as exc:
        raise ConfigError(path, str(exc)) from exc


def _build_potential(node: dict, path: str, body_mass: float) -> dynamics.PotentialSpec:
    kind = _get(node, "type", path)
    if kind == "free":
        return dynamics.free()
    if kind == "linear_gravity":
        g = _as_number(_get(node, "g", path), f"{path}.g")
        m = _as_number(node.get("mass", body_mass), f"{path}.mass", positive=True)
        return dynamics.linear_gravity(m, g)
    if kind == "heavy_top":
        g = _as_number(_get(node, "g", path), f"{path}.g")
        ell = _as_number(_get(node, "l", path), f"{path}.l")
        m = _as_number(node.get("mass", body_mass), f"{path}.mass", positive=True)
        return _checked(f"{path}.l", dynamics.heavy_top, m, g, ell)
    if kind == "harmonic":
        k = _as_number(_get(node, "k", path), f"{path}.k")
        return _checked(f"{path}.k", dynamics.harmonic, k)
    raise ConfigError(f"{path}.type",
                      f"unknown potential {kind!r}; expected one of {dynamics.BUILTIN_POTENTIALS}")


def _build_renorm(node: dict, path: str) -> RenormPolicy:
    """The policy; ``renorm_eps`` is checked whatever the mode, and only ``threshold`` uses it."""
    eps = _as_number(node.get("renorm_eps", DEFAULT_RENORM.eps), f"{path}.renorm_eps",
                     positive=True)
    mode = node.get("renorm_policy", DEFAULT_RENORM.mode)
    return _checked(f"{path}.renorm_policy", RenormPolicy, mode, eps)


def load_config(path: str) -> RunConfig:
    """Parse and validate a simulation config; raises ConfigError with the
    offending field path on any violation."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(path, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from exc

    root = _as_mapping(raw, "<root>")
    body = _as_mapping(_get(root, "body", "<root>"), "body")
    mass = _as_number(_get(body, "mass", "body"), "body.mass", positive=True)
    inertia = InertiaTensor(*_as_vec(_get(body, "inertia", "body"), "body.inertia", 3,
                                     positive=True))

    potential = _build_potential(_as_mapping(_get(root, "potential", "<root>"), "potential"),
                                 "potential", mass)
    params = BodyParams(mass, inertia, potential)

    init = _as_mapping(_get(root, "initial", "<root>"), "initial")
    x0, p0, mom0 = [_as_vec(init.get(k, [0.0, 0.0, 0.0]), f"initial.{k}", 3) for k in "xpM"]
    if "q" in init and "axis_angle" in init:
        raise ConfigError("initial", "give either q or axis_angle, not both")
    if "axis_angle" in init:
        aa = _as_mapping(init["axis_angle"], "initial.axis_angle")
        axis = _as_vec(_get(aa, "axis", "initial.axis_angle"), "initial.axis_angle.axis", 3)
        angle = _as_number(_get(aa, "angle", "initial.axis_angle"), "initial.axis_angle.angle")
        q0 = _checked("initial.axis_angle.axis", axis_angle_to_quat, axis, angle)
    else:
        q0 = Quaternion.from_array(_as_vec(init.get("q", [1.0, 0.0, 0.0, 0.0]), "initial.q", 4))
        n, q0 = quat_norm(q0), _checked("initial.q", quat_normalize, q0)
        if abs(n - 1.0) > 1e-6:
            log.warning("initial.q has norm %.9g; normalizing", n)
    state0 = PhasePoint(x0, p0, q0, mom0, Chart.MIXED_M)

    integ = _as_mapping(_get(root, "integrator", "<root>"), "integrator")
    h = _as_number(_get(integ, "h", "integrator"), "integrator.h", positive=True)
    n_steps = _as_int(_get(integ, "n_steps", "integrator"), "integrator.n_steps")
    stride = _as_int(integ.get("sample_stride", 1), "integrator.sample_stride")
    samples = 1 + -(-n_steps // stride)
    if samples > MAX_SAMPLES:
        raise ConfigError("integrator.n_steps",
                          f"{n_steps} steps at sample_stride {stride} give {samples} samples; "
                          f"at most {MAX_SAMPLES} CSV rows are written")
    renorm = _build_renorm(integ, "integrator")

    out = _as_mapping(_get(root, "output", "<root>"), "output")
    csv_path = _as_output_path(_get(out, "csv", "output"), "output.csv")
    summary_path = out.get("summary")
    if summary_path is not None:
        summary_path = _as_output_path(summary_path, "output.summary")
        if os.path.abspath(summary_path) == os.path.abspath(csv_path):
            raise ConfigError("output.summary", "must differ from output.csv")
    return RunConfig(params, state0, h, n_steps, renorm, stride, csv_path, summary_path)


def _format_rows(values) -> str:
    """CSV lines for k rows given as 19k floats in a row: time, the 13
    coordinates, H, |q| and the three spatial momenta."""
    return _CSV_ROW * (len(values) // 19) % tuple(values)


def write_trajectory_csv(path: str, traj: Trajectory) -> None:
    """17-significant-digit CSV with '.' decimals, ',' delimiters, LF endings."""
    table = np.column_stack((traj.times, traj.states, traj.energy, traj.qnorm,
                             traj.pi_spatial))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(CSV_HEADER + "\n")
        # A batch at a time: converting the whole table to Python floats at
        # once would hold every row as objects and raise peak memory.
        for start in range(0, len(table), dynamics.ROWS_PER_BATCH):
            fh.write(_format_rows(table[start:start + dynamics.ROWS_PER_BATCH].ravel().tolist()))


def _usable_cpus() -> int:
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else os.cpu_count() or 1


def _reap(pid: int) -> None:
    """Wait for the CSV writer; raise the OSError it exited on, if any."""
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code:
        raise OSError(code, os.strerror(code) if 0 < code < 255 else f"CSV writer failed ({code})")


@contextlib.contextmanager
def _csv_rows(fh):
    """Yield ``put(rows)``, which writes an ``(n, 19)`` float array to ``fh`` as CSV rows.

    On two or more usable CPUs a forked writer formats the rows alongside
    stepping: ``put`` sends an array's doubles down a pipe, a run's block of
    ROWS_PER_BATCH rows at a time.  When the block ends, even by an exception,
    the pipe is closed and the writer awaited, and an OSError it exited on is
    raised in place of any other exception.  Otherwise, or when the pipe or
    the fork fails, ``put`` formats in this process.  On one CPU the writer
    measured no faster (medians, pinned to one CPU of a 2-CPU host):
    0.060-0.064 s in-process against 0.0645-0.067 s with the writer on the
    README heavy top, and 0.19-0.20 s both ways on dense output."""
    fh.flush()
    reason = ("no os.fork" if not hasattr(os, "fork")
              else "one usable CPU" if _usable_cpus() < 2 else None)
    if reason is None:
        fds = ()
        try:
            rfd, wfd = fds = os.pipe()
            pid = os.fork()
        except OSError as exc:
            for fd in fds:
                os.close(fd)
            reason = f"{'fork' if fds else 'pipe'} failed: {exc}"
    if reason:
        log.debug("CSV rows formatted in-process (%s)", reason)
        yield lambda rows: fh.write(_format_rows(rows.ravel().tolist()))
        return
    if pid == 0:  # the writer leaves only by os._exit, never into the caller's blocks
        code = 255
        try:
            import signal  # here only: the writer is the one user
            signal.signal(signal.SIGINT, signal.SIG_IGN)
            os.close(wfd)
            with open(rfd, "rb") as src, open(fh.fileno(), "w", encoding="utf-8",
                                              newline="\n", closefd=False) as dst:
                while data := src.read(8 * 19 * dynamics.ROWS_PER_BATCH):  # whole batches
                    dst.write(_format_rows(memoryview(data).cast("d")))
            code = 0
        except OSError as exc:
            code = exc.errno or 255
        finally:
            os._exit(code)
    os.close(rfd)
    log.debug("CSV rows formatted by writer process %d", pid)
    try:
        with open(wfd, "wb") as pipe:
            yield lambda rows: pipe.write(rows.tobytes())
    finally:
        _reap(pid)


@contextlib.contextmanager
def _replacing(path: str):
    """A new file ``<path>.<pid>.tmp``, opened like ``open(path, "w")`` so with
    its mode bits, that replaces ``path`` when the block succeeds and is removed
    when it raises.  A ``path`` naming a directory fails on entry, before any
    work, as the replace would at the end."""
    if os.path.isdir(path):
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    tmp = f"{path}.{os.getpid()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        os.remove(tmp)
        raise


def _simulate(cfg: RunConfig) -> dict:
    """Step the run, write each block of samples as CSV rows as it arrives, and
    return the summary, whose drifts are running maxima of |row - row at step 0|.
    Rows go through :func:`_replacing`, so output.csv changes only on success."""
    with _replacing(cfg.csv_path) as fh:
        t0 = time.perf_counter()
        fh.write(CSV_HEADER + "\n")
        samples, drift = 0, 0.0
        with _csv_rows(fh) as put:
            for rows in dynamics._samples(cfg.state0, cfg.params, cfg.h, cfg.n_steps, cfg.renorm,
                                          cfg.sample_stride):
                put(rows[:, :19])  # no |M| column
                if not samples:
                    ref = np.array([rows[0, 14], 1.0, *rows[0, 16:]])  # |q| drifts from 1
                # abs and max are exact, and every value is finite: the bits of a running max
                drift = np.maximum(drift, np.abs(rows[:, 14:] - ref).max(axis=0))
                samples += len(rows)
        wall = time.perf_counter() - t0
    h0, _, *pi0, mom0 = ref.tolist()
    e_drift, qnorm_drift, *pi_abs, mom_drift = drift.tolist()
    t, *z = rows[-1, :14].tolist()
    return {
        "final_state": {"t": t, "x": z[0:3], "p": z[3:6], "q": z[6:10], "M": z[10:]},
        "max_drift": {
            "energy_abs": e_drift,
            "energy_rel": e_drift / max(abs(h0), 1e-300),
            "qnorm": qnorm_drift,
            "mom_norm_abs": mom_drift,
            "mom_norm_rel": mom_drift / max(mom0, 1e-300),
            "pi_abs": pi_abs,
            "pi_rel": [a / max(abs(b), 1e-300) for a, b in zip(pi_abs, pi0)],
            "pi_initial": pi0,
        },
        "wall_time_s": wall,
        "n_steps": cfg.n_steps,
        "h": cfg.h,
        "samples": samples,
    }


def cmd_simulate(config_path: str) -> int:
    try:
        cfg = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # The summary's file is entered before stepping, so an unwritable
        # summary fails before any integration and leaves output.csv as it was.
        with _replacing(cfg.summary_path) if cfg.summary_path else contextlib.nullcontext() as fh:
            summary = _simulate(cfg)
            if fh:
                json.dump(summary, fh, indent=2)
                fh.write("\n")
    except IntegrationAborted as exc:
        print(f"numerical abort: {exc} (step {exc.step})", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as exc:
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    log.info("wrote %d samples to %s (%.3f s)", summary["samples"], cfg.csv_path,
             summary["wall_time_s"])
    if cfg.summary_path:
        log.info("wrote summary to %s", cfg.summary_path)
    return EXIT_OK


def cmd_verify(suite: str, seed: int, points: Optional[int]) -> int:
    from . import verify  # loaded by the one command that runs it
    results = verify.run_suite(suite, seed=seed, n_points=points)
    ok = True
    for r in results:
        rel = ">=" if r.mode == "min" else "<="
        status = "PASS" if r.passed else "FAIL"
        ok = ok and r.passed
        print(f"[{suite}] {r.name}: residual {r.residual:.3e} {rel} {r.tolerance:g} "
              f"(n={r.n}) {status}")
    print(f"[{suite}] {'PASS' if ok else 'FAIL'}")
    return EXIT_OK if ok else 1


def cmd_convert(direction: str, values: list[float]) -> int:
    if direction == "quat2mat":
        if len(values) != 4:
            print("quat2mat expects 4 values: q0 q1 q2 q3", file=sys.stderr)
            return EXIT_USAGE
        try:
            q = Quaternion.from_array(values)
            n, unit = quat_norm(q), quat_normalize(q)
        except DomainError as exc:  # a non-finite component, or a zero or overflowing norm
            print(f"invalid geometry: {exc}", file=sys.stderr)
            return EXIT_GEOMETRY
        if abs(n - 1.0) > 1e-6:
            log.warning("input quaternion has norm %.9g; normalizing", n)
        for row in so3.quat_to_matrix(unit):
            print(" ".join(f"{v:.17g}" for v in row))
        return EXIT_OK
    if len(values) != 9:  # "mat2quat", the one other direction the parser's choices allow
        print("mat2quat expects 9 values, row-major", file=sys.stderr)
        return EXIT_USAGE
    mat = np.array(values).reshape(3, 3)
    try:
        q, pivot = so3.matrix_to_quat(mat, return_pivot=True)
    except GeometryError as exc:
        print(f"invalid geometry: {exc}", file=sys.stderr)
        return EXIT_GEOMETRY
    print(" ".join(f"{v:.17g}" for v in q.as_array()))
    print(f"pivot: {pivot}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qhdyn",
                                     description="Quaternionic rigid-body simulator and verifier")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate a configured run, emit CSV + summary")
    p_sim.add_argument("config", help="path to a JSON run configuration")

    p_ver = sub.add_parser("verify", help="run a randomized verification suite")
    p_ver.add_argument("suite", choices=VERIFY_SUITES)
    p_ver.add_argument("--seed", type=int, default=0)
    p_ver.add_argument("--points", type=int, default=None)

    p_conv = sub.add_parser("convert", help="convert between quaternion and rotation matrix")
    p_conv.add_argument("direction", choices=["quat2mat", "mat2quat"])
    p_conv.add_argument("values", nargs="+", help="4 reals (quat2mat) or 9 reals row-major")
    return parser


_parser = functools.cache(build_parser)  # once per process: building costs more than parsing


def main(argv: Optional[list[str]] = None) -> int:
    _setup_logging()
    args = _parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args.config)
        if args.command == "verify":
            if args.points is not None and not 1 <= args.points <= MAX_POINTS:
                print(f"--points must be between 1 and {MAX_POINTS}", file=sys.stderr)
                return EXIT_USAGE
            if args.seed < 0:
                print("--seed must be >= 0", file=sys.stderr)
                return EXIT_USAGE
            return cmd_verify(args.suite, args.seed, args.points)
        # "convert": the subparsers are required, so no other command gets here
        try:
            values = [float(v) for v in args.values]
        except ValueError as exc:
            print(f"parse error: {exc}", file=sys.stderr)
            return EXIT_USAGE
        return cmd_convert(args.direction, values)
    except QhdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
