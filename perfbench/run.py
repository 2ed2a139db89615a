"""qhdyn benchmark: one closed-loop workload per run, checked outputs, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sim_heavy_top --seed 0 --seconds 36 --trace 0

The workload runs in a fresh child interpreter that imports qhdyn from this
checkout's ``src/`` (no install), one operation at a time, with QH_LOG=quiet
and BLAS/OpenMP threads pinned to 1.  Set-up is timed in several fresh
interpreters and reported as their median.  With ``--trace 0`` the last line
of standard output carries the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics from a separate traced run.
The exit code is 0 only when every operation's outputs were correct.
See README.md in this directory for workloads, metrics and their links.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from workloads import CHECKS_PER_SUITE, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up-only interpreters started before and after the workload child, so
# that the set-up samples span the whole run and not one moment of it.
PROBES_BEFORE = 3
PROBES_AFTER = 3
RUN_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SUITES = tuple(CHECKS_PER_SUITE)
# Per-layer metrics that only some workloads produce; the rest read 0.
WORKLOAD_SPECIFIC = {"steps_per_s", "energy_drift_rel", "verify.checks",
                     "verify.checks_failed"} | {f"verify_{s}_s" for s in SUITES}


class BenchError(Exception):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONNOUSERSITE"] = "1"
    env["QH_LOG"] = "quiet"
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def start_child(args: list[str], env: dict, deadline: float,
                started: list) -> tuple[subprocess.Popen, float]:
    """Start the child and wait for its ``ready`` line; returns the process
    and the set-up time from spawn to that line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args], env=env,
                            cwd=ROOT, stdout=subprocess.PIPE, text=True)
    started.append(proc)
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "ready":
        finish(proc, deadline)
        raise BenchError(f"child did not finish set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen, deadline: float) -> None:
    try:
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("child ran past the time limit and was killed") from None
    if proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}")


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and that
    percentile; with ten samples or fewer, the maximum (percentile 100)."""
    s = sorted(samples)
    n = len(s)
    if n <= 10:
        return s[-1], 100.0
    k = n - 11
    return s[k], 100.0 * (k + 1) / n


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def end_to_end(setups: list[float], child: dict) -> dict:
    return {"setup_s": statistics.median(setups),
            "wall_p75_s": float(np.percentile(child["samples"], 75)),
            "peak_rss_mb": child["peak_rss_mb"]}


def report_end_to_end(workload: str, setups, child: dict, metrics: dict, units: dict) -> None:
    samples = child["samples"]
    tail_s, pct = tail(samples)
    extras = child["extras"]
    rows = [(name, metrics[name], units[name]) for name in metrics]
    rows.append(("wall_s", statistics.median(samples), "s"))
    rows.append(("wall_tail_s", tail_s, f"s, p{pct:.0f} of {len(samples)} operations"))
    rows.append(("wall_min_s", min(samples), "s"))
    sim = workload.startswith("sim_")
    rows.append(("steps_per_s", extras["steps_per_s"] if sim else "n/a", "1/s"))
    rows.append(("energy_drift_rel", extras["energy_drift_rel"] if sim else "n/a", "ratio"))
    rows.append(("failed_ratio", child["failed"] / child["attempted"], "ratio"))
    for s in SUITES:
        rows.append((f"verify_{s}_s", "n/a" if sim else extras[f"verify_{s}_s"], "s"))
    rows.append(("setup_samples", len(setups), "count"))
    for name, value, unit in rows:
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"  {name:<28} {shown:>14}  {unit}")


def report_per_layer(metrics: dict, units: dict) -> None:
    from micro import REFERENCE_US

    for name, value in metrics.items():
        ref = REFERENCE_US.get(name)
        note = f"  (ROADMAP table: {ref:g})" if ref is not None else ""
        print(f"  {name:<36} {value:>14.6g}  {units[name]}{note}")


def run(args) -> int:
    if not (ROOT / "src" / "qhdyn" / "__init__.py").is_file():
        print(f"no qhdyn sources under {ROOT / 'src'}; run from a qhdyn checkout",
              file=sys.stderr)
        return 2
    declared = declared_metrics()
    deadline = time.monotonic() + RUN_LIMIT_S
    env = child_env()
    common = ["--root", str(ROOT), "--workload", args.workload, "--seed", str(args.seed)]
    provenance = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "commit": git_commit(), "source_sha256": source_digest(),
                  "cpu_count": os.cpu_count(), "loadavg_start": os.getloadavg()}
    tmp_base = ROOT / ".perfbench_tmp"
    tmp_base.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=tmp_base))
    started: list[subprocess.Popen] = []

    def probe(i: int) -> float:
        probe_tmp = tmp / f"probe{i}"
        probe_tmp.mkdir()
        proc, setup = start_child([*common, "--tmp", str(probe_tmp), "--setup-only"], env,
                                  deadline, started)
        finish(proc, deadline)
        return setup

    try:
        setups = [probe(i) for i in range(PROBES_BEFORE)]
        work = tmp / "run"
        work.mkdir()
        result_path = tmp / "result.json"
        proc, setup = start_child([*common, "--tmp", str(work), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace), "--out", str(ROOT / ".perfbench_out"),
                                   "--result", str(result_path)], env, deadline, started)
        setups.append(setup)
        finish(proc, deadline)
        child = json.loads(result_path.read_text())
        setups += [probe(PROBES_BEFORE + i) for i in range(PROBES_AFTER)]
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        for proc in started:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        shutil.rmtree(tmp, ignore_errors=True)
    provenance.update({"loadavg_end": os.getloadavg(), "python": child["python"],
                       "numpy": child["numpy"], "qhdyn_file": child["qhdyn_file"]})
    print("provenance " + json.dumps(provenance))
    if not child["samples"]:
        print("no operation completed", *child["errors"], sep="\n", file=sys.stderr)
        return 1

    if args.trace:
        units = declared["per_layer"]
        produced = child["per_layer"]
        produced["wall_s"] = statistics.median(child["samples"])
        missing = [n for n in units if n not in produced and n not in WORKLOAD_SPECIFIC]
        if missing:
            print(f"per-layer metrics not produced: {missing}", file=sys.stderr)
            return 1
        metrics = {n: float(produced.get(n, 0.0)) for n in units}
        report_per_layer(metrics, units)
    else:
        units = declared["end_to_end"]
        metrics = end_to_end(setups, child)
        report_end_to_end(args.workload, setups, child, metrics, units)
    for err in child["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    correct = (child["failed"] == 0 and child["attempted"] >= 1
               and all(math.isfinite(v) for v in metrics.values()))
    print(json.dumps({"correct": correct, "attempted": child["attempted"],
                      "failed": child["failed"],
                      "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()}}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    # A terminated run still stops its child and removes its temporary files.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
