"""One benchmark run inside a fresh interpreter: set-up, closed loop, trace.

Started by ``run.py`` with ``PYTHONPATH`` set to the checkout's ``src``.  It
imports qhdyn, builds the workload inputs and prints ``ready`` (the parent
times set-up up to that line).  With ``--setup-only`` it stops there.
Otherwise it runs one warm-up operation, then operations back to back for
the measured time, checks every output, and writes its result as JSON to
``--result``.

With ``--trace 1`` the measured time is split into an untraced loop, a
traced loop and the layer microbenchmarks; end-to-end numbers are never
taken from the traced loop.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
UNTRACED_SHARE = 0.35
TRACED_SHARE = 0.35
MICRO_SHARE = 0.30
MAX_ERRORS_KEPT = 5


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:MAX_ERRORS_KEPT - len(self.errors)])


def run_ops(wl, budget: float, tally: Tally) -> list[float]:
    """Closed loop: one operation at a time until the budget is spent (at
    least one).  Returns the wall time of each operation that succeeded."""
    samples = []
    stop = time.perf_counter() + budget
    while not samples or time.perf_counter() < stop:
        t0 = time.perf_counter()
        try:
            result = wl.run()
        except Exception:
            tally.record([traceback.format_exc(limit=3)])
            if time.perf_counter() >= stop:
                break
            continue
        samples.append(time.perf_counter() - t0)
        tally.record(wl.check(result))
    return samples


def traced_run(qh, wl, seconds: float, tally: Tally, out_dir: Path, workload: str,
               tmp: Path) -> dict:
    import micro
    import tracer

    untraced = run_ops(wl, UNTRACED_SHARE * seconds, tally)
    per_layer = wl.extras()
    wl.reset()
    tr = tracer.Tracer(qh)
    tr.install()
    try:
        traced = run_ops(wl, TRACED_SHARE * seconds, tally)
    finally:
        tr.uninstall()
    out_dir.mkdir(parents=True, exist_ok=True)
    tr.save(out_dir / f"{workload}.spans.npz")
    self_s, calls = tr.layer_totals()
    n = len(traced)
    for i, layer in enumerate(tracer.LAYERS):
        per_layer[f"{layer}.self_s"] = float(self_s[i]) / n
        per_layer[f"{layer}.calls"] = float(calls[i]) / n
    n_steps = getattr(wl, "n_steps", None)
    spans = tr.span_seconds("dynamics.integrate")
    per_layer["dynamics.integrate_step_us"] = (
        float(np.median(spans)) / n_steps * 1e6 if n_steps and spans.size else 0.0)
    per_layer["trace_overhead_ratio"] = float(np.median(traced) / np.median(untraced))
    per_layer.update(micro.measure(micro.build_cases(qh, tmp), MICRO_SHARE * seconds))
    return {"samples": untraced, "per_layer": per_layer}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--out")
    parser.add_argument("--result")
    args = parser.parse_args(argv)

    import qhdyn
    import qhdyn.cli  # also loads qhdyn.verify; the package does not import either

    import workloads

    expected = Path(args.root, "src", "qhdyn", "__init__.py").resolve()
    if Path(qhdyn.__file__).resolve() != expected:
        print(f"qhdyn imported from {qhdyn.__file__}, expected {expected}", file=sys.stderr)
        return 2
    golden = json.loads((HERE / "golden.json").read_text())
    tmp = Path(args.tmp)
    wl = workloads.build(args.workload, qhdyn, args.seed, tmp, golden)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    tally = Tally()
    try:
        tally.record(wl.check(wl.warm()))
    except Exception:
        tally.record([traceback.format_exc(limit=3)])
    wl.reset()
    if args.trace:
        result = traced_run(qhdyn, wl, args.seconds, tally, Path(args.out), args.workload, tmp)
    else:
        result = {"samples": run_ops(wl, args.seconds, tally), "extras": wl.extras()}
    result.update({
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "qhdyn_file": qhdyn.__file__,
    })
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
