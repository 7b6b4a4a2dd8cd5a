"""Benchmark command: one workload, run in fresh processes, one JSON result line.

    python3 bench/run.py --workload {sweep,schedule,certify} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
`src/`.  Each workload process gets one BLAS thread and no BACKSTEP_THREADS,
so a run is one process with one compute thread.  With --trace 0 the result
holds the end-to-end metrics: the timed phase's ops_per_s, op_p50_ms and
peak_rss_mb, and setup_s, the median over several fresh processes of the time
from process start to ready.  With --trace 1 a separate process runs with
every layer's public functions wrapped and reports per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOAD_NAMES = ("sweep", "schedule", "certify")   # certify is run by hand, see README
SETUP_PROBES = 4            # set-up-only processes; with the timed one, 5 set-up samples
DEADLINE_S = 170.0          # the whole command ends within this

END_TO_END_UNITS = {"ops_per_s": "ops/s", "op_p50_ms": "ms", "peak_rss_mb": "MB", "setup_s": "s"}
PER_LAYER_UNIT = {"calls": "count", "self_ms": "ms"}      # ratios: "ratio"


def worker_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "BACKSTEP_THREADS"}
    # one BLAS thread: on two cores a second BLAS thread competes with the
    # interpreter, and a first SVD with two threads took 7x longer than later ones
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        env.get("PYTHONPATH")])))
    return env


def launch(args, setup_only: bool, deadline: float) -> tuple[float, str]:
    """Start one workload process: (seconds from start to ready, rest of its stdout)."""
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE, text=True)
    killer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    killer.start()
    try:
        first = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        rc = proc.wait()
    finally:
        killer.cancel()
        proc.kill()
        proc.wait()
    if first != "ready\n":
        raise RuntimeError(f"workload process exited {rc} before it was set up")
    if rc != 0:
        raise RuntimeError(f"workload process exited {rc}")
    return setup_s, rest


def unit_of(metric: str) -> str:
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    return PER_LAYER_UNIT.get(metric.rsplit(".", 1)[1], "ratio")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "backstep" / "__init__.py").is_file():
        print(f"bench: no backstep sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        setups = [] if args.trace else [launch(args, True, deadline)[0]
                                        for _ in range(SETUP_PROBES)]
        setup_s, out = launch(args, False, deadline)
        result = json.loads(out.strip().splitlines()[-1])
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"bench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setups + [setup_s])
    result["metrics"] = {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
