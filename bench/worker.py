"""One workload process: set up, time whole rounds, check the outputs, report.

Started by run.py with BLAS pinned to one thread.  It prints `ready` once set
up (imports, input generation, warm-up), so the parent can time set-up from
outside; with --setup-only it stops there.  Otherwise it repeats the
workload's round until --seconds have passed, checks every output, and prints
one JSON line: attempted, failed, correct and the metrics of this mode.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

from tracing import Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = BENCH_DIR / "out"


def time_rounds(ops, seconds: float, tracer: Tracer | None):
    """Whole rounds until `seconds` have passed.

    Returns [(key, wall_s, same output as the key's first, error)], the first
    output of each key, and the phase length.  Repeats are compared and
    dropped, so the peak memory is the program's, not retained outputs.
    """
    records, firsts = [], {}
    start = time.perf_counter()
    while True:
        for op in ops:
            if tracer is not None:
                tracer.op_id = len(records)
            t = time.perf_counter()
            try:
                out, err = op.run(), None
            except Exception as exc:     # counted as a failed operation, the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - t
            same = err is None and out == firsts.setdefault(op.key, out)
            records.append((op.key, wall, same, err))
        if time.perf_counter() - start >= seconds:
            return records, firsts, time.perf_counter() - start


def evaluate(workload, records, firsts) -> tuple[int, list[str]]:
    """(failed operations, check failures).

    An operation fails when it raised, or when its output fails the check:
    the first output of each key is checked, later repeats must equal it.
    """
    verdicts = {key: workload.check(key, out) for key, out in firsts.items()}
    failed, wrong = 0, []
    for key, _, same, err in records:
        if err is not None:
            failed += 1
            continue
        errs = verdicts[key] if same else [f"op {key}: output differs from its first repeat"]
        if errs:
            failed += 1
            wrong += errs
    return failed, wrong


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        ops = workload.round()
        workload.warm_up()
        print("ready", flush=True)
        if args.setup_only:
            return 0

        tracer = Tracer() if args.trace else None
        if tracer is not None:
            tracer.install()
        try:
            records, firsts, phase_s = time_rounds(ops, args.seconds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        failed, wrong = evaluate(workload, records, firsts)
        for err in [r[3] for r in records if r[3]][:5] + wrong[:20]:
            print(f"bench: {args.workload}: {err}", file=sys.stderr)
        attempted = len(records)
        ops_per_s = (attempted - failed) / phase_s
        print(f"bench: {args.workload} trace={args.trace}: {attempted} ops in {phase_s:.2f} s,"
              f" {ops_per_s:.4f} ops/s", file=sys.stderr)
        if tracer is not None:
            tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl.gz")
            metrics = tracer.layer_metrics(attempted)
        else:
            metrics = {"ops_per_s": ops_per_s,
                       "op_p50_ms": 1e3 * statistics.median(r[1] for r in records),
                       "peak_rss_mb": peak_rss_mb}
        print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
