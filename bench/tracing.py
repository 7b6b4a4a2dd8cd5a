"""Spans around the public functions of each backstep layer.

The tracer wraps functions from outside the program: each listed function is
replaced, in its defining module and in every backstep module that imported
it by name, by a wrapper that records one span (name, start, end, parent,
operation id) in memory.  Spans are written out when the run ends and the
per-layer metrics are derived from them, so the untraced end-to-end run
carries no tracing cost at all.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from pathlib import Path

# module -> public functions timed as that module's layer
LAYERS = {
    "spectrum": ("select_mu", "dist_alpha", "mu_candidates"),
    "cauchy": ("csum", "lagrange_products", "explicit_inverse", "build_cauchy"),
    "transform": ("assemble", "feedback_gains_product", "feedback_gains_rowsum",
                  "spectral_norm", "weighted_norm", "inverse_residual"),
    "quantitative": ("cost_sweep", "sweep_to_csv"),
    "simulate": ("build_schedule", "run_null_control", "propagate", "write_trajectory_csv"),
    "cli": ("main",),
}

# (metric, numerator span, denominator span): work done per unit of work needed
RATIOS = (
    ("cauchy.lagrange_products.per_assemble", "cauchy.lagrange_products", "transform.assemble"),
    ("spectrum.dist_alpha.per_select_mu", "spectrum.dist_alpha", "spectrum.select_mu"),
)

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


def metric_names() -> list[str]:
    """Every per-layer metric the traced run prints, in print order."""
    names = []
    for span in SPAN_NAMES:
        names += [f"{span}.calls", f"{span}.self_ms"]
    return names + [r[0] for r in RATIOS]


class Tracer:
    """In-memory span recorder; `install` patches, `uninstall` restores."""

    def __init__(self):
        self.spans: list[list] = []        # [name, start, end, parent index, op id]
        self.op_id = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op_id])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()

        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "backstep" or key.startswith("backstep."))]
        for mod_name, fns in LAYERS.items():
            home = sys.modules[f"backstep.{mod_name}"]
            for fn_name in fns:
                orig = getattr(home, fn_name)
                wrapper = self._wrap(f"{mod_name}.{fn_name}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    def layer_metrics(self, n_ops: int) -> dict[str, float]:
        """calls and self_ms per operation for every span name, plus the ratios.

        Self time is a span's duration minus the time its direct child spans
        cover.  A ratio whose denominator never ran reads 0.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = dict.fromkeys(SPAN_NAMES, 0)
        self_s = dict.fromkeys(SPAN_NAMES, 0.0)
        for (name, start, end, _, _), inner in zip(self.spans, child):
            calls[name] += 1
            self_s[name] += end - start - inner
        out = {}
        for name in SPAN_NAMES:
            out[f"{name}.calls"] = calls[name] / n_ops
            out[f"{name}.self_ms"] = 1e3 * self_s[name] / n_ops
        for metric, num, den in RATIOS:
            out[metric] = calls[num] / calls[den] if calls[den] else 0.0
        return out

    def write(self, path: Path) -> None:
        """Spans as gzip'd JSON lines: name, start_s, end_s, parent, op."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps([name, start, end, parent, op]) + "\n")
