"""Command-line front door.

Subcommands: spectrum-check, cauchy-verify, synth, cost-sweep, simulate,
null-control.  Every run is driven by an optional JSON config file plus flag
overrides (flags win); identical config and seed produce byte-identical
outputs at a fixed BLAS thread count.  Exit codes: 0 success, 2 usage/config
error, 3 mathematical guard (resonance, gain floor, failed certification,
float64 overflow).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cauchy import build_cauchy, explicit_inverse, format_scalar, node_table
from .errors import CertificationError, MathGuardError
from .quantitative import cost_sweep, sweep_to_csv
from .simulate import (build_schedule, run_null_control, s_weights,
                       schedule_manifest_json, stage_truncation, trajectory,
                       trajectory_rows, write_trajectory_csv)
from .spectrum import (Kind, check_law, dist_alpha, make_spectrum, model_from_json,
                       select_mu, verify_gaps)
from .transform import assemble, synthesis_to_json, unit_gaussian


def main(argv=None) -> int:
    """Run one subcommand and return its exit code.

    The CLI owns its process, so the first call also sets the process's
    allocator policy: on glibc, memory a synthesis frees stays in the heap
    for the next one (`_retain_heap`).  Importing `backstep` changes nothing.
    """
    _retain_heap()
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        return args.handler(_merge(args))
    except MathGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError) as exc:   # MemoryError: a --trunc too large to hold
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# process memory policy

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3     # glibc's mallopt parameter numbers
_MMAP_THRESHOLD = 4 << 20       # bytes; N x N float64 blocks up to N = 724 stay in the heap
_TRIM_THRESHOLD = 16 << 20      # bytes of free heap top kept; one sweep point peaks at ~3.3 MB


def _glibc() -> bool:
    try:
        return bool(os.confstr("CS_GNU_LIBC_VERSION"))
    except (AttributeError, ValueError, OSError):     # no confstr, or no such name
        return False


@functools.cache
def _retain_heap() -> None:
    """Keep freed synthesis memory in the heap for the next synthesis (glibc).

    glibc maps blocks above its dynamic mmap threshold (128 KiB at start,
    then the size of the largest freed mapped block) and returns a free heap
    top above twice that threshold to the OS.  Each synthesis frees its
    N x N temporaries, so under those defaults the next one faults them in
    again: about 10,550 minor faults per README cost sweep (422 pages per
    point).  With blocks below 4 MiB kept in the heap and up to 16 MiB of
    free top retained, a second sweep in one process faults at most a page
    or two.  Off glibc this does nothing.
    """
    if not _glibc():
        return
    import ctypes      # only a process that runs the CLI needs it
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)
    mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


# ---------------------------------------------------------------------------
# argument plumbing

class _Setting(NamedTuple):
    type: type                     # int, float, str or bool
    help: str | None = None
    choices: tuple[str, ...] | None = None


# every setting of every command, by its config key; its flag is --key with
# dashes for underscores, except lam's --lambda
_SETTINGS = {
    **dict.fromkeys(("alpha", "scale", "lam", "gamma", "sigma", "horizon", "s_weight", "t_max"),
                    _Setting(float)),
    **dict.fromkeys(("n_check", "trunc", "stages", "t_steps"), _Setting(int)),
    **dict.fromkeys(("out", "out_prefix"), _Setting(str)),
    "y0_random": _Setting(bool),
    "kind": _Setting(str, choices=tuple(k.value for k in Kind)),
    "model": _Setting(str, "model JSON file (overrides kind/alpha/scale)"),
    "sizes": _Setting(str, "comma-separated truncations"),
    "n_range": _Setting(str, "inclusive range lo:hi"),
    "n_base": _Setting(int, "certified damping near this N"),
    "y0_modes": _Setting(str, "comma-separated mode indices, unit mix"),
    "y0_file": _Setting(str, "JSON list of coefficients"),
    "seed": _Setting(int, "non-negative integer seed of --y0-random's draw (Python's random.Random)"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: `parse_args` keeps no
    state between calls, since each call fills a fresh namespace."""
    root = argparse.ArgumentParser(prog="backstep", description=__doc__)
    sub = root.add_subparsers(dest="command")
    for command, (handler, help_text, defaults) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for key in defaults:
            s = _SETTINGS[key]
            flag = "--lambda" if key == "lam" else "--" + key.replace("_", "-")
            kw = (dict(action="store_const", const=True) if s.type is bool
                  else dict(type=s.type, choices=s.choices))
            p.add_argument(flag, dest=key, help=s.help, **kw)
        p.add_argument("--config", help="JSON config; explicit flags override it")
        p.set_defaults(handler=handler, command=command)
    return root


def _merge(args) -> dict:
    """The command's settings: its defaults, overridden by the config file,
    overridden by the flags; each value checked against its type."""
    cfg = dict(_COMMANDS[args.command][2])
    if args.config:
        loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        if not isinstance(loaded, dict):
            raise ValueError(f"config file {args.config} must hold a JSON object")
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        # null means "unset", which only keys without a default may be
        nulls = sorted(k for k, v in loaded.items() if v is None and cfg[k] is not None)
        if nulls:
            raise ValueError(f"config keys for {args.command} must not be null: {nulls}")
        cfg.update(loaded)
    for key in cfg:
        v = getattr(args, key)
        if v is not None:
            cfg[key] = v
    return {key: v if v is None else _typed(key, v) for key, v in cfg.items()}


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "true or false"}


def _typed(key: str, v):
    """`v` as setting `key`'s type, or a usage error: a JSON 8.7 or true where
    an integer is due would run as 8 or 1, and "2" where a number is due would
    fail deep inside a handler."""
    want = _SETTINGS[key].type
    # random.Random would take a negative seed as its absolute value
    if key == "seed" and (type(v) is not int or v < 0):
        raise ValueError(f"seed must be a non-negative integer, got {v!r}")
    if want is float and type(v) is int:
        v = float(v) if abs(v) <= sys.float_info.max else math.inf    # past the float range
    if type(v) is not want:
        raise ValueError(f"setting {key} must be {_TYPE_NAMES[want]}, got {v!r}")
    # float flags and the JSON parser both accept inf and nan
    if want is float and not math.isfinite(v):
        raise ValueError(f"setting {key} must be finite, got {v}")
    return v


def _resolve_model(cfg, size: int):
    """The model file, or the law's model with the `size` modes the command
    needs (at least 2): a law's levels do not depend on how many it stores."""
    if cfg.get("model"):
        return model_from_json(Path(cfg["model"]).read_text(encoding="utf-8"))
    return make_spectrum(cfg["kind"], cfg["alpha"], cfg["scale"], max(size, 2))


def _resolve_lambda(model, cfg):
    if cfg.get("lam") is not None:
        return cfg["lam"], dist_alpha(model, cfg["lam"]).require_nonresonant()
    return select_mu(model, cfg["n_base"])


def _initial_state(cfg, n):
    if cfg.get("y0_file"):
        vals = json.loads(Path(cfg["y0_file"]).read_text(encoding="utf-8"))
        try:
            y = np.asarray(vals, dtype=float)
        except (TypeError, ValueError):
            raise ValueError(f"y0 file must hold a JSON list of {n} numbers") from None
        if y.shape != (n,):
            raise ValueError(f"y0 file has shape {y.shape}, the state needs ({n},)")
        if not np.all(np.isfinite(y)):
            raise ValueError("y0 file entries must be finite numbers (no null, inf or nan)")
    elif cfg.get("y0_random"):
        y = unit_gaussian(n, cfg["seed"])
    else:
        modes = [int(tok) for tok in cfg["y0_modes"].split(",") if tok.strip()]
        if not modes or any(m < 1 or m > n for m in modes):
            raise ValueError(f"y0 modes {modes} outside 1..{n}")
        y = np.zeros(n)
        y[[m - 1 for m in modes]] = 1.0
        y /= np.linalg.norm(y)
    return y


# ---------------------------------------------------------------------------
# handlers


def cmd_spectrum_check(cfg) -> int:
    model = _resolve_model(cfg, cfg["n_check"] or 200)
    report = verify_gaps(model, cfg["n_check"])
    Path(cfg["out"]).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"gap report -> {cfg['out']} (passed={report.passed})")
    return 0 if report.passed else 3


def cmd_cauchy_verify(cfg) -> int:
    sizes = [int(tok) for tok in cfg["sizes"].split(",") if tok.strip()]
    if not sizes:
        raise ValueError("empty size grid")
    model = _resolve_model(cfg, max(sizes))
    lam, cert = _resolve_lambda(model, cfg)
    from .oracles import oracle_inverse      # the reference layer loads only here
    lines = ["N,lambda,residual_identity,residual_oracle"]
    worst_id = worst_or = 0.0
    for N in sizes:
        table = node_table(model, N)
        C = build_cauchy(table, lam, cert.dist)
        with np.errstate(over="ignore", invalid="ignore"):     # refused just below
            E = explicit_inverse(table, lam, cert.dist)
            rid = float(np.max(np.abs(E @ C - np.eye(N))))
        if not math.isfinite(rid):      # checked first: the oracle would call such nodes singular
            raise CertificationError(f"N={N}: identity residual {rid}: float64 overflow at lambda {lam}")
        O = oracle_inverse(C)
        ror = float(np.max(np.abs(E - O))) / float(np.max(np.abs(O)))
        if not math.isfinite(ror):
            raise CertificationError(f"N={N}: oracle residual {ror} at lambda {lam}")
        worst_id, worst_or = max(worst_id, rid), max(worst_or, ror)
        lines.append(",".join([str(N), format_scalar(lam), format_scalar(rid), format_scalar(ror)]))
    lines.append(f"# max residual_identity={format_scalar(worst_id)} residual_oracle={format_scalar(worst_or)}")
    Path(cfg["out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"cauchy verification -> {cfg['out']} (max identity residual {worst_id:.3e})")
    return 0


def cmd_synth(cfg) -> int:
    trunc = cfg["trunc"]
    model = _resolve_model(cfg, trunc)
    lam, cert = _resolve_lambda(model, cfg)
    synth = assemble(model, lam, trunc, cert)
    Path(cfg["out"]).write_text(synthesis_to_json(synth), encoding="utf-8")
    print(f"synthesis lambda={lam} N={trunc} -> {cfg['out']}")
    return 0


def cmd_cost_sweep(cfg) -> int:
    lo, _, hi = cfg["n_range"].partition(":")
    bases = range(int(lo), int(hi or lo) + 1)
    trunc = cfg["trunc"]
    model = _resolve_model(cfg, trunc)
    result = cost_sweep(model, bases, trunc)
    sweep_to_csv(result, cfg["out"])
    print(f"cost sweep ({len(result.points)} points, {len(result.skipped)} skipped) -> {cfg['out']}")
    return 0


def cmd_simulate(cfg) -> int:
    trunc = cfg["trunc"]
    model = _resolve_model(cfg, trunc)
    lam, cert = _resolve_lambda(model, cfg)
    synth = assemble(model, lam, trunc, cert)
    y0 = _initial_state(cfg, trunc)
    t_steps = cfg["t_steps"]
    if t_steps < 0:
        raise ValueError(f"t_steps must be non-negative, got {t_steps}")
    ts = [float(t) for t in np.linspace(0.0, cfg["t_max"], t_steps + 1)]
    weights = s_weights(model, trunc, cfg["s_weight"])
    rows = trajectory_rows(synth, weights, ts, trajectory(synth, y0, ts))
    write_trajectory_csv(rows, cfg["out"])
    print(f"trajectory lambda={lam} -> {cfg['out']}")
    return 0


def cmd_null_control(cfg) -> int:
    stages = cfg["stages"]
    if stages < 1:
        raise ValueError("need at least one stage")
    trunc = cfg["trunc"]
    # materialize enough modes for the deepest stage before building; a model
    # file brings its own
    need = 2
    if not cfg.get("model"):
        check_law(cfg["alpha"], cfg["scale"])
        try:    # a power past the float range, or an infinite sum
            need = stage_truncation(trunc, stages ** cfg["gamma"] + cfg["scale"] + 1.0, cfg["alpha"])
        except OverflowError:
            raise ValueError(f"stages ** gamma + scale, the deepest stage's damping bound, "
                             f"overflows float64 (stages {stages}, gamma {cfg['gamma']})") from None
    model = _resolve_model(cfg, need)
    schedule = build_schedule(model, cfg["horizon"], cfg["gamma"], cfg["sigma"], stages, trunc)
    y0 = _initial_state(cfg, schedule.trunc)
    report = run_null_control(schedule, y0, cfg["s_weight"])
    prefix = cfg["out_prefix"]
    traj_path = f"{prefix}_trajectory.csv"
    write_trajectory_csv(report.samples, traj_path, footer=[
        f"final_ratio={format_scalar(report.final_ratio)}",
        f"t_end={format_scalar(schedule.t_end)} horizon_gap={format_scalar(schedule.tail_gap)}"])
    Path(f"{prefix}_manifest.json").write_text(schedule_manifest_json(schedule), encoding="utf-8")
    print(f"null control: {stages} stages, final ratio {report.final_ratio:.3e} "
          f"-> {traj_path}, {prefix}_manifest.json")
    return 0


_MODEL_DEFAULTS = {"model": None, "kind": "self_adjoint", "alpha": 2.0, "scale": 1.0}

# each command's handler, help line and settings with their defaults
_COMMANDS = {
    "spectrum-check": (cmd_spectrum_check, "validate eigenvalue gap estimates",
                       {**_MODEL_DEFAULTS, "n_check": None, "out": "gap_report.json"}),
    "cauchy-verify": (cmd_cauchy_verify, "explicit inverse vs dense oracle over a size grid",
                      {**_MODEL_DEFAULTS, "sizes": "2,4,8,16,32,64", "lam": None, "n_base": 1,
                       "out": "cauchy_verify.csv"}),
    "synth": (cmd_synth, "assemble a synthesis and export it as JSON",
              {**_MODEL_DEFAULTS, "lam": None, "n_base": 1, "trunc": 32,
               "out": "synthesis.json"}),
    "cost-sweep": (cmd_cost_sweep, "norm/gain sweep along certified damping parameters",
                   {**_MODEL_DEFAULTS, "n_range": "1:25", "trunc": 300, "out": "cost_sweep.csv"}),
    "simulate": (cmd_simulate, "closed-loop trajectory at one damping parameter",
                 {**_MODEL_DEFAULTS, "lam": None, "n_base": 1, "trunc": 32, "y0_modes": "1",
                  "y0_file": None, "y0_random": False, "seed": 0, "s_weight": 0.0,
                  "t_max": 10.0, "t_steps": 50, "out": "trajectory.csv"}),
    "null-control": (cmd_null_control, "piecewise-feedback null-control schedule",
                     {**_MODEL_DEFAULTS, "gamma": 3.0, "sigma": 2.5, "horizon": 1.0, "stages": 6,
                      "trunc": 48, "y0_modes": "1,2", "y0_file": None, "y0_random": False,
                      "seed": 0, "s_weight": 0.0, "out_prefix": "null_control"}),
}


if __name__ == "__main__":
    raise SystemExit(main())
