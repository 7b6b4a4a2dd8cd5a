"""Command-line front door.

Subcommands: spectrum-check, cauchy-verify, synth, cost-sweep, simulate,
null-control.  Every run is driven by an optional JSON config file plus flag
overrides (flags win); identical config and seed produce byte-identical
outputs at a fixed BLAS thread count.  Exit codes: 0 success, 2 usage/config
error, 3 mathematical guard (resonance, gain floor, divergence, failed
certification).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cauchy import CauchySystem, build_cauchy, explicit_inverse, format_scalar
from .errors import MathGuardError
from .oracles import oracle_inverse
from .quantitative import cost_sweep, sweep_to_csv
from .simulate import (build_schedule, run_null_control, s_weights,
                       schedule_manifest_json, stage_truncation, trajectory,
                       trajectory_row, write_trajectory_csv)
from .spectrum import (Kind, dist_alpha, make_spectrum, model_from_json,
                       select_mu, verify_gaps)
from .transform import assemble, synthesis_to_json


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not hasattr(args, "handler"):
        parser.print_help()
        return 2
    try:
        cfg = _merge(args)
        return args.handler(cfg)
    except MathGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


# ---------------------------------------------------------------------------
# argument plumbing

_MODEL_DEFAULTS = {"model": None, "kind": "self_adjoint", "alpha": 2.0,
                   "scale": 1.0, "n_max": None}

_DEFAULTS = {
    "spectrum-check": {**_MODEL_DEFAULTS, "n_max": 200, "n_check": None,
                       "out": "gap_report.json"},
    "cauchy-verify": {**_MODEL_DEFAULTS, "sizes": "2,4,8,16,32,64", "lam": None,
                      "n_base": 1, "out": "cauchy_verify.csv"},
    "synth": {**_MODEL_DEFAULTS, "lam": None, "n_base": 1, "trunc": 32,
              "out": "synthesis.json"},
    "cost-sweep": {**_MODEL_DEFAULTS, "n_range": "1:25", "trunc": 300,
                   "out": "cost_sweep.csv"},
    "simulate": {**_MODEL_DEFAULTS, "lam": None, "n_base": 1, "trunc": 32,
                 "y0_modes": "1", "y0_file": None, "y0_random": False, "seed": 0,
                 "s_weight": 0.0, "t_max": 10.0, "t_steps": 50,
                 "out": "trajectory.csv"},
    "null-control": {**_MODEL_DEFAULTS, "gamma": 3.0, "sigma": 2.5, "horizon": 1.0,
                     "stages": 6, "trunc": 48, "y0_modes": "1,2", "y0_file": None,
                     "y0_random": False, "seed": 0, "s_weight": 0.0,
                     "growth_c_hat": None, "growth_C_hat": 10.0,
                     "out_prefix": "null_control"},
}


def _add_model_flags(p):
    p.add_argument("--model", help="model JSON file (overrides kind/alpha/scale/n-max)")
    p.add_argument("--kind", choices=[k.value for k in Kind])
    p.add_argument("--alpha", type=float)
    p.add_argument("--scale", type=float)
    p.add_argument("--n-max", dest="n_max", type=int)


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(prog="backstep", description=__doc__)
    sub = root.add_subparsers(dest="command")

    p = sub.add_parser("spectrum-check", help="validate eigenvalue gap estimates")
    _add_model_flags(p)
    p.add_argument("--n-check", dest="n_check", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_spectrum_check, command="spectrum-check")

    p = sub.add_parser("cauchy-verify", help="explicit inverse vs dense oracle over a size grid")
    _add_model_flags(p)
    p.add_argument("--sizes", help="comma-separated truncations")
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n-base", dest="n_base", type=int, help="certified damping near this N")
    p.add_argument("--out")
    p.set_defaults(handler=cmd_cauchy_verify, command="cauchy-verify")

    p = sub.add_parser("synth", help="assemble a synthesis and export it as JSON")
    _add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n-base", dest="n_base", type=int)
    p.add_argument("--trunc", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_synth, command="synth")

    p = sub.add_parser("cost-sweep", help="norm/gain sweep along certified damping parameters")
    _add_model_flags(p)
    p.add_argument("--n-range", dest="n_range", help="inclusive range lo:hi")
    p.add_argument("--trunc", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_cost_sweep, command="cost-sweep")

    p = sub.add_parser("simulate", help="closed-loop trajectory at one damping parameter")
    _add_model_flags(p)
    p.add_argument("--lambda", dest="lam", type=float)
    p.add_argument("--n-base", dest="n_base", type=int)
    p.add_argument("--trunc", type=int)
    _add_state_flags(p)
    p.add_argument("--t-max", dest="t_max", type=float)
    p.add_argument("--t-steps", dest="t_steps", type=int)
    p.add_argument("--out")
    p.set_defaults(handler=cmd_simulate, command="simulate")

    p = sub.add_parser("null-control", help="piecewise-feedback null-control schedule")
    _add_model_flags(p)
    p.add_argument("--gamma", type=float)
    p.add_argument("--sigma", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--stages", type=int)
    p.add_argument("--trunc", type=int)
    _add_state_flags(p)
    p.add_argument("--growth-c-hat", dest="growth_c_hat", type=float)
    p.add_argument("--growth-C-hat", dest="growth_C_hat", type=float)
    p.add_argument("--out-prefix", dest="out_prefix")
    p.set_defaults(handler=cmd_null_control, command="null-control")

    for sp in sub.choices.values():
        sp.add_argument("--config", help="JSON config; explicit flags override it")
    return root


def _add_state_flags(p):
    p.add_argument("--y0-modes", dest="y0_modes", help="comma-separated mode indices, unit mix")
    p.add_argument("--y0-file", dest="y0_file", help="JSON list of coefficients")
    p.add_argument("--y0-random", dest="y0_random", action="store_const", const=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--s-weight", dest="s_weight", type=float)


def _merge(args) -> dict:
    cfg = dict(_DEFAULTS[args.command])
    config_path = getattr(args, "config", None)
    if config_path:
        loaded = json.loads(Path(config_path).read_text(encoding="utf-8"))
        unknown = set(loaded) - set(cfg)
        if unknown:
            raise ValueError(f"unknown config keys for {args.command}: {sorted(unknown)}")
        # null means "unset", which only keys without a default may be
        nulls = sorted(k for k, v in loaded.items() if v is None and cfg[k] is not None)
        if nulls:
            raise ValueError(f"config keys for {args.command} must not be null: {nulls}")
        cfg.update(loaded)
    for key in cfg:
        v = getattr(args, key, None)
        if v is not None:
            cfg[key] = v
    for key, v in cfg.items():
        # float flags and the JSON parser both accept inf and nan
        if isinstance(v, float) and not math.isfinite(v):
            raise ValueError(f"setting {key} must be finite, got {v}")
    return cfg


def _resolve_model(cfg, n_max_floor: int = 2):
    if cfg.get("model"):
        return model_from_json(Path(cfg["model"]).read_text(encoding="utf-8"))
    n_max = cfg.get("n_max") or max(n_max_floor, 2)
    return make_spectrum(cfg["kind"], cfg["alpha"], cfg["scale"], max(n_max, n_max_floor))


def _resolve_lambda(model, cfg):
    if cfg.get("lam") is not None:
        lam = float(cfg["lam"])
        return lam, dist_alpha(model, lam).require_nonresonant()
    mu, cert = select_mu(model, int(cfg["n_base"]))
    return mu, cert


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
        rng = np.random.default_rng(int(cfg["seed"]))
        y = rng.standard_normal(n)
        y /= np.linalg.norm(y)
    else:
        modes = [int(tok) for tok in str(cfg["y0_modes"]).split(",") if tok.strip()]
        if not modes or any(m < 1 or m > n for m in modes):
            raise ValueError(f"y0 modes {modes} outside 1..{n}")
        y = np.zeros(n)
        y[[m - 1 for m in modes]] = 1.0
        y /= np.linalg.norm(y)
    return y


# ---------------------------------------------------------------------------
# handlers


def cmd_spectrum_check(cfg) -> int:
    model = _resolve_model(cfg, n_max_floor=cfg.get("n_max") or 200)
    report = verify_gaps(model, cfg.get("n_check"))
    Path(cfg["out"]).write_text(json.dumps(report.to_dict(), indent=2) + "\n", encoding="utf-8")
    print(f"gap report -> {cfg['out']} (passed={report.passed})")
    return 0 if report.passed else 3


def cmd_cauchy_verify(cfg) -> int:
    sizes = [int(tok) for tok in str(cfg["sizes"]).split(",") if tok.strip()]
    if not sizes:
        raise ValueError("empty size grid")
    model = _resolve_model(cfg, n_max_floor=max(sizes))
    lam, cert = _resolve_lambda(model, cfg)
    lines = ["N,lambda,residual_identity,residual_oracle"]
    worst_id = worst_or = 0.0
    for N in sizes:
        sysm = CauchySystem.from_model(model, lam, N, cert)
        C = build_cauchy(sysm)
        E = explicit_inverse(sysm)
        O = oracle_inverse(C)
        rid = float(np.max(np.abs(E @ C - np.eye(N))))
        ror = float(np.max(np.abs(E - O))) / float(np.max(np.abs(O)))
        worst_id, worst_or = max(worst_id, rid), max(worst_or, ror)
        lines.append(",".join([str(N), format_scalar(lam), format_scalar(rid), format_scalar(ror)]))
    lines.append(f"# max residual_identity={format_scalar(worst_id)} residual_oracle={format_scalar(worst_or)}")
    Path(cfg["out"]).write_text("\n".join(lines) + "\n", encoding="utf-8")
    print(f"cauchy verification -> {cfg['out']} (max identity residual {worst_id:.3e})")
    return 0


def cmd_synth(cfg) -> int:
    trunc = int(cfg["trunc"])
    model = _resolve_model(cfg, n_max_floor=trunc)
    lam, cert = _resolve_lambda(model, cfg)
    synth = assemble(model, lam, trunc, cert)
    Path(cfg["out"]).write_text(synthesis_to_json(synth), encoding="utf-8")
    print(f"synthesis lambda={lam} N={trunc} -> {cfg['out']}")
    return 0


def cmd_cost_sweep(cfg) -> int:
    lo, _, hi = str(cfg["n_range"]).partition(":")
    bases = range(int(lo), int(hi or lo) + 1)
    trunc = int(cfg["trunc"])
    model = _resolve_model(cfg, n_max_floor=trunc)
    result = cost_sweep(model, bases, trunc)
    sweep_to_csv(result, cfg["out"])
    print(f"cost sweep ({len(result.points)} points, {len(result.skipped)} skipped) -> {cfg['out']}")
    return 0


def cmd_simulate(cfg) -> int:
    trunc = int(cfg["trunc"])
    model = _resolve_model(cfg, n_max_floor=trunc)
    lam, cert = _resolve_lambda(model, cfg)
    synth = assemble(model, lam, trunc, cert)
    y0 = _initial_state(cfg, trunc)
    t_steps = int(cfg["t_steps"])
    if t_steps < 0:
        raise ValueError(f"t_steps must be non-negative, got {t_steps}")
    ts = [float(t) for t in np.linspace(0.0, float(cfg["t_max"]), t_steps + 1)]
    weights = s_weights(model, trunc, float(cfg["s_weight"]))
    rows = [trajectory_row(synth, weights, t, y) for t, y in zip(ts, trajectory(synth, y0, ts))]
    write_trajectory_csv(rows, cfg["out"])
    print(f"trajectory lambda={lam} -> {cfg['out']}")
    return 0


def cmd_null_control(cfg) -> int:
    stages = int(cfg["stages"])
    if stages < 1:
        raise ValueError("need at least one stage")
    trunc = int(cfg["trunc"])
    if cfg.get("model"):
        model = _resolve_model(cfg)
    else:
        # materialize enough modes for the deepest stage before building
        lam_hi = float(stages) ** float(cfg["gamma"]) + float(cfg["scale"]) + 1.0
        need = stage_truncation(trunc, lam_hi, float(cfg["alpha"]))
        model = make_spectrum(cfg["kind"], cfg["alpha"], cfg["scale"],
                              max(cfg.get("n_max") or 0, need))
    schedule = build_schedule(model, float(cfg["horizon"]), float(cfg["gamma"]),
                              float(cfg["sigma"]), stages, trunc)
    y0 = _initial_state(cfg, schedule.trunc)
    report = run_null_control(schedule, y0, float(cfg["s_weight"]),
                              growth_c_hat=cfg.get("growth_c_hat"),
                              growth_C_hat=float(cfg["growth_C_hat"]))
    prefix = cfg["out_prefix"]
    traj_path = f"{prefix}_trajectory.csv"
    write_trajectory_csv(report.samples, traj_path)
    with open(traj_path, "a", encoding="utf-8", newline="") as fh:
        fh.write(f"# final_ratio={format_scalar(report.final_ratio)}\n")
        fh.write(f"# t_end={format_scalar(schedule.t_end)} horizon_gap={format_scalar(schedule.tail_gap)}\n")
    Path(f"{prefix}_manifest.json").write_text(schedule_manifest_json(schedule), encoding="utf-8")
    print(f"null control: {stages} stages, final ratio {report.final_ratio:.3e} "
          f"-> {traj_path}, {prefix}_manifest.json")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
