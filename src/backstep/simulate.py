"""Closed-loop semigroup simulation and the null-controllability schedule.

Propagation is exact per stage: the truncated closed-loop generator is
conjugated to the damped diagonal, so e^{t(A+BK)} y = T^-1 diag(e^{(l_n-l)t}) T y
with the assembled matrices; no ODE integrator touches the trajectory.  The
schedule applies the piecewise-constant feedback K_{lambda(N)} on intervals
delta_N = (T/L_sigma) lambda(N)^(-1/sigma), with lambda(N) certified inside
[N^gamma, N^gamma + C] and L_sigma the partial sum of lambda(p)^(-1/sigma)
closed with an integral tail bound (so the scheduled horizon ends strictly
before T, with the gap reported).

A state is its coefficient array y_n = <y, phi_n>; both trajectory files
print `trajectory_rows` (t, H norm, s-norm, control), one per sampled time.

A schedule is the plan only: each stage's lambda, certificate, delta and start
time.  `run_null_control` assembles one stage's synthesis at a time
(`stage_synthesis`), propagates the state through it and drops it, so a run
holds one stage's N x N matrices, not every stage's.  A stage's guards (those
of `assemble`, the TB = B bound among them) therefore fire during the run,
after the earlier stages have been propagated.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cauchy import csum, format_scalar
from .errors import MathGuardError
from .spectrum import DistCertificate, SpectrumModel, select_mu
from .transform import BacksteppingSynthesis, assemble, vector_norm

_SAMPLES_PER_STAGE = 16   # trajectory rows per stage of a null-control run


def s_weights(model: SpectrumModel, n: int, s: float) -> np.ndarray:
    """|lambda_j|^s for j <= n, the weights of the s-norm; |lambda_j| is the
    level ell_j.  Weights past the float range are refused."""
    with np.errstate(over="ignore"):        # refused just below
        weights = model.levels[:n] ** s
    if not np.all(np.isfinite(weights)):
        raise ValueError(f"s_weight {s}: the s-norm weights |lambda_j|^s overflow float64")
    return weights


def unit_weights(weights: np.ndarray) -> bool:
    """Whether every s-norm weight is 1, so that the s-norm is the H norm."""
    return bool(np.all(weights == 1.0))


def trajectory(synth: BacksteppingSynthesis, y: np.ndarray, ts) -> Iterator[np.ndarray]:
    """The coefficients of T^-1 diag(e^{(lambda_n - lambda) t}) T y at each time
    of `ts`, in order.

    The inputs are checked before the first state is formed, and so is every
    factor: a phase ell_n t past the float range is refused (ValueError)
    unless its modulus e^{-lambda t} is 0, where the factor is 0.  T y, the
    rates lambda_n - lambda and every factor e^{(lambda_n - lambda) t} are
    formed once, the factors by one exponential over the (times x modes)
    products; each time then costs one matrix-vector product.  One matrix
    product over all times would round differently from these products, so
    there is none.
    """
    ts = np.array([float(t) for t in ts])
    if np.any(ts < 0):
        raise ValueError("time must be nonnegative")
    if y.size != synth.N:
        raise ValueError(f"state length {y.size} mismatches truncation {synth.N}")
    w = synth.T_mat @ y
    rate = synth.eigenvalues - synth.lam
    with np.errstate(over="ignore", invalid="ignore"):     # a rate * t past the float range
        exponent = rate[None, :] * ts[:, None]
        decay = np.exp(exponent)
    lost = np.isnan(decay)
    if lost.any():
        # a factor of modulus e^{Re} = 0 is 0, though an infinite Im makes its
        # phase nan; at a nonzero modulus no float64 value represents it
        decay[lost & (np.exp(exponent.real) == 0)] = 0
        bad = np.argwhere(np.isnan(decay))
        if bad.size:
            i, n = bad[0]
            raise ValueError(f"phase ell_{n + 1} t = {synth.model.levels[n]} * {ts[i]} overflows "
                             f"float64 at a nonzero modulus e^(-lambda t); the state has no "
                             f"float64 value")
    return (synth.Tinv_mat @ (e * w) for e in decay)


def propagate(synth: BacksteppingSynthesis, y: np.ndarray, t: float) -> np.ndarray:
    """Exact closed-loop propagation T^-1 diag(e^{(lambda_n - lambda) t}) T y."""
    (out,) = trajectory(synth, y, [t])
    return out


def trajectory_rows(synth: BacksteppingSynthesis, weights: np.ndarray, ts,
                    states) -> list[tuple[float, float, float, float | complex]]:
    """Trajectory samples (t, ||y||, ||y||_s, u), one per time of `ts` and
    state of `states`: `weights` are the s-norm's `s_weights`, and each
    control u = sum_n k_n y_n is summed exactly, all of them in one `csum`.

    The norms are `vector_norm`, with the bits of `np.linalg.norm`.  When
    every weight is 1 (`s_weight` 0), weights * y is y bit for bit, so the
    s-norm is the H norm and is not computed again.  The controls are
    formed as k * y: complex multiplication rounds with fused multiply-adds,
    and y * k can differ from it in the last bit.
    """
    ys = np.array(list(states))
    us = csum(synth.k * ys).tolist()
    norms = [vector_norm(y) for y in ys]
    s_norms = norms if unit_weights(weights) else [vector_norm(wy) for wy in weights * ys]
    return list(zip(ts, norms, s_norms, us))


# ---------------------------------------------------------------------------
# null-control schedule


@dataclass(frozen=True)
class Stage:
    index: int
    lam: float
    cert: DistCertificate   # what `stage_synthesis` assembles with
    delta: float
    t_start: float
    t_end: float


@dataclass(frozen=True)
class NullControlSchedule:
    model: SpectrumModel
    horizon: float
    gamma: float
    sigma: float
    trunc: int
    stages: tuple[Stage, ...]
    L_sigma: float
    tail_gap: float         # horizon - t_end of the last stage

    @property
    def t_end(self) -> float:
        return self.stages[-1].t_end


def stage_truncation(base_trunc: int, lam_max: float, alpha: float) -> int:
    """Resolve at least 4 lambda^(1/alpha) modes so the resonance window is covered."""
    return max(base_trunc, 4 * math.ceil(lam_max ** (1.0 / alpha)))


def build_schedule(model: SpectrumModel, horizon: float, gamma: float, sigma: float,
                   n_stages: int, trunc: int = 48) -> NullControlSchedule:
    alpha = model.alpha
    crit = alpha / (alpha - 1.0)
    if not sigma > crit:
        raise ValueError(f"sigma must exceed alpha/(alpha-1) = {crit} (got {sigma})")
    if not gamma > sigma:
        raise ValueError(f"gamma must exceed sigma (got gamma={gamma}, sigma={sigma})")
    if n_stages < 1:
        raise ValueError("need at least one stage")
    if trunc < 1:
        raise ValueError(f"truncation {trunc} below 1")
    if horizon <= 0:
        raise ValueError("horizon must be positive")

    picks = []
    for k in range(1, n_stages + 1):
        base = math.ceil(k ** gamma - 1e-9)
        try:
            lam, cert = select_mu(model, base)
        except MathGuardError as exc:
            raise type(exc)(f"stage {k} (base {base}): {exc}") from exc
        picks.append((k, lam, cert))

    ratio = gamma / sigma
    partial = math.fsum(lam ** (-1.0 / sigma) for _, lam, _ in picks)
    tail = n_stages ** (1.0 - ratio) / (ratio - 1.0)   # integral bound, lambda(p) >= p^gamma
    L_sigma = partial + tail

    trunc_all = stage_truncation(trunc, picks[-1][1], alpha)
    if model.n_max < trunc_all:
        raise ValueError(f"model materializes {model.n_max} modes; schedule needs {trunc_all}")

    stages = []
    t = 0.0
    for k, lam, cert in picks:
        delta = (horizon / L_sigma) * lam ** (-1.0 / sigma)
        stages.append(Stage(index=k, lam=lam, cert=cert, delta=delta,
                            t_start=t, t_end=t + delta))
        t += delta
    return NullControlSchedule(model=model, horizon=horizon, gamma=gamma, sigma=sigma,
                               trunc=trunc_all, stages=tuple(stages), L_sigma=L_sigma,
                               tail_gap=horizon - t)


def stage_synthesis(schedule: NullControlSchedule, st: Stage) -> BacksteppingSynthesis:
    """Assemble one stage's feedback at the schedule's truncation.

    A stage whose assembly fails a guard raises that math guard, relabelled
    with the stage and its lambda.
    """
    try:
        return assemble(schedule.model, st.lam, schedule.trunc, st.cert)
    except MathGuardError as exc:
        raise type(exc)(f"stage {st.index} (lambda {st.lam}): {exc}") from exc


@dataclass(frozen=True)
class StageRecord:
    """What one stage did to the state; `records[i]` belongs to `schedule.stages[i]`."""
    norm_in: float
    norm_out: float
    norm_out_weighted: float
    contraction_log: float     # log(norm_out / norm_in)
    max_u: float


@dataclass(frozen=True)
class NullControlReport:
    records: tuple[StageRecord, ...]
    final_ratio: float
    samples: tuple[tuple[float, float, float, float | complex], ...]   # trajectory rows


def run_null_control(schedule: NullControlSchedule, y0: np.ndarray,
                     s_weight: float = 0.0) -> NullControlReport:
    """Drive `y0` through every stage, recording the H and s-norms and the control size
    at `_SAMPLES_PER_STAGE` evenly spaced times per stage.

    Each stage's synthesis is assembled when the state reaches it and dropped
    after it, so a stage's guard (see `stage_synthesis`) fires here.  Those
    guards flag a bad synthesis; a stage's growth cannot, since it is at most
    ||T|| ||T^-1|| e^{-lambda delta} for any stored pair of matrices.
    """
    if y0.size != schedule.trunc:
        raise ValueError(f"state length {y0.size} mismatches schedule truncation {schedule.trunc}")
    weights = s_weights(schedule.model, schedule.trunc, s_weight)
    unit = unit_weights(weights)
    y = y0
    records = []
    samples = []
    n_out = float(np.linalg.norm(y0))
    for st in schedule.stages:
        synth = stage_synthesis(schedule, st)
        n_in = n_out               # each stage starts from the state the last one left
        taus = [st.delta * q / _SAMPLES_PER_STAGE for q in range(_SAMPLES_PER_STAGE)]
        *states, y = trajectory(synth, y, taus + [st.delta])
        rows = trajectory_rows(synth, weights, [st.t_start + tau for tau in taus], states)
        samples.extend(rows)
        max_u = max(0.0, *(abs(row[3]) for row in rows))
        n_out = float(np.linalg.norm(y))
        n_out_s = n_out if unit else float(np.linalg.norm(weights * y))
        contraction = math.log(n_out / n_in) if n_in > 0 and n_out > 0 else float("-inf")
        records.append(StageRecord(norm_in=n_in, norm_out=n_out, norm_out_weighted=n_out_s,
                                   contraction_log=contraction, max_u=max_u))
        # release this stage's matrices before the next stage is assembled
        del synth
    last, n_0 = records[-1], records[0].norm_in
    samples.append((schedule.t_end, last.norm_out, last.norm_out_weighted, 0.0 + 0.0j))
    return NullControlReport(records=tuple(records),
                             final_ratio=last.norm_out / n_0 if n_0 > 0 else 0.0,
                             samples=tuple(samples))


# ---------------------------------------------------------------------------
# serialization


def write_trajectory_csv(rows, path, footer=()) -> None:
    """rows: iterable of (t, norm_H, norm_s, u); u printed as re+imi when complex.
    Each `footer` line follows the rows, after "# "."""
    lines = ["t,norm_H,norm_s,u"]
    for t, nh, ns, u in rows:
        lines.append(",".join([format_scalar(t), format_scalar(nh),
                               format_scalar(ns), format_scalar(u)]))
    lines.extend(f"# {line}" for line in footer)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def schedule_manifest_json(schedule: NullControlSchedule) -> str:
    doc = {
        "gamma": schedule.gamma,
        "sigma": schedule.sigma,
        "horizon": schedule.horizon,
        "stages": [{"N": st.index, "lambda": st.lam, "delta": st.delta, "t_start": st.t_start}
                   for st in schedule.stages],
    }
    return json.dumps(doc, indent=2) + "\n"
