"""Closed-loop semigroup simulation and the null-controllability schedule.

Propagation is exact per stage: the truncated closed-loop generator is
conjugated to the damped diagonal, so e^{t(A+BK)} y = T^-1 diag(e^{(l_n-l)t}) T y
with the assembled matrices; no ODE integrator touches the trajectory.  The
schedule applies the piecewise-constant feedback K_{lambda(N)} on intervals
delta_N = (T/L_sigma) lambda(N)^(-1/sigma), with lambda(N) certified inside
[N^gamma, N^gamma + C] and L_sigma the partial sum of lambda(p)^(-1/sigma)
closed with an integral tail bound (so the scheduled horizon ends strictly
before T, with the gap reported).

A schedule is the plan only: each stage's lambda, certificate, delta and start
time.  `run_null_control` assembles one stage's synthesis at a time
(`stage_synthesis`), propagates the state through it and drops it, so a run
holds one stage's N x N matrices, not every stage's.  A stage's guards (its
TB = B residual against `_TB_TOL`, and the assembly's own) therefore fire
during the run, after the earlier stages have been propagated; with a
divergence alarm set, an earlier stage's alarm can pre-empt a later stage's.
"""

from __future__ import annotations

import json
import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .cauchy import csum, format_scalar
from .errors import CertificationError, DivergenceError, MathGuardError
from .spectrum import DistCertificate, SpectrumModel, select_mu
from .transform import BacksteppingSynthesis, assemble
from .quantitative import linear_fit

_TB_TOL = 1e-9  # acceptance bound on every stage's TB = B residual


@dataclass(frozen=True)
class StateVector:
    """Eigenbasis coordinates with an optional weighted-norm exponent."""
    coeffs: np.ndarray
    s_weight: float = 0.0


def state(coeffs, s: float = 0.0) -> StateVector:
    return StateVector(coeffs=np.asarray(coeffs), s_weight=float(s))


def norm_h(sv: StateVector) -> float:
    return float(np.linalg.norm(sv.coeffs))


def s_weights(model: SpectrumModel, n: int, s: float) -> np.ndarray:
    """|lambda_j|^s for j <= n, the weights of the s-norm; |lambda_j| is the
    level ell_j."""
    return model.levels[:n] ** s


def norm_weighted(sv: StateVector, model: SpectrumModel) -> float:
    """sqrt(sum |lambda_n|^(2s) |c_n|^2); equals the H norm at s = 0."""
    return float(np.linalg.norm(s_weights(model, sv.coeffs.size, sv.s_weight) * sv.coeffs))


def trajectory(synth: BacksteppingSynthesis, y: np.ndarray, ts) -> Iterator[np.ndarray]:
    """The coefficients of T^-1 diag(e^{(lambda_n - lambda) t}) T y at each time
    of `ts`, in order.

    The inputs are checked before the first state is formed.  T y and the
    rates lambda_n - lambda are formed once; each time then costs one
    exponential and one matrix-vector product.  One matrix product over all
    times would round differently from these products, so there is none.
    """
    ts = [float(t) for t in ts]
    if any(t < 0 for t in ts):
        raise ValueError("time must be nonnegative")
    if y.size != synth.N:
        raise ValueError(f"state length {y.size} mismatches truncation {synth.N}")
    w = synth.T_mat @ y
    rate = synth.eigenvalues - synth.lam
    return (synth.Tinv_mat @ (np.exp(rate * t) * w) for t in ts)


def propagate(synth: BacksteppingSynthesis, sv: StateVector, t: float) -> StateVector:
    """Exact closed-loop propagation T^-1 diag(e^{(lambda_n - lambda) t}) T y."""
    (out,) = trajectory(synth, sv.coeffs, [t])
    return StateVector(coeffs=out, s_weight=sv.s_weight)


@dataclass(frozen=True)
class DecayReport:
    C_hat: float
    rate_hat: float | None


def measure_decay(synth: BacksteppingSynthesis, sv: StateVector, t_grid) -> DecayReport:
    """Transient constant and fitted exponential rate over a time grid.

    C_hat = max_t e^{lambda t} ||y(t)|| / ||y0||, which never exceeds the
    condition number of T at truncation; rate_hat is the log-linear fit of
    ||y(t)|| (None on the zero trajectory).
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("time grid must be nonempty and increasing")
    n0 = norm_h(sv)
    if n0 == 0.0:
        return DecayReport(C_hat=0.0, rate_hat=None)
    norms = [float(np.linalg.norm(y)) for y in trajectory(synth, sv.coeffs, ts)]
    C_hat = max(math.exp(synth.lam * t) * n / n0 for t, n in zip(ts, norms))
    fit = linear_fit(ts, [math.log(n) for n in norms]) if all(n > 0 for n in norms) else None
    return DecayReport(C_hat=C_hat, rate_hat=None if fit is None else fit[0])


# ---------------------------------------------------------------------------
# null-control schedule


@dataclass(frozen=True)
class Stage:
    index: int
    base: int               # integer ceil(index^gamma) fed to the mu selection
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
    if horizon <= 0:
        raise ValueError("horizon must be positive")

    picks = []
    for k in range(1, n_stages + 1):
        base = math.ceil(k ** gamma - 1e-9)
        try:
            lam, cert = select_mu(model, base)
        except MathGuardError as exc:
            raise type(exc)(f"stage {k} (base {base}): {exc}") from exc
        picks.append((k, base, lam, cert))

    ratio = gamma / sigma
    partial = math.fsum(lam ** (-1.0 / sigma) for _, _, lam, _ in picks)
    tail = n_stages ** (1.0 - ratio) / (ratio - 1.0)   # integral bound, lambda(p) >= p^gamma
    L_sigma = partial + tail

    trunc_all = stage_truncation(trunc, picks[-1][2], alpha)
    if model.n_max < trunc_all:
        raise ValueError(f"model materializes {model.n_max} modes; schedule needs {trunc_all}")

    stages = []
    t = 0.0
    for k, base, lam, cert in picks:
        delta = (horizon / L_sigma) * lam ** (-1.0 / sigma)
        stages.append(Stage(index=k, base=base, lam=lam, cert=cert, delta=delta,
                            t_start=t, t_end=t + delta))
        t += delta
    return NullControlSchedule(model=model, horizon=horizon, gamma=gamma, sigma=sigma,
                               trunc=trunc_all, stages=tuple(stages), L_sigma=L_sigma,
                               tail_gap=horizon - t)


def stage_synthesis(schedule: NullControlSchedule, st: Stage) -> BacksteppingSynthesis:
    """Assemble one stage's feedback at the schedule's truncation.

    A stage whose assembly fails a guard, or whose TB = B residual exceeds
    `_TB_TOL`, raises a math guard that names the stage and its lambda.
    """
    try:
        synth = assemble(schedule.model, st.lam, schedule.trunc, st.cert)
    except MathGuardError as exc:
        raise type(exc)(f"stage {st.index} (lambda {st.lam}): {exc}") from exc
    if synth.tb_residual_max > _TB_TOL:
        raise CertificationError(
            f"stage {st.index} (lambda {st.lam}): TB=B residual {synth.tb_residual_max} "
            f"exceeds the acceptance bound {_TB_TOL}")
    return synth


@dataclass(frozen=True)
class StageRecord:
    index: int
    lam: float
    delta: float
    norm_in: float
    norm_out: float
    norm_out_weighted: float
    contraction_log: float     # log(norm_out / norm_in)
    max_u: float


@dataclass(frozen=True)
class NullControlReport:
    records: tuple[StageRecord, ...]
    final_ratio: float
    final_ratio_weighted: float
    samples: tuple[tuple[float, float, float, complex], ...]   # (t, norm_H, norm_s, u)


def run_null_control(schedule: NullControlSchedule, sv: StateVector,
                     samples_per_stage: int = 16,
                     growth_c_hat: float | None = None,
                     growth_C_hat: float = 10.0) -> NullControlReport:
    """Drive the state through every stage, recording norms and control size.

    Each stage's synthesis is assembled when the state reaches it and dropped
    after it, so a stage's guard (see `stage_synthesis`) fires here.  With
    `growth_c_hat` set, a stage whose norm growth exceeds
    growth_C_hat * exp(growth_c_hat * lambda^(1/alpha)) raises the divergence
    alarm: the certified transient factor cannot explain such growth.
    """
    if sv.coeffs.size != schedule.trunc:
        raise ValueError(f"state length {sv.coeffs.size} mismatches schedule truncation {schedule.trunc}")
    alpha = schedule.model.alpha
    weights = s_weights(schedule.model, schedule.trunc, sv.s_weight)

    def norm_s(c: np.ndarray) -> float:
        return float(np.linalg.norm(weights * c))

    y = sv.coeffs
    records = []
    samples = []
    for st in schedule.stages:
        synth = stage_synthesis(schedule, st)
        n_in = float(np.linalg.norm(y))
        max_u = 0.0
        taus = [st.delta * q / samples_per_stage for q in range(samples_per_stage)]
        states = trajectory(synth, y, taus + [st.delta])
        for tau, y_t in zip(taus, states):
            u = csum(synth.k * y_t)
            max_u = max(max_u, abs(u))
            samples.append((st.t_start + tau, float(np.linalg.norm(y_t)), norm_s(y_t), complex(u)))
        y = next(states)
        n_out = float(np.linalg.norm(y))
        if growth_c_hat is not None and n_in > 0.0:
            limit = growth_C_hat * math.exp(growth_c_hat * st.lam ** (1.0 / alpha))
            if n_out > limit * n_in:
                raise DivergenceError(
                    f"stage {st.index} grew the norm by {n_out / n_in}, beyond the certified "
                    f"factor {limit}")
        contraction = math.log(n_out / n_in) if n_in > 0 and n_out > 0 else float("-inf")
        records.append(StageRecord(index=st.index, lam=st.lam, delta=st.delta,
                                   norm_in=n_in, norm_out=n_out, norm_out_weighted=norm_s(y),
                                   contraction_log=contraction, max_u=max_u))
        # release this stage's matrices before the next stage is assembled
        del synth, states
    n_end, ns_end = float(np.linalg.norm(y)), norm_s(y)
    samples.append((schedule.t_end, n_end, ns_end, 0.0 + 0.0j))
    n_in0, n_w0 = norm_h(sv), norm_s(sv.coeffs)
    return NullControlReport(
        records=tuple(records),
        final_ratio=n_end / n_in0 if n_in0 > 0 else 0.0,
        final_ratio_weighted=(ns_end / n_w0) if n_w0 > 0 else 0.0,
        samples=tuple(samples))


# ---------------------------------------------------------------------------
# serialization


def write_trajectory_csv(rows, path) -> None:
    """rows: iterable of (t, norm_H, norm_s, u); u printed as re+imi when complex."""
    lines = ["t,norm_H,norm_s,u"]
    for t, nh, ns, u in rows:
        lines.append(",".join([format_scalar(t), format_scalar(nh),
                               format_scalar(ns), format_scalar(u)]))
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
