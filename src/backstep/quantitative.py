"""The cost sweep: one synthesis per certified damping parameter.

Each point records the norms of T and T^-1, the gains and the gain products
F_n(lambda); the fitted slope of log(norm T + norm T^-1) against
lambda^(1/alpha) witnesses the cost law exp(c lambda^(1/alpha)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import format_scalar as fmt
from .errors import MathGuardError
from .spectrum import SpectrumModel, select_mu
from .transform import assemble, spectral_norm


def linear_fit(x, y) -> tuple[float, float, float] | None:
    """OLS (slope, intercept, R^2); None when fewer than two distinct abscissae."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.size < 2 or np.ptp(x) == 0.0:
        return None
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(intercept), r2


def probe_depth(lam: float, alpha: float, N: int) -> int:
    """Modes to probe for gain-product extrema: the hard regime is n of order
    lambda^(1/alpha)."""
    return min(2 * math.ceil(lam ** (1.0 / alpha)) + 10, N)


# ---------------------------------------------------------------------------
# cost sweep


@dataclass(frozen=True)
class CostReport:
    """One sweep point: the columns of the sweep CSV before the sweep's fitted exponent."""
    base: int
    lam: float
    dist: float
    norm_T: float
    norm_Tinv: float
    k_sup: float
    k_inf: float
    F_inf: float

    @property
    def cost(self) -> float:
        return self.norm_T + self.norm_Tinv


@dataclass(frozen=True)
class SweepResult:
    points: tuple[CostReport, ...]
    skipped: tuple[tuple[int, str], ...]
    slope: float | None
    intercept: float | None
    r2: float | None
    alpha: float


def _sweep_point(model: SpectrumModel, base: int, trunc: int) -> CostReport:
    mu, cert = select_mu(model, base)
    synth = assemble(model, mu, trunc, cert)
    log_f = synth.log_f[:probe_depth(mu, model.alpha, trunc)]
    return CostReport(
        base=base, lam=mu, dist=cert.dist,
        norm_T=spectral_norm(synth.T_mat), norm_Tinv=spectral_norm(synth.Tinv_mat),
        k_sup=float(np.max(np.abs(synth.k))), k_inf=float(np.min(np.abs(synth.k))),
        F_inf=float(np.exp(np.min(log_f))))


def cost_sweep(model: SpectrumModel, bases, trunc: int) -> SweepResult:
    """Full synthesis at the certified damping parameter of each base N.

    Resonance or certification alarms (the TB = B bound among them) skip the
    point and continue.  The fitted exponent is the OLS slope of
    log(norm T + norm T^-1) against lambda^(1/alpha) over the surviving points.
    """
    bases = list(bases)
    if not bases:
        raise ValueError("empty sweep range")

    points, skipped = [], []
    for base in bases:
        try:
            points.append(_sweep_point(model, base, trunc))
        except MathGuardError as exc:
            skipped.append((base, f"{type(exc).__name__}: {exc}"))
    slope, intercept, r2 = linear_fit([p.lam ** (1.0 / model.alpha) for p in points],
                                      [math.log(p.cost) for p in points]) or (None, None, None)
    return SweepResult(points=tuple(points), skipped=tuple(skipped),
                       slope=slope, intercept=intercept, r2=r2, alpha=model.alpha)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Header row, one row per point, '#'-prefixed fit footer."""
    lines = ["N,lambda,dist,norm_T,norm_Tinv,k_sup,k_inf,F_inf,fit_exponent"]
    fit = "" if result.slope is None else fmt(result.slope)
    for p in result.points:
        lines.append(",".join([str(p.base), fmt(p.lam), fmt(p.dist), fmt(p.norm_T),
                               fmt(p.norm_Tinv), fmt(p.k_sup), fmt(p.k_inf),
                               fmt(p.F_inf), fit]))
    for base, reason in result.skipped:
        lines.append(f"# skipped N={base}: {reason}")
    if result.slope is not None:
        lines.append(f"# fit: log-cost ~ {fmt(result.slope)} * lambda^(1/{fmt(result.alpha)})"
                     f" + {fmt(result.intercept)}, r2={fmt(result.r2)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("\n".join(lines) + "\n")
