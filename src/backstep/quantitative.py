"""Gain products, telescoping sums, bound witnesses, and the cost sweep.

The two scalar families behind every estimate:

    F_n(lambda) = prod_{m != n} (1 + lambda / (lambda_n - lambda_m))
    J_n(lambda) = sum_j prod_{m != n} (lambda_j - lambda_m - lambda)
                        / prod_{m != j} (lambda_j - lambda_m)

J_n is identically 1 at every truncation N >= n (a polynomial identity), so
k_n b_n = -lambda F_n J_n collapses to -lambda F_n; the sweep checks that the
operator-norm cost grows like exp(c lambda^(1/alpha)) along certified damping
parameters, witnessing both the upper bound and its sharpness by regression.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .cauchy import CauchySystem, LogSignedProduct, csum, lagrange_products
from .errors import MathGuardError
from .spectrum import Kind, SpectrumModel, dist_alpha, mu_candidates, select_mu
from . import transform
from .transform import assemble, spectral_norm


def eval_F(model: SpectrumModel, n: int, lam: float, N: int) -> LogSignedProduct:
    """Truncated gain product F_n over m <= N, in log-signed form.

    F_n(0) = 1; an exactly vanishing factor (lambda = lambda_m - lambda_n)
    raises the resonance guard.
    """
    if not 1 <= n <= N:
        raise ValueError("mode index out of range")
    if lam == 0.0:
        return LogSignedProduct.one()
    sys = CauchySystem.from_model(model, lam, N)
    log_f, sgn_f, _, _ = lagrange_products(sys)
    return LogSignedProduct(float(log_f[n - 1]), complex(sgn_f[n - 1]))


def eval_J(model: SpectrumModel, n: int, lam: float, N: int) -> complex:
    """Truncated telescoping sum J_n^N; exactly 1 in real arithmetic.

    Robust for any lambda (including 0 and resonant values): each term is the
    ratio of two degree-(N-1) products evaluated in the log domain, summed
    with exact rounding.
    """
    if not 1 <= n <= N:
        raise ValueError("mode index out of range")
    zeta = model.eigenvalues[:N]
    terms = np.empty(N, dtype=complex)
    for j in range(N):
        num = np.delete(zeta[j] - zeta - lam, n - 1)
        den = np.delete(zeta[j] - zeta, j)
        p = LogSignedProduct.from_factors(num)
        q = LogSignedProduct.from_factors(den)
        ratio = LogSignedProduct(p.log_magnitude - q.log_magnitude, p.sign * np.conj(q.sign))
        terms[j] = ratio.value()
    return csum(terms)


def all_J(model: SpectrumModel, lam: float, N: int) -> np.ndarray:
    """J_n^N for every n <= N at once.

    Shares the per-j products: term(n, j) = R_j / (D_j (zeta_j - zeta_n - lam))
    with R_j the full shifted product and D_j the node product.  Requires a
    non-resonant lambda (so no shortcut denominator vanishes); falls back to
    the direct evaluation otherwise.
    """
    zeta = model.eigenvalues[:N]
    shift = zeta[:, None] - zeta[None, :] - lam      # [j, n]
    if lam == 0.0 or np.any(shift == 0.0):
        return np.array([eval_J(model, n, lam, N) for n in range(1, N + 1)])

    dz = zeta[:, None] - zeta[None, :]
    np.fill_diagonal(dz, 1.0)
    log_d = np.sum(np.log(np.abs(dz)), axis=1)
    sgn_d = np.prod(dz / np.abs(dz), axis=1)
    log_r = np.sum(np.log(np.abs(shift)), axis=1)
    sgn_r = np.prod(shift / np.abs(shift), axis=1)

    log_terms = log_r[:, None] - log_d[:, None] - np.log(np.abs(shift))
    sgn_terms = sgn_r[:, None] * np.conj(sgn_d[:, None]) * np.conj(shift / np.abs(shift))
    terms = sgn_terms * np.exp(log_terms)

    return np.array([csum(col) for col in terms.T], dtype=complex)


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


@dataclass(frozen=True)
class ProductBoundReport:
    lams: tuple[float, ...]
    sup_logs: tuple[float, ...]
    slope: float | None
    intercept: float | None
    r2: float | None
    passed: bool | None    # None: fit declined (degenerate grid)


def bound_check_products(model: SpectrumModel, lambda_grid, N: int) -> ProductBoundReport:
    """Witness |prod (1 + lambda/(lambda_i - lambda_m))| <= C exp(C lambda^(1/alpha)).

    Regresses sup_i log-product on lambda^(1/alpha); passes on positive slope
    with R^2 >= 0.95, witnessing the bound's shape and its sharpness.
    """
    lams = [float(l) for l in lambda_grid]
    sups = []
    for lam in lams:
        log_f = lagrange_products(CauchySystem.from_model(model, lam, N))[0]
        sups.append(float(np.max(log_f)))
    fit = linear_fit([l ** (1.0 / model.alpha) for l in lams], sups)
    if fit is None:
        return ProductBoundReport(tuple(lams), tuple(sups), None, None, None, None)
    slope, intercept, r2 = fit
    return ProductBoundReport(tuple(lams), tuple(sups), slope, intercept, r2,
                              slope > 0.0 and r2 >= 0.95)


@dataclass(frozen=True)
class SumBoundReport:
    lam: float
    dist: float
    max_row_ratio: float
    max_col_ratio: float


def bound_check_sums(model: SpectrumModel, lam: float, N: int) -> SumBoundReport:
    """Row/column sums of lambda^2 / |lambda_j - lambda_i - lambda| against
    C (lambda^2 + lambda^2 / Dist); the reported ratios should be stable in N."""
    cert = dist_alpha(model, lam).require_nonresonant()
    zeta = model.eigenvalues[:N]
    mags = np.abs(zeta[:, None] - zeta[None, :] - lam)   # [j, i] pattern |lambda_j - lambda_i - lam|
    sums_rows = lam ** 2 * np.sum(1.0 / mags, axis=1)
    sums_cols = lam ** 2 * np.sum(1.0 / mags, axis=0)
    bound = lam ** 2 + lam ** 2 / cert.dist
    return SumBoundReport(lam=lam, dist=cert.dist,
                          max_row_ratio=float(np.max(sums_rows)) / bound,
                          max_col_ratio=float(np.max(sums_cols)) / bound)


def probe_depth(lam: float, alpha: float, N: int) -> int:
    """Modes to probe for gain-product extrema: the hard regime is n of order
    lambda^(1/alpha)."""
    return min(2 * math.ceil(lam ** (1.0 / alpha)) + 10, N)


@dataclass(frozen=True)
class LowerBoundReport:
    points: tuple[tuple[float, float, float], ...]   # (lam, dist, min log|F_n|)
    c_hat: float | None
    C_hat: float | None
    passed: bool


def lower_bound_check_F(model: SpectrumModel, mu_sequence, N: int,
                        n_probe: int | None = None) -> LowerBoundReport:
    """Envelope check of |F_n| >= Dist * C exp(-c lambda^(1/alpha)).

    Fits the envelope of min_n log|F_n / dist| against -lambda^(1/alpha);
    passes when every point sits on or above the fitted envelope (finite
    constants), and, for skew-adjoint models, when |F_n| >= 1 pointwise.
    """
    pts = []
    skew_ok = True
    for mu in mu_sequence:
        mu = float(mu)
        cert = dist_alpha(model, mu).require_nonresonant()
        depth = probe_depth(mu, model.alpha, N) if n_probe is None else min(n_probe, N)
        log_f = lagrange_products(CauchySystem.from_model(model, mu, N))[0]
        m = float(np.min(log_f[:depth]))
        if model.kind is Kind.SKEW_ADJOINT and m < -1e-12:
            skew_ok = False
        pts.append((mu, cert.dist, m))
    xs = [p[0] ** (1.0 / model.alpha) for p in pts]
    ys = [p[2] - math.log(p[1]) for p in pts]
    fit = linear_fit(xs, ys)
    if fit is None:
        return LowerBoundReport(tuple(pts), None, None, skew_ok)
    slope, intercept, _ = fit
    resid = np.asarray(ys) - (slope * np.asarray(xs) + intercept)
    envelope = intercept + float(np.min(resid))
    c_hat = max(-slope, 0.0)
    C_hat = -envelope
    ok = all(y >= -c_hat * x - C_hat - 1e-9 for x, y in zip(xs, ys))
    return LowerBoundReport(tuple(pts), c_hat, C_hat, ok and skew_ok)


# ---------------------------------------------------------------------------
# cost sweep


@dataclass(frozen=True)
class CostReport:
    base: int
    lam: float
    dist: float
    M_N: int | None
    norm_T: float
    norm_Tinv: float
    k_sup: float
    k_inf: float
    kb_inf: float
    F_sup: float
    F_inf: float
    tb_max: float
    cross_gap: float          # max |k rowsum - k product| over probed modes
    cross_bar: float          # combined certified bar for that gap
    fitted_exponent: float | None = None

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
    M_N = None
    if model.kind is Kind.SELF_ADJOINT:
        _, M_N, _ = mu_candidates(model, base)
    synth = assemble(model, mu, trunc, cert)

    rowsum = transform._rowsum_gains(model, mu, synth.cauchy_inv)
    gap = np.abs(rowsum.values - synth.k)
    bar = rowsum.roundoff + transform._term_relerr(trunc) * np.abs(synth.k)

    log_f = synth.log_f[:probe_depth(mu, model.alpha, trunc)]
    return CostReport(
        base=base, lam=mu, dist=cert.dist, M_N=M_N,
        norm_T=spectral_norm(synth.T_mat), norm_Tinv=spectral_norm(synth.Tinv_mat),
        k_sup=float(np.max(np.abs(synth.k))), k_inf=float(np.min(np.abs(synth.k))),
        kb_inf=float(np.min(np.abs(synth.kb))),
        F_sup=float(np.exp(np.max(log_f))), F_inf=float(np.exp(np.min(log_f))),
        tb_max=synth.tb_residual_max,
        cross_gap=float(np.max(gap)), cross_bar=float(np.max(bar)))


def cost_sweep(model: SpectrumModel, bases, trunc: int) -> SweepResult:
    """Full synthesis at the certified damping parameter of each base N.

    Resonance or certification alarms skip the point and continue.  The
    fitted exponent is the OLS slope of log(norm T + norm T^-1) against
    lambda^(1/alpha) over the surviving points.
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
    fit = linear_fit([p.lam ** (1.0 / model.alpha) for p in points],
                     [math.log(p.cost) for p in points]) if len(points) >= 2 else None
    if fit is not None:
        slope, intercept, r2 = fit
        points = [replace(p, fitted_exponent=slope) for p in points]
    else:
        slope = intercept = r2 = None
    return SweepResult(points=tuple(points), skipped=tuple(skipped),
                       slope=slope, intercept=intercept, r2=r2, alpha=model.alpha)


def sweep_to_csv(result: SweepResult, path) -> None:
    """Header row, one row per point, '#'-prefixed fit footer."""
    from .cauchy import format_scalar as fmt
    lines = ["N,lambda,dist,norm_T,norm_Tinv,k_sup,k_inf,F_inf,fit_exponent"]
    for p in result.points:
        fit = "" if p.fitted_exponent is None else fmt(p.fitted_exponent)
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
