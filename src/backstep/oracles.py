"""Reference layer: independent oracles for the explicit synthesis and the
closed-loop checks of what it gives.

Only the `cauchy-verify` command imports this module.  Each oracle checks a
closed form by a route that does not share it, and states its own error in
u = 2^-53 and gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of
Numerical Algorithms*, 2002, section 3.1).  The closed-loop checks test the
paper's facts on an assembled synthesis: the eigenfunctions chi_n, the
identity T (A + BK) = (A - lambda I) T, and the decay they give."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .cauchy import CauchySystem, build_cauchy, csum, lagrange_products
from .errors import SingularMatrixError
from .quantitative import linear_fit, probe_depth
from .spectrum import Kind, SpectrumModel, dist_alpha
from .simulate import trajectory
from .transform import BacksteppingSynthesis, _certify, _term_relerr, spectral_norm


def oracle_inverse(mat: np.ndarray, pivot_rtol: float = 1e-12) -> np.ndarray:
    """Dense inverse by Gaussian elimination with partial pivoting.

    Brute-force oracle, independent of the product formula; intended for
    N <= 256.  Pivots below pivot_rtol times the pivot row's original max
    norm raise SingularMatrixError.  Error: column j solves (A + dA_j) x = e_j
    with |dA_j| <= gamma_{3N} P^T |L| |U| (Higham 2002, Thm 9.4), so about
    3 N u rho_N cond(A) relative, rho_N the growth factor.
    """
    a = np.array(mat, dtype=complex if np.iscomplexobj(mat) else float)
    n, m = a.shape
    if n != m:
        raise ValueError("matrix must be square")
    row_scale = np.max(np.abs(a), axis=1)
    piv = np.arange(n)
    for k in range(n):
        p = k + int(np.argmax(np.abs(a[k:, k])))
        if np.abs(a[p, k]) < pivot_rtol * max(row_scale[piv[p]], 1e-300):
            raise SingularMatrixError(f"pivot {abs(a[p, k])} at step {k} below tolerance")
        if p != k:
            a[[k, p]] = a[[p, k]]
            piv[[k, p]] = piv[[p, k]]
        a[k + 1:, k] /= a[k, k]
        a[k + 1:, k + 1:] -= np.outer(a[k + 1:, k], a[k, k + 1:])
    # solve A X = I with the LU factors
    x = np.eye(n, dtype=a.dtype)[piv]
    for k in range(n):                      # forward, unit lower triangle
        x[k + 1:] -= np.outer(a[k + 1:, k], x[k])
    for k in range(n - 1, -1, -1):          # backward
        x[k] /= a[k, k]
        x[:k] -= np.outer(a[:k, k], x[k])
    return x


@dataclass(frozen=True)
class LogSignedProduct:
    """A product stored as sign * exp(log_magnitude), sign of unit modulus.

    Long factor lists never overflow; a vanished factor gives sign 0.  Error,
    n factors: log_magnitude within gamma_{n+2} sum_k (1 + |log|f_k||), sign
    within 4 n u (exact for real factors); `value()` adds both plus u.
    """
    log_magnitude: float
    sign: complex

    @classmethod
    def from_factors(cls, factors: Sequence[complex]) -> "LogSignedProduct":
        arr = np.asarray(factors, dtype=complex)
        mags = np.abs(arr)
        if np.any(mags == 0.0):
            return cls(float("-inf"), 0.0j)
        log_mag = float(np.sum(np.log(mags)))
        sign = complex(np.prod(arr / mags))
        return cls(log_mag, sign)

    @property
    def is_zero(self) -> bool:
        return self.sign == 0.0

    def value(self) -> complex:
        if self.is_zero:
            return 0.0 + 0.0j
        return self.sign * math.exp(self.log_magnitude)


def eval_J(model: SpectrumModel, n: int, lam: float, N: int) -> complex:
    """Truncated telescoping sum J_n^N; exactly 1 in real arithmetic.

    Robust for any lambda (including 0 and resonant values): each term is the
    ratio of two degree-(N-1) products evaluated in the log domain, summed
    with exact rounding.  Error: a term carries the `LogSignedProduct` error
    of its 2N - 2 factors, each within 2u (1 + |zeta_j - zeta_m| / Dist), so
    |J - 1| is at most the worst term error times sum_j |term_j|, plus u/2.
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
    the direct evaluation otherwise.  Error: `eval_J`'s, one factor more.
    Each J_n is summed with `math.fsum` directly, not with the runtime's
    row-sum kernel `csum`, so the reference shares no summation code with
    what it checks.
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

    return np.array([complex(math.fsum(t.real.tolist()), math.fsum(t.imag.tolist()))
                     for t in terms.T])


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
    with R^2 >= 0.95, witnessing the bound's shape and its sharpness.  Error:
    each log-product within gamma_{N+2} sum_m (1 + |log factor_m|), below 1e-10
    at N <= 300 and lambda <= 25.
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
    C (lambda^2 + lambda^2 / Dist); the reported ratios should be stable in N.
    Error: each positive term within 4u (1 + |lambda_j - lambda_i| / Dist), and
    gamma_N more from the sums (Higham 2002, section 4.2).
    """
    cert = dist_alpha(model, lam).require_nonresonant()
    zeta = model.eigenvalues[:N]
    mags = np.abs(zeta[:, None] - zeta[None, :] - lam)   # [j, i] pattern |lambda_j - lambda_i - lam|
    sums_rows = lam ** 2 * np.sum(1.0 / mags, axis=1)
    sums_cols = lam ** 2 * np.sum(1.0 / mags, axis=0)
    bound = lam ** 2 + lam ** 2 / cert.dist
    return SumBoundReport(lam=lam, dist=cert.dist,
                          max_row_ratio=float(np.max(sums_rows)) / bound,
                          max_col_ratio=float(np.max(sums_cols)) / bound)


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
    Error: that of `bound_check_products`, inside the 1e-9 and 1e-12 slacks.
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


def factorization_residual(synth: BacksteppingSynthesis) -> float:
    """Entrywise defect of T against k_n b_p / (lambda_p - lambda_n - lambda).
    Error: at most about 2u (4 + (max|lambda_p - lambda_n| + lambda) / Dist).
    The table multiplies by the reciprocal, as complex division by a divisor
    with zero imaginary part does, so real and complex nodes round alike.
    """
    lam_p = synth.eigenvalues[:, None]
    lam_n = synth.eigenvalues[None, :]
    table = synth.k[None, :] * synth.b[:, None] * (1.0 / (lam_p - lam_n - synth.lam))
    scale = float(np.max(np.abs(table))) or 1.0
    return float(np.max(np.abs(synth.T_mat - table))) / scale


def gain_cross_check(model: SpectrumModel, lam: float, N: int, cert=None) -> float:
    """Worst ratio max_n gap_n / bar_n of the row-sum and product gains.

    The row-sum route k_n b_n = lambda^2 P_n S_n, S_n = csum_j(C_jn Q_j), is
    the product route -lambda P_n times -lambda S_n, so gap_n = |k_n| |lambda
    S_n + 1|: the partial-fraction identity, row by row.  bar_n adds the
    product bar _term_relerr(N) |k_n| and the row-sum bar, the same constant
    times the row mass lambda |k_n| sum_j |C_jn Q_j|; |k_n| cancels, so the
    ratio does not depend on b.  C and Q have `assemble`'s bits.  Not a
    runtime guard: in every `assemble` it raised the `schedule` benchmark's
    median operation from about 87 to 102 ms (2 shared cores, one BLAS
    thread), for a worst ratio of 0.0101 on the README and benchmark configs.
    """
    sys = CauchySystem.from_model(model, lam, N, cert)
    log_q, sgn_q = lagrange_products(sys)[2:]
    terms = build_cauchy(sys).T * (sgn_q * np.exp(log_q))[None, :]
    gap = np.abs(lam * csum(terms) + 1.0)
    bar = _term_relerr(N) * (1.0 + lam * np.sum(np.abs(terms), axis=1))
    return float(np.max(gap / bar))


# ---------------------------------------------------------------------------
# closed-loop checks


def chi(model: SpectrumModel, lam: float, n: int, N: int, cert=None) -> np.ndarray:
    """Coefficients chi_n[p] = b_p / (lambda_p - lambda_n + lambda), p <= N, of
    the closed-loop eigenfunction chi_n, for 1 <= n <= N <= model.n_max.
    Error: each entry within 4u (1 + |lambda_p - lambda_n| / Dist) relative.
    """
    _certify(model, lam, cert)
    if not 1 <= n <= N <= model.n_max:
        raise ValueError(f"chi needs 1 <= n <= N <= {model.n_max} (got n={n}, N={N})")
    zeta = model.eigenvalues[:N]
    return model.b[:N] / (zeta - zeta[n - 1] + lam)


@dataclass(frozen=True)
class ClosedLoopCheck:
    n: int
    k_on_chi: float | complex
    collinearity_defect: float
    eigen_defect: float


def verify_closed_loop_eigen(synth: BacksteppingSynthesis, n: int) -> ClosedLoopCheck:
    """Diagnostics for chi_n: <K, chi_n> (expect -1), collinearity of T chi_n
    with phi_n, and the eigenvector defect of A + BK at truncation.
    Error: `chi`'s relative error times sum_p |k_p chi_n[p]| on <K, chi_n>, and
    gamma_N times the norms of their terms on the two defects.
    """
    v = chi(synth.model, synth.lam, n, synth.N, synth.cert)
    k_on_chi = csum(synth.k * v)

    tchi = synth.T_mat @ v
    aligned = np.zeros_like(tchi)
    aligned[n - 1] = tchi[n - 1]
    norm_t = float(np.linalg.norm(tchi))
    coll = float(np.linalg.norm(tchi - aligned)) / norm_t if norm_t else 0.0

    lam_p = synth.eigenvalues
    target = lam_p[n - 1] - synth.lam
    resid = lam_p * v + synth.b * k_on_chi - target * v
    eig = float(np.linalg.norm(resid)) / float(np.linalg.norm(v))
    return ClosedLoopCheck(n=n, k_on_chi=k_on_chi, collinearity_defect=coll, eigen_defect=eig)


def operator_identity_residual(synth: BacksteppingSynthesis) -> float:
    """Relative max-norm defect of T (A + BK) = (A - lambda I) T at truncation.
    Error: gamma_{N+1} |T| (|A| + |b| |k|) entrywise (Higham 2002, section 3.5).
    """
    A = np.diag(synth.eigenvalues)
    lhs = synth.T_mat @ (A + np.outer(synth.b, synth.k))
    rhs = (A - synth.lam * np.eye(synth.N)) @ synth.T_mat
    scale = float(np.max(np.abs(rhs))) or 1.0
    return float(np.max(np.abs(lhs - rhs))) / scale


def condition_number(synth: BacksteppingSynthesis) -> float:
    """||T|| ||T^-1|| at truncation.  Error: `spectral_norm`'s on each factor,
    about 10 eps relative in all."""
    return spectral_norm(synth.T_mat) * spectral_norm(synth.Tinv_mat)


@dataclass(frozen=True)
class DecayReport:
    C_hat: float
    rate_hat: float | None


def measure_decay(synth: BacksteppingSynthesis, y0: np.ndarray, t_grid) -> DecayReport:
    """Transient constant and fitted exponential rate over a time grid.

    C_hat = max_t e^{lambda t} ||y(t)|| / ||y0||, which never exceeds the
    condition number of T at truncation; rate_hat is the log-linear fit of
    ||y(t)|| (None on the zero trajectory).  Error: each ||y(t)|| within
    about 2 gamma_N cond(T) relative (the two matrix-vector products of
    `simulate.trajectory`).
    """
    ts = [float(t) for t in t_grid]
    if not ts or any(b <= a for a, b in zip(ts, ts[1:])):
        raise ValueError("time grid must be nonempty and increasing")
    n0 = float(np.linalg.norm(y0))
    if n0 == 0.0:
        return DecayReport(C_hat=0.0, rate_hat=None)
    norms = [float(np.linalg.norm(y)) for y in trajectory(synth, y0, ts)]
    C_hat = max(math.exp(synth.lam * t) * n / n0 for t, n in zip(ts, norms))
    fit = linear_fit(ts, [math.log(n) for n in norms]) if all(n > 0 for n in norms) else None
    return DecayReport(C_hat=C_hat, rate_hat=None if fit is None else fit[0])
