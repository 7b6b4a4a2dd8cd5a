"""Backstepping transformation, feedback gains and operator norms.

All matrices act on coefficient vectors in the eigenbasis: `T_mat[p, n]` is
the table entry <T phi_n, phi_p> = k_n b_p / (lambda_p - lambda_n - lambda),
so `T_mat @ f` are the coefficients of T f.  T and T^-1 share one Cauchy
matrix C_pn = 1/(lambda_p - lambda_n - lambda):

    T = diag(b) C diag(k),     T^-1 = -lambda diag(b) C^T diag(Q / b),

from C^-1 = lambda^2 diag(P) C^T diag(Q) and k_n b_n = -lambda P_n (P cancels).

The gains solve the uniqueness condition T B = B.  The product route
k_n b_n = -lambda P_n = -lambda F_n(lambda) has plain relative error.  The
row-sum route k_n b_n = sum_j (C^-1)_nj agrees with it by the partial-fraction
identity lambda sum_j Q_j / (lambda_j - lambda_n - lambda) = -1, but cancels
catastrophically once lambda is large; `oracles.gain_cross_check` compares the
two.  `assemble` is the one certification point of every synthesis; its
guards include the TB = B bound `_TB_TOL`.  The closed-loop checks (chi_n,
T (A + BK) = (A - lambda I) T, decay) are oracles: see `oracles`.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .cauchy import CauchySystem, _separations, csum, explicit_inverse, lagrange_products
from .errors import CertificationError, GainFloorError
from .spectrum import DistCertificate, SpectrumModel, dist_alpha

_EPS = float(np.finfo(float).eps)
_ASSEMBLY_TOL = 1e-6  # hard alarm; acceptance asserts the tight 1e-8 contract
_TB_TOL = 1e-9        # acceptance bound on every synthesis's TB = B residual


@dataclass(frozen=True)
class GainEstimate:
    """Feedback gains with per-entry roundoff bars.

    `roundoff` bounds the floating-point error of each k_n at this truncation.
    The distance to the infinite gains is not part of it: `cauchy.tail_log_bound`
    gives that on request.
    """
    values: np.ndarray
    roundoff: np.ndarray


def _term_relerr(N: int) -> float:
    # log-domain entries accumulate ~N rounded logs; generous constant
    return _EPS * (16.0 * N + 4.0)


def feedback_gains_rowsum(model: SpectrumModel, lam: float, N: int,
                          cert: DistCertificate | None = None) -> GainEstimate:
    """k_n = (sum_j explicit-inverse row n) / b_n.

    Each row is summed with exactly rounded accumulation; the roundoff bar
    carries the absolute row mass, which is what limits this route at large
    lambda.
    """
    cert = _certify(model, lam, cert)
    inv = explicit_inverse(CauchySystem.from_model(model, lam, N, cert))
    return _rowsum_gains(model.b[:N], inv)


def _rowsum_gains(b: np.ndarray, inv: np.ndarray) -> GainEstimate:
    """Row-sum gains from the explicit inverse `inv` of an N-truncation with
    input coefficients `b`."""
    kb = csum(inv)
    bars = _term_relerr(inv.shape[0]) * np.sum(np.abs(inv), axis=1)
    _check_nonzero(kb, "row-sum")
    return GainEstimate(values=kb / b, roundoff=bars / b)


def feedback_gains_product(model: SpectrumModel, lam: float, N: int,
                           cert: DistCertificate | None = None) -> GainEstimate:
    """k_n = -lambda F_n(lambda) / b_n with F_n the truncated gain product.

    Exactly equal to the row-sum route in real arithmetic at every truncation
    (the rearrangement sum is identically 1); numerically this route has plain
    relative error and no cancellation.
    """
    cert = _certify(model, lam, cert)
    log_f, sgn_f, _, _ = lagrange_products(CauchySystem.from_model(model, lam, N, cert))
    kb = _product_kb(lam, log_f, sgn_f)
    _check_nonzero(kb, "product")
    b = model.b[:N]
    return GainEstimate(values=kb / b, roundoff=_term_relerr(N) * np.abs(kb) / b)


def _product_kb(lam: float, log_f: np.ndarray, sgn_f: np.ndarray) -> np.ndarray:
    """k_n b_n = -lambda F_n from the log-signed gain products F_n, n <= N."""
    return -lam * sgn_f * np.exp(log_f)


def _certify(model, lam, cert):
    if cert is None:
        cert = dist_alpha(model, lam)
    return cert.require_nonresonant()


def _check_nonzero(kb: np.ndarray, route: str) -> None:
    zero = np.flatnonzero(kb == 0.0)
    if zero.size:
        n = int(zero[0]) + 1
        raise GainFloorError(
            f"gain k_{n} b_{n} vanished ({route} route); the transformation would not invert")


def _check_finite(values: np.ndarray, what: str, lam: float) -> None:
    """Name the first non-finite entry of `values` (1-based index)."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        idx = np.unravel_index(int(bad[0]), values.shape)
        where = ", ".join(str(int(i) + 1) for i in idx)
        raise CertificationError(f"{what}[{where}] = {values[idx]}: float64 overflow "
                                 f"at lambda {lam}")


@dataclass(frozen=True)
class BacksteppingSynthesis:
    model: SpectrumModel
    lam: float
    N: int
    cert: DistCertificate
    b: np.ndarray
    k: np.ndarray
    kb: np.ndarray
    T_mat: np.ndarray
    Tinv_mat: np.ndarray
    tb_residuals: np.ndarray
    log_f: np.ndarray        # log|F_n| of the gain products, n <= N

    @property
    def eigenvalues(self) -> np.ndarray:
        return self.model.eigenvalues[:self.N]

    @property
    def tb_residual_max(self) -> float:
        return float(np.max(self.tb_residuals))


def _tb_residuals(cauchy_mat: np.ndarray, kb: np.ndarray) -> np.ndarray:
    """|sum_n k_n b_n / (lambda_j - lambda_n - lambda) - 1| for every mode j."""
    d = csum(cauchy_mat * kb[None, :]) - 1.0
    # Python's complex abs is hypot; numpy's can differ in the last bit
    return np.hypot(d.real, d.imag)


def assemble(model: SpectrumModel, lam: float, N: int,
             cert: DistCertificate | None = None) -> BacksteppingSynthesis:
    """Build the full synthesis and verify its internal identities.

    Gains come from the product route; T and T^-1 come from one Cauchy
    matrix.  In this order, raises CertificationError if a gain or a column
    product Q_n overflows float64 (checked before T, T^-1 or any sum is formed),
    GainFloorError if a gain vanishes, and CertificationError if T . T^-1 is
    not finite or drifts from the identity beyond the assembly alarm tolerance,
    or if the TB = B residual exceeds `_TB_TOL`.
    """
    cert = _certify(model, lam, cert)
    sys = CauchySystem.from_model(model, lam, N, cert)
    cmat = 1.0 / _separations(sys)
    log_p, sgn_p, log_q, sgn_q = lagrange_products(sys)
    b = model.b[:N]
    with np.errstate(over="ignore", invalid="ignore"):    # reported just below
        k = _product_kb(lam, log_p, sgn_p) / b
        q = sgn_q * np.exp(log_q)
    _check_finite(k, "gain k", lam)
    _check_finite(q, "Lagrange product Q", lam)
    kb = k * b
    _check_nonzero(kb, "product")

    T = b[:, None] * cmat * k[None, :]
    # a reciprocal product, not a division: see cauchy.lagrange_products
    Tinv = (-lam * b)[:, None] * cmat.T * (q * (1.0 / b))[None, :]
    synth = BacksteppingSynthesis(model=model, lam=float(lam), N=N, cert=cert,
                                  b=b, k=k, kb=kb, T_mat=T, Tinv_mat=Tinv,
                                  tb_residuals=_tb_residuals(cmat, kb), log_f=log_p)
    resid = inverse_residual(synth)
    if not math.isfinite(resid):
        raise CertificationError(f"T . T^-1 residual {resid}: float64 overflow at lambda {lam}")
    if resid > _ASSEMBLY_TOL:
        raise CertificationError(f"T . T^-1 residual {resid} exceeds assembly tolerance")
    if synth.tb_residual_max > _TB_TOL:
        raise CertificationError(f"TB=B residual {synth.tb_residual_max} exceeds the "
                                 f"acceptance bound {_TB_TOL}")
    return synth


def inverse_residual(synth: BacksteppingSynthesis) -> float:
    """max-norm of T . T^-1 - I at truncation; inf or NaN if the product overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        p = synth.T_mat @ synth.Tinv_mat
        p.flat[::synth.N + 1] -= 1.0
        return float(np.max(np.abs(p)))


# ---------------------------------------------------------------------------
# operator norms


_LANCZOS_SEED = 0                 # fixed start vector: repeated calls give the same bits
_LANCZOS_TOL = 4.0 * _EPS         # Ritz residual bar, relative to the Ritz value
_LANCZOS_TEST_GROWTH = 1.25       # spacing factor of the steps that test the stop rule


@functools.lru_cache
def _start_vector(n: int) -> np.ndarray:
    """The seeded unit Gaussian start vector of size n; read-only, built once per size."""
    rng = random.Random(_LANCZOS_SEED)       # numpy.random would add ~6 MB of RSS
    start = np.array([rng.gauss(0.0, 1.0) for _ in range(n)])
    start = start / np.linalg.norm(start)
    start.flags.writeable = False
    return start


def spectral_norm(mat: np.ndarray) -> float:
    """Largest singular value sigma_1, by Lanczos on the Gram operator.

    One route at every size and dtype.  Lanczos runs on v -> A^H (A v) with
    matrix-vector products only (A^H A is never formed), full
    reorthogonalization (two classical Gram-Schmidt passes per step), a
    fixed seeded Gaussian start vector, and at most n steps, where the
    Krylov space is complete.  Each product is multiplied by the power of
    two c with c max|a_ij| in [1/2, 1), which is exact, so the Gram operator
    runs at unit scale and neither overflows nor underflows; only A q is
    formed at the scale of A.

    Stop rule: after step k the top Ritz pair (theta, s) of the tridiagonal
    T_k has the residual r = |beta_k s_k|, and some eigenvalue of A^H A lies
    within r of theta (the residual bound for a Hermitian operator).  The
    run stops once r <= 4 eps theta and returns sqrt(theta), so sigma_1 is
    resolved to 2 eps before rounding.

    The rule is tested only at the steps k = 0, 1, 2, 3, 5, 7, 10, 13, 17,
    ..., each about 1.25 times the last (next = max(k + 1, int(1.25 (k + 1)))),
    at the last allowed step, and at a step whose beta_k is exactly zero (an
    invariant subspace, where the next Lanczos vector would divide by zero);
    the other steps only extend the recurrence.  Only a tested step
    eigendecomposes T_k.  So the run stops at or after the step where an
    every-step test would; when that test stops after s steps, the next
    tested step comes by step 1.25 s + 1.  On the 50 matrices of the README
    cost sweep T takes 4-11 steps and T^-1 47 (every-step test: 4-9 and
    38-40), 1,324 steps with 449 eigendecompositions (every-step: 1,112
    with 1,112).  The results are within 4.4 eps of `np.linalg.svd` and
    within 4.5 eps of an extended-precision reference (the SVD's own
    sigma_1: 7.2 eps).

    A near-tie sigma_1 ~ sigma_2 (T^-1 has sigma_1/sigma_2 = 1.00-1.04) does
    not stall the run: with a random start the error of the top Ritz value
    does not depend on that gap (Kuczynski & Wozniakowski, SIAM J. Matrix
    Anal. Appl. 13, 1992), and the residual bound needs no gap.  The
    Kato-Temple form r^2/gap is deliberately not used: the gap to the next
    Ritz value overstates the true gap while a cluster of top singular
    values is still unresolved, and on such a cluster (sigma_2 = (1 - 1e-9)
    sigma_1 at 300 modes) it stopped early with a relative error of up to
    7.7e-10.

    Raises CertificationError (exit 3) on a non-finite entry or when no
    step meets the stop rule.
    """
    a = np.asarray(mat)
    top = float(np.max(np.abs(a)))
    if not math.isfinite(top):
        raise CertificationError(f"spectral norm of a matrix with entry of modulus {top}")
    if top == 0.0:
        return 0.0
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    n = a.shape[1]
    q = np.empty((n, n), dtype=np.result_type(a.dtype, float))   # Lanczos vectors, by row
    q[0] = _start_vector(n)
    tri = np.zeros((n, n))     # T_k in its lower triangle, the only part eigh reads
    test = 0
    for k in range(n):
        basis = q[:k + 1]
        w = (a @ q[k]) * scale
        u = (w.conj() @ a).conj() * scale    # (cA)^H (cA) q_k; no scaled copy of A
        c = (basis @ u.conj()).conj()
        tri[k, k] = c[k].real
        u -= c @ basis
        u -= (basis @ u.conj()).conj() @ basis
        beta = np.linalg.norm(u)
        if k == test or k + 1 == n or beta == 0.0:
            test = max(k + 1, int(_LANCZOS_TEST_GROWTH * (k + 1)))
            theta, s = np.linalg.eigh(tri[:k + 1, :k + 1])
            if beta * abs(s[k, -1]) <= _LANCZOS_TOL * theta[-1]:
                return math.sqrt(theta[-1]) / scale
        if k + 1 < n:
            tri[k + 1, k] = beta
            q[k + 1] = u / beta
    raise CertificationError(f"Lanczos norm estimate did not converge in {n} steps")


def weighted_norm(synth: BacksteppingSynthesis, mat: np.ndarray, s: float) -> float:
    """Operator norm in the |lambda_n|^s-weighted coordinates (D(A^s) analogue);
    |lambda_n| is the level ell_n."""
    w = synth.model.levels[:synth.N] ** s
    return spectral_norm(w[:, None] * mat * (1.0 / w)[None, :])


# ---------------------------------------------------------------------------
# serialization


def _scalar_json(z):
    z = complex(z)
    return z.real if z.imag == 0.0 else [z.real, z.imag]


def synthesis_to_json(synth: BacksteppingSynthesis) -> str:
    doc = {
        "lambda": synth.lam,
        "N": synth.N,
        "dist": synth.cert.dist,
        "k": [_scalar_json(v) for v in synth.k],
        "tb_residual_max": synth.tb_residual_max,
        "norms": {"T": spectral_norm(synth.T_mat), "Tinv": spectral_norm(synth.Tinv_mat)},
    }
    return json.dumps(doc, indent=2) + "\n"
