"""Truncated Cauchy matrices and their explicit Lagrange-product inverses.

The transformation core is the matrix C with entries 1/(x_i - x_j - lambda)
on the nodes x_i = lambda_i.  The differences x_i - x_j are formed once per
system (`CauchySystem.dx`) and shared by C and the Lagrange products; with
integer levels they are exact.  The inverse has a closed form (Schechter,
"On the inversion of certain matrices", MTAC 13, 1959),

    C^-1 = lambda^2 diag(P) C^T diag(Q),
    P_i = prod_{m != i} (1 + lambda / (lambda_i - lambda_m)),
    Q_j = prod_{n != j} (1 - lambda / (lambda_j - lambda_n)),

so the inverse is C itself, transposed and scaled by two diagonals.  The
products reach magnitudes of order exp(c lambda^(1/alpha)); they are
accumulated in the log domain with separate unit-modulus sign tracking.  The
independent brute-force inversion oracle lives in `backstep.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import CertificationError, ResonanceError
from .spectrum import Kind, SpectrumModel

_IMAG_TOL = 1e-13  # self-adjoint outputs must be real to this tolerance


def csum(values: Sequence[complex] | np.ndarray) -> complex | np.ndarray:
    """Exactly rounded sum of real or complex values along the last axis, in
    any order: a scalar for 1-D input, one sum per row for 2-D.

    Real and imaginary parts are summed separately.  A 1-D input goes to
    `math.fsum`, which also stays the reference (`oracles.all_J` sums with it
    directly).  A 2-D input is summed by error-free extraction (Rump, Ogita
    and Oishi, "Accurate floating-point summation part I: faithful
    rounding", SIAM J. Sci. Comput. 31(1), 2008) with whole-array operations,
    and each row gets the bits `math.fsum` gives it; see `_row_sums`.
    """
    arr = np.asarray(values)
    if arr.ndim == 2:
        if not np.iscomplexobj(arr):
            return _row_sums(arr)
        out = np.empty(arr.shape[0], dtype=complex)
        out.real, out.imag = _row_sums(arr.real), _row_sums(arr.imag)
        return out
    re = math.fsum(arr.real.tolist())
    im = math.fsum(arr.imag.tolist()) if np.iscomplexobj(arr) else 0.0
    return complex(re, im) if im != 0.0 else re


_BLOCK_ROWS = 64   # rows extracted together: temporaries stay at 64 x n


def _row_sums(mat: np.ndarray) -> np.ndarray:
    """`math.fsum` of every row of a real matrix, bit for bit, without a
    Python step per row or per term.

    For a row p of n terms take M = ceil(log2(n + 2)) and sigma = 2^(e + M)
    with max|p| < 2^e.  Then q = (sigma + p) - sigma and p - q are exact,
    every q is a multiple of 2^-53 sigma, and |sum q| < sigma; so the sum of
    the q's is exact in any order, and so is the remainder p <- p - q.  Each
    pass shrinks the row's largest remainder by at least 2^(52 - M), and the
    passes stop when every remainder is zero.  The partial sums tau_1,
    tau_2, ... then add up exactly to the row sum.  When only tau_1 and
    tau_2 are nonzero, the single addition tau_1 + tau_2 is the correctly
    rounded sum, which is what fsum returns; otherwise fsum runs over the
    row's few taus.  A row whose largest term is not finite or is at least
    2^(1020 - M) is summed by fsum itself, which keeps its OverflowError,
    ValueError and NaN behaviour.  An exactly zero sum is +0.0, as in fsum.
    """
    rows, n = mat.shape
    out = np.zeros(rows)
    if n == 0:
        return out
    m = (n + 1).bit_length()                  # ceil(log2(n + 2))
    limit = math.ldexp(1.0, 1020 - m)         # sigma + p stays below 2^1021
    for lo in range(0, rows, _BLOCK_ROWS):
        block = out[lo:lo + _BLOCK_ROWS]          # a view: written in place
        p = np.array(mat[lo:lo + _BLOCK_ROWS], dtype=float)
        top = np.maximum(p.max(axis=1), -p.min(axis=1))
        wild = np.flatnonzero(~(top < limit))   # also inf and NaN
        p[wild] = top[wild] = 0.0
        taus = []
        while top.any():
            sigma = np.ldexp(1.0, np.frexp(top)[1] + m)[:, None]
            q = sigma + p
            q -= sigma
            p -= q
            taus.append(q.sum(axis=1))
            top = np.maximum(p.max(axis=1), -p.min(axis=1))
        if taus:
            taus = np.array(taus)
            block[:] = taus[:2].sum(axis=0)       # one addition: tau_1 + tau_2
            for r in np.flatnonzero(np.any(taus[2:] != 0.0, axis=0)):
                block[r] = math.fsum(taus[:, r].tolist())
        for r in wild:
            block[r] = math.fsum(mat[lo + r].tolist())
    return out


@dataclass(frozen=True)
class CauchySystem:
    """Nodes x_i = lambda_i, i <= N, and the damping lambda of one truncation.

    Self-adjoint nodes are real (float64), so the whole synthesis runs in real
    arithmetic; skew-adjoint nodes are purely imaginary.  `min_sep`, when set
    from a distance certificate, guards every divided difference: a node pair
    closer than the certified distance means the certificate is stale.
    """
    x: np.ndarray
    lam: float
    min_sep: float | None = None

    @property
    def n(self) -> int:
        return self.x.size

    @cached_property
    def dx(self) -> np.ndarray:
        """x_i - x_j, formed once for C and the Lagrange products; read-only."""
        dx = self.x[:, None] - self.x[None, :]
        dx.flags.writeable = False
        return dx

    @classmethod
    def from_model(cls, model: SpectrumModel, lam: float, N: int,
                   cert=None) -> "CauchySystem":
        if N < 1 or N > model.n_max:
            raise ValueError(f"truncation N={N} outside [1, {model.n_max}]")
        x = -model.levels[:N] if model.kind is Kind.SELF_ADJOINT else model.eigenvalues[:N]
        return cls(x=x, lam=float(lam), min_sep=None if cert is None else cert.dist)


def _separations(sys: CauchySystem) -> np.ndarray:
    """(x_i - x_j) - lambda after the resonance and stale-certificate guard.
    On a self-adjoint model these are `dist_alpha`'s own float operations, so
    a valid certificate's distance holds with no slack."""
    sep = sys.dx - sys.lam
    dist = np.abs(sep)
    m = float(np.min(dist))
    if m == 0.0:
        i, j = np.unravel_index(int(np.argmin(dist)), sep.shape)
        raise ResonanceError(f"lambda equals x_{i+1} - x_{j+1}, an eigenvalue difference")
    if sys.min_sep is not None and m < sys.min_sep:
        raise ResonanceError(
            f"node separation {m} below certified distance {sys.min_sep}: stale certificate")
    return sep


def build_cauchy(sys: CauchySystem) -> np.ndarray:
    """N x N matrix C with entries 1/(x_i - x_j - lambda) = 1/(lambda_i - lambda_j - lambda)."""
    return _realized(sys, 1.0 / _separations(sys))


def lagrange_products(sys: CauchySystem) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column products of the explicit inverse, in log-signed form.

    Returns (log|P|, sgn P, log|Q|, sgn Q) with
      P_i = prod_{m != i} (1 + lambda / (lambda_i - lambda_m)),
      Q_j = prod_{n != j} (1 - lambda / (lambda_j - lambda_n)).
    """
    dx = sys.dx
    off = dx != 0.0
    if dx.size - np.count_nonzero(off) > sys.n:
        raise ResonanceError("repeated eigenvalue: Lagrange products need simple nodes")
    # complex division by a zero-imaginary divisor computes a * (1/b), so every
    # division here is that reciprocal product: real and complex nodes round
    # alike.  The diagonal (m = i) gets q = 0, a neutral factor below.
    q = sys.lam * np.divide(1.0, dx, out=np.zeros_like(dx), where=off)
    return _log_signed_rows(1.0 + q) + _log_signed_rows(1.0 - q)


def _log_signed_rows(factors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row products of `factors`: (log magnitude, unit sign)."""
    if np.any(factors == 0.0):
        raise ResonanceError("a Lagrange factor vanished: lambda equals lambda_i - lambda_m exactly")
    mag = np.abs(factors)
    return np.sum(np.log(mag), axis=1), np.prod(factors * (1.0 / mag), axis=1)


def explicit_inverse(sys: CauchySystem) -> np.ndarray:
    """Closed-form inverse of `build_cauchy(sys)`: lambda^2 diag(P) C^T diag(Q).

    Entry (i, j) = lambda^2 P_i Q_j / (lambda_j - lambda_i - lambda); the
    empty products at N = 1 are 1, so the single entry is -lambda.
    """
    log_p, sgn_p, log_q, sgn_q = lagrange_products(sys)
    p = sys.lam ** 2 * (sgn_p * np.exp(log_p))
    return p[:, None] * build_cauchy(sys).T * (sgn_q * np.exp(log_q))[None, :]


def _realized(sys: CauchySystem, mat: np.ndarray) -> np.ndarray:
    """Drop exact-zero imaginary parts of a complex matrix on real nodes."""
    if np.isrealobj(mat) or np.any(sys.x.imag != 0.0):
        return mat
    scale = float(np.max(np.abs(mat))) or 1.0
    worst = float(np.max(np.abs(mat.imag)))
    if worst > _IMAG_TOL * scale:
        raise CertificationError(f"imaginary residue {worst} on real path (scale {scale})")
    return mat.real.copy()


def tail_log_bound(model: SpectrumModel, i: int, lam: float, N: int) -> float:
    """Certified bound on |sum_{m>N} log(1 +- lambda/(lambda_i - lambda_m))|.

    Majorant: each term is at most 2 lambda / (c |i-m| m^(alpha-1)); the series
    is summed explicitly up to M = max(N, 2i) and closed with the integral
    bound 4 lambda / (c (alpha-1) M^(alpha-1)).  Requires the truncation to be
    past the threshold N > (10 lambda / c)^(1/(alpha-1)) so every dropped
    factor is within 10% of 1.
    """
    if lam < 0:
        raise ValueError("lambda must be nonnegative")
    if not 1 <= i <= N:
        raise ValueError("row index must satisfy 1 <= i <= N")
    c, alpha = model.gap_c, model.alpha
    threshold = (10.0 * lam / c) ** (1.0 / (alpha - 1.0))
    if N <= threshold:
        raise ValueError(f"N={N} below tail threshold {threshold}")
    if lam == 0.0:
        return 0.0
    M = max(2 * i, N)
    m = np.arange(N + 1, M + 1, dtype=float)
    head = float(np.sum(2.0 * lam / (c * (m - i) * m ** (alpha - 1.0)))) if m.size else 0.0
    tail = 4.0 * lam / (c * (alpha - 1.0) * float(M) ** (alpha - 1.0))
    return head + tail


def truncation_entry_bar(model: SpectrumModel, lam: float, N: int) -> float:
    """Relative error bar exp(b_P + b_Q) - 1 of a truncated inverse entry.

    Both Lagrange products drop the same tail family; the worst row index is
    i = N, so twice that bound dominates any entry of the N-truncation.
    """
    b = tail_log_bound(model, N, lam, N)
    return math.expm1(2.0 * b)


# ---------------------------------------------------------------------------
# scalar output format (17 significant digits, complex as "re+imi" literals)


def format_scalar(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format(z.real, ".17g")
    sign = "+" if z.imag >= 0 else "-"
    return f"{format(z.real, '.17g')}{sign}{format(abs(z.imag), '.17g')}i"
