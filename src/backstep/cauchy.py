"""Truncated Cauchy matrices and their explicit Lagrange-product inverses.

The transformation core is the matrix C with entries 1/(x_i - x_j - lambda)
on the nodes x_i = lambda_i, i <= N, float64 on a self-adjoint model and
purely imaginary on a skew-adjoint one.  The kernels take the nodes'
`NodeTable` and lambda: `node_table(model, N)` builds the lambda-free
differences x_i - x_j (exact with integer levels), their reciprocals and
whether the nodes are simple once per (model, N), for every damping of a
sweep and stage of a schedule; `NodeTable.of(x)` takes bare nodes.

The inverse has a closed form (Schechter, "On the inversion of certain
matrices", MTAC 13, 1959),

    C^-1 = lambda^2 diag(P) C^T diag(Q),
    P_i = prod_{m != i} (1 + lambda / (lambda_i - lambda_m)),
    Q_j = prod_{n != j} (1 - lambda / (lambda_j - lambda_n)),

so the inverse is C itself, transposed and scaled by two diagonals.  The
products reach magnitudes of order exp(c lambda^(1/alpha)); they are
accumulated in the log domain with separate sign tracking, the signs read
off the structure of the factor matrix (`lagrange_products`).  The
independent brute-force inversion oracle lives in `backstep.oracles`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ResonanceError
from .spectrum import SpectrumModel


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
        return _row_sums(arr)
    re = math.fsum(arr.real.tolist())
    im = math.fsum(arr.imag.tolist()) if np.iscomplexobj(arr) else 0.0
    return complex(re, im) if im != 0.0 else re


_BLOCK_ELEMENTS = 1 << 15   # terms extracted together: temporaries stay at 256 KiB


def block_rows(n: int) -> int:
    """Rows of n terms that `_row_sums` extracts together: about
    `_BLOCK_ELEMENTS` terms, and at least one row.  A complex row of n
    values is 2n terms there, its real and imaginary parts."""
    return max(1, _BLOCK_ELEMENTS // n)


def _row_sums(mat: np.ndarray) -> np.ndarray:
    """`math.fsum` of every row of a real or complex matrix, real and
    imaginary parts apart, bit for bit, without a Python step per row or
    per term.

    For rows of n terms take M = ceil(log2(n + 2)).  For a row p and a
    power of two sigma >= 2^M max|p|, q = (sigma + p) - sigma and p - q
    are exact, every q is a multiple of 2^-53 sigma, and |sum q| < sigma;
    so the sum of the q's is exact in any order, and so is the remainder
    p <- p - q, which is at most 2^-53 sigma.  A larger sigma keeps all
    three facts, so the first two passes take one scalar sigma for a whole
    block of rows:
      1. sigma_1 = 2^(e + M) with 2^e above the block's largest |term|,
         read from one `max` and one `min` of the block; it is at least
         2^M times every row's largest term;
      2. sigma_2 = 2^(M - 53) sigma_1, from that bound on the remainders;
         it is exact, since a nonzero remainder is at least the smallest
         subnormal;
      3. and on: sigma from each row's largest remainder, so the per-row
         reduction runs only for a block with a remainder left after pass 2.
    A row keeps a remainder after pass 2 only if a term far below the
    block's largest term has low bits set; each later pass shrinks the
    row's largest remainder by at least 2^(52 - M).  The loop stops when
    every remainder is zero, so each pass also costs one `any`.  The
    partial sums tau_1, tau_2, ... then add up exactly to the row sum.
    When only tau_1 and tau_2 are nonzero, the single addition
    tau_1 + tau_2 is the correctly rounded sum, which is what fsum returns;
    otherwise fsum runs over the row's few taus.  A block whose largest
    term is not finite or is at least 2^(1020 - M) sends the rows that hold
    such a term to fsum itself, after every other row, real rows first;
    that keeps fsum's OverflowError, ValueError and NaN behaviour.  An
    exactly zero sum is +0.0, as in fsum.

    Rows are extracted in blocks of about `_BLOCK_ELEMENTS` terms, a
    complex block as its real rows over its imaginary rows.  Each block is
    copied once into one preallocated buffer, and each sigma + p goes into
    a second one.
    """
    rows, n = mat.shape
    parts = (mat.real, mat.imag) if np.iscomplexobj(mat) else (mat,)
    out = np.zeros(rows, dtype=complex if len(parts) == 2 else float)
    if n == 0:
        return out
    outs = (out.real, out.imag) if len(parts) == 2 else (out,)
    m = (n + 1).bit_length()                  # ceil(log2(n + 2))
    limit = math.ldexp(1.0, 1020 - m)         # sigma + p stays below 2^1021
    step = block_rows(n * len(parts))
    buf = np.empty((2, len(parts) * min(step, rows), n))
    wild = []                                 # (part, row) for fsum itself
    for lo in range(0, rows, step):
        k = min(step, rows - lo)
        p, q = buf[:, :len(parts) * k]
        for i, part in enumerate(parts):          # the block's one copy
            p[i * k:(i + 1) * k] = part[lo:lo + k]
        low, high = p.min(), p.max()
        if -limit < low and high < limit:         # false also on inf and NaN
            big = max(high, -low)
        else:
            top = np.abs(p, out=q).max(axis=1)
            bad = np.flatnonzero(~(top < limit))
            p[bad] = top[bad] = 0.0
            big = top.max()
            wild.extend((r // k, lo + r % k) for r in bad.tolist())
        sigma = math.ldexp(1.0, math.frexp(big)[1] + m)
        taus = []
        while True:
            np.add(p, sigma, out=q)
            q -= sigma
            p -= q
            taus.append(q.sum(axis=1))
            if not p.any():
                break
            if len(taus) == 1:      # pass 2: sigma from the bound
                sigma *= math.ldexp(1.0, m - 53)
            else:                   # passes 3 on: sigma from each row's largest remainder
                top = np.abs(p, out=q).max(axis=1)
                sigma = np.ldexp(1.0, np.frexp(top)[1] + m)[:, None]
        sums = taus[0] + taus[1] if len(taus) > 1 else taus[0]
        if len(taus) > 2:
            taus = np.array(taus)
            for r in np.flatnonzero(np.any(taus[2:] != 0.0, axis=0)):
                sums[r] = math.fsum(taus[:, r].tolist())
        for i, o in enumerate(outs):
            o[lo:lo + k] = sums[i * k:(i + 1) * k]
    for i, r in sorted(wild):       # real rows first: the first error is fsum's
        outs[i][r] = math.fsum(parts[i][r].tolist())
    return out


@dataclass(frozen=True, eq=False)
class NodeTable:
    """The lambda-free data of the nodes x_1..x_N, read-only: the differences
    `dx` = x_i - x_j, their reciprocals `inv_dx` off the diagonal (0 on it,
    where m = i in a Lagrange product), and `simple`, whether no two nodes
    coincide.  C and the Lagrange products of every damping read them."""
    x: np.ndarray
    dx: np.ndarray
    inv_dx: np.ndarray
    simple: bool

    @classmethod
    def of(cls, x: np.ndarray) -> "NodeTable":
        x = np.array(x)
        dx = x[:, None] - x[None, :]
        off = dx != 0.0
        # complex division by a zero-imaginary divisor computes a * (1/b), so
        # every division in the kernel is that reciprocal product: real and
        # complex nodes round alike
        inv_dx = np.divide(1.0, dx, out=np.zeros_like(dx), where=off)
        for a in (x, dx, inv_dx):
            a.flags.writeable = False
        return cls(x=x, dx=dx, inv_dx=inv_dx,
                   simple=bool(dx.size - np.count_nonzero(off) <= x.size))


def node_table(model: SpectrumModel, N: int) -> NodeTable:
    """The node table of the model's first N eigenvalues, 1 <= N <= n_max:
    built on first use and kept by the model (`SpectrumModel.node_tables`),
    so it is freed with the model."""
    if N < 1 or N > model.n_max:
        raise ValueError(f"truncation N={N} outside [1, {model.n_max}]")
    table = model.node_tables.get(N)
    if table is None:
        table = model.node_tables[N] = NodeTable.of(model.eigenvalues[:N])
    return table


def _separations(table: NodeTable, lam: float, min_sep: float | None) -> np.ndarray:
    """(x_i - x_j) - lambda after the resonance guard and, below a certified
    distance `min_sep`, the stale-certificate guard.  On a self-adjoint model
    these are `dist_alpha`'s own float operations, so a valid certificate's
    distance holds with no slack."""
    sep = table.dx - lam
    dist = np.abs(sep)
    m = float(np.min(dist))
    if m == 0.0:
        i, j = np.unravel_index(int(np.argmin(dist)), sep.shape)
        raise ResonanceError(f"lambda equals x_{i+1} - x_{j+1}, an eigenvalue difference")
    if min_sep is not None and m < min_sep:
        raise ResonanceError(
            f"node separation {m} below certified distance {min_sep}: stale certificate")
    return sep


def build_cauchy(table: NodeTable, lam: float, min_sep: float | None = None) -> np.ndarray:
    """N x N matrix C with entries 1/(x_i - x_j - lambda) = 1/(lambda_i - lambda_j - lambda);
    a node pair closer than a certified distance `min_sep` is a stale certificate."""
    sep = _separations(table, lam, min_sep)
    return np.divide(1.0, sep, out=sep)


def lagrange_products(table: NodeTable, lam: float
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Row and column products of the explicit inverse, in log-signed form.

    Returns (log|P|, sgn P, log|Q|, sgn Q) with
      P_i = prod_{m != i} (1 + lambda / (lambda_i - lambda_m)),
      Q_j = prod_{n != j} (1 - lambda / (lambda_j - lambda_n)).

    One factor matrix f = 1 + q, q = lambda / (x_i - x_j), serves both: q is
    antisymmetric bit for bit (negating x_i - x_j negates every rounded
    step), so Q's factors 1 - q are f's columns.  The signs come from the
    structure of f, not from a product of unit-modulus factors:
      - real nodes: sgn P_i and sgn Q_j are the parities of the negative
        factors in row i and column j, exactly +-1 (a product of the
        rounded units f / |f| drifts from +-1 by tens of ulps at N = 300);
      - purely imaginary nodes (skew-adjoint): q is purely imaginary, so
        f_ji = 1 - q_ij = conj(f_ij) and |f| is symmetric bit for bit.  Then
        log|Q| = log|P| and sgn Q = conj(sgn P) exactly, and only P is
        reduced.  At N = 1 the empty product 1+0j would conjugate to 1-0j,
        so N = 1 takes the general route;
      - other complex nodes: the product of the units f / |f| along rows
        and along columns.
    A column reduction runs over the rows of a transposed copy, which round
    as the rows of a 1 - q matrix would (`_column_reduce`).  The real path
    reads the parities first and then takes |f| and log|f| in place over f,
    so it holds f and half a transposed copy: 1.5 N x N blocks.
    """
    if not table.simple:
        raise ResonanceError("repeated eigenvalue: Lagrange products need simple nodes")
    f = np.multiply(table.inv_dx, lam)     # q = 0 on the diagonal: a neutral factor
    f += 1.0
    if np.any(f == 0.0):
        raise ResonanceError("a Lagrange factor vanished: lambda equals lambda_i - lambda_m exactly")
    if not np.iscomplexobj(f):
        # a parity is the low bit of a count, and a uint8 count wraps mod 256,
        # which keeps it (xor.reduce along rows is ~12x slower at N = 300)
        neg = (f < 0.0).view(np.uint8)
        sgn_p = 1.0 - 2.0 * (neg.sum(axis=1, dtype=np.uint8) & 1)
        sgn_q = 1.0 - 2.0 * (neg.sum(axis=0, dtype=np.uint8) & 1)
        del neg
        logs = np.log(np.abs(f, out=f), out=f)
        return np.sum(logs, axis=1), sgn_p, _column_reduce(np.sum, logs), sgn_q
    logs = np.abs(f)
    f *= 1.0 / logs              # f now holds the unit signs
    np.log(logs, out=logs)
    log_p = np.sum(logs, axis=1)
    sgn_p = np.prod(f, axis=1)
    if table.x.size > 1 and not np.any(table.x.real):
        return log_p, sgn_p, log_p.copy(), sgn_p.conj()
    return log_p, sgn_p, _column_reduce(np.sum, logs), _column_reduce(np.prod, f)


def _column_reduce(reduce, mat: np.ndarray) -> np.ndarray:
    """`reduce(mat.T.copy(), axis=1)`, bit for bit, from two half-width
    transposed copies: each column is reduced as one C-contiguous row, and
    only half of the whole copy exists at a time."""
    out = np.empty(mat.shape[1], dtype=mat.dtype)
    half = (len(out) + 1) // 2
    for cols in (slice(0, half), slice(half, None)):
        reduce(mat[:, cols].T.copy(), axis=1, out=out[cols])
    return out


def explicit_inverse(table: NodeTable, lam: float, min_sep: float | None = None) -> np.ndarray:
    """Closed-form inverse of `build_cauchy(table, lam)`: lambda^2 diag(P) C^T diag(Q).

    Entry (i, j) = lambda^2 P_i Q_j / (lambda_j - lambda_i - lambda); the
    empty products at N = 1 are 1, so the single entry is -lambda.
    """
    log_p, sgn_p, log_q, sgn_q = lagrange_products(table, lam)
    p = np.float64(lam) ** 2 * (sgn_p * np.exp(log_p))    # lam ** 2's C pow, inf on overflow
    return p[:, None] * build_cauchy(table, lam, min_sep).T * (sgn_q * np.exp(log_q))[None, :]


# ---------------------------------------------------------------------------
# scalar output format (17 significant digits, complex as "re+imi" literals)


def format_scalar(z) -> str:
    z = complex(z)
    if z.imag == 0.0:
        return format(z.real, ".17g")
    sign = "+" if z.imag >= 0 else "-"
    return f"{format(z.real, '.17g')}{sign}{format(abs(z.imag), '.17g')}i"
